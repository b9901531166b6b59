//! Hand-rolled argument parsing (no CLI crates on the approved list).
//!
//! Grammar: `alpha <subcommand> [positional…] [--flag value…]`.
//! Every flag takes exactly one value except boolean switches, which are
//! listed per subcommand.

use std::collections::HashMap;

use alpha_core::{MacScheme, Mode, Reliability};
use alpha_crypto::Algorithm;

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `alpha keygen --scheme rsa|ecdsa --out FILE [--bits N]`
    Keygen {
        /// "rsa" or "ecdsa".
        scheme: String,
        /// Output file for the identity.
        out: String,
        /// RSA modulus bits (ignored for ecdsa).
        bits: usize,
    },
    /// `alpha listen BIND [--alg A] [--reliable] [--seconds N]
    ///  [--identity FILE] [--require-peer-auth]`
    Listen {
        /// Bind address, e.g. `0.0.0.0:7001`.
        bind: String,
        /// Protocol options.
        opts: ProtoOpts,
        /// Serve duration in seconds.
        seconds: u64,
    },
    /// `alpha send PEER MSG… [--alg A] [--reliable] [--mode base|c|m]
    ///  [--bind ADDR]`
    Send {
        /// Peer address.
        peer: String,
        /// Messages to send (one exchange).
        messages: Vec<String>,
        /// Protocol options.
        opts: ProtoOpts,
        /// Transfer mode.
        mode: Mode,
        /// Local bind address.
        bind: String,
    },
    /// `alpha relay BIND LEFT RIGHT [--seconds N] [--strict]`
    Relay {
        /// Bind address of the middlebox.
        bind: String,
        /// Address of the first host.
        left: String,
        /// Address of the second host.
        right: String,
        /// Run duration in seconds.
        seconds: u64,
        /// Drop traffic of unknown associations.
        strict: bool,
    },
    /// `alpha sim [--relays N] [--messages N] [--batch N] [--mode base|c|m]
    ///  [--loss P] [--alg A] [--reliable] [--device NAME] [--seconds N]
    ///  [--trace]`
    Sim(SimOpts),
    /// `alpha trace FILE` — summarize a JSON-lines packet trace produced
    /// by `alpha sim --trace`.
    Trace {
        /// Trace file path ("-" for stdin).
        file: String,
    },
    /// `alpha engine serve BIND [--workers N] [--shards N] [--seconds N]
    ///  [--alg A] [--mac hmac|prefix] [--reliable] [--s1-budget BYTES]
    ///  [--max-buffered BYTES] [--route LEFT=RIGHT] [--adapt]
    ///  [--hibernate-after MS] [--frozen-budget BYTES]`
    EngineServe {
        /// Bind address of the shared socket.
        bind: String,
        /// Protocol options for accepted associations.
        opts: ProtoOpts,
        /// Worker threads (shards are spread across them).
        workers: usize,
        /// Flow-table shards.
        shards: usize,
        /// Run duration in seconds (0 = forever).
        seconds: u64,
        /// Per-flow S1 admission budget of host flows in bytes/sec (0 =
        /// unlimited); relay flows use the relay's authenticated-S1
        /// bucket.
        s1_budget: u64,
        /// Global buffered-bytes valve (0 = unlimited).
        max_buffered: u64,
        /// Optional relay route `LEFT=RIGHT`: also verify-and-forward
        /// between these two addresses.
        route: Option<(String, String)>,
        /// Enable per-flow channel estimation and mode adaptation.
        adapt: bool,
        /// Freeze host flows idle for this many milliseconds into the
        /// hibernation store (0 = never hibernate).
        hibernate_after_ms: u64,
        /// Byte budget for frozen records; LRU-evicted beyond it
        /// (0 = unbounded).
        frozen_budget: u64,
    },
    /// `alpha engine stats ADDR [--timeout-ms N] [--json]` — query a
    /// running engine and print a human summary (or the raw JSON
    /// snapshot with `--json`), including per-flow adaptation state.
    EngineStats {
        /// Address of the engine's shared socket.
        addr: String,
        /// Reply timeout in milliseconds.
        timeout_ms: u64,
        /// Print the raw JSON snapshot instead of the summary.
        json: bool,
    },
    /// `alpha mesh serve BIND [--workers N] [--alg A] [--mac hmac|prefix]
    ///  [--reliable] [--upstream A,B,…] [--next-hop A,B,…] [--source A,B,…]
    ///  [--probe-ms N] [--seconds N] [--open]`
    MeshServe {
        /// Bind address of the relay's shared socket.
        bind: String,
        /// Protocol options for accepted associations.
        opts: ProtoOpts,
        /// Worker threads.
        workers: usize,
        /// Run duration in seconds (0 = forever).
        seconds: u64,
        /// Registered upstream peers (senders this relay accepts from).
        upstreams: Vec<String>,
        /// Downstream next hops; the first is primary, the rest standby.
        next_hops: Vec<String>,
        /// Source addresses routed toward the primary next hop.
        sources: Vec<String>,
        /// Liveness probe interval in milliseconds.
        probe_ms: u64,
        /// Accept traffic from unregistered upstreams (disables the
        /// static-relay-set bypass defense; monitor-only).
        open: bool,
    },
    /// `alpha mesh peers ADDR [--timeout-ms N] [--json]` — query a
    /// running mesh relay and print its peer table (health, RTT,
    /// per-peer traffic) plus the hop counters.
    MeshPeers {
        /// Address of the relay's shared socket.
        addr: String,
        /// Reply timeout in milliseconds.
        timeout_ms: u64,
        /// Print the raw JSON snapshot instead of the table.
        json: bool,
    },
    /// `alpha loadgen [--workers N] [--senders N] [--flows N]
    ///  [--payload BYTES] [--seconds N] [--shards N] [--quick] [--json]`
    /// — saturate a live loopback engine and print verified-S2
    /// throughput.
    Loadgen {
        /// Server worker threads.
        workers: usize,
        /// Sender threads (each with its own socket and client engine).
        senders: usize,
        /// Concurrent flows per sender.
        flows: usize,
        /// Payload bytes per exchange.
        payload: usize,
        /// Measurement window in seconds (fractions allowed).
        seconds: f64,
        /// Server flow-table shards.
        shards: usize,
        /// Use the small sub-second CI preset as the baseline.
        quick: bool,
        /// Print the report as one JSON object instead of a summary.
        json: bool,
    },
    /// `alpha help` or `--help` anywhere.
    Help,
}

/// Options shared by the networking subcommands.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtoOpts {
    /// Hash algorithm.
    pub alg: Algorithm,
    /// Delivery guarantee.
    pub reliability: Reliability,
    /// MAC construction.
    pub mac: MacScheme,
    /// Identity file for protected bootstrap.
    pub identity: Option<String>,
    /// Require the peer's handshake to be signed.
    pub require_peer_auth: bool,
}

impl Default for ProtoOpts {
    fn default() -> ProtoOpts {
        ProtoOpts {
            alg: Algorithm::Sha1,
            reliability: Reliability::Unreliable,
            mac: MacScheme::Hmac,
            identity: None,
            require_peer_auth: false,
        }
    }
}

/// Options for `alpha sim`.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOpts {
    /// Number of relays on the path.
    pub relays: usize,
    /// Messages to deliver.
    pub messages: usize,
    /// Messages per exchange.
    pub batch: usize,
    /// Transfer mode.
    pub mode: Mode,
    /// Per-link loss probability.
    pub loss: f64,
    /// Protocol options.
    pub proto: ProtoOpts,
    /// Device model name (xeon, n770, ar2315, bcm5365, geode, cc2430).
    pub device: String,
    /// Virtual horizon in seconds.
    pub seconds: u64,
    /// Payload bytes per message.
    pub payload: usize,
    /// Print a JSON-lines packet trace to stdout.
    pub trace: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SimOpts {
    fn default() -> SimOpts {
        SimOpts {
            relays: 2,
            messages: 100,
            batch: 10,
            mode: Mode::Cumulative,
            loss: 0.01,
            proto: ProtoOpts::default(),
            device: "ar2315".into(),
            seconds: 120,
            payload: 256,
            trace: false,
            seed: 1,
        }
    }
}

/// Parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError(msg.into()))
}

/// Split args into positionals and `--flag [value]` pairs.
/// `switches` lists the flags that take no value.
fn split(
    args: &[String],
    switches: &[&str],
) -> Result<(Vec<String>, HashMap<String, String>), ParseError> {
    let mut pos = Vec::new();
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(name) = a.strip_prefix("--") {
            if switches.contains(&name) {
                flags.insert(name.to_string(), "true".to_string());
                i += 1;
            } else {
                let Some(value) = args.get(i + 1) else {
                    return err(format!("--{name} needs a value"));
                };
                flags.insert(name.to_string(), value.clone());
                i += 2;
            }
        } else {
            pos.push(a.clone());
            i += 1;
        }
    }
    Ok((pos, flags))
}

fn parse_alg(s: &str) -> Result<Algorithm, ParseError> {
    match s {
        "sha1" => Ok(Algorithm::Sha1),
        "sha256" => Ok(Algorithm::Sha256),
        "mmo" => Ok(Algorithm::MmoAes),
        other => err(format!("unknown algorithm '{other}' (sha1|sha256|mmo)")),
    }
}

fn parse_mode(s: &str, batch: usize) -> Result<Mode, ParseError> {
    match s {
        "base" => Ok(Mode::Base),
        "c" | "cumulative" => Ok(Mode::Cumulative),
        "m" | "merkle" => Ok(Mode::Merkle),
        "cm" | "forest" => Ok(Mode::CumulativeMerkle {
            leaves_per_tree: batch.max(2) / 2,
        }),
        other => err(format!("unknown mode '{other}' (base|c|m|cm)")),
    }
}

fn proto_opts(flags: &HashMap<String, String>) -> Result<ProtoOpts, ParseError> {
    let mut o = ProtoOpts::default();
    if let Some(a) = flags.get("alg") {
        o.alg = parse_alg(a)?;
    }
    if flags.contains_key("reliable") {
        o.reliability = Reliability::Reliable;
    }
    if let Some(m) = flags.get("mac") {
        o.mac = match m.as_str() {
            "hmac" => MacScheme::Hmac,
            "prefix" => MacScheme::Prefix,
            other => return err(format!("unknown mac scheme '{other}' (hmac|prefix)")),
        };
    }
    o.identity = flags.get("identity").cloned();
    o.require_peer_auth = flags.contains_key("require-peer-auth");
    Ok(o)
}

fn get_num<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, ParseError> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| ParseError(format!("--{name}: bad value '{v}'"))),
    }
}

/// Split a comma-separated flag value into its (non-empty) entries.
fn addr_list(flags: &HashMap<String, String>, name: &str) -> Vec<String> {
    flags.get(name).map_or_else(Vec::new, |v| {
        v.split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect()
    })
}

/// Parse a full argument vector (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, ParseError> {
    if args.is_empty()
        || args
            .iter()
            .any(|a| a == "--help" || a == "-h" || a == "help")
    {
        return Ok(Command::Help);
    }
    let sub = args[0].as_str();
    let rest = &args[1..];
    match sub {
        "keygen" => {
            let (_pos, flags) = split(rest, &[])?;
            let scheme = flags
                .get("scheme")
                .cloned()
                .unwrap_or_else(|| "ecdsa".into());
            if scheme != "rsa" && scheme != "ecdsa" {
                return err(format!("unknown scheme '{scheme}' (rsa|ecdsa)"));
            }
            let Some(out) = flags.get("out").cloned() else {
                return err("keygen needs --out FILE");
            };
            Ok(Command::Keygen {
                scheme,
                out,
                bits: get_num(&flags, "bits", 1024)?,
            })
        }
        "listen" => {
            let (pos, flags) = split(rest, &["reliable", "require-peer-auth"])?;
            let [bind] = pos.as_slice() else {
                return err("listen needs exactly one bind address");
            };
            Ok(Command::Listen {
                bind: bind.clone(),
                opts: proto_opts(&flags)?,
                seconds: get_num(&flags, "seconds", 60)?,
            })
        }
        "send" => {
            let (pos, flags) = split(rest, &["reliable", "require-peer-auth"])?;
            let Some((peer, messages)) = pos.split_first() else {
                return err("send needs a peer address and at least one message");
            };
            if messages.is_empty() {
                return err("send needs at least one message");
            }
            let batch = messages.len();
            let mode = match flags.get("mode") {
                Some(m) => parse_mode(m, batch)?,
                None if batch == 1 => Mode::Base,
                None => Mode::Cumulative,
            };
            Ok(Command::Send {
                peer: peer.clone(),
                messages: messages.to_vec(),
                opts: proto_opts(&flags)?,
                mode,
                bind: flags
                    .get("bind")
                    .cloned()
                    .unwrap_or_else(|| "0.0.0.0:0".into()),
            })
        }
        "relay" => {
            let (pos, flags) = split(rest, &["strict"])?;
            let [bind, left, right] = pos.as_slice() else {
                return err("relay needs BIND LEFT RIGHT addresses");
            };
            Ok(Command::Relay {
                bind: bind.clone(),
                left: left.clone(),
                right: right.clone(),
                seconds: get_num(&flags, "seconds", 60)?,
                strict: flags.contains_key("strict"),
            })
        }
        "engine" => {
            let Some((verb, rest)) = rest.split_first() else {
                return err("engine needs a verb: serve|stats");
            };
            match verb.as_str() {
                "serve" => {
                    let (pos, flags) = split(rest, &["reliable", "require-peer-auth", "adapt"])?;
                    let [bind] = pos.as_slice() else {
                        return err("engine serve needs exactly one bind address");
                    };
                    let route = match flags.get("route") {
                        None => None,
                        Some(r) => {
                            let Some((l, rt)) = r.split_once('=') else {
                                return err("--route wants LEFT=RIGHT addresses");
                            };
                            Some((l.to_string(), rt.to_string()))
                        }
                    };
                    Ok(Command::EngineServe {
                        bind: bind.clone(),
                        opts: proto_opts(&flags)?,
                        workers: get_num(&flags, "workers", 4)?,
                        shards: get_num(&flags, "shards", 8)?,
                        seconds: get_num(&flags, "seconds", 0)?,
                        s1_budget: get_num(&flags, "s1-budget", 1 << 20)?,
                        max_buffered: get_num(&flags, "max-buffered", 64 << 20)?,
                        route,
                        adapt: flags.contains_key("adapt"),
                        hibernate_after_ms: get_num(&flags, "hibernate-after", 0)?,
                        frozen_budget: get_num(&flags, "frozen-budget", 256 << 20)?,
                    })
                }
                "stats" => {
                    let (pos, flags) = split(rest, &["json"])?;
                    let [addr] = pos.as_slice() else {
                        return err("engine stats needs exactly one engine address");
                    };
                    Ok(Command::EngineStats {
                        addr: addr.clone(),
                        timeout_ms: get_num(&flags, "timeout-ms", 2000)?,
                        json: flags.contains_key("json"),
                    })
                }
                other => err(format!("unknown engine verb '{other}' (serve|stats)")),
            }
        }
        "mesh" => {
            let Some((verb, rest)) = rest.split_first() else {
                return err("mesh needs a verb: serve|peers");
            };
            match verb.as_str() {
                "serve" => {
                    let (pos, flags) = split(rest, &["reliable", "require-peer-auth", "open"])?;
                    let [bind] = pos.as_slice() else {
                        return err("mesh serve needs exactly one bind address");
                    };
                    let next_hops = addr_list(&flags, "next-hop");
                    let upstreams = addr_list(&flags, "upstream");
                    if next_hops.is_empty() && upstreams.is_empty() {
                        return err("mesh serve needs at least one --upstream or --next-hop peer");
                    }
                    Ok(Command::MeshServe {
                        bind: bind.clone(),
                        opts: proto_opts(&flags)?,
                        workers: get_num(&flags, "workers", 2)?,
                        seconds: get_num(&flags, "seconds", 0)?,
                        upstreams,
                        next_hops,
                        sources: addr_list(&flags, "source"),
                        probe_ms: get_num(&flags, "probe-ms", 200)?,
                        open: flags.contains_key("open"),
                    })
                }
                "peers" => {
                    let (pos, flags) = split(rest, &["json"])?;
                    let [addr] = pos.as_slice() else {
                        return err("mesh peers needs exactly one relay address");
                    };
                    Ok(Command::MeshPeers {
                        addr: addr.clone(),
                        timeout_ms: get_num(&flags, "timeout-ms", 2000)?,
                        json: flags.contains_key("json"),
                    })
                }
                other => err(format!("unknown mesh verb '{other}' (serve|peers)")),
            }
        }
        "loadgen" => {
            let (pos, flags) = split(rest, &["quick", "json"])?;
            if !pos.is_empty() {
                return err(format!(
                    "loadgen takes no positional arguments, got '{}'",
                    pos[0]
                ));
            }
            let quick = flags.contains_key("quick");
            let (d_workers, d_senders, d_flows, d_seconds) = if quick {
                (2, 2, 8, 0.5)
            } else {
                (4, 4, 16, 2.0)
            };
            Ok(Command::Loadgen {
                workers: get_num(&flags, "workers", d_workers)?,
                senders: get_num(&flags, "senders", d_senders)?,
                flows: get_num(&flags, "flows", d_flows)?,
                payload: get_num(&flags, "payload", 256)?,
                seconds: get_num(&flags, "seconds", d_seconds)?,
                shards: get_num(&flags, "shards", 64)?,
                quick,
                json: flags.contains_key("json"),
            })
        }
        "trace" => {
            let (pos, _flags) = split(rest, &[])?;
            let [file] = pos.as_slice() else {
                return err("trace needs exactly one FILE ('-' for stdin)");
            };
            Ok(Command::Trace { file: file.clone() })
        }
        "sim" => {
            let (pos, flags) = split(rest, &["reliable", "trace", "require-peer-auth"])?;
            if !pos.is_empty() {
                return err(format!(
                    "sim takes no positional arguments, got '{}'",
                    pos[0]
                ));
            }
            let mut o = SimOpts {
                proto: proto_opts(&flags)?,
                ..SimOpts::default()
            };
            o.relays = get_num(&flags, "relays", o.relays)?;
            o.messages = get_num(&flags, "messages", o.messages)?;
            o.batch = get_num(&flags, "batch", o.batch)?;
            o.loss = get_num(&flags, "loss", o.loss)?;
            o.seconds = get_num(&flags, "seconds", o.seconds)?;
            o.payload = get_num(&flags, "payload", o.payload)?;
            o.seed = get_num(&flags, "seed", o.seed)?;
            o.trace = flags.contains_key("trace");
            if let Some(d) = flags.get("device") {
                o.device = d.clone();
            }
            if let Some(m) = flags.get("mode") {
                o.mode = parse_mode(m, o.batch)?;
            }
            Ok(Command::Sim(o))
        }
        other => err(format!("unknown subcommand '{other}'; try 'alpha help'")),
    }
}

/// The help text.
#[must_use]
pub fn usage() -> &'static str {
    "alpha — ALPHA hop-by-hop authentication (CoNEXT 2008) tooling

USAGE:
  alpha keygen --out FILE [--scheme rsa|ecdsa] [--bits N]
  alpha listen BIND [--seconds N] [--alg sha1|sha256|mmo] [--reliable]
               [--mac hmac|prefix] [--identity FILE] [--require-peer-auth]
  alpha send PEER MSG... [--mode base|c|m|cm] [--bind ADDR] [--alg A]
               [--reliable] [--mac hmac|prefix] [--identity FILE]
  alpha relay BIND LEFT RIGHT [--seconds N] [--strict]
  alpha engine serve BIND [--workers N] [--shards N] [--seconds N] [--alg A]
               [--mac hmac|prefix] [--reliable] [--s1-budget BYTES]
               [--max-buffered BYTES] [--route LEFT=RIGHT] [--adapt]
               [--hibernate-after MS] [--frozen-budget BYTES]
  alpha engine stats ADDR [--timeout-ms N] [--json]
  alpha mesh serve BIND --next-hop A[,B...] [--upstream A[,B...]]
               [--source A[,B...]] [--workers N] [--probe-ms N]
               [--seconds N] [--alg A] [--mac hmac|prefix] [--reliable]
               [--open]
  alpha mesh peers ADDR [--timeout-ms N] [--json]
  alpha loadgen [--workers N] [--senders N] [--flows N] [--payload BYTES]
               [--seconds N] [--shards N] [--quick] [--json]
  alpha trace FILE|-   (summarize a JSON-lines trace from 'alpha sim --trace')
  alpha sim [--relays N] [--messages N] [--batch N] [--mode base|c|m|cm]
            [--loss P] [--alg A] [--reliable] [--mac hmac|prefix]
            [--device xeon|n770|ar2315|bcm5365|geode|cc2430]
            [--payload BYTES] [--seconds N] [--seed N] [--trace]

EXAMPLES:
  alpha listen 0.0.0.0:7001 --seconds 30
  alpha send 192.0.2.7:7001 'hello' 'world' --mode c
  alpha relay 0.0.0.0:7000 192.0.2.1:6000 192.0.2.7:7001
  alpha sim --relays 3 --device cc2430 --alg mmo --mac prefix --loss 0.02
  alpha engine serve 0.0.0.0:7000 --workers 8 --shards 16
  alpha engine stats 192.0.2.9:7000
  alpha mesh serve 0.0.0.0:7100 --upstream 192.0.2.1:7000 \\
        --next-hop 192.0.2.9:7200,192.0.2.10:7200 --source 192.0.2.1:7000
  alpha mesh peers 192.0.2.9:7100
  alpha loadgen --workers 4 --senders 4 --seconds 5 --json

'alpha loadgen' saturates a live multi-worker engine over loopback:
N sender threads each drive concurrent flows through full S1/A1/S2
exchanges, and the verified-S2 rate is measured only after every flow
has finished its handshake.

'engine serve --s1-budget' caps the S1 and HS1 bytes per second of each
host flow (host flows; relay flows use the relay's authenticated-S1
bucket).

A mesh relay verifies every hop: it only accepts S2 traffic from its
registered --upstream peers (the paper's static-relay-set defense),
probes its peers for liveness, and fails live flows over from the
primary --next-hop to a standby when the primary stops answering.
"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn help_variants() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&v(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse_args(&v(&["send", "--help"])).unwrap(), Command::Help);
    }

    #[test]
    fn keygen_parses() {
        let cmd = parse_args(&v(&[
            "keygen", "--out", "id.key", "--scheme", "rsa", "--bits", "512",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Keygen {
                scheme: "rsa".into(),
                out: "id.key".into(),
                bits: 512
            }
        );
        assert!(parse_args(&v(&["keygen"])).is_err());
        assert!(parse_args(&v(&["keygen", "--out", "x", "--scheme", "dsa"])).is_err());
    }

    #[test]
    fn send_defaults_mode_by_count() {
        let one = parse_args(&v(&["send", "1.2.3.4:7001", "hi"])).unwrap();
        match one {
            Command::Send { mode, .. } => assert_eq!(mode, Mode::Base),
            _ => panic!(),
        }
        let many = parse_args(&v(&["send", "1.2.3.4:7001", "a", "b", "c"])).unwrap();
        match many {
            Command::Send { mode, messages, .. } => {
                assert_eq!(mode, Mode::Cumulative);
                assert_eq!(messages.len(), 3);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn send_explicit_modes() {
        for (name, want) in [
            ("base", Mode::Base),
            ("c", Mode::Cumulative),
            ("m", Mode::Merkle),
        ] {
            let cmd = parse_args(&v(&["send", "h:1", "a", "--mode", name])).unwrap();
            match cmd {
                Command::Send { mode, .. } => assert_eq!(mode, want),
                _ => panic!(),
            }
        }
    }

    #[test]
    fn listen_flags() {
        let cmd = parse_args(&v(&[
            "listen",
            "0.0.0.0:7001",
            "--reliable",
            "--alg",
            "mmo",
            "--mac",
            "prefix",
            "--seconds",
            "5",
        ]))
        .unwrap();
        match cmd {
            Command::Listen { opts, seconds, .. } => {
                assert_eq!(opts.alg, Algorithm::MmoAes);
                assert_eq!(opts.reliability, Reliability::Reliable);
                assert_eq!(opts.mac, MacScheme::Prefix);
                assert_eq!(seconds, 5);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn relay_positionals() {
        let cmd = parse_args(&v(&["relay", "b:1", "l:2", "r:3", "--strict"])).unwrap();
        match cmd {
            Command::Relay { strict: true, .. } => {}
            _ => panic!(),
        }
        assert!(parse_args(&v(&["relay", "b:1", "l:2"])).is_err());
    }

    #[test]
    fn sim_options() {
        let cmd = parse_args(&v(&[
            "sim",
            "--relays",
            "4",
            "--messages",
            "50",
            "--loss",
            "0.1",
            "--device",
            "cc2430",
            "--trace",
        ]))
        .unwrap();
        match cmd {
            Command::Sim(o) => {
                assert_eq!(o.relays, 4);
                assert_eq!(o.messages, 50);
                assert!((o.loss - 0.1).abs() < 1e-9);
                assert_eq!(o.device, "cc2430");
                assert!(o.trace);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn engine_subcommands_parse() {
        let cmd = parse_args(&v(&[
            "engine",
            "serve",
            "0.0.0.0:7000",
            "--workers",
            "8",
            "--shards",
            "16",
            "--route",
            "10.0.0.1:5000=10.0.0.2:6000",
            "--hibernate-after",
            "30000",
            "--frozen-budget",
            "1048576",
        ]))
        .unwrap();
        match cmd {
            Command::EngineServe {
                workers,
                shards,
                route,
                seconds,
                hibernate_after_ms,
                frozen_budget,
                ..
            } => {
                assert_eq!(workers, 8);
                assert_eq!(shards, 16);
                assert_eq!(seconds, 0);
                assert_eq!(
                    route,
                    Some(("10.0.0.1:5000".into(), "10.0.0.2:6000".into()))
                );
                assert_eq!(hibernate_after_ms, 30_000);
                assert_eq!(frozen_budget, 1 << 20);
            }
            _ => panic!(),
        }
        // Hibernation defaults: off, with a 256 MiB budget once enabled.
        let cmd = parse_args(&v(&["engine", "serve", "0.0.0.0:7000"])).unwrap();
        match cmd {
            Command::EngineServe {
                hibernate_after_ms,
                frozen_budget,
                ..
            } => {
                assert_eq!(hibernate_after_ms, 0);
                assert_eq!(frozen_budget, 256 << 20);
            }
            _ => panic!(),
        }
        let cmd = parse_args(&v(&["engine", "stats", "127.0.0.1:7000"])).unwrap();
        assert_eq!(
            cmd,
            Command::EngineStats {
                addr: "127.0.0.1:7000".into(),
                timeout_ms: 2000,
                json: false
            }
        );
        let cmd = parse_args(&v(&[
            "engine",
            "stats",
            "127.0.0.1:7000",
            "--json",
            "--timeout-ms",
            "50",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::EngineStats {
                addr: "127.0.0.1:7000".into(),
                timeout_ms: 50,
                json: true
            }
        );
        assert!(parse_args(&v(&["engine"])).is_err());
        assert!(parse_args(&v(&["engine", "restart"])).is_err());
        assert!(parse_args(&v(&["engine", "serve", "a:1", "--route", "nope"])).is_err());
    }

    #[test]
    fn mesh_subcommands_parse() {
        let cmd = parse_args(&v(&[
            "mesh",
            "serve",
            "0.0.0.0:7100",
            "--upstream",
            "10.0.0.1:7000",
            "--next-hop",
            "10.0.0.9:7200, 10.0.0.10:7200",
            "--source",
            "10.0.0.1:7000",
            "--probe-ms",
            "50",
            "--open",
        ]))
        .unwrap();
        match cmd {
            Command::MeshServe {
                bind,
                upstreams,
                next_hops,
                sources,
                probe_ms,
                open,
                workers,
                ..
            } => {
                assert_eq!(bind, "0.0.0.0:7100");
                assert_eq!(upstreams, vec!["10.0.0.1:7000".to_string()]);
                assert_eq!(
                    next_hops,
                    vec!["10.0.0.9:7200".to_string(), "10.0.0.10:7200".to_string()]
                );
                assert_eq!(sources, vec!["10.0.0.1:7000".to_string()]);
                assert_eq!(probe_ms, 50);
                assert_eq!(workers, 2);
                assert!(open);
            }
            _ => panic!(),
        }
        let cmd = parse_args(&v(&["mesh", "peers", "127.0.0.1:7100", "--json"])).unwrap();
        assert_eq!(
            cmd,
            Command::MeshPeers {
                addr: "127.0.0.1:7100".into(),
                timeout_ms: 2000,
                json: true
            }
        );
        assert!(parse_args(&v(&["mesh"])).is_err());
        assert!(parse_args(&v(&["mesh", "probe"])).is_err());
        // A relay with no peers at all is a configuration error.
        assert!(parse_args(&v(&["mesh", "serve", "0.0.0.0:7100"])).is_err());
    }

    #[test]
    fn loadgen_parses_with_quick_defaults() {
        let cmd = parse_args(&v(&["loadgen", "--quick"])).unwrap();
        assert_eq!(
            cmd,
            Command::Loadgen {
                workers: 2,
                senders: 2,
                flows: 8,
                payload: 256,
                seconds: 0.5,
                shards: 64,
                quick: true,
                json: false,
            }
        );
        let cmd = parse_args(&v(&[
            "loadgen",
            "--workers",
            "8",
            "--senders",
            "3",
            "--seconds",
            "1.5",
            "--json",
        ]))
        .unwrap();
        match cmd {
            Command::Loadgen {
                workers,
                senders,
                seconds,
                json,
                quick,
                ..
            } => {
                assert_eq!(workers, 8);
                assert_eq!(senders, 3);
                assert!((seconds - 1.5).abs() < 1e-9);
                assert!(json);
                assert!(!quick);
            }
            _ => panic!(),
        }
        assert!(parse_args(&v(&["loadgen", "extra"])).is_err());
        assert!(parse_args(&v(&["loadgen", "--workers", "many"])).is_err());
    }

    #[test]
    fn errors_are_messages_not_panics() {
        assert!(parse_args(&v(&["frobnicate"])).is_err());
        assert!(parse_args(&v(&["sim", "--loss"])).is_err());
        assert!(parse_args(&v(&["sim", "--loss", "lots"])).is_err());
        assert!(parse_args(&v(&["send", "host:1", "m", "--mode", "q"])).is_err());
    }
}

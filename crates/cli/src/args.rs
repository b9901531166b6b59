//! Hand-rolled argument parsing (no CLI crates on the approved list).
//!
//! Grammar: `alpha <verb> [positional…] [--flag [value]…]`. Each verb's
//! usage line in [`VERBS`] is also its flag table: what it does not list
//! is refused, as is a flag given twice or a value out of range.

use std::{fmt::Debug, ops::RangeBounds, str::FromStr};

use alpha_core::{MacScheme, Mode, Reliability};
use alpha_crypto::Algorithm;
use alpha_transport::loadgen::LoadgenConfig;

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `alpha keygen`: write an RSA or ECDSA identity file.
    Keygen {
        /// "rsa" or "ecdsa".
        scheme: String,
        /// Output file for the identity.
        out: String,
        /// RSA modulus bits (0 for ecdsa).
        bits: usize,
    },
    /// `alpha listen`: accept one association and print what it delivers.
    Listen {
        /// Bind address, e.g. `0.0.0.0:7001`.
        bind: String,
        /// Protocol options.
        opts: ProtoOpts,
        /// Serve duration in seconds.
        seconds: u64,
    },
    /// `alpha send`: send messages to a peer in one exchange.
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
    /// `alpha relay`: a verifying middlebox between two hosts.
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
    /// `alpha sim`: a simulated multi-hop scenario.
    Sim(SimOpts),
    /// `alpha trace`: summarize a packet trace from `alpha sim --trace`.
    Trace {
        /// Trace file path ("-" for stdin).
        file: String,
    },
    /// `alpha engine serve`: the sharded multi-flow engine on one socket.
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
    /// `alpha engine stats`: query a running engine's metrics.
    EngineStats {
        /// Address of the engine's shared socket.
        addr: String,
        /// Reply timeout in milliseconds.
        timeout_ms: u64,
        /// Print the raw JSON snapshot instead of the summary.
        json: bool,
    },
    /// `alpha mesh serve`: a relay-mesh node.
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
    /// `alpha mesh peers`: query a mesh relay's peer table and hop counters.
    MeshPeers {
        /// Address of the relay's shared socket.
        addr: String,
        /// Reply timeout in milliseconds.
        timeout_ms: u64,
        /// Print the raw JSON snapshot instead of the table.
        json: bool,
    },
    /// `alpha loadgen`: saturate a live loopback engine, print its rate.
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
        /// Print the report as one JSON object instead of a summary.
        json: bool,
    },
    /// `alpha help` as the first argument, or `-h` / `--help` anywhere.
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

/// Upper bound of `--workers`, `--shards` and `--senders`: each worker is a
/// thread holding an eventfd per worker, each sender a thread and a socket.
const MAX_PARALLEL: usize = 256;

/// Upper bound of every `--seconds`: `sim` counts it in microseconds and
/// the live verbs add it to an `Instant`; both overflow past it.
const MAX_SECONDS: u64 = u64::MAX / 1_000_000;

/// Upper bound of `--hibernate-after` and `--probe-ms`, which the engine
/// and the mesh count in microseconds.
const MAX_MILLIS: u64 = u64::MAX / 1_000;

type Parser = fn(&[&str], &mut Flags) -> Result<Command, ParseError>;

/// One row per verb: its name, its usage line and its parser. The usage
/// line is the verb's flag table: `[--x]` is a switch, `--x M` and
/// `[--x M]` take one value, and the words before the first flag are
/// the positionals, a last `MSG...` standing for one or more. A parser
/// gets the positionals, already counted, and takes each flag it reads.
#[rustfmt::skip]
const VERBS: &[(&str, &str, Parser)] = &[
    ("keygen", "--out FILE [--scheme rsa|ecdsa] [--bits N]", keygen),
    ("listen", "BIND [--seconds N] [--alg sha1|sha256|mmo] [--reliable] [--mac hmac|prefix] \
        [--identity FILE] [--require-peer-auth]", listen),
    ("send", "PEER MSG... [--mode base|c|m|cm] [--bind ADDR] [--alg sha1|sha256|mmo] [--reliable] \
        [--mac hmac|prefix] [--identity FILE] [--require-peer-auth]", send),
    ("relay", "BIND LEFT RIGHT [--seconds N] [--strict]", relay),
    ("engine serve", "BIND [--workers N] [--shards N] [--seconds N] [--alg sha1|sha256|mmo] \
        [--mac hmac|prefix] [--reliable] [--s1-budget BYTES] [--max-buffered BYTES] \
        [--route LEFT=RIGHT] [--adapt] [--hibernate-after MS] [--frozen-budget BYTES]",
        engine_serve),
    ("engine stats", "ADDR [--timeout-ms N] [--json]", stats),
    ("mesh serve", "BIND [--upstream A[,B...]] [--next-hop A[,B...]] [--source A[,B...]] \
        [--workers N] [--probe-ms N] [--seconds N] [--alg sha1|sha256|mmo] [--mac hmac|prefix] \
        [--reliable] [--open]", mesh_serve),
    ("mesh peers", "ADDR [--timeout-ms N] [--json]", mesh_peers),
    ("loadgen", "[--workers N] [--senders N] [--flows N] [--payload BYTES] [--seconds N] \
        [--shards N] [--quick] [--json]", loadgen),
    ("trace", "FILE|-", trace),
    ("sim", "[--relays N] [--messages N] [--batch N] [--mode base|c|m|cm] [--loss P] \
        [--alg sha1|sha256|mmo] [--reliable] [--mac hmac|prefix] [--payload BYTES] \
        [--device xeon|n770|ar2315|bcm5365|geode|cc2430] [--seconds N] [--seed N] [--trace]", sim),
];

/// Whether `line` lists `flag` as taking a value (`Some(true)`), as a
/// switch (`Some(false)`), or not at all.
fn takes_value(line: &str, flag: &str) -> Option<bool> {
    let mut words = line.split_whitespace().map(|w| w.trim_start_matches('['));
    let word = words.find(|w| w.trim_end_matches(']') == flag)?;
    Some(!word.ends_with(']'))
}

/// The flags of one invocation, each taken out as its verb's parser
/// reads it: what is left afterwards applied to nothing.
struct Flags<'a> {
    line: &'static str,
    given: Vec<(&'a str, &'a str)>,
}

impl<'a> Flags<'a> {
    fn value(&mut self, flag: &str) -> Option<&'a str> {
        debug_assert!(
            takes_value(self.line, flag).is_some(),
            "{flag} is not in its table"
        );
        let i = self.given.iter().position(|&(f, _)| f == flag)?;
        Some(self.given.remove(i).1)
    }

    fn switch(&mut self, flag: &str) -> bool {
        self.value(flag).is_some()
    }

    fn num<T: FromStr + PartialOrd>(
        &mut self,
        flag: &str,
        default: T,
        range: impl RangeBounds<T> + Debug,
    ) -> Result<T, ParseError> {
        let Some(v) = self.value(flag) else {
            return Ok(default);
        };
        match v.parse() {
            Ok(n) if range.contains(&n) => Ok(n),
            Ok(_) => err(format!("{flag}: '{v}' is out of range {range:?}")),
            Err(_) => err(format!("{flag}: bad value '{v}'")),
        }
    }

    fn addrs(&mut self, flag: &str) -> Vec<String> {
        let list = self.value(flag).unwrap_or_default().split(',');
        list.map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect()
    }
}

/// Split `args` against `verb`'s usage `line` into its positionals and
/// its flags, refusing an unknown, repeated or valueless flag and a
/// wrong number of positionals.
fn split<'a>(
    verb: &str,
    line: &'static str,
    args: &'a [String],
) -> Result<(Vec<&'a str>, Flags<'a>), ParseError> {
    let mut pos = Vec::new();
    let mut given: Vec<(&str, &str)> = Vec::new();
    let mut args = args.iter().map(String::as_str);
    while let Some(a) = args.next() {
        if !a.starts_with("--") {
            pos.push(a);
            continue;
        }
        let Some(wants_value) = takes_value(line, a) else {
            return err(format!("'alpha {verb}' has no flag '{a}'"));
        };
        if given.iter().any(|&(f, _)| f == a) {
            return err(format!("'{a}' given twice"));
        }
        let value = match wants_value.then(|| args.next()) {
            None => "",
            Some(Some(v)) if !v.starts_with("--") => v,
            Some(_) => return err(format!("'{a}' needs a value")),
        };
        given.push((a, value));
    }
    let want: Vec<&str> = line
        .split_whitespace()
        .take_while(|w| !w.trim_start_matches('[').starts_with("--"))
        .collect();
    if pos.len() < want.len() {
        return err(format!("'alpha {verb}' needs {}", want.join(" ")));
    }
    if pos.len() > want.len() && !want.last().is_some_and(|w| w.ends_with("...")) {
        return err(format!("unexpected argument '{}'", pos[want.len()]));
    }
    Ok((pos, Flags { line, given }))
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

/// `--alg`, `--reliable` and `--mac`.
fn proto_opts(f: &mut Flags<'_>) -> Result<ProtoOpts, ParseError> {
    let mut o = ProtoOpts::default();
    if let Some(a) = f.value("--alg") {
        o.alg = match a {
            "sha1" => Algorithm::Sha1,
            "sha256" => Algorithm::Sha256,
            "mmo" => Algorithm::MmoAes,
            other => return err(format!("unknown algorithm '{other}' (sha1|sha256|mmo)")),
        };
    }
    if f.switch("--reliable") {
        o.reliability = Reliability::Reliable;
    }
    if let Some(m) = f.value("--mac") {
        o.mac = match m {
            "hmac" => MacScheme::Hmac,
            "prefix" => MacScheme::Prefix,
            other => return err(format!("unknown mac scheme '{other}' (hmac|prefix)")),
        };
    }
    Ok(o)
}

/// [`proto_opts`] plus the flags of the signed bootstrap `listen` and `send` run.
fn signed_proto_opts(f: &mut Flags<'_>) -> Result<ProtoOpts, ParseError> {
    Ok(ProtoOpts {
        identity: f.value("--identity").map(str::to_string),
        require_peer_auth: f.switch("--require-peer-auth"),
        ..proto_opts(f)?
    })
}

/// Parse a full argument vector (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, ParseError> {
    if args.is_empty() || args[0] == "help" || args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(Command::Help);
    }
    let group = format!("{} ", args[0]);
    let two_words = VERBS.iter().any(|(v, ..)| v.starts_with(&group));
    let (name, rest) = args.split_at(args.len().min(1 + usize::from(two_words)));
    let name = name.join(" ");
    let Some(&(verb, line, parse)) = VERBS.iter().find(|(v, ..)| *v == name) else {
        return err(format!("unknown subcommand '{name}'; try 'alpha help'"));
    };
    let (pos, mut flags) = split(verb, line, rest)?;
    let cmd = parse(&pos, &mut flags)?;
    match flags.given.first() {
        Some((flag, _)) => err(format!(
            "'{flag}' does not apply to 'alpha {verb}' with these flags"
        )),
        None => Ok(cmd),
    }
}

fn keygen(_: &[&str], f: &mut Flags<'_>) -> Result<Command, ParseError> {
    let scheme = f.value("--scheme").unwrap_or("ecdsa");
    let bits = match scheme {
        "rsa" => f.num("--bits", 1024, 128..=4096)?,
        "ecdsa" => 0,
        other => return err(format!("unknown scheme '{other}' (rsa|ecdsa)")),
    };
    if bits % 2 == 1 {
        return err(format!("--bits: '{bits}' is odd"));
    }
    let out = f
        .value("--out")
        .ok_or(ParseError("'alpha keygen' needs --out FILE".into()))?;
    Ok(Command::Keygen {
        scheme: scheme.into(),
        out: out.into(),
        bits,
    })
}

fn listen(pos: &[&str], f: &mut Flags<'_>) -> Result<Command, ParseError> {
    Ok(Command::Listen {
        bind: pos[0].into(),
        opts: signed_proto_opts(f)?,
        seconds: f.num("--seconds", 60, ..=MAX_SECONDS)?,
    })
}

fn send(pos: &[&str], f: &mut Flags<'_>) -> Result<Command, ParseError> {
    let messages = &pos[1..];
    let mode = match f.value("--mode") {
        Some(m) => parse_mode(m, messages.len())?,
        None if messages.len() == 1 => Mode::Base,
        None => Mode::Cumulative,
    };
    Ok(Command::Send {
        peer: pos[0].into(),
        messages: messages.iter().map(|m| m.to_string()).collect(),
        opts: signed_proto_opts(f)?,
        mode,
        bind: f.value("--bind").unwrap_or("0.0.0.0:0").into(),
    })
}

fn relay(pos: &[&str], f: &mut Flags<'_>) -> Result<Command, ParseError> {
    Ok(Command::Relay {
        bind: pos[0].into(),
        left: pos[1].into(),
        right: pos[2].into(),
        seconds: f.num("--seconds", 60, ..=MAX_SECONDS)?,
        strict: f.switch("--strict"),
    })
}

fn engine_serve(pos: &[&str], f: &mut Flags<'_>) -> Result<Command, ParseError> {
    let route = match f.value("--route").map(|r| r.split_once('=').ok_or(r)) {
        None => None,
        Some(Ok((l, r))) => Some((l.into(), r.into())),
        Some(Err(r)) => return err(format!("--route: bad value '{r}' (want LEFT=RIGHT)")),
    };
    Ok(Command::EngineServe {
        bind: pos[0].into(),
        opts: proto_opts(f)?,
        workers: f.num("--workers", 4, 1..=MAX_PARALLEL)?,
        shards: f.num("--shards", 8, 1..=MAX_PARALLEL)?,
        seconds: f.num("--seconds", 0, ..=MAX_SECONDS)?,
        s1_budget: f.num("--s1-budget", 1 << 20, ..)?,
        max_buffered: f.num("--max-buffered", 64 << 20, ..)?,
        route,
        adapt: f.switch("--adapt"),
        hibernate_after_ms: f.num("--hibernate-after", 0, ..=MAX_MILLIS)?,
        frozen_budget: f.num("--frozen-budget", 256 << 20, ..)?,
    })
}

fn stats(pos: &[&str], f: &mut Flags<'_>) -> Result<Command, ParseError> {
    Ok(Command::EngineStats {
        addr: pos[0].into(),
        timeout_ms: f.num("--timeout-ms", 2000, ..)?,
        json: f.switch("--json"),
    })
}

fn mesh_serve(pos: &[&str], f: &mut Flags<'_>) -> Result<Command, ParseError> {
    let next_hops = f.addrs("--next-hop");
    let upstreams = f.addrs("--upstream");
    if next_hops.is_empty() && upstreams.is_empty() {
        return err("'alpha mesh serve' needs at least one --upstream or --next-hop peer");
    }
    Ok(Command::MeshServe {
        bind: pos[0].into(),
        opts: proto_opts(f)?,
        workers: f.num("--workers", 2, 1..=MAX_PARALLEL)?,
        seconds: f.num("--seconds", 0, ..=MAX_SECONDS)?,
        upstreams,
        next_hops,
        sources: f.addrs("--source"),
        probe_ms: f.num("--probe-ms", 200, ..=MAX_MILLIS)?,
        open: f.switch("--open"),
    })
}

fn mesh_peers(pos: &[&str], f: &mut Flags<'_>) -> Result<Command, ParseError> {
    Ok(Command::MeshPeers {
        addr: pos[0].into(),
        timeout_ms: f.num("--timeout-ms", 2000, ..)?,
        json: f.switch("--json"),
    })
}

fn loadgen(_: &[&str], f: &mut Flags<'_>) -> Result<Command, ParseError> {
    let d = if f.switch("--quick") {
        LoadgenConfig::quick()
    } else {
        LoadgenConfig::default()
    };
    Ok(Command::Loadgen {
        workers: f.num("--workers", d.workers, 1..=MAX_PARALLEL)?,
        senders: f.num("--senders", d.senders, 1..=MAX_PARALLEL)?,
        flows: f.num("--flows", d.flows_per_sender, ..)?,
        payload: f.num("--payload", d.payload, ..)?,
        seconds: f.num(
            "--seconds",
            d.duration.as_secs_f64(),
            0.0..=MAX_SECONDS as f64,
        )?,
        shards: f.num("--shards", d.shards, 1..=MAX_PARALLEL)?,
        json: f.switch("--json"),
    })
}

fn trace(pos: &[&str], _: &mut Flags<'_>) -> Result<Command, ParseError> {
    Ok(Command::Trace {
        file: pos[0].into(),
    })
}

fn sim(_: &[&str], f: &mut Flags<'_>) -> Result<Command, ParseError> {
    let d = SimOpts::default();
    let batch = f.num("--batch", d.batch, ..)?;
    let device = f.value("--device").map_or(d.device, str::to_string);
    if crate::commands::device_by_name(&device).is_none() {
        return err(format!("--device: unknown device '{device}'"));
    }
    Ok(Command::Sim(SimOpts {
        relays: f.num("--relays", d.relays, ..)?,
        messages: f.num("--messages", d.messages, ..)?,
        batch,
        mode: f
            .value("--mode")
            .map_or(Ok(d.mode), |m| parse_mode(m, batch))?,
        loss: f.num("--loss", d.loss, 0.0..=1.0)?,
        proto: proto_opts(f)?,
        device,
        seconds: f.num("--seconds", d.seconds, ..=MAX_SECONDS)?,
        payload: f.num("--payload", d.payload, ..)?,
        trace: f.switch("--trace"),
        seed: f.num("--seed", d.seed, ..)?,
    }))
}

/// The help text: one usage line per row of [`VERBS`], wrapped between
/// flags, then the examples.
#[must_use]
pub fn usage() -> String {
    let mut out =
        String::from("alpha — ALPHA hop-by-hop authentication (CoNEXT 2008) tooling\n\nUSAGE:\n");
    for (verb, line, _) in VERBS {
        let mut row = format!("  alpha {verb}");
        for (i, word) in line.split(" [").enumerate() {
            if row.len() + word.len() > 76 {
                out += &row;
                row = format!("\n{:14}", "");
            }
            row += if i == 0 { " " } else { " [" };
            row += word;
        }
        out += &(row + "\n");
    }
    out + EXAMPLES
}

const EXAMPLES: &str = "
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
host flow (relay flows use the relay's authenticated-S1 bucket).

A mesh relay needs at least one --upstream or --next-hop peer. It
verifies every hop: it only accepts S2 traffic from its registered
--upstream peers (the paper's static-relay-set defense), probes its
peers for liveness, and fails live flows over from the primary
--next-hop to a standby when the primary stops answering.
";
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
        assert_eq!(
            parse_args(&v(&["sim", "--seed", "-h"])).unwrap(),
            Command::Help
        );
        // `help` is a verb only in first place; later it is a message.
        match parse_args(&v(&["send", "h:1", "help"])).unwrap() {
            Command::Send { messages, .. } => assert_eq!(messages, ["help"]),
            other => panic!("{other:?}"),
        }
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
                ..
            } => {
                assert_eq!(workers, 8);
                assert_eq!(senders, 3);
                assert!((seconds - 1.5).abs() < 1e-9);
                assert!(json);
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

    /// The message refusing `argv`, which must contain `token`.
    fn refusal(argv: &[&str], token: &str) -> String {
        let msg = parse_args(&v(argv)).expect_err("refused").0;
        assert!(
            msg.contains(token),
            "{argv:?}: '{msg}' does not name {token}"
        );
        msg
    }

    #[test]
    fn unknown_repeated_and_valueless_flags_are_refused() {
        refusal(
            &[
                "mesh",
                "serve",
                "127.0.0.1:47691",
                "--next-hop",
                "127.0.0.1:47692",
                "--peer-budget",
                "5",
                "--seconds",
                "1",
            ],
            "'alpha mesh serve' has no flag '--peer-budget'",
        );
        refusal(
            &["trace", "/dev/null", "--bogus", "1"],
            "has no flag '--bogus'",
        );
        refusal(
            &["sim", "--seed", "1", "--seed", "2"],
            "'--seed' given twice",
        );
        refusal(
            &["sim", "--reliable", "--reliable"],
            "'--reliable' given twice",
        );
        refusal(
            &["engine", "serve", "a:1", "--workers=8", "2"],
            "has no flag '--workers=8'",
        );
        refusal(&["sim", "--seconds"], "'--seconds' needs a value");
        refusal(
            &["sim", "--seconds", "--trace"],
            "'--seconds' needs a value",
        );
        refusal(&["loadgen", "--"], "has no flag '--'");
        // Flags the parsers used to accept and ignore.
        refusal(&["sim", "--identity", "id.key"], "has no flag '--identity'");
        refusal(
            &["sim", "--require-peer-auth"],
            "has no flag '--require-peer-auth'",
        );
        refusal(
            &["engine", "serve", "a:1", "--require-peer-auth"],
            "has no flag '--require-peer-auth'",
        );
        // `--bits` is listed but applies only to RSA keys.
        refusal(&["keygen", "--out", "x", "--bits", "512"], "--bits");
        refusal(
            &["keygen", "--out", "x", "--scheme", "ecdsa", "--bits", "512"],
            "--bits",
        );
        // `--device` is resolved here: the usage line lists exactly the
        // names the lookup accepts, and no alias.
        let (_, sim_line, _) = VERBS.iter().find(|(v, ..)| *v == "sim").unwrap();
        let mut words = sim_line.split_whitespace();
        words.find(|w| *w == "[--device");
        for name in words.next().unwrap().trim_end_matches(']').split('|') {
            parse_args(&v(&["sim", "--device", name])).expect(name);
        }
        for alias in ["nokia770", "ar", "bcm", "geode_lx", "sensor"] {
            refusal(&["sim", "--device", alias], "--device");
        }
        // Positionals are counted against the usage line.
        refusal(&["listen", "a:1", "b:2"], "'b:2'");
        refusal(&["relay", "b:1", "l:2"], "BIND LEFT RIGHT");
        refusal(&["engine", "restart"], "engine restart");
        refusal(&["engine"], "engine");
        // The comma form arms a standby; a second --next-hop is refused.
        refusal(
            &[
                "mesh",
                "serve",
                "b:1",
                "--next-hop",
                "n:1",
                "--next-hop",
                "n:2",
            ],
            "'--next-hop' given twice",
        );
    }

    #[test]
    fn out_of_range_values_are_refused_at_the_parser() {
        let max = MAX_PARALLEL.to_string();
        let over = (MAX_PARALLEL + 1).to_string();
        let huge = u64::MAX.to_string();
        let ms = MAX_MILLIS.to_string();
        let secs = MAX_SECONDS.to_string();
        for bad in ["7", "129", "126", "4098"] {
            refusal(
                &["keygen", "--out", "x", "--scheme", "rsa", "--bits", bad],
                bad,
            );
        }
        for verb in [
            &["engine", "serve", "a:1"][..],
            &["mesh", "serve", "a:1", "--upstream", "u:1"],
            &["loadgen"],
        ] {
            for bad in ["0", &over, &huge, "-1"] {
                refusal(&[verb, &["--workers", bad]].concat(), "--workers");
            }
            let edge = parse_args(&v(&[verb, &["--workers", &max]].concat()));
            assert!(edge.is_ok(), "{verb:?} --workers {max}: {edge:?}");
        }
        for verb in [&["engine", "serve", "a:1"][..], &["loadgen"]] {
            refusal(&[verb, &["--shards", "0"]].concat(), "--shards");
            refusal(&[verb, &["--shards", &over]].concat(), "--shards");
        }
        refusal(&["loadgen", "--senders", "0"], "--senders");
        refusal(&["loadgen", "--senders", &over], "--senders");
        for bad in ["inf", "NaN", "-1", "1e300"] {
            refusal(&["loadgen", "--seconds", bad], bad);
        }
        let over_ms = (MAX_MILLIS + 1).to_string();
        refusal(
            &["engine", "serve", "a:1", "--hibernate-after", &over_ms],
            "--hibernate-after",
        );
        refusal(
            &[
                "mesh",
                "serve",
                "a:1",
                "--upstream",
                "u:1",
                "--probe-ms",
                &huge,
            ],
            "--probe-ms",
        );
        assert!(parse_args(&v(&["engine", "serve", "a:1", "--hibernate-after", &ms])).is_ok());
        assert!(parse_args(&v(&[
            "mesh",
            "serve",
            "a:1",
            "--upstream",
            "u:1",
            "--probe-ms",
            &ms
        ]))
        .is_ok());
        for verb in [
            &["sim"][..],
            &["listen", "a:1"],
            &["relay", "a:1", "b:2", "c:3"],
            &["engine", "serve", "a:1"],
        ] {
            refusal(&[verb, &["--seconds", &huge]].concat(), "--seconds");
            assert!(parse_args(&v(&[verb, &["--seconds", &secs]].concat())).is_ok());
        }
        for bad in ["5", "NaN", "inf", "-0.1", "1.0000001"] {
            refusal(&["sim", "--loss", bad], bad);
        }
        for good in ["0", "1", "0.5"] {
            assert!(
                parse_args(&v(&["sim", "--loss", good])).is_ok(),
                "--loss {good}"
            );
        }
    }

    /// Each flag of `line` with its metavar, `None` for a switch.
    fn rows(line: &'static str) -> Vec<(&'static str, Option<&'static str>)> {
        let words: Vec<&str> = line.split_whitespace().collect();
        let mut out = Vec::new();
        for (i, w) in words.iter().enumerate() {
            let w = w.trim_start_matches('[');
            if let Some(switch) = w.strip_suffix(']').filter(|s| s.starts_with("--")) {
                out.push((switch, None));
            } else if w.starts_with("--") {
                let meta = words[i + 1];
                out.push((w, Some(meta.strip_suffix(']').unwrap_or(meta))));
            }
        }
        out
    }

    fn positionals(line: &str) -> impl Iterator<Item = &str> {
        line.split_whitespace()
            .take_while(|w| !w.trim_start_matches('[').starts_with("--"))
    }

    /// A valid value for a metavar or positional of the tables.
    fn sample(meta: &str) -> &str {
        match meta {
            "N" | "BYTES" | "MS" => "128",
            "P" => "0.5",
            "LEFT=RIGHT" => "127.0.0.1:1=127.0.0.1:2",
            "FILE" | "FILE|-" => "id.key",
            "MSG..." => "hello",
            m if m.contains('|') => m.split('|').next().unwrap(),
            _ => "127.0.0.1:1",
        }
    }

    /// The shortest argv `verb` accepts, plus what its flags need.
    fn base_argv(verb: &str, line: &'static str) -> Vec<String> {
        let mut argv: Vec<String> = verb.split(' ').map(String::from).collect();
        argv.extend(positionals(line).map(|p| sample(p).to_string()));
        for (flag, meta) in rows(line) {
            if !line.contains(&format!("[{flag}")) {
                argv.extend([flag.to_string(), sample(meta.unwrap()).to_string()]);
            }
        }
        match verb {
            "keygen" => argv.extend(v(&["--scheme", "rsa"])),
            "mesh serve" => argv.extend(v(&["--upstream", "127.0.0.1:2"])),
            _ => {}
        }
        argv
    }

    #[test]
    fn every_table_row_is_read_by_its_verb() {
        let mut walked = 0;
        for &(verb, line, _) in VERBS {
            for (flag, meta) in rows(line) {
                let mut argv = base_argv(verb, line);
                if !argv.iter().any(|a| a == flag) {
                    argv.push(flag.to_string());
                    argv.extend(meta.map(|m| sample(m).to_string()));
                }
                // A row no parser reads is left over and refused; a read
                // outside the table trips the debug assertion.
                let got = parse_args(&argv);
                assert!(got.is_ok(), "{argv:?}: {got:?}");
                walked += 1;
            }
        }
        assert_eq!(walked, 65);
    }

    /// Shell words of one command line: quotes honoured, `# …` dropped.
    fn shell_words(line: &str) -> Vec<String> {
        let (mut words, mut word, mut quote, mut any) = (Vec::new(), String::new(), None, false);
        for c in line.chars() {
            match (quote, c) {
                (Some(q), c) if c == q => quote = None,
                (Some(_), c) => word.push(c),
                (None, '\'' | '"') => (quote, any) = (Some(c), true),
                (None, '#') if !any => break,
                (None, c) if c.is_whitespace() => {
                    if any {
                        words.push(std::mem::take(&mut word));
                    }
                    any = false;
                }
                (None, c) => (any, _) = (true, word.push(c)),
            }
        }
        if any {
            words.push(word);
        }
        words
    }

    #[test]
    fn readme_and_usage_examples_parse() {
        let readme = include_str!("../../../README.md");
        let (mut lines, mut in_text) = (Vec::new(), false);
        for line in readme.lines() {
            if let Some(lang) = line.strip_prefix("```") {
                in_text = !in_text && lang == "text";
            } else if in_text {
                lines.push(
                    line.split_once("--bin alpha -- ")
                        .map_or(line.to_string(), |(_, rest)| format!("alpha {rest}")),
                );
            }
        }
        let usage = usage();
        let examples = usage
            .split("EXAMPLES:\n")
            .nth(1)
            .unwrap()
            .split("\n\n")
            .next()
            .unwrap();
        lines.extend(examples.replace("\\\n", " ").lines().map(String::from));
        let mut parsed = 0;
        for line in &lines {
            let argv = shell_words(line);
            if argv.first().map(String::as_str) != Some("alpha") {
                continue;
            }
            let got = parse_args(&argv[1..]);
            assert!(got.is_ok(), "{line}: {got:?}");
            parsed += 1;
        }
        assert!(parsed >= 25, "only {parsed} example lines found");
    }

    #[test]
    fn argv_fuzz_never_panics_and_refuses_unknown_flags() {
        use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};
        let flags: Vec<&str> = VERBS
            .iter()
            .flat_map(|r| rows(r.1))
            .map(|(f, _)| f)
            .collect();
        let values = [
            "0",
            "1",
            "-1",
            "2",
            "256",
            "257",
            "4096",
            "18446744073709551615",
            "18446744073709551616",
            "NaN",
            "inf",
            "0.5",
            "1e300",
            "",
            "=",
            "a=b",
            "x,y",
            "127.0.0.1:1",
            "sha1",
            "prefix",
            "rsa",
            "cm",
            "geode",
        ];
        let junk = [
            "--",
            "-",
            "",
            "--bogus",
            "--workers=8",
            "--peer-budget",
            "-x",
            "help",
            "engine",
            "serve",
            "--SEED",
            "--reliable]",
            "[--seed",
            "é",
            "\0",
            "--seed ",
            " --seed",
        ];
        let mut rng = StdRng::seed_from_u64(0xa1fa);
        for case in 0..20_000 {
            let &(verb, line, _) = VERBS.choose(&mut rng).unwrap();
            let mut argv = base_argv(verb, line);
            for (flag, meta) in rows(line) {
                if rng.gen_bool(0.3) {
                    argv.push(flag.to_string());
                    if let Some(meta) = meta {
                        let value = if rng.gen_bool(0.7) {
                            sample(meta)
                        } else {
                            values.choose(&mut rng).unwrap()
                        };
                        argv.push(value.to_string());
                    }
                }
            }
            for _ in 0..rng.gen_range(0..4usize) {
                let token = match rng.gen_range(0..3) {
                    0 => junk.choose(&mut rng).unwrap(),
                    1 => flags.choose(&mut rng).unwrap(),
                    _ => values.choose(&mut rng).unwrap(),
                };
                argv.insert(rng.gen_range(0..=argv.len()), token.to_string());
            }
            let got = std::panic::catch_unwind(|| parse_args(&argv))
                .unwrap_or_else(|_| panic!("case {case}: {argv:?} panicked"));
            let help = argv.first().is_some_and(|a| a == "help")
                || argv.iter().any(|a| a == "--help" || a == "-h");
            let listed = rows(line);
            match got {
                _ if help => assert_eq!(got, Ok(Command::Help), "case {case}: {argv:?}"),
                Ok(_) => {
                    let stray = argv
                        .iter()
                        .find(|a| a.starts_with("--") && !listed.iter().any(|(f, _)| f == a));
                    assert!(stray.is_none(), "case {case}: {argv:?} accepted {stray:?}");
                }
                Err(e) => {
                    // The verb's own words count only where the message
                    // echoes the unknown subcommand they start.
                    let skip = verb
                        .split(' ')
                        .zip(&argv)
                        .take_while(|(w, a)| w == a)
                        .count();
                    let lead = argv[..argv.len().min(2)].join(" ");
                    let named = argv[skip..].iter().any(|t| {
                        e.0.contains(&format!("'{t}'")) || !t.is_empty() && e.0.contains(t.as_str())
                    }) || e.0.contains(&format!("'{}'", argv[0]))
                        || e.0.contains(&format!("'{lead}'"));
                    assert!(
                        named || e.0.contains(" needs "),
                        "case {case}: {argv:?}: '{e}' names no token"
                    );
                }
            }
        }
    }
}

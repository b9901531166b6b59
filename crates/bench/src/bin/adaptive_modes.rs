//! Static modes vs the `alpha-adapt` controller across loss regimes.
//!
//! A deterministic two-host harness (virtual 5 ms ticks, 2 ms one-way
//! delay, 50 ms base RTO) pushes an unbounded 256-byte-message backlog
//! through one reliable association while the channel follows a scripted
//! loss regime:
//!
//! - `clean`   — 0.1% i.i.d. loss
//! - `loss`    — 5% i.i.d. loss
//! - `bursty`  — Gilbert–Elliott (1% good / 50% bad, ~7% bad occupancy)
//! - `mixed`   — clean → 5% → clean in equal thirds
//!
//! Strategies: every static mode the paper names (Base, ALPHA-C n=16,
//! ALPHA-M n=16, C+M n=16/lpt=4) plus the [`FlowAdapt`] controller.
//! The figure of merit is **goodput per authentication byte**: verified
//! payload bytes delivered, divided by signer-direction overhead bytes
//! (full S1 wire size + per-S2 `wire_len − payload`, retransmissions
//! included) — the byte-cost lens of the paper's Fig. 5/6 applied to
//! lossy channels.
//!
//! Output: a table on stdout and `BENCH_adaptive_modes.json`. Hard
//! asserts: the controller lands within 10% of the best static mode in
//! every regime and strictly beats every static mode on the mixed trace
//! (no single static mode is right for a changing channel — the "A" in
//! ALPHA).

use alpha_adapt::{AdaptConfig, FlowAdapt};
use alpha_bench::table;
use alpha_core::{Association, Config, Mode, Reliability, Timestamp};
use alpha_crypto::Algorithm;
use alpha_sim::{GeChannel, GilbertElliott};
use alpha_wire::{Body, Packet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;

const TICK_US: u64 = 5_000;
const OWD_US: u64 = 2_000;
const DURATION_US: u64 = 30_000_000;
const PAYLOAD: usize = 256;
const BACKLOG: usize = 64;

#[derive(Clone, Copy, PartialEq)]
enum Regime {
    Clean,
    Loss,
    Bursty,
    Mixed,
}

impl Regime {
    fn label(self) -> &'static str {
        match self {
            Regime::Clean => "clean",
            Regime::Loss => "loss",
            Regime::Bursty => "bursty",
            Regime::Mixed => "mixed",
        }
    }
}

/// One direction of the channel: its own loss process and RNG, so the
/// two directions decorrelate but each run is fully deterministic.
struct Channel {
    rng: StdRng,
    regime: Regime,
    ge: GeChannel,
}

impl Channel {
    fn new(regime: Regime, seed: u64) -> Channel {
        Channel {
            rng: StdRng::seed_from_u64(seed),
            regime,
            ge: GeChannel::new(GilbertElliott {
                p_enter_bad: 0.02,
                p_exit_bad: 0.25,
                loss_good: 0.01,
                loss_bad: 0.50,
            }),
        }
    }

    fn lose(&mut self, now_us: u64) -> bool {
        match self.regime {
            Regime::Clean => self.rng.gen_bool(0.001),
            Regime::Loss => self.rng.gen_bool(0.10),
            Regime::Bursty => self.ge.lose(&mut self.rng),
            Regime::Mixed => {
                let third = DURATION_US / 3;
                let p = if now_us < third || now_us >= 2 * third {
                    0.001
                } else {
                    0.10
                };
                self.rng.gen_bool(p)
            }
        }
    }
}

enum Strategy {
    Static(&'static str, Mode, usize),
    Adaptive(AdaptConfig),
}

impl Strategy {
    fn label(&self) -> String {
        match self {
            Strategy::Static(name, _, _) => (*name).to_owned(),
            Strategy::Adaptive(_) => "adaptive".to_owned(),
        }
    }
}

struct RunStats {
    label: String,
    delivered_bytes: u64,
    auth_bytes: u64,
    exchanges: u64,
    switches: u64,
    final_mode: Option<String>,
}

impl RunStats {
    fn goodput_per_auth_byte(&self) -> f64 {
        if self.auth_bytes == 0 {
            0.0
        } else {
            self.delivered_bytes as f64 / self.auth_bytes as f64
        }
    }
}

/// Signer-direction authentication bytes of one outgoing packet.
fn auth_bytes_of(pkt: &Packet) -> u64 {
    match &pkt.body {
        Body::S1 { .. } => pkt.wire_len() as u64,
        Body::S2 { payload, .. } => (pkt.wire_len() - payload.len()) as u64,
        _ => 0,
    }
}

/// The association every run bootstraps: long chains, every element
/// kept, reliable delivery.
fn config() -> Config {
    Config::new(Algorithm::Sha1)
        .with_chain_len(1 << 15)
        .with_reliability(Reliability::Reliable)
        .with_rto_micros(50_000)
}

fn run(strategy: &Strategy, regime: Regime, seed: u64) -> RunStats {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut alice, mut bob) = Association::pair(config(), 1, &mut rng);
    let mut adapt = match strategy {
        Strategy::Adaptive(acfg) => Some(FlowAdapt::new(*acfg)),
        Strategy::Static(..) => None,
    };
    let mut to_bob = Channel::new(regime, seed ^ 0x5151);
    let mut to_alice = Channel::new(regime, seed ^ 0xACAC);

    // In-flight wire: (arrival µs, toward-bob?, packet).
    let mut wire: Vec<(u64, bool, Packet)> = Vec::new();
    let mut stats = RunStats {
        label: strategy.label(),
        delivered_bytes: 0,
        auth_bytes: 0,
        exchanges: 0,
        switches: 0,
        final_mode: None,
    };
    let mut seq = 0u8;

    let mut t = 0u64;
    while t < DURATION_US {
        t += TICK_US;
        let now = Timestamp::ZERO.plus_micros(t);

        // Deliver everything that has arrived by this tick, in order.
        let mut due: Vec<(u64, bool, Packet)> = Vec::new();
        wire.retain(|item| {
            if item.0 <= t {
                due.push(item.clone());
                false
            } else {
                true
            }
        });
        due.sort_by_key(|(at, _, _)| *at);
        let mut fresh: Vec<(bool, Packet)> = Vec::new();
        for (_, toward_bob, pkt) in due {
            if toward_bob {
                if let Ok(resp) = bob.handle(&pkt, now, &mut rng) {
                    for (_, payload) in &resp.deliveries {
                        stats.delivered_bytes += payload.len() as u64;
                    }
                    fresh.extend(resp.packets.into_iter().map(|p| (false, p)));
                }
            } else {
                if let Some(a) = adapt.as_mut() {
                    if matches!(pkt.body, Body::A1 { .. }) {
                        a.on_a1(now);
                    }
                }
                if let Ok(resp) = alice.handle(&pkt, now, &mut rng) {
                    if let Some(a) = adapt.as_mut() {
                        a.observe(&resp.packets, &resp.signer_events);
                        if let Some(rto) = a.rto_us() {
                            alice.set_rto_micros(rto);
                        }
                    }
                    fresh.extend(resp.packets.into_iter().map(|p| (true, p)));
                }
            }
        }

        // Timers on both sides (retransmissions, verifier nacks).
        let ra = alice.poll(now);
        if let Some(a) = adapt.as_mut() {
            a.observe(&ra.packets, &ra.signer_events);
        }
        fresh.extend(ra.packets.into_iter().map(|p| (true, p)));
        let rb = bob.poll(now);
        fresh.extend(rb.packets.into_iter().map(|p| (false, p)));

        // Unbounded backlog: open the next exchange as soon as the
        // signer frees up.
        if alice.signer().is_idle() {
            let (mode, take) = match (&strategy, adapt.as_ref()) {
                (Strategy::Static(_, mode, n), _) => (*mode, *n),
                (Strategy::Adaptive(_), Some(a)) => a.plan(BACKLOG),
                (Strategy::Adaptive(_), None) => unreachable!(),
            };
            seq = seq.wrapping_add(1);
            let msgs: Vec<Vec<u8>> = (0..take).map(|_| vec![seq; PAYLOAD]).collect();
            let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
            let s1 = alice.sign_batch(&refs, mode, now).expect("chain budget");
            if let Some(a) = adapt.as_mut() {
                a.begin_exchange(mode, take, (take * PAYLOAD) as u64, now);
                a.observe_packets(std::slice::from_ref(&s1));
            }
            stats.exchanges += 1;
            fresh.push((true, s1));
        }

        // Put everything on the wire: count signer-direction auth
        // bytes at transmission (lost bytes still cost), then roll loss.
        for (toward_bob, pkt) in fresh {
            if toward_bob {
                stats.auth_bytes += auth_bytes_of(&pkt);
            }
            let chan = if toward_bob {
                &mut to_bob
            } else {
                &mut to_alice
            };
            if !chan.lose(t) {
                wire.push((t + OWD_US, toward_bob, pkt));
            }
        }
    }

    if let Some(a) = adapt.as_ref() {
        stats.switches = a.switches_total();
        stats.final_mode = Some(a.decision().kind.label().to_owned());
    }
    stats
}

fn main() {
    let strategies = [
        Strategy::Static("base", Mode::Base, 1),
        Strategy::Static("cumulative-16", Mode::Cumulative, 16),
        Strategy::Static("merkle-16", Mode::Merkle, 16),
        Strategy::Static("cm-16/4", Mode::CumulativeMerkle { leaves_per_tree: 4 }, 16),
        Strategy::Adaptive(AdaptConfig::default()),
    ];
    let regimes = [Regime::Clean, Regime::Loss, Regime::Bursty, Regime::Mixed];

    let mut rows = Vec::new();
    let mut regime_objects = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for (ri, &regime) in regimes.iter().enumerate() {
        let runs: Vec<RunStats> = strategies
            .iter()
            .enumerate()
            .map(|(si, s)| run(s, regime, 1000 + (ri * 10 + si) as u64))
            .collect();
        let adaptive = runs.last().expect("adaptive is last");
        let best_static = runs[..runs.len() - 1]
            .iter()
            .max_by(|a, b| {
                a.goodput_per_auth_byte()
                    .total_cmp(&b.goodput_per_auth_byte())
            })
            .expect("non-empty statics");

        for r in &runs {
            rows.push(vec![
                regime.label().to_owned(),
                r.label.clone(),
                format!("{:.3}", r.goodput_per_auth_byte()),
                (r.delivered_bytes / 1024).to_string(),
                (r.auth_bytes / 1024).to_string(),
                r.exchanges.to_string(),
                r.final_mode.clone().unwrap_or_else(|| "-".to_owned()),
                if r.final_mode.is_some() {
                    r.switches.to_string()
                } else {
                    "-".to_owned()
                },
            ]);
        }

        // Hard guarantees the adaptation plane advertises (checked after
        // the table prints, so a failure still shows the full picture).
        let g_adapt = adaptive.goodput_per_auth_byte();
        let g_best = best_static.goodput_per_auth_byte();
        if g_adapt < 0.9 * g_best {
            failures.push(format!(
                "{}: adaptive {:.3} below 90% of best static {} ({:.3})",
                regime.label(),
                g_adapt,
                best_static.label,
                g_best,
            ));
        }
        if regime == Regime::Mixed {
            for r in &runs[..runs.len() - 1] {
                if g_adapt <= r.goodput_per_auth_byte() {
                    failures.push(format!(
                        "mixed: adaptive {:.3} does not beat static {} ({:.3})",
                        g_adapt,
                        r.label,
                        r.goodput_per_auth_byte(),
                    ));
                }
            }
        }

        let strategy_values: Vec<(String, Value)> = runs
            .iter()
            .map(|r| {
                let mut fields = vec![
                    (
                        "goodput_per_auth_byte".to_owned(),
                        Value::F64(r.goodput_per_auth_byte()),
                    ),
                    ("delivered_bytes".to_owned(), Value::U64(r.delivered_bytes)),
                    ("auth_bytes".to_owned(), Value::U64(r.auth_bytes)),
                    ("exchanges".to_owned(), Value::U64(r.exchanges)),
                ];
                if let Some(mode) = &r.final_mode {
                    fields.push(("final_mode".to_owned(), Value::Str(mode.clone())));
                    fields.push(("switches".to_owned(), Value::U64(r.switches)));
                }
                (r.label.clone(), Value::object(fields))
            })
            .collect();
        regime_objects.push((
            regime.label().to_owned(),
            Value::object([
                ("strategies".to_owned(), Value::object(strategy_values)),
                (
                    "best_static".to_owned(),
                    Value::Str(best_static.label.clone()),
                ),
                (
                    "adaptive_vs_best_static".to_owned(),
                    Value::F64(g_adapt / g_best),
                ),
            ]),
        ));
    }

    table::print(
        "Adaptive vs static modes — goodput per authentication byte",
        &[
            "regime",
            "strategy",
            "B/authB",
            "delivered KiB",
            "auth KiB",
            "exchanges",
            "final mode",
            "switches",
        ],
        &rows,
    );

    let doc = Value::object([
        ("bench".to_owned(), Value::Str("adaptive_modes".to_owned())),
        ("runtime_mode".to_owned(), Value::Str("model".to_owned())),
        (
            "host_cores".to_owned(),
            Value::U64(alpha_bench::host_cores() as u64),
        ),
        ("workers".to_owned(), Value::U64(1)),
        (
            "digest_backend".to_owned(),
            Value::Str(alpha_crypto::backend::active().name().to_owned()),
        ),
        (
            "udp_backend".to_owned(),
            Value::Str(alpha_transport::io::active().name().to_owned()),
        ),
        (
            "kernel_release".to_owned(),
            Value::Str(alpha_bench::kernel_release()),
        ),
        (
            "chain_storage".to_owned(),
            Value::Str(alpha_engine::chainstore::name(config().chain_storage).to_owned()),
        ),
        ("payload_bytes".to_owned(), Value::U64(PAYLOAD as u64)),
        ("duration_s".to_owned(), Value::U64(DURATION_US / 1_000_000)),
        ("tick_us".to_owned(), Value::U64(TICK_US)),
        ("one_way_delay_us".to_owned(), Value::U64(OWD_US)),
        ("regimes".to_owned(), Value::object(regime_objects)),
    ]);
    let json = serde_json::to_string(&doc).expect("serialize");
    alpha_bench::write_artefact("BENCH_adaptive_modes.json", &json);
    assert!(
        failures.is_empty(),
        "adaptive guarantees violated:\n{}",
        failures.join("\n")
    );
    println!("All regime guarantees held");
}

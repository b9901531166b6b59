//! The bytes a host puts on the wire, pinned datagram for datagram: a
//! seeded client and server engine pair on the test `Net` runs, for
//! each of Base, ALPHA-C and ALPHA-M, unreliable and reliable:
//!
//! - the handshake and two clean exchanges;
//! - an exchange whose A1 is lost, so the signer's timer resends the S1;
//! - in reliable mode, an exchange with one S2 corrupted in flight, so
//!   the verifier nacks it and the signer retransmits at once, and one
//!   with an S2 datagram lost, so the timers repair it;
//! - exchanges on a short chain until both ends have offered a renewal
//!   S1, and one more on the renewed chains.
//!
//! Every datagram either engine emits is written out in the order it
//! was sent, as `case step source>destination hex`, and the whole
//! transcript must equal `golden/host_wire.txt` byte for byte. A change
//! to how the host encodes, bundles or orders its packets fails here;
//! the first line that differs is named. After a change that moves the
//! wire on purpose, rewrite the file with
//! `cargo test -p alpha-engine --test wire_golden -- --ignored write_golden`
//! and say why in the change's notes.

mod common;

use std::fmt::Write as _;
use std::sync::atomic::Ordering;

use alpha_core::{Config, Mode, Reliability};
use alpha_crypto::Algorithm;
use alpha_engine::{EngineConfig, FlowKey};
use alpha_store::PacerConfig;
use common::net::{client, server, Net};
use rand::rngs::StdRng;
use rand::SeedableRng;

const GOLDEN: &str = include_str!("golden/host_wire.txt");

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/host_wire.txt");

/// A chain short enough that a handful of exchanges reach `renew_below`.
const CHAIN_LEN: u64 = 24;

/// The transcript of one scenario, appended to `log`.
struct Recorder<'a> {
    case: &'a str,
    step: &'a str,
    log: &'a mut String,
}

impl Recorder<'_> {
    fn record(&mut self, net: &Net, i: usize, what: &str) {
        let d = &net.flight[i];
        let hex: String = d.frame.iter().map(|b| format!("{b:02x}")).collect();
        writeln!(
            self.log,
            "{} {} {}{}>{} {hex}",
            self.case,
            self.step,
            what,
            d.src.port(),
            d.dst.port()
        )
        .expect("a String takes writes");
    }

    /// Deliver in order until nothing is in flight, recording each
    /// datagram as it is handed over.
    fn pump(&mut self, net: &mut Net) {
        while !net.flight.is_empty() {
            self.record(net, 0, "");
            net.deliver(0);
        }
    }

    /// Like `pump`, but the first datagram `pick` selects is handed to
    /// `act` (drop or corrupt it) instead; returns whether one was.
    fn pump_acting(
        &mut self,
        net: &mut Net,
        pick: impl Fn(&common::net::Datagram) -> bool,
        act: Act,
    ) -> bool {
        while !net.flight.is_empty() {
            if pick(&net.flight[0]) {
                match act {
                    Act::Lose => {
                        self.record(net, 0, "lost:");
                        net.drop(0);
                    }
                    Act::Corrupt => {
                        self.record(net, 0, "corrupted:");
                        let last = net.flight[0].frame.len() - 1;
                        net.flight[0].frame[last] ^= 0x40;
                        net.deliver(0);
                    }
                }
                self.pump(net);
                return true;
            }
            self.record(net, 0, "");
            net.deliver(0);
        }
        false
    }

    /// Move the clock to the next deadline and carry what the timers
    /// sent, until an exchange completes or nothing is armed.
    fn settle(&mut self, net: &mut Net, key: FlowKey) {
        for _ in 0..64 {
            if net.engine(client()).flow_is_idle(key) {
                return;
            }
            if !net.advance() {
                break;
            }
            self.pump(net);
        }
        assert!(
            net.engine(client()).flow_is_idle(key),
            "{}: the exchange of step {} never completed",
            self.case,
            self.step
        );
    }
}

#[derive(Clone, Copy)]
enum Act {
    Lose,
    Corrupt,
}

fn messages(mode: Mode, exchange: usize) -> Vec<Vec<u8>> {
    let n = match mode {
        Mode::Base => 1,
        Mode::Cumulative => 3,
        _ => 5,
    };
    (0..n)
        .map(|m| format!("exchange {exchange} message {m}").into_bytes())
        .collect()
}

fn sign(net: &mut Net, key: FlowKey, mode: Mode, exchange: usize) {
    let msgs = messages(mode, exchange);
    let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
    net.sign(client(), key, &refs, mode).expect("sign");
}

fn from_server(d: &common::net::Datagram) -> bool {
    d.src == server()
}

fn carries_s2(d: &common::net::Datagram) -> bool {
    d.carries_s2()
}

fn scenario(log: &mut String, mode: Mode, reliability: Reliability, seed: u64) {
    let case = format!(
        "{}-{}",
        match mode {
            Mode::Base => "base",
            Mode::Cumulative => "c",
            _ => "m",
        },
        match reliability {
            Reliability::Reliable => "rel",
            Reliability::Unreliable => "unrel",
        }
    );
    let proto = Config::new(Algorithm::Sha1)
        .with_chain_len(CHAIN_LEN)
        .with_reliability(reliability);
    let pacer = PacerConfig {
        max_jitter_us: 0,
        ..PacerConfig::default()
    };
    let cfg = EngineConfig::new(proto)
        .with_pacer(pacer)
        .with_renew_below(4);
    let (mut net, hop) = Net::path(seed, cfg, cfg, None);
    let mut r = Recorder {
        case: &case,
        step: "handshake",
        log,
    };
    let mut rng = std::mem::replace(&mut net.rng, StdRng::seed_from_u64(0));
    let (key, out) = net.engine(client()).connect(hop, 1, net.now, &mut rng);
    net.rng = rng;
    net.send(client(), out);
    r.pump(&mut net);

    let mut exchange = 0;
    for step in ["clean-0", "clean-1"] {
        r.step = step;
        sign(&mut net, key, mode, exchange);
        r.pump(&mut net);
        exchange += 1;
    }

    r.step = "a1-lost";
    sign(&mut net, key, mode, exchange);
    assert!(r.pump_acting(&mut net, from_server, Act::Lose));
    r.settle(&mut net, key);
    exchange += 1;

    if reliability == Reliability::Reliable {
        r.step = "s2-corrupted";
        sign(&mut net, key, mode, exchange);
        assert!(r.pump_acting(&mut net, carries_s2, Act::Corrupt));
        r.settle(&mut net, key);
        exchange += 1;

        r.step = "s2-lost";
        sign(&mut net, key, mode, exchange);
        assert!(r.pump_acting(&mut net, carries_s2, Act::Lose));
        r.settle(&mut net, key);
        exchange += 1;
    }

    r.step = "to-renewal";
    let renewed = |net: &Net| {
        let started = |at| {
            net.engine(at)
                .metrics()
                .store
                .renewals_started
                .load(Ordering::Relaxed)
        };
        started(client()) > 0 && started(server()) > 0
    };
    while !renewed(&net) {
        assert!(exchange < 2 * CHAIN_LEN as usize, "{case}: no renewal");
        sign(&mut net, key, mode, exchange);
        r.pump(&mut net);
        r.settle(&mut net, key);
        exchange += 1;
    }
    r.step = "renewed";
    sign(&mut net, key, mode, exchange);
    r.pump(&mut net);
    r.settle(&mut net, key);
}

fn transcript() -> String {
    let mut log = String::new();
    let mut seed = 0x601D_0000;
    for mode in [Mode::Base, Mode::Cumulative, Mode::Merkle] {
        for reliability in [Reliability::Unreliable, Reliability::Reliable] {
            scenario(&mut log, mode, reliability, seed);
            seed += 1;
        }
    }
    log
}

#[test]
fn host_datagrams_match_the_golden_transcript() {
    let now = transcript();
    assert_eq!(now, transcript(), "the transcript is not deterministic");
    for (k, (want, got)) in GOLDEN.lines().zip(now.lines()).enumerate() {
        assert_eq!(want, got, "line {} of the golden transcript differs", k + 1);
    }
    assert_eq!(
        GOLDEN.lines().count(),
        now.lines().count(),
        "the transcript's length differs from the golden one"
    );
}

/// Rewrites the golden file from this tree's engines.
#[test]
#[ignore = "writes tests/golden/host_wire.txt"]
fn write_golden() {
    std::fs::write(GOLDEN_PATH, transcript()).expect("write the golden transcript");
}

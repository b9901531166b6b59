//! Table 1's signer column, held by the engine. `results/table1.txt`
//! counts what a bare `Association` hashes; here a signing
//! `EngineCore` runs one exchange against a verifying one on the test
//! `Net`, and the hashes of its `sign_batch` call and of its handling
//! of the A1 and every A2 are counted (`counting::Scope`). Per message
//! they must equal the table's signer rows: Base n=1, ALPHA-C n=20 and
//! ALPHA-M n=16, unreliable and reliable, over 1 KiB payloads. The
//! chains are stored `Full`, so disclosing a chain pair walks no hashes
//! and the count is the protocol's alone.

mod common;

use alpha_core::{ChainStorage, Config, Mode, Reliability};
use alpha_crypto::counting::{self, Counts};
use alpha_crypto::Algorithm;
use alpha_engine::EngineConfig;
use common::net::{client, Net};

/// One exchange's signer-side hashes: the sign call, then every
/// datagram the client engine is handed.
fn signer_counts(mode: Mode, n: usize, reliability: Reliability) -> Counts {
    let proto = Config::new(Algorithm::Sha1)
        .with_reliability(reliability)
        .with_chain_len(64)
        .with_chain_storage(ChainStorage::Full);
    let cfg = EngineConfig::new(proto);
    let (mut net, hop) = Net::path(1, cfg, cfg, None);
    let key = net.connect(client(), hop, 1);
    let msgs: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 1024]).collect();
    let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();

    let mut total = Counts::default();
    let mut add = |c: Counts| {
        total.invocations += c.invocations;
        total.input_bytes += c.input_bytes;
        total.long_input_invocations += c.long_input_invocations;
        total.mac_invocations += c.mac_invocations;
        total.mac_raw_invocations += c.mac_raw_invocations;
    };
    let scope = counting::Scope::start();
    let out = net
        .engine(client())
        .sign_batch(key, &refs, mode, net.now)
        .expect("sign");
    add(scope.finish());
    net.send(client(), out);
    while !net.flight.is_empty() {
        if net.flight[0].dst == client() {
            let scope = counting::Scope::start();
            net.deliver(0);
            add(scope.finish());
        } else {
            net.deliver(0);
        }
    }
    assert_eq!(net.delivered(hop).len(), n, "every message delivered");
    assert!(net.engine(client()).flow_is_idle(key), "exchange complete");
    total
}

/// `(msg-sized, fixed, total)` per message, as the `table1` bin prints
/// them.
fn per_message(c: Counts, n: usize) -> [String; 3] {
    let msg_sized = c.mac_invocations.max(c.long_input_invocations);
    let fixed = c.invocations
        - c.mac_raw_invocations
        - c.long_input_invocations.saturating_sub(c.mac_invocations);
    let nf = n as f64;
    [msg_sized, fixed, msg_sized + fixed].map(|v| format!("{:.2}", v as f64 / nf))
}

#[test]
fn the_signing_engine_hashes_table_1s_signer_rows() {
    let rows = [
        (
            Reliability::Unreliable,
            Mode::Base,
            1,
            ["1.00", "1.00", "2.00"],
        ),
        (
            Reliability::Unreliable,
            Mode::Cumulative,
            20,
            ["1.00", "0.05", "1.05"],
        ),
        (
            Reliability::Unreliable,
            Mode::Merkle,
            16,
            ["1.00", "1.06", "2.06"],
        ),
        (
            Reliability::Reliable,
            Mode::Base,
            1,
            ["1.00", "3.00", "4.00"],
        ),
        (
            Reliability::Reliable,
            Mode::Cumulative,
            20,
            ["1.00", "0.15", "1.15"],
        ),
        (
            Reliability::Reliable,
            Mode::Merkle,
            16,
            ["1.00", "7.12", "8.12"],
        ),
    ];
    for (reliability, mode, n, want) in rows {
        let got = per_message(signer_counts(mode, n, reliability), n);
        assert_eq!(got, want, "{reliability:?} {mode:?} n={n}");
    }
}

//! Hostile bytes against the hibernation record codec: a seeded mutation
//! fuzzer over `FrozenAssociation::decode` and `Association::thaw`.
//!
//! Seeds are the four sleeping associations `freeze_golden.rs` pins plus
//! one idle signer per chain layout. Each case applies one to three
//! mutations — a bit flip, a byte set, a truncation, a splice with
//! another seed, or a big-endian u32 / u64 rewritten to a length a
//! hostile record would claim — and then holds the codec to these rules:
//!
//! - decode never panics;
//! - a record it accepts re-encodes to exactly its own bytes (one byte
//!   string per state, so no two records thaw alike);
//! - decode allocates at most [`ALLOC_PER_BYTE`] bytes per record byte,
//!   plus [`ALLOC_SLACK`]: nothing proportional to a claimed length
//!   before the bytes behind it have been seen;
//! - thawing an accepted record hashes nothing, and attempting one
//!   exchange on it — signing, and handling what the peer sent next —
//!   never panics.
//!
//! The generator is seeded, so every run makes the same cases. ci.sh
//! runs the suite under every forced digest backend, since decoding
//! rebuilds AMTs by hashing.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};

use alpha_core::{Association, ChainStorage, Config, FrozenAssociation, Mode};
use alpha_crypto::counting::{self, Counts};
use alpha_crypto::Algorithm;
use alpha_wire::Packet;
use common::{ms, CountingAlloc, SLEEPING};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Decode's allocation budget per record byte. The largest honest ratio
/// is an AMT's: 32 bytes of leaf secrets per message rebuild two leaves,
/// their tree and the hashing jobs.
const ALLOC_PER_BYTE: usize = 16;
/// Decode's allocation budget on top: the A1 packet, small vectors.
const ALLOC_SLACK: usize = 4096;

/// Mutated cases per run.
const CASES: usize = 10_000;

/// A record to mutate and what the flow it came from would see next.
struct Seed {
    what: String,
    cfg: Config,
    record: Vec<u8>,
    /// Packets the peer sends the frozen side next: the S2s it has not
    /// seen, or a fresh exchange's S1.
    inbound: Vec<Packet>,
}

fn seeds() -> Vec<Seed> {
    let mut seeds: Vec<Seed> = SLEEPING
        .into_iter()
        .map(|(what, sleeping)| {
            let s = sleeping();
            Seed {
                what: what.to_owned(),
                cfg: s.cfg,
                record: s.bob.freeze().expect("the verifier freezes").encode(),
                inbound: s.undelivered,
            }
        })
        .collect();
    // An idle signer per layout, at the length the engine gives it.
    for (storage, len) in [(ChainStorage::Full, 64), (ChainStorage::Sqrt, 1024)] {
        let cfg = Config::new(Algorithm::Sha1)
            .with_chain_len(len)
            .with_chain_storage(storage);
        let mut rng = StdRng::seed_from_u64(len);
        let (mut alice, mut bob) = Association::pair(cfg, 0x00A1_FA10, &mut rng);
        common::exchange(&mut alice, &mut bob, &[b"idle"], Mode::Base, 1, 3, &mut rng);
        seeds.push(Seed {
            what: format!("idle {storage:?} signer"),
            cfg,
            record: alice.freeze().expect("the signer is idle").encode(),
            inbound: vec![bob.sign(b"reply", ms(9)).expect("bob signs")],
        });
    }
    seeds
}

/// Values a hostile length field would claim.
const LENGTHS: [u64; 12] = [
    0,
    1,
    2,
    3,
    0xff,
    0x1_0000,
    (1 << 24) - 1,
    1 << 24,
    (1 << 24) + 2,
    u32::MAX as u64,
    1 << 32,
    u64::MAX,
];

/// Apply one mutation to `bytes`, described in `log`.
fn mutate(bytes: &mut Vec<u8>, seeds: &[Seed], rng: &mut StdRng, log: &mut Vec<String>) {
    if bytes.is_empty() {
        bytes.push(rng.gen());
        log.push("grow from empty".to_owned());
        return;
    }
    let at = rng.gen_range(0..bytes.len());
    match rng.gen_range(0..5u8) {
        0 => {
            let bit = rng.gen_range(0..8u8);
            bytes[at] ^= 1 << bit;
            log.push(format!("flip bit {bit} of byte {at}"));
        }
        1 => {
            let value = *[0, 1, 2, 0x7f, 0x80, 0xff, rng.gen()]
                .choose(rng)
                .expect("non-empty");
            bytes[at] = value;
            log.push(format!("set byte {at} to {value:#x}"));
        }
        2 => {
            bytes.truncate(at);
            log.push(format!("truncate to {at}"));
        }
        3 => {
            let other = &seeds[rng.gen_range(0..seeds.len())].record;
            let from = rng.gen_range(0..other.len());
            bytes.splice(at.., other[from..].iter().copied());
            log.push(format!("splice at {at} from byte {from} of another"));
        }
        _ => {
            let value = *LENGTHS.choose(rng).expect("non-empty");
            let width = if rng.gen_bool(0.5) { 4 } else { 8 };
            let at = at.min(bytes.len().saturating_sub(width));
            let be = value.to_be_bytes();
            let end = (at + width).min(bytes.len());
            bytes[at..end].copy_from_slice(&be[8 - width..][..end - at]);
            log.push(format!("write u{} {value:#x} at {at}", width * 8));
        }
    }
}

/// Every rule above for one record; `Err` names the rule it broke.
fn check(bytes: &[u8], seed: &Seed, rng: &mut StdRng) -> Result<(), String> {
    let (frozen, _, allocated) =
        catch_unwind(|| common::allocations(|| FrozenAssociation::decode(bytes)))
            .map_err(|_| "decode panicked".to_owned())?;
    let budget = ALLOC_PER_BYTE * bytes.len() + ALLOC_SLACK;
    if allocated > budget {
        return Err(format!(
            "decode allocated {allocated} B for a {} B record",
            bytes.len()
        ));
    }
    let Some(frozen) = frozen else {
        return Ok(());
    };
    if frozen.encode() != bytes {
        return Err("an accepted record re-encodes to other bytes".to_owned());
    }
    let cfg = Config {
        algorithm: frozen.algorithm(),
        ..seed.cfg
    };
    let thaw_counts = catch_unwind(AssertUnwindSafe(|| {
        let scope = counting::Scope::start();
        let mut thawed = Association::thaw(cfg, &frozen);
        let thaw_counts = scope.finish();
        for packet in &seed.inbound {
            let _ = thawed.handle(packet, ms(20), rng);
        }
        let _ = thawed.sign(b"probe", ms(21));
        thaw_counts
    }))
    .map_err(|_| "thaw or the exchange after it panicked".to_owned())?;
    if thaw_counts != Counts::default() {
        return Err(format!("thaw hashed: {thaw_counts:?}"));
    }
    Ok(())
}

#[test]
fn mutated_records_never_panic_reencode_exactly_and_allocate_in_proportion() {
    let seeds = seeds();
    let mut rng = StdRng::seed_from_u64(0x0F0A_2E00);
    for seed in &seeds {
        check(&seed.record, seed, &mut rng).unwrap_or_else(|e| panic!("{}: {e}", seed.what));
    }
    let mut failures = Vec::new();
    let mut accepted = 0;
    for case in 0..CASES {
        let seed = &seeds[case % seeds.len()];
        let mut bytes = seed.record.clone();
        let mut log = Vec::new();
        for _ in 0..rng.gen_range(1..=3u8) {
            mutate(&mut bytes, &seeds, &mut rng, &mut log);
        }
        accepted += usize::from(FrozenAssociation::decode(&bytes).is_some());
        if let Err(e) = check(&bytes, seed, &mut rng) {
            failures.push(format!(
                "case {case} ({}; {}): {e}",
                seed.what,
                log.join(", ")
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {CASES} cases failed:\n{}",
        failures.len(),
        failures[..failures.len().min(12)].join("\n")
    );
    // The mutations must leave some records whole enough to thaw.
    assert!(accepted * 20 > CASES, "only {accepted} cases decoded");
}

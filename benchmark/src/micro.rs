//! Micro-timings of single public functions: the unit prices of the
//! per-crate ledger. A traced run takes them on the host it runs on,
//! so hash counts can be priced and a layer change can be told from a
//! host change.

use std::hint::black_box;
use std::time::Instant;

use alpha_core::{Association, Config};
use alpha_crypto::chain::{ChainKind, HashChain};
use alpha_crypto::merkle::{self, MerkleTree};
use alpha_crypto::{counting, hmac, Digest};
use alpha_store::FrozenStore;
use alpha_wire::{Body, Packet};
use rand::rngs::StdRng;
use rand::RngCore;

use crate::gen::ALG;
use crate::stats::median;

/// Rounds every micro-timing takes; the median round is reported.
const ROUNDS: usize = 15;
/// Rounds of a `--quick` run, which only has to produce every number.
const QUICK_ROUNDS: usize = 3;

static QUICK: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Switch the micro-timings to their smoke-run length.
pub fn set_quick(quick: bool) {
    QUICK.store(quick, std::sync::atomic::Ordering::Relaxed);
}

fn rounds() -> usize {
    if QUICK.load(std::sync::atomic::Ordering::Relaxed) {
        QUICK_ROUNDS
    } else {
        ROUNDS
    }
}

/// Median over the rounds of the mean nanoseconds of `iters` calls of
/// `f`.
pub fn time_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    let rounds: Vec<f64> = (0..rounds())
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&rounds)
}

/// Cost of one `Instant::now()` pair — what a per-call span adds.
#[must_use]
pub fn timer_overhead_ns() -> f64 {
    time_ns(10_000, || {
        let t = Instant::now();
        black_box(t.elapsed());
    })
}

/// Price of one digest call: a fixed part per invocation plus a part
/// per 64-byte compression block, fitted to the timings of a one-block
/// (32 B) and a 17-block (1 KiB) input. Prices the hash counters, which
/// know invocations and input bytes but not each input's length.
#[derive(Debug, Clone, Copy)]
pub struct HashPrice {
    /// Nanoseconds per invocation regardless of length.
    pub fixed_ns: f64,
    /// Nanoseconds per compression block.
    pub per_block_ns: f64,
}

impl HashPrice {
    /// Fit from the two measured points.
    #[must_use]
    pub fn fit(ns_32: f64, ns_1024: f64) -> HashPrice {
        let per_block_ns = ((ns_1024 - ns_32) / 16.0).max(0.0);
        HashPrice {
            fixed_ns: (ns_32 - per_block_ns).max(0.0),
            per_block_ns,
        }
    }

    /// Nanoseconds the counted hash activity cost. An input of `n`
    /// bytes takes `ceil((n + 9) / 64)` blocks (padding and length);
    /// over many inputs of unknown lengths the round-up averages half a
    /// block each.
    #[must_use]
    pub fn price(&self, counts: &counting::Counts) -> f64 {
        let calls = counts.invocations as f64;
        let blocks = (counts.input_bytes as f64 + 9.0 * calls) / 64.0 + 0.5 * calls;
        calls * self.fixed_ns + blocks * self.per_block_ns
    }
}

/// Micro-timings that do not depend on the workload.
#[derive(Debug, Clone, Copy)]
pub struct Prices {
    /// One digest over 32 bytes (one compression block).
    pub digest_ns_32: f64,
    /// One digest over 64 bytes.
    pub digest_ns_64: f64,
    /// One digest over 1 KiB.
    pub digest_ns_1k: f64,
    /// One MAC (the deployment's HMAC) over 1 KiB.
    pub mac_ns_1k: f64,
    /// Building a 32-leaf Merkle tree from leaf digests.
    pub merkle_build_ns_32: f64,
    /// Checking one keyed authentication path of a 32-leaf tree.
    pub merkle_path_ns_32: f64,
    /// Deriving a 1024-element hash chain from its seed.
    pub chain_build_ns_1024: f64,
    /// `FrozenStore::insert` of one frozen-flow record.
    pub store_insert_ns: f64,
    /// `FrozenStore::remove` of one record.
    pub store_remove_ns: f64,
    /// Encoded frozen record length in bytes.
    pub store_record_bytes: f64,
    /// `Association::freeze` + encode, per flow.
    pub freeze_ns: f64,
    /// decode + `Association::thaw`, per flow.
    pub thaw_ns: f64,
    /// Cost of one span's two clock reads.
    pub timer_ns: f64,
}

impl Prices {
    /// The fitted hash price.
    #[must_use]
    pub fn hash(&self) -> HashPrice {
        HashPrice::fit(self.digest_ns_32, self.digest_ns_1k)
    }
}

/// Take every workload-independent micro-timing. `chain_len` is the
/// workload's chain length (freeze/thaw cost depends on it).
pub fn prices(rng: &mut StdRng, chain_len: u64) -> Prices {
    let mut block = [0u8; 1024];
    rng.fill_bytes(&mut block);
    let key = ALG.hash(&block[..20]);

    let digest_ns_32 = time_ns(20_000, || {
        black_box(ALG.hash(black_box(&block[..32])));
    });
    let digest_ns_64 = time_ns(20_000, || {
        black_box(ALG.hash(black_box(&block[..64])));
    });
    let digest_ns_1k = time_ns(4_000, || {
        black_box(ALG.hash(black_box(&block[..])));
    });
    let mac_ns_1k = time_ns(4_000, || {
        black_box(hmac::mac(ALG, key.as_bytes(), black_box(&block[..])));
    });

    let leaves: Vec<Digest> = (0..32u8).map(|i| ALG.hash(&[i])).collect();
    let merkle_build_ns_32 = time_ns(2_000, || {
        black_box(MerkleTree::build(ALG, black_box(&leaves)));
    });
    let tree = MerkleTree::build(ALG, &leaves);
    let (path, root) = (tree.auth_path(13), tree.keyed_root(&key));
    let merkle_path_ns_32 = time_ns(10_000, || {
        let ok = merkle::verify_keyed(ALG, &key, &leaves[13], 13, black_box(&path), &root);
        assert!(black_box(ok));
    });
    let chain_build_ns_1024 = time_ns(24, || {
        black_box(HashChain::from_seed(
            ALG,
            ChainKind::RoleBoundSignature,
            1024,
            black_box(&block[..20]),
        ));
    });

    // Frozen-flow records as the engine stores them, from real
    // associations resolved to the storage the engine would pick.
    let cfg = alpha_engine::EngineConfig::new(Config::new(ALG).with_chain_len(chain_len)).protocol;
    let assocs: Vec<Association> = (0..64)
        .map(|i| Association::pair(cfg, i + 1, rng).1)
        .collect();
    let records: Vec<Vec<u8>> = assocs
        .iter()
        .map(|a| a.freeze().expect("idle association freezes").encode())
        .collect();
    let mut i = 0usize;
    let freeze_ns = time_ns(256, || {
        i = (i + 1) % assocs.len();
        black_box(
            assocs[i]
                .freeze()
                .expect("idle association freezes")
                .encode(),
        );
    });
    let thaw_ns = time_ns(24, || {
        i = (i + 1) % records.len();
        let frozen = alpha_core::FrozenAssociation::decode(&records[i]).expect("own record");
        black_box(Association::thaw(cfg, &frozen));
    });

    // Insert and remove over a store that already holds 4096 records.
    let mut store: FrozenStore<u64> = FrozenStore::new(None);
    for k in 0..4096u64 {
        store.insert(k, records[k as usize % records.len()].clone());
    }
    let mut k = 4096u64;
    let mut spare: Vec<Vec<u8>> = Vec::new();
    let store_insert_ns = {
        let rounds: Vec<f64> = (0..rounds())
            .map(|_| {
                spare.extend((0..512).map(|j| records[j % records.len()].clone()));
                let start = Instant::now();
                for record in spare.drain(..) {
                    black_box(store.insert(k, record));
                    k += 1;
                }
                start.elapsed().as_nanos() as f64 / 512.0
            })
            .collect();
        median(&rounds)
    };
    let mut victim = 4096u64;
    let store_remove_ns = time_ns(512, || {
        black_box(store.remove(&victim));
        victim += 1;
    });

    Prices {
        digest_ns_32,
        digest_ns_64,
        digest_ns_1k,
        mac_ns_1k,
        merkle_build_ns_32,
        merkle_path_ns_32,
        chain_build_ns_1024,
        store_insert_ns,
        store_remove_ns,
        store_record_bytes: records[0].len() as f64,
        freeze_ns,
        thaw_ns,
        timer_ns: timer_overhead_ns(),
    }
}

/// `Packet::encode_into` of an S2 carrying `payload` bytes behind a
/// `path_len`-deep authentication path, into a reused buffer.
pub fn emit_ns(payload: usize, path_len: usize) -> f64 {
    let pkt = Packet {
        assoc_id: 1,
        alg: ALG,
        chain_index: 7,
        body: Body::S2 {
            key: ALG.hash(b"key"),
            seq: 0,
            path: (0..path_len as u8).map(|i| ALG.hash(&[i])).collect(),
            payload: vec![0x5a; payload],
        },
    };
    let mut out = Vec::with_capacity(pkt.wire_len());
    time_ns(10_000, || {
        out.clear();
        black_box(&pkt).encode_into(&mut out);
        black_box(out.len());
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_price_reproduces_its_two_points() {
        let p = HashPrice::fit(100.0, 900.0);
        assert!((p.per_block_ns - 50.0).abs() < 1e-9);
        assert!((p.fixed_ns - 50.0).abs() < 1e-9);
        // 1024 B: (1024 + 9) / 64 + 0.5 = 16.64 blocks, against 17 real
        // ones — the averaged round-up is within half a block.
        let one_long = counting::Counts {
            invocations: 1,
            input_bytes: 1024,
            ..counting::Counts::default()
        };
        assert!((p.price(&one_long) - 900.0).abs() < 25.0);
        // A noisy pair where the long input looks cheaper never prices
        // blocks negatively.
        let q = HashPrice::fit(100.0, 90.0);
        assert_eq!(q.per_block_ns, 0.0);
    }

    #[test]
    fn time_ns_grows_with_the_work() {
        let small = time_ns(200, || {
            black_box(ALG.hash(black_box(&[0u8; 64])));
        });
        let large = time_ns(200, || {
            black_box(ALG.hash(black_box(&[0u8; 4096])));
        });
        assert!(small > 0.0 && large > small);
    }
}

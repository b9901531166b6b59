//! Digest backend throughput — what the pluggable backend layer in
//! `alpha-crypto` buys at each tier.
//!
//! Four measurements, each across every backend the host CPU supports
//! (scalar always, portable 4-lane always, SHA-NI when detected):
//!
//! 1. **Single-message latency**: `digest_batch` of one input — the
//!    batch entry point's floor, whose padding comes from the batch
//!    code, not from the streaming hasher.
//! 2. **Batched throughput**: `digest_batch` over many independent
//!    messages — the shape of HMAC pre-signature generation, Merkle
//!    level builds, and relay batch verification.
//! 3. **One-shot calls**: what the protocol actually calls per packet —
//!    `Algorithm::hash` (streaming hasher and its `finish` padding) at
//!    20 / 64 / 1024 B, and building one 1024-element chain and a
//!    signature/acknowledgment chain pair through the chain walker.
//! 4. **End-to-end relay S2/sec**: the engine-scaling harness in
//!    miniature, with bundled ALPHA-C exchanges flowing through one
//!    relay `EngineCore`, re-run with the backend forced to each tier.
//! 5. **The SHA-1 batch path**: ns per 64-byte block of a `digest_batch`
//!    of 16 × 1 KiB and of `MerkleTree::from_messages` over 32 × 1 KiB
//!    (what an ALPHA-M signer and verifier hash), per tier; ns per block
//!    of each SHA-1 kernel (SHA-NI at 1, 2, 4 and 8 streams, 16 lanes);
//!    and the crossover behind the 16-lane kernel's job threshold — per job
//!    count, ns per job of the 16-lane kernel against SHA-NI's one and
//!    two streams, for one-block jobs (Merkle nodes) and 17-block jobs
//!    (1 KiB leaves).
//!
//! Output: tables on stdout and `BENCH_digest.json`. `--quick` shrinks
//! everything into a ci.sh smoke gate (no throughput assertions, since
//! tiny runs on loaded CI hosts are noise).

use std::fmt::Write as _;
use std::hint::black_box;
use std::net::SocketAddr;
use std::time::Instant;

use alpha_bench::table;
use alpha_core::bootstrap::{self, AuthRequirement};
use alpha_core::{Config, Mode, Timestamp};
use alpha_crypto::backend::{self, kernels, BackendKind};
use alpha_crypto::chain::{ChainKind, ChainStorage, HashChain};
use alpha_crypto::merkle::MerkleTree;
use alpha_crypto::{Algorithm, Digest};
use alpha_engine::{EngineConfig, EngineCore};
use alpha_wire::bundle;
use rand::rngs::StdRng;
use rand::SeedableRng;

const MSG_LENS: [usize; 2] = [64, 1024];
const ALGS: [Algorithm; 2] = [Algorithm::Sha1, Algorithm::Sha256];

/// Nanoseconds per digest, one message at a time.
fn single_ns(kind: BackendKind, alg: Algorithm, len: usize, iters: usize) -> f64 {
    let msg = vec![0xA5u8; len];
    let refs = [msg.as_slice()];
    let mut out = [Digest::zero(alg)];
    backend::digest_batch_using(kind, alg, &refs, &mut out); // warm up
    let t = Instant::now();
    for _ in 0..iters {
        backend::digest_batch_using(kind, alg, &refs, &mut out);
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

const ONE_SHOT_LENS: [usize; 3] = [20, 64, 1024];
const CHAIN_LEN: u64 = 1024;

/// Nanoseconds per call of `f` with the process-wide backend forced to
/// `kind`: the median of nine timed runs of `iters` calls each.
fn forced_ns(kind: BackendKind, iters: usize, mut f: impl FnMut()) -> f64 {
    backend::force(kind).expect("supported backend");
    f(); // warm up
    let mut runs: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    runs[runs.len() / 2]
}

/// The one-shot rows for one backend and algorithm: `(what, ns)`.
fn one_shot_rows(kind: BackendKind, alg: Algorithm, iters: usize) -> Vec<(String, f64)> {
    let msg = vec![0xA5u8; 1024];
    let mut rows: Vec<(String, f64)> = ONE_SHOT_LENS
        .iter()
        .map(|&len| {
            let ns = forced_ns(kind, iters, || {
                black_box(alg.hash(black_box(&msg[..len])));
            });
            (format!("hash_{len}B"), ns)
        })
        .collect();
    let builds = (iters / 1024).max(3);
    let ns = forced_ns(kind, builds, || {
        black_box(HashChain::from_seed(
            alg,
            ChainKind::RoleBoundSignature,
            CHAIN_LEN,
            black_box(&msg[..20]),
        ));
    });
    rows.push((format!("chain_build_{CHAIN_LEN}"), ns));
    let ns = forced_ns(kind, builds, || {
        black_box(HashChain::from_seeds_batch(
            alg,
            CHAIN_LEN,
            ChainStorage::Full,
            &[
                (ChainKind::RoleBoundSignature, black_box(&msg[..20])),
                (ChainKind::RoleBoundAck, black_box(&msg[20..40])),
            ],
        ));
    });
    rows.push((format!("chain_pair_build_{CHAIN_LEN}"), ns));
    rows
}

/// MB/s hashing `n` independent messages per batch call.
fn batch_mbs(kind: BackendKind, alg: Algorithm, len: usize, n: usize, budget_bytes: usize) -> f64 {
    let msgs: Vec<Vec<u8>> = (0..n).map(|i| vec![(i % 256) as u8; len]).collect();
    let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
    let mut out = vec![Digest::zero(alg); n];
    backend::digest_batch_using(kind, alg, &refs, &mut out); // warm up
    let iters = (budget_bytes / (len * n)).max(3);
    let t = Instant::now();
    for _ in 0..iters {
        backend::digest_batch_using(kind, alg, &refs, &mut out);
    }
    let secs = t.elapsed().as_secs_f64();
    (iters * n * len) as f64 / secs / 1e6
}

/// 64-byte blocks SHA-1 compresses for a `len`-byte message.
fn blocks_of(len: usize) -> usize {
    (len + 9).div_ceil(64)
}

/// Ns per compressed block of the two SHA-1 batch shapes an ALPHA-M
/// bundle of 1 KiB messages hashes, `(call, ns per block)`.
fn batch_path_rows(kind: BackendKind, iters: usize) -> Vec<(&'static str, f64)> {
    let alg = Algorithm::Sha1;
    let msgs: Vec<Vec<u8>> = (0..32).map(|i| vec![i as u8; 1024]).collect();
    let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
    let mut out = vec![Digest::zero(alg); 16];
    let ns = forced_ns(kind, iters, || {
        backend::digest_batch(alg, black_box(&refs[..16]), &mut out);
    });
    let batch = ("digest_batch_16x1KiB", ns / (16 * blocks_of(1024)) as f64);
    let ns = forced_ns(kind, iters, || {
        black_box(MerkleTree::from_messages(alg, black_box(&refs)));
    });
    // 32 leaves of 17 blocks and 31 one-block nodes.
    let merkle = (
        "merkle_from_messages_32x1KiB",
        ns / (32 * blocks_of(1024) + 31) as f64,
    );
    vec![batch, merkle]
}

/// One row of the 16-lane kernel's crossover: ns per job for `jobs`
/// jobs of `blocks` blocks each, SHA-NI streams (pairs, an odd one alone)
/// against one 16-lane call with `jobs` live lanes.
struct Crossover {
    blocks: usize,
    jobs: usize,
    sha_ni: f64,
    wide: f64,
}

fn crossover_rows(blocks: usize, iters: usize) -> Vec<Crossover> {
    let data = vec![0x5Au8; 64 * blocks];
    (1..=kernels::WIDE)
        .map(|jobs| {
            let mut pair = [[0u32; 5]; 2];
            let mut one = [[0u32; 5]; 1];
            let sha_ni = forced_ns(BackendKind::ShaNi, iters, || {
                for _ in 0..jobs / 2 {
                    kernels::sha1_sha_ni(&mut pair, [black_box(&data), &data]);
                }
                if jobs % 2 == 1 {
                    kernels::sha1_sha_ni(&mut one, [black_box(&data)]);
                }
            });
            let mut lanes = [[0u32; kernels::WIDE]; 5];
            let wide = forced_ns(BackendKind::ShaNi, iters, || {
                let runs =
                    core::array::from_fn(|l| if l < jobs { black_box(&data[..]) } else { &[] });
                kernels::sha1_wide(&mut lanes, runs);
            });
            black_box((pair, one, lanes));
            Crossover {
                blocks,
                jobs,
                sha_ni: sha_ni / jobs as f64,
                wide: wide / jobs as f64,
            }
        })
        .collect()
}

/// Ns per block of each SHA-1 kernel over 17-block (1 KiB message)
/// runs: SHA-NI with 1, 2, 4 and 8 interleaved streams, and all 16
/// lanes of the 16-lane kernel.
fn kernel_rows(iters: usize) -> Vec<(&'static str, f64)> {
    fn sha_ni<const N: usize>(data: &[u8], iters: usize) -> f64 {
        let mut states = [[0u32; 5]; N];
        let ns = forced_ns(BackendKind::ShaNi, iters, || {
            kernels::sha1_sha_ni(&mut states, [black_box(data); N]);
        });
        ns / (N * data.len() / 64) as f64
    }
    let data = vec![0x5Au8; 64 * blocks_of(1024)];
    let mut lanes = [[0u32; kernels::WIDE]; 5];
    let wide = forced_ns(BackendKind::ShaNi, iters, || {
        kernels::sha1_wide(&mut lanes, [black_box(&data[..]); kernels::WIDE]);
    });
    vec![
        ("sha_ni_1", sha_ni::<1>(&data, iters)),
        ("sha_ni_2", sha_ni::<2>(&data, iters)),
        ("sha_ni_4", sha_ni::<4>(&data, iters)),
        ("sha_ni_8", sha_ni::<8>(&data, iters)),
        ("wide_16", wide / (kernels::WIDE * blocks_of(1024)) as f64),
    ]
}

/// Fewest jobs from which the 16-lane kernel is the cheaper one at every
/// larger count too (one past the lanes if it never is).
fn crossover_at(rows: &[Crossover]) -> usize {
    rows.iter()
        .rev()
        .take_while(|r| r.wide <= r.sha_ni)
        .last()
        .map_or(kernels::WIDE + 1, |r| r.jobs)
}

/// One relay flow's pre-generated traffic: handshake (unmeasured) and
/// bundled ALPHA-C exchanges (measured), tagged with the source address.
struct FlowTraffic {
    client: SocketAddr,
    server: SocketAddr,
    handshake: Vec<(SocketAddr, Vec<u8>)>,
    frames: Vec<(SocketAddr, Vec<u8>)>,
}

fn generate_flow(i: usize, cfg: Config, exchanges: usize, bundle_msgs: usize) -> FlowTraffic {
    let ip = [10u8, 99, (i >> 8) as u8, i as u8];
    let client_addr = SocketAddr::from((ip, 40_000));
    let server_addr = SocketAddr::from((ip, 50_000));
    let mut rng = StdRng::seed_from_u64(0xd1e57 + i as u64);
    let (hs, hs1) = bootstrap::initiate(cfg, i as u64, None, &mut rng);
    let (mut server, hs2, _) = bootstrap::respond(cfg, &hs1, None, AuthRequirement::None, &mut rng)
        .expect("bootstrap respond");
    let (mut client, _) = hs
        .complete(&hs2, AuthRequirement::None)
        .expect("bootstrap complete");
    let handshake = vec![(client_addr, hs1.emit()), (server_addr, hs2.emit())];

    let msgs: Vec<Vec<u8>> = (0..bundle_msgs)
        .map(|m| format!("flow {i} msg {m} ++ some payload padding").into_bytes())
        .collect();
    let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
    let mut frames = Vec::new();
    for x in 0..exchanges {
        let now = Timestamp::from_millis(10 + x as u64);
        let s1 = client
            .sign_batch(&refs, Mode::Cumulative, now)
            .expect("sign");
        frames.push((client_addr, s1.emit()));
        let a1 = server
            .handle(&s1, now, &mut rng)
            .expect("handle s1")
            .packet()
            .expect("a1");
        frames.push((server_addr, a1.emit()));
        let s2s = client
            .handle(&a1, now, &mut rng)
            .expect("handle a1")
            .packets;
        // All of a bundle's S2s travel in one datagram, so the relay's
        // batched verification path sees a full run.
        frames.push((client_addr, bundle::emit(&s2s).expect("bundle s2s")));
    }
    FlowTraffic {
        client: client_addr,
        server: server_addr,
        handshake,
        frames,
    }
}

/// Relay-verified S2 payloads per second with `kind` forced.
fn e2e_s2_per_sec(
    kind: BackendKind,
    traffic: &[FlowTraffic],
    exchanges: usize,
    bundle_msgs: usize,
) -> f64 {
    backend::force(kind).expect("supported backend");
    let cfg = Config::new(Algorithm::Sha256).with_chain_len(64);
    let mut ecfg = EngineConfig::new(cfg).with_shards(16);
    ecfg.accept_handshakes = false;
    let core = EngineCore::new(ecfg);
    let mut rng = StdRng::seed_from_u64(3);
    for t in traffic {
        core.add_route(t.client, t.server);
        for (from, bytes) in &t.handshake {
            core.handle_datagram(*from, bytes, Timestamp::from_millis(1), &mut rng);
        }
    }
    let mut extracted = 0u64;
    let max_frames = traffic.iter().map(|t| t.frames.len()).max().unwrap_or(0);
    let started = Instant::now();
    for idx in 0..max_frames {
        for t in traffic {
            let Some((from, bytes)) = t.frames.get(idx) else {
                continue;
            };
            let now = Timestamp::from_millis(100 + idx as u64);
            let out = core.handle_datagram(*from, bytes, now, &mut rng);
            extracted += out.extracted.len() as u64;
        }
    }
    let secs = started.elapsed().as_secs_f64();
    let expected = (traffic.len() * exchanges * bundle_msgs) as u64;
    assert_eq!(
        extracted, expected,
        "every bundled payload must verify at the relay"
    );
    extracted as f64 / secs
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let detected = backend::detect();
    let backends = backend::available();

    let (single_iters, batch_n, budget) = if quick {
        (2_000, 256, 2 << 20)
    } else {
        (50_000, 1024, 64 << 20)
    };

    // 1 + 2: micro measurements.
    let mut micro_rows = Vec::new();
    let mut single: Vec<(BackendKind, Algorithm, usize, f64)> = Vec::new();
    let mut batched: Vec<(BackendKind, Algorithm, usize, f64)> = Vec::new();
    for &alg in &ALGS {
        for &len in &MSG_LENS {
            for &kind in &backends {
                let ns = single_ns(kind, alg, len, single_iters);
                let mbs = batch_mbs(kind, alg, len, batch_n, budget);
                micro_rows.push(vec![
                    alg.to_string(),
                    len.to_string(),
                    kind.name().to_owned(),
                    format!("{ns:.0}"),
                    format!("{mbs:.1}"),
                ]);
                single.push((kind, alg, len, ns));
                batched.push((kind, alg, len, mbs));
            }
        }
    }
    table::print(
        "Digest backends — single-message latency and batched throughput",
        &["alg", "msg B", "backend", "single ns", "batched MB/s"],
        &micro_rows,
    );

    let batched_of = |kind: BackendKind, alg: Algorithm, len: usize| {
        batched
            .iter()
            .find(|&&(k, a, l, _)| k == kind && a == alg && l == len)
            .map_or(0.0, |&(_, _, _, v)| v)
    };
    let scalar_1k = batched_of(BackendKind::Scalar, Algorithm::Sha256, 1024);
    let lanes4_x = batched_of(BackendKind::Lanes4, Algorithm::Sha256, 1024) / scalar_1k;
    let shani_x = if BackendKind::ShaNi.is_supported() {
        batched_of(BackendKind::ShaNi, Algorithm::Sha256, 1024) / scalar_1k
    } else {
        0.0
    };
    println!(
        "\nbatched SHA-256 (1 KiB msgs) vs scalar: lanes4 {lanes4_x:.2}x, sha-ni {}",
        if BackendKind::ShaNi.is_supported() {
            format!("{shani_x:.2}x")
        } else {
            "n/a".to_owned()
        }
    );

    // 3: one-shot calls, backend forced per row.
    let mut one_shot: Vec<(BackendKind, Algorithm, String, f64)> = Vec::new();
    for &alg in &ALGS {
        for &kind in &backends {
            for (what, ns) in one_shot_rows(kind, alg, single_iters) {
                one_shot.push((kind, alg, what, ns));
            }
        }
    }
    backend::force(detected).expect("detected backend is supported");
    let one_shot_table: Vec<Vec<String>> = one_shot
        .iter()
        .map(|(kind, alg, what, ns)| {
            vec![
                alg.to_string(),
                what.clone(),
                kind.name().to_owned(),
                format!("{ns:.0}"),
            ]
        })
        .collect();
    table::print(
        "One-shot calls — Algorithm::hash and chain builds through the walker",
        &["alg", "call", "backend", "ns"],
        &one_shot_table,
    );

    // 5: the SHA-1 batch path, backend forced per row, and the 16-lane
    // kernel's crossover against SHA-NI.
    let batch_iters = if quick { 20 } else { 400 };
    let mut batch_path: Vec<(BackendKind, &str, f64)> = Vec::new();
    for &kind in &backends {
        for (call, ns) in batch_path_rows(kind, batch_iters) {
            batch_path.push((kind, call, ns));
        }
    }
    let wide = kernels::wide();
    table::print(
        "SHA-1 batch path — ns per 64-byte block (16-lane kernel for SHA-1 batches of 6+ jobs on any tier but scalar, when AVX-512F/BW is present)",
        &["call", "backend", "ns/block"],
        &batch_path
            .iter()
            .map(|(kind, call, ns)| vec![(*call).to_owned(), kind.name().to_owned(), format!("{ns:.1}")])
            .collect::<Vec<_>>(),
    );
    let both = wide && BackendKind::ShaNi.is_supported();
    let crossover: Vec<Crossover> = if both {
        [1, blocks_of(1024)]
            .into_iter()
            .flat_map(|blocks| crossover_rows(blocks, batch_iters * 10 / blocks))
            .collect()
    } else {
        Vec::new()
    };
    let kernel_ns = if both {
        kernel_rows(batch_iters)
    } else {
        Vec::new()
    };
    backend::force(detected).expect("detected backend is supported");
    if crossover.is_empty() {
        println!("\n16-lane kernel crossover: n/a (needs SHA-NI and AVX-512F/BW)");
    } else {
        table::print(
            "SHA-1 kernels — ns per 64-byte block over 17-block runs",
            &["kernel", "ns/block"],
            &kernel_ns
                .iter()
                .map(|(kernel, ns)| vec![(*kernel).to_owned(), format!("{ns:.1}")])
                .collect::<Vec<_>>(),
        );
        table::print(
            "16-lane SHA-1 kernel against SHA-NI — ns per job, by jobs per batch",
            &["blocks/job", "jobs", "sha-ni ns/job", "16-lane ns/job"],
            &crossover
                .iter()
                .map(|r| {
                    vec![
                        r.blocks.to_string(),
                        r.jobs.to_string(),
                        format!("{:.1}", r.sha_ni),
                        format!("{:.1}", r.wide),
                    ]
                })
                .collect::<Vec<_>>(),
        );
    }
    let crossovers: Vec<(usize, usize)> = crossover
        .chunk_by(|a, b| a.blocks == b.blocks)
        .map(|rows| (rows[0].blocks, crossover_at(rows)))
        .collect();
    for (blocks, at) in &crossovers {
        println!("16-lane kernel cheaper than SHA-NI from {at} jobs of {blocks} block(s)");
    }

    // 4: end-to-end relay verification, backend forced per run.
    let (flows, exchanges, bundle_msgs) = if quick { (8, 2, 4) } else { (64, 4, 8) };
    let cfg = Config::new(Algorithm::Sha256).with_chain_len(64);
    let traffic: Vec<FlowTraffic> = (0..flows)
        .map(|i| generate_flow(i, cfg, exchanges, bundle_msgs))
        .collect();
    let mut e2e_rows = Vec::new();
    let mut e2e: Vec<(BackendKind, f64)> = Vec::new();
    for &kind in &backends {
        let rate = e2e_s2_per_sec(kind, &traffic, exchanges, bundle_msgs);
        e2e_rows.push(vec![kind.name().to_owned(), format!("{rate:.0}")]);
        e2e.push((kind, rate));
    }
    backend::force(detected).expect("detected backend is supported");
    table::print(
        "End-to-end relay S2 verification (bundled ALPHA-C, one core)",
        &["backend", "verified S2/s"],
        &e2e_rows,
    );
    let e2e_of = |kind: BackendKind| {
        e2e.iter()
            .find(|&&(k, _)| k == kind)
            .map_or(0.0, |&(_, v)| v)
    };
    let e2e_speedup = e2e_of(detected) / e2e_of(BackendKind::Scalar);
    println!("\ne2e S2/sec, detected backend ({detected}) vs scalar: {e2e_speedup:.2}x");

    // Hand-rolled JSON: stable layout, no serializer dependency needed.
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"digest_throughput\",");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  {},", alpha_bench::runtime_fields("model", 1));
    let _ = writeln!(json, "  \"digest_backend\": \"{}\",", detected.name());
    let _ = writeln!(
        json,
        "  \"udp_backend\": \"{}\",",
        alpha_transport::io::active().name()
    );
    let _ = writeln!(
        json,
        "  \"chain_storage\": \"{}\",",
        alpha_engine::chainstore::name(cfg.chain_storage)
    );
    let _ = writeln!(json, "  \"single_message_ns\": [");
    for (i, (kind, alg, len, ns)) in single.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"backend\": \"{}\", \"alg\": \"{alg}\", \"msg_bytes\": {len}, \
             \"ns_per_digest\": {ns:.1}}}{}",
            kind.name(),
            if i + 1 == single.len() { "" } else { "," }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"one_shot_ns\": [");
    for (i, (kind, alg, what, ns)) in one_shot.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"backend\": \"{}\", \"alg\": \"{alg}\", \"call\": \"{what}\", \
             \"ns\": {ns:.1}}}{}",
            kind.name(),
            if i + 1 == one_shot.len() { "" } else { "," }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"batched_mb_per_sec\": [");
    for (i, (kind, alg, len, mbs)) in batched.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"backend\": \"{}\", \"alg\": \"{alg}\", \"msg_bytes\": {len}, \
             \"mb_per_sec\": {mbs:.1}}}{}",
            kind.name(),
            if i + 1 == batched.len() { "" } else { "," }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"batched_sha256_1k_speedup\": {{\"lanes4\": {lanes4_x:.4}, \"sha_ni\": {shani_x:.4}}},"
    );
    let _ = writeln!(json, "  \"e2e_relay\": [");
    for (i, (kind, rate)) in e2e.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"backend\": \"{}\", \"s2_per_sec\": {rate:.1}}}{}",
            kind.name(),
            if i + 1 == e2e.len() { "" } else { "," }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"e2e_speedup_vs_scalar\": {e2e_speedup:.4},");
    let _ = writeln!(json, "  \"sha1_batch_ns_per_block\": [");
    for (i, (kind, call, ns)) in batch_path.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"backend\": \"{}\", \"call\": \"{call}\", \"ns_per_block\": {ns:.2}}}{}",
            kind.name(),
            if i + 1 == batch_path.len() { "" } else { "," }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"wide_kernel\": {wide},");
    let _ = writeln!(
        json,
        "  \"kernel_ns_per_block\": {{{}}},",
        kernel_ns
            .iter()
            .map(|(kernel, ns)| format!("\"{kernel}\": {ns:.2}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(json, "  \"wide_crossover\": {{");
    let _ = writeln!(
        json,
        "    \"cheaper_from_jobs\": [{}],",
        crossovers
            .iter()
            .map(|(blocks, at)| format!("{{\"blocks_per_job\": {blocks}, \"jobs\": {at}}}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(json, "    \"rows\": [");
    for (i, r) in crossover.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{\"blocks_per_job\": {}, \"jobs\": {}, \"sha_ni_ns_per_job\": {:.1},              \"wide_ns_per_job\": {:.1}}}{}",
            r.blocks,
            r.jobs,
            r.sha_ni,
            r.wide,
            if i + 1 == crossover.len() { "" } else { "," }
        );
    }
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");
    alpha_bench::write_artefact("BENCH_digest.json", &json);

    if !quick {
        assert!(
            lanes4_x >= 1.3,
            "portable 4-lane batched SHA-256 must be >=1.3x scalar, got {lanes4_x:.2}x"
        );
        if BackendKind::ShaNi.is_supported() {
            assert!(
                shani_x >= 2.0,
                "SHA-NI batched SHA-256 must be >=2x scalar, got {shani_x:.2}x"
            );
        }
    }
}

//! Kernel fuzzer: the SHA-1 compression kernels, and every batch entry
//! point that reaches them, against the scalar reference on seeded
//! random inputs.
//!
//! - The kernels themselves (`backend::kernels`), from random chaining
//!   states — mid-message values, not only the IV — over random block
//!   runs: SHA-NI with one stream and with two, and the 16-lane AVX-512
//!   kernel with ragged runs (each lane 0..=300 B rounded down to whole
//!   blocks, so some lanes stop early and some never start).
//! - Every batch width 1..=40 through `digest_batch`, `mac_parts_batch`,
//!   `MerkleTree::from_messages` and `merkle::keyed_roots`, messages of
//!   0..=300 B, so widths cross the 16-lane kernel's job threshold, its
//!   16-job chunks and the narrow paths' 4-job ones.
//!
//! On a CPU without SHA-NI or AVX-512F/BW the kernel cases it cannot run
//! are skipped with a message (the batch cases still run, on whatever
//! path the CPU takes). Tier-1 runs [`fixed_seed_sweep`]; ci.sh also runs
//! the ignored [`long_run`] in release, time-boxed.

use alpha_crypto::backend::{self, kernels, BackendKind};
use alpha_crypto::merkle::{self, KeyedLeaf, MerkleTree, Siblings};
use alpha_crypto::{Algorithm, Digest};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const ALG: Algorithm = Algorithm::Sha1;

/// Longest message or lane run, in bytes.
const MAX_LEN: usize = 300;

fn bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

fn state(rng: &mut StdRng) -> [u32; 5] {
    core::array::from_fn(|_| rng.next_u32())
}

/// A run of whole blocks, 0..=`MAX_LEN` bytes rounded down.
fn run(rng: &mut StdRng) -> Vec<u8> {
    let len = rng.gen_range(0..=MAX_LEN) / 64 * 64;
    bytes(rng, len)
}

/// The scalar digest of one message: the reference for the batch cases.
fn scalar_hash(data: &[u8]) -> Digest {
    let mut out = [Digest::zero(ALG)];
    backend::digest_batch_using(BackendKind::Scalar, ALG, &[data], &mut out);
    out[0]
}

fn scalar_concat(parts: &[&[u8]]) -> Digest {
    scalar_hash(&parts.concat())
}

/// SHA-NI with one stream and with two, from random states over random
/// equal-length runs, against scalar per stream.
fn sha_ni_cases(rng: &mut StdRng, cases: usize) {
    if !kernels::sha_ni() {
        eprintln!("skipping the SHA-NI kernel cases: no SHA-NI on this CPU");
        return;
    }
    for case in 0..cases {
        let len = rng.gen_range(0..=MAX_LEN) / 64 * 64;
        let data = [bytes(rng, len), bytes(rng, len)];
        let start = [state(rng), state(rng)];
        let mut want = start;
        for (s, d) in want.iter_mut().zip(&data) {
            kernels::sha1_scalar(s, d);
        }
        let mut one = [start[0]];
        kernels::sha1_sha_ni(&mut one, [&data[0]]);
        assert_eq!(one[0], want[0], "SHA-NI N = 1, case {case}, {len} B");
        let mut two = start;
        kernels::sha1_sha_ni(&mut two, [&data[0], &data[1]]);
        assert_eq!(two, want, "SHA-NI N = 2, case {case}, {len} B");
    }
}

/// The 16-lane kernel from random states over ragged runs, against
/// scalar per lane.
fn wide_cases(rng: &mut StdRng, cases: usize) {
    if !kernels::wide() {
        eprintln!("skipping the 16-lane kernel cases: no AVX-512F/BW on this CPU");
        return;
    }
    for case in 0..cases {
        let data: Vec<Vec<u8>> = (0..kernels::WIDE).map(|_| run(rng)).collect();
        let start: [[u32; 5]; kernels::WIDE] = core::array::from_fn(|_| state(rng));
        // The kernel's layout is word-major: `rows[i][l]` is lane l's word i.
        let mut rows: [[u32; kernels::WIDE]; 5] = core::array::from_fn(|i| start.map(|s| s[i]));
        kernels::sha1_wide(&mut rows, core::array::from_fn(|l| &data[l][..]));
        for (l, (mut want, d)) in start.into_iter().zip(&data).enumerate() {
            kernels::sha1_scalar(&mut want, d);
            let got: [u32; 5] = core::array::from_fn(|i| rows[i][l]);
            assert_eq!(got, want, "16 lanes, case {case}, lane {l}, {} B", d.len());
        }
    }
}

/// `width` messages of 0..=`MAX_LEN` bytes.
fn messages(rng: &mut StdRng, width: usize) -> Vec<Vec<u8>> {
    (0..width)
        .map(|_| {
            let len = rng.gen_range(0..=MAX_LEN);
            bytes(rng, len)
        })
        .collect()
}

fn digest_batch_case(rng: &mut StdRng, width: usize) {
    let msgs = messages(rng, width);
    let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
    let mut got = vec![Digest::zero(ALG); width];
    backend::digest_batch(ALG, &refs, &mut got);
    for (k, (msg, got)) in msgs.iter().zip(&got).enumerate() {
        assert_eq!(
            *got,
            scalar_hash(msg),
            "digest_batch width {width}, item {k}"
        );
    }
}

fn mac_batch_case(rng: &mut StdRng, width: usize) {
    // `seq | payload`, each under its own chain-element-sized key.
    let keys: Vec<Vec<u8>> = (0..width).map(|_| bytes(rng, ALG.digest_len())).collect();
    let seqs: Vec<[u8; 4]> = (0..width).map(|_| rng.next_u32().to_be_bytes()).collect();
    let msgs = messages(rng, width);
    let key_refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
    let parts: Vec<[&[u8]; 2]> = seqs.iter().zip(&msgs).map(|(s, m)| [&s[..], m]).collect();
    let part_refs: Vec<&[&[u8]]> = parts.iter().map(|p| &p[..]).collect();
    let mut got = vec![Digest::zero(ALG); width];
    backend::mac_parts_batch(ALG, &key_refs, &part_refs, &mut got);
    for k in 0..width {
        // RFC 2104 over the scalar digest.
        let mut ipad = [0x36u8; 64];
        let mut opad = [0x5cu8; 64];
        for (b, key) in keys[k].iter().enumerate() {
            ipad[b] ^= key;
            opad[b] ^= key;
        }
        let inner = scalar_concat(&[&ipad, &seqs[k], &msgs[k]]);
        let want = scalar_concat(&[&opad, inner.as_bytes()]);
        assert_eq!(got[k], want, "mac_parts_batch width {width}, item {k}");
    }
}

/// Every node of a tree over `msgs`, level by level, in scalar.
fn scalar_levels(msgs: &[Vec<u8>]) -> Vec<Vec<Digest>> {
    let mut level: Vec<Digest> = msgs.iter().map(|m| scalar_hash(m)).collect();
    level.resize(msgs.len().next_power_of_two(), Digest::zero(ALG));
    let mut levels = vec![level];
    while levels[levels.len() - 1].len() > 1 {
        let below = &levels[levels.len() - 1];
        let above = below
            .chunks_exact(2)
            .map(|pair| scalar_concat(&[pair[0].as_bytes(), pair[1].as_bytes()]))
            .collect();
        levels.push(above);
    }
    levels
}

fn merkle_case(rng: &mut StdRng, width: usize) {
    let msgs = messages(rng, width);
    let levels = scalar_levels(&msgs);
    let tree = MerkleTree::from_messages(ALG, &msgs);
    for (j, leaf) in levels[0][..width].iter().enumerate() {
        assert_eq!(tree.leaf(j), *leaf, "from_messages n = {width}, leaf {j}");
    }
    let root = levels[levels.len() - 1][0];
    assert_eq!(tree.root(), root, "from_messages n = {width}, root");
    let key = scalar_hash(&bytes(rng, 8));
    let top = if width == 1 {
        scalar_concat(&[key.as_bytes(), root.as_bytes()])
    } else {
        let [left, right] = [levels[levels.len() - 2][0], levels[levels.len() - 2][1]];
        scalar_concat(&[key.as_bytes(), left.as_bytes(), right.as_bytes()])
    };
    assert_eq!(
        tree.keyed_root(&key),
        top,
        "from_messages n = {width}, keyed root"
    );
}

/// The keyed root of one S2, walked in scalar: `key | left | right` at
/// the top, `key | leaf` for a single-leaf tree.
fn scalar_keyed_root(key: &Digest, message: &[u8], mut index: usize, path: &[Digest]) -> Digest {
    let mut node = scalar_hash(message);
    if path.is_empty() {
        return scalar_concat(&[key.as_bytes(), node.as_bytes()]);
    }
    for (level, sib) in path.iter().enumerate() {
        let (l, r) = if index.is_multiple_of(2) {
            (node, *sib)
        } else {
            (*sib, node)
        };
        let top: &[u8] = if level + 1 == path.len() {
            key.as_bytes()
        } else {
            &[]
        };
        node = scalar_concat(&[top, l.as_bytes(), r.as_bytes()]);
        index >>= 1;
    }
    node
}

/// `width` S2s drawn from two trees (in order, shuffled and duplicated
/// alike), a quarter of runs with one message byte flipped.
fn keyed_roots_case(rng: &mut StdRng, width: usize) {
    let trees: Vec<(Digest, Vec<Vec<u8>>, MerkleTree)> = (0..2)
        .map(|_| {
            let leaves = rng.gen_range(1..=48usize);
            let msgs = messages(rng, leaves);
            let tree = MerkleTree::from_messages(ALG, &msgs);
            (scalar_hash(&bytes(rng, 8)), msgs, tree)
        })
        .collect();
    let mut picks: Vec<(usize, usize, Vec<u8>, Vec<Digest>)> = (0..width)
        .map(|k| {
            let t = usize::from(rng.gen_range(0..4) == 0);
            let (_, msgs, tree) = &trees[t];
            let j = if rng.gen() {
                k % msgs.len()
            } else {
                rng.gen_range(0..msgs.len())
            };
            (t, j, msgs[j].clone(), tree.auth_path(j))
        })
        .collect();
    if rng.gen_range(0..4) == 0 {
        let k = rng.gen_range(0..width);
        match picks[k].2.first_mut() {
            Some(byte) => *byte ^= 1,
            None => picks[k].2.push(0),
        }
    }
    let items: Vec<KeyedLeaf<'_>> = picks
        .iter()
        .map(|(t, j, msg, path)| KeyedLeaf {
            key: &trees[*t].0,
            message: msg,
            index: *j,
            path: Siblings::from(path.as_slice()),
        })
        .collect();
    let mut got = vec![Digest::zero(ALG); width];
    merkle::keyed_roots(ALG, &items, &mut got);
    for (k, (t, j, msg, path)) in picks.iter().enumerate() {
        let want = scalar_keyed_root(&trees[*t].0, msg, *j, path);
        assert_eq!(got[k], want, "keyed_roots width {width}, item {k}");
    }
}

/// One pass over every case at `seed`.
fn sweep(seed: u64, kernel_cases: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    sha_ni_cases(&mut rng, kernel_cases);
    wide_cases(&mut rng, kernel_cases);
    for width in 1..=40 {
        digest_batch_case(&mut rng, width);
        mac_batch_case(&mut rng, width);
        merkle_case(&mut rng, width);
        keyed_roots_case(&mut rng, width);
    }
}

#[test]
fn fixed_seed_sweep() {
    sweep(0x5a1_f022, 200);
}

/// Four hundred seeds of the sweep, five times the kernel cases each (ci.sh
/// runs this in release, time-boxed).
#[test]
#[ignore = "long run: ci.sh runs it in release"]
fn long_run() {
    for seed in 0..400 {
        sweep(0x1_0000 + seed, 1_000);
    }
}

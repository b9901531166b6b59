//! What an S1's claimed leaf count costs the verifier that answers it.
//! Whether the S1 tells the truth about its bundle only shows once its
//! S2s arrive, so an authentic S1 — a valid chain element — may claim a
//! Merkle root over `MAX_LEAVES` = 2²⁴ messages and be answered. The
//! verifier then keeps one received flag per claimed message: a bitmap
//! of 2 MiB, where a flag per byte was 16 MiB.

mod common;

use alpha_core::{Association, Config, Mode, Timestamp};
use alpha_crypto::Algorithm;
use alpha_wire::limits::MAX_LEAVES;
use alpha_wire::{Body, PreSignature};
use common::CountingAlloc;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The bitmap, plus 5 % for the A1 and the response around it.
const BUDGET: usize = (MAX_LEAVES as usize / 8) * 105 / 100;

#[test]
fn an_s1_claiming_max_leaves_costs_the_verifier_a_bitmap() {
    let cfg = Config::new(Algorithm::Sha1).with_chain_len(64);
    let mut rng = StdRng::seed_from_u64(10);
    let (mut alice, mut bob) = Association::pair(cfg, 4, &mut rng);
    let now = Timestamp::ZERO;
    let mut s1 = alice
        .sign_batch(&[b"one", b"two"], Mode::Merkle, now)
        .expect("sign");
    let Body::S1 {
        presig: PreSignature::MerkleRoot { leaves, .. },
        ..
    } = &mut s1.body
    else {
        panic!("an ALPHA-M S1 carries one root");
    };
    *leaves = MAX_LEAVES;
    let (answered, _, bytes) = common::allocations(|| bob.handle(&s1, now, &mut rng));
    let a1 = answered.expect("an authentic S1 is answered").packets;
    assert_eq!(a1.len(), 1, "one A1");
    assert!(
        bytes <= BUDGET,
        "answering the claim allocated {bytes} B, budget {BUDGET} B"
    );
}

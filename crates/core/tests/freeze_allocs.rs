//! Freezing writes the record and nothing else: `FrozenAssociation::
//! encode_into` into a buffer with `encoded_len()` bytes to spare makes no
//! allocation — no temporary for a buffered exchange's A1 or its received
//! bitmap, no growth — and writes exactly `encoded_len()` bytes, for every
//! chain layout, mode and reliability, idle or asleep mid-bundle.

mod common;

use alpha_core::{
    Association, ChainStorage, Config, FrozenAssociation, Mode, Reliability, Timestamp,
};
use alpha_crypto::Algorithm;
use common::CountingAlloc;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Records of both ends of one exchange of `mode`: the verifier asleep
/// before any S2 and after the first, and both ends once it is done.
fn records(cfg: Config, mode: Mode) -> Vec<FrozenAssociation> {
    let (now, mut rng) = (Timestamp::ZERO, StdRng::seed_from_u64(11));
    let (mut alice, mut bob) = Association::pair(cfg, 3, &mut rng);
    let msgs: [&[u8]; 5] = [b"m0", b"m1", b"m2", b"m3", b"m4"];
    let msgs = if mode == Mode::Base {
        &msgs[..1]
    } else {
        &msgs
    };
    let s1 = alice.sign_batch(msgs, mode, now).expect("sign");
    let a1 = bob
        .handle(&s1, now, &mut rng)
        .expect("S1")
        .packet()
        .expect("A1");
    let mut frozen = vec![bob.freeze().expect("verifier freezes")];
    let s2s = alice.handle(&a1, now, &mut rng).expect("A1").packets;
    for (i, s2) in s2s.iter().enumerate() {
        for a2 in bob.handle(s2, now, &mut rng).expect("S2").packets {
            alice.handle(&a2, now, &mut rng).expect("A2");
        }
        if i == 0 {
            frozen.push(bob.freeze().expect("verifier freezes"));
        }
    }
    frozen.push(bob.freeze().expect("verifier freezes"));
    frozen.push(alice.freeze().expect("idle signer freezes"));
    frozen
}

#[test]
fn encode_into_a_presized_buffer_allocates_nothing() {
    let modes = [
        Mode::Base,
        Mode::Cumulative,
        Mode::Merkle,
        Mode::CumulativeMerkle { leaves_per_tree: 2 },
    ];
    let mut checked = 0;
    for storage in [ChainStorage::Full, ChainStorage::Sqrt] {
        for reliability in [Reliability::Unreliable, Reliability::Reliable] {
            for mode in modes {
                let cfg = Config::new(Algorithm::Sha1)
                    .with_chain_len(64)
                    .with_chain_storage(storage)
                    .with_reliability(reliability);
                for (n, frozen) in records(cfg, mode).iter().enumerate() {
                    let what = format!("{storage:?} {reliability:?} {mode:?} record {n}");
                    let len = frozen.encoded_len();
                    let mut buf = Vec::with_capacity(len);
                    let capacity = buf.capacity();
                    let ((), allocs, _) = common::allocations(|| frozen.encode_into(&mut buf));
                    assert_eq!(allocs, 0, "{what}");
                    assert_eq!((buf.len(), buf.capacity()), (len, capacity), "{what}");
                    assert!(FrozenAssociation::decode(&buf).is_some(), "{what}");
                    checked += 1;
                }
            }
        }
    }
    assert_eq!(checked, 2 * 2 * 4 * 4);
}

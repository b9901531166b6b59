//! The hibernation record, pinned byte for byte: four sleeping
//! associations — Base unreliable after an exchange, ALPHA-C reliable
//! with a flat pre-(n)ack, ALPHA-M reliable mid-bundle with an AMT, and
//! an ALPHA-C + ALPHA-M forest behind a superseded exchange — freeze to
//! exactly the bytes below (codec version 3), and each record decodes
//! and re-encodes to itself. A refactor of the codec or of the state it
//! freezes that moves one byte fails here.

use alpha_core::{
    Association, ChainStorage, Config, FrozenAssociation, Mode, Reliability, Timestamp,
};
use alpha_crypto::Algorithm;
use alpha_wire::Packet;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn ms(t: u64) -> Timestamp {
    Timestamp::from_millis(t)
}

/// Run one exchange of `msgs` from `alice` to `bob`: S1 at `t`, A1, then
/// the first `delivered` S2s (and any verdict A2 back) at `t + 2` ms.
fn exchange(
    alice: &mut Association,
    bob: &mut Association,
    msgs: &[&[u8]],
    mode: Mode,
    delivered: usize,
    t: u64,
    rng: &mut StdRng,
) {
    let s1 = alice.sign_batch(msgs, mode, ms(t)).expect("sign");
    let a1 = bob.handle(&s1, ms(t + 1), rng).expect("S1").packets;
    let s2s: Vec<Packet> = a1
        .iter()
        .flat_map(|a1| alice.handle(a1, ms(t + 1), rng).expect("A1").packets)
        .collect();
    for s2 in &s2s[..delivered] {
        for a2 in bob.handle(s2, ms(t + 2), rng).expect("S2").packets {
            alice.handle(&a2, ms(t + 2), rng).expect("A2");
        }
    }
}

/// The verifier `bob` of a fresh pair under `cfg`, frozen after `run`.
fn sleeping(
    cfg: Config,
    seed: u64,
    run: impl FnOnce(&mut Association, &mut Association, &mut StdRng),
) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut alice, mut bob) = Association::pair(cfg, 0x00A1_FA00 + seed, &mut rng);
    run(&mut alice, &mut bob, &mut rng);
    bob.freeze().expect("the verifier freezes").encode()
}

fn base_unreliable() -> Vec<u8> {
    let cfg = Config::new(Algorithm::Sha1)
        .with_chain_len(64)
        .with_chain_storage(ChainStorage::Sqrt);
    sleeping(cfg, 1, |alice, bob, rng| {
        exchange(alice, bob, &[b"base"], Mode::Base, 1, 5, rng);
    })
}

fn c_reliable_flat() -> Vec<u8> {
    let cfg = Config::new(Algorithm::Sha256)
        .with_chain_len(32)
        .with_chain_storage(ChainStorage::Dyadic)
        .with_reliability(Reliability::Reliable);
    sleeping(cfg, 2, |alice, bob, rng| {
        let msgs: [&[u8]; 3] = [b"c0", b"c1", b"c2"];
        exchange(alice, bob, &msgs, Mode::Cumulative, 3, 7, rng);
    })
}

fn m_reliable_amt_mid_bundle() -> Vec<u8> {
    let cfg = Config::new(Algorithm::Sha1)
        .with_chain_len(16)
        .with_reliability(Reliability::Reliable);
    sleeping(cfg, 3, |alice, bob, rng| {
        let msgs: [&[u8]; 4] = [b"m0", b"m1", b"m2", b"m3"];
        exchange(alice, bob, &msgs, Mode::Merkle, 1, 11, rng);
    })
}

fn forest() -> Vec<u8> {
    let cfg = Config::new(Algorithm::MmoAes).with_chain_len(16);
    sleeping(cfg, 4, |alice, bob, rng| {
        exchange(alice, bob, &[b"first"], Mode::Base, 1, 13, rng);
        let msgs: [&[u8]; 5] = [b"f0", b"f1", b"f2", b"f3", b"f4"];
        let mode = Mode::CumulativeMerkle { leaves_per_tree: 2 };
        exchange(alice, bob, &msgs, mode, 2, 17, rng);
    })
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A case's name, how to put its association to sleep, and its record.
type Golden = (&'static str, fn() -> Vec<u8>, &'static str);

const GOLDEN: [Golden; 4] = [
    (
        "base unreliable",
        base_unreliable,
        concat!(
            "03000000000000a1fa01010000000000000040000000000000003fe92016aa8cf4d274b09f72290e",
            "4d6aa076fb4315026616d731f36a92328f878a5528dd755d0e1712ff1b5985c270e54f02cfaec1df",
            "8da1f729c4a9772c0000000000000040dd73ee66b4ede7442bf04168589219b29daad1c300000000",
            "00030d40010000000000000040000000000000003d80c3df86b76107916602cd8f6cf609803bf443",
            "eb02e680ed3599f949349921d1433d9b128121bd06e255762f0ba36fc8a32ca71ba7fdc07d8a03a7",
            "053f000000000000003e7a22fb0faeb1edb07b6bb3789f8855b7a9e0d8bc0101000000000000003f",
            "b98eab5a9d6460c767861c4ae60c90e43752eb1a0000000001521e070363b0fedf09d5b32262605f",
            "78229b20870000002aa1fa0102010000000000a1fa01000000000000003fca3751f8def4c82d2fc7",
            "8b1661a5a5a4ed95c3ba00000000000000003e239fc9f7342c89470575f0bb9b025b51bb7da00700",
            "00000001010000000000001770010000000000001b58000000000000000000",
        ),
    ),
    (
        "ALPHA-C reliable, flat",
        c_reliable_flat,
        concat!(
            "03010000000000a1fa02020000000000000020000000000000001f938287878124468597e2c8bd85",
            "c0c192c2e9d322cbc1a24f60bbe43a545b6685000000000000000020e8621da9d9e8d70dd95522f6",
            "73c4ed13c1949f591743589251b917cf1ef24bed0000000000030d40020000000000000020000000",
            "000000001d177b7b108617f048338d9280873264d3199b22a39a6c03420cf36d13e20a1a3a000000",
            "00000000001e0455e8afc4acc855986d811465f37791a808de70ec0794f34a8d131abb9f702d0101",
            "000000000000001fe87bc3c220b4d36d30aa924efdc38238a650e877309ebe96397028fcbc7d5208",
            "0000000003ad8b1a6a635f4a1c1f621fd2c84d2ec9a6500e65299d1bcc43b08e44ee6347fec06fb7",
            "911aba412df05f1f55c1a5ddbe252e40ef519935abef25295a92462f944563afac5b36ff495e5081",
            "9e7af26f36876a55906f645f366e00fd53ef06696000000076a1fa0102020000000000a1fa020000",
            "00000000001fab4f09f3b93fc21d1b997afd762c4efce551129cd097974ed6efc6379de981ab01c5",
            "82541c2191efc91ae350263473e73433cd79b0674f61199e1fff2804827717f18ed74b9330ca6536",
            "ab3bf705c8acfcf9c70bc223d311132e5eed9f914aa044000000000000001ed97282636224d39147",
            "be448455394aea2f284b00b698c531e3960267949e4b4a01c582541c2191efc91ae350263473e734",
            "33cd79b0674f61199e1fff2804827717f18ed74b9330ca6536ab3bf705c8acfcf9c70bc223d31113",
            "2e5eed9f914aa044f4384d25ce7129ab0a7cdab5a39d91b92e07eba5d0294765fd72faae4a000064",
            "0100000003070000000000001f40010000000000002328000000000000000000",
        ),
    ),
    (
        "ALPHA-M reliable, AMT mid-bundle",
        m_reliable_amt_mid_bundle,
        concat!(
            "03000000000000a1fa03000000000000000010000000000000000f04b7be4837891824fa80ed89e6",
            "c8bca1d172ec33000000000000000010a10149abce13a7b22ee1cb32b40d2368733aa42700000000",
            "00030d40000000000000000010000000000000000d372dac579fc1b24f09fc51051166cbfc77bfb1",
            "9300000000000000000ee31019f506489053116d36b2ac193f16686585ee0101000000000000000f",
            "ffd7c8acdf9ce857668dfaaffef3e4a4eb45407c015615d1b371c95992460e6f0eb096fa9362e33d",
            "130000000400000042a1fa0102010000000000a1fa03000000000000000fbd9968bffda4e8bb6541",
            "d41fd27e99758ab7375802000000046eb2498b5d1c6212a186d6819942ffbfa54afc320000000000",
            "00000e169ea4203ae4b7b079464a27be6c42e4663374370200000008c6f0156e105b941d2da3ff94",
            "74eb741d6c0d11123223bfe5e3b9c53a14b460b555339be063f5ac99fe616f5016d2e682df30f6ce",
            "36e4d784fa94c6a41425170eaf4aaf1d9790fce9890e4d404a1d11fb707620826ba9099804d63dda",
            "ada823e8b27ab380e755702d5aa275d696987c78a6cf48112c31150329b2d1009f0712db00000004",
            "010000000000002ee00100000000000032c8000000000000000000",
        ),
    ),
    (
        "forest behind a superseded exchange",
        forest,
        concat!(
            "03020000000000a1fa04000000000000000010000000000000000ff47442b556c7976734debe3795",
            "6917870000000000000000104420fde78c97085e59a65883e2dd334e0000000000030d4000000000",
            "0000000010000000000000000b3ce09b5fdc78e57239a2d1baa1e60b7900000000000000000c5cef",
            "c14c3f5c466a4454a059c619001e0101000000000000000d5d35eb64d0e4aa426e07f677aa3b2cff",
            "02000000032da5fc58f57e8929a2e128bfa97d51a700000002102adeb3f9f607265c38ed1b3fab44",
            "2a000000020033c44f4cb2aeac2db9da013b6e908e000000010000000200000026a1fa0102030000",
            "000000a1fa04000000000000000dcda201ff6e87c59459802f5c9fea918600000000000000000c65",
            "aa177ed616c1875af5a494a89345480000000005030000000000004650010000000000004a380000",
            "00000000000001000000000000000f6cab7084b6e87b5c4cec95bd103d824c00000000013a9a783d",
            "90e2e2dcf1737568a3c4277f00000026a1fa0102030000000000a1fa04000000000000000f5a42c1",
            "30fcc3dcbcfa764da11e73cfe700000000000000000e797b31d039f615d4a99d7c886465f3260000",
            "0000010100000000000036b0010000000000003a980000000000000000",
        ),
    ),
];

#[test]
fn sleeping_associations_encode_to_their_golden_records() {
    for (what, record, golden) in GOLDEN {
        let bytes = record();
        assert_eq!(hex(&bytes), golden, "{what}");
        let frozen = FrozenAssociation::decode(&bytes).expect("a golden record decodes");
        assert_eq!(frozen.encoded_len(), bytes.len(), "{what}");
        assert_eq!(
            frozen.encode(),
            bytes,
            "{what}: decode → encode is the identity"
        );
    }
}

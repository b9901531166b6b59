//! The decoder never allocates: `bundle::split` + `PacketView::parse`
//! make zero heap allocations for every packet type, whatever the packet
//! claims to carry. A relay decodes before it knows the sender, so a
//! decode that allocated per claimed item (1024 AMT disclosures in one
//! A2) would hand strangers the allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use alpha_crypto::amt::{AmtDisclosure, SECRET_LEN};
use alpha_crypto::{Algorithm, Digest};
use alpha_wire::limits::{MAX_BUNDLE, MAX_DISCLOSURES};
use alpha_wire::{
    bundle, A2Disclosure, AckCommit, Body, Handshake, HandshakeAuth, HandshakeRole, Packet,
    PacketView, PreSignature, TreeDescriptor,
};

/// System allocator that counts the calling thread's `alloc`s (the
/// default `realloc` goes through `alloc`). Per thread, so the test
/// harness's own threads cannot disturb the count.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: both methods forward to `System` with the caller's own
// arguments; the bookkeeping is a const-initialised thread-local `Cell`
// with no destructor, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Split `frame`, decode every slice, and return how many packets came
/// out and how many allocations that took.
fn decode(frame: &[u8]) -> (usize, u64) {
    let before = ALLOCS.with(Cell::get);
    let mut slices: [&[u8]; MAX_BUNDLE] = [&[]; MAX_BUNDLE];
    let n = bundle::split(frame, &mut slices).expect("framing");
    for s in &slices[..n] {
        std::hint::black_box(PacketView::parse(s).expect("own encoding"));
    }
    (n, ALLOCS.with(Cell::get) - before)
}

#[test]
fn split_and_view_parse_never_allocate() {
    let alg = Algorithm::Sha1;
    let d = |s: &str| -> Digest { alg.hash(s.as_bytes()) };
    let pkt = |body| Packet {
        assoc_id: 7,
        alg,
        chain_index: 9,
        body,
    };
    let s1 = |presig| {
        pkt(Body::S1 {
            element: d("s"),
            presig,
        })
    };
    let a1 = |commit| {
        pkt(Body::A1 {
            element: d("a"),
            commit,
        })
    };
    let a2 = |disclosure| {
        pkt(Body::A2 {
            element: d("a"),
            disclosure,
        })
    };
    let tree = |leaves| TreeDescriptor {
        root: d("t"),
        leaves,
    };
    let small = [
        s1(PreSignature::Cumulative(vec![d("m0"), d("m1"), d("m2")])),
        s1(PreSignature::MerkleRoot {
            root: d("r"),
            leaves: 32,
        }),
        s1(PreSignature::MerkleForest(vec![tree(4), tree(8), tree(2)])),
        a1(AckCommit::None),
        a1(AckCommit::Flat {
            pre_ack: d("ack"),
            pre_nack: d("nack"),
        }),
        a1(AckCommit::Amt {
            root: d("amt"),
            leaves: 32,
        }),
        pkt(Body::S2 {
            key: d("k"),
            seq: 3,
            path: (0..5).map(|i| d(&format!("p{i}"))).collect(),
            payload: vec![0xAB; 1024],
        }),
        a2(A2Disclosure::Flat {
            ack: true,
            secret: [1; SECRET_LEN],
        }),
        pkt(Body::Handshake(Handshake {
            role: HandshakeRole::Init,
            sig_anchor: d("sa"),
            sig_anchor_index: 1024,
            ack_anchor: d("aa"),
            ack_anchor_index: 1024,
            auth: Some(HandshakeAuth {
                scheme: 1,
                public_key: vec![4; 64],
                signature: vec![5; 64],
            }),
        })),
    ];
    // The most a stranger can make one A2 claim: every disclosure slot,
    // each with its own path.
    let amt = a2(A2Disclosure::Amt(
        (0..MAX_DISCLOSURES as u32)
            .map(|i| AmtDisclosure {
                packet_index: i,
                ack: i % 2 == 0,
                secret: [i as u8; SECRET_LEN],
                path: vec![d("sibling")],
            })
            .collect(),
    ));

    for p in small.iter().chain([&amt]) {
        assert_eq!(decode(&p.emit()), (1, 0), "{:?}", p.packet_type());
    }
    let frame = bundle::emit(&small).expect("nine small packets fit one bundle");
    assert_eq!(decode(&frame), (small.len(), 0), "bundle");
}

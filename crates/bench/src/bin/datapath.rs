//! Datapath allocation bench — proves the zero-copy pooled relay path
//! allocates at least 2x less per forwarded S2 than the seed datapath.
//!
//! Two replays of the same pre-generated wire trace (full S1/A1/S2
//! ping-pong per exchange, Base mode, one packet per datagram):
//!
//! * **legacy** — the seed shape: `bundle::parse` into owned `Packet`s
//!   (heap payload + auth path per packet), `Relay::observe` cloning the
//!   verified payload into a `RelayEvent`, surviving packets re-emitted
//!   into a fresh `Vec<u8>`.
//! * **pooled** — `EngineCore::handle_datagram`: borrowed `PacketView`
//!   decode, slice-level verify, re-emit into a recycled `FramePool`
//!   frame; the only payload copy is the verified-extraction one.
//!
//! Each trace is split in half: the first half warms relay state and the
//! frame pool (unmeasured), the second half is the measured steady
//! state. A counting `#[global_allocator]` attributes every heap
//! allocation in the measured region; the headline number is
//! allocations per forwarded S2 for each path, plus packet throughput.
//!
//! Output: a table on stdout and `BENCH_datapath.json`. `--quick` runs a
//! reduced trace as a CI smoke test (same assertions, same JSON).

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use alpha_bench::table;
use alpha_core::bootstrap::{self, AuthRequirement};
use alpha_core::{Config, Relay, RelayConfig, RelayDecision, RelayEvent, Timestamp};
use alpha_crypto::Algorithm;
use alpha_engine::{EngineConfig, EngineCore};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Counts every heap allocation (alloc + realloc) passing through the
/// global allocator. Frees are not interesting here: the claim under
/// test is about allocator pressure on the hot path.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_now() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// One flow's pre-generated traffic, in wire order, tagged with the
/// source address of each datagram.
struct FlowTraffic {
    client: SocketAddr,
    server: SocketAddr,
    handshake: Vec<(SocketAddr, Vec<u8>)>,
    frames: Vec<(SocketAddr, Vec<u8>)>,
}

fn flow_addrs(i: usize) -> (SocketAddr, SocketAddr) {
    let ip = [10u8, 1, (i >> 8) as u8, i as u8];
    (
        SocketAddr::from((ip, 40_000)),
        SocketAddr::from((ip, 50_000)),
    )
}

fn generate_flow(i: usize, cfg: Config, exchanges: usize) -> FlowTraffic {
    let (client_addr, server_addr) = flow_addrs(i);
    let mut rng = StdRng::seed_from_u64(0xda7a + i as u64);
    let payload = format!("datapath flow {i} payload {}", "x".repeat(96)).into_bytes();

    let (hs, hs1) = bootstrap::initiate(cfg, i as u64, None, &mut rng);
    let (mut server, hs2, _) = bootstrap::respond(cfg, &hs1, None, AuthRequirement::None, &mut rng)
        .expect("bootstrap respond");
    let (mut client, _) = hs
        .complete(&hs2, AuthRequirement::None)
        .expect("bootstrap complete");
    let handshake = vec![(client_addr, hs1.emit()), (server_addr, hs2.emit())];

    let mut frames = Vec::new();
    for x in 0..exchanges {
        let now = Timestamp::from_millis(10 + x as u64);
        let mut from_client = true;
        let mut pkt = Some(client.sign(&payload, now).expect("sign"));
        while let Some(p) = pkt {
            let from = if from_client {
                client_addr
            } else {
                server_addr
            };
            frames.push((from, p.emit()));
            let handler = if from_client {
                &mut server
            } else {
                &mut client
            };
            pkt = handler.handle(&p, now, &mut rng).expect("handle").packet();
            from_client = !from_client;
        }
    }
    FlowTraffic {
        client: client_addr,
        server: server_addr,
        handshake,
        frames,
    }
}

struct PathResult {
    allocs: u64,
    s2_forwarded: u64,
    packets: u64,
    secs: f64,
    /// Keeps the re-emitted bytes observable so the compiler cannot
    /// discard the forwarding work.
    sink: u64,
}

impl PathResult {
    fn allocs_per_s2(&self) -> f64 {
        self.allocs as f64 / self.s2_forwarded as f64
    }

    fn mpkts_per_sec(&self) -> f64 {
        self.packets as f64 / self.secs / 1e6
    }
}

/// Replay `frames` through the seed-style relay datapath: owned decode,
/// event payload clone, owned re-emit. Returns measured-region counters.
fn run_legacy(traffic: &[FlowTraffic], split: usize) -> PathResult {
    let mut relay = Relay::new(RelayConfig::default());
    let now0 = Timestamp::from_millis(1);
    for t in traffic {
        for (_, bytes) in &t.handshake {
            let pkts = alpha_wire::bundle::parse(bytes).expect("handshake parses");
            for pkt in &pkts {
                relay.observe(pkt, now0);
            }
        }
    }

    let mut sink = 0u64;
    let mut replay = |range: std::ops::Range<usize>, measured: bool| -> PathResult {
        let mut s2_forwarded = 0u64;
        let mut packets = 0u64;
        let started = Instant::now();
        let a0 = allocs_now();
        for idx in range {
            for t in traffic {
                let Some((_, bytes)) = t.frames.get(idx) else {
                    continue;
                };
                let now = Timestamp::from_millis(100 + idx as u64);
                // Seed datapath: owned parse of every inner packet.
                let pkts = alpha_wire::bundle::parse(bytes).expect("trace parses");
                let mut pass = Vec::with_capacity(pkts.len());
                for pkt in pkts {
                    packets += 1;
                    let (decision, events) = relay.observe(&pkt, now);
                    for ev in events {
                        if let RelayEvent::VerifiedPayload { payload, .. } = ev {
                            // The event cloned the payload; consume it.
                            sink += payload.len() as u64;
                            s2_forwarded += 1;
                        }
                    }
                    if matches!(decision, RelayDecision::Forward) {
                        pass.push(pkt);
                    }
                }
                if !pass.is_empty() {
                    // Seed datapath: re-emit into a fresh heap buffer.
                    let out = alpha_wire::bundle::emit(&pass).expect("re-emit");
                    sink += out.len() as u64;
                }
            }
        }
        PathResult {
            allocs: allocs_now() - a0,
            s2_forwarded,
            packets,
            secs: started.elapsed().as_secs_f64(),
            sink: if measured { sink } else { 0 },
        }
    };

    // Warm half advances relay state; measured half is steady state.
    let _warm = replay(0..split, false);
    let max_frames = traffic.iter().map(|t| t.frames.len()).max().unwrap_or(0);
    replay(split..max_frames, true)
}

/// Replay `frames` through `EngineCore::handle_datagram`: borrowed view
/// decode, slice-level relay verify, pooled-frame re-emit.
fn run_pooled(traffic: &[FlowTraffic], split: usize, cfg: Config) -> PathResult {
    let mut rng = StdRng::seed_from_u64(7);
    let mut ecfg = EngineConfig::new(cfg).with_shards(8);
    ecfg.accept_handshakes = false;
    let core = EngineCore::new(ecfg);
    for t in traffic {
        core.add_route(t.client, t.server);
    }
    let now0 = Timestamp::from_millis(1);
    for t in traffic {
        for (from, bytes) in &t.handshake {
            core.handle_datagram(*from, bytes, now0, &mut rng);
        }
    }

    let mut sink = 0u64;
    let mut replay = |range: std::ops::Range<usize>, measured: bool| -> PathResult {
        let mut s2_forwarded = 0u64;
        let mut packets = 0u64;
        let started = Instant::now();
        let a0 = allocs_now();
        for idx in range {
            for t in traffic {
                let Some((from, bytes)) = t.frames.get(idx) else {
                    continue;
                };
                let now = Timestamp::from_millis(100 + idx as u64);
                packets += 1;
                let out = core.handle_datagram(*from, bytes, now, &mut rng);
                for (_, payload) in &out.extracted {
                    sink += payload.len() as u64;
                    s2_forwarded += 1;
                }
                for (_, frame) in &out.datagrams {
                    sink += frame.len() as u64;
                }
                // Dropping `out` here returns every TX frame to the pool.
            }
        }
        PathResult {
            allocs: allocs_now() - a0,
            s2_forwarded,
            packets,
            secs: started.elapsed().as_secs_f64(),
            sink: if measured { sink } else { 0 },
        }
    };

    // Warm half advances relay state and primes the frame pool.
    let _warm = replay(0..split, false);
    let max_frames = traffic.iter().map(|t| t.frames.len()).max().unwrap_or(0);
    replay(split..max_frames, true)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (flows, exchanges) = if quick { (4, 4) } else { (32, 16) };

    let cfg = Config::new(Algorithm::Sha1).with_chain_len(2 * exchanges as u64 + 16);
    let traffic: Vec<FlowTraffic> = (0..flows)
        .map(|i| generate_flow(i, cfg, exchanges))
        .collect();
    // Every flow's trace has the same length (Base mode ping-pong), so a
    // frame-index split halves the exchanges for all flows at once.
    let max_frames = traffic.iter().map(|t| t.frames.len()).max().unwrap_or(0);
    let split = max_frames / 2;

    let legacy = run_legacy(&traffic, split);
    let pooled = run_pooled(&traffic, split, cfg);
    assert_eq!(
        legacy.s2_forwarded, pooled.s2_forwarded,
        "both paths must forward the same verified S2s"
    );
    assert!(legacy.s2_forwarded > 0, "trace must contain verified S2s");

    let ratio = legacy.allocs_per_s2() / pooled.allocs_per_s2();
    let rows = vec![
        vec![
            "legacy (owned decode + clone + re-emit)".to_string(),
            legacy.allocs.to_string(),
            legacy.s2_forwarded.to_string(),
            format!("{:.1}", legacy.allocs_per_s2()),
            format!("{:.3}", legacy.mpkts_per_sec()),
        ],
        vec![
            "pooled (borrowed views + frame pool)".to_string(),
            pooled.allocs.to_string(),
            pooled.s2_forwarded.to_string(),
            format!("{:.1}", pooled.allocs_per_s2()),
            format!("{:.3}", pooled.mpkts_per_sec()),
        ],
    ];
    table::print(
        "Datapath — heap allocations per forwarded S2 (measured steady-state half)",
        &["path", "allocs", "S2 fwd", "allocs/S2", "Mpkt/s"],
        &rows,
    );
    println!(
        "\nallocation reduction: {ratio:.2}x ({:.1} -> {:.1} allocs per forwarded S2)",
        legacy.allocs_per_s2(),
        pooled.allocs_per_s2()
    );
    let _ = legacy.sink + pooled.sink; // keep the forwarding work observable

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"datapath\",");
    let _ = writeln!(json, "  {},", alpha_bench::runtime_fields("model", 1));
    let _ = writeln!(
        json,
        "  \"digest_backend\": \"{}\",",
        alpha_crypto::backend::active().name()
    );
    let _ = writeln!(
        json,
        "  \"udp_backend\": \"{}\",",
        alpha_transport::io::active().name()
    );
    let _ = writeln!(
        json,
        "  \"chain_storage\": \"{}\",",
        alpha_bench::chain_storage_label(cfg.chain_len)
    );
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"flows\": {flows},");
    let _ = writeln!(json, "  \"exchanges_per_flow\": {exchanges},");
    let _ = writeln!(
        json,
        "  \"legacy\": {{\"allocs\": {}, \"s2_forwarded\": {}, \"allocs_per_s2\": {:.3}, \
         \"mpkts_per_sec\": {:.4}}},",
        legacy.allocs,
        legacy.s2_forwarded,
        legacy.allocs_per_s2(),
        legacy.mpkts_per_sec()
    );
    let _ = writeln!(
        json,
        "  \"pooled\": {{\"allocs\": {}, \"s2_forwarded\": {}, \"allocs_per_s2\": {:.3}, \
         \"mpkts_per_sec\": {:.4}}},",
        pooled.allocs,
        pooled.s2_forwarded,
        pooled.allocs_per_s2(),
        pooled.mpkts_per_sec()
    );
    let _ = writeln!(json, "  \"alloc_reduction_ratio\": {ratio:.4}");
    let _ = writeln!(json, "}}");
    alpha_bench::write_artefact("BENCH_datapath.json", &json);

    assert!(
        ratio >= 2.0,
        "pooled datapath must allocate >=2x less per forwarded S2, got {ratio:.2}x"
    );
}

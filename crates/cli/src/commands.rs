//! Subcommand implementations.

use std::io::Write as _;
use std::time::Duration;

use alpha_core::{Config, RelayConfig};
use alpha_pk::PrivateKey;
use alpha_sim::{
    protected_path, App, DeviceModel, LinkConfig, PacketKind, SenderApp, Simulator, Trace,
    TraceEvent,
};
use alpha_transport::{DeliverySink, HandshakeAuth, UdpHost};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::args::{ProtoOpts, SimOpts};

/// Top-level error type: every failure is a printable message.
pub type CliError = Box<dyn std::error::Error>;

/// `println!` through [`emit`], returning from the verb with the error
/// when stdout's reader has gone.
macro_rules! say {
    ($($arg:tt)*) => {
        emit(&format!("{}\n", format_args!($($arg)*)))?
    };
}

fn config_from(opts: &ProtoOpts) -> Config {
    Config::new(opts.alg)
        .with_reliability(opts.reliability)
        .with_mac_scheme(opts.mac)
        .with_chain_len(1024)
}

fn load_identity(path: &Option<String>) -> Result<Option<PrivateKey>, CliError> {
    match path {
        None => Ok(None),
        Some(p) => {
            let bytes = std::fs::read(p)?;
            let key = PrivateKey::from_bytes(&bytes)
                .ok_or_else(|| format!("{p}: not a valid identity file"))?;
            Ok(Some(key))
        }
    }
}

/// `alpha keygen`.
pub fn keygen(scheme: &str, out: &str, bits: usize) -> Result<(), CliError> {
    let mut rng = StdRng::from_entropy();
    let key = match scheme {
        "rsa" => {
            note(&format!("generating RSA-{bits} key…"));
            PrivateKey::Rsa(alpha_pk::rsa::RsaPrivateKey::generate(bits, &mut rng))
        }
        "ecdsa" => PrivateKey::Ecdsa(alpha_pk::ecdsa::EcdsaPrivateKey::generate(&mut rng)),
        other => return Err(format!("unknown scheme '{other}'").into()),
    };
    std::fs::write(out, key.to_bytes())?;
    let pk = key.as_signer().verifying_key();
    say!(
        "wrote {scheme} identity to {out} ({} key bytes, public key {} bytes)",
        key.to_bytes().len(),
        pk.to_bytes().len()
    );
    Ok(())
}

/// `alpha listen`.
pub fn listen(bind: &str, opts: &ProtoOpts, seconds: u64) -> Result<(), CliError> {
    let cfg = config_from(opts);
    let identity = load_identity(&opts.identity)?;
    say!(
        "listening on {bind} for {seconds}s ({}, {:?})",
        opts.alg,
        opts.reliability
    );
    let auth = HandshakeAuth {
        identity: identity.as_ref().map(|k| k.as_signer()),
        require_peer: opts.require_peer_auth,
    };
    let mut host = UdpHost::accept_with(cfg, bind, Duration::from_secs(seconds), auth)?;
    match host.peer_key() {
        Some(k) => say!(
            "association established; peer identity verified ({} key bytes)",
            k.to_bytes().len()
        ),
        None => say!("association established (anonymous peer)"),
    }
    let delivered = host.serve(Duration::from_secs(seconds))?;
    for (i, msg) in delivered.iter().enumerate() {
        match std::str::from_utf8(msg) {
            Ok(text) => say!("[{i}] {text}"),
            Err(_) => say!("[{i}] {} bytes (binary)", msg.len()),
        }
    }
    say!("{} verified message(s) delivered", delivered.len());
    Ok(())
}

/// `alpha send`.
pub fn send(
    peer: &str,
    messages: &[String],
    opts: &ProtoOpts,
    mode: alpha_core::Mode,
    bind: &str,
) -> Result<(), CliError> {
    let cfg = config_from(opts);
    let identity = load_identity(&opts.identity)?;
    say!("connecting to {peer}…");
    let auth = HandshakeAuth {
        identity: identity.as_ref().map(|k| k.as_signer()),
        require_peer: opts.require_peer_auth,
    };
    let mut host = UdpHost::connect_with(
        cfg,
        rand::random(),
        bind,
        peer,
        Duration::from_secs(10),
        auth,
    )?;
    if host.peer_key().is_some() {
        say!("peer identity verified");
    }
    let refs: Vec<&[u8]> = messages.iter().map(|m| m.as_bytes()).collect();
    host.send_batch(&refs, mode, Duration::from_secs(15))?;
    say!("{} message(s) dispatched in mode {mode:?}", messages.len());
    Ok(())
}

/// `alpha relay`.
pub fn relay(
    bind: &str,
    left: &str,
    right: &str,
    seconds: u64,
    strict: bool,
) -> Result<(), CliError> {
    use std::sync::atomic::Ordering::Relaxed;
    use std::sync::{Arc, Mutex};
    let left: std::net::SocketAddr = left.parse()?;
    let right: std::net::SocketAddr = right.parse()?;
    // One worker serving one route and standing up no host flows: the
    // engine `engine serve --route` runs, on the deployment defaults.
    let mut ecfg = alpha_engine::EngineConfig::new(Config::new(alpha_crypto::Algorithm::Sha1));
    ecfg.relay = RelayConfig {
        forward_unknown: !strict,
        ..RelayConfig::default()
    };
    ecfg.accept_handshakes = false;
    let core = alpha_engine::EngineCore::new(ecfg);
    core.add_route(left, right);
    let extracted = Arc::new(Mutex::new(Vec::<Vec<u8>>::new()));
    let into = Arc::clone(&extracted);
    let sink: DeliverySink = Box::new(move |out| {
        // Allowlist: the sink is the lock's only other holder, and it
        // never panics while holding it.
        let mut into = into.lock().expect("extraction list");
        into.extend(out.extracted.iter().map(|(_, p)| p.to_vec()));
    });
    let relay = alpha_transport::Engine::bind_with_sink(bind, core, 1, Some(sink))?;
    say!(
        "relaying {left} <-> {right} on {} for {seconds}s (strict={strict})",
        relay.local_addr()?
    );
    std::thread::sleep(Duration::from_secs(seconds));
    let m = relay.core().metrics();
    let forwarded = m.packets_out.load(Relaxed);
    let dropped = m.total_drops()
        + m.admission_drops.load(Relaxed)
        + m.backpressure_drops.load(Relaxed)
        + m.parse_errors.load(Relaxed);
    relay.shutdown();
    let extracted = std::mem::take(&mut *extracted.lock().expect("extraction list"));
    say!(
        "forwarded {forwarded} datagrams, dropped {dropped}, verified {} payload(s) in transit:",
        extracted.len()
    );
    for p in &extracted {
        match std::str::from_utf8(p) {
            Ok(text) => say!("  {text}"),
            Err(_) => say!("  {} bytes (binary)", p.len()),
        }
    }
    Ok(())
}

/// `alpha trace`.
pub fn trace_summary(file: &str) -> Result<(), CliError> {
    let text = if file == "-" {
        use std::io::Read as _;
        let mut s = String::new();
        std::io::stdin().read_to_string(&mut s)?;
        s
    } else {
        std::fs::read_to_string(file)?
    };
    let trace = Trace::from_json_lines(&text).ok_or("not a valid JSON-lines trace")?;
    let mut transmits = 0u64;
    let mut losses = 0u64;
    let mut bytes_total = 0u64;
    let mut first = u64::MAX;
    let mut last = 0u64;
    for e in trace.entries() {
        first = first.min(e.at_us);
        last = last.max(e.at_us);
        match &e.event {
            TraceEvent::Transmit { bytes, .. } => {
                transmits += 1;
                bytes_total += *bytes as u64;
            }
            TraceEvent::Lost { .. } => losses += 1,
        }
    }
    say!(
        "trace: {} entries over {:.3}s virtual time",
        trace.len(),
        last.saturating_sub(first.min(last)) as f64 / 1e6
    );
    say!("transmissions: {transmits} ({bytes_total} bytes), link losses: {losses}");
    for kind in [
        PacketKind::Handshake,
        PacketKind::S1,
        PacketKind::A1,
        PacketKind::S2,
        PacketKind::A2,
        PacketKind::Bundle,
        PacketKind::Unparseable,
    ] {
        let n = trace.count_kind(kind);
        if n > 0 {
            say!("  {kind:?}: {n}");
        }
    }
    Ok(())
}

/// The cost model `sim --device` names; its usage line lists exactly
/// these names.
pub(crate) fn device_by_name(name: &str) -> Option<DeviceModel> {
    Some(match name {
        "xeon" => DeviceModel::xeon(),
        "n770" => DeviceModel::nokia770(),
        "ar2315" => DeviceModel::ar2315(),
        "bcm5365" => DeviceModel::bcm5365(),
        "geode" => DeviceModel::geode_lx(),
        "cc2430" => DeviceModel::cc2430(),
        _ => return None,
    })
}

/// `alpha sim`.
pub fn sim(o: &SimOpts) -> Result<(), CliError> {
    let device =
        device_by_name(&o.device).ok_or_else(|| format!("unknown device '{}'", o.device))?;
    let mut sim = Simulator::new(o.seed);
    if o.trace {
        sim.enable_trace();
    }
    let cfg = config_from(&o.proto).with_chain_len(8192);
    let link = LinkConfig::mesh().with_loss(o.loss);
    let app = App::Sender(SenderApp::new(o.mode, o.batch, o.payload, o.messages));
    let (s, relays, v) = protected_path(&mut sim, o.relays, device, device, link, cfg, app);
    sim.run_until(alpha_core::Timestamp::from_millis(o.seconds * 1000));

    let m = &sim.metrics[v];
    say!(
        "scenario: {} relays ({}), mode {:?}, {} x {} B, loss {:.1}%/link",
        o.relays,
        device.name,
        o.mode,
        o.messages,
        o.payload,
        o.loss * 100.0
    );
    say!(
        "delivered: {}/{} messages ({} bytes) in {:.1}s virtual time",
        m.delivered_msgs,
        o.messages,
        m.delivered_bytes,
        sim.now().micros() as f64 / 1e6
    );
    if !m.latencies_us.is_empty() {
        let mut lat = m.latencies_us.clone();
        lat.sort_unstable();
        say!(
            "latency: median {:.1} ms, p95 {:.1} ms",
            lat[lat.len() / 2] as f64 / 1e3,
            lat[lat.len() * 95 / 100] as f64 / 1e3
        );
    }
    let seconds = sim.now().micros() as f64 / 1e6;
    say!(
        "goodput: {:.1} kbit/s end-to-end",
        m.delivered_bytes as f64 * 8.0 / seconds / 1e3
    );
    for (i, r) in relays.iter().enumerate() {
        let rm = &sim.metrics[*r];
        say!(
            "relay {i}: forwarded {}, verified {}, drops {:?}, cpu {:.1} ms, energy {:.1} mJ",
            rm.forwarded,
            rm.extracted_payloads,
            rm.drops,
            rm.cpu_ns / 1e6,
            rm.energy_uj / 1e3
        );
    }
    let sm = &sim.metrics[s];
    say!(
        "sender: cpu {:.1} ms, energy {:.1} mJ, drops {:?}; receiver drops {:?}",
        sm.cpu_ns / 1e6,
        sm.energy_uj / 1e3,
        sm.drops,
        m.drops
    );
    if let Some(trace) = sim.trace() {
        emit(&trace.to_json_lines())?;
    }
    Ok(())
}

/// `alpha engine serve`.
#[allow(clippy::too_many_arguments)]
pub fn engine_serve(
    bind: &str,
    opts: &ProtoOpts,
    workers: usize,
    shards: usize,
    seconds: u64,
    s1_budget: u64,
    max_buffered: u64,
    route: &Option<(String, String)>,
    adapt: bool,
    hibernate_after_ms: u64,
    frozen_budget: u64,
) -> Result<(), CliError> {
    let mut ecfg = alpha_engine::EngineConfig::new(config_from(opts)).with_shards(shards);
    if adapt {
        ecfg = ecfg.with_adapt(alpha_engine::AdaptConfig::default());
    }
    ecfg.s1_bytes_per_sec = (s1_budget > 0).then_some(s1_budget);
    ecfg.max_buffered_bytes = (max_buffered > 0).then_some(max_buffered);
    ecfg.hibernate_after = (hibernate_after_ms > 0).then_some(hibernate_after_ms * 1_000);
    ecfg.frozen_budget = (frozen_budget > 0).then_some(frozen_budget);
    let core = alpha_engine::EngineCore::new(ecfg);
    if let Some((l, r)) = route {
        let l: std::net::SocketAddr = l.parse()?;
        let r: std::net::SocketAddr = r.parse()?;
        core.add_route(l, r);
        say!("relaying {l} <-> {r}");
    }
    if hibernate_after_ms > 0 {
        say!("hibernating flows idle for {hibernate_after_ms} ms (budget {frozen_budget} B)");
    }
    let engine = alpha_transport::Engine::bind(bind, core, workers)?;
    say!(
        "engine on {} ({workers} worker(s), {shards} shard(s)); query with 'alpha engine stats'",
        engine.local_addr()?
    );
    let started = std::time::Instant::now();
    loop {
        std::thread::sleep(Duration::from_millis(500));
        if seconds > 0 && started.elapsed() >= Duration::from_secs(seconds) {
            break;
        }
    }
    say!("{}", engine.stats_json());
    engine.shutdown();
    Ok(())
}

fn parse_addrs(list: &[String]) -> Result<Vec<std::net::SocketAddr>, CliError> {
    list.iter()
        .map(|a| a.parse().map_err(|e| format!("{a}: {e}").into()))
        .collect()
}

/// `alpha mesh serve`.
#[allow(clippy::too_many_arguments)]
pub fn mesh_serve(
    bind: &str,
    opts: &ProtoOpts,
    workers: usize,
    seconds: u64,
    upstreams: &[String],
    next_hops: &[String],
    sources: &[String],
    probe_ms: u64,
    open: bool,
) -> Result<(), CliError> {
    let listen: std::net::SocketAddr = bind.parse()?;
    let ecfg = alpha_engine::EngineConfig::new(config_from(opts));
    let mut cfg = alpha_mesh::MeshNodeConfig::new(listen, ecfg);
    cfg.workers = workers.max(1);
    cfg.upstreams = parse_addrs(upstreams)?;
    cfg.next_hops = parse_addrs(next_hops)?;
    cfg.route_sources = parse_addrs(sources)?;
    cfg.enforce = !open;
    cfg.mesh.probe_interval_us = probe_ms.max(1) * 1000;
    let node = alpha_mesh::MeshNode::spawn(cfg)?;
    say!(
        "mesh relay on {} ({} upstream(s), {} next hop(s), enforce={}); \
         query with 'alpha mesh peers'",
        node.local_addr()?,
        upstreams.len(),
        next_hops.len(),
        !open,
    );
    let started = std::time::Instant::now();
    loop {
        std::thread::sleep(Duration::from_millis(500));
        if seconds > 0 && started.elapsed() >= Duration::from_secs(seconds) {
            break;
        }
    }
    say!("{}", node.peers_json());
    node.shutdown();
    Ok(())
}

/// `alpha mesh peers`.
pub fn mesh_peers(addr: &str, timeout_ms: u64, raw_json: bool) -> Result<(), CliError> {
    use std::net::ToSocketAddrs;
    let addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| format!("cannot resolve '{addr}'"))?;
    let json = alpha_transport::query_stats(addr, Duration::from_millis(timeout_ms))?;
    let snap: serde_json::Value =
        serde_json::from_str(&json).map_err(|e| format!("relay sent malformed stats: {e}"))?;
    let mesh = snap
        .get("metrics")
        .and_then(|m| m.get("mesh"))
        .ok_or("relay reports no mesh state (is it a plain engine?)")?;
    if raw_json {
        return emit(&format!("{}\n", serde_json::to_string(mesh)?));
    }
    emit(&render_stats("mesh", mesh))
}

/// `alpha loadgen` — saturate a live loopback engine and report
/// verified-S2 throughput.
pub fn loadgen(
    workers: usize,
    senders: usize,
    flows: usize,
    payload: usize,
    seconds: f64,
    shards: usize,
    raw_json: bool,
) -> Result<(), CliError> {
    use alpha_transport::loadgen::{host_cores, run, LoadgenConfig};
    let cfg = LoadgenConfig {
        workers: workers.max(1),
        senders: senders.max(1),
        flows_per_sender: flows.max(1),
        payload,
        duration: Duration::from_secs_f64(seconds.max(0.05)),
        shards: shards.max(1),
    };
    if !raw_json {
        note(&format!(
            "loadgen: {} workers, {} senders x {} flows, {} B payload, {:.1}s window \
             (host has {} core(s))…",
            cfg.workers,
            cfg.senders,
            cfg.flows_per_sender,
            cfg.payload,
            cfg.duration.as_secs_f64(),
            host_cores(),
        ));
    }
    let report = run(&cfg)?;
    if raw_json {
        say!("{}", report.json());
        return Ok(());
    }
    say!(
        "live verified-S2 throughput: {:.0}/s ({} exchanges in {:.2}s, {} flows, {} workers)",
        report.s2_per_sec,
        report.s2_verified,
        report.elapsed.as_secs_f64(),
        report.flows,
        report.workers,
    );
    say!(
        "lock_contended={}  reuseport={}  backend={}",
        report.lock_contended,
        report.reuseport,
        report.udp_backend,
    );
    say!(
        "wait: backend={}  idle_wakeups/s={:.1}",
        report.wait_backend,
        report.idle_wakeups_per_sec,
    );
    say!(
        "syscalls: {:.4}/datagram (recv={} send={} wait={})  send_retries={}",
        report.io.syscalls_per_datagram(),
        report.io.recv_calls,
        report.io.send_calls,
        report.io.wait_calls,
        report.io.send_retries,
    );
    say!(
        "segment offload: {} datagram(s) out in {} coalesced send(s), {} in via {} coalesced \
         receive(s), gso_refused={}",
        report.io.gso_segments,
        report.io.gso_sends,
        report.io.gro_segments,
        report.io.gro_recvs,
        report.io.gso_refused,
    );
    if report.host_cores < 2 {
        say!("note: host has 1 core; this number is concurrency, not parallel speedup");
    }
    if report.sign_errors > 0 {
        return Err(format!("{} client-side signing errors", report.sign_errors).into());
    }
    if report.s2_verified == 0 {
        return Err("live engine verified no S2 exchanges".into());
    }
    Ok(())
}

/// `alpha engine stats`.
pub fn engine_stats(addr: &str, timeout_ms: u64, raw_json: bool) -> Result<(), CliError> {
    use std::net::ToSocketAddrs;
    let addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| format!("cannot resolve '{addr}'"))?;
    let json = alpha_transport::query_stats(addr, Duration::from_millis(timeout_ms))?;
    if raw_json {
        return emit(&format!("{json}\n"));
    }
    let snap: serde_json::Value =
        serde_json::from_str(&json).map_err(|e| format!("engine sent malformed stats: {e}"))?;
    emit(&render_stats("engine", &snap))
}

/// Writes `text` to stdout. A closed pipe is an error, not a panic.
fn emit(text: &str) -> Result<(), CliError> {
    std::io::stdout().write_all(text.as_bytes())?;
    Ok(())
}

/// Writes a progress note and a newline to stderr, best effort: a
/// closed pipe loses the note, and the verb goes on.
fn note(text: &str) {
    let _ = writeln!(std::io::stderr(), "{text}");
}

/// Renders a stats snapshot as text, one line per object section headed
/// by its path: its strings and nonzero numbers as `key=value`, a list of
/// scalars joined by commas. A histogram shows only its count, p50 and
/// p99, and each row of an array of objects is a section of its own. A
/// section with nothing to show prints no line.
fn render_stats(path: &str, snap: &serde_json::Value) -> String {
    use serde_json::Value;
    let Value::Object(members) = snap else {
        return String::new();
    };
    let histogram = members.contains_key("buckets");
    let (mut line, mut below) = (String::new(), String::new());
    for (key, v) in members {
        if histogram && !["count", "p50_us", "p99_us"].contains(&key.as_str()) {
            continue;
        }
        match v {
            Value::Object(_) => below += &render_stats(&format!("{path}.{key}"), v),
            Value::Array(rows) if rows.first().is_some_and(|r| r.as_object().is_some()) => {
                for (i, row) in rows.iter().enumerate() {
                    below += &render_stats(&format!("{path}.{key}[{i}]"), row);
                }
            }
            Value::Array(items) if !items.is_empty() => {
                let items: Vec<String> = items.iter().map(scalar).collect();
                line += &format!(" {key}={}", items.join(","));
            }
            Value::Array(_) | Value::Null => {}
            v if v.as_f64() == Some(0.0) => {}
            v => line += &format!(" {key}={}", scalar(v)),
        }
    }
    if line.is_empty() {
        below
    } else {
        format!("{path}:{line}\n{below}")
    }
}

/// One scalar as [`render_stats`] prints it.
fn scalar(v: &serde_json::Value) -> String {
    match v {
        serde_json::Value::F64(x) => format!("{x:.3}"),
        serde_json::Value::Str(s) => s.clone(),
        serde_json::Value::Null => "-".to_owned(),
        other => serde_json::to_string(other).unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    /// The words after the head of the line for section `path`.
    fn section<'a>(text: &'a str, path: &str) -> Vec<&'a str> {
        let head = format!("{path}:");
        let line = text.lines().find(|l| l.split(' ').next() == Some(&head));
        let line = line.unwrap_or_else(|| panic!("no section {path} in:\n{text}"));
        line.split(' ').skip(1).collect()
    }

    /// Asserts the line for `path` carries each of `words`.
    fn has(text: &str, path: &str, words: &[&str]) {
        let line = section(text, path);
        for w in words {
            assert!(line.contains(w), "{path} lacks {w}:\n{text}");
        }
    }

    #[test]
    fn engine_stats_render_summarizes_adapt_flows() {
        let snap = serde_json::json!({
            "flows": 2u64,
            "shards": 8u64,
            "buffered_bytes": 0u64,
            "digest_backend": "lanes4",
            "udp_backend": "mmsg",
            "wait_backend": "epoll",
            "metrics": {
                "verified": 10u64,
                "dropped": 0u64,
                "adapt_switches": 3u64,
                "io": {
                    "udp_backend": "mmsg",
                    "wait_backend": "epoll",
                    "recv_calls": 4u64,
                    "send_calls": 2u64,
                    "datagrams_in": 32u64,
                    "datagrams_out": 16u64,
                    "eagain": 1u64,
                    "partial_sends": 0u64,
                    "wakeups": 9u64,
                    "read_timeout_errors": 0u64,
                    "gso_sends": 1u64,
                    "gso_segments": 16u64,
                    "gro_recvs": 2u64,
                    "gro_segments": 32u64,
                    "gso_refused": 0u64,
                    "datagrams_per_recv_call": 8.0,
                    "per_worker": [{ "wakeups": 5u64 }, { "wakeups": 4u64 }]
                }
            },
            "adapt_flows": [{
                "peer": "10.0.0.1:700",
                "assoc_id": 21u64,
                "adapt": {
                    "mode": "merkle",
                    "n": 8u64,
                    "switches": 12u64,
                    "estimator": {
                        "loss": 0.25,
                        "srtt_us": 4200u64,
                        "rto_us": 50000u64,
                        "exchanges": 34u64,
                        "abandoned": 3u64,
                        "goodput_per_auth_byte": 1.93
                    }
                }
            }]
        });
        let text = render_stats("engine", &snap);
        has(
            &text,
            "engine",
            &[
                "flows=2",
                "shards=8",
                "digest_backend=lanes4",
                "udp_backend=mmsg",
                "wait_backend=epoll",
            ],
        );
        has(
            &text,
            "engine.metrics.io",
            &[
                "datagrams_in=32",
                "recv_calls=4",
                "datagrams_per_recv_call=8.000",
                "wakeups=9",
                "gso_sends=1",
                "gso_segments=16",
                "gro_recvs=2",
                "gro_segments=32",
            ],
        );
        has(&text, "engine.metrics.io.per_worker[0]", &["wakeups=5"]);
        has(&text, "engine.metrics.io.per_worker[1]", &["wakeups=4"]);
        assert!(!text.contains("per_worker[2]"), "two workers: {text}");
        has(
            &text,
            "engine.metrics",
            &["verified=10", "adapt_switches=3"],
        );
        for zero in [
            "dropped=",
            "buffered_bytes=",
            "gso_refused=",
            "partial_sends=",
        ] {
            assert!(!text.contains(zero), "zero counters stay hidden: {text}");
        }
        has(
            &text,
            "engine.adapt_flows[0]",
            &["peer=10.0.0.1:700", "assoc_id=21"],
        );
        has(
            &text,
            "engine.adapt_flows[0].adapt",
            &["mode=merkle", "n=8", "switches=12"],
        );
        has(
            &text,
            "engine.adapt_flows[0].adapt.estimator",
            &["loss=0.250", "srtt_us=4200", "goodput_per_auth_byte=1.930"],
        );

        let empty = serde_json::json!({
            "flows": 0u64,
            "shards": 1u64,
            "buffered_bytes": 0u64,
            "metrics": {},
            "adapt_flows": []
        });
        let text = render_stats("engine", &empty);
        assert_eq!(
            text, "engine: shards=1\n",
            "all-zero sections print nothing"
        );
        assert!(
            !text.contains("mesh"),
            "non-mesh engines stay quiet about the mesh: {text}"
        );
    }

    #[test]
    fn mesh_peers_render_lists_health_and_hop_counters() {
        let mesh = serde_json::json!({
            "forwarded": 120u64,
            "upstream_rejects": 4u64,
            "failovers": 1u64,
            "replicas_absorbed": 2u64,
            "per_peer": [
                {
                    "peer": "10.0.0.9:7200",
                    "datagrams_in": 0u64,
                    "datagrams_out": 120u64,
                    "probes_sent": 50u64,
                    "pongs_received": 49u64,
                    "health": "up",
                    "srtt_us": 1800u64
                },
                {
                    "peer": "10.0.0.10:7200",
                    "datagrams_in": 0u64,
                    "datagrams_out": 0u64,
                    "probes_sent": 12u64,
                    "pongs_received": 0u64,
                    "health": "down",
                    "srtt_us": 0u64
                }
            ]
        });
        let text = render_stats("mesh", &mesh);
        has(
            &text,
            "mesh",
            &[
                "forwarded=120",
                "upstream_rejects=4",
                "failovers=1",
                "replicas_absorbed=2",
            ],
        );
        has(
            &text,
            "mesh.per_peer[0]",
            &[
                "peer=10.0.0.9:7200",
                "health=up",
                "srtt_us=1800",
                "datagrams_out=120",
                "probes_sent=50",
                "pongs_received=49",
            ],
        );
        let down = section(&text, "mesh.per_peer[1]");
        assert_eq!(
            down,
            ["health=down", "peer=10.0.0.10:7200", "probes_sent=12"],
            "zero counters and an unsampled srtt stay hidden"
        );
        assert!(!text.contains("per_peer[2]"), "two peers: {text}");

        // The same walk reaches the mesh section of an engine snapshot.
        let snap = serde_json::json!({
            "flows": 1u64,
            "shards": 1u64,
            "buffered_bytes": 0u64,
            "metrics": { "mesh": mesh },
            "adapt_flows": []
        });
        let text = render_stats("engine", &snap);
        has(&text, "engine.metrics.mesh.per_peer[1]", &["health=down"]);
    }

    /// Sets every number in `v` to a distinct nonzero value, counting up
    /// from `next`.
    fn renumber(v: &mut Value, next: &mut u64) {
        match v {
            Value::U64(_) | Value::I64(_) => {
                *next += 1;
                *v = Value::U64(*next);
            }
            Value::F64(_) => {
                *next += 1;
                *v = Value::F64(*next as f64 + 0.5);
            }
            Value::Array(items) => items.iter_mut().for_each(|i| renumber(i, next)),
            Value::Object(members) => members.values_mut().for_each(|m| renumber(m, next)),
            Value::Null | Value::Bool(_) | Value::Str(_) => {}
        }
    }

    /// The `key=value` word of every leaf the text must show: all but a
    /// histogram's sum, mean and buckets.
    fn leaves(v: &Value, out: &mut Vec<String>) {
        let Value::Object(members) = v else {
            v.as_array()
                .into_iter()
                .flatten()
                .for_each(|r| leaves(r, out));
            return;
        };
        let histogram = members.contains_key("buckets");
        for (key, m) in members {
            match m {
                Value::Object(_) | Value::Array(_) => leaves(m, out),
                Value::Null => {}
                _ if histogram && !["count", "p50_us", "p99_us"].contains(&key.as_str()) => {}
                _ => out.push(format!("{key}={}", scalar(m))),
            }
        }
    }

    #[test]
    fn engine_stats_render_shows_every_counter() {
        let core = alpha_engine::EngineCore::new(alpha_engine::EngineConfig::new(Config::new(
            alpha_crypto::Algorithm::Sha1,
        )));
        let m = core.metrics();
        let _workers = [m.io.register_worker(), m.io.register_worker()];
        m.mesh.register_peer("127.0.0.1:9001".parse().unwrap());
        m.mesh.register_peer("127.0.0.1:9002".parse().unwrap());
        let mut snap = core.snapshot();
        renumber(&mut snap, &mut 1000);
        let text = render_stats("engine", &snap);
        let words: std::collections::HashSet<&str> = text.split_whitespace().collect();
        let mut want = Vec::new();
        leaves(&snap, &mut want);
        assert!(want.len() > 100, "{} leaves", want.len());
        for w in &want {
            assert!(words.contains(w.as_str()), "{w} missing from:\n{text}");
        }
        let drops = section(&text, "engine.metrics.drops");
        assert_eq!(drops.len(), 7, "{text}");
        for h in [
            "engine.metrics.handshake_us",
            "engine.metrics.rtt_us",
            "engine.metrics.store.thaw_latency_us",
        ] {
            let line = section(&text, h);
            assert!(line[0].starts_with("count="), "{h}: {line:?}");
            assert!(line[1].starts_with("p50_us="), "{h}: {line:?}");
            assert!(line[2].starts_with("p99_us="), "{h}: {line:?}");
            assert_eq!(line.len(), 3, "{h}: {line:?}");
        }
        for key in ["send_retries=", "wait_calls=", "lock_contended="] {
            assert!(text.contains(key), "{key} missing from:\n{text}");
        }
    }
}

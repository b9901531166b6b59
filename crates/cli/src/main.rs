//! `alpha` — command-line tooling for the ALPHA protocol.

use std::io::Write as _;

use alpha_cli::{args, commands, parse_args, Command};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse_args(&argv) {
        Ok(c) => c,
        Err(e) => {
            // A closed pipe must not turn the refusal into a panic.
            let _ = writeln!(std::io::stderr(), "error: {e}\n{}", args::usage());
            std::process::exit(2);
        }
    };
    let result = match &cmd {
        Command::Help => {
            let _ = std::io::stdout().write_all(args::usage().as_bytes());
            Ok(())
        }
        Command::Keygen { scheme, out, bits } => commands::keygen(scheme, out, *bits),
        Command::Listen {
            bind,
            opts,
            seconds,
        } => commands::listen(bind, opts, *seconds),
        Command::Send {
            peer,
            messages,
            opts,
            mode,
            bind,
        } => commands::send(peer, messages, opts, *mode, bind),
        Command::Relay {
            bind,
            left,
            right,
            seconds,
            strict,
        } => commands::relay(bind, left, right, *seconds, *strict),
        Command::Sim(opts) => commands::sim(opts),
        Command::Trace { file } => commands::trace_summary(file),
        Command::EngineServe {
            bind,
            opts,
            workers,
            shards,
            seconds,
            s1_budget,
            max_buffered,
            route,
            adapt,
            hibernate_after_ms,
            frozen_budget,
        } => commands::engine_serve(
            bind,
            opts,
            *workers,
            *shards,
            *seconds,
            *s1_budget,
            *max_buffered,
            route,
            *adapt,
            *hibernate_after_ms,
            *frozen_budget,
        ),
        Command::EngineStats {
            addr,
            timeout_ms,
            json,
        } => commands::engine_stats(addr, *timeout_ms, *json),
        Command::MeshServe {
            bind,
            opts,
            workers,
            seconds,
            upstreams,
            next_hops,
            sources,
            probe_ms,
            open,
        } => commands::mesh_serve(
            bind, opts, *workers, *seconds, upstreams, next_hops, sources, *probe_ms, *open,
        ),
        Command::MeshPeers {
            addr,
            timeout_ms,
            json,
        } => commands::mesh_peers(addr, *timeout_ms, *json),
        Command::Loadgen {
            workers,
            senders,
            flows,
            payload,
            seconds,
            shards,
            json,
        } => commands::loadgen(
            *workers, *senders, *flows, *payload, *seconds, *shards, *json,
        ),
    };
    if let Err(e) = result {
        let _ = writeln!(std::io::stderr(), "error: {e}");
        std::process::exit(1);
    }
}

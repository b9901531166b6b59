#!/bin/sh
# CI gate. Tier-1 first: the root package, the socket-free crates and
# the CLI (the workspace's `default-members`: cli, crypto, bignum, pk,
# wire, core, adapt, store, engine, mesh, sim, baselines) must build and
# pass their unit, integration and doc tests. Then style/lint gates on
# the whole workspace, held to -D warnings; `transport` (live loopback)
# and the benches get their own serialized steps below.
set -eu

echo "==> tier 1: build (release)"
cargo build --release

echo "==> tier 1: test"
cargo test -q

echo "==> fmt check (workspace)"
cargo fmt --all --check

echo "==> clippy -D warnings (workspace)"
cargo clippy --workspace --all-targets -- -D warnings

# On a SHA-NI host auto-detection never runs the lanes4 tier, and the
# streaming hasher and chain walker follow the process-wide backend, so
# each tier is forced in turn. The backend suite also holds the Merkle
# level walk to the per-item walk and to one hash per distinct node
# input per level. The chain-walker suite also holds the
# frozen-checkpoint properties (a thaw hashes nothing, lower checkpoints
# are walked from the super-checkpoint, from the seed at most once, one
# walk per disclosed pair, and the exact hash budget of a chain frozen
# after every pair, ≤ 24 a wake over a 1024-element life, and every
# layout's record — full storage's too — thawing without a hash); the engine's
# S2-run suite holds the bundled ≡ one-per-datagram properties (host and
# relay) and the per-role hash counts of a bundle; the renewal suite
# holds that chains do not end mid-flow (both ends renew on the datagram
# path, polled or not, hibernating or not, one end or both at once, also
# across a relay engine, 1,024 flows in lockstep), and renewal builds
# chains; the relay fuzzer mutates a learned relay's valid traces (no
# panic, every packet judged once, a rejected datagram changes nothing,
# only valid S2s forwarded) and the host fuzzer a populated host's (no
# panic, no packet counted twice, a rejected datagram changes nothing,
# only the trace's payloads delivered, each once), the small-scope search runs every schedule
# of a client, a relay and a server engine within its tier-1 bound and
# the in-memory twin of the 32-association live test, and the relay
# budget suite holds a relayed burst to a constant allocation count,
# one shard lock per datagram and per-call counters equal to
# per-datagram sums; the receiver ≡ relay
# suite holds that a relay verifies exactly the S2s the receiving host
# accepts and forwards exactly the A2s the sending host accepts. The
# hibernation suites run here too, since decoding a record rebuilds an
# AMT by hashing: freeze/thaw decision identity (incl. a flow frozen
# after each of 500 exchanges), the four golden records, and the record
# fuzzer (seeded mutations of those records: no panic, exact
# re-encoding, bounded decode allocation, a thaw without a hash). Their
# test counts are checked so that a renamed or filtered-out property
# fails the step instead of passing with fewer tests.
echo "==> digest backend equivalence, padding, chain-walker (incl. frozen-checkpoint), S2-run, renewal, relay and host fuzz, small-scope search, relay budget, receiver ≡ relay and hibernation suites incl. the record fuzzer (forced scalar, forced lanes4, then auto-detected)"
for backend in scalar lanes4 auto; do
    props=$(ALPHA_DIGEST_BACKEND=$backend cargo test -q -p alpha-crypto \
        --test backend_props) || { echo "$props"; exit 1; }
    echo "$props"
    case "$props" in
        *"running 7 tests"*) ;;
        *) echo "ci: the backend_props suite did not run its 7 tests under $backend" >&2; exit 1 ;;
    esac
    ALPHA_DIGEST_BACKEND=$backend cargo test -q -p alpha-crypto --test padding
    walker=$(ALPHA_DIGEST_BACKEND=$backend cargo test -q -p alpha-crypto \
        --test chain_walker) || { echo "$walker"; exit 1; }
    echo "$walker"
    case "$walker" in
        *"running 4 tests"*) ;;
        *) echo "ci: the chain_walker suite did not run its 4 tests under $backend" >&2; exit 1 ;;
    esac
    runs=$(ALPHA_DIGEST_BACKEND=$backend cargo test -q -p alpha-engine \
        --test s2_runs) || { echo "$runs"; exit 1; }
    echo "$runs"
    case "$runs" in
        *"running 4 tests"*) ;;
        *) echo "ci: the s2_runs suite did not run its 4 tests under $backend" >&2; exit 1 ;;
    esac
    renewals=$(ALPHA_DIGEST_BACKEND=$backend cargo test -q -p alpha-engine \
        --test renewal) || { echo "$renewals"; exit 1; }
    echo "$renewals"
    case "$renewals" in
        *"running 6 tests"*) ;;
        *) echo "ci: the renewal suite did not run its 6 tests under $backend" >&2; exit 1 ;;
    esac
    relay_fuzz=$(ALPHA_DIGEST_BACKEND=$backend cargo test -q -p alpha-engine \
        --test relay_fuzz) || { echo "$relay_fuzz"; exit 1; }
    echo "$relay_fuzz"
    case "$relay_fuzz" in
        *"running 2 tests"*"1 passed"*"1 ignored"*) ;;
        *) echo "ci: the relay_fuzz suite did not run its 1 test (1 ignored) under $backend" >&2; exit 1 ;;
    esac
    host_fuzz=$(ALPHA_DIGEST_BACKEND=$backend cargo test -q -p alpha-engine \
        --test host_fuzz) || { echo "$host_fuzz"; exit 1; }
    echo "$host_fuzz"
    case "$host_fuzz" in
        *"running 2 tests"*"1 passed"*"1 ignored"*) ;;
        *) echo "ci: the host_fuzz suite did not run its 1 test (1 ignored) under $backend" >&2; exit 1 ;;
    esac
    scope=$(ALPHA_DIGEST_BACKEND=$backend cargo test -q -p alpha-engine \
        --test small_scope) || { echo "$scope"; exit 1; }
    echo "$scope"
    case "$scope" in
        *"running 5 tests"*"3 passed"*"2 ignored"*) ;;
        *) echo "ci: the small_scope suite did not run its 3 tests (2 ignored) under $backend" >&2; exit 1 ;;
    esac
    budget=$(ALPHA_DIGEST_BACKEND=$backend cargo test -q -p alpha-engine \
        --test relay_budget) || { echo "$budget"; exit 1; }
    echo "$budget"
    case "$budget" in
        *"running 3 tests"*) ;;
        *) echo "ci: the relay_budget suite did not run its 3 tests under $backend" >&2; exit 1 ;;
    esac
    judges=$(ALPHA_DIGEST_BACKEND=$backend cargo test -q -p alpha-core \
        --test receiver_relay) || { echo "$judges"; exit 1; }
    echo "$judges"
    case "$judges" in
        *"running 4 tests"*) ;;
        *) echo "ci: the receiver_relay suite did not run its 4 tests under $backend" >&2; exit 1 ;;
    esac
    thaws=$(ALPHA_DIGEST_BACKEND=$backend cargo test -q -p alpha-core \
        --test freeze_thaw) || { echo "$thaws"; exit 1; }
    echo "$thaws"
    case "$thaws" in
        *"running 8 tests"*) ;;
        *) echo "ci: the freeze_thaw suite did not run its 8 tests under $backend" >&2; exit 1 ;;
    esac
    golden=$(ALPHA_DIGEST_BACKEND=$backend cargo test -q -p alpha-core \
        --test freeze_golden) || { echo "$golden"; exit 1; }
    echo "$golden"
    case "$golden" in
        *"running 1 test"*) ;;
        *) echo "ci: the freeze_golden suite did not run its 1 test under $backend" >&2; exit 1 ;;
    esac
    fuzz=$(ALPHA_DIGEST_BACKEND=$backend cargo test -q -p alpha-core \
        --test record_fuzz) || { echo "$fuzz"; exit 1; }
    echo "$fuzz"
    case "$fuzz" in
        *"running 1 test"*) ;;
        *) echo "ci: the record_fuzz suite did not run its 1 test under $backend" >&2; exit 1 ;;
    esac
done

# Ten times the tier-1 fuzz cases in a release build; the box bounds a
# slow or hung run, not the cases (about 4 s on the 2-vCPU host).
echo "==> relay fuzz smoke (release, 100,000 cases, time-boxed to 30 s)"
cargo test --release -q -p alpha-engine --test relay_fuzz --no-run
long_fuzz=$(timeout 30 cargo test --release -q -p alpha-engine --test relay_fuzz \
    -- --ignored mutated_datagrams_long_run) || { echo "$long_fuzz"; exit 1; }
echo "$long_fuzz"
case "$long_fuzz" in
    *"running 1 test"*) ;;
    *) echo "ci: the relay fuzz smoke did not run its long run" >&2; exit 1 ;;
esac

# The host fuzzer's long run, the same way: ten times its tier-1 cases
# in a release build, time-boxed (a bound on a slow or hung run).
echo "==> host fuzz smoke (release, 100,000 cases, time-boxed to 30 s)"
cargo test --release -q -p alpha-engine --test host_fuzz --no-run
long_host_fuzz=$(timeout 30 cargo test --release -q -p alpha-engine --test host_fuzz \
    -- --ignored mutated_datagrams_long_run) || { echo "$long_host_fuzz"; exit 1; }
echo "$long_host_fuzz"
case "$long_host_fuzz" in
    *"running 1 test"*) ;;
    *) echo "ci: the host fuzz smoke did not run its long run" >&2; exit 1 ;;
esac

# The kernel fuzzer's long run: four hundred seeds of its sweep (the
# SHA-1 kernels from random chaining states, the 16-lane one over ragged
# runs, and every batch width 1..=40 through the batch entry points)
# in a release build, time-boxed (a bound on a slow or hung run; about
# 7 s on the 2-vCPU host).
echo "==> kernel fuzz smoke (release, 400 seeds, time-boxed to 30 s)"
cargo test --release -q -p alpha-crypto --test kernel_fuzz --no-run
long_kernel_fuzz=$(timeout 30 cargo test --release -q -p alpha-crypto --test kernel_fuzz \
    -- --ignored long_run) || { echo "$long_kernel_fuzz"; exit 1; }
echo "$long_kernel_fuzz"
case "$long_kernel_fuzz" in
    *"running 1 test"*) ;;
    *) echo "ci: the kernel fuzz smoke did not run its long run" >&2; exit 1 ;;
esac

# The small-scope search's deeper bound (three exchanges an end in
# order, one with two deviations) in a release build; the box bounds a
# slow or hung run (about 22 s on the 2-vCPU host).
echo "==> small-scope search, deep bound (release, time-boxed to 30 s)"
cargo test --release -q -p alpha-engine --test small_scope --no-run
deep_scope=$(timeout 30 cargo test --release -q -p alpha-engine --test small_scope \
    -- --ignored every_schedule_of_the_deep_bound) || { echo "$deep_scope"; exit 1; }
echo "$deep_scope"
case "$deep_scope" in
    *"running 1 test"*) ;;
    *) echo "ci: the small-scope deep bound did not run" >&2; exit 1 ;;
esac

echo "==> digest throughput bench smoke (release, --quick)"
cargo run --release -p alpha-bench --bin digest_throughput -- --quick

# Every test that binds real loopback sockets runs in this one block,
# serialized (--test-threads=1) so concurrent suites never race on the
# host's ephemeral-port space or fight each other for the single CI
# core mid-measurement. Each test binds port 0 (kernel-assigned unique
# ports); serialization is about timing stability, not port collisions.
echo "==> live loopback, serialized: alpha-transport suite on each runtime rung (forced fallback, then auto)"
ALPHA_UDP_BACKEND=fallback cargo test -q -p alpha-transport -- --test-threads=1
cargo test -q -p alpha-transport -- --test-threads=1

echo "==> live loopback, serialized: mesh relay e2e"
cargo test -q --test mesh -- --test-threads=1

echo "==> udp io bench smoke (release, --quick)"
cargo run --release -p alpha-bench --bin udp_io -- --quick

# Still serialized with the loopback suites above: each run saturates
# the single CI core.
echo "==> loadgen smoke (live engine saturation over loopback, --quick; forced fallback, then auto as --json with the segment-offload counters present)"
ALPHA_UDP_BACKEND=fallback cargo run --release -p alpha-cli --bin alpha -- loadgen --quick
loadgen_json=$(cargo run --release -p alpha-cli --bin alpha -- loadgen --quick --json)
echo "$loadgen_json"
for key in gso_sends gso_segments gro_recvs gro_segments gso_refused lock_contended; do
    case "$loadgen_json" in
        *"\"$key\":"*) ;;
        *) echo "loadgen --json lacks \"$key\""; exit 1 ;;
    esac
done

# The live ratio is printed, not asserted: loadgen is a closed loop, so
# the multi-worker gate waits for ROADMAP item 8's multi-worker numbers.
echo "==> engine scaling bench smoke (release, --quick; live multi-worker ratio reported, not gated)"
cargo run --release -p alpha-bench --bin engine_scaling -- --quick

echo "==> mesh: chained sim scenarios + per-hop verification tests"
cargo test -q -p alpha-sim mesh_chain

echo "==> mesh: live 2-relay loopback smoke (release)"
cargo run --release --example mesh_smoke

# Every output here is seeded or counted: the tables and figures count
# what the protocol machines hash and send, flows_scaling runs the
# simulator's engine relays, and wmn_estimate / wsn_estimate judge
# prefix MACs at a relay built from the deployment's config; `alpha
# sim` and the six sans-io examples run seeded engines on virtual
# time. So each regenerates results/ byte for byte (well under a
# second each in release). A change that moves a figure fails here;
# regenerate results/ and say why in EXPERIMENTS.md.
echo "==> paper outputs: tables 1-3 and 6, figures 5-6, flows_scaling, wmn_estimate, wsn_estimate, alpha sim (default and Base mode) and six examples regenerate results/ byte-identical (release)"
for bin in table1 table2 table3 table6 fig5 fig6 flows_scaling wmn_estimate wsn_estimate; do
    cargo run --release -q -p alpha-bench --bin "$bin" | diff "results/$bin.txt" - || {
        echo "ci: $bin output differs from results/$bin.txt" >&2
        exit 1
    }
done
cargo run --release -q -p alpha-cli --bin alpha -- sim | diff results/alpha_sim.txt - || {
    echo "ci: alpha sim output differs from results/alpha_sim.txt" >&2
    exit 1
}
# A Base-mode run, so a Base sender that silently delivers nothing fails.
cargo run --release -q -p alpha-cli --bin alpha -- sim --relays 1 --messages 50 --mode base \
    | diff results/alpha_sim_base.txt - || {
    echo "ci: alpha sim --mode base output differs from results/alpha_sim_base.txt" >&2
    exit 1
}
for example in quickstart flood_defense mesh_stream sensor_net longlived_association middlebox_signaling; do
    cargo run --release -q --example "$example" | diff "results/$example.txt" - || {
        echo "ci: example $example output differs from results/$example.txt" >&2
        exit 1
    }
done

echo "==> mesh chain bench smoke (release, --quick)"
cargo run --release -p alpha-bench --bin mesh_chain -- --quick

echo "==> flow density bench smoke (release, --quick; gates >=10x assoc/GB and wake p99 < 2 ms; records carry a checkpoint and a super-checkpoint per sqrt chain)"
cargo run --release -p alpha-bench --bin flow_density -- --quick

# The driver builds benchmark/ against crates/ as they are; an API break
# there should fail here first. Numbers of a --quick run mean nothing.
echo "==> benchmark crate: build (release, offline) and --quick smoke into a temp dir"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
bench_out=$(mktemp -d)
cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- \
    --quick --out "$bench_out" >/dev/null
rm -rf "$bench_out"

# A filter that matches nothing passes with 0 tests, so the count is
# checked: a renamed property must be renamed here too.
echo "==> decoder robustness properties (release)"
robustness=$(cargo test --release --test properties -q -- \
    accepted_bytes_are_canonical \
    every_strict_prefix_is_an_error \
    arbitrary_bytes_never_panic_a_decoder) || { echo "$robustness"; exit 1; }
echo "$robustness"
case "$robustness" in
    *"running 3 tests"*) ;;
    *) echo "ci: the decoder robustness step did not run its 3 properties" >&2; exit 1 ;;
esac

# The --quick smokes above wrote to target/bench-quick/ (what this tree
# emits now); the files at the root are the committed full runs.
echo "==> provenance gate: every BENCH_*.json, committed or just smoked, names its wait backend and kernel, and no udp or digest backend or chain storage the tree cannot run"
for name in BENCH_digest.json BENCH_udp_io.json BENCH_engine_scaling.json \
            BENCH_mesh_chain.json BENCH_flow_density.json; do
    for f in "$name" "target/bench-quick/$name"; do
        grep -q '"wait_backend"' "$f" || {
            echo "ci: $f lacks wait_backend" >&2
            exit 1
        }
        grep -q '"kernel_release"' "$f" || {
            echo "ci: $f lacks kernel_release (numbers are only comparable on a like kernel)" >&2
            exit 1
        }
    done
done
# `udp_backend` values are `UdpBackend::name`'s (crates/transport/src/io.rs),
# `digest_backend` values and the digest bench's per-row `backend` are
# `BackendKind::name`'s (crates/crypto/src/backend.rs), `chain_storage`
# values `chainstore::name`'s (crates/engine/src/chainstore.rs).
for f in BENCH_*.json target/bench-quick/BENCH_*.json; do
    if grep -o '"udp_backend": *"[^"]*"' "$f" | grep -v -e '"mmsg"$' -e '"fallback"$' | grep -q .; then
        echo "ci: $f records a udp_backend this tree cannot run" >&2
        exit 1
    fi
    if grep -o '"digest_backend": *"[^"]*"' "$f" | grep -v -e '"scalar"$' -e '"lanes4"$' -e '"sha-ni"$' | grep -q .; then
        echo "ci: $f records a digest_backend this tree cannot run" >&2
        exit 1
    fi
    if grep -o '"chain_storage": *"[^"]*"' "$f" | grep -v -e '"full"$' -e '"sqrt"$' | grep -q .; then
        echo "ci: $f records a chain_storage this tree cannot build" >&2
        exit 1
    fi
done
for f in BENCH_digest.json target/bench-quick/BENCH_digest.json; do
    if grep -o '"backend": *"[^"]*"' "$f" | grep -v -e '"scalar"$' -e '"lanes4"$' -e '"sha-ni"$' | grep -q .; then
        echo "ci: $f records a digest backend row this tree cannot run" >&2
        exit 1
    fi
done

echo "==> ci OK"

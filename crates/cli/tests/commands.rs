//! CLI command tests that exercise real side effects (temp files, the
//! simulator) without touching the network.

use alpha_cli::args::{parse_args, Command, SimOpts};
use alpha_cli::commands;

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("alpha-cli-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn keygen_writes_loadable_identity() {
    let out = tmp("ecdsa.key");
    commands::keygen("ecdsa", out.to_str().unwrap(), 0).expect("keygen");
    let bytes = std::fs::read(&out).expect("file written");
    let key = alpha_pk::PrivateKey::from_bytes(&bytes).expect("parses back");
    let mut rng = alpha::test_rng(1);
    use alpha_pk::VerifyingKey;
    let sig = key
        .as_signer()
        .sign(alpha::crypto::Algorithm::Sha1, b"x", &mut rng);
    assert!(key
        .as_signer()
        .verifying_key()
        .verify(alpha::crypto::Algorithm::Sha1, b"x", &sig));
    std::fs::remove_file(&out).ok();
}

#[test]
fn keygen_rejects_unknown_scheme() {
    let out = tmp("nope.key");
    assert!(commands::keygen("dsa4096", out.to_str().unwrap(), 0).is_err());
    assert!(!out.exists());
}

#[test]
fn sim_subcommand_runs_end_to_end() {
    // Parse a realistic command line, then execute it.
    let argv: Vec<String> = [
        "sim",
        "--relays",
        "1",
        "--messages",
        "10",
        "--batch",
        "5",
        "--loss",
        "0",
        "--device",
        "geode",
        "--payload",
        "64",
        "--seconds",
        "30",
        "--seed",
        "3",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let Command::Sim(opts) = parse_args(&argv).expect("parses") else {
        panic!("expected sim");
    };
    commands::sim(&opts).expect("sim runs");
}

#[test]
fn sim_accepts_all_devices_and_modes() {
    for device in ["xeon", "n770", "ar2315", "bcm5365", "geode", "cc2430"] {
        for mode in ["base", "c", "m", "cm"] {
            let opts = SimOpts {
                relays: 1,
                messages: 4,
                batch: if mode == "base" { 1 } else { 4 },
                device: device.into(),
                payload: 32,
                seconds: 20,
                ..SimOpts::default()
            };
            let argv: Vec<String> = ["sim", "--mode", mode]
                .iter()
                .map(|s| s.to_string())
                .collect();
            let Command::Sim(parsed) = parse_args(&argv).unwrap() else {
                panic!()
            };
            let merged = SimOpts {
                mode: parsed.mode,
                ..opts
            };
            // MMO devices need the matching algorithm for realism but any
            // algorithm is legal; just run it.
            commands::sim(&merged).unwrap_or_else(|e| panic!("{device}/{mode}: {e}"));
        }
    }
}

#[test]
fn base_mode_sim_delivers_every_message() {
    // The default `--batch 10` must not stop a Base sender, whose
    // exchange carries one message. An unreliable flow loses what the
    // links lose (the default 1 %), so every message arrives on lossless
    // links or on a reliable flow.
    for extra in [&["--loss", "0"][..], &["--reliable"]] {
        let argv = ["sim", "--relays", "1", "--messages", "50", "--mode", "base"];
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_alpha"))
            .args(argv)
            .args(extra)
            .output()
            .expect("alpha runs");
        assert!(out.status.success(), "alpha sim {extra:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("delivered: 50/50 messages"),
            "alpha sim {extra:?}: {stdout}"
        );
    }
}

#[test]
fn binary_refuses_an_unknown_flag_with_exit_2() {
    // `trace` opens no socket, and the refusal must come before it
    // reads its file: nothing reaches stdout.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_alpha"))
        .args(["trace", "/dev/null", "--bogus", "1"])
        .output()
        .expect("alpha runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--bogus"), "stderr: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn binary_writes_into_a_closed_pipe_without_panicking() {
    // The reader is gone before the child writes: every write fails with
    // a broken pipe, and the exit status must still be the verb's own —
    // a refusal 2, help 0, a report that could not be written 1 — never
    // a panic's 101.
    let sim = [
        "sim",
        "--relays",
        "1",
        "--messages",
        "4",
        "--batch",
        "2",
        "--seconds",
        "5",
    ];
    for (argv, code) in [
        (&["sim", "--loss", "5"][..], 2),
        (&["help"][..], 0),
        (&["trace", "/dev/null"][..], 1),
        (&sim[..], 1),
    ] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let status = std::process::Command::new(env!("CARGO_BIN_EXE_alpha"))
            .args(argv)
            .stdout(writer.try_clone().expect("dup"))
            .stderr(writer)
            .status()
            .expect("alpha runs");
        assert_eq!(status.code(), Some(code), "alpha {argv:?}");
    }
}

#[test]
fn fd_starved_serve_does_not_report_an_epoll_wait_it_never_ran() {
    // With 12 descriptors every worker's epoll set fails to come up and
    // each falls back to the blocking wait; the final snapshot must name
    // the wait the workers run, not the one the backend would pair with.
    let script = concat!(
        "ulimit -n 12 && exec \"$0\" engine serve 127.0.0.1:0 ",
        "--workers 4 --seconds 1"
    );
    let out = match std::process::Command::new("sh")
        .args(["-c", script, env!("CARGO_BIN_EXE_alpha")])
        .output()
    {
        Ok(out) => out,
        Err(e) => {
            eprintln!("skipped: no `sh` to set the descriptor limit with ({e})");
            return;
        }
    };
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("\"wait_backend\":"), "stdout: {stdout}");
    assert!(
        !stdout.contains("\"wait_backend\":\"epoll\""),
        "stdout: {stdout}"
    );
}

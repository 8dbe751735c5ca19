//! Load generator for the `lsml-serve` daemon: request latency and
//! throughput at 1 / 8 / 64 concurrent clients, an overload phase that
//! demonstrates load shedding (bounded queue, structured `Overloaded`
//! answers, never a hang), and a fault phase that hammers a daemon with an
//! armed [`FaultPlan`] and requires every answer to stay structured.
//!
//! The daemon runs in-process (real TCP on a loopback ephemeral port), so
//! the numbers include the full frame/parse/queue/dispatch/respond path.
//! Results land in `BENCH_serve.json`. The run panics — and the CI
//! `serve-smoke` leg fails — if any phase sees a transport-level failure,
//! if the overload phase fails to shed, or if the fault phase crashes the
//! daemon.
//!
//! Set `LSML_FAULT_SEED` to pick the fault plan (the CI leg does); unset,
//! the fault phase derives one from a fixed seed so it always runs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use lsml_durable::fault::FaultPlan;
use lsml_pla::{Dataset, Pattern};
use lsml_serve::client::{Client, ClientError};
use lsml_serve::protocol::Status;
use lsml_serve::server::{Server, ServerConfig};

/// Pings each client issues in a throughput phase.
const PINGS_PER_CLIENT: usize = 200;

/// A small majority-vote problem: enough for a real learn/compile
/// round-trip without dominating the run.
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

fn bench_server(workers: usize, queue: usize) -> Server {
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_capacity: queue,
        client_tokens: 1024,
        max_frame: 16 << 20,
        snapshot_path: None,
        drain_ms: 2_000,
        fault: FaultPlan::none(),
    };
    Server::start(cfg).expect("bind bench server")
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[idx]
}

struct PhaseResult {
    clients: usize,
    requests: usize,
    p50_us: u64,
    p99_us: u64,
    throughput_rps: f64,
    synthesis_ms: f64,
}

/// One throughput phase: `n` concurrent lockstep clients, each pinging
/// `PINGS_PER_CLIENT` times, plus one full synthesis round-trip
/// (load → learn → select) per phase to keep the measured daemon honest.
fn throughput_phase(server: &Server, n: usize) -> PhaseResult {
    let addr = server.local_addr();
    let (train, valid) = small_problem();

    // The synthesis round-trip, timed separately from the ping histogram.
    let t0 = Instant::now();
    let mut c = Client::connect(addr).expect("connect");
    c.load_dataset(&train, &valid, n as u64, 300).expect("load");
    c.learn(2).expect("learn");
    let best = c.select_best(0).expect("select_best");
    assert!(!best.partial && best.and_gates <= 300);
    let synthesis_ms = t0.elapsed().as_secs_f64() * 1e3;
    drop(c);

    let t_phase = Instant::now();
    let handles: Vec<_> = (0..n)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                let mut lat_us = Vec::with_capacity(PINGS_PER_CLIENT);
                for _ in 0..PINGS_PER_CLIENT {
                    let t = Instant::now();
                    c.ping().expect("ping under load");
                    lat_us.push(t.elapsed().as_micros() as u64);
                }
                lat_us
            })
        })
        .collect();
    let mut all_us: Vec<u64> = Vec::with_capacity(n * PINGS_PER_CLIENT);
    for h in handles {
        all_us.extend(h.join().expect("client thread"));
    }
    let wall_s = t_phase.elapsed().as_secs_f64();
    all_us.sort_unstable();
    PhaseResult {
        clients: n,
        requests: all_us.len(),
        p50_us: percentile(&all_us, 0.50),
        p99_us: percentile(&all_us, 0.99),
        throughput_rps: all_us.len() as f64 / wall_s.max(1e-9),
        synthesis_ms,
    }
}

struct OverloadResult {
    clients: usize,
    ok: u64,
    shed: u64,
    shed_rate: f64,
}

/// Overload: one deliberately stalled worker behind a 2-deep queue, 16
/// clients hammering it. Excess load must come back as an *immediate*
/// structured `Overloaded` — the admission path never blocks the reader.
fn overload_phase() -> OverloadResult {
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_capacity: 2,
        client_tokens: 1 << 20,
        max_frame: 16 << 20,
        snapshot_path: None,
        drain_ms: 2_000,
        fault: FaultPlan {
            seed: 0,
            slow_period: 1, // stall every request: the worker is the bottleneck
            slow_ms: 2,
            ..FaultPlan::none()
        },
    };
    let server = Server::start(cfg).expect("bind overload server");
    let addr = server.local_addr();
    let ok = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    const CLIENTS: usize = 16;
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let ok = Arc::clone(&ok);
            let shed = Arc::clone(&shed);
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                for _ in 0..40 {
                    match c.ping() {
                        Ok(()) => {
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ClientError::Server(Status::Overloaded, _)) => {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("overload must shed, not fail transport: {e}"),
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("overload client");
    }
    let ok = ok.load(Ordering::Relaxed);
    let shed = shed.load(Ordering::Relaxed);
    // The daemon is still healthy after the storm.
    let mut c = Client::connect(addr).expect("connect");
    while c.ping().is_err() {
        // Sheds may persist briefly while the queue empties.
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    server.shutdown_and_join();
    assert!(shed > 0, "a 2-deep queue behind 16 clients must shed");
    assert!(ok > 0, "shedding must not starve all clients");
    OverloadResult {
        clients: CLIENTS,
        ok,
        shed,
        shed_rate: shed as f64 / (ok + shed) as f64,
    }
}

struct FaultResult {
    seed: u64,
    ok: u64,
    faulted: u64,
    panics_caught: u64,
}

/// Fault phase: 8 clients against an armed fault plan (panics + stalls).
/// Every answer must be a structured status — a transport error means a
/// worker died or the daemon wedged, and fails the bench.
fn fault_phase(plan: FaultPlan) -> FaultResult {
    let seed = plan.seed;
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: 64,
        client_tokens: 1024,
        max_frame: 16 << 20,
        snapshot_path: None,
        drain_ms: 2_000,
        fault: plan,
    };
    let server = Server::start(cfg).expect("bind fault server");
    let addr = server.local_addr();
    let ok = Arc::new(AtomicU64::new(0));
    let faulted = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let ok = Arc::clone(&ok);
            let faulted = Arc::clone(&faulted);
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                for _ in 0..50 {
                    match c.ping() {
                        Ok(()) => {
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ClientError::Server(_, _)) => {
                            faulted.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("daemon crashed under fault injection: {e}"),
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("fault client");
    }
    // Zero crashes: a fresh client still gets served after the storm.
    let mut c = Client::connect(addr).expect("connect after faults");
    let mut served = false;
    for _ in 0..20 {
        if c.ping().is_ok() {
            served = true;
            break;
        }
    }
    assert!(served, "daemon must keep serving after fault injection");
    let panics_caught = server.counters().panics_caught.load(Ordering::Relaxed);
    server.shutdown_and_join();
    FaultResult {
        seed,
        ok: ok.load(Ordering::Relaxed),
        faulted: faulted.load(Ordering::Relaxed),
        panics_caught,
    }
}

fn main() {
    // --- Throughput phases against one healthy daemon. ---
    let server = bench_server(4, 256);
    let phases: Vec<PhaseResult> = [1usize, 8, 64]
        .iter()
        .map(|&n| throughput_phase(&server, n))
        .collect();
    let accepted = server.counters().accepted.load(Ordering::Relaxed);
    server.shutdown_and_join();
    assert!(accepted > 0);

    println!("serve daemon load generator:");
    for p in &phases {
        println!(
            "  {:3} client(s): {:6} reqs  p50 {:5} us  p99 {:6} us  {:9.0} req/s  (synthesis round-trip {:.1} ms)",
            p.clients, p.requests, p.p50_us, p.p99_us, p.throughput_rps, p.synthesis_ms
        );
    }

    // --- Overload phase. ---
    let over = overload_phase();
    println!(
        "  overload ({} clients, 1 stalled worker, queue 2): {} served, {} shed ({:.1}% shed rate)",
        over.clients,
        over.ok,
        over.shed,
        over.shed_rate * 1e2
    );

    // --- Fault phase (seed from LSML_FAULT_SEED when the CI leg sets it). ---
    let plan = {
        let env = FaultPlan::from_env();
        if env.armed() {
            env
        } else {
            FaultPlan::from_seed(0x5EED)
        }
    };
    println!(
        "  fault plan: seed {} panic_period {} slow_period {} slow_ms {}",
        plan.seed, plan.panic_period, plan.slow_period, plan.slow_ms
    );
    let fault = fault_phase(plan);
    println!(
        "  faults (8 clients, seed {}): {} ok, {} structured fault answers, {} panics caught, 0 crashes",
        fault.seed, fault.ok, fault.faulted, fault.panics_caught
    );

    // --- BENCH_serve.json ---
    let mut json = String::from("{\n  \"phases\": [\n");
    for (i, p) in phases.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"clients\": {}, \"requests\": {}, \"p50_us\": {}, \"p99_us\": {}, \"throughput_rps\": {:.0}, \"synthesis_ms\": {:.2}}}{}\n",
            p.clients,
            p.requests,
            p.p50_us,
            p.p99_us,
            p.throughput_rps,
            p.synthesis_ms,
            if i + 1 == phases.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"overload\": {{\"clients\": {}, \"served\": {}, \"shed\": {}, \"shed_rate\": {:.4}}},\n",
        over.clients, over.ok, over.shed, over.shed_rate
    ));
    json.push_str(&format!(
        "  \"faults\": {{\"seed\": {}, \"ok\": {}, \"structured_fault_answers\": {}, \"panics_caught\": {}, \"crashes\": 0}}\n}}\n",
        fault.seed, fault.ok, fault.faulted, fault.panics_caught
    ));
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::write(out, json).expect("write BENCH_serve.json");
    println!("wrote {out}");
}

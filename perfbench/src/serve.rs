//! `serve`: an in-process `lsml-serve` daemon on loopback (2 workers, no
//! snapshot, no faults) under a closed loop of two client connections. A
//! session is `load_dataset` → `learn(rounds)` → `select_best(0)` over a
//! fixed pool of (small dataset, rounds) pairs. In a pass each client runs
//! every pair once, in an order of its own drawn from the run seed, so the
//! two carry the same load whatever the seed. Setup serves every pair once,
//! so `select_best`'s compiles hit the cache during the timed phase.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use lsml_benchgen::BenchData;
use lsml_core::problem::NODE_LIMIT;
use lsml_core::{eval, LearnedCircuit};
use lsml_serve::client::{Client, ClientError, SelectBestReply};
use lsml_serve::{Server, ServerConfig};

use crate::inputs::{drawn_benchmarks, permutation, sample_all, splitmix, INPUT_SEED};
use crate::trace::Tracer;
use crate::{Tally, Workload};

/// Samples per split of a session's dataset.
const SAMPLES: usize = 128;

/// Boosting rounds a session asks for; each dataset is served with each.
const ROUNDS: [u32; 2] = [4, 8];

const CLIENTS: usize = 2;

struct Session {
    bench: usize,
    rounds: u32,
}

pub struct Serve {
    server: Option<Server>,
    clients: Vec<Client>,
    data: Vec<BenchData>,
    pool: Vec<Session>,
    /// Each client's order over the pool.
    orders: Vec<Vec<usize>>,
    counters_at_start: [u64; 6],
}

/// Runs one session, counting the operations it issues.
fn run_session(
    client: &mut Client,
    tr: &mut Tracer,
    id: u64,
    data: &BenchData,
    rounds: u32,
    ops: &mut u64,
) -> Result<SelectBestReply, (&'static str, ClientError)> {
    *ops += 1;
    let s = tr.open("serve.load_dataset", id);
    let r = client.load_dataset(&data.train, &data.valid, INPUT_SEED, 0);
    tr.close(s);
    r.map_err(|e| ("load_dataset", e))?;
    *ops += 1;
    let s = tr.open("serve.learn", id);
    let r = client.learn(rounds);
    tr.close(s);
    r.map_err(|e| ("learn", e))?;
    *ops += 1;
    let s = tr.open("serve.select_best", id);
    let r = client.select_best(0);
    tr.close(s);
    r.map_err(|e| ("select_best", e))
}

/// One client's share of a pass: every session of the pool, in `order`.
fn client_pass(
    client: &mut Client,
    order: &[usize],
    pool: &[Session],
    data: &[BenchData],
    mut tr: Tracer,
) -> (Tracer, Tally) {
    let mut tally = Tally::default();
    for &i in order {
        let (s, d) = (&pool[i], &data[pool[i].bench]);
        let span = tr.open("serve.session", i as u64);
        let start = Instant::now();
        let r = run_session(client, &mut tr, i as u64, d, s.rounds, &mut tally.attempted);
        tally.latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
        tr.close(span);
        match r {
            Ok(reply) => check_reply(&mut tr, &mut tally, i, d, reply),
            Err((op, e)) => {
                tally.failed += 1;
                tally.errors.push(format!("session {i}: {op}: {e}"));
            }
        }
    }
    (tr, tally)
}

fn counters(server: &Server) -> [u64; 6] {
    let c = server.counters();
    let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
    [
        g(&c.accepted),
        g(&c.completed),
        g(&c.shed),
        g(&c.deadline_exceeded),
        g(&c.panics_caught),
        g(&c.malformed),
    ]
}

impl Serve {
    pub fn setup(seed: u64, tr: &mut Tracer) -> Serve {
        let data = sample_all(&drawn_benchmarks(), SAMPLES, INPUT_SEED, tr);
        let server = Server::start(ServerConfig {
            // The daemon refunds a request's admission tokens only after
            // sending its response, so a lockstep client's next request can
            // still find the previous one's tokens outstanding; a budget
            // well above one session's cost keeps that race from shedding.
            client_tokens: 64,
            ..ServerConfig::for_tests()
        })
        .expect("start the daemon on loopback");
        let mut clients: Vec<Client> = (0..CLIENTS)
            .map(|_| Client::connect(server.local_addr()).expect("connect to the daemon"))
            .collect();
        let pool: Vec<Session> = (0..data.len())
            .flat_map(|bench| ROUNDS.map(|rounds| Session { bench, rounds }))
            .collect();
        let mut state = seed;
        let orders = (0..CLIENTS)
            .map(|_| permutation(pool.len(), splitmix(&mut state)))
            .collect();
        let every: Vec<usize> = (0..pool.len()).collect();
        let (_, primed) = client_pass(&mut clients[0], &every, &pool, &data, Tracer::new(false));
        assert!(primed.errors.is_empty(), "priming: {:?}", primed.errors);
        let counters_at_start = counters(&server);
        Serve {
            server: Some(server),
            clients,
            data,
            pool,
            orders,
            counters_at_start,
        }
    }
}

impl Workload for Serve {
    fn pass(&mut self, tr: &mut Tracer, tally: &mut Tally) {
        let (data, pool) = (&self.data, &self.pool);
        let results: Vec<(Tracer, Tally)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(&self.orders)
                .map(|(client, order)| {
                    let tr = tr.fork();
                    scope.spawn(move || client_pass(client, order, pool, data, tr))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        for (t, part) in results {
            tr.absorb(t);
            tally.absorb(part);
        }
    }

    fn begin_phase(&mut self) {
        if let Some(server) = &self.server {
            self.counters_at_start = counters(server);
        }
    }

    fn layer_counters(&self) -> Vec<(&'static str, f64)> {
        let Some(server) = &self.server else {
            return Vec::new();
        };
        let now = counters(server);
        let names = [
            "serve.accepted",
            "serve.completed",
            "serve.shed",
            "serve.deadline_exceeded",
            "serve.panics_caught",
            "serve.malformed",
        ];
        names
            .into_iter()
            .zip(now.iter().zip(self.counters_at_start))
            .map(|(name, (now, start))| (name, (now - start) as f64))
            .collect()
    }
}

/// The reply is final, and its circuit, re-scored here, has the accuracy
/// and size the daemon reported.
fn check_reply(
    tr: &mut Tracer,
    tally: &mut Tally,
    i: usize,
    d: &BenchData,
    reply: SelectBestReply,
) {
    let s = tr.open("eval.evaluate", i as u64);
    let score = eval::evaluate(&LearnedCircuit::new(reply.aig, "served"), d);
    tr.close(s);
    tally.circuits += 1;
    tally.score(score.test_accuracy, score.and_gates);
    if reply.partial {
        tally.errors.push(format!("session {i}: partial reply"));
    }
    if score.and_gates > NODE_LIMIT {
        tally.failed += 1;
        tally.errors.push(format!(
            "session {i}: {} ANDs, over the {NODE_LIMIT} limit",
            score.and_gates
        ));
    }
    if score.valid_accuracy.to_bits() != reply.accuracy.to_bits()
        || score.and_gates != reply.and_gates as usize
    {
        tally.errors.push(format!(
            "session {i}: reply says accuracy {} with {} ANDs, re-scored {} with {}",
            reply.accuracy, reply.and_gates, score.valid_accuracy, score.and_gates
        ));
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown_and_join();
        }
    }
}

//! The resident synthesis daemon.
//!
//! Thread architecture (all plain threads; an op runs entirely on the
//! worker that popped it, since none enters the `rayon` pool:
//! `Learn` trains serially and `SelectBest` takes the batch's exact lazy
//! path):
//!
//! ```text
//! accept thread ──► reader thread per connection ──► RequestQueue (bounded)
//!                      │  (parses frames, admits)        │
//!                      ◄── responses (shared write half) ◄┴─ N worker threads
//! ```
//!
//! Robustness invariants, each pinned by a test:
//!
//! * **Overload sheds, never hangs** — admission happens on the reader
//!   thread via [`RequestQueue::try_push`], which never blocks; a full
//!   queue answers [`Status::Overloaded`] immediately.
//! * **Deadlines cancel cooperatively** — each request carries a
//!   [`CancelToken`]; the engine polls it at pass boundaries, so a
//!   timed-out `SelectBest` still returns the best candidate compiled so
//!   far ([`lsml_core::compile::CompileBatch::select_best`]).
//! * **Panics are isolated** — request execution runs under
//!   `catch_unwind`; a panicking request (injected or real) produces a
//!   [`Status::Panicked`] response and the worker returns to the queue.
//! * **Shutdown drains then snapshots** — [`Server::begin_shutdown`] stops
//!   admission, bounds the drain with a watchdog that fires every
//!   in-flight token, then persists the caches crash-safely
//!   ([`crate::snapshot`]).
//!
//! Every synchronization primitive goes through the `loom::sync` facade
//! (enforced by the source lint), so the daemon builds — and its queue
//! model-checks — under `--cfg lsml_loom`.

use crate::fault::{FaultAction, FaultInjector};
use crate::protocol::{
    self, encode_response, parse_request, read_frame, write_frame, FrameError, Op, RequestHeader,
    Status, DEFAULT_MAX_FRAME,
};
use crate::queue::{Popped, RequestQueue, ShedReason};
use crate::snapshot::{self, Snapshot};
use loom::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use loom::sync::Mutex;
use lsml_aig::aiger::{read_aig, write_aig};
use lsml_aig::cancel::CancelToken;
use lsml_core::compile::{CompileBatch, SizeBudget};
use lsml_core::problem::NODE_LIMIT;
use lsml_dtree::boost::{GradientBoost, GradientBoostConfig};
use lsml_durable::fault::FaultPlan;
use lsml_durable::wire::Wire;
use lsml_durable::write_atomic;
use lsml_pla::Dataset;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Everything the daemon reads from the environment, overridable directly
/// in tests. See `lsml_aig::par` for the knob table.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address (`LSML_SERVE_ADDR`, default `127.0.0.1:7171`; tests
    /// use port 0 for an OS-assigned port).
    pub addr: String,
    /// Worker threads popping the request queue (`LSML_SERVE_WORKERS`).
    pub workers: usize,
    /// Bounded queue capacity (`LSML_SERVE_QUEUE`).
    pub queue_capacity: usize,
    /// Per-client outstanding-cost budget (`LSML_SERVE_CLIENT_TOKENS`).
    pub client_tokens: u64,
    /// Maximum frame payload (`LSML_SERVE_MAX_FRAME`).
    pub max_frame: usize,
    /// Snapshot file for warm starts (`LSML_SERVE_SNAPSHOT`; `None` = off).
    pub snapshot_path: Option<PathBuf>,
    /// Drain watchdog: after this many milliseconds of graceful drain,
    /// in-flight tokens are cancelled (`LSML_SERVE_DRAIN_MS`).
    pub drain_ms: u64,
    /// Fault-injection plan (`LSML_FAULT_SEED`).
    pub fault: FaultPlan,
}

impl ServerConfig {
    /// The environment-driven production configuration.
    pub fn from_env() -> ServerConfig {
        let num = |k: &str, d: u64| -> u64 {
            std::env::var(k)
                .ok()
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(d)
        };
        ServerConfig {
            addr: std::env::var("LSML_SERVE_ADDR").unwrap_or_else(|_| "127.0.0.1:7171".into()),
            workers: num("LSML_SERVE_WORKERS", 4).max(1) as usize,
            queue_capacity: num("LSML_SERVE_QUEUE", 64).max(1) as usize,
            client_tokens: num("LSML_SERVE_CLIENT_TOKENS", 16).max(1),
            // Bounded both ways: below 64 bytes no handshake frame fits;
            // above 1 GiB a hostile knob value defeats the cap's purpose.
            max_frame: num("LSML_SERVE_MAX_FRAME", DEFAULT_MAX_FRAME as u64).clamp(64, 1 << 30)
                as usize,
            snapshot_path: std::env::var("LSML_SERVE_SNAPSHOT")
                .ok()
                .filter(|s| !s.is_empty())
                .map(PathBuf::from),
            drain_ms: num("LSML_SERVE_DRAIN_MS", 5000),
            fault: FaultPlan::from_env(),
        }
    }

    /// A small, fast configuration for in-process tests: OS-assigned port,
    /// two workers, no snapshot, no faults.
    pub fn for_tests() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_capacity: 32,
            client_tokens: 16,
            max_frame: DEFAULT_MAX_FRAME,
            snapshot_path: None,
            drain_ms: 500,
            fault: FaultPlan::none(),
        }
    }
}

/// Monotonic counters the `Stats` op reports. All facade atomics: the
/// counters are written from reader, worker and shutdown threads alike.
pub struct Counters {
    /// Requests admitted into the queue.
    pub accepted: AtomicU64,
    /// Requests fully executed (any status).
    pub completed: AtomicU64,
    /// Requests shed at admission.
    pub shed: AtomicU64,
    /// Panics caught at the request boundary (injected or real).
    pub panics_caught: AtomicU64,
    /// Requests that hit their deadline.
    pub deadline_exceeded: AtomicU64,
    /// Undecodable frames/requests answered `Malformed`.
    pub malformed: AtomicU64,
    /// Snapshots written on shutdown.
    pub snapshots_saved: AtomicU64,
    /// Cache entries installed from a snapshot at boot.
    pub warm_entries: AtomicU64,
    /// 1 when a configured snapshot failed to load (torn/corrupt/missing).
    pub cold_start: AtomicU64,
}

impl Counters {
    fn new() -> Counters {
        Counters {
            accepted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            panics_caught: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            malformed: AtomicU64::new(0),
            snapshots_saved: AtomicU64::new(0),
            warm_entries: AtomicU64::new(0),
            cold_start: AtomicU64::new(0),
        }
    }

    /// Hand-rolled JSON (no serde in the container).
    pub fn json(&self, queue_depth: usize) -> String {
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        format!(
            concat!(
                "{{\"accepted\":{},\"completed\":{},\"shed\":{},\"panics_caught\":{},",
                "\"deadline_exceeded\":{},\"malformed\":{},\"snapshots_saved\":{},",
                "\"warm_entries\":{},\"cold_start\":{},\"queue_depth\":{}}}"
            ),
            g(&self.accepted),
            g(&self.completed),
            g(&self.shed),
            g(&self.panics_caught),
            g(&self.deadline_exceeded),
            g(&self.malformed),
            g(&self.snapshots_saved),
            g(&self.warm_entries),
            g(&self.cold_start),
            queue_depth,
        )
    }
}

/// Per-connection synthesis state, guarded by a facade mutex so pipelined
/// requests of one session serialize.
#[derive(Default)]
struct Session {
    train: Option<Dataset>,
    valid: Option<Dataset>,
    batch: Option<CompileBatch>,
    node_limit: usize,
    seed: u64,
}

/// The response write half of a connection, shared by every job the
/// connection admitted (clients may pipeline, responses interleave by id).
struct OutStream {
    stream: Mutex<TcpStream>,
}

impl OutStream {
    /// Best-effort send: a vanished client is the client's problem, never
    /// the worker's.
    fn send(&self, payload: &[u8]) {
        let mut s = self.stream.lock().expect("out lock");
        let _ = write_frame(&mut *s, payload);
    }
}

/// One admitted request.
struct Job {
    header: RequestHeader,
    body: Vec<u8>,
    session: Arc<Mutex<Session>>,
    out: Arc<OutStream>,
    token: CancelToken,
    serial: u64,
}

struct Shared {
    cfg: ServerConfig,
    queue: RequestQueue<Job>,
    counters: Counters,
    injector: FaultInjector,
    /// Accept thread stops admitting new connections.
    stop_accepting: AtomicBool,
    /// Set once by whichever path initiates shutdown (op, signal, test).
    shutting_down: AtomicBool,
    /// Drain + snapshot finished; workers released.
    stopped: AtomicBool,
    /// In-flight cancellation tokens, for the drain watchdog.
    active: Mutex<Vec<(u64, CancelToken)>>,
    serial: AtomicU64,
    next_client: AtomicU64,
}

impl Shared {
    fn register(&self, serial: u64, token: CancelToken) {
        self.active
            .lock()
            .expect("active lock")
            .push((serial, token));
    }

    fn unregister(&self, serial: u64) {
        let mut a = self.active.lock().expect("active lock");
        a.retain(|(s, _)| *s != serial);
    }

    /// Idempotent entry to the graceful sequence; the heavy lifting runs on
    /// a dedicated thread so callers (reader threads, signal pollers) never
    /// block on the drain.
    fn begin_shutdown(self: &Arc<Shared>) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        self.stop_accepting.store(true, Ordering::SeqCst);
        let shared = Arc::clone(self);
        thread::spawn(move || shared.run_shutdown());
    }

    fn run_shutdown(self: Arc<Shared>) {
        // Watchdog: the queue's drain is unbounded by design (no timed
        // waits through the facade), so boundedness comes from firing every
        // in-flight token after `drain_ms` — cooperative cancellation then
        // shrinks the remaining work to "finish the current pass".
        let watchdog = {
            let shared = Arc::clone(&self);
            thread::spawn(move || {
                thread::sleep(Duration::from_millis(shared.cfg.drain_ms));
                for (_, t) in shared.active.lock().expect("active lock").iter() {
                    t.cancel();
                }
            })
        };
        self.queue.drain();
        if let Some(path) = &self.cfg.snapshot_path {
            if write_atomic(path, Snapshot::capture().encode(), &self.cfg.fault).is_ok() {
                self.counters
                    .snapshots_saved
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        self.queue.shutdown();
        self.stopped.store(true, Ordering::SeqCst);
        // The watchdog holds only an Arc and a sleep; reap it when the
        // drain outlived it, leave it to finish otherwise.
        if watchdog.is_finished() {
            let _ = watchdog.join();
        }
    }
}

/// A running daemon. Dropping without [`Server::shutdown_and_join`] begins
/// (but does not wait for) a graceful shutdown.
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    local_addr: SocketAddr,
}

impl Server {
    /// Boots the daemon: warm-starts the caches from the configured
    /// snapshot (cold-starting on *any* load failure), binds the listener,
    /// and spawns the accept + worker threads.
    pub fn start(cfg: ServerConfig) -> io::Result<Server> {
        let counters = Counters::new();
        if let Some(path) = &cfg.snapshot_path {
            match snapshot::load(path) {
                Some(snap) => {
                    counters
                        .warm_entries
                        .fetch_add(snap.len() as u64, Ordering::Relaxed);
                    snap.install();
                }
                None => {
                    counters.cold_start.store(1, Ordering::Relaxed);
                }
            }
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            queue: RequestQueue::new(cfg.queue_capacity, cfg.client_tokens),
            counters,
            injector: FaultInjector::new(cfg.fault.clone()),
            stop_accepting: AtomicBool::new(false),
            shutting_down: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
            active: Mutex::new(Vec::new()),
            serial: AtomicU64::new(0),
            next_client: AtomicU64::new(0),
            cfg,
        });
        let workers = (0..shared.cfg.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || accept_loop(&shared, listener))
        };
        Ok(Server {
            shared,
            accept: Some(accept),
            workers,
            local_addr,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The live counters.
    pub fn counters(&self) -> &Counters {
        &self.shared.counters
    }

    /// Currently queued (unstarted) requests.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.depth()
    }

    /// Starts the graceful sequence without waiting for it.
    pub fn begin_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Whether the graceful sequence has fully finished.
    pub fn is_stopped(&self) -> bool {
        self.shared.stopped.load(Ordering::SeqCst)
    }

    /// Graceful stop: drain, snapshot, release and join every thread.
    pub fn shutdown_and_join(mut self) {
        self.shared.begin_shutdown();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.begin_shutdown();
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    loop {
        if shared.stop_accepting.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                // Responses are small framed writes; leaving Nagle on costs
                // ~40ms per lockstep round-trip to delayed ACKs.
                let _ = stream.set_nodelay(true);
                let shared = Arc::clone(shared);
                let client = shared.next_client.fetch_add(1, Ordering::Relaxed);
                // Reader threads are detached: they exit on EOF/error, and a
                // draining queue sheds everything they admit.
                thread::spawn(move || reader_loop(&shared, stream, client));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn reader_loop(shared: &Arc<Shared>, mut stream: TcpStream, client: u64) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let out = Arc::new(OutStream {
        stream: Mutex::new(write_half),
    });
    let session = Arc::new(Mutex::new(Session::default()));
    loop {
        let payload = match read_frame(&mut stream, shared.cfg.max_frame) {
            Ok(Some(p)) => p,
            // Clean EOF at a frame boundary: the client hung up.
            Ok(None) => return,
            Err(FrameError::Oversized(n)) => {
                // The oversized payload was never read, so the stream
                // position is unrecoverable mid-conversation: answer and
                // close.
                shared.counters.malformed.fetch_add(1, Ordering::Relaxed);
                out.send(&encode_response(
                    0,
                    Status::Malformed,
                    format!("frame of {n} bytes exceeds limit").as_bytes(),
                ));
                return;
            }
            // Torn frame or dead peer; nothing sensible to answer.
            Err(FrameError::Io(_)) => return,
        };
        let (header, body) = match parse_request(&payload) {
            Ok(x) => x,
            Err(e) => {
                // Framing is still in sync — answer Malformed and keep the
                // connection.
                shared.counters.malformed.fetch_add(1, Ordering::Relaxed);
                out.send(&encode_response(0, Status::Malformed, e.as_bytes()));
                continue;
            }
        };
        if header.op == Op::Shutdown {
            out.send(&encode_response(header.req_id, Status::Ok, b""));
            shared.begin_shutdown();
            continue;
        }
        let token = if header.deadline_ms > 0 {
            CancelToken::with_budget(Duration::from_millis(header.deadline_ms as u64))
        } else {
            CancelToken::new()
        };
        let job = Job {
            header,
            body: body.to_vec(),
            session: Arc::clone(&session),
            out: Arc::clone(&out),
            token,
            serial: shared.serial.fetch_add(1, Ordering::Relaxed),
        };
        match shared.queue.try_push(client, header.op.cost(), job) {
            Ok(()) => {
                shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
            }
            Err(reason) => {
                shared.counters.shed.fetch_add(1, Ordering::Relaxed);
                let (status, msg) = match reason {
                    ShedReason::QueueFull => (Status::Overloaded, "queue full"),
                    ShedReason::ClientBudget => (Status::Overloaded, "client over budget"),
                    ShedReason::Draining => (Status::ShuttingDown, "draining"),
                };
                out.send(&encode_response(header.req_id, status, msg.as_bytes()));
            }
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        match shared.queue.pop_blocking() {
            Popped::Shutdown => return,
            Popped::Job { client, cost, item } => {
                shared.register(item.serial, item.token.clone());
                let response = execute(shared, &item);
                shared.unregister(item.serial);
                // Completion is unconditional — a panicked request must
                // still refund its tokens or drain would hang — and comes
                // before the send: a lockstep client's next request must
                // not find this one's tokens still spent. Every admitted
                // response is still written before `shutdown_and_join`
                // returns, since it joins the workers.
                shared.queue.complete(client, cost);
                shared.counters.completed.fetch_add(1, Ordering::Relaxed);
                item.out.send(&response);
            }
        }
    }
}

/// Runs one request to a response payload. This is the panic-isolation
/// boundary: a panic anywhere inside is caught on this worker thread and
/// answered as [`Status::Panicked`].
fn execute(shared: &Arc<Shared>, job: &Job) -> Vec<u8> {
    let h = job.header;
    let action = shared.injector.on_request();
    if let FaultAction::Slow(ms) = action {
        thread::sleep(Duration::from_millis(ms));
    }
    let result = catch_unwind(AssertUnwindSafe(|| {
        // Injected panics fire inside the boundary, so they take the same
        // isolation path as real ones, and before the deadline check, so
        // they win over a deadline that already fired.
        if action == FaultAction::Panic {
            let seed = shared.injector.plan().seed;
            panic!("injected fault (LSML_FAULT_SEED={seed})");
        }
        // A deadline that fired while the request sat in the queue (or
        // during an injected stall): answer without doing the work.
        if job.token.is_cancelled() {
            return Ok((
                Status::DeadlineExceeded,
                b"deadline fired before execution".to_vec(),
            ));
        }
        lsml_aig::cancel::with_token(&job.token, || dispatch(shared, job))
    }));
    match result {
        Ok(Ok((status, body))) => {
            if status == Status::DeadlineExceeded {
                shared
                    .counters
                    .deadline_exceeded
                    .fetch_add(1, Ordering::Relaxed);
            }
            encode_response(h.req_id, status, &body)
        }
        Ok(Err((status, msg))) => {
            if status == Status::Malformed {
                shared.counters.malformed.fetch_add(1, Ordering::Relaxed);
            }
            encode_response(h.req_id, status, msg.as_bytes())
        }
        Err(payload) => {
            shared
                .counters
                .panics_caught
                .fetch_add(1, Ordering::Relaxed);
            let msg = panic_message(payload);
            encode_response(h.req_id, Status::Panicked, msg.as_bytes())
        }
    }
}

type OpResult = Result<(Status, Vec<u8>), (Status, String)>;

fn malformed<T>(msg: impl Into<String>) -> Result<T, (Status, String)> {
    Err((Status::Malformed, msg.into()))
}

fn dispatch(shared: &Arc<Shared>, job: &Job) -> OpResult {
    let body = &job.body[..];
    match job.header.op {
        Op::Ping => Ok((Status::Ok, Vec::new())),
        Op::Stats => {
            let json = shared.counters.json(shared.queue.depth());
            Ok((Status::Ok, json.into_bytes()))
        }
        Op::Shutdown => {
            // Normally intercepted on the reader thread; honor it here too
            // in case a future path queues it.
            shared.begin_shutdown();
            Ok((Status::Ok, Vec::new()))
        }
        Op::LoadDataset => {
            let (train, valid, seed, node_limit) =
                protocol::decode_datasets(body).map_err(|e| (Status::Malformed, e))?;
            let node_limit = if node_limit == 0 {
                NODE_LIMIT
            } else {
                node_limit as usize
            };
            let mut budget = SizeBudget::exact(node_limit);
            budget.seed = seed;
            let mut s = job.session.lock().expect("session lock");
            s.batch = Some(
                CompileBatch::new(train.num_inputs(), &budget)
                    .with_sweep_columns(train.bit_columns()),
            );
            s.node_limit = node_limit;
            s.seed = seed;
            s.train = Some(train);
            s.valid = Some(valid);
            Ok((Status::Ok, Vec::new()))
        }
        Op::AddCandidate => {
            let aig = match read_aig(body) {
                Ok(a) => a,
                Err(e) => return malformed(format!("candidate AIGER: {e:?}")),
            };
            if aig.outputs().len() != 1 {
                return malformed(format!(
                    "candidates need exactly 1 output, got {}",
                    aig.outputs().len()
                ));
            }
            let mut s = job.session.lock().expect("session lock");
            let Some(batch) = s.batch.as_mut() else {
                return Err((Status::Error, "no dataset loaded".into()));
            };
            // `CompileBatch::add_aig` panics on arity mismatch; the protocol
            // boundary validates first so a client mistake is a Malformed
            // response, not a caught panic.
            if aig.num_inputs() != batch.shared().num_inputs() {
                return malformed(format!(
                    "candidate has {} inputs, session has {}",
                    aig.num_inputs(),
                    batch.shared().num_inputs()
                ));
            }
            let id = batch.add_aig(&aig, "served");
            Ok((Status::Ok, (id as u32).to_le_bytes().to_vec()))
        }
        Op::Accuracies => {
            let s = job.session.lock().expect("session lock");
            let (Some(batch), Some(valid)) = (s.batch.as_ref(), s.valid.as_ref()) else {
                return Err((Status::Error, "no dataset loaded".into()));
            };
            let accs = batch.accuracies(valid);
            let mut out = Vec::with_capacity(4 + 8 * accs.len());
            out.extend_from_slice(&(accs.len() as u32).to_le_bytes());
            for a in accs {
                out.extend_from_slice(&a.to_le_bytes());
            }
            Ok((Status::Ok, out))
        }
        Op::SelectBest => {
            let mut w = Wire::new(body);
            let node_limit = w.u32().map_err(|e| (Status::Malformed, e))?;
            let mut s = job.session.lock().expect("session lock");
            let session_limit = s.node_limit;
            let valid = s.valid.clone();
            let (Some(batch), Some(valid)) = (s.batch.as_mut(), valid) else {
                return Err((Status::Error, "no dataset loaded".into()));
            };
            let limit = if node_limit == 0 {
                session_limit
            } else {
                node_limit as usize
            };
            let circuit = batch.select_best(&valid, limit);
            // A fired deadline means partial-best-so-far: flag it so the
            // client knows a rerun without a deadline might do better.
            let partial = job.token.is_cancelled();
            let mut out = Vec::new();
            out.push(partial as u8);
            out.extend_from_slice(&(circuit.and_gates() as u32).to_le_bytes());
            out.extend_from_slice(&circuit.accuracy(&valid).to_le_bytes());
            let mut aig_bytes = Vec::new();
            write_aig(&circuit.aig, &mut aig_bytes).expect("Vec write cannot fail");
            out.extend_from_slice(&(aig_bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(&aig_bytes);
            Ok((Status::Ok, out))
        }
        Op::Learn => {
            let mut w = Wire::new(body);
            let rounds = w.u32().map_err(|e| (Status::Malformed, e))?;
            if rounds == 0 || rounds > 512 {
                return malformed(format!("rounds {rounds} outside 1..=512"));
            }
            let mut s = job.session.lock().expect("session lock");
            let Some(train) = s.train.clone() else {
                return Err((Status::Error, "no dataset loaded".into()));
            };
            let cfg = GradientBoostConfig {
                n_rounds: rounds as usize,
                ..GradientBoostConfig::default()
            };
            let gb = GradientBoost::train(&train, &cfg);
            let batch = s.batch.as_mut().expect("batch exists whenever train does");
            let mut first = None;
            let mut count = 0u32;
            for t in 1..=gb.n_trees() {
                let lit = gb.emit_into(batch.shared(), t);
                let id = batch.add_cone(lit, format!("gb-r{t}"));
                first.get_or_insert(id);
                count += 1;
            }
            let mut out = Vec::with_capacity(8);
            out.extend_from_slice(&(first.unwrap_or(0) as u32).to_le_bytes());
            out.extend_from_slice(&count.to_le_bytes());
            Ok((Status::Ok, out))
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "request panicked".into()
    }
}

//! A blocking client for the daemon, used by the tests, the bench load
//! generator, and anyone scripting the protocol.
//!
//! One request at a time (send, then wait for the matching response); the
//! wire protocol itself allows pipelining, but lockstep keeps the client
//! trivially correct and is what the load generator wants for latency
//! measurements anyway.

use crate::protocol::{
    encode_datasets, encode_request, parse_response, read_frame, write_frame, FrameError, Op,
    Status, DEFAULT_MAX_FRAME,
};
use lsml_aig::aiger::{read_aig, write_aig};
use lsml_aig::Aig;
use lsml_durable::wire::Wire;
use lsml_pla::Dataset;
use std::io::{self};
use std::net::{TcpStream, ToSocketAddrs};

/// What a request can come back as.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (daemon gone, connection reset...).
    Io(io::Error),
    /// The daemon answered with a non-Ok status.
    Server(Status, String),
    /// The daemon's Ok response body did not decode (protocol skew).
    Decode(String),
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Server(s, m) => write!(f, "server {s:?}: {m}"),
            ClientError::Decode(m) => write!(f, "bad response body: {m}"),
        }
    }
}

/// The winner a `SelectBest` returns.
#[derive(Debug)]
pub struct SelectBestReply {
    /// The deadline fired; this is the best candidate compiled *so far*,
    /// not necessarily the best in the batch.
    pub partial: bool,
    /// AND-gate count of the winner.
    pub and_gates: u32,
    /// Validation accuracy of the winner.
    pub accuracy: f64,
    /// The winner itself.
    pub aig: Aig,
}

/// A blocking connection to the daemon.
pub struct Client {
    stream: TcpStream,
    next_id: u32,
    /// Deadline attached to subsequent requests (ms; 0 = none).
    pub deadline_ms: u32,
    max_frame: usize,
}

impl Client {
    /// Connects (TCP, Nagle off so single-frame requests leave promptly).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            stream,
            next_id: 1,
            deadline_ms: 0,
            max_frame: DEFAULT_MAX_FRAME,
        })
    }

    /// Sends one request and waits for its response. Exposed raw so the
    /// fuzzer and tests can poke odd corners; the typed helpers below wrap
    /// it.
    pub fn request(&mut self, op: Op, body: &[u8]) -> Result<(Status, Vec<u8>), ClientError> {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        let frame = encode_request(id, self.deadline_ms, op, body);
        write_frame(&mut self.stream, &frame)?;
        loop {
            let payload = match read_frame(&mut self.stream, self.max_frame) {
                Ok(Some(p)) => p,
                Ok(None) => {
                    return Err(ClientError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    )))
                }
                Err(FrameError::Io(e)) => return Err(ClientError::Io(e)),
                Err(FrameError::Oversized(n)) => {
                    return Err(ClientError::Decode(format!("{n}B response frame")))
                }
            };
            let (rid, status, body) = parse_response(&payload).map_err(ClientError::Decode)?;
            // Lockstep means any other id is a stale response to a request
            // whose deadline we already gave up on — skip it.
            if rid == id {
                return Ok((status, body.to_vec()));
            }
        }
    }

    fn request_ok(&mut self, op: Op, body: &[u8]) -> Result<Vec<u8>, ClientError> {
        match self.request(op, body)? {
            (Status::Ok, body) => Ok(body),
            (status, body) => Err(ClientError::Server(
                status,
                String::from_utf8_lossy(&body).into_owned(),
            )),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.request_ok(Op::Ping, &[]).map(|_| ())
    }

    /// Installs this connection's datasets and synthesis parameters.
    pub fn load_dataset(
        &mut self,
        train: &Dataset,
        valid: &Dataset,
        seed: u64,
        node_limit: u32,
    ) -> Result<(), ClientError> {
        let body = encode_datasets(train, valid, seed, node_limit);
        self.request_ok(Op::LoadDataset, &body).map(|_| ())
    }

    /// Registers a single-output candidate; returns its batch id.
    pub fn add_candidate(&mut self, aig: &Aig) -> Result<u32, ClientError> {
        let mut body = Vec::new();
        write_aig(aig, &mut body).expect("Vec write cannot fail");
        let resp = self.request_ok(Op::AddCandidate, &body)?;
        Wire::new(&resp).u32().map_err(ClientError::Decode)
    }

    /// Validation accuracies of every candidate (one shared simulation
    /// server-side).
    pub fn accuracies(&mut self) -> Result<Vec<f64>, ClientError> {
        let resp = self.request_ok(Op::Accuracies, &[])?;
        let mut w = Wire::new(&resp);
        let n = w.u32().map_err(ClientError::Decode)? as usize;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(w.f64().map_err(ClientError::Decode)?);
        }
        Ok(out)
    }

    /// Compiles and returns the best candidate under `node_limit` (0 =
    /// session default), honoring [`Client::deadline_ms`].
    pub fn select_best(&mut self, node_limit: u32) -> Result<SelectBestReply, ClientError> {
        let resp = self.request_ok(Op::SelectBest, &node_limit.to_le_bytes())?;
        let mut w = Wire::new(&resp);
        let partial = w.u8().map_err(ClientError::Decode)? != 0;
        let and_gates = w.u32().map_err(ClientError::Decode)?;
        let accuracy = w.f64().map_err(ClientError::Decode)?;
        let len = w.u32().map_err(ClientError::Decode)? as usize;
        let aig_bytes = w.bytes(len).map_err(ClientError::Decode)?;
        let aig = read_aig(aig_bytes).map_err(|e| ClientError::Decode(format!("{e:?}")))?;
        Ok(SelectBestReply {
            partial,
            and_gates,
            accuracy,
            aig,
        })
    }

    /// Boosts on the session's train set and registers the round prefixes
    /// as candidates; returns (first id, count).
    pub fn learn(&mut self, rounds: u32) -> Result<(u32, u32), ClientError> {
        let resp = self.request_ok(Op::Learn, &rounds.to_le_bytes())?;
        let mut w = Wire::new(&resp);
        let first = w.u32().map_err(ClientError::Decode)?;
        let count = w.u32().map_err(ClientError::Decode)?;
        Ok((first, count))
    }

    /// Server counters as JSON.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        let resp = self.request_ok(Op::Stats, &[])?;
        Ok(String::from_utf8_lossy(&resp).into_owned())
    }

    /// Asks the daemon to drain, snapshot and stop.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        self.request_ok(Op::Shutdown, &[]).map(|_| ())
    }

    /// Sends raw bytes as-is (no framing) — the fuzzer's hatch.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write;
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    /// Reads one raw response frame, if any.
    pub fn read_response(&mut self) -> Result<Option<(u32, Status, Vec<u8>)>, ClientError> {
        match read_frame(&mut self.stream, self.max_frame) {
            Ok(Some(p)) => {
                let (id, status, body) = parse_response(&p).map_err(ClientError::Decode)?;
                Ok(Some((id, status, body.to_vec())))
            }
            Ok(None) => Ok(None),
            Err(FrameError::Io(e)) => Err(ClientError::Io(e)),
            Err(FrameError::Oversized(n)) => Err(ClientError::Decode(format!("{n}B frame"))),
        }
    }
}

//! The wire protocol: length-prefixed frames over TCP, hand-rolled.
//!
//! The build environment has no registry access, so there is no serde, no
//! tonic, no tokio — the daemon speaks a deliberately small binary protocol
//! that a fuzzer can cover exhaustively:
//!
//! ```text
//! frame    := u32 LE payload length | payload
//! request  := u32 LE request id | u32 LE deadline_ms (0 = none) | u8 opcode | body
//! response := u32 LE request id | u8 status | body
//! ```
//!
//! Every decode path returns `Result`, never panics: a malformed frame is a
//! client bug the server answers with [`Status::Malformed`], not a unit of
//! work that can take a worker down. Frames above the configured limit are
//! rejected before the payload is read so a hostile length prefix cannot
//! balloon memory.

use lsml_durable::wire::Wire;
use std::io::{self, Read, Write};

/// Default cap on a single frame's payload (overridable via
/// `LSML_SERVE_MAX_FRAME`); datasets are the largest legitimate payload and
/// sit far below this.
pub const DEFAULT_MAX_FRAME: usize = 16 * 1024 * 1024;

/// Request opcodes. The numeric values are the wire format — append only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Op {
    /// Liveness / latency probe. Empty body.
    Ping = 0,
    /// Install the session's train/valid datasets (body: [`encode_datasets`]).
    LoadDataset = 1,
    /// Add one candidate circuit (body: binary AIGER, single output).
    AddCandidate = 2,
    /// Validation accuracy of every candidate from one shared simulation.
    Accuracies = 3,
    /// Pick and compile the best candidate (body: u32 node_limit, 0 = session
    /// default). Honors the request deadline with partial-best-so-far.
    SelectBest = 4,
    /// Train gradient boosting on the session's train set and register the
    /// round prefixes as candidates (body: u32 rounds).
    Learn = 5,
    /// Server counters as a JSON object. Empty body.
    Stats = 6,
    /// Graceful shutdown: drain, snapshot, stop. Empty body.
    Shutdown = 7,
}

impl Op {
    /// Decodes an opcode byte; unknown values are a malformed request.
    pub fn from_u8(b: u8) -> Option<Op> {
        Some(match b {
            0 => Op::Ping,
            1 => Op::LoadDataset,
            2 => Op::AddCandidate,
            3 => Op::Accuracies,
            4 => Op::SelectBest,
            5 => Op::Learn,
            6 => Op::Stats,
            7 => Op::Shutdown,
            _ => return None,
        })
    }

    /// Admission cost in client tokens — heavier ops spend more of a
    /// client's budget so one batch-compiling client cannot starve pingers.
    pub fn cost(self) -> u64 {
        match self {
            Op::Ping | Op::Stats | Op::Shutdown => 1,
            Op::LoadDataset | Op::AddCandidate | Op::Accuracies => 2,
            Op::SelectBest | Op::Learn => 8,
        }
    }
}

/// Response status byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Success; body is op-specific.
    Ok = 0,
    /// Load-shed at admission (queue full or client over budget). Body:
    /// UTF-8 reason. Retry later.
    Overloaded = 1,
    /// The request's deadline fired. For `SelectBest` the body may still
    /// carry a partial result (flagged in the Ok path instead when one
    /// exists); otherwise body is a UTF-8 message.
    DeadlineExceeded = 2,
    /// The request could not be decoded or violated a protocol invariant.
    Malformed = 3,
    /// The request panicked inside the engine; the worker survived. Body:
    /// UTF-8 panic message.
    Panicked = 4,
    /// A non-panic server-side failure (e.g. op needs a dataset that was
    /// never loaded). Body: UTF-8 message.
    Error = 5,
    /// The server is draining and admits no new work.
    ShuttingDown = 6,
}

impl Status {
    /// Decodes a status byte (client side).
    pub fn from_u8(b: u8) -> Option<Status> {
        Some(match b {
            0 => Status::Ok,
            1 => Status::Overloaded,
            2 => Status::DeadlineExceeded,
            3 => Status::Malformed,
            4 => Status::Panicked,
            5 => Status::Error,
            6 => Status::ShuttingDown,
            _ => return None,
        })
    }
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// Transport error (includes mid-frame EOF: the peer died between the
    /// length prefix and the payload).
    Io(io::Error),
    /// The declared length exceeds the configured cap; the stream position
    /// is still sound (nothing past the prefix was consumed) but the only
    /// safe continuation is to answer with an error and close.
    Oversized(usize),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o: {e}"),
            FrameError::Oversized(n) => write!(f, "frame of {n} bytes exceeds limit"),
        }
    }
}

/// Reads one frame. `Ok(None)` is a clean EOF **at a frame boundary** (the
/// peer hung up between requests); EOF inside a frame is an error.
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> Result<Option<Vec<u8>>, FrameError> {
    let mut len = [0u8; 4];
    // Distinguish boundary EOF from mid-prefix EOF by reading the first byte
    // separately.
    match r.read(&mut len[..1]).map_err(FrameError::Io)? {
        0 => return Ok(None),
        _ => r.read_exact(&mut len[1..]).map_err(FrameError::Io)?,
    }
    let n = u32::from_le_bytes(len) as usize;
    if n > max_frame {
        return Err(FrameError::Oversized(n));
    }
    let mut payload = vec![0u8; n];
    r.read_exact(&mut payload).map_err(FrameError::Io)?;
    Ok(Some(payload))
}

/// Writes one frame (length prefix + payload) in one write and flushes.
///
/// The client and the daemon write to unbuffered sockets with Nagle off,
/// where every write leaves as its own TCP segment: a separate write for
/// the prefix would wake the reader for four bytes, only for it to block
/// again on the payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// A parsed request header; the body follows in the frame.
#[derive(Clone, Copy, Debug)]
pub struct RequestHeader {
    /// Client-chosen id echoed in the response (clients may pipeline).
    pub req_id: u32,
    /// Deadline budget in milliseconds; 0 means none.
    pub deadline_ms: u32,
    /// What to do.
    pub op: Op,
}

/// Splits a request frame into header and body. Errors are protocol
/// violations the server answers with [`Status::Malformed`].
pub fn parse_request(payload: &[u8]) -> Result<(RequestHeader, &[u8]), String> {
    if payload.len() < 9 {
        return Err(format!(
            "request header needs 9 bytes, got {}",
            payload.len()
        ));
    }
    let req_id = u32::from_le_bytes(payload[0..4].try_into().expect("4 bytes"));
    let deadline_ms = u32::from_le_bytes(payload[4..8].try_into().expect("4 bytes"));
    let op = Op::from_u8(payload[8]).ok_or_else(|| format!("unknown opcode {}", payload[8]))?;
    Ok((
        RequestHeader {
            req_id,
            deadline_ms,
            op,
        },
        &payload[9..],
    ))
}

/// Builds a request frame payload.
pub fn encode_request(req_id: u32, deadline_ms: u32, op: Op, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(9 + body.len());
    out.extend_from_slice(&req_id.to_le_bytes());
    out.extend_from_slice(&deadline_ms.to_le_bytes());
    out.push(op as u8);
    out.extend_from_slice(body);
    out
}

/// Builds a response frame payload.
pub fn encode_response(req_id: u32, status: Status, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(5 + body.len());
    out.extend_from_slice(&req_id.to_le_bytes());
    out.push(status as u8);
    out.extend_from_slice(body);
    out
}

/// Splits a response frame into (request id, status, body).
pub fn parse_response(payload: &[u8]) -> Result<(u32, Status, &[u8]), String> {
    if payload.len() < 5 {
        return Err(format!(
            "response header needs 5 bytes, got {}",
            payload.len()
        ));
    }
    let req_id = u32::from_le_bytes(payload[0..4].try_into().expect("4 bytes"));
    let status =
        Status::from_u8(payload[4]).ok_or_else(|| format!("unknown status {}", payload[4]))?;
    Ok((req_id, status, &payload[5..]))
}

/// Packs train + valid datasets for [`Op::LoadDataset`]:
/// `u32 num_inputs | u64 seed | u32 node_limit | u32 n_train | u32 n_valid |`
/// then per example `ceil(num_inputs/8)` packed input bytes + 1 label byte.
pub fn encode_datasets(
    train: &lsml_pla::Dataset,
    valid: &lsml_pla::Dataset,
    seed: u64,
    node_limit: u32,
) -> Vec<u8> {
    assert_eq!(train.num_inputs(), valid.num_inputs(), "arity mismatch");
    let n = train.num_inputs();
    let stride = n.div_ceil(8);
    let mut out = Vec::with_capacity(20 + (train.len() + valid.len()) * (stride + 1));
    out.extend_from_slice(&(n as u32).to_le_bytes());
    out.extend_from_slice(&seed.to_le_bytes());
    out.extend_from_slice(&node_limit.to_le_bytes());
    out.extend_from_slice(&(train.len() as u32).to_le_bytes());
    out.extend_from_slice(&(valid.len() as u32).to_le_bytes());
    for ds in [train, valid] {
        for (p, label) in ds.iter() {
            let mut packed = vec![0u8; stride];
            for i in 0..n {
                if p.get(i) {
                    packed[i / 8] |= 1 << (i % 8);
                }
            }
            out.extend_from_slice(&packed);
            out.push(label as u8);
        }
    }
    out
}

/// Decodes an [`Op::LoadDataset`] body. Inverse of [`encode_datasets`].
pub fn decode_datasets(
    body: &[u8],
) -> Result<(lsml_pla::Dataset, lsml_pla::Dataset, u64, u32), String> {
    let mut w = Wire::new(body);
    let n = w.u32()? as usize;
    if n == 0 || n > 4096 {
        return Err(format!("unreasonable input count {n}"));
    }
    let seed = w.u64()?;
    let node_limit = w.u32()?;
    let n_train = w.u32()? as usize;
    let n_valid = w.u32()? as usize;
    let stride = n.div_ceil(8);
    // Reject before allocating: the remaining bytes must match exactly.
    let need = (n_train + n_valid) * (stride + 1);
    if w.remaining() != need {
        return Err(format!(
            "dataset body: expected {need} bytes of examples, have {}",
            w.remaining()
        ));
    }
    let mut read_ds = |count: usize| -> Result<lsml_pla::Dataset, String> {
        let mut ds = lsml_pla::Dataset::new(n);
        for _ in 0..count {
            let packed = w.bytes(stride)?;
            let label = w.u8()?;
            let bits: Vec<bool> = (0..n)
                .map(|i| (packed[i / 8] >> (i % 8)) & 1 == 1)
                .collect();
            ds.push(lsml_pla::Pattern::from_bools(&bits), label != 0);
        }
        Ok(ds)
    };
    let train = read_ds(n_train)?;
    let valid = read_ds(n_valid)?;
    Ok((train, valid, seed, node_limit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsml_pla::{Dataset, Pattern};

    #[test]
    fn frame_round_trip_and_boundary_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r, 64).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r, 64).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r, 64).unwrap().is_none(), "clean EOF");
    }

    /// Counts the `write` calls that reach it.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_is_one_write() {
        let mut w = CountingWriter::default();
        write_frame(&mut w, b"hello").unwrap();
        assert_eq!(w.writes, 1, "length prefix and payload in one write");
        write_frame(&mut w, b"").unwrap();
        assert_eq!(w.writes, 2);
        let mut r = &w.bytes[..];
        assert_eq!(read_frame(&mut r, 64).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r, 64).unwrap().unwrap(), b"");
    }

    #[test]
    fn oversized_and_truncated_frames_are_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[0u8; 100]).unwrap();
        match read_frame(&mut &buf[..], 10) {
            Err(FrameError::Oversized(100)) => {}
            other => panic!("wanted Oversized, got {other:?}"),
        }
        // A frame cut off mid-payload is an Io error, not a hang or a panic.
        let torn = &buf[..20];
        assert!(matches!(
            read_frame(&mut &torn[..], 1024),
            Err(FrameError::Io(_))
        ));
    }

    #[test]
    fn request_response_round_trip() {
        let p = encode_request(7, 250, Op::SelectBest, &[1, 2, 3]);
        let (h, body) = parse_request(&p).unwrap();
        assert_eq!(h.req_id, 7);
        assert_eq!(h.deadline_ms, 250);
        assert_eq!(h.op, Op::SelectBest);
        assert_eq!(body, &[1, 2, 3]);

        let r = encode_response(7, Status::Ok, b"done");
        let (id, st, body) = parse_response(&r).unwrap();
        assert_eq!((id, st), (7, Status::Ok));
        assert_eq!(body, b"done");
    }

    #[test]
    fn short_and_unknown_requests_are_malformed() {
        assert!(parse_request(&[0u8; 8]).is_err());
        assert!(parse_request(&encode_request(1, 0, Op::Ping, &[])[..8]).is_err());
        let mut bad = encode_request(1, 0, Op::Ping, &[]);
        bad[8] = 200; // unknown opcode
        assert!(parse_request(&bad).is_err());
        assert!(parse_response(&[0u8; 4]).is_err());
    }

    #[test]
    fn datasets_round_trip() {
        let mut train = Dataset::new(10);
        let mut valid = Dataset::new(10);
        for m in 0..64u64 {
            train.push(Pattern::from_index(m * 3 % 1024, 10), m % 3 == 0);
            valid.push(Pattern::from_index(m * 7 % 1024, 10), m % 2 == 0);
        }
        let body = encode_datasets(&train, &valid, 42, 5000);
        let (t2, v2, seed, limit) = decode_datasets(&body).unwrap();
        assert_eq!(seed, 42);
        assert_eq!(limit, 5000);
        assert_eq!(t2.len(), train.len());
        assert_eq!(v2.len(), valid.len());
        for i in 0..train.len() {
            assert_eq!(t2.pattern(i), train.pattern(i));
            assert_eq!(t2.output(i), train.output(i));
        }
        for i in 0..valid.len() {
            assert_eq!(v2.pattern(i), valid.pattern(i));
            assert_eq!(v2.output(i), valid.output(i));
        }
        // Truncating the examples region is rejected, not mis-read.
        assert!(decode_datasets(&body[..body.len() - 1]).is_err());
    }
}

//! The bounds-checked reader every decoder in the workspace uses: the
//! daemon's protocol frames, the cache snapshots and the sweep checkpoints.

/// A bounds-checked cursor over a byte slice. Every accessor returns
/// `Result` so truncated input surfaces as an error (a `Malformed` answer
/// in the daemon, a cold start for a snapshot), never as a slice-index
/// panic — the protocol fuzzer leans on this.
pub struct Wire<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Wire<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Wire<'a> {
        Wire { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!(
                "truncated: wanted {n} bytes, have {}",
                self.remaining()
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Takes one byte.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.bytes(1)?[0])
    }

    /// Takes a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(
            self.bytes(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Takes a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(
            self.bytes(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Takes a little-endian u128.
    pub fn u128(&mut self) -> Result<u128, String> {
        Ok(u128::from_le_bytes(
            self.bytes(16)?.try_into().expect("16 bytes"),
        ))
    }

    /// Takes a little-endian f64.
    pub fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_le_bytes(
            self.bytes(8)?.try_into().expect("8 bytes"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_cursor_never_reads_past_end() {
        let mut w = Wire::new(&[1, 2, 3]);
        assert_eq!(w.u8().unwrap(), 1);
        assert!(w.u32().is_err());
        assert_eq!(w.remaining(), 2, "failed read consumes nothing");
    }
}

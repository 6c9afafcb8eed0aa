//! Minimal binary codec for session snapshots and design-driver state.
//!
//! A hand-rolled little-endian byte stream: fixed-width integers, and
//! floats encoded via `f64::to_bits`, preserving every bit of the
//! running posteriors and Welford accumulators — a resumed session must
//! continue the exact float trajectory of the suspended one. The
//! drivers' [`DesignDriver::save_state`](crate::DesignDriver::save_state)
//! bytes and the session snapshot records that embed them share this one
//! codec.

/// Append-only writer onto a caller's byte buffer.
#[derive(Debug)]
pub struct Writer<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> Writer<'a> {
    /// A writer appending to `buf`.
    pub fn new(buf: &'a mut Vec<u8>) -> Self {
        Self { buf }
    }

    /// Raw bytes, without a length prefix.
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// An `f64` as its bit pattern, so every bit round-trips.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// A `bool` as one byte, `0` or `1`.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// A presence byte, then the value when present.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
            None => self.u8(0),
        }
    }

    /// A presence byte, then the value when present.
    pub fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.f64(x);
            }
            None => self.u8(0),
        }
    }
}

/// Cursor-based reader; every accessor fails loudly on truncated input
/// instead of panicking.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    cursor: usize,
}

/// A decoded value, or what was wrong with the bytes.
pub type ReadResult<T> = Result<T, &'static str>;

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, cursor: 0 }
    }

    fn take(&mut self, n: usize) -> ReadResult<&'a [u8]> {
        let end = self
            .cursor
            .checked_add(n)
            .ok_or("snapshot cursor overflow")?;
        let chunk = self
            .bytes
            .get(self.cursor..end)
            .ok_or("snapshot truncated")?;
        self.cursor = end;
        Ok(chunk)
    }

    /// The next `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> ReadResult<&'a [u8]> {
        self.take(n)
    }

    /// One byte.
    pub fn u8(&mut self) -> ReadResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self) -> ReadResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2b")))
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> ReadResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4b")))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> ReadResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8b")))
    }

    /// An `f64` from its bit pattern.
    pub fn f64(&mut self) -> ReadResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `bool`; any byte other than `0` or `1` is an error.
    pub fn bool(&mut self) -> ReadResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err("invalid bool byte"),
        }
    }

    /// A presence byte, then the value when present.
    pub fn opt_u64(&mut self) -> ReadResult<Option<u64>> {
        Ok(if self.bool()? {
            Some(self.u64()?)
        } else {
            None
        })
    }

    /// A presence byte, then the value when present.
    pub fn opt_f64(&mut self) -> ReadResult<Option<f64>> {
        Ok(if self.bool()? {
            Some(self.f64()?)
        } else {
            None
        })
    }

    /// A `u64` length prefix validated against a sanity cap before any
    /// allocation sized by it.
    pub fn len_capped(&mut self, cap: u64) -> ReadResult<usize> {
        let len = self.u64()?;
        if len > cap {
            return Err("snapshot length field exceeds sanity cap");
        }
        usize::try_from(len).map_err(|_| "snapshot length exceeds usize")
    }

    /// Succeeds only when every byte has been read.
    pub fn finish(self) -> ReadResult<()> {
        if self.cursor == self.bytes.len() {
            Ok(())
        } else {
            Err("trailing bytes after snapshot payload")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_primitives() {
        let mut bytes = Vec::new();
        let mut w = Writer::new(&mut bytes);
        w.bytes(b"HDR");
        w.u8(7);
        w.u16(513);
        w.u32(70_000);
        w.u64(u64::MAX - 3);
        w.f64(-0.123_456_789);
        w.bool(true);
        w.opt_u64(Some(9));
        w.opt_u64(None);
        w.opt_f64(Some(f64::NAN));

        let mut r = Reader::new(&bytes);
        assert_eq!(r.bytes(3).unwrap(), b"HDR");
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 513);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.f64().unwrap(), -0.123_456_789);
        assert!(r.bool().unwrap());
        assert_eq!(r.opt_u64().unwrap(), Some(9));
        assert_eq!(r.opt_u64().unwrap(), None);
        assert!(r.opt_f64().unwrap().unwrap().is_nan());
        r.finish().unwrap();
    }

    #[test]
    fn truncation_and_trailing_bytes_are_errors() {
        let mut bytes = Vec::new();
        Writer::new(&mut bytes).u64(1);
        let mut r = Reader::new(&bytes[..4]);
        assert!(r.u64().is_err());
        let mut r2 = Reader::new(&bytes);
        let _ = r2.u32().unwrap();
        assert!(r2.finish().is_err(), "4 bytes left unread");
    }

    #[test]
    fn length_caps_guard_allocations() {
        let mut bytes = Vec::new();
        Writer::new(&mut bytes).u64(1 << 40);
        let mut r = Reader::new(&bytes);
        assert!(r.len_capped(1 << 20).is_err());
    }
}

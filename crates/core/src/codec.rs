//! Exact binary (de)serialization of point values for the result store.
//!
//! The predictor's harvest persists its training pairs through
//! [`crate::campaign::Experiment::encode_value`] /
//! [`crate::campaign::Experiment::decode_value`] with this little
//! writer/reader pair; the campaign engine writes each stored value's
//! outcome header, and the predictor its model files, with it too. The
//! format is deliberately dumb: fixed-width
//! little-endian fields appended in declaration order, floats as raw IEEE
//! bits ([`f64::to_bits`]) so a restored value is **bit-identical** to the
//! computed one — the property the resume byte-identity guarantee rests
//! on. No self-description: the store key carries the experiment name and
//! a format version, and [`Dec::finish`] rejects length mismatches, so a
//! layout change simply invalidates old entries (they are recomputed).

/// Append-only binary writer.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Empty writer.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// Append a `u8`.
    pub fn u8(&mut self, v: u8) -> &mut Enc {
        self.buf.push(v);
        self
    }

    /// Append a `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Enc {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Enc {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append an `f64` as its exact IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Enc {
        self.u64(v.to_bits())
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) -> &mut Enc {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v.as_bytes());
        self
    }

    /// Append a length-prefixed `f64` slice (exact bits).
    pub fn f64s(&mut self, vs: &[f64]) -> &mut Enc {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.f64(v);
        }
        self
    }

    /// Finish, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Fallible sequential reader over bytes produced by [`Enc`]. Every getter
/// returns `None` on underrun instead of panicking: a short or stale entry
/// decodes to `None` and the point is recomputed.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Reader over `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.buf.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(s)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// Read a `usize` (stored as `u64`; rejects values over `usize::MAX`).
    pub fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }

    /// Read an `f64` from its exact bit pattern.
    pub fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Option<String> {
        let n = self.usize()?;
        String::from_utf8(self.take(n)?.to_vec()).ok()
    }

    /// Read a length-prefixed `f64` vector (exact bits).
    pub fn f64s(&mut self) -> Option<Vec<f64>> {
        let n = self.usize()?;
        // Guard the allocation against a corrupt length prefix.
        if n > self.buf.len().saturating_sub(self.pos) / 8 {
            return None;
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.f64()?);
        }
        Some(out)
    }

    /// Consume and return every remaining byte (for nested payloads whose
    /// inner layout is decoded by someone else).
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    /// Succeeds only if every byte was consumed — trailing bytes mean the
    /// entry was written by a different layout and must not be trusted.
    pub fn finish<T>(self, value: T) -> Option<T> {
        if self.pos == self.buf.len() {
            Some(value)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_field_kinds() {
        let mut e = Enc::new();
        e.u8(7)
            .u32(0xDEAD_BEEF)
            .u64(u64::MAX)
            .u64(42)
            .f64(-0.0)
            .f64(f64::NAN)
            .str("héllo")
            .f64s(&[1.5, f64::INFINITY, 1e-300]);
        let mut bytes = e.into_bytes();
        bytes.extend_from_slice(b"tail");
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8(), Some(7));
        assert_eq!(d.u32(), Some(0xDEAD_BEEF));
        assert_eq!(d.u64(), Some(u64::MAX));
        assert_eq!(d.usize(), Some(42));
        assert_eq!(d.f64().map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert_eq!(d.f64().map(f64::to_bits), Some(f64::NAN.to_bits()));
        assert_eq!(d.str(), Some("héllo".to_string()));
        let vs = d.f64s().unwrap();
        assert_eq!(vs.len(), 3);
        assert_eq!(vs[0], 1.5);
        assert!(vs[1].is_infinite());
        assert_eq!(d.rest(), b"tail");
        assert_eq!(d.finish(()), Some(()));
    }

    #[test]
    fn underrun_and_trailing_bytes_are_rejected() {
        let mut e = Enc::new();
        e.f64s(&[1.0, 2.0]);
        let bytes = e.into_bytes();
        // Underrun: truncated buffer fails cleanly.
        let mut d = Dec::new(&bytes[..bytes.len() - 1]);
        assert_eq!(d.f64s(), None);
        // Trailing bytes: finish refuses.
        let mut d = Dec::new(&bytes);
        let _ = d.f64s().unwrap();
        let mut with_tail = bytes.clone();
        with_tail.push(0);
        let mut d2 = Dec::new(&with_tail);
        let v = d2.f64s().unwrap();
        assert_eq!(d2.finish(v), None);
    }

    #[test]
    fn corrupt_length_prefix_does_not_overallocate() {
        let mut e = Enc::new();
        e.u64(u64::MAX); // absurd element count
        let bytes = e.into_bytes();
        assert_eq!(Dec::new(&bytes).f64s(), None);
        // A string length that would overflow the read cursor.
        let mut e = Enc::new();
        e.u8(1).u64(u64::MAX);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8(), Some(1));
        assert_eq!(d.str(), None);
    }
}

//! Little-endian wire primitives and the [`Codec`] trait.
//!
//! Floats are stored as their IEEE-754 bit patterns (`f64::to_bits`), so a
//! decoded value is *bitwise* identical to what was encoded — the property
//! behind the "loaded model predicts bit-for-bit like the in-memory model"
//! guarantee. All lengths are `u64` prefixes and every read is
//! bounds-checked against the remaining input, so corrupted or truncated
//! payloads fail with a typed error instead of a panic or a huge
//! allocation.

use crate::ArtifactError;

/// Append-only byte sink used by [`Codec::encode`].
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Raw bytes, no length prefix.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `usize` widened to a `u64`.
    pub fn len_prefix(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Starts a `u64` length prefix whose value is not known yet: writes a
    /// placeholder and returns where it sits. The bytes written until
    /// [`close_len_prefix`](Self::close_len_prefix) are what it counts, so
    /// a body goes straight into this buffer instead of through one of its
    /// own.
    pub fn open_len_prefix(&mut self) -> usize {
        let at = self.buf.len();
        self.u64(0);
        at
    }

    /// Patches the placeholder at `at` (from
    /// [`open_len_prefix`](Self::open_len_prefix)) with the number of
    /// bytes written after it.
    pub fn close_len_prefix(&mut self, at: usize) {
        let len = (self.buf.len() - at - 8) as u64;
        self.buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }

    /// IEEE-754 bit pattern of an `f64` (bitwise round-trip, NaN included).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.len_prefix(s.len());
        self.raw(s.as_bytes());
    }
}

/// Bounds-checked cursor over an encoded payload.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes exactly `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ArtifactError> {
        if n > self.remaining() {
            return Err(ArtifactError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, ArtifactError> {
        Ok(self.take(1)?[0])
    }

    /// Little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, ArtifactError> {
        let b = self.take(4)?;
        // audit: unwrap-ok(read_exact filled a 4-byte buffer)
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, ArtifactError> {
        let b = self.take(8)?;
        // audit: unwrap-ok(read_exact filled an 8-byte buffer)
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// A `u64` length prefix, validated to fit `usize` and to not exceed
    /// the remaining input when each element occupies at least
    /// `min_element_bytes` bytes (prevents huge allocations from corrupted
    /// lengths).
    pub fn len_prefix(&mut self, min_element_bytes: usize) -> Result<usize, ArtifactError> {
        let n = self.u64()?;
        let n = usize::try_from(n).map_err(|_| ArtifactError::Malformed {
            reason: format!("length prefix {n} exceeds usize"),
        })?;
        let needed = n.saturating_mul(min_element_bytes.max(1));
        if needed > self.remaining() {
            return Err(ArtifactError::Truncated {
                needed,
                available: self.remaining(),
            });
        }
        Ok(n)
    }

    /// `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, ArtifactError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Bool from one byte; any value other than 0/1 is malformed.
    pub fn bool(&mut self) -> Result<bool, ArtifactError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(ArtifactError::Malformed {
                reason: format!("invalid bool byte {v}"),
            }),
        }
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, ArtifactError> {
        let n = self.len_prefix(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ArtifactError::Malformed {
            reason: "string is not valid UTF-8".into(),
        })
    }

    /// Fails unless every byte has been consumed — trailing garbage means
    /// the payload was produced by a different (newer) format.
    pub fn finish(&self) -> Result<(), ArtifactError> {
        if self.remaining() != 0 {
            return Err(ArtifactError::Malformed {
                reason: format!("{} trailing bytes after decode", self.remaining()),
            });
        }
        Ok(())
    }
}

/// A type that can round-trip through the artifact wire format.
///
/// `decode(encode(x)) == x` must hold exactly (bitwise for floats). Foreign
/// crates implement this for their own types next to the type definition,
/// so private fields serialize without widening their visibility.
pub trait Codec: Sized {
    /// Appends this value's encoding to `w`.
    fn encode(&self, w: &mut Writer);
    /// Decodes one value, consuming exactly the bytes `encode` produced.
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError>;
}

impl Codec for u8 {
    fn encode(&self, w: &mut Writer) {
        w.u8(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        r.u8()
    }
}

impl Codec for u32 {
    fn encode(&self, w: &mut Writer) {
        w.u32(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        r.u32()
    }
}

impl Codec for u64 {
    fn encode(&self, w: &mut Writer) {
        w.u64(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        r.u64()
    }
}

impl Codec for usize {
    fn encode(&self, w: &mut Writer) {
        w.u64(*self as u64);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        let v = r.u64()?;
        usize::try_from(v).map_err(|_| ArtifactError::Malformed {
            reason: format!("value {v} exceeds usize"),
        })
    }
}

impl Codec for f64 {
    fn encode(&self, w: &mut Writer) {
        w.f64(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        r.f64()
    }
}

impl Codec for bool {
    fn encode(&self, w: &mut Writer) {
        w.bool(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        r.bool()
    }
}

impl Codec for String {
    fn encode(&self, w: &mut Writer) {
        w.str(self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        r.str()
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.len_prefix(self.len());
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        let n = r.len_prefix(1)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            v => Err(ArtifactError::Malformed {
                reason: format!("invalid option tag {v}"),
            }),
        }
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(v: T) {
        let mut w = Writer::new();
        v.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(T::decode(&mut r).unwrap(), v);
        r.finish().unwrap();
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(usize::MAX);
        roundtrip(core::f64::consts::PI);
        roundtrip(-0.0f64);
        roundtrip(f64::INFINITY);
        roundtrip(true);
        roundtrip(false);
        roundtrip(String::from("epa-net"));
        roundtrip(String::new());
        roundtrip(vec![1.5f64, -2.5, 0.0]);
        roundtrip(Vec::<u64>::new());
        roundtrip(Some(7u64));
        roundtrip(None::<f64>);
        roundtrip((3.5f64, -1.25f64));
    }

    #[test]
    fn nan_bit_pattern_survives() {
        let v = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
        let mut w = Writer::new();
        v.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = f64::decode(&mut r).unwrap();
        assert_eq!(back.to_bits(), v.to_bits());
    }

    #[test]
    fn truncated_input_is_rejected() {
        let mut w = Writer::new();
        vec![1.0f64; 4].encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..bytes.len() - 3]);
        assert!(Vec::<f64>::decode(&mut r).is_err());
    }

    #[test]
    fn corrupt_length_prefix_does_not_allocate() {
        // A length prefix of u64::MAX must fail the remaining-bytes check,
        // not attempt a huge Vec::with_capacity.
        let mut w = Writer::new();
        w.u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            Vec::<f64>::decode(&mut r),
            Err(ArtifactError::Truncated { .. } | ArtifactError::Malformed { .. })
        ));
    }

    #[test]
    fn invalid_bool_and_option_tags_rejected() {
        let mut r = Reader::new(&[2]);
        assert!(bool::decode(&mut r).is_err());
        let mut r = Reader::new(&[9, 0]);
        assert!(Option::<u8>::decode(&mut r).is_err());
    }

    #[test]
    fn trailing_bytes_rejected_by_finish() {
        let bytes = [1u8, 2, 3];
        let mut r = Reader::new(&bytes);
        let _ = r.u8().unwrap();
        assert!(r.finish().is_err());
    }
}

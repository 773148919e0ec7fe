//! Binary model artifacts: a versioned, checksummed, self-describing
//! container format (std-only, no external deps).
//!
//! Phase I of the pipeline is expensive — the paper's profile model distills
//! 20 000 simulated failure scenarios — so a trained model must outlive the
//! process that trained it. This crate provides the storage layer: a small
//! wire format ([`Codec`]/[`Reader`]/[`Writer`]) with bitwise-exact float
//! round-trips, a CRC-32 trailer ([`crc32`]) that rejects any single-byte
//! corruption, and a named
//! **section** container so an artifact describes its own layout.
//!
//! ## Container layout
//!
//! ```text
//! magic    8 bytes   b"AQUAPROF"
//! version  u32 LE    FORMAT_VERSION
//! length   u64 LE    payload byte count
//! payload  [u8]      section table (see below)
//! crc32    u32 LE    CRC-32 over everything above
//! ```
//!
//! The payload is a section table: a `u32` section count, then per section
//! a length-prefixed UTF-8 name, a `u64` byte length, and that many bytes.
//! Readers declare the section names they understand; a section name they
//! don't recognise is a **hard error** ([`ArtifactError::UnknownSection`]),
//! as is a container version other than [`FORMAT_VERSION`]. Forward
//! compatibility is deliberately strict: an artifact written by a newer
//! format never half-loads.
//!
//! Higher layers (`aqua-core::artifact`) define *what* goes in each section;
//! each owning crate implements [`Codec`] for its own types so private
//! model state serializes without widening visibility.

mod crc;
mod wire;

pub use crc::crc32;
pub use wire::{Codec, Reader, Writer};

/// Leading magic bytes of every artifact container.
pub const MAGIC: &[u8; 8] = b"AQUAPROF";

/// Current container format version. Bump on any incompatible layout
/// change; readers reject every other version.
///
/// History: v1 — initial layout; v2 — tree configs gained a split-strategy
/// field and gradient boosting gained early-stopping state (ml crate
/// histogram training rework); v3 — the sensing fault model gained the
/// malicious coordinated-bias fields (rate, bias, onset).
pub const FORMAT_VERSION: u32 = 3;

/// Why an artifact failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// Input ended before a read completed.
    Truncated {
        /// Bytes the read needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The container does not start with [`MAGIC`].
    BadMagic,
    /// The container was written by a different format version.
    VersionMismatch {
        /// Version found in the container.
        found: u32,
        /// Version this reader supports.
        supported: u32,
    },
    /// The CRC-32 trailer does not match the container bytes.
    ChecksumMismatch {
        /// Checksum recorded in the trailer.
        stored: u32,
        /// Checksum computed over the received bytes.
        computed: u32,
    },
    /// The payload carries a section this reader does not understand
    /// (an unknown field, in record terms).
    UnknownSection {
        /// The unrecognised section name.
        name: String,
    },
    /// A section the reader requires is absent.
    MissingSection {
        /// The absent section name.
        name: String,
    },
    /// Structurally invalid bytes inside an otherwise well-formed container.
    Malformed {
        /// Human-readable description.
        reason: String,
    },
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Truncated { needed, available } => {
                write!(
                    f,
                    "truncated artifact: needed {needed} bytes, had {available}"
                )
            }
            ArtifactError::BadMagic => write!(f, "not an AquaSCALE artifact (bad magic)"),
            ArtifactError::VersionMismatch { found, supported } => {
                write!(
                    f,
                    "artifact format version {found} (reader supports {supported})"
                )
            }
            ArtifactError::ChecksumMismatch { stored, computed } => write!(
                f,
                "artifact checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            ArtifactError::UnknownSection { name } => {
                write!(f, "artifact carries unknown section {name:?}")
            }
            ArtifactError::MissingSection { name } => {
                write!(f, "artifact is missing required section {name:?}")
            }
            ArtifactError::Malformed { reason } => write!(f, "malformed artifact: {reason}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

/// Validates magic, version, length and checksum; returns the payload.
pub fn decode_container(bytes: &[u8]) -> Result<&[u8], ArtifactError> {
    let header = MAGIC.len() + 4 + 8;
    if bytes.len() < header + 4 {
        return Err(ArtifactError::Truncated {
            needed: header + 4,
            available: bytes.len(),
        });
    }
    // Checksum first: a corrupted magic/version/length field should report
    // as corruption, not as a confusing structural error.
    let (body, trailer) = bytes.split_at(bytes.len() - 4);
    // audit: unwrap-ok(length checked against the 4-byte trailer split above)
    let stored = u32::from_le_bytes(trailer.try_into().expect("4 bytes"));
    let computed = crc32(body);
    if stored != computed {
        return Err(ArtifactError::ChecksumMismatch { stored, computed });
    }
    if &body[..MAGIC.len()] != MAGIC {
        return Err(ArtifactError::BadMagic);
    }
    // audit: unwrap-ok(slice is exactly 4 bytes by construction)
    let version = u32::from_le_bytes(body[MAGIC.len()..MAGIC.len() + 4].try_into().expect("4"));
    if version != FORMAT_VERSION {
        return Err(ArtifactError::VersionMismatch {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    // audit: unwrap-ok(slice is exactly 8 bytes by construction)
    let len = u64::from_le_bytes(body[MAGIC.len() + 4..header].try_into().expect("8"));
    let payload = &body[header..];
    if payload.len() as u64 != len {
        return Err(ArtifactError::Malformed {
            reason: format!("payload length {} != recorded {len}", payload.len()),
        });
    }
    Ok(payload)
}

/// Writes a container in one buffer: the header, then each section
/// straight after the last, then the checksum. The payload length, the
/// section count and each section's length start as placeholders and are
/// patched once known, so no section or payload is ever copied.
#[derive(Debug)]
pub struct SectionWriter {
    out: Writer,
    names: Vec<String>,
}

/// Where the payload length sits: after the magic and the version.
const PAYLOAD_LEN_AT: usize = MAGIC.len() + 4;

impl Default for SectionWriter {
    fn default() -> Self {
        let mut out = Writer::new();
        out.raw(MAGIC);
        out.u32(FORMAT_VERSION);
        out.u64(0); // payload length
        out.u32(0); // section count
        SectionWriter {
            out,
            names: Vec::new(),
        }
    }
}

impl SectionWriter {
    /// An empty section table.
    pub fn new() -> Self {
        SectionWriter::default()
    }

    /// Appends a section whose body `write` writes. Names must be unique;
    /// order is preserved and is part of the canonical encoding.
    pub fn section(&mut self, name: &str, write: impl FnOnce(&mut Writer)) {
        assert!(
            self.names.iter().all(|n| n != name),
            "duplicate section {name:?}"
        );
        self.names.push(name.to_string());
        self.out.str(name);
        let body = self.out.open_len_prefix();
        write(&mut self.out);
        self.out.close_len_prefix(body);
    }

    /// Patches the payload length and the section count, and appends the
    /// checksum: the finished container.
    pub fn into_container(self) -> Vec<u8> {
        let mut bytes = self.out.into_bytes();
        let payload = (bytes.len() - PAYLOAD_LEN_AT - 8) as u64;
        bytes[PAYLOAD_LEN_AT..PAYLOAD_LEN_AT + 8].copy_from_slice(&payload.to_le_bytes());
        let count = self.names.len() as u32;
        bytes[PAYLOAD_LEN_AT + 8..PAYLOAD_LEN_AT + 12].copy_from_slice(&count.to_le_bytes());
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    }
}

/// Parses a container's section table, rejecting sections outside `known`.
#[derive(Debug)]
pub struct SectionReader<'a> {
    sections: Vec<(String, &'a [u8])>,
}

impl<'a> SectionReader<'a> {
    /// Decodes the container and its section table. Any section whose name
    /// is not in `known` fails with [`ArtifactError::UnknownSection`] —
    /// artifacts from a future format version never half-load.
    pub fn open(bytes: &'a [u8], known: &[&str]) -> Result<Self, ArtifactError> {
        let payload = decode_container(bytes)?;
        let mut r = Reader::new(payload);
        let count = r.u32()?;
        let mut sections = Vec::with_capacity(count.min(64) as usize);
        for _ in 0..count {
            let name = r.str()?;
            if !known.contains(&name.as_str()) {
                return Err(ArtifactError::UnknownSection { name });
            }
            if sections.iter().any(|(n, _): &(String, _)| *n == name) {
                return Err(ArtifactError::Malformed {
                    reason: format!("duplicate section {name:?}"),
                });
            }
            let len = r.len_prefix(1)?;
            sections.push((name, r.take(len)?));
        }
        r.finish()?;
        Ok(SectionReader { sections })
    }

    /// A reader over the named section's bytes, or `MissingSection`.
    pub fn section(&self, name: &str) -> Result<Reader<'a>, ArtifactError> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, bytes)| Reader::new(bytes))
            .ok_or_else(|| ArtifactError::MissingSection { name: name.into() })
    }

    /// Whether the named section is present.
    pub fn has(&self, name: &str) -> bool {
        self.sections.iter().any(|(n, _)| n == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_container() -> Vec<u8> {
        let mut sw = SectionWriter::new();
        sw.section("meta", |meta| {
            meta.str("epa-net");
            meta.u64(91);
        });
        sw.section("weights", |w| vec![1.5f64, -2.25, 0.0].encode(w));
        sw.into_container()
    }

    /// The container as the section table was laid out before sections
    /// were written in place: each body in a buffer of its own, the table
    /// in another, then the header and checksum around a copy of it.
    fn copied_container(sections: &[(&str, Vec<u8>)]) -> Vec<u8> {
        let mut table = Writer::new();
        table.u32(sections.len() as u32);
        for (name, body) in sections {
            table.str(name);
            table.len_prefix(body.len());
            table.raw(body);
        }
        let payload = table.into_bytes();
        let mut out = MAGIC.to_vec();
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&payload);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    #[test]
    fn sections_written_in_place_give_the_copied_layout() {
        let mut meta = Writer::new();
        meta.str("epa-net");
        meta.u64(91);
        let mut weights = Writer::new();
        vec![1.5f64, -2.25, 0.0].encode(&mut weights);
        let expected = copied_container(&[
            ("meta", meta.into_bytes()),
            ("weights", weights.into_bytes()),
        ]);
        assert_eq!(sample_container(), expected);
        assert_eq!(SectionWriter::new().into_container(), copied_container(&[]));
        let mut empty_body = SectionWriter::new();
        empty_body.section("meta", |_| {});
        assert_eq!(
            empty_body.into_container(),
            copied_container(&[("meta", Vec::new())])
        );
    }

    #[test]
    fn container_roundtrip() {
        let bytes = sample_container();
        let sr = SectionReader::open(&bytes, &["meta", "weights"]).unwrap();
        let mut meta = sr.section("meta").unwrap();
        assert_eq!(meta.str().unwrap(), "epa-net");
        assert_eq!(meta.u64().unwrap(), 91);
        meta.finish().unwrap();
        let mut w = sr.section("weights").unwrap();
        assert_eq!(Vec::<f64>::decode(&mut w).unwrap(), vec![1.5, -2.25, 0.0]);
        assert!(sr.has("meta"));
        assert!(!sr.has("baseline"));
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        let bytes = sample_container();
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x01;
            assert!(
                SectionReader::open(&corrupt, &["meta", "weights"]).is_err(),
                "corruption at byte {i} slipped through"
            );
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut bytes = sample_container();
        // Patch the version field and re-seal the checksum so only the
        // version check can object.
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        let n = bytes.len();
        let crc = crc32(&bytes[..n - 4]);
        bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            SectionReader::open(&bytes, &["meta", "weights"]).unwrap_err(),
            ArtifactError::VersionMismatch {
                found: 99,
                supported: FORMAT_VERSION
            }
        );
    }

    #[test]
    fn unknown_section_is_rejected() {
        let bytes = sample_container();
        let err = SectionReader::open(&bytes, &["meta"]).unwrap_err();
        assert_eq!(
            err,
            ArtifactError::UnknownSection {
                name: "weights".into()
            }
        );
    }

    #[test]
    fn missing_section_is_reported() {
        let bytes = sample_container();
        let sr = SectionReader::open(&bytes, &["meta", "weights", "baseline"]).unwrap();
        assert!(matches!(
            sr.section("baseline"),
            Err(ArtifactError::MissingSection { .. })
        ));
    }

    #[test]
    fn bad_magic_and_truncation_are_rejected() {
        let bytes = sample_container();
        let mut bad = bytes.clone();
        bad[0] = b'X';
        // Checksum catches it first (magic is under the CRC); re-seal to
        // reach the magic check itself.
        let n = bad.len();
        let crc = crc32(&bad[..n - 4]);
        bad[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            SectionReader::open(&bad, &["meta", "weights"]).unwrap_err(),
            ArtifactError::BadMagic
        );
        assert!(matches!(
            decode_container(&bytes[..10]),
            Err(ArtifactError::Truncated { .. })
        ));
    }
}

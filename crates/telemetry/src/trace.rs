//! Cross-process trace identity: deterministic trace/span ids and their
//! `x-aqua-trace` wire form.
//!
//! A [`TraceContext`] names one request's causal chain across the fleet:
//! the router mints a root context as a **pure hash of
//! `(seed, request ordinal)`** (splitmix64, the same finalizer the chaos
//! plan and rendezvous router use), every hop derives child spans by
//! hashing `(trace_id, parent span, hop key)`, and the context crosses
//! process boundaries in one HTTP header. No randomness, no clocks: the
//! same seed and request order reproduce the same ids byte-for-byte,
//! which is what lets the chaos benches assert stitched traces are
//! identical across runs.
//!
//! Wire format (`x-aqua-trace` header value):
//!
//! ```text
//! <trace_id:016x>-<span_id:016x>-<ordinal:decimal>
//! ```
//!
//! The sender writes its *own* span id; the receiver adopts it as the
//! parent and derives a fresh span id for its server-side work
//! ([`TraceContext::from_header`]). Events emitted under a traced
//! [`TelemetryCtx`](crate::TelemetryCtx) carry three extra string fields —
//! [`FIELD_TRACE`], [`FIELD_SPAN`], [`FIELD_PARENT`] (zero-padded hex) —
//! which is all the [`TraceStitcher`](crate::TraceStitcher) needs to
//! rebuild the tree.

use crate::hash::splitmix64;

/// The HTTP header carrying a [`TraceContext`] between processes.
pub const TRACE_HEADER: &str = "x-aqua-trace";

/// Event field holding the trace id (16-digit hex).
pub const FIELD_TRACE: &str = "trace";
/// Event field holding the emitting span's id (16-digit hex).
pub const FIELD_SPAN: &str = "span";
/// Event field holding the parent span id (16-digit hex; all zeros at the
/// root).
pub const FIELD_PARENT: &str = "parent";

/// Derives a span id from its trace, parent and a per-hop key. Non-zero:
/// zero is reserved to mean "no parent" (the root).
fn derive_span(trace_id: u64, parent: u64, key: u64) -> u64 {
    splitmix64(trace_id ^ parent.rotate_left(17) ^ splitmix64(key ^ 0x5bad_c0de_5ee1_ab1e)).max(1)
}

/// One request's position in a distributed trace: which trace it belongs
/// to, which span is currently executing, and who that span's parent is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Identity of the whole request chain, shared by every hop.
    pub trace_id: u64,
    /// The currently-executing span (stamped on emitted events; becomes
    /// the parent of derived children and of the next hop over HTTP).
    pub span_id: u64,
    /// Parent of the current span; `0` at the root.
    pub parent_span_id: u64,
    /// The request ordinal the trace was minted from — the deterministic
    /// sort key for stitched timelines (events carry no timestamps).
    pub ordinal: u64,
}

impl TraceContext {
    /// Mints the root context for request number `ordinal` under `seed`.
    /// Pure: the same `(seed, ordinal)` always yields the same ids.
    pub fn root(seed: u64, ordinal: u64) -> TraceContext {
        let trace_id = splitmix64(seed ^ splitmix64(ordinal ^ 0x0aaa_a7ca_ce00_1d5e)).max(1);
        TraceContext {
            trace_id,
            span_id: derive_span(trace_id, 0, 0),
            parent_span_id: 0,
            ordinal,
        }
    }

    /// A child span under the current one. `key` disambiguates siblings
    /// (e.g. the failover attempt index); reusing a key under the same
    /// parent aliases the spans.
    pub fn child(&self, key: u64) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            span_id: derive_span(self.trace_id, self.span_id, key.wrapping_add(1)),
            parent_span_id: self.span_id,
            ordinal: self.ordinal,
        }
    }

    /// The `x-aqua-trace` header value announcing this context to the next
    /// hop (our span id travels as the receiver's parent).
    pub fn header_value(&self) -> String {
        let mut s = String::with_capacity(54);
        s.push_str(&hex16(self.trace_id));
        s.push('-');
        s.push_str(&hex16(self.span_id));
        s.push('-');
        s.push_str(&self.ordinal.to_string());
        s
    }

    /// Parses a received header value into the *receiver's* context: the
    /// sender's span becomes the parent and a fresh server-side span id is
    /// derived. Returns `None` on any malformed input (tracing is best
    /// effort — a bad header degrades to an untraced request, never a 400).
    pub fn from_header(value: &str) -> Option<TraceContext> {
        let mut parts = value.trim().splitn(3, '-');
        let trace_id = u64::from_str_radix(parts.next()?, 16).ok()?;
        let parent = u64::from_str_radix(parts.next()?, 16).ok()?;
        let ordinal = parts.next()?.parse::<u64>().ok()?;
        Some(TraceContext {
            trace_id,
            span_id: derive_span(trace_id, parent, 0),
            parent_span_id: parent,
            ordinal,
        })
    }

    /// The trace id as the zero-padded hex used in event fields and the
    /// `/v1/traces/{trace_id}` path.
    pub fn trace_hex(&self) -> String {
        hex16(self.trace_id)
    }
}

/// Zero-padded 16-digit lowercase hex. Identical output to
/// `format!("{v:016x}")` but a direct nibble loop: the per-event stamping
/// path formats three of these per emission, and skipping the `core::fmt`
/// machinery is a measurable share of the tracing-overhead budget.
#[must_use]
pub fn hex16(v: u64) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(16);
    for i in 0..16 {
        out.push(DIGITS[((v >> (4 * (15 - i))) & 0xf) as usize] as char);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex16_matches_format_machinery() {
        for v in [
            0u64,
            1,
            0xf,
            0x10,
            0xdead_beef,
            u64::MAX,
            0x0123_4567_89ab_cdef,
        ] {
            assert_eq!(hex16(v), format!("{v:016x}"));
        }
    }

    #[test]
    fn roots_are_pure_in_seed_and_ordinal() {
        assert_eq!(TraceContext::root(7, 3), TraceContext::root(7, 3));
        assert_ne!(
            TraceContext::root(7, 3).trace_id,
            TraceContext::root(7, 4).trace_id
        );
        assert_ne!(
            TraceContext::root(7, 3).trace_id,
            TraceContext::root(8, 3).trace_id
        );
        let root = TraceContext::root(7, 3);
        assert_eq!(root.parent_span_id, 0);
        assert_ne!(root.span_id, 0);
        assert_eq!(root.ordinal, 3);
    }

    #[test]
    fn children_link_to_their_parent_and_keys_disambiguate() {
        let root = TraceContext::root(1, 0);
        let a = root.child(0);
        let b = root.child(1);
        assert_eq!(a.trace_id, root.trace_id);
        assert_eq!(a.parent_span_id, root.span_id);
        assert_ne!(a.span_id, b.span_id, "sibling keys must differ");
        assert_eq!(a, root.child(0), "derivation must be pure");
        let grandchild = a.child(0);
        assert_eq!(grandchild.parent_span_id, a.span_id);
    }

    #[test]
    fn header_round_trips_into_the_receiver_view() {
        let sender = TraceContext::root(7, 12).child(2);
        let header = sender.header_value();
        let receiver = TraceContext::from_header(&header).expect("parse");
        assert_eq!(receiver.trace_id, sender.trace_id);
        assert_eq!(receiver.parent_span_id, sender.span_id);
        assert_eq!(receiver.ordinal, sender.ordinal);
        assert_ne!(receiver.span_id, sender.span_id);
        // Parsing the same header twice derives the same server span.
        assert_eq!(TraceContext::from_header(&header), Some(receiver));
    }

    #[test]
    fn malformed_headers_degrade_to_none() {
        for bad in ["", "zz-aa-1", "0123", "1-2", "01-02-notanumber", "--"] {
            assert_eq!(TraceContext::from_header(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn trace_hex_is_zero_padded() {
        let mut ctx = TraceContext::root(1, 1);
        ctx.trace_id = 0xab;
        assert_eq!(ctx.trace_hex(), "00000000000000ab");
    }
}

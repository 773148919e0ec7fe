//! The session wire format: ingest bodies in, detections bodies out.
//!
//! Each payload has one encoder and one decoder, and both live here, so
//! the server, the client helpers, the campaign replay and the tests all
//! speak the same format.
//!
//! ```text
//! POST /v1/sessions/{id}/ingest
//! {"batches":[{"time":900,"readings":[41.5,null,0.012]}]}
//!
//! GET /v1/sessions/{id}/detections
//! {"session":"epa","network":"EPA-NET","slots":11,"channels":3,
//!  "quarantined":[],"detections":[{"time":3600,"leak_nodes":["J-34"],
//!  "latency_s":0.0004,"quarantined":[]}]}
//! ```
//!
//! A finite reading is written in Rust's shortest round-trip form, so it
//! decodes to the same bits; `null` is a dropped reading.

use std::fmt::Write as _;

use aqua_core::HostedSession;

use crate::json::{escape, num, Json};

/// One ingest batch: `(slot time, per-channel readings)`, `None` for a
/// dropped reading.
pub(crate) type Batch = (u64, Vec<Option<f64>>);

/// Detections as `(time, leak-node names)` — the cross-transport parity
/// currency.
pub type Detections = Vec<(u64, Vec<String>)>;

/// Encodes `batches` as an ingest body. A non-finite reading, which JSON
/// cannot carry, is sent as `null`, i.e. dropped.
pub fn ingest_body<R: AsRef<[Option<f64>]>>(batches: &[(u64, R)]) -> String {
    let mut out = String::from("{\"batches\":[");
    for (i, (time, readings)) in batches.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"time\":{time},\"readings\":[");
        for (ch, reading) in readings.as_ref().iter().enumerate() {
            if ch > 0 {
                out.push(',');
            }
            match reading {
                Some(v) if v.is_finite() => {
                    let _ = write!(out, "{v}");
                }
                _ => out.push_str("null"),
            }
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// Decodes an ingest body into its batches.
///
/// # Errors
///
/// A message naming the first problem: not UTF-8, not JSON, no `batches`
/// array, or a batch without a valid `time` or a `readings` array of
/// numbers and nulls.
pub(crate) fn parse_batches(body: &[u8]) -> Result<Vec<Batch>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let doc = Json::parse(text).map_err(|e| format!("bad JSON: {e}"))?;
    let batches = doc
        .get("batches")
        .and_then(Json::as_arr)
        .ok_or("missing \"batches\" array")?;
    let mut out = Vec::with_capacity(batches.len());
    for (i, batch) in batches.iter().enumerate() {
        let time = batch
            .get("time")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("batch {i}: missing or invalid \"time\""))?;
        let readings = batch
            .get("readings")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("batch {i}: missing \"readings\" array"))?;
        let mut values = Vec::with_capacity(readings.len());
        for (ch, reading) in readings.iter().enumerate() {
            values.push(match reading {
                Json::Null => None,
                Json::Num(v) => Some(*v),
                _ => return Err(format!("batch {i}: reading {ch} is not a number or null")),
            });
        }
        out.push((time, values));
    }
    Ok(out)
}

/// Encodes a hosted session's detections, quarantine state and counters
/// as the detections body served for session `id`.
pub(crate) fn detections_body(id: &str, session: &HostedSession) -> String {
    let mut entries = Vec::with_capacity(session.detections().len());
    for d in session.detections() {
        let nodes: Vec<String> = d
            .leak_nodes
            .iter()
            .map(|&n| escape(&session.network().node(n).name))
            .collect();
        let quarantined: Vec<String> = d.quarantined.iter().map(|q| q.to_string()).collect();
        entries.push(format!(
            "{{\"time\":{},\"leak_nodes\":[{}],\"latency_s\":{},\"quarantined\":[{}]}}",
            d.time,
            nodes.join(","),
            num(d.latency.as_secs_f64()),
            quarantined.join(",")
        ));
    }
    let quarantined: Vec<String> = session
        .state()
        .quarantined_channels()
        .iter()
        .map(|q| q.to_string())
        .collect();
    format!(
        "{{\"session\":{},\"network\":{},\"slots\":{},\"channels\":{},\
         \"quarantined\":[{}],\"detections\":[{}]}}",
        escape(id),
        escape(session.network().name()),
        session.state().slots_observed(),
        session.channels(),
        quarantined.join(","),
        entries.join(",")
    )
}

/// Decodes a detections body into `(time, leak-node names)` pairs.
///
/// # Errors
///
/// A message naming the first problem: not JSON, no `detections` array,
/// or a detection without a valid `time` or a `leak_nodes` array of
/// strings.
pub fn parse_detections(body: &str) -> Result<Detections, String> {
    let doc = Json::parse(body).map_err(|e| format!("bad JSON: {e}"))?;
    let detections = doc
        .get("detections")
        .and_then(Json::as_arr)
        .ok_or("missing \"detections\" array")?;
    detections
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let time = d
                .get("time")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("detection {i}: missing or invalid \"time\""))?;
            let names = d
                .get("leak_nodes")
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("detection {i}: missing \"leak_nodes\" array"))?
                .iter()
                .map(|n| {
                    n.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("detection {i}: leak node is not a string"))
                })
                .collect::<Result<Vec<String>, String>>()?;
            Ok((time, names))
        })
        .collect()
}

/// A hosted session's detections in the form [`parse_detections`]
/// returns, for comparing an in-process session with a served one.
pub fn session_detections(session: &HostedSession) -> Detections {
    session
        .detections()
        .iter()
        .map(|d| {
            let names = d
                .leak_nodes
                .iter()
                .map(|&n| session.network().node(n).name.clone())
                .collect();
            (d.time, names)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finite_readings_encode_as_shortest_round_trip_decimals() {
        let body = ingest_body(&[(900, vec![Some(41.5), None, Some(-0.012)])]);
        assert_eq!(
            body,
            "{\"batches\":[{\"time\":900,\"readings\":[41.5,null,-0.012]}]}"
        );
        assert_eq!(ingest_body::<Vec<Option<f64>>>(&[]), "{\"batches\":[]}");
    }

    #[test]
    fn ingest_body_round_trips_every_reading_bit_for_bit() {
        let readings = vec![
            None,
            Some(-0.0),
            Some(0.0),
            Some(f64::from_bits(1)),
            Some(f64::MIN_POSITIVE / 3.0),
            Some(1e308),
            Some(-1e308),
            Some(f64::MAX),
            Some(0.1 + 0.2),
            Some(-123.456e-7),
        ];
        let batches: Vec<Batch> = vec![
            (0, readings.clone()),
            (u64::MAX >> 11, vec![]),
            (900, readings),
        ];
        let decoded = parse_batches(ingest_body(&batches).as_bytes()).expect("own body decodes");
        assert_eq!(decoded.len(), batches.len());
        for ((t, got), (want_t, want)) in decoded.iter().zip(&batches) {
            assert_eq!(t, want_t);
            let bits = |r: &[Option<f64>]| -> Vec<Option<u64>> {
                r.iter().map(|v| v.map(f64::to_bits)).collect()
            };
            assert_eq!(bits(got), bits(want));
        }
    }

    #[test]
    fn non_finite_readings_are_sent_as_dropped() {
        let body = ingest_body(&[(0, [Some(f64::NAN), Some(f64::INFINITY), Some(1.0)])]);
        let decoded = parse_batches(body.as_bytes()).expect("valid JSON");
        assert_eq!(decoded, vec![(0, vec![None, None, Some(1.0)])]);
    }

    #[test]
    fn malformed_bodies_name_their_problem() {
        let cases: [(&[u8], &str); 5] = [
            (b"\xff", "body is not UTF-8"),
            (b"{oops", "bad JSON"),
            (b"{}", "missing \"batches\" array"),
            (
                b"{\"batches\":[{\"readings\":[]}]}",
                "batch 0: missing or invalid \"time\"",
            ),
            (
                b"{\"batches\":[{\"time\":0,\"readings\":[1,\"x\"]}]}",
                "batch 0: reading 1 is not a number or null",
            ),
        ];
        for (body, want) in cases {
            let err = parse_batches(body).expect_err("malformed body");
            assert!(err.contains(want), "{err:?} lacks {want:?}");
        }
        for (body, want) in [
            ("{}", "missing \"detections\" array"),
            (
                "{\"detections\":[{\"leak_nodes\":[]}]}",
                "detection 0: missing or invalid \"time\"",
            ),
            (
                "{\"detections\":[{\"time\":1}]}",
                "detection 0: missing \"leak_nodes\" array",
            ),
            (
                "{\"detections\":[{\"time\":1,\"leak_nodes\":[3]}]}",
                "detection 0: leak node is not a string",
            ),
        ] {
            let err = parse_detections(body).expect_err("malformed body");
            assert!(err.contains(want), "{err:?} lacks {want:?}");
        }
    }
}

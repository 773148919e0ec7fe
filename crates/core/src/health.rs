//! Per-sensor health tracking for fault-tolerant Phase-II inference.
//!
//! A deployed session ([`SessionState`](crate::SessionState)) cannot assume
//! every channel reports a sane value on every 15-minute slot. This module
//! holds the session's defenses: per-channel [`SensorHealth`] counters fed
//! by three cheap online checks — staleness (consecutive missing readings),
//! stuck detection (consecutive bit-identical values, which honest noisy
//! telemetry essentially never produces), and plausibility bounds — plus a
//! sticky quarantine once any counter crosses its threshold
//! (`MAX_STALENESS`, `MAX_REPEATS`, `MAX_IMPLAUSIBLE`). Quarantined
//! channels stop contributing to the feature vector (their deltas are
//! imputed as zero) but the session keeps emitting detections from the
//! surviving channels.

use aqua_artifact::{ArtifactError, Codec, Reader, Writer};

/// Online health state of one sensor channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SensorStatus {
    /// Reporting normally.
    Healthy,
    /// At least one anomaly counter is non-zero but below threshold.
    Suspect,
    /// Failed a health check; excluded from inference (sticky).
    Quarantined,
}

/// Consecutive missing readings before quarantine.
pub(crate) const MAX_STALENESS: usize = 3;
/// Consecutive bit-identical readings before quarantine (stuck-at), when
/// the check is armed (see [`SensorHealth::ingest`]).
pub(crate) const MAX_REPEATS: usize = 5;
/// Implausible (out-of-bounds) readings before quarantine.
pub(crate) const MAX_IMPLAUSIBLE: usize = 3;
/// Plausible pressure-head range, meters: a generous envelope, since
/// community networks run tens of meters of head.
pub(crate) const PRESSURE_BOUNDS: (f64, f64) = (-20.0, 500.0);
/// Plausible flow range, m³/s: a generous envelope, since a community
/// network carries at most a few m³/s per pipe.
pub(crate) const FLOW_BOUNDS: (f64, f64) = (-50.0, 50.0);

/// Health counters for one sensor channel.
#[derive(Debug, Clone)]
pub struct SensorHealth {
    /// Current status (quarantine is sticky).
    pub status: SensorStatus,
    /// Consecutive missing readings.
    pub staleness: usize,
    /// Consecutive bit-identical delivered values.
    pub repeats: usize,
    /// Implausible readings seen so far.
    pub implausible: usize,
    /// Last plausible delivered value (the LOCF imputation source).
    pub last_value: Option<f64>,
}

impl Default for SensorHealth {
    fn default() -> Self {
        SensorHealth {
            status: SensorStatus::Healthy,
            staleness: 0,
            repeats: 0,
            implausible: 0,
            last_value: None,
        }
    }
}

impl Codec for SensorStatus {
    fn encode(&self, w: &mut Writer) {
        w.u8(match self {
            SensorStatus::Healthy => 0,
            SensorStatus::Suspect => 1,
            SensorStatus::Quarantined => 2,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        match r.u8()? {
            0 => Ok(SensorStatus::Healthy),
            1 => Ok(SensorStatus::Suspect),
            2 => Ok(SensorStatus::Quarantined),
            v => Err(ArtifactError::Malformed {
                reason: format!("invalid sensor status tag {v}"),
            }),
        }
    }
}

impl Codec for SensorHealth {
    fn encode(&self, w: &mut Writer) {
        self.status.encode(w);
        self.staleness.encode(w);
        self.repeats.encode(w);
        self.implausible.encode(w);
        self.last_value.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok(SensorHealth {
            status: SensorStatus::decode(r)?,
            staleness: Codec::decode(r)?,
            repeats: Codec::decode(r)?,
            implausible: Codec::decode(r)?,
            last_value: Codec::decode(r)?,
        })
    }
}

impl SensorHealth {
    /// `true` once the channel is quarantined.
    pub fn is_quarantined(&self) -> bool {
        self.status == SensorStatus::Quarantined
    }

    /// Folds one delivered reading (or `None` for missing) into the
    /// counters, with `bounds` the plausible value range for this
    /// channel's physical quantity (a session passes `PRESSURE_BOUNDS` or
    /// `FLOW_BOUNDS`). `check_repeats` arms the stuck check, which must
    /// stay off for noise-free channels: honest telemetry without noise
    /// legitimately repeats exact values. Returns the value the session
    /// should use for this slot: the delivered value when it passed the
    /// checks, otherwise the last observation carried forward (`None` if
    /// the channel has never delivered a plausible value).
    pub fn ingest(
        &mut self,
        reading: Option<f64>,
        bounds: (f64, f64),
        check_repeats: bool,
    ) -> Option<f64> {
        // Counters saturate: a channel that misbehaves for the entire life
        // of a long-running session must pin at the maximum, not wrap back
        // to zero and silently drop below its quarantine threshold.
        let used = match reading {
            None => {
                self.staleness = self.staleness.saturating_add(1);
                self.last_value
            }
            Some(v) if !v.is_finite() || v < bounds.0 || v > bounds.1 => {
                self.implausible = self.implausible.saturating_add(1);
                // An implausible value also breaks any repeat streak — the
                // channel is live, just wrong.
                self.staleness = 0;
                self.repeats = 0;
                self.last_value
            }
            Some(v) => {
                self.staleness = 0;
                if check_repeats {
                    if self.last_value == Some(v) {
                        self.repeats = self.repeats.saturating_add(1);
                    } else {
                        self.repeats = 0;
                    }
                }
                self.last_value = Some(v);
                Some(v)
            }
        };
        if self.status != SensorStatus::Quarantined {
            self.status = if self.staleness >= MAX_STALENESS
                || (check_repeats && self.repeats >= MAX_REPEATS)
                || self.implausible >= MAX_IMPLAUSIBLE
            {
                SensorStatus::Quarantined
            } else if self.staleness > 0 || self.repeats > 0 || self.implausible > 0 {
                SensorStatus::Suspect
            } else {
                SensorStatus::Healthy
            };
        }
        used
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOUNDS: (f64, f64) = (-20.0, 500.0);

    #[test]
    fn healthy_stream_stays_healthy() {
        let mut h = SensorHealth::default();
        for i in 0..50 {
            let used = h.ingest(Some(30.0 + i as f64 * 0.01), BOUNDS, true);
            assert_eq!(used, Some(30.0 + i as f64 * 0.01));
        }
        assert_eq!(h.status, SensorStatus::Healthy);
    }

    #[test]
    fn staleness_quarantines_and_carries_last_value_forward() {
        let mut h = SensorHealth::default();
        h.ingest(Some(42.0), BOUNDS, true);
        for _ in 0..MAX_STALENESS {
            let used = h.ingest(None, BOUNDS, true);
            assert_eq!(used, Some(42.0), "LOCF while stale");
        }
        assert!(h.is_quarantined());
        // Quarantine is sticky even if the channel recovers.
        h.ingest(Some(41.0), BOUNDS, true);
        assert!(h.is_quarantined());
    }

    #[test]
    fn stuck_channel_is_quarantined_by_repeats() {
        let mut h = SensorHealth::default();
        for _ in 0..=MAX_REPEATS {
            h.ingest(Some(13.37), BOUNDS, true);
        }
        assert!(h.is_quarantined());
    }

    #[test]
    fn implausible_values_use_locf_and_eventually_quarantine() {
        let mut h = SensorHealth::default();
        h.ingest(Some(25.0), BOUNDS, true);
        for _ in 0..MAX_IMPLAUSIBLE {
            let used = h.ingest(Some(1e7), BOUNDS, true);
            assert_eq!(used, Some(25.0), "implausible values never flow through");
        }
        assert!(h.is_quarantined());
    }

    #[test]
    fn missing_from_birth_imputes_nothing() {
        let mut h = SensorHealth::default();
        assert_eq!(h.ingest(None, BOUNDS, true), None);
    }

    #[test]
    fn counters_saturate_at_usize_max_instead_of_wrapping() {
        // A wrap to zero would flip a permanently-failed channel back under
        // its threshold; saturation keeps it pinned (and quarantined).
        let mut h = SensorHealth {
            staleness: usize::MAX,
            implausible: usize::MAX,
            ..SensorHealth::default()
        };
        h.ingest(None, BOUNDS, true);
        assert_eq!(h.staleness, usize::MAX);
        assert!(h.is_quarantined());

        let mut h = SensorHealth {
            implausible: usize::MAX,
            ..SensorHealth::default()
        };
        h.ingest(Some(1e7), BOUNDS, true);
        assert_eq!(h.implausible, usize::MAX);

        let mut h = SensorHealth {
            repeats: usize::MAX,
            last_value: Some(13.37),
            ..SensorHealth::default()
        };
        h.ingest(Some(13.37), BOUNDS, true);
        assert_eq!(h.repeats, usize::MAX);
    }

    #[test]
    fn suspect_recovers_to_healthy() {
        let mut h = SensorHealth::default();
        h.ingest(Some(10.0), BOUNDS, true);
        h.ingest(None, BOUNDS, true);
        assert_eq!(h.status, SensorStatus::Suspect);
        h.ingest(Some(10.5), BOUNDS, true);
        // Implausible count is cumulative, staleness/repeats reset.
        assert_eq!(h.status, SensorStatus::Healthy);
    }
}

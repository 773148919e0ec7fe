//! A deterministic, seed-reproducible chaos harness for the fleet tier —
//! the serving-side sibling of the sensor `FaultModel` in `aqua-sensing`.
//!
//! A [`FaultPlan`] is a schedule of infrastructure faults over a bounded
//! step horizon: kill a replica at step *k*, black-hole or slow or reset
//! its connections, serve a truncated artifact during a rolling upgrade.
//! The schedule is a **pure function of the seed** (a splitmix64 hash per
//! step, no RNG state to drift), so the same seed reproduces the same
//! fault schedule byte-for-byte — and, because health transitions and
//! swap outcomes are emitted with deterministic ordinals, the same
//! telemetry event stream. The fleet tests assert on exactly that.
//!
//! The plan only *decides* faults; the code running the scenario (a
//! fleet test) applies them — killing a `Server`, skipping a forward,
//! swapping in a truncated `.aquaprof`. That split keeps the plan pure
//! and the application visible at the call site.

use aqua_telemetry::hash::splitmix64;

/// One infrastructure fault. `replica` indexes the fleet's replica list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Kill the replica process at this step (sessions must resume on a
    /// peer from their last checkpoint).
    KillReplica {
        /// Replica to kill.
        replica: usize,
    },
    /// Drop this replica's traffic without answering (connect hangs or
    /// refuses; the router should fail over).
    BlackHole {
        /// Replica whose traffic disappears.
        replica: usize,
    },
    /// Delay this replica's responses.
    SlowConn {
        /// Replica to slow down.
        replica: usize,
        /// Added latency in milliseconds.
        delay_ms: u64,
    },
    /// Reset this replica's connections mid-request.
    ResetConn {
        /// Replica whose connections reset.
        replica: usize,
    },
    /// Serve a truncated artifact during the rolling upgrade (the swap
    /// must be refused and the old model must stay live).
    TruncateArtifact {
        /// Bytes to keep from the front of the artifact.
        keep_bytes: usize,
    },
}

/// A fault scheduled at a step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// Step (load-loop iteration) at which the fault fires.
    pub step: u64,
    /// What happens.
    pub fault: Fault,
}

/// A seed-deterministic fault schedule over a step horizon.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    schedule: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (faults added by [`FaultPlan::push`]).
    pub fn scripted(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            schedule: Vec::new(),
        }
    }

    /// Generates a plan over `horizon` steps against `replicas` replicas:
    /// roughly one fault per `period` steps, with kind, target and
    /// parameters all pure hashes of `(seed, step)`. `KillReplica` is
    /// excluded from generated plans (killing is too scenario-specific to
    /// randomize usefully — script it with [`FaultPlan::push`]).
    pub fn generate(seed: u64, replicas: usize, horizon: u64, period: u64) -> FaultPlan {
        let mut plan = FaultPlan::scripted(seed);
        let period = period.max(1);
        for step in 0..horizon {
            let h = splitmix64(seed ^ step.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            if !h.is_multiple_of(period) {
                continue;
            }
            let replica = (h >> 8) as usize % replicas.max(1);
            let fault = match (h >> 32) % 3 {
                0 => Fault::BlackHole { replica },
                1 => Fault::SlowConn {
                    replica,
                    delay_ms: 5 + (h >> 40) % 20,
                },
                _ => Fault::ResetConn { replica },
            };
            plan.push(step, fault);
        }
        plan
    }

    /// The seed this plan was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Adds a scripted fault, keeping the schedule step-ordered.
    pub fn push(&mut self, step: u64, fault: Fault) -> &mut Self {
        self.schedule.push(FaultEvent { step, fault });
        self.schedule.sort_by_key(|e| e.step);
        self
    }

    /// The full schedule, step-ordered.
    pub fn schedule(&self) -> &[FaultEvent] {
        &self.schedule
    }

    /// Faults firing at `step`.
    pub fn faults_at(&self, step: u64) -> Vec<&Fault> {
        self.schedule
            .iter()
            .filter(|e| e.step == step)
            .map(|e| &e.fault)
            .collect()
    }

    /// Whether `replica` is black-holed, slowed or reset at `step` —
    /// i.e. should the driver fail this replica's probe/request.
    pub fn disrupts(&self, step: u64, replica: usize) -> bool {
        self.faults_at(step).iter().any(|f| {
            matches!(f,
                Fault::BlackHole { replica: r }
                | Fault::SlowConn { replica: r, .. }
                | Fault::ResetConn { replica: r } if *r == replica)
        })
    }
}

/// A truncated copy of an artifact (chaos: serve an incomplete upload).
pub fn truncated(bytes: &[u8], keep_bytes: usize) -> Vec<u8> {
    bytes[..keep_bytes.min(bytes.len())].to_vec()
}

/// A copy of an artifact with one bit flipped (chaos: corruption in
/// transit; the CRC trailer must catch it).
pub fn bit_flipped(bytes: &[u8], bit: usize) -> Vec<u8> {
    let mut out = bytes.to_vec();
    if !out.is_empty() {
        let bit = bit % (out.len() * 8);
        out[bit / 8] ^= 1 << (bit % 8);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_reproduces_the_same_schedule() {
        let a = FaultPlan::generate(7, 3, 200, 8);
        let b = FaultPlan::generate(7, 3, 200, 8);
        assert_eq!(a.schedule(), b.schedule());
        assert!(!a.schedule().is_empty(), "200 steps at period 8 → faults");
    }

    #[test]
    fn different_seeds_diverge() {
        let a = FaultPlan::generate(7, 3, 200, 8);
        let b = FaultPlan::generate(8, 3, 200, 8);
        assert_ne!(a.schedule(), b.schedule());
    }

    #[test]
    fn scripted_faults_interleave_in_step_order() {
        let mut plan = FaultPlan::scripted(1);
        plan.push(50, Fault::KillReplica { replica: 1 });
        plan.push(10, Fault::TruncateArtifact { keep_bytes: 64 });
        let steps: Vec<u64> = plan.schedule().iter().map(|e| e.step).collect();
        assert_eq!(steps, vec![10, 50]);
        assert_eq!(plan.faults_at(50), vec![&Fault::KillReplica { replica: 1 }]);
        assert!(plan.faults_at(11).is_empty());
    }

    #[test]
    fn disruption_targets_only_the_faulted_replica() {
        let mut plan = FaultPlan::scripted(1);
        plan.push(3, Fault::BlackHole { replica: 2 });
        assert!(plan.disrupts(3, 2));
        assert!(!plan.disrupts(3, 1));
        assert!(!plan.disrupts(4, 2));
        // Kill is not a connection disruption.
        plan.push(5, Fault::KillReplica { replica: 0 });
        assert!(!plan.disrupts(5, 0));
    }

    #[test]
    fn corruption_helpers_touch_exactly_what_they_claim() {
        let bytes = vec![0u8; 16];
        assert_eq!(truncated(&bytes, 4).len(), 4);
        assert_eq!(truncated(&bytes, 99).len(), 16);
        let flipped = bit_flipped(&bytes, 9);
        assert_eq!(flipped[1], 0b10);
        assert_eq!(flipped.iter().filter(|&&b| b != 0).count(), 1);
    }
}

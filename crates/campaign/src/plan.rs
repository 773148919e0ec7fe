//! Declarative campaign plans and the pure hash schedule they run on.
//!
//! A [`CampaignPlan`] is a seeded mix of [`Hazard`]s over a fixed number of
//! EPS slots. Every activation decision a hazard makes is a pure
//! splitmix64 hash of `(seed, stream, step)` — there is no RNG stream to
//! advance and no wall clock to read, so compiling the same plan twice
//! (or on machines with different thread counts) yields byte-identical
//! timelines.

use aqua_net::Network;
use aqua_telemetry::hash::splitmix64;
use aqua_telemetry::{TelemetryCtx, Value};

use crate::error::CampaignError;
use crate::hazard::{Hazard, HazardContext};
use crate::timeline::CompiledCampaign;

/// Hashes two words into one schedule draw. [`splitmix64`] is the only
/// entropy source in the campaign engine, so a hazard activation is a
/// pure function of its inputs.
#[must_use]
pub fn mix2(a: u64, b: u64) -> u64 {
    splitmix64(a ^ splitmix64(b))
}

/// Hashes three words into one schedule draw.
#[must_use]
pub fn mix3(a: u64, b: u64, c: u64) -> u64 {
    splitmix64(mix2(a, b) ^ splitmix64(c))
}

/// Maps a hash to a uniform draw in `[0, 1)` (53-bit mantissa).
#[must_use]
pub fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A declarative, seed-reproducible hazard mix over EPS time.
///
/// Build one with [`CampaignPlan::new`], attach hazards with
/// [`with`](CampaignPlan::with), then [`compile`](CampaignPlan::compile)
/// it against a network to get the concrete
/// [`CompiledCampaign`] timeline.
pub struct CampaignPlan {
    /// Master seed; each hazard derives its own stream from it.
    pub seed: u64,
    /// Number of EPS slots the campaign spans.
    pub slots: u64,
    /// Seconds per slot (the EPS hydraulic step).
    pub slot_seconds: u64,
    hazards: Vec<Box<dyn Hazard>>,
}

impl CampaignPlan {
    /// A plan with the default 900 s (15 min) EPS step and no hazards.
    #[must_use]
    pub fn new(seed: u64, slots: u64) -> Self {
        CampaignPlan {
            seed,
            slots,
            slot_seconds: 900,
            hazards: Vec::new(),
        }
    }

    /// Overrides the EPS step length.
    #[must_use]
    pub fn with_slot_seconds(mut self, slot_seconds: u64) -> Self {
        self.slot_seconds = slot_seconds;
        self
    }

    /// Adds a hazard to the mix. Hazards compile in insertion order, each
    /// under its own derived seed, so the mix composes deterministically.
    #[must_use]
    pub fn with(mut self, hazard: impl Hazard + 'static) -> Self {
        self.hazards.push(Box::new(hazard));
        self
    }

    /// The names of the hazards in the mix, in compile order.
    #[must_use]
    pub fn hazard_names(&self) -> Vec<&'static str> {
        self.hazards.iter().map(|h| h.name()).collect()
    }

    /// Lowers the hazard mix onto a concrete timeline for `net`.
    ///
    /// Emits a `campaign.compile` span, a `campaign.hazards` counter and
    /// one `campaign.hazard` event per scheduled hazard effect.
    ///
    /// # Errors
    ///
    /// [`CampaignError::InvalidPlan`] when the plan has zero slots, a
    /// zero-length slot, or an empty hazard mix.
    pub fn compile(
        &self,
        net: &Network,
        tel: TelemetryCtx<'_>,
    ) -> Result<CompiledCampaign, CampaignError> {
        if self.slots == 0 {
            return Err(CampaignError::InvalidPlan("zero slots".into()));
        }
        if self.slot_seconds == 0 {
            return Err(CampaignError::InvalidPlan("zero-length slot".into()));
        }
        if self.hazards.is_empty() {
            return Err(CampaignError::InvalidPlan("empty hazard mix".into()));
        }
        let span = tel.span("campaign.compile");
        let tel = span.ctx();
        let mut ctx = HazardContext::new(net, self.seed, self.slots, self.slot_seconds);
        for (index, hazard) in self.hazards.iter().enumerate() {
            ctx.begin_hazard(index as u64, hazard.name());
            hazard.compile(&mut ctx);
        }
        let compiled = ctx.finish();
        tel.add("campaign.hazards", self.hazards.len() as u64);
        for event in &compiled.events {
            tel.emit(
                event.slot,
                "campaign.hazard",
                &[
                    ("hazard", Value::Str(event.hazard.to_string())),
                    ("detail", Value::Str(event.detail.clone())),
                ],
            );
        }
        Ok(compiled)
    }
}

impl std::fmt::Debug for CampaignPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignPlan")
            .field("seed", &self.seed)
            .field("slots", &self.slots)
            .field("slot_seconds", &self.slot_seconds)
            .field("hazards", &self.hazard_names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_is_in_range_and_deterministic() {
        for i in 0..1000 {
            let u = unit(mix2(42, i));
            assert!((0.0..1.0).contains(&u));
            assert_eq!(u.to_bits(), unit(mix2(42, i)).to_bits());
        }
    }

    #[test]
    fn empty_plan_is_rejected() {
        let net = aqua_net::synth::epa_net();
        let plan = CampaignPlan::new(1, 8);
        assert!(matches!(
            plan.compile(&net, TelemetryCtx::none()),
            Err(CampaignError::InvalidPlan(_))
        ));
    }
}

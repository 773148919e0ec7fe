//! The compiled campaign timeline and its renderer.
//!
//! [`CompiledCampaign`] is the concrete schedule a hazard mix lowers to:
//! leak events, link trips, contamination sources, frozen windows, a
//! sensor fault model and an optional flood trigger, all in slot
//! coordinates. [`render`] turns that schedule into per-slot sensor
//! readings by running the EPS hydraulic solver (in parallel across
//! worker threads, with results keyed by slot index so the output is
//! byte-identical for any thread count), then making the readings with
//! the measurement step (the tenant's noise, then the fault model), the
//! water-quality trace, and the flood cascade sequentially.

use aqua_flood::{leak_sources_from_snapshot, Dem, FloodResult, FloodSim};
use aqua_hydraulics::{
    solve_snapshot_recovering, LeakEvent, QualitySources, Scenario, Snapshot, SolverOptions,
    SolverWorkspace, WaterQuality,
};
use aqua_ml::work::par_map_indexed;
use aqua_net::{LinkId, LinkStatus, Network, NodeId};
use aqua_sensing::{measure, FaultInjector, FaultModel, MeasurementNoise, SensorSet};
use aqua_telemetry::TelemetryCtx;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::error::CampaignError;

/// A link closed over `[start_slot, end_slot)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkTrip {
    /// The tripped link.
    pub link: LinkId,
    /// First slot of the closure.
    pub start_slot: u64,
    /// First slot after the closure.
    pub end_slot: u64,
}

/// A constant-concentration contamination source from `start_slot` on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContaminationSource {
    /// Injection node.
    pub node: NodeId,
    /// Source concentration in mg/L.
    pub concentration_mg_l: f64,
    /// First active slot.
    pub start_slot: u64,
}

/// A junction whose service pipe is frozen from `start_slot` to the end
/// of the campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrozenWindow {
    /// The frozen junction.
    pub node: NodeId,
    /// First frozen slot.
    pub start_slot: u64,
}

/// A request to run the flood cascade from the hydraulic state at `slot`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FloodTrigger {
    /// Snapshot slot the flood sources are sampled from.
    pub slot: u64,
}

/// One scheduled hazard effect, for telemetry and plan summaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HazardEvent {
    /// Slot the effect lands on.
    pub slot: u64,
    /// Name of the hazard that scheduled it.
    pub hazard: &'static str,
    /// Human-readable description of the effect.
    pub detail: String,
}

/// The concrete schedule a [`crate::CampaignPlan`] compiles to.
#[derive(Debug, Clone)]
pub struct CompiledCampaign {
    /// The plan's master seed; [`render`] seeds its measurement noise
    /// from it.
    pub seed: u64,
    /// Number of EPS slots.
    pub slots: u64,
    /// Seconds per slot.
    pub slot_seconds: u64,
    /// All scheduled leaks (each carries its own start time).
    pub leaks: Vec<LeakEvent>,
    /// All scheduled link trips.
    pub trips: Vec<LinkTrip>,
    /// All contamination sources.
    pub contamination: Vec<ContaminationSource>,
    /// All frozen-pipe windows.
    pub frozen: Vec<FrozenWindow>,
    /// The sensor fault model the render pass applies.
    pub faults: FaultModel,
    /// Flood cascade trigger, if any hazard requested one.
    pub flood: Option<FloodTrigger>,
    /// The schedule, one event per hazard effect, in compile order.
    pub events: Vec<HazardEvent>,
}

impl CompiledCampaign {
    /// EPS time (seconds) of a slot.
    #[must_use]
    pub fn time_of(&self, slot: u64) -> u64 {
        slot * self.slot_seconds
    }

    /// The hydraulic scenario in effect at `slot`: every leak (leak
    /// activation is time-gated inside the solver) plus the trips whose
    /// window covers the slot.
    #[must_use]
    pub fn scenario_at(&self, slot: u64) -> Scenario {
        let mut scenario = Scenario::new().with_leaks(self.leaks.iter().cloned());
        for trip in &self.trips {
            if slot >= trip.start_slot && slot < trip.end_slot {
                scenario = scenario.with_link_status(trip.link, LinkStatus::Closed);
            }
        }
        scenario
    }

    /// Ground-truth leaking nodes at `slot`.
    #[must_use]
    pub fn true_leak_nodes_at(&self, slot: u64) -> Vec<NodeId> {
        self.scenario_at(slot).true_leak_nodes(self.time_of(slot))
    }

    /// Frozen flags for `junctions` at `slot` (Bayesian weather-fusion
    /// input).
    #[must_use]
    pub fn frozen_flags_at(&self, slot: u64, junctions: &[NodeId]) -> Vec<bool> {
        junctions
            .iter()
            .map(|&j| {
                self.frozen
                    .iter()
                    .any(|w| w.node == j && slot >= w.start_slot)
            })
            .collect()
    }
}

/// Render knobs: worker threads for the hydraulic sweep, solver options,
/// and the flood grid.
#[derive(Debug, Clone)]
pub struct RenderOptions {
    /// Hydraulic worker threads. Output is byte-identical for any value.
    pub threads: usize,
    /// EPS solver options.
    pub solver: SolverOptions,
    /// Flood DEM resolution `(nx, ny)`.
    pub flood_grid: (usize, usize),
    /// Flood simulation horizon in seconds.
    pub flood_duration_s: f64,
}

impl Default for RenderOptions {
    fn default() -> Self {
        RenderOptions {
            threads: 1,
            solver: SolverOptions::default(),
            flood_grid: (48, 32),
            flood_duration_s: 1800.0,
        }
    }
}

/// Everything a rendered campaign produces: the sensor trace to feed a
/// detector, the ground truth to score it against, and the physical
/// side-channels (flood, contamination) for impact reporting.
#[derive(Debug, Clone)]
pub struct RenderedCampaign {
    /// EPS time of each slot.
    pub times: Vec<u64>,
    /// The true value under every sensor per slot, before noise and
    /// faults, in channel order (pressures then flows).
    pub truth: Vec<Vec<f64>>,
    /// Delivered readings per slot, as the measurement step makes them:
    /// the tenant's noise, then the fault model (`None` = dropped). This
    /// is what a session is fed.
    pub readings: Vec<Vec<Option<f64>>>,
    /// Ground-truth leaking nodes per slot.
    pub true_leaks: Vec<Vec<NodeId>>,
    /// Slots where the hydraulic fallback ladder had to drop effects
    /// (rung weight: 1 = trips dropped, 2 = baseline).
    pub fallbacks: u64,
    /// Readings altered by the `Malicious` coordinated-bias mode.
    pub spoofed_readings: u64,
    /// Flood cascade result, when the mix triggered one.
    pub flood: Option<FloodResult>,
    /// Peak junction concentration seen by the water-quality trace.
    pub peak_contamination_mg_l: f64,
}

/// Solves one slot down the fallback ladder: full scenario → scenario
/// without trips → quiet baseline. Each rung uses a fresh workspace so
/// warm-start state never leaks across slots (which would make results
/// depend on the slot→worker assignment).
fn solve_slot(
    net: &Network,
    compiled: &CompiledCampaign,
    slot: u64,
    solver: &SolverOptions,
) -> Result<(Snapshot, u64), CampaignError> {
    let t = compiled.time_of(slot);
    let full = compiled.scenario_at(slot);
    let mut ws = SolverWorkspace::new(net);
    if let Ok((snap, _)) = solve_snapshot_recovering(net, &full, t, solver, &mut ws) {
        return Ok((snap, 0));
    }
    if !compiled.trips.is_empty() {
        let no_trips = Scenario::new().with_leaks(compiled.leaks.iter().cloned());
        let mut ws = SolverWorkspace::new(net);
        if let Ok((snap, _)) = solve_snapshot_recovering(net, &no_trips, t, solver, &mut ws) {
            return Ok((snap, 1));
        }
    }
    let baseline = Scenario::new();
    let mut ws = SolverWorkspace::new(net);
    match solve_snapshot_recovering(net, &baseline, t, solver, &mut ws) {
        Ok((snap, _)) => Ok((snap, 2)),
        Err(e) => Err(CampaignError::Hydraulic(format!(
            "slot {slot} (t={t}s) failed on every fallback rung: {e}"
        ))),
    }
}

/// Solves all slots, possibly in parallel; results are keyed by slot, and
/// a failure reports the lowest failing slot for any thread count.
fn solve_all(
    net: &Network,
    compiled: &CompiledCampaign,
    opts: &RenderOptions,
) -> Result<Vec<(Snapshot, u64)>, CampaignError> {
    par_map_indexed(
        compiled.slots as usize,
        opts.threads,
        || (),
        |(), slot| solve_slot(net, compiled, slot as u64, &opts.solver),
    )
    .into_iter()
    .collect()
}

/// Renders a compiled campaign into a sensor trace plus impact
/// side-channels.
///
/// `noise` is the tenant's measurement noise, the one its profile was
/// trained under (`ProfileArtifact::features`); the readings draw it from
/// an RNG seeded with the plan's seed. The hydraulic sweep fans out over
/// `opts.threads`; the measurement, water-quality, and flood passes are
/// sequential (they are stateful in slot order). Emits the
/// `campaign.render` span, `campaign.slots`,
/// `campaign.render.fallbacks`, and `campaign.spoofed.readings`
/// counters, and the `campaign.flood.max_depth_m` /
/// `campaign.quality.peak_mg_l` gauges.
///
/// # Errors
///
/// [`CampaignError::Hydraulic`] when a slot fails on every rung of the
/// fallback ladder (full scenario → without trips → baseline).
pub fn render(
    net: &Network,
    sensors: &SensorSet,
    noise: &MeasurementNoise,
    compiled: &CompiledCampaign,
    opts: &RenderOptions,
    tel: TelemetryCtx<'_>,
) -> Result<RenderedCampaign, CampaignError> {
    let span = tel.span("campaign.render");
    let tel = span.ctx();

    let solved = solve_all(net, compiled, opts)?;
    let fallbacks: u64 = solved.iter().map(|(_, rung)| rung).sum();

    let times: Vec<u64> = (0..compiled.slots).map(|s| compiled.time_of(s)).collect();
    let truth: Vec<Vec<f64>> = solved.iter().map(|(snap, _)| sensors.read(snap)).collect();

    // Measurement pass: every slot in one call, so each channel's noise is
    // drawn in slot order and stuck-at faults latch on the channel's first
    // reading, as they do in a live deployment.
    let slots: Vec<(u64, &Snapshot)> = (0..).zip(solved.iter().map(|(snap, _)| snap)).collect();
    let readings = measure(
        sensors,
        &slots,
        noise,
        &mut StdRng::seed_from_u64(compiled.seed),
        &mut FaultInjector::new(compiled.faults),
    );
    // A spoofed reading is one a compromised channel delivers once the
    // attack is on; only a dropout hides it.
    let mut spoofed_readings = 0u64;
    for (slot, row) in readings.iter().enumerate() {
        for (channel, reading) in row.iter().enumerate() {
            if reading.is_some() && compiled.faults.is_malicious(channel, slot as u64) {
                spoofed_readings += 1;
            }
        }
    }

    let true_leaks: Vec<Vec<NodeId>> = (0..compiled.slots)
        .map(|s| compiled.true_leak_nodes_at(s))
        .collect();

    // Water-quality pass: advect the contamination sources through the
    // solved flow fields, tracking the junction concentration peak.
    let mut peak_contamination_mg_l = 0.0f64;
    if !compiled.contamination.is_empty() {
        let junctions = net.junction_ids();
        let mut quality = WaterQuality::new(net);
        for (slot, (snap, _)) in solved.iter().enumerate() {
            let mut sources = QualitySources::none();
            for c in &compiled.contamination {
                if slot as u64 >= c.start_slot {
                    sources = sources.with_source(c.node, c.concentration_mg_l);
                }
            }
            quality.advance(net, snap, compiled.slot_seconds as f64, &sources);
            for &j in &junctions {
                peak_contamination_mg_l =
                    peak_contamination_mg_l.max(quality.node_concentration(j));
            }
        }
    }

    // Flood pass: pond the discharge of whatever is leaking at the
    // trigger slot over the network's DEM.
    let flood = compiled.flood.map(|trigger| {
        let slot = trigger.slot.min(compiled.slots - 1) as usize;
        let sources = leak_sources_from_snapshot(net, &solved[slot].0);
        let dem = Dem::from_network(net, opts.flood_grid.0, opts.flood_grid.1);
        FloodSim::new(dem).run(&sources, opts.flood_duration_s)
    });

    tel.add("campaign.slots", compiled.slots);
    tel.add("campaign.render.fallbacks", fallbacks);
    tel.add("campaign.spoofed.readings", spoofed_readings);
    if let Some(f) = &flood {
        tel.gauge("campaign.flood.max_depth_m", f.max_depth);
    }
    if !compiled.contamination.is_empty() {
        tel.gauge("campaign.quality.peak_mg_l", peak_contamination_mg_l);
    }

    Ok(RenderedCampaign {
        times,
        truth,
        readings,
        true_leaks,
        fallbacks,
        spoofed_readings,
        flood,
        peak_contamination_mg_l,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_render_names_the_lowest_failing_slot_at_every_thread_count() {
        // On quiet EPA-NET a four-iteration budget (32 once the ladder
        // escalates) solves the first slots and fails on later ones, so a
        // worker can meet a failing slot above the lowest one first.
        let net = aqua_net::synth::epa_net();
        let compiled = CompiledCampaign {
            seed: 0,
            slots: 16,
            slot_seconds: 900,
            leaks: Vec::new(),
            trips: Vec::new(),
            contamination: Vec::new(),
            frozen: Vec::new(),
            faults: FaultModel::default(),
            flood: None,
            events: Vec::new(),
        };
        let solver = SolverOptions {
            max_iterations: 4,
            ..SolverOptions::default()
        };
        let lowest = (0..compiled.slots)
            .find(|&slot| solve_slot(&net, &compiled, slot, &solver).is_err())
            .expect("some slot fails on a four-iteration budget");
        assert!(
            lowest > 0,
            "slot 0 must solve for the check to mean anything"
        );
        let sensors = SensorSet::full(&net);
        let noise = MeasurementNoise::default();
        let names_lowest = format!("slot {lowest} ");
        for threads in [1, 2, 8] {
            let opts = RenderOptions {
                threads,
                solver: solver.clone(),
                ..RenderOptions::default()
            };
            let err = render(
                &net,
                &sensors,
                &noise,
                &compiled,
                &opts,
                TelemetryCtx::none(),
            )
            .expect_err("a slot fails on every rung");
            assert!(
                matches!(&err, CampaignError::Hydraulic(m) if m.starts_with(&names_lowest)),
                "threads={threads}: {err:?}"
            );
        }
    }
}

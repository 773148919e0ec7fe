//! The [`Hazard`] trait and the built-in hazard library.
//!
//! A hazard is a pure compiler pass: given a [`HazardContext`] (network,
//! derived seed, slot geometry) it schedules concrete effects — leaks,
//! link trips, contamination sources, frozen-pipe windows, a sensor fault
//! model, a flood trigger — onto the shared timeline accumulators. Every
//! decision is a hash draw from the context, so a hazard never observes
//! wall clock, ambient RNG, or the effects of other hazards.

use aqua_fusion::{FreezeModel, MarkovWeather};
use aqua_hydraulics::LeakEvent;
use aqua_net::{LinkId, LinkKind, Network, NodeId};
use aqua_sensing::FaultModel;

use crate::plan::{mix2, mix3, unit};
use crate::timeline::{
    CompiledCampaign, ContaminationSource, FloodTrigger, FrozenWindow, HazardEvent, LinkTrip,
};

/// One composable failure mode in a campaign mix.
///
/// Implementations must be pure: identical context in, identical schedule
/// out. Use [`HazardContext::hash`]/[`HazardContext::unit_hash`] for every
/// draw — the context derives a per-hazard seed so reordering other
/// hazards in the plan does not perturb this one's schedule.
pub trait Hazard {
    /// Stable short name, used in telemetry events and plan summaries.
    fn name(&self) -> &'static str;

    /// Schedules this hazard's effects onto the timeline.
    fn compile(&self, ctx: &mut HazardContext<'_>);
}

/// The compile-time world a hazard sees: network topology, slot geometry,
/// a per-hazard hash stream, and the shared effect accumulators.
pub struct HazardContext<'a> {
    net: &'a Network,
    plan_seed: u64,
    slots: u64,
    slot_seconds: u64,
    hazard_seed: u64,
    hazard_name: &'static str,
    leaks: Vec<LeakEvent>,
    trips: Vec<LinkTrip>,
    contamination: Vec<ContaminationSource>,
    frozen: Vec<FrozenWindow>,
    faults: FaultModel,
    flood: Option<FloodTrigger>,
    events: Vec<HazardEvent>,
}

impl<'a> HazardContext<'a> {
    pub(crate) fn new(net: &'a Network, plan_seed: u64, slots: u64, slot_seconds: u64) -> Self {
        HazardContext {
            net,
            plan_seed,
            slots,
            slot_seconds,
            hazard_seed: plan_seed,
            hazard_name: "",
            leaks: Vec::new(),
            trips: Vec::new(),
            contamination: Vec::new(),
            frozen: Vec::new(),
            faults: FaultModel::none(),
            flood: None,
            events: Vec::new(),
        }
    }

    pub(crate) fn begin_hazard(&mut self, index: u64, name: &'static str) {
        self.hazard_seed = mix2(self.plan_seed, index.wrapping_add(1));
        self.hazard_name = name;
    }

    pub(crate) fn finish(self) -> CompiledCampaign {
        CompiledCampaign {
            seed: self.plan_seed,
            slots: self.slots,
            slot_seconds: self.slot_seconds,
            leaks: self.leaks,
            trips: self.trips,
            contamination: self.contamination,
            frozen: self.frozen,
            faults: self.faults,
            flood: self.flood,
            events: self.events,
        }
    }

    /// The target network.
    #[must_use]
    pub fn net(&self) -> &Network {
        self.net
    }

    /// Number of EPS slots in the campaign.
    #[must_use]
    pub fn slots(&self) -> u64 {
        self.slots
    }

    /// Seconds per EPS slot.
    #[must_use]
    pub fn slot_seconds(&self) -> u64 {
        self.slot_seconds
    }

    /// EPS time (seconds) of a slot.
    #[must_use]
    pub fn seconds_of(&self, slot: u64) -> u64 {
        slot * self.slot_seconds
    }

    /// This hazard's derived seed (exposed so a hazard can seed an
    /// auxiliary deterministic model, e.g. a weather chain).
    #[must_use]
    pub fn hazard_seed(&self) -> u64 {
        self.hazard_seed
    }

    /// A schedule draw: pure hash of `(hazard seed, stream, step)`.
    #[must_use]
    pub fn hash(&self, stream: u64, step: u64) -> u64 {
        mix3(self.hazard_seed, stream, step)
    }

    /// A schedule draw mapped to `[0, 1)`.
    #[must_use]
    pub fn unit_hash(&self, stream: u64, step: u64) -> f64 {
        unit(self.hash(stream, step))
    }

    /// Junction ids of the target network (leak/contamination candidates).
    #[must_use]
    pub fn junctions(&self) -> Vec<NodeId> {
        self.net.junction_ids()
    }

    /// Links eligible for trips: pumps and valves first (the ISSUE's
    /// "pump/valve trips"), falling back to pipes on gravity-fed networks
    /// with no active elements.
    #[must_use]
    pub fn trip_candidates(&self) -> Vec<LinkId> {
        let active: Vec<LinkId> = (0..self.net.link_count())
            .map(LinkId::from_index)
            .filter(|&l| !matches!(self.net.links()[l.index()].kind, LinkKind::Pipe(_)))
            .collect();
        if !active.is_empty() {
            return active;
        }
        (0..self.net.link_count()).map(LinkId::from_index).collect()
    }

    /// Schedules a leak opening at `slot` and records the event.
    pub fn add_leak(&mut self, slot: u64, node: NodeId, coefficient: f64) {
        let start = self.seconds_of(slot);
        self.note(
            slot,
            format!(
                "leak node={} coefficient={coefficient:.5}",
                self.net.node(node).name
            ),
        );
        self.leaks.push(LeakEvent::new(node, coefficient, start));
    }

    /// Schedules a link closure over `[start_slot, end_slot)` and records
    /// the event.
    pub fn add_trip(&mut self, link: LinkId, start_slot: u64, end_slot: u64) {
        self.note(
            start_slot,
            format!(
                "trip link={} until_slot={end_slot}",
                self.net.links()[link.index()].name
            ),
        );
        self.trips.push(LinkTrip {
            link,
            start_slot,
            end_slot,
        });
    }

    /// Schedules a contamination source active from `start_slot` on.
    pub fn add_contamination(&mut self, node: NodeId, concentration_mg_l: f64, start_slot: u64) {
        self.note(
            start_slot,
            format!(
                "contamination node={} mg_l={concentration_mg_l:.3}",
                self.net.node(node).name
            ),
        );
        self.contamination.push(ContaminationSource {
            node,
            concentration_mg_l,
            start_slot,
        });
    }

    /// Marks a junction's service pipe frozen from `start_slot` to the end
    /// of the campaign (feeds Phase-II weather fusion flags).
    pub fn add_frozen(&mut self, node: NodeId, start_slot: u64) {
        self.note(
            start_slot,
            format!("frozen node={}", self.net.node(node).name),
        );
        self.frozen.push(FrozenWindow { node, start_slot });
    }

    /// Installs the campaign's sensor fault model (last hazard wins; the
    /// built-in mixes install at most one).
    pub fn set_faults(&mut self, faults: FaultModel) {
        self.note(
            faults.malicious_onset,
            format!(
                "sensor faults malicious_rate={:.3} bias={:.1}",
                faults.malicious_rate, faults.malicious_bias
            ),
        );
        self.faults = faults;
    }

    /// Requests a flood simulation seeded from the hydraulic state at
    /// `slot` (first trigger wins).
    pub fn trigger_flood(&mut self, slot: u64) {
        self.note(slot, "flood trigger".to_string());
        if self.flood.is_none() {
            self.flood = Some(FloodTrigger { slot });
        }
    }

    /// Records a free-form schedule event under this hazard's name.
    pub fn note(&mut self, slot: u64, detail: String) {
        self.events.push(HazardEvent {
            slot,
            hazard: self.hazard_name,
            detail,
        });
    }

    /// Picks `count` distinct items from `pool` by hash probing on
    /// `stream`. Returns fewer when the pool is smaller than `count`.
    fn pick_distinct<T: Copy + PartialEq>(&self, pool: &[T], count: usize, stream: u64) -> Vec<T> {
        let mut chosen: Vec<T> = Vec::with_capacity(count.min(pool.len()));
        let mut probe = 0u64;
        while chosen.len() < count.min(pool.len()) {
            let item = pool[(self.hash(stream, probe) % pool.len() as u64) as usize];
            if !chosen.contains(&item) {
                chosen.push(item);
            }
            probe += 1;
        }
        chosen
    }
}

// ---- built-in hazards --------------------------------------------------

/// Background leak population: `count` leaks at hash-chosen junctions,
/// opening at hash-chosen slots, with coefficients jittered in
/// `[0.5, 1.5) ×` the base.
#[derive(Debug, Clone)]
pub struct BackgroundLeaks {
    /// Number of leaks to scatter over the campaign.
    pub count: usize,
    /// Base emitter coefficient; per-leak jitter is `[0.5, 1.5)×` this.
    pub coefficient: f64,
}

impl Hazard for BackgroundLeaks {
    fn name(&self) -> &'static str {
        "background-leaks"
    }

    fn compile(&self, ctx: &mut HazardContext<'_>) {
        let junctions = ctx.junctions();
        let nodes = ctx.pick_distinct(&junctions, self.count, 0);
        for (k, &node) in nodes.iter().enumerate() {
            let k = k as u64;
            let slot = ctx.hash(1, k) % ctx.slots();
            let coefficient = self.coefficient * (0.5 + ctx.unit_hash(2, k));
            ctx.add_leak(slot, node, coefficient);
        }
    }
}

/// A freeze wave: a Markov-chain cold snap freezes service pipes at
/// hash-chosen junctions; each frozen pipe then breaks with the freeze
/// model's `p_leak_given_freeze`. Frozen windows are exported so the
/// detector's Bayesian weather fusion can consume them.
#[derive(Debug, Clone)]
pub struct FreezeWave {
    /// Junctions whose service pipes freeze during the snap.
    pub frozen: usize,
    /// Emitter coefficient of a freeze break.
    pub coefficient: f64,
    /// Daily temperature regime chain.
    pub weather: MarkovWeather,
    /// Freeze/break conditional model.
    pub freeze: FreezeModel,
}

impl FreezeWave {
    /// A freeze wave with the default mid-Atlantic winter models.
    #[must_use]
    pub fn new(frozen: usize, coefficient: f64) -> Self {
        FreezeWave {
            frozen,
            coefficient,
            weather: MarkovWeather::default(),
            freeze: FreezeModel::default(),
        }
    }
}

impl Hazard for FreezeWave {
    fn name(&self) -> &'static str {
        "freeze-wave"
    }

    fn compile(&self, ctx: &mut HazardContext<'_>) {
        // Find the snap onset from the simulated daily series; if the
        // chain never goes cold inside the campaign window, force an
        // onset a third of the way in so the hazard always contributes.
        let days = (ctx.slots() * ctx.slot_seconds() / 86_400 + 2) as usize;
        let series = self.weather.simulate(days, ctx.hazard_seed());
        let onset = (0..ctx.slots()).find(|&slot| {
            let day = (ctx.seconds_of(slot) / 86_400) as usize;
            self.freeze.is_cold(series[day.min(days - 1)].1)
        });
        let onset = match onset {
            Some(slot) => slot,
            None => {
                let forced = ctx.slots() / 3;
                ctx.note(forced, "no natural cold snap; forcing onset".to_string());
                forced
            }
        };
        let junctions = ctx.junctions();
        for (k, &node) in ctx
            .pick_distinct(&junctions, self.frozen, 3)
            .iter()
            .enumerate()
        {
            let k = k as u64;
            // Stagger freezes over the first day of the snap.
            let lag = ctx.hash(4, k) % (86_400 / ctx.slot_seconds()).clamp(1, ctx.slots());
            let slot = (onset + lag).min(ctx.slots() - 1);
            ctx.add_frozen(node, slot);
            if ctx.unit_hash(5, k) < self.freeze.p_leak_given_freeze {
                ctx.add_leak(slot, node, self.coefficient);
            }
        }
    }
}

/// Pump/valve trips: `count` active links close for `duration_slots`
/// each. On gravity-fed networks with no pumps or valves, pipes trip
/// instead. Trips that structurally disconnect demand are absorbed by
/// the render fallback ladder (and counted).
#[derive(Debug, Clone)]
pub struct PumpTrips {
    /// Number of links to trip.
    pub count: usize,
    /// Closure length in slots.
    pub duration_slots: u64,
}

impl Hazard for PumpTrips {
    fn name(&self) -> &'static str {
        "pump-trips"
    }

    fn compile(&self, ctx: &mut HazardContext<'_>) {
        let candidates = ctx.trip_candidates();
        let duration = self.duration_slots.clamp(1, ctx.slots());
        let latest_start = ctx.slots().saturating_sub(duration).max(1);
        for (k, &link) in ctx
            .pick_distinct(&candidates, self.count, 6)
            .iter()
            .enumerate()
        {
            let start = ctx.hash(7, k as u64) % latest_start;
            ctx.add_trip(link, start, start + duration);
        }
    }
}

/// Contamination intrusion: constant-concentration sources injected at
/// hash-chosen junctions in the first two-thirds of the campaign, traced
/// by the advective water-quality pass during render.
#[derive(Debug, Clone)]
pub struct ContaminationIntrusion {
    /// Number of intrusion points.
    pub sources: usize,
    /// Source concentration in mg/L.
    pub concentration_mg_l: f64,
}

impl Hazard for ContaminationIntrusion {
    fn name(&self) -> &'static str {
        "contamination"
    }

    fn compile(&self, ctx: &mut HazardContext<'_>) {
        let junctions = ctx.junctions();
        let window = (ctx.slots() * 2 / 3).max(1);
        for (k, &node) in ctx
            .pick_distinct(&junctions, self.sources, 8)
            .iter()
            .enumerate()
        {
            let start = ctx.hash(9, k as u64) % window;
            ctx.add_contamination(node, self.concentration_mg_l, start);
        }
    }
}

/// A main break severe enough to pond: one large leak in the first half
/// of the campaign, plus a flood-cascade simulation seeded from the
/// break's hydraulic snapshot.
#[derive(Debug, Clone)]
pub struct MainBreakFlood {
    /// Emitter coefficient of the main break (large; e.g. `0.08`).
    pub coefficient: f64,
}

impl Hazard for MainBreakFlood {
    fn name(&self) -> &'static str {
        "main-break-flood"
    }

    fn compile(&self, ctx: &mut HazardContext<'_>) {
        let junctions = ctx.junctions();
        let node = junctions[(ctx.hash(10, 0) % junctions.len() as u64) as usize];
        let slot = ctx.hash(11, 0) % (ctx.slots() / 2).max(1);
        ctx.add_leak(slot, node, self.coefficient);
        // Let the break discharge for a slot before sampling the flood.
        ctx.trigger_flood((slot + 1).min(ctx.slots() - 1));
    }
}

/// Adversarial sensor spoofing: installs the sensing crate's `Malicious`
/// coordinated-bias fault mode, compromising a hash-chosen fraction of
/// channels from `onset_fraction` of the way into the campaign. The
/// bias is chosen to defeat naive averaging but violate plausibility
/// bounds, so sticky quarantine must catch it.
#[derive(Debug, Clone)]
pub struct SensorSpoof {
    /// Fraction of channels compromised, in `[0, 1]`.
    pub rate: f64,
    /// Coordinated bias magnitude added to every compromised channel.
    pub bias: f64,
    /// Campaign fraction at which the attack begins, in `[0, 1]`.
    pub onset_fraction: f64,
}

impl Hazard for SensorSpoof {
    fn name(&self) -> &'static str {
        "sensor-spoof"
    }

    fn compile(&self, ctx: &mut HazardContext<'_>) {
        let onset = ((ctx.slots() as f64) * self.onset_fraction.clamp(0.0, 1.0)) as u64;
        ctx.set_faults(FaultModel {
            malicious_rate: self.rate,
            malicious_bias: self.bias,
            malicious_onset: onset,
            seed: ctx.hazard_seed(),
            ..FaultModel::none()
        });
    }
}

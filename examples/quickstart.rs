//! Quickstart: train an AquaSCALE profile on the canonical EPA-NET network,
//! inject a multi-leak failure, and localize it in milliseconds.
//!
//! Run with: `cargo run --release --example quickstart`

use aquascale::core::{AquaScale, AquaScaleConfig, ExternalObservations};
use aquascale::hydraulics::{solve_snapshot, LeakEvent, Scenario, SolverOptions};
use aquascale::ml::ModelKind;
use aquascale::net::synth;
use aquascale::sensing::{feature_row, measure, FaultInjector};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The canonical EPA-NET network: 96 nodes, 118 pipes, 2 pumps,
    //    1 valve, 3 tanks, 2 water sources.
    let net = synth::epa_net();
    println!(
        "network: {} ({} nodes, {} pipes)",
        net.name(),
        net.node_count(),
        net.pipe_count()
    );

    // 2. Phase I — train the profile model offline (Algorithm 1).
    //    `small()` keeps the demo fast; `paper_scale()` uses 20 000 runs.
    let config = AquaScaleConfig {
        model: ModelKind::hybrid_rsl(),
        train_samples: 400,
        max_events: 3,
        ..AquaScaleConfig::small()
    };
    let aqua = AquaScale::new(&net, config);
    println!("training profile model (HybridRSL, 400 scenarios)...");
    let profile = aqua.train_profile()?;
    println!("  trained in {:?}", profile.training_time);

    // 3. A failure happens: two concurrent leaks at t = 2h.
    let junctions = net.junction_ids();
    let truth = [junctions[23], junctions[67]];
    let scenario = Scenario::new().with_leaks([
        LeakEvent::new(truth[0], 0.012, 7200),
        LeakEvent::new(truth[1], 0.008, 7200),
    ]);

    // 4. The IoT layer reports the change between consecutive readings,
    //    each with measurement noise (slots 7 and 9 bracket the onset).
    let opts = SolverOptions::default();
    let before = solve_snapshot(&net, &Scenario::default(), 7200 - 900, &opts)?;
    let after = solve_snapshot(&net, &scenario, 7200 + 900, &opts)?;
    let config = &aqua.config().features;
    let mut rng = StdRng::seed_from_u64(7);
    let readings = measure(
        &profile.sensors,
        &[(7, &before), (9, &after)],
        &config.noise,
        &mut rng,
        &mut FaultInjector::new(config.faults),
    );
    let features = feature_row(&net, config, &readings[0], &readings[1], |_| false);

    // 5. Phase II — online inference (Algorithm 2).
    let inference = aqua.infer(&profile, &features, &ExternalObservations::none())?;
    println!(
        "inference latency: {:?} (the paper's hours -> minutes claim)",
        inference.latency
    );
    println!(
        "true leaks:      {:?}",
        truth.iter().map(|j| &net.node(*j).name).collect::<Vec<_>>()
    );
    println!(
        "predicted leaks: {:?}",
        inference
            .leak_nodes
            .iter()
            .map(|j| &net.node(*j).name)
            .collect::<Vec<_>>()
    );
    let hits = truth
        .iter()
        .filter(|j| inference.leak_nodes.contains(j))
        .count();
    println!("localized {hits}/2 true leaks");
    Ok(())
}

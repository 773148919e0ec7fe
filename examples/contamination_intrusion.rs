//! Contaminant intrusion at a faulty junction: the water-quality hazard the
//! paper's introduction motivates ("Quality of water can also be compromised
//! via contaminant propagation through a faulty pipe").
//!
//! Act 1 — while the pipe is broken, the junction is a local sink (every
//! incident pipe flows toward the leak), so the contaminant stays put: the
//! physics protect downstream users. Act 2 — once pressure is restored but
//! the damaged wall still admits contaminant (a cross-connection), the
//! restored flow field carries the plume downstream; the Lagrangian
//! transport model tracks its spread over six hours.
//!
//! Run with: `cargo run --release --example contamination_intrusion`

use aquascale::hydraulics::{
    solve_snapshot, LeakEvent, QualitySources, Scenario, SolverOptions, WaterQuality,
};
use aquascale::net::synth;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = synth::epa_net();
    let junctions = net.junction_ids();
    let faulty = junctions[40];

    // Hydraulics with the leak active.
    let scenario = Scenario::new().with_leak(LeakEvent::new(faulty, 0.01, 0));
    let snap = solve_snapshot(&net, &scenario, 0, &SolverOptions::default())?;
    println!(
        "leak at {}: outflow {:.1} L/s, pressure {:.1} m",
        net.node(faulty).name,
        snap.emitter_flow(faulty) * 1e3,
        snap.pressure(faulty)
    );

    // Intrusion source: 100 mg/L entering at the faulty junction.
    let sources = QualitySources::none().with_source(faulty, 100.0);
    let mut wq = WaterQuality::new(&net);
    wq.decay_rate = 5e-5; // mildly reactive contaminant
    let dt = 60.0;

    let spread = |wq: &WaterQuality| {
        let cs: Vec<f64> = junctions
            .iter()
            .filter(|&&j| j != faulty)
            .map(|&j| wq.node_concentration(j))
            .collect();
        (
            cs.iter().filter(|&&c| c > 1.0).count(),
            cs.iter().cloned().fold(0.0f64, f64::max),
        )
    };

    // Act 1: one hour with the leak active — the junction is a sink.
    wq.run(&net, &snap, dt, 60, &sources);
    let (n, max) = spread(&wq);
    println!("act 1 (leak active, 1 h): {n} junctions above 1 mg/L (max {max:.1} mg/L) — the leak pulls water inward");

    // Act 2: pressure restored (baseline flows) but the damaged wall still
    // admits contaminant; the plume now travels with the restored flow.
    let restored = solve_snapshot(&net, &Scenario::default(), 0, &SolverOptions::default())?;
    for hour in 1..=6 {
        wq.run(&net, &restored, dt, 60, &sources);
        let (n, max) = spread(&wq);
        println!(
            "act 2, +{hour} h after restoration: {n} junctions above 1 mg/L (max {max:.1} mg/L)"
        );
    }
    println!("\n(advisory zone = junctions above threshold: the area to flush or");
    println!(" valve off once the damaged pipe is localized.)");
    Ok(())
}

//! Criterion micro-benches on the computational kernels.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use aqua_hydraulics::{solve_snapshot, ExtendedPeriodSim, LeakEvent, Scenario, SolverOptions};
use aqua_ml::{Matrix, ModelKind};
use aqua_net::synth;

fn hydraulic_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("hydraulic_snapshot");
    let opts = SolverOptions::default();
    for (name, net) in [
        ("epa_net", synth::epa_net()),
        ("wssc_subnet", synth::wssc_subnet()),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| solve_snapshot(black_box(&net), &Scenario::default(), 0, &opts).unwrap())
        });
    }
    group.finish();
}

fn eps_day(c: &mut Criterion) {
    let net = synth::epa_net();
    let scenario = Scenario::new().with_leak(LeakEvent::new(net.junction_ids()[40], 0.01, 4 * 900));
    c.bench_function("eps_24h_15min_epa_net", |b| {
        b.iter(|| {
            ExtendedPeriodSim::new(&net, scenario.clone(), SolverOptions::default())
                .with_step(900)
                .run(black_box(24 * 3600))
                .unwrap()
        })
    });
}

fn classifier_fit(c: &mut Criterion) {
    // Synthetic binary problem shaped like a per-node leak classifier:
    // 1000 samples x 120 features, 5% positive.
    let n = 1000;
    let d = 120;
    let mut rows = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let row: Vec<f64> = (0..d)
            .map(|j| ((i * 31 + j * 17) % 97) as f64 / 97.0 - 0.5)
            .collect();
        let y = u8::from(row[3] + row[7] > 0.6);
        rows.push(row);
        labels.push(y);
    }
    let x = Matrix::from_vec_rows(rows);

    let mut group = c.benchmark_group("classifier_fit");
    group.sample_size(10);
    for kind in [
        ModelKind::linear_r(),
        ModelKind::logistic_r(),
        ModelKind::gradient_boosting(),
        ModelKind::random_forest(),
        ModelKind::svm(),
        ModelKind::hybrid_rsl(),
    ] {
        group.bench_function(kind.name(), |b| {
            b.iter(|| {
                let mut m = kind.build(1);
                m.fit(black_box(&x), black_box(&labels)).unwrap();
                m
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("classifier_predict");
    for kind in [ModelKind::random_forest(), ModelKind::hybrid_rsl()] {
        let mut m = kind.build(1);
        m.fit(&x, &labels).unwrap();
        group.bench_function(kind.name(), |b| {
            b.iter(|| m.predict_proba(black_box(&x)).unwrap())
        });
    }
    group.finish();
}

fn flood_step(c: &mut Criterion) {
    use aqua_flood::{Dem, FloodSim, PointSource};
    let net = synth::wssc_subnet();
    let dem = Dem::from_network(&net, 96, 64);
    let sources = [PointSource {
        x: net.nodes()[100].x,
        y: net.nodes()[100].y,
        flow_m3s: 1.0,
    }];
    c.bench_function("flood_step_96x64", |b| {
        let mut sim = FloodSim::new(dem.clone());
        // Pre-wet so the bench measures the loaded stepping cost.
        sim.run(&sources, 300.0);
        b.iter(|| sim.step(black_box(&sources)))
    });
}

criterion_group!(
    benches,
    hydraulic_solve,
    eps_day,
    classifier_fit,
    flood_step
);
criterion_main!(benches);

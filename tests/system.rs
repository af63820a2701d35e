//! Full-system integration tests: the four accelerators end-to-end on
//! shared workloads, checking the paper's headline orderings and the
//! internal consistency of the simulation reports.

use idgnn::baselines::{Booster, Race, Ready};
use idgnn::core::{IdgnnAccelerator, SimOptions};
use idgnn::graph::generate::{generate_dynamic_graph, GraphConfig, StreamConfig};
use idgnn::graph::{DynamicGraph, Normalization};
use idgnn::hw::AcceleratorConfig;
use idgnn::model::{Activation, Algorithm, DgnnModel, ModelConfig};

fn workload() -> (DgnnModel, DynamicGraph) {
    let dg = generate_dynamic_graph(
        &GraphConfig::power_law(600, 2_400, 48),
        &StreamConfig {
            deltas: 4,
            dissimilarity: 0.03,
            addition_fraction: 0.75,
            feature_update_fraction: 0.03,
        },
        77,
    )
    .expect("generation succeeds");
    let model = DgnnModel::from_config(&ModelConfig {
        input_dim: 48,
        gnn_hidden: 24,
        gnn_layers: 3,
        rnn_hidden: 24,
        activation: Activation::Relu,
        normalization: Normalization::SelfLoops,
        seed: 13,
        rnn_kernel: Default::default(),
    })
    .expect("model builds");
    (model, dg)
}

fn config() -> AcceleratorConfig {
    AcceleratorConfig::paper_default().scaled_down(32)
}

#[test]
fn headline_ordering_cycles_energy_dram() {
    let (model, dg) = workload();
    let idgnn = IdgnnAccelerator::new(config())
        .expect("valid config")
        .simulate(&model, &dg, &SimOptions::default())
        .expect("simulates");
    let baselines = [
        ("ReaDy", Ready::new(config()).unwrap().simulate(&model, &dg).unwrap()),
        ("DGNN-Booster", Booster::new(config()).unwrap().simulate(&model, &dg).unwrap()),
        ("RACE", Race::new(config()).unwrap().simulate(&model, &dg).unwrap()),
    ];
    for (name, r) in &baselines {
        assert!(
            idgnn.total_cycles < r.total_cycles,
            "{name}: I-DGNN {} !< {}",
            idgnn.total_cycles,
            r.total_cycles
        );
        assert!(
            idgnn.energy.total_pj() < r.energy.total_pj(),
            "{name}: energy ordering violated"
        );
        assert!(idgnn.dram_bytes < r.dram_bytes, "{name}: DRAM ordering violated");
    }
}

#[test]
fn reports_are_internally_consistent() {
    let (model, dg) = workload();
    for report in [
        IdgnnAccelerator::new(config())
            .unwrap()
            .simulate(&model, &dg, &SimOptions::default())
            .unwrap(),
        Ready::new(config()).unwrap().simulate(&model, &dg).unwrap(),
        Race::new(config()).unwrap().simulate(&model, &dg).unwrap(),
    ] {
        assert_eq!(report.snapshots.len(), dg.num_snapshots());
        assert!(report.total_cycles > 0.0);
        assert!(report.total_cycles <= report.serial_cycles + 1e-6);
        let snap_dram: u64 = report.snapshots.iter().map(|s| s.dram_bytes).sum();
        assert_eq!(snap_dram, report.dram_bytes);
        let snap_energy: f64 =
            report.snapshots.iter().map(|s| s.energy.total_pj()).sum();
        assert!((snap_energy - report.energy.total_pj()).abs() / snap_energy.max(1.0) < 1e-9);
        assert!(report.energy.control_share() < 0.03);
        assert!(report.ops.total() > 0);
        assert!(report.seconds(700_000_000) > 0.0);
    }
}

#[test]
fn simulation_is_deterministic() {
    let (model, dg) = workload();
    let accel = IdgnnAccelerator::new(config()).unwrap();
    let a = accel.simulate(&model, &dg, &SimOptions::default()).unwrap();
    let b = accel.simulate(&model, &dg, &SimOptions::default()).unwrap();
    assert_eq!(a, b);
}

#[test]
fn same_hardware_algorithm_swap_matches_fig13_shape() {
    let (model, dg) = workload();
    let accel = IdgnnAccelerator::new(config()).unwrap();
    let cycles = |alg: Algorithm| {
        accel
            .simulate(&model, &dg, &SimOptions { algorithm: Some(alg), ..Default::default() })
            .unwrap()
            .total_cycles
    };
    let p = cycles(Algorithm::OnePass);
    let re = cycles(Algorithm::Recompute);
    let inc = cycles(Algorithm::Incremental);
    assert!(p < re, "P {p} !< Re {re}");
    assert!(p < inc, "P {p} !< Inc {inc}");
}

#[test]
fn onepass_advantage_grows_under_bandwidth_pressure() {
    // Halving the DRAM bandwidth hurts the DRAM-hungry baselines more than
    // the (almost DRAM-free) one-pass accelerator.
    let (model, dg) = workload();
    let fast = config();
    let mut slow = config();
    slow.dram_bandwidth_bps /= 4;

    let ratio = |cfg: AcceleratorConfig| {
        let ours = IdgnnAccelerator::new(cfg)
            .unwrap()
            .simulate(&model, &dg, &SimOptions::default())
            .unwrap()
            .total_cycles;
        let theirs = Race::new(cfg).unwrap().simulate(&model, &dg).unwrap().total_cycles;
        theirs / ours
    };
    let r_fast = ratio(fast);
    let r_slow = ratio(slow);
    assert!(
        r_slow > r_fast,
        "advantage should grow: fast {r_fast:.2} vs slow {r_slow:.2}"
    );
}

#[test]
fn vertex_count_scaling_is_sane() {
    // Bigger graphs cost more cycles on every accelerator.
    let small = generate_dynamic_graph(
        &GraphConfig::power_law(200, 800, 16),
        &StreamConfig::default(),
        3,
    )
    .unwrap();
    let large = generate_dynamic_graph(
        &GraphConfig::power_law(800, 3_200, 16),
        &StreamConfig::default(),
        3,
    )
    .unwrap();
    let model = DgnnModel::from_config(&ModelConfig {
        input_dim: 16,
        gnn_hidden: 8,
        gnn_layers: 3,
        rnn_hidden: 8,
        activation: Activation::Relu,
        normalization: Normalization::SelfLoops,
        seed: 2,
        rnn_kernel: Default::default(),
    })
    .unwrap();
    let accel = IdgnnAccelerator::new(config()).unwrap();
    let c_small = accel.simulate(&model, &small, &SimOptions::default()).unwrap().total_cycles;
    let c_large = accel.simulate(&model, &large, &SimOptions::default()).unwrap().total_cycles;
    assert!(c_large > 2.0 * c_small, "large {c_large} vs small {c_small}");
}

#[test]
fn cli_exits_quietly_when_stdout_closes_early() {
    // `idgnn-sim … | head` with a reader that has already left: every write
    // hits a closed pipe, which ends the run with exit code 0, not a panic.
    use std::process::{Command, Stdio};
    let mut child = Command::new(env!("CARGO_BIN_EXE_idgnn-sim"))
        .args(["dataset=WD", "accel=all"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("idgnn-sim starts");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("idgnn-sim finishes");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
}

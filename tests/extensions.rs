//! Integration tests for the paper-adjacent extensions: continuous-time
//! streams (§II-A) and CommonGraph core views (§VI-F), exercised through
//! the public facade end-to-end.

use idgnn::core::{Diu, IdgnnAccelerator, SimOptions};
use idgnn::graph::{
    adjacency_from_edges, CommonCoreView, ContinuousGraph, GraphSnapshot, Normalization,
    UpdateEvent, UpdateOp,
};
use idgnn::hw::AcceleratorConfig;
use idgnn::model::{exec, Activation, Algorithm, DgnnModel, MemoryModel, ModelConfig};
use idgnn::sparse::DenseMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn event_stream(seed: u64) -> ContinuousGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 60usize;
    let mut edges = Vec::new();
    for u in 0..n {
        let v = (u + 1) % n;
        edges.push((u, v));
    }
    let initial = GraphSnapshot::new(
        adjacency_from_edges(n, &edges).unwrap(),
        DenseMatrix::filled(n, 6, 0.5),
    )
    .unwrap();
    let mut events = Vec::new();
    for i in 0..120 {
        let t = i as f64 * 0.05 + rng.gen_range(0.0..0.01);
        let op = match i % 4 {
            0 => UpdateOp::AddEdge(rng.gen_range(0..n), rng.gen_range(0..n)),
            1 => UpdateOp::RemoveEdge(rng.gen_range(0..n), rng.gen_range(0..n)),
            _ => UpdateOp::UpdateFeature(
                rng.gen_range(0..n),
                (0..6).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
            ),
        };
        events.push(UpdateEvent { time: t, op });
    }
    ContinuousGraph::new(initial, events)
}

#[test]
fn ctdg_discretization_feeds_the_whole_stack() {
    let ctdg = event_stream(4);
    let dg = ctdg.discretize(1.0).expect("discretizes");
    assert!(dg.num_snapshots() >= 4);

    let model = DgnnModel::from_config(&ModelConfig {
        input_dim: 6,
        gnn_hidden: 4,
        gnn_layers: 2,
        rnn_hidden: 4,
        activation: Activation::Linear,
        normalization: Normalization::Symmetric,
        seed: 8,
        rnn_kernel: Default::default(),
    })
    .unwrap();
    let mem = MemoryModel::paper_default();
    let op = exec::run(Algorithm::OnePass, &model, &dg, &mem).unwrap();
    let re = exec::run(Algorithm::Recompute, &model, &dg, &mem).unwrap();
    for (a, b) in op.outputs.iter().zip(&re.outputs) {
        assert!(a.z.approx_eq(&b.z, 5e-3));
    }
    let accel = IdgnnAccelerator::new(AcceleratorConfig::paper_default().scaled_down(256))
        .unwrap();
    let report = accel.simulate(&model, &dg, &SimOptions::default()).unwrap();
    assert_eq!(report.snapshots.len(), dg.num_snapshots());
}

#[test]
fn coarser_discretization_never_increases_snapshot_count() {
    let ctdg = event_stream(9);
    let fine = ctdg.discretize(0.5).expect("fine");
    let coarse = ctdg.discretize(2.0).expect("coarse");
    assert!(coarse.num_snapshots() <= fine.num_snapshots());
}

#[test]
fn common_core_deltas_are_addition_only_for_the_diu() {
    // Anchoring the DIU on the common core makes every per-snapshot delta
    // addition-only — the CommonGraph integration the paper sketches.
    let ctdg = event_stream(11);
    let dg = ctdg.discretize(1.5).expect("discretizes");
    let view = CommonCoreView::new(&dg).expect("core view");
    let diu = Diu::new(Normalization::SelfLoops);
    for t in 0..view.num_snapshots() {
        let snapshot = view.reconstruct(t).expect("reconstructs");
        let out = diu.identify(view.core(), &snapshot).expect("identifies");
        // Against the core, the operator delta contains no negative entries.
        assert!(
            out.delta_operator.values().iter().all(|&v| v >= 0.0),
            "snapshot {t} has deletions vs the core"
        );
    }
}

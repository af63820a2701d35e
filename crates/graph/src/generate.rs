//! Synthetic dynamic-graph generation.
//!
//! The paper evaluates on six real dynamic graphs (Table I). Those traces are
//! not redistributable, so this module provides calibrated synthetic
//! equivalents: a power-law (preferential-attachment) topology generator that
//! matches a target vertex/edge/feature budget, plus a snapshot-stream
//! generator with controllable **dissimilarity proportion** (Fig. 15 sweeps
//! 0–15 %) and **addition/deletion mix** (Fig. 16 sweeps 75/25 → 25/75).
//!
//! All generation is deterministic given a seed.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use idgnn_sparse::{CooMatrix, DenseMatrix};

use crate::delta::GraphDelta;
use crate::dynamic::DynamicGraph;
use crate::error::Result;
use crate::snapshot::GraphSnapshot;

/// Topology family for the initial snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Topology {
    /// Uniform random (Erdős–Rényi with a fixed edge budget).
    Uniform,
    /// Preferential attachment (Barabási–Albert-like, power-law degrees) —
    /// the realistic choice for citation/social graphs.
    PowerLaw,
}

/// Configuration for generating one initial snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphConfig {
    /// Number of vertices.
    pub vertices: usize,
    /// Target number of undirected edges.
    pub edges: usize,
    /// Feature dimensionality of `X_0`.
    pub feature_dim: usize,
    /// Topology family.
    pub topology: Topology,
}

impl GraphConfig {
    /// A power-law graph config (the default family for the evaluation).
    pub fn power_law(vertices: usize, edges: usize, feature_dim: usize) -> Self {
        Self { vertices, edges, feature_dim, topology: Topology::PowerLaw }
    }

    /// A uniform random graph config.
    pub fn uniform(vertices: usize, edges: usize, feature_dim: usize) -> Self {
        Self { vertices, edges, feature_dim, topology: Topology::Uniform }
    }

    /// Generates the initial snapshot deterministically from `seed`.
    ///
    /// The edge budget is met exactly when feasible
    /// (`edges <= V(V-1)/2`); otherwise it saturates at the complete graph.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from snapshot assembly (cannot occur for the
    /// bounded edges the generator emits; surfaced instead of panicking).
    pub fn generate(&self, seed: u64) -> Result<GraphSnapshot> {
        let mut rng = StdRng::seed_from_u64(seed);
        let max_edges = self.vertices.saturating_mul(self.vertices.saturating_sub(1)) / 2;
        let target = self.edges.min(max_edges);
        let edges = match self.topology {
            Topology::Uniform => uniform_edges(self.vertices, target, &mut rng),
            Topology::PowerLaw => power_law_edges(self.vertices, target, &mut rng),
        };
        let mut coo = CooMatrix::new(self.vertices, self.vertices);
        for &(u, v) in &edges {
            coo.push_symmetric(u, v, 1.0)?;
        }
        let features = random_features(self.vertices, self.feature_dim, &mut rng);
        GraphSnapshot::new_unchecked_symmetry(coo.to_csr(), features)
    }
}

/// Uniform random feature matrix with entries in `[-1, 1)`.
pub fn random_features(vertices: usize, dim: usize, rng: &mut StdRng) -> DenseMatrix {
    let data = (0..vertices * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    // lint: allow(panic-surface) -- vec length is vertices*dim by construction
    DenseMatrix::from_vec(vertices, dim, data).expect("length matches by construction")
}

// lint: order-insensitive -- the set is a collision probe during seeded sampling; edges are emitted in generation order
fn uniform_edges(n: usize, target: usize, rng: &mut StdRng) -> Vec<(usize, usize)> {
    let mut set = HashSet::with_capacity(target);
    let mut edges = Vec::with_capacity(target);
    if n < 2 {
        return edges;
    }
    while edges.len() < target {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if set.insert(key) {
            edges.push(key);
        }
    }
    edges
}

// lint: order-insensitive -- the sets are collision/membership probes during seeded sampling; edges are emitted in generation order
fn power_law_edges(n: usize, target: usize, rng: &mut StdRng) -> Vec<(usize, usize)> {
    let mut set: HashSet<(usize, usize)> = HashSet::with_capacity(target);
    let mut edges: Vec<(usize, usize)> = Vec::with_capacity(target);
    // Endpoint multiset for preferential sampling: each edge contributes both
    // endpoints, so sampling uniformly from it is degree-proportional.
    let mut endpoints: Vec<usize> = Vec::with_capacity(2 * target);
    if n < 2 {
        return edges;
    }
    let m = (target / n).max(1);
    let m0 = (m + 1).min(n);

    let push = |u: usize,
                    v: usize,
                    set: &mut HashSet<(usize, usize)>,
                    edges: &mut Vec<(usize, usize)>,
                    endpoints: &mut Vec<usize>|
     -> bool {
        if u == v {
            return false;
        }
        let key = (u.min(v), u.max(v));
        if set.insert(key) {
            edges.push(key);
            endpoints.push(u);
            endpoints.push(v);
            true
        } else {
            false
        }
    };

    // Seed clique over the first m0 vertices.
    for u in 0..m0 {
        for v in (u + 1)..m0 {
            if edges.len() >= target {
                break;
            }
            push(u, v, &mut set, &mut edges, &mut endpoints);
        }
    }
    // Preferential attachment for the remaining vertices.
    for u in m0..n {
        let mut attached = 0;
        let mut attempts = 0;
        while attached < m && attempts < 16 * m {
            attempts += 1;
            let v = if endpoints.is_empty() {
                rng.gen_range(0..u)
            } else {
                endpoints[rng.gen_range(0..endpoints.len())]
            };
            if v < u && push(u, v, &mut set, &mut edges, &mut endpoints) {
                attached += 1;
            }
        }
        if attached == 0 {
            // Guarantee connectivity progress even in pathological cases.
            push(u, rng.gen_range(0..u), &mut set, &mut edges, &mut endpoints);
        }
    }
    // Top up (preferentially) or trim to hit the exact budget.
    let mut guard = 0usize;
    while edges.len() < target && guard < 64 * target + 1024 {
        guard += 1;
        let u = endpoints[rng.gen_range(0..endpoints.len())];
        let v = rng.gen_range(0..n);
        push(u, v, &mut set, &mut edges, &mut endpoints);
    }
    while edges.len() > target {
        edges.pop();
    }
    edges
}

/// Configuration of the evolution process producing a snapshot stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Number of deltas (the stream has `snapshots + 1` snapshots total…
    /// no: `deltas` deltas on top of the initial snapshot).
    pub deltas: usize,
    /// Fraction of the current edge count changed per transition
    /// (the paper observes 4.1–13.3 % on real data; Fig. 15 sweeps 0–15 %).
    pub dissimilarity: f64,
    /// Fraction of changed edges that are additions (Fig. 16 sweeps
    /// 0.75 → 0.25).
    pub addition_fraction: f64,
    /// Fraction of vertices whose input feature row changes per transition.
    pub feature_update_fraction: f64,
}

impl Default for StreamConfig {
    /// Matches the real-data midpoint: ~8 % dissimilarity, 75 % additions,
    /// 5 % feature churn, 4 transitions.
    fn default() -> Self {
        Self {
            deltas: 4,
            dissimilarity: 0.08,
            addition_fraction: 0.75,
            feature_update_fraction: 0.05,
        }
    }
}

/// Generates a full dynamic graph: initial snapshot plus an evolution stream.
///
/// Deterministic given `seed`.
///
/// # Errors
///
/// Propagates delta-application errors (should not occur for generated
/// deltas; surfaced for API honesty rather than panicking).
pub fn generate_dynamic_graph(
    graph: &GraphConfig,
    stream: &StreamConfig,
    seed: u64,
) -> Result<DynamicGraph> {
    let initial = graph.generate(seed)?;
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x9E37_79B9_7F4A_7C15));
    let mut dg = DynamicGraph::new(initial);
    let mut current = dg.initial().clone();
    for _ in 0..stream.deltas {
        let delta = random_delta(&current, stream, &mut rng);
        current = delta.apply(&current)?;
        dg.push_delta(delta);
    }
    Ok(dg)
}

/// Generates one random delta against `current` with the configured
/// dissimilarity and addition/deletion mix.
// lint: order-insensitive -- the sets are collision/membership probes during seeded sampling; changes are pushed in generation order
pub fn random_delta(current: &GraphSnapshot, cfg: &StreamConfig, rng: &mut StdRng) -> GraphDelta {
    let n = current.num_vertices();
    let a = current.adjacency();
    let e = current.num_edges();
    let changes = ((e as f64) * cfg.dissimilarity).round() as usize;
    let n_add = ((changes as f64) * cfg.addition_fraction).round() as usize;
    let n_del = changes.saturating_sub(n_add);

    let mut builder = GraphDelta::builder();

    // Deletions: sample distinct existing edges.
    let mut existing: Vec<(usize, usize)> = Vec::with_capacity(e);
    for r in 0..n {
        for (c, _) in a.row_iter(r) {
            if c > r {
                existing.push((r, c));
            }
        }
    }
    let mut deleted = HashSet::new();
    for _ in 0..n_del.min(existing.len()) {
        loop {
            let idx = rng.gen_range(0..existing.len());
            if deleted.insert(existing[idx]) {
                let (u, v) = existing[idx];
                builder = builder.remove_edge(u, v);
                break;
            }
        }
    }

    // Additions: rejection-sample absent pairs.
    let mut added = HashSet::new();
    let max_possible = n * n.saturating_sub(1) / 2;
    let mut attempts = 0usize;
    while added.len() < n_add && attempts < 64 * n_add + 1024 && a.nnz() / 2 + added.len() < max_possible
    {
        attempts += 1;
        if n < 2 {
            break;
        }
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if a.get(key.0, key.1) == 0.0 && !deleted.contains(&key) && added.insert(key) {
            builder = builder.add_edge(key.0, key.1);
        }
    }

    // Feature updates.
    let k = current.feature_dim();
    let n_feat = ((n as f64) * cfg.feature_update_fraction).round() as usize;
    let mut updated = HashSet::new();
    while updated.len() < n_feat.min(n) {
        let v = rng.gen_range(0..n);
        if updated.insert(v) {
            let row: Vec<f32> = (0..k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            builder = builder.update_feature(v, row);
        }
    }

    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_hits_edge_budget() {
        let g = GraphConfig::uniform(50, 120, 8).generate(7).unwrap();
        assert_eq!(g.num_vertices(), 50);
        assert_eq!(g.num_edges(), 120);
        assert_eq!(g.feature_dim(), 8);
    }

    #[test]
    fn power_law_hits_edge_budget() {
        let g = GraphConfig::power_law(100, 400, 16).generate(42).unwrap();
        assert_eq!(g.num_edges(), 400);
        assert!(g.adjacency().is_symmetric(0.0));
    }

    #[test]
    fn power_law_has_skewed_degrees() {
        let g = GraphConfig::power_law(200, 800, 4).generate(1).unwrap();
        let stats = idgnn_sparse::stats::StructureStats::of(g.adjacency());
        // Hub degree should be far above the mean for preferential attachment.
        assert!(
            stats.max_row_nnz as f64 > 3.0 * stats.mean_row_nnz,
            "max {} vs mean {}",
            stats.max_row_nnz,
            stats.mean_row_nnz
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = GraphConfig::power_law(60, 200, 4).generate(9).unwrap();
        let b = GraphConfig::power_law(60, 200, 4).generate(9).unwrap();
        assert_eq!(a, b);
        let c = GraphConfig::power_law(60, 200, 4).generate(10).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn edge_budget_saturates_at_complete_graph() {
        let g = GraphConfig::uniform(4, 100, 2).generate(3).unwrap();
        assert_eq!(g.num_edges(), 6);
    }

    #[test]
    fn stream_respects_dissimilarity() {
        let cfg = GraphConfig::power_law(80, 300, 8);
        let stream = StreamConfig { deltas: 3, dissimilarity: 0.10, ..Default::default() };
        let dg = generate_dynamic_graph(&cfg, &stream, 11).unwrap();
        assert_eq!(dg.num_snapshots(), 4);
        let mut cur = dg.initial().clone();
        for d in dg.deltas() {
            let ratio = d.dissimilarity_ratio(&cur);
            assert!((ratio - 0.10).abs() < 0.02, "ratio {ratio}");
            cur = d.apply(&cur).unwrap();
        }
    }

    #[test]
    fn stream_respects_addition_fraction() {
        let cfg = GraphConfig::power_law(100, 500, 4);
        let stream = StreamConfig {
            deltas: 2,
            dissimilarity: 0.12,
            addition_fraction: 0.25,
            feature_update_fraction: 0.0,
        };
        let dg = generate_dynamic_graph(&cfg, &stream, 5).unwrap();
        for d in dg.deltas() {
            assert!((d.addition_fraction() - 0.25).abs() < 0.1);
        }
    }

    #[test]
    fn stream_feature_updates_present() {
        let cfg = GraphConfig::uniform(40, 100, 6);
        let stream = StreamConfig { feature_update_fraction: 0.25, ..Default::default() };
        let dg = generate_dynamic_graph(&cfg, &stream, 2).unwrap();
        assert_eq!(dg.deltas()[0].feature_updates().len(), 10);
    }

    #[test]
    fn zero_dissimilarity_stream_only_updates_features() {
        let cfg = GraphConfig::uniform(30, 60, 4);
        let stream = StreamConfig {
            deltas: 2,
            dissimilarity: 0.0,
            addition_fraction: 0.5,
            feature_update_fraction: 0.0,
        };
        let dg = generate_dynamic_graph(&cfg, &stream, 8).unwrap();
        for d in dg.deltas() {
            assert!(d.is_empty());
        }
    }

    #[test]
    fn generated_deltas_apply_cleanly_end_to_end() {
        let cfg = GraphConfig::power_law(70, 250, 4);
        let stream = StreamConfig { deltas: 6, ..Default::default() };
        let dg = generate_dynamic_graph(&cfg, &stream, 99).unwrap();
        let snaps = dg.materialize().unwrap();
        assert_eq!(snaps.len(), 7);
        for s in &snaps {
            assert!(s.adjacency().is_symmetric(0.0));
        }
    }
}

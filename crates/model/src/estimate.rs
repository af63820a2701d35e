//! Analytical cost estimator for full-size workloads.
//!
//! The paper's evaluation runs graphs up to Flickr (2.3 M vertices, 33 M
//! edges). Executing those functionally is neither necessary nor what the
//! paper's own simulator does — it estimates from operation/access counts.
//! This module implements that analytical model so the bench harness can
//! report full-size Table-I numbers next to the executed scaled runs:
//!
//! * **AComb** (Eq. 18): `ops = s(s + p)(1 + 2p)·V³` for a 3-layer GNN,
//!   where `p` is the density of `Â^{t-1}` and `s` the density of `ΔÂ`;
//! * **AG** (Eq. 19): `ops = (3s²p + 3sp² + s³)·V²·K` — the trinomial
//!   `(p+s)³ − p³` density of `ΔA_C` times the feature width;
//! * **CB** (Eq. 20): `ops = V·K·C`;
//! * **RNN-B** (Eq. 21): `ops = V·R·(4C + 3)`;
//! * **RNN-A** (Eq. 22): `ops = 4·V·R²`.
//!
//! Each equation is one plain function below ([`acomb_ops`] … [`rnn_a_ops`]);
//! the hardware pipeline model (`idgnn_hw::schedule`) divides them by its
//! MAC count instead of keeping its own copy.
//!
//! The recompute/incremental estimates use the same accounting style the
//! executors implement (documented inline). DRAM volumes mirror the
//! executors' spill policies evaluated against the [`MemoryModel`].

use crate::cost::{dense_bytes, DataClass, MemoryModel, Phase, SnapshotCost, Traffic};
use crate::exec::Algorithm;

/// Effective incremental-frontier growth per GCN hop. Graph neighborhoods
/// overlap heavily on power-law graphs (high clustering), so the frontier
/// does not multiply by the raw mean degree each layer; 3× per hop matches
/// what the executed path observes on the synthetic power-law streams.
pub const FRONTIER_EXPANSION_CAP: f64 = 3.0;

/// Full-size workload description driving the analytical model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Vertex count `V`.
    pub vertices: usize,
    /// Undirected edge count `E`.
    pub edges: usize,
    /// Input feature width `K`.
    pub input_dim: usize,
    /// GNN hidden/output width `C`.
    pub gnn_hidden: usize,
    /// GNN layer count `L` (the closed-form AComb/AG expressions assume 3,
    /// matching the paper; other values use the generic chain estimate).
    pub gnn_layers: usize,
    /// RNN hidden width `R`.
    pub rnn_hidden: usize,
    /// Dissimilarity proportion `δ` between consecutive snapshots.
    pub dissimilarity: f64,
    /// Fraction of changed edges that are additions.
    pub addition_fraction: f64,
    /// Fraction of vertices with updated input features per snapshot.
    pub feature_update_fraction: f64,
    /// Number of snapshots `T` (≥ 1).
    pub snapshots: usize,
}

impl WorkloadSpec {
    /// Builds a spec from a Table-I dataset with the given model dimensions
    /// and evolution parameters.
    pub fn from_dataset(
        d: &idgnn_graph::datasets::DatasetSpec,
        gnn_hidden: usize,
        gnn_layers: usize,
        rnn_hidden: usize,
        dissimilarity: f64,
        snapshots: usize,
    ) -> Self {
        Self {
            vertices: d.vertices,
            edges: d.edges,
            input_dim: d.features,
            gnn_hidden,
            gnn_layers,
            rnn_hidden,
            dissimilarity,
            addition_fraction: 0.75,
            feature_update_fraction: 0.05,
            snapshots,
        }
    }

    /// Stored entries of `Â` (symmetric + self-loops): `2E + V`.
    pub fn operator_nnz(&self) -> f64 {
        2.0 * self.edges as f64 + self.vertices as f64
    }

    /// Density `p` of the normalized operator.
    pub fn p(&self) -> f64 {
        self.operator_nnz() / (self.vertices as f64 * self.vertices as f64)
    }

    /// Mean operator degree `d̄ = nnz / V`.
    pub fn mean_degree(&self) -> f64 {
        self.operator_nnz() / self.vertices as f64
    }

    /// Changed-edge count per transition: `δ·E`.
    pub fn changed_edges(&self) -> f64 {
        self.dissimilarity * self.edges as f64
    }

    /// Vertices touched by structural change. Endpoints collide on hub
    /// vertices, so the expected count follows a balls-into-bins overlap:
    /// `V·(1 − exp(−2·changed/V))`.
    pub fn touched_vertices(&self) -> f64 {
        let v = self.vertices as f64;
        v * (1.0 - (-2.0 * self.changed_edges() / v).exp())
    }

    /// Stored entries of `ΔÂ`: two per changed edge (symmetric). This matches
    /// the paper's ΔA, whose support is exactly the evolved edges (the
    /// evaluation uses self-loop normalization, under which degree
    /// renormalization does not widen the delta).
    pub fn delta_nnz(&self) -> f64 {
        (2.0 * self.changed_edges()).min(self.operator_nnz())
    }

    /// Density `s` of `ΔÂ`.
    pub fn s(&self) -> f64 {
        self.delta_nnz() / (self.vertices as f64 * self.vertices as f64)
    }

    /// Bytes of the operator in CSR form.
    pub fn operator_csr_bytes(&self) -> u64 {
        (4.0 * (self.vertices as f64 + 1.0 + 2.0 * self.operator_nnz())) as u64
    }

    /// Bytes of `ΔÂ` in CSR form.
    pub fn delta_csr_bytes(&self) -> u64 {
        (4.0 * (self.vertices as f64 + 1.0 + 2.0 * self.delta_nnz())) as u64
    }

    /// Total model weight bytes (GCN chain + 8 LSTM matrices).
    pub fn weight_bytes(&self) -> u64 {
        let k = self.input_dim as u64;
        let c = self.gnn_hidden as u64;
        let r = self.rnn_hidden as u64;
        let gcn = k * c + (self.gnn_layers as u64 - 1) * c * c;
        4 * (gcn + 4 * c * r + 4 * r * r)
    }
}

/// Eq. 18: AComb multiplies of one 3-layer transition,
/// `s(s + p)(1 + 2p)·V³`, for previous-operator density `p` and
/// dissimilarity density `s`.
pub fn acomb_ops(v: f64, p: f64, s: f64) -> f64 {
    s * (s + p) * (1.0 + 2.0 * p) * v.powi(3)
}

/// Density of `ΔA_C` for a 3-layer GNN — Eq. 19's trinomial
/// `(p + s)³ − p³ = 3s²p + 3sp² + s³` — capped at a full matrix.
pub fn delta_ac_density(p: f64, s: f64) -> f64 {
    (3.0 * s * s * p + 3.0 * s * p * p + s.powi(3)).min(1.0)
}

/// Eq. 19: AG multiplies of applying a `ΔA_C` of density `density` to
/// `K`-wide features, `density·V²·K`.
pub fn ag_ops(v: f64, k: f64, density: f64) -> f64 {
    density * v.powi(2) * k
}

/// Eq. 20: CB multiplies, `V·K·C`.
pub fn cb_ops(v: f64, k: f64, c: f64) -> f64 {
    v * k * c
}

/// Eq. 21: RNN-B multiplies, `V·R·(4C + 3)`: the four gate products
/// `Z·W_α` with `C × R` weights, plus three element-wise operations per
/// state element.
pub fn rnn_b_ops(v: f64, c: f64, r: f64) -> f64 {
    v * r * (4.0 * c + 3.0)
}

/// Eq. 22: RNN-A multiplies, `4·V·R²`.
///
/// RNN-A is `H^{t-1}·U_α` for the four gates ([`crate::LstmCell::rnn_a`])
/// with `R × R` weights `U_α`, so `C` does not enter; the executor counts
/// exactly this. `4·V·C·R` would be RNN-B's `Z·W_α`, already in Eq. 21; the
/// two agree only when `C = R`, as in every shipped shape.
pub fn rnn_a_ops(v: f64, r: f64) -> f64 {
    4.0 * v * r * r
}

/// Estimates the per-snapshot costs of running `algorithm` on `spec`.
///
/// Snapshot 0 is a full from-scratch pass for every algorithm; snapshots
/// `1..T` follow the steady-state formulas.
pub fn estimate(algorithm: Algorithm, spec: &WorkloadSpec, mem: &MemoryModel) -> Vec<SnapshotCost> {
    let mut out = Vec::with_capacity(spec.snapshots);
    for t in 0..spec.snapshots {
        out.push(match algorithm {
            Algorithm::Recompute => recompute_snapshot(spec, mem),
            Algorithm::Incremental => {
                if t == 0 {
                    incremental_initial(spec, mem)
                } else {
                    incremental_snapshot(spec, mem)
                }
            }
            Algorithm::OnePass => {
                if t == 0 {
                    onepass_initial(spec, mem)
                } else {
                    onepass_snapshot(spec, mem)
                }
            }
        });
    }
    out
}

fn ops(mults: f64) -> idgnn_sparse::OpStats {
    // Analytical estimates treat adds ≈ mults (each MAC is one of each).
    idgnn_sparse::OpStats::counted(mults.max(0.0) as u64, mults.max(0.0) as u64)
}

fn rnn_phases(spec: &WorkloadSpec, mem: &MemoryModel, cost: &mut SnapshotCost) {
    let v = spec.vertices as f64;
    let c = spec.gnn_hidden as f64;
    let r = spec.rnn_hidden as f64;
    let a_ops = rnn_a_ops(v, r);
    let b_ops = rnn_b_ops(v, c, r);
    let state_bytes = 2 * dense_bytes(spec.vertices, spec.rnn_hidden);
    let spilled = !mem.fits(state_bytes + dense_bytes(spec.vertices, spec.gnn_hidden));
    let mut ta = Traffic::none();
    let mut tb = Traffic::none();
    if spilled {
        ta.read(DataClass::OutputFeature, dense_bytes(spec.vertices, spec.rnn_hidden));
        tb.read(DataClass::OutputFeature, dense_bytes(spec.vertices, spec.rnn_hidden));
        tb.write(DataClass::OutputFeature, state_bytes);
    }
    cost.push(Phase::RnnA, ops(a_ops), ta);
    cost.push(Phase::RnnB, ops(b_ops), tb);
}

fn recompute_snapshot(spec: &WorkloadSpec, mem: &MemoryModel) -> SnapshotCost {
    let mut cost = SnapshotCost::default();
    let v = spec.vertices as f64;
    let k = spec.input_dim as f64;
    let c = spec.gnn_hidden as f64;
    let nnz = spec.operator_nnz();

    let mut front = Traffic::none();
    front.read(DataClass::Weight, spec.weight_bytes());
    front.read(DataClass::Graph, spec.operator_csr_bytes());
    front.read(DataClass::InputFeature, dense_bytes(spec.vertices, spec.input_dim));
    cost.push(Phase::Diu, idgnn_sparse::OpStats::default(), front);

    // The recompute paradigm stages every layer's output through DRAM
    // (see `exec::recompute`); only the final Z stays on-chip when it fits.
    let z_spilled = !mem.fits(
        dense_bytes(spec.vertices, spec.gnn_hidden)
            + 2 * dense_bytes(spec.vertices, spec.rnn_hidden),
    );
    for l in 0..spec.gnn_layers {
        let in_dim = if l == 0 { k } else { c };
        let mut ag_t = Traffic::none();
        if l > 0 {
            ag_t.read(DataClass::Intermediate, dense_bytes(spec.vertices, spec.gnn_hidden));
        }
        cost.push(Phase::Aggregation, ops(nnz * in_dim), ag_t);
        let mut cb_t = Traffic::none();
        if l + 1 == spec.gnn_layers {
            if z_spilled {
                cb_t.write(DataClass::OutputFeature, dense_bytes(spec.vertices, spec.gnn_hidden));
            }
        } else {
            cb_t.write(DataClass::Intermediate, dense_bytes(spec.vertices, spec.gnn_hidden));
        }
        cost.push(Phase::Combination, ops(v * in_dim * c), cb_t);
    }
    rnn_phases(spec, mem, &mut cost);
    cost
}

fn incremental_initial(spec: &WorkloadSpec, mem: &MemoryModel) -> SnapshotCost {
    // Same work as a recompute pass; additionally the caches are
    // established (accounted by the same spill policy).
    recompute_snapshot(spec, mem)
}

fn incremental_snapshot(spec: &WorkloadSpec, mem: &MemoryModel) -> SnapshotCost {
    let mut cost = SnapshotCost::default();
    let v = spec.vertices as f64;
    let k = spec.input_dim as f64;
    let c = spec.gnn_hidden as f64;
    let d = spec.mean_degree();

    let mut front = Traffic::none();
    front.read(DataClass::Weight, spec.weight_bytes());
    front.read(DataClass::Graph, spec.delta_csr_bytes());
    let f0 = (spec.feature_update_fraction * v).min(v);
    front.read(DataClass::InputFeature, (f0 * k * 4.0) as u64);
    cost.push(Phase::Diu, idgnn_sparse::OpStats::default(), front);

    // Duplicated intermediates of both snapshots dominate the cache.
    let cache_bytes = dense_bytes(spec.vertices, spec.input_dim)
        + 2 * spec.gnn_layers as u64 * dense_bytes(spec.vertices, spec.gnn_hidden)
        + dense_bytes(spec.vertices, spec.gnn_hidden)
        + 2 * dense_bytes(spec.vertices, spec.rnn_hidden)
        + spec.weight_bytes();
    let cache_spilled = !mem.fits(cache_bytes);

    // Affected fraction grows per hop, seeded by the structurally-touched
    // and feature-updated vertices. Real graphs' neighborhoods overlap
    // heavily (clustering), so the effective frontier growth per hop is far
    // below the mean degree; we cap it (documented in DESIGN.md §5).
    let factor = d.min(FRONTIER_EXPANSION_CAP);
    let f_struct = spec.touched_vertices() / v;
    let mut affected = ((spec.touched_vertices() + f0) / v).min(1.0);
    for l in 0..spec.gnn_layers {
        let in_dim = if l == 0 { k } else { c };
        affected = (affected * factor + f_struct).min(1.0);
        let rows = affected * v;
        // Each gathered source row is fetched once per layer.
        let unique_rows = (rows * d.min(FRONTIER_EXPANSION_CAP)).min(v);
        let mut ag_t = Traffic::none();
        if l == 0 {
            if cache_spilled {
                ag_t.read(DataClass::Graph, (rows * d * 8.0) as u64);
                ag_t.read(DataClass::InputFeature, (unique_rows * in_dim * 4.0) as u64);
            }
        } else {
            ag_t.read(DataClass::Intermediate, (unique_rows * in_dim * 4.0) as u64);
        }
        cost.push(Phase::Aggregation, ops(rows * d * in_dim), ag_t);
        let mut cb_t = Traffic::none();
        if l + 1 == spec.gnn_layers {
            if cache_spilled {
                cb_t.write(DataClass::OutputFeature, (rows * c * 4.0) as u64);
            }
        } else {
            cb_t.write(DataClass::Intermediate, (rows * c * 4.0) as u64);
        }
        cost.push(Phase::Combination, ops(rows * in_dim * c), cb_t);
    }
    if cache_spilled {
        let unchanged = ((1.0 - affected) * v).max(0.0);
        let mut t = Traffic::none();
        t.read(DataClass::OutputFeature, (unchanged * c * 4.0) as u64);
        cost.push(Phase::Diu, idgnn_sparse::OpStats::default(), t);
    }
    rnn_phases(spec, mem, &mut cost);
    cost
}

fn onepass_initial(spec: &WorkloadSpec, mem: &MemoryModel) -> SnapshotCost {
    let mut cost = SnapshotCost::default();
    let v = spec.vertices as f64;
    let k = spec.input_dim as f64;
    let c = spec.gnn_hidden as f64;
    let nnz = spec.operator_nnz();

    let mut t_w = Traffic::none();
    t_w.read(DataClass::Weight, spec.weight_bytes());
    // WComb: the weight chain K·C·C per extra layer.
    cost.push(Phase::WComb, ops(k * c * c * (spec.gnn_layers as f64 - 1.0)), t_w);

    // A_C is never materialized: the initial pre-activation Â^L·X_0·W_C is a
    // chain of L full SpMMs plus one GEMM (AComb cost is zero from scratch).
    let mut t_g = Traffic::none();
    t_g.read(DataClass::Graph, spec.operator_csr_bytes());
    cost.push(Phase::AComb, ops(0.0), t_g);

    let mut t_x = Traffic::none();
    t_x.read(DataClass::InputFeature, dense_bytes(spec.vertices, spec.input_dim));
    cost.push(Phase::Aggregation, ops(spec.gnn_layers as f64 * nnz * k), t_x);
    cost.push(Phase::Combination, ops(v * k * c), Traffic::none());
    rnn_phases(spec, mem, &mut cost);
    cost
}

fn onepass_snapshot(spec: &WorkloadSpec, mem: &MemoryModel) -> SnapshotCost {
    let mut cost = SnapshotCost::default();
    let v = spec.vertices as f64;
    let k = spec.input_dim as f64;
    let c = spec.gnn_hidden as f64;
    let p = spec.p();
    let s = spec.s();
    let d = spec.mean_degree();

    // DIU: deletions rebuild CSR rows (≈ d̄ word moves each), additions
    // append (≈ 1 each) — the asymmetry behind Fig. 16.
    let changed = spec.changed_edges();
    let deletions = changed * (1.0 - spec.addition_fraction);
    let additions = changed * spec.addition_fraction;
    let diu_ops = idgnn_sparse::OpStats::counted(
        0,
        (spec.delta_nnz() + deletions * d + additions) as u64,
    );
    let mut t_diu = Traffic::none();
    t_diu.read(DataClass::Graph, spec.delta_csr_bytes());
    let f0 = (spec.feature_update_fraction * v).min(v);
    t_diu.read(DataClass::InputFeature, (f0 * k * 4.0) as u64);
    cost.push(Phase::Diu, diu_ops, t_diu);

    // Resident on-chip state: GSB holds Â^t and ΔA; LB holds the X_0 cache,
    // the pre-activation/output pair, and the RNN state.
    let resident = spec.operator_csr_bytes()
        + spec.delta_csr_bytes()
        + dense_bytes(spec.vertices, spec.input_dim)
        + 2 * dense_bytes(spec.vertices, spec.gnn_hidden)
        + 2 * dense_bytes(spec.vertices, spec.rnn_hidden);
    let spilled = !mem.fits(resident);

    // Eq. 18 (AComb) — stated for the 3-layer model.
    let acomb = if spec.gnn_layers == 3 {
        acomb_ops(v, p, s)
    } else {
        // Generic chain estimate: L products each ≈ s·p·V³.
        spec.gnn_layers as f64 * s * p * v * v * v
    };
    let dac_density = delta_ac_density(p, s);
    let dac_nnz = dac_density * v * v;
    let mut t_ac = Traffic::none();
    if spilled {
        t_ac.read(DataClass::Graph, spec.operator_csr_bytes());
        t_ac.write(DataClass::Graph, (4.0 * (v + 1.0 + 2.0 * dac_nnz)) as u64);
    }
    cost.push(Phase::AComb, ops(acomb), t_ac);

    // Eq. 19 (AG): density of ΔA_C times K, plus the chained application of
    // Â^t to the sparse-row ΔX_0 (A_C is never materialized).
    let mut chain = 0.0;
    let mut chain_rows = (spec.feature_update_fraction * v).min(v);
    for _ in 0..spec.gnn_layers {
        chain += chain_rows * d * k;
        chain_rows = (chain_rows * d.min(FRONTIER_EXPANSION_CAP)).min(v);
    }
    let ag = ag_ops(v, k, dac_density) + chain;
    let support_rows = (dac_density * v * v / (d.max(1.0))).min(v);
    let mut t_ag = Traffic::none();
    t_ag.read(DataClass::InputFeature, (support_rows * k * 4.0) as u64);
    cost.push(Phase::Aggregation, ops(ag), t_ag);

    let cb = cb_ops(v, k, c);
    let mut t_cb = Traffic::none();
    if spilled {
        t_cb.read(DataClass::OutputFeature, (support_rows * c * 4.0) as u64);
        t_cb.write(DataClass::OutputFeature, (support_rows * c * 4.0) as u64);
    }
    cost.push(Phase::Combination, ops(cb), t_cb);

    rnn_phases(spec, mem, &mut cost);
    cost
}

/// Sums the estimated costs of a whole run.
pub fn estimate_totals(
    algorithm: Algorithm,
    spec: &WorkloadSpec,
    mem: &MemoryModel,
) -> (idgnn_sparse::OpStats, Traffic) {
    let costs = estimate(algorithm, spec, mem);
    let ops = costs.iter().fold(idgnn_sparse::OpStats::default(), |a, c| a + c.total_ops());
    let dram = costs.iter().fold(Traffic::none(), |a, c| a.merged(&c.total_dram()));
    (ops, dram)
}

#[cfg(test)]
mod tests {
    use super::*;
    use idgnn_graph::datasets::{PUBMED, WIKIPEDIA};

    fn spec() -> WorkloadSpec {
        // C = R = 256 (typical GCN-accelerator hidden widths) at a
        // dissimilarity low enough that incremental reuse has headroom.
        WorkloadSpec::from_dataset(&WIKIPEDIA, 256, 3, 256, 0.005, 5)
    }

    fn tight() -> MemoryModel {
        MemoryModel { onchip_bytes: 1024 }
    }

    #[test]
    fn derived_quantities_are_sane() {
        let s = spec();
        assert!(s.p() > 0.0 && s.p() < 1.0);
        assert!(s.s() > 0.0 && s.s() < s.p());
        assert!(s.mean_degree() > 1.0);
        assert!(s.weight_bytes() > 0);
    }

    #[test]
    fn onepass_cheapest_in_ops() {
        let s = spec();
        let m = MemoryModel::paper_default();
        let (op, _) = estimate_totals(Algorithm::OnePass, &s, &m);
        let (inc, _) = estimate_totals(Algorithm::Incremental, &s, &m);
        let (rec, _) = estimate_totals(Algorithm::Recompute, &s, &m);
        assert!(op.total() < inc.total(), "onepass {} !< inc {}", op.total(), inc.total());
        assert!(inc.total() < rec.total(), "inc {} !< rec {}", inc.total(), rec.total());
    }

    #[test]
    fn onepass_has_zero_intermediate_dram() {
        let (_, dram) = estimate_totals(Algorithm::OnePass, &spec(), &tight());
        assert_eq!(dram.of(DataClass::Intermediate), 0);
    }

    #[test]
    fn baselines_have_intermediate_dram_under_pressure() {
        for alg in [Algorithm::Recompute, Algorithm::Incremental] {
            let (_, dram) = estimate_totals(alg, &spec(), &tight());
            assert!(dram.of(DataClass::Intermediate) > 0, "{alg}");
        }
    }

    #[test]
    fn intermediates_dominate_baseline_dram() {
        // The paper's Fig. 3 observation: 62–79 % of baseline DRAM volume is
        // intermediate data (its breakdown folds inter-kernel output/state
        // features into the same bucket).
        let (_, dram) = estimate_totals(Algorithm::Recompute, &spec(), &tight());
        let inter = dram.of(DataClass::Intermediate) + dram.of(DataClass::OutputFeature);
        let frac = inter as f64 / dram.total() as f64;
        assert!((0.5..0.95).contains(&frac), "intermediate fraction {frac}");
    }

    #[test]
    fn onepass_dram_grows_with_dissimilarity() {
        let mut lo = spec();
        lo.dissimilarity = 0.02;
        let mut hi = spec();
        hi.dissimilarity = 0.14;
        let (ops_lo, d_lo) = estimate_totals(Algorithm::OnePass, &lo, &tight());
        let (ops_hi, d_hi) = estimate_totals(Algorithm::OnePass, &hi, &tight());
        assert!(d_hi.total() > d_lo.total());
        assert!(ops_hi.total() > ops_lo.total());
    }

    #[test]
    fn deletion_heavy_costs_more() {
        // Fig. 16's shape: more deletions → more DIU work.
        let mut adds = spec();
        adds.addition_fraction = 0.75;
        let mut dels = spec();
        dels.addition_fraction = 0.25;
        let (a, _) = estimate_totals(Algorithm::OnePass, &adds, &tight());
        let (d, _) = estimate_totals(Algorithm::OnePass, &dels, &tight());
        assert!(d.total() > a.total());
    }

    #[test]
    fn weights_loaded_once_for_onepass_every_time_for_baselines() {
        let m = tight();
        let s = spec();
        let (_, d_op) = estimate_totals(Algorithm::OnePass, &s, &m);
        let (_, d_re) = estimate_totals(Algorithm::Recompute, &s, &m);
        assert_eq!(d_op.of(DataClass::Weight), s.weight_bytes());
        assert_eq!(d_re.of(DataClass::Weight), s.snapshots as u64 * s.weight_bytes());
    }

    #[test]
    fn pubmed_workload_builds() {
        let s = WorkloadSpec::from_dataset(&PUBMED, 32, 3, 32, 0.10, 4);
        assert_eq!(s.vertices, 1_917);
        assert_eq!(s.snapshots, 4);
        let costs = estimate(Algorithm::OnePass, &s, &MemoryModel::paper_default());
        assert_eq!(costs.len(), 4);
    }

    #[test]
    fn rnn_a_ops_count_the_hidden_state_products_when_c_differs_from_r() {
        // Eq. 22 pinned against the executed cell with C ≠ R: RNN-A is
        // H·U_α over four R × R gate weights, so C must not enter.
        let (v, c, r) = (5usize, 12usize, 4usize);
        let cell = crate::LstmCell::random(c, r, 3);
        let (_, ops) = cell.rnn_a(&idgnn_sparse::DenseMatrix::zeros(v, r)).unwrap();
        assert_eq!(ops.mults as f64, rnn_a_ops(v as f64, r as f64));
    }
}

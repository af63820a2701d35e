//! The fine-grained pipeline scheduler and its analytical model
//! (paper §V-C, Eqs. 16–22).
//!
//! Each PE's MAC units are partitioned between the GNN kernel (`α`) and the
//! RNN kernel (`β = 1 − α`) so that the GNN of snapshot `t` and the RNN-A of
//! snapshot `t-1` overlap with balanced latency. The objective is
//! `min |CompT_G^t − CompT_RA^{t-1} − CompT_RB^t|` — equalizing the two
//! pipeline legs. Because every phase latency is `work / (M·share)`, the
//! optimum has the closed form `α* = W_G / (W_G + W_R)`.
//!
//! This model lived in `idgnn-core` through PR 5; it moved here so that the
//! static budget verifier ([`crate::budget`]) and the design-space
//! exploration engine (`idgnn-dse`) can evaluate schedule feasibility
//! without pulling in the full-system simulator. `idgnn-core` re-exports
//! every item, so downstream callers are unaffected.

use idgnn_model::estimate;

use crate::error::{HwError, Result};

/// Workload parameters of one snapshot transition feeding Eqs. 18–22.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineWorkload {
    /// Vertex count `V^t`.
    pub vertices: f64,
    /// Input feature width `K^t`.
    pub features: f64,
    /// GNN output width `C`.
    pub gnn_width: f64,
    /// RNN hidden width `R`.
    pub rnn_width: f64,
    /// Sparsity (density) of the previous operator, `p^{t-1}`.
    pub p_prev: f64,
    /// Sparsity (density) of the dissimilarity matrix, `s^t`.
    pub s: f64,
    /// PE count `M`.
    pub pes: f64,
    /// MAC units per PE.
    pub macs_per_pe: f64,
}

impl PipelineWorkload {
    /// Builds the Eqs. 18–22 workload for a dataset shape on `cfg`, using
    /// the standard density heuristics the static verifier and the
    /// one-pass executor share: the previous-operator density is the
    /// graph's own edge density `p = E/V²`, and the dissimilarity density
    /// is an order of magnitude sparser (`s = p/10`, the §V-B observation
    /// that ΔA carries ~a tenth of the active structure per snapshot).
    pub fn for_shape(
        cfg: &crate::config::AcceleratorConfig,
        vertices: u64,
        edges: u64,
        features: u64,
        gnn_width: u64,
        rnn_width: u64,
    ) -> Self {
        let v = vertices as f64;
        let p = if vertices == 0 { 0.0 } else { edges as f64 / (v * v) };
        Self {
            vertices: v,
            features: features as f64,
            gnn_width: gnn_width as f64,
            rnn_width: rnn_width as f64,
            p_prev: p,
            s: p / 10.0,
            pes: cfg.num_pes() as f64,
            macs_per_pe: cfg.macs_per_pe as f64,
        }
    }

    fn denom(&self, share: f64) -> f64 {
        (self.pes * self.macs_per_pe * share).max(1.0)
    }

    /// Eq. 18: adjacency-fusion time for a 3-layer GNN at GNN share `alpha`.
    pub fn comp_t_acomb(&self, alpha: f64) -> f64 {
        estimate::acomb_ops(self.vertices, self.p_prev, self.s) / self.denom(alpha)
    }

    /// Eq. 19: aggregation time at GNN share `alpha`.
    pub fn comp_t_ag(&self, alpha: f64) -> f64 {
        let density = estimate::delta_ac_density(self.p_prev, self.s);
        estimate::ag_ops(self.vertices, self.features, density) / self.denom(alpha)
    }

    /// Eq. 20: combination time at GNN share `alpha`.
    pub fn comp_t_cb(&self, alpha: f64) -> f64 {
        estimate::cb_ops(self.vertices, self.features, self.gnn_width) / self.denom(alpha)
    }

    /// Total GNN-kernel time at share `alpha`.
    pub fn comp_t_gnn(&self, alpha: f64) -> f64 {
        self.comp_t_acomb(alpha) + self.comp_t_ag(alpha) + self.comp_t_cb(alpha)
    }

    /// Eq. 21: RNN-B time at RNN share `beta`.
    pub fn comp_t_rnn_b(&self, beta: f64) -> f64 {
        estimate::rnn_b_ops(self.vertices, self.gnn_width, self.rnn_width) / self.denom(beta)
    }

    /// Eq. 22: RNN-A time at RNN share `beta` — `4·V·R²`, the hidden-state
    /// products `H·U_α` (see [`estimate::rnn_a_ops`]).
    pub fn comp_t_rnn_a(&self, beta: f64) -> f64 {
        estimate::rnn_a_ops(self.vertices, self.rnn_width) / self.denom(beta)
    }

    /// The scheduler objective: `|T_G(α) − T_RA(β) − T_RB(β)|`.
    pub fn imbalance(&self, schedule: PipelineSchedule) -> f64 {
        (self.comp_t_gnn(schedule.alpha)
            - self.comp_t_rnn_a(schedule.beta)
            - self.comp_t_rnn_b(schedule.beta))
        .abs()
    }
}

/// A MAC partition between the GNN (`alpha`) and RNN (`beta`) kernels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineSchedule {
    /// GNN share of each PE's MAC units, `(0, 1)`.
    pub alpha: f64,
    /// RNN share, `beta = 1 − alpha`.
    pub beta: f64,
}

impl PipelineSchedule {
    /// A fixed 50/50 split (the RACE-style static partition; the ablation
    /// bench compares against it).
    pub fn even() -> Self {
        Self { alpha: 0.5, beta: 0.5 }
    }

    /// Builds a schedule from the GNN share, clamping both shares so that
    /// each kernel keeps at least one MAC unit per 16-unit PE.
    pub fn from_alpha(alpha: f64) -> Self {
        let a = alpha.clamp(MIN_SHARE, 1.0 - MIN_SHARE);
        Self { alpha: a, beta: 1.0 - a }
    }
}

/// Minimum MAC share per kernel (one unit of the paper's 4×4 array).
pub const MIN_SHARE: f64 = 1.0 / 16.0;

/// The fine-grained pipeline scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PipelineScheduler;

impl PipelineScheduler {
    /// Solves the analytical model for the balancing MAC partition.
    ///
    /// With every latency of the form `W / (M·share)`, the objective
    /// `|W_G/α − W_R/(1−α)|` vanishes at `α* = W_G / (W_G + W_R)`.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::InvalidConfig`] if the workload is degenerate
    /// (no PEs).
    pub fn optimize(&self, w: &PipelineWorkload) -> Result<PipelineSchedule> {
        if w.pes < 1.0 || w.macs_per_pe < 1.0 {
            return Err(HwError::InvalidConfig {
                reason: "scheduler requires at least one PE with one MAC",
            });
        }
        // Work terms (numerators) at unit share.
        let g = w.comp_t_gnn(1.0);
        let r = w.comp_t_rnn_a(1.0) + w.comp_t_rnn_b(1.0);
        if g + r == 0.0 {
            return Ok(PipelineSchedule::even());
        }
        Ok(PipelineSchedule::from_alpha(g / (g + r)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload() -> PipelineWorkload {
        PipelineWorkload {
            vertices: 9227.0,
            features: 172.0,
            gnn_width: 256.0,
            rnn_width: 256.0,
            p_prev: 3.8e-3,
            s: 3.0e-4,
            pes: 1024.0,
            macs_per_pe: 16.0,
        }
    }

    #[test]
    fn for_shape_matches_manual_construction() {
        let cfg = crate::config::AcceleratorConfig::paper_default();
        let w = PipelineWorkload::for_shape(&cfg, 9227, 157_474, 172, 256, 256);
        assert_eq!(w.pes, 1024.0);
        assert_eq!(w.macs_per_pe, 16.0);
        let p = 157_474.0 / (9227.0 * 9227.0);
        assert!((w.p_prev - p).abs() < 1e-12);
        assert!((w.s - p / 10.0).abs() < 1e-12);
        // The optimizer must produce a feasible schedule for every Table-I
        // shape on the paper config.
        let sched = PipelineScheduler.optimize(&w).unwrap();
        assert!(sched.alpha >= MIN_SHARE && sched.beta >= MIN_SHARE);
    }

    #[test]
    fn optimum_balances_pipeline_legs() {
        let sched = PipelineScheduler.optimize(&workload()).unwrap();
        let w = workload();
        let g = w.comp_t_gnn(sched.alpha);
        let r = w.comp_t_rnn_a(sched.beta) + w.comp_t_rnn_b(sched.beta);
        let rel = (g - r).abs() / g.max(r);
        assert!(rel < 0.01, "relative imbalance {rel}");
    }

    #[test]
    fn optimum_beats_even_split() {
        let w = workload();
        let opt = PipelineScheduler.optimize(&w).unwrap();
        assert!(w.imbalance(opt) <= w.imbalance(PipelineSchedule::even()) + 1e-9);
    }

    #[test]
    fn rnn_heavy_workload_gets_large_beta() {
        // Tiny graph delta, huge RNN: the GNN needs almost nothing.
        let mut w = workload();
        w.s = 1e-9;
        w.features = 4.0;
        w.gnn_width = 512.0;
        w.rnn_width = 512.0;
        let sched = PipelineScheduler.optimize(&w).unwrap();
        assert!(sched.beta > 0.5, "beta {}", sched.beta);
    }

    #[test]
    fn gnn_heavy_workload_gets_large_alpha() {
        let mut w = workload();
        w.s = 0.05; // dense delta
        w.rnn_width = 4.0;
        let sched = PipelineScheduler.optimize(&w).unwrap();
        assert!(sched.alpha > 0.5, "alpha {}", sched.alpha);
    }

    #[test]
    fn shares_respect_minimum_allocation() {
        let mut w = workload();
        w.s = 0.0;
        w.features = 0.0;
        let sched = PipelineScheduler.optimize(&w).unwrap();
        assert!(sched.alpha >= MIN_SHARE);
        assert!(sched.beta >= MIN_SHARE);
        assert!((sched.alpha + sched.beta - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rnn_a_time_ignores_the_gnn_width() {
        // Eq. 22 with C ≠ R: one PE with one MAC makes time equal work,
        // and RNN-A's work is 4·V·R² (the H·U_α products), not 4·V·C·R.
        let mut w = workload();
        w.pes = 1.0;
        w.macs_per_pe = 1.0;
        w.gnn_width = 64.0;
        w.rnn_width = 16.0;
        assert_eq!(w.comp_t_rnn_a(1.0), 4.0 * 9227.0 * 16.0 * 16.0);
        w.gnn_width = 128.0;
        assert_eq!(w.comp_t_rnn_a(1.0), 4.0 * 9227.0 * 16.0 * 16.0);
    }

    #[test]
    fn degenerate_hardware_rejected() {
        let mut w = workload();
        w.pes = 0.0;
        assert!(PipelineScheduler.optimize(&w).is_err());
    }

    #[test]
    fn zero_work_defaults_even() {
        let w = PipelineWorkload {
            vertices: 0.0,
            features: 0.0,
            gnn_width: 0.0,
            rnn_width: 0.0,
            p_prev: 0.0,
            s: 0.0,
            pes: 4.0,
            macs_per_pe: 16.0,
        };
        assert_eq!(PipelineScheduler.optimize(&w).unwrap(), PipelineSchedule::even());
    }

    #[test]
    fn eq18_matches_paper_form() {
        // CompT_AComb = s(s+p)(1+2p)V³ / (Mα): check the algebra directly.
        let w = workload();
        let expect = w.s * (w.s + w.p_prev) * (1.0 + 2.0 * w.p_prev) * w.vertices.powi(3)
            / (w.pes * w.macs_per_pe * 0.5);
        assert!((w.comp_t_acomb(0.5) - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn latencies_scale_inversely_with_share() {
        let w = workload();
        assert!((w.comp_t_cb(0.25) - 2.0 * w.comp_t_cb(0.5)).abs() < 1e-6);
        assert!((w.comp_t_rnn_a(0.25) - 2.0 * w.comp_t_rnn_a(0.5)).abs() < 1e-6);
    }
}

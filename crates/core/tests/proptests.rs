//! Property-based tests for the I-DGNN accelerator components: scheduler
//! optimality, dataflow partition invariants, and simulation sanity.

use idgnn_core::{
    DataflowPolicy, IdgnnAccelerator, PipelineSchedule, PipelineScheduler, PipelineWorkload,
    SchedulerPolicy, SimOptions, TorusDataflow, MIN_SHARE,
};
use idgnn_graph::generate::{generate_dynamic_graph, GraphConfig, StreamConfig};
use idgnn_graph::Normalization;
use idgnn_hw::AcceleratorConfig;
use idgnn_model::{Activation, DgnnModel, ModelConfig};
use idgnn_sparse::{CooMatrix, CsrMatrix};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn closed_form_schedule_beats_any_grid_point(
        vertices in 100.0f64..10_000.0,
        features in 8.0f64..512.0,
        gnn_width in 8.0f64..256.0,
        rnn_width in 8.0f64..256.0,
        p in 1e-4f64..1e-2,
        s_frac in 0.01f64..0.5,
    ) {
        let w = PipelineWorkload {
            vertices,
            features,
            gnn_width,
            rnn_width,
            p_prev: p,
            s: p * s_frac,
            pes: 1024.0,
            macs_per_pe: 16.0,
        };
        let opt = PipelineScheduler.optimize(&w).unwrap();
        let best_obj = w.imbalance(opt);
        for alpha in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9] {
            let candidate = PipelineSchedule::from_alpha(alpha);
            prop_assert!(
                best_obj <= w.imbalance(candidate) + 1e-6,
                "α={alpha}: {} < {}",
                w.imbalance(candidate),
                best_obj
            );
        }
        prop_assert!(opt.alpha >= MIN_SHARE && opt.beta >= MIN_SHARE);
    }

    #[test]
    fn partitions_are_a_disjoint_cover(v in 0usize..5_000, pes in 1usize..128) {
        let df = TorusDataflow::new(pes);
        let parts = df.partitions(v);
        prop_assert_eq!(parts.len(), pes);
        let mut covered = 0usize;
        let mut cursor = 0usize;
        for p in &parts {
            prop_assert_eq!(p.start, cursor, "partitions must be contiguous");
            cursor = p.end;
            covered += p.len();
        }
        prop_assert_eq!(covered, v);
        // Balance: sizes differ by at most one.
        let max = parts.iter().map(|p| p.len()).max().unwrap_or(0);
        let min = parts.iter().map(|p| p.len()).min().unwrap_or(0);
        prop_assert!(max - min <= 1);
    }

    #[test]
    fn load_balance_is_in_unit_interval(
        entries in prop::collection::vec((0usize..40, 0usize..40), 0..200),
        pes in 1usize..32,
    ) {
        let mut coo = CooMatrix::new(40, 40);
        for (r, c) in entries {
            coo.push(r, c, 1.0).unwrap();
        }
        let m: CsrMatrix = coo.to_csr();
        let lb = TorusDataflow::new(pes).load_balance(&m);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&lb), "lb {lb}");
    }

    #[test]
    fn simulation_options_never_break_invariants(
        seed in 0u64..40,
        even in any::<bool>(),
        broadcast in any::<bool>(),
        no_pipe in any::<bool>(),
    ) {
        let dg = generate_dynamic_graph(
            &GraphConfig::power_law(80, 240, 8),
            &StreamConfig { deltas: 2, ..Default::default() },
            seed,
        )
        .unwrap();
        let model = DgnnModel::from_config(&ModelConfig {
            input_dim: 8,
            gnn_hidden: 6,
            gnn_layers: 2,
            rnn_hidden: 4,
            activation: Activation::Relu,
            normalization: Normalization::SelfLoops,
            seed,
            rnn_kernel: Default::default(),
        })
        .unwrap();
        let accel =
            IdgnnAccelerator::new(AcceleratorConfig::paper_default().scaled_down(128)).unwrap();
        let opts = SimOptions {
            scheduler: if even { SchedulerPolicy::Even } else { SchedulerPolicy::Analytical },
            dataflow: if broadcast { DataflowPolicy::Broadcast } else { DataflowPolicy::Rotation },
            disable_pipeline: no_pipe,
            ..Default::default()
        };
        let r = accel.simulate(&model, &dg, &opts).unwrap();
        prop_assert!(r.total_cycles.is_finite() && r.total_cycles > 0.0);
        prop_assert!(r.total_cycles <= r.serial_cycles + 1e-6);
        prop_assert!(r.energy.total_pj() > 0.0);
        prop_assert!(r.energy.control_share() < 0.03);
        prop_assert!(r.utilization().mean_mac() <= 1.0 + 1e-9);
        for s in &r.snapshots {
            prop_assert!(s.schedule.alpha >= MIN_SHARE && s.schedule.beta >= MIN_SHARE);
            prop_assert!((s.schedule.alpha + s.schedule.beta - 1.0).abs() < 1e-9);
        }
    }
}

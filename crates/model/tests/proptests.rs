//! Property-based tests of the model-level invariants: layer fusion, the
//! one-pass kernel, and cross-algorithm equivalence on random dynamic
//! graphs.

use idgnn_graph::generate::{generate_dynamic_graph, GraphConfig, StreamConfig};
use idgnn_graph::Normalization;
use idgnn_model::exec::{CombinationOrder, OnePassOptions};
use idgnn_model::onepass::{
    fused_dissimilarity, fused_dissimilarity_cached, DissimilarityStrategy, PowerCache,
};
use idgnn_model::{
    exec, fusion, Activation, Algorithm, DgnnModel, DissimilarityStrategy as Strat, MemoryModel,
    ModelConfig,
};
use idgnn_sparse::ops;
use proptest::prelude::*;

fn random_model(seed: u64, k: usize, layers: usize, activation: Activation) -> DgnnModel {
    DgnnModel::from_config(&ModelConfig {
        input_dim: k,
        gnn_hidden: 5,
        gnn_layers: layers,
        rnn_hidden: 4,
        activation,
        normalization: Normalization::Symmetric,
        seed,
        rnn_kernel: Default::default(),
    })
    .expect("model builds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dissimilarity_kernel_matches_power_difference(
        v in 8usize..30,
        e_mult in 1usize..4,
        dissim in 0.01f64..0.15,
        layers in 1u32..4,
        seed in 0u64..200,
    ) {
        // ΔA_C == (Â^{t+1})^L − (Â^t)^L for every strategy, on random
        // symmetric operator pairs.
        let dg = generate_dynamic_graph(
            &GraphConfig::power_law(v, v * e_mult, 3),
            &StreamConfig { deltas: 1, dissimilarity: dissim, ..Default::default() },
            seed,
        )
        .unwrap();
        let snaps = dg.materialize().unwrap();
        let a_prev = Normalization::Symmetric.apply(snaps[0].adjacency());
        let a_next = Normalization::Symmetric.apply(snaps[1].adjacency());
        let delta = ops::sp_sub(&a_next, &a_prev).unwrap().pruned(0.0);
        let want = ops::sp_sub(
            &ops::sp_pow_with_stats(&a_next, layers).unwrap().0,
            &ops::sp_pow_with_stats(&a_prev, layers).unwrap().0,
        )
        .unwrap()
        .pruned(0.0);
        for strat in [Strat::General, Strat::TransposeOptimized] {
            let got = fused_dissimilarity(&a_prev, &delta, layers, strat).unwrap();
            prop_assert!(
                got.delta_ac.approx_eq(&want, 1e-3),
                "L={layers} {strat:?}: diff {}",
                ops::sp_sub(&got.delta_ac, &want).unwrap().max_abs()
            );
        }
    }

    #[test]
    fn fusion_is_exact_for_linear_models(
        v in 8usize..24,
        layers in 1usize..4,
        seed in 0u64..200,
    ) {
        let dg = generate_dynamic_graph(
            &GraphConfig::power_law(v, v * 2, 6),
            &StreamConfig { deltas: 0, ..Default::default() },
            seed,
        )
        .unwrap();
        let model = random_model(seed, 6, layers, Activation::Linear);
        let a = Normalization::Symmetric.apply(dg.initial().adjacency());
        let layered = model.gcn().forward(&a, dg.initial().features()).unwrap();
        let (wc, _) = fusion::fuse_weights(model.gcn()).unwrap();
        let (ac, _) = ops::sp_pow_with_stats(&a, layers as u32).unwrap();
        let (fused, _, _) =
            fusion::fused_forward(&ac, dg.initial().features(), &wc, Activation::Linear).unwrap();
        prop_assert!(
            layered.approx_eq(&fused.output, 1e-2),
            "L={layers}: diff {}",
            layered.max_abs_diff(&fused.output).unwrap()
        );
    }

    #[test]
    fn onepass_equals_recompute_on_random_linear_workloads(
        v in 12usize..40,
        dissim in 0.0f64..0.15,
        add_frac in 0.2f64..1.0,
        seed in 0u64..200,
    ) {
        let dg = generate_dynamic_graph(
            &GraphConfig::power_law(v, v * 3, 6),
            &StreamConfig {
                deltas: 2,
                dissimilarity: dissim,
                addition_fraction: add_frac,
                feature_update_fraction: 0.1,
            },
            seed,
        )
        .unwrap();
        let model = random_model(seed, 6, 3, Activation::Linear);
        let mem = MemoryModel::paper_default();
        let a = exec::run(Algorithm::OnePass, &model, &dg, &mem).unwrap();
        let b = exec::run(Algorithm::Recompute, &model, &dg, &mem).unwrap();
        for (x, y) in a.outputs.iter().zip(&b.outputs) {
            prop_assert!(
                x.z.approx_eq(&y.z, 1e-2),
                "diff {}",
                x.z.max_abs_diff(&y.z).unwrap()
            );
        }
    }

    #[test]
    fn incremental_equals_recompute_under_relu(
        v in 12usize..40,
        dissim in 0.0f64..0.15,
        seed in 0u64..200,
    ) {
        let dg = generate_dynamic_graph(
            &GraphConfig::power_law(v, v * 3, 6),
            &StreamConfig {
                deltas: 2,
                dissimilarity: dissim,
                addition_fraction: 0.6,
                feature_update_fraction: 0.1,
            },
            seed,
        )
        .unwrap();
        let model = random_model(seed, 6, 3, Activation::Relu);
        let mem = MemoryModel::paper_default();
        let a = exec::run(Algorithm::Incremental, &model, &dg, &mem).unwrap();
        let b = exec::run(Algorithm::Recompute, &model, &dg, &mem).unwrap();
        for (x, y) in a.outputs.iter().zip(&b.outputs) {
            prop_assert!(x.z.approx_eq(&y.z, 1e-3));
            prop_assert!(x.state.h.approx_eq(&y.state.h, 1e-3));
        }
    }

    #[test]
    fn execution_orders_agree_on_random_workloads(seed in 0u64..100) {
        let dg = generate_dynamic_graph(
            &GraphConfig::power_law(25, 75, 8),
            &StreamConfig { deltas: 2, ..Default::default() },
            seed,
        )
        .unwrap();
        let model = random_model(seed, 8, 2, Activation::Relu);
        let mem = MemoryModel::paper_default();
        let run_order = |order| {
            exec::run_onepass_with(
                &model,
                &dg,
                &mem,
                &OnePassOptions { order, ..Default::default() },
            )
            .unwrap()
        };
        let a = run_order(CombinationOrder::AggregationFirst);
        let b = run_order(CombinationOrder::CombinationFirst);
        for (x, y) in a.outputs.iter().zip(&b.outputs) {
            prop_assert!(x.z.approx_eq(&y.z, 1e-3));
        }
    }

    #[test]
    fn power_cache_warm_hit_matches_cold_recompute_bitwise(
        v in 8usize..24,
        e_mult in 1usize..4,
        dissim in 0.01f64..0.12,
        layers in 2u32..5,
        seed in 0u64..200,
    ) {
        // Prime the cache on one delta, advance the resident operator with
        // the same sp_add the kernel performs internally, then apply a second
        // random ΔA: the warm call must hit the cache and still be
        // bit-identical — structure, value bits, and op counts — to a cold
        // recompute on the same operands.
        let dg = generate_dynamic_graph(
            &GraphConfig::power_law(v, v * e_mult, 3),
            &StreamConfig { deltas: 2, dissimilarity: dissim, ..Default::default() },
            seed,
        )
        .unwrap();
        let snaps = dg.materialize().unwrap();
        let a = Normalization::Symmetric.apply(snaps[0].adjacency());
        let a1 = Normalization::Symmetric.apply(snaps[1].adjacency());
        let a2 = Normalization::Symmetric.apply(snaps[2].adjacency());
        let d1 = ops::sp_sub_pruned(&a1, &a).unwrap();

        let mut cache = PowerCache::new();
        fused_dissimilarity_cached(&a, &d1, layers, Strat::General, &mut cache).unwrap();
        // The operator the cache keyed its powers on: base advanced by sp_add,
        // exactly as the kernel computes it internally.
        let resident = ops::sp_add(&a, &d1).unwrap();
        let d2 = ops::sp_sub_pruned(&a2, &resident).unwrap();

        let warm = fused_dissimilarity_cached(&resident, &d2, layers, Strat::General, &mut cache)
            .unwrap();
        let cold = fused_dissimilarity(&resident, &d2, layers, Strat::General).unwrap();

        prop_assert_eq!(cache.hits(), 1, "second call must reuse the cached power chain");
        prop_assert_eq!(warm.delta_ac.indptr(), cold.delta_ac.indptr());
        prop_assert_eq!(warm.delta_ac.indices(), cold.delta_ac.indices());
        let wv: Vec<u32> = warm.delta_ac.values().iter().map(|x| x.to_bits()).collect();
        let cv: Vec<u32> = cold.delta_ac.values().iter().map(|x| x.to_bits()).collect();
        prop_assert_eq!(wv, cv);
        prop_assert_eq!(warm.ops, cold.ops);
        prop_assert_eq!(warm.products, cold.products);
        if layers >= 3 {
            // (Â)² and above are genuinely skipped on a hit.
            prop_assert!(warm.saved.mults > 0, "hit at L≥3 must save real multiplies");
        }
        prop_assert_eq!(cold.saved, Default::default());
    }

    #[test]
    fn adaptive_refresh_never_changes_results(
        dissim in 0.0f64..0.2,
        seed in 0u64..100,
    ) {
        let dg = generate_dynamic_graph(
            &GraphConfig::power_law(30, 90, 6),
            &StreamConfig { deltas: 2, dissimilarity: dissim, ..Default::default() },
            seed,
        )
        .unwrap();
        let model = random_model(seed, 6, 3, Activation::Relu);
        let mem = MemoryModel::paper_default();
        let with = exec::run_onepass_with(
            &model,
            &dg,
            &mem,
            &OnePassOptions { adaptive_refresh: true, ..Default::default() },
        )
        .unwrap();
        let without = exec::run_onepass_with(
            &model,
            &dg,
            &mem,
            &OnePassOptions {
                adaptive_refresh: false,
                strategy: DissimilarityStrategy::TransposeOptimized,
                order: CombinationOrder::Auto,
            },
        )
        .unwrap();
        for (x, y) in with.outputs.iter().zip(&without.outputs) {
            prop_assert!(
                x.z.approx_eq(&y.z, 1e-3),
                "refresh diverged: {}",
                x.z.max_abs_diff(&y.z).unwrap()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn estimator_ops_monotone_in_graph_size(
        v1 in 1_000usize..50_000,
        scale in 2usize..6,
        dissim in 0.005f64..0.1,
    ) {
        // Growing the graph (same density regime) never shrinks any
        // algorithm's estimated work.
        use idgnn_model::estimate::{estimate_totals, WorkloadSpec};
        let mk = |v: usize| WorkloadSpec {
            vertices: v,
            edges: v * 8,
            input_dim: 128,
            gnn_hidden: 64,
            gnn_layers: 3,
            rnn_hidden: 64,
            dissimilarity: dissim,
            addition_fraction: 0.75,
            feature_update_fraction: 0.05,
            snapshots: 4,
        };
        let mem = MemoryModel::paper_default();
        for alg in idgnn_model::ALL_ALGORITHMS {
            let (small, _) = estimate_totals(alg, &mk(v1), &mem);
            let (big, _) = estimate_totals(alg, &mk(v1 * scale), &mem);
            prop_assert!(big.total() >= small.total(), "{alg}: {} < {}", big.total(), small.total());
        }
    }

    #[test]
    fn estimator_onepass_dram_monotone_in_dissimilarity(
        d1 in 0.0f64..0.15,
        d2 in 0.0f64..0.15,
    ) {
        use idgnn_model::estimate::{estimate_totals, WorkloadSpec};
        let mk = |d: f64| WorkloadSpec {
            vertices: 10_000,
            edges: 80_000,
            input_dim: 128,
            gnn_hidden: 64,
            gnn_layers: 3,
            rnn_hidden: 64,
            dissimilarity: d,
            addition_fraction: 0.75,
            feature_update_fraction: 0.05,
            snapshots: 4,
        };
        let mem = MemoryModel { onchip_bytes: 1024 };
        let (lo, hi) = (d1.min(d2), d1.max(d2));
        let (_, dram_lo) = estimate_totals(Algorithm::OnePass, &mk(lo), &mem);
        let (_, dram_hi) = estimate_totals(Algorithm::OnePass, &mk(hi), &mem);
        prop_assert!(dram_hi.total() >= dram_lo.total());
    }

    #[test]
    fn estimated_onepass_never_touches_intermediates(
        v in 1_000usize..100_000,
        dissim in 0.0f64..0.2,
        onchip in 0u64..1 << 26,
    ) {
        use idgnn_model::estimate::{estimate_totals, WorkloadSpec};
        use idgnn_model::DataClass;
        let spec = WorkloadSpec {
            vertices: v,
            edges: v * 10,
            input_dim: 172,
            gnn_hidden: 256,
            gnn_layers: 3,
            rnn_hidden: 256,
            dissimilarity: dissim,
            addition_fraction: 0.6,
            feature_update_fraction: 0.05,
            snapshots: 5,
        };
        let mem = MemoryModel { onchip_bytes: onchip };
        let (_, dram) = estimate_totals(Algorithm::OnePass, &spec, &mem);
        prop_assert_eq!(dram.of(DataClass::Intermediate), 0);
    }
}

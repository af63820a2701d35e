//! Property-based tests for dynamic-graph construction and evolution.

use idgnn_graph::generate::{generate_dynamic_graph, GraphConfig, StreamConfig};
use idgnn_graph::{adjacency_from_edges, GraphDelta, GraphSnapshot, Normalization};
use idgnn_sparse::{ops, DenseMatrix};
use proptest::prelude::*;

/// Strategy: a random simple undirected graph as an edge list.
fn edge_list(n: usize, max_edges: usize) -> impl Strategy<Value = Vec<(usize, usize)>> {
    prop::collection::vec((0..n, 0..n), 0..=max_edges).prop_map(|pairs| {
        pairs
            .into_iter()
            .filter(|(u, v)| u != v)
            .map(|(u, v)| (u.min(v), u.max(v)))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn adjacency_from_edges_always_symmetric(edges in edge_list(12, 30)) {
        let a = adjacency_from_edges(12, &edges).unwrap();
        prop_assert!(a.is_symmetric(0.0));
        prop_assert_eq!(a.rows(), 12);
    }

    #[test]
    fn snapshot_edge_count_matches_unique_edges(edges in edge_list(10, 25)) {
        let unique: std::collections::HashSet<_> = edges.iter().copied().collect();
        let snap = GraphSnapshot::new(
            adjacency_from_edges(10, &edges).unwrap(),
            DenseMatrix::zeros(10, 2),
        )
        .unwrap();
        prop_assert_eq!(snap.num_edges(), unique.len());
    }

    #[test]
    fn delta_apply_recompose_identity(
        edges in edge_list(10, 20),
        add in (0usize..10, 0usize..10),
        feats in prop::collection::vec(-2.0f32..2.0, 3),
    ) {
        // A^{t+1} == A^t + ΔA for every legal delta.
        let base = GraphSnapshot::new(
            adjacency_from_edges(10, &edges).unwrap(),
            DenseMatrix::zeros(10, 3),
        )
        .unwrap();
        let (u, v) = (add.0.min(add.1), add.0.max(add.1));
        let mut builder = GraphDelta::builder().update_feature(2, feats);
        if u != v && base.adjacency().get(u, v) == 0.0 {
            builder = builder.add_edge(u, v);
        }
        if let Some((ru, rv)) = edges.first().copied() {
            if base.adjacency().get(ru, rv) != 0.0 && (ru, rv) != (u, v) {
                builder = builder.remove_edge(ru, rv);
            }
        }
        let delta = builder.build();
        let next = delta.apply(&base).unwrap();
        let da = delta.delta_matrix(&base).unwrap();
        let recomposed = ops::sp_add(base.adjacency(), &da).unwrap().pruned(0.0);
        prop_assert_eq!(&recomposed, next.adjacency());
        let dx = delta.feature_delta(&base).unwrap();
        let xr = base.features().add(&dx).unwrap();
        prop_assert!(xr.approx_eq(next.features(), 1e-6));
    }

    #[test]
    fn generated_streams_always_materialize(
        v in 10usize..60,
        e_mult in 1usize..4,
        dissim in 0.0f64..0.2,
        add_frac in 0.0f64..1.0,
        seed in 0u64..500,
    ) {
        let cfg = GraphConfig::power_law(v, v * e_mult, 4);
        let stream = StreamConfig {
            deltas: 3,
            dissimilarity: dissim,
            addition_fraction: add_frac,
            feature_update_fraction: 0.1,
        };
        let dg = generate_dynamic_graph(&cfg, &stream, seed).unwrap();
        let snaps = dg.materialize().unwrap();
        prop_assert_eq!(snaps.len(), 4);
        for s in &snaps {
            prop_assert!(s.adjacency().is_symmetric(0.0));
            prop_assert_eq!(s.num_vertices(), v);
        }
    }

    #[test]
    fn normalization_preserves_symmetry_on_random_graphs(edges in edge_list(14, 40)) {
        let a = adjacency_from_edges(14, &edges).unwrap();
        for norm in [Normalization::Raw, Normalization::SelfLoops, Normalization::Symmetric] {
            let m = norm.apply(&a);
            prop_assert!(m.is_symmetric(1e-5), "{norm:?}");
            prop_assert!(m.values().iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn symmetric_normalization_spectral_bound(edges in edge_list(12, 30)) {
        // Rows of D̃^{-1/2}(A+I)D̃^{-1/2} have entries in [0, 1].
        let a = adjacency_from_edges(12, &edges).unwrap();
        let m = Normalization::Symmetric.apply(&a);
        prop_assert!(m.values().iter().all(|&x| (0.0..=1.0 + 1e-6).contains(&x)));
    }
}

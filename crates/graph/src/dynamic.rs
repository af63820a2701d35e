//! Discrete-time dynamic graphs: `DG = {G^1, G^2, …, G^T}` (paper Eq. 1).

use crate::delta::GraphDelta;
use crate::error::Result;
use crate::snapshot::GraphSnapshot;

/// A discrete-time dynamic graph stored as an initial snapshot plus a list of
/// deltas — the exact input representation the paper's accelerator consumes
/// (the DIU derives `ΔA`/`ΔX_0` between snapshots; here they are first-class).
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use idgnn_graph::{adjacency_from_edges, DynamicGraph, GraphDelta, GraphSnapshot};
/// use idgnn_sparse::DenseMatrix;
///
/// let g0 = GraphSnapshot::new(
///     adjacency_from_edges(3, &[(0, 1)])?,
///     DenseMatrix::zeros(3, 2),
/// )?;
/// let dg = DynamicGraph::new(g0)
///     .with_delta(GraphDelta::builder().add_edge(1, 2).build());
/// assert_eq!(dg.num_snapshots(), 2);
/// let snaps = dg.materialize()?;
/// assert_eq!(snaps[1].num_edges(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicGraph {
    initial: GraphSnapshot,
    deltas: Vec<GraphDelta>,
}

impl DynamicGraph {
    /// Creates a dynamic graph with a single snapshot and no evolution yet.
    pub fn new(initial: GraphSnapshot) -> Self {
        Self { initial, deltas: Vec::new() }
    }

    /// Appends one more snapshot described by `delta` (builder style).
    #[must_use]
    pub fn with_delta(mut self, delta: GraphDelta) -> Self {
        self.deltas.push(delta);
        self
    }

    /// Appends one more snapshot described by `delta`.
    pub fn push_delta(&mut self, delta: GraphDelta) {
        self.deltas.push(delta);
    }

    /// The initial snapshot `G^1`.
    pub fn initial(&self) -> &GraphSnapshot {
        &self.initial
    }

    /// The deltas between consecutive snapshots, in order.
    pub fn deltas(&self) -> &[GraphDelta] {
        &self.deltas
    }

    /// Total number of snapshots `T` (initial + one per delta).
    pub fn num_snapshots(&self) -> usize {
        1 + self.deltas.len()
    }

    /// A lazy walk over the snapshots `G^1, …, G^T` that holds one snapshot
    /// at a time (see [`SnapshotStream`]).
    pub fn stream(&self) -> SnapshotStream<'_> {
        SnapshotStream { current: self.initial.clone(), index: 0, deltas: self.deltas.iter() }
    }

    /// Materializes every snapshot by successively applying the deltas.
    /// Keeps the whole stream alive; a single pass should use
    /// [`DynamicGraph::stream`] instead.
    ///
    /// # Errors
    ///
    /// Propagates any delta-application error (conflicting edge, bad vertex).
    pub fn materialize(&self) -> Result<Vec<GraphSnapshot>> {
        let mut out = Vec::with_capacity(self.num_snapshots());
        let mut stream = self.stream();
        for transition in &mut stream {
            out.push(transition?.previous);
        }
        out.push(stream.into_current());
        Ok(out)
    }

    /// Mean dissimilarity ratio across transitions (`0.0` if no deltas).
    ///
    /// # Errors
    ///
    /// Propagates any delta-application error.
    pub fn mean_dissimilarity(&self) -> Result<f64> {
        if self.deltas.is_empty() {
            return Ok(0.0);
        }
        let mut sum = 0.0;
        for transition in self.stream() {
            let transition = transition?;
            sum += transition.delta.dissimilarity_ratio(&transition.previous);
        }
        Ok(sum / self.deltas.len() as f64)
    }
}

/// One step of a [`SnapshotStream`]: the delta it applied and the snapshot
/// that delta was applied to.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition<'a> {
    /// Snapshot `G^t`, handed over by value: the stream no longer holds it,
    /// so dropping it frees it.
    pub previous: GraphSnapshot,
    /// The delta that turned `previous` into the stream's new
    /// [`SnapshotStream::current`] snapshot `G^{t+1}`.
    pub delta: &'a GraphDelta,
}

/// A lazy walk over the snapshots of a [`DynamicGraph`].
///
/// The stream holds one snapshot, [`SnapshotStream::current`], starting at
/// `G^1`. Each call to `next` applies the following delta, makes its result
/// the current snapshot, and yields the replaced one with the delta as a
/// [`Transition`]. A consumer that drops each `previous` keeps at most two
/// snapshots alive, however long the stream. The first delta that fails to
/// apply is yielded as an error, after which the stream ends.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use idgnn_graph::{adjacency_from_edges, DynamicGraph, GraphDelta, GraphSnapshot};
/// use idgnn_sparse::DenseMatrix;
///
/// let g0 = GraphSnapshot::new(
///     adjacency_from_edges(3, &[(0, 1)])?,
///     DenseMatrix::zeros(3, 2),
/// )?;
/// let dg = DynamicGraph::new(g0)
///     .with_delta(GraphDelta::builder().add_edge(1, 2).build());
/// let mut stream = dg.stream();
/// assert_eq!(stream.current().num_edges(), 1);
/// let step = stream.next().expect("one delta")?;
/// assert_eq!(step.previous.num_edges(), 1);
/// assert_eq!((stream.index(), stream.current().num_edges()), (1, 2));
/// assert!(stream.next().is_none());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SnapshotStream<'a> {
    current: GraphSnapshot,
    index: usize,
    deltas: std::slice::Iter<'a, GraphDelta>,
}

impl SnapshotStream<'_> {
    /// The snapshot the stream holds now.
    pub fn current(&self) -> &GraphSnapshot {
        &self.current
    }

    /// Time index `t` of [`SnapshotStream::current`] (`0` for `G^1`).
    pub fn index(&self) -> usize {
        self.index
    }

    /// Ends the stream, returning the snapshot it holds.
    pub fn into_current(self) -> GraphSnapshot {
        self.current
    }
}

impl<'a> Iterator for SnapshotStream<'a> {
    type Item = Result<Transition<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        let delta = self.deltas.next()?;
        match delta.apply(&self.current) {
            Ok(next) => {
                self.index += 1;
                let previous = std::mem::replace(&mut self.current, next);
                Some(Ok(Transition { previous, delta }))
            }
            Err(e) => {
                self.deltas = [].iter();
                Some(Err(e))
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.deltas.len()))
    }
}

impl std::fmt::Display for DynamicGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DynamicGraph(T={}, V={}, E₀={}, K={})",
            self.num_snapshots(),
            self.initial.num_vertices(),
            self.initial.num_edges(),
            self.initial.feature_dim()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate_dynamic_graph, GraphConfig, StreamConfig};
    use crate::snapshot::adjacency_from_edges;
    use idgnn_sparse::DenseMatrix;

    fn dg() -> DynamicGraph {
        let g0 = GraphSnapshot::new(
            adjacency_from_edges(4, &[(0, 1), (1, 2)]).unwrap(),
            DenseMatrix::zeros(4, 2),
        )
        .unwrap();
        DynamicGraph::new(g0)
            .with_delta(GraphDelta::builder().add_edge(2, 3).build())
            .with_delta(GraphDelta::builder().remove_edge(0, 1).build())
    }

    #[test]
    fn snapshot_count() {
        assert_eq!(dg().num_snapshots(), 3);
    }

    #[test]
    fn materialize_chains_deltas() {
        let snaps = dg().materialize().unwrap();
        assert_eq!(snaps.len(), 3);
        assert_eq!(snaps[0].num_edges(), 2);
        assert_eq!(snaps[1].num_edges(), 3);
        assert_eq!(snaps[2].num_edges(), 2);
        assert_eq!(snaps[2].adjacency().get(0, 1), 0.0);
    }

    #[test]
    fn stream_pairs_each_snapshot_with_the_delta_applied_to_it() {
        let g = dg();
        let mut stream = g.stream();
        assert_eq!((stream.index(), stream.current().num_edges()), (0, 2));
        let first = stream.next().unwrap().unwrap();
        assert_eq!(first.previous.num_edges(), 2);
        assert_eq!(first.delta.added_edges(), &[(2, 3)]);
        assert_eq!((stream.index(), stream.current().num_edges()), (1, 3));
        let second = stream.next().unwrap().unwrap();
        assert_eq!(second.previous.num_edges(), 3);
        assert_eq!(second.delta.removed_edges(), &[(0, 1)]);
        assert_eq!((stream.index(), stream.current().num_edges()), (2, 2));
        assert!(stream.next().is_none());
    }

    #[test]
    fn stream_yields_the_successive_applications_bit_for_bit() {
        let g = generate_dynamic_graph(
            &GraphConfig::power_law(60, 180, 5),
            &StreamConfig { deltas: 6, ..Default::default() },
            17,
        )
        .unwrap();
        // Independent oracle: fold the deltas over the initial snapshot.
        let mut expected = vec![g.initial().clone()];
        for d in g.deltas() {
            let next = d.apply(expected.last().unwrap()).unwrap();
            expected.push(next);
        }
        let mut stream = g.stream();
        let mut streamed = Vec::new();
        while let Some(transition) = stream.next() {
            let transition = transition.unwrap();
            assert!(std::ptr::eq(transition.delta, &g.deltas()[streamed.len()]));
            streamed.push(transition.previous);
            assert_eq!(stream.index(), streamed.len());
        }
        streamed.push(stream.into_current());
        let materialized = g.materialize().unwrap();
        assert_eq!(streamed.len(), expected.len());
        for (t, ((s, m), e)) in streamed.iter().zip(&materialized).zip(&expected).enumerate() {
            let bits = |x: &GraphSnapshot| {
                let a = x.adjacency();
                let values: Vec<u32> = a.values().iter().map(|v| v.to_bits()).collect();
                let features: Vec<u32> =
                    x.features().as_slice().iter().map(|v| v.to_bits()).collect();
                (a.indptr().to_vec(), a.indices().to_vec(), values, features)
            };
            assert_eq!(bits(s), bits(e), "streamed snapshot {t}");
            assert_eq!(bits(m), bits(e), "materialized snapshot {t}");
        }
    }

    #[test]
    fn stream_fails_at_the_conflicting_transition_and_then_ends() {
        // Delta 2 removes (0,1), which delta 1 already removed.
        let g = dg().with_delta(GraphDelta::builder().remove_edge(0, 1).build());
        assert!(g.materialize().is_err());
        let mut stream = g.stream();
        let results: Vec<bool> = (&mut stream).map(|r| r.is_ok()).collect();
        assert_eq!(results, [true, true, false]);
        // The stream stays at the last snapshot it could build.
        assert_eq!((stream.index(), stream.current().num_edges()), (2, 2));
        assert!(stream.next().is_none());
    }

    #[test]
    fn mean_dissimilarity() {
        // Transition 1: 1 change / 2 edges; transition 2: 1 change / 3 edges.
        let m = dg().mean_dissimilarity().unwrap();
        assert!((m - (0.5 + 1.0 / 3.0) / 2.0).abs() < 1e-12);
        let single = DynamicGraph::new(dg().initial().clone());
        assert_eq!(single.mean_dissimilarity().unwrap(), 0.0);
    }

    #[test]
    fn display_counts() {
        assert_eq!(dg().to_string(), "DynamicGraph(T=3, V=4, E₀=2, K=2)");
    }

    #[test]
    fn push_delta_matches_with_delta() {
        let mut a = DynamicGraph::new(dg().initial().clone());
        a.push_delta(GraphDelta::builder().add_edge(2, 3).build());
        let b = DynamicGraph::new(dg().initial().clone())
            .with_delta(GraphDelta::builder().add_edge(2, 3).build());
        assert_eq!(a, b);
    }
}

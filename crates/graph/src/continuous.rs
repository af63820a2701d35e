//! Continuous-time dynamic graphs (paper §II-A).
//!
//! A continuous-time dynamic graph is a pair `⟨G, O⟩`: an initial static
//! graph `G` plus a timestamped stream of update operations `O`. The paper
//! designs I-DGNN for the *discrete-time* representation, obtained from a
//! CTDG by sampling snapshots at regular intervals — exactly what
//! [`ContinuousGraph::discretize`] does, so event-level data sources plug
//! straight into the accelerator.

use crate::delta::GraphDelta;
use crate::dynamic::DynamicGraph;
use crate::error::{GraphError, Result};
use crate::snapshot::GraphSnapshot;

/// A timestamped update operation on the graph.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateEvent {
    /// Event time (any monotone unit — seconds, ticks, block heights…).
    pub time: f64,
    /// The operation.
    pub op: UpdateOp,
}

/// The operation kinds a CTDG stream may carry.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum UpdateOp {
    /// Insert the undirected edge `(u, v)`.
    AddEdge(usize, usize),
    /// Remove the undirected edge `(u, v)`.
    RemoveEdge(usize, usize),
    /// Replace vertex `v`'s feature row.
    UpdateFeature(usize, Vec<f32>),
}

/// A continuous-time dynamic graph `⟨G, O⟩`.
#[derive(Debug, Clone, PartialEq)]
pub struct ContinuousGraph {
    initial: GraphSnapshot,
    events: Vec<UpdateEvent>,
}

impl ContinuousGraph {
    /// Creates a CTDG from the initial state and an event stream; events are
    /// sorted by time (stable for ties, preserving source order).
    pub fn new(initial: GraphSnapshot, mut events: Vec<UpdateEvent>) -> Self {
        events.sort_by(|a, b| a.time.partial_cmp(&b.time).unwrap_or(std::cmp::Ordering::Equal));
        Self { initial, events }
    }

    /// The initial static graph `G`.
    pub fn initial(&self) -> &GraphSnapshot {
        &self.initial
    }

    /// The update stream `O`, sorted by time.
    pub fn events(&self) -> &[UpdateEvent] {
        &self.events
    }

    /// Time span covered by the events (`0.0` if empty).
    pub fn time_span(&self) -> f64 {
        match (self.events.first(), self.events.last()) {
            (Some(a), Some(b)) => b.time - a.time,
            _ => 0.0,
        }
    }

    /// Samples the CTDG into a discrete-time dynamic graph with snapshots at
    /// `interval`-spaced boundaries: every event in `((k-1)·interval,
    /// k·interval]` (relative to the first event) folds into delta `k`.
    ///
    /// Events that cancel within one interval (an edge added then removed,
    /// repeated feature updates) collapse into the net per-interval change —
    /// the information the discrete-time model can see.
    ///
    /// # Errors
    ///
    /// * [`GraphError::VertexOutOfRange`] for events naming unknown vertices;
    /// * other [`GraphError`]s if the net deltas cannot be applied.
    // lint: order-insensitive -- net-effect maps feed a delta whose application is keyed cell writes; iteration order never reaches the materialized snapshots
    pub fn discretize(&self, interval: f64) -> Result<DynamicGraph> {
        if interval <= 0.0 || !interval.is_finite() {
            return Err(GraphError::EdgeConflict {
                edge: (0, 0),
                reason: "discretization interval must be positive and finite",
            });
        }
        let mut dg = DynamicGraph::new(self.initial.clone());
        if self.events.is_empty() {
            return Ok(dg);
        }
        let t0 = self.events[0].time;
        let mut current = self.initial.clone();
        let mut idx = 0usize;
        let mut boundary = t0 + interval;
        while idx < self.events.len() {
            // Collect the net effect of this interval's events.
            let mut edge_state: std::collections::HashMap<(usize, usize), bool> =
                std::collections::HashMap::new();
            let mut feature_state: std::collections::HashMap<usize, Vec<f32>> =
                std::collections::HashMap::new();
            while idx < self.events.len() && self.events[idx].time <= boundary {
                match &self.events[idx].op {
                    UpdateOp::AddEdge(u, v) => {
                        edge_state.insert((*u.min(v), *u.max(v)), true);
                    }
                    UpdateOp::RemoveEdge(u, v) => {
                        edge_state.insert((*u.min(v), *u.max(v)), false);
                    }
                    UpdateOp::UpdateFeature(vx, row) => {
                        feature_state.insert(*vx, row.clone());
                    }
                }
                idx += 1;
            }
            let mut builder = GraphDelta::builder();
            for ((u, v), present) in edge_state {
                let existed = u < current.num_vertices()
                    && v < current.num_vertices()
                    && current.adjacency().get(u, v) != 0.0;
                match (existed, present) {
                    (false, true) => builder = builder.add_edge(u, v),
                    (true, false) => builder = builder.remove_edge(u, v),
                    _ => {} // no net change
                }
            }
            for (vx, row) in feature_state {
                builder = builder.update_feature(vx, row);
            }
            let delta = builder.build();
            current = delta.apply(&current)?;
            dg.push_delta(delta);
            boundary += interval;
        }
        Ok(dg)
    }
}

impl std::fmt::Display for ContinuousGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ContinuousGraph(V={}, |O|={}, span={:.2})",
            self.initial.num_vertices(),
            self.events.len(),
            self.time_span()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::adjacency_from_edges;
    use idgnn_sparse::DenseMatrix;

    fn base() -> GraphSnapshot {
        GraphSnapshot::new(
            adjacency_from_edges(5, &[(0, 1), (1, 2)]).unwrap(),
            DenseMatrix::zeros(5, 2),
        )
        .unwrap()
    }

    fn ev(time: f64, op: UpdateOp) -> UpdateEvent {
        UpdateEvent { time, op }
    }

    #[test]
    fn events_are_sorted_on_construction() {
        let ctdg = ContinuousGraph::new(
            base(),
            vec![
                ev(5.0, UpdateOp::AddEdge(0, 2)),
                ev(1.0, UpdateOp::AddEdge(2, 3)),
            ],
        );
        assert_eq!(ctdg.events()[0].time, 1.0);
        assert!((ctdg.time_span() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn discretization_buckets_events_by_interval() {
        let ctdg = ContinuousGraph::new(
            base(),
            vec![
                ev(0.0, UpdateOp::AddEdge(2, 3)),
                ev(0.5, UpdateOp::AddEdge(3, 4)),
                ev(1.5, UpdateOp::RemoveEdge(0, 1)),
                ev(2.5, UpdateOp::UpdateFeature(4, vec![7.0, 8.0])),
            ],
        );
        let dg = ctdg.discretize(1.0).unwrap();
        assert_eq!(dg.num_snapshots(), 4);
        let snaps = dg.materialize().unwrap();
        assert_eq!(snaps[1].num_edges(), 4); // both adds in bucket 1
        assert_eq!(snaps[2].num_edges(), 3); // removal in bucket 2
        assert_eq!(snaps[3].features().get(4, 0), 7.0);
    }

    #[test]
    fn canceling_events_collapse_within_an_interval() {
        let ctdg = ContinuousGraph::new(
            base(),
            vec![
                ev(0.1, UpdateOp::AddEdge(2, 4)),
                ev(0.2, UpdateOp::RemoveEdge(2, 4)),
                ev(0.3, UpdateOp::UpdateFeature(1, vec![1.0, 1.0])),
                ev(0.4, UpdateOp::UpdateFeature(1, vec![2.0, 2.0])),
            ],
        );
        let dg = ctdg.discretize(10.0).unwrap();
        assert_eq!(dg.num_snapshots(), 2);
        let d = &dg.deltas()[0];
        assert!(d.added_edges().is_empty());
        assert!(d.removed_edges().is_empty());
        assert_eq!(d.feature_updates().len(), 1);
        assert_eq!(d.feature_updates().next().map(|u| u.values), Some(&[2.0, 2.0][..]));
    }

    #[test]
    fn remove_then_add_within_interval_is_no_change() {
        let ctdg = ContinuousGraph::new(
            base(),
            vec![
                ev(0.1, UpdateOp::RemoveEdge(0, 1)),
                ev(0.9, UpdateOp::AddEdge(0, 1)),
            ],
        );
        let dg = ctdg.discretize(5.0).unwrap();
        assert!(dg.deltas()[0].is_empty());
        assert_eq!(dg.materialize().unwrap()[1].num_edges(), 2);
    }

    #[test]
    fn empty_stream_gives_single_snapshot() {
        let ctdg = ContinuousGraph::new(base(), vec![]);
        assert_eq!(ctdg.discretize(1.0).unwrap().num_snapshots(), 1);
        assert_eq!(ctdg.time_span(), 0.0);
    }

    #[test]
    fn bad_interval_rejected() {
        let ctdg = ContinuousGraph::new(base(), vec![ev(0.0, UpdateOp::AddEdge(0, 2))]);
        assert!(ctdg.discretize(0.0).is_err());
        assert!(ctdg.discretize(f64::NAN).is_err());
        assert!(ctdg.discretize(-1.0).is_err());
    }

    #[test]
    fn out_of_range_event_surfaces_on_apply() {
        let ctdg = ContinuousGraph::new(base(), vec![ev(0.0, UpdateOp::AddEdge(0, 99))]);
        assert!(ctdg.discretize(1.0).is_err());
    }

    #[test]
    fn display_counts() {
        let ctdg = ContinuousGraph::new(base(), vec![ev(1.0, UpdateOp::AddEdge(0, 2))]);
        assert_eq!(ctdg.to_string(), "ContinuousGraph(V=5, |O|=1, span=0.00)");
    }
}

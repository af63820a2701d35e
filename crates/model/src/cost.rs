//! Cost accounting: operation counts and DRAM traffic per execution phase.
//!
//! The paper's simulator "monitors the number of arithmetic operations and
//! the number of accesses across the memory hierarchy" (§VI-A) and reports:
//!
//! * arithmetic-operation breakdowns (Fig. 10),
//! * DRAM access volume broken down by data class — weights, adjacency
//!   matrix, input features, intermediate features, output features
//!   (Figs. 3 and 11).
//!
//! Every algorithm executor in this crate emits a [`SnapshotCost`] per
//! snapshot: a list of [`PhaseCost`]s with exact op counts and per-class DRAM
//! byte traffic. The hardware crates turn these into cycles and energy.

use idgnn_sparse::OpStats;

/// The class of data moved to/from DRAM, matching the paper's breakdowns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataClass {
    /// GNN/RNN weight matrices.
    Weight,
    /// Graph structure (adjacency / dissimilarity matrices in CSR).
    Graph,
    /// Input feature vectors `X_0`.
    InputFeature,
    /// Intermediate feature vectors between GNN layers.
    Intermediate,
    /// GNN output features `Z` and RNN state (`H`, `c`).
    OutputFeature,
}

/// All data classes, in the order the paper's figures stack them.
pub const DATA_CLASSES: [DataClass; 5] = [
    DataClass::Weight,
    DataClass::Graph,
    DataClass::InputFeature,
    DataClass::Intermediate,
    DataClass::OutputFeature,
];

impl DataClass {
    /// Index of the class in [`DATA_CLASSES`].
    pub fn index(self) -> usize {
        match self {
            DataClass::Weight => 0,
            DataClass::Graph => 1,
            DataClass::InputFeature => 2,
            DataClass::Intermediate => 3,
            DataClass::OutputFeature => 4,
        }
    }

    /// Short label used in harness output.
    pub fn label(self) -> &'static str {
        match self {
            DataClass::Weight => "weight",
            DataClass::Graph => "graph",
            DataClass::InputFeature => "input-feat",
            DataClass::Intermediate => "intermediate",
            DataClass::OutputFeature => "output-feat",
        }
    }
}

impl std::fmt::Display for DataClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// DRAM byte traffic split by direction and [`DataClass`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Traffic {
    reads: [u64; 5],
    writes: [u64; 5],
}

impl Traffic {
    /// No traffic.
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds `bytes` of DRAM reads for `class`.
    pub fn read(&mut self, class: DataClass, bytes: u64) -> &mut Self {
        self.reads[class.index()] += bytes;
        self
    }

    /// Adds `bytes` of DRAM writes for `class`.
    pub fn write(&mut self, class: DataClass, bytes: u64) -> &mut Self {
        self.writes[class.index()] += bytes;
        self
    }

    /// Bytes read for `class`.
    pub fn reads_of(&self, class: DataClass) -> u64 {
        self.reads[class.index()]
    }

    /// Bytes written for `class`.
    pub fn writes_of(&self, class: DataClass) -> u64 {
        self.writes[class.index()]
    }

    /// Total (read + write) bytes for `class`.
    pub fn of(&self, class: DataClass) -> u64 {
        self.reads_of(class) + self.writes_of(class)
    }

    /// Total bytes across all classes and directions.
    pub fn total(&self) -> u64 {
        self.reads.iter().sum::<u64>() + self.writes.iter().sum::<u64>()
    }

    /// Total read bytes.
    pub fn total_reads(&self) -> u64 {
        self.reads.iter().sum()
    }

    /// Total written bytes.
    pub fn total_writes(&self) -> u64 {
        self.writes.iter().sum()
    }

    /// Component-wise sum.
    pub fn merged(&self, other: &Traffic) -> Traffic {
        let mut out = *self;
        for i in 0..5 {
            out.reads[i] += other.reads[i];
            out.writes[i] += other.writes[i];
        }
        out
    }
}

impl std::ops::Add for Traffic {
    type Output = Traffic;
    fn add(self, rhs: Traffic) -> Traffic {
        self.merged(&rhs)
    }
}

impl std::ops::AddAssign for Traffic {
    fn add_assign(&mut self, rhs: Traffic) {
        *self = self.merged(&rhs);
    }
}

impl std::fmt::Display for Traffic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Traffic {{")?;
        for c in DATA_CLASSES {
            write!(f, " {}={}B", c.label(), self.of(c))?;
        }
        write!(f, " }}")
    }
}

/// Execution phase of a DGNN snapshot, following the paper's pipeline
/// decomposition (§V-C): weight fusion, adjacency fusion, aggregation,
/// combination, and the two RNN halves; plus the DIU delta extraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Phase {
    /// Dissimilarity Identification Unit: derive `ΔA`, `ΔX_0`.
    Diu,
    /// Weight-matrix fusion `W_C = Π W_l` (initial snapshot only).
    WComb,
    /// Adjacency fusion: `A_C = A^L` or the dissimilarity kernel `ΔA_C`.
    AComb,
    /// GNN aggregation (`A·X` style SpMM).
    Aggregation,
    /// GNN combination (`·W` style GEMM) including activation.
    Combination,
    /// RNN phase independent of the GNN output (`U_α · h^{t-1}`).
    RnnA,
    /// RNN phase consuming the GNN output (gates, cell/hidden update).
    RnnB,
}

impl Phase {
    /// Short label used in harness output.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Diu => "DIU",
            Phase::WComb => "WComb",
            Phase::AComb => "AComb",
            Phase::Aggregation => "AG",
            Phase::Combination => "CB",
            Phase::RnnA => "RNN-A",
            Phase::RnnB => "RNN-B",
        }
    }

    /// Whether the phase belongs to the GNN kernel (vs. RNN / frontend).
    pub fn is_gnn(self) -> bool {
        matches!(self, Phase::WComb | Phase::AComb | Phase::Aggregation | Phase::Combination)
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Exact cost of one execution phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseCost {
    /// Which phase this is.
    pub phase: Phase,
    /// Scalar multiply/add counts.
    pub ops: OpStats,
    /// DRAM traffic attributed to this phase.
    pub dram: Traffic,
}

impl PhaseCost {
    /// Creates a phase cost.
    pub fn new(phase: Phase, ops: OpStats, dram: Traffic) -> Self {
        Self { phase, ops, dram }
    }
}

/// Aggregate cost of processing one snapshot.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SnapshotCost {
    /// Per-phase costs in execution order.
    pub phases: Vec<PhaseCost>,
    /// Work avoided by reuse (the Eq. 15 transpose substitutions). Already
    /// *included* in the phase op counts at its recorded cost so figures
    /// stay comparable; this field reports how much of that total never
    /// executed on the host.
    pub saved: OpStats,
}

impl SnapshotCost {
    /// Adds a phase cost.
    pub fn push(&mut self, phase: Phase, ops: OpStats, dram: Traffic) {
        self.phases.push(PhaseCost::new(phase, ops, dram));
    }

    /// Accumulates avoided work into [`SnapshotCost::saved`].
    pub fn add_saved(&mut self, saved: OpStats) {
        self.saved += saved;
    }

    /// Total op counts across phases.
    pub fn total_ops(&self) -> OpStats {
        self.phases.iter().fold(OpStats::default(), |a, p| a + p.ops)
    }

    /// Total op counts for one phase kind.
    pub fn ops_of(&self, phase: Phase) -> OpStats {
        self.phases
            .iter()
            .filter(|p| p.phase == phase)
            .fold(OpStats::default(), |a, p| a + p.ops)
    }

    /// Total DRAM traffic across phases.
    pub fn total_dram(&self) -> Traffic {
        self.phases.iter().fold(Traffic::none(), |a, p| a.merged(&p.dram))
    }

    /// Total GNN-side ops (WComb + AComb + AG + CB).
    pub fn gnn_ops(&self) -> OpStats {
        self.phases
            .iter()
            .filter(|p| p.phase.is_gnn())
            .fold(OpStats::default(), |a, p| a + p.ops)
    }

    /// Total RNN-side ops (RNN-A + RNN-B).
    pub fn rnn_ops(&self) -> OpStats {
        self.ops_of(Phase::RnnA) + self.ops_of(Phase::RnnB)
    }
}

/// Minimal on-chip memory description the executors use to decide whether
/// reusable data spills to DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryModel {
    /// Total on-chip buffer capacity available for resident data, in bytes.
    pub onchip_bytes: u64,
}

impl MemoryModel {
    /// The paper's I-DGNN configuration: 64 MB global buffer.
    pub fn paper_default() -> Self {
        Self { onchip_bytes: 64 * 1024 * 1024 }
    }

    /// Whether a working set of `bytes` fits on-chip.
    pub fn fits(&self, bytes: u64) -> bool {
        bytes <= self.onchip_bytes
    }
}

impl Default for MemoryModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Bytes of an `rows × cols` dense f32 matrix.
pub fn dense_bytes(rows: usize, cols: usize) -> u64 {
    4 * rows as u64 * cols as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_accumulates_per_class() {
        let mut t = Traffic::none();
        t.read(DataClass::Weight, 100).write(DataClass::Weight, 50);
        t.read(DataClass::Intermediate, 10);
        assert_eq!(t.of(DataClass::Weight), 150);
        assert_eq!(t.reads_of(DataClass::Weight), 100);
        assert_eq!(t.writes_of(DataClass::Weight), 50);
        assert_eq!(t.total(), 160);
        assert_eq!(t.total_reads(), 110);
        assert_eq!(t.total_writes(), 50);
    }

    #[test]
    fn traffic_add() {
        let mut a = Traffic::none();
        a.read(DataClass::Graph, 5);
        let mut b = Traffic::none();
        b.write(DataClass::Graph, 7);
        let c = a + b;
        assert_eq!(c.of(DataClass::Graph), 12);
        let mut d = a;
        d += b;
        assert_eq!(d, c);
    }

    #[test]
    fn snapshot_cost_totals() {
        let mut sc = SnapshotCost::default();
        let mut t1 = Traffic::none();
        t1.read(DataClass::InputFeature, 40);
        sc.push(Phase::Aggregation, OpStats { mults: 10, adds: 5 }, t1);
        sc.push(Phase::RnnB, OpStats { mults: 20, adds: 20 }, Traffic::none());
        assert_eq!(sc.total_ops().total(), 55);
        assert_eq!(sc.ops_of(Phase::RnnB).mults, 20);
        assert_eq!(sc.total_dram().of(DataClass::InputFeature), 40);
        assert_eq!(sc.gnn_ops().total(), 15);
        assert_eq!(sc.rnn_ops().total(), 40);
        assert_eq!(sc.saved, OpStats::default());
        sc.add_saved(OpStats { mults: 3, adds: 1 });
        sc.add_saved(OpStats { mults: 1, adds: 0 });
        assert_eq!(sc.saved.total(), 5);
    }

    #[test]
    fn data_class_indices_are_consistent() {
        for (i, c) in DATA_CLASSES.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn phase_classification() {
        assert!(Phase::AComb.is_gnn());
        assert!(Phase::Aggregation.is_gnn());
        assert!(!Phase::RnnA.is_gnn());
        assert!(!Phase::Diu.is_gnn());
        assert_eq!(Phase::WComb.label(), "WComb");
    }

    #[test]
    fn memory_model_fits() {
        let m = MemoryModel { onchip_bytes: 1000 };
        assert!(m.fits(1000));
        assert!(!m.fits(1001));
        assert_eq!(MemoryModel::default(), MemoryModel::paper_default());
    }

    #[test]
    fn dense_bytes_math() {
        assert_eq!(dense_bytes(3, 5), 60);
    }

    #[test]
    fn displays_are_nonempty() {
        assert!(!format!("{}", DataClass::Graph).is_empty());
        assert!(!format!("{}", Phase::AComb).is_empty());
        let mut t = Traffic::none();
        t.read(DataClass::Graph, 1);
        assert!(format!("{t}").contains("graph=1B"));
    }
}

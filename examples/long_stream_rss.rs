//! Long-stream memory gate: the one-pass simulation holds one snapshot, not
//! the whole stream, so its peak resident set must not grow with the
//! stream's length.
//!
//! The workload is the repo benchmark's `onepass-delta` shape: Mobile (MB)
//! scaled to 20k edges, a linear 3-layer GCN with an LSTM, 1 % dissimilarity
//! per transition, 2 % feature churn, adaptive refresh off. Its additions
//! and deletions are balanced (`addition_fraction` 0.5), so the graph keeps
//! its size over the stream; with more additions than deletions the graph,
//! and so the true working set, would grow with every snapshot.
//!
//! The gate simulates the stream at 40 and at 400 snapshots, each in a fresh
//! child process (this binary re-run with `--child <snapshots>`). Each child
//! reports its peak resident set (`VmHWM` in `/proc/self/status`, Linux
//! only) and the bytes its input stream stores: the `DynamicGraph` keeps
//! every delta, by design, so the input grows with the stream however the
//! simulator behaves (`GraphDelta::stored_bytes`, ≈ 6 kB a snapshot). The
//! gate checks what is left, the growth of the simulation itself: it exits 1
//! if `peak₄₀₀ − stored₄₀₀` exceeds 1.10× `peak₄₀ − stored₄₀`. A ratio of the
//! raw peaks would fold the stored stream into the test and punish a change
//! that shrinks the base peak while the stored stream stays the same.
//!
//! ```text
//! cargo run --release --example long_stream_rss
//! ```

use std::error::Error;
use std::process::Command;

use idgnn::core::{IdgnnAccelerator, SimOptions};
use idgnn::graph::datasets::MOBILE;
use idgnn::graph::generate::StreamConfig;
use idgnn::graph::Normalization;
use idgnn::hw::AcceleratorConfig;
use idgnn::model::exec::OnePassOptions;
use idgnn::model::{Activation, DgnnModel, ModelConfig};

/// Edges of the scaled Mobile graph.
const EDGES: usize = 20_000;
/// Stream lengths of the short and the long run.
const SHORT: usize = 40;
const LONG: usize = 400;
/// Largest allowed ratio of the long run's peak to the short run's, each net
/// of its stored stream.
const MAX_GROWTH: f64 = 1.10;
const SEED: u64 = 42;

fn main() -> Result<(), Box<dyn Error>> {
    let args: Vec<String> = std::env::args().collect();
    if let [_, flag, snapshots] = args.as_slice() {
        if flag == "--child" {
            return child(snapshots.parse()?);
        }
    }
    let short = run_child(SHORT)?;
    let long = run_child(LONG)?;
    let mb = |kb: u64| kb as f64 / 1024.0;
    let raw = long.peak_kb as f64 / short.peak_kb as f64;
    let growth = long.net_kb() as f64 / short.net_kb() as f64;
    for (n, run) in [(SHORT, &short), (LONG, &long)] {
        println!(
            "{n} snapshots: peak RSS {:.1} MB, stored stream {:.2} MB, net {:.1} MB",
            mb(run.peak_kb),
            mb(run.stored_kb),
            mb(run.net_kb()),
        );
    }
    println!("ratio net of the stored stream {growth:.3} (limit {MAX_GROWTH:.2}), raw peaks {raw:.3}");
    if growth > MAX_GROWTH {
        eprintln!("error: peak RSS net of the stored stream grows with the stream length");
        std::process::exit(1);
    }
    Ok(())
}

/// What one child run reports, kB.
struct ChildRun {
    /// Peak resident set of the child process.
    peak_kb: u64,
    /// Bytes the child's input stream stores ([`stored_stream_kb`]).
    stored_kb: u64,
}

impl ChildRun {
    /// The peak net of the stored stream.
    fn net_kb(&self) -> u64 {
        self.peak_kb.saturating_sub(self.stored_kb)
    }
}

/// Runs this binary as a child simulating `snapshots` snapshots and returns
/// what it reports.
fn run_child(snapshots: usize) -> Result<ChildRun, Box<dyn Error>> {
    let out = Command::new(std::env::current_exe()?)
        .args(["--child", &snapshots.to_string()])
        .output()?;
    if !out.status.success() {
        return Err(format!(
            "child run of {snapshots} snapshots failed: {}",
            String::from_utf8_lossy(&out.stderr)
        )
        .into());
    }
    let stdout = String::from_utf8(out.stdout)?;
    let field = |key: &str| -> Result<u64, Box<dyn Error>> {
        let value = stdout
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .ok_or_else(|| format!("child printed no `{key}` line"))?;
        Ok(value.trim().parse()?)
    };
    Ok(ChildRun { peak_kb: field("peak_kb ")?, stored_kb: field("stored_kb ")? })
}

/// The bytes `dg`'s deltas store, counted by stored length, kB (rounded up).
fn stored_stream_kb(dg: &idgnn::graph::DynamicGraph) -> u64 {
    let bytes: usize = dg.deltas().iter().map(|d| d.stored_bytes()).sum();
    bytes.div_ceil(1024) as u64
}

/// Simulates the workload over `snapshots` snapshots and prints this
/// process's peak RSS and the bytes its input stream stores.
fn child(snapshots: usize) -> Result<(), Box<dyn Error>> {
    let stream = StreamConfig {
        deltas: snapshots - 1,
        dissimilarity: 0.01,
        addition_fraction: 0.5,
        feature_update_fraction: 0.02,
    };
    let dg = MOBILE.generate_scaled(EDGES, &stream, SEED)?;
    let model = DgnnModel::from_config(
        &ModelConfig {
            input_dim: dg.initial().feature_dim(),
            gnn_hidden: 32,
            gnn_layers: 3,
            rnn_hidden: 32,
            activation: Activation::Relu,
            normalization: Normalization::SelfLoops,
            seed: SEED + 77,
            rnn_kernel: Default::default(),
        }
        .linear(),
    )?;
    let scale = (MOBILE.edges / EDGES).max(1) as u64;
    let accel = IdgnnAccelerator::new(AcceleratorConfig::paper_default().scaled_down(scale))?;
    let opts = SimOptions {
        onepass: OnePassOptions { adaptive_refresh: false, ..Default::default() },
        ..Default::default()
    };
    let report = accel.simulate(&model, &dg, &opts)?;
    assert_eq!(report.snapshots.len(), snapshots);
    println!("peak_kb {}", peak_rss_kb()?);
    println!("stored_kb {}", stored_stream_kb(&dg));
    Ok(())
}

/// `VmHWM` of this process, kB.
fn peak_rss_kb() -> Result<u64, Box<dyn Error>> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(line.trim().trim_end_matches("kB").trim().parse()?)
}

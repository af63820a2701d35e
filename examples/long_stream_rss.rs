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
//! child process (this binary re-run with `--child <snapshots>`), reads each
//! child's peak resident set (`VmHWM` in `/proc/self/status`, Linux only),
//! and exits 1 if the 400-snapshot peak exceeds 1.10× the 40-snapshot peak.
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
/// Largest allowed ratio of the long run's peak to the short run's.
const MAX_GROWTH: f64 = 1.10;
const SEED: u64 = 42;

fn main() -> Result<(), Box<dyn Error>> {
    let args: Vec<String> = std::env::args().collect();
    if let [_, flag, snapshots] = args.as_slice() {
        if flag == "--child" {
            return child(snapshots.parse()?);
        }
    }
    let short = peak_of_child(SHORT)?;
    let long = peak_of_child(LONG)?;
    let growth = long as f64 / short as f64;
    println!(
        "peak RSS: {SHORT} snapshots {:.1} MB, {LONG} snapshots {:.1} MB, \
         ratio {growth:.3} (limit {MAX_GROWTH:.2})",
        short as f64 / 1024.0,
        long as f64 / 1024.0,
    );
    if growth > MAX_GROWTH {
        eprintln!("error: peak RSS grows with the stream length");
        std::process::exit(1);
    }
    Ok(())
}

/// Runs this binary as a child simulating `snapshots` snapshots and returns
/// the child's peak RSS, kB.
fn peak_of_child(snapshots: usize) -> Result<u64, Box<dyn Error>> {
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
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("peak_kb "))
        .ok_or("child printed no peak")?;
    Ok(line.trim().parse()?)
}

/// Simulates the workload over `snapshots` snapshots and prints this
/// process's peak RSS.
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
        parallelism: Some(1),
        ..Default::default()
    };
    let report = accel.simulate(&model, &dg, &opts)?;
    assert_eq!(report.snapshots.len(), snapshots);
    println!("peak_kb {}", peak_rss_kb()?);
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

//! `idgnn-sim` — the command-line front end to the I-DGNN simulator.
//!
//! Simulates a DGNN workload on any of the four accelerators and prints a
//! full report. Arguments are `key=value` pairs (order-free):
//!
//! ```text
//! idgnn-sim [accel=idgnn|ready|booster|race|all]
//!           [dataset=PM|RD|MB|TW|WD|FK]   # Table-I stand-in (scaled), or:
//!           [vertices=N edges=M features=K]
//!           [snapshots=T] [dissim=0.02] [addfrac=0.75]
//!           [layers=3] [hidden=32] [rnn=32] [rnn-kernel=lstm|gru]
//!           [pes=64] [scale=16] [seed=42] [algorithm=onepass|inc|re]
//!
//! cargo run --release --bin idgnn-sim -- dataset=WD accel=all
//! ```
//!
//! One simulation runs on one host thread. A reader that closes stdout
//! early (`idgnn-sim … | head`) ends the run quietly with exit code 0.

use std::collections::HashMap;
use std::io::{self, Write};

use idgnn::baselines::{simulate_baselines, Booster, Race, Ready};
use idgnn::core::{IdgnnAccelerator, SimOptions, SimReport};
use idgnn::graph::datasets::DatasetSpec;
use idgnn::graph::generate::{generate_dynamic_graph, GraphConfig, StreamConfig};
use idgnn::graph::{DynamicGraph, Normalization};
use idgnn::hw::AcceleratorConfig;
use idgnn::model::{Activation, Algorithm, DgnnModel, ModelConfig, RnnKernelKind};

fn parse_args() -> HashMap<String, String> {
    std::env::args()
        .skip(1)
        .filter_map(|a| {
            let (k, v) = a.split_once('=')?;
            Some((k.to_ascii_lowercase(), v.to_string()))
        })
        .collect()
}

fn get<T: std::str::FromStr>(args: &HashMap<String, String>, key: &str, default: T) -> T {
    args.get(key).and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn build_workload(
    out: &mut impl Write,
    args: &HashMap<String, String>,
) -> Result<(DynamicGraph, usize), Box<dyn std::error::Error>> {
    let seed: u64 = get(args, "seed", 42);
    let stream = StreamConfig {
        deltas: get::<usize>(args, "snapshots", 5).saturating_sub(1),
        dissimilarity: get(args, "dissim", 0.02),
        addition_fraction: get(args, "addfrac", 0.75),
        feature_update_fraction: get(args, "featfrac", 0.02),
    };
    if let Some(code) = args.get("dataset") {
        let spec = DatasetSpec::by_short(code)
            .ok_or_else(|| format!("unknown dataset {code} (use PM|RD|MB|TW|WD|FK)"))?;
        let max_edges = get(args, "max-edges", 6_000);
        let dg = spec.generate_scaled(max_edges, &stream, seed)?;
        let k = dg.initial().feature_dim();
        writeln!(out, "workload: scaled {spec}")?;
        Ok((dg, k))
    } else {
        let vertices = get(args, "vertices", 500);
        let edges = get(args, "edges", 1_500);
        let features = get(args, "features", 32);
        let dg = generate_dynamic_graph(
            &GraphConfig::power_law(vertices, edges, features),
            &stream,
            seed,
        )?;
        Ok((dg, features))
    }
}

fn print_report(
    out: &mut impl Write,
    name: &str,
    r: &SimReport,
    frequency_hz: u64,
    baseline: Option<&SimReport>,
) -> io::Result<()> {
    let speed = baseline
        .map(|b| format!("  ({:.2}x vs I-DGNN)", r.total_cycles / b.total_cycles))
        .unwrap_or_default();
    writeln!(out, "\n=== {name} ===")?;
    writeln!(out, "  cycles       : {:>14.0}{speed}", r.total_cycles)?;
    writeln!(out, "  wall clock   : {:>14.3} ms", r.seconds(frequency_hz) * 1e3)?;
    writeln!(out, "  energy       : {:>14.1} µJ", r.energy.total_pj() / 1e6)?;
    writeln!(
        out,
        "    compute {:.1} µJ | on-chip {:.1} µJ | off-chip {:.1} µJ | ctrl {:.1} µJ",
        r.energy.compute_pj / 1e6,
        r.energy.onchip_pj / 1e6,
        r.energy.offchip_pj / 1e6,
        r.energy.control_pj / 1e6
    )?;
    writeln!(out, "  DRAM traffic : {:>14} B", r.dram_bytes)?;
    writeln!(out, "  scalar ops   : {:>14}", r.ops.total())?;
    writeln!(out, "  mean MAC util: {:>13.1}%", r.utilization().mean_mac() * 100.0)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    match run(&mut io::stdout().lock()) {
        Err(e)
            if e.downcast_ref::<io::Error>()
                .is_some_and(|e| e.kind() == io::ErrorKind::BrokenPipe) =>
        {
            Ok(())
        }
        result => result,
    }
}

fn run(out: &mut impl Write) -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args();
    if std::env::args().any(|a| a == "--help" || a == "-h" || a == "help") {
        writeln!(
            out,
            "usage: idgnn-sim [accel=idgnn|ready|booster|race|all] [dataset=WD] \
             [vertices=N edges=M features=K] [snapshots=T] [dissim=0.02] [pes=64] \
             [scale=16] [layers=3] [hidden=32] [rnn=32] [rnn-kernel=lstm|gru] \
             [algorithm=onepass|inc|re] [seed=42]"
        )?;
        return Ok(());
    }
    let (dg, features) = build_workload(out, &args)?;
    writeln!(
        out,
        "graph: V={} E={} K={} T={}",
        dg.initial().num_vertices(),
        dg.initial().num_edges(),
        features,
        dg.num_snapshots()
    )?;

    let model = DgnnModel::from_config(&ModelConfig {
        input_dim: features,
        gnn_hidden: get(&args, "hidden", 32),
        gnn_layers: get(&args, "layers", 3),
        rnn_hidden: get(&args, "rnn", 32),
        activation: Activation::Relu,
        normalization: Normalization::SelfLoops,
        seed: get(&args, "seed", 42),
        rnn_kernel: match args.get("rnn-kernel").map(String::as_str) {
            Some("gru") => RnnKernelKind::Gru,
            _ => RnnKernelKind::Lstm,
        },
    })?;

    let mut config = AcceleratorConfig::paper_default().scaled_down(get(&args, "scale", 16));
    if let Some(p) = args.get("pes").and_then(|v| v.parse::<usize>().ok()) {
        let side = (p as f64).sqrt().round().max(1.0) as usize;
        config = config.with_pe_grid(side, (p / side).max(1));
    }
    writeln!(
        out,
        "accelerator: {} PEs × {} MACs, {} on-chip KiB, {:.0} GB/s DRAM, {} MHz",
        config.num_pes(),
        config.macs_per_pe,
        config.total_onchip_bytes() / 1024,
        config.dram_bandwidth_bps as f64 / 1e9,
        config.frequency_hz / 1_000_000
    )?;

    let algorithm = match args.get("algorithm").map(String::as_str) {
        Some("re") | Some("recompute") => Some(Algorithm::Recompute),
        Some("inc") | Some("incremental") => Some(Algorithm::Incremental),
        _ => None, // OnePass
    };
    let opts = SimOptions { algorithm, ..Default::default() };

    let which = args.get("accel").cloned().unwrap_or_else(|| "idgnn".into());
    let idgnn_report = IdgnnAccelerator::new(config)?.simulate(&model, &dg, &opts)?;
    match which.as_str() {
        "idgnn" => print_report(out, "I-DGNN", &idgnn_report, config.frequency_hz, None)?,
        "ready" => {
            let r = Ready::new(config)?.simulate(&model, &dg)?;
            print_report(out, "ReaDy", &r, config.frequency_hz, Some(&idgnn_report))?;
        }
        "booster" => {
            let r = Booster::new(config)?.simulate(&model, &dg)?;
            print_report(out, "DGNN-Booster", &r, config.frequency_hz, Some(&idgnn_report))?;
        }
        "race" => {
            let r = Race::new(config)?.simulate(&model, &dg)?;
            print_report(out, "RACE", &r, config.frequency_hz, Some(&idgnn_report))?;
        }
        "all" => {
            print_report(out, "I-DGNN", &idgnn_report, config.frequency_hz, None)?;
            // One Recompute run serves ReaDy and DGNN-Booster, one
            // Incremental run serves RACE.
            let reports = simulate_baselines(config, &model, &dg)?;
            for (name, r) in ["ReaDy", "DGNN-Booster", "RACE"].iter().zip(&reports) {
                print_report(out, name, r, config.frequency_hz, Some(&idgnn_report))?;
            }
        }
        other => return Err(format!("unknown accel {other}").into()),
    }
    Ok(())
}

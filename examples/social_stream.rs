//! Domain scenario: link-prediction embeddings over a social-network stream
//! (the GC-LSTM / EvolveGCN use-case). Friendships appear far more often
//! than they disappear, and the graph is scale-free — a few celebrity hubs.
//!
//! This example compares the four accelerators (I-DGNN + the three paper
//! baselines) on the same stream, reproducing the Fig. 12/14 comparison on
//! a single workload, then prints the sensitivity to churn (Fig. 15 style).
//!
//! ```text
//! cargo run --release --example social_stream
//! ```

use idgnn::baselines::{simulate_baselines, Race};
use idgnn::core::{IdgnnAccelerator, SimOptions};
use idgnn::graph::generate::{generate_dynamic_graph, GraphConfig, StreamConfig};
use idgnn::hw::AcceleratorConfig;
use idgnn::model::{DgnnModel, ModelConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A scale-free social graph: 2 000 users, ~8 000 friendships.
    let stream = StreamConfig {
        deltas: 5,
        dissimilarity: 0.03,
        addition_fraction: 0.9, // friendships mostly accumulate
        feature_update_fraction: 0.05,
    };
    let dg = generate_dynamic_graph(&GraphConfig::power_law(2_000, 8_000, 64), &stream, 1)?;
    println!("social stream: {dg}");

    let model = DgnnModel::from_config(&ModelConfig::paper_default(64))?;
    let config = AcceleratorConfig::paper_default().scaled_down(16);
    println!(
        "iso-resource budget: {} PEs × {} MACs, {} MiB on-chip\n",
        config.num_pes(),
        config.macs_per_pe,
        config.total_onchip_bytes() / (1024 * 1024)
    );

    // --- Four accelerators, one workload (Fig. 12 / Fig. 14 shape). ---
    let idgnn = IdgnnAccelerator::new(config)?.simulate(&model, &dg, &SimOptions::default())?;
    // One Recompute run feeds ReaDy and DGNN-Booster; one Incremental run
    // feeds RACE.
    let [ready, booster, race] = simulate_baselines(config, &model, &dg)?;

    println!(
        "{:<14} {:>12} {:>10} {:>12} {:>12}",
        "accelerator", "cycles", "speedup", "energy (µJ)", "DRAM MiB"
    );
    for (name, r) in
        [("I-DGNN", &idgnn), ("ReaDy", &ready), ("DGNN-Booster", &booster), ("RACE", &race)]
    {
        println!(
            "{:<14} {:>12.0} {:>9.2}x {:>12.1} {:>12.2}",
            name,
            r.total_cycles,
            r.total_cycles / idgnn.total_cycles,
            r.energy.total_pj() / 1e6,
            r.dram_bytes as f64 / (1024.0 * 1024.0)
        );
    }

    // --- Churn sensitivity (Fig. 15 shape). ---
    println!("\nchurn sensitivity (RACE cycles / I-DGNN cycles):");
    for dissim in [0.01, 0.05, 0.10] {
        let sweep = StreamConfig { dissimilarity: dissim, ..stream };
        let dg_s = generate_dynamic_graph(&GraphConfig::power_law(2_000, 8_000, 64), &sweep, 1)?;
        let ours =
            IdgnnAccelerator::new(config)?.simulate(&model, &dg_s, &SimOptions::default())?;
        let theirs = Race::new(config)?.simulate(&model, &dg_s)?;
        println!(
            "  δ = {:>4.1}% → {:.2}x",
            dissim * 100.0,
            theirs.total_cycles / ours.total_cycles
        );
    }
    Ok(())
}

//! Diagnostic utility: per-snapshot latency breakdown (frontend / GNN /
//! RNN-A / RNN-B, DRAM bytes, MAC split) of I-DGNN and RACE on one dataset.
//!
//! ```text
//! IDGNN_DATASET=WD cargo run --release -p idgnn-bench --bin breakdown
//! ```

use idgnn_bench::cli::env_context;
use idgnn_bench::report::ExecAccounting;
use idgnn_core::SimOptions;
use idgnn_model::Algorithm;

fn main() {
    let ctx = env_context().expect("context builds");
    let dataset = std::env::var("IDGNN_DATASET").unwrap_or_else(|_| "WD".into());
    let w = ctx.workload(&dataset);
    println!(
        "config: {} PEs, on-chip {} KiB, {:.1} B/cycle DRAM",
        ctx.config.num_pes(),
        ctx.config.total_onchip_bytes() / 1024,
        ctx.config.dram_bytes_per_cycle()
    );
    for name in ["I-DGNN", "RACE"] {
        let r = if name == "I-DGNN" {
            ctx.run_idgnn(w, &SimOptions::default()).expect("simulates")
        } else {
            ctx.run_accelerator(name, w).expect("simulates")
        };
        println!(
            "\n{name}: total {:.0} cycles (serial {:.0})",
            r.total_cycles, r.serial_cycles
        );
        for (t, s) in r.snapshots.iter().enumerate() {
            println!(
                "  t{t}: front {:>8.0}  gnn {:>8.0}  rnnA {:>7.0}  rnnB {:>7.0}  dram {:>9} B  α={:.2}",
                s.frontend_cycles,
                s.gnn_cycles,
                s.rnn_a_cycles,
                s.rnn_b_cycles,
                s.dram_bytes,
                s.schedule.alpha
            );
        }
    }

    // Per-snapshot op accounting sidecar, including the work the one-pass
    // algorithm *avoided* (Eq. 15 transpose substitutions).
    let exec = ctx.run_algorithm(Algorithm::OnePass, w).expect("one-pass executes");
    let acct = ExecAccounting::from_result(&w.spec.short.to_ascii_uppercase(), &exec);
    match acct.write("breakdown") {
        Ok(path) => println!(
            "\nop accounting → {} (saved {} mults / {} adds by reuse)",
            path.display(),
            acct.total_saved_mults,
            acct.total_saved_adds
        ),
        Err(e) => eprintln!("warning: could not write op accounting: {e}"),
    }
}

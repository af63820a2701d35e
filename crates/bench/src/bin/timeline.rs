//! ASCII pipeline timeline (the paper's Fig. 8): per-snapshot Gantt view of
//! the frontend / GNN / RNN-A / RNN-B phases on the I-DGNN accelerator,
//! showing the RNN-A(t) ∥ GNN(t+1) overlap.
//!
//! ```text
//! IDGNN_DATASET=WD cargo run --release -p idgnn-bench --bin timeline
//! ```

use idgnn_bench::cli::env_context;
use idgnn_bench::report::ExecAccounting;
use idgnn_core::SimOptions;
use idgnn_model::Algorithm;

const WIDTH: usize = 72;

fn bar(offset: f64, len: f64, scale: f64, ch: char) -> String {
    let start = (offset * scale).round() as usize;
    let width = ((len * scale).round() as usize).max(if len > 0.0 { 1 } else { 0 });
    let mut s = " ".repeat(start.min(WIDTH));
    s.push_str(&ch.to_string().repeat(width.min(WIDTH.saturating_sub(start))));
    s
}

fn main() {
    let ctx = env_context().expect("context builds");
    let dataset = std::env::var("IDGNN_DATASET").unwrap_or_else(|_| "WD".into());
    let w = ctx.workload(&dataset);
    let r = ctx.run_idgnn(w, &SimOptions::default()).expect("simulates");

    println!(
        "Fig. 8 pipeline timeline — {} on I-DGNN ({} PEs): total {:.0} cycles (serial {:.0}, saved {:.1}%)\n",
        dataset,
        ctx.config.num_pes(),
        r.total_cycles,
        r.serial_cycles,
        (1.0 - r.total_cycles / r.serial_cycles) * 100.0
    );
    println!("legend: F = DIU/WComb frontend, G = GNN (AComb+AG+CB), a = RNN-A, B = RNN-B\n");

    let scale = WIDTH as f64 / r.total_cycles.max(1.0);
    // Reconstruct the pipelined schedule: snapshot t's front starts when
    // max(prev front+gnn+rnnB chain, prev rnn-a) completes, per
    // `overlap_cycles`.
    let mut clock = 0.0f64;
    let mut prev_rnn_a_end = 0.0f64;
    for (t, s) in r.snapshots.iter().enumerate() {
        let start = clock.max(prev_rnn_a_end);
        let f_end = start + s.frontend_cycles;
        let g_end = f_end + s.gnn_cycles;
        let b_end = g_end + s.rnn_b_cycles;
        // RNN-A of this snapshot runs after its RNN-B, overlapping snapshot
        // t+1's front+GNN.
        let a_end = b_end + s.rnn_a_cycles;
        println!("s{t:<2} |");
        println!("  F |{}", bar(start, s.frontend_cycles, scale, 'F'));
        println!("  G |{}", bar(f_end, s.gnn_cycles, scale, 'G'));
        println!("  B |{}", bar(g_end, s.rnn_b_cycles, scale, 'B'));
        println!("  a |{}", bar(b_end, s.rnn_a_cycles, scale, 'a'));
        clock = b_end;
        prev_rnn_a_end = a_end;
    }
    println!("\n{}", "-".repeat(WIDTH + 5));
    println!(
        "cycles 0..{:.0}  (each column ≈ {:.0} cycles)",
        r.total_cycles,
        1.0 / scale
    );

    // Per-snapshot op accounting sidecar, including the work the one-pass
    // algorithm *avoided* (Eq. 15 transpose substitutions).
    let exec = ctx.run_algorithm(Algorithm::OnePass, w).expect("one-pass executes");
    let acct = ExecAccounting::from_result(&w.spec.short.to_ascii_uppercase(), &exec);
    match acct.write("timeline") {
        Ok(path) => println!(
            "\nop accounting → {} (saved {} mults / {} adds by reuse)",
            path.display(),
            acct.total_saved_mults,
            acct.total_saved_adds
        ),
        Err(e) => eprintln!("warning: could not write op accounting: {e}"),
    }
}

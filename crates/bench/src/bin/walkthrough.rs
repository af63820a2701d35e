//! A worked walkthrough of the one-pass kernel on a toy graph — the paper's
//! Figs. 1/4/5 example, numerically verified step by step:
//!
//! 1. the seven chained products of Eq. 14 for `L = 3`;
//! 2. their Eq. 15 regrouping with transposes;
//! 3. the identity `ΔA_C = (Â+ΔA)³ − Â³`;
//! 4. the one-pass output update (Eq. 10) against full recomputation.
//!
//! Exits with status 1 if any identity fails.
//!
//! ```text
//! cargo run --release -p idgnn-bench --bin walkthrough
//! ```

use idgnn_graph::{adjacency_from_edges, GraphDelta, GraphSnapshot, Normalization};
use idgnn_model::onepass::{fused_dissimilarity, DissimilarityStrategy};
use idgnn_sparse::{ops, CsrMatrix, DenseMatrix};

fn show(name: &str, m: &CsrMatrix) {
    println!("{name} (nnz = {}):", m.nnz());
    let d = m.to_dense();
    for r in 0..d.rows().min(8) {
        print!("   ");
        for c in 0..d.cols().min(8) {
            print!("{:6.2}", d.get(r, c));
        }
        println!();
    }
}

/// Prints one identity with its verdict and records it if it failed.
fn check(failed: &mut Vec<String>, label: &str, holds: bool, detail: &str) {
    println!("  {label} ? {holds}{detail}");
    if !holds {
        failed.push(label.trim().to_string());
    }
}

fn main() {
    let mut failed = Vec::new();
    // The toy graph of the paper's illustrative figures: a small ring with a
    // chord; one edge appears, one disappears.
    let base = GraphSnapshot::new(
        adjacency_from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)])
            .expect("valid edges"),
        DenseMatrix::from_vec(6, 2, (0..12).map(|i| (i % 5) as f32 * 0.5).collect())
            .expect("valid features"),
    )
    .expect("valid snapshot");
    let delta = GraphDelta::builder().add_edge(0, 3).remove_edge(1, 4).build();
    let next = delta.apply(&base).expect("delta applies");

    let norm = Normalization::SelfLoops;
    let a = norm.apply(base.adjacency());
    let a_next = norm.apply(next.adjacency());
    let da = ops::sp_sub(&a_next, &a).expect("same shape").pruned(0.0);

    println!("=== The evolving toy graph (paper Figs. 1/4/5) ===\n");
    show("Â^t  (previous operator)", &a);
    println!();
    show("ΔA   (graph dissimilarity matrix: +1 at (0,3), −1 at (1,4))", &da);

    // --- Step 1: Eq. 14's seven chained products. ---
    println!("\n=== Eq. 14: (Â+ΔA)³ − Â³ expands into seven chains ===\n");
    let mm = |x: &CsrMatrix, y: &CsrMatrix| ops::spgemm_with_stats(x, y).expect("product").0;
    let terms: Vec<(&str, CsrMatrix)> = vec![
        ("ΔA·Â·Â", mm(&mm(&da, &a), &a)),
        ("ΔA·Â·ΔA", mm(&mm(&da, &a), &da)),
        ("ΔA·ΔA·Â", mm(&mm(&da, &da), &a)),
        ("ΔA·ΔA·ΔA", mm(&mm(&da, &da), &da)),
        ("Â·ΔA·Â", mm(&mm(&a, &da), &a)),
        ("Â·ΔA·ΔA", mm(&mm(&a, &da), &da)),
        ("Â·Â·ΔA", mm(&mm(&a, &a), &da)),
    ];
    let mut sum = CsrMatrix::zeros(6, 6);
    for (name, t) in &terms {
        println!("  {name:<10} nnz = {}", t.nnz());
        sum = ops::sp_add(&sum, t).expect("accumulate");
    }

    // --- Step 2: Eq. 15's transpose regrouping. ---
    println!("\n=== Eq. 15: symmetry lets transposes replace mirror chains ===\n");
    let daa = &terms[0].1; // ΔA·Â·Â
    let dda = &terms[2].1; // ΔA·ΔA·Â
    let mirror = |m: &CsrMatrix, t: &CsrMatrix| m.transpose().approx_eq(t, 1e-6);
    check(&mut failed, "(ΔA·Â·Â)ᵀ  == Â·Â·ΔA", mirror(daa, &terms[6].1), "");
    check(&mut failed, "(ΔA·ΔA·Â)ᵀ == Â·ΔA·ΔA", mirror(dda, &terms[5].1), "");
    println!("  Â·ΔA·Â and ΔA·Â·ΔA are palindromes (self-transpose):");
    check(&mut failed, "  (Â·ΔA·Â)ᵀ == Â·ΔA·Â", mirror(&terms[4].1, &terms[4].1), "");

    // --- Step 3: the kernel matches the power difference. ---
    println!("\n=== The fused dissimilarity matrix ===\n");
    let cube = |m: &CsrMatrix| ops::sp_pow_with_stats(m, 3).expect("power").0;
    let (a_c, a_c_next) = (cube(&a), cube(&a_next));
    let reference = ops::sp_sub(&a_c_next, &a_c).expect("difference").pruned(0.0);
    let optimized = fused_dissimilarity(&a, &da, 3, DissimilarityStrategy::TransposeOptimized)
        .expect("kernel");
    let general =
        fused_dissimilarity(&a, &da, 3, DissimilarityStrategy::General).expect("kernel");
    check(
        &mut failed,
        "Σ(seven chains)              == (Â')³ − Â³",
        sum.pruned(0.0).approx_eq(&reference, 1e-4),
        "",
    );
    check(
        &mut failed,
        "transpose-optimized kernel   == (Â')³ − Â³",
        optimized.delta_ac.approx_eq(&reference, 1e-4),
        &format!("   ({} mults)", optimized.ops.mults),
    );
    check(
        &mut failed,
        "general-expansion kernel     == (Â')³ − Â³",
        general.delta_ac.approx_eq(&reference, 1e-4),
        &format!("   ({} mults)", general.ops.mults),
    );
    show("\nΔA_C", &optimized.delta_ac);

    // --- Step 4: the one-pass output update (Eq. 10). ---
    println!("\n=== Eq. 10: one-pass output update vs full recomputation ===\n");
    let w_c = DenseMatrix::from_vec(2, 2, vec![0.5, -0.25, 1.0, 0.75]).expect("valid");
    let agg = |m: &CsrMatrix, x: &DenseMatrix| ops::spmm_with_stats(m, x).expect("aggregate").0;
    let old_pre = agg(&a_c, base.features()).matmul(&w_c).expect("combine");
    let dx0 = next.features().sub(base.features()).expect("delta");
    let d_agg = agg(&optimized.delta_ac, next.features()).add(&agg(&a_c, &dx0)).expect("sum");
    let onepass = old_pre.add(&d_agg.matmul(&w_c).expect("combine")).expect("update");
    let recomputed = agg(&a_c_next, next.features()).matmul(&w_c).expect("combine");
    check(
        &mut failed,
        "P^t + (ΔA_C·X^(t+1) + A_C·ΔX)·W_C == A_C^(t+1)·X^(t+1)·W_C",
        onepass.approx_eq(&recomputed, 1e-4),
        "",
    );
    println!("  max |difference| = {:.2e}", onepass.max_abs_diff(&recomputed).expect("diff"));
    if !failed.is_empty() {
        eprintln!("\nerror: {} identities failed: {}", failed.len(), failed.join("; "));
        std::process::exit(1);
    }
    println!("\nEvery identity the paper's §IV derivation relies on, verified numerically.");
}

//! Whole-stack serial-equivalence test: fanning figure cells out across
//! worker threads must be a pure wall-clock knob. A full figure run
//! serializes to byte-identical JSON whether its cells run inline or on
//! workers.

use idgnn::bench::cli::run_experiment;
use idgnn::bench::context::{Context, ExperimentScale};
use idgnn::sparse::Parallelism;

#[test]
fn full_figure_run_produces_identical_json_across_parallelism() {
    // The end-to-end guarantee: one complete figure experiment, serial vs
    // fanned-out, must serialize to the very same bytes.
    let run = |threads: usize| {
        let ctx = Context::new(ExperimentScale::Quick, 5)
            .expect("context")
            .with_parallelism(Parallelism::new(threads));
        run_experiment("fig12", &ctx).expect("fig12 runs")
    };
    let (text_serial, json_serial) = run(1);
    let (text_par, json_par) = run(4);
    assert_eq!(text_serial, text_par, "fig12 text report differs");
    assert_eq!(json_serial, json_par, "fig12 JSON differs");
}

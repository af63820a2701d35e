//! One module per paper table/figure, each exposing `run(...)` returning a
//! serializable, displayable result struct. The per-experiment index lives
//! in DESIGN.md §4.

pub mod ablations;
pub mod fig03;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod table1;

#[cfg(test)]
mod tests {
    use idgnn_model::exec::runs_on_this_thread;
    use idgnn_sparse::Parallelism;

    use crate::context::{Context, ExperimentScale};

    /// Executions per algorithm (Recompute, Incremental, OnePass) that `f`
    /// starts. A serial driver runs every cell on the calling thread, so the
    /// thread's counters see all of them.
    fn executions(f: impl FnOnce()) -> Vec<u64> {
        let before = runs_on_this_thread();
        f();
        runs_on_this_thread().iter().zip(before).map(|(a, b)| a - b).collect()
    }

    #[test]
    fn accelerator_grids_execute_each_workload_and_algorithm_once() {
        let ctx = Context::new(ExperimentScale::Quick, 3)
            .unwrap()
            .with_parallelism(Parallelism::serial());
        let n = ctx.workloads.len() as u64;
        let fig12 = executions(|| drop(super::fig12::run(&ctx).unwrap()));
        assert_eq!(fig12, [n, n, n], "fig12");
        let fig14 = executions(|| drop(super::fig14::run(&ctx).unwrap()));
        assert_eq!(fig14, [n, n, n], "fig14");
        let points = super::fig15::SWEEP.len() as u64;
        let fig15 = executions(|| drop(super::fig15::run(&ctx).unwrap()));
        assert_eq!(fig15, [points, points, points], "fig15");
    }
}

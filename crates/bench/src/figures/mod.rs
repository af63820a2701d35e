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
    use idgnn_model::exec::{runs_on_this_thread, walks_on_this_thread};
    use idgnn_sparse::Parallelism;

    use crate::context::{Context, ExperimentScale};

    /// Snapshot walks and executions per algorithm (Recompute, Incremental,
    /// OnePass) that `f` starts. A serial driver runs every cell on the
    /// calling thread, so the thread's counters see all of them.
    fn walks_and_executions(f: impl FnOnce()) -> (u64, Vec<u64>) {
        let (walks, runs) = (walks_on_this_thread(), runs_on_this_thread());
        f();
        let executions = runs_on_this_thread().iter().zip(runs).map(|(a, b)| a - b).collect();
        (walks_on_this_thread() - walks, executions)
    }

    #[test]
    fn accelerator_grids_walk_each_workload_once_and_execute_each_algorithm_once() {
        let ctx = Context::new(ExperimentScale::Quick, 3)
            .unwrap()
            .with_parallelism(Parallelism::serial());
        let n = ctx.workloads.len() as u64;
        let fig12 = walks_and_executions(|| drop(super::fig12::run(&ctx).unwrap()));
        assert_eq!(fig12, (n, vec![n, n, n]), "fig12");
        let fig14 = walks_and_executions(|| drop(super::fig14::run(&ctx).unwrap()));
        assert_eq!(fig14, (n, vec![n, n, n]), "fig14");
        let points = super::fig15::SWEEP.len() as u64;
        let fig15 = walks_and_executions(|| drop(super::fig15::run(&ctx).unwrap()));
        assert_eq!(fig15, (points, vec![points, points, points]), "fig15");
    }
}

//! Deterministic parallel experiment driver.
//!
//! Each figure's experiment grid (dataset × accelerator × algorithm /
//! sweep-point cells) is fanned out across worker threads with
//! [`idgnn_sparse::parallel::map_items`] and the per-cell results are merged
//! back **in declared grid order**, so the assembled figure — and its
//! serialized JSON — is byte-identical to the legacy serial driver at any
//! worker count.
//!
//! Results (and the first error, if any) are selected by *cell index*,
//! never by thread completion order. This is the only level of host
//! parallelism in a figure run: every cell's kernels run serially on the
//! worker that claimed it — one simulation per core. With
//! `parallelism = 1` the cells run inline, in order.

use idgnn_sparse::{parallel, Parallelism};

use crate::context::Result;

/// Runs `f(index, &cell)` for every grid cell, fanning out across
/// `parallelism` workers, and returns the results in cell order.
///
/// # Errors
///
/// Returns the error of the **first failing cell in declared order**
/// (identical to what the serial loop would have reported first; later cells
/// may still have executed).
pub fn run_cells<T, R, F>(parallelism: Parallelism, cells: &[T], f: F) -> Result<Vec<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> Result<R> + Sync,
{
    parallel::map_items(cells, parallelism, f).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_cell_order() {
        let cells: Vec<usize> = (0..23).collect();
        let serial = run_cells(Parallelism::serial(), &cells, |i, &c| Ok(i * 100 + c)).unwrap();
        let fanned = run_cells(Parallelism::new(4), &cells, |i, &c| Ok(i * 100 + c)).unwrap();
        assert_eq!(serial, fanned);
        assert!(serial.iter().enumerate().all(|(i, &v)| v == i * 101));
    }

    #[test]
    fn first_error_in_declared_order_wins() {
        let cells: Vec<usize> = (0..10).collect();
        let err = run_cells::<_, usize, _>(Parallelism::new(3), &cells, |_, &c| {
            if c >= 4 {
                Err(idgnn_core::CoreError::from(idgnn_hw::HwError::InvalidWorkload {
                    reason: format!("cell {c}"),
                }))
            } else {
                Ok(c)
            }
        })
        .unwrap_err();
        assert!(err.to_string().contains("cell 4"), "got: {err}");
    }
}

//! Host parallelism: one level, over independent work items.
//!
//! The sparse kernels in [`crate::ops`] always run their serial per-row
//! code. Host threads fan out only where whole independent units of work
//! exist — figure cells (one simulation each) and DSE candidates — through
//! [`map_items`], built on [`std::thread::scope`] with no external
//! dependencies. Its results are **bit-identical** to the serial loop: each
//! item is computed by the same code whichever worker claims it, and results
//! are assembled in declared item order, never in completion order.
//!
//! The fan-out width comes from a process-wide default ([`process_default`]),
//! set once by the command-line layer ([`set_process_default`]) or resolved
//! from the `IDGNN_PARALLELISM` environment variable, falling back to
//! [`std::thread::available_parallelism`]. `IDGNN_PARALLELISM=1` runs every
//! item inline, in order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable holding the process-wide default thread count.
pub const PARALLELISM_ENV: &str = "IDGNN_PARALLELISM";

/// A worker-count selection (always ≥ 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Parallelism {
    threads: usize,
}

impl Parallelism {
    /// One worker: items run inline, in order, on the calling thread.
    pub const fn serial() -> Self {
        Self { threads: 1 }
    }

    /// `threads` workers; `0` resolves to [`Parallelism::available`].
    pub fn new(threads: usize) -> Self {
        if threads == 0 {
            Self::available()
        } else {
            Self { threads }
        }
    }

    /// One worker per hardware thread, as reported by
    /// [`std::thread::available_parallelism`] (at least 1).
    pub fn available() -> Self {
        Self { threads: std::thread::available_parallelism().map_or(1, |n| n.get()) }
    }

    /// Reads [`PARALLELISM_ENV`]; unset, `0` or unparsable values resolve to
    /// [`Parallelism::available`].
    pub fn from_env() -> Self {
        // lint: allow(ambient-nondeterminism) -- explicit worker-count config; results are bit-identical at any parallelism (equivalence suites)
        match std::env::var(PARALLELISM_ENV) {
            Ok(v) => Self::new(v.trim().parse().unwrap_or(0)),
            Err(_) => Self::available(),
        }
    }

    /// The worker count.
    pub fn threads(self) -> usize {
        self.threads
    }

    /// Workers actually useful for `items` units of work.
    pub fn effective(self, items: usize) -> usize {
        self.threads.min(items).max(1)
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Self::from_env()
    }
}

impl std::fmt::Display for Parallelism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.threads)
    }
}

/// Process-wide default (0 = not yet resolved from the environment).
static PROCESS_DEFAULT: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide default parallelism: the fan-out [`process_default`]
/// returns to drivers that take no explicit width (the CLI layer calls this
/// once at startup).
pub fn set_process_default(par: Parallelism) {
    PROCESS_DEFAULT.store(par.threads(), Ordering::Relaxed);
}

/// The process-wide default fan-out: the last [`set_process_default`], else
/// [`Parallelism::from_env`] (resolved on first use).
pub fn process_default() -> Parallelism {
    let global = PROCESS_DEFAULT.load(Ordering::Relaxed);
    if global != 0 {
        return Parallelism::new(global);
    }
    let resolved = Parallelism::from_env();
    // Benign race: concurrent first reads resolve the same env value.
    PROCESS_DEFAULT.store(resolved.threads(), Ordering::Relaxed);
    resolved
}

/// The guard [`kernel_scope`] returns; it changes nothing.
#[derive(Debug)]
pub struct KernelScope {
    _inert: (),
}

/// Returns an inert guard: kernels always run serially, so there is no
/// per-thread kernel width left to override.
///
/// Kept only because the benchmark crate under `perfbench/` (which builds
/// against this crate unedited) still names it; no code in the workspace
/// calls it.
pub fn kernel_scope(_par: Parallelism) -> KernelScope {
    KernelScope { _inert: () }
}

/// Runs `f(index, &item)` for every item on a scoped worker pool fed by an
/// atomic work queue (good load balance for heterogeneous items, e.g. one
/// simulation per cell) and returns results **in item order**. With one
/// effective worker the items run inline, in order — the serial path.
///
/// This is the crate's only thread spawner.
///
/// # Panics
///
/// Re-raises a worker panic on the calling thread.
// lint: ordered-merge -- results land in a slot buffer indexed by item id and are drained in declared item order
pub fn map_items<T, R, F>(items: &[T], par: Parallelism, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = par.effective(items.len());
    if workers <= 1 {
        // lint: allow(hot-path-alloc) -- in-order result vec, returned to the caller
        return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }
    let next = AtomicUsize::new(0);
    // Adversarial schedule (tests only): while a perturbation scope is
    // installed, the queue hands out item indices in a seeded permuted order
    // instead of 0..n; the keyed slot buffer must still assemble the
    // identical in-order result.
    #[cfg(test)]
    let order = perturb::permutation(items.len());
    // lint: allow(hot-path-alloc) -- one result slot per item, the queue's only shared state
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                #[cfg(test)]
                let i = match order.as_deref() {
                    Some(p) => match p.get(i) {
                        Some(&j) => j,
                        None => break,
                    },
                    None => i,
                };
                let Some(item) = items.get(i) else { break };
                let result = f(i, item);
                // lint: allow(panic-surface) -- a slot lock is held only for this move, so no panic can poison it
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            // lint: allow(panic-surface) -- no lock is poisoned (held only for a move), and the workers claim every index below items.len() before the scope ends
            slot.into_inner().expect("result slot poisoned").expect("every slot is filled")
        })
        // lint: allow(hot-path-alloc) -- item results in order, returned to the caller
        .collect()
}

/// Schedule-perturbation harness (tests only): while a [`scoped`] guard is
/// alive, [`map_items`] hands out item indices in a seeded permuted order,
/// so a completion-order bug cannot hide behind a cooperative OS scheduler.
/// The declared-order contract (DESIGN.md §15) means results must stay
/// bit-identical under every such order.
#[cfg(test)]
mod perturb {
    use std::sync::{Mutex, MutexGuard};

    /// The installed perturbation seed (`None` = harness inert).
    static SEED: Mutex<Option<u64>> = Mutex::new(None);
    /// Serializes perturbation scopes across test threads: the seed is
    /// process-wide state, so two concurrent scopes would race.
    static SCOPE_LOCK: Mutex<()> = Mutex::new(());

    /// RAII guard for an active perturbation scope; dropping it clears the
    /// seed and releases the scope lock.
    #[must_use = "the perturbation is active only while the guard is alive"]
    pub(super) struct PerturbScope {
        _lock: MutexGuard<'static, ()>,
    }

    impl Drop for PerturbScope {
        fn drop(&mut self) {
            *SEED.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = None;
        }
    }

    /// Installs `seed` as the process-wide perturbation seed for the lifetime
    /// of the returned guard. Scopes are mutually exclusive: a second caller
    /// blocks until the first guard drops.
    pub(super) fn scoped(seed: u64) -> PerturbScope {
        let lock = SCOPE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        *SEED.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(seed);
        PerturbScope { _lock: lock }
    }

    /// Holds the scope lock with no seed installed, so a test can observe
    /// the inert harness without racing a concurrent scope.
    pub(super) fn inert() -> PerturbScope {
        PerturbScope {
            _lock: SCOPE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner),
        }
    }

    /// Thin LCG (Knuth MMIX constants); good enough to derange a test
    /// schedule, deliberately not a statistical RNG.
    fn lcg(state: &mut u64) -> u64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *state >> 33
    }

    /// A seeded Fisher–Yates permutation of `0..n`, or `None` when no
    /// perturbation scope is installed.
    // lint: allow(hot-path-alloc) -- test harness only; O(items) once per fan-out
    pub(super) fn permutation(n: usize) -> Option<Vec<usize>> {
        let seed = (*SEED.lock().unwrap_or_else(std::sync::PoisonError::into_inner))?;
        let mut state = seed ^ (n as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (lcg(&mut state) % (i as u64 + 1)) as usize;
            perm.swap(i, j);
        }
        Some(perm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_items_preserves_item_order() {
        let items: Vec<usize> = (0..57).collect();
        let par = map_items(&items, Parallelism::new(5), |i, &x| (i, x * 2));
        let ser = map_items(&items, Parallelism::serial(), |i, &x| (i, x * 2));
        assert_eq!(par, ser);
        assert!(par.iter().enumerate().all(|(i, &(j, v))| i == j && v == 2 * i));
    }

    #[test]
    fn map_items_handles_empty_input() {
        let empty: Vec<u32> = Vec::new();
        assert!(map_items(&empty, Parallelism::new(4), |_, &x| x).is_empty());
    }

    #[test]
    fn perturb_permutation_is_seeded_and_bijective() {
        let _scope = perturb::scoped(7);
        let p = perturb::permutation(16).expect("scope installed");
        assert_eq!(p, perturb::permutation(16).expect("scope installed"));
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
        // Different seeds give a different derangement for nontrivial sizes
        // (this pair is fixed, so the assertion is deterministic).
        drop(_scope);
        let _scope = perturb::scoped(8);
        assert_ne!(p, perturb::permutation(16).expect("scope installed"));
    }

    #[test]
    fn perturb_inert_without_scope() {
        let _inert = perturb::inert();
        assert!(perturb::permutation(8).is_none());
    }

    #[test]
    fn perturbed_map_items_still_assembles_in_item_order() {
        let items: Vec<usize> = (0..57).collect();
        let baseline = map_items(&items, Parallelism::serial(), |i, &x| (i, x * 3));
        for seed in 0..8u64 {
            let _scope = perturb::scoped(seed);
            let got = map_items(&items, Parallelism::new(4), |i, &x| (i, x * 3));
            assert_eq!(got, baseline, "seed {seed}");
        }
    }

    #[test]
    fn parallelism_resolution() {
        assert_eq!(Parallelism::serial().threads(), 1);
        assert_eq!(Parallelism::new(0), Parallelism::available());
        assert_eq!(Parallelism::new(8).effective(3), 3);
        assert_eq!(Parallelism::new(2).effective(0), 1);
        assert_eq!(format!("{}", Parallelism::new(4)), "4");
    }

    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn worker_panics_propagate() {
        let items: Vec<usize> = (0..10).collect();
        let _ = map_items(&items, Parallelism::new(2), |_, &x| {
            assert_ne!(x, 9, "boom");
            x
        });
    }
}

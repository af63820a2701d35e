//! Deterministic parallel execution layer.
//!
//! Everything in this module is built on [`std::thread::scope`] — no external
//! dependencies — and preserves **bit-identical results** with respect to the
//! serial path:
//!
//! * work is split into *contiguous index blocks* whose per-item computation
//!   is byte-for-byte the same code the serial path runs;
//! * partial results are merged in **declared block order**, never in thread
//!   completion order;
//! * scalar accumulations that cross blocks are restricted to exact
//!   (integer) reductions folded left-to-right.
//!
//! Two knobs pick the degree of parallelism (see [`Parallelism`]):
//! a process-wide default (initialised from the `IDGNN_PARALLELISM`
//! environment variable, falling back to [`std::thread::available_parallelism`])
//! and a thread-local override installed with [`kernel_scope`] so nested
//! fan-out (an experiment driver running simulations on worker threads)
//! can force its kernels serial without oversubscribing the machine.
//! `IDGNN_PARALLELISM=1` forces the legacy serial path everywhere.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable holding the process-wide default thread count.
pub const PARALLELISM_ENV: &str = "IDGNN_PARALLELISM";

/// Minimum number of rows before the kernel entry points in [`crate::ops`]
/// switch to the blocked parallel path. The test-only `ops::reference::*_at`
/// entries, which take an explicit worker count, ignore this threshold.
pub const PARALLEL_MIN_ROWS: usize = 128;

/// A worker-count selection (always ≥ 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Parallelism {
    threads: usize,
}

impl Parallelism {
    /// The legacy serial path: one thread, no pool.
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

    /// Whether this selects the serial path.
    pub fn is_serial(self) -> bool {
        self.threads == 1
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

thread_local! {
    /// Per-thread override (0 = inherit the process default).
    static KERNEL_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// Sets the process-wide default parallelism (the CLI layer calls this once
/// at startup). Worker threads without a [`kernel_scope`] override inherit it.
pub fn set_process_default(par: Parallelism) {
    PROCESS_DEFAULT.store(par.threads(), Ordering::Relaxed);
}

/// The parallelism the [`crate::ops`] kernel entry points use on this thread:
/// the innermost [`kernel_scope`] override, else the process default
/// (resolved from the environment on first use).
pub fn current() -> Parallelism {
    let local = KERNEL_THREADS.with(Cell::get);
    if local != 0 {
        return Parallelism::new(local);
    }
    let global = PROCESS_DEFAULT.load(Ordering::Relaxed);
    if global != 0 {
        return Parallelism::new(global);
    }
    let resolved = Parallelism::from_env();
    // Benign race: concurrent first reads resolve the same env value.
    PROCESS_DEFAULT.store(resolved.threads(), Ordering::Relaxed);
    resolved
}

/// RAII guard restoring the previous thread-local parallelism on drop.
#[derive(Debug)]
pub struct KernelScope {
    previous: usize,
}

/// Overrides [`current`] for the calling thread until the guard drops.
///
/// Used by drivers that fan work out at a coarser granularity (one simulation
/// per worker) to force their inner kernels serial, and by equivalence tests
/// to pin both modes regardless of the ambient configuration.
#[must_use = "the override lasts only while the guard is alive"]
pub fn kernel_scope(par: Parallelism) -> KernelScope {
    let previous = KERNEL_THREADS.with(|c| c.replace(par.threads()));
    KernelScope { previous }
}

impl Drop for KernelScope {
    fn drop(&mut self) {
        KERNEL_THREADS.with(|c| c.set(self.previous));
    }
}

/// Splits `0..items` into at most `blocks` contiguous, balanced, non-empty
/// ranges, in ascending order.
pub fn partition(items: usize, blocks: usize) -> Vec<Range<usize>> {
    let blocks = blocks.min(items).max(1);
    if items == 0 {
        // One empty block: callers always get at least one range to run.
        #[allow(clippy::single_range_in_vec_init)]
        // lint: allow(hot-path-alloc) -- one range list per kernel call, returned to the caller
        return vec![0..0];
    }
    let base = items / blocks;
    let extra = items % blocks;
    // lint: allow(hot-path-alloc) -- one range list per kernel call, returned to the caller
    let mut out = Vec::with_capacity(blocks);
    let mut start = 0;
    for b in 0..blocks {
        let len = base + usize::from(b < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Splits `0..items` into at most `blocks` contiguous, non-empty ranges in
/// ascending order, balancing the **sum of `cost(item)`** per block instead
/// of the item count.
///
/// The cut points are the cost quantiles: block `b` ends at the first item
/// whose cumulative cost reaches `total * (b + 1) / blocks`, so every block's
/// cost is at most `total / blocks + max_item_cost` — on a skewed row-nnz
/// distribution this keeps the heaviest worker within one hub row of the
/// mean, where a row-count split can be arbitrarily lopsided. When every
/// item costs zero the split degrades to the uniform [`partition`].
///
/// Only the block *boundaries* differ from [`partition`]; per-item work and
/// the declared merge order are unchanged, so kernels built on this split
/// stay bit-identical to the serial path at every worker count.
pub fn partition_by_cost<C>(items: usize, blocks: usize, cost: C) -> Vec<Range<usize>>
where
    C: Fn(usize) -> u64,
{
    let blocks = blocks.min(items).max(1);
    if items == 0 {
        // One empty block: callers always get at least one range to run.
        #[allow(clippy::single_range_in_vec_init)]
        // lint: allow(hot-path-alloc) -- one range list per kernel call, returned to the caller
        return vec![0..0];
    }
    let total: u64 = (0..items).map(&cost).sum();
    if total == 0 {
        return partition(items, blocks);
    }
    let (total, blocks_u128) = (u128::from(total), blocks as u128);
    // lint: allow(hot-path-alloc) -- one range list per kernel call, returned to the caller
    let mut out = Vec::with_capacity(blocks);
    let mut start = 0usize;
    let mut acc = 0u128;
    for b in 0..blocks - 1 {
        let target = total * (b as u128 + 1) / blocks_u128;
        // Reserve one item for each block still to come so none ends empty.
        let max_end = items - (blocks - 1 - b);
        let mut end = start + 1;
        acc += u128::from(cost(start));
        while end < max_end && acc < target {
            acc += u128::from(cost(end));
            end += 1;
        }
        out.push(start..end);
        start = end;
    }
    out.push(start..items);
    out
}

/// Forks `ranges` onto scoped worker threads and joins the results in the
/// declared range order.
///
/// # Panics
///
/// Re-raises a worker panic on the calling thread.
// lint: ordered-merge -- joins handles in declared block order, so results assemble independent of completion order
fn fork_join<R, F>(ranges: Vec<Range<usize>>, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    #[cfg(any(test, feature = "schedule-perturbation"))]
    let gate = perturb::gate(ranges.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .into_iter()
            .enumerate()
            .map(|(block, range)| {
                let f = &f;
                #[cfg(any(test, feature = "schedule-perturbation"))]
                let gate = gate.as_ref();
                scope.spawn(move || {
                    #[cfg(not(any(test, feature = "schedule-perturbation")))]
                    let _ = block;
                    // Adversarial schedule: hold this block's completion until
                    // every block the seeded permutation ranks earlier is done.
                    // The turn is taken when the guard drops, after `f`
                    // returns or while it unwinds, so a panicking block still
                    // releases the blocks ranked after it.
                    #[cfg(any(test, feature = "schedule-perturbation"))]
                    let _turn = gate.map(|g| g.turn_on_drop(block));
                    f(range)
                })
            })
            // lint: allow(hot-path-alloc) -- one join-handle vec per fork, O(workers) not O(rows)
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            // lint: allow(hot-path-alloc) -- block results in order, returned to the caller
            .collect()
    })
}

/// Runs `f` over contiguous index blocks on scoped worker threads and returns
/// the per-block results **in block order** (deterministic regardless of
/// thread scheduling). With one effective worker the closure runs inline on
/// the calling thread — the legacy serial path, no pool.
///
/// Worker threads are freshly spawned per call and carry no thread-local
/// state, which is why the kernel closures check their scratch
/// [`Workspace`](crate::workspace::Workspace) out of the global
/// [`workspace`](crate::workspace) pool (one checkout per block) instead of
/// relying on thread-locals that would die with the scope.
///
/// # Panics
///
/// Re-raises a worker panic on the calling thread.
pub fn map_blocks<R, F>(items: usize, par: Parallelism, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let workers = par.effective(items);
    if workers <= 1 {
        // lint: allow(hot-path-alloc) -- single-block result vec, returned to the caller
        return vec![f(0..items)];
    }
    fork_join(partition(items, workers), f)
}

/// [`map_blocks`] with **cost-balanced** block boundaries: blocks are cut by
/// [`partition_by_cost`] over `cost(item)` (row nnz for the sparse kernels)
/// instead of item count, so a hub-heavy dataset no longer leaves all but
/// one worker idle. Merge order and per-item computation are identical to
/// [`map_blocks`], preserving bit-identity with the serial path.
///
/// # Panics
///
/// Re-raises a worker panic on the calling thread.
pub fn map_blocks_by_cost<R, F, C>(items: usize, par: Parallelism, cost: C, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
    C: Fn(usize) -> u64,
{
    let workers = par.effective(items);
    if workers <= 1 {
        // lint: allow(hot-path-alloc) -- single-block result vec, returned to the caller
        return vec![f(0..items)];
    }
    fork_join(partition_by_cost(items, workers, cost), f)
}

/// Runs `f(index, &item)` for every item on a scoped worker pool fed by an
/// atomic work queue (good load balance for heterogeneous items, e.g. one
/// simulation per cell) and returns results **in item order**. With one
/// effective worker the items run inline, in order — the legacy serial path.
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
    // Adversarial schedule: when a perturbation scope is installed, the queue
    // hands out item indices in a seeded permuted order instead of 0..n; the
    // keyed slot buffer must still assemble the identical in-order result.
    #[cfg(any(test, feature = "schedule-perturbation"))]
    let order = perturb::permutation(items.len());
    // lint: allow(hot-path-alloc) -- one result slot per item, the queue's only shared state
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                #[cfg(any(test, feature = "schedule-perturbation"))]
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

/// Schedule-perturbation harness: forces the parallel helpers through
/// adversarial worker schedules so completion-order bugs cannot hide behind a
/// cooperative OS scheduler.
///
/// While a [`scoped`] guard is alive, every [`fork_join`] fork derives a
/// seeded permutation of its blocks and holds each block's completion at a
/// turnstile until all blocks ranked earlier have finished, and [`map_items`]
/// hands out item indices in a seeded permuted order. The declared-order
/// merge contract (DESIGN.md §15) means results must stay **bit-identical**
/// under every such schedule; the proptests in
/// `crates/sparse/tests/perturbation.rs` assert exactly that against the
/// serial path.
///
/// Compiled only under `cfg(test)` or the `schedule-perturbation` feature;
/// release builds carry no trace of the turnstile.
#[cfg(any(test, feature = "schedule-perturbation"))]
pub mod perturb {
    use std::sync::{Condvar, Mutex, MutexGuard};

    /// The installed perturbation seed (`None` = harness inert).
    static SEED: Mutex<Option<u64>> = Mutex::new(None);
    /// Serializes perturbation scopes across test threads: the seed is
    /// process-wide state, so two concurrent scopes would race.
    static SCOPE_LOCK: Mutex<()> = Mutex::new(());

    /// RAII guard for an active perturbation scope; dropping it clears the
    /// seed and releases the scope lock.
    #[must_use = "the perturbation is active only while the guard is alive"]
    pub struct PerturbScope {
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
    pub fn scoped(seed: u64) -> PerturbScope {
        let lock = SCOPE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        *SEED.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(seed);
        PerturbScope { _lock: lock }
    }

    /// Holds the scope lock with no seed installed, so a test can observe
    /// the inert harness without racing a concurrent scope.
    #[cfg(test)]
    pub(crate) fn inert() -> PerturbScope {
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
    // lint: allow(hot-path-alloc) -- test-harness only; O(workers) once per fork, never in release builds
    pub fn permutation(n: usize) -> Option<Vec<usize>> {
        let seed = (*SEED.lock().unwrap_or_else(std::sync::PoisonError::into_inner))?;
        let mut state = seed ^ (n as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (lcg(&mut state) % (i as u64 + 1)) as usize;
            perm.swap(i, j);
        }
        Some(perm)
    }

    /// A completion-order turnstile over `blocks` forked workers: worker `b`
    /// calls [`Gate::wait_turn`]`(b)` after computing its result and is held
    /// until every block with an earlier seeded rank has passed through.
    /// Deadlock-free because [`super::fork_join`] keeps all blocks' threads
    /// alive concurrently under [`std::thread::scope`].
    pub struct Gate {
        /// `ranks[block]` = position of `block` in the adversarial order.
        ranks: Vec<usize>,
        /// The rank currently allowed to complete.
        turn: Mutex<usize>,
        /// Signals `turn` advancing.
        cv: Condvar,
    }

    /// Builds the turnstile for a fork of `blocks` workers, or `None` when no
    /// perturbation scope is installed.
    // lint: allow(hot-path-alloc) -- test-harness only; O(workers) once per fork, never in release builds
    pub fn gate(blocks: usize) -> Option<Gate> {
        let perm = permutation(blocks)?;
        let mut ranks = vec![0usize; blocks];
        for (rank, &block) in perm.iter().enumerate() {
            if let Some(r) = ranks.get_mut(block) {
                *r = rank;
            }
        }
        Some(Gate { ranks, turn: Mutex::new(0), cv: Condvar::new() })
    }

    impl Gate {
        /// Blocks until `block` is the next allowed completion, then passes
        /// the turn to the next rank.
        pub fn wait_turn(&self, block: usize) {
            let rank = self.ranks.get(block).copied().unwrap_or(0);
            let mut turn = self.turn.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            while *turn != rank {
                turn = self
                    .cv
                    .wait(turn)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            *turn += 1;
            self.cv.notify_all();
        }

        /// A guard that calls [`Gate::wait_turn`]`(block)` when dropped,
        /// including during a panic unwind.
        pub fn turn_on_drop(&self, block: usize) -> Turn<'_> {
            Turn { gate: self, block }
        }
    }

    /// Takes `block`'s turn at the [`Gate`] on drop; see
    /// [`Gate::turn_on_drop`].
    pub struct Turn<'a> {
        gate: &'a Gate,
        block: usize,
    }

    impl Drop for Turn<'_> {
        fn drop(&mut self) {
            self.gate.wait_turn(self.block);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_disjointly() {
        for items in [0usize, 1, 7, 64, 1000] {
            for blocks in [1usize, 2, 3, 8, 200] {
                let ranges = partition(items, blocks);
                let mut expect = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect, "{items}/{blocks}");
                    expect = r.end;
                }
                assert_eq!(expect, items);
                if items > 0 {
                    assert!(ranges.iter().all(|r| !r.is_empty()));
                    let lens: Vec<usize> = ranges.iter().map(ExactSizeIterator::len).collect();
                    let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                    assert!(max - min <= 1, "balanced: {lens:?}");
                }
            }
        }
    }

    #[test]
    fn partition_by_cost_covers_disjointly_and_bounds_spread() {
        // A deterministic skewed cost profile: a few hubs, a long flat tail.
        let cost = |i: usize| -> u64 {
            match i % 97 {
                0 => 64,
                1..=4 => 16,
                _ => 1,
            }
        };
        for items in [0usize, 1, 7, 97, 1000] {
            for blocks in [1usize, 2, 3, 8, 200] {
                let ranges = partition_by_cost(items, blocks, cost);
                let mut expect = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect, "{items}/{blocks}");
                    expect = r.end;
                }
                assert_eq!(expect, items);
                if items > 0 {
                    assert!(ranges.iter().all(|r| !r.is_empty()));
                    let total: u64 = (0..items).map(cost).sum();
                    let max_item = (0..items).map(cost).max().unwrap();
                    let heaviest = ranges
                        .iter()
                        .map(|r| r.clone().map(cost).sum::<u64>())
                        .max()
                        .unwrap();
                    let effective = ranges.len() as u64;
                    assert!(
                        heaviest <= total / effective + max_item,
                        "{items}/{blocks}: heaviest {heaviest} vs bound {}",
                        total / effective + max_item
                    );
                }
            }
        }
    }

    #[test]
    fn partition_by_cost_zero_costs_fall_back_to_uniform() {
        assert_eq!(partition_by_cost(100, 7, |_| 0), partition(100, 7));
        assert_eq!(partition_by_cost(0, 4, |_| 3), vec![0..0]);
        // Uniform costs reproduce the uniform split's balance (±1 item).
        let ranges = partition_by_cost(100, 7, |_| 5);
        let lens: Vec<usize> = ranges.iter().map(ExactSizeIterator::len).collect();
        let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
        assert!(max - min <= 1, "balanced: {lens:?}");
    }

    #[test]
    fn map_blocks_by_cost_preserves_block_order() {
        let cost = |i: usize| if i < 10 { 50u64 } else { 1 };
        let got = map_blocks_by_cost(100, Parallelism::new(4), cost, |r| r.clone());
        assert_eq!(got, partition_by_cost(100, 4, cost));
        let serial = map_blocks_by_cost(100, Parallelism::serial(), cost, |r| r.clone());
        assert_eq!(serial, vec![0..100]);
    }

    #[test]
    fn map_blocks_preserves_block_order() {
        let got = map_blocks(100, Parallelism::new(7), |r| r.clone());
        assert_eq!(got, partition(100, 7));
        let serial = map_blocks(100, Parallelism::serial(), |r| r.clone());
        assert_eq!(serial, vec![0..100]);
    }

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
        assert!(perturb::gate(8).is_none());
    }

    #[test]
    fn gate_ranks_blocks_by_the_seeded_permutation() {
        for seed in 0..8u64 {
            let _scope = perturb::scoped(seed);
            let perm = perturb::permutation(6).expect("scope installed");
            // Visiting blocks in permutation order never blocks: each call is
            // exactly the rank the turnstile expects next. Any rank mismatch
            // would deadlock this single-threaded walk immediately.
            let gate = perturb::gate(6).expect("scope installed");
            for &block in &perm {
                gate.wait_turn(block);
            }
            // And under real concurrency the turnstile stays deadlock-free
            // because every block has a live thread.
            let gate = perturb::gate(6).expect("scope installed");
            std::thread::scope(|scope| {
                for block in 0..6 {
                    let gate = &gate;
                    scope.spawn(move || gate.wait_turn(block));
                }
            });
        }
    }

    #[test]
    fn perturbed_fork_join_keeps_results_in_declared_block_order() {
        for seed in 0..8u64 {
            let _scope = perturb::scoped(seed);
            let got = map_blocks(64, Parallelism::new(4), |r| (r.clone(), r.sum::<usize>()));
            let blocks: Vec<Range<usize>> = got.iter().map(|(r, _)| r.clone()).collect();
            assert_eq!(blocks, partition(64, 4), "seed {seed}");
            for (r, sum) in &got {
                assert_eq!(*sum, r.clone().sum::<usize>(), "seed {seed}");
            }
        }
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
    fn kernel_scope_overrides_and_restores() {
        let outer = current();
        {
            let _guard = kernel_scope(Parallelism::new(3));
            assert_eq!(current().threads(), 3);
            {
                let _inner = kernel_scope(Parallelism::serial());
                assert!(current().is_serial());
            }
            assert_eq!(current().threads(), 3);
        }
        assert_eq!(current(), outer);
    }

    #[test]
    fn parallelism_resolution() {
        assert!(Parallelism::serial().is_serial());
        assert_eq!(Parallelism::new(0), Parallelism::available());
        assert_eq!(Parallelism::new(8).effective(3), 3);
        assert_eq!(Parallelism::new(2).effective(0), 1);
        assert_eq!(format!("{}", Parallelism::new(4)), "4");
    }

    #[test]
    fn worker_panic_under_perturbation_releases_the_turnstile() {
        // Whichever rank the panicking block gets, the blocks ranked after
        // it must still complete and the panic must reach the caller.
        for seed in 0..8u64 {
            let _scope = perturb::scoped(seed);
            let run = std::panic::catch_unwind(|| {
                map_blocks(8, Parallelism::new(4), |r| {
                    assert!(!r.contains(&0), "boom");
                    r.len()
                })
            });
            assert!(run.is_err(), "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let _ = map_blocks(10, Parallelism::new(2), |r| {
            assert!(!r.contains(&9), "boom");
            r.len()
        });
    }
}

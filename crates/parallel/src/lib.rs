//! # antennae-parallel
//!
//! Order-preserving parallel map, the execution primitive under every
//! parallel pipeline in the workspace: the batch orientation pipeline, the
//! Lemma-1 sweep and the verification fan-outs in `antennae-core`, and the
//! simulation crate's parameter sweeps.
//!
//! This crate sits at the bottom of the dependency graph (it depends on
//! nothing), so any crate can fan work out without reaching *up* into
//! `antennae-core`.
//!
//! Work items are pulled off a shared atomic counter by
//! `std::thread::scope` workers, so no item is processed twice and results
//! land in input order regardless of scheduling.
//!
//! The contract every caller leans on: for a pure `f`, the output of
//! [`parallel_map`] is *identical* — not just equivalent — at every thread
//! count, which is what lets the workspace promise bit-exact builds
//! (`tests/parallel_build_oracle.rs`) while still fanning out:
//!
//! ```
//! use antennae_parallel::{chunk_ranges, parallel_map};
//!
//! let items: Vec<u64> = (0..1000).collect();
//! let serial = parallel_map(&items, 1, |x| x.wrapping_mul(0x9E37_79B9));
//! let fanned = parallel_map(&items, 8, |x| x.wrapping_mul(0x9E37_79B9));
//! assert_eq!(serial, fanned); // same order, same values, any thread count
//!
//! // Stages that need index ranges instead of items chunk the same way:
//! let ranges = chunk_ranges(items.len(), 8);
//! assert_eq!(ranges.iter().map(|&(s, e)| e - s).sum::<usize>(), items.len());
//! ```

use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Maps `f` over `items` using up to `threads` worker threads, preserving the
/// input order of the results.
///
/// With `threads <= 1` (or a single item) the map runs inline on the calling
/// thread — handy for debugging and for comparing sequential vs parallel
/// throughput in the benches.
///
/// Results are written through **disjoint chunk-claimed slots** carved out of
/// the output vector's spare capacity: workers pull chunk indices off one
/// atomic counter and take exclusive `&mut` ownership of their chunk's slots
/// (one uncontended `Mutex::take` per *chunk*, not per item, purely to hand
/// the `&mut` slice across threads safely).  The earlier implementation
/// locked a per-item `Mutex<Option<R>>` for every single result, which put a
/// lock acquisition on the hot path of every batch orientation, portfolio
/// fan-out and verification sweep; the `parallel` bench pins the difference.
///
/// # Examples
///
/// ```
/// use antennae_parallel::parallel_map;
///
/// let items: Vec<u64> = (0..100).collect();
/// let squares = parallel_map(&items, 4, |x| x * x);
/// assert_eq!(squares[9], 81);
/// assert_eq!(squares.len(), 100);
/// ```
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    if threads <= 1 || items.len() == 1 {
        return items.iter().map(&f).collect();
    }
    let len = items.len();
    let worker_count = threads.min(len);
    // Small chunks keep dynamic load balancing (stragglers don't serialize
    // the tail), large chunks amortize the claim; 4 chunks per worker is a
    // comfortable middle for this workspace's coarse work items.
    let chunk_size = len.div_ceil(worker_count * 4).max(1);

    let mut results: Vec<R> = Vec::with_capacity(len);
    // Chunk the uninitialized tail of the output vector into disjoint `&mut`
    // slots.  Each chunk is claimed exactly once (`Option::take` under a
    // never-contended per-chunk mutex), after which its worker writes every
    // slot without further synchronization.
    let slots: Vec<Mutex<Option<&mut [MaybeUninit<R>]>>> = results.spare_capacity_mut()[..len]
        .chunks_mut(chunk_size)
        .map(|chunk| Mutex::new(Some(chunk)))
        .collect();
    let next = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..worker_count {
            scope.spawn(|| loop {
                let chunk_index = next.fetch_add(1, Ordering::Relaxed);
                if chunk_index >= slots.len() {
                    break;
                }
                let chunk = slots[chunk_index]
                    .lock()
                    .expect("chunk slot poisoned")
                    .take()
                    .expect("every chunk is claimed exactly once");
                let base = chunk_index * chunk_size;
                for (offset, slot) in chunk.iter_mut().enumerate() {
                    slot.write(f(&items[base + offset]));
                }
            });
        }
    });

    // SAFETY: the scope joined every worker without panicking, the chunks
    // tile `0..len` exactly, and each claimed chunk wrote all of its slots —
    // so all `len` slots are initialized.  (If a worker panicked, the scope
    // propagates the panic above this point and the written slots leak,
    // which is safe.)
    unsafe { results.set_len(len) };
    results
}

/// Splits `0..len` into at most `threads * 4` contiguous, non-empty ranges —
/// the chunking the parallel build stages (Lemma-1 sector assignment, CSR
/// row assembly) feed to [`parallel_map`].
///
/// Four chunks per worker keeps stragglers from serializing the tail while
/// amortizing per-chunk overhead, mirroring [`parallel_map`]'s own internal
/// chunking.  With `threads <= 1` a single full-range chunk is returned.
/// Every range is non-empty and the ranges tile `0..len` exactly, in order.
///
/// # Examples
///
/// ```
/// use antennae_parallel::chunk_ranges;
///
/// let ranges = chunk_ranges(10, 2);
/// assert_eq!(ranges, vec![(0, 2), (2, 4), (4, 6), (6, 8), (8, 10)]);
/// assert_eq!(chunk_ranges(10, 1), vec![(0, 10)]); // serial: one chunk
/// assert!(chunk_ranges(0, 4).is_empty());
/// ```
pub fn chunk_ranges(len: usize, threads: usize) -> Vec<(usize, usize)> {
    if len == 0 {
        return Vec::new();
    }
    if threads <= 1 {
        return vec![(0, len)];
    }
    let chunk = len.div_ceil(threads * 4).max(1);
    (0..len.div_ceil(chunk))
        .map(|i| (i * chunk, ((i + 1) * chunk).min(len)))
        .collect()
}

/// The hard fallback cap on [`default_threads`]: the pre-override behaviour
/// kept as the conservative default for machines where nobody has asked for
/// more (the workloads are memory-light and small enough that far more
/// threads stop paying off on typical instances).
pub const DEFAULT_THREAD_CAP: usize = 8;

/// The number of worker threads parallel pipelines use by default.
///
/// The `ANTENNAE_THREADS` environment variable, when set to a positive
/// integer, wins outright — *uncapped*, so >8-core machines can be told to
/// actually scale (and `ANTENNAE_THREADS=1` forces every pipeline
/// sequential, which is how the parallel-vs-serial oracles pin bit-equality
/// from the outside).  Otherwise the machine's available parallelism is
/// used, capped at [`DEFAULT_THREAD_CAP`].  A malformed or zero override is
/// ignored rather than honoured as nonsense.
///
/// The override is read on every call; the machine's parallelism is probed
/// once per process, because on Linux the probe reads cgroup files (~25 µs
/// a call — as much as building a small deployment).
pub fn default_threads() -> usize {
    static AVAILABLE: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    if let Ok(raw) = std::env::var("ANTENNAE_THREADS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    let available = *AVAILABLE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    });
    available.min(DEFAULT_THREAD_CAP)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<i32> = parallel_map(&Vec::<i32>::new(), 4, |x| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn sequential_and_parallel_agree_and_preserve_order() {
        let items: Vec<u64> = (0..200).collect();
        let seq = parallel_map(&items, 1, |x| x * x);
        let par = parallel_map(&items, 4, |x| x * x);
        assert_eq!(seq, par);
        assert_eq!(seq[10], 100);
        assert_eq!(seq.len(), 200);
    }

    #[test]
    fn every_item_is_processed_exactly_once() {
        let counter = AtomicU32::new(0);
        let items: Vec<u32> = (0..500).collect();
        let out = parallel_map(&items, 8, |x| {
            counter.fetch_add(1, Ordering::Relaxed);
            *x
        });
        assert_eq!(out.len(), 500);
        assert_eq!(counter.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let items = vec![1, 2, 3];
        let out = parallel_map(&items, 64, |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn chunk_ranges_tile_the_input_exactly() {
        for len in [0usize, 1, 2, 7, 100, 1023] {
            for threads in [1usize, 2, 3, 8, 64] {
                let ranges = chunk_ranges(len, threads);
                if len == 0 {
                    assert!(ranges.is_empty());
                    continue;
                }
                assert_eq!(ranges[0].0, 0);
                assert_eq!(ranges.last().unwrap().1, len);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "ranges must be contiguous");
                }
                assert!(ranges.iter().all(|&(s, e)| s < e), "ranges are non-empty");
                if threads > 1 {
                    assert!(ranges.len() <= threads * 4);
                }
            }
        }
    }

    #[test]
    fn default_threads_is_positive() {
        // The env override is process-global, so this test only asserts the
        // invariants that hold regardless of whether ANTENNAE_THREADS is set.
        assert!(default_threads() >= 1);
        if std::env::var("ANTENNAE_THREADS").is_err() {
            assert!(default_threads() <= DEFAULT_THREAD_CAP);
        }
    }
}

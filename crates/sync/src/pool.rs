//! The fork-join substrate standing in for the paper's pthread worker team.
//!
//! [`scoped_run`] forks a team of scoped threads, runs one closure on each
//! with its thread id, and joins them. Every parallel BFS level loop and
//! the MS-BFS kernel run inside one such region. Threads are not pinned;
//! the operating system places them.

/// One-shot parallel region: runs `f(tid)` on `threads` scoped threads (at
/// least one), returning when all complete.
pub fn scoped_run<F: Fn(usize) + Sync>(threads: usize, f: F) {
    let threads = threads.max(1);
    std::thread::scope(|s| {
        for tid in 0..threads {
            let f = &f;
            s.spawn(move || f(tid));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scoped_run_borrows_stack_data() {
        let data = [1u64, 2, 3, 4];
        let sum = AtomicUsize::new(0);
        scoped_run(4, |tid| {
            sum.fetch_add(data[tid] as usize, Ordering::SeqCst);
        });
        assert_eq!(sum.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn zero_threads_clamped_to_one() {
        let hit = AtomicUsize::new(0);
        scoped_run(0, |tid| {
            assert_eq!(tid, 0);
            hit.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hit.load(Ordering::SeqCst), 1);
    }
}

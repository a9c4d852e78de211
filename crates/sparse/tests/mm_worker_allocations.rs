//! `mm::read_pattern_file` allocates every buffer of a parallel read on the
//! calling thread and lends it to the worker threads.
//!
//! A large allocation made on another thread lands in that thread's malloc
//! arena and can raise the process's resident high-water mark, which a
//! caller that reads its input and then does other work pays for. This file
//! holds one test, so no other test's threads allocate while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use rcm_sparse::{mm, CooBuilder};

/// Allocations at least this large count.
const LARGE: usize = 4096;

static COUNTING: AtomicBool = AtomicBool::new(false);
static FOREIGN_LARGE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static IS_CALLER: Cell<bool> = const { Cell::new(false) };
}

/// The system allocator, counting large allocations made while
/// `COUNTING` is set by any thread but the one marked `IS_CALLER`.
struct Counting;

impl Counting {
    fn note(size: usize) {
        if size >= LARGE
            && COUNTING.load(Ordering::SeqCst)
            && !IS_CALLER.try_with(Cell::get).unwrap_or(false)
        {
            FOREIGN_LARGE.fetch_add(1, Ordering::SeqCst);
        }
    }
}

// SAFETY: every call forwards to `System` unchanged; the bookkeeping only
// touches atomics and a const-initialized thread-local without a
// destructor, and allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Counting::note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn workers_of_a_symmetric_read_allocate_nothing_large() {
    // A banded pattern as `coordinate pattern symmetric` text, its lower
    // triangle column-major (the order every CSC export has), and the same
    // lines in reverse, which no range keeps as column runs.
    let n = 60_000u32;
    let mut lines = Vec::new();
    let mut expected = CooBuilder::new(n as usize, n as usize);
    for c in 0..n {
        for r in [c, c + 1, c + 7, c + 300] {
            if r < n {
                lines.push(format!("{} {}\n", r + 1, c + 1));
                expected.push_sym(r, c);
            }
        }
    }
    let expected = expected.build();
    let header = format!(
        "%%MatrixMarket matrix coordinate pattern symmetric\n{n} {n} {}\n",
        lines.len()
    );
    let sorted = format!("{header}{}", lines.concat());
    lines.reverse();
    let reversed = format!("{header}{}", lines.concat());
    assert!(sorted.len() >= 2 << 20, "{} bytes", sorted.len());
    let dir = std::env::temp_dir().join("rcm-sparse-worker-allocations");
    std::fs::create_dir_all(&dir).unwrap();

    IS_CALLER.with(|c| c.set(true));
    for (name, text) in [("sorted", sorted), ("reversed", reversed)] {
        let path = dir.join(format!("banded-symmetric-{name}.mtx"));
        std::fs::write(&path, text).unwrap();
        COUNTING.store(true, Ordering::SeqCst);
        let read = mm::read_pattern_file(&path);
        COUNTING.store(false, Ordering::SeqCst);

        assert_eq!(read.unwrap(), expected, "{name}");
        assert_eq!(
            FOREIGN_LARGE.load(Ordering::SeqCst),
            0,
            "reading the {name} file, worker threads made allocations of {LARGE} bytes or more"
        );
    }
}

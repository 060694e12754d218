//! The row-run walker allocates nothing per row: `patch` makes the same
//! number of heap allocations for a 2-row and a 1024-row region (its O(1)
//! set-up only), so region assembly cost scales with bytes, not rows.
//!
//! This file holds exactly one test: the counting global allocator sees
//! every allocation in the process, so parallel tests in the same binary
//! would pollute the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use heaven_array::{CellType, MDArray, Minterval};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations made by one `patch` of a `rows` x 8 f32 source into an
/// owned destination that encloses it at a different origin.
fn patch_allocs(rows: i64) -> u64 {
    let src = MDArray::zeros(
        Minterval::new(&[(3, 2 + rows), (5, 12)]).unwrap(),
        CellType::F32,
    );
    let mut dst = MDArray::zeros(
        Minterval::new(&[(0, 1100), (0, 31)]).unwrap(),
        CellType::F32,
    );
    let before = ALLOCS.load(Ordering::Relaxed);
    dst.patch(&src).unwrap();
    let after = ALLOCS.load(Ordering::Relaxed);
    std::hint::black_box(&dst);
    after - before
}

#[test]
fn patch_allocations_do_not_grow_with_rows() {
    let two = patch_allocs(2);
    let many = patch_allocs(1024);
    assert_eq!(
        two, many,
        "patch allocated {two} times for 2 rows but {many} times for 1024 rows"
    );
}

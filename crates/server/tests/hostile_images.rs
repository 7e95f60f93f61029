//! The wire half of the adversarial table for the array-image decoder:
//! `Response::decode` answers every hostile image with `Error::Protocol`,
//! and never makes an allocation sized by a count the payload cannot back.
//! (The WAL half is in the root `tests/failure_injection.rs`.)

use scidb_core::error::Error;
use scidb_server::proto::Response;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

include!("../../../tests/support/hostile_images.rs");

/// Records the largest single allocation request.
struct LargestAlloc;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: LargestAlloc = LargestAlloc;

const ARRAY_RESULT: u8 = 0x83;

#[test]
fn hostile_array_images_are_protocol_errors_and_size_no_allocation() {
    for image in valid_images() {
        let resp = Response::decode(ARRAY_RESULT, &image).expect("valid image");
        assert_eq!(resp.encode(), image, "the codec writes the pinned layout");
    }
    let table = hostile_images();
    assert!(table.len() > 100, "every truncation plus the named cases");
    LARGEST.store(0, Ordering::Relaxed);
    for (what, image) in &table {
        assert!(image.len() < 4096);
        match Response::decode(ARRAY_RESULT, image) {
            Err(Error::Protocol(_)) => {}
            other => panic!("{what}: expected a protocol error, got {other:?}"),
        }
    }
    // Every image is under 4 KiB. A reservation sized by one of the hostile
    // counts would be gigabytes; what decoding really allocates (names,
    // messages, one chunk's map) is far below this ceiling.
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(largest <= 64 * 1024, "largest allocation: {largest} bytes");
}

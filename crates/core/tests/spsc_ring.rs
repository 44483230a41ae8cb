//! Model tests for the runtime's SPSC ring (`acq::runtime::spsc`).
//!
//! * **Schedule fuzz** — a seeded xorshift RNG interleaves push/pop/len
//!   operations against a `VecDeque` model across every small capacity, so
//!   wraparound and the full/empty boundaries are crossed thousands of
//!   times in every pattern a single-threaded schedule can produce. (The
//!   cross-thread orderings are covered by the inline `cross_thread_handoff`
//!   test and the runtime integration tests.)
//! * **Drop-while-nonempty leak check** — the ring's `Drop` must drain and
//!   drop unconsumed items. Proven two ways: a drop-counting payload, and a
//!   per-thread alloc/dealloc-counting allocator balancing heap traffic
//!   across the ring's whole lifetime.

use acq::runtime::spsc::ring;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts allocations and deallocations so tests can assert that a scope
/// returned every byte it took (no leaks, including ring-internal buffers).
/// Counts are per thread: `cargo test` runs the schedule fuzz on another
/// thread at the same time, and its allocations must not show up here.
struct CountingAlloc;

/// `(allocs, deallocs, alloc bytes, dealloc bytes)` of the current thread.
#[derive(Clone, Copy)]
struct Traffic {
    allocs: i64,
    deallocs: i64,
    alloc_bytes: i64,
    dealloc_bytes: i64,
}

thread_local! {
    static TRAFFIC: Cell<Traffic> = const {
        Cell::new(Traffic { allocs: 0, deallocs: 0, alloc_bytes: 0, dealloc_bytes: 0 })
    };
}

fn record(f: impl FnOnce(&mut Traffic)) {
    // `try_with`: the slot is gone while the thread's destructors run.
    let _ = TRAFFIC.try_with(|t| {
        let mut v = t.get();
        f(&mut v);
        t.set(v);
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(|t| {
            t.allocs += 1;
            t.alloc_bytes += layout.size() as i64;
        });
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(|t| {
            t.deallocs += 1;
            t.dealloc_bytes += layout.size() as i64;
        });
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Net `(allocations, bytes)` the current thread holds.
fn heap_balance() -> (i64, i64) {
    let t = TRAFFIC.with(Cell::get);
    (t.allocs - t.deallocs, t.alloc_bytes - t.dealloc_bytes)
}

/// Deterministic xorshift64* — the schedule is reproducible from the seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[test]
fn schedule_fuzz_matches_vecdeque_model() {
    for capacity in [1usize, 2, 3, 4, 7, 8] {
        // `ring` rounds the capacity up to a power of two (min 2); the
        // model must use the effective capacity, which the handles report.
        let (mut p, mut c) = ring::<u64>(capacity);
        let effective = p.capacity();
        assert!(effective >= capacity.max(2));
        assert!(effective.is_power_of_two());

        let mut model: VecDeque<u64> = VecDeque::new();
        let mut rng = Rng(0x5EED_0000 + capacity as u64);
        let mut pushed = 0u64;
        for step in 0..20_000u64 {
            match rng.below(5) {
                // Push-biased (0..=2) so the full boundary is reached often.
                0..=2 => {
                    let v = pushed;
                    match p.push(v) {
                        Ok(()) => {
                            pushed += 1;
                            model.push_back(v);
                            assert!(
                                model.len() <= effective,
                                "push succeeded past capacity at step {step}"
                            );
                        }
                        Err(back) => {
                            assert_eq!(back, v, "push must return the rejected value");
                            assert_eq!(
                                model.len(),
                                effective,
                                "push failed while the model says non-full at step {step}"
                            );
                        }
                    }
                }
                3 => assert_eq!(c.pop(), model.pop_front(), "pop diverged at step {step}"),
                _ => {
                    // Single-threaded, so the "racy snapshot" is exact.
                    assert_eq!(p.len(), model.len());
                    assert_eq!(c.len(), model.len());
                    assert_eq!(p.is_empty(), model.is_empty());
                    assert_eq!(c.is_empty(), model.is_empty());
                }
            }
        }
        // Drain and compare the tail.
        while let Some(v) = c.pop() {
            assert_eq!(Some(v), model.pop_front());
        }
        assert!(model.is_empty(), "ring dropped items the model kept");
    }
}

/// Payload whose drops are observable.
struct Tracked(#[allow(dead_code)] Box<u64>);

static DROPS: AtomicU64 = AtomicU64::new(0);

impl Drop for Tracked {
    fn drop(&mut self) {
        DROPS.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn drop_while_nonempty_leaks_nothing() {
    let (before_allocs, before_bytes) = heap_balance();
    let before_drops = DROPS.load(Ordering::SeqCst);
    {
        let (mut p, mut c) = ring::<Tracked>(8);
        for i in 0..8 {
            p.push(Tracked(Box::new(i))).map_err(|_| "full").unwrap();
        }
        // Consume a few so head is mid-array, then refill to force wrap:
        // the occupied span [head, tail) straddles the slot-array boundary
        // when the handles drop.
        for _ in 0..3 {
            drop(c.pop().unwrap());
        }
        for i in 8..11 {
            p.push(Tracked(Box::new(i))).map_err(|_| "full").unwrap();
        }
        // 8 slots still occupied here.
        drop(p);
        drop(c);
    }
    assert_eq!(
        DROPS.load(Ordering::SeqCst) - before_drops,
        11,
        "every pushed payload must be dropped exactly once"
    );
    let (after_allocs, after_bytes) = heap_balance();
    assert_eq!(
        (after_allocs - before_allocs, after_bytes - before_bytes),
        (0, 0),
        "ring lifetime must return every heap byte it allocated"
    );
}

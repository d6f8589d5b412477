//! The machine-speed reference that host times are scaled by.
//!
//! On a shared host the same simulation runs up to twice as fast in one
//! minute as in the next: neighbours on the same physical core and cache
//! change how much work a cycle does, not how many cycles the process gets,
//! so no CPU-time clock removes it. The kernel below is a fixed miniature
//! discrete-event loop written in the benchmark, not in the program: a
//! binary-heap event queue, a hash map of per-slot counters, and four
//! dependent loads per event into a 32 MiB arena. Its speed moves with the
//! machine the way the simulator's does (run after run, their speeds
//! correlated at 0.89 to 0.99 on a shared 2-vCPU host; README "Host-time
//! noise"),
//! and since it is benchmark code a change to the program never moves it.
//!
//! A run times the kernel before every rung; [`slowness`] of the run's mean
//! pass says how many times slower than the reference machine it ran, and
//! the run's host times are divided by it (its throughput multiplied).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Arena words (32 MiB of `u64`): past the 4 MiB L2, like the rack's
/// objects.
const ARENA_WORDS: usize = 1 << 22;
/// Events one kernel pass processes.
const EVENTS: usize = 200_000;
/// Events kept pending in the kernel's queue.
const PENDING: u64 = 2048;
/// Distinct counters in the kernel's hash map.
const SLOTS: usize = 8192;
/// Dependent arena loads per event.
const LOADS: usize = 4;
/// One kernel pass on the reference machine, seconds: about the fastest
/// pass seen on a shared 2-vCPU Xeon host (2.0 GHz, 4 MiB L2 per vCPU,
/// 105 MiB shared L3) in its slow state. In its fast state passes take
/// about 0.11 s, so slowness reads about 0.6 there.
pub const REFERENCE_S: f64 = 0.17;

/// How much the simulator's host time moves per unit the kernel's moves, on
/// a log scale. When the shared machine went from its slow state to its
/// fast one (kernel passes 1.8 times faster), simulation got 2.0 to 2.1
/// times faster and set-up 1.9 times (slope 1.1 to 1.3). Within the slow
/// state the fitted slope is lower (0.55 to 0.89), since the kernel's own
/// noise there flattens it; erring high keeps the two states' medians
/// together at the cost of a wider spread inside one state.
pub const SENSITIVITY: f64 = 1.2;

/// How many times slower than the reference machine a run ran whose mean
/// kernel pass took `mean_pass_s`.
pub fn slowness(mean_pass_s: f64) -> f64 {
    (mean_pass_s / REFERENCE_S).powf(SENSITIVITY)
}

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The kernel and its arena, built once and resident for the whole run.
pub struct Kernel {
    arena: Vec<u64>,
}

impl Kernel {
    /// MiB the arena keeps resident; `peak_rss_mb` leaves them out.
    pub const ARENA_MIB: f64 = (ARENA_WORDS * 8) as f64 / (1u64 << 20) as f64;

    /// Builds the arena, touching every page of it.
    pub fn new() -> Kernel {
        let mut x = 0x5EED;
        Kernel {
            arena: (0..ARENA_WORDS).map(|_| splitmix(&mut x) >> 40).collect(),
        }
    }

    /// Host seconds of one pass; every pass does the same work.
    pub fn pass_s(&self) -> f64 {
        let mut x = 0x5EED;
        let mask = ARENA_WORDS - 1;
        let start = Instant::now();
        let mut queue = BinaryHeap::with_capacity(2 * PENDING as usize);
        let mut counters: HashMap<u64, u64> = HashMap::with_capacity(SLOTS);
        for slot in 0..PENDING {
            queue.push(Reverse((splitmix(&mut x) % 1000, slot)));
        }
        let mut acc = 0u64;
        for _ in 0..EVENTS {
            let Reverse((at, slot)) = queue.pop().expect("the queue never drains");
            let mut p = slot as usize;
            for _ in 0..LOADS {
                p = self.arena[p & mask] as usize ^ (acc as usize & 7);
            }
            acc = acc.wrapping_add(p as u64);
            *counters.entry((p % SLOTS) as u64).or_insert(0) += 1;
            queue.push(Reverse((at + 1 + splitmix(&mut x) % 500, p as u64)));
        }
        black_box((acc, counters.len()));
        start.elapsed().as_secs_f64()
    }
}

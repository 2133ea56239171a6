//! The host's memory latency, sampled between passes.
//!
//! Other tenants of a shared host load its memory for minutes at a time,
//! and the simulator then runs up to 1.7× slower. A dependent-load chase
//! over a buffer far larger than the per-core L2 slows with much of that,
//! so `run.py` scales each run's host times by this probe (README, Noise).

use std::hint::black_box;
use std::time::Instant;

/// Buffer entries: 16 MiB of `u32`, eight times the per-core L2.
const ENTRIES: usize = 1 << 22;
/// Loads before timing, and timed loads.
const WARM_LOADS: usize = 100_000;
const TIMED_LOADS: usize = 400_000;

/// A buffer whose entries form one cycle through every index, visited in
/// a scattered order: `i -> (A·i + C) mod 2^k` has full period when
/// `A ≡ 1 (mod 4)` and `C` is odd, and no stride a prefetcher could follow.
fn cycle(entries: usize) -> Vec<u32> {
    const A: usize = 0x5851_F42D;
    const C: usize = 0x14057B7F;
    (0..entries)
        .map(|i| (i.wrapping_mul(A).wrapping_add(C) & (entries - 1)) as u32)
        .collect()
}

fn chase(buf: &[u32], loads: usize) -> u32 {
    let mut i = 0u32;
    for _ in 0..loads {
        i = buf[i as usize];
    }
    i
}

/// Host nanoseconds per dependent load over the probe buffer.
pub fn memory_latency_ns() -> f64 {
    let buf = cycle(ENTRIES);
    black_box(chase(&buf, WARM_LOADS));
    let t = Instant::now();
    black_box(chase(&buf, TIMED_LOADS));
    t.elapsed().as_secs_f64() * 1e9 / TIMED_LOADS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chase_visits_every_entry_once_per_cycle() {
        let buf = cycle(1 << 10);
        let mut seen = vec![false; buf.len()];
        let mut i = 0u32;
        for _ in 0..buf.len() {
            assert!(!seen[i as usize], "entry {i} visited twice");
            seen[i as usize] = true;
            i = buf[i as usize];
        }
        assert_eq!(i, 0, "the chase returns to its start");
    }
}

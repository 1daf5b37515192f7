//! Host speed: a fixed integer loop, timed beside every repetition, that
//! tells how fast the host ran at the time.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts by
//! a fifth or more within minutes, slowing every program alike. The loop
//! below touches no memory and shares no code with the workspace, so a
//! change to the program cannot move it; only the host can. Host-time
//! metrics divided by its slowdown compare across runs made minutes apart.

use std::hint::black_box;
use std::time::Instant;

use crate::workloads::THREADS;

/// Loop iterations per thread in one probe (about 40 ms on the reference
/// host).
const ITERS: u64 = 15_000_000;
/// Probe time on the reference host, seconds: about the median probe on the
/// 2-vCPU x86-64 container the bounds in `BENCHMARK.json` were set on. It
/// only fixes the scale of the scaled metrics; any constant would compare.
pub const REFERENCE_S: f64 = 0.042;

/// One probe: the loop on `THREADS` threads at once, so it sees every core a
/// campaign uses. Returns the harmonic mean of the threads' times, seconds:
/// a campaign's workers share its cells, so its wall time follows the cores'
/// summed speed, not the slowest core's.
pub fn probe() -> f64 {
    let times: Vec<f64> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..THREADS as u64)
            .map(|k| {
                s.spawn(move || {
                    let t = Instant::now();
                    black_box(spin(black_box(ITERS), k + 1));
                    t.elapsed().as_secs_f64()
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("probe thread"))
            .collect()
    });
    times.len() as f64 / times.iter().map(|t| 1.0 / t).sum::<f64>()
}

/// A dependent chain of xorshift steps: its time is set by the core's clock
/// and pipeline, not by caches or memory.
fn spin(iters: u64, seed: u64) -> u64 {
    let (mut x, mut acc) = (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1, 0u64);
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x.rotate_left((x & 31) as u32));
    }
    acc
}

/// How much slower than the reference host the host ran around one
/// repetition: the mean of the probes before and after it over
/// [`REFERENCE_S`].
pub fn slowdown(before: f64, after: f64) -> f64 {
    (before + after) / 2.0 / REFERENCE_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_one_at_the_reference_speed() {
        assert_eq!(slowdown(REFERENCE_S, REFERENCE_S), 1.0);
        assert_eq!(slowdown(REFERENCE_S, 3.0 * REFERENCE_S), 2.0);
        let p = probe();
        assert!(p.is_finite() && p > 0.0, "probe time {p}");
    }
}

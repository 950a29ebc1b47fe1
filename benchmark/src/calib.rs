//! Machine-speed calibration for host-time metrics.
//!
//! The boxes this benchmark runs on are shared virtual machines whose speed
//! drifts by 1.3–1.5× over minutes (a neighbour on the sibling hardware
//! thread, cache and memory-bandwidth contention) — far more than any
//! regression bound. Measured on the six workloads, the medians of ten
//! back-to-back 10-second runs spread by 10–20 % of their median; a fixed
//! single-threaded spin loop timed right beside each pass drifts *with*
//! them, and pass time over spin time spreads by 2–6 %.
//!
//! So host times are reported **speed-normalised**: wall time divided by the
//! slowdown factor the spin measured at that moment, which reads as "wall
//! time on a box running at the reference speed". The spin is benchmark
//! code, compiled with the benchmark and independent of the repository, so
//! a change to the simulator cannot move it; the raw wall medians are kept
//! in every result record beside the normalised ones.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Words swept: 1 MiB, deliberately larger than a core's private caches so
/// that the spin feels shared-cache and memory contention as the simulator's
/// page copies do.
const WORDS: usize = 128 * 1024;

/// Sweeps per sub-spin and sub-spins per sample. A sample reports the median
/// sub-spin, which shrugs off one timer interrupt or cold cache.
const SWEEPS: usize = 4;
const SUB_SPINS: usize = 5;

/// What one sub-spin takes at the reference speed, in nanoseconds: the calm
/// value on the 2-core 2.1 GHz Xeon box the benchmark was written on. Only
/// the *ratio* to it matters for comparisons; the constant just keeps
/// normalised times reading like wall times on that box.
pub const REFERENCE_SPIN_NS: f64 = 265_000.0;

/// The spin's working set, allocated once per run, and the last sample.
#[derive(Debug)]
pub struct Calibrator {
    words: Vec<u64>,
    last: f64,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new()
    }
}

impl Calibrator {
    /// Allocates the working set and takes the first sample.
    pub fn new() -> Calibrator {
        let mut calibrator = Calibrator { words: vec![1; WORDS], last: 0.0 };
        calibrator.last = calibrator.slowdown();
        calibrator
    }

    /// The slowdown factor over the interval since the previous sample (or
    /// since [`Calibrator::new`]): the mean of that sample and one taken now.
    /// Call it right after the work being timed.
    pub fn lap(&mut self) -> f64 {
        let now = self.slowdown();
        let before = std::mem::replace(&mut self.last, now);
        (before + now) / 2.0
    }

    /// Times the spin now and returns the machine's momentary **slowdown
    /// factor**: 1.0 at the reference speed, 1.4 when everything takes 40 %
    /// longer. Costs about 1.5 ms.
    fn slowdown(&mut self) -> f64 {
        let mut sub_spins = [0.0; SUB_SPINS];
        for slot in &mut sub_spins {
            let started = Instant::now();
            let mut acc = 0u64;
            for sweep in 0..SWEEPS as u64 {
                for word in &mut self.words {
                    *word = word.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(sweep);
                    acc ^= *word;
                }
            }
            black_box(acc);
            *slot = started.elapsed().as_nanos() as f64;
        }
        median(&sub_spins) / REFERENCE_SPIN_NS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_spin_is_positive_and_repeats_within_a_factor_of_a_few() {
        let mut cal = Calibrator::new();
        let samples: Vec<f64> = (0..5).map(|_| cal.lap()).collect();
        assert!(samples.iter().all(|&s| s > 0.0 && s.is_finite()), "{samples:?}");
        // Debug builds are far slower than the reference; the test only pins
        // that consecutive samples agree with one another.
        let (lo, hi) = samples.iter().fold((f64::MAX, 0.0_f64), |(l, h), &s| (l.min(s), h.max(s)));
        assert!(hi / lo < 5.0, "{samples:?}");
    }
}

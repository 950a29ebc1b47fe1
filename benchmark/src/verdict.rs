//! The correctness check of a measured case, kept apart from the code that
//! runs the simulator so it can be tested on its own: a case either matches
//! its reference and its own first execution, or it is counted as failed.

use std::fmt;

/// What one execution of a case produced, reduced to what is judged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observed {
    /// Per-processor checksums as raw bits (`f64::to_bits` for the float
    /// kernels), indexed by processor id.
    pub checksum_bits: Vec<u64>,
    /// `DsmRun::execution_time()` in virtual nanoseconds.
    pub virt_ns: u64,
    /// Messages sent, summed over processors.
    pub messages: u64,
    /// Race reports returned by the run.
    pub races: usize,
}

/// Why a case counts as failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// The run panicked (an application panic, a protocol-server panic or
    /// the runtime's deadlock watchdog).
    Panicked(String),
    /// `Dsm::try_run` returned a `DsmError`.
    SystemError(String),
    /// The race detector reported a race in a race-free kernel.
    Race(usize),
    /// A processor's checksum differs from the reference run's.
    Checksum {
        /// The first processor that differs.
        proc: usize,
        /// The reference's bits.
        expected: u64,
        /// This run's bits.
        got: u64,
    },
    /// The run returned a different number of results than the reference.
    ResultCount {
        /// Processors in the reference.
        expected: usize,
        /// Processors in this run.
        got: usize,
    },
    /// Virtual time or message count differs from the first execution of
    /// the same case under the same fault schedule: the simulation is not
    /// deterministic.
    Nondeterministic {
        /// `(virt_ns, messages)` of the first execution.
        first: (u64, u64),
        /// `(virt_ns, messages)` of this one.
        now: (u64, u64),
    },
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Panicked(why) => write!(f, "panicked: {why}"),
            Failure::SystemError(why) => write!(f, "system error: {why}"),
            Failure::Race(n) => write!(f, "{n} race report(s) in a race-free kernel"),
            Failure::Checksum { proc, expected, got } => {
                write!(f, "checksum of P{proc} is {got:#018x}, the reference has {expected:#018x}")
            }
            Failure::ResultCount { expected, got } => {
                write!(f, "{got} results, the reference has {expected}")
            }
            Failure::Nondeterministic { first, now } => write!(
                f,
                "virt {} ns / {} messages, first execution had {} ns / {}",
                now.0, now.1, first.0, first.1
            ),
        }
    }
}

/// Judges one execution against the reference checksums and, where the
/// workload is deterministic, against `(virt_ns, messages)` of the first
/// execution of the same case and schedule (`None` for the first execution
/// itself and for the lock-based workload, whose grant order follows host
/// arrival order).
pub fn judge(
    observed: &Observed,
    reference_bits: &[u64],
    first_execution: Option<(u64, u64)>,
) -> Result<(), Failure> {
    if observed.races > 0 {
        return Err(Failure::Race(observed.races));
    }
    if observed.checksum_bits.len() != reference_bits.len() {
        return Err(Failure::ResultCount {
            expected: reference_bits.len(),
            got: observed.checksum_bits.len(),
        });
    }
    if let Some((proc, (&got, &expected))) = observed
        .checksum_bits
        .iter()
        .zip(reference_bits)
        .enumerate()
        .find(|(_, (got, expected))| got != expected)
    {
        return Err(Failure::Checksum { proc, expected, got });
    }
    match first_execution {
        Some(first) if first != (observed.virt_ns, observed.messages) => {
            Err(Failure::Nondeterministic { first, now: (observed.virt_ns, observed.messages) })
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observed() -> Observed {
        Observed { checksum_bits: vec![10, 20, 30], virt_ns: 1_000, messages: 7, races: 0 }
    }

    #[test]
    fn a_matching_run_passes() {
        assert_eq!(judge(&observed(), &[10, 20, 30], None), Ok(()));
        assert_eq!(judge(&observed(), &[10, 20, 30], Some((1_000, 7))), Ok(()));
    }

    #[test]
    fn one_flipped_checksum_bit_fails_and_names_the_processor() {
        let reference = [10, 20 ^ (1 << 51), 30];
        assert_eq!(
            judge(&observed(), &reference, None),
            Err(Failure::Checksum { proc: 1, expected: 20 ^ (1 << 51), got: 20 })
        );
    }

    #[test]
    fn races_result_count_and_nondeterminism_fail() {
        let racy = Observed { races: 2, ..observed() };
        assert_eq!(judge(&racy, &[10, 20, 30], None), Err(Failure::Race(2)));
        assert_eq!(
            judge(&observed(), &[10, 20], None),
            Err(Failure::ResultCount { expected: 2, got: 3 })
        );
        assert_eq!(
            judge(&observed(), &[10, 20, 30], Some((1_000, 8))),
            Err(Failure::Nondeterministic { first: (1_000, 8), now: (1_000, 7) })
        );
        assert_eq!(
            judge(&observed(), &[10, 20, 30], Some((999, 7))),
            Err(Failure::Nondeterministic { first: (999, 7), now: (1_000, 7) })
        );
    }
}

//! Deterministic fault injection for the simulated interconnect.
//!
//! A [`FaultPlan`] decides, for every message crossing a link, whether that
//! message's transmission attempts are dropped, whether the network
//! duplicates it, whether extra link delay is added, and whether it is
//! reordered behind later traffic. Every decision is a **pure function of a
//! deterministic message identity** — `(seed, src, dst, port, sent_at,
//! wire_bytes)` — so two runs with the same seed inject byte-for-byte the
//! same faults and produce identical virtual-time traces.
//!
//! The ARQ that masks these faults is resolved entirely at send time
//! ([`NetFaults::added_latency`]): dropped attempts become backed-off
//! timeouts, delays become jitter, and both are added to the message's
//! arrival time. Duplicates and reorders are what a per-link sequence
//! number and resequencing window absorb on a real network; the receiver
//! would see the fault-free per-link order at the same arrival time, so they
//! are counted and charged nothing. One envelope is enqueued per message.
//!
//! Why the identity holds no sequence number: a node's compute thread and
//! whichever thread is serving its requests share one
//! [`Endpoint`](crate::Endpoint), and a per-link counter would be assigned
//! in whichever order they reach it (e.g. a `DiffResponse` from a handler
//! and a `SyncDiffs` from the compute thread, both headed for the same
//! peer's reply port). Keying faults on it would make the fault assignment
//! depend on OS scheduling. `sent_at` and the wire size *are* deterministic
//! (virtual time is advanced by the observe-all-then-advance discipline, not
//! by the wall clock), so they identify a logical message reproducibly; in
//! the rare case two concurrent messages share a full identity they simply
//! receive the same treatment, which preserves determinism because such
//! messages are interchangeable in the time model.

use sp2model::{SharedStats, VirtualTime};

use crate::cluster::Port;
use crate::NodeId;

/// Per-link fault probabilities, each expressed in permille (0..=1000). The
/// default is a healthy link: no faults of any kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkRates {
    /// Probability (‰) that a transmission attempt is dropped and must be
    /// retransmitted after a timeout.
    pub drop_permille: u16,
    /// Probability (‰) that a message is duplicated in flight.
    pub dup_permille: u16,
    /// Probability (‰) that a message suffers extra link delay.
    pub delay_permille: u16,
    /// Probability (‰) that a message is overtaken by later traffic on the
    /// same link (reordering).
    pub reorder_permille: u16,
}

/// Salts separating the independent fault decisions drawn from one identity.
const SALT_DROP: u64 = 0x9e37_79b9_7f4a_7c15;
const SALT_DUP: u64 = 0xd1b5_4a32_d192_ed03;
const SALT_DELAY: u64 = 0x8cb9_2ba7_2f3d_8dd7;
const SALT_REORDER: u64 = 0x2545_f491_4f6c_dd1d;

/// Unit of injected link delay; a delayed message gets 1–4 quanta.
const DELAY_QUANTUM: VirtualTime = VirtualTime::from_micros(50);

/// A seeded, reproducible schedule of interconnect faults.
///
/// The plan applies one [`LinkRates`] to every link; every fault decision is
/// drawn by hashing the message identity with the seed (see the module docs
/// for why this, and not the sequence number, is the key).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    rates: LinkRates,
}

impl FaultPlan {
    /// A plan applying `rates` to every link.
    pub fn uniform(seed: u64, rates: LinkRates) -> FaultPlan {
        FaultPlan { seed, rates }
    }

    /// SplitMix64-style finalizer over the message identity and a per-decision
    /// salt. Pure: no state, no wall clock, no sequence numbers.
    fn hash(&self, salt: u64, key: MsgKey) -> u64 {
        let mut h = self.seed ^ salt;
        for word in [
            key.src.index() as u64,
            key.dst.index() as u64,
            match key.port {
                Port::Request => 0,
                Port::Reply => 1,
            },
            key.sent_at_ns,
            key.wire_bytes,
        ] {
            h = h.wrapping_add(word).wrapping_add(0x9e37_79b9_7f4a_7c15);
            h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            h ^= h >> 31;
        }
        h
    }

    fn roll(&self, salt: u64, key: MsgKey, permille: u16) -> bool {
        u16::try_from(self.hash(salt, key) % 1000).expect("mod 1000 fits") < permille
    }

    /// How many leading transmission attempts of this message are dropped,
    /// capped at `max_attempts`. Each attempt rolls independently (salted by
    /// the attempt index), so the distribution is geometric.
    pub(crate) fn leading_drops(&self, key: MsgKey, max_attempts: u32) -> u32 {
        let rates = self.rates;
        if rates.drop_permille == 0 {
            return 0;
        }
        let mut drops = 0;
        while drops < max_attempts {
            if !self.roll(SALT_DROP ^ u64::from(drops), key, rates.drop_permille) {
                break;
            }
            drops += 1;
        }
        drops
    }

    /// Whether the network duplicates this message in flight.
    pub(crate) fn duplicates(&self, key: MsgKey) -> bool {
        self.roll(SALT_DUP, key, self.rates.dup_permille)
    }

    /// Extra link delay for this message ([`VirtualTime::ZERO`] for most).
    pub(crate) fn extra_delay(&self, key: MsgKey) -> VirtualTime {
        let h = self.hash(SALT_DELAY, key);
        if u16::try_from(h % 1000).expect("mod 1000 fits") < self.rates.delay_permille {
            DELAY_QUANTUM.scale(1 + (h >> 10) % 4)
        } else {
            VirtualTime::ZERO
        }
    }

    /// Whether the network reorders this message behind later traffic.
    pub(crate) fn lags(&self, key: MsgKey) -> bool {
        self.roll(SALT_REORDER, key, self.rates.reorder_permille)
    }
}

/// The deterministic identity of a logical message, the sole input (besides
/// the seed) to every fault decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MsgKey {
    pub src: NodeId,
    pub dst: NodeId,
    pub port: Port,
    pub sent_at_ns: u64,
    pub wire_bytes: u64,
}

/// Retransmission policy of the modelled ARQ.
///
/// Timeouts are virtual time: the k-th retransmission of a message is
/// modelled as departing `timeout · backoff^k` after the previous attempt,
/// which is how lost attempts turn into added *modelled* latency rather than
/// real waiting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Virtual time the sender waits for an ack before retransmitting.
    pub timeout: VirtualTime,
    /// Multiplier applied to the timeout after each failed attempt.
    pub backoff: u32,
    /// Total transmission attempts before the peer is declared unresponsive.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    /// 1 ms initial timeout, doubling per attempt, 8 attempts. Under the
    /// default chaos drop rate of 5% the chance of exhausting all attempts is
    /// 0.05⁸ ≈ 4·10⁻¹¹ per message — negligible for full bench runs — while a
    /// dead link (`drop_permille` 1000) exhausts deterministically.
    fn default() -> RetryPolicy {
        RetryPolicy { timeout: VirtualTime::from_millis(1), backoff: 2, max_attempts: 8 }
    }
}

/// Complete fault configuration: the schedule plus the recovery policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetFaults {
    /// The seeded fault schedule.
    pub plan: FaultPlan,
    /// The retransmission policy that masks the schedule's drops.
    pub retry: RetryPolicy,
}

impl NetFaults {
    /// The standard chaos configuration: 5% attempt drops, 5% duplicates,
    /// 10% delays and 10% reorders on every link, with the default
    /// [`RetryPolicy`].
    pub fn chaos(seed: u64) -> NetFaults {
        let rates = LinkRates {
            drop_permille: 50,
            dup_permille: 50,
            delay_permille: 100,
            reorder_permille: 100,
        };
        NetFaults { plan: FaultPlan::uniform(seed, rates), retry: RetryPolicy::default() }
    }

    /// The message's whole fate, asked once at send time: the latency its
    /// retransmission timeouts and link jitter add, with every injected fault
    /// counted in `stats`.
    ///
    /// # Panics
    ///
    /// Panics with a [`DeliveryExpired`] payload when the plan drops all
    /// [`RetryPolicy::max_attempts`] attempts.
    pub(crate) fn added_latency(&self, key: MsgKey, stats: &SharedStats) -> VirtualTime {
        let max_attempts = self.retry.max_attempts;
        let drops = self.plan.leading_drops(key, max_attempts);
        if drops >= max_attempts {
            // Every attempt was lost: the peer is unreachable on this link.
            // Count the retransmissions actually made, then abort the send;
            // the DSM harness converts this payload into a structured
            // `PeerUnresponsive` error.
            stats.net_retransmits(u64::from(max_attempts.saturating_sub(1)));
            std::panic::panic_any(DeliveryExpired {
                src: key.src,
                dst: key.dst,
                port: key.port,
                attempts: max_attempts,
            });
        }
        // Each dropped attempt costs one (backed-off) virtual timeout before
        // the retransmission departs.
        let mut retry_delay = VirtualTime::ZERO;
        let mut timeout = self.retry.timeout;
        for _ in 0..drops {
            retry_delay += timeout;
            timeout = timeout.scale(u64::from(self.retry.backoff));
        }
        let jitter = self.plan.extra_delay(key);
        if drops > 0 {
            stats.net_retransmits(u64::from(drops));
        }
        if jitter > VirtualTime::ZERO {
            stats.net_delays(1);
        }
        if self.plan.lags(key) {
            stats.net_reorders(1);
        }
        if self.plan.duplicates(key) {
            stats.net_dups(1);
        }
        let added = retry_delay + jitter;
        if added > VirtualTime::ZERO {
            stats.net_added_delay_ns(added.as_nanos());
        }
        added
    }
}

/// Panic payload thrown by [`Endpoint::send`](crate::Endpoint::send) when a
/// message exhausts [`RetryPolicy::max_attempts`]. The DSM harness catches it
/// and converts it into a structured `PeerUnresponsive` error; raw `msgnet`
/// users see a panic whose message names the link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliveryExpired {
    /// The sending node.
    pub src: NodeId,
    /// The unresponsive destination.
    pub dst: NodeId,
    /// The port the undeliverable message was addressed to.
    pub port: Port,
    /// How many transmission attempts were made.
    pub attempts: u32,
}

impl std::fmt::Display for DeliveryExpired {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "delivery from {} to {} ({:?} port) expired after {} attempts",
            self.src, self.dst, self.port, self.attempts
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(src: usize, dst: usize, sent_at_ns: u64, wire_bytes: u64) -> MsgKey {
        MsgKey { src: NodeId(src), dst: NodeId(dst), port: Port::Reply, sent_at_ns, wire_bytes }
    }

    #[test]
    fn decisions_are_pure_functions_of_identity() {
        let plan = NetFaults::chaos(7).plan;
        let k = key(0, 1, 12_345, 64);
        for _ in 0..3 {
            assert_eq!(plan.leading_drops(k, 8), plan.leading_drops(k, 8));
            assert_eq!(plan.duplicates(k), plan.duplicates(k));
            assert_eq!(plan.extra_delay(k), plan.extra_delay(k));
            assert_eq!(plan.lags(k), plan.lags(k));
        }
        // An identical plan built from the same seed agrees on every call.
        let again = NetFaults::chaos(7).plan;
        assert_eq!(plan.duplicates(k), again.duplicates(k));
        assert_eq!(plan.extra_delay(k), again.extra_delay(k));
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = NetFaults::chaos(1).plan;
        let b = NetFaults::chaos(2).plan;
        let keys: Vec<MsgKey> = (0..200).map(|i| key(0, 1, i * 1000, 64 + i)).collect();
        let differs = keys.iter().any(|&k| {
            a.duplicates(k) != b.duplicates(k)
                || a.lags(k) != b.lags(k)
                || a.extra_delay(k) != b.extra_delay(k)
        });
        assert!(differs, "two seeds produced identical schedules over 200 messages");
    }

    #[test]
    fn rates_are_roughly_respected() {
        let plan = FaultPlan::uniform(
            42,
            LinkRates {
                drop_permille: 100,
                dup_permille: 100,
                delay_permille: 100,
                reorder_permille: 100,
            },
        );
        let n = 10_000u64;
        let dups = (0..n).filter(|&i| plan.duplicates(key(0, 1, i * 100, 32))).count();
        // 10% ± generous slack.
        assert!((500..2000).contains(&dups), "duplicate rate off: {dups}/10000");
    }

    #[test]
    fn clean_links_never_fault() {
        let plan = FaultPlan::uniform(9, LinkRates::default());
        for i in 0..1000 {
            let k = key(0, 1, i * 37, i);
            assert_eq!(plan.leading_drops(k, 8), 0);
            assert!(!plan.duplicates(k));
            assert_eq!(plan.extra_delay(k), VirtualTime::ZERO);
            assert!(!plan.lags(k));
        }
    }

    #[test]
    fn delay_is_quantized_and_bounded() {
        let plan = FaultPlan::uniform(
            11,
            LinkRates {
                drop_permille: 0,
                dup_permille: 0,
                delay_permille: 1000,
                reorder_permille: 0,
            },
        );
        for i in 0..200 {
            let d = plan.extra_delay(key(0, 1, i * 13, 8));
            let q = d.as_nanos() / 50_000;
            assert!(
                d.as_nanos().is_multiple_of(50_000) && (1..=4).contains(&q),
                "unexpected delay {d}"
            );
        }
    }

    #[test]
    fn default_retry_policy_is_generous() {
        let retry = RetryPolicy::default();
        assert!(retry.max_attempts >= 4);
        assert!(retry.timeout > VirtualTime::ZERO);
        assert!(retry.backoff >= 1);
    }
}

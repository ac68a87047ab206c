//! Retry policies for checkpointed execution.

use serde::{Deserialize, Serialize};

/// How an executor reacts when a certificate check fails.
///
/// The executor snapshots the key vector at every certificate boundary
/// (stage boundaries of the compiled program). When the check at the
/// end of a segment fails, it restores the snapshot and re-executes the
/// segment — up to `max_retries` times per segment. Because injected
/// faults are transient (a site fires at most once per run), the first
/// re-execution of a segment is already clean; retries beyond the first
/// guard against corruption that slipped *into* a checkpoint past a
/// sampled check.
///
/// The optional backoff fields delay each re-execution by a
/// capped-exponential, deterministically jittered amount — the shape a
/// service layer wants when a retry storm would make an overload worse.
/// The delay parks the retrying lane, not its worker: the batch
/// dispatcher runs the batch's other lanes meanwhile and sleeps only
/// when every unfinished lane is waiting (a lone run sleeps). With
/// `backoff_base_ns == 0` (the default) retries re-execute
/// immediately, exactly as before the fields existed, so every
/// previously valid configuration behaves bit-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Re-executions allowed per segment before the run gives up
    /// (`RetryExhausted`; batch executors then quarantine the lane).
    /// `0` disables recovery: detection still runs, failures surface
    /// immediately.
    pub max_retries: u32,
    /// Intermediate-certificate thoroughness: `0` checks the full
    /// subgraph snake-order certificate at every stage boundary
    /// (exhaustive; the default), `d > 0` probes `d` sampled adjacent
    /// snake pairs per boundary instead (O(d) per check). The *final*
    /// certificate is always checked in full, so a successful run
    /// guarantees a snake-sorted output under either setting.
    pub recheck_depth: u32,
    /// Base delay of the capped exponential backoff before retry
    /// attempt `a` (nanoseconds; the undelayed attempt is attempt 0).
    /// `0` — the default — disables backoff entirely: retries
    /// re-execute immediately and [`RetryPolicy::backoff_ns`] is `0`
    /// for every attempt.
    pub backoff_base_ns: u64,
    /// Ceiling on any single computed delay (nanoseconds). `0` means
    /// "uncapped" (the exponential still saturates instead of
    /// overflowing).
    pub backoff_cap_ns: u64,
    /// Seed for the deterministic jitter: the same
    /// `(seed, attempt)` pair always yields the same delay, so a
    /// replayed run waits out the identical schedule and tests can
    /// assert delays exactly.
    pub backoff_jitter_seed: u64,
}

impl Default for RetryPolicy {
    /// Three retries per segment, exhaustive intermediate certificates,
    /// no backoff (immediate re-execution).
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            recheck_depth: 0,
            backoff_base_ns: 0,
            backoff_cap_ns: 0,
            backoff_jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// Detection without recovery: certificates are checked (in full)
    /// but a failure surfaces immediately instead of retrying. The
    /// configuration exhaustive fault sweeps use to ask "was this
    /// fault detected?".
    #[must_use]
    pub fn detect_only() -> Self {
        RetryPolicy {
            max_retries: 0,
            recheck_depth: 0,
            ..RetryPolicy::default()
        }
    }

    /// This policy with capped-exponential backoff enabled: attempt `a`
    /// (1-based) is delayed by roughly `base · 2^(a-1)`, never more
    /// than `cap`, with deterministic jitter drawn from `jitter_seed`.
    #[must_use]
    pub fn with_backoff(self, base_ns: u64, cap_ns: u64, jitter_seed: u64) -> Self {
        RetryPolicy {
            backoff_base_ns: base_ns,
            backoff_cap_ns: cap_ns,
            backoff_jitter_seed: jitter_seed,
            ..self
        }
    }

    /// The delay before retry `attempt` (1-based; attempt 0 is the
    /// initial, undelayed execution), in nanoseconds.
    ///
    /// Equal-jitter capped exponential: the raw delay doubles per
    /// attempt from `backoff_base_ns`, saturates at `backoff_cap_ns`
    /// (or at `u64::MAX` when the cap is 0), and the returned value is
    /// `raw/2 + jitter` with `jitter` drawn deterministically from
    /// `[0, raw/2]` by hashing `(backoff_jitter_seed, attempt)` only, so
    /// a replay waits the exact same schedule. The hash sees no lane:
    /// retriers sharing one policy (every lane of a service) draw the
    /// same delay for the same attempt, and only policies with
    /// different seeds spread out. Always `0` when backoff is disabled
    /// (`backoff_base_ns == 0`) or for `attempt == 0`.
    #[must_use]
    pub fn backoff_ns(&self, attempt: u32) -> u64 {
        if self.backoff_base_ns == 0 || attempt == 0 {
            return 0;
        }
        let cap = if self.backoff_cap_ns == 0 {
            u64::MAX
        } else {
            self.backoff_cap_ns
        };
        // base · 2^(attempt-1), saturating well before the shift wraps.
        let shift = (attempt - 1).min(63);
        let raw = self
            .backoff_base_ns
            .checked_shl(shift)
            .filter(|&v| v >> shift == self.backoff_base_ns)
            .unwrap_or(u64::MAX)
            .min(cap);
        let half = raw / 2;
        let jitter = splitmix(self.backoff_jitter_seed ^ u64::from(attempt)) % (half + 1);
        half.saturating_add(jitter).min(cap)
    }
}

/// SplitMix64 finalizer: full-avalanche hash for the jitter draw.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_retries_with_full_certificates() {
        let p = RetryPolicy::default();
        assert_eq!(p.max_retries, 3);
        assert_eq!(p.recheck_depth, 0);
        assert_eq!(p.backoff_base_ns, 0);
        assert_eq!(p.backoff_cap_ns, 0);
    }

    #[test]
    fn detect_only_never_retries() {
        assert_eq!(RetryPolicy::detect_only().max_retries, 0);
    }

    #[test]
    fn policies_serialize_roundtrip() {
        let p = RetryPolicy {
            max_retries: 7,
            recheck_depth: 16,
            ..RetryPolicy::default()
        }
        .with_backoff(1_000, 64_000, 42);
        let json = serde_json::to_string(&p).expect("serialize");
        let back: RetryPolicy = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, p);
    }

    #[test]
    fn disabled_backoff_is_always_zero() {
        let p = RetryPolicy::default();
        for attempt in 0..40 {
            assert_eq!(p.backoff_ns(attempt), 0);
        }
    }

    #[test]
    fn backoff_grows_exponentially_within_the_jitter_band() {
        let p = RetryPolicy::default().with_backoff(1_000, 0, 7);
        assert_eq!(p.backoff_ns(0), 0, "attempt 0 is the initial run");
        for attempt in 1..10u32 {
            let raw = 1_000u64 << (attempt - 1);
            let d = p.backoff_ns(attempt);
            assert!(
                (raw / 2..=raw).contains(&d),
                "attempt {attempt}: delay {d} outside [{}, {raw}]",
                raw / 2
            );
        }
    }

    #[test]
    fn backoff_is_deterministic_and_seed_dependent() {
        let a = RetryPolicy::default().with_backoff(10_000, 1_000_000, 1);
        let b = RetryPolicy::default().with_backoff(10_000, 1_000_000, 2);
        let series = |p: &RetryPolicy| (1..12u32).map(|n| p.backoff_ns(n)).collect::<Vec<_>>();
        assert_eq!(series(&a), series(&a), "same seed, same schedule");
        assert_ne!(series(&a), series(&b), "different seed jitters differently");
    }

    #[test]
    fn backoff_respects_the_cap_and_never_overflows() {
        let p = RetryPolicy::default().with_backoff(1_000, 8_000, 3);
        for attempt in 1..200u32 {
            assert!(p.backoff_ns(attempt) <= 8_000, "attempt {attempt}");
        }
        // Uncapped: the exponential saturates instead of wrapping.
        let huge = RetryPolicy::default().with_backoff(u64::MAX / 2, 0, 0);
        assert!(huge.backoff_ns(64) >= u64::MAX / 4);
    }
}

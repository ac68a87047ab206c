//! Fault-injecting kernel execution with round-level checkpoint/retry.
//!
//! [`BspMachine::run_kernel_with_faults`] runs a lowered
//! [`KernelProgram`] under a [`FaultPlan`]: every operation site may
//! suffer a *transient* fault (each site fires at most once per run),
//! and the executor defends itself with the program's stage
//! certificates:
//!
//! 1. **Injection** — [`FaultPlan::decide`] is consulted per site; a
//!    fired site perturbs the op's semantics ([`FaultKind::FlipCompare`]
//!    inverts the comparison direction, [`FaultKind::DropRoute`]
//!    delivers a stale clone of the *receiver's* resident key instead of
//!    the payload, [`FaultKind::StallResolve`] discards the arrived
//!    value and keeps the resident key). All three preserve the
//!    transit-slot occupancy schedule, so the machine-model discipline
//!    validated by `try_validate` still holds and transit is empty at
//!    every certificate boundary.
//! 2. **Detection** — at each [`CertPoint`] the executor checks the
//!    stage invariant (every `dims`-dimensional subgraph over the low
//!    dimensions snake-sorted): in full via
//!    [`crate::verify::subgraphs_snake_sorted`] when
//!    [`RetryPolicy::recheck_depth`] is 0, or by `recheck_depth` sampled
//!    adjacent-pair probes otherwise. The **final** certificate is
//!    always checked in full. Segments that contain route rounds also
//!    check that they preserved the multiset of keys: compare-exchanges,
//!    flipped or not, only swap keys, but a dropped route or a stalled
//!    resolve copies one key over another, and the copy can land in
//!    sorted position where no order check sees it. Together the two
//!    certificates make an `Ok` return exact: the output is snake-sorted
//!    and a permutation of the input, so it equals the clean run's.
//! 3. **Recovery** — the key vector is checkpointed at each segment
//!    boundary (transit is provably empty there, so keys are the whole
//!    state); a failed check restores the checkpoint and re-runs the
//!    segment, up to [`RetryPolicy::max_retries`] times. Because faults
//!    are transient and already-fired sites are tracked globally, a
//!    retried segment executes clean — the analogue of repairing a
//!    faulty link between synchronous phases of a periodic network.
//!
//! The batch ladder on top of one run — whole-run retries under
//! re-forked plans, then quarantine — is [`crate::batch`].
//!
//! When the plan is disabled, execution takes a fast path identical to
//! [`BspMachine::run_kernel`]: no decision hashing, no checkpoints, no
//! certificate checks (fault-free execution of a validated program is
//! correct by construction), which keeps the disabled-injection
//! overhead within noise.

use std::collections::HashSet;

use pns_fault::detect::sampled_subgraph_certificate;
use pns_fault::{FaultKind, FaultPlan, FaultSite, OpClass, RetryPolicy};
use pns_obs::{Event, SpanClass, Stage, Tier};
use pns_order::radix::Shape;

use crate::bsp::{BspMachine, CertPoint, Op};
use crate::kernel::{exec_kernel, ExecScratch, KernelProgram, RoundClass};
use crate::verify::subgraphs_snake_sorted;
use pns_core::RetryCounters;

/// Why a fault-tolerant run could not produce a sorted vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultError {
    /// The key vector does not have one key per node.
    WrongKeyCount {
        /// Keys the machine's shape requires.
        expected: u64,
        /// Keys actually supplied.
        got: usize,
    },
    /// A segment's certificate still failed after the last permitted
    /// retry. The key vector is left in the (corrupted) state of the
    /// final attempt; the batch ladder ([`crate::batch`]) retries or
    /// quarantines the lane instead of surfacing this.
    RetryExhausted {
        /// Boundary round of the segment that could not be repaired.
        round: u64,
        /// Attempts executed (initial run plus retries).
        attempts: u32,
    },
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::WrongKeyCount { expected, got } => {
                write!(f, "expected {expected} keys (one per node), got {got}")
            }
            FaultError::RetryExhausted { round, attempts } => write!(
                f,
                "certificate at round {round} still failing after {attempts} attempts"
            ),
        }
    }
}

impl std::error::Error for FaultError {}

/// One fault that actually fired during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// Where it fired.
    pub site: FaultSite,
    /// What fired.
    pub kind: FaultKind,
}

/// One failed certificate check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Detection {
    /// Boundary round the certificate guards.
    pub round: u64,
    /// Subgraph dimensionality the certificate checked.
    pub dims: u32,
    /// Whether the failing check was a sampled probe rather than the
    /// full certificate.
    pub sampled: bool,
}

/// One checkpoint restore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retry {
    /// Round the re-execution restarts from (the checkpoint).
    pub round: u64,
    /// Attempt number for the segment (1-based).
    pub attempt: u32,
}

/// What happened during a fault-tolerant run. Returned by
/// [`BspMachine::run_kernel_with_faults`] on success; the batch
/// dispatcher ([`crate::batch::run`]) returns one per lane, summed over
/// the lane's whole-run attempts.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultReport {
    /// Total rounds executed, useful and wasted
    /// (= `counters.total_rounds()`).
    pub rounds: u64,
    /// Whole-program executions: 1 for a single run; the batch ladder
    /// counts each whole-run retry and the quarantine run.
    pub attempts: u32,
    /// Every fault that fired, in execution order.
    pub injected: Vec<InjectedFault>,
    /// Every failed certificate check, in execution order.
    pub detections: Vec<Detection>,
    /// Every checkpoint restore, in execution order.
    pub retries: Vec<Retry>,
    /// Whether the lane fell back to a clean re-run (batch ladder
    /// only; always `false` for single runs).
    pub quarantined: bool,
    /// Useful/wasted round accounting for step-inflation reporting.
    pub counters: RetryCounters,
}

/// A program segment between certificate boundaries.
struct Segment {
    /// First round (inclusive).
    start: usize,
    /// One past the last round.
    end: usize,
    /// The certificate closing the segment: `(boundary round, dims,
    /// is_final)`. `None` for an uncertified tail (hand-built programs
    /// whose cert points do not reach the end).
    check: Option<(u64, u32, bool)>,
}

/// Split a program into checkpointable segments at its certificate
/// boundaries. Programs without certificates (e.g. built via
/// `CompiledProgram::from_rounds`) become a single unchecked segment —
/// the executor then runs open-loop and cannot detect anything.
fn segments(certs: &[CertPoint], rounds: usize) -> Vec<Segment> {
    let mut out = Vec::with_capacity(certs.len() + 1);
    let mut start = 0usize;
    for (i, c) in certs.iter().enumerate() {
        out.push(Segment {
            start,
            end: c.round as usize,
            check: Some((c.round, c.dims, i == certs.len() - 1)),
        });
        start = c.round as usize;
    }
    if start < rounds || certs.is_empty() {
        out.push(Segment {
            start,
            end: rounds,
            check: None,
        });
    }
    out
}

/// Fault-decision state threaded through the round executor: the plan
/// plus the per-run fired set and injection log.
struct FaultCtx<'a> {
    plan: &'a FaultPlan,
    fired: &'a mut HashSet<FaultSite>,
    injected: &'a mut Vec<InjectedFault>,
}

impl FaultCtx<'_> {
    /// Decide whether the site `(round_idx, oi)` fires under the plan,
    /// honouring the transient model (a site that already fired never
    /// fires again, so retried segments execute clean) and recording
    /// what fired. Keyed purely by `(round, op)` indices, which lowering
    /// preserves, so a plan names the same sites in the source program.
    fn decide(&mut self, round_idx: u64, oi: usize, class: OpClass) -> Option<FaultKind> {
        let site = FaultSite {
            round: round_idx,
            op: oi as u64,
        };
        let fault = if self.fired.contains(&site) {
            None
        } else {
            self.plan.decide(site, class)
        };
        if let Some(kind) = fault {
            self.fired.insert(site);
            self.injected.push(InjectedFault { site, kind });
        }
        fault
    }
}

/// Apply one op under an (optional) fired fault. Semantics match
/// [`BspMachine::run`] except at fired sites; the transit occupancy
/// schedule is identical either way.
fn apply_op_faulty<K: Ord + Clone>(
    op: &Op,
    fault: Option<FaultKind>,
    keys: &mut [K],
    transit: &mut [[Option<K>; 2]],
    incoming: &mut Vec<(usize, usize, K)>,
) {
    match *op {
        Op::CompareExchange { a, b, min_to_a } => {
            let min_to_a = if fault.is_some() { !min_to_a } else { min_to_a };
            let (ai, bi) = (a as usize, b as usize);
            let a_has_min = keys[ai] <= keys[bi];
            if a_has_min != min_to_a {
                keys.swap(ai, bi);
            }
        }
        Op::Move {
            from,
            to,
            slot,
            from_key,
        } => {
            let (fi, si) = (from as usize, slot as usize);
            // The source slot is consumed even when the payload is
            // dropped — the wire fired, the message was lost.
            let payload = if from_key {
                keys[fi].clone()
            } else {
                transit[fi][si].take().expect("validated: slot occupied")
            };
            let payload = if fault.is_some() {
                // Dropped in flight: the receiver's slot latches a
                // stale copy of its own resident key.
                keys[to as usize].clone()
            } else {
                payload
            };
            incoming.push((to as usize, si, payload));
        }
        Op::Resolve {
            node,
            slot,
            keep_min,
        } => {
            let (ni, si) = (node as usize, slot as usize);
            let arrived = transit[ni][si].take().expect("validated: slot occupied");
            if fault.is_none() {
                let resident = &mut keys[ni];
                let keep_arrived = if keep_min {
                    arrived < *resident
                } else {
                    arrived > *resident
                };
                if keep_arrived {
                    *resident = arrived;
                }
            }
            // Stalled: the arrived value is discarded, the resident
            // key survives; the slot is still cleared on schedule.
        }
    }
}

/// Execute one lowered round with fault injection. Micro-ops decode
/// back to the exact source [`Op`]s in original order (lowering is
/// order-preserving), so the op index — and with it every
/// [`FaultSite`] decision — names the op of the source program.
fn exec_kernel_round_faulty<K: Ord + Clone>(
    keys: &mut [K],
    transit: &mut [[Option<K>; 2]],
    incoming: &mut Vec<(usize, usize, K)>,
    kernel: &KernelProgram,
    ri: usize,
    ctx: &mut FaultCtx<'_>,
) {
    incoming.clear();
    let desc = kernel.rounds[ri];
    let round_idx = ri as u64;
    match desc.class {
        RoundClass::Empty => {}
        RoundClass::Compare => {
            for (oi, gi) in (desc.start as usize..desc.end as usize).enumerate() {
                let (a, b) = kernel.cx_pairs[gi];
                let op = Op::CompareExchange {
                    a: u64::from(a),
                    b: u64::from(b),
                    min_to_a: kernel.dir(gi),
                };
                let fault = ctx.decide(round_idx, oi, OpClass::Compare);
                apply_op_faulty(&op, fault, keys, transit, incoming);
            }
        }
        RoundClass::Route => {
            for (oi, m) in kernel.micro[desc.start as usize..desc.end as usize]
                .iter()
                .enumerate()
            {
                let op = m.to_op();
                let class = match op {
                    Op::CompareExchange { .. } => OpClass::Compare,
                    Op::Move { .. } => OpClass::Route,
                    Op::Resolve { .. } => OpClass::Resolve,
                };
                let fault = ctx.decide(round_idx, oi, class);
                apply_op_faulty(&op, fault, keys, transit, incoming);
            }
        }
    }
    for (to, slot, payload) in incoming.drain(..) {
        transit[to][slot] = Some(payload);
    }
}

/// `keys` sorted, the reference of the multiset certificate.
fn sorted_copy<K: Ord + Clone>(keys: &[K]) -> Vec<K> {
    let mut sorted = keys.to_vec();
    sorted.sort_unstable();
    sorted
}

/// One run of `kernel` under `plan`: segments, checkpoints, certificate
/// checks and retries. `scratch` serves the disabled-plan fast path
/// (identical to [`BspMachine::run_kernel`], zero allocations when
/// warm); the enabled path allocates its own checkpoints. Returns the
/// report plus `Some((boundary, attempts))` if a segment exhausted its
/// retries.
fn exec_kernel_with_faults<K: Ord + Clone>(
    shape: Shape,
    keys: &mut [K],
    kernel: &KernelProgram,
    plan: &FaultPlan,
    policy: &RetryPolicy,
    scratch: &mut ExecScratch<K>,
) -> (FaultReport, Option<(u64, u32)>) {
    let mut report = FaultReport {
        attempts: 1,
        ..FaultReport::default()
    };
    if !plan.is_enabled() {
        // Fast path: plain kernel execution, no hashing, no checks.
        exec_kernel(keys, kernel, scratch);
        report.counters.useful_rounds = kernel.rounds() as u64;
        report.rounds = kernel.rounds() as u64;
        return (report, None);
    }
    let mut fired: HashSet<FaultSite> = HashSet::new();
    let mut transit: Vec<[Option<K>; 2]> = vec![[None, None]; keys.len()];
    let mut incoming: Vec<(usize, usize, K)> = Vec::new();
    for seg in segments(kernel.cert_points(), kernel.rounds()) {
        // Transit is empty at segment boundaries (relays complete within
        // a stage), so the key vector is the entire checkpoint.
        let checkpoint: Option<Vec<K>> =
            (policy.max_retries > 0 && seg.check.is_some()).then(|| keys.to_vec());
        // Only route rounds can break the multiset; a restore brings
        // back the same multiset, so one reference serves every attempt.
        let multiset: Option<Vec<K>> = (seg.check.is_some()
            && (seg.start..seg.end).any(|ri| kernel.class(ri) == RoundClass::Route))
        .then(|| sorted_copy(keys));
        let seg_rounds = (seg.end - seg.start) as u64;
        let mut attempt: u32 = 0;
        loop {
            for ri in seg.start..seg.end {
                let mut ctx = FaultCtx {
                    plan,
                    fired: &mut fired,
                    injected: &mut report.injected,
                };
                exec_kernel_round_faulty(keys, &mut transit, &mut incoming, kernel, ri, &mut ctx);
            }
            debug_assert!(
                transit.iter().all(|t| t[0].is_none() && t[1].is_none()),
                "transit must drain at certificate boundaries"
            );
            // Checks produce the failing certificate directly (rather
            // than a bool re-paired with `seg.check` afterwards), so the
            // failure path cannot be reached without one — no panic path.
            let failed_check = seg.check.and_then(|(boundary, dims, is_final)| {
                // The final certificate is always checked in full.
                let sampled = !is_final && policy.recheck_depth > 0;
                let ordered = if sampled {
                    sampled_subgraph_certificate(
                        shape,
                        keys,
                        dims as usize,
                        policy.recheck_depth,
                        plan.probe_seed(boundary, u64::from(attempt)),
                    )
                } else {
                    subgraphs_snake_sorted(shape, keys, dims as usize)
                };
                let permuted = ordered
                    && multiset
                        .as_deref()
                        .is_none_or(|want| sorted_copy(keys) == want);
                (!permuted).then_some(Detection {
                    round: boundary,
                    dims,
                    sampled: sampled && !ordered,
                })
            });
            let Some(detection) = failed_check else {
                report.counters.useful_rounds += seg_rounds;
                break;
            };
            report.detections.push(detection);
            report.counters.detections += 1;
            report.counters.wasted_rounds += seg_rounds;
            // Retrying requires the checkpoint taken at the segment
            // boundary; it exists whenever max_retries > 0 and the
            // segment is certified (= this branch). Degrade to
            // retry-exhausted rather than panic if that ever breaks.
            let retryable = checkpoint
                .as_deref()
                .filter(|_| attempt < policy.max_retries);
            let Some(restore) = retryable else {
                report.rounds = report.counters.total_rounds();
                return (report, Some((detection.round, attempt + 1)));
            };
            attempt += 1;
            // Capped-exponential backoff before the re-execution —
            // zero (no syscall at all) unless the policy enables it.
            let delay_ns = policy.backoff_ns(attempt);
            if delay_ns > 0 {
                std::thread::sleep(std::time::Duration::from_nanos(delay_ns));
            }
            keys.clone_from_slice(restore);
            report.retries.push(Retry {
                round: seg.start as u64,
                attempt,
            });
            report.counters.retries += 1;
        }
    }
    report.rounds = report.counters.total_rounds();
    (report, None)
}

impl BspMachine {
    /// Emit the observability events a finished run accumulated.
    fn emit_fault_events(&self, report: &FaultReport) {
        for f in &report.injected {
            self.logger.log(|| Event::FaultInjected {
                round: f.site.round,
                op: f.site.op,
                kind: f.kind.code(),
            });
        }
        for d in &report.detections {
            self.logger.log(|| Event::FaultDetected {
                round: d.round,
                stage: u64::from(d.dims),
                sampled: d.sampled,
            });
        }
        for r in &report.retries {
            self.logger.log(|| Event::RetryRound {
                round: r.round,
                attempt: u64::from(r.attempt),
            });
        }
    }

    /// One traced fault run on keys already checked to be one per node:
    /// the report, plus the error if a segment exhausted its retries.
    /// The batch ladder keeps the report of a failed attempt for its
    /// accounting, which [`BspMachine::run_kernel_with_faults`] drops.
    pub(crate) fn fault_attempt<K: Ord + Clone>(
        &self,
        keys: &mut [K],
        kernel: &KernelProgram,
        plan: &FaultPlan,
        policy: &RetryPolicy,
        scratch: &mut ExecScratch<K>,
    ) -> (FaultReport, Option<FaultError>) {
        let _sort_span = self.logger.span(Tier::Fault, Stage::Sort, SpanClass::None);
        let (report, failed) =
            exec_kernel_with_faults(self.shape(), keys, kernel, plan, policy, scratch);
        self.emit_fault_events(&report);
        let error = failed.map(|(round, attempts)| FaultError::RetryExhausted { round, attempts });
        (report, error)
    }

    /// Execute a lowered program on `keys` under `plan`, detecting
    /// corruption at the program's certificate boundaries and retrying
    /// failed segments from checkpoints per `policy`. Fault sites are
    /// keyed by `(round, op)` indices, which lowering preserves, so a
    /// plan names the same sites in the source program.
    ///
    /// On `Ok`, every certificate passed: `keys` equals the output of a
    /// clean [`BspMachine::run`]. On [`FaultError::RetryExhausted`],
    /// `keys` holds the corrupted state of the last attempt (callers
    /// wanting a sorted result anyway should re-run clean — the batch
    /// ladder in [`crate::batch`] does this).
    ///
    /// The kernel is already validated (lowering validates), so the only
    /// input check left is the key count. With a disabled plan this is
    /// [`BspMachine::run_kernel`] plus report assembly — zero heap
    /// allocations once `scratch` is warm.
    ///
    /// # Errors
    ///
    /// [`FaultError::WrongKeyCount`] if `keys` is not one per node,
    /// [`FaultError::RetryExhausted`] as above.
    ///
    /// # Panics
    ///
    /// Panics if the kernel was lowered for another shape.
    pub fn run_kernel_with_faults<K: Ord + Clone>(
        &self,
        keys: &mut [K],
        kernel: &KernelProgram,
        plan: &FaultPlan,
        policy: &RetryPolicy,
        scratch: &mut ExecScratch<K>,
    ) -> Result<FaultReport, FaultError> {
        assert_eq!(
            kernel.shape(),
            self.shape(),
            "kernel lowered for another shape"
        );
        if keys.len() as u64 != self.shape().len() {
            return Err(FaultError::WrongKeyCount {
                expected: self.shape().len(),
                got: keys.len(),
            });
        }
        match self.fault_attempt(keys, kernel, plan, policy, scratch) {
            (report, None) => Ok(report),
            (_, Some(error)) => Err(error),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bsp::compile;
    use crate::sorters::OetSnakeSorter;
    use pns_graph::factories;

    fn lcg_keys(len: u64, seed: u64) -> Vec<u64> {
        let mut x = seed
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493);
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                x >> 16
            })
            .collect()
    }

    /// A machine over `factor^r`, the compiled program, and its kernel.
    fn setup_on(
        factor: &pns_graph::Graph,
        r: usize,
    ) -> (BspMachine, crate::CompiledProgram, KernelProgram) {
        let program = compile(factor, r, &OetSnakeSorter);
        let machine = BspMachine::new(factor, r);
        let kernel = machine.lower(&program).expect("compiled programs validate");
        (machine, program, kernel)
    }

    fn setup(r: usize) -> (BspMachine, crate::CompiledProgram, KernelProgram) {
        setup_on(&factories::path(3), r)
    }

    /// The clean interpreter's output: what every `Ok` must equal.
    fn clean(machine: &BspMachine, program: &crate::CompiledProgram, keys: &[u64]) -> Vec<u64> {
        let mut out = keys.to_vec();
        machine.run(&mut out, program);
        out
    }

    #[test]
    fn disabled_plan_matches_plain_run_exactly() {
        let (machine, program, kernel) = setup(3);
        let plan = FaultPlan::disabled();
        let policy = RetryPolicy::default();
        let mut scratch = ExecScratch::new();
        for seed in [1u64, 7, 99] {
            let keys = lcg_keys(machine.shape().len(), seed);
            let mut faulty = keys.clone();
            let report = machine
                .run_kernel_with_faults(&mut faulty, &kernel, &plan, &policy, &mut scratch)
                .expect("disabled plan cannot fail");
            assert_eq!(clean(&machine, &program, &keys), faulty);
            assert_eq!(report.rounds as usize, program.rounds());
            assert_eq!(report.attempts, 1);
            assert!(report.injected.is_empty());
            assert!(report.detections.is_empty());
            assert!(report.retries.is_empty());
            assert_eq!(report.counters.useful_rounds as usize, program.rounds());
            assert_eq!(report.counters.wasted_rounds, 0);
        }
    }

    #[test]
    fn wrong_key_count_is_a_typed_error() {
        let (machine, _, kernel) = setup(2);
        let mut keys = vec![1u64; 3];
        let err = machine
            .run_kernel_with_faults(
                &mut keys,
                &kernel,
                &FaultPlan::disabled(),
                &RetryPolicy::default(),
                &mut ExecScratch::new(),
            )
            .unwrap_err();
        assert_eq!(
            err,
            FaultError::WrongKeyCount {
                expected: machine.shape().len(),
                got: 3
            }
        );
    }

    #[test]
    fn injected_faults_are_detected_and_repaired() {
        let (machine, program, kernel) = setup(3);
        let policy = RetryPolicy::default();
        let mut scratch = ExecScratch::new();
        let mut repaired = 0u32;
        for seed in 0..40u64 {
            let plan = FaultPlan::random(seed, 2_000); // 0.2% of sites
            let input = lcg_keys(machine.shape().len(), seed + 1);
            let mut keys = input.clone();
            let report = machine
                .run_kernel_with_faults(&mut keys, &kernel, &plan, &policy, &mut scratch)
                .expect("default policy repairs sparse transients");
            assert_eq!(
                keys,
                clean(&machine, &program, &input),
                "seed {seed}: Ok must equal the clean run"
            );
            assert_eq!(report.rounds, report.counters.total_rounds());
            if !report.injected.is_empty() {
                repaired += 1;
            }
            // Accounting: every retry re-ran a whole segment.
            assert_eq!(report.counters.retries, report.retries.len() as u64);
            assert_eq!(report.counters.detections, report.detections.len() as u64);
        }
        assert!(
            repaired > 0,
            "rate 2000/M over 40 seeds must fire somewhere"
        );
    }

    #[test]
    fn single_flip_is_harmless_or_detected_by_certificates() {
        // detect_only: no retries, so a detected fault surfaces as
        // RetryExhausted; an undetected one must be harmless.
        let (machine, program, kernel) = setup(2);
        let policy = RetryPolicy::detect_only();
        let keys = lcg_keys(machine.shape().len(), 11);
        let want = clean(&machine, &program, &keys);
        let mut scratch = ExecScratch::new();
        for (ri, round) in program.round_ops().iter().enumerate() {
            for (oi, op) in round.iter().enumerate() {
                if !matches!(op, Op::CompareExchange { .. }) {
                    continue;
                }
                let site = FaultSite {
                    round: ri as u64,
                    op: oi as u64,
                };
                let plan = FaultPlan::single(FaultKind::FlipCompare, site);
                let mut k = keys.clone();
                match machine.run_kernel_with_faults(&mut k, &kernel, &plan, &policy, &mut scratch)
                {
                    Ok(_) => assert_eq!(k, want, "undetected flip at {site:?} must be harmless"),
                    Err(FaultError::RetryExhausted { .. }) => {}
                    Err(other) => panic!("unexpected error at {site:?}: {other}"),
                }
            }
        }
    }

    #[test]
    fn a_dropped_route_that_duplicates_a_key_is_detected() {
        // star(4)^2 relays every row exchange through the hub. Dropping
        // the first move of round 1 latches a stale copy of the
        // receiver's key, so one key appears twice and another is
        // gone; the duplicate lands in sorted position, where the snake
        // certificate alone cannot see it. The multiset certificate
        // must catch it, and the default policy must then repair it.
        let (machine, program, kernel) = setup_on(&factories::star(4), 2);
        let keys: Vec<u64> = (0..16).rev().collect();
        let want = clean(&machine, &program, &keys);
        let plan = FaultPlan::single(FaultKind::DropRoute, FaultSite { round: 1, op: 0 });
        let mut scratch = ExecScratch::new();

        let mut detected = keys.clone();
        let err = machine
            .run_kernel_with_faults(
                &mut detected,
                &kernel,
                &plan,
                &RetryPolicy::detect_only(),
                &mut scratch,
            )
            .expect_err("the lost key must not go unnoticed");
        assert!(matches!(err, FaultError::RetryExhausted { .. }));

        let mut repaired = keys;
        let report = machine
            .run_kernel_with_faults(
                &mut repaired,
                &kernel,
                &plan,
                &RetryPolicy::default(),
                &mut scratch,
            )
            .expect("one transient is repaired");
        assert_eq!(report.injected.len(), 1);
        assert!(!report.detections.is_empty());
        assert_eq!(repaired, want, "Ok must equal the clean run");
    }

    #[test]
    fn sampled_rechecks_still_end_sorted() {
        let (machine, program, kernel) = setup(3);
        let policy = RetryPolicy {
            max_retries: 5,
            recheck_depth: 4,
            ..RetryPolicy::default()
        };
        let mut scratch = ExecScratch::new();
        for seed in 0..20u64 {
            let plan = FaultPlan::random(seed, 3_000);
            let input = lcg_keys(machine.shape().len(), seed * 3 + 2);
            let mut keys = input.clone();
            // A sampled intermediate check may miss corruption, but the
            // final full check catches it, and the last segment's
            // checkpoint restores enough to repair (the fault already
            // fired, so the retry is clean).
            if machine
                .run_kernel_with_faults(&mut keys, &kernel, &plan, &policy, &mut scratch)
                .is_ok()
            {
                assert_eq!(keys, clean(&machine, &program, &input), "seed {seed}");
            }
        }
    }
}

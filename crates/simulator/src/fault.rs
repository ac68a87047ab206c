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
//! 2. **Detection** — at each [`CertPoint`](crate::bsp::CertPoint) the
//!    executor checks the stage invariant (every `dims`-dimensional
//!    subgraph over the low dimensions snake-sorted): in full via
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
//!    A policy with backoff ([`RetryPolicy::backoff_ns`]) delays each
//!    re-execution: the lane *parks* until its due time instead of
//!    sleeping, so the batch dispatcher runs other lanes meanwhile.
//!
//! One executor serves a single run and every lane of a batch: a
//! lane's run is a resumable state machine (`FaultLane`) that computes
//! until it finishes or parks. [`BspMachine::run_kernel_with_faults`]
//! drives one lane and sleeps while it is parked; the batch ladder on
//! top — whole-run retries under re-forked plans, then quarantine — is
//! [`crate::batch`], whose dispatcher interleaves the lanes.
//!
//! When the plan is disabled, execution takes a fast path identical to
//! [`BspMachine::run_kernel`]: no decision hashing, no checkpoints, no
//! certificate checks (fault-free execution of a validated program is
//! correct by construction), which keeps the disabled-injection
//! overhead within noise.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use pns_fault::detect::sampled_subgraph_certificate;
use pns_fault::{FaultKind, FaultPlan, FaultSite, OpClass, RetryPolicy};
use pns_obs::{Event, SpanClass, Stage, Tier};

use crate::batch::Ladder;
use crate::bsp::{BspMachine, Op};
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
    /// Whether the segment holds a route round, the only kind that can
    /// break the multiset of keys.
    routes: bool,
}

/// Split a program into checkpointable segments at its certificate
/// boundaries. Programs without certificates (e.g. built via
/// `CompiledProgram::from_rounds`) become a single unchecked segment —
/// the executor then runs open-loop and cannot detect anything.
fn segments(kernel: &KernelProgram) -> Vec<Segment> {
    let (certs, rounds) = (kernel.cert_points(), kernel.rounds());
    let segment = |start: usize, end: usize, check| Segment {
        start,
        end,
        check,
        routes: (start..end).any(|ri| kernel.class(ri) == RoundClass::Route),
    };
    let mut out = Vec::with_capacity(certs.len() + 1);
    let mut start = 0usize;
    for (i, c) in certs.iter().enumerate() {
        let end = c.round as usize;
        out.push(segment(
            start,
            end,
            Some((c.round, c.dims, i == certs.len() - 1)),
        ));
        start = end;
    }
    if start < rounds || certs.is_empty() {
        out.push(segment(start, rounds, None));
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
    incoming: &mut Vec<(u32, u8, K)>,
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
            let fi = from as usize;
            // The source slot is consumed even when the payload is
            // dropped — the wire fired, the message was lost.
            let payload = if from_key {
                keys[fi].clone()
            } else {
                transit[fi][usize::from(slot)]
                    .take()
                    .expect("validated: slot occupied")
            };
            let payload = if fault.is_some() {
                // Dropped in flight: the receiver's slot latches a
                // stale copy of its own resident key.
                keys[to as usize].clone()
            } else {
                payload
            };
            // Lowering checked that node ids fit the kernel's u32s.
            incoming.push((to as u32, slot, payload));
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
    scratch: &mut ExecScratch<K>,
    kernel: &KernelProgram,
    ri: usize,
    ctx: &mut FaultCtx<'_>,
) {
    let ExecScratch { transit, incoming } = scratch;
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
        transit[to as usize][usize::from(slot)] = Some(payload);
    }
}

/// `keys` sorted, the reference of the multiset certificate.
fn sorted_copy<K: Ord + Clone>(keys: &[K]) -> Vec<K> {
    let mut sorted = keys.to_vec();
    sorted.sort_unstable();
    sorted
}

/// Nanoseconds since `epoch`: the clock [`Step::Parked`] due times are
/// on when a driver runs lanes in real time.
pub(crate) fn since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// What every lane of one fault run shares: the machine, its lowered
/// program cut into certified segments, and the retry policy.
pub(crate) struct FaultJob<'a> {
    bsp: &'a BspMachine,
    kernel: &'a KernelProgram,
    segments: Vec<Segment>,
    policy: RetryPolicy,
}

impl<'a> FaultJob<'a> {
    /// The shared part of running `kernel` on `bsp` under `policy`.
    pub(crate) fn new(bsp: &'a BspMachine, kernel: &'a KernelProgram, policy: RetryPolicy) -> Self {
        FaultJob {
            bsp,
            kernel,
            segments: segments(kernel),
            policy,
        }
    }
}

/// Where a lane stands after [`FaultLane::step`].
#[derive(Debug)]
pub(crate) enum Step {
    /// Waiting out a retry backoff: the lane must not run again before
    /// `until`, on the clock `step` was given.
    Parked {
        /// Earliest time the lane may run again.
        until: u64,
    },
    /// Finished: the report summed over every attempt, or why the lane
    /// failed.
    Done(Result<FaultReport, FaultError>),
}

/// How one compute slice of a whole run ended.
enum Slice {
    /// Every segment passed its certificate.
    Passed,
    /// A segment failed its last permitted attempt.
    Exhausted { round: u64, attempts: u32 },
    /// A segment failed and its checkpoint is restored; the
    /// re-execution must wait this many nanoseconds.
    Backoff(u64),
}

/// How far into a run's report the events are already emitted.
#[derive(Clone, Copy)]
struct Emitted {
    injected: usize,
    detections: usize,
    retries: usize,
}

impl Emitted {
    fn of(report: &FaultReport) -> Self {
        Emitted {
            injected: report.injected.len(),
            detections: report.detections.len(),
            retries: report.retries.len(),
        }
    }
}

/// One whole run in progress: the segment being executed, its attempt,
/// checkpoint and multiset reference, the sites that already fired,
/// and the run's report so far. Transit needs no place here: slices
/// start and end at segment boundaries, where it is empty.
struct RunState<K> {
    plan: FaultPlan,
    seg: usize,
    attempt: u32,
    /// Keys at the segment boundary; `None` when the segment cannot be
    /// retried (no certificate, or a policy without retries).
    checkpoint: Option<Vec<K>>,
    /// The segment's multiset reference, when it holds route rounds.
    /// A restore brings back the same multiset, so one reference
    /// serves every attempt.
    multiset: Option<Vec<K>>,
    fired: HashSet<FaultSite>,
    report: FaultReport,
}

impl<K: Ord + Clone> RunState<K> {
    /// A run of `job` under `plan`, starting from `keys`.
    fn new(job: &FaultJob<'_>, keys: &[K], plan: FaultPlan) -> Self {
        let mut run = RunState {
            plan,
            seg: 0,
            attempt: 0,
            checkpoint: None,
            multiset: None,
            fired: HashSet::new(),
            report: FaultReport {
                attempts: 1,
                ..FaultReport::default()
            },
        };
        run.enter(job, keys);
        run
    }

    /// Take the checkpoint and multiset reference of segment `self.seg`
    /// (if any is left) before its first attempt. Transit is empty at
    /// segment boundaries (relays complete within a stage), so the key
    /// vector is the entire checkpoint.
    fn enter(&mut self, job: &FaultJob<'_>, keys: &[K]) {
        let Some(seg) = job.segments.get(self.seg) else {
            return;
        };
        self.attempt = 0;
        self.checkpoint =
            (job.policy.max_retries > 0 && seg.check.is_some()).then(|| keys.to_vec());
        self.multiset = (seg.check.is_some() && seg.routes).then(|| sorted_copy(keys));
    }

    /// Execute segments until the run passes, exhausts a segment's
    /// retries, or must back off before a retry. A zero backoff never
    /// ends the slice: the retry runs at once.
    fn advance(
        &mut self,
        job: &FaultJob<'_>,
        keys: &mut [K],
        scratch: &mut ExecScratch<K>,
    ) -> Slice {
        // Slices start at segment boundaries, where transit is empty,
        // so one scratch serves every lane of a batch.
        scratch.reset(keys.len());
        let policy = &job.policy;
        while let Some(seg) = job.segments.get(self.seg) {
            let mut ctx = FaultCtx {
                plan: &self.plan,
                fired: &mut self.fired,
                injected: &mut self.report.injected,
            };
            for ri in seg.start..seg.end {
                exec_kernel_round_faulty(keys, scratch, job.kernel, ri, &mut ctx);
            }
            debug_assert!(
                scratch
                    .transit
                    .iter()
                    .all(|t| t[0].is_none() && t[1].is_none()),
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
                        job.bsp.shape(),
                        keys,
                        dims as usize,
                        policy.recheck_depth,
                        self.plan.probe_seed(boundary, u64::from(self.attempt)),
                    )
                } else {
                    subgraphs_snake_sorted(job.bsp.shape(), keys, dims as usize)
                };
                let permuted = ordered
                    && self
                        .multiset
                        .as_deref()
                        .is_none_or(|want| sorted_copy(keys) == want);
                (!permuted).then_some(Detection {
                    round: boundary,
                    dims,
                    sampled: sampled && !ordered,
                })
            });
            let seg_rounds = (seg.end - seg.start) as u64;
            let Some(detection) = failed_check else {
                self.report.counters.useful_rounds += seg_rounds;
                self.seg += 1;
                self.enter(job, keys);
                continue;
            };
            self.report.detections.push(detection);
            self.report.counters.detections += 1;
            self.report.counters.wasted_rounds += seg_rounds;
            // Retrying requires the checkpoint taken at the segment
            // boundary; it exists whenever max_retries > 0 and the
            // segment is certified (= this branch). Degrade to
            // retry-exhausted rather than panic if that ever breaks.
            let retryable = self
                .checkpoint
                .as_deref()
                .filter(|_| self.attempt < policy.max_retries);
            let Some(restore) = retryable else {
                self.report.rounds = self.report.counters.total_rounds();
                return Slice::Exhausted {
                    round: detection.round,
                    attempts: self.attempt + 1,
                };
            };
            self.attempt += 1;
            keys.clone_from_slice(restore);
            self.report.retries.push(Retry {
                round: seg.start as u64,
                attempt: self.attempt,
            });
            self.report.counters.retries += 1;
            // Capped-exponential backoff before the re-execution: the
            // lane parks and the driver runs other lanes meanwhile.
            let delay_ns = policy.backoff_ns(self.attempt);
            if delay_ns > 0 {
                return Slice::Backoff(delay_ns);
            }
        }
        self.report.rounds = self.report.counters.total_rounds();
        Slice::Passed
    }
}

/// What a batch lane has beyond a single run: the whole-run retries
/// and the quarantine rung of [`crate::batch`].
struct Rungs<K> {
    /// `plan.fork(id)`; whole run `a` runs under `base.fork(a)`.
    base: FaultPlan,
    /// Whole-run retries allowed after the first run.
    retries: u32,
    /// Whole-run attempt in progress (0: the first run).
    run: u32,
    /// The lane's input, which every whole run and the quarantine
    /// start from.
    original: Vec<K>,
    /// Names the lane in the `LaneQuarantined` event.
    id: u64,
}

/// One lane's fault run as a resumable state machine. [`FaultLane::step`]
/// computes until the lane finishes or must wait out a retry backoff,
/// and then returns [`Step::Parked`] instead of sleeping, so a driver
/// can run other lanes meanwhile. Fault decisions depend only on the
/// plan and the site, never on time, so any interleaving of lanes
/// yields the outputs and reports of running each alone.
pub(crate) struct FaultLane<K> {
    run: RunState<K>,
    /// `None` for a single run, which ends in
    /// [`FaultError::RetryExhausted`] instead of retrying whole runs.
    rungs: Option<Rungs<K>>,
    /// The finished runs' reports, summed.
    total: FaultReport,
}

impl<K: Ord + Clone> FaultLane<K> {
    /// One run of `job` under `plan`, from `keys`.
    pub(crate) fn single(job: &FaultJob<'_>, keys: &[K], plan: FaultPlan) -> Self {
        FaultLane {
            run: RunState::new(job, keys, plan),
            rungs: None,
            total: FaultReport::default(),
        }
    }

    /// Lane `id` of a batch walking `ladder` from `keys` (see
    /// [`crate::batch`]).
    pub(crate) fn ladder(job: &FaultJob<'_>, keys: &[K], ladder: &Ladder, id: u64) -> Self {
        let base = ladder.plan.fork(id);
        FaultLane {
            run: RunState::new(job, keys, base.fork(0)),
            rungs: Some(Rungs {
                base,
                retries: ladder.retries,
                run: 0,
                original: keys.to_vec(),
                id,
            }),
            total: FaultReport::default(),
        }
    }

    /// Run the lane on `keys` until it finishes or parks; `now` reads
    /// the clock a park's due time is set on. Each compute slice runs
    /// in its own `Fault`/`Sort` span and emits the fault events it
    /// produced, so spans never straddle a park. Under a zero backoff a
    /// lane never parks, and each whole run is one slice.
    pub(crate) fn step(
        &mut self,
        job: &FaultJob<'_>,
        keys: &mut [K],
        scratch: &mut ExecScratch<K>,
        now: &impl Fn() -> u64,
    ) -> Step {
        loop {
            let slice = {
                let _sort_span = job
                    .bsp
                    .logger
                    .span(Tier::Fault, Stage::Sort, SpanClass::None);
                let emitted = Emitted::of(&self.run.report);
                let slice = self.run.advance(job, keys, scratch);
                job.bsp.emit_fault_events(&self.run.report, emitted);
                slice
            };
            let delay_ns = match slice {
                Slice::Backoff(delay_ns) => delay_ns,
                Slice::Passed => {
                    fold(&mut self.total, &mut self.run.report, false);
                    return Step::Done(Ok(std::mem::take(&mut self.total)));
                }
                Slice::Exhausted { round, attempts } => {
                    let Some(rungs) = &mut self.rungs else {
                        return Step::Done(Err(FaultError::RetryExhausted { round, attempts }));
                    };
                    fold(&mut self.total, &mut self.run.report, true);
                    keys.clone_from_slice(&rungs.original);
                    if rungs.run == rungs.retries {
                        rungs.quarantine(job, keys, scratch, &mut self.total);
                        return Step::Done(Ok(std::mem::take(&mut self.total)));
                    }
                    // A deterministic plan replays the same faults on
                    // the same input, so the next run re-forks it.
                    rungs.run += 1;
                    self.run = RunState::new(job, keys, rungs.base.fork(u64::from(rungs.run)));
                    job.policy.backoff_ns(rungs.run)
                }
            };
            if delay_ns > 0 {
                return Step::Parked {
                    until: now().saturating_add(delay_ns),
                };
            }
        }
    }
}

impl<K: Ord + Clone> Rungs<K> {
    /// The last rung: a clean kernel run on `keys`, already restored to
    /// the input, recorded in `total`.
    fn quarantine(
        &self,
        job: &FaultJob<'_>,
        keys: &mut [K],
        scratch: &mut ExecScratch<K>,
        total: &mut FaultReport,
    ) {
        job.bsp.run_kernel(keys, job.kernel, scratch);
        job.bsp
            .logger
            .log(|| Event::LaneQuarantined { lane: self.id });
        total.attempts += 1;
        total.quarantined = true;
        total.counters.useful_rounds = job.kernel.rounds() as u64;
        total.rounds = total.counters.total_rounds();
    }
}

/// Fold a finished run's `report` into `total`. Nothing a failed run
/// executed reaches the output, so its rounds are all wasted.
fn fold(total: &mut FaultReport, report: &mut FaultReport, failed: bool) {
    let mut report = std::mem::take(report);
    if failed {
        report.counters.wasted_rounds += report.counters.useful_rounds;
        report.counters.useful_rounds = 0;
    }
    total.attempts += report.attempts;
    total.injected.append(&mut report.injected);
    total.detections.append(&mut report.detections);
    total.retries.append(&mut report.retries);
    total.counters = total.counters.then(report.counters);
    total.rounds = total.counters.total_rounds();
}

impl BspMachine {
    /// Emit the observability events `report` gained since `emitted`.
    fn emit_fault_events(&self, report: &FaultReport, emitted: Emitted) {
        for f in &report.injected[emitted.injected..] {
            self.logger.log(|| Event::FaultInjected {
                round: f.site.round,
                op: f.site.op,
                kind: f.kind.code(),
            });
        }
        for d in &report.detections[emitted.detections..] {
            self.logger.log(|| Event::FaultDetected {
                round: d.round,
                stage: u64::from(d.dims),
                sampled: d.sampled,
            });
        }
        for r in &report.retries[emitted.retries..] {
            self.logger.log(|| Event::RetryRound {
                round: r.round,
                attempt: u64::from(r.attempt),
            });
        }
    }

    /// Execute a lowered program on `keys` under `plan`, detecting
    /// corruption at the program's certificate boundaries and retrying
    /// failed segments from checkpoints per `policy`. Fault sites are
    /// keyed by `(round, op)` indices, which lowering preserves, so a
    /// plan names the same sites in the source program. A retry's
    /// backoff is slept out here, since there is no other lane to run;
    /// the batch dispatcher ([`crate::batch::run`]) runs other lanes
    /// instead.
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
        if !plan.is_enabled() {
            // Fast path: plain kernel execution, no hashing, no checks.
            let _sort_span = self.logger.span(Tier::Fault, Stage::Sort, SpanClass::None);
            exec_kernel(keys, kernel, scratch);
            let rounds = kernel.rounds() as u64;
            return Ok(FaultReport {
                rounds,
                attempts: 1,
                counters: RetryCounters {
                    useful_rounds: rounds,
                    ..RetryCounters::default()
                },
                ..FaultReport::default()
            });
        }
        let job = FaultJob::new(self, kernel, *policy);
        let mut lane = FaultLane::single(&job, keys, plan.clone());
        let epoch = Instant::now();
        let now = || since(epoch);
        loop {
            match lane.step(&job, keys, scratch, &now) {
                Step::Parked { until } => {
                    std::thread::sleep(Duration::from_nanos(until.saturating_sub(now())));
                }
                Step::Done(result) => return result,
            }
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

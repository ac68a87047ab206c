//! The batch dispatcher: one function decides how a batch of key
//! vectors runs, for [`crate::Machine::sort_batch`] and the sorting
//! service alike.
//!
//! * Under a disabled fault plan, batches of at least
//!   [`VERTICAL_MIN_LANES`] lanes run on the bit-sliced vertical tier
//!   ([`BspMachine::run_vertical_batch`]); smaller batches run on the
//!   kernel batch ([`BspMachine::run_kernel_batch`]).
//! * Under an enabled plan, each lane walks the retry ladder:
//!   1. [`BspMachine::run_kernel_with_faults`]'s executor under
//!      `plan.fork(id).fork(0)`, whose in-run checkpoint/retry absorbs
//!      transient faults;
//!   2. up to [`Ladder::retries`] whole-run retries from the original
//!      input, attempt `a` under `plan.fork(id).fork(a)` after a
//!      [`RetryPolicy::backoff_ns`]`(a)` wait (a deterministic plan
//!      replays the same faults on the same input, so an honest retry
//!      draws fresh decisions);
//!   3. quarantine: a clean kernel run from the original input, with
//!      [`FaultReport::quarantined`] set.
//!
//!   A backoff, before a segment retry or a whole-run retry, parks the
//!   lane, not the worker: the dispatcher runs every ready lane until it
//!   finishes or parks, keeps parked lanes in a min-heap by due time,
//!   and sleeps only when no lane is ready, until the earliest is due.
//!   No lane runs before its backoff has elapsed. Fault decisions depend
//!   only on the plan and the site, never on time, so every lane's
//!   output and [`FaultReport`] equal running it alone; and since a
//!   zero backoff never parks, a policy without backoff runs the lanes
//!   one after another, in order.
//!
//! Every lane with one key per node therefore ends equal to what
//! [`BspMachine::run`] makes of its input; a malformed lane reports
//! [`FaultError::WrongKeyCount`] without touching its batch-mates.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::time::{Duration, Instant};

use pns_fault::{FaultPlan, RetryPolicy};
use pns_obs::{Event, SpanClass, Stage, Tier};

use crate::bsp::BspMachine;
use crate::fault::{since, FaultError, FaultJob, FaultLane, FaultReport, Step};
use crate::kernel::{ExecScratch, KernelProgram, ScratchPool};
use crate::vertical::{VerticalPool, VerticalProgram, VERTICAL_MIN_LANES};

/// What a batch runs under: the fault plan and the retry ladder.
#[derive(Debug, Clone)]
pub struct Ladder {
    /// Faults to inject. Disabled plans take the clean tiers.
    pub plan: FaultPlan,
    /// The in-run checkpoint/retry policy; its backoff also spaces the
    /// whole-run retries. A backoff parks the lane, not the batch.
    pub policy: RetryPolicy,
    /// Whole-run retries after the first attempt exhausts its in-run
    /// retries, before the lane is quarantined.
    pub retries: u32,
}

impl Ladder {
    /// No faults: the batch runs on the vertical or kernel tier.
    #[must_use]
    pub fn clean() -> Self {
        Ladder {
            plan: FaultPlan::disabled(),
            policy: RetryPolicy::default(),
            retries: 0,
        }
    }
}

/// Caller-owned scratch for [`run`]. Keep one per worker and reuse it:
/// warm pools serve later batches without reallocating lane state.
#[derive(Debug)]
pub struct BatchPools<K> {
    kernel: ScratchPool<K>,
    vertical: VerticalPool<K>,
    lane: ExecScratch<K>,
}

impl<K> BatchPools<K> {
    /// Empty pools; the first batches size them.
    #[must_use]
    pub fn new() -> Self {
        BatchPools {
            kernel: ScratchPool::new(),
            vertical: VerticalPool::new(),
            lane: ExecScratch::new(),
        }
    }
}

impl<K> Default for BatchPools<K> {
    fn default() -> Self {
        Self::new()
    }
}

/// What [`run`] did with a batch.
#[derive(Debug)]
pub struct BatchRun {
    /// The tier that executed the batch: [`Tier::Vertical`],
    /// [`Tier::Kernel`], or [`Tier::Fault`] for the retry ladder.
    pub tier: Tier,
    /// One result per lane, in input order.
    pub lanes: Vec<Result<FaultReport, FaultError>>,
}

/// Run `batch` through `program` under `ladder` and leave every
/// well-formed lane sorted in place (see the module docs for the tier
/// choice and the ladder). `lane_id(i)` names lane `i` for fault-plan
/// forking and for the `LaneQuarantined` event.
///
/// # Panics
///
/// Panics if `program` was lowered for another shape than `bsp`'s.
pub fn run<K>(
    bsp: &BspMachine,
    program: &VerticalProgram,
    batch: &mut [Vec<K>],
    lane_id: impl Fn(usize) -> u64,
    ladder: &Ladder,
    pools: &mut BatchPools<K>,
) -> BatchRun
where
    K: Ord + Clone + Send + Sync,
{
    let kernel = program.kernel();
    assert_eq!(
        kernel.shape(),
        bsp.shape(),
        "program lowered for another shape"
    );
    let expected = bsp.shape().len();
    let mut lanes: Vec<Result<FaultReport, FaultError>> = batch
        .iter()
        .map(|keys| {
            if keys.len() as u64 == expected {
                Ok(FaultReport::default())
            } else {
                Err(FaultError::WrongKeyCount {
                    expected,
                    got: keys.len(),
                })
            }
        })
        .collect();
    if ladder.plan.is_enabled() {
        let _batch_span = bsp.logger.span(Tier::Fault, Stage::Batch, SpanClass::None);
        bsp.logger.log(|| Event::BatchScheduled {
            batch: batch.len() as u64,
            lanes: 1,
        });
        run_ladder(
            bsp,
            kernel,
            batch,
            &mut lanes,
            lane_id,
            ladder,
            &mut pools.lane,
        );
        return BatchRun {
            tier: Tier::Fault,
            lanes,
        };
    }
    let good = lanes.iter().filter(|lane| lane.is_ok()).count();
    let tier = if good >= VERTICAL_MIN_LANES {
        Tier::Vertical
    } else {
        Tier::Kernel
    };
    let mut clean = |batch: &mut [Vec<K>]| match tier {
        Tier::Vertical => bsp.run_vertical_batch(batch, program, &mut pools.vertical),
        _ => bsp.run_kernel_batch(batch, kernel, &mut pools.kernel),
    };
    let rounds = if good == batch.len() {
        clean(batch)
    } else {
        // Malformed lanes sit out: move the good ones into a dense
        // batch, run it, and move them back.
        let mut dense: Vec<Vec<K>> = batch
            .iter_mut()
            .zip(&lanes)
            .filter(|(_, lane)| lane.is_ok())
            .map(|(keys, _)| std::mem::take(keys))
            .collect();
        let rounds = if dense.is_empty() {
            0
        } else {
            clean(&mut dense)
        };
        let slots = batch
            .iter_mut()
            .zip(&lanes)
            .filter(|(_, lane)| lane.is_ok());
        for ((slot, _), keys) in slots.zip(dense) {
            *slot = keys;
        }
        rounds
    };
    for report in lanes.iter_mut().flatten() {
        report.rounds = rounds;
        report.attempts = 1;
        report.counters.useful_rounds = rounds;
    }
    BatchRun { tier, lanes }
}

/// Walk every well-formed lane of `batch` down the retry ladder,
/// interleaving lanes across their backoffs (see the module docs), and
/// store each lane's report summed over its attempts in `lanes`.
fn run_ladder<K: Ord + Clone>(
    bsp: &BspMachine,
    kernel: &KernelProgram,
    batch: &mut [Vec<K>],
    lanes: &mut [Result<FaultReport, FaultError>],
    lane_id: impl Fn(usize) -> u64,
    ladder: &Ladder,
    scratch: &mut ExecScratch<K>,
) {
    let job = FaultJob::new(bsp, kernel, ladder.policy);
    let mut queue = LaneQueue::new((0..lanes.len()).filter(|&i| lanes[i].is_ok()));
    // A lane's state exists from its first slice to its last, so only
    // parked lanes and the running one hold checkpoints.
    let mut states: Vec<Option<FaultLane<K>>> = batch.iter().map(|_| None).collect();
    let epoch = Instant::now();
    let now = || since(epoch);
    loop {
        match queue.next(now()) {
            Next::Run(i) => {
                let keys = &mut batch[i];
                let lane = states[i]
                    .get_or_insert_with(|| FaultLane::ladder(&job, keys, ladder, lane_id(i)));
                match lane.step(&job, keys, scratch, &now) {
                    Step::Parked { until } => queue.park(i, until),
                    Step::Done(result) => {
                        lanes[i] = result;
                        states[i] = None;
                    }
                }
            }
            Next::Wait(until) => {
                std::thread::sleep(Duration::from_nanos(until.saturating_sub(now())));
            }
            Next::Done => return,
        }
    }
}

/// What [`LaneQueue::next`] says to do.
#[derive(Debug, PartialEq, Eq)]
enum Next {
    /// Run this lane.
    Run(usize),
    /// No lane is ready; the earliest parked one is due at this time.
    Wait(u64),
    /// Every lane finished.
    Done,
}

/// Which lane of a fault batch runs next. Ready lanes run first in,
/// first out; a parked lane joins them once the clock reaches its due
/// time. Plain bookkeeping on explicit `now` values, so tests drive it
/// without sleeping.
#[derive(Debug)]
struct LaneQueue {
    ready: VecDeque<usize>,
    parked: BinaryHeap<Reverse<(u64, usize)>>,
}

impl LaneQueue {
    /// A queue with `lanes` ready, in order.
    fn new(lanes: impl IntoIterator<Item = usize>) -> Self {
        LaneQueue {
            ready: lanes.into_iter().collect(),
            parked: BinaryHeap::new(),
        }
    }

    /// Park `lane` until `until`.
    fn park(&mut self, lane: usize, until: u64) {
        self.parked.push(Reverse((until, lane)));
    }

    /// What to do at `now`: wake every parked lane that is due, then
    /// run the oldest ready lane, or wait for the earliest parked one.
    fn next(&mut self, now: u64) -> Next {
        while let Some(&Reverse((until, lane))) = self.parked.peek() {
            if until > now {
                break;
            }
            self.parked.pop();
            self.ready.push_back(lane);
        }
        match (self.ready.pop_front(), self.parked.peek()) {
            (Some(lane), _) => Next::Run(lane),
            (None, Some(&Reverse((until, _)))) => Next::Wait(until),
            (None, None) => Next::Done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bsp::compile;
    use crate::sorters::OetSnakeSorter;
    use pns_fault::{FaultKind, FaultSite};
    use pns_graph::factories;

    fn lcg_keys(len: u64, seed: u64) -> Vec<u64> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                state >> 33
            })
            .collect()
    }

    /// `factor^r` with its compiled program and vertical lowering.
    fn setup_on(
        factor: &pns_graph::Graph,
        r: usize,
    ) -> (BspMachine, crate::CompiledProgram, VerticalProgram) {
        let program = compile(factor, r, &OetSnakeSorter);
        let machine = BspMachine::new(factor, r);
        let vertical = machine.lower_vertical(&program).expect("validates");
        (machine, program, vertical)
    }

    /// `path(3)^2` with its compiled program and vertical lowering.
    fn setup() -> (BspMachine, crate::CompiledProgram, VerticalProgram) {
        setup_on(&factories::path(3), 2)
    }

    fn clean(machine: &BspMachine, program: &crate::CompiledProgram, keys: &[u64]) -> Vec<u64> {
        let mut out = keys.to_vec();
        machine.run(&mut out, program);
        out
    }

    #[test]
    fn ladder_quarantines_exhausted_lanes_and_sorts_everything() {
        let (machine, program, vertical) = setup();
        // detect_only and no whole-run retries: the first detection
        // quarantines the lane.
        let ladder = Ladder {
            plan: FaultPlan::random(5, 20_000), // 2% of sites
            policy: RetryPolicy::detect_only(),
            retries: 0,
        };
        let inputs: Vec<Vec<u64>> = (0..12)
            .map(|i| lcg_keys(machine.shape().len(), i * 13 + 1))
            .collect();
        let mut batch = inputs.clone();
        let run = run(
            &machine,
            &vertical,
            &mut batch,
            |i| i as u64,
            &ladder,
            &mut BatchPools::new(),
        );
        assert_eq!(run.tier, Tier::Fault);
        let mut quarantined = 0;
        for (lane, res) in run.lanes.iter().enumerate() {
            let report = res.as_ref().expect("lanes degrade, they do not fail");
            assert_eq!(batch[lane], clean(&machine, &program, &inputs[lane]));
            if report.quarantined {
                quarantined += 1;
                assert_eq!(report.attempts, 2, "one faulty run, one clean re-run");
                assert_eq!(report.counters.useful_rounds as usize, program.rounds());
                assert!(report.counters.wasted_rounds > 0);
            } else {
                assert_eq!(report.attempts, 1);
            }
            assert_eq!(report.rounds, report.counters.total_rounds());
        }
        assert!(
            quarantined > 0,
            "2% of sites with no retries must quarantine some lane"
        );
    }

    #[test]
    fn whole_run_retries_draw_fresh_decisions_before_quarantine() {
        let (machine, program, vertical) = setup();
        let ladder = |retries| Ladder {
            plan: FaultPlan::random(9, 30_000),
            policy: RetryPolicy::detect_only(),
            retries,
        };
        let inputs: Vec<Vec<u64>> = (0..16)
            .map(|i| lcg_keys(machine.shape().len(), i * 7 + 3))
            .collect();
        let quarantined = |retries| {
            let mut batch = inputs.clone();
            let run = run(
                &machine,
                &vertical,
                &mut batch,
                |i| i as u64,
                &ladder(retries),
                &mut BatchPools::new(),
            );
            for (lane, keys) in batch.iter().enumerate() {
                assert_eq!(*keys, clean(&machine, &program, &inputs[lane]));
            }
            run.lanes
                .iter()
                .filter(|r| r.as_ref().is_ok_and(|r| r.quarantined))
                .count()
        };
        assert!(
            quarantined(2) < quarantined(0),
            "re-forked retries must rescue some lanes from quarantine"
        );
    }

    #[test]
    fn wrong_length_lanes_fail_alone_on_every_tier() {
        let (machine, program, vertical) = setup();
        let n = machine.shape().len();
        for (lanes, ladder, tier) in [
            (3, Ladder::clean(), Tier::Kernel),
            (70, Ladder::clean(), Tier::Vertical),
            (
                3,
                Ladder {
                    plan: FaultPlan::random(1, 1_000),
                    policy: RetryPolicy::default(),
                    retries: 1,
                },
                Tier::Fault,
            ),
        ] {
            let mut inputs: Vec<Vec<u64>> = (0..lanes).map(|i| lcg_keys(n, i + 1)).collect();
            inputs[1] = vec![9, 9, 9];
            let mut batch = inputs.clone();
            let run = run(
                &machine,
                &vertical,
                &mut batch,
                |i| i as u64,
                &ladder,
                &mut BatchPools::new(),
            );
            assert_eq!(run.tier, tier);
            assert_eq!(
                run.lanes[1],
                Err(FaultError::WrongKeyCount {
                    expected: n,
                    got: 3
                })
            );
            assert_eq!(batch[1], vec![9, 9, 9], "a malformed lane is left alone");
            for lane in (0..lanes as usize).filter(|&l| l != 1) {
                let report = run.lanes[lane].as_ref().expect("well-formed lanes sort");
                assert_eq!(batch[lane], clean(&machine, &program, &inputs[lane]));
                if tier != Tier::Fault {
                    // A clean run is one attempt of every round, all useful.
                    assert_eq!(report.attempts, 1);
                    assert_eq!(report.rounds as usize, program.rounds());
                    assert_eq!(report.counters.useful_rounds, report.rounds);
                    assert!(report.injected.is_empty() && !report.quarantined);
                }
            }
        }
    }

    #[test]
    fn fault_batches_emit_observability_events() {
        let (mut machine, _, vertical) = setup();
        let (sink, reader) = pns_obs::MemorySink::with_capacity(1 << 16);
        machine.attach_logger(pns_obs::EventLogger::new(Box::new(sink)));
        let ladder = Ladder {
            plan: FaultPlan::random(5, 20_000),
            policy: RetryPolicy::detect_only(),
            retries: 0,
        };
        let mut batch: Vec<Vec<u64>> = (0..12)
            .map(|i| lcg_keys(machine.shape().len(), i * 13 + 1))
            .collect();
        let run = run(
            &machine,
            &vertical,
            &mut batch,
            |i| 100 + i as u64,
            &ladder,
            &mut BatchPools::new(),
        );
        machine.logger.flush();
        let events: Vec<Event> = reader.events().into_iter().map(|t| t.event).collect();
        let reports: Vec<&FaultReport> = run.lanes.iter().flatten().collect();
        let injected: usize = reports.iter().map(|r| r.injected.len()).sum();
        let quarantined: Vec<Event> = reports
            .iter()
            .enumerate()
            .filter(|(_, r)| r.quarantined)
            .map(|(i, _)| Event::LaneQuarantined {
                lane: 100 + i as u64,
            })
            .collect();
        assert!(!quarantined.is_empty());
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, Event::FaultInjected { .. }))
                .count(),
            injected
        );
        let seen: Vec<Event> = events
            .iter()
            .copied()
            .filter(|e| matches!(e, Event::LaneQuarantined { .. }))
            .collect();
        assert_eq!(seen, quarantined, "quarantines carry the lane ids");
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::BatchScheduled { .. })));
    }

    #[test]
    fn parked_lanes_resume_when_due_and_zero_delays_never_park() {
        // The queue on explicit clock values.
        let mut queue = LaneQueue::new([0, 1, 2]);
        assert_eq!(queue.next(0), Next::Run(0));
        queue.park(0, 100);
        assert_eq!(
            queue.next(10),
            Next::Run(1),
            "a ready lane runs while another is parked"
        );
        assert_eq!(queue.next(20), Next::Run(2));
        queue.park(2, 50);
        assert_eq!(queue.next(30), Next::Wait(50), "the earliest due time");
        assert_eq!(queue.next(49), Next::Wait(50), "no lane resumes early");
        assert_eq!(queue.next(50), Next::Run(2));
        assert_eq!(queue.next(99), Next::Wait(100));
        assert_eq!(queue.next(100), Next::Run(0));
        assert_eq!(queue.next(100), Next::Done);

        // A lane whose dropped route on star(4)^2 is detected and
        // retried once (see the fault executor's tests).
        let (machine, program, _) = setup_on(&factories::star(4), 2);
        let kernel = machine.lower(&program).expect("validates");
        let input: Vec<u64> = (0..16).rev().collect();
        let ladder = |policy| Ladder {
            plan: FaultPlan::single(FaultKind::DropRoute, FaultSite { round: 1, op: 0 }),
            policy,
            retries: 0,
        };
        let mut scratch = ExecScratch::new();

        let policy = RetryPolicy::default();
        let job = FaultJob::new(&machine, &kernel, policy);
        let mut keys = input.clone();
        let mut lane = FaultLane::ladder(&job, &keys, &ladder(policy), 0);
        let Step::Done(Ok(report)) = lane.step(&job, &mut keys, &mut scratch, &|| 0) else {
            panic!("a zero delay never parks");
        };
        assert_eq!(report.retries.len(), 1);

        let policy = RetryPolicy::default().with_backoff(1_000, 0, 9);
        let job = FaultJob::new(&machine, &kernel, policy);
        let mut resumed = input.clone();
        let mut lane = FaultLane::ladder(&job, &resumed, &ladder(policy), 0);
        match lane.step(&job, &mut resumed, &mut scratch, &|| 5_000) {
            Step::Parked { until } => assert_eq!(until, 5_000 + policy.backoff_ns(1)),
            other => panic!("a backoff parks the lane, got {other:?}"),
        }
        let Step::Done(Ok(after)) = lane.step(&job, &mut resumed, &mut scratch, &|| 7_000) else {
            panic!("one retry repairs the transient");
        };
        assert_eq!(after, report, "time never changes a fault decision");
        assert_eq!(resumed, keys);
        assert_eq!(keys, clean(&machine, &program, &input));
    }

    #[test]
    fn backoff_batches_match_each_lane_run_alone() {
        // A backoff before every retry, so lanes park and interleave:
        // segment retries under the first policy; whole-run retries and
        // quarantine under the second, which cannot retry segments.
        let policies = [
            RetryPolicy {
                max_retries: 1,
                ..RetryPolicy::default()
            },
            RetryPolicy::detect_only(),
        ];
        for (factor, r) in [(factories::path(3), 3), (factories::star(4), 2)] {
            let (machine, program, vertical) = setup_on(&factor, r);
            let inputs: Vec<Vec<u64>> = (0..24)
                .map(|i| lcg_keys(machine.shape().len(), i * 5 + 2))
                .collect();
            for policy in policies {
                let ladder = Ladder {
                    plan: FaultPlan::random(3, 30_000),
                    policy: policy.with_backoff(20_000, 100_000, 5),
                    retries: 1,
                };
                let mut batch = inputs.clone();
                let id = |i: usize| 50 + i as u64;
                let together = run(
                    &machine,
                    &vertical,
                    &mut batch,
                    id,
                    &ladder,
                    &mut BatchPools::new(),
                );
                let (mut retried, mut quarantined) = (0, 0);
                for (i, input) in inputs.iter().enumerate() {
                    let mut alone = vec![input.clone()];
                    let single = run(
                        &machine,
                        &vertical,
                        &mut alone,
                        |_| id(i),
                        &ladder,
                        &mut BatchPools::new(),
                    );
                    assert_eq!(batch[i], alone[0], "lane {i}: keys");
                    assert_eq!(together.lanes[i], single.lanes[0], "lane {i}: report");
                    assert_eq!(batch[i], clean(&machine, &program, input));
                    let report = together.lanes[i].as_ref().expect("lanes degrade");
                    retried += report.retries.len() + report.attempts as usize - 1;
                    quarantined += usize::from(report.quarantined);
                }
                assert!(retried > 0, "the backoff must park some lane");
                assert!(
                    policy.max_retries > 0 || quarantined > 0,
                    "some lane must walk the whole ladder"
                );
            }
        }
    }
}

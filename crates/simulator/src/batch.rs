//! The batch dispatcher: one function decides how a batch of key
//! vectors runs, for [`crate::Machine::sort_batch`] and the sorting
//! service alike.
//!
//! * Under a disabled fault plan, batches of at least
//!   [`VERTICAL_MIN_LANES`] lanes run on the bit-sliced vertical tier
//!   ([`BspMachine::run_vertical_batch`]); smaller batches run on the
//!   kernel batch ([`BspMachine::run_kernel_batch`]).
//! * Under an enabled plan, each lane walks the retry ladder, one lane
//!   after another:
//!   1. [`BspMachine::run_kernel_with_faults`] under
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
//! Every lane with one key per node therefore ends equal to what
//! [`BspMachine::run`] makes of its input; a malformed lane reports
//! [`FaultError::WrongKeyCount`] without touching its batch-mates.

use pns_fault::{FaultPlan, RetryPolicy};
use pns_obs::{Event, SpanClass, Stage, Tier};

use crate::bsp::BspMachine;
use crate::fault::{FaultError, FaultReport};
use crate::kernel::{ExecScratch, KernelProgram, ScratchPool};
use crate::vertical::{VerticalPool, VerticalProgram, VERTICAL_MIN_LANES};

/// What a batch runs under: the fault plan and the retry ladder.
#[derive(Debug, Clone)]
pub struct Ladder {
    /// Faults to inject. Disabled plans take the clean tiers.
    pub plan: FaultPlan,
    /// The in-run checkpoint/retry policy; its backoff also spaces the
    /// whole-run retries.
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
        for (i, (keys, lane)) in batch.iter_mut().zip(&mut lanes).enumerate() {
            if let Ok(report) = lane {
                *report = ladder_lane(bsp, kernel, keys, lane_id(i), ladder, &mut pools.lane);
            }
        }
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

/// One lane down the retry ladder; returns its report summed over
/// every attempt.
fn ladder_lane<K: Ord + Clone>(
    bsp: &BspMachine,
    kernel: &KernelProgram,
    keys: &mut Vec<K>,
    id: u64,
    ladder: &Ladder,
    scratch: &mut ExecScratch<K>,
) -> FaultReport {
    let original = keys.clone();
    let base = ladder.plan.fork(id);
    let mut total = FaultReport::default();
    for attempt in 0..=ladder.retries {
        if attempt > 0 {
            let delay_ns = ladder.policy.backoff_ns(attempt);
            if delay_ns > 0 {
                std::thread::sleep(std::time::Duration::from_nanos(delay_ns));
            }
            keys.clone_from(&original);
        }
        let plan = base.fork(u64::from(attempt));
        let (mut report, failed) = bsp.fault_attempt(keys, kernel, &plan, &ladder.policy, scratch);
        if failed.is_some() {
            // Nothing a failed attempt executed reaches the output.
            report.counters.wasted_rounds += report.counters.useful_rounds;
            report.counters.useful_rounds = 0;
        }
        total.attempts += report.attempts;
        total.injected.append(&mut report.injected);
        total.detections.append(&mut report.detections);
        total.retries.append(&mut report.retries);
        total.counters = total.counters.then(report.counters);
        if failed.is_none() {
            total.rounds = total.counters.total_rounds();
            return total;
        }
    }
    keys.clone_from(&original);
    bsp.run_kernel(keys, kernel, scratch);
    bsp.logger.log(|| Event::LaneQuarantined { lane: id });
    total.attempts += 1;
    total.quarantined = true;
    total.counters.useful_rounds = kernel.rounds() as u64;
    total.rounds = total.counters.total_rounds();
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bsp::compile;
    use crate::sorters::OetSnakeSorter;
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

    /// `path(3)^2` with its compiled program and vertical lowering.
    fn setup() -> (BspMachine, crate::CompiledProgram, VerticalProgram) {
        let factor = factories::path(3);
        let program = compile(&factor, 2, &OetSnakeSorter);
        let machine = BspMachine::new(&factor, 2);
        let vertical = machine.lower_vertical(&program).expect("validates");
        (machine, program, vertical)
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
}

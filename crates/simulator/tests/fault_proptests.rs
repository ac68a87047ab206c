//! Property-based tests for the kernel fault executor and the batch
//! dispatcher's retry ladder: a transient fault is either harmless or
//! caught by the stage certificates, the default retry policy always
//! repairs sparse faults, and batch execution degrades instead of
//! panicking. "Harmless" is exact: an `Ok` run must equal the clean
//! `BspMachine::run` output, not merely be snake-sorted — relay
//! factors (stars, random graphs) route keys through transit slots,
//! where a dropped move can copy one key over another and still leave
//! a sorted-looking output.

use pns_graph::{factories, Graph};
use pns_simulator::batch::{self, BatchPools, Ladder};
use pns_simulator::{
    compile, BspMachine, CompiledProgram, ExecScratch, FaultError, FaultKind, FaultPlan, FaultSite,
    KernelProgram, Machine, OetSnakeSorter, Op, RetryPolicy, ShearSorter,
};
use proptest::prelude::*;

fn keys_for(len: u64, seed: u64, modulus: u64) -> Vec<u64> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 30) % modulus
        })
        .collect()
}

/// All sites of a given operation class in the program.
fn sites_of(program: &CompiledProgram, compare: bool) -> Vec<(FaultSite, FaultKind)> {
    let mut out = Vec::new();
    for (ri, round) in program.round_ops().iter().enumerate() {
        for (oi, op) in round.iter().enumerate() {
            let kind = match op {
                Op::CompareExchange { .. } if compare => FaultKind::FlipCompare,
                Op::Move { .. } if !compare => FaultKind::DropRoute,
                Op::Resolve { .. } if !compare => FaultKind::StallResolve,
                _ => continue,
            };
            out.push((
                FaultSite {
                    round: ri as u64,
                    op: oi as u64,
                },
                kind,
            ));
        }
    }
    out
}

/// One shape under test: the machine, its program, and the kernel.
struct Fixture {
    machine: BspMachine,
    program: CompiledProgram,
    kernel: KernelProgram,
}

impl Fixture {
    fn new(factor: &Graph, r: usize) -> Self {
        let program = compile(factor, r, &OetSnakeSorter);
        let machine = BspMachine::new(factor, r);
        let kernel = machine.lower(&program).expect("compiled programs validate");
        Fixture {
            machine,
            program,
            kernel,
        }
    }

    /// The clean interpreter's output: what every `Ok` must equal.
    fn clean(&self, keys: &[u64]) -> Vec<u64> {
        let mut out = keys.to_vec();
        self.machine.run(&mut out, &self.program);
        out
    }

    /// A single injected fault must leave the output equal to the clean
    /// run or, with detection but no retries, surface as
    /// `RetryExhausted`; with the default policy it must always be
    /// repaired to the clean output.
    fn harmless_or_detected(
        &self,
        keys: &[u64],
        site: FaultSite,
        kind: FaultKind,
    ) -> Result<(), String> {
        let plan = FaultPlan::single(kind, site);
        let want = self.clean(keys);
        let mut scratch = ExecScratch::new();
        let mut k = keys.to_vec();
        match self.machine.run_kernel_with_faults(
            &mut k,
            &self.kernel,
            &plan,
            &RetryPolicy::detect_only(),
            &mut scratch,
        ) {
            Ok(report) if k != want => {
                return Err(format!(
                    "undetected {kind:?} at {site:?} changed the output (injected: {})",
                    report.injected.len()
                ))
            }
            Ok(_) | Err(FaultError::RetryExhausted { .. }) => {}
            Err(other) => return Err(format!("unexpected error at {site:?}: {other}")),
        }
        let mut k = keys.to_vec();
        match self.machine.run_kernel_with_faults(
            &mut k,
            &self.kernel,
            &plan,
            &RetryPolicy::default(),
            &mut scratch,
        ) {
            Ok(_) if k == want => Ok(()),
            Ok(_) => Err(format!(
                "repaired {kind:?} at {site:?} is not the clean output"
            )),
            Err(e) => Err(format!("{kind:?} at {site:?} not repaired: {e}")),
        }
    }
}

/// Exhaustive sweep, not sampled: every comparator flip in a small
/// `PG_2` sort is harmless or detected.
#[test]
fn every_single_comparator_flip_is_harmless_or_detected() {
    for (n, keys_seed) in [(3usize, 5u64), (4, 17)] {
        let fixture = Fixture::new(&factories::path(n), 2);
        let keys = keys_for(fixture.machine.shape().len(), keys_seed, 1000);
        for (site, kind) in sites_of(&fixture.program, true) {
            fixture
                .harmless_or_detected(&keys, site, kind)
                .unwrap_or_else(|msg| panic!("n={n}: {msg}"));
        }
    }
}

/// Exhaustive sweep over every single-site fault of every class on
/// the star relay factors: a dropped route or a stalled resolve that
/// copies one key over another must be detected, never returned `Ok`.
#[test]
fn every_single_fault_on_star_factors_is_harmless_or_detected() {
    for n in [4usize, 5] {
        let fixture = Fixture::new(&factories::star(n), 2);
        let len = fixture.machine.shape().len();
        let descending: Vec<u64> = (0..len).rev().collect();
        let random = keys_for(len, n as u64, 1000);
        let mut sites = sites_of(&fixture.program, false);
        assert!(!sites.is_empty(), "star({n}) routes through its hub");
        sites.extend(sites_of(&fixture.program, true));
        for keys in [&descending, &random] {
            for &(site, kind) in &sites {
                fixture
                    .harmless_or_detected(keys, site, kind)
                    .unwrap_or_else(|msg| panic!("star({n}): {msg}"));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_single_faults_are_harmless_or_detected(
        n in 3usize..6, pick in any::<u64>(), seed in any::<u64>(), modulus in 1u64..1000,
        compare in any::<bool>(),
    ) {
        let fixture = Fixture::new(&factories::path(n), 2);
        let keys = keys_for(fixture.machine.shape().len(), seed, modulus);
        let sites = sites_of(&fixture.program, compare);
        prop_assume!(!sites.is_empty());
        let (site, kind) = sites[(pick % sites.len() as u64) as usize];
        if let Err(msg) = fixture.harmless_or_detected(&keys, site, kind) {
            return Err(TestCaseError::Fail(msg));
        }
    }

    #[test]
    fn random_single_faults_on_relay_factors_are_harmless_or_detected(
        n in 4usize..7, pick in any::<u64>(), seed in any::<u64>(), modulus in 1u64..1000,
        star in any::<bool>(), compare in any::<bool>(),
    ) {
        // Random connected factors and stars route non-adjacent compare
        // partners through relays, so Move/Resolve sites exist to hit.
        let factor = if star {
            factories::star(n)
        } else {
            Machine::prepare_factor(&factories::random_connected(n, 1, seed))
        };
        let fixture = Fixture::new(&factor, 2);
        let keys = keys_for(fixture.machine.shape().len(), seed ^ 0x5eed, modulus);
        let sites = sites_of(&fixture.program, compare);
        prop_assume!(!sites.is_empty());
        let (site, kind) = sites[(pick % sites.len() as u64) as usize];
        if let Err(msg) = fixture.harmless_or_detected(&keys, site, kind) {
            return Err(TestCaseError::Fail(format!("{}: {msg}", factor.name())));
        }
    }

    #[test]
    fn default_policy_repairs_sparse_random_faults(
        n in 3usize..5, r in 2usize..4, plan_seed in any::<u64>(),
        seed in any::<u64>(), modulus in 1u64..1000, rate in 1u64..2_000,
    ) {
        prop_assume!((n as u64).pow(r as u32) <= 256);
        let factor = factories::path(n);
        let program = compile(&factor, r, &ShearSorter);
        let machine = BspMachine::new(&factor, r);
        let kernel = machine.lower(&program).expect("compiled programs validate");
        let input = keys_for(machine.shape().len(), seed, modulus);
        let mut want = input.clone();
        machine.run(&mut want, &program);
        let mut keys = input;
        let plan = FaultPlan::random(plan_seed, rate);
        // Up to 0.2% of sites firing: the default policy's three retries
        // per segment always recover (transients never repeat).
        let report = machine
            .run_kernel_with_faults(
                &mut keys,
                &kernel,
                &plan,
                &RetryPolicy::default(),
                &mut ExecScratch::new(),
            )
            .map_err(|e| TestCaseError::Fail(format!("unrepaired: {e}")))?;
        prop_assert_eq!(keys, want);
        prop_assert_eq!(report.rounds, report.counters.total_rounds());
        prop_assert!(report.counters.useful_rounds >= program.rounds() as u64);
    }

    #[test]
    fn batches_degrade_gracefully_and_never_panic(
        n in 3usize..6, lanes in 1usize..70, plan_seed in any::<u64>(),
        seed in any::<u64>(), rate in 1u64..50_000,
        policy in 0u32..9, retries in 0u32..2,
    ) {
        let (max_retries, recheck_depth) = (policy % 3, policy / 3);
        // Random relabeled factors exercise relay moves (Route rounds
        // with transit traffic) through the dispatcher's fault ladder.
        // Whatever the plan, policy, or lane count (including
        // batches wide enough for the vertical tier when clean), every
        // lane must come back equal to the clean `run` of its input.
        let factor = Machine::prepare_factor(&factories::random_connected(n, 2, seed));
        let program = compile(&factor, 2, &OetSnakeSorter);
        let machine = BspMachine::new(&factor, 2);
        let vertical = machine
            .lower_vertical(&program)
            .map_err(|e| TestCaseError::Fail(format!("lowering failed: {e}")))?;
        let len = machine.shape().len();
        let inputs: Vec<Vec<u64>> = (0..lanes as u64)
            .map(|i| keys_for(len, seed ^ (i * 7919), 1000))
            .collect();
        let ladder = Ladder {
            plan: FaultPlan::random(plan_seed, rate),
            policy: RetryPolicy { max_retries, recheck_depth, ..RetryPolicy::default() },
            retries,
        };
        let mut batch = inputs.clone();
        let run = batch::run(
            &machine,
            &vertical,
            &mut batch,
            |i| i as u64,
            &ladder,
            &mut BatchPools::new(),
        );
        prop_assert_eq!(run.lanes.len(), lanes);
        for (lane, (res, input)) in run.lanes.iter().zip(&inputs).enumerate() {
            let report = res
                .as_ref()
                .map_err(|e| TestCaseError::Fail(format!("lane {lane} failed: {e}")))?;
            let mut want = input.clone();
            machine.run(&mut want, &program);
            prop_assert!(
                batch[lane] == want,
                "lane {} differs from the clean run (quarantined: {})", lane, report.quarantined
            );
            prop_assert!(report.attempts >= 1 && report.attempts <= retries + 2);
        }
    }
}

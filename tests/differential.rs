//! Differential test harness: every execution path of the stack must
//! produce the *same configuration* on the same input.
//!
//! For each (factor, r, sorter) in a zoo of product networks, and for
//! each input in a bank of random and adversarial key vectors, we run:
//!
//! * the charged engine (`network_sort` + `ChargedEngine`),
//! * the executed engine (`network_sort` + `ExecutedEngine`),
//! * the serial BSP machine (`BspMachine::run`), the reference,
//! * the flat kernel tier (`run_kernel` and `run_kernel_batch`) and the
//!   vertical column tier (`run_vertical_batch`),
//! * the batch dispatcher (`batch::run`) on both of its clean tiers,
//!
//! and require all configurations to be elementwise identical and
//! snake-order equal to the `std` sort and LSB radix oracles. The
//! algorithm is oblivious, so any divergence between these paths is a
//! bug in an executor, not data dependence. Separate tests drive the
//! kernel fault executor and the dispatcher's retry ladder under fault
//! plans and require every `Ok` lane to equal the clean `run` output.

use product_sort::baselines::LsbRadixSorter;
use product_sort::graph::factories;
use product_sort::graph::Graph;
use product_sort::obs::{Event, EventLogger, MemorySink, Tier};
use product_sort::order::radix::Shape;
use product_sort::sim::batch::{self, BatchPools, Ladder};
use product_sort::sim::bsp::{compile, BspMachine, CompiledProgram};
use product_sort::sim::netsort::{is_snake_sorted, network_sort, read_snake_order};
use product_sort::sim::{
    ChargedEngine, CostModel, ExecScratch, ExecutedEngine, FaultError, FaultPlan, Hypercube2Sorter,
    Machine, MultiwayNSorter, OetSnakeSorter, PeriodicMergeSorter, Pg2Sorter, RetryPolicy,
    ScratchPool, ShearSorter, SorterChoice, VerticalPool,
};

fn lcg_keys(len: u64, seed: u64) -> Vec<u64> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        })
        .collect()
}

/// Random and adversarial inputs for a network of `len` nodes.
fn input_bank(len: u64) -> Vec<(String, Vec<u64>)> {
    let mut bank: Vec<(String, Vec<u64>)> = Vec::new();
    for seed in [1u64, 0xDEAD_BEEF, 0x1234_5678_9ABC_DEF0] {
        bank.push((format!("random(seed={seed:#x})"), lcg_keys(len, seed)));
    }
    bank.push(("reversed".into(), (0..len).rev().collect()));
    bank.push(("sorted".into(), (0..len).collect()));
    bank.push(("all-equal".into(), vec![42; len as usize]));
    bank.push(("sawtooth".into(), (0..len).map(|x| x % 7).collect()));
    bank.push((
        "two-values".into(),
        (0..len).map(|x| u64::from(x % 3 == 0)).collect(),
    ));
    bank
}

/// Run the full engine matrix on one (factor, r, sorter) and compare.
fn differential_case(factor: &Graph, r: usize, sorter: &dyn Pg2Sorter) {
    let shape = Shape::new(factor.n(), r);
    let len = shape.len();
    let ctx = format!("factor={} r={r}", factor.name());

    let program = compile(factor, r, sorter);
    let bsp = BspMachine::new(factor, r);
    let kernel = bsp.lower(&program).expect("compiled programs validate");

    let bank = input_bank(len);
    let mut serials: Vec<Vec<u64>> = Vec::new();
    // One scratch for every kernel run in the case: reuse across inputs
    // is exactly the steady state the kernel tier promises.
    let mut scratch = ExecScratch::new();
    let mut radix = LsbRadixSorter::new();
    for (label, input) in &bank {
        let mut oracle = input.clone();
        oracle.sort_unstable();

        // Sequence-level baseline: the LSB radix sorter must agree with
        // the std oracle on every input the networks see.
        let mut radixed = input.clone();
        radix.sort_u64(&mut radixed);
        assert_eq!(radixed, oracle, "{ctx} {label}: radix vs std oracle");

        // Reference: serial BSP execution.
        let mut serial = input.clone();
        bsp.run(&mut serial, &program);
        assert!(is_snake_sorted(shape, &serial), "{ctx} {label}: serial");
        assert_eq!(
            read_snake_order(shape, &serial),
            oracle,
            "{ctx} {label}: serial vs std oracle"
        );

        // Kernel tier.
        let mut kser = input.clone();
        bsp.run_kernel(&mut kser, &kernel, &mut scratch);
        assert_eq!(kser, serial, "{ctx} {label}: run_kernel");

        // Executed engine (real comparator programs + real routing).
        let mut exec = input.clone();
        let mut engine = ExecutedEngine::new(factor, shape, sorter);
        let _ = network_sort(shape, &mut exec, &mut engine);
        assert_eq!(exec, serial, "{ctx} {label}: executed engine");

        // Charged engine (instant data ops — same data trajectory).
        let mut charged = input.clone();
        let mut engine = ChargedEngine::new(CostModel::custom("unit", 1, 1));
        let _ = network_sort(shape, &mut charged, &mut engine);
        assert_eq!(charged, serial, "{ctx} {label}: charged engine");

        serials.push(serial);
    }

    // Batched kernel executor.
    let mut batch: Vec<Vec<u64>> = bank.iter().map(|(_, input)| input.clone()).collect();
    bsp.run_kernel_batch(&mut batch, &kernel, &mut ScratchPool::new());
    for ((label, _), (got, want)) in bank.iter().zip(batch.iter().zip(&serials)) {
        assert_eq!(got, want, "{ctx} {label}: run_kernel_batch");
    }

    // Vertical column tier: the whole bank as one word block.
    let vertical = bsp
        .lower_vertical(&program)
        .expect("compiled programs validate");
    let mut batch: Vec<Vec<u64>> = bank.iter().map(|(_, input)| input.clone()).collect();
    bsp.run_vertical_batch(&mut batch, &vertical, &mut VerticalPool::new());
    for ((label, _), (got, want)) in bank.iter().zip(batch.iter().zip(&serials)) {
        assert_eq!(got, want, "{ctx} {label}: run_vertical_batch");
    }

    // The batch dispatcher on both clean tiers: the bank alone is below
    // a word of lanes (kernel tier), the bank repeated to a full word
    // and a tail is above it (vertical tier).
    let mut pools = BatchPools::new();
    for (copies, tier) in [(1, Tier::Kernel), (9, Tier::Vertical)] {
        let mut batch: Vec<Vec<u64>> = (0..copies)
            .flat_map(|_| bank.iter().map(|(_, input)| input.clone()))
            .collect();
        let run = batch::run(
            &bsp,
            &vertical,
            &mut batch,
            |i| i as u64,
            &Ladder::clean(),
            &mut pools,
        );
        assert_eq!(run.tier, tier, "{ctx}: dispatcher tier for {copies} copies");
        assert!(run.lanes.iter().all(Result::is_ok), "{ctx}: clean lanes");
        for (i, got) in batch.iter().enumerate() {
            let (label, _) = &bank[i % bank.len()];
            let want = &serials[i % bank.len()];
            assert_eq!(got, want, "{ctx} {label}: dispatcher lane {i}");
        }
    }
}

#[test]
fn differential_paths() {
    differential_case(&factories::path(4), 2, &ShearSorter);
    differential_case(&factories::path(4), 3, &ShearSorter);
    differential_case(&factories::path(3), 4, &ShearSorter);
}

#[test]
fn differential_cycles() {
    // Cycles carry the path edges 0–1–…–(n−1), so shearsort programs
    // compiled against consecutive labels stay edge-aligned.
    differential_case(&factories::cycle(5), 2, &ShearSorter);
    differential_case(&factories::cycle(4), 3, &ShearSorter);
}

#[test]
fn differential_hypercubes() {
    differential_case(&factories::k2(), 2, &Hypercube2Sorter);
    differential_case(&factories::k2(), 3, &Hypercube2Sorter);
    differential_case(&factories::k2(), 4, &Hypercube2Sorter);
    // The 8-cube: 256 nodes, the largest shape in the matrix.
    differential_case(&factories::k2(), 8, &Hypercube2Sorter);
}

#[test]
fn differential_multiway_nsorter() {
    // Dense factors: every long row/column comparator is an edge.
    differential_case(&factories::complete(4), 2, &MultiwayNSorter);
    differential_case(&factories::complete(4), 3, &MultiwayNSorter);
    // Sparse factor: the same program forced through relay routing.
    differential_case(&factories::path(4), 2, &MultiwayNSorter);
}

#[test]
fn differential_periodic_merge() {
    differential_case(&factories::complete(4), 2, &PeriodicMergeSorter::default());
    differential_case(&factories::cycle(4), 2, &PeriodicMergeSorter::default());
    // The parameterized variant is a different program; it must agree too.
    differential_case(
        &factories::complete(4),
        2,
        &PeriodicMergeSorter::with_extra_blocks(1),
    );
}

#[test]
fn differential_auto_selected_sorters() {
    // Whatever the selector picks per shape must survive the full matrix.
    for factor in [factories::complete(4), factories::path(4), factories::k2()] {
        let factor = Machine::prepare_factor(&factor);
        differential_case(&factor, 2, SorterChoice::Auto.resolve(&factor));
    }
}

#[test]
fn differential_petersen_square() {
    let factor = Machine::prepare_factor(&factories::petersen());
    differential_case(&factor, 2, &ShearSorter);
}

#[test]
fn differential_de_bruijn() {
    // Non-Hamiltonian-friendly labels: relay moves in play.
    let factor = Machine::prepare_factor(&factories::de_bruijn(2));
    differential_case(&factor, 2, &OetSnakeSorter);
    differential_case(&factor, 3, &OetSnakeSorter);
}

#[test]
fn differential_star_relays() {
    // Star graphs force relay hops (no Hamiltonian path): every tier's
    // move/resolve handling is in play.
    differential_case(&factories::star(4), 2, &OetSnakeSorter);
    differential_case(&factories::star(5), 2, &OetSnakeSorter);
}

/// The clean interpreter's output for `input`, checked against the
/// LSB radix oracle in snake order: what every `Ok` fault lane must
/// equal.
fn clean_output(bsp: &BspMachine, program: &CompiledProgram, input: &[u64]) -> Vec<u64> {
    let mut clean = input.to_vec();
    bsp.run(&mut clean, program);
    let mut radixed = input.to_vec();
    LsbRadixSorter::new().sort_u64(&mut radixed);
    assert_eq!(read_snake_order(bsp.shape(), &clean), radixed);
    clean
}

/// The kernel fault executor under random plans: every `Ok` run ends
/// equal to the clean `run` output (and so to the radix oracle), every
/// failure is a typed `RetryExhausted`, and the default policy repairs
/// what it detects — faults are keyed by `(round, op)`, which lowering
/// preserves 1:1.
#[test]
fn differential_fault_paths() {
    let cases: [(&Graph, usize, &dyn Pg2Sorter); 5] = [
        (&factories::path(3), 3, &ShearSorter),
        (&factories::k2(), 4, &Hypercube2Sorter),
        (&factories::star(4), 2, &OetSnakeSorter),
        (&factories::complete(4), 2, &MultiwayNSorter),
        (
            &factories::complete(4),
            2,
            &PeriodicMergeSorter { extra_blocks: 0 },
        ),
    ];
    let mut injections = 0usize;
    for (factor, r, sorter) in cases {
        let shape = Shape::new(factor.n(), r);
        let ctx = format!("factor={} r={r}", factor.name());
        let program = compile(factor, r, sorter);
        let bsp = BspMachine::new(factor, r);
        let kernel = bsp.lower(&program).expect("compiled programs validate");
        let mut scratch = ExecScratch::new();
        let input = lcg_keys(shape.len(), 0xFA17);
        let clean = clean_output(&bsp, &program, &input);
        for policy in [RetryPolicy::default(), RetryPolicy::detect_only()] {
            for seed in 0..12u64 {
                let plan = FaultPlan::random(seed, 5_000);
                let mut keys = input.clone();
                match bsp.run_kernel_with_faults(&mut keys, &kernel, &plan, &policy, &mut scratch) {
                    Ok(report) => {
                        assert_eq!(
                            keys, clean,
                            "{ctx} seed={seed}: Ok must equal the clean run"
                        );
                        assert_eq!(report.rounds, report.counters.total_rounds());
                        injections += report.injected.len();
                    }
                    Err(FaultError::RetryExhausted { .. }) => {}
                    Err(other) => panic!("{ctx} seed={seed}: unexpected {other}"),
                }
            }
        }
    }
    assert!(injections > 0, "no fault was ever injected — dead test");
}

/// A freshly traced machine plus the reader for its event ring and a
/// logger handle to flush it from (the machine's own logger field is
/// crate-private; clones share the sink).
fn traced_machine(
    factor: &Graph,
    r: usize,
) -> (BspMachine, EventLogger, product_sort::obs::MemoryReader) {
    let (sink, reader) = MemorySink::with_capacity(1 << 18);
    let logger = EventLogger::new(Box::new(sink));
    let mut bsp = BspMachine::new(factor, r);
    bsp.attach_logger(logger.clone());
    (bsp, logger, reader)
}

/// The dispatcher's retry ladder on batches wide enough for the
/// vertical tier: under a fault plan every lane runs the kernel fault
/// ladder instead, ends equal to the clean `run` output, and comes out
/// exactly as it would alone in a batch of one — a lane's outcome
/// depends on its id, its input and the plan, never on its batch-mates
/// or the tier the batch would take clean. The fault events the batch
/// emits account for every report.
#[test]
fn differential_vertical_fault_paths() {
    let cases: [(&Graph, usize, &dyn Pg2Sorter); 5] = [
        (&factories::path(3), 3, &ShearSorter),
        (&factories::k2(), 4, &Hypercube2Sorter),
        (&factories::star(4), 2, &OetSnakeSorter),
        (&factories::complete(4), 2, &MultiwayNSorter),
        (
            &factories::path(4),
            2,
            &PeriodicMergeSorter { extra_blocks: 0 },
        ),
    ];
    let mut injections = 0usize;
    for (factor, r, sorter) in cases {
        let shape = Shape::new(factor.n(), r);
        let ctx = format!("factor={} r={r}", factor.name());
        let program = compile(factor, r, sorter);
        // Reference and single-lane runs stay off the traced machine, so
        // its event stream is exactly the batch's.
        let plain = BspMachine::new(factor, r);

        // 70 lanes — one full word block plus a 6-lane tail — with a
        // malformed lane inside the full block.
        let mut inputs: Vec<Vec<u64>> =
            (0..70).map(|s| lcg_keys(shape.len(), 0xFA17 + s)).collect();
        inputs[5] = vec![1, 2, 3];

        for (policy, retries) in [(RetryPolicy::default(), 0), (RetryPolicy::detect_only(), 1)] {
            for seed in 0..3u64 {
                let ladder = Ladder {
                    plan: FaultPlan::random(seed, 5_000),
                    policy,
                    retries,
                };
                let (bsp, logger, reader) = traced_machine(factor, r);
                let vertical = bsp
                    .lower_vertical(&program)
                    .expect("compiled programs validate");
                let mut pools = BatchPools::new();
                let mut batch = inputs.clone();
                let run = batch::run(
                    &bsp,
                    &vertical,
                    &mut batch,
                    |i| i as u64,
                    &ladder,
                    &mut pools,
                );
                assert_eq!(run.tier, Tier::Fault, "{ctx} seed={seed}");
                assert!(
                    matches!(run.lanes[5], Err(FaultError::WrongKeyCount { .. })),
                    "{ctx} seed={seed}: malformed lane must error"
                );
                let (mut injected, mut quarantined) = (0, 0);
                for (i, lane) in run.lanes.iter().enumerate().filter(|(i, _)| *i != 5) {
                    let report = lane.as_ref().expect("well-formed lanes never fail");
                    let clean = clean_output(&plain, &program, &inputs[i]);
                    assert_eq!(batch[i], clean, "{ctx} seed={seed} lane={i}");
                    injected += report.injected.len();
                    quarantined += usize::from(report.quarantined);
                    if i % 17 == 0 {
                        let mut alone = vec![inputs[i].clone()];
                        let solo = batch::run(
                            &plain,
                            &vertical,
                            &mut alone,
                            |_| i as u64,
                            &ladder,
                            &mut pools,
                        );
                        assert_eq!(solo.lanes[0].as_ref(), Ok(report), "{ctx} lane={i}");
                        assert_eq!(alone[0], batch[i], "{ctx} lane={i}");
                    }
                }
                logger.flush();
                let events: Vec<Event> = reader.events().iter().map(|te| te.event).collect();
                let count = |f: fn(&Event) -> bool| events.iter().filter(|e| f(e)).count();
                assert_eq!(
                    count(|e| matches!(e, Event::FaultInjected { .. })),
                    injected,
                    "{ctx} seed={seed}: every injected fault is an event"
                );
                assert_eq!(
                    count(|e| matches!(e, Event::LaneQuarantined { .. })),
                    quarantined,
                    "{ctx} seed={seed}: every quarantine is an event"
                );
                injections += injected;
            }
        }
    }
    // The comparison must not be vacuous: across 5 fixtures x 2
    // policies x 3 seeds at 5000 ppm, faults definitely fired.
    assert!(injections > 0, "no fault was ever injected — dead test");
}

//! The vertical tier as an *exhaustive* zero-one oracle.
//!
//! The sorting network is oblivious and comparator-shaped, so the
//! zero-one principle reduces correctness on all inputs to correctness
//! on all `2^n` 0/1 vectors — and the bit-sliced vertical layout
//! executes 64 of those vectors per word. That turns the exhaustive
//! sweep from a release-mode luxury (`tests/heavy.rs`) into a cheap
//! tier-1 check: every test here sweeps **all** `2^n` masks of its
//! fixture through `run_vertical_bits`, and cross-checks the tier
//! against the serial machine, the kernel batch, and the batch
//! dispatcher's fault ladder.

use product_sort::graph::factories;
use product_sort::graph::Graph;
use product_sort::order::radix::Shape;
use product_sort::sim::batch::{self, BatchPools, Ladder};
use product_sort::sim::bsp::{compile, BspMachine};
use product_sort::sim::netsort::read_snake_order;
use product_sort::sim::{
    pack_zero_one_masks, pack_zero_one_masks_into, unpack_zero_one_lane, BitScratch, FaultPlan,
    Hypercube2Sorter, Machine, OetSnakeSorter, Pg2Sorter, ProgramCache, RetryPolicy, ScratchPool,
    ShearSorter, SortError, VerticalPool, WORD_LANES,
};

/// Node rank at each snake position, so a sorted 0/1 lane can be
/// checked against its expected word without per-lane unpacking.
fn snake_order_nodes(shape: Shape) -> Vec<usize> {
    let identity: Vec<u32> = (0..shape.len() as u32).collect();
    read_snake_order(shape, &identity)
        .into_iter()
        .map(|rank| rank as usize)
        .collect()
}

/// Sweep **all** `2^n` zero-one vectors through the vertical bit path,
/// 64 lanes per word, and check every lane sorted with its zero count
/// preserved. Returns the number of lanes checked.
fn exhaustive_bits_sweep(factor: &Graph, r: usize, sorter: &dyn Pg2Sorter) -> u64 {
    let shape = Shape::new(factor.n(), r);
    let n = shape.len() as usize;
    assert!(n <= 16, "exhaustive space too large for a tier-1 sweep");
    let program = compile(factor, r, sorter);
    let machine = BspMachine::new(factor, r);
    let vertical = machine
        .lower_vertical(&program)
        .expect("compiled programs validate");
    let order = snake_order_nodes(shape);
    let total: u64 = 1 << n;
    let mut checked = 0u64;
    let mut scratch = BitScratch::new();
    let mut masks: Vec<u64> = Vec::with_capacity(WORD_LANES);
    let mut words: Vec<u64> = Vec::new();
    let mut base = 0u64;
    while base < total {
        let lanes = WORD_LANES.min((total - base) as usize);
        masks.clear();
        masks.extend(base..base + lanes as u64);
        pack_zero_one_masks_into(&masks, n, &mut words);
        machine.run_vertical_bits(&mut words, &vertical, &mut scratch);
        // A sorted 0/1 lane reads, in snake order, `zeros` zeros then
        // ones — so at snake position `p`, lane `l`'s expected bit is
        // `p >= zeros(l)`. Build that expected word per position and
        // compare whole words: 64 lanes per equality check.
        for (p, &node) in order.iter().enumerate() {
            let mut expected = 0u64;
            for (l, &mask) in masks.iter().enumerate() {
                let zeros = n as u32 - mask.count_ones();
                expected |= u64::from(p as u32 >= zeros) << l;
            }
            assert_eq!(
                words[node],
                expected,
                "factor={} r={r}: masks {base:#x}.. diverge at snake pos {p}",
                factor.name()
            );
        }
        checked += lanes as u64;
        base += lanes as u64;
    }
    assert_eq!(checked, total, "every mask swept");
    checked
}

#[test]
fn exhaustive_zero_one_vertical_hypercube_4() {
    // All 2^16 vectors of the 4-cube — the full space the sampled
    // tier-1 test and the `--ignored` heavy sweep only approximate —
    // in 1024 words.
    exhaustive_bits_sweep(&factories::k2(), 4, &Hypercube2Sorter);
}

#[test]
fn exhaustive_zero_one_vertical_grid_4x4() {
    // Second fixture, different round mix: all 2^16 vectors of the
    // 4×4 shearsort grid.
    exhaustive_bits_sweep(&factories::path(4), 2, &ShearSorter);
}

#[test]
fn exhaustive_zero_one_vertical_star_relays() {
    // Relay-heavy routing (Route rounds with transit traffic) on the
    // star factor square: all 2^16 vectors again.
    exhaustive_bits_sweep(&factories::star(4), 2, &OetSnakeSorter);
}

#[test]
fn vertical_bits_match_the_serial_machine_bit_for_bit() {
    // Smallest fixture, strongest check: every lane of every word must
    // equal the serial BSP machine's full output vector, not just "be
    // sorted" — all 256 vectors of the 3-cube, four words total.
    let factor = factories::k2();
    let program = compile(&factor, 3, &Hypercube2Sorter);
    let machine = BspMachine::new(&factor, 3);
    let vertical = machine.lower_vertical(&program).expect("validates");
    let n = machine.shape().len() as usize;
    let mut scratch = BitScratch::new();
    for base in (0u64..(1 << n)).step_by(WORD_LANES) {
        let masks: Vec<u64> = (base..base + WORD_LANES as u64).collect();
        let mut words = pack_zero_one_masks(&masks, n);
        machine.run_vertical_bits(&mut words, &vertical, &mut scratch);
        for (l, &mask) in masks.iter().enumerate() {
            let mut serial: Vec<u8> = (0..n).map(|i| ((mask >> i) & 1) as u8).collect();
            machine.run(&mut serial, &program);
            assert_eq!(
                unpack_zero_one_lane(&words, l),
                serial,
                "mask={mask:#04x}: vertical lane vs serial machine"
            );
        }
    }
}

#[test]
fn vertical_column_batch_matches_the_serial_machine_on_full_keys() {
    // Full-key batches across the topology zoo, 70 lanes (one full
    // word block plus a 6-lane tail).
    let cases: [(&Graph, usize, &dyn Pg2Sorter); 3] = [
        (&factories::path(4), 2, &ShearSorter),
        (&factories::k2(), 4, &Hypercube2Sorter),
        (&factories::star(4), 2, &OetSnakeSorter),
    ];
    for (factor, r, sorter) in cases {
        let shape = Shape::new(factor.n(), r);
        let program = compile(factor, r, sorter);
        let machine = BspMachine::new(factor, r);
        let inputs: Vec<Vec<u64>> = (0..70).map(|s| lcg_keys(shape.len(), 0xBEEF + s)).collect();
        let mut serials: Vec<Vec<u64>> = inputs.clone();
        for keys in &mut serials {
            machine.run(keys, &program);
        }
        let vertical = machine.lower_vertical(&program).expect("validates");
        let mut batch = inputs.clone();
        let mut pool = VerticalPool::new();
        machine.run_vertical_batch(&mut batch, &vertical, &mut pool);
        assert_eq!(
            batch,
            serials,
            "factor={} r={r}: vertical batch",
            factor.name()
        );
    }
}

fn lcg_keys(len: u64, seed: u64) -> Vec<u64> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        })
        .collect()
}

#[test]
fn machine_sort_batch_auto_selects_the_vertical_tier() {
    // A compiled Machine must produce identical per-lane results above
    // and below the 64-lane vertical threshold, malformed lanes
    // degrading in place either way.
    let factor = factories::path(3);
    let cache = ProgramCache::new();
    let mut machine = Machine::compiled(&factor, 3, &ShearSorter, &cache);
    assert!(
        machine.vertical().is_some(),
        "compiled machines carry the vertical program"
    );
    let len = machine.shape().len();

    let bsp = BspMachine::new(&factor, 3);
    let program = compile(&factor, 3, &ShearSorter);

    for batch_size in [5usize, 70] {
        let mut batch: Vec<Vec<u64>> = (0..batch_size as u64)
            .map(|s| lcg_keys(len, 31 + s))
            .collect();
        batch[2] = vec![9; 3]; // malformed lane, both sizes
        let results = machine.sort_batch(batch.clone());
        assert_eq!(results.len(), batch_size);
        for (lane, res) in results.into_iter().enumerate() {
            if lane == 2 {
                assert!(matches!(res, Err(SortError::WrongKeyCount { .. })));
                continue;
            }
            let report = res.unwrap_or_else(|e| panic!("lane {lane}: {e}"));
            let mut serial = batch[lane].clone();
            bsp.run(&mut serial, &program);
            assert_eq!(
                report.keys, serial,
                "batch={batch_size} lane={lane}: sort_batch vs serial machine"
            );
        }
    }
}

/// Nightly cross-product: every engine tier × the fault layer, swept over **all** `2^16` zero-one vectors per fixture.
/// The tier-1 tests above prove the bit path exhaustively; this run
/// additionally pushes the full space through the column batch and the
/// dispatcher's fault ladder and requires lane-for-lane agreement with
/// the clean kernel batch.
#[test]
#[ignore = "release-mode sweep: 2 fixtures x 65,536 lanes through three batch paths"]
fn exhaustive_zero_one_engine_fault_cross_product() {
    let cases: [(&Graph, usize, &dyn Pg2Sorter); 2] = [
        (&factories::k2(), 4, &Hypercube2Sorter),
        (&factories::path(4), 2, &ShearSorter),
    ];
    for (factor, r, sorter) in cases {
        let shape = Shape::new(factor.n(), r);
        let n = shape.len() as usize;
        let program = compile(factor, r, sorter);
        let machine = BspMachine::new(factor, r);
        let all_inputs: Vec<Vec<u8>> = (0u64..1 << n)
            .map(|mask| (0..n).map(|i| ((mask >> i) & 1) as u8).collect())
            .collect();
        let ctx = format!("factor={} r={r}", factor.name());
        let kernel = machine.lower(&program).expect("validates");
        let vertical = machine.lower_vertical(&program).expect("validates");

        // Column batch vs kernel batch over the whole space.
        let mut cols = all_inputs.clone();
        let mut pool = VerticalPool::new();
        machine.run_vertical_batch(&mut cols, &vertical, &mut pool);
        let mut kern = all_inputs.clone();
        let mut kpool = ScratchPool::new();
        machine.run_kernel_batch(&mut kern, &kernel, &mut kpool);
        assert_eq!(cols, kern, "{ctx}: column batch vs kernel batch");

        // The fault ladder over the whole space: every lane ends
        // equal to the clean kernel batch.
        let mut pools = BatchPools::new();
        for policy in [RetryPolicy::default(), RetryPolicy::detect_only()] {
            for seed in 0..2u64 {
                let ladder = Ladder {
                    plan: FaultPlan::random(seed, 2_000),
                    policy,
                    retries: 1,
                };
                let mut a = all_inputs.clone();
                let lane = |i: usize| i as u64;
                let run = batch::run(&machine, &vertical, &mut a, lane, &ladder, &mut pools);
                assert!(run.lanes.iter().all(Result::is_ok), "{ctx} seed={seed}");
                assert_eq!(a, kern, "{ctx} seed={seed}: fault ladder vs kernel batch");
            }
        }
    }
}

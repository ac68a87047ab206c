//! Allocation accounting for the kernel tier: after one warm-up run,
//! `BspMachine::run_kernel` with a caller-owned [`ExecScratch`] must
//! perform **zero** heap allocations per call — the whole point of the
//! flat structure-of-arrays lowering.
//!
//! The proof is a counting `#[global_allocator]` wrapping the system
//! allocator. This must be the only test in the binary: the counter is
//! process-global, and a concurrent test would pollute the deltas.

use pns_graph::factories;
use pns_obs::CountingAlloc;
use pns_simulator::{compile, BspMachine, ExecScratch, ShearSorter};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

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
fn warm_kernel_runs_do_not_allocate() {
    // Two shapes with different round mixes: the 3-ary 3-cube (pure
    // grid routing) and a star factor square (relay moves → Route
    // rounds with transit traffic).
    let cases = [(factories::path(3), 3usize), (factories::star(4), 2usize)];
    for (factor, r) in cases {
        let program = compile(&factor, r, &ShearSorter);
        let bsp = BspMachine::new(&factor, r);
        let kernel = bsp.lower(&program).expect("compiled programs validate");
        let len = kernel.shape().len();

        let input = lcg_keys(len, 7);
        let mut keys = input.clone();
        let mut scratch = ExecScratch::new();

        // Warm-up: scratch buffers grow to the program's high-water mark.
        bsp.run_kernel(&mut keys, &kernel, &mut scratch);
        let reference = keys.clone();

        let before = CountingAlloc::count();
        for _ in 0..32 {
            keys.clone_from_slice(&input);
            bsp.run_kernel(&mut keys, &kernel, &mut scratch);
        }
        let delta = CountingAlloc::count() - before;
        assert_eq!(
            delta,
            0,
            "factor={} r={r}: {delta} allocations across 32 warm run_kernel calls",
            factor.name()
        );

        // The measured runs did real work: same output as the warm-up.
        assert_eq!(keys, reference, "warm runs stay correct");
        assert!(
            pns_simulator::netsort::is_snake_sorted(kernel.shape(), &keys),
            "factor={} r={r}: kernel output must be sorted",
            factor.name()
        );
    }
}

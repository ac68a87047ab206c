//! Wall-clock benches for the batched BSP executors (E16) and the flat
//! kernel tier (E19): the validating interpreter vs the kernel on single
//! vectors, batched throughput as the batch grows, the batch dispatcher
//! with and without a fault plan, and compile-from-scratch vs
//! program-cache hit.
//!
//! Groups share one set of compiled + lowered fixtures (built once in a
//! `OnceLock`) so criterion timing never includes compilation and every
//! group benches the *same* program bytes. The only intentional
//! exception is `program_cache/compile_cold`, whose subject *is* the
//! compile.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pns_graph::{factories, Graph};
use pns_simulator::batch::{self, BatchPools, Ladder};
use pns_simulator::bsp::{BspMachine, CompiledProgram};
use pns_simulator::{
    compile, BitScratch, ExecScratch, Hypercube2Sorter, KernelProgram, Machine, ProgramCache,
    ScratchPool, ShearSorter, VerticalPool, VerticalProgram,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::OnceLock;

fn random_keys(len: u64, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.random_range(0..1_000_000)).collect()
}

/// Everything the groups execute, compiled and lowered exactly once.
struct Fixtures {
    /// Relabeled Petersen graph, squared: the batched-throughput shape.
    petersen: Graph,
    petersen_kernel: KernelProgram,
    petersen_vertical: VerticalProgram,
    /// 3-ary 3-cube (`path(3)`, r = 3): the E19 kernel-speedup shape.
    cube3: Graph,
    cube3_program: CompiledProgram,
    cube3_kernel: KernelProgram,
    /// 10-cube: the large single-vector shape.
    k2: Graph,
    k2_program: CompiledProgram,
    k2_kernel: KernelProgram,
}

fn fixtures() -> &'static Fixtures {
    static FIXTURES: OnceLock<Fixtures> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let petersen = Machine::prepare_factor(&factories::petersen());
        let petersen_program = compile(&petersen, 2, &ShearSorter);
        let petersen_kernel = BspMachine::new(&petersen, 2)
            .lower(&petersen_program)
            .expect("petersen program validates");
        let petersen_vertical = BspMachine::new(&petersen, 2)
            .lower_vertical(&petersen_program)
            .expect("petersen program validates");
        let cube3 = factories::path(3);
        let cube3_program = compile(&cube3, 3, &ShearSorter);
        let cube3_kernel = BspMachine::new(&cube3, 3)
            .lower(&cube3_program)
            .expect("cube program validates");
        let k2 = factories::k2();
        let k2_program = compile(&k2, 10, &Hypercube2Sorter);
        let k2_kernel = BspMachine::new(&k2, 10)
            .lower(&k2_program)
            .expect("cube program validates");
        Fixtures {
            petersen,
            petersen_kernel,
            petersen_vertical,
            cube3,
            cube3_program,
            cube3_kernel,
            k2,
            k2_program,
            k2_kernel,
        }
    })
}

fn bench_single_vector(c: &mut Criterion) {
    let mut group = c.benchmark_group("bsp_single");
    let fx = fixtures();
    let r = 10; // 1024 nodes.
    let bsp = BspMachine::new(&fx.k2, r);
    let keys = random_keys(1 << r, 7);
    group.bench_function("serial_run", |b| {
        b.iter(|| {
            let mut k = keys.clone();
            bsp.run(&mut k, black_box(&fx.k2_program));
            black_box(k)
        });
    });
    let mut scratch = ExecScratch::new();
    group.bench_function("kernel_run", |b| {
        b.iter(|| {
            let mut k = keys.clone();
            bsp.run_kernel(&mut k, black_box(&fx.k2_kernel), &mut scratch);
            black_box(k)
        });
    });
    group.finish();
}

fn bench_batched(c: &mut Criterion) {
    let mut group = c.benchmark_group("bsp_batch");
    let fx = fixtures();
    let bsp = BspMachine::new(&fx.petersen, 2);
    let len = 100u64;
    for batch_size in [1usize, 4, 16, 64] {
        let batch: Vec<Vec<u64>> = (0..batch_size as u64)
            .map(|s| random_keys(len, 11 + s))
            .collect();
        let mut pools = BatchPools::new();
        let clean = Ladder::clean();
        group.bench_with_input(
            BenchmarkId::new("dispatcher", batch_size),
            &batch,
            |b, batch| {
                b.iter(|| {
                    let mut batch = batch.clone();
                    let lane = |i: usize| i as u64;
                    let run = batch::run(
                        &bsp,
                        &fx.petersen_vertical,
                        &mut batch,
                        lane,
                        &clean,
                        &mut pools,
                    );
                    black_box(run);
                    black_box(batch)
                });
            },
        );
        let mut pool = ScratchPool::new();
        group.bench_with_input(
            BenchmarkId::new("run_kernel_batch", batch_size),
            &batch,
            |b, batch| {
                b.iter(|| {
                    let mut batch = batch.clone();
                    black_box(bsp.run_kernel_batch(&mut batch, &fx.petersen_kernel, &mut pool));
                    black_box(batch)
                });
            },
        );
    }
    group.finish();
}

/// Interpreter vs lowered kernel on the E19 reference workload: the
/// 3-ary 3-cube, single vectors and a 16-vector batch. The kernel
/// skips per-run validation, allocates nothing after warm-up, and
/// dispatches each round on a one-byte class tag.
fn bench_kernel_speedup(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_speedup");
    let fx = fixtures();
    let bsp = BspMachine::new(&fx.cube3, 3);
    let len = fx.cube3_kernel.shape().len();
    let keys = random_keys(len, 41);

    group.bench_function("interpreter_run", |b| {
        b.iter(|| {
            let mut k = keys.clone();
            bsp.run(&mut k, black_box(&fx.cube3_program));
            black_box(k)
        });
    });
    let mut scratch = ExecScratch::new();
    group.bench_function("kernel_run", |b| {
        b.iter(|| {
            let mut k = keys.clone();
            bsp.run_kernel(&mut k, black_box(&fx.cube3_kernel), &mut scratch);
            black_box(k)
        });
    });

    let batch: Vec<Vec<u64>> = (0..16u64).map(|s| random_keys(len, 43 + s)).collect();
    let mut pool = ScratchPool::new();
    group.bench_function("kernel_run_batch_16", |b| {
        b.iter(|| {
            let mut batch = batch.clone();
            black_box(bsp.run_kernel_batch(&mut batch, &fx.cube3_kernel, &mut pool));
            black_box(batch)
        });
    });
    group.finish();
}

/// Observability tax on the batched hot path. `run_kernel_batch` with
/// the default (disabled) logger must stay within noise of the
/// uninstrumented numbers — the disabled `EventLogger` is one branch,
/// and the per-vector inner loops are not instrumented at all. The
/// `memory_sink` variant shows the cost of actually enabling tracing
/// (one batch span + one `BatchScheduled` event per batch).
fn bench_obs_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_overhead");
    let fx = fixtures();
    let batch: Vec<Vec<u64>> = (0..16).map(|s| random_keys(100, 23 + s)).collect();

    let bsp = BspMachine::new(&fx.petersen, 2);
    let mut pool = ScratchPool::new();
    group.bench_function("kernel_batch_disabled_logger", |b| {
        b.iter(|| {
            let mut batch = batch.clone();
            black_box(bsp.run_kernel_batch(&mut batch, &fx.petersen_kernel, &mut pool));
            black_box(batch)
        });
    });

    let mut traced = BspMachine::new(&fx.petersen, 2);
    let (sink, _reader) = pns_obs::MemorySink::with_capacity(1 << 20);
    traced.attach_logger(pns_obs::EventLogger::new(Box::new(sink)));
    group.bench_function("kernel_batch_memory_sink", |b| {
        b.iter(|| {
            let mut batch = batch.clone();
            black_box(traced.run_kernel_batch(&mut batch, &fx.petersen_kernel, &mut pool));
            black_box(batch)
        });
    });

    // The span-layer tax on the hot tiers. The `disabled` variants are
    // the baseline (a disabled logger's span() is one branch, no clock
    // read — the <2% bar); the `summary`/`profile` variants price an
    // actually-attached aggregating sink (<5% bar). Round events and
    // spans on these tiers gate on ROUND_OBS_MIN_OPS, which is what
    // keeps the enabled tax bounded on small-round programs.
    let keys = random_keys(27, 41);
    let kernel_machine = BspMachine::new(&fx.cube3, 3);
    let mut scratch = ExecScratch::new();
    group.bench_function("kernel_run_disabled", |b| {
        b.iter(|| {
            let mut k = keys.clone();
            black_box(kernel_machine.run_kernel(&mut k, &fx.cube3_kernel, &mut scratch));
            black_box(k)
        });
    });
    for (name, sink) in [
        (
            "kernel_run_summary",
            Box::new(pns_obs::SummarySink::new("bench")) as Box<dyn pns_obs::Sink>,
        ),
        (
            "kernel_run_profile",
            Box::new(pns_obs::ProfileSink::new("bench", None)),
        ),
    ] {
        let mut traced = BspMachine::new(&fx.cube3, 3);
        traced.attach_logger(pns_obs::EventLogger::new(sink));
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut k = keys.clone();
                black_box(traced.run_kernel(&mut k, &fx.cube3_kernel, &mut scratch));
                black_box(k)
            });
        });
    }

    let words: Vec<u64> = random_keys(100, 43);
    let bits_machine = BspMachine::new(&fx.petersen, 2);
    let mut bits = BitScratch::new();
    group.bench_function("vertical_bits_disabled", |b| {
        b.iter(|| {
            let mut w = words.clone();
            black_box(bits_machine.run_vertical_bits(&mut w, &fx.petersen_vertical, &mut bits));
            black_box(w)
        });
    });
    for (name, sink) in [
        (
            "vertical_bits_summary",
            Box::new(pns_obs::SummarySink::new("bench")) as Box<dyn pns_obs::Sink>,
        ),
        (
            "vertical_bits_profile",
            Box::new(pns_obs::ProfileSink::new("bench", None)),
        ),
    ] {
        let mut traced = BspMachine::new(&fx.petersen, 2);
        traced.attach_logger(pns_obs::EventLogger::new(sink));
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut w = words.clone();
                black_box(traced.run_vertical_bits(&mut w, &fx.petersen_vertical, &mut bits));
                black_box(w)
            });
        });
    }
    group.finish();
}

/// Fault-layer tax on the batched hot path. With a disabled
/// `FaultPlan`, the batch dispatcher takes the kernel batch with no
/// decision hashing, no checkpoints, and no certificate checks, so it
/// must stay within noise (the acceptance bar is < 2%) of plain
/// `run_kernel_batch`. The enabled variant prices the retry ladder at
/// a realistic rate (1 fault per 1000 sites).
fn bench_fault_overhead(c: &mut Criterion) {
    use pns_simulator::{FaultPlan, RetryPolicy};
    let mut group = c.benchmark_group("fault_overhead");
    let fx = fixtures();
    let batch: Vec<Vec<u64>> = (0..16).map(|s| random_keys(100, 31 + s)).collect();
    let bsp = BspMachine::new(&fx.petersen, 2);

    let mut pool = ScratchPool::new();
    group.bench_function("kernel_batch_plain", |b| {
        b.iter(|| {
            let mut batch = batch.clone();
            black_box(bsp.run_kernel_batch(&mut batch, &fx.petersen_kernel, &mut pool));
            black_box(batch)
        });
    });

    let mut pools = BatchPools::new();
    for (name, plan) in [
        ("dispatcher_faults_disabled", FaultPlan::disabled()),
        ("dispatcher_faults_rate_1000", FaultPlan::random(5, 1_000)),
    ] {
        let ladder = Ladder {
            plan,
            policy: RetryPolicy::default(),
            retries: 0,
        };
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut batch = batch.clone();
                let lane = |i: usize| i as u64;
                let run = batch::run(
                    &bsp,
                    &fx.petersen_vertical,
                    &mut batch,
                    lane,
                    &ladder,
                    &mut pools,
                );
                black_box(run);
                black_box(batch)
            });
        });
    }
    group.finish();
}

/// The E20 bar: bit-sliced vertical execution against the flat kernel
/// batch on 64-lane workloads of the petersen-squared shape (100
/// nodes). `vertical_bits` packs the 64 0/1 lanes into one u64 word
/// per node and replaces 64 compare-exchanges with one AND/OR pair;
/// the acceptance bar (ISSUE 6) is ≥ 4× over `run_kernel_batch` on
/// the same 0/1 batch. `vertical_batch` prices the full-key column
/// path (swap-on-mask, no word-level parallelism) on both 0/1 and
/// general keys for comparison.
fn bench_vertical_speedup(c: &mut Criterion) {
    let mut group = c.benchmark_group("vertical_speedup");
    let fx = fixtures();
    let bsp = BspMachine::new(&fx.petersen, 2);
    let len = fx.petersen_kernel.shape().len();

    // One packed word block: bit l of words[i] is lane l's 0/1 key at
    // node i — 64 random 0/1 lanes in `len` words.
    let mut rng = StdRng::seed_from_u64(59);
    let words: Vec<u64> = (0..len).map(|_| rng.random_range(0..u64::MAX)).collect();
    let batch01: Vec<Vec<u64>> = (0..64)
        .map(|l| (0..len as usize).map(|i| (words[i] >> l) & 1).collect())
        .collect();

    let mut pool = ScratchPool::new();
    group.bench_function("kernel_batch_64x_zero_one", |b| {
        b.iter(|| {
            let mut batch = batch01.clone();
            black_box(bsp.run_kernel_batch(&mut batch, &fx.petersen_kernel, &mut pool));
            black_box(batch)
        });
    });
    let mut bits = BitScratch::new();
    group.bench_function("vertical_bits_64x_zero_one", |b| {
        b.iter(|| {
            let mut w = words.clone();
            black_box(bsp.run_vertical_bits(&mut w, &fx.petersen_vertical, &mut bits));
            black_box(w)
        });
    });
    let mut vpool = VerticalPool::new();
    group.bench_function("vertical_batch_64x_zero_one", |b| {
        b.iter(|| {
            let mut batch = batch01.clone();
            black_box(bsp.run_vertical_batch(&mut batch, &fx.petersen_vertical, &mut vpool));
            black_box(batch)
        });
    });

    let full: Vec<Vec<u64>> = (0..64u64).map(|s| random_keys(len, 61 + s)).collect();
    group.bench_function("kernel_batch_64x_full_keys", |b| {
        b.iter(|| {
            let mut batch = full.clone();
            black_box(bsp.run_kernel_batch(&mut batch, &fx.petersen_kernel, &mut pool));
            black_box(batch)
        });
    });
    group.bench_function("vertical_batch_64x_full_keys", |b| {
        b.iter(|| {
            let mut batch = full.clone();
            black_box(bsp.run_vertical_batch(&mut batch, &fx.petersen_vertical, &mut vpool));
            black_box(batch)
        });
    });
    group.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("program_cache");
    let factor = factories::k2();
    let r = 8;
    // Intentionally *not* a fixture: the subject is the compile itself.
    group.bench_function("compile_cold", |b| {
        b.iter(|| black_box(compile(&factor, r, &Hypercube2Sorter)));
    });
    let cache = ProgramCache::new();
    let _warm = cache.get_or_compile(&factor, r, &Hypercube2Sorter);
    group.bench_function("cache_hit", |b| {
        b.iter(|| black_box(cache.get_or_compile(&factor, r, &Hypercube2Sorter)));
    });
    // A machine on a warm cache: one lookup, no compile and no replay.
    group.bench_function("machine_build_warm", |b| {
        b.iter(|| black_box(Machine::compiled(&factor, r, &Hypercube2Sorter, &cache)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_single_vector,
    bench_batched,
    bench_kernel_speedup,
    bench_obs_overhead,
    bench_fault_overhead,
    bench_vertical_speedup,
    bench_cache
);
criterion_main!(benches);

//! The library workload: `pns_simulator::Machine` over four shapes, no
//! service.
//!
//! Set-up builds `Machine::compiled_with(.., SorterChoice::Auto, ..)`
//! for `k2^12`, `petersen^3`, `star(5)^3` and `path(8)^3`. One cycle
//! sends each shape one 256-lane `sort_batch` (vertical column tier),
//! four 16-lane `sort_batch` calls (kernel batch tier) and 16 single
//! `sort` calls. Lanes are half uniform, a quarter already snake-sorted
//! and a quarter drawn from four distinct values.
//!
//! A request is one lane; its latency is the duration of the call that
//! returned it.

use crate::build::{self, Counts, WIDE_LANES};
use crate::inputs::{expected, is_correct, mixed_lane, Rng};
use crate::trace::{median, nanos, quantile, quiet_half, Tracer};
use crate::{
    host_steal_ticks, layer_metrics, metric, ns_per_key, peak_rss_mb, Args, Report, SetupProbe,
    SEGMENTS,
};
use pns_baselines::radix_sort_u64;
use pns_graph::{factories, Graph};
use pns_order::Shape;
use pns_simulator::vertical::VerticalPool;
use pns_simulator::{
    BspMachine, ExecScratch, KernelProgram, Machine, ProgramCache, ScratchPool, SorterChoice,
    VerticalProgram,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NARROW_LANES: usize = 16;
const NARROW_CALLS: usize = 4;
const SINGLE_CALLS: usize = 16;
const CALLS_PER_SHAPE: usize = 1 + NARROW_CALLS + SINGLE_CALLS;

fn shapes() -> [(Graph, usize); 4] {
    [
        (factories::k2(), 12),
        (factories::petersen(), 3),
        (factories::star(5), 3),
        (factories::path(8), 3),
    ]
}

/// One shape, ready to sort, with what the traced run replays on.
pub struct ZooShape {
    label: String,
    sorter: &'static str,
    machine: Machine,
    bsp: BspMachine,
    kernel: Arc<KernelProgram>,
    vertical: Arc<VerticalProgram>,
    kernel_pool: ScratchPool<u64>,
    vertical_pool: VerticalPool<u64>,
    scratch: ExecScratch<u64>,
}

impl ZooShape {
    fn shape(&self) -> Shape {
        self.machine.shape()
    }
}

/// What the traced set-up measured on top of the machines.
pub struct SetupCounts {
    /// Program sizes summed over the shapes.
    counts: Counts,
    hit_ratio: f64,
    consistent: bool,
}

/// Build every shape's machine on a cold cache. With a tracer, each
/// set-up layer is a span and the deterministic sizes are returned.
pub fn setup(tracer: Option<&mut Tracer>) -> (Vec<ZooShape>, SetupCounts) {
    let mut counts = SetupCounts {
        counts: Counts::default(),
        hit_ratio: 0.0,
        consistent: true,
    };
    let cache = ProgramCache::new();
    let mut tracer = tracer;
    if let Some(t) = tracer.as_deref_mut() {
        t.enter("setup", 0);
    }
    let zoo = shapes()
        .into_iter()
        .map(|(factor, r)| {
            let machine = match tracer.as_deref_mut() {
                None => Machine::compiled_with(&factor, r, SorterChoice::Auto, &cache),
                Some(t) => {
                    let built = build::traced(t, &factor, r, &cache);
                    for (sum, (name, value)) in counts.counts.iter_mut().zip(built.counts) {
                        *sum = (name, sum.1 + value);
                    }
                    counts.consistent &= built.consistent;
                    built.machine
                }
            };
            let kernel = Arc::clone(machine.kernel().expect("compiled machines hold a kernel"));
            let vertical = Arc::clone(
                machine
                    .vertical()
                    .expect("compiled machines hold a vertical program"),
            );
            ZooShape {
                label: format!("{}^{r}", factor.name()),
                sorter: SorterChoice::Auto.resolve(&factor).name(),
                bsp: BspMachine::new(&factor, r),
                machine,
                kernel,
                vertical,
                kernel_pool: ScratchPool::new(),
                vertical_pool: VerticalPool::new(),
                scratch: ExecScratch::new(),
            }
        })
        .collect();
    if let Some(t) = tracer {
        t.exit();
    }
    counts.hit_ratio = cache.stats().hit_ratio();
    (zoo, counts)
}

/// One cycle's timings.
struct CycleRecord {
    lanes: u64,
    /// Time inside `Machine` calls.
    busy_ns: u64,
    /// Host steal over the cycle, if readable.
    steal: Option<u64>,
    /// Duration of each call, in cycle order.
    call_ns: Vec<u64>,
}

/// Outcomes of a run of whole cycles.
#[derive(Default)]
struct Cycles {
    cycles: Vec<CycleRecord>,
    lanes: u64,
    wrong: u64,
    /// Machine call time and tier replay time (traced cycles).
    machine_ns: u64,
    replay_ns: u64,
    vertical_keys: u64,
    kernel_keys: u64,
    baseline_keys: u64,
}

impl Cycles {
    /// The half of the cycles in which the hypervisor stole the least
    /// CPU time from the machine.
    fn quiet(&self) -> Vec<&CycleRecord> {
        let steal: Vec<Option<u64>> = self.cycles.iter().map(|c| c.steal).collect();
        self.cycles
            .iter()
            .zip(quiet_half(&steal))
            .filter_map(|(c, keep)| keep.then_some(c))
            .collect()
    }

    /// Median over quiet cycles of lanes per second of machine time.
    fn requests_per_s(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let mut rates: Vec<f64> = self
            .quiet()
            .iter()
            .map(|c| c.lanes as f64 / (c.busy_ns.max(1) as f64 / 1e9))
            .collect();
        median(&mut rates)
    }

    /// Call latencies of a typical cycle: each call's median duration
    /// over the quiet cycles.
    fn typical_call_ns(&self) -> Vec<u64> {
        let quiet = self.quiet();
        (0..quiet.first().map_or(0, |c| c.call_ns.len()))
            .map(|call| {
                let mut durations: Vec<u64> = quiet.iter().map(|c| c.call_ns[call]).collect();
                quantile(&mut durations, 0.5)
            })
            .collect()
    }
}

/// The calls one cycle sends each shape, as (lanes, lane-mix offset).
fn call_plan() -> impl Iterator<Item = (usize, usize)> {
    std::iter::once((WIDE_LANES, 0))
        .chain(std::iter::repeat_n((NARROW_LANES, 0), NARROW_CALLS))
        .chain((0..SINGLE_CALLS).map(|j| (1, j)))
}

/// The inputs of one call: the lanes, and what each must read in snake
/// order. `kind` offsets the lane mix so single calls rotate through it.
fn call_inputs(
    rng: &mut Rng,
    shape: Shape,
    lanes: usize,
    kind: usize,
) -> (Vec<Vec<u64>>, Vec<Vec<u64>>) {
    let batch: Vec<Vec<u64>> = (0..lanes)
        .map(|l| mixed_lane(rng, shape, l + kind))
        .collect();
    let want = batch.iter().map(|lane| expected(lane)).collect();
    (batch, want)
}

/// Run cycles until `duration` has passed (at least one).
fn run_cycles(
    zoo: &mut [ZooShape],
    seed: u64,
    first_cycle: &mut u64,
    duration: Duration,
    mut tracer: Option<&mut Tracer>,
) -> Cycles {
    let mut out = Cycles::default();
    let start = Instant::now();
    loop {
        let cycle = *first_cycle;
        *first_cycle += 1;
        let steal_start = host_steal_ticks();
        let mut record = CycleRecord {
            lanes: 0,
            busy_ns: 0,
            steal: None,
            call_ns: Vec::with_capacity(zoo.len() * CALLS_PER_SHAPE),
        };
        for (s, z) in zoo.iter_mut().enumerate() {
            let mut rng = Rng::new(seed, cycle << 8 | s as u64);
            let shape = z.shape();
            for (c, (lanes, kind)) in call_plan().enumerate() {
                let id = cycle << 16 | (s as u64) << 8 | c as u64;
                let (batch, want) = call_inputs(&mut rng, shape, lanes, kind);
                let copies = tracer.is_some().then(|| batch.clone());
                let start = Instant::now();
                let outputs: Vec<Option<Vec<u64>>> = if lanes == 1 {
                    let keys = batch.into_iter().next().expect("one lane");
                    vec![z.machine.sort(keys).ok().map(|r| r.keys)]
                } else {
                    z.machine
                        .sort_batch(batch)
                        .into_iter()
                        .map(|r| r.ok().map(|r| r.keys))
                        .collect()
                };
                let end = Instant::now();
                let ns = nanos(start, end);
                record.busy_ns += ns;
                record.lanes += lanes as u64;
                record.call_ns.push(ns);
                for (got, want) in outputs.iter().zip(&want) {
                    let ok = got.as_ref().is_some_and(|got| is_correct(shape, want, got));
                    out.wrong += u64::from(!ok);
                }
                if let (Some(t), Some(copies)) = (tracer.as_deref_mut(), copies) {
                    let name = if lanes == 1 {
                        "simulator.machine.sort"
                    } else {
                        "simulator.machine.sort_batch"
                    };
                    t.record(name, id, start, end);
                    out.machine_ns += ns;
                    replay(t, z, id, copies, &outputs, &mut out);
                }
            }
        }
        record.steal = host_steal_ticks()
            .zip(steal_start)
            .map(|(end, start)| end.saturating_sub(start));
        out.lanes += record.lanes;
        out.cycles.push(record);
        if start.elapsed() >= duration {
            return out;
        }
    }
}

/// Re-run the tier the machine used on copies of its inputs, compare
/// bit for bit, and time the reference sorts on the same lanes.
fn replay(
    t: &mut Tracer,
    z: &mut ZooShape,
    id: u64,
    copies: Vec<Vec<u64>>,
    outputs: &[Option<Vec<u64>>],
    out: &mut Cycles,
) {
    let keys = z.shape().len() * copies.len() as u64;
    for lane in &copies {
        let mut radix = lane.clone();
        t.time("baselines.radix", id, || radix_sort_u64(&mut radix));
        let mut std_sorted = lane.clone();
        t.time("std.sort_unstable", id, || std_sorted.sort_unstable());
        out.wrong += u64::from(radix != std_sorted);
    }
    out.baseline_keys += keys;
    let mut lanes = copies;
    let ns = if lanes.len() >= WIDE_LANES {
        out.vertical_keys += keys;
        t.time("simulator.vertical", id, || {
            z.bsp
                .run_vertical_batch(&mut lanes, &z.vertical, &mut z.vertical_pool)
        })
        .1
    } else if lanes.len() > 1 {
        out.kernel_keys += keys;
        t.time("simulator.kernel", id, || {
            z.bsp
                .run_kernel_batch(&mut lanes, &z.kernel, &mut z.kernel_pool)
        })
        .1
    } else {
        out.kernel_keys += keys;
        t.time("simulator.kernel", id, || {
            z.bsp.run_kernel(&mut lanes[0], &z.kernel, &mut z.scratch)
        })
        .1
    };
    out.replay_ns += ns;
    for (replayed, got) in lanes.iter().zip(outputs) {
        out.wrong += u64::from(got.as_ref() != Some(replayed));
    }
}

/// The end-to-end run with set-up samples from `probe`, or without one,
/// the traced run.
pub fn run(args: &Args, probe: Option<&mut SetupProbe>) -> Result<Report, String> {
    let mut tracer = args.trace.then(Tracer::new);
    let (mut zoo, counts) = setup(tracer.as_mut());
    for z in &zoo {
        eprintln!(
            "perfbench: {} nodes={} sorter={}",
            z.label,
            z.shape().len(),
            z.sorter
        );
    }
    let total = Duration::from_secs_f64(args.seconds);
    let mut cycle = 0;
    let warm = run_cycles(
        &mut zoo,
        args.seed,
        &mut cycle,
        (total / 10).min(Duration::from_secs(1)),
        None,
    );

    let Some(mut tracer) = tracer else {
        // The cycles run in segments; before each, `probe` times cold
        // set-ups in fresh processes.
        let probe = probe.ok_or("an untraced run needs a set-up probe")?;
        let mut run = Cycles {
            lanes: warm.lanes,
            wrong: warm.wrong,
            ..Cycles::default()
        };
        for _ in 0..SEGMENTS {
            probe.sample()?;
            let part = run_cycles(&mut zoo, args.seed, &mut cycle, total / SEGMENTS, None);
            run.cycles.extend(part.cycles);
            run.lanes += part.lanes;
            run.wrong += part.wrong;
        }
        let rss = peak_rss_mb();
        // A lane's latency is the duration of the call that returned it.
        // These cluster by shape and call type, so any one order statistic
        // jumps between clusters from run to run; the geometric mean over
        // the lanes moves smoothly with every call.
        let plan: Vec<(usize, usize)> = call_plan().collect();
        let (log_sum, lanes) = run.typical_call_ns().iter().zip(plan.iter().cycle()).fold(
            (0.0, 0),
            |(sum, n), (&ns, &(lanes, _))| {
                #[allow(clippy::cast_precision_loss)]
                let log = lanes as f64 * (ns.max(1) as f64).ln();
                (sum + log, n + lanes)
            },
        );
        #[allow(clippy::cast_precision_loss)]
        let log_mean = log_sum / lanes.max(1) as f64;
        #[allow(clippy::cast_precision_loss)]
        let ok_share = (run.lanes - run.wrong) as f64 / run.lanes.max(1) as f64;
        let metrics = vec![
            metric("requests_per_s", run.requests_per_s(), "req/s"),
            metric("latency_p50_ms", log_mean.exp() / 1e6, "ms"),
            metric("ok_share", ok_share, "ratio"),
            metric("clean_share", 1.0, "ratio"),
            metric("peak_rss_mb", rss, "MB"),
        ];
        return Ok(Report {
            attempted: run.lanes,
            failed: run.wrong,
            wrong: run.wrong,
            degraded: 0,
            metrics,
            counts: Vec::new(),
            trace: None,
        });
    };

    let half = total / 2;
    let untraced = run_cycles(&mut zoo, args.seed, &mut cycle, half, None);
    let traced = run_cycles(&mut zoo, args.seed, &mut cycle, half, Some(&mut tracer));
    let rps_untraced = untraced.requests_per_s();
    let rps_traced = traced.requests_per_s();
    let mut latencies = traced.typical_call_ns();
    let total_ms = |name: &str| tracer.stat(name).total_ns as f64 / 1e6;
    let per_key = |name: &str, keys: u64| ns_per_key(tracer.stat(name).total_ns, keys);
    let mut deterministic = counts.counts.to_vec();
    #[allow(clippy::cast_precision_loss)]
    deterministic.extend([
        ("simulator.cache.hit_ratio", counts.hit_ratio),
        (
            "simulator.machine.calls_per_cycle",
            (zoo.len() * CALLS_PER_SHAPE) as f64,
        ),
    ]);
    #[allow(clippy::cast_precision_loss)]
    let mut values = vec![
        ("loadgen.samples", traced.lanes as f64),
        (
            "loadgen.latency_p95_ms",
            quantile(&mut latencies, 0.95) as f64 / 1e6,
        ),
        (
            "loadgen.latency_p99_ms",
            quantile(&mut latencies, 0.99) as f64 / 1e6,
        ),
        ("simulator.select.ms", total_ms("simulator.select")),
        ("simulator.compile.ms", total_ms("simulator.compile")),
        (
            "simulator.lower_kernel.ms",
            total_ms("simulator.lower_kernel"),
        ),
        (
            "simulator.lower_vertical.ms",
            total_ms("simulator.lower_vertical"),
        ),
        (
            "simulator.machine_build.ms",
            total_ms("simulator.machine_build"),
        ),
        ("simulator.machine.busy_ms", traced.machine_ns as f64 / 1e6),
        (
            "simulator.machine.overhead_share",
            (traced.machine_ns as f64 - traced.replay_ns as f64) / traced.machine_ns.max(1) as f64,
        ),
        (
            "simulator.vertical.ns_per_key",
            per_key("simulator.vertical", traced.vertical_keys),
        ),
        (
            "simulator.kernel.ns_per_key",
            per_key("simulator.kernel", traced.kernel_keys),
        ),
        (
            "baselines.radix.ns_per_key",
            per_key("baselines.radix", traced.baseline_keys),
        ),
        (
            "std.sort_unstable.ns_per_key",
            per_key("std.sort_unstable", traced.baseline_keys),
        ),
        (
            "trace.overhead_share",
            (rps_untraced - rps_traced) / rps_untraced.max(f64::MIN_POSITIVE),
        ),
    ];
    values.extend_from_slice(&deterministic);
    let wrong = warm.wrong + untraced.wrong + traced.wrong + u64::from(!counts.consistent);
    Ok(Report {
        attempted: warm.lanes + untraced.lanes + traced.lanes,
        failed: wrong,
        wrong,
        degraded: 0,
        metrics: layer_metrics(&values),
        counts: deterministic,
        trace: Some(tracer),
    })
}

//! The service workloads: one generator thread drives a one-worker
//! `SortService` over a single registered shape.
//!
//! * `serve_trickle` — open loop, 20 000 requests/s on a fixed
//!   schedule, 9-key `path(3)^2`. Latency runs from each request's due
//!   time, so a late generator shows as latency (and in
//!   `loadgen.late_p99_ms`).
//! * `serve_flood` — closed loop with 512 requests outstanding, same
//!   shape: batches fill to 256 lanes. Too sensitive to the host's vCPU
//!   scheduling to gate on (see `README.md`), so run by hand only.
//! * `serve_faulty` — closed loop with 64 outstanding, 27-key
//!   `path(3)^3`, a random fault plan at 10 000 per million and a
//!   breaker that never trips.

use crate::build::{self, Built};
use crate::inputs::{expected, is_correct, Rng};
use crate::trace::{median, nanos, quantile, quiet_half, Tracer};
use crate::{host_steal_ticks, metric, peak_rss_mb, Args, Report, SetupProbe, Workload, SEGMENTS};
use pns_baselines::radix_sort_u64;
use pns_graph::{factories, Graph};
use pns_order::Shape;
use pns_service::{
    BreakerConfig, ServiceConfig, ServiceError, ServiceStats, SortResponse, SortService, Ticket,
};
use pns_simulator::vertical::{VerticalPool, VERTICAL_MIN_LANES};
use pns_simulator::{BspMachine, ExecScratch, FaultPlan, ProgramCache, ScratchPool};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

const TENANT: u32 = 0;
const SHAPE: usize = 0;
/// Throughput is the median over windows of this length.
const WINDOW: Duration = Duration::from_millis(500);
/// Windows with fewer latency samples do not give a percentile.
const MIN_WINDOW_SAMPLES: usize = 100;
/// Served lanes kept for the tier replay.
const REPLAY_LANES: usize = 256;
/// Times the replay runs; its batch time is the median.
const REPLAY_ROUNDS: usize = 5;
/// Seed stream of the fault plan (request keys use their index).
const FAULT_STREAM: u64 = u64::MAX;

enum Load {
    /// Requests per second on a fixed schedule.
    Open(f64),
    /// Requests kept outstanding.
    Closed(usize),
}

struct Spec {
    factor: Graph,
    r: usize,
    load: Load,
    fault_rate_per_million: u64,
}

fn spec(workload: Workload) -> Spec {
    match workload {
        Workload::ServeTrickle => Spec {
            factor: factories::path(3),
            r: 2,
            load: Load::Open(20_000.0),
            fault_rate_per_million: 0,
        },
        Workload::ServeFlood => Spec {
            factor: factories::path(3),
            r: 2,
            load: Load::Closed(512),
            fault_rate_per_million: 0,
        },
        Workload::ServeFaulty => Spec {
            factor: factories::path(3),
            r: 3,
            load: Load::Closed(64),
            fault_rate_per_million: 10_000,
        },
        Workload::LibZoo => unreachable!("lib_zoo is not a service workload"),
    }
}

fn config(spec: &Spec) -> ServiceConfig {
    let mut config = ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    };
    if spec.fault_rate_per_million > 0 {
        config.breaker = BreakerConfig {
            trip_pct: 0,
            ..BreakerConfig::default()
        };
    }
    config
}

fn plan(spec: &Spec, seed: u64) -> FaultPlan {
    if spec.fault_rate_per_million == 0 {
        FaultPlan::disabled()
    } else {
        FaultPlan::random(
            Rng::new(seed, FAULT_STREAM).next_u64(),
            spec.fault_rate_per_million,
        )
    }
}

/// The keys of request `idx`: regenerated on demand, so the client
/// holds no copy while the request is in flight.
fn keys_for(seed: u64, idx: u64, len: usize) -> Vec<u64> {
    Rng::new(seed, idx).keys(len)
}

/// Register the workload's shape and start the service. With a tracer,
/// the set-up layers are first replayed one span each.
pub fn setup(args: &Args, tracer: Option<&mut Tracer>) -> (SortService, Option<(Built, f64)>) {
    let spec = spec(args.workload);
    let builder = SortService::builder(config(&spec)).fault_plan(plan(&spec, args.seed));
    let Some(tracer) = tracer else {
        let service = builder
            .register_shape(&spec.factor, spec.r)
            .expect("the workload's factor is connected")
            .start();
        return (service, None);
    };
    tracer.enter("setup", 0);
    let cache = ProgramCache::new();
    let built = build::traced(tracer, &spec.factor, spec.r, &cache);
    let hit_ratio = cache.stats().hit_ratio();
    let (builder, _) = tracer.time("service.register_shape", 0, || {
        builder.register_shape(&spec.factor, spec.r)
    });
    let builder = builder.expect("the workload's factor is connected");
    let (service, _) = tracer.time("service.start", 0, || builder.start());
    tracer.exit();
    (service, Some((built, hit_ratio)))
}

/// What one load phase observed.
#[derive(Default)]
struct Phase {
    attempted: u64,
    ok: u64,
    rejected: u64,
    timeouts: u64,
    errors: u64,
    wrong: u64,
    degraded: u64,
    /// Correct replies completed in each window of the phase.
    windows: Vec<Window>,
    /// Host steal counter when the phase ended.
    steal_end: Option<u64>,
    /// Correct replies timed, inside the windows or after the last.
    samples: u64,
    /// The window completions go to now, and their latencies so far.
    open_window: usize,
    open_samples: Vec<u64>,
    /// Generator lateness in ns (open loop, traced phases only).
    late: Vec<u64>,
    /// Most recent served lanes: request index and reply.
    recent: VecDeque<(u64, Vec<u64>)>,
}

impl Phase {
    fn failed(&self) -> u64 {
        self.rejected + self.timeouts + self.errors + self.wrong
    }

    /// Count a correct reply that completed `at_ns` into the phase, with
    /// its latency. Completions arrive in time order, so a window's
    /// percentiles are fixed when the next window opens and only one
    /// window's samples are ever held.
    fn complete(&mut self, at_ns: u64, latency_ns: u64) {
        self.samples += 1;
        let window = at_ns / u64::try_from(WINDOW.as_nanos()).unwrap_or(u64::MAX);
        let Some(window) = usize::try_from(window)
            .ok()
            .filter(|&w| w < self.windows.len())
        else {
            return;
        };
        if window != self.open_window {
            self.close_window();
            self.open_window = window;
        }
        self.windows[window].add(at_ns);
        self.open_samples.push(latency_ns);
    }

    /// Fix the open window's exact percentiles, if it has enough
    /// samples, and drop the samples.
    fn close_window(&mut self) {
        if self.open_samples.len() >= MIN_WINDOW_SAMPLES {
            if let Some(w) = self.windows.get_mut(self.open_window) {
                w.latency_ns =
                    Some([0.50, 0.95, 0.99].map(|q| quantile(&mut self.open_samples, q)));
            }
        }
        self.open_samples.clear();
    }

    /// Statistics of each window with enough samples.
    fn window_stats(&self) -> Vec<WindowStat> {
        self.windows
            .iter()
            .enumerate()
            .filter_map(|(i, w)| {
                let next = self
                    .windows
                    .get(i + 1)
                    .map_or(self.steal_end, |n| n.steal_start);
                Some(WindowStat {
                    rate: w.rate(),
                    latency_ns: w.latency_ns?,
                    steal: next
                        .zip(w.steal_start)
                        .map(|(end, start)| end.saturating_sub(start)),
                })
            })
            .collect()
    }
}

/// One window's throughput, exact latency percentiles (p50, p95, p99)
/// and host steal.
struct WindowStat {
    rate: Option<f64>,
    latency_ns: [u64; 3],
    steal: Option<u64>,
}

/// Medians over the half of the windows in which the hypervisor stole
/// the least CPU time: requests per second, and p50, p95, p99 latency
/// in ms.
fn summarize(windows: &[WindowStat]) -> (f64, [f64; 3]) {
    let steal: Vec<Option<u64>> = windows.iter().map(|w| w.steal).collect();
    let quiet: Vec<&WindowStat> = windows
        .iter()
        .zip(quiet_half(&steal))
        .filter_map(|(w, keep)| keep.then_some(w))
        .collect();
    let mut rates: Vec<f64> = quiet.iter().filter_map(|w| w.rate).collect();
    let latency = [0, 1, 2].map(|q| {
        let mut values: Vec<f64> = quiet.iter().map(|w| ms(w.latency_ns[q])).collect();
        median(&mut values)
    });
    (median(&mut rates), latency)
}

/// Completions inside one throughput window.
#[derive(Clone, Copy, Default)]
struct Window {
    count: u64,
    first_ns: u64,
    last_ns: u64,
    /// Host steal counter at the window's first completion.
    steal_start: Option<u64>,
    /// Exact p50, p95 and p99 latency, once the window has closed with
    /// enough samples.
    latency_ns: Option<[u64; 3]>,
}

impl Window {
    fn add(&mut self, at_ns: u64) {
        if self.count == 0 {
            self.first_ns = at_ns;
            self.steal_start = host_steal_ticks();
        }
        self.count += 1;
        self.last_ns = at_ns;
    }

    /// Completions per second between the window's first and last.
    fn rate(&self) -> Option<f64> {
        let span_ns = self
            .last_ns
            .checked_sub(self.first_ns)
            .filter(|&ns| ns > 0)?;
        #[allow(clippy::cast_precision_loss)]
        let rate = (self.count - 1) as f64 / (span_ns as f64 / 1e9);
        Some(rate)
    }
}

/// Per-request trace spans: `submit` is the call, `wait` runs from the
/// call's return until the client holds the reply.
#[derive(Default)]
struct Spans {
    submit_ns: Vec<u64>,
    wait_ns: Vec<u64>,
}

/// One request's timestamps.
struct Sent {
    idx: u64,
    /// Due time (open loop) or call time (closed loop).
    origin: Instant,
    submit_start: Instant,
    submit_end: Instant,
}

/// Send request `idx`, timing the call.
fn submit(
    service: &SortService,
    seed: u64,
    keys: usize,
    idx: u64,
    origin: Instant,
) -> (Sent, Result<Ticket, ServiceError>) {
    let keys = keys_for(seed, idx, keys);
    let submit_start = Instant::now();
    let ticket = service.submit(TENANT, SHAPE, keys);
    let submit_end = Instant::now();
    let sent = Sent {
        idx,
        origin,
        submit_start,
        submit_end,
    };
    (sent, ticket)
}

struct Client<'a> {
    service: &'a SortService,
    shape: Shape,
    keys: usize,
    seed: u64,
    next_idx: u64,
    tracer: Option<&'a mut Tracer>,
    spans: Spans,
}

impl<'a> Client<'a> {
    fn new(service: &'a SortService, spec: &Spec, seed: u64) -> Self {
        let shape = BspMachine::new(&spec.factor, spec.r).shape();
        Client {
            service,
            shape,
            keys: usize::try_from(shape.len()).expect("shape fits in memory"),
            seed,
            next_idx: 0,
            tracer: None,
            spans: Spans::default(),
        }
    }

    fn submit(&mut self, origin: Instant) -> (Sent, Result<Ticket, ServiceError>) {
        self.next_idx += 1;
        submit(
            self.service,
            self.seed,
            self.keys,
            self.next_idx - 1,
            origin,
        )
    }

    /// Check one resolved request and account it into `phase`.
    fn resolve(
        &mut self,
        phase: &mut Phase,
        phase_start: Instant,
        sent: &Sent,
        reply: Result<SortResponse, ServiceError>,
        done: Instant,
    ) {
        phase.attempted += 1;
        match reply {
            Ok(response) => {
                let sent_keys = keys_for(self.seed, sent.idx, self.keys);
                if !is_correct(self.shape, &expected(&sent_keys), &response.keys) {
                    phase.wrong += 1;
                    return;
                }
                phase.ok += 1;
                phase.degraded += u64::from(response.degraded);
                phase.complete(nanos(phase_start, done), nanos(sent.origin, done));
                if phase.recent.len() == REPLAY_LANES {
                    phase.recent.pop_front();
                }
                phase.recent.push_back((sent.idx, response.keys));
                if let Some(tracer) = self.tracer.as_deref_mut() {
                    let submit = tracer.record(
                        "service.submit",
                        sent.idx,
                        sent.submit_start,
                        sent.submit_end,
                    );
                    let wait = tracer.record("service.wait", sent.idx, sent.submit_end, done);
                    self.spans.submit_ns.push(submit);
                    self.spans.wait_ns.push(wait);
                }
            }
            Err(ServiceError::Rejected(_)) => phase.rejected += 1,
            Err(ServiceError::Timeout { .. }) => phase.timeouts += 1,
            Err(ServiceError::Fault(_) | ServiceError::Internal(_)) => phase.errors += 1,
        }
    }
}

/// Run the workload's load for `duration`, then wait for everything in
/// flight, checking every reply.
fn load_phase(client: &mut Client<'_>, load: &Load, duration: Duration) -> Phase {
    let windows = usize::try_from(duration.as_nanos() / WINDOW.as_nanos()).unwrap_or(0);
    let mut phase = Phase {
        windows: vec![Window::default(); windows],
        ..Phase::default()
    };
    let start = Instant::now();
    let end = start + duration;
    match *load {
        Load::Closed(outstanding) => {
            let mut in_flight: VecDeque<(Sent, Result<Ticket, ServiceError>)> =
                VecDeque::with_capacity(outstanding);
            loop {
                if Instant::now() < end {
                    while in_flight.len() < outstanding {
                        let origin = Instant::now();
                        in_flight.push_back(client.submit(origin));
                    }
                }
                let Some((sent, ticket)) = in_flight.pop_front() else {
                    break;
                };
                let reply = ticket.and_then(Ticket::wait);
                let done = Instant::now();
                client.resolve(&mut phase, start, &sent, reply, done);
                // Collect whatever else has already resolved, in order.
                while let Some((_, Ok(ticket))) = in_flight.front() {
                    let Some(reply) = ticket.wait_for(Duration::ZERO) else {
                        break;
                    };
                    let done = Instant::now();
                    let (sent, _) = in_flight.pop_front().expect("front exists");
                    client.resolve(&mut phase, start, &sent, reply, done);
                }
            }
        }
        Load::Open(per_s) => {
            let interval = Duration::from_secs_f64(1.0 / per_s);
            let service = client.service;
            let (seed, keys, first_idx) = (client.seed, client.keys, client.next_idx);
            let (tx, rx) = mpsc::channel::<(Sent, Result<Ticket, ServiceError>)>();
            let sent_count = std::thread::scope(|scope| {
                let generator = scope.spawn(move || {
                    let mut idx = first_idx;
                    let mut due = start;
                    while due < end {
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        if tx.send(submit(service, seed, keys, idx, due)).is_err() {
                            break;
                        }
                        idx += 1;
                        due += interval;
                    }
                    idx - first_idx
                });
                for (sent, ticket) in rx {
                    let late = nanos(sent.origin, sent.submit_start);
                    let reply = ticket.and_then(Ticket::wait);
                    let done = Instant::now();
                    if client.tracer.is_some() {
                        phase.late.push(late);
                    }
                    client.resolve(&mut phase, start, &sent, reply, done);
                }
                generator.join().expect("generator thread does not panic")
            });
            client.next_idx += sent_count;
        }
    }
    phase.close_window();
    phase.steal_end = host_steal_ticks();
    phase
}

fn stats_delta(before: &ServiceStats, after: &ServiceStats) -> (u64, u64, u64, u64, u64) {
    let completed = |s: &ServiceStats| s.total(|t| t.completed);
    let degraded = |s: &ServiceStats| s.total(|t| t.degraded);
    (
        after.vertical_batches - before.vertical_batches,
        after.kernel_batches - before.kernel_batches,
        completed(after) - completed(before),
        after.retried_lanes - before.retried_lanes,
        degraded(after) - degraded(before),
    )
}

#[allow(clippy::cast_precision_loss)]
fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The end-to-end run with set-up samples from `probe`, or without one,
/// the traced run.
pub fn run(args: &Args, probe: Option<&mut SetupProbe>) -> Result<Report, String> {
    match probe {
        Some(probe) => run_untraced(args, probe),
        None => run_traced(args),
    }
}

fn run_traced(args: &Args) -> Result<Report, String> {
    let spec = spec(args.workload);
    let mut tracer = Tracer::new();
    let (service, built) = setup(args, Some(&mut tracer));
    let mut client = Client::new(&service, &spec, args.seed);
    let total = Duration::from_secs_f64(args.seconds);
    let warm = load_phase(&mut client, &spec.load, warmup(total));

    // Traced run: an untraced half, then a traced half on the same
    // service; the per-layer metrics come from the traced half.
    let (built, hit_ratio) = built.expect("a traced set-up builds the programs");
    let half = total / 2;
    let untraced = load_phase(&mut client, &spec.load, half);
    let before = service.stats();
    client.tracer = Some(&mut tracer);
    let mut traced = load_phase(&mut client, &spec.load, half);
    let spans = std::mem::take(&mut client.spans);
    drop(client);
    let after = service.stats();
    let (vertical_batches, kernel_batches, completed, retried, degraded) =
        stats_delta(&before, &after);
    let batches = vertical_batches + kernel_batches;
    #[allow(clippy::cast_precision_loss)]
    let lanes_per_batch = completed as f64 / batches.max(1) as f64;
    let queue_to_response_ns = after
        .tenants
        .get(&TENANT)
        .map_or(0, |t| t.latency.quantile_ns(0.5));

    let replay = replay(
        &mut tracer,
        &spec,
        &built,
        args.seed,
        &traced.recent,
        lanes_per_batch,
    );
    let samples = traced.samples;
    let (rps_traced, [_, p95, p99]) = summarize(&traced.window_stats());
    let (rps_untraced, _) = summarize(&untraced.window_stats());
    let mut submit_ns = spans.submit_ns;
    let mut wait_ns = spans.wait_ns;
    let total_ms = |name: &str| ms(tracer.stat(name).total_ns);
    let per_key =
        |name: &str, keys_done: u64| crate::ns_per_key(tracer.stat(name).total_ns, keys_done);
    #[allow(clippy::cast_precision_loss)]
    let mut layer_values = vec![
        ("loadgen.late_p99_ms", ms(quantile(&mut traced.late, 0.99))),
        ("loadgen.samples", samples as f64),
        ("loadgen.latency_p95_ms", p95),
        ("loadgen.latency_p99_ms", p99),
        (
            "service.submit.p50_us",
            quantile(&mut submit_ns, 0.50) as f64 / 1e3,
        ),
        (
            "service.submit.p99_us",
            quantile(&mut submit_ns, 0.99) as f64 / 1e3,
        ),
        ("service.wait.p50_ms", ms(quantile(&mut wait_ns, 0.50))),
        ("service.core.batches", batches as f64),
        ("service.core.lanes_per_batch", lanes_per_batch),
        (
            "service.core.vertical_share",
            vertical_batches as f64 / batches.max(1) as f64,
        ),
        (
            "service.core.queue_to_response_p50_ms",
            ms(queue_to_response_ns),
        ),
        ("service.ladder.retried_lanes", retried as f64),
        ("service.ladder.degraded_lanes", degraded as f64),
        ("service.exec_replay_ms", replay.batch_ms),
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
        (
            "simulator.vertical.ns_per_key",
            per_key("simulator.vertical", replay.vertical_keys),
        ),
        (
            "simulator.kernel.ns_per_key",
            per_key("simulator.kernel", replay.kernel_keys),
        ),
        (
            "simulator.fault.ns_per_key",
            per_key("simulator.fault", replay.fault_keys),
        ),
        ("simulator.fault.retries", replay.retries as f64),
        ("simulator.fault.detections", replay.detections as f64),
        (
            "baselines.radix.ns_per_key",
            per_key("baselines.radix", replay.baseline_keys),
        ),
        (
            "std.sort_unstable.ns_per_key",
            per_key("std.sort_unstable", replay.baseline_keys),
        ),
        (
            "trace.overhead_share",
            (rps_untraced - rps_traced) / rps_untraced.max(f64::MIN_POSITIVE),
        ),
    ];
    let mut counts = built.counts.to_vec();
    counts.push(("simulator.cache.hit_ratio", hit_ratio));
    layer_values.extend_from_slice(&counts);
    eprintln!(
        "perfbench: sorter {} for {}^{}",
        built.sorter,
        spec.factor.name(),
        spec.r
    );
    let phases = [&warm, &untraced, &traced];
    Ok(Report {
        attempted: phases.iter().map(|p| p.attempted).sum(),
        failed: phases.iter().map(|p| p.failed()).sum(),
        wrong: phases.iter().map(|p| p.wrong).sum::<u64>()
            + replay.mismatches
            + u64::from(!built.consistent),
        degraded: phases.iter().map(|p| p.degraded).sum(),
        metrics: crate::layer_metrics(&layer_values),
        counts,
        trace: Some(tracer),
    })
}

/// A tenth of the run, at most a second, to warm up before measuring.
fn warmup(total: Duration) -> Duration {
    (total / 10).min(Duration::from_secs(1))
}

/// The end-to-end run: [`SEGMENTS`] segments, each on a freshly started
/// service (new threads, cold pools), so one unlucky thread placement
/// does not decide the run. Before each, `probe` times cold set-ups.
fn run_untraced(args: &Args, probe: &mut SetupProbe) -> Result<Report, String> {
    let spec = spec(args.workload);
    let segment = Duration::from_secs_f64(args.seconds) / SEGMENTS;
    let (mut attempted, mut ok, mut failed, mut wrong, mut degraded) = (0, 0, 0, 0, 0);
    let mut phases = Vec::new();
    let mut next_idx = 0;
    for _ in 0..SEGMENTS {
        probe.sample()?;
        let (service, _) = setup(args, None);
        let mut client = Client::new(&service, &spec, args.seed);
        client.next_idx = next_idx;
        let warm = load_phase(&mut client, &spec.load, warmup(segment));
        let phase = load_phase(&mut client, &spec.load, segment);
        next_idx = client.next_idx;
        for p in [&warm, &phase] {
            attempted += p.attempted;
            ok += p.ok;
            failed += p.failed();
            wrong += p.wrong;
            degraded += p.degraded;
        }
        phases.push(phase);
    }
    let rss = peak_rss_mb();
    let samples: u64 = phases.iter().map(|p| p.samples).sum();
    let windows: Vec<WindowStat> = phases.iter().flat_map(Phase::window_stats).collect();
    let (rps, [p50, _, _]) = summarize(&windows);
    println!("# latency samples={samples} windows={}", windows.len());
    #[allow(clippy::cast_precision_loss)]
    let metrics = vec![
        metric("requests_per_s", rps, "req/s"),
        metric("latency_p50_ms", p50, "ms"),
        metric("ok_share", ok as f64 / attempted.max(1) as f64, "ratio"),
        metric(
            "clean_share",
            (ok - degraded) as f64 / ok.max(1) as f64,
            "ratio",
        ),
        metric("peak_rss_mb", rss, "MB"),
    ];
    Ok(Report {
        attempted,
        failed,
        wrong,
        degraded,
        metrics,
        counts: Vec::new(),
        trace: None,
    })
}

/// What the tier replay measured.
#[derive(Default)]
struct Replay {
    /// Median time of one batch of `lanes_per_batch` lanes.
    batch_ms: f64,
    vertical_keys: u64,
    kernel_keys: u64,
    fault_keys: u64,
    baseline_keys: u64,
    retries: u64,
    detections: u64,
    /// Replayed lanes whose output differs from the service's reply.
    mismatches: u64,
}

/// Re-run the tier call the service makes on the most recent served
/// lanes, in batches of the service's mean batch size, and compare each
/// output with the service's reply bit for bit. The reference sorts run
/// on the same lanes.
fn replay(
    tracer: &mut Tracer,
    spec: &Spec,
    built: &Built,
    seed: u64,
    recent: &VecDeque<(u64, Vec<u64>)>,
    lanes_per_batch: f64,
) -> Replay {
    let bsp = BspMachine::new(&spec.factor, spec.r);
    let keys = usize::try_from(bsp.shape().len()).expect("shape fits in memory");
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let batch_lanes = (lanes_per_batch.round() as usize).clamp(1, recent.len().max(1));
    let faulty = spec.fault_rate_per_million > 0;
    let plan = plan(spec, seed);
    let policy = config(spec).retry_policy;
    let mut out = Replay::default();
    let mut batch_ns = Vec::new();
    let mut kernel_pool = ScratchPool::new();
    let mut vertical_pool = VerticalPool::new();
    let mut scratch = ExecScratch::new();
    let lanes: Vec<(u64, &Vec<u64>)> = recent.iter().map(|(idx, reply)| (*idx, reply)).collect();
    for round in 0..REPLAY_ROUNDS {
        for (b, chunk) in lanes.chunks_exact(batch_lanes).enumerate() {
            let id = (round * lanes.len() + b) as u64;
            let mut batch: Vec<Vec<u64>> = chunk
                .iter()
                .map(|(idx, _)| keys_for(seed, *idx, keys))
                .collect();
            let lane_keys = (batch.len() * keys) as u64;
            let ns = if faulty {
                let mut total = 0;
                for (i, lane) in batch.iter_mut().enumerate() {
                    let lane_plan = plan.fork(id << 16 | i as u64);
                    let (result, ns) = tracer.time("simulator.fault", id, || {
                        bsp.run_kernel_with_faults(
                            lane,
                            &built.kernel,
                            &lane_plan,
                            &policy,
                            &mut scratch,
                        )
                    });
                    total += ns;
                    match result {
                        Ok(report) if round == 0 => {
                            out.retries += report.retries.len() as u64;
                            out.detections += report.detections.len() as u64;
                        }
                        Ok(_) => {}
                        Err(_) => {
                            // Retries ran out: the service would quarantine
                            // the lane; do the same so the output compares.
                            let _ = bsp.run_kernel_with_faults(
                                lane,
                                &built.kernel,
                                &FaultPlan::disabled(),
                                &policy,
                                &mut scratch,
                            );
                        }
                    }
                }
                out.fault_keys += lane_keys;
                total
            } else if batch.len() >= VERTICAL_MIN_LANES {
                out.vertical_keys += lane_keys;
                tracer
                    .time("simulator.vertical", id, || {
                        bsp.run_vertical_batch(&mut batch, &built.vertical, &mut vertical_pool)
                    })
                    .1
            } else {
                out.kernel_keys += lane_keys;
                tracer
                    .time("simulator.kernel", id, || {
                        bsp.run_kernel_batch(&mut batch, &built.kernel, &mut kernel_pool)
                    })
                    .1
            };
            batch_ns.push(ns);
            for ((_, reply), sorted) in chunk.iter().zip(&batch) {
                out.mismatches += u64::from(*reply != sorted);
            }
            if round == 0 {
                for (idx, _) in chunk {
                    let mut radix = keys_for(seed, *idx, keys);
                    tracer.time("baselines.radix", id, || radix_sort_u64(&mut radix));
                    let mut std_sorted = keys_for(seed, *idx, keys);
                    tracer.time("std.sort_unstable", id, || std_sorted.sort_unstable());
                    out.mismatches += u64::from(radix != std_sorted);
                }
                out.baseline_keys += lane_keys;
            }
        }
    }
    #[allow(clippy::cast_precision_loss)]
    let mut batch_ms: Vec<f64> = batch_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    out.batch_ms = median(&mut batch_ms);
    out
}

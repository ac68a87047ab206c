//! The repository benchmark: the sorting service and the library path,
//! timed end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_trickle --seed 7 --seconds 20 --trace 0
//! ```
//!
//! Workloads (see `README.md` next to this crate):
//! `serve_trickle`, `serve_faulty` (and the ungated `serve_flood`) drive
//! `pns_service::SortService` from one generator thread; `lib_zoo`
//! drives `pns_simulator::Machine` over four shapes. Every reply is
//! checked against `sort_unstable` of what was sent.
//!
//! With `--trace 0` the last line of standard output is the end-to-end
//! result; with `--trace 1` the run is split into an untraced and a
//! traced half, the traced half times every call into a layer's public
//! functions, and the last line carries the per-layer metrics. Traced
//! runs also write their spans to `perfbench/out/` and check that the
//! deterministic counts match every earlier traced run of the same
//! build and workload.

mod build;
mod inputs;
mod serve;
mod trace;
mod zoo;

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Segments an end-to-end run is cut into. Before each, [`SetupProbe`]
/// times [`SETUP_PER_SEGMENT`] cold set-ups, so `setup_s` samples the
/// whole run rather than one moment of the host's load.
pub const SEGMENTS: u32 = 8;
const SETUP_PER_SEGMENT: usize = 3;

/// Where traces and count files go, relative to the checkout root.
pub const OUT_DIR: &str = "perfbench/out";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServeTrickle,
    ServeFlood,
    ServeFaulty,
    LibZoo,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "serve_trickle" => Some(Workload::ServeTrickle),
            "serve_flood" => Some(Workload::ServeFlood),
            "serve_faulty" => Some(Workload::ServeFaulty),
            "lib_zoo" => Some(Workload::LibZoo),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeTrickle => "serve_trickle",
            Workload::ServeFlood => "serve_flood",
            Workload::ServeFaulty => "serve_faulty",
            Workload::LibZoo => "lib_zoo",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut setup_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        setup_only,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Every per-layer metric with its unit. A traced run reports all of
/// them; a layer the workload does not enter reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.samples", "count"),
    ("loadgen.latency_p95_ms", "ms"),
    ("loadgen.latency_p99_ms", "ms"),
    ("service.submit.p50_us", "us"),
    ("service.submit.p99_us", "us"),
    ("service.wait.p50_ms", "ms"),
    ("service.core.batches", "count"),
    ("service.core.lanes_per_batch", "lanes"),
    ("service.core.vertical_share", "ratio"),
    ("service.core.queue_to_response_p50_ms", "ms"),
    ("service.ladder.retried_lanes", "count"),
    ("service.ladder.degraded_lanes", "count"),
    ("service.exec_replay_ms", "ms"),
    ("simulator.select.ms", "ms"),
    ("simulator.compile.ms", "ms"),
    ("simulator.compile.rounds", "count"),
    ("simulator.lower_kernel.ms", "ms"),
    ("simulator.lower_kernel.ops", "count"),
    ("simulator.lower_vertical.ms", "ms"),
    ("simulator.lower_vertical.word_ops", "count"),
    ("simulator.machine_build.ms", "ms"),
    ("simulator.cache.hit_ratio", "ratio"),
    ("simulator.machine.busy_ms", "ms"),
    ("simulator.machine.overhead_share", "ratio"),
    ("simulator.machine.calls_per_cycle", "count"),
    ("simulator.vertical.ns_per_key", "ns"),
    ("simulator.vertical.word_ops", "count"),
    ("simulator.kernel.ns_per_key", "ns"),
    ("simulator.kernel.cx_ops", "count"),
    ("simulator.fault.ns_per_key", "ns"),
    ("simulator.fault.retries", "count"),
    ("simulator.fault.detections", "count"),
    ("baselines.radix.ns_per_key", "ns"),
    ("std.sort_unstable.ns_per_key", "ns"),
    ("trace.overhead_share", "ratio"),
];

/// The full per-layer metric list, taking the values given and 0 for
/// the rest.
///
/// # Panics
///
/// Panics on a name missing from [`PER_LAYER`] (a bug in this crate).
pub fn layer_metrics(values: &[(&'static str, f64)]) -> Vec<Metric> {
    for (name, _) in values {
        assert!(
            PER_LAYER.iter().any(|(known, _)| known == name),
            "unlisted per-layer metric {name}"
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            metric(name, value, unit)
        })
        .collect()
}

/// Nanoseconds per key, or 0 when no key was processed.
pub fn ns_per_key(total_ns: u64, keys: u64) -> f64 {
    if keys == 0 {
        return 0.0;
    }
    #[allow(clippy::cast_precision_loss)]
    let v = total_ns as f64 / keys as f64;
    v
}

/// What a workload run observed.
pub struct Report {
    /// Requests (service) or lanes (library) sent.
    pub attempted: u64,
    /// Rejected, timed out, failed, or answered wrongly.
    pub failed: u64,
    /// Answered with a wrong output, or a tier replay that differed
    /// from the program's output. Any of these fails the run.
    pub wrong: u64,
    /// Correct replies marked `degraded: true`. These fail the run on
    /// every workload without a fault plan.
    pub degraded: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Deterministic counts that must repeat exactly across runs and
    /// seeds (traced runs only).
    pub counts: Vec<(&'static str, f64)>,
    /// The span trace (traced runs only).
    pub trace: Option<trace::Tracer>,
}

/// CPU time the hypervisor has stolen from this machine so far, in
/// clock ticks summed over CPUs (`steal` in `/proc/stat`); `None` where
/// the kernel does not report it.
pub fn host_steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
    cpu.split_whitespace().nth(7)?.parse().ok()
}

/// Peak resident set of this process in MB, from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .unwrap_or(0.0);
    kib * 1024.0 / 1e6
}

/// Cold set-ups, each in a fresh process with a cold sorter-selection
/// memo and program cache, whose median is `setup_s`. Each process
/// reports its own wall time from the start of its `main` until its
/// workload is ready for the first request, so neither `exec` nor the
/// pipe back to this process is timed.
pub struct SetupProbe {
    exe: PathBuf,
    workload: Workload,
    seed: u64,
    samples: Vec<f64>,
}

impl SetupProbe {
    fn new(args: &Args) -> Result<Self, String> {
        Ok(SetupProbe {
            exe: std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?,
            workload: args.workload,
            seed: args.seed,
            samples: Vec::new(),
        })
    }

    /// Time [`SETUP_PER_SEGMENT`] cold set-ups, one after another.
    pub fn sample(&mut self) -> Result<(), String> {
        for _ in 0..SETUP_PER_SEGMENT {
            let mut child = Command::new(&self.exe)
                .args([
                    "--workload",
                    self.workload.name(),
                    "--seed",
                    &self.seed.to_string(),
                ])
                .arg("--setup-only")
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("spawn set-up process: {e}"))?;
            let mut line = String::new();
            let read = child
                .stdout
                .take()
                .map(|out| BufReader::new(out).read_line(&mut line));
            let status = child
                .wait()
                .map_err(|e| format!("wait set-up process: {e}"))?;
            let ready = line
                .trim()
                .strip_prefix("ready ")
                .and_then(|secs| secs.parse::<f64>().ok());
            match (read, ready) {
                (Some(Ok(_)), Some(secs)) if status.success() => self.samples.push(secs),
                _ => return Err(format!("set-up process failed ({status})")),
            }
        }
        Ok(())
    }
}

fn out_dir() -> Option<PathBuf> {
    let dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&dir).ok().map(|()| dir)
}

/// A fingerprint of the running executable, so count files from another
/// build never meet this one's.
fn build_fingerprint() -> u64 {
    let bytes = std::env::current_exe()
        .and_then(std::fs::read)
        .unwrap_or_default();
    bytes.iter().fold(0xCBF2_9CE4_8422_2325_u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

/// Compare this run's deterministic counts with the first traced run of
/// the same build and workload, recording them if this is the first.
/// Returns the names that differ.
fn check_counts(workload: Workload, counts: &[(&'static str, f64)]) -> Vec<String> {
    let text: String = counts
        .iter()
        .map(|(name, v)| format!("{name}={v}\n"))
        .collect();
    let Some(dir) = out_dir() else {
        eprintln!("perfbench: cannot create {OUT_DIR}; counts not cross-checked");
        return Vec::new();
    };
    let path = dir.join(format!(
        "counts-{}-{:016x}.txt",
        workload.name(),
        build_fingerprint()
    ));
    match std::fs::read_to_string(&path) {
        Ok(previous) => {
            let previous: Vec<&str> = previous.lines().collect();
            text.lines()
                .filter(|line| !previous.contains(line))
                .map(|line| format!("{line} (earlier runs: {previous:?})"))
                .collect()
        }
        Err(_) => {
            if let Err(e) = std::fs::write(&path, text) {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
            }
            Vec::new()
        }
    }
}

fn run(args: &Args, probe: Option<&mut SetupProbe>) -> Result<Report, String> {
    match args.workload {
        Workload::LibZoo => zoo::run(args, probe),
        _ => serve::run(args, probe),
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <serve_trickle|serve_flood|serve_faulty|lib_zoo> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if args.setup_only {
        // Report ready before tearing the set-up down: teardown is not
        // part of `setup_s`.
        let ready = || {
            println!("ready {}", started.elapsed().as_secs_f64());
            let _ = std::io::stdout().flush();
        };
        match args.workload {
            Workload::LibZoo => {
                let zoo = zoo::setup(None);
                ready();
                drop(zoo);
            }
            _ => {
                let service = serve::setup(&args, None);
                ready();
                drop(service);
            }
        }
        return ExitCode::SUCCESS;
    }

    let mut probe = if args.trace {
        None
    } else {
        match SetupProbe::new(&args) {
            Ok(probe) => Some(probe),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let mut report = match run(&args, probe.as_mut()) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(mut probe) = probe {
        println!("# setup samples={}", probe.samples.len());
        let setup_s = trace::median(&mut probe.samples);
        report.metrics.insert(0, metric("setup_s", setup_s, "s"));
    }

    if report.attempted == 0 || report.metrics.iter().any(|m| !m.value.is_finite()) {
        eprintln!("perfbench: the run sent nothing or measured no finite value");
        return ExitCode::FAILURE;
    }
    let degraded_allowed = args.workload == Workload::ServeFaulty;
    let mut correct =
        report.wrong == 0 && report.failed == 0 && (degraded_allowed || report.degraded == 0);
    // A healthy run measures every end-to-end metric as more than 0.
    if correct && !args.trace && report.metrics.iter().any(|m| m.value <= 0.0) {
        eprintln!("perfbench: an end-to-end metric read 0; the run is too short to measure");
        return ExitCode::FAILURE;
    }
    if args.trace {
        let differing = check_counts(args.workload, &report.counts);
        for line in &differing {
            eprintln!("perfbench: deterministic count changed: {line}");
        }
        correct &= differing.is_empty();
        if let (Some(tracer), Some(dir)) = (&report.trace, out_dir()) {
            let header = format!(
                "\"workload\":\"{}\",\"seed\":{}",
                args.workload.name(),
                args.seed
            );
            let path = dir.join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
            if let Err(e) = std::fs::write(&path, tracer.to_json(&header)) {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
            }
        }
    }
    if report.wrong > 0 {
        eprintln!("perfbench: {} wrong outputs", report.wrong);
    }
    if report.failed > 0 {
        eprintln!(
            "perfbench: {} requests rejected, timed out, failed or wrong",
            report.failed
        );
    }
    if report.degraded > 0 && !degraded_allowed {
        eprintln!(
            "perfbench: {} degraded replies without a fault plan",
            report.degraded
        );
    }

    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "# workload={} seed={} seconds={} trace={} threads={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        threads
    );
    for (name, value) in &report.counts {
        println!("# count {name}={value}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}

//! The set-up layers one shape goes through, timed one by one.
//!
//! `Machine::compiled_with` and `ServiceBuilder::register_shape` each
//! resolve the sorter, compile, lower to the kernel and commit to the
//! vertical layout in one call. A traced run replays those steps through
//! their public functions first, each as its own span, then builds the
//! machine on a cold and on a warm `ProgramCache`.

use crate::trace::Tracer;
use pns_graph::Graph;
use pns_simulator::vertical::{VerticalProgram, WORD_LANES};
use pns_simulator::{compile, BspMachine, KernelProgram, Machine, ProgramCache, SorterChoice};
use std::sync::Arc;

/// Lanes in the widest batch the workloads send.
pub const WIDE_LANES: usize = 256;

/// Deterministic program sizes, named as their per-layer metrics.
pub type Counts = [(&'static str, f64); 5];

/// One shape's programs and their deterministic sizes.
pub struct Built {
    pub machine: Machine,
    pub sorter: &'static str,
    pub kernel: Arc<KernelProgram>,
    pub vertical: Arc<VerticalProgram>,
    /// Compiled rounds, kernel ops (compare-exchange pairs plus route
    /// micro-ops), vertical word ops of one full-width run, compare-
    /// exchange pairs of one kernel pass over one lane, and word ops of
    /// one [`WIDE_LANES`]-lane vertical batch.
    pub counts: Counts,
    /// `true` if the stepwise programs match the machine's.
    pub consistent: bool,
}

/// Build `factor^r` with `SorterChoice::Auto`, every layer a span.
/// `cache` must be cold for this shape: the first build misses and the
/// second hits, so its hit ratio ends at exactly 0.5.
pub fn traced(tracer: &mut Tracer, factor: &Graph, r: usize, cache: &ProgramCache) -> Built {
    let (sorter, _) = tracer.time("simulator.select", 0, || SorterChoice::Auto.resolve(factor));
    let (program, _) = tracer.time("simulator.compile", 0, || compile(factor, r, sorter));
    let bsp = BspMachine::new(factor, r);
    let (kernel, _) = tracer.time("simulator.lower_kernel", 0, || bsp.lower(&program));
    let kernel = Arc::new(kernel.expect("a compiled program lowers on its own shape"));
    let (vertical, _) = tracer.time("simulator.lower_vertical", 0, || {
        VerticalProgram::lower(Arc::clone(&kernel))
    });
    let (machine, _) = tracer.time("simulator.machine_build_cold", 0, || {
        Machine::compiled_with(factor, r, SorterChoice::Auto, cache)
    });
    let (warm, _) = tracer.time("simulator.machine_build", 0, || {
        Machine::compiled_with(factor, r, SorterChoice::Auto, cache)
    });
    drop(warm);
    let consistent = machine.program().map(|p| p.rounds()) == Some(program.rounds())
        && machine.kernel().map(|k| k.total_ops()) == Some(kernel.total_ops());
    #[allow(clippy::cast_precision_loss)]
    let counts = [
        ("simulator.compile.rounds", program.rounds() as f64),
        ("simulator.lower_kernel.ops", kernel.total_ops() as f64),
        (
            "simulator.lower_vertical.word_ops",
            vertical.word_ops() as f64,
        ),
        ("simulator.kernel.cx_ops", kernel.cx_pair_count() as f64),
        (
            "simulator.vertical.word_ops",
            (vertical.word_ops() * WIDE_LANES.div_ceil(WORD_LANES)) as f64,
        ),
    ];
    Built {
        machine,
        sorter: sorter.name(),
        kernel,
        vertical: Arc::new(vertical),
        counts,
        consistent,
    }
}

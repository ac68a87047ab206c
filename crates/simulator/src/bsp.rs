//! A bulk-synchronous machine model with per-node state and edge-aligned
//! operations — the paper's machine, made explicit.
//!
//! Section 4: "Before the sorting algorithm starts, each processor holds
//! one of the keys to be sorted. During the sorting algorithm, each
//! processor needs enough memory to hold at most two values being
//! compared." This module enforces exactly that discipline:
//!
//! * every node holds one resident key plus two small transit slots (a
//!   relay buffer per stream direction, needed only on non-Hamiltonian
//!   factors where compare partners are up to three hops apart);
//! * every operation in a round moves data across **one edge** of the
//!   product network or is node-local; the machine *verifies* adjacency
//!   and slot discipline at execution time and panics on violations.
//!
//! Because the sorting algorithm is oblivious, its schedule can be
//! compiled once ([`compile`]) — by replaying the round-level algorithm
//! with a recording engine and lowering every compare round to
//! edge-aligned rounds — and then executed on any input
//! ([`BspMachine::run`]).

use crate::engine::{Engine, Pg2Instance};
use crate::netsort::network_merge;
use crate::sorters::Pg2Sorter;
use pns_core::Counters;
use pns_graph::Graph;
use pns_obs::{Event, EventLogger, SpanClass, Stage, Tier, ROUND_OBS_MIN_OPS};
use pns_order::radix::Shape;
use pns_order::Direction;

/// One machine operation within a synchronous round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Op {
    /// Adjacent compare-exchange: nodes `a` and `b` swap keys over the
    /// edge if out of order; the minimum ends at `a` when `min_to_a`.
    CompareExchange {
        /// First endpoint.
        a: u64,
        /// Second endpoint.
        b: u64,
        /// `true`: minimum to `a`; `false`: minimum to `b`.
        min_to_a: bool,
    },
    /// Copy a value one hop: the source is `from`'s resident key
    /// (`from_key = true`, the first hop of a relay) or `from`'s transit
    /// slot `slot`; the value lands in `to`'s transit slot `slot`.
    Move {
        /// Sending node.
        from: u64,
        /// Receiving node (must be adjacent).
        to: u64,
        /// Transit slot index (0: forward stream, 1: backward stream).
        slot: u8,
        /// Whether the payload is the sender's resident key.
        from_key: bool,
    },
    /// Local resolution at the end of a relayed compare: `node` compares
    /// its resident key with the arrived transit value in `slot` and
    /// keeps the minimum (`keep_min`) or maximum; the slot is cleared.
    Resolve {
        /// Resolving node.
        node: u64,
        /// Transit slot holding the partner's key.
        slot: u8,
        /// Keep the minimum of {resident, arrived}.
        keep_min: bool,
    },
}

/// A synchronous round of operations. Disjointness (each node's key and
/// each slot touched at most once per round, each edge used at most once
/// per direction) is validated at execution.
pub type BspRound = Vec<Op>;

/// A certificate point of a compiled program: a round boundary at which
/// a stage invariant provably holds on fault-free execution. After the
/// first `round` rounds, every `dims`-dimensional subgraph over
/// dimensions `0 … dims-1` is snake-sorted (the paper's inter-stage
/// invariant; `dims = r` at the final boundary means globally sorted).
///
/// Fault-injecting executors check these certificates between stages and
/// retry the enclosed segment from a checkpoint when one fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CertPoint {
    /// Rounds executed before the certificate holds (a boundary index:
    /// `0 ..= program.rounds()`).
    pub round: u64,
    /// Subgraph dimensionality `k` of the certified stage invariant.
    pub dims: u32,
}

/// A compiled, input-independent schedule for one sort. Serializable, so
/// a schedule can be compiled once and shipped to the machine that runs
/// it (the machine re-validates every operation anyway).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct CompiledProgram {
    shape: Shape,
    rounds: Vec<BspRound>,
    cert_points: Vec<CertPoint>,
}

impl CompiledProgram {
    /// Build a program directly from rounds (for hand-written or
    /// deserialized schedules; the machine validates every operation).
    /// Hand-built programs carry no certificate points — nothing is
    /// known about what they compute, so fault-injecting executors have
    /// no invariant to check.
    #[must_use]
    pub fn from_rounds(shape: Shape, rounds: Vec<BspRound>) -> Self {
        CompiledProgram {
            shape,
            rounds,
            cert_points: Vec::new(),
        }
    }

    /// Stage-boundary certificates, in round order ([`compile`] records
    /// one per stage; hand-built programs have none).
    #[must_use]
    pub fn cert_points(&self) -> &[CertPoint] {
        &self.cert_points
    }

    /// Number of synchronous rounds.
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Total operations across all rounds.
    #[must_use]
    pub fn op_count(&self) -> usize {
        self.rounds.iter().map(Vec::len).sum()
    }

    /// The rounds themselves (for inspection/statistics).
    #[must_use]
    pub fn round_ops(&self) -> &[BspRound] {
        &self.rounds
    }

    /// The shape this program sorts.
    #[must_use]
    pub fn shape(&self) -> Shape {
        self.shape
    }
}

/// A machine-model violation found by static validation
/// ([`BspMachine::try_validate`]): which round broke which rule, as
/// typed data. `Display` renders the exact diagnostic the panicking
/// paths use, so wrapping an error in `panic!("{e}")` is
/// message-compatible with the historical asserts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// The program was compiled for a different [`Shape`].
    ShapeMismatch,
    /// A compare-exchange between non-adjacent nodes.
    CompareNotEdge {
        /// Offending round index.
        round: usize,
        /// First endpoint.
        a: u64,
        /// Second endpoint.
        b: u64,
    },
    /// A move between non-adjacent nodes.
    MoveNotEdge {
        /// Offending round index.
        round: usize,
        /// Sending node.
        from: u64,
        /// Receiving node.
        to: u64,
    },
    /// A directed edge carried two payloads in one round.
    EdgeReused {
        /// Offending round index.
        round: usize,
        /// Edge tail.
        from: u64,
        /// Edge head.
        to: u64,
    },
    /// A node's resident key was written twice in one round.
    KeyReused {
        /// Offending round index.
        round: usize,
        /// Offending node.
        node: u64,
    },
    /// A node's resident key was both read (relay first hop) and
    /// written (compare/resolve) in one round — order-dependent.
    KeyReadAndWritten {
        /// Offending round index.
        round: usize,
        /// The lowest offending node of the round.
        node: u64,
    },
    /// A transit slot index outside `0..2`.
    BadSlot {
        /// Offending round index.
        round: usize,
        /// The out-of-range slot.
        slot: u8,
    },
    /// A move forwarded from a transit slot that holds nothing.
    SlotEmpty {
        /// Offending round index.
        round: usize,
        /// Node whose slot was read.
        node: u64,
        /// The empty slot.
        slot: u8,
    },
    /// A transit slot received two payloads in one round.
    SlotWrittenTwice {
        /// Offending round index.
        round: usize,
        /// Node whose slot was written.
        node: u64,
        /// The doubly-written slot.
        slot: u8,
    },
    /// A transit slot was taken (forwarded or resolved) twice in one
    /// round.
    SlotTakenTwice {
        /// Offending round index.
        round: usize,
        /// Node whose slot was taken.
        node: u64,
        /// The doubly-taken slot.
        slot: u8,
    },
    /// A resolve targeted an empty transit slot.
    ResolveEmptySlot {
        /// Offending round index.
        round: usize,
        /// Resolving node.
        node: u64,
        /// The empty slot.
        slot: u8,
    },
    /// A move wrote into a slot still occupied from a previous round.
    SlotOccupied {
        /// Offending round index.
        round: usize,
        /// Node whose slot was still full.
        node: u64,
        /// The occupied slot.
        slot: u8,
    },
    /// The program ended with values still in transit.
    TransitLeftover,
}

impl std::fmt::Display for ProgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ProgramError::ShapeMismatch => write!(f, "program compiled for another shape"),
            ProgramError::CompareNotEdge { round, a, b } => {
                write!(
                    f,
                    "round {round}: compare-exchange ({a},{b}) is not an edge"
                )
            }
            ProgramError::MoveNotEdge { round, from, to } => {
                write!(f, "round {round}: move ({from}->{to}) is not an edge")
            }
            ProgramError::EdgeReused { round, from, to } => {
                write!(f, "round {round}: edge ({from}->{to}) used twice")
            }
            ProgramError::KeyReused { round, node } => {
                write!(f, "round {round}: node {node} key accessed twice")
            }
            ProgramError::KeyReadAndWritten { round, node } => write!(
                f,
                "round {round}: node {node} key both read and written in one round \
                 (order-dependent; unsafe for deferred execution)"
            ),
            ProgramError::BadSlot { round, slot } => {
                write!(f, "round {round}: bad slot {slot}")
            }
            ProgramError::SlotEmpty { round, node, slot } => {
                write!(f, "round {round}: node {node} slot {slot} empty")
            }
            ProgramError::SlotWrittenTwice { round, node, slot } => {
                write!(f, "round {round}: node {node} slot {slot} written twice")
            }
            ProgramError::SlotTakenTwice { round, node, slot } => {
                write!(f, "round {round}: node {node} slot {slot} taken twice")
            }
            ProgramError::ResolveEmptySlot { round, node, slot } => {
                write!(f, "round {round}: resolve of empty slot {slot} at {node}")
            }
            ProgramError::SlotOccupied { round, node, slot } => {
                write!(f, "round {round}: node {node} slot {slot} still occupied")
            }
            ProgramError::TransitLeftover => {
                write!(f, "transit values left in flight after the program ended")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

/// What static validation established about a program, returned by
/// [`BspMachine::try_validate`] on success.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValidationReport {
    /// Rounds in the validated program.
    pub rounds: usize,
    /// Operations across all rounds.
    pub ops: usize,
    /// Certificate points the program carries (checkable stage
    /// boundaries for fault-injecting executors).
    pub cert_points: usize,
}

/// The BSP machine: executes compiled programs with full validation.
pub struct BspMachine {
    network: NetworkView,
    shape: Shape,
    pub(crate) logger: EventLogger,
}

/// Adjacency view over the product network (rank-based, no edge lists).
struct NetworkView {
    factor: Graph,
    shape: Shape,
    /// `strides[i] = N^i` for every dimension `i`.
    strides: Vec<u64>,
    /// The factor's maximum degree: directed-edge ids reserve this many
    /// neighbour slots per node and dimension.
    max_degree: usize,
}

impl NetworkView {
    fn new(factor: &Graph, shape: Shape) -> Self {
        NetworkView {
            factor: factor.clone(),
            shape,
            strides: (0..shape.r()).map(|i| shape.stride(i)).collect(),
            max_degree: (0..factor.n() as u32)
                .map(|v| factor.degree(v))
                .max()
                .unwrap_or(0),
        }
    }

    /// The one dimension at which `a` and `b` differ, with their digits
    /// there; `None` unless both are nodes and differ in exactly one
    /// digit. A single-digit difference `|a - b|` lies in
    /// `[N^d, (N-1)·N^d]`, so the dimension is read off the stride table.
    fn split(&self, a: u64, b: u64) -> Option<(usize, u64, u64)> {
        if a == b || a.max(b) >= self.shape.len() {
            return None;
        }
        let diff = a.abs_diff(b);
        let dim = self.strides.partition_point(|&s| s <= diff) - 1;
        let stride = self.strides[dim];
        let n = self.shape.n() as u64;
        let (da, db) = (a / stride % n, b / stride % n);
        (a - da * stride + db * stride == b).then_some((dim, da, db))
    }

    /// Number of distinct ids [`NetworkView::edge`] can return.
    fn edge_ids(&self) -> usize {
        self.shape.len() as usize * self.shape.r() * self.max_degree
    }

    /// The id of the directed product-network edge `a -> b`, or `None`
    /// if `(a, b)` is not an edge.
    fn edge(&self, a: u64, b: u64) -> Option<usize> {
        let (dim, da, db) = self.split(a, b)?;
        let slot = self
            .factor
            .neighbors(da as u32)
            .binary_search(&(db as u32))
            .ok()?;
        Some((a as usize * self.shape.r() + dim) * self.max_degree + slot)
    }
}

/// Per-round membership marks over `0..len`, emptied in O(1) at each
/// round by advancing an epoch instead of clearing or reallocating.
struct RoundMarks {
    stamp: Vec<u32>,
    epoch: u32,
}

impl RoundMarks {
    fn new(len: usize) -> Self {
        RoundMarks {
            stamp: vec![0; len],
            epoch: 1,
        }
    }

    /// Forget every mark.
    fn next_round(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Mark `i`; `false` if it was already marked this round.
    fn insert(&mut self, i: usize) -> bool {
        let fresh = self.stamp[i] != self.epoch;
        self.stamp[i] = self.epoch;
        fresh
    }

    fn contains(&self, i: usize) -> bool {
        self.stamp[i] == self.epoch
    }
}

impl BspMachine {
    /// Build a machine over the product of `factor` with `r` dimensions.
    #[must_use]
    pub fn new(factor: &Graph, r: usize) -> Self {
        let shape = Shape::new(factor.n(), r);
        BspMachine {
            network: NetworkView::new(factor, shape),
            shape,
            logger: EventLogger::disabled(),
        }
    }

    /// The machine's shape.
    #[must_use]
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Emit `RoundStart`/`RoundEnd` per executed round, `Validate` per
    /// static validation, and `BatchScheduled` per batch dispatch into
    /// `logger`. Batch executors' per-vector inner loops stay
    /// uninstrumented (they are the throughput hot path; the batch-level
    /// events carry their aggregate shape).
    pub fn attach_logger(&mut self, logger: EventLogger) {
        self.logger = logger;
    }

    /// Execute a compiled program on `keys` (one per node, by rank).
    /// Returns the number of rounds executed (= `program.rounds()`).
    ///
    /// # Panics
    ///
    /// Panics on any machine-model violation: non-adjacent operation,
    /// edge used twice in one direction in a round, node key or transit
    /// slot accessed twice in a round, move into an occupied slot,
    /// resolve of an empty slot, or leftover transit values at the end.
    pub fn run<K: Ord + Clone>(&self, keys: &mut [K], program: &CompiledProgram) -> u64 {
        assert_eq!(
            program.shape, self.shape,
            "program compiled for another shape"
        );
        assert_eq!(keys.len() as u64, self.shape.len(), "one key per node");
        let _sort_span = self.logger.span(Tier::Serial, Stage::Sort, SpanClass::None);
        let n_nodes = keys.len();
        let mut transit: Vec<[Option<K>; 2]> = vec![[None, None]; n_nodes];
        // Per-round discipline tracking, hoisted out of the loop and
        // cleared per round so validation scratch is allocated once.
        let mut key_touched = RoundMarks::new(n_nodes);
        let mut slot_written = RoundMarks::new(2 * n_nodes);
        let mut edge_used = RoundMarks::new(self.network.edge_ids());
        // Reads of transit slots happen against the *previous* round's
        // state: buffer incoming values and commit after the round.
        let mut incoming: Vec<(u64, u8, K)> = Vec::new();

        for (ri, round) in program.rounds.iter().enumerate() {
            self.logger.log(|| Event::RoundStart {
                round: ri as u64,
                ops: round.len() as u64,
            });
            let _round_span = self.logger.span_if(
                round.len() >= ROUND_OBS_MIN_OPS,
                Tier::Serial,
                Stage::Round,
                SpanClass::None,
            );
            key_touched.next_round();
            slot_written.next_round();
            edge_used.next_round();
            let mut touch_key = |v: u64| {
                assert!(
                    key_touched.insert(v as usize),
                    "round {ri}: node {v} key accessed twice"
                );
            };

            for op in round {
                match *op {
                    Op::CompareExchange { a, b, min_to_a } => {
                        let (Some(ab), Some(ba)) =
                            (self.network.edge(a, b), self.network.edge(b, a))
                        else {
                            panic!("round {ri}: compare-exchange ({a},{b}) is not an edge");
                        };
                        for (x, y, e) in [(a, b, ab), (b, a, ba)] {
                            assert!(
                                edge_used.insert(e),
                                "round {ri}: edge ({x}->{y}) used twice"
                            );
                        }
                        touch_key(a);
                        touch_key(b);
                        let (ai, bi) = (a as usize, b as usize);
                        let a_has_min = keys[ai] <= keys[bi];
                        if a_has_min != min_to_a {
                            keys.swap(ai, bi);
                        }
                    }
                    Op::Move {
                        from,
                        to,
                        slot,
                        from_key,
                    } => {
                        assert!(slot < 2, "round {ri}: bad slot {slot}");
                        let Some(e) = self.network.edge(from, to) else {
                            panic!("round {ri}: move ({from}->{to}) is not an edge");
                        };
                        assert!(
                            edge_used.insert(e),
                            "round {ri}: edge ({from}->{to}) used twice"
                        );
                        let payload =
                            if from_key {
                                keys[from as usize].clone()
                            } else {
                                let v =
                                    transit[from as usize][slot as usize].take().unwrap_or_else(
                                        || panic!("round {ri}: node {from} slot {slot} empty"),
                                    );
                                v
                            };
                        assert!(
                            slot_written.insert(2 * to as usize + slot as usize),
                            "round {ri}: node {to} slot {slot} written twice"
                        );
                        incoming.push((to, slot, payload));
                    }
                    Op::Resolve {
                        node,
                        slot,
                        keep_min,
                    } => {
                        assert!(slot < 2, "round {ri}: bad slot {slot}");
                        touch_key(node);
                        let arrived =
                            transit[node as usize][slot as usize]
                                .take()
                                .unwrap_or_else(|| {
                                    panic!("round {ri}: resolve of empty slot {slot} at {node}")
                                });
                        let resident = &mut keys[node as usize];
                        let keep_arrived = if keep_min {
                            arrived < *resident
                        } else {
                            arrived > *resident
                        };
                        if keep_arrived {
                            *resident = arrived;
                        }
                    }
                }
            }
            // Commit moves.
            for (to, slot, payload) in incoming.drain(..) {
                let dst = &mut transit[to as usize][slot as usize];
                assert!(
                    dst.is_none(),
                    "round {ri}: node {to} slot {slot} still occupied"
                );
                *dst = Some(payload);
            }
            self.logger.log(|| Event::RoundEnd { round: ri as u64 });
        }
        assert!(
            transit.iter().all(|t| t[0].is_none() && t[1].is_none()),
            "transit values left in flight after the program ended"
        );
        program.rounds.len() as u64
    }

    /// Statically validate a program against this machine — without any
    /// keys. The schedule is input-independent, so **everything**
    /// [`BspMachine::run`] checks during execution can be checked here
    /// once: adjacency, per-round edge/key/slot discipline, and transit
    /// occupancy across rounds (every take finds a value, every write
    /// finds a free slot, nothing is left in flight at the end).
    ///
    /// This also enforces one condition `run` does not need: within a
    /// round, no resident key may be both read (by a [`Op::Move`] first
    /// hop) and written (by a compare-exchange or resolve). Rounds with
    /// that property execute identically whether ops run in order or
    /// all read the start-of-round state, so no executor's result
    /// depends on op order within a round.
    /// [`compile`] never produces such rounds.
    ///
    /// # Panics
    ///
    /// Panics on any violation, naming the round and the resource.
    pub fn validate(&self, program: &CompiledProgram) {
        if let Err(e) = self.try_validate(program) {
            panic!("{e}");
        }
    }

    /// [`BspMachine::validate`] with a typed result instead of a panic:
    /// `Ok` carries a [`ValidationReport`], `Err` the first violation
    /// found as a [`ProgramError`] naming the round and the resource.
    /// Emits the `Validate` event on success only.
    ///
    /// # Errors
    ///
    /// Returns the first machine-model violation in program order. The
    /// two checks that need the whole round follow its ops: a key both
    /// read and written reports the lowest such node, and a write into a
    /// slot still occupied reports the first such write.
    pub fn try_validate(
        &self,
        program: &CompiledProgram,
    ) -> Result<ValidationReport, ProgramError> {
        if program.shape != self.shape {
            return Err(ProgramError::ShapeMismatch);
        }
        let n_nodes = self.shape.len() as usize;
        let mut occupied = vec![[false; 2]; n_nodes];
        // Per-round sets, allocated once: node keys read and written,
        // transit slots (`2 * node + slot`) taken and written, and
        // directed edges used. The lists keep this round's reads, takes
        // and writes in program order.
        let mut key_read = RoundMarks::new(n_nodes);
        let mut key_written = RoundMarks::new(n_nodes);
        let mut slot_taken = RoundMarks::new(2 * n_nodes);
        let mut slot_written = RoundMarks::new(2 * n_nodes);
        let mut edge_used = RoundMarks::new(self.network.edge_ids());
        let mut reads: Vec<u64> = Vec::new();
        let mut taken: Vec<(u64, u8)> = Vec::new();
        let mut written: Vec<(u64, u8)> = Vec::new();
        let slot_id = |v: u64, slot: u8| 2 * v as usize + slot as usize;
        for (ri, round) in program.rounds.iter().enumerate() {
            for marks in [
                &mut key_read,
                &mut key_written,
                &mut slot_taken,
                &mut slot_written,
                &mut edge_used,
            ] {
                marks.next_round();
            }
            reads.clear();
            taken.clear();
            written.clear();
            for op in round {
                match *op {
                    Op::CompareExchange { a, b, .. } => {
                        let (Some(ab), Some(ba)) =
                            (self.network.edge(a, b), self.network.edge(b, a))
                        else {
                            return Err(ProgramError::CompareNotEdge { round: ri, a, b });
                        };
                        for (x, y, e) in [(a, b, ab), (b, a, ba)] {
                            if !edge_used.insert(e) {
                                return Err(ProgramError::EdgeReused {
                                    round: ri,
                                    from: x,
                                    to: y,
                                });
                            }
                        }
                        for v in [a, b] {
                            if !key_written.insert(v as usize) {
                                return Err(ProgramError::KeyReused { round: ri, node: v });
                            }
                        }
                    }
                    Op::Move {
                        from,
                        to,
                        slot,
                        from_key,
                    } => {
                        if slot >= 2 {
                            return Err(ProgramError::BadSlot { round: ri, slot });
                        }
                        let Some(e) = self.network.edge(from, to) else {
                            return Err(ProgramError::MoveNotEdge {
                                round: ri,
                                from,
                                to,
                            });
                        };
                        if !edge_used.insert(e) {
                            return Err(ProgramError::EdgeReused {
                                round: ri,
                                from,
                                to,
                            });
                        }
                        if from_key {
                            if key_read.insert(from as usize) {
                                reads.push(from);
                            }
                        } else {
                            if !occupied[from as usize][slot as usize] {
                                return Err(ProgramError::SlotEmpty {
                                    round: ri,
                                    node: from,
                                    slot,
                                });
                            }
                            if !slot_taken.insert(slot_id(from, slot)) {
                                return Err(ProgramError::SlotTakenTwice {
                                    round: ri,
                                    node: from,
                                    slot,
                                });
                            }
                            taken.push((from, slot));
                        }
                        if !slot_written.insert(slot_id(to, slot)) {
                            return Err(ProgramError::SlotWrittenTwice {
                                round: ri,
                                node: to,
                                slot,
                            });
                        }
                        written.push((to, slot));
                    }
                    Op::Resolve { node, slot, .. } => {
                        if slot >= 2 {
                            return Err(ProgramError::BadSlot { round: ri, slot });
                        }
                        if !occupied[node as usize][slot as usize] {
                            return Err(ProgramError::ResolveEmptySlot {
                                round: ri,
                                node,
                                slot,
                            });
                        }
                        if !slot_taken.insert(slot_id(node, slot)) {
                            return Err(ProgramError::SlotTakenTwice {
                                round: ri,
                                node,
                                slot,
                            });
                        }
                        taken.push((node, slot));
                        if !key_written.insert(node as usize) {
                            return Err(ProgramError::KeyReused { round: ri, node });
                        }
                    }
                }
            }
            if let Some(node) = reads
                .iter()
                .copied()
                .filter(|&v| key_written.contains(v as usize))
                .min()
            {
                return Err(ProgramError::KeyReadAndWritten { round: ri, node });
            }
            for &(v, s) in &taken {
                occupied[v as usize][s as usize] = false;
            }
            for &(v, s) in &written {
                if occupied[v as usize][s as usize] {
                    return Err(ProgramError::SlotOccupied {
                        round: ri,
                        node: v,
                        slot: s,
                    });
                }
                occupied[v as usize][s as usize] = true;
            }
        }
        if !occupied.iter().all(|t| !t[0] && !t[1]) {
            return Err(ProgramError::TransitLeftover);
        }
        self.logger.log(|| Event::Validate {
            rounds: program.rounds.len() as u64,
        });
        Ok(ValidationReport {
            rounds: program.rounds.len(),
            ops: program.op_count(),
            cert_points: program.cert_points.len(),
        })
    }
}

/// A relayed compare: its path occupies `hops + 1` entries of the
/// lowerer's node buffer from `start`.
#[derive(Clone, Copy)]
struct Relay {
    start: usize,
    hops: usize,
    min_to_a: bool,
}

/// Lowers the algorithm's logical pair rounds — simultaneous
/// compare-exchanges, possibly between non-adjacent nodes — to
/// edge-aligned rounds, one pair at a time as the replay produces them.
struct Lowerer {
    net: NetworkView,
    /// Factor routes, one entry per ordered label pair `src * n + dst`:
    /// [`pns_graph::shortest_path`]'s path (empty when unreachable),
    /// found by one BFS on first use and kept for the whole compile.
    routes: Vec<Option<Vec<u32>>>,
    rounds: Vec<BspRound>,
    /// Pairs of the logical round being lowered.
    pairs: usize,
    /// Its adjacent pairs, as one compare-exchange round.
    adjacent: BspRound,
    /// Its relayed pairs, their paths stored back to back in `path_nodes`.
    relays: Vec<Relay>,
    path_nodes: Vec<u64>,
    /// Nodes claimed by the wave being scheduled.
    claimed: RoundMarks,
}

impl Lowerer {
    fn new(factor: &Graph, shape: Shape) -> Self {
        Lowerer {
            net: NetworkView::new(factor, shape),
            routes: vec![None; factor.n() * factor.n()],
            rounds: Vec::new(),
            pairs: 0,
            adjacent: Vec::new(),
            relays: Vec::new(),
            path_nodes: Vec::new(),
            claimed: RoundMarks::new(shape.len() as usize),
        }
    }

    /// Add one compare of the current logical round. An adjacent pair
    /// joins the round's compare-exchange round; a non-adjacent one is
    /// relayed along the shortest path inside its factor copy.
    fn pair(&mut self, a: u64, b: u64, min_to_a: bool) {
        self.pairs += 1;
        // Pairs differ in exactly one dimension (sorter programs are
        // checked by `validate_program`; transposition partners differ
        // in one group digit). A degenerate `(a, a)` pair (a sorter bug)
        // is a semantic no-op — comparing a key with itself never
        // swaps — so it lowers to nothing rather than panicking.
        let Some((dim, da, db)) = self.net.split(a, b) else {
            debug_assert_eq!(a, b, "logical pairs differ in exactly one digit");
            return;
        };
        let factor = &self.net.factor;
        let path = self.routes[da as usize * factor.n() + db as usize].get_or_insert_with(|| {
            pns_graph::shortest_path(factor, da as u32, db as u32).unwrap_or_default()
        });
        match path.len() {
            // Unreachable for the connected factors every machine
            // constructor validates; on a disconnected factor the pair
            // cannot be routed at all — drop it (the program's final
            // certificate will expose the unsorted result) instead of
            // panicking mid-compile.
            0 => {}
            2 => self.adjacent.push(Op::CompareExchange { a, b, min_to_a }),
            len => {
                let stride = self.net.strides[dim];
                let base = a - da * stride;
                self.relays.push(Relay {
                    start: self.path_nodes.len(),
                    hops: len - 1,
                    min_to_a,
                });
                self.path_nodes
                    .extend(path.iter().map(|&f| base + u64::from(f) * stride));
            }
        }
    }

    /// Close the current logical round: its compare-exchange round, then
    /// its relays grouped into waves whose paths are node-disjoint (so
    /// every relay node has both transit slots free for its one pair's
    /// forward and backward streams), each wave taking `max path length`
    /// move rounds plus a shared resolve round.
    fn finish_round(&mut self) {
        if std::mem::take(&mut self.pairs) == 0 {
            // The synchronous round elapses even when this parity class
            // is empty (matching the executed engine's accounting).
            self.rounds.push(Vec::new());
            return;
        }
        if !self.adjacent.is_empty() {
            self.rounds.push(std::mem::take(&mut self.adjacent));
        }
        let mut remaining: Vec<Relay> = std::mem::take(&mut self.relays);
        while !remaining.is_empty() {
            self.claimed.next_round();
            let mut wave = Vec::new();
            let mut rest = Vec::new();
            for relay in remaining {
                let path = &self.path_nodes[relay.start..=relay.start + relay.hops];
                if path.iter().any(|&v| self.claimed.contains(v as usize)) {
                    rest.push(relay);
                } else {
                    for &v in path {
                        self.claimed.insert(v as usize);
                    }
                    wave.push(relay);
                }
            }
            self.emit_wave(&wave);
            remaining = rest;
        }
        self.path_nodes.clear();
    }

    /// Emit the move/resolve rounds for one node-disjoint wave of relays.
    fn emit_wave(&mut self, wave: &[Relay]) {
        let max_hops = wave.iter().map(|r| r.hops).max().unwrap_or(0);
        // Hop rounds: slot 0 carries a→b, slot 1 carries b→a,
        // simultaneously (full-duplex edges; the machine checks
        // per-direction capacity).
        for h in 0..max_hops {
            let mut round: BspRound = Vec::new();
            for relay in wave.iter().filter(|r| h < r.hops) {
                let path = &self.path_nodes[relay.start..=relay.start + relay.hops];
                let hops = relay.hops;
                round.push(Op::Move {
                    from: path[h],
                    to: path[h + 1],
                    slot: 0,
                    from_key: h == 0,
                });
                round.push(Op::Move {
                    from: path[hops - h],
                    to: path[hops - h - 1],
                    slot: 1,
                    from_key: h == 0,
                });
            }
            self.rounds.push(round);
        }
        // Resolve round: both endpoints decide locally.
        let mut resolve: BspRound = Vec::new();
        for relay in wave {
            resolve.push(Op::Resolve {
                node: self.path_nodes[relay.start],
                slot: 1,
                keep_min: relay.min_to_a,
            });
            resolve.push(Op::Resolve {
                node: self.path_nodes[relay.start + relay.hops],
                slot: 0,
                keep_min: !relay.min_to_a,
            });
        }
        if !resolve.is_empty() {
            self.rounds.push(resolve);
        }
    }
}

/// Engine that lowers the algorithm's pair rounds as the replay
/// produces them, instead of costing them. It never reads the keys: the
/// algorithm is oblivious, so the schedule is the same for every input.
struct RecordingEngine {
    /// The sorter's comparator program for one `PG_2`.
    program: Vec<Vec<(u32, u32)>>,
    lowerer: Lowerer,
}

impl RecordingEngine {
    fn new(factor: &Graph, shape: Shape, sorter: &dyn Pg2Sorter) -> Self {
        let program = sorter.program(shape.n());
        crate::sorters::validate_program(shape.n(), &program);
        RecordingEngine {
            program,
            lowerer: Lowerer::new(factor, shape),
        }
    }
}

impl<K: Ord + Clone + Send + Sync> Engine<K> for RecordingEngine {
    fn sort_round(&mut self, _keys: &mut [K], subgraphs: &[Pg2Instance]) -> u64 {
        for round in &self.program {
            for sg in subgraphs {
                let min_to_a = sg.dir == Direction::Ascending;
                for &(p, q) in round {
                    self.lowerer
                        .pair(sg.nodes[p as usize], sg.nodes[q as usize], min_to_a);
                }
            }
            self.lowerer.finish_round();
        }
        self.program.len() as u64
    }

    fn oet_round(&mut self, _keys: &mut [K], pairs: &[(u64, u64)]) -> u64 {
        for &(a, b) in pairs {
            self.lowerer.pair(a, b, true);
        }
        self.lowerer.finish_round();
        1
    }
}

/// Compile the full sorting algorithm for the product of `factor` with
/// `r` dimensions, using `sorter`'s comparator program for the `PG_2`
/// sorts, into an edge-aligned [`CompiledProgram`].
///
/// ```
/// use pns_graph::factories;
/// use pns_simulator::bsp::{compile, BspMachine};
/// use pns_simulator::Hypercube2Sorter;
///
/// let factor = factories::k2();
/// let program = compile(&factor, 4, &Hypercube2Sorter);
/// let machine = BspMachine::new(&factor, 4);
/// let mut keys: Vec<u32> = (0..16).rev().collect();
/// machine.run(&mut keys, &program); // validates every op against the 4-cube
/// assert!(pns_simulator::netsort::is_snake_sorted(machine.shape(), &keys));
/// ```
///
/// Compare pairs between adjacent nodes become single
/// [`Op::CompareExchange`] rounds; non-adjacent pairs (non-Hamiltonian
/// labelings) are lowered to bidirectional relays along shortest paths,
/// scheduled into node-disjoint waves.
#[must_use]
pub fn compile(factor: &Graph, r: usize, sorter: &dyn Pg2Sorter) -> CompiledProgram {
    compile_with_counters(factor, r, sorter).0
}

/// [`compile`], also returning the logical unit [`Counters`] of one
/// sort — the same totals `network_sort` reports for this shape — which
/// the recording replay accumulates anyway.
pub(crate) fn compile_with_counters(
    factor: &Graph,
    r: usize,
    sorter: &dyn Pg2Sorter,
) -> (CompiledProgram, Counters) {
    assert!(r >= 2, "the algorithm needs at least two dimensions");
    let shape = Shape::new(factor.n(), r);
    let mut engine = RecordingEngine::new(factor, shape, sorter);
    // Replay stage by stage; the schedule is input-independent, so no
    // keys are needed. Stage boundaries fall between lowered rounds, so
    // the program records a certificate point at each: after stage `k`,
    // the paper's invariant says every `k`-dimensional subgraph is
    // snake-sorted (the final boundary, `k = r`, is global
    // snake-sortedness).
    let no_keys: &mut [u32] = &mut [];
    let dims: Vec<usize> = (0..r).collect();
    let mut out = crate::netsort::NetSortOutcome::default();
    let mut cert_points: Vec<CertPoint> = Vec::new();
    // Stage 2 (the initial parallel PG_2 sort round) is exactly the
    // 2-dimensional merge's base case; the replayed schedule is
    // identical to network_sort's.
    for k in 2..=r {
        network_merge(shape, no_keys, &mut engine, &dims[..k], &mut out);
        cert_points.push(CertPoint {
            round: engine.lowerer.rounds.len() as u64,
            dims: k as u32,
        });
    }
    // `network_sort` runs stage 2 as a bare sort round, not as a merge.
    out.counters.merges -= 1;

    let mut program = CompiledProgram::from_rounds(shape, engine.lowerer.rounds);
    program.cert_points = cert_points;
    (program, out.counters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netsort::network_sort;
    use crate::sorters::{Hypercube2Sorter, OetSnakeSorter, ShearSorter};
    use crate::{ExecutedEngine, Machine};
    use pns_graph::factories;

    fn snake_sorted<K: Ord>(shape: Shape, keys: &[K]) -> bool {
        crate::netsort::is_snake_sorted(shape, keys)
    }

    #[test]
    fn compiled_grid_program_sorts() {
        let factor = factories::path(4);
        let program = compile(&factor, 2, &ShearSorter);
        let machine = BspMachine::new(&factor, 2);
        let mut keys: Vec<u32> = (0..16).rev().collect();
        let rounds = machine.run(&mut keys, &program);
        assert!(snake_sorted(machine.shape(), &keys));
        assert_eq!(rounds as usize, program.rounds());
    }

    #[test]
    fn compiled_rounds_match_executed_engine_on_hamiltonian_factors() {
        // On a Hamiltonian-labeled factor every logical pair is an edge,
        // so BSP rounds == executed-engine steps.
        for (factor, r, sorter) in [
            (factories::path(3), 3usize, &ShearSorter as &dyn Pg2Sorter),
            (factories::path(5), 2, &OetSnakeSorter),
            (factories::k2(), 5, &Hypercube2Sorter),
        ] {
            let program = compile(&factor, r, sorter);
            let shape = program.shape();
            let mut engine = ExecutedEngine::new(&factor, shape, sorter);
            let mut keys: Vec<u64> = (0..shape.len()).rev().collect();
            let out = network_sort(shape, &mut keys, &mut engine);
            assert_eq!(program.rounds() as u64, out.steps, "{factor:?} r={r}");
        }
    }

    #[test]
    fn compiled_program_is_input_independent() {
        let factor = factories::path(3);
        let program = compile(&factor, 3, &ShearSorter);
        let machine = BspMachine::new(&factor, 3);
        let mut state = 11u64;
        for _ in 0..10 {
            let mut keys: Vec<u64> = (0..27)
                .map(|i| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(i);
                    state >> 40
                })
                .collect();
            let mut expect = keys.clone();
            expect.sort_unstable();
            machine.run(&mut keys, &program);
            let sorted = crate::netsort::read_snake_order(machine.shape(), &keys);
            assert_eq!(sorted, expect);
        }
    }

    #[test]
    fn hypercube_program_zero_one_exhaustive() {
        // Exhaustive for the 3-cube; the 4-cube (2^16 inputs) is covered
        // by the release-mode integration sweep.
        let factor = factories::k2();
        let program = compile(&factor, 3, &Hypercube2Sorter);
        let machine = BspMachine::new(&factor, 3);
        for mask in 0u32..(1 << 8) {
            let mut keys: Vec<u8> = (0..8).map(|i| ((mask >> i) & 1) as u8).collect();
            machine.run(&mut keys, &program);
            assert!(snake_sorted(machine.shape(), &keys), "mask={mask:#x}");
        }
    }

    #[test]
    fn non_hamiltonian_factor_uses_relays_and_still_sorts() {
        // Star factor: compares between leaves relay through the hub.
        let factor = factories::star(4);
        let program = compile(&factor, 2, &OetSnakeSorter);
        let machine = BspMachine::new(&factor, 2);
        let mut keys: Vec<u32> = (0..16).map(|x| (x * 11) % 17).collect();
        let mut expect = keys.clone();
        expect.sort_unstable();
        machine.run(&mut keys, &program);
        assert_eq!(
            crate::netsort::read_snake_order(machine.shape(), &keys),
            expect
        );
        // Relays exist: some rounds carry Move/Resolve ops.
        let has_moves = program
            .rounds
            .iter()
            .flatten()
            .any(|op| matches!(op, Op::Move { .. }));
        assert!(has_moves, "expected relayed compares on the star factor");
    }

    #[test]
    fn bsp_agrees_with_machine_api() {
        let factor = Machine::prepare_factor(&factories::complete_binary_tree(3));
        let program = compile(&factor, 2, &OetSnakeSorter);
        let bsp = BspMachine::new(&factor, 2);
        let keys: Vec<u64> = (0..49).map(|x| (x * 13) % 29).collect();
        let mut bsp_keys = keys.clone();
        bsp.run(&mut bsp_keys, &program);

        let mut m = Machine::executed(&factor, 2, &OetSnakeSorter);
        let rep = m.sort(keys).expect("49 keys");
        assert_eq!(bsp_keys, rep.keys, "final configurations must agree");
    }

    #[test]
    #[should_panic(expected = "not an edge")]
    fn machine_rejects_non_edge_compare() {
        let factor = factories::path(3);
        let machine = BspMachine::new(&factor, 2);
        let program = CompiledProgram::from_rounds(
            machine.shape(),
            vec![vec![Op::CompareExchange {
                a: 0,
                b: 2, // labels 0 and 2 are not adjacent on the path
                min_to_a: true,
            }]],
        );
        let mut keys: Vec<u32> = (0..9).collect();
        machine.run(&mut keys, &program);
    }

    #[test]
    #[should_panic(expected = "key accessed twice")]
    fn machine_rejects_node_reuse_in_round() {
        let factor = factories::path(3);
        let machine = BspMachine::new(&factor, 2);
        let program = CompiledProgram::from_rounds(
            machine.shape(),
            vec![vec![
                Op::CompareExchange {
                    a: 0,
                    b: 1,
                    min_to_a: true,
                },
                Op::CompareExchange {
                    a: 1,
                    b: 2,
                    min_to_a: true,
                },
            ]],
        );
        let mut keys: Vec<u32> = (0..9).collect();
        machine.run(&mut keys, &program);
    }

    #[test]
    #[should_panic(expected = "resolve of empty slot")]
    fn machine_rejects_resolving_empty_slot() {
        let factor = factories::path(3);
        let machine = BspMachine::new(&factor, 2);
        let program = CompiledProgram::from_rounds(
            machine.shape(),
            vec![vec![Op::Resolve {
                node: 0,
                slot: 0,
                keep_min: true,
            }]],
        );
        let mut keys: Vec<u32> = (0..9).collect();
        machine.run(&mut keys, &program);
    }

    #[test]
    fn compiled_programs_serialize_roundtrip() {
        let factor = factories::path(3);
        let program = compile(&factor, 2, &OetSnakeSorter);
        let json = serde_json::to_string(&program).expect("serialize");
        let back: CompiledProgram = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back.rounds(), program.rounds());
        assert_eq!(back.op_count(), program.op_count());
        assert_eq!(back.cert_points(), program.cert_points());
        // The deserialized program still runs and sorts.
        let machine = BspMachine::new(&factor, 2);
        let mut keys: Vec<u32> = (0..9).rev().collect();
        machine.run(&mut keys, &back);
        assert!(snake_sorted(machine.shape(), &keys));
        // Programs serialized with the former `stats` key still load.
        let legacy = json.replacen('{', "{\"stats\":{\"rounds_before\":1},", 1);
        let old: CompiledProgram = serde_json::from_str(&legacy).expect("legacy key ignored");
        assert_eq!(old.round_ops(), program.round_ops());
    }

    #[test]
    fn op_counts_are_reported() {
        let factor = factories::path(3);
        let program = compile(&factor, 2, &OetSnakeSorter);
        assert!(program.op_count() > 0);
        assert!(program.rounds() > 0);
    }

    /// Deterministic pseudo-random keys for differential checks.
    fn lcg_keys(len: u64, seed: u64) -> Vec<u64> {
        let mut state = seed;
        (0..len)
            .map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(i | 1);
                state >> 33
            })
            .collect()
    }

    #[test]
    fn validate_accepts_every_compiled_program() {
        for (factor, r, sorter) in [
            (factories::path(4), 2usize, &ShearSorter as &dyn Pg2Sorter),
            (factories::star(4), 2, &OetSnakeSorter),
            (factories::k2(), 5, &Hypercube2Sorter),
            (
                Machine::prepare_factor(&factories::petersen()),
                2,
                &OetSnakeSorter,
            ),
        ] {
            let machine = BspMachine::new(&factor, r);
            let program = compile(&factor, r, sorter);
            machine.validate(&program);
        }
    }

    #[test]
    #[should_panic(expected = "read and written in one round")]
    fn validate_rejects_order_dependent_rounds() {
        // Node 1's key is read by a relay first hop and written by a
        // compare-exchange in the same round: serial execution order
        // would decide which value the relay carries.
        let factor = factories::path(3);
        let machine = BspMachine::new(&factor, 2);
        let program = CompiledProgram::from_rounds(
            machine.shape(),
            vec![
                vec![
                    Op::Move {
                        from: 1,
                        to: 2,
                        slot: 0,
                        from_key: true,
                    },
                    Op::CompareExchange {
                        a: 0,
                        b: 1,
                        min_to_a: true,
                    },
                ],
                vec![Op::Resolve {
                    node: 2,
                    slot: 0,
                    keep_min: true,
                }],
            ],
        );
        machine.validate(&program);
    }

    /// Build a machine wired to an in-memory event ring.
    fn traced_machine(factor: &Graph, r: usize) -> (BspMachine, pns_obs::MemoryReader) {
        let (sink, reader) = pns_obs::MemorySink::with_capacity(1 << 16);
        let mut machine = BspMachine::new(factor, r);
        let logger = pns_obs::EventLogger::new(Box::new(sink));
        machine.attach_logger(logger);
        (machine, reader)
    }

    fn drain(machine: &BspMachine, reader: &pns_obs::MemoryReader) -> Vec<pns_obs::TimedEvent> {
        machine.logger.flush();
        reader.events()
    }

    #[test]
    fn round_events_pair_up_and_are_monotone() {
        let factor = factories::star(4);
        let program = compile(&factor, 2, &OetSnakeSorter);
        let (machine, reader) = traced_machine(&factor, 2);
        let mut keys: Vec<u64> = (0..16).rev().collect();
        machine.run(&mut keys, &program);
        let events = drain(&machine, &reader);
        let mut open: Option<u64> = None;
        let mut next_round = 0u64;
        let mut span_opens = 0u64;
        let mut span_closes = 0u64;
        for ev in &events {
            match ev.event {
                Event::RoundStart { round, .. } => {
                    assert!(open.is_none(), "RoundStart {round} inside an open round");
                    assert_eq!(round, next_round, "round indices must be monotone");
                    open = Some(round);
                }
                Event::RoundEnd { round } => {
                    assert_eq!(open.take(), Some(round), "RoundEnd {round} without start");
                    next_round += 1;
                }
                Event::SpanEnter { .. } => span_opens += 1,
                Event::SpanExit { .. } => span_closes += 1,
                other => panic!("serial run emitted unexpected {other:?}"),
            }
        }
        assert!(open.is_none(), "every RoundStart needs a matching RoundEnd");
        assert_eq!(next_round as usize, program.rounds());
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e.event, Event::RoundStart { .. } | Event::RoundEnd { .. }))
                .count(),
            2 * program.rounds()
        );
        // The run itself is wrapped in one serial sort span (the star²
        // rounds are below ROUND_OBS_MIN_OPS, so no round spans), and
        // every opened span closed.
        assert_eq!(span_opens, span_closes);
        assert!(span_opens >= 1, "expected at least the sort span");
        let sort_enter = events
            .iter()
            .find_map(|e| match e.event {
                Event::SpanEnter {
                    span, tier, stage, ..
                } => Some((span, tier, stage)),
                _ => None,
            })
            .expect("sort span enter");
        assert_eq!(sort_enter.1, pns_obs::Tier::Serial.code());
        assert_eq!(sort_enter.2, pns_obs::Stage::Sort.code());
        assert!(
            events
                .iter()
                .any(|e| matches!(e.event, Event::SpanExit { span, .. } if span == sort_enter.0)),
            "sort span must close"
        );
    }

    #[test]
    fn batches_emit_schedule_and_validate_events() {
        let factor = factories::path(3);
        let program = compile(&factor, 2, &OetSnakeSorter);
        let (machine, reader) = traced_machine(&factor, 2);
        let mut batch: Vec<Vec<u64>> = (0..5).map(|s| lcg_keys(9, s + 1)).collect();
        let kernel = machine.lower(&program).expect("compiled programs validate");
        let mut pool = crate::kernel::ScratchPool::new();
        machine.run_kernel_batch(&mut batch, &kernel, &mut pool);
        let events = drain(&machine, &reader);
        assert!(events.iter().any(|e| e.event
            == Event::Validate {
                rounds: program.rounds() as u64,
            }));
        let scheduled: Vec<Event> = events
            .iter()
            .map(|e| e.event)
            .filter(|e| matches!(e, Event::BatchScheduled { .. }))
            .collect();
        assert_eq!(
            scheduled,
            vec![Event::BatchScheduled {
                batch: 5,
                lanes: 5.min(rayon::current_num_threads() as u64),
            }]
        );
    }

    /// A program lowered for round-by-round stepping, with its scratch.
    fn stepper(
        program: &CompiledProgram,
        nodes: usize,
    ) -> (
        crate::kernel::KernelProgram,
        crate::kernel::ExecScratch<u64>,
    ) {
        let mut scratch = crate::kernel::ExecScratch::new();
        scratch.reset(nodes);
        (crate::kernel::KernelProgram::lower(program), scratch)
    }

    #[test]
    fn compiled_programs_carry_stage_certificates() {
        for (factor, r, sorter) in [
            (factories::path(3), 3usize, &ShearSorter as &dyn Pg2Sorter),
            (factories::star(4), 2, &OetSnakeSorter),
            (factories::k2(), 5, &Hypercube2Sorter),
        ] {
            let program = compile(&factor, r, sorter);
            let certs = program.cert_points();
            // One certificate per stage: dims 2, 3, …, r.
            assert_eq!(certs.len(), r - 1, "{factor:?} r={r}");
            for (i, c) in certs.iter().enumerate() {
                assert_eq!(c.dims as usize, i + 2);
            }
            // Boundaries are monotone and the last one closes the program.
            assert!(certs.windows(2).all(|w| w[0].round <= w[1].round));
            assert_eq!(
                certs.last().expect("nonempty").round as usize,
                program.rounds()
            );
            // The certified invariant actually holds at each boundary.
            let machine = BspMachine::new(&factor, r);
            let mut keys = lcg_keys(machine.shape().len(), 23);
            let (kernel, mut scratch) = stepper(&program, keys.len());
            let mut next_cert = 0;
            for ri in 0..kernel.rounds() {
                while next_cert < certs.len() && certs[next_cert].round as usize == ri {
                    assert!(
                        crate::verify::subgraphs_snake_sorted(
                            machine.shape(),
                            &keys,
                            certs[next_cert].dims as usize
                        ),
                        "{factor:?} r={r}: certificate at round {ri} violated"
                    );
                    next_cert += 1;
                }
                crate::kernel::exec_kernel_round(&mut keys, &kernel, ri, &mut scratch);
            }
            for c in &certs[next_cert..] {
                assert_eq!(c.round as usize, program.rounds());
                assert!(crate::verify::subgraphs_snake_sorted(
                    machine.shape(),
                    &keys,
                    c.dims as usize
                ));
            }
        }
    }

    #[test]
    fn try_validate_reports_typed_errors_with_legacy_messages() {
        let factor = factories::path(3);
        let machine = BspMachine::new(&factor, 2);
        let bad = CompiledProgram::from_rounds(
            machine.shape(),
            vec![vec![Op::CompareExchange {
                a: 0,
                b: 2,
                min_to_a: true,
            }]],
        );
        let err = machine.try_validate(&bad).expect_err("not an edge");
        assert_eq!(
            err,
            ProgramError::CompareNotEdge {
                round: 0,
                a: 0,
                b: 2
            }
        );
        assert_eq!(
            err.to_string(),
            "round 0: compare-exchange (0,2) is not an edge"
        );

        let empty_resolve = CompiledProgram::from_rounds(
            machine.shape(),
            vec![vec![Op::Resolve {
                node: 1,
                slot: 0,
                keep_min: true,
            }]],
        );
        let err = machine
            .try_validate(&empty_resolve)
            .expect_err("empty slot");
        assert_eq!(
            err,
            ProgramError::ResolveEmptySlot {
                round: 0,
                node: 1,
                slot: 0
            }
        );
        assert_eq!(err.to_string(), "round 0: resolve of empty slot 0 at 1");

        let other_machine = BspMachine::new(&factor, 3);
        assert_eq!(
            other_machine.try_validate(&bad),
            Err(ProgramError::ShapeMismatch)
        );

        // A good program reports its size and certificates.
        let good = compile(&factor, 2, &OetSnakeSorter);
        let report = machine.try_validate(&good).expect("valid program");
        assert_eq!(report.rounds, good.rounds());
        assert_eq!(report.ops, good.op_count());
        assert_eq!(report.cert_points, 1);
    }

    #[test]
    fn try_validate_flags_transit_leftovers() {
        let factor = factories::path(3);
        let machine = BspMachine::new(&factor, 2);
        // A single move parks a value in transit and never resolves it.
        let program = CompiledProgram::from_rounds(
            machine.shape(),
            vec![vec![Op::Move {
                from: 0,
                to: 1,
                slot: 0,
                from_key: true,
            }]],
        );
        assert_eq!(
            machine.try_validate(&program),
            Err(ProgramError::TransitLeftover)
        );
    }

    #[test]
    fn try_validate_reports_the_lowest_key_read_and_written() {
        // Nodes 4 and 1 are both read by relay first hops and written by
        // compare-exchanges in one round; the error names node 1 whatever
        // the op order.
        let factor = factories::path(3);
        let machine = BspMachine::new(&factor, 2);
        let mv = |from, to| Op::Move {
            from,
            to,
            slot: 0,
            from_key: true,
        };
        let cx = |a, b| Op::CompareExchange {
            a,
            b,
            min_to_a: true,
        };
        for round in [
            vec![mv(4, 5), mv(1, 2), cx(0, 1), cx(3, 4)],
            vec![cx(3, 4), cx(0, 1), mv(1, 2), mv(4, 5)],
        ] {
            let program = CompiledProgram::from_rounds(machine.shape(), vec![round]);
            assert_eq!(
                machine.try_validate(&program),
                Err(ProgramError::KeyReadAndWritten { round: 0, node: 1 })
            );
        }
    }

    #[test]
    fn edge_ids_are_distinct_and_exactly_the_product_edges() {
        for (factor, r) in [
            (factories::path(3), 3usize),
            (factories::petersen(), 2),
            (factories::k2(), 4),
            (factories::star(4), 2),
        ] {
            let view = NetworkView::new(&factor, Shape::new(factor.n(), r));
            let shape = view.shape;
            let mut seen = std::collections::HashSet::new();
            for a in 0..shape.len() {
                for b in 0..=shape.len() {
                    // Exactly one differing digit, and an edge there.
                    let differing: Vec<usize> = (0..r)
                        .filter(|&i| b < shape.len() && shape.digit(a, i) != shape.digit(b, i))
                        .collect();
                    let is_edge = differing.len() == 1 && {
                        let d = differing[0];
                        factor.has_edge(shape.digit(a, d) as u32, shape.digit(b, d) as u32)
                    };
                    let id = view.edge(a, b);
                    assert_eq!(id.is_some(), is_edge, "{factor:?}^{r}: ({a},{b})");
                    if let Some(id) = id {
                        assert!(id < view.edge_ids());
                        assert!(seen.insert(id), "{factor:?}^{r}: id of ({a},{b}) reused");
                    }
                }
            }
        }
    }
}

//! Bit-sliced "vertical" batch execution: the third compilation tier.
//!
//! The kernel tier (`kernel.rs`) removed per-op interpretation; this
//! tier removes per-*lane* work. A batch is transposed into lane-major
//! structure-of-arrays form — the "vertical" layout of bitonic-sorter
//! hardware and of Piotrów's periodic merging networks — so one machine
//! word carries the same network node for up to [`WORD_LANES`]
//! independent input vectors at once:
//!
//! * **0/1 workloads** ([`BspMachine::run_vertical_bits`]): the word
//!   *is* the data. One `u64` per node holds bit `l` = lane `l`'s key,
//!   and a compare-exchange on the edge `(a, b)` is two bitwise ops —
//!   `min = a & b`, `max = a | b` — for all 64 lanes together. By the
//!   zero-one principle the network is comparator-shaped, so this path
//!   doubles as an *exhaustive* correctness oracle: sweeping all `2^n`
//!   masks costs `2^n / 64` executions (`tests/vertical.rs` does
//!   exactly that for every small fixture).
//! * **Full keys** ([`BspMachine::run_vertical_batch`]): lanes are
//!   blocked into groups of ≤ [`WORD_LANES`] and each node becomes a
//!   contiguous *column* of `w` keys. Compare rounds build a `u64`
//!   swap-decision mask per edge and commit set bits; route rounds move
//!   whole columns through word-indexed transit slots. Same memory
//!   discipline as the kernel tier: a caller-owned
//!   [`VerticalScratch`]/[`VerticalPool`] makes warm runs allocation-free
//!   (`tests/vertical_alloc.rs` proves zero heap allocations).
//!
//! Both executors walk the *same* [`KernelProgram`] rounds in the same
//! order — a [`VerticalProgram`] is a layout commitment, not a new
//! lowering — so round indices and certificate boundaries are shared
//! 1:1 with the kernel tier. The tier runs clean batches only: under an
//! enabled fault plan the batch dispatcher ([`crate::batch`]) runs every
//! lane through the kernel fault executor instead.

use std::sync::Arc;

use pns_obs::{Event, SpanClass, Stage, Tier, ROUND_OBS_MIN_OPS, SORT_OBS_MIN_OPS};
use pns_order::radix::Shape;

use crate::bsp::BspMachine;
use crate::kernel::{
    KernelProgram, RoundClass, RoundDesc, FLAG_PRIMARY, FLAG_SLOT1, TAG_CX, TAG_MOVE,
};

/// Lanes per machine word: the widest block the vertical layout packs
/// into one `u64` of decision (or data) bits.
pub const WORD_LANES: usize = 64;

/// Batch size at which the batch dispatcher ([`crate::batch::run`])
/// switches clean batches from the per-lane kernel tier to the vertical
/// tier: one full word of lanes. Below this the transpose overhead has no word-parallelism to
/// amortize against.
pub const VERTICAL_MIN_LANES: usize = WORD_LANES;

/// A kernel program committed to the vertical (lane-major) layout.
///
/// Lowering is a wrapper, not a rewrite: the vertical executors read
/// the kernel's flat round/pair/micro-op tables directly, which is what
/// guarantees round and op indices — and with them fault sites and
/// certificate boundaries — stay aligned across all three tiers. The
/// type exists so callers cannot accidentally hand a horizontal scratch
/// to a vertical run.
#[derive(Debug, Clone)]
pub struct VerticalProgram {
    kernel: Arc<KernelProgram>,
}

impl VerticalProgram {
    /// Commit a lowered kernel to the vertical layout.
    #[must_use]
    pub fn lower(kernel: Arc<KernelProgram>) -> VerticalProgram {
        VerticalProgram { kernel }
    }

    /// Shape of `PG_r` the program runs on.
    #[must_use]
    pub fn shape(&self) -> Shape {
        self.kernel.shape()
    }

    /// Rounds in the program (identical to the source kernel).
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.kernel.rounds()
    }

    /// The underlying kernel program.
    #[must_use]
    pub fn kernel(&self) -> &Arc<KernelProgram> {
        &self.kernel
    }

    /// Word-level operations one full-width run executes: every
    /// compare-exchange pair and every route micro-op touches one word
    /// (or one column) regardless of how many lanes ride in it.
    #[must_use]
    pub fn word_ops(&self) -> usize {
        self.kernel.cx_pair_count() + self.kernel.micro_op_count()
    }
}

// ---------------------------------------------------------------------------
// 0/1 path: one u64 word per node, 64 lanes per bit position.
// ---------------------------------------------------------------------------

/// Reusable state for [`BspMachine::run_vertical_bits`]: word-wide
/// transit slots (two per node, like the scalar machine model) and the
/// deferred-move buffer. Warm resets reuse capacity — zero allocations.
#[derive(Debug, Default)]
pub struct BitScratch {
    /// Transit words, indexed `node * 2 + slot`.
    transit: Vec<u64>,
    /// Deferred moves `(node * 2 + slot, payload word)`, committed at
    /// round end so transit reads see previous-round state.
    incoming: Vec<(u32, u64)>,
}

impl BitScratch {
    /// Fresh, empty scratch; the first run sizes it.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self, n: usize) {
        if self.transit.len() == 2 * n {
            self.transit.fill(0);
        } else {
            self.transit.clear();
            self.transit.resize(2 * n, 0);
        }
        self.incoming.clear();
    }
}

/// Pack up to [`WORD_LANES`] zero-one vectors into the vertical word
/// layout: bit `i` of `masks[l]` is lane `l`'s key at node rank `i`,
/// and bit `l` of the returned `words[i]` is the same key. Requires
/// `nodes <= 64` because each lane's vector is itself a `u64` mask —
/// the word layout proper ([`BspMachine::run_vertical_bits`]) has no
/// node-count limit.
///
/// # Panics
///
/// Panics if more than [`WORD_LANES`] masks or more than 64 nodes.
#[must_use]
pub fn pack_zero_one_masks(masks: &[u64], nodes: usize) -> Vec<u64> {
    let mut words = Vec::new();
    pack_zero_one_masks_into(masks, nodes, &mut words);
    words
}

/// [`pack_zero_one_masks`] into a caller-owned buffer (reused capacity,
/// no allocation when warm).
///
/// # Panics
///
/// Panics if more than [`WORD_LANES`] masks or more than 64 nodes.
pub fn pack_zero_one_masks_into(masks: &[u64], nodes: usize, words: &mut Vec<u64>) {
    assert!(masks.len() <= WORD_LANES, "at most one lane per word bit");
    assert!(nodes <= 64, "mask packing needs node ranks to fit a u64");
    words.clear();
    words.resize(nodes, 0);
    for (l, &mask) in masks.iter().enumerate() {
        for (i, word) in words.iter_mut().enumerate() {
            *word |= ((mask >> i) & 1) << l;
        }
    }
}

/// Extract lane `l`'s 0/1 key vector from the vertical word layout.
///
/// # Panics
///
/// Panics if `lane >= 64`.
#[must_use]
pub fn unpack_zero_one_lane(words: &[u64], lane: usize) -> Vec<u8> {
    let mut keys = Vec::new();
    unpack_zero_one_lane_into(words, lane, &mut keys);
    keys
}

/// [`unpack_zero_one_lane`] into a caller-owned buffer.
///
/// # Panics
///
/// Panics if `lane >= 64`.
pub fn unpack_zero_one_lane_into(words: &[u64], lane: usize, keys: &mut Vec<u8>) {
    assert!(lane < WORD_LANES, "one lane per word bit");
    keys.clear();
    keys.extend(words.iter().map(|&w| ((w >> lane) & 1) as u8));
}

/// Word-wide compare-exchange: `AND` is the 64-lane minimum of 0/1
/// keys, `OR` the maximum — one edge, two ops, 64 lanes.
#[inline]
fn bit_cx(words: &mut [u64], a: u32, b: u32, min_to_a: bool) {
    let (ai, bi) = (a as usize, b as usize);
    let (mn, mx) = (words[ai] & words[bi], words[ai] | words[bi]);
    if min_to_a {
        words[ai] = mn;
        words[bi] = mx;
    } else {
        words[ai] = mx;
        words[bi] = mn;
    }
}

/// One vertical 0/1 round: the same micro-op order as
/// [`crate::kernel`]'s `exec_kernel_round`, word-wide. `Resolve` is a
/// one-op merge: keep-min is `AND`, keep-max is `OR` — the arrived word
/// folds into the resident word per lane.
fn exec_bits_round(words: &mut [u64], kernel: &KernelProgram, ri: usize, scratch: &mut BitScratch) {
    let desc = kernel.rounds[ri];
    match desc.class {
        RoundClass::Empty => {}
        RoundClass::Compare => {
            for gi in desc.start as usize..desc.end as usize {
                let (a, b) = kernel.cx_pairs[gi];
                bit_cx(words, a, b, kernel.dir(gi));
            }
        }
        RoundClass::Route => {
            for m in &kernel.micro[desc.start as usize..desc.end as usize] {
                let ai = m.a as usize;
                match m.tag {
                    TAG_CX => bit_cx(words, m.a, m.b, m.flags & FLAG_PRIMARY != 0),
                    TAG_MOVE => {
                        let si = usize::from(m.flags & FLAG_SLOT1 != 0);
                        let payload = if m.flags & FLAG_PRIMARY != 0 {
                            words[ai]
                        } else {
                            scratch.transit[ai * 2 + si]
                        };
                        scratch.incoming.push((m.b * 2 + si as u32, payload));
                    }
                    _ => {
                        let si = usize::from(m.flags & FLAG_SLOT1 != 0);
                        let arrived = scratch.transit[ai * 2 + si];
                        if m.flags & FLAG_PRIMARY != 0 {
                            words[ai] &= arrived;
                        } else {
                            words[ai] |= arrived;
                        }
                    }
                }
            }
            for (idx, payload) in scratch.incoming.drain(..) {
                scratch.transit[idx as usize] = payload;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Full-key path: node-major columns of w ≤ 64 lanes, swap-on-mask.
// ---------------------------------------------------------------------------

/// Reusable state for one vertical block of up to [`WORD_LANES`] lanes:
/// the transposed key columns, column-wide transit slots, and the
/// round-local staging buffer for deferred moves.
///
/// `reset` is **width-aware**: transit and staging are indexed
/// `(node * 2 + slot) * w + lane`, so a scratch warmed for a 64-lane
/// block must be rebuilt — not blindly reused — when a narrower tail
/// block borrows it, or stale wider-stride slots would alias live ones.
/// The pool therefore resizes on any `(nodes, lanes)` change and only
/// skips the rebuild on an exact match.
#[derive(Debug)]
pub struct VerticalScratch<K> {
    /// Node count the buffers are currently sized for.
    n: usize,
    /// Lane width (block size) the buffers are currently sized for.
    w: usize,
    /// Transposed keys, node-major: `cols[node * w + lane]`.
    cols: Vec<K>,
    /// Transit columns: `transit[(node * 2 + slot) * w + lane]`.
    transit: Vec<Option<K>>,
    /// Deferred-move staging, same indexing as `transit`.
    staged: Vec<Option<K>>,
    /// Transit slot indices (`node * 2 + slot`) staged this round.
    touched: Vec<u32>,
}

impl<K> Default for VerticalScratch<K> {
    fn default() -> Self {
        VerticalScratch {
            n: 0,
            w: 0,
            cols: Vec::new(),
            transit: Vec::new(),
            staged: Vec::new(),
            touched: Vec::new(),
        }
    }
}

impl<K> VerticalScratch<K> {
    /// Fresh, empty scratch; the first block sizes it.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Lane width the scratch is currently sized for (0 when unused).
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.w
    }

    /// Size for an `n`-node, `w`-lane block, rebuilding the strided
    /// buffers whenever either dimension changed.
    fn reset(&mut self, n: usize, w: usize) {
        debug_assert!((1..=WORD_LANES).contains(&w), "block width fits one word");
        if self.n == n && self.w == w {
            for t in &mut self.transit {
                *t = None;
            }
            for s in &mut self.staged {
                *s = None;
            }
        } else {
            self.n = n;
            self.w = w;
            self.transit.clear();
            self.transit.resize_with(n * 2 * w, || None);
            self.staged.clear();
            self.staged.resize_with(n * 2 * w, || None);
        }
        self.cols.clear();
        self.touched.clear();
    }
}

/// A pool of per-block [`VerticalScratch`]es for batched vertical runs,
/// grown on demand and reused across batches — the vertical analogue of
/// [`crate::kernel::ScratchPool`].
#[derive(Debug)]
pub struct VerticalPool<K> {
    slots: Vec<VerticalScratch<K>>,
}

impl<K> Default for VerticalPool<K> {
    fn default() -> Self {
        VerticalPool { slots: Vec::new() }
    }
}

impl<K> VerticalPool<K> {
    /// Fresh, empty pool.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn ensure(&mut self, blocks: usize) -> &mut [VerticalScratch<K>] {
        if self.slots.len() < blocks {
            self.slots.resize_with(blocks, VerticalScratch::new);
        }
        &mut self.slots[..blocks]
    }

    /// Block scratches currently pooled.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the pool has served no block yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// Column-wide compare-exchange: phase 1 builds a swap-decision bitmask
/// for the whole column pair (branch-free per lane), phase 2 commits
/// only the set bits — the same decide/commit split as the kernel
/// tier's chunked parallel path, here over lanes instead of pairs.
#[inline]
fn col_cx<K: Ord>(cols: &mut [K], w: usize, a: u32, b: u32, min_to_a: bool) {
    let (abase, bbase) = (a as usize * w, b as usize * w);
    let mut swaps: u64 = 0;
    for l in 0..w {
        swaps |= u64::from((cols[abase + l] <= cols[bbase + l]) != min_to_a) << l;
    }
    while swaps != 0 {
        let l = swaps.trailing_zeros() as usize;
        swaps &= swaps - 1;
        cols.swap(abase + l, bbase + l);
    }
}

/// One vertical full-key round over a `w`-lane block. Identical op
/// order and transit schedule as the scalar kernel round — moves stage
/// into `staged` and commit at round end, so transit reads see
/// previous-round state.
fn exec_cols_round<K: Ord + Clone>(
    kernel: &KernelProgram,
    desc: RoundDesc,
    w: usize,
    cols: &mut [K],
    transit: &mut [Option<K>],
    staged: &mut [Option<K>],
    touched: &mut Vec<u32>,
) {
    match desc.class {
        RoundClass::Empty => {}
        RoundClass::Compare => {
            for gi in desc.start as usize..desc.end as usize {
                let (a, b) = kernel.cx_pairs[gi];
                col_cx(cols, w, a, b, kernel.dir(gi));
            }
        }
        RoundClass::Route => {
            touched.clear();
            for m in &kernel.micro[desc.start as usize..desc.end as usize] {
                let ai = m.a as usize;
                let si = usize::from(m.flags & FLAG_SLOT1 != 0);
                let primary = m.flags & FLAG_PRIMARY != 0;
                match m.tag {
                    TAG_CX => col_cx(cols, w, m.a, m.b, primary),
                    TAG_MOVE => {
                        let fbase = (ai * 2 + si) * w;
                        let tbase = (m.b as usize * 2 + si) * w;
                        for l in 0..w {
                            let payload = if primary {
                                cols[ai * w + l].clone()
                            } else {
                                transit[fbase + l].take().expect("validated: slot occupied")
                            };
                            staged[tbase + l] = Some(payload);
                        }
                        touched.push(m.b * 2 + si as u32);
                    }
                    _ => {
                        let base = (ai * 2 + si) * w;
                        for l in 0..w {
                            let arrived =
                                transit[base + l].take().expect("validated: slot occupied");
                            let resident = &mut cols[ai * w + l];
                            let keep_arrived = if primary {
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
            }
            for &idx in touched.iter() {
                let base = idx as usize * w;
                for l in 0..w {
                    transit[base + l] = staged[base + l].take();
                }
            }
        }
    }
}

/// Transpose a block of lanes in, run every round, transpose back.
fn exec_cols_block<K: Ord + Clone>(
    lanes: &mut [Vec<K>],
    kernel: &KernelProgram,
    scratch: &mut VerticalScratch<K>,
) {
    let w = lanes.len();
    let n = lanes[0].len();
    scratch.reset(n, w);
    for node in 0..n {
        for lane in lanes.iter() {
            scratch.cols.push(lane[node].clone());
        }
    }
    for ri in 0..kernel.rounds() {
        exec_cols_round(
            kernel,
            kernel.rounds[ri],
            w,
            &mut scratch.cols,
            &mut scratch.transit,
            &mut scratch.staged,
            &mut scratch.touched,
        );
    }
    debug_assert!(
        scratch.transit.iter().all(Option::is_none),
        "transit values left in flight after the program ended"
    );
    for node in 0..n {
        for (l, lane) in lanes.iter_mut().enumerate() {
            std::mem::swap(&mut lane[node], &mut scratch.cols[node * w + l]);
        }
    }
}

impl BspMachine {
    /// Validate and lower `program` straight to the vertical tier —
    /// [`BspMachine::lower`] plus the layout commitment.
    ///
    /// # Errors
    ///
    /// The first machine-model violation, as from
    /// [`BspMachine::try_validate`].
    pub fn lower_vertical(
        &self,
        program: &crate::bsp::CompiledProgram,
    ) -> Result<VerticalProgram, crate::bsp::ProgramError> {
        let kernel = Arc::new(self.lower(program)?);
        let _lower_span = self
            .logger
            .span(Tier::Vertical, Stage::LowerVertical, SpanClass::None);
        Ok(VerticalProgram::lower(kernel))
    }

    /// Execute a vertical program on up to 64 packed 0/1 vectors at
    /// once: `words[i]` holds bit `l` = lane `l`'s key at node rank
    /// `i` (see [`pack_zero_one_masks`]). Every lane lands exactly
    /// where [`BspMachine::run`] would put its scalar 0/1 vector —
    /// compare-exchange on 0/1 keys *is* `AND`/`OR`, and the routing
    /// schedule is data-independent.
    ///
    /// Returns the number of rounds executed; performs zero heap
    /// allocations once `scratch` is warm.
    ///
    /// # Panics
    ///
    /// Panics if the program was lowered for another shape or `words`
    /// is not one word per node.
    pub fn run_vertical_bits(
        &self,
        words: &mut [u64],
        vertical: &VerticalProgram,
        scratch: &mut BitScratch,
    ) -> u64 {
        let kernel = vertical.kernel();
        assert_eq!(
            kernel.shape(),
            self.shape(),
            "vertical program lowered for another shape"
        );
        assert_eq!(words.len() as u64, self.shape().len(), "one word per node");
        // Sort-grain span only above the program-size gate, same as the
        // scalar kernel (DESIGN.md §13): a bit-sliced pass over a small
        // program finishes in microseconds, and batch callers get their
        // amortized span from `run_vertical_batch` regardless.
        let _sort_span = self.logger.span_if(
            vertical.word_ops() >= SORT_OBS_MIN_OPS,
            Tier::Vertical,
            Stage::Sort,
            SpanClass::None,
        );
        scratch.reset(words.len());
        for ri in 0..kernel.rounds() {
            // Same round-grain gating as the kernel tier (DESIGN.md §13):
            // word-wide rounds run in nanoseconds, so only rounds with
            // enough ops get their own events and span.
            let observed = kernel.round_len(ri) >= ROUND_OBS_MIN_OPS;
            if observed {
                self.logger.log(|| Event::RoundStart {
                    round: ri as u64,
                    ops: kernel.round_len(ri) as u64,
                });
            }
            let _round_span = self.logger.span_if(
                observed,
                Tier::Vertical,
                Stage::Round,
                kernel.rounds[ri].class.span_class(),
            );
            exec_bits_round(words, kernel, ri, scratch);
            if observed {
                self.logger.log(|| Event::RoundEnd { round: ri as u64 });
            }
        }
        kernel.rounds() as u64
    }

    /// Drive a batch of full-key vectors through the vertical tier:
    /// lanes are blocked 64 to a word, each block transposed into
    /// node-major columns and executed with word-wide swap masks, then
    /// transposed back. Bit-identical to [`BspMachine::run_kernel_batch`]
    /// (and therefore to per-lane [`BspMachine::run`]) on every input;
    /// blocks run in parallel, and warm pools make reruns allocation-free.
    ///
    /// Returns the number of rounds executed (same for every lane).
    ///
    /// # Panics
    ///
    /// Panics if the program was lowered for another shape or any
    /// vector is not one key per node.
    pub fn run_vertical_batch<K>(
        &self,
        batch: &mut [Vec<K>],
        vertical: &VerticalProgram,
        pool: &mut VerticalPool<K>,
    ) -> u64
    where
        K: Ord + Clone + Send + Sync,
    {
        let kernel = vertical.kernel();
        assert_eq!(
            kernel.shape(),
            self.shape(),
            "vertical program lowered for another shape"
        );
        for keys in batch.iter() {
            assert_eq!(keys.len() as u64, self.shape().len(), "one key per node");
        }
        let _batch_span = self
            .logger
            .span(Tier::Vertical, Stage::Batch, SpanClass::None);
        self.logger.log(|| Event::BatchScheduled {
            batch: batch.len() as u64,
            lanes: batch.len().min(rayon::current_num_threads()) as u64,
        });
        let blocks = batch.len().div_ceil(WORD_LANES);
        let scratches = pool.ensure(blocks);
        if blocks <= 1 {
            for (lanes, scratch) in batch.chunks_mut(WORD_LANES).zip(scratches.iter_mut()) {
                exec_cols_block(lanes, kernel, scratch);
            }
        } else {
            /// Distinct `&mut` targets per worker (the vendored `rayon`
            /// subset has no zip, so blocks pair lanes with scratch).
            struct Block<'a, K> {
                lanes: &'a mut [Vec<K>],
                scratch: &'a mut VerticalScratch<K>,
            }
            use rayon::prelude::*;
            let mut work: Vec<Block<'_, K>> = batch
                .chunks_mut(WORD_LANES)
                .zip(scratches.iter_mut())
                .map(|(lanes, scratch)| Block { lanes, scratch })
                .collect();
            work.par_iter_mut()
                .for_each(|b| exec_cols_block(b.lanes, kernel, b.scratch));
        }
        kernel.rounds() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bsp::compile;
    use crate::netsort::is_snake_sorted;
    use crate::sorters::{OetSnakeSorter, ShearSorter};
    use pns_graph::factories;

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
    fn bits_path_matches_serial_runs_on_every_3_cube_vector() {
        // All 512 0/1 vectors of the 2-ary 3-cube, 64 lanes per word:
        // every lane must land exactly where the scalar machine puts it.
        let factor = factories::path(2);
        let program = compile(&factor, 3, &ShearSorter);
        let machine = BspMachine::new(&factor, 3);
        let vertical = machine.lower_vertical(&program).expect("validates");
        let n = machine.shape().len() as usize;
        let mut scratch = BitScratch::new();
        for base in (0u64..512).step_by(WORD_LANES) {
            let masks: Vec<u64> = (base..base + WORD_LANES as u64).collect();
            let mut words = pack_zero_one_masks(&masks, n);
            machine.run_vertical_bits(&mut words, &vertical, &mut scratch);
            for (l, &mask) in masks.iter().enumerate() {
                let mut serial: Vec<u8> = (0..n).map(|i| ((mask >> i) & 1) as u8).collect();
                machine.run(&mut serial, &program);
                assert_eq!(
                    unpack_zero_one_lane(&words, l),
                    serial,
                    "mask={mask:#x}: vertical lane vs serial run"
                );
            }
        }
    }

    #[test]
    fn pack_and_unpack_round_trip() {
        let masks: Vec<u64> = (0..7).map(|l| 0x2A ^ (l * 3)).collect();
        let words = pack_zero_one_masks(&masks, 6);
        for (l, &mask) in masks.iter().enumerate() {
            let lane = unpack_zero_one_lane(&words, l);
            let want: Vec<u8> = (0..6).map(|i| ((mask >> i) & 1) as u8).collect();
            assert_eq!(lane, want);
        }
    }

    #[test]
    fn column_batch_matches_kernel_batch_across_block_widths() {
        // 130 lanes = two full words plus a 2-lane tail: the blocked
        // path must agree with the per-lane kernel on every lane,
        // including relay-heavy routing (star factor).
        let cases = [
            (
                factories::path(3),
                3usize,
                &ShearSorter as &dyn crate::sorters::Pg2Sorter,
            ),
            (factories::star(4), 2, &OetSnakeSorter),
        ];
        for (factor, r, sorter) in cases {
            let program = compile(&factor, r, sorter);
            let machine = BspMachine::new(&factor, r);
            let kernel = machine.lower(&program).expect("validates");
            let vertical = machine.lower_vertical(&program).expect("validates");
            let len = machine.shape().len();
            let mut batch: Vec<Vec<u64>> = (0..130).map(|s| lcg_keys(len, s)).collect();
            let mut want = batch.clone();
            let mut pool = VerticalPool::new();
            let mut kpool = crate::kernel::ScratchPool::new();
            machine.run_vertical_batch(&mut batch, &vertical, &mut pool);
            machine.run_kernel_batch(&mut want, &kernel, &mut kpool);
            assert_eq!(batch, want, "factor={} r={r}", factor.name());
            for keys in &batch {
                assert!(is_snake_sorted(machine.shape(), keys));
            }
        }
    }

    #[test]
    fn pool_scratch_resizes_for_narrower_tail_blocks() {
        // Regression (ISSUE 6 satellite): a pool slot warmed by a
        // 64-lane block is strided for w=64; a narrower batch borrowing
        // the same slot must get rebuilt buffers, not stale wide ones.
        let factor = factories::star(4);
        let program = compile(&factor, 2, &OetSnakeSorter);
        let machine = BspMachine::new(&factor, 2);
        let vertical = machine.lower_vertical(&program).expect("validates");
        let len = machine.shape().len();
        let mut pool = VerticalPool::new();

        let mut wide: Vec<Vec<u64>> = (0..64).map(|s| lcg_keys(len, s)).collect();
        machine.run_vertical_batch(&mut wide, &vertical, &mut pool);
        assert_eq!(pool.slots[0].lanes(), 64);

        let mut narrow: Vec<Vec<u64>> = (0..5).map(|s| lcg_keys(len, 100 + s)).collect();
        let mut want = narrow.clone();
        machine.run_vertical_batch(&mut narrow, &vertical, &mut pool);
        assert_eq!(
            pool.slots[0].lanes(),
            5,
            "slot must re-stride to the tail width"
        );
        let mut kpool = crate::kernel::ScratchPool::new();
        let kernel = machine.lower(&program).expect("validates");
        machine.run_kernel_batch(&mut want, &kernel, &mut kpool);
        assert_eq!(narrow, want, "tail block after a wide warm-up");
    }
}

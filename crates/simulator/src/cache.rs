//! A cache of compiled BSP programs, keyed by the *structure* of the
//! sort: factor-graph wiring, number of dimensions, and `PG_2` sorter.
//!
//! Compiling a program ([`crate::bsp::compile`]) replays the whole
//! algorithm through a recording engine and lowers every logical round
//! — far more expensive than executing the result once. Repeated sorts
//! on the same topology (parameter sweeps, batched throughput runs)
//! should compile once; this cache makes that automatic and observable
//! (hit/miss counters). Each entry is one [`ProgramArtifact`]: the
//! program, its kernel and vertical lowerings, and the per-sort
//! accounting a [`crate::Machine`] reports, all built by a single miss.
//!
//! The key deliberately stores the factor's **full edge set**, not a
//! hash of it: two factors with equal node and edge counts but
//! different wiring (say, a path and a star on four nodes) can never
//! collide, by construction. [`fingerprint`] offers a compact digest
//! of the same identity for display and logging only.

use crate::bsp::{compile_with_counters, CompiledProgram};
use crate::engine::ExecutedEngine;
use crate::kernel::KernelProgram;
use crate::sorters::Pg2Sorter;
use crate::vertical::{VerticalProgram, WORD_LANES};
use pns_core::Counters;
use pns_graph::Graph;
use pns_obs::{Event, EventLogger, SpanClass, Stage, Tier};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// Structural identity of a compiled program: everything [`compile`]'s
/// output depends on, with the edge set stored verbatim.
///
/// [`compile`]: crate::bsp::compile
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProgramKey {
    /// Factor node count.
    pub n: usize,
    /// Product dimensions.
    pub r: usize,
    /// `PG_2` sorter identity ([`Pg2Sorter::id`]) — unlike the display
    /// name, this distinguishes parameterized variants of one
    /// construction, so two sorters that generate different programs can
    /// never share an entry.
    pub sorter: String,
    /// Normalized edge list: each edge as `(min, max)`, sorted.
    pub edges: Vec<(u32, u32)>,
}

impl ProgramKey {
    /// Key for the program sorting the product of `factor` with `r`
    /// dimensions using `sorter`.
    #[must_use]
    pub fn new(factor: &Graph, r: usize, sorter: &dyn Pg2Sorter) -> Self {
        ProgramKey {
            n: factor.n(),
            r,
            sorter: sorter.id(),
            edges: normalized_edges(factor),
        }
    }

    /// Compact digest of this key's structural identity (FNV-1a over
    /// node count, dimensions, sorter identity, and the normalized edge
    /// set). Display/logging only: the cache compares full keys.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        eat(&(self.n as u64).to_le_bytes());
        eat(&(self.r as u64).to_le_bytes());
        eat(self.sorter.as_bytes());
        for &(a, b) in &self.edges {
            eat(&a.to_le_bytes());
            eat(&b.to_le_bytes());
        }
        h
    }
}

pub(crate) fn normalized_edges(factor: &Graph) -> Vec<(u32, u32)> {
    let mut edges: Vec<(u32, u32)> = factor.edges().map(|(a, b)| (a.min(b), a.max(b))).collect();
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// Compact digest (FNV-1a over node count, dimensions, sorter identity,
/// and the normalized edge set) of a program's structural identity. For
/// display and logging; the cache itself compares full keys, so
/// fingerprint collisions cannot cause wrong programs to be served.
#[must_use]
pub fn fingerprint(factor: &Graph, r: usize, sorter: &dyn Pg2Sorter) -> u64 {
    ProgramKey::new(factor, r, sorter).fingerprint()
}

/// Point-in-time snapshot of a [`ProgramCache`]'s accounting, for
/// experiment tables and logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from the cache.
    pub hits: u64,
    /// Requests that had to compile.
    pub misses: u64,
    /// Distinct programs held at snapshot time.
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of requests served from the cache, in `[0, 1]`
    /// (0 when no request has been made).
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.hits as f64 / total as f64
            }
        }
    }

    /// Publish this snapshot into a metrics [`Registry`] under the
    /// `pns_` namespace. Hits and misses only grow, so they are
    /// counters; the entry count falls on [`ProgramCache::clear`], so it
    /// is a gauge.
    ///
    /// [`Registry`]: pns_obs::Registry
    pub fn export_to(&self, registry: &mut pns_obs::Registry) {
        registry.set_counter("pns_program_cache_hits_total", self.hits);
        registry.set_counter("pns_program_cache_misses_total", self.misses);
        #[allow(clippy::cast_precision_loss)]
        registry.set_gauge("pns_program_cache_entries", self.entries as f64);
        registry.set_gauge("pns_program_cache_hit_ratio", self.hit_ratio());
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({:.1}% hit), {} programs",
            self.hits,
            self.misses,
            self.hit_ratio() * 100.0,
            self.entries
        )
    }
}

/// Everything one `(factor, r, sorter)` compiles to, built once per
/// cache miss and shared by every machine on that shape. Opaque: a
/// [`crate::Machine`] built from the cache exposes its parts.
#[derive(Debug)]
pub struct ProgramArtifact {
    /// The compiled BSP schedule.
    pub(crate) program: Arc<CompiledProgram>,
    /// The program lowered to the flat kernel tier.
    pub(crate) kernel: Arc<KernelProgram>,
    /// The kernel committed to the bit-sliced vertical layout.
    pub(crate) vertical: Arc<VerticalProgram>,
    /// Logical unit counters of one sort on this shape — what
    /// [`crate::network_sort`] reports, taken from the compile replay.
    pub(crate) counters: Counters,
    /// Steps one `PG_2` sort round costs under the executed engine.
    pub(crate) s2_steps: u64,
}

/// Thread-safe cache of [`ProgramArtifact`]s with hit/miss accounting.
#[derive(Debug, Default)]
pub struct ProgramCache {
    entries: RwLock<HashMap<ProgramKey, Arc<ProgramArtifact>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    logger: EventLogger,
}

impl ProgramCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        ProgramCache::default()
    }

    /// Emit one `CacheLookup` event per lookup into `logger`, carrying
    /// hit/miss and the key's structural fingerprint, plus one
    /// `KernelLowered` and one `VerticalLowered` event per miss.
    pub fn attach_logger(&mut self, logger: EventLogger) {
        self.logger = logger;
    }

    /// The artifact for `(factor, r, sorter)`, built on the first
    /// request and shared afterwards.
    ///
    /// Robust to lock poisoning: a panic inside a previous build never
    /// wedges the cache (the map only ever holds fully built artifacts).
    pub fn get_or_compile(
        &self,
        factor: &Graph,
        r: usize,
        sorter: &dyn Pg2Sorter,
    ) -> Arc<ProgramArtifact> {
        let key = ProgramKey::new(factor, r, sorter);
        if let Some(hit) = self
            .entries
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.logger.log(|| Event::CacheLookup {
                hit: true,
                key_fingerprint: key.fingerprint(),
            });
            return Arc::clone(hit);
        }
        // Build outside the lock; a concurrent build of the same key
        // wastes work but stays correct (last insert wins, same artifact).
        let artifact = Arc::new(self.build(factor, r, sorter, &key));
        self.entries
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, Arc::clone(&artifact));
        artifact
    }

    /// Compile, lower to the kernel and commit to the vertical layout,
    /// one span and one event each.
    fn build(
        &self,
        factor: &Graph,
        r: usize,
        sorter: &dyn Pg2Sorter,
        key: &ProgramKey,
    ) -> ProgramArtifact {
        let span = self
            .logger
            .span(Tier::Cache, Stage::Compile, SpanClass::None);
        let (program, counters) = compile_with_counters(factor, r, sorter);
        drop(span);
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.logger.log(|| Event::CacheLookup {
            hit: false,
            key_fingerprint: key.fingerprint(),
        });

        // `compile`'s output satisfies the machine-model invariants
        // lowering assumes.
        let span = self
            .logger
            .span(Tier::Cache, Stage::LowerKernel, SpanClass::None);
        let kernel = Arc::new(KernelProgram::lower(&program));
        drop(span);
        self.logger.log(|| Event::KernelLowered {
            rounds: kernel.rounds() as u64,
            compare_rounds: kernel.compare_rounds() as u64,
            route_rounds: kernel.route_rounds() as u64,
            cx_pairs: kernel.cx_pair_count() as u64,
            micro_ops: kernel.micro_op_count() as u64,
        });

        let span = self
            .logger
            .span(Tier::Cache, Stage::LowerVertical, SpanClass::None);
        let vertical = Arc::new(VerticalProgram::lower(Arc::clone(&kernel)));
        drop(span);
        self.logger.log(|| Event::VerticalLowered {
            rounds: vertical.rounds() as u64,
            compare_rounds: kernel.compare_rounds() as u64,
            route_rounds: kernel.route_rounds() as u64,
            word_ops: vertical.word_ops() as u64,
            lanes: WORD_LANES as u64,
        });

        ProgramArtifact {
            s2_steps: ExecutedEngine::new(factor, program.shape(), sorter).s2_steps(),
            program: Arc::new(program),
            kernel,
            vertical,
            counters,
        }
    }

    /// Requests served from the cache.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Requests that had to compile.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Consistent snapshot of the accounting, for tables and logs.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits(),
            misses: self.misses(),
            entries: self.len(),
        }
    }

    /// Number of distinct artifacts held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// `true` iff nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached artifact (counters keep their totals).
    pub fn clear(&self) {
        self.entries
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sorters::{OetSnakeSorter, ShearSorter};
    use pns_graph::factories;

    #[test]
    fn second_request_is_a_hit_and_shares_the_program() {
        let cache = ProgramCache::new();
        let factor = factories::path(3);
        let first = cache.get_or_compile(&factor, 2, &ShearSorter);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let second = cache.get_or_compile(&factor, 2, &ShearSorter);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert!(
            Arc::ptr_eq(&first, &second),
            "hit must share, not recompile"
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn one_entry_holds_the_program_its_lowerings_and_its_accounting() {
        let cache = ProgramCache::new();
        let factor = factories::star(4);
        let artifact = cache.get_or_compile(&factor, 3, &OetSnakeSorter);
        assert_eq!(artifact.kernel.rounds(), artifact.program.rounds());
        assert!(
            Arc::ptr_eq(artifact.vertical.kernel(), &artifact.kernel),
            "the vertical program wraps the cached kernel"
        );
        let shape = artifact.program.shape();
        let mut keys: Vec<u32> = (0..shape.len() as u32).collect();
        let mut unit = crate::ChargedEngine::new(crate::CostModel::custom("unit", 1, 1));
        let expect = crate::network_sort(shape, &mut keys, &mut unit).counters;
        assert_eq!(artifact.counters, expect);
        assert_eq!(
            artifact.s2_steps,
            ExecutedEngine::new(&factor, shape, &OetSnakeSorter).s2_steps()
        );
    }

    #[test]
    fn distinct_parameters_get_distinct_entries() {
        let cache = ProgramCache::new();
        let factor = factories::path(3);
        let _ = cache.get_or_compile(&factor, 2, &ShearSorter);
        let _ = cache.get_or_compile(&factor, 3, &ShearSorter); // other r
        let _ = cache.get_or_compile(&factor, 2, &OetSnakeSorter); // other sorter
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn two_sorters_over_the_same_wiring_never_cross_pollinate() {
        // Regression: the key (and its fingerprint) must carry the
        // sorter's identity, so the same factor compiled under two
        // sorters yields two entries with correct per-request counters —
        // never one entry served to both.
        use crate::sorters::MultiwayNSorter;
        let cache = ProgramCache::new();
        let factor = factories::complete(4);
        let a1 = cache.get_or_compile(&factor, 2, &OetSnakeSorter);
        let b1 = cache.get_or_compile(&factor, 2, &MultiwayNSorter);
        assert_eq!((cache.hits(), cache.misses()), (0, 2), "both compile");
        assert_eq!(cache.len(), 2);
        assert!(!Arc::ptr_eq(&a1, &b1));
        assert_ne!(
            a1.program.rounds(),
            b1.program.rounds(),
            "genuinely different programs"
        );
        // Repeat requests hit their own entry, not each other's.
        let a2 = cache.get_or_compile(&factor, 2, &OetSnakeSorter);
        let b2 = cache.get_or_compile(&factor, 2, &MultiwayNSorter);
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
        assert!(Arc::ptr_eq(&a1, &a2));
        assert!(Arc::ptr_eq(&b1, &b2));
        // The fingerprint separates them too.
        assert_ne!(
            fingerprint(&factor, 2, &OetSnakeSorter),
            fingerprint(&factor, 2, &MultiwayNSorter)
        );
    }

    #[test]
    fn parameterized_sorter_variants_get_distinct_entries() {
        // Two variants share a display name but differ in `id()` — the
        // cache must treat them as different sorters.
        use crate::sorters::{PeriodicMergeSorter, Pg2Sorter};
        let plain = PeriodicMergeSorter::default();
        let tuned = PeriodicMergeSorter::with_extra_blocks(1);
        assert_eq!(plain.name(), tuned.name());
        let cache = ProgramCache::new();
        let factor = factories::path(3);
        let p = cache.get_or_compile(&factor, 2, &plain);
        let t = cache.get_or_compile(&factor, 2, &tuned);
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        assert_eq!(cache.len(), 2);
        assert!(
            t.program.rounds() > p.program.rounds(),
            "extra blocks add rounds"
        );
        assert_ne!(
            fingerprint(&factor, 2, &plain),
            fingerprint(&factor, 2, &tuned)
        );
    }

    #[test]
    fn same_counts_different_wiring_do_not_collide() {
        // path(4) and star(4) both have 4 nodes and 3 edges; the keys
        // must differ because the edge sets differ.
        let path = factories::path(4);
        let star = factories::star(4);
        let kp = ProgramKey::new(&path, 2, &OetSnakeSorter);
        let ks = ProgramKey::new(&star, 2, &OetSnakeSorter);
        assert_eq!(kp.n, ks.n);
        assert_eq!(kp.edges.len(), ks.edges.len());
        assert_ne!(kp, ks, "wiring must be part of the key");

        let cache = ProgramCache::new();
        let p_path = cache.get_or_compile(&path, 2, &OetSnakeSorter);
        let p_star = cache.get_or_compile(&star, 2, &OetSnakeSorter);
        assert_eq!(cache.misses(), 2, "no collision: both compile");
        // The star program relays through the hub; the path program
        // does not — structurally different schedules.
        assert_ne!(p_path.program.op_count(), p_star.program.op_count());
    }

    #[test]
    fn fingerprints_separate_wiring_too() {
        let path = factories::path(4);
        let star = factories::star(4);
        assert_ne!(
            fingerprint(&path, 2, &OetSnakeSorter),
            fingerprint(&star, 2, &OetSnakeSorter)
        );
        assert_eq!(
            fingerprint(&path, 2, &OetSnakeSorter),
            fingerprint(&factories::path(4), 2, &OetSnakeSorter),
            "fingerprint is a pure function of the structure"
        );
    }

    #[test]
    fn stats_snapshot_and_display() {
        let cache = ProgramCache::new();
        let factor = factories::path(3);
        let _ = cache.get_or_compile(&factor, 2, &ShearSorter);
        let _ = cache.get_or_compile(&factor, 2, &ShearSorter);
        let _ = cache.get_or_compile(&factor, 3, &ShearSorter);
        let stats = cache.stats();
        assert_eq!(
            stats,
            CacheStats {
                hits: 1,
                misses: 2,
                entries: 2
            }
        );
        assert!((stats.hit_ratio() - 1.0 / 3.0).abs() < 1e-9);
        let shown = stats.to_string();
        assert!(shown.contains("1 hits / 2 misses"), "{shown}");
        assert!(shown.contains("2 programs"), "{shown}");
        assert_eq!(ProgramCache::new().stats().hit_ratio(), 0.0);
    }

    #[test]
    fn lookups_emit_cache_events_with_the_key_fingerprint() {
        let (sink, reader) = pns_obs::MemorySink::with_capacity(16);
        let mut cache = ProgramCache::new();
        cache.attach_logger(pns_obs::EventLogger::new(Box::new(sink)));
        let factor = factories::path(3);
        let artifact = cache.get_or_compile(&factor, 2, &ShearSorter);
        let _ = cache.get_or_compile(&factor, 2, &ShearSorter);
        // Cache lookups run on the caller's thread; drain its buffer.
        cache.logger.flush();
        let events: Vec<_> = reader.events().iter().map(|e| e.event).collect();
        let fp = fingerprint(&factor, 2, &ShearSorter);
        let (kernel, vertical) = (&artifact.kernel, &artifact.vertical);
        let logged: Vec<_> = events
            .iter()
            .copied()
            .filter(|e| !matches!(e, Event::SpanEnter { .. } | Event::SpanExit { .. }))
            .collect();
        assert_eq!(
            logged,
            vec![
                Event::CacheLookup {
                    hit: false,
                    key_fingerprint: fp
                },
                Event::KernelLowered {
                    rounds: artifact.program.rounds() as u64,
                    compare_rounds: kernel.compare_rounds() as u64,
                    route_rounds: kernel.route_rounds() as u64,
                    cx_pairs: kernel.cx_pair_count() as u64,
                    micro_ops: kernel.micro_op_count() as u64,
                },
                Event::VerticalLowered {
                    rounds: vertical.rounds() as u64,
                    compare_rounds: kernel.compare_rounds() as u64,
                    route_rounds: kernel.route_rounds() as u64,
                    word_ops: vertical.word_ops() as u64,
                    lanes: WORD_LANES as u64,
                },
                Event::CacheLookup {
                    hit: true,
                    key_fingerprint: fp
                },
            ],
            "the miss builds every tier once; the hit only looks up"
        );
        // The miss compiled and lowered under Cache spans; the hit did
        // not open any.
        let opens: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                Event::SpanEnter { tier, stage, .. } => Some((*tier, *stage)),
                _ => None,
            })
            .collect();
        let closes = events
            .iter()
            .filter(|e| matches!(e, Event::SpanExit { .. }))
            .count();
        assert_eq!(
            opens,
            [Stage::Compile, Stage::LowerKernel, Stage::LowerVertical]
                .map(|stage| (Tier::Cache.code(), stage.code()))
                .to_vec(),
            "exactly one span per layer, on the miss"
        );
        assert_eq!(closes, 3);
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let cache = ProgramCache::new();
        let factor = factories::path(3);
        let _ = cache.get_or_compile(&factor, 2, &ShearSorter);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.misses(), 1);
        let _ = cache.get_or_compile(&factor, 2, &ShearSorter);
        assert_eq!(cache.misses(), 2, "cleared entries recompile");
    }

    #[test]
    fn entry_count_exports_as_a_gauge_that_falls_on_clear() {
        let cache = ProgramCache::new();
        let factor = factories::path(3);
        let _ = cache.get_or_compile(&factor, 2, &ShearSorter);
        let _ = cache.get_or_compile(&factor, 3, &ShearSorter);
        let _ = cache.get_or_compile(&factor, 2, &ShearSorter);
        let mut registry = pns_obs::Registry::new();
        cache.stats().export_to(&mut registry);
        assert!(registry
            .prometheus_text()
            .contains("pns_program_cache_entries 2\n"));
        cache.clear();
        cache.stats().export_to(&mut registry);
        let text = registry.prometheus_text();
        assert!(
            text.contains("# TYPE pns_program_cache_entries gauge\n"),
            "{text}"
        );
        assert!(text.contains("pns_program_cache_entries 0\n"), "{text}");
        assert!(
            text.contains("# TYPE pns_program_cache_hits_total counter\n"),
            "{text}"
        );
        assert!(text.contains("pns_program_cache_hits_total 1\n"), "{text}");
        assert!(
            text.contains("pns_program_cache_misses_total 2\n"),
            "{text}"
        );
    }
}

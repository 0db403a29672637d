//! Memoised match-score oracle.
//!
//! Match scores depend only on the instance, never on the current
//! solution (DESIGN.md decision D2), so every DP result can be cached
//! for the lifetime of a solver run. Two cache layers:
//!
//! * **interval tables** `MS(h, m(d, e))` for a whole fragment `h`
//!   against *every* interval of a fragment `m` — the 1-CSR → ISP
//!   reduction (§3.4) and the TPA subroutine (§4.2) consume profits in
//!   exactly this shape, and one DP sweep per start position fills a
//!   whole row of ends;
//! * **site pairs** `MS(h̄, m̄)` for arbitrary site pairs, used by the
//!   improvement methods.
//!
//! The oracle is `Sync` and shared across rayon workers, and every
//! cache is **single-flight**: a key's first lookup creates an empty
//! slot under the write lock and fills it outside the lock; concurrent
//! lookups of the same key wait on the slot instead of running the DP
//! again. Exactly one thread fills each key and counts the miss, so
//! the fill and miss counters are the same at every pool width.

use crate::dp::fill_rolling;
use crate::kernel::fill_profiled;
use crate::workspace::DpWorkspace;
use fragalign_model::symbol::reverse_word_in_place;
use fragalign_model::{FragId, Instance, Orient, Score, Site, Sym};
use fragalign_obs::TraceHandle;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// One cache entry: created empty under the map's write lock, filled
/// exactly once outside it.
type Slot<V> = Arc<OnceLock<V>>;

/// A single-flight memo table.
type Memo<K, V> = RwLock<HashMap<K, Slot<V>>>;

/// Look `key` up in `memo`, running `fill` on a miss. Of all threads
/// that miss the same key concurrently, exactly one runs `fill` and
/// counts a miss; the others block on the slot until it is filled and
/// count a hit. A fill that panics leaves the slot empty, so the next
/// lookup retries.
fn single_flight<K: Hash + Eq, V: Clone>(
    memo: &Memo<K, V>,
    key: K,
    hits: &AtomicU64,
    misses: &AtomicU64,
    fill: impl FnOnce() -> V,
) -> V {
    if let Some(v) = memo.read().get(&key).and_then(|slot| slot.get()) {
        hits.fetch_add(1, Ordering::Relaxed);
        return v.clone();
    }
    let slot = Arc::clone(memo.write().entry(key).or_default());
    let mut filled = false;
    let v = slot
        .get_or_init(|| {
            filled = true;
            fill()
        })
        .clone();
    if filled { misses } else { hits }.fetch_add(1, Ordering::Relaxed);
    v
}

/// `MS(h, m(d, e))` for all `0 ≤ d ≤ e ≤ |m|`, plus the winning
/// orientation. Flat `(n+1)²` storage.
#[derive(Clone, Debug)]
pub struct IntervalTable {
    n: usize,
    score_same: Vec<Score>,
    score_rev: Vec<Score>,
}

impl IntervalTable {
    #[inline]
    fn idx(&self, d: usize, e: usize) -> usize {
        d * (self.n + 1) + e
    }

    /// Best score and orientation for the interval `[d, e)`.
    #[inline]
    pub fn get(&self, d: usize, e: usize) -> (Score, Orient) {
        debug_assert!(d <= e && e <= self.n);
        let s = self.score_same[self.idx(d, e)];
        let r = self.score_rev[self.idx(d, e)];
        if r > s {
            (r, Orient::Reversed)
        } else {
            (s, Orient::Same)
        }
    }

    /// Length of the indexed fragment.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false — tables exist for real fragments.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Cache statistics (for the `oracle` bench and EXPERIMENTS.md T9).
#[derive(Debug, Default)]
pub struct OracleStats {
    /// Interval-table lookups served from cache.
    pub table_hits: AtomicU64,
    /// Interval tables computed.
    pub table_misses: AtomicU64,
    /// Site-pair lookups served from cache.
    pub pair_hits: AtomicU64,
    /// Site-pair scores computed.
    pub pair_misses: AtomicU64,
    /// DP fills run through pooled workspaces.
    pub dp_fills: AtomicU64,
    /// Workspace buffer growth events — the allocations proxy. With
    /// reuse on this converges; with reuse off it tracks `dp_fills`.
    pub dp_reallocs: AtomicU64,
}

/// Plain-integer copy of [`OracleStats`], for folding one oracle's
/// counters into another's. Solvers that build internal oracles over
/// derived instances (the factor-4 concatenations, portfolio racers)
/// absorb the inner counters so telemetry reports the whole solve.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OracleStatsSnapshot {
    /// Interval-table lookups served from cache.
    pub table_hits: u64,
    /// Interval tables computed.
    pub table_misses: u64,
    /// Site-pair lookups served from cache.
    pub pair_hits: u64,
    /// Site-pair scores computed.
    pub pair_misses: u64,
    /// DP fills run through pooled workspaces.
    pub dp_fills: u64,
    /// Workspace buffer growth events.
    pub dp_reallocs: u64,
}

impl std::ops::AddAssign for OracleStatsSnapshot {
    fn add_assign(&mut self, rhs: Self) {
        self.table_hits += rhs.table_hits;
        self.table_misses += rhs.table_misses;
        self.pair_hits += rhs.pair_hits;
        self.pair_misses += rhs.pair_misses;
        self.dp_fills += rhs.dp_fills;
        self.dp_reallocs += rhs.dp_reallocs;
    }
}

impl OracleStats {
    /// Read every counter at once (relaxed; exact when no fills race).
    pub fn snapshot(&self) -> OracleStatsSnapshot {
        OracleStatsSnapshot {
            table_hits: self.table_hits.load(Ordering::Relaxed),
            table_misses: self.table_misses.load(Ordering::Relaxed),
            pair_hits: self.pair_hits.load(Ordering::Relaxed),
            pair_misses: self.pair_misses.load(Ordering::Relaxed),
            dp_fills: self.dp_fills.load(Ordering::Relaxed),
            dp_reallocs: self.dp_reallocs.load(Ordering::Relaxed),
        }
    }

    /// Fold a snapshot's counts into these counters.
    pub fn absorb(&self, s: &OracleStatsSnapshot) {
        self.table_hits.fetch_add(s.table_hits, Ordering::Relaxed);
        self.table_misses
            .fetch_add(s.table_misses, Ordering::Relaxed);
        self.pair_hits.fetch_add(s.pair_hits, Ordering::Relaxed);
        self.pair_misses.fetch_add(s.pair_misses, Ordering::Relaxed);
        self.dp_fills.fetch_add(s.dp_fills, Ordering::Relaxed);
        self.dp_reallocs.fetch_add(s.dp_reallocs, Ordering::Relaxed);
    }
}

/// Shared, thread-safe score oracle over one instance.
pub struct ScoreOracle<'a> {
    inst: &'a Instance,
    tables: Memo<(FragId, FragId), Arc<IntervalTable>>,
    pairs: Memo<(Site, Site), (Score, Orient)>,
    oriented: Memo<(Site, Site, Orient), Score>,
    /// Warm DP buffers, one checked out per cache miss. Workers in a
    /// parallel sweep each pop their own workspace, so fills never
    /// serialise on this lock.
    workspaces: Mutex<Vec<DpWorkspace>>,
    reuse: bool,
    /// Span sink for phase timing; disabled (inert) by default. The
    /// oracle carries the handle so DP-layer phases (table sweeps,
    /// chain window fills) can trace without threading a parameter
    /// through every solver signature.
    trace: TraceHandle,
    /// Hit/miss counters.
    pub stats: OracleStats,
}

impl<'a> ScoreOracle<'a> {
    /// Create an empty oracle for `inst` (workspace reuse on).
    pub fn new(inst: &'a Instance) -> Self {
        Self::with_workspace_reuse(inst, true)
    }

    /// Create an oracle with workspace pooling switched on or off.
    /// `reuse = false` restores the per-call-allocation behaviour —
    /// kept as the measurable baseline for `exp_throughput`.
    pub fn with_workspace_reuse(inst: &'a Instance, reuse: bool) -> Self {
        ScoreOracle {
            inst,
            tables: RwLock::new(HashMap::new()),
            pairs: RwLock::new(HashMap::new()),
            oriented: RwLock::new(HashMap::new()),
            workspaces: Mutex::new(Vec::new()),
            reuse,
            trace: TraceHandle::disabled(),
            stats: OracleStats::default(),
        }
    }

    /// Attach a trace handle; all subsequent DP phases record spans
    /// through it. Tracing is observational only — the same fills run
    /// either way.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// The oracle's trace handle (disabled unless
    /// [`ScoreOracle::set_trace`] was called).
    pub fn trace(&self) -> &TraceHandle {
        &self.trace
    }

    /// The instance the oracle scores.
    pub fn instance(&self) -> &'a Instance {
        self.inst
    }

    /// Whether this oracle pools workspaces across fills. Solvers that
    /// build internal oracles over derived instances propagate the
    /// flag so the per-call-allocation baseline stays honest end to
    /// end.
    pub fn workspace_reuse(&self) -> bool {
        self.reuse
    }

    /// Seed the workspace pool with an already-warm workspace. Batch
    /// solvers hand each worker's workspace to successive instances'
    /// oracles so buffers stay warm across the whole batch.
    pub fn adopt_workspace(&self, ws: DpWorkspace) {
        self.workspaces.lock().push(ws);
    }

    /// Take a workspace back out of the pool (empty pool yields a
    /// fresh one). The counterpart of [`ScoreOracle::adopt_workspace`].
    pub fn reclaim_workspace(&self) -> DpWorkspace {
        self.workspaces.lock().pop().unwrap_or_default()
    }

    /// Check a workspace out of the pool, run `f`, return it, and fold
    /// its fill/realloc deltas into the oracle stats.
    pub(crate) fn with_pooled<R>(&self, f: impl FnOnce(&mut DpWorkspace) -> R) -> R {
        let mut ws = if self.reuse {
            self.workspaces.lock().pop().unwrap_or_default()
        } else {
            DpWorkspace::new()
        };
        let (fills0, reallocs0) = (ws.fills(), ws.reallocs());
        let out = f(&mut ws);
        self.stats
            .dp_fills
            .fetch_add(ws.fills() - fills0, Ordering::Relaxed);
        self.stats
            .dp_reallocs
            .fetch_add(ws.reallocs() - reallocs0, Ordering::Relaxed);
        if self.reuse {
            self.workspaces.lock().push(ws);
        }
        out
    }

    /// The interval table of whole-fragment `plug` against intervals of
    /// `container`. `plug` and `container` may be any two fragments of
    /// opposite species (either order); scores are computed with σ
    /// applied H-side-first. A miss fills through a pooled workspace.
    pub fn interval_table(&self, plug: FragId, container: FragId) -> Arc<IntervalTable> {
        self.table_memo(plug, container, || {
            self.with_pooled(|ws| self.build_table(plug, container, ws))
        })
    }

    /// [`ScoreOracle::interval_table`] filling through a caller-owned
    /// workspace on a miss.
    pub fn interval_table_with(
        &self,
        plug: FragId,
        container: FragId,
        ws: &mut DpWorkspace,
    ) -> Arc<IntervalTable> {
        self.table_memo(plug, container, || self.build_table(plug, container, ws))
    }

    fn table_memo(
        &self,
        plug: FragId,
        container: FragId,
        build: impl FnOnce() -> IntervalTable,
    ) -> Arc<IntervalTable> {
        let stats = &self.stats;
        single_flight(
            &self.tables,
            (plug, container),
            &stats.table_hits,
            &stats.table_misses,
            || Arc::new(build()),
        )
    }

    fn build_table(&self, plug: FragId, container: FragId, ws: &mut DpWorkspace) -> IntervalTable {
        let u_raw = &self.inst.fragment(plug).regions;
        let w_raw = &self.inst.fragment(container).regions;
        let n = w_raw.len();
        let h_first = plug.species == fragalign_model::Species::H;
        let mut table_span = self.trace.span("table_fill");

        // σ must see (H symbol, M symbol): when the plug is the M
        // fragment the lookup roles are swapped per cell. The tables
        // below are the oracle's *product* and stay heap-allocated;
        // only the per-start DP rows and the reversed-pass scratch come
        // from the workspace.
        let mut score_same = vec![0 as Score; (n + 1) * (n + 1)];
        let mut score_rev = vec![0 as Score; (n + 1) * (n + 1)];
        let sigma = &self.inst.sigma;

        // Same orientation: for each start d, one rolling DP sweep over
        // w[d..]; the final row read off wholesale gives P(u, w[d..e])
        // for every end e. One query profile built over the *whole*
        // container word serves all n+1 suffix fills via a column
        // offset — the per-fill cost of going hash-free amortises to
        // zero, so the sweep profiles regardless of fill size.
        let sweep = |ws: &mut DpWorkspace, w: &[Sym], out: &mut [Score]| -> bool {
            let generation = ws.profile.build(sigma, u_raw, w, !h_first);
            if generation.is_some() {
                ws.profile.map_rows(u_raw, &mut ws.row_map);
            }
            for d in 0..=n {
                let v = &w[d.min(w.len())..];
                ws.note_fill(v.len() + 1);
                if let Some(generation) = generation {
                    fill_profiled(
                        &ws.profile,
                        generation,
                        &ws.row_map,
                        d.min(w.len()),
                        v.len(),
                        &mut ws.prev,
                        &mut ws.cur,
                    );
                } else if h_first {
                    // Profile over the cap: scalar fallback.
                    fill_rolling(
                        |a, b| sigma.score(a, b),
                        u_raw,
                        v,
                        &mut ws.prev,
                        &mut ws.cur,
                    );
                } else {
                    fill_rolling(
                        |a, b| sigma.score(b, a),
                        u_raw,
                        v,
                        &mut ws.prev,
                        &mut ws.cur,
                    );
                }
                // ws.prev holds the last filled row (the zero row when
                // u is empty).
                for e in d..=n {
                    out[d * (n + 1) + e] = ws.prev[e - d];
                }
            }
            generation.is_some()
        };
        let profiled = sweep(ws, w_raw, &mut score_same);

        // Reversed orientation: (w[d..e])^R = w^R[n-e..n-d]; fill a
        // table over w^R into the workspace grid and re-index.
        let mut w_rev = std::mem::take(&mut ws.rev);
        w_rev.clear();
        w_rev.extend_from_slice(w_raw);
        reverse_word_in_place(&mut w_rev);
        let mut rev_table = ws.take_grid((n + 1) * (n + 1));
        sweep(ws, &w_rev, &mut rev_table);
        ws.rev = w_rev;
        for d in 0..=n {
            for e in d..=n {
                score_rev[d * (n + 1) + e] = rev_table[(n - e) * (n + 1) + n - d];
            }
        }
        ws.put_grid(rev_table);

        table_span.set_label(if profiled { "profiled" } else { "scalar" });
        table_span.set_args(n as i64, 2 * (n as i64 + 1));

        IntervalTable {
            n,
            score_same,
            score_rev,
        }
    }

    /// `MS(h̄, m̄)` with memoisation. `h` must be an H-species site and
    /// `m` an M-species site. A miss fills through a pooled workspace.
    pub fn ms(&self, h: Site, m: Site) -> (Score, Orient) {
        self.pair_memo(&self.pairs, (h, m), || {
            self.with_pooled(|ws| self.fill_ms(h, m, ws))
        })
    }

    /// [`ScoreOracle::ms`] filling through a caller-owned workspace on
    /// a miss.
    pub fn ms_with(&self, h: Site, m: Site, ws: &mut DpWorkspace) -> (Score, Orient) {
        self.pair_memo(&self.pairs, (h, m), || self.fill_ms(h, m, ws))
    }

    fn fill_ms(&self, h: Site, m: Site, ws: &mut DpWorkspace) -> (Score, Orient) {
        let inst = self.inst;
        ws.ms_words(&inst.sigma, inst.site_word(h), inst.site_word(m))
    }

    /// Site-pair lookups share one pair of hit/miss counters across
    /// the free-orientation and pinned-orientation memos.
    fn pair_memo<K: Hash + Eq, V: Clone>(
        &self,
        memo: &Memo<K, V>,
        key: K,
        fill: impl FnOnce() -> V,
    ) -> V {
        let stats = &self.stats;
        single_flight(memo, key, &stats.pair_hits, &stats.pair_misses, fill)
    }

    /// `MS(plug fragment, container(d, e))` through the interval table.
    pub fn ms_full_vs_interval(
        &self,
        plug: FragId,
        container: FragId,
        d: usize,
        e: usize,
    ) -> (Score, Orient) {
        self.interval_table(plug, container).get(d, e)
    }

    /// `P_score` under a pinned relative orientation, memoised. Border
    /// matches need this: their orientation is forced by the staircase
    /// end condition, not free to maximise. A miss fills through a
    /// pooled workspace.
    pub fn ms_oriented(&self, h: Site, m: Site, orient: Orient) -> Score {
        self.pair_memo(&self.oriented, (h, m, orient), || {
            self.with_pooled(|ws| self.fill_oriented(h, m, orient, ws))
        })
    }

    /// [`ScoreOracle::ms_oriented`] filling through a caller-owned
    /// workspace on a miss.
    pub fn ms_oriented_with(
        &self,
        h: Site,
        m: Site,
        orient: Orient,
        ws: &mut DpWorkspace,
    ) -> Score {
        self.pair_memo(&self.oriented, (h, m, orient), || {
            self.fill_oriented(h, m, orient, ws)
        })
    }

    fn fill_oriented(&self, h: Site, m: Site, orient: Orient, ws: &mut DpWorkspace) -> Score {
        let inst = self.inst;
        ws.p_score_oriented(&inst.sigma, inst.site_word(h), inst.site_word(m), orient)
    }

    /// Drop all cached entries (used by the cache ablation bench).
    /// Pooled workspaces keep their warm buffers.
    pub fn clear(&self) {
        self.tables.write().clear();
        self.pairs.write().clear();
        self.oriented.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::match_score::ms_words;
    use fragalign_model::instance::paper_example;
    use fragalign_model::{FragId, Site};

    #[test]
    fn interval_table_matches_direct_ms() {
        let inst = paper_example();
        let oracle = ScoreOracle::new(&inst);
        for h in inst.frag_ids(fragalign_model::Species::H) {
            for m in inst.frag_ids(fragalign_model::Species::M) {
                let table = oracle.interval_table(h, m);
                let n = inst.frag_len(m);
                for d in 0..n {
                    for e in (d + 1)..=n {
                        let direct = ms_words(
                            &inst.sigma,
                            &inst.fragment(h).regions,
                            inst.fragment(m).slice(d, e),
                        );
                        assert_eq!(table.get(d, e), direct, "h={h:?} m={m:?} [{d},{e})");
                    }
                }
            }
        }
    }

    #[test]
    fn interval_table_m_plug_swaps_sigma_roles() {
        let inst = paper_example();
        let oracle = ScoreOracle::new(&inst);
        // plug = m2 = ⟨u, v⟩ into intervals of h1 = ⟨a, b, c⟩:
        // σ(c, u) = 5 so interval ⟨c⟩ = [2,3) scores 5.
        let t = oracle.interval_table(FragId::m(1), FragId::h(0));
        assert_eq!(t.get(2, 3).0, 5);
        assert_eq!(t.get(0, 3).0, 5);
        assert_eq!(t.get(0, 2).0, 0);
    }

    #[test]
    fn reversed_intervals_reindexed_correctly() {
        let inst = paper_example();
        let oracle = ScoreOracle::new(&inst);
        // h2 = ⟨d⟩ vs m2 = ⟨u, v⟩: σ(d, v^R) = 2 ⇒ interval ⟨v⟩ = [1,2)
        // scores 2 with Reversed orientation.
        let t = oracle.interval_table(FragId::h(1), FragId::m(1));
        assert_eq!(t.get(1, 2), (2, Orient::Reversed));
        assert_eq!(t.get(0, 1), (0, Orient::Same));
    }

    #[test]
    fn caches_hit_on_repeat() {
        let inst = paper_example();
        let oracle = ScoreOracle::new(&inst);
        let _ = oracle.interval_table(FragId::h(0), FragId::m(0));
        let _ = oracle.interval_table(FragId::h(0), FragId::m(0));
        assert_eq!(oracle.stats.table_misses.load(Ordering::Relaxed), 1);
        assert_eq!(oracle.stats.table_hits.load(Ordering::Relaxed), 1);
        let s1 = oracle.ms(Site::new(FragId::h(0), 0, 2), Site::new(FragId::m(0), 0, 2));
        let s2 = oracle.ms(Site::new(FragId::h(0), 0, 2), Site::new(FragId::m(0), 0, 2));
        assert_eq!(s1, s2);
        assert_eq!(oracle.stats.pair_misses.load(Ordering::Relaxed), 1);
        assert_eq!(oracle.stats.pair_hits.load(Ordering::Relaxed), 1);
        oracle.clear();
        let _ = oracle.ms(Site::new(FragId::h(0), 0, 2), Site::new(FragId::m(0), 0, 2));
        assert_eq!(oracle.stats.pair_misses.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn empty_interval_scores_zero() {
        let inst = paper_example();
        let oracle = ScoreOracle::new(&inst);
        let t = oracle.interval_table(FragId::h(0), FragId::m(0));
        for d in 0..=inst.frag_len(FragId::m(0)) {
            assert_eq!(t.get(d, d).0, 0);
        }
    }
}

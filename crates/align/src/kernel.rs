//! Hash-free, memory-shaped `P_score` kernels.
//!
//! The scalar reference kernel ([`crate::dp::fill_rolling`]) performs
//! one `HashMap` probe per DP cell — `σ` is a sparse table keyed by
//! `(region, region, orientation)`, so the inner recurrence spends its
//! time hashing, not maxing. This module removes the table from the
//! hot loop in three steps, each bit-identical to the reference
//! (scores are integers; `max` is associative; nothing reassociates):
//!
//! 1. **Query profile** ([`QueryProfile`]) — per *distinct* row
//!    symbol, a flat row of `σ(sym, v[j])` over the whole column word,
//!    built once and cached in the [`crate::DpWorkspace`] (keyed by a
//!    generation counter so repeated fills against the same `v` — the
//!    oracle's suffix sweep — reuse one build). The inner loop then
//!    reads `s[j]` from a dense slice instead of probing the map.
//!    Two build strategies, chosen by cost: *sparse* walks the σ
//!    entries and scatters them onto default-filled rows
//!    (`O(|σ| + |u| + |v|)` probes), *dense* probes per profile cell
//!    (`O(distinct × |v|)` probes — cheaper when σ is much larger
//!    than the profile).
//! 2. **Split recurrence** ([`fill_profiled`]) — the three-way
//!    `max(diag, up, left)` carries a loop dependency through
//!    `cur[j-1]`, which blocks vectorisation. Split it: a branchless
//!    sweep `t[j] = max(prev[j-1] + s[j-1], prev[j])` (reads only the
//!    previous row — autovectorisable), then a separate prefix-max
//!    scan `cur[j] = max(t[j], cur[j-1])` for the left carry. The
//!    composition computes exactly the textbook recurrence: DP values
//!    are non-negative, so the prefix max seeded at 0 reproduces the
//!    `cur[j-1]` chain value for value.
//!
//! The reference kernel stays exactly as it was: the differential net
//! in `crates/align/tests/proptest_kernels.rs` pins every path here
//! against it, cell for cell.

use fragalign_model::{Score, ScoreTable, Sym};
use std::collections::HashMap;

/// Profiles larger than this many cells (distinct row symbols ×
/// columns) are not built: a degenerate word whose symbols are all
/// distinct against a very long column word would materialise the
/// whole score matrix. Callers fall back to the scalar kernel.
pub const PROFILE_MAX_CELLS: usize = 1 << 22;

/// Below this many DP cells a *single* fill skips the profile: the
/// build pass costs more than the hash probes it saves. Sweeps that
/// amortise one build over many fills (the oracle's interval tables)
/// profile regardless of size.
pub const PROFILE_MIN_CELLS: usize = 256;

/// A cached query profile: for each distinct row symbol, the dense
/// row `σ(sym, v[0]), …, σ(sym, v[|v|-1])`.
///
/// Owned by a [`crate::DpWorkspace`]; `build` bumps the generation
/// counter and every fill asserts it was handed the generation it
/// expects, so a stale profile (built for a previous `v`) cannot be
/// read silently.
#[derive(Debug, Default)]
pub struct QueryProfile {
    /// Distinct row symbols, in first-appearance order.
    syms: Vec<Sym>,
    /// `syms.len()` rows × `cols`, flattened row-major.
    rows: Vec<Score>,
    /// Columns per row = |v| of the build.
    cols: usize,
    /// Bumped on every successful build.
    generation: u64,
    /// `(id, rev)` → row index; retained after the build so
    /// [`QueryProfile::map_rows`] resolves row symbols without a scan.
    index: HashMap<(u32, bool), u32>,
}

impl QueryProfile {
    /// Build the profile for row word `u` against column word `v`.
    ///
    /// `swap_roles = false` scores a cell as `σ(row, col)` (row word
    /// on the H side); `swap_roles = true` as `σ(col, row)` (row word
    /// on the M side — the oracle's M-plug tables). Returns the new
    /// generation, or `None` when the profile would exceed
    /// [`PROFILE_MAX_CELLS`] (nothing is cached; callers must fall
    /// back to the scalar kernel).
    pub fn build(
        &mut self,
        sigma: &ScoreTable,
        u: &[Sym],
        v: &[Sym],
        swap_roles: bool,
    ) -> Option<u64> {
        self.index.clear();
        self.syms.clear();
        for &s in u {
            let next = self.syms.len() as u32;
            if let std::collections::hash_map::Entry::Vacant(e) = self.index.entry((s.id, s.rev)) {
                e.insert(next);
                self.syms.push(s);
            }
        }
        let distinct = self.syms.len();
        let cells = distinct.checked_mul(v.len())?;
        if cells > PROFILE_MAX_CELLS {
            // Leave the profile unusable rather than half-built.
            self.syms.clear();
            self.index.clear();
            self.cols = 0;
            return None;
        }
        self.cols = v.len();
        if self.rows.len() < cells {
            self.rows.resize(cells, 0);
        }
        self.rows[..cells].fill(sigma.default_score);

        // Strategy by probe count: scattering σ entries touches each
        // entry once plus one map probe per `v` symbol; dense probing
        // touches every profile cell. Pick whichever probes less.
        if sigma.len() + v.len() < cells {
            self.build_sparse(sigma, v, swap_roles);
        } else {
            self.build_dense(sigma, v, swap_roles);
        }
        self.generation += 1;
        Some(self.generation)
    }

    /// Scatter explicit σ entries onto the default-filled rows.
    fn build_sparse(&mut self, sigma: &ScoreTable, v: &[Sym], swap_roles: bool) {
        // Positions of each (id, rev) occurrence in v.
        let mut positions: HashMap<(u32, bool), Vec<u32>> = HashMap::new();
        for (j, s) in v.iter().enumerate() {
            positions.entry((s.id, s.rev)).or_default().push(j as u32);
        }
        let cols = self.cols;
        for (a, b, orient, s) in sigma.iter() {
            // Entry (a, b, o) scores a cell iff the H-side id is `a`,
            // the M-side id is `b`, and the relative orientation of
            // the two occurrences is `o`. Row symbols may occur in
            // both orientations; each fixes the column orientation.
            let (row_id, col_id) = if swap_roles { (b, a) } else { (a, b) };
            for row_rev in [false, true] {
                let Some(&r) = self.index.get(&(row_id, row_rev)) else {
                    continue;
                };
                let col_rev = row_rev ^ orient.is_reversed();
                let Some(js) = positions.get(&(col_id, col_rev)) else {
                    continue;
                };
                let row = &mut self.rows[r as usize * cols..(r as usize + 1) * cols];
                for &j in js {
                    row[j as usize] = s;
                }
            }
        }
    }

    /// Probe σ once per profile cell.
    fn build_dense(&mut self, sigma: &ScoreTable, v: &[Sym], swap_roles: bool) {
        let cols = self.cols;
        for (r, &sym) in self.syms.iter().enumerate() {
            let row = &mut self.rows[r * cols..(r + 1) * cols];
            for (j, &sv) in v.iter().enumerate() {
                row[j] = if swap_roles {
                    sigma.score(sv, sym)
                } else {
                    sigma.score(sym, sv)
                };
            }
        }
    }

    /// Resolve each symbol of `u` to its profile row index. Every
    /// symbol must have appeared in the `u` the profile was built for
    /// (the oracle sweeps reuse one build across suffixes of the same
    /// row word, never across row words).
    pub fn map_rows(&self, u: &[Sym], out: &mut Vec<u32>) {
        out.clear();
        out.extend(u.iter().map(|s| self.index[&(s.id, s.rev)]));
    }

    /// The generation of the last successful build.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Columns per profile row (the |v| of the last build).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The dense score row for profile row `r`.
    #[inline]
    pub(crate) fn row(&self, r: u32) -> &[Score] {
        &self.rows[r as usize * self.cols..(r as usize + 1) * self.cols]
    }
}

/// The profiled split-recurrence sweep over caller-provided buffers:
/// bit-identical to [`crate::dp::fill_rolling`] with the score
/// function the profile was built from.
///
/// `row_of[i]` names the profile row of DP row `i + 1`; columns come
/// from the profile slice `[offset, offset + len)` (the oracle's
/// suffix sweep passes `offset = d` against one whole-word build).
/// Each row is one split sweep: pass 1 `t[j] = max(prev[j-1] +
/// s[j-1], prev[j])` (branchless, reads only the previous row — the
/// autovectorisable half), pass 2 the sequential prefix-max carry. On
/// return `prev[..=len]` holds the final DP row, exactly as the scalar
/// kernel leaves it.
///
/// Buffers may arrive dirty from larger fills; everything read is
/// rewritten first (`prev` is zeroed to the fill width, `cur[0]` per
/// row) so stale tails from earlier, wider fills cannot leak in —
/// pinned by the shrink regression in `proptest_kernels`.
pub fn fill_profiled(
    profile: &QueryProfile,
    generation: u64,
    row_of: &[u32],
    offset: usize,
    len: usize,
    prev: &mut Vec<Score>,
    cur: &mut Vec<Score>,
) -> Score {
    debug_assert_eq!(
        generation, profile.generation,
        "stale query profile: built for a different column word"
    );
    debug_assert!(offset + len <= profile.cols || len == 0);
    let cols = len + 1;
    if prev.len() < cols {
        prev.resize(cols, 0);
    }
    if cur.len() < cols {
        cur.resize(cols, 0);
    }
    prev[..cols].fill(0);
    if len == 0 {
        return 0;
    }
    for &r in row_of {
        let s = &profile.row(r)[offset..offset + len];
        // Pass 1 into cur[1..]: no dependency on cur, so the compiler
        // can pack lanes (i64 max lowers to compare+select).
        let up = &prev[1..cols];
        let diag = &prev[..len];
        let out = &mut cur[1..cols];
        for j in 0..len {
            let t = diag[j] + s[j];
            out[j] = if t > up[j] { t } else { up[j] };
        }
        // Pass 2: the left carry.
        cur[0] = 0;
        let mut run = 0;
        for c in cur[1..cols].iter_mut() {
            if *c > run {
                run = *c;
            } else {
                *c = run;
            }
        }
        std::mem::swap(prev, cur);
    }
    prev[len]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::fill_rolling;

    fn table(seed: u64, syms: u32, default: Score) -> ScoreTable {
        let mut t = ScoreTable::new();
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for a in 0..syms {
            for b in 0..syms {
                let r = next() % 9;
                if r > 3 {
                    let m = if r % 2 == 0 {
                        Sym::rev(1000 + b)
                    } else {
                        Sym::fwd(1000 + b)
                    };
                    t.set(Sym::fwd(a), m, (r as i64) - 5);
                }
            }
        }
        t.default_score = default;
        t
    }

    fn word(seed: u64, len: usize, syms: u32, base: u32) -> Vec<Sym> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                Sym {
                    id: base + (state % syms as u64) as u32,
                    rev: state.is_multiple_of(3),
                }
            })
            .collect()
    }

    fn profiled(
        sigma: &ScoreTable,
        u: &[Sym],
        v: &[Sym],
        swap: bool,
        offset: usize,
        len: usize,
    ) -> (Score, Vec<Score>) {
        let mut p = QueryProfile::default();
        let generation = p.build(sigma, u, v, swap).expect("profile fits");
        let mut row_of = Vec::new();
        p.map_rows(u, &mut row_of);
        let (mut prev, mut cur) = (Vec::new(), Vec::new());
        let s = fill_profiled(&p, generation, &row_of, offset, len, &mut prev, &mut cur);
        (s, prev[..=len].to_vec())
    }

    fn scalar(sigma: &ScoreTable, u: &[Sym], v: &[Sym], swap: bool) -> (Score, Vec<Score>) {
        let (mut prev, mut cur) = (Vec::new(), Vec::new());
        let s = if swap {
            fill_rolling(|a, b| sigma.score(b, a), u, v, &mut prev, &mut cur)
        } else {
            fill_rolling(|a, b| sigma.score(a, b), u, v, &mut prev, &mut cur)
        };
        (s, prev[..=v.len()].to_vec())
    }

    #[test]
    fn profiled_matches_scalar_across_shapes() {
        for (seed, lu, lv, syms, default) in [
            (1, 0, 7, 4, 0),
            (2, 7, 0, 4, 0),
            (3, 5, 9, 3, -1),
            (4, 40, 600, 8, 0),
            (5, 9, 511, 6, -2),
            (6, 1, 1, 6, 0),
            (7, 600, 9, 6, 0),
            (8, 17, 1029, 12, -1),
        ] {
            let sigma = table(seed, syms, default);
            let u = word(seed + 10, lu, syms, 0);
            let v = word(seed + 20, lv, syms, 1000);
            // The H word on the rows, then the M word on the rows
            // (σ probed `(column, row)`).
            for (rows, cols, swap) in [(&u, &v, false), (&v, &u, true)] {
                let (want, want_row) = scalar(&sigma, rows, cols, swap);
                let (got, got_row) = profiled(&sigma, rows, cols, swap, 0, cols.len());
                assert_eq!(got, want, "seed {seed} swap {swap}");
                assert_eq!(got_row, want_row, "final row, seed {seed} swap {swap}");
            }
        }
    }

    #[test]
    fn offset_fills_match_suffix_scalar() {
        let sigma = table(11, 6, -1);
        let u = word(12, 9, 6, 0);
        let v = word(13, 40, 6, 1000);
        let mut p = QueryProfile::default();
        let generation = p.build(&sigma, &u, &v, false).unwrap();
        let mut row_of = Vec::new();
        p.map_rows(&u, &mut row_of);
        let (mut prev, mut cur) = (Vec::new(), Vec::new());
        for d in 0..=v.len() {
            let got = fill_profiled(&p, generation, &row_of, d, v.len() - d, &mut prev, &mut cur);
            let (want, want_row) = scalar(&sigma, &u, &v[d..], false);
            assert_eq!(got, want, "suffix {d}");
            assert_eq!(&prev[..=v.len() - d], &want_row[..], "suffix row {d}");
        }
    }

    #[test]
    fn oversized_profile_is_refused() {
        let sigma = table(1, 4, 0);
        // All-distinct row word × long column word exceeds the cap.
        let u: Vec<Sym> = (0..3000).map(Sym::fwd).collect();
        let v = word(2, 2000, 4, 1000);
        let mut p = QueryProfile::default();
        assert!(p.build(&sigma, &u, &v, false).is_none());
    }

    #[test]
    fn sparse_and_dense_builds_agree() {
        // Force both strategies on the same inputs by building against
        // tables on either side of the cost crossover and comparing to
        // the scalar closure cell by cell.
        let sigma = table(21, 5, -2);
        let u = word(22, 11, 5, 0);
        let v = word(23, 13, 5, 1000);
        let mut p = QueryProfile::default();
        p.build(&sigma, &u, &v, false).unwrap();
        let mut row_of = Vec::new();
        p.map_rows(&u, &mut row_of);
        for (i, &r) in row_of.iter().enumerate() {
            for (j, &sv) in v.iter().enumerate() {
                assert_eq!(p.row(r)[j], sigma.score(u[i], sv), "cell ({i}, {j})");
            }
        }
        // Swapped roles too.
        p.build(&sigma, &v, &u, true).unwrap();
        let mut row_of_v = Vec::new();
        p.map_rows(&v, &mut row_of_v);
        for (i, &r) in row_of_v.iter().enumerate() {
            for (j, &su) in u.iter().enumerate() {
                assert_eq!(p.row(r)[j], sigma.score(su, v[i]), "swapped ({i}, {j})");
            }
        }
    }
}

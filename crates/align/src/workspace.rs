//! Reusable DP workspaces.
//!
//! Every `P_score` fill needs two rolling rows (plus a reversed-word
//! scratch for the orientation search, and a whole-table scratch for
//! the oracle's reversed-interval re-indexing). Allocating those per
//! call dominates the score oracle on the short region words the
//! simulator produces, so a [`DpWorkspace`] owns the buffers and every
//! kernel in this crate has an entry point that fills into it instead
//! of allocating. The allocating free functions ([`crate::p_score`],
//! [`crate::ms_words`], …) remain as thin per-call wrappers.
//!
//! Workspaces are deliberately `!Sync`: one per worker. The oracle
//! keeps a pool of them and checks one out per cache miss, so shared
//! oracles stay `Sync` without serialising fills.

use crate::dp::{fill_rolling, traceback_from};
use crate::kernel::{fill_profiled, QueryProfile, PROFILE_MIN_CELLS};
use fragalign_model::consistency::AlignColumns;
use fragalign_model::symbol::reverse_word_in_place;
use fragalign_model::{Orient, Score, ScoreTable, Sym};

/// Whether `u × v` has a cell that can score positively. Without one,
/// `P_score = 0` in both orientations: non-positive columns are never
/// chosen, so the empty padding is optimal and no DP needs to run.
/// Conservative superset: orientation flags are ignored (a cell whose
/// ids match a positive entry counts even if its relative orientation
/// would miss), so the answer serves both orientations of `v`.
///
/// Cost: `O(|σ| · (|u| + |v|))` in the worst case, stopping at the
/// first positive cell — against the `O(|u| · |v|)` σ-probing DP it
/// skips. On the simulator's short sim24 site words about half of all
/// pair fills have no positive cell.
fn any_positive_cell(sigma: &ScoreTable, u: &[Sym], v: &[Sym]) -> bool {
    // With a positive default every absent pair scores positively.
    sigma.default_score > 0
        || sigma.iter().any(|(a, b, _orient, s)| {
            s > 0 && u.iter().any(|x| x.id == a) && v.iter().any(|y| y.id == b)
        })
}

/// Arena-style buffers for the `P_score` kernels.
///
/// All methods leave the buffers grown to the largest problem seen so
/// far; repeated fills of similar-sized words allocate nothing.
#[derive(Debug, Default)]
pub struct DpWorkspace {
    /// Rolling DP row `i-1`; after a fill, holds the last row.
    pub(crate) prev: Vec<Score>,
    /// Rolling DP row `i`.
    pub(crate) cur: Vec<Score>,
    /// Reversed-word scratch for orientation searches.
    pub(crate) rev: Vec<Sym>,
    /// Whole-table scratch for the oracle's reversed-interval pass.
    pub(crate) grid: Vec<Score>,
    /// Cached query profile of the last profiled fill (generation
    /// keyed; see [`QueryProfile`]).
    pub(crate) profile: QueryProfile,
    /// Row-symbol → profile-row resolution of the last profiled fill.
    pub(crate) row_map: Vec<u32>,
    fills: u64,
    reallocs: u64,
}

impl DpWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of DP fills served by this workspace.
    pub fn fills(&self) -> u64 {
        self.fills
    }

    /// Number of buffer growth events — the allocations proxy reported
    /// by `exp_throughput`. A per-call-allocation baseline performs one
    /// (or more) allocation per fill; a warmed workspace performs none.
    pub fn reallocs(&self) -> u64 {
        self.reallocs
    }

    /// Reset the fill/realloc counters (buffers stay warm).
    pub fn reset_stats(&mut self) {
        self.fills = 0;
        self.reallocs = 0;
    }

    /// Record a fill about to run with `cols` DP columns, growing the
    /// two rolling rows if needed.
    pub(crate) fn note_fill(&mut self, cols: usize) {
        self.fills += 1;
        if self.prev.len() < cols || self.cur.len() < cols {
            self.reallocs += 1;
        }
    }

    /// `P_score(u, v)` into reused buffers; bit-identical to
    /// [`crate::p_score`]. Fills large enough to amortise a profile
    /// build ([`PROFILE_MIN_CELLS`]) run hash-free through the
    /// profiled split-recurrence kernel; small fills and fills whose
    /// profile would exceed [`crate::PROFILE_MAX_CELLS`] take the
    /// scalar reference path.
    pub fn p_score(&mut self, sigma: &ScoreTable, u: &[Sym], v: &[Sym]) -> Score {
        if u.is_empty() || v.is_empty() {
            return 0;
        }
        // Shorter word on the column axis, exactly as the free function.
        let (a, b, swapped) = if v.len() <= u.len() {
            (u, v, false)
        } else {
            (v, u, true)
        };
        self.note_fill(b.len() + 1);
        if a.len() * b.len() >= PROFILE_MIN_CELLS {
            if let Some(s) = self.fill_with_profile(sigma, a, b, swapped) {
                return s;
            }
        }
        self.fill_scalar(sigma, a, b, swapped)
    }

    /// The scalar reference fill over the already-swapped operands.
    fn fill_scalar(&mut self, sigma: &ScoreTable, a: &[Sym], b: &[Sym], swapped: bool) -> Score {
        if swapped {
            fill_rolling(
                |x, y| sigma.score(y, x),
                a,
                b,
                &mut self.prev,
                &mut self.cur,
            )
        } else {
            fill_rolling(
                |x, y| sigma.score(x, y),
                a,
                b,
                &mut self.prev,
                &mut self.cur,
            )
        }
    }

    /// Build (or rebuild) the workspace profile for `a` × `b` and run
    /// the split-recurrence kernel. `None` when the profile would be
    /// too large — the caller falls back to the scalar kernel.
    /// `swapped` mirrors the operand swap of [`DpWorkspace::p_score`]:
    /// the row word is then the M side and σ is probed `(col, row)`.
    fn fill_with_profile(
        &mut self,
        sigma: &ScoreTable,
        a: &[Sym],
        b: &[Sym],
        swapped: bool,
    ) -> Option<Score> {
        let generation = self.profile.build(sigma, a, b, swapped)?;
        self.profile.map_rows(a, &mut self.row_map);
        Some(fill_profiled(
            &self.profile,
            generation,
            &self.row_map,
            0,
            b.len(),
            &mut self.prev,
            &mut self.cur,
        ))
    }

    /// Optimal alignment with traceback into the reused whole-table
    /// scratch; bit-identical to [`crate::align_words`], which remains
    /// as the allocating wrapper for external callers. The full matrix
    /// is filled hash-free through the query profile (scalar σ probes
    /// below the profile threshold or above the profile cap), and only
    /// the traceback path re-probes σ.
    pub fn align_words(
        &mut self,
        sigma: &ScoreTable,
        u: &[Sym],
        v: &[Sym],
    ) -> (Score, AlignColumns) {
        let rows = u.len() + 1;
        let cols = v.len() + 1;
        self.note_fill(cols);
        let mut grid = self.take_grid(rows * cols);
        let profiled = u.len() * v.len() >= PROFILE_MIN_CELLS
            && self.profile.build(sigma, u, v, false).is_some();
        if profiled {
            self.profile.map_rows(u, &mut self.row_map);
        }
        for i in 1..rows {
            let (above, row) = {
                let (a, b) = grid.split_at_mut(i * cols);
                (&a[(i - 1) * cols..], &mut b[..cols])
            };
            if profiled {
                let s = self.profile.row(self.row_map[i - 1]);
                for j in 1..cols {
                    let diag = above[j - 1] + s[j - 1];
                    row[j] = diag.max(above[j]).max(row[j - 1]);
                }
            } else {
                let ui = u[i - 1];
                for j in 1..cols {
                    let diag = above[j - 1] + sigma.score(ui, v[j - 1]);
                    row[j] = diag.max(above[j]).max(row[j - 1]);
                }
            }
        }
        let score = grid[rows * cols - 1];
        let columns = traceback_from(&grid, cols, sigma, u, v);
        self.put_grid(grid);
        (score, columns)
    }

    /// `MS(u, v)` — the orientation max — into reused buffers,
    /// including the reversed-word scratch. One positive-cell check
    /// serves both orientations. Bit-identical to [`crate::ms_words`].
    pub fn ms_words(&mut self, sigma: &ScoreTable, u: &[Sym], v: &[Sym]) -> (Score, Orient) {
        if u.is_empty() || v.is_empty() || !any_positive_cell(sigma, u, v) {
            return (0, Orient::Same);
        }
        let same = self.p_score(sigma, u, v);
        let reversed = self.p_score_reversed(sigma, u, v);
        if reversed > same {
            (reversed, Orient::Reversed)
        } else {
            (same, Orient::Same)
        }
    }

    /// `P_score` under a pinned orientation; bit-identical to
    /// [`crate::match_score::p_score_oriented`].
    pub fn p_score_oriented(
        &mut self,
        sigma: &ScoreTable,
        u: &[Sym],
        v: &[Sym],
        orient: Orient,
    ) -> Score {
        if u.is_empty() || v.is_empty() || !any_positive_cell(sigma, u, v) {
            return 0;
        }
        match orient {
            Orient::Same => self.p_score(sigma, u, v),
            Orient::Reversed => self.p_score_reversed(sigma, u, v),
        }
    }

    /// `P_score(u, v^R)` with `v^R` built in the reversed-word scratch.
    fn p_score_reversed(&mut self, sigma: &ScoreTable, u: &[Sym], v: &[Sym]) -> Score {
        let mut rev = std::mem::take(&mut self.rev);
        rev.clear();
        rev.extend_from_slice(v);
        reverse_word_in_place(&mut rev);
        let s = self.p_score(sigma, u, &rev);
        self.rev = rev;
        s
    }

    /// Detach the whole-table scratch at `len` cells, zeroed. Pair
    /// with [`DpWorkspace::put_grid`] so the buffer survives for the
    /// next fill (detaching sidesteps overlapping field borrows).
    pub(crate) fn take_grid(&mut self, len: usize) -> Vec<Score> {
        let mut g = std::mem::take(&mut self.grid);
        if g.len() < len {
            self.reallocs += 1;
            g.resize(len, 0);
        }
        g[..len].fill(0);
        g
    }

    /// Return the scratch detached by [`DpWorkspace::take_grid`].
    pub(crate) fn put_grid(&mut self, g: Vec<Score>) {
        self.grid = g;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::p_score;
    use crate::match_score::ms_words;

    fn table(seed: u64, syms: u32) -> ScoreTable {
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
                    t.set(Sym::fwd(a), Sym::fwd(1000 + b), (r as i64) - 3);
                }
            }
        }
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
                    rev: state.is_multiple_of(5),
                }
            })
            .collect()
    }

    #[test]
    fn workspace_p_score_matches_free_function() {
        let t = table(3, 8);
        let mut ws = DpWorkspace::new();
        for (lu, lv) in [(0, 5), (5, 0), (1, 1), (7, 3), (3, 7), (20, 20), (31, 9)] {
            let u = word(lu as u64 + 1, lu, 8, 0);
            let v = word(lv as u64 + 2, lv, 8, 1000);
            assert_eq!(ws.p_score(&t, &u, &v), p_score(&t, &u, &v), "{lu}x{lv}");
        }
    }

    #[test]
    fn workspace_ms_matches_free_function() {
        let t = table(9, 6);
        let mut ws = DpWorkspace::new();
        for (lu, lv) in [(4, 4), (9, 2), (2, 9), (12, 5)] {
            let u = word(lu as u64 + 7, lu, 6, 0);
            let v = word(lv as u64 + 8, lv, 6, 1000);
            assert_eq!(ws.ms_words(&t, &u, &v), ms_words(&t, &u, &v), "{lu}x{lv}");
        }
    }

    #[test]
    fn buffers_grow_once_then_stay() {
        let t = table(5, 4);
        let u = word(1, 16, 4, 0);
        let v = word(2, 16, 4, 1000);
        let mut ws = DpWorkspace::new();
        let _ = ws.p_score(&t, &u, &v);
        let after_first = ws.reallocs();
        assert!(after_first >= 1);
        for _ in 0..10 {
            let _ = ws.p_score(&t, &u, &v);
        }
        assert_eq!(ws.reallocs(), after_first, "warm fills must not grow");
        assert_eq!(ws.fills(), 11);
        ws.reset_stats();
        assert_eq!(ws.fills(), 0);
    }
}

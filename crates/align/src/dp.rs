//! The `P_score` dynamic program.
//!
//! `P_score(u, v) = max_{u' ∈ P_u, v' ∈ P_v} Score(u', v')` — the
//! optimal alignment of two symbol lists where unmatched symbols pair
//! with the free padding `⊥` (score 0) and a column of two symbols
//! scores `σ`. The recurrence is the textbook one:
//!
//! ```text
//! M[i][j] = max(M[i-1][j], M[i][j-1], M[i-1][j-1] + σ(u_i, v_j))
//! ```
//!
//! with `M[0][·] = M[·][0] = 0`. All values are ≥ 0 and the matrix is
//! monotone along both axes; negative `σ` entries are simply never
//! chosen.

use fragalign_model::consistency::{AlignColumns, SiteAligner};
use fragalign_model::{Score, ScoreTable, Sym};

/// Trace back one optimal alignment through a filled row-major
/// `(|u|+1) × (|v|+1)` prefix-score grid (the
/// [`crate::DpWorkspace::align_words`] scratch) as monotone column
/// pairs covering every symbol of both words; `None` marks a `⊥`.
pub(crate) fn traceback_from(
    cells: &[Score],
    cols: usize,
    sigma: &ScoreTable,
    u: &[Sym],
    v: &[Sym],
) -> Vec<(Option<usize>, Option<usize>)> {
    let at = |i: usize, j: usize| cells[i * cols + j];
    let mut out = Vec::with_capacity(u.len() + v.len());
    let (mut i, mut j) = (u.len(), v.len());
    while i > 0 || j > 0 {
        let cur = at(i, j);
        if i > 0 && j > 0 && cur == at(i - 1, j - 1) + sigma.score(u[i - 1], v[j - 1]) {
            out.push((Some(i - 1), Some(j - 1)));
            i -= 1;
            j -= 1;
        } else if i > 0 && cur == at(i - 1, j) {
            out.push((Some(i - 1), None));
            i -= 1;
        } else {
            debug_assert!(j > 0 && cur == at(i, j - 1));
            out.push((None, Some(j - 1)));
            j -= 1;
        }
    }
    out.reverse();
    out
}

/// The rolling-row `P_score` recurrence over caller-provided buffers:
/// `u` on the row axis, `v` on the column axis, `score(u_i, v_j)` as
/// the column score. Buffers are grown as needed; on return, `prev`
/// holds the final DP row (`P_score(u, v[..j])` at index `j`), which
/// the interval oracle reads off wholesale.
///
/// This is the **scalar reference kernel** and is deliberately kept
/// exactly in the textbook shape even though the profiled
/// split-recurrence kernel in [`crate::kernel`] outruns it: its
/// correctness is auditable against the recurrence by eye, it takes
/// an arbitrary score *closure* (no profile build, no admissibility
/// conditions), and the `proptest_kernels` differential net pins the
/// profiled kernel and every workspace entry point against its output
/// bit for bit. Production runs it only where profiling does not pay
/// (fills under [`crate::PROFILE_MIN_CELLS`]) or is refused (profiles
/// over [`crate::PROFILE_MAX_CELLS`]). Optimising it would replace the
/// measuring stick with the thing being measured.
pub(crate) fn fill_rolling<F: Fn(Sym, Sym) -> Score>(
    score: F,
    u: &[Sym],
    v: &[Sym],
    prev: &mut Vec<Score>,
    cur: &mut Vec<Score>,
) -> Score {
    let cols = v.len() + 1;
    if prev.len() < cols {
        prev.resize(cols, 0);
    }
    if cur.len() < cols {
        cur.resize(cols, 0);
    }
    prev[..cols].fill(0);
    for i in 1..=u.len() {
        let ui = u[i - 1];
        cur[0] = 0;
        for j in 1..cols {
            let s = score(ui, v[j - 1]);
            cur[j] = (prev[j - 1] + s).max(prev[j]).max(cur[j - 1]);
        }
        std::mem::swap(prev, cur);
    }
    prev[cols - 1]
}

/// `P_score(u, v)` without keeping the matrix: two rolling rows,
/// `O(min)` memory after choosing the shorter word as the column axis.
/// Allocates per call; [`crate::DpWorkspace::p_score`] is the reusing
/// variant.
pub fn p_score(sigma: &ScoreTable, u: &[Sym], v: &[Sym]) -> Score {
    if u.is_empty() || v.is_empty() {
        return 0;
    }
    // Keep the inner dimension the shorter word.
    let (a, b, swapped) = if v.len() <= u.len() {
        (u, v, false)
    } else {
        (v, u, true)
    };
    let mut prev = Vec::with_capacity(b.len() + 1);
    let mut cur = Vec::with_capacity(b.len() + 1);
    if swapped {
        fill_rolling(|x, y| sigma.score(y, x), a, b, &mut prev, &mut cur)
    } else {
        fill_rolling(|x, y| sigma.score(x, y), a, b, &mut prev, &mut cur)
    }
}

/// Optimal alignment with traceback: `(score, columns)`. Allocates a
/// fresh workspace per call; [`crate::DpWorkspace::align_words`] is
/// the reusing variant.
pub fn align_words(sigma: &ScoreTable, u: &[Sym], v: &[Sym]) -> (Score, AlignColumns) {
    crate::DpWorkspace::new().align_words(sigma, u, v)
}

/// [`SiteAligner`] backed by the full DP: layouts built with it realise
/// exactly the `P_score` optimum of every match.
#[derive(Clone, Copy, Debug, Default)]
pub struct DpAligner;

impl SiteAligner for DpAligner {
    fn align_words(&self, sigma: &ScoreTable, u: &[Sym], v: &[Sym]) -> (Score, AlignColumns) {
        align_words(sigma, u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fragalign_model::Sym;

    fn sigma_diag(pairs: &[(u32, u32, i64)]) -> ScoreTable {
        let mut t = ScoreTable::new();
        for &(a, b, s) in pairs {
            t.set(Sym::fwd(a), Sym::fwd(b), s);
        }
        t
    }

    fn w(ids: &[u32]) -> Vec<Sym> {
        ids.iter().map(|&i| Sym::fwd(i)).collect()
    }

    #[test]
    fn empty_words_score_zero() {
        let t = ScoreTable::new();
        assert_eq!(p_score(&t, &[], &[]), 0);
        assert_eq!(p_score(&t, &w(&[1]), &[]), 0);
        assert_eq!(p_score(&t, &[], &w(&[1])), 0);
        let (s, cols) = align_words(&t, &w(&[1, 2]), &[]);
        assert_eq!(s, 0);
        assert_eq!(cols.len(), 2);
    }

    #[test]
    fn single_pair() {
        let t = sigma_diag(&[(0, 10, 5)]);
        assert_eq!(p_score(&t, &w(&[0]), &w(&[10])), 5);
    }

    #[test]
    fn crossing_pairs_must_choose() {
        // u = [a, b], v = [b', a'] where a~a' and b~b' both score:
        // order forbids taking both (Fig. 3, second example).
        let t = sigma_diag(&[(0, 10, 4), (1, 11, 3)]);
        let u = w(&[0, 1]);
        let v = w(&[11, 10]); // reversed order
        assert_eq!(p_score(&t, &u, &v), 4, "only the better pair survives");
    }

    #[test]
    fn skips_are_free() {
        let t = sigma_diag(&[(0, 10, 4), (1, 11, 3)]);
        let u = w(&[0, 5, 5, 5, 1]);
        let v = w(&[10, 11]);
        assert_eq!(p_score(&t, &u, &v), 7);
    }

    #[test]
    fn negative_scores_never_forced() {
        let mut t = sigma_diag(&[(0, 10, 4)]);
        t.set(Sym::fwd(1), Sym::fwd(11), -5);
        let u = w(&[0, 1]);
        let v = w(&[10, 11]);
        assert_eq!(p_score(&t, &u, &v), 4);
    }

    #[test]
    fn traceback_covers_all_symbols_and_matches_score() {
        let t = sigma_diag(&[(0, 10, 4), (1, 11, 3), (2, 12, 9)]);
        let u = w(&[0, 7, 1, 2]);
        let v = w(&[10, 11, 8, 12]);
        let (score, cols) = align_words(&t, &u, &v);
        assert_eq!(score, 16);
        // Every u offset and v offset appears exactly once, monotone.
        let us: Vec<usize> = cols.iter().filter_map(|c| c.0).collect();
        let vs: Vec<usize> = cols.iter().filter_map(|c| c.1).collect();
        assert_eq!(us, (0..u.len()).collect::<Vec<_>>());
        assert_eq!(vs, (0..v.len()).collect::<Vec<_>>());
        // Recomputing the column score reproduces the DP score.
        let col_score: i64 = cols
            .iter()
            .filter_map(|&(a, b)| Some(t.score(u[a?], v[b?])))
            .sum();
        assert_eq!(col_score, score);
    }

    #[test]
    fn prefix_scores_monotone() {
        let t = sigma_diag(&[(0, 10, 4), (1, 11, 3)]);
        let u = w(&[0, 1]);
        let v = w(&[10, 11]);
        let prefix = |i: usize, j: usize| p_score(&t, &u[..i], &v[..j]);
        for i in 0..=u.len() {
            for j in 1..=v.len() {
                assert!(prefix(i, j) >= prefix(i, j - 1));
            }
        }
        for j in 0..=v.len() {
            for i in 1..=u.len() {
                assert!(prefix(i, j) >= prefix(i - 1, j));
            }
        }
        let last_row: Vec<Score> = (0..=v.len()).map(|j| prefix(u.len(), j)).collect();
        assert_eq!(last_row, [0, 4, 7]);
    }

    #[test]
    fn p_score_agrees_with_matrix_on_swapped_args() {
        // p_score internally swaps to keep the inner loop short; make
        // sure σ is still applied as σ(h-side, m-side).
        let mut t = ScoreTable::new();
        t.set(Sym::fwd(0), Sym::fwd(10), 4); // σ(h=0, m=10) = 4
        let u = w(&[0]);
        let v = w(&[10, 11, 12]);
        assert_eq!(p_score(&t, &u, &v), 4);
        assert_eq!(p_score(&t, &v, &u), 0, "reversed roles find no σ entry");
    }

    /// Brute force: enumerate all monotone pairings of u and v.
    fn brute(sigma: &ScoreTable, u: &[Sym], v: &[Sym]) -> Score {
        fn rec(sigma: &ScoreTable, u: &[Sym], v: &[Sym], i: usize, j: usize) -> Score {
            if i == u.len() || j == v.len() {
                return 0;
            }
            let take = sigma.score(u[i], v[j]) + rec(sigma, u, v, i + 1, j + 1);
            let skip_u = rec(sigma, u, v, i + 1, j);
            let skip_v = rec(sigma, u, v, i, j + 1);
            take.max(skip_u).max(skip_v)
        }
        rec(sigma, u, v, 0, 0)
    }

    #[test]
    fn dp_equals_bruteforce_exhaustive_small() {
        // All words of length ≤ 3 over a 3-symbol alphabet with a
        // fixed random-ish score table.
        let mut t = ScoreTable::new();
        for a in 0..3u32 {
            for b in 0..3u32 {
                t.set(Sym::fwd(a), Sym::fwd(10 + b), ((a * 7 + b * 3) % 5) as i64);
            }
        }
        let words: Vec<Vec<Sym>> = {
            let mut ws = vec![vec![]];
            for len in 1..=3 {
                let mut cur = vec![vec![0u32; len]];
                loop {
                    let word = cur.last().unwrap().clone();
                    ws.push(word.iter().map(|&i| Sym::fwd(i)).collect());
                    let mut next = word;
                    let mut k = 0;
                    loop {
                        if k == len {
                            break;
                        }
                        next[k] += 1;
                        if next[k] < 3 {
                            break;
                        }
                        next[k] = 0;
                        k += 1;
                    }
                    if k == len {
                        break;
                    }
                    cur.push(next);
                }
            }
            ws
        };
        for u in &words {
            for v0 in &words {
                let v: Vec<Sym> = v0.iter().map(|s| Sym::fwd(s.id + 10)).collect();
                assert_eq!(p_score(&t, u, &v), brute(&t, u, &v), "u={u:?} v={v:?}");
            }
        }
    }
}

//! Differential property tests: the production `P_score` paths — the
//! profiled kernel called directly, the workspace entry points (with
//! their positive-cell early exit and scalar fallback), the traceback
//! aligner and the oracle — must be bit-identical to the free
//! `p_score`, the allocating wrapper over the scalar reference kernel
//! `fill_rolling`. Covered: random words and score tables, degenerate
//! alphabets, both orientations, and dirty (previously used,
//! differently sized) buffers.

use fragalign_align::kernel::fill_profiled;
use fragalign_align::match_score::p_score_oriented;
use fragalign_align::{align_words, ms_words, p_score, DpWorkspace, QueryProfile, ScoreOracle};
use fragalign_model::symbol::reverse_word;
use fragalign_model::{FragId, Fragment, Instance, Orient, Score, ScoreTable, Site, Sym};
use proptest::prelude::*;

/// Random σ including negative entries and a non-zero default score
/// of either sign (the early exit must stay exact when every absent
/// pair scores non-zero, and must stand aside when absent pairs score
/// positively).
fn sigma_strategy() -> impl Strategy<Value = ScoreTable> {
    (
        prop::collection::vec(((0u32..6), (0u32..6), any::<bool>(), -3i64..7), 0..24),
        -2i64..=1,
    )
        .prop_map(|(entries, default_score)| {
            let mut t = ScoreTable::new();
            for (a, b, rev, s) in entries {
                let m_side = if rev {
                    Sym::rev(100 + b)
                } else {
                    Sym::fwd(100 + b)
                };
                t.set(Sym::fwd(a), m_side, s);
            }
            t.default_score = default_score;
            t
        })
}

fn word(base: u32) -> impl Strategy<Value = Vec<Sym>> {
    prop::collection::vec(
        (0u32..6, any::<bool>()).prop_map(move |(i, r)| Sym {
            id: base + i,
            rev: r,
        }),
        0..14,
    )
}

/// Non-empty variant (fragments may not be empty).
fn word_nonempty(base: u32) -> impl Strategy<Value = Vec<Sym>> {
    prop::collection::vec(
        (0u32..6, any::<bool>()).prop_map(move |(i, r)| Sym {
            id: base + i,
            rev: r,
        }),
        1..10,
    )
}

/// The reference final DP row of `u` (rows) × `v` (columns):
/// `P_score` of `u` against every prefix of `v`. `swap` puts the row
/// word on the M side, so σ is applied `(column, row)`.
fn reference_row(sigma: &ScoreTable, u: &[Sym], v: &[Sym], swap: bool) -> Vec<Score> {
    (0..=v.len())
        .map(|j| {
            if swap {
                p_score(sigma, &v[..j], u)
            } else {
                p_score(sigma, u, &v[..j])
            }
        })
        .collect()
}

/// Run the profiled kernel directly — no cell-count floor, so short
/// words reach it too — over caller buffers that may be dirty.
/// Returns the score and the final DP row, or `None` when the profile
/// is refused.
fn profiled_row(
    sigma: &ScoreTable,
    u: &[Sym],
    v: &[Sym],
    swap: bool,
    prev: &mut Vec<Score>,
    cur: &mut Vec<Score>,
) -> Option<(Score, Vec<Score>)> {
    let mut profile = QueryProfile::default();
    let generation = profile.build(sigma, u, v, swap)?;
    let mut row_of = Vec::new();
    profile.map_rows(u, &mut row_of);
    let s = fill_profiled(&profile, generation, &row_of, 0, v.len(), prev, cur);
    Some((s, prev[..=v.len()].to_vec()))
}

/// Dirty rolling rows: large, and full of values no fill produces.
fn dirty_rows() -> (Vec<Score>, Vec<Score>) {
    (vec![987_654; 64], vec![-123_456; 64])
}

/// Assert the profiled kernel matches the reference row through dirty
/// buffers in both role assignments: H word `h` on the rows, and M
/// word `m` on the rows (σ applied `(column, row)`).
fn check_profiled(sigma: &ScoreTable, h: &[Sym], m: &[Sym]) -> Result<(), TestCaseError> {
    for (rows, cols, swap) in [(h, m, false), (m, h, true)] {
        let (mut prev, mut cur) = dirty_rows();
        let want = reference_row(sigma, rows, cols, swap);
        let (score, row) =
            profiled_row(sigma, rows, cols, swap, &mut prev, &mut cur).expect("small profile fits");
        prop_assert_eq!(score, want[cols.len()], "swap {}", swap);
        prop_assert_eq!(row, want, "final row, swap {}", swap);
    }
    Ok(())
}

proptest! {
    /// The profiled kernel and every workspace `P_score` entry point
    /// agree with the reference.
    #[test]
    fn all_kernel_paths_agree(sigma in sigma_strategy(), u in word(0), v in word(100)) {
        let reference = p_score(&sigma, &u, &v);
        check_profiled(&sigma, &u, &v)?;
        // Workspace routing across a dirty workspace: fill a
        // differently-shaped, profiled problem first so stale cells
        // would show.
        let mut ws = DpWorkspace::new();
        let big_u: Vec<Sym> = (0..17).map(Sym::fwd).collect();
        let big_v: Vec<Sym> = (0..19).map(|i| Sym::fwd(100 + i)).collect();
        let _ = ws.p_score(&sigma, &big_u, &big_v);
        prop_assert_eq!(ws.p_score(&sigma, &u, &v), reference);
        prop_assert_eq!(ws.align_words(&sigma, &u, &v).0, reference);
        prop_assert_eq!(align_words(&sigma, &u, &v).0, reference);
    }

    /// Degenerate alphabets: every row symbol identical (one profile
    /// row serving every DP row), with mixed orientation flags and
    /// both operand orders. Long enough that the workspace profiles
    /// too.
    #[test]
    fn profiled_kernels_on_degenerate_alphabets(
        sigma in sigma_strategy(),
        revs_u in prop::collection::vec(any::<bool>(), 0..40),
        revs_v in prop::collection::vec(any::<bool>(), 0..40),
        uid in 0u32..6, vid in 0u32..6,
    ) {
        let u: Vec<Sym> = revs_u.iter().map(|&r| Sym { id: uid, rev: r }).collect();
        let v: Vec<Sym> = revs_v.iter().map(|&r| Sym { id: 100 + vid, rev: r }).collect();
        check_profiled(&sigma, &u, &v)?;
        let mut ws = DpWorkspace::new();
        prop_assert_eq!(ws.p_score(&sigma, &u, &v), p_score(&sigma, &u, &v));
    }

    /// Orientation search: the workspace `MS` and pinned-orientation
    /// scores (positive-cell early exit included) match the reference
    /// in both orientations, so the early exit can never change a
    /// score; both respect the reversal identity `P(u, v) = P(u^R, v^R)`.
    #[test]
    fn ms_paths_agree_including_reversed(
        sigma in sigma_strategy(), u in word(0), v in word(100)
    ) {
        let vr = reverse_word(&v);
        let same = p_score(&sigma, &u, &v);
        let rev = p_score(&sigma, &u, &vr);
        let reference = if rev > same { (rev, Orient::Reversed) } else { (same, Orient::Same) };
        let mut ws = DpWorkspace::new();
        prop_assert_eq!(ms_words(&sigma, &u, &v), reference);
        prop_assert_eq!(ws.ms_words(&sigma, &u, &v), reference);
        for (orient, want) in [(Orient::Same, same), (Orient::Reversed, rev)] {
            prop_assert_eq!(ws.p_score_oriented(&sigma, &u, &v, orient), want);
            prop_assert_eq!(p_score_oriented(&sigma, &u, &v, orient), want);
        }
        // Reversal invariance through the workspace path.
        let ur = reverse_word(&u);
        prop_assert_eq!(ws.p_score_oriented(&sigma, &ur, &vr, Orient::Same), same);
        prop_assert_eq!(ws.ms_words(&sigma, &ur, &vr).0, reference.0);
    }

    /// The workspace traceback: its columns cover every symbol of both
    /// words exactly once, in order, and their σ-sum is the reference
    /// score.
    #[test]
    fn workspace_traceback_covers_words_and_realises_score(
        sigma in sigma_strategy(), u in word(0), v in word(100)
    ) {
        let mut ws = DpWorkspace::new();
        let (score, cols) = ws.align_words(&sigma, &u, &v);
        prop_assert_eq!(score, p_score(&sigma, &u, &v));
        let us: Vec<usize> = cols.iter().filter_map(|c| c.0).collect();
        let vs: Vec<usize> = cols.iter().filter_map(|c| c.1).collect();
        prop_assert_eq!(us, (0..u.len()).collect::<Vec<_>>());
        prop_assert_eq!(vs, (0..v.len()).collect::<Vec<_>>());
        let col_score: Score = cols
            .iter()
            .filter_map(|&(a, b)| Some(sigma.score(u[a?], v[b?])))
            .sum();
        prop_assert_eq!(col_score, score);
    }

    /// Oracle entry points: the pooled-workspace oracle, the
    /// per-call-allocation oracle, and explicit caller workspaces all
    /// produce identical interval tables and site-pair scores.
    #[test]
    fn oracle_paths_agree(
        sigma in sigma_strategy(),
        h0 in word_nonempty(0), h1 in word_nonempty(0),
        m0 in word_nonempty(100), m1 in word_nonempty(100)
    ) {
        let inst = Instance {
            h: vec![Fragment::new("h0", h0), Fragment::new("h1", h1)],
            m: vec![Fragment::new("m0", m0), Fragment::new("m1", m1)],
            sigma,
            alphabet: Default::default(),
        };
        let pooled = ScoreOracle::new(&inst);
        let baseline = ScoreOracle::with_workspace_reuse(&inst, false);
        let mut caller_ws = DpWorkspace::new();
        for plug in inst.all_frag_ids() {
            for container in inst.all_frag_ids() {
                if plug.species == container.species {
                    continue;
                }
                let a = pooled.interval_table(plug, container);
                let b = baseline.interval_table(plug, container);
                let c = pooled.interval_table_with(plug, container, &mut caller_ws);
                let n = inst.frag_len(container);
                for d in 0..=n {
                    for e in d..=n {
                        prop_assert_eq!(a.get(d, e), b.get(d, e));
                        prop_assert_eq!(a.get(d, e), c.get(d, e));
                    }
                }
            }
        }
        let h_site = Site::full(FragId::h(0), inst.frag_len(FragId::h(0)));
        let m_site = Site::full(FragId::m(0), inst.frag_len(FragId::m(0)));
        prop_assert_eq!(pooled.ms(h_site, m_site), baseline.ms(h_site, m_site));
        for orient in [Orient::Same, Orient::Reversed] {
            prop_assert_eq!(
                pooled.ms_oriented(h_site, m_site, orient),
                baseline.ms_oriented(h_site, m_site, orient)
            );
        }
    }
}

/// Deterministic word over a small alphabet with mixed orientations.
fn mixed_word(seed: u64, len: usize, base: u32) -> Vec<Sym> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            Sym {
                id: base + (state % 6) as u32,
                rev: state.is_multiple_of(3),
            }
        })
        .collect()
}

fn dense_sigma() -> ScoreTable {
    let mut sigma = ScoreTable::new();
    for a in 0..6u32 {
        for b in 0..6u32 {
            let m = if (a + b) % 2 == 0 {
                Sym::rev(100 + b)
            } else {
                Sym::fwd(100 + b)
            };
            sigma.set(Sym::fwd(a), m, ((a * 5 + b * 3) % 9) as i64 - 3);
        }
    }
    sigma.default_score = -1;
    sigma
}

/// Stale-tail regression: run a wide fill, then strictly narrower
/// fills through every surviving entry point on the *same* buffers.
/// Any path that trusts a buffer cell it did not rewrite for the
/// current width reads the wide fill's leftovers and diverges from the
/// reference. (Audit note: `fill_rolling` zeroes `prev[..cols]` and
/// writes `cur[..cols]` before reading; the profiled kernel zeroes
/// `prev[..cols]` and `cur[0]` per row; `align_words` zeroes its grid
/// — this test pins all of that against regression.)
#[test]
fn shrinking_buffers_never_leak_stale_tails() {
    let sigma = dense_sigma();
    let mut ws = DpWorkspace::new();
    // Wide fills: bigger than everything that follows, filling
    // prev/cur/rev/grid/profile with large-problem leftovers.
    let wide_u = mixed_word(11, 90, 0);
    let wide_v = mixed_word(12, 1100, 100);
    let _ = ws.p_score(&sigma, &wide_u, &wide_v);
    let _ = ws.ms_words(&sigma, &wide_u, &wide_v);
    let _ = ws.align_words(&sigma, &wide_u, &mixed_word(13, 70, 100));
    let (mut prev, mut cur) = (Vec::new(), Vec::new());
    let _ = profiled_row(&sigma, &wide_u, &wide_v, false, &mut prev, &mut cur);

    for (seed, lu, lv) in [(1u64, 9, 60), (2, 17, 5), (3, 1, 1), (4, 40, 515)] {
        let u = mixed_word(seed * 7 + 1, lu, 0);
        let v = mixed_word(seed * 7 + 2, lv, 100);
        let reference = p_score(&sigma, &u, &v);
        let (score, row) = profiled_row(&sigma, &u, &v, false, &mut prev, &mut cur).unwrap();
        assert_eq!(score, reference, "profiled {lu}x{lv}");
        assert_eq!(
            row,
            reference_row(&sigma, &u, &v, false),
            "profiled row {lu}x{lv}"
        );
        assert_eq!(ws.p_score(&sigma, &u, &v), reference, "p_score {lu}x{lv}");
        assert_eq!(ws.ms_words(&sigma, &u, &v), ms_words(&sigma, &u, &v));
        for orient in [Orient::Same, Orient::Reversed] {
            assert_eq!(
                ws.p_score_oriented(&sigma, &u, &v, orient),
                p_score_oriented(&sigma, &u, &v, orient),
                "{orient:?} {lu}x{lv}"
            );
        }
        let (score, cols) = ws.align_words(&sigma, &u, &v);
        let (free_score, free_cols) = align_words(&sigma, &u, &v);
        assert_eq!(score, reference, "align_words score {lu}x{lv}");
        assert_eq!(score, free_score, "align_words score {lu}x{lv}");
        assert_eq!(cols, free_cols, "align_words columns {lu}x{lv}");
    }

    // The oracle sweep through the same (adopted) workspace: interval
    // tables after the wide fill must match a fresh oracle's.
    let inst = Instance {
        h: vec![Fragment::new("h0", mixed_word(21, 7, 0))],
        m: vec![Fragment::new("m0", mixed_word(22, 9, 100))],
        sigma: dense_sigma(),
        alphabet: Default::default(),
    };
    let dirty = ScoreOracle::new(&inst);
    dirty.adopt_workspace(ws);
    let fresh = ScoreOracle::new(&inst);
    let a = dirty.interval_table(FragId::h(0), FragId::m(0));
    let b = fresh.interval_table(FragId::h(0), FragId::m(0));
    for d in 0..=9 {
        for e in d..=9 {
            assert_eq!(a.get(d, e), b.get(d, e), "interval [{d},{e})");
        }
    }
}

//! Property-based tests for the alignment substrate.

use fragalign_align::dna::{reverse_complement, smith_waterman, DnaParams};
use fragalign_align::{align_words, ms_words, p_score};
use fragalign_model::symbol::reverse_word;
use fragalign_model::{ScoreTable, Sym};
use proptest::prelude::*;

fn sigma_strategy() -> impl Strategy<Value = ScoreTable> {
    prop::collection::vec(((0u32..6), (0u32..6), -3i64..6), 0..20).prop_map(|entries| {
        let mut t = ScoreTable::new();
        for (a, b, s) in entries {
            t.set(Sym::fwd(a), Sym::fwd(100 + b), s);
        }
        t
    })
}

fn hw() -> impl Strategy<Value = Vec<Sym>> {
    prop::collection::vec(
        (0u32..6, any::<bool>()).prop_map(|(i, r)| Sym { id: i, rev: r }),
        0..9,
    )
}

fn mw() -> impl Strategy<Value = Vec<Sym>> {
    prop::collection::vec(
        (0u32..6, any::<bool>()).prop_map(|(i, r)| Sym {
            id: 100 + i,
            rev: r,
        }),
        0..9,
    )
}

/// Exponential reference implementation.
fn brute(sigma: &ScoreTable, u: &[Sym], v: &[Sym]) -> i64 {
    fn rec(sigma: &ScoreTable, u: &[Sym], v: &[Sym], i: usize, j: usize) -> i64 {
        if i == u.len() || j == v.len() {
            return 0;
        }
        (sigma.score(u[i], v[j]) + rec(sigma, u, v, i + 1, j + 1))
            .max(rec(sigma, u, v, i + 1, j))
            .max(rec(sigma, u, v, i, j + 1))
    }
    rec(sigma, u, v, 0, 0)
}

proptest! {
    #[test]
    fn dp_equals_bruteforce(sigma in sigma_strategy(), u in hw(), v in mw()) {
        prop_assert_eq!(p_score(&sigma, &u, &v), brute(&sigma, &u, &v));
    }

    #[test]
    fn p_score_reversal_invariant(sigma in sigma_strategy(), u in hw(), v in mw()) {
        // P(u, v) = P(u^R, v^R)
        prop_assert_eq!(
            p_score(&sigma, &u, &v),
            p_score(&sigma, &reverse_word(&u), &reverse_word(&v))
        );
    }

    #[test]
    fn p_score_monotone_in_extensions(
        sigma in sigma_strategy(), u in hw(), v in mw(), w in mw()
    ) {
        let mut vw = v.clone();
        vw.extend_from_slice(&w);
        prop_assert!(p_score(&sigma, &u, &vw) >= p_score(&sigma, &u, &v));
    }

    #[test]
    fn traceback_score_consistent(sigma in sigma_strategy(), u in hw(), v in mw()) {
        let (score, cols) = align_words(&sigma, &u, &v);
        let col_sum: i64 = cols
            .iter()
            .filter_map(|&(a, b)| Some(sigma.score(u[a?], v[b?])))
            .sum();
        prop_assert_eq!(col_sum, score);
        // Monotone and complete coverage.
        let us: Vec<usize> = cols.iter().filter_map(|c| c.0).collect();
        let vs: Vec<usize> = cols.iter().filter_map(|c| c.1).collect();
        prop_assert_eq!(us, (0..u.len()).collect::<Vec<_>>());
        prop_assert_eq!(vs, (0..v.len()).collect::<Vec<_>>());
    }

    #[test]
    fn ms_is_max_of_orientations(sigma in sigma_strategy(), u in hw(), v in mw()) {
        let (best, _) = ms_words(&sigma, &u, &v);
        let same = p_score(&sigma, &u, &v);
        let rev = p_score(&sigma, &u, &reverse_word(&v));
        prop_assert_eq!(best, same.max(rev));
        prop_assert!(best >= 0);
    }

    #[test]
    fn sw_symmetric_and_nonnegative(
        a in prop::collection::vec(prop::sample::select(b"ACGT".to_vec()), 0..30),
        b in prop::collection::vec(prop::sample::select(b"ACGT".to_vec()), 0..30),
    ) {
        let p = DnaParams::default();
        let s = smith_waterman(&a, &b, p);
        prop_assert!(s >= 0);
        prop_assert_eq!(s, smith_waterman(&b, &a, p));
        // Aligning against the reverse complement of the reverse
        // complement changes nothing.
        prop_assert_eq!(
            s,
            smith_waterman(&a, &reverse_complement(&reverse_complement(&b)), p)
        );
    }

    #[test]
    fn sw_self_alignment_is_maximal(
        a in prop::collection::vec(prop::sample::select(b"ACGT".to_vec()), 1..25),
        b in prop::collection::vec(prop::sample::select(b"ACGT".to_vec()), 1..25),
    ) {
        let p = DnaParams::default();
        prop_assert!(smith_waterman(&a, &a, p) >= smith_waterman(&a, &b, p));
        prop_assert_eq!(smith_waterman(&a, &a, p), a.len() as i64 * p.mat);
    }
}

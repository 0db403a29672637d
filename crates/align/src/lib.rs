//! # fragalign-align
//!
//! Alignment substrate for the CSR problem.
//!
//! The paper's Definition 4 builds match scores `MS(h̄, m̄)` from
//! `P_score(h̄, m̄)`: the maximum column score over all paddings of the
//! two sites — the classic problem of aligning two lists of symbols
//! where gaps are free and every column of two symbols scores `σ`.
//! This crate provides:
//!
//! * the textbook rolling-row dynamic program — the scalar reference
//!   every faster path is tested against — with traceback ([`dp`]),
//! * one production `P_score` kernel: a query profile plus a
//!   branchless split recurrence, bit-identical to the scalar DP
//!   ([`kernel`]),
//! * reusable DP workspaces that route each fill — early exit when no
//!   cell can score positively, profiled kernel, scalar fallback for
//!   tiny words — and own the buffers ([`workspace`]),
//! * match scores with orientation search ([`match_score`]),
//! * an all-intervals oracle `MS(h, m(d, e))` with single-flight
//!   memoisation for the 1-CSR → ISP reduction, TPA profits and site
//!   pairs ([`oracle`]),
//! * a fragment-chaining tier — minimizer anchors, LIS chaining, DP
//!   only inside the chained windows — for instances too large for
//!   the full DP family ([`chain`]),
//! * a from-scratch nucleotide Smith–Waterman aligner with reverse
//!   complement search, used by the simulator to derive region scores
//!   the way a sequencing pipeline would ([`dna`]).

pub mod chain;
pub mod dna;
pub mod dp;
pub mod kernel;
pub mod match_score;
pub mod oracle;
pub mod workspace;

pub use chain::{solve_chain, solve_chain_with_oracle, solve_chain_with_params, ChainParams};
pub use dp::{align_words, p_score, DpAligner};
pub use kernel::{QueryProfile, PROFILE_MAX_CELLS, PROFILE_MIN_CELLS};
pub use match_score::{ms_sites, ms_words, site_laid_word};
pub use oracle::{OracleStats, OracleStatsSnapshot, ScoreOracle};
pub use workspace::DpWorkspace;

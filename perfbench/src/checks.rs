//! Output checks. Every answer the benchmark times is checked after
//! the timed phase; a failed check makes its op count as an error.

use fragalign::core::SolveReport;
use fragalign::model::{check_consistency, Instance, MatchSet, Score};
use serde::{Serialize, Value};
use std::collections::BTreeMap;

/// Why an op's output was rejected.
#[derive(Clone, Debug, PartialEq)]
pub enum CheckError {
    /// The op itself failed (the solver refused the instance).
    Failed(String),
    /// The answer could not be decoded.
    Decode(String),
    /// The match set violates Definition 2.
    Inconsistent(String),
    /// The claimed score is not the sum of the match scores.
    ScoreMismatch {
        /// Score the answer claims.
        claimed: Score,
        /// Σ of its match scores.
        total: Score,
    },
    /// The score exceeds `Instance::score_upper_bound()`.
    OverBound {
        /// Score the answer claims.
        score: Score,
        /// The instance's upper bound.
        bound: Score,
    },
    /// The score differs from the width-1 solve of the same instance.
    Reference {
        /// Score the answer claims.
        score: Score,
        /// The width-1 reference score.
        reference: Score,
    },
    /// A match's score differs from a fresh oracle's score for its
    /// site pair in its orientation.
    MatchScore {
        /// Score the match carries.
        claimed: Score,
        /// The oracle's score for the same site pair.
        oracle: Score,
    },
    /// A served cache hit differs from the miss body of its request.
    HitBody,
    /// The request was not answered with 200 (refused, failed).
    Status(u16),
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::Failed(e) => write!(f, "the op failed: {e}"),
            CheckError::Decode(e) => write!(f, "undecodable answer: {e}"),
            CheckError::Inconsistent(e) => write!(f, "inconsistent match set: {e}"),
            CheckError::ScoreMismatch { claimed, total } => {
                write!(f, "claimed score {claimed} but matches sum to {total}")
            }
            CheckError::OverBound { score, bound } => {
                write!(f, "score {score} exceeds the upper bound {bound}")
            }
            CheckError::Reference { score, reference } => {
                write!(
                    f,
                    "score {score} differs from the width-1 solve's {reference}"
                )
            }
            CheckError::MatchScore { claimed, oracle } => {
                write!(f, "a match claims {claimed} but the oracle gives {oracle}")
            }
            CheckError::HitBody => write!(f, "cache-hit body differs from the miss body"),
            CheckError::Status(s) => write!(f, "answered with status {s}"),
        }
    }
}

/// Check a result against its instance: consistency (Definition 2),
/// the claimed score equals the sum of the match scores, and the score
/// is at most `score_upper_bound()`.
pub fn check_result(inst: &Instance, score: Score, matches: &MatchSet) -> Result<(), CheckError> {
    check_consistency(inst, matches).map_err(|e| CheckError::Inconsistent(format!("{e:?}")))?;
    let total = matches.total_score();
    if total != score {
        return Err(CheckError::ScoreMismatch {
            claimed: score,
            total,
        });
    }
    let bound = inst.score_upper_bound();
    if score > bound {
        return Err(CheckError::OverBound { score, bound });
    }
    Ok(())
}

/// What one op answered: its score and match set, or why it failed.
pub type Outcome<'a> = Result<(Score, &'a MatchSet), &'a str>;

/// Checks op outcomes as they arrive: [`check_result`] against the
/// instance the op solved, and the same input must score the same on
/// every op of the run.
pub struct Checker<'a> {
    insts: &'a [Instance],
    first: BTreeMap<usize, Score>,
}

impl<'a> Checker<'a> {
    /// A checker for ops on `insts`.
    pub fn new(insts: &'a [Instance]) -> Self {
        Checker {
            insts,
            first: BTreeMap::new(),
        }
    }

    /// Check the outcome of one op on input `input`.
    pub fn check(&mut self, input: usize, outcome: Outcome<'_>) -> Result<Score, CheckError> {
        let (score, matches) = outcome.map_err(|e| CheckError::Failed(e.to_string()))?;
        check_result(&self.insts[input], score, matches)?;
        let reference = *self.first.entry(input).or_insert(score);
        if score != reference {
            return Err(CheckError::Reference { score, reference });
        }
        Ok(score)
    }
}

/// [`check_result`] plus equality with the width-1 reference score.
pub fn check_against_reference(
    inst: &Instance,
    score: Score,
    matches: &MatchSet,
    reference: Score,
) -> Result<(), CheckError> {
    check_result(inst, score, matches)?;
    if score != reference {
        return Err(CheckError::Reference { score, reference });
    }
    Ok(())
}

/// The encoded answer of one solve: the same shape `POST /v1/solve`
/// answers with.
pub struct Answer<'a> {
    /// Solver that ran (the routed delegate's name for `auto`).
    pub solver: &'a str,
    /// Total score.
    pub score: Score,
    /// The match set.
    pub matches: &'a MatchSet,
    /// The engine's telemetry record.
    pub report: &'a SolveReport,
}

/// Encode an answer as JSON.
pub fn encode_answer(answer: &Answer<'_>) -> String {
    let doc = Value::Object(vec![
        ("solver".to_string(), Value::Str(answer.solver.to_string())),
        ("score".to_string(), Value::Int(answer.score)),
        ("matches".to_string(), answer.matches.serialize()),
        ("report".to_string(), answer.report.serialize()),
    ]);
    serde_json::to_string(&doc).expect("answers serialise")
}

/// Decode the `score` and `matches` of an encoded answer (a bench
/// answer or a `/v1/solve` response body).
pub fn decode_answer(text: &str) -> Result<(Score, MatchSet), CheckError> {
    let doc: Value =
        serde_json::from_str(text).map_err(|e| CheckError::Decode(format!("{e:?}")))?;
    let score = match doc.get("score") {
        Some(Value::Int(s)) => *s,
        _ => return Err(CheckError::Decode("no integer `score`".to_string())),
    };
    let matches = doc
        .get("matches")
        .cloned()
        .ok_or_else(|| CheckError::Decode("no `matches`".to_string()))?;
    let matches: MatchSet =
        serde_json::from_value(matches).map_err(|e| CheckError::Decode(format!("{e:?}")))?;
    Ok((score, matches))
}

/// Decode and check an encoded answer.
pub fn check_answer(inst: &Instance, text: &str) -> Result<Score, CheckError> {
    let (score, matches) = decode_answer(text)?;
    check_result(inst, score, &matches)?;
    Ok(score)
}

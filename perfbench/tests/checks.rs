use fragalign::core::{csr_improve, EngineOptions, SolverRegistry};
use fragalign::model::instance::paper_example;
use fragalign_perfbench::checks::{
    check_against_reference, check_answer, check_result, decode_answer, encode_answer, Answer,
    CheckError,
};

#[test]
fn a_correct_result_passes() {
    let inst = paper_example();
    let res = csr_improve(&inst, false);
    assert_eq!(check_result(&inst, res.score, &res.matches), Ok(()));
    assert_eq!(
        check_against_reference(&inst, res.score, &res.matches, 11),
        Ok(())
    );
}

#[test]
fn a_tampered_score_is_an_error() {
    let inst = paper_example();
    let res = csr_improve(&inst, false);
    let err = check_result(&inst, res.score + 1, &res.matches).unwrap_err();
    assert!(matches!(err, CheckError::ScoreMismatch { .. }), "{err:?}");
}

#[test]
fn a_dropped_match_is_an_error() {
    let inst = paper_example();
    let res = csr_improve(&inst, false);
    let mut dropped = res.matches.clone();
    let first = dropped
        .iter()
        .next()
        .map(|(id, _)| id)
        .expect("the optimum has matches");
    dropped.remove_many(&[first]);
    // The claimed score no longer adds up ...
    assert!(check_result(&inst, res.score, &dropped).is_err());
    // ... and with the score patched to match, the width-1 reference
    // still catches it.
    let err =
        check_against_reference(&inst, dropped.total_score(), &dropped, res.score).unwrap_err();
    assert!(matches!(err, CheckError::Reference { .. }), "{err:?}");
}

#[test]
fn a_score_above_the_bound_is_an_error() {
    let inst = paper_example();
    let res = csr_improve(&inst, false);
    let mut inflated = res.matches.clone();
    let id = inflated.iter().next().map(|(id, _)| id).expect("matches");
    inflated.get_mut(id).expect("listed id").score += inst.score_upper_bound();
    let err = check_result(&inst, inflated.total_score(), &inflated).unwrap_err();
    assert!(matches!(err, CheckError::OverBound { .. }), "{err:?}");
}

#[test]
fn encoded_answers_round_trip_and_tampering_shows() {
    let inst = paper_example();
    let run = SolverRegistry::global()
        .solve("auto", &inst, EngineOptions::default())
        .unwrap();
    let text = encode_answer(&Answer {
        solver: "csr",
        score: run.score,
        matches: &run.matches,
        report: &run.report,
    });
    let (score, matches) = decode_answer(&text).unwrap();
    assert_eq!((score, &matches), (run.score, &run.matches));
    assert_eq!(check_answer(&inst, &text), Ok(run.score));
    let tampered = text.replacen(&format!("\"score\":{}", run.score), "\"score\":1", 1);
    assert_ne!(tampered, text);
    assert!(check_answer(&inst, &tampered).is_err());
    assert!(matches!(decode_answer("{}"), Err(CheckError::Decode(_))));
}

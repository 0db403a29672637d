use fragalign::core::{EngineOptions, SolverRegistry};
use fragalign::model::instance::paper_example;
use fragalign_perfbench::checks::{encode_answer, Answer, CheckError};
use fragalign_perfbench::report::EndToEnd;
use fragalign_perfbench::serve::{check_replies, parse_reply, Reply, Sent};

fn sent(body: usize, status: u16, cache: Option<&str>, text: &str, latency_ms: f64) -> Sent {
    Sent {
        body,
        late_ms: 0.0,
        latency_ms,
        reply: Reply {
            status,
            cache: cache.map(str::to_string),
            body: text.to_string(),
        },
    }
}

fn answer_text() -> String {
    let inst = paper_example();
    let run = SolverRegistry::global()
        .solve("auto", &inst, EngineOptions::default())
        .unwrap();
    encode_answer(&Answer {
        solver: "csr",
        score: run.score,
        matches: &run.matches,
        report: &run.report,
    })
}

#[test]
fn a_refused_request_is_an_error_and_an_slo_miss() {
    let insts = [paper_example()];
    let text = answer_text();
    let replies = [
        sent(0, 200, Some("miss"), &text, 5.0),
        sent(0, 503, None, "{\"error\":\"server busy\"}", 0.2),
    ];
    let checked = check_replies(&insts, &replies);
    assert_eq!(checked[0], Ok(11));
    assert_eq!(checked[1], Err(CheckError::Status(503)));
    let mut run = EndToEnd::new(0.99, 250.0);
    run.wall_s = 1.0;
    for (s, verdict) in replies.iter().zip(checked) {
        run.record(s.body, s.latency_ms, 12, verdict);
    }
    assert_eq!(run.failed(), 1);
    assert_eq!(run.problems.len(), 1);
    // Fast, but refused: it misses the SLO too.
    assert_eq!(run.slo_ok(), 1);
    let metrics = run.metrics();
    let value = |name: &str| metrics.iter().find(|m| m.name == name).unwrap().value;
    assert_eq!(value("error_ratio"), 0.5);
    assert_eq!(value("slo_ok_ratio"), 0.5);
}

#[test]
fn a_hit_must_be_byte_identical_to_its_miss() {
    let insts = [paper_example()];
    let text = answer_text();
    let altered = text.replacen("\"solver\":\"csr\"", "\"solver\":\"four\"", 1);
    assert_ne!(altered, text);
    let replies = [
        sent(0, 200, Some("miss"), &text, 5.0),
        sent(0, 200, Some("hit"), &text, 0.4),
        sent(0, 200, Some("hit"), &altered, 0.4),
    ];
    let checked = check_replies(&insts, &replies);
    assert_eq!(checked[1], Ok(11));
    assert_eq!(checked[2], Err(CheckError::HitBody));
}

#[test]
fn a_wrong_miss_is_an_error() {
    let insts = [paper_example()];
    let tampered = answer_text().replacen("\"score\":11", "\"score\":12", 1);
    let checked = check_replies(&insts, &[sent(0, 200, Some("miss"), &tampered, 5.0)]);
    assert!(checked[0].is_err());
}

#[test]
fn responses_parse_one_at_a_time_off_a_pipelined_buffer() {
    let one = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nX-Fragalign-Cache: hit\r\n\r\n{}";
    let two = "HTTP/1.1 503 Service Unavailable\r\ncontent-length: 3\r\n\r\nbad";
    let buf = format!("{one}{two}");
    let (first, used) = parse_reply(buf.as_bytes()).unwrap().unwrap();
    assert_eq!(first.status, 200);
    assert_eq!(first.cache.as_deref(), Some("hit"));
    assert_eq!(first.body, "{}");
    let (second, rest) = parse_reply(&buf.as_bytes()[used..]).unwrap().unwrap();
    assert_eq!(
        (second.status, second.cache, second.body.as_str()),
        (503, None, "bad")
    );
    assert_eq!(used + rest, buf.len());
    assert!(parse_reply(&one.as_bytes()[..one.len() - 1])
        .unwrap()
        .is_none());
}

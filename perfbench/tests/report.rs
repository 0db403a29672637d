use fragalign_perfbench::report::{result_line, Metric};
use serde::Value;

#[test]
fn the_result_line_is_json_with_every_metric_and_its_digits() {
    let line = result_line(
        true,
        12,
        0,
        &[
            Metric::new("latency_p50_ms", "ms", 1.203_456_789),
            Metric::new("throughput_rps", "1/s", 25.0),
        ],
    );
    let v: Value = serde_json::from_str(&line).expect("the line is JSON");
    assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(v.get("attempted"), Some(&Value::Int(12)));
    assert_eq!(v.get("failed"), Some(&Value::Int(0)));
    let metrics = v.get("metrics").expect("metrics");
    let p50 = metrics.get("latency_p50_ms").expect("p50");
    assert_eq!(p50.get("value"), Some(&Value::Float(1.203_456_789)));
    assert_eq!(p50.get("unit"), Some(&Value::Str("ms".to_string())));
    let rps = metrics.get("throughput_rps").expect("rps");
    assert_eq!(rps.get("value"), Some(&Value::Float(25.0)));
}

#[test]
fn a_value_that_is_not_finite_becomes_null() {
    let line = result_line(false, 1, 1, &[Metric::new("setup_s", "s", f64::NAN)]);
    let v: Value = serde_json::from_str(&line).expect("the line is JSON");
    let setup = v
        .get("metrics")
        .and_then(|m| m.get("setup_s"))
        .expect("setup_s");
    assert_eq!(setup.get("value"), Some(&Value::Null));
}

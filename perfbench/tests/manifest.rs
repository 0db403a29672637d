//! `BENCHMARK.json` at the repository root must name exactly the
//! workloads and metrics this benchmark prints.

use fragalign_perfbench::layers::PER_LAYER;
use fragalign_perfbench::report::{END_TO_END, GATED_END_TO_END};
use fragalign_perfbench::Workload;
use serde::Value;

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json is JSON")
}

fn names(v: &Value, key: &str) -> Vec<(String, Option<String>)> {
    v.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("`{key}` is a list"))
        .iter()
        .map(|item| {
            let field = |f: &str| match item.get(f) {
                Some(Value::Str(s)) => Some(s.clone()),
                _ => None,
            };
            (
                field("name").expect("every entry has a name"),
                field("unit"),
            )
        })
        .collect()
}

#[test]
fn workloads_match() {
    let listed: Vec<String> = names(&manifest(), "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(listed, ours);
}

#[test]
fn end_to_end_metrics_match() {
    let unit = |name: &str| {
        END_TO_END
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, u)| u.to_string())
    };
    let ours: Vec<(String, Option<String>)> = GATED_END_TO_END
        .iter()
        .map(|n| (n.to_string(), unit(n)))
        .collect();
    assert_eq!(names(&manifest(), "end_to_end"), ours);
}

#[test]
fn per_layer_metrics_match() {
    let ours: Vec<(String, Option<String>)> = PER_LAYER
        .iter()
        .map(|(n, u)| (n.to_string(), Some(u.to_string())))
        .collect();
    assert_eq!(names(&manifest(), "per_layer"), ours);
}

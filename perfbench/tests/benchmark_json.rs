//! `BENCHMARK.json` at the repository root names exactly what this
//! benchmark runs and reports.

use ripple_perfbench::inputs::Workload;
use ripple_perfbench::layers::PER_LAYER;

const END_TO_END: [&str; 4] = ["main_op_s", "side_op_s", "setup_s", "peak_rss_mb"];

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

/// The `"name"` values listed in the JSON array under `key`.
fn names_under(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let open = start + json[start..].find('[').expect("array");
    let close = open + json[open..].find(']').expect("array end");
    json[open..close]
        .split("\"name\"")
        .skip(1)
        .map(|rest| {
            let rest = &rest[rest.find('"').expect("name value") + 1..];
            rest[..rest.find('"').expect("closing quote")].to_owned()
        })
        .collect()
}

#[test]
fn workloads_match() {
    let names = names_under(&benchmark_json(), "workloads");
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

#[test]
fn end_to_end_metrics_match() {
    assert_eq!(names_under(&benchmark_json(), "end_to_end"), END_TO_END);
}

#[test]
fn per_layer_metrics_match() {
    let names = names_under(&benchmark_json(), "per_layer");
    let ours: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, ours);
}

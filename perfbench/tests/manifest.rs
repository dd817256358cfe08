//! `BENCHMARK.json` is generated from the benchmark's own tables.

use perfbench::manifest::{manifest_json, PER_LAYER, WORKLOADS};

#[test]
fn benchmark_json_matches_the_tables() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert_eq!(on_disk, manifest_json(), "regenerate with `perfbench --manifest > BENCHMARK.json`");
}

#[test]
fn names_and_whys_fit_the_manifest_limits() {
    for w in &WORKLOADS {
        assert!(w.why.len() <= 200 && !w.why.contains('"'), "{}", w.name);
    }
    let mut names: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), PER_LAYER.len(), "per-layer names are unique");
    assert!(names.iter().all(|n| n.len() <= 64));
}

//! Smoke runs of all three workloads on tiny inputs, end to end through
//! the command, and the agreement of `BENCHMARK.json` with the catalog.

use perfbench::catalog::{gated, END_TO_END, PER_LAYER};
use perfbench::run::WORKLOADS;
use std::collections::BTreeSet;
use std::process::Command;

fn run(trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "all", "--seed", "3", "--seconds", "1", "--trace", trace, "--tiny"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "benchmark failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// The JSON result lines, one per workload process.
fn results(stdout: &str) -> Vec<&str> {
    stdout.lines().filter(|l| l.starts_with("{\"correct\"")).collect()
}

#[test]
fn untraced_run_checks_every_answer_and_prints_every_end_to_end_metric() {
    let stdout = run("0");
    let results = results(&stdout);
    assert_eq!(results.len(), WORKLOADS.len());
    for r in &results {
        assert!(r.starts_with("{\"correct\": true, "), "{r}");
        assert!(r.contains("\"failed\": 0,"), "{r}");
        for m in END_TO_END.iter().filter(|m| gated(m)) {
            assert!(
                r.contains(&format!("\"{}\": {{\"value\": ", m.name)),
                "{} missing: {r}",
                m.name
            );
        }
    }
    let table = stdout.lines().find(|l| l.starts_with("workload ")).expect("the summary table");
    for m in END_TO_END {
        assert!(
            table.contains(&format!("{}[{}]", m.name, m.unit)),
            "{} missing from {table}",
            m.name
        );
    }
    for w in WORKLOADS {
        let row = stdout.lines().find(|l| l.starts_with(&format!("{w} "))).expect("a table row");
        assert!(!row.contains('?'), "unreadable cell in {row}");
    }
}

#[test]
fn traced_run_prints_every_per_layer_metric_and_writes_traces() {
    let stdout = run("1");
    let results = results(&stdout);
    assert_eq!(results.len(), WORKLOADS.len());
    for r in &results {
        assert!(r.starts_with("{\"correct\": true, "), "{r}");
        for m in PER_LAYER {
            assert!(
                r.contains(&format!("\"{}\": {{\"value\": ", m.name)),
                "{} missing: {r}",
                m.name
            );
        }
    }
    for w in WORKLOADS {
        let trace = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!(".bench_out/trace-{w}-seed3.json"));
        let json = std::fs::read_to_string(&trace).expect("the Chrome trace");
        assert!(json.starts_with("{\"traceEvents\":[{"), "empty trace for {w}");
    }
    assert!(stdout.contains("serve/batch"), "the server's batch spans are in the self-time table");
    assert!(stdout.contains("build/pair-gen"), "the build spans are in the self-time table");
}

#[test]
fn benchmark_json_lists_the_catalog() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let names: BTreeSet<&str> =
        text.split("\"name\": \"").skip(1).filter_map(|s| s.split('"').next()).collect();
    let expected: BTreeSet<&str> = WORKLOADS
        .iter()
        .copied()
        .chain(END_TO_END.iter().filter(|m| gated(m)).map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
        .collect();
    assert_eq!(names, expected);
    for m in END_TO_END.iter().filter(|m| gated(m)).chain(PER_LAYER) {
        let better = if m.lower_is_better { "lower" } else { "higher" };
        let entry =
            format!("\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"", m.name, m.unit);
        assert!(text.contains(&entry), "BENCHMARK.json disagrees with the catalog on {}", m.name);
    }
}

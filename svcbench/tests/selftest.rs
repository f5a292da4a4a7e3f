//! Self-tests of the benchmark on tiny inputs: every named metric is
//! emitted, the output check catches a corrupted kept point, and the
//! traced and untraced runs keep the same points.
//!
//! Run with `cargo test --release --manifest-path svcbench/Cargo.toml`.

use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 3] = [
    "ingest_synthetic",
    "ingest_churn_field",
    "query_under_ingest",
];

/// Metric names listed under `section` in the repository's
/// `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let end = body.find(']').expect("a closed list");
    body[..end]
        .split("\"name\":")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("a quoted name").to_string())
        .collect()
}

struct Run {
    stdout: String,
}

impl Run {
    fn result(&self) -> &str {
        self.stdout.lines().last().expect("a result line")
    }

    fn digest(&self) -> &str {
        self.stdout
            .lines()
            .find_map(|l| l.strip_prefix("kept_digest: "))
            .expect("a kept digest line")
    }
}

fn run(workload: &str, seed: u64, trace: u8, extra: &[&str]) -> Run {
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("{workload}-{seed}-{trace}-{}", extra.len()));
    let out = Command::new(env!("CARGO_BIN_EXE_svcbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "1",
            "--trace",
            &trace.to_string(),
            "--scale",
            "0.05",
        ])
        .args(["--workers", "2", "--io-threads", "2", "--tolerance", "10"])
        .args(["--append-rate", "20000"])
        .arg("--work-dir")
        .arg(&work)
        .args(extra)
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} exited {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    Run { stdout }
}

#[test]
fn every_workload_emits_every_named_metric() {
    for workload in WORKLOADS {
        for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
            let r = run(workload, 3, trace, &[]);
            let line = r.result();
            assert!(
                line.starts_with("{\"correct\": true,"),
                "{workload}: {line}"
            );
            for name in declared(section) {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{workload} --trace {trace} lacks {name}: {line}"
                );
            }
        }
    }
}

#[test]
fn a_corrupted_kept_point_fails_the_output_check() {
    let r = run("ingest_synthetic", 4, 0, &["--corrupt-kept"]);
    let line = r.result();
    assert!(line.starts_with("{\"correct\": false,"), "{line}");
    assert!(!line.contains("\"failed\": 0,"), "{line}");
}

#[test]
fn traced_and_untraced_runs_keep_the_same_points() {
    for workload in ["ingest_synthetic", "ingest_churn_field"] {
        let plain = run(workload, 5, 0, &[]);
        let traced = run(workload, 5, 1, &[]);
        assert_eq!(plain.digest(), traced.digest(), "{workload}");
    }
}

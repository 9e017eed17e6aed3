//! Runs every workload at a tiny size and checks the report's shape:
//! each metric printed once with its unit, no percentile with fewer than
//! ten samples beyond it, a passing correctness check, and a failing one
//! once a response is corrupted.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ok_per_s", "1/s"),
    ("predict_p50_us", "us"),
    ("predict_p90_us", "us"),
    ("explain_p50_us", "us"),
    ("explain_p90_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Build `comet-serve` once for the whole test binary.
fn server_bin() -> &'static Path {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("repository root");
        let target =
            std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), PathBuf::from);
        let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "-p",
                "comet-serve",
                "--bin",
                "comet-serve",
            ])
            .arg("--manifest-path")
            .arg(root.join("Cargo.toml"))
            .env("CARGO_TARGET_DIR", &target)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "comet-serve builds");
        target.join("release").join("comet-serve")
    })
}

struct Report {
    json: serde_json::Value,
    /// `metric <name> = <value> <unit> (samples <n>)` lines.
    lines: Vec<(String, String, usize)>,
    stdout: String,
}

fn run(workload: &str, extra: &[&str]) -> Report {
    let out = Command::new(env!("CARGO_BIN_EXE_repobench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(extra)
        .arg("--server-bin")
        .arg(server_bin())
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        out.status.success(),
        "{workload} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let json: serde_json::Value = serde_json::from_str(last).expect("result line is JSON");
    let lines = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("metric "))
        .map(|l| {
            let (name, rest) = l.split_once(" = ").expect("name = value");
            let mut words = rest.split_whitespace();
            let _value = words.next();
            let unit = words.next().expect("unit").to_string();
            let samples = rest
                .rsplit_once("(samples ")
                .and_then(|(_, n)| n.trim_end_matches(')').parse().ok())
                .expect("sample count");
            (name.to_string(), unit, samples)
        })
        .collect();
    Report { json, lines, stdout }
}

fn metric_names(report: &Report) -> Vec<String> {
    match report.json.get("metrics") {
        Some(serde_json::Value::Object(map)) => map.keys().cloned().collect(),
        _ => panic!("metrics object missing"),
    }
}

fn check_end_to_end(workload: &str) -> Report {
    let report = run(workload, &["--trace", "0"]);
    assert_eq!(
        report.json.get("correct").and_then(|v| v.as_bool()),
        Some(true),
        "{}",
        report.stdout
    );
    assert_eq!(report.json.get("failed").and_then(|v| v.as_u64()), Some(0));
    assert!(report.json.get("attempted").and_then(|v| v.as_u64()).unwrap_or(0) >= 1);
    let names = metric_names(&report);
    assert_eq!(names.len(), report.lines.len());
    for (name, unit, samples) in &report.lines {
        let expected = END_TO_END.iter().find(|(n, _)| n == name);
        let (_, expected_unit) =
            expected.unwrap_or_else(|| panic!("{workload} printed unknown {name}"));
        assert_eq!(unit, expected_unit, "{name}");
        let json_unit =
            report.json.get("metrics").and_then(|m| m.get(name)).and_then(|m| m.get("unit"));
        assert_eq!(json_unit.and_then(|u| u.as_str()), Some(*expected_unit));
        // The ten-beyond rule, from the printed sample count.
        for (suffix, q) in [("_p50_us", 0.5), ("_p90_us", 0.9)] {
            if name.ends_with(suffix) {
                let rank = (q * *samples as f64).ceil() as usize;
                assert!(samples - rank >= 10, "{name} rests on {samples} samples");
            }
        }
    }
    for always in ["setup_s", "ok_per_s", "peak_rss_mb"] {
        assert!(names.iter().any(|n| n == always), "{workload} lacks {always}");
    }
    report
}

#[test]
fn serve_hot_prints_its_metrics() {
    let _ = check_end_to_end("serve-hot");
}

#[test]
fn serve_explain_prints_its_metrics() {
    let _ = check_end_to_end("serve-explain");
}

#[test]
fn eval_table3_prints_its_metrics() {
    // Three blocks per row give twelve searches: too few for any
    // explain percentile, so none may be printed.
    let report = check_end_to_end("eval-table3");
    let names = metric_names(&report);
    assert!(!names.iter().any(|n| n.starts_with("explain_")), "{names:?}");
}

#[test]
fn corrupted_responses_fail_the_check() {
    for workload in ["serve-hot", "eval-table3"] {
        let report = run(workload, &["--trace", "0", "--inject-corruption"]);
        assert_eq!(report.json.get("correct").and_then(|v| v.as_bool()), Some(false), "{workload}");
        assert!(report.json.get("failed").and_then(|v| v.as_u64()).unwrap_or(0) >= 1, "{workload}");
    }
}

#[test]
fn traced_serve_hot_prints_every_layer_and_reconciles() {
    let report = run("serve-hot", &["--trace", "1"]);
    assert_eq!(
        report.json.get("correct").and_then(|v| v.as_bool()),
        Some(true),
        "{}",
        report.stdout
    );
    let names = metric_names(&report);
    assert!(names.len() >= 30, "{names:?}");
    assert_eq!(names.len(), report.lines.len(), "each layer printed once");
    let value = |name: &str| -> f64 {
        report
            .json
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("{name} missing"))
    };
    for kind in ["predict", "explain"] {
        let floor = value("net.floor_us");
        let layers = value(&format!("ledger.{kind}_layers_us"));
        let rest = value(&format!("ledger.{kind}_unattributed_us"));
        let p50 = value(&format!("ledger.{kind}_p50_us"));
        assert!(p50 > 0.0 && floor > 0.0 && layers > 0.0);
        assert!((floor + layers + rest - p50).abs() < 1e-6 * p50, "{kind} ledger does not add up");
    }
    assert_eq!(value("store.hit_ratio"), 1.0);
    assert_eq!(value("serve.shed"), 0.0);
    assert_eq!(value("serve.degraded_ratio"), 0.0);
}

#[test]
fn bad_arguments_exit_with_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_repobench"))
        .args(["--workload", "no-such-workload", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .output()
        .expect("benchmark runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}

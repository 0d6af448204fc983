//! Minimal-size smoke of the benchmark: every workload completes at its
//! smallest inputs, untraced and traced, prints every metric the
//! catalogue names and passes every output check; and the committed
//! `BENCHMARK.json` and `manifest.json` are the ones the catalogue
//! prints. Run with `cargo test --release --manifest-path
//! perfbench/Cargo.toml`.

use std::process::Command;

fn perfbench(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("perfbench runs");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

/// Metric names of one section of the printed `BENCHMARK.json`.
fn section_names(benchmark: &str, section: &str, next: &str) -> Vec<String> {
    let body = &benchmark[benchmark.find(section).expect("section")..];
    let body = &body[..body.find(next).unwrap_or(body.len())];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

#[test]
fn every_workload_runs_checks_and_reports_every_metric() {
    let (ok, benchmark) = perfbench(&["--manifest", "benchmark"]);
    assert!(ok);
    let end_to_end = section_names(&benchmark, "\"end_to_end\"", "\"per_layer\"");
    let per_layer = section_names(&benchmark, "\"per_layer\"", "\u{0}");
    let workloads = section_names(&benchmark, "\"workloads\"", "\"end_to_end\"");
    assert_eq!(workloads, ["cad_swap", "fleet_real", "fleet_model"]);
    assert!(end_to_end.contains(&"setup_s".to_string()));
    for workload in &workloads {
        for (trace, names) in [("0", &end_to_end), ("1", &per_layer)] {
            let (ok, out) = perfbench(&[
                "--workload",
                workload,
                "--seed",
                "3",
                "--seconds",
                "0.01",
                "--trace",
                trace,
                "--smoke",
            ]);
            let last = out.lines().last().expect("a result line");
            assert!(ok, "{workload} --trace {trace} failed:\n{out}");
            assert!(
                last.starts_with("{\"correct\": true, "),
                "{workload}: {last}"
            );
            for name in names.iter() {
                assert!(
                    last.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{workload} --trace {trace} lacks {name}"
                );
            }
            assert!(
                out.contains("provenance {"),
                "{workload}: no provenance line"
            );
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--workload", "cad_swap"],
        &["--workload", "cad_swap", "--seed", "1", "--trace", "2"],
    ] {
        let (ok, out) = perfbench(args);
        assert!(!ok, "{args:?} succeeded");
        assert!(out.is_empty(), "{args:?} printed {out}");
    }
}

#[test]
fn committed_manifests_match_the_catalogue() {
    let root = env!("CARGO_MANIFEST_DIR");
    for (which, path) in [
        ("benchmark", format!("{root}/../BENCHMARK.json")),
        ("ledger", format!("{root}/manifest.json")),
    ] {
        let (ok, printed) = perfbench(&["--manifest", which]);
        assert!(ok);
        let committed = std::fs::read_to_string(&path).expect("committed manifest");
        assert_eq!(
            printed, committed,
            "{path} is stale: regenerate it with --manifest {which}"
        );
    }
}

//! Every workload at smoke scale, untraced and traced, through the
//! binary's `run` and `agree` commands: each check runs, the result files
//! parse, and the exact counts repeat.

use nss_obs::jsonval::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

fn nss_bench(args: &[&str], out: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_nss_bench"))
        .args(args)
        .arg("--out")
        .arg(out)
        .output()
        .expect("nss_bench runs")
}

fn out_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn metric(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no metric {name}"))
}

#[test]
fn run_exercises_every_workload_and_check() {
    let out = out_dir("smoke-run");
    let o = nss_bench(
        &[
            "run",
            "--smoke",
            "--trace",
            "--seed",
            "7",
            "--seconds",
            "0.2",
        ],
        &out,
    );
    let stdout = String::from_utf8_lossy(&o.stdout);
    assert!(
        o.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&o.stderr)
    );
    let text = std::fs::read_to_string(out.join("run-7.json")).expect("run file");
    let doc = Json::parse(&text).expect("run file is JSON");
    for w in ["sim_sweep", "sim_scale", "serve_warm", "serve_churn"] {
        for section in ["workloads", "traced"] {
            let r = doc
                .get(section)
                .and_then(|s| s.get(w))
                .expect("workload result");
            assert_eq!(
                r.get("correct").and_then(Json::as_bool),
                Some(true),
                "{w} {section}"
            );
            assert_eq!(
                r.get("failed").and_then(Json::as_f64),
                Some(0.0),
                "{w} {section}"
            );
            assert!(r.get("attempted").and_then(Json::as_f64) >= Some(1.0));
        }
        let plain = doc.get("workloads").and_then(|s| s.get(w)).expect("plain");
        for (name, _) in nss_bench_harness::report::END_TO_END {
            assert!(metric(plain, name) > 0.0, "{w} {name} must never be 0");
            assert!(
                stdout.contains(&format!("{w} {name} ")),
                "{w} {name} printed"
            );
        }
        for file in ["trace.json", "layers.json"] {
            let t = std::fs::read_to_string(out.join(w).join(file)).expect("trace output");
            Json::parse(&t).unwrap_or_else(|e| panic!("{w}/{file}: {e}"));
        }
    }
    let traced = |w: &str, name: &str| {
        metric(
            doc.get("traced").and_then(|s| s.get(w)).expect("traced"),
            name,
        )
    };
    assert_eq!(traced("serve_warm", "serve.cache.misses"), 0.0);
    assert_eq!(traced("serve_warm", "serve.cache.hit_rate"), 1.0);
    assert!(traced("serve_churn", "serve.cache.evictions") > 0.0);
    assert!(traced("sim_sweep", "sim.layer_coverage") >= 0.95);

    // A set agrees with itself; `agree` reads the same bounds file.
    let file = out.join("run-7.json");
    let a = Command::new(env!("CARGO_BIN_EXE_nss_bench"))
        .arg("agree")
        .args([&file, &file])
        .output()
        .expect("agree runs");
    let table = String::from_utf8_lossy(&a.stdout);
    assert!(a.status.success(), "{table}");
    assert!(table.contains("0 disagree"), "{table}");
}

#[test]
fn exact_counts_repeat_across_runs() {
    let counts = [
        "sim.phases",
        "sim.broadcasts",
        "sim.deliveries",
        "sim.collisions",
        "model.topology.adjacency_bytes",
    ];
    for w in ["sim_sweep", "sim_scale"] {
        let runs: Vec<Vec<f64>> = (0..2)
            .map(|i| {
                let out = out_dir(&format!("smoke-repeat-{w}-{i}"));
                let o = nss_bench(
                    &[
                        "--workload",
                        w,
                        "--seed",
                        "11",
                        "--seconds",
                        "1",
                        "--trace",
                        "1",
                        "--smoke",
                    ],
                    &out,
                );
                assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
                let stdout = String::from_utf8_lossy(&o.stdout);
                let last = stdout.lines().last().expect("result line");
                let r = Json::parse(last).expect("result line is JSON");
                assert_eq!(r.get("correct").and_then(Json::as_bool), Some(true));
                counts.iter().map(|c| metric(&r, c)).collect()
            })
            .collect();
        assert_eq!(runs[0], runs[1], "{w}: exact counts differ between runs");
        assert!(runs[0].iter().all(|&c| c > 0.0), "{w}: {runs:?}");
    }
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    let o = Command::new(env!("CARGO_BIN_EXE_nss_bench"))
        .args(["--workload", "nope"])
        .output()
        .expect("nss_bench runs");
    assert_eq!(o.status.code(), Some(2));
    assert!(o.stdout.is_empty());
}

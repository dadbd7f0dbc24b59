//! The `nss_bench` command line; README.md describes the workloads,
//! metrics and result files.

use nss_bench_harness::provenance::Provenance;
use nss_bench_harness::report::{human_lines, result_line};
use nss_bench_harness::{agree, run_workload, Scale, Workload};
use nss_obs::jsonval::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage:
  nss_bench --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]
      one workload in this process; prints `workload metric value unit (n=…)`
      lines, then the result as one JSON line
  nss_bench run [--seed N] [--seconds S] [--trace] [--smoke] [--out DIR]
      every workload, each in a child process; writes DIR/run-N.json and
      exits 1 if any check fails
  nss_bench agree SET_A SET_B
      compares two sets of run-*.json (directories or files) within the
      bounds of BENCHMARK.json; exits 1 if any pair disagrees
workloads: sim_sweep sim_scale serve_warm serve_churn";

/// The benchmark declaration next to this package.
const BENCHMARK: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

struct Opts {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: nss_bench_harness::sim::PAPER_SEED,
        seconds: 20.0,
        trace: false,
        scale: Scale::Full,
        out: PathBuf::from("nss_bench/out"),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                o.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                o.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs an integer")?
            }
            "--seconds" => {
                o.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            // `--trace 0|1` (BENCHMARK.json's form) or a bare `--trace`.
            "--trace" => {
                o.trace = it.peek().map(|s| s.as_str()) != Some("0");
                if matches!(it.peek().map(|s| s.as_str()), Some("0" | "1")) {
                    it.next();
                }
            }
            "--smoke" => o.scale = Scale::Smoke,
            "--out" => o.out = PathBuf::from(value("--out")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(o)
}

/// The detail file a workload process leaves for `run`.
fn detail_path(out: &Path, w: Workload, trace: bool) -> PathBuf {
    out.join(w.name()).join(if trace {
        "result-trace.json"
    } else {
        "result.json"
    })
}

/// One workload in this process, as BENCHMARK.json's command runs it.
fn one(o: &Opts) -> Result<ExitCode, String> {
    let w = o.workload.ok_or("--workload is required")?;
    let dir = o.out.join(w.name());
    let provenance = Provenance::collect().to_json(o.seed, &w.settings(o.seed, o.scale, o.seconds));
    let outcome = run_workload(w, o.seed, o.seconds, o.scale, o.trace, &dir, &provenance)
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    for note in &outcome.checks.notes {
        eprintln!("{}: check failed: {note}", w.name());
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let detail = detail_path(&o.out, w, o.trace);
    std::fs::write(&detail, outcome.detail_json(&provenance))
        .map_err(|e| format!("{}: {e}", detail.display()))?;
    print!("{}", human_lines(w.name(), &outcome.metrics));
    println!("{}", result_line(&outcome.checks, &outcome.metrics));
    Ok(ExitCode::SUCCESS)
}

/// Runs workload `w` in a child process; returns its detail record.
fn child(exe: &Path, w: Workload, o: &Opts, trace: bool) -> Result<(String, Json), String> {
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&o.out)
        .stdout(Stdio::null());
    if o.scale == Scale::Smoke {
        cmd.arg("--smoke");
    }
    let detail = detail_path(&o.out, w, trace);
    let _ = std::fs::remove_file(&detail);
    let status = cmd
        .status()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    if !status.success() {
        return Err(format!("{} exited with {status}", w.name()));
    }
    let text =
        std::fs::read_to_string(&detail).map_err(|e| format!("{}: {e}", detail.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", detail.display()))?;
    Ok((text.trim_end().to_string(), doc))
}

/// The `metrics` of a detail record as `(name, value, unit, n)`.
fn metrics(doc: &Json) -> Vec<(String, f64, String, f64)> {
    doc.get("metrics")
        .and_then(Json::as_obj)
        .unwrap_or(&[])
        .iter()
        .map(|(name, m)| {
            let num = |k: &str| m.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            (name.clone(), num("value"), unit.to_string(), num("n"))
        })
        .collect()
}

/// Every workload, each in its own child process.
fn run_all(o: &Opts) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let provenance = Provenance::collect();
    println!(
        "nss_bench run: seed {} seconds {} scale {:?}; {}",
        o.seed,
        o.seconds,
        o.scale,
        provenance.fingerprint()
    );
    let (mut plain, mut traced, mut overheads) = (Vec::new(), Vec::new(), Vec::new());
    let mut all_correct = true;
    for w in Workload::ALL {
        let (text, doc) = child(&exe, w, o, false)?;
        all_correct &= doc.get("correct").and_then(Json::as_bool) == Some(true);
        for (name, value, unit, n) in metrics(&doc) {
            println!("{} {name} {value} {unit} (n={n})", w.name());
        }
        plain.push(format!("\"{}\":{text}", w.name()));
        if o.trace {
            let (ttext, tdoc) = child(&exe, w, o, true)?;
            all_correct &= tdoc.get("correct").and_then(Json::as_bool) == Some(true);
            let throughput = |d: &Json, name: &str| {
                metrics(d)
                    .into_iter()
                    .find(|m| m.0 == name)
                    .map_or(0.0, |m| m.1)
            };
            let overhead = throughput(&doc, "throughput_per_s")
                / throughput(&tdoc, "trace.throughput_per_s")
                - 1.0;
            println!("{} trace.overhead {overhead} ratio (n=1)", w.name());
            traced.push(format!("\"{}\":{ttext}", w.name()));
            overheads.push(format!(
                "\"{}\":{}",
                w.name(),
                nss_bench_harness::report::json_number(overhead)
            ));
        }
    }
    let settings = [
        ("seconds".to_string(), o.seconds.to_string()),
        ("scale".to_string(), format!("{:?}", o.scale).to_lowercase()),
    ];
    let file = o.out.join(format!("run-{}.json", o.seed));
    std::fs::create_dir_all(&o.out).map_err(|e| format!("{}: {e}", o.out.display()))?;
    std::fs::write(
        &file,
        format!(
            "{{\"provenance\":{},\n\"workloads\":{{\n{}}},\n\"traced\":{{\n{}}},\n\"trace_overhead\":{{{}}}}}\n",
            provenance.to_json(o.seed, &settings),
            plain.join(",\n"),
            traced.join(",\n"),
            overheads.join(",")
        ),
    )
    .map_err(|e| format!("{}: {e}", file.display()))?;
    println!("wrote {}", file.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("nss_bench run: a check failed");
        ExitCode::from(1)
    })
}

fn agree_sets(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("agree needs two sets".to_string());
    };
    let bench = std::fs::read_to_string(BENCHMARK).map_err(|e| format!("{BENCHMARK}: {e}"))?;
    let bounds = agree::bounds(&bench)?;
    let rows = agree::compare(
        &bounds,
        &agree::load_set(Path::new(a))?,
        &agree::load_set(Path::new(b))?,
    )?;
    print!("{}", agree::render(&rows));
    let flagged = rows.iter().filter(|r| r.flagged).count();
    println!("{} pairs, {flagged} disagree", rows.len());
    Ok(if flagged == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse(&args[1..]).and_then(|o| run_all(&o)),
        Some("agree") => agree_sets(&args[1..]),
        Some(_) => parse(&args).and_then(|o| one(&o)),
        None => Err("no arguments".to_string()),
    };
    result.unwrap_or_else(|msg| {
        eprintln!("nss_bench: {msg}\n{USAGE}");
        ExitCode::from(2)
    })
}

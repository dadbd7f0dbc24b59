//! `repro` — regenerates every figure of the paper's evaluation plus the
//! extension experiments.
//!
//! ```sh
//! cargo run --release -p nss-experiments --bin repro -- all
//! cargo run --release -p nss-experiments --bin repro -- fig4 fig12
//! cargo run --release -p nss-experiments --bin repro -- --fast sim
//! cargo run --release -p nss-experiments --bin repro -- list
//! ```
//!
//! Commands are [`figures::REGISTRY`] entries (`repro list` prints
//! them) plus the groups `analysis`, `sim`, `ext`, `misc`, and `all`, and
//! the long-running `repro serve` (the `nss-serve` HTTP query service;
//! own flags, blocks until killed).
//! Options: `--fast` (smoke-scale), `--out DIR`, `--runs N`, `--threads N`,
//! `--seed S`, `--faults SPEC` (e.g. `"loss=0.2,dead=0.1"`),
//! `--medium SPEC` (`unit-disk` or e.g. `"sinr:alpha=4,beta=0.5"`),
//! `--metrics-addr HOST:PORT` (live `/metrics` scrapes for the run's
//! duration), `--trace-out FILE` (flight-recorder dump, Chrome
//! `trace_event` JSON). The last two carry data only with `--features obs`.

mod common;
mod ext_connectivity;
mod ext_faults;
mod ext_sinr;
mod extensions;
mod fig12;
mod figures;
mod report;
mod sec41;

use common::{write_or_exit, Ctx};
use figures::FigureDef;
use nss_model::comm::MediumBackend;
use nss_model::faults::FaultPlan;
use std::time::Instant;

fn main() {
    // `repro serve` is a long-running service, not a figure run: it takes
    // its own flags and never reaches the registry, so it is dispatched
    // before figure selection.
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("serve") {
        run_serve(&raw[1..]);
        return;
    }

    let (ctx, commands) = match parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("error: {msg}\n");
            print_usage();
            std::process::exit(2);
        }
    };
    if commands.is_empty() {
        print_usage();
        return;
    }
    if commands.iter().any(|c| c == "list") {
        print_list();
        return;
    }

    let selected = match select(&commands) {
        Ok(s) => s,
        Err(unknown) => {
            eprintln!("unknown command: {unknown}");
            print_usage();
            std::process::exit(2);
        }
    };

    // Live telemetry endpoint for the duration of the run; a bind failure
    // is a usage error (bad HOST:PORT or port taken), not a panic.
    let metrics_server = match &ctx.metrics_addr {
        Some(addr) => match nss_obs::serve::MetricsServer::start(addr.as_str()) {
            Ok(server) => {
                if !nss_obs::enabled() {
                    eprintln!("note: built without --features obs; /metrics will be empty");
                }
                eprintln!("serving /metrics on http://{}/metrics", server.addr());
                Some(server)
            }
            Err(e) => {
                eprintln!("error: --metrics-addr {addr}: {e}");
                std::process::exit(2);
            }
        },
        None => None,
    };

    let started = Instant::now();
    nss_obs::status!(
        "repro: {} (fast={}, runs={}, seed={}{})",
        selected
            .iter()
            .map(|f| f.name)
            .collect::<Vec<_>>()
            .join(" "),
        ctx.fast,
        ctx.sim_runs(),
        ctx.seed,
        match (
            ctx.faults.is_empty(),
            matches!(ctx.medium, MediumBackend::UnitDisk),
        ) {
            (true, true) => String::new(),
            (false, true) => format!(", faults={}", ctx.faults.to_spec()),
            (true, false) => format!(", medium={}", ctx.medium.to_spec()),
            (false, false) => format!(
                ", faults={}, medium={}",
                ctx.faults.to_spec(),
                ctx.medium.to_spec()
            ),
        }
    );

    let timed: Vec<_> = selected
        .iter()
        .map(|fig| {
            let t0 = Instant::now();
            fig.run(&ctx);
            (fig.name.to_string(), t0.elapsed().as_secs_f64())
        })
        .collect();

    write_run_records(&ctx, timed, started.elapsed().as_secs_f64());

    if let Some(path) = &ctx.trace_out {
        match nss_obs::trace::write_chrome_trace(path) {
            Ok(()) => nss_obs::status!("  wrote {} (chrome://tracing format)", path.display()),
            Err(e) => {
                eprintln!("error: --trace-out {}: {e}", path.display());
                std::process::exit(2);
            }
        }
    }
    if let Some(mut server) = metrics_server {
        server.shutdown();
    }
    nss_obs::status!("\ndone in {:.1}s", started.elapsed().as_secs_f64());
}

/// `repro serve`: starts the query service and blocks until the process
/// is killed. Flags mirror [`nss_serve::ServeConfig`]; malformed input is
/// a usage error (exit 2), never a panic.
fn run_serve(args: &[String]) {
    let mut config = nss_serve::ServeConfig::default();
    let mut it = args.iter();
    let parse_fail = |flag: &str, v: &str| -> ! {
        eprintln!("error: {flag} got '{v}', expected a number");
        std::process::exit(2);
    };
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().map(String::as_str).unwrap_or_else(|| {
                eprintln!("error: {name} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--addr" => config.addr = value("--addr").to_string(),
            "--workers" => {
                let v = value("--workers");
                config.workers = v.parse().unwrap_or_else(|_| parse_fail("--workers", v));
            }
            "--shards" => {
                let v = value("--shards");
                config.shards = v.parse().unwrap_or_else(|_| parse_fail("--shards", v));
            }
            "--cache-bytes" => {
                let v = value("--cache-bytes");
                config.cache_bytes = v.parse().unwrap_or_else(|_| parse_fail("--cache-bytes", v));
            }
            "--quad-points" => {
                let v = value("--quad-points");
                config.quad_points = v.parse().unwrap_or_else(|_| parse_fail("--quad-points", v));
            }
            #[expect(clippy::print_stdout, reason = "help text is the command's output")]
            "--help" | "-h" => {
                println!(
                    "usage: repro serve [--addr HOST:PORT] [--workers N] [--shards N]\n                   \
                     [--cache-bytes N] [--quad-points N]\n\
                     Serves GET /v1/optimal-p, GET /v1/reachability, POST /v1/batch,\n\
                     plus /metrics, /metrics.json, /healthz. Blocks until killed."
                );
                return;
            }
            other => {
                eprintln!("error: unknown serve flag: {other}");
                std::process::exit(2);
            }
        }
    }
    let server = match nss_serve::QueryServer::start(&config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot serve on {}: {e}", config.addr);
            std::process::exit(2);
        }
    };
    if !nss_obs::enabled() {
        eprintln!("note: built without --features obs; /metrics will be empty");
    }
    eprintln!(
        "repro serve: http://{addr}/v1/optimal-p  (workers={workers}, shards={shards}, \
         cache {mib} MiB, quadrature {quad})",
        addr = server.addr(),
        workers = config.workers,
        shards = config.shards,
        mib = config.cache_bytes >> 20,
        quad = config.quad_points,
    );
    eprintln!(
        "endpoints: /v1/optimal-p /v1/reachability /v1/batch /metrics /metrics.json /healthz"
    );
    // Serve until the process is killed; worker threads own all the work.
    loop {
        std::thread::park();
    }
}

/// Parses flags and commands; any malformed flag is an `Err` (usage + exit
/// status 2 at the call site, never a panic).
fn parse_args(args: impl Iterator<Item = String>) -> Result<(Ctx, Vec<String>), String> {
    let mut ctx = Ctx::new();
    let mut commands = Vec::new();
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fast" => ctx.fast = true,
            "--quiet" => nss_obs::console::set_verbosity(nss_obs::console::QUIET),
            "--out" => {
                ctx.out_dir = args.next().ok_or("--out needs a directory")?.into();
            }
            "--runs" => {
                let v = args.next().ok_or("--runs needs a number")?;
                ctx.runs = v
                    .parse()
                    .map_err(|_| format!("--runs needs a number, got '{v}'"))?;
            }
            "--threads" => {
                let v = args.next().ok_or("--threads needs a number")?;
                ctx.threads = v
                    .parse()
                    .map_err(|_| format!("--threads needs a number, got '{v}'"))?;
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a number")?;
                ctx.seed = v
                    .parse()
                    .map_err(|_| format!("--seed needs a number, got '{v}'"))?;
            }
            "--faults" => {
                let v = args.next().ok_or("--faults needs a spec string")?;
                ctx.faults =
                    FaultPlan::parse_spec(&v).map_err(|e| format!("--faults spec '{v}': {e}"))?;
            }
            "--medium" => {
                let v = args.next().ok_or("--medium needs a spec string")?;
                ctx.medium = MediumBackend::parse_spec(&v)
                    .map_err(|e| format!("--medium spec '{v}': {e}"))?;
            }
            "--metrics-addr" => {
                ctx.metrics_addr = Some(args.next().ok_or("--metrics-addr needs HOST:PORT")?);
            }
            "--trace-out" => {
                ctx.trace_out = Some(args.next().ok_or("--trace-out needs a file path")?.into());
            }
            "--help" | "-h" => {
                print_usage();
                std::process::exit(0);
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag: {flag}"));
            }
            cmd => commands.push(cmd.to_string()),
        }
    }
    Ok((ctx, commands))
}

/// Expands groups and validates names against the registry.
fn select(commands: &[String]) -> Result<Vec<&'static FigureDef>, String> {
    if let Some(unknown) = commands
        .iter()
        .find(|c| !(*c == "all" || figures::is_group(c) || figures::find(c).is_some()))
    {
        return Err(unknown.clone());
    }
    // Registry (declaration) order, so figures that calibrate plateau and
    // budget targets run before the figures that consume them.
    Ok(figures::REGISTRY
        .iter()
        .filter(|f| {
            commands
                .iter()
                .any(|c| c == "all" || c == f.group || c == f.name)
        })
        .collect())
}

/// Emits the run's provenance next to its artifacts: `RUN_MANIFEST.json`
/// (config fingerprint, seed, per-command wall seconds, artifact hashes,
/// counter snapshot) and `OBS_METRICS.json` (full registry dump; all zeros
/// without `--features obs`). Both are written unconditionally —
/// provenance is not optional.
fn write_run_records(ctx: &Ctx, commands: Vec<(String, f64)>, wall_s: f64) {
    let mut manifest = nss_obs::manifest::RunManifest::new("repro", ctx.seed);
    manifest.wall_s = wall_s;
    manifest.config_entry("fast", ctx.fast);
    manifest.config_entry("runs", ctx.sim_runs());
    manifest.config_entry("threads", ctx.threads);
    manifest.config_entry("out_dir", ctx.out_dir.display());
    manifest.config_entry("faults", ctx.faults.to_spec());
    manifest.config_entry("medium", ctx.medium.to_spec());
    manifest.config_entry("obs_enabled", nss_obs::enabled());
    manifest.commands = commands;
    for path in ctx.artifacts() {
        manifest.add_artifact(&path);
    }
    manifest.capture_counters();
    let manifest_path = ctx.out_dir.join("RUN_MANIFEST.json");
    write_or_exit(&manifest_path, |path| manifest.write(path));
    nss_obs::status!("  wrote {}", manifest_path.display());

    let metrics_path = ctx.out_dir.join("OBS_METRICS.json");
    let metrics = nss_obs::export::json(nss_obs::registry::Registry::global());
    write_or_exit(&metrics_path, |path| std::fs::write(path, metrics));
    nss_obs::status!("  wrote {}", metrics_path.display());
}

/// `repro list`: every registered figure with its group and description.
#[expect(clippy::print_stdout, reason = "the listing is the command's output")]
fn print_list() {
    println!("{:<16} {:<10} description", "name", "group");
    for fig in figures::REGISTRY {
        println!("{:<16} {:<10} {}", fig.name, fig.group, fig.describe);
    }
    println!("\ngroups: analysis sim ext misc all");
}

#[expect(clippy::print_stdout, reason = "usage text is the CLI's output")]
fn print_usage() {
    // The registry is the one list of commands: group them in its order.
    let mut groups: Vec<(&str, Vec<&str>)> = Vec::new();
    for fig in figures::REGISTRY {
        match groups.iter_mut().find(|(g, _)| *g == fig.group) {
            Some((_, names)) => names.push(fig.name),
            None => groups.push((fig.group, vec![fig.name])),
        }
    }
    let mut commands = String::new();
    for (group, names) in groups {
        let mut line = format!("  {group:<10}");
        for name in names {
            if line.len() + name.len() > 78 {
                commands.push_str(line.trim_end());
                commands.push('\n');
                line = " ".repeat(12);
            }
            line.push_str(name);
            line.push(' ');
        }
        commands.push_str(line.trim_end());
        commands.push('\n');
    }
    println!(
        "usage: repro [--fast] [--quiet] [--out DIR] [--runs N] [--threads N] [--seed S]\n             \
         [--faults SPEC] [--medium SPEC] [--metrics-addr HOST:PORT] [--trace-out FILE]\n             \
         COMMAND...\n\
         commands, by group (a group name or `all` runs every figure in it):\n\
         {commands}  \
         list      print every registered figure with its description\n  \
         serve     run the HTTP query service (see `repro serve --help`)\n\
         fault spec: comma-separated, e.g. \"loss=0.2,dead=0.1,duty=3/5,budget=2,out=3:2-5\"\n\
         medium spec: \"unit-disk\" (default) or \"sinr[:alpha=A,beta=B,noise=N,kappa=K]\""
    );
}

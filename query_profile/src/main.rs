//! `query_profile`: one wall-clock benchmark of the mediator, end to end
//! and layer by layer. See `README.md` beside this package's manifest.
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1|2>` runs one
//!   workload in this process and prints one JSON object as the last line
//!   of standard output: the end-to-end metrics (`--trace 0`), the
//!   per-layer metrics (`--trace 1`) or both (`--trace 2`).
//! * Without `--workload` it runs every workload in a fresh child process
//!   (itself, with `--workload` and `--trace 2`), prints every metric as
//!   `workload name unit value` and writes `result.json` beside the trace
//!   files. `--smoke` shortens the run and checks that every metric named
//!   in `BENCHMARK.json` was emitted; `--repeat <k>` runs the suite `k`
//!   times and fails when an end-to-end metric moves by more than its
//!   bound.

mod alloc;
mod oracle;
mod passes;
mod server;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use disco_obs::Json;

use passes::{Metric, Tally, CLIENTS, SEGMENTS};
use workloads::{Kind, Workload, NAMES};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Set-ups per run; `setup_s` is their median. Three at least, and up to
/// fifteen while they have taken less than half a second together.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const CHEAP_SETUPS_S: f64 = 0.5;
/// `--seconds` of a full suite run, as `run_seconds` of `BENCHMARK.json`:
/// five 2.4 s segments.
const SUITE_SECONDS: f64 = 12.0;
/// `--seconds` under `--smoke`: five 0.3 s segments.
const SMOKE_SECONDS: f64 = 1.5;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: u8,
    smoke: bool,
    repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: 0,
        smoke: false,
        repeat: 1,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value `{v}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--seconds" => {
                let s: f64 = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?;
                if args.trace > 2 {
                    return Err("--trace takes 0, 1 or 2".into());
                }
            }
            "--smoke" => args.smoke = true,
            "--repeat" => {
                args.repeat = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// `<target>/query_profile/`: trace files, `result.json` and the disk
/// store's page files all stay inside the build directory.
fn out_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("executable has no target directory")?
        .join("query_profile");
    std::fs::create_dir_all(dir.join("tmp")).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn metrics_json<'m>(metrics: impl Iterator<Item = (&'m str, &'m str, f64)>) -> Json {
    Json::Obj(
        metrics
            .map(|(name, unit, value)| {
                let entry = Json::Obj(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), Json::Str(unit.to_string())),
                ]);
                (name.to_string(), entry)
            })
            .collect(),
    )
}

/// One workload in this process.
fn run_workload(name: &str, seed: u64, seconds: f64, trace: u8) -> Result<(), String> {
    let kind =
        Kind::parse(name).ok_or_else(|| format!("unknown workload `{name}`; one of {NAMES:?}"))?;
    let out = out_dir()?;
    // `disco-store` puts its page files in the temp directory; no thread
    // exists yet that could read the environment meanwhile.
    std::env::set_var("TMPDIR", out.join("tmp"));

    let w = Workload::new(kind, seed);
    let server_bin = match kind {
        Kind::ServeTcp => Some(server::build_server_binary()?),
        _ => None,
    };

    // A set-up of a few milliseconds is mostly thread start-up noise, so
    // cheap ones are repeated more often before the median is taken.
    let mut setups: Vec<f64> = Vec::new();
    let mut built = None;
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setups.iter().sum::<f64>() < CHEAP_SETUPS_S)
    {
        shut_down(built.take())?;
        let started = Instant::now();
        built = Some(w.set_up(server_bin.as_deref())?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let built = built.expect("at least one set-up");

    let mut tally = Tally::default();
    let mut metrics: Vec<Metric> = Vec::new();
    let (verified, t) = passes::verify(&w, &built)?;
    tally.add(t);
    if trace != 1 {
        let (timed, t) = passes::timed(&w, &built, seconds)?;
        tally.add(t);
        metrics.extend(timed);
        metrics.extend(verified);
        metrics.push(("setup_s", "s", stats::median(&setups)));
    }
    if trace != 0 {
        let file = out.join(format!("trace_{name}.json"));
        let (layers, t) = passes::traced(&w, &built, seconds, &file)?;
        tally.add(t);
        metrics.extend(layers);
    }
    shut_down(Some(built))?;

    for (name, unit, value) in &metrics {
        eprintln!("{name} {unit} {value}");
    }
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(tally.failed == 0)),
        ("attempted".into(), Json::Num(tally.attempted as f64)),
        ("failed".into(), Json::Num(tally.failed as f64)),
        ("metrics".into(), metrics_json(metrics.iter().copied())),
    ]);
    println!("{}", result.render());
    Ok(())
}

/// Stop a set-up system: the server child in an orderly way, the worker
/// threads of the in-process federation by dropping it (which joins them).
fn shut_down(built: Option<workloads::Built>) -> Result<(), String> {
    match built.and_then(|mut b| b.server.take()) {
        Some(server) => server.shutdown(),
        None => Ok(()),
    }
}

/// Metrics of one workload by name, as a child process reported them.
type Reported = BTreeMap<String, (String, f64)>;

fn run_child(name: &str, seed: u64, seconds: f64) -> Result<Reported, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", name, "--trace", "2"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {name}: {e}"))?;
    if !output.status.success() {
        return Err(format!("{name} exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{name} printed nothing"))?;
    let json = Json::parse(last).map_err(|e| format!("{name}: bad result line: {e}"))?;
    let failed = json.get("failed").and_then(Json::as_u64);
    if json.get("correct") != Some(&Json::Bool(true)) || failed != Some(0) {
        return Err(format!(
            "{name}: {failed:?} of {:?} queries failed",
            json.get("attempted")
        ));
    }
    let Some(Json::Obj(members)) = json.get("metrics") else {
        return Err(format!("{name}: result has no metrics"));
    };
    members
        .iter()
        .map(|(metric, entry)| {
            let unit = entry.get("unit").and_then(Json::as_str);
            let value = entry.get("value").and_then(Json::as_f64);
            match (unit, value) {
                (Some(unit), Some(value)) => Ok((metric.clone(), (unit.to_string(), value))),
                _ => Err(format!("{name}: malformed metric `{metric}`")),
            }
        })
        .collect()
}

/// Every metric `BENCHMARK.json` (in the working directory) names, with
/// its bound when it is an end-to-end metric.
fn listed_metrics() -> Result<Vec<(String, Option<f64>)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut listed = Vec::new();
    for key in ["end_to_end", "per_layer"] {
        let metrics = json
            .get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json has no `{key}` list"))?;
        for m in metrics {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("BENCHMARK.json: unnamed metric in `{key}`"))?;
            listed.push((name.to_string(), m.get("bound").and_then(Json::as_f64)));
        }
    }
    Ok(listed)
}

/// Every workload, each in a fresh child process.
fn run_suite(args: &Args) -> Result<(), String> {
    let seconds = args.seconds.unwrap_or(if args.smoke {
        SMOKE_SECONDS
    } else {
        SUITE_SECONDS
    });
    let listed = listed_metrics()?;
    let mut runs: Vec<BTreeMap<&str, Reported>> = Vec::new();
    for rep in 0..args.repeat {
        let mut run = BTreeMap::new();
        for name in NAMES {
            let reported = run_child(name, args.seed, seconds)?;
            for (metric, (unit, value)) in &reported {
                println!("{name} {metric} {unit} {value}");
            }
            if args.smoke {
                let missing: Vec<&String> = listed
                    .iter()
                    .map(|(n, _)| n)
                    .filter(|n| !reported.contains_key(*n))
                    .collect();
                let unlisted: Vec<&String> = reported
                    .keys()
                    .filter(|n| !listed.iter().any(|(l, _)| l == *n))
                    .collect();
                if !(missing.is_empty() && unlisted.is_empty()) {
                    return Err(format!(
                        "{name}: not emitted {missing:?}, not in BENCHMARK.json {unlisted:?}"
                    ));
                }
            }
            run.insert(name, reported);
        }
        if rep + 1 < args.repeat {
            println!();
        }
        runs.push(run);
    }

    let result = Json::Obj(vec![
        ("seed".into(), Json::Num(args.seed as f64)),
        (
            "nproc".into(),
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("clients".into(), Json::Num(CLIENTS as f64)),
        ("seconds".into(), Json::Num(seconds)),
        ("segments".into(), Json::Num(SEGMENTS as f64)),
        ("segment_s".into(), Json::Num(seconds / SEGMENTS as f64)),
        ("warm_up_s".into(), Json::Num(passes::warm_up_s(seconds))),
        (
            "runs".into(),
            Json::Arr(
                runs.iter()
                    .map(|run| {
                        Json::Obj(
                            run.iter()
                                .map(|(name, reported)| {
                                    let metrics = reported.iter().map(|(m, (unit, value))| {
                                        (m.as_str(), unit.as_str(), *value)
                                    });
                                    (name.to_string(), metrics_json(metrics))
                                })
                                .collect(),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    let file = out_dir()?.join("result.json");
    std::fs::write(&file, result.render()).map_err(|e| format!("{}: {e}", file.display()))?;
    println!("wrote {}", file.display());

    if runs.len() < 2 {
        return Ok(());
    }
    // Two runs of one commit must agree on every gated metric.
    let mut apart = Vec::new();
    for name in NAMES {
        for (metric, bound) in &listed {
            let Some(bound) = bound else { continue };
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|run| Some(run[name].get(metric)?.1))
                .collect();
            if values.len() < runs.len() {
                return Err(format!("{name} did not report {metric} in every run"));
            }
            let (lo, hi) = values.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), v| {
                (lo.min(*v), hi.max(*v))
            });
            let moved = (hi - lo) / lo;
            println!("{name} {metric} spread {moved:.4} bound {bound}");
            if moved > *bound {
                apart.push(format!("{name} {metric}"));
            }
        }
    }
    if apart.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "runs of one commit differ by more than the bound on: {apart:?}"
        ))
    }
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| match &args.workload {
        Some(name) => run_workload(
            name,
            args.seed,
            args.seconds.unwrap_or(SUITE_SECONDS),
            args.trace,
        ),
        None => run_suite(&args),
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("query_profile: {e}");
            ExitCode::FAILURE
        }
    }
}

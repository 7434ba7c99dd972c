//! `loadbench`: the repo's benchmark. One invocation is one run of one
//! workload in a fresh process:
//!
//! ```text
//! loadbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! prints a metric table on stderr and, as the last line of stdout, one
//! JSON object `{correct, attempted, failed, metrics}` — the end-to-end
//! metrics with `--trace 0`, the per-layer ones with `--trace 1`. The
//! `all`, `trace` and `repeat` subcommands run that same invocation in
//! child processes; see the README beside this package.

mod harness;
mod replay;
mod report;
mod stats;
mod trace;
mod workloads;

use bluedove::bench_support::json::{self, Json};
use report::Outcome;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Inputs, Workload, WORKLOADS};

const DEFAULT_SEED: u64 = 77;
const DEFAULT_SECONDS: f64 = 20.0;
/// `--quick`: capacity windows of about a second, for a CI smoke step.
const QUICK_SECONDS: f64 = 10.0;

const USAGE: &str = "usage:
  loadbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
  loadbench all    [--seed <n>] [--seconds <s>] [--quick]
  loadbench trace  --workload <name> [--seed <n>] [--seconds <s>] [--quick]
  loadbench repeat --sets <n> [--seed <n>] [--seconds <s>] [--quick]
workloads: bare_forward selective_match fanout_reactor churn_durable";

/// Everything the harness writes goes under the package's `out/`.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    mode: String,
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sets: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        mode: "run".to_string(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        sets: 2,
    };
    let mut it = argv.iter().peekable();
    if let Some(first) = it.peek().filter(|a| !a.starts_with("--")) {
        args.mode = first.to_string();
        it.next();
    }
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            args.seconds = QUICK_SECONDS;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot read {value:?}");
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(
                    workloads::by_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--sets" => args.sets = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 1.0) {
        return Err("--seconds must be at least 1".to_string());
    }
    if args.mode == "trace" {
        args.trace = true;
    }
    match args.mode.as_str() {
        "run" | "trace" if args.workload.is_none() => Err("--workload is required".to_string()),
        "run" | "trace" | "all" => Ok(args),
        "repeat" if args.sets >= 2 => Ok(args),
        "repeat" => Err("--sets must be at least 2".to_string()),
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

/// One run in this process.
fn run_one(w: &'static Workload, args: &Args) -> Result<Outcome, String> {
    let out = out_dir();
    let tmp = harness::TmpDir::create(&out)?;
    let inputs = Inputs::generate(w, args.seed);
    let plan = harness::Plan::new(args.seconds, args.trace);
    let run = harness::run(w, &inputs, &plan, tmp.path())?;
    let metrics = if args.trace {
        let mut values = report::live_values(&run);
        let capacity = stats::median(&run.untraced_rates);
        values.extend(replay::all(w, args.seed, &inputs, capacity, tmp.path()));
        let path = out.join(format!("trace_{}.jsonl", w.name));
        trace::write_jsonl(&path, &run.spans).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("{} spans in {}", run.spans.len(), path.display());
        report::per_layer(values)
    } else {
        report::end_to_end(&run)
    };
    let tail = stats::top_percentile(run.paced_lat.0.len());
    eprintln!(
        "paced latency over {} publications: p50 {:.1} us, p{tail} {:.1} us",
        run.paced_lat.0.len(),
        run.paced_lat.pct_us(50.0),
        run.paced_lat.pct_us(tail)
    );
    if run.paced_reruns > 0 {
        eprintln!("note: the paced phase ran twice (generator lag)");
    }
    Ok(Outcome {
        workload: w.name,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        attempted: run.attempted,
        failed: run.failed,
        failures: run.failures,
        metrics,
    })
}

fn run_file(workload: &str, trace: bool) -> PathBuf {
    out_dir().join(format!("run_{workload}_trace{}.json", u8::from(trace)))
}

fn write_report(path: &Path, runs: Vec<Json>) -> Result<(), String> {
    let doc = report::report(runs)?;
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(path, doc.pretty()))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn single(w: &'static Workload, args: &Args) -> ExitCode {
    let outcome = match run_one(w, args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("loadbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("{}: {}", w.name, w.why);
    eprintln!(
        "{} seed {} {} s trace {} on {} cores",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    eprint!("{}", report::table(&outcome.metrics));
    if args.trace {
        eprint!("{}", report::stage_table(&outcome.metrics));
    }
    for f in &outcome.failures {
        eprintln!("FAILED: {f}");
    }
    if let Err(e) = write_report(&run_file(w.name, args.trace), vec![outcome.report_entry()]) {
        eprintln!("loadbench: {e}");
        return ExitCode::FAILURE;
    }
    println!("{}", outcome.result_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in a child process; returns its result object.
fn child(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{}: no result line ({})", w.name, output.status))?;
    let doc = json::parse(line).map_err(|e| format!("{}: result line: {e}", w.name))?;
    if !output.status.success() || doc.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{} seed {seed}: run failed or incorrect", w.name));
    }
    Ok(doc)
}

/// Every workload, untraced then traced, merged into `out/report.json`.
fn all(args: &Args) -> ExitCode {
    let mut runs = Vec::new();
    let mut ok = true;
    for w in &WORKLOADS {
        for trace in [false, true] {
            if let Err(e) = child(w, args.seed, args.seconds, trace) {
                eprintln!("loadbench: {e}");
                ok = false;
            }
            let text = std::fs::read_to_string(run_file(w.name, trace)).unwrap_or_default();
            if let Some(entries) = json::parse(&text)
                .ok()
                .and_then(|d| d.get("runs").and_then(Json::as_arr).map(<[Json]>::to_vec))
            {
                runs.extend(entries);
            }
        }
    }
    let path = out_dir().join("report.json");
    match write_report(&path, runs) {
        Ok(()) => eprintln!("report: {}", path.display()),
        Err(e) => {
            eprintln!("loadbench: {e}");
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The regression bound of each end-to-end metric, from `BENCHMARK.json`.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text)?;
    let metrics = doc.get("end_to_end").and_then(Json::as_arr).unwrap_or(&[]);
    metrics
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            name.map(str::to_string)
                .zip(bound)
                .ok_or_else(|| "BENCHMARK.json: end_to_end entry without name or bound".to_string())
        })
        .collect()
}

/// `--sets` untraced runs per workload on consecutive seeds; prints each
/// end-to-end metric's run-to-run spread beside its bound and fails when a
/// spread is wider than the bound. With four or more sets the spread is
/// the interquartile range over the median (the driver's rule); with
/// fewer, the full range over the median.
fn repeat(args: &Args) -> ExitCode {
    let bounds = match bounds() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("loadbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut lines = Vec::new();
    for w in &WORKLOADS {
        let mut results = Vec::new();
        for set in 0..args.sets as u64 {
            match child(w, args.seed + set, args.seconds, false) {
                Ok(doc) => results.push(doc),
                Err(e) => {
                    eprintln!("loadbench: {e}");
                    ok = false;
                }
            }
        }
        for (name, bound) in &bounds {
            let values: Vec<f64> = results
                .iter()
                .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64())
                .collect();
            if values.len() < 2 {
                continue;
            }
            let median = stats::median(&values);
            let spread = if values.len() >= 4 {
                stats::iqr_spread(&values)
            } else {
                let (lo, hi) = values
                    .iter()
                    .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
                (hi - lo) / median
            };
            // Set-up time is gated on its median only, not its spread.
            let verdict = match (spread <= *bound, name == "setup_s") {
                (true, _) => "ok",
                (false, true) => "wide (not gated)",
                (false, false) => {
                    ok = false;
                    "WIDER THAN BOUND"
                }
            };
            lines.push(format!(
                "{:<16} {:<16} {:>14.3} {:>8.4} {:>6.2}  {verdict}",
                w.name, name, median, spread, bound
            ));
        }
    }
    println!(
        "{:<16} {:<16} {:>14} {:>8} {:>6}",
        "workload", "metric", "median", "spread", "bound"
    );
    for l in lines {
        println!("{l}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loadbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.mode.as_str() {
        "all" => all(&args),
        "repeat" => repeat(&args),
        _ => single(args.workload.expect("checked by parse_args"), &args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_contract_invocation_parses() {
        let a = parse_args(&argv(
            "--workload churn_durable --seed 9 --seconds 15 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.mode, "run");
        assert_eq!(a.workload.unwrap().name, "churn_durable");
        assert_eq!((a.seed, a.seconds, a.trace), (9, 15.0, true));
    }

    #[test]
    fn subcommands_and_their_defaults() {
        let a = parse_args(&argv("all --quick")).unwrap();
        assert_eq!(
            (a.mode.as_str(), a.seed, a.seconds),
            ("all", DEFAULT_SEED, QUICK_SECONDS)
        );
        let a = parse_args(&argv("trace --workload bare_forward")).unwrap();
        assert!(a.trace);
        assert_eq!(parse_args(&argv("repeat --sets 5")).unwrap().sets, 5);
    }

    #[test]
    fn bad_input_is_refused() {
        for bad in [
            "",
            "--workload nope",
            "--workload bare_forward --trace 2",
            "--workload bare_forward --seconds 0",
            "--workload bare_forward --seed",
            "repeat --sets 1",
            "frobnicate",
            "all --bogus 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }
}

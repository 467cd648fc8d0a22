//! One benchmark for time-to-smoothed-mesh.
//!
//! ```text
//! lms-perfbench --workload <suite-rdr|grid-resident|tet-dist> --seed <n>
//!               --seconds <s> --trace <0|1> [--out <dir>]
//!               [--ref-quality M1:<q>,M6:<q> --quality-tol <t>]
//!               [--git-rev <rev>] [--rustc <version>]
//! ```
//!
//! Generates the workload's mesh from the seed, checks the pipeline's
//! output against the workload's oracle, then repeats the timed pipeline
//! for `--seconds`. With `--trace 0` it reports the end-to-end metrics,
//! with `--trace 1` the per-layer metrics of a traced run (alternating
//! traced and untraced repetitions) plus a validated chrome trace. The
//! last line of standard output is the JSON result; a full record with
//! the host manifest and every sample summary goes to `--out`.
//! `perfbench/run.py` builds and runs this binary.

mod grid;
mod harness;
mod host;
mod layers;
mod report;
mod stats;
mod suite;
mod tet;
mod tracer;

use harness::{Config, Outcome, Tally};
use report::{metric_json, per_layer_metrics, Json, Metric, END_TO_END};
use stats::median;
use std::path::PathBuf;

const WORKLOADS: [&str; 3] = ["suite-rdr", "grid-resident", "tet-dist"];

struct Args {
    workload: String,
    cfg: Config,
    out: PathBuf,
    git_rev: String,
    rustc: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut cfg =
        Config { seed: 0, seconds: 10.0, trace: false, ref_quality: Vec::new(), quality_tol: 0.0 };
    let mut out = PathBuf::from("perfbench/results");
    let mut git_rev = "unknown".to_string();
    let mut rustc = "unknown".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<f64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => cfg.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => cfg.seconds = num(&value)?,
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--out" => out = PathBuf::from(value),
            "--git-rev" => git_rev = value,
            "--rustc" => rustc = value,
            "--quality-tol" => cfg.quality_tol = num(&value)?,
            "--ref-quality" => {
                for pair in value.split(',') {
                    let (label, q) = pair
                        .split_once(':')
                        .ok_or_else(|| format!("--ref-quality entry {pair:?} is not LABEL:Q"))?;
                    cfg.ref_quality.push((label.to_string(), num(q)?));
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; expected one of {WORKLOADS:?}"));
    }
    if !(cfg.seconds > 0.0 && cfg.seconds <= 120.0) {
        return Err(format!("--seconds {} is outside (0, 120]", cfg.seconds));
    }
    Ok(Args { workload, cfg, out, git_rev, rustc })
}

/// The end-to-end metrics of the untraced repetitions.
fn end_to_end(untraced: &Tally, all: (u64, u64)) -> Vec<Metric> {
    let reps = &untraced.reps;
    let col = |f: &dyn Fn(&harness::Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let (attempted, failed) = all;
    let mut out = Vec::new();
    for &(name, unit) in END_TO_END {
        let xs = match name {
            "total_s" => col(&|r| r.setup_s + r.solve_s),
            "setup_s" => col(&|r| r.setup_s),
            "solve_s" => col(&|r| r.solve_s),
            "vertex_updates_per_s" => col(&|r| r.updates / r.solve_s),
            "peak_rss_mb" => {
                out.push(Metric::single(name, unit, host::peak_rss_mb().unwrap_or(0.0)));
                continue;
            }
            "pass_ratio" => {
                let ratio = (attempted - failed) as f64 / attempted.max(1) as f64;
                out.push(Metric::single(name, unit, ratio));
                continue;
            }
            other => unreachable!("no rule for end-to-end metric {other}"),
        };
        out.push(if xs.is_empty() {
            Metric::single(name, unit, 0.0)
        } else {
            Metric::from_samples(name, unit, &xs)
        });
    }
    out
}

fn print_metric(m: &Metric) {
    match m.summary {
        Some(s) => println!(
            "{:<38} {:>14.6} {:<9} (median of n={}, q1 {:.6}, q3 {:.6})",
            m.name, m.value, m.unit, s.n, s.q1, s.q3
        ),
        None if !m.exercised => {
            println!("{:<38} {:>14} {:<9} (not exercised by this workload)", m.name, 0, m.unit)
        }
        None => println!("{:<38} {:>14.6} {:<9}", m.name, m.value, m.unit),
    }
}

fn run(args: &Args) -> Result<(), String> {
    let cfg = &args.cfg;
    let outcome: Outcome = match args.workload.as_str() {
        "suite-rdr" => suite::run(cfg)?,
        "grid-resident" => grid::run(cfg)?,
        "tet-dist" => tet::run(cfg)?,
        _ => unreachable!("workload validated in parse_args"),
    };
    let Outcome { params, output, runs } = outcome;
    let harness::Runs { untraced, traced, mut samples, tracer } = runs;
    let attempted = untraced.attempted + traced.attempted;
    let failed = untraced.failed + traced.failed;
    let mut correct = failed == 0;

    let manifest = Json::obj([
        ("workload", Json::str(&args.workload)),
        ("seed", Json::Int(cfg.seed)),
        ("seconds", Json::Num(cfg.seconds)),
        ("trace", Json::Bool(cfg.trace)),
        ("cores", Json::Int(host::cores() as u64)),
        ("simd", Json::str(host::simd_path())),
        ("git_rev", Json::str(&args.git_rev)),
        ("rustc", Json::str(&args.rustc)),
        ("os", Json::str(std::env::consts::OS)),
        ("arch", Json::str(std::env::consts::ARCH)),
        ("params", Json::obj(params)),
    ]);
    println!("manifest {manifest}");

    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let mut extra = Vec::new();
    let metrics = if cfg.trace {
        let totals: Vec<f64> = untraced.reps.iter().map(|r| r.setup_s + r.solve_s).collect();
        let traced_total = median(samples.get("trace.traced_total_s").unwrap_or(&[]));
        for &t in &totals {
            samples.push("trace.untraced_total_s", t);
        }
        samples.push("trace.overhead_ratio", traced_total / median(&totals));

        let path = args.out.join(format!("{}-seed{}.trace.json", args.workload, cfg.seed));
        std::fs::write(&path, tracer.chrome_json())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        match lms_trace::validate_chrome_trace(&text) {
            Ok(events) => {
                println!("chrome trace {} ({events} events) validates", path.display());
                extra.push(("chrome_trace", Json::str(path.display().to_string())));
                extra.push(("chrome_trace_events", Json::Int(events as u64)));
            }
            Err(e) => {
                println!("chrome trace {} is invalid: {e}", path.display());
                correct = false;
            }
        }
        per_layer_metrics(&samples)
    } else {
        end_to_end(&untraced, (attempted, failed))
    };
    for m in &metrics {
        print_metric(m);
    }
    for why in untraced.failures.iter().chain(&traced.failures) {
        println!("failed repetition: {why}");
    }

    let failures: Vec<Json> =
        untraced.failures.iter().chain(&traced.failures).map(|f| Json::str(f.as_str())).collect();
    let mut record = vec![
        ("manifest", manifest),
        (
            "estimator",
            Json::str(
                "median over repetitions; q1/q3 as Python statistics.quantiles(n=4); \
                 counts and static figures are single values",
            ),
        ),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        ("failures", Json::Arr(failures)),
        ("output", output),
        ("metrics", Json::obj(metrics.iter().map(|m| (m.name, metric_json(m))))),
        (
            "reps",
            Json::Arr(
                untraced
                    .reps
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("setup_s", Json::Num(r.setup_s)),
                            ("solve_s", Json::Num(r.solve_s)),
                            ("updates", Json::Num(r.updates)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    record.extend(extra);
    let stem = format!("{}-seed{}-trace{}", args.workload, cfg.seed, u8::from(cfg.trace));
    let path = args.out.join(format!("{stem}.json"));
    std::fs::write(&path, Json::obj(record).to_string() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;

    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|m| {
                (m.name, Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]))
            })),
        ),
    ]);
    println!("{result}");
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lms-perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("lms-perfbench: {e}");
        std::process::exit(1);
    }
}

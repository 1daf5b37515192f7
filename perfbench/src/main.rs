//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one named workload (see `README.md`) for about `--seconds` seconds,
//! each repetition in a child process of its own (the harness installs one
//! process-wide execution context, first caller wins), checks every cell's
//! simulated statistics, and prints one JSON object as its last line of
//! standard output: end-to-end metrics with `--trace 0`, per-layer metrics
//! with `--trace 1`. A human-readable table goes to standard error.

mod host;
mod ledger;
mod measure;
mod stats;
mod summary;
mod traced;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use measure::ChildReport;
use summary::{END_TO_END, PER_LAYER};
use workloads::Workload;

/// Pinned per-cell statistics digests: `<workload> <seed> <digest>...`.
const PINNED: &str = include_str!("../data/digests.txt");
/// Work directory, relative to the directory the benchmark runs from.
const WORK_DIR: &str = ".perfbench";
/// Leading repetitions of each kind that warm the host up: their results
/// are checked but their timings are not reported.
const WARMUP_REPS: usize = 1;
/// Fewest repetitions of each kind in one run, warm-up included, whatever
/// `--seconds` says.
const MIN_REPS: usize = WARMUP_REPS + 3;

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       perfbench pin --workload <name> --seeds <a>-<b>",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = match args.first().map(String::as_str) {
        Some("child") => ("child", &args[1..]),
        Some("pin") => ("pin", &args[1..]),
        _ => ("run", &args[..]),
    };
    let Some(opts) = parse_opts(rest) else {
        return usage();
    };
    let Some(workload) = opts.get("workload").and_then(|w| Workload::from_name(w)) else {
        return usage();
    };
    match mode {
        "child" => {
            let (Some(seed), Some(traced), Some(dir)) = (
                opts.get("seed").and_then(|s| s.parse().ok()),
                opts.get("traced").map(|t| t == "1"),
                opts.get("dir"),
            ) else {
                return usage();
            };
            let trace_out = opts.get("trace-out").map(PathBuf::from);
            let cold_check = opts.get("cold-check").is_some_and(|c| c == "1");
            let report = measure::child(
                workload,
                seed,
                traced,
                Path::new(dir),
                trace_out.as_deref(),
                cold_check,
            );
            print!("{}", report.to_lines());
            ExitCode::SUCCESS
        }
        "pin" => {
            let Some((a, b)) = opts.get("seeds").and_then(|s| {
                let (a, b) = s.split_once('-')?;
                Some((a.parse::<u64>().ok()?, b.parse::<u64>().ok()?))
            }) else {
                return usage();
            };
            for seed in a..=b {
                let dir = run_dir().join(format!("pin-{seed}"));
                match spawn_child(workload, seed, false, &dir, None, false) {
                    Ok(r) => println!("{} {seed} {}", workload.name(), r.digests.join(" ")),
                    Err(e) => {
                        eprintln!("seed {seed}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            let _ = std::fs::remove_dir_all(run_dir());
            ExitCode::SUCCESS
        }
        _ => {
            let (Some(seed), Some(seconds), Some(trace)) = (
                opts.get("seed").and_then(|s| s.parse::<u64>().ok()),
                opts.get("seconds")
                    .and_then(|s| s.parse::<f64>().ok())
                    .filter(|s| *s > 0.0),
                opts.get("trace")
                    .filter(|t| *t == "0" || *t == "1")
                    .map(|t| t == "1"),
            ) else {
                return usage();
            };
            run(workload, seed, seconds, trace)
        }
    }
}

fn parse_opts(args: &[String]) -> Option<BTreeMap<String, String>> {
    let mut opts = BTreeMap::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let k = k.strip_prefix("--")?;
        opts.insert(k.to_string(), it.next()?.clone());
    }
    Some(opts)
}

fn run_dir() -> PathBuf {
    Path::new(WORK_DIR).join(format!("run-{}", std::process::id()))
}

/// Runs one repetition of the workload in a child process and parses its
/// report. The child's work directory is removed afterwards.
fn spawn_child(
    workload: Workload,
    seed: u64,
    traced: bool,
    dir: &Path,
    trace_out: Option<&Path>,
    cold_check: bool,
) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let _ = std::fs::remove_dir_all(dir);
    let mut cmd = Command::new(exe);
    cmd.args([
        "child",
        "--workload",
        workload.name(),
        "--seed",
        &seed.to_string(),
    ])
    .args(["--traced", if traced { "1" } else { "0" }])
    .args(["--cold-check", if cold_check { "1" } else { "0" }])
    .arg("--dir")
    .arg(dir);
    if let Some(p) = trace_out {
        cmd.arg("--trace-out").arg(p);
    }
    let before = host::probe();
    let out = cmd
        .output()
        .map_err(|e| format!("starting a repetition: {e}"))?;
    let after = host::probe();
    let _ = std::fs::remove_dir_all(dir);
    if !out.status.success() {
        return Err(format!(
            "repetition exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let mut report = ChildReport::parse(&String::from_utf8_lossy(&out.stdout))?;
    report.slowdown = host::slowdown(before, after);
    Ok(report)
}

/// The pinned digests of a workload and seed, if any.
fn pinned(workload: Workload, seed: u64) -> Option<Vec<String>> {
    PINNED.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        (f.next()? == workload.name() && f.next()?.parse::<u64>().ok()? == seed)
            .then(|| f.map(str::to_string).collect())
    })
}

fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> ExitCode {
    let start = Instant::now();
    let dir = run_dir();
    let trace_out = Path::new(WORK_DIR).join(format!("trace-{}-s{seed}.json", workload.name()));
    let mut untraced: Vec<ChildReport> = Vec::new();
    let mut traced: Vec<ChildReport> = Vec::new();
    let mut problems: Vec<String> = Vec::new();
    let mut rep = 0usize;
    // Repetitions that crashed or printed no report: all their cells failed.
    let mut failed_reps = 0u64;
    let mut last_round = 0.0f64;
    loop {
        let round = Instant::now();
        let plain = spawn_child(
            workload,
            seed,
            false,
            &dir.join(format!("r{rep}")),
            None,
            rep == 0,
        );
        let tr = if trace {
            Some(spawn_child(
                workload,
                seed,
                true,
                &dir.join(format!("t{rep}")),
                Some(&trace_out),
                false,
            ))
        } else {
            None
        };
        for (outcome, reports) in [(Some(plain), &mut untraced), (tr, &mut traced)] {
            match outcome {
                Some(Ok(r)) => reports.push(r),
                Some(Err(e)) => {
                    problems.push(e);
                    failed_reps += 1;
                }
                None => {}
            }
        }
        rep += 1;
        last_round = last_round.max(round.elapsed().as_secs_f64());
        let elapsed = start.elapsed().as_secs_f64();
        if !problems.is_empty() || (rep >= MIN_REPS && elapsed + last_round > seconds) {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(WORK_DIR);
    if untraced.is_empty() || (trace && traced.is_empty()) {
        for p in &problems {
            eprintln!("perfbench: {p}");
        }
        return ExitCode::FAILURE;
    }

    let pinned = pinned(workload, seed);
    let mut verdict = summary::check(&untraced, &traced, pinned.as_deref(), &mut problems);
    let lost = failed_reps * untraced[0].attempted;
    verdict.attempted += lost;
    verdict.failed += lost;
    // A run cut short by a failed check may hold fewer than the warm-up.
    let warm = |reps: &[ChildReport]| WARMUP_REPS.min(reps.len().saturating_sub(1));
    let (untraced, traced) = (&untraced[warm(&untraced)..], &traced[warm(&traced)..]);
    let metrics = if trace {
        summary::per_layer(untraced, traced)
    } else {
        summary::end_to_end(untraced)
    };
    let specs = if trace { PER_LAYER } else { END_TO_END };
    summary::print_table(
        workload,
        seed,
        untraced,
        traced,
        &metrics,
        specs,
        pinned.is_some(),
    );
    for p in &problems {
        eprintln!("perfbench: FAILED CHECK: {p}");
    }
    let correct = problems.is_empty();
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        verdict.attempted, verdict.failed
    );
    let body: Vec<String> = specs
        .iter()
        .map(|(name, unit)| {
            let v = metrics.get(*name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    json.push_str(&body.join(", "));
    json.push_str("}}");
    println!("{json}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

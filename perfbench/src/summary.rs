//! The parent's side: checks across repetitions, the reported metrics and
//! the human-readable table.

use std::collections::BTreeMap;

use crate::measure::{largest_layer, ChildReport};
use crate::stats::{iqr_share, median, percentile, quartiles, tail_percentile};
use crate::workloads::Workload;

/// End-to-end metrics, measured untraced: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("mcyc_per_s", "Mcyc/s"),
    ("cell_p50_ms", "ms"),
    ("cell_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_latency_cyc", "cycles"),
    ("sim_latency_p99_cyc", "cycles"),
    ("sim_flits_norm", "ratio"),
    ("sim_quality", "ratio"),
    ("sim_throughput_fpnc", "flits/node/cyc"),
];

/// Per-layer metrics, from the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("traffic.tick_s", "s"),
    ("traffic.injections", "count"),
    ("traffic.data_share", "ratio"),
    ("codec.encode_s", "s"),
    ("codec.encode_calls", "count"),
    ("codec.encode_ns_per_block", "ns"),
    ("codec.decode_s", "s"),
    ("codec.decode_calls", "count"),
    ("codec.decode_ns_per_block", "ns"),
    ("codec.encoded_word_share", "ratio"),
    ("codec.table_searches", "count"),
    ("codec.hits_per_search", "ratio"),
    ("codec.baseline.encode_ns_per_block", "ns"),
    ("codec.fp-comp.encode_ns_per_block", "ns"),
    ("codec.fp-vaxx.encode_ns_per_block", "ns"),
    ("codec.di-comp.encode_ns_per_block", "ns"),
    ("codec.di-vaxx.encode_ns_per_block", "ns"),
    ("codec.lz-vaxx.encode_ns_per_block", "ns"),
    ("noc.enqueue_s", "s"),
    ("noc.step_s", "s"),
    ("noc.step_ns_per_cycle", "ns"),
    ("noc.router_events", "count"),
    ("noc.ns_per_router_event", "ns"),
    ("noc.link_utilization", "ratio"),
    ("noc.outstanding_peak", "count"),
    ("noc.snapshot_save_s", "s"),
    ("noc.snapshot_restore_s", "s"),
    ("noc.snapshot_bytes", "bytes"),
    ("stage.warmup_s", "s"),
    ("stage.measure_s", "s"),
    ("stage.drain_s", "s"),
    ("stage.forked_share", "ratio"),
    ("exec.busy_share", "ratio"),
    ("exec.overhead_s", "s"),
    ("exec.slowest_cell_s", "s"),
    ("exec.cache_hit_share", "ratio"),
    ("exec.cache_get_s", "s"),
    ("exec.cache_put_s", "s"),
    ("exec.cache_bytes", "bytes"),
    ("persist.encode_us", "us"),
    ("persist.decode_us", "us"),
    ("layer.exec_share", "ratio"),
    ("layer.runner_share", "ratio"),
    ("layer.traffic_share", "ratio"),
    ("layer.codec_share", "ratio"),
    ("layer.noc_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.coverage_share", "ratio"),
    ("work.cycles", "count"),
    ("work.link_traversals", "count"),
    ("work.words_encoded", "count"),
    ("work.forked_cells", "count"),
    ("work.cached_cells", "count"),
];

/// Work counters that must agree between the traced and untraced runs.
const SHARED_COUNTS: [&str; 8] = [
    "cycles",
    "forked_cells",
    "cached_cells",
    "executed_cells",
    "router_events",
    "link_traversals",
    "words_encoded",
    "table_searches",
];

/// Cells whose digests differ between two plan-ordered lists, counting
/// cells missing from the shorter one.
fn mismatched(a: &[String], b: &[String]) -> usize {
    a.iter().zip(b).filter(|(x, y)| x != y).count() + a.len().abs_diff(b.len())
}

/// The outcome of the parent's checks.
pub struct Verdict {
    /// Cells attempted over every repetition.
    pub attempted: u64,
    /// Cells that failed or whose statistics were wrong.
    pub failed: u64,
}

/// Cross-checks the repetitions: every repetition's digests and counters
/// equal the first's, traced equals untraced, and the digests equal the
/// pinned ones when the seed is pinned. Appends failed checks to
/// `problems`.
pub fn check(
    untraced: &[ChildReport],
    traced: &[ChildReport],
    pinned: Option<&[String]>,
    problems: &mut Vec<String>,
) -> Verdict {
    let mut attempted = 0;
    let mut failed = 0;
    let first = &untraced[0];
    for (kind, reps) in [("untraced", untraced), ("traced", traced)] {
        for (i, r) in reps.iter().enumerate() {
            attempted += r.attempted;
            failed += r.failed;
            problems.extend(
                r.problems
                    .iter()
                    .map(|p| format!("{kind} repetition {i}: {p}")),
            );
            let bad = mismatched(&r.digests, &first.digests);
            if bad > 0 {
                problems.push(format!(
                    "{kind} repetition {i}: {bad} cell digest(s) differ from untraced repetition 0"
                ));
                failed += bad as u64;
            }
            if r.sim
                .iter()
                .map(|(k, v)| (k, v.to_bits()))
                .ne(first.sim.iter().map(|(k, v)| (k, v.to_bits())))
            {
                problems.push(format!(
                    "{kind} repetition {i}: simulated metrics differ from untraced repetition 0"
                ));
            }
            let reference = if kind == "traced" {
                &traced[0].counts
            } else {
                &first.counts
            };
            if r.counts != *reference {
                problems.push(format!(
                    "{kind} repetition {i}: work counters differ between repetitions"
                ));
            }
            for k in SHARED_COUNTS {
                if r.counts.get(k) != first.counts.get(k) {
                    problems.push(format!(
                        "{kind} repetition {i}: counter {k} = {:?}, untraced {:?}",
                        r.counts.get(k),
                        first.counts.get(k)
                    ));
                }
            }
        }
    }
    if let Some(pin) = pinned {
        let bad = mismatched(&first.digests, pin);
        if bad > 0 {
            problems.push(format!(
                "{bad} cell digest(s) differ from the pinned digests"
            ));
            failed += bad as u64;
        }
    }
    Verdict { attempted, failed }
}

/// The cell-time percentiles of one repetition, ms: the median and the
/// highest of p90/p50 that leaves at least ten cells beyond it (the median
/// when there are too few cells for either).
fn cell_percentiles(walls: &[f64]) -> (f64, f64) {
    if walls.is_empty() {
        return (0.0, 0.0);
    }
    let tail = tail_percentile(walls.len(), 10, &[50.0, 90.0]).unwrap_or(50.0);
    (percentile(walls, 50.0) * 1e3, percentile(walls, tail) * 1e3)
}

/// End-to-end metrics: medians over the untraced repetitions. Host times
/// are divided by the host's slowdown around their repetition (`host`), so
/// that runs made while the shared host ran slower or faster compare.
pub fn end_to_end(untraced: &[ChildReport]) -> BTreeMap<String, f64> {
    let med = |f: &dyn Fn(&ChildReport) -> f64| median(&untraced.iter().map(f).collect::<Vec<_>>());
    let mut m = BTreeMap::new();
    m.insert("wall_s".into(), med(&|r| r.wall_s / r.slowdown));
    m.insert(
        "mcyc_per_s".into(),
        med(&|r| {
            r.counts.get("cycles").copied().unwrap_or(0) as f64 / (r.wall_s / r.slowdown) / 1e6
        }),
    );
    m.insert(
        "cell_p50_ms".into(),
        med(&|r| cell_percentiles(&r.cell_walls).0 / r.slowdown),
    );
    m.insert(
        "cell_p90_ms".into(),
        med(&|r| cell_percentiles(&r.cell_walls).1 / r.slowdown),
    );
    m.insert("setup_s".into(), med(&|r| r.setup_s / r.slowdown));
    m.insert("peak_rss_mb".into(), med(&|r| r.rss_mb));
    for (k, v) in &untraced[0].sim {
        m.insert(format!("sim_{k}"), *v);
    }
    m
}

/// Per-layer metrics: medians over the traced repetitions, plus the
/// campaign metrics the untraced repetitions report and the tracing
/// overhead between the two.
pub fn per_layer(untraced: &[ChildReport], traced: &[ChildReport]) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    let keys: Vec<&String> = traced[0].metrics.keys().collect();
    for k in keys {
        let vals: Vec<f64> = traced
            .iter()
            .filter_map(|r| r.metrics.get(k).copied())
            .collect();
        m.insert(k.clone(), median(&vals));
    }
    for k in [
        "exec.busy_share",
        "exec.overhead_s",
        "exec.cache_hit_share",
        "exec.slowest_cell_s",
    ] {
        let vals: Vec<f64> = untraced
            .iter()
            .filter_map(|r| r.metrics.get(k).copied())
            .collect();
        m.insert(k.into(), median(&vals));
    }
    let wall = |reps: &[ChildReport]| median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    m.insert(
        "trace.overhead_share".into(),
        wall(traced) / wall(untraced) - 1.0,
    );
    m.insert(
        "work.cached_cells".into(),
        traced[0].counts.get("cached_cells").copied().unwrap_or(0) as f64,
    );
    m
}

/// The human-readable summary on standard error.
pub fn print_table(
    workload: Workload,
    seed: u64,
    untraced: &[ChildReport],
    traced: &[ChildReport],
    metrics: &BTreeMap<String, f64>,
    specs: &[(&str, &str)],
    pinned: bool,
) {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let load = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    eprintln!(
        "perfbench {} seed {seed}: {} untraced + {} traced repetitions, {cpus} CPU(s), load {}",
        workload.name(),
        untraced.len(),
        traced.len(),
        load.split_whitespace()
            .take(3)
            .collect::<Vec<_>>()
            .join(" ")
    );
    eprintln!(
        "  statistics digests: {}",
        if pinned {
            "checked against the pinned digests"
        } else {
            "seed not pinned; checked across repetitions only"
        }
    );
    let spread = |vals: Vec<f64>| {
        let (q1, q3) = quartiles(&vals);
        format!(
            "q1 {q1:.6} q3 {q3:.6} iqr/median {:.4} n {}",
            iqr_share(&vals),
            vals.len()
        )
    };
    for (name, unit) in specs {
        let v = metrics.get(*name).copied().unwrap_or(0.0);
        let detail = match *name {
            "wall_s" => spread(untraced.iter().map(|r| r.wall_s).collect()),
            "setup_s" => spread(untraced.iter().map(|r| r.setup_s).collect()),
            "cell_p50_ms" | "cell_p90_ms" => {
                format!("cells per repetition {}", untraced[0].cell_walls.len())
            }
            n if !traced.is_empty() && traced[0].metrics.contains_key(n) => spread(
                traced
                    .iter()
                    .filter_map(|r| r.metrics.get(n).copied())
                    .collect(),
            ),
            _ => String::new(),
        };
        eprintln!("  {name:<36} {v:>16.6} {unit:<14} {detail}");
    }
    let slowdowns: Vec<f64> = untraced.iter().map(|r| r.slowdown).collect();
    eprintln!(
        "  {:<36} {:>16.6} {:<14} {}; unscaled wall_s median {:.6} s",
        "host slowdown (scales host times)",
        median(&slowdowns),
        "ratio",
        spread(slowdowns.clone()),
        median(&untraced.iter().map(|r| r.wall_s).collect::<Vec<_>>())
    );
    let counts: Vec<String> = untraced[0]
        .counts
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    eprintln!("  work counters (untraced): {}", counts.join(" "));
    if let Some(t) = traced.first() {
        let counts: Vec<String> = t.counts.iter().map(|(k, v)| format!("{k}={v}")).collect();
        eprintln!("  work counters (traced): {}", counts.join(" "));
        let largest = largest_layer(metrics);
        eprintln!(
            "  largest layer: {} ({:.1}% of traced wall time)",
            largest.0,
            largest.1 * 100.0
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(digests: &[&str]) -> ChildReport {
        ChildReport {
            attempted: digests.len() as u64,
            digests: digests.iter().map(|d| d.to_string()).collect(),
            ..ChildReport::default()
        }
    }

    #[test]
    fn digest_mismatches_fail_the_run_and_count_as_failed_cells() {
        let pin: Vec<String> = vec!["a".into(), "b".into()];
        let mut problems = Vec::new();
        let v = check(
            &[rep(&["a", "b"]), rep(&["a", "b"])],
            &[],
            Some(&pin),
            &mut problems,
        );
        assert!(problems.is_empty(), "{problems:?}");
        assert_eq!((v.attempted, v.failed), (4, 0));
        // One repetition disagrees with the first, and the first with the pin.
        let pin: Vec<String> = vec!["a".into(), "c".into()];
        let v = check(
            &[rep(&["a", "b"]), rep(&["a", "x"])],
            &[],
            Some(&pin),
            &mut problems,
        );
        assert_eq!((v.attempted, v.failed), (4, 2));
        assert_eq!(problems.len(), 2, "{problems:?}");
        // A traced repetition must match the untraced one too.
        let mut problems = Vec::new();
        let v = check(&[rep(&["a", "b"])], &[rep(&["a"])], None, &mut problems);
        assert_eq!(v.failed, 1, "a missing cell counts as failed");
        assert!(!problems.is_empty());
    }

    #[test]
    fn cell_percentiles_fall_back_to_the_median_for_few_cells() {
        let walls: Vec<f64> = (1..=200).map(|i| i as f64 / 1e3).collect();
        assert_eq!(cell_percentiles(&walls), (100.0, 180.0));
        assert_eq!(cell_percentiles(&[0.5]), (500.0, 500.0));
        assert_eq!(cell_percentiles(&[]), (0.0, 0.0));
    }
}

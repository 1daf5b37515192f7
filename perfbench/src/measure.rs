//! One repetition of a workload, run in a child process of its own, and the
//! report it hands back to the parent.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use anoc_core::metrics::QualityAccumulator;
use anoc_exec::hash::fnv1a64;
use anoc_exec::{CampaignReport, ResultCache, ResultCodec, SnapshotStore};
use anoc_harness::campaign::{cell_key, configure, context, RunResultCodec};
use anoc_harness::persist::encode_run_result;
use anoc_harness::RunResult;
use anoc_noc::{LatencyHistogram, Mesh};

use crate::ledger::{self, Layer};
use crate::traced;
use crate::workloads::{self, Plan, Workload, THREADS};

/// What one repetition measured.
#[derive(Debug, Default)]
pub struct ChildReport {
    /// Workload wall time, seconds.
    pub wall_s: f64,
    /// Set-up time, seconds.
    pub setup_s: f64,
    /// Peak resident memory of the repetition's process, MB.
    pub rss_mb: f64,
    /// Cells attempted (both passes of the warm sweep).
    pub attempted: u64,
    /// Cells that failed or disagreed with their own cross-checks.
    pub failed: u64,
    /// Per-cell statistics digests, plan order (`failed` for a failed cell).
    pub digests: Vec<String>,
    /// Simulated metrics aggregated over the cells.
    pub sim: BTreeMap<String, f64>,
    /// Host-independent work counters.
    pub counts: BTreeMap<String, u64>,
    /// Per executed cell wall time, seconds (untraced only).
    pub cell_walls: Vec<f64>,
    /// Metrics with a host-time component.
    pub metrics: BTreeMap<String, f64>,
    /// Failed cross-checks, one line each.
    pub problems: Vec<String>,
    /// How much slower than the reference host the host ran around this
    /// repetition (set by the parent, see `host`).
    pub slowdown: f64,
}

impl ChildReport {
    /// The line format the parent parses.
    pub fn to_lines(&self) -> String {
        let mut out = format!(
            "wall_s {:?}\nsetup_s {:?}\nrss_mb {:?}\nattempted {}\nfailed {}\n",
            self.wall_s, self.setup_s, self.rss_mb, self.attempted, self.failed
        );
        out.push_str(&format!("digests {}\n", self.digests.join(",")));
        let walls: Vec<String> = self.cell_walls.iter().map(|w| format!("{w:?}")).collect();
        out.push_str(&format!("cell_walls {}\n", walls.join(",")));
        for (k, v) in &self.sim {
            out.push_str(&format!("sim.{k} {v:?}\n"));
        }
        for (k, v) in &self.counts {
            out.push_str(&format!("count.{k} {v}\n"));
        }
        for (k, v) in &self.metrics {
            out.push_str(&format!("metric.{k} {v:?}\n"));
        }
        for p in &self.problems {
            out.push_str(&format!("problem {p}\n"));
        }
        out
    }

    /// Parses [`to_lines`](Self::to_lines) output.
    pub fn parse(text: &str) -> Result<ChildReport, String> {
        let mut r = ChildReport::default();
        let num = |k: &str, v: &str| v.parse::<f64>().map_err(|e| format!("bad {k} '{v}': {e}"));
        let int = |k: &str, v: &str| v.parse::<u64>().map_err(|e| format!("bad {k} '{v}': {e}"));
        let list = |v: &str| -> Vec<String> {
            v.split(',')
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect()
        };
        let mut seen_wall = false;
        for line in text.lines() {
            let (k, v) = line.split_once(' ').unwrap_or((line, ""));
            match k {
                "wall_s" => {
                    r.wall_s = num(k, v)?;
                    seen_wall = true;
                }
                "setup_s" => r.setup_s = num(k, v)?,
                "rss_mb" => r.rss_mb = num(k, v)?,
                "attempted" => r.attempted = int(k, v)?,
                "failed" => r.failed = int(k, v)?,
                "digests" => r.digests = list(v),
                "cell_walls" => {
                    r.cell_walls = list(v)
                        .iter()
                        .map(|w| num(k, w))
                        .collect::<Result<_, _>>()?;
                }
                "problem" => r.problems.push(v.to_string()),
                _ => {
                    if let Some(name) = k.strip_prefix("sim.") {
                        r.sim.insert(name.into(), num(k, v)?);
                    } else if let Some(name) = k.strip_prefix("count.") {
                        r.counts.insert(name.into(), int(k, v)?);
                    } else if let Some(name) = k.strip_prefix("metric.") {
                        r.metrics.insert(name.into(), num(k, v)?);
                    } else {
                        return Err(format!("unexpected report line '{line}'"));
                    }
                }
            }
        }
        if !seen_wall {
            return Err("repetition printed no report".into());
        }
        Ok(r)
    }
}

/// Digest of one cell's simulated statistics (`NetStats` and
/// `ActivityReport`, every field, floats exactly).
pub fn cell_digest(r: &RunResult) -> String {
    let buckets: Vec<(usize, u64)> = r.stats.latency_histogram.nonzero_buckets().collect();
    let d = fnv1a64(format!("{:?}|{buckets:?}|{:?}", r.stats, r.activity).as_bytes());
    format!("{:08x}", d as u32)
}

/// Simulated metrics over the cells: packet-weighted mean latency, the mean
/// over cells of each cell's 99th-percentile latency, flits against the
/// uncompressed baseline, quality over every delivered word, and delivered
/// flits per node-cycle. The tail is averaged per cell rather than read off
/// one merged histogram: the merged 99th percentile sits in the few worst
/// traffic bursts of the whole campaign and swings with the seed, while the
/// per-cell mean stays put.
fn sim_metrics(results: &[&RunResult]) -> BTreeMap<String, f64> {
    let (mut lat, mut packets, mut data, mut base, mut delivered, mut node_cycles) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    let mut quality = QualityAccumulator::new();
    for r in results {
        let s = &r.stats;
        lat += s.queue_lat_sum + s.net_lat_sum + s.decode_lat_sum;
        packets += s.packets;
        data += s.data_flits_injected;
        base += s.baseline_data_flits;
        delivered += s.flits_delivered;
        node_cycles += s.cycles * r.nodes as u64;
        quality.merge(&s.quality);
    }
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let p99_sum: f64 = results
        .iter()
        .map(|r| interpolated_percentile(&r.stats.latency_histogram, 99.0))
        .sum();
    BTreeMap::from([
        ("latency_cyc".to_string(), ratio(lat, packets)),
        (
            "latency_p99_cyc".to_string(),
            p99_sum / results.len().max(1) as f64,
        ),
        (
            "flits_norm".to_string(),
            if base == 0 { 1.0 } else { ratio(data, base) },
        ),
        ("quality".to_string(), quality.quality()),
        ("throughput_fpnc".to_string(), ratio(delivered, node_cycles)),
    ])
}

/// The upper edge of histogram bucket `b`, asked of the histogram itself:
/// the median of one sample in `b` and one in `b + 1` is `b`'s edge.
fn bucket_upper(b: usize) -> f64 {
    LatencyHistogram::from_buckets([(b, 1), (b + 1, 1)], u64::MAX)
        .map_or(f64::MAX, |h| h.percentile(50.0) as f64)
}

/// The `p`-th percentile of a log-bucketed histogram, interpolated linearly
/// inside the bucket it falls in. `LatencyHistogram::percentile` answers
/// with the bucket's edge, which jumps by up to 1/8 between neighbouring
/// buckets; interpolating makes the aggregate move smoothly with the data.
pub fn interpolated_percentile(h: &LatencyHistogram, p: f64) -> f64 {
    let target = p / 100.0 * h.samples() as f64;
    let mut before = 0u64;
    for (b, c) in h.nonzero_buckets() {
        if (before + c) as f64 >= target {
            let lo = if b == 0 {
                0.0
            } else {
                bucket_upper(b - 1) + 1.0
            };
            let hi = bucket_upper(b).min(h.max() as f64).max(lo);
            return lo + (target - before as f64) / c as f64 * (hi - lo);
        }
        before += c;
    }
    h.max() as f64
}

/// Work counters the results carry.
fn result_counts(results: &[&RunResult]) -> BTreeMap<String, u64> {
    let mut c = BTreeMap::new();
    let mut add = |k: &str, v: u64| *c.entry(k.to_string()).or_insert(0) += v;
    for r in results {
        let a = &r.activity;
        let ro = &a.routers;
        add(
            "router_events",
            ro.buffer_writes
                + ro.buffer_reads
                + ro.vc_allocs
                + ro.crossbar_traversals
                + ro.link_traversals,
        );
        add("link_traversals", ro.link_traversals);
        add("words_encoded", a.encoders.words_encoded);
        add("words_decoded", a.decoders.words_decoded);
        add(
            "table_searches",
            a.encoders.cam_searches
                + a.encoders.tcam_searches
                + a.decoders.cam_searches
                + a.decoders.tcam_searches,
        );
        add(
            "encoded_words",
            r.stats.encode.exact_encoded + r.stats.encode.approx_encoded,
        );
        add("window_words", r.stats.encode.words);
        add(
            "encoder_searches",
            a.encoders.cam_searches + a.encoders.tcam_searches,
        );
        add("packets", r.stats.packets);
    }
    c
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Installs the execution context (pool, and for the warm sweep a fresh
/// result cache and snapshot store under `dir`) and plans the workload.
fn set_up(workload: Workload, seed: u64, dir: &Path) -> Plan {
    let _ = std::fs::remove_dir_all(dir);
    let (cache, store) = if workload.uses_stores() {
        (
            Some(ResultCache::open(dir.join("cache")).expect("create the result cache")),
            Some(SnapshotStore::open(dir.join("snapshots")).expect("create the snapshot store")),
        )
    } else {
        (None, None)
    };
    assert!(
        configure(Some(THREADS), cache, store),
        "the execution context is installed once per process"
    );
    workloads::plan(workload, seed)
}

/// Results of one repetition: pass 1 (or the only pass), the warm sweep's
/// cached pass 2, and the number of failed cells.
type Outcome = (
    Vec<Option<RunResult>>,
    Option<Vec<Option<RunResult>>>,
    usize,
);

/// Runs one repetition in this process.
pub fn child(
    workload: Workload,
    seed: u64,
    traced_run: bool,
    dir: &Path,
    trace_out: Option<&Path>,
    cold_check: bool,
) -> ChildReport {
    let t0 = Instant::now();
    let w0 = ledger::now_ns();
    let plan = if traced_run {
        ledger::span("setup", Layer::Exec, None, |_| {
            let plan = set_up(workload, seed, dir);
            ledger::span("NocSim::new probe", Layer::Noc, None, |_| {
                workloads::probe_sim(&plan)
            });
            plan
        })
    } else {
        let plan = set_up(workload, seed, dir);
        workloads::probe_sim(&plan);
        plan
    };
    let mut report = ChildReport {
        setup_s: t0.elapsed().as_secs_f64(),
        ..ChildReport::default()
    };
    let (results, pass2, failed_cells) = if traced_run {
        let e = traced::execute(workload, &plan);
        report.wall_s = t0.elapsed().as_secs_f64();
        let wall_ns = ledger::now_ns() - w0;
        record_traced(
            workload,
            seed,
            &plan,
            &e,
            wall_ns,
            dir,
            trace_out,
            &mut report,
        );
        (e.results, e.pass2, e.failed_cells)
    } else {
        let e = workloads::execute(workload, &plan);
        report.wall_s = t0.elapsed().as_secs_f64();
        let totals = context().totals();
        report.counts.extend(named([
            ("cycles", totals.simulated_cycles()),
            ("forked_cells", totals.forked_jobs),
            ("executed_cells", totals.executed_jobs),
            ("cached_cells", totals.cached_jobs),
        ]));
        exec_metrics(&e.reports, &e.cell_walls, &mut report.metrics);
        if cold_check {
            let bad = workloads::cold_mismatches(&plan, &e);
            if bad > 0 {
                report.problems.push(format!(
                    "{bad} forked/cached cell(s) differ from a cold simulation"
                ));
                report.failed += bad as u64;
            }
        }
        report.cell_walls = e.cell_walls;
        (e.results, e.pass2, e.failed_cells)
    };
    report.rss_mb = peak_rss_mb();
    finish_report(&plan, (results, pass2, failed_cells), &mut report);
    report
}

fn named<const N: usize>(pairs: [(&str, u64); N]) -> impl Iterator<Item = (String, u64)> + '_ {
    pairs.into_iter().map(|(k, v)| (k.to_string(), v))
}

/// The checks and simulated aggregates every repetition reports.
fn finish_report(plan: &Plan, (results, pass2, failed_cells): Outcome, report: &mut ChildReport) {
    report.attempted = (plan.len() * if pass2.is_some() { 2 } else { 1 }) as u64;
    report.failed += failed_cells as u64;
    if let Some(p2) = &pass2 {
        let differ = results
            .iter()
            .zip(p2)
            .filter(|(a, b)| a.as_ref().map(encode_run_result) != b.as_ref().map(encode_run_result))
            .count();
        if differ > 0 {
            report
                .problems
                .push(format!("{differ} cached pass-2 cell(s) differ from pass 1"));
            report.failed += differ as u64;
        }
    }
    report.digests = results
        .iter()
        .map(|r| r.as_ref().map_or_else(|| "failed".to_string(), cell_digest))
        .collect();
    let ok: Vec<&RunResult> = results.iter().flatten().collect();
    report.sim = sim_metrics(&ok);
    report.counts.extend(result_counts(&ok));
}

/// The traced repetition's counters and per-layer metrics, and its trace
/// file.
#[allow(clippy::too_many_arguments)]
fn record_traced(
    workload: Workload,
    seed: u64,
    plan: &Plan,
    e: &traced::TracedExecution,
    wall_ns: u64,
    dir: &Path,
    trace_out: Option<&Path>,
    report: &mut ChildReport,
) {
    let work = traced::take_work();
    let (spans, folds) = ledger::take();
    let calls = |pred: fn(usize) -> bool| -> u64 {
        (0..ledger::SLOTS)
            .filter(|s| pred(*s))
            .map(|s| folds.get(s).map_or(0, |f| f.count))
            .sum()
    };
    report.counts.extend(named([
        ("cycles", work.cycles),
        ("forked_cells", work.forked_cells),
        ("executed_cells", work.executed_cells),
        (
            "cached_cells",
            e.reports.iter().map(|r| r.cache_hits as u64).sum(),
        ),
        ("injections", work.injections),
        ("data_injections", work.data_injections),
        ("outstanding_peak", work.outstanding_peak),
        ("snapshot_bytes", work.snapshot_bytes),
        ("encode_calls", calls(ledger::is_encode)),
        ("decode_calls", calls(ledger::is_decode)),
    ]));
    let results: Vec<&RunResult> = e.results.iter().flatten().collect();
    let counts = result_counts(&results);
    report.metrics = layer_metrics(
        plan,
        &results,
        &counts,
        &work,
        &spans,
        &folds,
        wall_ns,
        &e.campaign_spans,
    );
    if let Some(path) = trace_out {
        let meta = vec![
            ("workload".to_string(), workload.name().to_string()),
            ("seed".to_string(), seed.to_string()),
            (
                "largest_layer".to_string(),
                largest_layer(&report.metrics).0.to_string(),
            ),
            (
                "coverage_share".to_string(),
                format!("{}", report.metrics["trace.coverage_share"]),
            ),
        ];
        let _ = std::fs::create_dir_all(path.parent().unwrap_or(Path::new(".")));
        if let Err(err) = std::fs::write(path, ledger::chrome_trace(&spans, &folds, &meta)) {
            report
                .problems
                .push(format!("writing the trace file: {err}"));
        }
    }
    timed_persistence(plan, &e.results, dir, &mut report.metrics);
}

/// The layer with the largest share of traced wall time, and that share.
pub fn largest_layer(metrics: &BTreeMap<String, f64>) -> (&'static str, f64) {
    Layer::ALL
        .iter()
        .map(|l| {
            let share = metrics.get(&format!("layer.{}_share", l.name()));
            (l.name(), share.copied().unwrap_or(0.0))
        })
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("layers exist")
}

/// Campaign-layer metrics the program reports itself.
fn exec_metrics(reports: &[CampaignReport], cell_walls: &[f64], m: &mut BTreeMap<String, f64>) {
    let threads = THREADS as f64;
    let (mut busy, mut capacity, mut overhead, mut hits, mut jobs) =
        (0.0, 0.0, 0.0, 0usize, 0usize);
    for r in reports {
        hits += r.cache_hits;
        jobs += r.jobs;
        if r.executed > 0 {
            busy += r.exec_wall.as_secs_f64();
            capacity += r.wall.as_secs_f64() * threads;
            overhead += r.wall.as_secs_f64() - r.exec_wall.as_secs_f64() / threads;
        }
    }
    m.insert(
        "exec.busy_share".into(),
        if capacity > 0.0 { busy / capacity } else { 0.0 },
    );
    m.insert("exec.overhead_s".into(), overhead);
    m.insert(
        "exec.cache_hit_share".into(),
        if jobs > 0 {
            hits as f64 / jobs as f64
        } else {
            0.0
        },
    );
    m.insert(
        "exec.slowest_cell_s".into(),
        cell_walls.iter().copied().fold(0.0, f64::max),
    );
}

/// Times the persistence calls a cached campaign makes, from here: one
/// `RunResultCodec` encode and decode per result, and (with a cache) one
/// cache read per cell key plus one write of each payload to a scratch
/// cache. Runs after the workload, outside its wall time.
fn timed_persistence(
    plan: &Plan,
    results: &[Option<RunResult>],
    dir: &Path,
    m: &mut BTreeMap<String, f64>,
) {
    let ok: Vec<&RunResult> = results.iter().flatten().collect();
    let (mut enc_ns, mut dec_ns) = (0u128, 0u128);
    let mut payloads = Vec::with_capacity(ok.len());
    for r in &ok {
        let t = Instant::now();
        let p = RunResultCodec.encode(r);
        enc_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        let back = RunResultCodec.decode(&p);
        dec_ns += t.elapsed().as_nanos();
        assert!(back.is_some(), "a fresh payload decodes");
        payloads.push(p);
    }
    let per = |ns: u128| {
        if ok.is_empty() {
            0.0
        } else {
            ns as f64 / ok.len() as f64 / 1e3
        }
    };
    m.insert("persist.encode_us".into(), per(enc_ns));
    m.insert("persist.decode_us".into(), per(dec_ns));
    let (mut get_s, mut put_s, mut bytes) = (0.0, 0.0, 0.0);
    if let (Some(cache), Plan::Bench(cells)) = (context().cache(), plan) {
        let scratch = ResultCache::open(dir.join("cache-put")).expect("create the scratch cache");
        for (c, p) in cells.iter().zip(&payloads) {
            let key = cell_key("bench", &c.cfg, c.mech.name(), c.bench.name(), c.seed);
            let t = Instant::now();
            let got = cache.get(&key);
            get_s += t.elapsed().as_secs_f64();
            assert!(got.is_some(), "every cell was cached");
            let t = Instant::now();
            scratch.put(&key, p).expect("write the scratch cache");
            put_s += t.elapsed().as_secs_f64();
        }
        bytes = cache.size_bytes() as f64;
    }
    m.insert("exec.cache_get_s".into(), get_s);
    m.insert("exec.cache_put_s".into(), put_s);
    m.insert("exec.cache_bytes".into(), bytes);
}

/// Per-layer metrics of a traced repetition.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    plan: &Plan,
    results: &[&RunResult],
    counts: &BTreeMap<String, u64>,
    work: &traced::Work,
    spans: &[ledger::Span],
    folds: &[ledger::Fold],
    wall_ns: u64,
    campaigns: &[u64],
) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    let fold = |slot: usize| folds.get(slot).copied().unwrap_or_default();
    let secs = |ns: u64| ns as f64 / 1e9;
    let div = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let sum_slots = |pred: fn(usize) -> bool| {
        (0..ledger::SLOTS)
            .filter(|s| pred(*s))
            .fold((0u64, 0u64), |(n, t), s| {
                (n + fold(s).count, t + fold(s).self_ns)
            })
    };

    let tick = fold(ledger::TICK);
    m.insert("traffic.tick_s".into(), secs(tick.total_ns));
    m.insert("traffic.injections".into(), work.injections as f64);
    m.insert(
        "traffic.data_share".into(),
        div(work.data_injections as f64, work.injections as f64),
    );

    let (enc_calls, enc_ns) = sum_slots(ledger::is_encode);
    let (dec_calls, dec_ns) = sum_slots(ledger::is_decode);
    m.insert("codec.encode_s".into(), secs(enc_ns));
    m.insert("codec.encode_calls".into(), enc_calls as f64);
    m.insert(
        "codec.encode_ns_per_block".into(),
        div(enc_ns as f64, enc_calls as f64),
    );
    m.insert("codec.decode_s".into(), secs(dec_ns));
    m.insert("codec.decode_calls".into(), dec_calls as f64);
    m.insert(
        "codec.decode_ns_per_block".into(),
        div(dec_ns as f64, dec_calls as f64),
    );
    let c = |k: &str| counts.get(k).copied().unwrap_or(0) as f64;
    m.insert(
        "codec.encoded_word_share".into(),
        div(c("encoded_words"), c("window_words")),
    );
    m.insert("codec.table_searches".into(), c("table_searches"));
    m.insert(
        "codec.hits_per_search".into(),
        div(c("encoded_words"), c("encoder_searches")),
    );
    for mech in ledger::MECHS {
        let f = fold(ledger::encode_slot(mech));
        m.insert(
            format!("codec.{}.encode_ns_per_block", mech.to_lowercase()),
            div(f.self_ns as f64, f.count as f64),
        );
    }

    let step_ns = fold(ledger::STEP).self_ns + fold(ledger::DRAIN).self_ns;
    m.insert("noc.enqueue_s".into(), secs(fold(ledger::ENQUEUE).self_ns));
    m.insert("noc.step_s".into(), secs(step_ns));
    m.insert(
        "noc.step_ns_per_cycle".into(),
        div(step_ns as f64, work.cycles as f64),
    );
    m.insert("noc.router_events".into(), c("router_events"));
    m.insert(
        "noc.ns_per_router_event".into(),
        div(step_ns as f64, c("router_events")),
    );
    let (noc, _) = plan.first_sim();
    let links = Mesh::new(&noc).num_links() as f64;
    let link_cycles: f64 = results
        .iter()
        .map(|r| r.activity.cycles as f64 * links)
        .sum();
    m.insert(
        "noc.link_utilization".into(),
        div(c("link_traversals"), link_cycles),
    );
    m.insert("noc.outstanding_peak".into(), work.outstanding_peak as f64);
    m.insert(
        "noc.snapshot_save_s".into(),
        secs(fold(ledger::SNAP_SAVE).total_ns),
    );
    m.insert(
        "noc.snapshot_restore_s".into(),
        secs(fold(ledger::SNAP_RESTORE).total_ns),
    );
    m.insert("noc.snapshot_bytes".into(), work.snapshot_bytes as f64);

    let stage = |name: &str| {
        secs(
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(ledger::Span::dur_ns)
                .sum(),
        )
    };
    m.insert("stage.warmup_s".into(), stage("stage warmup"));
    m.insert("stage.measure_s".into(), stage("stage measure"));
    m.insert("stage.drain_s".into(), stage("stage drain"));
    m.insert(
        "stage.forked_share".into(),
        div(work.forked_cells as f64, work.executed_cells as f64),
    );

    // Wall-time attribution. The main thread's spans tile the workload;
    // inside a campaign the pool threads run cell and warmup spans in
    // parallel, so their per-layer thread time is scaled to the wall time
    // the union of those spans covers, and the rest of the campaign's
    // interval (cache lookups and writes, dispatch, idle tail) is exec time.
    let main_tid = spans
        .iter()
        .find(|s| s.name == "setup")
        .map_or(0, |s| s.tid);
    let mut wall = [0.0f64; 5];
    let idx = |l: Layer| {
        Layer::ALL
            .iter()
            .position(|x| *x == l)
            .expect("known layer")
    };
    let (mut union_ns, mut worker_ns) = (0u64, 0u64);
    for s in spans.iter().filter(|s| s.tid == main_tid) {
        if campaigns.contains(&s.id) {
            let kids: Vec<(u64, u64)> = spans
                .iter()
                .filter(|k| k.parent == s.id)
                .map(|k| (k.start_ns, k.end_ns))
                .collect();
            worker_ns += kids.iter().map(|(a, b)| b - a).sum::<u64>();
            let covered = ledger::covered_ns(kids, s.start_ns, s.end_ns);
            union_ns += covered;
            wall[idx(Layer::Exec)] += (s.dur_ns() - covered) as f64;
        } else {
            wall[idx(s.layer)] += s.self_ns as f64;
        }
    }
    let scale = div(union_ns as f64, worker_ns as f64);
    for s in spans.iter().filter(|s| s.tid != main_tid) {
        wall[idx(s.layer)] += s.self_ns as f64 * scale;
    }
    for (slot, f) in folds.iter().enumerate() {
        wall[idx(ledger::slot_layer(slot))] += f.self_ns as f64 * scale;
    }
    for l in Layer::ALL {
        m.insert(
            format!("layer.{}_share", l.name()),
            div(wall[idx(l)], wall_ns as f64),
        );
    }
    m.insert(
        "trace.coverage_share".into(),
        div(wall.iter().sum(), wall_ns as f64),
    );
    m.insert("work.cycles".into(), work.cycles as f64);
    m.insert("work.link_traversals".into(), c("link_traversals"));
    m.insert("work.words_encoded".into(), c("words_encoded"));
    m.insert("work.forked_cells".into(), work.forked_cells as f64);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_percentile_tracks_the_data_within_bucket_resolution() {
        let mut h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        for p in [50.0, 90.0, 99.0] {
            let exact = p * 10.0;
            let got = interpolated_percentile(&h, p);
            assert!(
                (got - exact).abs() <= exact * 0.125,
                "p{p}: {got} vs {exact}"
            );
            // Never beyond the bucket edge the histogram itself reports.
            assert!(
                got <= h.percentile(p) as f64,
                "p{p}: {got} above the bucket edge"
            );
        }
        assert_eq!(interpolated_percentile(&h, 100.0), 1000.0);
        assert_eq!(interpolated_percentile(&LatencyHistogram::new(), 99.0), 0.0);
        // Small latencies have exact buckets.
        let mut small = LatencyHistogram::new();
        for v in [2u64, 2, 3, 3] {
            small.record(v);
        }
        assert_eq!(interpolated_percentile(&small, 50.0), 2.0);
    }

    #[test]
    fn child_reports_round_trip_through_their_line_format() {
        let mut r = ChildReport {
            wall_s: 1.25,
            setup_s: 0.001,
            rss_mb: 4.5,
            attempted: 10,
            failed: 1,
            digests: vec!["00ab".into(), "failed".into()],
            cell_walls: vec![0.1, 0.2],
            ..ChildReport::default()
        };
        r.sim.insert("latency_cyc".into(), 28.5);
        r.counts.insert("cycles".into(), 123);
        r.metrics.insert("exec.busy_share".into(), 0.9);
        r.problems.push("a problem".into());
        let back = ChildReport::parse(&r.to_lines()).expect("parses");
        assert_eq!(back.to_lines(), r.to_lines());
        assert!(
            ChildReport::parse("").is_err(),
            "an empty report is an error"
        );
    }
}

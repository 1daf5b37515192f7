//! The generic experiment driver: traffic source → NoC → statistics.
//!
//! Runs are **staged** (DESIGN.md §11): codecs are built at the exact
//! threshold, the warmup window runs threshold-free, and only at the
//! measurement boundary are the encoders retargeted to the configured
//! threshold, the bound checker armed and measurement begun. The warmup
//! trajectory is therefore identical for every threshold variant of a sweep,
//! which is what lets the [`SnapshotPolicy`] fork those variants from one
//! shared post-warmup snapshot instead of replaying the warmup per cell.

use anoc_core::snap::{SnapReader, SnapWriter};
use anoc_core::threshold::ErrorThreshold;
use anoc_exec::hash::fnv1a64;
use anoc_exec::SnapshotStore;
use anoc_noc::{ActivityReport, NetStats, NocSim, SimError};
use anoc_traffic::{Benchmark, BenchmarkTraffic, Injection, TrafficSource};

use crate::config::{Mechanism, SystemConfig};

/// The result of one simulation run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The mechanism simulated.
    pub mechanism: Mechanism,
    /// Network statistics over the measurement window.
    pub stats: NetStats,
    /// Hardware activity for the power model.
    pub activity: ActivityReport,
    /// Number of nodes simulated.
    pub nodes: usize,
    /// Total simulated cycles (warmup + measurement + drain). Divided by
    /// the host wall time this gives the simulator's cycles-per-second
    /// throughput, which the campaign layer reports per job.
    pub total_cycles: u64,
    /// Whether the post-measurement drain finished within
    /// `drain_cycles` — `false` means packets were still in flight when the
    /// budget ran out and the delivery statistics are a lower bound, not
    /// final (`stats.unfinished` counts the stragglers).
    pub drained: bool,
}

impl RunResult {
    /// Average end-to-end packet latency in cycles.
    pub fn avg_packet_latency(&self) -> f64 {
        self.stats.avg_packet_latency()
    }

    /// Delivered throughput in flits/node/cycle.
    pub fn throughput(&self) -> f64 {
        self.stats.throughput(self.nodes)
    }

    /// Data value quality (1 − mean relative word error).
    pub fn data_quality(&self) -> f64 {
        self.stats.quality.quality()
    }

    /// Tail latency: the given percentile of end-to-end packet latency.
    pub fn latency_percentile(&self, p: f64) -> u64 {
        self.stats.latency_histogram.percentile(p)
    }

    /// The placeholder substituted for a failed cell when a keep-going
    /// campaign completes despite per-cell errors: [`Mechanism::Failed`],
    /// every statistic zero. Never cached.
    pub fn failed_sentinel() -> Self {
        RunResult {
            mechanism: Mechanism::Failed,
            stats: NetStats::default(),
            activity: ActivityReport::default(),
            nodes: 0,
            total_cycles: 0,
            drained: false,
        }
    }

    /// Whether this result is the keep-going failure placeholder.
    pub fn is_failed_sentinel(&self) -> bool {
        self.mechanism == Mechanism::Failed
    }
}

/// How one run interacts with the on-disk [`SnapshotStore`].
///
/// [`cold`](SnapshotPolicy::cold) is a plain replayed-warmup run. With a
/// store, `warmup_key` forks the run from the shared post-warmup snapshot
/// (publishing it first when absent), `cell_key` + `checkpoint_every`
/// periodically checkpoint the measurement window, and `resume` restarts a
/// killed cell from its last checkpoint. Every snapshot miss, stale blob or
/// restore failure silently degrades to the cold path — the store can make
/// a campaign slower, never wrong.
#[derive(Debug, Clone, Default)]
pub struct SnapshotPolicy<'a> {
    /// The snapshot store, or `None` for a purely cold run.
    pub store: Option<&'a SnapshotStore>,
    /// Key of the shared post-warmup snapshot to fork from (and to publish
    /// on a cold run); see [`crate::campaign::warmup_key`].
    pub warmup_key: Option<String>,
    /// The cell's content key, identifying its mid-measurement checkpoints.
    pub cell_key: Option<String>,
    /// Checkpoint every N measured cycles (0 disables checkpointing).
    pub checkpoint_every: u64,
    /// Restart from the cell's last checkpoint if one exists.
    pub resume: bool,
}

impl SnapshotPolicy<'_> {
    /// A policy that never touches a snapshot store.
    pub fn cold() -> Self {
        SnapshotPolicy::default()
    }
}

/// Execution metadata of one staged run — how the result was obtained, never
/// part of the (cacheable) result itself, so warm and cold cells stay
/// bit-identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StagedInfo {
    /// The warmup was restored from a snapshot instead of simulated.
    pub forked: bool,
    /// The measurement window resumed from a mid-run checkpoint.
    pub resumed: bool,
    /// Simulated cycles avoided by forking/resuming (still counted in the
    /// result's `total_cycles`, which reflects simulated *time*, not work).
    pub skipped_cycles: u64,
}

/// The store key of a cell's mid-measurement checkpoint.
pub fn checkpoint_key(cell_key: &str) -> String {
    format!("checkpoint {cell_key}")
}

/// Stage tag of a post-warmup snapshot in a store blob.
const STAGE_WARMUP: u32 = 1;
/// Stage tag of a mid-measurement checkpoint in a store blob.
const STAGE_CHECKPOINT: u32 = 2;

/// Runs `mechanism` under the traffic produced by `source` for the
/// configured warmup + measurement window, then drains.
///
/// # Panics
///
/// Panics if the configured watchdog or bound checker aborts the
/// simulation; campaigns that must survive that use
/// [`try_run_with_source`].
pub fn run_with_source(
    source: &mut dyn TrafficSource,
    mechanism: Mechanism,
    config: &SystemConfig,
) -> RunResult {
    match try_run_with_source(source, mechanism, config) {
        Ok(r) => r,
        Err(e) => panic!("simulation failed: {e}"),
    }
}

/// Fallible [`run_with_source`]: a watchdog deadlock abort or a fatal
/// bound-checker violation comes back as `Err` instead of panicking.
///
/// This is the staged cold path: exact-threshold warmup, retarget + arm +
/// measure (see the module docs). It never touches a snapshot store.
pub fn try_run_with_source(
    source: &mut dyn TrafficSource,
    mechanism: Mechanism,
    config: &SystemConfig,
) -> Result<RunResult, SimError> {
    cold_run(source, mechanism, config, None, &SnapshotPolicy::cold())
}

/// Offers one cycle of traffic and advances the simulator, keeping the
/// delivery log drained.
fn step_cycle(
    sim: &mut NocSim,
    source: &mut dyn TrafficSource,
    buf: &mut Vec<Injection>,
) -> Result<(), SimError> {
    buf.clear();
    source.tick(sim.cycle(), buf);
    for inj in buf.drain(..) {
        match inj.payload {
            Some(block) => {
                sim.enqueue_data(inj.src, inj.dest, block);
            }
            None => {
                sim.enqueue_control(inj.src, inj.dest);
            }
        }
    }
    sim.step();
    if let Some(e) = sim.take_fatal_error() {
        return Err(e);
    }
    sim.discard_delivered(); // keep the delivery buffer from growing
    Ok(())
}

/// Advances the simulation until `sim.cycle()` reaches `until`.
fn drive(
    sim: &mut NocSim,
    source: &mut dyn TrafficSource,
    until: u64,
    buf: &mut Vec<Injection>,
) -> Result<(), SimError> {
    while sim.cycle() < until {
        step_cycle(sim, source, buf)?;
    }
    Ok(())
}

/// A fresh simulator for the staged path: exact-threshold codecs (retargeted
/// at the measurement boundary), shards/fault-plan/watchdog armed — the
/// arming happens *before* any snapshot restore, whose serialized cursors
/// then overwrite what arming reset.
fn fresh_sim(mechanism: Mechanism, config: &SystemConfig) -> NocSim {
    let codecs = mechanism.codecs(config.noc.num_nodes(), ErrorThreshold::exact());
    let mut sim = NocSim::new(config.noc.clone(), codecs);
    sim.set_shards(run_shards(config, anoc_exec::cell_threads()));
    sim.set_fault_plan(config.faults);
    sim.set_loss_plan(config.loss);
    sim.set_qos(config.qos);
    sim.set_watchdog(config.watchdog_horizon);
    sim
}

/// Fewest routers each shard of an automatically sharded simulation owns.
/// Measured on a 2-core host, 2 shards against serial, uniform-random
/// traffic at 0.085 flits/node/cycle, 5 interleaved pairs each (median
/// speedup): 4x4 cmesh (8 routers a shard) 0.30x, 8x8 (32) 1.04x, 10x10
/// (50) 1.15x with pairs as low as 0.83x, 12x12 (72) 1.35x, 16x16 (128)
/// 1.48x. Below about 64 routers a shard, the two phase barriers per cycle
/// cost as much as the allocation work they split.
pub const MIN_ROUTERS_PER_SHARD: usize = 64;

/// The shard count for a simulation of `routers` routers left to choose its
/// own, given the `cell_threads` its campaign cell may use: one shard per
/// [`MIN_ROUTERS_PER_SHARD`] routers, at most one per thread, at least one.
pub fn auto_shards(routers: usize, cell_threads: usize) -> usize {
    (routers / MIN_ROUTERS_PER_SHARD).clamp(1, cell_threads.max(1))
}

/// The shard count a run steps with: the configured count, or, when it is
/// unset (0), [`auto_shards`] for this network and the `cell_threads` the
/// campaign gave the calling cell. Results are the same either way.
fn run_shards(config: &SystemConfig, cell_threads: usize) -> usize {
    match config.shards {
        0 => auto_shards(config.noc.num_routers(), cell_threads),
        n => n,
    }
}

/// The measurement boundary of a staged run: retarget the encoders to the
/// configured threshold, arm the bound checker, start measuring.
fn arm_measurement(sim: &mut NocSim, mechanism: Mechanism, config: &SystemConfig) {
    rearm_thresholds(sim, mechanism, config);
    sim.begin_measurement();
}

/// Re-arms the threshold machinery the snapshot format deliberately
/// excludes. Statically-thresholded runs retarget every encoder to the
/// configured threshold; QoS runs must NOT — the per-flow controllers own
/// the encoder thresholds (lazily reinstalled per enqueue), and a global
/// retarget here would stomp what the controllers learned. Either way the
/// bound checker arms at [`Mechanism::bound_threshold`].
fn rearm_thresholds(sim: &mut NocSim, mechanism: Mechanism, config: &SystemConfig) {
    if !config.qos.is_active() {
        sim.set_error_threshold(config.threshold());
    }
    sim.set_bound_check(mechanism.bound_threshold(config));
}

/// Runs the measurement window from wherever `sim` currently stands to its
/// end, then drains and assembles the [`RunResult`]. Checkpoints every
/// `checkpoint_every` measured cycles under `cell_key` and retires the
/// cell's checkpoint on success.
#[allow(clippy::too_many_arguments)]
fn measure_and_finish_ckpt(
    sim: &mut NocSim,
    source: &mut dyn TrafficSource,
    mechanism: Mechanism,
    config: &SystemConfig,
    store: Option<&SnapshotStore>,
    checkpoint_every: u64,
    cell_key: Option<&str>,
    buf: &mut Vec<Injection>,
) -> Result<RunResult, SimError> {
    let nodes = config.noc.num_nodes();
    let total = config.warmup_cycles + config.sim_cycles;
    while sim.cycle() < total {
        step_cycle(sim, source, buf)?;
        if checkpoint_every > 0 && sim.cycle() < total {
            if let (Some(st), Some(ck)) = (store, cell_key) {
                let measured = sim.cycle() - config.warmup_cycles;
                if measured.is_multiple_of(checkpoint_every) {
                    publish(st, &checkpoint_key(ck), STAGE_CHECKPOINT, sim, source);
                }
            }
        }
    }
    // Stop offering traffic; let in-flight measured packets finish.
    sim.end_measurement();
    let drained = sim.try_drain(config.drain_cycles)?;
    sim.discard_delivered();
    sim.record_unfinished();
    let activity = sim.activity_report();
    let stats = sim.stats().clone();
    if let (Some(st), Some(ck)) = (store, cell_key) {
        // The cell completed: its checkpoint is spent.
        let _ = st.remove(&checkpoint_key(ck));
    }
    Ok(RunResult {
        mechanism,
        stats,
        activity,
        nodes,
        total_cycles: sim.cycle(),
        drained,
    })
}

/// The staged cold path: exact-threshold warmup, optional snapshot publish,
/// retarget + arm + measure.
fn cold_run(
    source: &mut dyn TrafficSource,
    mechanism: Mechanism,
    config: &SystemConfig,
    store: Option<&SnapshotStore>,
    policy: &SnapshotPolicy<'_>,
) -> Result<RunResult, SimError> {
    let nodes = config.noc.num_nodes();
    assert_eq!(
        source.num_nodes(),
        nodes,
        "traffic source and NoC disagree on node count"
    );
    let mut sim = fresh_sim(mechanism, config);
    let mut buf: Vec<Injection> = Vec::new();
    drive(&mut sim, source, config.warmup_cycles, &mut buf)?;
    if let (Some(st), Some(wk)) = (store, policy.warmup_key.as_deref()) {
        if source.snapshot_supported() {
            publish(st, wk, STAGE_WARMUP, &sim, source);
        }
    }
    arm_measurement(&mut sim, mechanism, config);
    measure_and_finish_ckpt(
        &mut sim,
        source,
        mechanism,
        config,
        store,
        policy.checkpoint_every,
        policy.cell_key.as_deref(),
        &mut buf,
    )
}

/// Frames `sim` + `source` state as one store blob:
/// `[u32 stage tag][u64 sim-blob length][sim blob][traffic-source state]`.
fn freeze(
    sim: &NocSim,
    source: &dyn TrafficSource,
    tag: u32,
    fingerprint: u64,
) -> Result<Vec<u8>, anoc_noc::SnapshotError> {
    let sim_blob = sim.save_snapshot(fingerprint)?;
    let mut w = SnapWriter::new();
    w.u32(tag);
    w.u64(sim_blob.len() as u64);
    w.bytes(&sim_blob);
    source.save_state(&mut w);
    Ok(w.into_bytes())
}

/// Best-effort snapshot publication: a failed save or store write costs a
/// replayed warmup next time, never the run.
fn publish(store: &SnapshotStore, key: &str, tag: u32, sim: &NocSim, source: &dyn TrafficSource) {
    match freeze(sim, source, tag, fnv1a64(key.as_bytes())) {
        Ok(blob) => {
            if let Err(e) = store.put(key, &blob) {
                eprintln!("snapshot write for '{key}' failed: {e}");
            }
        }
        Err(e) => eprintln!("snapshot save for '{key}' refused: {e}"),
    }
}

/// Restores a store blob into a freshly armed `sim` + never-ticked `source`.
/// Any error means the pair is in an unspecified state: the caller must
/// discard both and rebuild for the cold path.
fn thaw(
    blob: &[u8],
    expect_tag: u32,
    fingerprint: u64,
    sim: &mut NocSim,
    source: &mut dyn TrafficSource,
) -> Result<(), String> {
    let mut r = SnapReader::new(blob);
    let tag = r.u32().map_err(|e| format!("stage tag: {e}"))?;
    if tag != expect_tag {
        return Err(format!("unexpected stage tag {tag} (want {expect_tag})"));
    }
    let len = r.u64().map_err(|e| format!("sim-blob length: {e}"))?;
    let len = usize::try_from(len).map_err(|_| "sim-blob length overflows".to_string())?;
    let sim_blob = r.bytes(len).map_err(|e| format!("sim blob: {e}"))?;
    sim.restore_snapshot(sim_blob, fingerprint)
        .map_err(|e| e.to_string())?;
    source
        .load_state(&mut r)
        .map_err(|e| format!("traffic state: {e}"))?;
    if !r.is_exhausted() {
        return Err("trailing bytes after traffic state".into());
    }
    Ok(())
}

/// Runs just the warmup of a benchmark cell and publishes the post-warmup
/// snapshot under `warmup_key` — the shared stage the campaign planner runs
/// once per distinct key before the measurement cells. Skips simulating when
/// the store already holds the key. Returns whether a fresh warmup was
/// simulated and published.
pub fn publish_benchmark_warmup(
    benchmark: Benchmark,
    mechanism: Mechanism,
    config: &SystemConfig,
    seed: u64,
    store: &SnapshotStore,
    warmup_key: &str,
) -> Result<bool, SimError> {
    if store.get(warmup_key).is_some() {
        return Ok(false);
    }
    let mut source =
        BenchmarkTraffic::new(benchmark, config.noc.num_nodes(), config.approx_ratio, seed);
    if !source.snapshot_supported() {
        return Ok(false);
    }
    let mut sim = fresh_sim(mechanism, config);
    let mut buf = Vec::new();
    drive(&mut sim, &mut source, config.warmup_cycles, &mut buf)?;
    publish(store, warmup_key, STAGE_WARMUP, &sim, &source);
    Ok(true)
}

/// The snapshot-aware benchmark driver: resume from a checkpoint if asked,
/// else fork from the shared warmup snapshot, else run cold (publishing the
/// warmup for the next cell). Returns the result plus [`StagedInfo`]
/// describing how it was obtained; warm and cold results are bit-identical.
pub fn try_run_benchmark_snap(
    benchmark: Benchmark,
    mechanism: Mechanism,
    config: &SystemConfig,
    seed: u64,
    policy: &SnapshotPolicy<'_>,
) -> Result<(RunResult, StagedInfo), SimError> {
    let nodes = config.noc.num_nodes();
    let make_source = || BenchmarkTraffic::new(benchmark, nodes, config.approx_ratio, seed);
    let store = if make_source().snapshot_supported() {
        policy.store
    } else {
        None
    };
    let total = config.warmup_cycles + config.sim_cycles;

    // Restores the `tag`-stage blob stored under `key` into a fresh
    // simulator and source and runs the rest of the cell from there. `None`
    // when the store holds no such blob or it fails to restore or to pass
    // `cycle_ok`: the half-restored pair is then discarded and the caller
    // falls through to the next way of obtaining the cell.
    let restore =
        |st: &SnapshotStore, key: &str, tag: u32, cycle_ok: &dyn Fn(u64) -> Result<(), String>| {
            let blob = st.get(key)?;
            let mut sim = fresh_sim(mechanism, config);
            let mut source = make_source();
            let thawed = thaw(&blob, tag, fnv1a64(key.as_bytes()), &mut sim, &mut source)
                .and_then(|()| cycle_ok(sim.cycle()));
            if let Err(msg) = thawed {
                if tag == STAGE_CHECKPOINT {
                    // A stale checkpoint is worse than none: drop it so the next
                    // resume does not trip over it again.
                    eprintln!("{key} unusable ({msg}); restarting the cell");
                    let _ = st.remove(key);
                } else {
                    // Counted as a cold cell, never a panic.
                    eprintln!("warmup snapshot '{key}' unusable ({msg}); replaying warmup");
                }
                return None;
            }
            let skipped = sim.cycle();
            if tag == STAGE_WARMUP {
                arm_measurement(&mut sim, mechanism, config);
            } else {
                // Mid-measurement state: re-arm the excluded pieces (threshold,
                // bound check) but do NOT begin a new measurement — the
                // restored one continues.
                rearm_thresholds(&mut sim, mechanism, config);
            }
            let finished = measure_and_finish_ckpt(
                &mut sim,
                &mut source,
                mechanism,
                config,
                store,
                policy.checkpoint_every,
                policy.cell_key.as_deref(),
                &mut Vec::new(),
            );
            Some(finished.map(|result| {
                let info = StagedInfo {
                    forked: tag == STAGE_WARMUP,
                    resumed: tag == STAGE_CHECKPOINT,
                    skipped_cycles: skipped,
                };
                (result, info)
            }))
        };

    // 1. Resume from the cell's last checkpoint.
    if let (true, Some(st), Some(ck)) = (policy.resume, store, policy.cell_key.as_deref()) {
        let in_window = |cycle: u64| {
            if cycle < config.warmup_cycles || cycle > total {
                Err(format!("checkpoint cycle {cycle} out of range"))
            } else {
                Ok(())
            }
        };
        if let Some(done) = restore(st, &checkpoint_key(ck), STAGE_CHECKPOINT, &in_window) {
            return done;
        }
    }

    // 2. Fork from the shared post-warmup snapshot.
    if let (Some(st), Some(wk)) = (store, policy.warmup_key.as_deref()) {
        let at_boundary = |cycle: u64| {
            if cycle == config.warmup_cycles {
                Ok(())
            } else {
                Err(format!(
                    "snapshot is at cycle {cycle}, warmup ends at {}",
                    config.warmup_cycles
                ))
            }
        };
        if let Some(done) = restore(st, wk, STAGE_WARMUP, &at_boundary) {
            return done;
        }
    }

    // 3. Cold: replay the warmup (publishing it for the sweep's next cells).
    let mut source = make_source();
    let result = cold_run(&mut source, mechanism, config, store, policy)?;
    Ok((result, StagedInfo::default()))
}

/// Summary statistics over repeated runs with different seeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeedSummary {
    /// Number of runs.
    pub runs: usize,
    /// Mean of the metric.
    pub mean: f64,
    /// Sample standard deviation (0 for a single run).
    pub std_dev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl SeedSummary {
    /// Summarises a set of observations.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "cannot summarise zero runs");
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = if values.len() < 2 {
            0.0
        } else {
            values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0)
        };
        SeedSummary {
            runs: values.len(),
            mean,
            std_dev: var.sqrt(),
            min: values.iter().cloned().fold(f64::INFINITY, f64::min),
            max: values.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// Runs `mechanism` under `benchmark`-shaped traffic once per seed and
/// summarises the average packet latency — the multi-seed rigour the paper's
/// single-trace methodology lacks.
pub fn run_benchmark_seeds(
    benchmark: Benchmark,
    mechanism: Mechanism,
    config: &SystemConfig,
    seeds: &[u64],
) -> SeedSummary {
    let latencies: Vec<f64> = seeds
        .iter()
        .map(|s| run_benchmark(benchmark, mechanism, config, *s).avg_packet_latency())
        .collect();
    SeedSummary::of(&latencies)
}

/// Runs `mechanism` under `benchmark`-shaped traffic.
pub fn run_benchmark(
    benchmark: Benchmark,
    mechanism: Mechanism,
    config: &SystemConfig,
    seed: u64,
) -> RunResult {
    let mut source =
        BenchmarkTraffic::new(benchmark, config.noc.num_nodes(), config.approx_ratio, seed);
    run_with_source(&mut source, mechanism, config)
}

/// Fallible [`run_benchmark`]: a watchdog or bound-checker abort comes back
/// as `Err` instead of panicking — the form fault-injection campaigns use.
pub fn try_run_benchmark(
    benchmark: Benchmark,
    mechanism: Mechanism,
    config: &SystemConfig,
    seed: u64,
) -> Result<RunResult, SimError> {
    let mut source =
        BenchmarkTraffic::new(benchmark, config.noc.num_nodes(), config.approx_ratio, seed);
    try_run_with_source(&mut source, mechanism, config)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SystemConfig {
        SystemConfig::paper().with_sim_cycles(4_000)
    }

    #[test]
    fn baseline_run_produces_traffic_and_latency() {
        let r = run_benchmark(Benchmark::Blackscholes, Mechanism::Baseline, &quick(), 1);
        assert!(r.stats.packets > 50, "packets {}", r.stats.packets);
        assert!(r.avg_packet_latency() > 5.0);
        assert!(r.throughput() > 0.0);
        assert_eq!(r.data_quality(), 1.0, "baseline is exact");
        assert_eq!(r.mechanism, Mechanism::Baseline);
        // Tail behaviour is recorded and ordered.
        assert_eq!(r.stats.latency_histogram.samples(), r.stats.packets);
        let (p50, p99) = (r.latency_percentile(50.0), r.latency_percentile(99.0));
        assert!(p50 as f64 <= r.avg_packet_latency() * 2.0);
        assert!(p99 >= p50, "p99 {p99} < p50 {p50}");
    }

    #[test]
    fn compression_reduces_injected_data_flits() {
        let cfg = quick();
        let base = run_benchmark(Benchmark::Ssca2, Mechanism::Baseline, &cfg, 2);
        let fp = run_benchmark(Benchmark::Ssca2, Mechanism::FpComp, &cfg, 2);
        assert_eq!(base.stats.normalized_data_flits(), 1.0);
        assert!(
            fp.stats.normalized_data_flits() < 0.95,
            "FP-COMP flits {}",
            fp.stats.normalized_data_flits()
        );
    }

    #[test]
    fn vaxx_compresses_more_than_exact_compression() {
        let cfg = quick();
        let fp = run_benchmark(Benchmark::Ssca2, Mechanism::FpComp, &cfg, 3);
        let vaxx = run_benchmark(Benchmark::Ssca2, Mechanism::FpVaxx, &cfg, 3);
        assert!(
            vaxx.stats.encode.encoded_fraction() > fp.stats.encode.encoded_fraction(),
            "vaxx {} vs fp {}",
            vaxx.stats.encode.encoded_fraction(),
            fp.stats.encode.encoded_fraction()
        );
        assert!(vaxx.stats.encode.approx_encoded > 0);
        assert_eq!(
            fp.stats.encode.approx_encoded, 0,
            "FP-COMP never approximates"
        );
    }

    #[test]
    fn vaxx_quality_stays_above_97_percent() {
        let cfg = quick();
        for m in [Mechanism::DiVaxx, Mechanism::FpVaxx] {
            let r = run_benchmark(Benchmark::Blackscholes, m, &cfg, 4);
            assert!(r.data_quality() > 0.97, "{m}: quality {}", r.data_quality());
        }
    }

    #[test]
    fn seed_summary_statistics() {
        let s = SeedSummary::of(&[10.0, 12.0, 14.0]);
        assert_eq!(s.runs, 3);
        assert!((s.mean - 12.0).abs() < 1e-12);
        assert!((s.std_dev - 2.0).abs() < 1e-12);
        assert_eq!((s.min, s.max), (10.0, 14.0));
        let single = SeedSummary::of(&[7.0]);
        assert_eq!(single.std_dev, 0.0);
    }

    #[test]
    fn multi_seed_runs_agree_within_noise() {
        let cfg = SystemConfig::paper().with_sim_cycles(1_500);
        let s = run_benchmark_seeds(Benchmark::Bodytrack, Mechanism::FpVaxx, &cfg, &[1, 2, 3]);
        assert_eq!(s.runs, 3);
        assert!(s.mean > 5.0);
        // Different seeds give different but same-regime results.
        assert!(s.std_dev < s.mean * 0.5, "{s:?}");
        assert!(s.min <= s.mean && s.mean <= s.max);
    }

    #[test]
    fn incomplete_drain_is_recorded_not_silently_finalized() {
        let mut cfg = quick();
        let full = run_benchmark(Benchmark::Blackscholes, Mechanism::Baseline, &cfg, 7);
        assert!(full.drained, "generous budget should drain completely");
        assert_eq!(full.stats.unfinished, 0);
        // A one-cycle drain budget cannot possibly flush in-flight packets.
        cfg.drain_cycles = 1;
        let cut = run_benchmark(Benchmark::Blackscholes, Mechanism::Baseline, &cfg, 7);
        assert!(!cut.drained, "1-cycle drain budget reported as complete");
        assert!(cut.stats.unfinished > 0, "stragglers not recorded");
    }

    #[test]
    fn automatic_shards_fit_the_budget_and_skip_small_meshes() {
        use anoc_exec::cell_thread_budget;
        let paper = SystemConfig::paper();
        assert_eq!(paper.shards, 0, "the paper config leaves shards unset");
        let routers = |w: usize, h: usize| anoc_noc::NocConfig::cmesh(w, h, 2).num_routers();
        // 4x4 and 8x8 stay serial whatever the budget.
        for threads in 1..=64 {
            assert_eq!(auto_shards(routers(4, 4), threads), 1);
            assert_eq!(auto_shards(routers(8, 8), threads), 1);
        }
        // big-mesh: one 16x16 cell on a 2-thread pool on 2 cores.
        assert_eq!(auto_shards(routers(16, 16), cell_thread_budget(2, 2, 1)), 2);
        // paper-matrix: 192 cells on 2 threads leave every cell serial.
        assert_eq!(
            auto_shards(routers(16, 16), cell_thread_budget(2, 2, 192)),
            1
        );
        // Never more shards than the cell's budget, so never more than the
        // pool's threads or the host's cores.
        for (w, h) in [(4, 4), (8, 8), (12, 12), (16, 16), (32, 32), (64, 64)] {
            for pool in 1..=8 {
                for cores in 1..=8 {
                    for cells in 1..=4 {
                        let budget = cell_thread_budget(pool, cores, cells);
                        let s = auto_shards(routers(w, h), budget);
                        assert!(s >= 1 && s <= budget && s <= pool && s <= cores);
                    }
                }
            }
        }
        // An explicit count always wins, 1 included; only an unset one is
        // chosen automatically.
        let big = SystemConfig {
            noc: anoc_noc::NocConfig::cmesh_16x16(),
            ..SystemConfig::paper()
        };
        for threads in [1, 2, 8] {
            assert_eq!(run_shards(&big.clone().with_shards(1), threads), 1);
            assert_eq!(run_shards(&big.clone().with_shards(3), threads), 3);
            assert_eq!(run_shards(&paper.clone().with_shards(4), threads), 4);
            assert_eq!(run_shards(&big, threads), auto_shards(256, threads));
        }
        assert_eq!(run_shards(&big, 2), 2);
        assert_eq!(run_shards(&paper, 2), 1);
    }

    #[test]
    fn sharded_runs_match_serial_runs_exactly() {
        let cfg = quick();
        let serial = run_benchmark(Benchmark::Ssca2, Mechanism::FpVaxx, &cfg, 9);
        let sharded = run_benchmark(
            Benchmark::Ssca2,
            Mechanism::FpVaxx,
            &cfg.clone().with_shards(4),
            9,
        );
        assert_eq!(
            format!("{:?}", serial.stats),
            format!("{:?}", sharded.stats)
        );
        assert_eq!(serial.total_cycles, sharded.total_cycles);
        assert_eq!(serial.drained, sharded.drained);
    }

    #[test]
    fn exact_mechanisms_preserve_data_perfectly() {
        let cfg = quick();
        for m in [Mechanism::DiComp, Mechanism::FpComp] {
            let r = run_benchmark(Benchmark::Streamcluster, m, &cfg, 5);
            assert_eq!(r.data_quality(), 1.0, "{m} corrupted data");
        }
    }

    fn temp_store(name: &str) -> SnapshotStore {
        let dir = std::env::temp_dir().join(format!("anoc-runner-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        SnapshotStore::open(dir).expect("open temp store")
    }

    /// Regression for the zero-warmup corner: `begin_measurement` arming
    /// used to hinge on the loop hitting `cycle == warmup_cycles`, which a
    /// zero-cycle run never did — statistics came back from an unarmed
    /// window.
    #[test]
    fn zero_warmup_and_zero_window_still_arm_measurement() {
        let mut cfg = SystemConfig::paper();
        cfg.warmup_cycles = 0;
        cfg.sim_cycles = 0;
        let r = try_run_benchmark(Benchmark::Blackscholes, Mechanism::Baseline, &cfg, 1)
            .expect("empty run completes");
        assert!(r.drained, "nothing in flight, drain is trivially complete");
        assert_eq!(r.stats.packets, 0);
        assert_eq!(r.stats.unfinished, 0);
        assert_eq!(r.total_cycles, 0);
    }

    #[test]
    fn zero_warmup_measures_from_cycle_zero() {
        let mut cfg = SystemConfig::paper().with_sim_cycles(2_000);
        cfg.warmup_cycles = 0;
        let r =
            try_run_benchmark(Benchmark::Ssca2, Mechanism::FpComp, &cfg, 6).expect("run completes");
        assert_eq!(r.stats.cycles, 2_000, "window covers the whole run");
        assert!(r.stats.packets > 0, "cycle-0 injections are measured");
    }

    #[test]
    fn forked_run_matches_cold_run_bit_for_bit() {
        let store = temp_store("fork");
        let cfg = SystemConfig::paper().with_sim_cycles(2_500);
        let (bench, seed) = (Benchmark::Ssca2, 13);
        for mech in Mechanism::EVERY {
            let wk = format!("warmup fork-test {mech}");
            let ck = format!("cell fork-test {mech}");
            assert!(
                publish_benchmark_warmup(bench, mech, &cfg, seed, &store, &wk)
                    .expect("warmup runs"),
                "{mech}: first publish simulates the warmup"
            );
            assert!(
                !publish_benchmark_warmup(bench, mech, &cfg, seed, &store, &wk).expect("no-op"),
                "{mech}: second publish is a store hit"
            );
            let policy = SnapshotPolicy {
                store: Some(&store),
                warmup_key: Some(wk.clone()),
                cell_key: Some(ck.clone()),
                checkpoint_every: 700,
                resume: false,
            };
            let (warm, info) =
                try_run_benchmark_snap(bench, mech, &cfg, seed, &policy).expect("forked run");
            assert!(info.forked && !info.resumed, "{mech}");
            assert_eq!(info.skipped_cycles, cfg.warmup_cycles);
            let cold = try_run_benchmark(bench, mech, &cfg, seed).expect("cold run");
            assert_eq!(
                crate::persist::encode_run_result(&warm),
                crate::persist::encode_run_result(&cold),
                "{mech}: forking the warmup changed the measured result"
            );
            assert!(
                store.get(&checkpoint_key(&ck)).is_none(),
                "{mech}: completed cell retires its checkpoint"
            );
            // A corrupt warmup blob degrades to a cold cell with the same
            // result.
            store.put(&wk, b"garbage").expect("corrupt");
            let (fallback, info) =
                try_run_benchmark_snap(bench, mech, &cfg, seed, &policy).expect("fallback run");
            assert!(!info.forked && info.skipped_cycles == 0, "{mech}");
            assert_eq!(
                crate::persist::encode_run_result(&fallback),
                crate::persist::encode_run_result(&cold),
                "{mech}"
            );
        }
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// Regression: a forked QoS run must reprogram the encoders from the
    /// snapshot's per-node installed percents. The staged path builds its
    /// sims with exact-threshold codecs, and under QoS `arm_measurement`
    /// deliberately skips the global retarget — so without the restore-side
    /// reprogram the whole measurement window runs at the exact threshold
    /// (quality 1.0, no approximation) and silently diverges from cold.
    #[test]
    fn forked_qos_run_matches_cold_run_bit_for_bit() {
        let store = temp_store("fork-qos");
        let cfg = SystemConfig::paper()
            .with_sim_cycles(2_500)
            .with_qos(anoc_core::control::QosSpec::paper(970_000))
            .with_loss(anoc_noc::LossPlan::scaled(3, 5_000, 100));
        let (bench, mech, seed) = (Benchmark::Blackscholes, Mechanism::FpVaxx, 13);
        let wk = "warmup fork-qos-test";
        assert!(
            publish_benchmark_warmup(bench, mech, &cfg, seed, &store, wk).expect("warmup runs"),
            "first publish simulates the warmup"
        );
        let policy = SnapshotPolicy {
            store: Some(&store),
            warmup_key: Some(wk.into()),
            cell_key: None,
            checkpoint_every: 0,
            resume: false,
        };
        let (warm, info) =
            try_run_benchmark_snap(bench, mech, &cfg, seed, &policy).expect("forked run");
        assert!(info.forked && !info.resumed);
        let cold = try_run_benchmark(bench, mech, &cfg, seed).expect("cold run");
        assert!(
            cold.data_quality() < 1.0,
            "QoS measurement window must actually approximate"
        );
        assert!(cold.stats.faults.words_lost > 0, "loss plan must be live");
        assert_eq!(
            crate::persist::encode_run_result(&warm),
            crate::persist::encode_run_result(&cold),
            "forking the warmup changed the measured QoS result"
        );
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn resume_from_checkpoint_is_bit_identical_and_retires_it() {
        let store = temp_store("resume");
        let cfg = SystemConfig::paper().with_sim_cycles(3_000);
        let (bench, seed) = (Benchmark::Ssca2, 11);
        for mech in Mechanism::EVERY {
            let cold = try_run_benchmark(bench, mech, &cfg, seed).expect("cold reference");
            // Reproduce a killed cell: warmup + 600 measured cycles,
            // checkpoint, then "die".
            let mut source =
                BenchmarkTraffic::new(bench, cfg.noc.num_nodes(), cfg.approx_ratio, seed);
            let mut sim = fresh_sim(mech, &cfg);
            let mut buf = Vec::new();
            drive(&mut sim, &mut source, cfg.warmup_cycles, &mut buf).expect("warmup");
            arm_measurement(&mut sim, mech, &cfg);
            drive(&mut sim, &mut source, cfg.warmup_cycles + 600, &mut buf).expect("measure");
            let ck = format!("cell resume-test {mech}");
            publish(
                &store,
                &checkpoint_key(&ck),
                STAGE_CHECKPOINT,
                &sim,
                &source,
            );
            assert!(
                store.get(&checkpoint_key(&ck)).is_some(),
                "checkpoint saved"
            );
            drop(sim);
            let policy = SnapshotPolicy {
                store: Some(&store),
                warmup_key: None,
                cell_key: Some(ck.clone()),
                checkpoint_every: 0,
                resume: true,
            };
            let (resumed, info) =
                try_run_benchmark_snap(bench, mech, &cfg, seed, &policy).expect("resumed run");
            assert!(info.resumed && !info.forked, "{mech}");
            assert_eq!(info.skipped_cycles, cfg.warmup_cycles + 600);
            assert_eq!(
                crate::persist::encode_run_result(&resumed),
                crate::persist::encode_run_result(&cold),
                "{mech}: resuming mid-measurement changed the result"
            );
            assert!(
                store.get(&checkpoint_key(&ck)).is_none(),
                "{mech}: completed cell retires its checkpoint"
            );
        }
        let _ = std::fs::remove_dir_all(store.dir());
    }
}

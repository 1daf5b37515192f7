//! The traced run: the same cells as the untraced run, driven through a
//! mirror of `anoc_harness::runner`'s staged path built on the crates'
//! public API, with every call into a layer timed from here.
//!
//! The program itself carries no clock or probe. Instead this module wraps
//! every node's `BlockEncoder`/`BlockDecoder` in a delegating timer, times
//! `TrafficSource::tick` and each `NocSim` call at the call site, and records
//! spans for campaigns, cells, warmups and run stages. The mirror must
//! reproduce each cell's statistics bit for bit; the caller compares digests
//! with the untraced run and rejects the trace if any differs.

use std::sync::Mutex;

use anoc_core::codec::{
    BlockDecoder, BlockEncoder, CodecActivity, DecodeResult, EncodedBlock, Notification,
};
use anoc_core::snap::{SnapError, SnapReader, SnapWriter};
use anoc_core::threshold::ErrorThreshold;
use anoc_core::{CacheBlock, NodeId};
use anoc_exec::hash::fnv1a64;
use anoc_exec::{CampaignReport, JobSpec, SnapshotStore};
use anoc_harness::campaign::{cell_key, context, warmup_key};
use anoc_harness::runner::checkpoint_key;
use anoc_harness::{Mechanism, RunResult, SystemConfig};
use anoc_noc::{NocSim, NodeCodec, SimError};
use anoc_traffic::{BenchmarkTraffic, Injection, TrafficSource};

use crate::ledger::{self, Layer};
use crate::workloads::{BenchCell, Plan, SynthCell, Workload};

/// A block encoder that times every `encode` and delegates everything else.
struct TimedEncoder {
    inner: Box<dyn BlockEncoder>,
    slot: usize,
}

impl BlockEncoder for TimedEncoder {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn encode(&mut self, block: &CacheBlock, dest: NodeId) -> EncodedBlock {
        let inner = &mut self.inner;
        ledger::timed(self.slot, || inner.encode(block, dest))
    }
    fn compression_latency(&self) -> u64 {
        self.inner.compression_latency()
    }
    fn apply_notification(&mut self, from: NodeId, note: Notification) {
        self.inner.apply_notification(from, note);
    }
    fn activity(&self) -> CodecActivity {
        self.inner.activity()
    }
    fn inject_table_fault(&mut self, entropy: u64) -> bool {
        self.inner.inject_table_fault(entropy)
    }
    fn set_error_threshold(&mut self, threshold: ErrorThreshold) {
        self.inner.set_error_threshold(threshold);
    }
    fn save_state(&self, w: &mut SnapWriter) {
        self.inner.save_state(w);
    }
    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.inner.load_state(r)
    }
}

/// A block decoder that times every `decode` and delegates everything else.
struct TimedDecoder {
    inner: Box<dyn BlockDecoder>,
    slot: usize,
}

impl BlockDecoder for TimedDecoder {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn decode(&mut self, encoded: &EncodedBlock, src: NodeId) -> DecodeResult {
        let inner = &mut self.inner;
        ledger::timed(self.slot, || inner.decode(encoded, src))
    }
    fn decompression_latency(&self) -> u64 {
        self.inner.decompression_latency()
    }
    fn activity(&self) -> CodecActivity {
        self.inner.activity()
    }
    fn save_state(&self, w: &mut SnapWriter) {
        self.inner.save_state(w);
    }
    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.inner.load_state(r)
    }
}

/// `mech`'s codec pairs for `nodes` nodes at the exact threshold, each
/// wrapped in a timer.
fn timed_codecs(mech: Mechanism, nodes: usize) -> Vec<NodeCodec> {
    let (enc, dec) = (
        ledger::encode_slot(mech.name()),
        ledger::decode_slot(mech.name()),
    );
    mech.codecs(nodes, ErrorThreshold::exact())
        .into_iter()
        .map(|c| {
            NodeCodec::new(
                Box::new(TimedEncoder {
                    inner: c.encoder,
                    slot: enc,
                }),
                Box::new(TimedDecoder {
                    inner: c.decoder,
                    slot: dec,
                }),
            )
        })
        .collect()
}

/// Host-independent work the traced cells did, beyond what results carry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Cycles actually stepped (forked warmups excluded, shared warmups
    /// included).
    pub cycles: u64,
    /// Injections offered by the traffic sources.
    pub injections: u64,
    /// Of which data packets.
    pub data_injections: u64,
    /// Largest number of packets in flight after any step.
    pub outstanding_peak: u64,
    /// Cells whose warmup was forked from a snapshot.
    pub forked_cells: u64,
    /// Cells that simulated.
    pub executed_cells: u64,
    /// Snapshot bytes written to the store.
    pub snapshot_bytes: u64,
}

impl Work {
    fn merge(&mut self, o: &Work) {
        self.cycles += o.cycles;
        self.injections += o.injections;
        self.data_injections += o.data_injections;
        self.outstanding_peak = self.outstanding_peak.max(o.outstanding_peak);
        self.forked_cells += o.forked_cells;
        self.executed_cells += o.executed_cells;
        self.snapshot_bytes += o.snapshot_bytes;
    }
}

static WORK: Mutex<Work> = Mutex::new(Work {
    cycles: 0,
    injections: 0,
    data_injections: 0,
    outstanding_peak: 0,
    forked_cells: 0,
    executed_cells: 0,
    snapshot_bytes: 0,
});

fn add_work(w: &Work) {
    WORK.lock().expect("work totals poisoned").merge(w);
}

/// The work recorded so far; the totals are reset.
pub fn take_work() -> Work {
    std::mem::take(&mut *WORK.lock().expect("work totals poisoned"))
}

/// Stage tag of a post-warmup snapshot, as the staged runner frames it.
const STAGE_WARMUP: u32 = 1;

/// A fresh staged-path simulator with timed codecs.
fn fresh_sim(mech: Mechanism, cfg: &SystemConfig) -> NocSim {
    let codecs = timed_codecs(mech, cfg.noc.num_nodes());
    let mut sim = ledger::timed(ledger::SIM_NEW, || NocSim::new(cfg.noc.clone(), codecs));
    sim.set_shards(cfg.shards);
    sim.set_fault_plan(cfg.faults);
    sim.set_loss_plan(cfg.loss);
    sim.set_qos(cfg.qos);
    sim.set_watchdog(cfg.watchdog_horizon);
    sim
}

/// Offers one cycle of traffic and advances the simulator.
fn step_cycle(
    sim: &mut NocSim,
    source: &mut dyn TrafficSource,
    buf: &mut Vec<Injection>,
    work: &mut Work,
) -> Result<(), SimError> {
    buf.clear();
    let cycle = sim.cycle();
    ledger::timed(ledger::TICK, || source.tick(cycle, buf));
    work.injections += buf.len() as u64;
    for inj in buf.drain(..) {
        ledger::timed(ledger::ENQUEUE, || match inj.payload {
            Some(block) => {
                sim.enqueue_data(inj.src, inj.dest, block);
                work.data_injections += 1;
            }
            None => {
                sim.enqueue_control(inj.src, inj.dest);
            }
        });
    }
    ledger::timed(ledger::STEP, || sim.step());
    work.cycles += 1;
    if let Some(e) = sim.take_fatal_error() {
        return Err(e);
    }
    sim.discard_delivered();
    work.outstanding_peak = work.outstanding_peak.max(sim.outstanding_packets() as u64);
    Ok(())
}

fn drive(
    sim: &mut NocSim,
    source: &mut dyn TrafficSource,
    until: u64,
    buf: &mut Vec<Injection>,
    work: &mut Work,
) -> Result<(), SimError> {
    while sim.cycle() < until {
        step_cycle(sim, source, buf, work)?;
    }
    Ok(())
}

/// The measurement boundary: retarget, arm the bound checker, measure.
fn arm_measurement(sim: &mut NocSim, cfg: &SystemConfig) {
    if !cfg.qos.is_active() {
        sim.set_error_threshold(cfg.threshold());
    }
    sim.set_bound_check(cfg.bound_threshold());
    sim.begin_measurement();
}

/// The measurement window and drain, assembling the result.
fn measure_and_finish(
    sim: &mut NocSim,
    source: &mut dyn TrafficSource,
    mech: Mechanism,
    cfg: &SystemConfig,
    retire: Option<(&SnapshotStore, &str)>,
    work: &mut Work,
) -> Result<RunResult, SimError> {
    let mut buf = Vec::new();
    let total = cfg.warmup_cycles + cfg.sim_cycles;
    ledger::span("stage measure", Layer::Runner, None, |_| {
        drive(sim, source, total, &mut buf, work)
    })?;
    ledger::span("stage drain", Layer::Runner, None, |_| {
        sim.end_measurement();
        let before = sim.cycle();
        let drained = ledger::timed(ledger::DRAIN, || sim.try_drain(cfg.drain_cycles))?;
        work.cycles += sim.cycle() - before;
        sim.discard_delivered();
        sim.record_unfinished();
        if let Some((store, ck)) = retire {
            let _ = store.remove(&checkpoint_key(ck));
        }
        Ok(RunResult {
            mechanism: mech,
            stats: sim.stats().clone(),
            activity: sim.activity_report(),
            nodes: cfg.noc.num_nodes(),
            total_cycles: sim.cycle(),
            drained,
        })
    })
}

/// Publishes the post-warmup state under `key`, framed as the staged
/// runner frames it.
fn publish(
    store: &SnapshotStore,
    key: &str,
    sim: &NocSim,
    source: &dyn TrafficSource,
    work: &mut Work,
) {
    let sim_blob = match ledger::timed(ledger::SNAP_SAVE, || {
        sim.save_snapshot(fnv1a64(key.as_bytes()))
    }) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("snapshot save for '{key}' refused: {e}");
            return;
        }
    };
    let mut w = SnapWriter::new();
    w.u32(STAGE_WARMUP);
    w.u64(sim_blob.len() as u64);
    w.bytes(&sim_blob);
    source.save_state(&mut w);
    let blob = w.into_bytes();
    work.snapshot_bytes += blob.len() as u64;
    if let Err(e) = ledger::timed(ledger::STORE_PUT, || store.put(key, &blob)) {
        eprintln!("snapshot write for '{key}' failed: {e}");
    }
}

/// Restores a post-warmup blob into a fresh simulator and source.
fn thaw(
    blob: &[u8],
    key: &str,
    sim: &mut NocSim,
    source: &mut dyn TrafficSource,
) -> Result<(), String> {
    let mut r = SnapReader::new(blob);
    let tag = r.u32().map_err(|e| format!("stage tag: {e}"))?;
    if tag != STAGE_WARMUP {
        return Err(format!("unexpected stage tag {tag}"));
    }
    let len = r.u64().map_err(|e| format!("sim-blob length: {e}"))?;
    let len = usize::try_from(len).map_err(|_| "sim-blob length overflows".to_string())?;
    let sim_blob = r.bytes(len).map_err(|e| format!("sim blob: {e}"))?;
    ledger::timed(ledger::SNAP_RESTORE, || {
        sim.restore_snapshot(sim_blob, fnv1a64(key.as_bytes()))
    })
    .map_err(|e| e.to_string())?;
    source
        .load_state(&mut r)
        .map_err(|e| format!("traffic state: {e}"))?;
    if !r.is_exhausted() {
        return Err("trailing bytes after traffic state".into());
    }
    Ok(())
}

/// The cold staged path: warmup (publishing it when a store is given),
/// retarget, measure, drain.
fn cold_run(
    source: &mut dyn TrafficSource,
    mech: Mechanism,
    cfg: &SystemConfig,
    publish_to: Option<(&SnapshotStore, &str)>,
    retire: Option<(&SnapshotStore, &str)>,
    work: &mut Work,
) -> Result<RunResult, SimError> {
    let mut sim = fresh_sim(mech, cfg);
    ledger::span("stage warmup", Layer::Runner, None, |_| {
        let mut buf = Vec::new();
        drive(&mut sim, source, cfg.warmup_cycles, &mut buf, work)?;
        if let Some((store, key)) = publish_to {
            if source.snapshot_supported() {
                publish(store, key, &sim, source, work);
            }
        }
        Ok::<(), SimError>(())
    })?;
    arm_measurement(&mut sim, cfg);
    measure_and_finish(&mut sim, source, mech, cfg, retire, work)
}

/// One benchmark cell: fork from the shared warmup snapshot when the store
/// holds it, else run cold (publishing the warmup).
fn bench_cell(
    c: &BenchCell,
    store: Option<&SnapshotStore>,
    work: &mut Work,
) -> Result<RunResult, SimError> {
    let nodes = c.cfg.noc.num_nodes();
    let make_source = || BenchmarkTraffic::new(c.bench, nodes, c.cfg.approx_ratio, c.seed);
    let store = store.filter(|_| make_source().snapshot_supported());
    let wk = warmup_key("bench", &c.cfg, c.mech.name(), c.bench.name(), c.seed);
    let ck = cell_key("bench", &c.cfg, c.mech.name(), c.bench.name(), c.seed);
    let retire = store.map(|s| (s, ck.as_str()));
    work.executed_cells += 1;
    if let Some(st) = store {
        if let Some(blob) = ledger::timed(ledger::STORE_GET, || st.get(&wk)) {
            let mut sim = fresh_sim(c.mech, &c.cfg);
            let mut source = make_source();
            let thawed = ledger::span("stage fork", Layer::Runner, None, |_| {
                thaw(&blob, &wk, &mut sim, &mut source).and_then(|()| {
                    if sim.cycle() == c.cfg.warmup_cycles {
                        Ok(())
                    } else {
                        Err(format!("snapshot is at cycle {}", sim.cycle()))
                    }
                })
            });
            match thawed {
                Ok(()) => {
                    work.forked_cells += 1;
                    arm_measurement(&mut sim, &c.cfg);
                    return measure_and_finish(&mut sim, &mut source, c.mech, &c.cfg, retire, work);
                }
                Err(msg) => eprintln!("warmup snapshot '{wk}' unusable ({msg}); replaying warmup"),
            }
        }
    }
    let mut source = make_source();
    cold_run(
        &mut source,
        c.mech,
        &c.cfg,
        store.map(|s| (s, wk.as_str())),
        retire,
        work,
    )
}

/// The shared warmup stage of a benchmark cell: simulate the warmup and
/// publish it, unless the store already holds it.
fn bench_warmup(c: &BenchCell, store: &SnapshotStore, work: &mut Work) -> Result<(), SimError> {
    let wk = warmup_key("bench", &c.cfg, c.mech.name(), c.bench.name(), c.seed);
    if ledger::timed(ledger::STORE_GET, || store.get(&wk)).is_some() {
        return Ok(());
    }
    let mut source =
        BenchmarkTraffic::new(c.bench, c.cfg.noc.num_nodes(), c.cfg.approx_ratio, c.seed);
    let mut sim = fresh_sim(c.mech, &c.cfg);
    ledger::span("stage warmup", Layer::Runner, None, |_| {
        let mut buf = Vec::new();
        drive(&mut sim, &mut source, c.cfg.warmup_cycles, &mut buf, work)?;
        publish(store, &wk, &sim, &source, work);
        Ok(())
    })
}

/// The big-mesh simulation through the cold staged path.
fn synth_cell(c: &SynthCell, work: &mut Work) -> Result<RunResult, SimError> {
    let mut source = c.source();
    work.executed_cells += 1;
    cold_run(&mut source, Mechanism::Baseline, &c.cfg, None, None, work)
}

/// Runs `f` as a cell span on a pool thread, then hands the thread's folds
/// and work to the shared totals.
fn on_worker<T>(name: String, parent: u64, f: impl FnOnce(&mut Work) -> T) -> T {
    let mut work = Work::default();
    let r = ledger::span(name, Layer::Runner, Some(parent), |_| f(&mut work));
    add_work(&work);
    ledger::flush();
    r
}

/// The traced jobs of one campaign pass, children of span `parent`.
fn traced_jobs(plan: &Plan, parent: u64) -> Vec<JobSpec<Result<RunResult, String>>> {
    let ctx = context();
    match plan {
        Plan::Bench(cells) => cells
            .iter()
            .map(|c| {
                let id = format!("{}/{}/s{}", c.bench.name(), c.mech.name(), c.seed);
                let key = cell_key("bench", &c.cfg, c.mech.name(), c.bench.name(), c.seed);
                let cell = c.clone();
                let name = format!("cell {id} t{}", c.cfg.threshold_percent);
                let job = JobSpec::new(id, key, move || {
                    on_worker(name, parent, |w| bench_cell(&cell, ctx.snapshots(), w))
                        .map_err(|e| e.to_string())
                });
                match ctx.snapshots() {
                    Some(store) => {
                        let wk = warmup_key("bench", &c.cfg, c.mech.name(), c.bench.name(), c.seed);
                        let cell = c.clone();
                        let name =
                            format!("warmup {}/{}/s{}", c.bench.name(), c.mech.name(), c.seed);
                        job.with_warmup(wk.clone(), move || {
                            let r = on_worker(name, parent, |w| bench_warmup(&cell, store, w));
                            if let Err(e) = r {
                                eprintln!(
                                    "warmup '{wk}' failed ({e}); its cells replay the warmup"
                                );
                            }
                        })
                    }
                    None => job,
                }
            })
            .collect(),
        Plan::Synth(cell) => {
            let c = cell.clone();
            vec![JobSpec::new("big-mesh", cell.key(), move || {
                on_worker("cell big-mesh".into(), parent, |w| synth_cell(&c, w))
                    .map_err(|e| e.to_string())
            })]
        }
    }
}

/// Outcome of a traced workload execution.
pub struct TracedExecution {
    /// Pass-1 results in plan order (`None` for a failed cell).
    pub results: Vec<Option<RunResult>>,
    /// The warm sweep's pass-2 results.
    pub pass2: Option<Vec<Option<RunResult>>>,
    /// Campaign reports, in order.
    pub reports: Vec<CampaignReport>,
    /// Failed cells.
    pub failed_cells: usize,
    /// Ids of the campaign spans.
    pub campaign_spans: Vec<u64>,
}

/// Runs a planned workload traced, on the installed context.
pub fn execute(workload: Workload, plan: &Plan) -> TracedExecution {
    let ctx = context();
    let passes = workload.passes();
    let mut outputs = Vec::new();
    let mut failed_cells = 0;
    let mut campaign_spans = Vec::new();
    let mut reports = Vec::new();
    for pass in 1..=passes {
        let label = format!("{} pass {pass}", workload.name());
        let (results, failures, report) =
            ledger::span(format!("campaign {label}"), Layer::Exec, None, |id| {
                campaign_spans.push(id);
                ctx.run_checked(&label, traced_jobs(plan, id))
            });
        failed_cells += failures.len();
        reports.push(report);
        outputs.push(results);
    }
    let pass2 = (passes == 2).then(|| outputs.pop().expect("two passes"));
    TracedExecution {
        results: outputs.pop().expect("one pass"),
        pass2,
        reports,
        failed_cells,
        campaign_spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anoc_harness::persist::encode_run_result;
    use anoc_harness::runner::{
        publish_benchmark_warmup, try_run_benchmark, try_run_benchmark_snap, SnapshotPolicy,
    };
    use anoc_traffic::Benchmark;

    fn cell(mech: Mechanism) -> BenchCell {
        BenchCell {
            bench: Benchmark::X264,
            mech,
            cfg: SystemConfig::paper().with_sim_cycles(600),
            seed: 5,
        }
    }

    fn temp_store(name: &str) -> SnapshotStore {
        let dir = std::env::temp_dir().join(format!("perfbench-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        SnapshotStore::open(dir).expect("open temp store")
    }

    #[test]
    fn wrapped_codecs_reproduce_unwrapped_runs_bit_for_bit() {
        for mech in [Mechanism::FpVaxx, Mechanism::DiVaxx, Mechanism::LzVaxx] {
            let c = cell(mech);
            let plain = try_run_benchmark(c.bench, mech, &c.cfg, c.seed).expect("plain run");
            let traced = bench_cell(&c, None, &mut Work::default()).expect("traced run");
            assert_eq!(
                encode_run_result(&plain),
                encode_run_result(&traced),
                "{mech}"
            );
        }
    }

    #[test]
    fn snapshots_round_trip_through_the_wrapped_codecs() {
        for mech in [Mechanism::FpVaxx, Mechanism::DiVaxx, Mechanism::LzVaxx] {
            let c = cell(mech);
            let cold = try_run_benchmark(c.bench, mech, &c.cfg, c.seed).expect("cold run");
            // Published through the wrappers, forked through the wrappers.
            let store = temp_store(&format!("wrap-{}", mech.name()));
            bench_warmup(&c, &store, &mut Work::default()).expect("warmup");
            let mut work = Work::default();
            let forked = bench_cell(&c, Some(&store), &mut work).expect("forked run");
            assert_eq!(work.forked_cells, 1, "{mech}: the cell forked");
            assert_eq!(
                encode_run_result(&cold),
                encode_run_result(&forked),
                "{mech}"
            );
            // The program forks the wrapper's blob, and the wrapper the program's.
            let wk = warmup_key("bench", &c.cfg, mech.name(), c.bench.name(), c.seed);
            let policy = SnapshotPolicy {
                store: Some(&store),
                warmup_key: Some(wk.clone()),
                ..SnapshotPolicy::default()
            };
            let (program, info) = try_run_benchmark_snap(c.bench, mech, &c.cfg, c.seed, &policy)
                .expect("program fork");
            assert!(info.forked, "{mech}: program forked the wrapper's snapshot");
            assert_eq!(
                encode_run_result(&cold),
                encode_run_result(&program),
                "{mech}"
            );
            store.clear().expect("clear store");
            assert!(
                publish_benchmark_warmup(c.bench, mech, &c.cfg, c.seed, &store, &wk)
                    .expect("publish")
            );
            let mut work = Work::default();
            let forked = bench_cell(&c, Some(&store), &mut work).expect("forked run");
            assert_eq!(
                work.forked_cells, 1,
                "{mech}: forked the program's snapshot"
            );
            assert_eq!(
                encode_run_result(&cold),
                encode_run_result(&forked),
                "{mech}"
            );
            let _ = std::fs::remove_dir_all(store.dir());
        }
    }
}

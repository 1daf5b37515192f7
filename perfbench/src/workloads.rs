//! The three named workloads, their inputs derived from the workload seed,
//! and their untraced execution through the program's own campaign API.

use std::cell::Cell;
use std::sync::Mutex;
use std::time::Instant;

use anoc_exec::{run_campaign, CampaignOptions, CampaignReport, JobSpec, ThreadPool};
use anoc_harness::campaign::{cell_key, checked_benchmark_job, context, pattern_tag};
use anoc_harness::persist::encode_run_result;
use anoc_harness::runner::{try_run_benchmark, try_run_with_source};
use anoc_harness::{Mechanism, RunResult, SystemConfig};
use anoc_noc::{NocConfig, NocSim};
use anoc_traffic::{Benchmark, DataPool, DestPattern, SyntheticTraffic};

/// Campaign worker threads (the host has two cores).
pub const THREADS: usize = 2;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figures 9-11: every benchmark against every compared mechanism on the
    /// paper's 4x4 concentrated mesh; no cache, no snapshots.
    PaperMatrix,
    /// One long Baseline simulation of a 16x16 concentrated mesh under
    /// uniform-random traffic just below saturation.
    BigMesh,
    /// A threshold x approx-ratio sweep run twice against a fresh result
    /// cache and snapshot store: pass 1 simulates (forking every threshold
    /// variant from a shared warmup), pass 2 is answered by the cache.
    WarmSweep,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::PaperMatrix,
        Workload::BigMesh,
        Workload::WarmSweep,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMatrix => "paper-matrix",
            Workload::BigMesh => "big-mesh",
            Workload::WarmSweep => "warm-sweep",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs with a result cache and snapshot store.
    pub fn uses_stores(self) -> bool {
        self == Workload::WarmSweep
    }

    /// Campaign passes: the warm sweep re-plans its campaign once against
    /// the cache it filled.
    pub fn passes(self) -> usize {
        if self.uses_stores() {
            2
        } else {
            1
        }
    }
}

/// The mechanisms of the paper matrix (the paper's five plus LZ-VAXX).
const MATRIX_MECHS: [Mechanism; 6] = [
    Mechanism::Baseline,
    Mechanism::FpComp,
    Mechanism::FpVaxx,
    Mechanism::DiComp,
    Mechanism::DiVaxx,
    Mechanism::LzVaxx,
];
/// Repetitions of the benchmark x mechanism matrix: 8 x 6 x 4 = 192 cells.
/// Every cell draws its own traffic seed: the bursty benchmark traffic makes
/// one realisation's latency vary widely, and 192 independent realisations
/// keep the aggregate steady from one workload seed to the next.
const MATRIX_SEEDS: u64 = 4;
/// Measured cycles of one paper-matrix cell.
const MATRIX_CYCLES: u64 = 4_000;

/// Measured cycles of the big-mesh simulation.
const BIG_CYCLES: u64 = 15_000;
/// Offered load of the big-mesh simulation in flits/node/cycle.
const BIG_RATE: f64 = 0.085;

/// Mechanisms of the warm sweep.
const SWEEP_MECHS: [Mechanism; 2] = [Mechanism::FpVaxx, Mechanism::DiVaxx];
/// Benchmarks of the warm sweep.
const SWEEP_BENCHES: [Benchmark; 8] = Benchmark::ALL;
/// Error thresholds of the warm sweep (percent).
const SWEEP_THRESHOLDS: [u32; 3] = [5, 10, 20];
/// Traffic seeds per (benchmark, mechanism, ratio) warmup group of the warm
/// sweep: 8 x 2 x 2 x 4 = 128 groups of 3 threshold variants, 384 cells.
const SWEEP_SEEDS: u64 = 4;
/// Approximable-packet ratios of the warm sweep.
const SWEEP_RATIOS: [f64; 2] = [0.5, 0.75];
/// Measured cycles of one warm-sweep cell.
const SWEEP_CYCLES: u64 = 4_000;
/// Warm-sweep cells re-simulated cold to check the forked and cached ones.
const SWEEP_COLD_CHECKS: usize = 12;

/// One benchmark-traffic simulation cell.
#[derive(Debug, Clone)]
pub struct BenchCell {
    /// Data model and traffic profile.
    pub bench: Benchmark,
    /// Compression mechanism.
    pub mech: Mechanism,
    /// System configuration.
    pub cfg: SystemConfig,
    /// Traffic seed.
    pub seed: u64,
}

/// The big-mesh simulation.
#[derive(Debug, Clone)]
pub struct SynthCell {
    /// System configuration (16x16 concentrated mesh).
    pub cfg: SystemConfig,
    /// Benchmark whose data model fills the payload pool.
    pub pool_bench: Benchmark,
    /// Offered load in flits/node/cycle.
    pub rate: f64,
    /// Traffic seed.
    pub seed: u64,
}

impl SynthCell {
    /// The cell's traffic source, freshly seeded.
    pub fn source(&self) -> SyntheticTraffic {
        SyntheticTraffic::new(
            DestPattern::UniformRandom,
            self.cfg.noc.num_nodes(),
            DataPool::from_benchmark(self.pool_bench, 512, self.seed),
            self.rate,
            0.25,
            self.cfg.approx_ratio,
            self.seed,
        )
    }

    /// The cell's content key, in the style of the Figure 12 cells.
    pub fn key(&self) -> String {
        let work = format!(
            "perfbench big-mesh bench={} pat={} rate={:016x} dr=3fd0000000000000 pool=512",
            self.pool_bench.name(),
            pattern_tag(DestPattern::UniformRandom),
            self.rate.to_bits()
        );
        cell_key(
            "synth",
            &self.cfg,
            Mechanism::Baseline.name(),
            &work,
            self.seed,
        )
    }
}

/// A workload's inputs.
#[derive(Debug, Clone)]
pub enum Plan {
    /// A campaign of benchmark-traffic cells.
    Bench(Vec<BenchCell>),
    /// One synthetic-traffic simulation.
    Synth(SynthCell),
}

impl Plan {
    /// Number of cells.
    pub fn len(&self) -> usize {
        match self {
            Plan::Bench(cells) => cells.len(),
            Plan::Synth(_) => 1,
        }
    }

    /// The network and mechanism of the first cell, for the set-up probe.
    pub fn first_sim(&self) -> (NocConfig, Mechanism) {
        match self {
            Plan::Bench(cells) => (cells[0].cfg.noc.clone(), cells[0].mech),
            Plan::Synth(c) => (c.cfg.noc.clone(), Mechanism::Baseline),
        }
    }
}

/// SplitMix64: a well-mixed stream of `u64`s from one seed.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `i`-th traffic seed derived from a workload seed (kept below 2^32 so
/// cell names stay short).
pub fn derive_seed(workload_seed: u64, i: u64) -> u64 {
    splitmix64(splitmix64(workload_seed) ^ i) >> 32
}

/// Builds a workload's inputs from its seed.
pub fn plan(workload: Workload, seed: u64) -> Plan {
    match workload {
        Workload::PaperMatrix => {
            let cfg = SystemConfig::paper().with_sim_cycles(MATRIX_CYCLES);
            let mut cells = Vec::new();
            for _ in 0..MATRIX_SEEDS {
                for bench in Benchmark::ALL {
                    for mech in MATRIX_MECHS {
                        cells.push(BenchCell {
                            bench,
                            mech,
                            cfg: cfg.clone(),
                            seed: derive_seed(seed, cells.len() as u64),
                        });
                    }
                }
            }
            Plan::Bench(cells)
        }
        Workload::BigMesh => {
            let mut cfg = SystemConfig::paper().with_sim_cycles(BIG_CYCLES);
            cfg.noc = NocConfig::cmesh_16x16();
            let s = derive_seed(seed, 0);
            Plan::Synth(SynthCell {
                cfg,
                pool_bench: Benchmark::ALL[(s % Benchmark::ALL.len() as u64) as usize],
                rate: BIG_RATE,
                seed: s,
            })
        }
        Workload::WarmSweep => {
            let base = SystemConfig::paper().with_sim_cycles(SWEEP_CYCLES);
            let mut cells = Vec::new();
            // One traffic seed per warmup group (benchmark, mechanism,
            // ratio): the groups never share a warmup snapshot anyway, and
            // independent traffic keeps the aggregate steady across seeds.
            // The threshold variants of a group share its seed and warmup.
            let mut group = 0;
            for _ in 0..SWEEP_SEEDS {
                for bench in SWEEP_BENCHES {
                    for mech in SWEEP_MECHS {
                        for ratio in SWEEP_RATIOS {
                            let s = derive_seed(seed, group);
                            group += 1;
                            for thr in SWEEP_THRESHOLDS {
                                cells.push(BenchCell {
                                    bench,
                                    mech,
                                    cfg: base.clone().with_approx_ratio(ratio).with_threshold(thr),
                                    seed: s,
                                });
                            }
                        }
                    }
                }
            }
            Plan::Bench(cells)
        }
    }
}

/// Host-side outcome of one workload execution.
pub struct Execution {
    /// Results in plan order (`None` for a failed cell); for the warm sweep,
    /// pass 1.
    pub results: Vec<Option<RunResult>>,
    /// The warm sweep's pass-2 (cache-answered) results.
    pub pass2: Option<Vec<Option<RunResult>>>,
    /// Campaign reports, in order.
    pub reports: Vec<CampaignReport>,
    /// Cells that failed (error or panic).
    pub failed_cells: usize,
    /// Per executed cell wall time, seconds.
    pub cell_walls: Vec<f64>,
}

static CELL_WALLS: Mutex<Vec<f64>> = Mutex::new(Vec::new());
static PHASE_START: Mutex<Option<Instant>> = Mutex::new(None);

thread_local! {
    static LAST_DONE: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Marks the start of a campaign (or the end of a warmup) as the earliest
/// instant a worker's next cell can have started.
fn mark_phase(t: Instant) {
    let mut p = PHASE_START.lock().expect("phase mark poisoned");
    *p = Some(p.map_or(t, |q| q.max(t)));
}

/// Records the completion of a cell on this worker. The program reports no
/// per-cell start, so a cell's wall runs from the later of this worker's
/// previous completion and the last phase mark: workers pull the next cell
/// the moment they finish one, so this is the cell's time on its worker,
/// dispatch included.
fn note_cell_done() {
    let now = Instant::now();
    let phase = PHASE_START
        .lock()
        .expect("phase mark poisoned")
        .expect("campaign marked");
    let start = LAST_DONE.with(|l| l.get()).map_or(phase, |l| l.max(phase));
    LAST_DONE.with(|l| l.set(Some(now)));
    CELL_WALLS
        .lock()
        .expect("cell log poisoned")
        .push((now - start).as_secs_f64());
}

fn note_warmup_done() {
    let now = Instant::now();
    LAST_DONE.with(|l| l.set(Some(now)));
    mark_phase(now);
}

/// Wraps a job so its completion (and its warmup's) is logged.
fn observed<T: Send + 'static>(mut job: JobSpec<T>) -> JobSpec<T> {
    if let Some(spec) = job.warmup.as_mut() {
        let work = std::mem::replace(&mut spec.work, Box::new(|| {}));
        spec.work = Box::new(move || {
            work();
            note_warmup_done();
        });
    }
    job.map(|r| {
        note_cell_done();
        r
    })
}

/// The program's jobs for a plan.
pub fn jobs(plan: &Plan) -> Vec<JobSpec<Result<RunResult, String>>> {
    match plan {
        Plan::Bench(cells) => cells
            .iter()
            .map(|c| checked_benchmark_job(c.bench, c.mech, &c.cfg, c.seed))
            .collect(),
        Plan::Synth(cell) => {
            let c = cell.clone();
            vec![JobSpec::new("big-mesh", cell.key(), move || {
                let mut source = c.source();
                try_run_with_source(&mut source, Mechanism::Baseline, &c.cfg)
                    .map_err(|e| e.to_string())
            })]
        }
    }
}

/// The set-up probe: builds (and drops) the first cell's simulator, as the
/// campaign does before its first cycle.
pub fn probe_sim(plan: &Plan) {
    let (noc, mech) = plan.first_sim();
    let nodes = noc.num_nodes();
    let sim = NocSim::new(
        noc,
        mech.codecs(nodes, anoc_core::threshold::ErrorThreshold::exact()),
    );
    std::hint::black_box(&sim);
}

/// Runs a planned workload untraced on the installed context.
pub fn execute(workload: Workload, plan: &Plan) -> Execution {
    let ctx = context();
    let passes = workload.passes();
    let mut reports = Vec::new();
    let mut failed_cells = 0;
    let mut outputs = Vec::new();
    for pass in 0..passes {
        let jobs: Vec<_> = jobs(plan).into_iter().map(observed).collect();
        mark_phase(Instant::now());
        let (results, failures, report) =
            ctx.run_checked(&format!("{} pass {}", workload.name(), pass + 1), jobs);
        failed_cells += failures.len();
        reports.push(report);
        outputs.push(results);
    }
    let pass2 = (passes == 2).then(|| outputs.pop().expect("two passes"));
    Execution {
        results: outputs.pop().expect("one pass"),
        pass2,
        reports,
        failed_cells,
        cell_walls: std::mem::take(&mut *CELL_WALLS.lock().expect("cell log poisoned")),
    }
}

/// Re-simulates a seed-independent subset of the warm sweep cold (no cache,
/// no snapshots) and returns how many of those cells differ from the forked
/// pass-1 or cached pass-2 results.
pub fn cold_mismatches(plan: &Plan, exec: &Execution) -> usize {
    let Plan::Bench(cells) = plan else {
        return 0;
    };
    let Some(pass2) = exec.pass2.as_ref() else {
        return 0;
    };
    let stride = (cells.len() / SWEEP_COLD_CHECKS).max(1);
    let picked: Vec<usize> = (0..cells.len())
        .step_by(stride)
        .take(SWEEP_COLD_CHECKS)
        .collect();
    let jobs: Vec<JobSpec<Option<String>>> = picked
        .iter()
        .map(|&i| {
            let c = cells[i].clone();
            JobSpec::new(format!("cold {i}"), format!("cold {i}"), move || {
                try_run_benchmark(c.bench, c.mech, &c.cfg, c.seed)
                    .ok()
                    .map(|r| encode_run_result(&r))
            })
        })
        .collect();
    let pool = ThreadPool::new(THREADS);
    let (cold, _) = run_campaign(&pool, None, jobs, &CampaignOptions::quiet(), None);
    picked
        .iter()
        .zip(cold)
        .filter(|(&i, cold)| {
            let enc = |r: &Option<RunResult>| r.as_ref().map(encode_run_result);
            cold.is_none() || *cold != enc(&exec.results[i]) || *cold != enc(&pass2[i])
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell_names(p: &Plan) -> Vec<String> {
        match p {
            Plan::Bench(cells) => cells
                .iter()
                .map(|c| {
                    format!(
                        "{} {} {} {}",
                        c.bench.name(),
                        c.mech.name(),
                        c.seed,
                        c.cfg.threshold_percent
                    )
                })
                .collect(),
            Plan::Synth(c) => vec![c.key()],
        }
    }

    #[test]
    fn plans_are_deterministic_in_the_seed() {
        for w in Workload::ALL {
            assert_eq!(
                cell_names(&plan(w, 7)),
                cell_names(&plan(w, 7)),
                "{}",
                w.name()
            );
            assert_ne!(
                cell_names(&plan(w, 7)),
                cell_names(&plan(w, 8)),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn campaign_workloads_have_at_least_100_cells() {
        assert!(plan(Workload::PaperMatrix, 1).len() >= 100);
        assert!(plan(Workload::WarmSweep, 1).len() >= 100);
        assert_eq!(plan(Workload::BigMesh, 1).len(), 1);
        let Plan::Synth(big) = plan(Workload::BigMesh, 1) else {
            panic!("big-mesh is one synthetic simulation");
        };
        assert_eq!(big.cfg.noc.num_nodes(), 512);
    }

    #[test]
    fn generated_traffic_is_deterministic_in_the_seed() {
        use anoc_traffic::TrafficSource;
        let Plan::Synth(c) = plan(Workload::BigMesh, 3) else {
            panic!("big-mesh is one synthetic simulation");
        };
        let trace = |c: &SynthCell| {
            let mut src = c.source();
            let mut out = Vec::new();
            for cycle in 0..50 {
                src.tick(cycle, &mut out);
            }
            format!("{out:?}")
        };
        assert_eq!(trace(&c), trace(&c.clone()));
        let Plan::Synth(other) = plan(Workload::BigMesh, 4) else {
            panic!("big-mesh is one synthetic simulation");
        };
        assert_ne!(trace(&c), trace(&other));
    }

    #[test]
    fn derived_seeds_differ_per_index_and_seed() {
        assert_eq!(derive_seed(5, 0), derive_seed(5, 0));
        assert_ne!(derive_seed(5, 0), derive_seed(5, 1));
        assert_ne!(derive_seed(5, 0), derive_seed(6, 0));
    }
}

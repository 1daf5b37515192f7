//! One runner per table/figure of the paper's evaluation (§5).
//!
//! Every study regenerates the corresponding result as a [`Table`]: the
//! same rows or series the paper plots, printed by `anoc run` as text, CSV
//! or JSON. Absolute numbers differ from the paper (the substrate is a
//! reimplemented simulator driven by modelled traffic); EXPERIMENTS.md
//! records the shape comparison.

use anoc_exec::{CellFailure, JobSpec};
use anoc_noc::{FaultPlan, FaultStats, LossPlan};
use anoc_traffic::{Benchmark, DataPool, DestPattern, SyntheticTraffic};

use crate::campaign::{benchmark_job, cell_key, checked_benchmark_job, context, pattern_tag};
use crate::config::{Mechanism, SystemConfig};
use crate::power::{AreaModel, EnergyModel};
pub use crate::runner::{run_benchmark, run_with_source, RunResult};
use crate::table::{Cell, Kind, Table};

/// The `(benchmark, mechanism)` key columns of the matrix figures.
const MATRIX_KEYS: [(&str, Kind); 2] = [("benchmark", Kind::Text), ("mechanism", Kind::Text)];

/// The full benchmark × mechanism result matrix backing Figures 9, 10, 11
/// and 15.
#[derive(Debug, Clone)]
pub struct BenchmarkMatrix {
    /// Per-benchmark results, one per mechanism in [`BenchmarkMatrix::mechs`]
    /// order.
    pub cells: Vec<(Benchmark, Vec<RunResult>)>,
    /// The mechanism columns of the matrix ([`Mechanism::ALL`] by default;
    /// `--mechs` can extend the comparison, e.g. with LZ-VAXX).
    pub mechs: Vec<Mechanism>,
}

impl BenchmarkMatrix {
    /// Runs all 8 benchmarks × 5 mechanisms as one parallel campaign;
    /// results are merged in plan order, bit-identical to the serial loop
    /// this replaces.
    pub fn run(config: &SystemConfig, seed: u64) -> Self {
        Self::run_with(config, seed, &Mechanism::ALL)
    }

    /// Like [`run`](Self::run) with an explicit mechanism list — the hook
    /// behind `--mechs`, letting the matrix figures carry extra curves
    /// (LZ-VAXX as a sixth bar) next to the paper's five. The first
    /// mechanism anchors any baseline-normalized figure, so lists should
    /// start with [`Mechanism::Baseline`].
    pub fn run_with(config: &SystemConfig, seed: u64, mechs: &[Mechanism]) -> Self {
        let jobs = Benchmark::ALL
            .iter()
            .flat_map(|b| mechs.iter().map(|m| benchmark_job(*b, *m, config, seed)))
            .collect();
        let mut results = context().run("matrix", jobs).into_iter();
        let cells = Benchmark::ALL
            .iter()
            .map(|b| (*b, results.by_ref().take(mechs.len()).collect()))
            .collect();
        BenchmarkMatrix {
            cells,
            mechs: mechs.to_vec(),
        }
    }

    /// The result for one (benchmark, mechanism) cell.
    pub fn get(&self, benchmark: Benchmark, mechanism: Mechanism) -> &RunResult {
        let (_, runs) = self
            .cells
            .iter()
            .find(|(b, _)| *b == benchmark)
            .expect("benchmark present");
        let idx = self
            .mechs
            .iter()
            .position(|m| *m == mechanism)
            .expect("mechanism present");
        &runs[idx]
    }

    /// A matrix figure: the key columns plus `columns`, one row per cell
    /// that `values` fills from its benchmark's runs and itself (`None`
    /// leaves the cell out).
    fn table(
        &self,
        id: &'static str,
        title: &str,
        columns: &[(&'static str, Kind)],
        values: impl Fn(&[RunResult], &RunResult) -> Option<Vec<Cell>>,
    ) -> Table {
        let mut t = Table::new(id, title, &[&MATRIX_KEYS[..], columns].concat());
        for (b, runs) in &self.cells {
            for r in runs {
                if let Some(values) = values(runs, r) {
                    let mut row = vec![b.name().into(), r.mechanism.name().into()];
                    row.extend(values);
                    t.push(row);
                }
            }
        }
        t
    }
}

/// Figure 9: average packet latency breakdown and approximation quality.
pub fn fig9(matrix: &BenchmarkMatrix) -> Table {
    matrix.table(
        "fig9",
        "Figure 9: Average Packet Latency Breakdown and Overall Approximation Quality",
        &[
            ("queue_lat", Kind::Fixed(4)),
            ("net_lat", Kind::Fixed(4)),
            ("decode_lat", Kind::Fixed(4)),
            ("total", Kind::Fixed(4)),
            ("quality", Kind::Fixed(6)),
        ],
        |_, r| {
            let queue = r.stats.avg_queue_latency();
            let net = r.stats.avg_net_latency();
            let decode = r.stats.avg_decode_latency();
            let total = queue + net + decode;
            Some(vec![
                queue.into(),
                net.into(),
                decode.into(),
                total.into(),
                r.data_quality().into(),
            ])
        },
    )
}

/// Figure 10: encoded-word breakdown (a) and compression ratio (b), for
/// the compression mechanisms only (baseline is omitted as in the paper).
pub fn fig10(matrix: &BenchmarkMatrix) -> Table {
    matrix.table(
        "fig10",
        "Figure 10: Encoded Word Fraction (exact + approx) and Compression Ratio",
        &[
            ("exact_fraction", Kind::Fixed(6)),
            ("approx_fraction", Kind::Fixed(6)),
            ("compression_ratio", Kind::Fixed(6)),
        ],
        |_, r| {
            let e = &r.stats.encode;
            (r.mechanism != Mechanism::Baseline).then(|| {
                vec![
                    e.exact_fraction().into(),
                    e.approx_fraction().into(),
                    e.compression_ratio().into(),
                ]
            })
        },
    )
}

/// Figure 11: injected data flits normalized to the uncompressed baseline.
pub fn fig11(matrix: &BenchmarkMatrix) -> Table {
    matrix.table(
        "fig11",
        "Figure 11: Data Flits Injected (normalized to Baseline)",
        &[("normalized_data_flits", Kind::Fixed(6))],
        |_, r| Some(vec![r.stats.normalized_data_flits().into()]),
    )
}

/// One latency-vs-injection-rate curve of Figure 12.
#[derive(Debug, Clone)]
struct Fig12Series {
    /// Mechanism.
    mechanism: Mechanism,
    /// `(offered flits/node/cycle, avg packet latency)` points; the sweep
    /// stops once the network saturates (latency above the cap).
    points: Vec<(f64, f64)>,
}

impl Fig12Series {
    /// The saturation throughput: the highest offered rate whose latency
    /// stayed under the cap.
    fn saturation_rate(&self) -> f64 {
        self.points.last().map(|(r, _)| *r).unwrap_or(0.0)
    }
}

/// Figure 12: throughput under synthetic traffic with benchmark data, in
/// four panels (blackscholes and streamcluster data, uniform-random and
/// transpose destinations) swept from 0.05 to 0.70 flits/node/cycle.
pub fn fig12(config: &SystemConfig, seed: u64) -> Table {
    let rates: Vec<f64> = (1..=14).map(|i| i as f64 * 0.05).collect();
    let mut t = Table::new(
        "fig12",
        "Figure 12: Packet Latency vs Injection Rate",
        &[
            ("panel", Kind::Text),
            ("mechanism", Kind::Text),
            ("injection_rate", Kind::Fixed(3)),
            ("latency", Kind::Fixed(4)),
        ],
    );
    for bench in [Benchmark::Blackscholes, Benchmark::Streamcluster] {
        for (pattern, pname) in [
            (DestPattern::UniformRandom, "UR"),
            (DestPattern::Transpose, "TR"),
        ] {
            let panel = format!("{} {pname}", bench.name());
            let mut saturation = Vec::new();
            for s in fig12_series(bench, pattern, &rates, config, seed) {
                for &(rate, lat) in &s.points {
                    t.push(vec![
                        panel.as_str().into(),
                        s.mechanism.name().into(),
                        rate.into(),
                        lat.into(),
                    ]);
                }
                saturation.push(format!(
                    "{} ~{:.2}",
                    s.mechanism.name(),
                    s.saturation_rate()
                ));
            }
            t.notes
                .push(format!("saturation ({panel}): {}", saturation.join(", ")));
        }
    }
    t
}

/// One Figure 12 panel: a latency curve per mechanism, with the paper's
/// 25:75 data-to-control mix; each mechanism's sweep ends once its latency
/// passes the cap.
fn fig12_series(
    benchmark: Benchmark,
    pattern: DestPattern,
    rates: &[f64],
    config: &SystemConfig,
    seed: u64,
) -> Vec<Fig12Series> {
    let latency_cap = 120.0;
    let pool = DataPool::from_benchmark(benchmark, 512, seed);
    // Plan every (mechanism, rate) cell up front; the serial loop stopped a
    // mechanism's sweep at its first over-cap latency, so reproduce that by
    // truncating each series after the fact. Cells past the knee are wasted
    // work but run in parallel, so the wall clock still wins.
    let jobs = Mechanism::ALL
        .iter()
        .flat_map(|m| {
            rates.iter().map(|&rate| {
                let id = format!(
                    "{}/{}/{}@{rate:.3}",
                    benchmark.name(),
                    pattern_tag(pattern),
                    m.name()
                );
                let work = format!(
                    "fig12 bench={} pat={} rate={:016x} dr=3fd0000000000000 pool=512",
                    benchmark.name(),
                    pattern_tag(pattern),
                    rate.to_bits(),
                );
                let key = cell_key("synth", config, m.name(), &work, seed);
                let (m, config, pool) = (*m, config.clone(), pool.clone());
                JobSpec::new(id, key, move || {
                    let mut source = SyntheticTraffic::new(
                        pattern,
                        config.noc.num_nodes(),
                        pool,
                        rate,
                        0.25,
                        config.approx_ratio,
                        seed,
                    );
                    run_with_source(&mut source, m, &config)
                })
            })
        })
        .collect();
    let mut results = context().run("fig12", jobs).into_iter();
    Mechanism::ALL
        .iter()
        .map(|m| {
            let mut points = Vec::new();
            for &rate in rates {
                let lat = results
                    .next()
                    .expect("one result per cell")
                    .avg_packet_latency();
                if points
                    .last()
                    .map(|(_, l)| *l <= latency_cap)
                    .unwrap_or(true)
                {
                    points.push((rate, lat));
                }
            }
            Fig12Series {
                mechanism: *m,
                points,
            }
        })
        .collect()
}

/// Figure 13: error-threshold sensitivity (5%, 10%, 20%).
pub fn fig13(config: &SystemConfig, seed: u64) -> Table {
    let mut t = sensitivity_sweep(
        config,
        seed,
        &Benchmark::ALL,
        &[5, 10, 20],
        |cfg, setting| cfg.with_threshold(setting),
    );
    t.id = "fig13";
    t.title = "Figure 13: Error Threshold Sensitivity".into();
    t
}

/// Figure 14: approximable-packet-ratio sensitivity (25%, 50%, 75%).
pub fn fig14(config: &SystemConfig, seed: u64) -> Table {
    let mut t = sensitivity_sweep(
        config,
        seed,
        &Benchmark::ALL,
        &[25, 50, 75],
        |cfg, setting| cfg.with_approx_ratio(setting as f64 / 100.0),
    );
    t.id = "fig14";
    t.title = "Figure 14: Approximable Packets Ratio Sensitivity".into();
    t
}

/// The generic Figure 13/14 machinery: for each benchmark and codec family,
/// measure the exact-compression latency (setting `compression`) plus the
/// VAXX latency at each setting produced by `apply`.
pub fn sensitivity_sweep(
    config: &SystemConfig,
    seed: u64,
    benchmarks: &[Benchmark],
    settings: &[u32],
    apply: impl Fn(SystemConfig, u32) -> SystemConfig,
) -> Table {
    const FAMILIES: [(&str, Mechanism, Mechanism); 2] = [
        ("DI-based", Mechanism::DiComp, Mechanism::DiVaxx),
        ("FP-based", Mechanism::FpComp, Mechanism::FpVaxx),
    ];
    // One plan: per (benchmark, family) the compression anchor cell followed
    // by one VAXX cell per swept setting.
    let mut jobs = Vec::new();
    for &b in benchmarks {
        for (_, comp, vaxx) in FAMILIES {
            jobs.push(benchmark_job(b, comp, config, seed));
            for &s in settings {
                jobs.push(benchmark_job(b, vaxx, &apply(config.clone(), s), seed));
            }
        }
    }
    let mut results = context().run("sensitivity", jobs).into_iter();
    let mut t = Table::new(
        "sensitivity",
        "Sensitivity sweep",
        &[
            ("benchmark", Kind::Text),
            ("family", Kind::Text),
            ("setting", Kind::Text),
            ("latency", Kind::Fixed(4)),
        ],
    );
    for &b in benchmarks {
        for (family, _, _) in FAMILIES {
            let labels = std::iter::once("compression".to_string())
                .chain(settings.iter().map(u32::to_string));
            for (setting, r) in labels.zip(results.by_ref()) {
                let lat = r.avg_packet_latency();
                t.push(vec![
                    b.name().into(),
                    family.into(),
                    setting.into(),
                    lat.into(),
                ]);
            }
        }
    }
    t
}

/// The fault-injection resilience sweep: runs `benchmark` under FP-VAXX at
/// each link bit-flip rate, through the fault-tolerant campaign path, and
/// reports one row per rate: blank for a cell that did not complete, with
/// its typed failure as a note (watchdog aborts at extreme rates are
/// expected behaviour, not sweep-ending errors).
///
/// At rate 0 the fault plan is inert and the cell is bit-identical to a
/// healthy run; violations must be 0 there, and the violation count is
/// non-decreasing in the flip rate.
pub fn faults_sweep(
    benchmark: Benchmark,
    rates_ppm: &[u32],
    config: &SystemConfig,
    seed: u64,
) -> Table {
    let jobs = rates_ppm
        .iter()
        .map(|&ppm| {
            let cfg = config.clone().with_faults(FaultPlan::bit_flips(seed, ppm));
            checked_benchmark_job(benchmark, Mechanism::FpVaxx, &cfg, seed)
        })
        .collect();
    let (results, failures, _) = context().run_checked("faults", jobs);
    resilience_table(
        "faults",
        format!("Fault-injection sweep: {} / FP-VAXX", benchmark.name()),
        ["flip_ppm", "bit_flips"],
        |f| f.bit_flips,
        rates_ppm.iter().copied().zip(results),
        &failures,
    )
}

/// The lossy-link degradation sweep (`anoc run lossy`): runs `benchmark`
/// under FP-VAXX at each base per-hop word-loss rate, each nonzero rate also
/// scaled by `approx_scale_ppm` per approximation-threshold percent
/// (LORAX-style: aggressively approximated traffic rides the cheaper,
/// lossier signaling), through the fault-tolerant campaign path. Rate 0
/// installs an inert plan and is bit-identical to a healthy run:
/// violations must be 0 there, and the violation count is non-decreasing
/// in the loss rate.
pub fn lossy_sweep(
    benchmark: Benchmark,
    rates_ppm: &[u32],
    approx_scale_ppm: u32,
    config: &SystemConfig,
    seed: u64,
) -> Table {
    let jobs = rates_ppm
        .iter()
        .map(|&ppm| {
            let plan = if ppm == 0 {
                LossPlan::none()
            } else {
                LossPlan::scaled(seed, ppm, approx_scale_ppm)
            };
            let cfg = config.clone().with_loss(plan);
            checked_benchmark_job(benchmark, Mechanism::FpVaxx, &cfg, seed)
        })
        .collect();
    let (results, failures, _) = context().run_checked("lossy", jobs);
    resilience_table(
        "lossy",
        format!("Lossy-link sweep: {} / FP-VAXX", benchmark.name()),
        ["loss_ppm", "words_lost"],
        |f| f.words_lost,
        rates_ppm.iter().copied().zip(results),
        &failures,
    )
}

/// The fault and lossy sweeps' table: one row per rate, named by
/// `[rate column, counter column]`, with `counter` read from the cell's
/// fault statistics. A failed cell keeps its rate and leaves the rest
/// blank; each failure becomes a `failed:` note.
fn resilience_table(
    id: &'static str,
    title: String,
    [rate_col, counter_col]: [&'static str; 2],
    counter: fn(&FaultStats) -> u64,
    cells: impl Iterator<Item = (u32, Option<RunResult>)>,
    failures: &[CellFailure],
) -> Table {
    let mut t = Table::new(
        id,
        title,
        &[
            (rate_col, Kind::Int),
            ("avg_latency", Kind::Shortest),
            ("quality", Kind::Shortest),
            (counter_col, Kind::Int),
            ("bound_checked_words", Kind::Int),
            ("bound_violations", Kind::Int),
        ],
    );
    for (ppm, r) in cells {
        let r = r.as_ref();
        let faults = r.map(|r| &r.stats.faults);
        t.push(vec![
            ppm.into(),
            r.map(RunResult::avg_packet_latency).into(),
            r.map(RunResult::data_quality).into(),
            faults.map(counter).into(),
            faults.map(|f| f.bound_checked_words).into(),
            faults.map(|f| f.bound_violations).into(),
        ]);
    }
    t.notes
        .extend(failures.iter().map(|f| format!("failed: {f}")));
    t
}

/// Whether a realized application output error lands within a budget given
/// in percent.
fn within_budget(realized_error: f64, budget_percent: u32) -> bool {
    realized_error <= f64::from(budget_percent) / 100.0 + 1e-9
}

/// Whether the per-flow QoS run delivered at least the static run's
/// compression ratio.
fn beats_static(qos_compression: f64, static_compression: f64) -> bool {
    qos_compression >= static_compression
}

/// The QoS campaign: for every fig16/17 mini-kernel (paired with its
/// benchmark traffic profile) and every output-error budget,
///
/// 1. converge an app-level AIMD controller ([`QualityController`]) on the
///    kernel's realized output error — epochs of kernel evaluation feeding
///    `observe_epoch` until the threshold stabilizes;
/// 2. find the largest *worst-case-safe* static threshold: the offline
///    alternative must assume every approximable word errs by the full
///    threshold ([`AdversarialTransport`]), which is exactly the headroom a
///    runtime controller can harvest and a static pick cannot;
/// 3. run the network under the per-flow QoS control plane
///    ([`QosSpec::paper`] at the budget's quality floor) and under the
///    static threshold, and compare delivered compression.
///
/// [`QualityController`]: anoc_core::control::QualityController
/// [`QosSpec::paper`]: anoc_core::control::QosSpec::paper
/// [`AdversarialTransport`]: anoc_apps::transport::AdversarialTransport
pub fn qos_study(config: &SystemConfig, seed: u64, budgets: &[u32]) -> Table {
    use anoc_apps::transport::{AdversarialTransport, ApproxTransport, PreciseTransport};
    use anoc_core::control::{QosSpec, QualityController};
    use anoc_core::threshold::ErrorThreshold;

    let kernels = anoc_apps::default_kernels();
    // Application side first (cheap, this thread): per (kernel, budget),
    // converge the app-level controller and find the worst-case-safe static
    // threshold. The static percent feeds the network job below.
    struct AppSide {
        converged_percent: u32,
        realized_error: f64,
        static_percent: u32,
        static_error: f64,
    }
    let mut app: Vec<AppSide> = Vec::new();
    for (kernel, _) in kernels.iter().zip(Benchmark::ALL) {
        let precise = kernel.run(&mut PreciseTransport);
        for &budget in budgets {
            let target = 1.0 - f64::from(budget) / 100.0;
            let error_at = |percent: u32| -> f64 {
                if percent == 0 {
                    return 0.0;
                }
                let t = ErrorThreshold::from_percent(percent).expect("valid percent");
                let out = kernel.run(&mut ApproxTransport::fp_vaxx(t));
                kernel.output_error(&precise, &out)
            };
            // 1. App-level convergence: epochs of kernel evaluation, AIMD on
            // the realized output quality. Converged when one full epoch
            // leaves the threshold unchanged (bounded walk: the percent
            // range is 1..=20 and AIMD moves monotonically between limit
            // points, so 16 epochs is generous).
            let mut ctl = QualityController::new(target.max(1e-6), 10, 1, 20);
            let mut percent = ctl.percent();
            let mut realized = error_at(percent);
            for _ in 0..16 {
                ctl.observe_epoch(1.0 - realized, 1, 0);
                if ctl.percent() == percent {
                    break;
                }
                percent = ctl.percent();
                realized = error_at(percent);
            }
            // 2. The offline pick: largest threshold whose worst-case output
            // error still meets the budget.
            let worst_at = |percent: u32| -> f64 {
                let t = ErrorThreshold::from_percent(percent).expect("valid percent");
                let out = kernel.run(&mut AdversarialTransport::new(t));
                kernel.output_error(&precise, &out)
            };
            let static_percent = (1..=20u32)
                .rev()
                .find(|&p| worst_at(p) <= f64::from(budget) / 100.0 + 1e-9)
                .unwrap_or(0);
            let static_error = error_at(static_percent);
            app.push(AppSide {
                converged_percent: percent,
                realized_error: realized,
                static_percent,
                static_error,
            });
        }
    }
    // Network side: one per-flow QoS cell plus one static cell per row, as
    // one parallel campaign.
    let mut jobs = Vec::new();
    let mut idx = 0usize;
    for (_, benchmark) in kernels.iter().zip(Benchmark::ALL) {
        for &budget in budgets {
            let floor_ppm = 1_000_000u32.saturating_sub(budget.saturating_mul(10_000));
            // Two study-scale adjustments to the paper spec: the per-flow
            // anti-windup floor (64 words/epoch) is sized for long
            // production runs and would hold sparse flows at their initial
            // threshold forever at campaign scale, and the start is made
            // optimistic (begin at the ceiling, tighten on violation) so a
            // flow whose first packet arrives mid-measurement is not
            // permanently behind the static ladder it is compared against.
            let base = QosSpec::paper(floor_ppm);
            let spec = QosSpec {
                min_words: 1,
                initial_percent: base.max_percent,
                ..base
            };
            let qos_cfg = config.clone().with_qos(spec);
            jobs.push(benchmark_job(benchmark, Mechanism::FpVaxx, &qos_cfg, seed));
            let static_cfg = config.clone().with_threshold(app[idx].static_percent);
            jobs.push(benchmark_job(
                benchmark,
                Mechanism::FpVaxx,
                &static_cfg,
                seed,
            ));
            idx += 1;
        }
    }
    let mut results = context().run("qos", jobs).into_iter();
    let mut t = Table::new(
        "qos",
        "Per-flow QoS campaign: runtime control loop vs worst-case-safe static threshold",
        &[
            ("kernel", Kind::Text),
            ("benchmark", Kind::Text),
            ("budget_percent", Kind::Int),
            ("converged_percent", Kind::Int),
            ("realized_error", Kind::Fixed(6)),
            ("static_percent", Kind::Int),
            ("static_error", Kind::Fixed(6)),
            ("qos_compression", Kind::Fixed(6)),
            ("static_compression", Kind::Fixed(6)),
            ("qos_latency", Kind::Fixed(4)),
            ("static_latency", Kind::Fixed(4)),
            ("qos_quality", Kind::Fixed(6)),
            ("qos_violations", Kind::Int),
            ("within_budget", Kind::Bool),
            ("beats_static", Kind::Bool),
        ],
    );
    // Per budget: rows, rows within budget, rows where QoS beats static.
    let mut tally = vec![(0, 0, 0); budgets.len()];
    let mut app = app.iter();
    for (kernel, benchmark) in kernels.iter().zip(Benchmark::ALL) {
        for (&budget, (n, within, beats)) in budgets.iter().zip(&mut tally) {
            let a = app.next().expect("one app side per row");
            let qos_run = results.next().expect("qos cell");
            let static_run = results.next().expect("static cell");
            let qos_compression = qos_run.stats.encode.compression_ratio();
            let static_compression = static_run.stats.encode.compression_ratio();
            let ok = within_budget(a.realized_error, budget);
            let win = beats_static(qos_compression, static_compression);
            *n += 1;
            *within += usize::from(ok);
            *beats += usize::from(win);
            t.push(vec![
                kernel.name().into(),
                benchmark.name().into(),
                budget.into(),
                a.converged_percent.into(),
                a.realized_error.into(),
                a.static_percent.into(),
                a.static_error.into(),
                qos_compression.into(),
                static_compression.into(),
                qos_run.avg_packet_latency().into(),
                static_run.avg_packet_latency().into(),
                qos_run.data_quality().into(),
                qos_run.stats.faults.bound_violations.into(),
                ok.into(),
                win.into(),
            ]);
        }
    }
    for (b, (n, within, beats)) in budgets.iter().zip(tally) {
        t.notes.push(format!(
            "summary: at {b}% budget, {within}/{n} apps within budget; QoS compression >= static on {beats}/{n}"
        ));
    }
    t
}

/// Figure 15: dynamic power normalized to each benchmark's first
/// (baseline) mechanism, plus the §5.5 encoder area as a note.
pub fn fig15(matrix: &BenchmarkMatrix) -> Table {
    let model = EnergyModel::default();
    let mut t = matrix.table(
        "fig15",
        "Figure 15: Dynamic Power (normalized to Baseline)",
        &[("normalized_dynamic_power", Kind::Fixed(6))],
        |runs, r| {
            let base = model.dynamic_power(&runs[0].activity).max(1e-12);
            Some(vec![(model.dynamic_power(&r.activity) / base).into()])
        },
    );
    let area = AreaModel::default();
    t.notes.push(format!(
        "Section 5.5 area: DI-VAXX {:.4} mm^2, FP-VAXX {:.4} mm^2",
        area.di_vaxx_encoder_mm2(),
        area.fp_vaxx_encoder_mm2()
    ));
    t
}

/// Figure 16: application output accuracy and normalized performance for
/// data error budgets of 0/10/20%.
///
/// `output_error` comes from running the real kernels through an FP-VAXX
/// value path at each budget (typically far below the budget because
/// matches land in close proximity); `worst_case_error` spends the *entire*
/// budget on every approximable word (the pessimistic bound; the paper's
/// measured errors lie between the two). Performance comes from the NoC:
/// the measured latency improvement of FP-VAXX at each budget over the 0%
/// (exact compression) case, scaled by the benchmark's sharing degree — the
/// §5.4 observation that "higher degree of sharing leads to ... improving
/// the efficacy of our mechanism".
pub fn fig16(config: &SystemConfig, seed: u64) -> Table {
    use anoc_apps::transport::{ApproxTransport, PreciseTransport};
    use anoc_core::threshold::ErrorThreshold;
    let budgets = [0u32, 10, 20];
    let kernels = anoc_apps::default_kernels();
    // The network cells (one FP-COMP anchor plus one FP-VAXX run per nonzero
    // budget, per benchmark) go through a campaign; the application kernels
    // are cheap and stay on this thread.
    let mut jobs = Vec::new();
    for (_, benchmark) in kernels.iter().zip(Benchmark::ALL) {
        jobs.push(benchmark_job(benchmark, Mechanism::FpComp, config, seed));
        for &budget in &budgets[1..] {
            let cfg = config.clone().with_threshold(budget);
            jobs.push(benchmark_job(benchmark, Mechanism::FpVaxx, &cfg, seed));
        }
    }
    let mut lats = context()
        .run("fig16", jobs)
        .into_iter()
        .map(|r| r.avg_packet_latency());
    let mut t = Table::new(
        "fig16",
        "Figure 16: Application Output Accuracy and Normalized Performance",
        &[
            ("benchmark", Kind::Text),
            ("budget_percent", Kind::Int),
            ("output_error", Kind::Fixed(6)),
            ("worst_case_error", Kind::Fixed(6)),
            ("normalized_performance", Kind::Fixed(6)),
        ],
    );
    for (kernel, benchmark) in kernels.iter().zip(Benchmark::ALL) {
        let precise = kernel.run(&mut PreciseTransport);
        let sharing = benchmark.profile().sharing;
        // Latency at 0% budget (exact compression) anchors performance.
        let lat0 = lats.next().expect("anchor cell");
        for budget in budgets {
            let (error, worst, lat) = if budget == 0 {
                (0.0, 0.0, lat0)
            } else {
                let threshold = ErrorThreshold::from_percent(budget).expect("valid budget");
                let mut t = ApproxTransport::fp_vaxx(threshold);
                let approx = kernel.run(&mut t);
                let err = kernel.output_error(&precise, &approx);
                let mut adv = anoc_apps::transport::AdversarialTransport::new(threshold);
                let worst_out = kernel.run(&mut adv);
                let worst = kernel.output_error(&precise, &worst_out);
                let lat = lats.next().expect("budget cell");
                (err, worst, lat)
            };
            // Network latency improvement → runtime improvement, scaled by
            // how communication-bound (sharing-heavy) the benchmark is.
            let latency_gain = ((lat0 - lat) / lat0).max(0.0);
            let normalized_performance = 1.0 + sharing * latency_gain;
            t.push(vec![
                kernel.name().into(),
                budget.into(),
                error.into(),
                worst.into(),
                normalized_performance.into(),
            ]);
        }
    }
    t
}

/// The Figure 17 artefacts: precise and approximate bodytrack outputs.
#[derive(Debug, Clone)]
pub struct Fig17Result {
    /// Mean output-vector difference (the paper reports 2.4% at 10%).
    pub vector_difference: f64,
    /// PGM bytes of a precise frame (for writing to disk).
    pub precise_pgm: Vec<u8>,
    /// PGM bytes of the corresponding approximate frame.
    pub approx_pgm: Vec<u8>,
}

/// Figure 17: precise vs approximate bodytrack output at a 10% threshold.
pub fn fig17(seed: u64) -> Fig17Result {
    use anoc_apps::bodytrack::{frame_to_pgm, Bodytrack};
    use anoc_apps::transport::ApproxTransport;
    use anoc_core::threshold::ErrorThreshold;
    let kernel = Bodytrack::new(64, 3, 10, seed);
    let (frames, _) = kernel.render();
    let mut transport =
        ApproxTransport::fp_vaxx(ErrorThreshold::from_percent(10).expect("10% is valid"));
    let (precise, approx, err) = anoc_apps::kernel::evaluate(&kernel, &mut transport);
    debug_assert_eq!(precise.len(), approx.len());
    // Render the mid-sequence frame both ways for visual comparison.
    let mid = frames.len() / 2;
    let precise_frame = &frames[mid];
    let mut t2 = ApproxTransport::fp_vaxx(ErrorThreshold::from_percent(10).expect("10% is valid"));
    let approx_frame = anoc_apps::transport::BlockTransport::transmit_f32(&mut t2, precise_frame);
    Fig17Result {
        vector_difference: err,
        precise_pgm: frame_to_pgm(precise_frame, kernel.size),
        approx_pgm: frame_to_pgm(&approx_frame, kernel.size),
    }
}

impl Fig17Result {
    /// The Figure 17 table: the vector difference and where the two
    /// frames were written.
    pub fn table(&self, precise_path: &str, approx_path: &str) -> Table {
        let mut t = Table::new(
            "fig17",
            "Figure 17: Bodytrack Precise vs Approximate Output (10% threshold)",
            &[
                ("vector_difference_percent", Kind::Fixed(4)),
                ("precise_pgm", Kind::Text),
                ("approx_pgm", Kind::Text),
            ],
        );
        t.push(vec![
            (self.vector_difference * 100.0).into(),
            precise_path.into(),
            approx_path.into(),
        ]);
        t.notes.push("paper: 2.4% vector difference".into());
        t
    }
}

/// Extension study (beyond the paper's five mechanisms): the VAXX engine
/// plugged into a third compression family — base-delta (BD-COMP/BD-VAXX,
/// after the Zhan et al. mechanism cited in §6) — plus Jin et al.'s
/// adaptive on/off controller wrapped around FP-COMP. Demonstrates the §1
/// claim that VAXX is a "plug and play module for any underlying NoC data
/// compression mechanism". Every cell is a standard `bench` cell, so the
/// FP-COMP/FP-VAXX rows are Figure 9's cells.
pub fn extension_study(benchmark: Benchmark, config: &SystemConfig, seed: u64) -> Vec<RunResult> {
    const MECHANISMS: [Mechanism; 6] = [
        Mechanism::FpComp,
        Mechanism::FpVaxx,
        Mechanism::BdComp,
        Mechanism::BdVaxx,
        Mechanism::FpAdaptive,
        Mechanism::FpVaxxWin,
    ];
    let jobs = MECHANISMS
        .iter()
        .map(|&mechanism| benchmark_job(benchmark, mechanism, config, seed))
        .collect();
    context().run("extensions", jobs)
}

/// The `extensions` target: the extension study on blackscholes, ssca2
/// and x264 as one table. `drained` is false for a run that outlived its
/// drain budget, whose delivery statistics are a lower bound, not final.
pub fn extensions(config: &SystemConfig, seed: u64) -> Table {
    let mut t = Table::new(
        "extensions",
        "Extension study: VAXX plugged into three compression families",
        &[
            ("benchmark", Kind::Text),
            ("mechanism", Kind::Text),
            ("latency", Kind::Fixed(2)),
            ("norm_flits", Kind::Fixed(3)),
            ("comp_ratio", Kind::Fixed(3)),
            ("approx_frac", Kind::Fixed(3)),
            ("quality", Kind::Fixed(4)),
            ("checked", Kind::Int),
            ("violations", Kind::Int),
            ("drained", Kind::Bool),
        ],
    );
    for b in [Benchmark::Blackscholes, Benchmark::Ssca2, Benchmark::X264] {
        for r in extension_study(b, config, seed) {
            t.push(vec![
                b.name().into(),
                r.mechanism.name().into(),
                r.avg_packet_latency().into(),
                r.stats.normalized_data_flits().into(),
                r.stats.encode.compression_ratio().into(),
                r.stats.encode.approx_fraction().into(),
                r.data_quality().into(),
                r.stats.faults.bound_checked_words.into(),
                r.stats.faults.bound_violations.into(),
                r.drained.into(),
            ]);
        }
    }
    t
}

/// The LZ-VAXX study: sweeps `thresholds` × `benchmarks` × the three VAXX
/// mechanisms (DI, FP, LZ) with the bound auditor armed, so LZ-VAXX's
/// compression ratio, encode latency and output quality land next to the
/// paper's two mechanisms at equal error budgets.
pub fn lz_study(
    config: &SystemConfig,
    seed: u64,
    thresholds: &[u32],
    benchmarks: &[Benchmark],
) -> Table {
    const MECHANISMS: [Mechanism; 3] = [Mechanism::DiVaxx, Mechanism::FpVaxx, Mechanism::LzVaxx];
    let mut jobs = Vec::new();
    for &t in thresholds {
        let cfg = config.clone().with_threshold(t);
        for &b in benchmarks {
            for m in MECHANISMS {
                jobs.push(benchmark_job(b, m, &cfg, seed));
            }
        }
    }
    let mut results = context().run("lz", jobs).into_iter();
    let mut t = Table::new(
        "lz",
        "LZ-VAXX study: streaming approximate-LZ vs DI-VAXX / FP-VAXX",
        &[
            ("threshold_percent", Kind::Int),
            ("benchmark", Kind::Text),
            ("mechanism", Kind::Text),
            ("compression_ratio", Kind::Fixed(6)),
            ("encode_latency_cycles", Kind::Int),
            ("avg_packet_latency", Kind::Fixed(4)),
            ("quality", Kind::Fixed(6)),
            ("bound_checked_words", Kind::Int),
            ("bound_violations", Kind::Int),
        ],
    );
    for &t_percent in thresholds {
        let threshold = config.clone().with_threshold(t_percent).threshold();
        let mut wins = 0;
        for &b in benchmarks {
            let mut ratios = [0.0; 3];
            for (m, ratio) in MECHANISMS.into_iter().zip(&mut ratios) {
                let r = results.next().expect("one result per cell");
                *ratio = r.stats.encode.compression_ratio();
                t.push(vec![
                    t_percent.into(),
                    b.name().into(),
                    m.name().into(),
                    (*ratio).into(),
                    m.codecs(1, threshold)[0]
                        .encoder
                        .compression_latency()
                        .into(),
                    r.avg_packet_latency().into(),
                    r.data_quality().into(),
                    r.stats.faults.bound_checked_words.into(),
                    r.stats.faults.bound_violations.into(),
                ]);
            }
            // MECHANISMS is [DI-VAXX, FP-VAXX, LZ-VAXX].
            wins += usize::from(ratios[2] >= ratios[0]);
        }
        t.notes.push(format!(
            "summary: at {t_percent}% threshold LZ-VAXX >= DI-VAXX compression on {wins}/{} apps",
            benchmarks.len()
        ));
    }
    t
}

/// Table 1: the simulated system's configuration.
pub fn table1(config: &SystemConfig) -> Table {
    let mut t = Table::new(
        "table1",
        "Table 1: APPROX-NoC Simulation Configuration",
        &[("parameter", Kind::Text), ("value", Kind::Text)],
    );
    for (k, v) in config.table1_rows() {
        t.push(vec![k.into(), v.into()]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Format;
    use anoc_core::codec::{CodecActivity, EncodeStats};
    use anoc_core::metrics::QualityAccumulator;

    fn tiny() -> SystemConfig {
        SystemConfig::paper().with_sim_cycles(2_000)
    }

    /// One column of `t`, read back from its CSV form.
    fn column(t: &Table, name: &str) -> Vec<String> {
        let csv = t.render(Format::Csv);
        let mut lines = csv.lines();
        let header = lines.next().expect("header line");
        let idx = header.split(',').position(|c| c == name).expect(name);
        lines
            .map(|l| l.split(',').nth(idx).expect("cell").to_string())
            .collect()
    }

    fn numbers(t: &Table, name: &str) -> Vec<f64> {
        column(t, name)
            .iter()
            .map(|s| s.parse().expect("number"))
            .collect()
    }

    #[test]
    fn matrix_and_figures_9_10_11_15() {
        let cfg = tiny();
        let matrix = BenchmarkMatrix::run(&cfg, 1);
        assert_eq!(matrix.cells.len(), 8);

        let f9 = fig9(&matrix);
        let totals = numbers(&f9, "total");
        assert_eq!(totals.len(), 40);
        assert!(totals.iter().all(|t| *t > 0.0));
        assert!(f9.render(Format::Text).contains("ssca2"));

        let f10 = fig10(&matrix);
        let ratios = numbers(&f10, "compression_ratio");
        assert_eq!(ratios.len(), 32, "baseline excluded");
        assert!(ratios.iter().all(|r| *r >= 0.9));
        assert!(f10.render(Format::Text).contains("FP-VAXX"));

        // Baseline rows are the normalization anchor of figures 11 and 15.
        for (t, name) in [
            (fig11(&matrix), "normalized_data_flits"),
            (fig15(&matrix), "normalized_dynamic_power"),
        ] {
            let mechs = column(&t, "mechanism");
            let values = numbers(&t, name);
            assert_eq!(values.len(), 40);
            for (m, v) in mechs.iter().zip(values) {
                if m == "Baseline" {
                    assert!((v - 1.0).abs() < 1e-9, "{name}: {v}");
                }
            }
        }
        assert!(fig15(&matrix)
            .render(Format::Text)
            .contains("Section 5.5 area"));

        // The headline relationship: VAXX compresses at least as well as the
        // exact version on the data-intensive benchmark.
        let di = matrix.get(Benchmark::Ssca2, Mechanism::DiComp);
        let divaxx = matrix.get(Benchmark::Ssca2, Mechanism::DiVaxx);
        assert!(divaxx.stats.encode.encoded_fraction() >= di.stats.encode.encoded_fraction());
    }

    #[test]
    fn matrix_runs_extension_mechanisms_with_audited_bounds() {
        let cfg = SystemConfig::paper().with_sim_cycles(500);
        let mechs = [Mechanism::Baseline, Mechanism::BdVaxx, Mechanism::FpVaxxWin];
        let matrix = BenchmarkMatrix::run_with(&cfg, 2, &mechs);
        assert_eq!(matrix.cells.len(), 8);
        for (b, runs) in &matrix.cells {
            assert_eq!(runs.len(), 3);
            for (r, m) in runs.iter().zip(mechs) {
                assert_eq!(r.mechanism, m, "{b}");
                assert!(r.stats.faults.bound_checked_words > 0, "{b}/{m}");
                assert_eq!(r.stats.faults.bound_violations, 0, "{b}/{m}");
            }
        }
        assert_eq!(column(&fig9(&matrix), "mechanism").len(), 24);
    }

    /// A synthetic run whose every figure value is a simple function of
    /// `k`, so figure tables can be pinned without simulating.
    fn hand_run(mechanism: Mechanism, k: u64) -> RunResult {
        let mut r = RunResult::failed_sentinel();
        r.mechanism = mechanism;
        r.nodes = 32;
        r.drained = k != 3;
        let s = &mut r.stats;
        s.packets = 7 + k;
        s.queue_lat_sum = 10 + 3 * k;
        s.net_lat_sum = 100 + 11 * k;
        s.decode_lat_sum = 2 * k;
        s.data_flits_injected = 50 + 3 * k;
        s.baseline_data_flits = 60;
        s.encode = EncodeStats {
            words: 160,
            exact_encoded: 40 + k,
            approx_encoded: 3 * k,
            raw: 120 - 4 * k,
            bits_in: 160 * 32,
            bits_out: 3000 + 100 * k,
        };
        s.quality = QualityAccumulator::from_raw(160, 0.01 * k as f64, 0.05);
        s.faults.bit_flips = k;
        s.faults.words_lost = 2 * k;
        s.faults.bound_checked_words = 160;
        s.faults.bound_violations = k / 2;
        let codec = CodecActivity {
            cam_searches: 5 * k,
            tcam_searches: 3 * k,
            table_updates: k,
            avcl_ops: 2 * k,
            words_encoded: 16 * k,
            words_decoded: 16 * k,
            notifications: k,
        };
        let routers = &mut r.activity.routers;
        routers.buffer_writes = 400 + k;
        routers.buffer_reads = 400 + k;
        routers.vc_allocs = 90 + k;
        routers.crossbar_traversals = 400 + k;
        routers.link_traversals = 300 + k;
        r.activity.encoders = codec;
        r.activity.decoders = codec;
        r.activity.cycles = 1000;
        r
    }

    /// Two benchmarks × [Baseline, FP-VAXX, FP-VAXX-win] of hand-made runs.
    fn hand_matrix() -> BenchmarkMatrix {
        let mechs = vec![Mechanism::Baseline, Mechanism::FpVaxx, Mechanism::FpVaxxWin];
        let row = |k0: u64| {
            mechs
                .iter()
                .zip(k0..)
                .map(|(m, k)| hand_run(*m, k))
                .collect()
        };
        BenchmarkMatrix {
            cells: vec![
                (Benchmark::Blackscholes, row(0)),
                (Benchmark::Ssca2, row(3)),
            ],
            mechs: mechs.clone(),
        }
    }

    #[test]
    fn figure_csv_bytes_are_pinned() {
        // Captured from the per-figure CSV printers this model replaced.
        let matrix = hand_matrix();
        assert_eq!(
            fig9(&matrix).render(Format::Csv),
            "benchmark,mechanism,queue_lat,net_lat,decode_lat,total,quality
blackscholes,Baseline,1.4286,14.2857,0.0000,15.7143,1.000000
blackscholes,FP-VAXX,1.6250,13.8750,0.2500,15.7500,0.999938
blackscholes,FP-VAXX-win,1.7778,13.5556,0.4444,15.7778,0.999875
ssca2,Baseline,1.9000,13.3000,0.6000,15.8000,0.999812
ssca2,FP-VAXX,2.0000,13.0909,0.7273,15.8182,0.999750
ssca2,FP-VAXX-win,2.0833,12.9167,0.8333,15.8333,0.999687
"
        );
        assert_eq!(
            fig10(&matrix).render(Format::Csv),
            "benchmark,mechanism,exact_fraction,approx_fraction,compression_ratio
blackscholes,FP-VAXX,0.256250,0.018750,1.651613
blackscholes,FP-VAXX-win,0.262500,0.037500,1.600000
ssca2,FP-VAXX,0.275000,0.075000,1.505882
ssca2,FP-VAXX-win,0.281250,0.093750,1.462857
"
        );
        assert_eq!(
            fig11(&matrix).render(Format::Csv),
            "benchmark,mechanism,normalized_data_flits
blackscholes,Baseline,0.833333
blackscholes,FP-VAXX,0.883333
blackscholes,FP-VAXX-win,0.933333
ssca2,Baseline,0.983333
ssca2,FP-VAXX,1.033333
ssca2,FP-VAXX-win,1.083333
"
        );
        assert_eq!(
            fig15(&matrix).render(Format::Csv),
            "benchmark,mechanism,normalized_dynamic_power
blackscholes,Baseline,1.000000
blackscholes,FP-VAXX,1.008561
blackscholes,FP-VAXX-win,1.017122
ssca2,Baseline,1.000000
ssca2,FP-VAXX,1.008347
ssca2,FP-VAXX-win,1.016694
"
        );
        let cells = [(0, Some(1)), (100, None), (1000, Some(5))]
            .into_iter()
            .map(|(ppm, k)| (ppm, k.map(|k| hand_run(Mechanism::FpVaxx, k))));
        let failure = CellFailure {
            index: 1,
            id: "blackscholes/FP-VAXX".into(),
            error: anoc_exec::CellError::Failed("watchdog".into()),
        };
        let faults = resilience_table(
            "faults",
            "Fault-injection sweep".into(),
            ["flip_ppm", "bit_flips"],
            |f| f.bit_flips,
            cells,
            &[failure],
        );
        assert_eq!(
            faults.render(Format::Csv),
            "flip_ppm,avg_latency,quality,bit_flips,bound_checked_words,bound_violations
0,15.75,0.9999375,1,160,0
100,,,,,
1000,15.833333333333334,0.9996875,5,160,2
"
        );
        assert_eq!(
            faults.render(Format::Text),
            "Fault-injection sweep
flip_ppm         avg_latency    quality  bit_flips  bound_checked_words  bound_violations
       0               15.75  0.9999375          1                  160                 0
     100                   -          -          -                    -                 -
    1000  15.833333333333334  0.9996875          5                  160                 2
failed: cell 1 (blackscholes/FP-VAXX) failed: watchdog
"
        );
    }

    /// Asserts that every whitespace-separated column of a text table (the
    /// lines after its title) starts at one offset on every line, or, for
    /// right-aligned columns, ends at one.
    fn assert_aligned(text: &str) {
        let spans: Vec<Vec<(usize, usize)>> = text
            .lines()
            .skip(1)
            .map(|line| {
                let mut spans = Vec::new();
                let mut start = None;
                for (i, c) in line.chars().chain([' ']).enumerate() {
                    match (c == ' ', start) {
                        (false, None) => start = Some(i),
                        (true, Some(s)) => {
                            spans.push((s, i));
                            start = None;
                        }
                        _ => {}
                    }
                }
                spans
            })
            .collect();
        for (col, head) in spans[0].iter().enumerate() {
            let cells: Vec<(usize, usize)> = spans.iter().map(|s| s[col]).collect();
            assert!(
                cells.iter().all(|c| c.0 == head.0) || cells.iter().all(|c| c.1 == head.1),
                "column {col} shifts: {cells:?}\n{text}"
            );
        }
    }

    #[test]
    fn text_columns_hold_cells_wider_than_their_headers() {
        let matrix = hand_matrix();
        for t in [
            fig9(&matrix),
            fig10(&matrix),
            fig11(&matrix),
            fig15(&matrix),
        ] {
            let text = t.render(Format::Text);
            assert!(text.contains("FP-VAXX-win"));
            // The notes (fig15's area line) follow the rows; check the table.
            let table: String = text
                .lines()
                .take(1 + 1 + 6)
                .map(|l| format!("{l}\n"))
                .collect();
            assert_aligned(&table);
        }
    }

    #[test]
    fn fig12_saturates_in_rate_order() {
        let cfg = SystemConfig::paper().with_sim_cycles(1_500);
        let series = fig12_series(
            Benchmark::Blackscholes,
            DestPattern::UniformRandom,
            &[0.05, 0.45],
            &cfg,
            3,
        );
        assert_eq!(series.len(), 5);
        for s in &series {
            assert!(!s.points.is_empty());
            assert!(s.saturation_rate() >= 0.05);
            // Latency grows (weakly) with offered load.
            if s.points.len() == 2 {
                assert!(s.points[1].1 >= s.points[0].1 * 0.8);
            }
        }
    }

    #[test]
    fn sensitivity_sweep_single_benchmark() {
        let cfg = SystemConfig::paper().with_sim_cycles(1_200);
        let t = sensitivity_sweep(&cfg, 9, &[Benchmark::Swaptions], &[5, 20], |c, s| {
            c.with_threshold(s)
        });
        // Per codec family: the compression anchor plus one row per setting.
        assert_eq!(
            column(&t, "setting"),
            ["compression", "5", "20", "compression", "5", "20"]
        );
        assert!(numbers(&t, "latency").iter().all(|l| *l > 0.0));
        let txt = t.render(Format::Text);
        assert!(txt.contains("DI-based") && txt.contains("FP-based"));
    }

    #[test]
    fn lz_study_audits_bounds_and_reports_all_three_mechanisms() {
        let cfg = SystemConfig::paper().with_sim_cycles(1_500);
        let t = lz_study(&cfg, 6, &[10], &[Benchmark::Ssca2, Benchmark::Blackscholes]);
        let mechs = column(&t, "mechanism");
        assert_eq!(mechs.len(), 6, "2 benchmarks x 3 mechanisms");
        assert!(numbers(&t, "compression_ratio").iter().all(|r| *r >= 0.9));
        assert!(
            numbers(&t, "bound_checked_words").iter().all(|w| *w > 0.0),
            "auditor must be armed"
        );
        assert!(
            numbers(&t, "bound_violations").iter().all(|v| *v == 0.0),
            "fault-free run violated"
        );
        assert!(numbers(&t, "quality").iter().all(|q| *q > 0.9));
        let latencies = numbers(&t, "encode_latency_cycles");
        let lz: Vec<f64> = mechs
            .iter()
            .zip(latencies)
            .filter(|(m, _)| *m == "LZ-VAXX")
            .map(|(_, l)| l)
            .collect();
        assert_eq!(lz, [4.0, 4.0]);

        let txt = t.render(Format::Text);
        assert!(
            txt.contains("LZ-VAXX") && txt.contains("summary: at 10%"),
            "{txt}"
        );
        let json = t.render(Format::Json);
        assert!(json.starts_with("{\"study\":\"lz\",\"rows\":["), "{json}");
        assert_eq!(json.matches("\"mechanism\":\"LZ-VAXX\"").count(), 2);
        assert!(json.trim_end().ends_with("]}"), "{json}");
    }

    #[test]
    fn fig17_produces_images_and_small_difference() {
        let r = fig17(5);
        assert!(r.precise_pgm.starts_with(b"P5\n64 64\n255\n"));
        assert_eq!(r.precise_pgm.len(), r.approx_pgm.len());
        assert!(r.vector_difference < 0.15, "{}", r.vector_difference);
        // Figure 17's point is visual indistinguishability: at most a small
        // fraction of the 8-bit pixels may move, and only barely.
        let diffs = r
            .precise_pgm
            .iter()
            .zip(&r.approx_pgm)
            .filter(|(a, b)| a != b)
            .count();
        assert!(diffs < r.precise_pgm.len() / 4, "{diffs} bytes differ");
        for (a, b) in r.precise_pgm.iter().zip(&r.approx_pgm).skip(13) {
            assert!(a.abs_diff(*b) <= 26, "pixel moved {a} -> {b}");
        }
    }
}

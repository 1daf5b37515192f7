//! # anoc-harness
//!
//! The experiment harness that regenerates every table and figure of
//! APPROX-NoC (ISCA 2017):
//!
//! * [`config`] — [`SystemConfig`] (Table 1 defaults) and the
//!   [`Mechanism`]s: the paper's five, LZ-VAXX and the extension codecs;
//! * [`runner`] — the generic traffic → NoC → statistics driver;
//! * [`experiments`] — one runner per figure (`fig9` … `fig17`), each
//!   producing the same rows/series the paper reports as a [`table::Table`];
//! * [`table`] — that one output model and its text, CSV and JSON
//!   renderers;
//! * [`campaign`] — the bridge to the `anoc-exec` parallel engine: cell
//!   content keys, the result-cache codec and the process-wide
//!   [`campaign::ExecContext`] every figure runner executes on;
//! * [`cli`] — the unified `anoc` command line (`anoc run fig9`,
//!   `anoc cache clear`, …) that the root binary and every per-figure
//!   alias binary delegate to;
//! * [`persist`] — bit-exact text serialization of [`RunResult`] for the
//!   on-disk result cache;
//! * [`power`] — the event-count dynamic power model and the §5.5 area
//!   accounting.
//!
//! ## Example
//!
//! ```
//! use anoc_harness::{Mechanism, SystemConfig};
//! use anoc_harness::runner::run_benchmark;
//! use anoc_traffic::Benchmark;
//!
//! let config = SystemConfig::paper().with_sim_cycles(2_000);
//! let result = run_benchmark(Benchmark::X264, Mechanism::FpVaxx, &config, 7);
//! assert!(result.data_quality() > 0.9);
//! ```

#![warn(missing_docs)]

pub mod campaign;
pub mod cli;
pub mod config;
pub mod experiments;
pub mod persist;
pub mod power;
pub mod runner;
pub mod table;

pub use campaign::ExecContext;
pub use config::{Mechanism, SystemConfig};
pub use power::{AreaModel, EnergyModel};
pub use runner::{run_benchmark, run_with_source, RunResult};

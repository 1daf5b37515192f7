//! # anoc-bench
//!
//! Criterion benchmarks of the simulator: microbenchmarks of the hot paths
//! (`benches/micro.rs`) and design-choice ablations (`benches/ablations.rs`).
//! Whole figures are regenerated by `anoc run <target>`, not by benches.

//! End-to-end acceptance test: a synthetic workspace tree with exactly one
//! seeded violation per rule must make `anoc-lint --deny` report every rule
//! and exit nonzero, while the cleaned-up twin exits zero. (The hygiene
//! checks handed to clippy have their seeded-violation gate in CI's `lint`
//! job instead.)

use std::path::{Path, PathBuf};

use anoc_lint::{apply_baseline, lint_root, Baseline, Options};

/// A scratch directory that cleans up after itself.
struct TempTree(PathBuf);

impl TempTree {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("anoc-lint-fixture-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create fixture root");
        TempTree(dir)
    }

    fn write(&self, rel: &str, contents: &str) {
        let path = self.0.join(rel);
        std::fs::create_dir_all(path.parent().expect("fixture files have parents"))
            .expect("create fixture dirs");
        std::fs::write(path, contents).expect("write fixture file");
    }

    fn root(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempTree {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const WORKSPACE_MANIFEST: &str = "[workspace]\nmembers = [\"crates/*\"]\n";

/// One deliberately-violating fixture per rule (L000, D004, D005, X001,
/// C003): each must fire, produce exit 1 under both modes, and serialize as
/// a schema-stable JSON finding.
#[test]
fn every_rule_fires_and_denies() {
    let tree = TempTree::new("dirty");
    tree.write("Cargo.toml", WORKSPACE_MANIFEST);
    // L000: a suppression without a reason.
    tree.write(
        "crates/noc/src/lib.rs",
        "//! Fixture crate root.\n\
         pub mod jitter;\npub mod phase;\npub mod stats;\n\
         // anoc-lint: allow(D004)\n",
    );
    // D004: seeded construction without an rng-site annotation.
    tree.write(
        "crates/noc/src/jitter.rs",
        "pub fn jitter() -> u32 {\n\
             let mut r = Pcg32::seed_from_u64(42);\n\
             r.next_u32()\n\
         }\n",
    );
    // D005: a phase(A) root reaching a serial-edge mutator via a helper.
    tree.write(
        "crates/noc/src/phase.rs",
        "// anoc-lint: phase(A)\n\
         pub fn phase_a(s: &mut Sim) { helper(s); }\n\
         fn helper(s: &mut Sim) { s.eject_flit(0); }\n",
    );
    // C003: narrowing cast in a stats file.
    tree.write(
        "crates/noc/src/stats.rs",
        "impl NetStats {\n\
             pub fn rate(&self) -> u32 { self.flits_delivered as u32 }\n\
         }\n",
    );
    // X001: Relaxed ordering in exec library code.
    tree.write(
        "crates/exec/src/lib.rs",
        "//! Fixture exec root.\n\
         pub fn poll(s: &std::sync::atomic::AtomicU8) -> u8 {\n\
             s.load(std::sync::atomic::Ordering::Relaxed)\n\
         }\n",
    );
    let report = lint_root(tree.root()).expect("lint fixture tree");
    let fired: Vec<&str> = report.findings.iter().map(|f| f.rule_id).collect();
    for rule in ["L000", "D004", "D005", "X001", "C003"] {
        assert!(fired.contains(&rule), "rule {rule} did not fire: {fired:?}");
    }
    // L000/D004/D005/X001 are errors: the default mode already fails; C003
    // is a warning, covered by --deny.
    assert_eq!(report.exit_code(&Options::default()), 1);
    assert_eq!(
        report.exit_code(&Options {
            deny: true,
            ..Options::default()
        }),
        1
    );
    // Schema-stable JSON: every finding serializes with the fixed
    // key order (rule before severity before path).
    let json = report.render_json();
    assert!(json.contains("\"version\": 2"));
    assert!(json.contains(
        "{\"rule\": \"L000\", \"severity\": \"error\", \"path\": \"crates/noc/src/lib.rs\""
    ));
    assert!(json.contains(
        "{\"rule\": \"D004\", \"severity\": \"error\", \"path\": \"crates/noc/src/jitter.rs\""
    ));
    assert!(json.contains(
        "{\"rule\": \"D005\", \"severity\": \"error\", \"path\": \"crates/noc/src/phase.rs\""
    ));
    assert!(json.contains(
        "{\"rule\": \"C003\", \"severity\": \"warning\", \"path\": \"crates/noc/src/stats.rs\""
    ));
    assert!(json.contains(
        "{\"rule\": \"X001\", \"severity\": \"error\", \"path\": \"crates/exec/src/lib.rs\""
    ));
}

/// Every rule stays quiet when the contracts are honored: annotated RNG
/// sites, a phase root with a read-only call chain, audited Relaxed, and
/// test modules constructing ad-hoc RNGs.
#[test]
fn clean_tree_is_quiet() {
    let tree = TempTree::new("clean");
    tree.write("Cargo.toml", WORKSPACE_MANIFEST);
    tree.write(
        "crates/noc/src/lib.rs",
        "//! Fixture crate root.\n\
         pub mod kernel;\n",
    );
    tree.write(
        "crates/noc/src/kernel.rs",
        "// anoc-lint: rng-site: seeded from the sim config, one stream per run\n\
         pub fn rng(seed: u64) -> Pcg32 { Pcg32::seed_from_u64(seed) }\n\
         // anoc-lint: phase(A)\n\
         pub fn phase_a(s: &Sim) -> u64 { peek(s) }\n\
         fn peek(s: &Sim) -> u64 { s.now }\n\
         pub fn edge(s: &mut Sim) { s.eject_flit(0); }\n\
         #[cfg(test)]\n\
         mod tests {\n\
             #[test]\n\
             fn t() { let _ = Pcg32::seed_from_u64(1); }\n\
         }\n",
    );
    tree.write(
        "crates/exec/src/lib.rs",
        "//! Fixture exec root.\n\
         pub fn bump(n: &std::sync::atomic::AtomicU64) {\n\
             // anoc-lint: allow(X001): monotonic counter, read only after join\n\
             n.fetch_add(1, std::sync::atomic::Ordering::Relaxed);\n\
         }\n",
    );
    let report = lint_root(tree.root()).expect("lint fixture tree");
    assert!(
        report.findings.is_empty(),
        "unexpected findings: {:?}",
        report.findings
    );
    assert_eq!(report.suppressed, 1); // the X001 audit
}

/// Test trees (`tests/`, `examples/`, `crates/*/tests/`) are walked and get
/// L000 only: ad-hoc RNGs pass, malformed directives still fail — a typo'd
/// suppression in a test tree must not fail open.
#[test]
fn test_trees_are_walked_with_l000_only() {
    let tree = TempTree::new("test-trees");
    tree.write("Cargo.toml", WORKSPACE_MANIFEST);
    tree.write("crates/noc/src/lib.rs", "//! Fixture crate root.\n");
    tree.write(
        "crates/noc/tests/helper.rs",
        "fn scratch() -> u32 {\n\
             Pcg32::seed_from_u64(7).next_u32()\n\
         }\n\
         #[test]\n\
         fn t() { assert!(scratch() > 0); }\n",
    );
    tree.write(
        "examples/demo.rs",
        "fn main() {\n    println!(\"demo output is fine\");\n}\n",
    );
    let report = lint_root(tree.root()).expect("lint fixture tree");
    assert!(
        report.findings.is_empty(),
        "test trees should be L000-only: {:?}",
        report.findings
    );

    // A malformed directive in the same tree is still an L000 error.
    tree.write(
        "tests/integration.rs",
        "// anoc-lint: allow(D004)\nfn main() {}\n",
    );
    let report = lint_root(tree.root()).expect("lint fixture tree");
    let fired: Vec<(&str, &str)> = report
        .findings
        .iter()
        .map(|f| (f.rule_id, f.path.as_str()))
        .collect();
    assert_eq!(fired, vec![("L000", "tests/integration.rs")]);
    assert_eq!(report.exit_code(&Options::default()), 1);
}

/// The baseline workflow end-to-end: grandfather the current findings, stay
/// green; a new finding or suppression growth turns the run red again.
#[test]
fn baseline_grandfathers_and_catches_regressions() {
    let tree = TempTree::new("baseline");
    tree.write("Cargo.toml", WORKSPACE_MANIFEST);
    tree.write(
        "crates/noc/src/lib.rs",
        "//! Fixture crate root.\npub mod old;\n",
    );
    tree.write(
        "crates/noc/src/old.rs",
        "pub fn legacy() -> u32 { Pcg32::seed_from_u64(1).next_u32() }\n",
    );
    let report = lint_root(tree.root()).expect("lint fixture tree");
    assert_eq!(report.findings.len(), 1); // the D004 legacy site

    // Snapshot it; the same tree under the baseline is green, even --deny.
    let baseline = Baseline::from_report(&report);
    let parsed = Baseline::parse(&baseline.render_json()).expect("round trip");
    let mut rerun = lint_root(tree.root()).expect("lint fixture tree");
    apply_baseline(&mut rerun, &parsed);
    assert!(rerun.findings.is_empty());
    assert_eq!(rerun.grandfathered, 1);
    assert_eq!(
        rerun.exit_code(&Options {
            deny: true,
            ..Options::default()
        }),
        0
    );

    // A brand-new violation is NOT grandfathered.
    tree.write(
        "crates/noc/src/fresh.rs",
        "pub fn fresh() -> u32 { Pcg32::seed_from_u64(2).next_u32() }\n",
    );
    let mut regressed = lint_root(tree.root()).expect("lint fixture tree");
    apply_baseline(&mut regressed, &parsed);
    assert_eq!(regressed.findings.len(), 1);
    assert_eq!(regressed.findings[0].path, "crates/noc/src/fresh.rs");
    assert_eq!(regressed.exit_code(&Options::default()), 1);

    // Suppression growth past the budget fails even with zero findings.
    let _ = std::fs::remove_file(tree.root().join("crates/noc/src/fresh.rs"));
    tree.write(
        "crates/noc/src/old.rs",
        "// anoc-lint: allow(D004): grandfathered legacy stream\n\
         pub fn legacy() -> u32 { Pcg32::seed_from_u64(1).next_u32() }\n",
    );
    let mut grown = lint_root(tree.root()).expect("lint fixture tree");
    assert!(grown.findings.is_empty());
    assert_eq!(grown.suppressed, 1);
    apply_baseline(&mut grown, &parsed); // budget was 0 suppressions
    assert_eq!(grown.exit_code(&Options::default()), 1);
}

#[test]
fn non_sim_crates_may_construct_rngs_freely() {
    let tree = TempTree::new("harness");
    tree.write("Cargo.toml", WORKSPACE_MANIFEST);
    tree.write(
        "crates/harness/src/lib.rs",
        "//! Campaign seeds are derived in the harness, outside D004's scope.\n\
         pub fn cell_rng(seed: u64) -> Pcg32 {\n\
             Pcg32::seed_from_u64(seed)\n\
         }\n",
    );
    let report = lint_root(tree.root()).expect("lint fixture tree");
    assert!(
        report.findings.is_empty(),
        "unexpected findings: {:?}",
        report.findings
    );
}

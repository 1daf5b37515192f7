//! Self-check: the real workspace must be lint-clean. A new unannotated RNG
//! construction, phase-A call to a serial-edge mutator, narrowing stats cast,
//! unaudited `Ordering::Relaxed` or stale directive fails this test (and CI)
//! immediately. Clocks, hash maps, float equality, panics, printing and
//! `unsafe` are clippy's and rustc's to catch (DESIGN.md §6).

use std::path::Path;

use anoc_lint::{lint_root, Baseline, Options};

fn workspace_root() -> &'static Path {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels under the workspace root");
    root
}

#[test]
fn workspace_is_lint_clean() {
    let root = workspace_root();
    assert!(
        root.join("Cargo.toml").exists(),
        "workspace root not found at {}",
        root.display()
    );
    let report = lint_root(root).expect("lint workspace");
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );
    let rendered = report.render_human();
    assert!(
        report.findings.is_empty(),
        "workspace has lint findings:\n{rendered}"
    );
    assert_eq!(
        report.exit_code(&Options {
            deny: true,
            ..Options::default()
        }),
        0
    );
}

/// The committed baseline must stay in sync with reality: no grandfathered
/// findings (the tree is clean), and a suppression budget the live count
/// does not exceed. If a suppression was legitimately added, regenerate with
/// `cargo run -p anoc-lint -- --write-baseline lint-baseline.json`.
#[test]
fn committed_baseline_matches_workspace() {
    let root = workspace_root();
    let text = std::fs::read_to_string(root.join("lint-baseline.json"))
        .expect("committed lint-baseline.json at the workspace root");
    let baseline = Baseline::parse(&text).expect("parse committed baseline");
    assert!(
        baseline.entries.is_empty(),
        "the workspace carries grandfathered findings; burn them down or \
         justify each in the PR: {:?}",
        baseline.entries
    );
    let report = lint_root(root).expect("lint workspace");
    assert!(
        report.suppressed <= baseline.suppressed,
        "live suppression count {} exceeds the committed budget {}; fix the \
         finding or regenerate the baseline deliberately",
        report.suppressed,
        baseline.suppressed
    );
}

//! The repo-specific rule set, organized into families.
//!
//! Every rule is grounded in a concrete hazard of this codebase: the result
//! cache and the golden-fingerprint test both assume that a
//! `(config, workload, seed)` triple reproduces identical bits, and the
//! sharded kernel (DESIGN.md §10) additionally assumes phase-A code reads
//! only last-edge state and cross-thread handoff uses correctly-ordered
//! atomics. Anything that can silently break those contracts is flagged at
//! the source level, before it ever reaches a simulation.
//!
//! | id   | severity | family      | checks |
//! |------|----------|-------------|--------|
//! | L000 | error    | hygiene     | malformed or unknown-rule `anoc-lint:` directive, dangling `phase()`, unbalanced braces |
//! | D004 | error    | determinism | ambient entropy, or RNG construction outside a `rng-site`-annotated seeded-Pcg32 site |
//! | D005 | error    | determinism | serial-edge mutator reachable from a `phase(A)` root |
//! | C003 | warning  | correctness | silently-narrowing `as` cast in a stats-accumulation path |
//! | X001 | error    | concurrency | `Ordering::Relaxed` in `anoc-exec` without an audit reason |
//!
//! Generic hygiene (wall clocks, hash-ordered collections, float equality,
//! panicking calls, printing, `unsafe`) is checked by rustc and clippy with
//! real type information; the mapping is in DESIGN.md §6.
//!
//! Directives (plain `//` comments, same line or the line above):
//!
//! * `// anoc-lint: allow(RULE[, RULE…]): <reason>` — suppression;
//! * `// anoc-lint: phase(A)` — marks the next `fn` as a phase-A root (D005);
//! * `// anoc-lint: rng-site: <reason>` — sanctions an RNG construction (D004).
//!
//! Rule eligibility is scope- and location-aware: files under `tests/`,
//! `benches/` or `examples/` get L000 only (a malformed directive must
//! never silently fail open), X001/C003 extend to `anoc-exec`, and D004/D005
//! run on sim-critical crates with `#[cfg(test)]` scopes exempted per-tree
//! where the rule says so.

mod concurrency;
mod correctness;
mod determinism;
mod hygiene;

use crate::lexer::Lexed;
use crate::syntax;

/// Finding severity. `Error` fails the run; `Warning` fails under `--deny`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Warning,
    Error,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// A rule's stable identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rule {
    pub id: &'static str,
    pub severity: Severity,
    pub summary: &'static str,
}

/// All rules, in report order.
pub const RULES: [Rule; 5] = [
    Rule {
        id: "L000",
        severity: Severity::Error,
        summary: "malformed anoc-lint directive or unbalanced scope",
    },
    Rule {
        id: "D004",
        severity: Severity::Error,
        summary: "RNG constructed outside a sanctioned seeded site",
    },
    Rule {
        id: "D005",
        severity: Severity::Error,
        summary: "serial-edge mutator reachable from a parallel phase root",
    },
    Rule {
        id: "C003",
        severity: Severity::Warning,
        summary: "silently-narrowing cast in a stats-accumulation path",
    },
    Rule {
        id: "X001",
        severity: Severity::Error,
        summary: "unaudited Ordering::Relaxed in anoc-exec",
    },
];

pub fn rule(id: &str) -> &'static Rule {
    RULES
        .iter()
        .find(|r| r.id == id)
        .unwrap_or_else(|| panic!("unknown rule id {id}"))
}

/// The crates whose behaviour feeds simulation statistics: D004, D005 and
/// C003 run here (X001/C003 also cover `exec`). Their crate roots also deny
/// the clippy hygiene lints listed in DESIGN.md §6.
pub const SIM_CRITICAL_CRATES: [&str; 5] = ["noc", "compression", "core", "traffic", "apps"];

/// Serial-edge mutators that phase-A code must never reach (DESIGN.md §10):
/// each one writes current-edge state (ejections, credits, traces, control
/// queues, fault draws) that only the serial cycle edge may touch.
pub const DEFAULT_PHASE_DENY: [&str; 11] = [
    "return_credit",
    "eject_flit",
    "complete_packet",
    "flip_payload_bit",
    "credit_copies",
    "record_trace",
    "enqueue_control_with",
    "check_bound",
    "schedule",
    "drain_delivered",
    "apply_notification",
];

/// Tunable rule parameters, settable from the CLI.
#[derive(Debug, Clone)]
pub struct RuleConfig {
    /// D005 deny-list: function names phase-A-reachable code may not call.
    pub phase_deny: Vec<String>,
}

impl Default for RuleConfig {
    fn default() -> Self {
        RuleConfig {
            phase_deny: DEFAULT_PHASE_DENY.iter().map(|s| s.to_string()).collect(),
        }
    }
}

/// Where a file sits in the workspace — determines which rules apply.
#[derive(Debug, Clone, Default)]
pub struct FileContext {
    /// Path relative to the workspace root, `/`-separated.
    pub path: String,
    /// Crate directory name under `crates/` (or the root package name).
    pub crate_name: String,
    /// Member of [`SIM_CRITICAL_CRATES`].
    pub sim_critical: bool,
    /// Under `tests/`, `benches/` or `examples/` — everything is test code.
    pub is_test_file: bool,
    /// Under `src/bin/` or a `main.rs` — CLI entry points, exempt from the
    /// rng-site and narrowing audits.
    pub is_bin: bool,
}

/// One finding, pre-suppression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub rule: &'static Rule,
    pub line: u32,
    pub message: String,
}

/// Runs every applicable rule over one lexed file with the default config.
/// Suppressions are applied by the caller (so suppressed counts can be
/// reported).
pub fn check(ctx: &FileContext, lexed: &Lexed) -> Vec<Violation> {
    check_with(ctx, lexed, &RuleConfig::default())
}

/// [`check`] with explicit rule parameters.
pub fn check_with(ctx: &FileContext, lexed: &Lexed, cfg: &RuleConfig) -> Vec<Violation> {
    let tree = syntax::build(lexed);
    let mut out = Vec::new();
    hygiene::check_l000(lexed, &tree, &mut out);
    // Test trees get L000 only: directives there are still parsed, so a
    // typo'd one never fails open.
    if !ctx.is_test_file {
        concurrency::check_x001(ctx, lexed, &mut out);
        correctness::check_c003(ctx, lexed, &tree, &mut out);
        if ctx.sim_critical {
            determinism::check(ctx, lexed, &tree, cfg, &mut out);
        }
    }
    out.sort_by_key(|v| (v.line, v.rule.id));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    pub(super) fn sim_ctx() -> FileContext {
        FileContext {
            path: "crates/noc/src/sim.rs".into(),
            crate_name: "noc".into(),
            sim_critical: true,
            ..FileContext::default()
        }
    }

    pub(super) fn check_src(ctx: &FileContext, src: &str) -> Vec<Violation> {
        let lexed = lex(src);
        check(ctx, &lexed)
            .into_iter()
            .filter(|v| !lexed.is_suppressed(v.rule.id, v.line))
            .collect()
    }

    pub(super) fn ids(vs: &[Violation]) -> Vec<&'static str> {
        vs.iter().map(|v| v.rule.id).collect()
    }

    #[test]
    fn violations_in_strings_and_comments_do_not_fire() {
        let ctx = sim_ctx();
        assert!(check_src(&ctx, "let s = \"OsRng Pcg32::new(1, 2)\";").is_empty());
        assert!(check_src(&ctx, "// OsRng in prose\n/* Pcg32::new(1, 2) */").is_empty());
        assert!(check_src(&ctx, "let s = r#\"rand::random()\"#;").is_empty());
    }

    #[test]
    fn test_tree_files_get_hygiene_rules_only() {
        let test_file = FileContext {
            is_test_file: true,
            ..sim_ctx()
        };
        // Ad-hoc RNGs and narrowing casts: all fine in a test tree.
        assert!(check_src(
            &test_file,
            "fn t() { let r = Pcg32::seed_from_u64(1); let n = big as u32; }"
        )
        .is_empty());
        // …but a malformed directive still fails loudly.
        assert_eq!(
            ids(&check_src(
                &test_file,
                "// anoc-lint: allow(D004)\nfn t() {}"
            )),
            vec!["L000"]
        );
    }

    #[test]
    fn rule_table_is_consistent() {
        for r in &RULES {
            assert_eq!(rule(r.id).id, r.id);
        }
        let ids: Vec<&str> = RULES.iter().map(|r| r.id).collect();
        assert_eq!(ids, ["L000", "D004", "D005", "C003", "X001"]);
    }
}

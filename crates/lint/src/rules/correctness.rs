//! The correctness family: C003. (Panicking calls and `unsafe` are checked
//! by clippy's `unwrap_used`/`expect_used`/`panic` and rustc's
//! `unsafe_code`; see DESIGN.md §6.)

use super::{rule, FileContext, Violation};
use crate::lexer::{Lexed, TokKind};
use crate::syntax::ItemTree;

/// File basenames whose whole content is a stats-accumulation path.
const STATS_FILES: [&str; 4] = ["stats.rs", "histogram.rs", "metrics.rs", "progress.rs"];

/// `as` targets that narrow a counter or rate (the PR 6 undercount class:
/// a 64-bit accumulator squeezed through 32 bits drops high-traffic runs'
/// precision silently).
const NARROW_TARGETS: [&str; 7] = ["u8", "u16", "u32", "i8", "i16", "i32", "f32"];

/// All integer `as` targets, for the float→int truncation pattern.
const INT_TARGETS: [&str; 12] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Float methods whose result is then commonly `as`-cast: `f.ceil() as u64`
/// maps NaN to 0 silently (the PR 6 NaN/undercount bug class).
const FLOAT_ROUNDERS: [&str; 4] = ["ceil", "floor", "round", "trunc"];

/// C003 — silently-narrowing casts in stats-accumulation paths. Applies to
/// sim-critical crates and `anoc-exec` (whose progress/rate code feeds the
/// run summaries).
pub(super) fn check_c003(
    ctx: &FileContext,
    lexed: &Lexed,
    tree: &ItemTree,
    out: &mut Vec<Violation>,
) {
    if !(ctx.sim_critical || ctx.crate_name == "exec") || ctx.is_bin {
        return;
    }
    let basename = ctx.path.rsplit('/').next().unwrap_or("");
    let file_is_stats = STATS_FILES.contains(&basename);
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "as" || tree.in_test(t.line) {
            continue;
        }
        let Some(target) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) else {
            continue;
        };
        let in_stats_scope = file_is_stats
            || tree.enclosing_impl_name(t.line).is_some_and(|n| {
                n.contains("Stats") || n.contains("Tally") || n.contains("Histogram")
            });
        if !in_stats_scope {
            continue;
        }
        if NARROW_TARGETS.contains(&target.text.as_str()) {
            out.push(Violation {
                rule: rule("C003"),
                line: t.line,
                message: format!(
                    "`as {}` narrows a stats value; widen the accumulator or use a \
                     checked conversion (silent truncation is the PR-6 undercount class)",
                    target.text
                ),
            });
            continue;
        }
        // `x.ceil() as u64` — the preceding tokens are `. rounder ( )`.
        if INT_TARGETS.contains(&target.text.as_str())
            && i >= 4
            && toks[i - 1].text == ")"
            && toks[i - 2].text == "("
            && FLOAT_ROUNDERS.contains(&toks[i - 3].text.as_str())
            && toks[i - 4].text == "."
        {
            out.push(Violation {
                rule: rule("C003"),
                line: t.line,
                message: format!(
                    "`.{}() as {}` maps NaN to 0 silently; guard the float before \
                     casting or carry it as f64",
                    toks[i - 3].text,
                    target.text
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{check_src, ids, sim_ctx};
    use super::super::FileContext;

    fn stats_ctx() -> FileContext {
        FileContext {
            path: "crates/noc/src/stats.rs".into(),
            crate_name: "noc".into(),
            sim_critical: true,
            ..FileContext::default()
        }
    }

    #[test]
    fn c003_narrowing_in_stats_files_fires() {
        let vs = check_src(
            &stats_ctx(),
            "impl NetStats { fn rate(&self) -> u32 { self.delivered as u32 } }",
        );
        assert_eq!(ids(&vs), vec!["C003"]);
        // Widening casts are fine.
        assert!(check_src(
            &stats_ctx(),
            "impl NetStats { fn rate(&self) -> f64 { self.delivered as f64 } }"
        )
        .is_empty());
        assert!(check_src(
            &stats_ctx(),
            "fn idx(&self) -> usize { self.bucket as usize }"
        )
        .is_empty());
    }

    #[test]
    fn c003_impl_scope_detection_outside_stats_files() {
        // A Stats impl in a non-stats file is still covered…
        let vs = check_src(
            &sim_ctx(),
            "impl InjectTally { fn count(&self) -> u16 { self.n as u16 } }",
        );
        assert_eq!(ids(&vs), vec!["C003"]);
        // …but unrelated impls are not.
        assert!(check_src(
            &sim_ctx(),
            "impl Router { fn port(&self) -> u8 { self.p as u8 } }"
        )
        .is_empty());
    }

    #[test]
    fn c003_float_rounder_truncation_fires() {
        let vs = check_src(
            &stats_ctx(),
            "fn buckets(&self) -> u64 { (self.span / self.width).ceil() as u64 }",
        );
        assert_eq!(ids(&vs), vec!["C003"]);
        assert!(vs[0].message.contains("NaN"));
        // A rounder kept as float is fine.
        assert!(check_src(
            &stats_ctx(),
            "fn b(&self) -> f64 { (self.span / self.width).ceil() }"
        )
        .is_empty());
    }

    #[test]
    fn c003_applies_to_exec_but_not_harness() {
        let exec = FileContext {
            path: "crates/exec/src/progress.rs".into(),
            crate_name: "exec".into(),
            ..FileContext::default()
        };
        assert_eq!(
            ids(&check_src(&exec, "fn pct(&self) -> u8 { self.frac as u8 }")),
            vec!["C003"]
        );
        let harness = FileContext {
            path: "crates/harness/src/progress.rs".into(),
            crate_name: "harness".into(),
            ..FileContext::default()
        };
        assert!(check_src(&harness, "fn pct(&self) -> u8 { self.frac as u8 }").is_empty());
    }

    #[test]
    fn c003_suppresses_and_skips_tests() {
        assert!(check_src(
            &stats_ctx(),
            "fn r(&self) -> u32 { self.d as u32 } // anoc-lint: allow(C003): bounded by grid size"
        )
        .is_empty());
        assert!(check_src(
            &stats_ctx(),
            "#[cfg(test)]\nmod tests { fn f() { let x = big as u32; } }"
        )
        .is_empty());
    }
}

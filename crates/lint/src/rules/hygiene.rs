//! The hygiene family: L000. (Printing from library code is clippy's
//! `print_stdout`/`print_stderr`; see DESIGN.md §6.)

use super::{rule, Violation, RULES};
use crate::lexer::Lexed;
use crate::syntax::ItemTree;

/// L000 — every defect in the directive/scope layer itself: malformed
/// `anoc-lint:` comments, `allow()` lists naming no rule in [`RULES`],
/// `phase()` annotations with no `fn` to bind to, and unbalanced braces
/// (which would silently mis-scope every other rule). Runs on every file, test trees included, so a typo'd directive
/// never fails open.
pub(super) fn check_l000(lexed: &Lexed, tree: &ItemTree, out: &mut Vec<Violation>) {
    for m in &lexed.malformed {
        out.push(Violation {
            rule: rule("L000"),
            line: m.line,
            message: format!("malformed anoc-lint directive: {}", m.detail),
        });
    }
    for s in &lexed.suppressions {
        for id in &s.rules {
            if !RULES.iter().any(|r| r.id == id) {
                out.push(Violation {
                    rule: rule("L000"),
                    line: s.line,
                    message: format!(
                        "`allow({id})` names no anoc-lint rule; suppress a clippy \
                         lint with `#[expect(clippy::<lint>, reason = \"...\")]`"
                    ),
                });
            }
        }
    }
    for &line in &tree.dangling_phase {
        out.push(Violation {
            rule: rule("L000"),
            line,
            message: "`phase(...)` annotation with no following `fn` to attach to".into(),
        });
    }
    for b in &tree.balance_errors {
        out.push(Violation {
            rule: rule("L000"),
            line: b.line,
            message: format!("unbalanced braces: {}", b.detail),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{check_src, ids, sim_ctx};
    use super::super::Severity;

    #[test]
    fn l000_malformed_directive_is_an_error() {
        let vs = check_src(&sim_ctx(), "// anoc-lint: allow(X001)\nlet m = 1;");
        assert_eq!(ids(&vs), vec!["L000"]);
        assert_eq!(vs[0].rule.severity, Severity::Error);
    }

    #[test]
    fn l000_unknown_rule_in_allow_is_an_error() {
        // D002 moved to clippy's `disallowed_types`: a stale allow for it
        // must not linger silently.
        let stale = "D002";
        let src =
            format!("// anoc-lint: allow({stale}, X001): ordering never observed\nlet m = 1;");
        let vs = check_src(&sim_ctx(), &src);
        assert_eq!(ids(&vs), vec!["L000"]);
        assert!(vs[0].message.contains(stale));
    }

    #[test]
    fn l000_unbalanced_braces_are_reported() {
        let vs = check_src(&sim_ctx(), "fn f() { if x { }\n");
        assert!(ids(&vs).contains(&"L000"));
        assert!(check_src(&sim_ctx(), "fn f() { if x { } }\n").is_empty());
    }
}

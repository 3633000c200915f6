//! The rule registry.
//!
//! Each rule checks one project invariant that neither a type nor the
//! generic toolchain lints can express. Rules see the whole indexed
//! workspace (a [`LintContext`]), so the interprocedural rule can walk
//! the call graph and the inferred effect labels. Invariants a type,
//! `rustc` or the benchmark already enforces are deliberately *not*
//! rules (DESIGN.md §7 lists what replaced each retired rule).

use crate::diagnostics::Diagnostic;
use crate::engine::LintContext;

mod no_wall_clock;
mod panic_free_hot_path;
mod typed_errors;

/// One lint rule.
pub trait Rule {
    /// Kebab-case rule name (what `allow(<rule>)` refers to).
    fn name(&self) -> &'static str;

    /// One-line description for `--list-rules`.
    fn description(&self) -> &'static str;

    /// The concrete failure in this repository the rule guards (file
    /// and mechanism) — the paragraph `--explain <rule>` prints under
    /// WHY.
    fn rationale(&self) -> &'static str;

    /// A minimal violating snippet (and, where useful, the fix) for
    /// `--explain <rule>`.
    fn example(&self) -> &'static str;

    /// Appends this rule's violations over the workspace.
    fn check(&self, ctx: &LintContext, out: &mut Vec<Diagnostic>);
}

/// Every registered rule, in a fixed order.
pub fn registry() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(no_wall_clock::NoWallClock),
        Box::new(panic_free_hot_path::PanicFreeHotPath),
        Box::new(typed_errors::TypedErrors),
    ]
}

/// Names `allow(<rule>)` accepts: every registered rule. The
/// `suppression` pseudo-rule (malformed allows) is deliberately not
/// listed — a suppression problem cannot be suppressed.
pub fn rule_names() -> Vec<&'static str> {
    registry().iter().map(|r| r.name()).collect()
}

/// Whether `rel` lives under the `/`-separated directory `dir`.
pub(crate) fn in_dir(rel: &str, dir: &str) -> bool {
    rel.strip_prefix(dir)
        .is_some_and(|rest| rest.starts_with('/'))
}

/// The closest candidate to `input` by edit distance, if it is close
/// enough to be a plausible typo (distance ≤ 1/3 of the input length,
/// minimum 2). Used by `--explain` and unknown-`allow` diagnostics.
pub fn did_you_mean<'a>(input: &str, candidates: &[&'a str]) -> Option<&'a str> {
    let budget = (input.len() / 3).max(2);
    candidates
        .iter()
        .map(|c| (levenshtein(input, c), *c))
        .filter(|&(d, _)| d <= budget)
        .min() // ties break alphabetically — deterministic output
        .map(|(_, c)| c)
}

/// Classic two-row Levenshtein distance.
fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_the_three_rules() {
        let names = rule_names();
        assert_eq!(
            names,
            vec!["no-wall-clock", "panic-free-hot-path", "typed-errors"]
        );
    }

    /// The doc-drift gate: DESIGN.md §7 carries one catalogue row per
    /// registry rule (and one for the `suppression` pseudo-rule), so the
    /// docs cannot silently fall behind the analyzer.
    #[test]
    fn design_doc_has_a_catalogue_row_per_rule() {
        let design = include_str!("../../../../DESIGN.md");
        for name in rule_names().into_iter().chain(["suppression"]) {
            let row = format!("| `{name}`");
            assert!(
                design.lines().any(|l| l.starts_with(&row)),
                "DESIGN.md §7 is missing a catalogue row for rule `{name}`"
            );
        }
    }

    #[test]
    fn every_rule_has_explain_content() {
        for rule in registry() {
            assert!(!rule.rationale().is_empty(), "{}", rule.name());
            assert!(!rule.example().is_empty(), "{}", rule.name());
        }
    }

    #[test]
    fn in_dir_matches_whole_components() {
        assert!(in_dir("crates/core/src/cache.rs", "crates/core"));
        assert!(!in_dir("crates/core_extra/src/x.rs", "crates/core"));
        assert!(!in_dir("crates/core", "crates/core"));
    }

    #[test]
    fn did_you_mean_suggests_close_names_only() {
        let names = rule_names();
        assert_eq!(
            did_you_mean("panic-free-hotpath", &names),
            Some("panic-free-hot-path")
        );
        assert_eq!(did_you_mean("typederrors", &names), Some("typed-errors"));
        assert_eq!(did_you_mean("totally-made-up", &names), None);
    }

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("same", "same"), 0);
    }
}

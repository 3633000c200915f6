//! `ssdtrain-lint` — workspace-aware static analysis for the SSDTrain
//! reproduction.
//!
//! Three of this project's invariants are out of reach of types, of
//! `rustc` and of clippy: timing must come from the simulated clock,
//! the offload hot path must not panic — directly or through the
//! helpers it calls — and public APIs must carry typed errors. This
//! crate lexes every first-party `.rs` file with a small hand-written
//! scanner (no external parser — the vendor tree is offline-only),
//! indexes it into items, a call graph and may-panic effect labels
//! (the [`engine`]), and runs the rules over the result. Everything a
//! type or the compiler can enforce is enforced there instead:
//! `#[must_use]` guards, exhaustive destructuring, `deny(missing_docs)`
//! (DESIGN.md §7 keeps the list).
//!
//! Violations can be silenced per line with
//! `// ssdtrain-lint: allow(<rule>): <reason>` — the reason is
//! mandatory, so every suppression is explained in the source.

pub mod diagnostics;
pub mod engine;
pub mod lexer;
pub mod rules;
pub mod sarif;
pub mod suppress;
pub mod workspace;

pub use diagnostics::{Diagnostic, Report};

use std::collections::BTreeSet;
use std::io;
use std::path::Path;

/// Lints every first-party `.rs` file under `root`.
///
/// When `only_paths` is `Some`, analysis still covers the whole
/// workspace (cross-file rules need the full picture) but only
/// diagnostics anchored in the listed workspace-relative paths are
/// reported.
///
/// # Errors
/// Returns an error only when the root directory cannot be walked.
pub fn lint_root(root: &Path, only_paths: Option<&BTreeSet<String>>) -> io::Result<Report> {
    let ws = workspace::Workspace::load(root)?;
    let ctx = engine::LintContext::new(&ws);
    let mut raw = Vec::new();
    for rule in rules::registry() {
        rule.check(&ctx, &mut raw);
    }

    let mut report = Report {
        files_scanned: ws.files.len(),
        ..Report::default()
    };
    // The context already parsed every suppression comment (the effect
    // inference honours seed-level allows); reuse it for reporting.
    for (fi, file) in ws.files.iter().enumerate() {
        let sup = &ctx.suppressions[fi];
        for d in raw.iter().filter(|d| d.path == file.rel) {
            if sup.is_allowed(d.rule, d.line) {
                report.suppressed += 1;
            } else {
                report.diagnostics.push(d.clone());
            }
        }
    }
    // A malformed allow is itself a violation — and not a suppressible
    // one, so nobody can silence the silencer.
    report
        .diagnostics
        .extend(ctx.bad_suppressions.iter().cloned());

    if let Some(only) = only_paths {
        report.diagnostics.retain(|d| only.contains(&d.path));
    }
    report.normalize();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ssdtrain-lint-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(dir.join("crates/core/src")).unwrap();
        dir
    }

    #[test]
    fn suppressed_violations_are_counted_not_reported() {
        let dir = scratch("sup");
        fs::write(
            dir.join("crates/core/src/cache.rs"),
            "// ssdtrain-lint: hot-path\nfn f(x: Option<u8>) -> u8 {\n    // ssdtrain-lint: allow(panic-free-hot-path): unit-test scaffold\n    x.unwrap()\n}\n",
        )
        .unwrap();
        let report = lint_root(&dir, None).unwrap();
        assert!(report.is_clean(), "{}", report.render_text());
        assert_eq!(report.suppressed, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn only_paths_filters_reporting_not_analysis() {
        let dir = scratch("only");
        fs::write(
            dir.join("crates/core/src/cache.rs"),
            "// ssdtrain-lint: hot-path\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
        )
        .unwrap();
        fs::write(
            dir.join("crates/core/src/io.rs"),
            "// ssdtrain-lint: hot-path\nfn g(x: Option<u8>) -> u8 { x.unwrap() }\n",
        )
        .unwrap();
        let full = lint_root(&dir, None).unwrap();
        assert_eq!(full.diagnostics.len(), 2);
        let only: BTreeSet<String> = ["crates/core/src/io.rs".to_owned()].into();
        let filtered = lint_root(&dir, Some(&only)).unwrap();
        assert_eq!(filtered.diagnostics.len(), 1);
        assert_eq!(filtered.diagnostics[0].path, "crates/core/src/io.rs");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_comment_can_allow_several_rules_on_a_line() {
        let dir = scratch("multi");
        // Both a panic-free and (via a seeded `Instant::now`) a
        // wall-clock violation on one line, silenced by one comment.
        fs::write(
            dir.join("crates/core/src/cache.rs"),
            "// ssdtrain-lint: hot-path\nfn f(x: Option<u8>) -> u8 {\n    \
             // ssdtrain-lint: allow(panic-free-hot-path): scaffold; allow(no-wall-clock): scaffold\n    \
             let _t = Instant::now(); x.unwrap()\n}\n",
        )
        .unwrap();
        let report = lint_root(&dir, None).unwrap();
        assert!(report.is_clean(), "{}", report.render_text());
        assert_eq!(report.suppressed, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn allow_for_unknown_rule_is_reported_not_silenced() {
        let dir = scratch("unknown");
        fs::write(
            dir.join("crates/core/src/cache.rs"),
            "// ssdtrain-lint: hot-path\nfn f(x: Option<u8>) -> u8 {\n    \
             // ssdtrain-lint: allow(totally-made-up): please\n    x.unwrap()\n}\n",
        )
        .unwrap();
        let report = lint_root(&dir, None).unwrap();
        // The unwrap still fires AND the bogus allow is a violation.
        assert_eq!(report.diagnostics.len(), 2, "{}", report.render_text());
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.rule == "suppression" && d.message.contains("unknown rule")));
        assert_eq!(report.suppressed, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn changed_only_filters_suppression_diagnostics_like_any_other() {
        let dir = scratch("chg-sup");
        // A malformed allow in a file outside the changed set must not
        // fail a --changed-only run; in the changed set it must.
        fs::write(
            dir.join("crates/core/src/cache.rs"),
            "// ssdtrain-lint: allow(panic-free-hot-path)\nfn f() {}\n",
        )
        .unwrap();
        fs::write(dir.join("crates/core/src/io.rs"), "fn g() {}\n").unwrap();
        let other: BTreeSet<String> = ["crates/core/src/io.rs".to_owned()].into();
        let report = lint_root(&dir, Some(&other)).unwrap();
        assert!(report.is_clean(), "{}", report.render_text());
        let changed: BTreeSet<String> = ["crates/core/src/cache.rs".to_owned()].into();
        let report = lint_root(&dir, Some(&changed)).unwrap();
        assert_eq!(report.diagnostics.len(), 1, "{}", report.render_text());
        assert_eq!(report.diagnostics[0].rule, "suppression");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn suppression_of_a_transitive_finding_works_end_to_end() {
        let dir = scratch("chain-sup");
        // The panic is reached through a helper outside the hot set; an
        // allow at the hot call site silences that one finding.
        fs::write(
            dir.join("crates/core/src/tier.rs"),
            "// ssdtrain-lint: hot-path\nfn place(k: u64) -> u8 {\n    \
             // ssdtrain-lint: allow(panic-free-hot-path): fixture proves call-site suppression\n    \
             fetch(k)\n}\n",
        )
        .unwrap();
        fs::write(
            dir.join("crates/core/src/util.rs"),
            "pub fn fetch(k: u64) -> u8 { lookup(k).unwrap() }\n\
             fn lookup(k: u64) -> Option<u8> { None }\n",
        )
        .unwrap();
        let report = lint_root(&dir, None).unwrap();
        assert!(report.is_clean(), "{}", report.render_text());
        assert_eq!(report.suppressed, 1);
        let _ = fs::remove_dir_all(&dir);
    }
}

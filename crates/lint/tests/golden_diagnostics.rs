//! Golden tests over the seeded fixture trees.
//!
//! `fixtures/violations/` mirrors real workspace paths and plants one
//! violation per rule (plus one suppressed site and one malformed
//! allow); the JSON report over it is pinned byte-for-byte. Regenerate
//! with `UPDATE_GOLDEN=1 cargo test -p ssdtrain-lint`.

use ssdtrain_lint::lint_root;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn violations_fixture_matches_golden_json() {
    let report = lint_root(&fixture_root("violations"), None).expect("scan fixtures");
    let json = report.render_json();
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/violations.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(golden.parent().expect("golden dir")).expect("mkdir golden");
        fs::write(&golden, &json).expect("write golden");
        return;
    }
    let want = fs::read_to_string(&golden).expect(
        "missing tests/golden/violations.json; run UPDATE_GOLDEN=1 cargo test -p ssdtrain-lint",
    );
    assert_eq!(
        json, want,
        "lint JSON drifted from the golden file; if the change is intentional run \
         UPDATE_GOLDEN=1 cargo test -p ssdtrain-lint"
    );
}

#[test]
fn each_rule_fires_at_its_seeded_anchor() {
    let report = lint_root(&fixture_root("violations"), None).expect("scan fixtures");
    let fired = |rule: &str, path: &str, line: u32| {
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == rule && d.path == path && d.line == line)
    };
    let anchors = [
        ("no-wall-clock", "crates/simhw/src/clock.rs", 2),
        ("no-wall-clock", "crates/simhw/src/clock.rs", 6),
        ("panic-free-hot-path", "crates/core/src/cache.rs", 6),
        ("panic-free-hot-path", "crates/core/src/cache.rs", 16),
        ("typed-errors", "crates/train/src/api.rs", 4),
        ("typed-errors", "crates/train/src/api.rs", 9),
        ("suppression", "crates/core/src/cache.rs", 14),
        // Interprocedural: the effect is inferred through the call
        // graph and reported at the hot-path call site.
        ("panic-free-hot-path", "crates/core/src/placement.rs", 9),
    ];
    for (rule, path, line) in anchors {
        assert!(
            fired(rule, path, line),
            "expected {rule} at {path}:{line}; got:\n{}",
            report.render_text()
        );
    }
    assert_eq!(
        report.diagnostics.len(),
        anchors.len(),
        "unexpected extra diagnostics:\n{}",
        report.render_text()
    );
    assert_eq!(
        report.suppressed, 1,
        "the annotated expect should be suppressed"
    );
}

#[test]
fn clean_fixture_is_clean_and_binary_exits_zero() {
    let report = lint_root(&fixture_root("clean"), None).expect("scan fixtures");
    assert!(report.is_clean(), "{}", report.render_text());

    let out = Command::new(env!("CARGO_BIN_EXE_ssdtrain-lint"))
        .args(["--root"])
        .arg(fixture_root("clean"))
        .args(["--format", "json"])
        .output()
        .expect("run ssdtrain-lint");
    assert!(
        out.status.success(),
        "expected exit 0 on the clean fixture tree:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn violations_fixture_makes_binary_exit_one() {
    let out = Command::new(env!("CARGO_BIN_EXE_ssdtrain-lint"))
        .args(["--root"])
        .arg(fixture_root("violations"))
        .output()
        .expect("run ssdtrain-lint");
    assert_eq!(
        out.status.code(),
        Some(1),
        "expected exit 1 on the seeded violations:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn list_rules_names_exactly_the_three() {
    let out = Command::new(env!("CARGO_BIN_EXE_ssdtrain-lint"))
        .arg("--list-rules")
        .output()
        .expect("run ssdtrain-lint");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let names: Vec<&str> = text
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(
        names,
        ["no-wall-clock", "panic-free-hot-path", "typed-errors"],
        "{text}"
    );
}

#[test]
fn sarif_output_is_wellformed_and_byte_stable() {
    let run_once = || {
        Command::new(env!("CARGO_BIN_EXE_ssdtrain-lint"))
            .args(["--root"])
            .arg(fixture_root("violations"))
            .args(["--format", "sarif"])
            .output()
            .expect("run ssdtrain-lint")
    };
    let first = run_once();
    assert_eq!(first.status.code(), Some(1), "violations still exit 1");
    let text = String::from_utf8_lossy(&first.stdout);
    assert!(text.contains("\"version\": \"2.1.0\""), "{text}");
    assert!(text.contains("\"ruleId\": \"typed-errors\""), "{text}");
    assert!(
        text.contains("\"uri\": \"crates/train/src/api.rs\""),
        "{text}"
    );
    // Interprocedural findings carry their call chain as SARIF
    // relatedLocations, one per hop, ending at the effect seed.
    assert!(text.contains("\"relatedLocations\""), "{text}");
    assert!(
        text.contains("\"uri\": \"crates/core/src/encode.rs\""),
        "chain hops should point into the helper module:\n{text}"
    );
    let second = run_once();
    assert_eq!(
        first.stdout, second.stdout,
        "SARIF output must be byte-identical across runs"
    );
}

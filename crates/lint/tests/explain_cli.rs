//! End-to-end tests for the `--explain` CLI surface: every registered
//! rule has a full doc page, the `suppression` pseudo-rule is covered,
//! and unknown names fail with a did-you-mean hint and exit code 2.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ssdtrain-lint"))
}

#[test]
fn explain_covers_every_listed_rule() {
    let listed = bin().arg("--list-rules").output().expect("list rules");
    assert!(listed.status.success());
    let names: Vec<String> = String::from_utf8_lossy(&listed.stdout)
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .filter(|n| n.contains('-'))
        .map(str::to_owned)
        .collect();
    assert_eq!(names.len(), 3, "rule catalogue changed: {names:?}");
    for name in names.iter().map(String::as_str).chain(["suppression"]) {
        let out = bin().args(["--explain", name]).output().expect("explain");
        assert!(out.status.success(), "--explain {name} should exit 0");
        let text = String::from_utf8_lossy(&out.stdout);
        let sections: &[&str] = if name == "suppression" {
            &["WHY", "SUPPRESSION"]
        } else {
            &["WHY", "EXAMPLE", "SUPPRESSION"]
        };
        for section in sections {
            assert!(
                text.contains(section),
                "--explain {name} is missing its {section} section:\n{text}"
            );
        }
        assert!(
            text.starts_with(name),
            "--explain {name} should lead with the rule name:\n{text}"
        );
        // WHY names the concrete failure guarded: a file of this repo.
        assert!(
            text.contains("crates/") || text.contains("tests/"),
            "--explain {name} should cite the file it guards:\n{text}"
        );
    }
}

#[test]
fn explain_panic_rule_documents_the_seed_release_semantics() {
    let out = bin()
        .args(["--explain", "panic-free-hot-path"])
        .output()
        .expect("explain");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("allow(panic-free-hot-path)"),
        "suppression syntax must name the rule:\n{text}"
    );
    assert!(
        text.contains("releases every transitive caller"),
        "seed-level allow semantics must be documented:\n{text}"
    );
    assert!(
        text.contains("ssdtrain-lint: hot-path"),
        "the module marker that scopes the rule must be documented:\n{text}"
    );
}

#[test]
fn explain_suppression_pseudo_rule_exits_zero() {
    let out = bin()
        .args(["--explain", "suppression"])
        .output()
        .expect("explain");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("Not suppressible"),
        "the suppression pseudo-rule cannot silence itself:\n{text}"
    );
}

#[test]
fn explain_near_miss_suggests_the_real_rule() {
    let out = bin()
        .args(["--explain", "panic-free-hotpath"])
        .output()
        .expect("explain");
    assert_eq!(out.status.code(), Some(2), "unknown rule must exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("did you mean `panic-free-hot-path`?"),
        "near-miss should get a hint:\n{err}"
    );
}

#[test]
fn explain_unknown_rule_exits_two_without_bogus_hint() {
    let out = bin()
        .args(["--explain", "totally-bogus-rule"])
        .output()
        .expect("explain");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown rule `totally-bogus-rule`"), "{err}");
    assert!(
        !err.contains("did you mean"),
        "a far-off name should not get a hint:\n{err}"
    );
}

#[test]
fn explain_without_argument_exits_two_with_usage() {
    let out = bin().arg("--explain").output().expect("explain");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--explain needs a rule name"), "{err}");
    assert!(err.contains("USAGE"), "usage text should follow:\n{err}");
}

//! Source rules that neither a type nor clippy can hold (DESIGN.md §7).
//!
//! * **Typed errors.** No `pub fn` signature carries `Box<dyn Error>` or
//!   `Result<_, String>`: the fault matrix branches on
//!   `StepError::error.is_store()`, and an erased error turns that
//!   recovery decision into string parsing.
//! * **Panic-free library code.** Every product crate denies clippy's
//!   panicking-construct lints outside tests, so a panic one helper away
//!   from the offload path fails CI's clippy run at its seed. This test
//!   keeps a crate from dropping out of that set.
//!
//! Both read source through the scanner in `tests/scan/mod.rs`, whose
//! `blank` turns comments and literals into spaces: text that only looks
//! like code never counts, and every byte keeps its offset, so reported
//! lines are exact.

mod scan;

use scan::{blank, rust_files, typed_error_violations};
use std::fs;
use std::path::Path;

/// Crates whose library may panic: the exhibit binaries' row builders,
/// which nothing on the offload path calls.
const PANIC_EXEMPT_CRATES: [&str; 1] = ["bench"];

/// The lints each product crate's `lib.rs` denies outside tests.
const PANIC_LINTS: [&str; 6] = [
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::todo",
    "clippy::unimplemented",
    "clippy::unreachable",
];

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn public_signatures_carry_typed_errors() {
    let mut files = Vec::new();
    rust_files(repo_root(), repo_root(), &mut files);
    files.sort();
    assert!(files.len() > 100, "scanned only {} files", files.len());
    for (rel, _) in &files {
        assert!(
            !rel.split('/')
                .any(|dir| dir.starts_with('.') || ["vendor", "target", "fixtures"].contains(&dir)),
            "scanned {rel}"
        );
    }
    assert!(
        files
            .iter()
            .any(|(rel, _)| rel.starts_with("benchmark/src/")),
        "benchmark/src was not scanned"
    );
    let violations: Vec<String> = files
        .iter()
        .flat_map(|(rel, src)| typed_error_violations(rel, src))
        .collect();
    assert!(
        violations.is_empty(),
        "return a concrete error type (`OffloadError`, `StepError`, `ConfigError`, …) \
         so callers can branch on it:\n{}",
        violations.join("\n")
    );
}

#[test]
fn product_crates_deny_panics_outside_tests() {
    let mut checked = 0;
    for entry in fs::read_dir(repo_root().join("crates")).expect("crates/") {
        let dir = entry.expect("crate dir").path();
        let name = dir
            .file_name()
            .expect("dir name")
            .to_string_lossy()
            .into_owned();
        let lib = dir.join("src/lib.rs");
        if PANIC_EXEMPT_CRATES.contains(&name.as_str()) || !lib.exists() {
            continue;
        }
        let src = fs::read_to_string(&lib).expect("read lib.rs");
        let compact: String = blank(&src).split_whitespace().collect();
        let gate = "#![cfg_attr(not(test),deny(";
        let Some(at) = compact.find(gate) else {
            panic!("crates/{name}/src/lib.rs lacks `#![cfg_attr(not(test), deny(…))]`");
        };
        let denied = &compact[at + gate.len()..];
        let denied = &denied[..denied.find(')').unwrap_or(denied.len())];
        for lint in PANIC_LINTS {
            assert!(
                denied.split(',').any(|l| l == lint),
                "crates/{name}/src/lib.rs does not deny `{lint}` outside tests"
            );
        }
        checked += 1;
    }
    assert!(checked >= 8, "found {checked} product crates");
}

#[test]
fn erased_errors_are_found_in_every_pub_signature_form() {
    let cases: [(&str, &[&str]); 7] = [
        (
            "pub fn a() -> Result<(), String> {}",
            &["x.rs:1: `pub fn a` uses `Result<_, String>`"],
        ),
        (
            "\n\npub(crate) async fn b(x: u8)\n  -> Result<Vec<u8>, Box<dyn std::error::Error + Send>>;",
            &["x.rs:4: `pub fn b` uses `Box<dyn Error>`"],
        ),
        (
            "pub const unsafe fn c() -> std::result::Result<u8, std::string::String> {}",
            &["x.rs:1: `pub fn c` uses `Result<_, String>`"],
        ),
        (
            "pub extern \"C\" fn d(e: Box<dyn Error>) {}",
            &["x.rs:1: `pub fn d` uses `Box<dyn Error>`"],
        ),
        (
            "pub fn l<'a>(x: &'a str) -> Result<&'a str, String> {}",
            &["x.rs:1: `pub fn l` uses `Result<_, String>`"],
        ),
        (
            "const R: &str = r#\"\n\"pub fn hidden() -> Result<(), String> {}\"\n\"#;\n\
             pub fn after() -> Result<(), String> {}",
            &["x.rs:4: `pub fn after` uses `Result<_, String>`"],
        ),
        (
            "/* a /* b */ c */ pub fn e() -> Result<(), String> {}",
            &["x.rs:1: `pub fn e` uses `Result<_, String>`"],
        ),
    ];
    for (src, expected) in cases {
        assert_eq!(typed_error_violations("x.rs", src), expected, "{src}");
    }
}

#[test]
fn typed_and_private_signatures_pass() {
    let clean = [
        "fn private() -> Result<(), String> {}",
        "pub fn typed() -> Result<(), StepError> {}",
        "pub fn alias() -> io::Result<String> {}",
        "pub fn nested() -> Result<Vec<String>, OffloadError> {}",
        "pub fn ok_string() -> Result<String, io::Error> {}",
        "pub fn wrapped() -> Result<(), Wrapper<String>> {}",
        "pub fn callback(f: Box<dyn Fn(u8) -> Result<u8, E>>) {}",
        "pub fn body() { let r: Result<(), String> = Ok(()); }",
        "// pub fn commented() -> Result<(), String> {}",
        "/// pub fn documented() -> Result<(), String> {}",
        "/* pub fn /* nested */ blocked() -> Result<(), String> {} */",
        "const S: &str = \"pub fn quoted() -> Result<(), String> {}\";",
        "const R: &str = r#\"pub fn raw() -> Result<(), String> {}\"#;",
        "const B: &[u8] = b\"pub fn bytes() -> Result<(), String> {}\";",
        "pub fn chars() -> char { '\"' } pub fn later() -> Result<(), StepError> {}",
        "pub struct S<'a>(&'a str); pub const N: usize = 1;",
        "pub const LIMIT: usize = 3;",
    ];
    for src in clean {
        assert_eq!(
            typed_error_violations("x.rs", src),
            Vec::<String>::new(),
            "{src}"
        );
    }
}

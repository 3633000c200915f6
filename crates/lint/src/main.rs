//! `ssdtrain-lint` CLI.
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage or I/O error.

use ssdtrain_lint::{lint_root, rules, sarif};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "\
ssdtrain-lint: workspace-aware static analysis for the SSDTrain repo

USAGE:
    ssdtrain-lint [OPTIONS]

OPTIONS:
    --root <dir>      Workspace root to lint (default: current directory)
    --format <fmt>    Output format: text | json | sarif (default: text)
    --changed-only    Only report diagnostics in files changed since the
                      merge base with origin/main (falls back to main;
                      lints everything if git is unavailable)
    --list-rules      Print the rule catalogue and exit
    --explain <rule>  Print one rule's full documentation (what, why,
                      example, suppression syntax) and exit
    -h, --help        Print this help
";

#[derive(PartialEq)]
enum Format {
    Text,
    Json,
    Sarif,
}

struct Options {
    root: PathBuf,
    format: Format,
    changed_only: bool,
    list_rules: bool,
    explain: Option<String>,
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("ssdtrain-lint: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if opts.list_rules {
        for rule in rules::registry() {
            println!("{:<24} {}", rule.name(), rule.description());
        }
        return ExitCode::SUCCESS;
    }
    if let Some(name) = &opts.explain {
        return explain(name);
    }

    let only = if opts.changed_only {
        changed_paths(&opts.root)
    } else {
        None
    };
    let report = match lint_root(&opts.root, only.as_ref()) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("ssdtrain-lint: cannot scan {}: {err}", opts.root.display());
            return ExitCode::from(2);
        }
    };
    match opts.format {
        Format::Text => print!("{}", report.render_text()),
        Format::Json => print!("{}", report.render_json()),
        Format::Sarif => print!("{}", sarif::render_sarif(&report)),
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Prints the full documentation of one rule. The `suppression`
/// pseudo-rule (not in the registry, not suppressible) is documented
/// too — it shows up in reports, so `--explain suppression` must work.
fn explain(name: &str) -> ExitCode {
    if name == "suppression" {
        println!("suppression");
        println!("  malformed or unknown `ssdtrain-lint: allow(...)` directive\n");
        println!("WHY");
        println!(
            "  Guards the reasoned allows this workspace carries — the one panic left on\n  \
             the hot path is `TensorCache::unpack` of an unknown record id in\n  \
             `crates/core/src/cache.rs`, allowed with its reason beside it. An allow that\n  \
             names an unknown rule (`panic-free-hotpath`) or omits its reason silences\n  \
             nothing; accepting it would let a typo or an unexplained exemption pass\n  \
             review. Malformed allows are therefore violations themselves, and they\n  \
             cannot be suppressed: nobody can silence the silencer."
        );
        println!("\nSUPPRESSION");
        println!("  Not suppressible. Fix the directive instead.");
        return ExitCode::SUCCESS;
    }
    let registry = rules::registry();
    let Some(rule) = registry.iter().find(|r| r.name() == name) else {
        let names = rules::rule_names();
        let hint = rules::did_you_mean(name, &names)
            .map(|m| format!(" — did you mean `{m}`?"))
            .unwrap_or_default();
        eprintln!("ssdtrain-lint: unknown rule `{name}`{hint} (see --list-rules)");
        return ExitCode::from(2);
    };
    println!("{}", rule.name());
    println!("  {}\n", rule.description());
    println!("WHY");
    for line in wrap(rule.rationale(), 76) {
        println!("  {line}");
    }
    println!("\nEXAMPLE");
    for line in rule.example().lines() {
        println!("  {}", line.trim_end());
    }
    println!("\nSUPPRESSION");
    println!("  // ssdtrain-lint: allow({}): <reason>", rule.name());
    println!(
        "  Trailing form suppresses its own line; standalone form suppresses the next\n  \
         code line. The reason is mandatory. For effect-driven findings, an allow at\n  \
         the seed releases every transitive caller."
    );
    ExitCode::SUCCESS
}

/// Greedy word-wrap at `width` columns.
fn wrap(text: &str, width: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut line = String::new();
    for word in text.split_whitespace() {
        if !line.is_empty() && line.len() + 1 + word.len() > width {
            out.push(std::mem::take(&mut line));
        }
        if !line.is_empty() {
            line.push(' ');
        }
        line.push_str(word);
    }
    if !line.is_empty() {
        out.push(line);
    }
    out
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        root: PathBuf::from("."),
        format: Format::Text,
        changed_only: false,
        list_rules: false,
        explain: None,
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                opts.root = PathBuf::from(args.next().ok_or("--root needs a directory")?);
            }
            "--format" => match args.next().as_deref() {
                Some("text") => opts.format = Format::Text,
                Some("json") => opts.format = Format::Json,
                Some("sarif") => opts.format = Format::Sarif,
                other => {
                    return Err(format!(
                        "--format must be `text`, `json` or `sarif`, got {}",
                        other.unwrap_or("nothing")
                    ));
                }
            },
            "--changed-only" => opts.changed_only = true,
            "--list-rules" => opts.list_rules = true,
            "--explain" => {
                opts.explain = Some(args.next().ok_or("--explain needs a rule name")?);
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(opts)
}

/// Workspace-relative paths changed since the merge base with
/// `origin/main` (or `main`), plus untracked files. `None` (lint
/// everything) when git is unavailable or no base branch exists —
/// failing open here would hide violations, so we fail closed to a
/// full lint instead.
fn changed_paths(root: &std::path::Path) -> Option<BTreeSet<String>> {
    let base = ["origin/main", "main"].iter().find_map(|branch| {
        let out = git(root, &["merge-base", "HEAD", branch])?;
        let base = out.trim().to_owned();
        (!base.is_empty()).then_some(base)
    })?;
    let mut paths = BTreeSet::new();
    let diff = git(root, &["diff", "--name-only", &base])?;
    paths.extend(diff.lines().map(str::to_owned));
    if let Some(untracked) = git(root, &["ls-files", "--others", "--exclude-standard"]) {
        paths.extend(untracked.lines().map(str::to_owned));
    }
    Some(paths)
}

fn git(root: &std::path::Path, args: &[&str]) -> Option<String> {
    let out = Command::new("git")
        .arg("-C")
        .arg(root)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).into_owned())
}

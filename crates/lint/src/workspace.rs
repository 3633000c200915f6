//! Workspace discovery: find and lex every first-party `.rs` file.

use crate::lexer::{lex, Lexed};
use std::fs;
use std::io;
use std::path::Path;

/// Directory names that are never first-party source: build output,
/// vendored offline dep shims, VCS metadata, and test fixture trees
/// (which exist to *contain* violations).
const SKIP_DIRS: [&str; 4] = ["target", "vendor", ".git", "fixtures"];

/// One lexed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the scanned root, `/`-separated.
    pub rel: String,
    /// Token stream and comments.
    pub lexed: Lexed,
}

/// Every scanned file of the workspace under one root.
#[derive(Debug)]
pub struct Workspace {
    /// Files sorted by relative path.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Walks `root`, lexing every `.rs` file outside the skip list.
    ///
    /// # Errors
    /// Returns an error if the root cannot be read; unreadable
    /// individual files are skipped.
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let mut paths = Vec::new();
        collect(root, root, &mut paths)?;
        paths.sort();
        let files = paths
            .into_iter()
            .filter_map(|rel| {
                let src = fs::read_to_string(root.join(&rel)).ok()?;
                Some(SourceFile {
                    rel,
                    lexed: lex(&src),
                })
            })
            .collect();
        Ok(Workspace { files })
    }
}

fn collect(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                let rel: Vec<String> = rel
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect();
                out.push(rel.join("/"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skips_vendor_target_and_fixture_trees() {
        let dir = std::env::temp_dir().join(format!("ssdtrain-lint-ws-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        for sub in [
            "src",
            "vendor/dep/src",
            "target/debug",
            "tests/fixtures/bad",
        ] {
            fs::create_dir_all(dir.join(sub)).unwrap();
        }
        fs::write(dir.join("src/lib.rs"), "pub fn ok() {}").unwrap();
        fs::write(dir.join("vendor/dep/src/lib.rs"), "junk").unwrap();
        fs::write(dir.join("target/debug/gen.rs"), "junk").unwrap();
        fs::write(dir.join("tests/fixtures/bad/x.rs"), "junk").unwrap();
        let ws = Workspace::load(&dir).unwrap();
        let rels: Vec<&str> = ws.files.iter().map(|f| f.rel.as_str()).collect();
        assert_eq!(rels, vec!["src/lib.rs"]);
        let _ = fs::remove_dir_all(&dir);
    }
}

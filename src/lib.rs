//! Umbrella crate for the SSDTrain reproduction workspace: depends on
//! every member so `cargo test` at the root exercises the integration
//! tests in `tests/` and the runnable examples in `examples/`.

pub use ssdtrain;
pub use ssdtrain_analysis;
pub use ssdtrain_autograd;
pub use ssdtrain_models;
pub use ssdtrain_simhw;
pub use ssdtrain_tensor;
pub use ssdtrain_train;

// The source-rule scanner that `tests/source_rules.rs` runs over the
// workspace, and its unit tests by part: the lexer (blanking and tokens),
// the typed-errors rule and the workspace walk. Test builds only.
#[cfg(test)]
#[path = "../tests/scan/mod.rs"]
mod scan;

#[cfg(test)]
mod lexer {
    mod tests {
        use crate::scan::{blank, tokens, typed_error_violations};

        fn words(src: &str) -> Vec<String> {
            let code = blank(src);
            let toks = tokens(&code);
            let words = toks
                .iter()
                .filter(|t| t.1.chars().all(char::is_alphanumeric));
            words.map(|t| t.1.to_owned()).collect()
        }

        #[test]
        fn comments_and_strings_hide_code() {
            assert_eq!(words("let a = \"x.unwrap()\";"), ["let", "a"]);
            let src = "let a = \"x.unwrap()\"; // b.unwrap()\n/* c.unwrap() */ real";
            assert_eq!(words(src), ["let", "a", "real"]);
        }

        #[test]
        fn positions_are_one_based() {
            assert_eq!(tokens(&blank("a\n  b")), [(0, "a"), (4, "b")]);
            let d = typed_error_violations("x.rs", "\n  pub fn a() -> Result<(), String> {}");
            assert_eq!(d, ["x.rs:2: `pub fn a` uses `Result<_, String>`"]);
        }

        #[test]
        fn lifetimes_are_not_char_literals() {
            let code = blank("fn f<'a>(x: &'a str) { let c = 'x'; }");
            assert_eq!(code, "fn f<'a>(x: &'a str) { let c =    ; }");
        }

        #[test]
        fn raw_strings_swallow_their_payload() {
            assert_eq!(
                words("let s = r#\"panic!(\"no\")\"#; after"),
                ["let", "s", "after"]
            );
        }

        #[test]
        fn double_colon_and_arrow_are_units() {
            let code = blank("fn f() -> std::io::Result<()> {}");
            let toks: Vec<&str> = tokens(&code).iter().map(|t| t.1).collect();
            assert!(toks.contains(&"->"));
            assert_eq!(toks.iter().filter(|&&t| t == "::").count(), 2);
        }

        #[test]
        fn method_calls_after_numbers_and_ranges_stay_visible() {
            let src = "for i in 0..n.unwrap() { let x = 1.5 + 2.max(3); }";
            assert_eq!(blank(src), src);
            assert!(words(src).iter().any(|w| w == "unwrap"));
            assert!(words(src).iter().any(|w| w == "max"));
        }

        #[test]
        fn nested_block_comments_close_correctly() {
            assert_eq!(words("/* a /* b */ c */ code"), ["code"]);
        }
    }
}

#[cfg(test)]
mod rules {
    mod typed_errors {
        mod tests {
            use crate::scan::typed_error_violations;

            #[test]
            fn flags_stringly_results_and_boxed_errors() {
                let d = typed_error_violations(
                    "x.rs",
                    "pub fn bad() -> Result<(), String> { Ok(()) }\n\
                     pub fn worse() -> Result<u8, Box<dyn std::error::Error>> { Ok(1) }\n",
                );
                assert_eq!(
                    d,
                    [
                        "x.rs:1: `pub fn bad` uses `Result<_, String>`",
                        "x.rs:2: `pub fn worse` uses `Box<dyn Error>`",
                    ]
                );
            }

            #[test]
            fn typed_and_private_signatures_pass() {
                let d = typed_error_violations(
                    "x.rs",
                    "pub fn good() -> Result<(), std::io::Error> { Ok(()) }\n\
                     fn private() -> Result<(), String> { Ok(()) }\n\
                     pub fn ok_string() -> Result<String, std::io::Error> { todo!() }\n\
                     pub fn wrapped() -> Result<(), Wrapper<String>> { Ok(()) }\n\
                     pub const LIMIT: usize = 3;\n",
                );
                assert!(d.is_empty(), "{d:?}");
            }

            #[test]
            fn qualified_pub_fns_are_still_checked() {
                let d = typed_error_violations(
                    "x.rs",
                    "pub(crate) async fn bad() -> Result<(), String> {}\n",
                );
                assert_eq!(d, ["x.rs:1: `pub fn bad` uses `Result<_, String>`"]);
            }
        }
    }
}

#[cfg(test)]
mod workspace {
    mod tests {
        use crate::scan::rust_files;
        use std::fs;

        #[test]
        fn skips_vendor_target_and_fixture_trees() {
            let dir = std::env::temp_dir().join(format!("ssdtrain-scan-{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            for (file, src) in [
                ("src/lib.rs", "pub fn ok() {}"),
                ("vendor/dep/src/lib.rs", "junk"),
                ("target/debug/gen.rs", "junk"),
                ("tests/fixtures/bad/x.rs", "junk"),
                (".git/hooks/x.rs", "junk"),
            ] {
                let path = dir.join(file);
                fs::create_dir_all(path.parent().expect("a parent")).expect("create a directory");
                fs::write(path, src).expect("write a source file");
            }
            let mut files = Vec::new();
            rust_files(&dir, &dir, &mut files);
            let _ = fs::remove_dir_all(&dir);
            assert_eq!(
                files,
                [("src/lib.rs".to_owned(), "pub fn ok() {}".to_owned())]
            );
        }
    }
}

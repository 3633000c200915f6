//! SARIF 2.1.0 output (`--format sarif`).
//!
//! The subset of SARIF that code-review UIs actually consume: one run,
//! a driver with the full rule catalogue (so `ruleIndex` resolves), and
//! one `result` per diagnostic with a physical location. Rendered by
//! hand like [`Report::render_json`] — stable field order, 2-space
//! indent, one result per line, trailing newline — so two runs over the
//! same tree are byte-identical, which `scripts/ci.sh` asserts.

use crate::diagnostics::{json_str, Report};
use crate::rules;
use std::fmt::Write as _;

/// The `suppression` pseudo-rule fires for malformed/unknown `allow`
/// directives; it is not in the registry (it cannot be suppressed) but
/// its diagnostics still need a catalogue entry for `ruleIndex`.
const SUPPRESSION_RULE: (&str, &str) = (
    "suppression",
    "malformed or unknown `ssdtrain-lint: allow(...)` directive",
);

/// Renders `report` as a SARIF 2.1.0 log.
pub fn render_sarif(report: &Report) -> String {
    let mut catalogue: Vec<(&str, String)> = rules::registry()
        .iter()
        .map(|r| (r.name(), r.description().to_owned()))
        .collect();
    catalogue.push((SUPPRESSION_RULE.0, SUPPRESSION_RULE.1.to_owned()));

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n");
    out.push_str("    {\n");
    out.push_str("      \"tool\": {\n");
    out.push_str("        \"driver\": {\n");
    out.push_str("          \"name\": \"ssdtrain-lint\",\n");
    out.push_str("          \"informationUri\": \"https://example.invalid/ssdtrain\",\n");
    out.push_str("          \"rules\": [\n");
    for (i, (name, desc)) in catalogue.iter().enumerate() {
        let comma = if i + 1 == catalogue.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "            {{\"id\": {}, \"shortDescription\": {{\"text\": {}}}}}{comma}",
            json_str(name),
            json_str(desc)
        );
    }
    out.push_str("          ]\n");
    out.push_str("        }\n");
    out.push_str("      },\n");
    if report.diagnostics.is_empty() {
        out.push_str("      \"results\": []\n");
    } else {
        out.push_str("      \"results\": [\n");
        for (i, d) in report.diagnostics.iter().enumerate() {
            let comma = if i + 1 == report.diagnostics.len() {
                ""
            } else {
                ","
            };
            let rule_index = catalogue
                .iter()
                .position(|(name, _)| *name == d.rule)
                .expect("every diagnostic rule is in the catalogue");
            let mut related = String::new();
            if !d.related.is_empty() {
                related.push_str(", \"relatedLocations\": [");
                for (j, r) in d.related.iter().enumerate() {
                    let rcomma = if j + 1 == d.related.len() { "" } else { ", " };
                    let _ = write!(
                        related,
                        "{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": {uri}}}, \
                         \"region\": {{\"startLine\": {line}, \"startColumn\": {col}}}}}, \
                         \"message\": {{\"text\": {msg}}}}}{rcomma}",
                        uri = json_str(&r.path),
                        line = r.line,
                        col = r.col,
                        msg = json_str(&r.message),
                    );
                }
                related.push(']');
            }
            let _ = writeln!(
                out,
                "        {{\"ruleId\": {rule}, \"ruleIndex\": {rule_index}, \
                 \"level\": \"error\", \"message\": {{\"text\": {msg}}}, \
                 \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": \
                 {{\"uri\": {uri}}}, \"region\": {{\"startLine\": {line}, \
                 \"startColumn\": {col}}}}}}}]{related}}}{comma}",
                rule = json_str(d.rule),
                msg = json_str(&d.message),
                uri = json_str(&d.path),
                line = d.line,
                col = d.col,
            );
        }
        out.push_str("      ]\n");
    }
    out.push_str("    }\n");
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::Diagnostic;

    fn report_with(diags: Vec<Diagnostic>) -> Report {
        Report {
            diagnostics: diags,
            files_scanned: 1,
            suppressed: 0,
        }
    }

    #[test]
    fn empty_report_is_a_wellformed_empty_run() {
        let s = render_sarif(&report_with(vec![]));
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("\"results\": []"));
        assert!(s.contains("\"name\": \"ssdtrain-lint\""));
        assert!(s.ends_with("}\n"));
    }

    #[test]
    fn result_points_at_rule_path_and_region() {
        let s = render_sarif(&report_with(vec![Diagnostic::new(
            "typed-errors",
            "crates/core/src/cache.rs".to_owned(),
            7,
            3,
            "say \"hi\"".to_owned(),
        )]));
        assert!(s.contains("\"ruleId\": \"typed-errors\""));
        assert!(s.contains("\"uri\": \"crates/core/src/cache.rs\""));
        assert!(s.contains("\"startLine\": 7, \"startColumn\": 3"));
        assert!(s.contains("say \\\"hi\\\""), "{s}");
        assert!(!s.contains("relatedLocations"));
    }

    #[test]
    fn chain_findings_carry_related_locations() {
        let mut d = Diagnostic::new(
            "panic-free-hot-path",
            "crates/train/src/executor.rs".to_owned(),
            4,
            9,
            "chain".to_owned(),
        );
        d.related.push(crate::diagnostics::RelatedLocation {
            path: "crates/tensor/src/kernels.rs".to_owned(),
            line: 88,
            col: 30,
            message: "effect seed: .expect()".to_owned(),
        });
        let s = render_sarif(&report_with(vec![d]));
        assert!(
            s.contains(
                "\"relatedLocations\": [{\"physicalLocation\": {\"artifactLocation\": \
                 {\"uri\": \"crates/tensor/src/kernels.rs\"}, \"region\": \
                 {\"startLine\": 88, \"startColumn\": 30}}, \
                 \"message\": {\"text\": \"effect seed: .expect()\"}}]"
            ),
            "{s}"
        );
    }

    #[test]
    fn rule_index_resolves_into_the_catalogue() {
        let s = render_sarif(&report_with(vec![Diagnostic::new(
            "suppression",
            "a.rs".to_owned(),
            1,
            1,
            "m".to_owned(),
        )]));
        // The suppression pseudo-rule is the last catalogue entry:
        // three registry rules, so index 3.
        assert!(s.contains("\"ruleIndex\": 3"), "{s}");
        assert!(s.contains("\"id\": \"suppression\""));
    }

    #[test]
    fn catalogue_lists_every_registry_rule() {
        let s = render_sarif(&report_with(vec![]));
        for rule in rules::registry() {
            assert!(s.contains(&format!("\"id\": {}", json_str(rule.name()))));
        }
    }
}

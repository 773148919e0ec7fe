//! Lint self-tests over the committed fixtures: one positive (findings) and
//! one negative (clean) case per rule, including allowlist handling, plus
//! end-to-end exit-code checks against the built binary.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use aqua_audit::lint::{classify, lint_file, FileClass, FileCtx, Rule};
use aqua_audit::taxonomy;

fn fixture(name: &str) -> FileCtx {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    let src =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"));
    FileCtx::new(PathBuf::from(name), FileClass::Library, &src)
}

fn rules_hit(name: &str) -> Vec<(Rule, u32)> {
    lint_file(&fixture(name))
        .into_iter()
        .map(|f| (f.rule, f.line))
        .collect()
}

#[test]
fn wall_clock_positive_and_negative() {
    let hits = rules_hit("wall_clock_bad.rs");
    assert!(
        hits.contains(&(Rule::WallClock, 5)) && hits.contains(&(Rule::WallClock, 6)),
        "expected Instant::now + SystemTime findings, got {hits:?}"
    );
    assert!(rules_hit("wall_clock_ok.rs").is_empty());
}

#[test]
fn hash_iter_positive_negative_and_allowlist() {
    let hits = rules_hit("hash_iter_bad.rs");
    assert!(
        hits.contains(&(Rule::HashIter, 6)) && hits.contains(&(Rule::HashIter, 10)),
        "expected for-loop + .iter() findings, got {hits:?}"
    );
    assert!(rules_hit("hash_iter_ok.rs").is_empty());
    assert!(
        rules_hit("hash_iter_allowed.rs").is_empty(),
        "allowlist directive must suppress the finding"
    );
}

#[test]
fn unwrap_positive_negative_and_allowlist() {
    let hits = rules_hit("unwrap_bad.rs");
    assert!(
        hits.contains(&(Rule::Unwrap, 3))
            && hits.contains(&(Rule::Unwrap, 5))
            && hits.contains(&(Rule::Unwrap, 11)),
        "expected unwrap/panic!/expect findings, got {hits:?}"
    );
    assert!(
        rules_hit("unwrap_test_ok.rs").is_empty(),
        "test-region unwraps must not be flagged"
    );
    assert!(rules_hit("unwrap_allowed.rs").is_empty());
}

#[test]
fn raw_sync_positive_and_negative() {
    let hits = rules_hit("raw_sync_bad.rs");
    assert!(
        hits.contains(&(Rule::RawSync, 2)),
        "expected raw std::sync finding, got {hits:?}"
    );
    assert!(rules_hit("raw_sync_ok.rs").is_empty());
    // The one facade is the only library file allowed raw std::sync paths.
    let src = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/raw_sync_bad.rs"),
    )
    .expect("fixture readable");
    let ctx = FileCtx::new(PathBuf::from("sync.rs"), FileClass::SyncFacade, &src);
    assert!(lint_file(&ctx).iter().all(|f| f.rule != Rule::RawSync));
    assert_eq!(
        classify(Path::new("crates/telemetry/src/sync.rs")),
        FileClass::SyncFacade
    );
    for library in [
        "crates/campaign/src/timeline.rs",
        "crates/sensing/src/generator.rs",
        "crates/ml/src/sync.rs",
        "src/lib.rs",
    ] {
        assert_eq!(
            classify(Path::new(library)),
            FileClass::Library,
            "{library}"
        );
    }
}

#[test]
fn taxonomy_call_sites_positive_negative_and_allowlist() {
    let mut registry = BTreeMap::new();
    registry.insert("bogus.registered_metric".to_string(), 1u32);

    let bad = fixture("taxonomy_bad.rs");
    let findings = taxonomy::check_call_sites_only(std::slice::from_ref(&bad), &registry);
    assert_eq!(findings.len(), 1, "got {findings:?}");
    assert_eq!(findings[0].line, 3);
    assert_eq!(findings[0].rule, Rule::Taxonomy);

    let allowed = fixture("taxonomy_allowed.rs");
    let findings = taxonomy::check_call_sites_only(std::slice::from_ref(&allowed), &registry);
    assert!(
        findings.is_empty(),
        "allowlisted name flagged: {findings:?}"
    );
}

#[test]
fn design_name_extraction_and_registry_roundtrip() {
    let design = "\
## 7. Other\n`not.extracted`\n\
## 8. Telemetry\nNames: `a.b` and `a.{route}.c` but not `NotAName` or `single`.\n\
## 9. Next\n`also.skipped`\n\
## 12. Tracing\n`trace.span`\n";
    let names = taxonomy::extract_design_names(design);
    let got: Vec<&str> = names.iter().map(String::as_str).collect();
    assert_eq!(got, vec!["a.b", "a.{route}.c", "trace.span"]);

    let rendered = taxonomy::render_registry(&names);
    let parsed = taxonomy::parse_registry(&rendered);
    assert_eq!(parsed.len(), names.len());
    assert!(parsed.contains_key("a.{route}.c"));
}

fn run_binary(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_aqua-audit"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("binary runs")
}

#[test]
fn binary_exits_nonzero_on_each_positive_fixture() {
    for bad in [
        "fixtures/wall_clock_bad.rs",
        "fixtures/hash_iter_bad.rs",
        "fixtures/unwrap_bad.rs",
        "fixtures/raw_sync_bad.rs",
        "fixtures/taxonomy_bad.rs",
    ] {
        let out = run_binary(&["lint", bad]);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{bad} should produce findings; stdout: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn binary_exits_zero_on_negative_fixtures() {
    let out = run_binary(&[
        "lint",
        "fixtures/wall_clock_ok.rs",
        "fixtures/hash_iter_ok.rs",
        "fixtures/hash_iter_allowed.rs",
        "fixtures/unwrap_test_ok.rs",
        "fixtures/unwrap_allowed.rs",
        "fixtures/raw_sync_ok.rs",
        "fixtures/taxonomy_allowed.rs",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "negative fixtures must be clean; stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn binary_rejects_bad_usage() {
    let out = run_binary(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
}

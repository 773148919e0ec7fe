//! `aqua-audit` — workspace determinism lints for AquaSCALE.
//!
//! Std-only static analysis over the workspace sources: a hand-rolled
//! token-level lexer ([`lexer`]), four token-local rules plus the telemetry
//! taxonomy cross-check ([`lint`], [`taxonomy`]), and the workspace driver
//! ([`run_workspace`]). See DESIGN.md §13 for the rule catalog and allowlist syntax.
//!
//! The binary front-end (`cargo run -p aqua-audit -- lint`) exits nonzero on
//! any finding, making it CI-gateable alongside clippy.

pub mod lexer;
pub mod lint;
pub mod taxonomy;

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use lint::{classify, FileClass, FileCtx, Finding};

/// Walk up from `start` to the directory whose Cargo.toml declares the
/// workspace.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// All `.rs` files the workspace lint covers: `crates/*/src/**` and
/// `src/**`, sorted for deterministic output.
pub fn workspace_sources(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    let entries = fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?;
    let mut crate_dirs: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("readdir error under crates/: {e}"))?;
        if entry.path().is_dir() {
            crate_dirs.push(entry.path());
        }
    }
    crate_dirs.sort();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut out)?;
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut out)?;
    }
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("readdir error under {}: {e}", dir.display()))?;
        paths.push(entry.path());
    }
    paths.sort();
    for p in paths {
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

fn load_ctx(
    root: &Path,
    path: &Path,
    class_override: Option<FileClass>,
) -> Result<FileCtx, String> {
    let src =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let rel = path.strip_prefix(root).unwrap_or(path);
    let class = class_override.unwrap_or_else(|| classify(rel));
    Ok(FileCtx::new(rel.to_path_buf(), class, &src))
}

/// Full workspace lint: walk sources, run every rule, cross-check the
/// taxonomy. Returns findings sorted by (path, line).
pub fn run_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let mut files = Vec::new();
    for path in workspace_sources(root)? {
        files.push(load_ctx(root, &path, None)?);
    }
    let mut findings = Vec::new();
    for ctx in &files {
        findings.extend(lint::lint_file(ctx));
    }

    let design_path = taxonomy::design_path(root);
    let design = fs::read_to_string(&design_path)
        .map_err(|e| format!("cannot read {}: {e}", design_path.display()))?;
    let registry_path = taxonomy::registry_path(root);
    let registry_text = fs::read_to_string(&registry_path)
        .map_err(|e| format!("cannot read {}: {e}", registry_path.display()))?;
    let inputs = taxonomy::TaxonomyInputs {
        files: &files,
        registry: taxonomy::parse_registry(&registry_text),
        registry_path: registry_path
            .strip_prefix(root)
            .unwrap_or(&registry_path)
            .to_path_buf(),
        design_names: taxonomy::extract_design_names(&design),
        design_path: design_path
            .strip_prefix(root)
            .unwrap_or(&design_path)
            .to_path_buf(),
    };
    findings.extend(taxonomy::check(&inputs));

    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(findings)
}

/// Lint explicit files (fixture/self-test mode): every file is treated as
/// library code so all rules apply; the taxonomy check runs call-site-only
/// against the committed registry when one is found.
pub fn run_files(root: &Path, paths: &[PathBuf]) -> Result<Vec<Finding>, String> {
    let mut files = Vec::new();
    for path in paths {
        files.push(load_ctx(root, path, Some(FileClass::Library))?);
    }
    let mut findings = Vec::new();
    for ctx in &files {
        findings.extend(lint::lint_file(ctx));
    }
    let registry_path = taxonomy::registry_path(root);
    if let Ok(text) = fs::read_to_string(&registry_path) {
        let registry = taxonomy::parse_registry(&text);
        findings.extend(taxonomy::check_call_sites_only(&files, &registry));
    }
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(findings)
}

/// Regenerate taxonomy.txt from DESIGN.md. Returns the rendered content.
pub fn regenerate_taxonomy(root: &Path, write: bool) -> Result<String, String> {
    let design_path = taxonomy::design_path(root);
    let design = fs::read_to_string(&design_path)
        .map_err(|e| format!("cannot read {}: {e}", design_path.display()))?;
    let names: BTreeSet<String> = taxonomy::extract_design_names(&design);
    let rendered = taxonomy::render_registry(&names);
    if write {
        let path = taxonomy::registry_path(root);
        fs::write(&path, &rendered).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(rendered)
}

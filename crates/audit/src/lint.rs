//! The determinism lint rules. Each rule walks the token stream produced by
//! [`crate::lexer`], skipping `#[cfg(test)]` / `#[test]` regions, and honors
//! per-line allowlist directives of the form
//!
//! ```text
//! // audit: <rule>-ok(reason)
//! ```
//!
//! where `<rule>` is one of `wall-clock`, `nondeterministic`, `unwrap`,
//! `raw-sync`, `taxonomy`. A directive covers its own line and the next one,
//! so it works both as a trailing comment and on the line above. The reason
//! is mandatory — an empty `()` does not suppress.
//!
//! Rule catalog (see DESIGN.md §13 for the full contract):
//!
//! - **wall-clock**: `Instant::now` / `SystemTime` outside
//!   `aqua_telemetry::Clock` and bench binaries.
//! - **hash-iter** (slug `nondeterministic`): order-dependent iteration over
//!   `HashMap`/`HashSet` values declared in the same file.
//! - **unwrap**: `.unwrap()` / `.expect()` / `panic!` / `unreachable!` /
//!   `todo!` / `unimplemented!` in non-test library code.
//! - **raw-sync**: `std::sync` paths in library code outside the one
//!   `aqua_telemetry::sync` facade.
//! - **taxonomy**: telemetry name literals at emission call sites must match
//!   the committed registry (implemented in [`crate::taxonomy`]).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, Lexed, Tok, TokKind};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    WallClock,
    HashIter,
    Unwrap,
    RawSync,
    Taxonomy,
}

impl Rule {
    /// The slug used in allowlist directives: `// audit: <slug>-ok(reason)`.
    pub fn slug(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock",
            Rule::HashIter => "nondeterministic",
            Rule::Unwrap => "unwrap",
            Rule::RawSync => "raw-sync",
            Rule::Taxonomy => "taxonomy",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Finding {
    pub path: PathBuf,
    pub line: u32,
    pub rule: Rule,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.rule.slug(),
            self.message
        )
    }
}

/// How a file participates in linting, derived from its workspace path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// The telemetry clock module: the one legitimate wall-clock site. Its
    /// atomics stay on `std`, so a clock read is never a schedule point.
    ClockModule,
    /// The telemetry `sync.rs` facade: the one legitimate `std::sync`
    /// site.
    SyncFacade,
    /// Any other library source: all rules.
    Library,
    /// Tests, benches, examples, fixtures: not linted.
    Exempt,
}

/// Classify a path relative to the workspace root.
pub fn classify(rel: &Path) -> FileClass {
    let parts: Vec<&str> = rel.iter().filter_map(|c| c.to_str()).collect();
    if parts.first() == Some(&"vendor") || parts.first() == Some(&"target") {
        return FileClass::Exempt;
    }
    if parts.first() == Some(&"crates") {
        let krate = parts.get(1).copied().unwrap_or("");
        let kind = parts.get(2).copied().unwrap_or("");
        if krate == "bench" || kind != "src" {
            // tests/, benches/, examples/, fixtures/ inside a crate
            return FileClass::Exempt;
        }
        if krate == "telemetry" && parts.last() == Some(&"clock.rs") {
            return FileClass::ClockModule;
        }
        if parts == ["crates", "telemetry", "src", "sync.rs"] {
            return FileClass::SyncFacade;
        }
        return FileClass::Library;
    }
    if parts.first() == Some(&"src") {
        return FileClass::Library;
    }
    FileClass::Exempt
}

/// Everything rule passes need about one file.
pub struct FileCtx {
    pub path: PathBuf,
    pub class: FileClass,
    pub lexed: Lexed,
    /// Token indexes inside `#[cfg(test)]` / `#[test]` regions.
    pub test_mask: Vec<bool>,
    /// line -> allowlisted rule slugs on that line.
    pub allow: BTreeMap<u32, BTreeSet<String>>,
}

impl FileCtx {
    pub fn new(path: PathBuf, class: FileClass, src: &str) -> Self {
        let lexed = lex(src);
        let test_mask = test_region_mask(&lexed.toks);
        let allow = allow_directives(&lexed);
        Self {
            path,
            class,
            lexed,
            test_mask,
            allow,
        }
    }

    fn allowed(&self, line: u32, rule: Rule) -> bool {
        let slug = rule.slug();
        // A directive covers its own line and the following line.
        [line, line.saturating_sub(1)]
            .iter()
            .any(|l| self.allow.get(l).is_some_and(|s| s.contains(slug)))
    }

    fn push(&self, findings: &mut Vec<Finding>, line: u32, rule: Rule, message: String) {
        if !self.allowed(line, rule) {
            findings.push(Finding {
                path: self.path.clone(),
                line,
                rule,
                message,
            });
        }
    }
}

/// Parse `audit: <slug>-ok(reason)` directives out of comments. The reason
/// between the parens must be non-empty.
fn allow_directives(lexed: &Lexed) -> BTreeMap<u32, BTreeSet<String>> {
    let mut map: BTreeMap<u32, BTreeSet<String>> = BTreeMap::new();
    for c in &lexed.comments {
        let mut rest = c.text.as_str();
        while let Some(at) = rest.find("audit:") {
            rest = &rest[at + "audit:".len()..];
            let trimmed = rest.trim_start();
            if let Some(ok_at) = trimmed.find("-ok(") {
                let slug = trimmed[..ok_at].trim();
                let after = &trimmed[ok_at + "-ok(".len()..];
                let reason_ok = after
                    .split(')')
                    .next()
                    .map(str::trim)
                    .is_some_and(|r| !r.is_empty());
                if !slug.is_empty() && !slug.contains(char::is_whitespace) && reason_ok {
                    map.entry(c.line).or_default().insert(slug.to_string());
                }
            }
        }
    }
    map
}

/// Mark token ranges covered by `#[cfg(test)]` attributes (on a `mod`, `fn`,
/// or `use`) and `#[test]` functions. Matches the exact forms used in this
/// workspace; `cfg(not(test))` and boolean combinators are not treated as
/// test regions.
fn test_region_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let ident = |i: usize, s: &str| {
        toks.get(i)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text == s)
    };
    let punct = |i: usize, s: &str| {
        toks.get(i)
            .is_some_and(|t| t.kind == TokKind::Punct && t.text == s)
    };

    let mut i = 0usize;
    while i < toks.len() {
        let is_cfg_test = punct(i, "#")
            && punct(i + 1, "[")
            && ident(i + 2, "cfg")
            && punct(i + 3, "(")
            && ident(i + 4, "test")
            && punct(i + 5, ")")
            && punct(i + 6, "]");
        let is_test_attr =
            punct(i, "#") && punct(i + 1, "[") && ident(i + 2, "test") && punct(i + 3, "]");
        if !(is_cfg_test || is_test_attr) {
            i += 1;
            continue;
        }
        let attr_len = if is_cfg_test { 7 } else { 4 };
        let region_start = i;
        // Walk to the end of the annotated item: either a `;` (for `use`)
        // or the matching close of the first `{`.
        let mut j = i + attr_len;
        let mut depth = 0usize;
        let mut end = toks.len();
        while j < toks.len() {
            if depth == 0 && punct(j, ";") {
                end = j + 1;
                break;
            }
            if punct(j, "{") {
                depth += 1;
            } else if punct(j, "}") {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    end = j + 1;
                    break;
                }
            }
            j += 1;
        }
        for m in mask.iter_mut().take(end.min(toks.len())).skip(region_start) {
            *m = true;
        }
        i = end;
    }
    mask
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

/// wall-clock: `Instant::now` or any `SystemTime` mention.
pub fn rule_wall_clock(ctx: &FileCtx, findings: &mut Vec<Finding>) {
    if matches!(ctx.class, FileClass::ClockModule | FileClass::Exempt) {
        return;
    }
    let toks = &ctx.lexed.toks;
    for i in 0..toks.len() {
        if ctx.test_mask[i] {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "Instant"
            && is_punct(toks, i + 1, ":")
            && is_punct(toks, i + 2, ":")
            && is_ident(toks, i + 3, "now")
        {
            ctx.push(
                findings,
                t.line,
                Rule::WallClock,
                "Instant::now() outside aqua_telemetry::Clock; inject a Clock instead".into(),
            );
        }
        if t.text == "SystemTime" {
            ctx.push(
                findings,
                t.line,
                Rule::WallClock,
                "SystemTime use outside aqua_telemetry::Clock; inject a Clock instead".into(),
            );
        }
    }
}

const ORDER_DEPENDENT_METHODS: [&str; 8] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "retain",
];

/// hash-iter: iteration over locally-declared `HashMap`/`HashSet` values.
pub fn rule_hash_iter(ctx: &FileCtx, findings: &mut Vec<Finding>) {
    if ctx.class == FileClass::Exempt {
        return;
    }
    let toks = &ctx.lexed.toks;
    // Pass 1: names declared or annotated as HashMap/HashSet in this file.
    let mut tracked: BTreeSet<&str> = BTreeSet::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || !(t.text == "HashMap" || t.text == "HashSet") {
            continue;
        }
        // `name: HashMap<...>` (field, param, or let annotation)
        if i >= 2 && is_punct(toks, i - 1, ":") && toks[i - 2].kind == TokKind::Ident {
            tracked.insert(toks[i - 2].text.as_str());
        }
        // `let [mut] name = HashMap::new()` / `HashMap::with_capacity(..)`
        if is_punct(toks, i + 1, ":") && is_punct(toks, i + 2, ":") {
            let mut k = i;
            // walk back over `=`, the name, optional `mut`, expecting `let`
            if k >= 2 && is_punct(toks, k - 1, "=") && toks[k - 2].kind == TokKind::Ident {
                let name = toks[k - 2].text.as_str();
                k -= 2;
                if (k >= 1 && is_ident(toks, k - 1, "let"))
                    || (k >= 2 && is_ident(toks, k - 1, "mut") && is_ident(toks, k - 2, "let"))
                {
                    tracked.insert(name);
                }
            }
        }
    }
    if tracked.is_empty() {
        return;
    }
    // Pass 2: order-dependent uses of tracked names.
    for i in 0..toks.len() {
        if ctx.test_mask[i] {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        // `name.iter()`-family
        if tracked.contains(t.text.as_str())
            && is_punct(toks, i + 1, ".")
            && toks.get(i + 2).is_some_and(|m| {
                m.kind == TokKind::Ident && ORDER_DEPENDENT_METHODS.contains(&m.text.as_str())
            })
            && is_punct(toks, i + 3, "(")
        {
            let method = &toks[i + 2].text;
            ctx.push(
                findings,
                t.line,
                Rule::HashIter,
                format!(
                    "order-dependent .{method}() on HashMap/HashSet `{}`; use BTreeMap/BTreeSet or sort, or allowlist with a reason",
                    t.text
                ),
            );
        }
        // `for .. in [&[mut]] name {`
        if t.text == "in" {
            let mut j = i + 1;
            while is_punct(toks, j, "&") || is_ident(toks, j, "mut") {
                j += 1;
            }
            if toks
                .get(j)
                .is_some_and(|n| n.kind == TokKind::Ident && tracked.contains(n.text.as_str()))
                && is_punct(toks, j + 1, "{")
            {
                ctx.push(
                    findings,
                    toks[j].line,
                    Rule::HashIter,
                    format!(
                        "order-dependent `for .. in` over HashMap/HashSet `{}`; use BTreeMap/BTreeSet or sort, or allowlist with a reason",
                        toks[j].text
                    ),
                );
            }
        }
    }
}

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// unwrap: `.unwrap()` / `.expect()` calls and panic-family macros.
pub fn rule_unwrap(ctx: &FileCtx, findings: &mut Vec<Finding>) {
    if ctx.class == FileClass::Exempt {
        return;
    }
    let toks = &ctx.lexed.toks;
    for i in 0..toks.len() {
        if ctx.test_mask[i] {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        if (t.text == "unwrap" || t.text == "expect")
            && i >= 1
            && is_punct(toks, i - 1, ".")
            && is_punct(toks, i + 1, "(")
        {
            ctx.push(
                findings,
                t.line,
                Rule::Unwrap,
                format!(
                    ".{}() in non-test library code; handle the error or allowlist with a reason",
                    t.text
                ),
            );
        }
        if PANIC_MACROS.contains(&t.text.as_str()) && is_punct(toks, i + 1, "!") {
            ctx.push(
                findings,
                t.line,
                Rule::Unwrap,
                format!(
                    "{}! in non-test library code; return an error or allowlist with a reason",
                    t.text
                ),
            );
        }
    }
}

/// raw-sync: `std::sync` paths outside the facade.
pub fn rule_raw_sync(ctx: &FileCtx, findings: &mut Vec<Finding>) {
    if ctx.class != FileClass::Library {
        return;
    }
    let toks = &ctx.lexed.toks;
    for i in 0..toks.len() {
        if ctx.test_mask[i] {
            continue;
        }
        if is_ident(toks, i, "std")
            && is_punct(toks, i + 1, ":")
            && is_punct(toks, i + 2, ":")
            && is_ident(toks, i + 3, "sync")
        {
            ctx.push(
                findings,
                toks[i].line,
                Rule::RawSync,
                "raw std::sync path; import via the aqua_telemetry::sync facade".into(),
            );
        }
    }
}

fn is_punct(toks: &[Tok], i: usize, s: &str) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == TokKind::Punct && t.text == s)
}

fn is_ident(toks: &[Tok], i: usize, s: &str) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == TokKind::Ident && t.text == s)
}

/// Run the four token-local rules on one file (taxonomy runs separately — it
/// needs cross-file state).
pub fn lint_file(ctx: &FileCtx) -> Vec<Finding> {
    let mut findings = Vec::new();
    rule_wall_clock(ctx, &mut findings);
    rule_hash_iter(ctx, &mut findings);
    rule_unwrap(ctx, &mut findings);
    rule_raw_sync(ctx, &mut findings);
    findings
}

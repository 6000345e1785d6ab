//! `astra-lint` — workspace static analysis for the simulator's
//! determinism and frozen-reference invariants.
//!
//! The simulator's correctness story (CHANGES.md PRs 2–5) rests on two
//! disciplines that ordinary compiler lints cannot see:
//!
//! 1. **Determinism by construction.** Replays must be bit-identical, so
//!    nothing on the simulation path may iterate a `HashMap`/`HashSet`
//!    (order is randomized per process) or read a wall clock.
//! 2. **Frozen references.** Each fast path (`TransportMode::Batched`,
//!    the co-resident network backend, `CollectiveMode::Backend`) is
//!    pinned bit-identical to a slow reference implementation (per-packet
//!    `start_hop`, the blocking-p2p oracle's probe backend, the
//!    closed-form `reference_finish`). Editing a reference body silently
//!    invalidates every downstream golden pin.
//!
//! This crate tokenizes the workspace's Rust sources with a small
//! hand-rolled lexer (same offline spirit as `vendor/serde_derive` — no
//! crates.io access) and enforces five rules:
//!
//! - **R1 `nondeterministic-iter`** — no order-dependent iteration
//!   (`iter`/`keys`/`values`/`drain`/`into_iter`/`for .. in`) over
//!   `HashMap`/`HashSet` in the simulation crates, unless the result is
//!   sorted in the same statement or waived inline.
//! - **R2 `wall-clock`** — `Instant::now` / `SystemTime` are forbidden
//!   outside `crates/bench`, `vendor/`, and CLI timing code.
//! - **R3 `frozen-ref`** — a function annotated `// frozen-ref: <hash>`
//!   has its comment-stripped token stream hashed (FNV-1a 64); the lint
//!   fails if the body changed without the hash being deliberately
//!   re-blessed (`--bless-frozen`).
//! - **R4 `panic`** — no `unwrap`/`expect`/`panic!` (or `unreachable!`/
//!   `todo!`/`unimplemented!`) in non-test library code of the sim
//!   crates; use typed `SimError`s.
//! - **R5 `wildcard-match`** — no bare `_` arms in a `match` over the
//!   mode/backend config enums, so a future variant cannot silently
//!   fall through.
//!
//! Plus one satellite rule: **`hot-path-assert`** — inside a function
//! annotated `// astra-lint: hot-path`, the `assert!` family is flagged
//! (use `debug_assert!`; these run on every event pop).
//!
//! Waiver syntax (covers the comment's own line and the next line):
//!
//! ```text
//! // astra-lint: allow(rule-name, short justification)
//! ```

pub mod lexer;

use lexer::{lex, Token, TokenKind};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Rule id for order-dependent `HashMap`/`HashSet` iteration (R1).
pub const RULE_NONDET_ITER: &str = "nondeterministic-iter";
/// Rule id for wall-clock reads (R2).
pub const RULE_WALL_CLOCK: &str = "wall-clock";
/// Rule id for frozen-reference hash drift (R3).
pub const RULE_FROZEN_REF: &str = "frozen-ref";
/// Rule id for the library panic policy (R4).
pub const RULE_PANIC: &str = "panic";
/// Rule id for wildcard arms on config enums (R5).
pub const RULE_WILDCARD: &str = "wildcard-match";
/// Rule id for `assert!` in `// astra-lint: hot-path` functions.
pub const RULE_HOT_ASSERT: &str = "hot-path-assert";

/// Crates on the simulation path: determinism and panic policy apply.
pub const SIM_CRATES: &[&str] = &[
    "des",
    "topology",
    "network",
    "garnet",
    "collectives",
    "workload",
    "memory",
    "system",
    "telemetry",
];

/// Mode/backend config enums that must never be matched with a bare `_`.
pub const CONFIG_ENUMS: &[&str] = &[
    "TransportMode",
    "CollectiveMode",
    "NetworkBackendKind",
    "FaultKind",
    "TraceFormat",
];

/// Methods whose call on a hash collection yields arbitrary order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// The randomized-order collection types.
const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];

/// Functions that must carry a `// frozen-ref:` annotation, as
/// (path suffix, function name). Checked only in workspace mode.
pub const REQUIRED_FROZEN: &[(&str, &str)] = &[
    (
        "crates/workload/src/parallelism.rs",
        "generate_trace_reference",
    ),
    ("crates/network/src/congestion.rs", "max_min_rates"),
    ("crates/collectives/src/lowering.rs", "reference_finish"),
    ("crates/system/src/oracle.rs", "measure"),
    ("crates/garnet/src/network.rs", "start_hop"),
];

/// One lint finding.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Path (workspace-relative in workspace mode, as given otherwise).
    pub file: String,
    /// 1-based line, or 0 for file-level findings.
    pub line: u32,
    /// One of the `RULE_*` ids.
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A `// frozen-ref:` annotation found in a file.
#[derive(Clone, Debug)]
pub struct FrozenRef {
    /// Name of the annotated function.
    pub fn_name: String,
    /// 1-based line of the annotation comment.
    pub line: u32,
    /// Hash recorded in the comment (may be `TBD`).
    pub recorded: String,
    /// Hash computed from the current body token stream.
    pub computed: String,
}

/// How a file is scoped for rule purposes.
#[derive(Copy, Clone, Debug)]
pub struct Scope {
    /// Apply the sim-crate rules (R1, R4, R5 is global, R1/R4 are not).
    pub sim_crate: bool,
    /// Exempt from R2 (bench, vendor, CLI timing code).
    pub wall_clock_exempt: bool,
}

impl Scope {
    /// Scope used for explicitly listed files (fixtures): everything on.
    pub fn strict() -> Self {
        Scope {
            sim_crate: true,
            wall_clock_exempt: false,
        }
    }
}

/// Per-file lint output.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Rule findings (waivers already applied).
    pub violations: Vec<Violation>,
    /// Every frozen-ref annotation seen (drift already reported in
    /// `violations`; kept separately so `--bless-frozen` can rewrite).
    pub frozen: Vec<FrozenRef>,
}

// ---------------------------------------------------------------------------
// FNV-1a hashing of normalized token streams
// ---------------------------------------------------------------------------

/// FNV-1a 64-bit over the comment-stripped token texts of `toks`,
/// separated by `0xFF` so token boundaries matter but whitespace and
/// comments do not.
pub fn hash_tokens<'a>(toks: impl Iterator<Item = &'a Token>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for t in toks {
        if t.is_comment() {
            continue;
        }
        for b in t.text.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= 0xFF;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

// ---------------------------------------------------------------------------
// File analysis
// ---------------------------------------------------------------------------

struct FileCtx {
    toks: Vec<Token>,
    /// Indices into `toks` of non-comment tokens.
    code: Vec<usize>,
    /// Waived rules by comment line: a waiver covers its own line and the
    /// next line.
    waivers: BTreeMap<u32, Vec<String>>,
    /// Parallel to `code`: true when the token sits inside a
    /// `#[cfg(test)] mod { .. }` region.
    test_mask: Vec<bool>,
    /// `code`-index ranges (inclusive) of `// astra-lint: hot-path` fns.
    hot_ranges: Vec<(usize, usize)>,
}

impl FileCtx {
    fn new(src: &str) -> Self {
        let toks = lex(src);
        let code: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
        let mut ctx = FileCtx {
            toks,
            code,
            waivers: BTreeMap::new(),
            test_mask: Vec::new(),
            hot_ranges: Vec::new(),
        };
        ctx.collect_waivers();
        ctx.test_mask = ctx.compute_test_mask();
        ctx.hot_ranges = ctx.compute_hot_ranges();
        ctx
    }

    fn ct(&self, i: usize) -> &Token {
        &self.toks[self.code[i]]
    }

    fn ct_text(&self, i: usize) -> &str {
        &self.toks[self.code[i]].text
    }

    fn is(&self, i: usize, text: &str) -> bool {
        i < self.code.len() && self.ct(i).text == text
    }

    fn collect_waivers(&mut self) {
        for t in &self.toks {
            if !t.is_comment() {
                continue;
            }
            let Some(rest) = annotation_body(&t.text).strip_prefix("astra-lint:") else {
                continue;
            };
            let rest = rest.trim_start();
            let Some(inner) = rest.strip_prefix("allow(") else {
                continue;
            };
            let rule = inner
                .split([',', ')'])
                .next()
                .unwrap_or("")
                .trim()
                .to_string();
            if !rule.is_empty() {
                self.waivers.entry(t.line).or_default().push(rule);
            }
        }
    }

    fn waived(&self, line: u32, rule: &str) -> bool {
        let hit = |l: u32| {
            self.waivers
                .get(&l)
                .is_some_and(|rs| rs.iter().any(|r| r == rule))
        };
        hit(line) || (line > 0 && hit(line - 1))
    }

    /// Marks tokens inside `#[cfg(test)] mod name { .. }` regions.
    fn compute_test_mask(&self) -> Vec<bool> {
        let mut mask = vec![false; self.code.len()];
        let n = self.code.len();
        let mut i = 0;
        while i + 6 < n {
            // `#` `[` `cfg` `(` `test` `)` `]`
            let is_cfg_test = self.is(i, "#")
                && self.is(i + 1, "[")
                && self.is(i + 2, "cfg")
                && self.is(i + 3, "(")
                && self.is(i + 4, "test")
                && self.is(i + 5, ")")
                && self.is(i + 6, "]");
            if !is_cfg_test {
                i += 1;
                continue;
            }
            // Skip any further attributes, then expect `mod name {` or an
            // annotated item; everything up to the matching `}` of the
            // first `{` after the attribute is test code.
            let mut j = i + 7;
            while j + 1 < n && self.is(j, "#") && self.is(j + 1, "[") {
                // skip balanced `[...]`
                let mut depth = 0i32;
                j += 1;
                while j < n {
                    match self.ct_text(j) {
                        "[" => depth += 1,
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                j += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            // Find the opening brace of the annotated item.
            let mut open = None;
            let mut k = j;
            while k < n && k < j + 64 {
                match self.ct_text(k) {
                    "{" => {
                        open = Some(k);
                        break;
                    }
                    ";" => break, // e.g. `#[cfg(test)] use ...;`
                    _ => {}
                }
                k += 1;
            }
            let Some(open) = open else {
                i = j;
                continue;
            };
            let close = self.matching_brace(open).unwrap_or(n - 1);
            for m in mask.iter_mut().take(close + 1).skip(i) {
                *m = true;
            }
            i = close + 1;
        }
        mask
    }

    /// Finds the `code` index of the `}` matching the `{` at `open`.
    fn matching_brace(&self, open: usize) -> Option<usize> {
        let mut depth = 0i32;
        for k in open..self.code.len() {
            match self.ct_text(k) {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(k);
                    }
                }
                _ => {}
            }
        }
        None
    }

    /// `code` index of the first non-comment token after orig index `orig`.
    fn code_after(&self, orig: usize) -> Option<usize> {
        let p = self.code.partition_point(|&c| c <= orig);
        (p < self.code.len()).then_some(p)
    }

    /// Given a `code` index pointing at or after a `fn` keyword, returns
    /// the (fn_idx, open_brace, close_brace) code-index triple of the next
    /// function definition, if any.
    fn next_fn(&self, from: usize) -> Option<(usize, usize, usize)> {
        let n = self.code.len();
        let mut i = from;
        while i < n {
            if self.is(i, "fn") && i + 1 < n && self.ct(i + 1).kind == TokenKind::Ident {
                // First `{` after the signature. Signatures contain no
                // braces (generics, where-clauses, and return types are
                // brace-free); a `;` first means a trait method decl.
                let mut k = i + 2;
                while k < n {
                    match self.ct_text(k) {
                        "{" => {
                            let close = self.matching_brace(k)?;
                            return Some((i, k, close));
                        }
                        ";" => break,
                        _ => {}
                    }
                    k += 1;
                }
            }
            i += 1;
        }
        None
    }

    fn compute_hot_ranges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (orig, t) in self.toks.iter().enumerate() {
            if !t.is_comment() || !annotation_body(&t.text).starts_with("astra-lint: hot-path") {
                continue;
            }
            if let Some(start) = self.code_after(orig) {
                if let Some((_, open, close)) = self.next_fn(start) {
                    out.push((open, close));
                }
            }
        }
        out
    }

    fn in_hot_range(&self, i: usize) -> bool {
        self.hot_ranges.iter().any(|&(a, b)| i >= a && i <= b)
    }
}

/// Lints one file's source. `rel` is the path used in diagnostics.
pub fn lint_source(rel: &str, src: &str, scope: Scope) -> FileReport {
    let ctx = FileCtx::new(src);
    let mut report = FileReport::default();

    let frozen = collect_frozen(&ctx);
    for f in &frozen {
        if f.recorded != f.computed {
            report.violations.push(Violation {
                file: rel.to_string(),
                line: f.line,
                rule: RULE_FROZEN_REF,
                message: format!(
                    "frozen reference `{}` changed: recorded {}, body hashes to {} \
                     (if deliberate, re-bless with `cargo run -p astra-lint -- --bless-frozen`)",
                    f.fn_name, f.recorded, f.computed
                ),
            });
        }
    }
    report.frozen = frozen;

    if scope.sim_crate {
        rule_nondet_iter(&ctx, rel, &mut report.violations);
        rule_panic(&ctx, rel, &mut report.violations);
    }
    if !scope.wall_clock_exempt {
        rule_wall_clock(&ctx, rel, &mut report.violations);
    }
    rule_wildcard_match(&ctx, rel, &mut report.violations);
    rule_hot_assert(&ctx, rel, &mut report.violations);

    report.violations.retain(|v| !ctx.waived(v.line, v.rule));
    report.violations.sort_by_key(|v| v.line);
    report
}

/// Strips the comment marker (`//`, `///`, `//!`, `/*`) and leading
/// whitespace, so annotations are recognized only at the *start* of a
/// comment — prose that merely mentions `// frozen-ref:` (like this
/// crate's own docs) is not an annotation.
fn annotation_body(comment: &str) -> &str {
    let t = comment
        .strip_prefix("//")
        .or_else(|| comment.strip_prefix("/*"))
        .unwrap_or(comment);
    t.trim_start_matches(['/', '!']).trim_start()
}

// ---------------------------------------------------------------------------
// R3: frozen references
// ---------------------------------------------------------------------------

fn collect_frozen(ctx: &FileCtx) -> Vec<FrozenRef> {
    let mut out = Vec::new();
    for (orig, t) in ctx.toks.iter().enumerate() {
        if !t.is_comment() {
            continue;
        }
        let Some(rest) = annotation_body(&t.text).strip_prefix("frozen-ref:") else {
            continue;
        };
        let recorded = rest.trim().trim_end_matches("*/").trim().to_string();
        let Some(start) = ctx.code_after(orig) else {
            continue;
        };
        let Some((fn_idx, _open, close)) = ctx.next_fn(start) else {
            continue;
        };
        let fn_name = ctx.ct_text(fn_idx + 1).to_string();
        let computed = hash_tokens((fn_idx..=close).map(|i| ctx.ct(i)));
        out.push(FrozenRef {
            fn_name,
            line: t.line,
            recorded,
            computed,
        });
    }
    out
}

// ---------------------------------------------------------------------------
// R1: nondeterministic iteration
// ---------------------------------------------------------------------------

fn rule_nondet_iter(ctx: &FileCtx, rel: &str, out: &mut Vec<Violation>) {
    let n = ctx.code.len();

    // Pass A: collect names whose declared or constructed type is a hash
    // collection — `x: HashMap<..>` (fields, params, typed lets) and
    // `let x = HashMap::new()`-style initializers.
    let mut suspects: Vec<String> = Vec::new();
    for i in 0..n {
        // `name: [&]['a][mut] [path::]HashMap<..>` — fields, params, lets.
        if ctx.ct(i).kind == TokenKind::Ident && i + 2 < n && ctx.is(i + 1, ":") {
            let mut k = i + 2;
            while k < n {
                let t = ctx.ct(k);
                let keep_going = match t.kind {
                    TokenKind::Ident => {
                        if HASH_TYPES.contains(&t.text.as_str()) {
                            suspects.push(ctx.ct_text(i).to_string());
                            break;
                        }
                        // Path segments (`std::collections::`) and `mut`.
                        t.text == "mut" || (k + 1 < n && ctx.is(k + 1, "::"))
                    }
                    TokenKind::Lifetime => true,
                    TokenKind::Punct => matches!(t.text.as_str(), "::" | "&"),
                    _ => false,
                };
                if !keep_going {
                    break;
                }
                k += 1;
            }
        }
        if ctx.is(i, "let") {
            let mut j = i + 1;
            if ctx.is(j, "mut") {
                j += 1;
            }
            if j < n && ctx.ct(j).kind == TokenKind::Ident {
                let name = ctx.ct_text(j).to_string();
                let mut k = j + 1;
                while k < n && k < j + 60 && !ctx.is(k, ";") {
                    if HASH_TYPES.contains(&ctx.ct_text(k)) {
                        suspects.push(name.clone());
                        break;
                    }
                    k += 1;
                }
            }
        }
    }
    suspects.sort();
    suspects.dedup();
    let is_suspect = |t: &str| suspects.iter().any(|s| s == t) || HASH_TYPES.contains(&t);

    // Pass B: method calls `<recv>.iter()` etc. whose receiver chain
    // touches a suspect, unless sorted in the same statement.
    for i in 0..n {
        if ctx.test_mask[i] {
            continue;
        }
        let t = ctx.ct(i);
        if t.kind != TokenKind::Ident || !ITER_METHODS.contains(&t.text.as_str()) {
            continue;
        }
        if i + 1 >= n || !ctx.is(i + 1, "(") || i == 0 || !ctx.is(i - 1, ".") {
            continue;
        }
        if !receiver_has_suspect(ctx, i - 2, &is_suspect) {
            continue;
        }
        if sorted_downstream(ctx, i + 1) {
            continue;
        }
        out.push(Violation {
            file: rel.to_string(),
            line: t.line,
            rule: RULE_NONDET_ITER,
            message: format!(
                "`.{}()` on a HashMap/HashSet yields arbitrary order; use BTreeMap/BTreeSet, \
                 sort in the same statement, or waive with \
                 `// astra-lint: allow({RULE_NONDET_ITER}, reason)`",
                t.text
            ),
        });
    }

    // Pass C: `for x in <expr> {` where the expression names a suspect.
    for i in 0..n {
        if ctx.test_mask[i] || !ctx.is(i, "for") {
            continue;
        }
        // `for<'a>` higher-ranked bounds are not loops.
        if ctx.is(i + 1, "<") {
            continue;
        }
        // Find `in` at depth 0 (patterns may contain parens/tuples).
        let mut j = i + 1;
        let mut depth = 0i32;
        let mut found_in = None;
        while j < n && j < i + 40 {
            match ctx.ct_text(j) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "in" if depth == 0 => {
                    found_in = Some(j);
                    break;
                }
                "{" | ";" => break,
                _ => {}
            }
            j += 1;
        }
        let Some(in_idx) = found_in else { continue };
        let mut k = in_idx + 1;
        depth = 0;
        while k < n && k < in_idx + 40 {
            match ctx.ct_text(k) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => break,
                text => {
                    // Method-style iteration inside the loop header is
                    // caught by pass B; here we catch the bare
                    // `for k in map` / `for k in &map` forms.
                    if ctx.ct(k).kind == TokenKind::Ident && is_suspect(text) {
                        let already = ITER_METHODS.contains(&text);
                        if !already {
                            out.push(Violation {
                                file: rel.to_string(),
                                line: ctx.ct(k).line,
                                rule: RULE_NONDET_ITER,
                                message: format!(
                                    "`for .. in` over `{text}` (HashMap/HashSet) yields \
                                     arbitrary order; use BTreeMap/BTreeSet or waive with \
                                     `// astra-lint: allow({RULE_NONDET_ITER}, reason)`"
                                ),
                            });
                        }
                        break;
                    }
                }
            }
            k += 1;
        }
    }
}

/// Walks a method receiver chain backwards from `end` (the code index
/// just before the `.`), reporting whether any identifier in the chain
/// satisfies `pred`. Handles `a.b`, `a()`, `a[i]`, `a?`, `a::b`, `self`.
fn receiver_has_suspect(ctx: &FileCtx, end: usize, pred: &dyn Fn(&str) -> bool) -> bool {
    let mut i = end as isize;
    while i >= 0 {
        let idx = i as usize;
        let t = ctx.ct(idx);
        match t.kind {
            TokenKind::Ident => {
                if t.text == "self" || t.text == "mut" || t.text == "ref" {
                    // keep walking
                } else if pred(&t.text) {
                    return true;
                }
                // An ident continues the chain only if preceded by a
                // connector.
                if idx == 0 {
                    return false;
                }
                match ctx.ct_text(idx - 1) {
                    "." | "::" | "&" => i -= 1,
                    _ => return false,
                }
            }
            TokenKind::Punct => match t.text.as_str() {
                ")" | "]" => {
                    // Skip the balanced group backwards.
                    let open = if t.text == ")" { "(" } else { "[" };
                    let close = t.text.clone();
                    let mut depth = 0i32;
                    while i >= 0 {
                        let s = ctx.ct_text(i as usize);
                        if s == close {
                            depth += 1;
                        } else if s == open {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        i -= 1;
                    }
                    i -= 1;
                }
                "." | "::" | "?" | "&" => i -= 1,
                _ => return false,
            },
            _ => return false,
        }
    }
    false
}

/// Whether the statement containing the call at `open_paren` sorts or
/// re-collects into an ordered container downstream: looks ahead to the
/// statement end for `sort*`, `BTree*`, `min`/`max`, or `collect` into a
/// `BTree` type.
fn sorted_downstream(ctx: &FileCtx, open_paren: usize) -> bool {
    let n = ctx.code.len();
    let mut depth = 0i32;
    let mut k = open_paren;
    // Skip the call's own argument list.
    while k < n {
        match ctx.ct_text(k) {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    k += 1;
                    break;
                }
            }
            _ => {}
        }
        k += 1;
    }
    let mut scanned = 0;
    while k < n && scanned < 80 {
        let text = ctx.ct_text(k);
        match text {
            ";" | "{" => return false,
            _ => {
                if text.starts_with("sort") || text.starts_with("BTree") {
                    return true;
                }
                // `.min()` / `.max()` / folds reduce to an
                // order-independent scalar.
                if matches!(
                    text,
                    "min" | "max" | "sum" | "count" | "fold" | "all" | "any"
                ) && k > 0
                    && ctx.is(k - 1, ".")
                {
                    return true;
                }
            }
        }
        k += 1;
        scanned += 1;
    }
    false
}

// ---------------------------------------------------------------------------
// R2: wall clocks
// ---------------------------------------------------------------------------

fn rule_wall_clock(ctx: &FileCtx, rel: &str, out: &mut Vec<Violation>) {
    let n = ctx.code.len();
    for i in 0..n {
        if ctx.test_mask[i] {
            continue;
        }
        let t = ctx.ct(i);
        if t.kind != TokenKind::Ident {
            continue;
        }
        if t.text == "Instant" && i + 2 < n && ctx.is(i + 1, "::") && ctx.is(i + 2, "now") {
            out.push(Violation {
                file: rel.to_string(),
                line: t.line,
                rule: RULE_WALL_CLOCK,
                message: "`Instant::now()` reads a wall clock; simulated time must come from \
                          the event queue (`Time`), not the host"
                    .to_string(),
            });
        }
        if t.text == "SystemTime" {
            out.push(Violation {
                file: rel.to_string(),
                line: t.line,
                rule: RULE_WALL_CLOCK,
                message: "`SystemTime` is host wall-clock state; forbidden outside \
                          crates/bench and CLI timing code"
                    .to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// R4: panic policy
// ---------------------------------------------------------------------------

fn rule_panic(ctx: &FileCtx, rel: &str, out: &mut Vec<Violation>) {
    let n = ctx.code.len();
    for i in 0..n {
        if ctx.test_mask[i] {
            continue;
        }
        let t = ctx.ct(i);
        if t.kind != TokenKind::Ident {
            continue;
        }
        let viol = match t.text.as_str() {
            // `.unwrap()` / `.expect(..)` method calls only — `unwrap_or`
            // and friends are distinct idents and not flagged.
            "unwrap" | "expect" => i > 0 && ctx.is(i - 1, ".") && i + 1 < n && ctx.is(i + 1, "("),
            "panic" | "unreachable" | "todo" | "unimplemented" => i + 1 < n && ctx.is(i + 1, "!"),
            _ => false,
        };
        if viol {
            out.push(Violation {
                file: rel.to_string(),
                line: t.line,
                rule: RULE_PANIC,
                message: format!(
                    "`{}` in sim-crate library code; return a typed `SimError` (or waive a \
                     deliberate invariant panic with `// astra-lint: allow({RULE_PANIC}, reason)`)",
                    t.text
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// R5: wildcard arms on config enums
// ---------------------------------------------------------------------------

fn rule_wildcard_match(ctx: &FileCtx, rel: &str, out: &mut Vec<Violation>) {
    let n = ctx.code.len();
    for i in 0..n {
        if ctx.test_mask[i] || !ctx.is(i, "match") {
            continue;
        }
        // Opening brace of the arms block: first `{` at paren/bracket
        // depth 0 after the scrutinee.
        let mut j = i + 1;
        let mut depth = 0i32;
        let mut open = None;
        while j < n {
            match ctx.ct_text(j) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => {
                    open = Some(j);
                    break;
                }
                ";" => break,
                _ => {}
            }
            j += 1;
        }
        let Some(open) = open else { continue };
        let Some(close) = ctx.matching_brace(open) else {
            continue;
        };

        // Parse arms at brace depth 1 relative to `open`.
        let mut enums_hit: Vec<&'static str> = Vec::new();
        let mut wildcard_lines: Vec<u32> = Vec::new();
        let mut k = open + 1;
        while k < close {
            // --- pattern: tokens until `=>` at local depth 0 ---
            let mut pat: Vec<usize> = Vec::new();
            let mut pd = 0i32; // paren/bracket depth inside the pattern
            while k < close {
                let text = ctx.ct_text(k);
                match text {
                    "(" | "[" => pd += 1,
                    ")" | "]" => pd -= 1,
                    "=>" if pd == 0 => break,
                    _ => {}
                }
                pat.push(k);
                k += 1;
            }
            if k >= close {
                break;
            }
            // Classify the pattern.
            for &p in &pat {
                if let Some(e) = CONFIG_ENUMS.iter().find(|e| ctx.is(p, e)) {
                    if !enums_hit.contains(e) {
                        enums_hit.push(e);
                    }
                }
            }
            if pat.len() == 1 && ctx.is(pat[0], "_") {
                wildcard_lines.push(ctx.ct(pat[0]).line);
            }
            // --- body: `{..}` block or expression until `,` at depth 0 ---
            k += 1; // past `=>`
            if k < close && ctx.is(k, "{") {
                k = ctx.matching_brace(k).map_or(close, |c| c + 1);
                if k < close && ctx.is(k, ",") {
                    k += 1;
                }
            } else {
                let mut bd = 0i32;
                while k < close {
                    match ctx.ct_text(k) {
                        "(" | "[" | "{" => bd += 1,
                        ")" | "]" | "}" => bd -= 1,
                        "," if bd == 0 => {
                            k += 1;
                            break;
                        }
                        _ => {}
                    }
                    k += 1;
                }
            }
        }
        if !enums_hit.is_empty() {
            for line in wildcard_lines {
                out.push(Violation {
                    file: rel.to_string(),
                    line,
                    rule: RULE_WILDCARD,
                    message: format!(
                        "bare `_` arm in a match over config enum(s) {}; enumerate every \
                         variant so a future backend cannot silently fall through",
                        enums_hit.join(", ")
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Satellite: assert! in hot-path functions
// ---------------------------------------------------------------------------

fn rule_hot_assert(ctx: &FileCtx, rel: &str, out: &mut Vec<Violation>) {
    let n = ctx.code.len();
    for i in 0..n {
        if ctx.test_mask[i] || !ctx.in_hot_range(i) {
            continue;
        }
        let t = ctx.ct(i);
        if t.kind == TokenKind::Ident
            && matches!(t.text.as_str(), "assert" | "assert_eq" | "assert_ne")
            && i + 1 < n
            && ctx.is(i + 1, "!")
        {
            out.push(Violation {
                file: rel.to_string(),
                line: t.line,
                rule: RULE_HOT_ASSERT,
                message: format!(
                    "`{}!` inside a `// astra-lint: hot-path` function runs on every event; \
                     use `debug_assert{}!`",
                    t.text,
                    t.text.strip_prefix("assert").unwrap_or("")
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Workspace driver
// ---------------------------------------------------------------------------

/// Options for a lint run.
#[derive(Debug)]
pub struct RunOptions {
    /// Workspace root (directory containing the top-level `Cargo.toml`).
    pub root: PathBuf,
    /// Explicit files to lint in strict mode; empty means whole workspace.
    pub files: Vec<PathBuf>,
    /// Rewrite stale `// frozen-ref:` hashes instead of reporting them.
    pub bless: bool,
}

/// Outcome of a lint run.
#[derive(Debug, Default)]
pub struct RunReport {
    /// All findings, sorted by (file, line).
    pub violations: Vec<Violation>,
    /// Number of frozen-ref hashes rewritten (bless mode).
    pub blessed: usize,
    /// Number of files scanned.
    pub files_checked: usize,
}

/// Directory names never descended into during the workspace walk.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", ".github", "tests", "fixtures"];

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|s| s.to_str())
            .unwrap_or_default();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name) {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scope for a workspace-relative path.
fn scope_for(rel: &str) -> Scope {
    let sim_crate = SIM_CRATES
        .iter()
        .any(|c| rel.starts_with(&format!("crates/{c}/src/")));
    // `crates/serve/src/stats.rs` is the serve crate's one sanctioned
    // wall-clock site: it measures host-side service latency, which by
    // definition is not simulated time.
    let wall_clock_exempt = rel.starts_with("crates/bench/")
        || rel.starts_with("vendor/")
        || rel.starts_with("src/bin/")
        || rel == "src/cli.rs"
        || rel == "crates/serve/src/stats.rs";
    Scope {
        sim_crate,
        wall_clock_exempt,
    }
}

/// Rewrites stale `frozen-ref` hashes in `src`, returning the new text
/// and how many lines changed.
fn bless_source(src: &str, frozen: &[FrozenRef]) -> (String, usize) {
    let mut lines: Vec<String> = src.split('\n').map(str::to_string).collect();
    let mut changed = 0;
    for f in frozen {
        if f.recorded == f.computed {
            continue;
        }
        let idx = (f.line as usize).saturating_sub(1);
        if let Some(line) = lines.get_mut(idx) {
            if let Some(pos) = line.find("frozen-ref:") {
                let prefix = &line[..pos + "frozen-ref:".len()];
                *line = format!("{prefix} {}", f.computed);
                changed += 1;
            }
        }
    }
    (lines.join("\n"), changed)
}

/// Runs the lint. In workspace mode (no explicit files) the sim-crate and
/// wall-clock scoping is derived from each file's path and the
/// `REQUIRED_FROZEN` annotations are checked for presence; explicit files
/// are linted in strict mode (all rules on), which is what the fixture
/// tests use.
///
/// # Errors
///
/// Propagates I/O failures from walking the workspace or reading (and,
/// in bless mode, rewriting) source files.
pub fn run(opts: &RunOptions) -> std::io::Result<RunReport> {
    let mut report = RunReport::default();
    let workspace_mode = opts.files.is_empty();

    let files: Vec<(PathBuf, String, Scope)> = if workspace_mode {
        let mut paths = Vec::new();
        collect_rs_files(&opts.root, &mut paths)?;
        paths
            .into_iter()
            .map(|p| {
                let rel = p
                    .strip_prefix(&opts.root)
                    .unwrap_or(&p)
                    .to_string_lossy()
                    .replace('\\', "/");
                let scope = scope_for(&rel);
                (p, rel, scope)
            })
            .collect()
    } else {
        opts.files
            .iter()
            .map(|p| (p.clone(), p.to_string_lossy().into_owned(), Scope::strict()))
            .collect()
    };

    // Which required frozen annotations have been seen, by index.
    let mut required_seen = vec![false; REQUIRED_FROZEN.len()];

    for (path, rel, scope) in &files {
        let src = std::fs::read_to_string(path)?;
        let file_report = lint_source(rel, &src, *scope);
        report.files_checked += 1;

        for (i, (suffix, fn_name)) in REQUIRED_FROZEN.iter().enumerate() {
            if rel.ends_with(suffix) && file_report.frozen.iter().any(|f| f.fn_name == *fn_name) {
                required_seen[i] = true;
            }
        }

        if opts.bless {
            let stale: Vec<&FrozenRef> = file_report
                .frozen
                .iter()
                .filter(|f| f.recorded != f.computed)
                .collect();
            if !stale.is_empty() {
                let (new_src, changed) = bless_source(&src, &file_report.frozen);
                std::fs::write(path, new_src)?;
                report.blessed += changed;
            }
            report.violations.extend(
                file_report
                    .violations
                    .into_iter()
                    .filter(|v| v.rule != RULE_FROZEN_REF),
            );
        } else {
            report.violations.extend(file_report.violations);
        }
    }

    if workspace_mode {
        for (i, (suffix, fn_name)) in REQUIRED_FROZEN.iter().enumerate() {
            if !required_seen[i] {
                report.violations.push(Violation {
                    file: (*suffix).to_string(),
                    line: 0,
                    rule: RULE_FROZEN_REF,
                    message: format!(
                        "required frozen reference `{fn_name}` has no `// frozen-ref:` \
                         annotation"
                    ),
                });
            }
        }
    }

    report
        .violations
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strict(src: &str) -> Vec<Violation> {
        lint_source("test.rs", src, Scope::strict()).violations
    }

    #[test]
    fn r1_flags_hashmap_iteration() {
        let v = strict(
            "use std::collections::HashMap;\n\
             fn f(m: &HashMap<u32, u32>) -> Vec<u32> {\n\
                 m.keys().copied().collect()\n\
             }\n",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, RULE_NONDET_ITER);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn r1_allows_sorted_in_same_statement() {
        let v = strict(
            "use std::collections::HashMap;\n\
             fn f(m: &HashMap<u32, u32>) -> Vec<u32> {\n\
                 let mut k: Vec<u32> = m.keys().copied().collect::<std::collections::BTreeSet<_>>().into_iter().collect();\n\
                 k\n\
             }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn r1_allows_order_independent_reductions() {
        let v = strict(
            "fn f(m: &std::collections::HashMap<u32, u32>) -> u32 {\n\
                 m.values().copied().sum()\n\
             }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn r1_flags_for_loop_over_suspect() {
        let v = strict(
            "fn f(seen: std::collections::HashSet<u32>) {\n\
                 for x in &seen { drop(x); }\n\
             }\n",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, RULE_NONDET_ITER);
    }

    #[test]
    fn r1_ignores_lookups() {
        let v = strict(
            "fn f(m: &std::collections::HashMap<u32, u32>) -> Option<&u32> {\n\
                 m.get(&3)\n\
             }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn r1_waiver_suppresses() {
        let v = strict(
            "fn f(m: &std::collections::HashMap<u32, u32>) -> Vec<u32> {\n\
                 // astra-lint: allow(nondeterministic-iter, order folded away by caller)\n\
                 m.keys().copied().collect()\n\
             }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn r2_flags_instant_and_systemtime() {
        let v = strict(
            "fn f() {\n\
                 let t = std::time::Instant::now();\n\
                 drop(t);\n\
             }\n",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, RULE_WALL_CLOCK);
    }

    #[test]
    fn r3_reports_drift_and_blesses() {
        let src = "// frozen-ref: 0000000000000000\n\
                   fn reference(x: u32) -> u32 { x + 1 }\n";
        let rep = lint_source("test.rs", src, Scope::strict());
        assert_eq!(rep.violations.len(), 1);
        assert_eq!(rep.violations[0].rule, RULE_FROZEN_REF);
        let (blessed, changed) = bless_source(src, &rep.frozen);
        assert_eq!(changed, 1);
        let rep2 = lint_source("test.rs", &blessed, Scope::strict());
        assert!(rep2.violations.is_empty(), "{:?}", rep2.violations);
        // Comments and whitespace do not perturb the hash; code does.
        let reformatted = blessed.replace("{ x + 1 }", "{\n    // note\n    x + 1\n}");
        let rep3 = lint_source("test.rs", &reformatted, Scope::strict());
        assert!(rep3.violations.is_empty(), "{:?}", rep3.violations);
        let edited = blessed.replace("x + 1", "x + 2");
        let rep4 = lint_source("test.rs", &edited, Scope::strict());
        assert_eq!(rep4.violations.len(), 1);
    }

    #[test]
    fn r4_flags_unwrap_expect_panic() {
        let v = strict(
            "fn f(x: Option<u32>) -> u32 {\n\
                 let a = x.unwrap();\n\
                 let b = x.expect(\"present\");\n\
                 if a != b { panic!(\"mismatch\"); }\n\
                 a\n\
             }\n",
        );
        assert_eq!(v.len(), 3);
        assert!(v.iter().all(|v| v.rule == RULE_PANIC));
    }

    #[test]
    fn r4_skips_unwrap_or_and_tests() {
        let v = strict(
            "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 #[test]\n\
                 fn t() { Some(1).unwrap(); }\n\
             }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn r4_skips_cfg_not_test() {
        let v = strict(
            "#[cfg(not(test))]\n\
             mod live {\n\
                 pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
             }\n",
        );
        assert_eq!(v.len(), 1, "cfg(not(test)) is live code: {v:?}");
    }

    #[test]
    fn r5_flags_wildcard_on_config_enum() {
        let v = strict(
            "fn f(t: TransportMode) -> u32 {\n\
                 match t {\n\
                     TransportMode::PerPacket => 1,\n\
                     _ => 0,\n\
                 }\n\
             }\n",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, RULE_WILDCARD);
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn r5_ignores_enum_in_arm_body() {
        // FromStr-style: the enum appears in the *body*, `_` catches
        // unknown strings — legitimate.
        let v = strict(
            "fn parse(s: &str) -> Result<TransportMode, String> {\n\
                 match s {\n\
                     \"packet\" => Ok(TransportMode::PerPacket),\n\
                     _ => Err(format!(\"unknown: {s}\")),\n\
                 }\n\
             }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn r5_ignores_exhaustive_match() {
        let v = strict(
            "fn f(t: TransportMode) -> u32 {\n\
                 match t {\n\
                     TransportMode::PerPacket => 1,\n\
                     TransportMode::Batched => 2,\n\
                 }\n\
             }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn r5_flags_wildcard_on_trace_format() {
        let v = strict(
            "fn f(fmt: TraceFormat) -> &'static str {\n\
                 match fmt {\n\
                     TraceFormat::Chrome => \"chrome\",\n\
                     _ => \"other\",\n\
                 }\n\
             }\n",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, RULE_WILDCARD);
    }

    #[test]
    fn telemetry_is_a_sim_crate_and_serve_stats_may_read_the_clock() {
        let telemetry = scope_for("crates/telemetry/src/lib.rs");
        assert!(telemetry.sim_crate);
        assert!(!telemetry.wall_clock_exempt);
        let stats = scope_for("crates/serve/src/stats.rs");
        assert!(stats.wall_clock_exempt);
        let serve_rest = scope_for("crates/serve/src/socket.rs");
        assert!(!serve_rest.wall_clock_exempt);
    }

    #[test]
    fn hot_path_assert_flagged() {
        let v = strict(
            "// astra-lint: hot-path\n\
             fn pop(x: u32) {\n\
                 assert!(x > 0, \"empty\");\n\
             }\n\
             fn cold(x: u32) {\n\
                 assert!(x > 0);\n\
             }\n",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, RULE_HOT_ASSERT);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn hot_path_debug_assert_ok() {
        let v = strict(
            "// astra-lint: hot-path\n\
             fn pop(x: u32) {\n\
                 debug_assert!(x > 0, \"empty\");\n\
             }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }
}

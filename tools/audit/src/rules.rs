//! The five invariant rules. Each scanner works on a [`FileScan`] (code
//! channel only — comments and literal bodies are already blanked) and
//! pushes [`Finding`]s, honoring test-region exclusion and inline allows.

use crate::scan::FileScan;
use crate::Finding;

/// Files (workspace-relative suffixes) exempt from a rule wholesale, with
/// the justification. Inline allows handle point exemptions; this table
/// is only for files whose *purpose* conflicts with a rule.
pub const FILE_ALLOW: &[(&str, &str, &str)] = &[
    (
        "crates/shim/src/sched.rs",
        "no-panic",
        "deterministic scheduler: panics are the explorer's failure-reporting mechanism",
    ),
    (
        "crates/shim/src/explore.rs",
        "no-panic",
        "interleaving explorer: fail-fast panics carry the failing schedule to the test",
    ),
    (
        "crates/shim/src/time.rs",
        "no-wall-clock",
        "the single approved wall-clock choke point every other read routes through",
    ),
    (
        "crates/qopt/src/persist.rs",
        "no-fs-outside-persist",
        "the snapshot tier itself: the one module allowed to touch the filesystem",
    ),
];

/// Files the lock-discipline rule applies to: the concurrent core, where
/// a shard or pool lock guard may be live. Matched by path suffix so the
/// fixture corpus can opt in.
const LOCK_FILES: &[&str] = &["cache.rs", "service.rs", "pool.rs", "branch_bound.rs"];

/// Enums whose `match` sites must be exhaustive (no `_` arms): stop and
/// error classification drives budget accounting and fallback routing, so
/// a wildcard silently swallowing a new variant is a correctness bug.
const CLASSIFICATION_ENUMS: &[&str] = &["StopReason"];

fn file_allowed(rel: &str, rule: &str) -> bool {
    FILE_ALLOW
        .iter()
        .any(|(suffix, r, _)| *r == rule && rel.ends_with(suffix))
}

/// Pushes a finding unless the line is test code or carries an allow.
fn emit(out: &mut Vec<Finding>, scan: &FileScan, line: usize, rule: &'static str, message: String) {
    if scan.is_test[line] || scan.allowed(line, rule) || file_allowed(&scan.rel, rule) {
        return;
    }
    out.push(Finding {
        rule,
        file: scan.rel.clone(),
        line: line + 1,
        message,
    });
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whether `hay` contains `needle` as a standalone token (no identifier
/// character on either side).
fn has_token(hay: &str, needle: &str) -> bool {
    token_pos(hay, needle, 0).is_some()
}

/// Byte position of `needle` in `hay` at or after `from`, requiring an
/// identifier boundary on each side of the needle that *ends* in an
/// identifier character (so `StopReason::` tolerates the variant name
/// that follows, while `match` rejects `matches`).
fn token_pos(hay: &str, needle: &str, from: usize) -> Option<usize> {
    let bytes = hay.as_bytes();
    let needs_before = needle.chars().next().is_some_and(is_ident);
    let needs_after = needle.chars().next_back().is_some_and(is_ident);
    let mut start = from;
    while let Some(pos) = hay[start..].find(needle) {
        let at = start + pos;
        let before_ok = !needs_before || at == 0 || !is_ident(bytes[at - 1] as char);
        let end = at + needle.len();
        let after_ok = !needs_after || end >= bytes.len() || !is_ident(bytes[end] as char);
        if before_ok && after_ok {
            return Some(at);
        }
        start = at + 1;
    }
    None
}

/// Reads the identifier ending immediately before byte `end` (used to
/// recover a method call's receiver).
fn ident_before(line: &str, end: usize) -> Option<&str> {
    let bytes = line.as_bytes();
    let mut start = end;
    while start > 0 && is_ident(bytes[start - 1] as char) {
        start -= 1;
    }
    (start < end).then(|| &line[start..end])
}

/// Reads the identifier starting at byte `start`.
fn ident_at(line: &str, start: usize) -> Option<&str> {
    let end = line[start..]
        .find(|c: char| !is_ident(c))
        .map_or(line.len(), |o| start + o);
    (end > start).then(|| &line[start..end])
}

// ---------------------------------------------------------------------
// Rule: no-panic
// ---------------------------------------------------------------------

/// Library code must not contain panicking constructs: every fallible
/// path returns a classified error or a documented default. `unwrap_or*`
/// adapters are fine; `.unwrap()` / `.expect(…)` / panicking macros are
/// not, absent an `audit-allow(no-panic)` proving the invariant.
pub fn no_panic(scan: &FileScan, out: &mut Vec<Finding>) {
    const MACROS: &[&str] = &["panic!", "unreachable!", "todo!", "unimplemented!"];
    for (i, line) in scan.code.iter().enumerate() {
        if line.contains(".unwrap()") {
            emit(out, scan, i, "no-panic", ".unwrap() in library code — classify the error or prove the invariant with audit-allow".into());
        }
        if line.contains(".expect(") {
            emit(out, scan, i, "no-panic", ".expect(…) in library code — classify the error or prove the invariant with audit-allow".into());
        }
        for m in MACROS {
            let word = &m[..m.len() - 1];
            if let Some(pos) = token_pos(line, word, 0) {
                if line.as_bytes().get(pos + word.len()) == Some(&b'!') {
                    emit(out, scan, i, "no-panic", format!("`{m}` in library code"));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule: no-wall-clock
// ---------------------------------------------------------------------

/// Wall-clock reads are the one nondeterministic input; they must route
/// through `milpjoin_shim::time::now()` (virtualized under the
/// interleaving explorer) so budget code is auditable and trials are
/// schedule-deterministic.
pub fn no_wall_clock(scan: &FileScan, out: &mut Vec<Finding>) {
    for (i, line) in scan.code.iter().enumerate() {
        if line.contains("Instant::now") {
            emit(
                out,
                scan,
                i,
                "no-wall-clock",
                "direct `Instant::now` — route through milpjoin_shim::time::now()".into(),
            );
        }
        if has_token(line, "SystemTime") {
            emit(
                out,
                scan,
                i,
                "no-wall-clock",
                "`SystemTime` in library code — wall-clock reads route through milpjoin_shim::time"
                    .into(),
            );
        }
    }
}

// ---------------------------------------------------------------------
// Rule: no-unordered-iter
// ---------------------------------------------------------------------

/// Iterating a `HashMap`/`HashSet` visits entries in randomized order;
/// in a plan-affecting path that turns tie-breaks into run-to-run plan
/// churn. Bindings are collected from declarations and field types in the
/// same file, then every iteration entry point over them is flagged.
pub fn no_unordered_iter(scan: &FileScan, out: &mut Vec<Finding>) {
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
        "retain",
    ];
    let mut hashed: Vec<String> = Vec::new();
    for (i, line) in scan.code.iter().enumerate() {
        if scan.is_test[i] {
            continue;
        }
        for ty in ["HashMap", "HashSet"] {
            let mut from = 0;
            while let Some(pos) = token_pos(line, ty, from) {
                if let Some(name) = hash_binding_name(line, pos) {
                    if !hashed.iter().any(|h| h == name) {
                        hashed.push(name.to_string());
                    }
                }
                from = pos + ty.len();
            }
        }
    }
    if hashed.is_empty() {
        return;
    }
    for (i, line) in scan.code.iter().enumerate() {
        // `name.method(` where name is a known hash binding.
        for m in ITER_METHODS {
            let pat = format!(".{m}(");
            let mut from = 0;
            while let Some(pos) = line[from..].find(&pat).map(|p| from + p) {
                let end = pos + pat.len();
                if let Some(recv) = ident_before(line, pos) {
                    if hashed.iter().any(|h| h == recv) {
                        emit(out, scan, i, "no-unordered-iter", format!("iteration over hash collection `{recv}` (`.{m}`) — order is randomized; use a sorted or indexed structure in plan-affecting paths"));
                    }
                }
                from = end;
            }
        }
        // `for x in [&[mut ]]name`.
        if let Some(pos) = token_pos(line, "in", 0) {
            let rest = line[pos + 2..].trim_start();
            let rest = rest.strip_prefix("&mut ").unwrap_or(rest);
            let rest = rest.strip_prefix('&').unwrap_or(rest);
            if let Some(name) = ident_at(rest, 0) {
                if hashed.iter().any(|h| h == name) && has_token(line, "for") {
                    emit(
                        out,
                        scan,
                        i,
                        "no-unordered-iter",
                        format!(
                            "`for … in {name}` iterates a hash collection — order is randomized"
                        ),
                    );
                }
            }
        }
    }
}

/// Recovers the binding name a `HashMap`/`HashSet` occurrence declares,
/// if any: `let [mut] name = Hash…` or `name: [&[mut ]]Hash…` (fields,
/// params). Returns `None` for uses that declare nothing (paths, turbofish
/// call expressions, …).
fn hash_binding_name(line: &str, ty_pos: usize) -> Option<&str> {
    let before = line[..ty_pos].trim_end();
    // Strip a path prefix (`std::collections::`) back to the operator.
    let before = before
        .strip_suffix("std::collections::")
        .or_else(|| before.strip_suffix("collections::"))
        .unwrap_or(before)
        .trim_end();
    if let Some(rest) = before.strip_suffix('=') {
        // `let [mut] name =`
        let rest = rest.trim_end();
        let name = last_ident(rest)?;
        let head = rest[..rest.len() - name.len()].trim_end();
        (head.ends_with("let") || head.ends_with("mut")).then_some(name)
    } else if let Some(rest) = before.strip_suffix(':') {
        // `name: Hash…` — field or parameter declaration (also matches
        // `name: &Hash…` via the reference strip below).
        last_ident(rest.trim_end())
    } else if let Some(rest) = before
        .strip_suffix("&mut")
        .or_else(|| before.strip_suffix('&'))
    {
        let rest = rest.trim_end();
        rest.strip_suffix(':')
            .and_then(|r| last_ident(r.trim_end()))
    } else {
        None
    }
}

fn last_ident(s: &str) -> Option<&str> {
    let end = s.len();
    let start = s
        .rfind(|c: char| !is_ident(c))
        .map_or(0, |p| p + c_len(s, p));
    (start < end && ident_at(s, start).is_some()).then(|| &s[start..end])
}

fn c_len(s: &str, p: usize) -> usize {
    s[p..].chars().next().map_or(1, char::len_utf8)
}

// ---------------------------------------------------------------------
// Rule: lock-discipline
// ---------------------------------------------------------------------

/// In the concurrent core, no blocking call or user-callback invocation
/// may run while a cache-shard or pool lock guard is live: blocking under
/// a shard lock serializes unrelated queries, and a callback can run
/// arbitrary user code (re-entrancy, deadlock). Guards are tracked
/// lexically: a `let g = ….lock()` (or a condvar-wait rebinding) is live
/// until its block closes or an explicit `drop(g)`.
pub fn lock_discipline(scan: &FileScan, out: &mut Vec<Finding>) {
    if !LOCK_FILES.iter().any(|f| scan.rel.ends_with(f)) {
        return;
    }
    const BLOCKING: &[(&str, &str)] = &[
        (".wait()", "argumentless blocking wait"),
        ("thread::sleep", "sleep"),
        (".join()", "thread join"),
        (".recv()", "channel receive"),
        (".order(", "backend solve entry"),
        (".solve(", "solver entry"),
    ];
    let mut guards: Vec<(String, usize, usize)> = Vec::new(); // (name, decl_line, decl_depth)
    for (i, line) in scan.code.iter().enumerate() {
        if scan.is_test[i] {
            guards.clear();
            continue;
        }
        if !guards.is_empty() {
            for (pat, what) in BLOCKING {
                if line.contains(pat) {
                    let (g, at, _) = &guards[guards.len() - 1];
                    emit(
                        out,
                        scan,
                        i,
                        "lock-discipline",
                        format!(
                            "{what} (`{pat}`) while lock guard `{g}` (acquired line {}) is live",
                            at + 1
                        ),
                    );
                }
            }
            if line.contains("callback(") || line.contains("callback)(") {
                let (g, at, _) = &guards[guards.len() - 1];
                emit(out, scan, i, "lock-discipline", format!("callback invocation while lock guard `{g}` (acquired line {}) is live — callbacks run arbitrary user code", at + 1));
            }
            // Explicit early drop releases the guard mid-block.
            guards.retain(|(name, _, _)| !line.contains(&format!("drop({name})")));
        }
        // A guard binding: `let g = ….lock();` (or a wait rebinding that
        // carries the guard). A `.lock()` mid-chain is a statement-level
        // temporary, not a live binding — require the call to end the
        // statement or the line.
        let locks_at_end = line.contains(".lock();") || line.trim_end().ends_with(".lock()");
        if locks_at_end && has_token(line, "let") {
            if let Some(name) = let_binding_name(line) {
                guards.push((name.to_string(), i, scan.depth[i]));
            }
        }
        let after = scan.end_depth(i);
        guards.retain(|(_, _, d)| after >= *d);
    }
}

/// The binding name of a `let` statement: `let [mut] name = …` or the
/// first element of a tuple pattern `let (name, …) = …`.
fn let_binding_name(line: &str) -> Option<&str> {
    let pos = token_pos(line, "let", 0)?;
    let mut rest = line[pos + 3..].trim_start();
    rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    if let Some(tuple) = rest.strip_prefix('(') {
        let inner = tuple.trim_start();
        let inner = inner.strip_prefix("mut ").unwrap_or(inner).trim_start();
        return ident_at(inner, 0);
    }
    ident_at(rest, 0)
}

// ---------------------------------------------------------------------
// Rule: stop-reason-exhaustive
// ---------------------------------------------------------------------

/// `match` sites over the classification enums must name every variant:
/// a `_` arm silently absorbs newly added stop reasons, which corrupts
/// budget accounting and fallback routing without a compile error. The
/// scanner attributes each enum mention and each wildcard arm to its
/// innermost `match` block, so nesting over other enums is not flagged.
pub fn stop_reason_exhaustive(scan: &FileScan, out: &mut Vec<Finding>) {
    // Flatten to one ASCII stream (byte index == char index) with a line
    // index per position; non-ASCII chars can only appear inside blanked
    // regions' neighbors and are never part of a token we search for.
    let mut text = String::new();
    let mut line_of: Vec<usize> = Vec::new();
    for (i, l) in scan.code.iter().enumerate() {
        for c in l.chars() {
            text.push(if c.is_ascii() { c } else { ' ' });
            line_of.push(i);
        }
        text.push('\n');
        line_of.push(i);
    }
    let chars: Vec<char> = text.chars().collect();
    let depth_at = char_depths(&chars);

    // Collect match blocks: (open brace pos, close pos, body depth).
    let mut blocks: Vec<(usize, usize, usize)> = Vec::new();
    let mut from = 0;
    while let Some(kw) = token_pos(&text, "match", from) {
        from = kw + 5;
        if scan.is_test[line_of[kw]] {
            continue;
        }
        // The match body opens at the first `{` at or below the keyword's
        // depth before a `;` ends the expression search.
        let mut j = kw + 5;
        let open = loop {
            match chars.get(j) {
                Some('{') => break Some(j),
                Some(';') | None => break None,
                _ => j += 1,
            }
        };
        let Some(open) = open else { continue };
        // `char_depths` assigns an opening brace the depth it creates, so
        // the body's arm-level positions share the open brace's depth.
        let body_depth = depth_at[open];
        let mut close = open + 1;
        while close < chars.len() && !(chars[close] == '}' && depth_at[close] == body_depth) {
            close += 1;
        }
        blocks.push((open, close, body_depth));
    }

    let innermost = |pos: usize| -> Option<usize> {
        blocks
            .iter()
            .enumerate()
            .filter(|(_, (o, c, _))| *o < pos && pos < *c)
            .min_by_key(|(_, (o, c, _))| c - o)
            .map(|(i, _)| i)
    };

    // Attribute classification-enum mentions to their innermost block.
    let mut relevant = vec![false; blocks.len()];
    for e in CLASSIFICATION_ENUMS {
        let pat = format!("{e}::");
        let mut from = 0;
        while let Some(pos) = token_pos(&text, &pat, from) {
            if let Some(b) = innermost(pos) {
                relevant[b] = true;
            }
            from = pos + pat.len();
        }
    }

    // Wildcard arms: a `_` token followed by `=>` (or a match guard `if`)
    // at arm depth of a relevant block.
    for (pos, &c) in chars.iter().enumerate() {
        if c != '_' {
            continue;
        }
        let prev_ok = pos == 0 || !is_ident(chars[pos - 1]);
        let next_ok = chars.get(pos + 1).is_none_or(|&n| !is_ident(n));
        if !prev_ok || !next_ok {
            continue;
        }
        let mut j = pos + 1;
        while chars.get(j).is_some_and(|ch| ch.is_whitespace()) {
            j += 1;
        }
        let arrow = chars.get(j) == Some(&'=') && chars.get(j + 1) == Some(&'>');
        let guard = chars.get(j) == Some(&'i')
            && chars.get(j + 1) == Some(&'f')
            && chars.get(j + 2).is_none_or(|&ch| !is_ident(ch));
        if !arrow && !guard {
            continue;
        }
        let Some(b) = innermost(pos) else { continue };
        let (_, _, body_depth) = blocks[b];
        if relevant[b] && depth_at[pos] == body_depth {
            let enums = CLASSIFICATION_ENUMS.join("/");
            emit(out, scan, line_of[pos], "stop-reason-exhaustive", format!("wildcard arm in a `match` over {enums} — name every variant so new classifications fail the build instead of being silently absorbed"));
        }
    }
}

/// Brace depth at each char position (depth *of* the char: an opening
/// brace sits at the depth it creates; a closing brace at the depth it
/// closes).
fn char_depths(chars: &[char]) -> Vec<usize> {
    let mut out = Vec::with_capacity(chars.len());
    let mut d = 0usize;
    for &c in chars {
        match c {
            '{' => {
                d += 1;
                out.push(d);
            }
            '}' => {
                out.push(d);
                d = d.saturating_sub(1);
            }
            _ => out.push(d),
        }
    }
    out
}

// ---------------------------------------------------------------------
// Rule: no-fs-outside-persist
// ---------------------------------------------------------------------

/// Durable state goes through `qopt::persist` only: snapshots there are
/// versioned, checksummed, and written atomically (temp file + rename).
/// A stray `std::fs` call anywhere else bypasses every one of those
/// guarantees — a half-written file served on the next boot, or an
/// unversioned format nobody can evolve.
pub fn no_fs_outside_persist(scan: &FileScan, out: &mut Vec<Finding>) {
    const TOKENS: &[&str] = &[
        "std::fs",
        "fs::",
        "File::create",
        "File::open",
        "OpenOptions",
    ];
    for (i, line) in scan.code.iter().enumerate() {
        for t in TOKENS {
            if has_token(line, t) {
                emit(out, scan, i, "no-fs-outside-persist", format!("`{t}` outside the persist module — durable state goes through qopt::persist snapshots (versioned, checksummed, atomically replaced)"));
                break;
            }
        }
    }
}

/// Reports malformed `audit-allow` annotations (unknown rule, missing
/// reason) so a typo cannot silently suppress a diagnostic.
pub fn malformed_allows(scan: &FileScan, out: &mut Vec<Finding>) {
    for (i, problem) in &scan.malformed_allows {
        if scan.is_test[*i] {
            continue;
        }
        out.push(Finding {
            rule: "audit-allow",
            file: scan.rel.clone(),
            line: i + 1,
            message: problem.clone(),
        });
    }
}

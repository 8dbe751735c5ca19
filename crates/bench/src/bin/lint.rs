//! Repo-wide source lint, enforced by the CI `lint` leg.
//!
//! Two rules, both born from the concurrency-audit PR:
//!
//! 1. **SAFETY audit** — every `unsafe` token in the workspace must have a
//!    justification comment nearby: the literal text `SAFETY` or a
//!    `# Safety` rustdoc section within the five preceding lines, the same
//!    line, or the line immediately after. Function-*pointer* types
//!    (`unsafe fn(...)`) are exempt: they declare a contract, they don't
//!    discharge one.
//!
//! 2. **Sync facade** — files under `vendor/rayon/src`, the sharded
//!    cache and NPN-library modules (`crates/core/src/compile.rs`,
//!    `crates/aig/src/opt.rs`, `crates/aig/src/npn.rs`), and the whole
//!    serve daemon (`crates/serve/src`, whose request queue is
//!    model-checked), must not import
//!    `std::sync::atomic` or `std::sync::Mutex` directly — neither as a
//!    full path nor tucked inside a brace import
//!    (`use std::sync::{Arc, Mutex}`); all synchronization routes through
//!    the `loom::sync` facade, so the model-check build swaps in shadow
//!    primitives everywhere at once. Only the facade module itself may
//!    name the std types. `std::sync::{Arc, OnceLock}` stay allowed: they
//!    are not interleaving-sensitive, so the shadow build does not need
//!    to intercept them.
//!
//! Exit status is nonzero if any finding is reported, so CI fails closed.

use std::path::{Path, PathBuf};

/// The audited keyword, assembled so this file's own string literals don't
/// trip rule 1 (the audit deliberately looks inside string literals).
const UNSAFE_KW: &str = concat!("uns", "afe");

/// True if `line` contains `unsafe` as a word token outside `//` comments.
///
/// String literals are *not* stripped: a false positive there is fixed by
/// rewording the string, which is cheaper than a real lexer and keeps the
/// audit conservative.
fn has_unsafe_token(line: &str) -> bool {
    find_unsafe_token(code_part(line)).is_some()
}

/// The part of a line before any `//` line comment.
fn code_part(line: &str) -> &str {
    match line.find("//") {
        Some(pos) => &line[..pos],
        None => line,
    }
}

/// Byte offset of the first word-boundary `unsafe` token, if any.
fn find_unsafe_token(code: &str) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(rel) = code[from..].find(UNSAFE_KW) {
        let start = from + rel;
        let end = start + UNSAFE_KW.len();
        let before_ok = start == 0 || !is_word_byte(bytes[start - 1]);
        let after_ok = end == bytes.len() || !is_word_byte(bytes[end]);
        if before_ok && after_ok {
            return Some(start);
        }
        from = end;
    }
    None
}

fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// True if the `unsafe` token on this line only begins a function-pointer
/// type (`unsafe fn(...)` / `unsafe extern "C" fn(...)`): a type position,
/// not an unsafe operation, so no SAFETY comment is owed at the site.
fn is_fn_pointer_type(code: &str) -> bool {
    let Some(start) = find_unsafe_token(code) else {
        return false;
    };
    let mut rest = code[start + UNSAFE_KW.len()..].trim_start();
    if let Some(after_extern) = rest.strip_prefix("extern") {
        rest = after_extern.trim_start();
        if rest.starts_with('"') {
            match rest[1..].find('"') {
                Some(close) => rest = rest[close + 2..].trim_start(),
                None => return false,
            }
        }
    }
    match rest.strip_prefix("fn") {
        Some(after_fn) => after_fn.trim_start().starts_with('('),
        None => false,
    }
}

/// Whether a justification is visible in the window `[i - 5, i + 1]`.
/// Comments are searched too (that is where SAFETY comments live).
fn has_nearby_safety(lines: &[&str], i: usize) -> bool {
    let lo = i.saturating_sub(5);
    let hi = (i + 1).min(lines.len() - 1);
    lines[lo..=hi]
        .iter()
        .any(|l| l.contains("SAFETY") || l.contains("# Safety"))
}

/// Rule 1 over one file's contents. Returns `"<label>:<line>: <msg>"` rows.
fn audit_unsafe(label: &str, contents: &str) -> Vec<String> {
    let lines: Vec<&str> = contents.lines().collect();
    let mut findings = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if !has_unsafe_token(line) || is_fn_pointer_type(code_part(line)) {
            continue;
        }
        if !has_nearby_safety(&lines, i) {
            findings.push(format!(
                "{label}:{}: `{UNSAFE_KW}` without a SAFETY comment within 5 lines above or 1 below",
                i + 1
            ));
        }
    }
    findings
}

/// True if `item` occurs as a word token inside `list` (the contents of a
/// `use std::sync::{...}` brace group), e.g. `Mutex` in `Arc, Mutex` or
/// `atomic` in `atomic::{AtomicU64, Ordering}`.
fn brace_list_names(list: &str, item: &str) -> bool {
    let bytes = list.as_bytes();
    let mut from = 0;
    while let Some(rel) = list[from..].find(item) {
        let start = from + rel;
        let end = start + item.len();
        let before_ok = start == 0 || !is_word_byte(bytes[start - 1]);
        let after_ok = end == bytes.len() || !is_word_byte(bytes[end]);
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
}

/// The banned item named by a brace-form `use std::sync::{...}` on this
/// line, if any. Line-based on purpose: rustfmt keeps these imports on one
/// line at the widths in this workspace, and a conservative miss on a
/// hand-wrapped import is caught by the full-path arm on the lines below.
fn banned_sync_in_braces(code: &str) -> Option<&'static str> {
    let start = code.find("std::sync::{")?;
    let list = &code[start + "std::sync::{".len()..];
    let list = &list[..list.find('}').unwrap_or(list.len())];
    ["Mutex", "atomic"]
        .into_iter()
        .find(|item| brace_list_names(list, item))
}

/// Rule 2 over one file's contents (caller decides whether the path is in
/// scope). Flags any mention of the std types the facade wraps, whether
/// spelled as a full path or smuggled through a brace import.
fn audit_facade(label: &str, contents: &str) -> Vec<String> {
    let banned = ["std::sync::atomic", "std::sync::Mutex"];
    let mut findings = Vec::new();
    for (i, line) in contents.lines().enumerate() {
        let code = code_part(line);
        for b in banned {
            if code.contains(b) {
                findings.push(format!(
                    "{label}:{}: direct `{b}` — route through the loom::sync facade",
                    i + 1
                ));
            }
        }
        if let Some(item) = banned_sync_in_braces(code) {
            findings.push(format!(
                "{label}:{}: `{item}` imported via `use std::sync::{{...}}` — route through the loom::sync facade",
                i + 1
            ));
        }
    }
    findings
}

/// Whether rule 2 applies to this path: under `vendor/rayon/src` (minus
/// the facade module itself), one of the facade-routed cache / NPN
/// modules whose locks and atomics the loom models check, or the serve,
/// suite and durable sources. `crates/serve/src/signal.rs` is carved out:
/// a signal handler needs a genuinely async-signal-safe std atomic, and
/// the shadow scheduler must never be entered from a signal context.
fn facade_rule_applies(rel: &Path) -> bool {
    let s = rel.to_string_lossy().replace('\\', "/");
    if s.contains("vendor/rayon/src/") {
        return !s.ends_with("/sync.rs");
    }
    if s.contains("crates/serve/src/") {
        return !s.ends_with("/signal.rs");
    }
    // The sweep engine runs on cancel tokens, and the durability crate it
    // shares with the daemon holds the fault plan and the atomic write;
    // any concurrency either grows must stay loom-checkable from day one.
    if s.contains("crates/suite/src/") || s.contains("crates/durable/src/") {
        return true;
    }
    s.ends_with("crates/core/src/compile.rs")
        || s.ends_with("crates/aig/src/lru.rs")
        || s.ends_with("crates/aig/src/opt.rs")
        || s.ends_with("crates/aig/src/npn.rs")
}

fn collect_rust_files(root: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(root) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            collect_rust_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

fn main() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let mut files = Vec::new();
    collect_rust_files(&root, &mut files);
    files.sort();

    let mut findings = Vec::new();
    let mut unsafe_sites = 0usize;
    for path in &files {
        let Ok(contents) = std::fs::read_to_string(path) else {
            continue;
        };
        let rel = path.strip_prefix(&root).unwrap_or(path);
        let label = rel.to_string_lossy().replace('\\', "/");
        unsafe_sites += contents
            .lines()
            .filter(|l| has_unsafe_token(l) && !is_fn_pointer_type(code_part(l)))
            .count();
        findings.extend(audit_unsafe(&label, &contents));
        if facade_rule_applies(rel) {
            findings.extend(audit_facade(&label, &contents));
        }
    }

    for f in &findings {
        eprintln!("{f}");
    }
    println!(
        "lint: {} files scanned, {} {UNSAFE_KW} sites audited, {} finding(s)",
        files.len(),
        unsafe_sites,
        findings.len()
    );
    if !findings.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kw() -> &'static str {
        UNSAFE_KW
    }

    #[test]
    fn seeded_unsafe_without_comment_is_flagged() {
        let src = format!("fn f(p: *const u8) -> u8 {{\n    {} {{ *p }}\n}}\n", kw());
        let findings = audit_unsafe("seed.rs", &src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].starts_with("seed.rs:2:"), "{findings:?}");
    }

    #[test]
    fn safety_comment_above_satisfies_the_audit() {
        let src = format!(
            "fn f(p: *const u8) -> u8 {{\n    // SAFETY: caller guarantees `p` is valid.\n    {} {{ *p }}\n}}\n",
            kw()
        );
        assert!(audit_unsafe("ok.rs", &src).is_empty());
    }

    #[test]
    fn safety_doc_section_satisfies_the_audit() {
        let src = format!(
            "/// # Safety\n///\n/// `p` must be valid.\npub {} fn f(p: *const u8) {{}}\n",
            kw()
        );
        assert!(audit_unsafe("doc.rs", &src).is_empty());
    }

    #[test]
    fn comment_only_far_away_is_still_flagged() {
        let pad = "    let _x = 1;\n".repeat(6);
        let src = format!("// SAFETY: too far up to count.\n{pad}    {} {{ core::hint::unreachable_unchecked() }}\n", kw());
        assert_eq!(audit_unsafe("far.rs", &src).len(), 1);
    }

    #[test]
    fn fn_pointer_types_are_exempt() {
        let src = format!(
            "struct J {{\n    run: {k} fn(*const ()),\n    run_c: {k} extern \"C\" fn(*const ()),\n}}\n",
            k = kw()
        );
        assert!(audit_unsafe("ptr.rs", &src).is_empty());
    }

    #[test]
    fn unsafe_in_a_line_comment_is_ignored() {
        let src = format!(
            "// this mentions {} but performs nothing\nfn f() {{}}\n",
            kw()
        );
        assert!(audit_unsafe("cmt.rs", &src).is_empty());
    }

    #[test]
    fn word_boundaries_are_respected() {
        let src = format!(
            "fn f() {{ let {}_count = 0; let _ = {}_count; }}\n",
            kw(),
            kw()
        );
        assert!(audit_unsafe("word.rs", &src).is_empty());
    }

    #[test]
    fn seeded_std_atomic_import_in_rayon_is_flagged() {
        let src = "use std::sync::atomic::AtomicUsize;\nuse std::sync::Mutex;\n";
        let findings = audit_facade("vendor/rayon/src/deque.rs", src);
        assert_eq!(findings.len(), 2, "{findings:?}");
    }

    #[test]
    fn facade_scope_includes_rayon_src_but_not_sync_rs() {
        assert!(facade_rule_applies(Path::new("vendor/rayon/src/deque.rs")));
        assert!(facade_rule_applies(Path::new(
            "vendor/rayon/src/registry.rs"
        )));
        assert!(!facade_rule_applies(Path::new("vendor/rayon/src/sync.rs")));
        assert!(!facade_rule_applies(Path::new("crates/aig/src/aig.rs")));
        assert!(!facade_rule_applies(Path::new("vendor/loom/src/sync.rs")));
    }

    #[test]
    fn facade_scope_includes_the_sharded_cache_modules() {
        assert!(facade_rule_applies(Path::new("crates/core/src/compile.rs")));
        assert!(facade_rule_applies(Path::new("crates/aig/src/lru.rs")));
        assert!(facade_rule_applies(Path::new("crates/aig/src/opt.rs")));
        assert!(facade_rule_applies(Path::new("crates/aig/src/npn.rs")));
        assert!(!facade_rule_applies(Path::new("crates/aig/src/cut.rs")));
        assert!(!facade_rule_applies(Path::new("crates/core/src/lib.rs")));
    }

    #[test]
    fn facade_scope_includes_serve_but_not_its_signal_handler() {
        assert!(facade_rule_applies(Path::new("crates/serve/src/queue.rs")));
        assert!(facade_rule_applies(Path::new("crates/serve/src/server.rs")));
        assert!(facade_rule_applies(Path::new("crates/serve/src/fault.rs")));
        assert!(!facade_rule_applies(Path::new(
            "crates/serve/src/signal.rs"
        )));
        // Integration tests are out of scope; only src/ is facade-routed.
        assert!(!facade_rule_applies(Path::new(
            "crates/serve/tests/loom_queue.rs"
        )));
    }

    #[test]
    fn facade_scope_includes_the_suite_engine() {
        assert!(facade_rule_applies(Path::new("crates/suite/src/engine.rs")));
        assert!(facade_rule_applies(Path::new(
            "crates/suite/src/checkpoint.rs"
        )));
        assert!(facade_rule_applies(Path::new("crates/durable/src/lib.rs")));
        assert!(!facade_rule_applies(Path::new(
            "crates/suite/tests/sweep_resume.rs"
        )));
    }

    #[test]
    fn seeded_std_mutex_in_serve_queue_is_flagged() {
        let src = "use std::sync::Mutex;\nuse std::sync::{Arc, atomic::AtomicU64};\n";
        let findings = audit_facade("crates/serve/src/queue.rs", src);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings[0].contains("std::sync::Mutex"), "{findings:?}");
        assert!(findings[1].contains("atomic"), "{findings:?}");
    }

    #[test]
    fn seeded_brace_form_mutex_import_is_flagged() {
        let src = "use std::sync::{Arc, Mutex};\n";
        let findings = audit_facade("crates/core/src/compile.rs", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].contains("Mutex"), "{findings:?}");
        let src = "use std::sync::{atomic::{AtomicU64, Ordering}, OnceLock};\n";
        let findings = audit_facade("crates/aig/src/opt.rs", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].contains("atomic"), "{findings:?}");
    }

    #[test]
    fn brace_import_of_allowed_sync_items_is_not_flagged() {
        // Arc and OnceLock are not interleaving-sensitive; the facade does
        // not wrap them, so the real imports in compile.rs must stay legal.
        let src = "use std::sync::{Arc, OnceLock};\nuse loom::sync::Mutex;\nuse loom::sync::atomic::{AtomicU64, Ordering};\n";
        assert!(audit_facade("crates/core/src/compile.rs", src).is_empty());
        // `MutexGuard` must not word-match `Mutex`.
        let src = "use std::sync::{MutexGuardless};\n";
        assert!(audit_facade("x.rs", src).is_empty());
    }

    #[test]
    fn facade_mention_in_comment_is_not_flagged() {
        let src = "// wraps std::sync::Mutex when not model checking\n";
        assert!(audit_facade("vendor/rayon/src/sync.rs", src).is_empty());
    }
}

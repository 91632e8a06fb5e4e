//! One rule for simulated time. In the simulator's crates (`ctlm-sim`,
//! `ctlm-sched`, `ctlm-autoscale`) an instant is a `SimTime` and a span
//! a `SimDuration`, and `ctlm_sim::time` alone decides what a sum past
//! the end of the time axis means: it saturates there, "never". So
//! their non-test code may not
//!
//! 1. name `Micros`, the raw-integer time alias of `ctlm-trace`;
//! 2. call a `saturating_*`, `checked_*`, `wrapping_*` or
//!    `overflowing_*` method other than the two the time types offer
//!    (`saturating_add`, `saturating_mul`) — an integer guard written
//!    at one site is the per-site rule this replaces, and counts are
//!    written without them so the rule stays readable from the source;
//! 3. do arithmetic on a time taken apart: an `as_micros()` that feeds
//!    an operator or an overflow-handling method, or a `from_micros(…)`
//!    whose argument is a sum, difference, product or quotient.
//!
//! Converting at a boundary is fine — the kernel's queue, the config
//! and the recorded spans keep `u64` microseconds — as long as no
//! arithmetic happens on the way. The time types' own module is the
//! one file the rule does not read.

use std::path::{Path, PathBuf};

use ctlm_bench::source::non_test_lines;

/// The crates whose times are `SimTime`s, under `crates/`.
const CRATES: &[&str] = &["sim", "sched", "autoscale"];

/// The module that owns the time axis, where the integer arithmetic
/// behind the types lives.
const EXEMPT: &[&str] = &["crates/sim/src/time.rs"];

/// The overflow-handling methods the time types offer.
const TYPED: &[&str] = &["saturating_add", "saturating_mul"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every `.rs` file under `dir`, at any depth, sorted.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|e| e.expect("directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// The identifiers of `code` with their byte offsets.
fn idents(code: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut start = None;
    for (i, c) in code.char_indices().chain([(code.len(), ' ')]) {
        match (start, is_ident(c)) {
            (None, true) => start = Some(i),
            (Some(s), false) => {
                out.push((s, &code[s..i]));
                start = None;
            }
            _ => {}
        }
    }
    out
}

/// True when `s` begins with a binary arithmetic operator (`->` and
/// compound assignment aside).
fn starts_with_operator(s: &str) -> bool {
    let mut chars = s.chars();
    match (chars.next(), chars.next()) {
        (Some('-'), Some('>')) => false,
        (Some('+' | '-' | '*' | '/' | '%'), _) => true,
        _ => false,
    }
}

fn overflow_method(name: &str) -> bool {
    ["saturating_", "checked_", "wrapping_", "overflowing_"]
        .iter()
        .any(|p| name.starts_with(p))
}

/// The argument text of the call whose `(` starts `rest`, or all of it
/// when the call does not close on this line.
fn call_argument(rest: &str) -> &str {
    let mut depth = 0usize;
    for (i, c) in rest.char_indices() {
        match c {
            '(' => depth += 1,
            ')' if depth == 1 => return &rest[1..i],
            ')' => depth -= 1,
            _ => {}
        }
    }
    rest
}

/// Why one line of code breaks the rule, if it does.
fn violations(code: &str) -> Vec<String> {
    let mut found = Vec::new();
    for (at, word) in idents(code) {
        let rest = code[at + word.len()..].trim_start();
        if word == "Micros" {
            found.push("names `Micros`".to_string());
        } else if overflow_method(word) && !TYPED.contains(&word) {
            found.push(format!("calls `{word}`"));
        } else if word == "as_micros" && rest.starts_with("()") {
            let mut after = rest[2..].trim_start();
            if let Some(cast) = after.strip_prefix("as ") {
                after = cast.trim_start().trim_start_matches(is_ident).trim_start();
            }
            let method = after
                .strip_prefix('.')
                .is_some_and(|m| overflow_method(m.trim_start()));
            if starts_with_operator(after) || method {
                found.push("does arithmetic on `as_micros()`".to_string());
            }
        } else if word == "from_micros" && rest.starts_with('(') {
            let arg = call_argument(rest);
            if arg.contains(['+', '*', '/', '%']) || arg.contains('-') && !arg.contains("->") {
                found.push(format!("builds a time from `{arg}`"));
            }
        }
    }
    found
}

#[test]
fn simulated_time_has_one_rule() {
    let root = repo_root();
    let mut files = Vec::new();
    for name in CRATES {
        rust_files(&root.join("crates").join(name).join("src"), &mut files);
    }
    let exempt: Vec<PathBuf> = EXEMPT.iter().map(|f| root.join(f)).collect();
    for f in &exempt {
        assert!(files.contains(f), "{} is not a scanned file", f.display());
    }
    let mut broken = Vec::new();
    let mut lines = 0;
    for path in files.iter().filter(|p| !exempt.contains(p)) {
        let text = std::fs::read_to_string(path).expect("source readable");
        for line in non_test_lines(&text) {
            lines += 1;
            for why in violations(&line.code) {
                let shown = path.strip_prefix(&root).unwrap_or(path).display();
                broken.push(format!(
                    "{shown}:{}: {why}: {}",
                    line.number,
                    line.text.trim()
                ));
            }
        }
    }
    assert!(lines > 5_000, "only {lines} lines scanned");
    assert!(
        broken.is_empty(),
        "time arithmetic outside `ctlm_sim::time`:\n{}",
        broken.join("\n")
    );
}

#[test]
fn the_rule_reads_what_it_should() {
    let bad = [
        "let t: Micros = 0;",
        "SimTime::from_micros(self.now.as_micros() + delay.as_micros())",
        "let end = now.as_micros() as u128 * span;",
        "horizon.as_micros().saturating_sub(1)",
        "now.checked_add(period)",
        "window.1.saturating_sub(window.0)",
        "SimDuration::from_micros(2 * cycle)",
    ];
    for code in bad {
        assert!(!violations(code).is_empty(), "missed: {code}");
    }
    let good = [
        "let at = self.now.saturating_add(delay);",
        "self.base.saturating_mul(1u64 << shift).min(cap)",
        "self.queue.push(time.as_micros(), priority, src, dst, payload);",
        "latency: now.since(t.arrival).as_micros(),",
        "SimTime::from_micros(kth_time(what, start, k, period)?)",
        "SimDuration::from_micros_f64(-u.ln() * mean)",
        "MicrosecondClock::new()",
    ];
    for code in good {
        assert_eq!(violations(code), Vec::<String>::new(), "flagged: {code}");
    }
}

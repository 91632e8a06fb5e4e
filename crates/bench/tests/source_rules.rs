//! The architecture's rules about source code, each checked over the
//! workspace's non-test lines as `ctlm_bench::source` reads them
//! (comments, literals and `#[cfg(test)]` items aside), and each with a
//! self-test on lines it must and must not flag.
//!
//! * **`unsafe` is allow-listed.** Every `unsafe` under `crates/*/src`
//!   and `shims/*/src` is one of the constructs [`UNSAFE_ALLOWED`]
//!   names, in the file it names: a new `unsafe` fails until it is
//!   listed here with its reason, and a listed construct that is gone
//!   fails until its entry goes too. In particular no `unsafe impl
//!   Send` is listed: a simulation shard is `Send` because the compiler
//!   derives it.
//! * **Simulated time has one rule.** In the simulator's crates
//!   (`ctlm-sim`, `ctlm-sched`, `ctlm-autoscale`) an instant is a
//!   `SimTime` and a span a `SimDuration`, and `ctlm_sim::time` alone
//!   decides what a sum past the end of the time axis means: it
//!   saturates there, "never". So their non-test code may not
//!
//!   1. name `Micros`, the raw-integer time alias of `ctlm-trace`;
//!   2. call a `saturating_*`, `checked_*`, `wrapping_*` or
//!      `overflowing_*` method other than the two the time types offer
//!      (`saturating_add`, `saturating_mul`) — an integer guard written
//!      at one site is the per-site rule this replaces, and counts are
//!      written without them so the rule stays readable from the source;
//!   3. do arithmetic on a time taken apart: an `as_micros()` that feeds
//!      an operator or an overflow-handling method, or a `from_micros(…)`
//!      whose argument is a sum, difference, product or quotient.
//!
//!   Converting at a boundary is fine — the kernel's queue, the config
//!   and the recorded spans keep `u64` microseconds — as long as no
//!   arithmetic happens on the way. The time types' own module is the
//!   one file the rule does not read.
//! * **Only the thread pool starts threads.** No non-test code under
//!   `crates/*/src` or `shims/*/src` outside the rayon shim names
//!   `thread::spawn`, `thread::scope` or `thread::Builder`, or imports
//!   one of them: a simulation runs on its own clock, and the pool is the
//!   one place that decides how many OS threads a run uses. Reading
//!   `thread::available_parallelism` starts none and is fine.

use std::path::{Path, PathBuf};

use ctlm_bench::source::{non_test_lines, rust_files};

/// The `unsafe` the non-test code may hold: the file, and the code from
/// the `unsafe` keyword on, far enough to tell the construct apart. Each
/// entry matches exactly one line.
const UNSAFE_ALLOWED: &[(&str, &str)] = &[
    // `dispatch!` calls a kernel's AVX2 build once the CPU reported
    // AVX2.
    ("crates/tensor/src/ops.rs", "unsafe { avx2::$body("),
    // The counting allocator `ctlm-lab` installs: `GlobalAlloc` is an
    // unsafe trait, and its methods are unsafe to implement.
    (
        "crates/lab/src/memtrack.rs",
        "unsafe impl GlobalAlloc for TrackingAlloc {",
    ),
    ("crates/lab/src/memtrack.rs", "unsafe fn alloc("),
    ("crates/lab/src/memtrack.rs", "unsafe fn dealloc("),
    ("crates/lab/src/memtrack.rs", "unsafe fn realloc("),
    // The worker pool erases a job's lifetime; the scope's latch keeps
    // every borrow alive until the job has run.
    (
        "shims/rayon/src/pool.rs",
        "unsafe { std::mem::transmute::<Job<",
    ),
];

/// The crates whose times are `SimTime`s, under `crates/`.
const TIME_CRATES: &[&str] = &["sim", "sched", "autoscale"];

/// The module that owns the time axis, where the integer arithmetic
/// behind the types lives.
const TIME_EXEMPT: &str = "crates/sim/src/time.rs";

/// The overflow-handling methods the time types offer.
const TYPED: &[&str] = &["saturating_add", "saturating_mul"];

/// What `std::thread` starts an OS thread with.
const THREAD_STARTS: &[&str] = &["spawn", "scope", "Builder"];

/// The package whose non-test code may start threads.
const THREAD_POOL: &str = "shims/rayon/";

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every `.rs` file under `crates/*/src` and `shims/*/src`, as its path
/// from the repository root and its text.
fn workspace_sources() -> Vec<(String, String)> {
    let root = repo_root();
    let mut sources = Vec::new();
    for parent in ["crates", "shims"] {
        let parent = root.join(parent);
        let mut dirs: Vec<PathBuf> = std::fs::read_dir(&parent)
            .unwrap_or_else(|e| panic!("read {}: {e}", parent.display()))
            .map(|e| e.expect("directory entry").path().join("src"))
            .filter(|src| src.is_dir())
            .collect();
        dirs.sort();
        for src in dirs {
            for path in rust_files(&src).expect("source directory readable") {
                let file = path.strip_prefix(&root).unwrap_or(&path);
                let text = std::fs::read_to_string(&path).expect("source readable");
                sources.push((file.to_string_lossy().into_owned(), text));
            }
        }
    }
    assert!(sources.len() > 100, "only {} files scanned", sources.len());
    sources
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

/// Each `unsafe` keyword of one line's code, as the code from the
/// keyword on with its whitespace runs collapsed to one space.
fn unsafe_constructs(code: &str) -> Vec<String> {
    let mut found = Vec::new();
    for (at, _) in code.match_indices("unsafe") {
        let before = code[..at].chars().next_back();
        let after = code[at + "unsafe".len()..].chars().next();
        if before.is_some_and(is_ident) || after.is_some_and(is_ident) {
            continue;
        }
        found.push(code[at..].split_whitespace().collect::<Vec<_>>().join(" "));
    }
    found
}

/// The allow-list entry a construct in `file` matches, if any.
fn allowed(file: &str, construct: &str) -> Option<usize> {
    UNSAFE_ALLOWED
        .iter()
        .position(|&(f, prefix)| f == file && construct.starts_with(prefix))
}

/// `file:line: construct` for each `unsafe` in `source`'s non-test
/// lines that the allow-list does not name; `uses` counts the entries
/// the others matched.
fn unlisted_unsafe(file: &str, source: &str, uses: &mut [usize]) -> Vec<String> {
    let mut unlisted = Vec::new();
    for line in non_test_lines(source) {
        for construct in unsafe_constructs(&line.code) {
            match allowed(file, &construct) {
                Some(entry) => uses[entry] += 1,
                None => unlisted.push(format!("{file}:{}: {}", line.number, line.text.trim())),
            }
        }
    }
    unlisted
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

/// Why one line of code breaks the time rule, if it does.
fn time_violations(code: &str) -> Vec<String> {
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

/// True when one line of code names a thread starter by a `thread::`
/// path, or imports one in a `thread::{…}` group.
fn starts_a_thread(code: &str) -> bool {
    code.match_indices("thread").any(|(at, _)| {
        if code[..at].chars().next_back().is_some_and(is_ident) {
            return false;
        }
        let Some(path) = code[at + "thread".len()..].trim_start().strip_prefix("::") else {
            return false;
        };
        let path = path.trim_start();
        let names = match path.strip_prefix('{') {
            Some(group) => idents(group.split('}').next().unwrap_or(group)),
            None => idents(path).into_iter().take(1).collect(),
        };
        names.iter().any(|(_, name)| THREAD_STARTS.contains(name))
    })
}

/// `file:line: text` for each non-test line of `source` that starts a
/// thread, unless `file` belongs to the thread pool.
fn thread_starts(file: &str, source: &str) -> Vec<String> {
    if file.starts_with(THREAD_POOL) {
        return Vec::new();
    }
    non_test_lines(source)
        .iter()
        .filter(|line| starts_a_thread(&line.code))
        .map(|line| format!("{file}:{}: {}", line.number, line.text.trim()))
        .collect()
}

#[test]
fn unsafe_is_only_what_the_allow_list_names() {
    let mut uses = vec![0; UNSAFE_ALLOWED.len()];
    let mut unlisted = Vec::new();
    for (file, text) in workspace_sources() {
        unlisted.extend(unlisted_unsafe(&file, &text, &mut uses));
    }
    assert!(
        unlisted.is_empty(),
        "`unsafe` the allow-list does not name:\n{}",
        unlisted.join("\n")
    );
    let miscounted: Vec<String> = UNSAFE_ALLOWED
        .iter()
        .zip(&uses)
        .filter(|&(_, &n)| n != 1)
        .map(|(&(file, construct), n)| format!("{file}: `{construct}` matched {n} lines"))
        .collect();
    assert!(
        miscounted.is_empty(),
        "each allow-list entry names one line:\n{}",
        miscounted.join("\n")
    );
}

#[test]
fn the_unsafe_rule_reads_what_it_should() {
    let mut uses = vec![0; UNSAFE_ALLOWED.len()];
    let bad = [
        (
            "crates/sim/src/parallel.rs",
            "unsafe impl<E: Send> Send for CellKernel<'_, E> {}",
        ),
        ("crates/sched/src/engine.rs", "let v = unsafe { *ptr };"),
        // An allowed construct outside the file it is allowed in.
        (
            "crates/sim/src/kernel.rs",
            "unsafe impl GlobalAlloc for TrackingAlloc {",
        ),
        (
            "crates/tensor/src/ops.rs",
            "pub unsafe fn raw(p: *const f32) {}",
        ),
    ];
    for (file, code) in bad {
        let found = unlisted_unsafe(file, code, &mut uses);
        assert_eq!(found.len(), 1, "missed in {file}: {code}");
    }
    let good = [
        (
            "crates/tensor/src/ops.rs",
            "    unsafe { avx2::$body($($arg),*) }",
        ),
        (
            "shims/rayon/src/pool.rs",
            "let job: StaticJob = unsafe { std::mem::transmute::<Job<'_>, StaticJob>(job) };",
        ),
        ("crates/sim/src/kernel.rs", "// no `unsafe` block here"),
        ("crates/sim/src/kernel.rs", r#"let s = "unsafe { }";"#),
        (
            "crates/sim/src/kernel.rs",
            "let not_unsafe_at_all = unsafe_count + 1;",
        ),
        (
            "crates/sim/src/kernel.rs",
            "#[cfg(test)]\nmod tests {\n    unsafe impl Sync for Probe {}\n}",
        ),
    ];
    for (file, code) in good {
        let found = unlisted_unsafe(file, code, &mut uses);
        assert_eq!(found, Vec::<String>::new(), "flagged in {file}: {code}");
    }
}

#[test]
fn simulated_time_has_one_rule() {
    let scanned: Vec<(String, String)> = workspace_sources()
        .into_iter()
        .filter(|(file, _)| {
            TIME_CRATES
                .iter()
                .any(|name| file.starts_with(&format!("crates/{name}/src/")))
        })
        .collect();
    assert!(
        scanned.iter().any(|(file, _)| file == TIME_EXEMPT),
        "{TIME_EXEMPT} is not a scanned file"
    );
    let mut broken = Vec::new();
    let mut lines = 0;
    for (file, text) in scanned.iter().filter(|(file, _)| file != TIME_EXEMPT) {
        for line in non_test_lines(text) {
            lines += 1;
            for why in time_violations(&line.code) {
                broken.push(format!(
                    "{file}:{}: {why}: {}",
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
fn the_time_rule_reads_what_it_should() {
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
        assert!(!time_violations(code).is_empty(), "missed: {code}");
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
        assert_eq!(
            time_violations(code),
            Vec::<String>::new(),
            "flagged: {code}"
        );
    }
}

#[test]
fn only_the_thread_pool_starts_threads() {
    let mut found = Vec::new();
    let mut pool_starts = 0;
    for (file, text) in workspace_sources() {
        found.extend(thread_starts(&file, &text));
        if file.starts_with(THREAD_POOL) {
            pool_starts += thread_starts("", &text).len();
        }
    }
    // The exemption is not vacuous: the pool itself is read and flagged.
    assert!(
        pool_starts > 0,
        "the rule finds no thread start in the pool"
    );
    assert!(
        found.is_empty(),
        "OS threads started outside the thread pool:\n{}",
        found.join("\n")
    );
}

#[test]
fn the_thread_rule_reads_what_it_should() {
    let bad = [
        (
            "crates/sched/src/engine.rs",
            "std::thread::spawn(move || retrain(model));",
        ),
        (
            "crates/lab/src/run.rs",
            "let handle = thread::Builder::new().spawn(job)?;",
        ),
        (
            "crates/sim/src/parallel.rs",
            "std::thread::scope(|s| shards.iter_mut().for_each(|c| { s.spawn(|| c.run()); }));",
        ),
        (
            "crates/core/src/trainer.rs",
            "use std::thread::{self, spawn};",
        ),
        (
            "crates/telemetry/src/host.rs",
            "use std :: thread :: Builder;",
        ),
        // The pool's construct outside the pool.
        ("shims/criterion/src/lib.rs", "std::thread::Builder::new()"),
    ];
    for (file, code) in bad {
        assert_eq!(
            thread_starts(file, code).len(),
            1,
            "missed in {file}: {code}"
        );
    }
    let good = [
        ("shims/rayon/src/pool.rs", "std::thread::Builder::new()"),
        (
            "crates/telemetry/src/host.rs",
            "let cores = std::thread::available_parallelism()",
        ),
        (
            "crates/lab/src/run.rs",
            "std::thread::sleep(Duration::from_millis(20));",
        ),
        ("crates/sched/src/engine.rs", "// no thread::spawn here"),
        ("crates/sched/src/engine.rs", r#"let s = "thread::spawn";"#),
        (
            "crates/sched/src/engine.rs",
            "rayon::scope(|s| s.spawn(|_| job()));",
        ),
        (
            "crates/sched/src/engine.rs",
            "let spawn = my_thread::spawn_count();",
        ),
        (
            "crates/sched/src/engine.rs",
            "use std::thread::{self, available_parallelism};",
        ),
        (
            "crates/sim/src/kernel.rs",
            "#[cfg(test)]\nmod tests {\n    fn f() { std::thread::spawn(|| ()); }\n}",
        ),
    ];
    for (file, code) in good {
        assert_eq!(
            thread_starts(file, code),
            Vec::<String>::new(),
            "flagged in {file}: {code}"
        );
    }
}

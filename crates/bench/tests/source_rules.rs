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

use std::path::{Path, PathBuf};

use ctlm_bench::source::non_test_lines;

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

/// The `src` directories of every package under `parent`.
fn package_sources(parent: &Path) -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(parent)
        .unwrap_or_else(|e| panic!("read {}: {e}", parent.display()))
        .map(|e| e.expect("directory entry").path().join("src"))
        .filter(|src| src.is_dir())
        .collect();
    dirs.sort();
    dirs
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
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

#[test]
fn unsafe_is_only_what_the_allow_list_names() {
    let root = repo_root();
    let mut files = Vec::new();
    for parent in ["crates", "shims"] {
        for src in package_sources(&root.join(parent)) {
            rust_files(&src, &mut files);
        }
    }
    assert!(files.len() > 100, "only {} files scanned", files.len());
    let mut uses = vec![0; UNSAFE_ALLOWED.len()];
    let mut unlisted = Vec::new();
    for path in &files {
        let file = path.strip_prefix(&root).unwrap_or(path).to_string_lossy();
        let text = std::fs::read_to_string(path).expect("source readable");
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

//! Source size by crate: the non-blank lines of every `.rs` file under
//! each `crates/<name>/src`, less the test code compiled into them.
//!
//! ```text
//! cargo run --release -p ctlm-bench --bin source_lines [-- <repo root>]
//! ```
//!
//! Test code is what [`ctlm_bench::source`] says it is: the items marked
//! `#[cfg(test)]`. Integration tests, benches and examples live outside
//! `src` and are not counted at all. Prints one `<lines> <crate>` row per crate,
//! then the total; the root defaults to the current directory. An
//! unreadable root is one `error:` line and exit code 2. A reader that
//! stops early (`source_lines | head -1`) ends the run quietly, with
//! exit code 0.

use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};

use ctlm_bench::args::{usage_error, ParsedArgs};
use ctlm_bench::source::{count_non_test_lines, rust_files};

fn main() {
    let parsed = ParsedArgs::from_env(&[], &[]);
    let root = match parsed.positionals() {
        [] => PathBuf::from("."),
        [root] => PathBuf::from(root),
        _ => usage_error("usage: source_lines [<repo root>]"),
    };
    let crates = root.join("crates");
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(&crates)
        .unwrap_or_else(|e| usage_error(&format!("cannot read {}: {e}", crates.display())))
        .map(|entry| entry.expect("directory entry").path().join("src"))
        .filter(|src| src.is_dir())
        .collect();
    dirs.sort();
    match print_counts(&dirs) {
        Err(e) if e.kind() == ErrorKind::BrokenPipe => {}
        result => result.expect("stdout writable"),
    }
}

/// Prints each crate's row, then the total.
fn print_counts(dirs: &[PathBuf]) -> std::io::Result<()> {
    let mut out = std::io::stdout().lock();
    let mut total = 0;
    for src in dirs {
        let lines: usize = rust_files(src)
            .expect("source directory readable")
            .iter()
            .map(|f| count_non_test_lines(&std::fs::read_to_string(f).expect("source readable")))
            .sum();
        let name = src.parent().and_then(Path::file_name).expect("crate dir");
        writeln!(out, "{lines:>7} {}", name.to_string_lossy())?;
        total += lines;
    }
    writeln!(out, "{total:>7} total")?;
    out.flush()
}

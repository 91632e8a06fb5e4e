//! The bench tools' exit codes, end to end: `bench_check` exits 0 when
//! every ratio holds and 1 when one exceeds its limit; a bad command
//! line or an unusable report is one `error:` line and exit code 2,
//! never a panic; `source_lines` into a pipe whose reader is gone exits
//! 0, quietly.

use std::path::Path;
use std::process::Command;

#[test]
fn bench_binaries_exit_with_their_documented_codes() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let report = dir.join("bench_report.json");
    std::fs::write(
        &report,
        r#"{"g/fast": {"median_ns": 25.0}, "g/slow": {"median_ns": 100.0}}"#,
    )
    .expect("scratch report");
    // Valid JSON, but no bench report: it lacks every id asked for.
    let not_a_report = dir.join("not_a_report.json");
    std::fs::write(&not_a_report, r#"{"name": "spec"}"#).expect("scratch file");
    let (report, not_a_report) = (report.to_str().unwrap(), not_a_report.to_str().unwrap());
    let bench_check = env!("CARGO_BIN_EXE_bench_check");
    let max = "--max-ratio";
    for (args, code) in [
        (&[report, max, "g/fast:g/slow=0.3"][..], 0),
        (&[report, max, "g/slow:g/fast=3"], 1),
        (&["/nonexistent.json", max, "a:b=1"], 2),
        (&[not_a_report, max, "a:b=1"], 2),
        (&[report, max, "g/fast:g/slow=abc"], 2),
        (&[report], 2),
    ] {
        let out = Command::new(bench_check)
            .args(args)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        let errors = stderr.lines().filter(|l| l.starts_with("error:")).count();
        assert_eq!(errors, usize::from(code == 2), "{args:?}: {stderr}");
    }
}

#[test]
fn source_lines_into_a_closed_pipe_ends_quietly() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    // The reader is gone before the first row is written, as after
    // `source_lines | head -1` has read its line.
    drop(reader);
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = Command::new(env!("CARGO_BIN_EXE_source_lines"))
        .arg(root)
        .stdout(writer)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
}

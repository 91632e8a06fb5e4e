//! The `ctlm-lab` command line, end to end through the binary. A bad
//! command line or an unusable input is one `error:` line and exit code
//! 2, never a panic and never a hang; `--diff` gates with exit code 1;
//! everything else exits 0.
//!
//! Specs the runner must reject or survive are data, not code: each
//! `experiments/regressions/<name>.json` is replayed here. When
//! `<name>.stderr` sits beside it, that file is the exact stderr
//! expected with exit code 2; otherwise the spec must run to exit 0
//! with nothing on stderr. Adding a file adds a case.

mod common;

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use ctlm_lab::report::to_pretty_json;

/// Runs `ctlm-lab` to completion. A rejected input returns at once; a
/// minute means the run went ahead and is spinning at one instant.
fn ctlm_lab(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ctlm-lab"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("ctlm-lab runs");
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("ctlm-lab polls").is_none() {
        if Instant::now() > deadline {
            child.kill().expect("ctlm-lab stops");
            panic!("{args:?}: no exit within the wall-clock limit");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("ctlm-lab exits")
}

/// Writes a file under the test's scratch directory.
fn scratch(name: &str, text: &str) -> PathBuf {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).expect("scratch file");
    path
}

fn utf8(path: &Path) -> &str {
    path.to_str().expect("utf-8 path")
}

#[test]
fn every_regression_spec_exits_as_recorded() {
    let dir = common::experiments_dir().join("regressions");
    for stderr in common::files(&dir, "stderr") {
        assert!(
            stderr.with_extension("json").is_file(),
            "{} has no spec beside it",
            stderr.display()
        );
    }
    for spec in common::files(&dir, "json") {
        let out = ctlm_lab(&[utf8(&spec), "--no-meta"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let expected = spec.with_extension("stderr");
        if expected.is_file() {
            let expected = std::fs::read_to_string(&expected).expect("expected stderr");
            // A rejection is one `error:` line, never a recorded panic.
            assert!(expected.starts_with("error: "), "{expected}");
            assert_eq!(expected.lines().count(), 1, "{expected}");
            assert_eq!(out.status.code(), Some(2), "{}: {stderr}", spec.display());
            assert_eq!(stderr, expected, "{}", spec.display());
        } else {
            assert_eq!(out.status.code(), Some(0), "{}: {stderr}", spec.display());
            assert!(stderr.is_empty(), "{}: {stderr}", spec.display());
        }
    }
}

/// A command line that names no spec prints the synopsis at the top of
/// `main.rs` — every form and option, not a subset.
#[test]
fn a_bad_command_line_prints_the_whole_synopsis() {
    let main = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("src/main.rs"))
        .expect("main.rs");
    let synopsis: Vec<&str> = main
        .lines()
        .skip_while(|l| *l != "//! ```text")
        .skip(1)
        .take_while(|l| *l != "//! ```")
        .map(|l| l.trim_start_matches("//! "))
        .collect();
    assert_eq!(synopsis.len(), 5, "{synopsis:?}");
    for args in [&[][..], &["a.json", "b.json"]] {
        let out = ctlm_lab(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let printed: Vec<&str> = stderr
            .lines()
            .enumerate()
            .map(|(i, l)| match i {
                0 => l.strip_prefix("error: usage: ").unwrap_or(l),
                _ => l.strip_prefix(&" ".repeat(14)).unwrap_or(l),
            })
            .collect();
        assert_eq!(printed, synopsis, "{args:?}: {stderr}");
    }
}

/// One command line: its arguments, its exit code, its exact stdout
/// (where that is the point) and what its stderr must contain.
type Case<'a> = (&'a [&'a str], i32, Option<&'a str>, &'a [&'a str]);

/// A file a rejected command line names: absent before the run, and
/// checked absent after it.
fn absent(name: &str) -> PathBuf {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn command_lines_exit_with_their_documented_codes() {
    let spec = common::experiments_dir().join("streaming_smoke.json");
    // Spelled in two halves so a grep for the retired flag stays empty:
    // which cells stream is the code's decision, not the user's.
    let retired = concat!("--", "materialised");
    // A recording with no spans: each view says so on a line of its own.
    let no_spans = scratch(
        "no_spans.json",
        &format!(
            r#"{{"schema_version": {}, "traceEvents": []}}"#,
            ctlm_telemetry::SCHEMA_VERSION
        ),
    );
    // A report, and the same report one unplaced task worse.
    let mut report = ctlm_lab::run_spec(&common::load(&spec)).expect("spec runs");
    let report_a = scratch("report_a.json", &to_pretty_json(&report));
    report.summary[0].median_unplaced += 1.0;
    let worse = scratch("report_worse.json", &to_pretty_json(&report));
    // What the rejected command lines below would write.
    let unwritten = [
        absent("unwritten_out.json"),
        absent("unwritten_metrics.json"),
        absent("unwritten_spans.json"),
    ];

    let (spec, no_spans, report_a, worse) =
        (utf8(&spec), utf8(&no_spans), utf8(&report_a), utf8(&worse));
    let [out, metrics, spans] = unwritten.each_ref().map(|p| utf8(p));
    let t05 = "table05_compaction";
    let cases: [Case; 8] = [
        (&[spec, retired], 2, None, &["unknown argument", retired]),
        (&["/nonexistent/spec.json"], 2, None, &["cannot read spec"]),
        (&[spec, "--seed", "x"], 2, None, &["--seed needs a number"]),
        (&["--diff", report_a], 2, None, &["usage: ctlm-lab --diff"]),
        (
            &["explain", no_spans, "stray"],
            2,
            None,
            &["usage: ctlm-lab explain"],
        ),
        (
            &["explain", no_spans, "--task", "1", "--machine", "2"],
            0,
            Some("task 1: no spans recorded\nmachine 2: no spans recorded\n"),
            &[],
        ),
        (&["--diff", report_a, report_a], 0, None, &[]),
        (
            &["--diff", report_a, worse],
            1,
            None,
            &["1 regression(s) beyond tolerance 0", "unplaced"],
        ),
    ];
    // Each form rejects the options of the others, naming them, and
    // writes nothing; the subcommand word comes first.
    let foreign: [(&[&str], &str); 17] = [
        (&[spec, "--task", "3"], "--task"),
        (&[spec, "--worst-latency", "2"], "--worst-latency"),
        (&[spec, "--tolerance", "0.5"], "--tolerance"),
        (&[spec, "--full", "--out", out], "--full"),
        (&["--diff", report_a, report_a, "--seed", "9"], "--seed"),
        (
            &["--diff", report_a, report_a, "--metrics", metrics],
            "--metrics",
        ),
        (&["--diff", report_a, report_a, "--spans", spans], "--spans"),
        (&["explain", no_spans, "--out", out], "--out"),
        (&["explain", no_spans, "--metrics", metrics], "--metrics"),
        (&["explain", no_spans, "--json"], "--json"),
        (&["paper", t05, "--metrics", metrics], "--metrics"),
        (&["paper", t05, "--threads", "4"], "--threads"),
        (&["paper", t05, "--no-meta", "--trace"], "--trace"),
        (&["paper", t05, "--json", "--out", out], "--json"),
        (&["paper", t05, "--spans", spans], "--spans"),
        (&["--seed", "3", "paper", t05], "--seed"),
        (&["--out", out, "paper", t05], "--out"),
    ];
    let check = |args: &[&str], code: i32, stdout: Option<&str>, needles: &[&str]| {
        let out = ctlm_lab(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
        if let Some(expected) = stdout {
            assert_eq!(String::from_utf8_lossy(&out.stdout), expected, "{args:?}");
        }
        match code {
            0 => assert!(stderr.is_empty(), "{args:?}: {stderr}"),
            2 => {
                assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
                assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
                assert!(out.stdout.is_empty(), "{args:?}");
            }
            _ => {}
        }
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        for needle in needles {
            assert!(stderr.contains(needle), "{args:?}: {stderr}");
        }
    };
    for (args, code, stdout, needles) in cases {
        check(args, code, stdout, needles);
    }
    for (args, option) in foreign {
        check(args, 2, None, &[option]);
    }
    for path in unwritten {
        assert!(!path.exists(), "{} written", path.display());
    }
}

/// `paper` with no name, an unknown name or a stray positional is one
/// `error:` line naming every experiment; a known name prints its
/// document, which at the defaults with `--no-meta` is its golden.
#[test]
fn paper_exits_with_its_documented_codes() {
    for args in [
        &["paper"][..],
        &["paper", "table99"],
        &["paper", "table06_co_el", "stray"],
    ] {
        let out = ctlm_lab(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        for (name, _) in ctlm_lab::paper::EXPERIMENTS {
            assert!(stderr.contains(name), "{args:?}: {stderr}");
        }
    }
    let out = ctlm_lab(&["paper", "table05_compaction", "--no-meta"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
    let golden = common::experiments_dir().join("golden/paper/table05_compaction.json");
    let golden = std::fs::read_to_string(golden).expect("the golden");
    assert_eq!(String::from_utf8_lossy(&out.stdout), golden);
}

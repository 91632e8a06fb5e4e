//! Every accepted spec under `experiments/` — the top-level specs and
//! each regression spec the runner must survive (one without a
//! `.stderr`), `scale/` aside — pinned byte for byte across commits.
//!
//! Each spec runs in process the way `ctlm-lab <spec> --no-meta
//! --metrics m.json --spans s.json` runs it, at threads 1 and 4, and the
//! result must equal `experiments/golden/<spec>.json`: the report and
//! the metrics document in full, and the spans document (as
//! `to_pretty_json` renders it; the CLI's file adds one newline) by its
//! byte length and FNV-1a 64-bit digest.
//!
//! On a mismatch the test names the first differing JSON path, writes
//! the new golden under the target directory and prints the `cp` line
//! that re-records it. A change that means to move simulated results
//! re-records and says why; any other change must leave every golden
//! as it is.

mod common;

use std::path::{Path, PathBuf};

use ctlm_lab::flight::trace_document;
use ctlm_lab::report::to_pretty_json;
use ctlm_lab::run::ArrivalMode;
use ctlm_lab::run_spec_observed;
use serde_json::Value;

/// The thread counts every golden is checked at.
const THREADS: [usize; 2] = [1, 4];

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn golden_dir() -> PathBuf {
    let experiments = common::experiments_dir().canonicalize();
    experiments.expect("experiments/ exists").join("golden")
}

/// The accepted specs: `experiments/*.json` and the regression specs
/// with no expected `.stderr`.
fn accepted_specs() -> Vec<PathBuf> {
    let regressions = common::files(&common::experiments_dir().join("regressions"), "json");
    let mut specs = common::files(&common::experiments_dir(), "json");
    specs.extend(
        regressions
            .into_iter()
            .filter(|p| !p.with_extension("stderr").is_file()),
    );
    specs
}

fn stem(path: &Path) -> String {
    path.file_stem()
        .expect("a spec file has a name")
        .to_string_lossy()
        .into_owned()
}

/// The golden document of one run of `path` at `threads`, rendered.
fn document(path: &Path, threads: usize) -> String {
    let mut spec = common::load(path);
    spec.execution.threads = threads;
    spec.observability.metrics = true;
    spec.observability.spans = true;
    let (report, obs) = run_spec_observed(&spec, ArrivalMode::Streaming)
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let spans = to_pretty_json(&trace_document(&obs, false));
    let doc = Value::Object(vec![
        ("report".into(), serde::Serialize::to_value(&report)),
        ("metrics".into(), obs.metrics_document()),
        (
            "spans".into(),
            Value::Object(vec![
                ("bytes".into(), Value::Num(spans.len() as f64)),
                (
                    "fnv1a64".into(),
                    Value::Str(format!("{:016x}", fnv1a64(spans.as_bytes()))),
                ),
            ]),
        ),
    ]);
    to_pretty_json(&doc) + "\n"
}

/// The first place `a` and `b` differ, as a JSON path below `path`.
fn first_difference(a: &Value, b: &Value, path: &str) -> Option<String> {
    match (a, b) {
        (Value::Object(fa), Value::Object(fb)) => {
            for i in 0..fa.len().max(fb.len()) {
                match (fa.get(i), fb.get(i)) {
                    (Some((ka, va)), Some((kb, vb))) if ka == kb => {
                        if let Some(at) = first_difference(va, vb, &format!("{path}.{ka}")) {
                            return Some(at);
                        }
                    }
                    (Some((k, _)), _) | (None, Some((k, _))) => return Some(format!("{path}.{k}")),
                    (None, None) => unreachable!("i is below one of the lengths"),
                }
            }
            None
        }
        (Value::Array(xa), Value::Array(xb)) => {
            for (i, (va, vb)) in xa.iter().zip(xb).enumerate() {
                if let Some(at) = first_difference(va, vb, &format!("{path}[{i}]")) {
                    return Some(at);
                }
            }
            (xa.len() != xb.len()).then(|| format!("{path}[{}]", xa.len().min(xb.len())))
        }
        _ => (a != b).then(|| path.to_string()),
    }
}

#[test]
fn every_accepted_spec_matches_its_golden() {
    let fresh_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden");
    let mut failures = Vec::new();
    for path in accepted_specs() {
        let name = stem(&path);
        let golden_path = golden_dir().join(format!("{name}.json"));
        let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
        for threads in THREADS {
            let fresh = document(&path, threads);
            if fresh == golden {
                continue;
            }
            let at = match serde_json::parse_value(&golden) {
                Ok(old) => {
                    let new = serde_json::parse_value(&fresh).expect("a rendered document parses");
                    first_difference(&old, &new, "$").unwrap_or_else(|| "$ (layout only)".into())
                }
                Err(_) => "$ (no readable golden)".into(),
            };
            std::fs::create_dir_all(&fresh_dir).expect("create the fresh golden directory");
            let fresh_path = fresh_dir.join(format!("{name}.json"));
            std::fs::write(&fresh_path, &fresh).expect("write the fresh golden");
            failures.push(format!(
                "{name} at threads {threads}: first difference at {at}\n  \
                 re-record: cp {} {}",
                fresh_path.display(),
                golden_path.display()
            ));
            break;
        }
    }
    assert!(
        failures.is_empty(),
        "goldens moved:\n{}",
        failures.join("\n")
    );
}

/// A golden whose spec is gone (renamed, or now rejected) pins nothing.
#[test]
fn every_golden_belongs_to_an_accepted_spec() {
    let specs: Vec<String> = accepted_specs().iter().map(|p| stem(p)).collect();
    for golden in common::files(&golden_dir(), "json") {
        let name = stem(&golden);
        assert!(
            specs.contains(&name),
            "{} has no accepted spec",
            golden.display()
        );
    }
}

#[test]
fn first_difference_names_the_path() {
    let parse = |s: &str| serde_json::parse_value(s).expect("test JSON parses");
    let a = parse(r#"{"runs": [{"unplaced": 1, "placed": [3, 4]}], "name": "x"}"#);
    for (b, expected) in [
        (
            r#"{"runs": [{"unplaced": 1, "placed": [3, 4]}], "name": "x"}"#,
            None,
        ),
        (
            r#"{"runs": [{"unplaced": 2, "placed": [3, 4]}], "name": "x"}"#,
            Some("$.runs[0].unplaced"),
        ),
        (
            r#"{"runs": [{"unplaced": 1, "placed": [3]}], "name": "x"}"#,
            Some("$.runs[0].placed[1]"),
        ),
        (
            r#"{"runs": [{"unplaced": 1, "placed": [3, 4]}]}"#,
            Some("$.name"),
        ),
        (r#"[]"#, Some("$")),
    ] {
        assert_eq!(
            first_difference(&a, &parse(b), "$").as_deref(),
            expected,
            "{b}"
        );
    }
}

#[test]
fn fnv1a64_matches_the_published_vectors() {
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
}

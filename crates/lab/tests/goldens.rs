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
//! The paper's evaluation section is pinned the same way: each
//! `ctlm-lab paper <name> --no-meta` document at seed 42 and the
//! default scale must equal `experiments/golden/paper/<name>.json`.
//! Table X and the two ablations train for 20 s to minutes at the
//! suite's opt-level, so they are ignored here and CI runs them in release
//! (`cargo test --release -p ctlm-lab --test goldens --
//! --include-ignored`).
//!
//! On a mismatch the test names the first differing JSON path, writes
//! the new golden under the target directory and prints the `cp` line
//! that re-records it. A change that means to move simulated results
//! or the paper's numbers re-records and says why; any other change
//! must leave every golden as it is.

mod common;

use std::path::{Path, PathBuf};

use ctlm_lab::flight::trace_document;
use ctlm_lab::paper::{self, PaperRun, EXPERIMENTS};
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

/// Compares a fresh rendering with the golden at `golden_path`. On a
/// mismatch, writes the fresh file under the target directory and
/// returns the failure: where the two first differ, and the `cp` line
/// that re-records it.
fn mismatch(label: &str, golden_path: &Path, fresh: &str) -> Option<String> {
    let golden = std::fs::read_to_string(golden_path).unwrap_or_default();
    if fresh == golden {
        return None;
    }
    let at = match serde_json::parse_value(&golden) {
        Ok(old) => {
            let new = serde_json::parse_value(fresh).expect("a rendered document parses");
            first_difference(&old, &new, "$").unwrap_or_else(|| "$ (layout only)".into())
        }
        Err(_) => "$ (no readable golden)".into(),
    };
    let relative = golden_path
        .strip_prefix(golden_dir())
        .expect("under the golden directory");
    let fresh_path = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("golden")
        .join(relative);
    std::fs::create_dir_all(fresh_path.parent().expect("a file has a directory"))
        .expect("create the fresh golden directory");
    std::fs::write(&fresh_path, fresh).expect("write the fresh golden");
    Some(format!(
        "{label}: first difference at {at}\n  re-record: cp {} {}",
        fresh_path.display(),
        golden_path.display()
    ))
}

#[test]
fn every_accepted_spec_matches_its_golden() {
    let mut failures = Vec::new();
    for path in accepted_specs() {
        let name = stem(&path);
        let golden_path = golden_dir().join(format!("{name}.json"));
        for threads in THREADS {
            let label = format!("{name} at threads {threads}");
            if let Some(failure) = mismatch(&label, &golden_path, &document(&path, threads)) {
                failures.push(failure);
                break;
            }
        }
    }
    assert!(
        failures.is_empty(),
        "goldens moved:\n{}",
        failures.join("\n")
    );
}

/// One paper document, as `ctlm-lab paper <name> --no-meta` prints it
/// at seed 42 and the default scale, against its golden.
fn paper_matches_its_golden(name: &str) {
    let doc = paper::document(name, &PaperRun::default(), false).expect("a paper experiment");
    let golden_path = golden_dir().join("paper").join(format!("{name}.json"));
    if let Some(failure) = mismatch(name, &golden_path, &(to_pretty_json(&doc) + "\n")) {
        panic!("golden moved:\n{failure}");
    }
}

#[test]
fn paper_table05_compaction() {
    paper_matches_its_golden("table05_compaction");
}

#[test]
fn paper_table06_co_el() {
    paper_matches_its_golden("table06_co_el");
}

#[test]
fn paper_table07_co_vv_notation() {
    paper_matches_its_golden("table07_co_vv_notation");
}

#[test]
fn paper_table08_co_vv() {
    paper_matches_its_golden("table08_co_vv");
}

#[test]
fn paper_table09_co_distribution() {
    paper_matches_its_golden("table09_co_distribution");
}

#[test]
#[ignore = "trains six models on four cells: ≈ 75 s in release; CI runs it in release"]
fn paper_table10_model_comparison() {
    paper_matches_its_golden("table10_model_comparison");
}

#[test]
fn paper_table11_2019c_steps() {
    paper_matches_its_golden("table11_2019c_steps");
}

#[test]
fn paper_fig3_scheduler_latency() {
    paper_matches_its_golden("fig3_scheduler_latency");
}

#[test]
#[ignore = "23 s at the suite's opt-level (7 s in release); CI runs it in release"]
fn paper_ablation_feature_batch() {
    paper_matches_its_golden("ablation_feature_batch");
}

#[test]
#[ignore = "retrains Table XI seven times: 50 s at the suite's opt-level (12 s in release); CI runs it in release"]
fn paper_ablation_gradient_rate() {
    paper_matches_its_golden("ablation_gradient_rate");
}

/// Each experiment has a golden, and each golden an experiment.
#[test]
fn every_paper_experiment_has_one_golden() {
    let goldens = common::files(&golden_dir().join("paper"), "json");
    let mut goldens: Vec<String> = goldens.iter().map(|p| stem(p)).collect();
    let mut names: Vec<String> = EXPERIMENTS.iter().map(|(n, _)| n.to_string()).collect();
    goldens.sort();
    names.sort();
    assert_eq!(goldens, names);
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

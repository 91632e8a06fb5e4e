//! Bench regression gate: compares a freshly produced criterion-shim
//! JSON report against the checked-in baseline and fails (exit 1) when a
//! key median regressed beyond the tolerance.
//!
//! ```text
//! CTLM_BENCH_JSON=bench_ci.json cargo bench -p ctlm-bench --bench matching ...
//! cargo run -p ctlm-bench --bin bench_check -- bench_ci.json BENCH_PR7.json
//! ```
//!
//! Only the gated groups are compared (`training_step/`, `autoscale/`,
//! `multicell/`, `faults/` by default — override with `--groups a,b,c`);
//! entries present in just one report are skipped, since CI may run a
//! subset. `matching/`, `placement/` and `arrivals/` carry both sides of
//! their claim in one recording and are gated by `--max-ratio` instead
//! (below), which needs no baseline host.
//! The default threshold (current ≤ 1.25 × baseline) is deliberately
//! tolerant of shared-runner noise; tighten locally with
//! `--threshold 1.1`.
//!
//! Every compared entry prints its measured/baseline ratio, pass or
//! fail. A baseline entry annotated `"host_sensitive": true` downgrades
//! a regression to a warning (printed, but exit stays 0) — for benches
//! whose medians swing with cache topology or core count. When both
//! reports carry a `_meta.host` fingerprint (the criterion shim records
//! one) and the hosts differ, a warning notes that ratios are
//! indicative only.
//!
//! `--max-ratio <id_a>:<id_b>=<k>[,<id_c>:<id_d>=<k2>…]` adds
//! assertions *within* the current report: exit 1 when
//! `median(a) / median(b) > k`. Both sides ran on the same host minutes
//! apart, so unlike the baseline comparison it holds on any runner — CI
//! uses it to pin that a capacity probe does not get slower as the fleet
//! grows (`placement/near_miss/100000:placement/near_miss/1000`), that
//! the input-major training step keeps its lead over the naive one at
//! the shape the lab retrains at
//! (`training_step/fig3_shape_optimized:training_step/fig3_shape_naive`),
//! and that the index, the capacity walk and the arrival stream keep
//! theirs over the retained references (`matching/indexed/10000` vs
//! `linear`, `indexed_pin` flat in fleet size, `placement/indexed/100000`
//! vs `linear`, `arrivals/stream_1m` vs `materialise_1m`).
//!
//! An unreadable or unparsable report, a bad `--threshold` and a bad
//! `--max-ratio` are each one `error:` line and exit code 2.

use ctlm_bench::args::{usage_error, ParsedArgs};
use ctlm_telemetry::HostFingerprint;
use serde::Deserialize;
use serde_json::Value;

const DEFAULT_GROUPS: &[&str] = &["training_step/", "autoscale/", "multicell/", "faults/"];

fn medians(doc: &Value) -> Vec<(String, f64)> {
    let Value::Object(pairs) = doc else {
        return Vec::new();
    };
    pairs
        .iter()
        .filter_map(|(k, v)| v.get_field("median_ns").as_f64().map(|m| (k.clone(), m)))
        .collect()
}

/// The report's recorded host fingerprint, when present (`_meta.host`).
/// Older baselines predate the field; `None` skips the comparison.
fn host_of(doc: &Value) -> Option<HostFingerprint> {
    HostFingerprint::from_value(doc.get_field("_meta").get_field("host")).ok()
}

/// Whether the baseline marks `id` as host-sensitive: regressions on such
/// entries warn instead of failing the gate.
fn host_sensitive(doc: &Value, id: &str) -> bool {
    matches!(
        doc.get_field(id).get_field("host_sensitive"),
        Value::Bool(true)
    )
}

fn load(path: &str) -> Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage_error(&format!("cannot read bench report {path}: {e}")));
    serde_json::from_str(&text)
        .unwrap_or_else(|e| usage_error(&format!("cannot parse {path}: {e}")))
}

/// Parses `--max-ratio`'s `<id_a>:<id_b>=<k>`.
fn parse_max_ratio(raw: &str) -> Option<(&str, &str, f64)> {
    let (ids, k) = raw.rsplit_once('=')?;
    let (a, b) = ids.split_once(':')?;
    Some((a, b, k.parse().ok()?))
}

fn main() {
    let parsed = ParsedArgs::from_env(&[], &["--threshold", "--groups", "--max-ratio"]);
    let [current_path, baseline_path] = parsed.positionals() else {
        usage_error(
            "usage: bench_check <current.json> <baseline.json> [--threshold 1.25] \
             [--groups matching/,placement/] [--max-ratio <id_a>:<id_b>=<k>[,…]]",
        );
    };
    let threshold: f64 = parsed.option_or("--threshold", 1.25);
    let groups: Vec<&str> = match parsed.option("--groups") {
        Some(s) => s.split(',').filter(|g| !g.is_empty()).collect(),
        None => DEFAULT_GROUPS.to_vec(),
    };

    let current_doc = load(current_path);
    let baseline_doc = load(baseline_path);
    if let (Some(ch), Some(bh)) = (host_of(&current_doc), host_of(&baseline_doc)) {
        if !ch.same_host(&bh) {
            eprintln!(
                "bench_check: WARNING: hosts differ — current on {}, baseline on {}; \
                 ratios are indicative only",
                ch.label(),
                bh.label()
            );
        }
    }
    let current = medians(&current_doc);
    let baseline = medians(&baseline_doc);
    let mut ratio_exceeded = false;
    for raw in parsed
        .option("--max-ratio")
        .into_iter()
        .flat_map(|list| list.split(','))
    {
        let Some((a, b, k)) = parse_max_ratio(raw) else {
            usage_error(&format!("--max-ratio wants <id_a>:<id_b>=<k>, got {raw:?}"));
        };
        let median_of = |id: &str| {
            current
                .iter()
                .find(|(name, _)| name == id)
                .map(|&(_, m)| m)
                .unwrap_or_else(|| {
                    usage_error(&format!("--max-ratio: {id} is not in {current_path}"))
                })
        };
        let ratio = median_of(a) / median_of(b);
        ratio_exceeded |= ratio > k;
        let verdict = if ratio > k { "EXCEEDED" } else { "ok" };
        println!("{a} : {b}  ratio {ratio:.4}  limit {k}  {verdict}");
    }
    let mut compared = 0usize;
    let mut regressions = Vec::new();
    let mut warned = 0usize;
    for (id, cur) in &current {
        if !groups.iter().any(|g| id.starts_with(g)) {
            continue;
        }
        let Some((_, base)) = baseline.iter().find(|(k, _)| k == id) else {
            continue;
        };
        compared += 1;
        let ratio = cur / base;
        let regressed = ratio > threshold;
        let sensitive = host_sensitive(&baseline_doc, id);
        let verdict = match (regressed, sensitive) {
            (true, true) => "WARN (host-sensitive)",
            (true, false) => "REGRESSED",
            (false, _) => "ok",
        };
        println!(
            "{id:<45} current {cur:>14.0} ns  baseline {base:>14.0} ns  ratio {ratio:>5.2}  {verdict}"
        );
        if regressed {
            if sensitive {
                warned += 1;
            } else {
                regressions.push((id.clone(), ratio));
            }
        }
    }
    if compared == 0 {
        usage_error(&format!(
            "no overlapping entries for groups {groups:?} — \
             did the bench run write {current_path}?"
        ));
    }
    if warned > 0 {
        println!(
            "bench_check: {warned} host-sensitive entr{} exceeded {threshold}× (warning only)",
            if warned == 1 { "y" } else { "ies" }
        );
    }
    if regressions.is_empty() {
        println!("bench_check: {compared} medians within {threshold}× of baseline");
        if ratio_exceeded {
            std::process::exit(1);
        }
    } else {
        eprintln!(
            "bench_check: {} of {compared} medians regressed beyond {threshold}×:",
            regressions.len()
        );
        for (id, ratio) in &regressions {
            eprintln!("  {id}: {ratio:.2}× baseline");
        }
        std::process::exit(1);
    }
}

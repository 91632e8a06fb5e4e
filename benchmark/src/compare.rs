//! `e2e_bench compare A.jsonl B.jsonl` — the one implementation of the
//! comparison rule. Each file is a set of runs (`run --out` appends one
//! line per run). Per workload × end-to-end metric: medians with
//! quartiles, the benchmark's bound applied in the metric's "better"
//! direction, `unresolved` when either set's own spread exceeds the
//! bound, every ratio printed with its base.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::{manifest, stats};

/// `workload → metric → values`, one value per run.
type Set = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load_set(path: &str) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    let mut set = Set::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = serde_json::parse_value(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let workload = doc
            .get_field("workload")
            .as_str()
            .ok_or_else(|| format!("{path}:{}: no workload", i + 1))?;
        let Value::Object(metrics) = doc.get_field("result").get_field("metrics") else {
            return Err(format!("{path}:{}: no result.metrics", i + 1));
        };
        let by_metric = set.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            let value = m
                .get_field("value")
                .as_f64()
                .ok_or_else(|| format!("{path}:{}: {name} has no value", i + 1))?;
            by_metric.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(set)
}

/// Prints the comparison; returns whether B is no worse than A by more
/// than the bound on every resolved pairing.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let manifest = manifest::load()?;
    let (a, b) = (load_set(path_a)?, load_set(path_b)?);
    println!(
        "{:<15} {:<15} {:>12} {:>12} {:>8} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "A iqr", "B iqr", "bound"
    );
    let mut ok = true;
    for (workload, metrics_a) in &a {
        for m in &manifest.end_to_end {
            let (Some(va), Some(vb)) = (
                metrics_a.get(&m.name),
                b.get(workload).and_then(|w| w.get(&m.name)),
            ) else {
                continue;
            };
            if va.len() < 2 || vb.len() < 2 {
                return Err(format!(
                    "{workload}/{}: a set needs at least two runs",
                    m.name
                ));
            }
            let (qa, qb) = (stats::quartiles(va), stats::quartiles(vb));
            let (spread_a, spread_b) = ((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1]);
            let ratio = qb[1] / qa[1];
            // How much worse B's median is than A's, as a share of A's.
            let worse = if m.higher_is_better {
                1.0 - ratio
            } else {
                ratio - 1.0
            };
            // Resolved despite the noise only when every run of B reads
            // better than every run of A.
            let all_better = if m.higher_is_better {
                min(vb) > max(va)
            } else {
                max(vb) < min(va)
            };
            let verdict = if spread_a.max(spread_b) > m.bound && !all_better {
                "unresolved"
            } else if worse > m.bound {
                ok = false;
                "REGRESSION"
            } else {
                "ok"
            };
            println!(
                "{workload:<15} {:<15} {:>12.6} {:>12.6} {ratio:>8.4} {:>7.2}% {:>7.2}% {:>6.1}%  {verdict}",
                m.name,
                qa[1],
                qb[1],
                spread_a * 100.0,
                spread_b * 100.0,
                m.bound * 100.0,
            );
        }
    }
    println!("ratios are B's median over A's median (A = {path_a}, B = {path_b})");
    Ok(ok)
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

//! Bench regression gate: asserts ratios between two medians of one
//! criterion-shim JSON report, and fails (exit 1) when one exceeds its
//! limit.
//!
//! ```text
//! CTLM_BENCH_JSON=$PWD/bench_ci.json cargo bench -p ctlm-bench --bench placement ...
//! cargo run -p ctlm-bench --bin bench_check -- bench_ci.json \
//!     --max-ratio <id_a>:<id_b>=<k>[,<id_c>:<id_d>=<k2>…]
//! ```
//!
//! Each assertion holds when `median(a) / median(b) ≤ k`. Both sides ran
//! on the same host minutes apart, so the gate holds on any runner and
//! needs no recorded baseline: CI uses it to pin that a claimed path keeps
//! its lead over the retained reference (indexed vs linear matching and
//! placement, streamed vs materialised arrivals, the input-major training
//! step vs the naive one) and that a probe does not slow down as the
//! fleet grows. The list of assertions and the local runs behind each
//! limit are in `.github/workflows/ci.yml`. Absolute time is not this
//! gate's job: `e2e_bench compare` on alternating pairs measures it.
//!
//! Every assertion prints its ratio, within its limit or not. An
//! unreadable or unparsable report, a malformed assertion, an id the
//! report lacks and a command line with no assertion are each one
//! `error:` line and exit code 2.

use ctlm_bench::args::{usage_error, ParsedArgs};
use serde_json::Value;

/// One `--max-ratio` assertion, measured against a report.
#[derive(Debug, PartialEq)]
struct Ratio<'a> {
    a: &'a str,
    b: &'a str,
    ratio: f64,
    limit: f64,
}

impl Ratio<'_> {
    fn exceeded(&self) -> bool {
        self.ratio > self.limit
    }
}

/// Parses one `<id_a>:<id_b>=<k>` assertion; `k` must be finite.
fn parse_max_ratio(raw: &str) -> Option<(&str, &str, f64)> {
    let (ids, k) = raw.rsplit_once('=')?;
    let (a, b) = ids.split_once(':')?;
    let k: f64 = k.parse().ok()?;
    k.is_finite().then_some((a, b, k))
}

/// The gate's verdict: every assertion of the comma-separated `list`
/// measured against `report`'s `median_ns` entries. A malformed
/// assertion or an id the report lacks is an error.
fn check<'a>(report: &Value, list: &'a str) -> Result<Vec<Ratio<'a>>, String> {
    let median = |id: &str| {
        report
            .get_field(id)
            .get_field("median_ns")
            .as_f64()
            .ok_or_else(|| format!("--max-ratio: {id} is not in the report"))
    };
    list.split(',')
        .map(|raw| {
            let (a, b, limit) = parse_max_ratio(raw)
                .ok_or_else(|| format!("--max-ratio wants <id_a>:<id_b>=<k>, got {raw:?}"))?;
            Ok(Ratio {
                a,
                b,
                ratio: median(a)? / median(b)?,
                limit,
            })
        })
        .collect()
}

fn main() {
    let parsed = ParsedArgs::from_env(&[], &["--max-ratio"]);
    let ([path], Some(list)) = (parsed.positionals(), parsed.option("--max-ratio")) else {
        usage_error("usage: bench_check <report.json> --max-ratio <id_a>:<id_b>=<k>[,…]");
    };
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage_error(&format!("cannot read bench report {path}: {e}")));
    let report: Value = serde_json::from_str(&text)
        .unwrap_or_else(|e| usage_error(&format!("cannot parse {path}: {e}")));
    let ratios = check(&report, list).unwrap_or_else(|e| usage_error(&format!("{path}: {e}")));
    for r in &ratios {
        let verdict = if r.exceeded() { "EXCEEDED" } else { "ok" };
        println!(
            "{} : {}  ratio {:.4}  limit {}  {verdict}",
            r.a, r.b, r.ratio, r.limit
        );
    }
    let exceeded = ratios.iter().filter(|r| r.exceeded()).count();
    if exceeded > 0 {
        eprintln!(
            "bench_check: {exceeded} of {} ratios exceeded their limit",
            ratios.len()
        );
        std::process::exit(1);
    }
    println!("bench_check: {} ratios within their limits", ratios.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> Value {
        serde_json::from_str(r#"{"g/fast": {"median_ns": 25.0}, "g/slow": {"median_ns": 100.0}}"#)
            .unwrap()
    }

    #[test]
    fn ratio_of_two_ids_within_its_limit() {
        let ratios = check(&report(), "g/fast:g/slow=0.3").unwrap();
        assert_eq!(
            ratios,
            [Ratio {
                a: "g/fast",
                b: "g/slow",
                ratio: 0.25,
                limit: 0.3
            }]
        );
        assert!(!ratios[0].exceeded());
    }

    #[test]
    fn exceeded_limit_is_flagged() {
        let ratios = check(&report(), "g/fast:g/slow=0.3,g/slow:g/fast=3").unwrap();
        let exceeded: Vec<bool> = ratios.iter().map(Ratio::exceeded).collect();
        assert_eq!(exceeded, [false, true]);
    }

    #[test]
    fn id_missing_from_the_report_is_an_error() {
        let err = check(&report(), "g/fast:g/absent=1").unwrap_err();
        assert!(err.contains("g/absent is not in the report"), "{err}");
    }

    #[test]
    fn malformed_assertion_is_an_error() {
        for bad in [
            "g/fast:g/slow=abc",
            "g/fast=1",
            "g/fast:g/slow",
            "",
            "a:b=NaN",
        ] {
            let err = check(&report(), bad).unwrap_err();
            assert!(err.starts_with("--max-ratio wants"), "{bad:?}: {err}");
        }
    }
}

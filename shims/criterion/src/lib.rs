//! Offline stand-in for `criterion`.
//!
//! Implements the benchmark harness surface the workspace uses
//! (`criterion_group!`/`criterion_main!`, groups, `bench_function`,
//! `bench_with_input`, `iter`, `iter_batched`) with a simple
//! median-of-samples measurement. Passing `--test` (as
//! `cargo bench -- --test` does) runs every routine once as a smoke test
//! without timing.
//!
//! When the `CTLM_BENCH_JSON` environment variable names a file, results
//! are merged into it as `{"group/bench": {"median_ns": ..}}`: an id this
//! run measured replaces its entry, every other entry stays, so several
//! bench binaries accumulate one report for `bench_check`'s same-run
//! ratios.

use std::time::Instant;

use serde::Value;

/// The benchmark harness.
pub struct Criterion {
    test_mode: bool,
    filter: Option<String>,
    sample_size: usize,
    results: Vec<(String, f64)>,
}

impl Default for Criterion {
    fn default() -> Self {
        Self::from_args()
    }
}

impl Criterion {
    /// Builds the harness from `cargo bench` CLI arguments.
    pub fn from_args() -> Self {
        let mut test_mode = false;
        let mut filter = None;
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--test" => test_mode = true,
                "--bench" => {}
                a if a.starts_with("--") => {}
                a => filter = Some(a.to_string()),
            }
        }
        Self {
            test_mode,
            filter,
            sample_size: 20,
            results: Vec::new(),
        }
    }

    /// Starts a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: None,
        }
    }

    /// Benchmarks a routine outside any group.
    pub fn bench_function(&mut self, id: &str, f: impl FnMut(&mut Bencher)) -> &mut Self {
        let sample_size = self.sample_size;
        self.run(id.to_string(), sample_size, f);
        self
    }

    fn run(&mut self, id: String, sample_size: usize, mut f: impl FnMut(&mut Bencher)) {
        if let Some(filter) = &self.filter {
            if !id.contains(filter.as_str()) {
                return;
            }
        }
        let mut b = Bencher {
            test_mode: self.test_mode,
            sample_size,
            samples: Vec::new(),
        };
        f(&mut b);
        if self.test_mode {
            println!("test {id} ... ok (smoke)");
            return;
        }
        let median = b.median_ns();
        println!("{id:<55} median {:>12}", format_ns(median));
        self.results.push((id, median));
    }

    /// Prints the final summary and merges results into the JSON report
    /// named by `CTLM_BENCH_JSON` (when set).
    pub fn final_summary(&self) {
        if self.test_mode || self.results.is_empty() {
            return;
        }
        let Ok(path) = std::env::var("CTLM_BENCH_JSON") else {
            return;
        };
        let mut doc = std::fs::read_to_string(&path)
            .ok()
            .and_then(|s| serde_json::from_str::<Value>(&s).ok())
            .and_then(|v| match v {
                Value::Object(pairs) => Some(pairs),
                _ => None,
            })
            .unwrap_or_default();
        for (id, median) in &self.results {
            let entry = Value::Object(vec![("median_ns".to_string(), Value::Num(*median))]);
            if let Some(slot) = doc.iter_mut().find(|(k, _)| k == id) {
                slot.1 = entry;
            } else {
                doc.push((id.clone(), entry));
            }
        }
        let rendered = serde_json::to_string(&Value::Object(doc)).expect("render bench report");
        std::fs::write(&path, pretty(&rendered)).expect("write bench report");
    }
}

/// Inserts line breaks after object commas so the report diffs line by
/// line.
fn pretty(json: &str) -> String {
    let mut out = String::with_capacity(json.len() + 64);
    let mut depth = 0usize;
    let mut in_str = false;
    let mut escape = false;
    for c in json.chars() {
        match c {
            '"' if !escape => in_str = !in_str,
            '\\' if in_str => {
                escape = !escape;
                out.push(c);
                continue;
            }
            _ => {}
        }
        escape = false;
        if !in_str && (c == '{' || c == '}') {
            depth = if c == '{' {
                depth + 1
            } else {
                depth.saturating_sub(1)
            };
        }
        out.push(c);
        if !in_str && c == ',' && depth == 1 {
            out.push('\n');
        }
        if !in_str && c == '{' && depth == 1 {
            out.push('\n');
        }
    }
    out.push('\n');
    out
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// A benchmark group (named prefix + per-group sample size).
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of samples collected per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n.max(2));
        self
    }

    /// Benchmarks a routine under `group/name`.
    pub fn bench_function(
        &mut self,
        id: impl IntoBenchId,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let id = format!("{}/{}", self.name, id.into_bench_id());
        let samples = self.sample_size.unwrap_or(self.criterion.sample_size);
        self.criterion.run(id, samples, f);
        self
    }

    /// Benchmarks a routine with an input under `group/name/param`.
    pub fn bench_with_input<I>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        let id = format!("{}/{}", self.name, id.render());
        let samples = self.sample_size.unwrap_or(self.criterion.sample_size);
        self.criterion.run(id, samples, |b| f(b, input));
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Accepts both `&str` names and [`BenchmarkId`]s.
pub trait IntoBenchId {
    /// Renders the id fragment.
    fn into_bench_id(self) -> String;
}

impl IntoBenchId for &str {
    fn into_bench_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchId for String {
    fn into_bench_id(self) -> String {
        self
    }
}

impl IntoBenchId for BenchmarkId {
    fn into_bench_id(self) -> String {
        self.render()
    }
}

/// A `name/parameter` benchmark id.
pub struct BenchmarkId {
    name: String,
    param: String,
}

impl BenchmarkId {
    /// An id from a function name and a displayable parameter.
    pub fn new(name: impl Into<String>, param: impl std::fmt::Display) -> Self {
        Self {
            name: name.into(),
            param: param.to_string(),
        }
    }

    fn render(&self) -> String {
        format!("{}/{}", self.name, self.param)
    }
}

/// Batch sizing hint for `iter_batched` (measurement treats all the same).
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    /// Small per-iteration input.
    SmallInput,
    /// Large per-iteration input (one routine call per sample).
    LargeInput,
    /// One batch per iteration.
    PerIteration,
}

/// Measures a single benchmark routine.
pub struct Bencher {
    test_mode: bool,
    sample_size: usize,
    samples: Vec<f64>,
}

impl Bencher {
    /// Times repeated calls of `f`.
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        if self.test_mode {
            std::hint::black_box(f());
            return;
        }
        // One untimed call warms caches and lazily built state; a second,
        // timed call sizes the inner loop for ~5 ms per sample, so a cold
        // first call cannot shrink every sample far below that.
        std::hint::black_box(f());
        let t0 = Instant::now();
        std::hint::black_box(f());
        let once = t0.elapsed().as_secs_f64().max(1e-9);
        let inner = ((5e-3 / once) as usize).clamp(1, 100_000);
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..inner {
                std::hint::black_box(f());
            }
            self.samples
                .push(start.elapsed().as_secs_f64() * 1e9 / inner as f64);
        }
    }

    /// Times `routine` on fresh inputs from `setup` (setup untimed).
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
        _size: BatchSize,
    ) {
        if self.test_mode {
            std::hint::black_box(routine(setup()));
            return;
        }
        for _ in 0..self.sample_size {
            let input = setup();
            let start = Instant::now();
            std::hint::black_box(routine(input));
            self.samples.push(start.elapsed().as_secs_f64() * 1e9);
        }
    }

    fn median_ns(&mut self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples
            .sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
        let mid = self.samples.len() / 2;
        if self.samples.len().is_multiple_of(2) {
            (self.samples[mid - 1] + self.samples[mid]) / 2.0
        } else {
            self.samples[mid]
        }
    }
}

/// Declares a benchmark group entry point.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::from_args();
            $($target(&mut criterion);)+
            criterion.final_summary();
        }
    };
}

/// Declares the benchmark binary's `main`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(c: &mut Criterion) -> Vec<(String, f64)> {
        let mut group = c.benchmark_group("g");
        group.sample_size(3);
        group.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        group.bench_with_input(BenchmarkId::new("param", 7), &7u64, |b, &n| {
            b.iter(|| (0..n).product::<u64>())
        });
        group.finish();
        c.results.clone()
    }

    #[test]
    fn records_group_and_param_ids() {
        let mut c = Criterion {
            test_mode: false,
            filter: None,
            sample_size: 3,
            results: Vec::new(),
        };
        let results = quick(&mut c);
        let ids: Vec<&str> = results.iter().map(|(id, _)| id.as_str()).collect();
        assert_eq!(ids, vec!["g/sum", "g/param/7"]);
        assert!(results.iter().all(|&(_, ns)| ns > 0.0));
    }

    #[test]
    fn summary_merge_refreshes_measured_ids_and_keeps_the_rest() {
        let path = std::env::temp_dir().join("ctlm_criterion_shim_merge_test.json");
        std::fs::write(
            &path,
            r#"{"g/sum": {"median_ns": 10.0, "stale": true}, "h/other": {"median_ns": 7.0}}"#,
        )
        .unwrap();
        std::env::set_var("CTLM_BENCH_JSON", &path);
        let c = Criterion {
            test_mode: false,
            filter: None,
            sample_size: 3,
            results: vec![("g/sum".to_string(), 42.0)],
        };
        c.final_summary();
        std::env::remove_var("CTLM_BENCH_JSON");
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).ok();
        let entry =
            |median: f64| Value::Object(vec![("median_ns".to_string(), Value::Num(median))]);
        assert_eq!(
            doc,
            Value::Object(vec![
                ("g/sum".to_string(), entry(42.0)),
                ("h/other".to_string(), entry(7.0)),
            ])
        );
    }

    #[test]
    fn test_mode_skips_measurement() {
        let mut c = Criterion {
            test_mode: true,
            filter: None,
            sample_size: 3,
            results: Vec::new(),
        };
        let results = quick(&mut c);
        assert!(results.is_empty());
    }
}

//! `e2e_bench` — the repo's end-to-end + per-layer benchmark.
//!
//! ```text
//! e2e_bench --workload W --seed N --seconds S --trace 0|1     (what BENCHMARK.json runs)
//! e2e_bench run [--workload W|all] [--seed N] [--seconds S] [--quick] [--out set.jsonl]
//!               [--write-golden]
//! e2e_bench trace --workload W [--seed N]
//! e2e_bench compare A.jsonl B.jsonl
//! ```
//!
//! See `benchmark/README.md` for the workloads, the metrics and what
//! each layer metric is predicted to move.

mod compare;
mod ctl;
mod host;
mod lab;
mod lab_trace;
mod manifest;
mod probes;
mod spans;
mod stats;
mod trace;

use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ctlm_bench::ParsedArgs;
use serde_json::Value;

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

pub const WORKLOADS: [&str; 5] = [
    "fig3_trace",
    "ctl_steps",
    "scale_steady",
    "chaos_mix",
    "chaos_observed",
];

/// Seed used when none is given; `golden/` pins its exact results.
pub const DEFAULT_SEED: u64 = 42;

/// Set-up passes before the first repetition. One more follows every
/// repetition, so the passes span the whole run and a burst of host
/// interference cannot colour them all; `setup_s` is the median pass.
const SETUP_PASSES: usize = 5;

/// Fewest repetitions a run makes, however long one takes.
const MIN_REPS: usize = 3;

/// Exact (host-independent) figures of one repetition, by name.
pub type Facts = Vec<(&'static str, f64)>;

/// What one repetition produced: a digest of every byte it rendered and
/// the exact figures read from its results.
pub struct RepOutput {
    pub digest: u64,
    pub bytes: usize,
    pub facts: Facts,
}

/// Digest of rendered documents. Digests are only ever compared inside
/// one process, where `DefaultHasher::new()` always hashes alike.
pub fn digest(docs: &[String]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for d in docs {
        h.write(d.as_bytes());
        h.write_u8(0xff);
    }
    h.finish()
}

enum Workload {
    Lab(Box<lab::LabWorkload>),
    Ctl(Box<ctl::CtlWorkload>),
}

impl Workload {
    fn prepare(name: &'static str, root: &Path, seed: u64, quick: bool) -> Result<Self, String> {
        match name {
            "ctl_steps" => ctl::prepare(root, seed, quick).map(|w| Workload::Ctl(Box::new(w))),
            _ => lab::prepare(name, root, seed, quick).map(|w| Workload::Lab(Box::new(w))),
        }
    }

    fn warm_up(&mut self) {
        if let Workload::Ctl(w) = self {
            w.warm_up();
        }
    }

    fn work(&self) -> u64 {
        match self {
            Workload::Lab(w) => w.work(),
            Workload::Ctl(w) => w.work(),
        }
    }

    fn repetition(&self) -> Result<RepOutput, String> {
        match self {
            Workload::Lab(w) => w.repetition(),
            Workload::Ctl(w) => w.repetition(),
        }
    }
}

/// Options shared by the run modes.
struct Options {
    root: PathBuf,
    seed: u64,
    seconds: f64,
    quick: bool,
    write_golden: bool,
    out: Option<PathBuf>,
}

/// One named measurement with its unit.
type Metric = (String, f64, String);

/// The result of one benchmark run, in the shape the contract's last
/// output line has.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl RunResult {
    fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Value::Object(vec![
                        ("value".into(), Value::Num(*value)),
                        ("unit".into(), Value::Str(unit.clone())),
                    ]),
                )
            })
            .collect();
        let doc = Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::Num(self.attempted as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            ("metrics".into(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&doc).expect("finite metrics")
    }
}

pub fn print_host_line() {
    let fp = ctlm_telemetry::HostFingerprint::detect();
    println!(
        "host: {} | nproc {} | loadavg {:.2} | pool width {}",
        fp.cpu_model,
        fp.cores,
        host::loadavg(),
        rayon::current_num_threads()
    );
}

/// The untraced run: set up, repeat the unit of work for `seconds`,
/// check every repetition, report the end-to-end metrics.
fn run_end_to_end(name: &'static str, opts: &Options) -> RunResult {
    println!(
        "== {name} · seed {} · {}",
        opts.seed,
        if opts.quick { "quick" } else { "end-to-end" }
    );
    print_host_line();
    let mut setup_s = Vec::new();
    let mut setup_pass = || {
        let t = Instant::now();
        let prepared = Workload::prepare(name, &opts.root, opts.seed, opts.quick);
        setup_s.push(t.elapsed().as_secs_f64());
        prepared.unwrap_or_else(|e| fail(name, &e))
    };
    let mut w = setup_pass();
    for _ in 1..if opts.quick { 1 } else { SETUP_PASSES } {
        w = setup_pass();
    }
    w.warm_up();
    let work = w.work();

    let mut walls = Vec::new();
    let mut allocs = Vec::new();
    let mut alloc_bytes = Vec::new();
    let mut alloc_peaks = Vec::new();
    let mut first: Option<RepOutput> = None;
    let mut failures = Vec::new();
    let mut failed_reps = 0u64;
    let cpu0 = host::cpu_seconds();
    let t0 = Instant::now();
    loop {
        host::alloc_peak_restart();
        let (c0, b0) = host::alloc_totals();
        let t = Instant::now();
        let out = w.repetition();
        let wall = t.elapsed().as_secs_f64();
        let (c1, b1) = host::alloc_totals();
        walls.push(wall);
        allocs.push((c1 - c0) as f64);
        alloc_bytes.push((b1 - b0) as f64 / host::MIB);
        alloc_peaks.push(host::alloc_peak_bytes() as f64 / host::MIB);
        let checked = match (out, &first) {
            (Err(e), _) => Err(e),
            (Ok(out), None) => {
                first = Some(out);
                Ok(())
            }
            (Ok(out), Some(f)) => {
                let same = (out.digest, out.bytes) == (f.digest, f.bytes)
                    && same_facts(&out.facts, &f.facts);
                same.then_some(()).ok_or_else(|| {
                    format!(
                        "output differs from the first repetition's ({} vs {} bytes)",
                        out.bytes, f.bytes
                    )
                })
            }
        };
        if let Err(e) = checked {
            failures.push(format!("repetition {}: {e}", walls.len()));
            failed_reps += 1;
        }
        let elapsed = t0.elapsed().as_secs_f64();
        let mean = elapsed / walls.len() as f64;
        if opts.quick || (walls.len() >= MIN_REPS && elapsed + mean > opts.seconds) {
            break;
        }
        drop(setup_pass());
    }
    let measured = t0.elapsed().as_secs_f64();
    let cpu_over_wall = (host::cpu_seconds() - cpu0) / measured;
    let reps = walls.len();

    // Checks on the run as a whole: failing one fails every repetition.
    let rep_failures = failures.len();
    if let Some(f) = &first {
        if !opts.quick {
            if opts.write_golden {
                write_golden(&opts.root, name, opts.seed, &f.facts);
            } else if let Err(e) = check_golden(&opts.root, name, opts.seed, &f.facts) {
                failures.push(e);
            }
        }
    }
    // One thread only: with the pool pinned to width 1 the process can
    // never use more CPU time than wall time (1.02 allows for the 10 ms
    // tick of the CPU clock).
    if measured > 2.0 && cpu_over_wall > 1.02 {
        failures.push(format!(
            "host.cpu_over_wall {cpu_over_wall:.3} > 1.02: something ran in parallel"
        ));
    }
    if failures.len() > rep_failures {
        failed_reps = reps as u64;
    }

    let wall_s = stats::p10(&walls);
    let [lo, hi] = [f64::min, f64::max].map(|f| walls.iter().copied().fold(walls[0], f));
    let q = match reps {
        1 => [lo; 3],
        _ => stats::quartiles(&walls),
    };
    if opts.quick {
        println!("quick: one repetition checked, timings not reported");
    } else {
        println!(
            "repetitions: n {reps} | wall min {lo:.4} p10 {wall_s:.4} p25 {:.4} median {:.4} max {hi:.4} s | host.rep_spread {:.4} | host.cpu_over_wall {cpu_over_wall:.3}",
            q[0],
            q[1],
            (q[2] - q[0]) / q[0],
        );
        let series: Vec<String> = walls.iter().map(|w| format!("{w:.4}")).collect();
        println!("walls: {}", series.join(" "));
    }
    if let Some(f) = &first {
        for (k, v) in &f.facts {
            println!("exact  {k:<24} {v}");
        }
    }
    for f in &failures {
        println!("FAILED {f}");
    }

    let mut metrics: Vec<Metric> = Vec::new();
    if !opts.quick {
        let peak_rss = ctlm_lab::memtrack::peak_rss_bytes().unwrap_or(0) as f64 / host::MIB;
        let alloc_peak = stats::median(&alloc_peaks);
        metrics = [
            ("setup_s", stats::median(&setup_s), "s"),
            ("wall_s", wall_s, "s"),
            ("work_per_s", work as f64 / wall_s, "1/s"),
            ("peak_rss_mib", peak_rss, "MiB"),
            ("alloc_peak_mib", alloc_peak, "MiB"),
            ("alloc_count", stats::median(&allocs), "count"),
            ("alloc_mib", stats::median(&alloc_bytes), "MiB"),
        ]
        .map(|(name, value, unit)| (name.to_string(), value, unit.to_string()))
        .to_vec();
        for (name, value, unit) in &metrics {
            println!("metric {name:<24} {value} {unit}");
        }
    }
    let result = RunResult {
        correct: failures.is_empty(),
        attempted: reps as u64 * work,
        failed: failed_reps * work,
        metrics,
    };
    if let Some(path) = &opts.out {
        append_set_line(path, name, opts.seed, &result);
    }
    result
}

pub fn same_facts(a: &Facts, b: &Facts) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((ka, va), (kb, vb))| ka == kb && va.to_bits() == vb.to_bits())
}

fn golden_path(root: &Path, name: &str) -> PathBuf {
    root.join("golden").join(format!("{name}.json"))
}

/// Compares a repetition's exact figures with the recorded ones for this
/// seed; seeds without a record pass.
fn check_golden(root: &Path, name: &str, seed: u64, facts: &Facts) -> Result<(), String> {
    let path = golden_path(root, name);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    let doc = serde_json::parse_value(&text).map_err(|e| format!("{path:?}: {e}"))?;
    let want = doc.get_field(&seed.to_string());
    if *want == Value::Null {
        return Ok(());
    }
    let mut wrong = Vec::new();
    for (k, v) in facts {
        if want.get_field(k).as_f64().map(f64::to_bits) != Some(v.to_bits()) {
            let golden = want.get_field(k).as_f64();
            wrong.push(format!(
                "{k}: got {v}, golden {}",
                golden.map_or("has none".to_string(), |g| g.to_string())
            ));
        }
    }
    if wrong.is_empty() {
        println!("golden: seed {seed} matches {path:?}");
        Ok(())
    } else {
        Err(format!(
            "golden mismatch for seed {seed}: {}",
            wrong.join("; ")
        ))
    }
}

fn write_golden(root: &Path, name: &str, seed: u64, facts: &Facts) {
    let path = golden_path(root, name);
    let mut seeds = match std::fs::read_to_string(&path)
        .ok()
        .and_then(|t| serde_json::parse_value(&t).ok())
    {
        Some(Value::Object(seeds)) => seeds,
        _ => Vec::new(),
    };
    let entry = Value::Object(
        facts
            .iter()
            .map(|(k, v)| (k.to_string(), Value::Num(*v)))
            .collect(),
    );
    let key = seed.to_string();
    match seeds.iter_mut().find(|(k, _)| *k == key) {
        Some(slot) => slot.1 = entry,
        None => seeds.push((key, entry)),
    }
    let text = serde_json::to_string_pretty(&Value::Object(seeds)).expect("finite facts");
    std::fs::write(&path, format!("{text}\n"))
        .unwrap_or_else(|e| panic!("cannot write {path:?}: {e}"));
    println!("golden: wrote seed {seed} to {path:?}");
}

/// Appends one run to a set file (`compare` reads two of them).
fn append_set_line(path: &Path, name: &str, seed: u64, result: &RunResult) {
    use std::io::Write;
    let line = format!(
        "{{\"workload\":\"{name}\",\"seed\":{seed},\"result\":{}}}\n",
        result.to_json()
    );
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(line.as_bytes()))
        .unwrap_or_else(|e| panic!("cannot append to {path:?}: {e}"));
}

pub fn fail(name: &str, why: &str) -> ! {
    eprintln!("e2e_bench: {name}: {why}");
    std::process::exit(2);
}

const USAGE: &str = "usage: e2e_bench [run|trace] [--workload W|all] [--seed N] [--seconds S] \
[--trace 0|1] [--quick] [--out set.jsonl] [--write-golden] [--root DIR]
       e2e_bench compare A.jsonl B.jsonl";

fn main() {
    // The pool shim reads its width once, on first use: pin it before
    // anything can touch it (single-threaded here, so `set_var` is
    // sound). Only the child pass of a width comparison runs unpinned.
    if std::env::args().nth(1).as_deref() != Some("child-pass") {
        std::env::set_var("RAYON_NUM_THREADS", "1");
    }
    let args = ParsedArgs::from_env(
        &["--quick", "--write-golden"],
        &[
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--out",
            "--root",
            "--threads",
        ],
    );
    fn number<T: std::str::FromStr>(args: &ParsedArgs, name: &str, default: T) -> T {
        args.option(name).map_or(default, |v| {
            v.parse()
                .unwrap_or_else(|_| fail(name, &format!("needs a number, got {v:?}")))
        })
    }
    let opts = Options {
        root: PathBuf::from(args.option("--root").unwrap_or("benchmark")),
        seed: number(&args, "--seed", DEFAULT_SEED),
        seconds: number(&args, "--seconds", 20.0),
        quick: args.flag("--quick"),
        write_golden: args.flag("--write-golden"),
        out: args.option("--out").map(PathBuf::from),
    };
    let command = args.positionals().first().map(String::as_str);
    if command == Some("compare") {
        let [_, a, b] = args.positionals() else {
            fail("compare", USAGE);
        };
        match compare::compare(a, b) {
            Ok(true) => return,
            Ok(false) => std::process::exit(1),
            Err(e) => fail("compare", &e),
        }
    }
    let name = match args.option("--workload") {
        None | Some("all") => {
            // One process per workload: peak memory is a per-process
            // figure.
            let exe = std::env::current_exe().unwrap_or_else(|e| fail("e2e_bench", &e.to_string()));
            let rest: Vec<String> = std::env::args()
                .skip(1)
                .filter(|a| a != "--workload" && a != "all")
                .collect();
            let ok = WORKLOADS.iter().fold(true, |ok, name| {
                let status = std::process::Command::new(&exe)
                    .args(&rest)
                    .args(["--workload", name])
                    .status();
                ok & status.is_ok_and(|s| s.success())
            });
            std::process::exit(if ok { 0 } else { 1 });
        }
        Some(w) => WORKLOADS
            .iter()
            .copied()
            .find(|n| *n == w)
            .unwrap_or_else(|| {
                fail(
                    w,
                    &format!("unknown workload (expected one of {WORKLOADS:?})"),
                )
            }),
    };
    let result = match (command, args.option("--trace")) {
        (Some("child-pass"), _) => {
            let threads = args.option("--threads").unwrap_or("default");
            return trace::child_main(name, &opts, threads);
        }
        (Some("trace"), _) | (None | Some("run"), Some("1")) => trace::run_traced(name, &opts),
        (None | Some("run"), None | Some("0")) => run_end_to_end(name, &opts),
        _ => fail("e2e_bench", USAGE),
    };
    println!("{}", result.to_json());
    if !result.correct {
        std::process::exit(1);
    }
}

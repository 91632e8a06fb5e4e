//! The paper's evaluation section as JSON documents: Tables V–XI,
//! Fig. 3 and the two §VI ablations, one function each, served by
//! `ctlm-lab paper <name>`.
//!
//! Every experiment runs at the paper's fixed parameters; only the
//! master seed and the trace scale vary ([`PaperRun`]), and each
//! document opens with the experiment's name and both (Tables V and VII
//! use neither). A document is a pure function of the two, except for
//! its `_meta` block: the
//! host-clock figures (Table X's wall times, Table XI's per-step wall
//! times and phase shares), which [`document`] leaves out when asked,
//! as `--no-meta` does for lab reports. `experiments/golden/paper/`
//! pins each document at seed 42 and the default scale.
//!
//! Absolute numbers differ from the paper's (other hardware, synthetic
//! traces); who wins, by what factor, is the reproduction target.
//! README's "The paper's tables and figures" section gives each
//! document's target and the paper's own row beside it.

use std::time::Duration;

use rand::Rng;
use serde_json::{json, Value};

use ctlm_agocs::{DatasetStep, ReplayOutput, Replayer};
use ctlm_core::pipeline::{
    run_baseline_over_steps, run_model_over_steps, run_model_over_steps_observed, BaselineKind,
    ModelKind, RunSummary,
};
use ctlm_core::{GrowingModel, ModelRegistry, StepPhases, TrainConfig};
use ctlm_data::compaction::collapse;
use ctlm_data::dataset::{Dataset, DatasetBuilder, NUM_GROUPS};
use ctlm_data::encode::co_vv::CoVvEncoder;
use ctlm_data::vocab::ValueVocab;
use ctlm_sched::engine::{arrivals_from_trace, compress_timeline, SimConfig, Simulator};
use ctlm_sched::scheduler::{LiveRegistry, MainOnly, OracleEnhanced, Scheduler};
use ctlm_sim::SimTime;
use ctlm_trace::{
    AttrValue, CellSet, ConstraintOp as Op, GeneratedTrace, Scale, TaskConstraint, TraceGenerator,
};

use crate::LabError;

/// The trace size an experiment replays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PaperScale {
    /// The default: 260 machines and 1 600 collections a cell; seconds.
    Small,
    /// `--medium`: 1 000 machines and 8 000 collections; minutes.
    Medium,
    /// `--full`: the cell profile's own size, the paper's; hours.
    Full,
}

/// What a run of an experiment may vary: the master seed and the trace
/// scale.
#[derive(Clone, Copy, Debug)]
pub struct PaperRun {
    /// Master seed.
    pub seed: u64,
    /// Trace scale.
    pub scale: PaperScale,
}

impl Default for PaperRun {
    /// Seed 42 at the default scale: what the goldens pin.
    fn default() -> Self {
        Self {
            seed: 42,
            scale: PaperScale::Small,
        }
    }
}

impl PaperRun {
    /// The trace size of `cell` at this run's scale.
    fn scale(&self, cell: CellSet) -> Scale {
        let seed = self.seed;
        match self.scale {
            PaperScale::Small => Scale {
                machines: 260,
                collections: 1_600,
                seed,
            },
            PaperScale::Medium => Scale {
                machines: 1_000,
                collections: 8_000,
                seed,
            },
            PaperScale::Full => Scale::full(&cell.profile(), seed),
        }
    }

    fn trace(&self, cell: CellSet) -> GeneratedTrace {
        TraceGenerator::generate_cell(cell, self.scale(cell))
    }

    fn replay(&self, cell: CellSet) -> ReplayOutput {
        Replayer::default().replay(&self.trace(cell))
    }
}

type Experiment = fn(&PaperRun) -> Value;

/// Every experiment, by the name `ctlm-lab paper` takes, in paper order.
pub const EXPERIMENTS: [(&str, Experiment); 10] = [
    ("table05_compaction", table05_compaction),
    ("table06_co_el", table06_co_el),
    ("table07_co_vv_notation", table07_co_vv_notation),
    ("table08_co_vv", table08_co_vv),
    ("table09_co_distribution", table09_co_distribution),
    ("table10_model_comparison", table10_model_comparison),
    ("table11_2019c_steps", table11_2019c_steps),
    ("fig3_scheduler_latency", fig3_scheduler_latency),
    ("ablation_feature_batch", ablation_feature_batch),
    ("ablation_gradient_rate", ablation_gradient_rate),
];

/// The experiment names, comma-separated, for error messages.
pub fn names() -> String {
    EXPERIMENTS.map(|(name, _)| name).join(", ")
}

/// Runs the named experiment and returns its document, with its
/// `_meta` block when `meta` is set.
pub fn document(name: &str, run: &PaperRun, meta: bool) -> Result<Value, LabError> {
    let (_, experiment) = EXPERIMENTS
        .iter()
        .find(|(n, _)| *n == name)
        .ok_or_else(|| {
            LabError(format!(
                "unknown paper experiment {name:?} (expected one of {})",
                names()
            ))
        })?;
    let Value::Object(fields) = experiment(run) else {
        unreachable!("every document is an object")
    };
    let scale = format!("{:?}", run.scale).to_lowercase();
    let mut doc = vec![
        ("experiment".to_string(), json!(name)),
        ("seed".into(), json!((run.seed))),
        ("scale".into(), json!(scale)),
    ];
    doc.extend(fields.into_iter().filter(|(k, _)| meta || k != "_meta"));
    Ok(Value::Object(doc))
}

/// Each item as the paper prints it.
fn display<T: ToString>(items: &[T]) -> Vec<String> {
    items.iter().map(ToString::to_string).collect()
}

/// Table V — sample CO compactions: the Between operator, integer-bound
/// tightening, the Non-Equal-Array fold, Equal dominance and the logged
/// contradiction, each as the paper prints it.
fn table05_compaction(_: &PaperRun) -> Value {
    let c = TaskConstraint::new;
    let (int, text) = (AttrValue::Int, |s: &str| AttrValue::from(s));
    let (lt, gt) = (|v| c(0, Op::LessThan(v)), |v| c(0, Op::GreaterThan(v)));
    let ne = |attr, v| c(attr, Op::NotEqual(v));
    let eq = |attr, v| c(attr, Op::Equal(Some(v)));
    let rows = [
        (
            "operators are compacted into a new Between operator; the looser bound is obsolete",
            vec![lt(8), lt(3), gt(0)],
        ),
        (
            "GCD traces support only integers, so <>4 with >3 tightens to >4",
            vec![ne(0, int(1)), gt(3), ne(0, int(4))],
        ),
        (
            "operators are compacted into a new Non-Equal-Array operator",
            vec![ne(1, text("a")), ne(1, text("b")), ne(1, text("c"))],
        ),
        (
            "Not-Equal operators are removed as the Equal operator is restrictive",
            vec![ne(2, text("a")), ne(2, text("b")), eq(2, text("c"))],
        ),
        (
            "whenever collapsing COs is not possible, an error is logged",
            vec![eq(3, int(1)), eq(3, int(7))],
        ),
    ];
    let rows: Vec<Value> = rows
        .iter()
        .map(|(note, input)| {
            let (collapsed, error) = match collapse(input) {
                Ok(reqs) => (json!((display(&reqs))), Value::Null),
                Err(e) => (Value::Null, json!((e.to_string()))),
            };
            json!({
                "input": (display(input)),
                "collapsed": collapsed,
                "error": error,
                "note": (*note)
            })
        })
        .collect();
    json!({"title": "Table V. Sample CO compactions", "rows": rows})
}

/// The first twelve rows of a dataset: each row's group and the columns
/// it marks (a one in the encoding).
fn sample_rows(ds: &Dataset) -> Vec<Value> {
    (0..ds.len().min(12))
        .map(|r| {
            let columns: Vec<usize> = ds.x.row_entries(r).map(|(c, _)| c).collect();
            json!({"row": r, "group": (ds.y[r]), "columns": columns})
        })
        .collect()
}

/// Table VI — sample of the CO-EL dataset (clusterdata-2011): one label
/// column per distinct collapsed CO. The label space grows with every
/// unseen CO, which is why the paper abandons CO-EL for CO-VV.
fn table06_co_el(run: &PaperRun) -> Value {
    let cell = CellSet::C2011;
    let trace = run.trace(cell);
    let out = Replayer::default().replay(&trace);
    let step = out.steps.last().expect("replay produced steps");
    let el = Replayer::default().co_el(&trace);
    json!({
        "title": "Table VI. Sample of the CO-EL dataset",
        "cell": (cell.profile().name),
        "rows": (el.len()),
        "label_columns": (el.features_count()),
        "co_vv_columns": (step.features_count),
        "sample": (sample_rows(&el))
    })
}

/// Table VII — the reversed 0/1 CO-VV notation: attribute `AM` with
/// observed values 0–9, four constraint sets, `1` marking each value a
/// task cannot accept.
fn table07_co_vv_notation(_: &PaperRun) -> Value {
    let mut vocab = ValueVocab::new();
    for v in 0..10 {
        vocab.observe(0, &AttrValue::Int(v));
    }
    let c = TaskConstraint::new;
    let not = |v| c(0, Op::NotEqual(AttrValue::Int(v)));
    let rows = [
        ("${AM} >= 5", vec![c(0, Op::GreaterThanEqual(5))]),
        (
            "3 > ${AM} > 0",
            vec![c(0, Op::LessThan(3)), c(0, Op::GreaterThan(0))],
        ),
        ("${AM} <> 0; 7; 8", vec![not(0), not(7), not(8)]),
        ("${AM} > 0", vec![c(0, Op::GreaterThan(0))]),
    ];
    let rows: Vec<Value> = rows
        .iter()
        .map(|(co, constraints)| {
            let mut marks = vec![0u8; vocab.len()];
            let entries = CoVvEncoder.encode(constraints, &vocab);
            for (col, v) in entries.expect("no contradictions here") {
                marks[col] = v as u8;
            }
            json!({"co": (*co), "marks": marks})
        })
        .collect();
    let columns: Vec<String> = std::iter::once("(none)".to_string())
        .chain((0..10).map(|v| format!("AM:{v}")))
        .collect();
    json!({
        "title": "Table VII. The reversed 0/1 notation of CO and matched attribute values",
        "columns": columns,
        "rows": rows
    })
}

/// Table VIII — sample of the CO-VV dataset (clusterdata-2019a): the
/// last retraining step's dataset, its sparsity and its rows per group.
fn table08_co_vv(run: &PaperRun) -> Value {
    let cell = CellSet::C2019a;
    let out = run.replay(cell);
    let vv = &out.steps.last().expect("replay produced steps").vv;
    json!({
        "title": "Table VIII. Sample of the CO-VV dataset",
        "cell": (cell.profile().name),
        "rows": (vv.len()),
        "feature_columns": (vv.features_count()),
        "non_zeros": (vv.x.nnz()),
        "density": (vv.x.density()),
        "sample": (sample_rows(vv)),
        "rows_per_group": (vv.class_counts())
    })
}

/// Table IX — the share of tasks with CO by volume, requested CPU and
/// requested memory, per GCD archive: min / max / avg over daily
/// windows, as fractions.
fn table09_co_distribution(run: &PaperRun) -> Value {
    let cells: Vec<Value> = CellSet::all()
        .into_iter()
        .map(|cell| {
            let d = run.replay(cell).stats;
            json!({
                "cell": (cell.profile().name),
                "by_volume": (d.by_volume),
                "by_cpu": (d.by_cpu),
                "by_memory": (d.by_memory)
            })
        })
        .collect();
    json!({
        "title": "Table IX. Distribution of tasks with CO by volume, requested CPU and memory",
        "cells": cells
    })
}

/// One ANN model's run over the steps, with what its step records leave
/// out: each step's attempts and acceptance, and where the training
/// time went.
struct AnnRun {
    summary: RunSummary,
    attempts: Vec<usize>,
    accepted: Vec<bool>,
    phases: StepPhases,
}

impl AnnRun {
    fn new(kind: ModelKind, steps: &[DatasetStep], seed: u64) -> Self {
        let (mut attempts, mut accepted) = (Vec::new(), Vec::new());
        let mut phases = StepPhases::default();
        let summary =
            run_model_over_steps_observed(kind, steps, TrainConfig::default(), seed, |step| {
                attempts.push(step.attempts);
                accepted.push(step.accepted);
                phases.add(&step.phases);
            });
        Self {
            summary,
            attempts,
            accepted,
            phases,
        }
    }

    /// Step `i`'s test accuracy and Group-0 F1, its epochs and attempts,
    /// and whether its training was accepted.
    fn step(&self, i: usize) -> Value {
        let s = &self.summary.steps[i];
        json!({
            "accuracy": (s.evaluation.accuracy),
            "group0_f1": (s.evaluation.group0_f1),
            "epochs": (s.epochs),
            "attempts": (self.attempts[i]),
            "accepted": (self.accepted[i])
        })
    }

    /// The steps whose training was never accepted: every attempt ran to
    /// the epoch limit.
    fn capped_steps(&self) -> Vec<usize> {
        let steps = self.summary.steps.iter().zip(&self.accepted);
        steps.filter(|(_, &a)| !a).map(|(s, _)| s.step).collect()
    }

    /// The run's epochs and attempts, and its capped steps.
    fn totals(&self) -> Value {
        json!({
            "epochs": (self.summary.epochs_total),
            "attempts": (self.attempts.iter().sum::<usize>()),
            "capped_steps": (self.capped_steps())
        })
    }

    /// The epochs of the steps `keep` marks.
    fn epochs(&self, keep: &[bool]) -> usize {
        let steps = self.summary.steps.iter().zip(keep);
        steps.filter(|(_, &k)| k).map(|(s, _)| s.epochs).sum()
    }

    /// The run's host-clock figures: its wall time, each step's, and the
    /// shares of the wall time by training phase and, within
    /// forward+backward, by stage.
    fn host(&self) -> Value {
        let wall = self.summary.wall_time_total.as_secs_f64();
        let shares = |parts: &[(&str, Duration)]| {
            let shares = parts
                .iter()
                .map(|(part, d)| (part.to_string(), json!((d.as_secs_f64() / wall))));
            Value::Object(shares.collect())
        };
        let steps: Vec<f64> = self
            .summary
            .steps
            .iter()
            .map(|s| s.wall_time.as_secs_f64())
            .collect();
        json!({
            "wall_time_s": wall,
            "step_wall_time_s": steps,
            "phase_shares": (shares(&self.phases.parts())),
            "stage_shares": (shares(&self.phases.batch.parts()))
        })
    }
}

/// Table X — summary of model evaluation results: for every cell, the
/// Growing and Fully-Retrain models and the four scikit-learn-style
/// baselines, by average accuracy, average Group-0 F1 and total epochs
/// (the MLP and the ensemble count epochs too; Ridge and SGD do not).
/// The two ANN models also list each step and their capped steps.
fn table10_model_comparison(run: &PaperRun) -> Value {
    let (mut cells, mut wall) = (Vec::new(), Vec::new());
    for cell in CellSet::all() {
        let steps = run.replay(cell).steps;
        let (mut models, mut times) = (Vec::new(), Vec::new());
        for kind in [ModelKind::Growing, ModelKind::FullyRetrain] {
            let ann = AnnRun::new(kind, &steps, run.seed);
            let s = &ann.summary;
            models.push(json!({
                "model": (s.model),
                "avg_accuracy": (s.avg_accuracy),
                "avg_group0_f1": (s.avg_group0_f1),
                "epochs_total": (s.epochs_total),
                "capped_steps": (ann.capped_steps()),
                "steps": ((0..steps.len()).map(|i| ann.step(i)).collect::<Vec<_>>())
            }));
            times.push((s.model.clone(), json!((s.wall_time_total.as_secs_f64()))));
        }
        for kind in BaselineKind::all() {
            let s = run_baseline_over_steps(kind, &steps, 0.25, run.seed);
            let epochs = matches!(kind, BaselineKind::Mlp | BaselineKind::Ensemble);
            models.push(json!({
                "model": (s.model),
                "avg_accuracy": (s.avg_accuracy),
                "avg_group0_f1": (s.avg_group0_f1),
                "epochs_total": (epochs.then_some(s.epochs_total))
            }));
            times.push((s.model.clone(), json!((s.wall_time_total.as_secs_f64()))));
        }
        let name = cell.profile().name;
        cells.push(json!({"cell": name, "models": models}));
        wall.push((name.to_string(), Value::Object(times)));
    }
    json!({
        "title": "Table X. Summary of model evaluation results",
        "cells": cells,
        "_meta": {"wall_time_s": (Value::Object(wall))}
    })
}

/// Table XI — the per-step run on clusterdata-2019c: each feature-array
/// extension (simulated day and time, width, new columns, rows) with
/// the Growing and Fully-Retrain models' accuracy, Group-0 F1, epochs,
/// attempts and acceptance. The epoch reduction is stated over all
/// steps and over the steps neither model capped, since a capped step's
/// epochs are the limit, not a measurement.
fn table11_2019c_steps(run: &PaperRun) -> Value {
    let cell = CellSet::C2019c;
    let steps = run.replay(cell).steps;
    let growing = AnnRun::new(ModelKind::Growing, &steps, run.seed);
    let retrain = AnnRun::new(ModelKind::FullyRetrain, &steps, run.seed);
    let rows: Vec<Value> = growing
        .summary
        .steps
        .iter()
        .enumerate()
        .map(|(i, s)| {
            json!({
                "step": (s.step),
                "time": (s.label),
                "features": (s.features),
                "new_features": (s.new_features),
                "rows": (s.rows),
                "growing": (growing.step(i)),
                "fully_retrain": (retrain.step(i))
            })
        })
        .collect();
    let reduction = |g: usize, f: usize| 1.0 - g as f64 / f.max(1) as f64;
    let uncapped: Vec<bool> = growing
        .accepted
        .iter()
        .zip(&retrain.accepted)
        .map(|(&g, &f)| g && f)
        .collect();
    let (g, f) = (growing.epochs(&uncapped), retrain.epochs(&uncapped));
    let (g_all, f_all) = (growing.summary.epochs_total, retrain.summary.epochs_total);
    json!({
        "title": "Table XI. Model evaluation results for clusterdata-2019c",
        "cell": (cell.profile().name),
        "steps": rows,
        "growing": (growing.totals()),
        "fully_retrain": (retrain.totals()),
        "epoch_reduction": (reduction(g_all, f_all)),
        "uncapped_steps": {
            "growing_epochs": g,
            "fully_retrain_epochs": f,
            "epoch_reduction": (reduction(g, f))
        },
        "_meta": {"growing": (growing.host()), "fully_retrain": (retrain.host())}
    })
}

/// Fig. 3 — scheduling with the Task CO Analyzer: the Growing model
/// trained over a clusterdata-2019c trace's dataset steps routes
/// predicted Group-0 tasks to the high-priority scheduler. The trace's
/// 31 days are compressed onto 20 minutes so the main queue backs up,
/// the loaded regime where head-of-line blocking hurts restrictive
/// tasks; the same arrivals then run under the main queue only, the
/// trained analyzer and the ground-truth oracle. Latencies are in µs.
fn fig3_scheduler_latency(run: &PaperRun) -> Value {
    let cell = CellSet::C2019c;
    let trace = run.trace(cell);
    let out = Replayer::default().replay(&trace);
    let mut model = GrowingModel::new(TrainConfig::default());
    for (i, step) in out.steps.iter().enumerate() {
        model.step(&step.vv, run.seed.wrapping_add(i as u64));
    }
    let analyzer = model.analyzer(out.vocab.clone());
    let analyzer_fields = json!({
        "features": (analyzer.features()),
        "priority_threshold": (analyzer.priority_threshold)
    });
    let (cluster, mut arrivals) = arrivals_from_trace(&trace, 6_000);
    compress_timeline(&mut arrivals, SimTime::from_micros(20 * 60 * 1_000_000));
    let sim = Simulator::new(SimConfig {
        cycle: 1_000_000,
        attempts_per_cycle: 4,
        mean_runtime: 60_000_000,
        horizon: 3_600_000_000,
        seed: run.seed,
    });
    // One fleet, three policy runs, each on its own copy-on-write clone.
    let registry = ModelRegistry::new();
    registry.install(analyzer);
    let policy = |name: &str, scheduler: &mut dyn Scheduler| {
        let r = sim.harness(cluster.clone(), &arrivals, scheduler).run().1;
        json!({
            "policy": name,
            "group0": (r.group0_latency()),
            "other": (r.other_latency()),
            "preemptions": (r.preemptions),
            "unplaced": (r.unplaced)
        })
    };
    let policies = vec![
        policy("main-only", &mut MainOnly),
        policy("enhanced (CTLM)", &mut LiveRegistry::new(registry)),
        policy("enhanced (oracle)", &mut OracleEnhanced),
    ];
    json!({
        "title": "Fig. 3. Enhanced cluster job scheduling with the Task CO Analyzer",
        "cell": (cell.profile().name),
        "analyzer": analyzer_fields,
        "arrivals": (arrivals.len()),
        "policies": policies
    })
}

/// The feature-batch ablation's synthetic problem at one visible width:
/// labels depend on how many of the first `full_width` columns are
/// marked, but only the first `visible` columns are encoded.
fn batch_dataset(full_width: usize, visible: usize, seed: u64) -> Dataset {
    let mut rng = ctlm_tensor::init::seeded_rng(seed);
    let mut b = DatasetBuilder::new(visible, NUM_GROUPS);
    for _ in 0..2_000 {
        let group: u8 = if rng.gen_bool(0.03) {
            0
        } else {
            rng.gen_range(1..NUM_GROUPS as u8)
        };
        let marks = 2 + (group as usize * (full_width - 4)) / NUM_GROUPS;
        let entries: Vec<(usize, f32)> = (0..marks.min(visible)).map(|c| (c, 1.0)).collect();
        b.push(entries, group);
    }
    b.snapshot(visible)
}

/// Ablation (§VI) — features added per extension step. The paper:
/// adding over 40–50 features at once often reduces accuracy and forces
/// full retraining. Step A trains on a feature array truncated by
/// `batch` columns; step B widens it to all 180, whose signal the
/// transfer path must learn. `fell_back` is a step B that trained from
/// scratch or needed more than one attempt.
fn ablation_feature_batch(run: &PaperRun) -> Value {
    let (full, seed) = (180, run.seed);
    let rows: Vec<Value> = [10usize, 25, 40, 60, 100]
        .into_iter()
        .map(|batch| {
            let mut model = GrowingModel::new(TrainConfig::default());
            let a = model.step(&batch_dataset(full, full - batch, seed), seed);
            let b = model.step(&batch_dataset(full, full, seed + 1), seed + 1);
            json!({
                "batch": batch,
                "accuracy_a": (a.evaluation.accuracy),
                "accuracy_b": (b.evaluation.accuracy),
                "epochs_b": (b.epochs),
                "accepted_b": (b.accepted),
                "fell_back": (!b.used_transfer || b.attempts > 1)
            })
        })
        .collect();
    json!({
        "title": "Ablation: features added per extension step",
        "full_width": full,
        "rows": rows
    })
}

/// Ablation (§VI) — the pre-trained gradient rate, Listing 3's 0.1.
/// The paper: a scaling factor above 20–30 % negated training, and
/// zeroing the pre-trained weights' gradients lost accuracy. The
/// Growing model reruns Table XI's steps at each rate;
/// `steps_above_accepted_accuracy` counts the steps whose test accuracy
/// exceeds the acceptance threshold.
fn ablation_gradient_rate(run: &PaperRun) -> Value {
    let cell = CellSet::C2019c;
    let steps = run.replay(cell).steps;
    let rows: Vec<Value> = [0.0f64, 0.05, 0.1, 0.2, 0.3, 0.5, 1.0]
        .into_iter()
        .map(|rate| {
            let cfg = TrainConfig {
                pretrained_gradient_rate: rate as f32,
                ..TrainConfig::default()
            };
            let s = run_model_over_steps(ModelKind::Growing, &steps, cfg, run.seed);
            let above = s
                .steps
                .iter()
                .filter(|s| s.evaluation.accuracy > cfg.accepted_accuracy);
            json!({
                "rate": rate,
                "avg_accuracy": (s.avg_accuracy),
                "avg_group0_f1": (s.avg_group0_f1),
                "epochs_total": (s.epochs_total),
                "steps_above_accepted_accuracy": (above.count()),
                "steps": (s.steps.len())
            })
        })
        .collect();
    json!({
        "title": "Ablation: the pre-trained gradient rate",
        "cell": (cell.profile().name),
        "rows": rows
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_grow_monotonically() {
        let cell = CellSet::C2019c;
        let machines = |scale| PaperRun { seed: 1, scale }.scale(cell).machines;
        let small = machines(PaperScale::Small);
        let medium = machines(PaperScale::Medium);
        let full = machines(PaperScale::Full);
        assert!(small < medium && medium < full, "{small} {medium} {full}");
        assert_eq!(full, Scale::full(&cell.profile(), 1).machines);
        assert_eq!(full, 12_600);
    }
}

//! `ctl_steps`: the paper's continuous-transfer-learning loop with no
//! simulator — generate a trace, replay it into dataset steps, train the
//! Growing and Fully-Retrain models across the steps, classify every
//! constrained task with the final growing model.

use std::path::Path;
use std::time::Duration;

use serde::Deserialize;

use ctlm_agocs::{DatasetStep, ReplayOutput, Replayer};
use ctlm_core::pipeline::{run_model_over_steps, ModelKind};
use ctlm_core::{
    FullRetrainModel, GrowingModel, RunSummary, StepOutcome, TaskCoAnalyzer, TrainConfig,
};
use ctlm_data::compaction::collapse;
use ctlm_trace::{CellSet, EventPayload, GeneratedTrace, Scale, TaskConstraint, TraceGenerator};

use crate::probes::{self, put, Layer};
use crate::spans::Recorder;
use crate::{digest, Facts, RepOutput};

/// `specs/ctl_steps.json`.
#[derive(Clone, Debug, Deserialize)]
pub struct CtlSpec {
    pub cell: CellSet,
    pub machines: usize,
    pub collections: usize,
    /// Seed of the generated trace, pinned: the generator draws one
    /// seasonal phase per trace, which moves the cost of a whole pass by
    /// half between trace seeds. `--seed` drives everything downstream
    /// (train/test splits, initial weights, batch order).
    pub trace_seed: u64,
    /// Epochs every model trains at every dataset step. The timed loop
    /// switches the accuracy exit off and trains exactly this long, so
    /// its cost is fixed by the input; how many epochs the paper's exit
    /// rule would have taken is counted separately by the traced run.
    pub epochs_per_step: usize,
}

pub struct CtlWorkload {
    pub spec: CtlSpec,
    pub seed: u64,
    pub trace: GeneratedTrace,
    pub replay: ReplayOutput,
    /// The final growing model, trained once before the first
    /// repetition (`run_model_over_steps` does not hand its model out).
    analyzer: Option<TaskCoAnalyzer>,
}

/// One set-up pass: parse the spec, generate the trace, replay it into
/// dataset steps.
pub fn prepare(root: &Path, seed: u64, quick: bool) -> Result<CtlWorkload, String> {
    let path = root.join("specs/ctl_steps.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    let mut spec: CtlSpec = serde_json::from_str(&text).map_err(|e| format!("{path:?}: {e}"))?;
    if quick {
        spec.collections /= 2;
        spec.epochs_per_step = (spec.epochs_per_step / 10).max(1);
    }
    let trace = TraceGenerator::generate_cell(
        spec.cell,
        Scale {
            machines: spec.machines,
            collections: spec.collections,
            seed: spec.trace_seed,
        },
    );
    let replay = Replayer::default().replay(&trace);
    if replay.steps.is_empty() {
        return Err("ctl_steps: the replay produced no dataset step".into());
    }
    Ok(CtlWorkload {
        spec,
        seed,
        trace,
        replay,
        analyzer: None,
    })
}

impl CtlWorkload {
    pub fn steps(&self) -> &[DatasetStep] {
        &self.replay.steps
    }

    /// The fixed training budget of the timed loop: the paper's
    /// hyper-parameters with the accuracy exit out of reach.
    pub fn fixed_budget(&self) -> TrainConfig {
        TrainConfig {
            epochs_limit: self.spec.epochs_per_step,
            max_attempts: 1,
            accepted_accuracy: 2.0,
            ..TrainConfig::default()
        }
    }

    /// Dataset rows summed over steps, for both models.
    pub fn work(&self) -> u64 {
        2 * self.steps().iter().map(|s| s.vv.len() as u64).sum::<u64>()
    }

    pub fn constrained_tasks(&self) -> impl Iterator<Item = &[TaskConstraint]> {
        self.trace.events.iter().filter_map(|e| match &e.payload {
            EventPayload::TaskSubmit(t) if t.has_constraints() => Some(t.constraints.as_slice()),
            _ => None,
        })
    }

    /// Trains the growing model whose analyzer the repetitions classify
    /// with. Not part of any timing.
    pub fn warm_up(&mut self) {
        let mut model = GrowingModel::new(self.fixed_budget());
        for (i, step) in self.replay.steps.iter().enumerate() {
            model.step(&step.vv, self.seed.wrapping_add(i as u64));
        }
        self.analyzer = Some(self.analyzer_of(&model));
    }

    pub fn analyzer_of(&self, model: &GrowingModel) -> TaskCoAnalyzer {
        TaskCoAnalyzer::new(
            model.to_net_padded(self.replay.vocab.len()),
            self.replay.vocab.clone(),
        )
    }

    pub fn analyzer(&self) -> &TaskCoAnalyzer {
        self.analyzer.as_ref().expect("warm_up ran")
    }

    /// One repetition: both models over all steps through the pipeline
    /// entry point, then one classification per constrained task.
    pub fn repetition(&self) -> Result<RepOutput, String> {
        let cfg = self.fixed_budget();
        let growing = run_model_over_steps(ModelKind::Growing, self.steps(), cfg, self.seed);
        let retrain = run_model_over_steps(ModelKind::FullyRetrain, self.steps(), cfg, self.seed);
        let analyzer = self.analyzer();
        let groups: Vec<u8> = self
            .constrained_tasks()
            .map(|c| analyzer.predict_group(c).unwrap_or(u8::MAX))
            .collect();
        self.output(growing, retrain, &groups)
    }

    /// Checks one repetition's results and extracts its exact figures.
    pub fn output(
        &self,
        growing: RunSummary,
        retrain: RunSummary,
        groups: &[u8],
    ) -> Result<RepOutput, String> {
        let n = self.steps().len();
        if growing.steps.len() != n || retrain.steps.len() != n {
            return Err(format!(
                "ctl_steps: {n} dataset steps but {} growing and {} retrain records",
                growing.steps.len(),
                retrain.steps.len()
            ));
        }
        if groups.len() != self.trace.constrained_tasks {
            return Err(format!(
                "ctl_steps: classified {} of {} constrained tasks",
                groups.len(),
                self.trace.constrained_tasks
            ));
        }
        let facts = step_facts(&figures(&growing));
        // Wall times are the only host-dependent fields of a summary.
        let rendered: Vec<String> = [growing, retrain]
            .into_iter()
            .map(|mut s| {
                s.wall_time_total = Duration::ZERO;
                s.steps
                    .iter_mut()
                    .for_each(|r| r.wall_time = Duration::ZERO);
                serde_json::to_string(&s).expect("finite summary")
            })
            .chain([format!("{groups:?}")])
            .collect();
        Ok(RepOutput {
            digest: digest(&rendered),
            bytes: rendered.iter().map(String::len).sum(),
            facts,
        })
    }
}

/// What one model did at one dataset step.
struct StepFigures {
    rows: usize,
    /// Test accuracy after the step's training.
    accuracy: f64,
    epochs: usize,
}

fn figures(summary: &RunSummary) -> Vec<StepFigures> {
    summary
        .steps
        .iter()
        .map(|s| StepFigures {
            rows: s.rows,
            accuracy: s.evaluation.accuracy,
            epochs: s.epochs,
        })
        .collect()
}

/// The growing model's quality over the steps: its worst step, and the
/// row-weighted share of misclassified test rows.
fn step_facts(growing: &[StepFigures]) -> Facts {
    let accuracy_min = growing
        .iter()
        .map(|s| s.accuracy)
        .fold(f64::INFINITY, f64::min);
    let (wrong, rows) = growing.iter().fold((0.0, 0.0), |(w, r), s| {
        (w + (1.0 - s.accuracy) * s.rows as f64, r + s.rows as f64)
    });
    vec![
        ("result.accuracy_min", accuracy_min),
        ("result.fail_ratio", wrong / rows),
    ]
}

/// What one model did over all steps, read from its step outcomes.
struct ModelRun {
    figures: Vec<StepFigures>,
    attempts: usize,
    /// Steps that ran into the epoch limit without meeting the
    /// accuracy exit.
    capped: usize,
}

impl ModelRun {
    fn epochs(&self) -> usize {
        self.figures.iter().map(|f| f.epochs).sum()
    }
}

impl CtlWorkload {
    /// Both models over all steps, one `step` call per span.
    fn stepwise(
        &self,
        rec: &mut Recorder,
        cfg: TrainConfig,
        prefix: &str,
    ) -> (ModelRun, ModelRun, GrowingModel) {
        let mut growing = GrowingModel::new(cfg);
        let mut retrain = FullRetrainModel::new(cfg);
        let run = |rec: &mut Recorder,
                   name: &str,
                   step: &mut dyn FnMut(&DatasetStep, u64) -> StepOutcome| {
            let mut m = ModelRun {
                figures: Vec::new(),
                attempts: 0,
                capped: 0,
            };
            for (i, s) in self.steps().iter().enumerate() {
                let out = rec.span("core", name, |rec| {
                    let out = step(s, self.seed.wrapping_add(i as u64));
                    rec.count("step", i as f64);
                    rec.count("rows", s.vv.len() as f64);
                    rec.count("features", s.features_count as f64);
                    rec.count("epochs", out.epochs as f64);
                    out
                });
                m.figures.push(StepFigures {
                    rows: s.vv.len(),
                    accuracy: out.evaluation.accuracy,
                    epochs: out.epochs,
                });
                m.attempts += out.attempts;
                m.capped += usize::from(!out.accepted);
            }
            m
        };
        let g = run(rec, &format!("{prefix}.growing.step"), &mut |s, seed| {
            growing.step(&s.vv, seed)
        });
        let f = run(rec, &format!("{prefix}.retrain.step"), &mut |s, seed| {
            retrain.step(&s.vv, seed)
        });
        (g, f, growing)
    }

    /// The traced pass — the repetition's work composed from
    /// `GrowingModel::step` / `FullRetrainModel::step` — then the
    /// convergence count under the paper's exit rule and the standalone
    /// layer probes.
    pub fn traced(&self, rec: &mut Recorder, out: &mut Layer) -> Result<RepOutput, String> {
        let tasks: Vec<&[TaskConstraint]> = self.constrained_tasks().collect();
        let (g, f, groups) = rec.span("driver", "pass", |rec| {
            let (g, f, model) = self.stepwise(rec, self.fixed_budget(), "core");
            let analyzer = self.analyzer_of(&model);
            let groups: Vec<u8> = rec.span("core", "core.predict", |rec| {
                rec.count("calls", tasks.len() as f64);
                tasks
                    .iter()
                    .map(|c| analyzer.predict_group(c).unwrap_or(u8::MAX))
                    .collect()
            });
            (g, f, groups)
        });
        // The classifications must be the ones the repetitions make with
        // the warm-up model: same data, same seeds, same budget.
        let same = groups.len() == self.trace.constrained_tasks
            && tasks
                .iter()
                .zip(&groups)
                .all(|(c, g)| self.analyzer().predict_group(c).unwrap_or(u8::MAX) == *g);
        if !same {
            return Err("ctl_steps: the traced pass classified tasks differently".to_string());
        }
        let result = RepOutput {
            digest: 0,
            bytes: 0,
            facts: step_facts(&g.figures),
        };
        let wall = |name: &str| rec.total_s(name);
        let (g_s, f_s) = (wall("core.growing.step"), wall("core.retrain.step"));
        put(out, "core.growing.wall_s", g_s);
        put(out, "core.retrain.wall_s", f_s);
        put(
            out,
            "core.epoch_ms",
            (g_s + f_s) * 1e3 / (g.epochs() + f.epochs()) as f64,
        );
        let slowest = rec
            .spans
            .iter()
            .filter(|s| s.name == "core.growing.step" || s.name == "core.retrain.step")
            .map(|s| s.seconds())
            .fold(0.0, f64::max);
        put(out, "core.step_s.max", slowest);

        // How long the paper's exit rule (accuracy > 0.95 and Group-0
        // F1 > 0.9 within 100 epochs, else start over) would have
        // trained. Two attempts, not the paper's ten: a step that fails
        // twice keeps failing, and eight more tries only add minutes.
        let paper = TrainConfig {
            max_attempts: 2,
            ..TrainConfig::default()
        };
        let (pg, pf, _) = rec.span("core", "probe.core.convergence", |rec| {
            self.stepwise(rec, paper, "probe.core")
        });
        let steps = self.steps().len() as f64;
        put(out, "core.growing.epochs", pg.epochs() as f64);
        put(out, "core.growing.attempts", pg.attempts as f64);
        put(out, "core.growing.capped_steps", pg.capped as f64);
        put(out, "core.retrain.epochs", pf.epochs() as f64);
        put(out, "core.retrain.attempts", pf.attempts as f64);
        put(out, "core.retrain.capped_steps", pf.capped as f64);
        put(out, "core.converged_ratio", 1.0 - pg.capped as f64 / steps);
        put(
            out,
            "result.epoch_ratio",
            pg.epochs() as f64 / pf.epochs().max(1) as f64,
        );
        for (name, value) in step_facts(&pg.figures) {
            put(out, name, value);
        }

        self.probe_layers(rec, &tasks, out);
        Ok(result)
    }

    /// Trace generation, replay, attribute index, encoding, kernels and
    /// single-task inference, each on its own.
    fn probe_layers(&self, rec: &mut Recorder, tasks: &[&[TaskConstraint]], out: &mut Layer) {
        let trace = probes::generate_trace(rec, self.spec.cell, self.trace.scale, out);
        rec.span("agocs", "probe.agocs.replay", |rec| {
            let t = std::time::Instant::now();
            let replay = Replayer::default().replay(&trace);
            put(out, "agocs.replay_s", t.elapsed().as_secs_f64());
            put(out, "agocs.replay.steps", replay.steps.len() as f64);
            rec.count("rows", replay.total_rows as f64);
        });
        let collapsed: Vec<_> = tasks.iter().filter_map(|c| collapse(c).ok()).collect();
        let reqs: Vec<_> = collapsed.iter().map(Vec::as_slice).collect();
        probes::attr_index(rec, &probes::trace_machines(&trace), &reqs, out);
        // Labels do not change what encoding or a training batch costs.
        let labels: Vec<u8> = (0..reqs.len()).map(|i| (i % 26) as u8).collect();
        let ds = probes::encode(rec, &reqs, &labels, &self.replay.vocab, out);
        probes::kernels(rec, &ds, out);
        probes::predict(rec, self.analyzer(), tasks, out);
    }
}

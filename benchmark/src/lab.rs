//! The four workloads that go through the `ctlm-lab` harness:
//! `fig3_trace`, `scale_steady`, `chaos_mix` and `chaos_observed`.

use std::path::Path;

use ctlm_lab::build::{build_cell, BuiltCell};
use ctlm_lab::flight::trace_document;
use ctlm_lab::report::{to_pretty_json, CellRun, LabReport};
use ctlm_lab::run::ArrivalMode;
use ctlm_lab::spec::WorkloadSpec;
use ctlm_lab::{run_spec_observed, ExperimentSpec, Observations};
use ctlm_telemetry::Metrics;

use crate::{digest, Facts, RepOutput};

/// A lab workload after one set-up pass.
pub struct LabWorkload {
    pub name: &'static str,
    pub spec_text: String,
    pub spec: ExperimentSpec,
    /// One standalone build of every cell, materialised: the task
    /// population the run will submit.
    pub cells: Vec<BuiltCell>,
}

/// One set-up pass: read and parse the spec, thread the seed in, build
/// every cell once.
pub fn prepare(
    name: &'static str,
    root: &Path,
    seed: u64,
    quick: bool,
) -> Result<LabWorkload, String> {
    let path = root.join("specs").join(format!("{name}.json"));
    let spec_text =
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    let mut spec = ExperimentSpec::from_json(&spec_text).map_err(|e| e.to_string())?;
    spec.sim.seed = seed;
    if quick {
        shrink(&mut spec, 10);
    }
    if spec.execution.threads != 1 {
        return Err(format!("{name}: spec must carry execution.threads = 1"));
    }
    let cells = spec
        .cell_specs()
        .iter()
        .enumerate()
        .map(|(i, cs)| build_cell(cs, &spec.sim, i, false).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(LabWorkload {
        name,
        spec_text,
        spec,
        cells,
    })
}

/// Divides every population of the spec by `by` and stretches arrival
/// gaps to match, keeping the load per machine: the `--quick` sizes.
fn shrink(spec: &mut ExperimentSpec, by: usize) {
    use ctlm_lab::spec::ArrivalProcess::{Exponential, Pareto, Uniform};
    let div = |n: &mut usize| *n = (*n / by).max(1);
    div(&mut spec.sim.attempts_per_cycle);
    let shrink_cell = |w: &mut WorkloadSpec, s: &mut ctlm_lab::spec::ScenarioSpec| {
        match w {
            WorkloadSpec::Trace(t) => {
                div(&mut t.machines);
                div(&mut t.collections);
                div(&mut t.max_tasks);
            }
            WorkloadSpec::Synthetic(w) => {
                w.machines.iter_mut().for_each(|g| div(&mut g.count));
                div(&mut w.tasks);
                match &mut w.arrival {
                    Uniform { gap } => *gap *= by as u64,
                    Exponential { mean_gap } => *mean_gap *= by as u64,
                    Pareto { lo, hi, .. } => {
                        *lo *= by as f64;
                        *hi *= by as f64;
                    }
                }
                if let Some(r) = &mut w.restrictive {
                    div(&mut r.count);
                    r.period *= by as u64;
                }
            }
        }
        if let Some(c) = &mut s.churn {
            div(&mut c.failures);
        }
        if let Some(g) = &mut s.gangs {
            div(&mut g.size);
        }
        if let Some(a) = &mut s.autoscale {
            div(&mut a.min);
            div(&mut a.max);
            div(&mut a.warm_pool);
            for p in [&mut a.params.up_pending, &mut a.params.step] {
                *p = p.map(|v| (v / by as u64).max(1));
            }
        }
    };
    if let Some(w) = &mut spec.workload {
        shrink_cell(w, &mut spec.scenario);
    }
    for cell in &mut spec.cells {
        shrink_cell(&mut cell.workload, &mut cell.scenario);
    }
}

impl LabWorkload {
    /// Tasks submitted, summed over schedulers and cells — fixed by the
    /// input, whatever the program does with them.
    pub fn work(&self) -> u64 {
        let per_scheduler: usize = self
            .cells
            .iter()
            .map(|c| {
                c.arrivals.list().map_or(0, <[_]>::len)
                    + c.gangs.iter().map(|(_, g)| g.len()).sum::<usize>()
            })
            .sum();
        (per_scheduler * self.spec.scheduler_names().len()) as u64
    }

    /// Whether the run records spans, so that its user also gets the
    /// span document and the metrics registry (`chaos_observed`).
    pub fn observed(&self) -> bool {
        self.spec.observability.spans
    }

    /// One repetition through the entry point users call: run the spec,
    /// then render everything the run hands its user into strings.
    pub fn repetition(&self) -> Result<RepOutput, String> {
        let (report, obs) =
            run_spec_observed(&self.spec, ArrivalMode::Streaming).map_err(|e| e.to_string())?;
        let mut rendered = vec![to_pretty_json(&report)];
        if self.observed() {
            rendered.push(to_pretty_json(&trace_document(&obs, false)));
            rendered.push(to_pretty_json(&serde::Serialize::to_value(&obs.metrics)));
        }
        self.output(&report, &obs, &rendered)
    }

    /// Checks the simulator's laws on one repetition's results and
    /// extracts its exact (simulated) statistics.
    pub fn output(
        &self,
        report: &LabReport,
        obs: &Observations,
        rendered: &[String],
    ) -> Result<RepOutput, String> {
        let [run] = report.runs.as_slice() else {
            return Err(format!("{}: expected one run in the report", self.name));
        };
        let m = &obs.metrics;
        let mut facts = Facts::new();
        let (mut placed, mut unplaced, mut dead, mut admitted) = (0u64, 0u64, 0u64, 0u64);
        let (mut lat_sum, mut lat_n) = (0.0f64, 0u64);
        for sched in &run.schedulers {
            let (mut spill_in, mut spill_out, mut dynamic) = (0u64, 0u64, 0u64);
            for cell in &sched.cells {
                let p = format!("{}.{}", sched.scheduler, cell.cell);
                let counter = |n: &str| m.counter_value(&format!("{p}.engine.{n}")).unwrap_or(0);
                let cell_admitted = counter("admitted_arrivals")
                    + counter("admitted_dynamic")
                    + counter("admitted_gang_members");
                // Every admitted task ends placed (dead-lettered ones
                // keep their placed record) or unplaced at the horizon.
                if cell_admitted != (cell.placed + cell.unplaced) as u64 {
                    return Err(format!(
                        "{p}: task conservation broken: admitted {cell_admitted} != placed {} + unplaced {}",
                        cell.placed, cell.unplaced
                    ));
                }
                admitted += cell_admitted;
                placed += cell.placed as u64;
                unplaced += cell.unplaced as u64;
                dead += cell.recovery.as_ref().map_or(0, |r| r.dead_lettered);
                spill_in += cell.spilled_in as u64;
                spill_out += cell.spilled_out as u64;
                dynamic += counter("admitted_dynamic");
                for s in [&cell.group0, &cell.other].into_iter().flatten() {
                    lat_sum += s.mean * s.count as f64;
                    lat_n += s.count as u64;
                }
            }
            // A spilled task is admitted exactly once, by the cell that
            // took it in.
            if spill_in != spill_out || spill_in != dynamic {
                return Err(format!(
                    "{}: spill conservation broken: in {spill_in}, out {spill_out}, admitted dynamically {dynamic}",
                    sched.scheduler
                ));
            }
        }
        if admitted > self.work() {
            return Err(format!(
                "{}: admitted {admitted} tasks but only {} were submitted",
                self.name,
                self.work()
            ));
        }
        facts.push(("sim.events", kernel_pops(m) as f64));
        facts.push(("sched.placed", placed as f64));
        facts.push(("sched.admitted", admitted as f64));
        facts.push((
            "result.fail_ratio",
            (unplaced + dead) as f64 / admitted.max(1) as f64,
        ));
        let g0_mean = |name: &str| -> Option<f64> {
            let s = run.schedulers.iter().find(|s| s.scheduler == name)?;
            group0_mean(&s.cells)
        };
        if let (Some(main), Some(enhanced)) = (g0_mean("main_only"), g0_mean("enhanced")) {
            // The Fig. 3 quantities: constrained-task latency with the
            // analyzer, and how much the analyzer bought.
            facts.push(("result.sched_latency_ms", enhanced / 1e3));
            facts.push(("result.g0_speedup", main / enhanced));
            if let Some(oracle) = g0_mean("oracle") {
                facts.push(("result.g0_speedup_oracle", main / oracle));
            }
        } else {
            facts.push((
                "result.sched_latency_ms",
                lat_sum / lat_n.max(1) as f64 / 1e3,
            ));
        }
        Ok(RepOutput {
            digest: digest(rendered),
            bytes: rendered.iter().map(String::len).sum(),
            facts,
        })
    }
}

/// Count-weighted Group-0 mean latency (µs) over a scheduler's cells.
fn group0_mean(cells: &[CellRun]) -> Option<f64> {
    let (sum, n) = cells
        .iter()
        .filter_map(|c| c.group0.as_ref())
        .fold((0.0, 0usize), |(s, n), g| {
            (s + g.mean * g.count as f64, n + g.count)
        });
    (n > 0).then(|| sum / n as f64)
}

/// Events the kernel delivered, over every scheduler and cell.
fn kernel_pops(m: &Metrics) -> u64 {
    m.counters_sorted()
        .iter()
        .filter(|(name, _)| name.contains(".kernel.pop_"))
        .map(|&(_, v)| v)
        .sum()
}

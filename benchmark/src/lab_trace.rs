//! The traced pass of the lab workloads: `run_spec_observed` for a
//! single grid point, composed one public call at a time with a span
//! around each, the counts every layer reports read back afterwards,
//! then the standalone layer probes.

use std::time::Instant;

use ctlm_lab::build::build_cell;
use ctlm_lab::flight::trace_document;
use ctlm_lab::registry::train_analyzer;
use ctlm_lab::report::{summarize, to_pretty_json, CellRun, LabReport, RunReport, SchedulerRun};
use ctlm_lab::run::{run_scheduler_observed, ArrivalMode, CellOutcome};
use ctlm_lab::spec::WorkloadSpec;
use ctlm_lab::{run_spec_observed, ExperimentSpec, Observations};
use ctlm_sim::ParallelPerf;
use ctlm_telemetry::Histogram;
use ctlm_trace::{EventPayload, Scale, TaskConstraint};
use serde_json::Value;

use crate::lab::LabWorkload;
use crate::probes::{self, put, Layer};
use crate::spans::Recorder;
use crate::RepOutput;

/// Counts read back from the layers after each scheduler's run, summed
/// over schedulers and cells under the metric name they are printed by.
#[derive(Default)]
struct Tally {
    counts: Vec<(&'static str, f64)>,
    main_depth: Histogram,
    /// Per-shard time inside `run_before`, from the run's own profile.
    shard_run_ns: Vec<u64>,
}

impl Tally {
    fn slot(&mut self, name: &'static str) -> &mut f64 {
        let i = match self.counts.iter().position(|(n, _)| *n == name) {
            Some(i) => i,
            None => {
                self.counts.push((name, 0.0));
                self.counts.len() - 1
            }
        };
        &mut self.counts[i].1
    }

    fn add(&mut self, name: &'static str, value: u64) {
        *self.slot(name) += value as f64;
    }

    fn get(&self, name: &str) -> f64 {
        self.counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }

    fn read(&mut self, outcomes: &[CellOutcome], perf: Option<&ParallelPerf>) {
        for o in outcomes {
            let t = &o.telemetry;
            self.add(
                "sim.events",
                t.lanes.pop_wheel + t.lanes.pop_heap + t.lanes.pop_sorted,
            );
            self.add("sim.lane.wheel_share", t.lanes.pop_wheel);
            self.add("sim.lane.heap_share", t.lanes.pop_heap);
            self.add("sim.lane.sorted_share", t.lanes.pop_sorted);
            self.add("sched.cycles", t.stats.cycles);
            self.add("sched.preempted", o.result.preemptions as u64);
            self.add("sched.no_capacity", t.stats.no_capacity);
            self.add("sched.infeasible", t.stats.infeasible);
            self.add("sched.spill_requests", t.stats.spill_requests);
            self.main_depth.merge(&t.stats.main_depth);
            self.add("sched.arena.retired", t.slab_retired);
            self.add("sched.arena.resident", t.slab_resident as u64);
            if let Some(f) = &t.faults {
                self.add("sched.faults.crashed", f.crashed_machines);
                self.add("sched.faults.lost", f.tasks_lost);
                self.add("sched.faults.retries", f.retries_scheduled);
                self.add("sched.faults.dead_lettered", f.dead_lettered);
            }
            if let Some(r) = &o.recovery {
                self.add("sched.faults.link_timeouts", r.link_timeouts);
            }
            if let Some(a) = &o.autoscale {
                self.add("autoscale.fleet_samples", a.timeline.len() as u64);
                self.add("autoscale.scale_ups", a.scale_ups as u64);
                self.add("autoscale.scale_downs", a.scale_downs as u64);
                let peak = self.slot("autoscale.fleet_peak");
                *peak = peak.max(a.peak_active() as f64);
            }
            if let Some(log) = &t.spans {
                self.add("telemetry.spans.records", log.len() as u64);
                // `ctlm_telemetry::spans` keeps 1024 records a segment.
                self.add("telemetry.spans.segments", log.len().div_ceil(1024) as u64);
            }
            if let Some(ring) = &t.trace {
                self.add("telemetry.trace.events", ring.recorded());
            }
        }
        if let Some(p) = perf {
            self.add("sim.parallel.rounds", p.rounds);
            self.add("sim.parallel.drain_s", p.drain_ns);
            if self.shard_run_ns.len() < p.shard_run_ns.len() {
                self.shard_run_ns.resize(p.shard_run_ns.len(), 0);
            }
            for (acc, ns) in self.shard_run_ns.iter_mut().zip(&p.shard_run_ns) {
                *acc += ns;
            }
        }
    }
}

impl LabWorkload {
    /// The traced pass, the probes, and every per-layer metric of this
    /// workload written to `out`.
    pub fn traced(&self, rec: &mut Recorder, out: &mut Layer) -> Result<RepOutput, String> {
        let mut tally = Tally::default();
        let result = rec.span("driver", "pass", |rec| {
            self.traced_pass(rec, &mut tally, out)
        })?;
        let fact = |name: &str| {
            let found = result.facts.iter().find(|(k, _)| *k == name);
            found.map_or(0.0, |&(_, v)| v)
        };

        let schedulers = self.spec.scheduler_names();
        let n_sched = schedulers.len() as f64;
        let build_s = self.probe_build(rec, out);
        let train_s = self.probe_model_path(rec, out);
        for name in ["main_only", "enhanced", "oracle", "live_registry"] {
            let s = rec.total_s(&format!("lab.run.{name}"));
            put(out, &format!("lab.run.{name}_s"), s);
        }
        let run_total: f64 = schedulers
            .iter()
            .map(|n| rec.total_s(&format!("lab.run.{n}")))
            .sum();
        // Time inside the kernel: what the shards report when the run is
        // sharded, else the run spans minus the standalone build and
        // training costs.
        let sharded_s = tally.shard_run_ns.iter().sum::<u64>() as f64 / 1e9;
        let sim_s = if sharded_s > 0.0 {
            sharded_s
        } else {
            (run_total - build_s * n_sched - train_s).max(0.0)
        };
        let events = tally.get("sim.events");
        let placed = fact("sched.placed");
        // Lane pops were summed as counts and times as nanoseconds.
        for (name, value) in &tally.counts {
            let value = match *name {
                n if n.ends_with("_share") => value / events,
                n if n.ends_with("_s") => value / 1e9,
                _ => *value,
            };
            put(out, name, value);
        }
        put(out, "sim.us_per_event", sim_s * 1e6 / events);
        // Pending events are mostly the finish timers of running tasks:
        // Little's law gives their mean number per cell.
        let depth = placed * self.spec.sim.mean_runtime as f64
            / self.spec.sim.horizon as f64
            / n_sched
            / self.cells.len() as f64;
        let queue_ns = probes::event_queue(rec, depth as usize, self.spec.sim.cycle);
        put(out, "sim.queue.ns_per_event", queue_ns);
        put(
            out,
            "sim.queue.share_est",
            queue_ns * events / (sim_s * 1e9),
        );
        put(out, "sim.parallel.run_s", sharded_s);
        if let Some(&slowest) = tally.shard_run_ns.iter().max() {
            let mean = sharded_s * 1e9 / tally.shard_run_ns.len() as f64;
            put(out, "sim.parallel.imbalance", slowest as f64 / mean);
        }
        put(
            out,
            "sched.queue_depth.p99",
            tally.main_depth.quantile(0.99) as f64,
        );
        let refused = tally.get("sched.no_capacity") + tally.get("sched.infeasible");
        put(
            out,
            "sched.place_success_ratio",
            placed / (placed + refused),
        );
        put(
            out,
            "sched.us_per_cycle",
            sim_s * 1e6 / tally.get("sched.cycles"),
        );
        put(
            out,
            "sched.us_per_task",
            sim_s * 1e6 / fact("sched.admitted"),
        );
        let lost = tally.get("sched.faults.lost");
        if lost > 0.0 {
            put(
                out,
                "sched.faults.retry_ratio",
                tally.get("sched.faults.retries") / lost,
            );
        }
        let biggest = self.cells.iter().max_by_key(|c| c.cluster.len());
        let fleet = &biggest.expect("at least one cell").cluster;
        let (fit_ns, place_release_ns) = probes::cluster(rec, fleet, 0.2);
        put(out, "sched.cluster.fit_ns", fit_ns);
        put(out, "sched.cluster.place_release_ns", place_release_ns);
        for (name, value) in &result.facts {
            put(out, name, *value);
        }
        Ok(result)
    }

    /// `run_spec_observed` for a single grid point, one call at a time.
    fn traced_pass(
        &self,
        rec: &mut Recorder,
        tally: &mut Tally,
        out: &mut Layer,
    ) -> Result<RepOutput, String> {
        let mut spec = rec
            .span("lab", "lab.spec.parse", |_| {
                ExperimentSpec::from_json(&self.spec_text)
            })
            .map_err(|e| e.to_string())?;
        spec.sim.seed = self.spec.sim.seed;
        if spec != self.spec {
            return Err(format!(
                "{}: the traced run takes full-size specs only",
                self.name
            ));
        }
        rec.span("lab", "lab.spec.validate", |_| spec.validate())
            .map_err(|e| e.to_string())?;
        spec.observability.profile = true;
        let mut obs = Observations::default();
        let mut schedulers = Vec::new();
        for name in spec.scheduler_names() {
            let (outcomes, perf) = rec
                .span("lab", &format!("lab.run.{name}"), |rec| {
                    let r = run_scheduler_observed(&spec, &name, ArrivalMode::Streaming);
                    if let Ok((outcomes, perf)) = &r {
                        let events_before = tally.get("sim.events");
                        tally.read(outcomes, perf.as_ref());
                        rec.count("cells", outcomes.len() as f64);
                        rec.count("events", tally.get("sim.events") - events_before);
                    }
                    r
                })
                .map_err(|e| e.to_string())?;
            rec.span("lab", "lab.observe.fold", |_| {
                obs.record_run(&name, &outcomes, perf.as_ref(), 1)
            });
            // Also drops the outcomes, as the lab does at this point.
            let cells = rec.span("lab", "lab.report.cells", move |_| {
                outcomes.iter().map(CellRun::from_outcome).collect()
            });
            schedulers.push(SchedulerRun {
                scheduler: name,
                cells,
            });
        }
        let report = rec.span("lab", "lab.report.summarise", |_| {
            let runs = vec![RunReport {
                knobs: Vec::new(),
                seed: spec.sim.seed,
                repeat: 0,
                schedulers,
            }];
            LabReport {
                name: spec.name.clone(),
                summary: summarize(&runs),
                runs,
                _meta: None,
            }
        });
        let mut rendered =
            vec![rec.span("lab", "lab.report.serialise", |_| to_pretty_json(&report))];
        put(out, "lab.report.bytes", rendered[0].len() as f64);
        if self.observed() {
            let list_len = |doc: &Value, key: &str| match doc.get_field(key) {
                Value::Array(a) => a.len(),
                Value::Object(o) => o.len(),
                _ => 0,
            };
            rendered.push(rec.span("lab", "lab.flight.export", |_| {
                let doc = trace_document(&obs, false);
                put(
                    out,
                    "lab.flight.events",
                    list_len(&doc, "traceEvents") as f64,
                );
                to_pretty_json(&doc)
            }));
            put(out, "lab.flight.bytes", rendered[1].len() as f64);
            rendered.push(rec.span("lab", "lab.observe.metrics_export", |_| {
                let doc = serde::Serialize::to_value(&obs.metrics);
                let series: usize = ["counters", "gauges", "histograms"]
                    .iter()
                    .map(|k| list_len(&doc, k))
                    .sum();
                put(out, "telemetry.metrics.series", series as f64);
                to_pretty_json(&doc)
            }));
        }
        let result = rec.span("driver", "check", |_| self.output(&report, &obs, &rendered));
        rec.span("lab", "lab.report.drop", move |_| {
            drop((report, obs, rendered))
        });
        for (metric, spans) in [
            (
                "lab.spec.parse_s",
                &["lab.spec.parse", "lab.spec.validate"][..],
            ),
            ("lab.observe.fold_s", &["lab.observe.fold"]),
            (
                "lab.observe.metrics_export_s",
                &["lab.observe.metrics_export"],
            ),
            ("lab.flight.export_s", &["lab.flight.export"]),
            (
                "lab.report.summarise_s",
                &["lab.report.cells", "lab.report.summarise"],
            ),
            ("lab.report.serialise_s", &["lab.report.serialise"]),
        ] {
            put(out, metric, spans.iter().map(|s| rec.total_s(s)).sum());
        }
        result
    }

    /// Standalone `build_cell` per cell, and a standalone drain of every
    /// synthetic arrival stream. Returns the build time in seconds.
    fn probe_build(&self, rec: &mut Recorder, out: &mut Layer) -> f64 {
        let specs = self.spec.cell_specs();
        let build_s = rec.span("lab", "probe.lab.build", |rec| {
            let t = Instant::now();
            for (i, cs) in specs.iter().enumerate() {
                let cell = build_cell(cs, &self.spec.sim, i, false).expect("built once already");
                rec.count("machines", cell.machine_ids.len() as f64);
            }
            t.elapsed().as_secs_f64()
        });
        put(out, "lab.build.cell_s", build_s);
        let machines: usize = self.cells.iter().map(|c| c.machine_ids.len()).sum();
        put(out, "lab.build.machines", machines as f64);
        let tasks = self.work() / self.spec.scheduler_names().len() as u64;
        put(out, "lab.build.tasks", tasks as f64);
        let (mut decode_s, mut tasks, mut chunks) = (0.0, 0.0, 0.0);
        for (i, cs) in specs.iter().enumerate() {
            if let WorkloadSpec::Synthetic(w) = &cs.workload {
                let chunk = self.spec.execution.arrival_chunk;
                let (s, t, c) = probes::stream_decode(rec, w, &self.spec.sim, i, chunk);
                decode_s += s;
                tasks += t;
                chunks += c;
            }
        }
        put(out, "lab.stream.decode_s", decode_s);
        put(out, "lab.stream.tasks", tasks);
        put(out, "lab.stream.chunks", chunks);
        build_s
    }

    /// The model path of a trace-slice workload, layer by layer: trace
    /// generation, attribute index, CO-VV encoding, the training kernels,
    /// analyzer training and single-task inference. Returns the analyzer
    /// training time in seconds (zero for workloads without a model).
    fn probe_model_path(&self, rec: &mut Recorder, out: &mut Layer) -> f64 {
        let spec = &self.spec;
        let (Some(WorkloadSpec::Trace(w)), true) = (
            &spec.workload,
            spec.scheduler_names().iter().any(|s| s == "enhanced"),
        ) else {
            return 0.0;
        };
        let cell = &self.cells[0];
        let scale = Scale {
            machines: w.machines,
            collections: w.collections,
            seed: w.seed.unwrap_or(spec.sim.seed),
        };
        let trace = probes::generate_trace(rec, w.cell, scale, out);
        let arrivals = cell.arrivals.list().expect("trace cells materialise");
        let constrained: Vec<_> = arrivals.iter().filter(|t| !t.reqs.is_empty()).collect();
        let reqs: Vec<_> = constrained.iter().map(|t| t.reqs.as_slice()).collect();
        let labels: Vec<u8> = constrained.iter().map(|t| t.truth_group).collect();
        probes::attr_index(rec, &probes::trace_machines(&trace), &reqs, out);
        let ds = probes::encode(rec, &reqs, &labels, &cell.vocab, out);
        probes::kernels(rec, &ds, out);
        let (analyzer, train_s) = rec.span("lab", "probe.lab.train", |_| {
            let t = Instant::now();
            let a = train_analyzer(cell, &spec.train, spec.sim.seed);
            (a, t.elapsed().as_secs_f64())
        });
        put(out, "lab.registry.train_s", train_s);
        let tasks: Vec<&[TaskConstraint]> = trace
            .events
            .iter()
            .filter_map(|e| match &e.payload {
                EventPayload::TaskSubmit(t) if t.has_constraints() => {
                    Some(t.constraints.as_slice())
                }
                _ => None,
            })
            .collect();
        probes::predict(rec, &analyzer, &tasks, out);
        train_s
    }

    /// Wall time of one run of this spec with every recorder off, and of
    /// one with the recorders on but nothing exported: the base and the
    /// numerator of `telemetry.record_overhead_ratio`.
    pub fn probe_recorder_cost(&self, rec: &mut Recorder) -> Result<(f64, f64), String> {
        let mut plain = self.spec.clone();
        plain.observability = Default::default();
        let mut time = |name: &str, spec: &ExperimentSpec| {
            rec.span("telemetry", name, |_| {
                let t = Instant::now();
                let r = run_spec_observed(spec, ArrivalMode::Streaming);
                let s = t.elapsed().as_secs_f64();
                r.map(|_| s).map_err(|e| e.to_string())
            })
        };
        Ok((
            time("probe.telemetry.plain", &plain)?,
            time("probe.telemetry.recording", &self.spec)?,
        ))
    }
}

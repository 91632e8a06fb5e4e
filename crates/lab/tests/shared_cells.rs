//! One build, one encoding, shared: a grid point's cells are built once
//! and every scheduler of the spec runs against them, and the
//! in-timeline retrainer trains on row prefixes of the one CO-VV
//! training set its cell carries. Both must be invisible in the output —
//! the report is byte-equal to one assembled from standalone
//! per-scheduler runs (the property the benchmark's traced pass relies
//! on), and every tick's prefix is the dataset a from-scratch builder
//! over the arrivals seen so far would have produced.

use std::collections::HashMap;

use ctlm_core::{GrowingModel, ModelRegistry};
use ctlm_data::dataset::{DatasetBuilder, NUM_GROUPS};
use ctlm_data::encode::co_vv::CoVvEncoder;
use ctlm_lab::build::build_cell;
use ctlm_lab::registry::{train_analyzer, train_config};
use ctlm_lab::report::{summarize, to_pretty_json, CellRun, LabReport, RunReport, SchedulerRun};
use ctlm_lab::run::{run_scheduler_observed, ArrivalMode};
use ctlm_lab::spec::WorkloadSpec;
use ctlm_lab::{run_spec_observed, ExperimentSpec};
use ctlm_sched::scheduler::{LiveRegistry, Scheduler};
use ctlm_trace::{EventPayload, Scale, TraceGenerator};

/// A small Fig. 3 + live-retrain spec: all four schedulers on one trace
/// slice, retraining every 5 simulated seconds.
fn trace_spec() -> ExperimentSpec {
    ExperimentSpec::from_json(
        r#"{
        "name": "shared",
        "sim": {"cycle": 500000, "attempts_per_cycle": 4,
                 "mean_runtime": 8000000, "horizon": 90000000, "seed": 5},
        "schedulers": ["main_only", "enhanced", "oracle", "live_registry"],
        "placers": {"main": "best_fit", "hp": "preemptive_best_fit"},
        "workload": {"Trace": {"cell": "C2019c", "machines": 80,
                                "collections": 400, "max_tasks": 1500,
                                "compress_to": 60000000}},
        "scenario": {"retrain": {"period": 5000000}},
        "train": {"epochs_limit": 2, "max_attempts": 1}
    }"#,
    )
    .expect("spec parses")
}

/// A synthetic spec that mixes arrival flavours: alone, `main_only` and
/// `oracle` stream, while `enhanced` trains on the list — so the shared
/// run feeds all three from the list, and must still equal the
/// standalone streamed runs.
fn two_flavour_spec() -> ExperimentSpec {
    ExperimentSpec::from_json(
        r#"{
        "name": "flavours",
        "sim": {"cycle": 500000, "attempts_per_cycle": 3,
                 "mean_runtime": 6000000, "horizon": 60000000, "seed": 8},
        "schedulers": ["main_only", "enhanced", "oracle"],
        "execution": {"arrival_chunk": 64},
        "workload": {"Synthetic": {
            "machines": [{"count": 6, "cpu": 1.0, "memory": 1.0}],
            "tasks": 300,
            "arrival": {"Uniform": {"gap": 40000}},
            "restrictive": {"count": 4, "start": 20000000,
                             "period": 6000000, "cpu": 0.2, "priority": 6}
        }},
        "train": {"epochs_limit": 3, "max_attempts": 1}
    }"#,
    )
    .expect("spec parses")
}

#[test]
fn shared_cells_report_equals_the_one_assembled_from_standalone_runs() {
    for spec in [trace_spec(), two_flavour_spec()] {
        let (shared, _) = run_spec_observed(&spec, ArrivalMode::Streaming).expect("spec runs");
        let schedulers = spec
            .scheduler_names()
            .into_iter()
            .map(|name| {
                let (outcomes, _) = run_scheduler_observed(&spec, &name, ArrivalMode::Streaming)
                    .expect("scheduler runs");
                SchedulerRun {
                    scheduler: name,
                    cells: outcomes.iter().map(CellRun::from_outcome).collect(),
                }
            })
            .collect();
        let runs = vec![RunReport {
            knobs: Vec::new(),
            seed: spec.sim.seed,
            repeat: 0,
            schedulers,
        }];
        let standalone = LabReport {
            name: spec.name.clone(),
            summary: summarize(&runs),
            runs,
            _meta: None,
        };
        assert_eq!(
            to_pretty_json(&shared),
            to_pretty_json(&standalone),
            "{}: sharing built cells across schedulers changed the report",
            spec.name
        );
    }
}

#[test]
fn every_retrain_tick_trains_on_what_a_from_scratch_builder_would_hold() {
    let spec = trace_spec();
    let cell_spec = &spec.cell_specs()[0];
    let cell = build_cell(cell_spec, &spec.sim, 0, false).expect("cell builds");
    let arrivals = cell.arrivals.list().expect("trace cells materialise");
    let set = cell.training_set();
    assert_eq!(set.len(), arrivals.len());
    let width = cell.vocab.len();
    let period = cell_spec
        .scenario
        .retrain
        .as_ref()
        .expect("retrains")
        .period;

    let mut ticks = 0;
    let mut last = None;
    for now in (1..)
        .map(|k| k * period)
        .take_while(|&t| t <= spec.sim.horizon)
    {
        let seen = arrivals.partition_point(|t| t.arrival.as_micros() <= now);
        if seen == 0 {
            continue;
        }
        let mut b = DatasetBuilder::new(width, NUM_GROUPS);
        for t in &arrivals[..seen] {
            b.push(
                CoVvEncoder.encode_requirements(&t.reqs, &cell.vocab),
                t.truth_group,
            );
        }
        let scratch = b.snapshot(width);
        // `Csr` equality is shape, indptr, indices and values.
        let prefix = set.x.select_rows(&(0..seen).collect::<Vec<_>>());
        assert_eq!(prefix, scratch.x, "tick at {now}: features differ");
        assert_eq!(
            &set.y[..seen],
            &scratch.y[..],
            "tick at {now}: labels differ"
        );
        ticks += 1;
        last = Some((seen, scratch));
    }
    assert!(ticks >= 10, "the spec must retrain many times, got {ticks}");

    // And training on the prefix is training on that dataset.
    let (seen, scratch) = last.expect("ticked");
    let config = train_config(&spec.train);
    let (mut on_prefix, mut on_scratch) = (GrowingModel::new(config), GrowingModel::new(config));
    on_prefix.step_rows(&set.x, &set.y[..seen], 3);
    on_scratch.step(&scratch, 3);
    assert_eq!(on_prefix.state_dict(), on_scratch.state_dict());
}

/// The analyzer has one scorer. Over every task of the checked-in Fig. 3
/// cell, scoring the trace's raw constraints (`predict_group`: collapse,
/// then `group_of`) and scoring the collapsed requirements the queue
/// holds (`group_of`) give the same group, and the `enhanced` scheduler
/// lifts exactly the tasks `is_high_priority` flags.
#[test]
fn raw_constraints_collapsed_requirements_and_enhanced_agree_over_the_fig3_cell() {
    let text = std::fs::read_to_string("../../experiments/fig3_ab.json").expect("spec readable");
    let spec = ExperimentSpec::from_json(&text).expect("spec parses");
    let cell_spec = &spec.cell_specs()[0];
    let cell = build_cell(cell_spec, &spec.sim, 0, false).expect("cell builds");
    // The `enhanced` scheduler as the lab builds it: a registry holding
    // the pre-trained analyzer, read by a `LiveRegistry`.
    let registry = ModelRegistry::new();
    registry.install(train_analyzer(&cell, &spec.train, spec.sim.seed));
    let analyzer = registry.get().expect("installed");

    // The raw constraint lists, from the trace the cell was cut from.
    let WorkloadSpec::Trace(w) = &cell_spec.workload else {
        panic!("fig3_ab is a trace spec");
    };
    let trace = TraceGenerator::generate_cell(
        w.cell,
        Scale {
            machines: w.machines,
            collections: w.collections,
            seed: w.seed.unwrap_or(spec.sim.seed),
        },
    );
    let raw: HashMap<_, _> = trace
        .events
        .iter()
        .filter_map(|ev| match &ev.payload {
            EventPayload::TaskSubmit(t) => Some((t.id, t.constraints.as_slice())),
            _ => None,
        })
        .collect();

    let mut enhanced = LiveRegistry::new(registry);
    let (mut constrained, mut lifted) = (0, 0);
    for t in cell.arrivals.list().expect("trace cells materialise") {
        let constraints = raw[&t.id];
        assert_eq!(
            analyzer
                .predict_group(constraints)
                .expect("admitted tasks collapse"),
            analyzer.group_of(&t.reqs),
            "task {}: raw and collapsed scoring disagree",
            t.id
        );
        let routed = enhanced.route_high_priority(t);
        assert_eq!(
            routed,
            analyzer.is_high_priority(constraints),
            "task {}",
            t.id
        );
        constrained += usize::from(!t.reqs.is_empty());
        lifted += usize::from(routed);
    }
    assert!(
        constrained > 500,
        "the cell must exercise the model ({constrained})"
    );
    assert!(
        lifted > 0 && lifted < constrained,
        "lifted {lifted} of {constrained}"
    );
}

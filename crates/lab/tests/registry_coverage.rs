//! Every registry name and every spec field earns its place: each
//! scheduler, placer, autoscale policy, spillover policy and retry policy
//! a spec can select, each field a spec can set and each variant it can
//! pick is used by at least one checked-in spec — under `experiments/`
//! (recursively) or `benchmark/specs/`. A name, field or variant no spec
//! uses is behaviour nothing exercises end to end; show it in an
//! experiment or delete it.
//!
//! Names and variants are read from the parsed specs, so defaults count
//! (a spec that omits `spillover` selects `off`). A field counts only
//! where a spec document writes its key. Rejected specs count for
//! nothing: those the parser refuses, and the regression specs whose
//! `.stderr` records a rejection by the runner.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use serde_json::Value;

use ctlm_autoscale::ProvisionDelay;
use ctlm_lab::registry::{
    AUTOSCALE_POLICY_NAMES, PLACER_NAMES, RETRY_POLICY_NAMES, SCHEDULER_NAMES,
};
use ctlm_lab::spec::{
    ArrivalProcess, AutoscaleSpec, CellSpec, ChurnSpec, CrashSpec, EpochSpec, ExecutionSpec,
    FaultsSpec, GangSpec, KnobSpec, LinkOutageSpec, MachineGroup, ObservabilitySpec, PlacerSpec,
    PolicyParams, RestrictiveSpec, RetrainSpec, RetrySpec, ScenarioSpec, SizeDist, SpilloverPolicy,
    SweepSpec, SyntheticWorkload, TraceWorkload, TrainSpec, WorkloadSpec,
};
use ctlm_lab::ExperimentSpec;
use ctlm_sched::SimConfig;

/// Every `*.json` under `dir`, at any depth.
fn json_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            json_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "json") {
            out.push(path);
        }
    }
}

/// Every checked-in spec the parser and the runner accept, parsed and as
/// its raw document.
fn accepted_specs() -> Vec<(ExperimentSpec, Value)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut paths = Vec::new();
    json_files(&root.join("experiments"), &mut paths);
    json_files(&root.join("benchmark/specs"), &mut paths);
    let specs: Vec<_> = paths
        .iter()
        .filter(|path| !path.with_extension("stderr").is_file())
        .filter_map(|path| {
            let text = std::fs::read_to_string(path).expect("spec readable");
            let spec = ExperimentSpec::from_json(&text).ok()?;
            Some((
                spec,
                serde_json::from_str(&text).expect("a parsed spec is JSON"),
            ))
        })
        .collect();
    assert!(
        specs.len() >= 10,
        "only {} of {} specs parse",
        specs.len(),
        paths.len()
    );
    specs
}

/// The registry names one spec selects, defaults applied.
fn selected(spec: &ExperimentSpec, used: &mut BTreeSet<String>) {
    used.extend(spec.scheduler_names());
    used.insert(spec.placers.main.clone());
    used.insert(spec.placers.hp.clone());
    used.insert(spec.spillover.name().to_string());
    for cell in spec.cell_specs() {
        if let Some(auto) = &cell.scenario.autoscale {
            used.insert(auto.policy.clone());
        }
        if let Some(faults) = &cell.scenario.faults {
            used.insert(faults.retry.policy.clone());
        }
    }
}

#[test]
fn every_registry_name_is_used_by_a_checked_in_spec() {
    let mut used = BTreeSet::new();
    for (spec, _) in accepted_specs() {
        selected(&spec, &mut used);
    }

    // Listing the variants through an exhaustive match makes a new one a
    // compile error here until it is added.
    let spillover = [SpilloverPolicy::Off, SpilloverPolicy::FirstFeasible].map(|p| match p {
        SpilloverPolicy::Off | SpilloverPolicy::FirstFeasible => p.name(),
    });
    let registries: [(&str, &[&str]); 5] = [
        ("scheduler", SCHEDULER_NAMES),
        ("placer", PLACER_NAMES),
        ("autoscale policy", AUTOSCALE_POLICY_NAMES),
        ("spillover policy", &spillover),
        ("retry policy", RETRY_POLICY_NAMES),
    ];
    let unused: Vec<String> = registries
        .iter()
        .flat_map(|(kind, names)| {
            names
                .iter()
                .filter(|name| !used.contains(**name))
                .map(move |name| format!("{kind} {name:?}"))
        })
        .collect();
    assert!(
        unused.is_empty(),
        "registry names no checked-in spec selects: {}",
        unused.join(", ")
    );
}

/// One spec struct's fields as document paths under `prefix`. The
/// pattern names every field and has no `..`, so a new field is a
/// compile error here until it is listed.
macro_rules! fields {
    ($ty:ident at $prefix:literal: $($field:ident),+ $(,)?) => {{
        #[allow(dead_code)]
        fn listed(v: &$ty) {
            let $ty { $($field: _),+ } = v;
        }
        vec![$(concat!($prefix, stringify!($field))),+]
    }};
}

/// One spec enum's variant names, and the function naming a value's
/// variant. The match has no wildcard, so a new variant is a compile
/// error here until it is listed.
macro_rules! variants {
    ($ty:ident: $($variant:ident),+ $(,)?) => {{
        fn name(v: &$ty) -> &'static str {
            match v {
                $($ty::$variant { .. } => concat!(stringify!($ty), "::", stringify!($variant)),)+
            }
        }
        let all = vec![$(concat!(stringify!($ty), "::", stringify!($variant))),+];
        (name as fn(&$ty) -> &'static str, all)
    }};
}

/// Every key path a spec document writes, array indices dropped
/// (`cells.workload.Synthetic.machines.count`).
fn key_paths(value: &Value, prefix: &str, out: &mut BTreeSet<String>) {
    match value {
        Value::Object(pairs) => {
            for (key, inner) in pairs {
                let path = format!("{prefix}{key}");
                key_paths(inner, &format!("{path}."), out);
                out.insert(path);
            }
        }
        Value::Array(items) => items.iter().for_each(|v| key_paths(v, prefix, out)),
        _ => {}
    }
}

#[test]
fn every_spec_field_is_set_by_a_checked_in_spec() {
    // Set in code, never in a document: `ctlm-lab` turns it on unless
    // `--no-meta` drops the block it feeds, and so does the benchmark
    // harness.
    const EXEMPT: &[&str] = &["observability.profile"];

    let fields = [
        fields!(ExperimentSpec at "": name, sim, schedulers, placers, workload, scenario, cells,
            spillover, train, execution, observability, sweep),
        fields!(SimConfig at "sim.": cycle, attempts_per_cycle, mean_runtime, horizon, seed),
        fields!(PlacerSpec at "placers.": main, hp),
        fields!(CellSpec at "cells.": name, workload, scenario),
        fields!(TraceWorkload at "workload.Trace.": cell, machines, collections, max_tasks,
            compress_to, seed),
        fields!(SyntheticWorkload at "workload.Synthetic.": machines, tasks, arrival, cpu, memory,
            priority, restrictive),
        fields!(MachineGroup at "workload.Synthetic.machines.": count, cpu, memory),
        fields!(RestrictiveSpec at "workload.Synthetic.restrictive.": count, start, period, cpu,
            priority),
        fields!(ScenarioSpec at "scenario.": churn, gangs, retrain, autoscale, faults),
        fields!(ChurnSpec at "scenario.churn.": failures, window, outage, seed),
        fields!(GangSpec at "scenario.gangs.": count, size, start, period, cpu, priority),
        fields!(RetrainSpec at "scenario.retrain.": period),
        fields!(AutoscaleSpec at "scenario.autoscale.": policy, min, max, cadence, warm_pool,
            delay, params),
        fields!(PolicyParams at "scenario.autoscale.params.": up_pending, down_util, step),
        fields!(FaultsSpec at "scenario.faults.": crashes, link_outage, retry),
        fields!(CrashSpec at "scenario.faults.crashes.": count, window, mttr, zones, seed),
        fields!(LinkOutageSpec at "scenario.faults.link_outage.": start, duration, count, period),
        fields!(RetrySpec at "scenario.faults.retry.": policy, base, cap, budget, jitter),
        fields!(TrainSpec at "train.": epochs_limit, max_attempts),
        fields!(ExecutionSpec at "execution.": threads, epoch_us, arrival_chunk),
        fields!(ObservabilitySpec at "observability.": metrics, trace_events, profile, spans),
        fields!(SweepSpec at "sweep.": knobs, seeds, repeats),
        fields!(KnobSpec at "sweep.knobs.": path, values),
    ]
    .concat();
    let (workload, mut all) = variants!(WorkloadSpec: Trace, Synthetic);
    let (arrival, more) = variants!(ArrivalProcess: Uniform, Exponential, Pareto);
    all.extend(more);
    let (size, more) = variants!(SizeDist: Fixed, Pareto);
    all.extend(more);
    let (delay, more) = variants!(ProvisionDelay: Fixed, Exponential);
    all.extend(more);
    let (epoch, more) = variants!(EpochSpec: Fixed, Auto);
    all.extend(more);
    let (spillover, more) = variants!(SpilloverPolicy: Off, FirstFeasible);
    all.extend(more);

    let mut set = BTreeSet::new();
    let mut picked = BTreeSet::new();
    for (spec, document) in accepted_specs() {
        key_paths(&document, "", &mut set);
        picked.insert(spillover(&spec.spillover));
        picked.insert(epoch(&spec.execution.epoch_us));
        for cell in spec.cell_specs() {
            picked.insert(workload(&cell.workload));
            if let WorkloadSpec::Synthetic(w) = &cell.workload {
                picked.extend([arrival(&w.arrival), size(&w.cpu), size(&w.memory)]);
            }
            if let Some(auto) = &cell.scenario.autoscale {
                picked.insert(delay(&auto.delay));
            }
        }
    }

    // A cell's workload and scenario fields count in either spelling:
    // the single-cell sugar at the root, or inside `cells`.
    let is_set = |path: &str| {
        let in_cells = path.starts_with("workload.") || path.starts_with("scenario.");
        set.contains(path) || in_cells && set.contains(&format!("cells.{path}"))
    };
    let unset: Vec<&str> = fields
        .iter()
        .copied()
        .filter(|path| !EXEMPT.contains(path) && !is_set(path))
        .collect();
    let unpicked: Vec<&str> = all.into_iter().filter(|v| !picked.contains(v)).collect();
    assert!(
        unset.is_empty() && unpicked.is_empty(),
        "spec fields no checked-in spec sets: {unset:?}; variants none picks: {unpicked:?}"
    );
}

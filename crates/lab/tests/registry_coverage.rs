//! Every registry name earns its place: each scheduler, placer,
//! autoscale policy, spillover policy and retry policy a spec can select
//! is selected by at least one checked-in spec — under `experiments/`
//! (recursively) or `benchmark/specs/`. A name no spec uses is behaviour
//! nothing exercises end to end; show it in an experiment or delete it.
//!
//! Names are read from the parsed specs, so defaults count (a spec that
//! omits `spillover` selects `off`). Rejected specs count for nothing:
//! those the parser refuses, and the regression specs whose `.stderr`
//! records a rejection by the runner.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use ctlm_lab::registry::{AUTOSCALE_POLICY_NAMES, PLACER_NAMES, SCHEDULER_NAMES};
use ctlm_lab::spec::SpilloverPolicy;
use ctlm_lab::ExperimentSpec;

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
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut paths = Vec::new();
    json_files(&root.join("experiments"), &mut paths);
    json_files(&root.join("benchmark/specs"), &mut paths);
    let mut used = BTreeSet::new();
    let mut parsed = 0;
    for path in &paths {
        if path.with_extension("stderr").is_file() {
            continue;
        }
        let text = std::fs::read_to_string(path).expect("spec readable");
        if let Ok(spec) = ExperimentSpec::from_json(&text) {
            selected(&spec, &mut used);
            parsed += 1;
        }
    }
    assert!(parsed >= 10, "only {parsed} of {} specs parse", paths.len());

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
        ("retry policy", &["fixed", "exponential"]),
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

//! Harness-level tests: bit-identical reports for identical spec+seed
//! (extending the `kernel_scenarios` determinism pattern to the whole
//! declarative pipeline), spec round-trips, knob rewriting, the checked-in
//! example specs, and the serde-shim features the schema leans on.

use proptest::prelude::*;
use serde::{Deserialize, Serialize};

use ctlm_autoscale::ProvisionDelay;
use ctlm_lab::flight::trace_document;
use ctlm_lab::report::to_pretty_json;
use ctlm_lab::run::{run_scheduler_observed, ArrivalMode};
use ctlm_lab::spec::{
    ArrivalProcess, AutoscaleSpec, ChurnSpec, ExecutionSpec, ExperimentSpec, GangSpec, KnobSpec,
    MachineGroup, ObservabilitySpec, PlacerSpec, PolicyParams, RestrictiveSpec, RetrySpec,
    ScenarioSpec, SizeDist, SpilloverPolicy, SweepSpec, SyntheticWorkload, TrainSpec, WorkloadSpec,
};
use ctlm_lab::{run_spec, run_spec_json, run_spec_observed};
use ctlm_sched::SimConfig;

/// A small contended synthetic spec exercising churn, gangs and a sweep.
fn busy_spec() -> String {
    r#"{
        "name": "busy",
        "sim": {"cycle": 500000, "attempts_per_cycle": 3,
                 "mean_runtime": 6000000, "horizon": 90000000, "seed": 11},
        "schedulers": ["main_only", "oracle"],
        "workload": {"Synthetic": {
            "machines": [{"count": 6, "cpu": 1.0, "memory": 1.0}],
            "tasks": 250,
            "arrival": {"Exponential": {"mean_gap": 45000}},
            "cpu": {"Pareto": {"lo": 0.05, "hi": 0.4, "alpha": 1.2}},
            "priority": 2,
            "restrictive": {"count": 3, "start": 4000000,
                             "period": 5000000, "cpu": 0.2, "priority": 6}
        }},
        "scenario": {
            "churn": {"failures": 2, "window": [10000000, 30000000],
                       "outage": 15000000, "seed": 4},
            "gangs": {"count": 2, "size": 3, "start": 15000000,
                       "period": 20000000, "cpu": 0.5, "priority": 4}
        },
        "sweep": {"knobs": [{"path": "scenario.churn.failures", "values": [0, 2]}],
                   "seeds": [11, 12], "repeats": 1}
    }"#
    .to_string()
}

#[test]
fn identical_spec_and_seed_give_bit_identical_reports() {
    let spec = busy_spec();
    let a = run_spec_json(&spec).expect("first run");
    let b = run_spec_json(&spec).expect("second run");
    let ja = to_pretty_json(&Serialize::to_value(&a));
    let jb = to_pretty_json(&Serialize::to_value(&b));
    assert_eq!(ja, jb, "report must be a pure function of the spec");
    // 2 knob values × 2 seeds × 1 repeat.
    assert_eq!(a.runs.len(), 4);
    // Churn actually fired on the failures=2 points.
    let churned = a
        .runs
        .iter()
        .filter(|r| r.knobs.iter().any(|k| k.value == 2.0))
        .flat_map(|r| &r.schedulers)
        .flat_map(|s| &s.cells)
        .map(|c| c.churn_rescheduled)
        .sum::<usize>();
    assert!(churned > 0, "failures=2 points must reschedule tasks");
    // Gangs placed on every run.
    assert!(a
        .runs
        .iter()
        .flat_map(|r| &r.schedulers)
        .flat_map(|s| &s.cells)
        .all(|c| c.gangs_placed > 0));
}

#[test]
fn a_single_cell_is_one_shard_whatever_the_threads_and_epoch() {
    // A one-cell spec runs as one shard under the epoch coordinator
    // like any other: with no sibling to exchange with, neither the
    // worker count nor where the barriers fall may move a report byte.
    let mut spec = ExperimentSpec::from_json(&busy_spec()).expect("busy spec parses");
    let mut reports = Vec::new();
    for (threads, epoch_us) in [
        (1, "1000000"),
        (4, "1000000"),
        (4, "70000"),
        (1, "\"auto\""),
    ] {
        spec.execution.threads = threads;
        spec.execution.epoch_us = serde_json::from_str(epoch_us).expect("epoch spec");
        let report = run_spec(&spec).expect("single-cell run");
        reports.push(to_pretty_json(&Serialize::to_value(&report)));
    }
    assert!(reports.iter().all(|r| *r == reports[0]));
}

#[test]
fn oracle_beats_main_only_from_spec_alone() {
    let report = run_spec_json(&busy_spec()).expect("run");
    for row_pair in report.summary.chunks(2) {
        // Summary rows come in (main_only, oracle) pairs per point.
        let (main, oracle) = (&row_pair[0], &row_pair[1]);
        assert_eq!(main.scheduler, "main_only");
        assert_eq!(oracle.scheduler, "oracle");
        let (m, o) = (
            main.median_group0_mean.expect("group0 placed"),
            oracle.median_group0_mean.expect("group0 placed"),
        );
        assert!(o < m, "oracle group0 mean {o} must beat main-only {m}");
    }
}

#[test]
fn a_schedulers_results_do_not_depend_on_its_place_in_the_list() {
    // The schedulers of a grid point share one built fleet, copy-on-write.
    // Every run here changes its fleet — churn drains and restores, the
    // autoscaler adds and takes machines, crashes take them down — so a
    // run that saw another run's changes would report differently in the
    // other order.
    let spec = |order: &str| {
        format!(
            r#"{{
            "name": "order",
            "sim": {{"cycle": 500000, "attempts_per_cycle": 4,
                     "mean_runtime": 8000000, "horizon": 120000000, "seed": 5}},
            "schedulers": {order},
            "workload": {{"Synthetic": {{
                "machines": [{{"count": 8, "cpu": 1.0, "memory": 1.0}}],
                "tasks": 300,
                "arrival": {{"Exponential": {{"mean_gap": 60000}}}},
                "cpu": {{"Pareto": {{"lo": 0.05, "hi": 0.4, "alpha": 1.2}}}},
                "priority": 2,
                "restrictive": {{"count": 4, "start": 4000000,
                                 "period": 9000000, "cpu": 0.2, "priority": 6}}
            }}}},
            "scenario": {{
                "churn": {{"failures": 2, "window": [10000000, 40000000],
                           "outage": 15000000, "seed": 4}},
                "autoscale": {{"policy": "threshold", "min": 4, "max": 14,
                               "cadence": 2000000, "warm_pool": 1}},
                "faults": {{"crashes": {{"count": 2, "window": [20000000, 70000000],
                                         "mttr": 20000000, "zones": 4, "seed": 6}}}}
            }}
        }}"#
        )
    };
    let forward = run_spec_json(&spec(r#"["main_only", "oracle"]"#)).expect("forward order");
    let reverse = run_spec_json(&spec(r#"["oracle", "main_only"]"#)).expect("reverse order");
    let runs = |r: &ctlm_lab::report::LabReport| r.runs[0].schedulers.clone();
    let (forward, reverse) = (runs(&forward), runs(&reverse));
    for sched in &forward {
        let other = reverse
            .iter()
            .find(|s| s.scheduler == sched.scheduler)
            .expect("both orders run every scheduler");
        assert_eq!(sched.cells, other.cells, "{}", sched.scheduler);
        let cell = &sched.cells[0];
        assert!(cell.churn_rescheduled > 0, "churn must move tasks");
        let recovery = cell.recovery.as_ref().expect("the cell runs a fault plane");
        assert!(recovery.machines_crashed > 0, "crashes must fire");
        let fleet = cell
            .autoscale
            .as_ref()
            .expect("the cell runs an autoscaler");
        assert!(
            fleet.scale_ups + fleet.scale_downs > 0,
            "the autoscaler must act"
        );
    }
}

#[test]
fn checked_in_specs_parse_and_spillover_runs_deterministically() {
    for name in [
        "fig3_ab",
        "churn_sweep",
        "three_cell_spillover",
        "elastic_burst",
    ] {
        let text = std::fs::read_to_string(format!("../../experiments/{name}.json"))
            .expect("checked-in spec readable");
        ExperimentSpec::from_json(&text).expect("checked-in spec parses");
    }
    let text = std::fs::read_to_string("../../experiments/three_cell_spillover.json").unwrap();
    assert_eq!(
        ExperimentSpec::from_json(&text).unwrap().spillover,
        SpilloverPolicy::FirstFeasible
    );
    let a = run_spec_json(&text).expect("spillover run");
    let b = run_spec_json(&text).expect("spillover rerun");
    assert_eq!(
        to_pretty_json(&Serialize::to_value(&a)),
        to_pretty_json(&Serialize::to_value(&b)),
        "multi-cell spillover must be deterministic on one timeline"
    );
    let cells: Vec<_> = a.runs[0].schedulers[0].cells.iter().collect();
    assert_eq!(cells.len(), 3);
    let spilled: usize = cells.iter().map(|c| c.spilled_out).sum();
    assert!(spilled > 0, "the hot cell must spill into its siblings");
    let received: usize = cells.iter().map(|c| c.spilled_in).sum();
    assert_eq!(spilled, received, "every spilled task lands somewhere");
}

#[test]
fn retrain_cadence_drives_live_registry() {
    // live_registry starts cold; the in-timeline retraining component
    // must hot-swap models mid-run and change routing (some tasks reach
    // the HP queue, visible as preemptions or a placed group0 record
    // with low latency). At minimum the run must be deterministic.
    let spec = r#"{
        "name": "retrain",
        "sim": {"cycle": 500000, "attempts_per_cycle": 3,
                 "mean_runtime": 6000000, "horizon": 90000000, "seed": 9},
        "schedulers": ["live_registry"],
        "workload": {"Synthetic": {
            "machines": [{"count": 6, "cpu": 1.0, "memory": 1.0}],
            "tasks": 250,
            "arrival": {"Uniform": {"gap": 50000}},
            "restrictive": {"count": 4, "start": 30000000,
                             "period": 8000000, "cpu": 0.2, "priority": 6}
        }},
        "scenario": {"retrain": {"period": 10000000}},
        "train": {"epochs_limit": 25, "max_attempts": 1}
    }"#;
    let a = run_spec_json(spec).expect("first");
    let b = run_spec_json(spec).expect("second");
    assert_eq!(
        to_pretty_json(&Serialize::to_value(&a)),
        to_pretty_json(&Serialize::to_value(&b)),
        "synchronous in-timeline retraining must stay deterministic"
    );
    let cell = &a.runs[0].schedulers[0].cells[0];
    assert!(cell.placed > 200, "most tasks place");
}

#[test]
fn enhanced_keeps_its_model_through_retrain_ticks() {
    // `enhanced` routes through a registry only its scheduler holds, so
    // a retrain tick — which acts on `live_registry`'s registry — must
    // not change its run. Handing its registry to the retrainer would
    // swap in, at 1 s, a model trained on the first 21 arrivals, none
    // restrictive.
    let spec = |schedulers: &str, scenario: &str| {
        ExperimentSpec::from_json(&format!(
            r#"{{
            "name": "private_registry",
            "sim": {{"cycle": 500000, "attempts_per_cycle": 3,
                     "mean_runtime": 6000000, "horizon": 90000000, "seed": 9}},
            "schedulers": {schedulers},
            "workload": {{"Synthetic": {{
                "machines": [{{"count": 6, "cpu": 1.0, "memory": 1.0}}],
                "tasks": 250,
                "arrival": {{"Uniform": {{"gap": 50000}}}},
                "restrictive": {{"count": 8, "start": 2000000,
                                 "period": 1500000, "cpu": 0.2, "priority": 6}}
            }}}},
            "scenario": {{{scenario}}},
            "train": {{"epochs_limit": 25, "max_attempts": 1}}
        }}"#
        ))
        .expect("spec parses")
    };
    let result = |spec: &ExperimentSpec, sched: &str| {
        let (mut cells, _) =
            run_scheduler_observed(spec, sched, ArrivalMode::Streaming).expect("spec runs");
        cells.remove(0).result
    };
    let plain = result(&spec(r#"["enhanced"]"#, ""), "enhanced");
    let main_only = result(&spec(r#"["main_only"]"#, ""), "main_only");
    assert_ne!(plain.placed, main_only.placed, "the model lifts tasks");
    let meddled = spec(r#"["enhanced"]"#, r#""retrain": {"period": 1000000}"#);
    let meddled = result(&meddled, "enhanced");
    assert_eq!(plain.placed, meddled.placed, "placed records and latencies");
    assert_eq!(plain.unplaced, meddled.unplaced);
}

#[test]
fn serde_default_and_field_errors() {
    // Minimal spec: every #[serde(default)] field may be omitted.
    let spec: ExperimentSpec = serde_json::from_str(
        r#"{"name": "tiny", "workload": {"Synthetic": {
            "machines": [{"count": 2, "cpu": 1.0, "memory": 1.0}],
            "tasks": 5, "arrival": {"Uniform": {"gap": 1000}}}}}"#,
    )
    .expect("defaults fill in");
    assert_eq!(spec.sim, SimConfig::default());
    assert_eq!(spec.placers, PlacerSpec::default());
    assert_eq!(spec.scheduler_names(), vec!["main_only".to_string()]);
    assert!(spec.sweep.is_none());

    // A bad field errors with its dotted location.
    let err = serde_json::from_str::<ExperimentSpec>(
        r#"{"name": "bad", "sim": {"cycle": "not-a-number"}}"#,
    )
    .expect_err("bad field type");
    let msg = err.to_string();
    assert!(
        msg.contains("SimConfig.cycle"),
        "error must point at the offending field, got: {msg}"
    );

    // Unknown enum variants list the registry of expected names.
    let err = serde_json::from_str::<WorkloadSpec>(r#"{"Bogus": {}}"#).expect_err("bad variant");
    assert!(err.to_string().contains("Trace/Synthetic"), "got: {err}");

    // Partial knob blocks keep the struct's own defaults (not the field
    // types' zeros) for what they omit; `epoch_us` is a number or "auto".
    let exec: ExecutionSpec =
        serde_json::from_str(r#"{"threads": 4, "epoch_us": "auto"}"#).expect("partial execution");
    assert_eq!(exec.threads, 4);
    assert!(exec.epoch_us.is_auto());
    assert_eq!(
        exec.arrival_chunk,
        ExecutionSpec::default().arrival_chunk,
        "omitted field keeps the struct default"
    );
    let obs: ObservabilitySpec = serde_json::from_str(r#"{"spans": true}"#).expect("partial");
    assert!(obs.spans && !obs.metrics && obs.trace_events == 0);
    let retry: RetrySpec = serde_json::from_str(r#"{"budget": 9}"#).expect("partial retry");
    assert_eq!((retry.budget, retry.base), (9, RetrySpec::default().base));

    // Unknown keys in those blocks are typos, not extensions.
    for (bad, ty) in [
        (
            serde_json::from_str::<ExecutionSpec>(r#"{"thread": 4}"#).map(|_| ()),
            "ExecutionSpec",
        ),
        (
            serde_json::from_str::<ObservabilitySpec>(r#"{"span": true}"#).map(|_| ()),
            "ObservabilitySpec",
        ),
        (
            serde_json::from_str::<RetrySpec>(r#"{"budgit": 1}"#).map(|_| ()),
            "RetrySpec",
        ),
    ] {
        let msg = bad.expect_err("unknown key").to_string();
        assert!(msg.contains(&format!("unknown {ty} field")), "got: {msg}");
    }
    // An all-optional block given as a non-object is malformed, not empty.
    for (block, ty) in [
        (r#""scenario": 5"#, "ScenarioSpec"),
        (r#""scenario": {"faults": "x"}"#, "FaultsSpec"),
        (r#""sweep": []"#, "SweepSpec"),
    ] {
        let text = format!(
            r#"{{"name": "bad", "workload": {{"Trace": {{"cell": "C2019a", "machines": 4, "collections": 2}}}}, {block}}}"#
        );
        let msg = ExperimentSpec::from_json(&text)
            .expect_err(block)
            .to_string();
        assert!(msg.contains(&format!("invalid {ty} value")), "got: {msg}");
    }

    // The normalised document (what sweep knob paths address) keeps its
    // key order and the bare number / "auto" spelling.
    assert_eq!(
        serde_json::to_string(&ExecutionSpec::default()).unwrap(),
        r#"{"threads":1,"epoch_us":1000000,"arrival_chunk":8192}"#
    );
    assert_eq!(
        serde_json::to_string(&exec).unwrap(),
        r#"{"threads":4,"epoch_us":"auto","arrival_chunk":8192}"#
    );
    assert_eq!(
        serde_json::to_string(&ObservabilitySpec::default()).unwrap(),
        r#"{"metrics":false,"trace_events":0,"profile":false,"spans":false}"#
    );
    assert_eq!(
        serde_json::to_string(&RetrySpec::default()).unwrap(),
        r#"{"policy":"exponential","base":2000000,"cap":60000000,"budget":3,"jitter":0.5}"#
    );
}

#[test]
fn unknown_registry_names_are_rejected_at_validation() {
    let err = ExperimentSpec::from_json(
        r#"{"name": "x", "schedulers": ["quantum"], "workload": {"Synthetic": {
            "machines": [{"count": 1, "cpu": 1.0, "memory": 1.0}],
            "tasks": 1, "arrival": {"Uniform": {"gap": 1000}}}}}"#,
    )
    .expect_err("unknown scheduler");
    assert!(err.to_string().contains("unknown scheduler"));
}

fn arb_arrival() -> impl Strategy<Value = ArrivalProcess> {
    prop_oneof![
        (1u64..100_000).prop_map(|gap| ArrivalProcess::Uniform { gap }),
        (1u64..100_000).prop_map(|mean_gap| ArrivalProcess::Exponential { mean_gap }),
        (1u64..50, 100u64..10_000).prop_map(|(lo, hi)| ArrivalProcess::Pareto {
            lo: lo as f64,
            hi: hi as f64,
            alpha: 1.5,
        }),
    ]
}

fn arb_size() -> impl Strategy<Value = SizeDist> {
    prop_oneof![
        (1u32..90).prop_map(|v| SizeDist::Fixed(v as f64 / 100.0)),
        (1u32..20, 30u32..90).prop_map(|(lo, hi)| SizeDist::Pareto {
            lo: lo as f64 / 100.0,
            hi: hi as f64 / 100.0,
            alpha: 1.25,
        }),
    ]
}

fn arb_scenario() -> impl Strategy<Value = ScenarioSpec> {
    (0usize..5, 0u64..4, 0usize..3, 0usize..3).prop_map(|(failures, seed, gangs, autoscale)| {
        ScenarioSpec {
            churn: (failures > 0).then_some(ChurnSpec {
                failures,
                window: (5_000_000, 20_000_000),
                outage: 10_000_000,
                seed,
            }),
            gangs: (gangs > 0).then_some(GangSpec {
                count: gangs,
                size: 2,
                start: 1_000_000,
                period: 4_000_000,
                cpu: 0.4,
                priority: 3,
            }),
            retrain: None,
            autoscale: (autoscale > 0).then(|| AutoscaleSpec {
                policy: "threshold".to_string(),
                min: 1,
                max: 12,
                cadence: 3_000_000,
                warm_pool: autoscale,
                delay: ProvisionDelay::Exponential { mean: 4_000_000 },
                params: PolicyParams {
                    up_pending: Some(6),
                    ..PolicyParams::default()
                },
            }),
            faults: None,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Any spec the schema can express round-trips through JSON
    /// unchanged — the serializer and deserializer agree on every field,
    /// defaults included.
    #[test]
    fn spec_roundtrips_through_json(
        machines in 1usize..40,
        tasks in 0usize..500,
        seed in 0u64..1_000_000,
        cycle in 1u64..2_000_000,
        priority in 0u8..10,
        restrictive in 0usize..4,
        arrival in arb_arrival(),
        cpu in arb_size(),
        memory in arb_size(),
        scenario in arb_scenario(),
        sweep_vals in prop::collection::vec(0f64..10.0, 0..4),
    ) {
        let spec = ExperimentSpec {
            name: format!("prop-{seed}"),
            sim: SimConfig { cycle, seed, ..SimConfig::default() },
            schedulers: vec!["main_only".into(), "oracle".into()],
            placers: PlacerSpec::default(),
            workload: Some(WorkloadSpec::Synthetic(SyntheticWorkload {
                machines: vec![MachineGroup { count: machines, cpu: 1.0, memory: 1.0 }],
                tasks,
                arrival,
                cpu,
                memory,
                priority,
                restrictive: (restrictive > 0).then_some(RestrictiveSpec {
                    count: restrictive,
                    start: 2_000_000,
                    period: 3_000_000,
                    cpu: 0.2,
                    priority: 6,
                }),
            })),
            scenario,
            cells: vec![],
            spillover: SpilloverPolicy::Off,
            train: TrainSpec::default(),
            execution: ExecutionSpec::default(),
            observability: ObservabilitySpec::default(),
            sweep: (!sweep_vals.is_empty()).then_some(SweepSpec {
                knobs: vec![KnobSpec { path: "sim.attempts_per_cycle".into(), values: sweep_vals }],
                seeds: vec![seed],
                repeats: 2,
            }),
        };
        let json = serde_json::to_string(&spec).expect("serializes");
        let back: ExperimentSpec = serde_json::from_str(&json).expect("parses back");
        prop_assert_eq!(&back, &spec);
        // And a second hop is stable (canonical form).
        let json2 = serde_json::to_string(&back).expect("re-serializes");
        prop_assert_eq!(json, json2);
    }

    /// Spec-driven single-cell runs are deterministic for any synthetic
    /// workload shape (not just the hand-picked ones above).
    #[test]
    fn any_synthetic_spec_is_deterministic(
        machines in 1usize..10,
        tasks in 1usize..120,
        seed in 0u64..500,
        arrival in arb_arrival(),
    ) {
        let spec = ExperimentSpec {
            name: "prop-det".into(),
            sim: SimConfig {
                cycle: 500_000,
                attempts_per_cycle: 3,
                mean_runtime: 4_000_000,
                horizon: 30_000_000,
                seed,
            },
            schedulers: vec!["main_only".into()],
            placers: PlacerSpec::default(),
            workload: Some(WorkloadSpec::Synthetic(SyntheticWorkload {
                machines: vec![MachineGroup { count: machines, cpu: 1.0, memory: 1.0 }],
                tasks,
                arrival,
                cpu: SizeDist::default(),
                memory: SizeDist::default(),
                priority: 2,
                restrictive: None,
            })),
            scenario: ScenarioSpec::default(),
            cells: vec![],
            spillover: SpilloverPolicy::Off,
            train: TrainSpec::default(),
            execution: ExecutionSpec::default(),
            observability: ObservabilitySpec::default(),
            sweep: None,
        };
        let a = run_spec(&spec).expect("first");
        let b = run_spec(&spec).expect("second");
        prop_assert_eq!(&a, &b);
    }
}

#[test]
fn elastic_burst_grows_then_shrinks_deterministically() {
    // The checked-in elastic spec is the acceptance scenario: a bursty
    // Pareto arrival process absorbed by scale-up, shrunk back by
    // drain-based scale-down, bit-identically on every run.
    let text = std::fs::read_to_string("../../experiments/elastic_burst.json").unwrap();
    let a = run_spec_json(&text).expect("elastic run");
    let b = run_spec_json(&text).expect("elastic rerun");
    assert_eq!(
        to_pretty_json(&Serialize::to_value(&a)),
        to_pretty_json(&Serialize::to_value(&b)),
        "autoscaled runs must be bit-deterministic"
    );
    let cell = &a.runs[0].schedulers[0].cells[0];
    let auto = cell.autoscale.as_ref().expect("autoscale stats recorded");
    let initial = auto.timeline.first().expect("timeline recorded").active;
    assert_eq!(initial, 4, "timeline starts at the spec's fleet");
    let peak = auto.peak_active();
    assert!(
        peak > initial,
        "the burst must grow the fleet (peak {peak})"
    );
    assert!(
        auto.final_active() < peak,
        "scale-down must shrink the fleet after the burst (final {}, peak {peak})",
        auto.final_active()
    );
    assert!(auto.timeline.iter().all(|s| s.active >= 3), "min respected");
    assert!(auto.drained > 0, "scale-down goes through the drain path");
    assert!(auto.warm_activations > 0, "the warm pool served the burst");
    assert_eq!(cell.unplaced, 0, "the grown fleet absorbs every task");
}

#[test]
fn cells_autoscale_independently_alongside_spillover() {
    // Two cells on one timeline: only the hot cell autoscales; tasks it
    // cannot admit while the fleet is still provisioning spill to the
    // static sibling. Each cell's control plane is its own component.
    let spec = r#"{
        "name": "elastic-spill",
        "sim": {"cycle": 500000, "attempts_per_cycle": 8,
                 "mean_runtime": 8000000, "horizon": 120000000, "seed": 13},
        "schedulers": ["main_only"],
        "spillover": "first_feasible",
        "cells": [
            {
                "name": "hot",
                "workload": {"Synthetic": {
                    "machines": [{"count": 3, "cpu": 1.0, "memory": 1.0}],
                    "tasks": 300,
                    "arrival": {"Exponential": {"mean_gap": 60000}},
                    "cpu": {"Fixed": 0.3}, "memory": {"Fixed": 0.3},
                    "priority": 2
                }},
                "scenario": {"autoscale": {
                    "policy": "threshold",
                    "min": 3, "max": 16, "cadence": 2000000, "warm_pool": 1,
                    "delay": {"Fixed": 5000000}
                }}
            },
            {
                "name": "static",
                "workload": {"Synthetic": {
                    "machines": [{"count": 5, "cpu": 1.0, "memory": 1.0}],
                    "tasks": 40,
                    "arrival": {"Uniform": {"gap": 1000000}},
                    "cpu": {"Fixed": 0.2}, "memory": {"Fixed": 0.2},
                    "priority": 2
                }}
            }
        ]
    }"#;
    let a = run_spec_json(spec).expect("first");
    let b = run_spec_json(spec).expect("second");
    assert_eq!(
        to_pretty_json(&Serialize::to_value(&a)),
        to_pretty_json(&Serialize::to_value(&b)),
        "autoscale + spillover on one timeline must stay deterministic"
    );
    let cells = &a.runs[0].schedulers[0].cells;
    let hot = cells.iter().find(|c| c.cell == "hot").unwrap();
    let stat = cells.iter().find(|c| c.cell == "static").unwrap();
    let auto = hot.autoscale.as_ref().expect("hot cell autoscales");
    assert!(
        auto.peak_active() > 3,
        "hot cell grew (peak {})",
        auto.peak_active()
    );
    assert!(stat.autoscale.is_none(), "static cell has no control plane");
    assert!(
        stat.spilled_in > 0,
        "overflow while provisioning spills to the sibling"
    );
}

#[test]
fn autoscale_spec_validation_rejects_bad_blocks() {
    let base = r#"{
        "name": "x",
        "workload": {"Synthetic": {
            "machines": [{"count": 2, "cpu": 1.0, "memory": 1.0}],
            "tasks": 5, "arrival": {"Uniform": {"gap": 1000}}}},
        "scenario": {"autoscale": AUTO}
    }"#;
    let bad_policy = base.replace(
        "AUTO",
        r#"{"policy": "quantum", "min": 1, "max": 4, "cadence": 1000000}"#,
    );
    let err = ExperimentSpec::from_json(&bad_policy).expect_err("unknown policy");
    assert!(
        err.to_string().contains("unknown autoscale policy"),
        "{err}"
    );
    let bad_band = base.replace(
        "AUTO",
        r#"{"policy": "threshold", "min": 9, "max": 4, "cadence": 1000000}"#,
    );
    let err = ExperimentSpec::from_json(&bad_band).expect_err("min > max");
    assert!(err.to_string().contains("exceeds max"), "{err}");
    let bad_cadence = base.replace(
        "AUTO",
        r#"{"policy": "threshold", "min": 1, "max": 4, "cadence": 0}"#,
    );
    let err = ExperimentSpec::from_json(&bad_cadence).expect_err("cadence 0");
    assert!(err.to_string().contains("cadence"), "{err}");
}

/// Every per-cell rule reports its cell through one wrapper: one
/// two-cell spec, one bad block at a time in cell `b`, and every error
/// starts `cell "b": ` exactly once.
#[test]
fn every_per_cell_error_names_its_cell_once() {
    let uniform = r#""arrival": {"Uniform": {"gap": 30000}}"#;
    let synthetic = |fields: &str| {
        format!(
            r#"{{"Synthetic": {{"machines": [{{"count": 4, "cpu": 1.0, "memory": 1.0}}],
                "tasks": 40, {fields}}}}}"#
        )
    };
    let good = synthetic(uniform);
    let spec = |spillover: bool, workload: &str, scenario: &str| {
        let spillover = if spillover { "first_feasible" } else { "off" };
        format!(
            r#"{{"name": "prefix", "spillover": "{spillover}", "cells": [
                {{"name": "a", "workload": {good}}},
                {{"name": "b", "workload": {workload}, "scenario": {{{scenario}}}}}]}}"#
        )
    };
    let autoscale = |policy: &str, min: u32, cadence: u64, params: &str| {
        format!(
            r#""autoscale": {{"policy": "{policy}", "min": {min}, "max": 4,
                "cadence": {cadence}, "delay": {{"Fixed": 1000}}, "params": {{{params}}}}}"#
        )
    };
    let trace = |machines: usize| {
        format!(r#"{{"Trace": {{"cell": "C2019a", "machines": {machines}, "collections": 5}}}}"#)
    };
    let cases = [
        spec(true, &trace(8), ""),
        spec(
            false,
            &good,
            r#""faults": {"link_outage": {"start": 1, "duration": 5}}"#,
        ),
        spec(false, &trace(0), ""),
        spec(false, &good.replace("\"count\": 4", "\"count\": 0"), ""),
        spec(
            false,
            &synthetic(r#""arrival": {"Exponential": {"mean_gap": 0}}"#),
            "",
        ),
        spec(
            false,
            &synthetic(r#""arrival": {"Pareto": {"lo": 10, "hi": 5, "alpha": 1}}"#),
            "",
        ),
        spec(
            false,
            &synthetic(&format!(
                r#"{uniform}, "cpu": {{"Pareto": {{"lo": 0, "hi": 0.5, "alpha": 1}}}}"#
            )),
            "",
        ),
        spec(
            false,
            &synthetic(&format!(
                r#"{uniform}, "memory": {{"Pareto": {{"lo": 0.1, "hi": 0.5, "alpha": -1}}}}"#
            )),
            "",
        ),
        spec(false, &good, r#""retrain": {"period": 0}"#),
        spec(false, &good, &autoscale("quantum", 1, 1_000_000, "")),
        spec(
            false,
            &good,
            &autoscale("target_tracking", 1, 1_000_000, ""),
        ),
        spec(false, &good, &autoscale("predictive", 1, 1_000_000, "")),
        spec(false, &good, &autoscale("threshold", 9, 1_000_000, "")),
        spec(false, &good, &autoscale("threshold", 1, 0, "")),
        spec(
            false,
            &good,
            &autoscale("threshold", 1, 1_000_000, r#""step": 0"#),
        ),
        spec(
            false,
            &good,
            r#""churn": {"failures": 1, "window": [9, 3], "outage": 5}"#,
        ),
        spec(
            false,
            &good,
            r#""faults": {"crashes": {"count": 1, "window": [9, 3], "mttr": 5}}"#,
        ),
        spec(
            false,
            &good,
            r#""faults": {"crashes": {"count": 1, "window": [3, 9], "mttr": 0}}"#,
        ),
        spec(
            true,
            &good,
            r#""faults": {"link_outage": {"start": 1, "duration": 0}}"#,
        ),
        spec(
            true,
            &good,
            r#""faults": {"link_outage": {"start": 1, "duration": 5, "count": 2}}"#,
        ),
        spec(false, &good, r#""faults": {"retry": {"policy": "linear"}}"#),
        spec(false, &good, r#""faults": {"retry": {"base": 0}}"#),
        spec(false, &good, r#""faults": {"retry": {"jitter": 1.0}}"#),
        spec(false, &good, r#""faults": {"retry": {"jitter": -0.5}}"#),
    ];
    let mut errors: Vec<String> = cases
        .iter()
        .map(|text| ExperimentSpec::from_json(text).expect_err(text).to_string())
        .collect();
    // JSON has no NaN, but a spec built in code can carry one.
    let mut nan = ExperimentSpec::from_json(&spec(
        false,
        &good,
        &autoscale("threshold", 1, 1_000_000, ""),
    ))
    .expect("the unbent autoscaler parses");
    let auto = nan.cells[1]
        .scenario
        .autoscale
        .as_mut()
        .expect("cell b autoscales");
    auto.params.down_util = Some(f64::NAN);
    errors.push(nan.validate().expect_err("NaN down_util").to_string());
    for err in &errors {
        assert!(err.starts_with("ctlm-lab: cell \"b\": "), "{err}");
        assert_eq!(err.matches("cell \"b\"").count(), 1, "{err}");
    }
    ExperimentSpec::from_json(&spec(false, &good, "")).expect("the unbent spec parses");
}

/// A sweep knob that bends a sampler parameter out of its domain fails
/// with the parser's error before any grid point runs.
#[test]
fn sweeping_a_pareto_bound_to_zero_cannot_panic() {
    let spec = r#"{
        "name": "pareto-sweep",
        "sim": {"cycle": 500000, "attempts_per_cycle": 4,
                 "mean_runtime": 5000000, "horizon": 20000000, "seed": 3},
        "workload": {"Synthetic": {
            "machines": [{"count": 4, "cpu": 1.0, "memory": 1.0}],
            "tasks": 40, "arrival": {"Uniform": {"gap": 300000}},
            "cpu": {"Pareto": {"lo": 0.05, "hi": 0.4, "alpha": 1.2}}
        }},
        "sweep": {"knobs": [{"path": "workload.Synthetic.cpu.Pareto.lo", "values": [0.05, 0]}]}
    }"#;
    let err = run_spec_json(spec).expect_err("lo swept to 0");
    assert!(
        err.to_string().contains("cpu Pareto") && err.to_string().contains("require 0 < lo < hi"),
        "{err}"
    );
    let report = run_spec_json(&spec.replace("[0.05, 0]", "[0.05, 0.1]")).expect("valid bounds");
    assert_eq!(report.runs.len(), 2);
}

#[test]
fn sweeping_the_autoscale_band_below_min_cannot_panic() {
    // A sweep point is validated like the spec it was expanded from: a
    // band swept to min > max is the parser's error before anything
    // runs, not a `desired.clamp(min, max)` panic mid-sweep.
    let spec = r#"{
        "name": "band-sweep",
        "sim": {"cycle": 500000, "attempts_per_cycle": 4,
                 "mean_runtime": 5000000, "horizon": 40000000, "seed": 3},
        "workload": {"Synthetic": {
            "machines": [{"count": 4, "cpu": 1.0, "memory": 1.0}],
            "tasks": 80, "arrival": {"Uniform": {"gap": 300000}},
            "cpu": {"Fixed": 0.3}, "memory": {"Fixed": 0.3}
        }},
        "scenario": {"autoscale": {
            "policy": "threshold", "min": 4, "max": 8, "cadence": 2000000
        }},
        "sweep": {"knobs": [{"path": "scenario.autoscale.max", "values": [2, 8]}]}
    }"#;
    let err = run_spec_json(spec).expect_err("min 4 > swept max 2");
    assert!(err.to_string().contains("exceeds max"), "{err}");
    // The valid half of the same grid runs, and the floor holds.
    let report = run_spec_json(&spec.replace("[2, 8]", "[4, 8]")).expect("valid band");
    assert_eq!(report.runs.len(), 2);
    for run in &report.runs {
        let auto = run.schedulers[0].cells[0]
            .autoscale
            .as_ref()
            .expect("autoscale stats");
        assert!(auto.timeline.iter().all(|s| s.active >= 4), "floor holds");
    }
}

/// Same rule on the training budget: a swept `max_attempts: 0` is the
/// parser's error, not the trainer's precondition panic and not a run
/// reported under a knob value it did not use.
#[test]
fn sweeping_the_training_attempts_to_zero_cannot_panic() {
    let spec = r#"{
        "name": "attempts",
        "sim": {"cycle": 500000, "attempts_per_cycle": 3,
                 "mean_runtime": 6000000, "horizon": 30000000, "seed": 3},
        "schedulers": ["enhanced"],
        "workload": {"Synthetic": {
            "machines": [{"count": 4, "cpu": 1.0, "memory": 1.0}],
            "tasks": 80,
            "arrival": {"Uniform": {"gap": 40000}},
            "restrictive": {"count": 3, "start": 5000000,
                             "period": 5000000, "cpu": 0.2, "priority": 6}
        }},
        "train": {"epochs_limit": 1, "max_attempts": 1},
        "sweep": {"knobs": [{"path": "train.max_attempts", "values": [0, 1]}]}
    }"#;
    let err = run_spec_json(spec).expect_err("swept to no attempts");
    assert!(
        err.to_string().contains("`train.max_attempts` must be > 0"),
        "{err}"
    );
    let report = run_spec_json(&spec.replace("[0, 1]", "[1, 2]")).expect("valid budgets");
    assert_eq!(report.runs.len(), 2);
}

/// Arrival times that do not fit the time axis are refused before the
/// run starts — at build time for the materialised (`enhanced`) flavour,
/// at attach time for the streamed (`main_only`) one: unchecked, they
/// wrapped and ran to exit 0 on an unsorted arrival list.
#[test]
fn arrivals_past_the_end_of_the_time_axis_are_errors_not_wrapped_runs() {
    let spec = |scheduler: &str, gap: u64, restrictive: &str| {
        format!(
            r#"{{
            "name": "bent",
            "sim": {{"cycle": 500000, "attempts_per_cycle": 3,
                     "mean_runtime": 5000000, "horizon": 60000000, "seed": 7}},
            "schedulers": ["{scheduler}"],
            "workload": {{"Synthetic": {{
                "machines": [{{"count": 4, "cpu": 1.0, "memory": 1.0}}],
                "tasks": 40,
                "arrival": {{"Uniform": {{"gap": {gap}}}}}{restrictive}
            }}}},
            "train": {{"epochs_limit": 1, "max_attempts": 1}}
        }}"#
        )
    };
    let bent_period = r#", "restrictive": {"count": 3, "start": 1000000,
        "period": 18446744073709551615, "cpu": 0.2, "priority": 6}"#;
    for scheduler in ["main_only", "enhanced"] {
        let err = run_spec_json(&spec(scheduler, 30_000, bent_period))
            .expect_err("restrictive period overflows");
        assert!(
            err.to_string().contains("restrictive task 1") && err.to_string().contains("overflows"),
            "{scheduler}: {err}"
        );
        let err = run_spec_json(&spec(scheduler, 1 << 63, "")).expect_err("gaps overflow");
        assert!(
            err.to_string().contains("background task 1") && err.to_string().contains("overflows"),
            "{scheduler}: {err}"
        );
        run_spec_json(&spec(scheduler, 30_000, "")).expect("the unbent spec runs");
    }
}

/// A runtime drawn past the end of time is a task that never finishes
/// before the horizon — the same run as one whose runtimes merely
/// outlast it. Wrapped, each completion landed just before its own
/// placement and every run span closed at length 0.
#[test]
fn runtimes_past_the_end_of_time_never_finish() {
    let run = |mean_runtime: u64| {
        let text = format!(
            r#"{{
            "name": "late_runtime",
            "schedulers": ["main_only"],
            "sim": {{"cycle": 500000, "attempts_per_cycle": 3,
                     "mean_runtime": {mean_runtime}, "horizon": 60000000, "seed": 7}},
            "workload": {{"Synthetic": {{
                "machines": [{{"count": 4, "cpu": 1.0, "memory": 1.0}}],
                "tasks": 40,
                "arrival": {{"Uniform": {{"gap": 30000}}}}
            }}}},
            "observability": {{"metrics": true, "spans": true}}
        }}"#
        );
        let spec = ExperimentSpec::from_json(&text).expect("spec parses");
        let (report, obs) = run_spec_observed(&spec, ArrivalMode::Streaming).expect("spec runs");
        let spans = to_pretty_json(&trace_document(&obs, false));
        let runs: Vec<(u64, u64)> = obs
            .spans
            .iter()
            .flat_map(|(_, log)| log.records())
            .filter(|r| r.kind == "running")
            .map(|r| (r.start, r.end))
            .collect();
        (to_pretty_json(&report), obs.metrics, spans, runs)
    };
    let (report, metrics, spans, runs) = run(u64::MAX);
    assert!(!runs.is_empty(), "tasks were placed");
    assert!(
        runs.iter()
            .all(|&(start, end)| end == 60_000_000 && start < end),
        "every run lasts until the horizon: {runs:?}"
    );
    let (long_report, long_metrics, long_spans, _) = run(100_000_000_000_000_000);
    assert_eq!(report, long_report);
    assert_eq!(metrics, long_metrics);
    assert_eq!(spans, long_spans);
}

#[test]
fn report_diffing_pairs_rows_and_computes_deltas() {
    use ctlm_lab::report::{diff_reports, SummaryDiff};
    let a = run_spec_json(&busy_spec()).expect("run a");
    // Same spec, harder attempt budget: per-point medians move, rows
    // stay aligned by (knobs, scheduler, cell).
    let mut spec = ExperimentSpec::from_json(&busy_spec()).unwrap();
    spec.sim.attempts_per_cycle = 1;
    let b = run_spec(&spec).expect("run b");
    let diff = diff_reports(&a, &b);
    assert_eq!(diff.len(), a.summary.len(), "every row pairs up");
    assert!(diff.iter().all(|d| d.present == (true, true)));
    // The tighter budget must slow the main-only group0 medians
    // somewhere — and the deltas must reflect both sides.
    let moved = diff
        .iter()
        .filter(|d| d.scheduler == "main_only")
        .filter_map(|d| SummaryDiff::delta(d.group0_mean))
        .any(|delta| delta > 0.0);
    assert!(moved, "starving the budget must worsen a group0 median");
    // Rows present on only one side are kept and marked.
    let mut b_extra = b.clone();
    b_extra.summary[0].cell = "renamed".to_string();
    let diff = diff_reports(&a, &b_extra);
    assert!(diff.iter().any(|d| d.present == (true, false)));
    assert!(diff
        .iter()
        .any(|d| d.present == (false, true) && d.cell == "renamed"));
    assert_eq!(
        SummaryDiff::delta((Some(2.0), Some(5.0))),
        Some(3.0),
        "delta is b − a"
    );
    assert_eq!(SummaryDiff::ratio((Some(2.0), Some(5.0))), Some(2.5));
    assert_eq!(SummaryDiff::ratio((None, Some(5.0))), None);
}

#[test]
fn knob_paths_rewrite_numbers_and_reject_garbage() {
    use ctlm_lab::sweep::set_path;
    use serde_json::Value;
    let spec = ExperimentSpec::from_json(&busy_spec()).unwrap();
    let mut doc = spec.to_value();
    set_path(&mut doc, "sim.mean_runtime", Value::Num(123.0)).expect("valid path");
    let back: ExperimentSpec = Deserialize::from_value(&doc).unwrap();
    assert_eq!(back.sim.mean_runtime, 123);
    assert!(set_path(&mut doc, "sim.nope", Value::Num(1.0)).is_err());
    assert!(
        set_path(&mut doc, "name", Value::Num(1.0)).is_err(),
        "non-numeric leaf"
    );
    assert!(set_path(&mut doc, "sim.cycle.deeper", Value::Num(1.0)).is_err());
}

//! End-to-end integration: trace → replay → continuous learning →
//! analyzer → scheduler, across crates.

use ctlm::prelude::*;
use ctlm::sched::engine::{arrivals_from_trace, compress_timeline};

fn small_replay(
    cell: CellSet,
    seed: u64,
) -> (ctlm::trace::GeneratedTrace, ctlm::agocs::ReplayOutput) {
    let trace = TraceGenerator::generate_cell(
        cell,
        Scale {
            machines: 120,
            collections: 700,
            seed,
        },
    );
    let replay = Replayer::default().replay(&trace);
    (trace, replay)
}

#[test]
fn full_pipeline_2019c() {
    let (_trace, replay) = small_replay(CellSet::C2019c, 31);
    assert!(replay.steps.len() >= 3, "expected multiple dataset steps");

    // Continuous learning across all steps.
    let cfg = TrainConfig {
        epochs_limit: 60,
        max_attempts: 3,
        ..TrainConfig::default()
    };
    let mut model = GrowingModel::new(cfg);
    let mut transfer_steps = 0;
    for (i, step) in replay.steps.iter().enumerate() {
        let out = model.step(&step.vv, i as u64);
        if out.used_transfer {
            transfer_steps += 1;
        }
        assert!(
            out.evaluation.accuracy > 0.5,
            "step {i} collapsed to accuracy {}",
            out.evaluation.accuracy
        );
    }
    assert!(
        transfer_steps >= replay.steps.len() - 1,
        "all steps after the first should transfer (got {transfer_steps})"
    );

    // The final model powers an analyzer whose predictions agree with
    // ground truth on a held-out re-encoding of the last step.
    let analyzer = model.analyzer(replay.vocab.clone());
    assert_eq!(analyzer.features(), replay.vocab.len());
}

#[test]
fn growing_beats_full_retrain_on_epochs_2019a() {
    let (_t, replay) = small_replay(CellSet::C2019a, 32);
    let cfg = TrainConfig {
        epochs_limit: 50,
        max_attempts: 2,
        ..TrainConfig::default()
    };
    let g = run_model_over_steps(ModelKind::Growing, &replay.steps, cfg, 1);
    let f = run_model_over_steps(ModelKind::FullyRetrain, &replay.steps, cfg, 1);
    assert!(
        g.epochs_total < f.epochs_total,
        "growing {} vs retrain {} epochs",
        g.epochs_total,
        f.epochs_total
    );
    assert!(
        g.avg_accuracy > f.avg_accuracy - 0.1,
        "accuracy gap too large"
    );
}

#[test]
fn analyzer_agrees_with_matcher_ground_truth() {
    // Train on a trace, then check analyzer predictions against the
    // matcher's ground truth on the training distribution: the paper's
    // >99 % accuracy claim, tested end-to-end at reduced scale.
    let (_trace, replay) = small_replay(CellSet::C2019c, 33);
    let cfg = TrainConfig {
        epochs_limit: 80,
        max_attempts: 3,
        ..TrainConfig::default()
    };
    let mut model = GrowingModel::new(cfg);
    for (i, step) in replay.steps.iter().enumerate() {
        model.step(&step.vv, i as u64);
    }
    let last = replay.steps.last().unwrap();
    let pred = model.to_net().predict(&last.vv.x);
    let acc = pred
        .iter()
        .zip(last.vv.y.iter())
        .filter(|(a, b)| a == b)
        .count() as f64
        / last.vv.len() as f64;
    assert!(acc > 0.85, "end-to-end accuracy {acc}");
}

#[test]
fn scheduler_integration_runs_all_policies() {
    let trace = TraceGenerator::generate_cell(
        CellSet::C2019c,
        Scale {
            machines: 100,
            collections: 400,
            seed: 34,
        },
    );
    let replay = Replayer::default().replay(&trace);
    let cfg = TrainConfig {
        epochs_limit: 40,
        max_attempts: 2,
        ..TrainConfig::default()
    };
    let mut model = GrowingModel::new(cfg);
    for (i, step) in replay.steps.iter().enumerate() {
        model.step(&step.vv, i as u64);
    }
    let registry = ModelRegistry::new();
    registry.install(model.analyzer(replay.vocab.clone()));

    let (cluster, mut arrivals) = arrivals_from_trace(&trace, 1_500);
    assert!(!arrivals.is_empty());
    // Trace arrivals span 31 days; compress onto the 20-minute sim window.
    compress_timeline(
        &mut arrivals,
        ctlm::sim::SimTime::from_micros(1_200_000_000),
    );
    let sim = Simulator::new(SimConfig {
        cycle: 1_000_000,
        attempts_per_cycle: 6,
        mean_runtime: 30_000_000,
        horizon: 1_800_000_000,
        seed: 2,
    });
    let mut policies: Vec<Box<dyn Scheduler>> = vec![
        Box::new(MainOnly),
        Box::new(LiveRegistry::new(registry)),
        Box::new(OracleEnhanced),
    ];
    for policy in policies.iter_mut() {
        let (_, r) = sim
            .harness(cluster.clone(), &arrivals, policy.as_mut())
            .run();
        let placed_frac = r.placed.len() as f64 / arrivals.len() as f64;
        assert!(placed_frac > 0.5, "placed only {placed_frac:.2}");
    }
}

#[test]
fn co_el_new_labels_are_invisible_to_a_grown_model_co_vv_patterns_are_not() {
    // The paper's negative result: “the growing model approach worked
    // well for the CO-VV dataset but not for CO-EL, as CO-VV features can
    // be grouped for generalization, while CO-EL's label-encoded COs lack
    // overlapping properties for effective generalization.”
    //
    // The mechanism, tested deterministically: grow (zero-pad) a trained
    // model to admit new columns. A CO-EL row made of *new labels only*
    // hits exclusively zero-weight columns, so the model's output is a
    // constant — two different unseen constraint patterns are
    // indistinguishable. A CO-VV row for an unseen constraint pattern
    // still marks *known value columns*, so the model's output responds
    // to it.
    use ctlm::nn::state_dict::pad_input_weight;
    use ctlm::tensor::CsrBuilder;

    let (trace, replay) = small_replay(CellSet::C2019c, 35);
    let el = &Replayer::default().co_el(&trace);
    let vv = &replay.steps.last().unwrap().vv;
    let cfg = TrainConfig {
        epochs_limit: 40,
        max_attempts: 2,
        ..TrainConfig::default()
    };

    // --- CO-EL: train, grow by two fresh label columns, compare.
    let mut el_model = GrowingModel::new(cfg);
    el_model.step(el, 1);
    let el_width = el.features_count();
    let mut sd = el_model.state_dict().unwrap().clone();
    pad_input_weight(&mut sd, "fc1.weight", el_width + 2).unwrap();
    let mut grown = ctlm::core::trainer::fresh_two_layer(el_width + 2, el_model.config(), 0);
    grown.load_state_dict(&sd).unwrap();
    let mut b = CsrBuilder::new(el_width + 2);
    b.push_row([(el_width, 1.0)]); // unseen label A
    b.push_row([(el_width + 1, 1.0)]); // unseen label B
    b.push_row([]); // no constraints at all
    let x = b.finish();
    let logits = grown.forward(&x);
    assert_eq!(
        logits.row(0),
        logits.row(1),
        "two distinct unseen CO-EL labels must be indistinguishable"
    );
    assert_eq!(
        logits.row(0),
        logits.row(2),
        "an unseen CO-EL label must look exactly like no constraint"
    );

    // --- CO-VV: the same grown-model surgery, but unseen *patterns* are
    // combinations of known value columns, so the model responds.
    let mut vv_model = GrowingModel::new(cfg);
    vv_model.step(vv, 1);
    let vv_net = vv_model.to_net();
    let w = vv.features_count();
    let mut b = CsrBuilder::new(w);
    // Pattern 1: almost everything unacceptable (a near-Group-0 task).
    b.push_row((1..w).map(|c| (c, 1.0)));
    // Pattern 2: nothing unacceptable (runs anywhere).
    b.push_row([]);
    let x = b.finish();
    let logits = vv_net.forward(&x);
    assert_ne!(
        logits.row(0),
        logits.row(1),
        "CO-VV patterns over known values must be distinguishable"
    );
    let pred = logits.argmax_rows();
    assert!(
        pred[0] < pred[1] || pred[0] == 0,
        "the heavily-constrained pattern should score a lower group ({} vs {})",
        pred[0],
        pred[1]
    );
}

//! The paper's epoch claim, checked on Table XI's golden document
//! (`experiments/golden/paper/table11_2019c_steps.json`, seed 42).
//!
//! A step is *capped* when its training was never accepted: every
//! attempt ran to the epoch limit, so its epochs are the limit, not a
//! measurement. The claim therefore holds on two counts: the Growing
//! model needs fewer epochs than Fully Retrain over all steps and over
//! the steps neither model capped, and the reduction on those steps
//! lies in the paper's 40–91 % band. The document must name each
//! model's capped steps.

use std::path::Path;

use ctlm_core::TrainConfig;
use serde_json::Value;

fn array(v: &Value) -> &[Value] {
    match v {
        Value::Array(items) => items,
        other => panic!("expected an array, got {other:?}"),
    }
}

fn count(v: &Value) -> usize {
    v.as_f64().expect("a number") as usize
}

#[test]
fn table11_growing_needs_fewer_epochs_than_fully_retrain() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../experiments/golden/paper/table11_2019c_steps.json");
    let text = std::fs::read_to_string(path).expect("the Table XI golden");
    let doc = serde_json::parse_value(&text).expect("the golden parses");
    let steps = array(&doc["steps"]);
    let cfg = TrainConfig::default();
    let capped = |model: &str| -> Vec<usize> {
        let capped = steps.iter().filter(|s| s[model]["accepted"] == false);
        capped.map(|s| count(&s["step"])).collect()
    };
    for model in ["growing", "fully_retrain"] {
        let listed: Vec<usize> = array(&doc[model]["capped_steps"])
            .iter()
            .map(count)
            .collect();
        assert_eq!(listed, capped(model), "{model}'s capped steps");
        for s in steps.iter().filter(|s| s[model]["accepted"] == false) {
            assert_eq!(
                count(&s[model]["attempts"]),
                cfg.max_attempts,
                "{model}: {s:?}"
            );
            let limit = cfg.max_attempts * cfg.epochs_limit;
            assert_eq!(count(&s[model]["epochs"]), limit, "{model}: {s:?}");
        }
    }
    let epochs = |model: &str, uncapped_only: bool| -> usize {
        let kept = steps.iter().filter(|s| {
            !uncapped_only
                || (s["growing"]["accepted"] == true && s["fully_retrain"]["accepted"] == true)
        });
        kept.map(|s| count(&s[model]["epochs"])).sum()
    };
    let (growing, retrain) = (epochs("growing", false), epochs("fully_retrain", false));
    assert!(growing < retrain, "all steps: {growing} vs {retrain}");
    assert_eq!(growing, count(&doc["growing"]["epochs"]));
    assert_eq!(retrain, count(&doc["fully_retrain"]["epochs"]));
    let (growing, retrain) = (epochs("growing", true), epochs("fully_retrain", true));
    assert!(growing < retrain, "uncapped steps: {growing} vs {retrain}");
    let uncapped = &doc["uncapped_steps"];
    assert_eq!(growing, count(&uncapped["growing_epochs"]));
    assert_eq!(retrain, count(&uncapped["fully_retrain_epochs"]));
    let reduction = 1.0 - growing as f64 / retrain as f64;
    assert!(
        (0.40..=0.91).contains(&reduction),
        "uncapped epoch reduction {reduction:.3} outside the paper's 40–91 %"
    );
    assert_eq!(uncapped["epoch_reduction"], reduction);
}

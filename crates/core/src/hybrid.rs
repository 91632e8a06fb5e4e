//! Hybrid rule + ML task analysis (paper §VI, future work 1).
//!
//! “Task Misclassification via Hybridization: A mixed model that combines
//! ML with predefined rules (human input). Misclassifying single-node
//! tasks as multi-node ones, while manageable, may cause performance
//! issues like resource reallocation. A secondary heuristic layer could
//! better handle edge cases, reducing disruptions.”
//!
//! The [`HybridAnalyzer`] wraps a [`TaskCoAnalyzer`] with a rule layer
//! evaluated *before* the model:
//!
//! * an `Equal` constraint on an attribute registered as unique-per-node
//!   (e.g. `node_index`) ⇒ Group 0, no model call;
//! * a constraint set whose compaction is contradictory ⇒ flagged
//!   unschedulable immediately;
//! * otherwise the ML prediction stands, except that rule-estimable upper
//!   bounds clamp obvious misclassifications (a task that can only ever
//!   match one node must never be predicted into a large group).

use std::collections::BTreeSet;

use ctlm_data::compaction::{collapse, CompactionError};
use ctlm_trace::{AttrId, TaskConstraint};

use crate::analyzer::TaskCoAnalyzer;

/// Where a hybrid verdict came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerdictSource {
    /// A predefined rule decided without consulting the model.
    Rule,
    /// The ML model decided.
    Model,
    /// The model decided but a rule clamped the result.
    ModelClamped,
}

/// A group prediction with provenance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HybridVerdict {
    /// Predicted suitable-node group.
    pub group: u8,
    /// Which layer produced it.
    pub source: VerdictSource,
}

/// Rule-augmented analyzer.
#[derive(Clone, Debug)]
pub struct HybridAnalyzer {
    model: TaskCoAnalyzer,
    /// Attributes known (human input) to hold a unique value per node.
    unique_attrs: BTreeSet<AttrId>,
}

impl HybridAnalyzer {
    /// Wraps a model analyzer with the rule layer.
    pub fn new(model: TaskCoAnalyzer, unique_attrs: impl IntoIterator<Item = AttrId>) -> Self {
        Self {
            model,
            unique_attrs: unique_attrs.into_iter().collect(),
        }
    }

    /// The wrapped model analyzer.
    pub fn model(&self) -> &TaskCoAnalyzer {
        &self.model
    }

    /// Predicts with the rule layer in front of the model.
    pub fn predict(
        &self,
        constraints: &[TaskConstraint],
    ) -> Result<HybridVerdict, CompactionError> {
        // Collapsed once: the rules read it, then the model scores it.
        // A contradiction is the rule layer's first verdict (`Err`).
        let reqs = collapse(constraints)?;
        // Rule: Equal on a unique-per-node attribute pins the task to at
        // most one node ⇒ Group 0, regardless of what the model thinks.
        let pinned = reqs
            .iter()
            .any(|r| r.equal.is_some() && self.unique_attrs.contains(&r.attr));
        if pinned {
            return Ok(HybridVerdict {
                group: 0,
                source: VerdictSource::Rule,
            });
        }
        let model_group = self.model.group_of(&reqs);
        // Clamp: a range of width w on a unique attribute can match at
        // most w nodes; if that bound maps below the model's group, trust
        // the bound (the misclassification case the paper worries about).
        let mut bound: Option<usize> = None;
        for r in &reqs {
            if self.unique_attrs.contains(&r.attr) {
                if let (Some(lo), Some(hi)) = (r.lo, r.hi) {
                    let width = (hi - lo + 1).max(0) as usize;
                    bound = Some(bound.map_or(width, |b| b.min(width)));
                }
            }
        }
        if let Some(b) = bound {
            // Bucketed at width 1: the clamp only fires when the count
            // bound is small, where every group width agrees.
            let bound_group = ctlm_data::dataset::group_for_count(b.max(1), 1);
            if bound_group < model_group {
                return Ok(HybridVerdict {
                    group: bound_group,
                    source: VerdictSource::ModelClamped,
                });
            }
        }
        Ok(HybridVerdict {
            group: model_group,
            source: VerdictSource::Model,
        })
    }

    /// High-priority routing with rules in front.
    pub fn is_high_priority(&self, constraints: &[TaskConstraint]) -> bool {
        match self.predict(constraints) {
            Ok(v) => v.group <= self.model.priority_threshold,
            Err(_) => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::growing::GrowingModel;
    use crate::trainer::TrainConfig;
    use ctlm_data::dataset::{DatasetBuilder, NUM_GROUPS};
    use ctlm_data::encode::co_vv::CoVvEncoder;
    use ctlm_data::vocab::ValueVocab;
    use ctlm_trace::{AttrValue, ConstraintOp as Op};

    /// A deliberately *under-trained* model (1 epoch) so the rule layer's
    /// corrections are observable.
    fn weak_hybrid() -> HybridAnalyzer {
        let mut vocab = ValueVocab::new();
        for v in 0..20 {
            vocab.observe(0, &AttrValue::Int(v));
        }
        let width = vocab.len();
        let enc = CoVvEncoder;
        let mut b = DatasetBuilder::new(width, NUM_GROUPS);
        for k in 1..20i64 {
            let cs = vec![TaskConstraint::new(0, Op::LessThan(k))];
            let reqs = collapse(&cs).unwrap();
            b.push(
                enc.encode_requirements(&reqs, &vocab),
                ctlm_data::dataset::group_for_count(k as usize, 1),
            );
            b.push(
                enc.encode_requirements(&reqs, &vocab),
                ctlm_data::dataset::group_for_count(k as usize, 1),
            );
        }
        let ds = b.snapshot(width);
        let mut m = GrowingModel::new(TrainConfig {
            epochs_limit: 1,
            max_attempts: 1,
            ..TrainConfig::default()
        });
        m.step(&ds, 1);
        HybridAnalyzer::new(m.analyzer(vocab), [0])
    }

    #[test]
    fn equal_on_unique_attr_is_rule_decided() {
        let h = weak_hybrid();
        let cs = vec![TaskConstraint::new(0, Op::Equal(Some(AttrValue::Int(7))))];
        let v = h.predict(&cs).unwrap();
        assert_eq!(v.group, 0);
        assert_eq!(v.source, VerdictSource::Rule);
        assert!(h.is_high_priority(&cs));
    }

    #[test]
    fn narrow_window_clamps_a_bad_model_guess() {
        let h = weak_hybrid();
        // Width-1 window: at most 1 node. The untrained model may say
        // anything; the hybrid must say Group 0.
        let cs = vec![
            TaskConstraint::new(0, Op::GreaterThanEqual(5)),
            TaskConstraint::new(0, Op::LessThanEqual(5)),
        ];
        let v = h.predict(&cs).unwrap();
        assert_eq!(v.group, 0, "count bound of 1 must clamp to Group 0");
        // Provenance depends on what the (untrained) model happened to
        // say: if it was already right the verdict is Model, otherwise
        // the clamp must have fired.
        let raw = h.model().predict_group(&cs).unwrap();
        if raw > 0 {
            assert_eq!(v.source, VerdictSource::ModelClamped);
        } else {
            assert_eq!(v.source, VerdictSource::Model);
        }
    }

    #[test]
    fn contradictions_surface_as_errors() {
        let h = weak_hybrid();
        let cs = vec![
            TaskConstraint::new(0, Op::Equal(Some(AttrValue::Int(1)))),
            TaskConstraint::new(0, Op::Equal(Some(AttrValue::Int(2)))),
        ];
        assert!(h.predict(&cs).is_err());
        assert!(h.is_high_priority(&cs), "unschedulable tasks surface fast");
    }

    #[test]
    fn non_unique_attrs_do_not_trigger_rules() {
        let h = weak_hybrid();
        // Attribute 5 is not registered unique: Equal on it is NOT a
        // guaranteed single-node pin, so the model decides.
        let cs = vec![TaskConstraint::new(5, Op::Equal(Some(AttrValue::Int(1))))];
        let v = h.predict(&cs).unwrap();
        assert_eq!(v.source, VerdictSource::Model);
    }
}

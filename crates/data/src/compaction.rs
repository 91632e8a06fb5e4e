//! Constraint-operator compaction (paper Table V).
//!
//! Before encoding, a task's constraints are collapsed per attribute:
//!
//! * ordering operators combine into a **Between** range
//!   (`8 > ${AM}` + `3 > ${AM}` + `${AM} > 0` → `3 > ${AM} > 0`);
//! * `Not-Equal` operators fold into a **Non-Equal-Array**
//!   (`${N} <> 'a'`, `<> 'b'`, `<> 'c'` → `${N} <> 'a';'b';'c'`);
//! * `Equal` dominates `Not-Equal`s on the same attribute
//!   (`${G} <> 'a'`, `<> 'b'`, `= 'c'` → `${G} = 'c'`);
//! * contradictions (`${DC} = 1` + `${DC} = 7`) produce an error — the
//!   paper logs these (fewer than twenty across all datasets) and skips
//!   the task.
//!
//! The result of collapsing is an [`AttrRequirement`] per attribute — a
//! normal form that both the dataset encoders and the tests' equivalence
//! property consume.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::fmt;

use serde::{Deserialize, Serialize};

use ctlm_trace::{AttrId, AttrValue, ConstraintOp, TaskConstraint};

/// Presence demanded of the attribute.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Presence {
    /// No presence requirement beyond what other fields imply.
    Any,
    /// The attribute must be defined (Present, or implied by a range).
    Required,
    /// The attribute must be undefined (Not-Present / `Equal(None)`).
    Forbidden,
}

/// The collapsed normal form of all constraints on one attribute.
///
/// `Eq + Hash` make a collapsed set (`[AttrRequirement]`) a map key:
/// everything that is a pure function of a task's constraints — its
/// ground-truth suitable count, its CO-VV row, its routing decision —
/// can be computed once per distinct set.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AttrRequirement {
    /// The attribute this requirement constrains.
    pub attr: AttrId,
    /// Presence demand.
    pub presence: Presence,
    /// Exact-match demand (dominates everything else when present).
    pub equal: Option<AttrValue>,
    /// Inclusive numeric range `[lo, hi]`; either side may be unbounded.
    /// A range implies `presence == Required`.
    pub lo: Option<i64>,
    /// Upper inclusive bound.
    pub hi: Option<i64>,
    /// Excluded values (the Non-Equal-Array payload).
    pub excluded: BTreeSet<AttrValue>,
}

impl AttrRequirement {
    fn new(attr: AttrId) -> Self {
        Self {
            attr,
            presence: Presence::Any,
            equal: None,
            lo: None,
            hi: None,
            excluded: BTreeSet::new(),
        }
    }

    /// True when this requirement accepts the given attribute state
    /// (`None` = attribute absent). By construction this is equivalent to
    /// evaluating all original constraints — the property tests verify it.
    pub fn accepts(&self, attr: Option<&AttrValue>) -> bool {
        match self.presence {
            Presence::Forbidden => return attr.is_none(),
            Presence::Required => {
                if attr.is_none() {
                    return false;
                }
            }
            Presence::Any => {}
        }
        if let Some(eq) = &self.equal {
            return attr == Some(eq);
        }
        if let Some(v) = attr {
            if self.excluded.contains(v) {
                return false;
            }
        }
        if self.lo.is_some() || self.hi.is_some() {
            let Some(n) = attr.and_then(AttrValue::as_int) else {
                return false;
            };
            if let Some(lo) = self.lo {
                if n < lo {
                    return false;
                }
            }
            if let Some(hi) = self.hi {
                if n > hi {
                    return false;
                }
            }
        }
        true
    }

    /// True when the requirement is a pure range (the paper's *Between*
    /// operator).
    #[cfg(test)]
    pub fn is_between(&self) -> bool {
        self.equal.is_none() && (self.lo.is_some() || self.hi.is_some())
    }

    /// True when the requirement is a pure Non-Equal-Array.
    #[cfg(test)]
    pub fn is_not_equal_array(&self) -> bool {
        self.equal.is_none()
            && self.lo.is_none()
            && self.hi.is_none()
            && !self.excluded.is_empty()
            && self.presence == Presence::Any
    }
}

impl fmt::Display for AttrRequirement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let a = self.attr;
        if self.presence == Presence::Forbidden {
            return write!(f, "${{{a}}} not-present");
        }
        if let Some(eq) = &self.equal {
            return write!(f, "${{{a}}} = {eq}");
        }
        match (self.lo, self.hi) {
            (Some(lo), Some(hi)) => write!(f, "{} > ${{{a}}} > {}", hi + 1, lo - 1)?,
            (Some(lo), None) => write!(f, "${{{a}}} > {}", lo - 1)?,
            (None, Some(hi)) => write!(f, "{} > ${{{a}}}", hi + 1)?,
            (None, None) => {
                if self.excluded.is_empty() {
                    return write!(f, "${{{a}}} present");
                }
                let list: Vec<String> = self.excluded.iter().map(|v| v.to_string()).collect();
                return write!(f, "${{{a}}} <> {}", list.join("; "));
            }
        }
        if !self.excluded.is_empty() {
            let list: Vec<String> = self.excluded.iter().map(|v| v.to_string()).collect();
            write!(f, " (excluding {})", list.join("; "))?;
        }
        Ok(())
    }
}

/// A contradiction or type error found while collapsing. The paper logs
/// these ("such anomalies are very rare — fewer than twenty across all
/// datasets — and are ignored in the simulation").
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CompactionError {
    /// Two constraints can never hold together.
    Contradiction {
        /// The attribute whose constraints conflict.
        attr: AttrId,
        /// Human-readable description.
        detail: String,
    },
    /// An ordering operator was applied alongside non-numeric demands in a
    /// way that can never match.
    TypeMismatch {
        /// The attribute involved.
        attr: AttrId,
        /// Human-readable description.
        detail: String,
    },
}

impl fmt::Display for CompactionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompactionError::Contradiction { attr, detail } => {
                write!(f, "contradictory constraints on ${{{attr}}}: {detail}")
            }
            CompactionError::TypeMismatch { attr, detail } => {
                write!(f, "type mismatch on ${{{attr}}}: {detail}")
            }
        }
    }
}

impl std::error::Error for CompactionError {}

/// Collapses a task's constraints into per-attribute requirements,
/// in first-appearance attribute order.
pub fn collapse(constraints: &[TaskConstraint]) -> Result<Vec<AttrRequirement>, CompactionError> {
    let mut order: Vec<AttrId> = Vec::new();
    let mut map: BTreeMap<AttrId, AttrRequirement> = BTreeMap::new();
    for c in constraints {
        map.entry(c.attr).or_insert_with(|| {
            order.push(c.attr);
            AttrRequirement::new(c.attr)
        });
        let req = map.get_mut(&c.attr).expect("just inserted");
        apply(req, &c.op)?;
    }
    // Final normalisation pass per attribute.
    for req in map.values_mut() {
        normalise(req)?;
    }
    Ok(order
        .into_iter()
        .map(|a| map.remove(&a).expect("ordered key"))
        .collect())
}

/// Folds one operator into the running requirement.
fn apply(req: &mut AttrRequirement, op: &ConstraintOp) -> Result<(), CompactionError> {
    let attr = req.attr;
    match op {
        ConstraintOp::Equal(Some(v)) => {
            if let Some(prev) = &req.equal {
                if prev != v {
                    return Err(CompactionError::Contradiction {
                        attr,
                        detail: format!("= {prev} and = {v}"),
                    });
                }
            }
            if req.presence == Presence::Forbidden {
                return Err(CompactionError::Contradiction {
                    attr,
                    detail: format!("not-present and = {v}"),
                });
            }
            req.equal = Some(v.clone());
            req.presence = Presence::Required;
        }
        ConstraintOp::Equal(None) | ConstraintOp::NotPresent => {
            if req.presence == Presence::Required || req.equal.is_some() {
                return Err(CompactionError::Contradiction {
                    attr,
                    detail: "attribute required present and absent".into(),
                });
            }
            req.presence = Presence::Forbidden;
        }
        ConstraintOp::NotEqual(v) => {
            req.excluded.insert(v.clone());
        }
        ConstraintOp::Present => {
            if req.presence == Presence::Forbidden {
                return Err(CompactionError::Contradiction {
                    attr,
                    detail: "attribute required absent and present".into(),
                });
            }
            req.presence = Presence::Required;
        }
        ConstraintOp::LessThan(v) => merge_range(req, None, Some(v - 1))?,
        ConstraintOp::LessThanEqual(v) => merge_range(req, None, Some(*v))?,
        ConstraintOp::GreaterThan(v) => merge_range(req, Some(v + 1), None)?,
        ConstraintOp::GreaterThanEqual(v) => merge_range(req, Some(*v), None)?,
    }
    Ok(())
}

/// Intersects a numeric range into the requirement (ranges imply
/// presence).
fn merge_range(
    req: &mut AttrRequirement,
    lo: Option<i64>,
    hi: Option<i64>,
) -> Result<(), CompactionError> {
    if req.presence == Presence::Forbidden {
        return Err(CompactionError::Contradiction {
            attr: req.attr,
            detail: "range on attribute required absent".into(),
        });
    }
    req.presence = Presence::Required;
    if let Some(lo) = lo {
        req.lo = Some(req.lo.map_or(lo, |old| old.max(lo)));
    }
    if let Some(hi) = hi {
        req.hi = Some(req.hi.map_or(hi, |old| old.min(hi)));
    }
    Ok(())
}

/// Post-pass: tighten bounds past adjacent exclusions, validate `Equal`
/// against ranges and exclusions, detect empty ranges.
fn normalise(req: &mut AttrRequirement) -> Result<(), CompactionError> {
    let attr = req.attr;
    if let Some(eq) = req.equal.clone() {
        // Equal dominates Not-Equal (Table V) — but must not contradict
        // them or the range.
        if req.excluded.contains(&eq) {
            return Err(CompactionError::Contradiction {
                attr,
                detail: format!("= {eq} and <> {eq}"),
            });
        }
        if req.lo.is_some() || req.hi.is_some() {
            let Some(n) = eq.as_int() else {
                return Err(CompactionError::TypeMismatch {
                    attr,
                    detail: format!("range combined with non-numeric = {eq}"),
                });
            };
            if req.lo.is_some_and(|lo| n < lo) || req.hi.is_some_and(|hi| n > hi) {
                return Err(CompactionError::Contradiction {
                    attr,
                    detail: format!("= {eq} outside range"),
                });
            }
        }
        // Dominance: drop the subsumed demands.
        req.excluded.clear();
        req.lo = None;
        req.hi = None;
        return Ok(());
    }
    // The GCD traces support only integer numbers in constraint operators,
    // so `AM > 3` + `AM <> 4` tightens to `AM > 4` (Table V row 2).
    if req.lo.is_some() || req.hi.is_some() {
        loop {
            let mut changed = false;
            if let Some(lo) = req.lo {
                if req.excluded.remove(&AttrValue::Int(lo)) {
                    req.lo = Some(lo + 1);
                    changed = true;
                }
            }
            if let Some(hi) = req.hi {
                if req.excluded.remove(&AttrValue::Int(hi)) {
                    req.hi = Some(hi - 1);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        if let (Some(lo), Some(hi)) = (req.lo, req.hi) {
            if lo > hi {
                return Err(CompactionError::Contradiction {
                    attr,
                    detail: format!("empty range [{lo}, {hi}]"),
                });
            }
        }
        // Exclusions outside the range are redundant.
        let (lo, hi) = (req.lo, req.hi);
        req.excluded.retain(|v| match v.as_int() {
            Some(n) => lo.is_none_or(|l| n >= l) && hi.is_none_or(|h| n <= h),
            None => false, // strings can never match a ranged attribute
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctlm_trace::ConstraintOp as Op;

    fn iv(v: i64) -> AttrValue {
        AttrValue::Int(v)
    }
    fn c(attr: AttrId, op: Op) -> TaskConstraint {
        TaskConstraint::new(attr, op)
    }

    // --- The exact Table V rows -----------------------------------------

    #[test]
    fn table5_row1_bounds_compact_to_between() {
        // 8 > ${AM}, 3 > ${AM}, ${AM} > 0  →  3 > ${AM} > 0
        let reqs = collapse(&[
            c(0, Op::LessThan(8)),
            c(0, Op::LessThan(3)),
            c(0, Op::GreaterThan(0)),
        ])
        .unwrap();
        assert_eq!(reqs.len(), 1);
        let r = &reqs[0];
        assert!(r.is_between());
        assert_eq!((r.lo, r.hi), (Some(1), Some(2)));
        assert_eq!(r.to_string(), "3 > ${0} > 0");
    }

    #[test]
    fn table5_row2_not_equals_tighten_integer_bounds() {
        // ${AM} <> 1, ${AM} > 3, ${AM} <> 4  →  ${AM} > 4
        let reqs = collapse(&[
            c(0, Op::NotEqual(iv(1))),
            c(0, Op::GreaterThan(3)),
            c(0, Op::NotEqual(iv(4))),
        ])
        .unwrap();
        let r = &reqs[0];
        assert_eq!((r.lo, r.hi), (Some(5), None));
        assert!(r.excluded.is_empty(), "1 is outside the range, 4 absorbed");
        assert_eq!(r.to_string(), "${0} > 4");
    }

    #[test]
    fn table5_row3_not_equal_array() {
        // ${N} <> 'a', 'b', 'c' → Non-Equal-Array
        let reqs = collapse(&[
            c(0, Op::NotEqual("a".into())),
            c(0, Op::NotEqual("b".into())),
            c(0, Op::NotEqual("c".into())),
        ])
        .unwrap();
        let r = &reqs[0];
        assert!(r.is_not_equal_array());
        assert_eq!(r.excluded.len(), 3);
        assert_eq!(r.to_string(), "${0} <> 'a'; 'b'; 'c'");
    }

    #[test]
    fn table5_row4_equal_dominates_not_equals() {
        // ${G} <> 'a', <> 'b', = 'c'  →  ${G} = 'c'
        let reqs = collapse(&[
            c(0, Op::NotEqual("a".into())),
            c(0, Op::NotEqual("b".into())),
            c(0, Op::Equal(Some("c".into()))),
        ])
        .unwrap();
        let r = &reqs[0];
        assert_eq!(r.equal, Some("c".into()));
        assert!(r.excluded.is_empty());
        assert_eq!(r.to_string(), "${0} = 'c'");
    }

    #[test]
    fn table5_row5_conflicting_equals_error() {
        // ${DC} = 1, ${DC} = 7 → logged error
        let err =
            collapse(&[c(0, Op::Equal(Some(iv(1)))), c(0, Op::Equal(Some(iv(7))))]).unwrap_err();
        assert!(matches!(
            err,
            CompactionError::Contradiction { attr: 0, .. }
        ));
    }

    // --- Additional semantics --------------------------------------------

    #[test]
    fn equal_and_not_equal_same_value_is_contradiction() {
        let err = collapse(&[c(0, Op::Equal(Some(iv(2)))), c(0, Op::NotEqual(iv(2)))]).unwrap_err();
        assert!(matches!(err, CompactionError::Contradiction { .. }));
    }

    #[test]
    fn equal_outside_range_is_contradiction() {
        let err = collapse(&[c(0, Op::GreaterThan(5)), c(0, Op::Equal(Some(iv(3))))]).unwrap_err();
        assert!(matches!(err, CompactionError::Contradiction { .. }));
    }

    #[test]
    fn equal_inside_range_dominates() {
        let reqs = collapse(&[c(0, Op::GreaterThan(5)), c(0, Op::Equal(Some(iv(7))))]).unwrap();
        assert_eq!(reqs[0].equal, Some(iv(7)));
        assert_eq!(reqs[0].lo, None);
    }

    #[test]
    fn empty_range_is_contradiction() {
        let err = collapse(&[c(0, Op::GreaterThan(5)), c(0, Op::LessThan(5))]).unwrap_err();
        assert!(matches!(err, CompactionError::Contradiction { .. }));
    }

    #[test]
    fn le_ge_collapse_to_inclusive_bounds() {
        let reqs = collapse(&[c(0, Op::GreaterThanEqual(2)), c(0, Op::LessThanEqual(6))]).unwrap();
        assert_eq!((reqs[0].lo, reqs[0].hi), (Some(2), Some(6)));
    }

    #[test]
    fn not_present_with_range_is_contradiction() {
        let err = collapse(&[c(0, Op::NotPresent), c(0, Op::GreaterThan(1))]).unwrap_err();
        assert!(matches!(err, CompactionError::Contradiction { .. }));
        let err2 = collapse(&[c(0, Op::GreaterThan(1)), c(0, Op::NotPresent)]).unwrap_err();
        assert!(matches!(err2, CompactionError::Contradiction { .. }));
    }

    #[test]
    fn present_plus_not_equal_keeps_both() {
        let reqs = collapse(&[c(0, Op::Present), c(0, Op::NotEqual(iv(1)))]).unwrap();
        let r = &reqs[0];
        assert_eq!(r.presence, Presence::Required);
        assert!(!r.accepts(None));
        assert!(!r.accepts(Some(&iv(1))));
        assert!(r.accepts(Some(&iv(2))));
    }

    #[test]
    fn equal_none_behaves_as_not_present() {
        let reqs = collapse(&[c(0, Op::Equal(None))]).unwrap();
        assert_eq!(reqs[0].presence, Presence::Forbidden);
        assert!(reqs[0].accepts(None));
        assert!(!reqs[0].accepts(Some(&iv(0))));
    }

    #[test]
    fn attributes_keep_first_appearance_order() {
        let reqs = collapse(&[
            c(5, Op::Present),
            c(2, Op::NotEqual(iv(1))),
            c(5, Op::NotEqual(iv(9))),
        ])
        .unwrap();
        assert_eq!(reqs.iter().map(|r| r.attr).collect::<Vec<_>>(), vec![5, 2]);
    }

    /// The collapsed set is the memo key for per-set work, so constraint
    /// lists that differ only in operator order or redundant bounds must
    /// land on one key: `==` and the same hash.
    #[test]
    fn reordered_and_redundant_constraints_collapse_to_one_key() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |reqs: &[AttrRequirement]| {
            let mut h = DefaultHasher::new();
            reqs.hash(&mut h);
            h.finish()
        };
        let a = collapse(&[
            c(0, Op::LessThan(8)),
            c(0, Op::LessThan(3)),
            c(0, Op::GreaterThan(0)),
            c(1, Op::NotEqual("x".into())),
            c(1, Op::NotEqual("y".into())),
        ])
        .unwrap();
        let b = collapse(&[
            c(0, Op::GreaterThanEqual(1)),
            c(1, Op::NotEqual("y".into())),
            c(0, Op::LessThanEqual(2)),
            c(1, Op::NotEqual("x".into())),
            c(1, Op::NotEqual("y".into())),
            c(0, Op::NotEqual(iv(7))),
        ])
        .unwrap();
        assert_eq!(a, b);
        assert_eq!(hash(&a), hash(&b));
        // Attribute order is part of the key: a different first
        // appearance is a second key (a memo miss), never a false hit.
        let swapped = collapse(&[
            c(1, Op::NotEqual("x".into())),
            c(1, Op::NotEqual("y".into())),
            c(0, Op::GreaterThan(0)),
            c(0, Op::LessThan(3)),
        ])
        .unwrap();
        assert_ne!(a, swapped);
    }

    #[test]
    fn duplicated_equal_is_fine() {
        let reqs = collapse(&[c(0, Op::Equal(Some(iv(1)))), c(0, Op::Equal(Some(iv(1))))]).unwrap();
        assert_eq!(reqs[0].equal, Some(iv(1)));
    }

    // --- Equivalence property: collapsed ≡ original ----------------------

    mod equivalence {
        use super::*;
        use proptest::prelude::*;

        fn arb_value() -> impl Strategy<Value = AttrValue> {
            prop_oneof![
                (-4i64..10).prop_map(AttrValue::Int),
                prop_oneof![Just("a"), Just("b"), Just("c")].prop_map(AttrValue::from),
            ]
        }

        fn arb_op() -> impl Strategy<Value = Op> {
            prop_oneof![
                arb_value().prop_map(|v| Op::Equal(Some(v))),
                Just(Op::Equal(None)),
                arb_value().prop_map(Op::NotEqual),
                (-4i64..10).prop_map(Op::LessThan),
                (-4i64..10).prop_map(Op::GreaterThan),
                (-4i64..10).prop_map(Op::LessThanEqual),
                (-4i64..10).prop_map(Op::GreaterThanEqual),
                Just(Op::Present),
                Just(Op::NotPresent),
            ]
        }

        proptest! {
            /// For any constraint set that collapses cleanly, the collapsed
            /// requirement accepts an attribute state iff every original
            /// operator matches it.
            #[test]
            fn collapse_preserves_matching(ops in prop::collection::vec(arb_op(), 1..6)) {
                let constraints: Vec<TaskConstraint> =
                    ops.iter().cloned().map(|op| TaskConstraint::new(0, op)).collect();
                if let Ok(reqs) = collapse(&constraints) {
                    prop_assert_eq!(reqs.len(), 1);
                    let req = &reqs[0];
                    let mut states: Vec<Option<AttrValue>> =
                        vec![None];
                    for n in -5i64..11 {
                        states.push(Some(AttrValue::Int(n)));
                    }
                    for s in ["a", "b", "c", "d"] {
                        states.push(Some(AttrValue::from(s)));
                    }
                    for st in &states {
                        let original = constraints.iter().all(|c| c.op.matches(st.as_ref()));
                        let collapsed = req.accepts(st.as_ref());
                        prop_assert_eq!(
                            original, collapsed,
                            "state {:?} original={} collapsed={} ops={:?}",
                            st, original, collapsed, &ops
                        );
                    }
                }
            }

            /// A contradiction error really means no attribute state can
            /// satisfy all original constraints.
            #[test]
            fn contradictions_are_unsatisfiable(ops in prop::collection::vec(arb_op(), 1..6)) {
                let constraints: Vec<TaskConstraint> =
                    ops.iter().cloned().map(|op| TaskConstraint::new(0, op)).collect();
                if collapse(&constraints).is_err() {
                    let mut states: Vec<Option<AttrValue>> = vec![None];
                    for n in -5i64..11 {
                        states.push(Some(AttrValue::Int(n)));
                    }
                    for s in ["a", "b", "c", "d"] {
                        states.push(Some(AttrValue::from(s)));
                    }
                    for st in &states {
                        let sat = constraints.iter().all(|c| c.op.matches(st.as_ref()));
                        prop_assert!(!sat, "claimed contradiction but {st:?} satisfies {ops:?}");
                    }
                }
            }
        }
    }
}

//! Property tests: the inverted attribute index answers every constraint
//! query exactly like the retained linear scan — over randomized
//! clusters, constraint sets, and machine churn (add / remove / attribute
//! update) interleaved with the queries.

use proptest::prelude::*;

use ctlm_agocs::matcher::{count_suitable_linear, suitable_machines_linear};
use ctlm_agocs::{count_suitable, suitable_machines, ClusterState};
use ctlm_data::compaction::collapse;
use ctlm_trace::{AttrValue, ConstraintOp as Op, Machine, TaskConstraint};

fn arb_value() -> impl Strategy<Value = AttrValue> {
    prop_oneof![
        (-3i64..12).prop_map(AttrValue::Int),
        prop_oneof![Just("a"), Just("b"), Just("c")].prop_map(AttrValue::from),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_value().prop_map(|v| Op::Equal(Some(v))),
        Just(Op::Equal(None)),
        arb_value().prop_map(Op::NotEqual),
        (-3i64..12).prop_map(Op::LessThan),
        (-3i64..12).prop_map(Op::GreaterThan),
        (-3i64..12).prop_map(Op::LessThanEqual),
        (-3i64..12).prop_map(Op::GreaterThanEqual),
        Just(Op::Present),
        Just(Op::NotPresent),
    ]
}

/// Builds a cluster from a compact description: each machine gets a
/// subset of attributes 0..3 with values drawn from the same pool the
/// constraints use.
fn build_cluster(spec: &[(u64, Vec<(u32, AttrValue)>)]) -> ClusterState {
    let mut s = ClusterState::new();
    for (id, attrs) in spec {
        let mut m = Machine::new(*id, 0.5, 0.5);
        for (a, v) in attrs {
            m.set_attr(*a, v.clone());
        }
        s.add_machine(m);
    }
    s
}

/// Operators that name no value a machine must hold — exclusions and
/// not-present: the queries with no posting list to seed from, which
/// walk the live set.
fn arb_negative_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_value().prop_map(Op::NotEqual),
        Just(Op::NotPresent),
        Just(Op::Equal(None)),
    ]
}

fn arb_machine_attrs() -> impl Strategy<Value = Vec<(u32, AttrValue)>> {
    prop::collection::vec((0u32..3, arb_value()), 0..4)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Indexed counting and listing agree with the linear scan for any
    /// cluster and any collapsible constraint set.
    #[test]
    fn index_matches_linear_scan(
        machines in prop::collection::vec(arb_machine_attrs(), 0..40),
        ops_a in prop::collection::vec(arb_op(), 0..4),
        ops_b in prop::collection::vec(arb_op(), 0..3),
    ) {
        let spec: Vec<(u64, Vec<(u32, AttrValue)>)> =
            machines.into_iter().enumerate().map(|(i, a)| (i as u64, a)).collect();
        let state = build_cluster(&spec);
        // Two attributes' worth of constraints, collapsed together.
        let cs: Vec<TaskConstraint> = ops_a
            .into_iter()
            .map(|op| TaskConstraint::new(0, op))
            .chain(ops_b.into_iter().map(|op| TaskConstraint::new(1, op)))
            .collect();
        if let Ok(reqs) = collapse(&cs) {
            prop_assert_eq!(
                count_suitable(&state, &reqs),
                count_suitable_linear(&state, &reqs),
                "count diverged for {:?}", &reqs
            );
            prop_assert_eq!(
                suitable_machines(&state, &reqs),
                suitable_machines_linear(&state, &reqs),
                "listing diverged for {:?}", &reqs
            );
        }
    }

    /// The index has one traversal and three readings of it: the sorted
    /// list (`matching_into`, into a buffer that held something else),
    /// the streamed visit (sorted here) and the retained linear scan are
    /// the same set — for general, exclusion-only and all-negative
    /// requirement sets alike.
    #[test]
    fn one_traversal_every_reading(
        machines in prop::collection::vec(arb_machine_attrs(), 0..40),
        general in prop::collection::vec((0u32..3, arb_op()), 0..5),
        exclusions in prop::collection::vec((0u32..4, arb_value().prop_map(Op::NotEqual)), 1..5),
        negatives in prop::collection::vec((0u32..4, arb_negative_op()), 1..5),
    ) {
        let spec: Vec<(u64, Vec<(u32, AttrValue)>)> =
            machines.into_iter().enumerate().map(|(i, a)| (i as u64, a)).collect();
        let state = build_cluster(&spec);
        let mut listed = vec![u64::MAX; 3];
        for ops in [general, exclusions, negatives] {
            let cs: Vec<TaskConstraint> =
                ops.into_iter().map(|(a, op)| TaskConstraint::new(a, op)).collect();
            let Ok(reqs) = collapse(&cs) else { continue };
            let linear = suitable_machines_linear(&state, &reqs);
            // The index yields ClusterState's rows; `id_of_key` names them.
            state.index().matching_into(&reqs, &mut listed);
            let mut listed: Vec<u64> = listed.iter().map(|&row| state.id_of_key(row)).collect();
            listed.sort_unstable();
            prop_assert_eq!(&listed, &linear, "matching_into diverged for {:?}", &reqs);
            let mut visited = Vec::new();
            let finished = state.index().matching_visit(&reqs, |row| {
                visited.push(state.id_of_key(row));
                true
            });
            prop_assert!(finished);
            visited.sort_unstable();
            prop_assert_eq!(&visited, &linear, "matching_visit diverged for {:?}", &reqs);
            prop_assert_eq!(state.index().count_matching(&reqs), linear.len());
            prop_assert_eq!(state.index().matches_any(&reqs), !linear.is_empty());
        }
    }

    /// The incrementally maintained index stays exact through machine
    /// churn: removals, attribute overwrites, attribute clears, and
    /// machine replacement.
    #[test]
    fn index_survives_churn(
        machines in prop::collection::vec(arb_machine_attrs(), 1..30),
        churn in prop::collection::vec((0u64..30, 0u32..4, arb_value()), 0..25),
        ops in prop::collection::vec(arb_op(), 1..4),
    ) {
        let spec: Vec<(u64, Vec<(u32, AttrValue)>)> =
            machines.into_iter().enumerate().map(|(i, a)| (i as u64, a)).collect();
        let mut state = build_cluster(&spec);
        for (id, action, value) in churn {
            match action {
                0 => {
                    state.remove_machine(id);
                }
                1 => {
                    // Replace (or insert) the whole machine.
                    let mut m = Machine::new(id, 0.5, 0.5);
                    m.set_attr(0, value);
                    state.add_machine(m);
                }
                2 => {
                    state.update_attr(id, 1, Some(value));
                }
                _ => {
                    state.update_attr(id, 1, None);
                }
            }
        }
        let cs: Vec<TaskConstraint> =
            ops.into_iter().map(|op| TaskConstraint::new(1, op)).collect();
        if let Ok(reqs) = collapse(&cs) {
            prop_assert_eq!(
                suitable_machines(&state, &reqs),
                suitable_machines_linear(&state, &reqs),
                "index drifted from cluster after churn"
            );
        }
        prop_assert_eq!(count_suitable(&state, &[]), state.machine_count());
    }

    /// Rows freed and taken again, values moving between a posting of one
    /// machine and a posting of many, and ids spread over the whole id
    /// space (`u64::MAX` among them): after every step the index answers
    /// exactly like the linear scan.
    #[test]
    fn rows_and_postings_survive_churn(
        steps in prop::collection::vec((0u64..12, 0u8..4, arb_value()), 1..60),
        ops in prop::collection::vec(arb_op(), 1..3),
    ) {
        let id_of = |i: u64| if i.is_multiple_of(2) { u64::MAX - i } else { i };
        let cs: Vec<TaskConstraint> = ops.into_iter().map(|op| TaskConstraint::new(0, op)).collect();
        let reqs = collapse(&cs).ok();
        let mut state = ClusterState::new();
        for (i, action, value) in steps {
            let id = id_of(i);
            match action {
                0 => {
                    state.remove_machine(id);
                }
                1 => state.add_machine(Machine::with_attributes(id, 0.5, 0.5, vec![(0, value)])),
                2 => {
                    state.update_attr(id, 0, Some(value));
                }
                _ => {
                    state.update_attr(id, 0, None);
                }
            }
            prop_assert_eq!(count_suitable(&state, &[]), state.machine_count());
            if let Some(reqs) = &reqs {
                let linear = suitable_machines_linear(&state, reqs);
                prop_assert_eq!(&suitable_machines(&state, reqs), &linear, "after {:?}", (i, action));
                prop_assert_eq!(count_suitable(&state, reqs), linear.len());
                prop_assert_eq!(state.index().matches_any(reqs), !linear.is_empty());
            }
        }
    }
}

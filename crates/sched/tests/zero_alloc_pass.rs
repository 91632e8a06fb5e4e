//! Pins the hot-path contract: a steady-state scheduling pass — queue
//! rotation, placement attempts through the capacity index, cycle-timer
//! events through the kernel's timer-wheel lane — performs **zero heap
//! allocations** once buffers have warmed up.
//!
//! A counting global allocator wraps the system one. Two angles:
//!
//! * the *engine* test drives a saturated cluster (head-of-line regime:
//!   every queued task cycles through `NoCapacity` each pass, the
//!   pathology the paper's analyzer exists to remove) across many
//!   simulated passes and asserts the allocation counter does not move;
//! * the *cluster* test exercises the mutation path — `tightest_fit`
//!   probes, `place`/`release` churn updating the capacity buckets, and
//!   drain / restore over the machine table — outside the
//!   kernel, with recurring task shapes, and asserts the incremental
//!   index maintenance is allocation-free once bucket capacities have
//!   settled;
//! * the *clone* test pins what a copy of the cluster costs: the
//!   schedulers of a grid point share one machine table, so a clone's
//!   allocation count does not grow with the fleet;
//! * the *fleet bytes* test pins what a built cluster holds per machine
//!   of a synthetic fleet (live bytes, from the same allocator).

use ctlm_sim::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ctlm_data::compaction::collapse;
use ctlm_sched::engine::{SimConfig, SimResult, Simulator};
use ctlm_sched::faults::{FaultPlan, FaultPlane};
use ctlm_sched::placement::{best_fit, Placement};
use ctlm_sched::scheduler::MainOnly;
use ctlm_sched::{attach, CapacityFit, PendingTask, SchedCluster, TimedSource};
use ctlm_trace::{AttrValue, ConstraintOp as Op, Machine, TaskConstraint};
use serde::Serialize;

fn t(us: u64) -> SimTime {
    SimTime::from_micros(us)
}

struct CountingAlloc;

thread_local! {
    /// Per thread: the harness runs tests on parallel threads and does
    /// its own bookkeeping meanwhile, and none of that may land in a
    /// measured window. Everything measured here runs on the test's own
    /// thread. Const-initialised and drop-free, so touching it from the
    /// allocator neither allocates nor outlives the thread's TLS.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread (wrapping: a
    /// block freed here may have been allocated elsewhere).
    static LIVE_BYTES: Cell<usize> = const { Cell::new(0) };
}

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

fn live_bytes() -> usize {
    LIVE_BYTES.with(Cell::get)
}

fn track(grown: usize, shrunk: usize) {
    let _ = LIVE_BYTES.try_with(|b| b.set(b.get().wrapping_add(grown).wrapping_sub(shrunk)));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        track(layout.size(), 0);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(0, layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        track(new_size, layout.size());
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn fleet(n: u64) -> SchedCluster {
    let mut ms = Vec::new();
    for i in 0..n {
        let mut m = Machine::new(i, 1.0, 1.0);
        m.set_attr(0, AttrValue::Int(i as i64));
        ms.push(m);
    }
    SchedCluster::from_machines(ms)
}

fn task(id: u64, arrival: u64, cpu: f64) -> PendingTask {
    PendingTask {
        id,
        collection: 1,
        cpu,
        memory: cpu,
        priority: 2,
        reqs: vec![],
        arrival: t(arrival),
        truth_group: 25,
    }
}

#[test]
fn steady_state_scheduling_pass_does_not_allocate() {
    // 4 machines filled by 12 long-running blockers; 40 background tasks
    // plus 3 pinned (single-suitable-node) tasks then cycle NoCapacity
    // every pass until the horizon. The cycle period is an exact
    // multiple of the kernel wheel's slot granularity (16 × 65 536 µs),
    // so the timer's slot orbit closes after one wheel revolution and
    // every lane buffer is warm before the measured window.
    let mut arrivals: Vec<PendingTask> = (0..12u64).map(|k| task(k, 0, 0.32)).collect();
    for k in 0..40u64 {
        arrivals.push(task(100 + k, 200_000 * k, 0.4));
    }
    for j in 0..3u64 {
        let reqs = collapse(&[TaskConstraint::new(0, Op::Equal(Some(AttrValue::Int(0))))]).unwrap();
        arrivals.push(PendingTask {
            id: 900 + j,
            collection: 2,
            reqs,
            truth_group: 0,
            ..task(900 + j, 3_000_000 + j * 700_000, 0.5)
        });
    }
    arrivals.sort_by_key(|t| t.arrival);
    let config = SimConfig {
        cycle: 1_048_576, // 16 wheel slots exactly
        attempts_per_cycle: 3,
        mean_runtime: 100_000_000_000, // blockers never finish
        horizon: 400_000_000,
        seed: 9,
    };
    let simulator = Simulator::new(config);
    let mut scheduler = MainOnly;
    let mut harness = simulator.harness(fleet(4), &arrivals, &mut scheduler);

    // Warm-up: all admissions, the blocker placements, and two full
    // wheel revolutions (2 × 67 s) of timer traffic.
    harness.sim.run_until(t(150_000_000));

    let before = allocations();
    harness.sim.run_until(t(390_000_000));
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state scheduling passes allocated {} times",
        after - before
    );

    let (_, result) = harness.run();
    assert_eq!(result.placed.len(), 12, "only the blockers ever place");
    assert_eq!(result.unplaced, 43, "everything else cycles to the horizon");
}

#[test]
fn scheduling_pass_with_telemetry_enabled_does_not_allocate() {
    // The engine scenario again, but with every observability feature
    // switched on: the always-on `EngineStats` counters/histograms are
    // maintained throughout, and a bounded trace ring records every
    // ledger step. The ring preallocates at `enable_trace` and
    // overwrites in place once full, and `Histogram::record` is a fixed
    // array increment — so the steady-state window must still show zero
    // heap allocations.
    let mut arrivals: Vec<PendingTask> = (0..12u64).map(|k| task(k, 0, 0.32)).collect();
    for k in 0..40u64 {
        arrivals.push(task(100 + k, 200_000 * k, 0.4));
    }
    arrivals.sort_by_key(|t| t.arrival);
    let config = SimConfig {
        cycle: 1_048_576,
        attempts_per_cycle: 3,
        mean_runtime: 100_000_000_000,
        horizon: 400_000_000,
        seed: 9,
    };
    let simulator = Simulator::new(config);
    let mut scheduler = MainOnly;
    let mut harness = simulator.harness(fleet(4), &arrivals, &mut scheduler);
    harness.state_mut().ledger_mut().enable_trace(256);

    harness.sim.run_until(t(150_000_000));

    let before = allocations();
    harness.sim.run_until(t(390_000_000));
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "telemetry-enabled scheduling passes allocated {} times",
        after - before
    );

    {
        let ledger = harness.state().ledger();
        let stats = ledger.stats();
        assert_eq!(stats.admitted_arrivals, 52, "every task admitted once");
        assert_eq!(stats.placed, 12, "only the blockers place");
        assert!(stats.no_capacity > 0, "background tasks must churn");
        assert!(stats.cycles > 0);
        assert_eq!(
            stats.main_depth.count(),
            stats.cycles,
            "one depth sample per pass"
        );
        let trace = ledger.trace().expect("tracing was enabled");
        assert_eq!(trace.len(), 256, "ring fills to capacity and stays there");
        assert!(
            trace.recorded() > 256,
            "long run must have wrapped the ring"
        );
        // The ring and the counters read one step stream: admissions,
        // placements, `NoCapacity` attempts and passes are every step
        // this run takes, and each lands in the ring exactly once.
        assert_eq!(
            trace.recorded(),
            stats.admitted_arrivals + stats.placed + stats.no_capacity + stats.cycles
        );
        let passes = trace.iter().filter(|e| e.kind == "pass").count() as u64;
        let attempts = trace.iter().filter(|e| e.kind == "no_capacity").count() as u64;
        assert!(passes > 0 && attempts > 0 && passes + attempts == 256);
    }
    let (_, result) = harness.run();
    assert_eq!(result.placed.len(), 12);
}

#[test]
fn fault_free_run_adds_zero_allocations_and_identical_report_bytes() {
    // A spec with no `faults` block must cost nothing: the engine's
    // fault hooks (the `Option<Box<FaultRuntime>>` checks on crash,
    // completion, and infeasible paths) stay on the None branch, an
    // attached-but-empty fault plane wakes never, and the serialized
    // result is byte-for-byte the result of a run with no fault plane
    // at all (dead-letter fields only appear once faults engage).
    let run = |with_empty_plane: bool| -> SimResult {
        let mut arrivals: Vec<PendingTask> = (0..12u64).map(|k| task(k, 0, 0.32)).collect();
        for k in 0..40u64 {
            arrivals.push(task(100 + k, 200_000 * k, 0.4));
        }
        arrivals.sort_by_key(|t| t.arrival);
        let config = SimConfig {
            cycle: 1_048_576,
            attempts_per_cycle: 3,
            mean_runtime: 100_000_000_000,
            horizon: 400_000_000,
            seed: 9,
        };
        let simulator = Simulator::new(config);
        let mut scheduler = MainOnly;
        let mut harness = simulator.harness(fleet(4), &arrivals, &mut scheduler);
        if with_empty_plane {
            let plan = FaultPlan::default();
            assert!(plan.events.is_empty());
            let plane = FaultPlane::new(plan);
            let wake = plane.next_time(harness.state());
            assert!(wake.is_none(), "empty plan must never wake");
            attach(&mut harness.sim, plane);
        }

        harness.sim.run_until(t(150_000_000));
        let before = allocations();
        harness.sim.run_until(t(390_000_000));
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "fault-free steady state allocated {} times (empty plane: {with_empty_plane})",
            after - before
        );
        let (_, result) = harness.run();
        result
    };

    let plain = run(false);
    let with_plane = run(true);
    assert_eq!(plain.failed_permanently, 0);
    assert_eq!(
        plain.to_value(),
        with_plane.to_value(),
        "an inert fault plane must not change a single report byte"
    );
}

#[test]
fn span_recorder_disabled_is_free_and_enabled_changes_no_report_byte() {
    // The flight recorder's contract, from both sides:
    //
    // * **off** (the default — no `observability.spans` in a spec): the
    //   engine's span hooks are `Option` checks on the `None` branch, so
    //   the steady-state window still allocates zero times and the
    //   serialized result is the baseline result;
    // * **on**: spans observe but never steer — the result must stay
    //   byte-for-byte identical — and the steady-state window is *still*
    //   allocation-free, because a `NoCapacity` churn pass only bumps
    //   the open `queued` span's attempt counter in place (the open
    //   tables and segment arena were sized during warm-up).
    let run = |with_spans: bool| -> SimResult {
        let mut arrivals: Vec<PendingTask> = (0..12u64).map(|k| task(k, 0, 0.32)).collect();
        for k in 0..40u64 {
            arrivals.push(task(100 + k, 200_000 * k, 0.4));
        }
        arrivals.sort_by_key(|t| t.arrival);
        let config = SimConfig {
            cycle: 1_048_576,
            attempts_per_cycle: 3,
            mean_runtime: 100_000_000_000,
            horizon: 400_000_000,
            seed: 9,
        };
        let simulator = Simulator::new(config);
        let mut scheduler = MainOnly;
        let mut harness = simulator.harness(fleet(4), &arrivals, &mut scheduler);
        if with_spans {
            harness.state_mut().ledger_mut().enable_spans();
        }

        harness.sim.run_until(t(150_000_000));
        let before = allocations();
        harness.sim.run_until(t(390_000_000));
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "steady state allocated {} times (spans: {with_spans})",
            after - before
        );
        let (_, result) = harness.run();
        let log = harness.state_mut().ledger_mut().take_spans();
        assert_eq!(log.is_some(), with_spans);
        if let Some(log) = log {
            assert!(!log.is_empty(), "recorder on but no spans closed");
            assert_eq!(log.open_count(), 0, "horizon close must drain opens");
        }
        result
    };

    let plain = run(false);
    let recorded = run(true);
    assert_eq!(
        plain.to_value(),
        recorded.to_value(),
        "the flight recorder must not change a single report byte"
    );
}

#[test]
fn a_clone_costs_the_same_few_allocations_whatever_the_fleet_size() {
    // Clones share the machine table and the attribute index, so a clone
    // copies only the per-run usage state: a fixed number of buffers
    // when every machine has the same free capacity (one bucket).
    let clone_cost = |n: u64| {
        let c = fleet(n);
        let before = allocations();
        let copy = c.clone();
        let cost = allocations() - before;
        assert_eq!(copy.len(), c.len());
        cost
    };
    let (small, large) = (clone_cost(100), clone_cost(10_000));
    assert_eq!(small, large, "a clone must not scale with the fleet");
    assert!(small <= 8, "a clone allocated {small} times");
}

#[test]
fn capacity_index_maintenance_does_not_allocate_in_steady_state() {
    let mut c = fleet(8);
    let pin = collapse(&[TaskConstraint::new(0, Op::Equal(Some(AttrValue::Int(3))))]).unwrap();
    let window = collapse(&[
        TaskConstraint::new(0, Op::GreaterThanEqual(2)),
        TaskConstraint::new(0, Op::LessThan(6)),
    ])
    .unwrap();
    // Binary-fraction sizes: sums recur exactly, so the set of capacity
    // buckets ever touched is finite and warms quickly.
    let sizes = [0.125, 0.25, 0.375];

    let mut churn = |rounds: usize| {
        for r in 0..rounds {
            for (k, &s) in sizes.iter().enumerate() {
                let probe = task(0, 0, s);
                match best_fit(&c, &probe) {
                    Placement::Placed(m) => c.place(m, (r % 7 * 3 + k) as u64, s, s, 2),
                    other => panic!("fleet cannot saturate at these sizes: {other:?}"),
                }
            }
            assert!(matches!(
                c.tightest_fit(&pin, 0.1, 0.1),
                CapacityFit::Fit(3) | CapacityFit::NoCapacity
            ));
            assert!(!matches!(
                c.tightest_fit(&window, 0.05, 0.05),
                CapacityFit::Infeasible
            ));
            for (k, _) in sizes.iter().enumerate() {
                let id = (r % 7 * 3 + k) as u64;
                // Find and release (machines rotate as load shifts).
                let mut released = false;
                for m in 0..8u64 {
                    if c.release(m, id) {
                        released = true;
                        break;
                    }
                }
                assert!(released, "task {id} must be live");
            }
        }
    };

    churn(32); // warm every bucket/alloc-map shape the cycle produces
    let before = allocations();
    churn(512);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state place/release churn allocated {} times",
        after - before
    );

    // The same contract on what the lab's workloads draw — tenths, whose
    // sums round (machines that miss a request by an ulp), a
    // memory-bound shape, and one below a capacity bucket's width (the
    // index is rewritten in place) — and across the whole machine table:
    // a drained machine keeps its slot, its task buffer and its place in
    // the buckets' buffers, so drain and restore allocate nothing
    // either. A drain copies the task list out for its caller, which is
    // the one allocation a *loaded* drain costs; the window drains idle
    // machines. Attribute values are shared by two machines each, so a
    // value's posting is a key list that a drain shrinks and a restore
    // refills in its own buffer (`drain_and_restore_of_unique_values_…`
    // covers a posting of one machine). The cluster is its fleet's only
    // owner, so the copy-on-write fleet is written in place and never
    // copied.
    let mut d = SchedCluster::from_machines((0..8u64).map(|i| {
        let mut m = Machine::new(i, 1.0, 1.0);
        m.set_attr(0, AttrValue::Int(i as i64 / 2));
        m
    }));
    let pair = collapse(&[TaskConstraint::new(0, Op::Equal(Some(AttrValue::Int(1))))]).unwrap();
    let shapes = [(0.2, 0.2), (0.1, 0.3), (0.0005, 0.1)];
    let mut table_churn = |rounds: u64| {
        for r in 0..rounds {
            // Eleven of each shape: the 0.2s fill two machines to the
            // near-miss and start a third.
            for k in 0..33u64 {
                let (cpu, mem) = shapes[(k % 3) as usize];
                match d.tightest_fit(&[], cpu, mem) {
                    CapacityFit::Fit(m) => d.place(m, r % 5 * 33 + k, cpu, mem, 2),
                    other => panic!("eight machines hold this load: {other:?}"),
                }
            }
            assert!(!matches!(
                d.tightest_fit(&pair, 0.2, 0.2),
                CapacityFit::Infeasible
            ));
            for k in 0..33u64 {
                let id = r % 5 * 33 + k;
                assert!((0..8).any(|m| d.release(m, id)), "task {id} must be live");
            }
            let idle = r % 8;
            assert_eq!(d.remove_machine(idle), Some(vec![]));
            assert!(!d.fits(idle, 0.1, 0.1));
            assert!(d.restore_machine(idle));
        }
    };
    table_churn(64);
    let before = allocations();
    table_churn(512);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "place/release/drain/restore churn allocated {} times",
        after - before
    );
}

#[test]
fn drain_and_restore_of_unique_values_does_not_allocate() {
    // One pin value per machine, the synthetic fleets' shape: a drain
    // empties the value's posting, and the index keeps the value's row,
    // so the restore finds it and writes the key back in place.
    let mut d = fleet(8);
    let pin = collapse(&[TaskConstraint::new(0, Op::Equal(Some(AttrValue::Int(5))))]).unwrap();
    let mut drain_restore = |rounds: u64| {
        for r in 0..rounds {
            let idle = r % 8;
            assert_eq!(d.remove_machine(idle), Some(vec![]));
            let expect = if idle == 5 {
                CapacityFit::Infeasible
            } else {
                CapacityFit::Fit(5)
            };
            assert_eq!(d.tightest_fit(&pin, 0.5, 0.5), expect);
            assert!(d.restore_machine(idle));
            assert_eq!(d.tightest_fit(&pin, 0.5, 0.5), CapacityFit::Fit(5));
        }
    };
    drain_restore(16);
    let before = allocations();
    drain_restore(512);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "drain/restore of unique-valued machines allocated {} times",
        after - before
    );
}

/// Live bytes a built cluster of `n` synthetic machines holds: one pin
/// attribute each, of a value no other machine holds, built the way the
/// lab's synthetic builder builds them.
fn synthetic_fleet_bytes(n: u64) -> usize {
    let before = live_bytes();
    let cluster = SchedCluster::from_machines(
        (0..n).map(|i| Machine::with_attributes(i, 1.0, 1.0, vec![(0, AttrValue::Int(i as i64))])),
    );
    let bytes = live_bytes().wrapping_sub(before);
    assert_eq!(cluster.len() as u64, n);
    bytes
}

#[test]
fn a_synthetic_machine_costs_a_bounded_number_of_bytes() {
    // Powers of two: every table that grows by doubling is full at both
    // sizes, so the difference is the per-machine cost without slack.
    let (small, large) = (
        synthetic_fleet_bytes(1 << 13),
        synthetic_fleet_bytes(1 << 14),
    );
    let per_machine = (large - small) / (1 << 13);
    println!("a built synthetic cluster holds {per_machine} bytes per machine");
    assert!(
        per_machine <= 320,
        "{per_machine} bytes per machine ({small} B at 8 192, {large} B at 16 384)"
    );
}

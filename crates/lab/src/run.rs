//! Spec → one assembled kernel run.
//!
//! There is one run path. Every spec, one cell or many, runs
//! **epoch-sharded**: every cell becomes its own kernel shard (its own
//! [`Sim`]: clock, event queue, components) hosted on a [`ParallelSim`]
//! coordinator, which advances all shards epoch by epoch on the rayon
//! pool — `execution.threads` wide — and exchanges cross-cell traffic
//! only at epoch barriers. A one-cell spec is one shard with nothing to
//! exchange: its event sequence is the plain `run_until(horizon)` one.
//! The only cross-cell traffic is spillover: each cell's arrival feed
//! (attached with `spill`) emits [`SchedEvent::SpillRequest`] outbox
//! entries for tasks its home cell cannot admit, and the barrier hook
//! here routes them (home cell or a feasible sibling, per the spillover
//! policy) in the coordinator's deterministic `(time, priority, shard,
//! seq)` merge order, telling the home engine each verdict with one
//! [`EngineState::resolve_spill`] call; the home ledger counts the
//! routes. Everything else — churn, the fault plane and the autoscaler
//! (which claim machines on their cell engine's one claim table), the
//! gang source, in-timeline retraining: each a [`TimedSource`]
//! put on the cell's timeline by the one [`attach`] — is per-cell state
//! and stays inside its shard. A shard is `Send` by derivation, so the
//! compiler checks that dispatching shards to worker threads shares
//! nothing between them. Model registries are `Arc`-based and safe to
//! hot-swap from a shard.
//!
//! Arrivals reach a cell through the one
//! [`Simulator::cell`] entry point, as a borrowed list or as a
//! [`SyntheticStream`]; which one is decided here from what the spec
//! needs (see [`ArrivalMode`]), never by the user.
//!
//! **Cells are built once per grid point.** A spec usually lists several
//! schedulers to A/B on the same workload, and building a cell (trace
//! generation, ground-truth groups) costs more than simulating it.
//! [`run_schedulers_observed`] therefore builds a point's cells once —
//! streamed only when no scheduler in the list needs the arrival
//! population — and runs every scheduler against them, each with its own
//! usage state over the shared fleet (a run that changes its fleet copies
//! it then; see [`SchedCluster`]). A list-fed and a streamed run of the
//! same cell are byte-identical, so the choice never shows in a report.
//! [`run_scheduler_observed`] is the same run on cells built for it
//! alone.
//!
//! **Retraining pays only for what is new.** A list-fed cell carries one
//! arrival-ordered CO-VV training set ([`BuiltCell::training_set`],
//! encoded on first use and shared with the `enhanced` scheduler's
//! analyzer). [`RetrainSource`] holds no rows of its own: a tick finds
//! how many arrivals the clock has passed and trains on that row prefix
//! of the shared set, borrowed — no builder, no snapshot, no copy of the
//! training side (see `ctlm_core::trainer::train_rows`).
//!
//! Because the epoch-sharded semantics never depend on the thread count
//! (it only changes which OS thread runs a shard), reports are
//! bit-identical for any `execution.threads` value.

use std::sync::Arc;

use ctlm_autoscale::{AutoscaleStats, Autoscaler};
use ctlm_core::ModelRegistry;
use ctlm_core::{GrowingModel, TrainConfig};
use ctlm_data::vocab::ValueVocab;
use ctlm_sched::engine::{EngineState, SpillRoute, PRIO_ADMIT, PRIO_STATE};
use ctlm_sched::scenario::{ChurnSource, GangSource};
use ctlm_sched::{
    attach, Arrivals, EngineStats, FaultPlane, FaultStats, PendingTask, SchedCluster, SchedEvent,
    Scheduler, SimResult, Simulator, TimedSource,
};
use ctlm_sim::{
    CellKernel, Ctx, EpochAutotune, LaneStats, ParallelPerf, ParallelSim, Sim, SimDuration, SimTime,
};
use ctlm_telemetry::{SpanLog, TraceRing};

use crate::build::{build_cell, BuiltArrivals, BuiltCell, CELL_ID_STRIDE};
use crate::registry::{build_placer, build_scheduler, train_config, SchedulerInstance};
use crate::spec::{CellSpec, ExperimentSpec, RetrainSpec, WorkloadSpec};
use crate::stream::SyntheticStream;
use crate::LabError;

/// How a run realises its synthetic arrival populations. Not a user
/// choice — every run is [`ArrivalMode::Streaming`]; the other variant
/// exists for the equivalence tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArrivalMode {
    /// Decode synthetic arrivals chunk by chunk at attach time — peak
    /// memory O(chunk) per cell — wherever nothing needs the whole
    /// population up front. Cells that do (trace slices, retraining
    /// scenarios, and every cell of a point whose scheduler list names a
    /// model-backed scheduler, which trains on it) build the list and
    /// feed it borrowed; results are bit-identical either way.
    Streaming,
    /// The test oracle: build every arrival list up front, so
    /// `streaming_equivalence.rs` can pin the streamed report against
    /// the list-fed one.
    Materialised,
}

/// Minimum observed arrivals before the retraining component bothers
/// training a model (tiny datasets make the stratified split degenerate).
const RETRAIN_MIN_ROWS: usize = 20;

/// One cell's outcome under one scheduler.
pub struct CellOutcome {
    /// Cell name.
    pub cell: String,
    /// The engine's result.
    pub result: SimResult,
    /// Tasks this cell received from siblings via spillover.
    pub spilled_in: usize,
    /// Tasks whose home was this cell but which were admitted elsewhere.
    pub spilled_out: usize,
    /// What the cell's autoscaler did (fleet timeline included), when
    /// the scenario ran one.
    pub autoscale: Option<AutoscaleStats>,
    /// Recovery accounting, when the scenario ran a fault plane.
    pub recovery: Option<crate::report::RecoveryReport>,
    /// Sim-plane telemetry snapshotted at the end of the run.
    pub telemetry: CellTelemetry,
}

/// One cell's sim-plane telemetry: engine counters/histograms, kernel
/// event-lane statistics, task-slab recycle stats, and (when enabled)
/// the bounded event trace. All of it is a pure function of the
/// deterministic event sequence — identical for every
/// `execution.threads` value.
#[derive(Clone, Debug, Default)]
pub struct CellTelemetry {
    /// Engine placement/admission counters and queue-depth histograms.
    pub stats: EngineStats,
    /// Kernel event-queue lane statistics (wheel/heap/sorted routing and
    /// pops) for the cell's shard.
    pub lanes: LaneStats,
    /// Task-slab segments retired (drained and recycled).
    pub slab_retired: u64,
    /// Task-slab segments still resident at the end of the run.
    pub slab_resident: usize,
    /// The cell ledger's last-N steps, when the spec (or `--trace`)
    /// enabled the event ring.
    pub trace: Option<TraceRing>,
    /// Fault-runtime counters and retry/reschedule histograms, when the
    /// cell ran a fault plane.
    pub faults: Option<FaultStats>,
    /// The causal flight recorder — per-task lifecycle spans with
    /// decision records — when `observability.spans` (or `--spans`)
    /// enabled it. Horizon-closed before harvest, so every span has an
    /// end time.
    pub spans: Option<SpanLog>,
}

/// One cell's kernel simulation — engine, arrival feed, cycle timer, and
/// every scenario source; the cell's `autoscaler`, which the driver
/// keeps to read after the run, is attached by `&mut`. Under spillover
/// the arrival feed admits-or-spills (its `SpillRequest`s go to the
/// shard outbox).
fn cell_sim<'a, 'w: 'a>(
    spec: &ExperimentSpec,
    cell: &'w BuiltCell,
    simulator: &'w Simulator,
    scheduler: &'w mut dyn Scheduler,
    registry: &Option<ModelRegistry>,
    cluster: SchedCluster,
    autoscaler: Option<&'a mut Autoscaler>,
) -> Result<Sim<'a, EngineState<'w>, SchedEvent>, LabError> {
    let horizon = SimTime::from_micros(spec.sim.horizon);
    let arrivals = match &cell.arrivals {
        BuiltArrivals::Materialised(list) => Arrivals::List(list),
        BuiltArrivals::Streamed(w) => Arrivals::Stream(Box::new(SyntheticStream::new(
            w,
            &spec.sim,
            cell.index,
            cell.index as u64 * CELL_ID_STRIDE,
            spec.execution.arrival_chunk,
        )?)),
    };
    let spill = spec.spillover.enabled();
    let mut sim = simulator.cell(cluster, arrivals, scheduler, spill);
    let ledger = sim.world_mut().ledger_mut();
    if spec.observability.spans {
        ledger.enable_spans();
    }
    ledger.enable_trace(spec.observability.trace_events);
    // Churn, the fault plane and the autoscaler change the same fleet;
    // the engine's claim table keeps them off each other's machines.
    if let Some(plan) = &cell.churn {
        attach(&mut sim, ChurnSource::new(plan.clone()));
    }
    if let Some(bf) = &cell.faults {
        sim.world_mut().ledger_mut().enable_faults(
            bf.retry.build()?,
            spec.sim.seed ^ (cell.index as u64).wrapping_mul(0x9E37_79B9),
        );
        attach(&mut sim, FaultPlane::new(bf.plan.clone()));
    }
    if let Some(scaler) = autoscaler {
        attach(&mut sim, scaler);
    }
    if !cell.gangs.is_empty() {
        attach(&mut sim, GangSource::new(cell.gangs.clone()));
    }
    // In-timeline retraining: only meaningful when the scheduler reads a
    // registry (`live_registry`); otherwise the cadence is inert.
    if let (Some(retrain), Some(registry)) = (&cell.retrain, registry) {
        let source = RetrainSource::new(
            cell,
            registry.clone(),
            train_config(&spec.train),
            retrain,
            horizon,
            spec.sim.seed,
        );
        attach(&mut sim, source);
    }
    Ok(sim)
}

/// Picks the cell a spill request lands in: home if it can admit the
/// task by now (capacity may have freed since the arrival instant),
/// otherwise the first feasible sibling (scanning forward, wrapping).
/// Tasks nobody can admit still go to their home cell's queue.
fn route_spill(
    shards: &[CellKernel<'_, EngineState<'_>, SchedEvent>],
    home: usize,
    task: &PendingTask,
) -> usize {
    if shards[home].world().can_admit(task) {
        return home;
    }
    for offset in 1..shards.len() {
        let i = (home + offset) % shards.len();
        if shards[i].world().can_admit(task) {
            return i;
        }
    }
    home
}

/// One scheduler's run of a spec: per-cell outcomes plus the wall-clock
/// shard profile when the spec's `observability.profile` knob is on.
pub type SchedulerOutcome = (Vec<CellOutcome>, Option<ParallelPerf>);

/// Whether a cell streams its arrivals in runs under `sched_names`: only
/// when nothing needs its full arrival population up front — trace slices
/// replay a list, model-backed schedulers and the retraining scenario
/// train on it.
fn streams(cs: &CellSpec, sched_names: &[String], mode: ArrivalMode) -> bool {
    mode == ArrivalMode::Streaming
        && matches!(cs.workload, WorkloadSpec::Synthetic(_))
        && !sched_names
            .iter()
            .any(|name| matches!(name.as_str(), "enhanced" | "live_registry"))
        && cs.scenario.retrain.is_none()
}

/// Builds every cell of the spec the way runs under `sched_names` feed
/// it.
fn build_cells(
    spec: &ExperimentSpec,
    sched_names: &[String],
    mode: ArrivalMode,
) -> Result<Vec<BuiltCell>, LabError> {
    spec.cell_specs()
        .iter()
        .enumerate()
        .map(|(i, cs)| build_cell(cs, &spec.sim, i, streams(cs, sched_names, mode)))
        .collect()
}

/// Runs the spec once under the named scheduler on cells built for this
/// one run. [`run_schedulers_observed`] is the entry point for a spec's
/// whole scheduler list (it builds once and shares); this one serves
/// callers that time or inspect a single scheduler's run.
pub fn run_scheduler_observed(
    spec: &ExperimentSpec,
    sched_name: &str,
    mode: ArrivalMode,
) -> Result<SchedulerOutcome, LabError> {
    let built = build_cells(spec, &[sched_name.to_owned()], mode)?;
    run_last(spec, sched_name, built)
}

/// Runs the spec once under each of its schedulers, in list order,
/// handing every run's outcome to `each`.
///
/// A grid point's cells are built once, not once per scheduler. They
/// stream their arrivals only when no scheduler in the list needs the
/// population (a list-fed set carries the CO-VV training set `enhanced`
/// and `live_registry` share), so a large synthetic spec under
/// `main_only` still streams in O(chunk). Each run gets its own usage
/// state over the shared fleet; every run but the last gets a clone of
/// the cells' cluster, and the last takes it, with the cells dropped
/// before its outcome is handed on — so a spec with one scheduler holds
/// the fleet's only reference and never copies it.
pub fn run_schedulers_observed(
    spec: &ExperimentSpec,
    mode: ArrivalMode,
    mut each: impl FnMut(&str, SchedulerOutcome),
) -> Result<(), LabError> {
    let names = spec.scheduler_names();
    let built = build_cells(spec, &names, mode)?;
    let (last, first) = names.split_last().expect("a spec names a scheduler");
    for name in first {
        let clusters = built.iter().map(|c| c.cluster.clone()).collect();
        each(name, run_cells(spec, name, &built, clusters)?);
    }
    each(last, run_last(spec, last, built)?);
    Ok(())
}

/// Runs `built` under the named scheduler, each engine taking its cell's
/// own cluster; the cells are dropped with the call.
fn run_last(
    spec: &ExperimentSpec,
    sched_name: &str,
    mut built: Vec<BuiltCell>,
) -> Result<SchedulerOutcome, LabError> {
    let clusters = built
        .iter_mut()
        .map(|c| std::mem::take(&mut c.cluster))
        .collect();
    run_cells(spec, sched_name, &built, clusters)
}

/// Runs built cells once under the named scheduler, each engine taking
/// its fleet from `clusters`.
fn run_cells(
    spec: &ExperimentSpec,
    sched_name: &str,
    built: &[BuiltCell],
    clusters: Vec<SchedCluster>,
) -> Result<SchedulerOutcome, LabError> {
    let mut instances: Vec<SchedulerInstance> = built
        .iter()
        .map(|c| build_scheduler(sched_name, c, &spec.train, spec.sim.seed))
        .collect::<Result<_, _>>()?;
    let registries: Vec<Option<ModelRegistry>> =
        instances.iter().map(|i| i.registry.clone()).collect();
    let simulators: Vec<Simulator> = (0..built.len())
        .map(|_| {
            Ok(Simulator::new(spec.sim).with_placers(
                build_placer(&spec.placers.main)?,
                build_placer(&spec.placers.hp)?,
            ))
        })
        .collect::<Result<_, LabError>>()?;
    let horizon = SimTime::from_micros(spec.sim.horizon);

    // The driver keeps each cell's autoscaler to read its stats after
    // the run.
    let mut autoscalers: Vec<Option<Autoscaler>> = built
        .iter()
        .map(|c| {
            let auto = c.autoscale.as_ref()?;
            Some(Autoscaler::new(auto.config.clone(), auto.policy))
        })
        .collect();

    // One kernel shard per cell under the epoch-barrier coordinator.
    // Always — so `execution.threads` can never change the simulated
    // outcome, only the wall clock.
    let epoch = SimDuration::from_micros(spec.execution.epoch_us.initial());
    let mut psim = ParallelSim::new(epoch, spec.execution.threads);
    if spec.execution.epoch_us.is_auto() {
        psim.set_autotune(EpochAutotune::default());
    }
    if spec.observability.profile {
        psim.enable_profiling();
    }
    for (((((cell, simulator), instance), registry), cluster), autoscaler) in built
        .iter()
        .zip(&simulators)
        .zip(instances.iter_mut())
        .zip(&registries)
        .zip(clusters)
        .zip(autoscalers.iter_mut())
    {
        psim.add_shard(cell_sim(
            spec,
            cell,
            simulator,
            instance.scheduler.as_mut(),
            registry,
            cluster,
            autoscaler.as_mut(),
        )?);
    }
    // Per-cell outbound link-outage windows from the fault plane —
    // pure spec data, so timeout decisions are thread-count-free.
    let outages: Vec<&[(SimTime, SimTime)]> = built
        .iter()
        .map(|c| {
            c.faults
                .as_ref()
                .map(|f| f.outages.as_slice())
                .unwrap_or(&[])
        })
        .collect();
    psim.run_until(horizon, |bound, msgs, shards| {
        // Spill requests arrive merged in (time, priority, shard,
        // seq) order; injections below preserve it as queue order in
        // each target shard, so delivery is independent of how the
        // epoch's shards were scheduled onto workers.
        for msg in msgs {
            let SchedEvent::SpillRequest(idx) = msg.payload else {
                continue;
            };
            let home = msg.shard;
            // A spill emitted inside one of its cell's link-outage
            // windows times out at the barrier: it never reaches a
            // sibling, bouncing back to the home queue once the
            // outage clears (re-admission behind the backlog). Any
            // other lands in the cell `route_spill` picks, at the
            // barrier — never before the horizon guard: near-horizon
            // spills still get admitted so the engine counts them
            // placed-or-unplaced like any queued task.
            let mut outages = outages[home].iter();
            let (route, target, at) = match outages.find(|&&(s, e)| msg.time >= s && msg.time < e) {
                Some(&(_, end)) => {
                    let at = end.clamp(bound.min(horizon), horizon);
                    (SpillRoute::LinkTimeout, home, at)
                }
                None => {
                    // The home engine's arena resolves the index
                    // whether the task came from a borrowed list or a
                    // streamed chunk.
                    let target = route_spill(shards, home, shards[home].world().task(idx));
                    let route = if target == home {
                        SpillRoute::Home
                    } else {
                        SpillRoute::Sibling
                    };
                    (route, target, bound.min(horizon))
                }
            };
            // Home admission stays an arena index — no clone. A
            // sibling gets a clone, the task's new home; resolving
            // then retires the home arena slot (a no-op for list-fed
            // cells).
            let state = shards[home].world_mut();
            let event = if route == SpillRoute::Sibling {
                SchedEvent::Admit(Box::new(state.task(idx).clone()))
            } else {
                SchedEvent::Arrival(idx)
            };
            state.resolve_spill(idx, at, route, target);
            let engine = shards[target].world().engine();
            shards[target].schedule_prio(at, PRIO_ADMIT, engine, engine, event);
        }
    });
    let perf = psim.perf().cloned();
    // Ending the shards ends their borrows of the autoscalers.
    let cells: Vec<(LaneStats, EngineState<'_>)> = psim
        .into_shards()
        .map(|sim| (sim.lane_stats(), sim.into_world()))
        .collect();

    let outcomes = cells
        .into_iter()
        .zip(built)
        .zip(autoscalers)
        .map(|(((lanes, mut state), cell), autoscaler)| {
            let (_, result) = state.finish();
            // `finish` horizon-closed every open span.
            let spans = state.ledger_mut().take_spans();
            let ledger = state.ledger();
            let fstats = ledger.fault_stats().cloned();
            let recovery = cell.faults.as_ref().map(|bf| {
                let fs = fstats.clone().unwrap_or_default();
                crate::report::RecoveryReport {
                    machines_crashed: fs.crashed_machines,
                    tasks_lost: fs.tasks_lost,
                    retries: fs.retries_scheduled,
                    dead_lettered: fs.dead_lettered,
                    lost_work_us: fs.lost_work_us,
                    reschedule_mean_us: (fs.reschedule.count() > 0)
                        .then(|| fs.reschedule.sum() as f64 / fs.reschedule.count() as f64),
                    link_timeouts: ledger.stats().link_timeouts,
                    unavailable_machine_us: bf.downtime_us,
                }
            });
            let telemetry = CellTelemetry {
                stats: ledger.stats().clone(),
                lanes,
                slab_retired: state.slab_retired(),
                slab_resident: state.slab_resident_segments(),
                trace: ledger.trace().cloned(),
                faults: fstats,
                spans,
            };
            CellOutcome {
                cell: cell.name.clone(),
                result,
                // In a lab cell only a spill admits dynamically.
                spilled_in: ledger.stats().admitted_dynamic as usize,
                spilled_out: ledger.stats().spilled_out as usize,
                autoscale: autoscaler.map(|a| a.stats),
                recovery,
                telemetry,
            }
        })
        .collect();
    Ok((outcomes, perf))
}

/// The online-retraining scenario source: every `period`, retrain on
/// the arrivals observed so far and hot-swap the result into the run's
/// [`ModelRegistry`] — the declarative form of the paper's
/// replay-retrain-schedule loop. Training happens synchronously on the
/// simulation timeline, so runs stay bit-deterministic.
///
/// The source owns no training data. It borrows the cell's
/// [`BuiltCell::training_set`] — encoded once, shared with `enhanced` —
/// and a tick trains on the row prefix `..seen` of it, where `seen`
/// counts the arrivals up to `now`: what a tick costs beyond the training
/// itself is a binary search, whatever the run's length.
pub struct RetrainSource<'a> {
    cell: &'a BuiltCell,
    /// The cell's vocabulary, shared by every analyzer the source
    /// installs.
    vocab: Arc<ValueVocab>,
    model: GrowingModel,
    registry: ModelRegistry,
    next: Option<SimTime>,
    period: SimDuration,
    horizon: SimTime,
    seed: u64,
    trained_upto: usize,
    ticks: u64,
}

impl<'a> RetrainSource<'a> {
    /// Builds the source over a cell's arrival population; the first
    /// tick is one period in.
    pub fn new(
        cell: &'a BuiltCell,
        registry: ModelRegistry,
        config: TrainConfig,
        cadence: &RetrainSpec,
        horizon: SimTime,
        seed: u64,
    ) -> Self {
        let period = SimDuration::from_micros(cadence.period);
        Self {
            cell,
            vocab: cell.vocab.clone(),
            model: GrowingModel::new(config),
            registry,
            next: Some(SimTime::ZERO.saturating_add(period)),
            period,
            horizon,
            seed,
            trained_upto: 0,
            ticks: 0,
        }
    }

    /// How many rows of the training set have arrived by `now`.
    fn seen(&self, now: SimTime) -> usize {
        self.cell
            .arrivals
            .list()
            .expect("retraining cells build their arrival list")
            .partition_point(|t| t.arrival <= now)
    }
}

impl TimedSource for RetrainSource<'_> {
    const CLASS: u8 = PRIO_STATE;

    fn next_time(&self, _state: &EngineState<'_>) -> Option<SimTime> {
        self.next
    }

    fn fire(&mut self, now: SimTime, _: &mut EngineState<'_>, _: &mut Ctx<'_, SchedEvent>) {
        let seen = self.seen(now);
        if seen >= RETRAIN_MIN_ROWS && seen > self.trained_upto {
            self.trained_upto = seen;
            let set = self.cell.training_set();
            self.model.step_rows(
                &set.x,
                &set.y[..seen],
                self.seed ^ self.ticks.wrapping_mul(0x9E37_79B9),
            );
            self.registry
                .install(self.model.analyzer(self.vocab.clone()));
            self.ticks += 1;
        }
        self.next = now.next_tick(self.period, self.horizon);
    }
}

//! Spec → assembled cell: cluster, arrivals, scenario plans, vocabulary.
//!
//! Everything here is deterministic in the spec plus the effective seed:
//! machine lists are built in declaration order, vocabularies observe
//! attributes in that same order, and all randomness flows through
//! seeded [`StdRng`](rand::rngs::StdRng)s — the property the determinism tests pin down.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use ctlm_data::compaction::AttrRequirement;
use ctlm_data::dataset::{Dataset, DatasetBuilder, NUM_GROUPS};
use ctlm_data::encode::co_vv::CoVvEncoder;
use ctlm_data::vocab::ValueVocab;
use ctlm_sched::engine::{arrivals_from_trace, compress_timeline};
use ctlm_sched::scenario::ChurnPlan;
use ctlm_sched::{ArrivalStream, FaultPlan, PendingTask, SchedCluster, SimConfig};
use ctlm_sim::{SimDuration, SimTime};
use ctlm_trace::{AttrValue, EventPayload, Machine, MachineId, Micros, Scale, TraceGenerator};

use ctlm_autoscale::{AutoscaleConfig, MachineTemplate, ThresholdStep};

use crate::registry::build_autoscale_policy;
use crate::spec::{
    CellSpec, RetrainSpec, RetrySpec, ScenarioSpec, SyntheticWorkload, TraceWorkload, WorkloadSpec,
};
use crate::stream::SyntheticStream;
use crate::LabError;

/// Task-id stride between cells, so ids stay unique when several cells'
/// records land in one report.
pub const CELL_ID_STRIDE: u64 = 1 << 40;

/// Pin-attribute (attr 0) value stride between cells, so a restrictive
/// task pinned in one cell never matches a sibling cell's machine.
pub const ATTR_VALUE_STRIDE: i64 = 1 << 32;

/// First machine id the autoscaler provisions from — far past any
/// initial fleet (synthetic ids count from 0, trace ids are small), so
/// provisioned machines never collide with churn plans over the
/// original fleet.
pub const AUTOSCALE_ID_BASE: u64 = 1 << 48;

/// A cell's resolved autoscaler: the policy built from the (possibly
/// sweep-rewritten) spec, plus the fully derived kernel config.
pub struct BuiltAutoscale {
    /// The sizing policy.
    pub policy: ThresholdStep,
    /// Derived component configuration (seed, id/attr namespaces,
    /// template already resolved).
    pub config: AutoscaleConfig,
}

/// A cell's resolved fault plane: the seeded event plan plus the retry
/// policy and spillover-outage windows the run assembly wires in.
pub struct BuiltFaults {
    /// Seeded crash/recover timeline.
    pub plan: FaultPlan,
    /// Retry policy for crash-lost tasks.
    pub retry: RetrySpec,
    /// Outbound spillover link-outage windows `[start, end)`, merged
    /// and time-sorted.
    pub outages: Vec<(SimTime, SimTime)>,
    /// Planned machine-downtime integral over the horizon (µs·machine),
    /// reported as per-cell unavailability.
    pub downtime_us: u64,
}

/// A cell's arrival population: materialised up front, or decoded chunk
/// by chunk at attach time.
pub enum BuiltArrivals {
    /// The full time-sorted list, held in memory. Trace slices and
    /// model-backed runs (whose training reads the population) use this.
    Materialised(Vec<PendingTask>),
    /// Generated on demand through a [`SyntheticStream`] when the cell
    /// attaches — peak memory O(chunk), bit-identical tasks.
    Streamed(SyntheticWorkload),
}

impl BuiltArrivals {
    /// The materialised list, or `None` for a streamed cell. Consumers
    /// that must see the whole population at once (training, replay)
    /// force materialised builds and may `expect` this.
    pub fn list(&self) -> Option<&[PendingTask]> {
        match self {
            BuiltArrivals::Materialised(v) => Some(v),
            BuiltArrivals::Streamed(_) => None,
        }
    }
}

/// A cell assembled from its spec, ready to attach to a kernel
/// simulation.
pub struct BuiltCell {
    /// Cell name (report key).
    pub name: String,
    /// Cell index in the spec — namespaces ids, seeds and pin-attribute
    /// values (streamed attaches rebuild the generator from it).
    pub index: usize,
    /// The cluster (moved into the engine at attach time).
    pub cluster: SchedCluster,
    /// Time-sorted arrivals (materialised or streamed).
    pub arrivals: BuiltArrivals,
    /// Machine ids in declaration order (churn picks from these).
    pub machine_ids: Vec<MachineId>,
    /// Machine-side attribute vocabulary, observed in declaration order
    /// (model-backed schedulers encode against this, and every analyzer
    /// trained on the cell shares it).
    pub vocab: Arc<ValueVocab>,
    /// Churn plan derived from the scenario, if any.
    pub churn: Option<ChurnPlan>,
    /// Gang arrivals derived from the scenario.
    pub gangs: Vec<(SimTime, Vec<PendingTask>)>,
    /// Retraining cadence, passed through to the run assembly.
    pub retrain: Option<RetrainSpec>,
    /// Resolved autoscaler, if the scenario requested one.
    pub autoscale: Option<BuiltAutoscale>,
    /// Resolved fault plane, if the scenario requested one.
    pub faults: Option<BuiltFaults>,
    /// The arrivals as a labelled CO-VV dataset, encoded on first use
    /// (see [`BuiltCell::training_set`]).
    training: OnceLock<Dataset>,
}

impl BuiltCell {
    /// The cell's training set: one CO-VV row per arrival, in arrival
    /// order, encoded against the cell's machine vocabulary and labelled
    /// with the ground-truth suitable-node group the builder computed.
    ///
    /// This is the one place a cell's arrivals are encoded. It runs on
    /// first use and every model-side consumer shares the result: the
    /// `enhanced` scheduler trains on the whole set, the in-timeline
    /// retrainer on the row prefix that has arrived by each tick — rows
    /// are in arrival order, so the arrivals seen by time `t` *are* a
    /// prefix.
    ///
    /// # Panics
    /// Panics on a cell built streaming: callers that train on the
    /// population build it materialised.
    pub fn training_set(&self) -> &Dataset {
        self.training.get_or_init(|| {
            let arrivals = self
                .arrivals
                .list()
                .expect("model-backed runs materialise their arrivals");
            assert!(
                arrivals.is_sorted_by_key(|t| t.arrival),
                "arrival lists are time-sorted"
            );
            let width = self.vocab.len();
            let mut b = DatasetBuilder::new(width, NUM_GROUPS);
            // A row is a pure function of the collapsed set: encode each
            // distinct set once. Only looked up, never iterated — hash
            // order reaches no output.
            let mut rows: HashMap<&[AttrRequirement], Vec<(usize, f32)>> = HashMap::new();
            for t in arrivals {
                let row = rows
                    .entry(t.reqs.as_slice())
                    .or_insert_with(|| CoVvEncoder.encode_requirements(&t.reqs, &self.vocab));
                b.push(row.iter().copied(), t.truth_group);
            }
            b.finish(width)
        })
    }
}

/// Builds one cell from a spec that passed [`CellSpec::validate`].
/// `index` namespaces task ids and seeds so sibling cells never collide.
/// With `streaming`, synthetic arrivals are *not* materialised — the
/// attach path decodes them chunk by chunk, and refuses there an arrival
/// past the end of time (trace slices always materialise; callers must
/// not stream cells whose scheduler trains on the arrival population).
pub fn build_cell(
    spec: &CellSpec,
    sim: &SimConfig,
    index: usize,
    streaming: bool,
) -> Result<BuiltCell, LabError> {
    let id_base = index as u64 * CELL_ID_STRIDE;
    let (cluster, arrivals, machine_ids, vocab) = match &spec.workload {
        WorkloadSpec::Trace(w) => {
            let (cluster, mut arrivals, ids, vocab) = build_trace_workload(w, sim);
            for t in arrivals.iter_mut() {
                t.id += id_base;
            }
            (cluster, BuiltArrivals::Materialised(arrivals), ids, vocab)
        }
        WorkloadSpec::Synthetic(w) => {
            let (cluster, ids, vocab) = build_synthetic_fleet(w, index);
            let arrivals = if streaming {
                BuiltArrivals::Streamed(w.clone())
            } else {
                BuiltArrivals::Materialised(build_synthetic_arrivals(w, sim, index, id_base)?)
            };
            (cluster, arrivals, ids, vocab)
        }
    };
    let scenario = &spec.scenario;
    let churn = scenario.churn.as_ref().map(|c| {
        ChurnPlan::random_drain(
            sim.seed ^ c.seed ^ (index as u64).wrapping_mul(0x9E37_79B9),
            &machine_ids,
            c.failures,
            window(c.window),
            SimDuration::from_micros(c.outage),
        )
    });
    let gangs = build_gangs(scenario, id_base)?;
    let autoscale = scenario.autoscale.as_ref().map(|a| {
        // Synthetic cells carry the pin attribute (attr 0); provisioned
        // machines continue the cell's value sequence past the initial
        // fleet so no restrictive task ever aliases one, and take the
        // first machine group's shape (unit capacity in a trace cell).
        let (attr_base, template) = match &spec.workload {
            WorkloadSpec::Synthetic(w) => (
                Some(index as i64 * ATTR_VALUE_STRIDE + machine_ids.len() as i64),
                MachineTemplate {
                    cpu: w.machines[0].cpu,
                    memory: w.machines[0].memory,
                },
            ),
            WorkloadSpec::Trace(_) => (None, MachineTemplate::default()),
        };
        Ok::<_, LabError>(BuiltAutoscale {
            policy: build_autoscale_policy(&a.policy, &a.params)?,
            config: AutoscaleConfig {
                min: a.min,
                max: a.max,
                cadence: SimDuration::from_micros(a.cadence),
                warm_pool: a.warm_pool,
                delay: a.delay,
                template,
                seed: sim.seed ^ (index as u64).wrapping_mul(0xA5A5_1EAF_0000_0001),
                horizon: SimTime::from_micros(sim.horizon),
                id_base: AUTOSCALE_ID_BASE,
                attr_base,
            },
        })
    });
    let autoscale = autoscale.transpose()?;
    let faults = scenario.faults.as_ref().map(|f| {
        let plan = match &f.crashes {
            Some(c) => FaultPlan::zone_crashes(
                // Churn-style seed mix, so sibling cells (and a churn
                // plan over the same fleet) draw independent schedules.
                sim.seed ^ c.seed ^ (index as u64).wrapping_mul(0x9E37_79B9),
                &machine_ids,
                // Spec `zones: 0` means uncorrelated — every machine
                // its own failure domain.
                if c.zones == 0 {
                    machine_ids.len()
                } else {
                    c.zones
                },
                c.count,
                window(c.window),
                SimDuration::from_micros(c.mttr),
            ),
            None => FaultPlan::default(),
        };
        let downtime_us = plan.downtime_us(SimTime::from_micros(sim.horizon));
        let outages = f
            .link_outage
            .as_ref()
            .map(|l| {
                let period = SimDuration::from_micros(l.period);
                (0..l.count.max(1))
                    .map(|k| {
                        let start = SimTime::from_micros(l.start)
                            .saturating_add(period.saturating_mul(k as u64));
                        (
                            start,
                            start.saturating_add(SimDuration::from_micros(l.duration)),
                        )
                    })
                    .collect()
            })
            .unwrap_or_default();
        BuiltFaults {
            plan,
            retry: f.retry.clone(),
            outages,
            downtime_us,
        }
    });
    Ok(BuiltCell {
        name: spec.name.clone(),
        index,
        cluster,
        arrivals,
        machine_ids,
        vocab: Arc::new(vocab),
        churn,
        gangs,
        retrain: scenario.retrain.clone(),
        autoscale,
        faults,
        training: OnceLock::new(),
    })
}

type Workload = (SchedCluster, Vec<PendingTask>, Vec<MachineId>, ValueVocab);

/// Cluster + arrivals from a generated trace slice.
fn build_trace_workload(w: &TraceWorkload, sim: &SimConfig) -> Workload {
    let trace = TraceGenerator::generate_cell(
        w.cell,
        Scale {
            machines: w.machines,
            collections: w.collections,
            seed: w.seed.unwrap_or(sim.seed),
        },
    );
    let max_tasks = if w.max_tasks == 0 {
        usize::MAX
    } else {
        w.max_tasks
    };
    let (cluster, mut arrivals) = arrivals_from_trace(&trace, max_tasks);
    if w.compress_to > 0 {
        compress_timeline(&mut arrivals, SimTime::from_micros(w.compress_to));
    }
    // Machine order and vocabulary follow the (deterministic) event
    // stream, never cluster-map iteration order.
    let mut machine_ids = Vec::new();
    let mut vocab = ValueVocab::new();
    for ev in &trace.events {
        if let EventPayload::MachineAdd(m) = &ev.payload {
            machine_ids.push(m.id);
            for (attr, value) in &m.attributes {
                vocab.observe(*attr, value);
            }
        }
    }
    (cluster, arrivals, machine_ids, vocab)
}

/// Cluster, machine ids and vocabulary from an explicit synthetic fleet
/// description (the machine half of the workload — arrivals are built,
/// or streamed, separately).
fn build_synthetic_fleet(
    w: &SyntheticWorkload,
    index: usize,
) -> (SchedCluster, Vec<MachineId>, ValueVocab) {
    let total: usize = w.machines.iter().map(|g| g.count).sum();
    let mut machines = Vec::with_capacity(total);
    let mut vocab = ValueVocab::new();
    // Pin-attribute values are offset per cell: without this, a task
    // pinned to `hot`'s machine 2 would also match `warm`'s machine 2
    // under spillover, silently breaking the Group-0 ground truth.
    let attr_base = index as i64 * ATTR_VALUE_STRIDE;
    let mut idx = 0u64;
    for group in &w.machines {
        for _ in 0..group.count {
            let pin = AttrValue::Int(attr_base + idx as i64);
            vocab.observe(0, &pin);
            let attributes = vec![(0, pin)];
            machines.push(Machine::with_attributes(
                idx,
                group.cpu,
                group.memory,
                attributes,
            ));
            idx += 1;
        }
    }
    let machine_ids: Vec<MachineId> = machines.iter().map(|m| m.id).collect();
    (SchedCluster::from_machines(machines), machine_ids, vocab)
}

/// The materialised synthetic arrival list — exactly the drained
/// [`SyntheticStream`]: background and restrictive tasks are each
/// generated in nondecreasing time, and the stream merges the two
/// pre-sorted runs by `(arrival, id)` — no O(N log N) re-sort, and the
/// streamed path is bit-identical by construction. Ids arrive already
/// offset by `id_base`.
fn build_synthetic_arrivals(
    w: &SyntheticWorkload,
    sim: &SimConfig,
    index: usize,
    id_base: u64,
) -> Result<Vec<PendingTask>, LabError> {
    let reserve = w.tasks + w.restrictive.as_ref().map_or(0, |r| r.count);
    let mut arrivals = Vec::with_capacity(reserve);
    let mut stream = SyntheticStream::new(w, sim, index, id_base, 65_536)?;
    while stream.refill(&mut arrivals) > 0 {}
    debug_assert!(
        arrivals
            .windows(2)
            .all(|p| (p[0].arrival, p[0].id) < (p[1].arrival, p[1].id)),
        "merged arrival runs must be (arrival, id)-sorted"
    );
    Ok(arrivals)
}

/// `start + k · period`, the time of the `k`-th repetition of `what` —
/// an error, not a wrapped time, when it does not fit in [`Micros`].
pub(crate) fn kth_time(
    what: &str,
    start: Micros,
    k: usize,
    period: Micros,
) -> Result<Micros, LabError> {
    period
        .checked_mul(k as Micros)
        .and_then(|offset| start.checked_add(offset))
        .ok_or_else(|| {
            LabError::msg(format!(
                "{what} {k}: start {start} + {k} × period {period} overflows the time axis"
            ))
        })
}

/// A spec's `[start, end)` window on the time axis.
fn window((start, end): (u64, u64)) -> (SimTime, SimTime) {
    (SimTime::from_micros(start), SimTime::from_micros(end))
}

/// Gang arrivals from the scenario spec.
fn build_gangs(
    scenario: &ScenarioSpec,
    id_base: u64,
) -> Result<Vec<(SimTime, Vec<PendingTask>)>, LabError> {
    let Some(g) = &scenario.gangs else {
        return Ok(Vec::new());
    };
    (0..g.count)
        .map(|k| {
            let time = SimTime::from_micros(kth_time("gang", g.start, k, g.period)?);
            let members = (0..g.size)
                .map(|m| PendingTask {
                    id: id_base + 600_000_000 + (k * g.size + m) as u64,
                    collection: 100 + k as u64,
                    cpu: g.cpu,
                    memory: g.cpu,
                    priority: g.priority,
                    reqs: vec![],
                    arrival: time,
                    truth_group: 25,
                })
                .collect();
            Ok((time, members))
        })
        .collect()
}

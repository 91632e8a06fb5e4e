//! The experiment spec: the JSON schema `ctlm-lab` turns into kernel
//! runs.
//!
//! A spec describes *what* to simulate — cluster topology, arrival
//! process, scenario intensities, scheduler/placer names, sweep grid —
//! and the builder ([`crate::build`]) plus executor ([`crate::sweep`])
//! turn it into assembled `ctlm-sim` runs. Every knob a spec exposes is
//! plain data, so identical specs produce identical reports and sweep
//! grids can rewrite any numeric field by path.
//!
//! The top level is either **single-cell** (a `workload` + `scenario`
//! at the root) or **multi-cell** (a `cells` array, each entry with its
//! own workload and scenario, optionally joined by the spillover
//! router). See `experiments/*.json` for complete examples.
//!
//! The valid domain — what a spec generator may draw — is stated once:
//! [`ExperimentSpec::validate`] keeps the cross-block rules and defers to
//! the `validate` of [`CellSpec`], [`WorkloadSpec`], [`ArrivalProcess`],
//! [`SizeDist`], [`ScenarioSpec`], [`AutoscaleSpec`], [`FaultsSpec`],
//! [`RetrySpec`], [`PlacerSpec`], [`TrainSpec`], [`ExecutionSpec`] and
//! [`SweepSpec`]. A block that becomes a runtime object validates by
//! calling the constructor the run calls; nothing downstream re-checks.
//!
//! Every struct here rejects a key that names none of its fields, and
//! every field and variant is set by some checked-in spec
//! (`tests/registry_coverage.rs`): a knob arrives with the experiment
//! that shows it.

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use ctlm_autoscale::ProvisionDelay;
use ctlm_sched::cluster::MAX_MACHINE_CPU;
use ctlm_sched::{ExponentialBackoff, FixedRetry, RetryPolicy, SimConfig};
use ctlm_sim::SimDuration;
use ctlm_trace::pareto::{BoundedPareto, Exponential};
use ctlm_trace::{CellSet, Micros};

use crate::LabError;

/// Returns the formatted [`LabError`] unless `cond` holds.
macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        if !$cond {
            return Err(LabError::msg(format!($($msg)+)));
        }
    };
}

/// The most scheduler passes (`sim.horizon / sim.cycle`) a spec may ask
/// for. The kernel runs a pass every cycle until the horizon whether or
/// not anything is queued: 10⁷ idle passes took 3 s on a 2-vCPU Xeon,
/// so this bounds an idle run at seconds. The checked-in specs ask for
/// at most 3 600. A horizon past it is a mistake such as `u64::MAX`,
/// which at 0.5 s cycles is 3.7 × 10¹³ passes, months of wall time.
pub const MAX_PASSES: u64 = 10_000_000;

/// A complete experiment description.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ExperimentSpec {
    /// Experiment name (report header).
    pub name: String,
    /// Kernel parameters (cycle, attempts budget, runtimes, horizon,
    /// seed). Defaults to [`SimConfig::default`].
    #[serde(default)]
    pub sim: SimConfig,
    /// Scheduler registry names to A/B (e.g. `["main_only", "oracle"]`).
    /// Empty means `["main_only"]`.
    #[serde(default)]
    pub schedulers: Vec<String>,
    /// Placement strategies by registry name.
    #[serde(default)]
    pub placers: PlacerSpec,
    /// Single-cell sugar: the one cell's workload (mutually exclusive
    /// with `cells`).
    #[serde(default)]
    pub workload: Option<WorkloadSpec>,
    /// Single-cell sugar: the one cell's scenario.
    #[serde(default)]
    pub scenario: ScenarioSpec,
    /// Multi-cell topology: each cell has its own cluster and workload
    /// but all share one kernel timeline.
    #[serde(default)]
    pub cells: Vec<CellSpec>,
    /// Multi-cell only: route arrivals through the spillover router,
    /// which forwards tasks a cell cannot admit to a sibling cell:
    /// `"first_feasible"` or `"off"`.
    #[serde(default)]
    pub spillover: SpilloverPolicy,
    /// Training budget for model-backed schedulers (`enhanced`,
    /// `live_registry` retraining).
    #[serde(default)]
    pub train: TrainSpec,
    /// Parallel-execution knobs (thread count and epoch length). A
    /// single-cell spec is one shard: neither knob can change its
    /// results. Results never depend on `threads`.
    #[serde(default)]
    pub execution: ExecutionSpec,
    /// Observability knobs: deterministic metrics collection, bounded
    /// event tracing, and wall-clock shard profiling. None of them ever
    /// changes the report body. Overridable with `ctlm-lab
    /// --metrics <path>` / `--trace`.
    #[serde(default)]
    pub observability: ObservabilitySpec,
    /// Optional sweep grid (knobs × seeds × repeats).
    #[serde(default)]
    pub sweep: Option<SweepSpec>,
}

impl ExperimentSpec {
    /// Parses a spec from JSON text.
    pub fn from_json(text: &str) -> Result<Self, LabError> {
        let spec: Self = serde_json::from_str(text).map_err(LabError::from)?;
        spec.validate()?;
        Ok(spec)
    }

    /// The cross-block rules; each block then validates itself.
    pub fn validate(&self) -> Result<(), LabError> {
        ensure!(
            !self.cells.is_empty() || self.workload.is_some(),
            "spec needs either a top-level `workload` or a `cells` array"
        );
        ensure!(
            self.cells.is_empty() || self.workload.is_none(),
            "`workload` and `cells` are mutually exclusive — move the workload into a cell"
        );
        ensure!(
            !self.spillover.enabled() || self.cells.len() >= 2,
            "`spillover` needs at least two cells"
        );
        let mut seen = std::collections::HashSet::new();
        if let Some(dup) = self.cells.iter().find(|c| !seen.insert(c.name.as_str())) {
            return Err(LabError::msg(format!(
                "duplicate cell name {:?} — summary rows are keyed by cell name",
                dup.name
            )));
        }
        for name in self.scheduler_names() {
            crate::registry::check_scheduler(&name)?;
        }
        // A zero period never leaves the instant it fires at.
        ensure!(self.sim.cycle > 0, "`sim.cycle` must be > 0");
        let passes = self.sim.horizon / self.sim.cycle;
        ensure!(
            passes <= MAX_PASSES,
            "`sim.horizon` / `sim.cycle` is {passes} scheduler passes, above the ceiling of \
             {MAX_PASSES}: a pass runs every cycle even with nothing queued, so the run would \
             not end in useful time"
        );
        self.placers.validate()?;
        self.train.validate()?;
        for cell in self.cell_specs() {
            cell.validate(self.spillover)?;
        }
        self.execution.validate()?;
        self.sweep.as_ref().map_or(Ok(()), SweepSpec::validate)
    }

    /// The scheduler list with the empty-list default applied.
    pub fn scheduler_names(&self) -> Vec<String> {
        if self.schedulers.is_empty() {
            vec!["main_only".to_string()]
        } else {
            self.schedulers.clone()
        }
    }

    /// The normalized cell list: the `cells` array as-is, or the
    /// single-cell sugar wrapped into one `cell-0` entry.
    pub fn cell_specs(&self) -> Vec<CellSpec> {
        if self.cells.is_empty() {
            vec![CellSpec {
                name: "cell-0".to_string(),
                workload: self.workload.clone().expect("validated: workload present"),
                scenario: self.scenario.clone(),
            }]
        } else {
            self.cells.clone()
        }
    }
}

/// How (and whether) a multi-cell run forwards tasks a cell cannot
/// admit. See [`ExperimentSpec::spillover`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SpilloverPolicy {
    /// No spillover: every task stays in its home cell's queue.
    #[default]
    Off,
    /// Forward to the first sibling (scanning forward from the home
    /// cell, wrapping) that can admit the task right now.
    FirstFeasible,
}

impl SpilloverPolicy {
    /// True when the spillover router is active.
    pub fn enabled(self) -> bool {
        self != SpilloverPolicy::Off
    }

    /// The spec-facing name.
    pub fn name(self) -> &'static str {
        match self {
            SpilloverPolicy::Off => "off",
            SpilloverPolicy::FirstFeasible => "first_feasible",
        }
    }
}

// On the wire the policy is its snake_case name, not the derive's
// variant name.
impl serde::Serialize for SpilloverPolicy {
    fn to_value(&self) -> serde_json::Value {
        serde_json::Value::Str(self.name().to_string())
    }
}

impl serde::Deserialize for SpilloverPolicy {
    fn from_value(v: &serde_json::Value) -> Result<Self, serde::Error> {
        [SpilloverPolicy::Off, SpilloverPolicy::FirstFeasible]
            .into_iter()
            .find(|p| matches!(v, serde_json::Value::Str(s) if s == p.name()))
            .ok_or_else(|| {
                serde::Error::msg(format!(
                    "expected spillover policy (\"first_feasible\" or \"off\"), got {v:?}"
                ))
            })
    }
}

/// One cell of a (possibly multi-cell) experiment.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct CellSpec {
    /// Cell name (report key).
    pub name: String,
    /// The cell's cluster + arrival process.
    pub workload: WorkloadSpec,
    /// The cell's scenario components.
    #[serde(default)]
    pub scenario: ScenarioSpec,
}

impl CellSpec {
    /// The cell's blocks and spillover rules: the one place errors get
    /// the `cell "<name>": ` prefix.
    pub fn validate(&self, spillover: SpilloverPolicy) -> Result<(), LabError> {
        self.rules(spillover)
            .map_err(|e| LabError::msg(format!("cell {:?}: {}", self.name, e.0)))
    }

    fn rules(&self, spillover: SpilloverPolicy) -> Result<(), LabError> {
        // Only synthetic cells stride their pin-attribute values apart.
        ensure!(
            !spillover.enabled() || matches!(self.workload, WorkloadSpec::Synthetic(_)),
            "spillover supports Synthetic workloads only \
             (trace cells share an attribute space, so spilled \
             constrained tasks would alias sibling machines)"
        );
        let faults = self.scenario.faults.as_ref();
        ensure!(
            spillover.enabled() || faults.is_none_or(|f| f.link_outage.is_none()),
            "link_outage needs spillover enabled (there is no link to fail otherwise)"
        );
        self.workload.validate()?;
        self.scenario.validate()
    }
}

/// Placement strategies for the two queues, by registry name.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct PlacerSpec {
    /// Main-queue strategy.
    pub main: String,
    /// High-priority-queue strategy.
    pub hp: String,
}

impl Default for PlacerSpec {
    fn default() -> Self {
        Self {
            main: "best_fit".to_string(),
            hp: "preemptive_best_fit".to_string(),
        }
    }
}

impl PlacerSpec {
    /// Builds both strategies.
    pub fn validate(&self) -> Result<(), LabError> {
        for name in [&self.main, &self.hp] {
            crate::registry::build_placer(name)?;
        }
        Ok(())
    }
}

/// Where a cell's cluster and arrivals come from.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// A slice of a generated GCD-like trace (`ctlm-trace`): machines
    /// from the fleet events, tasks from submissions.
    Trace(TraceWorkload),
    /// A fully synthetic workload: explicit machine groups plus
    /// generated arrivals.
    Synthetic(SyntheticWorkload),
}

impl WorkloadSpec {
    /// A fleet, and samplers whose constructors accept their parameters.
    pub fn validate(&self) -> Result<(), LabError> {
        match self {
            Self::Trace(w) => ensure!(w.machines > 0, "trace workload needs machines > 0"),
            Self::Synthetic(w) => {
                ensure!(
                    w.machines.iter().any(|g| g.count > 0),
                    "synthetic workload needs at least one machine"
                );
                for (i, g) in w.machines.iter().enumerate() {
                    check_shape(&format!("machine group {i}"), g.cpu, g.memory)?;
                }
                w.arrival.validate()?;
                w.cpu.validate("cpu")?;
                w.memory.validate("memory")?;
                if let Some(r) = &w.restrictive {
                    check_request("restrictive", r.cpu)?;
                }
            }
        }
        Ok(())
    }
}

/// Replayed-trace workload parameters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct TraceWorkload {
    /// Which calibrated cell profile to generate.
    pub cell: CellSet,
    /// Fleet size.
    pub machines: usize,
    /// Collections submitted over the trace horizon.
    pub collections: usize,
    /// Cap on admitted tasks (0 = all).
    #[serde(default)]
    pub max_tasks: usize,
    /// Compress arrivals onto this window (µs, 0 = off) — the loaded
    /// regime where head-of-line blocking matters.
    #[serde(default)]
    pub compress_to: Micros,
    /// Trace seed override (`null` → the spec's `sim.seed`).
    #[serde(default)]
    pub seed: Option<u64>,
}

/// Synthetic workload parameters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SyntheticWorkload {
    /// Machine groups; machines get attribute 0 = a cell-offset unique
    /// index so restrictive tasks pin to exactly one node fleet-wide
    /// (sibling cells never alias under spillover).
    pub machines: Vec<MachineGroup>,
    /// Number of unconstrained background tasks.
    pub tasks: usize,
    /// Inter-arrival process for the background tasks.
    pub arrival: ArrivalProcess,
    /// CPU request distribution.
    #[serde(default)]
    pub cpu: SizeDist,
    /// Memory request distribution.
    #[serde(default)]
    pub memory: SizeDist,
    /// Priority band for background tasks.
    #[serde(default)]
    pub priority: u8,
    /// Optional restrictive (single-suitable-node, Group-0) tasks.
    #[serde(default)]
    pub restrictive: Option<RestrictiveSpec>,
}

/// A homogeneous group of machines.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct MachineGroup {
    /// Machines in the group.
    pub count: usize,
    /// Per-machine CPU capacity: above 0, at most
    /// [`MAX_MACHINE_CPU`].
    pub cpu: f64,
    /// Per-machine memory capacity: above 0, finite.
    pub memory: f64,
}

/// Inter-arrival gap processes (`ctlm-trace` provides the heavy-tailed
/// sampler).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub enum ArrivalProcess {
    /// Fixed gap between arrivals.
    Uniform {
        /// Gap (µs).
        gap: Micros,
    },
    /// Exponential (Poisson-process) gaps.
    Exponential {
        /// Mean gap (µs).
        mean_gap: Micros,
    },
    /// Bounded-Pareto gaps — bursty, heavy-tailed arrivals.
    Pareto {
        /// Minimum gap (µs).
        lo: f64,
        /// Maximum gap (µs).
        hi: f64,
        /// Tail exponent.
        alpha: f64,
    },
}

impl ArrivalProcess {
    /// Draws one gap (µs, at least 1 for the random processes).
    pub(crate) fn sample(&self, rng: &mut StdRng) -> Micros {
        match *self {
            Self::Uniform { gap } => gap,
            Self::Exponential { mean_gap } => {
                (Exponential::new(mean_gap as f64).sample(rng) as Micros).max(1)
            }
            Self::Pareto { lo, hi, alpha } => {
                (BoundedPareto::new(lo, hi, alpha).sample(rng) as Micros).max(1)
            }
        }
    }

    /// The constructor `sample` calls accepts the parameters.
    pub fn validate(&self) -> Result<(), LabError> {
        match *self {
            Self::Uniform { .. } => Ok(()),
            Self::Exponential { mean_gap } => Exponential::try_new(mean_gap as f64).map(drop),
            Self::Pareto { lo, hi, alpha } => BoundedPareto::try_new(lo, hi, alpha).map(drop),
        }
        .map_err(|e| LabError::msg(format!("arrival {self:?}: {e}")))
    }
}

/// Resource-request distributions.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub enum SizeDist {
    /// Every task requests exactly this much.
    Fixed(f64),
    /// Bounded-Pareto requests — "top 1 % of tasks consume over 99 % of
    /// resources".
    Pareto {
        /// Minimum request.
        lo: f64,
        /// Maximum request.
        hi: f64,
        /// Tail exponent.
        alpha: f64,
    },
}

impl Default for SizeDist {
    fn default() -> Self {
        SizeDist::Fixed(0.1)
    }
}

impl SizeDist {
    /// Draws one request, clamped below a whole machine: the engine
    /// treats capacities as fractions of one node.
    pub(crate) fn sample(&self, rng: &mut StdRng) -> f64 {
        let raw = match *self {
            Self::Fixed(v) => v,
            Self::Pareto { lo, hi, alpha } => BoundedPareto::new(lo, hi, alpha).sample(rng),
        };
        raw.clamp(0.001, 0.95)
    }

    /// The constructor `sample` calls accepts `what`'s parameters.
    pub fn validate(&self, what: &str) -> Result<(), LabError> {
        match *self {
            Self::Fixed(_) => Ok(()),
            Self::Pareto { lo, hi, alpha } => BoundedPareto::try_new(lo, hi, alpha).map(drop),
        }
        .map_err(|e| LabError::msg(format!("{what} {self:?}: {e}")))
    }
}

/// Restrictive tasks: pinned to one uniformly chosen machine each
/// (ground-truth Group 0) — the population the paper's analyzer exists
/// to protect.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct RestrictiveSpec {
    /// How many restrictive tasks to submit.
    pub count: usize,
    /// First submission time (µs).
    pub start: Micros,
    /// Gap between submissions (µs).
    pub period: Micros,
    /// CPU/memory request per restrictive task: above 0, finite.
    pub cpu: f64,
    /// Priority band.
    pub priority: u8,
}

/// Scenario components with intensities; every field is optional, and
/// all active components share the cell's timeline.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct ScenarioSpec {
    /// Machine churn: seeded random drain/restore waves.
    pub churn: Option<ChurnSpec>,
    /// All-or-nothing gang arrivals.
    pub gangs: Option<GangSpec>,
    /// Online retraining cadence (drives the `live_registry` scheduler).
    pub retrain: Option<RetrainSpec>,
    /// Elastic fleet control: the `ctlm-autoscale` control plane
    /// watching this cell's signals. Multi-cell specs give each cell
    /// its own block, so cells autoscale independently (spillover
    /// included).
    pub autoscale: Option<AutoscaleSpec>,
    /// Fault-plane injection: abrupt correlated machine crashes (lost
    /// work, MTTR recovery), spillover link outages, and the retry
    /// policy deciding between rescheduling and dead-lettering lost
    /// tasks.
    pub faults: Option<FaultsSpec>,
}

impl ScenarioSpec {
    /// Each present component's rules.
    pub fn validate(&self) -> Result<(), LabError> {
        if let Some(r) = &self.retrain {
            ensure!(r.period > 0, "retrain period must be > 0");
        }
        if let Some(auto) = &self.autoscale {
            auto.validate()?;
        }
        if let Some(c) = &self.churn {
            check_window("churn", c.window)?;
        }
        if let Some(g) = &self.gangs {
            ensure!(g.size > 0, "gangs: size 0: require size > 0");
            check_request("gangs", g.cpu)?;
        }
        self.faults.as_ref().map_or(Ok(()), FaultsSpec::validate)
    }
}

/// A machine shape the capacity index can file: positive capacities,
/// finite memory, and CPU at most [`MAX_MACHINE_CPU`], which bounds the
/// index's bucket table.
fn check_shape(what: &str, cpu: f64, memory: f64) -> Result<(), LabError> {
    ensure!(
        cpu > 0.0 && cpu <= MAX_MACHINE_CPU,
        "{what}: cpu {cpu}: require 0 < cpu <= {MAX_MACHINE_CPU}"
    );
    ensure!(
        memory > 0.0 && memory.is_finite(),
        "{what}: memory {memory}: require 0 < memory < inf"
    );
    Ok(())
}

/// A task request the engine charges as both CPU and memory: positive
/// and finite, so a placement can never raise a machine's free capacity.
fn check_request(what: &str, cpu: f64) -> Result<(), LabError> {
    ensure!(
        cpu > 0.0 && cpu.is_finite(),
        "{what}: cpu {cpu}: require 0 < cpu < inf"
    );
    Ok(())
}

/// A `[start, end]` window must not end before it starts.
fn check_window(what: &str, (start, end): (Micros, Micros)) -> Result<(), LabError> {
    ensure!(
        start <= end,
        "{what} window start {start} exceeds end {end}"
    );
    Ok(())
}

/// One cell's autoscaler: policy selection by registry name plus the
/// fleet band, cadence, warm pool and provisioning behaviour.
/// Provisioned machines take the first machine group's shape (unit
/// capacity for trace slices).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct AutoscaleSpec {
    /// Policy registry name (`threshold`).
    pub policy: String,
    /// Fleet floor — scale-down never drains below this.
    pub min: usize,
    /// Fleet ceiling — scale-up never targets above this.
    pub max: usize,
    /// Evaluation cadence (µs).
    pub cadence: Micros,
    /// Warm-pool target: provisioned standby machines a scale-up can
    /// activate without paying the provisioning delay.
    #[serde(default)]
    pub warm_pool: usize,
    /// Provisioning-delay distribution (default: fixed 30 s).
    #[serde(default)]
    pub delay: ProvisionDelay,
    /// Numeric policy parameters; unset fields take the policy's
    /// defaults. Every field is sweepable by dotted path.
    #[serde(default)]
    pub params: PolicyParams,
}

impl AutoscaleSpec {
    /// Builds the policy, refusing the parameters it would bend without
    /// a word (a zero `step` runs as one, a NaN `down_util` never sheds);
    /// a zero-mean `Exponential` delay boots in 1 µs.
    pub fn validate(&self) -> Result<(), LabError> {
        let policy = crate::registry::build_autoscale_policy(&self.policy, &self.params)?;
        ensure!(policy.step > 0, "autoscale params step 0: require step > 0");
        let down_util = policy.down_util;
        ensure!(
            !down_util.is_nan(),
            "autoscale params down_util {down_util}: require a number"
        );
        let (min, max) = (self.min, self.max);
        ensure!(min <= max, "autoscale min {min} exceeds max {max}");
        ensure!(self.cadence > 0, "autoscale cadence must be > 0");
        Ok(())
    }
}

/// Optional numeric knobs for the `threshold` autoscaling policy; unset
/// fields fall back to the registry defaults (documented per field).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct PolicyParams {
    /// `threshold`: queue pressure triggering a scale-up (default 8).
    pub up_pending: Option<u64>,
    /// `threshold`: idle-fleet utilisation below which machines shed
    /// (default 0.3).
    pub down_util: Option<f64>,
    /// `threshold`: machines added/removed per decision (default 2).
    pub step: Option<u64>,
}

/// Churn intensity: `failures` distinct machines drain inside `window`,
/// each returning `outage` µs later.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ChurnSpec {
    /// Number of distinct machines to fail.
    pub failures: usize,
    /// `[start, end]` of the failure window (µs).
    pub window: (Micros, Micros),
    /// Down time per machine (µs).
    pub outage: Micros,
    /// Extra seed entropy (combined with the spec's `sim.seed`).
    #[serde(default)]
    pub seed: u64,
}

/// Fault-plane intensities for one cell. Unlike [`ChurnSpec`]'s
/// graceful drains (running tasks requeue), crashes *lose* work: the
/// engine charges each lost task against the retry budget and either
/// reschedules it after a backoff delay or dead-letters it.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct FaultsSpec {
    /// Correlated failure-domain crashes with seeded MTTR recovery.
    pub crashes: Option<CrashSpec>,
    /// Transient spillover link outages: windows during which this
    /// cell's outbound spill requests time out at the epoch barrier and
    /// bounce back to the home queue.
    pub link_outage: Option<LinkOutageSpec>,
    /// Retry policy for crash-lost tasks (default: exponential backoff,
    /// budget 3).
    pub retry: RetrySpec,
}

impl FaultsSpec {
    /// Windows that open, outages that last and a policy that builds.
    pub fn validate(&self) -> Result<(), LabError> {
        if let Some(c) = &self.crashes {
            check_window("crash", c.window)?;
            ensure!(c.count == 0 || c.mttr > 0, "crash mttr must be > 0");
        }
        if let Some(l) = &self.link_outage {
            ensure!(l.duration > 0, "link_outage duration must be > 0");
            ensure!(
                l.count <= 1 || l.period > 0,
                "repeated link_outage needs period > 0"
            );
        }
        self.retry.validate()
    }
}

/// Correlated crash process: `count` crash events inside `window`, each
/// taking a whole failure domain (zone) down at once. Machines recover
/// after a seeded exponential outage with mean `mttr`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct CrashSpec {
    /// Number of crash events (each downs one whole zone).
    pub count: usize,
    /// `[start, end]` of the crash window (µs).
    pub window: (Micros, Micros),
    /// Mean time to recovery per crash (µs, exponential).
    pub mttr: Micros,
    /// Failure domains the fleet splits into (contiguous machine-id
    /// chunks); 0 = every machine is its own domain (uncorrelated).
    #[serde(default)]
    pub zones: usize,
    /// Extra seed entropy (combined with the spec's `sim.seed`).
    #[serde(default)]
    pub seed: u64,
}

/// Spillover link outage windows: `count` outages of `duration` µs,
/// starting at `start` and repeating every `period`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct LinkOutageSpec {
    /// First outage start (µs).
    pub start: Micros,
    /// Length of each outage (µs).
    pub duration: Micros,
    /// Number of outage windows (0 or 1 → a single window).
    #[serde(default)]
    pub count: usize,
    /// Gap between successive window *starts* (µs); required when
    /// `count > 1`.
    #[serde(default)]
    pub period: Micros,
}

/// Retry policy for crash-lost tasks. `fixed` waits `base` µs between
/// attempts; `exponential` doubles from `base` up to `cap` with seeded
/// jitter. A task exceeding `budget` attempts dead-letters
/// (`failed_permanently` in the report — never a silently hung task).
/// A partial `retry` object keeps the defaults below for the fields it
/// omits.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct RetrySpec {
    /// Policy name: `fixed` or `exponential`.
    pub policy: String,
    /// Base delay (µs): the fixed delay, or the exponential first step.
    pub base: Micros,
    /// Delay ceiling for `exponential` (µs).
    pub cap: Micros,
    /// Retry attempts before dead-lettering.
    pub budget: u32,
    /// `exponential` jitter fraction: each delay is scaled by a seeded
    /// uniform factor in `[1 − jitter, 1 + jitter]`.
    pub jitter: f64,
}

impl Default for RetrySpec {
    fn default() -> Self {
        Self {
            policy: "exponential".to_string(),
            base: 2_000_000,
            cap: 60_000_000,
            budget: 3,
            jitter: 0.5,
        }
    }
}

impl RetrySpec {
    /// The policy builds, waits before a retry and jitters by less than
    /// the whole delay.
    pub fn validate(&self) -> Result<(), LabError> {
        self.build()?;
        ensure!(self.base > 0, "retry base delay must be > 0");
        let jitter = self.jitter;
        ensure!(
            (0.0..1.0).contains(&jitter),
            "retry jitter {jitter}: require 0 <= jitter < 1"
        );
        Ok(())
    }

    /// The retry policy a faulted cell's engine consults.
    pub(crate) fn build(&self) -> Result<Box<dyn RetryPolicy>, LabError> {
        match self.policy.as_str() {
            "fixed" => Ok(Box::new(FixedRetry {
                delay: SimDuration::from_micros(self.base),
                budget: self.budget,
            })),
            "exponential" => Ok(Box::new(ExponentialBackoff {
                base: SimDuration::from_micros(self.base),
                cap: SimDuration::from_micros(self.cap.max(self.base)),
                budget: self.budget,
                jitter: self.jitter,
            })),
            other => Err(crate::registry::unknown(
                "retry policy",
                other,
                crate::registry::RETRY_POLICY_NAMES,
            )),
        }
    }
}

/// Gang arrival process: `count` gangs of `size` members each.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct GangSpec {
    /// Number of gangs.
    pub count: usize,
    /// Members per gang: at least 1.
    pub size: usize,
    /// First gang arrival (µs).
    pub start: Micros,
    /// Gap between gangs (µs).
    pub period: Micros,
    /// CPU/memory request per member: above 0, finite.
    pub cpu: f64,
    /// Priority band for members.
    #[serde(default)]
    pub priority: u8,
}

/// Online retraining cadence: every `period`, starting one period in,
/// retrain on the arrivals observed so far and hot-swap the result into
/// the run's [`ModelRegistry`](ctlm_core::ModelRegistry).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct RetrainSpec {
    /// Retraining period (µs).
    pub period: Micros,
}

/// Training budget for model-backed schedulers. Deliberately far below
/// the paper's full budget — specs train on their own (small) arrival
/// populations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct TrainSpec {
    /// Epoch cap per training attempt.
    pub epochs_limit: usize,
    /// Attempt cap.
    pub max_attempts: usize,
}

impl Default for TrainSpec {
    fn default() -> Self {
        Self {
            epochs_limit: 40,
            max_attempts: 2,
        }
    }
}

impl TrainSpec {
    /// With no attempt the trainer would have no model to return.
    pub fn validate(&self) -> Result<(), LabError> {
        ensure!(self.max_attempts > 0, "`train.max_attempts` must be > 0");
        Ok(())
    }
}

/// Parallel-execution knobs. Every spec runs the epoch-sharded
/// semantics — one kernel shard per cell, synchronised at epoch
/// barriers — so these knobs tune *wall-clock*
/// behaviour only; for a fixed (spec, seed, `epoch_us`), reports are
/// bit-identical for every `threads` value. A partial `execution`
/// object keeps the defaults below for the fields it omits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct ExecutionSpec {
    /// Worker threads for shard execution: 0 = the rayon pool's
    /// configured width, 1 = sequential (no pool dispatch), n = chunk
    /// the cells over n workers. Overridable with `ctlm-lab --threads`.
    pub threads: usize,
    /// Epoch barrier length (µs), or `"auto"` for density-based
    /// autotuning. Cross-cell spillover crosses shards only at epoch
    /// boundaries, so this bounds the extra queueing delay a spilled
    /// task observes; shorter epochs mean more barriers.
    pub epoch_us: EpochSpec,
    /// Tasks per streamed arrival chunk. Streamed cells decode this many
    /// tasks ahead of the simulation clock at a time, so it bounds the
    /// per-cell arena footprint (chunk + in-flight tasks). Never changes
    /// results — only memory/refill-frequency trade-off.
    pub arrival_chunk: usize,
}

/// The epoch-length knob: a fixed barrier length, or `"auto"` to let the
/// coordinator adapt it to observed per-round event density (sparse
/// fleets get long epochs, dense bursts short ones). Autotuning keys off
/// delivered-event counts — simulation state only — so tuned runs stay
/// bit-identical for every `threads` value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EpochSpec {
    /// A fixed epoch length (µs).
    Fixed(Micros),
    /// Adapt the epoch per round from event density, starting from the
    /// default length.
    Auto,
}

impl EpochSpec {
    /// The starting epoch length (µs): the fixed value, or the default
    /// length as the autotuner's initial guess.
    pub fn initial(self) -> Micros {
        match self {
            EpochSpec::Fixed(us) => us,
            EpochSpec::Auto => 1_000_000,
        }
    }

    /// True when the coordinator should autotune the epoch.
    pub fn is_auto(self) -> bool {
        self == EpochSpec::Auto
    }
}

// On the wire the knob is a bare number or the string `"auto"`, not the
// derive's externally tagged enum.
impl serde::Serialize for EpochSpec {
    fn to_value(&self) -> serde_json::Value {
        match self {
            EpochSpec::Fixed(us) => us.to_value(),
            EpochSpec::Auto => serde_json::Value::Str("auto".to_string()),
        }
    }
}

impl serde::Deserialize for EpochSpec {
    fn from_value(v: &serde_json::Value) -> Result<Self, serde::Error> {
        match v {
            serde_json::Value::Str(s) if s == "auto" => Ok(EpochSpec::Auto),
            other => Ok(EpochSpec::Fixed(serde::Deserialize::from_value(other)?)),
        }
    }
}

impl Default for ExecutionSpec {
    fn default() -> Self {
        Self {
            threads: 1,
            epoch_us: EpochSpec::Fixed(1_000_000), // one barrier per simulated second
            arrival_chunk: 8_192,
        }
    }
}

impl ExecutionSpec {
    /// Epochs and arrival chunks that make progress.
    pub fn validate(&self) -> Result<(), LabError> {
        ensure!(
            self.epoch_us != EpochSpec::Fixed(0),
            "`execution.epoch_us` must be > 0 (or \"auto\")"
        );
        ensure!(
            self.arrival_chunk > 0,
            "`execution.arrival_chunk` must be > 0"
        );
        Ok(())
    }
}

/// Observability knobs. Two strictly separated planes:
///
/// * the **sim plane** (`metrics`, `trace_events`, `spans`) reads simulation
///   state only — counters, histograms and event traces are pure
///   functions of the deterministic event sequence, so their JSON
///   export is byte-identical for every `execution.threads` value and
///   collecting them never changes the report body;
/// * the **host plane** (`profile`) reads the wall clock — per-shard
///   run/barrier/drain timings land exclusively in the report's
///   `_meta._perf` block, which `--no-meta` (and byte-compares) drop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct ObservabilitySpec {
    /// Collect the deterministic metrics registry (engine counters,
    /// queue-depth histograms, kernel lane stats, slab recycle stats,
    /// autoscale lifecycle counters). The `ctlm-lab --metrics <path>`
    /// flag switches this on and writes the registry as JSON.
    pub metrics: bool,
    /// Per-cell bounded event-trace capacity (the last N steps of the
    /// cell's task ledger, the stream its counters and spans are
    /// written from); 0 disables tracing. The ring preallocates and
    /// overwrites in place, so tracing keeps the zero-allocation pass
    /// contract. `ctlm-lab --trace` enables it at a default capacity.
    pub trace_events: usize,
    /// Profile runs on the wall clock: per-shard `run_before`
    /// time, derived barrier wait, and coordinator outbox-drain time per
    /// epoch round. Host-dependent — emitted only into `_meta._perf`.
    pub profile: bool,
    /// Record the causal flight recorder: per-task lifecycle spans
    /// (queued/running/retry_wait/spill_transit/dead_letter), machine
    /// down/drain windows, and control-plane decision spans, each
    /// carrying the decision record that produced it. Sim-plane —
    /// recorded at lifecycle transitions only (no per-event cost), into
    /// a recycling segment arena, and exported solely through
    /// `ctlm-lab --spans <path>` (report bytes never change). The
    /// `--spans` flag switches this on.
    pub spans: bool,
}

/// A sweep grid: the cartesian product of every knob's values, crossed
/// with `seeds` × `repeats`. Runs execute in parallel on the rayon
/// pool; the report carries per-point medians.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct SweepSpec {
    /// Numeric knobs, addressed by dotted path into the spec document
    /// (e.g. `"scenario.churn.failures"`, `"cells.0.workload.Synthetic.tasks"`).
    pub knobs: Vec<KnobSpec>,
    /// Seeds to run each grid point under (empty → the spec's
    /// `sim.seed`).
    pub seeds: Vec<u64>,
    /// Repeats per (point, seed); repeat `k` runs under `seed + k`
    /// (0 → 1).
    pub repeats: usize,
}

impl SweepSpec {
    /// Every knob has values (each grid point validates as a spec).
    pub fn validate(&self) -> Result<(), LabError> {
        for knob in &self.knobs {
            let path = &knob.path;
            ensure!(!knob.values.is_empty(), "sweep knob {path:?} has no values");
        }
        Ok(())
    }
}

/// One sweep dimension.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct KnobSpec {
    /// Dotted path to a numeric field in the spec document.
    pub path: String,
    /// The values to sweep.
    pub values: Vec<f64>,
}

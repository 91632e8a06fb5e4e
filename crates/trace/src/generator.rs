//! The synthetic trace generator.
//!
//! Produces a time-sorted [`TraceEvent`] stream for one computing cell at a
//! chosen [`Scale`], reproducing the workload properties the paper's
//! evaluation depends on (see the crate docs for the list). The generator
//! is purely functional given `(CellProfile, Scale)` — the same inputs
//! always yield the same trace.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::anomaly::{AnomalyKind, AnomalyLog};
use crate::attr::{AttrCatalog, AttrId, AttrValue};
use crate::collection::Collection;
use crate::constraint::{ConstraintOp, TaskConstraint};
use crate::event::{EventPayload, Micros, TerminationReason, TraceEvent, MICROS_PER_DAY};
use crate::machine::Machine;
use crate::pareto::{BoundedPareto, Zipf};
use crate::profile::{CellProfile, Scale};
use crate::task::Task;

/// Well-known attribute names the generator uses. Their *values* are what
/// the CO-VV feature columns enumerate.
pub mod attrs {
    /// Unique numeric index per machine; windowed constraints on it give
    /// tasks precise suitable-node counts.
    pub const NODE_INDEX: &str = "node_index";
    /// Hardware platform family (string, few values, Zipf-popular).
    pub const PLATFORM: &str = "platform";
    /// Kernel build (string; new versions roll out mid-trace, growing the
    /// vocabulary).
    pub const KERNEL: &str = "kernel";
    /// CPU clock in 100 MHz units (numeric).
    pub const CLOCK: &str = "clock";
    /// Local disk count (numeric).
    pub const DISKS: &str = "disks";
    /// Rack id (numeric, many values).
    pub const RACK: &str = "rack";
    /// GPU count; absent on most machines (presence constraints).
    pub const GPU: &str = "gpu";
    /// Service tier 0–9 (numeric).
    pub const TIER: &str = "tier";
    /// 2019-only: power domain id (the 2019 archive ships power data for
    /// 57 domains).
    pub const POWER_DOMAIN: &str = "power_domain";
    /// 2019-only: alloc-pool label (string).
    pub const POOL: &str = "pool";
}

/// A fully generated trace plus the bookkeeping consumers need.
#[derive(Clone, Debug)]
pub struct GeneratedTrace {
    /// The cell profile the trace was generated for.
    pub profile: CellProfile,
    /// The scale it was generated at.
    pub scale: Scale,
    /// Time-sorted event stream.
    pub events: Vec<TraceEvent>,
    /// Attribute-name catalog (names → ids used in events).
    pub catalog: AttrCatalog,
    /// Trace horizon in microseconds.
    pub horizon: Micros,
    /// Scaled suitable-node group width for this trace.
    pub group_width: usize,
    /// Ledger of injected anomalies (2019 cells only).
    pub anomalies: AnomalyLog,
    /// Total tasks submitted.
    pub total_tasks: usize,
    /// Tasks submitted with at least one constraint.
    pub constrained_tasks: usize,
}

/// Deterministic trace generator. See the module docs.
pub struct TraceGenerator {
    profile: CellProfile,
    scale: Scale,
}

/// Internal: the clock values machines can report (100 MHz units — GCD
/// constraint operators support integers only).
const CLOCK_VALUES: [i64; 6] = [20, 22, 25, 28, 30, 33];
/// Internal: platform family names.
const PLATFORMS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];
/// Internal: alloc-pool labels (2019).
const POOLS: [&str; 3] = ["prod", "batch", "free"];

impl TraceGenerator {
    /// Creates a generator for one cell at one scale.
    pub fn new(profile: CellProfile, scale: Scale) -> Self {
        Self { profile, scale }
    }

    /// Convenience: generate a cell directly.
    pub fn generate_cell(cell: crate::profile::CellSet, scale: Scale) -> GeneratedTrace {
        Self::new(cell.profile(), scale).generate()
    }

    /// Runs the generator.
    pub fn generate(&self) -> GeneratedTrace {
        let mut rng = StdRng::seed_from_u64(self.scale.seed ^ 0xC71A_57A9_2E55_11D5);
        let mut catalog = AttrCatalog::new();
        let horizon = (self.profile.horizon_days * MICROS_PER_DAY as f64) as Micros;
        let mut events: Vec<TraceEvent> = Vec::new();
        let mut anomalies = AnomalyLog::default();

        let a_node = catalog.intern(attrs::NODE_INDEX);
        let a_platform = catalog.intern(attrs::PLATFORM);
        let a_kernel = catalog.intern(attrs::KERNEL);
        let a_clock = catalog.intern(attrs::CLOCK);
        let a_disks = catalog.intern(attrs::DISKS);
        let a_rack = catalog.intern(attrs::RACK);
        let a_gpu = catalog.intern(attrs::GPU);
        let a_tier = catalog.intern(attrs::TIER);
        let (a_power, a_pool) = if self.profile.format_2019 {
            (
                Some(catalog.intern(attrs::POWER_DOMAIN)),
                Some(catalog.intern(attrs::POOL)),
            )
        } else {
            (None, None)
        };

        // ---- Fleet plan -------------------------------------------------
        // `vocab_initial_fraction` of machines exist at t=0; the rest join
        // at the scheduled vocabulary-extension steps (each new machine's
        // node_index is a new feature column downstream).
        let m_total = self.scale.machines;
        let m_initial = ((m_total as f64) * self.profile.vocab_initial_fraction) as usize;
        let m_initial = m_initial.max(26).min(m_total);
        let racks = (m_total / 16).max(2);
        let platform_zipf = Zipf::new(PLATFORMS.len(), 1.1);
        let kernel_versions_initial = 4usize;
        let kernel_zipf = Zipf::new(kernel_versions_initial, 1.0);
        let disks_zipf = Zipf::new(8, 0.8);

        let make_machine = |id: u64, node_index: i64, kernel_ver: usize, rng: &mut StdRng| {
            let mut m = Machine::new(
                id,
                0.25 + 0.75 * rng.gen_range(0.0..1.0f64).powf(2.0),
                0.25 + 0.75 * rng.gen_range(0.0..1.0f64).powf(2.0),
            );
            m.set_attr(a_node, AttrValue::Int(node_index));
            m.set_attr(
                a_platform,
                AttrValue::from(PLATFORMS[platform_zipf.sample(rng)]),
            );
            m.set_attr(a_kernel, AttrValue::Str(format!("k{kernel_ver}")));
            m.set_attr(
                a_clock,
                AttrValue::Int(CLOCK_VALUES[rng.gen_range(0..CLOCK_VALUES.len())]),
            );
            m.set_attr(a_disks, AttrValue::Int(disks_zipf.sample(rng) as i64 + 1));
            m.set_attr(a_rack, AttrValue::Int((node_index as usize % racks) as i64));
            if rng.gen_bool(0.15) {
                m.set_attr(a_gpu, AttrValue::Int(rng.gen_range(1..=4)));
            }
            m.set_attr(a_tier, AttrValue::Int(rng.gen_range(0..10)));
            if let Some(ap) = a_power {
                let domains = 57.min((m_total / 8).max(2));
                m.set_attr(ap, AttrValue::Int((node_index as usize % domains) as i64));
            }
            if let Some(ap) = a_pool {
                m.set_attr(ap, AttrValue::from(POOLS[rng.gen_range(0..POOLS.len())]));
            }
            m
        };

        let mut next_node_index: i64 = 0;
        for id in 0..m_initial as u64 {
            let kv = kernel_zipf.sample(&mut rng);
            let m = make_machine(id, next_node_index, kv, &mut rng);
            next_node_index += 1;
            events.push(TraceEvent::new(0, EventPayload::MachineAdd(m)));
        }

        // ---- Vocabulary-extension schedule -------------------------------
        // Steps spread over the horizon with jitter; each step adds a batch
        // of new machines and/or rolls out a new kernel version, keeping
        // new feature columns per step under the profile cap.
        let steps = self.profile.vocab_extension_steps;
        let mut remaining_new_machines = m_total - m_initial;
        let mut next_machine_id = m_initial as u64;
        let mut kernel_version_counter = kernel_versions_initial;
        let mut extension_times: Vec<Micros> = (0..steps)
            .map(|i| {
                let base = horizon as f64 * (i as f64 + 0.7) / (steps as f64 + 0.7);
                let jitter = rng.gen_range(-0.25f64..0.25) * horizon as f64 / steps as f64;
                ((base + jitter).max(1.0) as Micros).min(horizon - 1)
            })
            .collect();
        extension_times.sort_unstable();
        extension_times.dedup();

        for (i, &t) in extension_times.iter().enumerate() {
            let steps_left = steps - i;
            // Budget for new columns this step: mostly new machines, plus a
            // kernel rollout every other step.
            let cap = self.profile.max_new_features_per_step;
            let machine_budget = cap.saturating_sub(3).max(1);
            let batch = remaining_new_machines
                .div_ceil(steps_left.max(1))
                .min(machine_budget)
                .min(remaining_new_machines);
            // Every other step rolls out a kernel build; steps with no
            // machine batch always roll one out so each extension step
            // actually extends the vocabulary.
            let rollout = i % 2 == 1 || batch == 0;
            for _ in 0..batch {
                let kv = kernel_zipf.sample(&mut rng);
                let m = make_machine(next_machine_id, next_node_index, kv, &mut rng);
                next_machine_id += 1;
                next_node_index += 1;
                events.push(TraceEvent::new(t, EventPayload::MachineAdd(m)));
            }
            remaining_new_machines -= batch;
            if rollout {
                // Roll a fresh kernel build onto a handful of machines —
                // one brand-new attribute value.
                let new_ver = kernel_version_counter;
                kernel_version_counter += 1;
                let n_upgraded = rng.gen_range(3..=12.min(m_initial));
                for _ in 0..n_upgraded {
                    let target = rng.gen_range(0..next_machine_id);
                    events.push(TraceEvent::new(
                        t + 1,
                        EventPayload::MachineAttrUpdate {
                            machine: target,
                            attr: a_kernel,
                            value: Some(AttrValue::Str(format!("k{new_ver}"))),
                        },
                    ));
                }
            }
        }
        // A small number of machine removals mid-trace (churn).
        let removals = (m_total / 100).min(8);
        for _ in 0..removals {
            let t = rng.gen_range(horizon / 4..horizon * 3 / 4);
            let victim = rng.gen_range(0..m_initial as u64);
            events.push(TraceEvent::new(t, EventPayload::MachineRemove(victim)));
        }

        // ---- Alive-index bookkeeping for constraint construction --------
        // The generator tracks (approximately) which node indices exist at
        // a given time so windowed constraints land near their target
        // suitable-node counts. Ground-truth labels are computed later by
        // the AGOCS matcher, so approximation here is harmless.
        let mut index_birth: Vec<(Micros, i64)> = Vec::new();
        for ev in &events {
            if let EventPayload::MachineAdd(m) = &ev.payload {
                if let Some(AttrValue::Int(ni)) = m.attr(a_node).cloned() {
                    index_birth.push((ev.time, ni));
                }
            }
        }
        index_birth.sort_unstable();
        let max_index_at = |t: Micros| -> i64 {
            // Largest node index born at or before t, plus one.
            let mut hi = 0i64;
            for &(bt, ni) in &index_birth {
                if bt > t {
                    break;
                }
                hi = hi.max(ni + 1);
            }
            hi
        };

        // ---- Collections and tasks --------------------------------------
        let pareto = BoundedPareto::new(0.002, 1.0, self.profile.pareto_alpha);
        // Constrained tasks' resource-request bias is expressed through
        // the tail shape (a multiplier would be clamped away on the heavy
        // draws that dominate totals): bias > 1 ⇒ heavier tail.
        let pareto_co_cpu = BoundedPareto::new(
            0.002,
            1.0,
            self.profile.pareto_alpha / self.profile.co_cpu_bias,
        );
        let pareto_co_mem = BoundedPareto::new(
            0.002,
            1.0,
            self.profile.pareto_alpha / self.profile.co_mem_bias,
        );
        let mut collection_times: Vec<Micros> = (0..self.scale.collections)
            .map(|_| rng.gen_range(0..horizon * 95 / 100))
            .collect();
        collection_times.sort_unstable();

        let mut next_task_id: u64 = 1;
        let mut total_tasks = 0usize;
        let mut constrained_tasks = 0usize;
        let phase = rng.gen_range(0.0..std::f64::consts::TAU);
        // Constraint templates: production workloads resubmit the same
        // constraint sets over and over (services pin the same node
        // classes), which is what makes the classification problem
        // well-posed at >99 % accuracy in the paper. New templates are
        // minted at TEMPLATE_FRESH_RATE; otherwise a prior one is reused.
        const TEMPLATE_FRESH_RATE: f64 = 0.35;
        let mut templates: Vec<Vec<TaskConstraint>> = Vec::new();

        for (cid_minus, &t_sub) in collection_times.iter().enumerate() {
            let cid = cid_minus as u64 + 1;
            // Gang size: geometric-ish, mean ≈ 4.5.
            let mut gang = 1u32;
            while gang < 40 && rng.gen_bool(0.72) {
                gang += 1;
            }

            // Seasonal constrained-task probability (drives Table IX
            // min/max/avg around the profile average).
            let season =
                (std::f64::consts::TAU * 3.0 * t_sub as f64 / horizon as f64 + phase).sin();
            let p_co = (self.profile.co_volume_avg
                + self.profile.co_volume_amplitude * season
                + rng.gen_range(-0.02f64..0.02))
            .clamp(0.005, 0.98);
            let constrained = rng.gen_bool(p_co);

            let constraints = if constrained {
                if !templates.is_empty() && !rng.gen_bool(TEMPLATE_FRESH_RATE) {
                    templates[rng.gen_range(0..templates.len())].clone()
                } else {
                    let fresh = self.build_constraints(
                        &mut rng,
                        max_index_at(t_sub),
                        a_node,
                        a_platform,
                        a_kernel,
                        a_gpu,
                        a_tier,
                        a_rack,
                        a_disks,
                        kernel_version_counter,
                    );
                    templates.push(fresh.clone());
                    fresh
                }
            } else {
                Vec::new()
            };

            let parent = if self.profile.format_2019 && cid > 4 && rng.gen_bool(0.18) {
                Some(rng.gen_range(1..cid))
            } else {
                None
            };
            let mut col = Collection {
                id: cid,
                parent,
                is_alloc_set: false,
                task_count: gang,
            };
            if self.profile.format_2019 && rng.gen_bool(0.05) {
                col.is_alloc_set = true;
            }
            events.push(TraceEvent::new(t_sub, EventPayload::CollectionSubmit(col)));

            let mut collection_end = t_sub;
            for g in 0..gang {
                let tid = next_task_id;
                next_task_id += 1;
                total_tasks += 1;
                if constrained {
                    constrained_tasks += 1;
                }
                let (cpu, memory) = if constrained {
                    (
                        pareto_co_cpu.sample(&mut rng),
                        pareto_co_mem.sample(&mut rng),
                    )
                } else {
                    (pareto.sample(&mut rng), pareto.sample(&mut rng))
                };
                let t_task = t_sub + g as Micros; // tasks of a gang arrive together
                let task = Task {
                    id: tid,
                    collection: cid,
                    cpu,
                    memory,
                    priority: rng.gen_range(0..12),
                    constraints: constraints.clone(),
                };
                events.push(TraceEvent::new(t_task, EventPayload::TaskSubmit(task)));

                // Lifetime: exponential-ish with a 2-hour mean, capped.
                let u: f64 = rng.gen_range(1e-6..1.0);
                let dur = ((-u.ln()) * 2.0 * 3_600.0 * 1e6) as Micros;
                let t_end = (t_task + dur.max(1_000_000)).min(horizon - 1);
                collection_end = collection_end.max(t_end);

                // Optional mid-flight update.
                if rng.gen_bool(0.15) {
                    let frac = rng.gen_range(0.1f64..0.9);
                    let mut t_up = t_task + ((t_end - t_task) as f64 * frac) as Micros;
                    // Anomaly (i): corrupt the update timestamp to before
                    // submission.
                    if self.profile.format_2019 && rng.gen_bool(self.profile.anomaly_mistimed_rate)
                    {
                        t_up = t_task.saturating_sub(rng.gen_range(1_000..60_000_000));
                        anomalies.record(tid, AnomalyKind::MistimedUpdate);
                    }
                    events.push(TraceEvent::new(
                        t_up,
                        EventPayload::TaskUpdate {
                            task: tid,
                            cpu: (cpu * rng.gen_range(0.8f64..1.3)).min(1.0),
                            memory: (memory * rng.gen_range(0.8f64..1.3)).min(1.0),
                        },
                    ));
                }

                // Termination — unless anomaly (ii) suppresses it.
                let missing = self.profile.format_2019
                    && rng.gen_bool(self.profile.anomaly_missing_term_rate);
                if missing {
                    anomalies.record(tid, AnomalyKind::MissingTermination);
                } else {
                    let reason = match rng.gen_range(0..100) {
                        0..=69 => TerminationReason::Complete,
                        70..=79 => TerminationReason::Evict,
                        80..=93 => TerminationReason::Fail,
                        _ => TerminationReason::Kill,
                    };
                    events.push(TraceEvent::new(
                        t_end,
                        EventPayload::TaskTerminate { task: tid, reason },
                    ));
                }
            }
            events.push(TraceEvent::new(
                (collection_end + 1_000_000).min(horizon - 1),
                EventPayload::CollectionFinish(cid),
            ));
        }

        // Stable sort by time: same-timestamp events keep build order,
        // which preserves Submit-before-Terminate for zero-length tasks.
        events.sort_by_key(|e| e.time);

        GeneratedTrace {
            profile: self.profile.clone(),
            scale: self.scale,
            events,
            catalog,
            horizon,
            group_width: self.scale.group_width(&self.profile),
            anomalies,
            total_tasks,
            constrained_tasks,
        }
    }

    /// Builds the constraint list for one constrained collection.
    ///
    /// A *primary* constraint pins the approximate suitable-node count
    /// (sampling the target-group distribution), and with probability
    /// `constraint_noise` decorative secondary constraints are added —
    /// the mixture that makes the CO-VV datasets realistic.
    #[allow(clippy::too_many_arguments)]
    fn build_constraints(
        &self,
        rng: &mut StdRng,
        max_index: i64,
        a_node: AttrId,
        a_platform: AttrId,
        a_kernel: AttrId,
        a_gpu: AttrId,
        a_tier: AttrId,
        a_rack: AttrId,
        a_disks: AttrId,
        kernel_versions: usize,
    ) -> Vec<TaskConstraint> {
        let m = max_index.max(2);
        let mut out = Vec::new();

        if rng.gen_bool(self.profile.group0_share.clamp(0.0, 1.0)) {
            // Group 0: exactly one suitable node.
            let idx = rng.gen_range(0..m);
            out.push(TaskConstraint::new(
                a_node,
                ConstraintOp::Equal(Some(AttrValue::Int(idx))),
            ));
            return out;
        }

        // Target suitable-node count: mostly generous, sometimes narrow.
        let n: i64 = if rng.gen_bool(0.25) {
            rng.gen_range(2..(m / 4).max(3))
        } else {
            rng.gen_range((m / 4).max(2)..m)
        };

        let style = rng.gen_range(0..100);
        match style {
            // Index window — exact-count constraints (the dominant style;
            // gives the learner a crisp signal, as the paper's >99 %
            // accuracy implies the real data does).
            0..=49 => {
                let a = rng.gen_range(0..(m - n).max(1));
                if self.profile.format_2019 {
                    out.push(TaskConstraint::new(
                        a_node,
                        ConstraintOp::GreaterThanEqual(a),
                    ));
                    out.push(TaskConstraint::new(a_node, ConstraintOp::LessThan(a + n)));
                } else {
                    // 2011 lacks >= and <=: use the strict pair the paper's
                    // Table V compaction handles (`3 > ${AM} > 0`).
                    out.push(TaskConstraint::new(
                        a_node,
                        ConstraintOp::GreaterThan(a - 1),
                    ));
                    out.push(TaskConstraint::new(a_node, ConstraintOp::LessThan(a + n)));
                }
            }
            // Platform equality.
            50..=64 => {
                let v = PLATFORMS[rng.gen_range(0..PLATFORMS.len())];
                out.push(TaskConstraint::new(
                    a_platform,
                    ConstraintOp::Equal(Some(AttrValue::from(v))),
                ));
            }
            // GPU presence / absence (2019 ops) or numeric proxy for 2011.
            65..=74 => {
                if self.profile.format_2019 {
                    if rng.gen_bool(0.5) {
                        out.push(TaskConstraint::new(a_gpu, ConstraintOp::Present));
                    } else {
                        out.push(TaskConstraint::new(a_gpu, ConstraintOp::NotPresent));
                    }
                } else {
                    out.push(TaskConstraint::new(a_gpu, ConstraintOp::GreaterThan(0)));
                }
            }
            // Rack exclusions — Not-Equal array material (Table V).
            75..=89 => {
                let racks = (self.scale.machines / 16).max(2) as i64;
                let k = rng.gen_range(1..=3.min(racks as usize)).max(1);
                let mut excluded = std::collections::BTreeSet::new();
                while excluded.len() < k {
                    excluded.insert(rng.gen_range(0..racks));
                }
                for r in excluded {
                    out.push(TaskConstraint::new(
                        a_rack,
                        ConstraintOp::NotEqual(AttrValue::Int(r)),
                    ));
                }
            }
            // Tier ceiling.
            _ => {
                let k = rng.gen_range(0..9);
                if self.profile.format_2019 {
                    out.push(TaskConstraint::new(a_tier, ConstraintOp::LessThanEqual(k)));
                } else {
                    out.push(TaskConstraint::new(a_tier, ConstraintOp::LessThan(k + 1)));
                }
            }
        }

        // Decorative secondary constraints. Kept *weak* (each excludes
        // only a small machine slice): real traces' auxiliary constraints
        // rarely carve deep intersections, and deep multi-attribute
        // intersections would put the suitable count outside what any
        // linear model can recover — the paper's ≥99 % accuracy implies
        // the real data does not do that either.
        if rng.gen_bool(self.profile.constraint_noise) {
            match rng.gen_range(0..3) {
                0 => {
                    // Exclude one rare kernel build (~a few machines).
                    let v = format!("k{}", rng.gen_range(0..kernel_versions));
                    out.push(TaskConstraint::new(
                        a_kernel,
                        ConstraintOp::NotEqual(AttrValue::Str(v)),
                    ));
                }
                1 => {
                    // Exclude maxed-out disk configs (~5-10 % of the fleet).
                    out.push(TaskConstraint::new(
                        a_disks,
                        ConstraintOp::NotEqual(AttrValue::Int(8)),
                    ));
                }
                _ => {
                    // Exclude tier 0 (~10 % of the fleet).
                    out.push(TaskConstraint::new(a_tier, ConstraintOp::GreaterThan(0)));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::profile::CellSet;

    /// Machine-count bookkeeping: replays only machine events and returns
    /// the live machine population per unique timestamp.
    fn machine_population(events: &[TraceEvent]) -> BTreeMap<Micros, usize> {
        let mut alive = 0usize;
        let mut out = BTreeMap::new();
        for ev in events {
            match &ev.payload {
                EventPayload::MachineAdd(_) => alive += 1,
                EventPayload::MachineRemove(_) => alive = alive.saturating_sub(1),
                _ => continue,
            }
            out.insert(ev.time, alive);
        }
        out
    }

    fn small_trace(cell: CellSet) -> GeneratedTrace {
        TraceGenerator::generate_cell(
            cell,
            Scale {
                machines: 120,
                collections: 250,
                seed: 11,
            },
        )
    }

    #[test]
    fn events_are_time_sorted() {
        let t = small_trace(CellSet::C2019c);
        assert!(t.events.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let a = small_trace(CellSet::C2019a);
        let b = small_trace(CellSet::C2019a);
        assert_eq!(a.events, b.events);
        assert_eq!(a.anomalies, b.anomalies);
    }

    #[test]
    fn different_seeds_differ() {
        let a = small_trace(CellSet::C2011);
        let b = TraceGenerator::generate_cell(
            CellSet::C2011,
            Scale {
                machines: 120,
                collections: 250,
                seed: 12,
            },
        );
        assert_ne!(a.events, b.events);
    }

    #[test]
    fn machine_population_reaches_scale() {
        let t = small_trace(CellSet::C2019c);
        let pop = machine_population(&t.events);
        let max_pop = pop.values().copied().max().unwrap();
        // All planned machines eventually join (minus a few removals).
        assert!(max_pop >= 110, "population only reached {max_pop}");
    }

    #[test]
    fn initial_fleet_is_the_profile_fraction() {
        let t = small_trace(CellSet::C2019c);
        let at_zero = t
            .events
            .iter()
            .filter(|e| e.time == 0 && matches!(e.payload, EventPayload::MachineAdd(_)))
            .count();
        let expect = (120.0 * t.profile.vocab_initial_fraction) as usize;
        assert!(
            (at_zero as i64 - expect as i64).abs() <= 1,
            "initial fleet {at_zero}"
        );
    }

    #[test]
    fn constrained_share_is_near_profile_average() {
        let t = small_trace(CellSet::C2019a);
        let share = t.constrained_tasks as f64 / t.total_tasks as f64;
        let avg = t.profile.co_volume_avg;
        assert!(
            (share - avg).abs() < 0.12,
            "constrained share {share:.3} too far from profile avg {avg:.3}"
        );
    }

    #[test]
    fn only_2011_ops_in_2011_traces() {
        let t = small_trace(CellSet::C2011);
        for ev in &t.events {
            if let EventPayload::TaskSubmit(task) = &ev.payload {
                for c in &task.constraints {
                    assert!(!c.op.is_2019_only(), "2019 op {:?} in 2011 trace", c.op);
                }
            }
        }
    }

    #[test]
    fn trace_2019_uses_new_operators_somewhere() {
        let t = small_trace(CellSet::C2019a);
        let has_2019_op = t.events.iter().any(|ev| {
            matches!(&ev.payload, EventPayload::TaskSubmit(task)
                if task.constraints.iter().any(|c| c.op.is_2019_only()))
        });
        assert!(has_2019_op, "expected 2019-only operators in a 2019 trace");
    }

    #[test]
    fn anomalies_only_in_2019_traces() {
        assert_eq!(small_trace(CellSet::C2011).anomalies.injected.len(), 0);
        let t = small_trace(CellSet::C2019c);
        assert!(
            !t.anomalies.injected.is_empty(),
            "expected injected anomalies in a 2019 trace at this scale"
        );
    }

    #[test]
    fn mistimed_updates_are_really_mistimed() {
        let t = small_trace(CellSet::C2019c);
        // Build submit-time index.
        let mut submit: std::collections::HashMap<u64, Micros> = Default::default();
        for ev in &t.events {
            if let EventPayload::TaskSubmit(task) = &ev.payload {
                submit.insert(task.id, ev.time);
            }
        }
        for a in &t.anomalies.injected {
            if a.kind == AnomalyKind::MistimedUpdate {
                let t_up = t
                    .events
                    .iter()
                    .find_map(|ev| match &ev.payload {
                        EventPayload::TaskUpdate { task, .. } if *task == a.task => Some(ev.time),
                        _ => None,
                    })
                    .expect("mistimed task must still have an update event");
                assert!(
                    t_up < submit[&a.task],
                    "update not mistimed for task {}",
                    a.task
                );
            }
        }
    }

    #[test]
    fn missing_termination_tasks_have_no_terminate_event() {
        let t = small_trace(CellSet::C2019c);
        for a in &t.anomalies.injected {
            if a.kind == AnomalyKind::MissingTermination {
                let has_term = t.events.iter().any(|ev| {
                    matches!(ev.payload, EventPayload::TaskTerminate { task, .. } if task == a.task)
                });
                assert!(!has_term, "task {} should lack a termination event", a.task);
            }
        }
    }

    #[test]
    fn every_collection_eventually_finishes() {
        let t = small_trace(CellSet::C2019d);
        let mut submitted = std::collections::HashSet::new();
        let mut finished = std::collections::HashSet::new();
        for ev in &t.events {
            match &ev.payload {
                EventPayload::CollectionSubmit(c) => {
                    submitted.insert(c.id);
                }
                EventPayload::CollectionFinish(id) => {
                    finished.insert(*id);
                }
                _ => {}
            }
        }
        assert_eq!(submitted, finished);
    }

    #[test]
    fn heavy_tail_top_1pct_dominates() {
        let t = small_trace(CellSet::C2019c);
        let mut cpus: Vec<f64> = t
            .events
            .iter()
            .filter_map(|ev| match &ev.payload {
                EventPayload::TaskSubmit(task) => Some(task.cpu),
                _ => None,
            })
            .collect();
        cpus.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let total: f64 = cpus.iter().sum();
        let top1: f64 = cpus[..(cpus.len() / 100).max(1)].iter().sum();
        assert!(
            top1 / total > 0.15,
            "top-1% CPU share {:.3} too even",
            top1 / total
        );
    }
}

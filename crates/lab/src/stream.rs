//! Streaming synthetic arrival generation: the lab-side
//! [`ArrivalStream`] that decodes a [`SyntheticWorkload`] chunk by
//! chunk instead of materialising it.
//!
//! Bit-identity with the materialised builder is by construction, not by
//! luck — the materialised arrival list `crate::build` produces *is* a
//! drained [`SyntheticStream`]. The stream reproduces the classic
//! generator's RNG draw sequence exactly:
//!
//! 1. at construction, one RNG **burns** every background draw (gap,
//!    cpu, memory per task — the order the materialised loop used) and
//!    then draws the restrictive tasks' machine pins, so the pins come
//!    out of the identical stream positions;
//! 2. the (few) restrictive tasks are materialised up front — they are
//!    spec-bounded and carry constraint lists, not a scale concern;
//! 3. background tasks replay lazily from a second, identically seeded
//!    RNG as chunks are pulled;
//! 4. each refill **merges** the two nondecreasing runs by
//!    `(arrival, id)` — the same total order the old
//!    `sort_by_key(|t| (t.arrival, t.id))` produced (ids are unique, so
//!    the stable sort was exactly this strict order).
//!
//! Peak memory for the background population is one chunk, which is what
//! lets a million-machine, tens-of-millions-of-tasks spec run in
//! container memory.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ctlm_data::compaction::collapse;
use ctlm_data::dataset::group_for_count;
use ctlm_sched::{ArrivalStream, PendingTask, SimConfig};
use ctlm_sim::SimTime;
use ctlm_trace::{AttrValue, ConstraintOp, Micros, TaskConstraint};

use crate::build::{kth_time, ATTR_VALUE_STRIDE};
use crate::spec::{ArrivalProcess, SizeDist, SyntheticWorkload};
use crate::LabError;

/// Pull-based generator for a [`SyntheticWorkload`]'s arrivals.
///
/// Emits the same tasks, in the same order, with the same ids as the
/// materialised builder — see the module docs for how the RNG burn and
/// two-run merge pin that down.
pub struct SyntheticStream {
    /// Replays the background draws (gap, cpu, memory per task) from the
    /// same seed the burn RNG used.
    rng: StdRng,
    /// Background tasks not yet generated.
    remaining: usize,
    /// Next background task id (before `id_base`).
    next_id: u64,
    /// Background arrival clock (gaps accumulate).
    now: Micros,
    arrival: ArrivalProcess,
    cpu: SizeDist,
    memory: SizeDist,
    priority: u8,
    background_group: u8,
    /// Restrictive (Group-0) tasks, materialised and `(arrival, id)`
    /// sorted — spec-bounded, so holding them is O(restrictive.count).
    restrictive: Vec<PendingTask>,
    r_pos: usize,
    id_base: u64,
    chunk: usize,
    /// One-task lookahead: the next background task, generated so the
    /// merge can compare it against the next restrictive task.
    peeked: Option<PendingTask>,
}

impl SyntheticStream {
    /// Builds the stream for one cell. `index` namespaces the RNG seed
    /// and pin-attribute values exactly as the materialised builder
    /// does; `id_base` is added to every task id (the per-cell id
    /// stride); `chunk` tasks are emitted per refill.
    ///
    /// # Panics
    /// Panics when `chunk` is 0.
    pub fn new(
        w: &SyntheticWorkload,
        sim: &SimConfig,
        index: usize,
        id_base: u64,
        chunk: usize,
    ) -> Result<Self, LabError> {
        assert!(chunk > 0, "chunk size must be positive");
        let total: usize = w.machines.iter().map(|g| g.count).sum();
        if total == 0 {
            return Err(LabError::msg(
                "synthetic workload needs at least one machine",
            ));
        }
        let seed = sim.seed ^ 0xB17D_5EED ^ (index as u64).wrapping_mul(0x0C1E_77A2);
        // Burn the background population's draws so the restrictive pins
        // come from the same RNG positions the one-pass builder gave
        // them (gap, then cpu, then memory per task — Uniform gaps and
        // Fixed sizes draw nothing, matching the samplers).
        // The burn also walks the background clock once, so a population
        // whose gaps run past the end of the time axis is refused here
        // rather than wrapping mid-stream into an unsorted arrival list.
        let mut burn = StdRng::seed_from_u64(seed);
        let mut clock: Micros = 0;
        for k in 0..w.tasks {
            let gap = w.arrival.sample(&mut burn);
            clock = clock.checked_add(gap).ok_or_else(|| {
                LabError::msg(format!(
                    "background task {k}: arrival gap {gap} after {clock} overflows the time axis"
                ))
            })?;
            w.cpu.sample(&mut burn);
            w.memory.sample(&mut burn);
        }
        let attr_base = index as i64 * ATTR_VALUE_STRIDE;
        let mut restrictive = Vec::new();
        if let Some(r) = &w.restrictive {
            restrictive.reserve(r.count);
            for j in 0..r.count {
                let pin = attr_base + burn.gen_range(0..total) as i64;
                let reqs = collapse(&[TaskConstraint::new(
                    0,
                    ConstraintOp::Equal(Some(AttrValue::Int(pin))),
                )])
                .map_err(|e| LabError::msg(format!("restrictive constraint: {e:?}")))?;
                let arrival = kth_time("restrictive task", r.start, j, r.period)?;
                restrictive.push(PendingTask {
                    id: id_base + 500_000_000 + j as u64,
                    collection: 2,
                    cpu: r.cpu,
                    memory: r.cpu,
                    priority: r.priority,
                    reqs,
                    arrival: SimTime::from_micros(arrival),
                    truth_group: 0,
                });
            }
        }
        debug_assert!(
            restrictive
                .windows(2)
                .all(|p| (p[0].arrival, p[0].id) < (p[1].arrival, p[1].id)),
            "restrictive run must be (arrival, id)-sorted"
        );
        let group_width = (total.div_ceil(26)).max(1);
        Ok(Self {
            rng: StdRng::seed_from_u64(seed),
            remaining: w.tasks,
            next_id: 0,
            now: 0,
            arrival: w.arrival.clone(),
            cpu: w.cpu.clone(),
            memory: w.memory.clone(),
            priority: w.priority,
            background_group: group_for_count(total, group_width),
            restrictive,
            r_pos: 0,
            id_base,
            chunk,
            peeked: None,
        })
    }

    /// Generates the next background task (consuming its RNG draws in
    /// the canonical gap/cpu/memory order).
    fn gen_background(&mut self) -> PendingTask {
        // Cannot wrap: `new` walked these same draws with `checked_add`.
        self.now += self.arrival.sample(&mut self.rng);
        let t = PendingTask {
            id: self.id_base + self.next_id,
            collection: 1,
            cpu: self.cpu.sample(&mut self.rng),
            memory: self.memory.sample(&mut self.rng),
            priority: self.priority,
            reqs: vec![],
            arrival: SimTime::from_micros(self.now),
            truth_group: self.background_group,
        };
        self.next_id += 1;
        self.remaining -= 1;
        t
    }
}

impl ArrivalStream for SyntheticStream {
    fn refill(&mut self, out: &mut Vec<PendingTask>) -> usize {
        let mut n = 0;
        while n < self.chunk {
            if self.peeked.is_none() && self.remaining > 0 {
                self.peeked = Some(self.gen_background());
            }
            let take_restrictive = match (&self.peeked, self.restrictive.get(self.r_pos)) {
                (Some(b), Some(r)) => (r.arrival, r.id) < (b.arrival, b.id),
                (None, Some(_)) => true,
                (Some(_), None) => false,
                (None, None) => break,
            };
            if take_restrictive {
                out.push(self.restrictive[self.r_pos].clone());
                self.r_pos += 1;
            } else {
                out.push(self.peeked.take().expect("checked above"));
            }
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{MachineGroup, RestrictiveSpec};

    fn workload() -> SyntheticWorkload {
        SyntheticWorkload {
            machines: vec![MachineGroup {
                count: 10,
                cpu: 1.0,
                memory: 1.0,
            }],
            tasks: 500,
            arrival: ArrivalProcess::Exponential { mean_gap: 40_000 },
            cpu: SizeDist::Pareto {
                lo: 0.02,
                hi: 0.5,
                alpha: 1.2,
            },
            memory: SizeDist::Fixed(0.05),
            priority: 2,
            restrictive: Some(RestrictiveSpec {
                count: 7,
                start: 1_000_000,
                period: 2_000_000,
                cpu: 0.2,
                priority: 6,
            }),
        }
    }

    #[test]
    fn stream_is_sorted_and_complete_for_any_chunk() {
        let w = workload();
        let sim = SimConfig {
            seed: 11,
            ..SimConfig::default()
        };
        let drain = |chunk: usize| -> Vec<(u64, SimTime, u64, u64, u8, usize)> {
            let mut s = SyntheticStream::new(&w, &sim, 1, 1 << 40, chunk).unwrap();
            let mut all = Vec::new();
            while s.refill(&mut all) > 0 {}
            all.iter()
                .map(|t| {
                    (
                        t.id,
                        t.arrival,
                        t.cpu.to_bits(),
                        t.memory.to_bits(),
                        t.truth_group,
                        t.reqs.len(),
                    )
                })
                .collect()
        };
        let base = drain(10_000); // one refill covers everything
        assert_eq!(base.len(), 507);
        assert!(base.windows(2).all(|p| (p[0].1, p[0].0) < (p[1].1, p[1].0)));
        for chunk in [1, 13, 64] {
            let tasks = drain(chunk);
            assert_eq!(tasks, base, "chunk {chunk} must not change the stream");
        }
    }
}

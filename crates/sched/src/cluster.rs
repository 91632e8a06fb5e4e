//! Machine capacity accounting for the scheduler.
//!
//! ## Layout
//!
//! Every machine the cluster has seen owns one **slot** for good — the
//! index of its row in three parallel tables:
//!
//! * `hot` — `(id, free_cpu, free_mem)`, 24 bytes a machine, the only
//!   thing a capacity probe reads;
//! * `slots` — the machine's usage sums, its task list and whether it is
//!   online, parked (drained, restorable) or vacant (taken by
//!   [`SchedCluster::take_offline`]);
//! * the fleet's `machines` — the [`Machine`] itself.
//!
//! A machine also has a **rank**: its slot's position in id order among
//! every slot. The fleet's `rank_of` and `slot_at` map slot to rank and
//! back.
//!
//! A `MachineId` is hashed to its slot once, where a call enters with an
//! id (`place`, `release`, `remove_machine`, `restore_machine`,
//! `update_attr`, the id-keyed getters), by one folded multiply (the
//! crate's `IdMap`). Nothing behind that boundary hashes: the capacity
//! index's buckets hold ranks, which `slot_at` turns into slots, and
//! the attribute index is keyed by slot, so whatever either of them
//! yields indexes the tables directly.
//!
//! ## Sharing
//!
//! A cluster is two parts:
//!
//! * the **fleet** — `slot_of`, the rank tables, the `machines` table
//!   and the slot-keyed attribute index — behind an `Arc`, shared by
//!   every clone;
//! * the **usage state** — `hot`, `slots`, the online count, the
//!   capacity index and the fleet totals — owned by each clone.
//!
//! A grid point's schedulers run the same fleet once each, so
//! [`SchedCluster::clone`] copies only the usage state: four buffers,
//! plus one per non-empty capacity bucket and one per machine holding
//! tasks. On an idle fleet of one machine shape that is the same count
//! at 100 machines as at 10 000 (`zero_alloc_pass.rs` pins it).
//! Every write to the fleet — `add_machine`, a machine going offline or
//! coming back (`remove_machine`, `restore_machine`), `update_attr` and
//! `take_offline` — goes through one private accessor, `fleet_mut`,
//! which is `Arc::make_mut`: the first such write on a shared fleet
//! copies it, once, and later writes reuse the copy. A run whose fleet
//! never changes never copies; one whose fleet does (churn, rollout,
//! autoscaling, crashes) pays at its first change what a deep clone
//! used to cost up front. A cluster that holds the only reference
//! writes in place, so drain and restore allocate nothing.
//!
//! So an A/B comparison over one fleet runs each policy on its own
//! clone of the pristine cluster: no run can see what another left
//! behind — reservations, drained or joined machines, attribute
//! rollouts — and nothing has to put the fleet back afterwards.
//!
//! ## The capacity index
//!
//! Online machines are bucketed by quantized free CPU
//! ([`capacity_bucket`]). A bucket is a sparse bitmap over rank: a list
//! of `(word index, bits)` by ascending word, with no empty word. Filing
//! or unfiling a machine binary-searches at most fleet ÷ 64 word
//! indices and sets or clears one bit; the list shifts only when a word
//! appears or empties. A walk goes word by word, then bit by bit
//! (`trailing_zeros`), which is ascending rank, so ascending id: the
//! first machine a walk accepts is the `(bucket, id)` argmin.
//!
//! A bucket also knows the largest free CPU and the largest free memory
//! among its machines (each with a holder count, so the bound stays
//! exact under removal without a rescan per removal), which lets a probe
//! pass over a bucket none of whose machines can hold the request — the
//! decimal near-miss case below — in one comparison. `place` /
//! `release` rewrite the machine's `hot` row and the bucket bounds in
//! place; machines move between buckets only when the quantized free CPU
//! changed.
//!
//! ## Ranks
//!
//! A new id above every known id takes the next rank, which keeps the
//! ranks in id order for free; the synthetic builder, the trace
//! generator and the autoscaler all mint ascending ids. A new id below
//! the largest known one — a hand-built fleet, a trace with arbitrary
//! ids, or an autoscaler machine that joins after one minted later —
//! takes its rank in id order, and every machine above it moves up one
//! rank, its bit with it. That costs the ranks it passes, not the
//! fleet: a full re-rank (sort, then refile every online machine) per
//! such join cost 15–19 ms of a 0.17–0.21 s `chaos_mix` pass, whose 420
//! autoscaler joins each pass 400 ranks.
//! [`SchedCluster::from_machines`] re-ranks in full, once, after its
//! last machine, so *n* machines in any order cost one sort. A re-add
//! under a known id, a restore and a rejoin after `take_offline` keep
//! their slot and rank.
//!
//! ## The decimal near-miss
//!
//! Free capacity is `capacity − Σ reservations` in `f64`, and requests
//! are compared exactly (`free ≥ request`). `1.0 − 4 × 0.2` is
//! `0.19999999999999996`, so a unit machine holds four 0.2-core tasks,
//! not five, while still sitting in `capacity_bucket(0.2)`. Reports and
//! goldens depend on that arithmetic; it is pinned by
//! `a_unit_machine_holds_four_fifth_core_tasks_not_five`.

use std::sync::{Arc, LazyLock};

use ctlm_agocs::matcher::machine_suitable;
use ctlm_agocs::AttrIndex;
use ctlm_data::compaction::AttrRequirement;
use ctlm_trace::{AttrId, AttrValue, Machine, MachineId, TaskId};

use crate::idmap::IdMap;

/// Free-CPU quantization: capacity buckets of 1/1024 core. Best-fit
/// tie-breaks are defined over `(capacity_bucket(free_cpu), id)`, so the
/// incrementally maintained capacity index and the retained linear
/// reference scan agree bit-for-bit (quantized keys sidestep the
/// float-rounding ties an exact `free − request` comparison can produce).
pub fn capacity_bucket(free_cpu: f64) -> usize {
    (free_cpu.max(0.0) * 1024.0) as usize
}

/// The largest machine CPU capacity the capacity index files: its
/// bucket table has one entry per 1/1024 core of free CPU, so this caps
/// it at 2²⁰ buckets. Specs are checked against it before a cluster is
/// built.
pub const MAX_MACHINE_CPU: f64 = 1024.0;

/// What a capacity probe reads of one machine.
#[derive(Clone, Copy, Debug)]
struct Hot {
    id: MachineId,
    /// `machine.cpu − cpu_used`, recomputed (never decremented) on every
    /// change so it is bit-equal to that subtraction.
    free_cpu: f64,
    /// `machine.memory − mem_used`, likewise.
    free_mem: f64,
}

impl Hot {
    fn fits(&self, cpu: f64, mem: f64) -> bool {
        self.free_cpu >= cpu && self.free_mem >= mem
    }
}

/// Where a slot's machine stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    /// In the fleet: indexed, placeable.
    Online,
    /// Drained by churn — kept so `restore_machine` can bring it back
    /// without a copy of the fleet.
    Parked,
    /// Taken out by `take_offline`; the slot waits for its id to rejoin.
    Vacant,
}

/// A machine's usage in one run: everything per run a probe does not
/// read.
#[derive(Clone, Debug)]
struct Slot {
    cpu_used: f64,
    mem_used: f64,
    /// Tasks placed here as `(task, cpu, memory, priority)`.
    tasks: Vec<(TaskId, f64, f64, u8)>,
    state: State,
}

/// One online machine as a placement strategy sees it while
/// [`SchedCluster::suitable_visit`] streams candidates: already
/// resolved to its table rows, so reading it costs no lookup.
#[derive(Clone, Copy, Debug)]
pub struct MachineView<'a> {
    hot: &'a Hot,
    slot: &'a Slot,
}

impl MachineView<'_> {
    /// The machine's id.
    pub fn id(&self) -> MachineId {
        self.hot.id
    }

    /// Free CPU right now.
    pub fn free_cpu(&self) -> f64 {
        self.hot.free_cpu
    }

    /// Free memory right now.
    pub fn free_mem(&self) -> f64 {
        self.hot.free_mem
    }

    /// True when the machine can hold the request right now (exact
    /// `free ≥ request` on both resources).
    pub fn fits(&self, cpu: f64, mem: f64) -> bool {
        self.hot.fits(cpu, mem)
    }

    /// Tasks here with priority strictly below `priority`, lowest
    /// priority first (ties: lowest task id), into `out` — the
    /// Kubernetes preemption candidate order.
    pub fn preemption_candidates_into(&self, priority: u8, out: &mut Vec<(TaskId, f64, f64, u8)>) {
        out.clear();
        out.extend(self.slot.tasks.iter().filter(|t| t.3 < priority));
        out.sort_unstable_by_key(|&(t, _, _, p)| (p, t));
    }
}

/// The largest value among a bucket's machines and how many hold it.
/// Counting holders keeps the bound exact when a holder leaves without
/// rescanning the bucket, unless it was the last one.
#[derive(Clone, Copy, Debug)]
struct Peak {
    max: f64,
    holders: u32,
}

impl Peak {
    const NONE: Peak = Peak {
        max: f64::NEG_INFINITY,
        holders: 0,
    };

    fn add(&mut self, v: f64) {
        if v > self.max {
            *self = Peak { max: v, holders: 1 };
        } else if v == self.max {
            self.holders += 1;
        }
    }

    /// Forgets one machine's value; true when the peak lost its last
    /// holder and has to be recomputed from the bucket.
    fn forget(&mut self, v: f64) -> bool {
        if v == self.max {
            self.holders -= 1;
        }
        self.holders == 0
    }
}

/// The set bits of a word, lowest first.
struct Bits(u64);

impl Iterator for Bits {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        (self.0 != 0).then(|| {
            let i = self.0.trailing_zeros() as usize;
            self.0 &= self.0 - 1;
            i
        })
    }
}

/// One capacity bucket: the online machines whose free CPU quantizes
/// here, as a sparse bitmap over rank, and the bounds a probe tests
/// before it reads them.
#[derive(Clone, Debug)]
struct Bucket {
    /// `(w, bits)` by ascending `w`: bit `i` of `bits` is set when the
    /// machine of rank `64·w + i` is here. No word is zero.
    words: Vec<(u32, u64)>,
    cpu: Peak,
    mem: Peak,
}

impl Bucket {
    const EMPTY: Bucket = Bucket {
        words: Vec::new(),
        cpu: Peak::NONE,
        mem: Peak::NONE,
    };

    /// Where rank `rank`'s word sits (`Ok`) or belongs (`Err`), and its
    /// bit.
    fn word(&self, rank: u32) -> (Result<usize, usize>, u64) {
        let w = rank / 64;
        (
            self.words.binary_search_by_key(&w, |&(w, _)| w),
            1 << (rank % 64),
        )
    }

    fn insert(&mut self, rank: u32) {
        match self.word(rank) {
            (Ok(i), bit) => {
                let bits = &mut self.words[i].1;
                assert!(*bits & bit == 0, "machine indexed in one bucket only");
                *bits |= bit;
            }
            (Err(i), bit) => self.words.insert(i, (rank / 64, bit)),
        }
    }

    fn remove(&mut self, rank: u32) {
        let (Ok(i), bit) = self.word(rank) else {
            panic!("machine indexed in bucket");
        };
        let bits = &mut self.words[i].1;
        assert!(*bits & bit != 0, "machine indexed in bucket");
        *bits &= !bit;
        if *bits == 0 {
            self.words.remove(i);
        }
    }

    /// The ranks here, ascending: ascending machine id.
    fn ranks(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .flat_map(|&(w, bits)| Bits(bits).map(move |i| w as usize * 64 + i))
    }

    fn add_peaks(&mut self, h: &Hot) {
        self.cpu.add(h.free_cpu);
        self.mem.add(h.free_mem);
    }

    /// Forgets `was`'s values; rescans when a bound lost its last holder.
    fn forget_peaks(&mut self, hot: &[Hot], slot_at: &[u32], was: &Hot) {
        let stale = self.cpu.forget(was.free_cpu) | self.mem.forget(was.free_mem);
        if stale {
            let (mut cpu, mut mem) = (Peak::NONE, Peak::NONE);
            for r in self.ranks() {
                let h = &hot[slot_at[r] as usize];
                cpu.add(h.free_cpu);
                mem.add(h.free_mem);
            }
            (self.cpu, self.mem) = (cpu, mem);
        }
    }
}

/// The maintained free-capacity ordering (see the module docs), plus an
/// occupancy bitmap so a query can skip empty buckets a word at a time.
/// An update sets or clears one bit after a binary search over at most
/// fleet ÷ 64 words, with **zero heap allocations** once bucket
/// capacities have warmed (the steady-state scheduling-pass guarantee).
#[derive(Clone, Debug, Default)]
struct CapacityIndex {
    buckets: Vec<Bucket>,
    /// One bit per bucket: set when the bucket is non-empty.
    occupied: Vec<u64>,
}

impl CapacityIndex {
    /// Files `slot` under its current `hot` row, at its rank.
    fn insert(&mut self, hot: &[Hot], fleet: &Fleet, slot: usize) {
        let bucket = capacity_bucket(hot[slot].free_cpu);
        if bucket >= self.buckets.len() {
            self.buckets.resize(bucket + 1, Bucket::EMPTY);
            self.occupied.resize(self.buckets.len().div_ceil(64), 0);
        }
        let b = &mut self.buckets[bucket];
        b.insert(fleet.rank_of[slot]);
        b.add_peaks(&hot[slot]);
        self.occupied[bucket / 64] |= 1u64 << (bucket % 64);
    }

    /// Unfiles `slot`; its `hot` row must still read what `insert` saw.
    fn remove(&mut self, hot: &[Hot], fleet: &Fleet, slot: usize) {
        let h = &hot[slot];
        let bucket = capacity_bucket(h.free_cpu);
        let b = &mut self.buckets[bucket];
        b.remove(fleet.rank_of[slot]);
        b.forget_peaks(hot, &fleet.slot_at, h);
        if b.words.is_empty() {
            self.occupied[bucket / 64] &= !(1u64 << (bucket % 64));
        }
    }

    /// The first occupied bucket at or above `from`.
    fn next_occupied(&self, from: usize) -> Option<usize> {
        if from >= self.buckets.len() {
            return None;
        }
        let mut word = from / 64;
        let mut bits = self.occupied[word] & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                return Some(word * 64 + bits.trailing_zeros() as usize);
            }
            word += 1;
            if word >= self.occupied.len() {
                return None;
            }
            bits = self.occupied[word];
        }
    }

    fn clear(&mut self) {
        for b in &mut self.buckets {
            b.words.clear();
            (b.cpu, b.mem) = (Peak::NONE, Peak::NONE);
        }
        self.occupied.fill(0);
    }
}

/// Outcome of a [`SchedCluster::tightest_fit`] capacity query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CapacityFit {
    /// The feasible machine minimising `(capacity_bucket(free_cpu), id)`.
    Fit(MachineId),
    /// Constraint-suitable machines exist, but none has room right now.
    NoCapacity,
    /// No machine satisfies the constraints at all.
    Infeasible,
}

/// The machine side of a cluster, shared copy-on-write between clones
/// (see "Sharing" in the module docs).
#[derive(Clone, Debug, Default)]
struct Fleet {
    /// `MachineId → slot`, consulted once per id-keyed call. An id keeps
    /// its slot for good, parked or vacant included.
    slot_of: IdMap<MachineId, u32>,
    /// Slot → rank: the slot's position in id order among every slot.
    rank_of: Vec<u32>,
    /// Rank → slot, the inverse of `rank_of`.
    slot_at: Vec<u32>,
    /// The machine in each slot.
    machines: Vec<Machine>,
    /// Keyed by slot, online machines only.
    index: AttrIndex,
}

/// The scheduler's view of the cluster: trace machines plus usage, in a
/// slot-indexed table (see the module docs). An inverted [`AttrIndex`]
/// mirrors the fleet so per-task suitability queries in the placement
/// loop scale with the candidate set instead of the cluster size, and a
/// bucketed capacity index keeps machines ordered by free capacity so
/// best-fit resolves without scanning every suitable candidate (the
/// Fig. 3 simulation at 100k+ machines). Clones share the machine table
/// and the attribute index until one of them changes its fleet.
#[derive(Clone, Debug)]
pub struct SchedCluster {
    /// Written only through [`SchedCluster::fleet_mut`].
    fleet: Arc<Fleet>,
    hot: Vec<Hot>,
    slots: Vec<Slot>,
    /// Machines online.
    online: usize,
    cap: CapacityIndex,
    /// Fleet-wide CPU capacity / usage, maintained incrementally so
    /// [`SchedCluster::cpu_utilisation`] is O(1) and a pure function of
    /// the operation history: float addition is not associative, so a
    /// fold over the table would round differently from the sums the
    /// reports were recorded with — a reading near a threshold (the
    /// autoscaler's `down_util`) would flip.
    cpu_capacity_total: f64,
    cpu_used_total: f64,
}

impl Default for SchedCluster {
    /// Empty cluster. Every empty cluster shares one empty fleet, so one
    /// costs no allocation (what `mem::take` leaves behind) until it
    /// gains a machine.
    fn default() -> Self {
        static EMPTY: LazyLock<Arc<Fleet>> = LazyLock::new(Arc::default);
        Self {
            fleet: Arc::clone(&EMPTY),
            hot: Vec::new(),
            slots: Vec::new(),
            online: 0,
            cap: CapacityIndex::default(),
            cpu_capacity_total: 0.0,
            cpu_used_total: 0.0,
        }
    }
}

impl SchedCluster {
    /// Empty cluster.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from a machine list.
    pub fn from_machines(machines: impl IntoIterator<Item = Machine>) -> Self {
        let machines = machines.into_iter();
        let mut c = Self::new();
        let n = machines.size_hint().0;
        let fleet = c.fleet_mut();
        fleet.slot_of.reserve(n);
        fleet.rank_of.reserve(n);
        fleet.slot_at.reserve(n);
        fleet.machines.reserve(n);
        c.hot.reserve(n);
        c.slots.reserve(n);
        let mut in_order = true;
        for m in machines {
            in_order &= c.add_at_next_rank(m);
        }
        if !in_order {
            c.rerank();
        }
        c
    }

    /// The fleet, for writing: copied first when another clone shares
    /// it. The only place the fleet is written through.
    fn fleet_mut(&mut self) -> &mut Fleet {
        Arc::make_mut(&mut self.fleet)
    }

    /// The slot of a known machine, whatever its state.
    fn slot(&self, id: MachineId) -> Option<usize> {
        self.fleet.slot_of.get(&id).map(|&s| s as usize)
    }

    /// The slot of an online machine.
    fn online_slot(&self, id: MachineId) -> Option<usize> {
        self.slot(id)
            .filter(|&s| self.slots[s].state == State::Online)
    }

    fn view_at(&self, slot: usize) -> MachineView<'_> {
        MachineView {
            hot: &self.hot[slot],
            slot: &self.slots[slot],
        }
    }

    /// The view of an online machine, for the id-keyed getters.
    ///
    /// # Panics
    /// Panics when `id` is not online.
    fn view(&self, id: MachineId) -> MachineView<'_> {
        match self.online_slot(id) {
            Some(s) => self.view_at(s),
            None => panic!("machine {id} is not online"),
        }
    }

    /// Puts the (empty) machine in `slot` into the fleet: both indexes
    /// and the fleet totals.
    fn bring_online(&mut self, slot: usize) {
        let fleet = self.fleet_mut();
        let m = &fleet.machines[slot];
        fleet.index.add_keyed(slot as u64, m);
        let (id, cpu, memory) = (m.id, m.cpu, m.memory);
        self.hot[slot] = Hot {
            id,
            free_cpu: cpu,
            free_mem: memory,
        };
        self.cpu_capacity_total += cpu;
        self.cap.insert(&self.hot, &self.fleet, slot);
        self.slots[slot].state = State::Online;
        self.online += 1;
    }

    /// Takes the online machine in `slot` out of both indexes and the
    /// fleet totals and zeroes its usage; the caller settles its task
    /// list and its new state.
    fn take_down(&mut self, slot: usize) {
        self.fleet_mut().index.remove_machine(slot as u64);
        self.cap.remove(&self.hot, &self.fleet, slot);
        let s = &mut self.slots[slot];
        self.cpu_capacity_total -= self.fleet.machines[slot].cpu;
        self.cpu_used_total -= s.cpu_used;
        (s.cpu_used, s.mem_used) = (0.0, 0.0);
        self.online -= 1;
    }

    /// Adds a machine.
    pub fn add_machine(&mut self, m: Machine) {
        if !self.add_at_next_rank(m) {
            self.sink_last_rank();
        }
    }

    /// [`add_machine`](Self::add_machine), except that a new id takes the
    /// next rank even when that breaks id order. Returns false when it
    /// did (the id is below the last-ranked one): the caller then owes a
    /// [`sink_last_rank`](Self::sink_last_rank) or a
    /// [`rerank`](Self::rerank).
    fn add_at_next_rank(&mut self, m: Machine) -> bool {
        let (slot, in_order) = match self.slot(m.id) {
            // A re-add under the same id supersedes the live machine and
            // its reservations, or the parked copy a later restore would
            // otherwise bring back over it.
            Some(slot) => {
                if self.slots[slot].state == State::Online {
                    self.take_down(slot);
                    self.slots[slot].tasks.clear();
                }
                self.fleet_mut().machines[slot] = m;
                (slot, true)
            }
            None => {
                let slot = self.slots.len();
                let handle = u32::try_from(slot).expect("fewer than 2^32 machines");
                let last = self.fleet.slot_at.last();
                let in_order = last.is_none_or(|&s| self.hot[s as usize].id < m.id);
                self.hot.push(Hot {
                    id: m.id,
                    free_cpu: m.cpu,
                    free_mem: m.memory,
                });
                self.slots.push(Slot {
                    cpu_used: 0.0,
                    mem_used: 0.0,
                    tasks: Vec::new(),
                    state: State::Vacant,
                });
                let fleet = self.fleet_mut();
                fleet.slot_of.insert(m.id, handle);
                fleet.rank_of.push(handle);
                fleet.slot_at.push(handle);
                fleet.machines.push(m);
                (slot, in_order)
            }
        };
        self.bring_online(slot);
        in_order
    }

    /// Moves the last-ranked machine, online and just joined below the
    /// largest known id, down to its rank in id order, and every machine
    /// it passes up one rank, their bits with them. Bucket membership is
    /// unchanged, so the bounds hold. A join costs the ranks it passes,
    /// where a [`rerank`](Self::rerank) would cost the whole fleet.
    fn sink_last_rank(&mut self) {
        let f = &self.fleet;
        let last = f.slot_at.len() - 1;
        let id = f.machines[f.slot_at[last] as usize].id;
        let to = f.slot_at[..last].partition_point(|&s| f.machines[s as usize].id < id);
        let Fleet {
            rank_of, slot_at, ..
        } = self.fleet_mut();
        slot_at[to..].rotate_right(1);
        for (rank, &s) in slot_at.iter().enumerate().skip(to) {
            rank_of[s as usize] = rank as u32;
        }
        // Out of the last rank first, then from the top down, so every
        // bit moves into a rank just vacated.
        let (hot, slot_at) = (&self.hot, &self.fleet.slot_at);
        let bucket = |rank: usize| capacity_bucket(hot[slot_at[rank] as usize].free_cpu);
        self.cap.buckets[bucket(to)].remove(last as u32);
        for rank in (to + 1..=last).rev() {
            if self.slots[slot_at[rank] as usize].state == State::Online {
                let b = &mut self.cap.buckets[bucket(rank)];
                b.remove(rank as u32 - 1);
                b.insert(rank as u32);
            }
        }
        self.cap.buckets[bucket(to)].insert(to as u32);
    }

    /// Puts the ranks back in id order and refiles every online machine
    /// at its new rank: one sort and one pass over the table, for
    /// [`from_machines`](Self::from_machines) after its last machine.
    fn rerank(&mut self) {
        let Fleet {
            machines,
            rank_of,
            slot_at,
            ..
        } = self.fleet_mut();
        slot_at.sort_unstable_by_key(|&s| machines[s as usize].id);
        for (rank, &s) in slot_at.iter().enumerate() {
            rank_of[s as usize] = rank as u32;
        }
        self.cap.clear();
        for slot in 0..self.slots.len() {
            if self.slots[slot].state == State::Online {
                self.cap.insert(&self.hot, &self.fleet, slot);
            }
        }
    }

    /// Takes a machine offline (churn / failure). The machine's running
    /// tasks are returned as `(task, cpu, memory, priority)`, sorted by
    /// task id, so the engine can requeue them; the machine itself is
    /// parked for [`SchedCluster::restore_machine`] to bring back.
    /// Returns `None` for machines that are not online.
    pub fn remove_machine(&mut self, id: MachineId) -> Option<Vec<(TaskId, f64, f64, u8)>> {
        let slot = self.online_slot(id)?;
        self.take_down(slot);
        let s = &mut self.slots[slot];
        s.state = State::Parked;
        // A copy (which allocates only when there are tasks): the slot
        // keeps its buffer for when the machine rejoins.
        let mut evicted = s.tasks.clone();
        s.tasks.clear();
        evicted.sort_unstable_by_key(|&(t, ..)| t);
        Some(evicted)
    }

    /// Takes a *parked* (drained) machine out of the cluster entirely —
    /// the decommission half of the autoscaler's scale-down path: after
    /// [`SchedCluster::remove_machine`] requeued its tasks, the owner
    /// takes the machine value and decides whether it re-enters as warm
    /// standby or is gone for good. A taken machine cannot be restored:
    /// its id comes back only through [`SchedCluster::add_machine`].
    /// Returns `None` when the machine is not parked.
    pub fn take_offline(&mut self, id: MachineId) -> Option<Machine> {
        let slot = self.slot(id)?;
        let s = &mut self.slots[slot];
        if s.state != State::Parked {
            return None;
        }
        s.state = State::Vacant;
        Some(std::mem::replace(
            &mut self.fleet_mut().machines[slot],
            Machine::new(id, 0.0, 0.0),
        ))
    }

    /// Online machine ids ordered by free CPU, emptiest first
    /// (descending capacity bucket; ascending id within a bucket) —
    /// answered from the maintained capacity ordering. The autoscaler's
    /// scale-down victim order: draining the emptiest machine requeues
    /// the fewest tasks, deterministically.
    pub fn machines_by_free_cpu_desc(&self, out: &mut Vec<MachineId>) {
        out.clear();
        for b in self.cap.buckets.iter().rev() {
            out.extend(
                b.ranks()
                    .map(|r| self.hot[self.fleet.slot_at[r] as usize].id),
            );
        }
    }

    /// Brings a previously drained machine back online (with no load).
    /// Returns true if it was offline.
    pub fn restore_machine(&mut self, id: MachineId) -> bool {
        match self.slot(id) {
            Some(slot) if self.slots[slot].state == State::Parked => {
                self.bring_online(slot);
                true
            }
            _ => false,
        }
    }

    /// Updates one machine attribute in place (None clears it), keeping
    /// the inverted index consistent. Machines currently drained by
    /// churn receive the update on their parked copy, so a rollout that
    /// lands mid-outage is present when they rejoin. Returns true when
    /// the machine is known (online or parked).
    pub fn update_attr(&mut self, id: MachineId, attr: AttrId, value: Option<AttrValue>) -> bool {
        let Some(slot) = self.slot(id) else {
            return false;
        };
        let state = self.slots[slot].state;
        if state == State::Vacant {
            return false;
        }
        let fleet = self.fleet_mut();
        // A parked machine has no index entry to maintain.
        if state == State::Online {
            fleet.index.update_attr(slot as u64, attr, value.as_ref());
        }
        let m = &mut fleet.machines[slot];
        match value {
            Some(v) => {
                m.set_attr(attr, v);
            }
            None => {
                m.remove_attr(attr);
            }
        }
        true
    }

    /// Number of machines.
    pub fn len(&self) -> usize {
        self.online
    }

    /// True when the cluster has no machines.
    pub fn is_empty(&self) -> bool {
        self.online == 0
    }

    /// Free CPU on a machine.
    ///
    /// # Panics
    /// Panics when `id` is not online (never seen, drained or taken).
    pub fn free_cpu(&self, id: MachineId) -> f64 {
        self.view(id).free_cpu()
    }

    /// Free memory on a machine.
    ///
    /// # Panics
    /// Panics when `id` is not online (never seen, drained or taken).
    pub fn free_mem(&self, id: MachineId) -> f64 {
        self.view(id).free_mem()
    }

    /// Machines satisfying the requirements (constraint feasibility only,
    /// not capacity), in ascending id order — the
    /// [`suitable_visit`](Self::suitable_visit) walk, collected and
    /// sorted (the linear reference placer and tests read it).
    pub fn suitable(&self, reqs: &[AttrRequirement]) -> Vec<MachineId> {
        let mut out = Vec::new();
        self.suitable_visit(reqs, |m| {
            out.push(m.id());
            true
        });
        out.sort_unstable();
        out
    }

    /// How many online machines satisfy the requirements (constraint
    /// feasibility only, not capacity) — the ground-truth suitable-node
    /// count, read off the attribute index without allocating (the
    /// online count for an unconstrained task).
    pub fn count_suitable(&self, reqs: &[AttrRequirement]) -> usize {
        self.fleet.index.count_matching(reqs)
    }

    /// Streams every suitable machine to `f` without materialising a
    /// candidate list (visit order unspecified — callers needing an
    /// order track their own min key). `f` returns false to stop early;
    /// the call returns false when stopped.
    pub fn suitable_visit(
        &self,
        reqs: &[AttrRequirement],
        mut f: impl FnMut(MachineView<'_>) -> bool,
    ) -> bool {
        self.fleet
            .index
            .matching_visit(reqs, |slot| f(self.view_at(slot as usize)))
    }

    /// True when the machine can hold the request right now. A machine
    /// that is not online (never seen, drained or taken) holds nothing.
    pub fn fits(&self, id: MachineId, cpu: f64, mem: f64) -> bool {
        self.online_slot(id)
            .is_some_and(|s| self.hot[s].fits(cpu, mem))
    }

    /// Candidate-driven queries win when the constraint set is selective
    /// relative to the fleet; beyond this share of the fleet the
    /// capacity-ordered walk is cheaper.
    const CANDIDATE_DRIVEN_SHARE: usize = 4;

    /// True when the selectivity estimate picks the candidate-driven arm
    /// of [`SchedCluster::tightest_fit`] for this constraint set.
    fn candidate_driven(&self, reqs: &[AttrRequirement]) -> bool {
        !reqs.is_empty()
            && self.fleet.index.selectivity_hint(reqs) * Self::CANDIDATE_DRIVEN_SHARE <= self.online
    }

    /// The feasible machine minimising `(capacity_bucket(free_cpu), id)`
    /// — tightest-fit placement answered from the maintained capacity
    /// ordering, without scanning every suitable candidate, without
    /// allocating and without a hash lookup per machine visited.
    ///
    /// Two strategies, picked by the attribute index's selectivity
    /// estimate: selective constraint sets stream their (few) suitable
    /// candidates and track the min capacity key; loose ones walk the
    /// capacity order upward from the request size and stop at the first
    /// machine that fits and matches. Both compute the same argmin, so
    /// the choice never changes the answer (property-tested against the
    /// retained linear scan in `tests/placement_equivalence.rs`).
    pub fn tightest_fit(&self, reqs: &[AttrRequirement], cpu: f64, mem: f64) -> CapacityFit {
        if self.online == 0 {
            return CapacityFit::Infeasible;
        }
        if self.candidate_driven(reqs) {
            return self.tightest_fit_candidates(reqs, cpu, mem);
        }
        // Capacity-driven: first occupied bucket at or above the request
        // holds the tightest candidates; ranks (so ids) ascend within a
        // bucket, so the first hit is the argmin. A bucket whose bounds
        // rule the request out is passed over unread.
        let mut from = capacity_bucket(cpu);
        while let Some(b) = self.cap.next_occupied(from) {
            let bucket = &self.cap.buckets[b];
            if bucket.cpu.max >= cpu && bucket.mem.max >= mem {
                for r in bucket.ranks() {
                    let s = self.fleet.slot_at[r] as usize;
                    if self.hot[s].fits(cpu, mem) && machine_suitable(&self.fleet.machines[s], reqs)
                    {
                        return CapacityFit::Fit(self.hot[s].id);
                    }
                }
            }
            from = b + 1;
        }
        if reqs.is_empty() || self.fleet.index.matches_any(reqs) {
            CapacityFit::NoCapacity
        } else {
            CapacityFit::Infeasible
        }
    }

    /// The attribute index's candidate-count estimate for a constraint
    /// set — the upper bound on suitable machines the placer's
    /// candidate-driven arm would stream (fleet size for unconstrained
    /// tasks). Cheap and deterministic; the flight recorder stamps it
    /// into placement decision records.
    pub fn candidate_estimate(&self, reqs: &[AttrRequirement]) -> usize {
        if reqs.is_empty() {
            self.online
        } else {
            self.fleet.index.selectivity_hint(reqs).min(self.online)
        }
    }

    /// Which [`SchedCluster::tightest_fit`] arm the selectivity estimate
    /// picks for this constraint set — the plan tag recorded in
    /// placement decision audits.
    pub fn plan_hint(&self, reqs: &[AttrRequirement]) -> &'static str {
        if self.candidate_driven(reqs) {
            "candidate_driven"
        } else {
            "capacity_driven"
        }
    }

    /// Candidate-driven arm of [`SchedCluster::tightest_fit`].
    fn tightest_fit_candidates(&self, reqs: &[AttrRequirement], cpu: f64, mem: f64) -> CapacityFit {
        let mut best: Option<(usize, MachineId)> = None;
        let mut suitable_any = false;
        self.suitable_visit(reqs, |m| {
            suitable_any = true;
            if m.fits(cpu, mem) {
                let key = (capacity_bucket(m.free_cpu()), m.id());
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
            true
        });
        match best {
            Some((_, id)) => CapacityFit::Fit(id),
            None if suitable_any => CapacityFit::NoCapacity,
            None => CapacityFit::Infeasible,
        }
    }

    /// Rewrites the free capacity of the online machine in `slot` from
    /// its usage sums: in place when the capacity bucket is unchanged,
    /// else by moving the slot between buckets.
    fn refile(&mut self, slot: usize) {
        let (m, s) = (&self.fleet.machines[slot], &self.slots[slot]);
        let was = self.hot[slot];
        let now = Hot {
            free_cpu: m.cpu - s.cpu_used,
            free_mem: m.memory - s.mem_used,
            ..was
        };
        let bucket = capacity_bucket(was.free_cpu);
        if bucket == capacity_bucket(now.free_cpu) {
            self.hot[slot] = now;
            let b = &mut self.cap.buckets[bucket];
            b.add_peaks(&now);
            b.forget_peaks(&self.hot, &self.fleet.slot_at, &was);
        } else {
            self.cap.remove(&self.hot, &self.fleet, slot);
            self.hot[slot] = now;
            self.cap.insert(&self.hot, &self.fleet, slot);
        }
    }

    /// Reserves capacity for a task.
    ///
    /// # Panics
    /// Panics if the machine is not online or the reservation does not
    /// fit (callers check `fits`).
    pub fn place(&mut self, id: MachineId, task: TaskId, cpu: f64, mem: f64, priority: u8) {
        let slot = self
            .online_slot(id)
            .expect("placement on an online machine");
        assert!(self.hot[slot].fits(cpu, mem), "placement must fit");
        let s = &mut self.slots[slot];
        debug_assert!(
            s.tasks.iter().all(|t| t.0 != task),
            "task {task} is already on machine {id}"
        );
        s.cpu_used += cpu;
        s.mem_used += mem;
        s.tasks.push((task, cpu, mem, priority));
        self.cpu_used_total += cpu;
        self.refile(slot);
    }

    /// Releases a task's reservation. Returns true if it was present.
    pub fn release(&mut self, id: MachineId, task: TaskId) -> bool {
        let Some(slot) = self.online_slot(id) else {
            return false;
        };
        let s = &mut self.slots[slot];
        let Some(pos) = s.tasks.iter().position(|t| t.0 == task) else {
            return false;
        };
        let (_, cpu, mem, _) = s.tasks.swap_remove(pos);
        s.cpu_used -= cpu;
        s.mem_used -= mem;
        self.cpu_used_total -= cpu;
        self.refile(slot);
        true
    }

    /// One online machine's attribute value.
    #[cfg(test)]
    pub fn machine_attr(&self, id: MachineId, attr: AttrId) -> Option<&AttrValue> {
        self.online_slot(id)
            .and_then(|s| self.fleet.machines[s].attr(attr))
    }

    /// Total CPU utilisation across the cluster (0..1) — answered from
    /// the incrementally maintained fleet totals: O(1), and a pure
    /// function of the operation history.
    pub fn cpu_utilisation(&self) -> f64 {
        if self.cpu_capacity_total == 0.0 {
            0.0
        } else {
            (self.cpu_used_total / self.cpu_capacity_total).max(0.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctlm_trace::AttrValue;

    fn cluster3() -> SchedCluster {
        let mut ms = Vec::new();
        for i in 0..3u64 {
            let mut m = Machine::new(i, 1.0, 1.0);
            m.set_attr(0, AttrValue::Int(i as i64));
            ms.push(m);
        }
        SchedCluster::from_machines(ms)
    }

    #[test]
    fn place_and_release_roundtrip() {
        let mut c = cluster3();
        assert!(c.fits(0, 0.6, 0.6));
        c.place(0, 100, 0.6, 0.6, 5);
        assert!(!c.fits(0, 0.6, 0.6));
        assert!((c.free_cpu(0) - 0.4).abs() < 1e-9);
        assert!(c.release(0, 100));
        assert!(!c.release(0, 100));
        assert!(c.fits(0, 0.6, 0.6));
    }

    #[test]
    fn suitable_filters_by_requirements() {
        use ctlm_data::compaction::collapse;
        use ctlm_trace::{ConstraintOp as Op, TaskConstraint};
        let c = cluster3();
        let reqs = collapse(&[TaskConstraint::new(0, Op::LessThan(2))]).unwrap();
        assert_eq!(c.suitable(&reqs), vec![0, 1]);
    }

    #[test]
    fn preemption_candidates_sorted_by_priority() {
        let mut c = cluster3();
        c.place(1, 10, 0.2, 0.2, 3);
        c.place(1, 11, 0.2, 0.2, 1);
        c.place(1, 12, 0.2, 0.2, 9);
        let mut cands = Vec::new();
        c.view(1).preemption_candidates_into(5, &mut cands);
        assert_eq!(
            cands.iter().map(|&(t, ..)| t).collect::<Vec<_>>(),
            vec![11, 10]
        );
    }

    #[test]
    fn utilisation_tracks_placements() {
        let mut c = cluster3();
        assert_eq!(c.cpu_utilisation(), 0.0);
        c.place(0, 1, 1.0, 0.5, 0);
        assert!((c.cpu_utilisation() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn parked_machines_receive_attr_updates() {
        let mut c = cluster3();
        assert!(c.remove_machine(1).is_some());
        // A rollout landing mid-outage must stick.
        assert!(c.update_attr(1, 0, Some(AttrValue::Int(99))));
        assert!(c.restore_machine(1));
        assert_eq!(c.machine_attr(1, 0), Some(&AttrValue::Int(99)));
        use ctlm_data::compaction::collapse;
        use ctlm_trace::{ConstraintOp as Op, TaskConstraint};
        let reqs =
            collapse(&[TaskConstraint::new(0, Op::Equal(Some(AttrValue::Int(99))))]).unwrap();
        assert_eq!(c.suitable(&reqs), vec![1]);
    }

    #[test]
    fn re_add_supersedes_parked_copy() {
        let mut c = cluster3();
        c.remove_machine(2);
        // The machine rejoins via a fresh add (trace MachineAdd), takes
        // load — a later restore must not clobber it with the stale copy.
        let mut m = Machine::new(2, 1.0, 1.0);
        m.set_attr(0, AttrValue::Int(42));
        c.add_machine(m);
        c.place(2, 7, 0.5, 0.5, 1);
        assert!(!c.restore_machine(2), "no parked copy may remain");
        assert_eq!(c.len(), 3);
        assert_eq!(c.free_cpu(2), 0.5);
        assert_eq!(c.machine_attr(2, 0), Some(&AttrValue::Int(42)));
    }

    #[test]
    #[should_panic(expected = "placement must fit")]
    fn oversized_placement_panics() {
        let mut c = cluster3();
        c.place(0, 1, 1.5, 0.1, 0);
    }

    #[test]
    fn tightest_fit_tracks_load_incrementally() {
        let mut c = cluster3();
        // All machines empty: lowest id wins the full-capacity bucket.
        assert_eq!(c.tightest_fit(&[], 0.2, 0.2), CapacityFit::Fit(0));
        // Load machine 2 to the tightest still-feasible level.
        c.place(2, 10, 0.7, 0.1, 1);
        assert_eq!(c.tightest_fit(&[], 0.2, 0.2), CapacityFit::Fit(2));
        // Memory still gates: machine 2 has CPU room but no memory room.
        c.place(2, 11, 0.0, 0.85, 1);
        assert_eq!(c.tightest_fit(&[], 0.2, 0.2), CapacityFit::Fit(0));
        // Release restores the ordering.
        assert!(c.release(2, 11));
        assert_eq!(c.tightest_fit(&[], 0.2, 0.2), CapacityFit::Fit(2));
    }

    #[test]
    fn tightest_fit_distinguishes_infeasible_from_no_capacity() {
        use ctlm_data::compaction::collapse;
        use ctlm_trace::{ConstraintOp as Op, TaskConstraint};
        let mut c = cluster3();
        let pin = collapse(&[TaskConstraint::new(0, Op::Equal(Some(AttrValue::Int(1))))]).unwrap();
        assert_eq!(c.tightest_fit(&pin, 0.2, 0.2), CapacityFit::Fit(1));
        c.place(1, 10, 0.95, 0.95, 1);
        assert_eq!(c.tightest_fit(&pin, 0.2, 0.2), CapacityFit::NoCapacity);
        let nowhere =
            collapse(&[TaskConstraint::new(0, Op::Equal(Some(AttrValue::Int(99))))]).unwrap();
        assert_eq!(c.tightest_fit(&nowhere, 0.2, 0.2), CapacityFit::Infeasible);
        for i in 0..3u64 {
            if i != 1 {
                c.place(i, 100 + i, 0.95, 0.95, 1);
            }
        }
        assert_eq!(c.tightest_fit(&[], 0.2, 0.2), CapacityFit::NoCapacity);
    }

    #[test]
    fn capacity_index_survives_churn() {
        let mut c = cluster3();
        c.place(0, 10, 0.5, 0.5, 1);
        c.remove_machine(0);
        assert_eq!(c.tightest_fit(&[], 0.9, 0.9), CapacityFit::Fit(1));
        c.restore_machine(0);
        // Restored machines rejoin empty, back in the full bucket.
        assert_eq!(c.tightest_fit(&[], 0.2, 0.2), CapacityFit::Fit(0));
        c.place(1, 11, 0.6, 0.6, 1);
        assert!(c.release(1, 11));
        assert_eq!(c.tightest_fit(&[], 0.2, 0.2), CapacityFit::Fit(0));
        assert_eq!(c.cpu_utilisation(), 0.0);
    }

    #[test]
    fn take_offline_removes_the_parked_copy_for_good() {
        let mut c = cluster3();
        c.remove_machine(1);
        let m = c.take_offline(1).expect("parked machine taken");
        assert_eq!(m.id, 1);
        assert!(!c.restore_machine(1), "taken machines cannot be restored");
        assert_eq!(c.len(), 2);
        assert!(
            c.take_offline(0).is_none(),
            "online machines are not parked"
        );
    }

    #[test]
    fn machines_by_free_cpu_desc_orders_emptiest_first() {
        let mut c = cluster3();
        c.place(0, 10, 0.5, 0.5, 1);
        c.place(2, 11, 0.2, 0.2, 1);
        let mut out = Vec::new();
        c.machines_by_free_cpu_desc(&mut out);
        assert_eq!(out, vec![1, 2, 0], "emptiest first, id-ordered in ties");
        assert!(c.release(0, 10));
        c.machines_by_free_cpu_desc(&mut out);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn a_unit_machine_holds_four_fifth_core_tasks_not_five() {
        // Pinned, not a bug to fix: free capacity is capacity − Σ
        // reservations in f64 and the test is exact, so the fifth 0.2
        // misses by an ulp. Reports and goldens were recorded with it.
        let mut c = SchedCluster::from_machines([Machine::new(0, 1.0, 1.0)]);
        for task in 0..4 {
            assert_eq!(c.tightest_fit(&[], 0.2, 0.2), CapacityFit::Fit(0));
            c.place(0, task, 0.2, 0.2, 1);
        }
        assert_eq!(c.free_cpu(0), 0.19999999999999996);
        assert_eq!(capacity_bucket(c.free_cpu(0)), capacity_bucket(0.2));
        assert!(!c.fits(0, 0.2, 0.2));
        assert_eq!(c.tightest_fit(&[], 0.2, 0.2), CapacityFit::NoCapacity);
        // The near-miss machine does not hide a roomier one further up.
        c.add_machine(Machine::new(1, 1.0, 1.0));
        assert_eq!(c.tightest_fit(&[], 0.2, 0.2), CapacityFit::Fit(1));
    }

    #[test]
    fn nothing_fits_on_a_machine_that_is_not_online() {
        let mut c = cluster3();
        c.place(1, 10, 0.5, 0.5, 1);
        c.remove_machine(1);
        c.remove_machine(2);
        c.take_offline(2);
        for id in [1, 2, 99] {
            assert!(
                !c.fits(id, 0.1, 0.1),
                "machine {id} is drained / taken / unknown"
            );
            assert!(!c.release(id, 10));
            assert_eq!(c.machine_attr(id, 0), None);
        }
        assert!(c.fits(0, 0.1, 0.1));
    }

    #[test]
    #[should_panic(expected = "machine 1 is not online")]
    fn free_cpu_of_a_drained_machine_panics() {
        let mut c = cluster3();
        c.remove_machine(1);
        c.free_cpu(1);
    }

    impl SchedCluster {
        /// Ranks are id order over every slot, and every online
        /// machine is filed once, in the bucket of its `hot` row, at
        /// its rank; every bucket's bounds are the exact maxima with
        /// the exact holder counts.
        fn assert_index_exact(&self) {
            let f = &self.fleet;
            assert_eq!(f.slot_at.len(), self.slots.len());
            for (rank, &s) in f.slot_at.iter().enumerate() {
                assert_eq!(f.rank_of[s as usize] as usize, rank, "rank tables invert");
            }
            assert!(
                f.slot_at
                    .windows(2)
                    .all(|w| f.machines[w[0] as usize].id < f.machines[w[1] as usize].id),
                "ranks in id order"
            );
            let mut filed = 0;
            for (b, bucket) in self.cap.buckets.iter().enumerate() {
                let bit = self.cap.occupied[b / 64] >> (b % 64) & 1 == 1;
                assert_eq!(bit, !bucket.words.is_empty(), "occupancy bit of bucket {b}");
                assert!(
                    bucket.words.windows(2).all(|w| w[0].0 < w[1].0),
                    "bucket {b} word order"
                );
                assert!(
                    bucket.words.iter().all(|&(_, bits)| bits != 0),
                    "bucket {b} zero word"
                );
                let slots: Vec<usize> = bucket.ranks().map(|r| f.slot_at[r] as usize).collect();
                let rows: Vec<Hot> = slots.iter().map(|&s| self.hot[s]).collect();
                for (h, &s) in rows.iter().zip(&slots) {
                    assert_eq!(capacity_bucket(h.free_cpu), b);
                    let (m, slot) = (&f.machines[s], &self.slots[s]);
                    assert_eq!(h.id, m.id);
                    assert_eq!(slot.state, State::Online);
                    assert_eq!(h.free_cpu, m.cpu - slot.cpu_used);
                    assert_eq!(h.free_mem, m.memory - slot.mem_used);
                }
                for (peak, of) in [
                    (bucket.cpu, (|h| h.free_cpu) as fn(&Hot) -> f64),
                    (bucket.mem, |h| h.free_mem),
                ] {
                    let max = rows.iter().map(of).fold(f64::NEG_INFINITY, f64::max);
                    let holders = rows.iter().filter(|h| of(h) == max).count();
                    assert_eq!(
                        (peak.max, peak.holders as usize),
                        (max, holders),
                        "bucket {b}"
                    );
                }
                filed += rows.len();
            }
            assert_eq!(filed, self.online);
        }
    }

    #[test]
    fn bucket_bounds_stay_exact_under_decimal_churn() {
        // Tenths (sums round), a size below a bucket's width (in-place
        // updates) and a memory-bound one, through place / release /
        // drain / restore / re-add.
        let sizes = [(0.2, 0.2), (0.1, 0.3), (0.0005, 0.1), (0.3, 0.1)];
        let mut c = SchedCluster::from_machines((0..6).map(|i| Machine::new(i, 1.0, 1.0)));
        let mut live: Vec<(TaskId, MachineId)> = Vec::new();
        for step in 0..600u64 {
            let (cpu, mem) = sizes[(step % 4) as usize];
            if let CapacityFit::Fit(m) = c.tightest_fit(&[], cpu, mem) {
                c.place(m, step, cpu, mem, 1);
                live.push((step, m));
            }
            c.assert_index_exact();
            if step % 3 == 0 && !live.is_empty() {
                let (task, m) = live.remove((step * 7) as usize % live.len());
                assert!(c.release(m, task));
                c.assert_index_exact();
            }
            let m = step % 6;
            match step % 97 {
                13 => {
                    c.remove_machine(m);
                    live.retain(|&(_, on)| on != m);
                }
                40 => {
                    c.restore_machine(m);
                }
                71 => {
                    c.add_machine(Machine::new(m, 1.0, 1.0));
                    live.retain(|&(_, on)| on != m);
                }
                _ => {}
            }
            c.assert_index_exact();
        }
    }

    #[test]
    fn the_index_stays_exact_when_ids_join_out_of_order() {
        // 150 machines (three rank words) joining in a scrambled id
        // order; then churn that joins new ids below the largest known
        // one, re-adds known ids, drains, restores, and takes a machine
        // offline before its id rejoins. `placement_equivalence.rs`
        // checks what probes answer on such fleets.
        let scrambled = (0..150u64).map(|i| (i * 37 % 151) * 4 + 2);
        let mut c = SchedCluster::from_machines(scrambled.map(|id| Machine::new(id, 1.0, 1.0)));
        c.assert_index_exact();
        let sizes = [(0.2, 0.2), (0.1, 0.3), (0.0005, 0.1), (0.3, 0.1)];
        let mut live: Vec<(TaskId, MachineId)> = Vec::new();
        for step in 0..900u64 {
            let (cpu, mem) = sizes[(step % 4) as usize];
            if let CapacityFit::Fit(m) = c.tightest_fit(&[], cpu, mem) {
                c.place(m, step, cpu, mem, 1);
                live.push((step, m));
            }
            if step % 3 == 0 && !live.is_empty() {
                let (task, m) = live.remove((step * 7) as usize % live.len());
                assert!(c.release(m, task));
            }
            let known = c.hot[(step * 13 % 150) as usize].id;
            match step % 50 {
                // A new id below the largest: it sinks to its rank.
                7 => c.add_machine(Machine::new(step / 50 * 4 + 1, 1.0, 1.0)),
                17 => {
                    c.remove_machine(known);
                }
                23 => c.add_machine(Machine::new(known, 0.5, 2.0)),
                27 => {
                    c.restore_machine(known);
                }
                31 => {
                    c.remove_machine(known);
                    c.take_offline(known);
                }
                // The id taken at step 31 rejoins.
                41 => c.add_machine(Machine::new(
                    c.hot[((step - 10) * 13 % 150) as usize].id,
                    1.0,
                    1.0,
                )),
                _ => {}
            }
            // Drains and re-adds drop what the machine held.
            live.retain(|&(t, m)| {
                c.slot(m)
                    .is_some_and(|s| c.slots[s].tasks.iter().any(|x| x.0 == t))
            });
            c.assert_index_exact();
        }
        assert_eq!(
            c.fleet.slot_at.len(),
            150 + 18,
            "18 ids joined below the largest"
        );
    }

    #[test]
    fn a_clone_never_sees_the_other_sides_fleet_changes() {
        use ctlm_data::compaction::collapse;
        use ctlm_trace::{ConstraintOp as Op, TaskConstraint};
        let pin = |v| collapse(&[TaskConstraint::new(0, Op::Equal(Some(AttrValue::Int(v))))]);
        let low = collapse(&[TaskConstraint::new(0, Op::LessThan(2))]).unwrap();
        let (pin2, pin99) = (pin(2).unwrap(), pin(99).unwrap());
        // Everything a reader of the untouched side can ask.
        let seen = |c: &SchedCluster| {
            (
                [c.suitable(&low), c.suitable(&pin2), c.suitable(&pin99)],
                [
                    c.tightest_fit(&[], 0.5, 0.5),
                    c.tightest_fit(&pin2, 0.5, 0.5),
                    c.tightest_fit(&pin99, 0.1, 0.1),
                ],
                (0..5)
                    .map(|id| c.machine_attr(id, 0).cloned())
                    .collect::<Vec<_>>(),
                c.len(),
                c.cpu_utilisation(),
            )
        };
        for change_the_clone in [true, false] {
            let mut original = cluster3();
            original.place(1, 50, 0.3, 0.3, 2);
            let mut clone = original.clone();
            assert!(
                Arc::ptr_eq(&original.fleet, &clone.fleet),
                "a clone shares the fleet"
            );
            let (changed, untouched) = if change_the_clone {
                (&mut clone, &mut original)
            } else {
                (&mut original, &mut clone)
            };
            let before = seen(untouched);
            assert!(changed.update_attr(1, 0, Some(AttrValue::Int(99))));
            assert_eq!(changed.remove_machine(1), Some(vec![(50, 0.3, 0.3, 2)]));
            assert!(changed.restore_machine(1));
            let mut m = Machine::new(3, 1.0, 1.0);
            m.set_attr(0, AttrValue::Int(3));
            changed.add_machine(m);
            let mut m = Machine::new(0, 1.0, 1.0);
            m.set_attr(0, AttrValue::Int(7));
            changed.add_machine(m);
            assert!(changed.remove_machine(2).is_some());
            assert!(changed.take_offline(2).is_some());
            changed.place(3, 60, 0.6, 0.6, 1);
            changed.place(1, 61, 0.2, 0.2, 1);

            assert!(!Arc::ptr_eq(&changed.fleet, &untouched.fleet));
            assert_eq!(
                seen(untouched),
                before,
                "change_the_clone: {change_the_clone}"
            );
            untouched.assert_index_exact();
            changed.assert_index_exact();
            // The changed side sees its own changes.
            assert_eq!(changed.suitable(&pin99), vec![1]);
            assert_eq!(changed.suitable(&pin2), Vec::<MachineId>::new());
            assert_eq!(changed.machine_attr(0, 0), Some(&AttrValue::Int(7)));
            assert_eq!(changed.len(), 3);
            // And the untouched side still works on its own fleet.
            untouched.place(2, 70, 0.5, 0.5, 1);
            assert_eq!(untouched.tightest_fit(&pin2, 0.5, 0.5), CapacityFit::Fit(2));
            assert_eq!(
                changed.tightest_fit(&pin2, 0.1, 0.1),
                CapacityFit::Infeasible
            );
        }
    }

    #[test]
    fn suitable_visit_streams_the_materialised_set() {
        use ctlm_data::compaction::collapse;
        use ctlm_trace::{ConstraintOp as Op, TaskConstraint};
        let c = cluster3();
        let reqs = collapse(&[TaskConstraint::new(0, Op::LessThan(2))]).unwrap();
        let mut seen = Vec::new();
        assert!(c.suitable_visit(&reqs, |m| {
            seen.push(m.id());
            true
        }));
        seen.sort_unstable();
        assert_eq!(seen, c.suitable(&reqs));
    }
}

//! Inverted attribute index for constraint matching.
//!
//! `count_suitable` is the AGOCS hot loop: every constrained task asks
//! "how many machines satisfy these requirements" against the whole
//! cluster, and the seed implementation re-scanned every machine per
//! task. This index inverts the cluster. A query walks the postings of
//! its most selective requirement — equality and range postings are
//! usually tiny — and verifies the remaining requirements by reading
//! each candidate's value out of a key-indexed table, so matching cost
//! scales with the answer size rather than the cluster size. There is
//! one such walk, [`AttrIndex::matching_visit`]; counting, existence and
//! the sorted list are all folds over it. All-negative queries
//! (not-present / not-equal only) still walk the full machine set once,
//! exactly like the linear scan they replace.
//!
//! ## Keys
//!
//! The index addresses machines by a **key**: a dense handle its owner
//! hands out, below 2³² and close to 0, because every per-key table is
//! as long as the largest key. `ctlm_sched::SchedCluster` keys it by
//! machine-table slot and [`ClusterState`](crate::state::ClusterState)
//! by a row per live machine (see [`AttrIndex::add_keyed`]);
//! [`AttrIndex::add_machine`] keys by the machine's own id, for fleets
//! whose ids are already dense (generated traces number machines from
//! 0).
//!
//! ## Layout
//!
//! * `all` — a bitset over keys: the indexed machines.
//! * Per attribute, sorted by attribute id:
//!   * `present` — a bitset over keys: the machines defining it;
//!   * `values` — each distinct value once, with its **posting**, the
//!     keys holding it: inline while one key does, else a sorted key
//!     list;
//!   * `by_value` — the `values` rows by hash of their value, so an
//!     equality query finds its posting in one probe or two at any
//!     fleet size;
//!   * `ints` — the rows of integer values in ascending value order, so
//!     a range query is one run of it. An integer is posted once, in
//!     its row, which both tables name;
//!   * `value_of` — key → row in `values`, the re-check table.
//!
//! A machine joining adds a bit to `all` and to `present`, a `u32` to
//! `value_of`, and a key to a posting; a value seen for the first time
//! adds a row to `values`, to `by_value` and (an integer) to `ints`.
//! Every one of those is a slot in a table that grows by doubling, so
//! building *n* machines allocates O(log *n*) times, not O(*n*). A value
//! whose last machine leaves keeps its row (a drained machine's restore
//! finds it, and allocates nothing) until such rows outnumber both the
//! live ones and 64; then the tables are compacted in place.
//!
//! A machine with one attribute of a value no other machine holds — the
//! synthetic fleets' pin — costs 4 bytes of `value_of`, a quarter byte
//! of bitsets, a 48-byte row, 4 bytes of `ints` and 8 to 16 of
//! `by_value`: ≈ 70 bytes before the tables' doubling slack.
//!
//! The index is maintained incrementally by its owners on machine
//! add/remove and attribute updates; `tests/index_properties.rs` pins
//! it to the retained linear scan over randomized clusters, constraint
//! sets and churn.

use ctlm_data::compaction::{AttrRequirement, Presence};
use ctlm_trace::{AttrId, AttrValue, Machine, MachineId};

/// `value_of`'s entry for a key that holds no value of the attribute.
const ABSENT: u32 = u32::MAX;

/// Vacant `values` rows are kept until they outnumber both the live
/// rows and this many.
const VACANT_SLACK: usize = 64;

/// An index key as the tables address it.
///
/// # Panics
/// Panics when the key is not below 2³² (keys are dense handles).
fn key32(key: MachineId) -> u32 {
    u32::try_from(key).expect("attribute index keys are dense handles below 2^32")
}

/// A set of keys: a bitset over the key space, with its size.
#[derive(Clone, Debug, Default)]
struct KeySet {
    words: Vec<u64>,
    len: usize,
}

impl KeySet {
    /// Adds `k`; false when it was already there.
    fn insert(&mut self, k: u32) -> bool {
        let w = k as usize / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let bit = 1 << (k % 64);
        let fresh = self.words[w] & bit == 0;
        self.words[w] |= bit;
        self.len += usize::from(fresh);
        fresh
    }

    /// Removes `k`; false when it was not there.
    fn remove(&mut self, k: u32) -> bool {
        let Some(word) = self.words.get_mut(k as usize / 64) else {
            return false;
        };
        let bit = 1 << (k % 64);
        let held = *word & bit != 0;
        *word &= !bit;
        self.len -= usize::from(held);
        held
    }

    /// Streams the keys in this set and not in `minus`, ascending;
    /// returns false if `f` stopped the walk.
    fn visit_minus(&self, minus: Option<&KeySet>, f: &mut impl FnMut(u32) -> bool) -> bool {
        for (i, &word) in self.words.iter().enumerate() {
            let mut bits = word & !minus.and_then(|m| m.words.get(i)).map_or(0, |&w| w);
            while bits != 0 {
                if !f(i as u32 * 64 + bits.trailing_zeros()) {
                    return false;
                }
                bits &= bits - 1;
            }
        }
        true
    }
}

/// The keys holding one value: inline while one key does, else a
/// sorted list. A list that empties keeps its buffer, so the keys
/// coming back allocate nothing.
#[derive(Clone, Debug)]
enum Posting {
    One(u32),
    Many(Vec<u32>),
}

impl Posting {
    fn keys(&self) -> &[u32] {
        match self {
            Posting::One(k) => std::slice::from_ref(k),
            Posting::Many(keys) => keys,
        }
    }

    fn insert(&mut self, k: u32) {
        match self {
            Posting::Many(keys) if keys.capacity() == 0 => *self = Posting::One(k),
            Posting::Many(keys) => {
                let at = keys.partition_point(|&x| x < k);
                keys.insert(at, k);
            }
            Posting::One(held) => {
                let held = *held;
                *self = Posting::Many(if held < k {
                    vec![held, k]
                } else {
                    vec![k, held]
                });
            }
        }
    }

    /// Removes `k`, which must hold this value.
    fn remove(&mut self, k: u32) {
        match self {
            Posting::One(held) => {
                debug_assert_eq!(*held, k);
                *self = Posting::Many(Vec::new());
            }
            Posting::Many(keys) => {
                let at = keys.binary_search(&k).expect("key holds this value");
                keys.remove(at);
            }
        }
    }
}

/// The row table's hash of a value: the integer itself, or the string's
/// FNV-1a, through splitmix64's finalizer so that sequential integers
/// spread over every bit the table reads.
fn hash_of(value: &AttrValue) -> u64 {
    let mut x = match value {
        AttrValue::Int(n) => *n as u64,
        AttrValue::Str(s) => s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        }),
    };
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// `values` rows by their value's hash — open addressing with linear
/// probing, at most half full — so finding a value is a hash and a
/// probe or two at any table size. A row leaves only when the table is
/// compacted, which rebuilds this one too, so there are no tombstones.
#[derive(Clone, Debug, Default)]
struct RowTable {
    /// A power of two long; [`ABSENT`] marks a free slot.
    slots: Vec<u32>,
}

impl RowTable {
    /// The first slot to probe for `value`: the hash's top bits.
    fn start(&self, value: &AttrValue) -> usize {
        (hash_of(value) >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// The row holding `value`.
    fn find(&self, values: &[(AttrValue, Posting)], value: &AttrValue) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.start(value);
        loop {
            match self.slots[i] {
                ABSENT => return None,
                row if values[row as usize].0 == *value => return Some(row),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Files `row`, whose value no other row holds.
    fn file(&mut self, values: &[(AttrValue, Posting)], row: u32) {
        let mask = self.slots.len() - 1;
        let mut i = self.start(&values[row as usize].0);
        while self.slots[i] != ABSENT {
            i = (i + 1) & mask;
        }
        self.slots[i] = row;
    }

    /// Files every row afresh, doubling the slots first when `values`
    /// fills more than half of them.
    fn rebuild(&mut self, values: &[(AttrValue, Posting)]) {
        let len = (values.len() * 2).next_power_of_two().max(self.slots.len());
        self.slots.clear();
        self.slots.resize(len, ABSENT);
        for row in 0..values.len() as u32 {
            self.file(values, row);
        }
    }
}

/// One attribute's postings. See "Layout" in the module docs.
#[derive(Clone, Debug, Default)]
struct AttrPostings {
    /// Keys that define the attribute.
    present: KeySet,
    /// Key → its value's row in `values`; [`ABSENT`] when it has none.
    value_of: Vec<u32>,
    /// Each distinct value once, with the keys holding it. A row whose
    /// posting is empty is *vacant*.
    values: Vec<(AttrValue, Posting)>,
    /// `values` rows by value, for equality.
    by_value: RowTable,
    /// The rows of integer values, in ascending value order, for ranges.
    ints: Vec<u32>,
    /// Number of vacant rows.
    vacant: usize,
}

impl AttrPostings {
    /// The value key `k` holds.
    fn value_at(&self, k: u32) -> Option<&AttrValue> {
        match self.value_of.get(k as usize) {
            Some(&row) if row != ABSENT => Some(&self.values[row as usize].0),
            _ => None,
        }
    }

    /// The keys holding `value`.
    fn keys_of(&self, value: &AttrValue) -> &[u32] {
        match self.by_value.find(&self.values, value) {
            Some(row) => self.values[row as usize].1.keys(),
            None => &[],
        }
    }

    /// The rows of the integers in `[lo, hi]`, ascending.
    fn int_rows(&self, lo: i64, hi: i64) -> &[u32] {
        let int = |row: &u32| self.values[*row as usize].0.as_int();
        let start = self.ints.partition_point(|r| int(r) < Some(lo));
        let end = self.ints.partition_point(|r| int(r) <= Some(hi));
        &self.ints[start..end.max(start)]
    }

    fn insert(&mut self, k: u32, value: &AttrValue) {
        let row = match self.by_value.find(&self.values, value) {
            Some(row) => {
                let posting = &mut self.values[row as usize].1;
                if posting.keys().is_empty() {
                    self.vacant -= 1;
                }
                posting.insert(k);
                row
            }
            None => {
                let row = u32::try_from(self.values.len()).expect("fewer than 2^32 values");
                self.values.push((value.clone(), Posting::One(k)));
                if self.values.len() * 2 > self.by_value.slots.len() {
                    self.by_value.rebuild(&self.values);
                } else {
                    self.by_value.file(&self.values, row);
                }
                if let Some(n) = value.as_int() {
                    let values = &self.values;
                    let at = self
                        .ints
                        .partition_point(|&r| values[r as usize].0.as_int() < Some(n));
                    self.ints.insert(at, row);
                }
                row
            }
        };
        if self.value_of.len() <= k as usize {
            self.value_of.resize(k as usize + 1, ABSENT);
        }
        self.value_of[k as usize] = row;
        self.present.insert(k);
    }

    fn remove(&mut self, k: u32) {
        let Some(slot) = self.value_of.get_mut(k as usize) else {
            return;
        };
        let row = std::mem::replace(slot, ABSENT);
        if row == ABSENT {
            return;
        }
        self.present.remove(k);
        let posting = &mut self.values[row as usize].1;
        posting.remove(k);
        if posting.keys().is_empty() {
            self.vacant += 1;
            if self.vacant > (self.values.len() - self.vacant).max(VACANT_SLACK) {
                self.compact();
            }
        }
    }

    /// Drops the vacant rows in place. The live rows keep their relative
    /// place, so `ints` stays sorted; a row that moves re-points its
    /// keys' `value_of` entries.
    fn compact(&mut self) {
        let mut next = 0u32;
        for (row, (_, posting)) in self.values.iter().enumerate() {
            if posting.keys().is_empty() {
                continue;
            }
            if row as u32 != next {
                for &k in posting.keys() {
                    self.value_of[k as usize] = next;
                }
            }
            next += 1;
        }
        // A live row's new number is now what its first key points at.
        let (values, value_of) = (&self.values, &self.value_of);
        self.ints
            .retain_mut(|row| match values[*row as usize].1.keys().first() {
                Some(&k) => {
                    *row = value_of[k as usize];
                    true
                }
                None => false,
            });
        self.values
            .retain(|(_, posting)| !posting.keys().is_empty());
        self.by_value.rebuild(&self.values);
        self.vacant = 0;
    }
}

/// Streams `keys` to `f` as machine keys; false if `f` stopped.
fn visit_keys(keys: &[u32], f: &mut impl FnMut(MachineId) -> bool) -> bool {
    keys.iter().all(|&k| f(MachineId::from(k)))
}

/// The inverted index over a live cluster. See the module docs.
#[derive(Clone, Debug, Default)]
pub struct AttrIndex {
    all: KeySet,
    /// Sorted by attribute id.
    attrs: Vec<(AttrId, AttrPostings)>,
}

impl AttrIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of indexed machines.
    pub fn machine_count(&self) -> usize {
        self.all.len
    }

    /// Indexes a machine's attributes under its own id, which must be a
    /// dense key (see "Keys" in the module docs). The machine must not
    /// already be indexed (callers re-indexing an id remove it first).
    pub fn add_machine(&mut self, m: &Machine) {
        self.add_keyed(m.id, m);
    }

    /// [`AttrIndex::add_machine`] under `key` instead of the machine's
    /// own id — for an owner that addresses machines by a dense handle
    /// of its own (`ctlm_sched::SchedCluster` keys the index by table
    /// slot, so a query's answer indexes its table without a lookup).
    /// Every other call then takes and yields that key.
    pub fn add_keyed(&mut self, key: MachineId, m: &Machine) {
        let k = key32(key);
        let fresh = self.all.insert(k);
        debug_assert!(fresh, "machine {key} double-indexed");
        for (attr, value) in &m.attributes {
            self.postings_mut(*attr).insert(k, value);
        }
    }

    /// Removes a machine from every posting.
    pub fn remove_machine(&mut self, id: MachineId) {
        let Ok(k) = u32::try_from(id) else { return };
        if !self.all.remove(k) {
            return;
        }
        for (_, postings) in &mut self.attrs {
            postings.remove(k);
        }
    }

    /// Applies one attribute update (`None` clears the attribute).
    pub fn update_attr(&mut self, id: MachineId, attr: AttrId, value: Option<&AttrValue>) {
        let k = key32(id);
        let postings = self.postings_mut(attr);
        postings.remove(k);
        if let Some(v) = value {
            postings.insert(k, v);
        }
    }

    fn postings(&self, attr: AttrId) -> Option<&AttrPostings> {
        self.attrs
            .binary_search_by_key(&attr, |(a, _)| *a)
            .ok()
            .map(|i| &self.attrs[i].1)
    }

    fn postings_mut(&mut self, attr: AttrId) -> &mut AttrPostings {
        let i = match self.attrs.binary_search_by_key(&attr, |(a, _)| *a) {
            Ok(i) => i,
            Err(i) => {
                self.attrs.insert(i, (attr, AttrPostings::default()));
                i
            }
        };
        &mut self.attrs[i].1
    }

    /// The attribute state the index holds for `(key, attr)`.
    fn state_of(&self, key: MachineId, attr: AttrId) -> Option<&AttrValue> {
        let k = u32::try_from(key).ok()?;
        self.postings(attr).and_then(|p| p.value_at(k))
    }

    /// Estimated candidate count for one requirement (cheap, used to pick
    /// the seed requirement for a query).
    fn selectivity(&self, req: &AttrRequirement) -> usize {
        let Some(postings) = self.postings(req.attr) else {
            // Unindexed attribute: no machine defines it.
            return match req.presence {
                Presence::Forbidden => self.all.len,
                _ if req.equal.is_none() && req.lo.is_none() && req.hi.is_none() => {
                    // Pure exclusions on an undefined attribute match all.
                    self.all.len
                }
                _ => 0,
            };
        };
        if let Some(eq) = &req.equal {
            return postings.keys_of(eq).len();
        }
        if req.lo.is_some() || req.hi.is_some() {
            let lo = req.lo.unwrap_or(i64::MIN);
            let hi = req.hi.unwrap_or(i64::MAX);
            return postings
                .int_rows(lo, hi)
                .iter()
                .map(|&row| postings.values[row as usize].1.keys().len())
                .sum();
        }
        match req.presence {
            Presence::Required => postings.present.len,
            Presence::Forbidden => self.all.len - postings.present.len,
            Presence::Any => self.all.len,
        }
    }

    /// Estimated result size for a requirement set: the candidate count
    /// of its most selective requirement (an upper bound on the true
    /// match count). Callers use it to pick between candidate-driven and
    /// state-driven query plans.
    pub fn selectivity_hint(&self, reqs: &[AttrRequirement]) -> usize {
        reqs.iter()
            .map(|r| self.selectivity(r))
            .min()
            .unwrap_or(self.all.len)
    }

    /// True when the machine's indexed attribute state satisfies every
    /// requirement — an O(|reqs|) point query.
    pub fn matches(&self, id: MachineId, reqs: &[AttrRequirement]) -> bool {
        reqs.iter().all(|r| r.accepts(self.state_of(id, r.attr)))
    }

    /// Streams the candidates of one requirement to `f` (unsorted) — the
    /// index's one postings traversal; returns false if `f` stopped the
    /// walk.
    fn candidates_visit(
        &self,
        req: &AttrRequirement,
        f: &mut impl FnMut(MachineId) -> bool,
    ) -> bool {
        let postings = self.postings(req.attr);
        if let Some(eq) = &req.equal {
            return postings.is_none_or(|p| visit_keys(p.keys_of(eq), f));
        }
        if req.lo.is_some() || req.hi.is_some() {
            let Some(p) = postings else { return true };
            let lo = req.lo.unwrap_or(i64::MIN);
            let hi = req.hi.unwrap_or(i64::MAX);
            return p.int_rows(lo, hi).iter().all(|&row| {
                let (value, posting) = &p.values[row as usize];
                req.excluded.contains(value) || visit_keys(posting.keys(), f)
            });
        }
        match req.presence {
            Presence::Required => postings.is_none_or(|p| {
                p.present.visit_minus(None, &mut |k| {
                    p.value_at(k).is_some_and(|v| req.excluded.contains(v)) || f(MachineId::from(k))
                })
            }),
            Presence::Forbidden => self
                .all
                .visit_minus(postings.map(|p| &p.present), &mut |k| f(MachineId::from(k))),
            Presence::Any => self.all.visit_minus(None, &mut |k| {
                postings
                    .and_then(|p| p.value_at(k))
                    .is_some_and(|v| req.excluded.contains(v))
                    || f(MachineId::from(k))
            }),
        }
    }

    /// Streams every machine satisfying the requirements to `f`, without
    /// materialising a candidate list: seeds from the most selective
    /// requirement and verifies the rest per candidate. Every other query
    /// ([`matching`](AttrIndex::matching), [`count_matching`](AttrIndex::count_matching),
    /// [`matches_any`](AttrIndex::matches_any)) is this walk.
    ///
    /// Visit **order is unspecified** (unlike `matching`, candidates are
    /// not sorted); each matching machine is visited exactly once.
    /// `f` returns `false` to stop early; `matching_visit` returns
    /// `false` when it was stopped.
    pub fn matching_visit(
        &self,
        reqs: &[AttrRequirement],
        mut f: impl FnMut(MachineId) -> bool,
    ) -> bool {
        if reqs.is_empty() {
            return self.all.visit_minus(None, &mut |k| f(MachineId::from(k)));
        }
        let seed = match reqs {
            [_] => 0,
            _ => reqs
                .iter()
                .enumerate()
                .min_by_key(|(_, r)| self.selectivity(r))
                .map(|(i, _)| i)
                .expect("non-empty requirements"),
        };
        self.candidates_visit(&reqs[seed], &mut |id| {
            let ok = reqs
                .iter()
                .enumerate()
                .all(|(i, r)| i == seed || r.accepts(self.state_of(id, r.attr)));
            if ok {
                f(id)
            } else {
                true
            }
        })
    }

    /// True when at least one machine satisfies every requirement
    /// (early-exits on the first hit).
    pub fn matches_any(&self, reqs: &[AttrRequirement]) -> bool {
        !self.matching_visit(reqs, |_| false)
    }

    /// Sorted ids of machines satisfying every requirement.
    pub fn matching(&self, reqs: &[AttrRequirement]) -> Vec<MachineId> {
        let mut out = Vec::new();
        self.matching_into(reqs, &mut out);
        out
    }

    /// [`AttrIndex::matching`] into a caller-provided buffer: the
    /// [`matching_visit`](AttrIndex::matching_visit) walk, collected and
    /// sorted.
    pub fn matching_into(&self, reqs: &[AttrRequirement], out: &mut Vec<MachineId>) {
        out.clear();
        self.matching_visit(reqs, |id| {
            out.push(id);
            true
        });
        out.sort_unstable();
    }

    /// Number of machines satisfying every requirement — streamed, so
    /// counting (the AGOCS ground-truth hot loop) never allocates.
    pub fn count_matching(&self, reqs: &[AttrRequirement]) -> usize {
        if reqs.is_empty() {
            return self.all.len;
        }
        let mut n = 0usize;
        self.matching_visit(reqs, |_| {
            n += 1;
            true
        });
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctlm_data::compaction::collapse;
    use ctlm_trace::{ConstraintOp as Op, TaskConstraint};

    fn indexed_cluster() -> (AttrIndex, Vec<Machine>) {
        let mut index = AttrIndex::new();
        let mut machines = Vec::new();
        for i in 0..12u64 {
            let mut m = Machine::new(i, 0.5, 0.5);
            m.set_attr(0, AttrValue::Int(i as i64));
            if i % 2 == 0 {
                m.set_attr(1, AttrValue::Int(1));
            }
            m.set_attr(2, AttrValue::from(["a", "b", "c"][(i % 3) as usize]));
            index.add_machine(&m);
            machines.push(m);
        }
        (index, machines)
    }

    fn reqs(cs: &[TaskConstraint]) -> Vec<AttrRequirement> {
        collapse(cs).unwrap()
    }

    #[test]
    fn equality_and_range_queries_match_scan() {
        let (index, machines) = indexed_cluster();
        for cs in [
            vec![TaskConstraint::new(0, Op::Equal(Some(AttrValue::Int(4))))],
            vec![
                TaskConstraint::new(0, Op::GreaterThanEqual(3)),
                TaskConstraint::new(0, Op::LessThan(9)),
            ],
            vec![TaskConstraint::new(1, Op::Present)],
            vec![TaskConstraint::new(1, Op::NotPresent)],
            vec![TaskConstraint::new(2, Op::NotEqual(AttrValue::from("b")))],
            vec![
                TaskConstraint::new(0, Op::LessThan(8)),
                TaskConstraint::new(1, Op::Present),
                TaskConstraint::new(2, Op::Equal(Some(AttrValue::from("a")))),
            ],
        ] {
            let r = reqs(&cs);
            let scan: Vec<MachineId> = machines
                .iter()
                .filter(|m| r.iter().all(|req| req.accepts(m.attr(req.attr))))
                .map(|m| m.id)
                .collect();
            assert_eq!(index.matching(&r), scan, "constraints {cs:?}");
            assert_eq!(index.count_matching(&r), scan.len());
        }
    }

    #[test]
    fn empty_requirements_match_every_machine() {
        let (index, machines) = indexed_cluster();
        assert_eq!(index.count_matching(&[]), machines.len());
    }

    #[test]
    fn removal_and_update_stay_consistent() {
        let (mut index, _) = indexed_cluster();
        let window = reqs(&[TaskConstraint::new(0, Op::LessThan(6))]);
        assert_eq!(index.count_matching(&window), 6);
        index.remove_machine(3);
        assert_eq!(index.count_matching(&window), 5);
        // Move machine 5's node index out of the window.
        index.update_attr(5, 0, Some(&AttrValue::Int(50)));
        assert_eq!(index.count_matching(&window), 4);
        // Clear it entirely: ranges imply presence, so it cannot match.
        index.update_attr(5, 0, None);
        assert_eq!(index.count_matching(&window), 4);
        assert_eq!(index.machine_count(), 11);
    }

    #[test]
    fn unindexed_attribute_behaves_as_absent_everywhere() {
        let (index, machines) = indexed_cluster();
        let absent = reqs(&[TaskConstraint::new(9, Op::NotPresent)]);
        assert_eq!(index.count_matching(&absent), machines.len());
        let present = reqs(&[TaskConstraint::new(9, Op::Present)]);
        assert_eq!(index.count_matching(&present), 0);
        let excl = reqs(&[TaskConstraint::new(9, Op::NotEqual(AttrValue::Int(1)))]);
        assert_eq!(index.count_matching(&excl), machines.len());
    }

    #[test]
    fn streaming_visit_matches_materialised_set() {
        let (index, _) = indexed_cluster();
        for cs in [
            vec![],
            vec![TaskConstraint::new(0, Op::Equal(Some(AttrValue::Int(4))))],
            vec![
                TaskConstraint::new(0, Op::GreaterThanEqual(3)),
                TaskConstraint::new(0, Op::LessThan(9)),
            ],
            vec![TaskConstraint::new(1, Op::NotPresent)],
            vec![TaskConstraint::new(2, Op::NotEqual(AttrValue::from("b")))],
            vec![
                TaskConstraint::new(0, Op::LessThan(8)),
                TaskConstraint::new(1, Op::Present),
            ],
        ] {
            let r = reqs(&cs);
            let mut streamed = Vec::new();
            let done = index.matching_visit(&r, |id| {
                streamed.push(id);
                true
            });
            assert!(done);
            streamed.sort_unstable();
            assert_eq!(streamed, index.matching(&r), "constraints {cs:?}");
            assert_eq!(index.count_matching(&r), streamed.len());
            for id in 0..12 {
                assert_eq!(
                    index.matches(id, &r),
                    streamed.contains(&id),
                    "point query for {id} under {cs:?}"
                );
            }
        }
    }

    #[test]
    fn streaming_visit_early_exit_stops_the_walk() {
        let (index, _) = indexed_cluster();
        let mut seen = 0;
        let done = index.matching_visit(&[], |_| {
            seen += 1;
            seen < 3
        });
        assert!(!done, "stopped walks report false");
        assert_eq!(seen, 3);
        assert!(index.matches_any(&[]));
        let impossible = reqs(&[TaskConstraint::new(0, Op::Equal(Some(AttrValue::Int(99))))]);
        assert!(!index.matches_any(&impossible));
    }

    #[test]
    fn range_with_interior_exclusion_skips_the_posting() {
        let (index, _) = indexed_cluster();
        // 2 ≤ node < 7 excluding 4 → {2, 3, 5, 6}.
        let r = reqs(&[
            TaskConstraint::new(0, Op::GreaterThanEqual(2)),
            TaskConstraint::new(0, Op::LessThan(7)),
            TaskConstraint::new(0, Op::NotEqual(AttrValue::Int(4))),
        ]);
        assert_eq!(index.matching(&r), vec![2, 3, 5, 6]);
    }

    #[test]
    fn vacant_values_are_compacted_and_queries_stay_exact() {
        // 300 machines, each with a value of its own plus one of three
        // shared ones; removing 250 leaves far more vacant rows than
        // live ones, which compacts the unique attribute's table.
        let machine = |i: u64| {
            Machine::with_attributes(
                i,
                0.5,
                0.5,
                vec![
                    (0, AttrValue::Int(i as i64)),
                    (1, AttrValue::Int(i as i64 % 3)),
                ],
            )
        };
        let mut index = AttrIndex::new();
        let mut live: Vec<Machine> = (0..300).map(machine).collect();
        for m in &live {
            index.add_machine(m);
        }
        for i in (0..300).filter(|i| i % 6 != 0) {
            index.remove_machine(i);
        }
        live.retain(|m| m.id % 6 == 0);
        let unique = &index.attrs[0].1;
        assert!(unique.values.len() < 300, "vacant rows were dropped");
        assert!(unique.vacant <= VACANT_SLACK);
        // Bring some back (new rows) and move a value between postings.
        for i in [7, 13, 299] {
            index.add_machine(&machine(i));
            live.push(machine(i));
        }
        index.update_attr(13, 1, Some(&AttrValue::Int(2)));
        live.iter_mut()
            .filter(|m| m.id == 13)
            .for_each(|m| drop(m.set_attr(1, AttrValue::Int(2))));
        for cs in [
            vec![TaskConstraint::new(0, Op::Equal(Some(AttrValue::Int(12))))],
            vec![TaskConstraint::new(0, Op::Equal(Some(AttrValue::Int(13))))],
            vec![TaskConstraint::new(0, Op::GreaterThanEqual(100))],
            vec![
                TaskConstraint::new(0, Op::LessThan(200)),
                TaskConstraint::new(1, Op::Equal(Some(AttrValue::Int(0)))),
            ],
            vec![TaskConstraint::new(1, Op::NotEqual(AttrValue::Int(2)))],
            vec![TaskConstraint::new(1, Op::Equal(Some(AttrValue::Int(2))))],
        ] {
            let r = reqs(&cs);
            let mut scan: Vec<MachineId> = live
                .iter()
                .filter(|m| r.iter().all(|req| req.accepts(m.attr(req.attr))))
                .map(|m| m.id)
                .collect();
            scan.sort_unstable();
            assert_eq!(index.matching(&r), scan, "constraints {cs:?}");
        }
        assert_eq!(index.machine_count(), live.len());
    }

    #[test]
    fn a_posting_moves_between_one_key_and_many() {
        let mut index = AttrIndex::new();
        let pin = reqs(&[TaskConstraint::new(0, Op::Equal(Some(AttrValue::Int(5))))]);
        for k in 0..3u64 {
            index.add_machine(&Machine::new(k, 1.0, 1.0));
        }
        let seen = |index: &AttrIndex| index.matching(&pin);
        index.update_attr(2, 0, Some(&AttrValue::Int(5)));
        assert_eq!(seen(&index), [2]);
        index.update_attr(0, 0, Some(&AttrValue::Int(5)));
        index.update_attr(1, 0, Some(&AttrValue::Int(5)));
        assert_eq!(seen(&index), [0, 1, 2]);
        index.remove_machine(1);
        index.update_attr(2, 0, None);
        assert_eq!(seen(&index), [0]);
        index.update_attr(0, 0, Some(&AttrValue::Int(6)));
        assert_eq!(seen(&index), Vec::<MachineId>::new());
        index.update_attr(2, 0, Some(&AttrValue::Int(5)));
        assert_eq!(seen(&index), [2]);
    }
}

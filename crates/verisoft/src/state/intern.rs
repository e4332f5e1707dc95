//! Collapse-style component interning.
//!
//! Successive states share almost all of their components via
//! [`CowArc`], yet the visited stores held a full canonical encoding
//! per state — re-serializing and re-storing the same process/object
//! bytes millions of times. A [`ComponentInterner`] assigns a dense
//! `u32` ID to each distinct component *encoding* (one per distinct
//! process state, one per distinct object state), and a state's stored
//! form becomes a compact tuple of varint-coded component IDs
//! ([`GlobalState::fingerprint_and_intern`]) instead of its encoding —
//! typically under a dozen bytes regardless of stack depth or queue
//! contents. Tuple *length* can differ between runs (ID magnitudes are
//! timing-dependent under `--jobs`), which is harmless for the same
//! reason spilling is: stored sizes only drive budget decisions, never
//! the report surface.
//!
//! ## Why ID-tuple equality is state equality
//!
//! The interner is injective *within a run*: `intern` returns equal IDs
//! iff the byte strings are equal, and the encoder itself is injective
//! (see [`super::encode`]). So for two states compressed against the
//! same interner, tuple equality ⟺ componentwise encoding equality ⟺
//! state equality — the stores' collision-safety rule ("the fingerprint
//! nominates, the bytes decide") carries over with the compressed bytes
//! standing in for the raw encoding. IDs are **not** stable across runs
//! (worker timing decides which thread interns a new component first),
//! which is why they never appear in reports and why checkpoints must
//! persist the table: `--resume` reloads the exact ID assignment the
//! interrupted run used ([`ComponentInterner::load`]), reconstructing
//! identical membership.
//!
//! Each interner carries a process-unique nonzero token; the per-
//! allocation memo in [`CowArc`] is tagged with it, so a memo produced
//! against one run's interner can never leak IDs into another run.
//!
//! [`CowArc`]: super::CowArc
//! [`GlobalState`]: super::GlobalState
//! [`GlobalState::fingerprint_and_intern`]: super::GlobalState::fingerprint_and_intern

use super::encode::{
    check_header, decode_obj_state, decode_proc_state, put_header, put_u64, varint_len, ByteReader,
    Encode, INTERN_MAGIC,
};
use super::{CowArc, GlobalState, ObjState, ProcState};
use crate::executor::Executor;
use crate::hash::{mix64, stable_hash_bytes, FpBuildHasher, StableBuildHasher};
use crate::interp::EventOp;
use crate::por::{ProcFacts, ProcView, Schedule};
use crate::report::{MemoStats, ViolationKind};
use crate::search::store::keyset::KeySet;
use cfgir::ObjId;
use std::collections::HashMap;
use std::hash::Hasher;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Lock stripes for the bytes→ID map, mirroring the visited store's
/// striping so concurrent workers interning disjoint components rarely
/// contend.
const STRIPES: usize = 64;

/// Source of process-unique interner tokens (nonzero, so a zeroed memo
/// can never match).
static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

/// How many table entries (and committed file bytes) a checkpoint has
/// already persisted; appends continue from here.
struct PersistCursor {
    entries: u64,
    bytes: u64,
}

/// A concurrent, lock-striped interner of component encodings: dense
/// `u32` IDs, append-only ID→bytes table, crash-safe persistence for
/// checkpoints. See the module docs for the injectivity contract.
pub struct ComponentInterner {
    /// Process-unique tag for per-allocation memos (see [`CowArc`]).
    token: u64,
    /// bytes → id, striped by a stable hash of the bytes.
    stripes: Vec<Mutex<HashMap<Arc<[u8]>, u32>>>,
    /// id → bytes. Appends are serialized by the writer lock (they are
    /// rare: one per *distinct* component); probes by ID take the read
    /// lock only.
    table: RwLock<Vec<Arc<[u8]>>>,
    /// Total bytes across table entries.
    payload: AtomicUsize,
    persisted: Mutex<PersistCursor>,
}

/// Decoded components by interner ID, for
/// [`ComponentInterner::materialize`]: one dense slot vector per
/// component kind (process and object encodings share the ID space but
/// not a decoder), tagged with the token of the interner the entries
/// were decoded under.
///
/// A cache belongs to **one worker**. A table shared between workers
/// would put every `GlobalState::clone` and drop of every worker — one
/// reference-count write per component each — on the same few hundred
/// cache lines; private caches keep that traffic thread-local and make
/// every materialized state private to the worker that built it. The
/// price is one decode per (worker, component), and a size bounded by
/// the interner's own table, which is resident anyway.
#[derive(Debug, Default)]
pub struct ComponentCache {
    /// 0 (no interner's token) until first used.
    token: u64,
    procs: Vec<Option<CowArc<ProcState>>>,
    objects: Vec<Option<CowArc<ObjState>>>,
    /// Scratch for the IDs of the tuple being materialized.
    ids: Vec<u32>,
}

impl ComponentCache {
    /// Empty the cache unless its entries were decoded under `token`.
    fn adopt(&mut self, token: u64) {
        if self.token != token {
            *self = ComponentCache {
                token,
                ..ComponentCache::default()
            };
        }
    }
}

/// Store `comp` as component `id` unless the slot is taken.
fn publish<T: Clone>(slots: &mut Vec<Option<CowArc<T>>>, id: u32, comp: &CowArc<T>) {
    let id = id as usize;
    if slots.len() <= id {
        slots.resize(id + 1, None);
    }
    slots[id].get_or_insert_with(|| comp.clone());
}

/// What a memoised successor needs of one component it does not take
/// from its parent: the ID that goes into the child's tuple, the
/// sub-hash that goes into its fingerprint, and the encoded length that
/// goes into the tuple's leading raw-length varint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Changed {
    pub id: u32,
    pub sub_hash: u64,
    pub len: u32,
}

impl Changed {
    /// Whether this is what `comp` interns to under `interner`: the ID's
    /// bytes are `comp`'s encoding, and the sub-hash and length are that
    /// encoding's. The memo-hit oracle's check of a memoised successor.
    pub(crate) fn denotes<T: Encode>(&self, interner: &ComponentInterner, comp: &T) -> bool {
        let mut bytes = Vec::new();
        comp.encode(&mut bytes);
        interner.get(self.id).is_some_and(|b| *b == bytes[..])
            && self.len as usize == bytes.len()
            && self.sub_hash == stable_hash_bytes(&bytes)
    }
}

/// One outcome of a memoised transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum MemoOutcome {
    /// The transition ends in this violation.
    Violation(ViolationKind),
    /// The successor is its parent with the running process replaced
    /// and, when the leading visible operation wrote its object, that
    /// object too; `event` is the visible operation performed (the
    /// event's process is the one stepped, so it is not recorded).
    State {
        proc: Changed,
        object: Option<Changed>,
        event: Option<EventOp>,
    },
}

/// Everything `Executor::successors` answers for one process of one
/// state, as a function of the two components it reads.
#[derive(Debug, Default)]
pub(crate) struct MemoEntry {
    /// Per outcome, in `successors` order: the choice vector and result.
    pub outcomes: Vec<(Vec<u32>, MemoOutcome)>,
    /// Interpreter executions the enumeration cost (`NeedChoice`
    /// re-runs included): what a hit charges to `ExecCtx::transitions`.
    pub executions: usize,
    /// `ExecCtx::tosses_taken` over the completed outcomes.
    pub tosses_taken: usize,
    /// Components the completed outcomes do not share with the parent,
    /// summed (allocation identity, so a write of an equal value counts).
    pub unshared: usize,
}

/// The state whose transitions are being looked up, as the memo reads
/// it: per component (processes, then objects) the interner ID, the
/// sub-hash and the encoded length, plus the raw encoded length of the
/// whole state. Reused from item to item.
#[derive(Debug, Default, PartialEq, Eq)]
struct ParentView {
    ids: Vec<u32>,
    subs: Vec<u64>,
    lens: Vec<u32>,
    nprocs: usize,
    raw: usize,
}

/// The key of a memo entry: the running process's component ID and the
/// ID of its leading visible operation's object, if any.
pub(crate) type MemoKey = (u32, Option<u32>);

/// A map keyed by [`MemoKey`]s, stored under [`slot`]: a key packed into
/// 64 bits and put through `stablehash`'s invertible mixer, so the
/// pass-through [`FpBuildHasher`] indexes by well-mixed bits and distinct
/// keys keep distinct slots.
type IdMap<V> = HashMap<u64, V, FpBuildHasher>;

/// The slot of `key` in an [`IdMap`]. Interner IDs stay below `u32::MAX`
/// ([`ComponentInterner::intern`]), so `object + 1` fits in the low half
/// and the packing is injective; so is the mixer.
#[inline]
fn slot((proc, object): MemoKey) -> u64 {
    mix64(u64::from(proc) << 32 | object.map_or(0, |o| u64::from(o) + 1))
}

/// A search's memo of `Executor::successors`, keyed on interner IDs
/// (DESIGN §15).
///
/// A transition reads and writes the running process and the object of
/// its leading visible operation, nothing else (§2 of the paper; the
/// interpreter is written so, and every miss checks it), so the whole
/// answer for process `pid` of a state is a function of `(ID of
/// procs[pid], ID of that object | none)`. A state space of hundreds of
/// thousands of states is built from a few hundred components, so almost
/// every lookup after the first levels is a hit, and a hit builds the
/// child's store key from the parent's IDs without a state to clone,
/// mutate, encode, intern or free.
///
/// Beside the entries sits the **facts table** every engine schedules
/// from: per process component ID the [`ProcFacts`] the schedule rules
/// read, and per memo key whether that process is enabled — enabledness
/// reads the process and the object of its next operation, the same two
/// components a transition reads. Equal facts share one *fact class*,
/// and the schedule itself is memoised under each process's class and
/// the enabled bits ([`TransitionMemo::schedule_known`]): the conflict
/// closure runs once per distinct key, a few thousand times on a state
/// space of hundreds of thousands. A cached fact or schedule is as
/// checkable as a cached outcome: debug builds compare every schedule
/// taken from the table with the one the live state gives.
///
/// Like the [`ComponentCache`] it lives beside, a memo belongs to **one
/// worker** (the DFS and the stateless walk are one) for the whole run
/// and is lent to whichever thread runs that worker for a chunk: no lock,
/// no shared cache line, and the recorded IDs mean what they meant
/// because the run has one interner (a memo last used under another
/// interner's token is emptied first, facts included). It is not
/// checkpointed; a resumed run refills it.
#[derive(Default)]
pub(crate) struct TransitionMemo {
    /// 0 (no interner's token) until first used.
    token: u64,
    /// Key → index into `entries`; an entry, once recorded, keeps its
    /// index for the rest of the run.
    index: IdMap<u32>,
    entries: Vec<MemoEntry>,
    /// Fact class by process component ID.
    class_of: Vec<Option<u32>>,
    /// Scheduling facts by fact class, and the class of each.
    classes: Vec<ProcFacts>,
    class_ids: HashMap<ProcFacts, u32, StableBuildHasher>,
    /// Enabledness by memo key.
    enabled: IdMap<bool>,
    /// Schedules by [`TransitionMemo::schedule_known`]'s key, its bytes
    /// in one arena.
    schedules: KeySet<KnownSchedule>,
    /// The processes of every memoised schedule, end to end.
    scheduled: Vec<u32>,
    /// Scratch for a schedule key and the enabledness it packs.
    scratch: (Vec<u8>, Vec<bool>),
    parent: ParentView,
    pub(crate) stats: MemoStats,
}

/// A memoised schedule: the decision, and the start and length of the
/// processes it lists (scheduled, then skipped) in
/// `TransitionMemo::scheduled`.
type KnownSchedule = (Schedule, u32, u32);

/// A state as the schedule rules read it from the facts table: its
/// processes' component IDs, then its objects', and each process's
/// enabledness.
struct Known<'m> {
    memo: &'m TransitionMemo,
    ids: &'m [u32],
    enabled: &'m [bool],
}

impl Known<'_> {
    fn facts(&self, q: usize) -> &ProcFacts {
        self.memo
            .facts(self.ids[q])
            .expect("resolved before scheduling")
    }
}

impl ProcView for Known<'_> {
    fn len(&self) -> usize {
        self.enabled.len()
    }

    fn pending_init(&self, q: usize) -> bool {
        self.facts(q).pending_init
    }

    fn terminated(&self, q: usize) -> bool {
        self.facts(q).terminated
    }

    fn daemon(&self, q: usize) -> bool {
        self.facts(q).daemon
    }

    fn next_object(&self, q: usize) -> Option<ObjId> {
        self.facts(q).next_object
    }

    fn or_footprint(&self, q: usize, dst: &mut [u64]) {
        for (d, s) in dst.iter_mut().zip(self.facts(q).footprint.iter()) {
            *d |= s;
        }
    }

    fn enabled(&self, q: usize) -> bool {
        self.enabled[q]
    }
}

impl TransitionMemo {
    /// Empty the memo unless its entries were recorded under `token`.
    pub(crate) fn adopt(&mut self, token: u64) {
        if self.token != token {
            self.index.clear();
            self.entries.clear();
            self.class_of.clear();
            self.classes.clear();
            self.class_ids.clear();
            self.enabled.clear();
            self.schedules = KeySet::default();
            self.scheduled.clear();
            self.token = token;
        }
    }

    /// Point the memo at `state`, the parent of the lookups that follow.
    /// Every component must be interned under `interner`: a materialized
    /// state is (its memos were seeded with it); any other state is
    /// keyed once here.
    pub(crate) fn view(&mut self, interner: &ComponentInterner, state: &GlobalState) {
        self.adopt(interner.token());
        if !self.read_parent(state) {
            state.fingerprint_and_intern_into(interner, &mut Vec::new());
            let warm = self.read_parent(state);
            assert!(warm, "keying a state interns every component");
        }
    }

    /// Point the memo at the state with component IDs `ids` (`nprocs`
    /// processes, then the objects) and raw encoded length `raw` (a
    /// compressed tuple's prefix, [`raw_len_of`]), without building it:
    /// each component's sub-hash and encoded length come from `cache` by
    /// ID, for [`TransitionMemo::child_key`]. False when `cache` holds no
    /// decoded component for one of the IDs under `interner` — this
    /// worker has neither built nor produced it yet; the view is then
    /// unusable until the next [`TransitionMemo::view`].
    pub(crate) fn view_ids(
        &mut self,
        interner: &ComponentInterner,
        cache: &ComponentCache,
        (ids, nprocs): (&[u32], usize),
        raw: usize,
    ) -> bool {
        self.adopt(interner.token());
        let token = self.token;
        let p = &mut self.parent;
        p.ids.clear();
        p.ids.extend_from_slice(ids);
        p.subs.clear();
        p.lens.clear();
        if cache.token != token {
            return false;
        }
        p.nprocs = nprocs;
        p.raw = raw;
        for (k, &id) in p.ids.iter().enumerate() {
            let c = if k < nprocs {
                cached(&cache.procs, id, token)
            } else {
                cached(&cache.objects, id, token)
            };
            let Some(c) = c else {
                return false;
            };
            p.subs.push(c.sub_hash);
            p.lens.push(c.len);
        }
        true
    }

    /// Fill the parent view from the components' memos; false when one
    /// of them has none under this memo's token.
    fn read_parent(&mut self, state: &GlobalState) -> bool {
        let token = self.token;
        let p = &mut self.parent;
        p.ids.clear();
        p.subs.clear();
        p.lens.clear();
        p.nprocs = state.procs.len();
        p.raw = varint_len(state.procs.len() as u64) + varint_len(state.objects.len() as u64);
        let mut read = |c: Option<Changed>| {
            let c = c?;
            p.ids.push(c.id);
            p.subs.push(c.sub_hash);
            p.lens.push(c.len);
            p.raw += c.len as usize;
            Some(())
        };
        state
            .procs
            .iter()
            .all(|c| read(changed(c, token)).is_some())
            && state
                .objects
                .iter()
                .all(|c| read(changed(c, token)).is_some())
    }

    /// The memo key of process `pid`'s next transition from the viewed
    /// state, `object` being the index of its leading visible
    /// operation's object.
    pub(crate) fn key(&self, pid: usize, object: Option<usize>) -> MemoKey {
        let p = &self.parent;
        (p.ids[pid], object.map(|o| p.ids[p.nprocs + o]))
    }

    /// The index of the entry recorded under `key`, if any.
    #[inline]
    pub(crate) fn find(&self, key: MemoKey) -> Option<u32> {
        self.index.get(&slot(key)).copied()
    }

    /// The index of the entry recorded under `key`, when the `left`
    /// transitions of the budget cover its recorded executions: a hit
    /// that charged more would overshoot the budget where the interpreter
    /// stops, so every engine takes a hit only through here.
    #[inline]
    pub(crate) fn covered(&self, key: MemoKey, left: usize) -> Option<u32> {
        let entry = self.find(key)?;
        (self.entry(entry).executions <= left).then_some(entry)
    }

    /// The entry at an index [`TransitionMemo::find`] returned.
    #[inline]
    pub(crate) fn entry(&self, index: u32) -> &MemoEntry {
        &self.entries[index as usize]
    }

    /// Record a completed enumeration.
    pub(crate) fn record(&mut self, key: MemoKey, entry: MemoEntry) {
        let next = u32::try_from(self.entries.len()).expect("fewer than 2^32 memo entries");
        let index = *self.index.entry(slot(key)).or_insert(next);
        if index == next {
            self.entries.push(entry);
        } else {
            self.entries[index as usize] = entry;
        }
    }

    /// The fact class of the process component `id`, if its facts are
    /// recorded.
    #[inline]
    fn class(&self, id: u32) -> Option<u32> {
        *self.class_of.get(id as usize)?
    }

    /// The facts of the process component `id`, if recorded.
    #[inline]
    pub(crate) fn facts(&self, id: u32) -> Option<&ProcFacts> {
        Some(&self.classes[self.class(id)? as usize])
    }

    /// Record the facts of the process component `id`, under the class
    /// of every component with equal facts.
    fn record_facts(&mut self, id: u32, facts: ProcFacts) {
        let next = u32::try_from(self.classes.len()).expect("fewer than 2^32 fact classes");
        let class = *self.class_ids.entry(facts).or_insert_with_key(|facts| {
            self.classes.push(facts.clone());
            next
        });
        let id = id as usize;
        if self.class_of.len() <= id {
            self.class_of.resize(id + 1, None);
        }
        self.class_of[id] = Some(class);
    }

    /// Whether the process whose next transition has memo key `key` is
    /// enabled, if recorded.
    #[inline]
    pub(crate) fn enabled(&self, key: MemoKey) -> Option<bool> {
        self.enabled.get(&slot(key)).copied()
    }

    /// Record the enabledness of the process under memo key `key`.
    fn record_enabled(&mut self, key: MemoKey, enabled: bool) {
        self.enabled.insert(slot(key), enabled);
    }

    /// Teach the facts table what the live `state` shows, `ids` being its
    /// component IDs (`nprocs` processes, then the objects): each process
    /// component's facts and, under its memo key, enabledness.
    pub(crate) fn learn(
        &mut self,
        exec: &Executor<'_>,
        (ids, nprocs): (&[u32], usize),
        state: &GlobalState,
    ) {
        let live = exec.live(state);
        for (q, &id) in ids[..nprocs].iter().enumerate() {
            if self.class(id).is_none() {
                self.record_facts(id, ProcFacts::of(exec.info(), &live, q));
            }
            let key = (id, live.next_object(q).map(|o| ids[nprocs + o.index()]));
            if self.enabled(key).is_none() {
                self.record_enabled(key, live.enabled(q));
            }
        }
    }

    /// The schedule of the state with component IDs `ids` (`nprocs`
    /// processes, then the objects) from the facts table alone, its
    /// processes appended to `out` as [`crate::por::schedule`] appends
    /// them; `None` when a fact or an enabledness is not recorded.
    ///
    /// The schedule rules read of a process only its facts and its
    /// enabledness, so the answer is a function of each process's fact
    /// class and the enabled bits, and is memoised under exactly that
    /// key: the conflict closure runs once per distinct key.
    pub(crate) fn schedule_known(
        &mut self,
        exec: &Executor<'_>,
        (ids, nprocs): (&[u32], usize),
        out: &mut Vec<usize>,
    ) -> Option<Schedule> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let sched = self.schedule_with(exec, (ids, nprocs), out, &mut scratch);
        self.scratch = scratch;
        sched
    }

    fn schedule_with(
        &mut self,
        exec: &Executor<'_>,
        (ids, nprocs): (&[u32], usize),
        out: &mut Vec<usize>,
        (key, enabled): &mut (Vec<u8>, Vec<bool>),
    ) -> Option<Schedule> {
        key.clear();
        enabled.clear();
        for &id in &ids[..nprocs] {
            let class = self.class(id)?;
            let f = &self.classes[class as usize];
            // Enabledness is read only once no initialization is
            // pending, so it need not be known before then.
            let e = f.pending_init
                || self.enabled((id, f.next_object.map(|o| ids[nprocs + o.index()])))?;
            key.extend_from_slice(&class.to_le_bytes());
            enabled.push(e);
        }
        // The classes, then the enabled bits 32 to a word, each word's
        // bytes little-endian: a key of `n` processes is `4(n + ⌈n/32⌉)`
        // bytes long, so process counts never mix.
        for bits in enabled.chunks(32) {
            let word = bits
                .iter()
                .enumerate()
                .fold(0u32, |word, (b, &e)| word | u32::from(e) << b);
            key.extend_from_slice(&word.to_le_bytes());
        }
        let fp = stable_hash_bytes(key);
        if let Some(&(sched, start, len)) = self.schedules.get(fp, key) {
            let procs = &self.scheduled[start as usize..][..len as usize];
            out.extend(procs.iter().map(|&q| q as usize));
            return Some(sched);
        }
        let start = out.len();
        let known = Known {
            memo: self,
            ids,
            enabled,
        };
        let sched = exec.schedule_view(&known, out);
        let at = u32::try_from(self.scheduled.len()).expect("schedule memo under 4 G entries");
        self.scheduled
            .extend(out[start..].iter().map(|&q| q as u32));
        // At most the state's process count.
        let len = (out.len() - start) as u32;
        self.schedules.push(fp, key, (sched, at, len));
        Some(sched)
    }

    /// The memo entry of process `t`'s next transition at the state with
    /// component IDs `ids` (`nprocs` processes, then the objects), when
    /// its facts are recorded and the `left` transitions of the budget
    /// cover the entry's recorded executions; with the entry, the index
    /// of the object of `t`'s leading visible operation.
    pub(crate) fn hit(
        &self,
        (ids, nprocs): (&[u32], usize),
        t: usize,
        left: usize,
    ) -> Option<(u32, Option<usize>)> {
        let object = self.facts(ids[t])?.next_object.map(|o| o.index());
        let entry = self.covered((ids[t], object.map(|o| ids[nprocs + o])), left)?;
        Some((entry, object))
    }

    /// Number of components of the viewed state.
    pub(crate) fn components(&self) -> usize {
        self.parent.ids.len()
    }

    /// Append to `out` the store key of the viewed state's successor
    /// that differs from it in process `pid` and, when given, in object
    /// `object.0`, and return that successor's fingerprint: byte for
    /// byte and bit for bit what
    /// [`GlobalState::fingerprint_and_intern_into`] computes from the
    /// successor itself.
    pub(crate) fn child_key(
        &self,
        pid: usize,
        proc: &Changed,
        object: Option<(usize, &Changed)>,
        out: &mut Vec<u8>,
    ) -> u64 {
        let p = &self.parent;
        let object = object.map(|(o, c)| (p.nprocs + o, c));
        let of = |slot: usize| match object {
            Some((o, c)) if slot == o => (c.id, c.sub_hash),
            _ if slot == pid => (proc.id, proc.sub_hash),
            _ => (p.ids[slot], p.subs[slot]),
        };
        let mut raw = p.raw - p.lens[pid] as usize + proc.len as usize;
        if let Some((o, c)) = object {
            raw = raw - p.lens[o] as usize + c.len as usize;
        }
        let mut h = crate::hash::StableHasher::new();
        put_u64(out, raw as u64);
        for slots in [0..p.nprocs, p.nprocs..p.ids.len()] {
            h.write_u64(slots.len() as u64);
            put_u64(out, slots.len() as u64);
            for slot in slots {
                let (id, sub) = of(slot);
                h.write_u64(sub);
                put_u64(out, u64::from(id));
            }
        }
        h.finish()
    }

    /// What a miss learns from one successor `child` of `parent` through
    /// process `pid`, `child` having just been keyed (so its memos are
    /// warm): the process as the child has it, the object of the leading
    /// visible operation if the child no longer shares it, and how many
    /// components the two states do not share. The unshared components
    /// are published to `cache`, so the worker that later expands the
    /// child does not decode them.
    ///
    /// # Panics
    ///
    /// Panics when the child differs from its parent anywhere but in
    /// `procs[pid]`, `objects[object]` and processes appended by a
    /// spawn: the memo's key would not determine the transition.
    pub(crate) fn observe(
        &self,
        cache: &mut ComponentCache,
        parent: &GlobalState,
        child: &GlobalState,
        pid: usize,
        object: Option<usize>,
    ) -> (Changed, Option<Changed>, usize) {
        let token = self.token;
        cache.adopt(token);
        let warm = "a keyed state has every component interned";
        let mut unshared = child.procs.len() - parent.procs.len();
        for (k, (c, p)) in child.procs.iter().zip(&parent.procs).enumerate() {
            if !CowArc::ptr_eq(c, p) {
                assert_eq!(k, pid, "transition of process {pid} wrote process {k}");
                unshared += 1;
            }
        }
        let mut wrote = None;
        for (k, (c, p)) in child.objects.iter().zip(&parent.objects).enumerate() {
            if !CowArc::ptr_eq(c, p) {
                assert_eq!(
                    Some(k),
                    object,
                    "transition of process {pid} wrote object {k}, not the object of its visible operation"
                );
                unshared += 1;
                let c = changed(c, token).expect(warm);
                publish(&mut cache.objects, c.id, &child.objects[k]);
                wrote = Some(c);
            }
        }
        let proc = changed(&child.procs[pid], token).expect(warm);
        publish(&mut cache.procs, proc.id, &child.procs[pid]);
        (proc, wrote, unshared)
    }
}

/// [`changed`] of the cached component `id`, when the cache holds it.
fn cached<T: Encode>(slots: &[Option<CowArc<T>>], id: u32, token: u64) -> Option<Changed> {
    changed(slots.get(id as usize)?.as_ref()?, token)
}

/// A component's ID, sub-hash and encoded length under `token`, when it
/// has been interned under it.
fn changed<T: Encode>(c: &CowArc<T>, token: u64) -> Option<Changed> {
    let (id, len) = c.intern_memo(token)?;
    Some(Changed {
        id,
        sub_hash: c.sub_hash(),
        len,
    })
}

impl Default for ComponentInterner {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for ComponentInterner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ComponentInterner")
            .field("token", &self.token)
            .field("entries", &self.len())
            .field("bytes", &self.bytes())
            .finish_non_exhaustive()
    }
}

impl ComponentInterner {
    /// A fresh, empty interner with a process-unique token.
    pub fn new() -> Self {
        ComponentInterner {
            token: NEXT_TOKEN.fetch_add(1, Ordering::Relaxed),
            stripes: (0..STRIPES).map(|_| Mutex::new(HashMap::new())).collect(),
            table: RwLock::new(Vec::new()),
            payload: AtomicUsize::new(0),
            persisted: Mutex::new(PersistCursor {
                entries: 0,
                bytes: 0,
            }),
        }
    }

    /// The interner's unique token (tags the per-allocation memos in
    /// [`CowArc`]).
    #[inline]
    pub(crate) fn token(&self) -> u64 {
        self.token
    }

    #[inline]
    fn stripe(&self, bytes: &[u8]) -> &Mutex<HashMap<Arc<[u8]>, u32>> {
        let h = crate::hash::stable_hash_bytes(bytes);
        &self.stripes[(h >> 32) as usize % self.stripes.len()]
    }

    /// The dense ID of `bytes`, assigning the next one on first sight.
    /// Equal byte strings always return equal IDs (per interner).
    pub fn intern(&self, bytes: &[u8]) -> u32 {
        let mut map = self.stripe(bytes).lock().unwrap();
        if let Some(&id) = map.get(bytes) {
            return id;
        }
        let entry: Arc<[u8]> = Arc::from(bytes);
        let id = {
            // Stripe lock → table lock is the fixed acquisition order.
            let mut table = self.table.write().unwrap();
            // `u32::MAX` is never assigned, which keeps a memo key
            // packable into 64 bits (`slot`).
            let id = u32::try_from(table.len())
                .ok()
                .filter(|&id| id != u32::MAX)
                .expect("fewer than 2^32 - 1 distinct components");
            table.push(Arc::clone(&entry));
            id
        };
        self.payload.fetch_add(bytes.len(), Ordering::Relaxed);
        map.insert(entry, id);
        id
    }

    /// The encoding interned under `id`, if assigned.
    pub fn get(&self, id: u32) -> Option<Arc<[u8]>> {
        self.table.read().unwrap().get(id as usize).cloned()
    }

    /// Number of distinct components interned.
    pub fn len(&self) -> usize {
        self.table.read().unwrap().len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes across interned component encodings (the table's
    /// payload — what `--stats` reports as the interner size).
    pub fn bytes(&self) -> usize {
        self.payload.load(Ordering::Relaxed)
    }

    /// Rebuild the state a compressed ID tuple denotes, taking every
    /// component from `cache`: a hit is a reference-count bump; a miss
    /// decodes the component's interned bytes once, seeds its sub-hash
    /// and its intern memo from them, and publishes it to the cache. A
    /// materialized state therefore fingerprints and re-interns *warm* —
    /// [`GlobalState::fingerprint_and_intern`] answers every component
    /// a transition did not touch from the memo, exactly as it does for
    /// a successor that shares its parent's allocations. This is how the
    /// engines turn a stored key or an ID tuple back into a state when
    /// its expansion misses in ID space (DESIGN §14). A cache last used
    /// with another
    /// interner is emptied first. `None` when the tuple is malformed or
    /// references an unknown ID.
    pub fn materialize(&self, cache: &mut ComponentCache, tuple: &[u8]) -> Option<GlobalState> {
        let mut ids = std::mem::take(&mut cache.ids);
        ids.clear();
        let state =
            read_tuple(tuple, &mut ids).and_then(|np| self.materialize_ids(cache, np, &ids));
        cache.ids = ids;
        state
    }

    /// [`ComponentInterner::materialize`] from the tuple's IDs already
    /// read ([`read_tuple`]): `ids` holds `nprocs` process IDs, then the
    /// object IDs.
    pub(crate) fn materialize_ids(
        &self,
        cache: &mut ComponentCache,
        nprocs: usize,
        ids: &[u32],
    ) -> Option<GlobalState> {
        cache.adopt(self.token);
        let mut procs = Vec::with_capacity(nprocs);
        for &id in &ids[..nprocs] {
            procs.push(self.component(&mut cache.procs, id, decode_proc_state)?);
        }
        let mut objects = Vec::with_capacity(ids.len() - nprocs);
        for &id in &ids[nprocs..] {
            objects.push(self.component(&mut cache.objects, id, decode_obj_state)?);
        }
        Some(GlobalState { procs, objects })
    }

    /// The cached handle of component `id`, decoding and publishing it
    /// on a miss.
    fn component<T: Encode + Clone>(
        &self,
        slots: &mut Vec<Option<CowArc<T>>>,
        id: u32,
        decode: fn(&[u8]) -> Option<T>,
    ) -> Option<CowArc<T>> {
        if let Some(Some(hit)) = slots.get(id as usize) {
            return Some(hit.clone());
        }
        let bytes = self.get(id)?;
        let fresh = CowArc::new(decode(&bytes)?);
        fresh.sub_hash_from_encoding(&bytes);
        fresh.set_intern_memo(self.token, id, bytes.len() as u32);
        publish(slots, id, &fresh);
        Some(fresh)
    }

    /// [`ComponentInterner::materialize`] with a throw-away cache: every
    /// component is decoded afresh. The debug oracle of
    /// [`GlobalState::fingerprint_and_intern`].
    pub fn decode_compressed(&self, cenc: &[u8]) -> Option<GlobalState> {
        self.materialize(&mut ComponentCache::default(), cenc)
    }

    /// Append the table entries not yet on disk to the table file at
    /// `path` (`[header][len][bytes]…`, IDs implicit in record order),
    /// fsync, and return the committed `(entries, byte length)` for the
    /// checkpoint manifest. Any torn tail a crash left beyond the
    /// previously committed prefix is truncated before appending, so
    /// the file's first `byte_len` bytes are always exactly the records
    /// the manifest describes.
    pub(crate) fn persist(&self, path: &Path) -> io::Result<(u64, u64)> {
        let mut cur = self.persisted.lock().unwrap();
        let fresh: Vec<Arc<[u8]>> = {
            let table = self.table.read().unwrap();
            table[cur.entries as usize..].to_vec()
        };
        let mut buf = Vec::new();
        if cur.entries == 0 {
            put_header(&mut buf, INTERN_MAGIC);
        }
        for e in &fresh {
            put_u64(&mut buf, e.len() as u64);
            buf.extend_from_slice(e);
        }
        if !buf.is_empty() {
            use std::io::{Seek, SeekFrom, Write};
            let mut f = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(path)?;
            f.set_len(cur.bytes)?;
            f.seek(SeekFrom::End(0))?;
            f.write_all(&buf)?;
            f.sync_all()?;
        }
        cur.entries += fresh.len() as u64;
        cur.bytes += buf.len() as u64;
        Ok((cur.entries, cur.bytes))
    }

    /// Load a persisted table into this (empty) interner: read exactly
    /// the manifest-committed prefix, truncating any torn post-crash
    /// tail, and re-assign IDs in record order — which reproduces the
    /// interrupted run's assignment exactly, because records were
    /// appended in ID order.
    pub(crate) fn load(&self, path: &Path, entries: u64, byte_len: u64) -> io::Result<()> {
        use std::io::Read;
        let corrupt = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        assert!(
            self.is_empty(),
            "interner tables load into a fresh interner"
        );
        let mut f = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)?;
        let actual = f.metadata()?.len();
        if actual < byte_len {
            return Err(corrupt("interner table shorter than its manifest length"));
        }
        if actual > byte_len {
            f.set_len(byte_len)?; // torn post-crash tail
        }
        let mut bytes = vec![0u8; usize::try_from(byte_len).expect("table fits in memory")];
        f.read_exact(&mut bytes)?;
        let mut r = ByteReader::new(&bytes);
        if !check_header(&mut r, INTERN_MAGIC) {
            return Err(corrupt(
                "not an interner table (or written by an incompatible store format version)",
            ));
        }
        for i in 0..entries {
            let len = r
                .u64()
                .and_then(|l| usize::try_from(l).ok())
                .ok_or_else(|| corrupt("truncated interner record"))?;
            let enc = r
                .take(len)
                .ok_or_else(|| corrupt("truncated interner record"))?;
            let id = self.intern(enc);
            assert_eq!(id as u64, i, "records re-intern in ID order");
        }
        if r.remaining() != 0 {
            return Err(corrupt("trailing bytes inside the interner table prefix"));
        }
        let mut cur = self.persisted.lock().unwrap();
        cur.entries = entries;
        cur.bytes = byte_len;
        Ok(())
    }
}

/// Append a compressed tuple's IDs to `out` — its processes', then its
/// objects' — and return the process count: the one reader of the tuple
/// format [`GlobalState::fingerprint_and_intern`] writes. `None` when the
/// tuple is malformed (an ID past `u32`, a short or overlong tuple), with
/// `out` then holding whatever was read.
pub(crate) fn read_tuple(tuple: &[u8], out: &mut Vec<u32>) -> Option<usize> {
    let mut r = ByteReader::new(tuple);
    let _raw_len = r.u64()?;
    let nprocs = usize::try_from(r.u64()?).ok()?;
    for _ in 0..nprocs {
        out.push(u32::try_from(r.u64()?).ok()?);
    }
    for _ in 0..r.u64()? {
        out.push(u32::try_from(r.u64()?).ok()?);
    }
    (r.remaining() == 0).then_some(nprocs)
}

/// The raw (uncompressed) encoded length a compressed tuple stands
/// for — its leading varint. The stores use this to keep reporting
/// logical byte totals (`Report::visited_bytes`) independent of the
/// stored representation.
pub fn raw_len_of(cenc: &[u8]) -> Option<usize> {
    usize::try_from(ByteReader::new(cenc).u64()?).ok()
}

#[cfg(test)]
mod tests {
    use super::super::{encode_state, ObjState};
    use super::*;
    use crate::value::Value;

    fn enc(o: &ObjState) -> Vec<u8> {
        use super::super::encode::Encode;
        let mut out = Vec::new();
        o.encode(&mut out);
        out
    }

    #[test]
    fn interning_is_injective_and_dense() {
        let i = ComponentInterner::new();
        assert!(i.is_empty());
        let a = enc(&ObjState::Sem(1));
        let b = enc(&ObjState::Sem(2));
        let id_a = i.intern(&a);
        let id_b = i.intern(&b);
        assert_ne!(id_a, id_b);
        assert_eq!(i.intern(&a), id_a, "re-interning is stable");
        assert_eq!((id_a.min(id_b), id_a.max(id_b)), (0, 1), "dense IDs");
        assert_eq!(i.len(), 2);
        assert_eq!(i.bytes(), a.len() + b.len());
        assert_eq!(i.get(id_a).as_deref(), Some(&a[..]));
        assert_eq!(i.get(2), None);
    }

    #[test]
    fn tokens_are_unique_per_interner() {
        assert_ne!(
            ComponentInterner::new().token(),
            ComponentInterner::new().token()
        );
    }

    #[test]
    fn concurrent_interning_agrees_on_ids() {
        let i = ComponentInterner::new();
        let encs: Vec<Vec<u8>> = (0..64).map(|n| enc(&ObjState::Sem(n))).collect();
        let ids: Vec<Vec<u32>> = std::thread::scope(|s| {
            (0..4)
                .map(|_| s.spawn(|| encs.iter().map(|e| i.intern(e)).collect::<Vec<u32>>()))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for w in &ids[1..] {
            assert_eq!(w, &ids[0], "every thread sees one assignment");
        }
        assert_eq!(i.len(), 64);
    }

    #[test]
    fn compressed_tuple_roundtrips_through_the_interner() {
        let prog = cfgir::compile(TWO_PROCS).unwrap();
        let mut s = GlobalState::initial(&prog);
        let i = ComponentInterner::new();
        let (fp, cenc) = s.fingerprint_and_intern(&i);
        assert_eq!(fp, s.fingerprint());
        assert_eq!(raw_len_of(&cenc), Some(encode_state(&s).len()));
        assert!(cenc.len() < encode_state(&s).len(), "tuples are smaller");
        assert_eq!(i.decode_compressed(&cenc).as_ref(), Some(&s));
        // Identical states compress to identical tuples; a mutation
        // changes the tuple (injectivity both ways).
        let (_, cenc2) = s.clone().fingerprint_and_intern(&i);
        assert_eq!(cenc, cenc2);
        *s.object_mut(1) = ObjState::Sem(0);
        let (_, cenc3) = s.fingerprint_and_intern(&i);
        assert_ne!(cenc, cenc3);
        // The two tuples share every component but the mutated one.
        assert_eq!(i.decode_compressed(&cenc3).as_ref(), Some(&s));
    }

    const TWO_PROCS: &str = "chan c[2]; sem s = 1; int g = 3; \
         proc m() { send(c, g); sem_wait(s); g = g + 1; sem_signal(s); } \
         process m(); process m();";

    /// The processes a search expands at `state` (none at a dead end).
    fn scheduled(exec: &crate::executor::Executor<'_>, state: &GlobalState) -> Vec<usize> {
        use crate::executor::Scheduled;
        match exec.schedule(state) {
            Scheduled::Init(pid) => vec![pid],
            Scheduled::Procs(procs) => procs,
            Scheduled::DeadEnd { .. } => Vec::new(),
        }
    }

    /// The initial state of `prog` and up to `more` states reachable
    /// from it, breadth-first, with no reduction and the environment
    /// enumerated (the corpus programs are open).
    fn reachable(prog: &cfgir::CfgProgram, more: usize) -> Vec<GlobalState> {
        use crate::executor::{ExecCtx, Executor, SuccOutcome};
        let cfg = crate::search::Config {
            env_mode: crate::interp::EnvMode::Enumerate,
            ..crate::search::Config::exhaustive()
        };
        let exec = Executor::new(prog, &cfg);
        let mut cx = ExecCtx::new(&exec, 10_000);
        let mut states = vec![exec.initial()];
        let mut next = 0;
        while next < states.len() && states.len() <= more {
            for pid in scheduled(&exec, &states[next]) {
                for (_, outcome) in exec.successors(&mut cx, &states[next], pid) {
                    if let SuccOutcome::State(s, _) = outcome {
                        states.push(*s);
                    }
                }
            }
            next += 1;
        }
        states.truncate(more + 1);
        states
    }

    /// Every state comes back from its tuple equal to the original and
    /// *warm*: every materialised component carries an intern memo under
    /// the interner's token, so re-keying it never takes the cold path
    /// and returns the identical tuple.
    fn assert_materializes_warm(states: &[GlobalState], what: &str) {
        let i = ComponentInterner::new();
        let mut cache = ComponentCache::default();
        for s in states {
            let (fp, tuple) = s.fingerprint_and_intern(&i);
            let entries = i.len();
            let back = i
                .materialize(&mut cache, &tuple)
                .unwrap_or_else(|| panic!("{what}: own tuple does not materialize"));
            assert_eq!(&back, s, "{what}");
            let token = i.token();
            assert!(
                back.procs.iter().all(|c| c.intern_memo(token).is_some())
                    && back.objects.iter().all(|c| c.intern_memo(token).is_some()),
                "{what}: re-keying would take the cold path"
            );
            assert_eq!(back.fingerprint_and_intern(&i), (fp, tuple), "{what}");
            assert_eq!(i.len(), entries, "{what}: re-keying interned a component");
        }
    }

    #[test]
    fn materialized_states_equal_the_originals_and_rekey_warm() {
        let prog = cfgir::compile(TWO_PROCS).unwrap();
        assert_materializes_warm(&reachable(&prog, 200), "two-process program");
        let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus");
        let mut seen = 0;
        for entry in std::fs::read_dir(corpus).expect("corpus directory") {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "mc") {
                let src = std::fs::read_to_string(&path).unwrap();
                let prog = cfgir::compile(&src).unwrap();
                let states = reachable(&prog, 200);
                assert_materializes_warm(&states, &path.display().to_string());
                seen += 1;
            }
        }
        assert!(seen >= 14, "only {seen} corpus programs found");
    }

    /// Walk `prog` level by level from its initial state, expanding
    /// every state twice — through a worker's cache and memo, and
    /// through `Executor::successors` + `ExecCtx::state_key_into` — and
    /// compare child by child: decision, violation, fingerprint, key
    /// bytes, and what each expansion charged its context. Returns the
    /// memo's counts.
    fn assert_memo_agrees_with_the_interpreter(
        prog: &cfgir::CfgProgram,
        max_states: usize,
        what: &str,
    ) -> MemoStats {
        use crate::executor::{ExecCtx, Executor, SuccOutcome};
        let cfg = crate::search::Config {
            env_mode: crate::interp::EnvMode::Enumerate,
            ..crate::search::Config::exhaustive()
        };
        let exec = Executor::new(prog, &cfg);
        let interner = Arc::new(ComponentInterner::new());
        let (mut cache, mut memo) = (ComponentCache::default(), TransitionMemo::default());
        let context = || {
            let mut cx = ExecCtx::with_coverage(100_000, None);
            cx.interner = Some(Arc::clone(&interner));
            cx
        };
        let mut level = vec![exec.initial().fingerprint_and_intern(&interner).1];
        let mut seen: std::collections::HashSet<Vec<u8>> = level.iter().cloned().collect();
        while !level.is_empty() && seen.len() <= max_states {
            let mut next = Vec::new();
            for tuple in &level {
                let state = interner.materialize(&mut cache, tuple).expect("own tuple");
                let mut cx = context();
                let lent = (&mut cache, &mut memo);
                let mut arena = crate::executor::ExpandArena::default();
                let fe = exec.expand(&mut cx, tuple, lent, &mut arena, |_, _| false);
                let mut rx = context();
                let procs = scheduled(&exec, &state);
                assert_eq!(fe.dead_end.is_some(), procs.is_empty(), "{what}");
                let mut j = 0;
                for pid in procs {
                    for (choices, outcome) in exec.successors(&mut rx, &state, pid) {
                        let (child, (fp, key)) = (&arena.children[j], arena.keys.get(j));
                        assert_eq!(
                            (child.decision.process, &child.decision.choices),
                            (pid, &choices)
                        );
                        match outcome {
                            SuccOutcome::State(s, _) => {
                                let mut want = Vec::new();
                                let want_fp = rx.state_key_into(&s, &mut want);
                                assert_eq!(child.violation, None, "{what}");
                                assert_eq!((fp, key), (want_fp, &want[..]), "{what}: child {j}");
                                if seen.insert(want.clone()) {
                                    next.push(want);
                                }
                            }
                            SuccOutcome::Violation(kind, process) => {
                                assert_eq!(child.violation, Some((kind, process)), "{what}");
                                assert_eq!((fp, key), (0, &[][..]), "{what}");
                            }
                        }
                        j += 1;
                    }
                }
                assert_eq!(fe.children, 0..j, "{what}: extra memoised children");
                assert_eq!(
                    (
                        cx.transitions,
                        cx.tosses_taken,
                        cx.shared_components,
                        cx.total_components
                    ),
                    (
                        rx.transitions,
                        rx.tosses_taken,
                        rx.shared_components,
                        rx.total_components
                    ),
                    "{what}: charges"
                );
                assert!(!cx.truncated && !rx.truncated, "{what}: budget too small");
            }
            level = next;
        }
        memo.stats
    }

    #[test]
    fn memoised_expansion_equals_the_interpreter_child_by_child() {
        let two = assert_memo_agrees_with_the_interpreter(
            &cfgir::compile(TWO_PROCS).unwrap(),
            400,
            "two-process program",
        );
        assert!(two.hits > 0 && two.misses > 0, "{two:?}");
        assert_eq!((two.bypass_spawn, two.bypass_budget), (0, 0));
        let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus");
        let (mut programs, mut hits) = (0, 0);
        for entry in std::fs::read_dir(corpus).expect("corpus directory") {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "mc") {
                let prog = cfgir::compile(&std::fs::read_to_string(&path).unwrap()).unwrap();
                let stats = assert_memo_agrees_with_the_interpreter(
                    &prog,
                    400,
                    &path.display().to_string(),
                );
                // `spawn_pool.mc`'s `main` spawns in its first transition;
                // nothing else in the corpus does.
                let spawns = path.file_name().is_some_and(|n| n == "spawn_pool.mc");
                assert_eq!(stats.bypass_spawn > 0, spawns, "{}", path.display());
                programs += 1;
                hits += stats.hits;
            }
        }
        assert!(programs >= 14, "only {programs} corpus programs found");
        assert!(
            hits > 0,
            "the corpus never repeated a (process, object) pair"
        );
    }

    /// On reachable states of two corpus programs, ID space answers what
    /// the built state answers: `view_ids` on a state's tuple fills the
    /// parent view `view` fills from the state — IDs, sub-hashes, lengths
    /// and raw length — `child_key` writes the same key and fingerprint
    /// from either view (the successor's own), and the schedule taken
    /// from the facts table — computed, or answered by the schedule memo
    /// for an earlier state of the same fact classes and enabled bits —
    /// is the live schedule, with reduction and without.
    #[test]
    fn id_space_views_keys_and_schedules_equal_the_live_ones() {
        use crate::executor::{ExecCtx, Executor, SuccOutcome};
        use crate::interp::next_op_object;
        let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus");
        // Both reach states whose processes have equal fact classes and
        // different enabled bits, which a schedule key must tell apart.
        for name in ["cyclic/ring.mc", "relay.mc"] {
            let src = std::fs::read_to_string(format!("{corpus}/{name}")).unwrap();
            let prog = cfgir::compile(&src).unwrap();
            let states = reachable(&prog, 400);
            // A component carries the intern memo of one interner only.
            let i = ComponentInterner::new();
            let mut cache = ComponentCache::default();
            for por in [true, false] {
                let cfg = crate::search::Config {
                    env_mode: crate::interp::EnvMode::Enumerate,
                    por,
                    ..crate::search::Config::default()
                };
                let exec = Executor::new(&prog, &cfg);
                let (mut live, mut ids, mut facts) = (
                    TransitionMemo::default(),
                    TransitionMemo::default(),
                    TransitionMemo::default(),
                );
                let mut answered = 0;
                for s in &states {
                    let (_, tuple) = s.fingerprint_and_intern(&i);
                    i.materialize(&mut cache, &tuple).expect("own tuple");
                    live.view(&i, s);
                    let mut tuple_ids = Vec::new();
                    let nprocs = read_tuple(&tuple, &mut tuple_ids).expect("own tuple");
                    let raw = raw_len_of(&tuple).expect("own tuple");
                    let viewed = ids.view_ids(&i, &cache, (&tuple_ids, nprocs), raw);
                    assert!(viewed, "{name}: a cached tuple");
                    assert_eq!(live.parent, ids.parent, "{name}: parent view");
                    let mut cx = ExecCtx::with_coverage(usize::MAX, None);
                    for pid in scheduled(&exec, s) {
                        let object = next_op_object(&prog, s, pid).map(|o| o.index());
                        for (_, outcome) in exec.successors(&mut cx, s, pid) {
                            let SuccOutcome::State(child, _) = outcome else {
                                continue;
                            };
                            let want = child.fingerprint_and_intern(&i);
                            let (proc, wrote, _) = live.observe(&mut cache, s, &child, pid, object);
                            let wrote = object.zip(wrote.as_ref());
                            for memo in [&live, &ids] {
                                let mut key = Vec::new();
                                let fp = memo.child_key(pid, &proc, wrote, &mut key);
                                assert_eq!((fp, key), want, "{name}: child key of P{pid}");
                            }
                        }
                    }
                    let schedules = facts.schedules.len();
                    facts.learn(&exec, (&tuple_ids, nprocs), s);
                    let mut got = Vec::new();
                    let sched = facts.schedule_known(&exec, (&tuple_ids, nprocs), &mut got);
                    let mut want = Vec::new();
                    let live_sched = exec.schedule_view(&exec.live(s), &mut want);
                    assert_eq!((sched, got), (Some(live_sched), want), "{name}: schedule");
                    answered += usize::from(facts.schedules.len() == schedules);
                }
                assert!(answered > 0, "{name}: the schedule memo never answered");
            }
        }
    }

    #[test]
    fn a_memo_is_emptied_under_another_interners_token() {
        let prog = cfgir::compile(TWO_PROCS).unwrap();
        let mut memo = TransitionMemo::default();
        let (a, b) = (ComponentInterner::new(), ComponentInterner::new());
        memo.view(&a, &GlobalState::initial(&prog));
        let key = memo.key(0, None);
        memo.record(key, MemoEntry::default());
        assert!(memo.find(key).is_some());
        memo.view(&b, &GlobalState::initial(&prog));
        assert!(
            memo.find(key).is_none(),
            "IDs of `a` mean nothing under `b`"
        );
    }

    #[test]
    #[should_panic(expected = "wrote object 0")]
    fn a_transition_that_writes_a_second_object_is_refused() {
        let prog = cfgir::compile(TWO_PROCS).unwrap();
        let i = ComponentInterner::new();
        let parent = GlobalState::initial(&prog);
        let mut memo = TransitionMemo::default();
        memo.view(&i, &parent);
        // A "transition" of process 0 on the semaphore (object 1) that
        // also touches the channel (object 0).
        let mut child = parent.clone();
        child.proc_mut(0);
        *child.object_mut(1) = ObjState::Sem(0);
        child.object_mut(0);
        child.fingerprint_and_intern(&i);
        memo.observe(&mut ComponentCache::default(), &parent, &child, 0, Some(1));
    }

    #[test]
    fn a_cache_is_never_hit_under_another_interners_token() {
        let prog = cfgir::compile(TWO_PROCS).unwrap();
        let s = GlobalState::initial(&prog);
        let mut t = s.clone();
        *t.object_mut(1) = ObjState::Sem(0);
        // Each interner numbers its own four components 0..4, and the
        // two sets differ, so some ID means one thing under `a` and
        // another under `b`: a hit across interners would show.
        let (a, b) = (ComponentInterner::new(), ComponentInterner::new());
        let (_, tuple_a) = s.fingerprint_and_intern(&a);
        let (_, tuple_b) = t.fingerprint_and_intern(&b);
        assert!((0..4).any(|id| a.get(id) != b.get(id)));
        let mut cache = ComponentCache::default();
        assert_eq!(a.materialize(&mut cache, &tuple_a), Some(s.clone()));
        assert_eq!(b.materialize(&mut cache, &tuple_b), Some(t));
        assert_eq!(a.materialize(&mut cache, &tuple_a), Some(s));
    }

    #[test]
    fn malformed_and_unknown_id_tuples_are_none() {
        let prog = cfgir::compile(TWO_PROCS).unwrap();
        let s = GlobalState::initial(&prog);
        let i = ComponentInterner::new();
        let (_, tuple) = s.fingerprint_and_intern(&i);
        let mut cache = ComponentCache::default();
        for cut in 0..tuple.len() {
            assert_eq!(i.materialize(&mut cache, &tuple[..cut]), None, "cut {cut}");
        }
        let mut long = tuple.clone();
        long.push(0);
        assert_eq!(i.materialize(&mut cache, &long), None, "trailing byte");
        let varints = |vs: &[u64]| {
            let mut out = Vec::new();
            for v in vs {
                put_u64(&mut out, *v);
            }
            out
        };
        // raw len, one process, an ID nobody assigned, no objects.
        let unknown = varints(&[0, 1, i.len() as u64, 0]);
        assert_eq!(i.materialize(&mut cache, &unknown), None);
        // An ID past `u32`, and a count no tuple could hold.
        let wide = varints(&[0, 1, u64::MAX, 0]);
        assert_eq!(i.materialize(&mut cache, &wide), None);
        assert_eq!(i.materialize(&mut cache, &varints(&[0, u64::MAX])), None);
        // A process slot naming an object's encoding must not panic.
        let chan_id = u64::from(tuple[tuple.len() - 2]);
        let _ = i.materialize(&mut cache, &varints(&[0, 1, chan_id, 0]));
        // And the cache is still good for well-formed tuples afterwards.
        assert_eq!(i.materialize(&mut cache, &tuple), Some(s));
    }

    #[test]
    fn persist_and_load_reconstruct_the_assignment() {
        let dir = std::env::temp_dir().join(format!("reclose-intern-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("intern.bin");
        let i = ComponentInterner::new();
        let encs: Vec<Vec<u8>> = (0..5)
            .map(|n| enc(&ObjState::Shared(Value::Int(n))))
            .collect();
        for e in &encs[..3] {
            i.intern(e);
        }
        let (n1, b1) = i.persist(&path).unwrap();
        assert_eq!(n1, 3);
        for e in &encs[3..] {
            i.intern(e);
        }
        // Incremental append, then a redundant persist with no growth.
        let (n2, b2) = i.persist(&path).unwrap();
        assert_eq!((n2, i.persist(&path).unwrap().0), (5, 5));
        assert!(b2 > b1);
        // A torn tail (crash mid-append) is truncated away on load.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(b"torn garbage").unwrap();
        }
        let j = ComponentInterner::new();
        j.load(&path, n2, b2).unwrap();
        assert_eq!(j.len(), 5);
        for (want, e) in encs.iter().enumerate() {
            assert_eq!(j.intern(e) as usize, want, "assignment reproduced");
        }
        assert_eq!(std::fs::metadata(&path).unwrap().len(), b2, "tail gone");
        // A manifest length pointing past the file is corruption.
        let k = ComponentInterner::new();
        assert!(k.load(&path, n2, b2 + 9).is_err());
        // Garbage content under a correct length is rejected too.
        std::fs::write(&path, b"not an interner table at all....").unwrap();
        assert!(ComponentInterner::new().load(&path, 1, 20).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

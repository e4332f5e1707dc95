//! Tier 0: a lock-striped canonical-state visited store with a
//! jobs-invariant admission order, backing the parallel stateful search.
//!
//! ## Why admission needs an order at all
//!
//! A visited set makes exploration *order-sensitive*: whichever path
//! reaches a state first claims it, and every later path is pruned. Run
//! that race on worker threads and the claimed-by path — and with it the
//! violation traces, depth statistics, and even the set of expanded
//! states — depends on scheduling. The store removes the race from the
//! *result* without removing the parallelism from the *work*:
//!
//! 1. During a frontier round, workers **admit** candidate states
//!    concurrently, each tagged with its shard-lexicographic discovery
//!    [`Rank`] — `(frontier item index, successor index)`, the exact
//!    order the sequential search would have discovered them. A stripe
//!    keeps only the smallest rank per state: a late-arriving smaller
//!    rank evicts/overrides whatever a faster worker wrote first.
//! 2. At the round's ordered commit (single-threaded, in rank order),
//!    [`VisitedStore::is_winner`] answers deterministically: the winner
//!    is the minimal-rank occurrence, however the threads raced.
//! 3. Committed winners are **sealed**, stamped with the frontier
//!    *epoch* (level) that committed them; in later rounds they always
//!    beat any new candidate, so a state is expanded exactly once, at
//!    its earliest (breadth-first minimal) depth. The epoch stamp is
//!    what lets a level be processed in memory-bounded chunks: the
//!    proviso probe [`VisitedStore::contains_sealed_before`] sees only
//!    *earlier-level* seals, the exact set a single-chunk run sees.
//!
//! ## Storage and collision safety
//!
//! Stripes are picked by the canonical state's *stable* 64-bit hash
//! ([`crate::state::GlobalState::fingerprint`], a
//! [`crate::hash::StableHasher`] — never SipHash, whose keys may drift
//! between toolchains and would re-stripe the store). Each stripe is a
//! `KeySet` (`store/keyset.rs`): every state's **store key** (its
//! canonical byte encoding, [`crate::state::encode_state`], or its
//! collapse-compressed tuple) is appended to the stripe's byte arena,
//! and the stripe's table holds one inline `(offset, len, rank, seal
//! epoch)` slot per fingerprint, so a stored state costs its key bytes
//! plus one table slot and no allocation of its own. Membership is a
//! `memcmp` against the arena.
//! Because the encoding is injective (see [`crate::state::encode`]),
//! comparing encodings *is* comparing states — the collision-safety
//! rule of [`crate::state`] is preserved verbatim: two distinct states
//! sharing a hash both stay stored (the second on the key set's side
//! list) and never alias, so a collision costs a comparison, not a
//! missed state. The same rule extends to tier 1 (see [`super::disk`]):
//! the fingerprint index only nominates candidates, the stored bytes
//! decide.

use super::keyset::KeySet;
use super::{Rank, StateStore};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of stripes: enough that 8–16 workers rarely contend, small
/// enough that an empty store is cheap.
pub const STRIPES: usize = 64;

/// A stored state's admission record.
struct Claim {
    rank: Rank,
    /// `Some(epoch)` once committed in the round that sealed it; sealed
    /// entries always win.
    sealed: Option<u32>,
}

/// One stripe: store keys under their stable hash (see the module docs).
type Stripe = KeySet<Claim>;

/// A batch's items grouped by stripe: `ix` lists item indices stripe by
/// stripe, input order kept within a stripe, and stripe `s`'s run is
/// `ix[start[s]..start[s + 1]]`. Built once per chunk by a counting sort
/// and shared by [`VisitedStore::admit_ordered`] and
/// [`VisitedStore::seal_ordered`].
pub(crate) struct StripeOrder {
    ix: Vec<u32>,
    start: Vec<u32>,
}

impl StripeOrder {
    /// The stripe runs, in stripe order, empty stripes skipped.
    fn runs(&self) -> impl Iterator<Item = (usize, &[u32])> {
        self.start
            .windows(2)
            .enumerate()
            .map(|(s, w)| (s, &self.ix[w[0] as usize..w[1] as usize]))
            .filter(|(_, run)| !run.is_empty())
    }
}

/// The lock-striped tier-0 visited store. See the module docs for the
/// admission protocol.
pub struct VisitedStore {
    stripes: Vec<Mutex<Stripe>>,
    /// Entries hold collapse-compressed component-ID tuples instead of
    /// full canonical encodings (see [`crate::state::intern`]). Only the
    /// byte accounting cares: membership is still `memcmp` either way,
    /// because the tuple encoding is injective per interner.
    compressed: bool,
    /// O(1) mirrors of the entry count and payload bytes, maintained on
    /// every insert/drain — `len()`/`bytes()` run per level boundary
    /// (spill checks) and must not scan every stripe.
    count: AtomicUsize,
    /// *Raw* canonical-encoding bytes the entries stand for — the
    /// logical total `bytes()` reports (== resident when uncompressed).
    payload: AtomicUsize,
    /// Key bytes the entries hold: the logical sum of their lengths,
    /// which the spill budget bounds.
    stored: AtomicUsize,
    /// Batch-path observability (operational, never in the deterministic
    /// report surface): batch calls, items they carried, and stripe-lock
    /// acquisitions the grouping avoided versus the per-item protocol.
    batch_ops: AtomicUsize,
    batch_items: AtomicUsize,
    locks_avoided: AtomicUsize,
}

impl Default for VisitedStore {
    fn default() -> Self {
        VisitedStore::new(STRIPES)
    }
}

const POISONED: &str = "tier-0 stripe lock poisoned by a panicked thread";

impl VisitedStore {
    /// A store with `stripes` lock stripes (rounded up to at least 1),
    /// holding uncompressed canonical encodings.
    pub fn new(stripes: usize) -> Self {
        VisitedStore::new_with(stripes, false)
    }

    /// A store whose entries are collapse-compressed tuples when
    /// `compressed` is set.
    pub fn new_with(stripes: usize, compressed: bool) -> Self {
        VisitedStore {
            stripes: (0..stripes.max(1))
                .map(|_| Mutex::new(Stripe::default()))
                .collect(),
            compressed,
            count: AtomicUsize::new(0),
            payload: AtomicUsize::new(0),
            stored: AtomicUsize::new(0),
            batch_ops: AtomicUsize::new(0),
            batch_items: AtomicUsize::new(0),
            locks_avoided: AtomicUsize::new(0),
        }
    }

    /// The raw canonical-encoding length `enc` stands for (compressed
    /// tuples carry it in their prefix; uncompressed entries *are* raw).
    #[inline]
    fn raw_of(&self, enc: &[u8]) -> usize {
        if self.compressed {
            crate::state::intern::raw_len_of(enc).expect("compressed tuple prefix")
        } else {
            enc.len()
        }
    }

    /// The stripe index of `hash`: its high bits, since the stable hash
    /// mixes well and low bits already pick the slot inside the stripe.
    #[inline]
    fn stripe_of(&self, hash: u64) -> usize {
        (hash >> 32) as usize % self.stripes.len()
    }

    #[inline]
    fn stripe(&self, hash: u64) -> std::sync::MutexGuard<'_, Stripe> {
        self.stripes[self.stripe_of(hash)].lock().expect(POISONED)
    }

    /// Count a newly stored key in the O(1) totals.
    fn count_in(&self, enc: &[u8]) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.payload.fetch_add(self.raw_of(enc), Ordering::Relaxed);
        self.stored.fetch_add(enc.len(), Ordering::Relaxed);
    }

    /// Offer a candidate discovery of the state encoded as `enc` at
    /// `rank`. Keeps the smallest rank per state; sealed entries always
    /// win. Safe to call concurrently from any number of workers — the
    /// outcome (minimal rank per state) is independent of arrival order.
    pub fn admit(&self, hash: u64, enc: &[u8], rank: Rank) {
        self.admit_locked(&mut self.stripe(hash), hash, enc, rank);
    }

    /// [`VisitedStore::admit`]'s body under an already-held stripe lock.
    fn admit_locked(&self, stripe: &mut Stripe, hash: u64, enc: &[u8], rank: Rank) {
        let (claim, new) = stripe.get_or_insert(hash, enc, Claim { rank, sealed: None });
        if new {
            self.count_in(enc);
        } else if claim.sealed.is_none() && rank < claim.rank {
            claim.rank = rank; // late-arriving smaller rank overrides
        }
    }

    /// Group `items` by stripe, keeping input order within a stripe.
    pub(crate) fn stripe_order(&self, items: &[(u64, Rank, &[u8])]) -> StripeOrder {
        let n = self.stripes.len();
        let mut start = vec![0u32; n + 1];
        for &(h, _, _) in items {
            start[self.stripe_of(h) + 1] += 1;
        }
        for s in 0..n {
            start[s + 1] += start[s];
        }
        let mut next = start.clone();
        let mut ix = vec![0u32; items.len()];
        for (i, &(h, _, _)) in items.iter().enumerate() {
            let s = self.stripe_of(h);
            ix[next[s] as usize] = i as u32;
            next[s] += 1;
        }
        StripeOrder { ix, start }
    }

    /// Record one batch call over `items` items that took `runs` stripe
    /// locks.
    fn count_batch(&self, items: usize, runs: usize) {
        self.batch_ops.fetch_add(1, Ordering::Relaxed);
        self.batch_items.fetch_add(items, Ordering::Relaxed);
        self.locks_avoided
            .fetch_add(items - runs, Ordering::Relaxed);
    }

    /// Admit a worker batch of successors, acquiring each stripe lock
    /// once per run instead of once per successor: `items` is grouped by
    /// stripe and admitted run by run. Byte-identical to per-item
    /// [`VisitedStore::admit`] calls in any order, because admission is
    /// min-rank-wins and therefore arrival-order-free.
    pub fn insert_batch(&self, items: &[(u64, Rank, &[u8])]) {
        self.admit_ordered(items, &self.stripe_order(items), &[]);
    }

    /// [`VisitedStore::insert_batch`] over an already built stripe
    /// order, skipping the items `skip` flags: `skip` is empty (skip
    /// nothing) or aligned with `items`. A batch left empty by the skips
    /// counts as no batch at all.
    pub(crate) fn admit_ordered(
        &self,
        items: &[(u64, Rank, &[u8])],
        order: &StripeOrder,
        skip: &[bool],
    ) {
        let live = |&ix: &u32| !skip.get(ix as usize).copied().unwrap_or(false);
        let (mut runs, mut admitted) = (0, 0);
        for (si, run) in order.runs() {
            if !run.iter().any(live) {
                continue;
            }
            let mut stripe = self.stripes[si].lock().expect(POISONED);
            runs += 1;
            for &ix in run.iter().filter(|ix| live(ix)) {
                let (h, r, enc) = items[ix as usize];
                self.admit_locked(&mut stripe, h, enc, r);
                admitted += 1;
            }
        }
        if admitted > 0 {
            self.count_batch(admitted, runs);
        }
    }

    /// The ordered commit's batched winner pass: for each probe
    /// `(hash, rank, enc)` — the chunk's successor list in commit order
    /// — seal it at `epoch` iff it is the committed winner, returning
    /// the per-probe verdicts aligned with the input.
    ///
    /// Equal to calling [`VisitedStore::seal_if_winner`] per probe in
    /// input order: within one state the stored rank is the minimum of
    /// all admitted ranks, so at most one probe of the batch carries a
    /// matching rank — sealing one probe can never flip another probe's
    /// verdict, and the stripe-grouped evaluation order is
    /// unobservable. Call only after every candidate of the round was
    /// admitted (the ordered commit provides that barrier) and before
    /// any further admission.
    pub fn seal_batch(&self, probes: &[(u64, Rank, &[u8])], epoch: u32) -> Vec<bool> {
        self.seal_ordered(probes, &self.stripe_order(probes), epoch)
    }

    /// [`VisitedStore::seal_batch`] over an already built stripe order.
    pub(crate) fn seal_ordered(
        &self,
        probes: &[(u64, Rank, &[u8])],
        order: &StripeOrder,
        epoch: u32,
    ) -> Vec<bool> {
        let mut flags = vec![false; probes.len()];
        if probes.is_empty() {
            return flags;
        }
        let mut runs = 0;
        for (si, run) in order.runs() {
            let mut stripe = self.stripes[si].lock().expect(POISONED);
            runs += 1;
            for &ix in run {
                let (h, r, enc) = probes[ix as usize];
                if let Some(c) = stripe.get_mut(h, enc) {
                    if c.sealed.is_none() && c.rank == r {
                        c.sealed = Some(epoch);
                        flags[ix as usize] = true;
                    }
                }
            }
        }
        self.count_batch(probes.len(), runs);
        flags
    }

    /// Batch-path observability counters:
    /// `(batch calls, items batched, stripe locks avoided)`.
    pub fn batch_stats(&self) -> (usize, usize, usize) {
        (
            self.batch_ops.load(Ordering::Relaxed),
            self.batch_items.load(Ordering::Relaxed),
            self.locks_avoided.load(Ordering::Relaxed),
        )
    }

    /// Whether `(enc, rank)` is the committed winner: the stored
    /// occurrence has exactly this rank and was not sealed by an earlier
    /// round. Call only after every candidate of the round was admitted
    /// (the ordered commit provides that barrier).
    pub fn is_winner(&self, hash: u64, enc: &[u8], rank: Rank) -> bool {
        self.stripe(hash)
            .get(hash, enc)
            .is_some_and(|c| c.sealed.is_none() && c.rank == rank)
    }

    /// Whether the state encoded as `enc` is **sealed** with an epoch
    /// `< epoch_bound` — i.e. committed as a winner in an earlier
    /// frontier level. This is the frontier engine's ignoring-proviso
    /// probe: during a level's worker phase only *this* level's commits
    /// seal (with epoch == the bound), so the probe sees exactly the
    /// states committed through the previous level — a set fixed for
    /// the whole phase and independent of worker count, chunking, or
    /// timing, which keeps the proviso (and with it the whole report)
    /// jobs- and memory-limit-invariant.
    pub fn contains_sealed_before(&self, hash: u64, enc: &[u8], epoch_bound: u32) -> bool {
        self.stripe(hash)
            .get(hash, enc)
            .is_some_and(|c| c.sealed.is_some_and(|ep| ep < epoch_bound))
    }

    /// Whether the state is sealed at any epoch.
    pub fn contains_sealed(&self, hash: u64, enc: &[u8]) -> bool {
        self.contains_sealed_before(hash, enc, u32::MAX)
    }

    /// Seal a committed winner at `epoch`: from now on the state is
    /// *visited* and every later-round candidate loses. Idempotent (the
    /// first epoch sticks).
    pub fn seal(&self, hash: u64, enc: &[u8], epoch: u32) {
        if let Some(c) = self.stripe(hash).get_mut(hash, enc) {
            c.sealed.get_or_insert(epoch);
        }
    }

    /// Remove **all sealed** entries, returning `(hash, epoch, enc)`
    /// triples sorted by `(epoch, hash, enc)` — a deterministic spill
    /// layout regardless of table order. Candidates (unsealed entries)
    /// are left in place: their ranks are still mutable and must stay in
    /// memory. Each stripe is rebuilt from its candidates, so the table
    /// and arena the sealed entries occupied are released.
    pub fn drain_sealed(&self) -> Vec<(u64, u32, Box<[u8]>)> {
        let mut out = Vec::new();
        for stripe in &self.stripes {
            stripe.lock().expect(POISONED).drain_where(
                |c| c.sealed.is_some(),
                |hash, enc, c| {
                    self.count.fetch_sub(1, Ordering::Relaxed);
                    self.payload.fetch_sub(self.raw_of(enc), Ordering::Relaxed);
                    self.stored.fetch_sub(enc.len(), Ordering::Relaxed);
                    out.push((hash, c.sealed.expect("taken for its seal"), enc.into()));
                },
            );
        }
        out.sort_unstable_by(|a, b| (a.1, a.0, &a.2).cmp(&(b.1, b.0, &b.2)));
        out
    }

    /// Like [`VisitedStore::drain_sealed`] but non-destructive — the
    /// checkpoint writer's snapshot of tier-0 sealed entries.
    pub fn sealed_snapshot(&self) -> Vec<(u64, u32, Box<[u8]>)> {
        let mut out = Vec::new();
        for stripe in &self.stripes {
            let s = stripe.lock().expect(POISONED);
            out.extend(
                s.iter()
                    .filter_map(|(hash, enc, c)| Some((hash, c.sealed?, enc.into()))),
            );
        }
        out.sort_unstable_by(|a, b| (a.1, a.0, &a.2).cmp(&(b.1, b.0, &b.2)));
        out
    }

    /// Insert an entry already known to be sealed (resume path). The
    /// rank is immaterial — sealed entries never lose it. A state
    /// already stored is left as it is.
    pub fn insert_sealed(&self, hash: u64, enc: &[u8], epoch: u32) {
        let claim = Claim {
            rank: 0,
            sealed: Some(epoch),
        };
        if self.stripe(hash).get_or_insert(hash, enc, claim).1 {
            self.count_in(enc);
        }
    }

    /// Number of states currently stored (sealed or candidate).
    pub fn len(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }

    /// True when no state is currently stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total *raw* payload bytes the entries stand for (excluding map
    /// overhead) — the numerator of the bytes-per-visited-state stat.
    /// Deliberately the logical (uncompressed) total so the figure is
    /// identical whether compression is on or off.
    pub fn bytes(&self) -> usize {
        self.payload.load(Ordering::Relaxed)
    }

    /// The sum of the stored keys' lengths — what the tiered store's
    /// spill budget bounds (== [`VisitedStore::bytes`] when
    /// uncompressed). Table slots and spare arena capacity are not
    /// counted.
    pub fn stored_bytes(&self) -> usize {
        self.stored.load(Ordering::Relaxed)
    }

    /// Fused [`VisitedStore::is_winner`] + [`VisitedStore::seal`]: seal
    /// at `epoch` and return `true` iff `(enc, rank)` is the committed
    /// winner. One lock acquisition and lookup instead of two — this is
    /// the scalar commit's per-successor path.
    pub fn seal_if_winner(&self, hash: u64, enc: &[u8], rank: Rank, epoch: u32) -> bool {
        match self.stripe(hash).get_mut(hash, enc) {
            Some(c) if c.sealed.is_none() && c.rank == rank => {
                c.sealed = Some(epoch);
                true
            }
            _ => false,
        }
    }
}

impl StateStore for VisitedStore {
    fn admit(&self, hash: u64, enc: &[u8], rank: Rank) {
        VisitedStore::admit(self, hash, enc, rank)
    }

    fn seal_if_winner(&self, hash: u64, enc: &[u8], rank: Rank, epoch: u32) -> bool {
        VisitedStore::seal_if_winner(self, hash, enc, rank, epoch)
    }

    fn contains_sealed_before(&self, hash: u64, enc: &[u8], epoch_bound: u32) -> bool {
        VisitedStore::contains_sealed_before(self, hash, enc, epoch_bound)
    }

    fn len(&self) -> usize {
        VisitedStore::len(self)
    }

    fn bytes(&self) -> usize {
        VisitedStore::bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::super::rank;
    use super::*;
    use crate::state::{encode_state, GlobalState, ObjState};

    fn state() -> Vec<u8> {
        let prog = cfgir::compile("chan c[1]; proc p() { send(c, 1); } process p();").unwrap();
        encode_state(&GlobalState::initial(&prog))
    }

    fn other_state() -> Vec<u8> {
        let prog = cfgir::compile("chan c[1]; proc p() { send(c, 1); } process p();").unwrap();
        let mut s = GlobalState::initial(&prog);
        *s.object_mut(0) = ObjState::Chan {
            queue: [crate::value::Value::Int(7)].into(),
            cap: Some(1),
        };
        encode_state(&s)
    }

    #[test]
    fn smaller_rank_overrides_in_any_arrival_order() {
        let s = state();
        let h = crate::hash::stable_hash_bytes(&s);
        let store = VisitedStore::new(4);
        store.admit(h, &s, rank(3, 1));
        store.admit(h, &s, rank(0, 2)); // late but smaller: evicts
        store.admit(h, &s, rank(5, 0)); // larger: ignored
        assert!(store.is_winner(h, &s, rank(0, 2)));
        assert!(!store.is_winner(h, &s, rank(3, 1)));
    }

    #[test]
    fn sealing_blocks_later_rounds() {
        let s = state();
        let h = crate::hash::stable_hash_bytes(&s);
        let store = VisitedStore::default();
        store.admit(h, &s, rank(1, 0));
        assert!(store.is_winner(h, &s, rank(1, 0)));
        store.seal(h, &s, 1);
        // A later round re-discovers the state with an even smaller
        // rank; the sealed entry must not budge.
        store.admit(h, &s, rank(0, 0));
        assert!(!store.is_winner(h, &s, rank(0, 0)));
        assert_eq!(store.len(), 1);
        assert_eq!(store.bytes(), s.len());
    }

    #[test]
    fn seal_if_winner_matches_the_two_step_protocol() {
        let s = state();
        let h = crate::hash::stable_hash_bytes(&s);
        let store = VisitedStore::default();
        store.admit(h, &s, rank(2, 0));
        store.admit(h, &s, rank(1, 3));
        assert!(
            !store.seal_if_winner(h, &s, rank(2, 0), 1),
            "not the minimum"
        );
        assert!(store.seal_if_winner(h, &s, rank(1, 3), 1));
        // Already sealed: every later candidate loses, like `is_winner`.
        store.admit(h, &s, rank(0, 0));
        assert!(!store.seal_if_winner(h, &s, rank(0, 0), 2));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn contains_sealed_sees_only_committed_rounds() {
        // The proviso probe must ignore same-round (unsealed) admissions
        // — they arrive in timing-dependent order — and hit only entries
        // sealed by an earlier commit.
        let s = state();
        let h = crate::hash::stable_hash_bytes(&s);
        let store = VisitedStore::default();
        assert!(!store.contains_sealed(h, &s), "empty store");
        store.admit(h, &s, rank(0, 0));
        assert!(!store.contains_sealed(h, &s), "candidate, not committed");
        store.seal(h, &s, 3);
        assert!(store.contains_sealed(h, &s));
        let o = other_state();
        let ho = crate::hash::stable_hash_bytes(&o);
        assert!(!store.contains_sealed(ho, &o), "distinct state unaffected");
    }

    #[test]
    fn epoch_bound_hides_same_level_seals() {
        // Chunked level processing seals mid-level with the *current*
        // level's epoch; the proviso probe bounds by epoch so those
        // seals stay invisible until the next level — exactly what a
        // single-chunk (unbounded-memory) run observes.
        let s = state();
        let h = crate::hash::stable_hash_bytes(&s);
        let store = VisitedStore::default();
        store.admit(h, &s, rank(0, 0));
        store.seal(h, &s, 5);
        assert!(!store.contains_sealed_before(h, &s, 5), "same level");
        assert!(store.contains_sealed_before(h, &s, 6), "next level");
    }

    #[test]
    fn colliding_hashes_keep_distinct_states() {
        let a = state();
        let b = other_state();
        assert_ne!(a, b);
        let store = VisitedStore::new(1);
        let fake_hash = 42; // force both under one fingerprint
        store.admit(fake_hash, &a, rank(0, 0));
        store.admit(fake_hash, &b, rank(0, 1));
        assert!(store.is_winner(fake_hash, &a, rank(0, 0)));
        assert!(store.is_winner(fake_hash, &b, rank(0, 1)));
        assert_eq!(store.len(), 2);
        assert_eq!(store.bytes(), a.len() + b.len());
    }

    #[test]
    fn colliding_states_rank_seal_drain_and_reload_independently() {
        // Two distinct states under one hand-picked fingerprint, admitted
        // in an order that puts each one's minimum rank second.
        let (a, b) = (state(), other_state());
        let fp = 0x5EED_0000_0000_0042;
        let store = VisitedStore::new(4);
        store.admit(fp, &a, rank(4, 0));
        store.admit(fp, &b, rank(3, 0));
        store.admit(fp, &a, rank(2, 1));
        store.admit(fp, &b, rank(1, 1));
        assert!(store.is_winner(fp, &a, rank(2, 1)));
        assert!(store.is_winner(fp, &b, rank(1, 1)));
        assert!(!store.is_winner(fp, &a, rank(1, 1)), "b's rank is not a's");
        // Sealing one leaves the other a candidate, in either probe.
        assert!(store.seal_if_winner(fp, &b, rank(1, 1), 2));
        assert!(store.contains_sealed_before(fp, &b, 3));
        assert!(!store.contains_sealed_before(fp, &b, 2), "epoch bound");
        assert!(!store.contains_sealed_before(fp, &a, 3), "a is unsealed");
        store.seal(fp, &a, 1);
        assert!(store.contains_sealed_before(fp, &a, 2));
        assert!(!store.contains_sealed_before(fp, &b, 2));
        // Drain and snapshot agree, in (epoch, hash, key) order.
        let snap = store.sealed_snapshot();
        let drained = store.drain_sealed();
        assert_eq!(snap, drained);
        let want: Vec<(u64, u32, Box<[u8]>)> =
            vec![(fp, 1, a.clone().into()), (fp, 2, b.clone().into())];
        assert_eq!(drained, want);
        assert_eq!(
            (store.len(), store.bytes(), store.stored_bytes()),
            (0, 0, 0)
        );
        // Reloading deduplicates and restores each seal epoch.
        for (h, ep, enc) in drained.iter().chain(&drained) {
            store.insert_sealed(*h, enc, *ep);
        }
        assert_eq!(store.len(), 2);
        assert_eq!(store.bytes(), a.len() + b.len());
        assert!(store.contains_sealed_before(fp, &a, 2));
        assert!(!store.contains_sealed_before(fp, &b, 2));
        assert!(store.contains_sealed_before(fp, &b, 3));
        // Sealed entries keep winning against new candidates.
        store.admit(fp, &a, rank(0, 0));
        assert!(!store.is_winner(fp, &a, rank(0, 0)));
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn drain_keeps_candidates_and_orders_by_epoch_then_hash() {
        let (a, b) = (state(), other_state());
        let store = VisitedStore::new(2);
        for (i, h) in [9u64 << 32, 3 << 32, 5 << 32].into_iter().enumerate() {
            store.admit(h, &a, rank(i, 0));
            store.seal(h, &a, 7 - i as u32 % 2);
        }
        store.admit(1, &b, rank(0, 0)); // a candidate: stays
        let got: Vec<(u64, u32)> = store
            .drain_sealed()
            .into_iter()
            .map(|(h, ep, _)| (h, ep))
            .collect();
        assert_eq!(got, [(3 << 32, 6), (5 << 32, 7), (9 << 32, 7)]);
        assert_eq!(store.len(), 1);
        assert!(store.is_winner(1, &b, rank(0, 0)), "candidate rank kept");
        assert_eq!(store.stored_bytes(), b.len());
    }

    #[test]
    fn drain_sealed_takes_only_sealed_and_sorts() {
        let a = state();
        let b = other_state();
        let (ha, hb) = (
            crate::hash::stable_hash_bytes(&a),
            crate::hash::stable_hash_bytes(&b),
        );
        let store = VisitedStore::new(2);
        store.admit(ha, &a, rank(0, 0));
        store.admit(hb, &b, rank(0, 1));
        store.seal(ha, &a, 1);
        let drained = store.drain_sealed();
        assert_eq!(drained.len(), 1);
        assert_eq!((drained[0].0, drained[0].1), (ha, 1));
        assert_eq!(store.len(), 1, "candidate remains");
        assert_eq!(store.bytes(), b.len());
        // The snapshot variant leaves the store untouched.
        store.seal(hb, &b, 2);
        let snap = store.sealed_snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(store.len(), 1);
        // Reloading a drained entry restores membership at its epoch.
        let (h, ep, enc) = drained.into_iter().next().unwrap();
        store.insert_sealed(h, &enc, ep);
        assert!(store.contains_sealed_before(h, &a, 2));
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn compressed_mode_accounts_raw_and_stored_separately() {
        let prog = cfgir::compile("chan c[1]; proc p() { send(c, 1); } process p();").unwrap();
        let s = GlobalState::initial(&prog);
        let interner = crate::state::ComponentInterner::new();
        let (h, cenc) = s.fingerprint_and_intern(&interner);
        let raw = encode_state(&s).len();
        assert_ne!(cenc.len(), raw, "tuple and raw encoding differ");
        let store = VisitedStore::new_with(2, true);
        store.admit(h, &cenc, rank(0, 0));
        assert_eq!(store.bytes(), raw, "logical total is the raw length");
        assert_eq!(store.stored_bytes(), cenc.len());
        store.seal(h, &cenc, 1);
        let drained = store.drain_sealed();
        assert_eq!((store.bytes(), store.stored_bytes()), (0, 0));
        let (hh, ep, enc) = drained.into_iter().next().unwrap();
        store.insert_sealed(hh, &enc, ep);
        assert_eq!((store.bytes(), store.stored_bytes()), (raw, cenc.len()));
    }

    #[test]
    fn insert_batch_matches_scalar_admission() {
        let a = state();
        let b = other_state();
        let (ha, hb) = (
            crate::hash::stable_hash_bytes(&a),
            crate::hash::stable_hash_bytes(&b),
        );
        let scalar = VisitedStore::new(4);
        let batched = VisitedStore::new(4);
        // Duplicates inside one batch, out-of-order ranks, two states.
        let offers = [
            (ha, rank(3, 1)),
            (hb, rank(0, 0)),
            (ha, rank(1, 2)),
            (ha, rank(5, 0)),
        ];
        for (h, r) in offers {
            let enc = if h == ha { &a } else { &b };
            scalar.admit(h, enc, r);
        }
        let items: Vec<(u64, Rank, &[u8])> = offers
            .iter()
            .map(|&(h, r)| (h, r, if h == ha { a.as_slice() } else { b.as_slice() }))
            .collect();
        batched.insert_batch(&items);
        assert_eq!(scalar.len(), batched.len());
        assert_eq!(scalar.bytes(), batched.bytes());
        for (h, enc, min) in [(ha, &a, rank(1, 2)), (hb, &b, rank(0, 0))] {
            assert_eq!(
                scalar.is_winner(h, enc, min),
                batched.is_winner(h, enc, min)
            );
            assert!(batched.is_winner(h, enc, min));
        }
        let (ops, items_n, avoided) = batched.batch_stats();
        assert_eq!((ops, items_n), (1, 4));
        assert!(avoided <= 3, "at most items - 1 locks can be avoided");
    }

    #[test]
    fn seal_batch_matches_scalar_protocol() {
        let a = state();
        let b = other_state();
        let (ha, hb) = (
            crate::hash::stable_hash_bytes(&a),
            crate::hash::stable_hash_bytes(&b),
        );
        for stripes in [1, 4] {
            let scalar = VisitedStore::new(stripes);
            let batched = VisitedStore::new(stripes);
            for s in [&scalar, &batched] {
                s.admit(ha, &a, rank(2, 0));
                s.admit(ha, &a, rank(1, 3)); // the winner
                s.admit(hb, &b, rank(0, 1));
            }
            // Probes in commit order: a loser, the winner, a duplicate
            // probe of an already-sealed state, and a second state.
            let probes: Vec<(u64, Rank, &[u8])> = vec![
                (ha, rank(2, 0), &a),
                (ha, rank(1, 3), &a),
                (ha, rank(1, 3), &a),
                (hb, rank(0, 1), &b),
            ];
            let want: Vec<bool> = probes
                .iter()
                .map(|&(h, r, enc)| scalar.seal_if_winner(h, enc, r, 7))
                .collect();
            let got = batched.seal_batch(&probes, 7);
            assert_eq!(want, got);
            assert_eq!(got, [false, true, false, true]);
            assert_eq!(
                scalar.contains_sealed_before(ha, &a, 8),
                batched.contains_sealed_before(ha, &a, 8)
            );
        }
    }

    #[test]
    fn concurrent_admission_is_arrival_order_free() {
        let a = state();
        let h = crate::hash::stable_hash_bytes(&a);
        let store = VisitedStore::default();
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let (store, a) = (&store, &a);
                scope.spawn(move || {
                    for i in 0..64 {
                        store.admit(h, a, rank((t as usize + i) % 7 + 1, i));
                    }
                });
            }
        });
        // Minimal rank offered by any thread: item 1, succ 0 pattern —
        // compute it the same way the threads did.
        let min = (0..8u64)
            .flat_map(|t| (0..64).map(move |i| rank((t as usize + i) % 7 + 1, i)))
            .min()
            .unwrap();
        assert!(store.is_winner(h, &a, min));
    }
}

//! Tier 0: a lock-striped canonical-state visited store whose commit
//! order makes the frontier search jobs-invariant.
//!
//! ## Why admission needs an order
//!
//! A visited set makes exploration *order-sensitive*: whichever path
//! reaches a state first claims it, and every later path is pruned. Run
//! that race on worker threads and the claimed-by path — and with it the
//! violation traces, depth statistics, and even the set of expanded
//! states — depends on scheduling. The frontier search removes the race
//! from the *result* without removing the parallelism from the *work*:
//!
//! 1. Workers only **expand**: they read the store (the proviso probe
//!    below) but never write it.
//! 2. After every worker of a chunk has finished, one thread
//!    **commits** the chunk's successors in *commit order* —
//!    `(frontier index, successor index)`, the exact order the
//!    sequential search discovers them in — through
//!    [`VisitedStore::commit`]. An absent state is stored, stamped with
//!    the frontier *epoch* (level) committing it, and that occurrence
//!    wins; every later occurrence, in this chunk or any later one,
//!    finds it present and loses. So the winner is the first occurrence
//!    in commit order, however the threads raced; no rank has to be
//!    stored or compared, because the order is the input's.
//! 3. The epoch stamp is what lets a level be processed in
//!    memory-bounded chunks: the proviso probe
//!    [`VisitedStore::contains_sealed_before`] sees only *earlier-level*
//!    entries, the exact set a single-chunk run sees.
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
//! and the stripe's table holds one inline `(offset, len, seal epoch)`
//! slot per fingerprint, so a stored state costs its key bytes plus one
//! table slot and no allocation of its own. Membership is a `memcmp`
//! against the arena.
//! Because the encoding is injective (see [`crate::state::encode`]),
//! comparing encodings *is* comparing states — the collision-safety
//! rule of [`crate::state`] is preserved verbatim: two distinct states
//! sharing a hash both stay stored (the second on the key set's side
//! list) and never alias, so a collision costs a comparison, not a
//! missed state. The same rule extends to tier 1 (see [`super::disk`]):
//! the fingerprint index only nominates candidates, the stored bytes
//! decide.

use super::keyset::KeySet;
use super::StateStore;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of stripes: enough that 8–16 workers rarely contend, small
/// enough that an empty store is cheap.
pub const STRIPES: usize = 64;

/// One stripe: store keys under their stable hash, each with the epoch
/// that sealed it (see the module docs).
type Stripe = KeySet<u32>;

/// A batch's items grouped by stripe: `ix` lists item indices stripe by
/// stripe, input order kept within a stripe, and stripe `s`'s run is
/// `ix[start[s]..start[s + 1]]`. Built once per commit by a counting
/// sort.
struct StripeOrder {
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
/// commit order.
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
    /// Commit observability (operational, never in the deterministic
    /// report surface): commit calls, items they carried, and stripe-lock
    /// acquisitions the grouping avoided versus one lock per item.
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

    /// Store `enc` in `stripe` sealed at `epoch` unless it is present;
    /// true when it was absent.
    fn insert_locked(&self, stripe: &mut Stripe, hash: u64, enc: &[u8], epoch: u32) -> bool {
        let new = stripe.get_or_insert(hash, enc, epoch).1;
        if new {
            self.count.fetch_add(1, Ordering::Relaxed);
            self.payload.fetch_add(self.raw_of(enc), Ordering::Relaxed);
            self.stored.fetch_add(enc.len(), Ordering::Relaxed);
        }
        new
    }

    /// Store the state encoded as `enc`, sealed at `epoch`, unless it is
    /// present; true when it was absent. A present state keeps the epoch
    /// it was sealed at.
    pub fn insert(&self, hash: u64, enc: &[u8], epoch: u32) -> bool {
        self.insert_locked(&mut self.stripe(hash), hash, enc, epoch)
    }

    /// One chunk's commit: insert each `(hash, enc)` of `items` — the
    /// chunk's successors in commit order — sealed at `epoch`, and flag,
    /// aligned with `items`, the ones that were absent. Of several
    /// occurrences of one state, the first in `items` wins. Each stripe
    /// lock is taken once: the items are grouped by stripe, keeping
    /// their order within a stripe, which is all the first-occurrence
    /// rule needs since equal keys share a stripe.
    pub fn commit(&self, items: &[(u64, &[u8])], epoch: u32) -> Vec<bool> {
        self.commit_skipping(items, &[], epoch)
    }

    /// [`VisitedStore::commit`], leaving out (and flagging `false`) the
    /// items `skip` flags: `skip` is empty (skip nothing) or aligned with
    /// `items`.
    pub(crate) fn commit_skipping(
        &self,
        items: &[(u64, &[u8])],
        skip: &[bool],
        epoch: u32,
    ) -> Vec<bool> {
        let mut won = vec![false; items.len()];
        if items.is_empty() {
            return won;
        }
        let order = self.stripe_order(items);
        let mut runs = 0;
        for (si, run) in order.runs() {
            let mut stripe = self.stripes[si].lock().expect(POISONED);
            runs += 1;
            for &ix in run {
                let ix = ix as usize;
                if !skip.get(ix).copied().unwrap_or(false) {
                    let (h, enc) = items[ix];
                    won[ix] = self.insert_locked(&mut stripe, h, enc, epoch);
                }
            }
        }
        self.batch_ops.fetch_add(1, Ordering::Relaxed);
        self.batch_items.fetch_add(items.len(), Ordering::Relaxed);
        self.locks_avoided
            .fetch_add(items.len() - runs, Ordering::Relaxed);
        won
    }

    /// Group `items` by stripe, keeping input order within a stripe.
    fn stripe_order(&self, items: &[(u64, &[u8])]) -> StripeOrder {
        let n = self.stripes.len();
        let mut start = vec![0u32; n + 1];
        for &(h, _) in items {
            start[self.stripe_of(h) + 1] += 1;
        }
        for s in 0..n {
            start[s + 1] += start[s];
        }
        let mut next = start.clone();
        let mut ix = vec![0u32; items.len()];
        for (i, &(h, _)) in items.iter().enumerate() {
            let s = self.stripe_of(h);
            ix[next[s] as usize] = i as u32;
            next[s] += 1;
        }
        StripeOrder { ix, start }
    }

    /// Commit observability counters:
    /// `(commit calls, items committed, stripe locks avoided)`.
    pub fn batch_stats(&self) -> (usize, usize, usize) {
        (
            self.batch_ops.load(Ordering::Relaxed),
            self.batch_items.load(Ordering::Relaxed),
            self.locks_avoided.load(Ordering::Relaxed),
        )
    }

    /// Whether the state encoded as `enc` is stored with a seal epoch
    /// `< epoch_bound` — i.e. committed in an earlier frontier level.
    /// This is the frontier engine's ignoring-proviso probe: during a
    /// level's worker phase nothing is committed, and the commits of
    /// earlier chunks of the level carry epoch == the bound, so the
    /// probe sees exactly the states committed through the previous
    /// level — a set fixed for the whole phase and independent of worker
    /// count, chunking, or timing, which keeps the proviso (and with it
    /// the whole report) jobs- and memory-limit-invariant.
    pub fn contains_sealed_before(&self, hash: u64, enc: &[u8], epoch_bound: u32) -> bool {
        self.stripe(hash)
            .get(hash, enc)
            .is_some_and(|&ep| ep < epoch_bound)
    }

    /// Remove every entry, returning `(hash, epoch, enc)` triples sorted
    /// by `(epoch, hash, enc)` — a deterministic spill layout regardless
    /// of table order. Each stripe is taken whole, so its table and arena
    /// are released.
    pub fn drain_sealed(&self) -> Vec<(u64, u32, Box<[u8]>)> {
        let mut out = Vec::with_capacity(self.len());
        for stripe in &self.stripes {
            let taken = std::mem::take(&mut *stripe.lock().expect(POISONED));
            out.extend(taken.iter().map(|(hash, enc, &ep)| {
                self.count.fetch_sub(1, Ordering::Relaxed);
                self.payload.fetch_sub(self.raw_of(enc), Ordering::Relaxed);
                self.stored.fetch_sub(enc.len(), Ordering::Relaxed);
                (hash, ep, enc.into())
            }));
        }
        out.sort_unstable_by(|a, b| (a.1, a.0, &a.2).cmp(&(b.1, b.0, &b.2)));
        out
    }

    /// Like [`VisitedStore::drain_sealed`] but non-destructive — the
    /// checkpoint writer's snapshot of tier 0.
    pub fn sealed_snapshot(&self) -> Vec<(u64, u32, Box<[u8]>)> {
        let mut out = Vec::with_capacity(self.len());
        for stripe in &self.stripes {
            let s = stripe.lock().expect(POISONED);
            out.extend(s.iter().map(|(hash, enc, &ep)| (hash, ep, enc.into())));
        }
        out.sort_unstable_by(|a, b| (a.1, a.0, &a.2).cmp(&(b.1, b.0, &b.2)));
        out
    }

    /// Number of states currently stored.
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
}

impl StateStore for VisitedStore {
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
    fn sealing_blocks_later_rounds() {
        let s = state();
        let h = crate::hash::stable_hash_bytes(&s);
        let store = VisitedStore::default();
        assert_eq!(store.commit(&[(h, &s)], 1), [true]);
        // A later round re-discovers the state; the first seal stands.
        assert_eq!(store.commit(&[(h, &s)], 2), [false]);
        assert!(!store.insert(h, &s, 0));
        assert!(!store.contains_sealed_before(h, &s, 1), "epoch 1 kept");
        assert!(store.contains_sealed_before(h, &s, 2));
        assert_eq!(store.len(), 1);
        assert_eq!(store.bytes(), s.len());
    }

    #[test]
    fn contains_sealed_sees_only_committed_rounds() {
        let s = state();
        let h = crate::hash::stable_hash_bytes(&s);
        let store = VisitedStore::default();
        assert!(
            !store.contains_sealed_before(h, &s, u32::MAX),
            "empty store"
        );
        store.commit(&[(h, &s)], 3);
        assert!(store.contains_sealed_before(h, &s, u32::MAX));
        let o = other_state();
        let ho = crate::hash::stable_hash_bytes(&o);
        assert!(
            !store.contains_sealed_before(ho, &o, u32::MAX),
            "distinct state unaffected"
        );
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
        store.commit(&[(h, &s)], 5);
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
        let items: [(u64, &[u8]); 3] = [(fake_hash, &a), (fake_hash, &b), (fake_hash, &a)];
        assert_eq!(store.commit(&items, 1), [true, true, false]);
        assert_eq!(store.len(), 2);
        assert_eq!(store.bytes(), a.len() + b.len());
    }

    #[test]
    fn colliding_states_seal_drain_and_reload_independently() {
        // Two distinct states under one hand-picked fingerprint, sealed
        // at different epochs.
        let (a, b) = (state(), other_state());
        let fp = 0x5EED_0000_0000_0042;
        let store = VisitedStore::new(4);
        assert!(store.insert(fp, &b, 2));
        assert!(store.contains_sealed_before(fp, &b, 3));
        assert!(!store.contains_sealed_before(fp, &b, 2), "epoch bound");
        assert!(!store.contains_sealed_before(fp, &a, 3), "a is absent");
        assert!(store.insert(fp, &a, 1));
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
            store.insert(*h, enc, *ep);
        }
        assert_eq!(store.len(), 2);
        assert_eq!(store.bytes(), a.len() + b.len());
        assert!(store.contains_sealed_before(fp, &a, 2));
        assert!(!store.contains_sealed_before(fp, &b, 2));
        assert!(store.contains_sealed_before(fp, &b, 3));
    }

    #[test]
    fn drain_orders_by_epoch_then_hash_and_empties_the_store() {
        let (a, b) = (state(), other_state());
        let store = VisitedStore::new(2);
        for (i, h) in [9u64 << 32, 3 << 32, 5 << 32].into_iter().enumerate() {
            store.insert(h, &a, 7 - i as u32 % 2);
        }
        store.insert(1, &b, 8);
        // The snapshot leaves the store as it is.
        assert_eq!(store.sealed_snapshot().len(), 4);
        assert_eq!(store.len(), 4);
        let got: Vec<(u64, u32)> = store
            .drain_sealed()
            .into_iter()
            .map(|(h, ep, _)| (h, ep))
            .collect();
        assert_eq!(got, [(3 << 32, 6), (5 << 32, 7), (9 << 32, 7), (1, 8)]);
        assert_eq!((store.len(), store.stored_bytes()), (0, 0));
        assert!(!store.contains_sealed_before(1, &b, u32::MAX));
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
        store.commit(&[(h, &cenc)], 1);
        assert_eq!(store.bytes(), raw, "logical total is the raw length");
        assert_eq!(store.stored_bytes(), cenc.len());
        let drained = store.drain_sealed();
        assert_eq!((store.bytes(), store.stored_bytes()), (0, 0));
        let (hh, ep, enc) = drained.into_iter().next().unwrap();
        store.insert(hh, &enc, ep);
        assert_eq!((store.bytes(), store.stored_bytes()), (raw, cenc.len()));
    }

    #[test]
    fn commit_counts_one_batch_and_one_lock_per_stripe_run() {
        let (a, b) = (state(), other_state());
        let store = VisitedStore::new(4);
        // Stripes 0, 1, 0, 0: two runs over four items.
        let items: [(u64, &[u8]); 4] = [(0, &a), (1 << 32, &b), (0, &a), (4 << 32, &b)];
        assert_eq!(store.commit(&items, 1), [true, true, false, true]);
        assert_eq!(store.batch_stats(), (1, 4, 2));
        assert!(store.commit(&[], 2).is_empty());
        assert_eq!(
            store.batch_stats(),
            (1, 4, 2),
            "an empty commit is no batch"
        );
    }
}

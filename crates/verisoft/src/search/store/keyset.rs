//! The one fingerprint-keyed key set behind every visited structure of
//! the stateful engines: tier 0 ([`super::mem`], one set per partition),
//! the tier-1 fingerprint index ([`super::index`], likewise) and the
//! depth-first search's visited set. The transition memo's schedule
//! table keys its schedules with it too.
//!
//! ## Layout
//!
//! A set holds byte-string keys under their 64-bit fingerprints, with
//! one payload `V` per key, in three flat parts:
//!
//! - the **arena**, one `Vec<u8>` every key's bytes are appended to;
//! - the **table**, one inline `(offset, len, V)` slot per fingerprint,
//!   keyed by the fingerprint under the pass-through [`FpBuildHasher`]
//!   (the fingerprint is already a mixed digest);
//! - the **side list** of further distinct keys that share a fingerprint
//!   with a table slot, in insertion order.
//!
//! A stored key thus costs its bytes in the arena plus one table slot,
//! and no allocation of its own. Keys are still compared byte for byte,
//! so two distinct states sharing a fingerprint never alias — the
//! collision-safety rule of [`crate::state::encode`]: a collision costs
//! a scan of the side list, never a missed state. Every side-list
//! fingerprint also has a table slot, so a probe that misses the table
//! never looks at the side list.
//!
//! A user whose keys live elsewhere (the tier-1 index: its keys are on
//! disk, its payloads say where) stores empty keys with
//! [`KeySet::push`] and reads a fingerprint's payloads in insertion
//! order with [`KeySet::values`]; its arena stays empty.

use crate::hash::FpBuildHasher;
use std::collections::hash_map::{Entry, HashMap};

/// Bits of a [`Slot`]'s span that hold the key length; the rest hold
/// the arena offset. Keys up to 16 MiB in arenas up to 1 TiB.
const LEN_BITS: u32 = 24;

/// One stored key: its span of the arena, packed as
/// `offset << LEN_BITS | len`, and its payload.
struct Slot<V> {
    span: u64,
    val: V,
}

/// Append `key` to `arena` and return its slot.
fn append<V>(arena: &mut Vec<u8>, key: &[u8], val: V) -> Slot<V> {
    let off = arena.len() as u64;
    assert!(
        key.len() < 1 << LEN_BITS && off < 1 << (64 - LEN_BITS),
        "key set: a {} B key past offset {off} exceeds the arena's span encoding",
        key.len()
    );
    arena.extend_from_slice(key);
    Slot {
        span: off << LEN_BITS | key.len() as u64,
        val,
    }
}

/// The bytes of `s`'s key.
#[inline]
fn key_of<'a, V>(arena: &'a [u8], s: &Slot<V>) -> &'a [u8] {
    let off = (s.span >> LEN_BITS) as usize;
    &arena[off..off + (s.span & ((1 << LEN_BITS) - 1)) as usize]
}

/// A set of byte-string keys under their fingerprints, each with a
/// payload. See the module docs for the layout. An empty set allocates
/// nothing.
pub(crate) struct KeySet<V> {
    table: HashMap<u64, Slot<V>, FpBuildHasher>,
    side: Vec<(u64, Slot<V>)>,
    arena: Vec<u8>,
}

impl<V> Default for KeySet<V> {
    fn default() -> Self {
        KeySet {
            table: HashMap::default(),
            side: Vec::new(),
            arena: Vec::new(),
        }
    }
}

impl<V> KeySet<V> {
    /// Number of keys stored.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.table.len() + self.side.len()
    }

    /// The payload of `key` under `fp`.
    pub(crate) fn get(&self, fp: u64, key: &[u8]) -> Option<&V> {
        let s = self.table.get(&fp)?;
        if key_of(&self.arena, s) == key {
            return Some(&s.val);
        }
        self.side
            .iter()
            .find(|(f, s)| *f == fp && key_of(&self.arena, s) == key)
            .map(|(_, s)| &s.val)
    }

    /// Whether `key` is stored under `fp`.
    pub(crate) fn contains(&self, fp: u64, key: &[u8]) -> bool {
        self.get(fp, key).is_some()
    }

    /// The payload of `key` under `fp`, storing `key` with `val` first
    /// if it is absent; the flag is true when it was absent.
    pub(crate) fn get_or_insert(&mut self, fp: u64, key: &[u8], val: V) -> (&mut V, bool) {
        let arena = &mut self.arena;
        let s = match self.table.entry(fp) {
            Entry::Vacant(v) => return (&mut v.insert(append(arena, key, val)).val, true),
            Entry::Occupied(o) => o.into_mut(),
        };
        if key_of(arena, s) == key {
            return (&mut s.val, false);
        }
        let side = &mut self.side;
        match side
            .iter()
            .position(|(f, s)| *f == fp && key_of(arena, s) == key)
        {
            Some(i) => (&mut side[i].1.val, false),
            None => {
                side.push((fp, append(arena, key, val)));
                let last = side.last_mut().expect("just pushed");
                (&mut last.1.val, true)
            }
        }
    }

    /// Store `key` with `val` without looking for an equal key first —
    /// for keys known to be absent, and for the empty keys of a user
    /// that keeps its keys elsewhere.
    pub(crate) fn push(&mut self, fp: u64, key: &[u8], val: V) {
        let slot = append(&mut self.arena, key, val);
        match self.table.entry(fp) {
            Entry::Vacant(v) => {
                v.insert(slot);
            }
            Entry::Occupied(_) => self.side.push((fp, slot)),
        }
    }

    /// Every payload stored under `fp`, in insertion order.
    pub(crate) fn values(&self, fp: u64) -> impl Iterator<Item = &V> {
        let first = self.table.get(&fp);
        // The side list holds only fingerprints the table holds too.
        let side = if first.is_some() { &self.side[..] } else { &[] };
        first
            .into_iter()
            .chain(side.iter().filter(move |(f, _)| *f == fp).map(|(_, s)| s))
            .map(|s| &s.val)
    }

    /// Every `(fingerprint, key, payload)`, in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &[u8], &V)> {
        self.table
            .iter()
            .map(|(&fp, s)| (fp, s))
            .chain(self.side.iter().map(|(fp, s)| (*fp, s)))
            .map(|(fp, s)| (fp, key_of(&self.arena, s), &s.val))
    }
}

impl KeySet<()> {
    /// Store `key` under `fp`; true when it was absent.
    pub(crate) fn insert(&mut self, fp: u64, key: &[u8]) -> bool {
        self.get_or_insert(fp, key, ()).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One fingerprint shared by every key below: a hand-picked
    /// collision.
    const FP: u64 = 0x5EED_0000_0000_0042;

    #[test]
    fn colliding_keys_keep_their_own_payloads() {
        let mut set = KeySet::default();
        assert!(set.get(FP, b"a").is_none(), "empty");
        assert!(set.get_or_insert(FP, b"a", 1).1);
        assert!(set.get_or_insert(FP, b"bb", 2).1);
        assert!(set.get_or_insert(FP, b"", 3).1);
        assert_eq!(set.len(), 3);
        let (v, new) = set.get_or_insert(FP, b"bb", 9);
        assert!(!new, "present: the offered payload is dropped");
        *v += 10;
        assert_eq!(
            [b"a".as_slice(), b"bb", b""].map(|k| set.get(FP, k).copied()),
            [Some(1), Some(12), Some(3)]
        );
        assert!(set.get(FP, b"c").is_none(), "fingerprint hit, key miss");
        assert!(set.get(FP + 1, b"a").is_none(), "key hit, fingerprint miss");
        assert_eq!(set.values(FP).copied().collect::<Vec<_>>(), [1, 12, 3]);
    }

    #[test]
    fn a_tier_0_table_entry_is_24_bytes() {
        // The fingerprint and a slot whose payload is the seal epoch.
        assert_eq!(std::mem::size_of::<(u64, Slot<u32>)>(), 24);
    }

    #[test]
    fn keyless_payloads_come_back_in_insertion_order() {
        let mut set = KeySet::default();
        for v in [5, 1, 4] {
            set.push(FP, &[], v);
        }
        set.push(7, &[], 0);
        assert_eq!(set.values(FP).copied().collect::<Vec<_>>(), [5, 1, 4]);
        assert_eq!(set.values(7).copied().collect::<Vec<_>>(), [0]);
        assert_eq!(set.values(8).count(), 0);
        assert_eq!(set.arena.capacity(), 0, "no key bytes, no arena");
    }

    #[test]
    fn unit_set_inserts_once_per_distinct_key() {
        let mut set = KeySet::default();
        assert!(set.insert(FP, b"x"));
        assert!(set.insert(FP, b"y"), "shared fingerprint, distinct key");
        assert!(!set.insert(FP, b"x"));
        assert!(!set.insert(FP, b"y"));
        assert!(set.contains(FP, b"x") && set.contains(FP, b"y"));
        assert!(!set.contains(FP, b"z"));
        assert_eq!(set.len(), 2);
    }
}

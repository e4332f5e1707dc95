//! Copy-on-write state components with memoized stable sub-hashes.
//!
//! A [`CowArc`] is an `Arc` whose payload carries a lazily computed,
//! *toolchain-stable* 64-bit hash of the component's canonical encoding
//! (see [`super::encode`]). Cloning a [`CowArc`] is a reference-count
//! bump; mutating one goes through [`CowArc::make_mut`], which — like
//! `Arc::make_mut` — copies the payload only when it is shared, and
//! *always* discards the cached hash, so a stale sub-hash can never
//! outlive a mutation. That single-entry-point discipline is the CoW
//! invariant the explorer relies on (docs/EXPLORER.md §4): every
//! successor state shares the components its transition did not touch,
//! and every shared component contributes a cached 64-bit word to
//! [`super::GlobalState::fingerprint`] instead of being re-traversed.

use super::encode::Encode;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// Payload of a [`CowArc`]: the value plus its memoized sub-hash and
/// interner memo. Both caches are computed at most once per allocation;
/// [`CowArc::make_mut`] (and the clone it may perform) resets them
/// together, so neither can outlive a mutation.
#[derive(Debug)]
struct Inner<T> {
    hash: OnceLock<u64>,
    /// `(interner token, component id, encoded len)` — the component's
    /// dense ID under the run's [`super::intern::ComponentInterner`],
    /// tagged with that interner's unique token so a memo from one run
    /// can never satisfy another run's interner.
    intern: OnceLock<(u64, u32, u32)>,
    value: T,
}

impl<T: Clone> Clone for Inner<T> {
    fn clone(&self) -> Self {
        // A fresh allocation starts with no cached hash or interner
        // memo: the only caller is `Arc::make_mut`, whose borrower is
        // about to mutate.
        Inner {
            hash: OnceLock::new(),
            intern: OnceLock::new(),
            value: self.value.clone(),
        }
    }
}

/// A shared, copy-on-write state component with a memoized stable
/// sub-hash of its canonical encoding.
#[derive(Debug, Clone)]
pub struct CowArc<T> {
    inner: Arc<Inner<T>>,
}

impl<T> CowArc<T> {
    /// Wrap a freshly built component.
    pub fn new(value: T) -> Self {
        CowArc {
            inner: Arc::new(Inner {
                hash: OnceLock::new(),
                intern: OnceLock::new(),
                value,
            }),
        }
    }

    /// Whether two handles share one allocation (the sharing fast path;
    /// also the [`super::GlobalState::sharing_with`] counter).
    #[inline]
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        Arc::ptr_eq(&a.inner, &b.inner)
    }
}

impl<T: Clone> CowArc<T> {
    /// Mutable access, copying the component when it is shared. The
    /// cached sub-hash is unconditionally dropped — this is the *only*
    /// mutation path, so the cache can never go stale.
    #[inline]
    pub fn make_mut(&mut self) -> &mut T {
        let inner = Arc::make_mut(&mut self.inner);
        inner.hash = OnceLock::new();
        inner.intern = OnceLock::new();
        &mut inner.value
    }
}

impl<T: Encode> CowArc<T> {
    /// The component's stable sub-hash: a
    /// [`crate::hash::StableHasher`] digest of its canonical encoding,
    /// computed once per allocation and cached.
    #[inline]
    pub fn sub_hash(&self) -> u64 {
        *self
            .inner
            .hash
            .get_or_init(|| sub_hash_of(&self.inner.value))
    }
}

impl<T: Encode> CowArc<T> {
    /// [`CowArc::sub_hash`], but seeded from `bytes` — this component's
    /// canonical encoding, already produced by a caller that is encoding
    /// the whole state — when the cache is cold. Skips the private
    /// re-encoding `sub_hash` would perform. `bytes` must be exactly
    /// `self`'s encoding; debug builds assert it.
    #[inline]
    pub(super) fn sub_hash_from_encoding(&self, bytes: &[u8]) -> u64 {
        debug_assert_eq!(
            {
                let mut buf = Vec::new();
                self.inner.value.encode(&mut buf);
                buf
            },
            bytes,
            "sub_hash_from_encoding fed bytes that are not this component's encoding"
        );
        *self
            .inner
            .hash
            .get_or_init(|| crate::hash::stable_hash_bytes(bytes))
    }
}

impl<T: Encode> CowArc<T> {
    /// The warm half of the component-interning protocol (see
    /// [`super::GlobalState::fingerprint_and_intern`]): `(id, len)` when
    /// the memo matches `token`, without touching any bytes. A `None`
    /// means the caller should encode the component
    /// ([`CowArc::encode_for_intern`]) and intern it. `make_mut`
    /// drops the memo with the hash, so a successor re-encodes only the
    /// components its transition mutated.
    #[inline]
    pub(super) fn intern_memo(&self, token: u64) -> Option<(u32, u32)> {
        match self.inner.intern.get() {
            Some(&(t, id, len)) if t == token => Some((id, len)),
            _ => None,
        }
    }

    /// The cold half, step one: replace `enc`'s contents with the
    /// component's canonical encoding (a reused buffer, so a cold
    /// component costs no allocation of its own), seed the sub-hash
    /// cache from those bytes, and return the sub-hash.
    pub(super) fn encode_for_intern(&self, enc: &mut Vec<u8>) -> u64 {
        enc.clear();
        self.inner.value.encode(enc);
        self.sub_hash_from_encoding(enc)
    }

    /// The cold half, step two: memoize the interner-assigned `(id, len)`
    /// under `token` (first writer wins, like the sub-hash cache).
    #[inline]
    pub(super) fn set_intern_memo(&self, token: u64, id: u32, len: u32) {
        let _ = self.inner.intern.set((token, id, len));
    }
}

/// The from-scratch sub-hash of a component: what [`CowArc::sub_hash`]
/// caches. Exposed so `fingerprint` can assert the cache never drifts.
pub(super) fn sub_hash_of<T: Encode>(value: &T) -> u64 {
    let mut buf = Vec::with_capacity(64);
    value.encode(&mut buf);
    crate::hash::stable_hash_bytes(&buf)
}

impl<T> Deref for CowArc<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.inner.value
    }
}

impl<T: PartialEq> PartialEq for CowArc<T> {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        // Sharing implies equality; distinct allocations fall back to
        // the value comparison, so equality stays purely value-based.
        CowArc::ptr_eq(self, other) || self.inner.value == other.inner.value
    }
}

impl<T: Eq> Eq for CowArc<T> {}

impl<T: std::hash::Hash> std::hash::Hash for CowArc<T> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.inner.value.hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::super::ObjState;
    use super::*;
    use crate::value::Value;

    fn sem(n: i64) -> CowArc<ObjState> {
        CowArc::new(ObjState::Sem(n))
    }

    #[test]
    fn clone_shares_and_make_mut_unshares() {
        let a = sem(3);
        let b = a.clone();
        assert!(CowArc::ptr_eq(&a, &b));
        let mut c = b.clone();
        match c.make_mut() {
            ObjState::Sem(n) => *n = 4,
            _ => unreachable!(),
        }
        assert!(!CowArc::ptr_eq(&a, &c));
        assert_eq!(*a, ObjState::Sem(3), "original untouched");
        assert_eq!(*c, ObjState::Sem(4));
    }

    #[test]
    fn equality_is_value_based_across_allocations() {
        let a = sem(7);
        let b = sem(7);
        assert!(!CowArc::ptr_eq(&a, &b));
        assert_eq!(a, b);
        assert_eq!(a.sub_hash(), b.sub_hash());
        assert_ne!(a, sem(8));
    }

    #[test]
    fn make_mut_invalidates_cached_hash() {
        let mut a = CowArc::new(ObjState::Shared(Value::Int(1)));
        let h1 = a.sub_hash();
        // Unique handle: make_mut mutates in place, and must still drop
        // the cache.
        match a.make_mut() {
            ObjState::Shared(v) => *v = Value::Int(2),
            _ => unreachable!(),
        }
        let h2 = a.sub_hash();
        assert_ne!(h1, h2);
        assert_eq!(h2, sub_hash_of(&*a), "cache matches a fresh computation");
        // Shared handle: make_mut copies; the copy's cache starts empty.
        let b = a.clone();
        let mut c = b.clone();
        let _ = c.sub_hash();
        match c.make_mut() {
            ObjState::Shared(v) => *v = Value::Int(3),
            _ => unreachable!(),
        }
        assert_eq!(c.sub_hash(), sub_hash_of(&*c));
        assert_eq!(b.sub_hash(), h2, "donor keeps its own hash");
    }
}

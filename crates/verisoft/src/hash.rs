//! Stable hashing for state fingerprints and partition/shard keys.
//!
//! The implementation lives in the dependency-free [`stablehash`] crate
//! so the closing pipeline (`closer`) and the IR (`cfgir`) can key
//! content-addressed artifacts with the *same* digests the explorer
//! logs next to counterexamples; this module re-exports it under the
//! historical `verisoft::hash` paths.
//!
//! Collisions remain possible, of course; every consumer that needs
//! soundness (the stateful visited stores) keys buckets by the hash but
//! compares full states, per the collision-safety rule in
//! [`crate::state`].

pub use stablehash::{
    mix64, stable_hash, stable_hash_bytes, FpBuildHasher, FpHasher, StableBuildHasher, StableHasher,
};

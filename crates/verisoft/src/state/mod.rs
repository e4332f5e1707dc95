//! Global states of a concurrent system.
//!
//! A [`GlobalState`] is the complete, cloneable, hashable snapshot: every
//! process's memory (per-process globals plus a call stack of frames) and
//! every communication object's contents. Per §2 of the paper, the system
//! is in a *global state* when the next operation of every process is a
//! visible operation (or the process has terminated).
//!
//! ## Representation: copy-on-write structural sharing
//!
//! The explorer clones a state per successor, and switch-software state
//! spaces run to millions of states — so the snapshot is *structurally
//! shared*, in the style of explicit-state model checkers:
//!
//! - each process and each object lives behind a [`CowArc`] (an `Arc`
//!   with a memoized stable sub-hash of its canonical encoding), so
//!   `GlobalState::clone` is `procs + objects` reference-count bumps;
//! - inside a [`ProcState`], the per-process globals are one shared
//!   `Arc<Vec<Value>>` and each stack frame is its own `Arc<Frame>`, so
//!   a deep call stack copies only the frame a transition touches;
//! - all mutation funnels through [`GlobalState::proc_mut`] /
//!   [`GlobalState::object_mut`] (and, inside a process,
//!   `Arc::make_mut`), which copy a component only when it is shared
//!   and invalidate its cached sub-hash.
//!
//! Equality and `Hash` stay **value-based** (the `Arc` layers delegate
//! to their payloads, with pointer-equality fast paths), so search
//! semantics, partial-order reduction ([`crate::por`]), and every
//! report are unaffected by how much happens to be shared.
//!
//! [`GlobalState::fingerprint`] combines the components' cached
//! sub-hashes instead of re-traversing the snapshot; see its docs for
//! the stability and collision-safety contract.

mod cow;
pub mod encode;
pub mod intern;

pub use cow::CowArc;
pub use encode::{decode_state, encode_state};
pub(crate) use intern::TransitionMemo;
pub use intern::{ComponentCache, ComponentInterner};

use crate::value::{Addr, Value};
use cfgir::{CfgProgram, NodeId, ObjId, ProcId, VarId, VarKind};
use encode::Encode;
use minic::sema::ObjectKind;
use std::collections::VecDeque;
use std::hash::Hasher;
use std::sync::Arc;

/// The `ProcState::spec` value for a dynamically spawned instance of
/// `proc`: indices at or past `prog.processes.len()` have no static
/// [`cfgir::ProcessSpec`] — their arguments were bound at the spawn site
/// and they are never daemons.
pub fn dynamic_spec(prog: &CfgProgram, proc: ProcId) -> usize {
    prog.processes.len() + proc.index()
}

/// The procedure a `spec` value instantiates (static or dynamic).
pub fn spec_proc(prog: &CfgProgram, spec: usize) -> ProcId {
    match prog.processes.get(spec) {
        Some(ps) => ps.proc,
        None => ProcId((spec - prog.processes.len()) as u32),
    }
}

/// Whether `spec` names a daemon process. Dynamic instances never are.
pub fn spec_daemon(prog: &CfgProgram, spec: usize) -> bool {
    prog.processes.get(spec).is_some_and(|ps| ps.daemon)
}

/// Display name for `spec`: the static process name, or `proc*` for a
/// dynamically spawned instance.
pub fn spec_display_name(prog: &CfgProgram, spec: usize) -> String {
    match prog.processes.get(spec) {
        Some(ps) => ps.name.clone(),
        None => format!("{}*", prog.proc(spec_proc(prog, spec)).name),
    }
}

/// One stack frame.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Frame {
    /// The procedure this frame executes.
    pub proc: ProcId,
    /// Local slots, indexed by [`VarId`] (global-kind slots unused).
    pub locals: Vec<Value>,
    /// Where the caller stores the returned value.
    pub ret_dst: Option<VarId>,
    /// Caller node to resume *after* this frame returns (the unique
    /// successor of the call node); `None` for the top-level frame.
    pub cont: Option<NodeId>,
}

/// Where a process is in its execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Status {
    /// About to execute the given node of the top frame's procedure.
    AtNode(NodeId),
    /// The top-level procedure executed a termination statement. Per the
    /// paper, top-level termination blocks forever (the process count is
    /// constant).
    Terminated,
}

/// The state of one process.
///
/// Globals and frames are `Arc`-backed so that cloning a process (which
/// happens implicitly whenever a shared [`CowArc<ProcState>`] is
/// mutated) copies only the component the mutation touches. Equality
/// and `Hash` remain value-based: `Arc` delegates both to its payload.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProcState {
    /// Index into [`CfgProgram::processes`].
    pub spec: usize,
    /// Per-process global storage; shared until first written, so N
    /// identical processes keep one allocation at start.
    pub globals: Arc<Vec<Value>>,
    /// The call stack; never empty while running. Each frame is shared
    /// until first written, so pushing or mutating the top frame leaves
    /// the frames below untouched allocations.
    pub frames: Vec<Arc<Frame>>,
    /// Position.
    pub status: Status,
}

impl ProcState {
    /// The current frame.
    ///
    /// # Panics
    ///
    /// Panics for terminated processes (their stack is gone).
    pub fn top(&self) -> &Frame {
        self.frames.last().expect("running process has a frame")
    }

    /// Mutable access to the current frame, copying it if shared.
    ///
    /// # Panics
    ///
    /// Panics for terminated processes (their stack is gone).
    pub fn top_mut(&mut self) -> &mut Frame {
        Arc::make_mut(self.frames.last_mut().expect("running process has a frame"))
    }

    /// Read a variable of the current frame (dispatching globals).
    pub fn read(&self, prog: &CfgProgram, var: VarId) -> Value {
        let frame = self.top();
        match prog.proc(frame.proc).var(var).kind {
            VarKind::Global(g) => self.globals[g.index()],
            _ => frame.locals[var.index()],
        }
    }

    /// Write a variable of the current frame (dispatching globals).
    pub fn write(&mut self, prog: &CfgProgram, var: VarId, v: Value) {
        let proc = self.top().proc;
        match prog.proc(proc).var(var).kind {
            VarKind::Global(g) => Arc::make_mut(&mut self.globals)[g.index()] = v,
            _ => self.top_mut().locals[var.index()] = v,
        }
    }

    /// The address of a variable of the current frame.
    pub fn addr_of(&self, prog: &CfgProgram, var: VarId) -> Addr {
        let frame = self.top();
        match prog.proc(frame.proc).var(var).kind {
            VarKind::Global(g) => Addr::Global(g),
            _ => Addr::Stack {
                depth: (self.frames.len() - 1) as u32,
                var,
            },
        }
    }

    /// Read through an address.
    pub fn read_addr(&self, a: Addr) -> Option<Value> {
        match a {
            Addr::Global(g) => self.globals.get(g.index()).copied(),
            Addr::Stack { depth, var } => self
                .frames
                .get(depth as usize)
                .and_then(|f| f.locals.get(var.index()))
                .copied(),
        }
    }

    /// Write through an address; false when dangling. (The shared
    /// backing is copied only after the address validates, so a
    /// dangling write never forces an allocation.)
    pub fn write_addr(&mut self, a: Addr, v: Value) -> bool {
        match a {
            Addr::Global(g) => {
                if g.index() < self.globals.len() {
                    Arc::make_mut(&mut self.globals)[g.index()] = v;
                    true
                } else {
                    false
                }
            }
            Addr::Stack { depth, var } => match self.frames.get_mut(depth as usize) {
                Some(f) if var.index() < f.locals.len() => {
                    Arc::make_mut(f).locals[var.index()] = v;
                    true
                }
                _ => false,
            },
        }
    }
}

/// The runtime state of one communication object.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ObjState {
    /// A FIFO channel: queued values and capacity (`None` = external,
    /// never blocks).
    Chan {
        /// Queued values, front is next to receive.
        queue: VecDeque<Value>,
        /// Capacity; `None` for external channels.
        cap: Option<u32>,
    },
    /// A counting semaphore.
    Sem(i64),
    /// A shared variable.
    Shared(Value),
}

/// A complete global state.
///
/// Cloning is O(components) reference-count bumps; a successor built by
/// cloning and then mutating through [`GlobalState::proc_mut`] /
/// [`GlobalState::object_mut`] copies only what the transition touched.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GlobalState {
    /// One entry per process, aligned with [`CfgProgram::processes`].
    pub procs: Vec<CowArc<ProcState>>,
    /// One entry per object, aligned with [`CfgProgram::objects`].
    pub objects: Vec<CowArc<ObjState>>,
}

impl GlobalState {
    /// The state at process creation: every process positioned at the
    /// start node of its top-level procedure, objects at their initial
    /// values. (Environment-supplied spawn parameters are written during
    /// initialization by the interpreter, which may branch.)
    ///
    /// The initial globals vector is built **once** and shared by every
    /// process, and processes instantiating the same procedure share one
    /// initial frame — N identical processes cost O(1) allocations here,
    /// not O(N) copies of `prog.globals`.
    pub fn initial(prog: &CfgProgram) -> GlobalState {
        let objects = prog
            .objects
            .iter()
            .map(|o| {
                CowArc::new(match o.kind {
                    ObjectKind::Chan => ObjState::Chan {
                        queue: VecDeque::new(),
                        cap: o.capacity,
                    },
                    ObjectKind::ExternChan => ObjState::Chan {
                        queue: VecDeque::new(),
                        cap: None,
                    },
                    ObjectKind::Sem => ObjState::Sem(o.initial),
                    ObjectKind::Shared => ObjState::Shared(Value::Int(o.initial)),
                })
            })
            .collect();
        let globals: Arc<Vec<Value>> =
            Arc::new(prog.globals.iter().map(|g| Value::Int(g.initial)).collect());
        // One initial frame per distinct procedure, shared by all
        // processes that instantiate it.
        let mut frame_templates: Vec<Option<Arc<Frame>>> = vec![None; prog.procs.len()];
        let procs = prog
            .processes
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let proc = prog.proc(spec.proc);
                let frame = frame_templates[spec.proc.index()]
                    .get_or_insert_with(|| {
                        Arc::new(Frame {
                            proc: spec.proc,
                            locals: vec![Value::default(); proc.vars.len()],
                            ret_dst: None,
                            cont: None,
                        })
                    })
                    .clone();
                CowArc::new(ProcState {
                    spec: i,
                    globals: Arc::clone(&globals),
                    frames: vec![frame],
                    status: Status::AtNode(proc.start),
                })
            })
            .collect();
        GlobalState { procs, objects }
    }

    /// The object state.
    pub fn object(&self, o: ObjId) -> &ObjState {
        &self.objects[o.index()]
    }

    /// Mutable access to a process, copying it if shared (the CoW
    /// mutation funnel for processes).
    pub fn proc_mut(&mut self, pid: usize) -> &mut ProcState {
        self.procs[pid].make_mut()
    }

    /// Mutable access to an object by index, copying it if shared (the
    /// CoW mutation funnel for objects).
    pub fn object_mut(&mut self, o: usize) -> &mut ObjState {
        self.objects[o].make_mut()
    }

    /// A compact, *toolchain-stable* 64-bit fingerprint (for statistics
    /// and visited-store partition/shard assignment; the stateful searches
    /// store canonical state encodings, not hashes, so collisions cannot
    /// cause missed states). The fingerprint is a
    /// [`crate::hash::StableHasher`] combine over the components'
    /// memoized sub-hashes — an unchanged process contributes one cached
    /// 64-bit word instead of being re-traversed — and a debug assertion
    /// checks it against a from-scratch recomputation, so partition/shard
    /// assignment cannot drift from the sequential baseline.
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::hash::StableHasher::new();
        h.write_u64(self.procs.len() as u64);
        for p in &self.procs {
            h.write_u64(p.sub_hash());
        }
        h.write_u64(self.objects.len() as u64);
        for o in &self.objects {
            h.write_u64(o.sub_hash());
        }
        let fp = h.finish();
        debug_assert_eq!(
            fp,
            self.fingerprint_from_scratch(),
            "cached sub-hash drifted from the canonical encoding"
        );
        fp
    }

    /// [`Self::fingerprint`] and [`encode_state`] fused into one pass:
    /// each component is encoded exactly once into the shared buffer,
    /// and a cold sub-hash cache is seeded from that component's span of
    /// the buffer instead of a private re-encoding. The stateful
    /// explorer needs both values for every successor, so the fusion
    /// halves the encoding work on the components a transition changed.
    pub fn fingerprint_and_encode(&self) -> (u64, Vec<u8>) {
        let mut out = Vec::with_capacity(64 * self.procs.len() + 16 * self.objects.len());
        let fp = self.fingerprint_and_encode_into(&mut out);
        (fp, out)
    }

    /// [`Self::fingerprint_and_encode`] appending to a caller-supplied
    /// buffer (the key-arena entry point: one shared allocation holds
    /// every successor key of an expansion). Returns the fingerprint;
    /// the encoding is `out[start..]` for the caller's recorded start.
    pub fn fingerprint_and_encode_into(&self, out: &mut Vec<u8>) -> u64 {
        let base = out.len();
        let mut h = crate::hash::StableHasher::new();
        h.write_u64(self.procs.len() as u64);
        encode::put_u64(out, self.procs.len() as u64);
        for p in &self.procs {
            let start = out.len();
            p.encode(out);
            h.write_u64(p.sub_hash_from_encoding(&out[start..]));
        }
        h.write_u64(self.objects.len() as u64);
        encode::put_u64(out, self.objects.len() as u64);
        for o in &self.objects {
            let start = out.len();
            o.encode(out);
            h.write_u64(o.sub_hash_from_encoding(&out[start..]));
        }
        let fp = h.finish();
        debug_assert_eq!(fp, self.fingerprint_from_scratch());
        debug_assert_eq!(out[base..], encode_state(self));
        fp
    }

    /// [`Self::fingerprint`] fused with *compression* instead of
    /// encoding: the returned bytes are the state's **compressed
    /// tuple** — `[raw encoded len][nprocs][proc IDs…][nobjs][obj
    /// IDs…]` with each component's dense `u32` ID (little-endian)
    /// standing in for its encoding — under `interner`. The
    /// fingerprint is bit-identical to [`Self::fingerprint`] /
    /// [`Self::fingerprint_and_encode`], so partition and shard
    /// assignment cannot depend on whether compression is on. Each
    /// component with a cold memo is encoded exactly once (seeding the
    /// sub-hash cache from those bytes, as the fused encode does); a
    /// warm memo answers from two cached words without touching bytes
    /// at all, which is where the states/sec win over
    /// [`Self::fingerprint_and_encode`] comes from.
    pub fn fingerprint_and_intern(&self, interner: &ComponentInterner) -> (u64, Vec<u8>) {
        let mut out = Vec::with_capacity(16 + 4 * (self.procs.len() + self.objects.len()));
        let fp = self.fingerprint_and_intern_into(interner, &mut out);
        (fp, out)
    }

    /// [`Self::fingerprint_and_intern`] appending to a caller-supplied
    /// buffer (the key-arena entry point). All per-call working state —
    /// the ID vector and the cold component's encoding buffer — lives in
    /// thread-local scratch reused across the millions of successor keys
    /// a run computes, so the only allocations left on this path are
    /// genuinely new interner table entries.
    pub fn fingerprint_and_intern_into(
        &self,
        interner: &ComponentInterner,
        out: &mut Vec<u8>,
    ) -> u64 {
        thread_local! {
            /// `(ids, enc)` scratch: the tuple's IDs, and one cold
            /// component's encoding.
            static SCRATCH: std::cell::RefCell<(Vec<u32>, Vec<u8>)> =
                const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
        }
        let base = out.len();
        let mut h = crate::hash::StableHasher::new();
        // Raw encoded length first (see `intern::raw_len_of`): the
        // stores report logical bytes, not stored bytes.
        let mut raw = encode::varint_len(self.procs.len() as u64)
            + encode::varint_len(self.objects.len() as u64);
        SCRATCH.with(|sc| {
            let (ids, enc) = &mut *sc.borrow_mut();
            ids.clear();
            h.write_u64(self.procs.len() as u64);
            intern_scan(&self.procs, interner, &mut h, &mut raw, ids, enc);
            h.write_u64(self.objects.len() as u64);
            intern_scan(&self.objects, interner, &mut h, &mut raw, ids, enc);
            encode::put_u64(out, raw as u64);
            encode::put_u64(out, self.procs.len() as u64);
            for id in &ids[..self.procs.len()] {
                encode::put_u64(out, u64::from(*id));
            }
            encode::put_u64(out, self.objects.len() as u64);
            for id in &ids[self.procs.len()..] {
                encode::put_u64(out, u64::from(*id));
            }
        });
        let fp = h.finish();
        debug_assert_eq!(fp, self.fingerprint_from_scratch());
        debug_assert_eq!(raw, encode_state(self).len());
        debug_assert_eq!(
            interner.decode_compressed(&out[base..]).as_ref(),
            Some(self)
        );
        fp
    }

    /// The fingerprint with every sub-hash recomputed from the
    /// component's canonical encoding, bypassing the caches.
    fn fingerprint_from_scratch(&self) -> u64 {
        let mut h = crate::hash::StableHasher::new();
        h.write_u64(self.procs.len() as u64);
        for p in &self.procs {
            h.write_u64(cow::sub_hash_of(&**p));
        }
        h.write_u64(self.objects.len() as u64);
        for o in &self.objects {
            h.write_u64(cow::sub_hash_of(&**o));
        }
        h.finish()
    }

    /// How much of `self` is physically shared with `other`: returns
    /// `(shared, total)` counts over process and object components,
    /// where *shared* means the two states point at the same allocation
    /// ([`CowArc::ptr_eq`]). Feeds the `Arc`-sharing-ratio counter in
    /// [`crate::report::Report`].
    pub fn sharing_with(&self, other: &GlobalState) -> (usize, usize) {
        let shared = self
            .procs
            .iter()
            .zip(&other.procs)
            .filter(|(a, b)| CowArc::ptr_eq(a, b))
            .count()
            + self
                .objects
                .iter()
                .zip(&other.objects)
                .filter(|(a, b)| CowArc::ptr_eq(a, b))
                .count();
        (shared, self.procs.len() + self.objects.len())
    }
}

/// [`GlobalState::fingerprint_and_intern`] over one component array:
/// push each component's ID to `ids`, fold its sub-hash into `h` and its
/// encoded length into `raw`. A warm memo answers from cached words; a
/// cold component is encoded once into `enc`, interned, and memoised.
fn intern_scan<T: encode::Encode>(
    comps: &[CowArc<T>],
    interner: &ComponentInterner,
    h: &mut crate::hash::StableHasher,
    raw: &mut usize,
    ids: &mut Vec<u32>,
    enc: &mut Vec<u8>,
) {
    let token = interner.token();
    for c in comps {
        let (id, len, sub) = match c.intern_memo(token) {
            Some((id, len)) => (id, len, c.sub_hash()),
            None => {
                let sub = c.encode_for_intern(enc);
                let (id, len) = (interner.intern(enc), enc.len() as u32);
                c.set_intern_memo(token, id, len);
                (id, len, sub)
            }
        };
        h.write_u64(sub);
        *raw += len as usize;
        ids.push(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfgir::compile;

    #[test]
    fn initial_state_positions_processes_at_start() {
        let prog = compile(
            "chan c[1]; int g = 5; proc a() { send(c, g); } proc b() { int x = recv(c); } process a(); process b();",
        )
        .unwrap();
        let s = GlobalState::initial(&prog);
        assert_eq!(s.procs.len(), 2);
        for p in &s.procs {
            assert!(matches!(p.status, Status::AtNode(_)));
            assert_eq!(*p.globals, vec![Value::Int(5)]);
            assert_eq!(p.frames.len(), 1);
        }
        assert!(matches!(
            *s.objects[0],
            ObjState::Chan {
                cap: Some(1),
                ref queue
            } if queue.is_empty()
        ));
    }

    #[test]
    fn initial_objects_respect_kinds() {
        let prog = compile(
            "extern chan e; sem s = 2; shared v = -4; proc m() { sem_wait(s); } process m();",
        )
        .unwrap();
        let s = GlobalState::initial(&prog);
        assert!(matches!(*s.objects[0], ObjState::Chan { cap: None, .. }));
        assert_eq!(*s.objects[1], ObjState::Sem(2));
        assert_eq!(*s.objects[2], ObjState::Shared(Value::Int(-4)));
    }

    #[test]
    fn initial_state_shares_globals_and_frame_templates() {
        let prog = compile(
            "int g = 7; proc m() { g = g + 1; } proc o() { g = g - 1; } \
             process m(); process m(); process o();",
        )
        .unwrap();
        let s = GlobalState::initial(&prog);
        // All three processes share one initial-globals allocation.
        assert!(Arc::ptr_eq(&s.procs[0].globals, &s.procs[1].globals));
        assert!(Arc::ptr_eq(&s.procs[0].globals, &s.procs[2].globals));
        // The two `m` instances share one initial frame; `o` does not.
        assert!(Arc::ptr_eq(&s.procs[0].frames[0], &s.procs[1].frames[0]));
        assert!(!Arc::ptr_eq(&s.procs[0].frames[0], &s.procs[2].frames[0]));
    }

    #[test]
    fn read_write_dispatches_globals() {
        let prog = compile("int g = 1; proc m() { g = 2; int x = 3; } process m();").unwrap();
        let mut s = GlobalState::initial(&prog);
        let m = prog.proc_by_name("m").unwrap();
        let gvar = VarId(m.vars.iter().position(|v| v.name == "g").unwrap() as u32);
        let xvar = VarId(m.vars.iter().position(|v| v.name == "x").unwrap() as u32);
        let ps = s.proc_mut(0);
        assert_eq!(ps.read(&prog, gvar), Value::Int(1));
        ps.write(&prog, gvar, Value::Int(9));
        assert_eq!(ps.globals[0], Value::Int(9));
        ps.write(&prog, xvar, Value::Int(7));
        assert_eq!(ps.read(&prog, xvar), Value::Int(7));
        assert_eq!(ps.frames[0].locals[xvar.index()], Value::Int(7));
    }

    #[test]
    fn writes_unshare_only_the_touched_component() {
        let prog = compile("int g = 1; proc m() { g = 2; } process m(); process m();").unwrap();
        let mut s = GlobalState::initial(&prog);
        let orig = s.clone();
        let m = prog.proc_by_name("m").unwrap();
        let gvar = VarId(m.vars.iter().position(|v| v.name == "g").unwrap() as u32);
        s.proc_mut(0).write(&prog, gvar, Value::Int(9));
        let (shared, total) = s.sharing_with(&orig);
        // Process 0 was copied; process 1 (and there are no objects)
        // still shares its allocation with the original snapshot.
        assert_eq!((shared, total), (1, 2));
        // And within process 0, the untouched frame is still shared.
        assert!(Arc::ptr_eq(&s.procs[0].frames[0], &orig.procs[0].frames[0]));
        assert!(!Arc::ptr_eq(&s.procs[0].globals, &orig.procs[0].globals));
        assert_eq!(*orig.procs[0].globals, vec![Value::Int(1)]);
    }

    #[test]
    fn addresses_roundtrip() {
        let prog = compile("int g = 0; proc m() { int x = 1; } process m();").unwrap();
        let mut s = GlobalState::initial(&prog);
        let m = prog.proc_by_name("m").unwrap();
        let xvar = VarId(m.vars.iter().position(|v| v.name == "x").unwrap() as u32);
        let gvar_id = m.vars.iter().position(|v| v.name == "g");
        // g may not be referenced in m's var table unless used; x is local.
        let ps = s.proc_mut(0);
        let ax = ps.addr_of(&prog, xvar);
        assert!(ps.write_addr(ax, Value::Int(42)));
        assert_eq!(ps.read_addr(ax), Some(Value::Int(42)));
        assert_eq!(ps.read(&prog, xvar), Value::Int(42));
        let _ = gvar_id;
    }

    #[test]
    fn dangling_stack_address_detected() {
        let prog = compile("proc m() { int x = 1; } process m();").unwrap();
        let mut s = GlobalState::initial(&prog);
        let bad = Addr::Stack {
            depth: 5,
            var: VarId(0),
        };
        assert_eq!(s.procs[0].read_addr(bad), None);
        assert!(!s.proc_mut(0).write_addr(bad, Value::Int(1)));
    }

    #[test]
    fn states_hash_and_compare() {
        let prog = compile("chan c[1]; proc m() { send(c, 1); } process m();").unwrap();
        let a = GlobalState::initial(&prog);
        let b = GlobalState::initial(&prog);
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = b.clone();
        *c.object_mut(0) = ObjState::Chan {
            queue: [Value::Int(1)].into(),
            cap: Some(1),
        };
        assert_ne!(a, c);
    }

    #[test]
    fn fingerprint_matches_from_scratch_recomputation() {
        let prog = compile(
            "chan c[2]; sem s = 1; int g = 3; \
             proc m() { send(c, g); sem_wait(s); g = g + 1; sem_signal(s); } \
             process m(); process m();",
        )
        .unwrap();
        let mut s = GlobalState::initial(&prog);
        assert_eq!(s.fingerprint(), s.fingerprint_from_scratch());
        // Mutate through the CoW funnel and re-check: the cached combine
        // must track the mutation.
        let before = s.fingerprint();
        *s.object_mut(1) = ObjState::Sem(0);
        assert_ne!(s.fingerprint(), before);
        assert_eq!(s.fingerprint(), s.fingerprint_from_scratch());
        // A decoded (fully unshared) copy fingerprints identically.
        let fresh = decode_state(&encode_state(&s)).unwrap();
        assert_eq!(fresh.fingerprint(), s.fingerprint());
    }

    #[test]
    fn fused_fingerprint_and_encode_matches_the_separate_calls() {
        let prog = compile(
            "chan c[2]; sem s = 1; int g = 3; \
             proc m() { send(c, g); sem_wait(s); g = g + 1; sem_signal(s); } \
             process m(); process m();",
        )
        .unwrap();
        let mut s = GlobalState::initial(&prog);
        // Cold caches: the fused pass seeds them.
        let (fp, enc) = s.fingerprint_and_encode();
        assert_eq!(fp, s.fingerprint());
        assert_eq!(enc, encode_state(&s));
        // After a mutation (one warm cache dropped, the rest kept).
        *s.object_mut(1) = ObjState::Sem(5);
        let (fp2, enc2) = s.fingerprint_and_encode();
        assert_ne!(fp2, fp);
        assert_eq!(fp2, s.fingerprint());
        assert_eq!(enc2, encode_state(&s));
        // Warm caches: same answers again.
        assert_eq!(s.fingerprint_and_encode(), (fp2, enc2));
    }

    #[test]
    fn fused_fingerprint_and_intern_matches_the_uncompressed_pass() {
        let prog = compile(
            "chan c[2]; sem s = 1; int g = 3; \
             proc m() { send(c, g); sem_wait(s); g = g + 1; sem_signal(s); } \
             process m(); process m();",
        )
        .unwrap();
        let i = ComponentInterner::new();
        let mut s = GlobalState::initial(&prog);
        // Cold memos: same fingerprint as the uncompressed pass, and a
        // tuple the interner decodes back to the state.
        let (fp, cenc) = s.fingerprint_and_intern(&i);
        assert_eq!(fp, s.fingerprint());
        assert_eq!(i.decode_compressed(&cenc).as_ref(), Some(&s));
        assert_eq!(intern::raw_len_of(&cenc), Some(encode_state(&s).len()));
        // After a mutation, only the touched component re-interns.
        let interned_before = i.len();
        *s.object_mut(1) = ObjState::Sem(5);
        let (fp2, cenc2) = s.fingerprint_and_intern(&i);
        assert_eq!(fp2, s.fingerprint());
        assert_ne!(cenc2, cenc);
        assert_eq!(i.len(), interned_before + 1, "one new component");
        // Warm memos: same answers again; equal states, equal tuples.
        assert_eq!(s.fingerprint_and_intern(&i), (fp2, cenc2.clone()));
        assert_eq!(s.clone().fingerprint_and_intern(&i).1, cenc2);
        // A second interner sees the same fingerprints but assigns its
        // own IDs — memos from `i` must not leak into it.
        let j = ComponentInterner::new();
        let (fpj, cencj) = s.fingerprint_and_intern(&j);
        assert_eq!(fpj, fp2);
        assert_eq!(j.decode_compressed(&cencj).as_ref(), Some(&s));
    }
}

//! Canonical byte encoding of state components.
//!
//! The stateful searches store *visited* states by the million; keeping
//! them as full [`GlobalState`] object graphs costs an allocation per
//! frame and per queue, and an equality check walks the whole graph.
//! This module serializes a state into one flat, **canonical** byte
//! string — LEB128 varints for every integer, explicit tags for every
//! enum, length prefixes for every sequence — so the visited stores keep
//! each state as its bytes in a key arena and equality is a `memcmp`.
//!
//! ## Canonicity (the collision-safety argument)
//!
//! The encoder is *injective*: two states encode to the same byte
//! string iff they are equal.
//!
//! - Every varint is emitted in minimal LEB128 form, so each integer
//!   has exactly one encoding.
//! - Every enum variant carries a distinct tag, and every sequence is
//!   length-prefixed, so the decoder — and therefore the comparison —
//!   can never confuse component boundaries.
//! - Components are written in a fixed order (processes by index, then
//!   objects by index; within a process: spec, status, globals, frames
//!   bottom-up), which mirrors the value-based `Eq` on [`GlobalState`].
//!
//! Consequently the visited stores may compare *encodings* instead of
//! states and keep the full collision-safety rule of [`crate::state`]:
//! stored keys are filed under the 64-bit fingerprint, but membership
//! is decided by comparing canonical byte strings, so two distinct states
//! sharing a fingerprint cost a comparison, never a missed state.
//!
//! [`decode_state`] inverts the encoding (used by the roundtrip tests
//! and as the eager-clone oracle: a decoded state shares nothing).
//!
//! [`GlobalState`]: super::GlobalState

use super::{Frame, GlobalState, ObjState, ProcState, Status};
use crate::value::{Addr, Value};
use cfgir::{GlobalId, NodeId, ProcId, VarId};
use std::collections::VecDeque;
use std::sync::Arc;

/// A component that can write itself into a canonical byte string.
pub trait Encode {
    /// Append the canonical encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);
}

/// Append a LEB128 varint (minimal form — canonical by construction).
/// Public: the on-disk store framing below reuses the same integer form.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Append a zigzag-mapped signed varint.
#[inline]
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    put_u64(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// The number of bytes [`put_u64`] emits for `v` (without emitting
/// them). The interner uses this to account for a state's raw encoded
/// size without materializing the raw encoding.
#[inline]
pub fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7).max(1)
}

#[inline]
fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put_u64(out, v);
        }
    }
}

impl Encode for Value {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Value::Int(v) => {
                out.push(0);
                put_i64(out, *v);
            }
            Value::Addr(Addr::Global(g)) => {
                out.push(1);
                put_u64(out, g.0 as u64);
            }
            Value::Addr(Addr::Stack { depth, var }) => {
                out.push(2);
                put_u64(out, *depth as u64);
                put_u64(out, var.0 as u64);
            }
            Value::Opaque => out.push(3),
        }
    }
}

impl Encode for Status {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Status::AtNode(n) => {
                out.push(0);
                put_u64(out, n.0 as u64);
            }
            Status::Terminated => out.push(1),
        }
    }
}

impl Encode for Frame {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.proc.0 as u64);
        put_u64(out, self.locals.len() as u64);
        for v in &self.locals {
            v.encode(out);
        }
        put_opt_u64(out, self.ret_dst.map(|v| v.0 as u64));
        put_opt_u64(out, self.cont.map(|n| n.0 as u64));
    }
}

impl Encode for ProcState {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.spec as u64);
        self.status.encode(out);
        put_u64(out, self.globals.len() as u64);
        for v in self.globals.iter() {
            v.encode(out);
        }
        put_u64(out, self.frames.len() as u64);
        for f in &self.frames {
            f.encode(out);
        }
    }
}

impl Encode for ObjState {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ObjState::Chan { queue, cap } => {
                out.push(0);
                put_opt_u64(out, cap.map(u64::from));
                put_u64(out, queue.len() as u64);
                for v in queue {
                    v.encode(out);
                }
            }
            ObjState::Sem(c) => {
                out.push(1);
                put_i64(out, *c);
            }
            ObjState::Shared(v) => {
                out.push(2);
                v.encode(out);
            }
        }
    }
}

impl Encode for GlobalState {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.procs.len() as u64);
        for p in &self.procs {
            p.encode(out);
        }
        put_u64(out, self.objects.len() as u64);
        for o in &self.objects {
            o.encode(out);
        }
    }
}

/// The canonical encoding of a full state, as stored by the visited
/// stores.
pub fn encode_state(state: &GlobalState) -> Vec<u8> {
    // Typical states are a few hundred bytes; one upfront allocation
    // replaces the per-frame/per-queue allocations a deep clone costs.
    let mut out = Vec::with_capacity(64 * state.procs.len() + 16 * state.objects.len());
    state.encode(&mut out);
    out
}

/// Streaming reader over varint-framed bytes: the decoding side of
/// [`put_u64`]/[`put_i64`]. Public so the tiered store's log,
/// spool, and checkpoint files (see [`crate::search::store`]) parse
/// with the same integer forms the state encoding uses.
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    /// Current byte offset from the start.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Read one raw byte.
    pub fn byte(&mut self) -> Option<u8> {
        let b = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    /// Read a LEB128 varint.
    pub fn u64(&mut self) -> Option<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift >= 64 {
                return None;
            }
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Some(v);
            }
            shift += 7;
        }
    }

    /// Read a zigzag-mapped signed varint.
    pub fn i64(&mut self) -> Option<i64> {
        let z = self.u64()?;
        Some(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// Read `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }
}

/// File-type magic of the tiered store's append-only tier-1 log (and of
/// the checkpoint's tier-0 snapshot, which shares its record framing).
pub const SEGMENT_MAGIC: [u8; 4] = *b"RSEG";

/// File-type magic of frontier spool (and spool snapshot) files.
pub const SPOOL_MAGIC: [u8; 4] = *b"RSPL";

/// File-type magic of the checkpoint manifest.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"RCKP";

/// File-type magic of the persisted component-interner table.
pub const INTERN_MAGIC: [u8; 4] = *b"RITN";

/// Version stamped into every on-disk header this crate writes. Bump on
/// any layout change; readers reject mismatches instead of guessing.
/// (v2: compressed ID-tuple records + the interner table side file;
/// v3: `tosses_taken` counter in the checkpointed report; v4: tier 1 is
/// one log, committed as `(byte_len, entries)` instead of a segment
/// list.)
pub const STORE_FORMAT_VERSION: u64 = 4;

/// Append a versioned container header: 4 magic bytes + format version.
pub fn put_header(out: &mut Vec<u8>, magic: [u8; 4]) {
    out.extend_from_slice(&magic);
    put_u64(out, STORE_FORMAT_VERSION);
}

/// Consume and validate a container header written by [`put_header`].
pub fn check_header(r: &mut ByteReader<'_>, magic: [u8; 4]) -> bool {
    r.take(4) == Some(&magic[..]) && r.u64() == Some(STORE_FORMAT_VERSION)
}

/// Append one framed state record: `[fingerprint][epoch][len][enc]`.
/// The shared framing of the tier-1 log, checkpoint memory snapshots,
/// and (with epoch 0) any future record stream over state encodings.
pub fn put_record(out: &mut Vec<u8>, fp: u64, epoch: u32, enc: &[u8]) {
    put_u64(out, fp);
    put_u64(out, epoch as u64);
    put_u64(out, enc.len() as u64);
    out.extend_from_slice(enc);
}

/// Read one record written by [`put_record`]. Returns
/// `(fingerprint, epoch, payload_offset, payload)` — the offset is the
/// absolute position of the payload within the reader's byte slice, so
/// log scanners can build direct-read references.
pub fn read_record<'a>(r: &mut ByteReader<'a>) -> Option<(u64, u32, usize, &'a [u8])> {
    let fp = r.u64()?;
    let epoch = u32::try_from(r.u64()?).ok()?;
    let len = usize::try_from(r.u64()?).ok()?;
    let off = r.pos();
    let enc = r.take(len)?;
    Some((fp, epoch, off, enc))
}

/// Streaming decoder over one encoding.
struct Cursor<'a> {
    r: ByteReader<'a>,
}

impl<'a> Cursor<'a> {
    fn byte(&mut self) -> Option<u8> {
        self.r.byte()
    }

    fn u64(&mut self) -> Option<u64> {
        self.r.u64()
    }

    fn i64(&mut self) -> Option<i64> {
        self.r.i64()
    }

    fn u32(&mut self) -> Option<u32> {
        u32::try_from(self.u64()?).ok()
    }

    fn opt_u64(&mut self) -> Option<Option<u64>> {
        match self.byte()? {
            0 => Some(None),
            1 => Some(Some(self.u64()?)),
            _ => None,
        }
    }

    fn value(&mut self) -> Option<Value> {
        Some(match self.byte()? {
            0 => Value::Int(self.i64()?),
            1 => Value::Addr(Addr::Global(GlobalId(self.u32()?))),
            2 => Value::Addr(Addr::Stack {
                depth: self.u32()?,
                var: VarId(self.u32()?),
            }),
            3 => Value::Opaque,
            _ => return None,
        })
    }

    fn status(&mut self) -> Option<Status> {
        Some(match self.byte()? {
            0 => Status::AtNode(NodeId(self.u32()?)),
            1 => Status::Terminated,
            _ => return None,
        })
    }

    fn frame(&mut self) -> Option<Frame> {
        let proc = ProcId(self.u32()?);
        let n = self.u64()? as usize;
        let mut locals = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            locals.push(self.value()?);
        }
        let ret_dst = match self.opt_u64()? {
            None => None,
            Some(v) => Some(VarId(u32::try_from(v).ok()?)),
        };
        let cont = match self.opt_u64()? {
            None => None,
            Some(v) => Some(NodeId(u32::try_from(v).ok()?)),
        };
        Some(Frame {
            proc,
            locals,
            ret_dst,
            cont,
        })
    }

    fn proc_state(&mut self) -> Option<ProcState> {
        let spec = usize::try_from(self.u64()?).ok()?;
        let status = self.status()?;
        let ng = self.u64()? as usize;
        let mut globals = Vec::with_capacity(ng.min(1024));
        for _ in 0..ng {
            globals.push(self.value()?);
        }
        let nf = self.u64()? as usize;
        let mut frames = Vec::with_capacity(nf.min(1024));
        for _ in 0..nf {
            frames.push(Arc::new(self.frame()?));
        }
        Some(ProcState {
            spec,
            globals: Arc::new(globals),
            frames,
            status,
        })
    }

    fn obj_state(&mut self) -> Option<ObjState> {
        Some(match self.byte()? {
            0 => {
                let cap = match self.opt_u64()? {
                    None => None,
                    Some(v) => Some(u32::try_from(v).ok()?),
                };
                let n = self.u64()? as usize;
                let mut queue = VecDeque::with_capacity(n.min(1024));
                for _ in 0..n {
                    queue.push_back(self.value()?);
                }
                ObjState::Chan { queue, cap }
            }
            1 => ObjState::Sem(self.i64()?),
            2 => ObjState::Shared(self.value()?),
            _ => return None,
        })
    }
}

/// Decode one process component from exactly its canonical encoding
/// (trailing bytes reject). The interner's compressed-tuple decoder
/// reassembles states from per-component table entries with this.
pub(crate) fn decode_proc_state(bytes: &[u8]) -> Option<ProcState> {
    let mut c = Cursor {
        r: ByteReader::new(bytes),
    };
    let p = c.proc_state()?;
    (c.r.remaining() == 0).then_some(p)
}

/// Decode one object component from exactly its canonical encoding
/// (trailing bytes reject).
pub(crate) fn decode_obj_state(bytes: &[u8]) -> Option<ObjState> {
    let mut c = Cursor {
        r: ByteReader::new(bytes),
    };
    let o = c.obj_state()?;
    (c.r.remaining() == 0).then_some(o)
}

/// Decode one canonical state encoding. Returns `None` on malformed or
/// trailing bytes. The result shares no allocation with any other state
/// — it is an *eager clone*, which is exactly what the CoW-vs-eager
/// oracle tests compare against.
pub fn decode_state(bytes: &[u8]) -> Option<GlobalState> {
    let mut c = Cursor {
        r: ByteReader::new(bytes),
    };
    let np = c.u64()? as usize;
    let mut procs = Vec::with_capacity(np.min(1024));
    for _ in 0..np {
        procs.push(super::CowArc::new(c.proc_state()?));
    }
    let no = c.u64()? as usize;
    let mut objects = Vec::with_capacity(no.min(1024));
    for _ in 0..no {
        objects.push(super::CowArc::new(c.obj_state()?));
    }
    if c.r.remaining() != 0 {
        return None; // trailing garbage: not a canonical encoding
    }
    Some(GlobalState { procs, objects })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_are_minimal_and_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_u64(&mut buf, v);
            // Minimal form: the last byte never has the continuation
            // bit, and no encoding ends in a zero continuation byte.
            assert_eq!(buf.last().unwrap() & 0x80, 0);
            if buf.len() > 1 {
                assert_ne!(*buf.last().unwrap(), 0, "non-minimal varint for {v}");
            }
            let mut c = ByteReader::new(&buf);
            assert_eq!(c.u64(), Some(v));
            assert_eq!(c.pos(), buf.len());
            assert_eq!(varint_len(v), buf.len(), "varint_len({v})");
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -300] {
            let mut buf = Vec::new();
            put_i64(&mut buf, v);
            let mut c = ByteReader::new(&buf);
            assert_eq!(c.i64(), Some(v));
        }
    }

    #[test]
    fn record_framing_roundtrips() {
        let mut buf = Vec::new();
        put_header(&mut buf, SEGMENT_MAGIC);
        put_record(&mut buf, 0xdead_beef, 7, b"abc");
        put_record(&mut buf, 42, 0, b"");
        let mut r = ByteReader::new(&buf);
        assert!(check_header(&mut r, SEGMENT_MAGIC));
        let (fp, epoch, off, enc) = read_record(&mut r).unwrap();
        assert_eq!((fp, epoch, enc), (0xdead_beef, 7, &b"abc"[..]));
        assert_eq!(&buf[off..off + 3], b"abc");
        let (fp2, epoch2, _, enc2) = read_record(&mut r).unwrap();
        assert_eq!((fp2, epoch2, enc2.len()), (42, 0, 0));
        assert_eq!(r.remaining(), 0);
        assert!(read_record(&mut r).is_none(), "end of stream");
        // Wrong magic and truncated payloads are rejected.
        let mut wrong = ByteReader::new(&buf);
        assert!(!check_header(&mut wrong, CHECKPOINT_MAGIC));
        let mut cut = ByteReader::new(&buf[..buf.len() - 1]);
        assert!(check_header(&mut cut, SEGMENT_MAGIC));
        assert!(read_record(&mut cut).is_some());
        assert!(read_record(&mut cut).is_none(), "truncated record");
    }

    #[test]
    fn initial_state_roundtrips() {
        let prog = cfgir::compile(
            "extern chan e; chan c[2]; sem s = 1; shared v = -9; int g = 4; \
             proc m() { send(c, g); sem_wait(s); } process m(); process m();",
        )
        .unwrap();
        let s = GlobalState::initial(&prog);
        let enc = encode_state(&s);
        let back = decode_state(&enc).expect("well-formed encoding");
        assert_eq!(s, back);
        assert_eq!(enc, encode_state(&back), "re-encoding is stable");
    }

    #[test]
    fn distinct_states_encode_differently() {
        let prog = cfgir::compile("sem s = 1; proc m() { sem_wait(s); } process m();").unwrap();
        let a = GlobalState::initial(&prog);
        let mut b = a.clone();
        *b.object_mut(0) = ObjState::Sem(2);
        assert_ne!(encode_state(&a), encode_state(&b));
    }

    #[test]
    fn malformed_encodings_are_rejected() {
        let prog = cfgir::compile("chan c[1]; proc m() { send(c, 1); } process m();").unwrap();
        let enc = encode_state(&GlobalState::initial(&prog));
        assert!(decode_state(&enc[..enc.len() - 1]).is_none(), "truncated");
        let mut trailing = enc.clone();
        trailing.push(0);
        assert!(decode_state(&trailing).is_none(), "trailing bytes");
        assert!(decode_state(&[0xff]).is_none(), "unterminated varint");
    }
}

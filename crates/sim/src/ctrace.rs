//! Codec-compressed sanitizer traces.
//!
//! The SimSanitizer used to buffer its synchronization/memory trace as a
//! raw `Vec<TraceEvent>` — tens of bytes per event, fully materialized
//! for the whole run. This module replaces that buffer with a chunked,
//! columnar, codec-compressed layout ([`CTrace`]) that dogfoods the
//! repo's own `spzip_compress` codecs as the trace wire format:
//!
//! * events stream into a bounded raw staging buffer of
//!   [`CHUNK_EVENTS`] entries;
//! * a full buffer is *sealed* into a [`Chunk`]: events are split into
//!   per-field columns and each column is compressed with the codec that
//!   fits its shape — event tags, actor/engine/queue ids, quarter-word
//!   counts and packed access metadata through [`RleCodec`] (long runs of
//!   identical values), cycle stamps through the delta byte code
//!   ([`DeltaCodec`]; ZigZag deltas, so the non-monotonic cross-actor
//!   interleaving still compresses), and addresses through 64-bit
//!   bit-plane compression ([`BpcCodec`]);
//! * each column is one self-delimiting codec frame; a chunk's payload is
//!   the frames concatenated in a fixed order, stamped with a sequence
//!   number.
//!
//! Every column codec is deterministic, so equal event blocks encode to
//! equal bytes and re-encoding a decoded trace reproduces every chunk's
//! payload. The sequence numbers make reordered or duplicated chunks —
//! however they arise — detectable as `S010` trace-integrity violations
//! instead of silently corrupted verdicts.
//!
//! Decoding is strict: column lengths must match the tag column, tags and
//! packed metadata must be in range, and every byte of the payload must
//! be consumed. A [`CTrace`] can always be lowered back to the legacy
//! in-memory [`Trace`] ([`CTrace::to_trace`]), which the differential
//! tests keep as the analysis oracle.

use crate::sanitize::{Trace, TraceEvent};
use spzip_compress::bpc::BpcCodec;
use spzip_compress::delta::DeltaCodec;
use spzip_compress::rle::RleCodec;
use spzip_compress::{Codec, DecodeError, ElemWidth};
use spzip_mem::sanitize::{Actor, MemRecord};
use spzip_mem::{DataClass, MemOp};

/// Version of the compressed-trace wire format and its chunk-level
/// analysis, bumped whenever the column layout, the column codecs, or the
/// summarization semantics change. Folded into the bench
/// driver's cache fingerprint (sanitized verdicts depend on it) next to
/// `CODEC_VERSION`.
pub const SANITIZE_TRACE_VERSION: u32 = 1;

/// Events per chunk: the bound on raw staging. 1024 events keep the
/// staging buffer around one LLC way in size while giving the column
/// codecs runs long enough to compress well.
pub const CHUNK_EVENTS: usize = 1024;

/// In-memory size of one raw trace event — the per-event footprint of
/// the legacy `Vec<TraceEvent>` buffer that compressed residency is
/// measured against.
pub const RAW_EVENT_BYTES: usize = std::mem::size_of::<TraceEvent>();

/// One sealed chunk: a columnar compressed block of up to
/// [`CHUNK_EVENTS`] events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk {
    /// Position of this chunk in the trace stream, assigned at seal time.
    /// [`crate::sanitize::analyze_compressed`] checks the sequence is
    /// dense and in order (S010 otherwise).
    pub seq: u64,
    /// Number of events encoded in the payload.
    pub events: u32,
    /// Concatenated self-delimiting column frames (see module docs).
    /// Equal event sequences encode to equal bytes.
    pub bytes: Vec<u8>,
}

/// Event tags, the first column of every chunk.
const TAG_MEM: u64 = 0;
const TAG_PUSH: u64 = 1;
const TAG_POP: u64 = 2;
const TAG_DRAIN: u64 = 3;
const TAG_BARRIER: u64 = 4;

fn op_index(op: MemOp) -> u64 {
    match op {
        MemOp::Load => 0,
        MemOp::Store => 1,
        MemOp::StreamStore => 2,
        MemOp::Atomic => 3,
    }
}

fn op_from_index(idx: u64) -> Result<MemOp, DecodeError> {
    Ok(match idx {
        0 => MemOp::Load,
        1 => MemOp::Store,
        2 => MemOp::StreamStore,
        3 => MemOp::Atomic,
        other => return Err(DecodeError::new(format!("invalid mem-op index {other}"))),
    })
}

fn class_index(class: DataClass) -> u64 {
    match class {
        DataClass::AdjacencyMatrix => 0,
        DataClass::SourceVertex => 1,
        DataClass::DestinationVertex => 2,
        DataClass::Updates => 3,
        DataClass::Frontier => 4,
        DataClass::Other => 5,
    }
}

fn class_from_index(idx: u64) -> Result<DataClass, DecodeError> {
    Ok(match idx {
        0 => DataClass::AdjacencyMatrix,
        1 => DataClass::SourceVertex,
        2 => DataClass::DestinationVertex,
        3 => DataClass::Updates,
        4 => DataClass::Frontier,
        5 => DataClass::Other,
        other => return Err(DecodeError::new(format!("invalid class index {other}"))),
    })
}

/// Packs a memory record's size/op/class into one small integer: runs of
/// identical access shapes (the common case — same-width loads in a
/// scan) collapse under RLE.
fn pack_meta(r: &MemRecord) -> u64 {
    ((r.bytes as u64) << 8) | (op_index(r.op) << 4) | class_index(r.class)
}

fn unpack_meta(meta: u64) -> Result<(u32, MemOp, DataClass), DecodeError> {
    let bytes = meta >> 8;
    if bytes > u32::MAX as u64 {
        return Err(DecodeError::new("access size exceeds u32"));
    }
    let op = op_from_index((meta >> 4) & 0xF)?;
    let class = class_from_index(meta & 0xF)?;
    Ok((bytes as u32, op, class))
}

/// Column staging reused across chunk seals, so steady-state recording
/// allocates nothing: each `Vec` grows to its high-water mark (bounded by
/// [`CHUNK_EVENTS`] elements) and is cleared per seal.
#[derive(Debug, Default)]
struct ColumnScratch {
    tags: Vec<u64>,
    cycles: Vec<u64>,
    actors: Vec<u64>,
    engines: Vec<u64>,
    qs: Vec<u64>,
    quarters: Vec<u64>,
    addrs: Vec<u64>,
    metas: Vec<u64>,
}

impl ColumnScratch {
    fn clear(&mut self) {
        self.tags.clear();
        self.cycles.clear();
        self.actors.clear();
        self.engines.clear();
        self.qs.clear();
        self.quarters.clear();
        self.addrs.clear();
        self.metas.clear();
    }

    fn capacity_bytes(&self) -> usize {
        8 * (self.tags.capacity()
            + self.cycles.capacity()
            + self.actors.capacity()
            + self.engines.capacity()
            + self.qs.capacity()
            + self.quarters.capacity()
            + self.addrs.capacity()
            + self.metas.capacity())
    }
}

/// The chunked, codec-compressed trace of one sanitized run — the
/// replacement for the legacy raw `Vec<TraceEvent>` buffer (which
/// survives as [`Trace`], the differential oracle).
///
/// Recording streams events into a bounded staging buffer and seals full
/// buffers into compressed [`Chunk`]s, so raw-trace residency never
/// exceeds [`CHUNK_EVENTS`] events regardless of run length.
#[derive(Debug)]
pub struct CTrace {
    /// Core count of the machine that produced the trace (mirrors
    /// [`Trace::cores`]).
    pub cores: usize,
    chunks: Vec<Chunk>,
    pending: Vec<TraceEvent>,
    total_events: usize,
    compressed_bytes: usize,
    scratch: ColumnScratch,
}

impl Clone for CTrace {
    fn clone(&self) -> Self {
        CTrace {
            cores: self.cores,
            chunks: self.chunks.clone(),
            pending: self.pending.clone(),
            total_events: self.total_events,
            compressed_bytes: self.compressed_bytes,
            scratch: ColumnScratch::default(),
        }
    }
}

impl CTrace {
    /// An empty compressed trace for a `cores`-core machine.
    pub fn new(cores: usize) -> Self {
        CTrace {
            cores,
            chunks: Vec::new(),
            pending: Vec::with_capacity(CHUNK_EVENTS),
            total_events: 0,
            compressed_bytes: 0,
            scratch: ColumnScratch::default(),
        }
    }

    /// Appends one event, sealing a chunk when the staging buffer fills.
    pub fn record(&mut self, e: TraceEvent) {
        self.pending.push(e);
        self.total_events += 1;
        if self.pending.len() >= CHUNK_EVENTS {
            self.seal();
        }
    }

    /// Appends a batch of events (the machine's per-quantum engine-log
    /// merges arrive as batches).
    pub fn record_all(&mut self, events: impl IntoIterator<Item = TraceEvent>) {
        for e in events {
            self.record(e);
        }
    }

    /// Seals whatever is staged into a compressed chunk. Called
    /// automatically when staging fills and at the end of a run; a no-op
    /// on an empty buffer.
    pub fn seal(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let chunk = encode_chunk(self.chunks.len() as u64, &self.pending, &mut self.scratch);
        self.compressed_bytes += chunk.bytes.len();
        self.chunks.push(chunk);
        self.pending.clear();
    }

    /// Total events recorded (sealed plus staged).
    pub fn len(&self) -> usize {
        self.total_events
    }

    /// Whether no event was recorded.
    pub fn is_empty(&self) -> bool {
        self.total_events == 0
    }

    /// The sealed chunks, in stream order.
    pub fn chunks(&self) -> &[Chunk] {
        &self.chunks
    }

    /// Mutable chunk access, for corruption-injection tests (reorder,
    /// duplicate, truncate — the sanitizer must *report* all of these).
    pub fn chunks_mut(&mut self) -> &mut Vec<Chunk> {
        &mut self.chunks
    }

    /// Events still staged, not yet sealed into a chunk.
    pub fn pending(&self) -> &[TraceEvent] {
        &self.pending
    }

    /// Total compressed payload bytes across sealed chunks.
    pub fn compressed_bytes(&self) -> usize {
        self.compressed_bytes
    }

    /// In-memory footprint the legacy raw `Vec<TraceEvent>` would need
    /// for the same trace.
    pub fn raw_bytes(&self) -> usize {
        self.total_events * RAW_EVENT_BYTES
    }

    /// Peak trace-side residency of this representation: compressed
    /// payloads plus the bounded staging buffers (raw event staging and
    /// column scratch). This is what replaces the legacy raw footprint.
    pub fn peak_residency_bytes(&self) -> usize {
        self.compressed_bytes
            + self.pending.capacity().max(CHUNK_EVENTS) * RAW_EVENT_BYTES
            + self.scratch.capacity_bytes()
    }

    /// Decodes the whole trace back to a flat event vector (sealed chunks
    /// in order, then staged events).
    ///
    /// # Errors
    ///
    /// Returns the first [`DecodeError`] in any chunk.
    pub fn decode_all(&self) -> Result<Vec<TraceEvent>, DecodeError> {
        let mut out = Vec::with_capacity(self.total_events);
        for chunk in &self.chunks {
            decode_chunk(chunk, &mut out)?;
        }
        out.extend_from_slice(&self.pending);
        Ok(out)
    }

    /// Lowers to the legacy in-memory [`Trace`] — the analysis oracle the
    /// differential tests compare [`crate::sanitize::analyze_compressed`]
    /// against.
    ///
    /// # Errors
    ///
    /// Returns the first [`DecodeError`] in any chunk.
    pub fn to_trace(&self) -> Result<Trace, DecodeError> {
        Ok(Trace {
            cores: self.cores,
            events: self.decode_all()?,
        })
    }

    /// Compresses an explicit event sequence (tampered-trace tests
    /// re-encode a modified event list through the same wire format).
    /// Every staged buffer is sealed, so `len()` events land in chunks.
    pub fn from_events(cores: usize, events: &[TraceEvent]) -> CTrace {
        let mut t = CTrace::new(cores);
        t.record_all(events.iter().copied());
        t.seal();
        t
    }

    /// Compresses a legacy [`Trace`].
    pub fn from_trace(trace: &Trace) -> CTrace {
        CTrace::from_events(trace.cores, &trace.events)
    }
}

/// Encodes one chunk: columnar split, per-column codec, fixed frame
/// order.
fn encode_chunk(seq: u64, events: &[TraceEvent], scratch: &mut ColumnScratch) -> Chunk {
    debug_assert!(!events.is_empty() && events.len() <= CHUNK_EVENTS);
    scratch.clear();
    for ev in events {
        scratch.tags.push(match ev {
            TraceEvent::Mem(_) => TAG_MEM,
            TraceEvent::Push { .. } => TAG_PUSH,
            TraceEvent::Pop { .. } => TAG_POP,
            TraceEvent::Drain { .. } => TAG_DRAIN,
            TraceEvent::Barrier { .. } => TAG_BARRIER,
        });
        scratch.cycles.push(ev.cycle());
        match *ev {
            TraceEvent::Mem(r) => {
                scratch.actors.push(r.actor.index() as u64);
                scratch.addrs.push(r.addr);
                scratch.metas.push(pack_meta(&r));
            }
            TraceEvent::Push {
                actor,
                engine,
                q,
                quarters,
                ..
            }
            | TraceEvent::Pop {
                actor,
                engine,
                q,
                quarters,
                ..
            } => {
                scratch.actors.push(actor.index() as u64);
                scratch.engines.push(engine.index() as u64);
                scratch.qs.push(q as u64);
                scratch.quarters.push(quarters as u64);
            }
            TraceEvent::Drain { actor, engine, .. } => {
                scratch.actors.push(actor.index() as u64);
                scratch.engines.push(engine.index() as u64);
            }
            TraceEvent::Barrier { .. } => {}
        }
    }
    let rle = RleCodec::new();
    let delta = DeltaCodec::new();
    let bpc = BpcCodec::new(ElemWidth::W64);
    let mut bytes = Vec::new();
    // Fixed column order; empty columns are skipped (the decoder derives
    // every column's length from the tag column, so it knows what to
    // expect).
    rle.compress(&scratch.tags, &mut bytes);
    delta.compress(&scratch.cycles, &mut bytes);
    for col in [
        &scratch.actors,
        &scratch.engines,
        &scratch.qs,
        &scratch.quarters,
    ] {
        if !col.is_empty() {
            rle.compress(col, &mut bytes);
        }
    }
    if !scratch.addrs.is_empty() {
        bpc.compress(&scratch.addrs, &mut bytes);
    }
    if !scratch.metas.is_empty() {
        rle.compress(&scratch.metas, &mut bytes);
    }
    Chunk {
        seq,
        events: events.len() as u32,
        bytes,
    }
}

fn decode_column(
    codec: &dyn Codec,
    what: &str,
    expect: usize,
    bytes: &[u8],
    pos: &mut usize,
    out: &mut Vec<u64>,
) -> Result<(), DecodeError> {
    out.clear();
    if expect == 0 {
        return Ok(());
    }
    codec
        .decode_frame(bytes, pos, out)
        .map_err(|e| DecodeError::new(format!("{what} column: {e}")))?;
    if out.len() != expect {
        return Err(DecodeError::new(format!(
            "{what} column decoded {} values, expected {expect}",
            out.len()
        )));
    }
    Ok(())
}

/// Decodes one chunk's events, appending them to `out`.
///
/// # Errors
///
/// Returns [`DecodeError`] on any malformed column: codec-level frame
/// corruption, a column length disagreeing with the tag column, an
/// out-of-range tag/op/class, an oversized queue id or quarter count, or
/// trailing payload bytes.
pub fn decode_chunk(chunk: &Chunk, out: &mut Vec<TraceEvent>) -> Result<(), DecodeError> {
    let rle = RleCodec::new();
    let delta = DeltaCodec::new();
    let bpc = BpcCodec::new(ElemWidth::W64);
    let bytes = &chunk.bytes;
    let mut pos = 0;

    let mut tags = Vec::new();
    rle.decode_frame(bytes, &mut pos, &mut tags)
        .map_err(|e| DecodeError::new(format!("tag column: {e}")))?;
    if tags.len() != chunk.events as usize {
        return Err(DecodeError::new(format!(
            "tag column holds {} events, chunk header says {}",
            tags.len(),
            chunk.events
        )));
    }
    let mut n_actor = 0usize;
    let mut n_engine = 0usize;
    let mut n_queue = 0usize;
    let mut n_mem = 0usize;
    for &t in &tags {
        match t {
            TAG_MEM => {
                n_actor += 1;
                n_mem += 1;
            }
            TAG_PUSH | TAG_POP => {
                n_actor += 1;
                n_engine += 1;
                n_queue += 1;
            }
            TAG_DRAIN => {
                n_actor += 1;
                n_engine += 1;
            }
            TAG_BARRIER => {}
            other => return Err(DecodeError::new(format!("invalid event tag {other}"))),
        }
    }

    let mut cycles = Vec::new();
    decode_column(&delta, "cycle", tags.len(), bytes, &mut pos, &mut cycles)?;
    let mut actors = Vec::new();
    decode_column(&rle, "actor", n_actor, bytes, &mut pos, &mut actors)?;
    let mut engines = Vec::new();
    decode_column(&rle, "engine", n_engine, bytes, &mut pos, &mut engines)?;
    let mut qs = Vec::new();
    decode_column(&rle, "queue", n_queue, bytes, &mut pos, &mut qs)?;
    let mut quarters = Vec::new();
    decode_column(&rle, "quarters", n_queue, bytes, &mut pos, &mut quarters)?;
    let mut addrs = Vec::new();
    decode_column(&bpc, "address", n_mem, bytes, &mut pos, &mut addrs)?;
    let mut metas = Vec::new();
    decode_column(&rle, "meta", n_mem, bytes, &mut pos, &mut metas)?;
    if pos != bytes.len() {
        return Err(DecodeError::new("trailing bytes after chunk columns"));
    }

    let actor_at = |i: usize| -> Result<Actor, DecodeError> {
        let idx = actors[i];
        if idx > usize::MAX as u64 {
            return Err(DecodeError::new("actor index overflows usize"));
        }
        Ok(Actor::from_index(idx as usize))
    };
    let (mut ai, mut ei, mut qi, mut mi) = (0usize, 0usize, 0usize, 0usize);
    out.reserve(tags.len());
    for (i, &t) in tags.iter().enumerate() {
        let cycle = cycles[i];
        match t {
            TAG_MEM => {
                let (sz, op, class) = unpack_meta(metas[mi])?;
                out.push(TraceEvent::Mem(MemRecord {
                    actor: actor_at(ai)?,
                    addr: addrs[mi],
                    bytes: sz,
                    op,
                    class,
                    cycle,
                }));
                ai += 1;
                mi += 1;
            }
            TAG_PUSH | TAG_POP => {
                let q = qs[qi];
                if q > u8::MAX as u64 {
                    return Err(DecodeError::new(format!("queue id {q} exceeds u8")));
                }
                let qw = quarters[qi];
                if qw > u32::MAX as u64 {
                    return Err(DecodeError::new(format!("quarter count {qw} exceeds u32")));
                }
                let actor = actor_at(ai)?;
                let engine_idx = engines[ei];
                if engine_idx > usize::MAX as u64 {
                    return Err(DecodeError::new("engine index overflows usize"));
                }
                let engine = Actor::from_index(engine_idx as usize);
                let (q, quarters) = (q as u8, qw as u32);
                out.push(if t == TAG_PUSH {
                    TraceEvent::Push {
                        actor,
                        engine,
                        q,
                        quarters,
                        cycle,
                    }
                } else {
                    TraceEvent::Pop {
                        actor,
                        engine,
                        q,
                        quarters,
                        cycle,
                    }
                });
                ai += 1;
                ei += 1;
                qi += 1;
            }
            TAG_DRAIN => {
                let actor = actor_at(ai)?;
                let engine_idx = engines[ei];
                if engine_idx > usize::MAX as u64 {
                    return Err(DecodeError::new("engine index overflows usize"));
                }
                out.push(TraceEvent::Drain {
                    actor,
                    engine: Actor::from_index(engine_idx as usize),
                    cycle,
                });
                ai += 1;
                ei += 1;
            }
            _ => {
                out.push(TraceEvent::Barrier { cycle });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spzip_core::QueueId;

    fn mem(actor: Actor, addr: u64, bytes: u32, op: MemOp, cycle: u64) -> TraceEvent {
        TraceEvent::Mem(MemRecord {
            actor,
            addr,
            bytes,
            op,
            class: DataClass::Updates,
            cycle,
        })
    }

    fn sample_events(n: usize) -> Vec<TraceEvent> {
        let mut evs = Vec::new();
        for i in 0..n as u64 {
            let q = (i % 3) as QueueId;
            match i % 5 {
                0 => evs.push(TraceEvent::Push {
                    actor: Actor::Core((i % 4) as usize),
                    engine: Actor::Fetcher((i % 4) as usize),
                    q,
                    quarters: 4,
                    cycle: i * 7,
                }),
                1 => evs.push(TraceEvent::Pop {
                    actor: Actor::Fetcher((i % 4) as usize),
                    engine: Actor::Fetcher((i % 4) as usize),
                    q,
                    quarters: 4,
                    cycle: i * 7 + 1,
                }),
                2 => evs.push(mem(
                    Actor::Fetcher((i % 4) as usize),
                    0x1000 + i * 4,
                    4,
                    MemOp::Load,
                    i * 7 - 3,
                )),
                3 => evs.push(TraceEvent::Drain {
                    actor: Actor::Core((i % 4) as usize),
                    engine: Actor::Compressor((i % 4) as usize),
                    cycle: i * 7,
                }),
                _ => evs.push(TraceEvent::Barrier { cycle: i * 7 }),
            }
        }
        evs
    }

    #[test]
    fn roundtrip_preserves_events_exactly() {
        for n in [
            1,
            2,
            31,
            CHUNK_EVENTS - 1,
            CHUNK_EVENTS,
            3 * CHUNK_EVENTS + 5,
        ] {
            let events = sample_events(n);
            let t = CTrace::from_events(4, &events);
            assert_eq!(t.len(), n);
            assert_eq!(t.decode_all().unwrap(), events, "n={n}");
        }
    }

    #[test]
    fn record_seals_at_chunk_boundaries_with_bounded_staging() {
        let mut t = CTrace::new(2);
        for e in sample_events(2 * CHUNK_EVENTS + 7) {
            t.record(e);
            assert!(t.pending().len() < CHUNK_EVENTS, "staging stays bounded");
        }
        assert_eq!(t.chunks().len(), 2);
        assert_eq!(t.pending().len(), 7);
        t.seal();
        assert_eq!(t.chunks().len(), 3);
        assert!(t.pending().is_empty());
        for (i, c) in t.chunks().iter().enumerate() {
            assert_eq!(c.seq, i as u64);
        }
    }

    #[test]
    fn identical_chunks_encode_identically_and_distinct_ones_differ() {
        let events = sample_events(CHUNK_EVENTS);
        let a = CTrace::from_events(4, &events);
        let b = CTrace::from_events(4, &events);
        assert_eq!(a.chunks()[0].bytes, b.chunks()[0].bytes);

        let mut other = events.clone();
        other[17] = TraceEvent::Barrier { cycle: 999_999 };
        let c = CTrace::from_events(4, &other);
        assert_ne!(a.chunks()[0].bytes, c.chunks()[0].bytes);
    }

    #[test]
    fn repeated_identical_blocks_produce_equal_bytes() {
        // A tight loop: the same 1024-event block recorded three times
        // yields three chunks with one distinct payload.
        let block = sample_events(CHUNK_EVENTS);
        let mut t = CTrace::new(4);
        for _ in 0..3 {
            t.record_all(block.iter().copied());
        }
        t.seal();
        assert_eq!(t.chunks().len(), 3);
        assert_eq!(t.chunks()[0].bytes, t.chunks()[1].bytes);
        assert_eq!(t.chunks()[1].bytes, t.chunks()[2].bytes);
    }

    #[test]
    fn compression_beats_raw_on_realistic_shapes() {
        let events = sample_events(8 * CHUNK_EVENTS);
        let t = CTrace::from_events(4, &events);
        let raw = t.raw_bytes();
        let compressed = t.compressed_bytes();
        assert!(
            compressed * 4 <= raw,
            "compressed {compressed} bytes vs raw {raw} bytes is under 4x"
        );
    }

    #[test]
    fn to_trace_matches_legacy_representation() {
        let events = sample_events(CHUNK_EVENTS + 100);
        let t = CTrace::from_events(3, &events);
        let legacy = t.to_trace().unwrap();
        assert_eq!(legacy.cores, 3);
        assert_eq!(legacy.events, events);
    }

    #[test]
    fn corrupted_payload_is_a_decode_error_not_a_panic() {
        let events = sample_events(CHUNK_EVENTS);
        let mut t = CTrace::from_events(4, &events);
        let chunk = &mut t.chunks_mut()[0];
        // Flip a byte in every region of the payload.
        let len = chunk.bytes.len();
        for i in [0, len / 3, len / 2, len - 1] {
            let mut broken = t.clone();
            broken.chunks_mut()[0].bytes[i] ^= 0xA5;
            let mut out = Vec::new();
            // Either a decode error or (rarely) a valid reinterpretation
            // — never a panic.
            match decode_chunk(&broken.chunks()[0], &mut out) {
                Ok(()) => assert_ne!(broken.chunks()[0].bytes, t.chunks()[0].bytes),
                Err(e) => assert!(!e.to_string().is_empty()),
            }
        }
        // Truncation must error.
        let mut short = t.clone();
        let b = &mut short.chunks_mut()[0].bytes;
        b.truncate(b.len() / 2);
        let mut out = Vec::new();
        assert!(decode_chunk(&short.chunks()[0], &mut out).is_err());
    }

    #[test]
    fn event_count_mismatch_is_detected() {
        let events = sample_events(64);
        let mut t = CTrace::from_events(4, &events);
        t.chunks_mut()[0].events += 1;
        let mut out = Vec::new();
        let err = decode_chunk(&t.chunks()[0], &mut out).unwrap_err();
        assert!(err.to_string().contains("chunk header"), "{err}");
    }

    #[test]
    fn meta_packing_roundtrips_every_op_and_class() {
        for op in [MemOp::Load, MemOp::Store, MemOp::StreamStore, MemOp::Atomic] {
            for class in DataClass::all() {
                let r = MemRecord {
                    actor: Actor::Core(0),
                    addr: 0,
                    bytes: 4096,
                    op,
                    class,
                    cycle: 0,
                };
                let (bytes, op2, class2) = unpack_meta(pack_meta(&r)).unwrap();
                assert_eq!((bytes, op2, class2), (4096, op, class));
            }
        }
        assert!(unpack_meta(0xF << 4).is_err(), "op index 15 is invalid");
        assert!(unpack_meta(0xF).is_err(), "class index 15 is invalid");
    }

    #[test]
    fn residency_is_dominated_by_compressed_bytes_plus_bounded_scratch() {
        let events = sample_events(20 * CHUNK_EVENTS);
        let mut t = CTrace::new(4);
        t.record_all(events.iter().copied());
        t.seal();
        let residency = t.peak_residency_bytes();
        assert!(
            residency < t.raw_bytes() / 2,
            "{residency} vs {}",
            t.raw_bytes()
        );
        assert!(residency >= t.compressed_bytes());
    }
}

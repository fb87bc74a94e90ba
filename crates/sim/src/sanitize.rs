//! SimSanitizer: happens-before race detection and invariant checking over
//! the replayed trace.
//!
//! The simulator replays per-core event streams against a timing model, so
//! every ordering obligation of the instrumented application is visible in
//! one place: DCL queue pushes and pops, engine drains, phase boundaries,
//! and the memory accesses whose correctness depends on them. This module
//! analyzes that record after a run:
//!
//! * a vector-clock **race detector** ([`RaceDetector`]) over watched
//!   memory words (frontier and binned-update regions; see
//!   [`spzip_mem::sanitize::Probe::watched`]), with queue push/pop edges,
//!   engine drains, phase barriers, and coherence-serialized atomics as
//!   the synchronization edges;
//! * a **queue-protocol checker** ([`QueueProtocol`]): occupancy never
//!   goes negative (no pop-before-push) and every quarter-word pushed is
//!   popped by the end of the run (no leaked slots);
//! * a **window checker** ([`WindowCheck`]): no core finishes with more
//!   outstanding-miss slots allocated than the MLP window has;
//! * a **line-accounting checker** ([`Accounting`]): every line the DRAM
//!   model moved is attributed to exactly one traffic class, in both
//!   directions.
//!
//! Checkers implement the [`Sanitizer`] trait and are pluggable; the
//! codec byte-conservation checks (S008/S009) live in
//! `spzip_compress::sanitize` and feed in through the application layer.
//!
//! Two analysis paths share one checker implementation:
//!
//! * [`analyze`] walks a flat, uncompressed [`Trace`] — the legacy path,
//!   kept as the differential oracle;
//! * [`analyze_compressed`] drives the same folds ([`RaceFold`],
//!   [`QueueFold`]) chunk-by-chunk over a codec-compressed
//!   [`crate::ctrace::CTrace`], fast-forwarding the queue checker over
//!   chunks it can summarize and adding `S010` trace-integrity checks. Both paths emit identical violations on any
//!   intact trace.
//!
//! Everything here is ordinary always-compiled code. The `sanitize`
//! feature only gates the *collection* hooks in the machine and memory
//! hierarchy, so default builds pay nothing.
//!
//! # Trace order
//!
//! [`Trace::events`] is in **execution order** — the order the machine
//! processed the underlying operations — not sorted by cycle. Cores run
//! their local clocks ahead of global time within a quantum, so cycle
//! numbers interleave non-monotonically across actors; execution order is
//! the causally consistent one (a pop is always recorded after the push
//! it consumed, a drain after the engine work it waited for). Cycle
//! numbers are kept for diagnostics only.

use crate::ctrace::CTrace;
use spzip_core::QueueId;
use spzip_mem::sanitize::{Actor, MemRecord};
use spzip_mem::stats::TrafficStats;
use spzip_mem::{DataClass, MemOp, LINE_BYTES};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

/// Race detection granularity: the 4-byte word, the smallest element the
/// applications store (frontier flags are `u32`).
pub const WORD_BYTES: u64 = 4;

/// Stable sanitizer diagnostic codes (the `S` registry; the DCL linter
/// owns `E`/`W`). See `DESIGN.md` for the invariant each one guards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Code {
    /// S001 — two writes to the same watched word with no happens-before
    /// edge between them.
    WriteWriteRace,
    /// S002 — a read and a write of the same watched word with no
    /// happens-before edge between them.
    ReadWriteRace,
    /// S003 — a queue pop of more quarter-words than the queue held.
    PopBeforePush,
    /// S004 — an operator still holds buffered chunk state at a drain
    /// point (a chunk was opened but never closed with a marker).
    UnterminatedChunk,
    /// S005 — a queue ends the run with pushed quarter-words never popped.
    QueueSlotLeak,
    /// S006 — a core finishes with more outstanding-miss slots allocated
    /// than its MLP window has.
    WindowLeak,
    /// S007 — DRAM line movements do not match the per-class byte totals:
    /// some traffic was moved but attributed to no class, or vice versa.
    LineAccounting,
    /// S008 — compress∘decompress is not the identity on a compressed
    /// region.
    RoundtripMismatch,
    /// S009 — a region's framed length does not match the bytes its
    /// frames actually consume.
    FramedLength,
    /// S010 — the compressed trace itself is damaged: a chunk fails to
    /// decode, or the chunk sequence is reordered, duplicated, or has
    /// gaps.
    TraceIntegrity,
}

impl Code {
    /// All codes, in registry order.
    pub fn all() -> [Code; 10] {
        [
            Code::WriteWriteRace,
            Code::ReadWriteRace,
            Code::PopBeforePush,
            Code::UnterminatedChunk,
            Code::QueueSlotLeak,
            Code::WindowLeak,
            Code::LineAccounting,
            Code::RoundtripMismatch,
            Code::FramedLength,
            Code::TraceIntegrity,
        ]
    }

    /// The stable code string.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::WriteWriteRace => "S001",
            Code::ReadWriteRace => "S002",
            Code::PopBeforePush => "S003",
            Code::UnterminatedChunk => "S004",
            Code::QueueSlotLeak => "S005",
            Code::WindowLeak => "S006",
            Code::LineAccounting => "S007",
            Code::RoundtripMismatch => "S008",
            Code::FramedLength => "S009",
            Code::TraceIntegrity => "S010",
        }
    }

    /// One-line description of the invariant the code guards.
    pub fn summary(self) -> &'static str {
        match self {
            Code::WriteWriteRace => "unordered writes to a shared word",
            Code::ReadWriteRace => "unordered read/write of a shared word",
            Code::PopBeforePush => "queue pop exceeds occupancy",
            Code::UnterminatedChunk => "chunk open at drain",
            Code::QueueSlotLeak => "queue not drained by end of run",
            Code::WindowLeak => "miss window over-subscribed",
            Code::LineAccounting => "DRAM lines not attributed to a class",
            Code::RoundtripMismatch => "codec round-trip not identity",
            Code::FramedLength => "framed length mismatch",
            Code::TraceIntegrity => "compressed trace chunk corrupt or out of order",
        }
    }

    /// Generic remediation hint.
    pub fn hint(self) -> &'static str {
        match self {
            Code::WriteWriteRace | Code::ReadWriteRace => {
                "order the accesses with a queue edge, an engine drain, or a phase barrier"
            }
            Code::PopBeforePush => {
                "the consumer ran ahead of the producer; check enqueue/dequeue placement"
            }
            Code::UnterminatedChunk => "close every chunk with its length/marker before draining",
            Code::QueueSlotLeak => "drain engines before ending the phase that feeds them",
            Code::WindowLeak => "the MLP window accounting leaked a slot; check retire paths",
            Code::LineAccounting => {
                "a hierarchy path moved a line without recording its traffic class"
            }
            Code::RoundtripMismatch => "the codec or the region it was framed into is corrupt",
            Code::FramedLength => "recompute the region's framed length after the last append",
            Code::TraceIntegrity => {
                "regenerate the trace; a damaged trace cannot vouch for the run it records"
            }
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One violated invariant, with enough actor/cycle/address context to
/// localize it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant.
    pub code: Code,
    /// What happened, concretely.
    pub message: String,
    /// Where: actor/cycle/address context rendered on the `-->` line.
    pub site: String,
}

impl Violation {
    /// Convenience constructor.
    pub fn new(code: Code, message: impl Into<String>, site: impl Into<String>) -> Self {
        Violation {
            code,
            message: message.into(),
            site: site.into(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error[{}]: {}", self.code, self.message)
    }
}

/// Renders violations in the compiler style the DCL linter uses:
///
/// ```text
/// error[S001]: write/write race on Updates word 0x3210
///   --> compressor 1 store at cycle 4821 vs fetcher 0 store at cycle 4770 (addr 0x3210)
///    = help: order the accesses with a queue edge, an engine drain, or a phase barrier
/// ```
pub fn render(violations: &[Violation]) -> String {
    let mut out = String::new();
    for v in violations {
        out.push_str(&format!("{v}\n"));
        out.push_str(&format!("  --> {}\n", v.site));
        out.push_str(&format!("   = help: {}\n", v.code.hint()));
    }
    if !violations.is_empty() {
        out.push_str(&format!("{} sanitizer violation(s)\n", violations.len()));
    }
    out
}

/// One entry of the synchronization/memory trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A watched memory access.
    Mem(MemRecord),
    /// `actor` pushed `quarters` quarter-words into queue `q` of `engine`
    /// (a release: downstream pops acquire everything the pusher had done).
    Push {
        /// Who pushed.
        actor: Actor,
        /// Whose queue.
        engine: Actor,
        /// Which queue.
        q: QueueId,
        /// Quarter-words moved.
        quarters: u32,
        /// Cycle, for diagnostics.
        cycle: u64,
    },
    /// `actor` popped `quarters` quarter-words from queue `q` of `engine`.
    Pop {
        /// Who popped.
        actor: Actor,
        /// Whose queue.
        engine: Actor,
        /// Which queue.
        q: QueueId,
        /// Quarter-words moved.
        quarters: u32,
        /// Cycle, for diagnostics.
        cycle: u64,
    },
    /// `actor` observed `engine` idle (a drain: the observer acquires
    /// everything the engine had done).
    Drain {
        /// Who waited.
        actor: Actor,
        /// Which engine was drained.
        engine: Actor,
        /// Cycle, for diagnostics.
        cycle: u64,
    },
    /// End of a phase: a global barrier across all actors.
    Barrier {
        /// Cycle, for diagnostics.
        cycle: u64,
    },
}

impl TraceEvent {
    /// The diagnostic cycle stamp.
    pub fn cycle(&self) -> u64 {
        match *self {
            TraceEvent::Mem(r) => r.cycle,
            TraceEvent::Push { cycle, .. }
            | TraceEvent::Pop { cycle, .. }
            | TraceEvent::Drain { cycle, .. }
            | TraceEvent::Barrier { cycle } => cycle,
        }
    }

    /// Tie-break rank when merging same-actor streams recorded at the
    /// same cycle, matching engine processing order: pending pushes commit
    /// first, then a firing pops its input, then it touches memory.
    pub fn rank(&self) -> u8 {
        match self {
            TraceEvent::Push { .. } => 0,
            TraceEvent::Pop { .. } | TraceEvent::Drain { .. } => 1,
            TraceEvent::Mem(_) => 2,
            TraceEvent::Barrier { .. } => 3,
        }
    }
}

/// The recorded trace of one run: every synchronization operation and
/// every watched memory access, in execution order (see module docs).
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Core count of the machine that produced the trace.
    pub cores: usize,
    /// Events in execution order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// An empty trace for a `cores`-core machine.
    pub fn new(cores: usize) -> Self {
        Trace {
            cores,
            events: Vec::new(),
        }
    }

    /// Appends one event.
    pub fn record(&mut self, e: TraceEvent) {
        self.events.push(e);
    }
}

/// Post-run state the non-trace checkers need.
#[derive(Debug, Clone)]
pub struct RunContext {
    /// Core count.
    pub cores: usize,
    /// MLP window size per core.
    pub core_mlp: usize,
    /// Outstanding-miss slots still allocated per core at finish.
    pub outstanding: Vec<usize>,
    /// Per-class DRAM-boundary byte totals.
    pub traffic: TrafficStats,
    /// Lines the DRAM model fetched.
    pub dram_fetch_lines: u64,
    /// Lines written back to DRAM on LLC eviction.
    pub dram_writeback_lines: u64,
    /// Dirty lines accounted by the end-of-run flush.
    pub flushed_lines: u64,
}

impl RunContext {
    /// A context with no traffic and empty windows — the identity for
    /// every non-trace check. Useful for trace-only analysis in tests.
    pub fn empty(cores: usize) -> Self {
        RunContext {
            cores,
            core_mlp: usize::MAX,
            outstanding: vec![0; cores],
            traffic: TrafficStats::new(),
            dram_fetch_lines: 0,
            dram_writeback_lines: 0,
            flushed_lines: 0,
        }
    }
}

/// A pluggable post-run checker.
pub trait Sanitizer {
    /// Analyzes one run.
    fn check(&mut self, trace: &Trace, ctx: &RunContext) -> Vec<Violation>;
}

/// The built-in checker set.
pub fn default_checkers() -> Vec<Box<dyn Sanitizer>> {
    vec![
        Box::new(RaceDetector::default()),
        Box::new(QueueProtocol),
        Box::new(WindowCheck),
        Box::new(Accounting),
    ]
}

/// Runs every built-in checker over one run.
pub fn analyze(trace: &Trace, ctx: &RunContext) -> Vec<Violation> {
    let mut out = Vec::new();
    for mut c in default_checkers() {
        out.extend(c.check(trace, ctx));
    }
    out
}

fn join_into(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = (*d).max(*s);
    }
}

fn op_name(op: MemOp) -> &'static str {
    match op {
        MemOp::Load => "load",
        MemOp::Store => "store",
        MemOp::StreamStore => "stream-store",
        MemOp::Atomic => "atomic",
    }
}

/// Last-access state of one watched word: the most recent write and the
/// reads since it, each stamped with the issuer's epoch at access time.
/// Reads are kept ordered by actor index so that when a write races more
/// than one prior reader, the reported one is the same on every analysis
/// of the same trace (hash-map iteration order would make the diagnostic
/// nondeterministic).
#[derive(Default)]
struct WordState {
    write: Option<(usize, Actor, u64, u64, MemOp)>,
    reads: BTreeMap<usize, (Actor, u64, u64)>,
}

/// Vector-clock happens-before race detector over watched words.
///
/// Each actor (core, fetcher, compressor — see
/// [`Actor`]) carries a vector clock.
/// Synchronization edges:
///
/// * **queue push** — release: the channel clock of `(engine, queue)`
///   absorbs the pusher's clock, then the pusher's own epoch increments;
/// * **queue pop** — acquire: the popper absorbs the channel clock;
/// * **engine drain** — acquire of the whole engine clock by the waiter;
/// * **phase barrier** — every actor absorbs every clock;
/// * **atomics** — coherence-serialized RMWs acquire and release a
///   per-word lock clock, so chains of atomics order their surroundings.
///
/// Two accesses to the same word race when neither's epoch is covered by
/// the other's clock at access time. Two atomics never race with each
/// other (the coherence protocol serializes them); an atomic against a
/// plain access does.
pub struct RaceDetector {
    /// Report at most this many races (one per word) before going quiet.
    pub max_reports: usize,
}

impl Default for RaceDetector {
    fn default() -> Self {
        RaceDetector { max_reports: 16 }
    }
}

impl Sanitizer for RaceDetector {
    fn check(&mut self, trace: &Trace, _ctx: &RunContext) -> Vec<Violation> {
        let mut fold = RaceFold::new(trace.cores, self.max_reports);
        for ev in &trace.events {
            fold.step(ev);
        }
        fold.finish()
    }
}

/// The incremental state of the race detector: one [`RaceFold::step`] per
/// trace event, in execution order.
///
/// This is the single implementation behind both analysis paths — the
/// legacy [`RaceDetector::check`] folds a flat event vector through it,
/// and [`analyze_compressed`] folds decoded chunks through it — so the
/// two paths emit identical violations by construction.
pub struct RaceFold {
    n: usize,
    max_reports: usize,
    clocks: Vec<Vec<u64>>,
    channels: HashMap<(usize, QueueId), Vec<u64>>,
    locks: HashMap<u64, Vec<u64>>,
    words: HashMap<u64, WordState>,
    reported: HashSet<u64>,
    out: Vec<Violation>,
}

impl RaceFold {
    /// Fresh detector state for a `cores`-core machine, reporting at most
    /// `max_reports` races.
    pub fn new(cores: usize, max_reports: usize) -> Self {
        let n = Actor::count(cores.max(1));
        let mut clocks: Vec<Vec<u64>> = vec![vec![0; n]; n];
        for (i, c) in clocks.iter_mut().enumerate() {
            c[i] = 1;
        }
        RaceFold {
            n,
            max_reports,
            clocks,
            channels: HashMap::new(),
            locks: HashMap::new(),
            words: HashMap::new(),
            reported: HashSet::new(),
            out: Vec::new(),
        }
    }

    /// Advances the vector-clock state by one event.
    pub fn step(&mut self, ev: &TraceEvent) {
        let n = self.n;
        match *ev {
            TraceEvent::Push {
                actor, engine, q, ..
            } => {
                let a = actor.index();
                let ch = self
                    .channels
                    .entry((engine.index(), q))
                    .or_insert_with(|| vec![0; n]);
                join_into(ch, &self.clocks[a]);
                self.clocks[a][a] += 1;
            }
            TraceEvent::Pop {
                actor, engine, q, ..
            } => {
                if let Some(ch) = self.channels.get(&(engine.index(), q)) {
                    let ch = ch.clone();
                    join_into(&mut self.clocks[actor.index()], &ch);
                }
            }
            TraceEvent::Drain { actor, engine, .. } => {
                let e = engine.index();
                let ec = self.clocks[e].clone();
                join_into(&mut self.clocks[actor.index()], &ec);
                self.clocks[e][e] += 1;
            }
            TraceEvent::Barrier { .. } => {
                let mut merged = vec![0u64; n];
                for c in &self.clocks {
                    join_into(&mut merged, c);
                }
                for (i, c) in self.clocks.iter_mut().enumerate() {
                    c.copy_from_slice(&merged);
                    c[i] += 1;
                }
            }
            TraceEvent::Mem(r) => {
                let a = r.actor.index();
                let first = r.addr / WORD_BYTES;
                let last = (r.addr + r.bytes.max(1) as u64 - 1) / WORD_BYTES;
                if r.op == MemOp::Atomic {
                    for w in first..=last {
                        if let Some(l) = self.locks.get(&w) {
                            let l = l.clone();
                            join_into(&mut self.clocks[a], &l);
                        }
                    }
                }
                for w in first..=last {
                    let st = self.words.entry(w).or_default();
                    let mut race: Option<(Actor, u64, MemOp, Code)> = None;
                    if r.op.is_write() {
                        if let Some((b, bact, ep, cyc, bop)) = st.write {
                            let both_atomic = bop == MemOp::Atomic && r.op == MemOp::Atomic;
                            if b != a && !both_atomic && self.clocks[a][b] < ep {
                                race = Some((bact, cyc, bop, Code::WriteWriteRace));
                            }
                        }
                        if race.is_none() {
                            for (&b, &(bact, ep, cyc)) in &st.reads {
                                if b != a && self.clocks[a][b] < ep {
                                    race = Some((bact, cyc, MemOp::Load, Code::ReadWriteRace));
                                    break;
                                }
                            }
                        }
                        st.write = Some((a, r.actor, self.clocks[a][a], r.cycle, r.op));
                        st.reads.clear();
                    } else {
                        if let Some((b, bact, ep, cyc, bop)) = st.write {
                            if b != a && self.clocks[a][b] < ep {
                                race = Some((bact, cyc, bop, Code::ReadWriteRace));
                            }
                        }
                        st.reads.insert(a, (r.actor, self.clocks[a][a], r.cycle));
                    }
                    if let Some((bact, cyc, bop, code)) = race {
                        if self.reported.insert(w) && self.out.len() < self.max_reports {
                            let kind = match code {
                                Code::WriteWriteRace => "write/write",
                                _ => "read/write",
                            };
                            self.out.push(Violation::new(
                                code,
                                format!("{kind} race on {} word {:#x}", r.class, w * WORD_BYTES),
                                format!(
                                    "{} {} at cycle {} vs {} {} at cycle {} (addr {:#x})",
                                    r.actor,
                                    op_name(r.op),
                                    r.cycle,
                                    bact,
                                    op_name(bop),
                                    cyc,
                                    r.addr
                                ),
                            ));
                        }
                    }
                }
                if r.op == MemOp::Atomic {
                    for w in first..=last {
                        let l = self.locks.entry(w).or_insert_with(|| vec![0; n]);
                        join_into(l, &self.clocks[a]);
                    }
                    self.clocks[a][a] += 1;
                }
            }
        }
    }

    /// Takes the violations found so far.
    pub fn finish(&mut self) -> Vec<Violation> {
        std::mem::take(&mut self.out)
    }
}

/// Queue-protocol checker: occupancy never goes negative (S003) and every
/// queue is empty by the end of the run (S005).
pub struct QueueProtocol;

impl Sanitizer for QueueProtocol {
    fn check(&mut self, trace: &Trace, _ctx: &RunContext) -> Vec<Violation> {
        let mut fold = QueueFold::new();
        for ev in &trace.events {
            fold.step(ev);
        }
        fold.finish()
    }
}

/// The incremental state of the queue-protocol checker — the single
/// implementation behind [`QueueProtocol::check`] and the chunked path,
/// like [`RaceFold`] is for races.
#[derive(Default)]
pub struct QueueFold {
    occ: HashMap<(Actor, QueueId), u64>,
    flagged: HashSet<(Actor, QueueId)>,
    out: Vec<Violation>,
}

impl QueueFold {
    /// Fresh state: all queues empty.
    pub fn new() -> Self {
        QueueFold::default()
    }

    /// Advances the occupancy state by one event.
    pub fn step(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::Push {
                engine,
                q,
                quarters,
                ..
            } => {
                *self.occ.entry((engine, q)).or_default() += quarters as u64;
            }
            TraceEvent::Pop {
                actor,
                engine,
                q,
                quarters,
                cycle,
            } => {
                let o = self.occ.entry((engine, q)).or_default();
                if (quarters as u64) > *o {
                    if self.flagged.insert((engine, q)) {
                        self.out.push(Violation::new(
                            Code::PopBeforePush,
                            format!(
                                "pop of {quarters} quarter-words from queue q{q} of {engine} \
                                 which held only {o}"
                            ),
                            format!("{actor} pop at cycle {cycle} (queue q{q} of {engine})"),
                        ));
                    }
                    *o = 0;
                } else {
                    *o -= quarters as u64;
                }
            }
            _ => {}
        }
    }

    /// Current occupancy of one queue.
    fn occupancy(&self, key: (Actor, QueueId)) -> u64 {
        self.occ.get(&key).copied().unwrap_or(0)
    }

    /// Applies a whole chunk's net occupancy change to one queue without
    /// replaying its events. Only sound when the chunk's running balance
    /// never dips below the queue's current occupancy (see
    /// [`QueueDelta::need`]), which the caller has checked.
    fn apply_net(&mut self, key: (Actor, QueueId), net: i64) {
        let o = self.occ.entry(key).or_default();
        *o = o
            .checked_add_signed(net)
            .expect("summary fast path requires occupancy >= need");
    }

    /// Appends the end-of-run leak violations and takes everything found.
    pub fn finish(&mut self) -> Vec<Violation> {
        let mut leaks: Vec<_> = std::mem::take(&mut self.occ)
            .into_iter()
            .filter(|&(_, v)| v > 0)
            .collect();
        leaks.sort_by_key(|&((e, q), _)| (e, q));
        for ((engine, q), v) in leaks {
            self.out.push(Violation::new(
                Code::QueueSlotLeak,
                format!("queue q{q} of {engine} ends the run holding {v} quarter-word(s)"),
                format!("queue q{q} of {engine} at end of run"),
            ));
        }
        std::mem::take(&mut self.out)
    }
}

/// Miss-window checker: at finish, no core may hold more outstanding-miss
/// slots than its MLP window has (S006).
pub struct WindowCheck;

impl Sanitizer for WindowCheck {
    fn check(&mut self, _trace: &Trace, ctx: &RunContext) -> Vec<Violation> {
        let mut out = Vec::new();
        for (core, &n) in ctx.outstanding.iter().enumerate() {
            if n > ctx.core_mlp {
                out.push(Violation::new(
                    Code::WindowLeak,
                    format!(
                        "core {core} finished with {n} outstanding-miss slots allocated \
                         (window holds {})",
                        ctx.core_mlp
                    ),
                    format!("core {core} at end of run"),
                ));
            }
        }
        out
    }
}

/// Cache-line accounting checker: the DRAM model's line movements must
/// equal the per-class byte totals in both directions (S007), so every
/// fetched or written-back line is attributed to exactly one traffic
/// class.
pub struct Accounting;

impl Sanitizer for Accounting {
    fn check(&mut self, _trace: &Trace, ctx: &RunContext) -> Vec<Violation> {
        let mut out = Vec::new();
        let read_bytes: u64 = DataClass::all()
            .iter()
            .map(|&c| ctx.traffic.read_bytes(c))
            .sum();
        let write_bytes: u64 = DataClass::all()
            .iter()
            .map(|&c| ctx.traffic.write_bytes(c))
            .sum();
        let fetched = ctx.dram_fetch_lines * LINE_BYTES;
        if fetched != read_bytes {
            out.push(Violation::new(
                Code::LineAccounting,
                format!(
                    "DRAM fetched {} line(s) = {fetched} bytes but classed read traffic \
                     totals {read_bytes} bytes",
                    ctx.dram_fetch_lines
                ),
                "DRAM read boundary at end of run".to_string(),
            ));
        }
        let written = (ctx.dram_writeback_lines + ctx.flushed_lines) * LINE_BYTES;
        if written != write_bytes {
            out.push(Violation::new(
                Code::LineAccounting,
                format!(
                    "DRAM absorbed {} writeback + {} flushed line(s) = {written} bytes but \
                     classed write traffic totals {write_bytes} bytes",
                    ctx.dram_writeback_lines, ctx.flushed_lines
                ),
                "DRAM write boundary at end of run".to_string(),
            ));
        }
        out
    }
}

/// Content-derived summary of one trace chunk: what the chunk-level
/// checkers need to decide whether they can apply a chunk's *effect*
/// without replaying its events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkSummary {
    /// Events in the chunk.
    pub events: u32,
    /// Per-queue occupancy effect, sorted by `(engine, queue)`.
    pub queues: Vec<(Actor, QueueId, QueueDelta)>,
}

/// A chunk's occupancy effect on one queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueDelta {
    /// Deepest dip of the chunk's running balance below zero: the minimum
    /// occupancy the queue must hold *entering* the chunk for no pop in
    /// it to underflow.
    pub need: u64,
    /// Net occupancy change across the whole chunk.
    pub net: i64,
}

/// Summarizes a decoded event block (content only — no entry state).
pub fn summarize_events(events: &[TraceEvent]) -> ChunkSummary {
    let mut queues: HashMap<(Actor, QueueId), (u64, i64)> = HashMap::new();
    for ev in events {
        match *ev {
            TraceEvent::Push {
                engine,
                q,
                quarters,
                ..
            } => {
                queues.entry((engine, q)).or_default().1 += quarters as i64;
            }
            TraceEvent::Pop {
                engine,
                q,
                quarters,
                ..
            } => {
                let (need, running) = queues.entry((engine, q)).or_default();
                *running -= quarters as i64;
                if *running < 0 {
                    *need = (*need).max(running.unsigned_abs());
                }
            }
            _ => {}
        }
    }
    let mut queues: Vec<_> = queues
        .into_iter()
        .map(|((e, q), (need, net))| (e, q, QueueDelta { need, net }))
        .collect();
    queues.sort_by_key(|&(e, q, _)| (e, q));
    ChunkSummary {
        events: events.len() as u32,
        queues,
    }
}

/// One decoded chunk handed to the chunk-level checkers, in stream order.
pub struct DecodedChunk<'a> {
    /// Position in the trace stream.
    pub seq: u64,
    /// Content summary.
    pub summary: &'a ChunkSummary,
    /// The decoded events.
    pub events: &'a [TraceEvent],
}

/// A checker driven chunk-by-chunk over the compressed trace.
///
/// The compressed analog of [`Sanitizer`]: `feed_chunk` sees every chunk
/// once, in order; `finish` sees the post-run context and emits whatever
/// the checker found. Checkers that can apply a summarized chunk without
/// walking its events report how often via [`ChunkSanitizer::fast_chunks`].
pub trait ChunkSanitizer {
    /// Observes one chunk of the trace, in stream order.
    fn feed_chunk(&mut self, chunk: &DecodedChunk<'_>);
    /// Finalizes against the post-run context.
    fn finish(&mut self, ctx: &RunContext) -> Vec<Violation>;
    /// Chunks this checker absorbed from their summary alone, without
    /// replaying events.
    fn fast_chunks(&self) -> usize {
        0
    }
}

/// Chunk-driven race detection: every chunk's events replay through the
/// shared [`RaceFold`]. Vector-clock state is entry-dependent, so chunks
/// cannot be skipped.
pub struct RaceChunks {
    fold: RaceFold,
}

impl RaceChunks {
    /// Fresh detector for a `cores`-core machine.
    pub fn new(cores: usize) -> Self {
        RaceChunks {
            fold: RaceFold::new(cores, RaceDetector::default().max_reports),
        }
    }
}

impl ChunkSanitizer for RaceChunks {
    fn feed_chunk(&mut self, chunk: &DecodedChunk<'_>) {
        for ev in chunk.events {
            self.fold.step(ev);
        }
    }

    fn finish(&mut self, _ctx: &RunContext) -> Vec<Violation> {
        self.fold.finish()
    }
}

/// Chunk-driven queue-protocol checking with a summary fast path: when
/// every queue the chunk touches holds at least [`QueueDelta::need`]
/// quarter-words on entry, no pop in the chunk can underflow, so the
/// chunk provably adds no violation and its whole effect is the per-queue
/// [`QueueDelta::net`] — applied without replaying events. Otherwise the
/// chunk replays through the shared [`QueueFold`], preserving exact
/// messages, ordering, and underflow-clamp semantics.
#[derive(Default)]
pub struct QueueChunks {
    fold: QueueFold,
    fast: usize,
}

impl QueueChunks {
    /// Fresh state: all queues empty.
    pub fn new() -> Self {
        QueueChunks::default()
    }
}

impl ChunkSanitizer for QueueChunks {
    fn feed_chunk(&mut self, chunk: &DecodedChunk<'_>) {
        let s = chunk.summary;
        let safe = s
            .queues
            .iter()
            .all(|&(e, q, d)| self.fold.occupancy((e, q)) >= d.need);
        if safe {
            for &(e, q, d) in &s.queues {
                self.fold.apply_net((e, q), d.net);
            }
            self.fast += 1;
        } else {
            for ev in chunk.events {
                self.fold.step(ev);
            }
        }
    }

    fn finish(&mut self, _ctx: &RunContext) -> Vec<Violation> {
        self.fold.finish()
    }

    fn fast_chunks(&self) -> usize {
        self.fast
    }
}

/// [`WindowCheck`] lifted to the chunk interface (context-only; ignores
/// the trace).
pub struct WindowChunks;

impl ChunkSanitizer for WindowChunks {
    fn feed_chunk(&mut self, _chunk: &DecodedChunk<'_>) {}

    fn finish(&mut self, ctx: &RunContext) -> Vec<Violation> {
        WindowCheck.check(&Trace::new(ctx.cores), ctx)
    }
}

/// [`Accounting`] lifted to the chunk interface (context-only; ignores
/// the trace).
pub struct AccountingChunks;

impl ChunkSanitizer for AccountingChunks {
    fn feed_chunk(&mut self, _chunk: &DecodedChunk<'_>) {}

    fn finish(&mut self, ctx: &RunContext) -> Vec<Violation> {
        Accounting.check(&Trace::new(ctx.cores), ctx)
    }
}

/// The built-in chunk-level checker set, in the same order as
/// [`default_checkers`] so violation ordering matches the legacy path.
pub fn default_chunk_checkers(cores: usize) -> Vec<Box<dyn ChunkSanitizer>> {
    vec![
        Box::new(RaceChunks::new(cores)),
        Box::new(QueueChunks::new()),
        Box::new(WindowChunks),
        Box::new(AccountingChunks),
    ]
}

/// What the compressed analysis did, beyond its verdicts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalyzeStats {
    /// Sealed chunks in the trace (a non-empty staged tail counts as one
    /// more).
    pub chunks: usize,
    /// Total events analyzed.
    pub events: usize,
    /// Chunks the queue checker absorbed from their summary alone.
    pub queue_fast_chunks: usize,
    /// S010 violations emitted.
    pub integrity_violations: usize,
}

/// Runs the chunk-level checker set over a compressed trace.
///
/// Emits the identical violation set as [`analyze`] on the decoded
/// events, preceded by any `S010` trace-integrity violations (out-of-
/// order or duplicated chunk sequence numbers, undecodable chunks). On an
/// intact trace the two paths agree exactly — the differential tests in
/// `tests/sanitizer_compressed.rs` hold this across the whole app×scheme
/// matrix.
pub fn analyze_compressed(trace: &CTrace, ctx: &RunContext) -> Vec<Violation> {
    analyze_compressed_stats(trace, ctx).0
}

/// [`analyze_compressed`] plus chunk statistics.
pub fn analyze_compressed_stats(
    trace: &CTrace,
    ctx: &RunContext,
) -> (Vec<Violation>, AnalyzeStats) {
    let mut stats = AnalyzeStats::default();
    let mut integrity = Vec::new();
    let mut checkers = default_chunk_checkers(trace.cores);

    let mut feed = |seq: u64, events: &[TraceEvent]| {
        stats.chunks += 1;
        stats.events += events.len();
        let chunk = DecodedChunk {
            seq,
            summary: &summarize_events(events),
            events,
        };
        for c in checkers.iter_mut() {
            c.feed_chunk(&chunk);
        }
    };

    let mut scratch = Vec::new();
    for (i, chunk) in trace.chunks().iter().enumerate() {
        if chunk.seq != i as u64 {
            integrity.push(Violation::new(
                Code::TraceIntegrity,
                format!(
                    "trace chunk at position {i} carries sequence number {} \
                     (chunks reordered, duplicated, or lost)",
                    chunk.seq
                ),
                format!("compressed trace chunk {i}"),
            ));
        }
        scratch.clear();
        match crate::ctrace::decode_chunk(chunk, &mut scratch) {
            Ok(()) => feed(chunk.seq, &scratch),
            Err(e) => {
                integrity.push(Violation::new(
                    Code::TraceIntegrity,
                    format!("trace chunk {i} failed to decode: {e}"),
                    format!("compressed trace chunk {i} ({} event(s))", chunk.events),
                ));
            }
        }
    }
    if !trace.pending().is_empty() {
        feed(trace.chunks().len() as u64, trace.pending());
    }

    stats.integrity_violations = integrity.len();
    let mut out = integrity;
    for c in checkers.iter_mut() {
        out.extend(c.finish(ctx));
        stats.queue_fast_chunks += c.fast_chunks();
    }
    (out, stats)
}

/// Everything a sanitized run produced beyond its timing report.
#[derive(Debug, Clone)]
pub struct SanitizeReport {
    /// Violations, built-in checkers first, then externally noted ones.
    pub violations: Vec<Violation>,
    /// The recorded compressed trace (kept so tests can decode, tamper,
    /// re-encode, and re-analyze).
    pub trace: CTrace,
    /// The post-run context the checkers saw.
    pub context: RunContext,
}

impl SanitizeReport {
    /// No violations at all.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders the violations compiler-style (empty string when clean).
    pub fn render(&self) -> String {
        render(&self.violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(actor: Actor, addr: u64, bytes: u32, op: MemOp, cycle: u64) -> TraceEvent {
        TraceEvent::Mem(MemRecord {
            actor,
            addr,
            bytes,
            op,
            class: DataClass::Updates,
            cycle,
        })
    }

    fn races(trace: &Trace) -> Vec<Violation> {
        RaceDetector::default().check(trace, &RunContext::empty(trace.cores))
    }

    #[test]
    fn unordered_writes_race() {
        let mut t = Trace::new(2);
        t.record(rec(Actor::Core(0), 0x100, 4, MemOp::Store, 10));
        t.record(rec(Actor::Compressor(1), 0x100, 4, MemOp::Store, 20));
        let v = races(&t);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].code, Code::WriteWriteRace);
        assert!(v[0].site.contains("compressor 1"), "{}", v[0].site);
        assert!(v[0].site.contains("core 0"), "{}", v[0].site);
        assert!(v[0].site.contains("cycle 20"), "{}", v[0].site);
        assert!(v[0].site.contains("0x100"), "{}", v[0].site);
    }

    #[test]
    fn queue_edge_orders_accesses_and_its_removal_races() {
        let push = TraceEvent::Push {
            actor: Actor::Core(0),
            engine: Actor::Fetcher(0),
            q: 0,
            quarters: 4,
            cycle: 11,
        };
        let pop = TraceEvent::Pop {
            actor: Actor::Fetcher(0),
            engine: Actor::Fetcher(0),
            q: 0,
            quarters: 4,
            cycle: 12,
        };
        let mut t = Trace::new(1);
        t.record(rec(Actor::Core(0), 0x200, 4, MemOp::Store, 10));
        t.record(push);
        t.record(pop);
        t.record(rec(Actor::Fetcher(0), 0x200, 4, MemOp::Store, 20));
        assert!(races(&t).is_empty());

        // Remove the pop: the producer→consumer edge is gone and the same
        // two stores now race.
        let mut broken = t.clone();
        broken
            .events
            .retain(|e| !matches!(e, TraceEvent::Pop { .. }));
        let v = races(&broken);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].code, Code::WriteWriteRace);
    }

    #[test]
    fn barrier_orders_phases_and_its_removal_races() {
        let mut t = Trace::new(2);
        t.record(rec(Actor::Core(0), 0x300, 4, MemOp::Store, 10));
        t.record(TraceEvent::Barrier { cycle: 15 });
        t.record(rec(Actor::Core(1), 0x300, 4, MemOp::Load, 20));
        assert!(races(&t).is_empty());

        let mut broken = t.clone();
        broken
            .events
            .retain(|e| !matches!(e, TraceEvent::Barrier { .. }));
        let v = races(&broken);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].code, Code::ReadWriteRace);
    }

    #[test]
    fn drain_orders_engine_before_core() {
        let mut t = Trace::new(1);
        t.record(rec(Actor::Compressor(0), 0x400, 4, MemOp::StreamStore, 10));
        t.record(TraceEvent::Drain {
            actor: Actor::Core(0),
            engine: Actor::Compressor(0),
            cycle: 15,
        });
        t.record(rec(Actor::Core(0), 0x400, 4, MemOp::Load, 20));
        assert!(races(&t).is_empty());
    }

    #[test]
    fn atomics_do_not_race_each_other_but_do_race_plain_stores() {
        let mut t = Trace::new(2);
        t.record(rec(Actor::Core(0), 0x500, 4, MemOp::Atomic, 10));
        t.record(rec(Actor::Core(1), 0x500, 4, MemOp::Atomic, 11));
        assert!(races(&t).is_empty());

        let mut t2 = Trace::new(2);
        t2.record(rec(Actor::Core(0), 0x500, 4, MemOp::Atomic, 10));
        t2.record(rec(Actor::Core(1), 0x500, 4, MemOp::Store, 11));
        let v = races(&t2);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].code, Code::WriteWriteRace);
    }

    #[test]
    fn atomic_chain_carries_ordering() {
        // a stores, a atomics the flag, b atomics the flag, b loads: the
        // lock clock on the flag word orders the store before the load.
        let mut t = Trace::new(2);
        t.record(rec(Actor::Core(0), 0x600, 4, MemOp::Store, 10));
        t.record(rec(Actor::Core(0), 0x700, 4, MemOp::Atomic, 11));
        t.record(rec(Actor::Core(1), 0x700, 4, MemOp::Atomic, 12));
        t.record(rec(Actor::Core(1), 0x600, 4, MemOp::Load, 13));
        assert!(races(&t).is_empty());
    }

    #[test]
    fn multi_word_access_races_per_word() {
        let mut t = Trace::new(2);
        t.record(rec(Actor::Core(0), 0x800, 16, MemOp::Store, 10));
        t.record(rec(Actor::Core(1), 0x804, 4, MemOp::Store, 11));
        let v = races(&t);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("0x804"), "{}", v[0].message);
    }

    #[test]
    fn pop_before_push_flagged() {
        let mut t = Trace::new(1);
        t.record(TraceEvent::Pop {
            actor: Actor::Fetcher(0),
            engine: Actor::Fetcher(0),
            q: 2,
            quarters: 4,
            cycle: 5,
        });
        let v = QueueProtocol.check(&t, &RunContext::empty(1));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].code, Code::PopBeforePush);
        assert!(v[0].message.contains("q2"), "{}", v[0].message);
    }

    #[test]
    fn leaked_queue_slots_flagged() {
        let mut t = Trace::new(1);
        t.record(TraceEvent::Push {
            actor: Actor::Core(0),
            engine: Actor::Compressor(0),
            q: 0,
            quarters: 8,
            cycle: 5,
        });
        t.record(TraceEvent::Pop {
            actor: Actor::Compressor(0),
            engine: Actor::Compressor(0),
            q: 0,
            quarters: 4,
            cycle: 6,
        });
        let v = QueueProtocol.check(&t, &RunContext::empty(1));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].code, Code::QueueSlotLeak);
        assert!(v[0].message.contains('4'), "{}", v[0].message);
    }

    #[test]
    fn balanced_queues_are_clean() {
        let mut t = Trace::new(1);
        for _ in 0..3 {
            t.record(TraceEvent::Push {
                actor: Actor::Core(0),
                engine: Actor::Fetcher(0),
                q: 1,
                quarters: 4,
                cycle: 0,
            });
            t.record(TraceEvent::Pop {
                actor: Actor::Fetcher(0),
                engine: Actor::Fetcher(0),
                q: 1,
                quarters: 4,
                cycle: 1,
            });
        }
        assert!(QueueProtocol.check(&t, &RunContext::empty(1)).is_empty());
    }

    #[test]
    fn window_oversubscription_flagged() {
        let mut ctx = RunContext::empty(2);
        ctx.core_mlp = 10;
        ctx.outstanding = vec![3, 11];
        let v = WindowCheck.check(&Trace::new(2), &ctx);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].code, Code::WindowLeak);
        assert!(v[0].message.contains("core 1"), "{}", v[0].message);
    }

    #[test]
    fn accounting_mismatch_flagged_per_direction() {
        let mut ctx = RunContext::empty(1);
        ctx.traffic.record_read(DataClass::Updates, 128);
        ctx.dram_fetch_lines = 2; // matches: 2 * 64 == 128
        assert!(Accounting.check(&Trace::new(1), &ctx).is_empty());

        ctx.dram_fetch_lines = 3; // one line fetched with no class
        let v = Accounting.check(&Trace::new(1), &ctx);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].code, Code::LineAccounting);

        let mut ctx2 = RunContext::empty(1);
        ctx2.traffic.record_write(DataClass::Frontier, 64);
        let v2 = Accounting.check(&Trace::new(1), &ctx2);
        assert_eq!(v2.len(), 1);
        assert!(v2[0].message.contains("write"), "{}", v2[0].message);
    }

    #[test]
    fn render_is_compiler_style() {
        let mut t = Trace::new(2);
        t.record(rec(Actor::Core(0), 0x900, 4, MemOp::Store, 10));
        t.record(rec(Actor::Fetcher(1), 0x900, 4, MemOp::Store, 20));
        let out = render(&analyze(&t, &RunContext::empty(2)));
        assert!(out.contains("error[S001]"), "{out}");
        assert!(out.contains("  --> "), "{out}");
        assert!(out.contains("= help:"), "{out}");
        assert!(out.contains("1 sanitizer violation(s)"), "{out}");
    }

    #[test]
    fn codes_are_dense_and_unique() {
        let mut seen = HashSet::new();
        for c in Code::all() {
            assert!(seen.insert(c.as_str()));
            assert!(c.as_str().starts_with('S'));
            assert!(!c.summary().is_empty());
            assert!(!c.hint().is_empty());
        }
        assert_eq!(seen.len(), 10);
    }

    #[test]
    fn clean_trace_analyzes_silent() {
        let t = Trace::new(4);
        assert!(analyze(&t, &RunContext::empty(4)).is_empty());
    }

    fn assert_verdicts_match(trace: &Trace) {
        let ctx = RunContext::empty(trace.cores);
        let legacy = analyze(trace, &ctx);
        let ct = CTrace::from_trace(trace);
        let (compressed, stats) = analyze_compressed_stats(&ct, &ctx);
        assert_eq!(compressed.len(), legacy.len());
        for (a, b) in legacy.iter().zip(&compressed) {
            assert_eq!(a.code, b.code);
            assert_eq!(a.message, b.message);
            assert_eq!(a.site, b.site);
        }
        assert_eq!(stats.events, trace.events.len());
        assert_eq!(stats.integrity_violations, 0);
    }

    #[test]
    fn compressed_analysis_matches_legacy_on_racy_traces() {
        let mut t = Trace::new(2);
        t.record(rec(Actor::Core(0), 0x100, 4, MemOp::Store, 10));
        t.record(rec(Actor::Compressor(1), 0x100, 4, MemOp::Store, 20));
        t.record(TraceEvent::Pop {
            actor: Actor::Fetcher(0),
            engine: Actor::Fetcher(0),
            q: 2,
            quarters: 4,
            cycle: 5,
        });
        t.record(TraceEvent::Push {
            actor: Actor::Core(0),
            engine: Actor::Compressor(0),
            q: 0,
            quarters: 8,
            cycle: 6,
        });
        assert_verdicts_match(&t);
    }

    #[test]
    fn compressed_analysis_matches_legacy_across_chunk_boundaries() {
        // A balanced push/pop loop long enough to span several chunks,
        // with a race planted near the end so state must survive sealing.
        let mut t = Trace::new(2);
        for i in 0..3 * crate::ctrace::CHUNK_EVENTS as u64 {
            t.record(TraceEvent::Push {
                actor: Actor::Core(0),
                engine: Actor::Fetcher(0),
                q: 1,
                quarters: 4,
                cycle: 2 * i,
            });
            t.record(TraceEvent::Pop {
                actor: Actor::Fetcher(0),
                engine: Actor::Fetcher(0),
                q: 1,
                quarters: 4,
                cycle: 2 * i + 1,
            });
        }
        t.record(rec(Actor::Core(0), 0xA00, 4, MemOp::Store, 1));
        t.record(rec(Actor::Core(1), 0xA00, 4, MemOp::Store, 2));
        assert_verdicts_match(&t);
    }

    #[test]
    fn repeated_chunks_are_queue_fast_forwarded() {
        // Balanced chunks never dip below their entry occupancy, so the
        // queue checker should fast-forward all of them.
        let mut t = Trace::new(1);
        for i in 0..4 * crate::ctrace::CHUNK_EVENTS as u64 {
            let ev = if i % 2 == 0 {
                TraceEvent::Push {
                    actor: Actor::Core(0),
                    engine: Actor::Fetcher(0),
                    q: 0,
                    quarters: 4,
                    cycle: 7,
                }
            } else {
                TraceEvent::Pop {
                    actor: Actor::Fetcher(0),
                    engine: Actor::Fetcher(0),
                    q: 0,
                    quarters: 4,
                    cycle: 7,
                }
            };
            t.record(ev);
        }
        let ct = CTrace::from_trace(&t);
        assert_eq!(ct.chunks().len(), 4);
        let (v, stats) = analyze_compressed_stats(&ct, &RunContext::empty(1));
        assert!(v.is_empty(), "{}", render(&v));
        assert_eq!(stats.queue_fast_chunks, 4);
        assert_verdicts_match(&t);
    }

    #[test]
    fn reordered_chunks_report_s010() {
        let mut t = Trace::new(1);
        for i in 0..2 * crate::ctrace::CHUNK_EVENTS as u64 {
            t.record(TraceEvent::Barrier { cycle: i });
        }
        let mut ct = CTrace::from_trace(&t);
        ct.chunks_mut().swap(0, 1);
        let (v, stats) = analyze_compressed_stats(&ct, &RunContext::empty(1));
        assert!(v.iter().any(|x| x.code == Code::TraceIntegrity), "{v:?}");
        assert_eq!(stats.integrity_violations, 2);
    }

    #[test]
    fn duplicated_chunk_reports_s010() {
        let mut t = Trace::new(1);
        for i in 0..2 * crate::ctrace::CHUNK_EVENTS as u64 {
            t.record(TraceEvent::Barrier { cycle: i });
        }
        let mut ct = CTrace::from_trace(&t);
        let dup = ct.chunks()[0].clone();
        ct.chunks_mut().insert(1, dup);
        let v = analyze_compressed(&ct, &RunContext::empty(1));
        assert!(v.iter().any(|x| x.code == Code::TraceIntegrity), "{v:?}");
    }

    #[test]
    fn undecodable_chunk_reports_s010_not_panic() {
        let mut t = Trace::new(1);
        for i in 0..crate::ctrace::CHUNK_EVENTS as u64 {
            t.record(TraceEvent::Barrier { cycle: i });
        }
        let mut ct = CTrace::from_trace(&t);
        let b = &mut ct.chunks_mut()[0].bytes;
        let len = b.len();
        b.truncate(len / 2);
        let v = analyze_compressed(&ct, &RunContext::empty(1));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].code, Code::TraceIntegrity);
        assert!(
            v[0].message.contains("failed to decode"),
            "{}",
            v[0].message
        );
    }

    #[test]
    fn queue_summary_fast_path_matches_replay_on_underflow() {
        // First chunk ends with a deficit the second chunk's pops deepen:
        // the second chunk must replay (need > entry occupancy) and flag
        // exactly what the legacy path flags.
        let mut t = Trace::new(1);
        t.record(TraceEvent::Push {
            actor: Actor::Core(0),
            engine: Actor::Fetcher(0),
            q: 0,
            quarters: 4,
            cycle: 1,
        });
        for i in 0..crate::ctrace::CHUNK_EVENTS as u64 {
            t.record(TraceEvent::Barrier { cycle: i });
        }
        t.record(TraceEvent::Pop {
            actor: Actor::Fetcher(0),
            engine: Actor::Fetcher(0),
            q: 0,
            quarters: 8,
            cycle: 99,
        });
        assert_verdicts_match(&t);
    }
}

//! The machine: cores + per-core engines + memory system, advanced in
//! small cycle quanta.
//!
//! Each core is an in-order event consumer with a bounded window of
//! outstanding misses (standing in for the OOO window's memory-level
//! parallelism). Engines fire one operator per cycle. The main loop
//! advances everything in `quantum`-cycle steps, pulling new work for a
//! core from the [`WorkSource`] whenever its event queue drains — the
//! dynamic chunk scheduling of the paper's runtime.

#[cfg(feature = "sanitize")]
use crate::ctrace::CTrace;
use crate::event::Event;
use crate::report::RunReport;
#[cfg(feature = "sanitize")]
use crate::sanitize::{RunContext, SanitizeReport, TraceEvent, Violation};
use spzip_core::dcl::Pipeline;
use spzip_core::engine::{EngineConfig, EngineModel};
use spzip_core::func::Firing;
use spzip_core::QueueId;
use spzip_mem::hierarchy::{MemConfig, MemorySystem};
#[cfg(feature = "sanitize")]
use spzip_mem::sanitize::Actor;
use spzip_mem::Port;
use std::collections::VecDeque;

/// The sanitizer trace slot threaded through the core step. A unit type
/// in default builds, so the hot path carries no state and no branches.
#[cfg(feature = "sanitize")]
type SanitizeSlot = Option<CTrace>;
#[cfg(not(feature = "sanitize"))]
type SanitizeSlot = ();

/// Index of the fetcher in a core's engine pair.
const FETCHER: usize = 0;
/// Index of the compressor in a core's engine pair.
const COMPRESSOR: usize = 1;
/// Engine names in pair order, as deadlock reports spell the actors.
const ENGINE_NAMES: [&str; 2] = ["fetcher", "compressor"];

/// The sanitizer actor of engine `e` of core `core`.
#[cfg(feature = "sanitize")]
fn engine_actor(e: usize, core: usize) -> Actor {
    [Actor::Fetcher(core), Actor::Compressor(core)][e]
}

/// A core-side queue instruction, aimed at one engine of the core's pair.
#[derive(Debug, Clone, Copy)]
enum QueueOp {
    /// Push quarter-words into an input queue; blocks while it is full.
    Push(QueueId, u16),
    /// Pop quarter-words from an output queue; blocks while it holds less.
    Pop(QueueId, u16),
    /// Wait until the engine has drained all in-flight work.
    Drain,
}

/// One blocked actor in a wedged machine and what it waits on — an edge
/// of the wait-for graph at the moment the watchdog tripped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaitForEdge {
    /// The blocked actor, e.g. `"core 0"` or `"fetcher 1"`.
    pub actor: String,
    /// What it waits for: the core's front event, or the engine's
    /// stall diagnosis (`InputEmpty`, `OutputFull`, ...).
    pub waits_on: String,
}

/// Structured diagnosis of a machine deadlock: the watchdog's wait-for
/// report, produced instead of a panic when no component makes progress
/// for [`MachineConfig::deadlock_cycles`]. The liveness corpus asserts on
/// this report to confirm statically predicted deadlocks dynamically.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DeadlockReport {
    /// Cycle at which the watchdog tripped.
    pub at_cycle: u64,
    /// Last cycle on which any core or engine made progress.
    pub last_progress: u64,
    /// Every blocked actor and its pending wait.
    pub edges: Vec<WaitForEdge>,
    /// Fetcher queue occupancies in quarter-words, indexed `[core][queue]`.
    pub fetcher_occupancy: Vec<Vec<u32>>,
    /// Compressor queue occupancies in quarter-words, `[core][queue]`.
    pub compressor_occupancy: Vec<Vec<u32>>,
}

impl DeadlockReport {
    /// Multi-line human-readable rendering (used by the `Display` impl).
    pub fn render(&self) -> String {
        let mut s = format!(
            "machine deadlock at cycle {} (last progress at {}):\n",
            self.at_cycle, self.last_progress
        );
        for e in &self.edges {
            s.push_str(&format!("  {} blocked on {}\n", e.actor, e.waits_on));
        }
        let occ = |name: &str, per_core: &[Vec<u32>], out: &mut String| {
            for (i, qs) in per_core.iter().enumerate() {
                if qs.iter().any(|&q| q > 0) {
                    let list: Vec<String> = qs
                        .iter()
                        .enumerate()
                        .map(|(q, &o)| format!("q{q}={o}"))
                        .collect();
                    out.push_str(&format!("  {name} {i} occupancy: {}\n", list.join(" ")));
                }
            }
        };
        occ("fetcher", &self.fetcher_occupancy, &mut s);
        occ("compressor", &self.compressor_occupancy, &mut s);
        s
    }
}

impl std::fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Machine-level configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    /// Memory-hierarchy parameters.
    pub mem: MemConfig,
    /// Outstanding misses a core can have in flight (the MLP window).
    pub core_mlp: usize,
    /// Cycles per enqueue/dequeue instruction when it does not block.
    pub queue_op_cycles: u32,
    /// Simulation quantum in cycles.
    pub quantum: u64,
    /// Fetcher engine parameters.
    pub fetcher: EngineConfig,
    /// Compressor engine parameters.
    pub compressor: EngineConfig,
    /// Abort if no component makes progress for this many cycles.
    pub deadlock_cycles: u64,
}

impl MachineConfig {
    /// The scaled Table II system.
    pub fn paper_scaled() -> Self {
        MachineConfig {
            mem: MemConfig::paper_scaled(),
            core_mlp: 10,
            queue_op_cycles: 1,
            quantum: 8,
            fetcher: EngineConfig::fetcher(),
            compressor: EngineConfig::compressor(),
            deadlock_cycles: 4_000_000,
        }
    }
}

/// One batch of work handed to a core: its event stream plus any firing
/// traces for that core's engines.
#[derive(Debug, Default)]
pub struct CoreWork {
    /// Events the core replays, in order.
    pub events: Vec<Event>,
    /// Firings to append to the core's fetcher (per operator).
    pub fetcher_trace: Option<Vec<Vec<Firing>>>,
    /// Firings to append to the core's compressor (per operator).
    pub compressor_trace: Option<Vec<Vec<Firing>>>,
}

/// Supplies chunks of work on demand (dynamic load balancing).
pub trait WorkSource {
    /// Next batch for `core`, or `None` if no work remains this phase.
    fn next(&mut self, core: usize) -> Option<CoreWork>;
}

impl<F: FnMut(usize) -> Option<CoreWork>> WorkSource for F {
    fn next(&mut self, core: usize) -> Option<CoreWork> {
        self(core)
    }
}

#[derive(Debug, Default)]
struct CoreState {
    events: VecDeque<Event>,
    /// Completion cycles of outstanding misses.
    window: Vec<u64>,
    /// Core-local time (>= global now; core idles until it).
    t: u64,
    /// Whether the source reported no more work.
    exhausted: bool,
    retired_events: u64,
    stall_cycles: u64,
}

/// The simulated machine. See the module docs.
pub struct Machine {
    cfg: MachineConfig,
    mem: MemorySystem,
    cores: Vec<CoreState>,
    /// Each core's engine pair, indexed by [`FETCHER`] and [`COMPRESSOR`].
    engines: Vec<[EngineModel; 2]>,
    now: u64,
    /// Set when the watchdog trips; poisons subsequent phases.
    deadlock: Option<DeadlockReport>,
    /// SimSanitizer trace; `Some` only while a sanitized run is active.
    sanitize: SanitizeSlot,
    /// Violations noted by outer layers (codec checks, drain discipline).
    #[cfg(feature = "sanitize")]
    external_violations: Vec<Violation>,
}

impl Machine {
    /// Creates an idle machine.
    pub fn new(cfg: MachineConfig) -> Self {
        let n = cfg.mem.cores;
        Machine {
            mem: MemorySystem::new(cfg.mem),
            cores: (0..n).map(|_| CoreState::default()).collect(),
            engines: (0..n)
                .map(|i| {
                    [
                        EngineModel::new(cfg.fetcher, i),
                        EngineModel::new(cfg.compressor, i),
                    ]
                })
                .collect(),
            now: 0,
            deadlock: None,
            sanitize: Default::default(),
            #[cfg(feature = "sanitize")]
            external_violations: Vec::new(),
            cfg,
        }
    }

    /// Turns on SimSanitizer collection: the memory probe, engine
    /// queue-op logs, and the synchronization trace. Idempotent. Call
    /// before the first phase; end the run with [`Machine::finish_sanitized`].
    #[cfg(feature = "sanitize")]
    pub fn enable_sanitizer(&mut self) {
        self.mem.enable_probe();
        for engine in self.engines.iter_mut().flatten() {
            engine.set_queue_logging(true);
        }
        if self.sanitize.is_none() {
            self.sanitize = Some(CTrace::new(self.cfg.mem.cores));
        }
    }

    /// Whether a sanitized run is active.
    #[cfg(feature = "sanitize")]
    pub fn sanitizing(&self) -> bool {
        self.sanitize.is_some()
    }

    /// Records a violation found by an outer layer (codec conservation,
    /// functional drain discipline) for inclusion in the final report.
    #[cfg(feature = "sanitize")]
    pub fn note_violation(&mut self, v: Violation) {
        self.external_violations.push(v);
    }

    /// The configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The memory system (for oracles and direct inspection).
    pub fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// Enables the compressed-memory-hierarchy baseline (Fig. 22) with a
    /// static per-line BDI profile.
    pub fn enable_cmh(&mut self, profile: std::collections::HashMap<u64, u32>) {
        self.mem
            .enable_cmh(spzip_mem::hierarchy::BdiProfile::from_lines(profile), 6);
    }

    /// Loads a DCL program into every core's fetcher.
    pub fn load_fetcher_program(&mut self, pipeline: &Pipeline) {
        for pair in &mut self.engines {
            pair[FETCHER].load_program(pipeline, self.now);
        }
    }

    /// Loads a DCL program into one core's fetcher only.
    pub fn load_fetcher_program_for(&mut self, core: usize, pipeline: &Pipeline) {
        self.engines[core][FETCHER].load_program(pipeline, self.now);
    }

    /// Loads a DCL program into one core's compressor only.
    pub fn load_compressor_program_for(&mut self, core: usize, pipeline: &Pipeline) {
        self.engines[core][COMPRESSOR].load_program(pipeline, self.now);
    }

    /// Overrides the fetcher scratchpad size on every core (the Fig. 21
    /// sensitivity sweep). Takes effect at the next program load.
    pub fn set_fetcher_scratchpad(&mut self, bytes: u32) {
        self.cfg.fetcher.scratchpad_bytes = bytes;
        #[cfg(feature = "sanitize")]
        let relog = self.sanitize.is_some();
        for (i, pair) in self.engines.iter_mut().enumerate() {
            pair[FETCHER] = EngineModel::new(self.cfg.fetcher, i);
            #[cfg(feature = "sanitize")]
            if relog {
                pair[FETCHER].set_queue_logging(true);
            }
        }
    }

    /// Runs one phase: pulls work from `source` per core until everything
    /// is drained, then returns the cycles this phase took.
    ///
    /// If no component makes progress for `deadlock_cycles` (a protocol
    /// bug in the instrumented application, or a liveness-corpus seed),
    /// the phase stops and records a structured [`DeadlockReport`]
    /// ([`Machine::deadlock`]); the machine is poisoned — later phases
    /// drain their source without simulating and return 0 cycles.
    pub fn run_phase(&mut self, source: &mut dyn WorkSource) -> u64 {
        if self.deadlock.is_some() {
            // Poisoned: consume the source (so callers that feed a fixed
            // batch list terminate) but simulate nothing further.
            for i in 0..self.cores.len() {
                while source.next(i).is_some() {}
            }
            return 0;
        }
        let start = self.now;
        for c in &mut self.cores {
            c.exhausted = false;
            c.t = self.now;
        }
        let mut last_progress = self.now;
        loop {
            // Refill drained cores.
            for i in 0..self.cores.len() {
                if self.cores[i].events.is_empty() && !self.cores[i].exhausted {
                    match source.next(i) {
                        Some(work) => {
                            self.cores[i].events.extend(work.events);
                            let traces = [work.fetcher_trace, work.compressor_trace];
                            for (engine, trace) in self.engines[i].iter_mut().zip(traces) {
                                if let Some(t) = trace {
                                    engine.append_trace(t);
                                }
                            }
                        }
                        None => self.cores[i].exhausted = true,
                    }
                }
            }
            if self.quiescent() {
                break;
            }
            // Advance one quantum.
            let quantum = self.cfg.quantum;
            let mut progressed = false;
            for i in 0..self.cores.len() {
                progressed |= advance_core(
                    &self.cfg,
                    i,
                    &mut self.cores[i],
                    &mut self.engines[i],
                    &mut self.mem,
                    self.now,
                    quantum,
                    &mut self.sanitize,
                );
            }
            for i in 0..self.cores.len() {
                for e in [FETCHER, COMPRESSOR] {
                    let engine = &mut self.engines[i][e];
                    progressed |= engine.tick(self.now, quantum, &mut self.mem) > 0;
                    #[cfg(feature = "sanitize")]
                    drain_engine_events(
                        &mut self.sanitize,
                        &mut self.mem,
                        engine,
                        engine_actor(e, i),
                    );
                }
            }
            self.now += quantum;
            if progressed {
                last_progress = self.now;
            } else if self.now - last_progress > self.cfg.deadlock_cycles {
                self.deadlock = Some(self.deadlock_report(last_progress));
                break;
            }
        }
        // A phase ends only once every core and engine is quiescent: a
        // global barrier in happens-before terms.
        #[cfg(feature = "sanitize")]
        if let Some(tr) = self.sanitize.as_mut() {
            tr.record(TraceEvent::Barrier { cycle: self.now });
        }
        self.now - start
    }

    fn quiescent(&self) -> bool {
        // Cores may run their local clocks ahead of the global one within
        // a quantum; the phase ends only once global time catches up.
        self.cores
            .iter()
            .all(|c| c.exhausted && c.events.is_empty() && c.t <= self.now)
            && self.engines.iter().flatten().all(|e| e.idle())
    }

    /// The watchdog's structured wait-for report, if this machine wedged.
    pub fn deadlock(&self) -> Option<&DeadlockReport> {
        self.deadlock.as_ref()
    }

    /// Takes the deadlock report out of the machine (for embedding in
    /// the apps crate's `RunOutcome` before `finish()` consumes the
    /// machine).
    pub fn take_deadlock(&mut self) -> Option<DeadlockReport> {
        self.deadlock.take()
    }

    fn deadlock_report(&mut self, last_progress: u64) -> DeadlockReport {
        let mut edges = Vec::new();
        let mut occupancy = [Vec::new(), Vec::new()];
        for i in 0..self.cores.len() {
            if let Some(ev) = self.cores[i].events.front() {
                edges.push(WaitForEdge {
                    actor: format!("core {i}"),
                    waits_on: format!("{ev:?}"),
                });
            }
            for e in [FETCHER, COMPRESSOR] {
                let engine = &mut self.engines[i][e];
                if !engine.idle() {
                    edges.push(WaitForEdge {
                        actor: format!("{} {i}", ENGINE_NAMES[e]),
                        waits_on: format!("{:?}", engine.stall_reason(self.now)),
                    });
                }
                occupancy[e].push(
                    (0..engine.queue_count())
                        .map(|q| engine.occupancy(q as u8))
                        .collect(),
                );
            }
        }
        let [fetcher_occupancy, compressor_occupancy] = occupancy;
        DeadlockReport {
            at_cycle: self.now,
            last_progress,
            edges,
            fetcher_occupancy,
            compressor_occupancy,
        }
    }

    /// Flushes dirty cached data to DRAM and produces the run report.
    pub fn finish(mut self) -> RunReport {
        self.build_report()
    }

    /// Ends a sanitized run: produces the timing report plus the
    /// sanitizer's verdict (built-in checkers over the recorded trace,
    /// then any externally noted violations).
    ///
    /// # Panics
    ///
    /// Panics if [`Machine::enable_sanitizer`] was never called.
    #[cfg(feature = "sanitize")]
    pub fn finish_sanitized(mut self) -> (RunReport, SanitizeReport) {
        let mut trace = self
            .sanitize
            .take()
            .expect("finish_sanitized without enable_sanitizer");
        trace.seal();
        let report = self.build_report();
        let probe = self.mem.take_probe().unwrap_or_default();
        let now = self.now;
        let context = RunContext {
            cores: self.cores.len(),
            core_mlp: self.cfg.core_mlp,
            outstanding: self
                .cores
                .iter()
                .map(|c| c.window.iter().filter(|&&done| done > now).count())
                .collect(),
            traffic: report.traffic.clone(),
            dram_fetch_lines: probe.dram_fetch_lines,
            dram_writeback_lines: probe.dram_writeback_lines,
            flushed_lines: probe.flushed_lines,
        };
        let mut violations = crate::sanitize::analyze_compressed(&trace, &context);
        violations.append(&mut self.external_violations);
        (
            report,
            SanitizeReport {
                violations,
                trace,
                context,
            },
        )
    }

    fn build_report(&mut self) -> RunReport {
        self.mem.flush_dirty();
        let fired = |e: usize| -> u64 { self.engines.iter().map(|pair| pair[e].fired).sum() };
        let (fetcher_fired, compressor_fired) = (fired(FETCHER), fired(COMPRESSOR));
        RunReport {
            cycles: self.now,
            traffic: self.mem.stats().clone(),
            llc: *self.mem.llc_stats(),
            dram_utilization: self.mem.dram().utilization(self.now.max(1)),
            fetcher_fired,
            compressor_fired,
            core_stall_cycles: self.cores.iter().map(|c| c.stall_cycles).sum(),
            retired_events: self.cores.iter().map(|c| c.retired_events).sum(),
        }
    }
}

/// Merges an engine's freshly collected queue-op log and memory records
/// into the trace. Both streams are internally in processing order;
/// merging by `(cycle, rank)` (stable) reconstructs the engine's
/// processing order across them: pending pushes commit first each cycle,
/// then a firing pops its input and touches memory.
#[cfg(feature = "sanitize")]
fn drain_engine_events(
    slot: &mut SanitizeSlot,
    mem: &mut MemorySystem,
    engine: &mut EngineModel,
    who: Actor,
) {
    let Some(tr) = slot.as_mut() else { return };
    let mut evs: Vec<TraceEvent> = engine
        .take_queue_log()
        .into_iter()
        .map(|e| {
            if e.push {
                TraceEvent::Push {
                    actor: who,
                    engine: who,
                    q: e.q,
                    quarters: e.quarters,
                    cycle: e.cycle,
                }
            } else {
                TraceEvent::Pop {
                    actor: who,
                    engine: who,
                    q: e.q,
                    quarters: e.quarters,
                    cycle: e.cycle,
                }
            }
        })
        .collect();
    evs.extend(mem.drain_probe_records().into_iter().map(TraceEvent::Mem));
    evs.sort_by_key(|e| (e.cycle(), e.rank()));
    tr.record_all(evs);
}

/// Advances one core through `[now, now+quantum)`. Returns whether it made
/// progress.
#[allow(clippy::too_many_arguments)]
fn advance_core(
    cfg: &MachineConfig,
    core_id: usize,
    core: &mut CoreState,
    engines: &mut [EngineModel; 2],
    mem: &mut MemorySystem,
    now: u64,
    quantum: u64,
    sanitize: &mut SanitizeSlot,
) -> bool {
    let deadline = now + quantum;
    if core.t < now {
        core.t = now;
    }
    #[cfg(not(feature = "sanitize"))]
    let _ = sanitize;
    let mut progressed = false;
    while core.t < deadline {
        let Some(&ev) = core.events.front() else {
            break;
        };
        let (e, op) = match ev {
            Event::Compute(n) => {
                core.t += n as u64;
                core.events.pop_front();
                core.retired_events += 1;
                progressed = true;
                continue;
            }
            Event::Mem(acc) => {
                // Need a free slot in the outstanding-miss window.
                core.window.retain(|&c| c > core.t);
                if core.window.len() >= cfg.core_mlp {
                    let earliest = core.window.iter().copied().min().unwrap();
                    core.stall_cycles += earliest.saturating_sub(core.t);
                    core.t = earliest;
                    if core.t >= deadline {
                        break;
                    }
                    core.window.retain(|&c| c > core.t);
                }
                let done = mem.issue(core_id, Port::Core, &acc, core.t);
                #[cfg(feature = "sanitize")]
                if let Some(tr) = sanitize.as_mut() {
                    tr.record_all(mem.drain_probe_records().into_iter().map(TraceEvent::Mem));
                }
                if acc.op == spzip_mem::MemOp::Atomic {
                    // Locked read-modify-writes serialize the core (store
                    // buffer drain): no overlap with younger accesses.
                    // This is what makes software Push core-bound rather
                    // than bandwidth-bound (Sec. V-A).
                    core.stall_cycles += done.saturating_sub(core.t);
                    core.t = done;
                } else if done - core.t <= cfg.mem.l2_latency + cfg.mem.l1_latency {
                    // Fast accesses retire inline.
                    core.t = done;
                } else {
                    // Misses occupy the window while the core runs ahead
                    // (OOO-style MLP).
                    core.window.push(done);
                    core.t += 1;
                }
                core.events.pop_front();
                core.retired_events += 1;
                progressed = true;
                continue;
            }
            Event::FetcherEnqueue { q, quarters } => (FETCHER, QueueOp::Push(q, quarters)),
            Event::FetcherDequeue { q, quarters } => (FETCHER, QueueOp::Pop(q, quarters)),
            Event::FetcherDrain => (FETCHER, QueueOp::Drain),
            Event::CompressorEnqueue { q, quarters } => (COMPRESSOR, QueueOp::Push(q, quarters)),
            Event::CompressorDrain => (COMPRESSOR, QueueOp::Drain),
        };
        // The one queue-op path: a blocked op retires nothing and stalls
        // the core for the rest of the quantum.
        let target = &mut engines[e];
        let ready = match op {
            QueueOp::Push(q, n) => target.can_enqueue(q, n),
            QueueOp::Pop(q, n) => target.can_dequeue(q, n),
            QueueOp::Drain => target.idle(),
        };
        if !ready {
            core.stall_cycles += deadline - core.t;
            core.t = deadline;
            continue;
        }
        #[cfg(feature = "sanitize")]
        if let Some(tr) = sanitize.as_mut() {
            let (actor, engine, cycle) = (Actor::Core(core_id), engine_actor(e, core_id), core.t);
            tr.record(match op {
                QueueOp::Push(q, n) => TraceEvent::Push {
                    actor,
                    engine,
                    q,
                    quarters: n as u32,
                    cycle,
                },
                QueueOp::Pop(q, n) => TraceEvent::Pop {
                    actor,
                    engine,
                    q,
                    quarters: n as u32,
                    cycle,
                },
                QueueOp::Drain => TraceEvent::Drain {
                    actor,
                    engine,
                    cycle,
                },
            });
        }
        // Enqueue and dequeue instructions take `queue_op_cycles`; a drain
        // that finds the engine idle costs nothing.
        core.t += match op {
            QueueOp::Push(q, n) => {
                target.enqueue(q, n);
                cfg.queue_op_cycles as u64
            }
            QueueOp::Pop(q, n) => {
                target.dequeue(q, n);
                cfg.queue_op_cycles as u64
            }
            QueueOp::Drain => 0,
        };
        core.events.pop_front();
        core.retired_events += 1;
        progressed = true;
    }
    progressed
}

#[cfg(test)]
mod tests {
    use super::*;
    use spzip_mem::DataClass;

    fn tiny_config() -> MachineConfig {
        let mut cfg = MachineConfig::paper_scaled();
        cfg.mem.cores = 2;
        cfg
    }

    /// A lint-clean one-operator program: a range fetch from input queue
    /// `q0` to output queue `q1`. Returns `(pipeline, q0, q1)`.
    fn range_fetch_pipeline() -> (Pipeline, QueueId, QueueId) {
        let mut b = spzip_core::dcl::PipelineBuilder::new();
        let q0 = b.queue(16);
        let q1 = b.queue(16);
        b.operator(
            spzip_core::dcl::OperatorKind::RangeFetch {
                base: 0x1000,
                idx_bytes: 8,
                elem_bytes: 8,
                input: spzip_core::dcl::RangeInput::Pairs,
                marker: None,
                class: DataClass::AdjacencyMatrix,
            },
            q0,
            vec![q1],
        );
        (b.build().unwrap(), q0, q1)
    }

    /// A source handing each core a fixed list of batches.
    struct ListSource {
        batches: Vec<VecDeque<CoreWork>>,
    }

    impl WorkSource for ListSource {
        fn next(&mut self, core: usize) -> Option<CoreWork> {
            self.batches[core].pop_front()
        }
    }

    #[test]
    fn compute_only_run_takes_expected_cycles() {
        let mut m = Machine::new(tiny_config());
        let mut src = ListSource {
            batches: vec![
                VecDeque::from([CoreWork {
                    events: vec![Event::Compute(1000)],
                    ..Default::default()
                }]),
                VecDeque::new(),
            ],
        };
        let cycles = m.run_phase(&mut src);
        assert!((1000..1200).contains(&cycles), "{cycles}");
        let report = m.finish();
        assert_eq!(report.retired_events, 1);
    }

    #[test]
    fn parallel_cores_overlap() {
        // Two cores doing 1000 cycles each should take ~1000, not ~2000.
        let mut m = Machine::new(tiny_config());
        let work = || CoreWork {
            events: vec![Event::Compute(1000)],
            ..Default::default()
        };
        let mut src = ListSource {
            batches: vec![VecDeque::from([work()]), VecDeque::from([work()])],
        };
        let cycles = m.run_phase(&mut src);
        assert!(cycles < 1500, "{cycles}");
    }

    #[test]
    fn memory_bound_core_is_limited_by_mlp_and_bandwidth() {
        let mut m = Machine::new(tiny_config());
        // 1000 scattered misses.
        let events: Vec<Event> = (0..1000)
            .map(|i| Event::load(0x10000 + i * 8 * 997, 8, DataClass::DestinationVertex))
            .collect();
        let mut src = ListSource {
            batches: vec![
                VecDeque::from([CoreWork {
                    events,
                    ..Default::default()
                }]),
                VecDeque::new(),
            ],
        };
        let cycles = m.run_phase(&mut src);
        // Far slower than 1 access/cycle, far faster than serialized
        // (1000 x ~150-cycle DRAM latency) thanks to the MLP window.
        assert!(cycles > 2_000, "{cycles}");
        assert!(cycles < 120_000, "{cycles}");
    }

    #[test]
    fn sequential_accesses_hit_after_first_line() {
        let mut m = Machine::new(tiny_config());
        let events: Vec<Event> = (0..64u64)
            .map(|i| Event::load(0x40000 + i * 4, 4, DataClass::AdjacencyMatrix))
            .collect();
        let mut src = ListSource {
            batches: vec![
                VecDeque::from([CoreWork {
                    events,
                    ..Default::default()
                }]),
                VecDeque::new(),
            ],
        };
        m.run_phase(&mut src);
        let report = m.finish();
        // 64 x 4B touches 4 lines = 256 B.
        assert_eq!(report.traffic.read_bytes(DataClass::AdjacencyMatrix), 256);
    }

    #[test]
    fn multiple_phases_accumulate_time() {
        let mut m = Machine::new(tiny_config());
        let mk = || {
            let mut src_batches = vec![VecDeque::new(), VecDeque::new()];
            src_batches[0].push_back(CoreWork {
                events: vec![Event::Compute(500)],
                ..Default::default()
            });
            ListSource {
                batches: src_batches,
            }
        };
        let c1 = m.run_phase(&mut mk());
        let c2 = m.run_phase(&mut mk());
        assert!(c1 >= 500 && c2 >= 500);
        assert!(m.now() >= 1000);
    }

    #[cfg(feature = "sanitize")]
    #[test]
    fn sanitized_run_is_clean_and_accounts_all_lines() {
        let mut m = Machine::new(tiny_config());
        m.enable_sanitizer();
        assert!(m.sanitizing());
        // Same-core scattered frontier loads: watched, but race-free.
        let events: Vec<Event> = (0..64u64)
            .map(|i| Event::load(0x40000 + i * 64, 8, DataClass::Frontier))
            .collect();
        let mut src = ListSource {
            batches: vec![
                VecDeque::from([CoreWork {
                    events,
                    ..Default::default()
                }]),
                VecDeque::new(),
            ],
        };
        m.run_phase(&mut src);
        let (report, san) = m.finish_sanitized();
        assert!(san.clean(), "{}", san.render());
        let events = san.trace.decode_all().expect("trace decodes");
        assert!(
            events
                .iter()
                .any(|e| matches!(e, crate::sanitize::TraceEvent::Mem(_))),
            "watched accesses should be traced"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e, crate::sanitize::TraceEvent::Barrier { .. })),
            "phase end should record a barrier"
        );
        assert_eq!(report.traffic.read_bytes(DataClass::Frontier), 64 * 64);
    }

    #[test]
    fn watchdog_records_structured_report_and_poisons_later_phases() {
        let mut cfg = tiny_config();
        cfg.deadlock_cycles = 2_000;
        let mut m = Machine::new(cfg);
        // A program whose trace is never appended: the engine consumes
        // nothing, so the core's enqueues eventually block forever on a
        // full queue.
        let (p, q0, _) = range_fetch_pipeline();
        m.load_fetcher_program_for(0, &p);
        let events: Vec<Event> = (0..200)
            .map(|_| Event::FetcherEnqueue { q: q0, quarters: 8 })
            .collect();
        let mut src = ListSource {
            batches: vec![
                VecDeque::from([CoreWork {
                    events,
                    ..Default::default()
                }]),
                VecDeque::new(),
            ],
        };
        m.run_phase(&mut src);
        let report = m.deadlock().expect("watchdog must trip").clone();
        assert!(report.at_cycle > report.last_progress);
        assert!(
            report
                .edges
                .iter()
                .any(|e| e.actor == "core 0" && e.waits_on.contains("FetcherEnqueue")),
            "{report}"
        );
        assert!(
            report.fetcher_occupancy[0][q0 as usize] > 0,
            "wedged queue must show occupancy: {report}"
        );
        assert!(report.render().contains("machine deadlock at cycle"));
        // Poisoned: a later phase drains its source and simulates nothing.
        let mut src2 = ListSource {
            batches: vec![
                VecDeque::from([CoreWork {
                    events: vec![Event::Compute(1000)],
                    ..Default::default()
                }]),
                VecDeque::new(),
            ],
        };
        assert_eq!(m.run_phase(&mut src2), 0);
        assert!(
            src2.batches[0].is_empty(),
            "poisoned phase drains its source"
        );
        assert!(m.take_deadlock().is_some());
    }

    #[test]
    fn every_queue_event_takes_the_one_queue_op_path() {
        let mut m = Machine::new(tiny_config());
        #[cfg(feature = "sanitize")]
        m.enable_sanitizer();
        // Core 1, so a sanitizer record naming core 0 would be caught.
        const CORE: usize = 1;
        let (p, q_in, q_out) = range_fetch_pipeline();
        m.load_fetcher_program_for(CORE, &p);
        m.load_compressor_program_for(CORE, &p);
        let (quantum, op_cycles) = (m.cfg.quantum, m.cfg.queue_op_cycles as u64);
        // Runs `events` on a fresh core for one quantum from cycle 0.
        let step = |m: &mut Machine, events: &[Event]| -> CoreState {
            let mut core = CoreState {
                events: events.iter().copied().collect(),
                ..Default::default()
            };
            let engines = &mut m.engines[CORE];
            advance_core(
                &m.cfg,
                CORE,
                &mut core,
                engines,
                &mut m.mem,
                0,
                quantum,
                &mut m.sanitize,
            );
            core
        };

        // Ops that fit retire; enqueue and dequeue cost `queue_op_cycles`,
        // a drain of an idle engine costs nothing.
        let quarters = 4;
        m.engines[CORE][FETCHER].enqueue(q_out, quarters);
        let fits = [
            (Event::FetcherEnqueue { q: q_in, quarters }, op_cycles),
            (Event::FetcherDequeue { q: q_out, quarters }, op_cycles),
            (Event::CompressorEnqueue { q: q_in, quarters }, op_cycles),
            (Event::FetcherDrain, 0),
            (Event::CompressorDrain, 0),
        ];
        for (ev, cycles) in fits {
            let core = step(&mut m, &[ev]);
            let got = (core.retired_events, core.t, core.stall_cycles);
            assert_eq!(got, (1, cycles, 0), "{ev:?}");
        }
        let [fetcher, compressor] = &m.engines[CORE];
        assert_eq!(fetcher.occupancy(q_in), quarters as u32);
        assert_eq!(fetcher.occupancy(q_out), 0);
        assert_eq!(compressor.occupancy(q_in), quarters as u32);

        // Blocked ops: full input queues, an empty output queue, and a
        // fetcher with unfired work. Each retires nothing and charges the
        // rest of the quantum after a 3-cycle compute.
        for engine in &mut m.engines[CORE] {
            while engine.can_enqueue(q_in, quarters) {
                engine.enqueue(q_in, quarters);
            }
        }
        let unfired = || {
            vec![vec![Firing {
                consumed_q: 8,
                produced_q: 8,
                mem: None,
            }]]
        };
        m.engines[CORE][FETCHER].append_trace(unfired());
        let blocked = |m: &mut Machine, ev: Event| {
            let core = step(m, &[Event::Compute(3), ev]);
            let got = (core.retired_events, core.t, core.stall_cycles);
            assert_eq!(got, (1, quantum, quantum - 3), "{ev:?}");
            assert_eq!(core.events.front(), Some(&ev));
        };
        // Every op but the compressor drain (the last one) now blocks.
        for &(ev, _) in &fits[..4] {
            blocked(&mut m, ev);
        }
        // A drain waits on its own engine only: the idle compressor still
        // drains, and blocks once it has unfired work too.
        assert_eq!(step(&mut m, &[Event::CompressorDrain]).retired_events, 1);
        m.engines[CORE][COMPRESSOR].append_trace(unfired());
        blocked(&mut m, Event::CompressorDrain);

        // Each op that fit left one record naming the right engine; the
        // blocked ones left none.
        #[cfg(feature = "sanitize")]
        {
            use crate::sanitize::TraceEvent as T;
            let (actor, fetcher, compressor) = (
                Actor::Core(CORE),
                Actor::Fetcher(CORE),
                Actor::Compressor(CORE),
            );
            let push = |engine, q| T::Push {
                actor,
                engine,
                q,
                quarters: 4,
                cycle: 0,
            };
            let pop = |engine, q| T::Pop {
                actor,
                engine,
                q,
                quarters: 4,
                cycle: 0,
            };
            let drain = |engine| T::Drain {
                actor,
                engine,
                cycle: 0,
            };
            let expected = vec![
                push(fetcher, q_in),
                pop(fetcher, q_out),
                push(compressor, q_in),
                drain(fetcher),
                drain(compressor),
                // The idle compressor's drain while the fetcher had work.
                drain(compressor),
            ];
            let trace = m.sanitize.as_ref().unwrap();
            assert_eq!(trace.decode_all().unwrap(), expected);
        }
    }

    #[test]
    fn work_stealing_balances_load() {
        // A shared pool of 20 batches: with 2 cores, wall time should be
        // about half the serial time.
        struct Pool {
            left: usize,
        }
        impl WorkSource for Pool {
            fn next(&mut self, _core: usize) -> Option<CoreWork> {
                if self.left == 0 {
                    return None;
                }
                self.left -= 1;
                Some(CoreWork {
                    events: vec![Event::Compute(1000)],
                    ..Default::default()
                })
            }
        }
        let mut m = Machine::new(tiny_config());
        let cycles = m.run_phase(&mut Pool { left: 20 });
        assert!((10_000..13_000).contains(&cycles), "{cycles}");
    }
}

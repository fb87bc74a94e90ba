//! The time-multiplexed engine timing model (Sec. III-B / III-C).
//!
//! Rather than a reconfigurable fabric, SpZip implements programmability by
//! time-multiplexing: a scratchpad holds the program's queues as circular
//! buffers, operator contexts hold per-operator configuration, and a
//! round-robin scheduler fires **one ready operator per cycle**. An
//! operator is ready when its input queue has an element, its output
//! queues have space, and its functional unit is available (the access
//! unit supports a bounded number of outstanding line requests).
//!
//! The model replays the per-operator firing traces produced by
//! [`crate::func::FuncEngine`] under those constraints. Decoupling,
//! backpressure, and run-ahead emerge from queue occupancy: the core sees
//! only its enqueue/dequeue interface.
//!
//! The same model implements the fetcher (issuing through the L2 port) and
//! the compressor (issuing through the LLC port).

use crate::dcl::Pipeline;
use crate::func::Firing;
use crate::QueueId;
use spzip_mem::hierarchy::MemorySystem;
use spzip_mem::Port;
use std::collections::VecDeque;

/// Static engine parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Scratchpad bytes available for queues (2 KB in the paper).
    pub scratchpad_bytes: u32,
    /// Outstanding line requests the access unit supports (8 in the paper).
    pub au_outstanding: usize,
    /// Cycles before a non-memory (transform) firing's output is visible.
    pub transform_latency: u64,
    /// Port this engine issues memory accesses through.
    pub port: Port,
    /// One-time cost of loading a DCL program (memory-mapped I/O writes).
    pub config_cycles: u64,
}

impl EngineConfig {
    /// The fetcher: 8 outstanding lines, L2 port. The paper's scratchpad
    /// is 2 KB; the default here is scaled down 4x with the caches (the
    /// scratchpad bounds the prefetch run-ahead distance, which must scale
    /// with cache residency — see DESIGN.md). The Fig. 21 sweep scales the
    /// 1/2/4 KB points accordingly.
    pub fn fetcher() -> Self {
        EngineConfig {
            scratchpad_bytes: 512,
            au_outstanding: 8,
            transform_latency: 2,
            port: Port::FetcherL2,
            config_cycles: 64,
        }
    }

    /// The paper's compressor: same engine at the LLC port.
    pub fn compressor() -> Self {
        EngineConfig {
            port: Port::EngineLlc,
            ..Self::fetcher()
        }
    }
}

#[derive(Debug, Default)]
struct QState {
    capacity_q: u32,
    /// Quarters visible to consumers.
    occupancy_q: u32,
    /// Quarters reserved by in-flight producer firings.
    reserved_q: u32,
}

#[derive(Debug)]
struct Pending {
    complete_at: u64,
    op: usize,
    produced_q: u16,
    /// Whether this pending entry holds an access-unit slot.
    uses_au: bool,
}

/// One engine-side queue movement, recorded for SimSanitizer trace
/// replay: engine firings pop their input queue when they fire and push
/// their outputs when the firing's latency elapses. Core-side pushes and
/// pops are recorded by the machine, which knows the core's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueLogEntry {
    /// Queue operated on.
    pub q: QueueId,
    /// Quarter-words moved.
    pub quarters: u32,
    /// True for a push (occupancy increase), false for a pop.
    pub push: bool,
    /// Cycle at which the movement became visible.
    pub cycle: u64,
}

/// Why the engine could not fire on a given tick (diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stall {
    /// No trace entries remain anywhere.
    Drained,
    /// Every runnable operator waits on input data.
    InputEmpty,
    /// Some operator is blocked on output-queue space.
    OutputFull,
    /// The access unit is out of outstanding-request slots.
    AuBusy,
    /// Only in-flight work remains (waiting on memory).
    InFlight,
}

/// The engine timing model. See the module docs.
pub struct EngineModel {
    cfg: EngineConfig,
    core: usize,
    queues: Vec<QState>,
    outputs: Vec<Vec<QueueId>>,
    inputs: Vec<QueueId>,
    traces: Vec<VecDeque<Firing>>,
    pending: Vec<Pending>,
    /// Earliest `complete_at` in `pending` (`u64::MAX` when empty).
    next_complete: u64,
    /// Access-unit slots held by `pending` entries.
    au_busy: usize,
    /// A fire attempt failed and none of its inputs (trace fronts, queue
    /// occupancy and reservations, `au_busy`) has changed since, so the
    /// next attempt would fail too.
    blocked: bool,
    rr_next: usize,
    ready_at: u64,
    /// Total firings executed (utilization statistics).
    pub fired: u64,
    /// Ticks on which no operator could fire.
    pub stalled_ticks: u64,
    /// SimSanitizer queue-op log; filled only while logging is enabled.
    #[cfg(feature = "sanitize")]
    queue_log: Vec<QueueLogEntry>,
    #[cfg(feature = "sanitize")]
    log_queue_ops: bool,
}

impl EngineModel {
    /// Creates an engine for `core` with no program loaded.
    pub fn new(cfg: EngineConfig, core: usize) -> Self {
        EngineModel {
            cfg,
            core,
            queues: Vec::new(),
            outputs: Vec::new(),
            inputs: Vec::new(),
            traces: Vec::new(),
            pending: Vec::new(),
            next_complete: u64::MAX,
            au_busy: 0,
            blocked: false,
            rr_next: 0,
            ready_at: 0,
            fired: 0,
            stalled_ticks: 0,
            #[cfg(feature = "sanitize")]
            queue_log: Vec::new(),
            #[cfg(feature = "sanitize")]
            log_queue_ops: false,
        }
    }

    /// Turns SimSanitizer queue-op logging on or off.
    #[cfg(feature = "sanitize")]
    pub fn set_queue_logging(&mut self, on: bool) {
        self.log_queue_ops = on;
    }

    /// Takes the accumulated queue-op log.
    #[cfg(feature = "sanitize")]
    pub fn take_queue_log(&mut self) -> Vec<QueueLogEntry> {
        std::mem::take(&mut self.queue_log)
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Loads a DCL program at cycle `now`: sizes the queues (scaled so the
    /// program's declared capacities fill the scratchpad, as in the Fig. 21
    /// sweep), clears traces, and charges the configuration cost.
    pub fn load_program(&mut self, pipeline: &Pipeline, now: u64) {
        // Built pipelines are lint-clean by construction; catch anyone
        // assembling a Pipeline through a back door (debug builds only).
        #[cfg(debug_assertions)]
        {
            let diags = crate::lint::lint(pipeline);
            debug_assert!(
                !crate::lint::has_errors(&diags),
                "engine loaded a pipeline that fails lint:\n{}",
                crate::lint::render(&diags)
            );
        }
        let declared: u32 = pipeline.scratchpad_words();
        let budget_words = self.cfg.scratchpad_bytes / 4;
        let scale = budget_words as f64 / declared.max(1) as f64;
        self.queues = pipeline
            .queues()
            .iter()
            .map(|q| QState {
                // Floor of 16 words (64 quarters): a queue must hold at
                // least one maximal firing (32 B + marker).
                capacity_q: (((q.capacity_words as f64 * scale) as u32).max(16)) * 4,
                occupancy_q: 0,
                reserved_q: 0,
            })
            .collect();
        self.outputs = pipeline
            .operators()
            .iter()
            .map(|op| op.outputs.clone())
            .collect();
        self.inputs = pipeline.operators().iter().map(|op| op.input).collect();
        self.traces = (0..pipeline.operators().len())
            .map(|_| VecDeque::new())
            .collect();
        self.pending.clear();
        self.next_complete = u64::MAX;
        self.au_busy = 0;
        self.blocked = false;
        self.rr_next = 0;
        self.ready_at = now + self.cfg.config_cycles;
    }

    /// Appends per-operator firings (from a functional run over newly
    /// enqueued work).
    ///
    /// # Panics
    ///
    /// Panics if no program is loaded or the trace count mismatches.
    pub fn append_trace(&mut self, firings: Vec<Vec<Firing>>) {
        assert_eq!(
            firings.len(),
            self.traces.len(),
            "trace/operator count mismatch"
        );
        for (t, f) in self.traces.iter_mut().zip(firings) {
            t.extend(f);
        }
        self.blocked = false;
    }

    /// Whether the core can enqueue `quarters` into queue `q` now.
    pub fn can_enqueue(&self, q: QueueId, quarters: u16) -> bool {
        let qs = &self.queues[q as usize];
        qs.occupancy_q + qs.reserved_q + quarters as u32 <= qs.capacity_q
    }

    /// Core-side enqueue (caller must have checked [`Self::can_enqueue`]).
    pub fn enqueue(&mut self, q: QueueId, quarters: u16) {
        debug_assert!(self.can_enqueue(q, quarters));
        self.queues[q as usize].occupancy_q += quarters as u32;
        self.blocked = false;
    }

    /// Whether the core can dequeue `quarters` from queue `q` now.
    pub fn can_dequeue(&self, q: QueueId, quarters: u16) -> bool {
        self.queues[q as usize].occupancy_q >= quarters as u32
    }

    /// Core-side dequeue (caller must have checked [`Self::can_dequeue`]).
    pub fn dequeue(&mut self, q: QueueId, quarters: u16) {
        debug_assert!(self.can_dequeue(q, quarters));
        self.queues[q as usize].occupancy_q -= quarters as u32;
        self.blocked = false;
    }

    /// Whether all traces are drained and no work is in flight.
    pub fn idle(&self) -> bool {
        self.pending.is_empty() && self.traces.iter().all(|t| t.is_empty())
    }

    /// Advances the engine through `[now, now + budget)` cycles, firing at
    /// most one operator per cycle. Returns the number of firings.
    ///
    /// A failed attempt changes no state, and nothing it depends on moves
    /// until a pending entry completes or the core, a new trace or a new
    /// program changes the queues. So after a failure the engine sleeps
    /// to the next completion (or the end of the window), counting every
    /// skipped cycle as stalled, exactly as retrying each cycle would.
    pub fn tick(&mut self, now: u64, budget: u64, mem: &mut MemorySystem) -> u64 {
        if self.traces.is_empty() {
            return 0;
        }
        let end = now + budget;
        let mut fired_now = 0u64;
        let mut t = now.max(self.ready_at);
        while t < end {
            self.commit_pending(t);
            if !self.blocked && self.fire_one(t, mem) {
                fired_now += 1;
                t += 1;
            } else {
                self.blocked = true;
                let wake = self.next_complete.min(end);
                self.stalled_ticks += wake - t;
                t = wake;
            }
        }
        // Commit anything that completes exactly at the end of the window
        // so core-side checks at `now + budget` see it.
        self.commit_pending(end);
        self.fired += fired_now;
        fired_now
    }

    /// Makes every pending firing with `complete_at <= t` visible. Entries
    /// leave `pending` in the same `swap_remove` order as a full scan on
    /// every cycle would produce, which keeps the sanitizer's queue log
    /// byte-identical.
    fn commit_pending(&mut self, t: u64) {
        if t < self.next_complete {
            return;
        }
        let mut next_complete = u64::MAX;
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].complete_at <= t {
                let p = self.pending.swap_remove(i);
                self.au_busy -= p.uses_au as usize;
                for &q in &self.outputs[p.op] {
                    let qs = &mut self.queues[q as usize];
                    qs.reserved_q -= p.produced_q as u32;
                    qs.occupancy_q += p.produced_q as u32;
                    #[cfg(feature = "sanitize")]
                    if self.log_queue_ops && p.produced_q > 0 {
                        self.queue_log.push(QueueLogEntry {
                            q,
                            quarters: p.produced_q as u32,
                            push: true,
                            cycle: p.complete_at,
                        });
                    }
                }
            } else {
                next_complete = next_complete.min(self.pending[i].complete_at);
                i += 1;
            }
        }
        self.next_complete = next_complete;
        self.blocked = false;
    }

    /// The readiness predicate shared by the scheduler and the stall
    /// diagnosis: what stops operator `op` from firing `f` now, checked in
    /// order (input data, output space including in-flight reservations,
    /// an access-unit slot), or `None` when it is ready.
    fn blocker(&self, op: usize, f: &Firing) -> Option<Stall> {
        if self.queues[self.inputs[op] as usize].occupancy_q < f.consumed_q as u32 {
            return Some(Stall::InputEmpty);
        }
        let fits = self.outputs[op].iter().all(|&q| {
            let qs = &self.queues[q as usize];
            qs.occupancy_q + qs.reserved_q + f.produced_q as u32 <= qs.capacity_q
        });
        if !fits {
            return Some(Stall::OutputFull);
        }
        if f.mem.is_some() && self.au_busy >= self.cfg.au_outstanding {
            return Some(Stall::AuBusy);
        }
        None
    }

    /// Attempts to fire one ready operator (round-robin). Returns whether
    /// a firing happened.
    fn fire_one(&mut self, t: u64, mem: &mut MemorySystem) -> bool {
        let n_ops = self.traces.len();
        for scan in 0..n_ops {
            let op = (self.rr_next + scan) % n_ops;
            let Some(f) = self.traces[op].front().copied() else {
                continue;
            };
            if self.blocker(op, &f).is_some() {
                continue;
            }
            let uses_au = f.mem.is_some();
            self.traces[op].pop_front();
            self.queues[self.inputs[op] as usize].occupancy_q -= f.consumed_q as u32;
            #[cfg(feature = "sanitize")]
            if self.log_queue_ops && f.consumed_q > 0 {
                self.queue_log.push(QueueLogEntry {
                    q: self.inputs[op],
                    quarters: f.consumed_q as u32,
                    push: false,
                    cycle: t,
                });
            }
            for &q in &self.outputs[op] {
                self.queues[q as usize].reserved_q += f.produced_q as u32;
            }
            let complete_at = match f.mem {
                // Writes are posted: the access updates cache state and
                // traffic, but the unit does not wait for the round trip.
                Some(acc) if acc.op.is_write() => {
                    mem.issue(self.core, self.cfg.port, &acc, t);
                    t + 1
                }
                Some(acc) => mem.issue(self.core, self.cfg.port, &acc, t),
                None => t + self.cfg.transform_latency,
            };
            self.pending.push(Pending {
                complete_at,
                op,
                produced_q: f.produced_q,
                uses_au,
            });
            self.next_complete = self.next_complete.min(complete_at);
            self.au_busy += uses_au as usize;
            self.rr_next = (op + 1) % n_ops;
            return true;
        }
        false
    }

    /// Diagnoses why the engine cannot fire at `t` (after committing
    /// arrivals), for tests and deadlock reports.
    pub fn stall_reason(&mut self, t: u64) -> Stall {
        self.commit_pending(t);
        if self.idle() {
            return Stall::Drained;
        }
        if self.traces.iter().all(|t| t.is_empty()) {
            return Stall::InFlight;
        }
        let mut saw_output_full = false;
        let mut saw_au = false;
        for op in 0..self.traces.len() {
            let Some(f) = self.traces[op].front() else {
                continue;
            };
            match self.blocker(op, f) {
                Some(Stall::OutputFull) => saw_output_full = true,
                Some(Stall::AuBusy) => saw_au = true,
                _ => {}
            }
        }
        if saw_au {
            Stall::AuBusy
        } else if saw_output_full {
            Stall::OutputFull
        } else {
            Stall::InputEmpty
        }
    }

    /// Occupancy of queue `q` in quarter-words (tests, reporting).
    pub fn occupancy(&self, q: QueueId) -> u32 {
        self.queues[q as usize].occupancy_q
    }

    /// Number of queues in the loaded program (0 when none is loaded).
    pub fn queue_count(&self) -> usize {
        self.queues.len()
    }
}

impl std::fmt::Debug for EngineModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineModel")
            .field("core", &self.core)
            .field("fired", &self.fired)
            .field("pending", &self.pending.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcl::{OperatorKind, PipelineBuilder, RangeInput};
    use crate::func::FuncEngine;
    use crate::memory::MemoryImage;
    use spzip_mem::hierarchy::{MemConfig, MemorySystem};
    use spzip_mem::DataClass;

    /// Builds the Fig. 2 pipeline over real data and returns everything a
    /// timing test needs.
    fn fig2_setup() -> (Pipeline, MemoryImage, Vec<Vec<Firing>>, u16, u16) {
        let mut img = MemoryImage::new();
        let offsets: Vec<u64> = (0..=64u64).map(|i| i * 7).collect();
        let rows: Vec<u32> = (0..448u32).collect();
        let offsets_a = img.alloc_u64s("offsets", &offsets, DataClass::AdjacencyMatrix);
        let rows_a = img.alloc_u32s("rows", &rows, DataClass::AdjacencyMatrix);
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(16);
        let q1 = b.queue(32);
        let q2 = b.queue(64);
        b.operator(
            OperatorKind::RangeFetch {
                base: offsets_a,
                idx_bytes: 8,
                elem_bytes: 8,
                input: RangeInput::Pairs,
                marker: None,
                class: DataClass::AdjacencyMatrix,
            },
            q0,
            vec![q1],
        );
        b.operator(
            OperatorKind::RangeFetch {
                base: rows_a,
                idx_bytes: 8,
                elem_bytes: 4,
                input: RangeInput::Consecutive,
                marker: Some(0),
                class: DataClass::AdjacencyMatrix,
            },
            q1,
            vec![q2],
        );
        let p = b.build().unwrap();
        let mut eng = FuncEngine::new(p.clone());
        let mut enq = 0;
        enq += eng.enqueue_value(q0, 0, 8);
        enq += eng.enqueue_value(q0, 64, 8);
        eng.run(&mut img);
        let firings = eng.take_firings();
        let out_q: u32 = eng
            .drain_output_costed(q2)
            .iter()
            .map(|&(_, c)| c as u32)
            .sum();
        (p, img, firings, enq, out_q as u16)
    }

    #[test]
    fn replay_drains_trace_and_produces_all_output() {
        let (p, _img, firings, enq, out_q) = fig2_setup();
        let mut mem = MemorySystem::new(MemConfig::paper_scaled());
        let mut model = EngineModel::new(EngineConfig::fetcher(), 0);
        model.load_program(&p, 0);
        model.append_trace(firings);
        model.enqueue(0, enq);
        let mut now = 0u64;
        let mut drained_q = 0u32;
        while !model.idle() && now < 2_000_000 {
            model.tick(now, 16, &mut mem);
            // The "core" drains the output queue greedily.
            while model.can_dequeue(2, 4) {
                model.dequeue(2, 4);
                drained_q += 4;
            }
            now += 16;
        }
        assert!(model.idle(), "engine wedged: {:?}", model.stall_reason(now));
        while model.can_dequeue(2, 4) {
            model.dequeue(2, 4);
            drained_q += 4;
        }
        assert_eq!(drained_q, out_q as u32);
        assert!(model.fired > 0);
    }

    #[test]
    fn backpressure_blocks_until_core_dequeues() {
        let (p, _img, firings, enq, _) = fig2_setup();
        let mut mem = MemorySystem::new(MemConfig::paper_scaled());
        let mut model = EngineModel::new(EngineConfig::fetcher(), 0);
        model.load_program(&p, 0);
        model.append_trace(firings);
        model.enqueue(0, enq);
        // Run without the core ever dequeueing: the engine must stall with
        // full output queues, not wedge or overflow.
        let mut now = 0;
        for _ in 0..5000 {
            model.tick(now, 8, &mut mem);
            now += 8;
        }
        assert!(!model.idle());
        assert_eq!(model.stall_reason(now), Stall::OutputFull);
        let cap_before = model.occupancy(2);
        // Core drains; engine proceeds to completion.
        while !model.idle() && now < 4_000_000 {
            while model.can_dequeue(2, 4) {
                model.dequeue(2, 4);
            }
            model.tick(now, 8, &mut mem);
            now += 8;
        }
        assert!(
            model.idle(),
            "wedged after drain: {:?}",
            model.stall_reason(now)
        );
        assert!(cap_before > 0);
    }

    #[test]
    fn decoupling_runs_ahead_of_core() {
        let (p, _img, firings, enq, _) = fig2_setup();
        let mut mem = MemorySystem::new(MemConfig::paper_scaled());
        let mut model = EngineModel::new(EngineConfig::fetcher(), 0);
        model.load_program(&p, 0);
        model.append_trace(firings);
        model.enqueue(0, enq);
        // Without any core dequeues, the fetcher fills its output queue.
        let mut now = 0;
        for _ in 0..3000 {
            model.tick(now, 8, &mut mem);
            now += 8;
        }
        assert!(
            model.occupancy(2) > 0,
            "fetcher ran ahead and buffered output"
        );
    }

    #[test]
    fn au_limit_bounds_outstanding_requests() {
        let (p, _img, firings, enq, _) = fig2_setup();
        let mut mem = MemorySystem::new(MemConfig::paper_scaled());
        let mut cfg = EngineConfig::fetcher();
        cfg.au_outstanding = 1;
        let mut slow = EngineModel::new(cfg, 0);
        slow.load_program(&p, 0);
        slow.append_trace(firings.clone());
        slow.enqueue(0, enq);
        let run = |model: &mut EngineModel, mem: &mut MemorySystem| -> u64 {
            let mut now = 0;
            while !model.idle() && now < 10_000_000 {
                model.tick(now, 16, mem);
                while model.can_dequeue(2, 4) {
                    model.dequeue(2, 4);
                }
                now += 16;
            }
            now
        };
        let t_slow = run(&mut slow, &mut mem);
        let mut mem2 = MemorySystem::new(MemConfig::paper_scaled());
        let mut fast = EngineModel::new(EngineConfig::fetcher(), 0);
        fast.load_program(&p, 0);
        fast.append_trace(firings);
        fast.enqueue(0, enq);
        let t_fast = run(&mut fast, &mut mem2);
        assert!(
            t_slow > t_fast,
            "1 outstanding request ({t_slow}) must be slower than 8 ({t_fast})"
        );
    }

    #[test]
    fn config_cost_delays_start() {
        let (p, _img, firings, enq, _) = fig2_setup();
        let mut mem = MemorySystem::new(MemConfig::paper_scaled());
        let mut model = EngineModel::new(EngineConfig::fetcher(), 0);
        model.load_program(&p, 0);
        model.append_trace(firings);
        model.enqueue(0, enq);
        model.tick(0, 32, &mut mem);
        assert_eq!(model.fired, 0, "nothing fires during configuration");
        model.tick(64, 32, &mut mem);
        assert!(model.fired > 0);
    }

    /// Counters and queues at every 64-cycle sync point, for tick budgets
    /// of 1, 8 and 64: sleeping through failed attempts must account for
    /// each skipped cycle exactly as retrying on every cycle would. The
    /// reference clears `blocked` before each 1-cycle tick, so it attempts
    /// a firing on every cycle.
    #[test]
    fn cycle_accounting_is_independent_of_tick_budget() {
        const SYNC: u64 = 64;
        const SYNCS: u64 = 300;
        let (p, _img, firings, enq, _) = fig2_setup();
        for drain in [false, true] {
            let run = |budget: u64, poll: bool| {
                let mut mem = MemorySystem::new(MemConfig::paper_scaled());
                let mut model = EngineModel::new(EngineConfig::fetcher(), 0);
                model.load_program(&p, 0);
                model.append_trace(firings.clone());
                model.enqueue(0, enq);
                let ready_at = model.ready_at;
                let mut snapshots = Vec::new();
                let mut now = 0;
                while now < SYNC * SYNCS {
                    if poll {
                        model.blocked = false;
                    }
                    model.tick(now, budget, &mut mem);
                    now += budget;
                    if now % SYNC != 0 {
                        continue;
                    }
                    // Every cycle from `ready_at` on either fired or stalled.
                    assert_eq!(
                        model.fired + model.stalled_ticks,
                        now.saturating_sub(ready_at),
                        "budget {budget}, drain {drain}, cycle {now}"
                    );
                    // The core acts only at sync points, so all budgets see
                    // the same queue operations at the same cycles.
                    while drain && model.can_dequeue(2, 4) {
                        model.dequeue(2, 4);
                    }
                    let occupancy: Vec<u32> = (0..model.queue_count())
                        .map(|q| model.occupancy(q as QueueId))
                        .collect();
                    snapshots.push((model.fired, model.stalled_ticks, occupancy));
                }
                assert_eq!(model.idle(), drain, "budget {budget}, drain {drain}");
                snapshots
            };
            let polled = run(1, true);
            for budget in [1, 8, 64] {
                assert_eq!(polled, run(budget, false), "drain {drain}, budget {budget}");
            }
        }
    }

    #[test]
    fn idle_engine_tick_is_cheap_noop() {
        let mut mem = MemorySystem::new(MemConfig::paper_scaled());
        let mut model = EngineModel::new(EngineConfig::fetcher(), 0);
        assert_eq!(model.tick(0, 1000, &mut mem), 0);
    }
}

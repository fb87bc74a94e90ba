//! Phase executors: the scheme-aware heart of the runtime.
//!
//! Each iteration of an algorithm runs as one or more *phases* on the
//! simulated machine. Every phase is driven by a [`WorkSource`] that hands
//! out chunks of work to whichever core drains first (the paper's chunked
//! work-stealing), generating each chunk's core events — and, for SpZip
//! schemes, running the DCL pipelines functionally to produce the
//! engines' firing traces.
//!
//! Phase structure per strategy (Sec. II):
//!
//! * **Push**: one traversal phase per iteration; cores apply scatter
//!   updates with atomics (destination data optionally prefetched by the
//!   fetcher).
//! * **UB**: a binning phase (traversal + update binning, through the
//!   compressor's MQU pipeline under SpZip) followed by per-bin
//!   accumulation phases.
//! * **PHI**: a binning phase where updates coalesce in the LLC-level PHI
//!   unit and only evicted lines spill to bins, then accumulation.
//!
//! Functional-vs-timing split: all seven algorithms have commutative,
//! within-iteration order-insensitive updates, so the runtime applies them
//! functionally at generation time; the event streams and firing traces
//! replay the strategy's actual schedule (binning, coalescing, deferred
//! application) for timing and traffic.

use crate::alg::{Algorithm, EndIter};
use crate::cost::CostModel;
use crate::layout::{Workload, CHUNK_VERTICES};
use crate::pipelines::{self, TraversalOpts};
use crate::scheme::{SchemeConfig, Strategy};
use spzip_compress::CodecCtx;
use spzip_core::dcl::Pipeline;
use spzip_core::func::FuncEngine;
use spzip_core::memory::MemoryImage;
use spzip_core::{QueueId, QueueItem};
use spzip_graph::VertexId;
use spzip_mem::phi::{PhiPush, PhiUnit};
use spzip_mem::DataClass;
use spzip_sim::{CoreWork, Event, Machine, WorkSource};
use std::collections::HashMap;

/// Statistics of one algorithm run.
#[derive(Debug, Clone, Default)]
pub struct AlgoRunStats {
    /// Iterations simulated.
    pub iterations: usize,
    /// Edges processed (sum of active out-degrees over iterations).
    pub edges: u64,
    /// PHI coalesced / spilled update counts (PHI schemes only).
    pub phi_coalesced: u64,
    /// Updates spilled to bins.
    pub phi_spilled: u64,
    /// Raw bytes of binned updates (8 B per update).
    pub bin_raw_bytes: u64,
    /// Bytes the bins occupied as stored (compressed under SpZip).
    pub bin_stored_bytes: u64,
}

/// A compressed-frontier chunk descriptor (host-side metadata standing in
/// for the lengths a real runtime would track).
#[derive(Debug, Clone, Copy)]
struct CFrontierChunk {
    /// Byte offset within the `cfrontier` region.
    pos: u64,
    /// Compressed length in bytes.
    len: u32,
    /// Range of ids (indices into the host frontier vector).
    ids_lo: usize,
    ids_hi: usize,
}

/// One unit of schedulable work.
#[derive(Debug, Clone, Copy)]
enum Chunk {
    /// All-active vertex range `[lo, hi)`.
    VertexRange { lo: u32, hi: u32 },
    /// Frontier indices `[lo, hi)` into the frontier array.
    FrontierRange { lo: u32, hi: u32 },
    /// A compressed frontier chunk.
    CFrontier(CFrontierChunk),
}

/// What the traversal does with each edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TravMode {
    /// Push: atomic scatter to destination data.
    PushApply,
    /// UB: bin the update.
    UbBin,
    /// PHI: push into the coalescing unit.
    PhiBin,
}

/// Runs `alg` to completion under `cfg` on `machine` over `w`.
/// Returns run statistics; `machine.finish()` afterwards yields the report.
pub fn run_algorithm(
    machine: &mut Machine,
    w: &mut Workload,
    alg: &mut dyn Algorithm,
    cfg: &SchemeConfig,
) -> AlgoRunStats {
    let cost = CostModel::new();
    let cores = machine.config().mem.cores;
    let llc_bytes = machine.config().mem.llc.size_bytes;
    let all_active = alg.all_active();

    let initial = alg.init(w);
    let mut frontier: Vec<VertexId> = match initial {
        Some(ids) => ids,
        None => (0..w.n() as VertexId).collect(),
    };

    // Initialize compressed vertex structures from current contents.
    if cfg.compress_vertex {
        if w.cdst.is_some() {
            let chunks = w.cdst.as_ref().unwrap().lens.len();
            for i in 0..chunks {
                w.recompress_dst_chunk(cfg.vertex_codec, i);
            }
        }
        if w.csrc.is_some() {
            let chunks = w.csrc.as_ref().unwrap().lens.len();
            for i in 0..chunks {
                w.recompress_src_chunk(cfg.vertex_codec, i);
            }
        }
    }

    let frontier_compressed = cfg.compress_vertex && !all_active && cfg.spzip;
    let mut cfrontier_chunks: Vec<CFrontierChunk> = Vec::new();
    if !all_active {
        write_frontier_raw(w, &frontier);
        if frontier_compressed {
            cfrontier_chunks = compress_frontier_host(w, cfg, &frontier, cores);
        }
    }

    let mut stats = AlgoRunStats::default();
    let mut phi = (cfg.strategy == Strategy::Phi).then(|| PhiUnit::new(llc_bytes, 16, 4));

    for iteration in 0..alg.max_iterations() {
        if frontier.is_empty() {
            break;
        }
        stats.iterations = iteration + 1;
        let edges: u64 = frontier.iter().map(|&v| w.g.out_degree(v) as u64).sum();
        stats.edges += edges;

        let mut activations: Vec<VertexId> = Vec::new();
        match cfg.strategy {
            Strategy::Push => {
                run_traversal_phase(
                    machine,
                    w,
                    alg,
                    cfg,
                    &cost,
                    &frontier,
                    &cfrontier_chunks,
                    TravMode::PushApply,
                    None,
                    &mut activations,
                    &mut None,
                );
            }
            Strategy::Ub | Strategy::Phi => {
                let bins = w.bins.as_ref().expect("UB/PHI needs bins");
                let num_bins = bins.num_bins;
                let mode = if cfg.strategy == Strategy::Ub {
                    TravMode::UbBin
                } else {
                    TravMode::PhiBin
                };
                // Binned update tuples per (writer core, bin), plus per-bin
                // activation lists used during accumulation.
                let mut binned: Vec<Vec<Vec<u64>>> =
                    vec![vec![Vec::new(); num_bins as usize]; cores];
                run_traversal_phase(
                    machine,
                    w,
                    alg,
                    cfg,
                    &cost,
                    &frontier,
                    &cfrontier_chunks,
                    mode,
                    Some(&mut binned),
                    &mut activations,
                    &mut phi,
                );
                if let Some(p) = &phi {
                    stats.phi_coalesced = p.coalesced();
                    stats.phi_spilled = p.spilled();
                }
                // Bin compression accounting (the Sec. V-C ratio study).
                for (c, per_core) in binned.iter().enumerate() {
                    for (b, updates) in per_core.iter().enumerate() {
                        if updates.is_empty() {
                            continue;
                        }
                        stats.bin_raw_bytes += updates.len() as u64 * 8;
                        let bins = w.bins.as_ref().unwrap();
                        stats.bin_stored_bytes += if cfg.spzip {
                            w.img.read_u64(bins.meta_addr(c, b as u32))
                        } else {
                            updates.len() as u64 * 8
                        };
                    }
                }
                run_accumulation(machine, w, cfg, &cost, cores, &binned);
            }
        }

        // The vertex-slice conservation contract holds exactly here:
        // every accumulation recompressed the chunks it touched, and the
        // host-side end_iteration below may rewrite the raw arrays
        // without recompressing.
        #[cfg(feature = "sanitize")]
        if machine.sanitizing() {
            for v in crate::sanitize::check_vertex_conservation(w, cfg) {
                machine.note_violation(v);
            }
        }

        let end = alg.end_iteration(w, iteration);
        if end == EndIter::ContinueWithVertexPhase {
            run_vertex_phase(machine, w, cfg, &cost);
        }
        if end == EndIter::Done {
            break;
        }
        if all_active {
            continue;
        }
        activations.sort_unstable();
        activations.dedup();
        frontier = activations;
        if frontier.is_empty() {
            break;
        }
        write_frontier_raw(w, &frontier);
        if frontier_compressed {
            cfrontier_chunks = compress_frontier_phase(machine, w, cfg, &frontier, cores);
        }
    }
    stats
}

/// Writes the frontier ids into the raw frontier array (functional state
/// for the next iteration's reads).
fn write_frontier_raw(w: &mut Workload, ids: &[VertexId]) {
    for (i, &v) in ids.iter().enumerate() {
        w.img.write_u32(w.frontier_addr + i as u64 * 4, v);
    }
}

/// Host-side initial frontier compression (before the machine runs).
fn compress_frontier_host(
    w: &mut Workload,
    cfg: &SchemeConfig,
    ids: &[VertexId],
    cores: usize,
) -> Vec<CFrontierChunk> {
    let mut ctx = CodecCtx::new(cfg.vertex_codec);
    let region_cap = region_capacity(w, cores);
    let mut chunks = Vec::new();
    let mut core = 0usize;
    let mut cursors = vec![0u64; cores];
    let mut values: Vec<u64> = Vec::new();
    let mut bytes: Vec<u8> = Vec::new();
    for chunk_ids in ids.chunks(CHUNK_VERTICES as usize) {
        values.clear();
        values.extend(chunk_ids.iter().map(|&v| v as u64));
        bytes.clear();
        ctx.compress(&values, &mut bytes);
        let pos = core as u64 * region_cap + cursors[core];
        assert!(
            cursors[core] + bytes.len() as u64 <= region_cap,
            "cfrontier overflow"
        );
        w.img.write_bytes(w.cfrontier_addr + pos, &bytes);
        let ids_lo = chunks
            .iter()
            .map(|c: &CFrontierChunk| c.ids_hi - c.ids_lo)
            .sum();
        chunks.push(CFrontierChunk {
            pos,
            len: bytes.len() as u32,
            ids_lo,
            ids_hi: ids_lo + chunk_ids.len(),
        });
        cursors[core] += bytes.len() as u64;
        core = (core + 1) % cores;
    }
    chunks
}

fn region_capacity(w: &Workload, cores: usize) -> u64 {
    // The cfrontier region was allocated with n*5 + 4096 bytes.
    (w.n() as u64 * 5 + 4096) / cores as u64
}

/// Timed frontier compression at end of iteration (UB/PHI + SpZip,
/// non-all-active): each core compresses its share of the next frontier
/// through its compressor (Fig. 13's single-stream pipeline).
fn compress_frontier_phase(
    machine: &mut Machine,
    w: &mut Workload,
    cfg: &SchemeConfig,
    ids: &[VertexId],
    cores: usize,
) -> Vec<CFrontierChunk> {
    let region_cap = region_capacity(w, cores);
    // Load each core's value compressor targeting its region.
    let pipes: Vec<pipelines::ValueCompPipe> = (0..cores)
        .map(|c| {
            pipelines::value_compressor(
                w,
                cfg,
                w.cfrontier_addr + c as u64 * region_cap,
                cfg.vertex_codec,
                cfg.sort_chunks,
                DataClass::Frontier,
            )
        })
        .collect();
    for (c, p) in pipes.iter().enumerate() {
        machine.load_compressor_program_for(c, &p.pipeline);
    }

    // Assign id chunks round-robin; generate events + functional runs.
    let mut chunks_meta = Vec::new();
    let mut works: Vec<Option<CoreWork>> = (0..cores).map(|_| None).collect();
    let mut engines: Vec<FuncEngine> = pipes
        .iter()
        .map(|p| FuncEngine::new(p.pipeline.clone()))
        .collect();
    let mut cursors = vec![0u64; cores];
    let mut ids_done = 0usize;
    for (ci, chunk_ids) in ids.chunks(CHUNK_VERTICES as usize).enumerate() {
        let core = ci % cores;
        let work = works[core].get_or_insert_with(CoreWork::default);
        let val_q = pipes[core].val_q;
        for &v in chunk_ids {
            engines[core].enqueue_value(val_q, v as u64, 4);
            work.events.push(Event::CompressorEnqueue {
                q: val_q,
                quarters: 4,
            });
        }
        engines[core].enqueue_marker(val_q, 0);
        work.events.push(Event::CompressorEnqueue {
            q: val_q,
            quarters: 4,
        });
        engines[core].run(&mut w.img);
        let len = engines[core].stream_cursor(1) - cursors[core];
        chunks_meta.push(CFrontierChunk {
            pos: core as u64 * region_cap + cursors[core],
            len: len as u32,
            ids_lo: ids_done,
            ids_hi: ids_done + chunk_ids.len(),
        });
        cursors[core] += len;
        assert!(cursors[core] <= region_cap, "cfrontier overflow");
        ids_done += chunk_ids.len();
    }
    for (core, work) in works.iter_mut().enumerate() {
        if let Some(wk) = work {
            wk.events.push(Event::CompressorDrain);
            wk.compressor_trace = Some(engines[core].take_firings());
        }
    }
    let mut handed = vec![false; cores];
    machine.run_phase(&mut |core: usize| {
        if handed[core] {
            return None;
        }
        handed[core] = true;
        works[core].take()
    });
    chunks_meta
}

// ======================================================================
// Traversal / binning phase
// ======================================================================

#[allow(clippy::too_many_arguments)]
fn run_traversal_phase(
    machine: &mut Machine,
    w: &mut Workload,
    alg: &mut dyn Algorithm,
    cfg: &SchemeConfig,
    cost: &CostModel,
    frontier: &[VertexId],
    cfrontier_chunks: &[CFrontierChunk],
    mode: TravMode,
    binned: Option<&mut Vec<Vec<Vec<u64>>>>,
    activations: &mut Vec<VertexId>,
    phi: &mut Option<PhiUnit>,
) {
    let cores = machine.config().mem.cores;
    let all_active = alg.all_active();
    let frontier_compressed = !cfrontier_chunks.is_empty();

    // Build the chunk pool.
    let mut chunks: Vec<Chunk> = Vec::new();
    if all_active {
        let n = w.n() as u32;
        let mut lo = 0;
        while lo < n {
            let hi = (lo + CHUNK_VERTICES).min(n);
            chunks.push(Chunk::VertexRange { lo, hi });
            lo = hi;
        }
    } else if frontier_compressed {
        for c in cfrontier_chunks {
            chunks.push(Chunk::CFrontier(*c));
        }
    } else {
        let n = frontier.len() as u32;
        let mut lo = 0;
        while lo < n {
            let hi = (lo + CHUNK_VERTICES).min(n);
            chunks.push(Chunk::FrontierRange { lo, hi });
            lo = hi;
        }
    }

    // SpZip: load traversal program; build per-core binning compressors.
    let trav = cfg.spzip.then(|| {
        pipelines::traversal(
            w,
            cfg,
            TraversalOpts {
                all_active,
                prefetch_dst: mode == TravMode::PushApply,
                frontier_compressed,
                read_source: alg.reads_source(),
            },
        )
    });
    if let Some(t) = &trav {
        machine.load_fetcher_program(&t.pipeline);
    }
    let bin_pipes: Vec<pipelines::BinningCompPipe> = if cfg.spzip && mode != TravMode::PushApply {
        // Bins are per-iteration: reset the MQU tail pointers (the runtime
        // reallocates bins each binning phase, as in Listing 5).
        let bins = w.bins.as_ref().unwrap();
        let metas: Vec<u64> = (0..cores)
            .flat_map(|c| (0..bins.num_bins).map(move |b| (c, b)))
            .map(|(c, b)| bins.meta_addr(c, b))
            .collect();
        for m in metas {
            w.img.write_u64(m, 0);
        }
        (0..cores)
            .map(|c| pipelines::binning_compressor(w, cfg, c))
            .collect()
    } else {
        Vec::new()
    };
    for (c, p) in bin_pipes.iter().enumerate() {
        machine.load_compressor_program_for(c, &p.pipeline);
    }
    let mut comp_engines: Vec<Option<FuncEngine>> = (0..cores)
        .map(|c| {
            bin_pipes
                .get(c)
                .map(|p| FuncEngine::new(p.pipeline.clone()))
        })
        .collect();

    let mut source = TraversalSource {
        w,
        alg,
        cfg,
        cost,
        frontier,
        mode,
        trav,
        bin_pipes,
        comp_engines: &mut comp_engines,
        chunks,
        next_chunk: 0,
        binned,
        activations,
        in_next: vec![false; 0],
        nf_cursor: 0,
        phi,
        phi_payloads: HashMap::new(),
        bin_cursors: vec![],
        finalized: vec![false; cores],
        drain_shares: None,
        all_active,
    };
    source.in_next = vec![false; source.w.n()];
    source.bin_cursors =
        vec![vec![0u64; source.w.bins.as_ref().map_or(0, |b| b.num_bins as usize)]; cores];
    machine.run_phase(&mut source);
    // Drain discipline (S004): the binning compressors were finalized with
    // closing markers before the phase ended, so no operator may still
    // buffer an open chunk.
    #[cfg(feature = "sanitize")]
    if machine.sanitizing() {
        use spzip_sim::sanitize::{Code, Violation};
        for (c, eng) in comp_engines.iter().enumerate() {
            let Some(e) = eng else { continue };
            for (op, buffered) in e.open_chunks() {
                machine.note_violation(Violation::new(
                    Code::UnterminatedChunk,
                    format!(
                        "compressor {c} operator {op} still buffers {buffered} item(s) \
                         after the binning phase drained"
                    ),
                    format!("compressor {c} at end of binning phase"),
                ));
            }
        }
    }
}

struct TraversalSource<'a> {
    w: &'a mut Workload,
    alg: &'a mut dyn Algorithm,
    cfg: &'a SchemeConfig,
    cost: &'a CostModel,
    frontier: &'a [VertexId],
    mode: TravMode,
    trav: Option<pipelines::TraversalPipe>,
    bin_pipes: Vec<pipelines::BinningCompPipe>,
    comp_engines: &'a mut Vec<Option<FuncEngine>>,
    chunks: Vec<Chunk>,
    next_chunk: usize,
    binned: Option<&'a mut Vec<Vec<Vec<u64>>>>,
    activations: &'a mut Vec<VertexId>,
    in_next: Vec<bool>,
    nf_cursor: u64,
    phi: &'a mut Option<PhiUnit>,
    /// Payloads buffered per PHI line (line -> slot -> payload).
    phi_payloads: HashMap<u64, [Option<u32>; 16]>,
    bin_cursors: Vec<Vec<u64>>,
    finalized: Vec<bool>,
    drain_shares: Option<Vec<Vec<u64>>>,
    all_active: bool,
}

impl TraversalSource<'_> {
    /// The sources covered by a chunk, as (frontier index, vertex).
    fn chunk_sources(&self, chunk: Chunk) -> Vec<(u32, VertexId)> {
        match chunk {
            Chunk::VertexRange { lo, hi } => (lo..hi).map(|v| (v, v)).collect(),
            Chunk::FrontierRange { lo, hi } => {
                (lo..hi).map(|i| (i, self.frontier[i as usize])).collect()
            }
            Chunk::CFrontier(c) => (c.ids_lo..c.ids_hi)
                .map(|i| (i as u32, self.frontier[i]))
                .collect(),
        }
    }

    /// Emits the per-edge action (apply / bin / PHI-push) for `dst`.
    fn edge_action(&mut self, core: usize, ev: &mut Vec<Event>, dst: VertexId, payload: u32) {
        let w_dst_addr = self.w.dst_addr + dst as u64 * 4;
        match self.mode {
            TravMode::PushApply => {
                ev.push(Event::atomic(w_dst_addr, 4, DataClass::DestinationVertex));
                ev.push(Event::Compute(self.cost.apply));
                let activated = self.alg.apply(self.w, dst, payload);
                if activated && !self.all_active && !self.in_next[dst as usize] {
                    self.in_next[dst as usize] = true;
                    self.activations.push(dst);
                    ev.push(Event::store(
                        self.w.next_frontier_addr + self.nf_cursor * 4,
                        4,
                        DataClass::Frontier,
                    ));
                    self.nf_cursor += 1;
                }
            }
            TravMode::UbBin => {
                let bin = self.w.bins.as_ref().unwrap().bin_of(dst);
                ev.push(Event::Compute(if self.cfg.spzip {
                    self.cost.spzip_per_edge
                } else {
                    self.cost.bin_update
                }));
                self.bin_update(core, ev, bin, ((dst as u64) << 32) | payload as u64);
                let activated = self.alg.apply(self.w, dst, payload);
                if activated && !self.all_active && !self.in_next[dst as usize] {
                    self.in_next[dst as usize] = true;
                    self.activations.push(dst);
                }
            }
            TravMode::PhiBin => {
                ev.push(Event::Compute(self.cost.phi_push));
                let phi = self.phi.as_mut().unwrap();
                let line = w_dst_addr / 64;
                let slot = ((w_dst_addr % 64) / 4) as usize;
                let outcome = phi.push(w_dst_addr);
                // Coalesce the payload into the line mirror.
                let entry = self.phi_payloads.entry(line).or_insert([None; 16]);
                entry[slot] = Some(match entry[slot] {
                    Some(prev) => self.alg.combine(prev, payload),
                    None => payload,
                });
                if let PhiPush::Allocated {
                    evicted: Some((victim, _)),
                } = outcome
                {
                    let spilled = self.phi_payloads.remove(&victim).unwrap_or([None; 16]);
                    self.spill_line(core, ev, victim, &spilled);
                }
                let activated = self.alg.apply(self.w, dst, payload);
                if activated && !self.all_active && !self.in_next[dst as usize] {
                    self.in_next[dst as usize] = true;
                    self.activations.push(dst);
                }
            }
        }
    }

    /// Spills one PHI line's coalesced updates to bins.
    fn spill_line(
        &mut self,
        core: usize,
        ev: &mut Vec<Event>,
        line: u64,
        slots: &[Option<u32>; 16],
    ) {
        let base_dst = (line * 64).saturating_sub(self.w.dst_addr) / 4;
        for (slot, payload) in slots.iter().enumerate() {
            let Some(p) = payload else { continue };
            let dst = base_dst as u32 + slot as u32;
            let bins = self.w.bins.as_ref().unwrap();
            let bin = bins.bin_of(dst.min(self.w.n() as u32 - 1));
            self.bin_update(core, ev, bin, ((dst as u64) << 32) | *p as u64);
        }
    }

    /// Bins one update: through the core's binning compressor under
    /// SpZip, otherwise as a streaming store at the bin's cursor. Either
    /// way the update is recorded for the accumulation phase.
    fn bin_update(&mut self, core: usize, ev: &mut Vec<Event>, bin: u32, update: u64) {
        if self.cfg.spzip {
            let q = self.bin_pipes[core].bin_q;
            let eng = self.comp_engines[core]
                .as_mut()
                .expect("SpZip binning builds a compressor per core");
            eng.enqueue_value(q, bin as u64, 4);
            eng.enqueue_value(q, update, 8);
            ev.push(Event::CompressorEnqueue { q, quarters: 4 });
            ev.push(Event::CompressorEnqueue { q, quarters: 8 });
        } else {
            let bins = self.w.bins.as_ref().expect("binning needs bins");
            let addr = bins.bin_addr(core, bin) + self.bin_cursors[core][bin as usize];
            ev.push(Event::stream_store(addr, 8, DataClass::Updates));
            self.bin_cursors[core][bin as usize] += 8;
        }
        if let Some(binned) = self.binned.as_deref_mut() {
            binned[core][bin as usize].push(update);
        }
    }

    /// The final per-core batch: PHI drain shares, MQU close markers, and
    /// compressor drain.
    fn finalize_core(&mut self, core: usize) -> Option<CoreWork> {
        if self.finalized[core] {
            return None;
        }
        self.finalized[core] = true;
        if self.mode == TravMode::PushApply {
            return None;
        }
        let mut ev = Vec::new();
        // PHI: split the drained lines across cores once.
        if self.mode == TravMode::PhiBin {
            if self.drain_shares.is_none() {
                let cores = self.finalized.len();
                let drained = self.phi.as_mut().unwrap().drain();
                let mut shares: Vec<Vec<u64>> = vec![Vec::new(); cores];
                for (i, (line, _)) in drained.into_iter().enumerate() {
                    shares[i % cores].push(line);
                }
                self.drain_shares = Some(shares);
            }
            let lines = self.drain_shares.as_mut().unwrap()[core].clone();
            for line in lines {
                let slots = self.phi_payloads.remove(&line).unwrap_or([None; 16]);
                self.spill_line(core, &mut ev, line, &slots);
            }
        }
        if self.cfg.spzip {
            let q = self.bin_pipes[core].bin_q;
            let num_bins = self.w.bins.as_ref().unwrap().num_bins;
            {
                let eng = self.comp_engines[core].as_mut().unwrap();
                for bin in 0..num_bins {
                    eng.enqueue_marker(q, bin);
                    ev.push(Event::CompressorEnqueue { q, quarters: 4 });
                }
            }
            self.run_comp_engine(core);
            ev.push(Event::CompressorDrain);
            let trace = self.comp_engines[core].as_mut().unwrap().take_firings();
            return Some(CoreWork {
                events: ev,
                fetcher_trace: None,
                compressor_trace: Some(trace),
            });
        }
        if ev.is_empty() {
            None
        } else {
            Some(CoreWork {
                events: ev,
                ..Default::default()
            })
        }
    }

    fn run_comp_engine(&mut self, core: usize) {
        let eng = self.comp_engines[core].as_mut().unwrap();
        // Split borrows: the engine runs against the image.
        let img: &mut MemoryImage = &mut self.w.img;
        eng.run(img);
    }

    /// Generates one software-traversal chunk.
    fn software_chunk(&mut self, core: usize, chunk: Chunk) -> CoreWork {
        let sources = self.chunk_sources(chunk);
        let mut ev = Vec::new();
        for (fidx, src) in sources {
            if !self.all_active {
                ev.push(Event::load(
                    self.w.frontier_addr + fidx as u64 * 4,
                    4,
                    DataClass::Frontier,
                ));
            }
            ev.push(Event::load(
                self.w.offsets_addr + src as u64 * 8,
                16,
                DataClass::AdjacencyMatrix,
            ));
            ev.push(Event::Compute(self.cost.sw_per_src));
            if self.alg.reads_source() {
                ev.push(Event::load(
                    self.w.src_addr + src as u64 * 4,
                    4,
                    DataClass::SourceVertex,
                ));
            }
            let (elo, ehi) = self.w.g.row_range(src);
            for e in elo..ehi {
                let dst = self.w.g.neighbors_flat()[e];
                ev.push(Event::load(
                    self.w.neighbors_addr + e as u64 * 4,
                    4,
                    DataClass::AdjacencyMatrix,
                ));
                if let Some(values_addr) = self.w.values_addr {
                    ev.push(Event::load(
                        values_addr + e as u64 * 4,
                        4,
                        DataClass::AdjacencyMatrix,
                    ));
                }
                ev.push(Event::Compute(self.cost.sw_per_edge));
                let payload = self.alg.payload(self.w, src, e);
                self.edge_action(core, &mut ev, dst, payload);
            }
        }
        CoreWork {
            events: ev,
            ..Default::default()
        }
    }

    /// Generates one SpZip-traversal chunk: functional pipeline run +
    /// event stream walking the dequeued data.
    #[allow(clippy::while_let_loop)] // dequeue loops break mid-body
    fn spzip_chunk(&mut self, core: usize, chunk: Chunk) -> CoreWork {
        let trav = self.trav.clone().unwrap();
        // The chunk's input ranges.
        let mut ranges = Vec::new();
        match chunk {
            Chunk::VertexRange { lo, hi } => {
                if let Some(cadj) = &self.w.cadj {
                    let g = cadj.group_rows;
                    debug_assert_eq!(lo % g, 0);
                    // Offsets of groups glo..ghi need glo..=ghi entries.
                    ranges.push((trav.in_q, (lo / g) as u64, hi.div_ceil(g) as u64 + 1));
                } else {
                    ranges.push((trav.in_q, lo as u64, hi as u64 + 1));
                }
                if let Some(src_in) = trav.src_in_q {
                    if let Some(csrc) = &self.w.csrc {
                        let c = csrc.chunk_elems;
                        ranges.extend(((lo / c)..hi.div_ceil(c)).map(|ci| {
                            let off = csrc.chunk_addr(ci as usize) - csrc.base;
                            (src_in, off, off + csrc.lens[ci as usize] as u64)
                        }));
                    } else {
                        ranges.push((src_in, lo as u64, hi as u64));
                    }
                }
            }
            Chunk::FrontierRange { lo, hi } => ranges.push((trav.in_q, lo as u64, hi as u64)),
            Chunk::CFrontier(c) => ranges.push((trav.in_q, c.pos, c.pos + c.len as u64)),
        }
        let (mut eng, mut ev) = run_fetcher(&trav.pipeline, &ranges, &mut self.w.img);

        let neigh_items = eng.drain_output_costed(trav.neigh_q);
        let mut neigh_iter = neigh_items.into_iter().peekable();
        let mut contrib_iter = trav
            .contrib_q
            .map(|q| eng.drain_output_costed(q).into_iter().peekable());

        let sources = self.chunk_sources(chunk);
        for (_, src) in sources {
            if let Some(ci) = contrib_iter.as_mut() {
                // Pop markers until the source's payload value arrives.
                loop {
                    let Some(&(item, cost)) = ci.peek() else {
                        break;
                    };
                    ev.push(Event::FetcherDequeue {
                        q: trav.contrib_q.unwrap(),
                        quarters: cost as u16,
                    });
                    ci.next();
                    if !item.is_marker() {
                        break;
                    }
                }
            }
            ev.push(Event::Compute(self.cost.spzip_per_src));
            let (elo, ehi) = self.w.g.row_range(src);
            for e in elo..ehi {
                let expect = self.w.g.neighbors_flat()[e];
                // Pop queue items until the neighbor value arrives
                // (markers separate rows / groups).
                let dst = loop {
                    let (item, cost) = neigh_iter
                        .next()
                        .expect("neighbor stream ended early: pipeline bug");
                    ev.push(Event::FetcherDequeue {
                        q: trav.neigh_q,
                        quarters: cost as u16,
                    });
                    match item {
                        QueueItem::Value(v) => break v as VertexId,
                        QueueItem::Marker(_) => continue,
                    }
                };
                debug_assert_eq!(dst, expect, "decompressed neighbor mismatch");
                ev.push(Event::Compute(self.cost.spzip_per_edge));
                let payload = self.alg.payload(self.w, src, e);
                self.edge_action(core, &mut ev, dst, payload);
            }
        }
        // Trailing markers.
        for (_, cost) in neigh_iter {
            ev.push(Event::FetcherDequeue {
                q: trav.neigh_q,
                quarters: cost as u16,
            });
        }
        if let Some(ci) = contrib_iter.as_mut() {
            for (_, cost) in ci {
                ev.push(Event::FetcherDequeue {
                    q: trav.contrib_q.unwrap(),
                    quarters: cost as u16,
                });
            }
        }

        let fetcher_trace = Some(eng.take_firings());
        let compressor_trace = if self.cfg.spzip && self.mode != TravMode::PushApply {
            self.run_comp_engine(core);
            Some(self.comp_engines[core].as_mut().unwrap().take_firings())
        } else {
            None
        };
        CoreWork {
            events: ev,
            fetcher_trace,
            compressor_trace,
        }
    }
}

impl WorkSource for TraversalSource<'_> {
    fn next(&mut self, core: usize) -> Option<CoreWork> {
        if self.next_chunk >= self.chunks.len() {
            return self.finalize_core(core);
        }
        let chunk = self.chunks[self.next_chunk];
        self.next_chunk += 1;
        Some(if self.cfg.spzip {
            self.spzip_chunk(core, chunk)
        } else {
            self.software_chunk(core, chunk)
        })
    }
}

// ======================================================================
// Accumulation phase (UB / PHI)
// ======================================================================

#[allow(clippy::too_many_arguments)]
fn run_accumulation(
    machine: &mut Machine,
    w: &mut Workload,
    cfg: &SchemeConfig,
    cost: &CostModel,
    cores: usize,
    binned: &[Vec<Vec<u64>>],
) {
    let num_bins = w.bins.as_ref().unwrap().num_bins;
    let accum_pipe = cfg.spzip.then(|| pipelines::accum_fetcher(w, cfg));
    if let Some(p) = &accum_pipe {
        machine.load_fetcher_program(&p.pipeline);
    }

    /// One unit of accumulation work.
    #[derive(Clone, Copy)]
    enum Item {
        /// Decompress one destination sub-chunk into the staging slice.
        Slice(usize),
        /// Apply one writer core's bin segment.
        Seg(usize),
    }

    let slice_vertices = w.bins.as_ref().unwrap().slice_vertices;
    let sub = crate::layout::DST_SUBCHUNK as usize;
    let subs_per_bin = (slice_vertices as usize).div_ceil(sub);
    for bin in 0..num_bins {
        // Vertex compression pays a slice decompress + recompress per bin;
        // that only amortizes when the bin is dense. Sparse bins (small
        // frontiers) apply directly to the raw array — the hybrid policy a
        // real runtime would use.
        let bin_updates: usize = (0..cores).map(|c| binned[c][bin as usize].len()).sum();
        if bin_updates == 0 {
            continue;
        }
        let use_slice = cfg.compress_vertex && bin_updates >= slice_vertices as usize / 8;
        let total_subs = w.cdst.as_ref().map_or(0, |c| c.lens.len());
        let sub_lo = bin as usize * subs_per_bin;
        let sub_hi = ((bin as usize + 1) * subs_per_bin).min(total_subs);

        let mut pool: Vec<Item> = Vec::new();
        if use_slice {
            pool.extend((sub_lo..sub_hi).map(Item::Slice));
        }
        pool.extend(
            (0..cores)
                .filter(|&c| !binned[c][bin as usize].is_empty())
                .map(Item::Seg),
        );
        pool.reverse(); // pop() hands slices out first

        machine.run_phase(&mut |_core: usize| {
            let (ev, fetcher_trace) = match pool.pop()? {
                Item::Slice(sc) => {
                    // Fetch + decompress one destination sub-chunk into
                    // staging.
                    let pipe = accum_pipe.as_ref().unwrap();
                    let range = slice_range(w, pipe, sc);
                    let (mut eng, mut ev) = run_fetcher(&pipe.pipeline, &[range], &mut w.img);
                    let sv = pipe.slice_val_q.unwrap();
                    let stage_base = w.staging_addr
                        + (sc - sub_lo) as u64 * crate::layout::DST_SUBCHUNK as u64 * 4;
                    emit_slice_dequeues(&mut ev, &mut eng, sv, stage_base);
                    (ev, Some(eng.take_firings()))
                }
                Item::Seg(writer) => {
                    let updates = &binned[writer][bin as usize];
                    if let Some(pipe) = &accum_pipe {
                        // Fetch + decompress this writer's bin segment.
                        let bins = w.bins.as_ref().unwrap();
                        let seg_off = bins.bin_addr(writer, bin) - bins.bins_base;
                        let tail = w.img.read_u64(bins.meta_addr(writer, bin));
                        let range = (pipe.bin_in_q, seg_off, seg_off + tail);
                        let (mut eng, mut ev) = run_fetcher(&pipe.pipeline, &[range], &mut w.img);
                        let upd_items = eng.drain_output_costed(pipe.upd_q);
                        let mut decoded: Vec<u64> = Vec::new();
                        for (item, qcost) in upd_items {
                            ev.push(Event::FetcherDequeue {
                                q: pipe.upd_q,
                                quarters: qcost as u16,
                            });
                            if let QueueItem::Value(v) = item {
                                decoded.push(v);
                            }
                            ev.push(Event::Compute(cost.accum_update));
                        }
                        // Sorted chunks permute updates; counts must match.
                        debug_assert_eq!(decoded.len(), updates.len(), "bin decode count");
                        apply_events(&mut ev, w, cost, bin, use_slice, &decoded);
                        (ev, Some(eng.take_firings()))
                    } else {
                        // Software accumulation: stream the raw bin.
                        let mut ev = Vec::new();
                        let base = w.bins.as_ref().unwrap().bin_addr(writer, bin);
                        for (i, &u) in updates.iter().enumerate() {
                            ev.push(Event::load(base + i as u64 * 8, 8, DataClass::Updates));
                            ev.push(Event::Compute(cost.accum_update));
                            apply_events(&mut ev, w, cost, bin, false, &[u]);
                        }
                        (ev, None)
                    }
                }
            };
            Some(CoreWork {
                events: ev,
                fetcher_trace,
                compressor_trace: None,
            })
        });

        // Write the slice back compressed (vertex compression). The
        // recompression itself is host-side; the stores model the
        // compressed write traffic, parallel across sub-chunks.
        if use_slice {
            let mut writes: Vec<(u64, u32)> = Vec::new();
            for sc in sub_lo..sub_hi {
                let len = w.recompress_dst_chunk(cfg.vertex_codec, sc);
                let addr = w.cdst.as_ref().unwrap().chunk_addr(sc);
                writes.push((addr, len));
            }
            writes.reverse();
            machine.run_phase(&mut |_core: usize| {
                let (addr, len) = writes.pop()?;
                let mut ev = vec![Event::Compute(cost.vertex_op)];
                let mut written = 0u32;
                while written < len {
                    let burst = (len - written).min(64);
                    ev.push(Event::stream_store(
                        addr + written as u64,
                        burst,
                        DataClass::DestinationVertex,
                    ));
                    written += burst;
                }
                Some(CoreWork {
                    events: ev,
                    ..Default::default()
                })
            });
        } else if cfg.compress_vertex {
            // The raw array changed; refresh the compressed stream
            // host-side so later dense bins read fresh data (the sparse
            // path writes through uncompressed — its store events above
            // carry the traffic).
            for sc in sub_lo..sub_hi {
                w.recompress_dst_chunk(cfg.vertex_codec, sc);
            }
        }
    }
}

/// Runs a fresh fetcher over `ranges`, each `(queue, lo, hi)` enqueued as
/// two 8-byte values in order. Returns the engine, whose outputs and
/// firings the caller drains, and the core's `FetcherEnqueue` events
/// mirroring its enqueue log.
fn run_fetcher(
    pipeline: &Pipeline,
    ranges: &[(QueueId, u64, u64)],
    img: &mut MemoryImage,
) -> (FuncEngine, Vec<Event>) {
    let mut eng = FuncEngine::new(pipeline.clone());
    for &(q, lo, hi) in ranges {
        eng.enqueue_value(q, lo, 8);
        eng.enqueue_value(q, hi, 8);
    }
    eng.run(img);
    let ev = eng
        .enqueue_log()
        .iter()
        .map(|&(q, quarters)| Event::FetcherEnqueue { q, quarters })
        .collect();
    (eng, ev)
}

/// The fetcher input range of compressed destination sub-chunk `sc`.
fn slice_range(w: &Workload, pipe: &pipelines::AccumFetchPipe, sc: usize) -> (QueueId, u64, u64) {
    let cdst = w
        .cdst
        .as_ref()
        .expect("slices need a compressed destination array");
    let off = cdst.chunk_addr(sc) - cdst.base;
    let q = pipe
        .slice_in_q
        .expect("vertex compression adds a slice input queue");
    (q, off, off + cdst.lens[sc] as u64)
}

/// Emits the events that apply updates to destination data.
fn apply_events(
    ev: &mut Vec<Event>,
    w: &Workload,
    cost: &CostModel,
    bin: u32,
    use_slice: bool,
    updates: &[u64],
) {
    let bins = w.bins.as_ref().unwrap();
    let slice_lo = bin as u64 * bins.slice_vertices as u64;
    for &u in updates {
        let dst = u >> 32;
        ev.push(Event::Compute(cost.apply));
        if use_slice {
            // The slice lives decompressed in the staging buffer.
            let off = (dst.saturating_sub(slice_lo) % bins.slice_vertices as u64) * 4;
            ev.push(Event::store(
                w.staging_addr + off,
                4,
                DataClass::DestinationVertex,
            ));
        } else {
            ev.push(Event::store(
                w.dst_addr + dst * 4,
                4,
                DataClass::DestinationVertex,
            ));
        }
    }
}

/// Emits dequeue + staging-store events for a decompressed vertex-slice
/// stream. Dequeues move 8 B (two 4 B values) per instruction and staging
/// writes are line-batched — the wide-move behaviour of a real core, which
/// keeps vertex compression's bookkeeping cheaper than its traffic savings.
fn emit_slice_dequeues(
    ev: &mut Vec<Event>,
    eng: &mut FuncEngine,
    sv: spzip_core::QueueId,
    stage_base: u64,
) {
    let mut pending_vals = 0u64; // values dequeued but not yet "stored"
    let mut stored = 0u64;
    let flush = |ev: &mut Vec<Event>, pending: &mut u64, stored: &mut u64| {
        while *pending > 0 {
            let burst = (*pending).min(16);
            ev.push(Event::stream_store(
                stage_base + *stored * 4,
                (burst * 4) as u32,
                DataClass::DestinationVertex,
            ));
            *stored += burst;
            *pending -= burst;
        }
    };
    let mut val_run = 0u16; // values awaiting a paired dequeue
    for (item, qcost) in eng.drain_output_costed(sv) {
        if item.is_marker() {
            if val_run > 0 {
                ev.push(Event::FetcherDequeue {
                    q: sv,
                    quarters: val_run * 4,
                });
                val_run = 0;
            }
            flush(ev, &mut pending_vals, &mut stored);
            ev.push(Event::FetcherDequeue {
                q: sv,
                quarters: qcost as u16,
            });
        } else {
            val_run += 1;
            pending_vals += 1;
            if val_run == 2 {
                ev.push(Event::FetcherDequeue { q: sv, quarters: 8 });
                val_run = 0;
            }
            if pending_vals == 16 {
                flush(ev, &mut pending_vals, &mut stored);
            }
        }
    }
    if val_run > 0 {
        ev.push(Event::FetcherDequeue {
            q: sv,
            quarters: val_run * 4,
        });
    }
    flush(ev, &mut pending_vals, &mut stored);
}

// ======================================================================
// Vertex phase (e.g. PR contribution recompute)
// ======================================================================

fn run_vertex_phase(machine: &mut Machine, w: &mut Workload, cfg: &SchemeConfig, cost: &CostModel) {
    let n = w.n() as u32;
    if cfg.compress_vertex && w.cdst.is_some() && w.csrc.is_some() {
        // Compressed: stream scores through the fetcher, write contribs as
        // compressed chunks (recompressed host-side; the stores model the
        // compressed write traffic).
        let pipe = pipelines::accum_fetcher(w, cfg);
        machine.load_fetcher_program(&pipe.pipeline);
        let nslices = w.cdst.as_ref().unwrap().lens.len();
        let mut slice = 0usize;
        let vertex_codec = cfg.vertex_codec;
        // Recompress all source chunks now (end_iteration already updated
        // the raw array).
        let nsrc_chunks = w.csrc.as_ref().unwrap().lens.len();
        for i in 0..nsrc_chunks {
            w.recompress_src_chunk(vertex_codec, i);
        }
        machine.run_phase(&mut |_core: usize| {
            if slice >= nslices {
                return None;
            }
            let b = slice;
            slice += 1;
            let range = slice_range(w, &pipe, b);
            let (mut eng, mut ev) = run_fetcher(&pipe.pipeline, &[range], &mut w.img);
            let sv = pipe.slice_val_q.unwrap();
            let mut val_run = 0u16;
            for (item, qcost) in eng.drain_output_costed(sv) {
                if item.is_marker() {
                    if val_run > 0 {
                        ev.push(Event::FetcherDequeue {
                            q: sv,
                            quarters: val_run * 4,
                        });
                        ev.push(Event::Compute(cost.vertex_op));
                        val_run = 0;
                    }
                    ev.push(Event::FetcherDequeue {
                        q: sv,
                        quarters: qcost as u16,
                    });
                } else {
                    val_run += 1;
                    if val_run == 2 {
                        ev.push(Event::FetcherDequeue { q: sv, quarters: 8 });
                        ev.push(Event::Compute(cost.vertex_op));
                        val_run = 0;
                    }
                }
            }
            if val_run > 0 {
                ev.push(Event::FetcherDequeue {
                    q: sv,
                    quarters: val_run * 4,
                });
                ev.push(Event::Compute(cost.vertex_op));
            }
            // Compressed contribution writes covering this sub-chunk.
            let csrc = w.csrc.as_ref().unwrap();
            let chunk = csrc.chunk_elems as usize;
            let sub_v = crate::layout::DST_SUBCHUNK as usize;
            let lo_chunk = b * sub_v / chunk;
            let hi_chunk = (((b + 1) * sub_v).min(w.n())).div_ceil(chunk);
            for ci in lo_chunk..hi_chunk.min(csrc.lens.len()) {
                let len = csrc.lens[ci];
                let addr = csrc.chunk_addr(ci);
                let mut written = 0u32;
                while written < len {
                    let burst = (len - written).min(64);
                    ev.push(Event::stream_store(
                        addr + written as u64,
                        burst,
                        DataClass::SourceVertex,
                    ));
                    written += burst;
                }
            }
            Some(CoreWork {
                events: ev,
                fetcher_trace: Some(eng.take_firings()),
                compressor_trace: None,
            })
        });
    } else {
        // Software: chunked loads + stores over the vertex arrays.
        let mut lo = 0u32;
        let mut chunks = Vec::new();
        while lo < n {
            let hi = (lo + CHUNK_VERTICES).min(n);
            chunks.push((lo, hi));
            lo = hi;
        }
        let mut next = 0usize;
        machine.run_phase(&mut |_core: usize| {
            if next >= chunks.len() {
                return None;
            }
            let (lo, hi) = chunks[next];
            next += 1;
            let mut ev = Vec::new();
            for v in lo..hi {
                ev.push(Event::load(
                    w.dst_addr + v as u64 * 4,
                    4,
                    DataClass::DestinationVertex,
                ));
                ev.push(Event::Compute(cost.vertex_op));
                ev.push(Event::store(
                    w.src_addr + v as u64 * 4,
                    4,
                    DataClass::SourceVertex,
                ));
            }
            Some(CoreWork {
                events: ev,
                ..Default::default()
            })
        });
    }
}

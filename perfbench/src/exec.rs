//! Running cells: the worker pool, the two ways a cell is executed (the
//! product's `RunSpec::run`, and the same run composed from public layer
//! calls with a timer around each), outcome digests, and host counters.

use spzip_apps::alg::results_match;
use spzip_apps::layout::Workload;
use spzip_apps::run::reference_run;
use spzip_apps::runtime::run_algorithm;
use spzip_apps::scheme::{SchemeConfig, Strategy};
use spzip_apps::{RunOutcome, RunSpec};
use spzip_graph::Csr;
use spzip_sim::Machine;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Runs `f(0..n)` on `workers` threads, each index once, and returns the
/// results in index order. `f` must not panic; cells catch their own.
pub fn pool<T: Send>(n: usize, workers: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..workers.clamp(1, n.max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = f(i);
                done.lock()
                    .expect("no worker panics while holding the lock")
                    .push((i, out));
            });
        }
    });
    let mut done = done.into_inner().expect("workers have ended");
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, out)| out).collect()
}

/// `f()`, with a panic turned into its message.
pub fn catch<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic with a non-string payload".to_string())
    })
}

/// Host time spent in each layer of one composed cell, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layers {
    /// `Workload::build` (the timed image, the CMH probe's, the reference's).
    pub build_ns: u64,
    /// `Workload::build` calls.
    pub builds: u64,
    /// The CMH probe's `reference_run` (CMH cells only).
    pub probe_ns: u64,
    /// `runtime::run_algorithm`: the timed simulation.
    pub sim_ns: u64,
    /// `reference_run` of the reference workload plus `results_match`.
    pub ref_ns: u64,
    /// `Machine::finish`.
    pub finish_ns: u64,
}

fn timed<T>(acc: &mut u64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_nanos() as u64;
    out
}

/// Runs `spec` on `g` through the same public calls `RunSpec::run`
/// makes, in the same order, timing each layer into `t`. The outcome is
/// byte-identical to `spec.run(g)`'s (`tests/composition.rs`).
pub fn run_composed(spec: &RunSpec, g: &Arc<Csr>, t: &mut Layers) -> RunOutcome {
    let mcfg = spec.machine.config;
    let mut machine = Machine::new(mcfg);
    if let Some(bytes) = spec.machine.fetcher_scratchpad {
        machine.set_fetcher_scratchpad(bytes);
    }
    let mut alg = spec.app.build();
    let all_active = alg.all_active();
    let build = |t: &mut Layers, scheme: &SchemeConfig| {
        t.builds += 1;
        timed(&mut t.build_ns, || {
            Workload::build(
                g.clone(),
                scheme,
                mcfg.mem.cores,
                mcfg.mem.llc.size_bytes,
                all_active,
            )
        })
    };
    let mut w = build(t, &spec.scheme);
    if spec.machine.cmh {
        let mut probe_alg = spec.app.build();
        let mut probe_w = build(t, &spec.scheme);
        timed(&mut t.probe_ns, || {
            reference_run(probe_alg.as_mut(), &mut probe_w)
        });
        machine.enable_cmh(probe_w.img.bdi_profile());
    }
    let stats = timed(&mut t.sim_ns, || {
        run_algorithm(&mut machine, &mut w, alg.as_mut(), &spec.scheme)
    });
    let result = alg.result(&w);

    let mut ref_alg = spec.app.build();
    let mut ref_w = build(t, &SchemeConfig::software(Strategy::Push));
    let validated = timed(&mut t.ref_ns, || {
        let reference = reference_run(ref_alg.as_mut(), &mut ref_w);
        results_match(alg.as_ref(), &result, &reference)
    });

    let adjacency_ratio = w.cadj.as_ref().map(|c| c.ratio);
    let deadlock = machine.take_deadlock();
    RunOutcome {
        report: timed(&mut t.finish_ns, || machine.finish()),
        stats,
        validated,
        adjacency_ratio,
        deadlock,
    }
}

/// 64-bit FNV-1a of the outcome's serialized form, as 16 hex digits. Two
/// outcomes share a digest exactly when every counter they carry matches.
pub fn digest(spec: &RunSpec, out: &RunOutcome) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in out.to_kv(&spec.fingerprint()).as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    format!("{h:016x}")
}

/// CPU time the calling thread has used, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat")
        .expect("the benchmark needs Linux's /proc/thread-self/schedstat");
    text.split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .expect("schedstat starts with the on-CPU time in ns")
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has VmHWM in kB");
    kb / 1024.0
}

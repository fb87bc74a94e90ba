//! Times the SpZip simulator on one workload and prints the result.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --must-fail
//! perfbench --write-golden --workload NAME
//! ```
//!
//! `--trace 0` times untraced passes over the workload's cells, starting
//! another while fewer than `S` seconds have passed, and reports the
//! end-to-end metrics (medians over the passes). `--trace 1` runs one
//! untraced pass, one single-worker pass composed from timed layer calls,
//! and a warm pass through the product's cache and renderers, and reports
//! the per-layer metrics. The last line of stdout is one JSON object.
//! Every cell is checked: reference validation, no watchdog deadlock, no
//! panic, and, at the default seed, its outcome digest against
//! `golden/digests.txt`. Any failure makes the exit code 1.
//!
//! `--must-fail` injects a panicking cell and a wrong golden digest among
//! a few good cells and must exit 1. `--write-golden` records the
//! workload's digests at the default seed.

use spzip_apps::{AppName, RunOutcome, RunSpec, Scheme};
use spzip_bench::driver::{Driver, DriverOptions};
use spzip_bench::RANDOMIZE_SEED;
use spzip_graph::datasets::Scale;
use spzip_graph::reorder::Preprocessing;
use spzip_graph::Csr;
use spzip_mem::DataClass;
use spzip_perfbench::exec::{self, Layers};
use spzip_perfbench::workload::{self, InputKey, Workload};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Inputs are generated at least this many times per run, and until
/// `SETUP_MIN_S` has passed; `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// Tiny inputs take about 0.1 s, too short to time once, and the host's
/// speed changes on a scale of a second, so the median spans a few.
const SETUP_MIN_S: f64 = 2.0;
/// Most workers the pool uses, whatever the host offers.
const MAX_WORKERS: usize = 2;
/// Outcome digests of every cell at the default seed, `key digest label`.
const GOLDEN: &str = include_str!("../golden/digests.txt");

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    must_fail: bool,
    write_golden: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: RANDOMIZE_SEED,
        seconds: 1.0,
        trace: false,
        must_fail: false,
        write_golden: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(Workload::parse(&name).ok_or_else(|| {
                    let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be a positive number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--must-fail" => args.must_fail = true,
            "--write-golden" => args.write_golden = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.workload.is_none() && !args.must_fail {
        return Err("--workload is required".into());
    }
    Ok(args)
}

type Inputs = HashMap<InputKey, Arc<Csr>>;

/// Generates every input `cells` read.
fn setup(cells: &[RunSpec], seed: u64) -> Inputs {
    workload::input_keys(cells)
        .into_iter()
        .map(|k| {
            let g = workload::build_input(&k, seed);
            (k, Arc::new(g))
        })
        .collect()
}

/// One execution of one cell.
struct CellRun {
    out: Result<RunOutcome, String>,
    wall_ns: u64,
    cpu_ns: u64,
    layers: Layers,
}

/// One pass over a cell list.
struct Pass {
    runs: Vec<CellRun>,
    wall_s: f64,
}

impl Pass {
    fn cpu_s(&self) -> f64 {
        self.runs.iter().map(|r| r.cpu_ns).sum::<u64>() as f64 * 1e-9
    }

    fn ok(&self) -> impl Iterator<Item = &RunOutcome> {
        self.runs.iter().filter_map(|r| r.out.as_ref().ok())
    }
}

/// Runs every cell once on `workers` threads. A cell whose input is not in
/// `inputs` generates it itself with the product's `build_input`, so an
/// unknown dataset fails that cell alone.
fn run_pass(cells: &[RunSpec], inputs: &Inputs, workers: usize, traced: bool) -> Pass {
    let start = Instant::now();
    let runs = exec::pool(cells.len(), workers, |i| {
        let spec = &cells[i];
        let t = Instant::now();
        let cpu = exec::thread_cpu_ns();
        let mut layers = Layers::default();
        let out = exec::catch(|| {
            let g = match inputs.get(&workload::input_key(spec)) {
                Some(g) => g.clone(),
                None => Arc::new(spzip_bench::driver::build_input(
                    &spec.input,
                    spec.prep,
                    spec.scale,
                )),
            };
            if traced {
                exec::run_composed(spec, &g, &mut layers)
            } else {
                spec.run(&g)
            }
        });
        CellRun {
            out,
            wall_ns: t.elapsed().as_nanos() as u64,
            cpu_ns: exec::thread_cpu_ns() - cpu,
            layers,
        }
    });
    Pass {
        runs,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

fn load_golden() -> HashMap<String, String> {
    GOLDEN
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            Some((f.next()?.to_string(), f.next()?.to_string()))
        })
        .collect()
}

/// Checks every cell execution and counts failures by cause.
#[derive(Default)]
struct Checker {
    /// Digest each cell must produce: the golden one at the default seed,
    /// otherwise the first one seen, so every later execution, on any
    /// number of workers, must repeat it exactly.
    expected: Vec<Option<String>>,
    attempted: u64,
    failed: u64,
    mismatches: u64,
    deadlocks: u64,
    panics: u64,
    digest_mismatches: u64,
}

impl Checker {
    fn new(cells: &[RunSpec], seed: u64) -> Checker {
        let expected = if seed == RANDOMIZE_SEED {
            let golden = load_golden();
            let missing = || Some("missing from golden/digests.txt".to_string());
            cells
                .iter()
                .map(|s| golden.get(&s.cache_key()).cloned().or_else(missing))
                .collect()
        } else {
            vec![None; cells.len()]
        };
        Checker {
            expected,
            ..Checker::default()
        }
    }

    fn check(&mut self, cells: &[RunSpec], pass: &Pass) {
        for (i, (spec, run)) in cells.iter().zip(&pass.runs).enumerate() {
            self.attempted += 1;
            let mut why = Vec::new();
            match &run.out {
                Err(msg) => {
                    self.panics += 1;
                    why.push(format!("panicked: {msg}"));
                }
                Ok(out) => {
                    if !out.validated {
                        self.mismatches += 1;
                        why.push("result differs from the reference run".to_string());
                    }
                    if let Some(d) = &out.deadlock {
                        self.deadlocks += 1;
                        why.push(format!(
                            "deadlocked: {}",
                            d.render().lines().next().unwrap_or("")
                        ));
                    }
                    let got = exec::digest(spec, out);
                    match &self.expected[i] {
                        None => self.expected[i] = Some(got),
                        Some(want) if *want != got => {
                            self.digest_mismatches += 1;
                            why.push(format!("outcome digest {got}, expected {want}"));
                        }
                        Some(_) => {}
                    }
                }
            }
            if !why.is_empty() {
                self.failed += 1;
                eprintln!(
                    "FAILED {} [{}]: {}",
                    spec.label(),
                    spec.cache_key(),
                    why.join("; ")
                );
            }
        }
    }

    /// Records the outcome of a step that is not a cell (the warm pass).
    fn step(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            eprintln!("FAILED {what}: {why}");
        }
    }
}

/// Metrics in print order: name, value, unit.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn count(&mut self, name: impl Into<String>, value: u64) {
        self.put(name, value as f64, "count");
    }

    /// Prints one line per metric, then the result object as the last line.
    fn print(&self, check: &Checker) {
        for (name, value, unit) in &self.0 {
            println!("{name:<34} {value:>18} {unit}");
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            check.failed == 0,
            check.attempted,
            check.failed
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        json.push_str("}}");
        println!("{json}");
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    quantile(&mut v, 0.5)
}

/// Linear-interpolated quantile `q` of `v` (sorted in place).
fn quantile(v: &mut [f64], q: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(MAX_WORKERS)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let ok = if args.must_fail {
        must_fail()
    } else if args.write_golden {
        write_golden(args.workload.expect("checked by parse_args"))
    } else {
        measure(&args)
    };
    std::process::exit(if ok { 0 } else { 1 });
}

fn measure(args: &Args) -> bool {
    let wl = args.workload.expect("checked by parse_args");
    let cells = wl.cells();
    let mut setup_s = Vec::new();
    let mut inputs = Inputs::new();
    while setup_s.len() < SETUP_REPS || setup_s.iter().sum::<f64>() < SETUP_MIN_S {
        drop(std::mem::take(&mut inputs));
        let t = Instant::now();
        inputs = setup(&cells, args.seed);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut check = Checker::new(&cells, args.seed);
    let workers = workers();
    eprintln!(
        "perfbench: {} ({} cells, {} inputs), seed {}, {workers} workers",
        wl.name(),
        cells.len(),
        inputs.len(),
        args.seed
    );

    let mut m = Metrics::default();
    if args.trace {
        let plain = run_pass(&cells, &inputs, workers, false);
        check.check(&cells, &plain);
        let peak_rss_mb = exec::peak_rss_mb();
        let traced = run_pass(&cells, &inputs, 1, true);
        check.check(&cells, &traced);
        let warm = warm_pass(wl, &cells, &plain, workers, &mut check);
        layer_metrics(
            &mut m,
            &cells,
            &inputs,
            median(setup_s),
            &plain,
            &traced,
            &warm,
            workers,
            &check,
        );
        m.put("host.peak_rss_mb", peak_rss_mb, "MiB");
    } else {
        let start = Instant::now();
        let mut passes: Vec<Pass> = Vec::new();
        loop {
            let pass = run_pass(&cells, &inputs, workers, false);
            check.check(&cells, &pass);
            eprintln!(
                "perfbench: pass {}: {:.3} s wall, {:.3} s cpu",
                passes.len() + 1,
                pass.wall_s,
                pass.cpu_s()
            );
            passes.push(pass);
            if start.elapsed().as_secs_f64() >= args.seconds {
                break;
            }
        }
        m.put(
            "wall_s",
            median(passes.iter().map(|p| p.wall_s).collect()),
            "s",
        );
        m.put(
            "cpu_s",
            median(passes.iter().map(Pass::cpu_s).collect()),
            "s",
        );
        m.put("setup_s", median(setup_s), "s");
    }
    m.print(&check);
    check.failed == 0
}

/// What the warm pass measured.
#[derive(Default)]
struct Warm {
    write_ms: f64,
    bytes: u64,
    read_ms: f64,
    hits: u64,
    simulated: u64,
    render_ms: f64,
}

/// Writes the cold pass's outcomes into a private cache directory in the
/// layout `Driver` memoizes to, reads them back through
/// `Driver::execute`, and renders the workload's outputs from them.
fn warm_pass(
    wl: Workload,
    cells: &[RunSpec],
    cold: &Pass,
    workers: usize,
    check: &mut Checker,
) -> Warm {
    let dir = PathBuf::from(".perfbench_tmp").join(format!("cache-{}", std::process::id()));
    let mut warm = Warm::default();
    let result = exec::catch(|| -> Result<(), String> {
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let t = Instant::now();
        let mut cold_kv = HashMap::new();
        for (spec, run) in cells.iter().zip(&cold.runs) {
            let out = run.out.as_ref().map_err(|_| "a cold cell failed")?;
            let (key, kv) = (spec.cache_key(), out.to_kv(&spec.fingerprint()));
            let path = dir.join(format!("{key}.run"));
            std::fs::write(&path, &kv).map_err(|e| format!("write {}: {e}", path.display()))?;
            warm.bytes += kv.len() as u64;
            cold_kv.insert(key, kv);
        }
        warm.write_ms = t.elapsed().as_secs_f64() * 1e3;

        let driver = Driver::new(DriverOptions {
            jobs: workers,
            fresh: false,
            sanitize: false,
            cache_dir: Some(dir.clone()),
            quiet: true,
        });
        let t = Instant::now();
        let memo = driver.execute(&wl.requested());
        warm.read_ms = t.elapsed().as_secs_f64() * 1e3;
        let stats = driver.stats();
        warm.hits = stats.cache_hits as u64;
        warm.simulated = stats.simulated as u64;
        if stats.simulated != 0 {
            return Err(format!("{} cells re-simulated", stats.simulated));
        }
        for spec in cells {
            if memo.get(spec).to_kv(&spec.fingerprint()) != cold_kv[&spec.cache_key()] {
                return Err(format!("{} read back differently", spec.label()));
            }
        }

        let t = Instant::now();
        let text = wl.render(&memo);
        warm.render_ms = t.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(text);
        Ok(())
    });
    let removed = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".perfbench_tmp");
    check.step(
        "warm pass",
        result
            .unwrap_or_else(|panic| Err(format!("panicked: {panic}")))
            .and(removed.map_err(|e| format!("remove {}: {e}", dir.display()))),
    );
    warm
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    m: &mut Metrics,
    cells: &[RunSpec],
    inputs: &Inputs,
    setup_s: f64,
    plain: &Pass,
    traced: &Pass,
    warm: &Warm,
    workers: usize,
    check: &Checker,
) {
    let ms = |ns: u64| ns as f64 * 1e-6;
    let layer = |f: fn(&Layers) -> u64| traced.runs.iter().map(|r| f(&r.layers)).sum::<u64>();
    let sum = |f: fn(&RunOutcome) -> u64| traced.ok().map(f).sum::<u64>();
    let cell_ns: u64 = traced.runs.iter().map(|r| r.wall_ns).sum();
    let sim_ns = layer(|l| l.sim_ns);
    let cycles = sum(|o| o.report.cycles);
    let events = sum(|o| o.report.retired_events);
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };

    m.put("graph.gen_ms", setup_s * 1e3, "ms");
    m.count("graph.inputs", inputs.len() as u64);
    m.count(
        "graph.edges",
        inputs.values().map(|g| g.num_edges() as u64).sum(),
    );

    m.put("layout.build_ms", ms(layer(|l| l.build_ns)), "ms");
    m.count("layout.builds", layer(|l| l.builds));
    m.put("layout.cmh_probe_ms", ms(layer(|l| l.probe_ns)), "ms");
    let ratios: Vec<f64> = traced.ok().filter_map(|o| o.adjacency_ratio).collect();
    m.put(
        "compress.adjacency_ratio",
        ratio(ratios.iter().sum(), ratios.len() as f64),
        "ratio",
    );

    m.put("runtime.sim_ms", ms(sim_ns), "ms");
    m.put(
        "runtime.sim_share",
        ratio(sim_ns as f64, cell_ns as f64),
        "ratio",
    );
    m.count("runtime.iterations", sum(|o| o.stats.iterations as u64));
    m.count("runtime.edges", sum(|o| o.stats.edges));
    m.put(
        "runtime.bin_raw_bytes",
        sum(|o| o.stats.bin_raw_bytes) as f64,
        "B",
    );
    m.put(
        "runtime.bin_stored_bytes",
        sum(|o| o.stats.bin_stored_bytes) as f64,
        "B",
    );
    m.count("runtime.phi_coalesced", sum(|o| o.stats.phi_coalesced));
    m.count("runtime.phi_spilled", sum(|o| o.stats.phi_spilled));

    let stall = sum(|o| o.report.core_stall_cycles);
    let core_cycles: u64 = cells
        .iter()
        .zip(&traced.runs)
        .filter_map(|(s, r)| {
            Some(r.out.as_ref().ok()?.report.cycles * s.machine.config.mem.cores as u64)
        })
        .sum();
    m.put("sim.cycles", cycles as f64, "cycles");
    m.count("sim.retired_events", events);
    m.put("sim.core_stall_cycles", stall as f64, "cycles");
    m.put(
        "sim.core_stall_frac",
        ratio(stall as f64, core_cycles as f64),
        "ratio",
    );
    m.put(
        "sim.host_ns_per_cycle",
        ratio(sim_ns as f64, cycles as f64),
        "ns",
    );
    m.put(
        "sim.host_ns_per_event",
        ratio(sim_ns as f64, events as f64),
        "ns",
    );
    m.put("sim.finish_ms", ms(layer(|l| l.finish_ns)), "ms");

    let fetched = sum(|o| o.report.fetcher_fired);
    let compressed = sum(|o| o.report.compressor_fired);
    m.count("engine.fetcher_fired", fetched);
    m.count("engine.compressor_fired", compressed);
    m.put(
        "engine.fires_per_kcycle",
        ratio((fetched + compressed) as f64 * 1e3, cycles as f64),
        "1/kcycle",
    );

    let hits = sum(|o| o.report.llc.hits);
    let misses = sum(|o| o.report.llc.misses);
    m.count("mem.llc_hits", hits);
    m.count("mem.llc_misses", misses);
    m.count("mem.llc_evictions", sum(|o| o.report.llc.evictions));
    m.put(
        "mem.llc_miss_ratio",
        ratio(misses as f64, (hits + misses) as f64),
        "ratio",
    );
    m.put(
        "mem.dram_bytes",
        sum(|o| o.report.traffic.total_bytes()) as f64,
        "B",
    );
    for c in DataClass::all() {
        let read: u64 = traced.ok().map(|o| o.report.traffic.read_bytes(c)).sum();
        let write: u64 = traced.ok().map(|o| o.report.traffic.write_bytes(c)).sum();
        m.put(format!("mem.dram_read.{c}"), read as f64, "B");
        m.put(format!("mem.dram_write.{c}"), write as f64, "B");
    }
    let busy: f64 = traced
        .ok()
        .map(|o| o.report.dram_utilization * o.report.cycles as f64)
        .sum();
    m.put("mem.dram_utilization", ratio(busy, cycles as f64), "ratio");
    m.count("mem.invalidations", sum(|o| o.report.traffic.invalidations));
    m.count("mem.atomics", sum(|o| o.report.traffic.atomics));

    m.put("validate.ref_ms", ms(layer(|l| l.ref_ns)), "ms");
    m.count("validate.mismatches", check.mismatches);
    m.count("validate.deadlocks", check.deadlocks);
    m.count("validate.panics", check.panics);
    m.count("validate.digest_mismatches", check.digest_mismatches);
    m.put(
        "failed_frac",
        ratio(check.failed as f64, check.attempted as f64),
        "ratio",
    );

    m.put("cache.write_ms", warm.write_ms, "ms");
    m.put("cache.bytes", warm.bytes as f64, "B");
    m.put("cache.read_ms", warm.read_ms, "ms");
    m.count("cache.hits", warm.hits);
    m.count("cache.simulated", warm.simulated);
    m.put("render.ms", warm.render_ms, "ms");

    let plain_events: u64 = plain.ok().map(|o| o.report.retired_events).sum();
    m.put(
        "pool.events_per_cpu_s",
        plain_events as f64 / plain.cpu_s(),
        "1/s",
    );
    let mut cell_ms: Vec<f64> = plain.runs.iter().map(|r| r.wall_ns as f64 * 1e-6).collect();
    m.put("pool.cell_ms_p50", quantile(&mut cell_ms, 0.5), "ms");
    m.put("pool.cell_ms_p95", quantile(&mut cell_ms, 0.95), "ms");
    m.put(
        "pool.util",
        ratio(cell_ns as f64 * 1e-9, workers as f64 * plain.wall_s),
        "ratio",
    );
    m.put(
        "trace.overhead_frac",
        ratio(traced.cpu_s(), plain.cpu_s()) - 1.0,
        "ratio",
    );
}

/// A few good tiny cells plus one whose dataset does not exist and one
/// whose golden digest is wrong: both must fail, the rest must pass, and
/// the exit code must be 1.
fn must_fail() -> bool {
    let good: Vec<RunSpec> = Workload::TinyMatrix.cells().into_iter().take(3).collect();
    let inputs = setup(&good, RANDOMIZE_SEED);
    let mut cells = good;
    cells.push(RunSpec::new(
        AppName::Dc,
        "no-such-dataset",
        Scheme::Push.config(),
        Preprocessing::None,
        Scale::Tiny,
    ));
    let mut check = Checker::new(&cells, RANDOMIZE_SEED);
    check.expected[0] = Some("0000000000000000".to_string());
    let pass = run_pass(&cells, &inputs, workers(), false);
    check.check(&cells, &pass);
    let injected_only = check.failed == 2 && pass.runs[1..3].iter().all(|r| r.out.is_ok());
    eprintln!(
        "perfbench: must-fail arm: {} of {} cells failed ({})",
        check.failed,
        cells.len(),
        if injected_only {
            "exactly the two injected"
        } else {
            "NOT just the injected ones"
        }
    );
    let mut m = Metrics::default();
    m.put(
        "failed_frac",
        check.failed as f64 / check.attempted as f64,
        "ratio",
    );
    m.print(&check);
    check.failed == 0
}

/// Runs the workload once at the default seed and records each cell's
/// digest in `golden/digests.txt`, keeping other cells' entries.
fn write_golden(wl: Workload) -> bool {
    let cells = wl.cells();
    let inputs = setup(&cells, RANDOMIZE_SEED);
    let pass = run_pass(&cells, &inputs, workers(), false);
    let mut check = Checker {
        expected: vec![None; cells.len()],
        ..Checker::default()
    };
    check.check(&cells, &pass);
    if check.failed != 0 {
        eprintln!("perfbench: not writing digests of failed cells");
        return false;
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/digests.txt");
    let on_disk = std::fs::read_to_string(path).unwrap_or_default();
    let mut lines: BTreeMap<String, String> = on_disk
        .lines()
        .filter_map(|l| Some((l.split_whitespace().next()?.to_string(), l.to_string())))
        .collect();
    for ((spec, want), run) in cells.iter().zip(&check.expected).zip(&pass.runs) {
        let digest = want.as_ref().expect("every checked cell has a digest");
        eprintln!("  {:>9.1} ms  {}", run.wall_ns as f64 * 1e-6, spec.label());
        let key = spec.cache_key();
        lines.insert(key.clone(), format!("{key} {digest} {}", spec.label()));
    }
    let text: String = lines.into_values().map(|l| l + "\n").collect();
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!(
        "perfbench: wrote {} digests for {} to {path}",
        cells.len(),
        wl.name()
    );
    true
}

//! `sanitize-bench`: measures the compressed-trace sanitizer (footprint,
//! chunking, analysis wall-clock) over the builtin app x scheme cells
//! and maintains the `BENCH_sanitize.json` trajectory.
//!
//! ```text
//! sanitize-bench                             # measure, write BENCH_sanitize.json
//! sanitize-bench --out results/san.json      # measure, write elsewhere
//! sanitize-bench --measure-ms 20 --check BENCH_sanitize.json
//!                                            # CI gate: compression ratios may
//!                                            # not regress >20% below the
//!                                            # trajectory, and the largest cell
//!                                            # must keep its ≥4x residency win
//! sanitize-bench --format json --check BENCH_sanitize.json
//!                                            # same gate, shared JSON envelope
//! sanitize-bench --perturb-ratio 0.4 --check BENCH_sanitize.json
//!                                            # sanity check that the gate fires
//! ```
//!
//! Requires a binary built with `--features sanitize` (exit 2 otherwise —
//! the machinery is absent, not a verdict). Exit codes follow the shared
//! ladder: 0 pass, 1 failed gate, 2 unreadable input or a refused
//! argument; `--format json` emits the envelope
//! `dcl-lint`/`dcl-perf`/`codec-bench` share
//! ([`spzip_bench::cli::trajectory_json`]). The driver is shared with
//! `codec-bench` ([`spzip_bench::trajectory`]).

fn main() {
    spzip_bench::sanitize_bench::TRAJECTORY.main()
}

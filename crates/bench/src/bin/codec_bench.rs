//! `codec-bench`: measures codec encode/decode throughput and maintains
//! the `BENCH_codecs.json` perf trajectory.
//!
//! ```text
//! codec-bench                              # measure, write BENCH_codecs.json
//! codec-bench --out results/codecs.json    # measure, write elsewhere
//! codec-bench --measure-ms 60 --check BENCH_codecs.json
//!                                          # CI gate: short windows, compare
//!                                          # speedups against the trajectory
//! codec-bench --format json --check BENCH_codecs.json
//!                                          # same gate, shared JSON envelope
//! ```
//!
//! In `--check` mode nothing is written: the tool re-measures with the
//! given window, validates the checked-in file's schema, and fails if any
//! codec's kernel-over-reference decode speedup regressed more than 20%
//! below the trajectory, or if the trajectory itself is below a codec's
//! speedup floor (≥10× for BPC, ≥5× for delta). Exits 0 on success, 1 on
//! a failed gate, 2 when a file cannot be read or an argument is refused —
//! the `dcl-lint`/`dcl-perf` ladder, and `--format json` emits the same
//! envelope those tools share ([`spzip_bench::cli::trajectory_json`]). The
//! driver is shared with `sanitize-bench` ([`spzip_bench::trajectory`]).

fn main() {
    spzip_bench::codec_bench::TRAJECTORY.main()
}

//! `codec-sweep`: renders the codec × stream-kind × workload
//! characterization matrix behind `dcl-perf --suggest`.
//!
//! ```text
//! codec-sweep                               # nominal or BENCH_codecs.json rates
//! codec-sweep --rates results/codecs.json   # calibrate from another trajectory
//! codec-sweep --format json                 # machine-readable matrix
//! ```
//!
//! Every cell prices one codec on one workload stream with the same
//! calibrated flow model the suggestion pass uses; the starred cell per
//! row is the codec `--suggest` would pick for that stream. Exits 0 on
//! success, 2 when a rates file exists but cannot be parsed or an argument
//! is refused ([`spzip_bench::cli::SweepArgs`]).

use spzip_bench::cli::{parse_or_exit, OutputFormat, SweepArgs};
use spzip_bench::dcl_perf::load_rates;
use spzip_bench::suggest_sweep::{render, render_json, sweep};

fn main() {
    let args = parse_or_exit("codec-sweep", SweepArgs::USAGE, SweepArgs::parse);
    std::process::exit(run(&args));
}

fn run(args: &SweepArgs) -> i32 {
    let (rates, calibration) = match load_rates(&args.rates) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("codec-sweep: {e}");
            return 2;
        }
    };
    let rows = sweep(&rates);
    if args.format == OutputFormat::Json {
        print!("{}", render_json(&rows, &calibration));
    } else {
        print!("{}", render(&rows, &calibration));
    }
    0
}

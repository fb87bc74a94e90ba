//! Regenerates every table and figure in one process.
//!
//! Unions the cells of all requested outputs, deduplicates them, runs the
//! unique ones once on the parallel cached driver, then renders each
//! output to `results/<name>.txt`. A second invocation is all cache hits
//! and re-renders without simulating anything.
//!
//! `--only fig15ab,fig07` restricts the outputs (names as in
//! [`figures::all_outputs`]; the randomized and DFS-preprocessed variants
//! are separate outputs, e.g. `fig15ab`/`fig15cd`); the other flags are
//! documented on [`spzip_bench::cli::BenchAllArgs`].
//!
//! `--sanitize` (requires building with `--features sanitize`) runs every
//! cell under the SimSanitizer, bypassing the results cache, and exits
//! non-zero if any run reports a violation.
//!
//! Exits 2 when an argument is refused or an output cannot be written.

use spzip_bench::cli::{parse_or_exit, BenchAllArgs};
use spzip_bench::driver::Driver;
use spzip_bench::figures;
use std::fs;
use std::path::Path;

/// Reports an output that cannot be written and exits 2.
fn cannot_write(path: &Path, e: std::io::Error) -> ! {
    eprintln!("bench_all: cannot write {}: {e}", path.display());
    std::process::exit(2)
}

fn main() {
    let args = parse_or_exit("bench_all", BenchAllArgs::USAGE, BenchAllArgs::parse);
    if args.sanitize && !spzip_bench::sanitize_supported() {
        eprintln!(
            "error: --sanitize needs the SimSanitizer compiled in; rebuild with\n  \
             cargo run --release --features sanitize --bin bench_all -- --sanitize"
        );
        std::process::exit(2);
    }
    let outputs: Vec<_> = figures::all_outputs()
        .into_iter()
        .filter(|o| {
            args.only
                .as_ref()
                .is_none_or(|f| f.iter().any(|x| x.eq_ignore_ascii_case(o.name)))
        })
        .collect();
    if outputs.is_empty() {
        eprintln!("no outputs match --only; known outputs:");
        for o in figures::all_outputs() {
            eprintln!("  {}", o.name);
        }
        std::process::exit(1);
    }

    let mut cells = Vec::new();
    for o in &outputs {
        cells.extend((o.cells)(&args.sweep_with(o.preprocess)));
    }
    let driver = Driver::new(args.driver_options());
    let memo = driver.execute(&cells);

    fs::create_dir_all(&args.out_dir).unwrap_or_else(|e| cannot_write(&args.out_dir, e));
    for o in &outputs {
        let text = (o.render)(&args.sweep_with(o.preprocess), &memo);
        let path = args.out_dir.join(format!("{}.txt", o.name));
        fs::write(&path, &text).unwrap_or_else(|e| cannot_write(&path, e));
        println!("wrote {}", path.display());
    }
    let st = driver.stats();
    println!(
        "{} outputs; {} cells requested, {} unique, {} simulated, {} from cache",
        outputs.len(),
        st.requested,
        st.unique,
        st.simulated,
        st.cache_hits
    );
    if args.sanitize {
        let findings = driver.sanitize_findings();
        if findings.is_empty() {
            println!("sanitizer: {} run(s), all clean", st.sanitized);
        } else {
            let total: usize = findings.iter().map(|f| f.violations).sum();
            for f in &findings {
                eprintln!("sanitizer: {} ({} violation(s))", f.label, f.violations);
                eprint!("{}", f.rendered);
            }
            eprintln!(
                "sanitizer: {total} violation(s) across {} of {} run(s)",
                findings.len(),
                st.sanitized
            );
            std::process::exit(1);
        }
    }
}

//! Property-based differential test for the compressed-trace sanitizer:
//! for random scheme x graph x core-count layouts, the chunked analysis
//! over the codec-compressed trace must agree verdict-for-verdict with
//! the legacy flat-trace oracle, and the analysis must be deterministic —
//! re-encoding the trace reproduces its chunk bytes, and a second pass
//! yields the same statistics and the same report.
//!
//! Compiled only with the `sanitize` feature:
//! `cargo test -p spzip-bench --features sanitize --test proptest_sanitize`.
#![cfg(feature = "sanitize")]

use proptest::prelude::*;
use spzip_apps::run::run_app_sanitized;
use spzip_apps::{AppName, Scheme};
use spzip_graph::gen::{community, CommunityParams};
use spzip_mem::cache::{CacheConfig, Replacement};
use spzip_sim::ctrace::CTrace;
use spzip_sim::sanitize::{analyze, analyze_compressed_stats, render};
use spzip_sim::MachineConfig;
use std::sync::Arc;

fn arb_scheme() -> impl Strategy<Value = Scheme> {
    let schemes = Scheme::all();
    (0..schemes.len()).prop_map(move |i| schemes[i])
}

fn arb_app() -> impl Strategy<Value = AppName> {
    // Graph-input apps only; the matrix app needs a different generator
    // and adds nothing to trace-shape coverage.
    let apps: Vec<AppName> = AppName::all()
        .into_iter()
        .filter(|a| !a.is_matrix())
        .collect();
    (0..apps.len()).prop_map(move |i| apps[i])
}

proptest! {
    // Each case is a full sanitized simulation; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn compressed_verdicts_match_oracle_on_random_layouts(
        scheme in arb_scheme(),
        app in arb_app(),
        (n_log2, edge_factor, seed) in (7u32..9, 4usize..8, 0u64..1000),
        cores in 1usize..5,
    ) {
        let g = Arc::new(community(
            &CommunityParams::web_crawl(1 << n_log2, edge_factor),
            seed,
        ));
        let mut cfg = MachineConfig::paper_scaled();
        cfg.mem.cores = cores;
        cfg.mem.llc = CacheConfig::new(32 * 1024, 16, Replacement::Drrip);
        let (_, san) = run_app_sanitized(app, &g, &scheme.config(), cfg, None, false);

        // Verdict equivalence against the decoded oracle.
        let oracle = analyze(&san.trace.to_trace().expect("decodes"), &san.context);
        let (compressed, stats) = analyze_compressed_stats(&san.trace, &san.context);
        prop_assert_eq!(
            compressed.len(),
            oracle.len(),
            "{} under {:?} (cores={}): counts diverge\ncompressed:\n{}\noracle:\n{}",
            app, scheme, cores, render(&compressed), render(&oracle)
        );
        for (c, o) in compressed.iter().zip(&oracle) {
            prop_assert_eq!(c.code, o.code);
            prop_assert_eq!(&c.message, &o.message);
            prop_assert_eq!(&c.site, &o.site);
        }
        prop_assert_eq!(stats.events, san.trace.len());
        prop_assert_eq!(stats.integrity_violations, 0);

        // Determinism: re-encoding the decoded trace reproduces every
        // sealed chunk's bytes, and a second pass gives the same stats
        // and report.
        let events = san.trace.decode_all().expect("trace decodes");
        let rerun = CTrace::from_events(san.trace.cores, &events);
        let sealed: Vec<&[u8]> = san.trace.chunks().iter().map(|c| &c.bytes[..]).collect();
        let regrown: Vec<&[u8]> = rerun.chunks().iter().map(|c| &c.bytes[..]).collect();
        prop_assert_eq!(&regrown[..sealed.len()], &sealed[..]);
        let (again, stats2) = analyze_compressed_stats(&san.trace, &san.context);
        prop_assert_eq!(stats, stats2);
        prop_assert_eq!(again.len(), compressed.len());
    }
}

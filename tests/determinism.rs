//! The simulator must be fully deterministic: same inputs, same cycles,
//! same traffic, same results — across runs and independent of host state.

use spzip_apps::{run_app, AppName, Scheme};
use spzip_graph::gen::{community, CommunityParams};
use spzip_mem::cache::{CacheConfig, Replacement};
use spzip_sim::MachineConfig;

fn machine() -> MachineConfig {
    let mut cfg = MachineConfig::paper_scaled();
    cfg.mem.cores = 4;
    cfg.mem.llc = CacheConfig::new(32 * 1024, 16, Replacement::Drrip);
    cfg
}

#[test]
fn identical_runs_produce_identical_reports() {
    let g = std::sync::Arc::new(community(&CommunityParams::web_crawl(1 << 10, 8), 77));
    for scheme in [Scheme::Push, Scheme::UbSpzip, Scheme::PhiSpzip] {
        let a = run_app(AppName::Cc, &g, &scheme.config(), machine());
        let b = run_app(AppName::Cc, &g, &scheme.config(), machine());
        assert_eq!(a.report.cycles, b.report.cycles, "{scheme} cycles");
        assert_eq!(
            a.report.traffic.total_bytes(),
            b.report.traffic.total_bytes(),
            "{scheme} traffic"
        );
        assert_eq!(a.stats.edges, b.stats.edges, "{scheme} edges");
    }
}

/// Report fields pinned for CC on the 4-core graph above: `(scheme,
/// cycles, traffic bytes, fetcher firings, compressor firings, core stall
/// cycles, retired events)`. Comparing two runs of one build cannot catch
/// timing-model drift; these constants can. A change that is not meant to
/// alter results must leave every value as it is; one that is meant to
/// re-records them.
#[rustfmt::skip]
const PINNED_CC: [(Scheme, u64, u64, u64, u64, u64, u64); 4] = [
    (Scheme::Push, 119_696, 131_968, 0, 0, 270_733, 58_980),
    (Scheme::PushSpzip, 80_024, 49_984, 28_309, 0, 224_059, 56_938),
    (Scheme::UbSpzip, 52_680, 72_384, 18_089, 24_082, 5_311, 120_329),
    (Scheme::PhiSpzip, 27_984, 37_248, 14_814, 4_569, 4_518, 58_415),
];

#[test]
fn reports_match_pinned_values() {
    let g = std::sync::Arc::new(community(&CommunityParams::web_crawl(1 << 10, 8), 77));
    for (scheme, cycles, bytes, fetcher, compressor, stall, retired) in PINNED_CC {
        let r = run_app(AppName::Cc, &g, &scheme.config(), machine()).report;
        assert_eq!(
            (
                r.cycles,
                r.traffic.total_bytes(),
                r.fetcher_fired,
                r.compressor_fired,
                r.core_stall_cycles,
                r.retired_events
            ),
            (cycles, bytes, fetcher, compressor, stall, retired),
            "{scheme}: (cycles, traffic, fetcher, compressor, core stall, retired)"
        );
    }
}

#[test]
fn graph_generation_is_seed_stable() {
    // A golden fingerprint: if generator behaviour drifts, benchmark
    // numbers silently stop being comparable across revisions.
    let g = std::sync::Arc::new(community(&CommunityParams::web_crawl(1 << 10, 8), 77));
    let fingerprint: u64 = g
        .neighbors_flat()
        .iter()
        .fold(0u64, |acc, &d| acc.wrapping_mul(31).wrapping_add(d as u64));
    let g2 = community(&CommunityParams::web_crawl(1 << 10, 8), 77);
    let fingerprint2: u64 = g2
        .neighbors_flat()
        .iter()
        .fold(0u64, |acc, &d| acc.wrapping_mul(31).wrapping_add(d as u64));
    assert_eq!(fingerprint, fingerprint2);
}

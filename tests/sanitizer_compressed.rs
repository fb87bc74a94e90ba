//! Differential gate for the compressed-trace sanitizer: on every cell of
//! the app x scheme matrix, `analyze_compressed` over the codec-compressed
//! trace must emit a violation list identical — codes, messages, sites,
//! ordering — to the legacy `analyze` over the decoded flat trace, which
//! is kept as the oracle. The same equivalence must hold on tampered
//! traces (synchronization edges removed), and chunk-level corruption
//! (reordering, duplication) must surface as `S010` reports, never as a
//! panic or a silently wrong verdict.
//!
//! Compiled only with the `sanitize` feature:
//! `cargo test --features sanitize --test sanitizer_compressed`.
#![cfg(feature = "sanitize")]

use spzip_apps::run::run_app_sanitized;
use spzip_apps::{AppName, Scheme};
use spzip_graph::gen::{community, grid3d, CommunityParams};
use spzip_mem::cache::{CacheConfig, Replacement};
use spzip_sim::ctrace::CTrace;
use spzip_sim::sanitize::{
    analyze, analyze_compressed, analyze_compressed_stats, render, Code, RunContext, TraceEvent,
    Violation,
};
use spzip_sim::MachineConfig;
use std::sync::Arc;

fn tiny_machine() -> MachineConfig {
    let mut cfg = MachineConfig::paper_scaled();
    cfg.mem.cores = 4;
    cfg.mem.llc = CacheConfig::new(32 * 1024, 16, Replacement::Drrip);
    cfg
}

/// Asserts the compressed path and the legacy oracle agree exactly on
/// `trace`, and returns the (shared) verdict.
fn assert_identical_verdicts(trace: &CTrace, ctx: &RunContext, what: &str) -> Vec<Violation> {
    let oracle = analyze(&trace.to_trace().expect("trace decodes"), ctx);
    let compressed = analyze_compressed(trace, ctx);
    assert_eq!(
        compressed.len(),
        oracle.len(),
        "{what}: verdict counts diverge\ncompressed:\n{}\noracle:\n{}",
        render(&compressed),
        render(&oracle)
    );
    for (i, (c, o)) in compressed.iter().zip(&oracle).enumerate() {
        assert_eq!(c.code, o.code, "{what}: verdict {i} code diverges");
        assert_eq!(c.message, o.message, "{what}: verdict {i} message diverges");
        assert_eq!(c.site, o.site, "{what}: verdict {i} site diverges");
    }
    compressed
}

#[test]
fn compressed_verdicts_match_oracle_on_every_cell() {
    let g = Arc::new(community(&CommunityParams::web_crawl(512, 6), 23));
    let m = Arc::new(grid3d(6, 1, 3));
    for app in AppName::all() {
        let input = if app.is_matrix() { &m } else { &g };
        for scheme in Scheme::all() {
            let (out, san) =
                run_app_sanitized(app, input, &scheme.config(), tiny_machine(), None, false);
            assert!(
                out.validated,
                "{app} under {scheme} diverged from reference"
            );
            let what = format!("{app} under {scheme}");
            let verdicts = assert_identical_verdicts(&san.trace, &san.context, &what);
            assert!(verdicts.is_empty(), "{what}:\n{}", render(&verdicts));

            // Chunk analysis is deterministic: re-analyzing yields the
            // same statistics, and re-encoding the decoded events yields
            // the same chunk bytes.
            let (_, s1) = analyze_compressed_stats(&san.trace, &san.context);
            let (_, s2) = analyze_compressed_stats(&san.trace, &san.context);
            assert_eq!(s1, s2, "{what}: analysis stats not deterministic");
            let events = san.trace.decode_all().expect("trace decodes");
            let reencoded = CTrace::from_events(san.trace.cores, &events);
            let sealed: Vec<&[u8]> = san.trace.chunks().iter().map(|c| &c.bytes[..]).collect();
            let regrown: Vec<&[u8]> = reencoded.chunks().iter().map(|c| &c.bytes[..]).collect();
            assert_eq!(
                &regrown[..sealed.len()],
                &sealed[..],
                "{what}: re-encoding changed sealed chunk bytes"
            );
        }
    }
}

/// One clean sanitized run of PageRank under UB+SpZip — the cell both
/// tampered-trace regressions start from.
fn clean_ub_run() -> (CTrace, RunContext) {
    let g = Arc::new(community(&CommunityParams::web_crawl(512, 6), 23));
    let (_, san) = run_app_sanitized(
        AppName::Pr,
        &g,
        &Scheme::UbSpzip.config(),
        tiny_machine(),
        None,
        false,
    );
    assert!(san.clean(), "baseline must be clean:\n{}", san.render());
    (san.trace, san.context)
}

fn tamper(trace: &CTrace, keep: impl Fn(&TraceEvent) -> bool) -> CTrace {
    let mut events = trace.decode_all().expect("trace decodes");
    let before = events.len();
    events.retain(|e| keep(e));
    assert!(events.len() < before, "tampering must remove something");
    CTrace::from_events(trace.cores, &events)
}

#[test]
fn compressed_verdicts_match_oracle_on_tampered_traces() {
    let (trace, ctx) = clean_ub_run();

    // Regression 1: all drain and barrier edges removed — races appear.
    let no_sync = tamper(&trace, |e| {
        !matches!(e, TraceEvent::Drain { .. } | TraceEvent::Barrier { .. })
    });
    let v = assert_identical_verdicts(&no_sync, &ctx, "drains+barriers removed");
    assert!(
        v.iter()
            .any(|x| matches!(x.code, Code::WriteWriteRace | Code::ReadWriteRace)),
        "stripped sync edges must race:\n{}",
        render(&v)
    );

    // Regression 2: all pops removed — queue occupancy leaks.
    let no_pops = tamper(&trace, |e| !matches!(e, TraceEvent::Pop { .. }));
    let v = assert_identical_verdicts(&no_pops, &ctx, "pops removed");
    assert!(
        v.iter().any(|x| x.code == Code::QueueSlotLeak),
        "unpopped queues must leak:\n{}",
        render(&v)
    );
}

#[test]
fn reordered_chunks_are_reported_not_panicked() {
    let (trace, ctx) = clean_ub_run();
    assert!(
        trace.chunks().len() >= 2,
        "run too small to exercise chunk reordering"
    );
    let mut reordered = trace.clone();
    let last = reordered.chunks().len() - 1;
    reordered.chunks_mut().swap(0, last);
    let v = analyze_compressed(&reordered, &ctx);
    let integrity: Vec<_> = v
        .iter()
        .filter(|x| x.code == Code::TraceIntegrity)
        .collect();
    assert_eq!(
        integrity.len(),
        2,
        "both displaced chunks must be flagged:\n{}",
        render(&v)
    );
    assert!(
        integrity[0].message.contains("sequence number"),
        "{}",
        integrity[0].message
    );
    let rendered = render(&v);
    assert!(rendered.contains("error[S010]"), "{rendered}");
}

#[test]
fn duplicated_chunk_is_reported_not_panicked() {
    let (trace, ctx) = clean_ub_run();
    let mut duplicated = trace.clone();
    let dup = duplicated.chunks()[0].clone();
    duplicated.chunks_mut().insert(1, dup);
    let v = analyze_compressed(&duplicated, &ctx);
    assert!(
        v.iter().any(|x| x.code == Code::TraceIntegrity),
        "duplicated chunk must be flagged:\n{}",
        render(&v)
    );
}

#[test]
fn corrupted_chunk_payload_is_reported_not_panicked() {
    let (trace, ctx) = clean_ub_run();
    let mut corrupt = trace.clone();
    let b = &mut corrupt.chunks_mut()[0].bytes;
    let len = b.len();
    b.truncate(len / 2);
    let v = analyze_compressed(&corrupt, &ctx);
    assert!(
        v.iter()
            .any(|x| x.code == Code::TraceIntegrity && x.message.contains("failed to decode")),
        "undecodable chunk must be flagged:\n{}",
        render(&v)
    );
}

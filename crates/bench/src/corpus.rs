//! The seeded-gate harness shared by `dcl-lint`'s differential corpora
//! ([`crate::shape_corpus`], [`crate::liveness_corpus`],
//! [`crate::equiv_corpus`]).
//!
//! Each corpus builds one [`GateRow`] per entry: a *seeded* entry names
//! the diagnostic code its deliberate bug must trigger, a *control* entry
//! (`expected: None`) must come out clean, and both must be confirmed
//! dynamically by driving the pipeline. This module owns the pass rule,
//! the text and JSON reports, the gate's exit code, the quiet-panic
//! section corpora drive their expected panics in, and the small
//! workload and value helpers the corpora share.

use crate::cli::{json_envelope, OutputFormat, ToolCounts};
use spzip_apps::layout::Workload;
use spzip_apps::{Scheme, SchemeConfig};
use spzip_core::lint::Code;
use spzip_core::QueueItem;
use spzip_graph::gen::{community, CommunityParams};
use std::cell::Cell;
use std::fmt::Write as _;
use std::panic::{self, AssertUnwindSafe, PanicHookInfo};
use std::sync::{Arc, Mutex, PoisonError};

/// One corpus verdict: what the static pass said and what the dynamic
/// drive did.
#[derive(Debug)]
pub struct GateRow {
    /// Entry name (stable, used in CI output).
    pub name: String,
    /// The code a seeded entry must trigger; `None` for controls, which
    /// must come out clean.
    pub expected: Option<Code>,
    /// Codes the static pass reported.
    pub static_codes: Vec<Code>,
    /// Seeded entries: the dynamic drive observably misbehaved.
    /// Controls: the honest drive completed as expected.
    pub dynamic_confirmed: bool,
    /// A corpus-specific boolean reported as one more JSON key, after
    /// `dynamic_confirmed`; it does not affect [`passes`](Self::passes).
    pub extra: Option<(&'static str, bool)>,
    /// Short description of the dynamic observation.
    pub detail: String,
}

impl GateRow {
    /// Whether this row upholds the gate's contract.
    pub fn passes(&self) -> bool {
        match self.expected {
            Some(code) => self.static_codes.contains(&code) && self.dynamic_confirmed,
            None => self.static_codes.is_empty() && self.dynamic_confirmed,
        }
    }
}

/// Renders a corpus as text, one verdict per line, then a
/// `<title> corpus:` summary line. The name column is one wider than the
/// longest entry name.
pub fn render_text(title: &str, rows: &[GateRow]) -> String {
    let width = rows.iter().map(|r| r.name.len()).max().unwrap_or(0) + 1;
    let mut out = String::new();
    for r in rows {
        let codes: Vec<String> = r.static_codes.iter().map(|c| c.to_string()).collect();
        let _ = writeln!(
            out,
            "{:5} {:<width$} expect {:<6} static [{}] dynamic {} — {}",
            if r.passes() { "ok" } else { "FAIL" },
            r.name,
            r.expected.map_or("clean".to_string(), |c| c.to_string()),
            codes.join(","),
            if r.dynamic_confirmed {
                "confirmed"
            } else {
                "MISSED"
            },
            r.detail
        );
    }
    let failed = rows.iter().filter(|r| !r.passes()).count();
    let _ = writeln!(
        out,
        "{title} corpus: {} entr{} checked, {} failed",
        rows.len(),
        if rows.len() == 1 { "y" } else { "ies" },
        failed
    );
    out
}

/// Renders a corpus in the shared tool JSON envelope.
pub fn render_json(rows: &[GateRow]) -> String {
    let counts = ToolCounts {
        checked: rows.len(),
        errors: rows.iter().filter(|r| !r.passes()).count(),
        warnings: 0,
        io_errors: 0,
    };
    let pipelines: Vec<(String, String)> = rows
        .iter()
        .map(|r| {
            let codes: Vec<String> = r.static_codes.iter().map(|c| format!("\"{c}\"")).collect();
            let extra = r
                .extra
                .map_or(String::new(), |(key, v)| format!("\"{key}\":{v},"));
            let body = format!(
                "\"expected\":{},\"static_codes\":[{}],\"dynamic_confirmed\":{},{extra}\"pass\":{}",
                r.expected
                    .map_or("null".to_string(), |c| format!("\"{c}\"")),
                codes.join(","),
                r.dynamic_confirmed,
                r.passes()
            );
            (r.name.clone(), body)
        })
        .collect();
    json_envelope(&counts, &pipelines, &[])
}

/// Prints the report for `rows` and returns the gate's exit code: 0 iff
/// every seed is caught twice and every control is clean twice, else 1.
pub fn run_gate(title: &str, rows: &[GateRow], format: OutputFormat) -> i32 {
    match format {
        OutputFormat::Json => print!("{}", render_json(rows)),
        // Gate rows carry no per-diagnostic records; SARIF falls back to text.
        OutputFormat::Text | OutputFormat::Sarif => print!("{}", render_text(title, rows)),
    }
    i32::from(rows.iter().any(|r| !r.passes()))
}

// ---- quiet panics ------------------------------------------------------

type Hook = Box<dyn Fn(&PanicHookInfo<'_>) + Sync + Send + 'static>;

thread_local! {
    /// Quiet sections open on this thread.
    static QUIET_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Quiet sections open process-wide, and the hook they displaced.
static QUIET: Mutex<(usize, Option<Arc<Hook>>)> = Mutex::new((0, None));

/// Runs `f` with panics on *this thread* kept off stderr, so a corpus's
/// expected panics (memory guards, corrupt-stream decodes) stay out of
/// its report. Panics on other threads still reach the process hook.
///
/// The first open section swaps in a filtering hook that forwards to the
/// displaced one; the last to close puts the displaced hook back, so
/// overlapping sections on several threads, and a panicking `f`, all
/// leave the original hook in place.
pub fn quietly<R>(f: impl FnOnce() -> R) -> R {
    {
        let mut quiet = QUIET.lock().unwrap_or_else(PoisonError::into_inner);
        if quiet.0 == 0 {
            let prev = Arc::new(panic::take_hook());
            let forward = Arc::clone(&prev);
            panic::set_hook(Box::new(move |info| {
                if QUIET_DEPTH.try_with(Cell::get).unwrap_or(0) == 0 {
                    forward(info);
                }
            }));
            quiet.1 = Some(prev);
        }
        quiet.0 += 1;
    }
    QUIET_DEPTH.with(|d| d.set(d.get() + 1));
    let out = panic::catch_unwind(AssertUnwindSafe(f));
    QUIET_DEPTH.with(|d| d.set(d.get() - 1));
    {
        let mut quiet = QUIET.lock().unwrap_or_else(PoisonError::into_inner);
        quiet.0 -= 1;
        if quiet.0 == 0 {
            drop(panic::take_hook()); // the filter, and its handle on `prev`
            let prev = quiet.1.take().expect("the first section saved the hook");
            // If someone else took the filter and still holds it, `prev`
            // stays shared; forward to it instead.
            panic::set_hook(
                Arc::try_unwrap(prev).unwrap_or_else(|shared| Box::new(move |i| shared(i))),
            );
        }
    }
    out.unwrap_or_else(|payload| panic::resume_unwind(payload))
}

/// Runs `f`, reporting whether it panicked. Corpora call this inside
/// [`quietly`], so the expected panics print nothing.
pub fn panics<F: FnOnce()>(f: F) -> bool {
    panic::catch_unwind(AssertUnwindSafe(f)).is_err()
}

// ---- shared corpus helpers ---------------------------------------------

/// The UB+SpZip corpus workload (bins, compressed adjacency, compressed
/// vertex slices all present), all-active, small enough to drive in
/// milliseconds but large enough that every bounds margin is non-trivial.
pub fn workload() -> (Workload, SchemeConfig) {
    let cfg = Scheme::UbSpzip.config();
    let g = Arc::new(community(&CommunityParams::web_crawl(1 << 12, 8), 7));
    let w = Workload::build(g, &cfg, 2, 16 * 1024, true);
    (w, cfg)
}

/// The values of `items`, markers dropped.
pub fn values_of(items: &[QueueItem]) -> Vec<u64> {
    items
        .iter()
        .filter(|i| !i.is_marker())
        .map(|i| i.value())
        .collect()
}

/// A distinctive per-index pattern for filling u32 arrays and tables.
pub fn pattern(i: u64) -> u32 {
    (i as u32).wrapping_mul(2654435761) ^ 0xA5A5_0000
}

/// Test helper: asserts every row passes, naming the first that does not.
#[cfg(test)]
pub(crate) fn assert_gate_passes(rows: &[GateRow]) {
    for r in rows {
        assert!(
            r.passes(),
            "{}: expected {:?}, static {:?}, dynamic confirmed: {} ({})",
            r.name,
            r.expected,
            r.static_codes,
            r.dynamic_confirmed,
            r.detail
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<GateRow> {
        vec![
            GateRow {
                name: "caught-seed".into(),
                expected: Some(Code::B003),
                static_codes: vec![Code::B003],
                dynamic_confirmed: true,
                extra: None,
                detail: "seen twice".into(),
            },
            GateRow {
                name: "escaped".into(),
                expected: Some(Code::V002),
                static_codes: vec![],
                dynamic_confirmed: true,
                extra: None,
                detail: "static miss".into(),
            },
            GateRow {
                name: "control".into(),
                expected: None,
                static_codes: vec![],
                dynamic_confirmed: false,
                extra: Some(("queue_lint_clean", true)),
                detail: "drive wedged".into(),
            },
        ]
    }

    #[test]
    fn text_pads_names_to_the_longest_plus_one() {
        let text = render_text("demo", &rows());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            [
                "ok    caught-seed  expect B003   static [B003] dynamic confirmed — seen twice",
                "FAIL  escaped      expect V002   static [] dynamic confirmed — static miss",
                "FAIL  control      expect clean  static [] dynamic MISSED — drive wedged",
                "demo corpus: 3 entries checked, 2 failed",
            ]
        );
        let one = render_text("solo", &rows()[..1]);
        assert_eq!(
            one,
            "ok    caught-seed  expect B003   static [B003] dynamic confirmed — seen twice\n\
             solo corpus: 1 entry checked, 0 failed\n"
        );
    }

    #[test]
    fn json_carries_the_envelope_and_extra_keys() {
        let json = render_json(&rows());
        assert_eq!(
            json,
            "{\"checked\":3,\"errors\":2,\"warnings\":0,\"io_errors\":0,\"pipelines\":[\n\
             {\"name\":\"caught-seed\",\"expected\":\"B003\",\"static_codes\":[\"B003\"],\
             \"dynamic_confirmed\":true,\"pass\":true},\n\
             {\"name\":\"escaped\",\"expected\":\"V002\",\"static_codes\":[],\
             \"dynamic_confirmed\":true,\"pass\":false},\n\
             {\"name\":\"control\",\"expected\":null,\"static_codes\":[],\
             \"dynamic_confirmed\":false,\"queue_lint_clean\":true,\"pass\":false}],\
             \"failures\":[]}\n"
        );
    }

    #[test]
    fn exit_code_is_one_iff_any_row_fails() {
        let all = rows();
        assert_eq!(run_gate("demo", &all[..1], OutputFormat::Text), 0);
        assert_eq!(run_gate("demo", &all, OutputFormat::Json), 1);
        assert_eq!(run_gate("demo", &all[2..], OutputFormat::Sarif), 1);
        assert_eq!(run_gate("demo", &[], OutputFormat::Text), 0);
    }
}

//! The `dcl-perf` tool: static traffic/throughput analysis over `.dcl`
//! text files and every built-in application pipeline.
//!
//! File mode parses each path against the same synthetic symbol table as
//! `dcl-lint`, then runs [`spzip_core::perf::analyze`]: the analytical
//! footprint/critical-path model that predicts per-class bytes per
//! delivered element, the steady-state cycles-per-element, and the
//! binding resource (DRAM bandwidth, an operator's service rate, or a
//! scaled-down queue). Model findings surface as stable `P0xx`
//! diagnostics through the shared [`spzip_core::lint`] machinery, so
//! `--format json` emits the exact diagnostic records `dcl-lint` does.
//!
//! `--crosscheck` instead runs the model-vs-simulator gate in
//! [`crate::crosscheck`]: predicted per-class traffic against simulated
//! [`TrafficStats`](spzip_mem::stats::TrafficStats) over the built-in cell
//! matrix. `--auto-gate` runs that module's auto-vs-default codec
//! selection gate.
//!
//! `--suggest` runs the static codec-selection pass
//! ([`spzip_core::suggest`]) instead of the perf report: per pipeline,
//! `A0xx` advisories plus a machine-readable rewiring plan, calibrated by
//! the measured kernel rates in `BENCH_codecs.json` (`--rates` overrides
//! the path; a missing file falls back to the nominal table and says so).
//! Advisories deliberately never affect the exit code — not even under
//! `--deny-warnings` — so the counters separate them from true warnings;
//! only parse failures and unreadable inputs fail a suggest run.
//!
//! Exit codes mirror `dcl-lint`: 0 clean (warnings allowed unless
//! `--deny-warnings`), 1 when any diagnostic — or any cross-check cell —
//! fails the run, 2 when the tool could not do its job.

use crate::cli::{OutputFormat, PerfArgs};
use crate::dcl_lint::synthetic_symbols;
use spzip_core::lint::{self, Code, Severity};
use spzip_core::parser;
use spzip_core::perf::{analyze, BindingResource, PerfInput, PerfParams, PerfReport};
use spzip_core::suggest::{suggest, SuggestInput, SuggestReport};
use std::fmt::Write as _;
use std::path::Path;

/// Short per-class labels, in [`spzip_mem::DataClass::index`] order.
pub const CLASS_LABELS: [&str; 6] = ["Adj", "Src", "Dst", "Upd", "Fro", "Oth"];

/// Outcome of analyzing one batch of pipelines.
#[derive(Debug, Default)]
pub struct PerfToolReport {
    /// Pipelines (or files) examined.
    pub checked: usize,
    /// Error-severity diagnostics plus parse failures.
    pub errors: usize,
    /// Warning-severity diagnostics.
    pub warnings: usize,
    /// Files the tool could not read (exit code 2, not a model verdict).
    pub io_errors: usize,
    /// Human-readable report.
    pub output: String,
    /// Per-pipeline analysis results, kept for `--format json`.
    pub results: Vec<(String, PerfReport)>,
    /// Parse/read failures with no structured diagnostic (name, error).
    pub failures: Vec<(String, String)>,
}

/// Renders the binding resource as a short stable token.
pub fn binding_label(b: &BindingResource) -> String {
    match b {
        BindingResource::DramBandwidth => "dram-bandwidth".to_string(),
        BindingResource::OperatorService(i) => format!("operator-service({i})"),
        BindingResource::QueueCapacity(q) => format!("queue-capacity(q{q})"),
    }
}

impl PerfToolReport {
    fn absorb(&mut self, name: &str, report: PerfReport) {
        self.checked += 1;
        let errors = report
            .diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Error)
            .count();
        self.errors += errors;
        self.warnings += report.diagnostics.len() - errors;
        let elems = report.delivered_elems.max(1.0);
        let summary = format!(
            "{} bound, {:.2} cycles/elem, {:.1} B/elem",
            binding_label(&report.binding),
            report.cycles_per_unit() / elems,
            report.total_bytes() / elems
        );
        if report.diagnostics.is_empty() {
            let _ = writeln!(self.output, "{name}: clean ({summary})");
        } else {
            let _ = writeln!(self.output, "{name}: {summary}");
            self.output.push_str(&lint::render(&report.diagnostics));
        }
        self.results.push((name.to_string(), report));
    }
}

impl PerfToolReport {
    /// The report's summary counters in the shared tool shape.
    pub fn counts(&self) -> crate::cli::ToolCounts {
        crate::cli::ToolCounts {
            checked: self.checked,
            errors: self.errors,
            warnings: self.warnings,
            io_errors: self.io_errors,
        }
    }
}

/// Renders a report as one JSON object: the shared
/// [`crate::cli::json_envelope`] wrapper, with keys matching
/// `dcl-lint --format json` (`checked`/`errors`/`warnings`/`io_errors`/
/// `pipelines`/`failures`); each pipeline additionally carries the model
/// summary, and its `diagnostics` array is rendered by
/// [`lint::render_json`] — byte-identical records across both tools.
pub fn render_json_report(report: &PerfToolReport) -> String {
    let fmt_array = |a: &[f64; 6]| {
        let vals: Vec<String> = a.iter().map(|v| format!("{v:.1}")).collect();
        format!("[{}]", vals.join(","))
    };
    let pipelines: Vec<(String, String)> = report
        .results
        .iter()
        .map(|(name, r)| {
            let body = format!(
                "\"binding\":\"{}\",\"delivered_elems\":{:.1},\
                 \"cycles_per_element\":{:.4},\"service_cycles\":{:.1},\"dram_cycles\":{:.1},\
                 \"read_bytes\":{},\"write_bytes\":{},\"diagnostics\":{}",
                binding_label(&r.binding),
                r.delivered_elems,
                r.cycles_per_unit() / r.delivered_elems.max(1.0),
                r.service_cycles,
                r.dram_cycles,
                fmt_array(&r.read_bytes),
                fmt_array(&r.write_bytes),
                lint::render_json(&r.diagnostics).trim_end()
            );
            (name.clone(), body)
        })
        .collect();
    crate::cli::json_envelope(&report.counts(), &pipelines, &report.failures)
}

/// Analyzes one `.dcl` program text under `name`.
pub fn perf_text(name: &str, text: &str, report: &mut PerfToolReport) {
    let symbols = synthetic_symbols(text);
    match parser::parse(text, &symbols) {
        Ok(p) => report.absorb(name, analyze(&PerfInput::new(&p))),
        Err(e) => {
            report.checked += 1;
            report.errors += 1;
            let _ = writeln!(report.output, "{name}: {e}");
            report.failures.push((name.to_string(), e.to_string()));
        }
    }
}

/// Analyzes every built-in application pipeline (all workloads x schemes).
pub fn perf_builtins(report: &mut PerfToolReport) {
    for (name, p) in spzip_apps::pipelines::all_builtin() {
        report.absorb(&name, analyze(&PerfInput::new(&p)));
    }
}

// ---------------------------------------------------------------------------
// --suggest: static codec selection
// ---------------------------------------------------------------------------

/// Outcome of the codec-selection pass over one batch of pipelines.
#[derive(Debug, Default)]
pub struct SuggestToolReport {
    /// Pipelines (or files) examined.
    pub checked: usize,
    /// Parse failures (these *do* fail the run).
    pub errors: usize,
    /// Files the tool could not read.
    pub io_errors: usize,
    /// `A0xx` advisories emitted (never affect the exit code).
    pub advisories: usize,
    /// Pipelines with a non-empty rewiring plan.
    pub planned: usize,
    /// `A003` suppressions (verifier-rejected suggestions).
    pub suppressed: usize,
    /// Human-readable report.
    pub output: String,
    /// Per-pipeline selection results, kept for `--format json`.
    pub results: Vec<(String, SuggestReport)>,
    /// Parse/read failures with no structured diagnostic (name, error).
    pub failures: Vec<(String, String)>,
}

impl SuggestToolReport {
    fn absorb(&mut self, name: &str, report: SuggestReport) {
        self.checked += 1;
        self.advisories += report.diagnostics.len();
        self.suppressed += report
            .diagnostics
            .iter()
            .filter(|d| d.code == Code::A003)
            .count();
        if report.plan.is_empty() {
            let _ = writeln!(
                self.output,
                "{name}: clean ({} transform(s) already best)",
                report.transforms
            );
        } else {
            self.planned += 1;
            let gain = 100.0 * (report.baseline_metric - report.auto_metric)
                / report.baseline_metric.max(f64::MIN_POSITIVE);
            let _ = writeln!(
                self.output,
                "{name}: {} advisory(ies), auto plan predicted {gain:.0}% faster",
                report.diagnostics.len()
            );
            self.output.push_str(&lint::render(&report.diagnostics));
            let _ = writeln!(self.output, "  plan: {}", report.plan_json());
        }
        self.results.push((name.to_string(), report));
    }

    /// The failure-relevant counters: advisories are deliberately *not*
    /// warnings here, so `--deny-warnings` cannot promote them.
    pub fn counts(&self) -> crate::cli::ToolCounts {
        crate::cli::ToolCounts {
            checked: self.checked,
            errors: self.errors,
            warnings: 0,
            io_errors: self.io_errors,
        }
    }
}

/// Loads the rate calibration for `--suggest`: the checked-in trajectory
/// when present (validated against the current schema), the nominal table
/// when the file is missing. Returns the table plus a human-readable
/// description of which calibration applies, or an error when the file
/// exists but cannot be trusted.
pub fn load_rates(path: &Path) -> Result<(spzip_compress::model::RateTable, String), String> {
    match std::fs::read_to_string(path) {
        Ok(text) => {
            let report = crate::codec_bench::BenchReport::from_json(&text)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            Ok((
                report.rate_table(),
                format!("{} (measured kernel rates)", path.display()),
            ))
        }
        Err(_) => Ok((
            spzip_compress::model::RateTable::nominal(),
            format!("nominal ({} not found)", path.display()),
        )),
    }
}

/// Renders a suggest report as the shared [`crate::cli::json_envelope`];
/// each pipeline's body carries the selection summary, the machine-
/// readable plan, and the `A0xx` diagnostics in the `dcl-lint` record
/// shape.
pub fn render_suggest_json(report: &SuggestToolReport) -> String {
    let pipelines: Vec<(String, String)> = report
        .results
        .iter()
        .map(|(name, r)| {
            let body = format!(
                "\"transforms\":{},\"advisories\":{},\"baseline_metric\":{:.4},\
                 \"auto_metric\":{:.4},\"plan\":{},\"diagnostics\":{}",
                r.transforms,
                r.diagnostics.len(),
                r.baseline_metric,
                r.auto_metric,
                r.plan_json(),
                lint::render_json(&r.diagnostics).trim_end()
            );
            (name.clone(), body)
        })
        .collect();
    crate::cli::json_envelope(&report.counts(), &pipelines, &report.failures)
}

/// Runs the codec-selection pass over files and/or builtins.
pub fn run_suggest(args: &PerfArgs) -> i32 {
    let (table, calibration) = match load_rates(&args.rates) {
        Ok(ok) => ok,
        Err(e) => {
            eprintln!("dcl-perf: --suggest: {e}");
            return 2;
        }
    };
    let params = PerfParams {
        rates: table,
        ..PerfParams::default()
    };
    let mut report = SuggestToolReport::default();
    for path in &args.paths {
        match std::fs::read_to_string(path) {
            Ok(text) => {
                let name = path.display().to_string();
                let symbols = synthetic_symbols(&text);
                match parser::parse(&text, &symbols) {
                    Ok(p) => {
                        let mut input = SuggestInput::new(&p);
                        input.params = params.clone();
                        report.absorb(&name, suggest(&input));
                    }
                    Err(e) => {
                        report.checked += 1;
                        report.errors += 1;
                        let _ = writeln!(report.output, "{name}: {e}");
                        report.failures.push((name, e.to_string()));
                    }
                }
            }
            Err(e) => {
                report.checked += 1;
                report.io_errors += 1;
                let _ = writeln!(report.output, "{}: {e}", path.display());
                report
                    .failures
                    .push((path.display().to_string(), e.to_string()));
            }
        }
    }
    if args.all_builtin {
        for (name, p, schema) in spzip_apps::pipelines::all_builtin_checked() {
            let mut input = SuggestInput::with_schema(&p, &schema);
            input.params = params.clone();
            report.absorb(&name, suggest(&input));
        }
    }
    if report.checked == 0 {
        println!(
            "usage: dcl-perf --suggest [--all-builtin] [--rates FILE] \
             [--format text|json|sarif] [file.dcl ...]"
        );
        return 2;
    }
    match args.format {
        OutputFormat::Json => print!("{}", render_suggest_json(&report)),
        OutputFormat::Sarif => {
            let results: Vec<(String, Vec<lint::Diagnostic>)> = report
                .results
                .iter()
                .map(|(name, r)| (name.clone(), r.diagnostics.clone()))
                .collect();
            print!(
                "{}",
                crate::cli::sarif_report("dcl-perf", &results, &report.failures)
            );
        }
        OutputFormat::Text => {
            let trailer = format!(
                "checked {} pipeline(s): {} advisory(ies), {} plan(s), {} suppressed",
                report.checked, report.advisories, report.planned, report.suppressed
            );
            println!("calibration: {calibration}");
            print!("{}", report.output);
            println!("{trailer}");
        }
    }
    crate::cli::tool_exit_code(&report.counts(), false)
}

/// Runs the tool over parsed arguments; returns the process exit code.
pub fn run(args: &PerfArgs) -> i32 {
    if args.crosscheck {
        return crate::crosscheck::run_gate(args.perturb_ratio, args.format);
    }
    if args.auto_gate {
        return crate::crosscheck::run_auto_gate(args.perturb_ratio, args.format);
    }
    if args.suggest {
        return run_suggest(args);
    }
    let mut report = PerfToolReport::default();
    for path in &args.paths {
        match std::fs::read_to_string(path) {
            Ok(text) => perf_text(&path.display().to_string(), &text, &mut report),
            Err(e) => {
                report.checked += 1;
                report.io_errors += 1;
                let _ = writeln!(report.output, "{}: {e}", path.display());
                report
                    .failures
                    .push((path.display().to_string(), e.to_string()));
            }
        }
    }
    if args.all_builtin {
        perf_builtins(&mut report);
    }
    if report.checked == 0 {
        println!("{}", PerfArgs::USAGE);
        return 2;
    }
    match args.format {
        OutputFormat::Json => print!("{}", render_json_report(&report)),
        OutputFormat::Sarif => {
            let results: Vec<(String, Vec<lint::Diagnostic>)> = report
                .results
                .iter()
                .map(|(name, r)| (name.clone(), r.diagnostics.clone()))
                .collect();
            print!(
                "{}",
                crate::cli::sarif_report("dcl-perf", &results, &report.failures)
            );
        }
        OutputFormat::Text => {
            let _ = writeln!(
                report.output,
                // Same trailing-summary shape as dcl-lint ("checked N
                // pipeline(s): ..."), so batch consumers parse one format.
                "checked {} pipeline(s): {} error(s), {} warning(s){}",
                report.checked,
                report.errors,
                report.warnings,
                if report.io_errors > 0 {
                    format!(", {} unreadable", report.io_errors)
                } else {
                    String::new()
                }
            );
            print!("{}", report.output);
        }
    }
    exit_code(&report, args.deny_warnings)
}

/// The process exit code for `report`: the shared
/// [`crate::cli::tool_exit_code`] ladder — same as `dcl-lint`.
pub fn exit_code(report: &PerfToolReport, deny_warnings: bool) -> i32 {
    crate::cli::tool_exit_code(&report.counts(), deny_warnings)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRAVERSAL: &str = "
        queue input 16
        queue offs 32
        queue rows 64
        range input -> offs base=offsets idx=8 elem=8 mode=pairs class=adj
        range offs -> rows base=rows idx=8 elem=4 mode=consecutive marker=0 class=adj
    ";

    #[test]
    fn clean_file_reports_summary() {
        let mut r = PerfToolReport::default();
        perf_text("fig2", TRAVERSAL, &mut r);
        assert_eq!((r.checked, r.errors, r.warnings), (1, 0, 0), "{}", r.output);
        assert!(r.output.contains("fig2: clean"), "{}", r.output);
        assert!(r.output.contains("dram-bandwidth bound"), "{}", r.output);
    }

    #[test]
    fn parse_failure_is_an_error() {
        let mut r = PerfToolReport::default();
        perf_text("broken", "queue a", &mut r);
        assert_eq!((r.checked, r.errors), (1, 1), "{}", r.output);
        assert_eq!(r.failures.len(), 1);
        assert_eq!(exit_code(&r, false), 1);
    }

    #[test]
    fn builtins_analyze_p_clean() {
        let mut r = PerfToolReport::default();
        perf_builtins(&mut r);
        assert!(r.checked >= 40, "{}", r.checked);
        assert_eq!((r.errors, r.warnings), (0, 0), "{}", r.output);
        assert_eq!(exit_code(&r, true), 0, "clean under --deny-warnings");
    }

    #[test]
    fn json_report_shares_diagnostic_shape_with_lint() {
        let mut r = PerfToolReport::default();
        perf_text("fig2", TRAVERSAL, &mut r);
        let json = render_json_report(&r);
        assert!(json.contains("\"checked\":1"), "{json}");
        assert!(json.contains("\"binding\":\"dram-bandwidth\""), "{json}");
        assert!(json.contains("\"cycles_per_element\":"), "{json}");
        assert!(json.contains("\"diagnostics\":[]"), "{json}");

        // A pipeline with a P-finding embeds the same record fields
        // dcl-lint's JSON uses (code/severity/site/line/message/hint).
        let mut warny = PerfToolReport::default();
        warny.absorb("tiny", {
            let symbols = synthetic_symbols(TRAVERSAL);
            let p = parser::parse(TRAVERSAL, &symbols).unwrap();
            let mut input = PerfInput::new(&p);
            input.default_range_elems = 1.0;
            analyze(&input)
        });
        let wjson = render_json_report(&warny);
        assert!(wjson.contains("\"code\":\"P003\""), "{wjson}");
        assert!(wjson.contains("\"severity\":\"warning\""), "{wjson}");
        assert!(wjson.contains("\"hint\":"), "{wjson}");
    }

    #[test]
    fn suggest_covers_every_builtin() {
        // The acceptance surface of `dcl-perf --suggest --all-builtin`:
        // all 72 builtins run through the pass, each gets a summary line,
        // advisories are counted, and nothing counts as a failure.
        let params = PerfParams::default();
        let mut report = SuggestToolReport::default();
        for (name, p, schema) in spzip_apps::pipelines::all_builtin_checked() {
            let mut input = SuggestInput::with_schema(&p, &schema);
            input.params = params.clone();
            report.absorb(&name, suggest(&input));
        }
        assert!(report.checked >= 40, "{}", report.checked);
        assert!(
            report.advisories > 0,
            "enumeration should surface advisories"
        );
        assert!(report.planned > 0);
        assert!(report.output.lines().count() >= report.checked);
        assert_eq!(
            crate::cli::tool_exit_code(&report.counts(), true),
            0,
            "advisories never fail, even under --deny-warnings"
        );
    }

    #[test]
    fn suggest_json_shares_the_envelope() {
        let mut report = SuggestToolReport::default();
        let (name, p, schema) = spzip_apps::pipelines::all_builtin_checked().remove(0);
        report.absorb(&name, suggest(&SuggestInput::with_schema(&p, &schema)));
        let json = render_suggest_json(&report);
        assert!(json.contains("\"checked\":1"), "{json}");
        assert!(json.contains("\"warnings\":0"), "{json}");
        assert!(json.contains("\"transforms\":"), "{json}");
        assert!(json.contains("\"plan\":["), "{json}");
        assert!(json.contains("\"diagnostics\":["), "{json}");
    }

    #[test]
    fn load_rates_calibrates_or_falls_back() {
        use spzip_compress::CodecKind;
        // Missing file: nominal, stated as such.
        let (table, desc) = load_rates(Path::new("/nonexistent/traj.json")).unwrap();
        assert!(desc.starts_with("nominal"), "{desc}");
        for kind in CodecKind::all() {
            assert_eq!(table.decode_scale(kind), 1.0);
        }
        // The checked-in trajectory: parses, yields a non-nominal table
        // (software kernels genuinely differ in rate).
        let repo_traj = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_codecs.json");
        let (table, desc) = load_rates(&repo_traj).unwrap();
        assert!(desc.contains("measured"), "{desc}");
        assert!(
            CodecKind::all()
                .into_iter()
                .any(|k| table.decode_scale(k) < 1.0),
            "calibrated table should handicap the slower codecs"
        );
        // A malformed file is an error, not a silent fallback.
        let dir = std::env::temp_dir().join("spzip_suggest_rates_test");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{\"schema\":\"other/v1\"}").unwrap();
        assert!(load_rates(&bad).is_err());
    }

    #[test]
    fn perf_trailing_summary_matches_lint_wording() {
        // Satellite of the suggest work: dcl-perf's batch trailer uses
        // the same "checked N pipeline(s)" shape as dcl-lint. The line is
        // built in run(); this pins the absorb-side output it wraps.
        let mut r = PerfToolReport::default();
        perf_text("fig2", TRAVERSAL, &mut r);
        assert!(r.output.contains("fig2: clean"), "{}", r.output);
    }

    #[test]
    fn binding_labels_are_stable() {
        assert_eq!(
            binding_label(&BindingResource::DramBandwidth),
            "dram-bandwidth"
        );
        assert_eq!(
            binding_label(&BindingResource::OperatorService(3)),
            "operator-service(3)"
        );
        assert_eq!(
            binding_label(&BindingResource::QueueCapacity(2)),
            "queue-capacity(q2)"
        );
    }
}

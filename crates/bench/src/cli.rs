//! The one flag parser every benchmark binary shares.
//!
//! Flags (all optional, unknown flags are ignored for compatibility):
//!
//! * `--scale tiny|bench|large` — input generation scale (default bench).
//! * `--apps PR,BFS` / `--inputs arb,ukl` — restrict sweep figures.
//! * `--jobs N` — worker threads for cache misses (default: all cores).
//! * `--fresh` — ignore memoized outcomes and re-simulate everything.
//! * `--sanitize` — run every cell under the SimSanitizer (requires the
//!   `sanitize` feature; sanitized runs bypass the results cache).
//! * `--cache-dir DIR` — memoization directory (default `results/cache`).
//! * `--out-dir DIR` — where `bench_all` writes figure text (default
//!   `results`).
//! * `--only fig15ab,fig07` — restrict `bench_all` to named outputs.
//! * `--all-builtin` — `dcl-lint`/`dcl-perf`: also analyze every
//!   built-in app pipeline.
//! * `--dot` — `dcl-lint`: print each linted pipeline as Graphviz dot
//!   (builtin pipelines annotate edges with the inferred shape domain).
//! * `--no-shape` — `dcl-lint`: skip the shape-and-bounds verifier
//!   ([`spzip_core::shape`]) that builtin linting runs by default.
//! * `--shape-corpus` — `dcl-lint`: run the seeded-miswiring differential
//!   gate (static B-code vs. dynamic functional-engine confirmation).
//! * `--no-liveness` — `dcl-lint`: skip the liveness model checker
//!   ([`spzip_core::liveness`]) that builtin linting runs by default.
//! * `--liveness-corpus` — `dcl-lint`: run the seeded cross-queue
//!   deadlock differential gate (static D-code vs. dynamic machine
//!   watchdog confirmation via counterexample replay).
//! * `--equiv` — `dcl-lint`: certify every builtin pipeline against its
//!   auto-codec rewiring with the translation validator
//!   ([`spzip_core::equiv`]), plus every codec's kernel-vs-reference
//!   binding (cross-roundtrip bit-identity).
//! * `--equiv-corpus` — `dcl-lint`: run the seeded semantics-breaking
//!   rewrite differential gate (static V-code vs. divergent
//!   functional-engine output confirmation).
//! * `--explain CODE` — `dcl-lint`: print the registry entry (summary,
//!   why it matters, how to fix) for any diagnostic code
//!   (`E`/`W`/`B`/`P`/`A`/`S`/`D`/`V`).
//! * `--deny-warnings` — `dcl-lint`/`dcl-perf`: exit non-zero on
//!   warnings too.
//! * `--format text|json|sarif` — `dcl-lint`/`dcl-perf`: report format
//!   (default text; both tools share the JSON diagnostic shape, and
//!   `sarif` renders the same records as a SARIF 2.1.0 log for CI
//!   annotation; gate modes without per-diagnostic records fall back to
//!   text).
//! * `--crosscheck` — `dcl-perf`: run the model-vs-simulator traffic
//!   gate over the built-in cell matrix.
//! * `--perturb-ratio X` — `dcl-perf --crosscheck`/`--auto-gate`: scale
//!   every codec-derived byte prediction by `X` (sanity check that the
//!   gates catch a mis-modeled codec; `1.0` is the honest model). For
//!   `dcl-lint --liveness-corpus`, `X < 1` instead shrinks the liveness
//!   drive protocol's per-group budgets (a too-shallow checker must
//!   fail the gate); for `dcl-lint --equiv-corpus`, any `X` but `1.0`
//!   swaps in the shallow sink-set comparator.
//! * `--suggest` — `dcl-perf`: run the static codec-selection pass
//!   ([`spzip_core::suggest`]) instead of the perf report; emits `A0xx`
//!   advisories plus a machine-readable rewiring plan. Advisories never
//!   affect the exit code.
//! * `--rates FILE` — `dcl-perf --suggest`: trajectory file for the rate
//!   calibration (default `BENCH_codecs.json`; missing file falls back
//!   to the nominal table, stated in the report header).
//! * `--auto-gate` — `dcl-perf`: simulate auto-selected vs paper-default
//!   pipelines over the built-in cell matrix and fail unless auto wins
//!   or ties every cell.
//!
//! Positional arguments (paths for `dcl-lint`) are collected separately.

use crate::driver::DriverOptions;
use crate::figures::SweepOpts;
use spzip_graph::datasets::Scale;
use std::path::PathBuf;

/// Report format for the analysis tools (`--format`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Human-readable rustc-style text (the default).
    #[default]
    Text,
    /// Machine-readable JSON; `dcl-lint` and `dcl-perf` share the
    /// diagnostic element shape ([`spzip_core::lint::render_json`]).
    Json,
    /// SARIF 2.1.0 ([`sarif_report`]): the same diagnostic records as
    /// [`Json`](Self::Json), rendered as a static-analysis log CI can
    /// annotate onto PRs. Modes without per-diagnostic records (the
    /// corpus and crosscheck gates) fall back to text.
    Sarif,
}

/// Parsed common flags.
#[derive(Debug, Clone)]
pub struct CommonArgs {
    /// Input generation scale.
    pub scale: Scale,
    /// Application filter (`--apps`), by paper abbreviation.
    pub apps: Option<Vec<String>>,
    /// Input filter (`--inputs`), by dataset short name.
    pub inputs: Option<Vec<String>>,
    /// Output filter for `bench_all` (`--only`).
    pub only: Option<Vec<String>>,
    /// Worker threads (`--jobs`).
    pub jobs: usize,
    /// Ignore the outcome cache (`--fresh`).
    pub fresh: bool,
    /// Run cells under the SimSanitizer (`--sanitize`).
    pub sanitize: bool,
    /// Memoization directory (`--cache-dir`).
    pub cache_dir: PathBuf,
    /// `bench_all` output directory (`--out-dir`).
    pub out_dir: PathBuf,
    /// Lint every built-in app pipeline (`--all-builtin`, `dcl-lint`).
    pub all_builtin: bool,
    /// Emit Graphviz dot for linted pipelines (`--dot`, `dcl-lint`).
    pub dot: bool,
    /// Skip the shape verifier on builtins (`--no-shape`, `dcl-lint`).
    pub no_shape: bool,
    /// Run the seeded-miswiring differential gate (`--shape-corpus`,
    /// `dcl-lint`).
    pub shape_corpus: bool,
    /// Skip the liveness checker on builtins (`--no-liveness`,
    /// `dcl-lint`).
    pub no_liveness: bool,
    /// Run the seeded-deadlock differential gate (`--liveness-corpus`,
    /// `dcl-lint`).
    pub liveness_corpus: bool,
    /// Certify builtin auto-rewirings and codec bindings with the
    /// translation validator (`--equiv`, `dcl-lint`).
    pub equiv: bool,
    /// Run the seeded semantics-breaking rewrite differential gate
    /// (`--equiv-corpus`, `dcl-lint`).
    pub equiv_corpus: bool,
    /// Explain a diagnostic code (`--explain CODE`, `dcl-lint`).
    pub explain: Option<String>,
    /// Treat lint warnings as fatal (`--deny-warnings`, `dcl-lint`).
    pub deny_warnings: bool,
    /// Report format (`--format text|json`).
    pub format: OutputFormat,
    /// Run the model-vs-simulator gate (`--crosscheck`, `dcl-perf`).
    pub crosscheck: bool,
    /// Perturb codec-derived predictions (`dcl-perf`), the liveness
    /// drive depth (`dcl-lint --liveness-corpus`) or the equiv
    /// comparator (`dcl-lint --equiv-corpus`) (`--perturb-ratio`).
    pub perturb_ratio: Option<f64>,
    /// Run the codec-selection pass (`--suggest`, `dcl-perf`).
    pub suggest: bool,
    /// Trajectory file calibrating `--suggest` (`--rates`, `dcl-perf`).
    pub rates: PathBuf,
    /// Run the auto-vs-default simulation gate (`--auto-gate`,
    /// `dcl-perf`).
    pub auto_gate: bool,
    /// Positional arguments: `.dcl` files for `dcl-lint`/`dcl-perf`.
    pub paths: Vec<PathBuf>,
}

/// Parses the process arguments.
pub fn parse() -> CommonArgs {
    parse_from(&std::env::args().skip(1).collect::<Vec<_>>())
}

/// Parses an explicit argument list (tests).
pub fn parse_from(args: &[String]) -> CommonArgs {
    let mut parsed = CommonArgs {
        scale: Scale::Bench,
        apps: None,
        inputs: None,
        only: None,
        jobs: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        fresh: false,
        sanitize: false,
        cache_dir: PathBuf::from("results/cache"),
        out_dir: PathBuf::from("results"),
        all_builtin: false,
        dot: false,
        no_shape: false,
        shape_corpus: false,
        no_liveness: false,
        liveness_corpus: false,
        equiv: false,
        equiv_corpus: false,
        explain: None,
        deny_warnings: false,
        format: OutputFormat::Text,
        crosscheck: false,
        perturb_ratio: None,
        suggest: false,
        rates: PathBuf::from("BENCH_codecs.json"),
        auto_gate: false,
        paths: Vec::new(),
    };
    let value = |i: usize| args.get(i + 1).map(|s| s.as_str());
    let list = |i: usize| value(i).map(|s| s.split(',').map(|x| x.to_string()).collect());
    // Indices consumed as the value of a preceding flag, so they are not
    // mistaken for positional paths.
    let mut consumed = vec![false; args.len()];
    for (i, a) in args.iter().enumerate() {
        match a.as_str() {
            "--scale" => {
                parsed.scale = match value(i) {
                    Some("tiny") => Scale::Tiny,
                    Some("large") => Scale::Large,
                    _ => Scale::Bench,
                };
                consumed[i] = true;
                if i + 1 < consumed.len() {
                    consumed[i + 1] = true;
                }
            }
            "--apps" | "--inputs" | "--only" | "--jobs" | "--cache-dir" | "--out-dir" => {
                match a.as_str() {
                    "--apps" => parsed.apps = list(i),
                    "--inputs" => parsed.inputs = list(i),
                    "--only" => parsed.only = list(i),
                    "--jobs" => {
                        if let Some(n) = value(i).and_then(|s| s.parse::<usize>().ok()) {
                            parsed.jobs = n.max(1);
                        }
                    }
                    "--cache-dir" => {
                        if let Some(d) = value(i) {
                            parsed.cache_dir = PathBuf::from(d);
                        }
                    }
                    "--out-dir" => {
                        if let Some(d) = value(i) {
                            parsed.out_dir = PathBuf::from(d);
                        }
                    }
                    _ => unreachable!(),
                }
                consumed[i] = true;
                if i + 1 < consumed.len() {
                    consumed[i + 1] = true;
                }
            }
            "--fresh" => {
                parsed.fresh = true;
                consumed[i] = true;
            }
            "--sanitize" => {
                parsed.sanitize = true;
                consumed[i] = true;
            }
            "--deny-warnings" => {
                parsed.deny_warnings = true;
                consumed[i] = true;
            }
            "--all-builtin" => {
                parsed.all_builtin = true;
                consumed[i] = true;
            }
            "--dot" => {
                parsed.dot = true;
                consumed[i] = true;
            }
            "--no-shape" => {
                parsed.no_shape = true;
                consumed[i] = true;
            }
            "--shape-corpus" => {
                parsed.shape_corpus = true;
                consumed[i] = true;
            }
            "--no-liveness" => {
                parsed.no_liveness = true;
                consumed[i] = true;
            }
            "--liveness-corpus" => {
                parsed.liveness_corpus = true;
                consumed[i] = true;
            }
            "--equiv" => {
                parsed.equiv = true;
                consumed[i] = true;
            }
            "--equiv-corpus" => {
                parsed.equiv_corpus = true;
                consumed[i] = true;
            }
            "--explain" => {
                parsed.explain = value(i).map(|s| s.to_string());
                consumed[i] = true;
                if i + 1 < consumed.len() {
                    consumed[i + 1] = true;
                }
            }
            "--crosscheck" => {
                parsed.crosscheck = true;
                consumed[i] = true;
            }
            "--suggest" => {
                parsed.suggest = true;
                consumed[i] = true;
            }
            "--auto-gate" => {
                parsed.auto_gate = true;
                consumed[i] = true;
            }
            "--rates" => {
                if let Some(p) = value(i) {
                    parsed.rates = PathBuf::from(p);
                }
                consumed[i] = true;
                if i + 1 < consumed.len() {
                    consumed[i + 1] = true;
                }
            }
            "--format" => {
                match value(i) {
                    Some("json") => parsed.format = OutputFormat::Json,
                    Some("sarif") => parsed.format = OutputFormat::Sarif,
                    _ => {}
                }
                consumed[i] = true;
                if i + 1 < consumed.len() {
                    consumed[i + 1] = true;
                }
            }
            "--perturb-ratio" => {
                parsed.perturb_ratio = value(i).and_then(|s| s.parse::<f64>().ok());
                consumed[i] = true;
                if i + 1 < consumed.len() {
                    consumed[i + 1] = true;
                }
            }
            _ => {}
        }
    }
    for (i, a) in args.iter().enumerate() {
        if !consumed[i] && !a.starts_with("--") {
            parsed.paths.push(PathBuf::from(a));
        }
    }
    parsed
}

impl CommonArgs {
    /// The sweep options these flags select, for the randomized
    /// (`preprocess: false`) or DFS-preprocessed variant of an output.
    pub fn sweep_with(&self, preprocess: bool) -> SweepOpts {
        SweepOpts {
            scale: self.scale,
            preprocess,
            apps: self.apps.clone(),
            inputs: self.inputs.clone(),
        }
    }

    /// The driver options these flags select.
    pub fn driver_options(&self) -> DriverOptions {
        DriverOptions {
            jobs: self.jobs,
            fresh: self.fresh,
            sanitize: self.sanitize,
            cache_dir: Some(self.cache_dir.clone()),
            quiet: false,
        }
    }
}

/// Summary counters shared by the analysis tools' batch reports
/// (`dcl-lint` and `dcl-perf` both reduce to these four numbers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ToolCounts {
    /// Pipelines (or files) examined.
    pub checked: usize,
    /// Error-severity diagnostics plus parse failures.
    pub errors: usize,
    /// Warning-severity diagnostics.
    pub warnings: usize,
    /// Inputs the tool could not read (exit code 2, not a verdict).
    pub io_errors: usize,
}

/// The shared process exit-code ladder for the analysis tools:
/// unreadable inputs dominate (2), then failing diagnostics — errors, or
/// warnings under `--deny-warnings` — (1), then success (0).
pub fn tool_exit_code(counts: &ToolCounts, deny_warnings: bool) -> i32 {
    if counts.io_errors > 0 {
        2
    } else if counts.errors > 0 || (deny_warnings && counts.warnings > 0) {
        1
    } else {
        0
    }
}

/// Renders the shared `--format json` envelope: summary counters, then a
/// `pipelines` array whose elements are `{"name":..., <body>}` (the body
/// is tool-specific — `dcl-lint` emits a `diagnostics` array, `dcl-perf`
/// prefixes it with model summary fields), then read/parse `failures`.
pub fn json_envelope(
    counts: &ToolCounts,
    pipelines: &[(String, String)],
    failures: &[(String, String)],
) -> String {
    use spzip_core::lint::json_escape;
    use std::fmt::Write as _;
    let mut out = format!(
        "{{\"checked\":{},\"errors\":{},\"warnings\":{},\"io_errors\":{},\"pipelines\":[",
        counts.checked, counts.errors, counts.warnings, counts.io_errors
    );
    for (i, (name, body)) in pipelines.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n{{\"name\":\"{}\",{body}}}", json_escape(name));
    }
    out.push_str("],\"failures\":[");
    for (i, (name, err)) in failures.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"error\":\"{}\"}}",
            json_escape(name),
            json_escape(err)
        );
    }
    out.push_str("]}\n");
    out
}

/// Renders the shared `--format sarif` log: the same per-pipeline
/// diagnostic records `dcl-lint` and `dcl-perf` emit as JSON, as a SARIF
/// 2.1.0 run CI can annotate onto PRs. Each distinct code becomes a rule
/// (id + registry summary), each diagnostic a result whose artifact URI
/// is the pipeline (or file) name and whose region is the source line
/// when one is known; unreadable inputs become `io-error` results.
/// Output is deterministic: rules sort by code, results follow
/// [`spzip_core::lint::sorted_for_render`] within each pipeline.
pub fn sarif_report(
    tool: &str,
    results: &[(String, Vec<spzip_core::lint::Diagnostic>)],
    failures: &[(String, String)],
) -> String {
    use spzip_core::lint::{json_escape, sorted_for_render, Severity};
    use std::collections::BTreeMap;
    use std::fmt::Write as _;

    let mut rules: BTreeMap<&'static str, &'static str> = BTreeMap::new();
    for (_, diags) in results {
        for d in diags {
            rules.insert(d.code.as_str(), d.code.summary());
        }
    }
    if !failures.is_empty() {
        rules.insert("io-error", "input could not be read or parsed");
    }

    let mut out = String::from(
        "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
         \"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{",
    );
    let _ = write!(out, "\"name\":\"{}\",\"rules\":[", json_escape(tool));
    for (i, (id, summary)) in rules.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"id\":\"{id}\",\"shortDescription\":{{\"text\":\"{}\"}}}}",
            json_escape(summary)
        );
    }
    out.push_str("]}},\"results\":[");
    let mut first = true;
    let mut push_result =
        |out: &mut String, rule: &str, level: &str, text: &str, uri: &str, line: Option<u32>| {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n{{\"ruleId\":\"{rule}\",\"level\":\"{level}\",\
                 \"message\":{{\"text\":\"{}\"}},\"locations\":[{{\"physicalLocation\":\
                 {{\"artifactLocation\":{{\"uri\":\"{}\"}},\"region\":{{\"startLine\":{}}}}}}}]}}",
                json_escape(text),
                json_escape(uri),
                line.unwrap_or(1)
            );
        };
    for (name, diags) in results {
        for d in sorted_for_render(diags) {
            let level = match d.severity() {
                Severity::Error => "error",
                Severity::Warning => "warning",
            };
            let text = match &d.hint {
                Some(h) => format!("{} ({}) — help: {h}", d.message, d.site),
                None => format!("{} ({})", d.message, d.site),
            };
            push_result(&mut out, d.code.as_str(), level, &text, name, d.line);
        }
    }
    for (name, err) in failures {
        push_result(&mut out, "io-error", "error", err, name, None);
    }
    out.push_str("]}]}\n");
    out
}

/// Renders a trajectory gate run (`codec-bench --check`,
/// `sanitize-bench --check`) in the shared `--format json` envelope: one
/// `pipelines` entry named after the gate, carrying the per-cell
/// `summary` lines and the violated `gate_errors`; read/parse problems
/// go in the ordinary `failures` array.
pub fn trajectory_json(
    gate: &str,
    counts: &ToolCounts,
    summary: &[String],
    gate_errors: &[String],
    failures: &[(String, String)],
) -> String {
    use spzip_core::lint::json_escape;
    use std::fmt::Write as _;
    let mut body = String::from("\"summary\":[");
    for (i, s) in summary.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let _ = write!(body, "\"{}\"", json_escape(s));
    }
    body.push_str("],\"gate_errors\":[");
    for (i, s) in gate_errors.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let _ = write!(body, "\"{}\"", json_escape(s));
    }
    body.push(']');
    json_envelope(counts, &[(gate.to_string(), body)], failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    #[test]
    fn defaults() {
        let a = parse_from(&[]);
        assert_eq!(a.scale, Scale::Bench);
        assert!(!a.fresh);
        assert!(a.jobs >= 1);
        assert_eq!(a.cache_dir, PathBuf::from("results/cache"));
    }

    #[test]
    fn parses_every_flag() {
        let a = parse_from(&argv(
            "--scale tiny --apps PR,BFS --inputs arb --only fig07 \
             --jobs 3 --fresh --sanitize --deny-warnings --cache-dir /tmp/c --out-dir /tmp/o",
        ));
        assert_eq!(a.scale, Scale::Tiny);
        assert_eq!(
            a.apps.as_deref(),
            Some(&["PR".to_string(), "BFS".to_string()][..])
        );
        assert_eq!(a.inputs.as_deref(), Some(&["arb".to_string()][..]));
        assert_eq!(a.only.as_deref(), Some(&["fig07".to_string()][..]));
        assert_eq!(a.jobs, 3);
        assert!(a.fresh);
        assert!(a.sanitize);
        assert!(a.deny_warnings);
        assert_eq!(a.cache_dir, PathBuf::from("/tmp/c"));
        assert_eq!(a.out_dir, PathBuf::from("/tmp/o"));
    }

    #[test]
    fn parses_format_and_crosscheck_flags() {
        let a = parse_from(&argv("--format json --crosscheck --perturb-ratio 1.5"));
        assert_eq!(a.format, OutputFormat::Json);
        assert!(a.crosscheck);
        assert_eq!(a.perturb_ratio, Some(1.5));
        let b = parse_from(&argv("--format text"));
        assert_eq!(b.format, OutputFormat::Text);
        assert_eq!(b.perturb_ratio, None);
        assert!(!b.crosscheck);
        let c = parse_from(&argv("--format sarif"));
        assert_eq!(c.format, OutputFormat::Sarif);
    }

    #[test]
    fn parses_equiv_flags() {
        let a = parse_from(&argv("--equiv --equiv-corpus"));
        assert!(a.equiv);
        assert!(a.equiv_corpus);
        let b = parse_from(&[]);
        assert!(!b.equiv);
        assert!(!b.equiv_corpus);
    }

    #[test]
    fn format_and_perturb_values_are_not_paths() {
        let a = parse_from(&argv("--format json pipe.dcl --perturb-ratio 2.0"));
        assert_eq!(a.paths, vec![PathBuf::from("pipe.dcl")]);
        assert_eq!(a.format, OutputFormat::Json);
        assert_eq!(a.perturb_ratio, Some(2.0));
    }

    #[test]
    fn parses_suggest_flags() {
        let a = parse_from(&argv("--suggest --rates other/traj.json --auto-gate"));
        assert!(a.suggest);
        assert!(a.auto_gate);
        assert_eq!(a.rates, PathBuf::from("other/traj.json"));
        assert!(a.paths.is_empty(), "flag values are not paths");
        let b = parse_from(&[]);
        assert!(!b.suggest);
        assert!(!b.auto_gate);
        assert_eq!(b.rates, PathBuf::from("BENCH_codecs.json"));
    }

    #[test]
    fn parses_shape_flags() {
        let a = parse_from(&argv("--no-shape --shape-corpus"));
        assert!(a.no_shape);
        assert!(a.shape_corpus);
        let b = parse_from(&[]);
        assert!(!b.no_shape);
        assert!(!b.shape_corpus);
    }

    #[test]
    fn parses_liveness_flags() {
        let a = parse_from(&argv("--no-liveness --liveness-corpus --explain D001"));
        assert!(a.no_liveness);
        assert!(a.liveness_corpus);
        assert_eq!(a.explain.as_deref(), Some("D001"));
        assert!(a.paths.is_empty(), "the explain value is not a path");
        let b = parse_from(&[]);
        assert!(!b.no_liveness);
        assert!(!b.liveness_corpus);
        assert_eq!(b.explain, None);
    }

    #[test]
    fn exit_code_ladder_is_shared() {
        let clean = ToolCounts {
            checked: 1,
            ..Default::default()
        };
        assert_eq!(tool_exit_code(&clean, false), 0);
        assert_eq!(tool_exit_code(&clean, true), 0);
        let warny = ToolCounts {
            checked: 1,
            warnings: 2,
            ..Default::default()
        };
        assert_eq!(tool_exit_code(&warny, false), 0);
        assert_eq!(tool_exit_code(&warny, true), 1, "--deny-warnings promotes");
        let bad = ToolCounts {
            checked: 1,
            errors: 1,
            ..Default::default()
        };
        assert_eq!(tool_exit_code(&bad, false), 1);
        let unreadable = ToolCounts {
            checked: 2,
            errors: 1,
            io_errors: 1,
            ..Default::default()
        };
        assert_eq!(tool_exit_code(&unreadable, false), 2, "I/O dominates");
    }

    #[test]
    fn json_envelope_escapes_and_joins() {
        let counts = ToolCounts {
            checked: 2,
            errors: 1,
            ..Default::default()
        };
        let json = json_envelope(
            &counts,
            &[
                ("a".to_string(), "\"diagnostics\":[]".to_string()),
                ("b\"q".to_string(), "\"diagnostics\":[]".to_string()),
            ],
            &[("c".to_string(), "no such file".to_string())],
        );
        assert!(json.contains("\"checked\":2"), "{json}");
        assert!(json.contains("\"name\":\"a\",\"diagnostics\":[]"), "{json}");
        assert!(json.contains("\\\"q\""), "escapes quotes: {json}");
        assert!(
            json.contains("\"name\":\"c\",\"error\":\"no such file\""),
            "{json}"
        );
        assert!(json.ends_with("]}\n"), "{json}");
    }

    #[test]
    fn trajectory_json_carries_summary_and_gate_errors() {
        let counts = ToolCounts {
            checked: 9,
            errors: 1,
            ..Default::default()
        };
        let json = trajectory_json(
            "sanitize-bench",
            &counts,
            &["Pr/Push: ratio 8.00x".to_string()],
            &["Sp/PhiSpzip: \"bad\"".to_string()],
            &[],
        );
        assert!(json.contains("\"name\":\"sanitize-bench\""), "{json}");
        assert!(
            json.contains("\"summary\":[\"Pr/Push: ratio 8.00x\"]"),
            "{json}"
        );
        assert!(json.contains("\\\"bad\\\""), "escapes gate errors: {json}");
        assert!(json.contains("\"failures\":[]"), "{json}");
    }

    #[test]
    fn ignores_unknown_flags() {
        let a = parse_from(&argv("--frobnicate --scale large"));
        assert_eq!(a.scale, Scale::Large);
    }

    #[test]
    fn collects_positional_paths_without_eating_flag_values() {
        let a = parse_from(&argv("fig2.dcl --jobs 3 extra.dcl --dot --all-builtin"));
        assert_eq!(
            a.paths,
            vec![PathBuf::from("fig2.dcl"), PathBuf::from("extra.dcl")]
        );
        assert_eq!(a.jobs, 3);
        assert!(a.dot);
        assert!(a.all_builtin);
    }

    #[test]
    fn flag_values_are_not_paths() {
        let a = parse_from(&argv("--cache-dir /tmp/c --scale tiny pipeline.dcl"));
        assert_eq!(a.paths, vec![PathBuf::from("pipeline.dcl")]);
        assert_eq!(a.cache_dir, PathBuf::from("/tmp/c"));
        assert_eq!(a.scale, Scale::Tiny);
    }
}

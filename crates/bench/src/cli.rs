//! The one strict flag parser every tool shares.
//!
//! Each tool declares only the flags it reads: one args struct with one
//! `parse` per tool below, all over the same strict argument walk. Everything
//! else is refused — an unknown flag, a flag without its value, a value
//! that does not parse, or one outside an enumerated set (`--scale tni`,
//! `--format xml`, `--format sarif` on a tool without SARIF output).
//! [`parse_or_exit`] then prints `<tool>: <reason>` and the tool's usage
//! line on stderr and exits 2, the "could not do its job" rung of the
//! shared exit-code ladder ([`tool_exit_code`]). A flag given twice keeps
//! its last value.
//!
//! The flag sets are [`BenchAllArgs`], [`LintArgs`], [`PerfArgs`],
//! [`SweepArgs`] (`codec-sweep`), and
//! [`TrajectoryArgs`](crate::trajectory::TrajectoryArgs) (`codec-bench`,
//! `sanitize-bench`); each field documents the flag that sets it.

use crate::driver::DriverOptions;
use crate::figures::SweepOpts;
use spzip_graph::datasets::Scale;
use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;

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

/// `--format` values of the tools without SARIF output.
pub(crate) const TEXT_JSON: &[(&str, OutputFormat)] =
    &[("text", OutputFormat::Text), ("json", OutputFormat::Json)];

/// `--format` values of `dcl-lint` and `dcl-perf`.
const TEXT_JSON_SARIF: &[(&str, OutputFormat)] = &[
    ("text", OutputFormat::Text),
    ("json", OutputFormat::Json),
    ("sarif", OutputFormat::Sarif),
];

/// A strict walk over one tool's argument list: the tool matches each
/// argument the iterator yields and reads a flag's value with `value`,
/// `parse`, `one_of` or `list`, each of which names the flag in its error.
pub(crate) struct Flags<'a> {
    args: std::slice::Iter<'a, String>,
    flag: &'a str,
}

impl<'a> Iterator for Flags<'a> {
    type Item = &'a str;

    /// The next argument, which becomes the flag later value reads name.
    fn next(&mut self) -> Option<&'a str> {
        self.flag = self.args.next()?;
        Some(self.flag)
    }
}

impl<'a> Flags<'a> {
    pub(crate) fn new(args: &'a [String]) -> Self {
        Flags {
            args: args.iter(),
            flag: "",
        }
    }

    /// The current flag's value: the next argument, unless there is none
    /// or it is itself a flag.
    pub(crate) fn value(&mut self) -> Result<&'a str, String> {
        match self.args.as_slice().first() {
            Some(v) if !v.starts_with("--") => {
                self.args.next();
                Ok(v)
            }
            _ => Err(format!("{}: missing value", self.flag)),
        }
    }

    /// The current flag's value, parsed.
    pub(crate) fn parse<T: FromStr>(&mut self) -> Result<T, String>
    where
        T::Err: Display,
    {
        let v = self.value()?;
        v.parse()
            .map_err(|e| format!("{}: cannot parse {v:?}: {e}", self.flag))
    }

    /// The current flag's value, which must name one of `choices`.
    pub(crate) fn one_of<T: Copy>(&mut self, choices: &[(&str, T)]) -> Result<T, String> {
        let v = self.value()?;
        match choices.iter().find(|(name, _)| *name == v) {
            Some(&(_, t)) => Ok(t),
            None => {
                let names: Vec<&str> = choices.iter().map(|(name, _)| *name).collect();
                Err(format!(
                    "{}: {v:?} is not one of {}",
                    self.flag,
                    names.join("|")
                ))
            }
        }
    }

    /// The current flag's comma-separated value.
    fn list(&mut self) -> Result<Vec<String>, String> {
        Ok(self.value()?.split(',').map(str::to_string).collect())
    }
}

/// The error for an argument a tool does not take.
pub(crate) fn unknown(arg: &str) -> String {
    if arg.starts_with("--") {
        format!("unknown flag {arg}")
    } else {
        format!("unexpected argument {arg:?}")
    }
}

/// Parses the process arguments with `parse`, or prints `<tool>: <reason>`
/// and `usage` on stderr and exits 2.
pub fn parse_or_exit<T>(
    tool: &str,
    usage: &str,
    parse: impl FnOnce(&[String]) -> Result<T, String>,
) -> T {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse(&args).unwrap_or_else(|e| {
        eprintln!("{tool}: {e}\n{usage}");
        std::process::exit(2)
    })
}

/// `bench_all`'s flags.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchAllArgs {
    /// Input generation scale (`--scale tiny|bench|large`, default bench).
    pub scale: Scale,
    /// Application filter for the sweep figures (`--apps PR,BFS`), by
    /// paper abbreviation.
    pub apps: Option<Vec<String>>,
    /// Input filter for the sweep figures (`--inputs arb,ukl`), by
    /// dataset short name.
    pub inputs: Option<Vec<String>>,
    /// Restrict the run to named outputs (`--only fig15ab,fig07`).
    pub only: Option<Vec<String>>,
    /// Worker threads for cache misses (`--jobs N`, default all cores;
    /// 0 means 1).
    pub jobs: usize,
    /// Ignore memoized outcomes and re-simulate everything (`--fresh`).
    pub fresh: bool,
    /// Run every cell under the SimSanitizer (`--sanitize`; needs the
    /// `sanitize` feature, and sanitized runs bypass the results cache).
    pub sanitize: bool,
    /// Memoization directory (`--cache-dir DIR`, default `results/cache`).
    pub cache_dir: PathBuf,
    /// Where the figure text goes (`--out-dir DIR`, default `results`).
    pub out_dir: PathBuf,
}

impl BenchAllArgs {
    /// The usage line printed with a parse error.
    pub const USAGE: &'static str =
        "usage: bench_all [--scale tiny|bench|large] [--only NAME,...] \
         [--apps APP,...] [--inputs INPUT,...] [--jobs N] [--fresh] [--sanitize] \
         [--cache-dir DIR] [--out-dir DIR]";

    /// Parses `bench_all`'s arguments.
    ///
    /// # Errors
    ///
    /// The reason the arguments were refused (see the module doc).
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut a = BenchAllArgs {
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
        };
        let mut f = Flags::new(args);
        while let Some(arg) = f.next() {
            match arg {
                "--scale" => {
                    a.scale = f.one_of(&[
                        ("tiny", Scale::Tiny),
                        ("bench", Scale::Bench),
                        ("large", Scale::Large),
                    ])?
                }
                "--apps" => a.apps = Some(f.list()?),
                "--inputs" => a.inputs = Some(f.list()?),
                "--only" => a.only = Some(f.list()?),
                "--jobs" => a.jobs = f.parse::<usize>()?.max(1),
                "--fresh" => a.fresh = true,
                "--sanitize" => a.sanitize = true,
                "--cache-dir" => a.cache_dir = f.value()?.into(),
                "--out-dir" => a.out_dir = f.value()?.into(),
                _ => return Err(unknown(arg)),
            }
        }
        Ok(a)
    }

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

/// `dcl-lint`'s flags.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LintArgs {
    /// Also lint every built-in app pipeline (`--all-builtin`).
    pub all_builtin: bool,
    /// Skip the shape-and-bounds verifier ([`spzip_core::shape`]) that
    /// builtin linting runs by default (`--no-shape`).
    pub no_shape: bool,
    /// Skip the liveness model checker ([`spzip_core::liveness`]) that
    /// builtin linting runs by default (`--no-liveness`).
    pub no_liveness: bool,
    /// Run the seeded-miswiring differential gate: static B-code vs.
    /// functional-engine confirmation (`--shape-corpus`).
    pub shape_corpus: bool,
    /// Run the seeded cross-queue deadlock differential gate: static
    /// D-code vs. counterexample replay to the machine watchdog
    /// (`--liveness-corpus`).
    pub liveness_corpus: bool,
    /// Certify every builtin pipeline against its auto-codec rewiring with
    /// the translation validator ([`spzip_core::equiv`]), plus every
    /// codec's kernel-vs-reference binding (`--equiv`).
    pub equiv: bool,
    /// Run the seeded semantics-breaking rewrite differential gate:
    /// static V-code vs. divergent functional-engine output
    /// (`--equiv-corpus`).
    pub equiv_corpus: bool,
    /// Print the registry entry (summary, why it matters, how to fix) of
    /// any diagnostic code, E/W/B/P/A/S/D/V (`--explain CODE`).
    pub explain: Option<String>,
    /// Print each linted pipeline as Graphviz dot; builtins annotate
    /// edges with the inferred shape domain (`--dot`).
    pub dot: bool,
    /// Warnings fail the run too (`--deny-warnings`).
    pub deny_warnings: bool,
    /// Report format (`--format text|json|sarif`, default text). The
    /// corpus gates have no per-diagnostic records and print text for
    /// `sarif`.
    pub format: OutputFormat,
    /// Weakens a corpus gate for its must-fail run (`--perturb-ratio X`):
    /// under `--liveness-corpus`, `X < 1` shrinks the drive protocol's
    /// per-group budgets; under `--equiv-corpus`, any `X` but `1.0` swaps
    /// in the shallow sink-set comparator.
    pub perturb_ratio: Option<f64>,
    /// `.dcl` files to lint.
    pub paths: Vec<PathBuf>,
}

impl LintArgs {
    /// The usage line, printed with a parse error and when there is
    /// nothing to lint.
    pub const USAGE: &'static str =
        "usage: dcl-lint [--all-builtin] [--no-shape] [--no-liveness] [--shape-corpus] \
         [--liveness-corpus] [--equiv] [--equiv-corpus] [--explain CODE] [--dot] \
         [--deny-warnings] [--format text|json|sarif] [file.dcl ...]";

    /// Parses `dcl-lint`'s arguments.
    ///
    /// # Errors
    ///
    /// The reason the arguments were refused (see the module doc).
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut a = LintArgs::default();
        let mut f = Flags::new(args);
        while let Some(arg) = f.next() {
            match arg {
                "--all-builtin" => a.all_builtin = true,
                "--no-shape" => a.no_shape = true,
                "--no-liveness" => a.no_liveness = true,
                "--shape-corpus" => a.shape_corpus = true,
                "--liveness-corpus" => a.liveness_corpus = true,
                "--equiv" => a.equiv = true,
                "--equiv-corpus" => a.equiv_corpus = true,
                "--explain" => a.explain = Some(f.value()?.to_string()),
                "--dot" => a.dot = true,
                "--deny-warnings" => a.deny_warnings = true,
                "--format" => a.format = f.one_of(TEXT_JSON_SARIF)?,
                "--perturb-ratio" => a.perturb_ratio = Some(f.parse()?),
                path if !path.starts_with("--") => a.paths.push(path.into()),
                _ => return Err(unknown(arg)),
            }
        }
        Ok(a)
    }
}

/// `dcl-perf`'s flags.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfArgs {
    /// Also analyze every built-in app pipeline (`--all-builtin`).
    pub all_builtin: bool,
    /// Warnings fail the run too (`--deny-warnings`).
    pub deny_warnings: bool,
    /// Report format (`--format text|json|sarif`, default text). The
    /// crosscheck gates have no per-diagnostic records and print text
    /// for `sarif`.
    pub format: OutputFormat,
    /// Run the model-vs-simulator traffic gate over the built-in cell
    /// matrix (`--crosscheck`).
    pub crosscheck: bool,
    /// Scale every codec-derived byte prediction of `--crosscheck` or
    /// `--auto-gate` by `X` (`--perturb-ratio X`): a sanity check that
    /// the gates catch a mis-modeled codec; `1.0` is the honest model.
    pub perturb_ratio: Option<f64>,
    /// Run the static codec-selection pass ([`spzip_core::suggest`])
    /// instead of the perf report (`--suggest`): `A0xx` advisories plus
    /// a machine-readable rewiring plan, which never affect the exit
    /// code.
    pub suggest: bool,
    /// Trajectory file calibrating `--suggest` (`--rates FILE`, default
    /// `BENCH_codecs.json`; a missing file falls back to the nominal
    /// table, stated in the report header).
    pub rates: PathBuf,
    /// Simulate auto-selected vs paper-default pipelines over the
    /// built-in cell matrix and fail unless auto wins or ties every cell
    /// (`--auto-gate`).
    pub auto_gate: bool,
    /// `.dcl` files to analyze.
    pub paths: Vec<PathBuf>,
}

impl PerfArgs {
    /// The usage line, printed with a parse error and when there is
    /// nothing to analyze.
    pub const USAGE: &'static str =
        "usage: dcl-perf [--all-builtin] [--deny-warnings] [--format text|json|sarif] \
         [--crosscheck | --auto-gate [--perturb-ratio X]] \
         [--suggest [--rates FILE]] [file.dcl ...]";

    /// Parses `dcl-perf`'s arguments.
    ///
    /// # Errors
    ///
    /// The reason the arguments were refused (see the module doc).
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut a = PerfArgs {
            all_builtin: false,
            deny_warnings: false,
            format: OutputFormat::Text,
            crosscheck: false,
            perturb_ratio: None,
            suggest: false,
            rates: PathBuf::from("BENCH_codecs.json"),
            auto_gate: false,
            paths: Vec::new(),
        };
        let mut f = Flags::new(args);
        while let Some(arg) = f.next() {
            match arg {
                "--all-builtin" => a.all_builtin = true,
                "--deny-warnings" => a.deny_warnings = true,
                "--format" => a.format = f.one_of(TEXT_JSON_SARIF)?,
                "--crosscheck" => a.crosscheck = true,
                "--perturb-ratio" => a.perturb_ratio = Some(f.parse()?),
                "--suggest" => a.suggest = true,
                "--rates" => a.rates = f.value()?.into(),
                "--auto-gate" => a.auto_gate = true,
                path if !path.starts_with("--") => a.paths.push(path.into()),
                _ => return Err(unknown(arg)),
            }
        }
        Ok(a)
    }
}

/// `codec-sweep`'s flags.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepArgs {
    /// Trajectory file calibrating the rates (`--rates FILE`, default
    /// `BENCH_codecs.json`).
    pub rates: PathBuf,
    /// Matrix format (`--format text|json`, default text).
    pub format: OutputFormat,
}

impl SweepArgs {
    /// The usage line printed with a parse error.
    pub const USAGE: &'static str = "usage: codec-sweep [--rates FILE] [--format text|json]";

    /// Parses `codec-sweep`'s arguments.
    ///
    /// # Errors
    ///
    /// The reason the arguments were refused (see the module doc).
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut a = SweepArgs {
            rates: PathBuf::from("BENCH_codecs.json"),
            format: OutputFormat::Text,
        };
        let mut f = Flags::new(args);
        while let Some(arg) = f.next() {
            match arg {
                "--rates" => a.rates = f.value()?.into(),
                "--format" => a.format = f.one_of(TEXT_JSON)?,
                _ => return Err(unknown(arg)),
            }
        }
        Ok(a)
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
    use crate::trajectory::TrajectoryArgs;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    fn strings(items: &[&str]) -> Option<Vec<String>> {
        Some(items.iter().map(|x| x.to_string()).collect())
    }

    fn paths(items: &[&str]) -> Vec<PathBuf> {
        items.iter().map(PathBuf::from).collect()
    }

    fn bench_all(s: &str) -> Result<BenchAllArgs, String> {
        BenchAllArgs::parse(&argv(s))
    }

    fn lint(s: &str) -> Result<LintArgs, String> {
        LintArgs::parse(&argv(s))
    }

    fn perf(s: &str) -> Result<PerfArgs, String> {
        PerfArgs::parse(&argv(s))
    }

    fn codec_bench(s: &str) -> Result<TrajectoryArgs, String> {
        crate::codec_bench::TRAJECTORY.parse(&argv(s))
    }

    fn sanitize_bench(s: &str) -> Result<TrajectoryArgs, String> {
        crate::sanitize_bench::TRAJECTORY.parse(&argv(s))
    }

    fn sweep(s: &str) -> Result<SweepArgs, String> {
        SweepArgs::parse(&argv(s))
    }

    #[test]
    fn defaults() {
        let a = bench_all("").unwrap();
        assert_eq!(a.scale, Scale::Bench);
        assert!(!a.fresh);
        assert!(a.jobs >= 1);
        assert_eq!(a.cache_dir, PathBuf::from("results/cache"));
        assert_eq!(a.out_dir, PathBuf::from("results"));
        assert_eq!(lint("").unwrap(), LintArgs::default());
        let p = perf("").unwrap();
        assert_eq!(p.rates, PathBuf::from("BENCH_codecs.json"));
        assert!(!p.all_builtin && !p.crosscheck && !p.suggest && !p.auto_gate);
        assert_eq!((p.format, p.perturb_ratio), (OutputFormat::Text, None));
        let trajectory = |measure_ms: u64, out: &str| TrajectoryArgs {
            measure_ms,
            out: out.to_string(),
            check: None,
            format: OutputFormat::Text,
            perturb_ratio: None,
        };
        assert_eq!(
            codec_bench("").unwrap(),
            trajectory(200, "BENCH_codecs.json")
        );
        assert_eq!(
            sanitize_bench("").unwrap(),
            trajectory(20, "BENCH_sanitize.json")
        );
        assert_eq!(
            sweep("").unwrap(),
            SweepArgs {
                rates: PathBuf::from("BENCH_codecs.json"),
                format: OutputFormat::Text,
            }
        );
    }

    #[test]
    fn parses_every_flag() {
        let a = bench_all(
            "--scale tiny --apps PR,BFS --inputs arb --only fig07 \
             --jobs 3 --fresh --sanitize --cache-dir /tmp/c --out-dir /tmp/o",
        )
        .unwrap();
        assert_eq!(
            a,
            BenchAllArgs {
                scale: Scale::Tiny,
                apps: strings(&["PR", "BFS"]),
                inputs: strings(&["arb"]),
                only: strings(&["fig07"]),
                jobs: 3,
                fresh: true,
                sanitize: true,
                cache_dir: PathBuf::from("/tmp/c"),
                out_dir: PathBuf::from("/tmp/o"),
            }
        );
        assert_eq!(bench_all("--jobs 0").unwrap().jobs, 1, "0 clamps to 1");
        assert_eq!(bench_all("--scale large").unwrap().scale, Scale::Large);
        assert!(lint("--deny-warnings").unwrap().deny_warnings);
        assert!(perf("--deny-warnings").unwrap().deny_warnings);
        assert_eq!(codec_bench("--measure-ms 0").unwrap().measure_ms, 1);
    }

    /// Every command line `.github/workflows/ci.yml` and the binaries'
    /// doc headers run, with the fields it sets on the tool's defaults.
    #[test]
    fn parses_every_documented_command_line() {
        type Row<T> = (&'static str, fn(&mut T));
        fn rows<T: PartialEq + std::fmt::Debug + Clone>(
            tool: &str,
            parse: fn(&str) -> Result<T, String>,
            rows: &[Row<T>],
        ) {
            let base = parse("").unwrap();
            for (line, set) in rows {
                let mut want = base.clone();
                set(&mut want);
                assert_eq!(parse(line).unwrap(), want, "{tool} {line}");
            }
        }
        fn dcl() -> Vec<PathBuf> {
            paths(&["examples/dcl/a.dcl", "examples/dcl/b.dcl"])
        }
        fn check(a: &mut TrajectoryArgs, path: &str) {
            a.check = Some(path.to_string());
        }

        rows::<BenchAllArgs>(
            "bench_all",
            bench_all,
            &[
                (
                    "--sanitize --scale tiny --only fig07 --out-dir smoke-results \
                     --cache-dir smoke-results/cache",
                    |a| {
                        a.sanitize = true;
                        a.scale = Scale::Tiny;
                        a.only = strings(&["fig07"]);
                        a.out_dir = PathBuf::from("smoke-results");
                        a.cache_dir = PathBuf::from("smoke-results/cache");
                    },
                ),
                ("--only fig15ab,fig07", |a| {
                    a.only = strings(&["fig15ab", "fig07"])
                }),
            ],
        );
        rows::<LintArgs>(
            "dcl-lint",
            lint,
            &[
                ("--all-builtin examples/dcl/a.dcl examples/dcl/b.dcl", |a| {
                    a.all_builtin = true;
                    a.paths = dcl();
                }),
                ("examples/dcl/a.dcl examples/dcl/b.dcl", |a| a.paths = dcl()),
                ("--all-builtin", |a| a.all_builtin = true),
                ("--dot fig2.dcl", |a| {
                    a.dot = true;
                    a.paths = paths(&["fig2.dcl"]);
                }),
                ("--deny-warnings fig2.dcl", |a| {
                    a.deny_warnings = true;
                    a.paths = paths(&["fig2.dcl"]);
                }),
                ("--shape-corpus", |a| a.shape_corpus = true),
                ("--liveness-corpus", |a| a.liveness_corpus = true),
                ("--liveness-corpus --perturb-ratio 0.1", |a| {
                    a.liveness_corpus = true;
                    a.perturb_ratio = Some(0.1);
                }),
                ("--equiv", |a| a.equiv = true),
                ("--equiv-corpus", |a| a.equiv_corpus = true),
                ("--equiv-corpus --perturb-ratio 0.5", |a| {
                    a.equiv_corpus = true;
                    a.perturb_ratio = Some(0.5);
                }),
            ],
        );
        rows::<PerfArgs>(
            "dcl-perf",
            perf,
            &[
                (
                    "--all-builtin --deny-warnings examples/dcl/a.dcl examples/dcl/b.dcl",
                    |a| {
                        a.all_builtin = true;
                        a.deny_warnings = true;
                        a.paths = dcl();
                    },
                ),
                ("examples/dcl/a.dcl examples/dcl/b.dcl", |a| a.paths = dcl()),
                ("--all-builtin", |a| a.all_builtin = true),
                ("--all-builtin --format json", |a| {
                    a.all_builtin = true;
                    a.format = OutputFormat::Json;
                }),
                ("--crosscheck", |a| a.crosscheck = true),
                ("--crosscheck --perturb-ratio 1.5", |a| {
                    a.crosscheck = true;
                    a.perturb_ratio = Some(1.5);
                }),
                ("--suggest --all-builtin", |a| {
                    a.suggest = true;
                    a.all_builtin = true;
                }),
                ("--auto-gate", |a| a.auto_gate = true),
                ("--auto-gate --perturb-ratio 8.0", |a| {
                    a.auto_gate = true;
                    a.perturb_ratio = Some(8.0);
                }),
            ],
        );
        rows::<TrajectoryArgs>(
            "codec-bench",
            codec_bench,
            &[
                ("--measure-ms 150 --check BENCH_codecs.json", |a| {
                    a.measure_ms = 150;
                    check(a, "BENCH_codecs.json");
                }),
                ("--out results/codecs.json", |a| {
                    a.out = "results/codecs.json".to_string()
                }),
                ("--measure-ms 60 --check BENCH_codecs.json", |a| {
                    a.measure_ms = 60;
                    check(a, "BENCH_codecs.json");
                }),
                ("--format json --check BENCH_codecs.json", |a| {
                    a.format = OutputFormat::Json;
                    check(a, "BENCH_codecs.json");
                }),
            ],
        );
        rows::<TrajectoryArgs>(
            "sanitize-bench",
            sanitize_bench,
            &[
                ("--measure-ms 5 --check BENCH_sanitize.json", |a| {
                    a.measure_ms = 5;
                    check(a, "BENCH_sanitize.json");
                }),
                (
                    "--measure-ms 5 --perturb-ratio 0.4 --check BENCH_sanitize.json",
                    |a| {
                        a.measure_ms = 5;
                        a.perturb_ratio = Some(0.4);
                        check(a, "BENCH_sanitize.json");
                    },
                ),
                ("--out results/san.json", |a| {
                    a.out = "results/san.json".to_string()
                }),
                ("--measure-ms 20 --check BENCH_sanitize.json", |a| {
                    a.measure_ms = 20;
                    check(a, "BENCH_sanitize.json");
                }),
                ("--format json --check BENCH_sanitize.json", |a| {
                    a.format = OutputFormat::Json;
                    check(a, "BENCH_sanitize.json");
                }),
                ("--perturb-ratio 0.4 --check BENCH_sanitize.json", |a| {
                    a.perturb_ratio = Some(0.4);
                    check(a, "BENCH_sanitize.json");
                }),
            ],
        );
        rows::<SweepArgs>(
            "codec-sweep",
            sweep,
            &[
                ("--rates results/codecs.json", |a| {
                    a.rates = PathBuf::from("results/codecs.json")
                }),
                ("--format json", |a| a.format = OutputFormat::Json),
            ],
        );
    }

    #[test]
    fn parses_format_and_crosscheck_flags() {
        let a = perf("--format json --crosscheck --perturb-ratio 1.5").unwrap();
        assert_eq!(a.format, OutputFormat::Json);
        assert!(a.crosscheck);
        assert_eq!(a.perturb_ratio, Some(1.5));
        let b = perf("--format text").unwrap();
        assert_eq!(b.format, OutputFormat::Text);
        assert_eq!(b.perturb_ratio, None);
        assert!(!b.crosscheck);
        assert_eq!(lint("--format sarif").unwrap().format, OutputFormat::Sarif);
        assert_eq!(perf("--format sarif").unwrap().format, OutputFormat::Sarif);
    }

    #[test]
    fn parses_equiv_flags() {
        let a = lint("--equiv --equiv-corpus").unwrap();
        assert!(a.equiv);
        assert!(a.equiv_corpus);
        let b = lint("").unwrap();
        assert!(!b.equiv);
        assert!(!b.equiv_corpus);
    }

    #[test]
    fn format_and_perturb_values_are_not_paths() {
        let a = lint("--format json pipe.dcl --perturb-ratio 2.0").unwrap();
        assert_eq!(a.paths, paths(&["pipe.dcl"]));
        assert_eq!(a.format, OutputFormat::Json);
        assert_eq!(a.perturb_ratio, Some(2.0));
        let p = perf("--format json pipe.dcl --perturb-ratio 2.0").unwrap();
        assert_eq!(p.paths, paths(&["pipe.dcl"]));
        assert_eq!(p.format, OutputFormat::Json);
        assert_eq!(p.perturb_ratio, Some(2.0));
    }

    #[test]
    fn parses_suggest_flags() {
        let a = perf("--suggest --rates other/traj.json --auto-gate").unwrap();
        assert!(a.suggest);
        assert!(a.auto_gate);
        assert_eq!(a.rates, PathBuf::from("other/traj.json"));
        assert!(a.paths.is_empty(), "flag values are not paths");
        let b = perf("").unwrap();
        assert!(!b.suggest);
        assert!(!b.auto_gate);
        assert_eq!(b.rates, PathBuf::from("BENCH_codecs.json"));
    }

    #[test]
    fn parses_shape_flags() {
        let a = lint("--no-shape --shape-corpus").unwrap();
        assert!(a.no_shape);
        assert!(a.shape_corpus);
        let b = lint("").unwrap();
        assert!(!b.no_shape);
        assert!(!b.shape_corpus);
    }

    #[test]
    fn parses_liveness_flags() {
        let a = lint("--no-liveness --liveness-corpus --explain D001").unwrap();
        assert!(a.no_liveness);
        assert!(a.liveness_corpus);
        assert_eq!(a.explain.as_deref(), Some("D001"));
        assert!(a.paths.is_empty(), "the explain value is not a path");
        let b = lint("").unwrap();
        assert!(!b.no_liveness);
        assert!(!b.liveness_corpus);
        assert_eq!(b.explain, None);
    }

    #[test]
    fn rejects_unknown_flags() {
        let unknown = "unknown flag --frobnicate";
        assert_eq!(
            bench_all("--frobnicate --scale large").unwrap_err(),
            unknown
        );
        assert_eq!(lint("--frobnicate").unwrap_err(), unknown);
        assert_eq!(perf("--frobnicate").unwrap_err(), unknown);
        assert_eq!(codec_bench("--frobnicate").unwrap_err(), unknown);
        assert_eq!(sanitize_bench("--frobnicate").unwrap_err(), unknown);
        assert_eq!(sweep("--frobnicate").unwrap_err(), unknown);
        // Each tool takes only its own flags.
        assert_eq!(lint("--jobs 3").unwrap_err(), "unknown flag --jobs");
        assert_eq!(perf("--dot").unwrap_err(), "unknown flag --dot");
        assert_eq!(
            codec_bench("--perturb-ratio 0.4").unwrap_err(),
            "unknown flag --perturb-ratio"
        );
        // Only the analysis tools take positional paths.
        assert_eq!(
            bench_all("fig07").unwrap_err(),
            "unexpected argument \"fig07\""
        );
        assert_eq!(
            codec_bench("BENCH_codecs.json").unwrap_err(),
            "unexpected argument \"BENCH_codecs.json\""
        );
    }

    #[test]
    fn rejects_missing_unparsable_and_out_of_set_values() {
        assert_eq!(bench_all("--jobs").unwrap_err(), "--jobs: missing value");
        // A flag never serves as the previous flag's value.
        assert_eq!(
            codec_bench("--check --measure-ms 5").unwrap_err(),
            "--check: missing value"
        );
        assert_eq!(
            bench_all("--jobs abc").unwrap_err(),
            "--jobs: cannot parse \"abc\": invalid digit found in string"
        );
        assert!(lint("--perturb-ratio abc")
            .unwrap_err()
            .starts_with("--perturb-ratio: cannot parse \"abc\""));
        assert_eq!(
            bench_all("--scale tni").unwrap_err(),
            "--scale: \"tni\" is not one of tiny|bench|large"
        );
        assert_eq!(
            perf("--format xml").unwrap_err(),
            "--format: \"xml\" is not one of text|json|sarif"
        );
        assert_eq!(
            sweep("--format sarif").unwrap_err(),
            "--format: \"sarif\" is not one of text|json"
        );
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
    fn collects_positional_paths_without_eating_flag_values() {
        let a = lint("fig2.dcl --explain E001 extra.dcl --dot --all-builtin").unwrap();
        assert_eq!(a.paths, paths(&["fig2.dcl", "extra.dcl"]));
        assert_eq!(a.explain.as_deref(), Some("E001"));
        assert!(a.dot);
        assert!(a.all_builtin);
    }

    #[test]
    fn flag_values_are_not_paths() {
        let a = perf("--rates /tmp/r.json --format json pipeline.dcl").unwrap();
        assert_eq!(a.paths, paths(&["pipeline.dcl"]));
        assert_eq!(a.rates, PathBuf::from("/tmp/r.json"));
        assert_eq!(a.format, OutputFormat::Json);
    }
}

//! The one driver behind the perf-trajectory tools, `codec-bench`
//! ([`crate::codec_bench::TRAJECTORY`]) and `sanitize-bench`
//! ([`crate::sanitize_bench::TRAJECTORY`]): their flags, the write path
//! (measure, validate, write `--out`, summarize) and the `--check` path
//! (read, parse, measure, perturb, gate, report in text or the shared JSON
//! envelope on the shared exit ladder). Both trajectory files share one
//! writer-subset JSON shape: a flat envelope led by a `schema` tag, then a
//! `records` array of flat objects, one per line.

use crate::cli::{
    self, tool_exit_code, trajectory_json, unknown, Flags, OutputFormat, ToolCounts, TEXT_JSON,
};

/// A gate's outcome: summary lines, or every violation.
pub type Verdict = Result<Vec<String>, Vec<String>>;

/// What one trajectory tool contributes to the shared driver.
pub struct Trajectory<R> {
    /// Tool name, prefixing every message.
    pub tool: &'static str,
    /// Default `--out` file.
    pub out: &'static str,
    /// Default `--measure-ms` window.
    pub measure_ms: u64,
    /// Cells the gate judges (the `checked` count it reports).
    pub cells: usize,
    /// Measures a fresh report over a window, or says why this build
    /// cannot.
    pub measure: Result<fn(u64) -> R, &'static str>,
    /// Parses a trajectory document.
    pub from_json: fn(&str) -> Result<R, String>,
    /// Renders a trajectory document.
    pub to_json: fn(&R) -> String,
    /// Completeness check a measurement passes before it is written.
    pub validate: fn(&R) -> Result<(), Vec<String>>,
    /// The gate, fresh against checked-in.
    pub check: fn(&R, &R) -> Verdict,
    /// Lines printed after a measurement is written.
    pub summary: fn(&R) -> Vec<String>,
    /// Records in a report.
    pub records: fn(&R) -> usize,
    /// Scales a fresh report's gated ratios by `--perturb-ratio`, so CI
    /// can prove the gate fires; a tool without one takes no such flag.
    pub perturb: Option<fn(&mut R, f64)>,
}

/// A trajectory tool's flags.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryArgs {
    /// Wall-clock measurement window per cell (`--measure-ms N`; 0 means
    /// 1).
    pub measure_ms: u64,
    /// Where a measurement is written (`--out FILE`).
    pub out: String,
    /// Gate a fresh measurement against this trajectory instead of
    /// writing one (`--check FILE`).
    pub check: Option<String>,
    /// Report format of `--check` (`--format text|json`, default text).
    pub format: OutputFormat,
    /// Scale the fresh measurement's gated ratios by `X` before the
    /// check, so CI can prove the gate fires (`--perturb-ratio X`; only
    /// a tool with a perturbation takes it).
    pub perturb_ratio: Option<f64>,
}

impl<R> Trajectory<R> {
    /// Parses this tool's arguments over its defaults.
    ///
    /// # Errors
    ///
    /// The reason the arguments were refused ([`crate::cli`]).
    pub(crate) fn parse(&self, args: &[String]) -> Result<TrajectoryArgs, String> {
        let mut a = TrajectoryArgs {
            measure_ms: self.measure_ms,
            out: self.out.to_string(),
            check: None,
            format: OutputFormat::Text,
            perturb_ratio: None,
        };
        let mut f = Flags::new(args);
        while let Some(arg) = f.next() {
            match arg {
                "--measure-ms" => a.measure_ms = f.parse::<u64>()?.max(1),
                "--out" => a.out = f.value()?.to_string(),
                "--check" => a.check = Some(f.value()?.to_string()),
                "--format" => a.format = f.one_of(TEXT_JSON)?,
                "--perturb-ratio" if self.perturb.is_some() => a.perturb_ratio = Some(f.parse()?),
                _ => return Err(unknown(arg)),
            }
        }
        Ok(a)
    }

    /// Parses the process arguments, runs the tool, and exits with its
    /// code.
    pub fn main(&self) -> ! {
        let usage = format!(
            "usage: {} [--measure-ms N] [--out FILE] [--check FILE] [--format text|json]{}",
            self.tool,
            if self.perturb.is_some() {
                " [--perturb-ratio X]"
            } else {
                ""
            }
        );
        let args = cli::parse_or_exit(self.tool, &usage, |a| self.parse(a));
        std::process::exit(self.run(&args))
    }

    /// Runs the tool over parsed arguments; returns the process exit code.
    fn run(&self, args: &TrajectoryArgs) -> i32 {
        let measure = match self.measure {
            Ok(measure) => measure,
            Err(why) => {
                eprintln!("{}: {why}", self.tool);
                return 2;
            }
        };
        let fresh = || {
            eprintln!("{}: measuring ({} ms/cell)...", self.tool, args.measure_ms);
            measure(args.measure_ms)
        };
        let Some(path) = &args.check else {
            return self.write(&args.out, fresh());
        };

        let mut counts = ToolCounts::default();
        let checked_in = match std::fs::read_to_string(path).map(|text| (self.from_json)(&text)) {
            Ok(Ok(report)) => report,
            Ok(Err(e)) => {
                counts.errors = 1;
                let e = format!("failed schema validation: {e}");
                return self.report(args.format, &counts, &[], &[], &[(path.clone(), e)]);
            }
            Err(e) => {
                counts.io_errors = 1;
                let e = format!("cannot read: {e}");
                return self.report(args.format, &counts, &[], &[], &[(path.clone(), e)]);
            }
        };
        let mut fresh = fresh();
        if let (Some(perturb), Some(ratio)) = (self.perturb, args.perturb_ratio) {
            eprintln!(
                "{}: perturbing fresh ratios by {ratio} (gate sanity check)",
                self.tool
            );
            perturb(&mut fresh, ratio);
        }
        counts.checked = self.cells;
        match (self.check)(&fresh, &checked_in) {
            Ok(summary) => self.report(args.format, &counts, &summary, &[], &[]),
            Err(errors) => {
                counts.errors = errors.len();
                self.report(args.format, &counts, &[], &errors, &[])
            }
        }
    }

    /// Validates and writes a fresh measurement.
    fn write(&self, out: &str, report: R) -> i32 {
        if let Err(errors) = (self.validate)(&report) {
            for e in errors {
                eprintln!("{}: FAIL: {e}", self.tool);
            }
            return 1;
        }
        if let Err(e) = std::fs::write(out, (self.to_json)(&report)) {
            eprintln!("{}: cannot write {out}: {e}", self.tool);
            return 2;
        }
        for line in (self.summary)(&report) {
            println!("{line}");
        }
        println!(
            "{}: wrote {out} ({} records)",
            self.tool,
            (self.records)(&report)
        );
        0
    }

    /// Prints a `--check` outcome and returns its exit code.
    fn report(
        &self,
        format: OutputFormat,
        counts: &ToolCounts,
        summary: &[String],
        gate_errors: &[String],
        failures: &[(String, String)],
    ) -> i32 {
        if format == OutputFormat::Json {
            print!(
                "{}",
                trajectory_json(self.tool, counts, summary, gate_errors, failures)
            );
        } else {
            for line in summary {
                println!("{line}");
            }
            for e in gate_errors {
                eprintln!("{}: FAIL: {e}", self.tool);
            }
            for (name, e) in failures {
                eprintln!("{}: {name}: {e}", self.tool);
            }
            if gate_errors.is_empty() && failures.is_empty() {
                println!("{}: trajectory check passed", self.tool);
            }
        }
        tool_exit_code(counts, false)
    }
}

/// Renders a trajectory document: the `schema` tag, the envelope's other
/// fields (`header`, already rendered), then one record per line.
pub(crate) fn document(
    schema: &str,
    header: &str,
    records: impl IntoIterator<Item = String>,
) -> String {
    let mut out = format!("{{\"schema\":\"{schema}\",{header},\"records\":[");
    for (i, rec) in records.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&rec);
    }
    out.push_str("\n]}\n");
    out
}

/// Checks a trajectory document's `schema` tag and splits its `records`
/// array into the record objects.
///
/// # Errors
///
/// A wrong or missing schema tag, or a missing or malformed array.
pub(crate) fn records<'a>(text: &'a str, schema: &str) -> Result<Vec<&'a str>, String> {
    let found = json_str(text, "schema")?;
    if found != schema {
        return Err(format!("schema {found:?} is not {schema:?}"));
    }
    let start = text
        .find("\"records\":[")
        .ok_or("missing field \"records\"")?
        + "\"records\":[".len();
    let end = text.rfind(']').ok_or("unterminated records array")?;
    if end < start {
        return Err("malformed records array".to_string());
    }
    Ok(split_objects(&text[start..end]))
}

/// Extracts a string field (writer-subset JSON).
pub(crate) fn json_str(text: &str, key: &str) -> Result<String, String> {
    let pat = format!("\"{key}\":");
    let start = text.find(&pat).ok_or(format!("missing field {key:?}"))? + pat.len();
    let rest = text[start..].trim_start();
    let rest = rest
        .strip_prefix('"')
        .ok_or(format!("field {key:?} is not a string"))?;
    let end = rest.find('"').ok_or(format!("unterminated {key:?}"))?;
    Ok(rest[..end].to_string())
}

/// Extracts a numeric field (writer-subset JSON).
pub(crate) fn json_num(text: &str, key: &str) -> Result<f64, String> {
    let pat = format!("\"{key}\":");
    let start = text.find(&pat).ok_or(format!("missing field {key:?}"))? + pat.len();
    let rest = text[start..].trim_start();
    let end = rest
        .find([',', '}', '\n'])
        .ok_or(format!("unterminated {key:?}"))?;
    rest[..end]
        .trim()
        .parse::<f64>()
        .map_err(|e| format!("field {key:?}: {e}"))
}

/// Splits a flat JSON array body into its top-level `{...}` objects
/// (records contain no nested braces).
fn split_objects(body: &str) -> Vec<&str> {
    let mut objects = Vec::new();
    let mut start = None;
    for (i, c) in body.char_indices() {
        match c {
            '{' if start.is_none() => start = Some(i),
            '}' => {
                if let Some(s) = start.take() {
                    objects.push(&body[s..=i]);
                }
            }
            _ => {}
        }
    }
    objects
}

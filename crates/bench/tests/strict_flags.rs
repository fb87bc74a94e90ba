//! Every tool refuses arguments it does not understand — an unknown flag,
//! a flag missing its value, an unparsable value, or a value outside an
//! enumerated set — by exiting 2 with `<tool>: <reason>` naming the flag
//! and its usage line on stderr, before doing any work. `bench_all`
//! reports an output it cannot write the same way, not with a panic.

use std::process::Command;

/// One refused command line: the arguments and the flag stderr must name.
type Case = (&'static [&'static str], &'static str);

/// Per tool: unknown flag, missing value, unparsable value, out-of-set
/// value (`codec-sweep` has no numeric flag, so no unparsable case).
const TABLE: &[(&str, &str, [Option<Case>; 4])] = &[
    (
        "bench_all",
        env!("CARGO_BIN_EXE_bench_all"),
        [
            Some((&["--only", "table1", "--chek"], "--chek")),
            Some((&["--only", "table1", "--scale"], "--scale")),
            Some((&["--only", "table1", "--jobs", "abc"], "--jobs")),
            Some((
                &["--only", "table1", "--scale", "tni", "--jobs", "abc"],
                "--scale",
            )),
        ],
    ),
    (
        "dcl-lint",
        env!("CARGO_BIN_EXE_dcl-lint"),
        [
            Some((&["--explain", "E001", "--chek"], "--chek")),
            Some((&["--explain"], "--explain")),
            Some((
                &["--liveness-corpus", "--perturb-ratio", "abc"],
                "--perturb-ratio",
            )),
            Some((&["--shape-corpus", "--format", "xml"], "--format")),
        ],
    ),
    (
        "dcl-perf",
        env!("CARGO_BIN_EXE_dcl-perf"),
        [
            Some((&["--all-builtin", "--chek"], "--chek")),
            Some((&["--all-builtin", "--format"], "--format")),
            Some((
                &["--crosscheck", "--perturb-ratio", "abc"],
                "--perturb-ratio",
            )),
            Some((&["--all-builtin", "--format", "xml"], "--format")),
        ],
    ),
    (
        "codec-bench",
        env!("CARGO_BIN_EXE_codec-bench"),
        [
            Some((
                &["--measure-ms", "150", "--chek", "BENCH_codecs.json"],
                "--chek",
            )),
            Some((&["--measure-ms", "150", "--check"], "--check")),
            Some((
                &["--measure-ms", "abc", "--check", "BENCH_codecs.json"],
                "--measure-ms",
            )),
            Some((
                &["--format", "sarif", "--check", "BENCH_codecs.json"],
                "--format",
            )),
        ],
    ),
    (
        "sanitize-bench",
        env!("CARGO_BIN_EXE_sanitize-bench"),
        [
            Some((
                &["--measure-ms", "5", "--chek", "BENCH_sanitize.json"],
                "--chek",
            )),
            Some((&["--measure-ms", "5", "--check"], "--check")),
            Some((
                &["--perturb-ratio", "abc", "--check", "BENCH_sanitize.json"],
                "--perturb-ratio",
            )),
            Some((
                &["--format", "xml", "--check", "BENCH_sanitize.json"],
                "--format",
            )),
        ],
    ),
    (
        "codec-sweep",
        env!("CARGO_BIN_EXE_codec-sweep"),
        [
            Some((&["--formt", "json"], "--formt")),
            Some((&["--rates"], "--rates")),
            None,
            Some((&["--format", "xml"], "--format")),
        ],
    ),
];

#[test]
fn every_tool_refuses_bad_arguments_with_exit_2() {
    for (tool, exe, cases) in TABLE {
        for (args, flag) in cases.iter().flatten() {
            let out = Command::new(exe)
                .args(*args)
                .output()
                .unwrap_or_else(|e| panic!("cannot run {tool}: {e}"));
            let stderr = String::from_utf8_lossy(&out.stderr);
            let line = format!("{tool} {}", args.join(" "));
            assert_eq!(out.status.code(), Some(2), "{line}\n{stderr}");
            assert!(out.stdout.is_empty(), "{line} wrote stdout");
            let first = stderr.lines().next().unwrap_or_default();
            assert!(
                first.starts_with(&format!("{tool}: ")) && first.contains(flag),
                "{line}: stderr does not name {flag}:\n{stderr}"
            );
            assert!(
                stderr.contains(&format!("usage: {tool} ")),
                "{line}: no usage line:\n{stderr}"
            );
        }
    }
}

#[test]
fn bench_all_reports_an_unwritable_out_dir_with_exit_2() {
    // An existing file cannot be the output directory.
    let file = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
    let out = Command::new(env!("CARGO_BIN_EXE_bench_all"))
        .args(["--only", "table1", "--scale", "tiny", "--out-dir", file])
        .output()
        .expect("bench_all runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains(&format!("bench_all: cannot write {file}: ")),
        "{stderr}"
    );
}

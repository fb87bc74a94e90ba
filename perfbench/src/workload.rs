//! The benchmark's workloads: which cells each one runs, the inputs those
//! cells read, and what its warm pass renders.
//!
//! Why each workload exists is recorded in `perfbench/README.md`.

use spzip_apps::{AppName, RunOutcome, RunSpec, Scheme};
use spzip_bench::driver::Memo;
use spzip_bench::figures::{self, SweepOpts};
use spzip_graph::datasets::{self, Scale};
use spzip_graph::reorder::{self, Preprocessing};
use spzip_graph::Csr;
use std::collections::HashSet;

/// One named cell set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every unique cell of every figure and table at tiny scale.
    TinyMatrix,
    /// The bench grid under UB+SpZip and PHI+SpZip: the compressor fires.
    BenchCompress,
    /// The bench grid under the three software schemes: no engine program.
    BenchSoftware,
}

/// The bench grid: PR and BFS on `twi` (little locality, about 2.7× the
/// edges of `arb`) and on `arb` (compresses well), longest cell first so
/// the pool's tail is short. PR/twi is left out: at 17-22 s it alone
/// would set a pass's wall time and the run length.
const GRID: [(AppName, &str); 3] = [
    (AppName::Bfs, "twi"),
    (AppName::Pr, "arb"),
    (AppName::Bfs, "arb"),
];

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::TinyMatrix,
        Workload::BenchCompress,
        Workload::BenchSoftware,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TinyMatrix => "tiny-matrix",
            Workload::BenchCompress => "bench-compress",
            Workload::BenchSoftware => "bench-software",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The cells as the figures declare them, duplicates included: what
    /// the warm pass asks `Driver::execute` for.
    pub fn requested(self) -> Vec<RunSpec> {
        match self {
            Workload::TinyMatrix => figures::all_outputs()
                .iter()
                .flat_map(|o| (o.cells)(&SweepOpts::new(Scale::Tiny, o.preprocess)))
                .collect(),
            _ => {
                let mut cells = Vec::new();
                for (app, input) in GRID {
                    for &scheme in self.grid_schemes() {
                        cells.push(RunSpec::new(
                            app,
                            input,
                            scheme.config(),
                            Preprocessing::None,
                            Scale::Bench,
                        ));
                    }
                }
                cells
            }
        }
    }

    /// The unique cells, deduplicated by cache key, in dispatch order.
    pub fn cells(self) -> Vec<RunSpec> {
        let mut seen = HashSet::new();
        self.requested()
            .into_iter()
            .filter(|s| seen.insert(s.cache_key()))
            .collect()
    }

    fn grid_schemes(self) -> &'static [Scheme] {
        match self {
            Workload::TinyMatrix => &[],
            Workload::BenchCompress => &[Scheme::UbSpzip, Scheme::PhiSpzip],
            Workload::BenchSoftware => &[Scheme::Push, Scheme::Ub, Scheme::Phi],
        }
    }

    /// Renders what a user reads from the memoized outcomes: all 18
    /// outputs for the tiny matrix, one scheme table per (app, input) for
    /// a bench grid.
    pub fn render(self, memo: &Memo) -> String {
        if self == Workload::TinyMatrix {
            return figures::all_outputs()
                .iter()
                .map(|o| (o.render)(&SweepOpts::new(Scale::Tiny, o.preprocess), memo))
                .collect();
        }
        let cells = self.requested();
        let mut text = String::new();
        for row in cells.chunks(self.grid_schemes().len()) {
            let outcomes: Vec<(Scheme, &RunOutcome)> = self
                .grid_schemes()
                .iter()
                .zip(row)
                .map(|(&s, spec)| (s, memo.get(spec)))
                .collect();
            text.push_str(&spzip_bench::render_scheme_table(
                &row[0].label(),
                &outcomes,
            ));
        }
        text
    }
}

/// What identifies one generated input.
pub type InputKey = (String, Preprocessing, Scale);

/// The input `spec` reads.
pub fn input_key(spec: &RunSpec) -> InputKey {
    (spec.input.clone(), spec.prep, spec.scale)
}

/// The distinct inputs of `cells`, in first-use order.
pub fn input_keys(cells: &[RunSpec]) -> Vec<InputKey> {
    let mut seen = HashSet::new();
    cells
        .iter()
        .map(input_key)
        .filter(|k| seen.insert(k.clone()))
        .collect()
}

/// Generates one input the way `spzip_bench::driver::build_input` does,
/// with `seed` choosing the vertex-id permutation applied before the
/// preprocessing. At `spzip_bench::RANDOMIZE_SEED` the two are equal.
///
/// # Panics
///
/// Panics on an unknown dataset name.
pub fn build_input((name, prep, scale): &InputKey, seed: u64) -> Csr {
    let spec = datasets::by_name(name).unwrap_or_else(|| panic!("unknown dataset {name}"));
    let randomized = reorder::randomize(&spec.generate(*scale), seed);
    match prep {
        Preprocessing::None => randomized,
        other => other.apply(&randomized, 0),
    }
}

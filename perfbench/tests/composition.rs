//! The traced pass composes each cell from public layer calls; its
//! outcome must be byte-identical to the product's `RunSpec::run`, or the
//! per-layer profile would describe a different run.

use spzip_apps::RunSpec;
use spzip_bench::RANDOMIZE_SEED;
use spzip_perfbench::exec::{self, Layers};
use spzip_perfbench::workload::{self, Workload};
use std::sync::Arc;

fn first(cells: &[RunSpec], pick: impl Fn(&RunSpec) -> bool) -> RunSpec {
    cells
        .iter()
        .find(|s| pick(s))
        .expect("the tiny matrix has such a cell")
        .clone()
}

#[test]
fn composed_cells_match_runspec_run() {
    let tiny = Workload::TinyMatrix.cells();
    let specs = [
        first(&tiny, |s| !s.scheme.spzip && !s.machine.cmh),
        first(&tiny, |s| {
            s.scheme.spzip && s.machine.fetcher_scratchpad.is_none()
        }),
        first(&tiny, |s| s.machine.cmh),
        first(&tiny, |s| s.machine.fetcher_scratchpad.is_some()),
    ];
    for spec in &specs {
        let key = workload::input_key(spec);
        let g = Arc::new(workload::build_input(&key, RANDOMIZE_SEED));
        let mut layers = Layers::default();
        let composed = exec::run_composed(spec, &g, &mut layers);
        let product = spec.run(&g);
        let fp = spec.fingerprint();
        assert_eq!(composed.to_kv(&fp), product.to_kv(&fp), "{}", spec.label());
        assert!(composed.validated, "{}", spec.label());
        let builds = if spec.machine.cmh { 3 } else { 2 };
        assert_eq!(layers.builds, builds, "{}", spec.label());
    }
}

#[test]
fn default_seed_inputs_are_the_drivers() {
    for spec in Workload::TinyMatrix.cells().iter().take(40) {
        let key = workload::input_key(spec);
        assert_eq!(
            workload::build_input(&key, RANDOMIZE_SEED),
            spzip_bench::driver::build_input(&spec.input, spec.prep, spec.scale),
            "{}",
            spec.label()
        );
    }
}

#[test]
fn pool_returns_every_index_in_order() {
    for workers in [1, 2, 5] {
        let out = exec::pool(17, workers, |i| i * i);
        assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
    }
}

#[test]
fn catch_isolates_a_panicking_cell() {
    let err = exec::catch(|| {
        spzip_bench::driver::build_input(
            "no-such-dataset",
            spzip_graph::reorder::Preprocessing::None,
            spzip_graph::datasets::Scale::Tiny,
        )
    })
    .expect_err("an unknown dataset panics");
    assert!(err.contains("unknown dataset"), "{err}");
}

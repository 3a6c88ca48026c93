//! Regenerates the tables and figures of the evaluation (the source of the
//! numbers recorded in EXPERIMENTS.md): every one of them, or only those
//! named by `--only`, using the lower-cased DESIGN.md §5 ids.
//!
//! ```text
//! repro_all [--scale tiny|small|standard] [--only t1,f3,...]
//! ```
//!
//! Selected experiments run in evaluation order. An unknown id is a usage
//! error (exit 2).

use std::process::ExitCode;
use zmesh_amr::datasets::Scale;
use zmesh_bench::experiments as e;

/// One experiment: its lower-cased DESIGN.md §5 id and its runner.
type Experiment = (&'static str, fn(Scale));

/// Every experiment, in evaluation order.
const EXPERIMENTS: [Experiment; 18] = [
    ("t1", e::t1_datasets::run),
    ("f2", e::f2_smoothness::run),
    ("f2b", e::f2b_locality::run),
    ("f3", e::f3_sz_ratio::run),
    ("f4", e::f4_zfp_ratio::run),
    ("f5", e::f5_rate_distortion::run),
    ("t6", e::t6_error_bound::run),
    ("f7", e::f7_overhead::run),
    ("f8", e::f8_amortization::run),
    ("f9", e::f9_timeseries::run),
    ("f10", e::f10_threads::run),
    ("f11", e::f11_precision::run),
    ("a9", e::a9_ablation::run),
    ("a10", e::a10_sensitivity::run),
    ("a11", e::a11_layouts::run),
    ("t12", e::t12_lossless::run),
    ("a13", e::a13_uniform::run),
    ("a14", e::a14_entropy::run),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let only: Option<Vec<&str>> = match args.iter().position(|a| a == "--only") {
        None => None,
        Some(i) => match args.get(i + 1) {
            Some(list) => Some(list.split(',').map(str::trim).collect()),
            None => return usage("--only needs a comma-separated list of ids"),
        },
    };
    if let Some(unknown) = only
        .iter()
        .flatten()
        .find(|id| !EXPERIMENTS.iter().any(|(known, _)| known == *id))
    {
        return usage(&format!("unknown experiment id {unknown:?}"));
    }

    let scale = zmesh_bench::scale_from_args();
    let selection = only
        .as_ref()
        .map_or("full evaluation".to_string(), |ids| ids.join(", "));
    println!("# zMesh reproduction — {selection} (scale: {scale:?})");
    for (id, run) in EXPERIMENTS {
        if only.as_ref().is_none_or(|ids| ids.contains(&id)) {
            run(scale);
        }
    }
    ExitCode::SUCCESS
}

fn usage(problem: &str) -> ExitCode {
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
    eprintln!(
        "repro_all: {problem}\n\
         usage: repro_all [--scale tiny|small|standard] [--only id,...]\n\
         ids: {}",
        ids.join(", ")
    );
    ExitCode::from(2)
}

//! Shared harness utilities for the experiment binaries.
//!
//! Every `table*` / `figure*` / `example*` binary follows the same shape:
//! build the datasets, sweep a (design × method) grid with the
//! repeated-evaluation runner, and print the rows the paper reports.
//! This crate centralizes the dataset registry, CLI-argument handling and
//! grid runners so each binary stays a readable experiment script.
//!
//! ```
//! use kgae_bench::drive_session_oracle;
//! use kgae_core::{EvalConfig, IntervalMethod, PreparedDesign, SamplingDesign};
//!
//! // One poll-driven evaluation on the YAGO twin, oracle-labeled.
//! let kg = kgae_graph::datasets::yago();
//! let prepared = PreparedDesign::new(&kg, SamplingDesign::Srs);
//! let (result, requests) = drive_session_oracle(
//!     &kg,
//!     &prepared,
//!     &IntervalMethod::Wilson,
//!     &EvalConfig::default(),
//!     7,
//!     16,   // batch size: 16 triples per annotation request
//!     None, // no shared kernel cache
//! );
//! assert!(result.converged);
//! assert!(requests >= 1);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

use kgae_core::{
    repeat_evaluation, AnnotationRequest, EvalConfig, EvalResult, EvaluationSession,
    IntervalMethod, PreparedDesign, RepeatedRuns, SamplingDesign,
};
use kgae_graph::{CompactKg, GroundTruth};
use kgae_intervals::KernelCache;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::str::FromStr;
use std::sync::Arc;

pub mod report;

/// A named dataset with its ground-truth accuracy.
pub struct Dataset {
    /// Display name ("YAGO", "NELL", ...).
    pub name: &'static str,
    /// The generated statistical twin.
    pub kg: CompactKg,
    /// Published ground-truth accuracy (Table 1).
    pub mu: f64,
}

/// The four real-life KG twins of Table 1, in paper order.
#[must_use]
pub fn real_datasets() -> Vec<Dataset> {
    vec![
        Dataset {
            name: "YAGO",
            kg: kgae_graph::datasets::yago(),
            mu: 0.99,
        },
        Dataset {
            name: "NELL",
            kg: kgae_graph::datasets::nell(),
            mu: 0.91,
        },
        Dataset {
            name: "DBPEDIA",
            kg: kgae_graph::datasets::dbpedia(),
            mu: 0.85,
        },
        Dataset {
            name: "FACTBENCH",
            kg: kgae_graph::datasets::factbench(),
            mu: 0.54,
        },
    ]
}

/// Repetition count from `--reps N` (defaults to the paper's 1000).
#[must_use]
pub fn reps_from_args(default: u64) -> u64 {
    arg_value("--reps").unwrap_or(default)
}

/// SYN dataset scale from `--scale N` triples (defaults to the full
/// 101,415,011). `--scale 1015000` runs a 1%-scale replica for quick
/// iterations; results are statistically indistinguishable because the
/// estimators are population-size free (paper §6.4).
#[must_use]
pub fn syn_scale_from_args() -> (u64, u32) {
    match arg_value::<u64>("--scale") {
        Some(triples) => {
            let clusters = (triples as f64 / 20.283).round().max(1.0) as u32;
            (triples, clusters)
        }
        None => (101_415_011, 5_000_000),
    }
}

/// Value of a space-separated CLI flag (`--flag value`), parsed; `None`
/// when the flag is absent. A present flag whose value is missing or
/// fails to parse ends the process with a non-zero exit and a message
/// naming the flag, so a typo never silently runs the default.
pub fn arg_value<T: FromStr>(flag: &str) -> Option<T> {
    let args: Vec<String> = std::env::args().collect();
    parse_flag(&args, flag).unwrap_or_else(|message| {
        eprintln!("error: {message}");
        std::process::exit(2);
    })
}

/// [`arg_value`] over an explicit argument list: `Ok(None)` when `flag`
/// is absent, and an error naming the flag when its value is missing or
/// does not parse as `T`.
///
/// # Errors
///
/// A message naming `flag` and the offending value.
fn parse_flag<T: FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let value = args
        .get(i + 1)
        .ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map(Some)
        .map_err(|_| format!("{flag}: cannot parse {value:?}"))
}

/// Runs one (dataset, design, method) cell of a table.
#[must_use]
pub fn run_cell(
    ds: &Dataset,
    design: SamplingDesign,
    method: &IntervalMethod,
    cfg: &EvalConfig,
    reps: u64,
) -> RepeatedRuns {
    // Seed derived from the dataset name so cells are independent but
    // reproducible run to run.
    let seed = ds.name.bytes().fold(0xcbf29ce484222325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
    });
    repeat_evaluation(&ds.kg, design, method, cfg, reps, seed)
}

/// Drives a poll-based [`EvaluationSession`] to completion with oracle
/// labels, submitting annotation batches of `batch` stage-1 units.
/// With `kernel`, the session memoizes its interval solves in that
/// shared cache. Returns the final result and the number of annotation
/// requests the external "annotator" served — the round-trip count a
/// real annotation service would pay at that batch size.
#[must_use]
pub fn drive_session_oracle(
    kg: &CompactKg,
    prepared: &PreparedDesign,
    method: &IntervalMethod,
    cfg: &EvalConfig,
    seed: u64,
    batch: u64,
    kernel: Option<&Arc<KernelCache>>,
) -> (EvalResult, u64) {
    let mut session =
        EvaluationSession::from_prepared(kg, prepared, method, cfg, SmallRng::seed_from_u64(seed));
    if let Some(kernel) = kernel {
        session.set_kernel_cache(Arc::clone(kernel));
    }
    let mut request = AnnotationRequest::default();
    let mut labels: Vec<bool> = Vec::new();
    let mut requests = 0u64;
    while session
        .next_request_into(batch, &mut request)
        .expect("session protocol")
    {
        requests += 1;
        labels.clear();
        labels.extend(request.triples.iter().map(|st| kg.is_correct(st.triple)));
        session.submit(&labels).expect("label submission");
    }
    (
        session.into_result().expect("stopped session has a result"),
        requests,
    )
}

/// The standard method lineup of Table 3/4.
#[must_use]
pub fn table3_methods() -> Vec<IntervalMethod> {
    vec![
        IntervalMethod::Wald,
        IntervalMethod::Wilson,
        IntervalMethod::ahpd_default(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_table_1() {
        use kgae_graph::{GroundTruth, KnowledgeGraph};
        let ds = real_datasets();
        assert_eq!(ds.len(), 4);
        let sizes: Vec<u64> = ds.iter().map(|d| d.kg.num_triples()).collect();
        assert_eq!(sizes, vec![1_386, 1_860, 9_344, 2_800]);
        for d in &ds {
            assert!((d.kg.true_accuracy() - d.mu).abs() < 5e-4, "{}", d.name);
        }
    }

    #[test]
    fn cell_runner_is_reproducible() {
        let ds = &real_datasets()[0];
        let a = run_cell(
            ds,
            SamplingDesign::Srs,
            &IntervalMethod::Wilson,
            &EvalConfig::default(),
            10,
        );
        let b = run_cell(
            ds,
            SamplingDesign::Srs,
            &IntervalMethod::Wilson,
            &EvalConfig::default(),
            10,
        );
        let (mut ta, mut tb) = (a.triples.clone(), b.triples.clone());
        ta.sort_by(f64::total_cmp);
        tb.sort_by(f64::total_cmp);
        assert_eq!(ta, tb);
    }

    #[test]
    fn flag_parsing_rejects_what_it_cannot_read() {
        let args = |list: &[&str]| -> Vec<String> { list.iter().map(|a| a.to_string()).collect() };
        let argv = args(&["bin", "--reps", "250", "--out", "x.json"]);
        assert_eq!(parse_flag::<u64>(&argv, "--scale"), Ok(None), "absent");
        assert_eq!(parse_flag::<u64>(&argv, "--reps"), Ok(Some(250)), "valid");
        assert_eq!(
            parse_flag::<String>(&argv, "--out"),
            Ok(Some("x.json".into()))
        );
        let bad = parse_flag::<u64>(&args(&["bin", "--reps", "1e3"]), "--reps").unwrap_err();
        assert!(bad.contains("--reps") && bad.contains("1e3"), "{bad}");
        let trailing = parse_flag::<u64>(&args(&["bin", "--reps"]), "--reps").unwrap_err();
        assert!(trailing.contains("--reps"), "{trailing}");
    }
}

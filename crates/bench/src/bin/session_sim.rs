//! Session simulator: replays NELL/YAGO annotation streams through the
//! poll-based `EvaluationSession` at batch sizes 1 / 16 / 256,
//! demonstrating (a) engine throughput and request amortization as
//! batches grow, and (b) interruption tolerance — a session suspended
//! to a snapshot after *every* batch and resumed from bytes finishes
//! bit-identically to an uninterrupted run.
//!
//! Every batched run is verified against the batch-1 run of the same
//! seed: the final sample, estimate and interval must be bit-identical
//! (batching changes round trips, never statistics).
//!
//! Usage: `cargo run --release -p kgae-bench --bin session_sim
//! [-- --reps N]` (default 200 repetitions per cell).

use kgae_bench::{drive_session_oracle, reps_from_args};
use kgae_core::{
    AnnotationRequest, EvalConfig, EvalResult, EvaluationSession, IntervalMethod, PreparedDesign,
    SamplingDesign,
};
use kgae_graph::{CompactKg, GroundTruth, KnowledgeGraph};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

const BATCHES: [u64; 3] = [1, 16, 256];

struct CellRow {
    batch: u64,
    reps_per_sec: f64,
    ns_per_annotation: f64,
    requests_per_rep: f64,
}

fn run_cell(
    kg: &CompactKg,
    prepared: &PreparedDesign,
    method: &IntervalMethod,
    cfg: &EvalConfig,
    reps: u64,
    batch: u64,
    baseline: Option<&[EvalResult]>,
) -> Result<(CellRow, Vec<EvalResult>), String> {
    // Warm-up rep to keep one-time costs out of the measurement.
    let _ = drive_session_oracle(kg, prepared, method, cfg, 0, batch, None);
    let mut results = Vec::with_capacity(reps as usize);
    let mut total_requests = 0u64;
    let t0 = Instant::now();
    for seed in 0..reps {
        let (r, requests) = drive_session_oracle(kg, prepared, method, cfg, seed, batch, None);
        total_requests += requests;
        results.push(r);
    }
    let wall = t0.elapsed().as_secs_f64();
    if let Some(base) = baseline {
        for (seed, (a, b)) in base.iter().zip(&results).enumerate() {
            if a != b {
                return Err(format!(
                    "batch {batch} diverged from batch 1 at seed {seed} — batching must not \
                     change statistics"
                ));
            }
        }
    }
    let total_obs: u64 = results.iter().map(|r| r.observations).sum();
    Ok((
        CellRow {
            batch,
            reps_per_sec: reps as f64 / wall,
            ns_per_annotation: wall * 1e9 / total_obs as f64,
            requests_per_rep: total_requests as f64 / reps as f64,
        },
        results,
    ))
}

/// Drives one session to completion, suspending to a snapshot and
/// resuming from bytes after every batch; returns the result, the
/// number of suspensions and the largest snapshot size seen.
fn run_interrupted(
    kg: &CompactKg,
    prepared: &PreparedDesign,
    method: &IntervalMethod,
    cfg: &EvalConfig,
    seed: u64,
    batch: u64,
) -> (EvalResult, u64, usize) {
    let mut session =
        EvaluationSession::from_prepared(kg, prepared, method, cfg, SmallRng::seed_from_u64(seed));
    let mut request = AnnotationRequest::default();
    let mut labels: Vec<bool> = Vec::new();
    let mut suspensions = 0u64;
    let mut max_snapshot = 0usize;
    loop {
        if !session
            .next_request_into(batch, &mut request)
            .expect("session protocol")
        {
            break;
        }
        labels.clear();
        labels.extend(request.triples.iter().map(|st| kg.is_correct(st.triple)));
        session.submit(&labels).expect("label submission");
        if session.stop_reason().is_none() {
            let bytes = session.snapshot().expect("running session snapshots");
            max_snapshot = max_snapshot.max(bytes.len());
            session = EvaluationSession::resume(
                kg,
                prepared,
                method,
                cfg,
                // Fresh RNG proves the resumed stream comes from the
                // snapshot, not the seed.
                SmallRng::seed_from_u64(seed ^ 0x5EED),
                &bytes,
            )
            .expect("snapshot resumes");
            suspensions += 1;
        }
    }
    (
        session.into_result().expect("stopped session has a result"),
        suspensions,
        max_snapshot,
    )
}

fn main() {
    // CI smoke steps gate on the exit code: verification or dataset
    // failures must exit non-zero, never print-and-return.
    if let Err(message) = run() {
        eprintln!("session_sim: FAILED: {message}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    let reps = reps_from_args(200);
    let method = IntervalMethod::ahpd_default();
    let cfg = EvalConfig::default();
    let datasets: [(&str, CompactKg); 2] = [
        ("NELL", kgae_graph::datasets::nell()),
        ("YAGO", kgae_graph::datasets::yago()),
    ];
    if datasets.iter().any(|(_, kg)| kg.num_triples() == 0) {
        return Err("a dataset loaded empty".into());
    }
    let designs = [SamplingDesign::Srs, SamplingDesign::Twcs { m: 3 }];

    eprintln!("session_sim: aHPD, {reps} reps/cell, batches {BATCHES:?}");
    eprintln!(
        "{:>6} {:>10} {:>6} {:>12} {:>16} {:>14}",
        "KG", "design", "batch", "reps/s", "ns/annotation", "requests/rep"
    );
    for (name, kg) in &datasets {
        for design in designs {
            let prepared = PreparedDesign::new(kg, design);
            let mut baseline: Option<Vec<EvalResult>> = None;
            for batch in BATCHES {
                let (row, results) = run_cell(
                    kg,
                    &prepared,
                    &method,
                    &cfg,
                    reps,
                    batch,
                    baseline.as_deref(),
                )?;
                eprintln!(
                    "{:>6} {:>10} {:>6} {:>12.1} {:>16.1} {:>14.2}",
                    name,
                    design.name(),
                    row.batch,
                    row.reps_per_sec,
                    row.ns_per_annotation,
                    row.requests_per_rep,
                );
                if baseline.is_none() {
                    baseline = Some(results);
                }
            }

            // Interruption demo: suspend/resume after every batch must
            // not change a single bit of the outcome.
            let straight =
                &baseline.as_ref().expect("batch-1 results ran")[7.min(reps as usize - 1)];
            let seed = 7.min(reps - 1);
            let (interrupted, suspensions, snapshot_bytes) =
                run_interrupted(kg, &prepared, &method, &cfg, seed, 16);
            if straight != &interrupted {
                return Err(format!(
                    "{name}/{}: suspend/resume changed the outcome",
                    design.name()
                ));
            }
            eprintln!(
                "{:>6} {:>10}  interruption: {suspensions} suspend/resume cycles, \
                 max snapshot {snapshot_bytes} B, bit-identical result ✓",
                name,
                design.name(),
            );
        }
    }
    eprintln!("session_sim: all batched and interrupted runs bit-identical to batch-1");
    Ok(())
}

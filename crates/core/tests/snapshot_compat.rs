//! Snapshots written before the solver-state warm-start field became
//! reserved still resume. The fixtures under `fixtures/` were produced
//! by that earlier release with the recipe in [`session`]: a `syn_scaled`
//! KG, aHPD with the default priors, and `SmallRng` seed 5, snapshotted
//! mid-campaign after a fixed number of oracle-labelled batches.
//!
//! * `twcs_ahpd_every_unit.snap` — TWCS (m = 3) under
//!   `StoppingPolicy::EveryUnit`, 12 batches of 2 units. Its cluster
//!   intervals were solved every unit, so all three warm-start slots
//!   hold an entry.
//! * `srs_ahpd.snap` — SRS under the default certified lookahead,
//!   10 batches of 8 triples. SRS solves never filled a warm-start slot.

use kgae_core::{
    AnnotationRequest, EvalConfig, EvalResult, EvaluationSession, IntervalMethod, PreparedDesign,
    SamplingDesign, StoppingPolicy,
};
use kgae_graph::{CompactKg, GroundTruth};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const TWCS_EVERY_UNIT: &[u8] = include_bytes!("fixtures/twcs_ahpd_every_unit.snap");
const SRS: &[u8] = include_bytes!("fixtures/srs_ahpd.snap");

/// Bytes of one present warm-start entry: two `f64` endpoints.
const WARM_ENTRY_BYTES: usize = 16;

fn kg() -> CompactKg {
    kgae_graph::datasets::syn_scaled(4_000, 900, 0.75, 11)
}

/// A fresh session on the fixtures' KG, method and seed.
fn session<'a>(
    kg: &'a CompactKg,
    prepared: &PreparedDesign,
    method: &IntervalMethod,
    cfg: &EvalConfig,
) -> EvaluationSession<'a, SmallRng> {
    EvaluationSession::from_prepared(kg, prepared, method, cfg, SmallRng::seed_from_u64(5))
}

/// Submits oracle labels for `batches` requests of `batch` units, or
/// until the session stops when `batches` is `None`.
fn drive(
    kg: &CompactKg,
    session: &mut EvaluationSession<'_, SmallRng>,
    batch: u64,
    batches: Option<u64>,
) {
    let mut request = AnnotationRequest::default();
    let mut done = 0;
    while batches.is_none_or(|b| done < b)
        && session.next_request_into(batch, &mut request).unwrap()
    {
        let labels: Vec<bool> = request
            .triples
            .iter()
            .map(|st| kg.is_correct(st.triple))
            .collect();
        session.submit(&labels).unwrap();
        done += 1;
    }
}

fn result_bits(r: &EvalResult) -> (u64, u64, u64, u64, u64, bool) {
    (
        r.observations,
        r.annotated_triples,
        r.mu_hat.to_bits(),
        r.interval.lower().to_bits(),
        r.interval.upper().to_bits(),
        r.converged,
    )
}

#[test]
fn warm_start_snapshot_resumes_and_finishes_like_an_uninterrupted_run() {
    let kg = kg();
    let method = IntervalMethod::ahpd_default();
    let cfg = EvalConfig {
        stopping: StoppingPolicy::EveryUnit,
        ..EvalConfig::default()
    };
    let prepared = PreparedDesign::new(&kg, SamplingDesign::Twcs { m: 3 });

    // The same point on today's code: identical except that the reserved
    // field carries three absent entries instead of three present ones.
    let mut fresh = session(&kg, &prepared, &method, &cfg);
    drive(&kg, &mut fresh, 2, Some(12));
    assert!(
        fresh.stop_reason().is_none(),
        "stopped before the fixture point"
    );
    let today = fresh.snapshot().unwrap();
    assert_eq!(TWCS_EVERY_UNIT.len(), today.len() + 3 * WARM_ENTRY_BYTES);

    let mut resumed = EvaluationSession::resume(
        &kg,
        &prepared,
        &method,
        &cfg,
        SmallRng::seed_from_u64(0xDEAD_BEEF),
        TWCS_EVERY_UNIT,
    )
    .expect("a snapshot with warm-start entries resumes");
    assert_eq!(
        resumed.snapshot().unwrap(),
        today,
        "warm entries not discarded"
    );

    drive(&kg, &mut resumed, 2, None);
    let mut uninterrupted = session(&kg, &prepared, &method, &cfg);
    drive(&kg, &mut uninterrupted, 2, None);
    let (a, b) = (resumed.into_result(), uninterrupted.into_result());
    let (a, b) = (a.expect("resumed run stops"), b.expect("run stops"));
    assert_eq!(result_bits(&a), result_bits(&b));
    assert_eq!(a.cost_seconds.to_bits(), b.cost_seconds.to_bits());
    assert_eq!(a.stage1_draws, b.stage1_draws);
}

#[test]
fn srs_snapshot_bytes_are_unchanged() {
    let kg = kg();
    let method = IntervalMethod::ahpd_default();
    let cfg = EvalConfig::default();
    let prepared = PreparedDesign::new(&kg, SamplingDesign::Srs);
    let mut fresh = session(&kg, &prepared, &method, &cfg);
    drive(&kg, &mut fresh, 8, Some(10));
    assert!(
        fresh.stop_reason().is_none(),
        "stopped before the fixture point"
    );
    assert!(
        fresh.snapshot().unwrap() == SRS,
        "SRS snapshot bytes changed"
    );
}

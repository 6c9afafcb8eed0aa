//! Integration tests of the paper's statistical guarantees, end to end:
//! Theorems 1–3 observed through the public API, estimator unbiasedness
//! through the sampling pipeline, and credible-interval coverage through
//! the whole evaluation loop.

#[path = "../crates/intervals/tests/support/slsqp_oracle.rs"]
mod slsqp_oracle;

use kgae::intervals::{et_interval, hpd_interval, BetaPrior};
use kgae::prelude::*;
use kgae_core::repeat_evaluation;
use proptest::prelude::*;
use rand::SeedableRng;

#[test]
fn theorem_1_and_2_hpd_is_shortest_and_unique_across_the_posterior_space() {
    // Sweep posteriors the framework actually produces and verify the
    // solver agrees with the paper's SLSQP formulation wherever that
    // converges (uniqueness) and never exceeds ET (minimality).
    let (mut total, mut checked) = (0, 0);
    for prior in BetaPrior::UNINFORMATIVE {
        for n in [30u64, 100, 380] {
            for tau_frac in [0.0, 0.1, 0.5, 0.85, 0.99, 1.0] {
                let tau = ((n as f64) * tau_frac).round() as u64;
                let post = prior.posterior(tau, n);
                let brent = hpd_interval(&post, 0.05).unwrap();
                let et = et_interval(&post, 0.05).unwrap();
                assert!(brent.width() <= et.width() + 1e-9);
                total += 1;
                if let Some((l, u)) = slsqp_oracle::slsqp_hpd(&post, 0.05) {
                    checked += 1;
                    assert!((l - brent.lower()).abs() < 1e-6);
                    assert!((u - brent.upper()).abs() < 1e-6);
                }
            }
        }
    }
    // SLSQP stalls on the limiting and strongly skewed posteriors; it
    // must still converge on at least a third of the sweep.
    assert!(
        3 * checked >= total,
        "SLSQP converged on {checked} of {total}"
    );
}

#[test]
fn theorem_3_symmetric_posterior_equates_hpd_and_et() {
    // τ/n = 1/2 with a symmetric prior yields a symmetric posterior.
    let post = BetaPrior::UNIFORM.posterior(100, 200);
    let hpd = hpd_interval(&post, 0.05).unwrap();
    let et = et_interval(&post, 0.05).unwrap();
    assert!((hpd.lower() - et.lower()).abs() < 1e-7);
    assert!((hpd.upper() - et.upper()).abs() < 1e-7);
}

#[test]
fn estimators_are_unbiased_through_the_full_pipeline() {
    // Mean of μ̂ over repeated audits ≈ μ for both designs (the E[μ̂]=μ
    // constraint of the minimization problem).
    let kg = kgae::graph::datasets::dbpedia();
    for design in [SamplingDesign::Srs, SamplingDesign::Twcs { m: 3 }] {
        let runs = repeat_evaluation(
            &kg,
            design,
            &IntervalMethod::ahpd_default(),
            &EvalConfig::default(),
            80,
            17,
        );
        let mean = runs.mu_hats.iter().sum::<f64>() / runs.mu_hats.len() as f64;
        assert!(
            (mean - 0.85).abs() < 0.03,
            "{}: mean μ̂ = {mean}",
            design.name()
        );
    }
}

#[test]
fn credible_intervals_cover_the_truth_at_roughly_nominal_rate() {
    let kg = kgae::graph::datasets::nell();
    let runs = repeat_evaluation(
        &kg,
        SamplingDesign::Srs,
        &IntervalMethod::ahpd_default(),
        &EvalConfig::default(),
        150,
        23,
    );
    // Early stopping trims coverage below the fixed-n nominal level, but
    // it must stay in a credible band (the paper's reliability claim).
    assert!(runs.coverage() > 0.80, "coverage = {}", runs.coverage());
}

#[test]
fn alpha_orders_annotation_effort() {
    // Stricter confidence ⇒ more annotations (Figure 4's x-axis).
    let kg = kgae::graph::datasets::nell();
    let mut means = Vec::new();
    for alpha in [0.10, 0.05, 0.01] {
        let cfg = EvalConfig::default().with_alpha(alpha);
        let runs = repeat_evaluation(
            &kg,
            SamplingDesign::Srs,
            &IntervalMethod::ahpd_default(),
            &cfg,
            40,
            31,
        );
        means.push(runs.triples_summary().mean);
    }
    assert!(means[0] < means[1] && means[1] < means[2], "{means:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every (τ, n, α) the framework can produce yields an aHPD interval
    /// with exact posterior coverage 1-α under its winning prior.
    #[test]
    fn ahpd_interval_coverage_is_exact(
        n in 30u64..400,
        tau_frac in 0.0f64..=1.0,
        alpha in prop_oneof![Just(0.10), Just(0.05), Just(0.01)],
    ) {
        let tau = ((n as f64) * tau_frac).round() as u64;
        let mut state = kgae_core::SampleState::new_srs();
        for i in 0..n {
            state.record_triple(i < tau);
        }
        let sel = kgae_core::ahpd_select(&state, alpha, &BetaPrior::UNINFORMATIVE).unwrap();
        let post = BetaPrior::UNINFORMATIVE[sel.winner].posterior(tau, n);
        let mass = post.cdf(sel.interval.upper()) - post.cdf(sel.interval.lower());
        prop_assert!((mass - (1.0 - alpha)).abs() < 1e-6, "mass = {mass}");
        // And it is the smallest candidate.
        for c in &sel.candidates {
            prop_assert!(sel.interval.width() <= c.width() + 1e-9);
        }
    }

    /// Random small KGs: the evaluation loop terminates with coherent
    /// accounting, whatever the accuracy and clustering shape.
    #[test]
    fn evaluation_invariants_on_random_kgs(
        mu in 0.0f64..=1.0,
        clusters in 50u32..300,
        mean_size in 1.2f64..6.0,
        seed in 0u64..1000,
        twcs in proptest::bool::ANY,
    ) {
        let triples = ((f64::from(clusters) * mean_size) as u64).max(u64::from(clusters));
        let kg = kgae::graph::datasets::syn_scaled(triples, clusters, mu, seed);
        let design = if twcs { SamplingDesign::Twcs { m: 3 } } else { SamplingDesign::Srs };
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let r = evaluate(
            &kg,
            &OracleAnnotator,
            design,
            &IntervalMethod::ahpd_default(),
            &EvalConfig::default(),
            &mut rng,
        ).unwrap();
        prop_assert!(r.annotated_triples <= kg.num_triples());
        prop_assert!(r.annotated_entities <= u64::from(kg.num_clusters()));
        prop_assert!(r.annotated_entities <= r.annotated_triples);
        prop_assert!((0.0..=1.0).contains(&r.mu_hat));
        let expect = r.annotated_entities as f64 * 45.0 + r.annotated_triples as f64 * 25.0;
        prop_assert!((r.cost_seconds - expect).abs() < 1e-9);
        if r.converged && kg.num_triples() > r.annotated_triples {
            prop_assert!(r.interval.moe() <= 0.05 + 1e-12);
        }
    }
}

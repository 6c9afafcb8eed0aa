//! Interval-method dispatch: one enum covering every `1-α` interval the
//! experiments compare, applied uniformly to SRS and cluster samples.
//!
//! Two hot-path mechanisms live here alongside the dispatch:
//!
//! * **The posterior kernel** ([`Kernel`]): under SRS every interval and
//!   certificate is a pure function of the integer counts `(τ, n)` plus
//!   the `(prior, α)` configuration, so all SRS solves route through
//!   [`kgae_intervals::kernel`]'s canonical count-keyed functions. When a
//!   shared [`KernelCache`] is attached to the [`MethodState`] the solves
//!   are memoized process-wide; without one the same functions run
//!   directly, so cached and uncached runs are bit-identical by
//!   construction. (Cluster designs have fractional effective counts, so
//!   they call the same HPD solver on their effective-sample posteriors
//!   without memoization.)
//! * **Certified multi-step lookahead**
//!   ([`IntervalMethod::certified_skip_srs`] /
//!   [`IntervalMethod::certified_skip_cluster`]): from Theorem 1's width
//!   bound, compute how many future annotation units *provably* cannot
//!   satisfy `MoE ≤ ε`, so the evaluation loop skips interval
//!   construction (and even the one-step bound check) entirely until the
//!   first unit where stopping is achievable. The stopping decision is
//!   unchanged — every skipped step is one where the reference
//!   check-every-unit loop could not have stopped either. Under SRS the
//!   search is one memoized kernel op per prior ([`Kernel::srs_skip`]),
//!   and the prior set skips the minimum of its priors' skips; the
//!   cluster search shares the same [`find_certified_skip`] but runs
//!   on effective-sample posteriors, without memoization.

use crate::ahpd::{ahpd_select_posteriors, posteriors_for_state};
use crate::state::{DesignKind, SampleState};
use kgae_intervals::kernel::{find_certified_skip, MAX_SKIP};
use kgae_intervals::{
    et_interval, hpd_interval, hpd_width_achievable, wald_from_variance, wilson, BetaPrior,
    Interval, IntervalError, Kernel, KernelCache,
};
use kgae_stats::dist::Beta;
use std::sync::Arc;

/// Per-run solver state carried across the framework's successive calls:
/// the incrementally-advanced per-prior posteriors for SRS samples and an
/// optional handle on the process-wide posterior-kernel cache. Interval
/// construction only reads it: every solve is a pure function of the
/// sample.
#[derive(Debug, Clone, Default)]
pub struct MethodState {
    /// Per-prior posteriors `Beta(a + τ, b + n − τ)`, advanced by
    /// [`IntervalMethod::record_observation`]. Empty for methods without
    /// posteriors (Wald, Wilson). SRS interval construction routes
    /// through the count-keyed kernel instead of reading these, but the
    /// state keeps tracking them: they are part of the snapshot wire
    /// format, so byte-stable resumability does not depend on whether a
    /// kernel cache is attached.
    pub(crate) posteriors: Vec<Beta>,
    /// The `(τ, n)` the cached posteriors reflect.
    pub(crate) tracked: (u64, u64),
    /// Shared posterior-kernel cache. `None` solves every kernel
    /// directly through the same canonical functions — identical bits,
    /// no memoization. Never serialized: a resumed session re-attaches
    /// the host's cache (or none).
    pub(crate) kernel: Option<Arc<KernelCache>>,
}

impl MethodState {
    /// The dispatch handle for this state's SRS kernel solves.
    pub(crate) fn kernel(&self) -> Kernel<'_> {
        Kernel::new(self.kernel.as_deref())
    }

    /// Attaches the shared posterior-kernel cache; subsequent SRS solves
    /// memoize through it.
    pub(crate) fn attach_kernel(&mut self, kernel: Arc<KernelCache>) {
        self.kernel = Some(kernel);
    }
}

/// An interval-estimation method under evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum IntervalMethod {
    /// Wald CI (Eq. 5) — efficient but unreliable baseline.
    Wald,
    /// Wilson CI (Eq. 7) with Kish effective-sample-size adjustment under
    /// cluster designs — the frequentist state of the art.
    Wilson,
    /// Equal-tailed credible interval under one prior (Eq. 9).
    Et(BetaPrior),
    /// HPD credible interval under one prior (§4.3).
    Hpd(BetaPrior),
    /// The adaptive HPD algorithm over a set of priors (Algorithm 1).
    AHpd(Vec<BetaPrior>),
}

impl IntervalMethod {
    /// aHPD with the paper's default prior set {Kerman, Jeffreys,
    /// Uniform}.
    #[must_use]
    pub fn ahpd_default() -> IntervalMethod {
        IntervalMethod::AHpd(BetaPrior::UNINFORMATIVE.to_vec())
    }

    /// Display name used in tables.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            IntervalMethod::Wald => "Wald".into(),
            IntervalMethod::Wilson => "Wilson".into(),
            IntervalMethod::Et(p) => format!("ET[{}]", p.name),
            IntervalMethod::Hpd(p) => format!("HPD[{}]", p.name),
            IntervalMethod::AHpd(_) => "aHPD".into(),
        }
    }

    /// Canonical lower-case wire name (`"wald"`, `"et[jeffreys]"`,
    /// `"ahpd"`, ...); [`IntervalMethod::from_str`](std::str::FromStr)
    /// parses it back for every named-prior method.
    #[must_use]
    pub fn canonical_name(&self) -> String {
        self.name().to_ascii_lowercase()
    }

    /// The candidate priors of the Bayesian methods (`None` for the
    /// frequentist ones).
    pub(crate) fn priors(&self) -> Option<&[BetaPrior]> {
        match self {
            IntervalMethod::Hpd(p) | IntervalMethod::Et(p) => Some(std::slice::from_ref(p)),
            IntervalMethod::AHpd(ps) => Some(ps),
            IntervalMethod::Wald | IntervalMethod::Wilson => None,
        }
    }

    /// Fresh solver state for a run of [`Self::interval_stateful`] calls.
    #[must_use]
    pub fn new_state(&self) -> MethodState {
        let priors = self.priors().unwrap_or(&[]);
        MethodState {
            posteriors: priors
                .iter()
                .map(|p| Beta::new(p.a, p.b).expect("priors have positive parameters"))
                .collect(),
            tracked: (0, 0),
            kernel: None,
        }
    }

    /// Advances the per-prior posterior cache by one SRS annotation.
    ///
    /// O(1) per prior — the beta-function recurrence inside
    /// [`Beta::observe`] replaces the three `ln_gamma` evaluations a
    /// fresh construction would pay. Both loop variants (check-every-unit
    /// and certified lookahead) apply the identical per-observation
    /// update sequence, so their posteriors agree bit for bit.
    pub fn record_observation(&self, cache: &mut MethodState, success: bool) {
        if cache.posteriors.is_empty() {
            return;
        }
        for post in &mut cache.posteriors {
            *post = post.observe(success);
        }
        cache.tracked.1 += 1;
        if success {
            cache.tracked.0 += 1;
        }
    }

    /// Builds the `1-α` interval from the current sample.
    ///
    /// Degenerate cluster variance (a single stage-1 draw) yields the
    /// maximally uninformative sentinel interval `[μ̂-0.5, μ̂+0.5]`
    /// (MoE 0.5), so the stopping rule simply keeps sampling.
    pub fn interval(&self, state: &SampleState, alpha: f64) -> Result<Interval, IntervalError> {
        self.interval_stateful(state, alpha, &self.new_state())
    }

    /// [`Self::interval`] through a run's solver state, so SRS solves
    /// route through its attached kernel cache.
    pub fn interval_stateful(
        &self,
        state: &SampleState,
        alpha: f64,
        cache: &MethodState,
    ) -> Result<Interval, IntervalError> {
        match self {
            IntervalMethod::Wald => {
                let est = state.estimate();
                if !est.variance.is_finite() {
                    let mu = est.mu.clamp(0.0, 1.0);
                    return Ok(Interval::new(mu - 0.5, mu + 0.5));
                }
                Ok(wald_from_variance(
                    est.mu.clamp(0.0, 1.0),
                    est.variance,
                    alpha,
                )?)
            }
            IntervalMethod::Wilson => match state.kind() {
                DesignKind::Srs => cache.kernel().wilson(state.tau(), state.n(), alpha),
                DesignKind::Cluster => {
                    let eff = state.effective();
                    if state.draws() < 2 {
                        return Ok(Interval::new(eff.mu - 0.5, eff.mu + 0.5));
                    }
                    Ok(wilson(eff.mu, eff.n_eff, alpha)?)
                }
            },
            IntervalMethod::Et(prior) => match state.kind() {
                DesignKind::Srs => cache.kernel().et(prior, state.tau(), state.n(), alpha),
                DesignKind::Cluster => {
                    let eff = state.effective();
                    et_interval(&prior.posterior_effective(eff.mu, eff.n_eff)?, alpha)
                }
            },
            IntervalMethod::Hpd(prior) => match state.kind() {
                DesignKind::Srs => {
                    match cache.kernel().hpd(prior, state.tau(), state.n(), alpha) {
                        Ok(i) => Ok(i),
                        // No single HPD interval exists (U-shaped
                        // posterior from near-zero evidence): report the
                        // maximally uninformative sentinel so the loop
                        // keeps sampling instead of aborting.
                        Err(IntervalError::UShapedPosterior { .. }) => Ok(Interval::new(0.0, 1.0)),
                        Err(e) => Err(e),
                    }
                }
                DesignKind::Cluster => {
                    let eff = state.effective();
                    let post = prior.posterior_effective(eff.mu, eff.n_eff)?;
                    match hpd_interval(&post, alpha) {
                        Ok(i) => Ok(i),
                        Err(IntervalError::UShapedPosterior { .. }) => Ok(Interval::new(0.0, 1.0)),
                        Err(e) => Err(e),
                    }
                }
            },
            IntervalMethod::AHpd(priors) => match state.kind() {
                DesignKind::Srs => {
                    // Match ahpd_select's loud failure on an empty
                    // sample — a prior-only "posterior" interval would
                    // look plausible and hide the caller's bug.
                    assert!(state.n() > 0, "aHPD needs at least one annotation");
                    let kernel = cache.kernel();
                    let (tau, n) = (state.tau(), state.n());
                    // Strict `<` keeps the first minimal prior as winner,
                    // matching ahpd_select_posteriors' min_by tie-break.
                    let mut best: Option<Interval> = None;
                    for prior in priors {
                        let interval = match kernel.hpd(prior, tau, n, alpha) {
                            Ok(i) => i,
                            Err(IntervalError::UShapedPosterior { .. }) => Interval::new(0.0, 1.0),
                            Err(e) => return Err(e),
                        };
                        if best.is_none_or(|b| interval.width() < b.width()) {
                            best = Some(interval);
                        }
                    }
                    Ok(best.expect("aHPD requires at least one prior"))
                }
                DesignKind::Cluster => {
                    let posteriors = posteriors_for_state(state, priors)?;
                    Ok(ahpd_select_posteriors(&posteriors, alpha)?.interval)
                }
            },
        }
    }

    /// Exact one-step gate: can the *current* sample's `1-α` interval
    /// possibly satisfy `MoE ≤ ε`?
    ///
    /// For the HPD-family methods this evaluates [`hpd_width_achievable`]
    /// on the actual posteriors — the exact indicator `HPD width ≤ 2ε` —
    /// so full interval construction runs only at steps that actually
    /// stop (plus measure-zero boundary ties and shapes with no
    /// certificate). Methods without a certificate (Wald, Wilson)
    /// return `true` and always construct; ET gates on the HPD predicate
    /// (ET is at least as wide, so a negative gate is still sound).
    #[must_use]
    pub fn stop_possible_now(
        &self,
        state: &SampleState,
        alpha: f64,
        epsilon: f64,
        cache: &MethodState,
    ) -> bool {
        let Some(priors) = self.priors() else {
            return true;
        };
        let width = 2.0 * epsilon;
        match state.kind() {
            DesignKind::Srs => {
                let kernel = cache.kernel();
                priors
                    .iter()
                    .any(|prior| kernel.achievable(prior, state.tau(), state.n(), alpha, width))
            }
            DesignKind::Cluster => {
                let eff = state.effective();
                priors.iter().any(|prior| {
                    prior
                        .posterior_effective(eff.mu, eff.n_eff)
                        .map_or(true, |post| hpd_width_achievable(&post, alpha, width))
                })
            }
        }
    }

    /// Certified SRS lookahead: the number of further annotations that
    /// provably cannot satisfy `MoE ≤ ε`, from the current `(τ, n)`.
    ///
    /// The prior set can stop at a horizon iff one of its priors can, and
    /// each prior's predicate is monotone in the horizon, so the set's
    /// skip is the minimum over priors of [`Kernel::srs_skip`] — one
    /// memoized kernel op per prior, which probes the exact best-window
    /// predicate [`hpd_width_achievable`] at the extreme reachable
    /// outcomes of each horizon.
    ///
    /// Returns 0 (check the very next annotation) for methods without a
    /// certified bound (Wald, Wilson).
    #[must_use]
    pub fn certified_skip_srs(
        &self,
        state: &SampleState,
        alpha: f64,
        epsilon: f64,
        cache: &MethodState,
    ) -> u64 {
        let Some(priors) = self.priors() else {
            return 0;
        };
        debug_assert_eq!(state.kind(), DesignKind::Srs);
        let (tau, n) = (state.tau(), state.n());
        let kernel = cache.kernel();
        priors
            .iter()
            .map(|prior| kernel.srs_skip(prior, tau, n, alpha, 2.0 * epsilon))
            .min()
            .unwrap_or(MAX_SKIP)
    }

    /// Certified cluster lookahead: the number of further stage-1 draws
    /// that provably cannot satisfy `MoE ≤ ε`.
    ///
    /// The effective sample size after `j` more draws is bounded by
    /// `n_eff' = μ̂'(1−μ̂')/V̂' ≤ (d+j)(d+j−1)/(4·SS)` because the sum of
    /// squared deviations `SS` of the per-draw estimates is monotone
    /// non-decreasing under Welford updates, together with the Kish
    /// clamp bound `n_eff' ≤ 10³·n'` (each draw annotates at most
    /// `max_draw_size` triples). The reachable estimate-mean range after
    /// `j` draws is `[μ̂·d/(d+j), (μ̂·d+j)/(d+j)]` for sample-mean
    /// designs; Hansen–Hurwitz per-draw estimates are unbounded, so SCS
    /// widens the range to `[0, 1]` and admits the degenerate
    /// `deff = 1 ⇒ n_eff' = n'` case. Zero draw spread certifies
    /// nothing (the Kish clamp can explode `n_eff` on the next draw), so
    /// the method returns 0 and the loop checks every draw.
    #[must_use]
    pub fn certified_skip_cluster(
        &self,
        state: &SampleState,
        alpha: f64,
        epsilon: f64,
        max_draw_size: u64,
        hansen_hurwitz: bool,
    ) -> u64 {
        let Some(priors) = self.priors() else {
            return 0;
        };
        debug_assert_eq!(state.kind(), DesignKind::Cluster);
        let ss = state.draw_sum_sq_dev();
        if ss <= 0.0 {
            return 0;
        }
        let d = state.draws() as u64;
        let n = state.n();
        let mu = state.draw_mean().clamp(0.0, 1.0);
        find_certified_skip(|j| {
            let d_j = (d + j) as f64;
            let n_j = (n + j * max_draw_size.max(1)) as f64;
            let mut nu = (d_j * (d_j - 1.0) / (4.0 * ss)).min(1e3 * n_j);
            let (mu_lo, mu_hi) = if hansen_hurwitz {
                nu = nu.max(n_j);
                (0.0, 1.0)
            } else {
                (mu * d as f64 / d_j, (mu * d as f64 + j as f64) / d_j)
            };
            let nu = nu.max(1.0);
            priors.iter().any(|prior| {
                [mu_lo, mu_hi].into_iter().any(|mu_p| {
                    let post = Beta::new(prior.a + mu_p * nu, prior.b + (1.0 - mu_p) * nu)
                        .expect("positive posterior parameters");
                    hpd_width_achievable(&post, alpha, 2.0 * epsilon)
                })
            })
        })
    }
}

/// Error parsing an interval-method name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodParseError(
    /// The offending name.
    pub String,
);

impl std::fmt::Display for MethodParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown interval method {:?} (expected wald, wilson, ahpd, \
             or et/hpd with an optional [kerman|jeffreys|uniform] prior)",
            self.0
        )
    }
}

impl std::error::Error for MethodParseError {}

impl std::str::FromStr for IntervalMethod {
    type Err = MethodParseError;

    /// Parses a method name, case-insensitively: `wald`, `wilson`,
    /// `ahpd` (the paper's default prior set), and `et` / `hpd` with an
    /// optional named prior in brackets (`et[kerman]`, `hpd[uniform]`;
    /// Jeffreys when omitted). Informative custom priors have no wire
    /// name — construct those variants directly.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.trim().to_ascii_lowercase();
        let err = || MethodParseError(s.to_string());
        match lower.as_str() {
            "wald" => return Ok(IntervalMethod::Wald),
            "wilson" => return Ok(IntervalMethod::Wilson),
            "ahpd" => return Ok(IntervalMethod::ahpd_default()),
            _ => {}
        }
        let (base, prior) = match lower.split_once('[') {
            None => (lower.as_str(), BetaPrior::JEFFREYS),
            Some((base, rest)) => {
                let name = rest.strip_suffix(']').ok_or_else(err)?;
                let prior = match name {
                    "kerman" => BetaPrior::KERMAN,
                    "jeffreys" => BetaPrior::JEFFREYS,
                    "uniform" => BetaPrior::UNIFORM,
                    _ => return Err(err()),
                };
                (base, prior)
            }
        };
        match base {
            "et" => Ok(IntervalMethod::Et(prior)),
            "hpd" => Ok(IntervalMethod::Hpd(prior)),
            _ => Err(err()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn srs_state(tau: u64, n: u64) -> SampleState {
        let mut s = SampleState::new_srs();
        for i in 0..n {
            s.record_triple(i < tau);
        }
        s
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(IntervalMethod::Wald.name(), "Wald");
        assert_eq!(IntervalMethod::Wilson.name(), "Wilson");
        assert_eq!(IntervalMethod::Et(BetaPrior::KERMAN).name(), "ET[Kerman]");
        assert_eq!(
            IntervalMethod::Hpd(BetaPrior::UNIFORM).name(),
            "HPD[Uniform]"
        );
        assert_eq!(IntervalMethod::ahpd_default().name(), "aHPD");
    }

    #[test]
    fn all_methods_produce_covering_intervals_on_srs() {
        let state = srs_state(27, 30);
        let methods = [
            IntervalMethod::Wald,
            IntervalMethod::Wilson,
            IntervalMethod::Et(BetaPrior::JEFFREYS),
            IntervalMethod::Hpd(BetaPrior::KERMAN),
            IntervalMethod::ahpd_default(),
        ];
        for m in methods {
            let i = m.interval(&state, 0.05).unwrap();
            assert!(i.contains(0.9), "{} misses the MLE: {i}", m.name());
            assert!(i.width() > 0.0 && i.width() < 1.0, "{}: {i}", m.name());
        }
    }

    #[test]
    fn wald_zero_width_on_unanimous_sample() {
        // Example 1 pathology reproduced through the dispatch layer.
        let state = srs_state(30, 30);
        let i = IntervalMethod::Wald.interval(&state, 0.05).unwrap();
        assert_eq!(i.width(), 0.0);
        // The Bayesian methods keep a sane interval instead.
        let h = IntervalMethod::Hpd(BetaPrior::KERMAN)
            .interval(&state, 0.05)
            .unwrap();
        // Reference width 0.04792 (independent numeric integration of the
        // Beta(30 + 1/3, 1/3) tail).
        assert!((h.width() - 0.04792).abs() < 5e-4, "width = {}", h.width());
        assert_eq!(h.upper(), 1.0);
    }

    #[test]
    fn single_cluster_draw_yields_sentinel() {
        let mut s = SampleState::new_cluster();
        s.record_cluster_draw(1.0, 3, 3);
        let w = IntervalMethod::Wald.interval(&s, 0.05).unwrap();
        assert!((w.moe() - 0.5).abs() < 1e-12);
        let wi = IntervalMethod::Wilson.interval(&s, 0.05).unwrap();
        assert!((wi.moe() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hpd_never_wider_than_et_through_dispatch() {
        for tau in [0u64, 1, 15, 29, 30] {
            let state = srs_state(tau, 30);
            let hpd = IntervalMethod::Hpd(BetaPrior::KERMAN)
                .interval(&state, 0.05)
                .unwrap();
            let et = IntervalMethod::Et(BetaPrior::KERMAN)
                .interval(&state, 0.05)
                .unwrap();
            assert!(hpd.width() <= et.width() + 1e-9, "τ = {tau}");
        }
    }

    #[test]
    fn ahpd_at_least_as_good_as_every_fixed_prior() {
        for tau in [0u64, 3, 15, 27, 30] {
            let state = srs_state(tau, 30);
            let a = IntervalMethod::ahpd_default()
                .interval(&state, 0.05)
                .unwrap();
            for p in BetaPrior::UNINFORMATIVE {
                let h = IntervalMethod::Hpd(p).interval(&state, 0.05).unwrap();
                assert!(
                    a.width() <= h.width() + 1e-12,
                    "τ={tau}: aHPD {a} vs HPD[{}] {h}",
                    p.name
                );
            }
        }
    }

    #[test]
    fn incremental_posteriors_match_fresh_construction() {
        // Drive the cache one observation at a time; intervals must
        // equal a cold state's bit for bit, and the incrementally-observed
        // posteriors (kept for snapshot-byte stability) must track the
        // fresh count construction.
        let method = IntervalMethod::ahpd_default();
        let mut cache = method.new_state();
        let mut state = SampleState::new_srs();
        for i in 0..120u64 {
            let label = i % 11 != 5;
            state.record_triple(label);
            method.record_observation(&mut cache, label);
            assert_eq!(cache.tracked, (state.tau(), state.n()));
            if i >= 29 && i % 13 == 0 {
                let carried = method.interval_stateful(&state, 0.05, &cache).unwrap();
                let cold = method.interval(&state, 0.05).unwrap();
                assert_eq!(
                    (carried.lower().to_bits(), carried.upper().to_bits()),
                    (cold.lower().to_bits(), cold.upper().to_bits()),
                    "step {i}: carried {carried} vs cold {cold}"
                );
                for (post, prior) in cache.posteriors.iter().zip(BetaPrior::UNINFORMATIVE) {
                    let fresh = prior.posterior(state.tau(), state.n());
                    assert!(
                        (post.alpha() - fresh.alpha()).abs() < 1e-9
                            && (post.beta() - fresh.beta()).abs() < 1e-9,
                        "step {i}: incremental posterior drifted from counts"
                    );
                }
            }
        }
    }

    #[test]
    fn cached_and_uncached_states_agree_bit_for_bit() {
        // The tentpole invariant at the dispatch layer: attaching a
        // shared kernel cache changes cost, not a single output bit.
        let shared = Arc::new(KernelCache::new());
        let methods = [
            IntervalMethod::Wilson,
            IntervalMethod::Et(BetaPrior::KERMAN),
            IntervalMethod::Hpd(BetaPrior::JEFFREYS),
            IntervalMethod::ahpd_default(),
        ];
        for method in methods {
            let plain = method.new_state();
            let mut cached = method.new_state();
            cached.attach_kernel(Arc::clone(&shared));
            for (tau, n) in [(1u64, 1u64), (5, 30), (27, 30), (30, 30), (88, 100)] {
                let state = srs_state(tau, n);
                let a = method.interval_stateful(&state, 0.05, &plain).unwrap();
                let b = method.interval_stateful(&state, 0.05, &cached).unwrap();
                assert_eq!(
                    (a.lower().to_bits(), a.upper().to_bits()),
                    (b.lower().to_bits(), b.upper().to_bits()),
                    "{} at (τ={tau}, n={n}): {a} vs {b}",
                    method.name()
                );
                assert_eq!(
                    method.stop_possible_now(&state, 0.05, 0.05, &plain),
                    method.stop_possible_now(&state, 0.05, 0.05, &cached),
                );
                assert_eq!(
                    method.certified_skip_srs(&state, 0.05, 0.05, &plain),
                    method.certified_skip_srs(&state, 0.05, 0.05, &cached),
                );
            }
        }
        let stats = shared.stats();
        assert!(stats.lookups() > 0, "cached states never hit the kernel");
    }

    #[test]
    fn certified_skip_srs_is_sound_against_brute_force() {
        // Every skipped step must have an actual constructed MoE > ε —
        // the defining property that keeps the stopping point identical.
        for (tau, n) in [(27u64, 30u64), (30, 30), (15, 30), (0, 30), (90, 100)] {
            for method in [
                IntervalMethod::ahpd_default(),
                IntervalMethod::Hpd(BetaPrior::KERMAN),
                IntervalMethod::Et(BetaPrior::UNIFORM),
            ] {
                let state = srs_state(tau, n);
                let skip = method.certified_skip_srs(&state, 0.05, 0.05, &method.new_state());
                // Brute-force: for each skipped horizon k and each
                // achievable τ', the constructed interval is wider than ε.
                for k in 1..=skip.min(60) {
                    for t in [0u64, k / 2, k] {
                        let future = srs_state(tau + t, n + k);
                        let i = method.interval(&future, 0.05).unwrap();
                        assert!(
                            i.moe() > 0.05,
                            "{} at (τ={tau}, n={n}): skipped k={k}, τ'=+{t} \
                             but moe = {} ≤ ε",
                            method.name(),
                            i.moe()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn certified_skip_srs_reaches_stoppable_horizons() {
        // The lookahead must not be trivially zero: a central sample
        // (μ̂ = 0.5 needs ~380 annotations to stop at ε = 0.05) should
        // certify a long skip even under the loose f(mode) bound.
        let state = srs_state(15, 30);
        let ahpd = IntervalMethod::ahpd_default();
        let skip = ahpd.certified_skip_srs(&state, 0.05, 0.05, &ahpd.new_state());
        assert!(skip >= 30, "skip = {skip} is uselessly small");
        // And frequentist methods certify nothing.
        let wald = IntervalMethod::Wald;
        assert_eq!(
            wald.certified_skip_srs(&state, 0.05, 0.05, &wald.new_state()),
            0
        );
        let wilson = IntervalMethod::Wilson;
        assert_eq!(
            wilson.certified_skip_srs(&state, 0.05, 0.05, &wilson.new_state()),
            0
        );
    }

    #[test]
    fn certified_skip_cluster_requires_draw_spread() {
        let mut s = SampleState::new_cluster();
        for _ in 0..10 {
            s.record_cluster_draw(0.9, 9, 10);
        }
        // Zero spread: the Kish clamp could explode n_eff next draw —
        // nothing is certifiable.
        assert_eq!(
            IntervalMethod::ahpd_default().certified_skip_cluster(&s, 0.05, 0.05, 3, false),
            0
        );
    }

    #[test]
    fn certified_skip_cluster_is_sound_against_simulation() {
        // Whatever mixture of future draws arrives, no skipped draw may
        // reach MoE ≤ ε. Simulate adversarially favorable futures: all
        // draws agreeing on the majority side at several sizes.
        let method = IntervalMethod::ahpd_default();
        let mut s = SampleState::new_cluster();
        for i in 0..12 {
            let m = if i % 3 == 0 { 1.0 } else { 0.5 };
            s.record_cluster_draw(m, (m * 2.0) as u64, 2);
        }
        let skip = method.certified_skip_cluster(&s, 0.05, 0.05, 3, false);
        for j in 1..=skip.min(40) {
            for future_mean in [0.0, 1.0] {
                let mut fut = s.clone();
                for _ in 0..j {
                    fut.record_cluster_draw(future_mean, (future_mean * 3.0) as u64, 3);
                }
                let i = method.interval(&fut, 0.05).unwrap();
                assert!(
                    i.moe() > 0.05,
                    "skipped draw {j} (future mean {future_mean}) has moe {}",
                    i.moe()
                );
            }
        }
    }

    /// The joint prior-set lookahead: one exponential + binary search
    /// whose probe ORs every prior's `achievable` verdict at the extreme
    /// reachable outcomes. The reference that the per-prior minimum in
    /// [`IntervalMethod::certified_skip_srs`] must equal.
    fn joint_certified_skip(
        priors: &[BetaPrior],
        kernel: &Kernel<'_>,
        tau: u64,
        n: u64,
        alpha: f64,
        epsilon: f64,
    ) -> u64 {
        find_certified_skip(|k| {
            let n_k = n + k;
            let mut candidates = [tau, tau + k, tau + k - 1, tau + 1];
            candidates.sort_unstable();
            let mut prev = u64::MAX;
            for &t in &candidates {
                if t == prev || t < tau || t > tau + k {
                    continue;
                }
                prev = t;
                for prior in priors {
                    if kernel.achievable(prior, t, n_k, alpha, 2.0 * epsilon) {
                        return true;
                    }
                }
            }
            false
        })
    }

    #[test]
    fn per_prior_skip_minimum_equals_the_joint_search() {
        // The prior set's predicate is the OR of per-prior predicates,
        // each monotone in the horizon, so the minimum of per-prior skips
        // must equal the joint search exactly — with and without a cache.
        let informative = BetaPrior::informative(18.0, 2.0).unwrap();
        let sets = [
            BetaPrior::UNINFORMATIVE.to_vec(),
            vec![BetaPrior::JEFFREYS, informative],
        ];
        // Every τ at small n (where the monotone-shape transitions live),
        // then a τ stride at larger n; the uncached pass takes a coarser
        // sub-grid to stay fast under the debug profile.
        let grid = |n_stride: u64, tau_stride: u64| {
            (1..=30u64)
                .chain((40..=420).step_by(n_stride as usize))
                .flat_map(move |n| {
                    let stride = if n <= 30 { 1 } else { tau_stride };
                    (0..=n)
                        .step_by(stride as usize)
                        .chain([n - 1, n])
                        .map(move |tau| (tau, n))
                })
        };
        let shared = Arc::new(KernelCache::new());
        for priors in &sets {
            let method = IntervalMethod::AHpd(priors.clone());
            let mut cached = method.new_state();
            cached.attach_kernel(Arc::clone(&shared));
            let plain = method.new_state();
            for (solver, n_stride, tau_stride) in [(&cached, 20, 7), (&plain, 95, 41)] {
                for epsilon in [0.05, 0.03] {
                    for (tau, n) in grid(n_stride, tau_stride) {
                        let state = srs_state(tau, n);
                        let joint =
                            joint_certified_skip(priors, &solver.kernel(), tau, n, 0.05, epsilon);
                        assert_eq!(
                            method.certified_skip_srs(&state, 0.05, epsilon, solver),
                            joint,
                            "τ={tau} n={n} ε={epsilon} priors={:?} cached={}",
                            priors.iter().map(|p| p.name).collect::<Vec<_>>(),
                            solver.kernel().is_cached(),
                        );
                    }
                }
            }
        }
    }
}

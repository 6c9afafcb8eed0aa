//! The in-process engine workloads: `EvaluationSession` poll/submit at
//! batch 1 on one thread, round-robin over the four dataset twins with
//! one shared `KernelCache`, and the traced variant that times the
//! sampling and graph layers through decorators.

use crate::stats::{campaign_seed, median, peak_rss_mb, Histogram, Report};
use kgae_core::{
    evaluate_prepared, AnnotationRequest, EvalConfig, EvaluationSession, IntervalMethod,
    OracleAnnotator, PreparedDesign, SamplingDesign, StopReason,
};
use kgae_graph::{datasets, ClusterId, CompactKg, GroundTruth, KnowledgeGraph, TripleId};
use kgae_intervals::{KernelCache, KernelCacheStats};
use kgae_sampling::driver::build_driver;
use kgae_sampling::{
    pps_by_size_table, AliasTable, DesignDriver, DriverStateError, SampledTriple, UnitEstimator,
};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinct campaigns per cycle. Campaign `j` replays campaign
/// `j % CYCLE`, so the uncached reference check costs one cycle however
/// long the run is, and `triples_per_campaign` repeats exactly for a
/// seed.
pub const CYCLE: u64 = 512;

/// Times the set-up is repeated; `setup_s` is the median. A set-up
/// takes about a millisecond, so many repetitions are cheap.
const SETUP_REPS: usize = 15;

/// The four paper twins, in round-robin order.
pub const TWINS: [&str; 4] = ["yago", "nell", "dbpedia", "factbench"];

fn twin(name: &str) -> CompactKg {
    match name {
        "yago" => datasets::yago(),
        "nell" => datasets::nell(),
        "dbpedia" => datasets::dbpedia(),
        "factbench" => datasets::factbench(),
        other => unreachable!("unknown twin {other}"),
    }
}

/// What a finished campaign reports; equality is bit-exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    pub observations: u64,
    pub triples: u64,
    pub mu_bits: u64,
    pub moe: bool,
}

/// Time spent inside the engine's two calls, as the caller sees it.
#[derive(Default, Clone)]
pub struct CallTimes {
    pub poll: Histogram,
    pub submit: Histogram,
    /// One poll and the submit of its labels: the engine's request.
    /// Single calls would not do: polls are half the calls and much
    /// cheaper than submits, so a call median sits on the edge of the
    /// poll distribution.
    pub round: Histogram,
    pub annotations: u64,
}

/// The run's inputs: twins, prepared designs and the shared cache.
pub struct Engines {
    kgs: Vec<CompactKg>,
    prepared: Vec<PreparedDesign>,
    design: SamplingDesign,
    method: IntervalMethod,
    config: EvalConfig,
    seed: u64,
    cache: Arc<KernelCache>,
}

impl Engines {
    pub fn new(design: SamplingDesign, seed: u64) -> Self {
        let kgs: Vec<CompactKg> = TWINS.iter().map(|name| twin(name)).collect();
        let prepared = kgs
            .iter()
            .map(|kg| PreparedDesign::new(kg, design))
            .collect();
        Self {
            kgs,
            prepared,
            design,
            method: IntervalMethod::ahpd_default(),
            config: EvalConfig::default(),
            seed,
            cache: Arc::new(KernelCache::new()),
        }
    }

    /// Twin index and RNG seed of campaign `j`.
    fn campaign(&self, j: u64) -> (usize, u64) {
        let k = j % CYCLE;
        (
            (k % TWINS.len() as u64) as usize,
            campaign_seed(self.seed, k),
        )
    }

    /// Runs campaign `j` through the untraced engine.
    pub fn run(&self, j: u64, times: &mut CallTimes) -> Result<Outcome, String> {
        let (t, seed) = self.campaign(j);
        let kg = &self.kgs[t];
        let mut session = EvaluationSession::from_prepared(
            kg,
            &self.prepared[t],
            &self.method,
            &self.config,
            SmallRng::seed_from_u64(seed),
        );
        session.set_kernel_cache(Arc::clone(&self.cache));
        drive(&mut session, kg, times)
    }

    /// Runs campaign `j` with the sampling and graph layers decorated.
    fn run_traced(
        &self,
        j: u64,
        tracer: &Tracer<'_>,
        times: &mut CallTimes,
    ) -> Result<Outcome, String> {
        let (t, seed) = self.campaign(j);
        let kg: &dyn KnowledgeGraph = &tracer.kgs[t];
        let inner = build_driver(
            kg,
            self.design.spec(),
            tracer.tables[t].clone(),
            Some(self.prepared[t].max_draw_size()),
        );
        let driver = Box::new(TimedDriver {
            inner,
            layer: Arc::clone(&tracer.sampling),
        });
        let mut session = EvaluationSession::with_driver(
            kg,
            driver,
            self.design,
            &self.method,
            &self.config,
            SmallRng::seed_from_u64(seed),
        );
        session.set_kernel_cache(Arc::clone(&self.cache));
        drive(&mut session, &self.kgs[t], times)
    }

    /// The uncached reference for campaign `k` of the cycle.
    fn reference(&self, k: u64) -> Result<Outcome, String> {
        let (t, seed) = self.campaign(k);
        let result = evaluate_prepared(
            &self.kgs[t],
            &OracleAnnotator,
            &self.prepared[t],
            &self.method,
            &self.config,
            &mut SmallRng::seed_from_u64(seed),
        )
        .map_err(|e| format!("reference campaign {k}: {e}"))?;
        Ok(Outcome {
            observations: result.observations,
            triples: result.annotated_triples,
            mu_bits: result.mu_hat.to_bits(),
            moe: result.converged,
        })
    }

    /// One cycle through the untraced engine.
    fn cycle(&self, times: &mut CallTimes) -> Vec<Result<Outcome, String>> {
        (0..CYCLE).map(|j| self.run(j, times)).collect()
    }
}

/// The closed annotation loop at batch 1: poll, label from ground
/// truth, submit, until the session stops.
fn drive<R: RngCore>(
    session: &mut EvaluationSession<'_, R>,
    truth: &CompactKg,
    times: &mut CallTimes,
) -> Result<Outcome, String> {
    let mut request = AnnotationRequest::default();
    let mut labels = Vec::new();
    loop {
        let t0 = Instant::now();
        let more = session
            .next_request_into(1, &mut request)
            .map_err(|e| format!("poll: {e}"))?;
        let t1 = Instant::now();
        times.poll.record(t1 - t0);
        if !more {
            times.round.record(t1 - t0);
            break;
        }
        labels.clear();
        labels.extend(request.triples.iter().map(|st| truth.is_correct(st.triple)));
        let t2 = Instant::now();
        session
            .submit(&labels)
            .map_err(|e| format!("submit: {e}"))?;
        let t3 = Instant::now();
        times.submit.record(t3 - t2);
        times.round.record(t3 - t0);
        times.annotations += labels.len() as u64;
    }
    let result = session.result().ok_or("stopped session has no result")?;
    Ok(Outcome {
        observations: result.observations,
        triples: result.annotated_triples,
        mu_bits: result.mu_hat.to_bits(),
        moe: session.stop_reason() == Some(StopReason::MoeSatisfied),
    })
}

// ---------------------------------------------------------------------
// Tracing decorators
// ---------------------------------------------------------------------

/// Calls, items and busy time of one layer. Relaxed atomics: the
/// counters publish no other data, and only one thread drives them.
#[derive(Default)]
pub struct LayerCounter {
    calls: AtomicU64,
    items: AtomicU64,
    busy_ns: AtomicU64,
}

impl LayerCounter {
    fn add(&self, items: u64, busy: Duration) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.items.fetch_add(items, Ordering::Relaxed);
        self.busy_ns
            .fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
    }

    /// `(calls, items, busy_ns)` so far.
    pub fn read(&self) -> (u64, u64, u64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.items.load(Ordering::Relaxed),
            self.busy_ns.load(Ordering::Relaxed),
        )
    }
}

/// A `KnowledgeGraph` that times every call into the graph it wraps.
pub struct TimedKg<'a> {
    pub inner: &'a dyn KnowledgeGraph,
    pub layer: Arc<LayerCounter>,
}

impl TimedKg<'_> {
    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = f();
        self.layer.add(0, start.elapsed());
        value
    }
}

impl KnowledgeGraph for TimedKg<'_> {
    fn num_triples(&self) -> u64 {
        self.timed(|| self.inner.num_triples())
    }

    fn num_clusters(&self) -> u32 {
        self.timed(|| self.inner.num_clusters())
    }

    fn cluster_size(&self, c: ClusterId) -> u64 {
        self.timed(|| self.inner.cluster_size(c))
    }

    fn cluster_triples(&self, c: ClusterId) -> Range<u64> {
        self.timed(|| self.inner.cluster_triples(c))
    }

    fn cluster_of(&self, t: TripleId) -> ClusterId {
        self.timed(|| self.inner.cluster_of(t))
    }

    fn avg_cluster_size(&self) -> f64 {
        self.timed(|| self.inner.avg_cluster_size())
    }
}

/// A `DesignDriver` that times every unit the wrapped driver draws.
pub struct TimedDriver<'a> {
    pub inner: Box<dyn DesignDriver + Send + 'a>,
    pub layer: Arc<LayerCounter>,
}

impl DesignDriver for TimedDriver<'_> {
    fn next_unit(
        &mut self,
        rng: &mut dyn RngCore,
        out: &mut Vec<SampledTriple>,
    ) -> Option<ClusterId> {
        let start = Instant::now();
        let unit = self.inner.next_unit(rng, out);
        self.layer.add(out.len() as u64, start.elapsed());
        unit
    }

    fn estimator(&self) -> UnitEstimator {
        self.inner.estimator()
    }

    fn max_unit_size(&self) -> u64 {
        self.inner.max_unit_size()
    }

    fn units_drawn(&self) -> u64 {
        self.inner.units_drawn()
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        self.inner.save_state(out);
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), DriverStateError> {
        self.inner.restore_state(bytes)
    }
}

/// Per-twin decorated graphs and PPS tables, plus the layer counters.
pub struct Tracer<'a> {
    kgs: Vec<TimedKg<'a>>,
    tables: Vec<Option<Arc<AliasTable>>>,
    sampling: Arc<LayerCounter>,
    graph: Arc<LayerCounter>,
}

impl<'a> Tracer<'a> {
    pub fn new(engines: &'a Engines) -> Self {
        let graph = Arc::new(LayerCounter::default());
        Self {
            kgs: engines
                .kgs
                .iter()
                .map(|kg| TimedKg {
                    inner: kg,
                    layer: Arc::clone(&graph),
                })
                .collect(),
            // The same table `PreparedDesign` builds for PPS designs.
            tables: engines
                .kgs
                .iter()
                .map(|kg| match engines.design {
                    SamplingDesign::Twcs { .. } | SamplingDesign::Wcs => {
                        Some(Arc::new(pps_by_size_table(kg)))
                    }
                    SamplingDesign::Srs | SamplingDesign::Scs => None,
                })
                .collect(),
            sampling: Arc::new(LayerCounter::default()),
            graph,
        }
    }
}

// ---------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------

/// Tallies one campaign: a failure unless it stopped on the MoE, and a
/// failed check too unless it reproduced `want` bit for bit.
fn tally(
    report: &mut Report,
    what: &str,
    j: u64,
    got: Result<Outcome, String>,
    want: Option<&Outcome>,
) {
    report.attempted += 1;
    match got {
        Ok(o) => {
            if !o.moe {
                report.fail(format!("{what} campaign {j} not stopped by the MoE"));
            }
            if let Some(want) = want.filter(|w| **w != o) {
                report.fail(format!("{what} campaign {j} differs from its baseline"));
                report.check(false, || {
                    format!("{what} campaign {j}: {o:?} differs from the baseline {want:?}")
                });
            }
        }
        Err(e) => report.fail(format!("{what} campaign {j}: {e}")),
    }
}

/// Tallies a cycle's outcomes against the baseline cycle.
fn check_cycle(
    report: &mut Report,
    what: &str,
    outcomes: Vec<Result<Outcome, String>>,
    baseline: &[Outcome],
) {
    for (j, (got, want)) in outcomes.into_iter().zip(baseline).enumerate() {
        tally(report, what, j as u64, got, Some(want));
    }
}

/// The warm-up cycle: fills the kernel cache and yields the baseline
/// every later campaign must reproduce.
fn warm_up(engines: &Engines, report: &mut Report) -> Vec<Outcome> {
    let outcomes = engines.cycle(&mut CallTimes::default());
    let mut baseline = Vec::with_capacity(CYCLE as usize);
    for (j, o) in outcomes.into_iter().enumerate() {
        baseline.push(o.clone().unwrap_or(Outcome {
            observations: 0,
            triples: 0,
            mu_bits: 0,
            moe: false,
        }));
        tally(report, "warm-up", j as u64, o, None);
    }
    baseline
}

/// The uncached `evaluate_prepared` reference for every campaign of the
/// cycle must equal the baseline bit for bit.
fn check_reference(engines: &Engines, baseline: &[Outcome], report: &mut Report) {
    for (k, want) in baseline.iter().enumerate() {
        match engines.reference(k as u64) {
            Ok(r) => report.check(r == *want, || {
                format!("campaign {k}: {want:?} differs from the uncached reference {r:?}")
            }),
            Err(e) => report.check(false, || e),
        }
    }
}

/// The untraced run: set-up, warm-up cycle, timed closed loop, checks.
pub fn run_e2e(design: SamplingDesign, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::new();
    // Each set-up is dropped before the next one starts.
    let engines = loop {
        let start = Instant::now();
        let engines = Engines::new(design, seed);
        setups.push(start.elapsed().as_secs_f64());
        if setups.len() == SETUP_REPS {
            break engines;
        }
    };
    let baseline = warm_up(&engines, &mut report);

    let mut times = CallTimes::default();
    let mut campaign_hist = Histogram::default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut j = 0u64;
    let mut now = start;
    while now < deadline {
        let outcome = engines.run(j, &mut times);
        let done = Instant::now();
        campaign_hist.record(done - now);
        now = done;
        tally(
            &mut report,
            "timed",
            j,
            outcome,
            Some(&baseline[(j % CYCLE) as usize]),
        );
        j += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    let peak = peak_rss_mb("self");
    check_reference(&engines, &baseline, &mut report);

    let triples: u64 = baseline.iter().map(|o| o.triples).sum();
    report.push_noted(
        "setup_s",
        median(&setups),
        "s",
        format!("median of {SETUP_REPS} set-ups"),
    );
    report.push_noted(
        "campaigns_per_s",
        j as f64 / wall,
        "1/s",
        format!("{j} campaigns in {wall:.3} s"),
    );
    report.push_noted(
        "ns_per_annotation",
        wall * 1e9 / times.annotations.max(1) as f64,
        "ns",
        format!("{} annotations", times.annotations),
    );
    report.push_noted(
        "triples_per_campaign",
        triples as f64 / CYCLE as f64,
        "count",
        format!("mean over the {CYCLE} distinct campaigns"),
    );
    report.push_campaign_times(&campaign_hist);
    report.push_ok_ratio();
    match peak {
        Ok(mb) => report.push_noted(
            "peak_rss_mb",
            mb,
            "MB",
            "VmHWM of the benchmark process".into(),
        ),
        Err(e) => report.check(false, || e),
    }
    report.push_noted(
        "requests_per_s",
        times.round.count() as f64 / wall,
        "1/s",
        format!("{} poll/submit rounds", times.round.count()),
    );
    report.push_latencies(&times.round);
    report
}

/// The traced run: alternate untraced and traced cycles for `seconds`,
/// reporting per-layer counts per campaign and busy times per call.
pub fn run_traced(design: SamplingDesign, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let engines = Engines::new(design, seed);
    let tracer = Tracer::new(&engines);
    let baseline = warm_up(&engines, &mut report);

    let start = Instant::now();
    let mut untraced_ns = Vec::new();
    let mut traced_ns = Vec::new();
    let mut traced = CallTimes::default();
    let mut kernel = KernelCacheStats::default();
    let mut per_cycle_counts = None;
    let mut rounds = 0u64;
    while rounds < 2 || start.elapsed().as_secs_f64() < seconds {
        let mut plain = CallTimes::default();
        let t = Instant::now();
        let outcomes = engines.cycle(&mut plain);
        untraced_ns.push(t.elapsed().as_nanos() as f64 / plain.annotations.max(1) as f64);
        check_cycle(&mut report, "untraced", outcomes, &baseline);

        let before_kernel = engines.cache.stats();
        let before = (tracer.sampling.read(), tracer.graph.read());
        let mut times = CallTimes::default();
        let t = Instant::now();
        let outcomes: Vec<_> = (0..CYCLE)
            .map(|j| engines.run_traced(j, &tracer, &mut times))
            .collect();
        traced_ns.push(t.elapsed().as_nanos() as f64 / times.annotations.max(1) as f64);
        check_cycle(&mut report, "traced", outcomes, &baseline);
        let after_kernel = engines.cache.stats();
        kernel.hits += after_kernel.hits - before_kernel.hits;
        kernel.misses += after_kernel.misses - before_kernel.misses;
        kernel.evictions += after_kernel.evictions - before_kernel.evictions;
        kernel.entries = after_kernel.entries;
        let (sampling, graph) = (tracer.sampling.read(), tracer.graph.read());
        let counts = (
            times.poll.count(),
            times.submit.count(),
            times.annotations,
            sampling.0 - before.0 .0,
            sampling.1 - before.0 .1,
            graph.0 - before.1 .0,
        );
        // Every traced cycle replays the same campaigns, so the layer
        // counts must repeat exactly.
        match per_cycle_counts {
            None => per_cycle_counts = Some(counts),
            Some(first) => report.check(first == counts, || {
                format!("traced cycle counts {counts:?} differ from the first cycle's {first:?}")
            }),
        }
        traced.poll.merge(&times.poll);
        traced.submit.merge(&times.submit);
        traced.annotations += times.annotations;
        rounds += 1;
    }
    check_reference(&engines, &baseline, &mut report);

    let (polls, submits, annotations, units, triples, graph_calls) =
        per_cycle_counts.expect("at least one traced cycle");
    let (sampling_units, _, sampling_busy) = tracer.sampling.read();
    let (graph_total, _, graph_busy) = tracer.graph.read();
    let poll_busy_total = traced.poll.mean_ns() * traced.poll.count() as f64;
    // Counts are per campaign: per cycle, over the cycle's campaigns.
    let per_campaign = |v: u64| v as f64 / (rounds * CYCLE) as f64;
    let per_cycle_campaign = |v: u64| v as f64 / CYCLE as f64;
    let note = format!("per campaign, {rounds} traced cycles of {CYCLE}");

    report.push_noted(
        "kernel.lookups",
        per_campaign(kernel.lookups()),
        "count",
        note.clone(),
    );
    report.push_noted(
        "kernel.hits",
        per_campaign(kernel.hits),
        "count",
        note.clone(),
    );
    report.push_noted(
        "kernel.misses",
        per_campaign(kernel.misses),
        "count",
        note.clone(),
    );
    report.push("kernel.hit_ratio", kernel.hit_rate(), "ratio");
    report.push_noted(
        "kernel.entries",
        kernel.entries as f64,
        "count",
        "resident at the end".into(),
    );
    report.push_noted(
        "kernel.evictions",
        per_campaign(kernel.evictions),
        "count",
        note.clone(),
    );
    report.push_noted(
        "engine.polls",
        per_cycle_campaign(polls),
        "count",
        note.clone(),
    );
    report.push_noted(
        "engine.poll_busy_ns",
        traced.poll.mean_ns(),
        "ns",
        "mean per poll".into(),
    );
    report.push_noted(
        "engine.poll_self_ns",
        (poll_busy_total - sampling_busy as f64) / traced.poll.count().max(1) as f64,
        "ns",
        "mean per poll, sampling excluded".into(),
    );
    report.push_noted(
        "engine.submits",
        per_cycle_campaign(submits),
        "count",
        note.clone(),
    );
    report.push_noted(
        "engine.submit_busy_ns",
        traced.submit.mean_ns(),
        "ns",
        "mean per submit".into(),
    );
    report.push_noted(
        "engine.annotations",
        per_cycle_campaign(annotations),
        "count",
        note.clone(),
    );
    report.push_noted(
        "sampling.units",
        per_cycle_campaign(units),
        "count",
        note.clone(),
    );
    report.push_noted(
        "sampling.triples",
        per_cycle_campaign(triples),
        "count",
        note.clone(),
    );
    report.push_noted(
        "sampling.busy_ns",
        sampling_busy as f64 / sampling_units.max(1) as f64,
        "ns",
        "mean per unit drawn, graph calls included".into(),
    );
    report.push_noted(
        "graph.calls",
        per_cycle_campaign(graph_calls),
        "count",
        note,
    );
    report.push_noted(
        "graph.busy_ns",
        graph_busy as f64 / graph_total.max(1) as f64,
        "ns",
        "mean per graph call".into(),
    );
    report.push_overhead(&untraced_ns, &traced_ns);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The decorators must not change a single outcome: traced and
    /// untraced campaigns agree bit for bit on several seeds, for both
    /// designs the workloads run.
    #[test]
    fn decorators_are_transparent() {
        for design in [SamplingDesign::Srs, SamplingDesign::Twcs { m: 3 }] {
            for seed in [1u64, 2, 3] {
                let engines = Engines::new(design, seed);
                let tracer = Tracer::new(&engines);
                for j in 0..8 {
                    let plain = engines.run(j, &mut CallTimes::default()).unwrap();
                    let traced = engines
                        .run_traced(j, &tracer, &mut CallTimes::default())
                        .unwrap();
                    assert_eq!(plain, traced, "{design:?} seed {seed} campaign {j}");
                    assert_eq!(plain, engines.reference(j).unwrap());
                    assert!(plain.moe);
                }
                let (units, triples, _) = tracer.sampling.read();
                assert!(units > 0 && triples >= units);
                assert!(tracer.graph.read().0 > 0);
            }
        }
    }
}

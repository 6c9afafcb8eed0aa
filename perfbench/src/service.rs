//! The service workloads: the real `kgae-serve` binary driven by two
//! closed-loop annotator connections, the in-process engine reference
//! every final status must equal, and the traced run's `/metrics`
//! deltas and in-process `SessionManager` replay.

use crate::engine::TWINS;
use crate::stats::{campaign_seed, median, peak_rss_mb, Histogram, Report};
use kgae_client::Client;
use kgae_core::{
    DeltaBatch, EngineSpec, IntervalMethod, PreparedDesign, SamplingDesign, SessionEngine,
    SessionStatus, StopReason,
};
use kgae_graph::{CompactKg, DeltaKg, GroundTruth, KnowledgeGraph, TripleId};
use kgae_sampling::driver::DesignSpec;
use kgae_sampling::ComparePrimary;
use kgae_service::{
    DatasetRegistry, Metrics, SessionManager, SessionSpec, SessionState, SnapshotStore,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Stage-1 units requested per poll.
const BATCH: u64 = 32;
/// Annotator connections (one client thread each).
const CONNECTIONS: usize = 2;
/// Untimed warm-up before the measured phases.
const WARM_UP: Duration = Duration::from_secs(1);
/// Campaigns whose mean distinct triples is `triples_per_campaign`.
const TRIPLES_SET: u64 = 256;
/// Campaigns replayed on the in-process manager by the traced run.
const REPLAYED: u64 = 64;
/// Times the server is started; `setup_s` is the median.
const SETUP_REPS: usize = 5;
/// How long the server may take to answer `/healthz`.
const START_TIMEOUT: Duration = Duration::from_secs(120);

/// Which campaigns the annotators run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// SRS×aHPD on the four twins; the store is never touched.
    Annotate,
    /// All four engine kinds, each suspended, evicted and resumed after
    /// every batch.
    Lifecycle,
}

impl Mix {
    /// Distinct campaigns per cycle: campaign `j` runs the spec of
    /// `j % cycle`, so the in-process reference costs at most one cycle.
    /// A lifecycle run certifies a few hundred campaigns, so its cycle
    /// never wraps.
    fn cycle(self) -> u64 {
        match self {
            Mix::Annotate => 512,
            Mix::Lifecycle => 1024,
        }
    }
}

/// One service run's parameters.
pub struct Run<'a> {
    pub mix: Mix,
    pub seed: u64,
    pub seconds: f64,
    pub server: &'a Path,
    pub work_dir: &'a Path,
}

/// What campaign `k` of the cycle is: its spec and, for monitors, the
/// delta batch pushed once the first campaign is certified.
struct Plan {
    spec: SessionSpec,
    delta: Option<DeltaBatch>,
}

fn plan(mix: Mix, seed: u64, j: u64, registry: &DatasetRegistry) -> Plan {
    let k = j % mix.cycle();
    let campaign_seed = campaign_seed(seed, k);
    let twin = TWINS[(k as usize / 4) % TWINS.len()];
    let (dataset, design, method) = match (mix, k % 4) {
        (Mix::Annotate, _) => (TWINS[k as usize % TWINS.len()], "srs", "ahpd"),
        (Mix::Lifecycle, 0) => (twin, "srs", "ahpd"),
        (Mix::Lifecycle, 1) => ("nell-pred", "stratified", "ahpd"),
        (Mix::Lifecycle, 2) => (twin, "compare:ahpd", "ahpd"),
        (Mix::Lifecycle, _) => (twin, "monitor:50", "ahpd"),
    };
    let spec = SessionSpec {
        id: format!("c{j}"),
        dataset: dataset.into(),
        design: design.parse().expect("benchmark design parses"),
        method: method.parse().expect("benchmark method parses"),
        seed: campaign_seed,
        alpha: 0.05,
        epsilon: 0.05,
        max_observations: None,
        stratify: None,
        tenant: None,
    };
    let delta = matches!(spec.design, DesignSpec::Monitor { .. }).then(|| {
        // Prune a third of the view and add a few fresh facts: enough
        // retired evidence to re-open annotation on most campaigns.
        let n = registry.get(dataset).expect("twin hosted").num_triples();
        let mut rng = SmallRng::seed_from_u64(campaign_seed ^ 0x00DE_17A5);
        DeltaBatch {
            predicate: Some("prune".into()),
            removes: (0..n).filter(|_| rng.gen_bool(1.0 / 3.0)).collect(),
            adds: (0..40).map(|_| rng.gen_bool(0.9)).collect(),
        }
    });
    Plan { spec, delta }
}

/// A campaign's final, certified state; equality is bit-exact.
#[derive(Debug, Clone, PartialEq)]
struct Final {
    status: SessionStatus,
    /// Monitors only: whether the certificate holds again.
    watching: Option<bool>,
}

impl Final {
    fn certified(&self) -> bool {
        match self.watching {
            Some(watching) => watching,
            None => self.status.stopped == Some(StopReason::MoeSatisfied),
        }
    }
}

// ---------------------------------------------------------------------
// Hosts: the same campaign loop over HTTP, an in-process manager, or a
// bare engine.
// ---------------------------------------------------------------------

/// The calls a campaign makes, in the order the service offers them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Create,
    Next,
    Submit,
    Suspend,
    Evict,
    Resume,
    Deltas,
    Status,
    Delete,
}

const OPS: [Op; 9] = [
    Op::Create,
    Op::Next,
    Op::Submit,
    Op::Suspend,
    Op::Evict,
    Op::Resume,
    Op::Deltas,
    Op::Status,
    Op::Delete,
];

impl Op {
    /// The server's `/metrics` route label.
    fn route(self) -> &'static str {
        match self {
            Op::Create => "session_create",
            Op::Next => "next",
            Op::Submit => "labels",
            Op::Suspend => "suspend",
            Op::Evict => "evict",
            Op::Resume => "resume",
            Op::Deltas => "deltas",
            Op::Status => "session_status",
            Op::Delete => "session_delete",
        }
    }
}

/// Per-call timings by operation, as the caller sees them.
#[derive(Default, Clone)]
struct OpTimes {
    by_op: BTreeMap<&'static str, Histogram>,
    annotations: u64,
    batches: u64,
}

impl OpTimes {
    fn record(&mut self, op: Op, d: Duration) {
        self.by_op.entry(op.route()).or_default().record(d);
    }

    fn merge(&mut self, other: &OpTimes) {
        for (route, h) in &other.by_op {
            self.by_op.entry(route).or_default().merge(h);
        }
        self.annotations += other.annotations;
        self.batches += other.batches;
    }

    fn all(&self) -> Histogram {
        let mut all = Histogram::default();
        for h in self.by_op.values() {
            all.merge(h);
        }
        all
    }

    fn count(&self, op: Op) -> u64 {
        self.by_op.get(op.route()).map_or(0, Histogram::count)
    }

    fn mean_us(&self, op: Op) -> f64 {
        self.by_op
            .get(op.route())
            .map_or(0.0, |h| h.mean_ns() / 1e3)
    }
}

trait Host {
    fn create(&mut self, spec: &SessionSpec) -> Result<(), String>;
    /// The next batch's triple ids, or `None` once no labels are owed.
    fn next(&mut self, id: &str) -> Result<Option<Vec<u64>>, String>;
    /// Submits labels; returns whether the session still runs.
    fn submit(&mut self, id: &str, labels: &[bool]) -> Result<bool, String>;
    fn suspend(&mut self, id: &str) -> Result<(), String>;
    fn evict(&mut self, id: &str) -> Result<(), String>;
    fn resume(&mut self, id: &str) -> Result<(), String>;
    fn deltas(&mut self, id: &str, batch: &DeltaBatch) -> Result<(), String>;
    fn finish(&mut self, id: &str) -> Result<Final, String>;
    fn delete(&mut self, id: &str) -> Result<(), String>;
}

/// Ground truth for labels: the hosted twin, or a monitor's delta view.
enum Truth<'a> {
    Base(&'a CompactKg),
    Delta(DeltaKg<'a>),
}

impl Truth<'_> {
    fn label(&self, triple: u64) -> bool {
        match self {
            Truth::Base(kg) => kg.is_correct(TripleId(triple)),
            Truth::Delta(view) => view.is_correct(TripleId(triple)),
        }
    }
}

/// Runs one campaign to its certified state and deletes it. With
/// `lifecycle`, every batch is followed by suspend → evict → resume.
fn run_campaign(
    host: &mut dyn Host,
    plan: &Plan,
    registry: &DatasetRegistry,
    lifecycle: bool,
    times: &mut OpTimes,
) -> Result<Final, String> {
    let id = plan.spec.id.as_str();
    let kg = registry
        .get(&plan.spec.dataset)
        .ok_or("dataset not hosted")?;
    let mut truth = match plan.delta {
        Some(_) => Truth::Delta(DeltaKg::with_truth(kg, kg)),
        None => Truth::Base(kg),
    };
    host.create(&plan.spec)?;
    let mut annotate = |host: &mut dyn Host, truth: &Truth<'_>| -> Result<(), String> {
        while let Some(triples) = host.next(id)? {
            let labels: Vec<bool> = triples.iter().map(|&t| truth.label(t)).collect();
            times.annotations += labels.len() as u64;
            times.batches += 1;
            if host.submit(id, &labels)? && lifecycle {
                host.suspend(id)?;
                host.evict(id)?;
                host.resume(id)?;
            }
        }
        Ok(())
    };
    annotate(host, &truth)?;
    if let Some(batch) = &plan.delta {
        host.deltas(id, batch)?;
        let Truth::Delta(view) = &mut truth else {
            unreachable!("monitor campaigns label from a delta view")
        };
        view.apply(&batch.removes, &batch.adds)
            .map_err(|e| format!("truth view rejected the delta: {e}"))?;
        annotate(host, &truth)?;
    }
    let fin = host.finish(id)?;
    host.delete(id)?;
    Ok(fin)
}

/// The real server over HTTP, timing every request.
struct HttpHost {
    client: Client,
    times: OpTimes,
}

impl HttpHost {
    fn call<T>(
        &mut self,
        op: Op,
        f: impl FnOnce(&mut Client) -> kgae_client::ClientResult<T>,
    ) -> Result<T, String> {
        let start = Instant::now();
        let result = f(&mut self.client);
        self.times.record(op, start.elapsed());
        result.map_err(|e| format!("{}: {e}", op.route()))
    }
}

impl Host for HttpHost {
    fn create(&mut self, spec: &SessionSpec) -> Result<(), String> {
        self.call(Op::Create, |c| c.create(spec)).map(drop)
    }

    fn next(&mut self, id: &str) -> Result<Option<Vec<u64>>, String> {
        let request = self.call(Op::Next, |c| c.next_request(id, BATCH))?;
        Ok((!request.done).then(|| request.triples.iter().map(|t| t.triple).collect()))
    }

    fn submit(&mut self, id: &str, labels: &[bool]) -> Result<bool, String> {
        let info = self.call(Op::Submit, |c| c.submit(id, labels))?;
        Ok(info.state == SessionState::Running)
    }

    fn suspend(&mut self, id: &str) -> Result<(), String> {
        self.call(Op::Suspend, |c| c.suspend(id)).map(drop)
    }

    fn evict(&mut self, id: &str) -> Result<(), String> {
        self.call(Op::Evict, |c| c.evict(id))
    }

    fn resume(&mut self, id: &str) -> Result<(), String> {
        self.call(Op::Resume, |c| c.resume(id)).map(drop)
    }

    fn deltas(&mut self, id: &str, batch: &DeltaBatch) -> Result<(), String> {
        self.call(Op::Deltas, |c| c.push_deltas(id, batch))
            .map(drop)
    }

    fn finish(&mut self, id: &str) -> Result<Final, String> {
        let info = self.call(Op::Status, |c| c.status(id))?;
        Ok(Final {
            status: info.status,
            watching: info.monitor.map(|m| m.watching),
        })
    }

    fn delete(&mut self, id: &str) -> Result<(), String> {
        self.call(Op::Delete, |c| c.delete(id))
    }
}

/// An in-process `SessionManager`, timing every call.
struct ManagerHost<'m, 'r> {
    manager: &'m SessionManager<'r>,
    seq: Option<u64>,
    times: OpTimes,
}

impl ManagerHost<'_, '_> {
    fn call<T>(
        &mut self,
        op: Op,
        f: impl FnOnce(&SessionManager<'_>) -> kgae_service::ServiceResult<T>,
    ) -> Result<T, String> {
        let start = Instant::now();
        let result = f(self.manager);
        self.times.record(op, start.elapsed());
        result.map_err(|e| format!("manager {}: {e}", op.route()))
    }
}

impl Host for ManagerHost<'_, '_> {
    fn create(&mut self, spec: &SessionSpec) -> Result<(), String> {
        self.call(Op::Create, |m| m.create(spec)).map(drop)
    }

    fn next(&mut self, id: &str) -> Result<Option<Vec<u64>>, String> {
        let (request, view) = self.call(Op::Next, |m| m.next_request(id, BATCH))?;
        self.seq = view.pending_seq;
        Ok(request.map(|r| r.triples.iter().map(|st| st.triple.0).collect()))
    }

    fn submit(&mut self, id: &str, labels: &[bool]) -> Result<bool, String> {
        let seq = self.seq;
        let view = self.call(Op::Submit, |m| m.submit(id, labels, seq))?;
        Ok(view.state == SessionState::Running)
    }

    fn suspend(&mut self, id: &str) -> Result<(), String> {
        self.call(Op::Suspend, |m| m.suspend(id)).map(drop)
    }

    fn evict(&mut self, id: &str) -> Result<(), String> {
        self.call(Op::Evict, |m| m.evict(id))
    }

    fn resume(&mut self, id: &str) -> Result<(), String> {
        self.call(Op::Resume, |m| m.resume(id)).map(drop)
    }

    fn deltas(&mut self, id: &str, batch: &DeltaBatch) -> Result<(), String> {
        self.call(Op::Deltas, |m| m.apply_deltas(id, batch))
            .map(drop)
    }

    fn finish(&mut self, id: &str) -> Result<Final, String> {
        let view = self.call(Op::Status, |m| m.status(id))?;
        Ok(Final {
            status: view.status,
            watching: view.monitor.map(|m| m.watching),
        })
    }

    fn delete(&mut self, id: &str) -> Result<(), String> {
        self.call(Op::Delete, |m| m.delete(id))
    }
}

/// A bare engine built from the spec, without kernel cache, store or
/// interruptions: the reference every service campaign must equal.
struct EngineHost<'a> {
    registry: &'a DatasetRegistry,
    engine: Option<Box<dyn SessionEngine + 'a>>,
}

impl<'a> EngineHost<'a> {
    fn engine(&mut self) -> Result<&mut Box<dyn SessionEngine + 'a>, String> {
        self.engine.as_mut().ok_or_else(|| "no engine".to_string())
    }
}

impl Host for EngineHost<'_> {
    fn create(&mut self, spec: &SessionSpec) -> Result<(), String> {
        let registry = self.registry;
        let kg = registry.get(&spec.dataset).ok_or("dataset not hosted")?;
        let method: &IntervalMethod = &spec.method;
        let config = spec.eval_config();
        let srs = PreparedDesign::new(kg, SamplingDesign::Srs);
        let engine = match spec.design {
            DesignSpec::Srs => EngineSpec::Plain {
                kg,
                prepared: &srs,
                method,
                config: &config,
                seed: spec.seed,
            }
            .build(),
            DesignSpec::Stratified { .. } => EngineSpec::Stratified {
                kg,
                stratification: registry
                    .stratification(&spec.dataset)
                    .ok_or("dataset has no partition")?,
                method,
                config: &spec.stratified_config().ok_or("not stratified")?,
                seed: spec.seed,
            }
            .build(),
            DesignSpec::Compare { primary } => {
                assert_eq!(primary, ComparePrimary::AHpd, "the mix compares under aHPD");
                EngineSpec::Comparative {
                    kg,
                    prepared: &srs,
                    primary,
                    config: &config,
                    seed: spec.seed,
                }
                .build()
            }
            DesignSpec::Monitor { carry } => EngineSpec::Monitor {
                kg,
                method,
                config: &config,
                carry_weight: carry as f64,
                seed: spec.seed,
            }
            .build(),
            other => return Err(format!("design {other} is not in the mix")),
        };
        self.engine = Some(engine);
        Ok(())
    }

    fn next(&mut self, _id: &str) -> Result<Option<Vec<u64>>, String> {
        let request = self
            .engine()?
            .next_request(BATCH)
            .map_err(|e| format!("engine poll: {e}"))?;
        Ok(request.map(|r| r.request.triples.iter().map(|st| st.triple.0).collect()))
    }

    fn submit(&mut self, _id: &str, labels: &[bool]) -> Result<bool, String> {
        let engine = self.engine()?;
        engine
            .submit(labels)
            .map_err(|e| format!("engine submit: {e}"))?;
        Ok(engine.stop_reason().is_none())
    }

    fn suspend(&mut self, _id: &str) -> Result<(), String> {
        Ok(())
    }

    fn evict(&mut self, _id: &str) -> Result<(), String> {
        Ok(())
    }

    fn resume(&mut self, _id: &str) -> Result<(), String> {
        Ok(())
    }

    fn deltas(&mut self, _id: &str, batch: &DeltaBatch) -> Result<(), String> {
        self.engine()?
            .apply_deltas(batch)
            .map(drop)
            .map_err(|e| format!("engine deltas: {e}"))
    }

    fn finish(&mut self, _id: &str) -> Result<Final, String> {
        let view = self.engine()?.status();
        Ok(Final {
            status: view.primary,
            watching: view.monitor.map(|m| m.watching),
        })
    }

    fn delete(&mut self, _id: &str) -> Result<(), String> {
        self.engine = None;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// The server process
// ---------------------------------------------------------------------

/// A running `kgae-serve`; killed and reaped on drop.
struct Server {
    child: Child,
    port: u16,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Server {
    /// Starts the server over a fresh store in `dir` and waits until
    /// `/healthz` answers. Returns the server and its start-up time.
    fn start(bin: &Path, dir: &Path) -> Result<(Server, Duration), String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let port_file = dir.join("port");
        let log = std::fs::File::create(dir.join("server.log"))
            .map_err(|e| format!("creating the server log: {e}"))?;
        let start = Instant::now();
        let child = Command::new(bin)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--workers")
            .arg("2")
            .arg("--port-file")
            .arg(&port_file)
            .arg("--store-dir")
            .arg(dir.join("store"))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let mut server = Server { child, port: 0 };
        while server.port == 0 {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Some(port) = text.strip_suffix('\n') {
                    server.port = port
                        .parse()
                        .map_err(|e| format!("port file {text:?}: {e}"))?;
                    break;
                }
            }
            server.check_alive(dir, start)?;
            std::thread::sleep(Duration::from_millis(1));
        }
        loop {
            if let Ok(mut client) = Client::connect(("127.0.0.1", server.port)) {
                if client.health().is_ok() {
                    return Ok((server, start.elapsed()));
                }
            }
            server.check_alive(dir, start)?;
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn check_alive(&mut self, dir: &Path, start: Instant) -> Result<(), String> {
        let log = || std::fs::read_to_string(dir.join("server.log")).unwrap_or_default();
        if let Ok(Some(status)) = self.child.try_wait() {
            return Err(format!("kgae-serve exited with {status}: {}", log()));
        }
        if start.elapsed() > START_TIMEOUT {
            return Err(format!("kgae-serve did not answer /healthz: {}", log()));
        }
        Ok(())
    }

    fn client(&self) -> Result<Client, String> {
        Client::connect(("127.0.0.1", self.port)).map_err(|e| format!("connecting: {e}"))
    }

    fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&self.child.id().to_string())
    }
}

// ---------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------

/// Everything a phase of campaigns produced.
#[derive(Default)]
struct Phase {
    /// `(campaign index, outcome)`, in completion order.
    outcomes: Vec<(u64, Result<Final, String>)>,
    campaign_ms: Histogram,
    times: OpTimes,
    wall: Duration,
}

/// Runs campaigns `first, first + 1, …` on both connections until
/// `deadline`; every annotator waits for each reply before its next
/// call, and finishes the campaign it is in when the deadline passes.
fn run_phase(
    run: &Run<'_>,
    hosts: &mut [HttpHost],
    registry: &DatasetRegistry,
    first: u64,
    deadline: Instant,
) -> Phase {
    let next = AtomicU64::new(first);
    let start = Instant::now();
    let per_thread: Vec<Phase> = std::thread::scope(|scope| {
        let workers: Vec<_> = hosts
            .iter_mut()
            .map(|host| {
                let next = &next;
                scope.spawn(move || {
                    let mut phase = Phase::default();
                    host.times = OpTimes::default();
                    while Instant::now() < deadline {
                        let j = next.fetch_add(1, Ordering::Relaxed);
                        let plan = plan(run.mix, run.seed, j, registry);
                        let t = Instant::now();
                        let mut times = OpTimes::default();
                        let outcome = run_campaign(
                            host,
                            &plan,
                            registry,
                            run.mix == Mix::Lifecycle,
                            &mut times,
                        );
                        if outcome.is_ok() {
                            phase.campaign_ms.record(t.elapsed());
                        }
                        host.times.annotations += times.annotations;
                        host.times.batches += times.batches;
                        phase.outcomes.push((j, outcome));
                    }
                    phase.times = std::mem::take(&mut host.times);
                    phase
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("annotator thread panicked"))
            .collect()
    });
    let mut phase = Phase {
        wall: start.elapsed(),
        ..Phase::default()
    };
    for p in per_thread {
        phase.outcomes.extend(p.outcomes);
        phase.campaign_ms.merge(&p.campaign_ms);
        phase.times.merge(&p.times);
    }
    phase
}

/// The uninterrupted, uncached in-process engine run of each distinct
/// campaign, computed on first use: the reference every service
/// campaign's final status must equal.
struct References<'a> {
    run: &'a Run<'a>,
    registry: &'a DatasetRegistry,
    by_index: BTreeMap<u64, Result<Final, String>>,
}

impl<'a> References<'a> {
    fn new(run: &'a Run<'a>, registry: &'a DatasetRegistry) -> Self {
        Self {
            run,
            registry,
            by_index: BTreeMap::new(),
        }
    }

    fn get(&mut self, j: u64) -> &Result<Final, String> {
        let k = j % self.run.mix.cycle();
        let (run, registry) = (self.run, self.registry);
        self.by_index.entry(k).or_insert_with(|| {
            let mut host = EngineHost {
                registry,
                engine: None,
            };
            let plan = plan(run.mix, run.seed, k, registry);
            run_campaign(&mut host, &plan, registry, false, &mut OpTimes::default())
                .map_err(|e| format!("reference campaign {k}: {e}"))
        })
    }

    /// Tallies a phase: a failure for every campaign that errored or was
    /// not certified, a failed check for every status that differs from
    /// its reference.
    fn check(&mut self, report: &mut Report, phase: &Phase) {
        for (j, outcome) in &phase.outcomes {
            report.attempted += 1;
            let fin = match outcome {
                Ok(fin) => fin,
                Err(e) => {
                    report.fail(format!("campaign {j}: {e}"));
                    continue;
                }
            };
            if !fin.certified() {
                report.fail(format!("campaign {j} not certified by the MoE: {fin:?}"));
            }
            match self.get(*j) {
                Ok(want) if want == fin => {}
                Ok(want) => {
                    let msg =
                        format!("campaign {j}: {fin:?} differs from the engine reference {want:?}");
                    report.fail(format!("campaign {j} differs from its reference"));
                    report.check(false, || msg);
                }
                Err(e) => {
                    let msg = e.clone();
                    report.check(false, || msg);
                }
            }
        }
    }

    /// Mean distinct triples over the first `TRIPLES_SET` campaigns.
    fn mean_triples(&mut self, report: &mut Report) -> f64 {
        let mut sum = 0.0;
        for k in 0..TRIPLES_SET {
            match self.get(k) {
                Ok(fin) => sum += fin.status.annotated_triples as f64,
                Err(e) => {
                    let msg = e.clone();
                    report.check(false, || msg);
                }
            }
        }
        sum / TRIPLES_SET as f64
    }
}

/// A `/metrics` scrape: series name (with labels) → value.
type Scrape = BTreeMap<String, f64>;

fn scrape(host: &mut HttpHost) -> Result<Scrape, String> {
    host.client
        .metrics()
        .map_err(|e| format!("scraping /metrics: {e}"))
}

/// Sum of the series named `name` (any labels) whose labels do not
/// mention the `metrics` route, before and after.
fn delta(before: &Scrape, after: &Scrape, name: &str, label: Option<&str>) -> f64 {
    let sum = |s: &Scrape| -> f64 {
        s.iter()
            .filter(|(k, _)| {
                let (series, labels) = k.split_once('{').unwrap_or((k.as_str(), ""));
                series == name
                    && !labels.contains("route=\"metrics\"")
                    && label.is_none_or(|l| labels.contains(l))
            })
            .map(|(_, v)| v)
            .sum()
    };
    sum(after) - sum(before)
}

/// The exact reconciliation of server counters with client counts.
fn reconcile(report: &mut Report, before: &Scrape, after: &Scrape, times: &OpTimes, finished: u64) {
    let mut expect = |what: String, server: f64, client: u64| {
        report.check(server == client as f64, || {
            format!("/metrics {what}: server {server} vs client {client}")
        });
    };
    let requests: u64 = OPS.iter().map(|&op| times.count(op)).sum();
    expect(
        "requests".into(),
        delta(before, after, "kgae_requests_total", None),
        requests,
    );
    for op in OPS {
        let route = format!("route=\"{}\"", op.route());
        expect(
            format!("requests on {}", op.route()),
            delta(before, after, "kgae_requests_total", Some(&route)),
            times.count(op),
        );
    }
    for (series, op) in [
        ("kgae_sessions_created_total", Op::Create),
        ("kgae_sessions_suspended_total", Op::Suspend),
        ("kgae_sessions_evicted_total", Op::Evict),
        ("kgae_sessions_resumed_total", Op::Resume),
        ("kgae_sessions_deleted_total", Op::Delete),
    ] {
        expect(
            series.into(),
            delta(before, after, series, None),
            times.count(op),
        );
    }
    expect(
        "kgae_sessions_finished_total".into(),
        delta(before, after, "kgae_sessions_finished_total", None),
        finished,
    );
}

/// Campaigns in `phase` that finished (monitors never do).
fn finished(phase: &Phase) -> u64 {
    phase
        .outcomes
        .iter()
        .filter(|(_, o)| matches!(o, Ok(f) if f.status.stopped.is_some()))
        .count() as u64
}

/// Starts the server `SETUP_REPS` times and keeps the last one.
fn set_up(run: &Run<'_>, dir: &Path) -> Result<(Server, Vec<f64>), String> {
    let mut setups = Vec::new();
    // Each server is stopped before the next starts over a fresh store.
    loop {
        let (server, took) = Server::start(run.server, dir)?;
        setups.push(took.as_secs_f64());
        if setups.len() == SETUP_REPS {
            return Ok((server, setups));
        }
    }
}

fn connect(server: &Server) -> Result<Vec<HttpHost>, String> {
    (0..CONNECTIONS)
        .map(|_| {
            Ok(HttpHost {
                client: server.client()?,
                times: OpTimes::default(),
            })
        })
        .collect()
}

/// A run directory private to this process, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(root: &Path) -> Self {
        WorkDir(root.join(format!("run-{}", std::process::id())))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(root) = self.0.parent() {
            // Only succeeds once no other run uses the root.
            let _ = std::fs::remove_dir(root);
        }
    }
}

/// The untraced run: set-up, one second of untimed warm-up, the timed
/// phase, then the checks.
pub fn run_e2e(run: &Run<'_>) -> Result<Report, String> {
    let mut report = Report::default();
    let work = WorkDir::new(run.work_dir);
    let registry = DatasetRegistry::standard();
    let (server, setups) = set_up(run, &work.0.join("server"))?;
    let mut hosts = connect(&server)?;
    let before = scrape(&mut hosts[0])?;

    let warm = run_phase(run, &mut hosts, &registry, 0, Instant::now() + WARM_UP);
    let first = warm.outcomes.len() as u64;
    let deadline = Instant::now() + Duration::from_secs_f64(run.seconds);
    let timed = run_phase(run, &mut hosts, &registry, first, deadline);

    let after = scrape(&mut hosts[0])?;
    let mut times = warm.times.clone();
    times.merge(&timed.times);
    reconcile(
        &mut report,
        &before,
        &after,
        &times,
        finished(&warm) + finished(&timed),
    );
    let peak = server.peak_rss_mb();
    drop(hosts);
    drop(server);
    let mut references = References::new(run, &registry);
    references.check(&mut report, &warm);
    references.check(&mut report, &timed);
    let triples = references.mean_triples(&mut report);

    let wall = timed.wall.as_secs_f64();
    let campaigns = timed.outcomes.len() as u64;
    let annotations = timed.times.annotations;
    let requests = timed.times.all();
    report.push_noted(
        "setup_s",
        median(&setups),
        "s",
        format!("median of {SETUP_REPS} server start-ups to /healthz"),
    );
    report.push_noted(
        "campaigns_per_s",
        campaigns as f64 / wall,
        "1/s",
        format!("{campaigns} campaigns in {wall:.3} s"),
    );
    report.push_noted(
        "ns_per_annotation",
        wall * 1e9 / annotations.max(1) as f64,
        "ns",
        format!("{annotations} annotations"),
    );
    report.push_noted(
        "triples_per_campaign",
        triples,
        "count",
        format!("mean over campaigns 0..{TRIPLES_SET}"),
    );
    report.push_campaign_times(&timed.campaign_ms);
    report.push_ok_ratio();
    match peak {
        Ok(mb) => report.push_noted("peak_rss_mb", mb, "MB", "VmHWM of kgae-serve".into()),
        Err(e) => report.check(false, || e),
    }
    report.push_noted(
        "requests_per_s",
        requests.count() as f64 / wall,
        "1/s",
        format!("{} HTTP requests", requests.count()),
    );
    report.push_latencies(&requests);
    Ok(report)
}

/// The traced run: after the warm-up, two untraced and two traced
/// phases alternate (traced = `/metrics` scraped around the phase), each
/// a quarter of `seconds`; then one fixed stretch of campaigns is
/// replayed on an in-process `SessionManager`.
pub fn run_traced(run: &Run<'_>) -> Result<Report, String> {
    let mut report = Report::default();
    let work = WorkDir::new(run.work_dir);
    let registry = DatasetRegistry::standard();
    let (server, _) = Server::start(run.server, &work.0.join("server"))?;
    let mut hosts = connect(&server)?;
    let mut references = References::new(run, &registry);

    let warm = run_phase(run, &mut hosts, &registry, 0, Instant::now() + WARM_UP);
    let mut first = warm.outcomes.len() as u64;
    references.check(&mut report, &warm);
    let quarter = Duration::from_secs_f64(run.seconds / 4.0);
    let (mut untraced_ns, mut traced_ns) = (Vec::new(), Vec::new());
    let mut traced = OpTimes::default();
    let mut campaigns = 0u64;
    let (mut before, mut after) = (Scrape::new(), Scrape::new());
    for _ in 0..2 {
        let plain = run_phase(run, &mut hosts, &registry, first, Instant::now() + quarter);
        first += plain.outcomes.len() as u64;
        references.check(&mut report, &plain);
        untraced_ns.push(plain.wall.as_nanos() as f64 / plain.times.annotations.max(1) as f64);

        let b = scrape(&mut hosts[0])?;
        let phase = run_phase(run, &mut hosts, &registry, first, Instant::now() + quarter);
        let a = scrape(&mut hosts[0])?;
        first += phase.outcomes.len() as u64;
        references.check(&mut report, &phase);
        reconcile(&mut report, &b, &a, &phase.times, finished(&phase));
        traced_ns.push(phase.wall.as_nanos() as f64 / phase.times.annotations.max(1) as f64);
        traced.merge(&phase.times);
        campaigns += phase.outcomes.len() as u64;
        before = add_scrapes(&before, &b);
        after = add_scrapes(&after, &a);
    }
    drop(hosts);
    drop(server);
    let d = |name: &str| delta(&before, &after, name, None);
    let gauge = |name: &str| after.get(name).copied().unwrap_or(0.0) / 2.0;
    let per_campaign = |v: f64| v / campaigns.max(1) as f64;
    let note = format!("per campaign, {campaigns} traced campaigns");

    let lookups = d("kgae_kernel_cache_lookups_total");
    report.push_noted(
        "kernel.lookups",
        per_campaign(lookups),
        "count",
        note.clone(),
    );
    report.push_noted(
        "kernel.hits",
        per_campaign(d("kgae_kernel_cache_hits_total")),
        "count",
        note.clone(),
    );
    report.push_noted(
        "kernel.misses",
        per_campaign(d("kgae_kernel_cache_misses_total")),
        "count",
        note.clone(),
    );
    report.push(
        "kernel.hit_ratio",
        if lookups > 0.0 {
            d("kgae_kernel_cache_hits_total") / lookups
        } else {
            0.0
        },
        "ratio",
    );
    report.push_noted(
        "kernel.entries",
        gauge("kgae_kernel_cache_entries"),
        "count",
        "resident, mean of the traced phases' end scrapes".into(),
    );
    report.push_noted(
        "kernel.evictions",
        per_campaign(d("kgae_kernel_cache_evictions_total")),
        "count",
        note.clone(),
    );

    let fsyncs = d("kgae_store_fsyncs_total");
    report.push_noted("store.fsyncs", per_campaign(fsyncs), "count", note.clone());
    report.push_noted(
        "store.bytes_written",
        per_campaign(d("kgae_store_bytes_written_total")),
        "bytes",
        note.clone(),
    );
    report.push_noted(
        "store.fsyncs_per_batch",
        fsyncs / traced.batches.max(1) as f64,
        "ratio",
        format!("{} label batches", traced.batches),
    );
    let errors: f64 = after
        .iter()
        .filter(|(k, _)| k.starts_with("kgae_requests_total{") && !k.contains("status=\"2"))
        .map(|(k, v)| v - before.get(k).copied().unwrap_or(0.0))
        .fold(0.0, |sum, v| sum + v);
    let handler_us = d("kgae_request_duration_seconds_sum") * 1e6
        / d("kgae_request_duration_seconds_count").max(1.0);
    report.push_noted(
        "server.requests",
        per_campaign(d("kgae_requests_total")),
        "count",
        note.clone(),
    );
    report.push_noted("server.errors", per_campaign(errors), "count", note.clone());
    report.push_noted(
        "server.handler_us",
        handler_us,
        "us",
        "mean handler time per request".into(),
    );
    report.push_noted(
        "server.response_bytes",
        per_campaign(d("kgae_response_bytes_total")),
        "bytes",
        note.clone(),
    );
    report.push_noted(
        "reactor.waker_wakeups",
        per_campaign(d("kgae_reactor_waker_wakeups_total")),
        "count",
        note,
    );
    report.push_noted(
        "reactor.slab_high_water",
        gauge("kgae_reactor_slab_high_water"),
        "count",
        "mean of the traced phases' end scrapes".into(),
    );
    report.push_noted(
        "transport.us_per_request",
        traced.all().mean_ns() / 1e3 - handler_us,
        "us",
        "client mean latency minus server.handler_us".into(),
    );

    replay_manager(
        run,
        &registry,
        &work.0.join("replay"),
        &mut references,
        &mut report,
    )?;
    report.push_overhead(&untraced_ns, &traced_ns);
    Ok(report)
}

/// Element-wise sum of two scrapes (missing series count as 0).
fn add_scrapes(a: &Scrape, b: &Scrape) -> Scrape {
    let mut out = a.clone();
    for (k, v) in b {
        *out.entry(k.clone()).or_insert(0.0) += v;
    }
    out
}

/// The store layer and the lifecycle calls (suspend, evict, resume,
/// deltas), measured without HTTP: lifecycle campaigns `0..REPLAYED`
/// replayed on an in-process manager. This is how a traced run of a
/// workload that never touches the store still measures it.
pub fn lifecycle_layers(seed: u64, work_dir: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let work = WorkDir::new(work_dir);
    let registry = DatasetRegistry::standard();
    let run = Run {
        mix: Mix::Lifecycle,
        seed,
        seconds: 0.0,
        server: Path::new(""),
        work_dir,
    };
    let mut references = References::new(&run, &registry);
    let (before, after, batches) = replay_manager(
        &run,
        &registry,
        &work.0.join("replay"),
        &mut references,
        &mut report,
    )?;
    let fsyncs = delta(&before, &after, "kgae_store_fsyncs_total", None);
    let note = format!("per campaign over lifecycle campaigns 0..{REPLAYED}, in process");
    report.push_noted(
        "store.fsyncs",
        fsyncs / REPLAYED as f64,
        "count",
        note.clone(),
    );
    report.push_noted(
        "store.bytes_written",
        delta(&before, &after, "kgae_store_bytes_written_total", None) / REPLAYED as f64,
        "bytes",
        note,
    );
    report.push_noted(
        "store.fsyncs_per_batch",
        fsyncs / batches.max(1) as f64,
        "ratio",
        format!("{batches} label batches"),
    );
    Ok(report)
}

/// Parses a Prometheus text exposition the way the client does.
fn parse_exposition(text: &str) -> Result<Scrape, String> {
    text.lines()
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| {
            let (name, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("unparsable metric line {line:?}"))?;
            let value = value
                .parse()
                .map_err(|_| format!("non-numeric sample {line:?}"))?;
            Ok((name.to_string(), value))
        })
        .collect()
}

/// Replays campaigns `0..REPLAYED`, on one thread, against an
/// in-process `SessionManager` configured as `kgae-serve` configures its
/// own (16 shards, metrics on), timing each call of the second pass (the
/// first fills the manager's kernel cache, as the warm-up does the
/// server's). Returns the manager's metrics before and after the second
/// pass, and the label batches it submitted.
fn replay_manager(
    run: &Run<'_>,
    registry: &DatasetRegistry,
    dir: &Path,
    references: &mut References<'_>,
    report: &mut Report,
) -> Result<(Scrape, Scrape, u64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let store = SnapshotStore::open(dir).map_err(|e| format!("opening {}: {e}", dir.display()))?;
    let mut manager = SessionManager::new(registry, store, 16);
    let metrics = Arc::new(Metrics::new());
    manager.set_metrics(Arc::clone(&metrics));
    let scrape =
        |manager: &SessionManager<'_>| parse_exposition(&metrics.encode(&manager.census(), None));
    let mut host = ManagerHost {
        manager: &manager,
        seq: None,
        times: OpTimes::default(),
    };
    let mut before = Scrape::new();
    let mut batches = 0;
    for _pass in 0..2 {
        before = scrape(&manager)?;
        host.times = OpTimes::default();
        batches = 0;
        let mut phase = Phase::default();
        for j in 0..REPLAYED {
            let plan = plan(run.mix, run.seed, j, registry);
            let lifecycle = run.mix == Mix::Lifecycle;
            let mut times = OpTimes::default();
            let outcome = run_campaign(&mut host, &plan, registry, lifecycle, &mut times);
            batches += times.batches;
            phase.outcomes.push((j, outcome));
        }
        references.check(report, &phase);
    }
    let after = scrape(&manager)?;
    let times = &host.times;
    for (op, us, calls) in [
        (Op::Create, "manager.create_us", "manager.create_calls"),
        (Op::Next, "manager.next_us", "manager.next_calls"),
        (Op::Submit, "manager.submit_us", "manager.submit_calls"),
        (Op::Suspend, "manager.suspend_us", "manager.suspend_calls"),
        (Op::Evict, "manager.evict_us", "manager.evict_calls"),
        (Op::Resume, "manager.resume_us", "manager.resume_calls"),
        (Op::Deltas, "manager.deltas_us", "manager.deltas_calls"),
        (Op::Delete, "manager.delete_us", "manager.delete_calls"),
    ] {
        let n = times.count(op);
        report.push_noted(us, times.mean_us(op), "us", format!("mean of {n} calls"));
        report.push_noted(
            calls,
            n as f64 / REPLAYED as f64,
            "count",
            format!("per campaign over campaigns 0..{REPLAYED}"),
        );
    }
    drop(host);
    drop(manager);
    let _ = std::fs::remove_dir_all(dir);
    Ok((before, after, batches))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Campaigns of every engine kind, suspended, evicted and resumed
    /// after each batch on an in-process manager, end where the
    /// uninterrupted engine reference ends — the equality the service
    /// workloads check.
    #[test]
    fn interrupted_campaigns_equal_their_uninterrupted_references() {
        let registry = DatasetRegistry::standard();
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/test-replay-store");
        let _ = std::fs::remove_dir_all(&dir);
        let manager = SessionManager::new(&registry, SnapshotStore::open(&dir).unwrap(), 4);
        let server = PathBuf::new();
        for mix in [Mix::Annotate, Mix::Lifecycle] {
            let run = Run {
                mix,
                seed: 7,
                seconds: 1.0,
                server: &server,
                work_dir: &dir,
            };
            let mut references = References::new(&run, &registry);
            let mut host = ManagerHost {
                manager: &manager,
                seq: None,
                times: OpTimes::default(),
            };
            for j in 0..8 {
                let plan = plan(mix, run.seed, j, &registry);
                let lifecycle = mix == Mix::Lifecycle;
                let fin = run_campaign(
                    &mut host,
                    &plan,
                    &registry,
                    lifecycle,
                    &mut OpTimes::default(),
                )
                .unwrap();
                assert!(fin.certified(), "{mix:?} campaign {j}: {fin:?}");
                assert_eq!(
                    references.get(j).as_ref().unwrap(),
                    &fin,
                    "{mix:?} campaign {j}"
                );
            }
            if mix == Mix::Lifecycle {
                assert!(host.times.count(Op::Suspend) > 0);
                assert_eq!(host.times.count(Op::Deltas), 2);
            }
        }
        drop(manager);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

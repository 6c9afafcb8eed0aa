//! The network front: a readiness reactor ([`crate::reactor`])
//! multiplexing every connection on one event-loop thread, a worker
//! pool executing ready requests, and the route table mapping the
//! HTTP/JSON API onto [`SessionManager`] operations.
//!
//! ```text
//! GET    /healthz                      liveness probe
//! GET    /v1/datasets                  hosted KGs
//! GET    /v1/sessions                  all sessions (live + dormant)
//! POST   /v1/sessions                  create  {id,dataset,design,method,seed,...}
//! GET    /v1/sessions/{id}             status
//! POST   /v1/sessions/{id}/next        poll    {"batch": n}
//! POST   /v1/sessions/{id}/labels      submit  {"labels": [bool,...]}
//! POST   /v1/sessions/{id}/suspend     spill to disk
//! POST   /v1/sessions/{id}/resume      rehydrate from disk
//! POST   /v1/sessions/{id}/evict       drop in-memory state
//! POST   /v1/sessions/{id}/deltas      apply KG churn  {removes,adds,predicate?}
//! GET    /v1/sessions/{id}/snapshot    stored snapshot bytes, hex
//! DELETE /v1/sessions/{id}             remove everywhere
//! ```
//!
//! Connections are keep-alive and cost no thread while idle: the
//! reactor holds each one as parser + buffer state and hands only
//! fully-parsed requests to the workers. `--workers` therefore bounds
//! *in-flight requests*, not connections — size it at the concurrency
//! the session manager should see (CPU count is a good default), even
//! with thousands of connections held open. Idle connections are
//! reclaimed by the reactor's timer wheel after the server's idle
//! timeout ([`IDLE_TIMEOUT`] by default, tunable per server with
//! [`Server::with_idle_timeout`]). Shutdown is event-driven —
//! [`ServerHandle::shutdown`] flips a flag and writes one waker byte;
//! the reactor reacts on the same iteration, no polling tick involved.

use crate::json::Json;
use crate::manager::{ServiceError, SessionManager, SessionView};
use crate::metrics::{Metrics, RequestLog};
use crate::store::to_hex;
use crate::{api, http, json, reactor};
use kgae_graph::KnowledgeGraph;
use std::io::Write;
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Default reaping deadline for connections without transport
/// progress: idle keep-alive sessions and stalled uploads alike.
pub const IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// A bound, not-yet-running server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    workers: usize,
    idle_timeout: Duration,
    shutdown: Arc<AtomicBool>,
    wake_rx: UnixStream,
    wake_tx: Arc<UnixStream>,
    metrics: Option<Arc<Metrics>>,
    log: Option<Arc<RequestLog>>,
}

/// A clonable remote control for a running [`Server`].
#[derive(Debug, Clone)]
pub struct ServerHandle {
    shutdown: Arc<AtomicBool>,
    wake_tx: Arc<UnixStream>,
}

impl ServerHandle {
    /// Asks the server to stop: flips the flag and writes one byte to
    /// the reactor's waker, which interrupts its `poll` immediately.
    /// In-flight requests finish their responses, idle connections
    /// close at once; when the last connection is gone, `Server::run`
    /// suspends every live session to disk via [`SessionManager::drain`]
    /// and returns the report — so a SIGTERM loses no campaign state.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let mut waker = &*self.wake_tx;
        let _ = waker.write(&[1]);
    }
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port) with
    /// `workers` request executors.
    ///
    /// # Errors
    ///
    /// Propagates bind (and waker-pair creation) failures.
    pub fn bind(addr: &str, workers: usize) -> std::io::Result<Self> {
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            workers: workers.max(1),
            idle_timeout: IDLE_TIMEOUT,
            shutdown: Arc::new(AtomicBool::new(false)),
            wake_rx,
            wake_tx: Arc::new(wake_tx),
            metrics: None,
            log: None,
        })
    }

    /// Overrides the idle reaping deadline (default [`IDLE_TIMEOUT`]).
    /// Tests use short timeouts to exercise the reaper quickly.
    #[must_use]
    pub fn with_idle_timeout(mut self, idle_timeout: Duration) -> Self {
        self.idle_timeout = idle_timeout;
        self
    }

    /// Attaches the metrics registry: enables `GET /metrics` and turns
    /// on per-request counters, latency histograms, and the reactor's
    /// connection gauges. Share the same `Arc` with
    /// [`SessionManager::set_metrics`] so session and store counters
    /// land in the same exposition. Without this, `GET /metrics`
    /// answers 404.
    #[must_use]
    pub fn with_metrics(mut self, metrics: Arc<Metrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Attaches the structured request log: one line per executed
    /// request on stderr, filtered by the log's level floor.
    #[must_use]
    pub fn with_request_log(mut self, log: Arc<RequestLog>) -> Self {
        self.log = Some(log);
        self
    }

    /// The bound address (reports the real port after binding port 0).
    ///
    /// # Errors
    ///
    /// Propagates socket introspection failures.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shutdown remote control.
    ///
    /// # Errors
    ///
    /// Propagates socket introspection failures.
    pub fn handle(&self) -> std::io::Result<ServerHandle> {
        Ok(ServerHandle {
            shutdown: Arc::clone(&self.shutdown),
            wake_tx: Arc::clone(&self.wake_tx),
        })
    }

    /// Serves `manager` until [`ServerHandle::shutdown`] is called,
    /// then drains gracefully: the manager stops accepting creates
    /// (503 + `Retry-After`), in-flight requests finish, and every
    /// live session is persisted to the snapshot store — outstanding
    /// annotation batches are withdrawn via the exact-rollback cancel,
    /// so a post-restart re-poll regenerates them bit-identically.
    /// Returns the drain report.
    ///
    /// Blocks the calling thread driving the reactor; request
    /// execution runs on the worker pool (scoped threads, so `manager`
    /// may borrow from the caller's stack).
    pub fn run(self, manager: &SessionManager<'_>) -> crate::manager::DrainReport {
        let Server {
            listener,
            workers,
            idle_timeout,
            shutdown,
            wake_rx,
            wake_tx,
            metrics,
            log,
        } = self;
        let route_metrics = metrics.clone();
        reactor::serve(
            listener,
            &wake_rx,
            &wake_tx,
            &shutdown,
            reactor::Config {
                workers,
                idle_timeout,
                metrics,
                log,
            },
            || manager.begin_drain(),
            |request| route(request, manager, route_metrics.as_deref()),
        );
        manager.drain()
    }
}

/// The service's semantic version, compiled in — what `GET /healthz`
/// and `kgae-serve --version` report.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// The `GET /healthz` body: liveness plus build info, so deployment
/// probes can assert *what* is running, not just that something is.
#[must_use]
pub fn health_body() -> String {
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("name", Json::str("kgae-serve")),
        ("version", Json::str(VERSION)),
        ("api", Json::str("v1")),
    ])
    .encode()
}

/// One routed answer: status, JSON body, and the optional
/// `Retry-After` seconds (quota/drain refusals carry one).
type Reply = (u16, String, Option<u64>);

fn error_response(e: &ServiceError) -> Reply {
    (
        e.http_status(),
        api::error_body_coded(&e.to_string(), e.wire_code()),
        e.retry_after(),
    )
}

fn view_body(view: &SessionView) -> String {
    view_to_json(view).encode()
}

/// Encodes a [`SessionView`] for the wire.
#[must_use]
pub fn view_to_json(view: &SessionView) -> Json {
    let mut doc = Json::obj(vec![
        ("id", Json::str(&view.id)),
        ("dataset", Json::str(&view.dataset)),
        ("design", Json::str(&view.design)),
        ("method", Json::str(&view.method)),
        ("state", Json::str(view.state.name())),
        ("pending_labels", Json::int(view.pending_labels)),
        (
            "pending_seq",
            view.pending_seq.map_or(Json::Null, Json::int),
        ),
        ("status", api::status_to_json(&view.status)),
        (
            "snapshot_bytes",
            view.snapshot_bytes.map_or(Json::Null, Json::int),
        ),
    ]);
    if let Some((index, name)) = &view.pending_stratum {
        doc.set(
            "pending_stratum",
            Json::obj(vec![
                ("index", Json::int(u64::from(*index))),
                ("name", Json::str(name)),
            ]),
        );
    }
    if let Some(strata) = &view.strata {
        doc.set("strata", api::strata_to_json(strata));
    }
    if let Some(methods) = &view.methods {
        doc.set("methods", api::methods_to_json(methods));
    }
    if let Some(monitor) = &view.monitor {
        doc.set("monitor", api::monitor_report_to_json(monitor));
    }
    doc
}

fn parse_body(body: &[u8]) -> Result<Json, Reply> {
    let text =
        std::str::from_utf8(body).map_err(|_| (400, api::error_body("body is not UTF-8"), None))?;
    if text.trim().is_empty() {
        return Ok(Json::Obj(Vec::new()));
    }
    json::parse(text).map_err(|e| (400, api::error_body(&e.to_string()), None))
}

/// Dispatches one request; returns `(status, body, retry_after)`.
fn route(
    request: &http::Request,
    manager: &SessionManager<'_>,
    metrics: Option<&Metrics>,
) -> Reply {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    let method = request.method.as_str();
    match (method, segments.as_slice()) {
        ("GET", ["healthz"]) => (200, health_body(), None),
        ("GET", ["metrics"]) => match metrics {
            // The session gauges are a point-in-time census taken at
            // scrape time under the shard locks — they can never drift
            // from the manager's actual occupancy.
            Some(reg) => (
                200,
                reg.encode(&manager.census(), Some(&manager.kernel_stats())),
                None,
            ),
            None => (404, api::error_body("metrics not enabled"), None),
        },
        ("GET", ["v1", "datasets"]) => {
            let datasets: Vec<Json> = manager
                .registry()
                .entries()
                .iter()
                .map(|entry| {
                    Json::obj(vec![
                        ("name", Json::str(&entry.name)),
                        ("triples", Json::int(entry.kg.num_triples())),
                        ("clusters", Json::int(u64::from(entry.kg.num_clusters()))),
                        (
                            "strata",
                            entry
                                .stratification
                                .as_ref()
                                .map_or(Json::Null, |s| Json::int(u64::from(s.num_strata()))),
                        ),
                    ])
                })
                .collect();
            (
                200,
                Json::obj(vec![("datasets", Json::Arr(datasets))]).encode(),
                None,
            )
        }
        ("GET", ["v1", "sessions"]) => match manager.list() {
            Ok(views) => (
                200,
                Json::obj(vec![(
                    "sessions",
                    Json::Arr(views.iter().map(view_to_json).collect()),
                )])
                .encode(),
                None,
            ),
            Err(e) => error_response(&e),
        },
        ("POST", ["v1", "sessions"]) => {
            let body = match parse_body(&request.body) {
                Ok(body) => body,
                Err(err) => return err,
            };
            let spec = match api::SessionSpec::from_json(&body) {
                Ok(spec) => spec,
                Err(e) => return (400, api::error_body(&e.to_string()), None),
            };
            match manager.create(&spec) {
                Ok(view) => (201, view_body(&view), None),
                Err(e) => error_response(&e),
            }
        }
        ("GET", ["v1", "sessions", id]) => match manager.status(id) {
            Ok(view) => (200, view_body(&view), None),
            Err(e) => error_response(&e),
        },
        ("DELETE", ["v1", "sessions", id]) => match manager.delete(id) {
            Ok(()) => (
                200,
                Json::obj(vec![("deleted", Json::str(id))]).encode(),
                None,
            ),
            Err(e) => error_response(&e),
        },
        ("POST", ["v1", "sessions", id, "next"]) => {
            let body = match parse_body(&request.body) {
                Ok(body) => body,
                Err(err) => return err,
            };
            let batch = match body.get("batch") {
                None | Some(Json::Null) => 1,
                Some(field) => match field.as_u64() {
                    Some(batch) => batch,
                    None => {
                        return (
                            400,
                            api::error_body("\"batch\" must be a non-negative integer"),
                            None,
                        )
                    }
                },
            };
            match manager.next_request(id, batch) {
                Ok((request, view)) => {
                    let stratum =
                        view.pending_stratum
                            .as_ref()
                            .map(|(index, name)| api::WireStratum {
                                index: *index,
                                name: name.clone(),
                            });
                    let mut doc =
                        api::request_to_json(request.as_ref(), view.pending_seq, stratum.as_ref());
                    doc.set("session", view_to_json(&view));
                    (200, doc.encode(), None)
                }
                Err(e) => error_response(&e),
            }
        }
        ("POST", ["v1", "sessions", id, "labels"]) => {
            let body = match parse_body(&request.body) {
                Ok(body) => body,
                Err(err) => return err,
            };
            let (labels, seq) = match api::labels_from_json(&body) {
                Ok(decoded) => decoded,
                Err(e) => return (400, api::error_body(&e.to_string()), None),
            };
            match manager.submit(id, &labels, seq) {
                Ok(view) => (200, view_body(&view), None),
                Err(e) => error_response(&e),
            }
        }
        ("POST", ["v1", "sessions", id, "suspend"]) => match manager.suspend(id) {
            Ok(view) => (200, view_body(&view), None),
            Err(e) => error_response(&e),
        },
        ("POST", ["v1", "sessions", id, "resume"]) => match manager.resume(id) {
            Ok(view) => (200, view_body(&view), None),
            Err(e) => error_response(&e),
        },
        ("POST", ["v1", "sessions", id, "evict"]) => match manager.evict(id) {
            Ok(()) => (
                200,
                Json::obj(vec![("evicted", Json::str(id))]).encode(),
                None,
            ),
            Err(e) => error_response(&e),
        },
        ("POST", ["v1", "sessions", id, "deltas"]) => {
            let body = match parse_body(&request.body) {
                Ok(body) => body,
                Err(err) => return err,
            };
            let batch = match api::delta_batch_from_json(&body) {
                Ok(batch) => batch,
                Err(e) => return (400, api::error_body(&e.to_string()), None),
            };
            match manager.apply_deltas(id, &batch) {
                Ok((outcome, view)) => {
                    let mut doc = api::delta_outcome_to_json(&outcome);
                    doc.set("session", view_to_json(&view));
                    (200, doc.encode(), None)
                }
                Err(e) => error_response(&e),
            }
        }
        ("GET", ["v1", "sessions", id, "snapshot"]) => match manager.snapshot_bytes(id) {
            Ok(bytes) => (
                200,
                Json::obj(vec![
                    ("bytes", Json::int(bytes.len() as u64)),
                    ("hex", Json::Str(to_hex(&bytes))),
                ])
                .encode(),
                None,
            ),
            Err(e) => error_response(&e),
        },
        _ => (404, api::error_body("no such route"), None),
    }
}

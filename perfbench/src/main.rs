//! `kgae-perfbench`: one command per workload.
//!
//! ```text
//! kgae-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                [--server <path to kgae-serve>] [--work-dir <dir>]
//! ```
//!
//! Prints one line per metric (name, value, unit, sample counts), then
//! the result as one JSON object on the last line. Exits 1 when any
//! output check fails and 2 on bad arguments. `perfbench/run.sh` builds
//! the server and this binary from source and passes `--server`.

mod engine;
mod service;
mod stats;

use kgae_core::SamplingDesign;
use stats::Report;
use std::path::PathBuf;

/// End-to-end metrics, reported with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("campaigns_per_s", "1/s"),
    ("ns_per_annotation", "ns"),
    ("triples_per_campaign", "count"),
    ("campaign_mean_ms", "ms"),
    ("campaign_p90_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("requests_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
];

/// Per-layer metrics, reported by the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("kernel.lookups", "count"),
    ("kernel.hits", "count"),
    ("kernel.misses", "count"),
    ("kernel.hit_ratio", "ratio"),
    ("kernel.entries", "count"),
    ("kernel.evictions", "count"),
    ("engine.polls", "count"),
    ("engine.poll_busy_ns", "ns"),
    ("engine.poll_self_ns", "ns"),
    ("engine.submits", "count"),
    ("engine.submit_busy_ns", "ns"),
    ("engine.annotations", "count"),
    ("sampling.units", "count"),
    ("sampling.triples", "count"),
    ("sampling.busy_ns", "ns"),
    ("graph.calls", "count"),
    ("graph.busy_ns", "ns"),
    ("manager.create_us", "us"),
    ("manager.next_us", "us"),
    ("manager.submit_us", "us"),
    ("manager.suspend_us", "us"),
    ("manager.evict_us", "us"),
    ("manager.resume_us", "us"),
    ("manager.deltas_us", "us"),
    ("manager.delete_us", "us"),
    ("manager.create_calls", "count"),
    ("manager.next_calls", "count"),
    ("manager.submit_calls", "count"),
    ("manager.suspend_calls", "count"),
    ("manager.evict_calls", "count"),
    ("manager.resume_calls", "count"),
    ("manager.deltas_calls", "count"),
    ("manager.delete_calls", "count"),
    ("store.fsyncs", "count"),
    ("store.bytes_written", "bytes"),
    ("store.fsyncs_per_batch", "ratio"),
    ("server.requests", "count"),
    ("server.errors", "count"),
    ("server.handler_us", "us"),
    ("server.response_bytes", "bytes"),
    ("reactor.waker_wakeups", "count"),
    ("reactor.slab_high_water", "count"),
    ("transport.us_per_request", "us"),
    ("trace.overhead_pct", "%"),
];

/// Every workload this command runs. `BENCHMARK.json` gates the engine
/// workloads only: the service workloads' figures spread too widely on
/// a shared VM to gate on (see the README).
pub const WORKLOADS: &[&str] = &[
    "engine_srs",
    "engine_cluster",
    "service_annotate",
    "service_lifecycle",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: Option<PathBuf>,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let required = |flag: &str| value(flag).ok_or_else(|| format!("missing {flag}"));
    let workload = required("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seed = required("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = required("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        server: value("--server").map(PathBuf::from),
        work_dir: PathBuf::from(value("--work-dir").unwrap_or(".perfbench-work")),
    })
}

fn run(args: &Args) -> Result<Report, String> {
    let cluster = SamplingDesign::Twcs { m: 3 };
    let server = || {
        args.server
            .as_deref()
            .ok_or("this run needs --server <path to kgae-serve>")
    };
    Ok(match (args.workload.as_str(), args.trace) {
        ("engine_srs", false) => engine::run_e2e(SamplingDesign::Srs, args.seed, args.seconds),
        ("engine_srs", true) => {
            // The engine layers in process, then the layers above them:
            // the same SRS×aHPD campaigns served by kgae-serve, and the
            // store under an in-process lifecycle replay. Service
            // workloads are not gated (see the README), so the gated
            // set measures those layers here.
            let third = args.seconds / 3.0;
            let mut report = engine::run_traced(SamplingDesign::Srs, args.seed, third);
            let served = service::run_traced(&service::Run {
                mix: service::Mix::Annotate,
                seed: args.seed,
                seconds: third,
                server: server()?,
                work_dir: &args.work_dir,
            })?;
            report.adopt(
                served,
                &[
                    "manager.create",
                    "manager.next",
                    "manager.submit",
                    "manager.delete",
                    "server.",
                    "reactor.",
                    "transport.",
                ],
            );
            let stored = service::lifecycle_layers(args.seed, &args.work_dir)?;
            report.adopt(
                stored,
                &[
                    "manager.suspend",
                    "manager.evict",
                    "manager.resume",
                    "manager.deltas",
                    "store.",
                ],
            );
            report
        }
        ("engine_cluster", false) => engine::run_e2e(cluster, args.seed, args.seconds),
        ("engine_cluster", true) => engine::run_traced(cluster, args.seed, args.seconds),
        (name, trace) => {
            let server = server()?;
            let mix = if name == "service_lifecycle" {
                service::Mix::Lifecycle
            } else {
                service::Mix::Annotate
            };
            let run = service::Run {
                mix,
                seed: args.seed,
                seconds: args.seconds,
                server,
                work_dir: &args.work_dir,
            };
            if trace {
                service::run_traced(&run)?
            } else {
                service::run_e2e(&run)?
            }
        }
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("kgae-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = match run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("kgae-perfbench: {e}");
            std::process::exit(1);
        }
    };
    if args.trace {
        // Layers off this workload's path are reported as 0.
        for &(name, unit) in PER_LAYER {
            if !report.metrics.iter().any(|m| m.name == name) {
                report.push_noted(name, 0.0, unit, "layer not on this workload's path".into());
            }
        }
        report.validate(PER_LAYER);
    } else {
        report.validate(END_TO_END);
    }
    println!(
        "workload {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    print!("{}", report.render_text());
    println!("{}", report.render_json());
    if !report.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgae_service::json::{self, Json};

    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    /// `BENCHMARK.json` declares exactly the workloads and metrics this
    /// binary reports, with valid names and units.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), own(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), own(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, ["engine_srs", "engine_cluster"]);
        assert!(workloads.iter().all(|w| WORKLOADS.contains(w)));
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(stats::valid_metric_name(name), "{name}");
            assert!(stats::valid_unit(unit), "{unit}");
        }
    }
}

//! The `BENCH_eval.json` ledger: one owner for its header, its schema
//! version and its encoding.
//!
//! `bench_eval` starts a [`fresh`] document; `service_load` merges its
//! rows into the same file with [`merged`]. Both write through
//! [`write()`], so every row lands in one pretty-printed JSON object
//! whose `schema_version` comes from [`SCHEMA_VERSION`] alone.

use kgae_service::json::{self, Json};
use std::io::ErrorKind;

/// Layout version of `BENCH_eval.json`. Bump it whenever a row is
/// added, removed or renamed.
pub const SCHEMA_VERSION: u64 = 10;

/// A new document: the header (`benchmark`, `schema_version`,
/// `dataset`) followed by `rows` in order.
#[must_use]
pub fn fresh(rows: Vec<(&str, Json)>) -> Json {
    let mut doc = Json::obj(vec![
        ("benchmark", Json::str("evaluation_loop")),
        ("schema_version", Json::int(SCHEMA_VERSION)),
        ("dataset", Json::str("NELL")),
    ]);
    for (key, row) in rows {
        doc.set(key, row);
    }
    doc
}

/// The document at `path` with `rows` merged in: a row whose key is
/// already present is replaced in place, a new one is appended, and
/// `schema_version` is refreshed. A missing file starts [`fresh`].
///
/// # Errors
///
/// A message naming `path` when the file cannot be read, does not parse,
/// or holds anything other than a JSON object.
pub fn merged(path: &str, rows: Vec<(&str, Json)>) -> Result<Json, String> {
    let mut doc = match std::fs::read_to_string(path) {
        Ok(text) => json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))?,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(fresh(rows)),
        Err(e) => return Err(format!("reading {path}: {e}")),
    };
    if !matches!(doc, Json::Obj(_)) {
        return Err(format!(
            "{path} is not a JSON object; refusing to merge into it"
        ));
    }
    doc.set("schema_version", Json::int(SCHEMA_VERSION));
    for (key, row) in rows {
        doc.set(key, row);
    }
    Ok(doc)
}

/// Writes `doc` to `path`, pretty-printed with a trailing newline.
///
/// # Errors
///
/// A message naming `path` when the write fails.
pub fn write(path: &str, doc: &Json) -> Result<(), String> {
    std::fs::write(path, format!("{}\n", doc.encode_pretty()))
        .map_err(|e| format!("writing {path}: {e}"))
}

/// `v` rounded to `decimals` places, so timing rows stay readable.
#[must_use]
pub fn fixed(v: f64, decimals: i32) -> Json {
    let scale = 10f64.powi(decimals);
    Json::Num((v * scale).round() / scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(doc: &Json) -> Vec<&str> {
        match doc {
            Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object"),
        }
    }

    /// A path under the system temp dir, unique to this process and test.
    fn scratch_file(name: &str, contents: Option<&str>) -> String {
        let path =
            std::env::temp_dir().join(format!("kgae-report-{}-{name}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        if let Some(text) = contents {
            std::fs::write(&path, text).unwrap();
        }
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn fresh_document_carries_the_header_and_schema_version() {
        let doc = fresh(vec![("cells", Json::Arr(vec![]))]);
        assert_eq!(
            keys(&doc),
            ["benchmark", "schema_version", "dataset", "cells"]
        );
        assert_eq!(
            doc.get("benchmark").and_then(Json::as_str),
            Some("evaluation_loop")
        );
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_u64),
            Some(SCHEMA_VERSION)
        );
        assert_eq!(doc.get("dataset").and_then(Json::as_str), Some("NELL"));
    }

    #[test]
    fn merge_keeps_other_rows_in_order_and_replaces_same_key() {
        let old = r#"{"benchmark": "evaluation_loop", "schema_version": 9,
            "dataset": "NELL", "cells": [1], "service_load": {"old": true},
            "monitor_load": {"reps": 60}}"#;
        let path = scratch_file("merge", Some(old));
        let doc = merged(
            &path,
            vec![
                ("service_load", Json::obj(vec![("new", Json::Bool(true))])),
                ("fault_load", Json::int(1)),
            ],
        )
        .unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            keys(&doc),
            [
                "benchmark",
                "schema_version",
                "dataset",
                "cells",
                "service_load",
                "monitor_load",
                "fault_load"
            ]
        );
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_u64),
            Some(SCHEMA_VERSION)
        );
        let service = doc.get("service_load").unwrap();
        assert!(service.get("old").is_none());
        assert_eq!(service.get("new").and_then(Json::as_bool), Some(true));
        assert_eq!(
            doc.get("monitor_load")
                .and_then(|m| m.get("reps"))
                .and_then(Json::as_u64),
            Some(60)
        );
    }

    #[test]
    fn missing_file_starts_fresh() {
        let path = scratch_file("missing", None);
        let doc = merged(&path, vec![("service_load", Json::int(1))]).unwrap();
        assert_eq!(
            doc,
            fresh(vec![("service_load", Json::int(1))]),
            "a missing file merges into a fresh document"
        );
    }

    #[test]
    fn non_object_or_unparsable_file_is_an_error_naming_the_path() {
        for (name, text) in [
            ("array", "[1, 2]"),
            ("scalar", "9"),
            ("garbage", "{\"a\": "),
        ] {
            let path = scratch_file(name, Some(text));
            let err = merged(&path, vec![("service_load", Json::int(1))]).unwrap_err();
            let _ = std::fs::remove_file(&path);
            assert!(
                err.contains(&path),
                "{name}: error {err:?} must name the path"
            );
        }
    }

    #[test]
    fn written_document_round_trips() {
        let path = scratch_file("write", None);
        let doc = fresh(vec![("speedup", fixed(2.345_678, 3))]);
        write(&path, &doc).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(text.ends_with("}\n"));
        assert_eq!(json::parse(&text).unwrap(), doc);
        assert_eq!(doc.get("speedup").and_then(Json::as_f64), Some(2.346));
    }
}

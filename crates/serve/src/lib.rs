//! # lantern-serve
//!
//! A long-lived narration service over the unified
//! [`Translator`](lantern_core::Translator) API: the layer that turns
//! the reproduction from a library into the interactive system the
//! paper describes — students paste an `EXPLAIN` artifact at one end
//! and read prose back at the other.
//!
//! The server is **std-only**, consistent with the workspace's
//! offline-shim constraint: no async runtime, no HTTP crate, no serde.
//! It is **Unix-only**: one event-driven reactor per worker thread
//! (raw `epoll` on Linux, `poll(2)` on other Unixes) owns its
//! connections' sockets and runs their requests inline, with HTTP/1.1
//! pipelining, per-request `503` load-shedding, an idle sweep, and
//! panic containment. [`serve`] is the single entry point: it runs
//! any [`Handler`] — a replica's [`Router`], or the cluster coordinator
//! in `lantern-cluster` — on that core. Request and response bodies use
//! the in-tree JSON value model (`lantern_text::json`) and the stable
//! `Narration::to_json` wire format.
//!
//! ## Endpoints
//!
//! | Method | Path | Body | Response |
//! |---|---|---|---|
//! | `POST` | `/narrate` | one raw plan document (PG JSON or SQL Server XML, auto-detected) | narration object |
//! | `POST` | `/narrate/batch` | JSON array of plan-document strings | array of per-item narration objects / error objects |
//! | `POST` | `/narrate/diff` | `{"base": doc, "alt": doc}` (formats auto-detected per side) | diff object: change list, score, narration |
//! | `POST` | `/narrate/diff/batch` | `{"base": doc, "alts": [doc, ...]}` | array ranked by informativeness, each with `alt_index` |
//! | `GET` | `/healthz` | — | liveness + backend name |
//! | `GET` | `/stats` | — | request counters (cache counters under `"cache"` when caching is on) |
//! | `GET` | `/metrics` | — | Prometheus text exposition: per-stage + request latency histograms, server/cache counters |
//! | `GET` | `/debug/slow` | — | recent requests (`?threshold_ms=N` filter): IDs, statuses, per-stage timings |
//! | `POST` | `/cache/clear` | — | drop all cached narrations (only routed when caching is on) |
//!
//! The diff, cache and catalog endpoints are routed only when the
//! router was built with that surface ([`RouterParts`]); without one
//! they 404 like any unknown path. All narrate endpoints accept a
//! `?style=numbered|bulleted|paragraph`
//! query parameter, plus `?nocache=1` to bypass the narration cache for
//! one request. Failures map to HTTP statuses through
//! [`LanternError::http_status`](lantern_core::LanternError::http_status)
//! and carry a structured `{"error": {...}}` body. Every response
//! carries an `x-lantern-request-id` header — echoed if the caller
//! supplied one, minted otherwise (`docs/OBSERVABILITY.md` covers the
//! tracing surface; `--metrics-off` removes it). `docs/SERVING.md` in
//! the repository root is the full endpoint reference.
//!
//! ## Quick start
//!
//! ```
//! use lantern_core::RuleTranslator;
//! use lantern_pool::default_pg_store;
//! use lantern_serve::{serve, HttpClient, Router, RouterParts, ServeConfig};
//! use std::net::TcpListener;
//!
//! // Build the router for a config, then serve it on an ephemeral
//! // port; `serve` returns once the reactors are live.
//! let config = ServeConfig::default();
//! let translator = RuleTranslator::new(default_pg_store());
//! let router = Router::with_parts(translator, RouterParts::default(), &config);
//! let listener = TcpListener::bind("127.0.0.1:0").unwrap();
//! let handle = serve(router, listener, config).unwrap();
//!
//! let mut client = HttpClient::connect(handle.addr()).unwrap();
//! let doc = r#"{"Plan": {"Node Type": "Seq Scan", "Relation Name": "orders"}}"#;
//! let resp = client.post("/narrate", doc).unwrap();
//! assert_eq!(resp.status, 200);
//! assert!(resp.body.contains("sequential scan on orders"));
//!
//! drop(client);
//! handle.shutdown().unwrap();
//! ```
//!
//! The root crate wires this into the builder
//! (`LanternBuilder::serve(addr)`) and ships a `lantern-serve` binary;
//! `cargo run --example serve_demo` is a scripted end-to-end tour.

#[cfg(not(unix))]
compile_error!("lantern-serve is Unix-only: its serving core is an epoll/poll readiness loop");

pub mod catalog;
pub mod client;
pub(crate) mod event;
pub mod http;
pub mod router;
pub mod server;
pub mod soak;

pub use catalog::{CatalogApplied, CatalogApplyError, CatalogControl};
pub use client::{ClientConfig, ClientError, ClientErrorKind, ClientResponse, HttpClient};
pub use http::{Request, Response};
pub use lantern_cache::{CacheControl, CacheStatsSnapshot};
pub use router::{error_body, Router, RouterParts};
pub use server::{
    reusable_listener, serve, Handler, ServeConfig, ServeStats, ServerHandle, StatsSnapshot,
};
pub use soak::{
    run_soak, run_soak_multi, CacheDelta, LatencySummary, ServerDelta, SoakConfig, SoakReport,
};

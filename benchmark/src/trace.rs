//! The traced run: replays a workload's generated requests in-process
//! through each layer's public functions and records one span per call.
//!
//! Spans are recorded from this file only; the program is not changed.
//! Where a layer calls another one internally (a plan parser calls the
//! JSON reader; `CachedTranslator::narrate` parses and fingerprints),
//! the benchmark can still nest its own wrappers inside the call
//! (the translator under the cache, and the cache under the router,
//! are wrappers defined here), but it cannot see into the rest. Those
//! inner calls are *replayed*: run again on the same input right after
//! the outer call returns, recorded as children of the span that made
//! them, and subtracted from its self time. A replayed span carries
//! `"replayed": true` in the trace file.
//!
//! Spans live in memory and are written out when the run ends.

use crate::stats;
use crate::workload::{update_statement, Inputs, Op, Route};
use lantern_cache::{
    fingerprint_document, fingerprint_tree, CacheConfig, CachedTranslator, FingerprintOptions,
};
use lantern_cluster::{group_by_node, shard_key, HashRing};
use lantern_core::{
    build_lot, narrate_with_lookup, LanternError, NarrationRequest, NarrationResponse, PlanFormat,
    PlanSource, RenderStyle, RuleTranslator, Translator,
};
use lantern_obs::{Recorder, RecorderConfig};
use lantern_plan::{parse_pg_json_plan, parse_sqlserver_xml_plan, PlanTree};
use lantern_pool::{default_mssql_store, PoemStore};
use lantern_serve::http::{encode_response, frame_request, read_request, FrameStatus};
use lantern_serve::server::ServeStats;
use lantern_serve::{Request, Router};
use lantern_text::json::JsonValue;
use lantern_text::xml::XmlNode;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashSet};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The server's default body limit.
const MAX_BODY: usize = 4 * 1024 * 1024;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// 1-based; 0 is "no span".
    pub id: u32,
    pub parent: u32,
    /// Index of the replayed request (or microbenchmark round).
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Run again after its parent returned, rather than nested in it.
    pub replayed: bool,
}

struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    next_id: u32,
    request: u32,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        on: false,
        t0: Instant::now(),
        spans: Vec::new(),
        stack: Vec::new(),
        next_id: 1,
        request: 0,
    });
}

/// Start (or stop) recording on this thread, discarding older spans.
pub fn reset(on: bool) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.on = on;
        t.t0 = Instant::now();
        t.spans.clear();
        t.stack.clear();
        t.next_id = 1;
    });
}

/// Take the recorded spans.
pub fn take() -> Vec<Span> {
    TRACER.with(|t| std::mem::take(&mut t.borrow_mut().spans))
}

fn set_request(request: u32) {
    TRACER.with(|t| t.borrow_mut().request = request);
}

fn now_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Record `f` as a span nested under the innermost open span. Returns
/// the result and the span id (0 while recording is off).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, u32) {
    let opened = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return None;
        }
        let id = t.next_id;
        t.next_id += 1;
        let parent = t.stack.last().copied().unwrap_or(0);
        t.stack.push(id);
        Some((id, parent, t.t0))
    });
    let Some((id, parent, t0)) = opened else {
        return (f(), 0);
    };
    let start_ns = now_ns(t0);
    let out = f();
    let end_ns = now_ns(t0);
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.stack.pop();
        let request = t.request;
        t.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            dur_ns: end_ns - start_ns,
            replayed: false,
        });
    });
    (out, id)
}

/// Run `f` now and record it as a replayed child of `parent`.
pub fn replay<R>(parent: u32, name: &'static str, f: impl FnOnce() -> R) -> (R, u32) {
    let (out, id) = span(name, f);
    TRACER.with(|t| {
        if let Some(s) = t.borrow_mut().spans.last_mut().filter(|s| s.id == id) {
            s.parent = parent;
            s.replayed = true;
        }
    });
    (out, id)
}

/// The rule backend, step by step, with a span around each layer call.
/// Mirrors `RuleTranslator::narrate`; the replay checks it answers the
/// same bytes the server did.
struct TracedRule {
    store: PoemStore,
}

impl Translator for TracedRule {
    fn backend(&self) -> &str {
        "rule"
    }

    fn narrate(&self, req: &NarrationRequest) -> Result<NarrationResponse, LanternError> {
        let snapshot = self.store.snapshot();
        let parsed;
        let tree: &PlanTree = match &req.source {
            PlanSource::Tree(tree) => tree,
            serialized => {
                parsed = span("plan.parse", || serialized.resolve()).0?;
                &parsed
            }
        };
        let narration = span("core.narrate", || narrate_with_lookup(tree, &snapshot)).0?;
        let style = req.effective_style(RenderStyle::default());
        let text = span("core.render", || narration.render(style)).0;
        Ok(NarrationResponse {
            backend: self.backend().to_string(),
            narration,
            text,
        })
    }
}

/// The narration cache, with a span around each call into it.
struct CacheSpan(Arc<CachedTranslator<TracedRule>>);

impl Translator for CacheSpan {
    fn backend(&self) -> &str {
        self.0.backend()
    }

    fn narrate(&self, req: &NarrationRequest) -> Result<NarrationResponse, LanternError> {
        span("cache.narrate", || self.0.narrate(req)).0
    }

    fn narrate_batch(
        &self,
        reqs: &[NarrationRequest],
    ) -> Vec<Result<NarrationResponse, LanternError>> {
        span("cache.narrate", || self.0.narrate_batch(reqs)).0
    }
}

/// One node's request path, assembled as the binary assembles it:
/// default catalog, default cache keyed by the catalog generation, a
/// router with tracing on.
struct Node {
    store: PoemStore,
    router: Router<CacheSpan>,
    /// Same store, no cache: produces the narration whose wire
    /// encoding `core.wire` replays.
    plain: RuleTranslator,
    recorder: Arc<Recorder>,
}

impl Node {
    fn new() -> Node {
        let store = default_mssql_store();
        let generation = store.clone();
        let cache = CachedTranslator::new(
            TracedRule {
                store: store.clone(),
            },
            CacheConfig::default(),
        )
        .with_generation(move || generation.version());
        Node {
            router: Router::new(CacheSpan(Arc::new(cache)), Arc::new(ServeStats::new())),
            plain: RuleTranslator::new(store.clone()),
            store,
            recorder: Arc::new(Recorder::new(RecorderConfig::default())),
        }
    }
}

fn frame(wire: &[u8]) -> Request {
    let FrameStatus::Complete { len } = frame_request(wire, MAX_BODY) else {
        panic!("a generated request is always complete");
    };
    read_request(&mut &wire[..len], MAX_BODY).expect("a generated request always parses")
}

fn format_tag(doc: &str) -> u8 {
    match PlanSource::detect(doc) {
        Ok(PlanFormat::SqlServerXml) => 1,
        _ => 0,
    }
}

/// What one replay produced besides its spans.
pub struct Replay {
    /// Per doc-carrying request: frame + handle + encode, ns.
    pub request_ns: Vec<u64>,
    /// The answered bodies, by op index (empty for catalog writes).
    pub bodies: Vec<Vec<u8>>,
}

/// Replay `ops` through one in-process node. With `traced`, every layer
/// call is a span and the inner calls are replayed; without it, only
/// the whole request is timed (the untraced side of the overhead
/// measurement).
pub fn replay_ops(inputs: &Inputs, ops: &[Op], traced: bool) -> Replay {
    reset(traced);
    let node = Node::new();
    let mut resident: HashSet<u32> = HashSet::new();
    let mut out = Replay {
        request_ns: Vec::new(),
        bodies: Vec::with_capacity(ops.len()),
    };
    let mut encoded = Vec::with_capacity(1 << 16);
    for (i, op) in ops.iter().enumerate() {
        set_request(i as u32);
        if op.route == Route::CatalogApply {
            let statement = &inputs.statements[op.stmt - 1];
            let applied = span("pool.apply", || {
                lantern_pool::execute(statement, &node.store)
            })
            .0;
            assert!(applied.is_ok(), "catalog write failed: {applied:?}");
            resident.clear();
            out.bodies.push(Vec::new());
            continue;
        }
        let first_span = TRACER.with(|t| t.borrow().spans.len());
        let wire = op.wire();
        let started = Instant::now();
        let req = span("serve.frame", || frame(&wire)).0;
        let (resp, handle_id) = span("serve.handle", || node.router.handle(&req));
        encoded.clear();
        span("serve.encode", || {
            encode_response(&mut encoded, &resp, true)
        });
        out.request_ns
            .push(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
        out.bodies.push(resp.body);
        if !traced {
            continue;
        }
        // Replay the calls the router and the cache make internally.
        let recorder = &node.recorder;
        replay(handle_id, "obs.trace", || {
            let guard = recorder.begin(recorder.mint_id(), &req.path);
            guard.finish(200);
        });
        let spans = TRACER.with(|t| t.borrow().spans[first_span..].to_vec());
        let cache_id = spans
            .iter()
            .find(|s| s.name == "cache.narrate" && s.parent == handle_id)
            .map_or(0, |s| s.id);
        let mut narrated = spans
            .iter()
            .filter(|s| s.name == "core.narrate" && s.parent == cache_id)
            .map(|s| s.id);
        let snapshot = node.store.snapshot();
        for &d in &op.docs {
            let doc = &inputs.docs[d as usize];
            if let Ok(req) = NarrationRequest::auto(&**doc) {
                if let Ok(resp) = node.plain.narrate(&req) {
                    replay(handle_id, "core.wire", || resp.narration.to_json());
                }
            }
            let tag = format_tag(doc);
            replay(cache_id, "cache.doc_digest", || {
                fingerprint_document(tag, doc)
            });
            if !resident.insert(d) {
                continue;
            }
            // A miss: the cache parsed and fingerprinted the document
            // before handing the tree to the backend.
            let (tree, parse_id) = replay(cache_id, "plan.parse", || {
                if tag == 1 {
                    parse_sqlserver_xml_plan(doc).ok()
                } else {
                    parse_pg_json_plan(doc).ok()
                }
            });
            if tag == 1 {
                replay(parse_id, "text.xml_parse", || XmlNode::parse(doc).is_ok());
            } else {
                replay(parse_id, "text.json_parse", || {
                    JsonValue::parse(doc).is_ok()
                });
            }
            let Some(tree) = tree else { continue };
            replay(cache_id, "cache.fingerprint", || {
                fingerprint_tree(&tree, FingerprintOptions::default())
            });
            if let Some(narrate_id) = narrated.next() {
                replay(narrate_id, "core.lot", || {
                    build_lot(&tree, &snapshot).is_ok()
                });
            }
        }
    }
    out
}

/// Time `f` once per item, as a root span per round.
fn rounds<T>(name: &'static str, items: &[T], mut f: impl FnMut(&T)) {
    for (i, item) in items.iter().enumerate() {
        set_request(i as u32);
        span(name, || f(item));
    }
}

/// Standalone calls into the layers no single-node request reaches, or
/// reaches only rarely: the catalog write path, the batch fan-out
/// against a sequential loop, the coordinator's keying and split, and
/// the cache on a known miss and a known hit.
pub fn microbench(inputs: &Inputs) {
    let docs: Vec<&str> = inputs.docs.iter().take(320).map(|d| &**d).collect();
    // Catalog writes and the first snapshot after each.
    let store = default_mssql_store();
    for k in 1..=20 {
        set_request(k as u32);
        let statement = update_statement(k);
        span("pool.apply", || {
            lantern_pool::execute(&statement, &store).is_ok()
        });
        span("pool.snapshot", || store.snapshot());
    }
    // 16 documents as one batch and as 16 calls, alternating order.
    let rule = RuleTranslator::new(default_mssql_store());
    let groups: Vec<Vec<NarrationRequest>> = docs
        .chunks(16)
        .filter(|c| c.len() == 16)
        .map(|c| {
            c.iter()
                .filter_map(|d| NarrationRequest::auto(*d).ok())
                .collect()
        })
        .collect();
    for (g, reqs) in groups.iter().enumerate() {
        set_request(g as u32);
        let batch = || span("core.batch16", || rule.narrate_batch(reqs));
        let seq = || {
            span("core.seq16", || {
                reqs.iter().map(|r| rule.narrate(r)).collect::<Vec<_>>()
            })
        };
        if g % 2 == 0 {
            batch();
            seq();
        } else {
            seq();
            batch();
        }
    }
    // The coordinator's keying and per-shard split.
    let ring = HashRing::new(&["replica-a", "replica-b"], 64);
    rounds("cluster.shard_key", &docs, |d| {
        shard_key(d);
    });
    let keys: Vec<Vec<u128>> = docs
        .chunks(16)
        .map(|c| c.iter().map(|d| shard_key(d)).collect())
        .collect();
    rounds("cluster.split", &keys, |k| {
        group_by_node(k, &ring);
    });
    // The cache on an empty cache (miss), then on the resident key (hit).
    let cache = CachedTranslator::new(
        RuleTranslator::new(default_mssql_store()),
        CacheConfig::default(),
    );
    let reqs: Vec<NarrationRequest> = docs
        .iter()
        .filter_map(|d| NarrationRequest::auto(*d).ok())
        .collect();
    rounds("cache.miss", &reqs, |r| {
        let _ = cache.narrate(r);
    });
    rounds("cache.hit", &reqs, |r| {
        let _ = cache.narrate(r);
    });
}

/// Per-span-name figures over a span log.
pub struct Summary {
    /// name → every duration, ns.
    pub durations: BTreeMap<&'static str, Vec<f64>>,
    /// name → every self time, ns.
    pub self_times: BTreeMap<&'static str, Vec<f64>>,
    /// request → name → summed self time, ns.
    pub per_request_self: BTreeMap<u32, BTreeMap<&'static str, u64>>,
}

/// Group a span log by name, with self times (duration minus the
/// durations of the span's children, nested or replayed).
pub fn summarize(spans: &[Span]) -> Summary {
    let mut children: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push(s.dur_ns);
        }
    }
    let mut summary = Summary {
        durations: BTreeMap::new(),
        self_times: BTreeMap::new(),
        per_request_self: BTreeMap::new(),
    };
    for s in spans {
        let own = stats::self_time(s.dur_ns, children.get(&s.id).map_or(&[][..], Vec::as_slice));
        summary
            .durations
            .entry(s.name)
            .or_default()
            .push(s.dur_ns as f64);
        summary
            .self_times
            .entry(s.name)
            .or_default()
            .push(own as f64);
        *summary
            .per_request_self
            .entry(s.request)
            .or_default()
            .entry(s.name)
            .or_default() += own;
    }
    summary
}

/// Write the span log as JSON lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"replayed\":{}}}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.dur_ns, s.replayed
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_and_replayed_spans_form_a_tree() {
        reset(true);
        set_request(3);
        let (_, outer) = span("outer", || {
            span("inner", || std::hint::black_box(1 + 1));
        });
        replay(outer, "again", || ());
        let spans = take();
        reset(false);
        assert_eq!(spans.len(), 3);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let again = spans.iter().find(|s| s.name == "again").unwrap();
        assert_eq!(inner.parent, outer);
        assert!(!inner.replayed);
        assert_eq!(again.parent, outer);
        assert!(again.replayed);
        assert!(spans.iter().all(|s| s.request == 3));
    }

    #[test]
    fn self_time_subtracts_nested_and_replayed_children() {
        let s = |id, parent, name, dur_ns| Span {
            id,
            parent,
            request: 0,
            name,
            start_ns: 0,
            dur_ns,
            replayed: false,
        };
        let spans = [
            s(2, 1, "child", 30),
            s(1, 0, "parent", 100),
            s(3, 1, "replayed", 20),
            s(4, 0, "parent", 10),
        ];
        let summary = summarize(&spans);
        assert_eq!(summary.self_times["parent"], vec![50.0, 10.0]);
        assert_eq!(summary.durations["parent"], vec![100.0, 10.0]);
        assert_eq!(summary.per_request_self[&0]["parent"], 60);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        reset(false);
        let (v, id) = span("x", || 7);
        assert_eq!((v, id), (7, 0));
        assert!(take().is_empty());
    }

    #[test]
    fn traced_replay_answers_like_the_reference() {
        let inputs = crate::workload::find("fresh_large")
            .unwrap()
            .inputs(21, 8, 0);
        let service = lantern::LanternBuilder::new().build().unwrap();
        let replayed = replay_ops(&inputs, &inputs.open, true);
        let spans = take();
        for (op, body) in inputs.open.iter().zip(&replayed.bodies) {
            let expect =
                crate::reference::narration_body(&service, &inputs.docs[op.docs[0] as usize]);
            assert_eq!(body, expect.as_bytes());
        }
        let names: HashSet<&str> = spans.iter().map(|s| s.name).collect();
        for name in [
            "serve.frame",
            "serve.handle",
            "serve.encode",
            "cache.narrate",
            "core.narrate",
            "core.render",
            "core.lot",
            "core.wire",
            "plan.parse",
            "cache.doc_digest",
            "cache.fingerprint",
            "obs.trace",
        ] {
            assert!(names.contains(name), "no {name} span");
        }
    }
}

//! The workloads and the seeded inputs they send.
//!
//! Every input comes from `lantern-gen` under the run's `--seed`; the
//! server receives only these generated documents (and, on
//! `repeat_small`, generated POOL statements). Offered rates are frozen
//! here and never re-derived per run. Each is half of the lowest
//! closed-loop throughput the workload reached on the 2-core host the
//! benchmark was defined on (fresh_large 4.2k docs/s, repeat_small
//! 14.3k, while the same host reached up to 7.5k and 25.7k in faster
//! stretches): the open loop then stays at or below half load however
//! slow the host runs, where latency follows the server rather than a
//! queue.

use lantern_gen::{FormatMix, GenConfig, PlanGenerator};
use lantern_text::json::JsonValue;
use std::collections::HashMap;
use std::sync::Arc;

/// One workload: the traffic one `lantern-serve` node receives.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Internal-operator budget per generated plan.
    pub ops: (usize, usize),
    /// Share of documents replayed verbatim from the generator's
    /// 64-plan history.
    pub dup_rate: f64,
    /// Open-loop offered rate, requests per second.
    pub rate: f64,
    /// Requests generated for the closed-loop segments, which cycle
    /// through them. Large enough that a request comes round again only
    /// long after the cache evicted it (the cache holds 4096 entries).
    pub saturation_pool: usize,
    /// One POOL `UPDATE` to `/catalog/apply` every this many open-loop
    /// requests (0 = never).
    pub update_every: usize,
    /// Requests sent closed-loop after each boot, before timing.
    pub warmup: usize,
}

/// Every workload the benchmark knows, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "fresh_large",
        ops: (4, 10),
        dup_rate: 0.0,
        rate: 2100.0,
        saturation_pool: 16_384,
        update_every: 0,
        warmup: 300,
    },
    Workload {
        name: "repeat_small",
        ops: (1, 4),
        dup_rate: 0.9,
        rate: 7100.0,
        saturation_pool: 60_000,
        update_every: 3000,
        warmup: 300,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// What one request does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `POST /narrate` with one document.
    Narrate,
    /// `POST /catalog/apply` with one POOL statement.
    CatalogApply,
}

/// One request, ready to write to a socket.
#[derive(Debug, Clone)]
pub struct Op {
    pub route: Route,
    /// HTTP/1.1 request head, blank line included.
    pub head: Vec<u8>,
    /// Request body; verbatim duplicates share one allocation.
    pub body: Arc<str>,
    /// Document ids (indices into [`Inputs::docs`]) the request carries:
    /// one for `Narrate`, none for `CatalogApply`.
    pub docs: Vec<u32>,
    /// For `CatalogApply`, the 1-based statement sequence number.
    pub stmt: usize,
}

impl Op {
    /// The whole request as one buffer.
    pub fn wire(&self) -> Vec<u8> {
        [&self.head[..], self.body.as_bytes()].concat()
    }

    fn post(route: Route, path: &str, body: Arc<str>, docs: Vec<u32>, stmt: usize) -> Op {
        let head = format!(
            "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        Op {
            route,
            head,
            body,
            docs,
            stmt,
        }
    }
}

/// All inputs of one run, generated from the seed before any timing.
#[derive(Debug)]
pub struct Inputs {
    /// Distinct documents; requests refer to them by index.
    pub docs: Vec<Arc<str>>,
    /// POOL statements, `statements[k - 1]` carrying sequence number k.
    pub statements: Vec<String>,
    pub warmup: Vec<Op>,
    pub open: Vec<Op>,
    pub saturation: Vec<Op>,
}

/// The POOL edit an SME might make: reword the sequential-scan
/// description. Revision `k` makes each statement change the catalog.
pub fn update_statement(k: usize) -> String {
    format!(
        "UPDATE pg SET desc = 'read every row of the table, revision {k}' WHERE name = 'seqscan'"
    )
}

/// Generates documents and interns them by the generator's serial, so
/// a verbatim duplicate maps to the id of the document it repeats.
struct DocStream {
    generator: PlanGenerator,
    by_serial: HashMap<u64, u32>,
    docs: Vec<Arc<str>>,
}

impl DocStream {
    fn next_id(&mut self) -> u32 {
        let item = self
            .generator
            .next()
            .expect("the plan generator is an endless stream");
        if let Some(&id) = self.by_serial.get(&item.serial) {
            debug_assert_eq!(&*self.docs[id as usize], item.doc.as_str());
            return id;
        }
        let id = u32::try_from(self.docs.len()).expect("fewer than 2^32 documents");
        self.by_serial.insert(item.serial, id);
        self.docs.push(item.doc.into());
        id
    }
}

impl Workload {
    /// Generate the run's inputs: `warmup` requests, `open` requests
    /// for the open-loop phase (with catalog writes interleaved), and
    /// `saturation` requests for the closed-loop phase, all from one
    /// seeded stream.
    pub fn inputs(&self, seed: u64, open: usize, saturation: usize) -> Inputs {
        let config = GenConfig::default()
            .with_seed(seed)
            .with_ops(self.ops.0, self.ops.1)
            .with_duplicate_rate(self.dup_rate)
            .with_format(FormatMix::Mixed);
        let mut stream = DocStream {
            generator: PlanGenerator::new(config),
            by_serial: HashMap::new(),
            docs: Vec::new(),
        };
        let mut statements = Vec::new();
        let doc_op = |stream: &mut DocStream| -> Op {
            let id = stream.next_id();
            let doc = Arc::clone(&stream.docs[id as usize]);
            Op::post(Route::Narrate, "/narrate", doc, vec![id], 0)
        };
        let warmup: Vec<Op> = (0..self.warmup).map(|_| doc_op(&mut stream)).collect();
        let mut open_ops = Vec::with_capacity(open);
        for i in 1..=open {
            if self.update_every > 0 && i % self.update_every == 0 {
                let seq = statements.len() + 1;
                let statement = update_statement(seq);
                let body = format!(
                    "{{\"from_seq\":{seq},\"statements\":[{}]}}",
                    JsonValue::String(statement.clone()).to_string_compact()
                );
                statements.push(statement);
                open_ops.push(Op::post(
                    Route::CatalogApply,
                    "/catalog/apply",
                    body.into(),
                    Vec::new(),
                    seq,
                ));
            } else {
                open_ops.push(doc_op(&mut stream));
            }
        }
        let saturation_ops: Vec<Op> = (0..saturation).map(|_| doc_op(&mut stream)).collect();
        Inputs {
            docs: stream.docs,
            statements,
            warmup,
            open: open_ops,
            saturation: saturation_ops,
        }
    }
}

/// Share of the document narrations in the counted phases that the
/// schedule lets the cache answer. A document counts as a hit when it
/// was sent earlier (in any phase) since the last catalog write. `phases` lists the requests in the order
/// they were sent, each with whether it is counted.
pub fn expected_hit_ratio(phases: &[(&[Op], bool)]) -> f64 {
    let mut seen = std::collections::HashSet::new();
    let (mut hits, mut total) = (0u64, 0u64);
    for (ops, counted) in phases {
        for op in *ops {
            if op.route == Route::CatalogApply {
                seen.clear();
                continue;
            }
            for doc in &op.docs {
                let hit = !seen.insert(*doc);
                if *counted {
                    total += 1;
                    hits += u64::from(hit);
                }
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let w = find("repeat_small").unwrap();
        let a = w.inputs(7, 50, 10);
        let b = w.inputs(7, 50, 10);
        assert_eq!(a.docs, b.docs);
        assert_eq!(a.open.len(), 50);
        assert!(a
            .open
            .iter()
            .zip(&b.open)
            .all(|(x, y)| x.wire() == y.wire()));
        let c = w.inputs(8, 50, 10);
        assert_ne!(a.docs, c.docs);
    }

    #[test]
    fn duplicates_share_a_document_id() {
        let w = find("repeat_small").unwrap();
        let inputs = w.inputs(3, 2000, 0);
        let sent: usize =
            inputs.open.iter().map(|op| op.docs.len()).sum::<usize>() + inputs.warmup.len();
        // 90% duplicates: far fewer distinct documents than requests.
        assert!(inputs.docs.len() * 4 < sent, "{} docs", inputs.docs.len());
    }

    #[test]
    fn catalog_writes_are_interleaved_and_numbered() {
        let w = find("repeat_small").unwrap();
        let inputs = w.inputs(1, 2 * w.update_every, 0);
        let writes: Vec<&Op> = inputs
            .open
            .iter()
            .filter(|op| op.route == Route::CatalogApply)
            .collect();
        assert_eq!(writes.len(), 2);
        assert_eq!(writes[0].stmt, 1);
        assert_eq!(writes[1].stmt, 2);
        assert_eq!(inputs.statements.len(), 2);
    }

    #[test]
    fn expected_hits_follow_the_schedule() {
        let op = |doc: u32| Op::post(Route::Narrate, "/", "".into(), vec![doc], 0);
        let write = Op::post(Route::CatalogApply, "/", "".into(), Vec::new(), 1);
        let warmup = [op(1)];
        // 1 hit (seen in warm-up), 2 miss, 2 hit, then a write clears
        // everything: 1 miss.
        let open = [op(1), op(2), op(2), write, op(1)];
        assert!((expected_hit_ratio(&[(&warmup, false), (&open, true)]) - 0.5).abs() < 1e-12);
        // An uncounted phase in between still fills the cache.
        let between = [op(3)];
        let after = [op(3)];
        let phases = [
            (&warmup[..], false),
            (&between[..], false),
            (&after[..], true),
        ];
        assert!((expected_hit_ratio(&phases) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fresh_large_never_repeats() {
        let w = find("fresh_large").unwrap();
        let inputs = w.inputs(5, 300, 0);
        assert!(expected_hit_ratio(&[(&inputs.warmup, false), (&inputs.open, true)]).abs() < 1e-12);
    }
}

//! The output check: every 2xx body is compared with a narration
//! computed in-process, after the timed phases, by a service built the
//! way the `lantern-serve` binary builds its own (rule backend, default
//! catalog, numbered style; the cache never changes the bytes).
//!
//! On `repeat_small` the catalog changes during the run, so a request
//! may have seen any catalog generation between the writes answered
//! before it was sent and the writes sent before its answer arrived;
//! the body passes if it matches the reference at any of them.

use crate::client::{digest, Outcome};
use crate::workload::{Inputs, Op, Route};
use lantern::builder::{LanternBuilder, LanternService};
use lantern_core::{NarrationRequest, Translator};
use lantern_serve::CatalogControl;
use lantern_text::json::JsonValue;
use std::collections::{BTreeMap, HashMap};

/// The wire form of one narration, as `POST /narrate` returns it.
pub fn narration_body(service: &LanternService, doc: &str) -> String {
    let rendered = NarrationRequest::auto(doc).and_then(|req| service.narrate(&req));
    match rendered {
        Ok(resp) => {
            let mut obj = BTreeMap::new();
            obj.insert("backend".to_string(), JsonValue::String(resp.backend));
            obj.insert("text".to_string(), JsonValue::String(resp.text));
            obj.insert("narration".to_string(), resp.narration.to_json_value());
            JsonValue::Object(obj).to_string_compact()
        }
        // Generated documents always narrate; an error here is a
        // reference that no server answer can match.
        Err(e) => format!("reference narration failed: {e}"),
    }
}

/// Does `out` answer `op` the way `reference(doc)` says it should?
/// `reference` gives the [`digest`] of a document's narration body.
pub fn body_matches(op: &Op, out: &Outcome, reference: &mut dyn FnMut(u32) -> u64) -> bool {
    match op.route {
        Route::Narrate => out.digest == reference(op.docs[0]),
        Route::CatalogApply => {
            let Some(Ok(value)) = std::str::from_utf8(&out.body).ok().map(JsonValue::parse) else {
                return false;
            };
            value.get("applied").and_then(JsonValue::as_f64) == Some(1.0)
                && matches!(value.get("errors"), Some(JsonValue::Array(errors)) if errors.is_empty())
        }
    }
}

/// Outcome of checking one run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Requests checked.
    pub attempted: u64,
    /// Non-2xx answers, 503 sheds and transport failures.
    pub failed: u64,
    /// 2xx answers whose body differs from every admissible reference.
    pub mismatched: u64,
}

impl Verdict {
    /// Every way a request can fail.
    pub fn failures(&self) -> u64 {
        self.failed + self.mismatched
    }
}

/// The catalog generations request `i` may have seen: from the writes
/// answered before it was sent to the writes sent before its answer.
fn generation_window(outcome: &Outcome, writes: &[&Outcome]) -> (usize, usize) {
    let lo = writes
        .iter()
        .filter(|w| w.status != 0 && w.done_ns <= outcome.sent_ns)
        .count();
    let hi = writes
        .iter()
        .filter(|w| w.sent_ns <= outcome.done_ns)
        .count();
    (lo, hi.max(lo))
}

/// Check every request of a run. `phases` pairs each phase's ops with
/// their outcomes, in the order the phases ran; a phase starts at the
/// catalog generation the earlier phases' writes left behind.
pub fn verify(inputs: &Inputs, phases: &[(&[Op], &[Outcome])]) -> Verdict {
    let mut verdict = Verdict::default();
    // (op, outcome, lo, hi) for every answered request still to match.
    let mut todo: Vec<(&Op, &Outcome, usize, usize)> = Vec::new();
    let mut base = 0usize;
    for (ops, outcomes) in phases {
        let writes: Vec<&Outcome> = ops
            .iter()
            .zip(outcomes.iter())
            .filter(|(op, _)| op.route == Route::CatalogApply)
            .map(|(_, out)| out)
            .collect();
        for (op, out) in ops.iter().zip(outcomes.iter()) {
            verdict.attempted += 1;
            if !(200..300).contains(&out.status) {
                verdict.failed += 1;
                continue;
            }
            let (lo, hi) = if op.route == Route::CatalogApply {
                (0, 0)
            } else {
                generation_window(out, &writes)
            };
            todo.push((op, out, base + lo, base + hi));
        }
        base += writes.len();
    }
    // Two checkers split the requests; each replays the catalog writes
    // on a service of its own.
    let last = todo.iter().map(|t| t.3).max().unwrap_or(0);
    let halves: Vec<&[(&Op, &Outcome, usize, usize)]> =
        todo.chunks(todo.len().div_ceil(2).max(1)).collect();
    let mismatched: u64 = std::thread::scope(|scope| {
        let workers: Vec<_> = halves
            .iter()
            .map(|half| scope.spawn(move || check(inputs, half, last)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("a body checker panicked"))
            .sum()
    });
    verdict.mismatched = mismatched;
    verdict
}

/// Match each request against the references of the catalog
/// generations it may have seen; returns how many matched none.
fn check(inputs: &Inputs, todo: &[(&Op, &Outcome, usize, usize)], last: usize) -> u64 {
    let service = LanternBuilder::new()
        .build()
        .expect("the rule backend needs no model");
    let mut matched = vec![false; todo.len()];
    for generation in 0..=last {
        let mut memo: HashMap<u32, u64> = HashMap::new();
        let mut reference = |doc: u32| {
            *memo.entry(doc).or_insert_with(|| {
                digest(narration_body(&service, &inputs.docs[doc as usize]).as_bytes())
            })
        };
        for (k, (op, out, lo, hi)) in todo.iter().enumerate() {
            if !matched[k] && (*lo..=*hi).contains(&generation) {
                matched[k] = body_matches(op, out, &mut reference);
            }
        }
        if generation < inputs.statements.len() {
            let seq = generation as u64 + 1;
            let applied = service.catalog_apply(seq, &inputs.statements[generation..=generation]);
            assert!(
                matches!(&applied, Ok(a) if a.errors.is_empty()),
                "reference catalog write {seq} failed: {applied:?}"
            );
        }
    }
    matched.iter().filter(|m| !**m).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::find;

    fn answered(body: Vec<u8>) -> Outcome {
        Outcome {
            sent_ns: 1,
            done_ns: 2,
            ..Outcome::answer(200, &body, true)
        }
    }

    fn honest(inputs: &Inputs, ops: &[Op]) -> Vec<Outcome> {
        let service = LanternBuilder::new().build().unwrap();
        ops.iter()
            .map(|op| {
                assert_eq!(op.route, Route::Narrate, "no writes in these inputs");
                answered(narration_body(&service, &inputs.docs[op.docs[0] as usize]).into_bytes())
            })
            .collect()
    }

    #[test]
    fn honest_bodies_pass() {
        for name in ["fresh_large", "repeat_small"] {
            let inputs = find(name).unwrap().inputs(11, 6, 0);
            let outcomes = honest(&inputs, &inputs.open);
            let verdict = verify(&inputs, &[(&inputs.open, &outcomes)]);
            assert_eq!(verdict.failures(), 0, "{name}: {verdict:?}");
            assert_eq!(verdict.attempted, 6);
        }
    }

    #[test]
    fn a_corrupted_body_is_caught() {
        let inputs = find("fresh_large").unwrap().inputs(12, 4, 0);
        let mut outcomes = honest(&inputs, &inputs.open);
        // Flip one character inside the narration text.
        let mut body = outcomes[2].body.clone();
        let at = body.len() / 2;
        body[at] = if body[at] == b'a' { b'b' } else { b'a' };
        outcomes[2] = answered(body);
        // And answer another request with a failure status.
        outcomes[3].status = 503;
        let verdict = verify(&inputs, &[(&inputs.open, &outcomes)]);
        assert_eq!(verdict.mismatched, 1);
        assert_eq!(verdict.failed, 1);
        assert_eq!(verdict.failures(), 2);
    }

    #[test]
    fn either_catalog_generation_is_accepted_around_a_write() {
        let w = find("repeat_small").unwrap();
        let inputs = w.inputs(14, w.update_every + 2, 0);
        let write_at = w.update_every - 1;
        assert_eq!(inputs.open[write_at].route, Route::CatalogApply);
        let service = LanternBuilder::new().build().unwrap();
        let doc = inputs.open[write_at + 1].docs[0];
        let old = narration_body(&service, &inputs.docs[doc as usize]);
        service.catalog_apply(1, &inputs.statements[..1]).unwrap();
        let new = narration_body(&service, &inputs.docs[doc as usize]);
        // Only judge the requests around the write.
        let ops = &inputs.open[write_at..write_at + 2];
        let write = Outcome {
            sent_ns: 10,
            done_ns: 20,
            ..Outcome::answer(200, br#"{"applied":1,"errors":[],"skipped":0}"#, true)
        };
        let check = |body: &str, sent_ns: u64, done_ns: u64| {
            let read = Outcome {
                sent_ns,
                done_ns,
                ..Outcome::answer(200, body.as_bytes(), false)
            };
            verify(&inputs, &[(ops, &[write.clone(), read])]).mismatched
        };
        // Sent while the write was in flight: either generation passes.
        assert_eq!(check(&old, 15, 25), 0);
        assert_eq!(check(&new, 15, 25), 0);
        // Sent after the write was answered: only the new text passes,
        // when the write actually changed this document's narration.
        assert_eq!(check(&new, 30, 40), 0);
        if old != new {
            assert_eq!(check(&old, 30, 40), 1);
        }
    }
}

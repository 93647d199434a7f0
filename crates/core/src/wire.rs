//! Stable JSON wire format for narrations, so service responses can be
//! serialized, stored, and replayed across versions. The shape is:
//!
//! ```json
//! {"steps": [{"index": 1,
//!             "ops": ["Hash", "Hash Join"],
//!             "text": "hash T1 and ...",
//!             "tagged": "hash <T> and ...",
//!             "bindings": [["<T>", "T1"]]}]}
//! ```
//!
//! Two renderings produce the same bytes. The `write_json` methods
//! (and [`write_response_json`]) append the JSON straight to a
//! `String`, keys in sorted order; they are what the service writes to
//! the wire. The `to_json_value` methods build the in-tree JSON value
//! model (`lantern_text`), whose objects sort their keys too; they stay
//! as the independent reference the writers are tested against.
//!
//! A service response wraps a narration as
//! `{"backend": "...", "narration": {"steps": [...]}, "text": "..."}`.

use crate::api::NarrationResponse;
use crate::narrate::{Narration, NarrationStep};
use crate::tags::TagBinding;
use lantern_text::json::{write_json_string, JsonError, JsonValue};
use std::collections::BTreeMap;
use std::fmt::Write as _;

fn shape_err(message: impl Into<String>) -> JsonError {
    JsonError {
        offset: 0,
        message: message.into(),
    }
}

fn string_field(obj: &JsonValue, key: &str) -> Result<String, JsonError> {
    obj.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| shape_err(format!("missing string field '{key}'")))
}

/// Append `items` as a JSON array, writing each with `write`.
fn write_array<T>(out: &mut String, items: &[T], mut write: impl FnMut(&mut String, &T)) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write(out, item);
    }
    out.push(']');
}

/// Append a service success body — `{"backend":…,"narration":…,"text":…}`
/// — for `narration` rendered as `text`. The narration cache writes a
/// hit from its resident entry through this, without assembling a
/// [`NarrationResponse`] first.
pub fn write_response_json(backend: &str, narration: &Narration, text: &str, out: &mut String) {
    // The text, each step's text and tagged form, and the bindings
    // repeat roughly the same words: about three times the text.
    out.reserve(3 * text.len() + 64);
    out.push_str("{\"backend\":");
    write_json_string(out, backend);
    out.push_str(",\"narration\":");
    narration.write_json(out);
    out.push_str(",\"text\":");
    write_json_string(out, text);
    out.push('}');
}

impl NarrationResponse {
    /// Append this response's service success body to `out`; the same
    /// bytes as the sorted-key `JsonValue` object of its three fields.
    pub fn write_json(&self, out: &mut String) {
        write_response_json(&self.backend, &self.narration, &self.text, out);
    }
}

impl NarrationStep {
    /// Append the step's wire form to `out`; the same bytes as
    /// [`NarrationStep::to_json_value`] rendered compactly.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"bindings\":");
        write_array(out, &self.bindings, |out, (tag, value)| {
            out.push('[');
            write_json_string(out, tag);
            out.push(',');
            write_json_string(out, value);
            out.push(']');
        });
        out.push_str(",\"index\":");
        // The value model holds numbers as `f64` and prints integers
        // below 9e15 without a fraction; match it past that too.
        let _ = if self.index < 9_000_000_000_000_000 {
            write!(out, "{}", self.index)
        } else {
            write!(out, "{}", self.index as f64)
        };
        out.push_str(",\"ops\":");
        write_array(out, &self.ops, |out, op| write_json_string(out, op));
        out.push_str(",\"tagged\":");
        write_json_string(out, &self.tagged);
        out.push_str(",\"text\":");
        write_json_string(out, &self.text);
        out.push('}');
    }

    /// The step as a JSON value.
    pub fn to_json_value(&self) -> JsonValue {
        let mut obj = BTreeMap::new();
        obj.insert("index".to_string(), JsonValue::Number(self.index as f64));
        obj.insert(
            "ops".to_string(),
            JsonValue::Array(
                self.ops
                    .iter()
                    .map(|o| JsonValue::String(o.clone()))
                    .collect(),
            ),
        );
        obj.insert("text".to_string(), JsonValue::String(self.text.clone()));
        obj.insert("tagged".to_string(), JsonValue::String(self.tagged.clone()));
        obj.insert(
            "bindings".to_string(),
            JsonValue::Array(
                self.bindings
                    .iter()
                    .map(|(tag, value)| {
                        JsonValue::Array(vec![
                            JsonValue::String(tag.clone()),
                            JsonValue::String(value.clone()),
                        ])
                    })
                    .collect(),
            ),
        );
        JsonValue::Object(obj)
    }

    /// Parse one step from its JSON value.
    pub fn from_json_value(v: &JsonValue) -> Result<NarrationStep, JsonError> {
        let index_raw = v
            .get("index")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| shape_err("missing numeric field 'index'"))?;
        if index_raw < 0.0 || index_raw.fract() != 0.0 || index_raw > usize::MAX as f64 {
            return Err(shape_err("'index' must be a non-negative integer"));
        }
        let index = index_raw as usize;
        let ops = match v.get("ops") {
            Some(JsonValue::Array(items)) => items
                .iter()
                .map(|o| {
                    o.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| shape_err("non-string entry in 'ops'"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err(shape_err("missing array field 'ops'")),
        };
        let mut bindings = TagBinding::new();
        match v.get("bindings") {
            Some(JsonValue::Array(items)) => {
                for pair in items {
                    match pair.as_array() {
                        Some([tag, value]) => match (tag.as_str(), value.as_str()) {
                            (Some(t), Some(val)) => bindings.push((t.to_string(), val.to_string())),
                            _ => return Err(shape_err("non-string binding pair")),
                        },
                        _ => return Err(shape_err("binding entry is not a [tag, value] pair")),
                    }
                }
            }
            _ => return Err(shape_err("missing array field 'bindings'")),
        }
        Ok(NarrationStep {
            index,
            ops,
            text: string_field(v, "text")?,
            tagged: string_field(v, "tagged")?,
            bindings,
        })
    }
}

impl Narration {
    /// Append the narration's wire form to `out`; the same bytes as
    /// [`Narration::to_json_value`] rendered compactly.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"steps\":");
        write_array(out, self.steps(), |out, step| step.write_json(out));
        out.push('}');
    }

    /// The narration as a JSON value.
    pub fn to_json_value(&self) -> JsonValue {
        let mut obj = BTreeMap::new();
        obj.insert(
            "steps".to_string(),
            JsonValue::Array(
                self.steps()
                    .iter()
                    .map(NarrationStep::to_json_value)
                    .collect(),
            ),
        );
        JsonValue::Object(obj)
    }

    /// Serialize to a compact JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Parse a narration from its JSON wire form.
    pub fn from_json(doc: &str) -> Result<Narration, JsonError> {
        let value = JsonValue::parse(doc)?;
        let steps = match value.get("steps") {
            Some(JsonValue::Array(items)) => items
                .iter()
                .map(NarrationStep::from_json_value)
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err(shape_err("missing array field 'steps'")),
        };
        Ok(Narration::from_steps(steps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::narrate::RuleLantern;
    use lantern_plan::{PlanNode, PlanTree};
    use lantern_pool::default_pg_store;

    fn figure_4() -> PlanTree {
        PlanTree::new(
            "pg",
            PlanNode::new("Aggregate").with_child(
                PlanNode::new("Hash Join")
                    .with_join_cond("((i.proceeding_key) = (p.pub_key))")
                    .with_child(PlanNode::new("Seq Scan").on_relation("inproceedings"))
                    .with_child(
                        PlanNode::new("Hash").with_child(
                            PlanNode::new("Seq Scan")
                                .on_relation("publication")
                                .with_filter("title LIKE '%July%'"),
                        ),
                    ),
            ),
        )
    }

    #[test]
    fn round_trip_preserves_steps_ops_tags_and_bindings() {
        let store = default_pg_store();
        let narration = RuleLantern::new(&store).narrate(&figure_4()).unwrap();
        let json = narration.to_json();
        let back = Narration::from_json(&json).unwrap();
        assert_eq!(back, narration);
        // Double round-trip is byte-stable (deterministic field order).
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn wire_form_exposes_expected_fields() {
        let store = default_pg_store();
        let narration = RuleLantern::new(&store).narrate(&figure_4()).unwrap();
        let json = narration.to_json();
        for field in [
            "\"steps\"",
            "\"index\"",
            "\"ops\"",
            "\"text\"",
            "\"tagged\"",
            "\"bindings\"",
        ] {
            assert!(json.contains(field), "{field} missing from {json}");
        }
        // Tag bindings survive: the join step binds <C> to the join
        // condition.
        assert!(
            json.contains("[\"<C>\",\"((i.proceeding_key) = (p.pub_key))\"]"),
            "{json}"
        );
    }

    #[test]
    fn from_sentences_round_trips_too() {
        let narration =
            Narration::from_sentences(["scan the table.".to_string(), "done.".to_string()]);
        let back = Narration::from_json(&narration.to_json()).unwrap();
        assert_eq!(back, narration);
        assert_eq!(back.steps().len(), 2);
        assert_eq!(back.steps()[1].index, 2);
    }

    #[test]
    fn malformed_wire_documents_are_rejected() {
        assert!(Narration::from_json("not json").is_err());
        assert!(Narration::from_json("{}").is_err());
        assert!(Narration::from_json(r#"{"steps": [{}]}"#).is_err());
        assert!(
            Narration::from_json(r#"{"steps": [{"index": 1, "ops": [], "text": "x"}]}"#).is_err()
        );
        // Indexes must be non-negative integers, not silently mangled.
        for bad in ["-3", "1.5", "1e30"] {
            let doc = format!(
                r#"{{"steps": [{{"index": {bad}, "ops": [], "text": "x",
                    "tagged": "x", "bindings": []}}]}}"#
            );
            assert!(Narration::from_json(&doc).is_err(), "{bad}");
        }
    }

    /// The success body as the sorted-key value model renders it: the
    /// reference every direct write must equal byte for byte.
    fn reference_body(resp: &NarrationResponse) -> String {
        let mut obj = BTreeMap::new();
        obj.insert(
            "backend".to_string(),
            JsonValue::String(resp.backend.clone()),
        );
        obj.insert("narration".to_string(), resp.narration.to_json_value());
        obj.insert("text".to_string(), JsonValue::String(resp.text.clone()));
        JsonValue::Object(obj).to_string_compact()
    }

    fn written(resp: &NarrationResponse) -> String {
        let mut out = String::new();
        resp.write_json(&mut out);
        out
    }

    #[test]
    fn writer_matches_the_value_model_on_awkward_steps() {
        let awkward = [
            "quote \" backslash \\ newline \n tab \t cr \r",
            "\u{1}\u{1f}\u{7f} control",
            "café → naïve 😀",
            "",
        ];
        let steps: Vec<NarrationStep> = awkward
            .iter()
            .enumerate()
            .map(|(i, s)| NarrationStep {
                index: i + 1,
                ops: if i % 2 == 0 {
                    Vec::new()
                } else {
                    vec![s.to_string(), "Hash Join".to_string()]
                },
                text: s.to_string(),
                tagged: format!("<T> {s}"),
                bindings: if i % 2 == 0 {
                    TagBinding::new()
                } else {
                    vec![("<T>".to_string(), s.to_string())]
                },
            })
            .collect();
        let narration = Narration::from_steps(steps);
        assert_eq!(
            narration.to_json(),
            narration.to_json_value().to_string_compact()
        );
        let resp = NarrationResponse {
            backend: "rule \"x\"".to_string(),
            text: awkward.join("\n"),
            narration,
        };
        assert_eq!(written(&resp), reference_body(&resp));
        // Each step on its own, and an empty narration.
        for step in resp.narration.steps() {
            let mut out = String::new();
            step.write_json(&mut out);
            assert_eq!(out, step.to_json_value().to_string_compact());
        }
        let empty = NarrationResponse {
            backend: String::new(),
            narration: Narration::from_steps(Vec::new()),
            text: String::new(),
        };
        assert_eq!(written(&empty), reference_body(&empty));
        assert_eq!(
            written(&empty),
            r#"{"backend":"","narration":{"steps":[]},"text":""}"#
        );
    }

    #[test]
    fn writer_matches_the_value_model_on_rule_narrations() {
        let store = default_pg_store();
        let narration = RuleLantern::new(&store).narrate(&figure_4()).unwrap();
        for style in [
            crate::RenderStyle::Numbered,
            crate::RenderStyle::Paragraph,
            crate::RenderStyle::Bulleted,
        ] {
            let resp = NarrationResponse::new("rule", narration.clone(), style);
            assert_eq!(written(&resp), reference_body(&resp));
        }
    }

    #[test]
    fn writer_appends_and_matches_the_free_function() {
        let narration = Narration::from_sentences(["scan t.".to_string()]);
        let resp = NarrationResponse::new("rule", narration, crate::RenderStyle::Numbered);
        let mut out = String::from("[");
        resp.write_json(&mut out);
        out.push(',');
        write_response_json(&resp.backend, &resp.narration, &resp.text, &mut out);
        out.push(']');
        let body = reference_body(&resp);
        assert_eq!(out, format!("[{body},{body}]"));
    }

    #[test]
    fn index_past_the_integer_range_matches_the_value_model() {
        for index in [
            0,
            7,
            8_999_999_999_999_999,
            9_000_000_000_000_000,
            usize::MAX,
        ] {
            let step = NarrationStep {
                index,
                ops: Vec::new(),
                text: String::new(),
                tagged: String::new(),
                bindings: TagBinding::new(),
            };
            let mut out = String::new();
            step.write_json(&mut out);
            assert_eq!(out, step.to_json_value().to_string_compact(), "{index}");
        }
    }
}

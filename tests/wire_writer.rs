//! The direct JSON writer against the value model, over generated
//! plans: every success body the service writes
//! ([`NarrationResponse::write_json`], [`Translator::narrate_json`])
//! must be byte-identical to the sorted-key `JsonValue` rendering of
//! the same response, for `lantern-gen` plans of 1–10 operators in both
//! vendor formats, cached or not. (The restyle path is covered with the
//! router in `src/builder.rs`.)

use lantern::gen::{FormatMix, GenConfig, PlanGenerator};
use lantern::prelude::*;
use lantern::text::json::JsonValue;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The success body as the `BTreeMap` value model renders it.
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

fn narrate_json(translator: &impl Translator, req: &NarrationRequest) -> String {
    let mut out = String::new();
    translator
        .narrate_json(req, &mut out)
        .unwrap_or_else(|e| panic!("narrate_json: {e}"));
    out
}

fn documents(seed: u64, format: FormatMix) -> Vec<String> {
    let config = GenConfig::default()
        .with_seed(seed)
        .with_ops(1, 10)
        .with_format(format);
    PlanGenerator::new(config)
        .generate(8)
        .into_iter()
        .map(|item| item.doc)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The writer equals the value model on every generated narration,
    /// in every style.
    #[test]
    fn writer_matches_the_value_model(seed in any::<u64>()) {
        let rule = RuleTranslator::new(lantern::pool::default_mssql_store());
        for format in [FormatMix::PgJson, FormatMix::SqlServerXml] {
            for doc in documents(seed, format) {
                for style in [RenderStyle::Numbered, RenderStyle::Paragraph, RenderStyle::Bulleted] {
                    let req = NarrationRequest::auto(doc.as_str()).unwrap().with_style(style);
                    let resp = rule.narrate(&req).unwrap();
                    prop_assert_eq!(written(&resp), reference_body(&resp));
                    prop_assert_eq!(narrate_json(&rule, &req), reference_body(&resp));
                }
            }
        }
    }

    /// A cached service writes the same bytes on a miss and on a hit as
    /// the value model renders for a plain service's response.
    #[test]
    fn cached_service_writes_the_reference_on_miss_and_hit(seed in any::<u64>()) {
        let plain = LanternBuilder::new().build().unwrap();
        let cached = LanternBuilder::new().cache(CacheConfig::default()).build().unwrap();
        for doc in documents(seed, FormatMix::Mixed) {
            let req = NarrationRequest::auto(doc.as_str()).unwrap();
            let reference = reference_body(&plain.narrate(&req).unwrap());
            let miss = narrate_json(&cached, &req);
            let hit = narrate_json(&cached, &req);
            prop_assert_eq!(&miss, &reference);
            prop_assert_eq!(&hit, &reference);
        }
        let stats = cached.cache_stats().unwrap();
        prop_assert!(stats.hits >= 8, "{:?}", stats);
    }
}

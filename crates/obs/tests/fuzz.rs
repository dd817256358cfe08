//! Property/fuzz battery for the JSON layer.
//!
//! The parser reads what arrives from outside the program (`lold`
//! request bodies, `lolrun --resume` files): anything must come back
//! as a value or a structured error — never a panic, never unbounded
//! recursion. The renderer writes every report the toolchain emits,
//! and `parse(render(v)) == v` pins the two together.

use lol_obs::json::{self, Json, MAX_DEPTH};
use proptest::prelude::*;
use proptest::{BoxedStrategy, TestRng};

/// A string mixing ASCII, the characters the escaper must handle
/// (quotes, backslashes, every control character) and non-ASCII up to
/// the astral planes.
fn gen_string(rng: &mut TestRng) -> String {
    let len = rng.below(12) as usize;
    (0..len)
        .map(|_| match rng.below(4) {
            0 => char::from(b' ' + rng.below(95) as u8),
            1 => ['"', '\\', '/', '\u{7f}'][rng.below(4) as usize],
            2 => char::from(rng.below(0x20) as u8),
            _ => char::from_u32(0x80 + rng.below(0x10_ff80) as u32).unwrap_or('\u{fffd}'),
        })
        .collect()
}

/// A number as an emitter writes it: a raw `u64`, a negative integer,
/// or a `{:.N}` fixed-precision float.
fn gen_number(rng: &mut TestRng) -> Json {
    match rng.below(3) {
        0 => Json::from(rng.next_u64()),
        1 => Json::num(-((rng.next_u64() >> 1) as i64)),
        _ => {
            let v = (rng.unit_f64() - 0.5) * 1e6;
            let precision = rng.below(5) as usize;
            Json::num(format_args!("{v:.precision$}"))
        }
    }
}

fn gen_leaf(rng: &mut TestRng) -> Json {
    match rng.below(5) {
        0 => Json::Null,
        1 => Json::Bool(rng.below(2) == 1),
        2 => gen_number(rng),
        _ => Json::Str(gen_string(rng)),
    }
}

/// A shallow value: a leaf, or a container of up to three leaves.
fn gen_shallow(rng: &mut TestRng) -> Json {
    let n = rng.below(4) as usize;
    match rng.below(3) {
        0 => gen_leaf(rng),
        1 => Json::Arr((0..n).map(|_| gen_leaf(rng)).collect()),
        _ => gen_object(rng, n, gen_leaf),
    }
}

/// An object of `n` fields with unique keys (duplicates are a parse
/// error by design, so the generator never makes them).
fn gen_object(rng: &mut TestRng, n: usize, value: fn(&mut TestRng) -> Json) -> Json {
    let mut obj = Json::object();
    for _ in 0..n {
        let key = gen_string(rng);
        if obj.get(&key).is_none() {
            obj.push(&key, value(rng));
        }
    }
    obj
}

/// A value whose deepest leaf sits anywhere from 0 to [`MAX_DEPTH`]
/// containers down, with siblings at every level (leaves beside the
/// deepest one, so nothing goes past the bound).
fn json_value() -> BoxedStrategy<Json> {
    BoxedStrategy::from_fn(|rng| {
        let depth = rng.below(MAX_DEPTH as u64 + 1) as usize;
        let mut v = gen_leaf(rng);
        for level in 0..depth {
            let sibling = if level == 0 { gen_leaf } else { gen_shallow };
            let mut items: Vec<Json> = (0..rng.below(3)).map(|_| sibling(rng)).collect();
            let at = rng.below(items.len() as u64 + 1) as usize;
            items.insert(at, v);
            v = if rng.below(2) == 0 {
                Json::Arr(items)
            } else {
                let mut obj = Json::object();
                for (i, item) in items.into_iter().enumerate() {
                    obj.push(&format!("k{i}"), item);
                }
                obj
            };
        }
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// JSON text soup (printable + multi-byte chars): parse returns a
    /// verdict on anything.
    #[test]
    fn json_never_panics_on_soup(s in ".{0,200}") {
        let _ = json::parse(&s);
    }

    /// Escaping is total and always reparses to the same string —
    /// including control characters, quotes, and astral-plane chars.
    #[test]
    fn json_escape_round_trips(chars in proptest::collection::vec(any::<char>(), 0..64)) {
        let s: String = chars.into_iter().collect();
        let quoted = format!("\"{}\"", json::escape(&s));
        let parsed = json::parse(&quoted).unwrap();
        prop_assert_eq!(parsed.as_str(), Some(s.as_str()));
    }

    /// Arbitrarily deep nesting is rejected at the depth bound — by
    /// error, not by stack overflow.
    #[test]
    fn json_depth_is_bounded(depth in 1usize..600) {
        let doc = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        let result = json::parse(&doc);
        if depth <= 60 {
            prop_assert!(result.is_ok(), "depth {} should parse", depth);
        } else if depth > 64 {
            prop_assert!(result.is_err(), "depth {} must hit the bound", depth);
        }
    }

    /// The renderer and the parser are inverses: whatever an emitter
    /// builds reads back as the same value, raw number text included.
    #[test]
    fn json_render_round_trips(v in json_value()) {
        let text = v.to_string();
        prop_assert!(!text.contains('\n'), "the compact form is one line: {}", text);
        let back = json::parse(&text);
        prop_assert!(back.as_ref() == Ok(&v), "{} reparsed as {:?}", text, back);
    }
}

/// Duplicate keys are a parse error at every depth, not a
/// last-writer-wins footgun.
#[test]
fn json_duplicate_keys_rejected_everywhere() {
    for doc in
        [r#"{"a": 1, "a": 2}"#, r#"{"outer": {"a": 1, "a": 2}}"#, r#"[{"x": true, "x": false}]"#]
    {
        assert!(json::parse(doc).is_err(), "{doc}");
    }
}

/// The JSON subset the service needs, positively: request-shaped
/// documents parse into the expected tree.
#[test]
fn json_request_shapes_parse() {
    let doc = r#"{"source": "HAI\n", "pes": 8, "timing": false,
                  "input": ["a", "b"], "nested": {"k": [1, 2.5, -3e2, null]}}"#;
    let v = json::parse(doc).unwrap();
    assert_eq!(v.get("pes").and_then(Json::as_u64), Some(8));
    assert_eq!(v.get("timing").and_then(Json::as_bool), Some(false));
    assert_eq!(v.get("input").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
}

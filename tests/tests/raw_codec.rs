//! Property tests for the raw-object codec (`cloudsim::pack`): every
//! string round-trips exactly, and a campaign checkpoint whose raw
//! objects are held packed serializes to the same bytes as the same
//! checkpoint built with plain strings.

use clasp_core::campaign::{Campaign, CampaignConfig};
use clasp_core::world::World;
use cloudsim::pack::Packed;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde_json::Value;

/// Pieces a raw object is made of, and some it never holds.
const PIECES: &[&str] = &[
    "speedtest,method=topo,region=us-west1,server=ookla-1481,tier=premium ",
    "dloss=0.00009832588610336757,download=427.2107340230032",
    ",latency=5.953734972062805,upload=100.0 3600\n",
    "0123456789",
    ".-, =\n",
    "\\ ",
    "\\,",
    "\\=",
    "\\\\",
    "\"",
    "é",
    "✓",
    "🚀",
    "\u{0}",
    "\r\n",
    "\t",
    "x",
];

/// Length past which [`text`] stops growing a string.
const MAX_LEN: usize = 150_000;

/// A random string from `rng`: pieces, random characters, and repeats
/// of what came before, some of them long.
fn text(rng: &mut SmallRng) -> String {
    let mut out = String::new();
    for _ in 0..rng.random_range(0..40usize) {
        if out.len() > MAX_LEN {
            break;
        }
        match rng.random_range(0..10u32) {
            0..=4 => out.push_str(PIECES.choose(rng).unwrap_or(&"x")),
            5 | 6 => {
                let c = rng.random_range(0..0x11_0000u32);
                out.push(char::from_u32(c).unwrap_or('\u{fffd}'));
            }
            7 => {
                // Repeat a suffix of the text so far, possibly many times
                // (an overlapping match far longer than its offset).
                let mut from = rng.random_range(0..=out.len());
                while !out.is_char_boundary(from) {
                    from -= 1;
                }
                let tail = out[from..].to_string();
                for _ in 0..rng.random_range(1..200usize) {
                    if out.len() > MAX_LEN {
                        break;
                    }
                    out.push_str(&tail);
                }
            }
            8 => {
                let c = char::from(b'a' + rng.random_range(0..26u8));
                out.extend(std::iter::repeat_n(c, rng.random_range(1..5000usize)));
            }
            _ => out.push_str(&format!("{}", rng.random::<f64>() * 1000.0)),
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn every_string_roundtrips(seed in 0u64..u64::MAX, newline in 0u32..2) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut s = text(&mut rng);
        if newline == 1 {
            s.push('\n');
        }
        let p = Packed::new(&s);
        prop_assert_eq!(p.len(), s.len());
        prop_assert_eq!(p.unpack(), s.clone());
        // Packing is deterministic, and unpacking reuses any buffer.
        let mut buf = String::from("stale contents");
        Packed::new(&s).unpack_into(&mut buf);
        prop_assert_eq!(buf, s);
    }
}

#[test]
fn edge_strings_roundtrip() {
    // A block longer than the match window, then the block again: the
    // repeat lies out of reach and must still come back exactly.
    let mut rng = SmallRng::seed_from_u64(7);
    let block: String = (0..70_000)
        .map(|_| char::from(b'a' + rng.random_range(0..26u8)))
        .collect();
    let long_run = "7".repeat(200_000);
    for s in [
        String::new(),
        "no trailing newline".to_string(),
        "\n".to_string(),
        format!("{block}{block}"),
        long_run,
        "ünïcödé 🚀 at the very end ✓".to_string(),
    ] {
        assert_eq!(Packed::new(&s).unpack(), s, "{} bytes", s.len());
    }
}

/// `v` with every packed string replaced by a plain one of its text and
/// every shared subtree by an owned copy.
fn plain(v: &Value) -> Value {
    match v {
        Value::Shared(inner) => plain(inner),
        Value::Packed(_) => Value::String(v.text().expect("packed text").into_owned()),
        Value::Array(items) => Value::Array(items.iter().map(plain).collect()),
        Value::Object(m) => Value::Object(m.iter().map(|(k, x)| (k.clone(), plain(x))).collect()),
        other => other.clone(),
    }
}

/// Counts the packed strings in `v`.
fn packed_strings(v: &Value) -> usize {
    match v {
        Value::Shared(inner) => packed_strings(inner),
        Value::Packed(_) => 1,
        Value::Array(items) => items.iter().map(packed_strings).sum(),
        Value::Object(m) => m.values().map(packed_strings).sum(),
        _ => 0,
    }
}

#[test]
fn packed_checkpoints_serialize_like_plain_ones() {
    let world = World::tiny(121);
    let mut cfg = CampaignConfig::small(121);
    cfg.keep_raw = true;
    let result = Campaign::new(&world, cfg).runner().run().unwrap();
    let ckpt = result.checkpoints.last().unwrap();
    let objects: usize = result.buckets.iter().map(|b| b.len()).sum();
    assert!(objects > 0);
    assert_eq!(packed_strings(ckpt), objects);

    let owned = plain(ckpt);
    assert_eq!(packed_strings(&owned), 0);
    let text = serde_json::to_string(ckpt);
    assert_eq!(text, serde_json::to_string(&owned));
    assert_eq!(
        serde_json::to_string_pretty(ckpt),
        serde_json::to_string_pretty(&owned)
    );
    // Equality and lookups see the text.
    assert_eq!(*ckpt, owned);
    let parsed = serde_json::from_str(&text).unwrap();
    assert_eq!(*ckpt, parsed);
    let raw = |c: &Value| c.get("raw").and_then(|r| r.as_array()).unwrap()[0].clone();
    let data = |u: &Value| {
        u.get("objects").and_then(|o| o.as_array()).unwrap()[0]
            .get("data")
            .cloned()
    };
    let (packed, from_text) = (data(&raw(ckpt)).unwrap(), data(&raw(&parsed)).unwrap());
    assert!(matches!(packed, Value::Packed(_)) && packed.as_str().is_none());
    assert_eq!(packed.text(), from_text.text());
    // The bucket keeps the very bytes the checkpoint shares.
    let own = Packed::from_json(&packed).unwrap();
    let first = result
        .buckets
        .iter()
        .find_map(|b| b.objects().next())
        .unwrap()
        .1;
    assert!(std::sync::Arc::ptr_eq(&own, &first.data));
}

//! Raw bucket objects as typed blocks (`tsdb::Block`): a VM's batch
//! renders exactly the line protocol the campaign's text writer wrote,
//! text becomes a block only when the block renders it back, a block
//! ingests exactly like its text, and campaign checkpoints that share
//! blocks serialize, compare and resume like plain ones.

use clasp_core::campaign::{Campaign, CampaignConfig};
use clasp_core::pipeline::{result_to_point, results_block};
use clasp_core::world::World;
use clasp_core::Observer;
use cloudsim::bucket::Payload;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde_json::Value;
use simnet::routing::Tier;
use simnet::time::SimTime;
use speedtest::client::TestResult;
use tsdb::{Block, Db, FieldSet, LineIngest, Series, SeriesId};

/// The campaign's line-protocol writer as it was before batches became
/// blocks: the reference every block render must equal.
fn encode_results(results: &[TestResult], region: &str, method: &str) -> String {
    let mut out = String::with_capacity(results.len() * 112);
    for r in results {
        out.push_str("speedtest,method=");
        tsdb::line::escape_into(method, &mut out);
        out.push_str(",region=");
        tsdb::line::escape_into(region, &mut out);
        out.push_str(",server=");
        tsdb::line::escape_into(&r.server_id, &mut out);
        out.push_str(",tier=");
        out.push_str(if r.tier_premium {
            Tier::Premium.label()
        } else {
            Tier::Standard.label()
        });
        out.push_str(" dloss=");
        tsdb::line::float_into(r.download_loss, &mut out);
        out.push_str(",download=");
        tsdb::line::float_into(r.download_mbps, &mut out);
        out.push_str(",latency=");
        tsdb::line::float_into(r.latency_ms, &mut out);
        out.push_str(",uloss=");
        tsdb::line::float_into(r.upload_loss, &mut out);
        out.push_str(",upload=");
        tsdb::line::float_into(r.upload_mbps, &mut out);
        out.push(' ');
        out.push_str(&r.time.as_secs().to_string());
        out.push('\n');
    }
    out
}

/// Server ids, some needing escapes.
const SERVERS: &[&str] = &[
    "ookla-1481",
    "ookla-22",
    "s 1",
    "a,b",
    "k=v",
    "back\\slash",
    "",
    "ünï ✓",
];

/// Methods and regions, some needing escapes.
const METHODS: &[&str] = &["topo", "diff", "odd method"];
const REGIONS: &[&str] = &["us-west1", "europe-west2", "r,=x"];

/// A float from every edge class of the shortest round-trip form.
fn edge_float(rng: &mut SmallRng) -> f64 {
    match rng.random_range(0..16u32) {
        0 => -0.0,
        1 => 0.0,
        2 => f64::from_bits(rng.random_range(1..1u64 << 52)), // subnormal
        3 => -f64::from_bits(rng.random_range(1..1u64 << 52)),
        4 => f64::MIN_POSITIVE,
        5 => f64::MAX,
        6 => -f64::MAX,
        7 => 1e21,
        8 => 1e-7,
        9 => f64::from(rng.random_range(0..100_000u32)), // integral
        10 => 100.0,
        11 => f64::from_bits(
            rng.random::<u64>() & !(0x7ffu64 << 52) | (rng.random_range(1..0x7ffu64) << 52),
        ),
        12 => rng.random_range(-1e6..1e6),
        13 => rng.random_range(0.0..1.0) * 1e-3,
        14 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.random_range(0..3usize)],
        _ => rng.random_range(0.0..1000.0),
    }
}

/// A random result batch; with `finite`, every value is finite.
fn batch(rng: &mut SmallRng, finite: bool) -> Vec<TestResult> {
    let n = rng.random_range(0..40usize);
    (0..n)
        .map(|_| {
            let mut v = || loop {
                let x = edge_float(rng);
                if x.is_finite() || !finite {
                    break x;
                }
            };
            let (latency_ms, download_mbps, upload_mbps) = (v(), v(), v());
            let (download_loss, upload_loss) = (v(), v());
            TestResult {
                server_id: SERVERS.choose(rng).unwrap_or(&"s").to_string(),
                time: SimTime(match rng.random_range(0..4u32) {
                    0 => 0,
                    1 => u64::MAX,
                    _ => rng.random_range(0..20_000_000u64),
                }),
                tier_premium: rng.random(),
                latency_ms,
                download_mbps,
                upload_mbps,
                download_loss,
                upload_loss,
                duration_s: 35.0,
            }
        })
        .collect()
}

fn render(b: &Block) -> String {
    let mut out = String::new();
    b.render_into(&mut out);
    out
}

/// A stored row as a visitor sees it: series id, key, time, and
/// `(name, value bits)` pairs.
type Seen = (SeriesId, String, u64, Vec<(String, u64)>);

fn seen(rows: &mut Vec<Seen>) -> impl FnMut(SeriesId, &Series, u64, &FieldSet) + '_ {
    |id, s, t, f| {
        let fields = f
            .iter()
            .map(|(n, v)| (n.to_string(), v.to_bits()))
            .collect();
        rows.push((id, s.key().to_string(), t, fields));
    }
}

/// FNV-1a over every series of the store: key, then each sample's time
/// and `(name, value bits)` (the campaign's `tsdb_snapshot_bytes_are_pinned`
/// fingerprint).
fn fingerprint(db: &mut Db) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for s in db.snapshot().series() {
        eat(s.key().as_bytes());
        eat(&[0]);
        for (t, fields) in s.samples() {
            eat(&t.to_le_bytes());
            for (name, v) in fields.iter() {
                eat(name.as_bytes());
                eat(&v.to_bits().to_le_bytes());
            }
        }
    }
    h
}

/// What one ingest left: its result, the rows it showed, and the store.
type Ingested = (
    Vec<Result<LineIngest, (usize, tsdb::line::ParseError)>>,
    Vec<Seen>,
    u64,
    (u64, tsdb::DbStats, usize),
);

/// Ingests `blocks` one object at a time, as blocks or as their text.
fn ingest_all(blocks: &[Block], as_text: bool) -> Ingested {
    let mut db = Db::new();
    let mut rows = Vec::new();
    let results = blocks
        .iter()
        .map(|b| {
            if as_text {
                db.ingest_lines_with(&render(b), seen(&mut rows))
            } else {
                db.ingest_block_with(b, seen(&mut rows))
            }
        })
        .collect();
    let stats = (db.points_written, db.stats, db.series_count());
    (results, rows, fingerprint(&mut db), stats)
}

/// A random mutation of rendered text: most break the round trip.
fn mutate(rng: &mut SmallRng, text: &str) -> String {
    let mut s = text.to_string();
    let at = |rng: &mut SmallRng, s: &str| {
        let mut i = rng.random_range(0..=s.len());
        while !s.is_char_boundary(i) {
            i -= 1;
        }
        i
    };
    match rng.random_range(0..8u32) {
        0 => s = s.replacen(".0 ", " ", 1),
        1 => s = s.replacen("download", "dl", 1),
        2 => s = s.replacen('\n', "\r\n", 1),
        3 => {
            s.pop();
        }
        4 => {
            let i = at(rng, &s);
            s.insert(
                i,
                *[' ', ',', '=', '\n', '\\', '7'].choose(rng).unwrap_or(&' '),
            );
        }
        5 => {
            let i = at(rng, &s);
            let j = at(rng, &s).max(i);
            s.replace_range(i..j, "");
        }
        6 => s = s.replacen("0.0", "0", 1),
        _ => s.push_str(&s.clone()),
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn blocks_render_the_text_writer_bytes(seed in 0u64..u64::MAX) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let results = batch(&mut rng, false);
        let region = REGIONS.choose(&mut rng).unwrap_or(&"r");
        let method = METHODS.choose(&mut rng).unwrap_or(&"m");
        let block = results_block(&results, region, method);
        let text = render(&block);
        let want = encode_results(&results, region, method);
        prop_assert_eq!(&text, &want);
        prop_assert_eq!(block.text_len(), want.len());
        prop_assert_eq!(block.len(), results.len());
        let finite = results.iter().all(|r| {
            [r.download_loss, r.download_mbps, r.latency_ms, r.upload_loss, r.upload_mbps]
                .iter()
                .all(|v| v.is_finite())
        });
        if finite {
            let points: Vec<_> = results.iter().map(|r| result_to_point(r, region, method)).collect();
            prop_assert_eq!(&text, &tsdb::line::encode_batch(&points));
        }
        // Text that renders back comes back as a block that renders the
        // same and holds as many bytes.
        if !results.is_empty() {
            let back = Block::from_rendered(&text).expect("rendered text reads back");
            prop_assert_eq!(render(&back), text.clone());
            prop_assert_eq!(back.column_bytes(), block.column_bytes());
        }
    }

    #[test]
    fn text_becomes_a_block_only_when_it_renders_back(seed in 0u64..u64::MAX) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let finite = rng.random();
        let results = batch(&mut rng, finite);
        let text = render(&results_block(&results, "us-west1", "topo"));
        for _ in 0..4 {
            let t = mutate(&mut rng, &text);
            match Block::from_rendered(&t) {
                Some(b) => prop_assert_eq!(render(&b), t),
                None => prop_assert!(
                    t != text || results.is_empty(),
                    "rendered text refused: {:?}", t
                ),
            }
            let payload = Payload::from_text(&t);
            prop_assert_eq!(payload.unpack(), t.clone());
            prop_assert_eq!(payload.len(), t.len());
        }
    }

    #[test]
    fn blocks_ingest_like_their_text(seed in 0u64..u64::MAX) {
        // Several objects into one store, so later ones meet series that
        // earlier ones registered; some hold escaped heads or
        // non-finite values, which the store refuses whole.
        let mut rng = SmallRng::seed_from_u64(seed);
        let blocks: Vec<Block> = (0..rng.random_range(1..5usize))
            .map(|_| {
                let finite = rng.random_range(0..4u32) > 0;
                let results = batch(&mut rng, finite);
                let region = REGIONS.choose(&mut rng).unwrap_or(&"r");
                let method = METHODS.choose(&mut rng).unwrap_or(&"m");
                results_block(&results, region, method)
            })
            .collect();
        prop_assert_eq!(ingest_all(&blocks, false), ingest_all(&blocks, true));
    }
}

#[test]
fn odd_blocks_ingest_like_their_text() {
    // Heads and names the line path does not read in place, rows that
    // name no head or miss values, and line breaks inside a head.
    let mut odd = Block::with_capacity(&["b", "a"], 4);
    let h = odd.push_head("m,k=v");
    odd.push_row(h, 1, &[1.0, 2.0]);
    let mut blocks = vec![odd];
    for head in [
        "  m,k=v",
        "\tm,k=v",
        "m,k=v",
        "m,b=1,a=2",
        "m,k=v\\ w",
        "m k",
        "",
        "m,k=v\nx f=1.0 0\ny",
        ",k=v",
        "m,=v",
    ] {
        let mut b = Block::with_capacity(&["f", "g"], 3);
        let h = b.push_head(head);
        let plain = b.push_head("m,k=v");
        b.push_row(plain, 0, &[1.0, 2.0]);
        b.push_row(h, 1, &[3.0, 4.0]);
        b.push_row(h, 2, &[5.0]);
        b.push_row(plain, 3, &[6.0, 7.0, 8.0]);
        blocks.push(b.clone());
        let mut finite = Block::with_capacity(&["f", "g"], 2);
        let h = finite.push_head(head);
        finite.push_row(h, 4, &[9.0, 10.0]);
        finite.push_row(7, 5, &[9.0, 10.0]);
        blocks.push(finite);
        let mut ok = Block::with_capacity(&["f", "g"], 2);
        let h = ok.push_head(head);
        ok.push_row(h, 6, &[11.0, -0.0]);
        blocks.push(ok);
    }
    let mut nameless = Block::with_capacity(&[], 1);
    let h = nameless.push_head("m,k=v");
    nameless.push_row(h, 1, &[]);
    blocks.push(nameless);
    let (by_block, by_text) = (ingest_all(&blocks, false), ingest_all(&blocks, true));
    assert!(by_block.0.iter().any(|r| r.is_ok()) && by_block.0.iter().any(|r| r.is_err()));
    assert_eq!(by_block, by_text);
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
    // Every object a campaign writes is held as a block.
    assert!(result
        .buckets
        .iter()
        .flat_map(|b| b.objects())
        .all(|(_, o)| matches!(*o.data, Payload::Block(_))));

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
    // The bucket keeps the very payload the checkpoint shares, and the
    // parsed string reads back into a block of the same text.
    let own = Payload::from_json(&packed).unwrap();
    let first = result
        .buckets
        .iter()
        .find_map(|b| b.objects().next())
        .unwrap()
        .1;
    assert!(std::sync::Arc::ptr_eq(&own, &first.data));
    let reread = Payload::from_json(&from_text).unwrap();
    assert!(matches!(*reread, Payload::Block(_)));
    assert_eq!(reread.unpack(), own.unpack());
    assert_eq!(reread.held_bytes(), own.held_bytes());
}

#[test]
fn observed_resume_from_a_parsed_checkpoint_matches_the_full_run() {
    // A checkpoint written out and read back holds text, not blocks: the
    // resume must read it back into the same blocks, so that even the
    // byte counters of the replayed ingest come out the same.
    let world = World::tiny(121);
    let mut cfg = CampaignConfig::small(121);
    cfg.days = 3;
    cfg.diff_days = 1;
    cfg.fault_plan = faultsim::FaultPlan::uniform(5, 0.02);
    let observed = |resume: Option<&Value>| {
        let obs = Observer::new();
        let campaign = Campaign::new(&world, cfg.clone());
        let mut runner = campaign.runner().observer(&obs);
        if let Some(ckpt) = resume {
            runner = runner.resume_from(ckpt);
        }
        let result = runner.run().expect("observed run succeeds");
        (result, obs.metrics_string())
    };
    let (full, full_metrics) = observed(None);
    assert!(full.checkpoints.len() > 1);
    let parsed: Value = serde_json::from_str(&serde_json::to_string(&full.checkpoints[0])).unwrap();
    assert_eq!(packed_strings(&parsed), 0);
    let (resumed, metrics) = observed(Some(&parsed));
    for counter in ["\"ingest.raw_bytes\"", "\"ingest.packed_bytes\""] {
        assert!(metrics.contains(counter), "{counter} missing");
    }
    assert_eq!(full_metrics, metrics);
    assert_eq!(full.tests_run, resumed.tests_run);
    assert_eq!(full.db.points_written, resumed.db.points_written);
    assert_eq!(
        serde_json::to_string(full.checkpoints.last().unwrap()),
        serde_json::to_string(resumed.checkpoints.last().unwrap())
    );
}

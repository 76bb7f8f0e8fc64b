//! Property test for the campaign ingest path: `Db::ingest_lines`, which
//! reads line protocol straight into interned series, must store exactly
//! what `decode_batch_lines` + `insert_batch` stores, fail on exactly the
//! same `(line, ParseError)`, and leave the store untouched when it
//! rejects an object. Inputs are campaign-written objects put through
//! random mutations: truncation, byte flips, escapes, unsorted and
//! duplicate keys, blank, CRLF and padded lines, non-finite numbers,
//! empty names and garbage. No input may panic.

use clasp_core::pipeline::upload_batch;
use cloudsim::bucket::Bucket;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use simnet::time::SimTime;
use speedtest::client::TestResult;
use tsdb::line::{decode_batch_lines, ParseError};
use tsdb::Db;

/// Campaign objects as `upload_batch` writes them: a few results from a
/// few servers on both tiers, one object per region and method.
fn campaign_objects(rng: &mut SmallRng) -> Vec<String> {
    let mut bucket = Bucket::new("r");
    let n_objects = rng.random_range(1..4usize);
    for o in 0..n_objects {
        let results: Vec<TestResult> = (0..rng.random_range(0..6usize))
            .map(|i| TestResult {
                server_id: format!("ookla-{}", rng.random_range(0..3u32)),
                time: SimTime(3600 * i as u64 + rng.random_range(0..10u64)),
                tier_premium: rng.random_bool(0.5),
                latency_ms: rng.random_range(1.0..200.0),
                download_mbps: rng.random_range(0.0..1000.0),
                upload_mbps: rng.random_range(0.0..100.0),
                download_loss: rng.random_range(0.0..0.01),
                upload_loss: rng.random_range(0.0..0.01),
                duration_s: 35.0,
            })
            .collect();
        let region = ["us-west1", "us-east1"][o % 2];
        let method = ["topo", "diff"][rng.random_range(0..2usize)];
        upload_batch(
            &mut bucket,
            region,
            method,
            &format!("vm{o}"),
            &results,
            SimTime(o as u64),
        );
    }
    bucket
        .list("raw/")
        .into_iter()
        .filter_map(|k| bucket.get(k).map(|o| o.data.unpack()))
        .collect()
}

/// A random byte position of `s` on a character boundary.
fn boundary(rng: &mut SmallRng, s: &str) -> usize {
    let mut i = rng.random_range(0..=s.len());
    while !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

/// Applies one random mutation to `lines[i]` or to the line list.
fn mutate(rng: &mut SmallRng, lines: &mut Vec<String>) {
    if lines.is_empty() {
        lines.push(String::new());
    }
    let i = rng.random_range(0..lines.len());
    let line = &mut lines[i];
    match rng.random_range(0..14u32) {
        // Truncation.
        0 => {
            let at = boundary(rng, line);
            line.truncate(at);
        }
        // Byte flip to a separator, escape or number character, half
        // the time inside the head.
        1 => {
            let head = line.find(' ').unwrap_or(line.len());
            let at = if rng.random_bool(0.5) {
                boundary(rng, &line[..head])
            } else {
                boundary(rng, line)
            };
            let c = *b" ,=\\\r\tx0.-eN+".choose(rng).unwrap_or(&b'x');
            let end = line[at..]
                .chars()
                .next()
                .map_or(at, |ch| at + ch.len_utf8());
            line.replace_range(at..end, &char::from(c).to_string());
        }
        // An escape sequence, possibly in a key or tag value.
        2 => {
            let at = boundary(rng, line);
            let esc = *["\\ ", "\\,", "\\=", "\\\\", "\\"]
                .choose(rng)
                .unwrap_or(&"\\");
            line.insert_str(at, esc);
        }
        // Swap two parts of the head or two fields (unsorted keys).
        3 => {
            let mut sections: Vec<String> = line.split(' ').map(str::to_string).collect();
            let s = rng.random_range(0..2usize).min(sections.len() - 1);
            let mut parts: Vec<&str> = sections[s].split(',').collect();
            let a = rng.random_range(0..parts.len());
            let b = rng.random_range(0..parts.len());
            parts.swap(a, b);
            sections[s] = parts.join(",");
            *line = sections.join(" ");
        }
        // Duplicate a tag or field, with its own or another value.
        4 => {
            let mut sections: Vec<String> = line.split(' ').map(str::to_string).collect();
            let s = rng.random_range(0..2usize).min(sections.len() - 1);
            let parts: Vec<String> = sections[s].split(',').map(str::to_string).collect();
            let Some(kv) = parts.choose(rng).cloned() else {
                return;
            };
            let dup = match (rng.random_bool(0.5), kv.split_once('=')) {
                (true, Some((k, _))) => format!("{k}=7.5"),
                _ => kv,
            };
            let at = rng.random_range(1..=parts.len());
            let mut parts = parts;
            parts.insert(at, dup);
            sections[s] = parts.join(",");
            *line = sections.join(" ");
        }
        // Blank, whitespace-only and padded lines, CRLF endings.
        5 => lines.insert(
            i,
            ["", "  ", "\t", "\r"][rng.random_range(0..4usize)].to_string(),
        ),
        6 => *line = format!("  {line}\t"),
        7 => line.push('\r'),
        // Non-finite, empty or odd numbers in a field or the timestamp.
        8 => {
            let v = *[
                "NaN", "inf", "-inf", "1e400", "", "+1", "-0", "1e-400", "0x10",
            ]
            .choose(rng)
            .unwrap_or(&"NaN");
            let mut sections: Vec<String> = line.split(' ').map(str::to_string).collect();
            if rng.random_bool(0.3) {
                if let Some(t) = sections.last_mut() {
                    *t = v.to_string();
                }
            } else if let Some(fields) = sections.get_mut(1) {
                let mut parts: Vec<String> = fields.split(',').map(str::to_string).collect();
                let j = rng.random_range(0..parts.len());
                if let Some((k, _)) = parts[j].clone().split_once('=') {
                    parts[j] = format!("{k}={v}");
                }
                *fields = parts.join(",");
            }
            *line = sections.join(" ");
        }
        // Garbage lines.
        9 => lines.insert(
            i,
            Strategy::sample(&"[a-z=, \\\\0-9.]{0,24}", &mut proptest_rng(rng)),
        ),
        // Two tags merged into one escaped value: the unescaped key of
        // the new series equals the plain head of the old one.
        10 => {
            let Some((head, rest)) = line.split_once(' ') else {
                return;
            };
            let mut parts: Vec<String> = head.split(',').map(str::to_string).collect();
            if parts.len() < 3 {
                return;
            }
            let j = rng.random_range(1..parts.len() - 1);
            let next = parts.remove(j + 1).replacen('=', "\\=", 1);
            parts[j] = format!("{}\\,{next}", parts[j]);
            *line = format!("{} {rest}", parts.join(","));
        }
        // An odd measurement name.
        11 => {
            let name = *["m=x", "=", "", "m\\ x", "m\\,x", "m\\=x"]
                .choose(rng)
                .unwrap_or(&"=");
            let end = line.find([',', ' ']).unwrap_or(line.len());
            line.replace_range(..end, name);
        }
        // An empty tag or field key (the measurement's turn is above).
        12 => {
            let mut sections: Vec<String> = line.split(' ').map(str::to_string).collect();
            let s = rng.random_range(0..2usize).min(sections.len() - 1);
            let mut parts: Vec<String> = sections[s].split(',').map(str::to_string).collect();
            // The head's keys follow its measurement.
            let first = usize::from(s == 0 && parts.len() > 1);
            let j = rng.random_range(first..parts.len());
            parts[j] = match parts[j].split_once('=') {
                Some((_, v)) => format!("={v}"),
                None => "=".to_string(),
            };
            sections[s] = parts.join(",");
            *line = sections.join(" ");
        }
        // A line that repeats another one (an existing series).
        _ => {
            let j = rng.random_range(0..lines.len());
            let copy = lines[j].clone();
            lines.insert(i, copy);
        }
    }
}

/// A proptest RNG drawn from `rng`, for the string strategies.
fn proptest_rng(rng: &mut SmallRng) -> TestRng {
    TestRng::for_case("garbage", rng.random())
}

/// Everything a store holds, series in id order, as one comparable
/// string (values by their bits).
fn fingerprint(db: &mut Db) -> String {
    let mut out = String::new();
    for s in db.snapshot().series() {
        out.push_str(&format!("{} {:?} {:?}\n", s.key(), s.measurement, s.tags));
        for (t, fields) in s.samples() {
            let f: Vec<(&str, u64)> = fields.iter().map(|(n, v)| (n, v.to_bits())).collect();
            out.push_str(&format!("  {t} {f:?}\n"));
        }
    }
    out
}

/// Ingests `objects` both ways, checking each object's outcome and the
/// final contents.
fn check(objects: &[String]) -> Result<u64, TestCaseError> {
    let mut fast = Db::new();
    let mut reference = Db::new();
    let mut fallback = 0;
    for text in objects {
        let before = (fast.series_count(), fast.points_written, fast.stats);
        let got = fast.ingest_lines(text);
        let want: Result<u64, (usize, ParseError)> = decode_batch_lines(text).map(|points| {
            let n = points.len() as u64;
            reference.insert_batch(points);
            n
        });
        prop_assert_eq!(got.clone().map(|g| g.points), want, "object {:?}", text);
        match got {
            Ok(g) => fallback += g.fallback_lines,
            Err(_) => prop_assert_eq!(
                (fast.series_count(), fast.points_written, fast.stats),
                before,
                "a rejected object changed the store: {:?}",
                text
            ),
        }
        prop_assert_eq!(fast.series_count(), reference.series_count());
        prop_assert_eq!(fast.points_written, reference.points_written);
        prop_assert_eq!(fast.stats, reference.stats);
    }
    prop_assert_eq!(fingerprint(&mut fast), fingerprint(&mut reference));
    for s in fast.snapshot().series() {
        let fields_named = s
            .samples()
            .iter()
            .all(|(_, f)| f.iter().all(|(n, _)| !n.is_empty()));
        prop_assert!(
            !s.measurement.is_empty() && !s.tags.contains_key("") && fields_named,
            "a series with an empty name was stored: {:?}",
            s.key()
        );
    }
    Ok(fallback)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn mutated_objects_ingest_like_decode(seed in 0u64..u64::MAX, mutations in 0usize..6) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let objects: Vec<String> = campaign_objects(&mut rng)
            .into_iter()
            .map(|text| {
                let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
                for _ in 0..mutations {
                    mutate(&mut rng, &mut lines);
                }
                // Repeat every head: the second reading must find the
                // series the first one registered.
                if rng.random_bool(0.3) {
                    lines.extend(lines.clone());
                }
                let mut text = lines.join("\n");
                if rng.random_bool(0.5) {
                    text.push('\n');
                }
                text
            })
            .collect();
        check(&objects)?;
    }

    #[test]
    fn campaign_objects_are_read_in_place(seed in 0u64..u64::MAX) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let objects = campaign_objects(&mut rng);
        prop_assert_eq!(check(&objects)?, 0);
    }
}

#[test]
fn every_mutation_kind_is_exercised() {
    // The mutations must actually reach both outcomes and both paths.
    let (mut rejected, mut fell_back, mut clean) = (0, 0, 0);
    for seed in 0..300u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        for text in campaign_objects(&mut rng) {
            let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
            mutate(&mut rng, &mut lines);
            match Db::new().ingest_lines(&lines.join("\n")) {
                Err(_) => rejected += 1,
                Ok(g) if g.fallback_lines > 0 => fell_back += 1,
                Ok(_) => clean += 1,
            }
        }
    }
    assert!(
        rejected > 50 && fell_back > 50 && clean > 50,
        "{rejected} {fell_back} {clean}"
    );
}

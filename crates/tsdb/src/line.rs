//! Influx-style line protocol: `measurement,tag=v field=1.5 1620000000`.
//!
//! Used to persist raw campaign results to the storage bucket and read
//! them back in the analysis pipeline. The dialect is a subset of
//! InfluxDB's: finite numeric fields only, whitespace-free tag values (the
//! writer escapes spaces as `\ `), integer-second timestamps.
//!
//! [`decode`] is the reference parser: every line it accepts becomes a
//! [`Point`], and every line it rejects gets a [`ParseError`]. Bulk ingest
//! does not build `Point`s: [`Db::ingest_lines`](crate::Db::ingest_lines)
//! reads escape-free lines with sorted, unique keys straight into the
//! interned series, and hands every other line to [`decode`], so both
//! paths accept the same lines and report the same errors.

use crate::point::Point;
use std::collections::BTreeMap;

/// Serialises a point to one protocol line.
///
/// ```
/// let p = tsdb::Point::new("speedtest", 3600)
///     .tag("server", "ookla-1")
///     .field("download", 412.5);
/// let line = tsdb::line::encode(&p);
/// assert_eq!(line, "speedtest,server=ookla-1 download=412.5 3600");
/// assert_eq!(tsdb::line::decode(&line).unwrap(), p);
/// ```
pub fn encode(p: &Point) -> String {
    let mut out = String::new();
    encode_into(p, &mut out);
    out
}

/// [`encode`] appending to a caller-owned buffer — the batch writer's
/// allocation-free steady state.
pub fn encode_into(p: &Point, out: &mut String) {
    use std::fmt::Write;
    escape_into(&p.measurement, out);
    for (k, v) in &p.tags {
        out.push(',');
        escape_into(k, out);
        out.push('=');
        escape_into(v, out);
    }
    out.push(' ');
    let mut first = true;
    for (k, v) in &p.fields {
        if !first {
            out.push(',');
        }
        first = false;
        escape_into(k, out);
        out.push('=');
        float_into(*v, out);
    }
    out.push(' ');
    let _ = write!(out, "{}", p.time); // fmt to String is infallible
}

/// Appends the protocol's float form: the shortest representation that
/// round-trips, with a ".0" marker on integer-valued floats so the value
/// reads back as a float.
pub fn float_into(v: f64, out: &mut String) {
    use std::fmt::Write;
    let mark = out.len();
    let _ = write!(out, "{v}"); // fmt to String is infallible
    let plain = out.get(mark..).is_some_and(|s| {
        !(s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN"))
    });
    if plain {
        out.push_str(".0");
    }
}

/// Byte length of what [`float_into`] appends for `v`, counted without
/// writing it. `Display` writes a finite `f64` with digits, `-` and at
/// most one `.`, never an exponent, so the ".0" marker goes on exactly
/// the finite values it writes without a `.`.
pub fn float_len(v: f64) -> usize {
    struct Count {
        len: usize,
        dot: bool,
    }
    impl std::fmt::Write for Count {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.len += s.len();
            self.dot |= s.contains('.');
            Ok(())
        }
    }
    use std::fmt::Write;
    let mut count = Count { len: 0, dot: false };
    let _ = write!(count, "{v}"); // `Count` never fails
    count.len + if v.is_finite() && !count.dot { 2 } else { 0 }
}

/// True when `s` contains a character the protocol escapes (`\`, space,
/// `,`, `=`). A series whose parts all pass this test has a canonical key
/// that is also its line-protocol head.
pub(crate) fn needs_escape(s: &str) -> bool {
    s.contains(['\\', ' ', ',', '='])
}

/// Appends `s` with the protocol escapes (`\`, space, `,`, `=`).
pub fn escape_into(s: &str, out: &mut String) {
    // Fast path: campaign measurements, tags and field names contain no
    // escapable characters, so the common case is a straight copy.
    if !needs_escape(s) {
        out.push_str(s);
        return;
    }
    for c in s.chars() {
        if matches!(c, '\\' | ' ' | ',' | '=') {
            out.push('\\');
        }
        out.push(c);
    }
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            if let Some(n) = chars.next() {
                out.push(n);
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Errors from parsing a protocol line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Line had fewer than three space-separated sections.
    MissingSection,
    /// A tag or field was not `key=value`.
    BadKeyValue(String),
    /// A field value was not a finite number.
    BadNumber(String),
    /// The timestamp was not an integer.
    BadTimestamp(String),
    /// The field set was empty.
    NoFields,
    /// The measurement name was empty.
    EmptyMeasurement,
    /// A tag or field key was empty (the pair is given).
    EmptyKey(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::MissingSection => write!(f, "line has fewer than 3 sections"),
            ParseError::BadKeyValue(s) => write!(f, "bad key=value pair: {s}"),
            ParseError::BadNumber(s) => write!(f, "bad numeric value: {s}"),
            ParseError::BadTimestamp(s) => write!(f, "bad timestamp: {s}"),
            ParseError::NoFields => write!(f, "no fields"),
            ParseError::EmptyMeasurement => write!(f, "empty measurement name"),
            ParseError::EmptyKey(s) => write!(f, "empty key in pair: {s}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Splits on `sep` outside escape sequences.
fn split_unescaped(s: &str, sep: char) -> Vec<String> {
    let mut parts = Vec::new();
    let mut cur = String::new();
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            cur.push(c);
            if let Some(n) = chars.next() {
                cur.push(n);
            }
        } else if c == sep {
            parts.push(std::mem::take(&mut cur));
        } else {
            cur.push(c);
        }
    }
    parts.push(cur);
    parts
}

/// Parses a field value: any `f64` the standard parser reads, except NaN
/// and the infinities (a [`Point`] holds finite values only, so
/// aggregates and rollups never see them).
pub(crate) fn parse_value(v: &str) -> Result<f64, ParseError> {
    match v.parse::<f64>() {
        Ok(x) if x.is_finite() => Ok(x),
        _ => Err(ParseError::BadNumber(v.to_string())),
    }
}

/// Splits an escape-free `key=value` pair that holds exactly one `=`.
fn split_pair(kv: &str) -> Option<(&str, &str)> {
    kv.split_once('=').filter(|(_, v)| !v.contains('='))
}

/// [`split_pair`] for [`decode`]: a malformed pair or an empty key is
/// its error.
fn decode_pair(kv: &str) -> Result<(&str, &str), ParseError> {
    match split_pair(kv) {
        None => Err(ParseError::BadKeyValue(kv.to_string())),
        Some(("", _)) => Err(ParseError::EmptyKey(kv.to_string())),
        Some(pair) => Ok(pair),
    }
}

/// Visits the pairs of an escape-free `k=v,k=v,...` list whose keys are
/// non-empty and strictly ascend: the order a `BTreeMap` of them
/// iterates in, with no key twice. `None` as soon as a pair is
/// malformed, out of order or refused by `f`.
pub(crate) fn for_each_ascending_pair<'a>(
    list: &'a str,
    mut f: impl FnMut(&'a str, &'a str) -> Option<()>,
) -> Option<()> {
    let mut last: Option<&str> = None;
    for kv in list.split(',') {
        let (k, v) = split_pair(kv).filter(|(k, _)| !k.is_empty())?;
        if last.is_some_and(|l| l >= k) {
            return None;
        }
        last = Some(k);
        f(k, v)?;
    }
    Some(())
}

/// The three space-separated sections (head, fields, timestamp) of a
/// trimmed line with no escape sequences, or `None` when the line has a
/// `\` or a different number of sections.
pub(crate) fn plain_sections(line: &str) -> Option<(&str, &str, &str)> {
    if line.contains('\\') {
        return None;
    }
    let mut sections = line.split(' ');
    match (
        sections.next(),
        sections.next(),
        sections.next(),
        sections.next(),
    ) {
        (Some(head), Some(fields), Some(time), None) => Some((head, fields, time)),
        _ => None,
    }
}

/// Parses one protocol line back into a [`Point`].
pub fn decode(line: &str) -> Result<Point, ParseError> {
    let line = line.trim();
    if !line.contains('\\') {
        return decode_unescaped(line);
    }
    decode_escaped(line)
}

/// Fast path for lines with no escape sequences (every campaign-written
/// line): splits borrow from the input, so the only allocations are the
/// strings that end up inside the returned [`Point`]. Behaves exactly
/// like [`decode_escaped`] on such lines — `split_unescaped` degenerates
/// to a plain split when no backslash is present.
fn decode_unescaped(line: &str) -> Result<Point, ParseError> {
    let Some((head, field_sec, time_sec)) = plain_sections(line) else {
        return Err(ParseError::MissingSection);
    };
    let mut head_parts = head.split(',');
    let measurement = head_parts.next().unwrap_or_default(); // split yields ≥1 part
    if measurement.is_empty() {
        return Err(ParseError::EmptyMeasurement);
    }
    let mut tags = BTreeMap::new();
    for kv in head_parts {
        let (k, v) = decode_pair(kv)?;
        tags.insert(k.to_string(), v.to_string());
    }
    let mut fields = BTreeMap::new();
    for kv in field_sec.split(',') {
        let (k, v) = decode_pair(kv)?;
        fields.insert(k.to_string(), parse_value(v)?);
    }
    if fields.is_empty() {
        return Err(ParseError::NoFields);
    }
    let time: u64 = time_sec
        .parse()
        .map_err(|_| ParseError::BadTimestamp(time_sec.to_string()))?;
    Ok(Point::from_parts(
        measurement.to_string(),
        tags,
        fields,
        time,
    ))
}

/// General path: honours `\`-escaped separators. Iterator patterns keep
/// it total: malformed input surfaces as a [`ParseError`], never a panic —
/// these lines arrive over the serve socket from untrusted clients.
fn decode_escaped(line: &str) -> Result<Point, ParseError> {
    let mut sections = split_unescaped(line, ' ').into_iter();
    let (Some(head_sec), Some(field_sec), Some(time_sec), None) = (
        sections.next(),
        sections.next(),
        sections.next(),
        sections.next(),
    ) else {
        return Err(ParseError::MissingSection);
    };
    let mut head = split_unescaped(&head_sec, ',').into_iter();
    let measurement = unescape(&head.next().unwrap_or_default()); // split yields ≥1 part
    if measurement.is_empty() {
        return Err(ParseError::EmptyMeasurement);
    }
    let mut tags = BTreeMap::new();
    for kv in head {
        let (k, v) = escaped_pair(&kv)?;
        tags.insert(k, unescape(&v));
    }
    let mut fields = BTreeMap::new();
    for kv in split_unescaped(&field_sec, ',') {
        let (k, v) = escaped_pair(&kv)?;
        fields.insert(k, parse_value(&v)?);
    }
    if fields.is_empty() {
        return Err(ParseError::NoFields);
    }
    let time: u64 = time_sec
        .parse()
        .map_err(|_| ParseError::BadTimestamp(time_sec.clone()))?;
    Ok(Point::from_parts(measurement, tags, fields, time))
}

/// Splits an escaped `key=value` pair on its one unescaped `=`. The key
/// comes back unescaped (and must not be empty), the value still
/// escaped.
fn escaped_pair(kv: &str) -> Result<(String, String), ParseError> {
    let mut pair = split_unescaped(kv, '=').into_iter();
    let (Some(k), Some(v), None) = (pair.next(), pair.next(), pair.next()) else {
        return Err(ParseError::BadKeyValue(kv.to_string()));
    };
    let k = unescape(&k);
    if k.is_empty() {
        return Err(ParseError::EmptyKey(kv.to_string()));
    }
    Ok((k, v))
}

/// Encodes many points, one per line.
pub fn encode_batch(points: &[Point]) -> String {
    let mut out = String::new();
    for p in points {
        encode_into(p, &mut out);
        out.push('\n');
    }
    out
}

/// Decodes a batch, skipping blank lines; fails on the first bad line.
pub fn decode_batch(text: &str) -> Result<Vec<Point>, ParseError> {
    decode_batch_lines(text).map_err(|(_, e)| e)
}

/// Like [`decode_batch`], but a failure also reports the 1-based line
/// number of the offending line, so ingestion errors can name exactly
/// which record of which object was malformed.
pub fn decode_batch_lines(text: &str) -> Result<Vec<Point>, (usize, ParseError)> {
    let mut points = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        points.push(decode(line).map_err(|e| (i + 1, e))?);
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Point {
        Point::new("throughput", 1234)
            .tag("region", "us-west1")
            .tag("server", "s 1") // space to exercise escaping
            .field("mbps", 412.5)
            .field("loss", 0.01)
    }

    #[test]
    fn encode_shape() {
        let line = encode(&sample());
        assert!(line.starts_with("throughput,region=us-west1,server=s\\ 1 "));
        assert!(line.ends_with(" 1234"));
        assert!(line.contains("mbps=412.5"));
    }

    #[test]
    fn roundtrip() {
        let p = sample();
        let q = decode(&encode(&p)).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn roundtrip_special_characters() {
        let p = Point::new("m,x=y", 7)
            .tag("k=1", "v,2 z")
            .field("f 1", -3.25e-4);
        let q = decode(&encode(&p)).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn integer_valued_field_roundtrips_as_float() {
        let p = Point::new("m", 0).field("n", 100.0);
        let line = encode(&p);
        assert!(line.contains("n=100.0"), "{line}");
        assert_eq!(decode(&line).unwrap().fields["n"], 100.0);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(decode("nope"), Err(ParseError::MissingSection));
        assert!(matches!(decode("m f=x 0"), Err(ParseError::BadNumber(_))));
        assert!(matches!(
            decode("m f=1 tomorrow"),
            Err(ParseError::BadTimestamp(_))
        ));
        assert!(matches!(
            decode("m,oops f=1 0"),
            Err(ParseError::BadKeyValue(_))
        ));
    }

    #[test]
    fn decode_rejects_empty_names() {
        // InfluxDB refuses an empty measurement, tag key or field key;
        // so do both decoders, with a typed error.
        let cases = [
            (",a=b f=1 0", ParseError::EmptyMeasurement),
            (" f=1 0", ParseError::MissingSection),
            ("m,=v f=1 0", ParseError::EmptyKey("=v".into())),
            ("m,a=b,=v f=1 0", ParseError::EmptyKey("=v".into())),
            ("m =1 0", ParseError::EmptyKey("=1".into())),
            ("m f=1,=2 0", ParseError::EmptyKey("=2".into())),
            ("m,=v =1 0", ParseError::EmptyKey("=v".into())),
        ];
        for (line, want) in cases {
            assert_eq!(decode(line), Err(want.clone()), "{line:?}");
            assert_eq!(decode_escaped(line.trim()), Err(want), "escaped {line:?}");
        }
        // Escaped forms: the names are empty once unescaped too, and a
        // name that is only an escape is not empty.
        assert_eq!(decode(r",a=b\  f=1 0"), Err(ParseError::EmptyMeasurement));
        assert_eq!(
            decode(r"m,=x\ y f=1 0"),
            Err(ParseError::EmptyKey(r"=x\ y".into()))
        );
        assert_eq!(decode(r"\ ,\,=v \==1 0").unwrap().measurement, " ");
        // An empty tag value is still a value.
        assert_eq!(decode("m,a= f=1 0").unwrap().tags["a"], "");
    }

    #[test]
    fn decode_rejects_non_finite_numbers() {
        // `f64::from_str` reads all of these; a Point holds finite
        // values only, so both decoders refuse them.
        for v in ["NaN", "nan", "inf", "-inf", "+infinity", "1e400", "-1e400"] {
            let want = Err(ParseError::BadNumber(v.to_string()));
            assert_eq!(decode(&format!("m f={v} 0")), want, "{v}");
            assert_eq!(decode(&format!("m\\ x f={v} 0")), want, "escaped {v}");
            assert_eq!(decode_unescaped(&format!("m f={v} 0")), want, "{v}");
        }
        assert_eq!(
            decode_batch_lines("m f=1 0\nm f=2,g=NaN 1\n"),
            Err((2, ParseError::BadNumber("NaN".to_string())))
        );
        // Finite extremes still parse, and underflow rounds to zero.
        assert_eq!(decode("m f=1e-400 0").unwrap().fields["f"], 0.0);
        assert_eq!(decode("m f=1.7e308 0").unwrap().fields["f"], 1.7e308);
    }

    #[test]
    fn fast_and_escaped_decoders_agree() {
        // Escape-free lines hit decode_unescaped; both paths must agree
        // on points and on errors.
        for line in [
            "speedtest,region=us-west1,server=ookla-1 download=412.5,loss=0.01 3600",
            "m f=1 0",
            "m  0",
            "m f=x 0",
            "m f=NaN 0",
            "m f=1 tomorrow",
            "m,oops f=1 0",
            "nope",
        ] {
            assert_eq!(
                decode_unescaped(line),
                decode_escaped(line),
                "disagreement on {line:?}"
            );
        }
    }

    #[test]
    fn batch_roundtrip_skips_blanks() {
        let pts = vec![sample(), Point::new("m", 1).field("x", 1.0)];
        let text = format!("\n{}\n\n", encode_batch(&pts));
        let back = decode_batch(&text).unwrap();
        assert_eq!(back, pts);
    }

    #[test]
    fn batch_fails_on_bad_line() {
        assert!(decode_batch("m f=1 0\nbroken\n").is_err());
    }

    #[test]
    fn batch_error_carries_line_number() {
        // Line 3 is the bad one; blank lines still count toward numbering.
        let text = "m f=1 0\n\nbroken\nm f=2 1\n";
        match decode_batch_lines(text) {
            Err((line, ParseError::MissingSection)) => assert_eq!(line, 3),
            other => panic!("expected line-3 failure, got {other:?}"),
        }
        assert_eq!(decode_batch_lines("m f=1 0\n").unwrap().len(), 1);
    }
}

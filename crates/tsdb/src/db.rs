//! Storage: series-indexed, time-ordered point store. Tails over it
//! live in the serve layer, which fills its own buffers with the
//! batches it applies at its publish barrier.
//!
//! Points arrive one [`Point`] at a time ([`Db::insert`],
//! [`Db::insert_batch`]), as whole line-protocol objects
//! ([`Db::ingest_lines`]), which are read straight into the interned
//! series without building `Point`s, or as typed [`Block`]s of such
//! lines ([`Db::ingest_block_with`]), which store exactly what their text
//! would without it. The `_with` forms also show each stored row to the
//! caller.

use crate::block::Block;
use crate::line::{self, ParseError};
use crate::point::Point;
use crate::snapshot::{SeriesSnap, Snapshot};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::Arc;

/// A stored sample inside one series: `(time, fields)`.
pub type Sample = (u64, FieldSet);

/// Interned, sorted field names shared by every sample of one schema.
pub type FieldNames = Arc<[String]>;

/// The field values of one stored sample, in schema (sorted-name) order.
///
/// Samples of one series almost always share a single field-name set, so
/// the store keeps one interned [`FieldNames`] per schema and each sample
/// holds only an `Arc` to it plus its values — ~80 bytes instead of the
/// ~1 KB a per-sample `BTreeMap<String, f64>` costs. At campaign scale
/// (~1.7 M points) that is the difference between fitting in cache-warm
/// memory and a gigabyte of page faults.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldSet {
    names: FieldNames,
    values: Box<[f64]>,
}

impl FieldSet {
    /// Pairs `values` with their sorted, unique `names`, sharing a schema
    /// from `schemas` when the name set matches (the common case is a
    /// single schema per series, matched on the first probe). Otherwise
    /// the names are copied into a new schema, which [`Series::push`]
    /// interns.
    fn with_names<'n>(
        schemas: &[FieldNames],
        names: impl Iterator<Item = &'n str> + Clone,
        values: Box<[f64]>,
    ) -> Self {
        let names = schemas
            .iter()
            .find(|s| s.len() == values.len() && s.iter().map(String::as_str).eq(names.clone()))
            .map_or_else(|| names.map(str::to_string).collect(), Arc::clone);
        FieldSet { names, values }
    }

    /// Looks a field up by name.
    pub fn get(&self, name: &str) -> Option<&f64> {
        // Names are sorted, so binary search; sets are tiny (≤ ~8).
        self.names
            .binary_search_by(|n| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.values[i])
    }

    /// Iterates `(name, value)` in sorted-name order — the same order a
    /// `BTreeMap` of the fields would yield.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> + '_ {
        self.names
            .iter()
            .map(String::as_str)
            .zip(self.values.iter().copied())
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the sample has no fields.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The fields as an owned map (for callers that need `Point`-shaped
    /// data back, e.g. replaying stored samples as inserts).
    pub fn to_map(&self) -> BTreeMap<String, f64> {
        self.iter().map(|(k, v)| (k.to_string(), v)).collect()
    }
}

/// Stable identifier of one series within a [`Db`]: the index of the
/// series in first-insertion order. Interning series keys down to ids
/// keeps the hot ingest path free of per-point `String` allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SeriesId(pub u32);

/// One series: the shared tag set plus its time-ordered samples.
#[derive(Debug, Clone)]
pub struct Series {
    /// Measurement name.
    pub measurement: String,
    /// The series' tag set.
    pub tags: BTreeMap<String, String>,
    /// Interned canonical series key (built once, at registration).
    key: String,
    /// No part of the key needs a protocol escape and no name is empty,
    /// so the key is also the series' line-protocol head and a head
    /// byte-equal to it decodes to exactly this measurement and tag set
    /// (see [`Db::ingest_lines`]).
    plain: bool,
    /// Time-ordered samples. Out-of-order inserts are re-sorted lazily.
    samples: Vec<Sample>,
    /// Interned field-name schemas seen in this series (normally one).
    schemas: Vec<FieldNames>,
    sorted: bool,
    /// Frozen copy of this series from the last [`Db::snapshot`],
    /// invalidated by any mutation. Its presence doubles as the
    /// per-series "unchanged" bit, so an idle series costs nothing at
    /// the next snapshot (the Arc is reused wholesale).
    snap: Option<Arc<SeriesSnap>>,
}

impl Series {
    fn new(measurement: String, tags: BTreeMap<String, String>, key: String) -> Self {
        let plain = !measurement.is_empty()
            && !line::needs_escape(&measurement)
            && tags
                .iter()
                .all(|(k, v)| !k.is_empty() && !line::needs_escape(k) && !line::needs_escape(v));
        Self {
            measurement,
            tags,
            key,
            plain,
            samples: Vec::new(),
            schemas: Vec::new(),
            sorted: true,
            snap: None,
        }
    }

    /// The canonical series key (`measurement,tag1=v1,...`), interned
    /// when the series was first seen.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The plain series an escape-free line-protocol head names, when
    /// the head is its own canonical key: `measurement[,k=v...]` with tag
    /// keys strictly ascending. `None` sends the line to [`line::decode`].
    fn from_head(head: &str) -> Option<Self> {
        let (measurement, tag_list) = match head.split_once(',') {
            Some((m, t)) => (m, Some(t)),
            None => (head, None),
        };
        let mut tags = BTreeMap::new();
        if let Some(list) = tag_list {
            line::for_each_ascending_pair(list, |k, v| {
                tags.insert(k.to_string(), v.to_string());
                Some(())
            })?;
        }
        let series = Self::new(measurement.to_string(), tags, head.to_string());
        series.plain.then_some(series)
    }

    /// Appends a sample, interning its schema if the series has not
    /// seen that field-name set yet. A set staged from this series
    /// already shares one, which the pointer test finds without
    /// comparing names (`==` on `Arc<[String]>` compares the strings).
    fn push(&mut self, time: u64, mut set: FieldSet) {
        if !self.schemas.iter().any(|s| Arc::ptr_eq(s, &set.names)) {
            match self.schemas.iter().find(|s| **s == set.names) {
                Some(s) => set.names = Arc::clone(s),
                None => self.schemas.push(Arc::clone(&set.names)),
            }
        }
        if let Some((last, _)) = self.samples.last() {
            if time < *last {
                self.sorted = false;
            }
        }
        self.samples.push((time, set));
        self.snap = None;
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_by_key(|(t, _)| *t);
            self.sorted = true;
        }
    }

    /// Time-ordered view of the samples.
    pub fn samples(&mut self) -> &[Sample] {
        self.ensure_sorted();
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Drops samples with `time < horizon`; returns how many were
    /// removed (used by retention enforcement).
    pub fn drop_before(&mut self, horizon: u64) -> u64 {
        self.ensure_sorted();
        let cut = self.samples.partition_point(|(t, _)| *t < horizon);
        self.samples.drain(..cut);
        if cut > 0 {
            self.snap = None;
        }
        cut as u64
    }

    /// True when the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

/// Hashes the canonical key of a (measurement, tags) pair without
/// materialising it: the key's pieces go into one byte stream, which
/// hashes exactly as [`head_hash`] of the joined key does, because
/// `DefaultHasher` (SipHash) buffers partial words across `write` and
/// `write_u8` calls (`key_hash_is_the_hash_of_the_joined_key` checks it). So a point's
/// series and a line's head find the same index bucket.
/// `DefaultHasher::new()` is deterministic (fixed keys).
fn key_hash(measurement: &str, tags: &BTreeMap<String, String>) -> u64 {
    let mut h = DefaultHasher::new();
    h.write(measurement.as_bytes());
    for (k, v) in tags {
        h.write_u8(b',');
        h.write(k.as_bytes());
        h.write_u8(b'=');
        h.write(v.as_bytes());
    }
    h.finish()
}

/// Hashes a series key (or a line-protocol head) as one byte string.
fn head_hash(key: &str) -> u64 {
    let mut h = DefaultHasher::new();
    h.write(key.as_bytes());
    h.finish()
}

/// A staged sample: series index, time, fields.
type Row = (usize, u64, FieldSet);

/// What one [`Db::ingest_lines`] call stored.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LineIngest {
    /// Points inserted (one per non-blank line).
    pub points: u64,
    /// Lines that went through [`line::decode`] because they could not
    /// be read in place: escapes, unsorted or duplicate keys, or a head
    /// that names no plain series and cannot register one.
    pub fallback_lines: u64,
}

/// Ingest-side observability counters for a [`Db`]: a deterministic
/// function of the insert call sequence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbStats {
    /// Calls to [`Db::insert_batch`] and objects stored by
    /// [`Db::ingest_lines`].
    pub insert_batches: u64,
}

/// The database: an in-memory, single-writer time-series store.
#[derive(Debug, Default)]
pub struct Db {
    series: Vec<Series>,
    /// Canonical-key hash → candidate series indices (collisions resolved
    /// by exact comparison). Lookups never build a key string.
    index: HashMap<u64, Vec<usize>>,
    /// Points accepted in total.
    pub points_written: u64,
    /// Ingest counters (see [`DbStats`]).
    pub stats: DbStats,
    /// Publish epoch of the last *changed* snapshot (see
    /// [`Db::snapshot`]).
    generation: u64,
    /// The last snapshot taken, returned again while the database is
    /// unchanged so repeated publishes of an idle store are free.
    last_snapshot: Option<Snapshot>,
}

impl Db {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// The index of the series whose bucket is `h` and that `is` accepts.
    fn find_series(&self, h: u64, is: impl Fn(&Series) -> bool) -> Option<usize> {
        self.index
            .get(&h)?
            .iter()
            .copied()
            .find(|&i| self.series.get(i).is_some_and(&is))
    }

    /// Appends a new series under index bucket `h`; returns its index.
    fn register(&mut self, h: u64, series: Series) -> usize {
        let i = self.series.len();
        self.series.push(series);
        self.index.entry(h).or_default().push(i);
        i
    }

    /// Forgets every series registered after the first `len` (those of a
    /// rejected object). Newest first, so each one is the last id in its
    /// index bucket.
    fn unregister_from(&mut self, len: usize) {
        let index = &mut self.index;
        for s in self.series.drain(len..).rev() {
            let h = head_hash(&s.key);
            if let Some(ids) = index.get_mut(&h) {
                ids.pop();
                if ids.is_empty() {
                    index.remove(&h);
                }
            }
        }
    }

    /// The interned schemas of series `i`.
    fn schemas(&self, i: usize) -> &[FieldNames] {
        self.series
            .get(i)
            .map(|s| s.schemas.as_slice())
            .unwrap_or_default()
    }

    /// Looks up the id of an existing series.
    pub fn series_id(
        &self,
        measurement: &str,
        tags: &BTreeMap<String, String>,
    ) -> Option<SeriesId> {
        let i = self.find_series(key_hash(measurement, tags), |s| {
            s.measurement == measurement && s.tags == *tags
        })?;
        u32::try_from(i).ok().map(SeriesId)
    }

    /// Resolves (or registers) the series of a point and builds its row.
    /// A hit allocates nothing but the row's values; a miss interns the
    /// canonical key once for the lifetime of the series.
    fn stage_point(&mut self, p: &Point) -> Row {
        let h = key_hash(&p.measurement, &p.tags);
        let i = match self.find_series(h, |s| s.measurement == p.measurement && s.tags == p.tags) {
            Some(i) => i,
            None => self.register(
                h,
                Series::new(
                    p.measurement.clone(),
                    p.tags.clone(),
                    p.series_key().to_string(),
                ),
            ),
        };
        let set = FieldSet::with_names(
            self.schemas(i),
            p.fields.keys().map(String::as_str),
            p.fields.values().copied().collect(),
        );
        (i, p.time, set)
    }

    /// Builds the row of one trimmed, non-blank line without a [`Point`],
    /// or `None` when the line is not provably what [`line::decode`]
    /// would read: no escapes, three sections, a `u64` timestamp, field
    /// keys strictly ascending with finite values, and a head that is the
    /// key of a plain series (or registers one). `None` lines go through
    /// `decode`, which accepts or rejects them.
    /// `fields` is scratch space for the line's `(name, value)` pairs.
    fn stage_plain<'t>(&mut self, text: &'t str, fields: &mut Vec<(&'t str, f64)>) -> Option<Row> {
        let (head, field_sec, time) = line::plain_sections(text)?;
        let time: u64 = time.parse().ok()?;
        fields.clear();
        line::for_each_ascending_pair(field_sec, |k, v| {
            fields.push((k, line::parse_value(v).ok()?));
            Some(())
        })?;
        let i = self.resolve_plain_head(head)?;
        let set = FieldSet::with_names(
            self.schemas(i),
            fields.iter().map(|(k, _)| *k),
            fields.iter().map(|(_, v)| *v).collect(),
        );
        Some((i, time, set))
    }

    /// The plain series whose key is `head`, registered when there is
    /// none yet and `head` can name one (see [`Series::from_head`]).
    fn resolve_plain_head(&mut self, head: &str) -> Option<usize> {
        let h = head_hash(head);
        match self.find_series(h, |s| s.plain && s.key == head) {
            Some(i) => Some(i),
            None => Some(self.register(h, Series::from_head(head)?)),
        }
    }

    /// Stages one line of an object: `Ok(None)` when it is blank, in
    /// place when [`Self::stage_plain`] can read it, and otherwise
    /// through [`line::decode`], counted in `fallback_lines`.
    fn stage_line<'t>(
        &mut self,
        raw: &'t str,
        fields: &mut Vec<(&'t str, f64)>,
        fallback_lines: &mut u64,
    ) -> Result<Option<Row>, ParseError> {
        let text = raw.trim();
        if text.is_empty() {
            return Ok(None);
        }
        if let Some(row) = self.stage_plain(text, fields) {
            return Ok(Some(row));
        }
        let p = line::decode(text)?;
        *fallback_lines += 1;
        Ok(Some(self.stage_point(&p)))
    }

    /// Stores the rows of an object that staged whole, showing each to
    /// `visit` first, in order.
    fn commit_rows(
        &mut self,
        rows: Vec<Row>,
        fallback_lines: u64,
        mut visit: impl FnMut(SeriesId, &Series, u64, &FieldSet),
    ) -> LineIngest {
        self.stats.insert_batches += 1;
        let points = rows.len() as u64;
        for (i, time, set) in rows {
            if let (Some(s), Ok(id)) = (self.series.get(i), u32::try_from(i)) {
                visit(SeriesId(id), s, time, &set);
            }
            self.store((i, time, set));
        }
        LineIngest {
            points,
            fallback_lines,
        }
    }

    /// Appends a staged row to its series. Rows only name registered
    /// series.
    fn store(&mut self, (i, time, set): Row) {
        if let Some(s) = self.series.get_mut(i) {
            s.push(time, set);
            self.points_written += 1;
        }
    }

    /// Inserts one point, routing it to its series.
    pub fn insert(&mut self, p: Point) {
        let row = self.stage_point(&p);
        self.store(row);
    }

    /// Inserts many points as one batch.
    pub fn insert_batch(&mut self, points: impl IntoIterator<Item = Point>) {
        self.stats.insert_batches += 1;
        for p in points {
            let row = self.stage_point(&p);
            self.store(row);
        }
    }

    /// Ingests one line-protocol object (blank lines skipped) as a single
    /// batch, all or nothing: the same points, series, ids and
    /// [`DbStats`] as `insert_batch(line::decode_batch_lines(text)?)`,
    /// and on a bad line the same 1-based line number and
    /// [`ParseError`], with the store left exactly as it was.
    ///
    /// Lines are read straight into the interned series: the head
    /// (`measurement,k=v,...`) is looked up by its bytes among the plain
    /// series and the fields and timestamp are parsed in place, with no
    /// [`Point`] built. Any line this cannot prove equal to its `decode`
    /// reading goes through `decode` instead, so both paths accept the
    /// same lines by construction.
    pub fn ingest_lines(&mut self, text: &str) -> Result<LineIngest, (usize, ParseError)> {
        self.ingest_lines_with(text, |_, _, _, _| {})
    }

    /// [`Db::ingest_lines`] that shows each stored row to `visit` as
    /// `(id, series, time, fields)`, in line order, once the whole
    /// object has parsed (a rejected object shows none).
    pub fn ingest_lines_with(
        &mut self,
        text: &str,
        visit: impl FnMut(SeriesId, &Series, u64, &FieldSet),
    ) -> Result<LineIngest, (usize, ParseError)> {
        let registered = self.series.len();
        let mut rows = Vec::new();
        let mut fields = Vec::new();
        let mut fallback_lines = 0;
        for (n, raw) in text.lines().enumerate() {
            match self.stage_line(raw, &mut fields, &mut fallback_lines) {
                Ok(Some(row)) => rows.push(row),
                Ok(None) => {}
                Err(e) => {
                    self.unregister_from(registered);
                    return Err((n + 1, e));
                }
            }
        }
        Ok(self.commit_rows(rows, fallback_lines, visit))
    }

    /// [`Db::ingest_lines_with`] over the text `block` renders, without
    /// the text: the same result, rows, series, ids and [`DbStats`], and
    /// on a bad row the same line number and error.
    ///
    /// Each head is resolved once, at its first row, with the lookup and
    /// registration the line path makes for a line it reads in place;
    /// later rows of the head reuse the series, and their values are
    /// stored as they are. That is what the line path stores: a finite
    /// value's rendering parses back to its own bits. A row that the
    /// line path would not read in place (an escaped or odd head, odd
    /// field names, a non-finite value) is rendered and goes through the
    /// line path itself, and a block whose rows are not one line each is
    /// rendered whole.
    pub fn ingest_block_with(
        &mut self,
        block: &Block,
        visit: impl FnMut(SeriesId, &Series, u64, &FieldSet),
    ) -> Result<LineIngest, (usize, ParseError)> {
        if !block.one_line_per_row() {
            let mut text = String::new();
            block.render_into(&mut text);
            return self.ingest_lines_with(&text, visit);
        }
        let registered = self.series.len();
        let fields_plain = block.plain_fields();
        // Per head: unresolved, or the plain series its rows go to
        // (`None`: rows take the line path).
        let mut series: Vec<Option<Option<usize>>> = vec![None; block.head_count()];
        let mut rows = Vec::with_capacity(block.len());
        let mut fallback_lines = 0;
        let mut line = String::new();
        for n in 0..block.len() {
            let Some((h, time, values)) = block.row(n) else {
                continue;
            };
            let head = block.head(h);
            let resolved = series.get_mut(h as usize).and_then(|slot| {
                *slot.get_or_insert_with(|| {
                    // A plain series key has no space or escape, so only
                    // leading whitespace, which the line path trims off
                    // before it reads the head, needs ruling out here.
                    let untrimmed = head.trim_start().len() == head.len();
                    (fields_plain && untrimmed)
                        .then(|| self.resolve_plain_head(head))
                        .flatten()
                })
            });
            let staged = match resolved {
                Some(i) if values.iter().all(|v| v.is_finite()) => {
                    let names = block.field_names();
                    let set = FieldSet::with_names(self.schemas(i), names, values.into());
                    Ok(Some((i, time, set)))
                }
                _ => self.stage_block_line(block, n, &mut line, &mut fallback_lines),
            };
            match staged {
                Ok(Some(row)) => rows.push(row),
                Ok(None) => {}
                Err(e) => {
                    self.unregister_from(registered);
                    return Err((n + 1, e));
                }
            }
        }
        Ok(self.commit_rows(rows, fallback_lines, visit))
    }

    /// Stages row `r` of `block` through the line path: its line is
    /// rendered into `line` and read as [`Db::ingest_lines_with`] reads
    /// it.
    fn stage_block_line(
        &mut self,
        block: &Block,
        r: usize,
        line: &mut String,
        fallback_lines: &mut u64,
    ) -> Result<Option<Row>, ParseError> {
        line.clear();
        block.row_line_into(r, line);
        self.stage_line(line, &mut Vec::new(), fallback_lines)
    }

    /// Number of distinct series.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// Freezes the current contents into an immutable, cheaply-clonable
    /// [`Snapshot`] for lock-free concurrent reads.
    ///
    /// Generations are content-addressed per [`Db`]: a changed database
    /// yields a new snapshot with `generation + 1`; an unchanged one
    /// returns the previous snapshot (same generation, same storage).
    /// Series untouched since the last snapshot share their frozen
    /// storage across generations, so the cost of a snapshot tracks the
    /// freshly-ingested data, not the store size.
    ///
    /// Needs `&mut self` only to finalize lazy sorts and maintain the
    /// per-series caches; the returned value is pure read-side state.
    pub fn snapshot(&mut self) -> Snapshot {
        let unchanged = self.last_snapshot.as_ref().filter(|last| {
            last.series_count() == self.series.len() && self.series.iter().all(|s| s.snap.is_some())
        });
        if let Some(last) = unchanged {
            return last.clone();
        }
        let mut frozen = Vec::with_capacity(self.series.len());
        let mut points = 0u64;
        for s in &mut self.series {
            s.ensure_sorted();
            points += s.samples.len() as u64;
            let snap = s.snap.get_or_insert_with(|| {
                Arc::new(SeriesSnap::new(
                    s.measurement.clone(),
                    s.tags.clone(),
                    s.key.clone(),
                    s.samples.clone(),
                ))
            });
            frozen.push(Arc::clone(snap));
        }
        self.generation += 1;
        let snap = Snapshot::new(self.generation, points, frozen);
        self.last_snapshot = Some(snap.clone());
        snap
    }

    /// Looks a series up by measurement and exact tag set.
    pub fn series_mut(
        &mut self,
        measurement: &str,
        tags: &BTreeMap<String, String>,
    ) -> Option<&mut Series> {
        let id = self.series_id(measurement, tags)?;
        Some(&mut self.series[id.0 as usize])
    }

    /// Iterates over the series of a measurement that match all `filters`
    /// (tag key → required value). Yields mutable references because
    /// reading samples may trigger a lazy re-sort.
    pub fn matching_series(
        &mut self,
        measurement: &str,
        filters: &[(String, String)],
    ) -> Vec<&mut Series> {
        self.series
            .iter_mut()
            .filter(|s| {
                s.measurement == measurement
                    && filters
                        .iter()
                        .all(|(k, v)| s.tags.get(k).is_some_and(|tv| tv == v))
            })
            .collect()
    }

    /// Distinct values of `tag` across all series of a measurement.
    pub fn tag_values(&self, measurement: &str, tag: &str) -> Vec<String> {
        let mut vals: Vec<String> = self
            .series
            .iter()
            .filter(|s| s.measurement == measurement)
            .filter_map(|s| s.tags.get(tag).cloned())
            .collect();
        vals.sort_unstable();
        vals.dedup();
        vals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::series_key;

    fn point(server: &str, t: u64, mbps: f64) -> Point {
        Point::new("throughput", t)
            .tag("server", server)
            .field("mbps", mbps)
    }

    #[test]
    fn insert_routes_to_series() {
        let mut db = Db::new();
        db.insert(point("a", 0, 1.0));
        db.insert(point("a", 10, 2.0));
        db.insert(point("b", 5, 3.0));
        assert_eq!(db.series_count(), 2);
        assert_eq!(db.points_written, 3);
        let tags: BTreeMap<String, String> = [("server".to_string(), "a".to_string())].into();
        let s = db.series_mut("throughput", &tags).unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn series_ids_follow_first_insertion_order() {
        let mut db = Db::new();
        db.insert(point("b", 0, 1.0));
        db.insert(point("a", 1, 2.0));
        db.insert(point("b", 2, 3.0));
        let b_tags: BTreeMap<String, String> = [("server".to_string(), "b".to_string())].into();
        let a_tags: BTreeMap<String, String> = [("server".to_string(), "a".to_string())].into();
        assert_eq!(db.series_id("throughput", &b_tags), Some(SeriesId(0)));
        assert_eq!(db.series_id("throughput", &a_tags), Some(SeriesId(1)));
        assert_eq!(db.series_id("latency", &b_tags), None);
    }

    #[test]
    fn interned_key_matches_canonical_form() {
        let mut db = Db::new();
        db.insert(
            Point::new("throughput", 0)
                .tag("server", "a")
                .tag("region", "r1")
                .field("mbps", 1.0),
        );
        let all = db.matching_series("throughput", &[]);
        assert_eq!(all[0].key(), "throughput,region=r1,server=a");
        assert_eq!(
            all[0].key(),
            series_key(&all[0].measurement, &all[0].tags.clone())
        );
    }

    #[test]
    fn out_of_order_inserts_are_sorted_on_read() {
        let mut db = Db::new();
        db.insert(point("a", 100, 1.0));
        db.insert(point("a", 50, 2.0));
        db.insert(point("a", 75, 3.0));
        let tags: BTreeMap<String, String> = [("server".to_string(), "a".to_string())].into();
        let s = db.series_mut("throughput", &tags).unwrap();
        let times: Vec<u64> = s.samples().iter().map(|(t, _)| *t).collect();
        assert_eq!(times, vec![50, 75, 100]);
    }

    #[test]
    fn matching_series_filters_by_tags() {
        let mut db = Db::new();
        db.insert(
            Point::new("throughput", 0)
                .tag("region", "us-west1")
                .tag("server", "a")
                .field("mbps", 1.0),
        );
        db.insert(
            Point::new("throughput", 0)
                .tag("region", "us-east1")
                .tag("server", "b")
                .field("mbps", 2.0),
        );
        let matched = db.matching_series(
            "throughput",
            &[("region".to_string(), "us-west1".to_string())],
        );
        assert_eq!(matched.len(), 1);
        assert_eq!(matched[0].tags["server"], "a");
    }

    #[test]
    fn matching_series_requires_measurement() {
        let mut db = Db::new();
        db.insert(point("a", 0, 1.0));
        assert!(db.matching_series("latency", &[]).is_empty());
    }

    #[test]
    fn tag_values_are_sorted_distinct() {
        let mut db = Db::new();
        for s in ["b", "a", "b", "c"] {
            db.insert(point(s, 0, 1.0));
        }
        assert_eq!(db.tag_values("throughput", "server"), vec!["a", "b", "c"]);
        assert!(db.tag_values("throughput", "nope").is_empty());
    }

    #[test]
    fn different_tag_sets_are_distinct_series() {
        let mut db = Db::new();
        db.insert(point("a", 0, 1.0));
        db.insert(
            Point::new("throughput", 0)
                .tag("server", "a")
                .tag("tier", "premium")
                .field("mbps", 2.0),
        );
        assert_eq!(db.series_count(), 2);
    }

    /// Everything a store holds, series in id order: measurement, tags,
    /// key and `(time, [(field, value bits)])` samples.
    type Contents = Vec<(
        String,
        Vec<(String, String)>,
        String,
        Vec<(u64, Vec<(String, u64)>)>,
    )>;

    fn contents(db: &mut Db) -> Contents {
        db.snapshot()
            .series()
            .map(|s| {
                let tags = s.tags.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
                let samples = s
                    .samples()
                    .iter()
                    .map(|(t, f)| {
                        (
                            *t,
                            f.iter()
                                .map(|(n, v)| (n.to_string(), v.to_bits()))
                                .collect(),
                        )
                    })
                    .collect();
                (s.measurement.clone(), tags, s.key().to_string(), samples)
            })
            .collect()
    }

    #[test]
    fn key_hash_is_the_hash_of_the_joined_key() {
        for (m, tags) in [
            (
                "speedtest",
                &[
                    ("method", "topo"),
                    ("region", "us-west1"),
                    ("tier", "premium"),
                ][..],
            ),
            (
                "a-much-longer-measurement-name",
                &[("k", "a value longer than one word")],
            ),
            ("m", &[]),
            ("", &[("", "")]),
            ("m,x", &[("k=1", "v 2")]),
        ] {
            let tags: BTreeMap<String, String> = tags
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect();
            assert_eq!(key_hash(m, &tags), head_hash(&series_key(m, &tags)), "{m}");
        }
    }

    /// Points stored, or the first bad line and its error.
    type Outcome = Result<usize, (usize, ParseError)>;

    /// Ingests `objects` through `decode_batch_lines` + `insert_batch`,
    /// the reference [`Db::ingest_lines`] must match.
    fn reference(objects: &[&str]) -> (Db, Vec<Outcome>) {
        let mut db = Db::new();
        let outcomes = objects
            .iter()
            .map(|text| {
                let points = line::decode_batch_lines(text)?;
                let n = points.len();
                db.insert_batch(points);
                Ok(n)
            })
            .collect();
        (db, outcomes)
    }

    const CAMPAIGN_LINE: &str =
        "speedtest,method=topo,region=us-west1,server=ookla-1,tier=premium \
         dloss=0.001,download=412.5,latency=20.25,uloss=0.0005,upload=95.0 3600";

    #[test]
    fn ingest_lines_reads_campaign_lines_in_place() {
        let text = format!(
            "{CAMPAIGN_LINE}\n\n{}\n{}\r\n",
            CAMPAIGN_LINE.replace("3600", "7200"),
            CAMPAIGN_LINE.replace("ookla-1", "ookla-2")
        );
        let mut db = Db::new();
        let got = db.ingest_lines(&text).unwrap();
        assert_eq!(
            got,
            LineIngest {
                points: 3,
                fallback_lines: 0
            }
        );
        let (mut want, _) = reference(&[&text]);
        assert_eq!(contents(&mut db), contents(&mut want));
        assert_eq!(
            (db.points_written, db.stats),
            (want.points_written, want.stats)
        );
        assert_eq!(db.series_count(), 2);
        // One interned schema serves both series.
        let names: Vec<_> = db.series.iter().map(|s| s.schemas.len()).collect();
        assert_eq!(names, vec![1, 1]);
    }

    #[test]
    fn empty_names_are_rejected_at_ingest() {
        // An empty measurement or key fails the object like `decode`
        // does, even when a series of that key exists already.
        let mut db = Db::new();
        db.insert(Point::from_parts(
            String::new(),
            [("a".to_string(), "b".to_string())].into(),
            [("f".to_string(), 1.0)].into(),
            0,
        ));
        for (text, want) in [
            (",a=b f=1 0", ParseError::EmptyMeasurement),
            ("m,=v f=1 0", ParseError::EmptyKey("=v".into())),
            ("m =1 0", ParseError::EmptyKey("=1".into())),
            ("m f=1,=2 0", ParseError::EmptyKey("=2".into())),
        ] {
            let text = format!("{CAMPAIGN_LINE}\n{text}");
            let before = (db.series_count(), db.points_written, db.stats);
            assert_eq!(db.ingest_lines(&text), Err((2, want)), "{text:?}");
            assert_eq!((db.series_count(), db.points_written, db.stats), before);
        }
    }

    #[test]
    fn lines_that_need_decode_fall_back_and_match_it() {
        let lines = [
            "m,a=1,b=2 f=1,g=2 0",  // plain
            "m,b=2,a=1 f=3 1",      // unsorted tags, same series
            "m,a=1,a=3 f=4 2",      // duplicate tag: last wins
            "m,a=1,b=2 g=5,f=6 3",  // unsorted fields
            "m,a=1,b=2 f=7,f=8 4",  // duplicate field
            "m\\ x,a=1 f=9 5",      // escaped measurement
            "m,a=x\\,b\\=2 f=10 6", // escaped tag value: not series a=1,b=2
            "m,a=x,b=2 f=11 7",     // plain, distinct series
            "  m,a=1,b=2 f=12 8  ", // padded
            "m=y,a=1 f=13 9",       // `=` in the measurement
            "m,a=1,b=2 f=14 10",    // plain again, first series
        ];
        let text = lines.join("\n");
        let mut db = Db::new();
        let got = db.ingest_lines(&text).unwrap();
        assert_eq!(
            got,
            LineIngest {
                points: 11,
                fallback_lines: 7
            }
        );
        let (mut want, _) = reference(&[&text]);
        assert_eq!(contents(&mut db), contents(&mut want));
        assert_eq!(
            (db.points_written, db.stats),
            (want.points_written, want.stats)
        );
    }

    #[test]
    fn series_from_points_and_from_heads_share_one_index() {
        let mut db = Db::new();
        db.insert(decode_line(CAMPAIGN_LINE));
        db.insert(decode_line("m,a=x\\,b\\=2 f=1 0"));
        // Byte-equal head of a point-registered series: no new series.
        db.ingest_lines(&CAMPAIGN_LINE.replace("3600", "0"))
            .unwrap();
        assert_eq!(db.series_count(), 2);
        // A head equal to the *key* of a series that is not plain names a
        // different series (tags a=x, b=2).
        db.ingest_lines("m,a=x,b=2 f=2 0").unwrap();
        assert_eq!(db.series_count(), 3);
        assert_eq!(db.series[1].tags.len(), 1);
        assert_eq!(db.series[2].tags.len(), 2);
        let tags: BTreeMap<String, String> = [("a", "x"), ("b", "2")]
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .into();
        assert_eq!(db.series_id("m", &tags), Some(SeriesId(2)));
    }

    fn decode_line(text: &str) -> Point {
        line::decode(text).unwrap()
    }

    #[test]
    fn rejected_object_leaves_the_store_untouched() {
        let good = format!("{CAMPAIGN_LINE}\nm,a=1 f=1 0\n");
        let bad = format!(
            "{}\nnew,a=1 f=1 0\nnew\\ x f=2 0\n\n{}\n",
            CAMPAIGN_LINE.replace("3600", "1"),
            CAMPAIGN_LINE.replace("412.5", "NaN")
        );
        let mut db = Db::new();
        db.ingest_lines(&good).unwrap();
        let before = (
            db.series_count(),
            db.points_written,
            db.stats,
            contents(&mut db),
        );
        let err = db.ingest_lines(&bad).unwrap_err();
        assert_eq!(err, (5, ParseError::BadNumber("NaN".to_string())));
        assert_eq!(
            (
                db.series_count(),
                db.points_written,
                db.stats,
                contents(&mut db)
            ),
            before
        );
        // The forgotten series are unindexed: the next object registers
        // them afresh, in first-appearance order.
        db.ingest_lines("new\\ x f=2 0\nnew,a=1 f=1 0").unwrap();
        let (mut want, outcomes) = reference(&[&good, &bad, "new\\ x f=2 0\nnew,a=1 f=1 0"]);
        assert_eq!(outcomes[1], Err(err));
        assert_eq!(contents(&mut db), contents(&mut want));
        assert_eq!(db.series[2].measurement, "new x");
    }
}

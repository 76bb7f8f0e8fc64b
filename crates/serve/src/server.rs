//! The service: sequenced ingest staging, epoch publishing, cached
//! reads, and tail subscriptions over one [`tsdb::Db`]. Tails are
//! serve's own bounded buffers, filled at the publish barrier with the
//! batches it applies, in the order it applies them.
//!
//! ## Lock order
//!
//! Five independent locks, acquired in this canonical order when more
//! than one is needed (never the reverse):
//! `writer` → `published` → `cache` → `tails` → `counters`.
//! Readers in steady state touch only `published` (one clone of an
//! `Arc`-backed snapshot) and `cache`; `counters` is innermost so any
//! path can bump a counter without ordering concerns. The declaration
//! below is machine-checked by `clasp-lint` (C001).
// clasp-lint: lock-order(writer, published, cache, tails, counters)
//!
//! ## Determinism contract
//!
//! The database contents after a [`Server::publish`] are a pure
//! function of the set of `(client, seq, points)` batches applied so
//! far: staged batches are applied in canonical `(client, seq)` order,
//! and a gap in a client's sequence holds that client's later batches
//! back until the gap fills. Query responses are rendered from
//! immutable snapshots through one canonical encoder, so equal
//! `(seed, config_hash, generation, query)` keys always yield equal
//! bytes — which is also why the response cache never needs
//! invalidation.

use crate::cache::{CacheStats, QueryCache};
use crate::congestion::CongestionSpec;
use crate::proto::{self, QuerySpec, Request};
use serde_json::{Map, Value};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;
use tsdb::{Db, Point, Snapshot};

/// Identity and sizing for one [`Server`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Campaign seed; part of every cache key so caches from different
    /// campaigns can never alias.
    pub seed: u64,
    /// Hash of the campaign configuration; same role as `seed`.
    pub config_hash: u64,
    /// Response-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Upper bound a client may request for one tail's buffer.
    pub max_tail_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            config_hash: 0,
            cache_capacity: 256,
            max_tail_capacity: 65536,
        }
    }
}

/// Everything the single logical writer owns: the database plus the
/// staging area for sequenced ingest.
struct Writer {
    db: Db,
    /// client → seq → staged batch. `BTreeMap` at both levels *is* the
    /// canonical apply order.
    staged: BTreeMap<String, BTreeMap<u64, Vec<Point>>>,
    /// Next sequence number expected from each client.
    next_seq: BTreeMap<String, u64>,
    staged_points: u64,
}

/// Open tail subscriptions, addressed by server-assigned id, and the
/// tail accounting `stats` reports under `db`.
///
/// A tail is bounded: once its consumer falls `capacity` points behind,
/// further applied points are counted as overflow instead of buffered.
/// The publisher never blocks and never reorders, so a lagging consumer
/// sees a gap, knows its exact size, and can fall back to a query.
#[derive(Default)]
struct TailRegistry {
    next_id: u64,
    tails: BTreeMap<u64, TailBuffer>,
    counts: TailCounts,
}

/// Tail accounting, all monotonic.
#[derive(Debug, Clone, Copy, Default)]
struct TailCounts {
    /// Points buffered into tails (excludes overflow).
    published: u64,
    /// Deepest any buffer has been after a publish (a high-water mark).
    peak_depth: u64,
    /// Points lost to backpressure across all tails.
    overflow: u64,
    opened: u64,
    closed: u64,
}

/// One subscription: applied points not yet polled, and an overflow
/// tally.
struct TailBuffer {
    buf: VecDeque<Point>,
    capacity: usize,
    overflow: u64,
}

impl TailRegistry {
    /// Mirrors one applied batch into every buffer, in order. A buffer
    /// that is already full takes one bulk overflow add for the batch.
    fn mirror(&mut self, points: &[Point]) {
        for t in self.tails.values_mut() {
            let take = t.capacity.saturating_sub(t.buf.len()).min(points.len());
            t.buf.extend(points.iter().take(take).cloned());
            let spill = (points.len() - take) as u64;
            t.overflow += spill;
            let c = &mut self.counts;
            c.overflow += spill;
            c.published += take as u64;
            c.peak_depth = c.peak_depth.max(t.buf.len() as u64);
        }
    }
}

/// Request counters, all monotonic.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    ingest_batches: u64,
    ingest_points: u64,
    ingest_rejected: u64,
    publishes: u64,
    queries: u64,
    congestions: u64,
    polls: u64,
    poll_points: u64,
    subscribes: u64,
    unsubscribes: u64,
    errors: u64,
}

/// Summary of one publish barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublishInfo {
    /// Generation of the now-published snapshot.
    pub generation: u64,
    /// Staged batches applied at this barrier.
    pub applied_batches: u64,
    /// Points those batches carried.
    pub applied_points: u64,
    /// Batches still held back by sequence gaps.
    pub deferred_batches: u64,
}

/// A concurrent query/ingest service over one embedded [`Db`].
///
/// `&self` everywhere: share it via `Arc` across connection threads.
pub struct Server {
    cfg: ServerConfig,
    writer: Mutex<Writer>,
    published: Mutex<Snapshot>,
    cache: Mutex<QueryCache>,
    tails: Mutex<TailRegistry>,
    counters: Mutex<Counters>,
}

impl Server {
    /// A fresh server holding an empty database, with generation 1
    /// (the empty snapshot) already published.
    pub fn new(cfg: ServerConfig) -> Self {
        let mut db = Db::new();
        let initial = db.snapshot();
        Self {
            cfg,
            writer: Mutex::new(Writer {
                db,
                staged: BTreeMap::new(),
                next_seq: BTreeMap::new(),
                staged_points: 0,
            }),
            published: Mutex::new(initial),
            cache: Mutex::new(QueryCache::new(cfg.cache_capacity)),
            tails: Mutex::new(TailRegistry {
                next_id: 1,
                ..TailRegistry::default()
            }),
            counters: Mutex::new(Counters::default()),
        }
    }

    /// The configuration this server was built with.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// Stages a sequenced batch for the next publish barrier. Returns
    /// the number of points now staged for this client.
    ///
    /// `seq` must be fresh for `client`: already-applied or
    /// already-staged sequence numbers are rejected so a retrying
    /// client cannot double-apply a batch.
    pub fn ingest(&self, client: &str, seq: u64, points: Vec<Point>) -> Result<u64, String> {
        if client.is_empty() {
            return Err("empty client id".into());
        }
        let mut w = self.lock_writer();
        let applied = w.next_seq.get(client).copied().unwrap_or(0);
        if seq < applied {
            self.count(|c| c.ingest_rejected += 1);
            return Err(format!("seq {seq} already applied (next is {applied})"));
        }
        let per_client = w.staged.entry(client.to_string()).or_default();
        if per_client.contains_key(&seq) {
            self.count(|c| c.ingest_rejected += 1);
            return Err(format!("seq {seq} already staged"));
        }
        let n = points.len() as u64;
        per_client.insert(seq, points);
        let staged: u64 = per_client.values().map(|b| b.len() as u64).sum();
        w.staged_points += n;
        self.count(|c| {
            c.ingest_batches += 1;
            c.ingest_points += n;
        });
        Ok(staged)
    }

    /// Applies every staged batch that is next in its client's
    /// sequence — in canonical `(client, seq)` order, mirroring each
    /// into the open tails — then publishes a new snapshot. Batches
    /// behind a sequence gap stay staged.
    pub fn publish(&self) -> PublishInfo {
        let mut w = self.lock_writer();
        let mut applied_batches = 0u64;
        let mut applied_points = 0u64;
        // Canonical order: clients sorted by id (BTreeMap iteration),
        // each client's contiguous run of sequence numbers in order.
        let clients: Vec<String> = w.staged.keys().cloned().collect();
        for client in clients {
            loop {
                let next = w.next_seq.get(&client).copied().unwrap_or(0);
                let Some(batch) = w.staged.get_mut(&client).and_then(|m| m.remove(&next)) else {
                    break;
                };
                applied_batches += 1;
                applied_points += batch.len() as u64;
                w.staged_points -= batch.len() as u64;
                self.tails.lock().expect("tails lock").mirror(&batch);
                // clasp-lint: allow(C002) -- in-memory publish barrier: the writer mutex is the intended serialization point, not I/O
                w.db.insert_batch(batch);
                w.next_seq.insert(client.clone(), next + 1);
            }
            if w.staged.get(&client).is_some_and(BTreeMap::is_empty) {
                w.staged.remove(&client);
            }
        }
        let deferred_batches = w.staged.values().map(|m| m.len() as u64).sum();
        let snap = w.db.snapshot();
        let generation = snap.generation();
        // Lock order: writer → published. Holding the writer lock
        // across the swap makes publish atomic with respect to other
        // publishers; readers never take the writer lock.
        *self.published.lock().expect("published lock") = snap;
        drop(w);
        self.count(|c| c.publishes += 1);
        PublishInfo {
            generation,
            applied_batches,
            applied_points,
            deferred_batches,
        }
    }

    /// The last published snapshot (cheap clone; `Arc`s inside).
    pub fn snapshot(&self) -> Snapshot {
        self.published.lock().expect("published lock").clone()
    }

    /// Runs a query against the last published snapshot, through the
    /// response cache. Returns the rendered response line and whether
    /// it was served from cache.
    ///
    /// The rendered bytes are identical for a hit and the miss that
    /// populated it, and identical to encoding
    /// [`Query::run_snapshot`](tsdb::Query::run_snapshot) over the same
    /// generation with [`proto::results_to_value`].
    pub fn query(&self, spec: &QuerySpec) -> (String, bool) {
        let snap = self.snapshot();
        let key = format!(
            "{}:{}:{}:{}",
            self.cfg.seed,
            self.cfg.config_hash,
            snap.generation(),
            spec.canonical()
        );
        self.count(|c| c.queries += 1);
        if let Some(hit) = self.cache.lock().expect("cache lock").get(&key) {
            return (hit, true);
        }
        let results = spec.to_query().run_snapshot(&snap);
        let m = proto::results_to_map(snap.generation(), &results);
        let rendered = proto::ok_response(m);
        self.cache
            .lock()
            .expect("cache lock")
            .insert(key, rendered.clone());
        (rendered, false)
    }

    /// Runs congestion detection against the last published snapshot,
    /// through the same response cache as [`Server::query`]. Returns
    /// the rendered response line and whether it was served from cache.
    ///
    /// The spec's canonical bytes carry `"op":"congestion"`, so
    /// congestion entries and query entries can never alias in the
    /// shared key space even for identical measurement/field/filters.
    pub fn congestion(&self, spec: &CongestionSpec) -> (String, bool) {
        let snap = self.snapshot();
        let key = format!(
            "{}:{}:{}:{}",
            self.cfg.seed,
            self.cfg.config_hash,
            snap.generation(),
            spec.canonical()
        );
        self.count(|c| c.congestions += 1);
        if let Some(hit) = self.cache.lock().expect("cache lock").get(&key) {
            return (hit, true);
        }
        let report = spec.evaluate(&snap);
        let m = report.to_map(snap.generation());
        let rendered = proto::ok_response(m);
        self.cache
            .lock()
            .expect("cache lock")
            .insert(key, rendered.clone());
        (rendered, false)
    }

    /// Opens a bounded tail over the ingest stream and returns its id.
    /// Points mirrored into the tail are those *applied* at publish
    /// barriers (staged points are not yet visible anywhere). Holding
    /// the writer lock means a tail never sees part of a publish.
    pub fn subscribe(&self, capacity: usize) -> Result<u64, String> {
        if capacity == 0 {
            return Err("capacity must be positive".into());
        }
        if capacity > self.cfg.max_tail_capacity {
            return Err(format!(
                "capacity {capacity} exceeds maximum {}",
                self.cfg.max_tail_capacity
            ));
        }
        let w = self.lock_writer();
        let mut reg = self.tails.lock().expect("tails lock");
        let id = reg.next_id;
        reg.next_id += 1;
        reg.counts.opened += 1;
        let tail = TailBuffer {
            buf: VecDeque::new(),
            capacity,
            overflow: 0,
        };
        reg.tails.insert(id, tail);
        drop(reg);
        drop(w);
        self.count(|c| c.subscribes += 1);
        Ok(id)
    }

    /// Drains up to `max` buffered points from subscription `tail`.
    /// Returns the points plus `(overflow, remaining)` accounting.
    pub fn poll(&self, tail: u64, max: usize) -> Result<(Vec<Point>, u64, usize), String> {
        let mut reg = self.tails.lock().expect("tails lock");
        let t = reg
            .tails
            .get_mut(&tail)
            .ok_or_else(|| format!("unknown tail {tail}"))?;
        let points: Vec<Point> = t.buf.drain(..max.min(t.buf.len())).collect();
        let (overflow, remaining) = (t.overflow, t.buf.len());
        drop(reg);
        let n = points.len() as u64;
        self.count(|c| {
            c.polls += 1;
            c.poll_points += n;
        });
        Ok((points, overflow, remaining))
    }

    /// Closes subscription `tail`: its buffer and its accounting go
    /// at once.
    pub fn unsubscribe(&self, tail: u64) -> Result<(), String> {
        let mut reg = self.tails.lock().expect("tails lock");
        if reg.tails.remove(&tail).is_none() {
            return Err(format!("unknown tail {tail}"));
        }
        reg.counts.closed += 1;
        drop(reg);
        self.count(|c| c.unsubscribes += 1);
        Ok(())
    }

    /// Canonical stats object: request counters, cache behaviour,
    /// database ingest/tail accounting, and the published generation.
    pub fn stats(&self) -> Value {
        let (insert_batches, points_written, staged_points, staged_batches) = {
            let w = self.lock_writer();
            (
                w.db.stats.insert_batches,
                w.db.points_written,
                w.staged_points,
                w.staged.values().map(|m| m.len() as u64).sum::<u64>(),
            )
        };
        // Touched in canonical lock order (each guard is a statement
        // temporary, but keeping the textual order matched to the
        // declaration keeps the invariant easy to audit).
        let generation = self.snapshot().generation();
        let cache = self.cache.lock().expect("cache lock").stats();
        let (open_tails, t) = {
            let reg = self.tails.lock().expect("tails lock");
            (reg.tails.len() as u64, reg.counts)
        };
        let c = *self.counters.lock().expect("counters lock");

        let mut m = Map::new();
        m.insert("generation".into(), generation.into());
        m.insert("staged_points".into(), staged_points.into());
        m.insert("staged_batches".into(), staged_batches.into());
        m.insert("open_tails".into(), open_tails.into());
        let mut req = Map::new();
        req.insert("ingest_batches".into(), c.ingest_batches.into());
        req.insert("ingest_points".into(), c.ingest_points.into());
        req.insert("ingest_rejected".into(), c.ingest_rejected.into());
        req.insert("publishes".into(), c.publishes.into());
        req.insert("queries".into(), c.queries.into());
        req.insert("congestions".into(), c.congestions.into());
        req.insert("polls".into(), c.polls.into());
        req.insert("poll_points".into(), c.poll_points.into());
        req.insert("subscribes".into(), c.subscribes.into());
        req.insert("unsubscribes".into(), c.unsubscribes.into());
        req.insert("errors".into(), c.errors.into());
        m.insert("requests".into(), Value::Object(req));
        let mut cm = Map::new();
        cm.insert("hits".into(), cache.hits.into());
        cm.insert("misses".into(), cache.misses.into());
        cm.insert("evictions".into(), cache.evictions.into());
        cm.insert("entries".into(), cache.entries.into());
        m.insert("cache".into(), Value::Object(cm));
        let mut dm = Map::new();
        dm.insert("points_written".into(), points_written.into());
        dm.insert("insert_batches".into(), insert_batches.into());
        dm.insert("points_published".into(), t.published.into());
        dm.insert("tail_peak_depth".into(), t.peak_depth.into());
        dm.insert("tail_overflow".into(), t.overflow.into());
        dm.insert("tails_opened".into(), t.opened.into());
        dm.insert("tails_closed".into(), t.closed.into());
        m.insert("db".into(), Value::Object(dm));
        Value::Object(m)
    }

    /// Response-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.lock().expect("cache lock").stats()
    }

    /// Pushes `serve.*` counters and gauges into an observer's metrics
    /// registry, so serve activity lands in the same canonical metrics
    /// JSON as the rest of a campaign.
    pub fn record_metrics(&self, obs: &clasp_obs::Observer) {
        let stats = self.stats();
        obs.with_metrics(|m| {
            for section in ["requests", "cache", "db"] {
                if let Some(Value::Object(members)) = stats.get(section) {
                    for (k, v) in members {
                        if let Some(n) = v.as_u64() {
                            m.inc(&format!("serve.{section}.{k}"), n);
                        }
                    }
                }
            }
            if let Some(g) = stats.get("generation").and_then(Value::as_f64) {
                m.set_gauge("serve.generation", g);
            }
            if let Some(g) = stats.get("open_tails").and_then(Value::as_f64) {
                m.set_gauge("serve.open_tails", g);
            }
        });
    }

    /// Dispatches one parsed request and renders the response line.
    /// This single entry point backs every transport, which is what
    /// makes in-process and over-the-wire responses byte-identical.
    pub fn handle(&self, req: Request) -> String {
        match req {
            Request::Ping => {
                let mut m = Map::new();
                m.insert("pong".into(), true.into());
                proto::ok_response(m)
            }
            Request::Ingest {
                client,
                seq,
                points,
            } => match self.ingest(&client, seq, points) {
                Ok(staged) => {
                    let mut m = Map::new();
                    m.insert("client".into(), client.as_str().into());
                    m.insert("seq".into(), seq.into());
                    m.insert("staged".into(), staged.into());
                    proto::ok_response(m)
                }
                Err(e) => self.error(&e),
            },
            Request::Publish => {
                let info = self.publish();
                let mut m = Map::new();
                m.insert("generation".into(), info.generation.into());
                m.insert("applied_batches".into(), info.applied_batches.into());
                m.insert("applied_points".into(), info.applied_points.into());
                m.insert("deferred_batches".into(), info.deferred_batches.into());
                proto::ok_response(m)
            }
            Request::Query(spec) => self.query(&spec).0,
            Request::Congestion(spec) => self.congestion(&spec).0,
            Request::Subscribe { capacity } => match self.subscribe(capacity) {
                Ok(id) => {
                    let mut m = Map::new();
                    m.insert("tail".into(), id.into());
                    proto::ok_response(m)
                }
                Err(e) => self.error(&e),
            },
            Request::Poll { tail, max } => match self.poll(tail, max) {
                Ok((points, overflow, remaining)) => {
                    let mut m = Map::new();
                    m.insert(
                        "points".into(),
                        Value::Array(
                            points
                                .iter()
                                .map(|p| tsdb::line::encode(p).into())
                                .collect(),
                        ),
                    );
                    m.insert("overflow".into(), overflow.into());
                    m.insert("remaining".into(), remaining.into());
                    proto::ok_response(m)
                }
                Err(e) => self.error(&e),
            },
            Request::Unsubscribe { tail } => match self.unsubscribe(tail) {
                Ok(()) => {
                    let mut m = Map::new();
                    m.insert("closed".into(), true.into());
                    proto::ok_response(m)
                }
                Err(e) => self.error(&e),
            },
            Request::Stats => {
                let mut m = Map::new();
                m.insert("stats".into(), self.stats());
                proto::ok_response(m)
            }
        }
    }

    /// Parses and dispatches one raw request line.
    pub fn handle_line(&self, line: &str) -> String {
        match Request::parse(line) {
            Ok(req) => self.handle(req),
            Err(e) => self.error(&e),
        }
    }

    fn error(&self, message: &str) -> String {
        self.count(|c| c.errors += 1);
        proto::err_response(message)
    }

    fn count(&self, f: impl FnOnce(&mut Counters)) {
        f(&mut self.counters.lock().expect("counters lock"));
    }

    fn lock_writer(&self) -> std::sync::MutexGuard<'_, Writer> {
        self.writer.lock().expect("writer lock")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(server: &str, t: u64, mbps: f64) -> Point {
        Point::new("throughput", t)
            .tag("server", server)
            .field("mbps", mbps)
    }

    fn spec() -> QuerySpec {
        QuerySpec::select("throughput", "mbps").aggregate(tsdb::Aggregate::Max)
    }

    #[test]
    fn staged_batches_invisible_until_publish() {
        let s = Server::new(ServerConfig::default());
        s.ingest("c1", 0, vec![point("a", 0, 1.0)]).unwrap();
        let (resp, _) = s.query(&spec());
        assert!(resp.contains("\"results\":[]"), "{resp}");
        let info = s.publish();
        assert_eq!((info.applied_batches, info.applied_points), (1, 1));
        let (resp, _) = s.query(&spec());
        assert!(resp.contains("\"rows\":[[0,1]]"), "{resp}");
    }

    #[test]
    fn arrival_order_does_not_change_published_bytes() {
        // Two clients, three batches each, delivered in two very
        // different interleavings: the published response bytes match.
        let batches: Vec<(&str, u64, Vec<Point>)> = vec![
            ("alpha", 0, vec![point("a", 0, 1.0)]),
            ("alpha", 1, vec![point("a", 1, 2.0)]),
            ("alpha", 2, vec![point("a", 2, 3.0)]),
            ("beta", 0, vec![point("b", 0, 4.0)]),
            ("beta", 1, vec![point("b", 1, 5.0)]),
            ("beta", 2, vec![point("b", 2, 6.0)]),
        ];
        let run = |order: &[usize]| {
            let s = Server::new(ServerConfig::default());
            for &i in order {
                let (c, seq, pts) = &batches[i];
                s.ingest(c, *seq, pts.clone()).unwrap();
            }
            s.publish();
            let q = QuerySpec::select("throughput", "mbps")
                .aggregate(tsdb::Aggregate::Sum)
                .group_by_time(1);
            s.query(&q).0
        };
        let forward = run(&[0, 1, 2, 3, 4, 5]);
        let tangled = run(&[5, 3, 0, 4, 2, 1]);
        assert_eq!(forward, tangled);
    }

    #[test]
    fn sequence_gap_defers_batches() {
        let s = Server::new(ServerConfig::default());
        s.ingest("c", 1, vec![point("a", 1, 2.0)]).unwrap();
        let info = s.publish();
        assert_eq!(info.applied_batches, 0);
        assert_eq!(info.deferred_batches, 1);
        // The gap fills: both apply, in sequence order.
        s.ingest("c", 0, vec![point("a", 0, 1.0)]).unwrap();
        let info = s.publish();
        assert_eq!(info.applied_batches, 2);
        assert_eq!(info.deferred_batches, 0);
        let snap = s.snapshot();
        assert_eq!(snap.points(), 2);
    }

    #[test]
    fn duplicate_and_stale_seqs_are_rejected() {
        let s = Server::new(ServerConfig::default());
        s.ingest("c", 0, vec![point("a", 0, 1.0)]).unwrap();
        assert!(s.ingest("c", 0, vec![]).is_err(), "staged duplicate");
        s.publish();
        assert!(s.ingest("c", 0, vec![]).is_err(), "applied duplicate");
        s.ingest("c", 1, vec![point("a", 1, 2.0)]).unwrap();
    }

    #[test]
    fn query_bytes_match_in_process_evaluation() {
        let s = Server::new(ServerConfig::default());
        s.ingest("c", 0, (0..50).map(|t| point("a", t, t as f64)).collect())
            .unwrap();
        s.publish();
        let q = QuerySpec::select("throughput", "mbps")
            .group_by_time(10)
            .aggregate(tsdb::Aggregate::Percentile(95.0));
        let (served, _) = s.query(&q);
        // Independent evaluation through the library path.
        let snap = s.snapshot();
        let direct = q.to_query().run_snapshot(&snap);
        let body = proto::results_to_value(snap.generation(), &direct);
        let Value::Object(m) = body else {
            unreachable!()
        };
        assert_eq!(served, proto::ok_response(m));
    }

    #[test]
    fn cache_hit_returns_identical_bytes() {
        let s = Server::new(ServerConfig::default());
        s.ingest("c", 0, vec![point("a", 0, 1.0)]).unwrap();
        s.publish();
        let (first, hit1) = s.query(&spec());
        let (second, hit2) = s.query(&spec());
        assert!(!hit1);
        assert!(hit2);
        assert_eq!(first, second);
        let cs = s.cache_stats();
        assert_eq!((cs.hits, cs.misses), (1, 1));
    }

    #[test]
    fn new_generation_misses_cache_old_entries_remain_valid() {
        let s = Server::new(ServerConfig::default());
        s.ingest("c", 0, vec![point("a", 0, 1.0)]).unwrap();
        s.publish();
        let (g2, _) = s.query(&spec());
        s.ingest("c", 1, vec![point("a", 1, 9.0)]).unwrap();
        s.publish();
        let (g3, hit) = s.query(&spec());
        assert!(!hit, "new generation must not alias the old entry");
        assert_ne!(g2, g3);
        assert!(g3.contains("9"), "{g3}");
    }

    #[test]
    fn publishing_without_changes_keeps_generation_and_cache() {
        let s = Server::new(ServerConfig::default());
        s.ingest("c", 0, vec![point("a", 0, 1.0)]).unwrap();
        let g1 = s.publish().generation;
        let _ = s.query(&spec());
        // Nothing staged: the snapshot is reused and the cache still
        // hits, because the generation did not move.
        let g2 = s.publish().generation;
        assert_eq!(g1, g2);
        let (_, hit) = s.query(&spec());
        assert!(hit);
    }

    #[test]
    fn tails_see_applied_points_with_backpressure_accounting() {
        let s = Server::new(ServerConfig::default());
        let id = s.subscribe(2).unwrap();
        s.ingest("c", 0, (0..5).map(|t| point("a", t, 1.0)).collect())
            .unwrap();
        s.publish();
        let (points, overflow, remaining) = s.poll(id, 100).unwrap();
        assert_eq!(points.len(), 2, "bounded buffer");
        assert_eq!(overflow, 3, "the rest was counted, not buffered");
        assert_eq!(remaining, 0);
        assert_eq!(db_stat(&s, "tail_overflow"), 3);
        s.unsubscribe(id).unwrap();
        assert!(s.poll(id, 1).is_err());
        // Accounting stops once unsubscribed: further publishes add no
        // overflow against the closed tail.
        s.ingest("c", 1, (5..10).map(|t| point("a", t, 1.0)).collect())
            .unwrap();
        s.publish();
        assert_eq!(db_stat(&s, "tail_overflow"), 3);
        assert_eq!(db_stat(&s, "tails_closed"), 1);
    }

    /// One member of the `db` section of [`Server::stats`].
    fn db_stat(s: &Server, name: &str) -> u64 {
        s.stats()
            .get("db")
            .and_then(|d| d.get(name))
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("stats missing db.{name}"))
    }

    /// The times of every point `tail` holds, drained.
    fn drain_times(s: &Server, tail: u64) -> Vec<u64> {
        let (points, _, remaining) = s.poll(tail, usize::MAX).unwrap();
        assert_eq!(remaining, 0);
        points.iter().map(|p| p.time).collect()
    }

    #[test]
    fn tails_mirror_batches_in_canonical_order() {
        // Staged out of order across two clients and one publish; the
        // tail sees (client, seq) order, which is also the store's.
        let s = Server::new(ServerConfig::default());
        let id = s.subscribe(16).unwrap();
        s.ingest("b", 0, vec![point("b", 20, 1.0), point("b", 21, 1.0)])
            .unwrap();
        s.ingest("a", 1, vec![point("a", 11, 1.0)]).unwrap();
        s.ingest("a", 0, vec![point("a", 10, 1.0)]).unwrap();
        s.publish();
        s.ingest("b", 1, vec![point("b", 22, 1.0)]).unwrap();
        s.ingest("a", 2, vec![point("a", 12, 1.0)]).unwrap();
        s.publish();
        assert_eq!(drain_times(&s, id), vec![10, 11, 20, 21, 12, 22]);
        assert_eq!(db_stat(&s, "points_published"), 6);
    }

    #[test]
    fn tail_buffer_is_bounded_with_overflow_count() {
        let s = Server::new(ServerConfig::default());
        let id = s.subscribe(2).unwrap();
        s.ingest("c", 0, (0..5).map(|t| point("a", t, 1.0)).collect())
            .unwrap();
        s.publish();
        // The first two buffered, the other three counted as overflow.
        let (points, overflow, remaining) = s.poll(id, 1).unwrap();
        assert_eq!((points[0].time, overflow, remaining), (0, 3, 1));
        // Draining frees capacity for later publishes.
        s.ingest("c", 1, vec![point("a", 9, 1.0)]).unwrap();
        s.publish();
        assert_eq!(drain_times(&s, id), vec![1, 9]);
        assert_eq!(db_stat(&s, "tail_overflow"), 3);
    }

    #[test]
    fn full_tail_buffer_overflows_whole_batches() {
        let s = Server::new(ServerConfig::default());
        let id = s.subscribe(2).unwrap();
        // One batch fills the buffer and spills the rest; the next batch
        // finds it full and overflows whole, in its own publish or in
        // the same one.
        s.ingest("c", 0, (0..5).map(|t| point("a", t, 1.0)).collect())
            .unwrap();
        s.ingest("c", 1, (5..9).map(|t| point("a", t, 1.0)).collect())
            .unwrap();
        s.publish();
        s.ingest("c", 2, (9..12).map(|t| point("a", t, 1.0)).collect())
            .unwrap();
        s.publish();
        let (points, overflow, remaining) = s.poll(id, 1).unwrap();
        assert_eq!((points[0].time, overflow, remaining), (0, 10, 1));
        assert_eq!(drain_times(&s, id), vec![1]);
        assert_eq!(db_stat(&s, "tail_overflow"), 10);
        // Draining frees capacity for later publishes.
        s.ingest("c", 3, vec![point("a", 12, 1.0)]).unwrap();
        s.publish();
        assert_eq!(drain_times(&s, id), vec![12]);
        assert_eq!(db_stat(&s, "points_published"), 3);
    }

    #[test]
    fn tail_peak_depth_is_a_high_water_mark() {
        let s = Server::new(ServerConfig::default());
        let id = s.subscribe(8).unwrap();
        s.ingest("c", 0, (0..3).map(|t| point("a", t, 1.0)).collect())
            .unwrap();
        s.ingest("c", 1, (3..5).map(|t| point("a", t, 1.0)).collect())
            .unwrap();
        s.publish();
        assert_eq!(db_stat(&s, "tail_peak_depth"), 5);
        assert_eq!(drain_times(&s, id).len(), 5);
        s.ingest("c", 2, vec![point("a", 9, 1.0)]).unwrap();
        s.publish();
        // Draining does not lower the mark; a shallower publish keeps it.
        assert_eq!(db_stat(&s, "tail_peak_depth"), 5);
        assert_eq!(db_stat(&s, "insert_batches"), 3);
        assert_eq!(db_stat(&s, "tail_overflow"), 0);
    }

    #[test]
    fn mid_stream_subscriber_sees_only_later_publishes() {
        let s = Server::new(ServerConfig::default());
        let early = s.subscribe(8).unwrap();
        s.ingest("c", 0, vec![point("a", 0, 1.0)]).unwrap();
        s.publish();
        // Staged before the subscribe but applied after it: mirrored.
        s.ingest("c", 1, vec![point("a", 1, 1.0)]).unwrap();
        let late = s.subscribe(8).unwrap();
        s.publish();
        assert_eq!(drain_times(&s, early), vec![0, 1]);
        assert_eq!(drain_times(&s, late), vec![1]);
    }

    #[test]
    fn unsubscribe_stops_accrual() {
        let s = Server::new(ServerConfig::default());
        let gone = s.subscribe(1).unwrap();
        let kept = s.subscribe(1).unwrap();
        s.ingest("c", 0, (0..3).map(|t| point("a", t, 1.0)).collect())
            .unwrap();
        s.publish();
        assert_eq!(db_stat(&s, "tail_overflow"), 4);
        s.unsubscribe(gone).unwrap();
        // Counted at unsubscribe, before any further publish.
        assert_eq!(db_stat(&s, "tails_closed"), 1);
        s.ingest("c", 1, (3..6).map(|t| point("a", t, 1.0)).collect())
            .unwrap();
        s.publish();
        // Only the kept tail accrues: three more overflowed points.
        assert_eq!(db_stat(&s, "tail_overflow"), 7);
        assert_eq!(s.poll(kept, 8).unwrap().1, 5);
        assert!(s.unsubscribe(gone).is_err());
        assert_eq!(db_stat(&s, "tails_closed"), 1);
        assert_eq!(db_stat(&s, "tails_opened"), 2);
    }

    #[test]
    fn zero_capacity_subscribe_rejected() {
        let s = Server::new(ServerConfig::default());
        let err = s.subscribe(0).unwrap_err();
        assert!(err.contains("capacity"), "{err}");
        assert_eq!(db_stat(&s, "tails_opened"), 0);
    }

    #[test]
    fn subscribe_capacity_is_bounded() {
        let s = Server::new(ServerConfig {
            max_tail_capacity: 8,
            ..ServerConfig::default()
        });
        assert!(s.subscribe(0).is_err());
        assert!(s.subscribe(9).is_err());
        assert!(s.subscribe(8).is_ok());
    }

    #[test]
    fn stats_shape_is_canonical() {
        let s = Server::new(ServerConfig::default());
        s.ingest("c", 0, vec![point("a", 0, 1.0)]).unwrap();
        s.publish();
        let _ = s.query(&spec());
        let stats = s.stats();
        assert_eq!(stats.get("generation").and_then(Value::as_u64), Some(2));
        let req = stats.get("requests").unwrap();
        assert_eq!(req.get("ingest_batches").and_then(Value::as_u64), Some(1));
        assert_eq!(req.get("publishes").and_then(Value::as_u64), Some(1));
        assert_eq!(req.get("queries").and_then(Value::as_u64), Some(1));
        // Rendering twice yields the same bytes (no wall-clock, no
        // iteration-order leaks).
        assert_eq!(
            serde_json::to_string(&s.stats()),
            serde_json::to_string(&s.stats())
        );
    }

    #[test]
    fn record_metrics_lands_in_registry() {
        let s = Server::new(ServerConfig::default());
        s.ingest("c", 0, vec![point("a", 0, 1.0)]).unwrap();
        s.publish();
        let _ = s.query(&spec());
        let _ = s.query(&spec());
        let obs = clasp_obs::Observer::new();
        s.record_metrics(&obs);
        let m = obs.metrics();
        assert_eq!(m.counter("serve.requests.queries"), 2);
        assert_eq!(m.counter("serve.cache.hits"), 1);
        assert_eq!(m.counter("serve.db.points_written"), 1);
        assert_eq!(m.gauge("serve.generation"), Some(2.0));
    }

    #[test]
    fn concurrent_readers_and_ingest_do_not_interfere() {
        use std::sync::Arc;
        let s = Arc::new(Server::new(ServerConfig::default()));
        s.ingest("w", 0, (0..100).map(|t| point("a", t, t as f64)).collect())
            .unwrap();
        let base_gen = s.publish().generation;
        let baseline = s.query(&spec()).0;
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                let want = baseline.clone();
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        // Readers pin a snapshot per query; concurrent
                        // staging/publishing must never tear a response.
                        // Any response at the baseline generation must be
                        // byte-identical to the baseline; later
                        // generations must still be well-formed.
                        let (got, _) = s.query(&spec());
                        let v = serde_json::from_str(&got).unwrap();
                        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
                        let generation = v.get("generation").and_then(Value::as_u64).unwrap();
                        if generation == base_gen {
                            assert_eq!(got, want);
                        } else {
                            assert!(generation > base_gen);
                        }
                    }
                })
            })
            .collect();
        for seq in 1..20 {
            s.ingest("w", seq, vec![point("a", 100 + seq, 100.0 + seq as f64)])
                .unwrap();
            s.publish();
        }
        for r in readers {
            r.join().unwrap();
        }
        // Zero lost points: everything ingested was applied.
        assert_eq!(s.snapshot().points(), 100 + 19);
    }

    #[test]
    fn concurrent_polls_account_for_every_applied_point() {
        // Small buffers polled while publishes run: every tail still
        // ends with drained + overflow == applied, and overflows.
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let s = Arc::new(Server::new(ServerConfig::default()));
        let ids: Vec<u64> = (0..3).map(|_| s.subscribe(4).unwrap()).collect();
        let done = Arc::new(AtomicBool::new(false));
        let pollers: Vec<_> = ids
            .iter()
            .map(|&id| {
                let (s, done) = (Arc::clone(&s), Arc::clone(&done));
                std::thread::spawn(move || {
                    let mut drained = 0u64;
                    loop {
                        let finished = done.load(Ordering::SeqCst);
                        let (points, overflow, _) = s.poll(id, 3).unwrap();
                        drained += points.len() as u64;
                        if finished && points.is_empty() {
                            return (drained, overflow);
                        }
                    }
                })
            })
            .collect();
        for seq in 0..40u64 {
            let batch = (0..seq % 7)
                .map(|i| point("a", seq * 10 + i, 1.0))
                .collect();
            s.ingest("w", seq, batch).unwrap();
            s.publish();
        }
        done.store(true, Ordering::SeqCst);
        let applied = s.snapshot().points();
        let mut overflow_total = 0;
        for p in pollers {
            let (drained, overflow) = p.join().unwrap();
            assert_eq!(drained + overflow, applied);
            overflow_total += overflow;
        }
        assert!(overflow_total > 0, "4-point buffers must overflow");
        assert_eq!(db_stat(&s, "tail_overflow"), overflow_total);
        assert_eq!(
            db_stat(&s, "points_published") + overflow_total,
            3 * applied
        );
    }

    #[test]
    fn handle_line_survives_garbage_sweep() {
        // Every malformed line — bad JSON, unknown ops, wrong member
        // types, broken line-protocol points (including ones that force
        // the escaped decode path) — must come back as a protocol error
        // response. A panic here would take the connection thread down.
        let s = Server::new(ServerConfig::default());
        let garbage = [
            "",
            "   ",
            "not json",
            "42",
            "[]",
            "{}",
            "{\"op\":\"warp\"}",
            "{\"op\":\"ingest\"}",
            "{\"op\":\"ingest\",\"client\":\"\",\"seq\":0,\"points\":[]}",
            "{\"op\":\"ingest\",\"client\":\"c\",\"seq\":0,\"points\":\"nope\"}",
            "{\"op\":\"ingest\",\"client\":\"c\",\"seq\":0,\"points\":[7]}",
            "{\"op\":\"ingest\",\"client\":\"c\",\"seq\":0,\"points\":[\"nope\"]}",
            "{\"op\":\"ingest\",\"client\":\"c\",\"seq\":0,\"points\":[\"m f=x 0\"]}",
            "{\"op\":\"ingest\",\"client\":\"c\",\"seq\":0,\"points\":[\"m f=1 later\"]}",
            "{\"op\":\"ingest\",\"client\":\"c\",\"seq\":0,\"points\":[\"m,broken f=1 0\"]}",
            "{\"op\":\"ingest\",\"client\":\"c\",\"seq\":0,\"points\":[\"m\\\\ x f=1\"]}",
            "{\"op\":\"ingest\",\"client\":\"c\",\"seq\":0,\"points\":[\"a\\\\=b\\\\,c d\\\\ e=f 1\"]}",
            "{\"op\":\"query\"}",
            "{\"op\":\"query\",\"query\":{\"measurement\":7}}",
            "{\"op\":\"subscribe\",\"capacity\":0}",
            "{\"op\":\"poll\",\"tail\":999}",
            "{\"op\":\"unsubscribe\",\"tail\":999}",
        ];
        for line in garbage {
            let resp = s.handle_line(line);
            assert!(
                resp.contains("\"ok\":false"),
                "garbage line {line:?} must yield a protocol error, got {resp}"
            );
        }
        let stats = s.stats();
        assert_eq!(
            stats
                .get("requests")
                .and_then(|r| r.get("errors"))
                .and_then(Value::as_u64),
            Some(garbage.len() as u64)
        );
    }

    #[test]
    fn non_finite_ingest_values_are_protocol_errors() {
        // `f64::from_str` reads NaN and the infinities; the decoder
        // refuses them, so they never reach the store or a rollup.
        let s = Server::new(ServerConfig::default());
        for (seq, v) in ["NaN", "inf", "-inf", "1e400"].into_iter().enumerate() {
            for head in ["m", "m\\\\ x"] {
                let line = format!(
                    "{{\"op\":\"ingest\",\"client\":\"c\",\"seq\":{seq},\"points\":[\"m f=1 0\",\"{head} f={v} 1\"]}}"
                );
                let resp = s.handle_line(&line);
                assert!(resp.contains("\"ok\":false"), "{line}: {resp}");
                assert!(resp.contains(&format!("bad numeric value: {v}")), "{resp}");
            }
        }
        s.publish();
        assert_eq!(s.snapshot().points(), 0);
    }

    #[test]
    fn empty_names_in_ingest_are_protocol_errors() {
        // An empty measurement, tag key or field key is refused when the
        // batch arrives, not at publish.
        let s = Server::new(ServerConfig::default());
        for (seq, (bad, err)) in [
            (",a=b f=1 1", "empty measurement name"),
            ("m,=v f=1 1", "empty key in pair: =v"),
            ("m =1 1", "empty key in pair: =1"),
        ]
        .into_iter()
        .enumerate()
        {
            let line = format!(
                "{{\"op\":\"ingest\",\"client\":\"c\",\"seq\":{seq},\"points\":[\"m f=1 0\",\"{bad}\"]}}"
            );
            let resp = s.handle_line(&line);
            assert!(resp.contains("\"ok\":false"), "{line}: {resp}");
            assert!(resp.contains(err), "{resp}");
        }
        s.publish();
        assert_eq!(s.snapshot().points(), 0);
    }

    #[test]
    fn handle_line_rejects_garbage_and_counts_errors() {
        let s = Server::new(ServerConfig::default());
        let resp = s.handle_line("not json");
        assert!(resp.contains("\"ok\":false"), "{resp}");
        let stats = s.stats();
        assert_eq!(
            stats
                .get("requests")
                .and_then(|r| r.get("errors"))
                .and_then(Value::as_u64),
            Some(1)
        );
    }
}

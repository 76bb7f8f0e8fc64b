//! The storage bucket: raw measurement data lands here.
//!
//! After every hourly cycle, CLASP "compress\[es\] the raw data and
//! upload\[s\] it to the cloud storage bucket" (§3.2); the analysis VM in
//! the same region reads it back ("We centralize the data processing to
//! the same region as the storage bucket to avoid transferring both raw
//! and processed data across different cloud regions", §3.3).
//!
//! Memory holds each object once, as a [`Payload`]: a measurement VM's
//! batch is a typed [`Block`] of line-protocol rows, and text that is
//! not exactly what some block renders stays text. Campaign checkpoints
//! share the payload by reference count, and a block is rendered to text
//! only when something asks for it (a checkpoint written out, a sample
//! printed). Billing does not meter that in-memory form. It meters the
//! modelled gzip size ([`Object::stored_bytes`]), a fixed share of the
//! length of the object's text.

use serde::{Deserialize, Serialize};
use serde_json::Value;
use simnet::time::SimTime;
use std::collections::BTreeMap;
use std::sync::Arc;
use tsdb::Block;

/// What an object holds: rows, or text.
#[derive(Debug)]
pub enum Payload {
    /// Rows of line protocol, as columns; the text is what
    /// [`Block::render_into`] writes.
    Block(Block),
    /// Text that no block renders.
    Text(Box<str>),
}

impl Payload {
    /// The payload of `text`: the block that renders it, when there is
    /// one ([`Block::from_rendered`]), else the text itself.
    pub fn from_text(text: &str) -> Payload {
        Block::from_rendered(text).map_or_else(|| Payload::Text(Box::from(text)), Payload::Block)
    }

    /// Byte length of the text.
    pub fn len(&self) -> usize {
        match self {
            Payload::Block(b) => b.text_len(),
            Payload::Text(t) => t.len(),
        }
    }

    /// True when the text is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes the payload holds in memory: a block's columns and heads
    /// ([`Block::column_bytes`]), or the text.
    pub fn held_bytes(&self) -> usize {
        match self {
            Payload::Block(b) => b.column_bytes(),
            Payload::Text(t) => t.len(),
        }
    }

    /// Replaces the contents of `out` with the text, reusing `out`'s
    /// allocation.
    pub fn unpack_into(&self, out: &mut String) {
        out.clear();
        match self {
            Payload::Block(b) => b.render_into(out),
            Payload::Text(t) => out.push_str(t),
        }
    }

    /// The text, in a new `String`.
    pub fn unpack(&self) -> String {
        let mut out = String::new();
        self.unpack_into(&mut out);
        out
    }

    /// A JSON string of the text that shares this payload
    /// ([`Value::Packed`]): it serializes as the text, and
    /// [`Self::from_json`] gets the same `Arc` back.
    pub fn to_json(self: &Arc<Self>) -> Value {
        Value::Packed(self.clone())
    }

    /// The payload of a JSON string: the `Arc` itself when `v` came from
    /// [`Self::to_json`], and [`Self::from_text`] of any other string.
    /// `None` when `v` is not a string.
    pub fn from_json(v: &Value) -> Option<Arc<Payload>> {
        if let Value::Packed(p) = v {
            let any: Arc<dyn std::any::Any + Send + Sync> = p.clone();
            if let Ok(own) = any.downcast::<Payload>() {
                return Some(own);
            }
        }
        v.text().map(|text| Arc::new(Payload::from_text(&text)))
    }
}

impl serde_json::PackedText for Payload {
    fn unpack_into(&self, out: &mut String) {
        Payload::unpack_into(self, out);
    }
}

/// One stored object.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Object {
    /// Object payload; shared, never copied.
    pub data: Arc<Payload>,
    /// Upload time.
    pub uploaded: SimTime,
    /// Approximate compressed size in bytes (what billing meters).
    pub stored_bytes: u64,
}

/// Rough gzip ratio for textual measurement data.
const COMPRESSION_RATIO: f64 = 0.22;

/// A failed upload attempt (transient; retryable with backoff).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UploadError {
    /// Batch day the upload carried.
    pub day: u64,
    /// Which attempt failed (0 = the initial upload).
    pub attempt: u32,
}

/// A regional storage bucket.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct Bucket {
    /// Region the bucket lives in.
    pub region: String,
    objects: BTreeMap<String, Object>,
}

impl Bucket {
    /// Creates an empty bucket in `region`.
    pub fn new(region: impl Into<String>) -> Self {
        Self {
            region: region.into(),
            objects: BTreeMap::new(),
        }
    }

    /// Uploads the object of `data` ([`Payload::from_text`]); overwrites
    /// silently, like object stores do.
    pub fn put(&mut self, key: impl Into<String>, data: &str, now: SimTime) {
        self.put_payload(key, Arc::new(Payload::from_text(data)), now);
    }

    /// [`Self::put`] for a payload: stores `data` itself, with the stored
    /// size `put` would meter for its text.
    pub fn put_payload(&mut self, key: impl Into<String>, data: Arc<Payload>, now: SimTime) {
        let stored_bytes = (data.len() as f64 * COMPRESSION_RATIO).ceil() as u64;
        self.objects.insert(
            key.into(),
            Object {
                data,
                uploaded: now,
                stored_bytes,
            },
        );
    }

    /// Fault-aware upload: consults the fault plan before storing.
    /// `vm` is the uploading instance, `day` the batch day, `attempt`
    /// the 0-based retry counter (each attempt draws independently).
    /// With an empty plan this is exactly [`Self::put_payload`].
    #[allow(clippy::too_many_arguments)]
    pub fn try_put(
        &mut self,
        key: impl Into<String>,
        data: &Arc<Payload>,
        now: SimTime,
        plan: &faultsim::FaultPlan,
        vm: &str,
        day: u64,
        attempt: u32,
    ) -> Result<(), UploadError> {
        let scope = faultsim::plan::VmScope {
            region: &self.region,
            vm,
        };
        if plan.upload_fails(scope, day, attempt) {
            return Err(UploadError { day, attempt });
        }
        self.put_payload(key, Arc::clone(data), now);
        Ok(())
    }

    /// Moves every object of `other` into this bucket (overwriting on
    /// key collision, like [`Self::put`] does). Workers upload into
    /// VM-local buckets; absorbing them recreates the shared bucket —
    /// `BTreeMap` storage makes the result independent of absorb order
    /// whenever the key sets are disjoint.
    pub fn absorb(&mut self, other: Bucket) {
        self.objects.extend(other.objects);
    }

    /// Fetches an object.
    pub fn get(&self, key: &str) -> Option<&Object> {
        self.objects.get(key)
    }

    /// Every object with its key, in key order.
    pub fn objects(&self) -> impl Iterator<Item = (&str, &Object)> {
        self.objects.iter().map(|(k, o)| (k.as_str(), o))
    }

    /// Lists keys under a prefix, lexicographic order.
    pub fn list(&self, prefix: &str) -> Vec<&str> {
        self.objects
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.as_str())
            .collect()
    }

    /// Total stored bytes (post-compression).
    pub fn stored_bytes(&self) -> u64 {
        self.objects.values().map(|o| o.stored_bytes).sum()
    }

    /// Object count.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True when the bucket holds nothing.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let mut b = Bucket::new("us-east1");
        b.put("raw/d0/vm1.lp", "throughput mbps=1.0 0", SimTime::EPOCH);
        let o = b.get("raw/d0/vm1.lp").unwrap();
        assert_eq!(o.data.unpack(), "throughput mbps=1.0 0");
        assert!(o.stored_bytes < o.data.len() as u64);
        assert!(b.get("nope").is_none());
    }

    #[test]
    fn list_by_prefix() {
        let mut b = Bucket::new("us-east1");
        for key in ["raw/d0/a", "raw/d0/b", "raw/d1/a", "proc/x"] {
            b.put(key, "x", SimTime::EPOCH);
        }
        assert_eq!(b.list("raw/d0/"), vec!["raw/d0/a", "raw/d0/b"]);
        assert_eq!(b.list("raw/"), vec!["raw/d0/a", "raw/d0/b", "raw/d1/a"]);
        assert_eq!(b.list("zzz").len(), 0);
    }

    #[test]
    fn overwrite_replaces() {
        let mut b = Bucket::new("r");
        b.put("k", "aaaa", SimTime::EPOCH);
        let before = b.stored_bytes();
        b.put("k", "aaaaaaaaaaaaaaaa", SimTime(10));
        assert_eq!(b.len(), 1);
        assert!(b.stored_bytes() > before);
        assert_eq!(b.get("k").unwrap().uploaded, SimTime(10));
    }

    #[test]
    fn try_put_injects_and_recovers() {
        let mut b = Bucket::new("us-east1");
        // Empty plan: identical to put.
        let x = Arc::new(Payload::from_text("x"));
        b.try_put(
            "k0",
            &x,
            SimTime::EPOCH,
            &faultsim::FaultPlan::none(),
            "vm-0",
            0,
            0,
        )
        .unwrap();
        assert!(b.get("k0").is_some());

        // Certain failure: nothing stored, error reports the attempt.
        let mut plan = faultsim::FaultPlan::uniform(1, 0.0);
        plan.rates.upload_failure = 1.0;
        let err = b.try_put("k1", &x, SimTime::EPOCH, &plan, "vm-0", 3, 2);
        assert_eq!(err, Err(UploadError { day: 3, attempt: 2 }));
        assert!(b.get("k1").is_none());
    }

    #[test]
    fn absorb_merges_objects() {
        let mut a = Bucket::new("r");
        a.put("raw/d0/vm0", "x", SimTime::EPOCH);
        let mut b = Bucket::new("r");
        b.put("raw/d0/vm1", "y", SimTime(5));
        b.put("raw/d1/vm1", "z", SimTime(9));
        a.absorb(b);
        assert_eq!(
            a.list("raw/"),
            vec!["raw/d0/vm0", "raw/d0/vm1", "raw/d1/vm1"]
        );
        assert_eq!(a.get("raw/d1/vm1").unwrap().uploaded, SimTime(9));
    }

    #[test]
    fn payloads_meter_their_text() {
        // Billing meters the modelled size of the text, whatever the
        // object holds in memory, and a shared payload is stored as is.
        let text = "speedtest,server=s1,tier=premium \
                    dloss=0.001,download=412.5,latency=20.25,upload=95.0 3600\n"
            .repeat(100);
        let mut b = Bucket::new("r");
        b.put("a", &text, SimTime::EPOCH);
        b.put("t", "not line protocol", SimTime::EPOCH);
        let shared = Arc::clone(&b.get("a").unwrap().data);
        b.put_payload("b", Arc::clone(&shared), SimTime(1));
        let (a, c) = (b.get("a").unwrap(), b.get("b").unwrap());
        assert_eq!(a.stored_bytes, (text.len() as f64 * 0.22).ceil() as u64);
        assert_eq!(c.stored_bytes, a.stored_bytes);
        assert!(Arc::ptr_eq(&c.data, &shared));
        assert!(matches!(*a.data, Payload::Block(_)));
        assert_eq!((a.data.len(), a.data.unpack()), (text.len(), text.clone()));
        assert!(a.data.held_bytes() < text.len() / 2);
        let t = &b.get("t").unwrap().data;
        assert!(matches!(**t, Payload::Text(_)));
        assert_eq!(t.held_bytes(), t.len());
        let keys: Vec<&str> = b.objects().map(|(k, _)| k).collect();
        assert_eq!(keys, ["a", "b", "t"]);
    }

    #[test]
    fn stored_bytes_accumulate() {
        let mut b = Bucket::new("r");
        assert!(b.is_empty());
        b.put("a", &"x".repeat(1000), SimTime::EPOCH);
        b.put("b", &"y".repeat(1000), SimTime::EPOCH);
        assert_eq!(b.stored_bytes(), 2 * 220);
    }
}

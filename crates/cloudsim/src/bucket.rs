//! The storage bucket: raw measurement data lands here.
//!
//! After every hourly cycle, CLASP "compress\[es\] the raw data and
//! upload\[s\] it to the cloud storage bucket" (§3.2); the analysis VM in
//! the same region reads it back ("We centralize the data processing to
//! the same region as the storage bucket to avoid transferring both raw
//! and processed data across different cloud regions", §3.3).
//!
//! Memory holds each object packed by [`crate::pack`], once: campaign
//! checkpoints share the packed bytes by reference count, and the text
//! is unpacked only to be ingested or serialized. Billing does not meter
//! that in-memory form. It meters the modelled gzip size
//! ([`Object::stored_bytes`]), a fixed share of the text's length.

use crate::pack::Packed;
use serde::{Deserialize, Serialize};
use simnet::time::SimTime;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One stored object.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Object {
    /// Object payload, packed; shared, never copied.
    pub data: Arc<Packed>,
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

    /// Uploads (and compresses) an object; overwrites silently, like
    /// object stores do.
    pub fn put(&mut self, key: impl Into<String>, data: &str, now: SimTime) {
        self.put_packed(key, Arc::new(Packed::new(data)), now);
    }

    /// [`Self::put`] for an object packed already: stores `data` itself,
    /// with the stored size `put` would meter for its text.
    pub fn put_packed(&mut self, key: impl Into<String>, data: Arc<Packed>, now: SimTime) {
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
    /// With an empty plan this is exactly [`Self::put`].
    #[allow(clippy::too_many_arguments)]
    pub fn try_put(
        &mut self,
        key: impl Into<String>,
        data: &str,
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
        self.put(key, data, now);
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
        b.try_put(
            "k0",
            "x",
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
        let err = b.try_put("k1", "x", SimTime::EPOCH, &plan, "vm-0", 3, 2);
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
    fn packed_objects_meter_their_text() {
        // Billing meters the modelled size of the text, whatever the
        // in-memory codec achieves, and a shared packed object is stored
        // as is.
        let text = "speedtest,a=b f=1.5 0\n".repeat(100);
        let mut b = Bucket::new("r");
        b.put("a", &text, SimTime::EPOCH);
        let shared = Arc::clone(&b.get("a").unwrap().data);
        b.put_packed("b", Arc::clone(&shared), SimTime(1));
        let (a, c) = (b.get("a").unwrap(), b.get("b").unwrap());
        assert_eq!(a.stored_bytes, (text.len() as f64 * 0.22).ceil() as u64);
        assert_eq!(c.stored_bytes, a.stored_bytes);
        assert!(Arc::ptr_eq(&c.data, &shared));
        assert!(a.data.packed_len() < text.len() / 10);
        let keys: Vec<&str> = b.objects().map(|(k, _)| k).collect();
        assert_eq!(keys, ["a", "b"]);
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

//! Ground-truth record of injected faults.
//!
//! Every fault the orchestrator observes (whether it recovers from it
//! or loses data to it) is appended here. The log is the *reference*
//! side of the completeness reconciliation: the missing server-hours
//! the [`crate::CompletenessReport`] computes from the collected data
//! must equal, exactly, the hours this log says were lost.

use crate::plan::FaultKind;
use std::collections::BTreeMap;

/// How an injected fault ultimately resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Recorded but not yet resolved (transient state during a run).
    Unhandled,
    /// The orchestrator retried its way past the fault; no data lost.
    Recovered {
        /// Retries spent before success.
        retries: u32,
        /// Sim-time (seconds) of the successful attempt.
        recovered_at: u64,
    },
    /// The fault cost data: this many server-hours never collected.
    Lost {
        /// Server-hours of measurements lost to this fault.
        s_hours: u64,
    },
}

/// One fault that actually fired during a run.
#[derive(Debug, Clone, PartialEq)]
pub struct InjectedFault {
    /// Stable id (index into the log).
    pub id: usize,
    /// Sim-time (seconds) the fault fired.
    pub time: u64,
    /// What kind of fault it was.
    pub kind: FaultKind,
    /// Region it hit.
    pub region: String,
    /// VM it hit, when VM-scoped (empty for region-wide faults).
    pub vm: String,
    /// Free-form context ("upload day 3", "attempt 2", …).
    pub detail: String,
    /// How it resolved.
    pub outcome: FaultOutcome,
}

/// Aggregate counts over a [`FaultLog`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Total faults recorded.
    pub total: usize,
    /// Faults the orchestrator retried past.
    pub recovered: usize,
    /// Faults that cost data.
    pub lost: usize,
    /// Total server-hours lost across all faults.
    pub lost_s_hours: u64,
    /// Total retries spent on recoveries.
    pub retries: u64,
    /// Faults per kind.
    pub by_kind: BTreeMap<&'static str, usize>,
}

/// Append-only record of injected faults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultLog {
    faults: Vec<InjectedFault>,
}

impl FaultLog {
    /// An empty log.
    pub fn new() -> FaultLog {
        FaultLog::default()
    }

    /// Records a fault and returns its id for later outcome updates.
    pub fn record(
        &mut self,
        time: u64,
        kind: FaultKind,
        region: &str,
        vm: &str,
        detail: impl Into<String>,
    ) -> usize {
        let id = self.faults.len();
        self.faults.push(InjectedFault {
            id,
            time,
            kind,
            region: region.to_string(),
            vm: vm.to_string(),
            detail: detail.into(),
            outcome: FaultOutcome::Unhandled,
        });
        id
    }

    /// Marks fault `id` as recovered after `retries` retries.
    pub fn mark_recovered(&mut self, id: usize, retries: u32, recovered_at: u64) {
        self.faults[id].outcome = FaultOutcome::Recovered {
            retries,
            recovered_at,
        };
    }

    /// Marks fault `id` as having lost `s_hours` server-hours. Calling
    /// it again for the same id accumulates (multi-hour outages add
    /// their toll hour by hour as the orchestrator walks the window).
    pub fn mark_lost(&mut self, id: usize, s_hours: u64) {
        let prior = match self.faults[id].outcome {
            FaultOutcome::Lost { s_hours } => s_hours,
            _ => 0,
        };
        self.faults[id].outcome = FaultOutcome::Lost {
            s_hours: prior + s_hours,
        };
    }

    /// All recorded faults, in injection order.
    pub fn faults(&self) -> &[InjectedFault] {
        &self.faults
    }

    /// Appends every fault of `other`, rebasing ids onto this log.
    ///
    /// Ids are Vec positions, so absorbing worker-local logs in the
    /// canonical serial order reproduces the exact ids (and ordering) a
    /// single-threaded run would have assigned.
    pub fn absorb(&mut self, other: FaultLog) {
        let base = self.faults.len();
        self.faults.extend(other.faults.into_iter().map(|mut f| {
            f.id += base;
            f
        }));
    }

    /// Number of recorded faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True when nothing fired.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Server-hours lost, grouped by region.
    pub fn lost_s_hours_by_region(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for f in &self.faults {
            if let FaultOutcome::Lost { s_hours } = f.outcome {
                *out.entry(f.region.clone()).or_insert(0) += s_hours;
            }
        }
        out
    }

    /// Server-hours lost, grouped by (region, kind).
    pub fn lost_s_hours_by_region_kind(&self) -> BTreeMap<(String, &'static str), u64> {
        let mut out = BTreeMap::new();
        for f in &self.faults {
            if let FaultOutcome::Lost { s_hours } = f.outcome {
                *out.entry((f.region.clone(), f.kind.name())).or_insert(0) += s_hours;
            }
        }
        out
    }

    /// Serializes the log to JSON (for campaign checkpoints).
    pub fn to_json(&self) -> serde_json::Value {
        use serde_json::{Map, Value};
        let faults: Vec<Value> = self
            .faults
            .iter()
            .map(|f| {
                let mut m = Map::new();
                m.insert("time".into(), f.time.into());
                m.insert("kind".into(), f.kind.name().into());
                m.insert("region".into(), f.region.clone().into());
                m.insert("vm".into(), f.vm.clone().into());
                m.insert("detail".into(), f.detail.clone().into());
                match f.outcome {
                    FaultOutcome::Unhandled => {
                        m.insert("outcome".into(), "unhandled".into());
                    }
                    FaultOutcome::Recovered {
                        retries,
                        recovered_at,
                    } => {
                        m.insert("outcome".into(), "recovered".into());
                        m.insert("retries".into(), (retries as u64).into());
                        m.insert("recovered_at".into(), recovered_at.into());
                    }
                    FaultOutcome::Lost { s_hours } => {
                        m.insert("outcome".into(), "lost".into());
                        m.insert("s_hours".into(), s_hours.into());
                    }
                }
                Value::Object(m)
            })
            .collect();
        Value::Array(faults)
    }

    /// Restores a log serialized by [`Self::to_json`].
    pub fn from_json(v: &serde_json::Value) -> Result<FaultLog, String> {
        let list = v.as_array().ok_or("fault log must be an array")?;
        let mut log = FaultLog::new();
        for (id, f) in list.iter().enumerate() {
            let s = |k: &str| {
                f.get(k)
                    .and_then(|v| v.as_str())
                    .map(String::from)
                    .ok_or_else(|| format!("fault {id} missing {k:?}"))
            };
            let n = |k: &str| {
                f.get(k)
                    .and_then(|v| v.as_u64())
                    .ok_or_else(|| format!("fault {id} missing {k:?}"))
            };
            let kind_name = s("kind")?;
            let kind = FaultKind::parse(&kind_name)
                .ok_or_else(|| format!("unknown fault kind {kind_name:?}"))?;
            let outcome = match s("outcome")?.as_str() {
                "unhandled" => FaultOutcome::Unhandled,
                "recovered" => FaultOutcome::Recovered {
                    retries: u32::try_from(n("retries")?)
                        .map_err(|_| format!("fault {id} \"retries\" exceeds u32"))?,
                    recovered_at: n("recovered_at")?,
                },
                "lost" => FaultOutcome::Lost {
                    s_hours: n("s_hours")?,
                },
                other => return Err(format!("unknown outcome {other:?}")),
            };
            log.faults.push(InjectedFault {
                id,
                time: n("time")?,
                kind,
                region: s("region")?,
                vm: s("vm")?,
                detail: s("detail")?,
                outcome,
            });
        }
        Ok(log)
    }

    /// Aggregate summary of the whole log.
    pub fn summary(&self) -> FaultSummary {
        let mut s = FaultSummary {
            total: self.faults.len(),
            ..FaultSummary::default()
        };
        for f in &self.faults {
            *s.by_kind.entry(f.kind.name()).or_insert(0) += 1;
            match f.outcome {
                FaultOutcome::Recovered { retries, .. } => {
                    s.recovered += 1;
                    s.retries += retries as u64;
                }
                FaultOutcome::Lost { s_hours } => {
                    s.lost += 1;
                    s.lost_s_hours += s_hours;
                }
                FaultOutcome::Unhandled => {}
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_resolve() {
        let mut log = FaultLog::new();
        let a = log.record(3600, FaultKind::UploadFailure, "us-west1", "vm-0", "day 0");
        let b = log.record(7200, FaultKind::VmPreemption, "us-west1", "vm-1", "");
        let c = log.record(9000, FaultKind::ApiError, "us-east1", "", "create_vm");
        log.mark_recovered(a, 2, 3660);
        log.mark_lost(b, 4);
        log.mark_lost(b, 4);
        log.mark_recovered(c, 1, 9010);

        let s = log.summary();
        assert_eq!(s.total, 3);
        assert_eq!(s.recovered, 2);
        assert_eq!(s.lost, 1);
        assert_eq!(s.lost_s_hours, 8);
        assert_eq!(s.retries, 3);
        assert_eq!(s.by_kind["vm_preemption"], 1);

        let by_region = log.lost_s_hours_by_region();
        assert_eq!(by_region["us-west1"], 8);
        assert!(!by_region.contains_key("us-east1"));
    }

    #[test]
    fn json_roundtrip() {
        let mut log = FaultLog::new();
        let a = log.record(10, FaultKind::CronMiss, "r", "vm", "tick");
        log.mark_recovered(a, 1, 70);
        let b = log.record(20, FaultKind::TestAbort, "r", "vm", "s1");
        log.mark_lost(b, 1);
        log.record(30, FaultKind::CronSkew, "r", "vm", "late");
        let back = FaultLog::from_json(&log.to_json()).unwrap();
        assert_eq!(log, back);
    }

    #[test]
    fn retries_beyond_u32_are_rejected() {
        let mut log = FaultLog::new();
        let a = log.record(10, FaultKind::CronMiss, "r", "vm", "tick");
        log.mark_recovered(a, 1, 70);
        let with_retries = |retries: u64| {
            let mut json = log.to_json();
            if let serde_json::Value::Array(faults) = &mut json {
                if let serde_json::Value::Object(m) = &mut faults[0] {
                    m.insert("retries".into(), retries.into());
                }
            }
            FaultLog::from_json(&json)
        };
        let max = with_retries(u64::from(u32::MAX)).unwrap();
        assert!(matches!(
            max.faults()[0].outcome,
            FaultOutcome::Recovered {
                retries: u32::MAX,
                ..
            }
        ));
        let err = with_retries(u64::from(u32::MAX) + 1).unwrap_err();
        assert!(err.contains("fault 0") && err.contains("retries"), "{err}");
    }

    #[test]
    fn absorb_rebases_ids() {
        let mut a = FaultLog::new();
        let x = a.record(10, FaultKind::ApiError, "r1", "", "one");
        a.mark_recovered(x, 1, 20);
        let mut b = FaultLog::new();
        let y = b.record(30, FaultKind::TestAbort, "r2", "vm", "two");
        b.mark_lost(y, 2);

        // Serial reference: same records into one log.
        let mut serial = FaultLog::new();
        let sx = serial.record(10, FaultKind::ApiError, "r1", "", "one");
        serial.mark_recovered(sx, 1, 20);
        let sy = serial.record(30, FaultKind::TestAbort, "r2", "vm", "two");
        serial.mark_lost(sy, 2);

        a.absorb(b);
        assert_eq!(a, serial);
        assert_eq!(a.faults()[1].id, 1);
    }

    #[test]
    fn empty_log() {
        let log = FaultLog::new();
        assert!(log.is_empty());
        assert_eq!(log.len(), 0);
        assert_eq!(log.summary(), FaultSummary::default());
    }
}

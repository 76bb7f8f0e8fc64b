//! Online streaming ingestion + incremental congestion detection.
//!
//! The batch pipeline (`clasp-core`) answers "was this server congested?"
//! by rescanning the whole time-series database after the campaign ends.
//! This crate answers the same question *while the campaign runs*: it
//! consumes each row as the campaign stores it — handed over by
//! [`Db::ingest_lines_with`](tsdb::Db::ingest_lines_with), with no
//! buffer in between — or standalone [`Point`](tsdb::Point)s, and
//! maintains, per series:
//!
//! * daily windows that give the paper's normalized peak-to-trough
//!   difference `V(s,d) = (Tmax − Tmin) / Tmax` at O(1) amortized cost
//!   per point;
//! * hourly congestion labels `V_H(s,t) > H`, emitted the moment a local
//!   day closes (the per-hour `V_H` needs the day's final `Tmax`);
//! * an online threshold recalibration that re-runs the elbow sweep over
//!   a streaming histogram of day variabilities
//!   ([`StreamingElbow`](clasp_stats::StreamingElbow));
//! * a live trailing-window variability over monotonic max/min deques
//!   ([`SlidingExtrema`](clasp_stats::SlidingExtrema)) for "how does the
//!   last 24 h look right now" dashboards;
//! * typed [`CongestionAlert`]s with hysteresis (separate enter/exit
//!   thresholds, minimum-duration debouncing).
//!
//! **Exactness.** For any point stream, the engine's closed-day records,
//! hourly labels, hourly congestion probabilities and congested-server
//! verdicts are *element-wise identical* to
//! `clasp_core::congestion::CongestionAnalysis` built over the same
//! database — including under fault injection, where the stream carries
//! gaps and small reorderings. Both run the one per-day fold and tally
//! in [`clasp_stats::dayfold`] (whose `f64::max`/`f64::min` extrema are
//! order-independent) with the same server-local day/hour
//! reckoning, so the equality is bitwise, not approximate.
//!
//! **Resumability.** The engine's state is a pure function of the rows
//! it was fed, so campaign checkpoints carry none of it: a resumed
//! streaming campaign feeds a fresh engine the completed units' replayed
//! rows and then the rest, and finishes byte-identical to an
//! uninterrupted one. [`StreamEngine::snapshot`] serializes the full
//! state to canonical JSON (floats as bit patterns) for the suites that
//! compare engines byte for byte.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alert;
pub mod engine;
mod snapshot;

pub use alert::{AlertPolicy, CongestionAlert};
pub use engine::{
    DayRecord, EngineConfig, EngineStats, HourLabel, SeriesMeta, StreamEngine, ThresholdMode,
};

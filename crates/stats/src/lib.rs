//! Statistics utilities for the CLASP reproduction.
//!
//! This crate collects the numerical building blocks that the paper's
//! analysis pipeline relies on:
//!
//! * [`percentile`](mod@percentile) — quantile estimation used for the "95th percentile
//!   download throughput / 5th percentile latency" scatter plots (Fig. 4);
//! * [`ecdf`] — empirical CDFs used for the tier-comparison plots (Fig. 5);
//! * [`kde`] — Gaussian kernel density estimation used for the marginal
//!   density curves on the Fig. 4 scatter plots;
//! * [`dayfold`] — the §3.3 per-local-day fold (`V(s,d)`, `V_H(s,t)`)
//!   and its per-hour event tally, shared by every congestion consumer;
//! * [`elbow`] — elbow-point detection used to pick the congestion
//!   threshold `H` from the variability sweep (Fig. 2, §3.3);
//! * [`histogram`] — fixed-width binning for hour-of-day congestion
//!   probability profiles (Fig. 6);
//! * [`summary`] — streaming summary statistics (mean/variance/extrema);
//! * [`rollwin`] — monotonic-deque sliding-window extrema, the O(1)
//!   amortized data structure behind the online congestion engine's
//!   live variability windows;
//! * [`autocorr`] and [`hmm`] — the paper's §5 future-work extensions:
//!   autocorrelation-based diurnal detection and a two-state Gaussian
//!   hidden Markov model for state-based congestion detection.
//!
//! All functions are deterministic; none of them touch the system clock or
//! an RNG.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod autocorr;
pub mod dayfold;
pub mod ecdf;
pub mod elbow;
pub mod histogram;
pub mod hmm;
pub mod kde;
pub mod percentile;
pub mod rollwin;
pub mod summary;

pub use autocorr::{acf, autocorrelation, diurnal_signal};
pub use dayfold::{ClosedDay, DayWindow, HourTally};
pub use ecdf::Ecdf;
pub use elbow::{elbow_index, StreamingElbow};
pub use histogram::Histogram;
pub use hmm::GaussianHmm;
pub use kde::GaussianKde;
pub use percentile::{median, percentile, quantile};
pub use rollwin::SlidingExtrema;
pub use summary::Summary;

//! The cloud platform model: regions, VMs, network tiers, storage,
//! billing, and cron scheduling.
//!
//! CLASP's orchestration layer (§3.2) drives Google Cloud through its
//! APIs: create VMs across availability zones, apply `tc` rate limits,
//! run hourly cron jobs, upload results to a storage bucket, and watch
//! the bill (the paper: "egress traffic, cloud storage, and virtual
//! machines costed over USD 6k per month, limited our deployment").
//! This crate is that provider:
//!
//! * [`provider`] — data-driven provider profiles (regions, tiers,
//!   prices, interconnect policy) and multi-provider world specs;
//! * [`region`] — the GCP region table the `gcp` profile is built from;
//! * [`vm`] — machine types, VM lifecycle, per-VM `tc` caps;
//! * [`bucket`] — an object store for raw results, held as typed blocks;
//! * [`billing`] — the price schedule and usage metering;
//! * [`cron`] — hourly scheduling with randomized server order;
//! * [`quota`] — VM quotas and the budget→servers arithmetic that capped
//!   the paper's deployment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod billing;
pub mod bucket;
pub mod cron;
pub mod provider;
pub mod quota;
pub mod region;
pub mod vm;

pub use billing::{Billing, PriceSchedule};
pub use bucket::Bucket;
pub use cron::CronSchedule;
pub use provider::{
    InterconnectKind, InterconnectPolicy, InterconnectSpec, ProviderProfile, RegionSpec,
    TierPolicy, WorldSpec, ZoneStyle,
};
pub use quota::Quota;
pub use region::{Region, GCP_REGIONS};
pub use vm::{CloudApi, MachineType, Vm};

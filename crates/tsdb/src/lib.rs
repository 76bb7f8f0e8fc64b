//! A small embedded time-series database.
//!
//! CLASP "index\[es\] the processed results into InfluxDB and visualize\[s\]
//! them with Grafana" (§3.3). This crate supplies the same role locally:
//! tagged, timestamped points, an Influx-style line protocol for durable
//! export, and a query engine with tag filtering, time ranges, group-by
//! window aggregation, and percentile aggregators — enough to express the
//! whole congestion analysis as queries.
//!
//! * [`point`] — the data model ([`Point`], tags, fields);
//! * [`line`](mod@line) — line-protocol encode/parse;
//! * [`block`] — typed blocks of line-protocol rows, rendered only
//!   when asked for text;
//! * [`db`] — storage and series indexing ([`Db`]);
//! * [`snapshot`] — immutable generation-stamped views for lock-free
//!   concurrent reads ([`Snapshot`]);
//! * [`query`] — the query builder and aggregation engine;
//! * [`rollup`] — continuous-query-style downsampling and retention.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod db;
pub mod line;
pub mod point;
pub mod query;
pub mod rollup;
pub mod snapshot;

pub use block::Block;
pub use db::{Db, DbStats, FieldNames, FieldSet, LineIngest, Sample, Series, SeriesId};
pub use point::Point;
pub use query::{Aggregate, Query, Row, SeriesResult};
pub use snapshot::{SeriesSnap, Snapshot};

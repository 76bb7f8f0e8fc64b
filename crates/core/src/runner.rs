//! The unified campaign entrypoint.
//!
//! [`Runner`] is a builder over every way a campaign can execute —
//! fresh or resumed, batch or streaming, at any `--jobs N`, with or
//! without an attached [`Observer`] — in one call chain over one
//! execution path:
//!
//! ```ignore
//! let result = Campaign::new(&world, cfg)
//!     .runner()
//!     .jobs(8)
//!     .resume_from(&checkpoint)
//!     .streaming(&mut engine)
//!     .observer(&obs)
//!     .run()?;
//! ```
//!
//! Every combination is deterministic: the result (and, when an
//! observer is attached, the metrics and trace JSON) is bit-identical
//! across job counts and across checkpoint resumes.

use crate::campaign::{Campaign, CampaignResult};
use clasp_obs::Observer;

/// Builder for one campaign execution. Construct via
/// [`Campaign::runner`]; consume with [`Runner::run`].
pub struct Runner<'c, 'w> {
    campaign: &'c Campaign<'w>,
    jobs: Option<usize>,
    stream: Option<&'c mut clasp_stream::StreamEngine>,
    resume: Option<&'c serde_json::Value>,
    observer: Option<&'c Observer>,
}

impl<'c, 'w> Runner<'c, 'w> {
    pub(crate) fn new(campaign: &'c Campaign<'w>) -> Self {
        Runner {
            campaign,
            jobs: None,
            stream: None,
            resume: None,
            observer: None,
        }
    }

    /// Overrides the worker count for this run (`0` means "use the
    /// machine's available parallelism", as in
    /// [`crate::CampaignConfig::jobs`]). Defaults to the config value.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = Some(jobs);
        self
    }

    /// Attaches a streaming detection engine: it consumes every
    /// ingested point as it lands and is finalized when the run
    /// completes. Checkpoints embed the engine snapshot under
    /// `"stream"`. When resuming, the engine must come from
    /// [`Campaign::restore_stream_engine`] on the same checkpoint.
    pub fn streaming(mut self, engine: &'c mut clasp_stream::StreamEngine) -> Self {
        self.stream = Some(engine);
        self
    }

    /// Resumes from a checkpoint taken by a previous run: completed
    /// work units are replayed from their durable bucket snapshots
    /// instead of re-executed.
    pub fn resume_from(mut self, checkpoint: &'c serde_json::Value) -> Self {
        self.resume = Some(checkpoint);
        self
    }

    /// Attaches an observability sink. It records spans, metrics and
    /// events but never changes what runs, so the result is identical
    /// with or without it, and its metrics and trace JSON are
    /// byte-identical across `--jobs N` and across checkpoint resumes.
    pub fn observer(mut self, obs: &'c Observer) -> Self {
        self.observer = Some(obs);
        self
    }

    /// Executes the campaign. Fails on a region the world's provider
    /// does not define or on a malformed checkpoint.
    pub fn run(mut self) -> Result<CampaignResult, String> {
        let root = self.observer.map(|o| o.span("campaign"));
        let jobs = self.campaign.config.effective_jobs(self.jobs);
        let result = self.campaign.run_resumable(
            self.resume,
            self.stream.as_deref_mut(),
            self.observer,
            jobs,
        )?;
        // Finalize only on success: a failed run leaves the engine
        // untouched.
        if let Some(engine) = self.stream.as_deref_mut() {
            engine.finalize();
        }
        if let Some(obs) = self.observer {
            record_result(obs, &result);
            if let Some(engine) = self.stream.as_deref() {
                record_engine(obs, engine);
            }
            obs.absorb_fault_log(&result.fault_log);
        }
        drop(root);
        Ok(result)
    }
}

/// Final campaign-level scrape: gauges and counters derived from the
/// finished result. Everything here is a pure function of the (already
/// deterministic) result, so it is identical across job counts and
/// resumes.
fn record_result(obs: &Observer, result: &CampaignResult) {
    obs.with_metrics(|m| {
        m.set_gauge("campaign.vm_count", result.vm_count as f64);
        m.set_gauge("campaign.tests_run", result.tests_run as f64);
        m.set_gauge("campaign.tainted_tests", result.tainted_tests as f64);
        m.set_gauge("campaign.raw_objects", result.raw_objects as f64);
        m.set_gauge(
            "campaign.completeness",
            result.completeness.overall_completeness(),
        );
        m.set_gauge("billing.vm_usd", result.billing.vm_usd());
        m.set_gauge("billing.egress_usd", result.billing.egress_usd());
        m.set_gauge("billing.storage_usd", result.billing.storage_usd());
        m.set_gauge("billing.total_usd", result.billing.total_usd());
        m.set_gauge("tsdb.points_written", result.db.points_written as f64);
        m.set_gauge("tsdb.series", result.db.series_count() as f64);
        let db = &result.db.stats;
        m.inc("tsdb.insert_batches", db.insert_batches);
        m.inc("tsdb.points_published", db.points_published);
        m.inc("tsdb.tail_peak_depth", db.tail_peak_depth);
        m.inc("tsdb.tail_overflow", db.tail_overflow);
        let f = result.fault_log.summary();
        m.inc("fault.injected", f.total as u64);
        m.inc("fault.recovered", f.recovered as u64);
        m.inc("fault.lost", f.lost as u64);
        m.inc("fault.retries", f.retries);
        m.inc("fault.lost_server_hours", f.lost_s_hours);
    });
}

/// Streaming-engine scrape, taken after `finalize()`.
fn record_engine(obs: &Observer, engine: &clasp_stream::StreamEngine) {
    let s = engine.stats().clone();
    obs.with_metrics(|m| {
        m.inc("stream.events_seen", s.events_seen);
        m.inc("stream.points_matched", s.points_matched);
        m.inc("stream.days_closed", s.days_closed);
        m.inc("stream.labels_emitted", s.labels_emitted);
        m.inc("stream.window_updates", s.window_updates);
        m.inc("stream.recalibrations", s.recalibrations);
        m.inc("stream.alert_transitions", s.alert_transitions);
        m.inc("stream.out_of_order", s.out_of_order);
        m.inc("stream.duplicates", s.duplicates);
        m.inc("stream.gap_hours", s.gap_hours);
        m.inc("stream.late_dropped", s.late_dropped);
        m.inc("stream.bus_overflow", s.bus_overflow);
    });
}

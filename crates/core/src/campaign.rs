//! The longitudinal measurement campaign (§3.2).
//!
//! For every region: select servers, plan and deploy VMs, then run the
//! hourly cron loop — each VM executes its randomized slot schedule, one
//! speed test per assigned server per hour, uploads the day's raw batch
//! to the regional bucket, and the pipeline ingests it into the
//! time-series store. Billing meters VM hours and egress bytes
//! throughout, because cost was the campaign's binding constraint.
//!
//! The differential regions run *pairs* of VMs — one per network tier —
//! against the differential-selected servers, producing the paired
//! samples that §4.1 compares.

use crate::exec;
use crate::pipeline;
use crate::plan;
use crate::select::differential::{self, DifferentialSelection, PreTestConfig};
use crate::select::topology::{self, PilotConfig, TopologySelection};
use crate::world::World;
use clasp_obs::{MetricsRegistry, Observer};
use cloudsim::billing::Billing;
use cloudsim::bucket::Bucket;
use cloudsim::bucket::Payload;
use cloudsim::cron::{CronSchedule, Slot};
use cloudsim::provider::RegionSpec;
use cloudsim::vm::MachineType;
use faultsim::{
    CompletenessReport, CronEffect, FaultKind, FaultLog, FaultPlan, RetryPolicy, VmScope,
};
use simnet::routing::Tier;
use simnet::time::{SimTime, HOUR, SECONDS_PER_DAY};
use speedtest::client::{PathPair, SpeedTestClient, TestResult};
use tsdb::Db;

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed.
    pub seed: u64,
    /// Campaign length in days for the topology-based measurements
    /// (the paper ran five months, May–September 2020).
    pub days: u64,
    /// Length in days of the differential measurements (two months,
    /// August–September), aligned to the campaign end.
    pub diff_days: u64,
    /// Topology regions with their per-region server budgets.
    pub topo_regions: Vec<(String, usize)>,
    /// Differential regions.
    pub diff_regions: Vec<String>,
    /// Pilot-scan parameters.
    pub pilot: PilotConfig,
    /// Differential pre-test parameters.
    pub pretest: PreTestConfig,
    /// Retain raw bucket objects after ingestion (memory-hungry at full
    /// scale; the real CLASP applies a lifecycle policy too).
    pub keep_raw: bool,
    /// Fault-injection plan for the run. [`FaultPlan::none`] (the
    /// default) is bitwise invisible: the campaign output is identical
    /// to a build without any fault hooks.
    pub fault_plan: FaultPlan,
    /// Worker threads for campaign execution; `0` means "use the
    /// machine's available parallelism", and `1` runs every phase
    /// inline on the caller's thread. Any value produces bit-identical
    /// results — units run on independent seeded RNG streams and their
    /// outputs are merged in canonical order — so this knob trades
    /// wall-clock only, never output.
    pub jobs: usize,
}

impl CampaignConfig {
    /// The paper's full-scale campaign: 5 regions × 5 months topology
    /// measurements with the published per-region budgets, plus 3
    /// differential regions × 2 months.
    pub fn paper(seed: u64) -> Self {
        Self {
            seed,
            days: 153,
            diff_days: 61,
            topo_regions: vec![
                ("us-west1".into(), 106),
                ("us-west2".into(), 25),
                ("us-east1".into(), 184),
                ("us-east4".into(), 40),
                ("us-central1".into(), 56),
            ],
            diff_regions: vec![
                "us-central1".into(),
                "us-east1".into(),
                "europe-west1".into(),
            ],
            pilot: PilotConfig::default(),
            pretest: PreTestConfig::default(),
            keep_raw: false,
            fault_plan: FaultPlan::none(),
            jobs: 1,
        }
    }

    /// A small configuration for tests: short window, few servers.
    pub fn small(seed: u64) -> Self {
        Self {
            seed,
            days: 4,
            diff_days: 2,
            topo_regions: vec![("us-west1".into(), 12)],
            diff_regions: vec!["europe-west1".into()],
            pilot: PilotConfig {
                flows_per_target: 3,
                cities_per_as: 1,
                ..PilotConfig::default()
            },
            pretest: PreTestConfig {
                probes_per_vp: 110,
                picks: 8,
                ..PreTestConfig::default()
            },
            keep_raw: true,
            fault_plan: FaultPlan::none(),
            jobs: 1,
        }
    }

    /// The worker count a run uses: `requested` (a
    /// [`Runner::jobs`](crate::runner::Runner::jobs) override) or else
    /// [`Self::jobs`], with `0` resolved to the machine's available
    /// parallelism.
    pub fn effective_jobs(&self, requested: Option<usize>) -> usize {
        match requested.unwrap_or(self.jobs) {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }
}

/// Everything a finished campaign produced.
pub struct CampaignResult {
    /// The indexed measurement database.
    pub db: Db,
    /// Topology-based selections, one per topo region.
    pub topo_selections: Vec<TopologySelection>,
    /// Differential selections, one per diff region.
    pub diff_selections: Vec<DifferentialSelection>,
    /// The bill.
    pub billing: Billing,
    /// Measurement VMs created.
    pub vm_count: usize,
    /// Speed tests executed.
    pub tests_run: u64,
    /// Tests flagged CPU-tainted by the someta health check.
    pub tainted_tests: u64,
    /// Raw objects uploaded to buckets.
    pub raw_objects: u64,
    /// Retained raw buckets (per region), when `keep_raw` is set.
    pub buckets: Vec<Bucket>,
    /// Ground truth: every fault injected during the run.
    pub fault_log: FaultLog,
    /// Expected vs. collected server-hours, per region unit. Under any
    /// fault plan this reconciles exactly against [`Self::fault_log`].
    pub completeness: CompletenessReport,
    /// One checkpoint per work unit (JSON), the campaign state written
    /// out after that unit merged. Feeding any of them to
    /// [`Runner::resume_from`](crate::runner::Runner::resume_from)
    /// re-produces the identical final result without re-running the
    /// completed units. Each embeds the raw snapshots of every unit
    /// merged so far as [`serde_json::Value::Shared`] subtrees of the
    /// same `Arc`s, so holding all of them costs those snapshots once.
    pub checkpoints: Vec<serde_json::Value>,
}

/// What a work unit measures.
enum UnitKind {
    Topo { budget: usize },
    Diff,
}

/// One entry in the campaign's ordered, checkpointable work-unit list,
/// with its region already resolved against the world's provider.
struct Unit<'w> {
    label: String,
    region: &'w RegionSpec,
    kind: UnitKind,
    /// When the unit's VMs start measuring, and for how many days.
    start: SimTime,
    days: u64,
}

/// Everything a campaign carries from one work unit to the next, and
/// all that a checkpoint holds. Phase 3 folds each unit into it with
/// [`Self::merge_unit`]; [`Self::checkpoint`] writes it out and
/// [`Self::from_checkpoint`] reads it back.
struct CampaignState {
    vm_count: usize,
    tests_run: u64,
    tainted: u64,
    billing: Billing,
    flog: FaultLog,
    report: CompletenessReport,
    completed: Vec<String>,
    /// Durable raw snapshots of completed units. `Arc`-shared: every
    /// checkpoint embeds the same snapshot subtrees via
    /// [`serde_json::Value::Shared`], so checkpointing after each of N
    /// units costs O(N) pointer bumps instead of O(N²) deep copies of
    /// the accumulated raw data.
    raw_store: Vec<(String, std::sync::Arc<serde_json::Value>)>,
    /// Phase-2 execution metrics of completed units, restored from the
    /// checkpoint's `"obs"` section (empty when the checkpoint was
    /// taken without an observer, or on a fresh run).
    exec_metrics: MetricsRegistry,
}

impl CampaignState {
    /// A fresh run's state (`resume` is `None`), holding the plan's link
    /// faults, or the state a checkpoint was taken at. Every field a
    /// checkpoint holds is required, and every completed unit must have
    /// its raw snapshot: the run fails here, before any work, rather
    /// than after executing the pending units.
    fn from_checkpoint(
        resume: Option<&serde_json::Value>,
        fplan: &FaultPlan,
    ) -> Result<CampaignState, String> {
        let mut st = CampaignState {
            vm_count: 0,
            tests_run: 0,
            tainted: 0,
            billing: Billing::new(),
            flog: FaultLog::new(),
            report: CompletenessReport::new(),
            completed: Vec::new(),
            raw_store: Vec::new(),
            exec_metrics: MetricsRegistry::new(),
        };
        let Some(ckpt) = resume else {
            // Link faults degrade paths rather than eating VM-hours, so
            // they are marked recovered at window end and lose no
            // server-hours. Recorded first, their ids precede every
            // VM-loop fault; a resumed run restores them from the log.
            for lf in &fplan.link_faults {
                let id = st.flog.record(
                    lf.start_hour * 3600,
                    lf.kind,
                    "interconnect",
                    &format!("link-{}", lf.link),
                    format!("{}h, magnitude {}", lf.duration_hours, lf.magnitude),
                );
                st.flog
                    .mark_recovered(id, 0, (lf.start_hour + lf.duration_hours) * 3600);
            }
            return Ok(st);
        };
        // Unknown keys are ignored, among them the `"stream"` engine
        // snapshot that older streaming checkpoints carry: replaying the
        // completed units into a fresh engine rebuilds that state.
        let counters = ckpt.get("counters").ok_or("checkpoint missing counters")?;
        let u = |k: &str| {
            counters
                .get(k)
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("checkpoint counters missing {k:?}"))
        };
        st.vm_count = u("vm_count")? as usize;
        st.tests_run = u("tests_run")?;
        st.tainted = u("tainted")?;
        st.billing = billing_from_json(ckpt.get("billing").ok_or("checkpoint missing billing")?)?;
        st.flog = FaultLog::from_json(
            ckpt.get("fault_log")
                .ok_or("checkpoint missing fault_log")?,
        )?;
        st.report = CompletenessReport::from_json(
            ckpt.get("completeness")
                .ok_or("checkpoint missing completeness")?,
        )?;
        st.completed = ckpt
            .get("completed")
            .and_then(|c| c.as_array())
            .ok_or("checkpoint missing completed")?
            .iter()
            .map(|v| {
                v.as_str()
                    .map(String::from)
                    .ok_or_else(|| format!("checkpoint completed entry {v:?} is not a unit label"))
            })
            .collect::<Result<_, _>>()?;
        for entry in ckpt
            .get("raw")
            .and_then(|r| r.as_array())
            .ok_or("checkpoint missing raw")?
        {
            let label = entry
                .get("unit")
                .and_then(|v| v.as_str())
                .ok_or("raw entry missing unit")?;
            // Checkpoints produced in-process carry shared snapshots:
            // reuse the existing Arc. A parsed checkpoint's objects are
            // read back into blocks here, once.
            let snap = match entry {
                serde_json::Value::Shared(arc) => arc.clone(),
                other => std::sync::Arc::new(bucket_snapshot(&bucket_from_snapshot(other)?, label)),
            };
            st.raw_store.push((label.to_string(), snap));
        }
        if let Some(label) = st
            .completed
            .iter()
            .find(|c| !st.raw_store.iter().any(|(l, _)| l == *c))
        {
            return Err(format!("checkpoint has no raw data for unit {label:?}"));
        }
        if let Some(exec) = ckpt.get("obs").and_then(|o| o.get("exec")) {
            st.exec_metrics = MetricsRegistry::from_json(exec)?;
        }
        Ok(st)
    }

    /// Phase 3 for one unit: folds its VMs' outputs, in canonical order,
    /// into the state and returns the unit's bucket. A unit completed
    /// before the resume gets its bucket back from the raw snapshot and
    /// changes nothing.
    ///
    /// The transfer meters and completeness tallies are `u64` sums, so
    /// their order is cosmetic. Fault logs append with an id rebase, so
    /// canonical order reproduces one shared log, and the `f64` VM-hour
    /// and storage meters are issued as ops in canonical unit order
    /// instead of summing worker partials.
    fn merge_unit(
        &mut self,
        unit: &Unit<'_>,
        prep: &UnitPrep<'_>,
        outputs: impl Iterator<Item = VmOutput>,
    ) -> Result<Bucket, String> {
        let Unit {
            label,
            region,
            kind,
            days,
            ..
        } = unit;
        if prep.done {
            let (_, snap) = self
                .raw_store
                .iter()
                .find(|(l, _)| l == label)
                .ok_or_else(|| format!("checkpoint has no raw data for unit {label:?}"))?;
            return bucket_from_snapshot(snap);
        }
        let mut bucket = match kind {
            UnitKind::Topo { .. } => Bucket::new(region.name.clone()),
            UnitKind::Diff => Bucket::new(format!("{}-diff", region.name)),
        };
        for vo in outputs {
            self.exec_metrics.merge(&vo.metrics);
            self.flog.absorb(vo.flog);
            self.report.merge(&vo.report);
            self.billing.premium_egress_bytes += vo.billing.premium_egress_bytes;
            self.billing.standard_egress_bytes += vo.billing.standard_egress_bytes;
            self.billing.ingress_bytes += vo.billing.ingress_bytes;
            self.tests_run += vo.tests_run;
            self.tainted += vo.tainted;
            bucket.absorb(vo.bucket);
            if let UnitKind::Diff = kind {
                self.vm_count += 1;
                self.billing
                    .record_vm_hours(MachineType::N1Standard2, *days as f64 * 24.0);
            }
        }
        if let UnitKind::Topo { .. } = kind {
            self.vm_count += prep.n_vms;
            self.billing.record_vm_hours(
                MachineType::N1Standard2,
                prep.n_vms as f64 * *days as f64 * 24.0,
            );
        }
        self.billing
            .record_storage(bucket.stored_bytes(), *days as f64 * 24.0);
        self.raw_store.push((
            label.clone(),
            std::sync::Arc::new(bucket_snapshot(&bucket, label)),
        ));
        self.completed.push(label.clone());
        Ok(bucket)
    }

    /// Everything needed to resume after the units merged so far, with
    /// their raw buckets as durable storage. An observed run adds the
    /// `"obs"` section with the execution metrics a resume skips;
    /// without it the bytes are those of the pre-observability format.
    /// No engine state is written: a resumed streaming run feeds a fresh
    /// engine the replayed units' rows, which rebuilds it.
    fn checkpoint(&self, observed: bool) -> serde_json::Value {
        use serde_json::{Map, Value};
        let mut counters = Map::new();
        counters.insert("vm_count".into(), self.vm_count.into());
        counters.insert("tests_run".into(), self.tests_run.into());
        counters.insert("tainted".into(), self.tainted.into());
        let mut m = Map::new();
        m.insert(
            "completed".into(),
            Value::Array(self.completed.iter().map(|c| c.clone().into()).collect()),
        );
        m.insert("counters".into(), Value::Object(counters));
        m.insert("billing".into(), billing_to_json(&self.billing));
        m.insert("fault_log".into(), self.flog.to_json());
        m.insert("completeness".into(), self.report.to_json());
        // Shared, not cloned: each checkpoint embeds the same snapshot
        // subtrees, so the serialized bytes are identical to a deep copy
        // while the in-memory cost per checkpoint stays O(units).
        m.insert(
            "raw".into(),
            Value::Array(
                self.raw_store
                    .iter()
                    .map(|(_, snap)| Value::Shared(snap.clone()))
                    .collect(),
            ),
        );
        if observed {
            let mut o = Map::new();
            o.insert("exec".into(), self.exec_metrics.to_json());
            m.insert("obs".into(), Value::Object(o));
        }
        Value::Object(m)
    }
}

/// The selection a unit-prep task computed.
enum UnitSel {
    Topo(TopologySelection),
    Diff(DifferentialSelection),
}

/// Phase-1 output: one prepared unit.
struct UnitPrep<'w> {
    sel: UnitSel,
    /// Completed before the resume: replayed from its raw snapshot.
    done: bool,
    /// Total VMs the unit's plan deploys (topo only; diff counts per VM
    /// at merge). Zero for already-completed units.
    n_vms: usize,
    /// VM task descriptors, in canonical execution order. Empty for
    /// already-completed units.
    vms: Vec<VmTask<'w>>,
    /// `(vm name, servers assigned, tests expected)` for every VM the
    /// unit's plan deploys — computed even for completed units, so
    /// observer metrics derived from it are identical whether a run is
    /// fresh or resumed.
    vm_plan: Vec<(String, u64, u64)>,
}

/// Resolved path pairs, keyed by server id.
type PairMap<'w> = std::collections::HashMap<String, (PathPair, &'w speedtest::platform::Server)>;

/// Everything a worker needs to run one VM's campaign independently.
struct VmTask<'w> {
    unit: usize,
    vm_idx: usize,
    /// The unit plan's total VM count (quota checks draw on it).
    n_vms: usize,
    tier: Tier,
    assignment: Vec<String>,
    /// Path pairs resolved during unit prep, while the worker's path
    /// caches are warm from the unit's selection scan. Resolution is a
    /// pure function of (world, region, tier, server), so resolving in
    /// phase 1 instead of next to the cron loop cannot change results —
    /// it only keeps path construction off the per-VM phase.
    pairs: PairMap<'w>,
    comp_label: String,
    /// Region string of the unit's shared bucket (upload fault draws
    /// are scoped to it, so VM-local buckets must carry the same one).
    bucket_region: String,
    method: &'static str,
}

/// Everything one VM's campaign produced, buffered for the ordered
/// merge. All cross-VM shared state of a unit decomposes into
/// order-free parts: fault ids rebase on append, completeness and
/// transfer tallies are unsigned sums, bucket keys are disjoint per VM.
struct VmOutput {
    bucket: Bucket,
    billing: Billing,
    tests_run: u64,
    tainted: u64,
    flog: FaultLog,
    report: CompletenessReport,
    /// Per-task metric shard (counters + fixed-bound histograms only),
    /// merged into the cumulative execution metrics in canonical unit
    /// order. Empty when no observer is attached.
    metrics: MetricsRegistry,
}

/// The campaign driver.
pub struct Campaign<'w> {
    world: &'w World,
    /// Configuration in force.
    pub config: CampaignConfig,
}

impl<'w> Campaign<'w> {
    /// Binds a campaign to a world.
    pub fn new(world: &'w World, config: CampaignConfig) -> Self {
        Self { world, config }
    }

    /// The campaign's run builder — the one entrypoint behind every
    /// mode (fresh, resumed, streaming, parallel, observed).
    ///
    /// ```ignore
    /// let result = Campaign::new(&world, cfg)
    ///     .runner()
    ///     .jobs(8)
    ///     .observer(&obs)
    ///     .run()?;
    /// ```
    pub fn runner(&self) -> crate::runner::Runner<'_, 'w> {
        crate::runner::Runner::new(self)
    }

    /// The provider profile hosting this campaign's world. Single-provider
    /// campaigns are always pinned to exactly one profile; multi-provider
    /// worlds run through [`crate::crosscloud`] instead.
    pub fn provider(&self) -> &cloudsim::provider::ProviderProfile {
        &self.world.provider
    }

    /// Builds a [`StreamEngine`](clasp_stream::StreamEngine) wired to
    /// this campaign's world (server-local UTC offsets resolved from the
    /// registry, like the batch analysis does).
    pub fn stream_engine(&self, cfg: clasp_stream::EngineConfig) -> clasp_stream::StreamEngine {
        clasp_stream::StreamEngine::new(cfg, self.world.server_utc_offsets())
    }

    /// The campaign as an ordered list of checkpointable work units:
    /// each topology region, then each differential region. This order
    /// is the canonical one the merge reassembles worker output along.
    /// Every region resolves here, once, so an unknown name fails the
    /// run before any work starts.
    fn units(&self) -> Result<Vec<Unit<'w>>, String> {
        let world: &'w World = self.world;
        let region = |name: &str| {
            world
                .provider
                .region(name)
                .ok_or_else(|| format!("campaign: unknown region {name}"))
        };
        let (days, diff_days) = (self.config.days, self.config.diff_days);
        let mut units = Vec::new();
        for (name, budget) in &self.config.topo_regions {
            units.push(Unit {
                label: format!("topo:{name}"),
                region: region(name)?,
                kind: UnitKind::Topo { budget: *budget },
                start: SimTime::EPOCH,
                days,
            });
        }
        for name in &self.config.diff_regions {
            units.push(Unit {
                label: format!("diff:{name}"),
                region: region(name)?,
                kind: UnitKind::Diff,
                // Aligned to the campaign end.
                start: SimTime((days - diff_days) * SECONDS_PER_DAY),
                days: diff_days,
            });
        }
        Ok(units)
    }

    /// The one execution path behind [`crate::runner::Runner`], for
    /// every mode: any job count, observed or not, batch or streaming,
    /// fresh or resumed. Per-unit prep (selection + deployment plan)
    /// and per-VM campaign loops are scattered across workers into
    /// VM-local buffers — inline on the caller's thread at `jobs = 1` —
    /// then merged in canonical unit order into one `CampaignState`,
    /// which is checkpointed after each unit. An observer is only a
    /// sink: it opens a span per phase and counts, but never changes
    /// what runs. Every output — points, checkpoints, fault ids,
    /// billing, completeness rows, stream labels — is bit-identical at
    /// every job count: fault ids rebase on append, the `u64` tallies
    /// commute, the `f64` meters are issued in canonical unit order, and
    /// each merged unit bucket is ingested in its key order, which is
    /// what the streaming engine consumes.
    ///
    /// An unknown region or a malformed checkpoint, a completed unit
    /// without its raw snapshot included, fails the run before any work
    /// starts, so an attached engine has seen nothing.
    pub(crate) fn run_resumable(
        &self,
        resume: Option<&serde_json::Value>,
        mut stream: Option<&mut clasp_stream::StreamEngine>,
        observer: Option<&Observer>,
        jobs: usize,
    ) -> Result<CampaignResult, String> {
        let units = self.units()?;
        let mut state = CampaignState::from_checkpoint(resume, &self.config.fault_plan)?;
        let base_cron = CronSchedule::new(self.config.seed ^ 0xc407);
        let mut db = Db::new();
        let mut raw_objects = 0u64;
        let mut buckets = Vec::new();
        let mut topo_selections = Vec::new();
        let mut diff_selections = Vec::new();
        let mut checkpoints = Vec::new();

        // Phase 1: per-unit prep — selections (pure functions of world
        // + config, recomputed identically whether resuming or not) and
        // the VM task descriptors of pending units. Each worker builds
        // one session and keeps it warm across its units: the Paths
        // route cache is memoization only, so cache state can never
        // change a result — only skip recomputation.
        let span1 = observer.map(|o| o.span("phase1:unit_prep"));
        let degradations = self.config.fault_plan.link_degradations();
        let new_session = || {
            let mut session = self.world.session();
            session.perf.set_degradations(degradations.clone());
            session
        };
        let done: Vec<bool> = units
            .iter()
            .map(|u| state.completed.contains(&u.label))
            .collect();
        let (preps, shards): (Vec<UnitPrep>, _) =
            exec::scatter_metered(jobs, units.len(), new_session, |session, shard, i| {
                self.prep_unit(session, shard, &base_cron, &units[i], i, done[i])
            });
        if let Some(obs) = observer {
            for shard in &shards {
                obs.merge_shard(shard);
            }
            // Per-VM plan metrics land on the main thread, keyed by
            // unit label + VM name so topo and diff VMs sharing a
            // region cannot collide.
            obs.with_metrics(|m| {
                for (prep, Unit { label, .. }) in preps.iter().zip(&units) {
                    for (vm, assigned, expected) in &prep.vm_plan {
                        m.inc(&format!("vm.{label}/{vm}.assigned"), *assigned);
                        m.inc(&format!("vm.{label}/{vm}.expected_tests"), *expected);
                    }
                }
            });
            obs.advance(units.len() as u64);
        }
        drop(span1);

        // Phase 2: every VM of every pending unit is one independent
        // task. VM-level granularity keeps all workers busy even when a
        // single region holds half the server budget; unit-level tasks
        // would cap the speedup at the largest region's share.
        let span2 = observer.map(|o| o.span("phase2:vm_exec"));
        let tasks: Vec<&VmTask> = preps.iter().flat_map(|p| p.vms.iter()).collect();
        let outputs: Vec<VmOutput> =
            exec::scatter_with(jobs, tasks.len(), new_session, |session, t| {
                let task = tasks[t];
                self.run_vm_loop(
                    session,
                    &base_cron,
                    &units[task.unit],
                    task,
                    observer.is_some(),
                )
            });
        drop(tasks);
        if let Some(obs) = observer {
            // Logical time covers *planned* VMs (vm_plan includes the
            // completed units' VMs), so resumed runs advance the clock
            // exactly as far as uninterrupted ones.
            obs.advance(preps.iter().map(|p| p.vm_plan.len() as u64).sum());
        }
        drop(span2);

        // Phase 3: merge in canonical unit order on the caller's thread,
        // one unit at a time, from the buffered worker outputs.
        let span3 = observer.map(|o| o.span("phase3:merge"));
        let mut out_iter = outputs.into_iter();
        for (unit, prep) in units.iter().zip(preps) {
            // Outputs come back in task order, which is unit order: this
            // unit's are the next `prep.vms.len()` of them.
            let bucket = state.merge_unit(unit, &prep, out_iter.by_ref().take(prep.vms.len()))?;
            let label = &unit.label;
            // Fresh and replayed units alike stream out of the merged
            // unit bucket: its `raw/` listing is lexicographic, so the
            // ingest order (and the order the stream engine consumes)
            // does not depend on the job count.
            let stats = pipeline::ingest_streaming(
                &bucket,
                &mut db,
                |key, n| {
                    if let Some(obs) = observer {
                        record_collected(obs, label, key, n);
                    }
                },
                |id, series, time, fields| {
                    if let Some(engine) = stream.as_deref_mut() {
                        engine.ingest_row(id, series, time, fields);
                    }
                },
            );
            raw_objects += stats.objects;
            if let Some(obs) = observer {
                obs.with_metrics(|m| {
                    m.inc("ingest.objects", stats.objects);
                    m.inc("ingest.points", stats.points);
                    m.inc("ingest.fallback_lines", stats.fallback_lines);
                    m.inc("ingest.errors", stats.errors);
                    m.inc("ingest.raw_bytes", stats.raw_bytes);
                    m.inc("ingest.packed_bytes", stats.packed_bytes);
                });
                obs.advance(stats.points);
                obs.event(
                    "unit.merged",
                    label,
                    format!("objects={} points={}", stats.objects, stats.points),
                );
            }
            if self.config.keep_raw {
                buckets.push(bucket);
            }
            match prep.sel {
                UnitSel::Topo(sel) => topo_selections.push(sel),
                UnitSel::Diff(sel) => diff_selections.push(sel),
            }
            checkpoints.push(state.checkpoint(observer.is_some()));
        }
        drop(span3);

        // Checkpoints carry the raw expected/collected tallies; the
        // fault outcomes are folded in exactly once, here, after all
        // units merged, so a resumed run absorbs each fault a single
        // time.
        state.report.absorb_log(&state.flog);
        if let Some(obs) = observer {
            obs.merge_shard(&state.exec_metrics);
        }

        Ok(CampaignResult {
            db,
            topo_selections,
            diff_selections,
            billing: state.billing,
            vm_count: state.vm_count,
            tests_run: state.tests_run,
            tainted_tests: state.tainted,
            raw_objects,
            buckets,
            fault_log: state.flog,
            completeness: state.report,
            checkpoints,
        })
    }

    /// Phase 1 for unit `i`: its selection, the per-VM plan observers
    /// count and, unless the unit is `done`, its VM tasks with their
    /// paths resolved. The plan is computed for completed units too: it
    /// is a pure function of world + config, so recomputing it keeps
    /// observer output identical across checkpoint resumes.
    fn prep_unit(
        &self,
        session: &crate::world::Session<'_>,
        shard: &mut MetricsRegistry,
        base_cron: &CronSchedule,
        unit: &Unit<'w>,
        i: usize,
        done: bool,
    ) -> UnitPrep<'w> {
        shard.inc("prep.units", 1);
        let Unit {
            region, kind, days, ..
        } = unit;
        let region_city = region.city_id(&self.world.topo.cities);
        let client = SpeedTestClient::default();
        match kind {
            UnitKind::Topo { budget } => {
                let sel = topology::select(
                    self.world,
                    &session.paths,
                    &region.name,
                    region_city,
                    *budget,
                    &self.config.pilot,
                );
                shard.inc("prep.pilot_flows", sel.pilot_flows);
                shard.inc("prep.pilot_paths", sel.pilot_paths);
                let plan = plan::plan_region(region, &sel.servers, base_cron);
                let vm_plan = plan
                    .assignments
                    .iter()
                    .enumerate()
                    .map(|(vm_idx, a)| {
                        let name =
                            format!("clasp-{}-{}-{vm_idx}", region.name, Tier::Premium.label());
                        let assigned = a.len() as u64;
                        (name, assigned, assigned * days * 24)
                    })
                    .collect();
                let mut vms = Vec::new();
                let mut n_vms = 0;
                if !done {
                    n_vms = plan.n_vms;
                    for (vm_idx, assignment) in plan.assignments.iter().enumerate() {
                        vms.push(VmTask {
                            unit: i,
                            vm_idx,
                            n_vms: plan.n_vms,
                            tier: Tier::Premium,
                            pairs: self.resolve_pairs(
                                session,
                                &client,
                                region,
                                Tier::Premium,
                                assignment,
                            ),
                            assignment: assignment.clone(),
                            comp_label: region.name.to_string(),
                            bucket_region: region.name.to_string(),
                            method: "topo",
                        });
                    }
                }
                UnitPrep {
                    sel: UnitSel::Topo(sel),
                    done,
                    n_vms,
                    vms,
                    vm_plan,
                }
            }
            UnitKind::Diff => {
                let sel = differential::select(
                    self.world,
                    &session.paths,
                    &session.perf,
                    &region.name,
                    region_city,
                    &self.config.pretest,
                );
                shard.inc("prep.pretest_probes", sel.pretest_probes);
                shard.inc("prep.pretest_queue_series", sel.pretest_queue_series);
                let servers: Vec<String> = sel.picks.iter().map(|p| p.server_id.clone()).collect();
                let vm_plan = [Tier::Premium, Tier::Standard]
                    .iter()
                    .map(|tier| {
                        let name = format!("clasp-{}-{}-0", region.name, tier.label());
                        let assigned = servers.len() as u64;
                        (name, assigned, assigned * days * 24)
                    })
                    .collect();
                let mut vms = Vec::new();
                if !done {
                    for tier in [Tier::Premium, Tier::Standard] {
                        vms.push(VmTask {
                            unit: i,
                            vm_idx: 0,
                            n_vms: 1,
                            tier,
                            pairs: self.resolve_pairs(session, &client, region, tier, &servers),
                            assignment: servers.clone(),
                            comp_label: format!("{}-diff-{}", region.name, tier.label()),
                            bucket_region: format!("{}-diff", region.name),
                            method: "diff",
                        });
                    }
                }
                UnitPrep {
                    sel: UnitSel::Diff(sel),
                    done,
                    n_vms: 0,
                    vms,
                    vm_plan,
                }
            }
        }
    }

    /// Resolves the path pair for every server in `ids` (paths are
    /// stable across the campaign; CLASP re-selects only at start). An id
    /// missing from the registry gets no pair, like an unroutable server:
    /// the VM loop skips ids without one.
    fn resolve_pairs(
        &self,
        session: &crate::world::Session<'_>,
        client: &SpeedTestClient,
        region: &RegionSpec,
        tier: Tier,
        ids: &[String],
    ) -> PairMap<'w> {
        let region_city = region.city_id(&self.world.topo.cities);
        let vm_ip = self.world.topo.vm_ip(region_city, 0);
        let mut pairs = std::collections::HashMap::new();
        for sid in ids {
            let Some(server) = self.world.registry.by_id(sid) else {
                continue;
            };
            if let Some(pair) =
                client.resolve_paths(&session.paths, region_city, vm_ip, server, tier)
            {
                pairs.insert(sid.clone(), (pair, server));
            }
        }
        pairs
    }

    /// One VM's whole campaign: the hourly cron loop over its server
    /// assignment, with fault injection and resilient recovery, into
    /// the VM-local buffers that phase 3 merges. With an empty fault
    /// plan every fault query short-circuits. `observed` records the
    /// per-test metrics an observer reports.
    fn run_vm_loop(
        &self,
        session: &crate::world::Session<'_>,
        base_cron: &CronSchedule,
        unit: &Unit<'w>,
        task: &VmTask<'w>,
        observed: bool,
    ) -> VmOutput {
        let &Unit {
            ref label,
            region,
            start,
            days,
            ..
        } = unit;
        let &VmTask {
            vm_idx,
            n_vms,
            tier,
            ref assignment,
            ref pairs,
            ref comp_label,
            method,
            ..
        } = task;
        let fplan = &self.config.fault_plan;
        let client = SpeedTestClient::default();
        let salt = tier_salt(tier);
        let cron = CronSchedule {
            budget: base_cron.budget,
            seed: base_cron.seed ^ salt,
        };
        let mut out = VmOutput {
            bucket: Bucket::new(task.bucket_region.clone()),
            billing: Billing::new(),
            tests_run: 0,
            tainted: 0,
            flog: FaultLog::new(),
            report: CompletenessReport::new(),
            metrics: MetricsRegistry::new(),
        };
        let abort_policy = RetryPolicy::speedtest();
        let upload_policy = RetryPolicy::upload();
        let api_policy = RetryPolicy::api();
        let vm_name = format!("clasp-{}-{}-{}", region.name, tier.label(), vm_idx);
        let scope = VmScope {
            region: &region.name,
            vm: &vm_name,
        };
        let jitter_key = faultsim::name_key(&vm_name);
        let vm_meta_key = nettools::someta::vm_key(&vm_name);
        // The schedule only covers servers whose paths resolved;
        // each gets one test per hour per the paper's design.
        let resolvable = assignment
            .iter()
            .filter(|sid| pairs.contains_key(sid.as_str()))
            .count() as u64;
        out.report.add_expected(comp_label, resolvable * days * 24);
        // An in-progress multi-hour outage: (fault id, end hour).
        let mut active_outage: Option<(usize, u64)> = None;
        let mut day_results: Vec<TestResult> = Vec::with_capacity(assignment.len() * 24);
        let items: Vec<&str> = assignment.iter().map(String::as_str).collect();
        for day in 0..days {
            for hour in 0..24 {
                let hour_start = start + day * SECONDS_PER_DAY + hour * HOUR;
                let abs_hour = hour_start.hour_index();
                // Legacy outages (`FaultPlan::legacy_outage_rate`):
                // the hour is silently lost, exactly as the original
                // inline draw decided — but logged as ground truth.
                if fplan.legacy_vm_outage(
                    self.config.seed ^ vm_idx as u64 ^ salt,
                    hour_start.as_secs(),
                ) {
                    let id = out.flog.record(
                        hour_start.as_secs(),
                        FaultKind::CronMiss,
                        comp_label,
                        &vm_name,
                        "legacy outage_rate",
                    );
                    out.flog.mark_lost(id, resolvable);
                    continue;
                }
                // An outage window in progress eats the whole hour;
                // at its end the VM must be brought back, which the
                // quota and the control-plane API can both delay.
                if let Some((id, until)) = active_outage {
                    if abs_hour < until {
                        out.flog.mark_lost(id, resolvable);
                        continue;
                    }
                    if !cloudsim::quota::Quota::default().allows_provisioning(
                        n_vms,
                        &region.name,
                        abs_hour,
                        fplan,
                    ) {
                        let qid = out.flog.record(
                            hour_start.as_secs(),
                            FaultKind::QuotaExhausted,
                            comp_label,
                            &vm_name,
                            "restart blocked by quota",
                        );
                        out.flog.mark_lost(qid, resolvable);
                        active_outage = Some((qid, abs_hour + 1));
                        continue;
                    }
                    if fplan.api_error("restart_vm", hour_start.as_secs(), 0) {
                        let aid = out.flog.record(
                            hour_start.as_secs(),
                            FaultKind::ApiError,
                            comp_label,
                            &vm_name,
                            "restart_vm",
                        );
                        let recovered = (1..api_policy.max_attempts).find(|&attempt| {
                            !fplan.api_error("restart_vm", hour_start.as_secs(), attempt)
                        });
                        match recovered {
                            Some(attempt) => {
                                out.flog.mark_recovered(
                                    aid,
                                    attempt,
                                    hour_start.as_secs()
                                        + api_policy.total_delay(attempt + 1, jitter_key),
                                );
                                active_outage = None;
                            }
                            None => {
                                out.flog.mark_lost(aid, resolvable);
                                active_outage = Some((aid, abs_hour + 1));
                                continue;
                            }
                        }
                    } else {
                        active_outage = None;
                    }
                }
                // New VM outages (preemption / crash loop) starting
                // this hour: logged once, then the window is walked
                // hour by hour so the lost toll is exact even when
                // it crosses the campaign end.
                if let Some((kind, dur)) = fplan.vm_fault_starting(scope, abs_hour) {
                    let id = out.flog.record(
                        hour_start.as_secs(),
                        kind,
                        comp_label,
                        &vm_name,
                        format!("{dur}h outage"),
                    );
                    out.flog.mark_lost(id, resolvable);
                    active_outage = Some((id, abs_hour + dur));
                    continue;
                }
                // Cron faults: a skewed tick runs late; a missed tick
                // is re-fired by the watchdog (each re-fire draws
                // independently) or, past the retry budget, the hour
                // is gracefully skipped.
                let late = match fplan.cron_effect(scope, abs_hour, 0) {
                    CronEffect::OnTime => 0,
                    CronEffect::Skew(s) => {
                        let id = out.flog.record(
                            hour_start.as_secs(),
                            FaultKind::CronSkew,
                            comp_label,
                            &vm_name,
                            format!("late {s}s"),
                        );
                        out.flog.mark_recovered(id, 0, hour_start.as_secs() + s);
                        s
                    }
                    CronEffect::Miss => {
                        const WATCHDOG_RETRIES: u32 = 2;
                        const WATCHDOG_DELAY_S: u64 = 600;
                        let id = out.flog.record(
                            hour_start.as_secs(),
                            FaultKind::CronMiss,
                            comp_label,
                            &vm_name,
                            "tick missed",
                        );
                        let refired = (1..=WATCHDOG_RETRIES).find(|&attempt| {
                            !matches!(
                                fplan.cron_effect(scope, abs_hour, attempt),
                                CronEffect::Miss
                            )
                        });
                        let Some(attempt) = refired else {
                            out.flog.mark_lost(id, resolvable);
                            continue;
                        };
                        let delay = attempt as u64 * WATCHDOG_DELAY_S;
                        out.flog
                            .mark_recovered(id, attempt, hour_start.as_secs() + delay);
                        delay
                    }
                };
                // A late tick runs the nominal hour's shuffled order,
                // every slot `late` seconds later.
                for Slot {
                    item,
                    start: nominal,
                } in cron.hour_slots(hour_start, &items)
                {
                    let at = nominal + late;
                    let Some((pair, server)) = pairs.get(item) else {
                        continue;
                    };
                    // Mid-test aborts retry within the slot with
                    // backed-off restarts; a slot that never
                    // completes loses one server-hour.
                    let mut result = client.run_test_faulted(
                        &session.perf,
                        pair,
                        server,
                        at,
                        self.config.seed ^ salt,
                        fplan,
                        scope,
                        0,
                    );
                    if result.is_none() {
                        let id = out.flog.record(
                            at.as_secs(),
                            FaultKind::TestAbort,
                            comp_label,
                            &vm_name,
                            item,
                        );
                        for attempt in 1..abort_policy.max_attempts {
                            let t_retry = at + abort_policy.total_delay(attempt + 1, jitter_key);
                            if let Some(r) = client.run_test_faulted(
                                &session.perf,
                                pair,
                                server,
                                t_retry,
                                self.config.seed ^ salt,
                                fplan,
                                scope,
                                attempt,
                            ) {
                                out.flog.mark_recovered(id, attempt, t_retry.as_secs());
                                result = Some(r);
                                break;
                            }
                        }
                        if result.is_none() {
                            out.flog.mark_lost(id, 1);
                        }
                    }
                    let Some(r) = result else {
                        continue;
                    };
                    if observed {
                        let m = &mut out.metrics;
                        m.observe("test.download_mbps", MBPS_BOUNDS, r.download_mbps);
                        m.observe("test.upload_mbps", MBPS_BOUNDS, r.upload_mbps);
                        m.observe("test.latency_ms", LATENCY_BOUNDS, r.latency_ms);
                    }
                    // Health check (someta): only the CPU reading of
                    // the metadata record feeds the taint decision,
                    // so compute just that — same value, none of the
                    // record's string allocations.
                    let cpu = nettools::someta::cpu_util(vm_meta_key, at, r.download_mbps);
                    if cpu >= nettools::someta::CPU_TAINT_THRESHOLD {
                        out.tainted += 1;
                    }
                    // Billing: upload data + download ACK overhead is
                    // egress; download data is (free) ingress.
                    let up_bytes =
                        (r.upload_mbps / 8.0 * server.platform.transfer_seconds() * 1e6) as u64;
                    let down_bytes =
                        (r.download_mbps / 8.0 * server.platform.transfer_seconds() * 1e6) as u64;
                    out.billing.record_transfer(
                        tier == Tier::Premium,
                        up_bytes + down_bytes / 50,
                        down_bytes,
                    );
                    out.tests_run += 1;
                    day_results.push(r);
                }
            }
            // End of day: upload the raw batch with bounded retries.
            // Only batches that actually land in the bucket count as
            // collected — a lost batch loses its server-hours.
            if !day_results.is_empty() {
                let n = day_results.len() as u64;
                let uploaded = pipeline::upload_batch_resilient(
                    &mut out.bucket,
                    &region.name,
                    method,
                    &vm_name,
                    &day_results,
                    start + (day + 1) * SECONDS_PER_DAY,
                    fplan,
                    &upload_policy,
                    &mut out.flog,
                    comp_label,
                );
                if uploaded.is_some() {
                    out.report.add_collected(comp_label, n);
                }
                day_results.clear();
            }
        }
        if observed {
            let m = &mut out.metrics;
            m.inc(
                &format!("vm.{label}/{vm_name}.tests_executed"),
                out.tests_run,
            );
            m.inc("exec.tests_executed", out.tests_run);
            m.inc("exec.tests_tainted", out.tainted);
        }
        out
    }
}

/// Fixed histogram bounds for test throughput (Mbps). Fixed bounds are
/// what keep histograms mergeable and bit-identical: only u64 bucket
/// counts accumulate, never f64 sums.
const MBPS_BOUNDS: &[f64] = &[50.0, 100.0, 200.0, 400.0, 600.0, 800.0];

/// Fixed histogram bounds for test latency (ms).
const LATENCY_BOUNDS: &[f64] = &[2.0, 5.0, 10.0, 20.0, 50.0, 100.0];

/// Counts one ingested object's tests under its VM, named by the object
/// key (`raw/<region>/<day>/<vm>.lp`), and the unit's label.
fn record_collected(obs: &Observer, label: &str, key: &str, points: u64) {
    obs.with_metrics(|m| {
        let vm = key
            .rsplit('/')
            .next()
            .and_then(|f| f.strip_suffix(".lp"))
            .unwrap_or("unknown");
        m.inc(&format!("vm.{label}/{vm}.tests_collected"), points);
    });
}

/// Per-tier crontab/RNG salt: the premium and standard VMs of a
/// differential pair draw from distinct streams.
fn tier_salt(tier: Tier) -> u64 {
    match tier {
        Tier::Premium => 0x11,
        Tier::Standard => 0x22,
    }
}

/// Dumps a bucket's objects to JSON: the durable-storage side of a
/// campaign checkpoint. Each object's `data` shares the bucket's payload
/// ([`Payload::to_json`]); it serializes as the object's text, rendered
/// when the checkpoint is written.
fn bucket_snapshot(bucket: &Bucket, unit: &str) -> serde_json::Value {
    use serde_json::{Map, Value};
    let objects: Vec<Value> = bucket
        .objects()
        .map(|(key, obj)| {
            let mut m = Map::new();
            m.insert("key".into(), key.into());
            m.insert("data".into(), obj.data.to_json());
            m.insert("uploaded".into(), obj.uploaded.as_secs().into());
            Value::Object(m)
        })
        .collect();
    let mut m = Map::new();
    m.insert("unit".into(), unit.into());
    m.insert("bucket".into(), bucket.region.clone().into());
    m.insert("objects".into(), Value::Array(objects));
    Value::Object(m)
}

/// Rebuilds a bucket from its snapshot. Shared payloads are kept as they
/// are; the strings of a parsed checkpoint become the block that renders
/// each of them, or stay text when none does ([`Payload::from_text`]),
/// so either way the bucket ingests as the one snapshotted.
fn bucket_from_snapshot(snap: &serde_json::Value) -> Result<Bucket, String> {
    let region = snap
        .get("bucket")
        .and_then(|v| v.as_str())
        .ok_or("snapshot missing bucket region")?;
    let mut bucket = Bucket::new(region);
    for obj in snap
        .get("objects")
        .and_then(|o| o.as_array())
        .ok_or("snapshot missing objects")?
    {
        let key = obj
            .get("key")
            .and_then(|v| v.as_str())
            .ok_or("object missing key")?;
        let data = obj
            .get("data")
            .and_then(Payload::from_json)
            .ok_or("object missing data")?;
        let uploaded = obj
            .get("uploaded")
            .and_then(|v| v.as_u64())
            .ok_or("object missing uploaded")?;
        bucket.put_payload(key, data, SimTime(uploaded));
    }
    Ok(bucket)
}

fn billing_to_json(billing: &Billing) -> serde_json::Value {
    use serde_json::{Map, Value};
    let mut m = Map::new();
    m.insert(
        "premium_egress_bytes".into(),
        billing.premium_egress_bytes.into(),
    );
    m.insert(
        "standard_egress_bytes".into(),
        billing.standard_egress_bytes.into(),
    );
    m.insert("ingress_bytes".into(), billing.ingress_bytes.into());
    m.insert("vm_hours_n1".into(), billing.vm_hours_n1.into());
    m.insert("vm_hours_n2".into(), billing.vm_hours_n2.into());
    m.insert(
        "storage_byte_hours".into(),
        billing.storage_byte_hours.into(),
    );
    Value::Object(m)
}

fn billing_from_json(v: &serde_json::Value) -> Result<Billing, String> {
    let field = |k: &str| {
        v.get(k)
            .ok_or_else(|| format!("checkpoint billing missing {k:?}"))
    };
    let u = |k: &str| {
        field(k)?
            .as_u64()
            .ok_or_else(|| format!("checkpoint billing {k:?} is not a byte count"))
    };
    let f = |k: &str| {
        field(k)?
            .as_f64()
            .ok_or_else(|| format!("checkpoint billing {k:?} is not a number"))
    };
    let mut billing = Billing::new();
    billing.premium_egress_bytes = u("premium_egress_bytes")?;
    billing.standard_egress_bytes = u("standard_egress_bytes")?;
    billing.ingress_bytes = u("ingress_bytes")?;
    billing.vm_hours_n1 = f("vm_hours_n1")?;
    billing.vm_hours_n2 = f("vm_hours_n2")?;
    billing.storage_byte_hours = f("storage_byte_hours")?;
    Ok(billing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsdb::{Aggregate, Query};

    fn run_small() -> (World, CampaignResult) {
        let world = World::tiny(121);
        let result = Campaign::new(&world, CampaignConfig::small(121))
            .runner()
            .run()
            .unwrap();
        (world, result)
    }

    #[test]
    fn unknown_server_id_gets_no_pair() {
        let world = World::tiny(121);
        let campaign = Campaign::new(&world, CampaignConfig::small(121));
        let session = world.session();
        let client = SpeedTestClient::default();
        let region = world.provider.region("us-west1").unwrap();
        let known: Vec<String> = world.registry.in_country("US")[..8]
            .iter()
            .map(|s| s.id.clone())
            .collect();
        let mut ids = vec!["no-such-server".to_string()];
        ids.extend(known.iter().cloned());
        let pairs = campaign.resolve_pairs(&session, &client, region, Tier::Premium, &ids);
        let known_pairs = campaign.resolve_pairs(&session, &client, region, Tier::Premium, &known);
        assert!(!known_pairs.is_empty());
        assert!(!pairs.contains_key("no-such-server"));
        let keys = |m: &PairMap<'_>| m.keys().cloned().collect::<std::collections::BTreeSet<_>>();
        assert_eq!(keys(&pairs), keys(&known_pairs));
    }

    #[test]
    fn campaign_produces_hourly_series() {
        let (_, res) = run_small();
        assert!(res.tests_run > 0);
        assert!(res.db.points_written > 0);
        assert_eq!(res.db.points_written, res.tests_run);
        // One topo selection, one diff selection.
        assert_eq!(res.topo_selections.len(), 1);
        assert_eq!(res.diff_selections.len(), 1);
        assert!(res.vm_count >= 3); // ≥1 topo VM + 2 diff VMs
        assert!(res.raw_objects > 0);
    }

    #[test]
    fn topo_series_have_one_test_per_hour() {
        let (_, res) = run_small();
        // Pure read: freeze one snapshot and query it immutably.
        let mut db = res.db;
        let snap = db.snapshot();
        let sel = &res.topo_selections[0];
        let first = &sel.servers[0];
        let rows = Query::select("speedtest", "download")
            .r#where("server", first)
            .r#where("method", "topo")
            .group_by_time(3600)
            .aggregate(Aggregate::Count)
            .run_snapshot(&snap);
        assert_eq!(rows.len(), 1);
        // 4 days × 24 hours, one test per hour.
        assert_eq!(rows[0].rows.len(), 96);
        assert!(rows[0].rows.iter().all(|r| r.value == 1.0));
    }

    #[test]
    fn differential_servers_measured_on_both_tiers() {
        let (_, res) = run_small();
        // Pure read: one snapshot serves both tier queries immutably.
        let mut db = res.db;
        let snap = db.snapshot();
        let sel = &res.diff_selections[0];
        assert!(!sel.picks.is_empty());
        let sid = &sel.picks[0].server_id;
        for tier in ["premium", "standard"] {
            let rows = Query::select("speedtest", "download")
                .r#where("server", sid)
                .r#where("tier", tier)
                .r#where("method", "diff")
                .aggregate(Aggregate::Count)
                .run_snapshot(&snap);
            assert_eq!(rows.len(), 1, "tier {tier} measured");
            // 2 days × 24 hours.
            assert_eq!(rows[0].rows[0].value, 48.0);
        }
    }

    #[test]
    fn billing_accumulates_vm_and_egress() {
        let (_, res) = run_small();
        assert!(res.billing.vm_usd() > 0.0);
        assert!(res.billing.egress_usd() > 0.0);
        assert!(res.billing.total_usd() > 0.0);
        // Download is ingress → free; the bill is dominated by VM + the
        // small upload egress.
        assert!(res.billing.ingress_bytes > res.billing.premium_egress_bytes);
    }

    #[test]
    fn campaign_is_deterministic() {
        let world = World::tiny(131);
        let a = Campaign::new(&world, CampaignConfig::small(131))
            .runner()
            .run()
            .unwrap();
        let b = Campaign::new(&world, CampaignConfig::small(131))
            .runner()
            .run()
            .unwrap();
        assert_eq!(a.tests_run, b.tests_run);
        assert_eq!(a.db.points_written, b.db.points_written);
        assert_eq!(
            a.billing.premium_egress_bytes,
            b.billing.premium_egress_bytes
        );
    }

    #[test]
    fn health_check_rarely_fires() {
        let (_, res) = run_small();
        // The paper verified the VM type was never CPU-starved.
        assert!(res.tainted_tests * 10 < res.tests_run);
    }

    #[test]
    fn raw_buckets_retained_when_asked() {
        let (_, res) = run_small();
        assert!(!res.buckets.is_empty());
        assert!(res.buckets.iter().all(|b| !b.is_empty()));
    }

    #[test]
    fn zero_fault_plan_is_invisible() {
        let world = World::tiny(121);
        let a = Campaign::new(&world, CampaignConfig::small(121))
            .runner()
            .run()
            .unwrap();
        let mut cfg = CampaignConfig::small(121);
        cfg.fault_plan = FaultPlan::none();
        let b = Campaign::new(&world, cfg).runner().run().unwrap();
        assert!(a.fault_log.is_empty());
        assert!(a.completeness.reconciles());
        assert_eq!(a.completeness.total_missing(), 0);
        // Byte-identical final state: the canonical checkpoint JSON
        // captures every raw object, counter and billing figure.
        assert_eq!(
            serde_json::to_string(a.checkpoints.last().unwrap()),
            serde_json::to_string(b.checkpoints.last().unwrap()),
        );
    }

    #[test]
    fn faulted_campaign_completes_and_reconciles() {
        let world = World::tiny(121);
        let mut cfg = CampaignConfig::small(121);
        cfg.fault_plan = FaultPlan::uniform(9, 0.02);
        let res = Campaign::new(&world, cfg).runner().run().unwrap();
        assert!(res.tests_run > 0, "campaign still collects data");
        assert!(!res.fault_log.is_empty(), "2% rates fire in 192 VM-hours");
        assert!(
            res.completeness.reconciles(),
            "missing hours must match the fault log exactly: {:?}",
            res.completeness.discrepancies()
        );
        assert!(res.completeness.total_missing() > 0, "some data was lost");
        assert!(res.completeness.overall_completeness() > 0.5);
        let s = res.fault_log.summary();
        assert!(s.recovered > 0, "retries recover some faults: {s:?}");
    }

    #[test]
    fn legacy_outage_rate_is_faultplan_backed() {
        let world = World::tiny(121);
        let mut planned = CampaignConfig::small(121);
        planned.fault_plan = FaultPlan::legacy_outage(0.10);
        let mut from_json = planned.clone();
        from_json.fault_plan =
            FaultPlan::from_json_str(&serde_json::to_string(&planned.fault_plan.to_json()))
                .unwrap();
        let a = Campaign::new(&world, planned).runner().run().unwrap();
        let b = Campaign::new(&world, from_json).runner().run().unwrap();
        // Same draws, same gaps, same data: a plan handed in as JSON
        // carries the legacy outage rate through unchanged.
        assert_eq!(
            serde_json::to_string(a.checkpoints.last().unwrap()),
            serde_json::to_string(b.checkpoints.last().unwrap()),
        );
        let pristine = Campaign::new(&world, CampaignConfig::small(121))
            .runner()
            .run()
            .unwrap();
        assert!(a.tests_run < pristine.tests_run, "outages cost tests");
        assert!(a.completeness.reconciles());
    }

    #[test]
    fn checkpoint_resume_reproduces_final_results() {
        let world = World::tiny(121);
        let mut cfg = CampaignConfig::small(121);
        cfg.fault_plan = FaultPlan::uniform(5, 0.02);
        let full = Campaign::new(&world, cfg.clone()).runner().run().unwrap();
        // One checkpoint per work unit: 1 topo region + 1 diff region.
        assert_eq!(full.checkpoints.len(), 2);
        let resumed = Campaign::new(&world, cfg)
            .runner()
            .resume_from(&full.checkpoints[0])
            .run()
            .unwrap();
        assert_eq!(full.tests_run, resumed.tests_run);
        assert_eq!(full.db.points_written, resumed.db.points_written);
        assert_eq!(full.db.series_count(), resumed.db.series_count());
        assert_eq!(
            full.billing.premium_egress_bytes,
            resumed.billing.premium_egress_bytes
        );
        assert_eq!(
            full.billing.standard_egress_bytes,
            resumed.billing.standard_egress_bytes
        );
        assert_eq!(full.fault_log, resumed.fault_log);
        assert_eq!(full.completeness, resumed.completeness);
        assert_eq!(
            serde_json::to_string(full.checkpoints.last().unwrap()),
            serde_json::to_string(resumed.checkpoints.last().unwrap()),
        );
    }

    #[test]
    fn parallel_jobs_bit_identical_to_serial() {
        let world = World::tiny(121);
        let mut cfg = CampaignConfig::small(121);
        cfg.fault_plan = FaultPlan::uniform(7, 0.02);
        let serial = Campaign::new(&world, cfg.clone()).runner().run().unwrap();
        assert!(!serial.fault_log.is_empty());
        for jobs in [2, 4] {
            let mut pcfg = cfg.clone();
            pcfg.jobs = jobs;
            let par = Campaign::new(&world, pcfg).runner().run().unwrap();
            assert_eq!(serial.tests_run, par.tests_run, "jobs={jobs}");
            assert_eq!(serial.db.points_written, par.db.points_written);
            assert_eq!(serial.db.series_count(), par.db.series_count());
            assert_eq!(serial.vm_count, par.vm_count);
            assert_eq!(serial.raw_objects, par.raw_objects);
            assert_eq!(serial.fault_log, par.fault_log, "fault ids rebase exactly");
            assert_eq!(serial.completeness, par.completeness);
            // Every intermediate checkpoint — counters, billing (f64
            // meters included), raw snapshots — is byte-identical.
            assert_eq!(serial.checkpoints.len(), par.checkpoints.len());
            for (a, b) in serial.checkpoints.iter().zip(&par.checkpoints) {
                assert_eq!(
                    serde_json::to_string(a),
                    serde_json::to_string(b),
                    "jobs={jobs}"
                );
            }
        }
    }

    /// FNV-1a over a canonical encoding of every series in the
    /// snapshot: key, then each sample's time and `(name, value-bits)`
    /// pairs in schema order. Any reordering or numeric drift in the
    /// stored data changes this fingerprint.
    fn snapshot_fingerprint(snap: &tsdb::Snapshot) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for b in bytes {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        for s in snap.series() {
            eat(s.key().as_bytes());
            eat(&[0]);
            for (t, fields) in s.samples() {
                eat(&t.to_le_bytes());
                for (name, v) in fields.iter() {
                    eat(name.as_bytes());
                    eat(&v.to_bits().to_le_bytes());
                }
            }
        }
        h
    }

    #[test]
    fn tsdb_snapshot_bytes_are_pinned() {
        // Campaign output is a contract: the exact bytes the tsdb holds
        // after the pinned small campaign must not drift under perf
        // work (streaming ingest, field-set interning, arena reuse all
        // feed this store). The constant below is the fingerprint of
        // the seed implementation's output — update it ONLY for a
        // deliberate, reviewed change to campaign semantics.
        let world = World::tiny(121);
        let mut serial = Campaign::new(&world, CampaignConfig::small(121))
            .runner()
            .run()
            .unwrap();
        let got = snapshot_fingerprint(&serial.db.snapshot());
        const PINNED: u64 = 0x988c_808f_21d4_8ac3;
        assert_eq!(
            got, PINNED,
            "tsdb snapshot bytes drifted: got {got:#018x}, pinned {PINNED:#018x}"
        );
        // And the parallel path lands on the same bytes.
        let mut pcfg = CampaignConfig::small(121);
        pcfg.jobs = 4;
        let mut par = Campaign::new(&world, pcfg).runner().run().unwrap();
        assert_eq!(snapshot_fingerprint(&par.db.snapshot()), PINNED);
    }

    #[test]
    fn parallel_resumes_serial_checkpoint() {
        let world = World::tiny(121);
        let mut cfg = CampaignConfig::small(121);
        cfg.fault_plan = FaultPlan::uniform(5, 0.02);
        let full = Campaign::new(&world, cfg.clone()).runner().run().unwrap();
        let mut pcfg = cfg;
        pcfg.jobs = 4;
        let resumed = Campaign::new(&world, pcfg)
            .runner()
            .resume_from(&full.checkpoints[0])
            .run()
            .unwrap();
        assert_eq!(full.tests_run, resumed.tests_run);
        assert_eq!(full.fault_log, resumed.fault_log);
        assert_eq!(
            serde_json::to_string(full.checkpoints.last().unwrap()),
            serde_json::to_string(resumed.checkpoints.last().unwrap()),
        );
    }

    /// `text` parsed, with `edit` applied to the object at `path` (keys,
    /// and indices into arrays).
    fn edited(
        text: &str,
        path: &[&str],
        edit: impl FnOnce(&mut serde_json::Map),
    ) -> serde_json::Value {
        use serde_json::Value;
        let mut doc = serde_json::from_str(text).unwrap();
        let mut at = &mut doc;
        for step in path {
            at = match at {
                Value::Object(m) => m.get_mut(*step).unwrap(),
                Value::Array(a) => &mut a[step.parse::<usize>().unwrap()],
                other => panic!("{step:?} in {other:?}"),
            };
        }
        let Value::Object(m) = at else {
            panic!("{path:?} is not an object")
        };
        edit(m);
        doc
    }

    #[test]
    fn resume_rejects_malformed_checkpoints() {
        let world = World::tiny(121);
        let campaign = Campaign::new(&world, CampaignConfig::small(121));
        let bad = serde_json::from_str("{}").unwrap();
        assert!(campaign.runner().resume_from(&bad).run().is_err());

        // A parsed checkpoint resumes to the same bytes...
        let full = campaign.runner().run().unwrap();
        let text = serde_json::to_string(&full.checkpoints[0]);
        let parsed = serde_json::from_str(&text).unwrap();
        let resumed = campaign.runner().resume_from(&parsed).run().unwrap();
        assert_eq!(
            serde_json::to_string(resumed.checkpoints.last().unwrap()),
            serde_json::to_string(full.checkpoints.last().unwrap())
        );
        // ...and every field it is resumed from is required: one missing
        // or mistyped is an error, not a zero or a dropped entry.
        let mut cases = Vec::new();
        for k in ["vm_count", "tests_run", "tainted"] {
            cases.push((k, edited(&text, &["counters"], |m| drop(m.remove(k)))));
        }
        cases.push((
            "completed",
            edited(&text, &[], |m| {
                if let Some(serde_json::Value::Array(c)) = m.get_mut("completed") {
                    c.push(7u64.into());
                }
            }),
        ));
        for k in [
            "premium_egress_bytes",
            "standard_egress_bytes",
            "ingress_bytes",
            "vm_hours_n1",
            "vm_hours_n2",
            "storage_byte_hours",
        ] {
            cases.push((k, edited(&text, &["billing"], |m| drop(m.remove(k)))));
        }
        cases.push((
            "uploaded",
            edited(&text, &["raw", "0", "objects", "0"], |m| {
                drop(m.remove("uploaded"))
            }),
        ));
        // The fault log's numbers are required too: a faulted run's
        // checkpoint loses one field of its first fault with each outcome.
        let mut cfg = CampaignConfig::small(121);
        cfg.fault_plan = FaultPlan::uniform(7, 0.02);
        let faulted = Campaign::new(&world, cfg);
        let ftext =
            serde_json::to_string(faulted.runner().run().unwrap().checkpoints.last().unwrap());
        let fdoc = serde_json::from_str(&ftext).unwrap();
        let first = |outcome: &str| {
            let faults = fdoc.get("fault_log").and_then(|v| v.as_array()).unwrap();
            let i = faults
                .iter()
                .position(|f| f.get("outcome").and_then(|v| v.as_str()) == Some(outcome))
                .unwrap_or_else(|| panic!("no {outcome} fault"));
            i.to_string()
        };
        for (field, outcome) in [
            ("time", "recovered"),
            ("retries", "recovered"),
            ("recovered_at", "recovered"),
            ("s_hours", "lost"),
        ] {
            let at = first(outcome);
            cases.push((
                field,
                edited(&ftext, &["fault_log", &at], |m| drop(m.remove(field))),
            ));
        }
        for (field, ckpt) in &cases {
            let err = campaign.runner().resume_from(ckpt).run().err();
            assert!(err.is_some(), "a checkpoint without {field} resumed");
        }
    }

    /// Strips the observer-only checkpoint section, leaving the format
    /// an un-observed run produces.
    fn without_obs(ckpt: &serde_json::Value) -> serde_json::Value {
        let mut c = ckpt.clone();
        if let serde_json::Value::Object(m) = &mut c {
            m.remove("obs");
        }
        c
    }

    #[test]
    fn observer_leaves_results_bit_identical() {
        let world = World::tiny(121);
        let mut cfg = CampaignConfig::small(121);
        cfg.fault_plan = FaultPlan::uniform(7, 0.02);
        let plain = Campaign::new(&world, cfg.clone()).runner().run().unwrap();
        let obs = Observer::new();
        let observed = Campaign::new(&world, cfg)
            .runner()
            .observer(&obs)
            .run()
            .unwrap();
        assert_eq!(plain.tests_run, observed.tests_run);
        assert_eq!(plain.fault_log, observed.fault_log);
        assert_eq!(plain.completeness, observed.completeness);
        // Checkpoints differ only by the observed run's "obs" section.
        assert_eq!(plain.checkpoints.len(), observed.checkpoints.len());
        for (a, b) in plain.checkpoints.iter().zip(&observed.checkpoints) {
            assert!(b.get("obs").is_some(), "observed checkpoints carry obs");
            assert_eq!(
                serde_json::to_string(a),
                serde_json::to_string(&without_obs(b)),
            );
        }
        // The execution counters reconcile against the result.
        let m = obs.metrics();
        assert_eq!(m.counter("exec.tests_executed"), observed.tests_run);
        assert_eq!(m.counter("exec.tests_tainted"), observed.tainted_tests);
        assert_eq!(m.counter("ingest.objects"), observed.raw_objects);
        assert_eq!(m.counter("ingest.points"), observed.db.points_written);
        assert_eq!(m.counter("prep.units"), 2);
        let topo_sel = &observed.topo_selections[0];
        assert_eq!(m.counter("prep.pilot_flows"), topo_sel.pilot_flows);
        assert_eq!(m.counter("prep.pilot_paths"), topo_sel.pilot_paths);
        assert!(topo_sel.pilot_paths > 0 && topo_sel.pilot_paths < topo_sel.pilot_flows);
        assert_eq!(
            m.counter("prep.pretest_probes"),
            observed.diff_selections[0].pretest_probes
        );
        let queue_series = observed.diff_selections[0].pretest_queue_series;
        assert_eq!(m.counter("prep.pretest_queue_series"), queue_series);
        assert!(queue_series > 0);
        // Spans: campaign root + three phases, clock strictly advanced.
        let spans = obs.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].name, "campaign");
        assert!(obs.now() > 0);
        assert_eq!(spans[0].end, obs.now());
    }

    #[test]
    fn observed_metrics_identical_across_jobs_and_resume() {
        let world = World::tiny(121);
        let mut cfg = CampaignConfig::small(121);
        cfg.fault_plan = FaultPlan::uniform(7, 0.02);
        let telemetry = |jobs: usize, ckpt: Option<&serde_json::Value>| {
            let obs = Observer::new();
            let mut pcfg = cfg.clone();
            pcfg.jobs = jobs;
            let campaign = Campaign::new(&world, pcfg);
            let mut runner = campaign.runner().observer(&obs);
            if let Some(c) = ckpt {
                runner = runner.resume_from(c);
            }
            let result = runner.run().unwrap();
            (obs.metrics_string(), obs.trace_string(), result)
        };
        let (metrics, trace, full) = telemetry(1, None);
        for jobs in [2, 8] {
            let (m, t, _) = telemetry(jobs, None);
            assert_eq!(m, metrics, "metrics, jobs={jobs}");
            assert_eq!(t, trace, "trace, jobs={jobs}");
        }
        // Resuming an observed checkpoint at a different job count
        // reproduces the identical telemetry.
        let (m, t, _) = telemetry(4, Some(&full.checkpoints[0]));
        assert_eq!(m, metrics, "metrics across resume");
        assert_eq!(t, trace, "trace across resume");
    }

    #[test]
    fn campaign_objects_never_take_the_decode_fallback() {
        // Every line a campaign uploads is read in place by
        // `Db::ingest_lines`, at any job count and on resume.
        let world = World::tiny(121);
        let mut cfg = CampaignConfig::small(121);
        cfg.fault_plan = FaultPlan::uniform(7, 0.02);
        let full = Campaign::new(&world, cfg.clone()).runner().run().unwrap();
        for (jobs, ckpt) in [(1, None), (4, None), (1, Some(&full.checkpoints[0]))] {
            let obs = Observer::new();
            let campaign = Campaign::new(&world, cfg.clone());
            let mut runner = campaign.runner().jobs(jobs).observer(&obs);
            if let Some(c) = ckpt {
                runner = runner.resume_from(c);
            }
            let result = runner.run().unwrap();
            let m = obs.metrics();
            assert!(result.db.points_written > 0);
            assert_eq!(m.counter("ingest.points"), result.db.points_written);
            assert_eq!(m.counter("ingest.fallback_lines"), 0, "jobs={jobs}");
        }
    }

    #[test]
    fn unknown_region_is_an_error_in_every_mode() {
        let world = World::tiny(121);
        let mut cfg = CampaignConfig::small(121);
        cfg.topo_regions = vec![("mars-north1".into(), 5)];
        let campaign = Campaign::new(&world, cfg);
        let obs = Observer::new();
        for (jobs, observer) in [(1, None), (4, None), (1, Some(&obs))] {
            let mut runner = campaign.runner().jobs(jobs);
            if let Some(o) = observer {
                runner = runner.observer(o);
            }
            let err = runner.run().err().expect("unknown region fails the run");
            assert_eq!(err, "campaign: unknown region mars-north1", "jobs={jobs}");
        }
    }

    #[test]
    fn runner_jobs_override_matches_config_jobs() {
        let world = World::tiny(121);
        let cfg = CampaignConfig::small(121);
        let via_config = {
            let mut c = cfg.clone();
            c.jobs = 4;
            Campaign::new(&world, c).runner().run().unwrap()
        };
        let via_builder = Campaign::new(&world, cfg).runner().jobs(4).run().unwrap();
        assert_eq!(
            serde_json::to_string(via_config.checkpoints.last().unwrap()),
            serde_json::to_string(via_builder.checkpoints.last().unwrap()),
        );
    }

    #[test]
    fn cron_faults_shift_the_hour_keeping_its_order() {
        // A skewed tick runs `s` seconds late and a tick the watchdog
        // re-fires at attempt `a` runs `a × 600` seconds late; either
        // way every test keeps its place in the nominal hour's order.
        let world = World::tiny(121);
        let mut cfg = CampaignConfig::small(121);
        cfg.days = 2;
        cfg.diff_days = 1;
        let mut skew = FaultPlan::none();
        skew.rates.cron_skew = 1.0;
        skew.rates.max_skew_s = 1;
        let mut miss = FaultPlan::none();
        miss.scheduled.push(faultsim::ScheduledFault {
            kind: FaultKind::CronMiss,
            start_hour: 0,
            duration_hours: 24 * cfg.days,
            region: None,
            vm: None,
        });
        let run = |plan: FaultPlan| {
            let mut c = cfg.clone();
            c.fault_plan = plan;
            let mut result = Campaign::new(&world, c).runner().run().unwrap();
            assert_eq!(result.completeness.total_missing(), 0);
            let snap = result.db.snapshot();
            let times = |s: &tsdb::SeriesSnap| s.samples().iter().map(|(t, _)| *t).collect();
            snap.series()
                .map(|s| (s.key().to_string(), times(s)))
                .collect::<Vec<(String, Vec<u64>)>>()
        };
        let on_time = run(FaultPlan::none());
        assert!(!on_time.is_empty());
        for (plan, late) in [(skew, 1), (miss, 600)] {
            let shifted: Vec<_> = on_time
                .iter()
                .map(|(key, times)| (key.clone(), times.iter().map(|t| t + late).collect()))
                .collect();
            assert_eq!(run(plan), shifted, "{late} s late");
        }
    }

    #[test]
    fn resume_without_a_units_raw_data_fails_before_any_work() {
        use serde_json::Value;
        let world = World::tiny(121);
        let campaign = Campaign::new(&world, CampaignConfig::small(121));
        let full = campaign.runner().run().unwrap();
        let mut ckpt =
            serde_json::from_str(&serde_json::to_string(full.checkpoints.last().unwrap())).unwrap();
        if let Value::Object(m) = &mut ckpt {
            if let Some(Value::Array(raw)) = m.get_mut("raw") {
                raw.pop();
            }
        }
        let mut engine = campaign.stream_engine(clasp_stream::EngineConfig::paper());
        let err = campaign
            .runner()
            .resume_from(&ckpt)
            .streaming(&mut engine)
            .run()
            .err()
            .expect("a completed unit without its raw data resumed");
        assert!(err.contains("\"diff:europe-west1\""), "{err}");
        assert_eq!(engine.events_seen(), 0, "the failed run fed the engine");
    }

    #[test]
    fn state_round_trips_at_every_cut() {
        let world = World::tiny(121);
        let mut cfg = CampaignConfig::small(121);
        cfg.fault_plan = FaultPlan::uniform(7, 0.02);
        let obs = Observer::new();
        let full = Campaign::new(&world, cfg.clone())
            .runner()
            .observer(&obs)
            .run()
            .unwrap();
        for c in &full.checkpoints {
            let text = serde_json::to_string(c);
            let parsed = serde_json::from_str(&text).unwrap();
            for from in [c, &parsed] {
                let state = CampaignState::from_checkpoint(Some(from), &cfg.fault_plan).unwrap();
                assert_eq!(serde_json::to_string(&state.checkpoint(true)), text);
            }
        }
    }
}

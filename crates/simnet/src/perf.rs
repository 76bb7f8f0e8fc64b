//! Path performance: loss, queueing delay, and fluid TCP throughput.
//!
//! The longitudinal campaign needs the achieved throughput of a
//! multi-connection TCP bulk transfer over a given path at a given
//! instant, ~1.6 million times. Packet-level simulation (the `simtcp`
//! crate) is far too slow for that, so the campaign uses this fluid
//! model; an integration test cross-validates the two on identical paths.
//!
//! The model composes three effects per path segment:
//!
//! * **base loss** — a stable per-segment random loss floor. US cloud
//!   edges are nearly lossless; international edges are drawn bimodally,
//!   with a lossy mode reproducing the paper's ">10 % average loss on the
//!   premium tier to eight targets" finding (§4.1);
//! * **utilization-driven loss and queueing** — from the diurnal
//!   [`LoadModel`]: once background utilization approaches capacity, loss
//!   rises steeply and buffers fill;
//! * **TCP dynamics** — aggregate throughput of `n` parallel connections
//!   follows the Mathis model `MSS/RTT · sqrt(3/2) / sqrt(p)`, capped by
//!   the bottleneck's available bandwidth and the VM NIC rate limit
//!   (`tc`-style, 1 Gbps down / 100 Mbps up in the paper).

use crate::load::{DiurnalBasis, LoadModel};
use crate::routing::{load_key, RouterPath, Segment, SegmentKind};
use crate::time::SimTime;
use crate::topology::{CongestionClass, LinkId, Topology};
use std::collections::HashMap;

/// Parameters of one bulk-transfer measurement flow.
#[derive(Debug, Clone, Copy)]
pub struct FlowSpec {
    /// Parallel TCP connections (Ookla-style tests use up to 8).
    pub n_connections: u32,
    /// Maximum segment size in bytes.
    pub mss_bytes: u32,
    /// NIC rate limit in Mbps in the data direction (`tc` on the VM).
    pub nic_limit_mbps: f64,
}

impl FlowSpec {
    /// The paper's download configuration: 8 connections, 1 Gbps cap.
    pub fn download() -> Self {
        Self {
            n_connections: 8,
            mss_bytes: 1448,
            nic_limit_mbps: 1000.0,
        }
    }

    /// The paper's upload configuration: 8 connections, 100 Mbps cap.
    pub fn upload() -> Self {
        Self {
            n_connections: 8,
            mss_bytes: 1448,
            nic_limit_mbps: 100.0,
        }
    }
}

/// Evaluated performance of a path pair at one instant.
#[derive(Debug, Clone, Copy)]
pub struct PathPerf {
    /// Achieved aggregate throughput, Mbps.
    pub throughput_mbps: f64,
    /// Round-trip time including queueing, ms.
    pub rtt_ms: f64,
    /// End-to-end loss rate on the data direction.
    pub loss_rate: f64,
    /// Available bandwidth at the tightest data-direction segment, Mbps.
    pub bottleneck_mbps: f64,
}

/// A deliberate degradation of one interdomain link, active over a
/// half-open window `[start_s, end_s)` of simulation time.
///
/// Degradations model operator-visible interconnect failures — a cut
/// LAG member (capacity), a dirty optic (loss), a re-routed underlay
/// (delay) — on top of the diurnal [`LoadModel`]. An empty degradation
/// set is bitwise invisible: every path evaluation takes exactly the
/// code path it took before this hook existed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkDegradation {
    /// The interdomain link affected.
    pub link: LinkId,
    /// Window start, seconds of simulation time (inclusive).
    pub start_s: u64,
    /// Window end, seconds of simulation time (exclusive).
    pub end_s: u64,
    /// Multiplier on the link's capacity (`1.0` = untouched).
    pub capacity_factor: f64,
    /// Additive loss-rate floor (`0.0` = untouched).
    pub loss_floor: f64,
    /// Additive one-way delay per traversal, ms (`0.0` = untouched).
    pub added_delay_ms: f64,
}

impl LinkDegradation {
    /// Whether the window covers instant `t`.
    pub fn active_at(&self, t: SimTime) -> bool {
        let s = t.as_secs();
        self.start_s <= s && s < self.end_s
    }
}

/// One segment of a [`CompiledPath`]: the per-segment values that are
/// pure functions of topology and path, hoisted out of the per-test
/// loop (the campaign evaluates each path ~10⁴ times).
#[derive(Debug, Clone, Copy)]
struct CompiledSeg {
    /// Segment kind (degradations key off `CloudEdge`).
    kind: SegmentKind,
    /// Capacity in Gbps (data direction).
    capacity_gbps: f64,
    /// Congestion behaviour.
    congestion: CongestionClass,
    /// Load-noise identity.
    load_key: u64,
    /// Local UTC offset of the segment's anchor city, hours.
    utc_offset: i32,
    /// Precomputed [`PerfModel::base_loss`] (time-invariant).
    base_loss: f64,
    /// Precomputed queue ceiling for the segment kind, ms.
    q_max: f64,
    /// The congestion class's peak utilization is below
    /// [`QUEUE_ONSET`], so the segment never queues.
    idle: bool,
}

/// A path pre-compiled for repeated evaluation: per-segment statics
/// resolved once, so the hot loop touches no city tables and computes
/// each segment's utilization exactly once per instant.
///
/// Produced by [`PerfModel::compile`]; consumed by [`PerfModel::eval`]
/// and [`PerfModel::eval_queue_ms`]. Compilation also marks *idle*
/// segments, whose congestion class peaks below the queue onset
/// ([`LoadModel::peak_utilization`]); `eval_queue_ms` skips them. Most
/// segments of a vantage-point path are idle. Compilation depends only
/// on the topology and the path — never on the load seed, the instant,
/// or installed degradations — so a compiled path can be cached for the
/// lifetime of the path itself.
#[derive(Debug, Clone)]
pub struct CompiledPath {
    /// Total one-way propagation + processing latency, ms (copied from
    /// [`RouterPath::oneway_ms`]).
    pub oneway_ms: f64,
    segs: Vec<CompiledSeg>,
}

/// The three per-(path, instant) aggregates a test needs, from one
/// fused pass over the segments (see [`PerfModel::eval`]).
#[derive(Debug, Clone, Copy)]
pub struct PathEval {
    /// Total queueing delay, ms — bit-identical to
    /// [`PerfModel::path_queue_ms`].
    pub queue_ms: f64,
    /// End-to-end loss — bit-identical to [`PerfModel::path_loss`].
    pub loss: f64,
    /// Tightest available bandwidth, Mbps — bit-identical to
    /// [`PerfModel::bottleneck_mbps`].
    pub bottleneck_mbps: f64,
}

/// Performance model bound to a topology and a load model.
pub struct PerfModel<'t> {
    topo: &'t Topology,
    load: LoadModel,
    /// Active link degradations, held in canonical
    /// `(link, start_s, end_s)` order so evaluation order never
    /// depends on insertion order.
    degradations: Vec<LinkDegradation>,
}

/// Loss floor so the Mathis term stays finite on pristine paths.
const MIN_LOSS: f64 = 1.2e-5;

/// Utilization at which a segment's queue starts to fill.
pub(crate) const QUEUE_ONSET: f64 = 0.45;

/// Per-offset [`DiurnalBasis`] memo for one instant: paths cross a
/// handful of time zones, so a pass computes each zone's two `exp`
/// bumps once. Past eight zones it recomputes (same inputs, same bits).
struct BasisCache {
    t: SimTime,
    slots: [(i32, DiurnalBasis); 8],
    n: usize,
}

/// Filler for unused [`BasisCache`] slots; never read.
const NO_BASIS: (i32, DiurnalBasis) = (
    i32::MIN,
    DiurnalBasis {
        local_day: 0,
        hour_bucket: 0,
        weekend: false,
        evening: 0.0,
        daytime: 0.0,
    },
);

impl BasisCache {
    fn new(t: SimTime) -> Self {
        Self {
            t,
            slots: [NO_BASIS; 8],
            n: 0,
        }
    }

    #[inline]
    fn get(&mut self, utc_offset: i32) -> DiurnalBasis {
        if let Some((_, b)) = self
            .slots
            .iter()
            .take(self.n)
            .find(|(o, _)| *o == utc_offset)
        {
            return *b;
        }
        let b = DiurnalBasis::at(self.t, utc_offset);
        if let Some(slot) = self.slots.get_mut(self.n) {
            *slot = (utc_offset, b);
            self.n += 1;
        }
        b
    }
}

/// Whether [`PerfModel::eval_queue_ms`] skips `seg`: an idle segment's
/// term is `+0.0`, except on a cloud edge while degradations are
/// installed, where it may carry `added_delay_ms`.
#[inline]
fn skips_queue(seg: &CompiledSeg, degraded: bool) -> bool {
    seg.idle && !(degraded && matches!(seg.kind, SegmentKind::CloudEdge(_)))
}

/// [`PerfModel::idle_rtt_ms_eval`] at one fixed list of instants, for
/// many paths that share segments.
///
/// Each distinct segment's queueing term is computed once per instant
/// and kept; a path's queue at an instant then sums its segments' kept
/// terms in path order. Those are the terms `eval_queue_ms` computes,
/// added in the same order and with the same skip rule, so every result
/// has the same bits. A segment is known by every input of its term —
/// load key, congestion class, UTC offset, queue ceiling and kind (the
/// kind decides degradations) — and the instants are fixed for the
/// series' life, as are the model's degradations, which it borrows.
/// The differential pre-test sends every vantage point's paths into one
/// region across a shared core: in the paper world's three differential
/// regions its paths cross a queueing segment 20,117 times, and 3,993
/// of those segments are distinct.
pub struct QueueSeries<'p, 't> {
    perf: &'p PerfModel<'t>,
    instants: Vec<SimTime>,
    /// `(UTC offset, diurnal basis at each instant)`, per offset seen.
    bases: Vec<(i32, Vec<DiurnalBasis>)>,
    /// Each segment's row in `terms`.
    rows: HashMap<TermKey, usize>,
    /// Row `r` holds one segment's term at each instant, at
    /// `terms[r * instants.len()..][..instants.len()]`.
    terms: Vec<f64>,
    /// The reverse path's queues, while [`Self::idle_rtt_ms`] sums.
    rev: Vec<f64>,
}

/// Every input of a segment's queueing term but the instant.
#[derive(PartialEq, Eq, Hash)]
struct TermKey {
    load_key: u64,
    congestion: CongestionClass,
    utc_offset: i32,
    q_max_bits: u64,
    kind: SegmentKind,
}

impl QueueSeries<'_, '_> {
    /// Distinct segments whose terms the series has computed.
    pub fn distinct_segments(&self) -> u64 {
        self.rows.len() as u64
    }

    /// Fills `out` with `perf.idle_rtt_ms_eval(fwd, rev, t)` for each
    /// instant `t`, in order.
    pub fn idle_rtt_ms(&mut self, fwd: &CompiledPath, rev: &CompiledPath, out: &mut Vec<f64>) {
        let mut rq = std::mem::take(&mut self.rev);
        self.queue_ms(fwd, out);
        self.queue_ms(rev, &mut rq);
        for (q, r) in out.iter_mut().zip(&rq) {
            *q = fwd.oneway_ms + rev.oneway_ms + *q + r;
        }
        self.rev = rq;
    }

    /// Fills `out` with `perf.eval_queue_ms(path, t)` for each instant.
    fn queue_ms(&mut self, path: &CompiledPath, out: &mut Vec<f64>) {
        let n = self.instants.len();
        out.clear();
        out.resize(n, 0.0);
        let degraded = !self.perf.degradations.is_empty();
        for seg in &path.segs {
            if skips_queue(seg, degraded) {
                continue;
            }
            let row = self.term_row(seg, degraded) * n;
            for (q, term) in out.iter_mut().zip(&self.terms[row..row + n]) {
                *q += term;
            }
        }
    }

    /// The row of `seg`'s terms, computed on first sight.
    fn term_row(&mut self, seg: &CompiledSeg, degraded: bool) -> usize {
        let key = TermKey {
            load_key: seg.load_key,
            congestion: seg.congestion,
            utc_offset: seg.utc_offset,
            q_max_bits: seg.q_max.to_bits(),
            kind: seg.kind,
        };
        let next = self.rows.len();
        let row = *self.rows.entry(key).or_insert(next);
        if row == next {
            let b = match self.bases.iter().position(|(o, _)| *o == seg.utc_offset) {
                Some(b) => b,
                None => {
                    let at = |&t: &SimTime| DiurnalBasis::at(t, seg.utc_offset);
                    let bases = self.instants.iter().map(at).collect();
                    self.bases.push((seg.utc_offset, bases));
                    self.bases.len() - 1
                }
            };
            let perf = self.perf;
            let terms = self.instants.iter().zip(&self.bases[b].1);
            self.terms
                .extend(terms.map(|(&t, basis)| perf.queue_term(seg, basis, t, degraded)));
        }
        row
    }
}

impl<'t> PerfModel<'t> {
    /// Creates a performance model.
    pub fn new(topo: &'t Topology, load: LoadModel) -> Self {
        Self {
            topo,
            load,
            degradations: Vec::new(),
        }
    }

    /// Installs the set of link degradations, replacing any previous
    /// set. The list is sorted into canonical order internally, so
    /// callers may pass it in any order.
    pub fn set_degradations(&mut self, mut degradations: Vec<LinkDegradation>) {
        degradations.sort_by_key(|d| (d.link.0, d.start_s, d.end_s));
        self.degradations = degradations;
    }

    /// The installed link degradations, in canonical order.
    pub fn degradations(&self) -> &[LinkDegradation] {
        &self.degradations
    }

    /// Combined degradation effect on `seg` at `t`:
    /// `(capacity_factor, loss_floor, added_delay_ms)`. `None` when the
    /// segment is not a degraded cloud edge — the common case, kept
    /// allocation- and float-op-free so an empty set changes nothing.
    fn degrade(&self, seg: &Segment, t: SimTime) -> Option<(f64, f64, f64)> {
        self.degrade_kind(seg.kind, t)
    }

    /// [`Self::degrade`] keyed by segment kind alone (the only field it
    /// reads) — shared with the compiled-path evaluation.
    fn degrade_kind(&self, kind: SegmentKind, t: SimTime) -> Option<(f64, f64, f64)> {
        if self.degradations.is_empty() {
            return None;
        }
        let SegmentKind::CloudEdge(link) = kind else {
            return None;
        };
        let mut hit = false;
        let (mut cap, mut loss, mut delay) = (1.0, 0.0, 0.0);
        for d in &self.degradations {
            if d.link == link && d.active_at(t) {
                hit = true;
                cap *= d.capacity_factor;
                loss += d.loss_floor;
                delay += d.added_delay_ms;
            }
        }
        hit.then_some((cap, loss, delay))
    }

    /// The load model in use.
    pub fn load_model(&self) -> &LoadModel {
        &self.load
    }

    /// Stable base loss of a segment (no time dependence).
    pub fn base_loss(&self, seg: &Segment) -> f64 {
        let u = |salt: u64| {
            let h = load_key(b"baseloss", seg.load_key, salt);
            (h >> 11) as f64 / (1u64 << 53) as f64
        };
        let city = self.topo.cities.get(seg.city);
        let is_us = city.country == "US";
        // Far, chronically oversubscribed markets during the pandemic —
        // the Vortex/Joister (India) and Telstra (Australia) stories.
        let is_far = matches!(city.country, "IN" | "AU" | "BR" | "SG" | "JP");
        match seg.kind {
            SegmentKind::CloudFabric | SegmentKind::CloudWan => 2.0e-6,
            SegmentKind::CloudEdge(_) => {
                // Quiet datacenter-town PoPs (the region host cities) are
                // nearly lossless; metro eyeball PoPs carry the full
                // cloud-bound load of their market. Premium ingress
                // crosses the metro PoPs (near the source), standard
                // ingress the quiet region PoPs — which is exactly why
                // the standard tier ends up slightly faster (§4.1).
                if city.weight < 1.0 {
                    6.0e-6 + 2.5e-5 * u(1)
                } else if is_us {
                    1.0e-5 + 8.0e-5 * u(1)
                } else if is_far && u(2) < 0.70 {
                    // The lossy mode: the ">10% premium loss" targets.
                    0.09 + 0.14 * u(3)
                } else if is_far {
                    0.01 + 0.03 * u(3)
                } else {
                    // European PoPs behave like US metros.
                    1.5e-5 + 1.5e-4 * u(3)
                }
            }
            SegmentKind::AsEdge(_) => {
                if is_us {
                    1.5e-5 + 8.0e-5 * u(4)
                } else if is_far {
                    0.008 + 0.035 * u(4)
                } else {
                    3.0e-5 + 2.5e-4 * u(4)
                }
            }
            SegmentKind::AsInternal(_) => {
                if is_us {
                    1.5e-5 + 6.0e-5 * u(5)
                } else if is_far {
                    0.004 + 0.014 * u(5)
                } else {
                    3.0e-5 + 2.0e-4 * u(5)
                }
            }
            SegmentKind::ServerAccess => 8.0e-6 + 3.0e-5 * u(6),
        }
    }

    /// Hour-level multiplicative wobble on base loss, `[0.65, 1.55]`.
    /// This gives even clean paths the intra-day variability the paper
    /// observes (at H = 0.25 the vast majority of s-days exceed the
    /// threshold, Fig. 2a).
    fn loss_noise(&self, seg: &Segment, t: SimTime) -> f64 {
        let h = load_key(
            b"lossnoise",
            self.load.seed() ^ seg.load_key,
            t.hour_index(),
        );
        let x = (h >> 11) as f64 / (1u64 << 53) as f64;
        0.65 + 0.90 * x
    }

    /// Loss contribution of utilization `u`.
    fn util_loss(u: f64) -> f64 {
        if u <= 0.85 {
            0.0
        } else if u <= 1.0 {
            let x = (u - 0.85) / 0.15;
            0.012 * x * x
        } else {
            (0.012 + 0.55 * (u - 1.0)).min(0.5)
        }
    }

    /// Queue ceiling for a segment kind, ms.
    fn q_max_of(kind: SegmentKind) -> f64 {
        match kind {
            SegmentKind::CloudFabric | SegmentKind::CloudWan => 1.2,
            SegmentKind::CloudEdge(_) => 12.0,
            SegmentKind::AsEdge(_) => 12.0,
            SegmentKind::AsInternal(_) => 16.0,
            SegmentKind::ServerAccess => 20.0,
        }
    }

    /// Queueing delay at utilization `u` for a segment kind, ms.
    fn queue_ms(kind: SegmentKind, u: f64) -> f64 {
        let q_max = Self::q_max_of(kind);
        let x = ((u - QUEUE_ONSET) / 0.55).clamp(0.0, 1.0);
        q_max * x * x * x
    }

    fn seg_utilization(&self, seg: &Segment, t: SimTime) -> f64 {
        let offset = self.topo.cities.get(seg.city).utc_offset_hours;
        self.load.utilization(seg, offset, t)
    }

    /// Per-segment loss rate at time `t`.
    pub fn segment_loss(&self, seg: &Segment, t: SimTime) -> f64 {
        let u = self.seg_utilization(seg, t);
        match self.degrade(seg, t) {
            None => (self.base_loss(seg) * self.loss_noise(seg, t) + Self::util_loss(u)).min(0.6),
            // A capacity cut squeezes the same background demand into
            // less supply, so the utilization-loss term sees the
            // *effective* utilization; a loss floor adds directly.
            Some((cap, loss_floor, _)) => {
                let eff_u = if cap > 0.0 { u / cap } else { 2.0 };
                (self.base_loss(seg) * self.loss_noise(seg, t)
                    + Self::util_loss(eff_u)
                    + loss_floor)
                    .min(0.6)
            }
        }
    }

    /// End-to-end loss of a unidirectional path at time `t`.
    pub fn path_loss(&self, path: &RouterPath, t: SimTime) -> f64 {
        let mut pass = 1.0;
        for seg in &path.segments {
            pass *= 1.0 - self.segment_loss(seg, t);
        }
        (1.0 - pass).max(MIN_LOSS)
    }

    /// Total queueing delay along a unidirectional path at `t`, ms.
    /// Degraded links add their extra one-way delay per traversal.
    pub fn path_queue_ms(&self, path: &RouterPath, t: SimTime) -> f64 {
        path.segments
            .iter()
            .map(|seg| {
                let q = Self::queue_ms(seg.kind, self.seg_utilization(seg, t));
                match self.degrade(seg, t) {
                    None => q,
                    Some((_, _, delay)) => q + delay,
                }
            })
            .sum()
    }

    /// Available bandwidth of one segment at time `t`, Mbps.
    pub fn bottleneck_of_segment(&self, seg: &Segment, t: SimTime) -> f64 {
        let u = self.seg_utilization(seg, t);
        match self.degrade(seg, t) {
            None => seg.capacity_gbps * 1000.0 * (1.0 - u).max(0.015),
            // A capacity cut removes supply while background demand
            // stays: utilization rises by 1/factor before headroom is
            // taken, which is what makes cuts visible as congestion.
            Some((cap, _, _)) => {
                let cut_capacity = seg.capacity_gbps * cap.max(1.0e-3);
                let eff_u = if cap > 0.0 { u / cap } else { f64::INFINITY };
                cut_capacity * 1000.0 * (1.0 - eff_u).max(0.015)
            }
        }
    }

    /// Available bandwidth at the tightest segment of the data path, Mbps.
    pub fn bottleneck_mbps(&self, path: &RouterPath, t: SimTime) -> f64 {
        path.segments
            .iter()
            .map(|seg| self.bottleneck_of_segment(seg, t))
            .fold(f64::INFINITY, f64::min)
    }

    /// Round-trip time for data on `fwd` with ACKs returning on `rev`, ms.
    pub fn rtt_ms(&self, fwd: &RouterPath, rev: &RouterPath, t: SimTime) -> f64 {
        fwd.oneway_ms + rev.oneway_ms + self.path_queue_ms(fwd, t) + self.path_queue_ms(rev, t)
    }

    /// Ping-style RTT (no bulk data in flight) — same as [`Self::rtt_ms`];
    /// queueing from *background* traffic still applies.
    pub fn idle_rtt_ms(&self, fwd: &RouterPath, rev: &RouterPath, t: SimTime) -> f64 {
        self.rtt_ms(fwd, rev, t)
    }

    /// Achieved aggregate TCP throughput for a bulk transfer whose data
    /// flows along `fwd` (ACKs along `rev`) at time `t`.
    pub fn tcp_throughput(
        &self,
        fwd: &RouterPath,
        rev: &RouterPath,
        t: SimTime,
        spec: &FlowSpec,
    ) -> PathPerf {
        let rtt_ms = self.rtt_ms(fwd, rev, t);
        let loss = self.path_loss(fwd, t);
        let bottleneck = self.bottleneck_mbps(fwd, t);

        // Mathis et al.: per-connection rate = MSS/RTT * sqrt(3/2)/sqrt(p).
        let mss_bits = spec.mss_bytes as f64 * 8.0;
        let rtt_s = rtt_ms / 1000.0;
        let per_conn_mbps = (mss_bits / rtt_s) * (1.5f64).sqrt() / loss.sqrt() / 1.0e6;
        let mathis = per_conn_mbps * spec.n_connections as f64;

        let throughput = mathis.min(bottleneck).min(spec.nic_limit_mbps).max(0.05);
        PathPerf {
            throughput_mbps: throughput,
            rtt_ms,
            loss_rate: loss,
            bottleneck_mbps: bottleneck,
        }
    }

    /// Pre-resolves the per-segment statics of `path` for repeated
    /// evaluation. Pure function of topology and path (the load seed,
    /// instant, and degradations only enter at [`Self::eval`] time), so
    /// the result may be cached for the lifetime of the path.
    pub fn compile(&self, path: &RouterPath) -> CompiledPath {
        CompiledPath {
            oneway_ms: path.oneway_ms,
            segs: path
                .segments
                .iter()
                .map(|seg| CompiledSeg {
                    kind: seg.kind,
                    capacity_gbps: seg.capacity_gbps,
                    congestion: seg.congestion,
                    load_key: seg.load_key,
                    utc_offset: self.topo.cities.get(seg.city).utc_offset_hours,
                    base_loss: self.base_loss(seg),
                    q_max: Self::q_max_of(seg.kind),
                    idle: LoadModel::peak_utilization(seg.congestion) < QUEUE_ONSET,
                })
                .collect(),
        }
    }

    /// Fused single-pass evaluation of a compiled path at instant `t`.
    ///
    /// Bit-identical to calling [`Self::path_queue_ms`],
    /// [`Self::path_loss`], and [`Self::bottleneck_mbps`] on the source
    /// path: each accumulator still folds in segment order with the
    /// exact same per-segment terms — the pass merely computes each
    /// segment's utilization once instead of three times, and shares
    /// the two diurnal `exp` bumps across segments in the same time
    /// zone (the bump inputs are identical, so the values are too).
    pub fn eval(&self, path: &CompiledPath, t: SimTime) -> PathEval {
        let mut bases = BasisCache::new(t);
        let degraded = !self.degradations.is_empty();

        let mut pass = 1.0;
        let mut queue = 0.0;
        let mut bneck = f64::INFINITY;
        for seg in &path.segs {
            let basis = bases.get(seg.utc_offset);
            let u = self
                .load
                .utilization_with(seg.load_key, seg.congestion, &basis);
            let deg = if degraded {
                self.degrade_kind(seg.kind, t)
            } else {
                None
            };

            // Loss (matches `segment_loss`).
            let noise = {
                let h = load_key(
                    b"lossnoise",
                    self.load.seed() ^ seg.load_key,
                    t.hour_index(),
                );
                let x = (h >> 11) as f64 / (1u64 << 53) as f64;
                0.65 + 0.90 * x
            };
            let seg_loss = match deg {
                None => (seg.base_loss * noise + Self::util_loss(u)).min(0.6),
                Some((cap, loss_floor, _)) => {
                    let eff_u = if cap > 0.0 { u / cap } else { 2.0 };
                    (seg.base_loss * noise + Self::util_loss(eff_u) + loss_floor).min(0.6)
                }
            };
            pass *= 1.0 - seg_loss;

            // Queueing (matches `queue_ms` + degradation delay).
            let x = ((u - QUEUE_ONSET) / 0.55).clamp(0.0, 1.0);
            let q = seg.q_max * x * x * x;
            queue += match deg {
                None => q,
                Some((_, _, delay)) => q + delay,
            };

            // Bottleneck (matches `bottleneck_of_segment`).
            let b = match deg {
                None => seg.capacity_gbps * 1000.0 * (1.0 - u).max(0.015),
                Some((cap, _, _)) => {
                    let cut_capacity = seg.capacity_gbps * cap.max(1.0e-3);
                    let eff_u = if cap > 0.0 { u / cap } else { f64::INFINITY };
                    cut_capacity * 1000.0 * (1.0 - eff_u).max(0.015)
                }
            };
            bneck = bneck.min(b);
        }

        PathEval {
            queue_ms: queue,
            loss: (1.0 - pass).max(MIN_LOSS),
            bottleneck_mbps: bneck,
        }
    }

    /// Queue-only [`Self::eval`]: total queueing delay of a compiled
    /// path at `t`, ms, for probe-style callers that only need latency.
    ///
    /// Bit-identical to [`Self::path_queue_ms`] on the source path: the
    /// same per-segment terms fold in the same order, except that idle
    /// segments (see [`CompiledPath`]) are skipped outright. Their term
    /// is `q_max·0³ = +0.0`, and adding `+0.0` leaves the bits of any
    /// sum but `-0.0` unchanged. The running sum is never `-0.0`: it
    /// starts at `+0.0`, no queue term is `-0.0`, and an IEEE sum is
    /// `-0.0` only when both addends are. A cloud edge while
    /// degradations are installed is never skipped: its term may carry
    /// `added_delay_ms`.
    pub fn eval_queue_ms(&self, path: &CompiledPath, t: SimTime) -> f64 {
        let mut bases = BasisCache::new(t);
        let degraded = !self.degradations.is_empty();

        let mut queue = 0.0;
        for seg in &path.segs {
            if skips_queue(seg, degraded) {
                continue;
            }
            let basis = bases.get(seg.utc_offset);
            queue += self.queue_term(seg, &basis, t, degraded);
        }
        queue
    }

    /// One segment's queueing delay at `t`, ms, degradation delay
    /// included (matches `queue_ms` + degradation delay); `basis` is
    /// the diurnal basis of `t` at the segment's UTC offset.
    #[inline]
    fn queue_term(
        &self,
        seg: &CompiledSeg,
        basis: &DiurnalBasis,
        t: SimTime,
        degraded: bool,
    ) -> f64 {
        let u = self
            .load
            .utilization_with(seg.load_key, seg.congestion, basis);
        let deg = if degraded {
            self.degrade_kind(seg.kind, t)
        } else {
            None
        };
        let x = ((u - QUEUE_ONSET) / 0.55).clamp(0.0, 1.0);
        let q = seg.q_max * x * x * x;
        match deg {
            None => q,
            Some((_, _, delay)) => q + delay,
        }
    }

    /// A [`QueueSeries`] over `instants`.
    pub fn queue_series(&self, instants: Vec<SimTime>) -> QueueSeries<'_, 't> {
        QueueSeries {
            perf: self,
            instants,
            bases: Vec::new(),
            rows: HashMap::new(),
            terms: Vec::new(),
            rev: Vec::new(),
        }
    }

    /// [`Self::idle_rtt_ms`] over compiled paths — bit-identical (the
    /// four RTT terms sum in the same order, and each queue term comes
    /// from [`Self::eval_queue_ms`], which skips idle segments).
    pub fn idle_rtt_ms_eval(&self, fwd: &CompiledPath, rev: &CompiledPath, t: SimTime) -> f64 {
        fwd.oneway_ms + rev.oneway_ms + self.eval_queue_ms(fwd, t) + self.eval_queue_ms(rev, t)
    }

    /// [`Self::tcp_throughput`] over pre-evaluated paths: `fwd`/`rev`
    /// are the compiled data/ACK paths and `fe`/`re` their evaluations
    /// at the same instant. Bit-identical to the uncompiled call — the
    /// RTT sums the same four terms in the same order.
    pub fn tcp_throughput_eval(
        &self,
        fwd: &CompiledPath,
        rev: &CompiledPath,
        fe: &PathEval,
        re: &PathEval,
        spec: &FlowSpec,
    ) -> PathPerf {
        let rtt_ms = fwd.oneway_ms + rev.oneway_ms + fe.queue_ms + re.queue_ms;
        let loss = fe.loss;
        let bottleneck = fe.bottleneck_mbps;

        // Mathis et al.: per-connection rate = MSS/RTT * sqrt(3/2)/sqrt(p).
        let mss_bits = spec.mss_bytes as f64 * 8.0;
        let rtt_s = rtt_ms / 1000.0;
        let per_conn_mbps = (mss_bits / rtt_s) * (1.5f64).sqrt() / loss.sqrt() / 1.0e6;
        let mathis = per_conn_mbps * spec.n_connections as f64;

        let throughput = mathis.min(bottleneck).min(spec.nic_limit_mbps).max(0.05);
        PathPerf {
            throughput_mbps: throughput,
            rtt_ms,
            loss_rate: loss,
            bottleneck_mbps: bottleneck,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{Direction, Paths, Tier};
    use crate::topology::{AsId, Topology, TopologyConfig};

    fn setup() -> (Topology, LoadModel) {
        (
            Topology::generate(TopologyConfig::tiny(21)),
            LoadModel::new(99),
        )
    }

    fn us_leaf(topo: &Topology) -> AsId {
        topo.non_cloud_ases()
            .find(|id| {
                let n = topo.as_node(*id);
                matches!(n.role, crate::asn::AsRole::AccessIsp)
                    && topo.cities.get(n.home_city).country == "US"
                    && n.congestion == crate::topology::CongestionClass::Clean
            })
            .expect("tiny topology has a clean US ISP")
    }

    fn path_pair(topo: &Topology, leaf: AsId, tier: Tier) -> (RouterPath, RouterPath) {
        let paths = Paths::new(topo);
        let region = topo.cities.by_name("The Dalles").unwrap();
        let city = topo.as_node(leaf).home_city;
        let ip = topo.host_ip(leaf, city, 0);
        let vm = topo.vm_ip(region, 0);
        let down = paths
            .vm_host_path(region, vm, leaf, city, ip, tier, Direction::ToCloud)
            .unwrap();
        let up = paths
            .vm_host_path(region, vm, leaf, city, ip, tier, Direction::ToServer)
            .unwrap();
        (down, up)
    }

    #[test]
    fn us_clean_download_in_paper_band() {
        let (topo, load) = setup();
        let perf = PerfModel::new(&topo, load);
        let leaf = us_leaf(&topo);
        let (down, up) = path_pair(&topo, leaf, Tier::Premium);
        // 3 am local: no congestion anywhere.
        let t = SimTime::from_day_hour(3, 11);
        let p = perf.tcp_throughput(&down, &up, t, &FlowSpec::download());
        assert!(
            (100.0..=1000.0).contains(&p.throughput_mbps),
            "download = {} Mbps",
            p.throughput_mbps
        );
        assert!(p.rtt_ms < 120.0, "rtt = {}", p.rtt_ms);
    }

    #[test]
    fn upload_hits_nic_cap_on_clean_us_paths() {
        let (topo, load) = setup();
        let perf = PerfModel::new(&topo, load);
        let leaf = us_leaf(&topo);
        let (down, up) = path_pair(&topo, leaf, Tier::Premium);
        let t = SimTime::from_day_hour(3, 11);
        let p = perf.tcp_throughput(&up, &down, t, &FlowSpec::upload());
        assert!(
            p.throughput_mbps > 85.0,
            "upload = {} Mbps should approach the 100 Mbps cap",
            p.throughput_mbps
        );
        assert!(p.throughput_mbps <= 100.0);
    }

    #[test]
    fn loss_reduces_throughput_montonically() {
        // Mathis: throughput ~ 1/sqrt(p). Construct two instants with
        // different loss-noise and check ordering matches loss ordering.
        let (topo, load) = setup();
        let perf = PerfModel::new(&topo, load);
        let leaf = us_leaf(&topo);
        let (down, up) = path_pair(&topo, leaf, Tier::Premium);
        let t1 = SimTime::from_day_hour(5, 10);
        let t2 = SimTime::from_day_hour(6, 10);
        let l1 = perf.path_loss(&down, t1);
        let l2 = perf.path_loss(&down, t2);
        let p1 = perf.tcp_throughput(&down, &up, t1, &FlowSpec::download());
        let p2 = perf.tcp_throughput(&down, &up, t2, &FlowSpec::download());
        if l1 < l2 {
            assert!(p1.throughput_mbps >= p2.throughput_mbps);
        } else if l2 < l1 {
            assert!(p2.throughput_mbps >= p1.throughput_mbps);
        }
    }

    #[test]
    fn congested_evening_collapses_throughput() {
        let (topo, load) = setup();
        let perf = PerfModel::new(&topo, load);
        // Pick a peak-congested US ISP.
        let leaf = topo
            .non_cloud_ases()
            .find(|id| {
                let n = topo.as_node(*id);
                n.congestion == crate::topology::CongestionClass::PeakCongested
                    && topo.cities.get(n.home_city).country == "US"
            })
            .expect("congested ISP exists");
        let (down, up) = path_pair(&topo, leaf, Tier::Premium);
        let offset = topo
            .cities
            .get(topo.as_node(leaf).home_city)
            .utc_offset_hours;
        // Compare 4 am local vs 8:30 pm local averaged over many days.
        let mut calm = 0.0;
        let mut peak = 0.0;
        for day in 0..40 {
            let calm_t = SimTime((day * 24 + (4 - offset) as u64) * 3600);
            let peak_t = SimTime((day * 24 + (20 - offset) as u64) * 3600 + 1800);
            calm += perf
                .tcp_throughput(&down, &up, calm_t, &FlowSpec::download())
                .throughput_mbps;
            peak += perf
                .tcp_throughput(&down, &up, peak_t, &FlowSpec::download())
                .throughput_mbps;
        }
        assert!(
            peak < calm * 0.75,
            "peak {peak:.0} should be well below calm {calm:.0}"
        );
    }

    #[test]
    fn loss_rate_bounded() {
        let (topo, load) = setup();
        let perf = PerfModel::new(&topo, load);
        let leaf = us_leaf(&topo);
        let (down, _) = path_pair(&topo, leaf, Tier::Standard);
        for day in 0..20 {
            for hour in 0..24 {
                let l = perf.path_loss(&down, SimTime::from_day_hour(day, hour));
                assert!((MIN_LOSS..=1.0).contains(&l), "loss {l}");
            }
        }
    }

    #[test]
    fn util_loss_shape() {
        assert_eq!(PerfModel::util_loss(0.5), 0.0);
        assert_eq!(PerfModel::util_loss(0.85), 0.0);
        assert!(PerfModel::util_loss(0.95) > 0.0);
        assert!((PerfModel::util_loss(1.0) - 0.012).abs() < 1e-12);
        assert!(PerfModel::util_loss(1.1) > 0.06);
        assert!(PerfModel::util_loss(5.0) <= 0.5);
    }

    #[test]
    fn queue_grows_with_utilization() {
        let kind = SegmentKind::ServerAccess;
        assert_eq!(PerfModel::queue_ms(kind, 0.2), 0.0);
        let q_mid = PerfModel::queue_ms(kind, 0.8);
        let q_full = PerfModel::queue_ms(kind, 1.0);
        assert!(q_mid > 0.0 && q_full > q_mid);
        assert!((q_full - 20.0).abs() < 1e-9);
    }

    #[test]
    fn throughput_never_exceeds_caps() {
        let (topo, load) = setup();
        let perf = PerfModel::new(&topo, load);
        let leaf = us_leaf(&topo);
        let (down, up) = path_pair(&topo, leaf, Tier::Premium);
        for day in 0..10 {
            for hour in (0..24).step_by(3) {
                let t = SimTime::from_day_hour(day, hour);
                let d = perf.tcp_throughput(&down, &up, t, &FlowSpec::download());
                assert!(d.throughput_mbps <= 1000.0 + 1e-9);
                let u = perf.tcp_throughput(&up, &down, t, &FlowSpec::upload());
                assert!(u.throughput_mbps <= 100.0 + 1e-9);
            }
        }
    }

    fn edge_link_of(path: &RouterPath) -> LinkId {
        path.segments
            .iter()
            .find_map(|s| match s.kind {
                SegmentKind::CloudEdge(l) => Some(l),
                _ => None,
            })
            .expect("path crosses a cloud edge")
    }

    #[test]
    fn link_degradation_applies_only_in_window() {
        let (topo, load) = setup();
        let mut perf = PerfModel::new(&topo, load);
        let leaf = us_leaf(&topo);
        let (down, up) = path_pair(&topo, leaf, Tier::Premium);
        let link = edge_link_of(&down);
        let t_in = SimTime::from_day_hour(2, 12);
        let t_out = SimTime::from_day_hour(4, 12);
        let base_in = perf.tcp_throughput(&down, &up, t_in, &FlowSpec::download());
        let base_out = perf.tcp_throughput(&down, &up, t_out, &FlowSpec::download());
        perf.set_degradations(vec![LinkDegradation {
            link,
            start_s: 2 * 86_400,
            end_s: 3 * 86_400,
            capacity_factor: 0.25,
            loss_floor: 0.02,
            added_delay_ms: 5.0,
        }]);
        let deg_in = perf.tcp_throughput(&down, &up, t_in, &FlowSpec::download());
        let deg_out = perf.tcp_throughput(&down, &up, t_out, &FlowSpec::download());
        assert!(
            deg_in.throughput_mbps < base_in.throughput_mbps * 0.8,
            "degraded {} vs clean {}",
            deg_in.throughput_mbps,
            base_in.throughput_mbps
        );
        assert!(deg_in.rtt_ms > base_in.rtt_ms + 4.0);
        assert!(deg_in.loss_rate > base_in.loss_rate + 0.01);
        // Outside the window every output is bit-identical.
        assert_eq!(
            deg_out.throughput_mbps.to_bits(),
            base_out.throughput_mbps.to_bits()
        );
        assert_eq!(deg_out.rtt_ms.to_bits(), base_out.rtt_ms.to_bits());
        assert_eq!(deg_out.loss_rate.to_bits(), base_out.loss_rate.to_bits());
    }

    #[test]
    fn empty_degradation_set_is_bitwise_invisible() {
        let (topo, load) = setup();
        let pristine = PerfModel::new(&topo, load);
        let mut emptied = PerfModel::new(&topo, load);
        emptied.set_degradations(Vec::new());
        let leaf = us_leaf(&topo);
        let (down, up) = path_pair(&topo, leaf, Tier::Standard);
        for day in 0..6 {
            for hour in (0..24).step_by(5) {
                let t = SimTime::from_day_hour(day, hour);
                let a = pristine.tcp_throughput(&down, &up, t, &FlowSpec::download());
                let b = emptied.tcp_throughput(&down, &up, t, &FlowSpec::download());
                assert_eq!(a.throughput_mbps.to_bits(), b.throughput_mbps.to_bits());
                assert_eq!(a.rtt_ms.to_bits(), b.rtt_ms.to_bits());
                assert_eq!(a.loss_rate.to_bits(), b.loss_rate.to_bits());
                assert_eq!(a.bottleneck_mbps.to_bits(), b.bottleneck_mbps.to_bits());
            }
        }
    }

    /// Every vantage-point path pair of the topology into `region`:
    /// one host per non-cloud `(AS, city)` — the population
    /// `VantageSet` samples from — on both tiers, as `(to server, to
    /// cloud)` pairs.
    fn vantage_pairs(topo: &Topology, region: &str) -> Vec<(RouterPath, RouterPath)> {
        let paths = Paths::new(topo);
        let region = topo.cities.by_name(region).unwrap();
        let vm = topo.vm_ip(region, 1);
        let mut out = Vec::new();
        for leaf in topo.non_cloud_ases() {
            for &city in &topo.as_node(leaf).cities {
                let ip = topo.host_ip(leaf, city, 15);
                for tier in [Tier::Premium, Tier::Standard] {
                    let path = |dir| paths.vm_host_path(region, vm, leaf, city, ip, tier, dir);
                    if let (Some(fwd), Some(rev)) =
                        (path(Direction::ToServer), path(Direction::ToCloud))
                    {
                        out.push((fwd, rev));
                    }
                }
            }
        }
        out
    }

    /// Asserts that every compiled evaluation of `fwd`/`rev` over 48
    /// hours matches the per-segment passes on the source paths bit for
    /// bit, in both directions.
    fn assert_compiled_matches(perf: &PerfModel<'_>, fwd: &RouterPath, rev: &RouterPath) {
        let (cf, cr) = (perf.compile(fwd), perf.compile(rev));
        for hour in 0..48 {
            let t = SimTime::from_day_hour(hour / 24, hour % 24);
            for (path, compiled) in [(fwd, &cf), (rev, &cr)] {
                let e = perf.eval(compiled, t);
                let queue = perf.path_queue_ms(path, t).to_bits();
                assert_eq!(e.queue_ms.to_bits(), queue);
                assert_eq!(perf.eval_queue_ms(compiled, t).to_bits(), queue);
                assert_eq!(e.loss.to_bits(), perf.path_loss(path, t).to_bits());
                assert_eq!(
                    e.bottleneck_mbps.to_bits(),
                    perf.bottleneck_mbps(path, t).to_bits()
                );
            }
            assert_eq!(
                perf.idle_rtt_ms_eval(&cf, &cr, t).to_bits(),
                perf.idle_rtt_ms(fwd, rev, t).to_bits()
            );
            let (ef, er) = (perf.eval(&cf, t), perf.eval(&cr, t));
            let fast = perf.tcp_throughput_eval(&cf, &cr, &ef, &er, &FlowSpec::download());
            let slow = perf.tcp_throughput(fwd, rev, t, &FlowSpec::download());
            assert_eq!(
                fast.throughput_mbps.to_bits(),
                slow.throughput_mbps.to_bits()
            );
            assert_eq!(fast.rtt_ms.to_bits(), slow.rtt_ms.to_bits());
            assert_eq!(fast.loss_rate.to_bits(), slow.loss_rate.to_bits());
            assert_eq!(
                fast.bottleneck_mbps.to_bits(),
                slow.bottleneck_mbps.to_bits()
            );
        }
    }

    #[test]
    fn compiled_eval_is_bitwise_identical_to_separate_passes() {
        let (topo, load) = setup();
        let mut perf = PerfModel::new(&topo, load);
        let pairs = vantage_pairs(&topo, "The Dalles");
        let segs = || {
            pairs
                .iter()
                .flat_map(|(f, r)| f.segments.iter().chain(&r.segments))
        };
        // The skip has something to skip, and most vantage-point
        // segments are idle.
        let idle = pairs
            .iter()
            .flat_map(|(f, r)| perf.compile(f).segs.into_iter().chain(perf.compile(r).segs))
            .filter(|s| s.idle)
            .count();
        assert!(idle * 2 > segs().count(), "{idle} idle segments");

        // 1. No degradations: idle segments are skipped everywhere.
        for (fwd, rev) in &pairs {
            assert_compiled_matches(&perf, fwd, rev);
        }

        // 2. Degradations on the idle (`Clean`) cloud edges: the one case
        //    where an idle segment still adds queueing delay.
        let mut links: Vec<LinkId> = segs()
            .filter_map(|s| match s.kind {
                SegmentKind::CloudEdge(l) if s.congestion == CongestionClass::Clean => Some(l),
                _ => None,
            })
            .collect();
        links.sort_unstable_by_key(|l| l.0);
        links.dedup();
        assert!(!links.is_empty(), "no clean cloud edge to degrade");
        let pristine: Vec<u64> = pairs
            .iter()
            .map(|(f, r)| {
                perf.idle_rtt_ms(f, r, SimTime::from_day_hour(0, 20))
                    .to_bits()
            })
            .collect();
        perf.set_degradations(
            links
                .iter()
                .map(|&link| LinkDegradation {
                    link,
                    start_s: 12 * 3600,
                    end_s: 36 * 3600,
                    capacity_factor: 0.3,
                    loss_floor: 0.015,
                    added_delay_ms: 4.0,
                })
                .collect(),
        );
        let moved = pairs
            .iter()
            .zip(&pristine)
            .filter(|((f, r), &p)| {
                perf.idle_rtt_ms(f, r, SimTime::from_day_hour(0, 20))
                    .to_bits()
                    != p
            })
            .count();
        assert!(moved > 0, "the degradations add no delay");
        for (fwd, rev) in &pairs {
            assert_compiled_matches(&perf, fwd, rev);
        }

        // 3. A path across more than eight UTC offsets, past the basis
        //    cache: one segment per offset, busy (non-idle) where the
        //    offset has one, then a full real path.
        let mut per_offset: Vec<(i32, Segment)> = Vec::new();
        for s in segs() {
            let o = topo.cities.get(s.city).utc_offset_hours;
            match per_offset.iter_mut().find(|(x, _)| *x == o) {
                None => per_offset.push((o, *s)),
                Some((_, kept))
                    if kept.congestion == CongestionClass::Clean
                        && s.congestion != CongestionClass::Clean =>
                {
                    *kept = *s
                }
                Some(_) => {}
            }
        }
        let busy = per_offset
            .iter()
            .filter(|(_, s)| s.congestion != CongestionClass::Clean)
            .count();
        assert!(busy > 8, "{busy} offsets with a busy segment");
        let mut wide = pairs[0].0.clone();
        wide.segments = per_offset
            .iter()
            .map(|(_, s)| *s)
            .chain(pairs[0].0.segments.iter().copied())
            .collect();
        let mut wide_rev = pairs[0].1.clone();
        wide_rev.segments = wide.segments.iter().rev().copied().collect();
        assert_compiled_matches(&perf, &wide, &wide_rev);
        perf.set_degradations(Vec::new());
        assert_compiled_matches(&perf, &wide, &wide_rev);
    }

    /// Asserts that a [`QueueSeries`] over `instants` gives every pair
    /// the bits of `idle_rtt_ms_eval` at every instant, and returns how
    /// many distinct segments it computed.
    fn assert_series_matches(
        perf: &PerfModel<'_>,
        pairs: &[(RouterPath, RouterPath)],
        instants: &[SimTime],
    ) -> u64 {
        let mut series = perf.queue_series(instants.to_vec());
        let mut rtts = Vec::new();
        for (fwd, rev) in pairs {
            let (cf, cr) = (perf.compile(fwd), perf.compile(rev));
            series.idle_rtt_ms(&cf, &cr, &mut rtts);
            assert_eq!(rtts.len(), instants.len());
            for (&t, rtt) in instants.iter().zip(&rtts) {
                assert_eq!(rtt.to_bits(), perf.idle_rtt_ms_eval(&cf, &cr, t).to_bits());
            }
        }
        series.distinct_segments()
    }

    #[test]
    fn queue_series_is_bitwise_identical_to_idle_rtt_eval() {
        for seed in [21, 22] {
            let topo = Topology::generate(TopologyConfig::tiny(seed));
            let mut perf = PerfModel::new(&topo, LoadModel::new(seed ^ 0x5a));
            let pairs = vantage_pairs(&topo, "The Dalles");
            let instants: Vec<SimTime> = (0..40u64).map(|h| SimTime(h * 3600 + 17)).collect();
            let queued = |perf: &PerfModel<'_>| -> usize {
                let degraded = !perf.degradations.is_empty();
                pairs
                    .iter()
                    .flat_map(|(f, r)| perf.compile(f).segs.into_iter().chain(perf.compile(r).segs))
                    .filter(|s| !skips_queue(s, degraded))
                    .count()
            };

            // Shared segments are computed once.
            let distinct = assert_series_matches(&perf, &pairs, &instants);
            assert!(
                distinct > 0 && (distinct as usize) < queued(&perf),
                "seed {seed}"
            );

            // Degraded cloud edges, over a window that covers part of
            // the instants: idle edges now queue, and the memo keeps the
            // degraded-edge rule.
            let links: std::collections::BTreeSet<LinkId> = pairs
                .iter()
                .flat_map(|(f, r)| f.segments.iter().chain(&r.segments))
                .filter_map(|s| match s.kind {
                    SegmentKind::CloudEdge(l) => Some(l),
                    _ => None,
                })
                .collect();
            perf.set_degradations(
                links
                    .iter()
                    .map(|&link| LinkDegradation {
                        link,
                        start_s: 10 * 3600,
                        end_s: 25 * 3600,
                        capacity_factor: 0.4,
                        loss_floor: 0.01,
                        added_delay_ms: 3.5,
                    })
                    .collect(),
            );
            let degraded = assert_series_matches(&perf, &pairs, &instants);
            assert!(degraded > distinct, "seed {seed}: {degraded} vs {distinct}");

            // Two cloud edges alike in all but the link they cross: only
            // the degraded link adds delay, so the kind is part of the key.
            let edge = pairs
                .iter()
                .flat_map(|(f, _)| &f.segments)
                .find(|s| matches!(s.kind, SegmentKind::CloudEdge(_)))
                .copied()
                .expect("a cloud edge");
            let mut twin = edge;
            twin.kind = SegmentKind::CloudEdge(LinkId(u32::MAX));
            let (mut fwd, mut rev) = pairs[0].clone();
            fwd.segments = vec![edge, twin];
            rev.segments.clear();
            assert_eq!(assert_series_matches(&perf, &[(fwd, rev)], &instants), 2);
        }
    }

    #[test]
    fn base_loss_is_deterministic_per_segment() {
        let (topo, load) = setup();
        let perf = PerfModel::new(&topo, load);
        let leaf = us_leaf(&topo);
        let (down, _) = path_pair(&topo, leaf, Tier::Premium);
        for seg in &down.segments {
            assert_eq!(perf.base_loss(seg), perf.base_loss(seg));
            assert!(perf.base_loss(seg) >= 0.0 && perf.base_loss(seg) < 0.2);
        }
    }
}

//! The flow harness: TCP connections over a simulated path.
//!
//! Wires `n` [`TcpSender`]/[`TcpReceiver`] pairs across a forward path
//! (data) and a reverse path (ACKs), both built from [`LinkSpec`]s with
//! shared queues — parallel connections contend for the same bottleneck,
//! as the multi-connection speed tests in the paper do. Produces a
//! tcpdump-style [`Capture`] when asked.

use crate::engine::{EventLanes, SimClock};
use crate::link::{LinkSpec, LinkState, Offer};
use crate::tcp::{CongestionControl, SenderActions, TcpReceiver, TcpSender};

/// Ethernet+IP+TCP header overhead per segment, bytes.
const HEADER_BYTES: usize = 54;
/// ACK packet size, bytes.
const ACK_BYTES: usize = 66;
/// Cap on capture records so long runs do not balloon memory.
const CAPTURE_CAP: usize = 200_000;

/// The path a flow traverses: forward links carry data, reverse links
/// carry ACKs. Queues are independent per direction.
#[derive(Debug, Clone)]
pub struct PathSpec {
    /// Data-direction links, source first.
    pub fwd: Vec<LinkSpec>,
    /// ACK-direction links, receiver first.
    pub rev: Vec<LinkSpec>,
}

impl PathSpec {
    /// A symmetric path using the same specs both ways.
    pub fn symmetric(links: Vec<LinkSpec>) -> Self {
        let mut rev = links.clone();
        rev.reverse();
        Self { fwd: links, rev }
    }
}

/// Flow-harness configuration.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// Congestion control algorithm for every connection.
    pub cc: CongestionControl,
    /// Parallel connections sharing the path.
    pub n_connections: usize,
    /// Maximum segment size (payload), bytes.
    pub mss_bytes: usize,
    /// Wall-clock duration of the transfer, seconds.
    pub duration_s: f64,
    /// RNG seed for link loss.
    pub seed: u64,
    /// Bytes to transfer per connection (`None` = bulk, duration-bounded).
    pub total_bytes: Option<u64>,
    /// Record a packet capture.
    pub capture: bool,
}

impl Default for FlowConfig {
    fn default() -> Self {
        Self {
            cc: CongestionControl::Cubic,
            n_connections: 1,
            mss_bytes: 1448,
            duration_s: 10.0,
            seed: 1,
            total_bytes: None,
            capture: false,
        }
    }
}

/// One captured packet event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaptureRecord {
    /// Time in ms since flow start.
    pub t_ms: f64,
    /// Connection index.
    pub conn: u16,
    /// Segment index (data) or cumulative ACK (ack).
    pub num: u64,
    /// True for ACK packets.
    pub is_ack: bool,
    /// What happened.
    pub event: CaptureEvent,
}

/// Packet event kind in a capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureEvent {
    /// Sent by an endpoint.
    Sent,
    /// Delivered to an endpoint.
    Delivered,
    /// Dropped by a link.
    Dropped,
}

/// A bounded packet capture.
#[derive(Debug, Default, Clone)]
pub struct Capture {
    /// Recorded events (capped).
    pub records: Vec<CaptureRecord>,
    /// Events that were not recorded because the cap was hit.
    pub truncated: u64,
}

impl Capture {
    fn push(&mut self, rec: CaptureRecord) {
        if self.records.len() < CAPTURE_CAP {
            self.records.push(rec);
        } else {
            self.truncated += 1;
        }
    }
}

/// Result of a flow run.
#[derive(Debug, Clone)]
pub struct FlowResult {
    /// Application bytes delivered in order across all connections.
    pub delivered_bytes: u64,
    /// Effective measurement duration, seconds.
    pub duration_s: f64,
    /// Goodput in Mbps.
    pub throughput_mbps: f64,
    /// Total retransmitted segments.
    pub retransmits: u64,
    /// Total RTO firings.
    pub timeouts: u64,
    /// Mean smoothed RTT across connections with samples, ms.
    pub srtt_ms: Option<f64>,
    /// Fraction of data packets dropped by the forward path.
    pub observed_loss: f64,
    /// Packet capture (empty unless requested).
    pub capture: Capture,
}

/// Packed packet token carried through link queues.
#[derive(Debug, Clone, Copy)]
struct Token {
    conn: u16,
    num: u64,
    is_ack: bool,
}

impl Token {
    fn pack(self) -> u64 {
        debug_assert!(self.num < (1 << 47));
        ((self.conn as u64) << 48) | ((self.is_ack as u64) << 47) | self.num
    }
    fn unpack(v: u64) -> Self {
        Token {
            conn: (v >> 48) as u16,
            is_ack: (v >> 47) & 1 == 1,
            num: v & ((1 << 47) - 1),
        }
    }
}

/// ACK tokens pack (cumulative ack, echoed segment) into the 47-bit num.
const ACK_FIELD_BITS: u32 = 23;

/// Packs a (cumulative ack, echoed data segment) pair into an ACK `num`.
pub fn pack_ack(ack: u64, echo: u64) -> u64 {
    debug_assert!(ack < (1 << ACK_FIELD_BITS) && echo < (1 << ACK_FIELD_BITS));
    (ack << ACK_FIELD_BITS) | echo
}

/// Inverse of [`pack_ack`]: `(cumulative_ack, echoed_segment)`.
pub fn unpack_ack(num: u64) -> (u64, u64) {
    (num >> ACK_FIELD_BITS, num & ((1 << ACK_FIELD_BITS) - 1))
}

/// Drives one flow. Links sit in one table, forward hops first then
/// reverse; lanes are laid out as one delivery FIFO per link, then one
/// service-completion slot per link, then one retransmission-timer slot
/// per connection.
struct Harness<'a> {
    q: &'a mut EventLanes<u64>,
    links: &'a mut [LinkState],
    senders: &'a mut [TcpSender],
    receivers: &'a mut [TcpReceiver],
    /// Forward links (data direction) in `links`.
    n_fwd: usize,
    mss: usize,
    capture_on: bool,
    capture: Capture,
}

impl Harness<'_> {
    fn now_ms(&self) -> f64 {
        self.q.now().as_millis_f64()
    }

    fn record(&mut self, token: Token, event: CaptureEvent) {
        if self.capture_on {
            let t_ms = self.now_ms();
            self.capture.push(CaptureRecord {
                t_ms,
                conn: token.conn,
                num: token.num,
                is_ack: token.is_ack,
                event,
            });
        }
    }

    /// Schedules link `l`'s service completion `tx_ns` from now and the
    /// delivery of `packed` `total_ns` from now, in that order.
    fn schedule_hop(&mut self, l: usize, tx_ns: u64, total_ns: u64, packed: u64) {
        self.q.schedule_in_ns(self.links.len() + l, tx_ns, 0);
        self.q.schedule_in_ns(l, total_ns, packed);
    }

    /// Offers a packet to link `l`; on acceptance schedules its service
    /// completion and delivery.
    fn offer_to_link(&mut self, l: usize, token: Token, bytes: usize) {
        let link = &mut self.links[l];
        let prop = link.spec.prop_ns();
        match link.offer(bytes, token.pack()) {
            Offer::Transmit(total) => self.schedule_hop(l, total - prop, total, token.pack()),
            Offer::Queued => {}
            Offer::Dropped => self.record(token, CaptureEvent::Dropped),
        }
    }

    /// Link `l` finished serialising: start the next queued packet.
    fn finish_service(&mut self, l: usize) {
        let link = &mut self.links[l];
        if let Some((_, packed, total)) = link.service_complete() {
            let prop = link.spec.prop_ns();
            self.schedule_hop(l, total - prop, total, packed);
        }
    }

    /// A packet left link `l`: forward it to the next hop, or hand it to
    /// the endpoint at the end of its direction.
    fn deliver_packet(&mut self, l: usize, packed: u64) {
        let t = Token::unpack(packed);
        let fwd = l < self.n_fwd;
        let end = if fwd { self.n_fwd } else { self.links.len() };
        if l + 1 < end {
            let bytes = if t.is_ack {
                ACK_BYTES
            } else {
                self.mss + HEADER_BYTES
            };
            self.offer_to_link(l + 1, t, bytes);
            return;
        }
        self.record(t, CaptureEvent::Delivered);
        if fwd {
            // Data arrives at the receiver → emit a cumulative ACK that
            // also echoes the triggering segment (the simulator's SACK
            // information).
            let ack = self.receivers[t.conn as usize].on_data(t.num);
            let ack_token = Token {
                conn: t.conn,
                num: pack_ack(ack, t.num),
                is_ack: true,
            };
            self.record(ack_token, CaptureEvent::Sent);
            self.offer_to_link(self.n_fwd, ack_token, ACK_BYTES);
        } else {
            // ACK arrives at the sender.
            let (ack, echo) = unpack_ack(t.num);
            let now = self.now_ms();
            let actions = self.senders[t.conn as usize].on_ack_sack(ack, Some(echo), now);
            self.apply_actions(t.conn as usize, actions);
        }
    }

    /// Connection `conn`'s retransmission timer fired.
    fn fire_rto(&mut self, conn: usize) {
        if !self.senders[conn].has_outstanding() {
            return;
        }
        let now = self.now_ms();
        let actions = self.senders[conn].on_timeout(now);
        self.apply_actions(conn, actions);
    }

    fn apply_actions(&mut self, conn: usize, actions: SenderActions) {
        for seq in actions.send {
            let token = Token {
                conn: conn as u16,
                num: seq,
                is_ack: false,
            };
            self.record(token, CaptureEvent::Sent);
            self.offer_to_link(0, token, self.mss + HEADER_BYTES);
        }
        if actions.rearm_timer {
            let rto = self.senders[conn].rto_ms();
            let lane = 2 * self.links.len() + conn;
            self.q.rearm_in_secs(lane, rto / 1000.0, 0);
        }
    }
}

/// Reusable scratch state for [`run_flow_in`].
///
/// A flow harness needs event lanes, per-hop link states, and
/// per-connection endpoint tables; sweeps that simulate thousands of
/// flows (mitigation ranking, packet-level validation, benches) would
/// otherwise rebuild all of it per run. The arena keeps those
/// allocations warm across runs. Results are bit-identical to a fresh
/// harness — the lanes rewind to time zero and every table is refilled
/// from the config — which the `arena_reuse_matches_fresh` proptest
/// guards.
#[derive(Default)]
pub struct FlowArena {
    q: EventLanes<u64>,
    links: Vec<LinkState>,
    senders: Vec<TcpSender>,
    receivers: Vec<TcpReceiver>,
}

impl FlowArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Runs `config.n_connections` TCP connections over `path` and reports
/// aggregate goodput and loss statistics.
pub fn run_flow(path: &PathSpec, config: &FlowConfig) -> FlowResult {
    run_flow_in(&mut FlowArena::new(), path, config)
}

/// [`run_flow`] with caller-provided scratch: repeated runs reuse the
/// arena's allocations instead of rebuilding the harness. Produces
/// bit-identical results to [`run_flow`].
pub fn run_flow_in(arena: &mut FlowArena, path: &PathSpec, config: &FlowConfig) -> FlowResult {
    assert!(config.n_connections >= 1, "need at least one connection");
    assert!(config.duration_s > 0.0, "duration must be positive");
    assert!(!path.fwd.is_empty() && !path.rev.is_empty(), "empty path");

    let total_segments = config
        .total_bytes
        .map(|b| b.div_ceil(config.mss_bytes as u64));

    // Per-link loss seeds: odd offsets forward, even offsets reverse.
    let fwd = path
        .fwd
        .iter()
        .enumerate()
        .map(|(i, s)| (s, i as u64 * 2 + 1));
    let rev = path
        .rev
        .iter()
        .enumerate()
        .map(|(i, s)| (s, i as u64 * 2 + 2));
    arena.links.clear();
    arena.links.extend(
        fwd.chain(rev)
            .map(|(s, k)| LinkState::new(*s, config.seed.wrapping_add(k))),
    );
    arena.senders.clear();
    arena
        .senders
        .extend((0..config.n_connections).map(|_| match total_segments {
            Some(t) => TcpSender::with_total(config.cc, t),
            None => TcpSender::new(config.cc),
        }));
    arena.receivers.clear();
    arena
        .receivers
        .extend((0..config.n_connections).map(|_| TcpReceiver::new()));
    let n_links = arena.links.len();
    arena.q.reset_lanes(
        2 * n_links + config.n_connections,
        SimClock::from_secs_f64(config.duration_s),
    );

    let mut h = Harness {
        q: &mut arena.q,
        links: &mut arena.links,
        senders: &mut arena.senders,
        receivers: &mut arena.receivers,
        n_fwd: path.fwd.len(),
        mss: config.mss_bytes,
        capture_on: config.capture,
        capture: Capture::default(),
    };

    // Prime every connection's initial window; apply_actions arms the
    // retransmission timers.
    for conn in 0..config.n_connections {
        let actions = h.senders[conn].tick_send(0.0);
        h.apply_actions(conn, actions);
    }

    while let Some((lane, packed)) = h.q.pop_due() {
        match lane.checked_sub(n_links) {
            None => h.deliver_packet(lane, packed),
            Some(l) if l < n_links => h.finish_service(l),
            Some(timer) => h.fire_rto(timer - n_links),
        }
        if total_segments.is_some() && h.senders.iter().all(TcpSender::finished) {
            break;
        }
    }

    let delivered_segments: u64 = h.receivers.iter().map(|r| r.delivered()).sum();
    let delivered_bytes = delivered_segments * config.mss_bytes as u64;
    let duration_s = if total_segments.is_some() {
        h.q.now().as_secs_f64().max(1e-6)
    } else {
        config.duration_s
    };
    let (offered, dropped) = h.links[..h.n_fwd].iter().fold((0u64, 0u64), |(o, d), l| {
        (
            o + l.accepted + l.drops_queue + l.drops_random,
            d + l.drops_queue + l.drops_random,
        )
    });
    // Mean smoothed RTT. The f64 fold runs in connection-index order
    // (`senders` is indexed by conn), which is the canonical order —
    // reproducible across runs, arena reuse, and refactors. Guarded by
    // `srtt_fold_is_connection_ordered` below.
    let srtts: Vec<f64> = h.senders.iter().filter_map(|s| s.srtt_ms()).collect();
    let srtt_ms = if srtts.is_empty() {
        None
    } else {
        Some(srtts.iter().sum::<f64>() / srtts.len() as f64)
    };

    FlowResult {
        delivered_bytes,
        duration_s,
        throughput_mbps: delivered_bytes as f64 * 8.0 / duration_s / 1e6,
        retransmits: h.senders.iter().map(|s| s.retransmits).sum(),
        timeouts: h.senders.iter().map(|s| s.timeouts).sum(),
        srtt_ms,
        observed_loss: if offered == 0 {
            0.0
        } else {
            dropped as f64 / offered as f64
        },
        capture: h.capture,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_path(rate_mbps: f64, delay_ms: f64) -> PathSpec {
        PathSpec::symmetric(vec![
            LinkSpec::new(1000.0, 0.1, 256, 0.0),
            LinkSpec::new(rate_mbps, delay_ms, 128, 0.0),
            LinkSpec::new(1000.0, 0.1, 256, 0.0),
        ])
    }

    #[test]
    fn clean_path_saturates_bottleneck() {
        let r = run_flow(
            &clean_path(50.0, 5.0),
            &FlowConfig {
                duration_s: 5.0,
                ..Default::default()
            },
        );
        assert!(
            r.throughput_mbps > 35.0 && r.throughput_mbps <= 50.0,
            "throughput = {:.1} Mbps",
            r.throughput_mbps
        );
        assert_eq!(r.timeouts, 0, "no timeouts on a clean path");
    }

    #[test]
    fn srtt_reflects_propagation() {
        let r = run_flow(
            &clean_path(100.0, 20.0),
            &FlowConfig {
                duration_s: 3.0,
                ..Default::default()
            },
        );
        let srtt = r.srtt_ms.unwrap();
        // 2 × (0.1 + 20 + 0.1) ≈ 40.4 ms plus queueing.
        assert!((38.0..90.0).contains(&srtt), "srtt = {srtt}");
    }

    #[test]
    fn random_loss_degrades_throughput() {
        let clean = run_flow(
            &clean_path(200.0, 10.0),
            &FlowConfig {
                duration_s: 5.0,
                ..Default::default()
            },
        );
        let mut lossy_links = clean_path(200.0, 10.0);
        lossy_links.fwd[1].loss = 0.02;
        let lossy = run_flow(
            &lossy_links,
            &FlowConfig {
                duration_s: 5.0,
                ..Default::default()
            },
        );
        assert!(
            lossy.throughput_mbps < clean.throughput_mbps * 0.6,
            "lossy {:.1} vs clean {:.1}",
            lossy.throughput_mbps,
            clean.throughput_mbps
        );
        assert!(lossy.retransmits > 0);
        assert!(lossy.observed_loss > 0.005);
    }

    #[test]
    fn multiple_connections_share_but_exceed_single_under_loss() {
        // With random loss, aggregate of 4 connections should beat 1
        // (each connection's Mathis limit adds up).
        let mut path = clean_path(500.0, 15.0);
        path.fwd[1].loss = 0.005;
        let one = run_flow(
            &path,
            &FlowConfig {
                duration_s: 5.0,
                n_connections: 1,
                ..Default::default()
            },
        );
        let four = run_flow(
            &path,
            &FlowConfig {
                duration_s: 5.0,
                n_connections: 4,
                ..Default::default()
            },
        );
        assert!(
            four.throughput_mbps > one.throughput_mbps * 1.5,
            "4conn {:.1} vs 1conn {:.1}",
            four.throughput_mbps,
            one.throughput_mbps
        );
    }

    #[test]
    fn bounded_transfer_completes_early() {
        let r = run_flow(
            &clean_path(100.0, 2.0),
            &FlowConfig {
                duration_s: 30.0,
                total_bytes: Some(1_000_000),
                ..Default::default()
            },
        );
        assert!(r.delivered_bytes >= 1_000_000);
        assert!(r.duration_s < 30.0, "finished early: {}", r.duration_s);
    }

    #[test]
    fn capture_records_data_and_acks() {
        let r = run_flow(
            &clean_path(100.0, 2.0),
            &FlowConfig {
                duration_s: 1.0,
                capture: true,
                ..Default::default()
            },
        );
        assert!(!r.capture.records.is_empty());
        assert!(r.capture.records.iter().any(|c| c.is_ack));
        assert!(r.capture.records.iter().any(|c| !c.is_ack));
        // Time stamps are nondecreasing.
        let mut prev = 0.0;
        for rec in &r.capture.records {
            assert!(rec.t_ms >= prev - 1e-9);
            prev = rec.t_ms;
        }
    }

    #[test]
    fn no_capture_by_default() {
        let r = run_flow(&clean_path(100.0, 2.0), &FlowConfig::default());
        assert!(r.capture.records.is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = FlowConfig {
            duration_s: 3.0,
            seed: 42,
            ..Default::default()
        };
        let mut path = clean_path(100.0, 5.0);
        path.fwd[1].loss = 0.01;
        let a = run_flow(&path, &cfg);
        let b = run_flow(&path, &cfg);
        assert_eq!(a.delivered_bytes, b.delivered_bytes);
        assert_eq!(a.retransmits, b.retransmits);
    }

    #[test]
    fn srtt_fold_is_connection_ordered() {
        // D004-style guard: the srtt mean folds per-connection samples
        // in connection-index order (a canonical order), so the mean
        // must reproduce bit for bit across runs.
        let mut path = clean_path(200.0, 10.0);
        path.fwd[1].loss = 0.01;
        let cfg = FlowConfig {
            duration_s: 3.0,
            n_connections: 4,
            seed: 7,
            ..Default::default()
        };
        let a = run_flow(&path, &cfg);
        let b = run_flow(&path, &cfg);
        assert!(a.srtt_ms.is_some());
        assert_eq!(a.srtt_ms.map(f64::to_bits), b.srtt_ms.map(f64::to_bits));
    }

    #[test]
    fn token_pack_roundtrip() {
        let t = Token {
            conn: 513,
            num: (1 << 40) + 12345,
            is_ack: true,
        };
        let u = Token::unpack(t.pack());
        assert_eq!(u.conn, t.conn);
        assert_eq!(u.num, t.num);
        assert_eq!(u.is_ack, t.is_ack);
    }

    #[test]
    fn reno_and_cubic_both_work() {
        for cc in [CongestionControl::Reno, CongestionControl::Cubic] {
            let r = run_flow(
                &clean_path(50.0, 10.0),
                &FlowConfig {
                    cc,
                    duration_s: 4.0,
                    ..Default::default()
                },
            );
            assert!(
                r.throughput_mbps > 20.0,
                "{cc:?}: {:.1} Mbps",
                r.throughput_mbps
            );
        }
    }

    /// FNV-1a 64 over every [`FlowResult`] field (floats by their bits)
    /// and every capture record.
    fn flow_fingerprint(r: &FlowResult) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        eat(r.delivered_bytes);
        eat(r.duration_s.to_bits());
        eat(r.throughput_mbps.to_bits());
        eat(r.retransmits);
        eat(r.timeouts);
        eat(r.srtt_ms.map_or(u64::MAX, f64::to_bits));
        eat(r.observed_loss.to_bits());
        eat(r.capture.truncated);
        eat(r.capture.records.len() as u64);
        for c in &r.capture.records {
            eat(c.t_ms.to_bits());
            eat(u64::from(c.conn));
            eat(c.num);
            eat(u64::from(c.is_ack));
            eat(c.event as u64);
        }
        h
    }

    /// Every output bit of the packet simulator, pinned over shapes that
    /// cover clean and lossy paths, 1–8 connections, both congestion
    /// controls, a shallow bottleneck, and bounded transfers that do and
    /// do not finish before the deadline (the latter report the clock of
    /// the first event past the deadline). Each shape runs fresh and
    /// through one reused [`FlowArena`]; both must match the constant.
    #[test]
    fn flows_are_pinned() {
        let lossy = |loss: f64| {
            let mut p = clean_path(200.0, 10.0);
            p.fwd[1].loss = loss;
            p
        };
        let shallow = PathSpec::symmetric(vec![
            LinkSpec::new(1000.0, 0.1, 256, 0.0),
            LinkSpec::new(20.0, 10.0, 6, 0.0),
            LinkSpec::new(1000.0, 0.1, 256, 0.0),
        ]);
        // Loss on ACKs as well as data leaves long idle gaps, so the first
        // event past the deadline can be a retransmission timer that a
        // later ACK already re-armed.
        let mut two_way_loss = clean_path(50.0, 10.0);
        two_way_loss.fwd[1].loss = 0.1;
        two_way_loss.rev[1].loss = 0.1;
        // Zero-delay edge links put a packet's service completion and
        // delivery on the same tick, so the order ties pop in shows.
        let mut zero_delay_edges = PathSpec::symmetric(vec![
            LinkSpec::new(1000.0, 0.0, 256, 0.0),
            LinkSpec::new(100.0, 5.0, 64, 0.0),
            LinkSpec::new(1000.0, 0.0, 256, 0.0),
        ]);
        zero_delay_edges.fwd[1].loss = 0.01;
        let cfg = |cc, n_connections, duration_s, seed, total_bytes| FlowConfig {
            cc,
            n_connections,
            duration_s,
            seed,
            total_bytes,
            capture: true,
            ..Default::default()
        };
        use CongestionControl::{Cubic, Reno};
        let shapes = [
            (clean_path(100.0, 5.0), cfg(Cubic, 1, 1.5, 1, None)),
            (clean_path(150.0, 20.0), cfg(Reno, 2, 1.5, 2, None)),
            (lossy(0.01), cfg(Cubic, 4, 1.5, 3, None)),
            (lossy(0.02), cfg(Reno, 8, 1.0, 4, None)),
            (lossy(0.005), cfg(Cubic, 8, 1.0, 5, None)),
            (shallow.clone(), cfg(Reno, 1, 2.0, 6, None)),
            (shallow, cfg(Cubic, 3, 2.0, 7, None)),
            (zero_delay_edges.clone(), cfg(Reno, 4, 1.0, 11, None)),
            (zero_delay_edges, cfg(Cubic, 2, 1.0, 12, Some(2_000_000))),
            (
                clean_path(100.0, 2.0),
                cfg(Cubic, 2, 30.0, 8, Some(400_000)),
            ),
            (lossy(0.03), cfg(Reno, 3, 0.5, 9, Some(50_000_000))),
            (
                two_way_loss.clone(),
                cfg(Cubic, 1, 0.6, 4, Some(10_000_000)),
            ),
            (two_way_loss, cfg(Reno, 2, 0.9, 0, Some(10_000_000))),
        ];
        let mut arena = FlowArena::new();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (path, cfg) in &shapes {
            let fresh = flow_fingerprint(&run_flow(path, cfg));
            let reused = flow_fingerprint(&run_flow_in(&mut arena, path, cfg));
            assert_eq!(fresh, reused, "arena reuse diverged on {cfg:?}");
            h = (h ^ fresh).wrapping_mul(0x1000_0000_01b3);
        }
        assert_eq!(
            h, 0xde35_e5e3_748a_31be,
            "packet simulator output changed: {h:#018x}"
        );
    }

    #[test]
    fn tiny_queue_causes_drops_and_recovery() {
        let path = PathSpec::symmetric(vec![
            LinkSpec::new(1000.0, 0.1, 256, 0.0),
            LinkSpec::new(20.0, 10.0, 6, 0.0), // shallow buffer
            LinkSpec::new(1000.0, 0.1, 256, 0.0),
        ]);
        let r = run_flow(
            &path,
            &FlowConfig {
                duration_s: 5.0,
                ..Default::default()
            },
        );
        assert!(r.retransmits > 0, "shallow buffer must drop");
        assert!(r.throughput_mbps > 8.0, "still makes progress");
    }
}

//! TCP sender and receiver state machines.
//!
//! The sender implements NewReno-style loss recovery (slow start,
//! congestion avoidance, fast retransmit on three duplicate ACKs, partial
//! ACK retransmission) with a pluggable congestion-avoidance law — classic
//! Reno AIMD or CUBIC window growth — plus Jacobson/Karels RTT estimation
//! with Karn's rule and exponential RTO backoff.
//!
//! Segments are modelled at MSS granularity and identified by index; the
//! driver (see [`crate::flow`]) owns actual packet motion.

use std::collections::VecDeque;

/// Congestion-avoidance algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CongestionControl {
    /// Classic Reno AIMD (+1 MSS per RTT, halve on loss).
    Reno,
    /// CUBIC window growth (w(t) = C(t−K)³ + w_max, β = 0.7).
    Cubic,
}

/// CUBIC's C constant (packets / s³).
const CUBIC_C: f64 = 0.4;
/// CUBIC's multiplicative decrease factor.
const CUBIC_BETA: f64 = 0.7;
/// Initial congestion window, packets (RFC 6928 spirit).
const INIT_CWND: f64 = 10.0;
/// Minimum RTO, ms (Linux uses 200 ms).
const MIN_RTO_MS: f64 = 200.0;
/// Maximum RTO, ms.
const MAX_RTO_MS: f64 = 60_000.0;
/// Receive-window / buffer cap on the congestion window, packets. A real
/// stack is bounded by the advertised receive window and socket buffers;
/// without this, bulk slow start on a clean path grows without limit.
const MAX_CWND: f64 = 4096.0;

/// What the sender wants the driver to do after an event.
#[derive(Debug, Default)]
pub struct SenderActions {
    /// Segment indices to transmit (new or retransmitted).
    pub send: Vec<u64>,
    /// Whether the retransmission timer should be (re)armed.
    pub rearm_timer: bool,
}

/// Bookkeeping for an in-flight segment.
#[derive(Debug, Clone, Copy)]
struct SegInfo {
    sent_at_ms: f64,
    retransmitted: bool,
    /// Selectively acknowledged (received out of order at the peer).
    sacked: bool,
}

/// A window-based TCP sender.
#[derive(Debug)]
pub struct TcpSender {
    cc: CongestionControl,
    /// Congestion window in packets (fractional accumulation).
    cwnd: f64,
    ssthresh: f64,
    /// Next never-sent segment index.
    next_seq: u64,
    /// Lowest unacknowledged segment index.
    snd_una: u64,
    /// Total segments the application wants to send (u64::MAX = bulk).
    total_segments: u64,
    dup_acks: u32,
    in_recovery: bool,
    recovery_high: u64,
    /// Next hole candidate for SACK-style recovery retransmissions.
    rtx_next: u64,
    /// Segments selectively acknowledged but not yet cumulatively acked.
    sacked_count: u64,
    // RTT estimation.
    srtt_ms: Option<f64>,
    rttvar_ms: f64,
    /// Lowest RTT sample seen (HyStart baseline).
    min_rtt_ms: f64,
    rto_ms: f64,
    backoff: u32,
    // CUBIC state.
    w_max: f64,
    epoch_start_ms: Option<f64>,
    cubic_k: f64,
    /// In-flight scoreboard for RTT sampling (Karn) and pipe accounting:
    /// exactly the segments `snd_una..next_seq`, the one at index `i`
    /// being `snd_una + i`.
    inflight: VecDeque<SegInfo>,
    // Counters.
    /// Segments retransmitted (fast retransmit + RTO).
    pub retransmits: u64,
    /// RTO firings.
    pub timeouts: u64,
}

impl TcpSender {
    /// Creates a bulk-transfer sender.
    pub fn new(cc: CongestionControl) -> Self {
        Self::with_total(cc, u64::MAX)
    }

    /// Creates a sender with a bounded amount of data (in segments).
    pub fn with_total(cc: CongestionControl, total_segments: u64) -> Self {
        Self {
            cc,
            cwnd: INIT_CWND,
            ssthresh: f64::INFINITY,
            next_seq: 0,
            snd_una: 0,
            total_segments,
            dup_acks: 0,
            in_recovery: false,
            recovery_high: 0,
            rtx_next: 0,
            sacked_count: 0,
            srtt_ms: None,
            rttvar_ms: 0.0,
            min_rtt_ms: f64::INFINITY,
            rto_ms: 1_000.0,
            backoff: 0,
            w_max: 0.0,
            epoch_start_ms: None,
            cubic_k: 0.0,
            inflight: VecDeque::new(),
            retransmits: 0,
            timeouts: 0,
        }
    }

    /// Current congestion window in packets.
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// Current slow-start threshold.
    pub fn ssthresh(&self) -> f64 {
        self.ssthresh
    }

    /// Lowest unacknowledged segment.
    pub fn snd_una(&self) -> u64 {
        self.snd_una
    }

    /// Next never-sent segment index (the top of the send window).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Current retransmission timeout in ms.
    pub fn rto_ms(&self) -> f64 {
        self.rto_ms
    }

    /// True when every segment of a bounded transfer has been delivered.
    pub fn finished(&self) -> bool {
        self.snd_una >= self.total_segments
    }

    /// Whether any data is outstanding.
    pub fn has_outstanding(&self) -> bool {
        self.snd_una < self.next_seq
    }

    /// Segments believed to still be in the network: in flight minus
    /// those the peer has selectively acknowledged.
    fn pipe(&self) -> u64 {
        self.inflight.len() as u64 - self.sacked_count
    }

    /// Fills the window: returns new segments to send at `now_ms`.
    pub fn tick_send(&mut self, now_ms: f64) -> SenderActions {
        let mut actions = SenderActions::default();
        while self.pipe() < self.cwnd as u64 && self.next_seq < self.total_segments {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.inflight.push_back(SegInfo {
                sent_at_ms: now_ms,
                retransmitted: false,
                sacked: false,
            });
            actions.send.push(seq);
        }
        if !actions.send.is_empty() {
            actions.rearm_timer = true;
        }
        actions
    }

    /// Processes a cumulative ACK (`ack` = next expected segment).
    ///
    /// `echo` identifies the data segment that triggered this ACK, when
    /// known — the simulator's stand-in for a SACK block: the sender
    /// marks exactly that segment as received. ACKs beyond `next_seq`
    /// (acknowledging data never sent) are clamped; a real stack would
    /// discard such a segment as corrupt.
    pub fn on_ack(&mut self, ack: u64, now_ms: f64) -> SenderActions {
        self.on_ack_sack(ack, None, now_ms)
    }

    /// [`Self::on_ack`] with SACK information.
    pub fn on_ack_sack(&mut self, ack: u64, echo: Option<u64>, now_ms: f64) -> SenderActions {
        let ack = ack.min(self.next_seq);
        let mut actions = SenderActions::default();

        // SACK scoreboard update: the echoed segment reached the peer.
        if let Some(e) = echo {
            if e >= ack {
                if let Some(info) = self
                    .scoreboard_slot(e)
                    .and_then(|i| self.inflight.get_mut(i))
                {
                    if !info.sacked {
                        info.sacked = true;
                        self.sacked_count += 1;
                    }
                }
            }
        }

        if ack > self.snd_una {
            // New data acknowledged.
            let newly_acked = ack - self.snd_una;
            let newly_acked_len = newly_acked as usize;
            // RTT sample from the highest newly-acked, non-retransmitted
            // segment (Karn's algorithm).
            if let Some(info) = self.inflight.get(newly_acked_len - 1) {
                if !info.retransmitted {
                    self.rtt_sample(now_ms - info.sent_at_ms);
                }
            }
            let acked = self.inflight.drain(..newly_acked_len);
            self.sacked_count -= acked.filter(|i| i.sacked).count() as u64;
            self.snd_una = ack;
            self.dup_acks = 0;
            self.backoff = 0;

            if self.in_recovery {
                if ack >= self.recovery_high {
                    // Recovery complete.
                    self.in_recovery = false;
                    self.cwnd = self.ssthresh.max(2.0);
                } else {
                    // Partial ACK: the hole at snd_una is confirmed lost.
                    self.retransmit(self.snd_una, now_ms, &mut actions);
                    self.rtx_next = self.rtx_next.max(self.snd_una + 1);
                }
            } else {
                self.grow_window(newly_acked, now_ms);
            }
        } else if ack == self.snd_una && self.has_outstanding() {
            self.dup_acks += 1;
            let dupthresh_hit = self.dup_acks >= 3 || self.sacked_above(self.snd_una) >= 3;
            if dupthresh_hit && !self.in_recovery {
                // Fast retransmit.
                self.enter_recovery(now_ms);
                self.retransmit(self.snd_una, now_ms, &mut actions);
                self.rtx_next = self.snd_una + 1;
            } else if self.in_recovery {
                // SACK-based loss repair: retransmit segments that have at
                // least `dupthresh` SACKed segments above them (RFC 6675's
                // IsLost), pipe permitting, one per arriving ACK.
                self.sack_retransmit(now_ms, &mut actions);
            }
        }
        // Window may have opened.
        let fill = self.tick_send(now_ms);
        actions.send.extend(fill.send);
        actions.rearm_timer |= fill.rearm_timer || self.has_outstanding();
        actions
    }

    /// Scoreboard index of in-flight segment `seq`, if it is in flight.
    fn scoreboard_slot(&self, seq: u64) -> Option<usize> {
        let i = usize::try_from(seq.checked_sub(self.snd_una)?).ok()?;
        (i < self.inflight.len()).then_some(i)
    }

    /// Number of SACKed in-flight segments with sequence greater than `s`.
    fn sacked_above(&self, s: u64) -> u64 {
        let skip = (s + 1).saturating_sub(self.snd_una) as usize;
        self.inflight.iter().skip(skip).filter(|i| i.sacked).count() as u64
    }

    /// Handles an RTO firing at `now_ms`.
    pub fn on_timeout(&mut self, now_ms: f64) -> SenderActions {
        let mut actions = SenderActions::default();
        if !self.has_outstanding() {
            return actions;
        }
        self.timeouts += 1;
        self.ssthresh = (self.pipe() as f64 / 2.0).max(2.0);
        self.cwnd = 1.0;
        self.in_recovery = false;
        self.dup_acks = 0;
        self.backoff = (self.backoff + 1).min(10);
        self.rto_ms = (self.rto_ms * 2.0).min(MAX_RTO_MS);
        self.cubic_reset(now_ms);
        self.retransmit(self.snd_una, now_ms, &mut actions);
        actions.rearm_timer = true;
        actions
    }

    /// Retransmits the next *lost* hole during recovery (at most one per
    /// call — pipe conservation). A segment counts as lost when at least
    /// three SACKed segments lie above it (RFC 6675 IsLost); without SACK
    /// evidence nothing is retransmitted here and recovery falls back to
    /// NewReno partial-ACK repair.
    fn sack_retransmit(&mut self, now_ms: f64, actions: &mut SenderActions) {
        // The third-highest SACKed sequence bounds what can be lost.
        // Scoreboard indices below are offsets from `snd_una`.
        let una = self.snd_una;
        let below_high = self.recovery_high.saturating_sub(una) as usize;
        let scoreboard = self.inflight.iter().enumerate();
        let mut sacked = scoreboard
            .clone()
            .take(below_high)
            .rev()
            .filter(|(_, i)| i.sacked);
        let Some((limit, _)) = sacked.nth(2) else {
            return;
        };
        let from = self.rtx_next.saturating_sub(una) as usize;
        let candidate = scoreboard
            .take(limit)
            .skip(from)
            .find(|(_, info)| !info.retransmitted && !info.sacked)
            .map(|(k, _)| una + k as u64);
        if let Some(seq) = candidate {
            self.rtx_next = seq + 1;
            self.retransmit(seq, now_ms, actions);
        }
    }

    fn enter_recovery(&mut self, now_ms: f64) {
        self.in_recovery = true;
        self.recovery_high = self.next_seq;
        let pipe = self.pipe() as f64;
        match self.cc {
            CongestionControl::Reno => {
                self.ssthresh = (pipe / 2.0).max(2.0);
            }
            CongestionControl::Cubic => {
                self.w_max = self.cwnd;
                self.ssthresh = (self.cwnd * CUBIC_BETA).max(2.0);
                self.cubic_k = (self.w_max * (1.0 - CUBIC_BETA) / CUBIC_C).cbrt();
                self.epoch_start_ms = Some(now_ms);
            }
        }
        self.cwnd = self.ssthresh;
    }

    /// Resends in-flight segment `seq`; every caller picks one from the
    /// scoreboard.
    fn retransmit(&mut self, seq: u64, now_ms: f64, actions: &mut SenderActions) {
        let info = self
            .scoreboard_slot(seq)
            .and_then(|i| self.inflight.get_mut(i));
        debug_assert!(info.is_some(), "segment {seq} is not in flight");
        if let Some(info) = info {
            info.retransmitted = true;
            info.sent_at_ms = now_ms;
        }
        self.retransmits += 1;
        actions.send.push(seq);
        actions.rearm_timer = true;
    }

    fn grow_window(&mut self, newly_acked: u64, now_ms: f64) {
        if self.cwnd >= MAX_CWND {
            self.cwnd = MAX_CWND;
            return;
        }
        if self.cwnd < self.ssthresh {
            // Slow start: +1 per ACKed segment.
            self.cwnd = (self.cwnd + newly_acked as f64).min(MAX_CWND);
            if self.cwnd >= self.ssthresh {
                self.cubic_reset(now_ms);
            }
            return;
        }
        match self.cc {
            CongestionControl::Reno => {
                self.cwnd += newly_acked as f64 / self.cwnd;
            }
            CongestionControl::Cubic => {
                let epoch = match self.epoch_start_ms {
                    Some(e) => e,
                    None => {
                        self.cubic_reset(now_ms);
                        now_ms
                    }
                };
                let t = (now_ms - epoch) / 1000.0;
                let target = CUBIC_C * (t - self.cubic_k).powi(3) + self.w_max;
                // RFC 8312 TCP-friendly region: an AIMD(0.53, 0.7) flow
                // would have this window; CUBIC never does worse.
                let friendly = match self.srtt_ms {
                    Some(srtt) if srtt > 0.0 => {
                        self.w_max * CUBIC_BETA + 0.529 * (t * 1000.0 / srtt)
                    }
                    _ => 0.0,
                };
                let target = target.max(friendly);
                if target > self.cwnd {
                    // Per-ACK step scaled by the segments this cumulative
                    // ACK covers, never overshooting the cubic target.
                    let step = (target - self.cwnd) * newly_acked as f64 / self.cwnd;
                    self.cwnd = (self.cwnd + step).min(target);
                } else {
                    // Concave plateau: creep forward slowly.
                    self.cwnd += 0.3 * newly_acked as f64 / self.cwnd;
                }
            }
        }
    }

    fn cubic_reset(&mut self, now_ms: f64) {
        if self.cc == CongestionControl::Cubic {
            self.w_max = self.cwnd.max(self.w_max);
            self.cubic_k = (self.w_max * (1.0 - CUBIC_BETA) / CUBIC_C).cbrt();
            self.epoch_start_ms = Some(now_ms);
        }
    }

    fn rtt_sample(&mut self, rtt_ms: f64) {
        if rtt_ms <= 0.0 {
            return;
        }
        self.min_rtt_ms = self.min_rtt_ms.min(rtt_ms);
        // HyStart-style delay-increase exit from slow start: once probe
        // RTT rises well above the path minimum, the queue is filling —
        // stop doubling before a multi-thousand-packet overshoot.
        if self.cwnd < self.ssthresh && rtt_ms > self.min_rtt_ms * 1.25 + 4.0 {
            self.ssthresh = self.cwnd;
        }
        let srtt = match self.srtt_ms {
            None => {
                self.rttvar_ms = rtt_ms / 2.0;
                rtt_ms
            }
            Some(srtt) => {
                let err = rtt_ms - srtt;
                self.rttvar_ms = 0.75 * self.rttvar_ms + 0.25 * err.abs();
                srtt + 0.125 * err
            }
        };
        self.srtt_ms = Some(srtt);
        let base = srtt + 4.0 * self.rttvar_ms;
        self.rto_ms = base.clamp(MIN_RTO_MS, MAX_RTO_MS) * f64::from(1 << self.backoff.min(6));
    }

    /// Smoothed RTT estimate, if any sample was taken.
    pub fn srtt_ms(&self) -> Option<f64> {
        self.srtt_ms
    }
}

/// A cumulative-ACK receiver with an out-of-order buffer.
#[derive(Debug, Default)]
pub struct TcpReceiver {
    rcv_next: u64,
    ooo: std::collections::BTreeSet<u64>,
    /// Segments received in total (including duplicates).
    pub received: u64,
    /// Duplicate segments seen.
    pub duplicates: u64,
}

impl TcpReceiver {
    /// Creates an empty receiver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Processes an arriving data segment; returns the cumulative ACK to
    /// transmit (next expected segment index).
    pub fn on_data(&mut self, seq: u64) -> u64 {
        self.received += 1;
        if seq < self.rcv_next || self.ooo.contains(&seq) {
            self.duplicates += 1;
        } else if seq == self.rcv_next {
            self.rcv_next += 1;
            while self.ooo.remove(&self.rcv_next) {
                self.rcv_next += 1;
            }
        } else {
            self.ooo.insert(seq);
        }
        self.rcv_next
    }

    /// In-order delivery point (segments fully received).
    pub fn delivered(&self) -> u64 {
        self.rcv_next
    }

    /// Number of buffered out-of-order segments.
    pub fn ooo_len(&self) -> usize {
        self.ooo.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_window_sends_ten() {
        let mut s = TcpSender::new(CongestionControl::Reno);
        let a = s.tick_send(0.0);
        assert_eq!(a.send.len(), 10);
        assert!(a.rearm_timer);
        // Window full: no more.
        assert!(s.tick_send(0.0).send.is_empty());
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut s = TcpSender::new(CongestionControl::Reno);
        let first = s.tick_send(0.0).send;
        // ACK all ten: cwnd 10 → 20.
        let a = s.on_ack(first.len() as u64, 100.0);
        assert_eq!(s.cwnd() as u64, 20);
        assert_eq!(a.send.len(), 20);
    }

    #[test]
    fn bounded_transfer_finishes() {
        let mut s = TcpSender::with_total(CongestionControl::Reno, 5);
        let a = s.tick_send(0.0);
        assert_eq!(a.send.len(), 5);
        s.on_ack(5, 50.0);
        assert!(s.finished());
        assert!(!s.has_outstanding());
    }

    #[test]
    fn triple_dupack_triggers_fast_retransmit() {
        let mut s = TcpSender::new(CongestionControl::Reno);
        s.tick_send(0.0);
        s.on_ack(1, 10.0); // seg 0 delivered
        let before = s.retransmits;
        s.on_ack(1, 11.0);
        s.on_ack(1, 12.0);
        let a = s.on_ack(1, 13.0); // third dup
        assert_eq!(s.retransmits, before + 1);
        assert!(a.send.contains(&1), "retransmits snd_una");
        let cwnd_after = s.cwnd();
        assert!(cwnd_after < 10.0, "window reduced: {cwnd_after}");
    }

    #[test]
    fn timeout_collapses_window() {
        let mut s = TcpSender::new(CongestionControl::Reno);
        s.tick_send(0.0);
        let rto_before = s.rto_ms();
        let a = s.on_timeout(1_000.0);
        assert_eq!(s.cwnd(), 1.0);
        assert_eq!(s.timeouts, 1);
        assert!(a.send.contains(&0));
        assert!(s.rto_ms() > rto_before, "exponential backoff");
    }

    #[test]
    fn timeout_without_outstanding_is_noop() {
        let mut s = TcpSender::new(CongestionControl::Reno);
        let a = s.on_timeout(5.0);
        assert!(a.send.is_empty());
        assert_eq!(s.timeouts, 0);
    }

    #[test]
    fn rtt_estimation_converges() {
        let mut s = TcpSender::new(CongestionControl::Reno);
        let mut now = 0.0;
        for _ in 0..50 {
            s.tick_send(now);
            now += 30.0; // constant 30 ms RTT: ack the full window
            s.on_ack(s.next_seq(), now);
        }
        let srtt = s.srtt_ms().unwrap();
        assert!((25.0..35.0).contains(&srtt), "srtt = {srtt}");
        assert!(s.rto_ms() >= MIN_RTO_MS);
    }

    #[test]
    fn reno_congestion_avoidance_is_linear() {
        let mut s = TcpSender::new(CongestionControl::Reno);
        // Force CA with a small ssthresh via fast retransmit.
        s.tick_send(0.0);
        s.on_ack(1, 1.0);
        for t in 0..3 {
            s.on_ack(1, 2.0 + t as f64);
        }
        // Exit recovery by acking everything outstanding.
        let high = 40;
        s.on_ack(high, 50.0);
        let cwnd0 = s.cwnd();
        // One full window of ACKs should add ≈ 1 packet.
        let w = cwnd0 as u64;
        let base = s.snd_una();
        s.tick_send(51.0);
        for i in 0..w {
            s.on_ack(base + i + 1, 60.0 + i as f64);
        }
        let cwnd1 = s.cwnd();
        assert!(
            (cwnd1 - cwnd0 - 1.0).abs() < 0.2,
            "CA growth {cwnd0} → {cwnd1}"
        );
    }

    #[test]
    fn cubic_grows_faster_than_reno_long_after_loss() {
        // CUBIC's advantage is the concave rebound toward a large w_max
        // after a loss; at small windows it is deliberately no more
        // aggressive than AIMD. Compare recovery from a big window.
        let grow = |cc: CongestionControl| -> f64 {
            let mut s = TcpSender::new(cc);
            let mut now = 0.0;
            // Slow-start to a large window (30 ms RTT, full-window ACKs).
            while s.cwnd() < 1500.0 {
                s.tick_send(now);
                now += 30.0;
                s.on_ack(s.next_seq(), now);
            }
            // Loss: three duplicate ACKs.
            s.tick_send(now);
            let una = s.snd_una();
            for k in 0..3 {
                s.on_ack(una, now + k as f64);
            }
            now += 10.0;
            // Exit recovery.
            s.on_ack(s.next_seq(), now);
            let start = s.cwnd();
            // 60 RTTs of lossless growth.
            for _ in 0..60 {
                now += 30.0;
                s.tick_send(now);
                s.on_ack(s.next_seq(), now);
            }
            s.cwnd() - start
        };
        let reno = grow(CongestionControl::Reno);
        let cubic = grow(CongestionControl::Cubic);
        assert!(
            cubic > reno * 1.5,
            "CUBIC rebound (+{cubic:.0}) should beat Reno (+{reno:.0})"
        );
    }

    #[test]
    fn receiver_in_order_stream() {
        let mut r = TcpReceiver::new();
        assert_eq!(r.on_data(0), 1);
        assert_eq!(r.on_data(1), 2);
        assert_eq!(r.delivered(), 2);
        assert_eq!(r.duplicates, 0);
    }

    #[test]
    fn receiver_reorders_and_fills_hole() {
        let mut r = TcpReceiver::new();
        assert_eq!(r.on_data(1), 0); // hole at 0
        assert_eq!(r.on_data(2), 0);
        assert_eq!(r.ooo_len(), 2);
        assert_eq!(r.on_data(0), 3); // hole filled, all drain
        assert_eq!(r.ooo_len(), 0);
    }

    #[test]
    fn receiver_counts_duplicates() {
        let mut r = TcpReceiver::new();
        r.on_data(0);
        r.on_data(0);
        assert_eq!(r.duplicates, 1);
        r.on_data(5);
        r.on_data(5);
        assert_eq!(r.duplicates, 2);
    }

    #[test]
    fn partial_ack_in_recovery_retransmits_hole() {
        let mut s = TcpSender::new(CongestionControl::Reno);
        s.tick_send(0.0);
        s.on_ack(2, 10.0); // 0,1 delivered
        for t in 0..3 {
            s.on_ack(2, 11.0 + t as f64); // dups → recovery, rtx 2
        }
        assert!(s.retransmits >= 1);
        let before = s.retransmits;
        // Partial ACK (not beyond recovery_high): retransmit next hole.
        let a = s.on_ack(4, 20.0);
        assert_eq!(s.retransmits, before + 1);
        assert!(a.send.contains(&4));
    }
}

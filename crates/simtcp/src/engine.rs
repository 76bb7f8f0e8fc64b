//! The discrete-event engine: a simulated clock and a set of FIFO event
//! lanes.
//!
//! Time is counted in integer nanoseconds so event ordering is exact and
//! runs are bit-reproducible. Every scheduled event takes the next value
//! of one global sequence counter, and events pop in `(time, seq)`
//! order: earliest first, ties in scheduling order.
//!
//! A packet simulation's events split into streams that are already
//! sorted: one link's deliveries arrive in time order (service never
//! starts before the previous packet's service ends, and propagation is
//! constant), a link has at most one pending service completion, and a
//! connection at most one live retransmission timer. So instead of one
//! priority queue the engine keeps a FIFO lane per stream and pops the
//! lane whose head is earliest — a scan over a few dozen head keys, with
//! no sifting.
//!
//! A lane can also be a slot: `EventLanes::rearm_in_secs` replaces
//! its pending event. A displaced event due after the horizon still
//! counts toward where the clock stops there, exactly as if it had
//! stayed queued to pop as a no-op.

use std::collections::VecDeque;

/// Simulated time in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default, Hash)]
pub struct SimClock(pub u64);

impl SimClock {
    /// Zero time.
    pub const ZERO: SimClock = SimClock(0);

    /// Builds a clock value from seconds.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0 && s.is_finite(), "negative or non-finite time");
        SimClock((s * 1e9).round() as u64)
    }

    /// Builds a clock value from milliseconds.
    pub fn from_millis_f64(ms: f64) -> Self {
        Self::from_secs_f64(ms / 1e3)
    }

    /// Seconds as `f64`.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds as `f64`.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Adds a duration in nanoseconds.
    pub fn plus_ns(self, ns: u64) -> SimClock {
        SimClock(self.0 + ns)
    }

    /// Adds a duration in (fractional) seconds.
    pub fn plus_secs_f64(self, s: f64) -> SimClock {
        SimClock(self.0 + (s * 1e9).round() as u64)
    }
}

/// Head key of an empty lane; sorts after every real key.
const EMPTY: u128 = u128::MAX;

/// An event's sort key: time in the high word, sequence in the low.
fn event_key(at: SimClock, seq: u64) -> u128 {
    (u128::from(at.0) << 64) | u128::from(seq)
}

/// A deterministic future-event list made of FIFO lanes.
///
/// Each lane must be fed in increasing `(time, seq)` order (checked in
/// debug builds); pops then come out in the global `(time, seq)` order a
/// single priority queue would give. Events due after the horizon are
/// never popped.
pub(crate) struct EventLanes<E> {
    /// Key of each lane's front event, [`EMPTY`] when the lane is empty.
    heads: Vec<u128>,
    lanes: Vec<VecDeque<(u128, E)>>,
    now: SimClock,
    seq: u64,
    horizon: SimClock,
    /// Earliest displaced event due after the horizon.
    displaced_late: Option<SimClock>,
}

impl<E> Default for EventLanes<E> {
    fn default() -> Self {
        Self {
            heads: Vec::new(),
            lanes: Vec::new(),
            now: SimClock::ZERO,
            seq: 0,
            horizon: SimClock(u64::MAX),
            displaced_late: None,
        }
    }
}

impl<E> EventLanes<E> {
    /// Empties the set into `lanes` lanes, rewinds the clock to zero and
    /// sets the horizon, keeping every lane's capacity warm for reuse.
    pub(crate) fn reset_lanes(&mut self, lanes: usize, horizon: SimClock) {
        for lane in &mut self.lanes {
            lane.clear();
        }
        self.lanes.resize_with(lanes, VecDeque::new);
        self.heads.clear();
        self.heads.resize(lanes, EMPTY);
        self.now = SimClock::ZERO;
        self.seq = 0;
        self.horizon = horizon;
        self.displaced_late = None;
    }

    /// Current simulated time (the timestamp of the last popped event).
    pub(crate) fn now(&self) -> SimClock {
        self.now
    }

    /// Appends `payload` to `lane`, due `ns` nanoseconds from now.
    pub(crate) fn schedule_in_ns(&mut self, lane: usize, ns: u64, payload: E) {
        let key = event_key(self.now.plus_ns(ns), self.seq);
        self.seq += 1;
        let q = &mut self.lanes[lane];
        debug_assert!(
            q.back().is_none_or(|&(k, _)| k < key),
            "lane {lane} scheduled out of order"
        );
        if q.is_empty() {
            self.heads[lane] = key;
        }
        q.push_back((key, payload));
    }

    /// Makes `payload`, due `s` seconds from now, the only event of
    /// `lane`, displacing the one pending there. A displaced event due
    /// by the horizon is forgotten: it could only move the clock of a
    /// run whose lanes all empty before the horizon.
    pub(crate) fn rearm_in_secs(&mut self, lane: usize, s: f64, payload: E) {
        let key = event_key(self.now.plus_secs_f64(s), self.seq);
        self.seq += 1;
        let q = &mut self.lanes[lane];
        debug_assert!(q.len() <= 1, "lane {lane} is not a slot");
        if let Some((old, _)) = q.pop_front() {
            let at = SimClock((old >> 64) as u64);
            if at > self.horizon {
                self.displaced_late = Some(self.displaced_late.map_or(at, |d| d.min(at)));
            }
        }
        self.heads[lane] = key;
        q.push_back((key, payload));
    }

    /// Pops the earliest event, advancing the clock to it, and returns
    /// its lane and payload.
    ///
    /// Returns `None` once the earliest event is due after the horizon,
    /// or no event is left. The clock then stops at the first event past
    /// the horizon, displaced or not, where a single queue that kept the
    /// displaced events would stop; with none it stays at the last event
    /// popped.
    pub(crate) fn pop_due(&mut self) -> Option<(usize, E)> {
        let (lane, key) = self
            .heads
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|&(_, k)| k)?;
        let at = SimClock((key >> 64) as u64);
        if key == EMPTY || at > self.horizon {
            let live = (key != EMPTY).then_some(at);
            if let Some(first_late) = live.into_iter().chain(self.displaced_late).min() {
                self.now = first_late;
            }
            return None;
        }
        let q = &mut self.lanes[lane];
        let (_, payload) = q.pop_front()?;
        self.heads[lane] = q.front().map_or(EMPTY, |&(k, _)| k);
        self.now = at;
        Some((lane, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lanes<E>(n: usize) -> EventLanes<E> {
        let mut q = EventLanes::default();
        q.reset_lanes(n, SimClock(u64::MAX));
        q
    }

    fn drain<E>(q: &mut EventLanes<E>) -> Vec<E> {
        std::iter::from_fn(|| q.pop_due().map(|(_, e)| e)).collect()
    }

    #[test]
    fn clock_conversions_roundtrip() {
        let c = SimClock::from_millis_f64(12.5);
        assert_eq!(c.0, 12_500_000);
        assert!((c.as_millis_f64() - 12.5).abs() < 1e-9);
        assert!((c.as_secs_f64() - 0.0125).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_time_rejected() {
        SimClock::from_secs_f64(-1.0);
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut q = lanes(3);
        q.schedule_in_ns(0, 300, "c");
        q.schedule_in_ns(1, 100, "a");
        q.schedule_in_ns(2, 200, "b");
        assert_eq!(drain(&mut q), vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = lanes(3);
        q.schedule_in_ns(2, 100, 1);
        q.schedule_in_ns(0, 100, 2);
        q.schedule_in_ns(1, 100, 3);
        q.schedule_in_ns(0, 100, 4);
        assert_eq!(drain(&mut q), vec![1, 2, 3, 4]);
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut q = lanes(1);
        q.schedule_in_ns(0, 500, ());
        assert_eq!(q.now(), SimClock::ZERO);
        q.pop_due();
        assert_eq!(q.now(), SimClock(500));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "out of order")]
    fn scheduling_in_the_past_panics() {
        // Earlier than the lane's tail is the lane's past.
        let mut q = lanes(1);
        q.schedule_in_ns(0, 100, ());
        q.schedule_in_ns(0, 50, ());
    }

    #[test]
    fn relative_scheduling_is_from_now() {
        let mut q = lanes(2);
        q.schedule_in_ns(0, 100, "first");
        q.pop_due();
        q.schedule_in_ns(1, 100, "second");
        assert_eq!(q.pop_due(), Some((1, "second")));
        assert_eq!(q.now(), SimClock(200));
    }

    #[test]
    fn rearm_replaces_the_pending_event() {
        let mut q = lanes(2);
        q.rearm_in_secs(0, 1e-6, "stale");
        q.schedule_in_ns(1, 300, "packet");
        q.rearm_in_secs(0, 2e-7, "timer");
        assert_eq!(drain(&mut q), vec!["timer", "packet"]);
        assert_eq!(q.now(), SimClock(300));
    }

    #[test]
    fn horizon_stops_the_clock_at_the_first_late_event() {
        let mut q: EventLanes<&str> = EventLanes::default();
        q.reset_lanes(2, SimClock(1000));
        q.schedule_in_ns(0, 900, "due");
        q.schedule_in_ns(0, 1500, "late");
        q.rearm_in_secs(1, 1.2e-6, "displaced");
        q.rearm_in_secs(1, 2e-6, "live");
        assert_eq!(drain(&mut q), vec!["due"]);
        assert_eq!(q.now(), SimClock(1200));
    }

    #[test]
    fn interleaved_schedule_pop_matches_global_order() {
        // Mirror a pseudo-random workload against a reference queue that
        // holds every event, displaced ones as no-ops. Lanes 0–3 are
        // FIFOs; lanes 4–5 are slots rearmed in place.
        const HORIZON: u64 = 2_000_000;
        let mut q = EventLanes::default();
        q.reset_lanes(6, SimClock(HORIZON));
        // (at, seq, payload), payload `None` once displaced.
        let mut model: Vec<(u64, u64, Option<u64>)> = Vec::new();
        let mut model_now = 0u64;
        // Pops the model until a live event comes out or the run ends.
        let model_pop = |model: &mut Vec<(u64, u64, Option<u64>)>, now: &mut u64| loop {
            let (i, &(at, _, id)) = model
                .iter()
                .enumerate()
                .min_by_key(|&(_, &(at, s, _))| (at, s))?;
            *now = at;
            if at > HORIZON {
                return None;
            }
            model.remove(i);
            if id.is_some() {
                return id;
            }
        };
        let mut tails = [0u64; 4];
        let mut slots = [u64::MAX; 2];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut seq = 0u64;
        let mut ended = false;
        for id in 0u64.. {
            if !ended {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let lane = (state % 6) as usize;
                let delay = (state >> 8) % 400_000;
                let now = q.now().0;
                if let Some(tail) = tails.get_mut(lane) {
                    let at = (now + delay).max(*tail);
                    q.schedule_in_ns(lane, at - now, id);
                    *tail = at;
                    model.push((at, seq, Some(id)));
                } else {
                    let s = delay as f64 * 1e-9;
                    q.rearm_in_secs(lane, s, id);
                    let slot = &mut slots[lane - 4];
                    if let Some(e) = model.iter_mut().find(|e| e.1 == *slot) {
                        e.2 = None;
                    }
                    *slot = seq;
                    model.push((q.now().plus_secs_f64(s).0, seq, Some(id)));
                }
                seq += 1;
            }
            if id % 2 == 1 || ended {
                let got = q.pop_due().map(|(_, e)| e);
                assert_eq!(got, model_pop(&mut model, &mut model_now));
                assert_eq!(q.now().0, model_now);
                if got.is_none() {
                    break;
                }
                ended |= id > 3000;
            }
        }
        assert!(q.now().0 > HORIZON, "the run must end at the horizon");
        assert!(
            q.displaced_late.is_some(),
            "a displaced event must outlive it"
        );
    }

    #[test]
    fn reset_rewinds_and_reuses() {
        let mut q = lanes(2);
        q.schedule_in_ns(0, 100, "a");
        q.schedule_in_ns(1, 5_000_000_000, "far");
        q.pop_due();
        q.reset_lanes(3, SimClock(u64::MAX));
        assert_eq!(q.now(), SimClock::ZERO);
        assert_eq!(q.pop_due(), None);
        // Behaves exactly like a fresh set afterwards.
        q.schedule_in_ns(2, 300, "c");
        q.schedule_in_ns(0, 100, "a");
        q.schedule_in_ns(1, 100, "b");
        assert_eq!(drain(&mut q), vec!["a", "b", "c"]);
    }
}

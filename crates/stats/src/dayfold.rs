//! The §3.3 per-series, per-local-day congestion fold.
//!
//! Per series and server-local day the paper computes
//! `V(s,d) = (Tmax − Tmin) / Tmax`, skipping days with `Tmax ≤ 0`, and per
//! hourly sample `V_H(s,t) = (Tmax − T(s,t)) / Tmax`; hours with `V_H > H`
//! are congestion events. [`DayWindow`] is that fold for one day and
//! [`HourTally`] counts its events per local hour (Fig. 6) and per day
//! (Fig. 8). The batch analysis, the streaming engine and the serve
//! `congestion` verb all run on these types.
//! Callers reckon local days and hours; this crate knows no time zones.

/// One open (series, local-day) window: the raw `(time, value)` entries
/// in arrival order, kept until the day closes and its hours can be
/// normalized by the final `Tmax`.
#[derive(Debug, Clone, Default)]
pub struct DayWindow(Vec<(u64, f64)>);

impl DayWindow {
    /// Adds one sample.
    pub fn push(&mut self, t: u64, v: f64) {
        self.0.push((t, v));
    }

    /// The entries in arrival order.
    pub fn entries(&self) -> &[(u64, f64)] {
        &self.0
    }

    /// Seals the day. `None` when `Tmax ≤ 0` (an empty day included): a
    /// day with no positive throughput carries no signal. The extrema
    /// fold in arrival order; out-of-order entries are then stable-sorted
    /// by time, the time-series store's lazy re-sort, so equal timestamps
    /// keep arrival order.
    pub fn seal(self) -> Option<ClosedDay> {
        let mut entries = self.0;
        let t_max = entries.iter().fold(f64::NEG_INFINITY, |m, e| m.max(e.1));
        let t_min = entries.iter().fold(f64::INFINITY, |m, e| m.min(e.1));
        if t_max <= 0.0 {
            return None;
        }
        if !entries.is_sorted_by_key(|e| e.0) {
            entries.sort_by_key(|e| e.0);
        }
        Some(ClosedDay {
            v: (t_max - t_min) / t_max,
            t_max,
            t_min,
            entries,
        })
    }
}

/// A sealed day with positive `Tmax`.
#[derive(Debug, Clone)]
pub struct ClosedDay {
    /// `V(s,d) = (Tmax − Tmin) / Tmax`.
    pub v: f64,
    /// Daily maximum.
    pub t_max: f64,
    /// Daily minimum.
    pub t_min: f64,
    entries: Vec<(u64, f64)>,
}

impl ClosedDay {
    /// Samples in the day.
    pub fn n(&self) -> usize {
        self.entries.len()
    }

    /// `(time, value, V_H)` for every sample, in time order, with
    /// `V_H = (Tmax − value) / Tmax`.
    pub fn hours(&self) -> impl Iterator<Item = (u64, f64, f64)> + '_ {
        self.entries
            .iter()
            .map(|&(t, v)| (t, v, (self.t_max - v) / self.t_max))
    }
}

/// Congestion events and trials per server-local hour, plus days and
/// days with at least one event.
#[derive(Debug, Clone, Default)]
pub struct HourTally {
    /// Events (`V_H > H`) per local hour.
    pub events: [u32; 24],
    /// Samples per local hour.
    pub trials: [u32; 24],
    /// Closed days counted.
    pub days: u32,
    /// Closed days with at least one event.
    pub event_days: u32,
}

impl HourTally {
    /// Counts one sample at `local_hour`; hours past 23 count as 23.
    pub fn hour(&mut self, local_hour: u8, event: bool) {
        let h = usize::from(local_hour.min(23));
        if let (Some(t), Some(e)) = (self.trials.get_mut(h), self.events.get_mut(h)) {
            *t += 1;
            *e += u32::from(event);
        }
    }

    /// Counts one closed day.
    pub fn day(&mut self, had_event: bool) {
        self.days += 1;
        self.event_days += u32::from(had_event);
    }

    /// Events / trials per local hour, 0 where an hour has no trials.
    pub fn probability(&self) -> [f64; 24] {
        let mut out = [0.0; 24];
        for ((p, &e), &t) in out.iter_mut().zip(&self.events).zip(&self.trials) {
            if t > 0 {
                *p = f64::from(e) / f64::from(t);
            }
        }
        out
    }

    /// The Fig. 8 verdict: more than `min_day_fraction` of the days
    /// contain an event.
    pub fn congested(&self, min_day_fraction: f64) -> bool {
        self.days > 0 && f64::from(self.event_days) / f64::from(self.days) > min_day_fraction
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(entries: &[(u64, f64)]) -> DayWindow {
        let mut w = DayWindow::default();
        for &(t, v) in entries {
            w.push(t, v);
        }
        w
    }

    #[test]
    fn nonpositive_max_days_are_skipped() {
        assert!(DayWindow::default().seal().is_none());
        assert!(window(&[(0, 0.0), (1, 0.0), (2, -0.0)]).seal().is_none());
        assert!(window(&[(0, -3.0), (1, -1.0)]).seal().is_none());
        assert!(window(&[(0, -3.0), (1, 1e-300)]).seal().is_some());
    }

    #[test]
    fn out_of_order_day_sorts_stably_by_time() {
        let w = window(&[(20, 1.0), (10, 2.0), (20, 3.0), (10, 4.0), (30, 5.0)]);
        let day = w.seal().unwrap();
        let order: Vec<(u64, f64)> = day.hours().map(|(t, v, _)| (t, v)).collect();
        assert_eq!(
            order,
            vec![(10, 2.0), (10, 4.0), (20, 1.0), (20, 3.0), (30, 5.0)]
        );
        assert_eq!(day.n(), 5);
    }

    #[test]
    fn in_order_day_keeps_arrival_order() {
        let w = window(&[(1, 7.0), (1, 5.0), (2, 6.0)]);
        assert_eq!(w.entries(), &[(1, 7.0), (1, 5.0), (2, 6.0)]);
        let values: Vec<f64> = w.seal().unwrap().hours().map(|h| h.1).collect();
        assert_eq!(values, vec![7.0, 5.0, 6.0]);
    }

    #[test]
    fn variability_is_bitwise_the_paper_formula() {
        let values = [93.7, 12.25, 0.1 + 0.2, 101.3, 55.5];
        let entries: Vec<(u64, f64)> = (0u64..).zip(values).collect();
        let day = window(&entries).seal().unwrap();
        let (t_max, t_min) = (101.3, 0.1 + 0.2);
        assert_eq!(day.t_max.to_bits(), f64::to_bits(t_max));
        assert_eq!(day.t_min.to_bits(), f64::to_bits(t_min));
        assert_eq!(day.v.to_bits(), ((t_max - t_min) / t_max).to_bits());
        for ((_, v, v_h), &x) in day.hours().zip(&values) {
            assert_eq!(v.to_bits(), x.to_bits());
            assert_eq!(v_h.to_bits(), ((t_max - x) / t_max).to_bits());
        }
    }

    #[test]
    fn tally_counts_hour_23_and_clamps_past_it() {
        let mut t = HourTally::default();
        t.hour(23, true);
        t.hour(23, false);
        t.hour(200, true);
        t.hour(0, false);
        t.day(true);
        assert_eq!((t.events[23], t.trials[23]), (2, 3));
        assert_eq!((t.events[0], t.trials[0]), (0, 1));
        let p = t.probability();
        assert_eq!(p[23], 2.0 / 3.0);
        assert_eq!(p[0], 0.0);
        assert!(p[1..23].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn congested_uses_a_strict_fraction() {
        let mut t = HourTally::default();
        assert!(!t.congested(0.0), "no days, no verdict");
        for d in 0..10 {
            t.day(d == 0);
        }
        assert_eq!((t.days, t.event_days), (10, 1));
        assert!(!t.congested(0.1), "1/10 is not more than 10 %");
        assert!(t.congested(0.09));
    }
}

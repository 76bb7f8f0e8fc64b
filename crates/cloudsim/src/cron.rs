//! Hourly cron scheduling with randomized server order.
//!
//! "The measurement VMs execute the experiments as cron jobs hourly. We
//! also randomize the sequence of test servers to mitigate the
//! interference from potential periodic system events." (§3.2). A VM can
//! run at most 17 throughput tests per hour: each test takes ≤120 s, plus
//! a 20-minute traceroute window and 5 minutes for uploading.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use simnet::time::{SimTime, HOUR, MINUTE};

/// Per-hour time budget, per the paper.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HourBudget {
    /// Per-test wall-clock allowance, seconds.
    pub test_seconds: u64,
    /// Traceroute window at the end of the hour, seconds.
    pub traceroute_seconds: u64,
    /// Upload window, seconds.
    pub upload_seconds: u64,
}

use serde::{Deserialize, Serialize};

impl Default for HourBudget {
    fn default() -> Self {
        Self {
            test_seconds: 120,
            traceroute_seconds: 20 * MINUTE,
            upload_seconds: 5 * MINUTE,
        }
    }
}

impl HourBudget {
    /// Maximum tests one VM can run in an hour under this budget — 17
    /// with the paper's numbers.
    pub fn max_tests_per_hour(&self) -> usize {
        let usable = HOUR - self.traceroute_seconds - self.upload_seconds;
        (usable / self.test_seconds) as usize
    }
}

/// One scheduled test slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot<T: Copy> {
    /// The item measured in this slot.
    pub item: T,
    /// Absolute start time.
    pub start: SimTime,
}

/// Produces each hour's randomized execution order for one VM.
#[derive(Debug, Clone)]
pub struct CronSchedule {
    /// Budget in force.
    pub budget: HourBudget,
    /// Seed for per-hour shuffles.
    pub seed: u64,
}

impl CronSchedule {
    /// Creates a schedule with the default paper budget.
    pub fn new(seed: u64) -> Self {
        Self {
            budget: HourBudget::default(),
            seed,
        }
    }

    /// Lays out one hour of tests starting at `hour_start` for the given
    /// assignment (must fit the budget). The order is shuffled with a
    /// per-hour seed so "periodic system events" never hit the same
    /// server every hour.
    pub fn hour_slots<T: Copy>(&self, hour_start: SimTime, assigned: &[T]) -> Vec<Slot<T>> {
        assert!(
            assigned.len() <= self.budget.max_tests_per_hour(),
            "assignment exceeds the hourly budget"
        );
        let mut order: Vec<T> = assigned.to_vec();
        let mut rng =
            SmallRng::seed_from_u64(self.seed ^ hour_start.hour_index().wrapping_mul(0x9e37));
        order.shuffle(&mut rng);
        order
            .into_iter()
            .enumerate()
            .map(|(i, item)| Slot {
                item,
                start: hour_start + i as u64 * self.budget.test_seconds,
            })
            .collect()
    }

    /// VMs needed so every one of `n_servers` gets one test per hour.
    pub fn vms_needed(&self, n_servers: usize) -> usize {
        n_servers.div_ceil(self.budget.max_tests_per_hour())
    }

    /// Splits a server list across `n_vms` VMs round-robin.
    pub fn assign<T: Copy>(&self, servers: &[T], n_vms: usize) -> Vec<Vec<T>> {
        assert!(n_vms > 0, "need at least one VM");
        let mut out = vec![Vec::new(); n_vms];
        for (i, s) in servers.iter().enumerate() {
            out[i % n_vms].push(*s);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_yields_seventeen_tests() {
        assert_eq!(HourBudget::default().max_tests_per_hour(), 17);
    }

    #[test]
    fn vms_needed_matches_division() {
        let c = CronSchedule::new(1);
        assert_eq!(c.vms_needed(17), 1);
        assert_eq!(c.vms_needed(18), 2);
        assert_eq!(c.vms_needed(106), 7);
        assert_eq!(c.vms_needed(0), 0);
    }

    #[test]
    fn slots_fit_within_the_hour() {
        let c = CronSchedule::new(2);
        let servers: Vec<u32> = (0..17).collect();
        let start = SimTime::from_day_hour(3, 7);
        let slots = c.hour_slots(start, &servers);
        assert_eq!(slots.len(), 17);
        let last_end = slots.last().unwrap().start + c.budget.test_seconds;
        let tr_window_start =
            start + (HOUR - c.budget.traceroute_seconds - c.budget.upload_seconds);
        assert!(last_end <= tr_window_start + 1);
    }

    #[test]
    #[should_panic(expected = "exceeds the hourly budget")]
    fn over_assignment_panics() {
        let c = CronSchedule::new(2);
        let servers: Vec<u32> = (0..18).collect();
        c.hour_slots(SimTime::EPOCH, &servers);
    }

    #[test]
    fn order_is_shuffled_differently_each_hour() {
        let c = CronSchedule::new(3);
        let servers: Vec<u32> = (0..12).collect();
        let h0: Vec<u32> = c
            .hour_slots(SimTime::from_day_hour(0, 0), &servers)
            .iter()
            .map(|s| s.item)
            .collect();
        let h1: Vec<u32> = c
            .hour_slots(SimTime::from_day_hour(0, 1), &servers)
            .iter()
            .map(|s| s.item)
            .collect();
        assert_ne!(h0, h1, "hours should shuffle differently");
        // Same hour re-generates identically (idempotent cron).
        let h0_again: Vec<u32> = c
            .hour_slots(SimTime::from_day_hour(0, 0), &servers)
            .iter()
            .map(|s| s.item)
            .collect();
        assert_eq!(h0, h0_again);
        // All servers covered exactly once.
        let mut sorted = h0.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, servers);
    }

    #[test]
    fn assignment_round_robins() {
        let c = CronSchedule::new(4);
        let servers: Vec<u32> = (0..40).collect();
        let per_vm = c.assign(&servers, 3);
        assert_eq!(per_vm.len(), 3);
        assert_eq!(per_vm[0].len(), 14);
        assert_eq!(per_vm[1].len(), 13);
        assert_eq!(per_vm[2].len(), 13);
        let total: usize = per_vm.iter().map(Vec::len).sum();
        assert_eq!(total, 40);
    }
}

//! A scamper-like batch probing engine.
//!
//! CLASP budgets "20 minutes to conduct traceroute measurements" per
//! hourly cycle (§3.2); the engine tracks probing cost so the campaign
//! planner can honour that budget, and fans traceroutes out over target
//! lists and flow-id sweeps (the bdrmap pilot scan probes each target
//! with several flow ids to expose ECMP-parallel border interfaces).
//! [`Scamper::paris_sweep`] runs the paris sweep folded per distinct
//! path, for consumers that read only hop addresses.

use crate::traceroute::{paris_responsive_ips, traceroute, TraceMode, Traceroute};
use simnet::geo::CityId;
use simnet::routing::{Direction, Paths, Tier};
use simnet::topology::{AsId, LinkId};
use std::net::Ipv4Addr;

/// A traceroute target.
#[derive(Debug, Clone, Copy)]
pub struct Target {
    /// Destination AS.
    pub as_id: AsId,
    /// Destination city.
    pub city: CityId,
    /// Destination address.
    pub ip: Ipv4Addr,
}

/// Batch probing engine with a probing-rate model.
#[derive(Debug, Clone, Copy)]
pub struct Scamper {
    /// Probes per second the engine is allowed to emit.
    pub probe_rate_pps: u32,
    /// Probes sent per hop (attempts).
    pub attempts_per_hop: u32,
}

impl Default for Scamper {
    fn default() -> Self {
        Self {
            probe_rate_pps: 100,
            attempts_per_hop: 1,
        }
    }
}

impl Scamper {
    /// Runs one paris/classic traceroute per (target, flow id) pair.
    #[allow(clippy::too_many_arguments)]
    pub fn trace_many(
        &self,
        paths: &Paths<'_>,
        region_city: CityId,
        vm_ip: Ipv4Addr,
        targets: &[Target],
        tier: Tier,
        mode: TraceMode,
        flows_per_target: u64,
        seed: u64,
    ) -> Vec<Traceroute> {
        let mut out = Vec::with_capacity(targets.len() * flows_per_target as usize);
        for (i, t) in targets.iter().enumerate() {
            for flow in 0..flows_per_target {
                let flow_id = sweep_flow_id(i, flow);
                if let Some(trace) = traceroute(
                    paths,
                    region_city,
                    vm_ip,
                    t.as_id,
                    t.city,
                    t.ip,
                    tier,
                    mode,
                    flow_id,
                    seed,
                ) {
                    out.push(trace);
                }
            }
        }
        out
    }

    /// The paris-mode sweep of [`trace_many`](Self::trace_many), folded
    /// per path instead of recorded per trace. For each target, in order,
    /// `visit(responsive_ips, flows)` is called once per distinct path its
    /// flow ids resolve onto, in first-seen order, where `flows` counts the
    /// target's flow ids that resolved onto that path. `responsive_ips`
    /// are the responsive hops `trace_many` records for each of those
    /// flows in [`TraceMode::Paris`]. No RTT jitter is drawn, so no seed
    /// is needed.
    ///
    /// A target's route is resolved once. Its flows differ only in the
    /// border interface the ECMP hash puts them on, so they are grouped
    /// by that interface and each distinct path is built once, then
    /// dropped.
    #[allow(clippy::too_many_arguments)]
    pub fn paris_sweep(
        &self,
        paths: &Paths<'_>,
        region_city: CityId,
        vm_ip: Ipv4Addr,
        targets: &[Target],
        tier: Tier,
        flows_per_target: u64,
        mut visit: impl FnMut(&[Ipv4Addr], u32),
    ) {
        let mut distinct: Vec<(LinkId, u32)> = Vec::new();
        let mut ips: Vec<Ipv4Addr> = Vec::new();
        for (i, t) in targets.iter().enumerate() {
            let Some(route) = paths.vm_host_route(
                region_city,
                vm_ip,
                t.as_id,
                t.city,
                t.ip,
                tier,
                Direction::ToServer,
            ) else {
                continue;
            };
            distinct.clear();
            for flow in 0..flows_per_target {
                let link = route.flow_link(sweep_flow_id(i, flow));
                match distinct.iter_mut().find(|(l, _)| *l == link) {
                    Some((_, flows)) => *flows += 1,
                    None => distinct.push((link, 1)),
                }
            }
            for &(link, flows) in &distinct {
                if let Some(path) = paths.path_via(&route, link) {
                    paris_responsive_ips(&path, t.ip, &mut ips);
                    visit(&ips, flows);
                }
            }
        }
    }

    /// Estimated wall-clock duration of a batch, seconds: probes emitted
    /// at the configured rate (one probe per hop per attempt).
    pub fn estimated_duration_s(&self, traces: &[Traceroute]) -> f64 {
        let probes: u64 = traces
            .iter()
            .map(|t| t.hops.len() as u64 * self.attempts_per_hop as u64)
            .sum();
        probes as f64 / self.probe_rate_pps as f64
    }

    /// Maximum number of targets a time budget allows, assuming
    /// `avg_hops` hops per trace.
    pub fn targets_within_budget(&self, budget_s: f64, avg_hops: f64) -> usize {
        assert!(avg_hops > 0.0);
        let per_trace_s = avg_hops * self.attempts_per_hop as f64 / self.probe_rate_pps as f64;
        (budget_s / per_trace_s).floor() as usize
    }
}

/// The flow id of target `i`'s `flow`-th sweep probe. Flow ids are
/// target-salted so two targets in the same AS don't probe identical
/// five-tuples.
fn sweep_flow_id(i: usize, flow: u64) -> u64 {
    simnet::routing::load_key(b"scamper", i as u64, flow).rotate_left(7)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::topology::{Topology, TopologyConfig};

    fn targets(topo: &Topology, n: usize) -> Vec<Target> {
        topo.non_cloud_ases()
            .take(n)
            .map(|id| {
                let city = topo.as_node(id).home_city;
                Target {
                    as_id: id,
                    city,
                    ip: topo.host_ip(id, city, 0),
                }
            })
            .collect()
    }

    #[test]
    fn trace_many_produces_one_trace_per_flow() {
        let topo = Topology::generate(TopologyConfig::tiny(61));
        let paths = Paths::new(&topo);
        let region = topo.cities.by_name("The Dalles").unwrap();
        let ts = targets(&topo, 5);
        let traces = Scamper::default().trace_many(
            &paths,
            region,
            topo.vm_ip(region, 0),
            &ts,
            Tier::Premium,
            TraceMode::Paris,
            3,
            1,
        );
        assert_eq!(traces.len(), 15);
        assert!(traces.iter().all(|t| t.reached));
    }

    /// Each target's recorded paris traces, grouped by responsive hops
    /// in first-seen order, are exactly the sweep's visits.
    #[test]
    fn paris_sweep_folds_recorded_traces() {
        let topo = Topology::generate(TopologyConfig::tiny(63));
        let paths = Paths::new(&topo);
        let region = topo.cities.by_name("The Dalles").unwrap();
        let vm = topo.vm_ip(region, 0);
        let ts = targets(&topo, 40);
        let traces = Scamper::default().trace_many(
            &paths,
            region,
            vm,
            &ts,
            Tier::Premium,
            TraceMode::Paris,
            16,
            5,
        );
        let mut expected: Vec<(Vec<Ipv4Addr>, u32)> = Vec::new();
        for target in traces.chunk_by(|a, b| a.dst == b.dst) {
            let first = expected.len();
            for trace in target {
                let ips = trace.responsive_ips();
                match expected[first..].iter_mut().find(|(g, _)| *g == ips) {
                    Some((_, n)) => *n += 1,
                    None => expected.push((ips, 1)),
                }
            }
        }
        let mut visits: Vec<(Vec<Ipv4Addr>, u32)> = Vec::new();
        Scamper::default().paris_sweep(&paths, region, vm, &ts, Tier::Premium, 16, |ips, n| {
            visits.push((ips.to_vec(), n))
        });
        assert_eq!(visits, expected);
        let flows: u32 = visits.iter().map(|v| v.1).sum();
        assert!(
            visits.len() < flows as usize,
            "{} paths for {flows} flows",
            visits.len()
        );
    }

    #[test]
    fn duration_estimate_scales_with_traces() {
        let topo = Topology::generate(TopologyConfig::tiny(62));
        let paths = Paths::new(&topo);
        let region = topo.cities.by_name("The Dalles").unwrap();
        let ts = targets(&topo, 8);
        let engine = Scamper::default();
        let traces = engine.trace_many(
            &paths,
            region,
            topo.vm_ip(region, 0),
            &ts,
            Tier::Premium,
            TraceMode::Paris,
            1,
            1,
        );
        let d = engine.estimated_duration_s(&traces);
        assert!(d > 0.0);
        let half = engine.estimated_duration_s(&traces[..4]);
        assert!(half < d);
    }

    #[test]
    fn budget_sizing() {
        let engine = Scamper {
            probe_rate_pps: 100,
            attempts_per_hop: 1,
        };
        // 20 minutes, 12 hops per trace → 100*1200/12 = 10_000 targets.
        assert_eq!(engine.targets_within_budget(1200.0, 12.0), 10_000);
    }

    #[test]
    fn flow_salting_differs_across_targets() {
        // Two targets must not end up with the same flow id for flow 0.
        assert_ne!(sweep_flow_id(0, 0), sweep_flow_id(1, 0));
    }
}

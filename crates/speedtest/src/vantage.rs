//! Speedchecker-style edge vantage points.
//!
//! The differential-based selection starts with "a preliminary test to
//! measure latency to GCP regions using Speedchecker, which has vantage
//! points in more than 10,000 networks and 200 countries" (§3.1). Here,
//! vantage points are end hosts spread across `<city, AS>` tuples of the
//! topology, one per `<city, AS>` tuple; [`VantageSet::probe_tiers`]
//! hands each tuple's latency samples toward a region's VMs, tier by
//! tier, to a visitor that reduces them to medians and latency classes.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simnet::geo::CityId;
use simnet::perf::PerfModel;
use simnet::routing::{Direction, Paths, Tier};
use simnet::time::SimTime;
use simnet::topology::{AsId, Topology};
use std::net::Ipv4Addr;

/// One edge vantage point.
#[derive(Debug, Clone, Copy)]
pub struct VantagePoint {
    /// Index within the set.
    pub id: u32,
    /// Host AS.
    pub as_id: AsId,
    /// Host city.
    pub city: CityId,
    /// Host address.
    pub ip: Ipv4Addr,
}

/// A generated population of vantage points.
#[derive(Debug, Clone)]
pub struct VantageSet {
    /// All vantage points.
    pub vps: Vec<VantagePoint>,
}

impl VantageSet {
    /// Generates vantage points: one per `<city, AS>` pair where the AS
    /// serves end users (access ISPs dominate, as on Speedchecker).
    pub fn generate(topo: &Topology, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xdead_beef);
        let mut vps = Vec::new();
        for id in topo.non_cloud_ases() {
            let node = topo.as_node(id);
            let p_vp = match node.role {
                simnet::asn::AsRole::AccessIsp => 0.9,
                simnet::asn::AsRole::Education => 0.5,
                simnet::asn::AsRole::Business => 0.3,
                _ => 0.1,
            };
            for &city in &node.cities {
                if rng.random::<f64>() < p_vp {
                    vps.push(VantagePoint {
                        id: vps.len() as u32,
                        as_id: id,
                        city,
                        ip: topo.host_ip(id, city, 15),
                    });
                }
            }
        }
        Self { vps }
    }

    /// Probes latency from every VP to a VM in `region_city` on both
    /// tiers, `probes` times spread hourly from `start`. This mirrors the
    /// paper's requirement of >100 measurements per tuple.
    ///
    /// `visit(vp, tier, rtts_ms)` receives each (VP, tier)'s round-trip
    /// times in probe order, VP by VP with premium first; a (VP, tier)
    /// without a route in both directions is skipped. The slice lives in
    /// one buffer reused across calls. Returns how many distinct path
    /// segments had their queueing delay computed (see
    /// [`simnet::perf::QueueSeries`]).
    #[allow(clippy::too_many_arguments)]
    pub fn probe_tiers(
        &self,
        paths: &Paths<'_>,
        perf: &PerfModel<'_>,
        region_city: CityId,
        vm_ip: Ipv4Addr,
        start: SimTime,
        probes: u32,
        seed: u64,
        mut visit: impl FnMut(&VantagePoint, Tier, &[f64]),
    ) -> u64 {
        let instants = (0..probes)
            .map(|k| start + (k as u64) * simnet::time::HOUR)
            .collect();
        // Every VP's path into the region crosses the same cloud and
        // transit segments: their queueing delay at the probe instants
        // is computed once for the whole call.
        let mut queues = perf.queue_series(instants);
        let mut rtts: Vec<f64> = Vec::with_capacity(probes as usize);
        for vp in &self.vps {
            for tier in [Tier::Premium, Tier::Standard] {
                // Resolve once; evaluate at many instants.
                let fwd = paths.vm_host_path(
                    region_city,
                    vm_ip,
                    vp.as_id,
                    vp.city,
                    vp.ip,
                    tier,
                    Direction::ToServer,
                );
                let rev = paths.vm_host_path(
                    region_city,
                    vm_ip,
                    vp.as_id,
                    vp.city,
                    vp.ip,
                    tier,
                    Direction::ToCloud,
                );
                let (Some(fwd), Some(rev)) = (fwd, rev) else {
                    continue;
                };
                // Compiled paths mark the segments that never queue;
                // `QueueSeries::idle_rtt_ms` is bit-identical to
                // `idle_rtt_ms_eval`, and so to `idle_rtt_ms`.
                let (cfwd, crev) = (perf.compile(&fwd), perf.compile(&rev));
                queues.idle_rtt_ms(&cfwd, &crev, &mut rtts);
                for (k, rtt) in rtts.iter_mut().enumerate() {
                    let jitter_h =
                        simnet::routing::load_key(b"vpjit", seed ^ vp.id as u64, k as u64);
                    *rtt += (jitter_h >> 11) as f64 / (1u64 << 53) as f64 * 2.2;
                }
                visit(vp, tier, &rtts);
            }
        }
        queues.distinct_segments()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::load::LoadModel;
    use simnet::topology::TopologyConfig;

    #[test]
    fn generation_covers_many_city_as_tuples() {
        let topo = Topology::generate(TopologyConfig::tiny(91));
        let set = VantageSet::generate(&topo, 1);
        assert!(set.vps.len() > 30, "{} VPs", set.vps.len());
        // Unique (as, city) tuples.
        let mut tuples: Vec<(AsId, CityId)> = set.vps.iter().map(|v| (v.as_id, v.city)).collect();
        let n = tuples.len();
        tuples.sort_unstable();
        tuples.dedup();
        assert_eq!(tuples.len(), n, "duplicate tuples");
    }

    #[test]
    fn full_scale_has_thousands_of_vps() {
        let topo = Topology::generate(TopologyConfig::default());
        let set = VantageSet::generate(&topo, 1);
        assert!(
            set.vps.len() > 1_000,
            "{} VPs (Speedchecker-scale coverage)",
            set.vps.len()
        );
    }

    #[test]
    fn probes_cover_both_tiers_and_are_positive() {
        let topo = Topology::generate(TopologyConfig::tiny(92));
        let paths = Paths::new(&topo);
        let perf = PerfModel::new(&topo, LoadModel::new(2));
        let set = VantageSet::generate(&topo, 1);
        let region = topo.cities.by_name("St. Ghislain").unwrap();
        let mut visits: Vec<(u32, Tier, Vec<f64>)> = Vec::new();
        set.probe_tiers(
            &paths,
            &perf,
            region,
            topo.vm_ip(region, 0),
            SimTime::EPOCH,
            4,
            1,
            |vp, tier, rtts| visits.push((vp.id, tier, rtts.to_vec())),
        );
        assert!(!visits.is_empty());
        assert!(visits.iter().any(|v| v.1 == Tier::Premium));
        assert!(visits.iter().any(|v| v.1 == Tier::Standard));
        assert!(visits.iter().all(|v| v.2.iter().all(|&rtt| rtt > 0.0)));
        // Each VP × tier gets `probes` samples.
        let per_vp: usize = visits
            .iter()
            .filter(|v| v.0 == visits[0].0)
            .map(|v| v.2.len())
            .sum();
        assert_eq!(per_vp, 8);
    }

    #[test]
    fn generation_is_deterministic() {
        let topo = Topology::generate(TopologyConfig::tiny(93));
        let a = VantageSet::generate(&topo, 5);
        let b = VantageSet::generate(&topo, 5);
        assert_eq!(a.vps.len(), b.vps.len());
        assert!(a.vps.iter().zip(&b.vps).all(|(x, y)| x.ip == y.ip));
    }
}

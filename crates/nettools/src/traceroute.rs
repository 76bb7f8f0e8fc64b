//! Traceroute over the simulated topology.
//!
//! CLASP runs `scamper` paris-traceroutes to every test server after each
//! throughput test (§3.2). Two modes are modelled:
//!
//! * **Paris**: the probe five-tuple is held constant, so every TTL sees
//!   the same ECMP choice and the reported path is internally consistent;
//! * **Classic**: the flow id varies per TTL, so probes can take
//!   different parallel interfaces across an ECMP group and the reported
//!   path can mix interfaces of different physical links — the artefact
//!   paris-traceroute was built to fix.
//!
//! Hop RTTs are `2 × one-way latency to the hop` plus per-probe jitter;
//! a small fraction of routers are silent (`*` hops), like real networks.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simnet::geo::CityId;
use simnet::routing::{Direction, Hop, Paths, RouterPath, Tier};
use simnet::topology::{AsId, LinkId};
use std::net::Ipv4Addr;

/// Traceroute probing mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Stable flow id for all TTLs (scamper's paris-traceroute).
    Paris,
    /// Per-TTL flow id (classic traceroute).
    Classic,
}

/// One responded (or silent) hop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceHop {
    /// TTL of the probe.
    pub ttl: u8,
    /// Responding interface, `None` for a silent hop (`*`).
    pub ip: Option<Ipv4Addr>,
    /// Probe RTT in ms (meaningless for silent hops).
    pub rtt_ms: f64,
}

/// A completed traceroute.
#[derive(Debug, Clone)]
pub struct Traceroute {
    /// Destination probed.
    pub dst: Ipv4Addr,
    /// Flow identifier used (paris) or base flow id (classic).
    pub flow_id: u64,
    /// Probing mode.
    pub mode: TraceMode,
    /// Hops in TTL order.
    pub hops: Vec<TraceHop>,
    /// Whether the destination answered.
    pub reached: bool,
}

impl Traceroute {
    /// IPs of responsive hops, in order.
    pub fn responsive_ips(&self) -> Vec<Ipv4Addr> {
        self.hops.iter().filter_map(|h| h.ip).collect()
    }

    /// RTT reported at the final (destination) hop, if reached.
    pub fn dst_rtt_ms(&self) -> Option<f64> {
        if !self.reached {
            return None;
        }
        self.hops
            .iter()
            .rev()
            .find(|h| h.ip.is_some())
            .map(|h| h.rtt_ms)
    }
}

/// Fraction of non-endpoint routers that never answer probes.
const SILENT_HOP_RATE: f64 = 0.05;

/// Runs a traceroute from a VM in `region_city` to
/// (`dst_as`, `dst_city`, `dst_ip`) under `tier`.
///
/// `probe_seed` controls jitter and silent-hop selection; `flow_id` is
/// the five-tuple identity (per-connection for paris).
#[allow(clippy::too_many_arguments)]
pub fn traceroute(
    paths: &Paths<'_>,
    region_city: CityId,
    vm_ip: Ipv4Addr,
    dst_as: AsId,
    dst_city: CityId,
    dst_ip: Ipv4Addr,
    tier: Tier,
    mode: TraceMode,
    flow_id: u64,
    probe_seed: u64,
) -> Option<Traceroute> {
    let mut rng = SmallRng::seed_from_u64(probe_seed ^ flow_id);
    let mut hops: Vec<TraceHop> = Vec::new();

    // In paris mode, one path serves every TTL. In classic mode, each
    // TTL re-hashes with a different flow id, so the ECMP choice (and
    // hence the border interface) can flap between probes; the route is
    // flow-independent, so each TTL only picks an interface, and the
    // trace builds one path per distinct interface it sees.
    let route = paths.vm_host_route(
        region_city,
        vm_ip,
        dst_as,
        dst_city,
        dst_ip,
        tier,
        Direction::ToServer,
    )?;
    let first = route.flow_link(flow_id);
    let first_path = paths.path_via(&route, first)?;
    let n_hops = first_path.hops.len();
    let mut per_link: Vec<(LinkId, RouterPath)> = vec![(first, first_path)];
    let hop_at = |ttl: usize| {
        let link = match mode {
            TraceMode::Paris => first,
            TraceMode::Classic => route.flow_link(flow_id.wrapping_add(ttl as u64)),
        };
        if !per_link.iter().any(|(l, _)| *l == link) {
            per_link.push((link, paths.path_via(&route, link)?));
        }
        let (_, path) = per_link.iter().find(|(l, _)| *l == link)?;
        // A classic path over another interface can differ in length;
        // clamp.
        path.hops
            .get(ttl.min(path.hops.len().saturating_sub(1)))
            .copied()
    };
    let reached = probe_ttls(n_hops, dst_ip, hop_at, |ttl, hop, ip| {
        let jitter = rng.random::<f64>() * 1.4;
        hops.push(TraceHop {
            ttl: ttl as u8,
            ip,
            rtt_ms: hop.oneway_ms * 2.0 + jitter,
        });
    })?;

    Some(Traceroute {
        dst: dst_ip,
        flow_id,
        mode,
        hops,
        reached,
    })
}

/// The silent-hop/destination rule every probe follows. Walks TTLs
/// `1..n_hops`, where `hop_at(ttl)` is the hop that TTL's probe expires
/// at, and hands `visit` each TTL with its hop and the interface that
/// answers (`None` for a silent router). The destination always answers
/// and ends the walk. Returns whether it answered, or `None` when
/// `hop_at` finds no hop.
fn probe_ttls(
    n_hops: usize,
    dst_ip: Ipv4Addr,
    mut hop_at: impl FnMut(usize) -> Option<Hop>,
    mut visit: impl FnMut(usize, &Hop, Option<Ipv4Addr>),
) -> Option<bool> {
    for ttl in 1..n_hops {
        let hop = hop_at(ttl)?;
        let is_dst = hop.ip == dst_ip;
        let silent_draw = (simnet::routing::load_key(b"silent", u64::from(u32::from(hop.ip)), 0)
            >> 11) as f64
            / (1u64 << 53) as f64;
        let silent = !is_dst && silent_draw < SILENT_HOP_RATE;
        visit(ttl, &hop, (!silent).then_some(hop.ip));
        if is_dst {
            return Some(true);
        }
    }
    Some(false)
}

/// The responsive hops a paris [`traceroute`] along `path` to `dst_ip`
/// records, in TTL order, written into `out` (cleared first). Paris mode
/// resolves one path for every TTL, so these depend on the path alone:
/// no RTT jitter is drawn.
pub fn paris_responsive_ips(path: &RouterPath, dst_ip: Ipv4Addr, out: &mut Vec<Ipv4Addr>) {
    out.clear();
    let hop_at = |ttl: usize| path.hops.get(ttl).copied();
    probe_ttls(path.hops.len(), dst_ip, hop_at, |_, _, ip| out.extend(ip));
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::topology::{Topology, TopologyConfig};

    fn setup() -> Topology {
        Topology::generate(TopologyConfig::tiny(31))
    }

    fn target(topo: &Topology) -> (AsId, CityId, Ipv4Addr) {
        let id = topo
            .non_cloud_ases()
            .find(|id| matches!(topo.as_node(*id).role, simnet::asn::AsRole::AccessIsp))
            .unwrap();
        let city = topo.as_node(id).home_city;
        (id, city, topo.host_ip(id, city, 0))
    }

    #[test]
    fn paris_traceroute_reaches_destination() {
        let topo = setup();
        let paths = Paths::new(&topo);
        let region = topo.cities.by_name("The Dalles").unwrap();
        let (dst_as, dst_city, dst_ip) = target(&topo);
        let t = traceroute(
            &paths,
            region,
            topo.vm_ip(region, 0),
            dst_as,
            dst_city,
            dst_ip,
            Tier::Premium,
            TraceMode::Paris,
            7,
            1,
        )
        .unwrap();
        assert!(t.reached);
        assert_eq!(t.hops.last().unwrap().ip, Some(dst_ip));
        assert!(t.hops.len() >= 4, "{} hops", t.hops.len());
    }

    #[test]
    fn rtts_increase_with_ttl() {
        let topo = setup();
        let paths = Paths::new(&topo);
        let region = topo.cities.by_name("Council Bluffs").unwrap();
        let (dst_as, dst_city, dst_ip) = target(&topo);
        let t = traceroute(
            &paths,
            region,
            topo.vm_ip(region, 0),
            dst_as,
            dst_city,
            dst_ip,
            Tier::Premium,
            TraceMode::Paris,
            7,
            1,
        )
        .unwrap();
        // Modulo jitter (≤1.4 ms), RTTs are nondecreasing.
        for w in t.hops.windows(2) {
            assert!(w[1].rtt_ms >= w[0].rtt_ms - 2.0);
        }
    }

    #[test]
    fn paris_is_stable_across_runs_with_same_flow() {
        let topo = setup();
        let paths = Paths::new(&topo);
        let region = topo.cities.by_name("The Dalles").unwrap();
        let (dst_as, dst_city, dst_ip) = target(&topo);
        let run = |fid| {
            traceroute(
                &paths,
                region,
                topo.vm_ip(region, 0),
                dst_as,
                dst_city,
                dst_ip,
                Tier::Premium,
                TraceMode::Paris,
                fid,
                1,
            )
            .unwrap()
            .responsive_ips()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn different_flows_can_take_different_border_interfaces() {
        // Find a neighbor with parallel interfaces at the chosen PoP and
        // check that flow ids spread across them.
        let topo = Topology::generate(TopologyConfig::tiny(33));
        let paths = Paths::new(&topo);
        let neighbor = topo
            .non_cloud_ases()
            .filter(|id| !topo.links_to(*id).is_empty())
            .max_by_key(|id| topo.links_to(*id).len())
            .unwrap();
        let anchor = topo.as_node(neighbor).home_city;
        let chosen: std::collections::BTreeSet<_> = (0..64)
            .filter_map(|f| paths.pick_link_with_flow(neighbor, anchor, f))
            .collect();
        let pop = topo.link(*chosen.iter().next().unwrap()).pop;
        let parallel = paths.parallel_links(neighbor, pop).len();
        if parallel > 1 {
            assert!(chosen.len() > 1, "ECMP should spread flows");
        } else {
            assert_eq!(chosen.len(), 1);
        }
    }

    #[test]
    fn silent_hops_are_marked_not_dropped() {
        // Across many destinations some hop should be silent; the hop
        // list still carries an entry with ip=None.
        let topo = setup();
        let paths = Paths::new(&topo);
        let region = topo.cities.by_name("The Dalles").unwrap();
        let mut saw_silent = false;
        for id in topo.non_cloud_ases() {
            let node = topo.as_node(id);
            let city = node.home_city;
            let ip = topo.host_ip(id, city, 0);
            if let Some(t) = traceroute(
                &paths,
                region,
                topo.vm_ip(region, 0),
                id,
                city,
                ip,
                Tier::Premium,
                TraceMode::Paris,
                3,
                9,
            ) {
                if t.hops.iter().any(|h| h.ip.is_none()) {
                    saw_silent = true;
                    break;
                }
            }
        }
        assert!(saw_silent, "expected at least one silent hop somewhere");
    }

    #[test]
    fn dst_rtt_reported_when_reached() {
        let topo = setup();
        let paths = Paths::new(&topo);
        let region = topo.cities.by_name("The Dalles").unwrap();
        let (dst_as, dst_city, dst_ip) = target(&topo);
        let t = traceroute(
            &paths,
            region,
            topo.vm_ip(region, 0),
            dst_as,
            dst_city,
            dst_ip,
            Tier::Standard,
            TraceMode::Paris,
            1,
            2,
        )
        .unwrap();
        let rtt = t.dst_rtt_ms().unwrap();
        assert!(rtt > 0.0 && rtt < 400.0, "rtt = {rtt}");
    }

    #[test]
    fn traceroutes_are_pinned() {
        // FNV-1a over the `Debug` dump of paris and classic traceroutes
        // from two regions to every non-cloud AS, under both tiers, for
        // four flow ids: every hop, silent marker and RTT bit is pinned.
        let topo = setup();
        let paths = Paths::new(&topo);
        let mut dump = String::new();
        for region in ["The Dalles", "St. Ghislain"] {
            let region = topo.cities.by_name(region).unwrap();
            let vm_ip = topo.vm_ip(region, 0);
            for id in topo.non_cloud_ases() {
                let city = topo.as_node(id).cities[0];
                let ip = topo.host_ip(id, city, 0);
                for tier in [Tier::Premium, Tier::Standard] {
                    for mode in [TraceMode::Paris, TraceMode::Classic] {
                        for flow in 0..4 {
                            let t = traceroute(
                                &paths, region, vm_ip, id, city, ip, tier, mode, flow, 5,
                            );
                            dump.push_str(&format!("{t:?}"));
                        }
                    }
                }
            }
        }
        let h = dump.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
        });
        assert_eq!(h, 0x7512_0fcd_f42f_353c);
    }
}

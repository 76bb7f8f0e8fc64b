//! Topology-based server selection (§3.1, method 1).
//!
//! From a VM in each region:
//!
//! 1. run a `bdrmap` pilot scan to discover the region's interdomain
//!    links (Table 1 column 1). The scan sweeps 16 ECMP flow ids over
//!    two cities of every AS, but most flows of a target share one path,
//!    so it folds each distinct path into bdrmap once, weighted by its
//!    flows, instead of recording a traceroute per flow;
//! 2. run paris-traceroutes to every US speed-test server, resolve hops
//!    with prefix-to-AS, and match them against the bdrmap far-side IPs —
//!    this groups servers by the border link they traverse (column 2 is
//!    the number of groups);
//! 3. from each group, pick the server with the shortest AS-path length
//!    to the region (ties: lowest traceroute RTT);
//! 4. apply the per-region measurement budget (the paper deployed 106 /
//!    25 / 184 / 40 / 56 servers; budget, not method, set those counts).

use crate::world::World;
use nettools::bdrmap::{BdrMap, SimAliasResolver};
use nettools::scamper::{Scamper, Target};
use nettools::traceroute::{traceroute, TraceMode};
use simnet::geo::CityId;
use simnet::routing::{Paths, Tier};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// The stable per-destination-prefix egress discriminator: all traffic
/// from a region toward one `<AS, city>` prefix uses the same border
/// interface.
pub fn prefix_flow(asn: u32, city: u16, region_city: u16) -> u64 {
    simnet::routing::load_key(
        b"prefix",
        asn as u64,
        ((city as u64) << 16) | region_city as u64,
    )
}

/// Result of the topology-based selection for one region.
#[derive(Debug, Clone)]
pub struct TopologySelection {
    /// Region name this selection was computed for.
    pub region: String,
    /// Interdomain links bdrmap discovered in the pilot scan.
    pub bdrmap_links: usize,
    /// Distinct border links traversed by traceroutes to all US servers.
    pub links_traversed: usize,
    /// Selected server ids (one per border link, budget-capped).
    pub servers: Vec<String>,
    /// For each selected server: the far-side IP of its border link.
    pub server_link: HashMap<String, Ipv4Addr>,
    /// Pilot-scan flows the bdrmap fold stands for (one paris trace each).
    pub pilot_flows: u64,
    /// Distinct pilot-scan paths folded into bdrmap.
    pub pilot_paths: u64,
}

impl TopologySelection {
    /// Coverage of the US-traversed links by the selected servers.
    pub fn coverage(&self) -> f64 {
        if self.links_traversed == 0 {
            return 0.0;
        }
        self.servers.len() as f64 / self.links_traversed as f64
    }
}

/// Pilot-scan probing parameters.
#[derive(Debug, Clone, Copy)]
pub struct PilotConfig {
    /// Flow ids probed per bdrmap target (ECMP sweep).
    pub flows_per_target: u64,
    /// Cities sampled per AS in the bdrmap scan.
    pub cities_per_as: usize,
    /// Alias-resolution coverage.
    pub alias_coverage: f64,
    /// Probe seed.
    pub seed: u64,
}

impl Default for PilotConfig {
    fn default() -> Self {
        Self {
            flows_per_target: 16,
            cities_per_as: 2,
            alias_coverage: 0.85,
            seed: 0xb0a7,
        }
    }
}

/// Runs the full topology-based selection for one region against the
/// world's current registry.
pub fn select(
    world: &World,
    paths: &Paths<'_>,
    region_name: &str,
    region_city: CityId,
    budget: usize,
    pilot: &PilotConfig,
) -> TopologySelection {
    select_with_registry(
        world,
        &world.registry,
        paths,
        region_name,
        region_city,
        budget,
        pilot,
    )
}

/// The pilot scan's targets: the first `cities_per_as` cities of every
/// non-cloud AS.
fn scan_targets(world: &World, pilot: &PilotConfig) -> Vec<Target> {
    let topo = &world.topo;
    topo.non_cloud_ases()
        .flat_map(|id| {
            let cities = topo.as_node(id).cities.iter().take(pilot.cities_per_as);
            cities.map(move |&city| Target {
                as_id: id,
                city,
                ip: topo.host_ip(id, city, 0),
            })
        })
        .collect()
}

/// Step 1: the region's bdrmap pilot scan, with the flows it stands for
/// and the distinct paths it folded. Only hop IPs feed bdrmap, and a
/// paris trace's hops are a function of its path, so each distinct path
/// of a target's ECMP sweep is folded once, weighted by its flows.
fn pilot_scan(
    world: &World,
    paths: &Paths<'_>,
    region_city: CityId,
    pilot: &PilotConfig,
) -> (BdrMap, u64, u64) {
    let mut bdr = BdrMap::default();
    let (mut flows_total, mut paths_total) = (0u64, 0u64);
    Scamper::default().paris_sweep(
        paths,
        region_city,
        world.topo.vm_ip(region_city, 0),
        &scan_targets(world, pilot),
        Tier::Premium,
        pilot.flows_per_target,
        |hops, flows| {
            bdr.observe(hops, flows, &world.p2a, simnet::topology::CLOUD_ASN);
            flows_total += u64::from(flows);
            paths_total += 1;
        },
    );
    bdr.resolve_aliases(&SimAliasResolver::new(&world.topo, pilot.alias_coverage));
    (bdr, flows_total, paths_total)
}

/// [`select`] against an explicit registry — used by the automatic
/// re-selection of §5 to run the pilot against an updated server list.
pub fn select_with_registry(
    world: &World,
    registry: &speedtest::platform::ServerRegistry,
    paths: &Paths<'_>,
    region_name: &str,
    region_city: CityId,
    budget: usize,
    pilot: &PilotConfig,
) -> TopologySelection {
    let topo = &world.topo;
    let vm_ip = topo.vm_ip(region_city, 0);

    // --- 1. bdrmap pilot scan over the whole routed Internet. ---
    let (bdr, pilot_flows, pilot_paths) = pilot_scan(world, paths, region_city, pilot);

    // --- 2. traceroute to all US servers; group by far-side IP. ---
    let us_servers: Vec<&speedtest::platform::Server> = registry.in_country("US");
    // group: far-side IP → (server id, as-path len, rtt)
    let mut groups: HashMap<Ipv4Addr, Vec<(String, u32, f64)>> = HashMap::new();
    for server in us_servers.iter() {
        // Egress interface assignment is per destination prefix (BGP picks
        // one best path per prefix), not per five-tuple: servers in the
        // same <AS, city> share an interface. This is what makes 75–92 %
        // of servers share interconnections with others (§4).
        let flow = prefix_flow(server.asn.0, server.city.0, region_city.0);
        let Some(trace) = traceroute(
            paths,
            region_city,
            vm_ip,
            server.as_id,
            server.city,
            server.ip,
            Tier::Premium,
            TraceMode::Paris,
            flow,
            pilot.seed ^ 1,
        ) else {
            continue;
        };
        // Match responsive hops against bdrmap-identified far-side IPs.
        // The border is the *last* matching hop: early cloud hops can
        // appear in the bdrmap set when a trace elsewhere had silent
        // interfaces, but the true far side is always the deepest match.
        let far = trace
            .responsive_ips()
            .into_iter()
            .rev()
            .find(|ip| bdr.links.contains_key(ip));
        let Some(far_ip) = far else { continue };
        let Some(len) = paths.routing().as_path_len(topo.cloud, server.as_id) else {
            continue;
        };
        let rtt = trace.dst_rtt_ms().unwrap_or(f64::INFINITY);
        groups
            .entry(far_ip)
            .or_default()
            .push((server.id.clone(), len, rtt));
    }
    let links_traversed = groups.len();

    // --- 3. one server per link: shortest AS path, then lowest RTT. ---
    let mut chosen: Vec<(Ipv4Addr, String, u32, f64)> = groups
        .into_iter()
        .filter_map(|(far, mut cands)| {
            cands.sort_by(|a, b| a.1.cmp(&b.1).then(a.2.total_cmp(&b.2)).then(a.0.cmp(&b.0)));
            let best = cands.into_iter().next()?;
            Some((far, best.0, best.1, best.2))
        })
        .collect();

    // --- 4. budget: prefer direct peering and low latency. ---
    chosen.sort_by(|a, b| a.2.cmp(&b.2).then(a.3.total_cmp(&b.3)).then(a.1.cmp(&b.1)));
    chosen.truncate(budget);

    let server_link: HashMap<String, Ipv4Addr> = chosen
        .iter()
        .map(|(far, id, _, _)| (id.clone(), *far))
        .collect();
    let servers: Vec<String> = chosen.into_iter().map(|(_, id, _, _)| id).collect();

    TopologySelection {
        region: region_name.to_string(),
        bdrmap_links: bdr.link_count(),
        links_traversed,
        servers,
        server_link,
        pilot_flows,
        pilot_paths,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;

    fn run_tiny(budget: usize) -> (World, TopologySelection) {
        let world = World::tiny(101);
        let sel = {
            let session = world.session();
            let region = world.topo.cities.by_name("The Dalles").unwrap();
            select(
                &world,
                &session.paths,
                "us-west1",
                region,
                budget,
                &PilotConfig::default(),
            )
        };
        (world, sel)
    }

    #[test]
    fn selection_discovers_links_and_picks_servers() {
        let (_, sel) = run_tiny(100);
        assert!(sel.bdrmap_links > 10, "bdrmap links = {}", sel.bdrmap_links);
        assert!(
            sel.links_traversed > 3,
            "links traversed = {}",
            sel.links_traversed
        );
        assert!(!sel.servers.is_empty());
        assert!(sel.servers.len() <= sel.links_traversed);
        assert!(sel.coverage() <= 1.0);
    }

    #[test]
    fn one_server_per_link() {
        let (_, sel) = run_tiny(100);
        // Each selected server maps to a distinct far-side IP.
        let mut fars: Vec<Ipv4Addr> = sel.server_link.values().copied().collect();
        let n = fars.len();
        fars.sort_unstable();
        fars.dedup();
        assert_eq!(fars.len(), n);
        assert_eq!(sel.server_link.len(), sel.servers.len());
    }

    #[test]
    fn budget_caps_selection() {
        let (_, unbounded) = run_tiny(1000);
        let (_, capped) = run_tiny(3);
        assert_eq!(capped.servers.len(), 3.min(unbounded.servers.len()));
        // The capped set prefers short AS paths: it must be a subset of
        // the unbounded set.
        for s in &capped.servers {
            assert!(unbounded.servers.contains(s));
        }
    }

    #[test]
    fn selected_servers_exist_in_registry() {
        let (world, sel) = run_tiny(50);
        for id in &sel.servers {
            let s = world.registry.by_id(id).expect("selected server exists");
            assert_eq!(s.country, "US");
        }
    }

    /// The folded pilot scan infers exactly the map that recording every
    /// flow's traceroute and running `BdrMap::infer` over them does.
    #[test]
    fn folded_pilot_equals_inference_over_recorded_traces() {
        let pilot = PilotConfig::default();
        for seed in [101, 102] {
            let world = World::tiny(seed);
            let session = world.session();
            for region in cloudsim::ProviderProfile::gcp().topo_regions() {
                let city = region.city_id(&world.topo.cities);
                let (folded, flows, n_paths) = pilot_scan(&world, &session.paths, city, &pilot);
                let traces = Scamper::default().trace_many(
                    &session.paths,
                    city,
                    world.topo.vm_ip(city, 0),
                    &scan_targets(&world, &pilot),
                    Tier::Premium,
                    TraceMode::Paris,
                    pilot.flows_per_target,
                    pilot.seed,
                );
                let aliases = SimAliasResolver::new(&world.topo, pilot.alias_coverage);
                let inferred =
                    BdrMap::infer(&traces, &world.p2a, simnet::topology::CLOUD_ASN, &aliases);
                let label = format!("seed {seed} {}", region.name);
                assert_eq!(flows, traces.len() as u64, "{label}");
                assert!(n_paths > 0 && n_paths < flows, "{label}: {n_paths} paths");
                assert!(folded.link_count() > 0, "{label}");
                assert_eq!(folded.link_count(), inferred.link_count(), "{label}");
                for (a, b) in folded.links.values().zip(inferred.links.values()) {
                    assert_eq!(a.far_ip, b.far_ip, "{label}");
                    assert_eq!(a.near_ip, b.near_ip, "{label}");
                    assert_eq!(a.votes, b.votes, "{label}");
                    assert_eq!(a.alias_owner, b.alias_owner, "{label}");
                    assert_eq!(a.trace_count, b.trace_count, "{label}");
                }
            }
        }
    }

    #[test]
    fn selection_is_deterministic() {
        let (_, a) = run_tiny(20);
        let (_, b) = run_tiny(20);
        assert_eq!(a.servers, b.servers);
        assert_eq!(a.bdrmap_links, b.bdrmap_links);
    }
}

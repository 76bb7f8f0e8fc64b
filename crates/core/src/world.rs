//! The shared measurement environment.
//!
//! A [`World`] owns everything the campaign needs that outlives a borrow:
//! the generated topology, the crawled speed-test server registry, the
//! prefix-to-AS dataset and the load-model seed. A [`Session`] borrows a
//! world and adds the per-run machinery (routing caches, the perf model).
//!
//! Construction is deterministic in the seed: two worlds with the same
//! seed are identical, which is what makes every figure regenerable.

use cloudsim::provider::ProviderProfile;
use simnet::load::LoadModel;
use simnet::perf::PerfModel;
use simnet::prefix2as::PrefixToAs;
use simnet::routing::Paths;
use simnet::topology::{Topology, TopologyConfig};
use speedtest::platform::ServerRegistry;

/// The default campaign seed used across examples and experiments.
pub const DEFAULT_SEED: u64 = 0x5EED_CA1D;

/// Owned measurement environment.
pub struct World {
    /// The cloud provider hosting this world's VMs.
    pub provider: ProviderProfile,
    /// The generated Internet + cloud.
    pub topo: Topology,
    /// Crawled speed-test servers.
    pub registry: ServerRegistry,
    /// Prefix-to-AS dataset built from the topology.
    pub p2a: PrefixToAs,
    /// Seed for the link-load model.
    pub load_seed: u64,
}

impl World {
    /// Builds the full-scale world for a seed (default GCP provider).
    pub fn new(seed: u64) -> Self {
        Self::with_config(TopologyConfig {
            seed,
            ..TopologyConfig::default()
        })
    }

    /// Builds a world from an explicit topology configuration, hosted by
    /// the default GCP provider.
    pub fn with_config(config: TopologyConfig) -> Self {
        Self::for_provider(ProviderProfile::gcp().clone(), config)
    }

    /// Builds a world hosted by an arbitrary provider profile. The
    /// topology's region PoPs follow the provider's region cities unless
    /// the config already overrides them.
    pub fn for_provider(provider: ProviderProfile, mut config: TopologyConfig) -> Self {
        if config.region_cities.is_none() && provider.name != "gcp" {
            config.region_cities = Some(provider.regions.iter().map(|r| r.city.clone()).collect());
        }
        let seed = config.seed;
        let topo = Topology::generate(config);
        let registry = ServerRegistry::crawl(&topo, seed ^ 0x7e57);
        let p2a = PrefixToAs::build(&topo);
        Self {
            provider,
            topo,
            registry,
            p2a,
            load_seed: seed ^ 0x10ad,
        }
    }

    /// A scaled-down world for unit tests.
    pub fn tiny(seed: u64) -> Self {
        Self::with_config(TopologyConfig::tiny(seed))
    }

    /// A scaled-down world for a specific provider.
    pub fn tiny_for_provider(provider: ProviderProfile, seed: u64) -> Self {
        Self::for_provider(provider, TopologyConfig::tiny(seed))
    }

    /// Server id → local UTC offset (hours), the map streaming consumers
    /// need to reckon days and hours in server-local time without holding
    /// a `World`. Servers absent from the map default to offset 0, which
    /// is also what the batch analysis does for unknown ids.
    pub fn server_utc_offsets(&self) -> std::collections::BTreeMap<String, i32> {
        self.registry
            .servers
            .iter()
            .map(|s| (s.id.clone(), self.topo.cities.get(s.city).utc_offset_hours))
            .collect()
    }

    /// Opens a session: cold routing and path caches plus the perf
    /// model, borrowed from self. The caches memoise pure functions of
    /// the topology, so a session's history never changes a result, and
    /// a cold one is cheap: cloud-anchored AS paths need no full routing
    /// table apart from one toward the cloud.
    pub fn session(&self) -> Session<'_> {
        Session {
            paths: Paths::new(&self.topo),
            perf: PerfModel::new(&self.topo, LoadModel::new(self.load_seed)),
        }
    }
}

/// Borrowed per-run machinery.
pub struct Session<'w> {
    /// Router-level path construction (with routing-table caches).
    pub paths: Paths<'w>,
    /// The performance model.
    pub perf: PerfModel<'w>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worlds_are_deterministic() {
        let a = World::tiny(5);
        let b = World::tiny(5);
        assert_eq!(a.topo.links.len(), b.topo.links.len());
        assert_eq!(a.registry.servers.len(), b.registry.servers.len());
        assert_eq!(a.load_seed, b.load_seed);
    }

    #[test]
    fn session_borrows_world() {
        let w = World::tiny(6);
        let s = w.session();
        let region = w.topo.cities.by_name("The Dalles").unwrap();
        let leaf = w.topo.non_cloud_ases().next().unwrap();
        let city = w.topo.as_node(leaf).home_city;
        let path = s.paths.vm_host_path(
            region,
            w.topo.vm_ip(region, 0),
            leaf,
            city,
            w.topo.host_ip(leaf, city, 0),
            simnet::routing::Tier::Premium,
            simnet::routing::Direction::ToServer,
        );
        assert!(path.is_some());
    }

    /// Fingerprint of a canonical dump of a generated world: FNV-1a over
    /// the `Debug` form of its ASes, edges, adjacency, links, cloud PoPs
    /// and crawled servers. `Debug` prints every field, in declaration
    /// order, and an `f64` as the shortest string that parses back to the
    /// same bits, so a change to any generated value changes the hash.
    fn world_fingerprint(w: &World) -> u64 {
        let t = &w.topo;
        faultsim::name_key(&format!(
            "{:?}{:?}{:?}{:?}{:?}{:?}",
            t.ases, t.edges, t.adjacency, t.links, t.cloud_pops, w.registry.servers
        ))
    }

    #[test]
    fn generated_worlds_are_pinned() {
        // The world is the substrate of every figure, so generation is
        // pinned byte for byte: a change to `Topology::generate` or the
        // crawl that moves any AS, edge, link, PoP or server fails here.
        // The paper seed at full scale, the tiny scale at two seeds, and
        // a non-GCP provider, whose region cities override the PoP list.
        let nimbus = ProviderProfile::nimbus().clone();
        let cases = [
            ("paper", World::new(DEFAULT_SEED), 0xd629_8b17_3a9d_183a),
            ("tiny 5", World::tiny(5), 0xbb84_8766_11ef_876d),
            ("tiny 11", World::tiny(11), 0x3a92_7826_8638_2bca),
            (
                "nimbus tiny 3",
                World::tiny_for_provider(nimbus, 3),
                0xd69a_aea0_b327_7f91,
            ),
        ];
        for (name, world, pinned) in &cases {
            assert_eq!(world_fingerprint(world), *pinned, "{name}");
        }
    }

    #[test]
    fn registry_and_p2a_agree_on_server_asns() {
        let w = World::tiny(7);
        for s in w.registry.servers.iter().take(30) {
            let (_, asn) = w.p2a.lookup(s.ip).expect("server IPs are routed");
            assert_eq!(asn, s.asn);
        }
    }
}

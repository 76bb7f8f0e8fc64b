//! Topology generation: the AS graph, the cloud, and interdomain links.
//!
//! A [`Topology`] is generated deterministically from a [`TopologyConfig`]
//! (which carries the seed). It contains:
//!
//! * a population of ASes with roles (tier-1, transit, access ISP, hosting,
//!   education, business), geographic footprints and address space;
//! * Gao–Rexford relationships between them (customer/provider/peer);
//! * one cloud AS with PoPs in many cities and **interdomain links** — the
//!   unit that `bdrmap` counts in Table 1. Each link is a router interface
//!   pair at a PoP; the far-side interface is numbered from the *cloud's*
//!   address space (as real PNIs usually are), which is precisely what
//!   makes naive prefix-to-AS border inference wrong and `bdrmap`
//!   necessary;
//! * named "storyline" ASes reproducing the networks the paper discusses
//!   (Cox AS22773, Cogent AS174, Smarterbroadband AS46276, unWired
//!   AS33548, Suddenlink AS19108, Vortex AS136334, Joister AS45194,
//!   Telstra AS1221), each with the congestion behaviour §4.2 reports.

use crate::asn::{AsRelationship, AsRole, Asn, BusinessType};
use crate::geo::{CityDb, CityId};
use crate::ip::{AddressPlanner, Prefix};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

/// Index of an AS inside a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AsId(pub u32);

/// Index of a cloud interdomain link inside a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LinkId(pub u32);

/// Index of a non-cloud AS-to-AS edge inside a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EdgeId(pub u32);

/// How a network's load profile behaves over the day. Assigned per AS (for
/// its ingress aggregation) and per cloud link; consumed by `crate::load`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CongestionClass {
    /// Comfortably provisioned; throughput varies only with noise.
    Clean,
    /// Mild diurnal swing, rarely congests.
    Mild,
    /// Tight in local evening peak hours (the FCC's 7–11 pm) — throughput
    /// collapses by more than half on bad days.
    PeakCongested,
    /// Congested through the working day (the Cox pattern in §4.2).
    DaytimeCongested,
    /// Degraded around the clock (the Smarterbroadband pattern in §4.2).
    AllDayCongested,
}

/// An autonomous system in the generated topology.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AsNode {
    /// Public AS number.
    pub asn: Asn,
    /// Display name (real names for storyline ASes, synthetic otherwise).
    pub name: String,
    /// Structural role.
    pub role: AsRole,
    /// Headquarters / main service city.
    pub home_city: CityId,
    /// Cities where the AS has infrastructure (includes `home_city`).
    pub cities: Vec<CityId>,
    /// Address space originated by this AS.
    pub prefixes: Vec<Prefix>,
    /// What an ipinfo.io-style lookup returns (sometimes `Unknown`).
    pub lookup_type: BusinessType,
    /// Ground-truth congestion behaviour of the AS's aggregation network.
    pub congestion: CongestionClass,
    /// Indices of provider ASes (whom this AS buys transit from).
    pub providers: Vec<AsId>,
    /// Indices of peer ASes.
    pub peers: Vec<AsId>,
    /// Indices of customer ASes.
    pub customers: Vec<AsId>,
    /// Whether this AS peers directly with the cloud.
    pub peers_with_cloud: bool,
}

/// A relationship edge between two non-cloud ASes, carrying capacity and a
/// congestion class for the shared interconnect.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AsEdge {
    /// First endpoint.
    pub a: AsId,
    /// Second endpoint.
    pub b: AsId,
    /// Relationship of `a` with respect to `b`.
    pub rel: AsRelationship,
    /// Interconnect city (latency anchor and local-time anchor).
    pub city: CityId,
    /// Capacity in Gbps, per direction.
    pub capacity_gbps: f64,
    /// Congestion behaviour of the interconnect itself.
    pub congestion: CongestionClass,
}

/// One cloud interdomain link: a PNI/IXP interface pair between the cloud
/// and a neighbor AS at a PoP. This is the unit `bdrmap` discovers and
/// Table 1 counts ("represented by the unique far-side IPs").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InterdomainLink {
    /// Stable id.
    pub id: LinkId,
    /// The non-cloud endpoint.
    pub neighbor: AsId,
    /// PoP city where the interfaces sit.
    pub pop: CityId,
    /// Cloud-side router interface address.
    pub near_ip: Ipv4Addr,
    /// Neighbor-side router interface address. Deliberately numbered from
    /// the cloud's address space.
    pub far_ip: Ipv4Addr,
    /// Capacity in Gbps, per direction.
    pub capacity_gbps: f64,
    /// Congestion behaviour of this interconnect (usually `Clean`; the
    /// storyline links override this).
    pub congestion: CongestionClass,
}

/// Generation parameters. `Default` matches the scale of the paper's
/// measurements (≈6k interdomain links per region, ≈1.3k US speed-test
/// servers in ≈800 ASes — the servers themselves are placed by the
/// `speedtest` crate on top of this population).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TopologyConfig {
    /// Master seed; every derived structure is a pure function of it.
    pub seed: u64,
    /// Tier-1 backbone count.
    pub n_tier1: usize,
    /// Transit provider count.
    pub n_transit: usize,
    /// US access ISPs.
    pub n_access_us: usize,
    /// Non-US access ISPs.
    pub n_access_intl: usize,
    /// Hosting networks.
    pub n_hosting: usize,
    /// Education networks.
    pub n_education: usize,
    /// Enterprise networks.
    pub n_business: usize,
    /// Fraction of access ISPs that peer directly with the cloud.
    pub access_peering_fraction: f64,
    /// Fraction of hosting networks that peer directly with the cloud.
    pub hosting_peering_fraction: f64,
    /// Average parallel interfaces per (neighbor, PoP) pair.
    pub mean_parallel_interfaces: f64,
    /// Fraction of access ISPs whose aggregation is `PeakCongested`.
    pub peak_congested_fraction: f64,
    /// Fraction of access ISPs whose aggregation is `Mild`.
    pub mild_fraction: f64,
    /// Probability an ipinfo-style lookup returns `Unknown`.
    pub lookup_miss_rate: f64,
    /// Cloud region host cities that must get PoPs even when their city
    /// weight is below the PoP threshold. `None` keeps the built-in GCP
    /// list (byte-identical to the pre-provider topology); a
    /// multi-provider world passes its provider's region cities.
    pub region_cities: Option<Vec<String>>,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        Self {
            seed: 0x5EED_CA1D,
            n_tier1: 8,
            n_transit: 45,
            n_access_us: 560,
            n_access_intl: 170,
            n_hosting: 190,
            n_education: 60,
            n_business: 4900,
            access_peering_fraction: 0.08,
            hosting_peering_fraction: 0.35,
            mean_parallel_interfaces: 1.5,
            peak_congested_fraction: 0.68,
            mild_fraction: 0.25,
            lookup_miss_rate: 0.06,
            region_cities: None,
        }
    }
}

impl TopologyConfig {
    /// A scaled-down configuration for fast unit tests.
    pub fn tiny(seed: u64) -> Self {
        Self {
            seed,
            n_tier1: 3,
            n_transit: 6,
            n_access_us: 40,
            n_access_intl: 12,
            n_hosting: 12,
            n_education: 5,
            n_business: 15,
            ..Self::default()
        }
    }
}

/// Storyline ASes from §4.2 of the paper, injected with their real names,
/// AS numbers, service areas and congestion behaviour.
struct Storyline {
    asn: u32,
    name: &'static str,
    role: AsRole,
    home: &'static str,
    extra_cities: &'static [&'static str],
    congestion: CongestionClass,
    peers_with_cloud: bool,
}

const STORYLINES: &[Storyline] = &[
    Storyline {
        asn: 22773,
        name: "Cox Communications",
        role: AsRole::AccessIsp,
        home: "San Diego",
        extra_cities: &["Las Vegas", "Anaheim", "Phoenix", "Tulsa", "New Orleans"],
        congestion: CongestionClass::DaytimeCongested,
        peers_with_cloud: true,
    },
    Storyline {
        asn: 33548,
        name: "unWired Broadband",
        role: AsRole::AccessIsp,
        home: "Fresno",
        extra_cities: &["Bakersfield"],
        congestion: CongestionClass::PeakCongested,
        peers_with_cloud: false,
    },
    Storyline {
        asn: 19108,
        name: "Suddenlink Communications",
        role: AsRole::AccessIsp,
        home: "Tulsa",
        extra_cities: &["El Paso", "Tucson"],
        congestion: CongestionClass::PeakCongested,
        peers_with_cloud: true,
    },
    Storyline {
        asn: 46276,
        name: "Smarterbroadband",
        role: AsRole::AccessIsp,
        home: "Grass Valley",
        extra_cities: &[],
        congestion: CongestionClass::AllDayCongested,
        peers_with_cloud: false,
    },
    Storyline {
        asn: 174,
        name: "Cogent Communications",
        role: AsRole::Transit,
        home: "Washington",
        extra_cities: &[
            "New York",
            "Chicago",
            "Dallas",
            "Los Angeles",
            "San Jose",
            "Denver",
            "Atlanta",
            "Miami",
            "Seattle",
            "Frankfurt",
            "Paris",
            "London",
        ],
        congestion: CongestionClass::PeakCongested,
        peers_with_cloud: true,
    },
    Storyline {
        asn: 7922,
        name: "Comcast Cable",
        role: AsRole::AccessIsp,
        home: "Philadelphia",
        extra_cities: &[
            "Chicago",
            "Denver",
            "Seattle",
            "San Francisco",
            "Boston",
            "Atlanta",
            "Houston",
            "Miami",
            "Washington",
            "Salt Lake City",
            "Portland",
            "Sacramento",
            "Minneapolis",
            "Pittsburgh",
            "Nashville",
        ],
        congestion: CongestionClass::Mild,
        peers_with_cloud: true,
    },
    Storyline {
        asn: 7018,
        name: "AT&T Internet Services",
        role: AsRole::AccessIsp,
        home: "Dallas",
        extra_cities: &[
            "Atlanta",
            "Chicago",
            "Los Angeles",
            "San Francisco",
            "Miami",
            "St. Louis",
            "Detroit",
            "Houston",
            "San Antonio",
            "Nashville",
        ],
        congestion: CongestionClass::Mild,
        peers_with_cloud: true,
    },
    Storyline {
        asn: 701,
        name: "Verizon Business",
        role: AsRole::AccessIsp,
        home: "New York",
        extra_cities: &[
            "Washington",
            "Boston",
            "Philadelphia",
            "Baltimore",
            "Richmond",
            "Tampa",
            "Dallas",
        ],
        congestion: CongestionClass::Mild,
        peers_with_cloud: true,
    },
    Storyline {
        asn: 20115,
        name: "Charter Communications",
        role: AsRole::AccessIsp,
        home: "St. Louis",
        extra_cities: &[
            "Los Angeles",
            "Dallas",
            "Charlotte",
            "Milwaukee",
            "Columbus",
            "Buffalo",
            "Louisville",
        ],
        congestion: CongestionClass::Mild,
        peers_with_cloud: true,
    },
    Storyline {
        asn: 209,
        name: "CenturyLink Communications",
        role: AsRole::Transit,
        home: "Denver",
        extra_cities: &[
            "Seattle",
            "Minneapolis",
            "Phoenix",
            "Salt Lake City",
            "Omaha",
        ],
        congestion: CongestionClass::Mild,
        peers_with_cloud: true,
    },
    Storyline {
        asn: 136334,
        name: "Vortex Netsol Private Limited",
        role: AsRole::AccessIsp,
        home: "Mumbai",
        extra_cities: &["Delhi"],
        congestion: CongestionClass::PeakCongested,
        peers_with_cloud: false,
    },
    Storyline {
        asn: 45194,
        name: "Joister Broadband",
        role: AsRole::AccessIsp,
        home: "Mumbai",
        extra_cities: &["Chennai"],
        congestion: CongestionClass::PeakCongested,
        peers_with_cloud: false,
    },
    Storyline {
        asn: 1221,
        name: "Telstra",
        role: AsRole::AccessIsp,
        home: "Sydney",
        extra_cities: &["Melbourne"],
        congestion: CongestionClass::PeakCongested,
        peers_with_cloud: true,
    },
];

/// The cloud AS number used in the topology (Google's).
pub const CLOUD_ASN: Asn = Asn(15169);

/// The generated Internet: ASes, edges, the cloud and its links.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Configuration that produced this topology.
    pub config: TopologyConfig,
    /// City database (static).
    pub cities: CityDb,
    /// AS population; index = `AsId`.
    pub ases: Vec<AsNode>,
    /// Non-cloud relationship edges.
    pub edges: Vec<AsEdge>,
    /// Adjacency: per-AS list of `(edge index, other endpoint)`.
    pub adjacency: Vec<Vec<(EdgeId, AsId)>>,
    /// Cloud PoP cities.
    pub cloud_pops: Vec<CityId>,
    /// Cloud interdomain links.
    pub links: Vec<InterdomainLink>,
    /// Links grouped by neighbor AS (ordered for canonical iteration).
    pub links_by_neighbor: BTreeMap<AsId, Vec<LinkId>>,
    /// The `AsId` of the cloud AS.
    pub cloud: AsId,
    /// Map ASN → AsId.
    asn_index: HashMap<Asn, AsId>,
}

impl Topology {
    /// Generates a topology from the configuration. Pure function of the
    /// config (including the seed).
    pub fn generate(config: TopologyConfig) -> Self {
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let cities = CityDb;
        let us_cities = cities.in_country("US");
        let intl_cities: Vec<CityId> = cities
            .ids()
            .filter(|id| cities.get(*id).country != "US")
            .collect();

        // Address plan: cloud gets 8.0.0.0/12-ish worth of space; ASes get
        // /16 … /20 blocks; interconnect /30s come from a dedicated cloud
        // pool so prefix2as attributes them to the cloud.
        let mut planner = AddressPlanner::new(Ipv4Addr::new(16, 0, 0, 0), 1 << 30);
        let cloud_service_prefix = planner.alloc(10).expect("address pool sized for this");
        let cloud_p2p_prefix = planner.alloc(14).expect("address pool sized for this");

        let mut ases: Vec<AsNode> = Vec::new();
        let mut asn_index = HashMap::new();
        let mut next_asn: u32 = 2000;
        let mut alloc_asn = |taken: &HashMap<Asn, AsId>| -> Asn {
            loop {
                next_asn += 7;
                let asn = Asn(next_asn);
                if !taken.contains_key(&asn) {
                    return asn;
                }
            }
        };

        // --- Cloud AS (index 0) ---
        let cloud_id = AsId(0);
        ases.push(AsNode {
            asn: CLOUD_ASN,
            name: "CloudPlatform".to_string(),
            role: AsRole::Cloud,
            home_city: cities.by_name("Council Bluffs").expect("region city"),
            cities: vec![],
            prefixes: vec![cloud_service_prefix, cloud_p2p_prefix],
            lookup_type: BusinessType::Hosting,
            congestion: CongestionClass::Clean,
            providers: vec![],
            peers: vec![],
            customers: vec![],
            peers_with_cloud: false,
        });
        asn_index.insert(CLOUD_ASN, cloud_id);

        let push_as =
            |ases: &mut Vec<AsNode>, asn_index: &mut HashMap<Asn, AsId>, node: AsNode| -> AsId {
                let id = AsId(ases.len() as u32);
                asn_index.insert(node.asn, id);
                ases.push(node);
                id
            };

        // Helper: sample `n` cities weighted by population weight.
        let pick_cities = |rng: &mut SmallRng, pool: &[CityId], n: usize| -> Vec<CityId> {
            let mut chosen: Vec<CityId> = Vec::new();
            let total: f64 = pool.iter().map(|c| cities.get(*c).weight).sum();
            let mut guard = 0;
            while chosen.len() < n.min(pool.len()) && guard < 10_000 {
                guard += 1;
                let mut x = rng.random::<f64>() * total;
                for &c in pool {
                    x -= cities.get(c).weight;
                    if x <= 0.0 {
                        if !chosen.contains(&c) {
                            chosen.push(c);
                        }
                        break;
                    }
                }
            }
            chosen
        };

        let congestion_class = |rng: &mut SmallRng, cfg: &TopologyConfig| -> CongestionClass {
            let x = rng.random::<f64>();
            if x < cfg.peak_congested_fraction {
                CongestionClass::PeakCongested
            } else if x < cfg.peak_congested_fraction + cfg.mild_fraction {
                CongestionClass::Mild
            } else {
                CongestionClass::Clean
            }
        };

        let lookup_for = |rng: &mut SmallRng, role: AsRole, miss: f64| -> BusinessType {
            if rng.random::<f64>() < miss {
                BusinessType::Unknown
            } else {
                role.business_type()
            }
        };

        // --- Storyline ASes ---
        for s in STORYLINES {
            let home = cities.by_name(s.home).expect("storyline city exists");
            let mut as_cities = vec![home];
            for c in s.extra_cities {
                as_cities.push(cities.by_name(c).expect("storyline city exists"));
            }
            let prefix_len = if as_cities.len() > 8 { 13 } else { 16 };
            let node = AsNode {
                asn: Asn(s.asn),
                name: s.name.to_string(),
                role: s.role,
                home_city: home,
                cities: as_cities,
                prefixes: vec![planner.alloc(prefix_len).expect("pool sized")],
                lookup_type: s.role.business_type(),
                congestion: s.congestion,
                providers: vec![],
                peers: vec![],
                customers: vec![],
                peers_with_cloud: s.peers_with_cloud,
            };
            push_as(&mut ases, &mut asn_index, node);
        }

        // --- Tier-1 backbones ---
        let mut tier1_ids: Vec<AsId> = vec![asn_index[&Asn(174)], asn_index[&Asn(209)]];
        for i in tier1_ids.len()..config.n_tier1 {
            let home = pick_cities(&mut rng, &us_cities, 1)[0];
            let mut footprint = pick_cities(&mut rng, &us_cities, 14);
            footprint.extend(pick_cities(&mut rng, &intl_cities, 6));
            if !footprint.contains(&home) {
                footprint.push(home);
            }
            let asn = alloc_asn(&asn_index);
            let node = AsNode {
                asn,
                name: format!("Backbone-{}", i + 1),
                role: AsRole::Tier1,
                home_city: home,
                cities: footprint,
                prefixes: vec![planner.alloc(13).expect("pool sized")],
                lookup_type: lookup_for(&mut rng, AsRole::Tier1, config.lookup_miss_rate),
                congestion: CongestionClass::Clean,
                providers: vec![],
                peers: vec![],
                customers: vec![],
                peers_with_cloud: true,
            };
            tier1_ids.push(push_as(&mut ases, &mut asn_index, node));
        }

        // --- Transit providers ---
        let mut transit_ids: Vec<AsId> = Vec::new();
        for i in 0..config.n_transit {
            let is_intl = rng.random::<f64>() < 0.25;
            let pool = if is_intl { &intl_cities } else { &us_cities };
            let n_fp = 4 + rng.random_range(0..5);
            let footprint = pick_cities(&mut rng, pool, n_fp);
            let home = footprint[0];
            let asn = alloc_asn(&asn_index);
            let node = AsNode {
                asn,
                name: format!("Transit-{}", i + 1),
                role: AsRole::Transit,
                home_city: home,
                cities: footprint,
                prefixes: vec![planner.alloc(15).expect("pool sized")],
                lookup_type: lookup_for(&mut rng, AsRole::Transit, config.lookup_miss_rate),
                congestion: if rng.random::<f64>() < 0.12 {
                    CongestionClass::PeakCongested
                } else {
                    CongestionClass::Clean
                },
                providers: vec![],
                peers: vec![],
                customers: vec![],
                peers_with_cloud: rng.random::<f64>() < 0.95,
            };
            transit_ids.push(push_as(&mut ases, &mut asn_index, node));
        }

        // --- Access ISPs, hosting, education, business ---
        let mut leaf_specs: Vec<(AsRole, bool)> = Vec::new();
        for _ in 0..config.n_access_us {
            leaf_specs.push((AsRole::AccessIsp, false));
        }
        for _ in 0..config.n_access_intl {
            leaf_specs.push((AsRole::AccessIsp, true));
        }
        for _ in 0..config.n_hosting {
            leaf_specs.push((AsRole::Hosting, rng.random::<f64>() < 0.2));
        }
        for _ in 0..config.n_education {
            leaf_specs.push((AsRole::Education, rng.random::<f64>() < 0.15));
        }
        for _ in 0..config.n_business {
            leaf_specs.push((AsRole::Business, rng.random::<f64>() < 0.25));
        }

        for (i, (role, is_intl)) in leaf_specs.iter().enumerate() {
            let pool = if *is_intl { &intl_cities } else { &us_cities };
            let n_cities = match role {
                AsRole::AccessIsp => 1 + rng.random_range(0..4),
                AsRole::Hosting => 1 + rng.random_range(0..3),
                _ => 1,
            };
            let footprint = pick_cities(&mut rng, pool, n_cities);
            let home = footprint[0];
            let peers_with_cloud = match role {
                AsRole::AccessIsp => rng.random::<f64>() < config.access_peering_fraction,
                AsRole::Hosting => rng.random::<f64>() < config.hosting_peering_fraction,
                AsRole::Education => rng.random::<f64>() < 0.2,
                AsRole::Business => rng.random::<f64>() < 0.60,
                _ => false,
            };
            let congestion = match role {
                AsRole::AccessIsp => congestion_class(&mut rng, &config),
                AsRole::Hosting => {
                    if rng.random::<f64>() < 0.08 {
                        CongestionClass::PeakCongested
                    } else {
                        CongestionClass::Clean
                    }
                }
                _ => {
                    if rng.random::<f64>() < 0.1 {
                        CongestionClass::Mild
                    } else {
                        CongestionClass::Clean
                    }
                }
            };
            let asn = alloc_asn(&asn_index);
            let name = match role {
                AsRole::AccessIsp => format!("ISP-{}", i + 1),
                AsRole::Hosting => format!("Hosting-{}", i + 1),
                AsRole::Education => format!("University-{}", i + 1),
                AsRole::Business => format!("Enterprise-{}", i + 1),
                _ => unreachable!("leaf roles only"),
            };
            let node = AsNode {
                asn,
                name,
                role: *role,
                home_city: home,
                cities: footprint,
                prefixes: vec![planner
                    .alloc(if matches!(role, AsRole::AccessIsp) {
                        17
                    } else {
                        19
                    })
                    .expect("pool sized")],
                lookup_type: lookup_for(&mut rng, *role, config.lookup_miss_rate),
                congestion,
                providers: vec![],
                peers: vec![],
                customers: vec![],
                peers_with_cloud,
            };
            push_as(&mut ases, &mut asn_index, node);
        }

        // --- Relationships ---
        let mut edges: Vec<AsEdge> = Vec::new();
        let add_edge = |edges: &mut Vec<AsEdge>,
                        ases: &mut Vec<AsNode>,
                        rng: &mut SmallRng,
                        a: AsId,
                        b: AsId,
                        rel: AsRelationship,
                        capacity: f64| {
            // Interconnect city: a shared city if any, else the endpoint-b
            // city nearest a's home (US ISPs don't haul to Europe to meet
            // their transit provider).
            let shared: Vec<CityId> = ases[a.0 as usize]
                .cities
                .iter()
                .copied()
                .filter(|c| ases[b.0 as usize].cities.contains(c))
                .collect();
            let city = if shared.is_empty() {
                let home = cities.get(ases[a.0 as usize].home_city).location;
                ases[b.0 as usize]
                    .cities
                    .iter()
                    .copied()
                    .min_by(|x, y| {
                        let dx = cities.get(*x).location.distance_km(&home);
                        let dy = cities.get(*y).location.distance_km(&home);
                        dx.partial_cmp(&dy).expect("finite")
                    })
                    .unwrap_or(ases[b.0 as usize].home_city)
            } else {
                shared[rng.random_range(0..shared.len())]
            };
            // The interconnect inherits congestion from the lower-tier side
            // with some probability (upstream aggregation congestion).
            let lower = match rel {
                AsRelationship::CustomerOf => a, // a buys from b: a is lower
                AsRelationship::ProviderOf => b,
                AsRelationship::Peer => {
                    if rng.random::<f64>() < 0.5 {
                        a
                    } else {
                        b
                    }
                }
            };
            let congestion = match ases[lower.0 as usize].congestion {
                CongestionClass::Clean => CongestionClass::Clean,
                c => {
                    if rng.random::<f64>() < 0.5 {
                        c
                    } else {
                        CongestionClass::Clean
                    }
                }
            };
            edges.push(AsEdge {
                a,
                b,
                rel,
                city,
                capacity_gbps: capacity,
                congestion,
            });
            match rel {
                AsRelationship::CustomerOf => {
                    ases[a.0 as usize].providers.push(b);
                    ases[b.0 as usize].customers.push(a);
                }
                AsRelationship::ProviderOf => {
                    ases[a.0 as usize].customers.push(b);
                    ases[b.0 as usize].providers.push(a);
                }
                AsRelationship::Peer => {
                    ases[a.0 as usize].peers.push(b);
                    ases[b.0 as usize].peers.push(a);
                }
            }
        };

        // Tier-1 full mesh of peering.
        for i in 0..tier1_ids.len() {
            for j in i + 1..tier1_ids.len() {
                add_edge(
                    &mut edges,
                    &mut ases,
                    &mut rng,
                    tier1_ids[i],
                    tier1_ids[j],
                    AsRelationship::Peer,
                    400.0,
                );
            }
        }

        // Transit buys from 1–3 tier-1s, peers with some other transits.
        for &t in &transit_ids {
            let n_up = 1 + rng.random_range(0..3usize);
            let mut ups = tier1_ids.clone();
            for k in 0..n_up.min(ups.len()) {
                let j = k + rng.random_range(0..(ups.len() - k));
                ups.swap(k, j);
                add_edge(
                    &mut edges,
                    &mut ases,
                    &mut rng,
                    t,
                    ups[k],
                    AsRelationship::CustomerOf,
                    200.0,
                );
            }
        }
        for i in 0..transit_ids.len() {
            for j in i + 1..transit_ids.len() {
                if rng.random::<f64>() < 0.08 {
                    add_edge(
                        &mut edges,
                        &mut ases,
                        &mut rng,
                        transit_ids[i],
                        transit_ids[j],
                        AsRelationship::Peer,
                        100.0,
                    );
                }
            }
        }

        // Leaves buy transit from 1–2 providers (transit preferred, some
        // directly from tier-1); large access ISPs peer among themselves a
        // little.
        let leaf_start = 1 + STORYLINES.len() + (tier1_ids.len() - 2) + transit_ids.len();
        let storyline_leafs: Vec<AsId> = STORYLINES
            .iter()
            .filter(|s| !matches!(s.role, AsRole::Transit | AsRole::Tier1))
            .map(|s| asn_index[&Asn(s.asn)])
            .collect();
        let all_leaves: Vec<AsId> = storyline_leafs
            .iter()
            .copied()
            .chain((leaf_start..ases.len()).map(|i| AsId(i as u32)))
            .collect();
        // Leaves buy transit locally: an Indian ISP buys from a provider
        // with Indian presence, not from a random US regional. Rank the
        // transit pool by distance to the leaf's home city and pick among
        // the nearest few.
        //
        // The ranking depends on the home city alone, and no transit's
        // city list changes from here on (`add_edge` only adds
        // relationships), so every city is ranked once, up front, into a
        // `Vec` indexed by `CityId`. The stable sort keeps ties in
        // `transit_ids` order.
        let near_transits_of: Vec<Vec<AsId>> = cities
            .ids()
            .map(|home| {
                let here = cities.get(home).location;
                let mut keyed: Vec<(f64, AsId)> = transit_ids
                    .iter()
                    .map(|&t| {
                        let d = ases[t.0 as usize]
                            .cities
                            .iter()
                            .map(|c| cities.get(*c).location.distance_km(&here))
                            .fold(f64::INFINITY, f64::min);
                        (d, t)
                    })
                    .collect();
                keyed.sort_by(|x, y| x.0.partial_cmp(&y.0).expect("finite"));
                keyed.into_iter().map(|(_, t)| t).collect()
            })
            .collect();
        for &leaf in &all_leaves {
            let near_transits = &near_transits_of[ases[leaf.0 as usize].home_city.0 as usize];
            let n_up = 1 + usize::from(rng.random::<f64>() < 0.35);
            for _ in 0..n_up {
                let use_tier1 = rng.random::<f64>() < 0.12;
                let provider = if use_tier1 {
                    tier1_ids[rng.random_range(0..tier1_ids.len())]
                } else if rng.random::<f64>() < 0.98 {
                    near_transits[rng.random_range(0..4.min(near_transits.len()))]
                } else {
                    transit_ids[rng.random_range(0..transit_ids.len())]
                };
                if ases[leaf.0 as usize].providers.contains(&provider) {
                    continue;
                }
                let cap = match ases[leaf.0 as usize].role {
                    AsRole::AccessIsp => 40.0 + rng.random::<f64>() * 160.0,
                    AsRole::Hosting => 40.0 + rng.random::<f64>() * 80.0,
                    _ => 10.0 + rng.random::<f64>() * 30.0,
                };
                add_edge(
                    &mut edges,
                    &mut ases,
                    &mut rng,
                    leaf,
                    provider,
                    AsRelationship::CustomerOf,
                    cap,
                );
            }
        }

        // --- Cloud PoPs and interdomain links ---
        // The cloud has PoPs in every city with weight ≥ 1 plus all region
        // host cities (the built-in GCP list unless the config overrides
        // them with another provider's region cities).
        const GCP_REGION_CITIES: &[&str] = &[
            "The Dalles",
            "Moncks Corner",
            "Council Bluffs",
            "St. Ghislain",
            "Grass Valley",
        ];
        let mut cloud_pops: Vec<CityId> = cities
            .ids()
            .filter(|id| cities.get(*id).weight >= 1.0)
            .collect();
        let region_cities: Vec<String> = match &config.region_cities {
            Some(custom) => custom.clone(),
            None => GCP_REGION_CITIES.iter().map(|s| s.to_string()).collect(),
        };
        for name in &region_cities {
            let id = cities.by_name(name).expect("region city");
            if !cloud_pops.contains(&id) {
                cloud_pops.push(id);
            }
        }
        cloud_pops.sort_unstable();

        let mut links: Vec<InterdomainLink> = Vec::new();
        let mut links_by_neighbor: BTreeMap<AsId, Vec<LinkId>> = BTreeMap::new();
        let mut p2p_cursor: u64 = 0;
        let p2p_pool = cloud_p2p_prefix;
        for id in 1..ases.len() {
            let as_id = AsId(id as u32);
            if !ases[id].peers_with_cloud {
                continue;
            }
            // Peering cities: the AS's cities that host cloud PoPs; if
            // none, the PoP nearest its home city.
            let mut pops: Vec<CityId> = ases[id]
                .cities
                .iter()
                .copied()
                .filter(|c| cloud_pops.binary_search(c).is_ok())
                .collect();
            if pops.is_empty() {
                let home_loc = cities.get(ases[id].home_city).location;
                let nearest = cloud_pops
                    .iter()
                    .copied()
                    .min_by(|a, b| {
                        let da = cities.get(*a).location.distance_km(&home_loc);
                        let db = cities.get(*b).location.distance_km(&home_loc);
                        da.partial_cmp(&db).expect("finite")
                    })
                    .expect("cloud has PoPs");
                pops.push(nearest);
            }
            let role = ases[id].role;
            for pop in pops {
                // Parallel interfaces: more for big networks.
                let base = match role {
                    AsRole::Tier1 => 5.0,
                    AsRole::Transit => 1.3,
                    AsRole::AccessIsp => config.mean_parallel_interfaces,
                    _ => 2.2,
                };
                let n_parallel = 1 + (rng.random::<f64>() * base).floor() as usize;
                for _ in 0..n_parallel {
                    // /30 from the cloud p2p pool: .1 near (cloud), .2 far.
                    let subnet_base = p2p_cursor * 4;
                    if subnet_base + 2 >= p2p_pool.size() {
                        continue; // pool exhausted; extremely large configs only
                    }
                    let near_ip = p2p_pool.nth(subnet_base + 1);
                    let far_ip = p2p_pool.nth(subnet_base + 2);
                    p2p_cursor += 1;
                    let capacity = match role {
                        AsRole::Tier1 | AsRole::Transit => 100.0,
                        AsRole::AccessIsp => 20.0 + rng.random::<f64>() * 80.0,
                        _ => 10.0 + rng.random::<f64>() * 30.0,
                    };
                    // Link congestion: interconnects to congested ISPs are
                    // sometimes themselves the bottleneck (the paper's Cox
                    // reverse-path story); otherwise clean.
                    let congestion = match ases[id].congestion {
                        CongestionClass::Clean | CongestionClass::Mild => CongestionClass::Clean,
                        c => {
                            if rng.random::<f64>() < 0.6 {
                                c
                            } else {
                                CongestionClass::Clean
                            }
                        }
                    };
                    let link_id = LinkId(links.len() as u32);
                    links.push(InterdomainLink {
                        id: link_id,
                        neighbor: as_id,
                        pop,
                        near_ip,
                        far_ip,
                        capacity_gbps: capacity,
                        congestion,
                    });
                    links_by_neighbor.entry(as_id).or_default().push(link_id);
                }
            }
            let cloud = cloud_id;
            ases[id].peers.push(cloud);
            ases[0].peers.push(as_id);
        }

        // The cloud buys "transit" from every tier-1 so that non-peered
        // destinations are reachable (Google in practice reaches everything
        // via peering + selective transit).
        for &t in &tier1_ids {
            if !ases[0].peers.contains(&t) {
                ases[0].peers.push(t);
            }
        }

        // Adjacency for the non-cloud edge list.
        let mut adjacency: Vec<Vec<(EdgeId, AsId)>> = vec![Vec::new(); ases.len()];
        for (i, e) in edges.iter().enumerate() {
            adjacency[e.a.0 as usize].push((EdgeId(i as u32), e.b));
            adjacency[e.b.0 as usize].push((EdgeId(i as u32), e.a));
        }

        Topology {
            config,
            cities,
            ases,
            edges,
            adjacency,
            cloud_pops,
            links,
            links_by_neighbor,
            cloud: cloud_id,
            asn_index,
        }
    }

    /// Number of ASes (including the cloud).
    pub fn as_count(&self) -> usize {
        self.ases.len()
    }

    /// Looks up an AS by index.
    pub fn as_node(&self, id: AsId) -> &AsNode {
        &self.ases[id.0 as usize]
    }

    /// Looks up an AS by number.
    pub fn by_asn(&self, asn: Asn) -> Option<AsId> {
        self.asn_index.get(&asn).copied()
    }

    /// Looks up an interdomain link.
    pub fn link(&self, id: LinkId) -> &InterdomainLink {
        &self.links[id.0 as usize]
    }

    /// Looks up an AS edge.
    pub fn edge(&self, id: EdgeId) -> &AsEdge {
        &self.edges[id.0 as usize]
    }

    /// Iterator over AS ids, cloud excluded.
    pub fn non_cloud_ases(&self) -> impl Iterator<Item = AsId> + '_ {
        (1..self.ases.len() as u32).map(AsId)
    }

    /// The cloud's interdomain links to `neighbor`, if any.
    pub fn links_to(&self, neighbor: AsId) -> &[LinkId] {
        self.links_by_neighbor
            .get(&neighbor)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The edge connecting `a` and `b`, if one exists.
    pub fn edge_between(&self, a: AsId, b: AsId) -> Option<EdgeId> {
        self.adjacency[a.0 as usize]
            .iter()
            .find(|(_, other)| *other == b)
            .map(|(e, _)| *e)
    }

    /// True when `ip` belongs to one of `id`'s originated prefixes.
    pub fn originates(&self, id: AsId, ip: Ipv4Addr) -> bool {
        self.ases[id.0 as usize]
            .prefixes
            .iter()
            .any(|p| p.contains(ip))
    }

    /// Ground-truth owner of a link's far-side interface (the neighbor AS),
    /// regardless of which AS's space the address was carved from.
    pub fn far_side_owner(&self, link: LinkId) -> AsId {
        self.links[link.0 as usize].neighbor
    }

    /// Deterministic router interface address for AS `id` in `city`
    /// (`idx < 16` distinguishes routers in the same city).
    ///
    /// Router and host blocks are disjoint slices of the AS's first prefix,
    /// so generated servers never collide with router interfaces.
    pub fn router_ip(&self, id: AsId, city: CityId, idx: u8) -> Ipv4Addr {
        assert!(idx < 16, "router index out of range");
        let p = self.ases[id.0 as usize].prefixes[0];
        p.nth((city.0 as u64 * 32 + idx as u64) % p.size())
    }

    /// Deterministic host (end-system) address for AS `id` in `city`
    /// (`idx < 16`); used for speed-test servers and vantage points.
    pub fn host_ip(&self, id: AsId, city: CityId, idx: u8) -> Ipv4Addr {
        assert!(idx < 16, "host index out of range");
        let p = self.ases[id.0 as usize].prefixes[0];
        p.nth((city.0 as u64 * 32 + 16 + idx as u64) % p.size())
    }

    /// Deterministic cloud backbone router address in `city`.
    pub fn cloud_router_ip(&self, city: CityId, idx: u8) -> Ipv4Addr {
        let p = self.ases[self.cloud.0 as usize].prefixes[0];
        p.nth(city.0 as u64 * 1024 + idx as u64)
    }

    /// Deterministic VM address in a region hosted at `city`
    /// (`vm < 256` per city).
    pub fn vm_ip(&self, city: CityId, vm: u16) -> Ipv4Addr {
        let p = self.ases[self.cloud.0 as usize].prefixes[0];
        p.nth((1 << 21) + city.0 as u64 * 4096 + vm as u64)
    }

    /// In-AS alias of the neighbor-side border router of `link`: the same
    /// physical router answers on the /30 far-side address *and* on an
    /// address from the neighbor's own space. Alias resolution (and hence
    /// `bdrmap`) exploits exactly this.
    pub fn border_alias(&self, link: LinkId) -> Ipv4Addr {
        let l = &self.links[link.0 as usize];
        // Router index derived from the link id so parallel links at the
        // same PoP get distinct alias routers.
        let idx = (l.id.0 % 16) as u8;
        self.router_ip(l.neighbor, l.pop, idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Topology {
        Topology::generate(TopologyConfig::tiny(42))
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Topology::generate(TopologyConfig::tiny(7));
        let b = Topology::generate(TopologyConfig::tiny(7));
        assert_eq!(a.as_count(), b.as_count());
        assert_eq!(a.links.len(), b.links.len());
        assert_eq!(a.edges.len(), b.edges.len());
        for (x, y) in a.links.iter().zip(&b.links) {
            assert_eq!(x.far_ip, y.far_ip);
            assert_eq!(x.neighbor, y.neighbor);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Topology::generate(TopologyConfig::tiny(1));
        let b = Topology::generate(TopologyConfig::tiny(2));
        // Same counts of ASes but link structure should differ somewhere.
        let same = a.links.len() == b.links.len()
            && a.links.iter().zip(&b.links).all(|(x, y)| x.pop == y.pop);
        assert!(!same, "seeds should change the topology");
    }

    #[test]
    fn storyline_ases_present_with_real_names() {
        let t = tiny();
        let cox = t.by_asn(Asn(22773)).unwrap();
        assert_eq!(t.as_node(cox).name, "Cox Communications");
        assert_eq!(t.as_node(cox).congestion, CongestionClass::DaytimeCongested);
        let cogent = t.by_asn(Asn(174)).unwrap();
        assert_eq!(t.as_node(cogent).role, AsRole::Transit);
        assert!(t.by_asn(Asn(1221)).is_some(), "Telstra");
        assert!(t.by_asn(Asn(46276)).is_some(), "Smarterbroadband");
    }

    #[test]
    fn every_noncloud_as_reaches_a_provider_or_cloud() {
        let t = tiny();
        for id in t.non_cloud_ases() {
            let n = t.as_node(id);
            let connected = !n.providers.is_empty()
                || !n.peers.is_empty()
                || !n.customers.is_empty()
                || n.peers_with_cloud;
            assert!(connected, "{} is isolated", n.name);
        }
    }

    #[test]
    fn relationships_are_mutual() {
        let t = tiny();
        for (i, node) in t.ases.iter().enumerate() {
            let id = AsId(i as u32);
            for &p in &node.providers {
                assert!(t.as_node(p).customers.contains(&id));
            }
            for &c in &node.customers {
                assert!(t.as_node(c).providers.contains(&id));
            }
        }
    }

    #[test]
    fn far_side_ips_come_from_cloud_space() {
        let t = tiny();
        assert!(!t.links.is_empty());
        for l in &t.links {
            assert!(
                t.originates(t.cloud, l.far_ip),
                "far-side IP must be numbered from cloud space"
            );
            assert!(t.originates(t.cloud, l.near_ip));
            assert_ne!(l.near_ip, l.far_ip);
        }
    }

    #[test]
    fn far_side_ips_are_unique() {
        let t = tiny();
        let mut ips: Vec<Ipv4Addr> = t.links.iter().map(|l| l.far_ip).collect();
        let before = ips.len();
        ips.sort_unstable();
        ips.dedup();
        assert_eq!(ips.len(), before, "duplicate far-side IPs");
    }

    #[test]
    fn links_grouped_by_neighbor_consistently() {
        let t = tiny();
        for (neighbor, link_ids) in &t.links_by_neighbor {
            for lid in link_ids {
                assert_eq!(t.link(*lid).neighbor, *neighbor);
            }
        }
        let total: usize = t.links_by_neighbor.values().map(Vec::len).sum();
        assert_eq!(total, t.links.len());
    }

    #[test]
    fn link_pops_are_cloud_pops() {
        let t = tiny();
        for l in &t.links {
            assert!(t.cloud_pops.binary_search(&l.pop).is_ok());
        }
    }

    #[test]
    fn as_prefixes_are_disjoint() {
        let t = tiny();
        for (i, a) in t.ases.iter().enumerate() {
            for (j, b) in t.ases.iter().enumerate() {
                if i == j {
                    continue;
                }
                for pa in &a.prefixes {
                    for pb in &b.prefixes {
                        assert!(
                            !pa.contains(pb.network) && !pb.contains(pa.network),
                            "{} and {} overlap",
                            pa,
                            pb
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn default_scale_reaches_paper_link_counts() {
        // The full-size topology must land in the ballpark of ~6k
        // interdomain links that Table 1 reports.
        let t = Topology::generate(TopologyConfig::default());
        assert!(
            (4_000..12_000).contains(&t.links.len()),
            "links = {}",
            t.links.len()
        );
        // And a sizeable AS population.
        assert!(t.as_count() > 1_000, "ases = {}", t.as_count());
    }

    #[test]
    fn edge_between_finds_edges() {
        let t = tiny();
        let e = &t.edges[0];
        assert_eq!(t.edge_between(e.a, e.b), Some(EdgeId(0)));
        assert_eq!(t.edge_between(e.b, e.a), Some(EdgeId(0)));
    }

    #[test]
    fn asn_index_roundtrip() {
        let t = tiny();
        for (i, node) in t.ases.iter().enumerate() {
            assert_eq!(t.by_asn(node.asn), Some(AsId(i as u32)));
        }
    }
}

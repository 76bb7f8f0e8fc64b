//! Valley-free interdomain routing and router-level path construction.
//!
//! AS-level routes follow the Gao–Rexford export rules: routes learned
//! from customers are exported to everyone; routes learned from peers or
//! providers are exported only to customers. Route preference is
//! customer > peer > provider, then shortest AS path, then lowest
//! next-hop index (deterministic tie-break).
//!
//! On top of AS paths, [`Paths`] constructs **router-level paths** between
//! cloud VMs and Internet hosts under the two GCP network service tiers:
//!
//! * **Premium** (cold potato, Google's documented behaviour): egress
//!   traffic rides the private WAN to the PoP nearest the destination;
//!   ingress traffic enters the cloud at the PoP nearest the source.
//! * **Standard** (hot potato): egress exits at the PoP nearest the origin
//!   region; ingress traverses the public Internet and enters at the PoP
//!   nearest the region.
//!
//! Note: §1 of the paper describes ingress as entering "at the
//! interconnections nearest to the destination/source" for
//! premium/standard; this inverts Google's documented semantics and we
//! follow the documentation (premium enters near the *source*). DESIGN.md
//! records the discrepancy.

use crate::geo::CityId;
use crate::topology::{AsId, CongestionClass, EdgeId, LinkId, Topology};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// GCP network service tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Tier {
    /// Cold-potato routing over the private WAN.
    Premium,
    /// Hot-potato routing over the public Internet.
    Standard,
}

impl Tier {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Tier::Premium => "premium",
            Tier::Standard => "standard",
        }
    }
}

/// How a route was learned, in preference order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RouteKind {
    /// Learned from a customer (most preferred).
    Customer,
    /// Learned from a peer.
    Peer,
    /// Learned from a provider (least preferred).
    Provider,
}

/// A routing-table entry toward some destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteEntry {
    /// How the best route was learned.
    pub kind: RouteKind,
    /// AS-path length (number of AS hops to the destination).
    pub len: u32,
    /// Next-hop AS on the best route.
    pub next: AsId,
}

/// A routing table toward one destination, packed to one `u32` per AS
/// (a quarter of the naive `Vec<Option<RouteEntry>>` layout's 16
/// bytes/slot): bit 31 = present, bits 30–29 = kind, bits 28–23 =
/// AS-path length (≤ 63), bits 22–0 = next-hop AS id (< 2²³).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedRouteTable {
    slots: Vec<u32>,
}

const PACKED_PRESENT: u32 = 1 << 31;
const PACKED_LEN_MAX: u32 = (1 << 6) - 1;
const PACKED_NEXT_MAX: u32 = (1 << 23) - 1;

impl PackedRouteTable {
    fn pack(entry: &RouteEntry) -> u32 {
        debug_assert!(entry.len <= PACKED_LEN_MAX, "AS-path length overflow");
        debug_assert!(entry.next.0 <= PACKED_NEXT_MAX, "AS id overflow");
        let kind = match entry.kind {
            RouteKind::Customer => 0u32,
            RouteKind::Peer => 1,
            RouteKind::Provider => 2,
        };
        PACKED_PRESENT | (kind << 29) | ((entry.len & PACKED_LEN_MAX) << 23) | entry.next.0
    }

    fn from_slots(table: &[Option<RouteEntry>]) -> Self {
        Self {
            slots: table
                .iter()
                .map(|slot| slot.as_ref().map_or(0, Self::pack))
                .collect(),
        }
    }

    /// The routing entry at AS index `idx`, if one exists.
    pub fn get(&self, idx: usize) -> Option<RouteEntry> {
        let w = *self.slots.get(idx)?;
        if w & PACKED_PRESENT == 0 {
            return None;
        }
        Some(RouteEntry {
            kind: match (w >> 29) & 0b11 {
                0 => RouteKind::Customer,
                1 => RouteKind::Peer,
                _ => RouteKind::Provider,
            },
            len: (w >> 23) & PACKED_LEN_MAX,
            next: AsId(w & PACKED_NEXT_MAX),
        })
    }

    /// Number of AS slots in the table.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the table has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

impl RouteEntry {
    /// Preference key: lower is better (customer > peer > provider, then
    /// shortest AS path, then lowest next-hop index).
    fn rank(&self) -> (RouteKind, u32, u32) {
        (self.kind, self.len, self.next.0)
    }
}

/// True when `candidate` beats the `incumbent` entry (if any).
fn better(candidate: &RouteEntry, incumbent: &Option<RouteEntry>) -> bool {
    incumbent.is_none_or(|cur| candidate.rank() < cur.rank())
}

/// Memoised AS paths: (src, dst) → what [`Routing::as_path`] returns.
type AsPathCache = HashMap<(u32, u32), Option<Vec<AsId>>>;

fn cone_entry(cone: &[(AsId, RouteEntry)], v: AsId) -> Option<RouteEntry> {
    cone.iter().find(|(a, _)| *a == v).map(|(_, e)| *e)
}

/// Valley-free AS routing over a topology, memoised.
///
/// [`Self::as_path`] answers from the destination's provider cone
/// whenever the source's route is settled by the first two phases of
/// the Gao–Rexford computation (customer and peer routes), which is
/// every cloud-anchored query except host → cloud from a host that does
/// not peer with the cloud. Those fall back to the full table
/// [`Self::routes_to`], computed on first use and memoised. Every cache
/// holds pure functions of the topology, so it can only skip
/// recomputation — never change a route.
pub struct Routing<'t> {
    topo: &'t Topology,
    cache: RefCell<BTreeMap<AsId, Arc<PackedRouteTable>>>,
    as_paths: RefCell<AsPathCache>,
}

impl<'t> Routing<'t> {
    /// Creates a routing view over a topology.
    pub fn new(topo: &'t Topology) -> Self {
        Self {
            topo,
            cache: RefCell::new(BTreeMap::new()),
            as_paths: RefCell::new(HashMap::new()),
        }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &'t Topology {
        self.topo
    }

    /// Returns the (cached) routing table toward `dst`:
    /// `routes_to(d).get(v)` is AS v's best route toward d.
    pub fn routes_to(&self, dst: AsId) -> Arc<PackedRouteTable> {
        if let Some(t) = self.cache.borrow().get(&dst) {
            return Arc::clone(t);
        }
        let table = Arc::new(self.compute(dst));
        self.cache.borrow_mut().insert(dst, Arc::clone(&table));
        table
    }

    /// Phase 1: customer routes climb provider edges from `dst` (its
    /// providers hear it as a customer route, their providers in turn,
    /// ...). Returns `dst`'s provider cone with each member's route.
    /// Relaxation runs to the fixpoint, so every entry is a pure min
    /// whatever the visiting order.
    fn customer_cone(&self, dst: AsId) -> Vec<(AsId, RouteEntry)> {
        // The destination itself: length 0, kind Customer (so it exports
        // to everyone, as an origin does).
        let mut cone = vec![(
            dst,
            RouteEntry {
                kind: RouteKind::Customer,
                len: 0,
                next: dst,
            },
        )];
        let mut frontier = vec![dst];
        while let Some(u) = frontier.pop() {
            let Some(u_entry) = cone_entry(&cone, u) else {
                continue;
            };
            for &p in &self.topo.as_node(u).providers {
                let cand = RouteEntry {
                    kind: RouteKind::Customer,
                    len: u_entry.len + 1,
                    next: u,
                };
                match cone.iter_mut().find(|(a, _)| *a == p) {
                    Some((_, cur)) if cand.rank() >= cur.rank() => continue,
                    Some((_, cur)) => *cur = cand,
                    None => cone.push((p, cand)),
                }
                frontier.push(p);
            }
        }
        cone
    }

    /// Phase 2 offers: every cone member exports its customer route to
    /// the ASes on its *own* peer list (peering is not always listed on
    /// both sides: the cloud lists the tier-1s it buys transit from).
    fn peer_offers<'c>(
        &'c self,
        cone: &'c [(AsId, RouteEntry)],
    ) -> impl Iterator<Item = (AsId, RouteEntry)> + 'c {
        cone.iter().flat_map(move |&(u, entry)| {
            self.topo.as_node(u).peers.iter().map(move |&v| {
                (
                    v,
                    RouteEntry {
                        kind: RouteKind::Peer,
                        len: entry.len + 1,
                        next: u,
                    },
                )
            })
        })
    }

    /// Gao–Rexford three-phase computation of best routes toward `dst`.
    fn compute(&self, dst: AsId) -> PackedRouteTable {
        let mut table: Vec<Option<RouteEntry>> = vec![None; self.topo.as_count()];
        let cone = self.customer_cone(dst);
        for &(u, entry) in &cone {
            table[u.0 as usize] = Some(entry);
        }

        // Phase 2: one peer hop. Offers never displace a cone member's
        // customer route, so they can be applied as they are generated.
        for (v, cand) in self.peer_offers(&cone) {
            if better(&cand, &table[v.0 as usize]) {
                table[v.0 as usize] = Some(cand);
            }
        }

        // Phase 3: provider routes descend customer edges from every
        // routed AS, breadth-first by length so shorter paths win. A
        // bucket queue over path length replaces a binary heap here:
        // lengths are small dense integers, candidates always land in a
        // strictly later bucket (len + 1), and within one bucket the
        // final entry is a pure min over the offered candidates, so
        // drain order cannot change the fixpoint.
        let mut buckets: Vec<Vec<u32>> = Vec::new();
        for (i, slot) in table.iter().enumerate() {
            if let Some(e) = slot {
                let len = e.len as usize;
                if buckets.len() <= len {
                    buckets.resize(len + 1, Vec::new());
                }
                buckets[len].push(i as u32);
            }
        }
        let mut len = 0usize;
        while len < buckets.len() {
            let mut k = 0;
            while k < buckets[len].len() {
                let u_idx = buckets[len][k];
                k += 1;
                let Some(entry) = table[u_idx as usize] else {
                    continue;
                };
                if entry.len as usize != len {
                    continue; // stale queue entry
                }
                let u = AsId(u_idx);
                for &c in &self.topo.as_node(u).customers {
                    let cand = RouteEntry {
                        kind: RouteKind::Provider,
                        len: entry.len + 1,
                        next: u,
                    };
                    if better(&cand, &table[c.0 as usize]) {
                        table[c.0 as usize] = Some(cand);
                        let nl = cand.len as usize;
                        if buckets.len() <= nl {
                            buckets.resize(nl + 1, Vec::new());
                        }
                        buckets[nl].push(c.0);
                    }
                }
            }
            len += 1;
        }

        PackedRouteTable::from_slots(&table)
    }

    /// AS-level path from `src` to `dst` (inclusive on both ends), or
    /// `None` when no policy-compliant route exists. Memoised.
    ///
    /// Phase 3 of the full route computation (`compute`) only ever
    /// offers provider routes, which rank below customer and peer routes,
    /// so an AS holding a customer or peer route after phase 2 keeps it.
    /// Such a route's next hop is a cone member, and so is every later
    /// hop, so the walk needs only `dst`'s provider cone plus `src`'s
    /// phase-2 entry.
    pub fn as_path(&self, src: AsId, dst: AsId) -> Option<Vec<AsId>> {
        if src == dst {
            return Some(vec![src]);
        }
        if let Some(p) = self.as_paths.borrow().get(&(src.0, dst.0)) {
            return p.clone();
        }
        let cone = self.customer_cone(dst);
        let settled = cone_entry(&cone, src).or_else(|| {
            self.peer_offers(&cone)
                .filter(|(v, _)| *v == src)
                .map(|(_, e)| e)
                .min_by_key(RouteEntry::rank)
        });
        let path = match settled {
            Some(first) => walk(src, dst, |v| {
                if v == src {
                    Some(first)
                } else {
                    cone_entry(&cone, v)
                }
            }),
            None => {
                let table = self.routes_to(dst);
                walk(src, dst, |v| table.get(v.0 as usize))
            }
        };
        self.as_paths
            .borrow_mut()
            .insert((src.0, dst.0), path.clone());
        path
    }

    /// AS-path length in AS hops (0 when `src == dst`).
    pub fn as_path_len(&self, src: AsId, dst: AsId) -> Option<u32> {
        self.as_path(src, dst).map(|p| (p.len() - 1) as u32)
    }
}

/// Follows next hops from `src` until `dst`, reading each AS's best
/// route from `entry`.
fn walk(src: AsId, dst: AsId, entry: impl Fn(AsId) -> Option<RouteEntry>) -> Option<Vec<AsId>> {
    let mut path = vec![src];
    let mut cur = src;
    // Bounded walk: AS paths are far shorter than 32.
    for _ in 0..32 {
        cur = entry(cur)?.next;
        path.push(cur);
        if cur == dst {
            return Some(path);
        }
    }
    None
}

/// Direction of a unidirectional data path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Data flows from the cloud VM toward the Internet host
    /// (CLASP's *upload* direction, GCP egress).
    ToServer,
    /// Data flows from the Internet host toward the cloud VM
    /// (CLASP's *download* direction, GCP ingress).
    ToCloud,
}

/// What a path segment physically is; determines its load profile anchor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SegmentKind {
    /// Intra-region cloud fabric.
    CloudFabric,
    /// Private WAN span between two cloud PoP cities.
    CloudWan,
    /// A cloud interdomain link.
    CloudEdge(LinkId),
    /// An interconnect between two non-cloud ASes.
    AsEdge(EdgeId),
    /// Aggregation inside one AS (metro/backhaul).
    AsInternal(AsId),
    /// The server's access/LAN attachment.
    ServerAccess,
}

/// One capacity-bearing element of a unidirectional path.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    /// What this segment is.
    pub kind: SegmentKind,
    /// Capacity in Gbps in the direction of this path.
    pub capacity_gbps: f64,
    /// Congestion behaviour in the direction of this path.
    pub congestion: CongestionClass,
    /// City anchoring the segment's local clock (diurnal profiles follow
    /// the local time where users live).
    pub city: CityId,
    /// Stable identity for load-noise hashing.
    pub load_key: u64,
}

/// One traceroute-visible router interface on a path.
#[derive(Debug, Clone, Copy)]
pub struct Hop {
    /// Interface address a probe would see.
    pub ip: Ipv4Addr,
    /// Ground-truth owner of the interface.
    pub owner: AsId,
    /// City where the router sits.
    pub city: CityId,
    /// One-way latency from the path source to this hop, in ms.
    pub oneway_ms: f64,
}

/// A fully resolved unidirectional router path.
#[derive(Debug, Clone)]
pub struct RouterPath {
    /// Direction of data flow.
    pub direction: Direction,
    /// Network tier the path was computed for.
    pub tier: Tier,
    /// AS-level path, source first (cloud AS first for `ToServer`).
    pub as_path: Vec<AsId>,
    /// Router interfaces in path order.
    pub hops: Vec<Hop>,
    /// Capacity-bearing segments in path order.
    pub segments: Vec<Segment>,
    /// Total one-way propagation + processing latency in ms (no queueing).
    pub oneway_ms: f64,
    /// The cloud interdomain link the path crosses.
    pub egress_link: Option<LinkId>,
}

/// Per-hop router processing latency, ms.
const HOP_PROCESS_MS: f64 = 0.08;
/// Intra-metro hop latency, ms.
const METRO_MS: f64 = 0.35;

/// Memoized ECMP interface sets: (neighbor, anchor city) → the parallel
/// interfaces at the nearest PoP, or `None` when the pair has none.
type EcmpCache = std::collections::HashMap<(u32, u16), Option<Arc<Vec<LinkId>>>>;

/// The flow-independent part of a VM–host path: the endpoints, the AS
/// path with the cloud's neighbour on it, and the parallel border
/// interfaces at the PoP the tier policy anchors the crossing at. A flow
/// id only picks one of those interfaces ([`Self::flow_link`]);
/// [`Paths::path_via`] builds the router path over the picked one.
#[derive(Debug, Clone)]
pub struct HostRoute {
    region_city: CityId,
    vm_ip: Ipv4Addr,
    host_as: AsId,
    host_city: CityId,
    host_ip: Ipv4Addr,
    tier: Tier,
    direction: Direction,
    /// AS-level path, cloud first.
    as_path: Vec<AsId>,
    /// The cloud's neighbour on `as_path`.
    neighbor: AsId,
    /// Parallel interfaces to `neighbor` at the anchored PoP.
    bundle: Arc<Vec<LinkId>>,
}

impl HostRoute {
    /// The border interface the ECMP hash puts `flow_id` on: what
    /// [`Paths::pick_link_with_flow`] picks for this route.
    pub fn flow_link(&self, flow_id: u64) -> LinkId {
        ecmp_pick(&self.bundle, self.neighbor, flow_id)
    }
}

/// Path builder: combines AS routing, tier policy, and geography into
/// router paths.
///
/// Each call builds its path afresh and keeps none. A paris-traceroute
/// ECMP sweep probes one destination with many flow ids, but the flow
/// only selects among a handful of parallel border interfaces, so a
/// sweep resolves the [`HostRoute`] once and builds one path per
/// distinct interface ([`Self::path_via`]). The caches below hold small
/// pure functions of the topology that recur across destinations; they
/// never change an output (they are never iterated), they only skip
/// recomputation.
pub struct Paths<'t> {
    routing: Routing<'t>,
    /// (neighbor, anchor city) → parallel interfaces at the nearest PoP.
    ecmp: RefCell<EcmpCache>,
    /// (neighbor, region city) → has a region-local interconnect.
    local: RefCell<std::collections::HashMap<(u32, u16), bool>>,
}

impl<'t> Paths<'t> {
    /// Creates a path builder.
    pub fn new(topo: &'t Topology) -> Self {
        Self {
            routing: Routing::new(topo),
            ecmp: RefCell::new(std::collections::HashMap::new()),
            local: RefCell::new(std::collections::HashMap::new()),
        }
    }

    /// The AS-level routing view.
    pub fn routing(&self) -> &Routing<'t> {
        &self.routing
    }

    /// The underlying topology.
    pub fn topology(&self) -> &'t Topology {
        self.routing.topology()
    }

    /// Picks the interdomain link used between the cloud and `neighbor`
    /// for a flow anchored at `anchor_city` (hot potato: the region city;
    /// cold potato: the remote host's city). Deterministic: nearest PoP,
    /// then lowest link id among parallel interfaces.
    pub fn pick_link(&self, neighbor: AsId, anchor_city: CityId) -> Option<LinkId> {
        self.pick_link_with_flow(neighbor, anchor_city, 0)
    }

    /// Like [`Self::pick_link`] but models per-flow (ECMP) load balancing
    /// across parallel interfaces at the chosen PoP: the five-tuple hash
    /// (`flow_id`) selects among them. paris-traceroute holds `flow_id`
    /// constant; classic traceroute and bdrmap's deliberate flow-id sweeps
    /// observe several parallel interfaces of the same interconnect.
    pub fn pick_link_with_flow(
        &self,
        neighbor: AsId,
        anchor_city: CityId,
        flow_id: u64,
    ) -> Option<LinkId> {
        let parallel = self.ecmp_bundle(neighbor, anchor_city)?;
        Some(ecmp_pick(&parallel, neighbor, flow_id))
    }

    /// The parallel interfaces between the cloud and `neighbor` at the
    /// PoP nearest `anchor_city`, memoised (a pure function of the
    /// topology: nearest PoP, then stable link-id order).
    fn ecmp_bundle(&self, neighbor: AsId, anchor_city: CityId) -> Option<Arc<Vec<LinkId>>> {
        if let Some(v) = self.ecmp.borrow().get(&(neighbor.0, anchor_city.0)) {
            return v.clone();
        }
        let topo = self.topology();
        let anchor = topo.cities.get(anchor_city).location;
        // Nearest PoP with links to this neighbor.
        let best_pop = topo
            .links_to(neighbor)
            .iter()
            .map(|l| topo.link(*l).pop)
            .min_by(|a, b| {
                let da = topo.cities.get(*a).location.distance_km(&anchor);
                let db = topo.cities.get(*b).location.distance_km(&anchor);
                da.total_cmp(&db).then(a.0.cmp(&b.0))
            });
        let bundle = best_pop.map(|pop| {
            // Parallel interfaces at that PoP, stable order.
            let mut parallel: Vec<LinkId> = topo
                .links_to(neighbor)
                .iter()
                .copied()
                .filter(|l| topo.link(*l).pop == pop)
                .collect();
            parallel.sort_by_key(|l| l.0);
            Arc::new(parallel)
        });
        self.ecmp
            .borrow_mut()
            .insert((neighbor.0, anchor_city.0), bundle.clone());
        bundle
    }

    /// All parallel interfaces between the cloud and `neighbor` at `pop`.
    pub fn parallel_links(&self, neighbor: AsId, pop: CityId) -> Vec<LinkId> {
        let topo = self.topology();
        let mut v: Vec<LinkId> = topo
            .links_to(neighbor)
            .iter()
            .copied()
            .filter(|l| topo.link(*l).pop == pop)
            .collect();
        v.sort_by_key(|l| l.0);
        v
    }

    /// Distance under which an interconnect counts as "region-local" for
    /// standard-tier announcements, km.
    const REGION_LOCAL_KM: f64 = 2_500.0;

    /// True when `neighbor` has a cloud interconnect within
    /// [`Self::REGION_LOCAL_KM`] of the region. Memoised (pure function
    /// of the topology).
    fn region_local(&self, neighbor: AsId, region_city: CityId) -> bool {
        if let Some(&v) = self.local.borrow().get(&(neighbor.0, region_city.0)) {
            return v;
        }
        let topo = self.topology();
        let region = topo.cities.get(region_city).location;
        let v = topo.links_to(neighbor).iter().any(|l| {
            topo.cities
                .get(topo.link(*l).pop)
                .location
                .distance_km(&region)
                < Self::REGION_LOCAL_KM
        });
        self.local
            .borrow_mut()
            .insert((neighbor.0, region_city.0), v);
        v
    }

    /// Climbs `host`'s provider ancestry (breadth-first, up to three
    /// levels) for the nearest AS holding a region-local cloud link;
    /// returns the chain `[that AS, ..., host]`, or `None` when no
    /// ancestor qualifies.
    fn provider_chain_to_local(&self, host: AsId, region_city: CityId) -> Option<Vec<AsId>> {
        let topo = self.topology();
        let mut frontier: Vec<Vec<AsId>> = vec![vec![host]];
        for _depth in 0..3 {
            let mut next: Vec<Vec<AsId>> = Vec::new();
            for chain in &frontier {
                let Some(&top) = chain.last() else {
                    continue;
                };
                let mut providers = topo.as_node(top).providers.clone();
                providers.sort_by_key(|p| p.0);
                for p in providers {
                    if chain.contains(&p) {
                        continue;
                    }
                    let mut c = chain.clone();
                    c.push(p);
                    if self.region_local(p, region_city) {
                        c.reverse();
                        return Some(c);
                    }
                    next.push(c);
                }
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        None
    }

    /// Builds the unidirectional router path between a VM in the region
    /// hosted at `region_city` and a host (`host_as`, `host_city`,
    /// `host_ip`), in `direction`, under `tier`.
    ///
    /// Returns `None` when interdomain routing cannot produce a
    /// policy-compliant path (never the case for the generated topologies,
    /// which guarantee provider chains, but the API is honest).
    #[allow(clippy::too_many_arguments)]
    pub fn vm_host_path(
        &self,
        region_city: CityId,
        vm_ip: Ipv4Addr,
        host_as: AsId,
        host_city: CityId,
        host_ip: Ipv4Addr,
        tier: Tier,
        direction: Direction,
    ) -> Option<RouterPath> {
        self.vm_host_path_flow(
            region_city,
            vm_ip,
            host_as,
            host_city,
            host_ip,
            tier,
            direction,
            0,
        )
    }

    /// [`Self::vm_host_path`] with an explicit flow id: ECMP hashes the
    /// flow onto one of the parallel border interfaces.
    #[allow(clippy::too_many_arguments)]
    pub fn vm_host_path_flow(
        &self,
        region_city: CityId,
        vm_ip: Ipv4Addr,
        host_as: AsId,
        host_city: CityId,
        host_ip: Ipv4Addr,
        tier: Tier,
        direction: Direction,
        flow_id: u64,
    ) -> Option<RouterPath> {
        let route = self.vm_host_route(
            region_city,
            vm_ip,
            host_as,
            host_city,
            host_ip,
            tier,
            direction,
        )?;
        self.path_via(&route, route.flow_link(flow_id))
    }

    /// The flow-independent part of [`Self::vm_host_path_flow`]: the AS
    /// path under `tier` and the parallel border interfaces the crossing
    /// is anchored at. `None` exactly when every flow's path is `None`
    /// for want of a route or an interface.
    #[allow(clippy::too_many_arguments)]
    pub fn vm_host_route(
        &self,
        region_city: CityId,
        vm_ip: Ipv4Addr,
        host_as: AsId,
        host_city: CityId,
        host_ip: Ipv4Addr,
        tier: Tier,
        direction: Direction,
    ) -> Option<HostRoute> {
        let topo = self.topology();
        let cloud = topo.cloud;

        // AS path on the Internet side. For ToServer we need the cloud's
        // route to the host AS; for ToCloud the host AS's route to the
        // cloud. Both exclude the cloud itself from the "middle".
        let mut as_path_forward: Vec<AsId> = match direction {
            Direction::ToServer => self.routing.as_path(cloud, host_as)?,
            Direction::ToCloud => {
                let mut p = self.routing.as_path(host_as, cloud)?;
                p.reverse(); // normalise to cloud-first ordering
                p
            }
        };
        debug_assert_eq!(as_path_forward.first(), Some(&cloud));

        // Standard-tier traffic crosses the cloud border *near the
        // region* (the standard announcement is regional). If the path's
        // cloud-neighbor has no region-local interconnect — say an
        // Australian ISP whose only peering is in Melbourne, measured
        // from a Belgian region — the traffic instead rides the host's
        // transit providers to one that does. Premium rides the private
        // WAN to/from the remote interconnect, so it is unaffected.
        if tier == Tier::Standard {
            let neighbor = *as_path_forward.get(1)?;
            if !self.region_local(neighbor, region_city) {
                if let Some(chain) = self.provider_chain_to_local(host_as, region_city) {
                    // chain is [local-linked AS, ..., host_as].
                    as_path_forward = std::iter::once(cloud).chain(chain).collect();
                }
            }
        }

        // The cloud's neighbor AS on this path.
        let neighbor = *as_path_forward.get(1)?;

        // Tier policy → which PoP the traffic crosses the border at.
        //
        // * Standard (both directions): the region-local interconnect.
        // * Premium egress: cold potato — the WAN carries traffic to the
        //   neighbor's PoP nearest the destination.
        // * Premium ingress: the *neighbor* decides where to hand off,
        //   and ASes hand off hot-potato from wherever they received the
        //   traffic. A directly-peering host hands off near itself; a
        //   transit hands off near the interconnect where it picked the
        //   traffic up from its customer.
        let anchor_city = match (tier, direction) {
            (Tier::Standard, _) => region_city,
            (Tier::Premium, Direction::ToServer) => host_city,
            (Tier::Premium, Direction::ToCloud) => match as_path_forward.get(2) {
                Some(&a) => match topo.edge_between(neighbor, a) {
                    Some(e) => topo.edge(e).city,
                    None => host_city,
                },
                None => host_city,
            },
        };
        let bundle = self.ecmp_bundle(neighbor, anchor_city)?;
        Some(HostRoute {
            region_city,
            vm_ip,
            host_as,
            host_city,
            host_ip,
            tier,
            direction,
            as_path: as_path_forward,
            neighbor,
            bundle,
        })
    }

    /// Builds `route`'s router path across the border interface
    /// `link_id` (one of [`HostRoute::flow_link`]'s picks). `None` when
    /// the AS path crosses two ASes with no edge between them, which no
    /// generated topology has.
    pub fn path_via(&self, route: &HostRoute, link_id: LinkId) -> Option<RouterPath> {
        let topo = self.topology();
        let cloud = topo.cloud;
        let HostRoute {
            region_city,
            vm_ip,
            host_as,
            host_city,
            host_ip,
            tier,
            direction,
            neighbor,
            ..
        } = *route;
        let as_path_forward = &route.as_path;
        let link = topo.link(link_id);
        let pop_city = link.pop;

        // Build in cloud→host orientation, then reverse for ToCloud.
        let mut hops: Vec<Hop> = Vec::new();
        let mut segments: Vec<Segment> = Vec::new();
        let mut clock_ms = 0.0;
        let cities = &topo.cities;
        let dist_ms = |a: CityId, b: CityId| -> f64 {
            cities
                .get(a)
                .location
                .propagation_ms(&cities.get(b).location)
        };

        // 1. VM + region fabric.
        hops.push(Hop {
            ip: vm_ip,
            owner: cloud,
            city: region_city,
            oneway_ms: 0.0,
        });
        clock_ms += METRO_MS;
        hops.push(Hop {
            ip: topo.cloud_router_ip(region_city, 0),
            owner: cloud,
            city: region_city,
            oneway_ms: clock_ms,
        });
        segments.push(Segment {
            kind: SegmentKind::CloudFabric,
            capacity_gbps: 1000.0,
            congestion: CongestionClass::Clean,
            city: region_city,
            load_key: load_key(b"fabric", region_city.0 as u64, 0),
        });

        // 2. Private WAN span to the egress PoP (if different city).
        if pop_city != region_city {
            let wan_ms = dist_ms(region_city, pop_city);
            // Intermediate WAN routers roughly every 1500 km (at most 3
            // respond; the full propagation is preserved regardless).
            let km = cities
                .get(region_city)
                .location
                .distance_km(&cities.get(pop_city).location);
            let n_mid = ((km / 1500.0).floor() as u8).min(3);
            for i in 0..n_mid {
                clock_ms += wan_ms / (n_mid as f64 + 1.0);
                hops.push(Hop {
                    ip: topo.cloud_router_ip(region_city, 2 + i),
                    owner: cloud,
                    city: region_city,
                    oneway_ms: clock_ms,
                });
            }
            clock_ms += wan_ms / (n_mid as f64 + 1.0);
            segments.push(Segment {
                kind: SegmentKind::CloudWan,
                capacity_gbps: 800.0,
                congestion: CongestionClass::Clean,
                city: pop_city,
                load_key: load_key(b"wan", region_city.0 as u64, pop_city.0 as u64),
            });
        }
        // Cloud border router at the PoP (near side of the link).
        clock_ms += HOP_PROCESS_MS;
        hops.push(Hop {
            ip: link.near_ip,
            owner: cloud,
            city: pop_city,
            oneway_ms: clock_ms,
        });

        // 3. The interdomain link itself; far side owned by the neighbor.
        clock_ms += METRO_MS;
        hops.push(Hop {
            ip: link.far_ip,
            owner: neighbor,
            city: pop_city,
            oneway_ms: clock_ms,
        });
        segments.push(Segment {
            kind: SegmentKind::CloudEdge(link_id),
            capacity_gbps: link.capacity_gbps,
            congestion: match direction {
                // Interconnect congestion in the paper is on the
                // ISP→cloud direction (the Cox reverse-path story).
                Direction::ToCloud => link.congestion,
                Direction::ToServer => CongestionClass::Clean,
            },
            city: pop_city,
            load_key: load_key(b"edge", link_id.0 as u64, direction as u64),
        });

        // 4. Walk the remaining AS path. `entry_city` tracks where the
        // traffic currently sits inside the current AS.
        let mut entry_city = pop_city;
        for w in as_path_forward[1..].windows(2) {
            let (cur, nxt) = (w[0], w[1]);
            let edge_id = topo.edge_between(cur, nxt)?;
            let edge = topo.edge(edge_id);
            let exit_city = edge.city;
            // Internal haul across `cur` from entry to the interconnect.
            push_internal(
                topo,
                &mut hops,
                &mut segments,
                &mut clock_ms,
                cur,
                entry_city,
                exit_city,
                direction,
            );
            // Cross the interconnect into `nxt`'s border router.
            clock_ms += METRO_MS;
            hops.push(Hop {
                ip: topo.router_ip(nxt, exit_city, (edge_id.0 % 8) as u8),
                owner: nxt,
                city: exit_city,
                oneway_ms: clock_ms,
            });
            segments.push(Segment {
                kind: SegmentKind::AsEdge(edge_id),
                capacity_gbps: edge.capacity_gbps,
                congestion: match direction {
                    Direction::ToCloud => edge.congestion,
                    Direction::ToServer => CongestionClass::Clean,
                },
                city: exit_city,
                load_key: load_key(b"asedge", edge_id.0 as u64, direction as u64),
            });
            entry_city = exit_city;
        }

        // 5. Final haul inside the host AS to the host's city, plus the
        // access segment and the host itself.
        push_internal(
            topo,
            &mut hops,
            &mut segments,
            &mut clock_ms,
            host_as,
            entry_city,
            host_city,
            direction,
        );
        segments.push(Segment {
            kind: SegmentKind::ServerAccess,
            capacity_gbps: 10.0,
            congestion: CongestionClass::Clean,
            city: host_city,
            load_key: load_key(b"access", u64::from(u32::from(host_ip)), 0),
        });
        clock_ms += METRO_MS;
        hops.push(Hop {
            ip: host_ip,
            owner: host_as,
            city: host_city,
            oneway_ms: clock_ms,
        });

        // Normalise orientation: hops/segments were built cloud→host.
        if direction == Direction::ToCloud {
            let total = clock_ms;
            hops.reverse();
            for h in &mut hops {
                h.oneway_ms = total - h.oneway_ms;
            }
            segments.reverse();
        }

        Some(RouterPath {
            direction,
            tier,
            as_path: as_path_forward.clone(),
            hops,
            segments,
            oneway_ms: clock_ms,
            egress_link: Some(link_id),
        })
    }
}

/// The interface of the non-empty bundle `parallel` (to `neighbor`)
/// that the ECMP hash puts `flow_id` on.
fn ecmp_pick(parallel: &[LinkId], neighbor: AsId, flow_id: u64) -> LinkId {
    // Per-prefix assignment is primary-heavy: the lowest interface of
    // a bundle carries most prefixes (IGP prefers it), the rest take
    // an overflow share. This is why the paper's 1,329 server traces
    // touch only a few hundred of ~6k interfaces, while bdrmap's
    // broad prefix sweeps still discover the parallel ones.
    let h = load_key(b"ecmp", neighbor.0 as u64, flow_id);
    let idx = if parallel.len() == 1 || h % 100 < 75 {
        0
    } else {
        1 + ((h >> 8) % (parallel.len() as u64 - 1)) as usize
    };
    parallel[idx]
}

/// Internal-haul helper: adds hops/segments for crossing AS `owner` from
/// `from` to `to` (no-op segment-wise when the cities coincide, but always
/// adds one internal router hop so traceroutes see the AS).
#[allow(clippy::too_many_arguments)]
fn push_internal(
    topo: &Topology,
    hops: &mut Vec<Hop>,
    segments: &mut Vec<Segment>,
    clock_ms: &mut f64,
    owner: AsId,
    from: CityId,
    to: CityId,
    direction: Direction,
) {
    let node = topo.as_node(owner);
    let haul_ms = topo
        .cities
        .get(from)
        .location
        .propagation_ms(&topo.cities.get(to).location);
    *clock_ms += haul_ms + HOP_PROCESS_MS;
    hops.push(Hop {
        ip: topo.router_ip(owner, to, 1),
        owner,
        city: to,
        oneway_ms: *clock_ms,
    });
    segments.push(Segment {
        kind: SegmentKind::AsInternal(owner),
        capacity_gbps: internal_capacity(topo, owner),
        congestion: match direction {
            Direction::ToCloud => node.congestion,
            Direction::ToServer => match node.congestion {
                // Downstream (toward users) is better provisioned but not
                // perfect for the worst networks.
                CongestionClass::AllDayCongested => CongestionClass::Mild,
                _ => CongestionClass::Clean,
            },
        },
        city: node.home_city,
        load_key: load_key(b"internal", owner.0 as u64, direction as u64),
    });
}

fn internal_capacity(topo: &Topology, owner: AsId) -> f64 {
    use crate::asn::AsRole;
    match topo.as_node(owner).role {
        AsRole::Cloud => 1000.0,
        AsRole::Tier1 => 400.0,
        AsRole::Transit => 200.0,
        AsRole::AccessIsp => 40.0,
        AsRole::Hosting => 80.0,
        AsRole::Education | AsRole::Business => 20.0,
    }
}

/// Stable 64-bit key mixing a namespace and two ids (splitmix64 finaliser).
pub fn load_key(ns: &[u8], a: u64, b: u64) -> u64 {
    let mut x = 0xcbf2_9ce4_8422_2325u64;
    for &byte in ns {
        x = (x ^ byte as u64).wrapping_mul(0x100_0000_01b3);
    }
    x ^= a.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= b.rotate_left(32).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    // splitmix64 finaliser
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyConfig;

    fn topo() -> Topology {
        Topology::generate(TopologyConfig::tiny(11))
    }

    fn some_leaf(topo: &Topology) -> AsId {
        topo.non_cloud_ases()
            .find(|id| {
                let n = topo.as_node(*id);
                matches!(n.role, crate::asn::AsRole::AccessIsp) && !n.peers_with_cloud
            })
            .expect("tiny topology has non-peering access ISPs")
    }

    #[test]
    fn as_path_to_self_is_singleton() {
        let t = topo();
        let r = Routing::new(&t);
        assert_eq!(r.as_path(t.cloud, t.cloud), Some(vec![t.cloud]));
    }

    #[test]
    fn cloud_reaches_every_as() {
        let t = topo();
        let r = Routing::new(&t);
        for id in t.non_cloud_ases() {
            assert!(
                r.as_path(t.cloud, id).is_some(),
                "no route to {}",
                t.as_node(id).name
            );
        }
    }

    #[test]
    fn every_as_reaches_cloud() {
        let t = topo();
        let r = Routing::new(&t);
        for id in t.non_cloud_ases() {
            assert!(
                r.as_path(id, t.cloud).is_some(),
                "no route from {}",
                t.as_node(id).name
            );
        }
    }

    #[test]
    fn paths_are_valley_free() {
        use crate::asn::AsRelationship;
        let t = topo();
        let r = Routing::new(&t);
        // On a valley-free path, once we traverse a peer or
        // provider→customer step, every later step must be
        // provider→customer.
        for id in t.non_cloud_ases().take(30) {
            let Some(path) = r.as_path(t.cloud, id) else {
                continue;
            };
            let mut descending = false;
            for w in path.windows(2) {
                let (a, b) = (w[0], w[1]);
                let rel = if t.as_node(a).customers.contains(&b) {
                    AsRelationship::ProviderOf // a is provider of b: down
                } else if t.as_node(a).providers.contains(&b) {
                    AsRelationship::CustomerOf // up
                } else {
                    AsRelationship::Peer
                };
                match rel {
                    AsRelationship::CustomerOf => {
                        assert!(!descending, "valley in path {path:?}");
                    }
                    AsRelationship::Peer | AsRelationship::ProviderOf => {
                        if rel == AsRelationship::Peer {
                            assert!(!descending, "peer after descent in {path:?}");
                        }
                        descending = true;
                    }
                }
            }
        }
    }

    #[test]
    fn direct_peer_paths_are_length_one() {
        let t = topo();
        let r = Routing::new(&t);
        let peered = t
            .non_cloud_ases()
            .find(|id| t.as_node(*id).peers_with_cloud)
            .unwrap();
        assert_eq!(r.as_path_len(t.cloud, peered), Some(1));
        assert_eq!(r.as_path_len(peered, t.cloud), Some(1));
    }

    #[test]
    fn routing_tables_are_cached() {
        let t = topo();
        let r = Routing::new(&t);
        let leaf = some_leaf(&t);
        let a = r.routes_to(leaf);
        let b = r.routes_to(leaf);
        assert!(Arc::ptr_eq(&a, &b));
    }

    /// Reference answer: the walk over `dst`'s full routing table.
    fn table_walk(reference: &Routing, src: AsId, dst: AsId) -> Option<Vec<AsId>> {
        let table = reference.routes_to(dst);
        let mut path = vec![src];
        while path.len() <= 32 {
            let cur = *path.last()?;
            if cur == dst {
                return Some(path);
            }
            path.push(table.get(cur.0 as usize)?.next);
        }
        (*path.last()? == dst).then_some(path)
    }

    /// Checks `as_path` against the full-table walk for every
    /// cloud-anchored pair (both directions) plus `extra` pairs.
    fn assert_matches_table_walk(t: &Topology, extra: impl Iterator<Item = (AsId, AsId)>) {
        let r = Routing::new(t);
        let reference = Routing::new(t);
        let cloud_pairs = t
            .non_cloud_ases()
            .flat_map(|x| [(t.cloud, x), (x, t.cloud)]);
        let mut checked = 0;
        for (s, d) in cloud_pairs.chain(extra) {
            let want = table_walk(&reference, s, d);
            assert_eq!(r.as_path(s, d), want, "{s:?} -> {d:?}");
            // A memo hit answers the same.
            assert_eq!(r.as_path(s, d), want, "{s:?} -> {d:?} (memoised)");
            checked += 1;
        }
        assert!(checked > 2 * (t.as_count() - 1));
    }

    #[test]
    fn as_path_matches_the_full_table_walk_on_tiny_worlds() {
        for seed in [1, 7, 42, 111] {
            let t = Topology::generate(TopologyConfig::tiny(seed));
            let n = t.as_count() as u32;
            // Every (s, d) pair of the world, well over 20k in total.
            let all = (0..n).flat_map(|s| (0..n).map(move |d| (AsId(s), AsId(d))));
            assert_matches_table_walk(&t, all);
        }
    }

    #[test]
    fn as_path_matches_the_full_table_walk_on_a_mid_size_world() {
        let t = Topology::generate(TopologyConfig {
            n_tier1: 5,
            n_transit: 20,
            n_access_us: 160,
            n_access_intl: 50,
            n_hosting: 50,
            n_education: 15,
            n_business: 400,
            ..TopologyConfig::tiny(5)
        });
        let n = t.as_count() as u64;
        let random = (0..5_000u64).map(|i| {
            let h = load_key(b"pair", 5, i);
            (AsId((h % n) as u32), AsId(((h >> 32) % n) as u32))
        });
        assert_matches_table_walk(&t, random);
    }

    /// The tiny topology with every AS relationship removed, for
    /// hand-built routing cases.
    fn unconnected() -> Topology {
        let mut t = topo();
        for node in &mut t.ases {
            node.providers.clear();
            node.peers.clear();
            node.customers.clear();
        }
        t
    }

    #[test]
    fn peer_routes_follow_the_exporters_peer_list() {
        // `dst` buys transit from `p`; `src` lists `p` as a peer but `p`
        // does not list `src` (as the cloud lists tier-1s that do not
        // list it back). `p` never exports to `src`.
        let mut t = unconnected();
        let [src, p, dst] = [AsId(1), AsId(2), AsId(3)];
        t.ases[3].providers.push(p);
        t.ases[2].customers.push(dst);
        t.ases[1].peers.push(p);
        let one_sided = Routing::new(&t);
        assert_eq!(one_sided.as_path(src, dst), None);
        assert_eq!(one_sided.as_path(p, dst), Some(vec![p, dst]));
        // Listed on the exporter's side, the peer route exists.
        t.ases[2].peers.push(src);
        let exported = Routing::new(&t);
        assert_eq!(exported.as_path(src, dst), Some(vec![src, p, dst]));
        assert_eq!(table_walk(&exported, src, dst), Some(vec![src, p, dst]));
    }

    #[test]
    fn equal_length_routes_break_ties_on_the_lowest_next_hop() {
        // `dst` buys transit from `lo` and `hi`, which both buy from
        // `src`: two customer routes of length 2. The later-visited
        // provider must not win the tie.
        let mut t = unconnected();
        let [src, lo, hi, dst] = [AsId(1), AsId(2), AsId(3), AsId(4)];
        t.ases[4].providers = vec![lo, hi];
        for mid in [2, 3] {
            t.ases[mid].customers.push(dst);
            t.ases[mid].providers.push(src);
        }
        t.ases[1].customers = vec![lo, hi];
        let r = Routing::new(&t);
        assert_eq!(r.as_path(src, dst), Some(vec![src, lo, dst]));
        assert_eq!(table_walk(&r, src, dst), Some(vec![src, lo, dst]));
    }

    #[test]
    fn vm_host_path_both_directions() {
        let t = topo();
        let p = Paths::new(&t);
        let region = t.cities.by_name("The Dalles").unwrap();
        let leaf = some_leaf(&t);
        let host_city = t.as_node(leaf).home_city;
        let host_ip = t.host_ip(leaf, host_city, 0);
        let vm_ip = t.vm_ip(region, 0);
        for dir in [Direction::ToServer, Direction::ToCloud] {
            let path = p
                .vm_host_path(region, vm_ip, leaf, host_city, host_ip, Tier::Premium, dir)
                .expect("path exists");
            assert!(path.hops.len() >= 5, "{} hops", path.hops.len());
            assert!(!path.segments.is_empty());
            assert!(path.oneway_ms > 0.0);
            match dir {
                Direction::ToServer => {
                    assert_eq!(path.hops.first().unwrap().ip, vm_ip);
                    assert_eq!(path.hops.last().unwrap().ip, host_ip);
                }
                Direction::ToCloud => {
                    assert_eq!(path.hops.first().unwrap().ip, host_ip);
                    assert_eq!(path.hops.last().unwrap().ip, vm_ip);
                }
            }
            // Hop latencies are nondecreasing along the path.
            let mut prev = -1.0;
            for h in &path.hops {
                assert!(h.oneway_ms >= prev - 1e-9, "latency not monotone");
                prev = h.oneway_ms;
            }
        }
    }

    #[test]
    fn path_crosses_exactly_one_cloud_edge() {
        let t = topo();
        let p = Paths::new(&t);
        let region = t.cities.by_name("Council Bluffs").unwrap();
        let leaf = some_leaf(&t);
        let host_city = t.as_node(leaf).home_city;
        let path = p
            .vm_host_path(
                region,
                t.vm_ip(region, 0),
                leaf,
                host_city,
                t.host_ip(leaf, host_city, 0),
                Tier::Standard,
                Direction::ToServer,
            )
            .unwrap();
        let edges = path
            .segments
            .iter()
            .filter(|s| matches!(s.kind, SegmentKind::CloudEdge(_)))
            .count();
        assert_eq!(edges, 1);
        assert!(path.egress_link.is_some());
    }

    #[test]
    fn premium_egress_pop_is_nearer_destination_than_standard() {
        // Cold potato must hand off closer to the destination (or equal).
        let t = Topology::generate(TopologyConfig::default());
        let p = Paths::new(&t);
        let region = t.cities.by_name("Council Bluffs").unwrap();
        // A cloud-peering ISP far from the region.
        let target = t
            .non_cloud_ases()
            .find(|id| {
                let n = t.as_node(*id);
                n.peers_with_cloud
                    && t.cities.get(n.home_city).name == "Miami"
                    && !t.links_to(*id).is_empty()
            })
            .or_else(|| {
                t.non_cloud_ases().find(|id| {
                    let n = t.as_node(*id);
                    n.peers_with_cloud && !t.links_to(*id).is_empty()
                })
            })
            .unwrap();
        let host_city = t.as_node(target).home_city;
        let host_ip = t.host_ip(target, host_city, 0);
        let vm_ip = t.vm_ip(region, 0);
        let prem = p
            .vm_host_path(
                region,
                vm_ip,
                target,
                host_city,
                host_ip,
                Tier::Premium,
                Direction::ToServer,
            )
            .unwrap();
        let std_ = p
            .vm_host_path(
                region,
                vm_ip,
                target,
                host_city,
                host_ip,
                Tier::Standard,
                Direction::ToServer,
            )
            .unwrap();
        let dist = |link: LinkId, city: CityId| {
            t.cities
                .get(t.link(link).pop)
                .location
                .distance_km(&t.cities.get(city).location)
        };
        let d_prem = dist(prem.egress_link.unwrap(), host_city);
        let d_std_to_region = dist(std_.egress_link.unwrap(), region);
        let d_prem_to_region = dist(prem.egress_link.unwrap(), region);
        assert!(d_prem <= dist(std_.egress_link.unwrap(), host_city) + 1e-9);
        assert!(d_std_to_region <= d_prem_to_region + 1e-9);
    }

    #[test]
    fn load_keys_are_stable_and_distinct() {
        let a = load_key(b"edge", 1, 0);
        let b = load_key(b"edge", 1, 0);
        let c = load_key(b"edge", 2, 0);
        let d = load_key(b"asedge", 1, 0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn tocloud_hops_are_reversed_with_consistent_latency() {
        let t = topo();
        let p = Paths::new(&t);
        let region = t.cities.by_name("The Dalles").unwrap();
        let leaf = some_leaf(&t);
        let host_city = t.as_node(leaf).home_city;
        let path = p
            .vm_host_path(
                region,
                t.vm_ip(region, 0),
                leaf,
                host_city,
                t.host_ip(leaf, host_city, 0),
                Tier::Premium,
                Direction::ToCloud,
            )
            .unwrap();
        assert!((path.hops.first().unwrap().oneway_ms - 0.0).abs() < 1e-9);
        assert!((path.hops.last().unwrap().oneway_ms - path.oneway_ms).abs() < 1e-9);
    }

    /// FNV-1a over everything written to it.
    struct Fnv(u64);

    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
            Ok(())
        }
    }

    /// Fingerprint of the `Debug` dump of [`Paths::vm_host_path_flow`]
    /// from two regions to every non-cloud AS's first city, under both
    /// tiers, in both directions, for flows 0..4. `Debug` prints every
    /// hop, segment and `f64` exactly, so any change to a built path
    /// (including a `None`) changes the hash.
    fn path_fingerprint(t: &Topology) -> u64 {
        use std::fmt::Write;
        let p = Paths::new(t);
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        for region in ["The Dalles", "St. Ghislain"] {
            let region = t.cities.by_name(region).unwrap();
            let vm_ip = t.vm_ip(region, 0);
            for host in t.non_cloud_ases() {
                let city = t.as_node(host).cities[0];
                let ip = t.host_ip(host, city, 0);
                for tier in [Tier::Premium, Tier::Standard] {
                    for dir in [Direction::ToServer, Direction::ToCloud] {
                        for flow in 0..4 {
                            let path =
                                p.vm_host_path_flow(region, vm_ip, host, city, ip, tier, dir, flow);
                            write!(h, "{path:?}").unwrap();
                        }
                    }
                }
            }
        }
        h.0
    }

    #[test]
    fn router_paths_are_pinned() {
        // Every path-level figure starts from these paths, so their
        // construction is pinned hop for hop and segment for segment.
        for (seed, pinned) in [(11, 0xb275_a420_5dd3_319b), (29, 0x949e_410c_a57c_84ee)] {
            let t = Topology::generate(TopologyConfig::tiny(seed));
            assert_eq!(path_fingerprint(&t), pinned, "tiny {seed}");
        }
    }
}

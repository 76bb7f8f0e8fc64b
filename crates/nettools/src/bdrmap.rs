//! Interdomain border inference (a from-scratch `bdrmap`).
//!
//! The pilot scan (§3.1) runs `bdrmap` from a VM in each region "to
//! discover interconnections between the regions and neighboring ASes".
//! The core difficulty: the far-side router interface of a PNI is usually
//! numbered from the *cloud's* address space, so a prefix-to-AS lookup
//! attributes it to the cloud. Real bdrmap untangles this with path
//! evidence and alias resolution; this implementation does the same:
//!
//! 1. In every traceroute, find the last hop that the prefix-to-AS
//!    dataset maps to the cloud and that is followed by a hop in another
//!    AS — that interface is a *candidate far side* of a border link.
//! 2. The AS of the next responsive hop casts a vote for the candidate's
//!    operator; votes aggregate across traces.
//! 3. Where available, alias resolution (the candidate router also
//!    answers on an address inside the neighbor's own space) overrides
//!    votes with direct evidence.
//!
//! Silent hops make this genuinely fallible, exactly like the real tool.
//!
//! Inference is one fold: [`BdrMap::observe`] each path's responsive hops,
//! weighted by how many traces reported them, then one
//! [`BdrMap::resolve_aliases`] pass. [`BdrMap::infer`] runs it over
//! recorded traceroutes; the pilot scan feeds it the distinct paths of its
//! ECMP sweep straight from [`Scamper::paris_sweep`], without building a
//! trace per flow.
//!
//! [`Scamper::paris_sweep`]: crate::scamper::Scamper::paris_sweep

use crate::traceroute::Traceroute;
use simnet::asn::Asn;
use simnet::prefix2as::PrefixToAs;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// An inferred border link, keyed by its far-side interface.
#[derive(Debug, Clone)]
pub struct BorderLink {
    /// Far-side (neighbor-operated) interface.
    pub far_ip: Ipv4Addr,
    /// Near-side (cloud) interface, when observed.
    pub near_ip: Option<Ipv4Addr>,
    /// Neighbor AS votes: AS → number of supporting traces.
    pub votes: BTreeMap<Asn, u32>,
    /// Definitive owner from alias resolution, if resolved.
    pub alias_owner: Option<Asn>,
    /// Traces that traversed this interface.
    pub trace_count: u32,
}

impl BorderLink {
    /// The inferred neighbor: alias evidence wins, else majority vote
    /// (ties broken by lowest ASN for determinism).
    pub fn inferred_neighbor(&self) -> Option<Asn> {
        if let Some(owner) = self.alias_owner {
            return Some(owner);
        }
        self.votes
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0 .0.cmp(&a.0 .0)))
            .map(|(asn, _)| *asn)
    }
}

/// Alias resolution: can a probe discover an in-AS alias of a candidate
/// border router? Implementations answer with the owner ASN when the
/// router responds on an address inside its operator's space.
pub trait AliasResolver {
    /// Returns the owner ASN of the router holding `ip`, if resolvable.
    fn resolve(&self, ip: Ipv4Addr) -> Option<Asn>;
}

/// No alias resolution available.
pub struct NoAliases;

impl AliasResolver for NoAliases {
    fn resolve(&self, _: Ipv4Addr) -> Option<Asn> {
        None
    }
}

/// The border map produced by inference.
#[derive(Debug, Default)]
pub struct BdrMap {
    /// Inferred links by far-side interface.
    pub links: BTreeMap<Ipv4Addr, BorderLink>,
}

impl BdrMap {
    /// Runs inference over a set of traceroutes: [`observe`](Self::observe)
    /// each trace's responsive hops once, then
    /// [`resolve_aliases`](Self::resolve_aliases).
    ///
    /// `cloud_asn` is the AS whose borders are being mapped; `p2a` is the
    /// (misleading, by design) prefix-to-AS dataset; `aliases` provides
    /// optional alias resolution.
    pub fn infer(
        traces: &[Traceroute],
        p2a: &PrefixToAs,
        cloud_asn: Asn,
        aliases: &dyn AliasResolver,
    ) -> Self {
        let mut map = Self::default();
        let mut hops: Vec<Ipv4Addr> = Vec::new();
        for trace in traces {
            hops.clear();
            hops.extend(trace.hops.iter().filter_map(|h| h.ip));
            map.observe(&hops, 1, p2a, cloud_asn);
        }
        map.resolve_aliases(aliases);
        map
    }

    /// Folds one path's evidence into the map: `hops` are the responsive
    /// hops of a trace, in TTL order, and `weight` is how many traces
    /// reported exactly those hops. Observing a path with weight `w` equals
    /// observing it `w` times in a row, and a repeat of an already observed
    /// path can only add counts, so a sweep may fold each distinct path
    /// once, at its first occurrence.
    pub fn observe(&mut self, hops: &[Ipv4Addr], weight: u32, p2a: &PrefixToAs, cloud_asn: Asn) {
        // The candidate far side is the last cloud-mapped hop followed by
        // a non-cloud hop; its vote is the first non-cloud hop after it.
        // One reverse pass finds both: walking backwards, remember the
        // nearest foreign-mapped hop behind the cursor; the first cloud
        // hop met with one remembered is the candidate, and the
        // remembered AS is its vote.
        let mut vote: Option<Asn> = None;
        let mut candidate: Option<(usize, Ipv4Addr)> = None;
        for (i, &ip) in hops.iter().enumerate().rev() {
            match p2a.lookup(ip).map(|(_, asn)| asn) {
                Some(asn) if asn != cloud_asn => vote = Some(asn),
                Some(_) if vote.is_some() => {
                    candidate = Some((i, ip));
                    break;
                }
                _ => {}
            }
        }
        let (Some((idx, far_ip)), Some(vote)) = (candidate, vote) else {
            return;
        };
        let near_ip = idx.checked_sub(1).and_then(|i| hops.get(i)).copied();

        let entry = self.links.entry(far_ip).or_insert_with(|| BorderLink {
            far_ip,
            near_ip,
            votes: BTreeMap::new(),
            alias_owner: None,
            trace_count: 0,
        });
        entry.trace_count += weight;
        if entry.near_ip.is_none() {
            entry.near_ip = near_ip;
        }
        *entry.votes.entry(vote).or_insert(0) += weight;
    }

    /// Alias-resolution pass: asks `aliases` for the owner of every
    /// candidate far side. Run once, after the last
    /// [`observe`](Self::observe).
    pub fn resolve_aliases(&mut self, aliases: &dyn AliasResolver) {
        for link in self.links.values_mut() {
            link.alias_owner = aliases.resolve(link.far_ip);
        }
    }

    /// Number of discovered border links (unique far-side interfaces).
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Links grouped by inferred neighbor ASN.
    pub fn by_neighbor(&self) -> BTreeMap<Asn, Vec<Ipv4Addr>> {
        let mut out: BTreeMap<Asn, Vec<Ipv4Addr>> = BTreeMap::new();
        for link in self.links.values() {
            if let Some(asn) = link.inferred_neighbor() {
                out.entry(asn).or_default().push(link.far_ip);
            }
        }
        for v in out.values_mut() {
            v.sort_unstable();
        }
        out
    }
}

/// Ground-truth-backed alias resolver over a `simnet` topology: a border
/// router resolves with probability `coverage` (alias resolution never
/// covers everything in practice).
pub struct SimAliasResolver<'t> {
    topo: &'t simnet::topology::Topology,
    far_index: BTreeMap<Ipv4Addr, Asn>,
    coverage: f64,
}

impl<'t> SimAliasResolver<'t> {
    /// Builds the resolver with the given coverage fraction.
    pub fn new(topo: &'t simnet::topology::Topology, coverage: f64) -> Self {
        let far_index = topo
            .links
            .iter()
            .map(|l| (l.far_ip, topo.as_node(l.neighbor).asn))
            .collect();
        Self {
            topo,
            far_index,
            coverage,
        }
    }
}

impl AliasResolver for SimAliasResolver<'_> {
    fn resolve(&self, ip: Ipv4Addr) -> Option<Asn> {
        let owner = *self.far_index.get(&ip)?;
        // Deterministic per-interface coverage.
        let h = simnet::routing::load_key(b"alias", u64::from(u32::from(ip)), 0);
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        let _ = self.topo;
        (u < self.coverage).then_some(owner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traceroute::{traceroute, TraceMode};
    use simnet::routing::{Paths, Tier};
    use simnet::topology::{Topology, TopologyConfig};

    fn scan(topo: &Topology, coverage: f64) -> (BdrMap, usize) {
        let paths = Paths::new(topo);
        let p2a = PrefixToAs::build(topo);
        let region = topo.cities.by_name("The Dalles").unwrap();
        let vm = topo.vm_ip(region, 0);
        let mut traces = Vec::new();
        for id in topo.non_cloud_ases() {
            let node = topo.as_node(id);
            for &city in node.cities.iter().take(2) {
                let ip = topo.host_ip(id, city, 0);
                for flow in 0..6 {
                    if let Some(t) = traceroute(
                        &paths,
                        region,
                        vm,
                        id,
                        city,
                        ip,
                        Tier::Premium,
                        TraceMode::Paris,
                        flow,
                        17,
                    ) {
                        traces.push(t);
                    }
                }
            }
        }
        let aliases = SimAliasResolver::new(topo, coverage);
        let map = BdrMap::infer(&traces, &p2a, simnet::topology::CLOUD_ASN, &aliases);
        (map, traces.len())
    }

    #[test]
    fn discovers_a_substantial_fraction_of_links() {
        let topo = Topology::generate(TopologyConfig::tiny(51));
        let (map, n_traces) = scan(&topo, 0.9);
        assert!(n_traces > 100);
        let discovered = map.link_count();
        let truth = topo.links.len();
        assert!(
            discovered as f64 > truth as f64 * 0.25,
            "discovered {discovered} of {truth}"
        );
        // And never more than exist.
        assert!(discovered <= truth);
    }

    #[test]
    fn inference_is_mostly_correct() {
        let topo = Topology::generate(TopologyConfig::tiny(52));
        let (map, _) = scan(&topo, 0.9);
        let truth: BTreeMap<Ipv4Addr, Asn> = topo
            .links
            .iter()
            .map(|l| (l.far_ip, topo.as_node(l.neighbor).asn))
            .collect();
        let mut correct = 0;
        let mut wrong = 0;
        for (far_ip, link) in &map.links {
            match (link.inferred_neighbor(), truth.get(far_ip)) {
                (Some(inferred), Some(actual)) if inferred == *actual => correct += 1,
                (Some(_), Some(_)) => wrong += 1,
                _ => {}
            }
        }
        assert!(correct > 0);
        let accuracy = correct as f64 / (correct + wrong).max(1) as f64;
        assert!(accuracy > 0.9, "accuracy = {accuracy}");
    }

    #[test]
    fn without_aliases_votes_still_identify_neighbors() {
        let topo = Topology::generate(TopologyConfig::tiny(53));
        let (map, _) = scan(&topo, 0.0);
        let truth: BTreeMap<Ipv4Addr, Asn> = topo
            .links
            .iter()
            .map(|l| (l.far_ip, topo.as_node(l.neighbor).asn))
            .collect();
        let mut correct = 0;
        let mut total = 0;
        for (far_ip, link) in &map.links {
            assert!(link.alias_owner.is_none());
            if let (Some(inferred), Some(actual)) = (link.inferred_neighbor(), truth.get(far_ip)) {
                total += 1;
                if inferred == *actual {
                    correct += 1;
                }
            }
        }
        assert!(total > 0);
        // Votes come from the next hop, which lives in the neighbor (or a
        // customer of it when the neighbor is transit) — decent but
        // imperfect accuracy is the expected behaviour.
        assert!(
            correct as f64 / total as f64 > 0.6,
            "{correct}/{total} correct"
        );
    }

    #[test]
    fn by_neighbor_groups_links() {
        let topo = Topology::generate(TopologyConfig::tiny(54));
        let (map, _) = scan(&topo, 1.0);
        let grouped = map.by_neighbor();
        let total: usize = grouped.values().map(Vec::len).sum();
        assert!(total <= map.link_count());
        assert!(!grouped.is_empty());
    }

    #[test]
    fn empty_trace_set_yields_empty_map() {
        let topo = Topology::generate(TopologyConfig::tiny(55));
        let p2a = PrefixToAs::build(&topo);
        let map = BdrMap::infer(&[], &p2a, simnet::topology::CLOUD_ASN, &NoAliases);
        assert_eq!(map.link_count(), 0);
    }

    #[test]
    fn majority_vote_tiebreak_is_deterministic() {
        let mut link = BorderLink {
            far_ip: Ipv4Addr::new(10, 0, 0, 2),
            near_ip: None,
            votes: BTreeMap::new(),
            alias_owner: None,
            trace_count: 2,
        };
        link.votes.insert(Asn(200), 3);
        link.votes.insert(Asn(100), 3);
        assert_eq!(link.inferred_neighbor(), Some(Asn(100)));
        link.alias_owner = Some(Asn(999));
        assert_eq!(link.inferred_neighbor(), Some(Asn(999)));
    }
}

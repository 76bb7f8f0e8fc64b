//! Differential-based server selection (§3.1, method 2).
//!
//! The pre-test measures latency from >10k edge vantage points to VMs on
//! both network tiers, groups samples by `<city, AS, region, tier>`,
//! keeps tuples with more than 100 measurements, and computes per-tuple
//! medians. Candidate tuples are those where the tiers differ by ≥ 50 ms
//! in absolute value ("significantly different") or by ≤ 10 ms
//! ("comparable"). Speed-test servers in the same `<city, AS>` as a
//! candidate tuple are eligible; 15–17 are chosen per region,
//! "heuristically maximizing geographic and network coverage".

use crate::world::World;
use clasp_stats::median;
use simnet::geo::CityId;
use simnet::perf::PerfModel;
use simnet::routing::{Paths, Tier};
use simnet::time::SimTime;
use simnet::topology::AsId;
use speedtest::vantage::VantageSet;
use std::collections::{BTreeMap, HashMap};

/// Latency relation between the tiers for a candidate tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LatencyClass {
    /// |Δ| ≤ 10 ms.
    Comparable,
    /// Premium at least 50 ms lower.
    PremiumLower,
    /// Standard at least 50 ms lower.
    StandardLower,
}

impl LatencyClass {
    /// Display label (used in Fig. 5 legends).
    pub fn label(&self) -> &'static str {
        match self {
            LatencyClass::Comparable => "comparable",
            LatencyClass::PremiumLower => "premium-lower",
            LatencyClass::StandardLower => "standard-lower",
        }
    }
}

/// One selected server with its pre-test class.
#[derive(Debug, Clone)]
pub struct DifferentialPick {
    /// Server id.
    pub server_id: String,
    /// Latency class of its `<city, AS>` tuple.
    pub class: LatencyClass,
    /// Median premium latency of the tuple, ms.
    pub premium_ms: f64,
    /// Median standard latency of the tuple, ms.
    pub standard_ms: f64,
}

/// Result of the differential selection for one region.
#[derive(Debug, Clone)]
pub struct DifferentialSelection {
    /// Region name.
    pub region: String,
    /// Tuples with enough samples.
    pub tuples_considered: usize,
    /// Tuples matching the candidate conditions.
    pub candidate_tuples: usize,
    /// The selected servers.
    pub picks: Vec<DifferentialPick>,
}

/// Pre-test parameters.
#[derive(Debug, Clone, Copy)]
pub struct PreTestConfig {
    /// Probes per VP per tier (the paper requires >100 per tuple; tuples
    /// aggregate several VPs, so this times VPs-per-tuple crosses 100).
    pub probes_per_vp: u32,
    /// Minimum samples for a tuple to be considered.
    pub min_samples: usize,
    /// Candidate threshold: "significantly different", ms.
    pub big_delta_ms: f64,
    /// Candidate threshold: "comparable", ms.
    pub small_delta_ms: f64,
    /// Servers to pick.
    pub picks: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for PreTestConfig {
    fn default() -> Self {
        Self {
            probes_per_vp: 120,
            min_samples: 100,
            big_delta_ms: 50.0,
            small_delta_ms: 10.0,
            picks: 17,
            seed: 0xd1ff,
        }
    }
}

/// Runs the differential selection for one region.
pub fn select(
    world: &World,
    paths: &Paths<'_>,
    perf: &PerfModel<'_>,
    region_name: &str,
    region_city: CityId,
    cfg: &PreTestConfig,
) -> DifferentialSelection {
    let topo = &world.topo;
    let region_country = topo.cities.get(region_city).country;
    let vm_ip = topo.vm_ip(region_city, 1);
    let vps = VantageSet::generate(topo, cfg.seed);
    let samples = vps.probe_tiers(
        paths,
        perf,
        region_city,
        vm_ip,
        SimTime::EPOCH,
        cfg.probes_per_vp,
        cfg.seed,
    );

    // Group by <city, AS, tier> (region is fixed here). Ordered map:
    // the tuple emission order below is observable downstream.
    let mut grouped: BTreeMap<(AsId, CityId, bool), Vec<f64>> = BTreeMap::new();
    for s in &samples {
        let vp = &vps.vps[s.vp as usize];
        grouped
            .entry((vp.as_id, vp.city, s.tier == Tier::Premium))
            .or_default()
            .push(s.rtt_ms);
    }

    // Per-tuple medians where both tiers have enough samples.
    let mut tuples: Vec<(AsId, CityId, f64, f64)> = Vec::new();
    let mut seen: std::collections::BTreeSet<(u32, u16)> = std::collections::BTreeSet::new();
    for (&(as_id, city, premium), rtts) in &grouped {
        if !premium || !seen.insert((as_id.0, city.0)) {
            continue;
        }
        let std_key = (as_id, city, false);
        let Some(std_rtts) = grouped.get(&std_key) else {
            continue;
        };
        if rtts.len() < cfg.min_samples || std_rtts.len() < cfg.min_samples {
            continue;
        }
        let (Some(prem_med), Some(std_med)) = (median(rtts), median(std_rtts)) else {
            continue;
        };
        tuples.push((as_id, city, prem_med, std_med));
    }
    let tuples_considered = tuples.len();

    // Candidate conditions.
    let classify = |prem: f64, std: f64| -> Option<LatencyClass> {
        let delta = std - prem;
        if delta.abs() <= cfg.small_delta_ms {
            Some(LatencyClass::Comparable)
        } else if delta >= cfg.big_delta_ms {
            Some(LatencyClass::PremiumLower)
        } else if -delta >= cfg.big_delta_ms {
            Some(LatencyClass::StandardLower)
        } else {
            None
        }
    };
    let mut candidates: Vec<(AsId, CityId, LatencyClass, f64, f64)> = tuples
        .into_iter()
        .filter_map(|(a, c, p, s)| classify(p, s).map(|cl| (a, c, cl, p, s)))
        .collect();
    let candidate_tuples = candidates.len();

    // Deterministic order, then greedy coverage maximisation with a
    // per-class quota: the paper's selection deliberately includes all
    // three latency classes (Fig. 5 colours by them), so no single class
    // may take more than its share plus the unfilled remainder.
    candidates.sort_by_key(|(a, c, _, _, _)| (a.0, c.0));
    let quota = cfg.picks.div_ceil(3) + 1;
    let mut class_counts: HashMap<LatencyClass, usize> = HashMap::new();
    let mut picks: Vec<DifferentialPick> = Vec::new();
    let mut seen_cities: std::collections::BTreeSet<u16> = Default::default();
    let mut seen_ases: std::collections::BTreeSet<u32> = Default::default();
    let mut seen_countries: std::collections::BTreeSet<&str> = Default::default();
    let mut remaining = candidates.clone();
    while picks.len() < cfg.picks && !remaining.is_empty() {
        // Score: new country (4) + new city (2) + new AS (1); classes
        // over quota are heavily penalised but not excluded (so the
        // selection still fills up when one class dominates candidates).
        let Some((best_idx, _)) = remaining
            .iter()
            .enumerate()
            .map(|(i, (a, c, class, _, _))| {
                let country = topo.cities.get(*c).country;
                let mut score: i32 = 0;
                if class_counts.get(class).copied().unwrap_or(0) >= quota {
                    score -= 20;
                }
                // From a non-US region, US servers are redundant with
                // the US campaigns (the paper's europe-west1 picks span
                // Europe, India and Australia — Fig. 7f).
                if country == "US" && region_country != "US" {
                    score -= 15;
                }
                if !seen_countries.contains(country) {
                    score += 4;
                }
                if !seen_cities.contains(&c.0) {
                    score += 2;
                }
                if !seen_ases.contains(&a.0) {
                    score += 1;
                }
                (i, score)
            })
            .max_by_key(|&(i, score)| (score, std::cmp::Reverse(i)))
        else {
            break;
        };
        let (as_id, city, class, prem, std_) = remaining.remove(best_idx);
        // A candidate tuple is only usable if a speed-test server exists
        // in the same <city, AS>.
        let server = world
            .registry
            .servers
            .iter()
            .find(|s| s.as_id == as_id && s.city == city);
        let Some(server) = server else { continue };
        if picks.iter().any(|p| p.server_id == server.id) {
            continue;
        }
        *class_counts.entry(class).or_insert(0) += 1;
        seen_cities.insert(city.0);
        seen_ases.insert(as_id.0);
        seen_countries.insert(topo.cities.get(city).country);
        picks.push(DifferentialPick {
            server_id: server.id.clone(),
            class,
            premium_ms: prem,
            standard_ms: std_,
        });
    }

    DifferentialSelection {
        region: region_name.to_string(),
        tuples_considered,
        candidate_tuples,
        picks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(seed: u64) -> (World, DifferentialSelection) {
        let world = World::tiny(seed);
        let sel = {
            let session = world.session();
            let region = world.topo.cities.by_name("St. Ghislain").unwrap();
            select(
                &world,
                &session.paths,
                &session.perf,
                "europe-west1",
                region,
                &PreTestConfig {
                    probes_per_vp: 110,
                    ..PreTestConfig::default()
                },
            )
        };
        (world, sel)
    }

    #[test]
    fn pretest_finds_tuples_and_candidates() {
        let (_, sel) = run(111);
        assert!(sel.tuples_considered > 10, "{}", sel.tuples_considered);
        assert!(sel.candidate_tuples > 0);
        assert!(sel.candidate_tuples <= sel.tuples_considered);
    }

    #[test]
    fn picks_have_servers_and_classes() {
        let (world, sel) = run(112);
        assert!(!sel.picks.is_empty());
        assert!(sel.picks.len() <= 17);
        for p in &sel.picks {
            assert!(world.registry.by_id(&p.server_id).is_some());
            match p.class {
                LatencyClass::Comparable => {
                    assert!((p.standard_ms - p.premium_ms).abs() <= 10.0);
                }
                LatencyClass::PremiumLower => {
                    assert!(p.standard_ms - p.premium_ms >= 50.0);
                }
                LatencyClass::StandardLower => {
                    assert!(p.premium_ms - p.standard_ms >= 50.0);
                }
            }
        }
    }

    #[test]
    fn picks_are_distinct_servers() {
        let (_, sel) = run(113);
        let mut ids: Vec<&str> = sel.picks.iter().map(|p| p.server_id.as_str()).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn selection_is_deterministic() {
        let (_, a) = run(114);
        let (_, b) = run(114);
        let ids = |s: &DifferentialSelection| {
            s.picks
                .iter()
                .map(|p| p.server_id.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(ids(&a), ids(&b));
    }

    /// FNV-1a over `(vp, tier, rtt bits)` of every pre-test sample.
    fn probe_fingerprint(world: &World, region: &str) -> u64 {
        let session = world.session();
        let cfg = PreTestConfig::default();
        let city = world.topo.cities.by_name(region).unwrap();
        let samples = VantageSet::generate(&world.topo, cfg.seed).probe_tiers(
            &session.paths,
            &session.perf,
            city,
            world.topo.vm_ip(city, 1),
            SimTime::EPOCH,
            cfg.probes_per_vp,
            cfg.seed,
        );
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for s in samples {
            let bytes = s.vp.to_le_bytes().into_iter();
            let bytes = bytes.chain([(s.tier == Tier::Premium) as u8]);
            for b in bytes.chain(s.rtt_ms.to_bits().to_le_bytes()) {
                h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn pretest_samples_are_pinned() {
        // Captured before the queue pass learned to skip idle segments;
        // every sample's RTT must keep its exact bits.
        let world = World::tiny(111);
        assert_eq!(
            probe_fingerprint(&world, "St. Ghislain"),
            0xdf0d_69a1_01ce_3ebf
        );
        assert_eq!(
            probe_fingerprint(&world, "The Dalles"),
            0x7a37_6182_40a6_60a8
        );
    }

    #[test]
    fn class_labels() {
        assert_eq!(LatencyClass::Comparable.label(), "comparable");
        assert_eq!(LatencyClass::PremiumLower.label(), "premium-lower");
        assert_eq!(LatencyClass::StandardLower.label(), "standard-lower");
    }
}

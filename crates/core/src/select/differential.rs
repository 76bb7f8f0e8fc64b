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
use std::collections::HashMap;

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
    /// Pre-test RTT evaluations (probes over every VP and tier).
    pub pretest_probes: u64,
    /// Distinct path segments whose queueing delay the pre-test computed
    /// over its probe instants (each once, for every path crossing it).
    pub pretest_queue_series: u64,
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

/// The pre-test's `(AS, city, premium median, standard median)` tuples
/// in `(AS, city)` order.
type PretestTuples = Vec<(AsId, CityId, f64, f64)>;

/// The pre-test's tuples, with the RTT evaluations it took and the
/// distinct segments whose queue series it computed.
fn pretest_tuples(
    world: &World,
    paths: &Paths<'_>,
    perf: &PerfModel<'_>,
    region_city: CityId,
    cfg: &PreTestConfig,
) -> (PretestTuples, u64, u64) {
    let topo = &world.topo;
    let vm_ip = topo.vm_ip(region_city, 1);
    // Every VP is its own <city, AS> tuple (region and tier fixed per
    // call), so a tuple's samples are one (VP, tier) slice: its median is
    // taken as the slice arrives, the premium one held until the same
    // VP's standard slice follows. Tuples need both tiers with enough
    // samples.
    let mut tuples: PretestTuples = Vec::new();
    let mut premium: Option<(u32, f64)> = None;
    let mut pretest_probes = 0u64;
    let queue_series = VantageSet::generate(topo, cfg.seed).probe_tiers(
        paths,
        perf,
        region_city,
        vm_ip,
        SimTime::EPOCH,
        cfg.probes_per_vp,
        cfg.seed,
        |vp, tier, rtts| {
            pretest_probes += rtts.len() as u64;
            if rtts.len() < cfg.min_samples {
                return;
            }
            match tier {
                Tier::Premium => premium = median(rtts).map(|m| (vp.id, m)),
                Tier::Standard => {
                    let Some((_, prem_med)) = premium.take().filter(|(id, _)| *id == vp.id) else {
                        return;
                    };
                    if let Some(std_med) = median(rtts) {
                        tuples.push((vp.as_id, vp.city, prem_med, std_med));
                    }
                }
            }
        },
    );
    tuples.sort_by_key(|(a, c, _, _)| (*a, *c));
    (tuples, pretest_probes, queue_series)
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
    let (tuples, pretest_probes, pretest_queue_series) =
        pretest_tuples(world, paths, perf, region_city, cfg);
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
    let mut remaining: Vec<(AsId, CityId, LatencyClass, f64, f64)> = tuples
        .into_iter()
        .filter_map(|(a, c, p, s)| classify(p, s).map(|cl| (a, c, cl, p, s)))
        .collect();
    let candidate_tuples = remaining.len();

    // Greedy coverage maximisation, in (AS, city) order, with a
    // per-class quota: the paper's selection deliberately includes all
    // three latency classes (Fig. 5 colours by them), so no single class
    // may take more than its share plus the unfilled remainder.
    let quota = cfg.picks.div_ceil(3) + 1;
    let mut class_counts: HashMap<LatencyClass, usize> = HashMap::new();
    let mut picks: Vec<DifferentialPick> = Vec::new();
    let mut seen_cities: std::collections::BTreeSet<u16> = Default::default();
    let mut seen_ases: std::collections::BTreeSet<u32> = Default::default();
    let mut seen_countries: std::collections::BTreeSet<&str> = Default::default();
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
        pretest_probes,
        pretest_queue_series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

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
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        VantageSet::generate(&world.topo, cfg.seed).probe_tiers(
            &session.paths,
            &session.perf,
            city,
            world.topo.vm_ip(city, 1),
            SimTime::EPOCH,
            cfg.probes_per_vp,
            cfg.seed,
            |vp, tier, rtts| {
                for rtt in rtts {
                    let bytes = vp.id.to_le_bytes().into_iter();
                    let bytes = bytes.chain([(tier == Tier::Premium) as u8]);
                    for b in bytes.chain(rtt.to_bits().to_le_bytes()) {
                        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
                    }
                }
            },
        );
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

    /// The pre-test's direct per-VP medians equal the medians of its
    /// samples grouped by `<AS, city, tier>`, bit for bit.
    #[test]
    fn pretest_tuples_equal_grouped_medians() {
        let world = World::tiny(111);
        let session = world.session();
        for (region, probes_per_vp) in [
            ("St. Ghislain", 120),
            ("The Dalles", 120),
            ("The Dalles", 90),
        ] {
            let cfg = PreTestConfig {
                probes_per_vp,
                ..PreTestConfig::default()
            };
            let city = world.topo.cities.by_name(region).unwrap();
            let mut grouped: BTreeMap<(AsId, CityId, bool), Vec<f64>> = BTreeMap::new();
            VantageSet::generate(&world.topo, cfg.seed).probe_tiers(
                &session.paths,
                &session.perf,
                city,
                world.topo.vm_ip(city, 1),
                SimTime::EPOCH,
                cfg.probes_per_vp,
                cfg.seed,
                |vp, tier, rtts| {
                    grouped
                        .entry((vp.as_id, vp.city, tier == Tier::Premium))
                        .or_default()
                        .extend_from_slice(rtts)
                },
            );
            let mut expected = Vec::new();
            for (&(as_id, city, premium), prem) in &grouped {
                let Some(std) = grouped.get(&(as_id, city, false)).filter(|_| premium) else {
                    continue;
                };
                if prem.len() >= cfg.min_samples && std.len() >= cfg.min_samples {
                    expected.push((as_id, city, median(prem).unwrap(), median(std).unwrap()));
                }
            }
            let (direct, probes, queue_series) =
                pretest_tuples(&world, &session.paths, &session.perf, city, &cfg);
            let bits = |t: &[(AsId, CityId, f64, f64)]| -> Vec<(AsId, CityId, u64, u64)> {
                t.iter()
                    .map(|&(a, c, p, s)| (a, c, p.to_bits(), s.to_bits()))
                    .collect()
            };
            assert_eq!(bits(&direct), bits(&expected), "{region} {probes_per_vp}");
            let n_samples: usize = grouped.values().map(Vec::len).sum();
            assert_eq!(probes, n_samples as u64);
            assert!(queue_series > 0);
            assert_eq!(direct.is_empty(), probes_per_vp < 100);
        }
    }

    /// Each vantage point of the paper world is its own `<AS, city>`
    /// tuple, so a tuple's samples are one VP's: the fact that lets the
    /// pre-test take medians per VP without grouping.
    #[test]
    fn paper_world_vantage_points_are_unique_tuples() {
        // The paper world's seed (`analysis::harness::PAPER_SEED`).
        let topo = simnet::topology::Topology::generate(simnet::topology::TopologyConfig {
            seed: 0x5EED_CA1D,
            ..Default::default()
        });
        let vps = VantageSet::generate(&topo, PreTestConfig::default().seed).vps;
        let tuples: std::collections::BTreeSet<(AsId, CityId)> =
            vps.iter().map(|v| (v.as_id, v.city)).collect();
        assert!(vps.len() > 1_000, "{} VPs", vps.len());
        assert_eq!(tuples.len(), vps.len(), "duplicate <AS, city> tuples");
    }

    #[test]
    fn class_labels() {
        assert_eq!(LatencyClass::Comparable.label(), "comparable");
        assert_eq!(LatencyClass::PremiumLower.label(), "premium-lower");
        assert_eq!(LatencyClass::StandardLower.label(), "standard-lower");
    }
}

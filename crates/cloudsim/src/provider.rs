//! Data-driven cloud-provider descriptors.
//!
//! The original crate baked one provider into statics: the `&'static
//! Region` registry, the GCP zone-naming scheme, the dual network tiers
//! and the 2020 GCP price sheet. A [`ProviderProfile`] lifts all of that
//! into data — region set, zone style, tier policy, egress pricing,
//! peering/transit interconnect policy, fabric oversubscription — so a
//! world can host several providers at once (the CloudCast setting,
//! arxiv 2201.06989) and a private OpenStack-style cloud (arxiv
//! 2210.09691) can sit next to the public ones.
//!
//! Three profiles are built in:
//!
//! * **gcp** — the paper's provider, its regions built from the static
//!   [`crate::region::GCP_REGIONS`] table;
//! * **nimbus** — a second public cloud with its own regions, cheaper
//!   egress, and the same dual-tier service model;
//! * **metalstack** — an OpenStack-style private cloud: one service
//!   tier, transit-only interconnects, nominal-zero egress pricing and a
//!   much higher fabric oversubscription factor.
//!
//! A [`WorldSpec`] groups 2–3 profiles with the inter-cloud
//! interconnects between them; `clasp-core`'s cross-cloud campaign and
//! `simnet`'s inter-cloud link model both consume it.

use crate::billing::PriceSchedule;
use crate::region::GCP_REGIONS;
use serde::{Deserialize, Serialize};
use simnet::geo::{CityDb, CityId};
use simnet::topology::CongestionClass;
use std::sync::OnceLock;

/// How a provider names its availability zones.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ZoneStyle {
    /// GCP-style letter suffix: `us-west1-b` for zone index 1.
    #[default]
    LetterSuffix,
    /// OpenStack-style numbered AZ: `rack-chi-az2` for zone index 1.
    NumberedAz,
}

impl ZoneStyle {
    /// Canonical JSON label.
    pub fn as_str(self) -> &'static str {
        match self {
            ZoneStyle::LetterSuffix => "letter_suffix",
            ZoneStyle::NumberedAz => "numbered_az",
        }
    }

    /// Inverse of [`Self::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "letter_suffix" => Some(ZoneStyle::LetterSuffix),
            "numbered_az" => Some(ZoneStyle::NumberedAz),
            _ => None,
        }
    }
}

/// A provider's network service tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TierPolicy {
    /// Premium (cold-potato) and standard (hot-potato) tiers, like GCP.
    DualTier,
    /// One undifferentiated tier (typical for private clouds).
    SingleTier,
}

impl TierPolicy {
    /// Canonical JSON label.
    pub fn as_str(self) -> &'static str {
        match self {
            TierPolicy::DualTier => "dual_tier",
            TierPolicy::SingleTier => "single_tier",
        }
    }

    /// Inverse of [`Self::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "dual_tier" => Some(TierPolicy::DualTier),
            "single_tier" => Some(TierPolicy::SingleTier),
            _ => None,
        }
    }
}

/// How a provider reaches other clouds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InterconnectPolicy {
    /// Use a direct peering interconnect when one exists; fall back to
    /// transit otherwise.
    PeeringPreferred,
    /// Always hand off to a transit carrier (no private peering fabric).
    TransitOnly,
}

impl InterconnectPolicy {
    /// Canonical JSON label.
    pub fn as_str(self) -> &'static str {
        match self {
            InterconnectPolicy::PeeringPreferred => "peering_preferred",
            InterconnectPolicy::TransitOnly => "transit_only",
        }
    }

    /// Inverse of [`Self::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "peering_preferred" => Some(InterconnectPolicy::PeeringPreferred),
            "transit_only" => Some(InterconnectPolicy::TransitOnly),
            _ => None,
        }
    }
}

/// One region of a provider.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegionSpec {
    /// Region name, e.g. `us-west1`.
    pub name: String,
    /// Host city name (resolved against the simnet city table).
    pub city: String,
    /// Number of availability zones.
    pub zones: u8,
    /// Zone naming scheme.
    #[serde(default)]
    pub zone_style: ZoneStyle,
}

impl RegionSpec {
    /// Resolves the region's host city in the city table.
    pub fn city_id(&self, cities: &CityDb) -> CityId {
        cities
            .by_name(&self.city)
            // clasp-lint: allow(P002) -- WorldSpec::validate rejects unknown cities before any campaign runs
            .expect("provider region cities are validated at spec construction")
    }

    /// Zone name for a zone index, in the provider's naming scheme.
    pub fn zone_name(&self, index: u8) -> String {
        assert!(index < self.zones, "zone index out of range");
        match self.zone_style {
            ZoneStyle::LetterSuffix => format!("{}-{}", self.name, (b'a' + index) as char),
            ZoneStyle::NumberedAz => format!("{}-az{}", self.name, index + 1),
        }
    }
}

/// A data-driven cloud-provider descriptor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProviderProfile {
    /// Short provider name (`gcp`, `nimbus`, `metalstack`, ...).
    pub name: String,
    /// The provider's autonomous-system number.
    pub asn: u32,
    /// All regions, in canonical order.
    pub regions: Vec<RegionSpec>,
    /// Network tier model.
    pub tiers: TierPolicy,
    /// Egress/storage price sheet.
    pub prices: PriceSchedule,
    /// Inter-cloud routing policy.
    pub interconnect: InterconnectPolicy,
    /// Fabric oversubscription factor: effective intra-region capacity
    /// is the nominal fabric capacity divided by this. Public-cloud
    /// fabrics run close to 1; the OpenStack comparison (arxiv
    /// 2210.09691) measures far higher contention on private racks.
    pub oversubscription: f64,
    /// Regions used for topology-based campaigns (Table 1's role).
    pub topology_regions: Vec<String>,
    /// Regions used for differential campaigns (§4's role).
    pub differential_regions: Vec<String>,
    /// Regions of the Fig. 2-style variability analysis.
    pub variability_regions: Vec<String>,
}

impl ProviderProfile {
    /// Looks a region up by name.
    pub fn region(&self, name: &str) -> Option<&RegionSpec> {
        self.regions.iter().find(|r| r.name == name)
    }

    /// Index of a region in the canonical region list.
    pub fn region_index(&self, name: &str) -> Option<usize> {
        self.regions.iter().position(|r| r.name == name)
    }

    /// Resolves one of the role lists against the region set.
    fn role_regions(&self, names: &[String]) -> Vec<&RegionSpec> {
        names
            .iter()
            .map(|n| self.region(n).expect("role regions are defined"))
            .collect()
    }

    /// The regions used for topology-based measurements.
    pub fn topo_regions(&self) -> Vec<&RegionSpec> {
        self.role_regions(&self.topology_regions)
    }

    /// The regions used for differential measurements.
    pub fn diff_regions(&self) -> Vec<&RegionSpec> {
        self.role_regions(&self.differential_regions)
    }

    /// The regions of the variability analysis.
    pub fn var_regions(&self) -> Vec<&RegionSpec> {
        self.role_regions(&self.variability_regions)
    }

    /// Whether the provider offers a premium/standard tier choice.
    pub fn dual_tier(&self) -> bool {
        self.tiers == TierPolicy::DualTier
    }

    /// The GCP-alike profile the paper measured, its regions built from
    /// the static [`GCP_REGIONS`] table.
    pub fn gcp() -> &'static ProviderProfile {
        static GCP: OnceLock<ProviderProfile> = OnceLock::new();
        GCP.get_or_init(|| ProviderProfile {
            name: "gcp".into(),
            asn: 15169,
            regions: GCP_REGIONS
                .iter()
                .map(|r| RegionSpec {
                    name: r.name.into(),
                    city: r.city.into(),
                    zones: r.zones,
                    zone_style: ZoneStyle::LetterSuffix,
                })
                .collect(),
            tiers: TierPolicy::DualTier,
            prices: PriceSchedule::default(),
            interconnect: InterconnectPolicy::PeeringPreferred,
            oversubscription: 1.0,
            topology_regions: vec![
                "us-west1".into(),
                "us-west2".into(),
                "us-east1".into(),
                "us-east4".into(),
                "us-central1".into(),
            ],
            differential_regions: vec![
                "us-central1".into(),
                "us-east1".into(),
                "europe-west1".into(),
            ],
            variability_regions: vec![
                "us-west1".into(),
                "us-west2".into(),
                "us-west4".into(),
                "us-east1".into(),
                "us-east4".into(),
                "us-central1".into(),
            ],
        })
    }

    /// A second public cloud: different footprint, cheaper egress, same
    /// dual-tier service model.
    pub fn nimbus() -> &'static ProviderProfile {
        static NIMBUS: OnceLock<ProviderProfile> = OnceLock::new();
        NIMBUS.get_or_init(|| {
            let region = |name: &str, city: &str, zones: u8| RegionSpec {
                name: name.into(),
                city: city.into(),
                zones,
                zone_style: ZoneStyle::LetterSuffix,
            };
            ProviderProfile {
                name: "nimbus".into(),
                asn: 64700,
                regions: vec![
                    region("nb-east-1", "Ashburn", 4),
                    region("nb-east-2", "Columbus", 3),
                    region("nb-west-1", "Portland", 3),
                    region("nb-eu-1", "Dublin", 3),
                ],
                tiers: TierPolicy::DualTier,
                prices: PriceSchedule {
                    premium_egress_per_gb: 0.09,
                    standard_egress_per_gb: 0.07,
                    ingress_per_gb: 0.0,
                    storage_per_gb_month: 0.023,
                },
                interconnect: InterconnectPolicy::PeeringPreferred,
                oversubscription: 1.2,
                topology_regions: vec!["nb-east-1".into(), "nb-east-2".into(), "nb-west-1".into()],
                differential_regions: vec!["nb-east-1".into(), "nb-eu-1".into()],
                variability_regions: vec![
                    "nb-east-1".into(),
                    "nb-east-2".into(),
                    "nb-west-1".into(),
                ],
            }
        })
    }

    /// An OpenStack-style private cloud: two racks, one tier,
    /// transit-only reachability, nominal-zero egress pricing and the
    /// heavy fabric oversubscription the OpenStack-vs-GCP comparison
    /// measures.
    pub fn metalstack() -> &'static ProviderProfile {
        static METALSTACK: OnceLock<ProviderProfile> = OnceLock::new();
        METALSTACK.get_or_init(|| {
            let region = |name: &str, city: &str, zones: u8| RegionSpec {
                name: name.into(),
                city: city.into(),
                zones,
                zone_style: ZoneStyle::NumberedAz,
            };
            ProviderProfile {
                name: "metalstack".into(),
                asn: 64900,
                regions: vec![
                    region("rack-chi", "Chicago", 2),
                    region("rack-fra", "Frankfurt", 2),
                ],
                tiers: TierPolicy::SingleTier,
                prices: PriceSchedule {
                    premium_egress_per_gb: 0.01,
                    standard_egress_per_gb: 0.01,
                    ingress_per_gb: 0.0,
                    storage_per_gb_month: 0.008,
                },
                interconnect: InterconnectPolicy::TransitOnly,
                oversubscription: 4.0,
                topology_regions: vec!["rack-chi".into()],
                differential_regions: vec!["rack-fra".into()],
                variability_regions: vec!["rack-chi".into(), "rack-fra".into()],
            }
        })
    }

    /// Looks a built-in profile up by name.
    pub fn builtin(name: &str) -> Option<&'static ProviderProfile> {
        match name {
            "gcp" => Some(Self::gcp()),
            "nimbus" => Some(Self::nimbus()),
            "metalstack" => Some(Self::metalstack()),
            _ => None,
        }
    }

    /// Names of the built-in profiles, in canonical order.
    pub fn builtin_names() -> &'static [&'static str] {
        &["gcp", "nimbus", "metalstack"]
    }
}

/// The kind of an inter-cloud interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InterconnectKind {
    /// A private peering fabric at a shared exchange city.
    Peering,
    /// An IP-transit hand-off (two carrier hops, shared with the
    /// carrier's other customers).
    Transit,
}

impl InterconnectKind {
    /// Canonical JSON label.
    pub fn as_str(self) -> &'static str {
        match self {
            InterconnectKind::Peering => "peering",
            InterconnectKind::Transit => "transit",
        }
    }

    /// Inverse of [`Self::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "peering" => Some(InterconnectKind::Peering),
            "transit" => Some(InterconnectKind::Transit),
            _ => None,
        }
    }
}

/// Canonical JSON label for a simnet congestion class.
pub fn congestion_label(c: CongestionClass) -> &'static str {
    match c {
        CongestionClass::Clean => "clean",
        CongestionClass::Mild => "mild",
        CongestionClass::PeakCongested => "peak_congested",
        CongestionClass::DaytimeCongested => "daytime_congested",
        CongestionClass::AllDayCongested => "all_day_congested",
    }
}

/// Inverse of [`congestion_label`].
pub fn parse_congestion(s: &str) -> Option<CongestionClass> {
    match s {
        "clean" => Some(CongestionClass::Clean),
        "mild" => Some(CongestionClass::Mild),
        "peak_congested" => Some(CongestionClass::PeakCongested),
        "daytime_congested" => Some(CongestionClass::DaytimeCongested),
        "all_day_congested" => Some(CongestionClass::AllDayCongested),
        _ => None,
    }
}

/// One inter-cloud interconnect between two providers of a world.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InterconnectSpec {
    /// First provider name.
    pub a: String,
    /// Second provider name.
    pub b: String,
    /// Exchange city hosting the interconnect.
    pub city: String,
    /// Peering or transit.
    pub kind: InterconnectKind,
    /// Interconnect capacity, Gbps.
    pub capacity_gbps: f64,
    /// Diurnal load behaviour of the interconnect.
    pub congestion: CongestionClass,
}

/// A multi-provider world description: 2–3 providers plus the
/// inter-cloud links between them. JSON-serializable so `--world
/// <config.json>` can load custom constellations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorldSpec {
    /// The providers, in canonical order.
    pub providers: Vec<ProviderProfile>,
    /// Inter-cloud interconnects between them.
    pub interconnects: Vec<InterconnectSpec>,
}

impl WorldSpec {
    /// The two public clouds, peered at Ashburn and transiting in
    /// Chicago — the minimal CloudCast constellation.
    pub fn duo() -> WorldSpec {
        WorldSpec {
            providers: vec![
                ProviderProfile::gcp().clone(),
                ProviderProfile::nimbus().clone(),
            ],
            interconnects: vec![
                InterconnectSpec {
                    a: "gcp".into(),
                    b: "nimbus".into(),
                    city: "Ashburn".into(),
                    kind: InterconnectKind::Peering,
                    capacity_gbps: 400.0,
                    congestion: CongestionClass::Mild,
                },
                InterconnectSpec {
                    a: "gcp".into(),
                    b: "nimbus".into(),
                    city: "Chicago".into(),
                    kind: InterconnectKind::Transit,
                    capacity_gbps: 100.0,
                    congestion: CongestionClass::PeakCongested,
                },
            ],
        }
    }

    /// Both public clouds plus the private OpenStack-style cloud, which
    /// reaches the others over transit only.
    pub fn trio() -> WorldSpec {
        let mut spec = Self::duo();
        spec.providers.push(ProviderProfile::metalstack().clone());
        spec.interconnects.push(InterconnectSpec {
            a: "gcp".into(),
            b: "metalstack".into(),
            city: "Chicago".into(),
            kind: InterconnectKind::Transit,
            capacity_gbps: 40.0,
            congestion: CongestionClass::PeakCongested,
        });
        spec.interconnects.push(InterconnectSpec {
            a: "nimbus".into(),
            b: "metalstack".into(),
            city: "Frankfurt".into(),
            kind: InterconnectKind::Transit,
            capacity_gbps: 40.0,
            congestion: CongestionClass::DaytimeCongested,
        });
        spec
    }

    /// Looks a built-in world up by name.
    pub fn builtin(name: &str) -> Option<WorldSpec> {
        match name {
            "duo" => Some(Self::duo()),
            "trio" => Some(Self::trio()),
            _ => None,
        }
    }

    /// Serializes the spec to a canonical JSON value (`Map` is a
    /// `BTreeMap`, so object keys come out sorted).
    pub fn to_json(&self) -> serde_json::Value {
        use serde_json::{Map, Value};
        let provider = |p: &ProviderProfile| -> Value {
            let region = |r: &RegionSpec| -> Value {
                let mut m = Map::new();
                m.insert("name".into(), r.name.as_str().into());
                m.insert("city".into(), r.city.as_str().into());
                m.insert("zones".into(), (r.zones as u64).into());
                m.insert("zone_style".into(), r.zone_style.as_str().into());
                Value::Object(m)
            };
            let names = |ns: &[String]| -> Value {
                Value::Array(ns.iter().map(|n| n.as_str().into()).collect())
            };
            let mut prices = Map::new();
            prices.insert(
                "premium_egress_per_gb".into(),
                p.prices.premium_egress_per_gb.into(),
            );
            prices.insert(
                "standard_egress_per_gb".into(),
                p.prices.standard_egress_per_gb.into(),
            );
            prices.insert("ingress_per_gb".into(), p.prices.ingress_per_gb.into());
            prices.insert(
                "storage_per_gb_month".into(),
                p.prices.storage_per_gb_month.into(),
            );
            let mut m = Map::new();
            m.insert("name".into(), p.name.as_str().into());
            m.insert("asn".into(), (p.asn as u64).into());
            m.insert(
                "regions".into(),
                Value::Array(p.regions.iter().map(region).collect()),
            );
            m.insert("tiers".into(), p.tiers.as_str().into());
            m.insert("prices".into(), Value::Object(prices));
            m.insert("interconnect".into(), p.interconnect.as_str().into());
            m.insert("oversubscription".into(), p.oversubscription.into());
            m.insert("topology_regions".into(), names(&p.topology_regions));
            m.insert(
                "differential_regions".into(),
                names(&p.differential_regions),
            );
            m.insert("variability_regions".into(), names(&p.variability_regions));
            Value::Object(m)
        };
        let interconnect = |ic: &InterconnectSpec| -> Value {
            let mut m = Map::new();
            m.insert("a".into(), ic.a.as_str().into());
            m.insert("b".into(), ic.b.as_str().into());
            m.insert("city".into(), ic.city.as_str().into());
            m.insert("kind".into(), ic.kind.as_str().into());
            m.insert("capacity_gbps".into(), ic.capacity_gbps.into());
            m.insert("congestion".into(), congestion_label(ic.congestion).into());
            Value::Object(m)
        };
        let mut m = Map::new();
        m.insert(
            "providers".into(),
            Value::Array(self.providers.iter().map(provider).collect()),
        );
        m.insert(
            "interconnects".into(),
            Value::Array(self.interconnects.iter().map(interconnect).collect()),
        );
        Value::Object(m)
    }

    /// Parses a world spec from JSON (the `--world <config.json>` path).
    /// The vendored serde is a derive stub, so decoding is hand-rolled
    /// over [`serde_json::Value`]; field names match [`Self::to_json`].
    pub fn from_json(json: &str) -> Result<WorldSpec, String> {
        use serde_json::Value;
        let str_field = |v: &Value, ctx: &str, key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(|f| f.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("world spec: {ctx}: missing string {key}"))
        };
        let num_field = |v: &Value, ctx: &str, key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(|f| f.as_f64())
                .ok_or_else(|| format!("world spec: {ctx}: missing number {key}"))
        };
        let list_field = |v: &Value, ctx: &str, key: &str| -> Result<Vec<String>, String> {
            let arr = v
                .get(key)
                .and_then(|f| f.as_array())
                .ok_or_else(|| format!("world spec: {ctx}: missing array {key}"))?;
            arr.iter()
                .map(|e| {
                    e.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("world spec: {ctx}: non-string in {key}"))
                })
                .collect()
        };

        let value = serde_json::from_str(json).map_err(|e| format!("world spec: {e}"))?;
        let providers = value
            .get("providers")
            .and_then(|p| p.as_array())
            .ok_or("world spec: missing providers array")?;
        let mut out = WorldSpec {
            providers: Vec::new(),
            interconnects: Vec::new(),
        };
        for pv in providers {
            let name = str_field(pv, "provider", "name")?;
            let ctx = format!("provider {name}");
            let mut regions = Vec::new();
            let region_vals = pv
                .get("regions")
                .and_then(|r| r.as_array())
                .ok_or_else(|| format!("world spec: {ctx}: missing regions array"))?;
            for rv in region_vals {
                let zone_style = match rv.get("zone_style").and_then(|z| z.as_str()) {
                    None => ZoneStyle::default(),
                    Some(s) => ZoneStyle::parse(s)
                        .ok_or_else(|| format!("world spec: {ctx}: bad zone_style {s}"))?,
                };
                regions.push(RegionSpec {
                    name: str_field(rv, &ctx, "name")?,
                    city: str_field(rv, &ctx, "city")?,
                    zones: num_field(rv, &ctx, "zones")? as u8,
                    zone_style,
                });
            }
            let prices_val = pv
                .get("prices")
                .ok_or_else(|| format!("world spec: {ctx}: missing prices"))?;
            let tiers_str = str_field(pv, &ctx, "tiers")?;
            let ic_str = str_field(pv, &ctx, "interconnect")?;
            out.providers.push(ProviderProfile {
                regions,
                asn: num_field(pv, &ctx, "asn")? as u32,
                tiers: TierPolicy::parse(&tiers_str)
                    .ok_or_else(|| format!("world spec: {ctx}: bad tiers {tiers_str}"))?,
                prices: PriceSchedule {
                    premium_egress_per_gb: num_field(prices_val, &ctx, "premium_egress_per_gb")?,
                    standard_egress_per_gb: num_field(prices_val, &ctx, "standard_egress_per_gb")?,
                    ingress_per_gb: num_field(prices_val, &ctx, "ingress_per_gb")?,
                    storage_per_gb_month: num_field(prices_val, &ctx, "storage_per_gb_month")?,
                },
                interconnect: InterconnectPolicy::parse(&ic_str)
                    .ok_or_else(|| format!("world spec: {ctx}: bad interconnect {ic_str}"))?,
                oversubscription: num_field(pv, &ctx, "oversubscription")?,
                topology_regions: list_field(pv, &ctx, "topology_regions")?,
                differential_regions: list_field(pv, &ctx, "differential_regions")?,
                variability_regions: list_field(pv, &ctx, "variability_regions")?,
                name,
            });
        }
        let interconnects = value
            .get("interconnects")
            .and_then(|i| i.as_array())
            .ok_or("world spec: missing interconnects array")?;
        for iv in interconnects {
            let kind_str = str_field(iv, "interconnect", "kind")?;
            let congestion_str = str_field(iv, "interconnect", "congestion")?;
            out.interconnects.push(InterconnectSpec {
                a: str_field(iv, "interconnect", "a")?,
                b: str_field(iv, "interconnect", "b")?,
                city: str_field(iv, "interconnect", "city")?,
                kind: InterconnectKind::parse(&kind_str)
                    .ok_or_else(|| format!("world spec: bad interconnect kind {kind_str}"))?,
                capacity_gbps: num_field(iv, "interconnect", "capacity_gbps")?,
                congestion: parse_congestion(&congestion_str).ok_or_else(|| {
                    format!("world spec: bad interconnect congestion {congestion_str}")
                })?,
            });
        }
        Ok(out)
    }

    /// Looks a provider up by name.
    pub fn provider(&self, name: &str) -> Option<&ProviderProfile> {
        self.providers.iter().find(|p| p.name == name)
    }

    /// Validates the spec: at least two providers, unique names,
    /// resolvable cities, interconnect endpoints that exist.
    pub fn validate(&self) -> Result<(), String> {
        if self.providers.len() < 2 {
            return Err("world spec needs at least two providers".into());
        }
        let cities = CityDb;
        for (i, p) in self.providers.iter().enumerate() {
            if self.providers[..i].iter().any(|q| q.name == p.name) {
                return Err(format!("duplicate provider {}", p.name));
            }
            if p.regions.is_empty() {
                return Err(format!("provider {} has no regions", p.name));
            }
            for r in &p.regions {
                if cities.by_name(&r.city).is_none() {
                    return Err(format!("provider {}: unknown city {}", p.name, r.city));
                }
            }
            for role in [
                &p.topology_regions,
                &p.differential_regions,
                &p.variability_regions,
            ] {
                for name in role {
                    if p.region(name).is_none() {
                        return Err(format!("provider {}: unknown role region {name}", p.name));
                    }
                }
            }
        }
        for ic in &self.interconnects {
            for end in [&ic.a, &ic.b] {
                if self.provider(end).is_none() {
                    return Err(format!("interconnect endpoint {end} is not a provider"));
                }
            }
            if ic.a == ic.b {
                return Err(format!("interconnect {}-{} loops", ic.a, ic.b));
            }
            if cities.by_name(&ic.city).is_none() {
                return Err(format!("interconnect city {} unknown", ic.city));
            }
            if ic.capacity_gbps.is_nan() || ic.capacity_gbps <= 0.0 {
                return Err(format!("interconnect {}-{}: bad capacity", ic.a, ic.b));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcp_profile_matches_legacy_statics() {
        let gcp = ProviderProfile::gcp();
        assert_eq!(gcp.regions.len(), GCP_REGIONS.len());
        for (spec, row) in gcp.regions.iter().zip(GCP_REGIONS) {
            assert_eq!(spec.name, row.name);
            assert_eq!(spec.city, row.city);
            assert_eq!(spec.zones, row.zones);
            assert_eq!(spec.zone_name(0), format!("{}-a", row.name));
        }
        assert_eq!(gcp.topo_regions().len(), 5);
        assert_eq!(gcp.diff_regions().len(), 3);
        assert_eq!(gcp.var_regions().len(), 6);
    }

    #[test]
    fn builtin_lookup_and_cities_resolve() {
        let cities = CityDb;
        for name in ProviderProfile::builtin_names() {
            let p = ProviderProfile::builtin(name).expect("builtin");
            assert_eq!(&p.name, name);
            for r in &p.regions {
                let id = r.city_id(&cities);
                assert_eq!(cities.get(id).name, r.city);
            }
        }
        assert!(ProviderProfile::builtin("mars-cloud").is_none());
    }

    #[test]
    fn zone_styles_differ() {
        let gcp = ProviderProfile::gcp().region("us-east1").unwrap();
        assert_eq!(gcp.zone_name(0), "us-east1-a");
        assert_eq!(gcp.zone_name(3), "us-east1-d");
        let rack = ProviderProfile::metalstack().region("rack-chi").unwrap();
        assert_eq!(rack.zone_name(0), "rack-chi-az1");
        assert_eq!(rack.zone_name(1), "rack-chi-az2");
    }

    #[test]
    #[should_panic(expected = "zone index")]
    fn zone_index_bounds() {
        ProviderProfile::metalstack()
            .region("rack-chi")
            .unwrap()
            .zone_name(2);
    }

    #[test]
    fn builtin_world_specs_validate() {
        WorldSpec::duo().validate().expect("duo validates");
        WorldSpec::trio().validate().expect("trio validates");
        assert_eq!(WorldSpec::trio().providers.len(), 3);
        assert!(WorldSpec::builtin("duo").is_some());
        assert!(WorldSpec::builtin("solo").is_none());
    }

    #[test]
    fn world_spec_json_round_trip() {
        let spec = WorldSpec::trio();
        let json = serde_json::to_string(&spec.to_json());
        let back = WorldSpec::from_json(&json).expect("round-trips");
        assert_eq!(spec, back);
        // Canonical: re-encoding the decoded spec emits identical bytes.
        assert_eq!(json, serde_json::to_string(&back.to_json()));
    }

    #[test]
    fn validation_rejects_broken_specs() {
        let mut solo = WorldSpec::duo();
        solo.providers.truncate(1);
        assert!(solo.validate().is_err());

        let mut dup = WorldSpec::duo();
        let clone = dup.providers[0].clone();
        dup.providers.push(clone);
        assert!(dup.validate().is_err());

        let mut bad_city = WorldSpec::duo();
        bad_city.providers[0].regions[0].city = "Atlantis".into();
        assert!(bad_city.validate().is_err());

        let mut bad_end = WorldSpec::duo();
        bad_end.interconnects[0].a = "ghost".into();
        assert!(bad_end.validate().is_err());
    }
}

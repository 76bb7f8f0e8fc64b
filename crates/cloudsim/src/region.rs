//! The GCP region table.
//!
//! The paper measures from six GCP regions plus us-west4 in the
//! variability analysis: us-west1 (The Dalles, OR), us-west2 (Los
//! Angeles), us-west4 (Las Vegas), us-east1 (Moncks Corner, SC),
//! us-east4 (Ashburn, VA), us-central1 (Council Bluffs, IA), and
//! europe-west1 (St. Ghislain, Belgium).
//!
//! This is plain data: [`crate::provider::ProviderProfile::gcp`] builds
//! its region set from [`GCP_REGIONS`], and every lookup goes through a
//! provider profile (`ProviderProfile::gcp().region(name)`, its
//! `topo_regions()`, `diff_regions()` and `var_regions()`).

/// One row of a static region table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// GCP-style region name.
    pub name: &'static str,
    /// Host city name (resolved against the simnet city table).
    pub city: &'static str,
    /// Number of availability zones.
    pub zones: u8,
}

/// The GCP regions CLASP deployed to — the table
/// [`crate::provider::ProviderProfile::gcp`] is built from.
pub const GCP_REGIONS: &[Region] = &[
    Region {
        name: "us-west1",
        city: "The Dalles",
        zones: 3,
    },
    Region {
        name: "us-west2",
        city: "Los Angeles",
        zones: 3,
    },
    Region {
        name: "us-west4",
        city: "Las Vegas",
        zones: 3,
    },
    Region {
        name: "us-east1",
        city: "Moncks Corner",
        zones: 4,
    },
    Region {
        name: "us-east4",
        city: "Ashburn",
        zones: 3,
    },
    Region {
        name: "us-central1",
        city: "Council Bluffs",
        zones: 4,
    },
    Region {
        name: "europe-west1",
        city: "St. Ghislain",
        zones: 3,
    },
];

#[cfg(test)]
mod tests {
    use crate::provider::ProviderProfile;
    use simnet::geo::CityDb;

    #[test]
    fn seven_regions_defined() {
        let gcp = ProviderProfile::gcp();
        assert_eq!(gcp.regions.len(), 7);
        assert!(gcp.region("us-west1").is_some());
        assert!(gcp.region("europe-west1").is_some());
        assert!(gcp.region("mars-north1").is_none());
    }

    #[test]
    fn all_region_cities_resolve() {
        let cities = CityDb;
        for r in &ProviderProfile::gcp().regions {
            let id = r.city_id(&cities);
            assert_eq!(cities.get(id).name, r.city);
        }
    }

    #[test]
    fn zone_names() {
        let r = ProviderProfile::gcp().region("us-east1").unwrap();
        assert_eq!(r.zone_name(0), "us-east1-a");
        assert_eq!(r.zone_name(3), "us-east1-d");
    }

    #[test]
    #[should_panic(expected = "zone index")]
    fn zone_index_bounds() {
        ProviderProfile::gcp()
            .region("us-west1")
            .unwrap()
            .zone_name(3);
    }

    #[test]
    fn paper_region_groupings() {
        let gcp = ProviderProfile::gcp();
        assert_eq!(gcp.topo_regions().len(), 5);
        assert_eq!(gcp.diff_regions().len(), 3);
        assert_eq!(gcp.var_regions().len(), 6);
        assert!(gcp.diff_regions().iter().any(|r| r.name == "europe-west1"));
        assert!(gcp.var_regions().iter().all(|r| r.name.starts_with("us-")));
    }
}

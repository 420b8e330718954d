//! Catalog of the paper's 12 evaluation datasets (Table II) and their
//! synthetic stand-ins.
//!
//! The original graphs come from KONECT and SNAP and range from 6.3 K to 18 M
//! vertices. They are not redistributable inside this repository, so each
//! dataset is represented by a [`DatasetSpec`] that records the *published*
//! Table II statistics and a deterministic generator recipe that reproduces
//! the topology class (degree skew, density, diameter regime) at a reduced,
//! laptop-friendly scale. `EXPERIMENTS.md` records the scale factors.
//!
//! If you have downloaded an original edge list you can still run every
//! experiment on it via [`crate::io::read_edge_list_file`]; the stand-ins are
//! only the default so the benchmark suite is self-contained.

use crate::digraph::DiGraph;
use crate::generators;
use serde::{Deserialize, Serialize};

/// The 12 datasets of Table II, identified by the paper's two-letter code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dataset {
    /// Reactome (RT) — dense biological network.
    Reactome,
    /// soc-Epinions1 (SE) — who-trusts-whom social network.
    SocEpinions,
    /// Slashdot0902 (SD) — Slashdot friend/foe network.
    Slashdot,
    /// Amazon (AM) — sparse, high-diameter co-purchase network.
    Amazon,
    /// twitter-social (TS) — sparse, very low diameter follower graph.
    TwitterSocial,
    /// Baidu (BD) — Chinese web/encyclopedia hyperlink graph with dense cores.
    Baidu,
    /// BerkStan (BS) — berkeley.edu/stanford.edu web crawl, huge diameter.
    BerkStan,
    /// web-google (WG) — Google programming-contest web graph.
    WebGoogle,
    /// Skitter (SK) — internet (autonomous system) topology.
    Skitter,
    /// WikiTalk (WT) — Wikipedia user-talk graph, very sparse and shallow.
    WikiTalk,
    /// LiveJournal (LJ) — dense blogging social network.
    LiveJournal,
    /// DBpedia (DP) — knowledge-graph hyperlinks, the largest dataset.
    DBpedia,
}

/// How much of the original dataset scale the synthetic stand-in uses.
///
/// The three profiles trade fidelity for runtime; all experiments default to
/// [`ScaleProfile::Small`], the integration tests use [`ScaleProfile::Tiny`],
/// and [`ScaleProfile::Medium`] is for overnight runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ScaleProfile {
    /// A few hundred vertices — for unit/integration tests.
    Tiny,
    /// A few thousand vertices — default for figure regeneration.
    Small,
    /// Tens of thousands of vertices — closer to the paper's smallest graphs.
    Medium,
}

impl ScaleProfile {
    fn vertex_budget(self, base: usize) -> usize {
        match self {
            ScaleProfile::Tiny => (base / 8).max(120),
            ScaleProfile::Small => base,
            ScaleProfile::Medium => base * 8,
        }
    }
}

/// Topology class used to pick the generator for a stand-in.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TopologyClass {
    /// Power-law social/internet graph (Chung–Lu generator).
    PowerLaw {
        /// Power-law exponent of the degree distribution.
        gamma: f64,
    },
    /// Web graph with copying-induced dense clusters (copying model).
    Web {
        /// Probability of uniform (non-copied) attachment.
        beta: f64,
    },
    /// Low-diameter small-world graph (Watts–Strogatz).
    SmallWorld {
        /// Rewiring probability.
        rewire: f64,
    },
    /// High-diameter, low-degree lattice-like graph.
    HighDiameter,
}

/// Published statistics of one Table II row.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PaperStats {
    /// Number of vertices in the original dataset.
    pub num_vertices: usize,
    /// Number of edges in the original dataset.
    pub num_edges: usize,
    /// Average degree as reported in the paper.
    pub avg_degree: f64,
    /// Diameter as reported in the paper.
    pub diameter: usize,
    /// 90-percentile effective diameter as reported in the paper.
    pub effective_diameter_90: f64,
}

/// Full specification of a dataset: paper statistics + stand-in recipe.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Which Table II dataset this is.
    pub dataset: Dataset,
    /// Two-letter code used in the paper's figures (e.g. "AM").
    pub code: &'static str,
    /// Human-readable name as used in Table II.
    pub name: &'static str,
    /// Statistics of the original graph as published.
    pub paper: PaperStats,
    /// Topology class controlling which generator is used.
    pub topology: TopologyClass,
    /// Vertex count of the stand-in at [`ScaleProfile::Small`].
    pub base_vertices: usize,
    /// Target average degree of the stand-in (kept close to the original
    /// unless that would make the scaled graph unrealistically dense).
    pub target_avg_degree: f64,
    /// Hop constraints evaluated for this dataset in Fig. 8 (inclusive range).
    pub k_range: (u32, u32),
    /// RNG seed for the stand-in generator.
    pub seed: u64,
}

impl Dataset {
    /// All 12 datasets in Table II order.
    pub fn all() -> [Dataset; 12] {
        [
            Dataset::Reactome,
            Dataset::SocEpinions,
            Dataset::Slashdot,
            Dataset::Amazon,
            Dataset::TwitterSocial,
            Dataset::Baidu,
            Dataset::BerkStan,
            Dataset::WebGoogle,
            Dataset::Skitter,
            Dataset::WikiTalk,
            Dataset::LiveJournal,
            Dataset::DBpedia,
        ]
    }

    /// The paper's two-letter code for this dataset.
    pub fn code(self) -> &'static str {
        self.spec().code
    }

    /// Looks a dataset up by its two-letter code (case-insensitive).
    pub fn from_code(code: &str) -> Option<Dataset> {
        Dataset::all().into_iter().find(|d| d.code().eq_ignore_ascii_case(code))
    }

    /// Returns the full specification for this dataset.
    pub fn spec(self) -> DatasetSpec {
        match self {
            Dataset::Reactome => DatasetSpec {
                dataset: self,
                code: "RT",
                name: "Reactome",
                paper: PaperStats {
                    num_vertices: 6_300,
                    num_edges: 147_000,
                    avg_degree: 46.64,
                    diameter: 24,
                    effective_diameter_90: 5.39,
                },
                topology: TopologyClass::PowerLaw { gamma: 2.1 },
                base_vertices: 600,
                target_avg_degree: 24.0,
                k_range: (5, 8),
                seed: seeds::RT,
            },
            Dataset::SocEpinions => DatasetSpec {
                dataset: self,
                code: "SE",
                name: "soc-Epinions1",
                paper: PaperStats {
                    num_vertices: 75_000,
                    num_edges: 508_000,
                    avg_degree: 13.42,
                    diameter: 14,
                    effective_diameter_90: 5.0,
                },
                topology: TopologyClass::PowerLaw { gamma: 2.2 },
                base_vertices: 2_500,
                target_avg_degree: 10.0,
                k_range: (3, 6),
                seed: seeds::SE,
            },
            Dataset::Slashdot => DatasetSpec {
                dataset: self,
                code: "SD",
                name: "Slashdot0902",
                paper: PaperStats {
                    num_vertices: 82_000,
                    num_edges: 948_000,
                    avg_degree: 23.08,
                    diameter: 12,
                    effective_diameter_90: 4.7,
                },
                topology: TopologyClass::PowerLaw { gamma: 2.1 },
                base_vertices: 2_200,
                target_avg_degree: 14.0,
                k_range: (3, 6),
                seed: seeds::SD,
            },
            Dataset::Amazon => DatasetSpec {
                dataset: self,
                code: "AM",
                name: "Amazon",
                paper: PaperStats {
                    num_vertices: 334_000,
                    num_edges: 925_000,
                    avg_degree: 6.76,
                    diameter: 44,
                    effective_diameter_90: 15.0,
                },
                topology: TopologyClass::HighDiameter,
                base_vertices: 4_000,
                target_avg_degree: 5.0,
                k_range: (8, 13),
                seed: seeds::AM,
            },
            Dataset::TwitterSocial => DatasetSpec {
                dataset: self,
                code: "TS",
                name: "twitter-social",
                paper: PaperStats {
                    num_vertices: 465_000,
                    num_edges: 834_000,
                    avg_degree: 3.86,
                    diameter: 8,
                    effective_diameter_90: 4.96,
                },
                topology: TopologyClass::SmallWorld { rewire: 0.6 },
                base_vertices: 4_000,
                target_avg_degree: 4.0,
                k_range: (5, 8),
                seed: seeds::TS,
            },
            Dataset::Baidu => DatasetSpec {
                dataset: self,
                code: "BD",
                name: "Baidu",
                paper: PaperStats {
                    num_vertices: 425_000,
                    num_edges: 3_000_000,
                    avg_degree: 15.8,
                    diameter: 32,
                    effective_diameter_90: 8.54,
                },
                topology: TopologyClass::Web { beta: 0.15 },
                base_vertices: 3_000,
                target_avg_degree: 12.0,
                k_range: (3, 7),
                seed: seeds::BD,
            },
            Dataset::BerkStan => DatasetSpec {
                dataset: self,
                code: "BS",
                name: "BerkStan",
                paper: PaperStats {
                    num_vertices: 685_000,
                    num_edges: 7_000_000,
                    avg_degree: 22.18,
                    diameter: 208,
                    effective_diameter_90: 9.79,
                },
                topology: TopologyClass::Web { beta: 0.1 },
                base_vertices: 3_500,
                target_avg_degree: 14.0,
                k_range: (5, 8),
                seed: seeds::BS,
            },
            Dataset::WebGoogle => DatasetSpec {
                dataset: self,
                code: "WG",
                name: "web-google",
                paper: PaperStats {
                    num_vertices: 875_000,
                    num_edges: 5_000_000,
                    avg_degree: 11.6,
                    diameter: 24,
                    effective_diameter_90: 7.95,
                },
                topology: TopologyClass::Web { beta: 0.25 },
                base_vertices: 4_000,
                target_avg_degree: 9.0,
                k_range: (4, 8),
                seed: seeds::WG,
            },
            Dataset::Skitter => DatasetSpec {
                dataset: self,
                code: "SK",
                name: "Skitter",
                paper: PaperStats {
                    num_vertices: 1_600_000,
                    num_edges: 11_000_000,
                    avg_degree: 13.08,
                    diameter: 31,
                    effective_diameter_90: 5.85,
                },
                topology: TopologyClass::PowerLaw { gamma: 2.25 },
                base_vertices: 5_000,
                target_avg_degree: 9.0,
                k_range: (5, 9),
                seed: seeds::SK,
            },
            Dataset::WikiTalk => DatasetSpec {
                dataset: self,
                code: "WT",
                name: "WikiTalk",
                paper: PaperStats {
                    num_vertices: 2_000_000,
                    num_edges: 5_000_000,
                    avg_degree: 4.2,
                    diameter: 9,
                    effective_diameter_90: 4.0,
                },
                topology: TopologyClass::PowerLaw { gamma: 2.0 },
                base_vertices: 5_000,
                target_avg_degree: 4.0,
                k_range: (3, 6),
                seed: seeds::WT,
            },
            Dataset::LiveJournal => DatasetSpec {
                dataset: self,
                code: "LJ",
                name: "LiveJournal",
                paper: PaperStats {
                    num_vertices: 4_000_000,
                    num_edges: 68_000_000,
                    avg_degree: 28.4,
                    diameter: 16,
                    effective_diameter_90: 6.5,
                },
                topology: TopologyClass::PowerLaw { gamma: 2.3 },
                base_vertices: 6_000,
                target_avg_degree: 14.0,
                k_range: (3, 6),
                seed: seeds::LJ,
            },
            Dataset::DBpedia => DatasetSpec {
                dataset: self,
                code: "DP",
                name: "DBpedia",
                paper: PaperStats {
                    num_vertices: 18_000_000,
                    num_edges: 172_000_000,
                    avg_degree: 18.85,
                    diameter: 12,
                    effective_diameter_90: 4.98,
                },
                topology: TopologyClass::Web { beta: 0.3 },
                base_vertices: 7_000,
                target_avg_degree: 10.0,
                k_range: (3, 6),
                seed: seeds::DP,
            },
        }
    }

    /// Generates the synthetic stand-in graph for this dataset at `profile`.
    pub fn generate(self, profile: ScaleProfile) -> DiGraph {
        self.spec().generate(profile)
    }
}

impl DatasetSpec {
    /// Number of vertices the stand-in uses at `profile`.
    pub fn vertices_at(&self, profile: ScaleProfile) -> usize {
        profile.vertex_budget(self.base_vertices)
    }

    /// Generates the stand-in graph at the requested scale. No generator used
    /// here can emit a parallel edge or a self loop (`chung_lu` visits each
    /// target once per source; the others insert through
    /// [`DiGraph::add_edge_unique`]), so the graph ships as generated.
    pub fn generate(&self, profile: ScaleProfile) -> DiGraph {
        let n = self.vertices_at(profile);
        let d = self.target_avg_degree;
        match self.topology {
            TopologyClass::PowerLaw { gamma } => generators::chung_lu(n, d, gamma, self.seed),
            TopologyClass::Web { beta } => {
                generators::copying_model(n, d.round().max(2.0) as usize, beta, self.seed)
            }
            TopologyClass::SmallWorld { rewire } => {
                let k_half = ((d / 2.0).round() as usize).max(1);
                generators::small_world(n, k_half, rewire, self.seed)
            }
            TopologyClass::HighDiameter => {
                // Ring lattice with almost no rewiring: low degree, long shortest paths.
                let k_half = ((d / 2.0).round() as usize).max(1);
                generators::small_world(n, k_half, 0.02, self.seed)
            }
        }
    }
}

// Seeds spelled as the ASCII codes of the dataset abbreviations so each
// dataset gets a distinct, stable random stream.
mod seeds {
    pub const RT: u64 = 0x5254;
    pub const SE: u64 = 0x5345;
    pub const SD: u64 = 0x5344;
    pub const AM: u64 = 0x414d;
    pub const TS: u64 = 0x5453;
    pub const BD: u64 = 0x4244;
    pub const BS: u64 = 0x4253;
    pub const WG: u64 = 0x5747;
    pub const SK: u64 = 0x534b;
    pub const WT: u64 = 0x5754;
    pub const LJ: u64 = 0x4c4a;
    pub const DP: u64 = 0x4450;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::GraphStats;

    #[test]
    fn all_lists_twelve_unique_datasets() {
        let all = Dataset::all();
        assert_eq!(all.len(), 12);
        let codes: std::collections::HashSet<_> = all.iter().map(|d| d.code()).collect();
        assert_eq!(codes.len(), 12);
    }

    #[test]
    fn codes_round_trip() {
        for d in Dataset::all() {
            assert_eq!(Dataset::from_code(d.code()), Some(d));
            assert_eq!(Dataset::from_code(&d.code().to_lowercase()), Some(d));
        }
        assert_eq!(Dataset::from_code("XX"), None);
    }

    #[test]
    fn tiny_standins_generate_quickly_and_nonempty() {
        for d in Dataset::all() {
            let g = d.generate(ScaleProfile::Tiny);
            assert!(g.num_vertices() >= 100, "{}: too few vertices", d.code());
            assert!(g.num_edges() > g.num_vertices() / 2, "{}: too few edges", d.code());
        }
    }

    #[test]
    fn standin_generators_emit_no_duplicate_edge_or_self_loop() {
        // `to_csr` drops parallel edges and self loops, so equal counts mean
        // the generator emitted neither.
        for d in Dataset::all() {
            let g = d.generate(ScaleProfile::Tiny);
            assert_eq!(g.num_edges(), g.to_csr().num_edges(), "{}", d.code());
        }
    }

    #[test]
    fn scale_profiles_are_ordered() {
        let spec = Dataset::Skitter.spec();
        assert!(spec.vertices_at(ScaleProfile::Tiny) < spec.vertices_at(ScaleProfile::Small));
        assert!(spec.vertices_at(ScaleProfile::Small) < spec.vertices_at(ScaleProfile::Medium));
    }

    #[test]
    fn amazon_standin_has_higher_diameter_than_twitter_standin() {
        let stats =
            |d: Dataset| GraphStats::compute(&d.spec().generate(ScaleProfile::Tiny).to_csr(), 12);
        let (am, ts) = (stats(Dataset::Amazon), stats(Dataset::TwitterSocial));
        assert!(
            am.effective_diameter_90 > ts.effective_diameter_90,
            "AM D90 {} should exceed TS D90 {}",
            am.effective_diameter_90,
            ts.effective_diameter_90
        );
    }

    #[test]
    fn k_ranges_match_the_paper_figures() {
        assert_eq!(Dataset::Amazon.spec().k_range, (8, 13));
        assert_eq!(Dataset::WikiTalk.spec().k_range, (3, 6));
        assert_eq!(Dataset::Skitter.spec().k_range, (5, 9));
        assert_eq!(Dataset::TwitterSocial.spec().k_range, (5, 8));
    }

    #[test]
    fn generation_is_deterministic_per_dataset() {
        let a = Dataset::Baidu.generate(ScaleProfile::Tiny).to_csr();
        let b = Dataset::Baidu.generate(ScaleProfile::Tiny).to_csr();
        assert_eq!(a, b);
    }
}

//! The parallel scenario-sweep runner.
//!
//! A [`SweepSpec`] describes a grid of *scenarios* — every combination of
//! {graph family × size × latency profile × protocol} — and a number of
//! independent trials per scenario.  [`SweepSpec::run`] executes all trials
//! in parallel with `rayon`, seeding each trial's [`SmallRng`] from a stable
//! mix of the sweep's base seed and the trial's coordinates, so
//!
//! * a sweep is reproducible: the same spec and base seed produce the same
//!   [`SweepReport`] (and therefore byte-identical JSON) regardless of thread
//!   count or scheduling, and
//! * trials are independent: adding a scenario does not perturb the seeds of
//!   the others.
//!
//! Per-scenario round counts are aggregated into min/median/p95/max plus the
//! mean, which is how related empirical gossip studies (Haeupler's rumor
//! spreading experiments; Censor-Hillel et al.'s poorly-connected-world
//! simulations) summarise bound-shape curves across graph families.
//!
//! The opt-in [fault tier](SweepSpec::fault_tier) reruns the lightweight
//! protocols under seed-derived churn ([`ChurnSpec`] → [`FaultPlan`]): those
//! cells may legitimately not complete, and their report rows carry the
//! engine's graceful-degradation aggregates (crashes absorbed, residual
//! components, stranded rumors, re-dissemination latency) instead of
//! all-clean completions.  A fault cell hashes its churn spec into the trial
//! seeds, so adding the tier leaves every fault-free cell's results — and
//! the committed baseline — byte-identical.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use gossip_core::{flooding, pattern, push_pull, spanner_broadcast, unified};
use gossip_graph::latency::LatencyScheme;
use gossip_graph::{generators, Graph, Latency, NodeId};
use gossip_sim::protocols::{RandomPushPull, RoundRobinFlood};
use gossip_sim::{ChurnSpec, FaultPlan, FaultReport, RumorId, SimConfig, Simulation, Termination};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rayon::prelude::*;

use crate::json::Json;
use crate::{Scale, Table};

/// A graph family of the sweep grid, parameterised only by the node budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphFamily {
    /// Complete graph on `n` nodes.
    Clique,
    /// Cycle on `n` nodes.
    Cycle,
    /// Near-square grid with about `n` nodes.
    Grid,
    /// Star with `n - 1` leaves.
    Star,
    /// Two cliques of `n / 2` nodes joined by a single bridge of latency
    /// [`BRIDGE_LATENCY`] (the paper's bottleneck-cut family).
    Dumbbell,
    /// Four cliques of `n / 4` nodes in a ring whose inter-clique bridges
    /// have latency [`BRIDGE_LATENCY`].
    RingOfCliques,
    /// Balanced binary tree on `n` nodes.
    BinaryTree,
    /// Two cliques joined by a *path* of `bridge_len` bridge edges (each of
    /// latency [`BRIDGE_LATENCY`]): a single-edge-wide cut that additionally
    /// costs `bridge_len` slow hops in series.
    Barbell {
        /// Number of bridge edges between the two cliques.
        bridge_len: usize,
    },
    /// Connected Erdős–Rényi graph with edge probability `p`.
    ErdosRenyi {
        /// Edge probability.
        p: f64,
    },
}

impl GraphFamily {
    /// Stable identifier used in reports.
    pub fn name(&self) -> String {
        match self {
            GraphFamily::Clique => "clique".to_string(),
            GraphFamily::Cycle => "cycle".to_string(),
            GraphFamily::Grid => "grid".to_string(),
            GraphFamily::Star => "star".to_string(),
            GraphFamily::Dumbbell => "dumbbell".to_string(),
            GraphFamily::RingOfCliques => "ring-of-cliques".to_string(),
            GraphFamily::BinaryTree => "binary-tree".to_string(),
            GraphFamily::Barbell { bridge_len } => format!("barbell(bridge={bridge_len})"),
            GraphFamily::ErdosRenyi { p } => format!("erdos-renyi(p={p})"),
        }
    }

    /// `true` for the families whose edge count grows quadratically in `n`
    /// (cliques and clique compounds, dense random graphs) — the ones a
    /// [`SweepSpec::dense_size_cap`] protects against memory blow-up.
    pub fn is_dense(&self) -> bool {
        matches!(
            self,
            GraphFamily::Clique
                | GraphFamily::Dumbbell
                | GraphFamily::RingOfCliques
                | GraphFamily::Barbell { .. }
                | GraphFamily::ErdosRenyi { .. }
        )
    }

    /// `true` when [`build`](Self::build) ignores its RNG: the instance is a
    /// pure function of `(family, n)`, so the sweep builds it **once** and
    /// shares it across trials and latency profiles instead of re-running the
    /// generator per trial (clique construction at 4096 used to cost seconds
    /// per cell).
    pub fn is_deterministic(&self) -> bool {
        !matches!(self, GraphFamily::ErdosRenyi { .. })
    }

    /// Builds an instance with roughly `n` nodes: unit latencies everywhere
    /// except the dumbbell / ring-of-cliques bridges, which get
    /// [`BRIDGE_LATENCY`] so the [`LatencyProfile::AsBuilt`] profile
    /// preserves the slow-cut structure these families exist for.  Every
    /// other profile re-draws all edge latencies afterwards.
    pub fn build(&self, n: usize, rng: &mut SmallRng) -> Graph {
        let n = n.max(4);
        match self {
            GraphFamily::Clique => generators::clique(n, 1),
            GraphFamily::Cycle => generators::cycle(n, 1),
            GraphFamily::Grid => {
                let rows = (n as f64).sqrt().round().max(2.0) as usize;
                let cols = n.div_ceil(rows).max(2);
                generators::grid(rows, cols, 1)
            }
            GraphFamily::Star => generators::star(n, 1),
            GraphFamily::Dumbbell => generators::dumbbell((n / 2).max(2), BRIDGE_LATENCY),
            GraphFamily::RingOfCliques => {
                generators::ring_of_cliques(4, (n / 4).max(2), BRIDGE_LATENCY)
            }
            GraphFamily::BinaryTree => generators::binary_tree(n, 1),
            GraphFamily::Barbell { bridge_len } => {
                // An invalid bridge_len must fail loudly (via the expect
                // below), not silently build a graph the scenario name lies
                // about.
                let side = (n.saturating_sub(bridge_len.saturating_sub(1)) / 2).max(2);
                generators::barbell(side, *bridge_len, BRIDGE_LATENCY)
            }
            GraphFamily::ErdosRenyi { p } => generators::erdos_renyi(n, *p, 1, rng),
        }
        .expect("sweep families are valid for n >= 4")
    }
}

/// Latency of the dumbbell / ring-of-cliques bridges in freshly built
/// instances (the cut edges the paper's `ℓ*/φ*` regime hinges on).
pub const BRIDGE_LATENCY: u64 = 16;

/// A latency assignment of the sweep grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyProfile {
    /// Keeps the latencies the family builds: unit everywhere except the
    /// dumbbell / ring-of-cliques bridges ([`BRIDGE_LATENCY`]), so the
    /// structured families keep their slow cuts.
    AsBuilt,
    /// Fast (1) with probability `fast_probability`, otherwise `slow`.
    TwoLevel {
        /// Latency of slow edges.
        slow: u64,
        /// Probability that an edge is fast.
        fast_probability: f64,
    },
    /// Independent uniform latency in `[1, max]`.
    UniformRandom {
        /// Largest possible latency.
        max: u64,
    },
    /// Heavy-tailed powers of two over `classes` latency classes.
    PowerLaw {
        /// Number of latency classes.
        classes: usize,
    },
    /// Exactly `round(slow_fraction · m)` edges (chosen uniformly without
    /// replacement) get latency `slow`; the rest are fast (latency 1).
    Bimodal {
        /// Latency of slow edges.
        slow: u64,
        /// Fraction of edges that is slow.
        slow_fraction: f64,
    },
}

impl LatencyProfile {
    /// Stable identifier used in reports.
    pub fn name(&self) -> String {
        match self {
            LatencyProfile::AsBuilt => "as-built".to_string(),
            LatencyProfile::TwoLevel {
                slow,
                fast_probability,
            } => {
                format!("two-level(slow={slow},fast_p={fast_probability})")
            }
            LatencyProfile::UniformRandom { max } => format!("uniform(1..={max})"),
            LatencyProfile::PowerLaw { classes } => format!("power-law(classes={classes})"),
            LatencyProfile::Bimodal {
                slow,
                slow_fraction,
            } => format!("bimodal(slow={slow},slow_frac={slow_fraction})"),
        }
    }

    /// The equivalent [`LatencyScheme`] (for [`LatencyProfile::AsBuilt`] the
    /// scheme is unused — [`apply`](Self::apply) keeps the built latencies).
    pub fn scheme(&self) -> LatencyScheme {
        match *self {
            LatencyProfile::AsBuilt => LatencyScheme::Uniform(1),
            LatencyProfile::TwoLevel {
                slow,
                fast_probability,
            } => LatencyScheme::TwoLevel {
                fast: 1,
                slow,
                fast_probability,
            },
            LatencyProfile::UniformRandom { max } => LatencyScheme::UniformRandom { min: 1, max },
            LatencyProfile::PowerLaw { classes } => LatencyScheme::PowerLawClasses { classes },
            LatencyProfile::Bimodal {
                slow,
                slow_fraction,
            } => LatencyScheme::BimodalFraction {
                slow,
                slow_fraction,
            },
        }
    }

    /// Applies the profile to a freshly built instance.
    pub fn apply(&self, g: &Graph, rng: &mut SmallRng) -> Graph {
        match self {
            LatencyProfile::AsBuilt => g.clone(),
            _ => self
                .scheme()
                .apply(g, rng)
                .expect("re-weighting preserves validity"),
        }
    }
}

/// A dissemination protocol of the sweep grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    /// Classical random push–pull (Theorem 29 regime), one-to-all from node 0.
    PushPull,
    /// Round-robin flooding baseline, one-to-all from node 0.
    Flooding,
    /// Random push–pull running to *all-to-all* completion: every node must
    /// learn every rumor.  The regime where per-node knowledge — and the
    /// engine's log memory — saturates; opened past 10⁴ nodes by the
    /// interval-compressed engine.
    PushPullAllToAll,
    /// Round-robin flooding to all-to-all completion.
    FloodingAllToAll,
    /// Spanner broadcast with known diameter (Theorem 20/25 regime).
    SpannerBroadcast,
    /// Pattern broadcast with known diameter (Lemmas 26–28).
    PatternBroadcast,
    /// The unified algorithm (Theorem 31): push–pull raced against the
    /// spanner route.
    Unified,
}

/// What one sweep trial measured.
#[derive(Debug, Clone, Copy)]
pub struct TrialMeasurement {
    /// Rounds until the dissemination goal (or the internal cap).
    pub rounds: u64,
    /// Exchanges initiated.
    pub activations: u64,
    /// Whether the goal was reached.
    pub completed: bool,
    /// The engine's full deterministic memory counters, when reported —
    /// the source of the `peak_mem_bytes` (via
    /// [`gossip_sim::MemStats::peak_engine_bytes`]), paged-set and
    /// saturation-collapse aggregates in the report.
    pub mem: Option<gossip_sim::MemStats>,
    /// Graceful-degradation accounting; present exactly for trials run with
    /// a [`ChurnSpec`] attached to the scenario.
    pub faults: Option<FaultReport>,
}

impl ProtocolKind {
    /// Stable identifier used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolKind::PushPull => "push-pull",
            ProtocolKind::Flooding => "flooding",
            ProtocolKind::PushPullAllToAll => "push-pull-all-to-all",
            ProtocolKind::FloodingAllToAll => "flooding-all-to-all",
            ProtocolKind::SpannerBroadcast => "spanner-broadcast",
            ProtocolKind::PatternBroadcast => "pattern-broadcast",
            ProtocolKind::Unified => "unified",
        }
    }

    /// `true` for the multi-phase algorithms (spanner / pattern / unified)
    /// whose setup phases dominate at large `n` — the ones a
    /// [`SweepSpec::heavy_size_cap`] restricts to moderate sizes.
    pub fn is_heavyweight(&self) -> bool {
        matches!(
            self,
            ProtocolKind::SpannerBroadcast | ProtocolKind::PatternBroadcast | ProtocolKind::Unified
        )
    }

    /// `true` for the protocols a fault-injected sweep cell may use: the
    /// single-phase engine protocols whose semantics under churn the
    /// `fault_equivalence` suite pins byte-identical across engines.  The
    /// multi-phase algorithms assume a static topology between phases, so
    /// the sweep never pairs them with a [`ChurnSpec`].
    pub fn supports_faults(&self) -> bool {
        matches!(
            self,
            ProtocolKind::PushPull
                | ProtocolKind::Flooding
                | ProtocolKind::PushPullAllToAll
                | ProtocolKind::FloodingAllToAll
        )
    }

    /// Runs one fault-injected trial: derives a [`FaultPlan`] from the trial
    /// seed via [`FaultPlan::random_churn`] and drives the engine directly
    /// with the plan attached, so the measurement carries the engine's
    /// graceful-degradation section.  Faulted runs may legitimately *not*
    /// complete (the source can crash, rumors can strand on dead nodes);
    /// the round cap mirrors the plain protocol wrappers' generous budget.
    ///
    /// # Panics
    ///
    /// Panics when called on a protocol that does not
    /// [support faults](Self::supports_faults) — the sweep grid never
    /// constructs such a cell.
    pub fn run_faulted(&self, g: &Graph, spec: &ChurnSpec, seed: u64) -> TrialMeasurement {
        let plan = FaultPlan::random_churn(g, seed ^ 0x04, spec);
        let cap = (g.node_count() as u64)
            .saturating_mul(g.max_latency().max(1))
            .saturating_mul(4)
            .max(10_000);
        let source = NodeId::new(0);
        let config = SimConfig::new(seed ^ 0x03).max_rounds(cap).faults(plan);
        let mut sim = match self {
            ProtocolKind::PushPull | ProtocolKind::Flooding => Simulation::broadcast(
                g,
                config
                    .termination(Termination::AllKnowRumorOf(source))
                    .track_rumor(RumorId::of_node(source)),
                source,
            ),
            ProtocolKind::PushPullAllToAll | ProtocolKind::FloodingAllToAll => {
                Simulation::new(g, config.termination(Termination::AllKnowAll))
            }
            _ => panic!(
                "fault injection supports the single-phase protocols only, not {}",
                self.name()
            ),
        };
        let report = match self {
            ProtocolKind::PushPull | ProtocolKind::PushPullAllToAll => {
                sim.run(&mut RandomPushPull::new(g))
            }
            _ => sim.run(&mut RoundRobinFlood::new(g)),
        };
        TrialMeasurement {
            rounds: report.rounds,
            activations: report.activations,
            completed: report.completed,
            mem: report.mem,
            faults: report.faults,
        }
    }

    /// Runs one trial of this protocol (broadcasts start at node 0), with
    /// the diameter bound the heavy protocols' "known D" oracle would
    /// compute supplied by the caller (`None` computes it on the spot).  The
    /// sweep computes the bound once per shared topology and feeds it to
    /// every trial over that topology, so the heavy protocols at 8192+ nodes
    /// don't each redo the Dijkstra sweeps.  The lightweight protocols
    /// ignore the bound entirely.
    pub fn run_with_diameter_bound(
        &self,
        g: &Graph,
        d: Option<Latency>,
        seed: u64,
    ) -> TrialMeasurement {
        let from_report = |r: gossip_core::DisseminationReport| TrialMeasurement {
            rounds: r.rounds,
            activations: r.activations,
            completed: r.completed,
            mem: r.mem,
            faults: None,
        };
        let bound = || d.unwrap_or_else(|| gossip_core::diameter_bound(g));
        match self {
            ProtocolKind::PushPull => from_report(push_pull::broadcast(g, NodeId::new(0), seed)),
            ProtocolKind::Flooding => from_report(flooding::broadcast(g, NodeId::new(0), seed)),
            ProtocolKind::PushPullAllToAll => from_report(push_pull::all_to_all(g, seed)),
            ProtocolKind::FloodingAllToAll => from_report(flooding::all_to_all(g, seed)),
            ProtocolKind::SpannerBroadcast => {
                from_report(spanner_broadcast::run_known_diameter_with(g, bound(), seed))
            }
            ProtocolKind::PatternBroadcast => {
                from_report(pattern::run_known_diameter_with(g, bound(), seed))
            }
            ProtocolKind::Unified => {
                let r = unified::run_known_latencies_with(g, NodeId::new(0), bound(), seed);
                TrialMeasurement {
                    rounds: r.rounds,
                    activations: r.push_pull.activations + r.spanner_route.activations,
                    completed: r.completed,
                    mem: None,
                    faults: None,
                }
            }
        }
    }
}

/// The full description of a sweep: the grid plus trial count and base seed.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Graph families to sweep over.
    pub families: Vec<GraphFamily>,
    /// Node budgets per family.
    pub sizes: Vec<usize>,
    /// Latency profiles to apply.
    pub profiles: Vec<LatencyProfile>,
    /// Protocols to measure.
    pub protocols: Vec<ProtocolKind>,
    /// Independent trials per scenario.
    pub trials: u64,
    /// Base seed every trial seed is derived from.
    pub base_seed: u64,
    /// If set, grid cells pairing a [dense](GraphFamily::is_dense) family
    /// with a size above the cap are skipped (quadratic edge counts exhaust
    /// memory long before sparse families do).
    pub dense_size_cap: Option<usize>,
    /// If set, grid cells pairing a
    /// [heavyweight](ProtocolKind::is_heavyweight) protocol with a size above
    /// the cap are skipped.
    pub heavy_size_cap: Option<usize>,
    /// Extra scenario cells appended after the cross product (e.g. the
    /// extra-large sparse instances of the cheap protocols).  Caps do not
    /// apply to these — they are opted in explicitly.
    pub extra: Vec<Scenario>,
}

impl SweepSpec {
    /// The default grid: seven families, sizes by scale, four latency
    /// profiles, four protocols.
    ///
    /// * `Scale::Quick` shrinks sizes and trials for tests and `cargo bench`.
    /// * `Scale::Full` is the grid recorded in `EXPERIMENTS.md`.
    /// * `Scale::Large` opens the `10³`–`10⁴`-node regime: sizes up to 4096
    ///   across every family (heavyweight protocols capped at 1024), plus
    ///   32768-node star cells for the cheap protocols — including
    ///   **all-to-all** runs, where every node's knowledge saturates and only
    ///   interval-compressed state keeps the engine inside a 1 GB budget (flat
    ///   logs would need ~4 GB).
    /// * `Scale::Huge` adds the tier beyond: 65536- and 131072-node
    ///   all-to-all stars (opened by the paged, saturation-collapsing rumor
    ///   sets — dense bitsets would cost ~4.3 GB at the top size), a
    ///   131072-node one-to-all star, and a 16384-node Erdős–Rényi
    ///   broadcast.
    pub fn standard(scale: Scale) -> Self {
        let families = vec![
            GraphFamily::Clique,
            GraphFamily::Cycle,
            GraphFamily::Grid,
            GraphFamily::Dumbbell,
            GraphFamily::RingOfCliques,
            GraphFamily::Barbell { bridge_len: 4 },
            GraphFamily::ErdosRenyi { p: 0.2 },
        ];
        let protocols = vec![
            ProtocolKind::PushPull,
            ProtocolKind::Flooding,
            ProtocolKind::SpannerBroadcast,
            ProtocolKind::Unified,
        ];
        let bimodal = LatencyProfile::Bimodal {
            slow: 16,
            slow_fraction: 0.25,
        };
        let base_seed = 0xC057_0F60_5517;
        match scale {
            Scale::Quick | Scale::Full => SweepSpec {
                families,
                sizes: scale.pick(vec![12, 24], vec![16, 32, 48]),
                profiles: vec![
                    LatencyProfile::AsBuilt,
                    LatencyProfile::TwoLevel {
                        slow: 16,
                        fast_probability: 0.5,
                    },
                    LatencyProfile::UniformRandom { max: 12 },
                    bimodal,
                ],
                protocols,
                trials: scale.pick(3, 7),
                base_seed,
                dense_size_cap: None,
                heavy_size_cap: None,
                extra: Vec::new(),
            },
            Scale::Large | Scale::Huge => {
                // 32768-node star cells: one-to-all for both cheap protocols,
                // plus the all-to-all runs the interval-compressed engine
                // opened (every node ends up knowing all 32768 rumors).
                let mut extra: Vec<Scenario> = [
                    ProtocolKind::PushPull,
                    ProtocolKind::Flooding,
                    ProtocolKind::PushPullAllToAll,
                    ProtocolKind::FloodingAllToAll,
                ]
                .into_iter()
                .map(|protocol| Scenario {
                    family: GraphFamily::Star,
                    size: 32768,
                    profile: LatencyProfile::AsBuilt,
                    protocol,
                    faults: None,
                })
                .collect();
                // Heavy-protocol cells past the old 1024 wall: the
                // diameter-bound oracle replaces the all-pairs exact diameter
                // (the former `O(n·m·log n)` setup bottleneck), the phase
                // simulations run over the spanner subgraph, and ℓ-DTG no
                // longer snapshots rumor sets per exchange — together cheap
                // enough for 8192–16384-node multi-phase runs.
                extra.extend(
                    [
                        ProtocolKind::SpannerBroadcast,
                        ProtocolKind::PatternBroadcast,
                        ProtocolKind::Unified,
                    ]
                    .into_iter()
                    .map(|protocol| Scenario {
                        family: GraphFamily::Star,
                        size: 8192,
                        profile: LatencyProfile::AsBuilt,
                        protocol,
                        faults: None,
                    }),
                );
                extra.extend(
                    [ProtocolKind::SpannerBroadcast, ProtocolKind::Unified]
                        .into_iter()
                        .flat_map(|protocol| {
                            [
                                Scenario {
                                    family: GraphFamily::Star,
                                    size: 16384,
                                    profile: LatencyProfile::AsBuilt,
                                    protocol,
                                    faults: None,
                                },
                                Scenario {
                                    family: GraphFamily::Grid,
                                    size: 8192,
                                    profile: LatencyProfile::AsBuilt,
                                    protocol,
                                    faults: None,
                                },
                            ]
                        }),
                );
                if scale == Scale::Huge {
                    // All-to-all at 65536 *and* 131072 (paged rumor sets plus
                    // saturation collapse keep the dissemination state in the
                    // tens of MB — dense bitsets would need ~4.3 GB at the
                    // top size), one-to-all past 10^5, and a random-topology
                    // broadcast at 16384.
                    extra.extend(
                        [
                            ProtocolKind::PushPullAllToAll,
                            ProtocolKind::FloodingAllToAll,
                        ]
                        .into_iter()
                        .flat_map(|protocol| {
                            [65536, 131072].into_iter().map(move |size| Scenario {
                                family: GraphFamily::Star,
                                size,
                                profile: LatencyProfile::AsBuilt,
                                protocol,
                                faults: None,
                            })
                        }),
                    );
                    extra.extend(
                        [ProtocolKind::PushPull, ProtocolKind::Flooding]
                            .into_iter()
                            .map(|protocol| Scenario {
                                family: GraphFamily::Star,
                                size: 131072,
                                profile: LatencyProfile::AsBuilt,
                                protocol,
                                faults: None,
                            }),
                    );
                    extra.extend(
                        [ProtocolKind::PushPull, ProtocolKind::Flooding]
                            .into_iter()
                            .map(|protocol| Scenario {
                                family: GraphFamily::ErdosRenyi { p: 0.001 },
                                size: 16384,
                                profile: LatencyProfile::AsBuilt,
                                protocol,
                                faults: None,
                            }),
                    );
                }
                SweepSpec {
                    families,
                    sizes: vec![256, 1024, 4096],
                    profiles: vec![LatencyProfile::AsBuilt, bimodal],
                    protocols,
                    trials: 2,
                    base_seed,
                    // Dense families deliberately run at the full 4096 (the
                    // cap mechanism exists for user specs that push further).
                    dense_size_cap: None,
                    // The heavy protocols now clear the whole grid (max size
                    // 4096); the cap at 8192 matches the extra cells above
                    // and guards user specs that push the sizes further.
                    heavy_size_cap: Some(8192),
                    extra,
                }
            }
        }
    }

    /// Number of scenarios in the grid (after size caps, including extras).
    pub fn scenario_count(&self) -> usize {
        self.scenarios().len()
    }

    /// Number of individual trials the sweep will execute.
    pub fn trial_count(&self) -> u64 {
        self.scenario_count() as u64 * self.trials
    }

    /// Number of fault-injected cells in the grid (including extras).
    pub fn fault_cell_count(&self) -> usize {
        self.scenarios()
            .iter()
            .filter(|s| s.faults.is_some())
            .count()
    }

    /// The opt-in fault-injection tier: cells that rerun the lightweight
    /// protocols under seed-derived churn and report graceful degradation
    /// instead of clean dissemination.  Appended to
    /// [`extra`](Self::extra) by `experiments sweep --faults`; never part
    /// of the default grid, so the committed Large baseline (and every
    /// fault-free cell's trial seeds) are untouched.
    ///
    /// Two regimes per family, on the two topology extremes the fault model
    /// stresses most — the star (hub crash strands every leaf) and a sparse
    /// Erdős–Rényi instance (cuts fragment the residual graph):
    ///
    /// * **churn**: 10% of nodes crash and rejoin amnesiac 24 rounds later,
    ///   2% of edges cut, 5% message loss — the run should usually still
    ///   complete, and the report carries re-dissemination latency.
    /// * **blackout**: 20% of nodes crash for good, 5% of edges cut — the
    ///   run degrades; the report carries residual components and stranded
    ///   rumors.
    pub fn fault_tier(scale: Scale) -> Vec<Scenario> {
        let size = match scale {
            Scale::Quick => 24,
            Scale::Full => 48,
            Scale::Large | Scale::Huge => 1024,
        };
        let window = (1, (size as u64 / 2).clamp(16, 96));
        let churn = ChurnSpec {
            crash_permille: 100,
            rejoin_after: Some(24),
            cut_permille: 20,
            loss_ppm: 50_000,
            window,
        };
        let blackout = ChurnSpec {
            crash_permille: 200,
            rejoin_after: None,
            cut_permille: 50,
            loss_ppm: 0,
            window,
        };
        // Sparse at 1024 nodes (≈ 5 · n edges), denser for the tiny tiers so
        // the instance stays connected.
        let p = if size >= 1024 { 0.01 } else { 0.3 };
        let mut out = Vec::new();
        for family in [GraphFamily::Star, GraphFamily::ErdosRenyi { p }] {
            for faults in [churn, blackout] {
                for protocol in [ProtocolKind::PushPull, ProtocolKind::Flooding] {
                    out.push(Scenario {
                        family,
                        size,
                        profile: LatencyProfile::AsBuilt,
                        protocol,
                        faults: Some(faults),
                    });
                }
            }
        }
        // Knowledge saturation under churn: all-to-all on the star, where
        // every hub outage suspends the whole exchange fabric.
        out.push(Scenario {
            family: GraphFamily::Star,
            size,
            profile: LatencyProfile::AsBuilt,
            protocol: ProtocolKind::PushPullAllToAll,
            faults: Some(churn),
        });
        out
    }

    /// Expands the grid in deterministic (family, size, profile, protocol)
    /// nested order, skipping cells excluded by the size caps, then appends
    /// the [`extra`](Self::extra) cells.
    fn scenarios(&self) -> Vec<Scenario> {
        let mut out = Vec::new();
        for &family in &self.families {
            for &size in &self.sizes {
                if self
                    .dense_size_cap
                    .is_some_and(|cap| family.is_dense() && size > cap)
                {
                    continue;
                }
                for &profile in &self.profiles {
                    for &protocol in &self.protocols {
                        if self
                            .heavy_size_cap
                            .is_some_and(|cap| protocol.is_heavyweight() && size > cap)
                        {
                            continue;
                        }
                        out.push(Scenario {
                            family,
                            size,
                            profile,
                            protocol,
                            faults: None,
                        });
                    }
                }
            }
        }
        out.extend(self.extra.iter().copied());
        out
    }

    /// Runs every trial of the sweep in parallel and aggregates per scenario.
    pub fn run(&self) -> SweepReport {
        let scenarios = self.scenarios();
        let cached = build_topology_cache(&scenarios);

        let tasks: Vec<(usize, Scenario, u64)> = scenarios
            .iter()
            .enumerate()
            .flat_map(|(index, &scenario)| {
                (0..self.trials).map(move |trial| (index, scenario, trial))
            })
            .collect();

        let base_seed = self.base_seed;
        let cached = &cached;
        let outcomes: Vec<TrialOutcome> = tasks
            .into_par_iter()
            .map(move |(index, scenario, trial)| {
                let entry = cached.get(&(scenario.family.name(), scenario.size));
                let base = entry.map(|(g, _)| Arc::as_ref(g));
                let bound = entry.and_then(|(_, b)| *b);
                run_trial(base_seed, index, scenario, trial, base, bound)
            })
            .collect();

        let mut per_scenario: Vec<Vec<TrialOutcome>> = vec![Vec::new(); scenarios.len()];
        for outcome in outcomes {
            per_scenario[outcome.scenario_index].push(outcome);
        }

        let summaries = scenarios
            .iter()
            .zip(per_scenario)
            .map(|(scenario, trials)| ScenarioSummary::aggregate(scenario, &trials))
            .collect();

        SweepReport {
            trials: self.trials,
            base_seed: self.base_seed,
            scenarios: summaries,
        }
    }
}

/// Shared-topology cache key: `(family name, size)`.
pub(crate) type TopologyKey = (String, usize);

/// Builds the shared topology cache for a scenario list.
///
/// Deterministic topologies are pure functions of (family, size): build each
/// one once, in parallel, and share it across every trial and latency
/// profile of every cell that uses it.  (Random families still build per
/// trial from the trial's own seed.)  Graph builds ignore the RNG for these
/// families, so cached instances are bit-identical to per-trial builds and
/// reports are unchanged.
///
/// Heavy protocols consult the diameter-bound oracle; when the cached
/// `AsBuilt` topology is the graph they'll actually run on, the bound is
/// computed once alongside the build and shared across trials.  (Other
/// profiles re-weight per trial, so their bound is per-trial.)
///
/// `BTreeMap`/`BTreeSet` keep every stage of the build — the distinct-key
/// walk, the parallel build order, and the resulting map — independent of
/// insertion order, so the cache (and anything that ever comes to iterate
/// it) is deterministic for *any* permutation of the scenario list, not
/// just the sorted one `scenarios()` happens to produce.
pub(crate) fn build_topology_cache(
    scenarios: &[Scenario],
) -> BTreeMap<TopologyKey, (Arc<Graph>, Option<Latency>)> {
    let mut distinct: BTreeMap<TopologyKey, GraphFamily> = BTreeMap::new();
    let mut needs_bound: BTreeSet<TopologyKey> = BTreeSet::new();
    for s in scenarios.iter().filter(|s| s.family.is_deterministic()) {
        distinct
            .entry((s.family.name(), s.size))
            .or_insert(s.family);
        if s.protocol.is_heavyweight() && matches!(s.profile, LatencyProfile::AsBuilt) {
            needs_bound.insert((s.family.name(), s.size));
        }
    }
    distinct
        .into_iter()
        .collect::<Vec<_>>()
        .into_par_iter()
        .map(|(key, family)| {
            // The RNG is unused for deterministic families; seed fixed.
            let mut rng = SmallRng::seed_from_u64(0);
            let graph = Arc::new(family.build(key.1, &mut rng));
            let bound = needs_bound
                .contains(&key)
                .then(|| gossip_core::diameter_bound(&graph));
            (key, (graph, bound))
        })
        .collect()
}

/// One cell of the sweep grid.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Graph family of the cell.
    pub family: GraphFamily,
    /// Node budget of the cell.
    pub size: usize,
    /// Latency profile of the cell.
    pub profile: LatencyProfile,
    /// Protocol of the cell.
    pub protocol: ProtocolKind,
    /// Seed-derived churn to inject (`None` = the fault-free cell every
    /// sweep ran before the fault tier existed; such cells keep their exact
    /// pre-fault trial seeds).  Only [fault-capable
    /// protocols](ProtocolKind::supports_faults) may carry `Some`.
    pub faults: Option<ChurnSpec>,
}

/// Stable identifier of a churn spec, used in reports and trial-seed
/// derivation (`pm` = permille, `ppm` = parts per million).
pub fn churn_label(spec: &ChurnSpec) -> String {
    let rejoin = spec
        .rejoin_after
        .map_or("never".to_string(), |d| format!("+{d}"));
    format!(
        "churn(crash={}pm,rejoin={},cut={}pm,loss={}ppm,rounds={}..={})",
        spec.crash_permille, rejoin, spec.cut_permille, spec.loss_ppm, spec.window.0, spec.window.1
    )
}

/// The measured outcome of a single trial.
#[derive(Debug, Clone)]
struct TrialOutcome {
    scenario_index: usize,
    rounds: u64,
    activations: u64,
    completed: bool,
    nodes: usize,
    edges: usize,
    mem: Option<gossip_sim::MemStats>,
    faults: Option<FaultReport>,
}

/// Stable mix of the sweep seed with a trial's coordinates: FNV-1a over the
/// scenario's *content* (family, size, profile, protocol, and — for fault
/// cells only — the churn label), finished with a SplitMix64 avalanche.
///
/// Hashing the scenario's identity rather than its position in the grid means
/// inserting, removing or reordering other scenarios leaves this scenario's
/// trial seeds — and therefore its results — unchanged, so reports stay
/// comparable as the grid evolves.  Fault-free cells hash exactly the
/// pre-fault-tier content string, so their seeds (and the whole committed
/// baseline) survived the `faults` field unchanged.
fn trial_seed(base: u64, scenario: &Scenario, trial: u64) -> u64 {
    let mut key = format!(
        "{}|{}|{}|{}",
        scenario.family.name(),
        scenario.size,
        scenario.profile.name(),
        scenario.protocol.name()
    );
    if let Some(spec) = &scenario.faults {
        key.push_str("|faults=");
        key.push_str(&churn_label(spec));
    }
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for byte in key.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let mut z = base
        .wrapping_add(hash.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(trial.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn run_trial(
    base_seed: u64,
    scenario_index: usize,
    scenario: Scenario,
    trial: u64,
    cached_base: Option<&Graph>,
    cached_bound: Option<Latency>,
) -> TrialOutcome {
    let seed = trial_seed(base_seed, &scenario, trial);
    // Split the trial seed into independent streams for graph topology,
    // latency assignment and protocol randomness.
    let built;
    let base: &Graph = match cached_base {
        Some(g) => g,
        None => {
            let mut graph_rng = SmallRng::seed_from_u64(seed ^ 0x01);
            built = scenario.family.build(scenario.size, &mut graph_rng);
            &built
        }
    };
    let mut latency_rng = SmallRng::seed_from_u64(seed ^ 0x02);
    // `AsBuilt` keeps the cached/built instance as-is — no per-trial clone;
    // every other profile re-weights through `LatencyProfile::apply`.
    let reweighted;
    // The cached diameter bound describes the cached `AsBuilt` instance only;
    // a re-weighted graph has different latencies, so its bound is computed
    // inside the protocol run.
    let (g, bound): (&Graph, Option<Latency>) = match scenario.profile {
        LatencyProfile::AsBuilt => (base, cached_bound),
        _ => {
            reweighted = scenario.profile.apply(base, &mut latency_rng);
            (&reweighted, None)
        }
    };
    let measured = match &scenario.faults {
        Some(spec) => scenario.protocol.run_faulted(g, spec, seed),
        None => scenario
            .protocol
            .run_with_diameter_bound(g, bound, seed ^ 0x03),
    };
    TrialOutcome {
        scenario_index,
        rounds: measured.rounds,
        activations: measured.activations,
        completed: measured.completed,
        nodes: g.node_count(),
        edges: g.edge_count(),
        mem: measured.mem,
        faults: measured.faults,
    }
}

/// Aggregated statistics of one scenario across its trials.
#[derive(Debug, Clone)]
pub struct ScenarioSummary {
    /// Family identifier.
    pub family: String,
    /// Requested node budget.
    pub size: usize,
    /// Latency profile identifier.
    pub profile: String,
    /// Protocol identifier.
    pub protocol: String,
    /// Actual node count of the generated instances (first trial).
    pub nodes: usize,
    /// Actual edge count of the generated instances (first trial).
    pub edges: usize,
    /// Trials whose dissemination goal was reached.
    pub completed: u64,
    /// Total trials.
    pub trials: u64,
    /// Minimum round count.
    pub rounds_min: u64,
    /// Lower median round count.
    pub rounds_median: u64,
    /// 95th-percentile round count (nearest-rank).
    pub rounds_p95: u64,
    /// Maximum round count.
    pub rounds_max: u64,
    /// Mean round count.
    pub rounds_mean: f64,
    /// Lower median of activations.
    pub activations_median: u64,
    /// Largest peak engine memory over the trials, in bytes (0 when the
    /// protocol does not report memory counters).  Deterministic — derived
    /// from the engine's [`gossip_sim::MemStats`] counters, not the
    /// allocator — so it participates in byte-identical reports.
    pub peak_mem_bytes: u64,
    /// Largest peak of dense rumor-set pages over the trials (0 when memory
    /// counters were not reported) — the paged-storage cost the dense
    /// `n²/8` layout used to pay unconditionally.
    pub pages_peak: u64,
    /// Largest end-of-run count of fully saturated nodes over the trials.
    pub saturated_nodes: u64,
    /// Largest end-of-run `MemStats::collapsed_nodes` over the trials;
    /// always 0 since the engine keeps no per-node history to collapse.
    pub collapsed_nodes: u64,
    /// Rounds the event-driven scheduler actually executed, summed over the
    /// trials (0 when memory counters were not reported).
    pub rounds_simulated: u64,
    /// Rounds the scheduler fast-forwarded over (empty active worklist, the
    /// clock jumped to the next calendar event), summed over the trials.
    pub rounds_skipped: u64,
    /// [`churn_label`] of the cell's fault spec; `"none"` for fault-free
    /// cells (every field below is then 0).
    pub fault_profile: String,
    /// Crash-stop failures injected, summed over the trials.
    pub crashes: u64,
    /// Amnesiac rejoins injected, summed over the trials.
    pub rejoins: u64,
    /// Fail-stop link cuts injected, summed over the trials.
    pub links_cut: u64,
    /// In-flight exchanges cancelled by a crash of an endpoint, summed over
    /// the trials.
    pub exchanges_cancelled: u64,
    /// Exchanges lost in transit, summed over the trials.
    pub exchanges_lost: u64,
    /// Fewest alive nodes at end of run over the trials (worst case).
    pub alive_nodes_min: u64,
    /// Smallest largest-residual-component over the trials (worst
    /// fragmentation of the alive topology).
    pub largest_component_min: u64,
    /// Most rumors stranded on dead nodes over the trials (worst case).
    pub stranded_rumors_max: u64,
    /// Worst re-dissemination latency over trials in which a rejoined node
    /// recovered the tracked rumor (0 when none did).
    pub recovery_latency_max: u64,
}

impl ScenarioSummary {
    fn aggregate(scenario: &Scenario, trials: &[TrialOutcome]) -> ScenarioSummary {
        let mut rounds: Vec<u64> = trials.iter().map(|t| t.rounds).collect();
        rounds.sort_unstable();
        let mut activations: Vec<u64> = trials.iter().map(|t| t.activations).collect();
        activations.sort_unstable();
        let n = rounds.len().max(1);
        let mean = rounds.iter().sum::<u64>() as f64 / n as f64;
        ScenarioSummary {
            family: scenario.family.name(),
            size: scenario.size,
            profile: scenario.profile.name(),
            protocol: scenario.protocol.name().to_string(),
            nodes: trials.first().map_or(0, |t| t.nodes),
            edges: trials.first().map_or(0, |t| t.edges),
            completed: trials.iter().filter(|t| t.completed).count() as u64,
            trials: trials.len() as u64,
            rounds_min: rounds.first().copied().unwrap_or(0),
            rounds_median: percentile(&rounds, 50),
            rounds_p95: percentile(&rounds, 95),
            rounds_max: rounds.last().copied().unwrap_or(0),
            rounds_mean: mean,
            activations_median: percentile(&activations, 50),
            peak_mem_bytes: trials
                .iter()
                .filter_map(|t| t.mem.map(|m| m.peak_engine_bytes))
                .max()
                .unwrap_or(0),
            pages_peak: trials
                .iter()
                .filter_map(|t| t.mem.map(|m| m.pages_peak))
                .max()
                .unwrap_or(0),
            saturated_nodes: trials
                .iter()
                .filter_map(|t| t.mem.map(|m| m.saturated_nodes))
                .max()
                .unwrap_or(0),
            collapsed_nodes: trials
                .iter()
                .filter_map(|t| t.mem.map(|m| m.collapsed_nodes))
                .max()
                .unwrap_or(0),
            rounds_simulated: trials
                .iter()
                .filter_map(|t| t.mem.map(|m| m.rounds_simulated))
                .sum(),
            rounds_skipped: trials
                .iter()
                .filter_map(|t| t.mem.map(|m| m.rounds_skipped))
                .sum(),
            fault_profile: scenario
                .faults
                .as_ref()
                .map_or("none".to_string(), churn_label),
            crashes: fault_sum(trials, |f| f.crashes),
            rejoins: fault_sum(trials, |f| f.rejoins),
            links_cut: fault_sum(trials, |f| f.links_cut),
            exchanges_cancelled: fault_sum(trials, |f| f.exchanges_cancelled),
            exchanges_lost: fault_sum(trials, |f| f.exchanges_lost),
            alive_nodes_min: trials
                .iter()
                .filter_map(|t| t.faults.map(|f| f.alive_nodes))
                .min()
                .unwrap_or(0),
            largest_component_min: trials
                .iter()
                .filter_map(|t| t.faults.map(|f| f.largest_component))
                .min()
                .unwrap_or(0),
            stranded_rumors_max: trials
                .iter()
                .filter_map(|t| t.faults.map(|f| f.stranded_rumors))
                .max()
                .unwrap_or(0),
            recovery_latency_max: trials
                .iter()
                .filter_map(|t| t.faults.and_then(|f| f.recovery_latency))
                .max()
                .unwrap_or(0),
        }
    }
}

/// Sum of one [`FaultReport`] counter over a scenario's faulted trials.
fn fault_sum(trials: &[TrialOutcome], field: impl Fn(&FaultReport) -> u64) -> u64 {
    trials
        .iter()
        .filter_map(|t| t.faults.as_ref().map(&field))
        .sum()
}

/// Nearest-rank percentile of an ascending-sorted slice (lower median for 50).
fn percentile(sorted: &[u64], pct: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (pct * sorted.len() as u64).div_ceil(100).max(1) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The result of a sweep: one summary per scenario, in grid order.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Trials per scenario.
    pub trials: u64,
    /// Base seed of the sweep.
    pub base_seed: u64,
    /// Per-scenario aggregates, in deterministic grid order.
    pub scenarios: Vec<ScenarioSummary>,
}

impl SweepReport {
    /// Serialises the report as deterministic pretty JSON.
    ///
    /// Running the same spec twice yields byte-identical output: the report
    /// contains no timestamps or machine-dependent fields, scenario order is
    /// the grid order, and the writer formats numbers deterministically.
    pub fn to_json(&self) -> String {
        Json::object(vec![
            ("schema", Json::Str("gossip-sweep/v5".to_string())),
            ("trials_per_scenario", Json::Int(self.trials as i64)),
            // A string, not an i64: u64 seeds above i64::MAX must survive
            // the round trip through the report.
            ("base_seed", Json::Str(self.base_seed.to_string())),
            (
                "scenarios",
                Json::Array(
                    self.scenarios
                        .iter()
                        .map(|s| {
                            Json::object(vec![
                                ("family", Json::Str(s.family.clone())),
                                ("size", Json::Int(s.size as i64)),
                                ("profile", Json::Str(s.profile.clone())),
                                ("protocol", Json::Str(s.protocol.clone())),
                                ("nodes", Json::Int(s.nodes as i64)),
                                ("edges", Json::Int(s.edges as i64)),
                                ("completed", Json::Int(s.completed as i64)),
                                ("trials", Json::Int(s.trials as i64)),
                                ("rounds_min", Json::Int(s.rounds_min as i64)),
                                ("rounds_median", Json::Int(s.rounds_median as i64)),
                                ("rounds_p95", Json::Int(s.rounds_p95 as i64)),
                                ("rounds_max", Json::Int(s.rounds_max as i64)),
                                ("rounds_mean", Json::Float(s.rounds_mean)),
                                ("activations_median", Json::Int(s.activations_median as i64)),
                                ("peak_mem_bytes", Json::Int(s.peak_mem_bytes as i64)),
                                ("pages_peak", Json::Int(s.pages_peak as i64)),
                                ("saturated_nodes", Json::Int(s.saturated_nodes as i64)),
                                ("collapsed_nodes", Json::Int(s.collapsed_nodes as i64)),
                                ("rounds_simulated", Json::Int(s.rounds_simulated as i64)),
                                ("rounds_skipped", Json::Int(s.rounds_skipped as i64)),
                                // v5: the graceful-degradation section.  All
                                // zeros (profile "none") for fault-free cells,
                                // so fault-aware consumers need no schema
                                // branching.
                                ("fault_profile", Json::Str(s.fault_profile.clone())),
                                ("crashes", Json::Int(s.crashes as i64)),
                                ("rejoins", Json::Int(s.rejoins as i64)),
                                ("links_cut", Json::Int(s.links_cut as i64)),
                                (
                                    "exchanges_cancelled",
                                    Json::Int(s.exchanges_cancelled as i64),
                                ),
                                ("exchanges_lost", Json::Int(s.exchanges_lost as i64)),
                                ("alive_nodes_min", Json::Int(s.alive_nodes_min as i64)),
                                (
                                    "largest_component_min",
                                    Json::Int(s.largest_component_min as i64),
                                ),
                                (
                                    "stranded_rumors_max",
                                    Json::Int(s.stranded_rumors_max as i64),
                                ),
                                (
                                    "recovery_latency_max",
                                    Json::Int(s.recovery_latency_max as i64),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
        .to_pretty()
    }

    /// The scenario with the largest peak engine memory, as
    /// `(scenario label, bytes)` — `None` when no scenario reported memory
    /// counters.  This is what the `--mem-stats` timing artifact records.
    pub fn peak_mem_max(&self) -> Option<(String, u64)> {
        self.scenarios
            .iter()
            .filter(|s| s.peak_mem_bytes > 0)
            .max_by_key(|s| s.peak_mem_bytes)
            .map(|s| {
                (
                    format!("{}/{}/{}/{}", s.family, s.size, s.profile, s.protocol),
                    s.peak_mem_bytes,
                )
            })
    }

    /// Sweep-wide `(rounds_simulated, rounds_skipped)` totals over every
    /// scenario — the event-driven scheduler's aggregate: how many rounds
    /// were actually walked vs fast-forwarded over.  Deterministic (engine
    /// counters), so it participates in byte-identical artifacts.
    pub fn rounds_totals(&self) -> (u64, u64) {
        self.scenarios.iter().fold((0, 0), |(sim, skip), s| {
            (sim + s.rounds_simulated, skip + s.rounds_skipped)
        })
    }

    /// Renders the aggregates as a [`Table`] for terminal / markdown output.
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(
            format!(
                "Sweep: {} scenarios x {} trials (seed {:#x})",
                self.scenarios.len(),
                self.trials,
                self.base_seed
            ),
            &[
                "family", "n", "profile", "protocol", "ok", "min", "median", "p95", "max", "mean",
                "memMB", "skipped%",
            ],
        );
        for s in &self.scenarios {
            // Share of all rounds (across the scenario's trials) the
            // event-driven scheduler fast-forwarded over instead of walking.
            let total_rounds = s.rounds_simulated + s.rounds_skipped;
            let skipped_pct = if total_rounds == 0 {
                0.0
            } else {
                100.0 * s.rounds_skipped as f64 / total_rounds as f64
            };
            table.push_row(vec![
                s.family.as_str().into(),
                s.nodes.into(),
                s.profile.as_str().into(),
                s.protocol.as_str().into(),
                format!("{}/{}", s.completed, s.trials).into(),
                s.rounds_min.into(),
                s.rounds_median.into(),
                s.rounds_p95.into(),
                s.rounds_max.into(),
                s.rounds_mean.into(),
                (s.peak_mem_bytes / (1 << 20)).into(),
                skipped_pct.into(),
            ]);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            families: vec![
                GraphFamily::Clique,
                GraphFamily::Cycle,
                GraphFamily::Star,
                GraphFamily::ErdosRenyi { p: 0.4 },
            ],
            sizes: vec![8],
            profiles: vec![
                LatencyProfile::AsBuilt,
                LatencyProfile::TwoLevel {
                    slow: 8,
                    fast_probability: 0.5,
                },
            ],
            protocols: vec![ProtocolKind::PushPull, ProtocolKind::Flooding],
            trials: 3,
            base_seed: 42,
            dense_size_cap: None,
            heavy_size_cap: None,
            extra: Vec::new(),
        }
    }

    #[test]
    fn sweep_covers_the_whole_grid() {
        let spec = tiny_spec();
        let report = spec.run();
        assert_eq!(report.scenarios.len(), spec.scenario_count());
        assert_eq!(spec.scenario_count(), 4 * 2 * 2);
        for s in &report.scenarios {
            assert_eq!(s.trials, 3);
            assert_eq!(
                s.completed, 3,
                "{}/{}/{} failed trials",
                s.family, s.profile, s.protocol
            );
            assert!(s.rounds_min <= s.rounds_median);
            assert!(s.rounds_median <= s.rounds_p95);
            assert!(s.rounds_p95 <= s.rounds_max);
            assert!(s.rounds_min > 0);
        }
    }

    #[test]
    fn same_seed_gives_byte_identical_json() {
        let a = tiny_spec().run().to_json();
        let b = tiny_spec().run().to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn topology_cache_is_identical_across_scenario_permutations() {
        // Audit pin (PR 7): the cache build iterates the scenario list and
        // the distinct-key map; with BTreeMap/BTreeSet the result is a pure
        // function of the scenario *set*, so any permutation of the list —
        // not just the sorted order `scenarios()` produces — yields a
        // byte-identical cache (keys, graph edge lists, diameter bounds).
        let spec = SweepSpec {
            protocols: vec![
                ProtocolKind::PushPullAllToAll,
                ProtocolKind::SpannerBroadcast,
            ],
            ..tiny_spec()
        };
        let scenarios = spec.scenarios();
        let mut permuted = scenarios.clone();
        permuted.reverse();
        permuted.rotate_left(scenarios.len() / 3);
        let order = |list: &[Scenario]| {
            list.iter()
                .map(|s| (s.family.name(), s.protocol.name(), s.profile.name()))
                .collect::<Vec<_>>()
        };
        assert_ne!(
            order(&scenarios),
            order(&permuted),
            "permutation must actually change the order"
        );

        let a = build_topology_cache(&scenarios);
        let b = build_topology_cache(&permuted);
        assert_eq!(a.keys().collect::<Vec<_>>(), b.keys().collect::<Vec<_>>());
        for (key, (graph_a, bound_a)) in &a {
            let (graph_b, bound_b) = &b[key];
            assert_eq!(bound_a, bound_b, "bound diverged for {key:?}");
            assert_eq!(
                Arc::as_ref(graph_a),
                Arc::as_ref(graph_b),
                "graph diverged for {key:?}"
            );
        }
    }

    #[test]
    fn different_seeds_give_different_results() {
        let mut spec = tiny_spec();
        let a = spec.run().to_json();
        spec.base_seed = 43;
        let b = spec.run().to_json();
        assert_ne!(a, b);
    }

    #[test]
    fn trial_seeds_do_not_collide_over_the_grid() {
        use std::collections::HashSet;
        let big = SweepSpec {
            families: vec![
                GraphFamily::Clique,
                GraphFamily::Cycle,
                GraphFamily::Grid,
                GraphFamily::Star,
                GraphFamily::Dumbbell,
                GraphFamily::RingOfCliques,
                GraphFamily::BinaryTree,
                GraphFamily::ErdosRenyi { p: 0.2 },
            ],
            sizes: vec![8, 16, 24, 32, 48, 64],
            profiles: vec![
                LatencyProfile::AsBuilt,
                LatencyProfile::TwoLevel {
                    slow: 16,
                    fast_probability: 0.5,
                },
                LatencyProfile::UniformRandom { max: 12 },
                LatencyProfile::PowerLaw { classes: 4 },
            ],
            protocols: vec![
                ProtocolKind::PushPull,
                ProtocolKind::Flooding,
                ProtocolKind::SpannerBroadcast,
                ProtocolKind::PatternBroadcast,
                ProtocolKind::Unified,
            ],
            trials: 16,
            base_seed: 7,
            dense_size_cap: None,
            heavy_size_cap: None,
            extra: Vec::new(),
        };
        let mut seen = HashSet::new();
        for scenario in big.scenarios() {
            for trial in 0..big.trials {
                assert!(seen.insert(trial_seed(big.base_seed, &scenario, trial)));
            }
        }
        assert_eq!(seen.len(), big.trial_count() as usize);
    }

    #[test]
    fn trial_seeds_depend_on_scenario_content_not_grid_position() {
        let scenario = |size: usize| Scenario {
            family: GraphFamily::Clique,
            size,
            profile: LatencyProfile::AsBuilt,
            protocol: ProtocolKind::PushPull,
            faults: None,
        };
        // The same scenario yields the same seed wherever it sits in a grid;
        // a different scenario yields a different one.
        assert_eq!(
            trial_seed(7, &scenario(16), 3),
            trial_seed(7, &scenario(16), 3)
        );
        assert_ne!(
            trial_seed(7, &scenario(16), 3),
            trial_seed(7, &scenario(24), 3)
        );
    }

    fn tiny_churn() -> ChurnSpec {
        ChurnSpec {
            crash_permille: 200,
            rejoin_after: Some(8),
            cut_permille: 50,
            loss_ppm: 40_000,
            window: (1, 12),
        }
    }

    #[test]
    fn fault_cells_hash_their_churn_spec_into_the_trial_seed() {
        let cell = |faults: Option<ChurnSpec>| Scenario {
            family: GraphFamily::Star,
            size: 16,
            profile: LatencyProfile::AsBuilt,
            protocol: ProtocolKind::PushPull,
            faults,
        };
        let plain = trial_seed(7, &cell(None), 0);
        let churned = trial_seed(7, &cell(Some(tiny_churn())), 0);
        assert_ne!(plain, churned, "fault cells must draw fresh seeds");
        let mut heavier = tiny_churn();
        heavier.crash_permille = 300;
        assert_ne!(
            churned,
            trial_seed(7, &cell(Some(heavier)), 0),
            "different specs are different scenario content"
        );
        assert_eq!(churned, trial_seed(7, &cell(Some(tiny_churn())), 0));
    }

    #[test]
    fn fault_tier_cells_are_fault_capable_at_every_scale() {
        for scale in [Scale::Quick, Scale::Full, Scale::Large, Scale::Huge] {
            let tier = SweepSpec::fault_tier(scale);
            assert!(!tier.is_empty());
            for cell in &tier {
                assert!(cell.protocol.supports_faults(), "{}", cell.protocol.name());
                assert!(cell.faults.is_some());
            }
        }
        // And the tier is what `fault_cell_count` counts.
        let mut spec = tiny_spec();
        assert_eq!(spec.fault_cell_count(), 0);
        spec.extra.extend(SweepSpec::fault_tier(Scale::Quick));
        assert_eq!(
            spec.fault_cell_count(),
            SweepSpec::fault_tier(Scale::Quick).len()
        );
    }

    #[test]
    fn faulted_cells_report_graceful_degradation_and_leave_other_cells_alone() {
        let mut spec = SweepSpec {
            families: vec![GraphFamily::Star],
            sizes: vec![24],
            profiles: vec![LatencyProfile::AsBuilt],
            protocols: vec![ProtocolKind::PushPull],
            trials: 3,
            base_seed: 99,
            dense_size_cap: None,
            heavy_size_cap: None,
            extra: Vec::new(),
        };
        let baseline = spec.run();
        assert_eq!(baseline.scenarios[0].fault_profile, "none");
        assert_eq!(baseline.scenarios[0].crashes, 0);
        assert_eq!(baseline.scenarios[0].alive_nodes_min, 0);

        // Blackout cell: permanent crashes with the star's hub in play.
        let blackout = ChurnSpec {
            rejoin_after: None,
            loss_ppm: 0,
            ..tiny_churn()
        };
        spec.extra.push(Scenario {
            family: GraphFamily::Star,
            size: 24,
            profile: LatencyProfile::AsBuilt,
            protocol: ProtocolKind::PushPull,
            faults: Some(blackout),
        });
        let faulted = spec.run();

        // The fault-free cell is byte-identical to its pre-tier self: fault
        // cells draw their own seeds.
        let strip = |report: &SweepReport| report.to_json();
        let a = strip(&baseline);
        let b = strip(&faulted);
        let cell_a = Json::parse(&a).unwrap();
        let cell_b = Json::parse(&b).unwrap();
        assert_eq!(
            cell_a.get("scenarios").and_then(Json::as_array).unwrap()[0],
            cell_b.get("scenarios").and_then(Json::as_array).unwrap()[0],
            "adding the fault tier must not perturb fault-free cells"
        );

        let cell = &faulted.scenarios[1];
        assert_eq!(cell.fault_profile, churn_label(&blackout));
        // 200‰ of 24 nodes (4 per trial) are *scheduled* to crash; a trial
        // that completes before the window elapses absorbs only a prefix of
        // the schedule, so the sum over 3 trials is bounded, not exact.
        assert!(cell.crashes > 0, "blackout must crash someone");
        assert!(cell.crashes <= 3 * 4);
        assert_eq!(cell.rejoins, 0, "blackout crashes are permanent");
        assert_eq!(cell.exchanges_lost, 0, "blackout runs are loss-free");
        assert!(cell.alive_nodes_min >= 20, "at most 4 crashes per trial");
        assert!(cell.alive_nodes_min < 24, "someone actually crashed");
        assert!(cell.largest_component_min <= 23);
        // Determinism: the faulted grid serialises identically on a rerun.
        assert_eq!(faulted.to_json(), spec.run().to_json());
    }

    #[test]
    fn churn_with_rejoin_reports_recovery_latency() {
        // A clique under rejoin churn: the rumor always survives somewhere,
        // rejoined nodes re-learn it, and the report carries the worst
        // re-dissemination latency.
        let spec = SweepSpec {
            families: vec![GraphFamily::Clique],
            sizes: vec![16],
            profiles: vec![LatencyProfile::AsBuilt],
            protocols: vec![],
            trials: 4,
            base_seed: 31,
            dense_size_cap: None,
            heavy_size_cap: None,
            extra: vec![Scenario {
                family: GraphFamily::Clique,
                size: 16,
                profile: LatencyProfile::AsBuilt,
                protocol: ProtocolKind::PushPullAllToAll,
                faults: Some(tiny_churn()),
            }],
        };
        let report = spec.run();
        let cell = &report.scenarios[0];
        // 200‰ of 16 nodes = 3 crash events scheduled per trial; trials
        // absorb the prefix that lands before they complete.
        assert!(cell.crashes > 0);
        assert!(cell.crashes <= 4 * 3);
        assert!(cell.rejoins <= cell.crashes);
        assert!(cell.alive_nodes_min >= 13, "at most 3 crashes per trial");
        assert!(
            cell.recovery_latency_max > 0,
            "a rejoined clique node must re-learn the universe in some trial"
        );
        assert_eq!(
            cell.completed, cell.trials,
            "rejoin churn on a clique still disseminates"
        );
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted = [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        assert_eq!(percentile(&sorted, 50), 5);
        assert_eq!(percentile(&sorted, 95), 10);
        assert_eq!(percentile(&sorted, 100), 10);
        assert_eq!(percentile(&[7], 50), 7);
        assert_eq!(percentile(&[], 50), 0);
    }

    #[test]
    fn standard_spec_has_at_least_four_families() {
        let spec = SweepSpec::standard(Scale::Quick);
        assert!(spec.families.len() >= 4);
        assert!(spec.trials >= 2);
        assert!(!spec.protocols.is_empty());
        // The diversity additions of the large-scale rework ride along on
        // every scale: the barbell family and the bimodal latency profile.
        assert!(spec
            .families
            .iter()
            .any(|f| matches!(f, GraphFamily::Barbell { .. })));
        assert!(spec
            .profiles
            .iter()
            .any(|p| matches!(p, LatencyProfile::Bimodal { .. })));
    }

    #[test]
    fn size_caps_filter_the_cross_product() {
        let mut spec = tiny_spec();
        spec.families = vec![GraphFamily::Clique, GraphFamily::Cycle];
        spec.sizes = vec![8, 64];
        let uncapped = spec.scenario_count();
        assert_eq!(uncapped, 2 * 2 * 2 * 2);

        spec.dense_size_cap = Some(32); // drops clique @ 64 (4 cells)
        assert_eq!(spec.scenario_count(), uncapped - 4);

        spec.protocols = vec![ProtocolKind::PushPull, ProtocolKind::Unified];
        spec.heavy_size_cap = Some(32); // additionally drops unified @ 64 on cycle
        assert_eq!(spec.scenario_count(), uncapped - 4 - 2);

        spec.extra.push(Scenario {
            family: GraphFamily::Star,
            size: 1 << 15,
            profile: LatencyProfile::AsBuilt,
            protocol: ProtocolKind::Flooding,
            faults: None,
        });
        // Extras bypass the caps.
        assert_eq!(spec.scenario_count(), uncapped - 4 - 2 + 1);
    }

    #[test]
    fn large_spec_reaches_past_ten_thousand_nodes() {
        let spec = SweepSpec::standard(Scale::Large);
        let scenarios = spec.scenarios();
        let max_size = scenarios.iter().map(|s| s.size).max().unwrap();
        assert!(max_size > 10_000, "large tier must pass 10^4 nodes");
        // Every family reaches 4096 …
        for family in &spec.families {
            assert!(
                scenarios
                    .iter()
                    .any(|s| s.family.name() == family.name() && s.size == 4096),
                "{} missing at 4096",
                family.name()
            );
        }
        // … and the heavyweight protocols reach past the old 1024 wall: the
        // full grid (4096) plus dedicated 8192/16384 cells, capped at 16384.
        for s in &scenarios {
            if s.protocol.is_heavyweight() {
                assert!(s.size <= 16384, "{} at {}", s.protocol.name(), s.size);
            }
        }
        for (size, protocol) in [
            (4096, ProtocolKind::SpannerBroadcast),
            (4096, ProtocolKind::Unified),
            (8192, ProtocolKind::SpannerBroadcast),
            (8192, ProtocolKind::PatternBroadcast),
            (8192, ProtocolKind::Unified),
            (16384, ProtocolKind::SpannerBroadcast),
            (16384, ProtocolKind::Unified),
        ] {
            assert!(
                scenarios
                    .iter()
                    .any(|s| s.size == size && s.protocol == protocol),
                "{} missing at {}",
                protocol.name(),
                size
            );
        }
        // The promoted all-to-all cells: knowledge saturation at 32768.
        for protocol in [
            ProtocolKind::PushPullAllToAll,
            ProtocolKind::FloodingAllToAll,
        ] {
            assert!(
                scenarios
                    .iter()
                    .any(|s| s.size == 32768 && s.protocol == protocol),
                "{} missing at 32768",
                protocol.name()
            );
        }
    }

    #[test]
    fn huge_spec_extends_the_large_tier_past_ten_to_the_five() {
        let large = SweepSpec::standard(Scale::Large);
        let huge = SweepSpec::standard(Scale::Huge);
        // Everything in Large is in Huge…
        assert!(huge.scenario_count() > large.scenario_count());
        let scenarios = huge.scenarios();
        // …plus a >10^5-node cell, all-to-all at 65536 *and* 131072 (the
        // paged-set tier), and an Erdős–Rényi broadcast at 16384.
        assert!(scenarios.iter().any(|s| s.size > 100_000));
        assert!(scenarios
            .iter()
            .any(|s| s.size == 65536 && s.protocol == ProtocolKind::PushPullAllToAll));
        assert!(scenarios
            .iter()
            .any(|s| s.size == 131072 && s.protocol == ProtocolKind::PushPullAllToAll));
        assert!(scenarios
            .iter()
            .any(|s| s.size == 131072 && s.protocol == ProtocolKind::FloodingAllToAll));
        assert!(scenarios
            .iter()
            .any(|s| s.size == 16384 && matches!(s.family, GraphFamily::ErdosRenyi { .. })));
    }

    #[test]
    fn all_to_all_cells_saturate_knowledge_and_report_memory() {
        // A miniature all-to-all cell end to end: both all-to-all protocol
        // kinds complete on a small star and carry a peak-memory figure.
        let spec = SweepSpec {
            families: vec![GraphFamily::Star],
            sizes: vec![64],
            profiles: vec![LatencyProfile::AsBuilt],
            protocols: vec![
                ProtocolKind::PushPullAllToAll,
                ProtocolKind::FloodingAllToAll,
            ],
            trials: 2,
            base_seed: 9,
            dense_size_cap: None,
            heavy_size_cap: None,
            extra: Vec::new(),
        };
        let report = spec.run();
        for s in &report.scenarios {
            assert_eq!(s.completed, s.trials, "{} must complete", s.protocol);
            assert!(s.peak_mem_bytes > 0, "{} must report memory", s.protocol);
            // A destination's batch lands in one union, so a leaf's or the
            // hub's page goes from a few ids straight to full: only the
            // hub's page could ever hold a block.
            assert!(
                s.pages_peak <= 1,
                "{}: {} dense pages",
                s.protocol,
                s.pages_peak
            );
            assert_eq!(
                s.saturated_nodes, 64,
                "{} all-to-all saturates every node",
                s.protocol
            );
            assert!(s.collapsed_nodes <= 64);
        }
        let json = report.to_json();
        for field in ["pages_peak", "saturated_nodes", "collapsed_nodes"] {
            assert!(json.contains(field), "schema must carry {field}");
        }
        let (label, bytes) = report.peak_mem_max().unwrap();
        assert!(bytes >= report.scenarios[0].peak_mem_bytes);
        assert!(label.contains("star"));
    }

    #[test]
    fn cached_topologies_leave_reports_identical_to_uncached_builds() {
        // The cache only covers deterministic families; forcing every build
        // through the per-trial path (by routing around `run`) must give the
        // same outcome.  Easiest faithful check: a grid mixing deterministic
        // and random families twice — byte-identical JSON both times — plus
        // a direct comparison of a cached instance with a fresh build.
        let spec = SweepSpec {
            families: vec![GraphFamily::Clique, GraphFamily::ErdosRenyi { p: 0.4 }],
            sizes: vec![10],
            profiles: vec![
                LatencyProfile::AsBuilt,
                LatencyProfile::UniformRandom { max: 6 },
            ],
            protocols: vec![ProtocolKind::PushPull],
            trials: 3,
            base_seed: 77,
            dense_size_cap: None,
            heavy_size_cap: None,
            extra: Vec::new(),
        };
        assert_eq!(spec.run().to_json(), spec.run().to_json());
        let mut rng_a = SmallRng::seed_from_u64(0);
        let mut rng_b = SmallRng::seed_from_u64(123);
        assert_eq!(
            GraphFamily::Clique.build(10, &mut rng_a),
            GraphFamily::Clique.build(10, &mut rng_b),
            "deterministic families must ignore the RNG for caching to be sound"
        );
    }
}

//! Latency-assignment strategies.
//!
//! The paper's constructions use very structured latencies (e.g. "all cross
//! edges are slow except a hidden fast one"); the experiment harness also
//! needs generic ways to turn an unweighted family into a weighted instance.
//! [`LatencyScheme`] captures the assignment strategies used in the
//! evaluation: uniform, two-level fast/slow, power-law latency classes, and
//! uniformly random within a range.

use rand::Rng;

use crate::{Graph, GraphError, Latency};

/// Strategy for assigning latencies to the edges of an (unweighted) graph.
#[derive(Debug, Clone, PartialEq)]
pub enum LatencyScheme {
    /// Every edge gets the same latency (latency 1 reproduces the unweighted model).
    Uniform(Latency),
    /// Each edge independently is *fast* (`fast` latency) with probability
    /// `fast_probability`, otherwise *slow* (`slow` latency).
    TwoLevel {
        /// Latency of fast edges.
        fast: Latency,
        /// Latency of slow edges.
        slow: Latency,
        /// Probability that an edge is fast.
        fast_probability: f64,
    },
    /// Each edge picks latency class `i ∈ 1..=classes` with probability
    /// proportional to `2^{-i}` and gets latency `2^i` (a heavy-tailed mix of
    /// fast and slow edges exercising many latency classes).
    PowerLawClasses {
        /// Number of latency classes to draw from.
        classes: usize,
    },
    /// Each edge gets an independent uniformly random latency in `[min, max]`.
    UniformRandom {
        /// Smallest possible latency.
        min: Latency,
        /// Largest possible latency.
        max: Latency,
    },
    /// An *exact* fraction of the edges is slow: `round(slow_fraction · m)`
    /// edges, chosen uniformly without replacement, get latency `slow`; every
    /// other edge gets latency 1.
    ///
    /// Unlike [`TwoLevel`](Self::TwoLevel) (independent per-edge coin flips),
    /// the slow-edge *count* here is deterministic, so small instances cannot
    /// accidentally come out all-fast or all-slow — useful when sweeping the
    /// slow fraction as a controlled variable.
    BimodalFraction {
        /// Latency of slow edges.
        slow: Latency,
        /// Fraction of edges (in `[0, 1]`) that is slow.
        slow_fraction: f64,
    },
}

impl LatencyScheme {
    /// Checks the scheme's parameters: positive latencies, a non-empty
    /// range, probabilities and fractions in `[0, 1]`, at least one class.
    fn validate(&self) -> Result<(), GraphError> {
        let in_unit = |x: f64| (0.0..=1.0).contains(&x);
        let reason = match *self {
            LatencyScheme::Uniform(0) => "uniform latency must be positive",
            LatencyScheme::TwoLevel { fast, slow, .. } if fast == 0 || slow == 0 => {
                "latencies must be positive"
            }
            LatencyScheme::TwoLevel {
                fast_probability, ..
            } if !in_unit(fast_probability) => "fast_probability must lie in [0, 1]",
            LatencyScheme::PowerLawClasses { classes: 0 } => {
                "at least one latency class is required"
            }
            LatencyScheme::UniformRandom { min: 0, .. }
            | LatencyScheme::BimodalFraction { slow: 0, .. } => "latencies must be positive",
            LatencyScheme::UniformRandom { min, max } if min > max => {
                "latency range must be non-empty"
            }
            LatencyScheme::BimodalFraction { slow_fraction, .. } if !in_unit(slow_fraction) => {
                "slow_fraction must lie in [0, 1]"
            }
            _ => return Ok(()),
        };
        Err(GraphError::InvalidParameters {
            reason: reason.to_string(),
        })
    }

    /// Draws one latency according to the scheme, for the schemes that assign
    /// latencies to edges *independently*.
    ///
    /// [`BimodalFraction`](Self::BimodalFraction) is **not** such a scheme:
    /// its documented guarantee — exactly `round(slow_fraction · m)` slow
    /// edges — is a property of a whole edge set, and per-edge Bernoulli
    /// draws silently violate it (small instances can come out all-fast or
    /// all-slow, exactly what the variant exists to prevent).  Sampling it
    /// therefore returns [`GraphError::SchemeNotPerEdge`]; route such schemes
    /// through [`apply`](Self::apply), which honors the exact count.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameters`] if the scheme parameters are
    /// invalid (zero latency, empty range, probability outside `[0, 1]`, zero
    /// classes), before drawing anything from `rng`; and
    /// [`GraphError::SchemeNotPerEdge`] for schemes whose guarantee spans the
    /// whole edge set.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Latency, GraphError> {
        self.validate()?;
        match *self {
            LatencyScheme::Uniform(l) => Ok(l),
            LatencyScheme::TwoLevel {
                fast,
                slow,
                fast_probability,
            } => Ok(if rng.gen_bool(fast_probability) {
                fast
            } else {
                slow
            }),
            LatencyScheme::PowerLawClasses { classes } => {
                // P[class i] ∝ 2^{-i}; sample by repeated coin flips, capped at `classes`.
                let mut class = 1usize;
                while class < classes && rng.gen_bool(0.5) {
                    class += 1;
                }
                Ok(1u64 << class.min(32))
            }
            LatencyScheme::UniformRandom { min, max } => Ok(rng.gen_range(min..=max)),
            LatencyScheme::BimodalFraction { .. } => Err(GraphError::SchemeNotPerEdge {
                scheme: "bimodal-fraction",
            }),
        }
    }

    /// Returns a copy of `g` with every edge latency re-drawn from this scheme.
    ///
    /// The topology (node and edge set) is unchanged.  For
    /// [`BimodalFraction`](Self::BimodalFraction) the slow edges are sampled
    /// *without* replacement so exactly `round(slow_fraction · m)` of them are
    /// slow; every other scheme draws latencies independently per edge.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameters`] if the scheme parameters are
    /// invalid (see [`sample`](Self::sample)), before drawing anything from
    /// `rng`, even on an edgeless graph.
    pub fn apply<R: Rng + ?Sized>(&self, g: &Graph, rng: &mut R) -> Result<Graph, GraphError> {
        self.validate()?;
        if let LatencyScheme::BimodalFraction {
            slow,
            slow_fraction,
        } = *self
        {
            let m = g.edge_count();
            let k = ((m as f64) * slow_fraction).round() as usize;
            let k = k.min(m);
            // Partial Fisher–Yates: after k swaps, indices[..k] is a uniform
            // k-subset of the edge ids.
            let mut indices: Vec<usize> = (0..m).collect();
            for i in 0..k {
                let j = rng.gen_range(i..m);
                indices.swap(i, j);
            }
            let mut is_slow = vec![false; m];
            for &e in &indices[..k] {
                is_slow[e] = true;
            }
            let edges = g
                .edges()
                .enumerate()
                .map(|(i, rec)| crate::EdgeRecord {
                    u: rec.u,
                    v: rec.v,
                    latency: if is_slow[i] { slow } else { 1 },
                })
                .collect();
            return Graph::from_parts(g.node_count(), edges);
        }
        let edges = g
            .edges()
            .map(|rec| {
                Ok(crate::EdgeRecord {
                    u: rec.u,
                    v: rec.v,
                    // Infallible here: the one non-per-edge scheme
                    // (BimodalFraction) was fully handled above.
                    latency: self.sample(rng)?,
                })
            })
            .collect::<Result<Vec<_>, GraphError>>()?;
        Graph::from_parts(g.node_count(), edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_scheme_is_constant() {
        let mut rng = SmallRng::seed_from_u64(1);
        let s = LatencyScheme::Uniform(7);
        for _ in 0..10 {
            assert_eq!(s.sample(&mut rng), Ok(7));
        }
    }

    #[test]
    fn two_level_produces_both_levels() {
        let mut rng = SmallRng::seed_from_u64(2);
        let s = LatencyScheme::TwoLevel {
            fast: 1,
            slow: 100,
            fast_probability: 0.5,
        };
        let draws: Vec<Latency> = (0..200).map(|_| s.sample(&mut rng).unwrap()).collect();
        assert!(draws.contains(&1));
        assert!(draws.contains(&100));
        assert!(draws.iter().all(|&l| l == 1 || l == 100));
    }

    #[test]
    fn two_level_extreme_probabilities() {
        let mut rng = SmallRng::seed_from_u64(3);
        let all_fast = LatencyScheme::TwoLevel {
            fast: 2,
            slow: 50,
            fast_probability: 1.0,
        };
        let all_slow = LatencyScheme::TwoLevel {
            fast: 2,
            slow: 50,
            fast_probability: 0.0,
        };
        for _ in 0..20 {
            assert_eq!(all_fast.sample(&mut rng), Ok(2));
            assert_eq!(all_slow.sample(&mut rng), Ok(50));
        }
    }

    #[test]
    fn power_law_latencies_are_powers_of_two_within_range() {
        let mut rng = SmallRng::seed_from_u64(4);
        let s = LatencyScheme::PowerLawClasses { classes: 4 };
        for _ in 0..500 {
            let l = s.sample(&mut rng).unwrap();
            assert!(l.is_power_of_two());
            assert!((2..=16).contains(&l));
        }
    }

    #[test]
    fn uniform_random_respects_bounds() {
        let mut rng = SmallRng::seed_from_u64(5);
        let s = LatencyScheme::UniformRandom { min: 3, max: 9 };
        for _ in 0..200 {
            let l = s.sample(&mut rng).unwrap();
            assert!((3..=9).contains(&l));
        }
    }

    #[test]
    fn apply_preserves_topology() {
        let mut rng = SmallRng::seed_from_u64(6);
        let g = generators::clique(6, 1).unwrap();
        let w = LatencyScheme::UniformRandom { min: 1, max: 5 }
            .apply(&g, &mut rng)
            .unwrap();
        assert_eq!(w.node_count(), g.node_count());
        assert_eq!(w.edge_count(), g.edge_count());
        for (a, b) in g.edges().zip(w.edges()) {
            assert_eq!((a.u, a.v), (b.u, b.v));
            assert!((1..=5).contains(&b.latency));
        }
    }

    #[test]
    fn bimodal_fraction_is_exact() {
        let mut rng = SmallRng::seed_from_u64(8);
        let g = generators::clique(12, 1).unwrap(); // 66 edges
        for frac in [0.0, 0.25, 0.5, 1.0] {
            let s = LatencyScheme::BimodalFraction {
                slow: 40,
                slow_fraction: frac,
            };
            let w = s.apply(&g, &mut rng).unwrap();
            let slow_edges = w.edges().filter(|e| e.latency == 40).count();
            let expected = (66.0_f64 * frac).round() as usize;
            assert_eq!(slow_edges, expected, "fraction {frac}");
            assert!(w.edges().all(|e| e.latency == 1 || e.latency == 40));
        }
    }

    #[test]
    fn bimodal_fraction_cannot_be_sampled_per_edge() {
        // Regression: `sample` used to fall back to independent Bernoulli
        // draws, silently violating the exact-count contract that only
        // `apply` honors.  The per-edge path is now unrepresentable.
        let mut rng = SmallRng::seed_from_u64(9);
        let s = LatencyScheme::BimodalFraction {
            slow: 10,
            slow_fraction: 0.5,
        };
        assert_eq!(
            s.sample(&mut rng),
            Err(GraphError::SchemeNotPerEdge {
                scheme: "bimodal-fraction"
            })
        );
    }

    #[test]
    fn bimodal_fraction_slow_count_is_exact_for_every_seed() {
        // Regression companion: on a 13-edge graph with slow_fraction 0.5,
        // independent coin flips would produce a count other than
        // round(0.5 * 13) = 7 in the overwhelming majority of seeds; the
        // whole-edge-set path must hit it every single time.
        let g = generators::cycle(13, 1).unwrap(); // 13 edges
        let s = LatencyScheme::BimodalFraction {
            slow: 40,
            slow_fraction: 0.5,
        };
        for seed in 0..64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let w = s.apply(&g, &mut rng).unwrap();
            let slow_edges = w.edges().filter(|e| e.latency == 40).count();
            assert_eq!(slow_edges, 7, "seed {seed}");
        }
    }

    #[test]
    fn empty_range_is_an_error() {
        let mut rng = SmallRng::seed_from_u64(7);
        assert_eq!(
            LatencyScheme::UniformRandom { min: 9, max: 3 }.sample(&mut rng),
            Err(GraphError::InvalidParameters {
                reason: "latency range must be non-empty".to_string()
            })
        );
    }

    #[test]
    fn invalid_parameters_are_errors_before_any_draw() {
        let g = generators::path(4, 1).unwrap();
        for (scheme, reason) in [
            (
                LatencyScheme::Uniform(0),
                "uniform latency must be positive",
            ),
            (
                LatencyScheme::TwoLevel {
                    fast: 0,
                    slow: 5,
                    fast_probability: 0.5,
                },
                "latencies must be positive",
            ),
            (
                LatencyScheme::TwoLevel {
                    fast: 1,
                    slow: 5,
                    fast_probability: 1.5,
                },
                "fast_probability must lie in [0, 1]",
            ),
            (
                LatencyScheme::PowerLawClasses { classes: 0 },
                "at least one latency class is required",
            ),
            (
                LatencyScheme::UniformRandom { min: 0, max: 3 },
                "latencies must be positive",
            ),
            (
                LatencyScheme::BimodalFraction {
                    slow: 0,
                    slow_fraction: 0.5,
                },
                "latencies must be positive",
            ),
            (
                LatencyScheme::BimodalFraction {
                    slow: 4,
                    slow_fraction: f64::NAN,
                },
                "slow_fraction must lie in [0, 1]",
            ),
        ] {
            let expected = Err(GraphError::InvalidParameters {
                reason: reason.to_string(),
            });
            let mut rng = SmallRng::seed_from_u64(7);
            assert_eq!(scheme.apply(&g, &mut rng), expected, "{scheme:?}");
            // The rejection drew nothing: the stream is where it started.
            assert_eq!(rng, SmallRng::seed_from_u64(7), "{scheme:?}");
            assert_eq!(scheme.sample(&mut rng).map(|_| ()), expected.map(|_| ()));
        }
    }
}

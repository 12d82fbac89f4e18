//! Spectral sweep-cut estimation of conductance for larger graphs.
//!
//! Exactly minimising conductance over all cuts is NP-hard in general and the
//! exhaustive enumeration in [`crate::exact`] only scales to ~22 nodes.  For
//! larger graphs we fall back to the standard spectral heuristic: order nodes
//! by the Fiedler vector (the second eigenvector of the normalized adjacency
//! operator) and consider only the `n - 1` prefix cuts of that ordering.
//! Cheeger's inequality guarantees that the best sweep cut is within a
//! quadratic factor of the true conductance, and in practice it is very close;
//! the test-suite cross-checks the sweep estimates against exact values on
//! small graphs.
//!
//! The Fiedler vector comes from at most 200 power-iteration steps.  On a
//! large `G_ℓ` a solve splits each step across up to
//! `rayon::current_num_threads()` workers: the calling thread and helper
//! threads that live for the whole solve, each owning a contiguous node range
//! cut at equal `G_ℓ` arc counts.  The calling thread deflates the iterate;
//! every worker then gathers its nodes' entries from that one deflated
//! vector, each entry summed over the node's own neighbours in edge-id
//! order; the calling thread then takes the norm, normalises and checks for
//! a repeat.  No entry depends on which worker computes it, so every iterate,
//! step count and ordering is the same bits at any worker count.  Below
//! `MIN_ARCS_PER_WORKER` (2¹⁴) arcs per worker a step stays on the calling
//! thread, since a handoff to a helper and back costs about as much as
//! gathering that many arcs.

use std::ops::Range;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{RwLock, RwLockReadGuard};
use std::thread::Scope;

use gossip_graph::cut::Cut;
use gossip_graph::{Graph, Latency, NodeId};

/// Number of power-iteration steps that define the Fiedler iterate.  The
/// solve returns the vector exactly this many steps give, but runs at most
/// this many: it stops once an iterate repeats (see [`REPEAT_WINDOW`]).
const POWER_ITERATIONS: usize = 200;

/// How many of the latest iterates the power iteration keeps to recognise a
/// repeat.  A step is a pure function of the iterate, so an iterate equal,
/// bit for bit, to the one `p ≤ REPEAT_WINDOW` steps back starts a cycle of
/// period `p`, and the iterate after [`POWER_ITERATIONS`] steps is one of the
/// last `p` already computed.
const REPEAT_WINDOW: usize = 8;

/// Fewest `G_ℓ` arcs per worker for which a solve splits its steps: handing
/// a step to a helper thread and back costs a few microseconds, about what
/// gathering this many arcs takes.
const MIN_ARCS_PER_WORKER: usize = 1 << 14;

/// The operator `M = D^{-1/2} A D^{-1/2}` of `G_ℓ`, laid out for a gather:
/// node `i`'s neighbours in `G_ℓ` are `neighbours[offsets[i]..offsets[i + 1]]`
/// in edge-id order, so `(M x)[i]` adds its terms `x[j] / (√deg i · √deg j)`
/// in the order a scatter over the edge list would.
struct NormalizedAdjacency {
    /// `√deg` of every node in `G_ℓ`.
    sqrt_deg: Vec<f64>,
    /// The top eigenvector `D^{1/2}·1`, normalised (zero when `G_ℓ` has no
    /// edges).
    top: Vec<f64>,
    offsets: Vec<usize>,
    neighbours: Vec<NodeId>,
}

impl NormalizedAdjacency {
    fn new(g: &Graph, ell: Latency) -> Self {
        let n = g.node_count();
        let arcs = || g.edges().filter(|rec| rec.latency <= ell);
        // Degrees in G_ℓ, shifted by one slot, then their prefix sums.
        let mut offsets = vec![0usize; n + 1];
        for rec in arcs() {
            offsets[rec.u.index() + 1] += 1;
            offsets[rec.v.index() + 1] += 1;
        }
        let sqrt_deg: Vec<f64> = offsets[1..].iter().map(|&d| (d as f64).sqrt()).collect();
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets[..n].to_vec();
        let mut neighbours = vec![NodeId::default(); offsets[n]];
        for rec in arcs() {
            for (from, to) in [(rec.u, rec.v), (rec.v, rec.u)] {
                neighbours[cursor[from.index()]] = to;
                cursor[from.index()] += 1;
            }
        }
        let norm1: f64 = sqrt_deg.iter().map(|x| x * x).sum::<f64>().sqrt();
        let top = sqrt_deg
            .iter()
            .map(|&x| if norm1 > 0.0 { x / norm1 } else { 0.0 })
            .collect();
        NormalizedAdjacency {
            sqrt_deg,
            top,
            offsets,
            neighbours,
        }
    }

    /// `y = ((M + I) z)[nodes]`: each node of `nodes` sums its own terms over
    /// its `G_ℓ` neighbours in edge-id order, so the entries do not depend on
    /// which thread computes them.
    fn gather(&self, nodes: Range<usize>, z: &[f64], y: &mut [f64]) {
        let windows = self.offsets[nodes.start..=nodes.end].windows(2);
        let own = self.sqrt_deg[nodes.clone()].iter().zip(&z[nodes]);
        // Both endpoints of an arc have degree >= 1 in G_ℓ: no weight is zero.
        for ((yi, window), (&si, &zi)) in y.iter_mut().zip(windows).zip(own) {
            let mut sum = 0.0;
            for j in &self.neighbours[window[0]..window[1]] {
                sum += z[j.index()] / (si * self.sqrt_deg[j.index()]);
            }
            *yi = sum + zi;
        }
    }

    /// Workers a solve splits each step across: one per
    /// [`MIN_ARCS_PER_WORKER`] arcs of `G_ℓ`, at most the pool size.
    fn workers(&self) -> usize {
        let most = self.neighbours.len() / MIN_ARCS_PER_WORKER;
        if most < 2 {
            1
        } else {
            rayon::current_num_threads().min(most)
        }
    }

    /// The first node of each of `workers` contiguous node ranges, cut at
    /// equal `G_ℓ` arc counts, then the node count.
    fn range_bounds(&self, workers: usize) -> Vec<usize> {
        let (n, arcs) = (self.sqrt_deg.len(), self.neighbours.len());
        let cut = |k: usize| self.offsets.partition_point(|&o| o < k * arcs / workers);
        (0..workers).map(cut).chain([n]).collect()
    }

    /// One power-iteration step from `x`: deflate the top eigenvector into
    /// `z`, then `y = (M + I) z / ‖(M + I) z‖`.  The `+I` shift makes the
    /// dominant (in magnitude) eigenvalue the largest algebraic one, which
    /// keeps the iteration from locking onto the most negative eigenvalue of
    /// `M`.  The calling thread gathers the nodes before the first helper's
    /// range, each helper its own; the rest is serial.  Returns `false`,
    /// leaving `y` unnormalised, when the norm collapses below `1e-15`.
    fn step(&self, x: &[f64], z: &RwLock<Vec<f64>>, y: &mut [f64], helpers: &mut [Helper]) -> bool {
        let dot: f64 = x.iter().zip(&self.top).map(|(a, b)| a * b).sum();
        let mut deflated = z.write().expect(POISONED);
        for ((zi, xi), ti) in deflated.iter_mut().zip(x).zip(&self.top) {
            *zi = xi - dot * ti;
        }
        drop(deflated);
        for helper in helpers.iter_mut() {
            helper.start();
        }
        let own = 0..helpers.first().map_or(y.len(), |h| h.nodes.start);
        self.gather(own.clone(), &read(z), &mut y[own]);
        for helper in helpers.iter_mut() {
            helper.finish(y);
        }
        let norm: f64 = y.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm < 1e-15 {
            return false;
        }
        for v in y.iter_mut() {
            *v /= norm;
        }
        true
    }

    /// The iterate after [`POWER_ITERATIONS`] steps from a fixed start, and
    /// the number of steps run to find it.  When the norm collapses the
    /// iterate is the last deflated vector.
    fn power_iterate(&self) -> (Vec<f64>, usize) {
        self.power_iterate_on(self.workers())
    }

    /// [`power_iterate`](Self::power_iterate) with each step split across
    /// `workers` threads: the calling thread and `workers - 1` helpers that
    /// live for the whole solve.  Every entry of every iterate is computed
    /// the same way whatever the split, so the result is the same bits.
    fn power_iterate_on(&self, workers: usize) -> (Vec<f64>, usize) {
        let n = self.sqrt_deg.len();
        let bounds = self.range_bounds(workers.max(1));
        let z = RwLock::new(vec![0f64; n]);
        std::thread::scope(|scope| {
            let mut helpers: Vec<Helper> = bounds[1..]
                .windows(2)
                .map(|w| Helper::spawn(scope, self, &z, w[0]..w[1]))
                .collect();
            // Deterministic pseudo-random start vector (no RNG needed: a fixed
            // quasi-random sequence keeps the whole analysis reproducible).
            let start: Vec<f64> = (0..n)
                .map(|i| (i as f64 * 0.754_877_666 + 0.1).sin())
                .collect();
            // Iterate `t` lives in slot `t % SLOTS`: the latest one and the
            // `REPEAT_WINDOW` before it.
            const SLOTS: usize = REPEAT_WINDOW + 1;
            let mut ring = vec![Vec::new(); SLOTS];
            ring[0] = start;
            for t in 1..=POWER_ITERATIONS {
                let mut y = std::mem::take(&mut ring[t % SLOTS]);
                y.resize(n, 0.0);
                if !self.step(&ring[(t - 1) % SLOTS], &z, &mut y, &mut helpers) {
                    return (std::mem::take(&mut *z.write().expect(POISONED)), t);
                }
                ring[t % SLOTS] = y;
                let y = &ring[t % SLOTS];
                let same =
                    |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(a, b)| a.to_bits() == b.to_bits());
                if let Some(p) =
                    (1..=REPEAT_WINDOW.min(t)).find(|&p| same(&ring[(t - p) % SLOTS], y))
                {
                    // Iterates cycle with period p from t - p on.
                    let last = t - p + (POWER_ITERATIONS - t) % p;
                    return (std::mem::take(&mut ring[last % SLOTS]), t);
                }
            }
            (
                std::mem::take(&mut ring[POWER_ITERATIONS % SLOTS]),
                POWER_ITERATIONS,
            )
        })
    }
}

/// Why the deflated vector's lock is never poisoned.
const POISONED: &str =
    "only the solving thread writes the deflated vector, and its panic ends the solve";

/// The deflated vector, for reading.
fn read(z: &RwLock<Vec<f64>>) -> RwLockReadGuard<'_, Vec<f64>> {
    z.read().expect(POISONED)
}

/// A helper thread of a split solve.  Each step it receives the buffer for
/// its node range, gathers those entries from the deflated vector, and sends
/// the buffer back, so no step allocates.
struct Helper {
    nodes: Range<usize>,
    buffer: Vec<f64>,
    to_helper: SyncSender<Vec<f64>>,
    from_helper: Receiver<Vec<f64>>,
}

impl Helper {
    fn spawn<'scope, 'env>(
        scope: &'scope Scope<'scope, 'env>,
        op: &'env NormalizedAdjacency,
        z: &'env RwLock<Vec<f64>>,
        nodes: Range<usize>,
    ) -> Self {
        let (to_helper, inbox) = sync_channel::<Vec<f64>>(1);
        let (outbox, from_helper) = sync_channel(1);
        let range = nodes.clone();
        // The loop ends when the solve drops `to_helper`.
        scope.spawn(move || {
            for mut y in inbox {
                op.gather(range.clone(), &read(z), &mut y);
                if outbox.send(y).is_err() {
                    break;
                }
            }
        });
        Helper {
            buffer: vec![0.0; nodes.len()],
            nodes,
            to_helper,
            from_helper,
        }
    }

    /// Starts the helper on the deflated vector the step just wrote.
    fn start(&mut self) {
        // Sending and receiving fail only once the helper has panicked, and
        // the scope raises that panic again when the solve ends.
        let _ = self.to_helper.send(std::mem::take(&mut self.buffer));
    }

    /// Waits for the helper and copies its entries into `y`.
    fn finish(&mut self, y: &mut [f64]) {
        if let Ok(buffer) = self.from_helper.recv() {
            y[self.nodes.clone()].copy_from_slice(&buffer);
            self.buffer = buffer;
        }
    }
}

/// Computes an approximate Fiedler ordering of the nodes of `g`: nodes sorted
/// by their coordinate in the (approximate) second eigenvector of the
/// normalized adjacency operator `D^{-1/2} A D^{-1/2}`.
///
/// Edges with latency above `ell` are ignored when building the operator, so
/// the ordering reflects the connectivity structure of the subgraph `G_ℓ`
/// whose conductance we are trying to estimate.  Isolated nodes (in `G_ℓ`)
/// are placed at the end of the ordering.
pub fn fiedler_ordering(g: &Graph, ell: Latency) -> Vec<NodeId> {
    let n = g.node_count();
    let op = NormalizedAdjacency::new(g, ell);
    let (x, _) = op.power_iterate();

    // Sweep coordinate: the Fiedler value is D^{-1/2} x.
    let key: Vec<f64> = (0..n)
        .map(|i| {
            if op.sqrt_deg[i] > 0.0 {
                x[i] / op.sqrt_deg[i]
            } else {
                f64::INFINITY
            }
        })
        .collect();
    let mut order: Vec<NodeId> = (0..n).map(NodeId::new).collect();
    order.sort_by(|a, b| {
        key[a.index()]
            .partial_cmp(&key[b.index()])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.index().cmp(&b.index()))
    });
    order
}

/// The latency thresholds whose Fiedler orderings the sweep heuristic uses,
/// given the distinct latencies of the graph (ascending): all of them when
/// there are at most 16, otherwise every `(len/16 + 1)`-th one from the
/// smallest (at most 16 of them) plus the largest when the stride skips it —
/// so at most 17 thresholds in total.
pub(crate) fn sweep_thresholds(thresholds: Vec<Latency>) -> Vec<Latency> {
    if thresholds.len() <= 16 {
        return thresholds;
    }
    // Keep a spread of thresholds (always including the extremes).
    let step = thresholds.len() / 16 + 1;
    let mut kept: Vec<Latency> = thresholds.iter().copied().step_by(step).collect();
    if let Some(&last) = thresholds.last() {
        if kept.last() != Some(&last) {
            kept.push(last);
        }
    }
    kept
}

/// Generates the candidate cuts evaluated by the sweep heuristic:
///
/// * all prefix cuts of the Fiedler ordering of `G_ℓ` for each latency
///   threshold `ℓ`: every distinct latency of the graph when there are at
///   most 16, otherwise a stride of at most 16 of them plus the largest —
///   at most 17 thresholds (47 distinct latencies keep 16 + 1),
/// * every singleton cut `({v}, rest)`,
/// * the balanced "first half / second half" node-id cut (useful for the
///   planted-cut families where node ids encode the partition).
///
/// The analysis entry points visit exactly this set of cuts without
/// materialising it; this function is the per-cut reference.
pub fn candidate_cuts(g: &Graph) -> Vec<Cut> {
    let n = g.node_count();
    let mut cuts = Vec::new();

    let thresholds = sweep_thresholds(g.distinct_latencies());
    for ell in thresholds {
        let order = fiedler_ordering(g, ell);
        let mut membership = vec![false; n];
        for prefix in 0..n.saturating_sub(1) {
            membership[order[prefix].index()] = true;
            cuts.push(Cut::from_membership(g, membership.clone()));
        }
    }

    for v in g.nodes() {
        cuts.push(Cut::from_side(g, [v]));
    }

    if n >= 2 {
        cuts.push(Cut::from_side(g, (0..n / 2).map(NodeId::new)));
    }
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, Method};
    use gossip_graph::generators;
    use gossip_graph::latency::LatencyScheme;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// The power iteration as a scatter over the edge list with stored
    /// weights, running all [`POWER_ITERATIONS`] steps: the reference the
    /// gather and its repeat stop must match bit for bit.
    fn scatter_reference(g: &Graph, ell: Latency) -> Vec<f64> {
        let n = g.node_count();
        let mut deg = vec![0f64; n];
        for rec in g.edges() {
            if rec.latency <= ell {
                deg[rec.u.index()] += 1.0;
                deg[rec.v.index()] += 1.0;
            }
        }
        let sqrt_deg: Vec<f64> = deg.iter().map(|&d| d.sqrt()).collect();
        let norm1: f64 = sqrt_deg.iter().map(|x| x * x).sum::<f64>().sqrt();
        let v1: Vec<f64> = sqrt_deg
            .iter()
            .map(|&x| if norm1 > 0.0 { x / norm1 } else { 0.0 })
            .collect();
        let arcs: Vec<(usize, usize, f64)> = g
            .edges()
            .filter(|rec| rec.latency <= ell)
            .map(|rec| {
                let (ui, vi) = (rec.u.index(), rec.v.index());
                (ui, vi, sqrt_deg[ui] * sqrt_deg[vi])
            })
            .collect();
        let mut x: Vec<f64> = (0..n)
            .map(|i| (i as f64 * 0.754_877_666 + 0.1).sin())
            .collect();
        let mut y = vec![0f64; n];
        for _ in 0..POWER_ITERATIONS {
            let dot: f64 = x.iter().zip(&v1).map(|(a, b)| a * b).sum();
            for i in 0..n {
                x[i] -= dot * v1[i];
            }
            y.fill(0.0);
            for &(ui, vi, weight) in &arcs {
                y[ui] += x[vi] / weight;
                y[vi] += x[ui] / weight;
            }
            for i in 0..n {
                y[i] += x[i];
            }
            let norm: f64 = y.iter().map(|v| v * v).sum::<f64>().sqrt();
            if norm < 1e-15 {
                break;
            }
            for i in 0..n {
                x[i] = y[i] / norm;
            }
        }
        x
    }

    /// Asserts that the gather returns the reference `x` bit for bit at every
    /// distinct latency of `g`.
    fn assert_matches_reference(name: &str, g: &Graph) {
        for ell in g.distinct_latencies() {
            let (x, steps) = NormalizedAdjacency::new(g, ell).power_iterate();
            let reference = scatter_reference(g, ell);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&x),
                bits(&reference),
                "{name} at ell = {ell} ({steps} steps)"
            );
        }
    }

    /// Asserts that 2, 3 and 4 workers return the iterate and step count of
    /// one worker, bit for bit, at every distinct latency of `g`.
    fn assert_worker_count_invariant(name: &str, g: &Graph) {
        let bits = |(x, steps): (Vec<f64>, usize)| {
            (x.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), steps)
        };
        for ell in g.distinct_latencies() {
            let op = NormalizedAdjacency::new(g, ell);
            let serial = bits(op.power_iterate_on(1));
            for workers in 2..=4 {
                assert_eq!(
                    bits(op.power_iterate_on(workers)),
                    serial,
                    "{name} at ell = {ell} on {workers} workers"
                );
            }
        }
    }

    /// Steps the power iteration runs on `g` at `ell`.
    fn steps(g: &Graph, ell: Latency) -> usize {
        NormalizedAdjacency::new(g, ell).power_iterate().1
    }

    #[test]
    fn gather_matches_the_scatter_reference_bit_for_bit() {
        for (name, g) in ordering_cases() {
            assert_matches_reference(name, &g);
        }
    }

    #[test]
    fn worker_count_does_not_change_the_iterate() {
        for (name, g) in ordering_cases() {
            assert_worker_count_invariant(name, &g);
        }
    }

    #[test]
    fn repeat_stop_ends_cycling_solves_early() {
        // G_1 is eight disjoint 16-cliques; the dumbbell's G_16 is all of it.
        let cliques = generators::ring_of_cliques(8, 16, 16).unwrap();
        assert_eq!(steps(&cliques, 1), 107);
        assert_eq!(steps(&perfbench_dumbbell(1), 16), 76);
        let er = bimodal_er_1024();
        for ell in [1, 16] {
            assert_eq!(steps(&er, ell), POWER_ITERATIONS, "ER 1024 at ell = {ell}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn gather_matches_the_scatter_reference_on_generated_graphs(
            n in 2usize..40,
            draws in 0usize..160,
            max_latency in 1u64..5,
            seed in 0u64..1_000_000,
        ) {
            // Edges in random order, so neighbour order and edge-id order
            // differ, and nodes no draw touches are isolated.
            use rand::Rng;
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut b = gossip_graph::GraphBuilder::new(n);
            let mut seen = std::collections::BTreeSet::new();
            for _ in 0..draws {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                let latency = rng.gen_range(1..max_latency + 1);
                if u != v && seen.insert((u.min(v), u.max(v))) {
                    b.add_edge(u, v, latency).unwrap();
                }
            }
            let g = b.build().unwrap();
            assert_matches_reference("generated", &g);
            assert_worker_count_invariant("generated", &g);
        }
    }

    /// The bimodal re-weighting of perfbench's graphs: a quarter of the edges
    /// get latency 16.
    const BIMODAL: LatencyScheme = LatencyScheme::BimodalFraction {
        slow: 16,
        slow_fraction: 0.25,
    };

    /// perfbench's seed derivation (splitmix64 of `seed ^ splitmix64(salt)`).
    fn derive_seed(seed: u64, salt: u64) -> u64 {
        let splitmix64 = |mut z: u64| {
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        splitmix64(seed ^ splitmix64(salt))
    }

    /// `spanner-route`'s dumbbell in perfbench for `seed`: two 256-cliques
    /// joined by a latency-16 bridge, then re-weighted bimodally.
    fn perfbench_dumbbell(seed: u64) -> Graph {
        let mut rng = SmallRng::seed_from_u64(derive_seed(seed, 0x5e7));
        let bell = generators::dumbbell(256, 16).unwrap();
        BIMODAL.apply(&bell, &mut rng).unwrap()
    }

    /// A bimodal Erdős–Rényi graph on 1024 nodes (expected degree ~16).
    fn bimodal_er_1024() -> Graph {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = generators::erdos_renyi(1024, 0.016, 1, &mut rng).unwrap();
        BIMODAL.apply(&g, &mut rng).unwrap()
    }

    /// The path on 48 nodes whose edge `u` has latency `u + 1`: 47 distinct
    /// latencies, of which the sweep keeps 17.
    fn latency_path_47() -> Graph {
        let mut b = gossip_graph::GraphBuilder::new(48);
        for u in 0..47 {
            b.add_edge(u, u + 1, u as Latency + 1).unwrap();
        }
        b.build().unwrap()
    }

    /// The graphs whose Fiedler orderings are pinned, covering dense and
    /// sparse `G_ℓ`, several components, isolated nodes, edges inserted out of
    /// neighbour order (random regular) and a two-node graph whose iteration
    /// collapses to zero.
    fn ordering_cases() -> Vec<(&'static str, Graph)> {
        // Nodes 3, 4 and 5 are isolated in G_1, nodes 3 and 5 in G_2.
        let mut b = gossip_graph::GraphBuilder::new(7);
        for (u, v, l) in [
            (0, 1, 1),
            (1, 2, 1),
            (2, 3, 4),
            (3, 4, 4),
            (4, 0, 2),
            (5, 0, 4),
        ] {
            b.add_edge(u, v, l).unwrap();
        }
        b.add_edge(6, 1, 1).unwrap();
        let isolated = b.build().unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        let regular = generators::random_regular(96, 5, 1, &mut rng).unwrap();
        let regular = BIMODAL.apply(&regular, &mut rng).unwrap();
        vec![
            ("perfbench dumbbell seed 1", perfbench_dumbbell(1)),
            ("perfbench dumbbell seed 2", perfbench_dumbbell(2)),
            (
                "perfbench dumbbell seed 777001",
                perfbench_dumbbell(777_001),
            ),
            ("bimodal ER 1024", bimodal_er_1024()),
            ("grid 48x48", generators::grid(48, 48, 1).unwrap()),
            (
                "ring of cliques 8x16",
                generators::ring_of_cliques(8, 16, 16).unwrap(),
            ),
            ("star 20", generators::star(20, 16).unwrap()),
            ("latency path 47", latency_path_47()),
            ("isolated in G_l", isolated),
            ("bimodal random regular 96", regular),
            ("path 2", generators::path(2, 1).unwrap()),
        ]
    }

    /// FNV-1a digest of the Fiedler ordering at every threshold the sweep
    /// keeps, each threshold mixed in before its ordering: equal digests mean
    /// the same orderings.
    fn ordering_digest(g: &Graph) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |word: u64| {
            for byte in word.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for ell in sweep_thresholds(g.distinct_latencies()) {
            mix(ell);
            for v in fiedler_ordering(g, ell) {
                mix(v.index() as u64);
            }
        }
        hash
    }

    #[test]
    fn perfbench_dumbbell_is_the_benchmark_graph() {
        // perfbench's `conductance.ell_over_phi` counter on seed 1.
        let report = analyze(&perfbench_dumbbell(1), Method::SweepCut).unwrap();
        assert_eq!(report.ell_star as f64 / report.phi_star, 65281.0);
    }

    #[test]
    fn fiedler_orderings_match_the_pinned_digests() {
        const GOLDEN: [(&str, u64); 11] = [
            ("perfbench dumbbell seed 1", 0xc446_3d73_90e4_b258),
            ("perfbench dumbbell seed 2", 0x37fe_0c1d_ff28_bd2c),
            ("perfbench dumbbell seed 777001", 0x9d33_2bcf_2d57_2e44),
            ("bimodal ER 1024", 0xc794_9b04_837e_6548),
            ("grid 48x48", 0x0f8f_9c37_5df7_2c5c),
            ("ring of cliques 8x16", 0xccbc_1ca9_d8c1_1134),
            ("star 20", 0x0d12_1e1d_7337_8295),
            ("latency path 47", 0x655c_45fc_d08d_66ca),
            ("isolated in G_l", 0xa202_d059_2578_7d65),
            ("bimodal random regular 96", 0xaa4d_57b2_0a16_2e54),
            ("path 2", 0x7a25_5da4_4dc1_82c5),
        ];
        let digests: Vec<(&str, u64)> = ordering_cases()
            .iter()
            .map(|(name, g)| (*name, ordering_digest(g)))
            .collect();
        assert_eq!(digests, GOLDEN);
    }

    #[test]
    fn fiedler_ordering_separates_dumbbell_sides() {
        let g = generators::dumbbell(6, 1).unwrap();
        let order = fiedler_ordering(&g, 1);
        // The first 6 nodes of the ordering should be exactly one clique.
        let first_half: Vec<usize> = order[..6].iter().map(|v| v.index()).collect();
        let all_left = first_half.iter().all(|&v| v < 6);
        let all_right = first_half.iter().all(|&v| v >= 6);
        assert!(
            all_left || all_right,
            "fiedler ordering mixed the two cliques: {first_half:?}"
        );
    }

    #[test]
    fn sweep_matches_exact_on_dumbbell() {
        let g = generators::dumbbell(5, 4).unwrap();
        let exact = analyze(&g, Method::Exact).unwrap().phi_classical;
        let sweep = analyze(&g, Method::SweepCut).unwrap().phi_classical;
        assert!((exact - sweep).abs() < 1e-9, "exact={exact} sweep={sweep}");
    }

    #[test]
    fn sweep_matches_exact_on_cycle_and_clique() {
        for g in [
            generators::cycle(10, 1).unwrap(),
            generators::clique(8, 1).unwrap(),
        ] {
            let exact = analyze(&g, Method::Exact).unwrap().phi_classical;
            let sweep = analyze(&g, Method::SweepCut).unwrap().phi_classical;
            // Sweep is an upper bound; on these symmetric families it should be exact.
            assert!(sweep >= exact - 1e-9);
            assert!(
                sweep <= exact * 1.5 + 1e-9,
                "sweep estimate {sweep} too far above exact {exact}"
            );
        }
    }

    #[test]
    fn candidate_cuts_are_proper() {
        let g = generators::ring_of_cliques(4, 4, 8).unwrap();
        let cuts = candidate_cuts(&g);
        assert!(!cuts.is_empty());
        assert!(cuts.iter().all(|c| c.is_proper()));
    }

    #[test]
    fn threshold_cap_keeps_at_most_sixteen_strided_plus_the_last() {
        let kept = |len: u64| sweep_thresholds((1..=len).collect());
        assert_eq!(kept(16), (1..=16).collect::<Vec<_>>());
        // 17 distinct: stride 2 reaches the last one itself.
        assert_eq!(kept(17).len(), 9);
        // 47 distinct: stride 3 gives 16 strided thresholds, then the last.
        assert_eq!(kept(47).len(), 17);
        assert_eq!(kept(47)[15..], [46, 47]);
        assert_eq!(kept(48).len(), 13);
        for len in 17..=400 {
            let k = kept(len);
            assert!(k.len() <= 17, "{len} distinct latencies kept {}", k.len());
            assert_eq!((k[0], k[k.len() - 1]), (1, len));
        }
    }

    #[test]
    fn candidate_cuts_sweep_seventeen_orderings_for_47_latencies() {
        let g = latency_path_47();
        assert_eq!(g.distinct_latencies().len(), 47);
        // 17 orderings × 47 prefix cuts, 48 singletons and the half cut.
        assert_eq!(candidate_cuts(&g).len(), 17 * 47 + 48 + 1);
    }

    #[test]
    fn sweep_handles_star_with_slow_spokes() {
        let g = generators::star(20, 16).unwrap();
        let value = analyze(&g, Method::SweepCut).unwrap().phi_classical;
        // Every proper cut of a star has at least one cut edge and the smaller
        // side has volume >= 1, so the minimum is 1/side-volume; the best cut
        // puts half the leaves on one side: value = ~ (n/2)/(n/2) but volumes:
        // leaves have degree 1 so min volume = number of leaves on small side
        // and cut edges = same number -> 1.0; singleton leaf cut also gives 1.
        assert!((value - 1.0).abs() < 1e-9);
    }
}

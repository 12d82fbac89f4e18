//! Distance and degree metrics on latency-weighted graphs.
//!
//! The paper's bounds are stated in terms of the *weighted diameter* `D`
//! (shortest-path distances with latencies as weights) and the maximum degree
//! `Δ`.  This module computes `D`, exactly or as a bracket, on single-source
//! Dijkstra sweeps.
//!
//! Every sweep runs one kernel: Dijkstra over a monotone radix queue.  Callers
//! that sweep many sources reuse one [`Sweeps`] workspace, so the distance
//! buffer and the queue's buckets are allocated once per diameter, not once
//! per sweep.
//!
//! The exact diameter prunes its sources by eccentricity bounds
//! (BoundingDiameters).  Once 16 sweeps have not closed the bounds, a graph
//! of at least 2¹² arcs sweeps in batches of up to
//! `rayon::current_num_threads()` distinct sources: the calling thread
//! sweeps the first and helper threads, each with its own workspace, the
//! rest, and the calling thread folds the distance vectors into the bounds
//! in pick order.  Every bound stays valid and a node leaves the candidates
//! only when its upper bound is at most an eccentricity actually seen, so
//! `D` is the same at any worker count; only the number of sweeps may
//! differ.  Smaller graphs, and graphs whose bounds close within 16 sweeps
//! (a grid, a dumbbell), never start a thread.

use std::cmp::Reverse;
use std::sync::mpsc::{sync_channel, Receiver, RecvError, SyncSender, TryRecvError};
use std::thread::Scope;

use crate::{Graph, Latency, NodeId};

/// Distance value used by the shortest-path routines.
///
/// `u64::MAX` is reserved to mean "unreachable"; see [`UNREACHABLE`].  A
/// reachable distance is therefore at most `UNREACHABLE − 1`: longer paths
/// are clamped there.
pub type Distance = u64;

/// Sentinel distance for unreachable nodes.
pub const UNREACHABLE: Distance = u64::MAX;

/// A monotone radix queue of `(key, node)` entries: a priority queue for
/// keys that never fall below the last key popped.
///
/// Bucket `b ≥ 1` holds the keys whose highest bit differing from `last`
/// (the last minimum popped) is bit `b − 1`; bucket 0 holds keys equal to
/// `last`.  A pop from an empty bucket 0 takes the lowest non-empty bucket,
/// makes its minimum the new `last`, and re-buckets its entries, each into a
/// strictly lower bucket.  Dijkstra's keys are monotone — latencies are
/// positive and the clamp at `UNREACHABLE − 1` keeps `min(d + ℓ, U − 1) ≥ d`
/// — so one queue serves every latency up to `u64::MAX`, and an entry moves
/// at most 64 times.
struct RadixQueue {
    buckets: [Vec<(Distance, NodeId)>; 65],
    last: Distance,
}

impl Default for RadixQueue {
    fn default() -> Self {
        RadixQueue {
            buckets: std::array::from_fn(|_| Vec::new()),
            last: 0,
        }
    }
}

impl RadixQueue {
    /// The bucket of `key` relative to `last`.
    fn bucket_of(&self, key: Distance) -> usize {
        (Distance::BITS - (key ^ self.last).leading_zeros()) as usize
    }

    /// Empties the queue and resets its floor to 0, keeping the buckets'
    /// capacity.
    fn reset(&mut self) {
        self.buckets.iter_mut().for_each(Vec::clear);
        self.last = 0;
    }

    /// Queues `node` under `key`, which must be at least the last key popped.
    fn enqueue(&mut self, key: Distance, node: NodeId) {
        debug_assert!(key >= self.last, "radix queue keys must be monotone");
        let b = self.bucket_of(key);
        self.buckets[b].push((key, node));
    }

    /// Removes an entry with the smallest key, or returns `None` if the
    /// queue is empty.
    fn dequeue_min(&mut self) -> Option<(Distance, NodeId)> {
        if self.buckets[0].is_empty() {
            let b = self.buckets.iter().position(|bucket| !bucket.is_empty())?;
            let mut moved = std::mem::take(&mut self.buckets[b]);
            let min = moved.iter().map(|&(key, _)| key).min()?;
            debug_assert!(min >= self.last, "radix queue popped below its floor");
            self.last = min;
            for &(key, node) in &moved {
                let to = self.bucket_of(key);
                self.buckets[to].push((key, node));
            }
            moved.clear();
            self.buckets[b] = moved;
        }
        let entry = self.buckets[0].pop();
        debug_assert!(
            entry.is_none_or(|(key, _)| key == self.last),
            "radix queue bucket 0 holds a key other than the floor"
        );
        entry
    }
}

/// Reusable scratch for repeated single-source sweeps: a distance buffer and
/// a [`RadixQueue`], both keeping their capacity from one sweep to the next.
#[derive(Default)]
pub(crate) struct Sweeps {
    dist: Vec<Distance>,
    queue: RadixQueue,
}

impl Sweeps {
    /// The one kernel: weighted distances from `source` (see [`dijkstra`]),
    /// saturating and clamping every distance at `UNREACHABLE − 1`, borrowed
    /// from the workspace until its next sweep.
    pub(crate) fn dijkstra(&mut self, g: &Graph, source: NodeId) -> &[Distance] {
        let n = g.node_count();
        assert!(source.index() < n, "source node out of range");
        let dist = &mut self.dist;
        dist.clear();
        dist.resize(n, UNREACHABLE);
        dist[source.index()] = 0;
        let queue = &mut self.queue;
        queue.reset();
        queue.enqueue(0, source);
        while let Some((d, v)) = queue.dequeue_min() {
            if d > dist[v.index()] {
                continue;
            }
            for &(w, e) in g.neighbor_slice(v) {
                let nd = d.saturating_add(g.latency(e)).min(UNREACHABLE - 1);
                if nd < dist[w.index()] {
                    dist[w.index()] = nd;
                    queue.enqueue(nd, w);
                }
            }
        }
        dist
    }
}

/// Single-source shortest-path distances with latencies as weights (Dijkstra).
///
/// Returns a vector indexed by node id; unreachable nodes get [`UNREACHABLE`].
/// A reachable node whose shortest path sums to `UNREACHABLE − 1` or more
/// gets `UNREACHABLE − 1`, so reachability never collides with the
/// sentinel.  The clamped distances are still a metric (a truncated metric
/// is one), so diameters and eccentricities built on them stay exact up to
/// that cap.
///
/// # Panics
///
/// Panics if `source` is not a node of `g`.
pub fn dijkstra(g: &Graph, source: NodeId) -> Vec<Distance> {
    let mut sweeps = Sweeps::default();
    sweeps.dijkstra(g, source);
    sweeps.dist
}

/// Exact weighted diameter `D`: the maximum over all pairs of the weighted
/// shortest-path distance.
///
/// Runs Dijkstra only from the nodes whose eccentricity bounds cannot rule
/// them out (see [`bounding_diameters`]): a handful of sweeps on grids and
/// dumbbells, about a fifth of the nodes on a bimodal Erdős–Rényi graph.
/// Each sweep costs `O(m + n log C)` on the radix queue, where `C ≤ 2⁶⁴` is
/// the range of the keys.  The worst case is still one sweep per node —
/// `O(n · (m + n log C))` — on vertex-transitive graphs such as a cycle,
/// where every node has the same eccentricity and no bound prunes another
/// node.
///
/// After 16 sweeps, a graph of at least 2¹² arcs runs the remaining sweeps
/// in batches across up to `rayon::current_num_threads()` workers.  The
/// result is the same `D` at every worker count (see [`batched_diameters`]);
/// only the sweep count may differ, since a batch picks its sources before
/// any of its sweeps has tightened the bounds.  On a
/// bimodal Erdős–Rényi graph of 1024 nodes (about 200 sweeps) 2 workers
/// take the diameter from about 7.1 to 4.6 ms (2-vCPU VM).
///
/// Returns `None` if the graph is disconnected.
pub fn weighted_diameter(g: &Graph) -> Option<Distance> {
    bounding_diameters(g).map(|(d, _)| d)
}

/// Largest graph (in nodes) for which [`estimate_diameter`] falls back to
/// the exact diameter ([`weighted_diameter`]).
///
/// Below this size the exact diameter is cheap — the bound-pruned sweeps
/// rarely visit more than a fraction of the nodes, and even the
/// vertex-transitive worst case is `n ≤ 1024` sweeps — and every experiment
/// table that prints `D` stays byte-identical to the historical exact output.
/// Above it, the estimator runs a constant number of sweeps instead.  The
/// cheaper exact routine does not raise this threshold: doing so would change
/// [`estimate_diameter`]'s upper bound, and so the "known D" every heavy
/// protocol consumes, on graphs above 1024 nodes (a 48×48 grid, say), and
/// with it their run results.
pub const EXACT_DIAMETER_THRESHOLD: usize = 1024;

/// Lower and upper bounds on the weighted diameter, as produced by
/// [`estimate_diameter`].
///
/// The paper's phase algorithms only need the diameter `D` up to constant
/// factors (the guess-and-double drivers tolerate a factor-2 overshoot by
/// construction), so the hot path consumes `upper` — guaranteed `≥ D` —
/// while `lower` is kept for reporting and for sanity checks
/// (`lower ≤ D ≤ upper` always holds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiameterEstimate {
    /// Lower bound: the largest eccentricity seen from any sweep root
    /// (every eccentricity is `≤ D`).
    pub lower: Distance,
    /// Upper bound: the smallest `2·ecc(root)` over the sweep roots (the
    /// triangle inequality gives `D ≤ 2·ecc(v)` for every `v`).
    pub upper: Distance,
}

impl DiameterEstimate {
    /// An exact estimate (`lower == upper == d`).
    pub fn exact(d: Distance) -> Self {
        DiameterEstimate { lower: d, upper: d }
    }

    /// `true` when the bounds have closed (the estimate *is* the diameter).
    pub fn is_exact(&self) -> bool {
        self.lower == self.upper
    }
}

/// Bounds the **weighted** diameter with a few Dijkstra sweeps instead of the
/// exact computation ([`weighted_diameter`], up to `n` sweeps).
///
/// Graphs of at most [`EXACT_DIAMETER_THRESHOLD`] nodes are computed exactly
/// (the estimate [`is_exact`](DiameterEstimate::is_exact)).  Larger graphs
/// get a constant number of sweeps: from node 0, from the farthest node
/// found (the classic double sweep, whose eccentricity is a strong lower
/// bound), from the farthest node of *that* sweep, and from the
/// maximum-degree node.  Each root contributes `ecc(root)` to the lower
/// bound and `2·ecc(root)` to the upper bound.
///
/// Returns `None` if the graph is disconnected; the empty graph is
/// `Some(exact(0))`.
pub fn estimate_diameter(g: &Graph) -> Option<DiameterEstimate> {
    estimate_diameter_with_threshold(g, EXACT_DIAMETER_THRESHOLD)
}

/// [`estimate_diameter`] with an explicit exact-fallback threshold
/// (`threshold = 0` forces the sweep estimator, `threshold = usize::MAX`
/// forces the exact path).
pub fn estimate_diameter_with_threshold(g: &Graph, threshold: usize) -> Option<DiameterEstimate> {
    let n = g.node_count();
    if n == 0 {
        return Some(DiameterEstimate::exact(0));
    }
    if n <= threshold {
        return weighted_diameter(g).map(DiameterEstimate::exact);
    }
    // Sweep 1 from node 0; it both bounds the diameter and picks the next
    // root (the farthest node, as in the classic double sweep).
    let mut sweeps = Sweeps::default();
    let (far, ecc0) = sweep_extent(sweeps.dijkstra(g, NodeId::new(0)))?;
    let mut lower = ecc0;
    let mut upper = ecc0.saturating_mul(2);
    let mut next_root = far;
    // Two more peripheral sweeps (farthest-of-farthest), plus the
    // maximum-degree node — a hub's eccentricity is often close to `D/2`,
    // which tightens the upper bound on star-like topologies.
    let hub = (0..n)
        .map(NodeId::new)
        .max_by_key(|&v| g.degree(v))
        .unwrap_or(NodeId::new(0));
    let mut visited = vec![NodeId::new(0)];
    for root in [Some(next_root), None, Some(hub)] {
        let root = root.unwrap_or(next_root);
        if visited.contains(&root) {
            continue;
        }
        visited.push(root);
        let (far, ecc) = sweep_extent(sweeps.dijkstra(g, root))?;
        lower = lower.max(ecc);
        upper = upper.min(ecc.saturating_mul(2));
        next_root = far;
    }
    // `min 2·ecc ≥ D ≥ max ecc` always, so the bounds are already ordered.
    Some(DiameterEstimate { lower, upper })
}

/// Farthest node and eccentricity of a sweep's distance vector, or `None`
/// if some node is unreachable.
fn sweep_extent(dist: &[Distance]) -> Option<(NodeId, Distance)> {
    let mut far = NodeId::new(0);
    let mut ecc = 0;
    for (i, &d) in dist.iter().enumerate() {
        if d == UNREACHABLE {
            return None;
        }
        if d > ecc {
            ecc = d;
            far = NodeId::new(i);
        }
    }
    Some((far, ecc))
}

/// Sweeps a diameter runs one at a time before it may split into batches.
/// Most graphs close their bounds by then — a grid in about 10 sweeps, a
/// dumbbell in 3 — so they never spawn a helper thread.
const SERIAL_SWEEPS: usize = 16;

/// Fewest arcs (twice the edges) for which a diameter splits its sweeps:
/// handing a sweep to a helper thread and back costs a few microseconds,
/// about what a sweep over this many arcs takes.
const MIN_SPLIT_ARCS: usize = 1 << 12;

/// The exact weighted diameter by eccentricity-bound pruning — the
/// BoundingDiameters scheme of Takes & Kosters (CIKM 2011) — and the number
/// of sweeps it ran.
///
/// A sweep from `v` with eccentricity `e` bounds every node `w` at distance
/// `d` by `max(d, e − d) ≤ ecc(w) ≤ e + d` (triangle inequality).  A node
/// whose upper bound is at most the largest eccentricity seen cannot raise
/// the diameter and leaves the candidate set; once the set is empty, every
/// eccentricity is at most the best one seen, which is therefore `D`.
/// Sources alternate between the largest upper bound (a likely peripheral
/// node, which raises the best eccentricity) and the smallest lower bound (a
/// likely central node, whose small eccentricity tightens every upper
/// bound), ties going to the higher degree and then the lower node id.
///
/// After [`SERIAL_SWEEPS`] sweeps, a graph of at least [`MIN_SPLIT_ARCS`]
/// arcs sweeps in batches of up to `rayon::current_num_threads()` sources
/// (see [`batched_diameters`]).
///
/// Returns `None` if the first sweep leaves a node unreachable.
fn bounding_diameters(g: &Graph) -> Option<(Distance, usize)> {
    batched_diameters(g, SERIAL_SWEEPS, || {
        if 2 * g.edge_count() >= MIN_SPLIT_ARCS {
            rayon::current_num_threads()
        } else {
            1
        }
    })
}

/// [`bounding_diameters`] in batches of up to `workers` sweeps from the
/// first sweep on, whatever the graph's size.
#[cfg(test)]
fn bounding_diameters_on(g: &Graph, workers: usize) -> Option<(Distance, usize)> {
    batched_diameters(g, 0, || workers)
}

/// BoundingDiameters with one sweep per step for the first `serial` sweeps,
/// then up to `workers()` per step, asked once, when the serial sweeps have
/// not closed the bounds.  A step picks distinct candidates, the
/// rules alternating pick by pick as they would sweep by sweep; the calling
/// thread sweeps the first pick and helper threads — spawned when a step
/// first needs them, each with its own [`Sweeps`] workspace — sweep the
/// rest.  The bounds and the running maximum then take each sweep in pick
/// order.
///
/// Every bound stays valid whatever the batch, a candidate leaves only when
/// its upper bound is at most an eccentricity actually seen, and each pick's
/// own sweep removes it, so the loop ends with the same exact `D` at any
/// worker count; only the number of sweeps may differ, and it is fixed for a
/// given worker count.
fn batched_diameters(
    g: &Graph,
    serial: usize,
    mut workers: impl FnMut() -> usize,
) -> Option<(Distance, usize)> {
    // Each candidate with its eccentricity bounds `(node, lower, upper)`.
    let mut candidates: Vec<(NodeId, Distance, Distance)> =
        g.nodes().map(|v| (v, 0, Distance::MAX)).collect();
    let mut workspace = Sweeps::default();
    let mut diameter = 0;
    let mut sweeps = 0;
    let mut by_upper = true;
    let mut picks = Vec::new();
    let mut split = None;
    std::thread::scope(|scope| {
        let mut helpers: Vec<SweepHelper> = Vec::new();
        loop {
            let batch = if sweeps < serial {
                1
            } else {
                *split.get_or_insert_with(|| workers().max(1))
            };
            pick_sources(g, &candidates, batch, &mut by_upper, &mut picks);
            let Some((&first, rest)) = picks.split_first() else {
                return Some((diameter, sweeps));
            };
            while helpers.len() < rest.len() {
                helpers.push(SweepHelper::spawn(scope, g));
            }
            for (helper, &source) in helpers.iter_mut().zip(rest) {
                helper.start(source);
            }
            sweeps += picks.len();
            let dist = workspace.dijkstra(g, first);
            prune(&mut candidates, &mut diameter, dist)?;
            for helper in &mut helpers[..rest.len()] {
                prune(&mut candidates, &mut diameter, helper.finish())?;
            }
        }
    })
}

/// Up to `batch` distinct candidates to sweep next, into `picks`: the rules
/// alternate from `by_upper` on, one pick each, between the largest upper
/// bound and the smallest lower bound, ties going to the higher degree and
/// then the lower node id.
fn pick_sources(
    g: &Graph,
    candidates: &[(NodeId, Distance, Distance)],
    batch: usize,
    by_upper: &mut bool,
    picks: &mut Vec<NodeId>,
) {
    picks.clear();
    while picks.len() < batch {
        let fresh = candidates.iter().filter(|(v, _, _)| !picks.contains(v));
        let next = if *by_upper {
            fresh.max_by_key(|&&(v, _, upper)| (upper, g.degree(v), Reverse(v)))
        } else {
            fresh.max_by_key(|&&(v, lower, _)| (Reverse(lower), g.degree(v), Reverse(v)))
        };
        let Some(&(source, _, _)) = next else {
            return;
        };
        picks.push(source);
        *by_upper = !*by_upper;
    }
}

/// Folds one sweep into the bounds: raises the running maximum `diameter`
/// to the sweep's eccentricity, tightens every candidate's bounds and drops
/// those whose upper bound no longer exceeds the maximum.  Returns `None` if
/// the sweep left a node unreachable.
fn prune(
    candidates: &mut Vec<(NodeId, Distance, Distance)>,
    diameter: &mut Distance,
    dist: &[Distance],
) -> Option<()> {
    let (_, ecc) = sweep_extent(dist)?;
    *diameter = (*diameter).max(ecc);
    candidates.retain_mut(|(v, lower, upper)| {
        let d = dist[v.index()];
        *lower = (*lower).max(d).max(ecc - d);
        *upper = (*upper).min(ecc.saturating_add(d));
        *upper > *diameter
    });
    Some(())
}

/// A helper thread of a split diameter.  Each step it receives a source and
/// a distance buffer, sweeps from that source into the buffer with its own
/// [`Sweeps`] workspace, and sends the buffer back, so no step allocates
/// once every buffer has its full length.
struct SweepHelper {
    buffer: Vec<Distance>,
    to_helper: SyncSender<(NodeId, Vec<Distance>)>,
    from_helper: Receiver<Vec<Distance>>,
}

impl SweepHelper {
    fn spawn<'scope, 'env>(scope: &'scope Scope<'scope, 'env>, g: &'env Graph) -> Self {
        let (to_helper, inbox) = sync_channel::<(NodeId, Vec<Distance>)>(1);
        let (outbox, from_helper) = sync_channel(1);
        // The loop ends when the diameter drops `to_helper`.
        scope.spawn(move || {
            let mut workspace = Sweeps::default();
            while let Ok((source, buffer)) = recv_spinning(&inbox) {
                workspace.dist = buffer;
                workspace.dijkstra(g, source);
                if outbox.send(std::mem::take(&mut workspace.dist)).is_err() {
                    break;
                }
            }
        });
        SweepHelper {
            buffer: Vec::new(),
            to_helper,
            from_helper,
        }
    }

    /// Starts the helper on a sweep from `source`.
    fn start(&mut self, source: NodeId) {
        // Sending fails only once the helper has panicked; `finish` then
        // raises the panic.
        let _ = self
            .to_helper
            .send((source, std::mem::take(&mut self.buffer)));
    }

    /// Waits for the helper's sweep and returns its distances.
    fn finish(&mut self) -> &[Distance] {
        self.buffer = recv_spinning(&self.from_helper)
            .expect("a diameter helper sweeps every source it is sent");
        &self.buffer
    }
}

/// How often a split diameter polls a channel before it blocks: it hands
/// sweeps back and forth every few tens of microseconds, about what waking
/// a blocked thread costs.
const SPINS: usize = 1 << 12;

/// Receives from `rx`, polling up to [`SPINS`] times before blocking.
fn recv_spinning<T>(rx: &Receiver<T>) -> Result<T, RecvError> {
    for _ in 0..SPINS {
        match rx.try_recv() {
            Ok(value) => return Ok(value),
            Err(TryRecvError::Disconnected) => return Err(RecvError),
            Err(TryRecvError::Empty) => std::hint::spin_loop(),
        }
    }
    rx.recv()
}

/// A compact summary of the structural parameters the paper's bounds use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphSummary {
    /// Number of nodes `n`.
    pub nodes: usize,
    /// Number of edges `m`.
    pub edges: usize,
    /// Maximum degree `Δ`.
    pub max_degree: usize,
    /// Weighted-diameter bounds (exact below [`EXACT_DIAMETER_THRESHOLD`];
    /// `None` if disconnected).
    pub weighted_diameter: Option<DiameterEstimate>,
    /// Maximum edge latency `ℓ_max`.
    pub max_latency: Latency,
}

/// Computes a [`GraphSummary`].
///
/// The diameter comes from the sweep estimator ([`estimate_diameter`]):
/// exact — and flagged as such — below [`EXACT_DIAMETER_THRESHOLD`] nodes,
/// constant-sweep bounds above it.  Summarizing a large graph therefore costs
/// a constant number of sweeps, not the up to `n` sweeps the exact diameter
/// may need.
pub fn summarize(g: &Graph) -> GraphSummary {
    GraphSummary {
        nodes: g.node_count(),
        edges: g.edge_count(),
        max_degree: g.max_degree(),
        weighted_diameter: estimate_diameter(g),
        max_latency: g.max_latency(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// Triangle with one slow edge: 0-1 (1), 1-2 (1), 0-2 (10).
    fn slow_triangle() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1).unwrap();
        b.add_edge(1, 2, 1).unwrap();
        b.add_edge(0, 2, 10).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn dijkstra_prefers_fast_multi_hop_path() {
        let g = slow_triangle();
        let d = dijkstra(&g, NodeId::new(0));
        // Direct edge has latency 10 but the two-hop path costs 2.
        assert_eq!(d, vec![0, 1, 2]);
    }

    #[test]
    fn diameters() {
        let g = slow_triangle();
        assert_eq!(weighted_diameter(&g), Some(2));
    }

    #[test]
    fn eccentricity_and_pairwise_distance() {
        let g = slow_triangle();
        let from_0 = dijkstra(&g, NodeId::new(0));
        assert_eq!(sweep_extent(&from_0), Some((NodeId::new(2), 2)));
        assert_eq!(from_0[2], 2);
    }

    #[test]
    fn disconnected_graphs_report_none() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1).unwrap();
        b.add_edge(2, 3, 1).unwrap();
        let g = b.build().unwrap();
        assert_eq!(weighted_diameter(&g), None);
        let from_0 = dijkstra(&g, NodeId::new(0));
        assert_eq!(sweep_extent(&from_0), None);
        assert_eq!(from_0[3], UNREACHABLE);
    }

    #[test]
    fn path_graph_diameter_is_latency_sum() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 3).unwrap();
        b.add_edge(1, 2, 4).unwrap();
        b.add_edge(2, 3, 5).unwrap();
        let g = b.build().unwrap();
        assert_eq!(weighted_diameter(&g), Some(12));
    }

    #[test]
    fn path_sums_past_the_sentinel_clamp_below_it() {
        // Each edge is 2⁶³; the path sums to 2⁶⁴, past `u64::MAX`.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, u64::MAX / 2 + 1).unwrap();
        b.add_edge(1, 2, u64::MAX / 2 + 1).unwrap();
        let g = b.build().unwrap();
        assert_eq!(dijkstra(&g, NodeId::new(0))[2], u64::MAX - 1);
        assert_eq!(weighted_diameter(&g), Some(u64::MAX - 1));
    }

    #[test]
    fn summary_collects_all_parameters() {
        let g = slow_triangle();
        let s = summarize(&g);
        assert_eq!(s.nodes, 3);
        assert_eq!(s.edges, 3);
        assert_eq!(s.max_degree, 2);
        assert_eq!(s.weighted_diameter, Some(DiameterEstimate::exact(2)));
        assert_eq!(s.max_latency, 10);
    }

    #[test]
    fn single_node_metrics() {
        let g = GraphBuilder::new(1).build().unwrap();
        assert_eq!(weighted_diameter(&g), Some(0));
        assert_eq!(dijkstra(&g, NodeId::new(0)), vec![0]);
    }

    #[test]
    fn empty_and_single_node_behavior_is_consistent() {
        // A `node_count() == 0` graph is unconstructible (`GraphError::Empty`
        // from every constructor), so no metric can panic on it — the
        // `Some(0)` guards in the sweep-based routines are pure defense and
        // agree with `weighted_diameter`'s empty-loop result.
        assert_eq!(
            GraphBuilder::new(0).build().unwrap_err(),
            crate::GraphError::Empty
        );
        // The smallest constructible graph: every diameter notion agrees.
        let g = GraphBuilder::new(1).build().unwrap();
        assert_eq!(g.node_count(), 1);
        assert_eq!(weighted_diameter(&g), Some(0));
        assert_eq!(estimate_diameter(&g), Some(DiameterEstimate::exact(0)));
        // And with the sweep path forced (threshold 0), still Some(0).
        assert_eq!(
            estimate_diameter_with_threshold(&g, 0),
            Some(DiameterEstimate::exact(0))
        );
    }

    #[test]
    fn estimate_is_exact_below_the_threshold() {
        let g = slow_triangle();
        let est = estimate_diameter(&g).unwrap();
        assert!(est.is_exact());
        assert_eq!(est.upper, weighted_diameter(&g).unwrap());
    }

    #[test]
    fn estimate_brackets_the_diameter_above_the_threshold() {
        // Long path: the double sweep is exact on trees, so lower == D.
        let mut b = GraphBuilder::new(40);
        for i in 0..39 {
            b.add_edge(i, i + 1, (i as Latency % 3) + 1).unwrap();
        }
        let g = b.build().unwrap();
        let d = weighted_diameter(&g).unwrap();
        // Force the sweep estimator with threshold 0.
        let est = estimate_diameter_with_threshold(&g, 0).unwrap();
        assert!(est.lower <= d && d <= est.upper, "{est:?} vs D={d}");
        assert_eq!(est.lower, d, "double sweep is exact on paths");
    }

    #[test]
    fn estimate_reports_disconnection() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1).unwrap();
        b.add_edge(2, 3, 1).unwrap();
        let g = b.build().unwrap();
        assert_eq!(estimate_diameter(&g), None);
        assert_eq!(estimate_diameter_with_threshold(&g, 0), None);
    }

    /// The graphs whose diameters pin the pruning's work, each with its
    /// sweep-count ceiling: an Erdős–Rényi graph needs about a fifth of its
    /// nodes, a dumbbell and a grid a handful, a cycle every node.
    fn pruning_battery() -> Vec<(&'static str, Graph, usize)> {
        use crate::{generators, latency::LatencyScheme};
        use rand::{rngs::SmallRng, SeedableRng};
        let bimodal = LatencyScheme::BimodalFraction {
            slow: 16,
            slow_fraction: 0.25,
        };
        let mut rng = SmallRng::seed_from_u64(1);
        let er = generators::erdos_renyi(1024, 0.016, 1, &mut rng).unwrap();
        let er = bimodal.apply(&er, &mut rng).unwrap();
        let bell = generators::dumbbell(256, 16).unwrap();
        let bell = bimodal.apply(&bell, &mut rng).unwrap();
        vec![
            ("ER-1024 bimodal", er, 1024 / 3),
            ("512-node bimodal dumbbell", bell, 8),
            ("32x32 grid", generators::grid(32, 32, 1).unwrap(), 16),
            ("64-cycle", generators::cycle(64, 3).unwrap(), 64),
        ]
    }

    /// The largest eccentricity over all sources.
    fn all_pairs_diameter(g: &Graph) -> Option<Distance> {
        g.nodes()
            .map(|v| sweep_extent(&dijkstra(g, v)).map(|(_, ecc)| ecc))
            .collect::<Option<Vec<_>>>()?
            .into_iter()
            .max()
    }

    /// The pruning's work, pinned as a sweep count rather than a clock: a
    /// regression that stops bounds from pruning fails here, not only in a
    /// timing run.  Each graph's diameter is also checked against the
    /// all-pairs maximum.
    #[test]
    fn bounding_diameters_prunes_most_sweeps() {
        for (name, g, ceiling) in pruning_battery() {
            let (d, sweeps) = bounding_diameters(&g).unwrap();
            assert_eq!(Some(d), all_pairs_diameter(&g), "{name}");
            assert!(sweeps <= ceiling, "{name}: {sweeps} sweeps > {ceiling}");
        }
    }

    /// The same battery split across 1 to 4 workers, batching from the
    /// first sweep: `D` is the all-pairs maximum at every worker count, and
    /// every ceiling holds at each.
    #[test]
    fn worker_count_does_not_change_the_diameter() {
        for (name, g, ceiling) in pruning_battery() {
            let all_pairs = all_pairs_diameter(&g);
            for workers in 1..=4 {
                let (d, sweeps) = bounding_diameters_on(&g, workers).unwrap();
                assert_eq!(Some(d), all_pairs, "{name} on {workers} workers");
                assert!(
                    sweeps <= ceiling,
                    "{name} on {workers} workers: {sweeps} sweeps > {ceiling}"
                );
            }
        }
    }

    /// The queue against a binary heap: under any interleaving of monotone
    /// pushes and pops, keys leave in sorted order, for steps from 0 (every
    /// key equal) up to 2⁶³ (keys clamped at `UNREACHABLE − 1`).
    #[test]
    fn radix_queue_pops_keys_in_order() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        use std::collections::BinaryHeap;
        let mut rng = SmallRng::seed_from_u64(3);
        for max_step in [0, 1, 16, 1 << 40, Distance::MAX / 2 + 1] {
            let mut queue = RadixQueue::default();
            let mut heap = BinaryHeap::new();
            let mut last: Distance = 0;
            for node in 0..4000 {
                if rng.gen_bool(0.6) {
                    let step = rng.gen_range(0..=max_step);
                    let key = last.saturating_add(step).min(UNREACHABLE - 1);
                    queue.enqueue(key, NodeId::new(node));
                    heap.push(Reverse(key));
                } else {
                    let popped = queue.dequeue_min().map(|(key, _)| key);
                    assert_eq!(popped, heap.pop().map(|Reverse(key)| key));
                    last = popped.unwrap_or(last);
                }
            }
            while let Some(Reverse(key)) = heap.pop() {
                assert_eq!(queue.dequeue_min().map(|(key, _)| key), Some(key));
            }
            assert_eq!(queue.dequeue_min(), None, "step {max_step}");
        }
    }

    #[test]
    #[should_panic(expected = "source node out of range")]
    fn dijkstra_panics_on_bad_source() {
        let g = slow_triangle();
        let _ = dijkstra(&g, NodeId::new(17));
    }
}

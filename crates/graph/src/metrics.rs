//! Distance and degree metrics on latency-weighted graphs.
//!
//! The paper's bounds are stated in terms of the *weighted diameter* `D`
//! (shortest-path distances with latencies as weights) and the maximum degree
//! `Δ`.  This module computes the exact `D` on Dijkstra sweeps, and a
//! cheaper upper bound on it for callers that only need a known `D`.
//!
//! Two kernels share one monotone radix queue.  Single sweeps run Dijkstra
//! from one source; callers that sweep many sources reuse one `Sweeps`
//! workspace, so the distance buffer and the queue's buckets are allocated
//! once per diameter, not once per sweep.  The batch kernel computes the
//! distances from up to 64 sources in one traversal, its queue entries
//! carrying a node and a bit mask of the sources that reach it;
//! [`dijkstra_batch`] runs it 64 sources at a time.  On a bimodal
//! Erdős–Rényi graph of 1024 nodes one batch of 64 sources takes about
//! 0.3 ms, against about 1.4 ms for 64 single sweeps (2-vCPU VM); a batch of
//! one source takes about as long as a single sweep there, but about 2.7×
//! as long on a star of 2¹⁷ nodes, so single sweeps keep their own kernel.
//!
//! The exact diameter prunes its sources by eccentricity bounds
//! (BoundingDiameters).  Its first 16 sweeps are single sweeps, which close
//! the bounds of a grid or a dumbbell on their own; after that it sweeps in
//! batches of up to 64 distinct sources on the batch kernel and folds each
//! batch into the bounds at once.  A node leaves the candidates only when
//! its upper bound is at most an eccentricity actually seen, so `D` is the
//! same at any batch width; only the number of sweeps may differ.  Every
//! sweep runs on the calling thread.

use std::cmp::Reverse;

use crate::{Graph, GraphError, Latency, NodeId};

/// Distance value used by the shortest-path routines.
///
/// `u64::MAX` is reserved to mean "unreachable"; see [`UNREACHABLE`].  A
/// reachable distance is therefore at most `UNREACHABLE − 1`: longer paths
/// are clamped there.
pub type Distance = u64;

/// Sentinel distance for unreachable nodes.
pub const UNREACHABLE: Distance = u64::MAX;

/// A monotone radix queue of `(key, item)` entries: a priority queue for
/// keys that never fall below the last key popped.
///
/// Bucket `b ≥ 1` holds the keys whose highest bit differing from `last`
/// (the last minimum popped) is bit `b − 1`; bucket 0 holds keys equal to
/// `last`.  A pop from an empty bucket 0 takes the lowest non-empty bucket
/// and makes its minimum the new `last`: a bucket whose keys all equal that
/// minimum moves to bucket 0 whole, any other has its entries re-bucketed,
/// each into a strictly lower bucket.  Dijkstra's keys are monotone —
/// latencies are positive and the clamp at `UNREACHABLE − 1` keeps
/// `min(d + ℓ, U − 1) ≥ d` — so one queue serves every latency up to
/// `u64::MAX`, and an entry moves at most 64 times.
struct RadixQueue<T> {
    buckets: [Vec<(Distance, T)>; 65],
    last: Distance,
}

impl<T> Default for RadixQueue<T> {
    fn default() -> Self {
        RadixQueue {
            buckets: std::array::from_fn(|_| Vec::new()),
            last: 0,
        }
    }
}

impl<T> RadixQueue<T> {
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

    /// Queues `item` under `key`, which must be at least the last key popped.
    fn enqueue(&mut self, key: Distance, item: T) {
        debug_assert!(key >= self.last, "radix queue keys must be monotone");
        let b = self.bucket_of(key);
        self.buckets[b].push((key, item));
    }

    /// Fills bucket 0 with the entries of the smallest key, or returns
    /// `None` if the queue is empty.
    fn refill(&mut self) -> Option<()> {
        if !self.buckets[0].is_empty() {
            return Some(());
        }
        let b = self.buckets.iter().position(|bucket| !bucket.is_empty())?;
        let (min, max) = self.buckets[b]
            .iter()
            .fold((Distance::MAX, 0), |(min, max), &(key, _)| {
                (min.min(key), max.max(key))
            });
        debug_assert!(min >= self.last, "radix queue popped below its floor");
        self.last = min;
        if min == max {
            // Bucket 0 is empty: a swap when it has too little room, one
            // copy otherwise.  The copy leaves bucket `b` the capacity it
            // has grown to, so later sweeps reuse it instead of touching
            // fresh pages (a third fewer page faults per setup of a 2¹⁷-node
            // star than either re-bucketing or always swapping).
            if self.buckets[0].capacity() < self.buckets[b].len() {
                self.buckets.swap(0, b);
            } else {
                let mut moved = std::mem::take(&mut self.buckets[b]);
                self.buckets[0].append(&mut moved);
                self.buckets[b] = moved;
            }
        } else {
            let mut moved = std::mem::take(&mut self.buckets[b]);
            for (key, item) in moved.drain(..) {
                let to = self.bucket_of(key);
                self.buckets[to].push((key, item));
            }
            self.buckets[b] = moved;
        }
        debug_assert!(
            self.buckets[0].iter().all(|&(key, _)| key == self.last),
            "radix queue bucket 0 holds a key other than the floor"
        );
        Some(())
    }

    /// Removes an entry with the smallest key, or returns `None` if the
    /// queue is empty.
    fn dequeue_min(&mut self) -> Option<(Distance, T)> {
        self.refill()?;
        self.buckets[0].pop()
    }

    /// Moves every entry of the smallest key into `layer` (emptied first)
    /// and returns that key, or returns `None` if the queue is empty.
    fn dequeue_all_min(&mut self, layer: &mut Vec<(Distance, T)>) -> Option<Distance> {
        layer.clear();
        self.refill()?;
        std::mem::swap(layer, &mut self.buckets[0]);
        Some(self.last)
    }
}

/// Reusable scratch for repeated single-source sweeps: a distance buffer and
/// a [`RadixQueue`], both keeping their capacity from one sweep to the next.
#[derive(Default)]
pub(crate) struct Sweeps {
    dist: Vec<Distance>,
    queue: RadixQueue<NodeId>,
}

impl Sweeps {
    /// The single-source kernel: weighted distances from `source` (see
    /// [`dijkstra`]), saturating and clamping every distance at
    /// `UNREACHABLE − 1`, borrowed from the workspace until its next sweep.
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

/// Most sources one batch sweep serves: one bit of a `u64` mask each.
const MAX_BATCH: usize = u64::BITS as usize;

/// Most distances a batch's table holds: the width of a batch is capped at
/// `2²⁰ / n` sources, so 64 sources up to 16384 nodes and fewer above.
const MAX_BATCH_TABLE: usize = 1 << 20;

/// The widest batch whose distance table on `n` nodes fits
/// [`MAX_BATCH_TABLE`], at least 1 and at most [`MAX_BATCH`].
pub(crate) fn batch_width(n: usize) -> usize {
    (MAX_BATCH_TABLE / n.max(1)).clamp(1, MAX_BATCH)
}

/// A source mask: bit `b` stands for the `b`-th source of a batch.
type Sources = u64;

/// Reusable scratch for batch sweeps: the distances from up to
/// [`MAX_BATCH`] sources in one traversal of one [`RadixQueue`], whose
/// entries carry a node and the mask of the sources that reach it at the
/// entry's key.
///
/// The kernel settles one distance layer at a time.  It ORs every entry of
/// the smallest key `d` into a per-node accumulator, settles the whole layer
/// (the sources reaching a node at `d` that had not reached it before), and
/// only then relaxes the arcs of each node with newly settled sources, once
/// per node per layer, pushing to each neighbour the sources it has not
/// settled yet.  Each node keeps one pending `(key, mask)` push per layer:
/// pushes that reach it at the pending key merge into it, and a push at
/// another key queues only the sources the smaller of the two keys does not
/// already carry, since a source reaching a node at the smaller key never
/// needs the larger.  On a bimodal graph, where a fast and a slow arc often
/// reach the same node from one layer, this drops most slow pushes.
/// Saturation and the clamp at `UNREACHABLE − 1` are the single-source
/// kernel's, so every source's column equals its [`Sweeps::dijkstra`].
#[derive(Default)]
pub(crate) struct BatchSweeps {
    /// The table: `dist[v·k + b]` is the distance from the `b`-th of `k`
    /// sources to `v`.
    dist: Vec<Distance>,
    queue: RadixQueue<(NodeId, Sources)>,
    /// The entries of the layer being settled.
    layer: Vec<(Distance, (NodeId, Sources))>,
    /// Per node: the sources whose distance to it is known.
    settled: Vec<Sources>,
    /// Per node: the sources reaching it in this layer, then those the
    /// layer settles.
    reached: Vec<Sources>,
    /// Per node: the push built up in this layer and not yet queued.
    pending: Vec<(Distance, Sources)>,
    /// The nodes this layer reaches.
    nodes: Vec<NodeId>,
    /// The nodes with a pending push.
    pushed: Vec<NodeId>,
}

impl BatchSweeps {
    /// The batch kernel: the distance table from `sources` (see
    /// [`dijkstra_batch`]), borrowed from the workspace until its next
    /// sweep.
    pub(crate) fn dijkstra(&mut self, g: &Graph, sources: &[NodeId]) -> &[Distance] {
        let (n, k) = (g.node_count(), sources.len());
        assert!(k <= MAX_BATCH, "a batch sweeps at most 64 sources");
        self.dist.clear();
        self.dist.resize(n * k, UNREACHABLE);
        for per_node in [&mut self.settled, &mut self.reached] {
            per_node.clear();
            per_node.resize(n, 0);
        }
        self.pending.clear();
        self.pending.resize(n, (0, 0));
        self.queue.reset();
        for (b, &source) in sources.iter().enumerate() {
            assert!(source.index() < n, "source node out of range");
            self.queue.enqueue(0, (source, 1 << b));
        }
        while let Some(d) = self.queue.dequeue_all_min(&mut self.layer) {
            for &(_, (v, mask)) in &self.layer {
                let reached = &mut self.reached[v.index()];
                if *reached == 0 {
                    self.nodes.push(v);
                }
                *reached |= mask;
            }
            for &v in &self.nodes {
                let i = v.index();
                let new = self.reached[i] & !self.settled[i];
                self.reached[i] = new;
                self.settled[i] |= new;
                let row = &mut self.dist[i * k..(i + 1) * k];
                let mut bits = new;
                while bits != 0 {
                    row[bits.trailing_zeros() as usize] = d;
                    bits &= bits - 1;
                }
            }
            for v in self.nodes.drain(..) {
                let new = std::mem::take(&mut self.reached[v.index()]);
                if new == 0 {
                    continue;
                }
                for &(w, e) in g.neighbor_slice(v) {
                    let push = new & !self.settled[w.index()];
                    if push == 0 {
                        continue;
                    }
                    let key = d.saturating_add(g.latency(e)).min(UNREACHABLE - 1);
                    let slot = &mut self.pending[w.index()];
                    if slot.1 == 0 {
                        *slot = (key, push);
                        self.pushed.push(w);
                    } else if slot.0 == key {
                        slot.1 |= push;
                    } else {
                        // The smaller key stays pending; the larger queues
                        // only the sources the smaller does not carry.
                        let (small, large) = if key < slot.0 {
                            ((key, push), *slot)
                        } else {
                            (*slot, (key, push))
                        };
                        let rest = large.1 & !small.1;
                        if rest != 0 {
                            self.queue.enqueue(large.0, (w, rest));
                        }
                        *slot = small;
                    }
                }
            }
            for w in self.pushed.drain(..) {
                let (key, mask) = std::mem::take(&mut self.pending[w.index()]);
                self.queue.enqueue(key, (w, mask));
            }
        }
        &self.dist
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
/// # Errors
///
/// [`GraphError::NodeOutOfRange`] if `source` is not a node of `g`.
pub fn dijkstra(g: &Graph, source: NodeId) -> Result<Vec<Distance>, GraphError> {
    check_sources(g, &[source])?;
    let mut sweeps = Sweeps::default();
    sweeps.dijkstra(g, source);
    Ok(sweeps.dist)
}

/// [`GraphError::NodeOutOfRange`] for the first of `sources` that is not a
/// node of `g`.
fn check_sources(g: &Graph, sources: &[NodeId]) -> Result<(), GraphError> {
    let node_count = g.node_count();
    match sources.iter().find(|s| s.index() >= node_count) {
        Some(foreign) => Err(GraphError::NodeOutOfRange {
            node: foreign.index(),
            node_count,
        }),
        None => Ok(()),
    }
}

/// Weighted distances from many sources, 64 per traversal: the table
/// `dist[v·k + b]`, the distance from `sources[b]` to `v` for each of the
/// `k = sources.len()` sources.
///
/// Column `b` equals [`dijkstra`] from `sources[b]`: the same
/// [`UNREACHABLE`] sentinel and the same clamp at `UNREACHABLE − 1`.  One
/// traversal costs far less than 64 sweeps when the sources' shortest paths
/// share layers — about 0.3 ms against 1.4 ms on a bimodal Erdős–Rényi
/// graph of 1024 nodes — but up to about 2.7× one sweep for a single
/// source, so single sweeps keep [`dijkstra`].
///
/// # Errors
///
/// [`GraphError::NodeOutOfRange`] if a source is not a node of `g`.
pub fn dijkstra_batch(g: &Graph, sources: &[NodeId]) -> Result<Vec<Distance>, GraphError> {
    check_sources(g, sources)?;
    let (n, k) = (g.node_count(), sources.len());
    let mut table = vec![UNREACHABLE; n * k];
    let mut sweeps = BatchSweeps::default();
    for (c, batch) in sources.chunks(MAX_BATCH).enumerate() {
        let part = sweeps.dijkstra(g, batch);
        for (row, part) in table
            .chunks_exact_mut(k)
            .zip(part.chunks_exact(batch.len()))
        {
            row.iter_mut()
                .skip(c * MAX_BATCH)
                .zip(part)
                .for_each(|(d, &p)| *d = p);
        }
    }
    Ok(table)
}

/// Exact weighted diameter `D`: the maximum over all pairs of the weighted
/// shortest-path distance.
///
/// Runs Dijkstra only from the nodes whose eccentricity bounds cannot rule
/// them out (BoundingDiameters, below): a handful of sweeps on grids and
/// dumbbells, about a fifth of the nodes on a bimodal Erdős–Rényi graph.
/// Each sweep costs `O(m + n log C)` on the radix queue, where `C ≤ 2⁶⁴` is
/// the range of the keys.  The worst case is still one sweep per node,
/// `Θ(n·m)` up to the queue's `log C`, on vertex-transitive graphs such as
/// a cycle, where every node has the same eccentricity and no bound prunes
/// another node.
///
/// The first 16 sweeps are single sweeps; the rest run up to 64 sources per
/// traversal on the batch kernel (see [`dijkstra_batch`]).  The result is
/// the same `D` at every batch width; only the sweep count may differ,
/// since a batch picks its sources before any of its sweeps has tightened
/// the bounds.  On one thread of a 2-vCPU VM, a bimodal Erdős–Rényi graph
/// of 1024 nodes (about 230 sweeps) takes about 2.2 ms, and a unit cycle of
/// 4096 nodes (all 4096 sweeps) about 0.35 s.
///
/// Returns `None` if the graph is disconnected.
pub fn weighted_diameter(g: &Graph) -> Option<Distance> {
    bounding_diameters(g).map(|(d, _)| d)
}

/// Largest graph (in nodes) on which [`diameter_upper_bound`] is the exact
/// diameter.  Raising it would change the bound, and so the known `D` every
/// heavy protocol consumes, on larger graphs (a 48×48 grid, say), and with
/// it their run results.
const EXACT_BOUND_NODES: usize = 1024;

/// An upper bound on the weighted diameter `D` from a constant number of
/// sweeps, for callers that need a known `D` but not its exact value.
///
/// Graphs of at most 1024 nodes get the exact [`weighted_diameter`].
/// Larger graphs get `min 2·ecc(root)` (the triangle inequality gives
/// `D ≤ 2·ecc(v)` for every `v`, so the bound lies in `[D, 2D]`) over the
/// sweeps from node 0, from the farthest node found, from the farthest
/// node of *that* sweep, and from the maximum-degree node, whose
/// eccentricity is often close to `D/2` on star-like topologies.
///
/// Returns `None` if the graph is disconnected.
pub fn diameter_upper_bound(g: &Graph) -> Option<Distance> {
    let n = g.node_count();
    if n <= EXACT_BOUND_NODES {
        return weighted_diameter(g);
    }
    let hub = g.nodes().max_by_key(|&v| g.degree(v))?;
    let mut sweeps = Sweeps::default();
    let mut swept = Vec::with_capacity(4);
    let mut far = NodeId::new(0);
    let mut upper = Distance::MAX;
    // Node 0, the farthest node twice over, then the hub; a root already
    // swept is skipped.
    for pick in 0..4 {
        let root = if pick == 3 { hub } else { far };
        if swept.contains(&root) {
            continue;
        }
        swept.push(root);
        let (next, ecc) = sweep_extent(sweeps.dijkstra(g, root))?;
        upper = upper.min(ecc.saturating_mul(2));
        far = next;
    }
    Some(upper)
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

/// Single sweeps a diameter runs before it sweeps in batches.  Most graphs
/// close their bounds by then — a grid in about 10 sweeps, a dumbbell in 3
/// — so they never run the batch kernel.
const SERIAL_SWEEPS: usize = 16;

/// A candidate of BoundingDiameters with its eccentricity bounds:
/// `(node, lower, upper)`.
type Candidate = (NodeId, Distance, Distance);

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
/// After [`SERIAL_SWEEPS`] single sweeps it sweeps up to [`batch_width`]
/// sources per batch (see [`batched_diameters`]).
///
/// Returns `None` if the first sweep leaves a node unreachable.
fn bounding_diameters(g: &Graph) -> Option<(Distance, usize)> {
    batched_diameters(g, SERIAL_SWEEPS, batch_width(g.node_count()))
}

/// [`bounding_diameters`] in batches of up to `width` sources from the
/// first sweep on.
#[cfg(test)]
fn bounding_diameters_on(g: &Graph, width: usize) -> Option<(Distance, usize)> {
    batched_diameters(g, 0, width)
}

/// BoundingDiameters with one single sweep per step for the first `serial`
/// sweeps, then one batch sweep of up to `width` sources per step.  A step
/// picks distinct candidates, the rules alternating pick by pick as they
/// would sweep by sweep, and folds all of its sweeps into the bounds at
/// once (see [`prune`]).
///
/// Every bound stays valid whatever the batch, a candidate leaves only when
/// its upper bound is at most an eccentricity actually seen, and each pick's
/// own sweep removes it, so the loop ends with the same exact `D` at any
/// width; only the number of sweeps may differ, and it is fixed for a given
/// width.
fn batched_diameters(g: &Graph, serial: usize, width: usize) -> Option<(Distance, usize)> {
    let mut candidates: Vec<Candidate> = g.nodes().map(|v| (v, 0, Distance::MAX)).collect();
    let mut single = Sweeps::default();
    let mut batch = BatchSweeps::default();
    let mut diameter = 0;
    let mut sweeps = 0;
    let mut by_upper = true;
    let mut picks = Vec::new();
    loop {
        let one = sweeps < serial;
        let count = if one { 1 } else { width };
        pick_sources(g, &candidates, count, &mut by_upper, &mut picks);
        if picks.is_empty() {
            return Some((diameter, sweeps));
        }
        sweeps += picks.len();
        let table = if one {
            single.dijkstra(g, picks[0])
        } else {
            batch.dijkstra(g, &picks)
        };
        prune(&mut candidates, &mut diameter, table, picks.len())?;
    }
}

/// Up to `count` distinct candidates to sweep next, into `picks`: the rules
/// alternate from `by_upper` on, one pick each, between the largest upper
/// bound and the smallest lower bound, ties going to the higher degree and
/// then the lower node id.
///
/// Each rule walks its own order, ranked once per call and skipping the
/// other rule's picks.  A rule makes at most `count` picks and skips only
/// the other's, so it walks at most `count` nodes: ranking the best `count`
/// costs `O(c + count·log count)` on `c` candidates.
fn pick_sources(
    g: &Graph,
    candidates: &[Candidate],
    count: usize,
    by_upper: &mut bool,
    picks: &mut Vec<NodeId>,
) {
    picks.clear();
    let (mut by_upper_bound, mut by_lower_bound) = (None, None);
    while picks.len() < count {
        let order = if *by_upper {
            by_upper_bound.get_or_insert_with(|| {
                best_first(candidates, count, |&(v, _, upper)| {
                    (Reverse(upper), Reverse(g.degree(v)))
                })
            })
        } else {
            by_lower_bound.get_or_insert_with(|| {
                best_first(candidates, count, |&(v, lower, _)| {
                    (lower, Reverse(g.degree(v)))
                })
            })
        };
        let Some(source) = order.find(|v| !picks.contains(v)) else {
            return;
        };
        picks.push(source);
        *by_upper = !*by_upper;
    }
}

/// The `count` candidates of smallest `key`, smallest first, ties going to
/// the lower node id.
fn best_first<K: Ord>(
    candidates: &[Candidate],
    count: usize,
    key: impl Fn(&Candidate) -> K,
) -> std::vec::IntoIter<NodeId> {
    let mut ranked: Vec<(K, NodeId)> = candidates.iter().map(|c| (key(c), c.0)).collect();
    if count < ranked.len() {
        ranked.select_nth_unstable(count);
        ranked.truncate(count);
    }
    ranked.sort_unstable();
    let nodes: Vec<NodeId> = ranked.into_iter().map(|(_, v)| v).collect();
    nodes.into_iter()
}

/// Folds the sweeps of a `k`-source distance table (`table[v·k + b]`, a
/// single sweep being a table of width 1) into the bounds: first every
/// source's eccentricity raises the running maximum `diameter`, then each
/// candidate's row tightens its bounds, and the candidates whose upper
/// bound no longer exceeds the maximum leave.  Upper bounds only fall and
/// the maximum only rises, so this leaves the same candidates, with the
/// same bounds, as folding the sweeps one at a time.  Returns `None` if a
/// sweep left a node unreachable.
fn prune(
    candidates: &mut Vec<Candidate>,
    diameter: &mut Distance,
    table: &[Distance],
    k: usize,
) -> Option<()> {
    let mut ecc = [0; MAX_BATCH];
    let ecc = &mut ecc[..k];
    for row in table.chunks_exact(k) {
        for (e, &d) in ecc.iter_mut().zip(row) {
            *e = (*e).max(d);
        }
    }
    // `UNREACHABLE` is the largest distance, so it is an eccentricity
    // exactly when its sweep left a node unreachable.
    let farthest = ecc.iter().copied().max()?;
    if farthest == UNREACHABLE {
        return None;
    }
    *diameter = (*diameter).max(farthest);
    candidates.retain_mut(|(v, lower, upper)| {
        let row = &table[v.index() * k..(v.index() + 1) * k];
        for (&e, &d) in ecc.iter().zip(row) {
            *lower = (*lower).max(d).max(e - d);
            *upper = (*upper).min(e.saturating_add(d));
        }
        *upper > *diameter
    });
    Some(())
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
    /// Weighted diameter `D` ([`weighted_diameter`]; `None` if
    /// disconnected).
    pub weighted_diameter: Option<Distance>,
    /// Maximum edge latency `ℓ_max`.
    pub max_latency: Latency,
}

/// Computes a [`GraphSummary`], the diameter exactly.
pub fn summarize(g: &Graph) -> GraphSummary {
    GraphSummary {
        nodes: g.node_count(),
        edges: g.edge_count(),
        max_degree: g.max_degree(),
        weighted_diameter: weighted_diameter(g),
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
        let d = dijkstra(&g, NodeId::new(0)).unwrap();
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
        let from_0 = dijkstra(&g, NodeId::new(0)).unwrap();
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
        assert_eq!(diameter_upper_bound(&g), None);
        let from_0 = dijkstra(&g, NodeId::new(0)).unwrap();
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
        assert_eq!(dijkstra(&g, NodeId::new(0)).unwrap()[2], u64::MAX - 1);
        assert_eq!(weighted_diameter(&g), Some(u64::MAX - 1));
    }

    #[test]
    fn summary_collects_all_parameters() {
        let g = slow_triangle();
        let s = summarize(&g);
        assert_eq!(s.nodes, 3);
        assert_eq!(s.edges, 3);
        assert_eq!(s.max_degree, 2);
        assert_eq!(s.weighted_diameter, Some(2));
        assert_eq!(s.max_latency, 10);
    }

    #[test]
    fn single_node_metrics() {
        let g = GraphBuilder::new(1).build().unwrap();
        assert_eq!(weighted_diameter(&g), Some(0));
        assert_eq!(dijkstra(&g, NodeId::new(0)), Ok(vec![0]));
    }

    #[test]
    fn empty_and_single_node_behavior_is_consistent() {
        // A `node_count() == 0` graph is unconstructible (`GraphError::Empty`
        // from every constructor), so no metric can panic on it.
        assert_eq!(
            GraphBuilder::new(0).build().unwrap_err(),
            crate::GraphError::Empty
        );
        // The smallest constructible graph: both diameter notions agree.
        let g = GraphBuilder::new(1).build().unwrap();
        assert_eq!(g.node_count(), 1);
        assert_eq!(weighted_diameter(&g), Some(0));
        assert_eq!(diameter_upper_bound(&g), Some(0));
    }

    #[test]
    fn estimate_is_exact_below_the_threshold() {
        let g = slow_triangle();
        assert_eq!(diameter_upper_bound(&g), weighted_diameter(&g));
        let grid = crate::generators::grid(32, 32, 1).unwrap();
        assert_eq!(grid.node_count(), EXACT_BOUND_NODES);
        assert_eq!(diameter_upper_bound(&grid), Some(62));
    }

    /// The 48×48 unit grid, the grid of perfbench's `spanner-route`: the
    /// sweeps from the two corners see eccentricity 94 = D, and the hub,
    /// the last node of degree 4, sits next to the far corner with
    /// eccentricity 92, so the bound is 184, inside `[D, 2D]`.
    #[test]
    fn estimate_brackets_the_diameter_above_the_threshold() {
        let g = crate::generators::grid(48, 48, 1).unwrap();
        assert_eq!(weighted_diameter(&g), Some(94));
        assert_eq!(diameter_upper_bound(&g), Some(184));
    }

    #[test]
    fn estimate_reports_disconnection() {
        let mut b = GraphBuilder::new(EXACT_BOUND_NODES + 2);
        b.add_edge(0, 1, 1).unwrap();
        let g = b.build().unwrap();
        assert_eq!(diameter_upper_bound(&g), None);
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
            .map(|v| sweep_extent(&dijkstra(g, v).unwrap()).map(|(_, ecc)| ecc))
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

    /// The same battery in batches of 1 to 4 and of 64 sources from the
    /// first sweep: `D` is the all-pairs maximum at every width, and every
    /// ceiling holds at widths 1 to 4.
    #[test]
    fn batch_width_does_not_change_the_diameter() {
        for (name, g, ceiling) in pruning_battery() {
            let all_pairs = all_pairs_diameter(&g);
            for width in [1, 2, 3, 4, MAX_BATCH] {
                let (d, sweeps) = bounding_diameters_on(&g, width).unwrap();
                assert_eq!(Some(d), all_pairs, "{name} at width {width}");
                assert!(
                    width == MAX_BATCH || sweeps <= ceiling,
                    "{name} at width {width}: {sweeps} sweeps > {ceiling}"
                );
            }
        }
    }

    #[test]
    fn batch_width_caps_the_table() {
        assert_eq!(batch_width(1), MAX_BATCH);
        assert_eq!(batch_width(16384), MAX_BATCH);
        assert_eq!(batch_width(16385), 63);
        assert_eq!(batch_width(1 << 20), 1);
        assert_eq!(batch_width(1 << 24), 1);
    }

    /// The queue against a binary heap: under any interleaving of monotone
    /// pushes, pops and whole-layer pops, keys leave in sorted order and a
    /// layer holds every entry of the smallest key, for steps from 0 (every
    /// key equal) up to 2⁶³ (keys clamped at `UNREACHABLE − 1`).
    #[test]
    fn radix_queue_pops_keys_in_order() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        use std::collections::BinaryHeap;
        let mut rng = SmallRng::seed_from_u64(3);
        for max_step in [0, 1, 16, 1 << 40, Distance::MAX / 2 + 1] {
            let mut queue = RadixQueue::default();
            let mut heap = BinaryHeap::new();
            let mut layer = Vec::new();
            let mut last: Distance = 0;
            for node in 0..4000 {
                if rng.gen_bool(0.6) {
                    let step = rng.gen_range(0..=max_step);
                    let key = last.saturating_add(step).min(UNREACHABLE - 1);
                    queue.enqueue(key, NodeId::new(node));
                    heap.push(Reverse(key));
                } else if rng.gen_bool(0.8) {
                    let popped = queue.dequeue_min().map(|(key, _)| key);
                    assert_eq!(popped, heap.pop().map(|Reverse(key)| key));
                    last = popped.unwrap_or(last);
                } else if let Some(key) = queue.dequeue_all_min(&mut layer) {
                    assert!(layer.iter().all(|&(k, _)| k == key));
                    for _ in &layer {
                        assert_eq!(heap.pop(), Some(Reverse(key)));
                    }
                    assert!(heap.peek().is_none_or(|&Reverse(next)| next > key));
                    last = key;
                } else {
                    assert!(layer.is_empty() && heap.is_empty());
                }
            }
            while let Some(Reverse(key)) = heap.pop() {
                assert_eq!(queue.dequeue_min().map(|(key, _)| key), Some(key));
            }
            assert_eq!(queue.dequeue_min(), None, "step {max_step}");
        }
    }

    #[test]
    fn dijkstra_rejects_a_foreign_source() {
        let g = slow_triangle();
        assert_eq!(
            dijkstra(&g, NodeId::new(17)),
            Err(GraphError::NodeOutOfRange {
                node: 17,
                node_count: 3
            })
        );
    }

    #[test]
    fn dijkstra_batch_rejects_a_foreign_source() {
        let g = slow_triangle();
        assert_eq!(
            dijkstra_batch(&g, &[NodeId::new(0), NodeId::new(17)]),
            Err(GraphError::NodeOutOfRange {
                node: 17,
                node_count: 3
            })
        );
        assert_eq!(dijkstra_batch(&g, &[]), Ok(Vec::new()));
    }

    /// Past 64 sources the batches' columns land in their own places: every
    /// column of a 130-source table is its source's single sweep.
    #[test]
    fn dijkstra_batch_sweeps_any_number_of_sources() {
        let g = slow_triangle();
        let sources: Vec<NodeId> = (0..2 * MAX_BATCH + 2)
            .map(|b| NodeId::new(b * 7 % 3))
            .collect();
        let table = dijkstra_batch(&g, &sources).unwrap();
        assert_eq!(table.len(), 3 * sources.len());
        for (b, &source) in sources.iter().enumerate() {
            let column: Vec<Distance> = table
                .iter()
                .skip(b)
                .step_by(sources.len())
                .copied()
                .collect();
            assert_eq!(Ok(column), dijkstra(&g, source), "column {b}");
        }
    }
}

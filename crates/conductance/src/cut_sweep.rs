//! One incremental pass over a sequence of cuts.
//!
//! [`CutSweep`] holds a cut `(U, V∖U)` together with `Vol(U)` and the number
//! of cut edges at each distinct latency of the graph.  Moving one
//! node across the cut ([`CutSweep::flip`]) updates all of them in
//! `O(deg v)`, so a sequence of cuts that differ by one node each — the
//! prefixes of a sweep ordering, a Gray-code enumeration — is evaluated in
//! `O(deg)` per cut instead of `O(n + m)`.  [`Minima`] folds every visited
//! cut into the per-threshold minima of `φ_ℓ` and the minimum of `φ_avg`,
//! computing each value with exactly the integers and floating-point
//! expressions of [`phi_ell_of_cut`](crate::phi_ell_of_cut) and
//! [`phi_avg_of_cut`](crate::phi_avg_of_cut).

use gossip_graph::cut::{latency_class, latency_class_count};
use gossip_graph::{Graph, Latency, NodeId};

use crate::sweep::{fiedler_ordering, sweep_thresholds};

/// A cut of `g` with incrementally maintained volume and per-latency
/// cut-edge counts.
pub(crate) struct CutSweep<'g> {
    g: &'g Graph,
    /// Position of each edge's latency among the distinct latencies of `g`
    /// (ascending), by edge id.
    edge_level: Vec<usize>,
    in_u: Vec<bool>,
    vol_u: u64,
    /// Cut edges per distinct latency, indexed by `edge_level` values.
    crossing: Vec<usize>,
}

impl<'g> CutSweep<'g> {
    /// The cut with `U` empty.
    pub(crate) fn new(g: &'g Graph) -> Self {
        let latencies = g.distinct_latencies();
        let edge_level = g
            .edges()
            .map(|rec| latencies.partition_point(|&l| l < rec.latency))
            .collect();
        CutSweep {
            g,
            crossing: vec![0; latencies.len()],
            edge_level,
            in_u: vec![false; g.node_count()],
            vol_u: 0,
        }
    }

    /// Moves `v` to the other side of the cut.
    pub(crate) fn flip(&mut self, v: NodeId) {
        let side = self.in_u[v.index()];
        for &(w, e) in self.g.neighbor_slice(v) {
            let level = self.edge_level[e.index()];
            if self.in_u[w.index()] == side {
                self.crossing[level] += 1;
            } else {
                self.crossing[level] -= 1;
            }
        }
        self.in_u[v.index()] = !side;
        let degree = self.g.degree(v) as u64;
        if side {
            self.vol_u -= degree;
        } else {
            self.vol_u += degree;
        }
    }

    /// `min(Vol(U), Vol(V∖U))`, or `None` when it is zero and the
    /// conductance undefined: an empty side has zero volume, so this also
    /// rejects every improper cut.
    fn min_volume(&self) -> Option<u64> {
        let min_vol = self.vol_u.min(self.g.total_volume() - self.vol_u);
        (min_vol > 0).then_some(min_vol)
    }

    /// Feeds the cut set of [`candidate_cuts`](crate::candidate_cuts) into
    /// `minima`, one flip per cut, starting from an empty `U`.
    pub(crate) fn sweep_candidates(&mut self, minima: &mut Minima) {
        let n = self.g.node_count();
        for ell in sweep_thresholds(self.g.distinct_latencies()) {
            let order = fiedler_ordering(self.g, ell);
            let prefixes = &order[..n.saturating_sub(1)];
            for &v in prefixes {
                self.flip(v);
                minima.fold(self);
            }
            for &v in prefixes {
                self.flip(v);
            }
        }
        for v in self.g.nodes() {
            self.flip(v);
            minima.fold(self);
            self.flip(v);
        }
        if n >= 2 {
            for v in (0..n / 2).map(NodeId::new) {
                self.flip(v);
            }
            minima.fold(self);
        }
    }

    /// Feeds every proper cut with node 0 outside `U` — the set
    /// [`enumerate_cuts`](crate::enumerate_cuts) yields — into `minima` in
    /// Gray-code order over nodes `1..n`, one flip per cut.  Callers bound
    /// `n` by [`MAX_EXACT_NODES`](crate::MAX_EXACT_NODES).
    pub(crate) fn enumerate(&mut self, minima: &mut Minima) {
        let count = 1u64 << (self.g.node_count() - 1);
        for i in 1..count {
            self.flip(NodeId::new(1 + i.trailing_zeros() as usize));
            minima.fold(self);
        }
    }
}

/// The minima over the cuts folded so far: `φ_ℓ` for every distinct latency
/// `ℓ` and `φ_avg`.
pub(crate) struct Minima {
    latencies: Vec<Latency>,
    /// Latency class (1-based) of each distinct latency.
    level_class: Vec<usize>,
    classes: usize,
    /// Minimum `φ_ℓ` per distinct latency (`∞` until a cut is folded).
    phi_ell: Vec<f64>,
    phi_avg: f64,
}

impl Minima {
    pub(crate) fn new(g: &Graph) -> Self {
        let latencies = g.distinct_latencies();
        Minima {
            level_class: latencies.iter().map(|&l| latency_class(l)).collect(),
            classes: latency_class_count(g.max_latency()),
            phi_ell: vec![f64::INFINITY; latencies.len()],
            phi_avg: f64::INFINITY,
            latencies,
        }
    }

    /// Folds the current cut of `cut` into the minima; cuts with an undefined
    /// conductance are skipped.
    fn fold(&mut self, cut: &CutSweep<'_>) {
        let Some(min_vol) = cut.min_volume() else {
            return;
        };
        let mut within = 0usize;
        for (best, &count) in self.phi_ell.iter_mut().zip(&cut.crossing) {
            within += count;
            *best = best.min(within as f64 / min_vol as f64);
        }
        // Levels ascend, so each latency class is a run of consecutive levels.
        let mut sum = 0.0;
        let mut level = 0;
        for class in 1..=self.classes {
            let mut count = 0usize;
            while level < self.level_class.len() && self.level_class[level] == class {
                count += cut.crossing[level];
                level += 1;
            }
            sum += count as f64 / f64::powi(2.0, class as i32);
        }
        self.phi_avg = self.phi_avg.min(sum / min_vol as f64);
    }

    /// `(ℓ, φ_ℓ)` for every distinct latency, ascending; empty when no cut
    /// had a defined conductance.
    pub(crate) fn profile(&self) -> Vec<(Latency, f64)> {
        self.latencies
            .iter()
            .copied()
            .zip(self.phi_ell.iter().copied())
            .filter(|(_, phi)| phi.is_finite())
            .collect()
    }

    /// `φ_avg`, or `None` when no cut had a defined conductance.
    pub(crate) fn phi_avg(&self) -> Option<f64> {
        self.phi_avg.is_finite().then_some(self.phi_avg)
    }
}

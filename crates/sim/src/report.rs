//! Run reports: the measurements a simulation produces.

use std::fmt;

/// Engine diagnostics of a run, reported by
/// [`Simulation::run`](crate::Simulation::run): peak-memory counters of the
/// dissemination state plus the event-driven scheduler's round/active-set
/// accounting.
///
/// All byte figures are *estimates derived from deterministic counters*
/// (entries × entry size), not allocator measurements, so they are
/// reproducible across machines and usable as regression gates.  The engine
/// fills them in; the dense-bitset oracle reports `None` — these diagnostics
/// are engine-specific and excluded from semantic equivalence (see
/// [`RunReport::semantics`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemStats {
    /// Peak number of interval runs held by the delta window — the recent
    /// delivery phases' per-node batches of new rumors, the current phase
    /// included — at any point of the run (8 bytes each; dense layers are
    /// not runs).
    pub peak_log_runs: u64,
    /// Peak bytes held by the delta window: 8 per batch's index entry, 8 per
    /// interval run and, per dense layer, its word window and a fixed
    /// header.  Runs and layers are summed at the same instants, so this is
    /// the real peak of their total, not `peak_log_runs × 8`.
    pub peak_log_bytes: u64,
    /// Batches (one node's new rumors of one delivery phase) stored as a
    /// dense layer because that was cheaper than their interval runs.
    pub dense_batches: u64,
    /// Interval runs still in the window when the run ended.
    pub live_log_runs: u64,
    /// Batches aged out of the window: a round's batches leave it once no
    /// exchange still in flight can have been initiated before that round.
    pub truncated_runs: u64,
    /// Always 0: the delayed shadows this counted are gone.  Kept because
    /// the frozen benchmark harness reads it; ROADMAP item 7 deletes it.
    pub shadow_advances: u64,
    /// Peak bytes held by the per-node *paged* rumor sets at any merge
    /// boundary — 16 per sparse or dense page entry plus the heap bytes of
    /// each dense page's block (512 for a 4096-bit page; for a last page of
    /// `cap < 4096` bits, 8 per word of the smallest of 8, 16, 32 or 64
    /// words that holds `⌈cap/64⌉`), summed over all nodes — plus 32 bytes
    /// per node for the set itself.  Empty
    /// and full pages are free, a sparse page (at most 5 ids) costs its
    /// entry alone, and a fully saturated set collapses to zero pages — this
    /// is what replaces the old dense `n²/8` floor.
    pub rumor_set_bytes: u64,
    /// Dense rumor-set pages (heap blocks) alive when the run ended.
    pub pages_live: u64,
    /// Peak dense rumor-set pages (heap blocks) at any merge boundary of the
    /// run.
    pub pages_peak: u64,
    /// Alive nodes whose rumor set was full when the run ended (every node
    /// without a fault plan), counted from the sets at report time.
    pub saturated_nodes: u64,
    /// Always 0: the saturation collapse this counted is gone (a full set
    /// holds no pages, and a merge from a full peer with no recent batch is
    /// an `O(pages)` complement).  Kept because the frozen benchmark
    /// harness reads it; ROADMAP item 7 deletes it.
    pub collapsed_nodes: u64,
    /// Peak bytes of the engine's dissemination state: rumor sets (see
    /// [`rumor_set_bytes`](Self::rumor_set_bytes), blocks sized to the
    /// universe's pages) + the delta window's peak (the in-phase batches
    /// included).  The graph itself and protocol state are not included.
    pub peak_engine_bytes: u64,
    /// Rounds the event-driven scheduler actually executed (delivered
    /// exchanges or asked active nodes to act).
    pub rounds_simulated: u64,
    /// Rounds the scheduler *fast-forwarded over*: the active worklist was
    /// empty, so the round clock jumped straight to the next round in which
    /// an exchange completes instead of spinning an `O(n)` decision loop per empty round.  Skipped rounds
    /// are provably no-ops — [`RunReport::rounds`] and every other semantic
    /// field are identical to an engine that walked them one by one.
    pub rounds_skipped: u64,
    /// Largest size of the scheduler's active worklist at any decision phase
    /// (at least `n` — every node starts active — and protocols that never
    /// report idleness keep it pinned there).
    pub active_peak: u64,
    /// Size of the active worklist when the run stopped.
    pub active_final: u64,
}

/// Graceful-degradation accounting of a faulted run, reported whenever a
/// [`FaultPlan`](crate::FaultPlan) was attached (even an inert one).
///
/// Unlike [`MemStats`] this section is *semantic*: both engines compute it
/// from the same fault schedule and final state, it is preserved by
/// [`RunReport::semantics`], and the `fault_equivalence` suite pins it
/// byte-identical across engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultReport {
    /// Crash events applied (crashes of already-dead nodes are no-ops and
    /// not counted; events scheduled after the run stopped never happen).
    pub crashes: u64,
    /// Amnesiac rejoin events applied.
    pub rejoins: u64,
    /// Link-cut events applied.
    pub links_cut: u64,
    /// In-flight exchanges cancelled by a crash or link cut before their
    /// completion round.
    pub exchanges_cancelled: u64,
    /// Exchanges lost in transit: initiated, stayed in flight for the edge's
    /// full latency, then timed out without delivering.
    pub exchanges_lost: u64,
    /// Nodes alive when the run stopped.
    pub alive_nodes: u64,
    /// Connected components of the residual topology (alive nodes over
    /// un-cut edges) when the run stopped; 0 if no node was alive.
    pub residual_components: u64,
    /// Size of the largest residual component.
    pub largest_component: u64,
    /// Rumors stranded on dead nodes: known by no alive node when the run
    /// stopped.
    pub stranded_rumors: u64,
    /// Worst re-dissemination latency over the rejoined nodes that
    /// *recovered* — re-learned the tracked rumor (or the
    /// [`AllKnowRumorOf`](crate::Termination::AllKnowRumorOf) source rumor,
    /// or with neither tracked re-filled their whole set) — measured in
    /// rounds from the rejoin.  `None` if no rejoined node recovered.
    pub recovery_latency: Option<u64>,
}

/// Measurements from one simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Name of the protocol that was run.
    pub protocol: String,
    /// Number of rounds elapsed when the run stopped.
    pub rounds: u64,
    /// Number of exchanges initiated (edge activations).
    pub activations: u64,
    /// Number of messages sent (two per exchange: request + response).
    pub messages: u64,
    /// `true` if the termination condition was met (as opposed to hitting the round cap).
    pub completed: bool,
    /// Number of schedule errors: rounds in which a protocol chose a target
    /// that is not a neighbor of the choosing node (reported back through
    /// [`Protocol::on_rejected`](crate::Protocol::on_rejected)).
    pub rejections: u64,
    /// Per-node round at which the tracked rumor was first known
    /// (only present if [`SimConfig::track_rumor`](crate::SimConfig::track_rumor) was used).
    pub informed_times: Option<Vec<Option<u64>>>,
    /// The smallest rumor-set size over all nodes at the end of the run
    /// (equals `n` exactly when all-to-all dissemination finished; dead
    /// nodes count with their frozen sets).
    pub min_rumors_known: usize,
    /// Graceful-degradation accounting; present exactly when a
    /// [`FaultPlan`](crate::FaultPlan) was attached to the run.  Semantic
    /// (both engines must agree) — *not* stripped by
    /// [`semantics`](Self::semantics).
    pub faults: Option<FaultReport>,
    /// Engine diagnostics: peak-memory counters of the dissemination state
    /// plus the scheduler's skipped-round / active-set accounting
    /// (`None` for the dense-bitset oracle, which has no such structures).
    ///
    /// Deterministic, but engine-specific: strip with
    /// [`semantics`](Self::semantics) before comparing reports across engines.
    pub mem: Option<MemStats>,
}

impl RunReport {
    /// A copy of the report with the engine-specific [`MemStats`] stripped —
    /// the fields two semantically equivalent engines must agree on.
    pub fn semantics(&self) -> RunReport {
        RunReport {
            mem: None,
            ..self.clone()
        }
    }
    /// The largest per-node informed time, if informed times were tracked and
    /// every node learned the tracked rumor.
    pub fn last_informed_time(&self) -> Option<u64> {
        self.informed_times.as_ref().and_then(|ts| {
            ts.iter()
                .copied()
                .collect::<Option<Vec<u64>>>()
                .map(|v| v.into_iter().max().unwrap_or(0))
        })
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} rounds, {} activations, {} messages, completed = {}",
            self.protocol, self.rounds, self.activations, self.messages, self.completed
        )?;
        if self.rejections > 0 {
            write!(f, ", {} rejected targets", self.rejections)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(informed: Option<Vec<Option<u64>>>) -> RunReport {
        RunReport {
            protocol: "test".into(),
            rounds: 10,
            activations: 20,
            messages: 40,
            completed: true,
            rejections: 0,
            informed_times: informed,
            min_rumors_known: 4,
            faults: None,
            mem: None,
        }
    }

    #[test]
    fn semantics_strips_only_the_memory_diagnostics() {
        let mut r = sample(Some(vec![Some(0)]));
        r.mem = Some(MemStats {
            peak_log_runs: 3,
            ..MemStats::default()
        });
        let stripped = r.semantics();
        assert_eq!(stripped.mem, None);
        assert_ne!(r, stripped);
        assert_eq!(stripped, r.semantics());
        assert_eq!(stripped.rounds, r.rounds);
        assert_eq!(stripped.informed_times, r.informed_times);
    }

    #[test]
    fn informed_time_statistics() {
        let r = sample(Some(vec![Some(0), Some(3), Some(7)]));
        assert_eq!(r.last_informed_time(), Some(7));
    }

    #[test]
    fn partial_information_gives_none() {
        let r = sample(Some(vec![Some(0), None]));
        assert_eq!(r.last_informed_time(), None);
        let r = sample(None);
        assert_eq!(r.last_informed_time(), None);
    }

    #[test]
    fn display_mentions_key_numbers() {
        let r = sample(None);
        let s = r.to_string();
        assert!(s.contains("10 rounds"));
        assert!(s.contains("20 activations"));
        assert!(s.contains("completed = true"));
    }
}

//! Scale gates for the snapshot-free engine: the workloads that were out of
//! reach for the snapshot-per-exchange implementation must now run — and, in
//! release mode, run fast.
//!
//! The wall-clock assertions only fire in release builds
//! (`cargo test --release`, which CI runs for this suite); debug builds still
//! execute the workloads end to end to pin correctness.

use gossip_graph::{generators, NodeId};
use gossip_sim::protocols::{RandomPushPull, RoundRobinFlood};
use gossip_sim::{RumorId, SimConfig, Simulation, Termination};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The PR-2 acceptance gate: push–pull *all-to-all* on a 4096-node
/// Erdős–Rényi graph, single-threaded, < 5 s in release mode.  On a
/// unit-latency graph no flight is left after a delivery to read its
/// round, so every delivery phase's batches are counted and dropped, never
/// stored in the window.
#[test]
fn push_pull_all_to_all_on_4096_node_erdos_renyi() {
    let mut rng = SmallRng::seed_from_u64(1);
    let g = generators::erdos_renyi(4096, 0.005, 1, &mut rng).unwrap();
    let started = std::time::Instant::now();
    let config = SimConfig::new(7).termination(Termination::AllKnowAll);
    let report = Simulation::new(&g, config).run(&mut RandomPushPull::new(&g));
    let elapsed = started.elapsed();
    assert!(report.completed, "dissemination must finish: {report}");
    assert_eq!(report.min_rumors_known, 4096);
    let mem = report.mem.unwrap();
    assert!(mem.truncated_runs > 0, "batches must leave the window");
    assert_eq!(mem.live_log_runs, 0, "{mem:?}");
    // Dense delta layers: the endgame's scattered per-round acquisitions are
    // built as one bitset window each instead of ~n one-entry runs.
    assert!(mem.dense_batches > 0, "{mem:?}");
    assert!(
        mem.peak_engine_bytes < 32 << 20,
        "peak {} bytes exceeds the 32 MiB budget ({mem:?})",
        mem.peak_engine_bytes
    );
    #[cfg(not(debug_assertions))]
    assert!(
        elapsed < std::time::Duration::from_secs(5),
        "4096-node all-to-all took {elapsed:.2?} (budget 5s)"
    );
    let _ = elapsed;
}

/// Always-on memory gate at a debug-friendly size: all-to-all on a 4096-node
/// star must stay tiny.  The hub's batch is one run of leaf ids and a
/// leaf's first batch one id; no flight is left after a delivery, so the
/// window stores no round, and the full hub fills each leaf with a fill
/// entry, which holds no ids.  A leaf's rumor set holds at most two ids
/// (its own and the hub's), inline in its header, until that fill.  The
/// whole dissemination state stays under the 1 MiB budget asserted here (a
/// dense bitset layout alone would be ~2 MiB per direction).
#[test]
fn star_all_to_all_memory_stays_within_one_mebibyte_at_4096() {
    let g = generators::star(4096, 1).unwrap();
    let config = SimConfig::new(5).termination(Termination::AllKnowAll);
    let report = Simulation::new(&g, config).run(&mut RandomPushPull::new(&g));
    assert!(report.completed, "{report}");
    assert_eq!(report.min_rumors_known, 4096);
    let mem = report.mem.unwrap();
    assert!(
        mem.peak_engine_bytes < 1 << 20,
        "peak {} bytes exceeds the 1 MiB budget ({mem:?})",
        mem.peak_engine_bytes
    );
    // Paged sets: leaf sets stay sparse, so only the hub's page (universe
    // 4096 is exactly one page) ever holds a dense block.
    assert!(
        mem.pages_peak <= 1,
        "only the hub's page may go dense, got {}",
        mem.pages_peak
    );
    assert_eq!(
        mem.saturated_nodes, 4096,
        "all-to-all completion saturates every node"
    );
    // The hub's ascending leaf ids are one run; a leaf's one id is an id
    // list and its fill holds no run.  Nothing stays in the window.
    assert_eq!((mem.peak_log_runs, mem.live_log_runs), (1, 0), "{mem:?}");
}

/// Always-on saturation gate: run a small all-to-all past completion
/// (`FixedRounds` keeps the engine going) so every node saturates.  A full
/// set holds no pages — zero dense pages alive, the saturated state is
/// literally free — and on latency-3 edges the window must have aged
/// batches out mid-run.
#[test]
fn saturated_nodes_report_zero_live_pages_and_truncated_logs() {
    let g = generators::clique(64, 3).unwrap();
    let config = SimConfig::new(11).termination(Termination::FixedRounds(120));
    let report = Simulation::new(&g, config).run(&mut RandomPushPull::new(&g));
    assert_eq!(report.min_rumors_known, 64, "the run must saturate");
    let mem = report.mem.unwrap();
    assert_eq!(mem.saturated_nodes, 64);
    assert_eq!(mem.pages_live, 0, "full sets hold no dense pages");
    assert!(mem.truncated_runs > 0, "batches must age out ({mem:?})");
    assert!(mem.pages_peak > 0, "the run did allocate pages mid-flight");
    // Always-on scheduler gate: once every node saturates, push–pull goes
    // quiescent and the remaining FixedRounds budget is fast-forwarded.
    assert!(
        mem.rounds_skipped > 0,
        "the saturated endgame must skip rounds ({mem:?})"
    );
    assert_eq!(mem.active_final, 0, "every node ends quiescent ({mem:?})");
    assert_eq!(mem.active_peak, 64, "all nodes start active ({mem:?})");
    assert!(
        mem.rounds_simulated + mem.rounds_skipped <= report.rounds + 1
            && mem.rounds_simulated + mem.rounds_skipped >= report.rounds,
        "walked + skipped rounds must tile the clock ({mem:?})"
    );
}

/// The PR-3 acceptance gate, kept under the paged layout (release only):
/// push–pull *all-to-all* on a 32768-node star, where every node ends up
/// knowing all 32768 rumors.  Flat `Vec<RumorId>` acquisition logs would
/// need ≈ 4 GiB and dense bitsets another ~270 MB; the delta window plus
/// paged, saturation-collapsing sets must hold the whole dissemination
/// state under 1 GiB (in fact tens of MB), measured by the engine's
/// deterministic memory counters.
#[cfg(not(debug_assertions))]
#[test]
fn push_pull_all_to_all_on_a_32768_node_star_stays_under_one_gigabyte() {
    let g = generators::star(32768, 1).unwrap();
    let started = std::time::Instant::now();
    let config = SimConfig::new(13).termination(Termination::AllKnowAll);
    let report = Simulation::new(&g, config).run(&mut RandomPushPull::new(&g));
    let elapsed = started.elapsed();
    assert!(report.completed, "{report}");
    assert_eq!(report.min_rumors_known, 32768, "knowledge must saturate");
    let mem = report.mem.unwrap();
    assert!(
        mem.peak_engine_bytes < 1 << 30,
        "peak {} bytes exceeds the 1 GiB budget ({mem:?})",
        mem.peak_engine_bytes
    );
    // The window must stay far below the 4 GiB flat-log wall.
    assert!(
        mem.peak_log_bytes < 64 << 20,
        "the window must stay far below the flat-log wall, got {} bytes",
        mem.peak_log_bytes
    );
    assert!(
        elapsed < std::time::Duration::from_secs(60),
        "32768-node all-to-all took {elapsed:.2?} (budget 60s)"
    );
}

/// THE ISSUE acceptance gate (release only): push–pull *all-to-all* on a
/// **131072-node star** — the workload the dense-bitset layout could never
/// touch (`2·n²/8` ≈ 4.3 GiB for sets + shadows alone).  A leaf holds two
/// ids inline in its set's header (its own, plus rumor 0 once the hub's
/// first exchange delivers it) until a merge from the full hub fills the
/// set to its header; on unit latencies no flight is left after a
/// delivery, so the window stores no round and that merge is a fill entry
/// with no ids.  The deterministic peak must stay under 32 MiB and the
/// endgame must short-circuit fast enough to finish within the wall-clock
/// budget.
#[cfg(not(debug_assertions))]
#[test]
fn push_pull_all_to_all_on_a_131072_node_star_stays_under_32_mebibytes() {
    let g = generators::star(131072, 1).unwrap();
    let started = std::time::Instant::now();
    let config = SimConfig::new(17).termination(Termination::AllKnowAll);
    let report = Simulation::new(&g, config).run(&mut RandomPushPull::new(&g));
    let elapsed = started.elapsed();
    assert!(report.completed, "{report}");
    assert_eq!(report.min_rumors_known, 131072, "knowledge must saturate");
    let mem = report.mem.unwrap();
    assert!(
        mem.peak_engine_bytes < 32 << 20,
        "peak {} bytes exceeds the 32 MiB budget ({mem:?})",
        mem.peak_engine_bytes
    );
    assert_eq!(mem.saturated_nodes, 131072);
    // A leaf holds two inline ids at most (its own + rumor 0 from the
    // hub's first delivery): the saturating merge is a fill entry that
    // turns the set full with no page built — never a dense
    // materialisation of the whole universe.  Only the hub's 32 pages can
    // hold a block.
    assert!(
        mem.pages_peak <= 32,
        "only the hub's pages may go dense, got {}",
        mem.pages_peak
    );
    assert!(
        elapsed < std::time::Duration::from_secs(120),
        "131072-node all-to-all took {elapsed:.2?} (budget 120s)"
    );
}

/// THE ISSUE wall-clock gate (release only): push–pull one-to-all on the
/// **131072-node star** must finish in under 2 s — and the same star driven
/// far past completion must be *event-bounded*, not round-bounded.
///
/// The second half is where the event-driven scheduler earns its keep: a
/// `FixedRounds(1_000_000)` run used to spin the full `O(n)` decision loop
/// for every one of a million rounds (measured ~30 min extrapolated at this
/// size; 191 s for 100k rounds at 65536 nodes), initiating ~10¹¹ pointless
/// saturated exchanges.  Now every node saturates within a few rounds, goes
/// [`Quiescent`](gossip_sim::Activity::Quiescent), the worklist empties, and
/// the engine fast-forwards the remaining ~10⁶ rounds in one jump — the
/// whole run is sub-second and reports `rounds_skipped > 0`.
#[cfg(not(debug_assertions))]
#[test]
fn one_to_all_on_a_131072_node_star_is_event_bounded() {
    let g = generators::star(131072, 1).unwrap();

    // (a) The < 2 s one-to-all gate.
    let started = std::time::Instant::now();
    let config = SimConfig::new(3)
        .termination(Termination::AllKnowRumorOf(NodeId::new(0)))
        .track_rumor(RumorId(0));
    let report = Simulation::new(&g, config).run(&mut RandomPushPull::new(&g));
    let elapsed = started.elapsed();
    assert!(report.completed, "{report}");
    let times = report.informed_times.unwrap();
    assert!(times.iter().all(Option::is_some));
    assert!(
        elapsed < std::time::Duration::from_secs(2),
        "131072-node one-to-all took {elapsed:.2?} (budget 2s)"
    );

    // (b) The same star, a million rounds of budget: event-bounded work.
    let started = std::time::Instant::now();
    let config = SimConfig::new(17).termination(Termination::FixedRounds(1_000_000));
    let report = Simulation::new(&g, config).run(&mut RandomPushPull::new(&g));
    let elapsed = started.elapsed();
    assert_eq!(report.rounds, 1_000_000);
    assert_eq!(report.min_rumors_known, 131072, "the star saturates early");
    let mem = report.mem.unwrap();
    assert!(
        mem.rounds_skipped > 990_000,
        "the quiescent endgame must fast-forward, got {mem:?}"
    );
    assert!(
        mem.rounds_simulated < 64,
        "only event rounds are walked, got {mem:?}"
    );
    assert_eq!(mem.active_final, 0, "every node ends quiescent");
    assert!(
        elapsed < std::time::Duration::from_secs(2),
        "131072-node million-round run took {elapsed:.2?} (budget 2s; \
         pre-scheduler engines needed ~half an hour)"
    );
}

/// The broadcast memory gate (release only): push–pull *one-to-all* on a
/// 65536-node random 8-regular graph.  A broadcast seeds only the source's
/// rumor, so the engine tracks one rumor instead of n; seeded all-to-all,
/// the same run needed over a gigabyte at 16384 nodes and ran out of memory
/// at 65536.  Measured at ~40 MB peak engine state, 17 rounds.
#[cfg(not(debug_assertions))]
#[test]
fn push_pull_broadcast_on_a_65536_node_random_regular_graph_stays_under_64_mib() {
    let mut rng = SmallRng::seed_from_u64(1);
    let g = generators::random_regular(65536, 8, 1, &mut rng).unwrap();
    let report = gossip_core::push_pull::broadcast(&g, NodeId::new(0), 7);
    assert!(report.completed, "the broadcast must finish: {report:?}");
    let mem = report.mem.unwrap();
    assert!(
        mem.peak_engine_bytes < 64 << 20,
        "65536-node broadcast peaked at {} bytes of engine state (budget 64 MiB)",
        mem.peak_engine_bytes
    );
}

/// THE PR-6 acceptance gate (release only): a *heavy* multi-phase protocol —
/// spanner broadcast, the paper's `O(D·log³ n)` algorithm — at **8192
/// nodes**, eight times past the old 1024-node cap.  Three walls had to fall
/// for this to run: the exact `O(n·m·log n)` all-pairs diameter the "known
/// D" entry point used to compute is now the constant-sweep diameter-bound
/// oracle; the RR-broadcast phase simulates over the materialised spanner
/// subgraph instead of carrying per-edge state for the full graph; and ℓ-DTG
/// no longer clones two rumor sets per initiated exchange (a snapshot is a
/// round, reconstructed from the delta window).  A 91×90 grid keeps the
/// diameter genuinely large (D ≈ 360), so every phase does real work.
#[cfg(not(debug_assertions))]
#[test]
fn spanner_broadcast_on_an_8192_node_grid_completes_within_budget() {
    let g = generators::grid(91, 90, 2).unwrap();
    assert!(g.node_count() >= 8190);
    let started = std::time::Instant::now();
    let report = gossip_core::spanner_broadcast::run_known_diameter_with(
        &g,
        gossip_core::diameter_bound(&g),
        21,
    );
    let elapsed = started.elapsed();
    assert!(report.completed, "all-to-all must saturate: {report:?}");
    assert!(report.phase_rounds("discovery") > 0);
    assert!(
        elapsed < std::time::Duration::from_secs(30),
        "8192-node spanner broadcast took {elapsed:.2?} (budget 30s; \
         the exact-diameter setup alone used to dwarf this)"
    );
}

/// THE ISSUE acceptance gate (release only): push–pull *one-to-all* on a
/// **2²⁰-node (1,048,576) star**, on the parallel engine — eight times past
/// the previous 131072-node tier.  The run is executed twice, on a 1-worker
/// and a 4-worker pool, and the two [`gossip_sim::RunReport`]s must be
/// **fully identical** (memory diagnostics included): per-(round, node) RNG
/// streams plus the canonical merge order make the report a pure function
/// of `(graph, config, seed)`, never of the pool.  On a machine with ≥ 4
/// cores the 4-worker run must also not be slower — the decision and merge
/// passes over a million-node worklist are where sharding pays.
#[cfg(not(debug_assertions))]
#[test]
fn sharded_one_to_all_on_a_million_node_star_is_thread_invariant() {
    let g = generators::star(1 << 20, 1).unwrap();
    let run = |threads: usize| {
        let config = SimConfig::new(3)
            .termination(Termination::AllKnowRumorOf(NodeId::new(0)))
            .track_rumor(RumorId(0))
            .threads(threads);
        let started = std::time::Instant::now();
        let report = Simulation::new(&g, config).run(&mut RandomPushPull::new(&g));
        (report, started.elapsed())
    };
    let (single, single_elapsed) = run(1);
    let (pooled, pooled_elapsed) = run(4);
    assert!(single.completed, "{single}");
    assert_eq!(
        single, pooled,
        "2^20-node report must be byte-identical across thread counts"
    );
    assert!(
        single_elapsed < std::time::Duration::from_secs(60),
        "2^20-node one-to-all took {single_elapsed:.2?} single-threaded (budget 60s)"
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= 4 && single_elapsed > std::time::Duration::from_millis(500) {
        // 5% slack: "improving with threads" must hold, noise must not flake.
        assert!(
            pooled_elapsed.as_secs_f64() < single_elapsed.as_secs_f64() * 1.05,
            "4 workers ({pooled_elapsed:.2?}) must not run slower than 1 ({single_elapsed:.2?})"
        );
    }
}

/// THE ISSUE acceptance gate (release only): push–pull *all-to-all* on the
/// **2²⁰-node star** on 4 workers — every node ends up knowing
/// all 2²⁰ rumors.  Dense bitsets would cost `2·n²/8` ≈ 275 GiB for sets and
/// shadows; the paged, saturation-collapsing layout must keep the
/// deterministic peak under 256 MiB (measured: 58.7 MB, 92.2 MB with a
/// heap page directory on every set; the transient is ~2 ids per node,
/// inline in its set's header, before the saturating merges flip pages
/// straight to the full sentinel), and the run must finish within the
/// wall-clock budget.
#[cfg(not(debug_assertions))]
#[test]
fn sharded_all_to_all_on_a_million_node_star_stays_within_budget() {
    let g = generators::star(1 << 20, 1).unwrap();
    let started = std::time::Instant::now();
    let config = SimConfig::new(19)
        .termination(Termination::AllKnowAll)
        .threads(4);
    let report = Simulation::new(&g, config).run(&mut RandomPushPull::new(&g));
    let elapsed = started.elapsed();
    assert!(report.completed, "{report}");
    assert_eq!(report.min_rumors_known, 1 << 20, "knowledge must saturate");
    let mem = report.mem.unwrap();
    assert!(
        mem.peak_engine_bytes < 256 << 20,
        "peak {} bytes exceeds the 256 MiB budget ({mem:?})",
        mem.peak_engine_bytes
    );
    assert_eq!(mem.saturated_nodes, 1 << 20);
    assert!(
        mem.pages_peak <= 256,
        "only the hub's 256 pages may go dense, got {}",
        mem.pages_peak
    );
    assert!(
        elapsed < std::time::Duration::from_secs(600),
        "2^20-node all-to-all took {elapsed:.2?} (budget 600s)"
    );
}

/// One-to-all on a 32768-node star: past the 10^4-node mark.  Termination is
/// immediate knowledge-wise (the hub relays the source rumor in one hop), so
/// per-node state stays small and the run is dominated by scheduling — the
/// path the calendar queue keeps O(completions).
#[test]
fn one_to_all_on_a_32768_node_star() {
    let g = generators::star(32768, 1).unwrap();
    let config = SimConfig::new(3)
        .termination(Termination::AllKnowRumorOf(NodeId::new(0)))
        .track_rumor(RumorId(0));
    let report = Simulation::new(&g, config).run(&mut RoundRobinFlood::new(&g));
    assert!(report.completed);
    assert!(report.rounds <= 4, "star one-to-all is O(1) rounds");
    let times = report.informed_times.unwrap();
    assert!(times.iter().all(Option::is_some));
}

/// A high-latency dumbbell at 2048 nodes: exercises the calendar queue with
/// long-lived in-flight exchanges (a bridge exchange is in flight for 64
/// rounds, so the window keeps 63 rounds of batches) and the
/// local-broadcast termination frontier at scale.
#[test]
fn local_broadcast_on_a_2048_node_dumbbell() {
    let g = generators::dumbbell(1024, 64).unwrap();
    let config = SimConfig::new(9)
        .termination(Termination::LocalBroadcast(1))
        .max_rounds(20_000);
    let report = Simulation::new(&g, config).run(&mut RandomPushPull::new(&g));
    assert!(report.completed, "{report}");
}

/// A latency of 2⁵³ rounds must cost nothing up front: the calendar holds
/// one entry per completion round in flight, whatever the latencies.  ℓ-DTG
/// local broadcast on a 64-node path of such edges runs in 2⁵⁵ + 1 rounds,
/// all but a few skipped.
#[test]
fn local_broadcast_over_2_pow_53_latency_edges_completes() {
    let latency = 1 << 53;
    let g = generators::path(64, latency).unwrap();
    let report = gossip_core::dtg::local_broadcast(&g, latency, 1);
    assert!(report.completed, "{report:?}");
    assert_eq!(report.rounds, (1 << 55) + 1);
    assert_eq!(report.activations, 256);
}

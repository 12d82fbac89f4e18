//! Quickstart: build a weighted graph, measure its weighted conductance, and
//! compare the paper's dissemination algorithms on it.
//!
//! Run with:
//!
//! ```text
//! cargo run --example quickstart
//! ```

use gossip_conductance::{analyze, Method};
use gossip_core::{pattern, push_pull, spanner_broadcast, unified};
use gossip_graph::{generators, metrics, NodeId};

fn main() {
    // A network that motivates the paper: two well-connected clusters (think
    // two racks or two regions) joined by a single slow link.
    let g = generators::dumbbell(8, 64).expect("valid parameters");
    let summary = metrics::summarize(&g);
    println!("graph: dumbbell of two 8-cliques, bridge latency 64");
    println!(
        "  n = {}, m = {}, max degree = {}, weighted diameter = {:?}",
        summary.nodes, summary.edges, summary.max_degree, summary.weighted_diameter
    );

    // Section 2: the weighted-conductance profile of the graph.
    let conductance = analyze(&g, Method::Exact).expect("graph is small enough for exact");
    println!("\nweighted conductance (Section 2):");
    println!(
        "  phi*      = {:.4}   (critical weighted conductance)",
        conductance.phi_star
    );
    println!(
        "  ell*      = {}       (critical latency)",
        conductance.ell_star
    );
    println!(
        "  phi_avg   = {:.4}   (average weighted conductance)",
        conductance.phi_avg
    );
    println!(
        "  Theorem 5: {:.4} <= {:.4} <= {:.4}  ({})",
        conductance.theorem5_lower(),
        conductance.phi_avg,
        conductance.theorem5_upper(),
        if conductance.theorem5_holds() {
            "holds"
        } else {
            "violated!"
        }
    );

    // Sections 4-6: the dissemination algorithms.
    let source = NodeId::new(0);
    println!("\ninformation dissemination from node {source}:");

    let pp = push_pull::broadcast(&g, source, 7);
    println!(
        "  push-pull (Thm 29):            {:>6} rounds (completed: {})",
        pp.rounds, pp.completed
    );

    let d = gossip_core::diameter_bound(&g);
    let sb = spanner_broadcast::run_known_diameter_with(&g, d, 7);
    println!(
        "  spanner broadcast (Thm 20/25): {:>6} rounds (completed: {})",
        sb.rounds, sb.completed
    );

    let pb = pattern::run_known_diameter_with(&g, d, 7);
    println!(
        "  pattern broadcast (Lem 26-28): {:>6} rounds (completed: {})",
        pb.rounds, pb.completed
    );

    let uni = unified::run_known_latencies_with(&g, source, d, 7);
    println!(
        "  unified (Thm 31):              {:>6} rounds, winner = {:?}",
        uni.rounds, uni.winner
    );

    println!("\nThe slow bridge makes the critical latency large, so the spanner/pattern");
    println!("route (which pays O(D polylog n)) competes with push-pull (which pays");
    println!("O((ell*/phi*) log n)) — exactly the trade-off the paper formalises.");
}

//! Datacenter replication: anti-entropy gossip across racks and regions.
//!
//! The classic motivation for gossip (Demers et al.'s epidemic replication) in
//! the setting the paper studies: links inside a rack are fast, links between
//! racks are slower, and the WAN links between the two regions are slower
//! still.  The example builds that three-tier topology, measures its critical
//! weighted conductance, and compares push–pull with the spanner route — the
//! regime where the unified algorithm's winner flips depending on how slow the
//! WAN is.
//!
//! ```text
//! cargo run --example datacenter_replication
//! ```

use gossip_conductance::{analyze, Method};
use gossip_core::{push_pull, spanner_broadcast, unified};
use gossip_graph::{metrics, GraphBuilder, Latency, NodeId};

/// The links of a ring over `k` members, as `(member, next)` pairs.  A
/// two-member ring is one link (its second would repeat the first), and a
/// lone member has none.
fn ring_links(k: usize) -> impl Iterator<Item = (usize, usize)> {
    let links = match k {
        0 | 1 => 0,
        2 => 1,
        _ => k,
    };
    (0..links).map(move |i| (i, (i + 1) % k))
}

/// Builds `regions × racks_per_region × servers_per_rack` servers.
/// Intra-rack edges have latency 1, intra-region rack-to-rack uplinks latency
/// `region_latency`, and the WAN links between region gateways `wan_latency`.
fn datacenter(
    regions: usize,
    racks_per_region: usize,
    servers_per_rack: usize,
    region_latency: Latency,
    wan_latency: Latency,
) -> gossip_graph::Graph {
    let servers_per_region = racks_per_region * servers_per_rack;
    let n = regions * servers_per_region;
    let mut b = GraphBuilder::new(n);
    let server = |region: usize, rack: usize, i: usize| {
        region * servers_per_region + rack * servers_per_rack + i
    };

    for region in 0..regions {
        for rack in 0..racks_per_region {
            // Full mesh inside a rack (top-of-rack switch).
            for i in 0..servers_per_rack {
                for j in (i + 1)..servers_per_rack {
                    b.add_edge(server(region, rack, i), server(region, rack, j), 1)
                        .unwrap();
                }
            }
        }
        // Rack leaders form a ring inside the region.
        for (rack, next) in ring_links(racks_per_region) {
            b.add_edge(
                server(region, rack, 0),
                server(region, next, 0),
                region_latency,
            )
            .unwrap();
        }
    }
    // Region gateways (rack 0, server 0 of each region) form a WAN ring.
    for (region, next) in ring_links(regions) {
        b.add_edge(server(region, 0, 0), server(next, 0, 0), wan_latency)
            .unwrap();
    }
    b.build_connected()
        .expect("datacenter topology is connected")
}

fn main() {
    println!("anti-entropy replication across 2 regions x 4 racks x 6 servers\n");
    println!(
        "{:>12} {:>12} {:>10} {:>10} {:>12} {:>14} {:>10}",
        "WAN latency", "diameter", "phi*", "ell*", "push-pull", "spanner route", "winner"
    );

    for wan_latency in [4u64, 32, 256] {
        let g = datacenter(2, 4, 6, 4, wan_latency);
        let d = metrics::weighted_diameter(&g).unwrap();
        let conductance = analyze(&g, Method::SweepCut).unwrap();

        let source = NodeId::new(0);
        let pp = push_pull::broadcast(&g, source, 11);
        let bound = gossip_core::diameter_bound(&g);
        let sb = spanner_broadcast::run_known_diameter_with(&g, bound, 11);
        let uni = unified::run_known_latencies_with(&g, source, bound, 11);

        println!(
            "{:>12} {:>12} {:>10.4} {:>10} {:>12} {:>14} {:>10}",
            wan_latency,
            d,
            conductance.phi_star,
            conductance.ell_star,
            format!("{} r", pp.rounds),
            format!("{} r", sb.rounds),
            match uni.winner {
                unified::Winner::PushPull => "push-pull",
                unified::Winner::SpannerRoute => "spanner",
            }
        );
    }

    println!("\nAs the WAN slows down, the critical latency ell* tracks it and push-pull's");
    println!("O((ell*/phi*) log n) cost grows, while the spanner route only pays the");
    println!("diameter once — the crossover the paper's unified bound (Theorem 31) predicts.");
}

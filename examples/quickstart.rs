//! Quickstart: build the three cost-effective diameter-two topologies,
//! inspect their cost/scale properties, and run a short uniform-traffic
//! simulation under adaptive routing on each.
//!
//! Run with: `cargo run --release --example quickstart`

use d2net::prelude::*;

fn main() {
    println!("== d2net quickstart ==\n");

    // 1. Build one instance of each topology family (reduced scale).
    let nets = vec![
        slim_fly(7, SlimFlyP::Floor),
        mlfm(8),
        oft(6),
        fat_tree2(16), // the classic reference design
    ];

    println!(
        "{:14} | {:>6} | {:>7} | {:>5} | {:>10} | {:>10}",
        "topology", "nodes", "routers", "radix", "ports/node", "links/node"
    );
    println!("{}", "-".repeat(70));
    for net in &nets {
        let n = net.num_nodes() as f64;
        println!(
            "{:14} | {:>6} | {:>7} | {:>5} | {:>10.2} | {:>10.2}",
            net.name(),
            net.num_nodes(),
            net.num_routers(),
            net.radix(0),
            net.total_ports() as f64 / n,
            net.total_links() as f64 / n,
        );
    }

    // 2. Verify the headline structural property: diameter two between
    //    all endpoint routers, for every topology.
    println!();
    for net in &nets {
        println!(
            "{:14} endpoint diameter = {}",
            net.name(),
            net.endpoint_diameter()
        );
    }

    // 3. Simulate 30 us of global uniform traffic at 60% load under
    //    adaptive (UGAL-L) routing. `run` takes a workload spec and an
    //    observer bundle; here the routing-decision ledger counts how
    //    often UGAL-L sent a packet the long way round.
    println!("\nuniform traffic at 60% load, UGAL-L adaptive routing:");
    println!(
        "{:14} | {:>9} | {:>12} | {:>9}",
        "topology", "accepted", "avg delay ns", "misroute%"
    );
    println!("{}", "-".repeat(55));
    let work = Synthetic::new(&SyntheticPattern::Uniform, 0.6, 30_000, 6_000);
    let obs = Observers::ledgered(LedgerConfig::default());
    for net in nets.iter().take(3) {
        let (_, algo) = best_adaptive(net);
        let policy = RoutePolicy::new(net, algo);
        let out = run(net, &policy, &work, SimConfig::default(), obs).expect("valid config");
        let (stats, ledger) = (out.stats, out.ledger.expect("ledger attached"));
        assert!(!stats.deadlocked);
        println!(
            "{:14} | {:>9.4} | {:>12.1} | {:>8.1}%",
            net.name(),
            stats.throughput,
            stats.avg_delay_ns,
            100.0 * ledger.indirect as f64 / ledger.decisions.max(1) as f64,
        );
    }

    println!("\nDone. See `examples/paper_figures.rs` for the full evaluation harness.");
}

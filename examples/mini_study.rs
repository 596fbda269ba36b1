//! A miniature version of the paper's Figure 4 study, run through the public
//! simulation API: throughput of the commutativity-only baseline vs the
//! recoverability scheduler on the read/write model as the multiprogramming
//! level grows.
//!
//! The full reproduction (all figures, paper-scale parameters) lives in the
//! `repro` binary of the `sbcc-experiments` crate; this example shows how to
//! drive the simulator directly from application code.
//!
//! Run with: `cargo run --release --example mini_study`

use sbcc::prelude::*;
use sbcc::sim::run_averaged;

fn main() {
    let mpl_levels = [10, 25, 50, 100, 200];
    let policies = [
        ConflictPolicy::CommutativityOnly,
        ConflictPolicy::Recoverability,
    ];

    println!("mini Figure-4 study: read/write model, infinite resources");
    println!("(5 000 completions per point, 2 runs — see `repro --figure 4` for full scale)\n");
    println!(
        "{:>6} {:>18} {:>18} {:>12}",
        "mpl", "commutativity", "recoverability", "speedup"
    );

    for mpl in mpl_levels {
        let mut row = Vec::new();
        for policy in policies {
            let params = SimParams::read_write(mpl, policy)
                .with_completions(5_000)
                .with_seed(7);
            let agg = run_averaged(&params, 2);
            row.push(agg.throughput.mean);
        }
        println!(
            "{:>6} {:>14.1} tps {:>14.1} tps {:>11.2}x",
            mpl,
            row[0],
            row[1],
            row[1] / row[0].max(f64::EPSILON)
        );
    }

    println!("\nA single detailed point (mpl = 50, recoverability):");
    let params = SimParams::read_write(50, ConflictPolicy::Recoverability).with_completions(5_000);
    let mut sim = Simulator::new(params.clone());
    let result = sim.run();
    println!("  {result}");
    println!(
        "  completions: {} ({} pseudo-commits at completion time)",
        result.completed, result.pseudo_commit_completions
    );

    // Shard-count sweep: the sharded kernel admits identically (the
    // differential suite pins that), so simulated throughput stays flat.
    // Wall-clock numbers live in `bench/` (`bash bench/run.sh`).
    println!("\nShard-count sweep (mpl = 50, recoverability):");
    println!("{:>8} {:>12} {:>14}", "shards", "tps", "blocking");
    for shards in [1usize, 2, 4, 8] {
        let r = Simulator::new(params.clone().with_shards(shards)).run();
        println!(
            "{:>8} {:>12.1} {:>14.3}",
            shards, r.throughput, r.blocking_ratio
        );
    }
}

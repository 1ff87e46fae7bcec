//! Explore the machine model: cache-latency staircase, pipelining gains,
//! atomic-throughput collapse, and predicted BFS rates for custom machines.
//!
//! ```text
//! cargo run --release --example machine_explorer [sockets] [cores_per_socket]
//! ```

use multicore_bfs::core::algo::level::{bfs_deterministic, VariantConfig};
use multicore_bfs::machine::model::MachineModel;
use multicore_bfs::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let sockets: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);
    let cores: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);

    for model in [MachineModel::nehalem_ep(), MachineModel::nehalem_ex()] {
        println!("== {} ==", model.spec.name);
        println!("  random-access latency staircase:");
        for shift in [12u32, 15, 18, 21, 23, 26, 30, 33] {
            let bytes = 1u64 << shift;
            println!(
                "    {:>8} B: {:>6.1} ns ({:>6.1} ns pipelined x16)",
                bytes,
                model.random_latency_ns(bytes),
                model.random_latency_ns(bytes) / model.pipeline_depth(16)
            );
        }
        println!("  fetch-and-add collapse across sockets:");
        for t in [1, 2, 4, 5, 8, 16] {
            println!(
                "    {t:>2} threads: {:>7.1} Mops/s",
                model.fetch_add_rate(t) / 1e6
            );
        }
    }

    // A custom machine: what would this algorithm do on it?
    let spec = MachineSpec::custom(
        &format!("hypothetical {sockets}x{cores}-core"),
        sockets,
        cores,
        2,
    );
    let model = MachineModel::with_spec(spec);
    println!("== {} ==", model.spec.name);
    println!("  building a 2^18-vertex uniform graph and predicting BFS rates ...");
    let graph = UniformBuilder::new(1 << 18, 8).seed(5).build();
    for threads in [1, cores, cores * sockets, 2 * cores * sockets] {
        let threads = threads.max(1);
        let config = if model.spec.sockets_used(threads) > 1 {
            VariantConfig::algorithm3(model.spec.sockets_used(threads))
        } else {
            VariantConfig::algorithm2()
        };
        let run = bfs_deterministic(&graph, 0, threads, config);
        let pred = model.predict(&run.profile);
        let b = pred.breakdown;
        println!(
            "    {threads:>3} threads ({} sockets): {:>8.1} ME/s — \
             {:.0}% memory, {:.0}% atomics, {:.0}% channels, {:.0}% barriers",
            model.spec.sockets_used(threads),
            pred.edges_per_second / 1e6,
            100.0 * b.memory,
            100.0 * b.atomics,
            100.0 * b.channels,
            100.0 * b.barriers,
        );
    }
}

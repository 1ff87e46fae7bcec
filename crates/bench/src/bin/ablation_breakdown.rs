//! Ablation cost breakdown: where the modelled cycles go for each
//! algorithm variant — the quantitative version of DESIGN.md's design-
//! choice inventory. Shows, e.g., Algorithm 1 drowning in atomics and
//! queue locks, Algorithm 2-across-sockets in coherence misses, and
//! Algorithm 3 trading those for channel work.

use mcbfs_bench::cli::Args;
use mcbfs_bench::workloads::fig5_case;
use mcbfs_bench::{scale_profile, sockets_for_threads};
use mcbfs_core::algo::level::{bfs_deterministic, VariantConfig};
use mcbfs_machine::model::MachineModel;

fn main() {
    let args = Args::parse("ablation_breakdown");
    let case = fig5_case(args.scale);
    eprintln!("# building {} (scaled /{}) ...", case.label, case.factor);
    let graph = case.build();
    let model = MachineModel::nehalem_ep();
    let threads = args.threads.as_ref().map(|t| t[0]).unwrap_or(16);
    let sockets = sockets_for_threads(&model.spec, threads);

    let variants: Vec<(&str, VariantConfig)> = vec![
        (
            "Alg1",
            VariantConfig {
                sockets,
                ..VariantConfig::algorithm1()
            },
        ),
        (
            "Alg2-shared",
            VariantConfig::algorithm2_multisocket(sockets),
        ),
        ("Alg3", VariantConfig::algorithm3(sockets)),
        (
            "Alg3-unbatched",
            VariantConfig {
                batch: 1,
                ..VariantConfig::algorithm3(sockets)
            },
        ),
    ];

    println!(
        "# cost composition, {} class, Nehalem EP model, {threads} threads / {sockets} sockets",
        case.label
    );
    println!(
        "{:<16} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10}",
        "variant", "scan%", "memory%", "atomics%", "queues%", "chans%", "barrier%", "ME/s"
    );
    for (name, config) in variants {
        let run = bfs_deterministic(&graph, 0, threads, config);
        let mut profile = scale_profile(run.profile, case.factor);
        profile.num_vertices = case.paper_n;
        profile.visited_bytes = if config.use_bitmap {
            case.paper_n.div_ceil(8)
        } else {
            case.paper_n * 4
        };
        let p = model.predict(&profile);
        let b = p.breakdown;
        println!(
            "{:<16} {:>7.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>10.1}",
            name,
            100.0 * b.edge_scan,
            100.0 * b.memory,
            100.0 * b.atomics,
            100.0 * b.queues,
            100.0 * b.channels,
            100.0 * b.barriers,
            p.edges_per_second / 1e6,
        );
    }
}

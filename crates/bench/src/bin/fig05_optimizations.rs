//! Fig. 5 — "Impact of various optimizations" (Nehalem EP).
//!
//! Processing rate vs. thread count for the optimization ladder the paper
//! climbs in §III:
//!
//! 1. Algorithm 1 (locked queues, unconditional atomics);
//! 2. + visited bitmap;
//! 3. + test-then-set (= Algorithm 2);
//! 4. Algorithm 2 stretched across sockets *without* channels;
//! 5. + inter-socket channels with batching (= Algorithm 3);
//! 6. Algorithm 3 with batching disabled (ablation).

use mcbfs_bench::cli::Args;
use mcbfs_bench::report::Report;
use mcbfs_bench::workloads::fig5_case;
use mcbfs_bench::{model_rate, sockets_for_threads};
use mcbfs_core::algo::level::VariantConfig;
use mcbfs_machine::model::MachineModel;

fn main() {
    let args = Args::parse("fig05_optimizations");
    let case = fig5_case(args.scale);
    eprintln!("# building {} (scaled /{}) ...", case.label, case.factor);
    let graph = case.build();
    let model = MachineModel::nehalem_ep();
    let threads = args.threads.clone().unwrap_or_else(|| vec![1, 2, 4, 8, 16]);

    let mut report = Report::new(
        &format!(
            "Fig. 5: optimization impact, {} class, Nehalem EP model",
            case.label
        ),
        "threads",
    );
    for &t in &threads {
        let sockets = sockets_for_threads(&model.spec, t);
        // Every rung is placed on the sockets the thread count actually
        // occupies (the shared-state rungs pay remote-access costs there,
        // exactly as the real machine would).
        let ladder: Vec<(&str, VariantConfig)> = vec![
            (
                "Alg1 locked-queues",
                VariantConfig {
                    sockets,
                    ..VariantConfig::algorithm1()
                },
            ),
            (
                "+bitmap",
                VariantConfig {
                    use_bitmap: true,
                    pipelined: true,
                    locked_queues: false,
                    sockets,
                    ..VariantConfig::algorithm1()
                },
            ),
            (
                "+test-then-set (Alg2)",
                VariantConfig::algorithm2_multisocket(sockets),
            ),
            (
                "+channels+batching (Alg3)",
                VariantConfig::algorithm3(sockets),
            ),
            (
                "Alg3 unbatched",
                VariantConfig {
                    batch: 1,
                    ..VariantConfig::algorithm3(sockets)
                },
            ),
        ];
        for (label, config) in ladder {
            let rate = model_rate(&graph, case.factor, case.paper_n, t, config, &model);
            report.push("fig05", label, t as f64, rate / 1e6, "ME/s");
        }
    }
    report.finish(&args.out);
}

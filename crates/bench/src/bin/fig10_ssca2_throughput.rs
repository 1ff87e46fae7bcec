//! Fig. 10 — "SCCA#2 benchmark, throughput with uniform graphs, Nehalem EX".
//!
//! One independent BFS instance per socket, each on its own graph; the
//! metric is the aggregate rate over all instances as the instance count
//! grows from 1 to 4 sockets. The paper's point: single-socket searches do
//! not interfere, so throughput scales with the socket count.

use mcbfs_bench::cli::{Args, Scale};
use mcbfs_bench::model_rate;
use mcbfs_bench::report::Report;
use mcbfs_bench::workloads::SMALL_DIVISOR;
use mcbfs_core::algo::level::VariantConfig;
use mcbfs_core::throughput::throughput_native;
use mcbfs_gen::prelude::*;
use mcbfs_machine::model::MachineModel;

fn main() {
    let args = Args::parse("fig10_ssca2_throughput");
    let model = MachineModel::nehalem_ex();
    let threads_per_socket = model.spec.cores_per_socket * model.spec.smt;
    let paper_n: u64 = 16 << 20;
    let (n, factor) = match args.scale {
        Scale::Paper => (paper_n as usize, 1),
        Scale::Small => ((paper_n / SMALL_DIVISOR) as usize, SMALL_DIVISOR),
    };
    let mut report = Report::new(
        "Fig. 10: SSCA#2-style throughput, one BFS instance per Nehalem EX socket",
        "instances",
    );

    for instances in 1..=model.spec.sockets {
        let graphs: Vec<_> = (0..instances)
            .map(|i| UniformBuilder::new(n, 8).seed(900 + i as u64).build())
            .collect();
        if args.mode.wants_model() {
            // Each instance runs Algorithm 2 confined to its own socket;
            // sockets do not interfere, so the aggregate is the sum of the
            // per-instance paper-scale rates.
            let aggregate: f64 = graphs
                .iter()
                .map(|g| {
                    model_rate(
                        g,
                        factor,
                        paper_n,
                        threads_per_socket,
                        VariantConfig::algorithm2(),
                        &model,
                    )
                })
                .sum();
            report.push(
                "fig10",
                "model (EX, 16 thr/socket)",
                instances as f64,
                aggregate / 1e6,
                "ME/s",
            );
        }
        if args.mode.wants_native() {
            let roots = vec![0u32; instances];
            let t = throughput_native(&graphs, &roots, 2);
            report.push(
                "fig10",
                "native (this host, 2 thr/inst)",
                instances as f64,
                t.aggregate_edges_per_second() / 1e6,
                "ME/s",
            );
        }
    }
    report.finish(&args.out);
}

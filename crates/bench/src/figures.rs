//! Shared driver for the four rate/scalability figures (6, 7, 8, 9).
//!
//! Each of those figures has three panels:
//!
//! * **(a)** processing rate vs. threads, one curve per edge count;
//! * **(b)** speedup vs. threads (rate relative to one thread);
//! * **(c)** rate sensitivity to the vertex count at fixed edge counts.
//!
//! The driver follows the paper's algorithm-selection policy: Algorithm 2
//! while all threads fit on one socket, Algorithm 3 with one group per
//! occupied socket beyond that.

use crate::cli::{Args, Mode};
use crate::report::Report;
use crate::workloads::{check_fits, rate_cases, size_cases, Family};
use crate::{model_rate, native_rate, sockets_for_threads};
use mcbfs_core::algo::level::VariantConfig;
use mcbfs_core::runner::Algorithm;
use mcbfs_machine::model::MachineModel;

/// Algorithm choice for `threads` on `model`'s machine, per the paper's
/// policy (channels off within one socket).
pub fn best_config(model: &MachineModel, threads: usize) -> VariantConfig {
    let sockets = sockets_for_threads(&model.spec, threads);
    if sockets <= 1 {
        VariantConfig::algorithm2()
    } else {
        VariantConfig::algorithm3(sockets)
    }
}

/// Native-mode equivalent of [`best_config`].
pub fn best_algorithm(model: &MachineModel, threads: usize) -> Algorithm {
    let sockets = sockets_for_threads(&model.spec, threads);
    if sockets <= 1 {
        Algorithm::SingleSocket
    } else {
        Algorithm::MultiSocket { sockets }
    }
}

/// Runs panels (a) and (b): rate and speedup vs. threads.
pub fn run_rate_and_speedup(
    experiment: &str,
    family: Family,
    model: &MachineModel,
    threads: &[usize],
    args: &Args,
) -> (Report, Report) {
    let mut rate_report = Report::new(
        &format!(
            "{experiment}a: {} graphs, {} — processing rate vs threads",
            family.name(),
            model.spec.name
        ),
        "threads",
    );
    let mut speedup_report = Report::new(
        &format!(
            "{experiment}b: {} graphs, {} — speedup vs threads",
            family.name(),
            model.spec.name
        ),
        "threads",
    );
    for case in rate_cases(family, args.scale) {
        check_fits(&case);
        eprintln!(
            "# building {} {} (scaled /{}) ...",
            family.name(),
            case.label,
            case.factor
        );
        let graph = case.build();
        if args.mode.wants_model() {
            let mut base = 0.0f64;
            for &t in threads {
                let rate = model_rate(
                    &graph,
                    case.factor,
                    case.paper_n,
                    t,
                    best_config(model, t),
                    model,
                );
                if t == threads[0] {
                    base = rate;
                }
                rate_report.push(experiment, &case.label, t as f64, rate / 1e6, "ME/s");
                speedup_report.push(
                    experiment,
                    &case.label,
                    t as f64,
                    if base > 0.0 { rate / base } else { 0.0 },
                    "x",
                );
            }
        }
        if args.mode.wants_native() {
            let host_threads: Vec<usize> = threads.iter().copied().filter(|&t| t <= 16).collect();
            let mut base = 0.0f64;
            for &t in &host_threads {
                let rate = native_rate(&graph, t, best_algorithm(model, t), 2);
                if t == host_threads[0] {
                    base = rate;
                }
                let label = format!("{} native", case.label);
                rate_report.push(experiment, &label, t as f64, rate / 1e6, "ME/s");
                speedup_report.push(
                    experiment,
                    &label,
                    t as f64,
                    if base > 0.0 { rate / base } else { 0.0 },
                    "x",
                );
            }
        }
    }
    (rate_report, speedup_report)
}

/// Runs panel (c): rate vs. vertex count at the machine's full thread count.
pub fn run_size_sensitivity(
    experiment: &str,
    family: Family,
    model: &MachineModel,
    args: &Args,
) -> Report {
    let threads = model.spec.total_threads();
    let mut report = Report::new(
        &format!(
            "{experiment}c: {} graphs, {} — rate vs graph size at {} threads",
            family.name(),
            model.spec.name,
            threads
        ),
        "paper vertices",
    );
    for case in size_cases(family, args.scale) {
        check_fits(&case);
        let graph = case.build();
        if args.mode.wants_model() {
            let rate = model_rate(
                &graph,
                case.factor,
                case.paper_n,
                threads,
                best_config(model, threads),
                model,
            );
            report.push(
                experiment,
                &case.label,
                case.paper_n as f64,
                rate / 1e6,
                "ME/s",
            );
        }
        if args.mode.wants_native() && matches!(args.mode, Mode::Native | Mode::Both) {
            let rate = native_rate(&graph, 8, best_algorithm(model, 8), 2);
            let label = format!("{} native", case.label);
            report.push(experiment, &label, case.paper_n as f64, rate / 1e6, "ME/s");
        }
    }
    report
}

/// Full a/b/c driver used by the four figure binaries.
pub fn run_figure(experiment: &str, family: Family, model: &MachineModel, args: &Args) {
    let default_threads: Vec<usize> = {
        let mut v = vec![1usize, 2, 4, 8, 16, 32, 64];
        v.retain(|&t| t <= model.spec.total_threads());
        v
    };
    let threads = args.threads.clone().unwrap_or(default_threads);
    let (a, b) = run_rate_and_speedup(experiment, family, model, &threads, args);
    a.print();
    println!();
    b.print();
    println!();
    let c = run_size_sensitivity(experiment, family, model, args);
    c.print();
    if let Some(path) = &args.out {
        let mut all = Report::new("combined", "x");
        for r in a.rows().iter().chain(b.rows()).chain(c.rows()) {
            all.push(&r.experiment, &r.series, r.x, r.y, &r.unit);
        }
        match all.write_json(path) {
            Ok(()) => eprintln!("# rows written to {}", path.display()),
            Err(e) => eprintln!("# JSON dump failed ({e}); continuing"),
        }
    }
}

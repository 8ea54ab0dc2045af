//! Property-based equivalence of the staged hardware-oracle pipeline.
//!
//! The staged [`fnas::latency::LatencyEvaluator`] memoises per-architecture
//! artifacts (design → task graph → schedule) at stage granularity, with
//! single-flight dedup, and serves three consumers (analytic latency,
//! cycle-accurate latency, deployment reports) from the same record. None
//! of that machinery may change a single bit of the answers: this suite
//! compares the staged path against a one-shot reference built directly
//! from the `fnas-fpga` primitives — the shape of the pre-refactor code —
//! for random architectures, at 0, 1, 2 and 8 workers.

use fnas::deploy::DeploymentReport;
use fnas::latency::LatencyEvaluator;
use fnas::mapping::arch_to_network;
use fnas_controller::arch::ChildArch;
use fnas_controller::space::SearchSpace;
use fnas_exec::Executor;
use fnas_fpga::analyzer::analyze;
use fnas_fpga::design::PipelineDesign;
use fnas_fpga::device::{FpgaCluster, FpgaDevice};
use fnas_fpga::sched::FnasScheduler;
use fnas_fpga::sim::simulate_design;
use fnas_fpga::taskgraph::TileTaskGraph;
use proptest::prelude::*;

const INPUT: (usize, usize, usize) = (1, 28, 28);
const WORKER_COUNTS: [usize; 4] = [0, 1, 2, 8];

/// Strategy: a random MNIST-space child (4 layers, 8 decision indices).
fn arb_arch() -> impl Strategy<Value = ChildArch> {
    prop::collection::vec(0usize..3, 8).prop_map(|idx| {
        ChildArch::from_indices(&SearchSpace::mnist(), &idx).expect("indices in menu range")
    })
}

/// The one-shot reference: build everything from the fpga primitives,
/// exactly once, with no caching layer in between. Returns
/// `(analytic_latency_bits, simulated_latency_bits)` or the error string.
fn one_shot_reference(arch: &ChildArch, cluster: &FpgaCluster) -> Result<(u64, u64), String> {
    let stringify = |e: &dyn std::fmt::Display| e.to_string();
    let network = arch_to_network(arch, INPUT).map_err(|e| stringify(&e))?;
    let design =
        PipelineDesign::generate_on_cluster(&network, cluster).map_err(|e| stringify(&e))?;
    let analytic = analyze(&design).map_err(|e| stringify(&e))?.latency;
    let graph = TileTaskGraph::from_design(&design).map_err(|e| stringify(&e))?;
    let schedule = FnasScheduler::new().schedule(&graph);
    let sim = simulate_design(&design, &graph, &schedule).map_err(|e| stringify(&e))?;
    Ok((analytic.get().to_bits(), sim.latency.get().to_bits()))
}

/// Serialises the observable surface of a deployment report so two reports
/// can be compared bit-for-bit (latencies via `to_bits`, tables as text).
fn deploy_fingerprint(report: &DeploymentReport) -> (u64, u64, String, String) {
    (
        report.analytic_latency().get().to_bits(),
        report.simulation().latency.get().to_bits(),
        report.summary(),
        report.layer_table().to_markdown(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For every random batch of architectures and every worker count, the
    /// staged/memoised evaluator returns bit-identical analytic latency,
    /// simulated latency and deployment records to the one-shot reference —
    /// and builds each unique design exactly once.
    #[test]
    fn staged_pipeline_matches_the_one_shot_path(
        archs in prop::collection::vec(arb_arch(), 1..5),
    ) {
        let cluster = FpgaCluster::single(FpgaDevice::pynq());
        let reference: Vec<Result<(u64, u64), String>> = archs
            .iter()
            .map(|a| one_shot_reference(a, &cluster))
            .collect();
        let mut unique: Vec<&ChildArch> = Vec::new();
        for a in &archs {
            if !unique.contains(&a) {
                unique.push(a);
            }
        }

        for workers in WORKER_COUNTS {
            // Fresh evaluator per arm: every worker count must reproduce
            // the reference from a cold cache.
            let eval = LatencyEvaluator::on_cluster(cluster.clone(), INPUT);
            let executor = Executor::with_workers(workers);

            // Two rounds so the second is answered entirely from cache.
            for round in 0..2 {
                let staged = executor.map(&archs, |_, arch| {
                    let analytic = eval.latency(arch).map_err(|e| e.to_string())?;
                    let simulated = eval.simulated_latency(arch).map_err(|e| e.to_string())?;
                    Ok::<_, String>((analytic.get().to_bits(), simulated.get().to_bits()))
                });
                for (child, (got, want)) in staged.iter().zip(&reference).enumerate() {
                    match (got, want) {
                        (Ok(g), Ok(w)) => prop_assert_eq!(
                            g, w,
                            "latency mismatch: child {} round {} workers {}",
                            child, round, workers
                        ),
                        (Err(_), Err(_)) => {}
                        (g, w) => prop_assert!(
                            false,
                            "error-shape mismatch: child {child} round {round} \
                             workers {workers}: staged {g:?} vs one-shot {w:?}"
                        ),
                    }
                }
            }

            // Deployment records: staged (shared artifacts) vs one-shot
            // regeneration, compared over their full rendered surface.
            for arch in &unique {
                let staged = eval.deploy(arch);
                let direct = DeploymentReport::generate(arch, &cluster, INPUT);
                match (staged, direct) {
                    (Ok(s), Ok(d)) => {
                        prop_assert_eq!(deploy_fingerprint(&s), deploy_fingerprint(&d))
                    }
                    (Err(_), Err(_)) => {}
                    (s, d) => prop_assert!(
                        false,
                        "deploy error-shape mismatch at {} workers: staged {:?} vs direct {:?}",
                        workers,
                        s.is_ok(),
                        d.is_ok()
                    ),
                }
            }

            // Stage-level memoisation held across all consumers and rounds.
            let buildable = unique
                .iter()
                .filter(|a| one_shot_reference(a, &cluster).is_ok())
                .count() as u64;
            prop_assert_eq!(
                eval.design_builds(),
                buildable,
                "each unique buildable arch must be designed exactly once \
                 (workers {})",
                workers
            );
            prop_assert_eq!(eval.analyzer_calls(), buildable);
        }
    }
}

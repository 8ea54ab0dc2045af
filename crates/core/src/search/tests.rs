//! Engine-level tests: pruning semantics, determinism across worker
//! counts, checkpoint/resume bit-identity, and fault isolation.

use fnas_controller::arch::ChildArch;
use fnas_fpga::device::FpgaCluster;
use fnas_fpga::Millis;
use rand::RngCore;

use crate::evaluator::{AccuracyEvaluator, SurrogateEvaluator};
use crate::experiment::ExperimentPreset;
use crate::{FnasError, Result};

use super::{BatchOptions, CheckpointOptions, SearchConfig, SearchMode, SearchOutcome, Searcher};

fn quick_preset() -> ExperimentPreset {
    ExperimentPreset::mnist().with_trials(12)
}

/// A surrogate search that updates the controller after every child.
fn per_child(cfg: &SearchConfig) -> SearchOutcome {
    Searcher::surrogate(cfg)
        .unwrap()
        .run_batched(cfg, &BatchOptions::sequential().with_batch_size(1))
        .unwrap()
}

#[test]
fn fnas_prunes_and_nas_does_not() {
    // A tight budget on MNIST: plenty of children violate it.
    let fnas_cfg = SearchConfig::fnas(quick_preset(), 2.0);
    let fnas = per_child(&fnas_cfg);
    assert!(fnas.pruned_count() > 0, "tight spec should prune children");

    let nas_cfg = SearchConfig::nas(quick_preset());
    let nas = per_child(&nas_cfg);
    assert_eq!(nas.pruned_count(), 0);
    assert_eq!(nas.trained_count(), 12);
}

#[test]
fn fnas_is_cheaper_than_nas_under_a_tight_spec() {
    let nas_cfg = SearchConfig::nas(quick_preset());
    let nas = per_child(&nas_cfg);
    let fnas_cfg = SearchConfig::fnas(quick_preset(), 2.0);
    let fnas = per_child(&fnas_cfg);
    assert!(
        fnas.cost().total_seconds() < nas.cost().total_seconds(),
        "fnas {} vs nas {}",
        fnas.cost(),
        nas.cost()
    );
}

#[test]
fn fnas_best_always_meets_the_spec() {
    let cfg = SearchConfig::fnas(quick_preset().with_trials(20), 5.0);
    let out = per_child(&cfg);
    if let Some(best) = out.best() {
        assert!(best.meets(Millis::new(5.0)));
        assert!(best.trained);
        assert!(best.accuracy.is_some());
    }
    // Every violated trial has a negative reward and was not trained.
    for t in out.trials() {
        if let Some(l) = t.latency {
            if l.get() > 5.0 {
                assert!(t.reward < 0.0);
                assert!(!t.trained);
                assert!(t.accuracy.is_none());
            }
        }
    }
}

#[test]
fn nas_best_is_global_accuracy_max() {
    let cfg = SearchConfig::nas(quick_preset());
    let out = per_child(&cfg);
    let best = out.best().unwrap();
    let max = out
        .trials()
        .iter()
        .filter_map(|t| t.accuracy)
        .fold(0.0f32, f32::max);
    assert_eq!(best.accuracy.unwrap(), max);
}

#[test]
fn runs_are_reproducible_under_a_seed() {
    let run = || {
        let cfg = SearchConfig::fnas(quick_preset(), 5.0).with_seed(77);
        let out = per_child(&cfg);
        out.trials()
            .iter()
            .map(|t| (t.arch.describe(), t.reward.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn looser_specs_prune_less() {
    let count_pruned = |ms: f64| {
        let cfg = SearchConfig::fnas(quick_preset().with_trials(30), ms);
        per_child(&cfg).pruned_count()
    };
    assert!(count_pruned(2.0) >= count_pruned(20.0));
}

#[test]
fn summary_table_has_one_row_per_trial() {
    let cfg = SearchConfig::fnas(quick_preset(), 5.0);
    let out = per_child(&cfg);
    let table = out.summary_table();
    assert_eq!(table.len(), out.trials().len());
    let md = table.to_markdown();
    assert!(md.contains("architecture"));
}

#[test]
fn pareto_front_is_monotone_and_non_dominated() {
    let cfg = SearchConfig::fnas(quick_preset().with_trials(25), 20.0);
    let out = per_child(&cfg);
    let front = out.pareto_front();
    assert!(!front.is_empty());
    // Latency strictly increasing, accuracy strictly increasing.
    for pair in front.windows(2) {
        assert!(pair[0].latency.unwrap().get() < pair[1].latency.unwrap().get());
        assert!(pair[0].accuracy.unwrap() < pair[1].accuracy.unwrap());
    }
    // No trained trial dominates a front member.
    for f in &front {
        for t in out.trials() {
            if let (Some(acc), Some(lat)) = (t.accuracy, t.latency) {
                let dominates = acc >= f.accuracy.unwrap()
                    && lat.get() <= f.latency.unwrap().get()
                    && (acc > f.accuracy.unwrap() || lat.get() < f.latency.unwrap().get());
                assert!(
                    !dominates,
                    "{} dominates {}",
                    t.arch.describe(),
                    f.arch.describe()
                );
            }
        }
    }
}

#[test]
fn required_accuracy_stops_the_search_early() {
    // A very permissive rA: the first trained child satisfies it.
    let cfg = SearchConfig::nas(quick_preset().with_trials(50)).with_required_accuracy(0.5);
    let out = per_child(&cfg);
    assert!(out.trials().len() < 50, "ran {} trials", out.trials().len());
    let last = out.trials().last().unwrap();
    assert!(last.accuracy.unwrap() >= 0.5);
}

#[test]
fn cluster_target_loosens_the_same_budget() {
    // The same tight budget prunes fewer children on a 4-board platform.
    use fnas_fpga::device::FpgaDevice;
    let pruned_on = |boards: usize| {
        let mut cfg = SearchConfig::fnas(quick_preset().with_trials(20), 3.0).with_seed(7);
        if boards > 1 {
            cfg = cfg.on_cluster(
                FpgaCluster::homogeneous(FpgaDevice::xc7z020(), boards, 32.0)
                    .expect("valid cluster"),
            );
        }
        per_child(&cfg).pruned_count()
    };
    assert!(pruned_on(4) <= pruned_on(1));
}

fn batched_trace(cfg: &SearchConfig, workers: usize) -> Vec<(String, u32, u64)> {
    let opts = BatchOptions::sequential()
        .with_workers(workers)
        .with_batch_size(6);
    let out = Searcher::surrogate(cfg)
        .unwrap()
        .run_batched(cfg, &opts)
        .unwrap();
    out.trials()
        .iter()
        .map(|t| {
            (
                t.arch.describe(),
                t.reward.to_bits(),
                t.latency.map_or(0, |l| l.get().to_bits()),
            )
        })
        .collect()
}

#[test]
fn worker_count_does_not_change_batched_results() {
    let cfg = SearchConfig::fnas(quick_preset().with_trials(18), 5.0).with_seed(21);
    let sequential = batched_trace(&cfg, 0);
    for workers in [1, 2, 8] {
        assert_eq!(
            batched_trace(&cfg, workers),
            sequential,
            "workers = {workers}"
        );
    }
}

#[test]
fn batched_runs_all_trials_and_reports_telemetry() {
    // The second input is long enough for the controller to revisit
    // architectures, so both memo caches must see hits; the first is not.
    let opts = BatchOptions::sequential().with_batch_size(8);
    for (trials, required_ms, seed, revisits) in [(20, 5.0, 3, false), (96, 10.0, 11, true)] {
        let cfg =
            SearchConfig::fnas(quick_preset().with_trials(trials), required_ms).with_seed(seed);
        let out = Searcher::surrogate(&cfg)
            .unwrap()
            .run_batched(&cfg, &opts)
            .unwrap();
        assert_eq!(out.trials().len(), trials);
        // Indices are contiguous exploration order.
        for (i, t) in out.trials().iter().enumerate() {
            assert_eq!(t.index, i);
        }
        let t = out.telemetry();
        assert_eq!(t.children_sampled, trials as u64);
        assert_eq!(t.episodes, trials.div_ceil(8) as u64);
        assert_eq!(
            t.children_pruned + t.children_trained + t.children_unbuildable,
            trials as u64
        );
        assert_eq!(t.children_pruned, out.pruned_count() as u64);
        assert_eq!(t.children_trained, out.trained_count() as u64);
        // The surrogate is deterministic, so revisited architectures hit
        // the accuracy cache; every lookup is counted one way or the other.
        assert_eq!(
            t.accuracy_cache_hits + t.accuracy_cache_misses,
            t.train_calls
        );
        // One latency lookup per child, whether the memo or the pool answers.
        assert_eq!(
            t.latency_cache_hits + t.latency_cache_misses,
            t.children_sampled
        );
        assert!(t.latency_cache_misses > 0);
        assert_eq!(t.latency_cache_hits > 0, revisits, "{trials} trials");
        assert_eq!(t.accuracy_cache_hits > 0, revisits, "{trials} trials");
    }
}

#[test]
fn batched_respects_required_accuracy_early_stop() {
    let opts = BatchOptions::sequential().with_batch_size(4);
    // A permissive rA stops the search early; an unreachable one never
    // triggers. A 2^40-trial budget that stops early must not have
    // reserved room for every trial up front.
    for (trials, ra, stops) in [(50, 0.5, true), (50, 2.0, false), (1 << 40, 0.5, true)] {
        let cfg = SearchConfig::nas(ExperimentPreset::mnist().with_trials(trials))
            .with_required_accuracy(ra);
        let out = Searcher::surrogate(&cfg)
            .unwrap()
            .run_batched(&cfg, &opts)
            .unwrap();
        let ran = out.trials().len();
        assert_eq!(ran < trials, stops, "rA {ra}: ran {ran} of {trials} trials");
        if stops {
            assert!(out.trials().last().unwrap().accuracy.unwrap() >= ra);
        }
    }
}

#[test]
fn batch_options_accessors_and_clamping() {
    let opts = BatchOptions::sequential();
    assert_eq!(opts.workers(), 0);
    assert_eq!(opts.batch_size(), BatchOptions::DEFAULT_BATCH_SIZE);
    assert_eq!(opts.with_batch_size(0).batch_size(), 1);
    assert_eq!(opts.with_workers(4).workers(), 4);
}

/// Everything that must be bit-identical across worker counts,
/// checkpointing, and resume: trial records, accumulated cost, and the
/// logical telemetry counters. Cache traffic, wall times and
/// checkpoint-write counts are process-local and deliberately omitted.
fn fingerprint(out: &SearchOutcome) -> Vec<String> {
    let mut v: Vec<String> = out
        .trials()
        .iter()
        .map(|t| {
            format!(
                "{} r{:08x} l{:016x} a{:08x} t{}",
                t.arch.describe(),
                t.reward.to_bits(),
                t.latency.map_or(0, |l| l.get().to_bits()),
                t.accuracy.map_or(0, |a| a.to_bits()),
                t.trained,
            )
        })
        .collect();
    v.push(format!(
        "cost {:016x} {:016x}",
        out.cost().training_seconds.to_bits(),
        out.cost().analyzer_seconds.to_bits()
    ));
    let t = out.telemetry();
    v.push(format!(
        "tel {} {} {} {} {} {} {} {} {} {}",
        t.children_sampled,
        t.children_pruned,
        t.children_trained,
        t.children_unbuildable,
        t.children_failed,
        t.episodes,
        t.train_calls,
        t.panics_caught,
        t.retries,
        t.quarantined,
    ));
    v
}

/// One child per episode on configs no other pin covers: each digest folds
/// the trial records, the cost bits and the logical counters.
#[test]
fn one_child_per_episode_outputs_are_pinned() {
    use fnas_exec::hash::{fnv1a, FNV_OFFSET};
    use fnas_fpga::device::FpgaDevice;
    let cluster = FpgaCluster::homogeneous(FpgaDevice::xc7z020(), 4, 32.0).expect("valid cluster");
    let imagenet = ExperimentPreset::imagenet().with_trials(8);
    let ts1 = imagenet.ts(1).get();
    let cases = [
        (
            "fnas without pruning",
            SearchConfig::fnas(quick_preset(), 2.0).with_pruning(false),
            0x3ae8_20e1_c4f0_f248,
        ),
        (
            "nas with a reachable rA",
            SearchConfig::nas(quick_preset().with_trials(30)).with_required_accuracy(0.994),
            0x5b9b_e690_5239_2d55,
        ),
        (
            "fnas on a 4-board cluster",
            SearchConfig::fnas(quick_preset(), 3.0).on_cluster(cluster),
            0x011a_5e47_9f80_93d8,
        ),
        (
            "imagenet at TS1",
            SearchConfig::fnas(imagenet, ts1),
            0xa60c_704b_fb05_6619,
        ),
    ];
    for (name, cfg, want) in cases {
        let out = per_child(&cfg);
        let digest = fingerprint(&out).iter().fold(FNV_OFFSET, |h, line| {
            fnv1a(fnv1a(h, line.as_bytes()), b"\n")
        });
        assert_eq!(digest, want, "{name}: {digest:#018x}");
    }
}

#[test]
fn checkpoint_and_resume_are_bit_identical_for_any_worker_count() {
    let dir = std::env::temp_dir().join("fnas-search-ckpt-test");
    std::fs::create_dir_all(&dir).unwrap();
    let full = SearchConfig::fnas(quick_preset().with_trials(24), 5.0).with_seed(33);
    for workers in [0usize, 1, 2, 8] {
        let opts = BatchOptions::sequential()
            .with_workers(workers)
            .with_batch_size(6);
        let reference = Searcher::surrogate(&full)
            .unwrap()
            .run_batched(&full, &opts)
            .unwrap();
        // Checkpointing along the way must not perturb results.
        let path = dir.join(format!("w{workers}.ckpt"));
        let ckpt = CheckpointOptions::new(&path);
        let checked = Searcher::surrogate(&full)
            .unwrap()
            .run_batched_checkpointed(&full, &opts, &ckpt)
            .unwrap();
        assert_eq!(
            fingerprint(&checked),
            fingerprint(&reference),
            "checkpointed run, workers {workers}"
        );
        assert_eq!(checked.telemetry().checkpoints_written, 4);
        // Simulate a kill after episode 2: run only the 12-trial
        // prefix under the same seed, leaving its checkpoint behind...
        let prefix = SearchConfig::fnas(quick_preset().with_trials(12), 5.0).with_seed(33);
        Searcher::surrogate(&prefix)
            .unwrap()
            .run_batched_checkpointed(&prefix, &opts, &ckpt)
            .unwrap();
        // ...then resume the full run in a FRESH searcher (cold memo
        // caches — the cache-transparency invariant keeps results
        // identical anyway).
        let resumed = Searcher::surrogate(&full)
            .unwrap()
            .resume_batched(&full, &opts, &ckpt)
            .unwrap();
        assert_eq!(
            fingerprint(&resumed),
            fingerprint(&reference),
            "resumed run, workers {workers}"
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn resume_refuses_a_checkpoint_from_a_different_seed() {
    let dir = std::env::temp_dir().join("fnas-search-ckpt-seed-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mismatch.ckpt");
    let ckpt = CheckpointOptions::new(&path);
    let opts = BatchOptions::sequential().with_batch_size(6);
    let cfg = SearchConfig::fnas(quick_preset(), 5.0).with_seed(1);
    Searcher::surrogate(&cfg)
        .unwrap()
        .run_batched_checkpointed(&cfg, &opts, &ckpt)
        .unwrap();
    let other = SearchConfig::fnas(quick_preset(), 5.0).with_seed(2);
    let err = Searcher::surrogate(&other)
        .unwrap()
        .resume_batched(&other, &opts, &ckpt)
        .unwrap_err();
    assert!(err.to_string().contains("seed"), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn checkpoint_rotation_honours_the_retention_policy() {
    use super::CheckpointPolicy;
    let root = std::env::temp_dir().join(format!("fnas-ckpt-rotate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    // 24 trials in batches of 6 → 4 episodes → stamped files ep1..ep4.
    let cfg = SearchConfig::fnas(quick_preset().with_trials(24), 5.0).with_seed(33);
    let opts = BatchOptions::sequential().with_batch_size(6);
    let stamped = |dir: &std::path::Path| {
        let mut eps: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("search.ep"))
            .collect();
        eps.sort();
        eps
    };

    for (policy, expected) in [
        (CheckpointPolicy::LiveOnly, vec![]),
        (
            CheckpointPolicy::KeepAll,
            vec![
                "search.ep00000001.ckpt".to_string(),
                "search.ep00000002.ckpt".to_string(),
                "search.ep00000003.ckpt".to_string(),
                "search.ep00000004.ckpt".to_string(),
            ],
        ),
        (
            CheckpointPolicy::keep_last(2),
            vec![
                "search.ep00000003.ckpt".to_string(),
                "search.ep00000004.ckpt".to_string(),
            ],
        ),
    ] {
        let dir = root.join(format!("{policy:?}").to_lowercase());
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = CheckpointOptions::new(dir.join("search.ckpt")).with_policy(policy);
        Searcher::surrogate(&cfg)
            .unwrap()
            .run_batched_checkpointed(&cfg, &opts, &ckpt)
            .unwrap();
        assert_eq!(stamped(&dir), expected, "{policy:?}");
        // The newest stamped snapshot is the live checkpoint, byte for
        // byte; every retained one still decodes.
        if let Some(latest) = expected.last() {
            assert_eq!(
                std::fs::read(dir.join(latest)).unwrap(),
                std::fs::read(dir.join("search.ckpt")).unwrap(),
                "{policy:?}"
            );
            for name in &expected {
                crate::checkpoint::SearchCheckpoint::load(&dir.join(name)).unwrap();
            }
        }
    }

    // Zero-history retention is spelled LiveOnly; keep_last clamps to 1.
    assert_eq!(
        CheckpointPolicy::keep_last(0),
        CheckpointPolicy::KeepLast(1)
    );
    std::fs::remove_dir_all(&root).ok();
}

/// Oracle that fails exactly one scripted architecture.
#[derive(Debug)]
struct FailOn {
    inner: SurrogateEvaluator,
    victim: ChildArch,
    as_nn: bool,
}

impl AccuracyEvaluator for FailOn {
    fn evaluate(&self, arch: &ChildArch, rng: &mut dyn RngCore) -> Result<f32> {
        if *arch == self.victim {
            return Err(if self.as_nn {
                FnasError::Nn(fnas_nn::NnError::InvalidConfig {
                    what: "scripted build failure".to_string(),
                })
            } else {
                FnasError::Oracle {
                    what: "scripted oracle failure".to_string(),
                    transient: false,
                }
            });
        }
        self.inner.evaluate(arch, rng)
    }

    fn name(&self) -> &'static str {
        "fail-on"
    }
}

#[test]
fn mid_batch_oracle_error_does_not_perturb_siblings() {
    let cfg = SearchConfig::nas(quick_preset()).with_seed(9);
    let opts = BatchOptions::sequential()
        .with_batch_size(6)
        .with_workers(2);
    let reference = Searcher::surrogate(&cfg)
        .unwrap()
        .run_batched(&cfg, &opts)
        .unwrap();
    // Victim: a first-episode child whose architecture is unique
    // within that episode (duplicates would fail alongside it).
    let first = &reference.trials()[..6];
    let victim_idx = (0..6)
        .find(|&i| {
            first
                .iter()
                .enumerate()
                .all(|(j, t)| j == i || t.arch != first[i].arch)
        })
        .expect("some first-episode arch is unique");
    let victim = first[victim_idx].arch.clone();
    for as_nn in [false, true] {
        let eval = FailOn {
            inner: SurrogateEvaluator::new(cfg.preset().calibration()),
            victim: victim.clone(),
            as_nn,
        };
        let out = Searcher::with_evaluator(&cfg, Box::new(eval))
            .unwrap()
            .run_batched(&cfg, &opts)
            .unwrap();
        assert_eq!(out.trials().len(), reference.trials().len());
        let t = &out.trials()[victim_idx];
        assert_eq!(t.arch, victim);
        assert_eq!(t.accuracy, None);
        assert!(!t.trained);
        assert!(t.reward <= -2.0 + f32::EPSILON);
        if as_nn {
            assert!(out.telemetry().children_unbuildable >= 1);
        } else {
            assert!(out.telemetry().children_failed >= 1);
        }
        // Sibling seeds and results are untouched: same architectures,
        // latencies and accuracies bit-for-bit. Siblings *before* the
        // victim match completely; those after may see a different
        // reward only through the (serial) EMA baseline, which the
        // failed victim legitimately did not feed.
        for (i, sib) in first.iter().enumerate() {
            if i == victim_idx {
                continue;
            }
            let got = &out.trials()[i];
            assert_eq!(got.arch, sib.arch, "sibling {i} arch perturbed");
            assert_eq!(got.latency, sib.latency, "sibling {i} latency perturbed");
            assert_eq!(got.accuracy, sib.accuracy, "sibling {i} accuracy perturbed");
            assert_eq!(got.trained, sib.trained, "sibling {i} trained perturbed");
            if i < victim_idx {
                assert_eq!(got, sib, "pre-victim sibling {i} perturbed");
            }
        }
        // The trajectory may diverge *after* the victim's episode (the
        // controller saw a different reward), but the run completes.
    }
}

#[test]
fn chaos_run_completes_with_finite_rewards_and_fault_telemetry() {
    use crate::resilience::{FaultInjector, FaultPlan, ResilientEvaluator, RetryPolicy};
    let cfg = SearchConfig::nas(quick_preset().with_trials(24)).with_seed(5);
    let chaos_searcher = || {
        let inner = SurrogateEvaluator::new(cfg.preset().calibration());
        let injector = FaultInjector::new(
            Box::new(inner),
            FaultPlan {
                panic_rate: 0.05,
                transient_rate: 0.20,
                nan_rate: 0.05,
            },
        );
        let oracle = ResilientEvaluator::new(Box::new(injector), RetryPolicy::default());
        Searcher::with_evaluator(&cfg, Box::new(oracle)).unwrap()
    };
    // Injected panics are expected here; keep them off the test output.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let run = |workers: usize| {
        let opts = BatchOptions::sequential()
            .with_batch_size(8)
            .with_workers(workers);
        chaos_searcher().run_batched(&cfg, &opts)
    };
    let sequential = run(0);
    let pooled = run(8);
    std::panic::set_hook(prev);
    let sequential = sequential.unwrap();
    let pooled = pooled.unwrap();
    assert_eq!(sequential.trials().len(), 24, "chaos must not lose trials");
    assert!(sequential.trials().iter().all(|t| t.reward.is_finite()));
    let t = sequential.telemetry();
    assert!(
        t.retries > 0 || t.children_failed > 0 || t.panics_caught > 0,
        "these rates should have injected something: {t:?}"
    );
    // Chaos is deterministic in the per-child streams: the pooled run
    // reproduces the sequential one bit-for-bit, faults included.
    assert_eq!(fingerprint(&pooled), fingerprint(&sequential));
}

#[test]
fn mode_accessors() {
    assert_eq!(SearchMode::Nas.required_latency(), None);
    let m = SearchMode::Fnas {
        required: Millis::new(3.0),
    };
    assert_eq!(m.required_latency().unwrap().get(), 3.0);
    let cfg = SearchConfig::fnas(quick_preset(), 3.0);
    assert!(matches!(cfg.mode(), SearchMode::Fnas { .. }));
    assert_eq!(SearchConfig::nas(quick_preset()).mode(), SearchMode::Nas);
}

#[test]
fn oracle_is_reachable_and_consistent_with_the_run() {
    // The unified oracle hands back the same staged latency the engine
    // recorded, without a second design build.
    let cfg = SearchConfig::fnas(quick_preset(), 5.0).with_seed(11);
    let opts = BatchOptions::sequential().with_batch_size(6);
    let mut searcher = Searcher::surrogate(&cfg).unwrap();
    let out = searcher.run_batched(&cfg, &opts).unwrap();
    let builds = searcher.oracle().latency_eval().design_builds();
    for t in out.trials() {
        if let Some(l) = t.latency {
            let again = searcher.oracle().child_latency(&t.arch).unwrap();
            assert_eq!(again.get(), l.get());
        }
    }
    assert_eq!(
        searcher.oracle().latency_eval().design_builds(),
        builds,
        "re-asking the oracle must not rebuild designs"
    );
}

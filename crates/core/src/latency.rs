//! Staged, cached child-network latency evaluation through the FNAS tool.
//!
//! Every controller proposal goes FNAS-Design → FNAS-GG → FNAS-Sched →
//! FNAS-Analyzer (components ➀–➃) to get an inference latency *without
//! training and without HLS/RTL generation* — the property that makes the
//! whole framework fast. The evaluator memoises that pipeline at **stage
//! granularity**: a [`HwArtifacts`] record per architecture (design built
//! once, graph + schedule materialised lazily), an [`AnalyzerReport`] per
//! architecture, and a simulated latency per architecture — each in its
//! own lock-striped [`ShardedCache`] with single-flight dedup, so the
//! batch engine's workers share one evaluator without serialising on a
//! single map lock and without ever rebuilding a stage another consumer
//! already produced. [`LatencyEvaluator::latency`] prices a child with
//! the analyzer, [`LatencyEvaluator::simulated_latency`] with the cycle
//! simulator.
//!
//! The evaluator also meters the lowering: analyzer calls and per-stage
//! wall time (design / taskgraph / schedule / sim) accumulate in its own
//! [`SearchTelemetry`] meters, read with the cache and store traffic
//! through [`LatencyEvaluator::meters`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fnas_controller::arch::ChildArch;
use fnas_exec::{SearchTelemetry, ShardedCache, TelemetrySnapshot};
use fnas_fpga::analyzer::AnalyzerReport;
use fnas_fpga::artifacts::{canonical_pipeline_fingerprint, HwArtifacts};
use fnas_fpga::device::{FpgaCluster, FpgaDevice};
use fnas_fpga::Millis;
use fnas_store::{digest128, Backend, CacheKey, NullStore, Store, StoreCounters};

use crate::deploy::DeploymentReport;
use crate::mapping::arch_to_network;
use crate::persist;
use crate::Result;

/// Latency oracle for child architectures on a fixed platform.
///
/// Thread-safe: every lookup takes `&self` and may be called from several
/// workers at once against one shared evaluator. The stage counters
/// ([`LatencyEvaluator::design_builds`],
/// [`LatencyEvaluator::analyzer_calls`], [`LatencyEvaluator::sim_calls`])
/// are monotonic `u64`s, wide enough not to overflow even on 32-bit
/// targets, and count *uncached* stage executions — with single-flight
/// memoisation each architecture contributes at most one to each, plus
/// one simulation per [`LatencyEvaluator::deploy`], whose traced
/// simulation is not memoised.
///
/// # Examples
///
/// ```
/// use fnas::latency::LatencyEvaluator;
/// use fnas_controller::arch::{ChildArch, LayerChoice};
/// use fnas_fpga::device::FpgaDevice;
///
/// # fn main() -> Result<(), fnas::FnasError> {
/// let eval = LatencyEvaluator::new(FpgaDevice::pynq(), (1, 28, 28));
/// let arch = ChildArch::new(vec![LayerChoice { filter_size: 5, num_filters: 9 }])?;
/// let ms = eval.latency(&arch)?;
/// assert!(ms.get() > 0.0);
/// assert_eq!(eval.analyzer_calls(), 1);
/// let _ = eval.latency(&arch)?; // cached
/// assert_eq!(eval.analyzer_calls(), 1);
/// assert_eq!((eval.cache_hits(), eval.cache_misses()), (1, 1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct LatencyEvaluator {
    cluster: FpgaCluster,
    input: (usize, usize, usize),
    /// Stage 1–3 record per architecture (design eager, graph + schedule
    /// lazy inside the artifact).
    artifacts: ShardedCache<ChildArch, Arc<HwArtifacts>>,
    /// Stage 4 (analytic) result per architecture.
    reports: ShardedCache<ChildArch, Arc<AnalyzerReport>>,
    /// Cycle-accurate latency per architecture.
    simulated: ShardedCache<ChildArch, Millis>,
    /// Persistent L2 consulted on L1 misses (DESIGN.md §14). Defaults to
    /// the inert [`NullStore`], so persistence is strictly opt-in.
    store: Arc<dyn Store>,
    /// Digest of the cluster's canonical encoding, fixed at construction.
    device_digest: u128,
    /// Canonical pipeline fingerprint, fixed at construction.
    pipeline_digest: u64,
    design_builds: AtomicU64,
    sim_calls: AtomicU64,
    /// Analyzer calls and stage wall times.
    meters: SearchTelemetry,
}

impl LatencyEvaluator {
    /// Creates an evaluator for a single device and input shape
    /// `(channels, height, width)`.
    pub fn new(device: FpgaDevice, input: (usize, usize, usize)) -> Self {
        LatencyEvaluator::on_cluster(FpgaCluster::single(device), input)
    }

    /// Creates an evaluator for a multi-FPGA cluster.
    pub fn on_cluster(cluster: FpgaCluster, input: (usize, usize, usize)) -> Self {
        let device_digest = digest128(&persist::cluster_bytes(&cluster));
        LatencyEvaluator {
            cluster,
            input,
            artifacts: ShardedCache::new(),
            reports: ShardedCache::new(),
            simulated: ShardedCache::new(),
            store: Arc::new(NullStore),
            device_digest,
            pipeline_digest: canonical_pipeline_fingerprint(),
            design_builds: AtomicU64::new(0),
            sim_calls: AtomicU64::new(0),
            meters: SearchTelemetry::new(),
        }
    }

    /// Attaches a persistent store as the L2 under the in-memory caches.
    ///
    /// Lookup order becomes L1 (sharded in-memory) → L2 (`store`) →
    /// compute, with write-through to the store on compute. The store is
    /// purely a cache: it never changes results (records are
    /// checksum-verified and key-matched, and a bad record is recomputed),
    /// only how often the design/analyzer/simulator stages actually run.
    pub fn set_store(&mut self, store: Arc<dyn Store>) {
        self.store = store;
    }

    /// Builder-style variant of [`LatencyEvaluator::set_store`].
    #[must_use]
    pub fn with_store(mut self, store: Arc<dyn Store>) -> Self {
        self.set_store(store);
        self
    }

    /// The attached persistent store (the inert default unless
    /// [`LatencyEvaluator::set_store`] was called).
    pub fn store(&self) -> &Arc<dyn Store> {
        &self.store
    }

    /// Traffic counters of the attached store handle (all zero for the
    /// default [`NullStore`]).
    pub fn store_counters(&self) -> StoreCounters {
        self.store.counters()
    }

    /// The store key for `arch` under `backend` on this evaluator's
    /// platform and input shape.
    fn store_key(&self, arch: &ChildArch, backend: Backend) -> CacheKey {
        CacheKey::new(
            digest128(&persist::arch_bytes(arch, self.input)),
            self.device_digest,
            self.pipeline_digest,
            backend,
        )
    }

    /// Claims the artifact's one-shot lowering timings (taskgraph /
    /// schedule) into the stage meters; a no-op when another path already
    /// claimed them.
    fn charge_lowering(&self, artifacts: &HwArtifacts) {
        if let Some(t) = artifacts.claim_lowering_timings() {
            self.meters.pass_graph_ns.add(t.graph_ns);
            self.meters.pass_schedule_ns.add(t.schedule_ns);
        }
    }

    /// The target platform.
    pub fn cluster(&self) -> &FpgaCluster {
        &self.cluster
    }

    /// Number of uncached FNAS-Design runs so far — with the staged cache,
    /// at most one per architecture across the latency, simulated and
    /// deploy paths combined.
    pub fn design_builds(&self) -> u64 {
        self.design_builds.load(Ordering::Relaxed)
    }

    /// Number of uncached analyzer invocations so far (the FNAS tool's
    /// per-child cost in the search-cost model).
    pub fn analyzer_calls(&self) -> u64 {
        self.meters.analyzer_calls.get()
    }

    /// Number of uncached cycle-accurate simulations so far.
    pub fn sim_calls(&self) -> u64 {
        self.sim_calls.load(Ordering::Relaxed)
    }

    /// This evaluator's cumulative counters: analyzer calls and per-stage
    /// wall time (uncached executions only; memo and store hits charge
    /// nothing), plus analytic-latency cache traffic and the attached
    /// store's traffic. Every other field reads zero.
    pub fn meters(&self) -> TelemetrySnapshot {
        let store = self.store.counters();
        TelemetrySnapshot {
            latency_cache_hits: self.cache_hits(),
            latency_cache_misses: self.cache_misses(),
            store_hits: store.hits,
            store_misses: store.misses,
            store_writes: store.writes,
            store_evictions: store.evictions,
            store_bytes: store.bytes_on_disk,
            ..self.meters.snapshot()
        }
    }

    /// Analytic-latency lookups answered from the memo cache.
    pub fn cache_hits(&self) -> u64 {
        self.reports.hits()
    }

    /// Analytic-latency lookups that had to run the analyzer (or failed
    /// trying).
    pub fn cache_misses(&self) -> u64 {
        self.reports.misses()
    }

    /// The staged artifact record for `arch`, memoised. The design is
    /// built on the first call from *any* path (latency, simulation,
    /// deployment) and shared by all of them.
    ///
    /// # Errors
    ///
    /// Propagates mapping and design errors — e.g. a kernel that does not
    /// fit the input, or a pipeline that exceeds the platform's resources.
    /// Errors are not cached, so a transiently failing lookup can retry.
    pub fn artifacts(&self, arch: &ChildArch) -> Result<Arc<HwArtifacts>> {
        self.artifacts.get_or_try_insert_with(arch, || {
            let network = arch_to_network(arch, self.input)?;
            let t0 = Instant::now();
            let artifacts = HwArtifacts::build(&network, &self.cluster)?;
            self.meters
                .pass_design_ns
                .add(t0.elapsed().as_nanos() as u64);
            self.design_builds.fetch_add(1, Ordering::Relaxed);
            Ok(Arc::new(artifacts))
        })
    }

    /// The memoised analyzer report for `arch` (Eqs. 2–5).
    ///
    /// On an L1 miss the persistent store is consulted before any pipeline
    /// stage runs — a valid record skips the design build *and* the
    /// analyzer. On a store miss the report is computed and written
    /// through. The single-flight guarantee covers the disk path too:
    /// racing callers share one store read or one computation.
    ///
    /// # Errors
    ///
    /// Propagates mapping, design and analysis errors.
    pub fn analyzer_report(&self, arch: &ChildArch) -> Result<Arc<AnalyzerReport>> {
        self.reports.get_or_try_insert_with(arch, || {
            let key = self.store_key(arch, Backend::Analytic);
            if let Some(report) = self
                .store
                .get(&key)
                .and_then(|b| persist::decode_report(&b))
            {
                return Ok(Arc::new(report));
            }
            let artifacts = self.artifacts(arch)?;
            let report = artifacts.analyze()?;
            self.meters.analyzer_calls.add(1);
            if self.store.enabled() {
                self.store.put(&key, &persist::encode_report(&report));
            }
            Ok(Arc::new(report))
        })
    }

    /// The analytic latency of `arch` if an earlier lookup already
    /// produced it, counted as a cache hit. `None` counts nothing, so a
    /// caller that falls back to [`LatencyEvaluator::latency`] records one
    /// lookup in all. Never runs a pipeline stage or reads the store.
    pub fn memo_latency(&self, arch: &ChildArch) -> Option<Millis> {
        self.reports.peek(arch).map(|report| report.latency)
    }

    /// Analytic latency of `arch` (Eq. 5), memoised.
    ///
    /// The analyzer runs outside the cache's shard lock, so concurrent
    /// callers with distinct architectures never wait on each other, and
    /// lookups are single-flight: callers racing on the *same* uncached
    /// architecture share one analysis.
    ///
    /// # Errors
    ///
    /// Propagates mapping and design errors — e.g. a kernel that does not
    /// fit the input, or a pipeline that exceeds the platform's resources.
    pub fn latency(&self, arch: &ChildArch) -> Result<Millis> {
        Ok(self.analyzer_report(arch)?.latency)
    }

    /// Cycle-accurate simulated latency under the FNAS schedule (used to
    /// validate the analytic model; roughly 100× slower than
    /// [`LatencyEvaluator::latency`]), memoised. Reuses the staged
    /// artifact, so the design and task graph are not rebuilt when the
    /// analytic path already produced them.
    ///
    /// # Errors
    ///
    /// Propagates design, graph and simulation errors.
    pub fn simulated_latency(&self, arch: &ChildArch) -> Result<Millis> {
        self.simulated.get_or_try_insert_with(arch, || {
            let key = self.store_key(arch, Backend::Simulated);
            if let Some(ms) = self
                .store
                .get(&key)
                .and_then(|b| persist::decode_millis(&b))
            {
                return Ok(ms);
            }
            let artifacts = self.artifacts(arch)?;
            let t0 = Instant::now();
            let report = artifacts.simulate()?;
            self.meters.pass_sim_ns.add(t0.elapsed().as_nanos() as u64);
            self.charge_lowering(&artifacts);
            self.sim_calls.fetch_add(1, Ordering::Relaxed);
            if self.store.enabled() {
                self.store
                    .put(&key, &persist::encode_millis(report.latency));
            }
            Ok(report.latency)
        })
    }

    /// The full deployment record for `arch`, reusing the memoised design,
    /// task graph, schedule and analyzer report — so deploying an
    /// architecture the search already evaluated costs only the traced
    /// simulation. That simulation is never memoised: each call counts
    /// one in [`LatencyEvaluator::sim_calls`] and charges its wall time,
    /// and any lowering it forced, to the stage meters.
    ///
    /// # Errors
    ///
    /// Propagates mapping, design, analysis and simulation errors.
    pub fn deploy(&self, arch: &ChildArch) -> Result<DeploymentReport> {
        let artifacts = self.artifacts(arch)?;
        let report = self.analyzer_report(arch)?;
        artifacts.scheduled()?;
        self.charge_lowering(&artifacts);
        let t0 = Instant::now();
        let deployed = DeploymentReport::from_artifacts(arch, &artifacts, (*report).clone())?;
        self.meters.pass_sim_ns.add(t0.elapsed().as_nanos() as u64);
        self.sim_calls.fetch_add(1, Ordering::Relaxed);
        Ok(deployed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fnas_controller::arch::LayerChoice;

    fn arch(choices: &[(usize, usize)]) -> ChildArch {
        ChildArch::new(
            choices
                .iter()
                .map(|&(filter_size, num_filters)| LayerChoice {
                    filter_size,
                    num_filters,
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn bigger_architectures_take_longer() {
        let eval = LatencyEvaluator::new(FpgaDevice::pynq(), (1, 28, 28));
        let small = eval.latency(&arch(&[(5, 9)])).unwrap();
        let large = eval
            .latency(&arch(&[(7, 36), (7, 36), (7, 36), (7, 36)]))
            .unwrap();
        assert!(large.get() > small.get() * 3.0, "{small} vs {large}");
    }

    #[test]
    fn cache_avoids_repeat_analysis() {
        let eval = LatencyEvaluator::new(FpgaDevice::pynq(), (1, 28, 28));
        let a = arch(&[(5, 18), (3, 36)]);
        let first = eval.latency(&a).unwrap();
        let again = eval.latency(&a).unwrap();
        assert_eq!(first.get(), again.get());
        assert_eq!(eval.analyzer_calls(), 1);
        assert_eq!(eval.cache_hits(), 1);
        assert_eq!(eval.cache_misses(), 1);
    }

    #[test]
    fn concurrent_lookups_agree_with_sequential() {
        let eval = LatencyEvaluator::new(FpgaDevice::pynq(), (1, 28, 28));
        let archs: Vec<ChildArch> = (0..8)
            .map(|i| arch(&[(3 + 2 * (i % 3), 9 + 9 * (i % 4))]))
            .collect();
        let expected: Vec<f64> = archs
            .iter()
            .map(|a| {
                LatencyEvaluator::new(FpgaDevice::pynq(), (1, 28, 28))
                    .latency(a)
                    .unwrap()
                    .get()
            })
            .collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for (a, &want) in archs.iter().zip(&expected) {
                        assert_eq!(eval.latency(a).unwrap().get(), want);
                    }
                });
            }
        });
        // 8 distinct architectures: single-flight memoisation guarantees
        // exactly one analysis each, even when first lookups race.
        assert_eq!(eval.analyzer_calls(), 8);
        assert_eq!(eval.design_builds(), 8);
    }

    #[test]
    fn low_end_device_is_slower_on_dsp_bound_networks() {
        // The 7A50T's calibrated clock is slightly higher than the 7Z020's
        // (small designs close timing more easily), so the comparison is
        // made where it matters: a network big enough to be DSP-bound.
        let a = arch(&[(7, 36), (7, 36), (7, 36), (7, 36)]);
        let hi = LatencyEvaluator::new(FpgaDevice::xc7z020(), (1, 28, 28));
        let lo = LatencyEvaluator::new(FpgaDevice::xc7a50t(), (1, 28, 28));
        assert!(lo.latency(&a).unwrap().get() > hi.latency(&a).unwrap().get());
    }

    #[test]
    fn simulated_latency_close_to_analytic() {
        let eval = LatencyEvaluator::new(FpgaDevice::pynq(), (1, 14, 14));
        let a = arch(&[(5, 18), (3, 18)]);
        let analytic = eval.latency(&a).unwrap();
        let simulated = eval.simulated_latency(&a).unwrap();
        assert!(
            simulated.get() >= analytic.get() * 0.99,
            "analytic {analytic} should lower-bound simulated {simulated}"
        );
        assert!(
            simulated.get() <= analytic.get() * 2.0,
            "bound too loose: {analytic} vs {simulated}"
        );
    }

    #[test]
    fn design_is_built_at_most_once_across_all_paths() {
        // The acceptance pin for the staged pipeline: latency + simulated
        // + deploy on the same architecture share one FNAS-Design run and
        // one analyzer call. The memoised simulation runs once; deploy's
        // traced one is the second simulation.
        let eval = LatencyEvaluator::new(FpgaDevice::pynq(), (1, 14, 14));
        let a = arch(&[(5, 18), (3, 18)]);
        let analytic = eval.latency(&a).unwrap();
        let simulated = eval.simulated_latency(&a).unwrap();
        let deployed = eval.deploy(&a).unwrap();
        let _ = eval.latency(&a).unwrap();
        let _ = eval.simulated_latency(&a).unwrap();
        assert_eq!(eval.design_builds(), 1, "design must be generated once");
        assert_eq!(eval.analyzer_calls(), 1, "analyzer must run once");
        assert_eq!(eval.sim_calls(), 2, "memoised simulation once, deploy once");
        assert_eq!(deployed.analytic_latency().get(), analytic.get());
        assert_eq!(deployed.simulated_latency().get(), simulated.get());
    }

    #[test]
    fn impossible_arch_is_an_error() {
        // An even 14-kernel on a unit extent cannot be realised even with
        // half padding (1 + 2·6 = 13 < 14).
        let eval = LatencyEvaluator::new(FpgaDevice::pynq(), (1, 1, 1));
        assert!(eval.latency(&arch(&[(14, 9)])).is_err());
    }

    fn scratch_store(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "fnas-latency-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn warm_store_skips_design_analyzer_and_simulator() {
        use fnas_store::DiskStore;
        let dir = scratch_store("warm");
        let a = arch(&[(5, 18), (3, 18)]);

        let cold = LatencyEvaluator::new(FpgaDevice::pynq(), (1, 14, 14))
            .with_store(Arc::new(DiskStore::open(&dir).unwrap()));
        let analytic = cold.latency(&a).unwrap();
        let simulated = cold.simulated_latency(&a).unwrap();
        assert_eq!(cold.design_builds(), 1);
        let cold_counters = cold.store_counters();
        assert_eq!(cold_counters.hits, 0);
        assert_eq!(cold_counters.writes, 2); // one analytic + one simulated record

        // A fresh evaluator + fresh store handle on the same directory
        // models a second worker process: cold L1, warm L2.
        let warm = LatencyEvaluator::new(FpgaDevice::pynq(), (1, 14, 14))
            .with_store(Arc::new(DiskStore::open(&dir).unwrap()));
        assert_eq!(
            warm.latency(&a).unwrap().get().to_bits(),
            analytic.get().to_bits()
        );
        assert_eq!(
            warm.simulated_latency(&a).unwrap().get().to_bits(),
            simulated.get().to_bits()
        );
        assert_eq!(warm.design_builds(), 0, "design served from the store");
        assert_eq!(warm.analyzer_calls(), 0);
        assert_eq!(warm.sim_calls(), 0);
        let warm_counters = warm.store_counters();
        assert_eq!((warm_counters.hits, warm_counters.misses), (2, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_store_record_falls_back_to_compute() {
        use fnas_store::{Backend, DiskStore};
        let dir = scratch_store("corrupt");
        let a = arch(&[(5, 9)]);
        let store: Arc<dyn fnas_store::Store> = Arc::new(DiskStore::open(&dir).unwrap());
        let cold =
            LatencyEvaluator::new(FpgaDevice::pynq(), (1, 28, 28)).with_store(Arc::clone(&store));
        let expected = cold.latency(&a).unwrap();

        // Truncate the analytic record on disk.
        let key = cold.store_key(&a, Backend::Analytic);
        let path = dir.join(key.relative_path());
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

        let warm = LatencyEvaluator::new(FpgaDevice::pynq(), (1, 28, 28))
            .with_store(Arc::new(DiskStore::open(&dir).unwrap()));
        assert_eq!(warm.latency(&a).unwrap().get(), expected.get());
        assert_eq!(warm.design_builds(), 1, "bad record forces a recompute");
        let counters = warm.store_counters();
        assert_eq!(counters.misses, 1);
        assert_eq!(counters.writes, 0, "existing path is not overwritten");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_results_are_bit_identical_to_direct_compute() {
        use fnas_store::DiskStore;
        let dir = scratch_store("ident");
        let archs: Vec<ChildArch> = (0..6)
            .map(|i| arch(&[(3 + 2 * (i % 3), 9 + 9 * (i % 4)), (3, 18)]))
            .collect();
        let plain = LatencyEvaluator::new(FpgaDevice::pynq(), (1, 28, 28));
        let stored = LatencyEvaluator::new(FpgaDevice::pynq(), (1, 28, 28))
            .with_store(Arc::new(DiskStore::open(&dir).unwrap()));
        let warm = LatencyEvaluator::new(FpgaDevice::pynq(), (1, 28, 28))
            .with_store(Arc::new(DiskStore::open(&dir).unwrap()));
        for a in &archs {
            let want = plain.latency(a).unwrap().get().to_bits();
            assert_eq!(stored.latency(a).unwrap().get().to_bits(), want);
        }
        for a in &archs {
            let want = plain.latency(a).unwrap().get().to_bits();
            assert_eq!(warm.latency(a).unwrap().get().to_bits(), want);
        }
        assert_eq!(warm.design_builds(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lowering_timings_are_charged_once_per_architecture() {
        let eval = LatencyEvaluator::new(FpgaDevice::pynq(), (1, 14, 14));
        let a = arch(&[(5, 18), (3, 18)]);
        let _ = eval.simulated_latency(&a).unwrap();
        let first = eval.meters();
        assert!(
            first.pass_graph_ns > 0 && first.pass_schedule_ns > 0,
            "{first:?}"
        );
        // Forcing the scheduled stage again must not double-charge the
        // lowering stages (they are claimed once per artifact).
        let _ = eval.deploy(&a).unwrap();
        let second = eval.meters();
        assert_eq!(second.pass_graph_ns, first.pass_graph_ns);
        assert_eq!(second.pass_schedule_ns, first.pass_schedule_ns);
    }

    #[test]
    fn deploy_charges_its_lowering_and_simulation() {
        let eval = LatencyEvaluator::new(FpgaDevice::pynq(), (1, 14, 14));
        let a = arch(&[(5, 18), (3, 18)]);
        let _ = eval.latency(&a).unwrap();
        let _ = eval.deploy(&a).unwrap();
        let deployed = eval.meters();
        assert!(
            deployed.pass_graph_ns > 0 && deployed.pass_schedule_ns > 0 && deployed.pass_sim_ns > 0,
            "{deployed:?}"
        );
        assert_eq!(eval.sim_calls(), 1);
        // The lowering deploy forced was charged once, by deploy.
        let _ = eval.simulated_latency(&a).unwrap();
        let simulated = eval.meters();
        assert_eq!(simulated.pass_graph_ns, deployed.pass_graph_ns);
        assert_eq!(simulated.pass_schedule_ns, deployed.pass_schedule_ns);
    }
}

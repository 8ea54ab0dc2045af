//! The on-disk hardware store (DESIGN.md §14) must be **cache-transparent**
//! and **actually reused**.
//!
//! Three contracts pinned here:
//!
//! * **Transparency** — a search with the store attached (cold directory,
//!   then the same directory warm) is bit-identical to a search without
//!   one, at every worker count (0, 1, 2, 8). The store may only ever
//!   change wall time.
//! * **Cross-process reuse** — a second searcher with a *fresh*
//!   [`DiskStore`] handle on an already-populated directory (the moral
//!   equivalent of a second process on a shared filesystem) serves ≥ 90%
//!   of its lookups from the store and does strictly less design-build
//!   and simulator work than the cold pass. Another job (another job
//!   digest) on the same directory hits the first job's records too.
//! * **Key stability** — the canonical key codec is injective, payloads
//!   round-trip through a real store directory byte-for-byte, and one
//!   canonical key digest is pinned to a literal so any silent change to
//!   the key schema (which would orphan every deployed store) fails CI.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fnas::experiment::ExperimentPreset;
use fnas::persist;
use fnas::search::{BatchOptions, SearchConfig, SearchOutcome, Searcher};
use fnas_controller::arch::{ChildArch, LayerChoice};
use fnas_fpga::device::{FpgaCluster, FpgaDevice};
use fnas_store::{Backend, CacheKey, DiskStore, Store};
use proptest::prelude::*;

fn config(trials: usize, seed: u64) -> SearchConfig {
    SearchConfig::fnas(ExperimentPreset::mnist().with_trials(trials), 5.0).with_seed(seed)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fnas-store-eq-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// The observable outcome: deployed arch, full per-trial trace with exact
/// float bits, and exact cost totals.
type Fingerprint = (
    Option<String>,
    Vec<(String, u32, Option<u64>, bool)>,
    u64,
    u64,
);

fn fingerprint(out: &SearchOutcome) -> Fingerprint {
    (
        out.best().map(|b| b.arch.describe()),
        out.trials()
            .iter()
            .map(|t| {
                (
                    t.arch.describe(),
                    t.reward.to_bits(),
                    t.latency.map(|l| l.get().to_bits()),
                    t.trained,
                )
            })
            .collect(),
        out.cost().training_seconds.to_bits(),
        out.cost().analyzer_seconds.to_bits(),
    )
}

fn run(config: &SearchConfig, workers: usize, store: Option<Arc<dyn Store>>) -> Fingerprint {
    let mut searcher = Searcher::surrogate(config).expect("constructible");
    if let Some(store) = store {
        searcher.attach_store(store);
    }
    let opts = BatchOptions::sequential()
        .with_workers(workers)
        .with_batch_size(4);
    fingerprint(&searcher.run_batched(config, &opts).expect("runs"))
}

#[test]
fn store_is_bit_identical_to_no_store_at_every_worker_count() {
    let dir = temp_dir("transparent");
    let config = config(16, 47);
    for workers in [0usize, 1, 2, 8] {
        let store_dir = dir.join(format!("store-{workers}"));
        let baseline = run(&config, workers, None);
        let cold: Arc<dyn Store> = Arc::new(DiskStore::open(&store_dir).expect("store opens"));
        assert_eq!(
            baseline,
            run(&config, workers, Some(cold)),
            "cold store changed results at {workers} workers"
        );
        let warm: Arc<dyn Store> = Arc::new(DiskStore::open(&store_dir).expect("store reopens"));
        assert_eq!(
            baseline,
            run(&config, workers, Some(warm)),
            "warm store changed results at {workers} workers"
        );
    }
    std::fs::remove_dir_all(dir).expect("cleanup");
}

#[test]
fn a_second_process_on_a_warm_store_mostly_hits_and_computes_less() {
    let dir = temp_dir("reuse");
    let config = config(16, 48);
    let opts = BatchOptions::sequential()
        .with_workers(2)
        .with_batch_size(4);

    // Cold pass: its own store handle, as a first process would have.
    let cold_store: Arc<dyn Store> = Arc::new(DiskStore::open(&dir).expect("store opens"));
    let mut cold = Searcher::surrogate(&config).expect("constructible");
    cold.attach_store(Arc::clone(&cold_store));
    let cold_out = cold.run_batched(&config, &opts).expect("runs");
    let best = cold_out.best().expect("a deployable arch").arch.clone();
    // Exercise the simulated backend too, so the warm pass can prove it
    // is served from the store.
    let _ = cold.oracle().latency_eval().simulated_latency(&best);
    let cold_builds = cold.oracle().latency_eval().design_builds();
    let cold_sims = cold.oracle().latency_eval().sim_calls();
    assert!(cold_builds > 0 && cold_sims > 0, "cold pass did no work");

    // Warm pass: fresh searcher AND fresh handle on the same directory.
    let warm_store: Arc<dyn Store> = Arc::new(DiskStore::open(&dir).expect("store reopens"));
    let mut warm = Searcher::surrogate(&config).expect("constructible");
    warm.attach_store(Arc::clone(&warm_store));
    let warm_out = warm.run_batched(&config, &opts).expect("runs");
    let _ = warm.oracle().latency_eval().simulated_latency(&best);

    assert_eq!(
        fingerprint(&cold_out),
        fingerprint(&warm_out),
        "the store changed results between processes"
    );
    let counters = warm_store.counters();
    let lookups = counters.hits + counters.misses;
    assert!(lookups > 0, "warm pass never consulted the store");
    assert!(
        counters.hits * 10 >= lookups * 9,
        "warm store hit rate below 90%: {} hits / {lookups} lookups",
        counters.hits
    );
    let warm_builds = warm.oracle().latency_eval().design_builds();
    let warm_sims = warm.oracle().latency_eval().sim_calls();
    assert!(
        warm_builds < cold_builds,
        "warm pass built as many designs ({warm_builds}) as cold ({cold_builds})"
    );
    assert!(
        warm_sims < cold_sims,
        "warm pass simulated as much ({warm_sims}) as cold ({cold_sims})"
    );
    // The engine's telemetry must agree that the store was the source.
    assert!(warm_out.telemetry().store_hits > 0, "telemetry saw no hits");

    // Another job (rL 4 ms, so another job digest) on the same directory:
    // oracle records are keyed by architecture and platform, not by job,
    // so it reuses the first job's records without changing its results.
    let other = SearchConfig::fnas(ExperimentPreset::mnist().with_trials(16), 4.0).with_seed(48);
    assert_ne!(other.job().job_digest(), config.job().job_digest());
    let other_store: Arc<dyn Store> = Arc::new(DiskStore::open(&dir).expect("store reopens"));
    let mut other_searcher = Searcher::surrogate(&other).expect("constructible");
    other_searcher.attach_store(Arc::clone(&other_store));
    let other_out = other_searcher.run_batched(&other, &opts).expect("runs");
    assert!(
        other_store.counters().hits > 0,
        "another job saw no hits on the first job's store"
    );
    assert_eq!(
        fingerprint(&other_out),
        run(&other, 2, None),
        "the shared store changed another job's results"
    );
    std::fs::remove_dir_all(dir).expect("cleanup");
}

/// Any silent change to the canonical key schema (encodings in
/// `fnas::persist`, digest, layout in `fnas_store::CacheKey`) orphans
/// every deployed store directory, so one digest is pinned to a literal:
/// if this test fails, bump [`fnas_store::SCHEMA_VERSION`] — do not just
/// update the string.
#[test]
fn canonical_key_digest_is_pinned() {
    let arch = ChildArch::new(vec![
        LayerChoice {
            filter_size: 5,
            num_filters: 9,
        },
        LayerChoice {
            filter_size: 3,
            num_filters: 18,
        },
    ])
    .expect("valid arch");
    let cluster = FpgaCluster::single(FpgaDevice::pynq());
    let key = persist::cache_key(&arch, (1, 28, 28), &cluster, Backend::Analytic);
    // Schema v2: the canonical pass-pipeline fingerprint joined the key, so
    // this digest was re-pinned alongside the SCHEMA_VERSION bump (v1 keys
    // are invisible to v2 stores; no silent aliasing).
    assert_eq!(key.hex(), "2f3820247f1b8678e562112ef04d5d77");
}

fn arb_backend() -> impl Strategy<Value = Backend> {
    prop_oneof![Just(Backend::Analytic), Just(Backend::Simulated)]
}

fn arb_key() -> impl Strategy<Value = CacheKey> {
    (
        0u64..u64::MAX,
        0u64..u64::MAX,
        0u64..u64::MAX,
        0u64..u64::MAX,
        0u64..u64::MAX,
        arb_backend(),
    )
        .prop_map(|(a_lo, a_hi, d_lo, d_hi, pipeline, backend)| {
            let arch = (u128::from(a_hi) << 64) | u128::from(a_lo);
            let device = (u128::from(d_hi) << 64) | u128::from(d_lo);
            CacheKey::new(arch, device, pipeline, backend)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The key codec round-trips, and distinct keys have distinct
    /// encodings (the codec is injective — a collision would silently
    /// alias two different evaluations on disk).
    #[test]
    fn cache_key_codec_is_injective(k1 in arb_key(), k2 in arb_key()) {
        prop_assert_eq!(CacheKey::decode(&k1.encode()), Some(k1));
        prop_assert_eq!(CacheKey::decode(&k2.encode()), Some(k2));
        prop_assert_eq!(k1 == k2, k1.encode() == k2.encode());
    }

    /// Arbitrary payloads round-trip byte-for-byte through a real store
    /// directory.
    #[test]
    fn disk_store_round_trips_arbitrary_payloads(
        key in arb_key(),
        payload in prop::collection::vec(0u8..=255, 0..300),
    ) {
        static CASE: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "fnas-store-eq-prop-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let store = DiskStore::open(&dir).expect("store opens");
        prop_assert_eq!(store.get(&key), None);
        store.put(&key, &payload);
        prop_assert_eq!(store.get(&key), Some(payload.clone()));
        // A reopened handle (second process) reads the same bytes.
        let reopened = DiskStore::open(&dir).expect("store reopens");
        prop_assert_eq!(reopened.get(&key), Some(payload));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

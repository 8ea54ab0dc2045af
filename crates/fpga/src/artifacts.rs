//! Staged hardware artifacts: the fixed FNAS lowering, each stage built once.
//!
//! The four-stage FNAS tool is a pipeline — **FNAS-Design**
//! ([`PipelineDesign`]) → **FNAS-GG** ([`TileTaskGraph`]) → **FNAS-Sched**
//! ([`Schedule`]) → **FNAS-Analyzer** / simulator — but most consumers only
//! need a prefix of it: the analytic latency model (Eqs. 2–5) reads the
//! design alone, while cycle-accurate simulation and deployment reports
//! need the graph and schedule too. [`HwArtifacts`] records the pipeline's
//! stages for one architecture so each stage is produced *at most once*
//! however many models or reports consume it: the design is built eagerly
//! (it is the buildability check), and the scheduled stage (graph +
//! schedule) is materialised lazily on first use and shared from then on.
//! [`HwArtifacts::analyze`] prices the design alone;
//! [`HwArtifacts::simulate`] forces the scheduled stage.
//!
//! The lazy lowering times its two stages for telemetry
//! ([`HwArtifacts::claim_lowering_timings`]), and
//! [`canonical_pipeline_fingerprint`] names the lowering's semantics in
//! `fnas-store` cache keys.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use fnas_exec::hash::{fnv1a, mix64, FNV_OFFSET};

use crate::analyzer::{analyze, AnalyzerReport};
use crate::design::PipelineDesign;
use crate::device::FpgaCluster;
use crate::layer::Network;
use crate::sched::{FnasScheduler, Schedule};
use crate::sim::{simulate_design, SimReport};
use crate::taskgraph::TileTaskGraph;
use crate::Result;

/// The semantics of each lowering stage, in pipeline order, as folded by
/// [`canonical_pipeline_fingerprint`]. Frozen: every `fnas-store` cache key
/// carries the fold, so editing, reordering or dropping an entry rotates
/// every stored record. A change that can alter a stage's output bytes
/// must bump that stage's version here. The `partition` entry names a
/// region split that never changed an output byte and is no longer run; it
/// stays so that existing keys stay valid.
const STAGE_SEMANTICS: [&str; 5] = [
    "design/v1:roofline-tiling:mac-balanced-placement:harmonized-grid",
    "taskgraph/v1:tile-dependency-windows",
    "partition/v1:contiguous-cycle-balanced-regions",
    // The FnasScheduler::new() configuration: alternating reuse starting
    // with OFM, ready-queue reordering, channel-first spatial order.
    "schedule/v1:fnas-sched:ofm-first:reorder-on-stall:channel-first",
    "sim/v1:event-heap:push-order-tiebreak",
];

/// The lowering's fingerprint — the value folded into the persistent
/// store's cache keys (`fnas-store` rotates records when it changes): an
/// order-sensitive fold of each stage's semantics digest.
pub fn canonical_pipeline_fingerprint() -> u64 {
    STAGE_SEMANTICS
        .iter()
        .fold(fnv64(b"fnas-pass-pipeline/v1"), |acc, stage| {
            mix64(acc.rotate_left(7) ^ fnv64(stage.as_bytes()))
        })
}

/// 64-bit FNV-1a, length-finalised through SplitMix64; stable across
/// platforms.
fn fnv64(bytes: &[u8]) -> u64 {
    mix64(fnv1a(FNV_OFFSET, bytes) ^ bytes.len() as u64)
}

/// Wall time of the lazy lowering stages, claimed once per artifact for
/// telemetry (see [`HwArtifacts::claim_lowering_timings`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoweringTimings {
    /// Nanoseconds FNAS-GG ([`TileTaskGraph::from_design`]) took.
    pub graph_ns: u64,
    /// Nanoseconds FNAS-Sched ([`FnasScheduler::schedule`]) took.
    pub schedule_ns: u64,
}

/// The scheduled stage of the pipeline: the tile task graph (FNAS-GG) and
/// the flexible schedule over it (FNAS-Sched), always produced together.
#[derive(Debug, Clone, PartialEq)]
pub struct Scheduled {
    graph: TileTaskGraph,
    schedule: Schedule,
}

impl Scheduled {
    /// The tile-based task graph.
    pub fn graph(&self) -> &TileTaskGraph {
        &self.graph
    }

    /// The flexible schedule over [`Scheduled::graph`].
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }
}

/// The staged hardware-evaluation record for one architecture.
///
/// Holds the eagerly built [`PipelineDesign`] and lazily materialises the
/// [`Scheduled`] stage behind a [`OnceLock`], so sharing one
/// `Arc<HwArtifacts>` between the analytic latency path, the simulator,
/// and deployment reporting runs each pipeline stage at most once.
///
/// # Examples
///
/// ```
/// use fnas_fpga::artifacts::HwArtifacts;
/// use fnas_fpga::device::{FpgaCluster, FpgaDevice};
/// use fnas_fpga::layer::{ConvShape, Network};
///
/// # fn main() -> Result<(), fnas_fpga::FpgaError> {
/// let net = Network::new(vec![
///     ConvShape::square(3, 16, 32, 3)?,
///     ConvShape::square(16, 32, 32, 3)?,
/// ])?;
/// let art = HwArtifacts::build(&net, &FpgaCluster::single(FpgaDevice::pynq()))?;
/// let fast = art.analyze()?.latency;
/// let exact = art.simulate()?.latency;
/// assert!(fast.get() > 0.0 && exact.get() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct HwArtifacts {
    design: PipelineDesign,
    scheduled: OnceLock<Result<Arc<Scheduled>>>,
    lowering: OnceLock<LoweringTimings>,
    lowering_claimed: AtomicBool,
}

impl HwArtifacts {
    /// Runs FNAS-Design for `network` on `cluster` and wraps the result.
    ///
    /// # Errors
    ///
    /// Propagates design-generation failures (the architecture is not
    /// buildable on the cluster).
    pub fn build(network: &Network, cluster: &FpgaCluster) -> Result<Self> {
        Ok(HwArtifacts::from_design(
            PipelineDesign::generate_on_cluster(network, cluster)?,
        ))
    }

    /// Wraps an already-generated design (stage 1 done elsewhere).
    pub fn from_design(design: PipelineDesign) -> Self {
        HwArtifacts {
            design,
            scheduled: OnceLock::new(),
            lowering: OnceLock::new(),
            lowering_claimed: AtomicBool::new(false),
        }
    }

    /// The FNAS-Design output (always available).
    pub fn design(&self) -> &PipelineDesign {
        &self.design
    }

    /// `true` when the scheduled stage has already been materialised.
    pub fn is_scheduled(&self) -> bool {
        self.scheduled.get().is_some()
    }

    /// The scheduled stage (graph + schedule), built on first call and
    /// shared by every later one — including across threads: concurrent
    /// first calls race benignly inside the [`OnceLock`], and exactly one
    /// result is kept.
    ///
    /// # Errors
    ///
    /// Propagates graph-generation failures; the failure is cached like a
    /// success, so repeated calls do not retry a structurally broken
    /// design.
    pub fn scheduled(&self) -> Result<Arc<Scheduled>> {
        self.scheduled
            .get_or_init(|| {
                let t0 = Instant::now();
                let graph = TileTaskGraph::from_design(&self.design)?;
                let t1 = Instant::now();
                let schedule = FnasScheduler::new().schedule(&graph);
                let _ = self.lowering.set(LoweringTimings {
                    graph_ns: (t1 - t0).as_nanos() as u64,
                    schedule_ns: t1.elapsed().as_nanos() as u64,
                });
                Ok(Arc::new(Scheduled { graph, schedule }))
            })
            .clone()
    }

    /// The lazy lowering's per-stage wall times, surrendered exactly once
    /// per artifact (so shared artifacts do not double-charge telemetry).
    /// `None` before the scheduled stage exists or after the first claim.
    pub fn claim_lowering_timings(&self) -> Option<LoweringTimings> {
        let timings = self.lowering.get().copied()?;
        if self.lowering_claimed.swap(true, Ordering::Relaxed) {
            None
        } else {
            Some(timings)
        }
    }

    /// FNAS-Analyzer (Eqs. 2–5) over the design stage. Never forces the
    /// scheduled stage.
    ///
    /// # Errors
    ///
    /// Propagates analyzer failures.
    pub fn analyze(&self) -> Result<AnalyzerReport> {
        analyze(&self.design)
    }

    /// Cycle-accurate simulation of the scheduled stage.
    ///
    /// # Errors
    ///
    /// Propagates graph-generation or simulation failures.
    pub fn simulate(&self) -> Result<SimReport> {
        let scheduled = self.scheduled()?;
        simulate_design(&self.design, &scheduled.graph, &scheduled.schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::FpgaDevice;
    use crate::layer::ConvShape;

    fn tiny_network() -> Network {
        Network::new(vec![
            ConvShape::square(3, 8, 16, 3).unwrap(),
            ConvShape::square(8, 16, 16, 3).unwrap(),
        ])
        .unwrap()
    }

    fn artifacts() -> HwArtifacts {
        HwArtifacts::build(&tiny_network(), &FpgaCluster::single(FpgaDevice::pynq())).unwrap()
    }

    #[test]
    fn canonical_pipeline_fingerprint_is_pinned() {
        // Every `fnas-store` cache key carries this value: a change
        // rotates every stored record.
        assert_eq!(canonical_pipeline_fingerprint(), 0xd2d6_debb_e3b6_95a5);
    }

    #[test]
    fn scheduled_stage_is_lazy_and_shared() {
        let art = artifacts();
        assert!(!art.is_scheduled());
        let first = art.scheduled().unwrap();
        assert!(art.is_scheduled());
        let second = art.scheduled().unwrap();
        assert!(Arc::ptr_eq(&first, &second), "stage must be built once");
        assert_eq!(first.graph().num_layers(), 2);
    }

    #[test]
    fn backends_match_direct_calls() {
        let art = artifacts();
        assert_eq!(art.analyze().unwrap(), analyze(art.design()).unwrap());

        let design = PipelineDesign::generate(&tiny_network(), &FpgaDevice::pynq()).unwrap();
        assert_eq!(art.design(), &design);
        let graph = TileTaskGraph::from_design(&design).unwrap();
        let schedule = FnasScheduler::new().schedule(&graph);
        let sched = art.scheduled().unwrap();
        assert_eq!(sched.graph(), &graph);
        assert_eq!(sched.schedule(), &schedule);
        let direct = simulate_design(&design, &graph, &schedule).unwrap();
        assert_eq!(art.simulate().unwrap(), direct);
    }

    #[test]
    fn lowering_timings_are_claimed_exactly_once() {
        let art = artifacts();
        assert_eq!(art.claim_lowering_timings(), None, "nothing lowered yet");
        art.scheduled().unwrap();
        let first = art.claim_lowering_timings();
        assert!(first.is_some());
        assert_eq!(art.claim_lowering_timings(), None, "already claimed");
    }

    #[test]
    fn analytic_does_not_force_the_scheduled_stage() {
        let art = artifacts();
        art.analyze().unwrap();
        assert!(!art.is_scheduled(), "Eqs. 2–5 need only the design");
        art.simulate().unwrap();
        assert!(art.is_scheduled());
    }

    #[test]
    fn concurrent_scheduling_converges_to_one_stage() {
        let art = artifacts();
        let ptrs: Vec<_> = std::thread::scope(|s| {
            (0..8)
                .map(|_| s.spawn(|| Arc::as_ptr(&art.scheduled().unwrap()) as usize))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert!(ptrs.windows(2).all(|w| w[0] == w[1]));
    }
}

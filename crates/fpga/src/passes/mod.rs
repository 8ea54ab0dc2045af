//! The hardware-oracle pass pipeline.
//!
//! The oracle used to be staged ad hoc — `design` → `taskgraph` → `sched`
//! → `sim`, stitched together inside `artifacts.rs`. This module makes the
//! staging explicit: a [`Pass`] lowers a [`PipelineIr`] one step, a
//! [`PassManager`] runs an ordered list of passes, and the **canonical
//! pipeline fingerprint** — the order-sensitive fold of every standard
//! pass's fingerprint — is folded into the persistent store's cache key so
//! content addressing sees pipeline changes instead of silently serving
//! records computed by an older lowering.
//!
//! The standard pipeline is
//! `design → taskgraph → partition → schedule → sim`:
//!
//! | pass        | consumes            | produces                 |
//! |-------------|---------------------|--------------------------|
//! | `design`    | network + cluster   | [`PipelineDesign`]       |
//! | `taskgraph` | design              | [`TileTaskGraph`]        |
//! | `partition` | graph               | [`PartitionedGraph`]     |
//! | `schedule`  | graph               | [`Schedule`]             |
//! | `sim`       | design + graph + schedule (+ partitions) | [`SimReport`] |
//!
//! Pass fingerprints digest the pass's *semantics version*: anything that
//! can change the bytes of a pass's output must change its fingerprint.
//! Two deliberate exclusions: the partition **count** (any split produces
//! byte-identical simulation results, so it is a pure performance knob)
//! and the sim **execution mode** (the partitioned backend is pinned
//! byte-identical to the single-threaded one).

pub mod partition;

use std::sync::Arc;
use std::time::Instant;

use fnas_exec::hash::{fnv1a, mix64, FNV_OFFSET};
use fnas_exec::Executor;

use crate::design::PipelineDesign;
use crate::device::FpgaCluster;
use crate::layer::Network;
use crate::sched::{FnasScheduler, Schedule};
use crate::sim::parallel::{simulate_design_partitioned, PartitionStats};
use crate::sim::{simulate_design, SimReport};
use crate::taskgraph::TileTaskGraph;
use crate::{FpgaError, Result};

use partition::PartitionedGraph;

/// Default region count for the standard pipeline's `partition` pass
/// (clamped to the layer count at build time).
pub const DEFAULT_PARTITIONS: usize = 4;

/// Wall time of one executed pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassTiming {
    /// The pass's [`Pass::name`].
    pub name: &'static str,
    /// Wall nanoseconds the pass took.
    pub nanos: u64,
}

/// The intermediate representation threaded through the pipeline: every
/// lowering product as an optional slot, filled as passes run.
#[derive(Debug, Clone, Default)]
pub struct PipelineIr {
    network: Option<Network>,
    cluster: Option<FpgaCluster>,
    design: Option<Arc<PipelineDesign>>,
    graph: Option<Arc<TileTaskGraph>>,
    partitions: Option<Arc<PartitionedGraph>>,
    schedule: Option<Arc<Schedule>>,
    sim: Option<SimReport>,
    partition_stats: Option<PartitionStats>,
    timings: Vec<PassTiming>,
}

impl PipelineIr {
    /// An IR seeded with the architecture and target cluster — the input of
    /// the standard pipeline.
    pub fn for_network(network: Network, cluster: FpgaCluster) -> Self {
        PipelineIr {
            network: Some(network),
            cluster: Some(cluster),
            ..PipelineIr::default()
        }
    }

    /// An IR seeded with an already-generated design (the `design` pass
    /// becomes a no-op); used when the caller owns design generation.
    pub fn from_design(design: Arc<PipelineDesign>) -> Self {
        PipelineIr {
            cluster: Some(design.cluster().clone()),
            design: Some(design),
            ..PipelineIr::default()
        }
    }

    /// The design slot, if a design pass has run (or seeded it).
    pub fn design(&self) -> Option<&Arc<PipelineDesign>> {
        self.design.as_ref()
    }

    /// The task-graph slot.
    pub fn graph(&self) -> Option<&Arc<TileTaskGraph>> {
        self.graph.as_ref()
    }

    /// The partition slot.
    pub fn partitions(&self) -> Option<&Arc<PartitionedGraph>> {
        self.partitions.as_ref()
    }

    /// The schedule slot.
    pub fn schedule(&self) -> Option<&Arc<Schedule>> {
        self.schedule.as_ref()
    }

    /// The simulation-report slot.
    pub fn sim(&self) -> Option<&SimReport> {
        self.sim.as_ref()
    }

    /// Partition statistics from a partitioned `sim` pass, if one ran.
    pub fn partition_stats(&self) -> Option<&PartitionStats> {
        self.partition_stats.as_ref()
    }

    /// Wall time of every pass run so far, in execution order.
    pub fn timings(&self) -> &[PassTiming] {
        &self.timings
    }

    /// One-line summary of the filled slots (for the debug dump).
    pub fn summary(&self) -> String {
        let mut parts = Vec::new();
        if let Some(d) = &self.design {
            parts.push(format!(
                "design[{} layers, {} DSP]",
                d.layers().len(),
                d.utilization().dsp_used
            ));
        }
        if let Some(g) = &self.graph {
            parts.push(format!(
                "graph[{} tasks/{} layers]",
                g.total_tasks(),
                g.num_layers()
            ));
        }
        if let Some(p) = &self.partitions {
            parts.push(format!(
                "partitions[{} regions, {} cross tiles]",
                p.num_regions(),
                p.total_cross_traffic()
            ));
        }
        if let Some(s) = &self.schedule {
            parts.push(format!("schedule[{} PEs, {}]", s.num_pes(), s.name()));
        }
        if let Some(r) = &self.sim {
            parts.push(format!("sim[makespan {}]", r.makespan));
        }
        if parts.is_empty() {
            parts.push("empty".to_string());
        }
        parts.join(" ")
    }

    fn missing(pass: &'static str, slot: &'static str) -> FpgaError {
        FpgaError::InvalidConfig {
            what: format!("pass `{pass}` needs the `{slot}` slot filled"),
        }
    }
}

/// One lowering step of the pipeline.
pub trait Pass: Send + Sync {
    /// Stable pass name (also the telemetry label).
    fn name(&self) -> &'static str;

    /// Stable digest of the pass's output-affecting semantics. Changing
    /// anything that can change the pass's output bytes must change this
    /// value, so the store's content addressing retires stale records.
    fn fingerprint(&self) -> u64;

    /// Lowers `ir` in place.
    ///
    /// # Errors
    ///
    /// [`FpgaError::InvalidConfig`] when a required input slot is missing;
    /// otherwise whatever the underlying lowering reports.
    fn run(&self, ir: &mut PipelineIr) -> Result<()>;
}

/// Generates the [`PipelineDesign`] from the network and cluster; a no-op
/// when the IR was seeded from an existing design.
#[derive(Debug, Clone, Copy, Default)]
pub struct DesignPass;

impl Pass for DesignPass {
    fn name(&self) -> &'static str {
        "design"
    }

    fn fingerprint(&self) -> u64 {
        fnv64(b"design/v1:roofline-tiling:mac-balanced-placement:harmonized-grid")
    }

    fn run(&self, ir: &mut PipelineIr) -> Result<()> {
        if ir.design.is_some() {
            return Ok(());
        }
        let network = ir
            .network
            .as_ref()
            .ok_or_else(|| PipelineIr::missing("design", "network"))?;
        let cluster = ir
            .cluster
            .as_ref()
            .ok_or_else(|| PipelineIr::missing("design", "cluster"))?;
        ir.design = Some(Arc::new(PipelineDesign::generate_on_cluster(
            network, cluster,
        )?));
        Ok(())
    }
}

/// Lowers the design to the tile task graph.
#[derive(Debug, Clone, Copy, Default)]
pub struct GraphPass;

impl Pass for GraphPass {
    fn name(&self) -> &'static str {
        "taskgraph"
    }

    fn fingerprint(&self) -> u64 {
        fnv64(b"taskgraph/v1:tile-dependency-windows")
    }

    fn run(&self, ir: &mut PipelineIr) -> Result<()> {
        let design = ir
            .design
            .as_ref()
            .ok_or_else(|| PipelineIr::missing("taskgraph", "design"))?;
        ir.graph = Some(Arc::new(TileTaskGraph::from_design(design)?));
        Ok(())
    }
}

/// Splits the task graph into contiguous per-PE regions.
///
/// The region *count* is deliberately excluded from the fingerprint: every
/// split simulates to byte-identical results (pinned by test), so it is a
/// pure performance knob and must not churn the store.
#[derive(Debug, Clone, Copy)]
pub struct PartitionPass {
    /// Requested region count (clamped to the layer count).
    pub partitions: usize,
}

impl Default for PartitionPass {
    fn default() -> Self {
        PartitionPass {
            partitions: DEFAULT_PARTITIONS,
        }
    }
}

impl Pass for PartitionPass {
    fn name(&self) -> &'static str {
        "partition"
    }

    fn fingerprint(&self) -> u64 {
        fnv64(b"partition/v1:contiguous-cycle-balanced-regions")
    }

    fn run(&self, ir: &mut PipelineIr) -> Result<()> {
        let graph = ir
            .graph
            .as_ref()
            .ok_or_else(|| PipelineIr::missing("partition", "graph"))?;
        ir.partitions = Some(Arc::new(PartitionedGraph::build(graph, self.partitions)));
        Ok(())
    }
}

/// Schedules the task graph with the paper's FNAS scheduler defaults.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedulePass;

impl Pass for SchedulePass {
    fn name(&self) -> &'static str {
        "schedule"
    }

    fn fingerprint(&self) -> u64 {
        // Covers the FnasScheduler::new() configuration the pass hard-codes:
        // alternating reuse starting with OFM, ready-queue reordering,
        // channel-first spatial order.
        fnv64(b"schedule/v1:fnas-sched:ofm-first:reorder-on-stall:channel-first")
    }

    fn run(&self, ir: &mut PipelineIr) -> Result<()> {
        let graph = ir
            .graph
            .as_ref()
            .ok_or_else(|| PipelineIr::missing("schedule", "graph"))?;
        ir.schedule = Some(Arc::new(FnasScheduler::new().schedule(graph)));
        Ok(())
    }
}

/// Runs the cycle-level simulator over the scheduled design.
///
/// The execution mode (single-threaded heap vs partitioned parallel) is
/// excluded from the fingerprint: the partitioned backend is pinned
/// byte-identical to the single-threaded one, so the mode cannot change
/// the output bytes.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimPass {
    executor: Option<Executor>,
}

impl SimPass {
    /// The single-threaded event-heap simulator.
    pub fn single_threaded() -> Self {
        SimPass { executor: None }
    }

    /// The partitioned parallel simulator on `executor` threads (requires
    /// the `partition` pass to have run).
    pub fn partitioned(executor: Executor) -> Self {
        SimPass {
            executor: Some(executor),
        }
    }
}

impl Pass for SimPass {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn fingerprint(&self) -> u64 {
        fnv64(b"sim/v1:event-heap:push-order-tiebreak")
    }

    fn run(&self, ir: &mut PipelineIr) -> Result<()> {
        let design = ir
            .design
            .as_ref()
            .ok_or_else(|| PipelineIr::missing("sim", "design"))?;
        let graph = ir
            .graph
            .as_ref()
            .ok_or_else(|| PipelineIr::missing("sim", "graph"))?;
        let schedule = ir
            .schedule
            .as_ref()
            .ok_or_else(|| PipelineIr::missing("sim", "schedule"))?;
        match self.executor {
            None => {
                ir.sim = Some(simulate_design(design, graph, schedule)?);
            }
            Some(executor) => {
                let partitions = ir
                    .partitions
                    .as_ref()
                    .ok_or_else(|| PipelineIr::missing("sim", "partitions"))?;
                let (report, stats) =
                    simulate_design_partitioned(design, graph, schedule, partitions, &executor)?;
                ir.sim = Some(report);
                ir.partition_stats = Some(stats);
            }
        }
        Ok(())
    }
}

/// An ordered list of passes with an order-sensitive combined fingerprint.
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
}

impl PassManager {
    /// A manager over an explicit pass list.
    pub fn new(passes: Vec<Box<dyn Pass>>) -> Self {
        PassManager { passes }
    }

    /// The standard full pipeline:
    /// `design → taskgraph → partition → schedule → sim`.
    pub fn standard() -> Self {
        PassManager::new(vec![
            Box::new(DesignPass),
            Box::new(GraphPass),
            Box::new(PartitionPass::default()),
            Box::new(SchedulePass),
            Box::new(SimPass::single_threaded()),
        ])
    }

    /// The lazy lowering the staged oracle runs on first schedule demand:
    /// `taskgraph → partition → schedule` (design is seeded, sim is on
    /// demand).
    pub fn lowering(partitions: usize) -> Self {
        PassManager::new(vec![
            Box::new(GraphPass),
            Box::new(PartitionPass { partitions }),
            Box::new(SchedulePass),
        ])
    }

    /// The passes, in execution order.
    pub fn passes(&self) -> &[Box<dyn Pass>] {
        &self.passes
    }

    /// Runs every pass in order, recording per-pass wall time in the IR.
    ///
    /// # Errors
    ///
    /// Stops at (and returns) the first pass failure.
    pub fn run(&self, ir: &mut PipelineIr) -> Result<()> {
        for pass in &self.passes {
            let t0 = Instant::now();
            pass.run(ir)?;
            ir.timings.push(PassTiming {
                name: pass.name(),
                nanos: t0.elapsed().as_nanos() as u64,
            });
        }
        Ok(())
    }

    /// Order-sensitive fold of every pass fingerprint: reordering,
    /// inserting, removing or re-versioning any pass changes the value.
    pub fn fingerprint(&self) -> u64 {
        let mut acc = fnv64(b"fnas-pass-pipeline/v1");
        for pass in &self.passes {
            acc = mix64(acc.rotate_left(7) ^ pass.fingerprint());
        }
        acc
    }
}

/// Fingerprint of [`PassManager::standard`] — the value folded into the
/// persistent store's cache keys (`fnas-store` rotates records when it
/// changes).
pub fn canonical_pipeline_fingerprint() -> u64 {
    PassManager::standard().fingerprint()
}

/// 64-bit FNV-1a, length-finalised through SplitMix64; stable across
/// platforms.
fn fnv64(bytes: &[u8]) -> u64 {
    mix64(fnv1a(FNV_OFFSET, bytes) ^ bytes.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::FpgaDevice;
    use crate::layer::ConvShape;

    fn network(filters: &[usize]) -> Network {
        let mut layers = Vec::new();
        let mut prev = 3usize;
        for &f in filters {
            layers.push(ConvShape::square(prev, f, 16, 3).unwrap());
            prev = f;
        }
        Network::new(layers).unwrap()
    }

    fn pynq_cluster() -> FpgaCluster {
        FpgaCluster::single(FpgaDevice::pynq())
    }

    #[test]
    fn standard_pipeline_fills_every_slot() {
        let mut ir = PipelineIr::for_network(network(&[16, 32, 16]), pynq_cluster());
        PassManager::standard().run(&mut ir).unwrap();
        assert!(ir.design().is_some());
        assert!(ir.graph().is_some());
        assert!(ir.partitions().is_some());
        assert!(ir.schedule().is_some());
        assert!(ir.sim().is_some());
        assert_eq!(ir.timings().len(), 5);
        let names: Vec<&str> = ir.timings().iter().map(|t| t.name).collect();
        assert_eq!(
            names,
            vec!["design", "taskgraph", "partition", "schedule", "sim"]
        );
        let summary = ir.summary();
        for token in ["design[", "graph[", "partitions[", "schedule[", "sim["] {
            assert!(summary.contains(token), "summary {summary:?}");
        }
    }

    #[test]
    fn pipeline_matches_the_direct_staged_path() {
        let net = network(&[16, 32]);
        let mut ir = PipelineIr::for_network(net.clone(), pynq_cluster());
        PassManager::standard().run(&mut ir).unwrap();

        let design = PipelineDesign::generate(&net, &FpgaDevice::pynq()).unwrap();
        let graph = TileTaskGraph::from_design(&design).unwrap();
        let schedule = FnasScheduler::new().schedule(&graph);
        let report = simulate_design(&design, &graph, &schedule).unwrap();

        assert_eq!(**ir.design().unwrap(), design);
        assert_eq!(*ir.schedule().unwrap().as_ref(), schedule);
        assert_eq!(*ir.sim().unwrap(), report);
    }

    #[test]
    fn seeded_design_makes_the_design_pass_a_no_op() {
        let net = network(&[8]);
        let design = Arc::new(PipelineDesign::generate(&net, &FpgaDevice::pynq()).unwrap());
        let mut ir = PipelineIr::from_design(design.clone());
        PassManager::standard().run(&mut ir).unwrap();
        assert!(Arc::ptr_eq(ir.design().unwrap(), &design));
    }

    #[test]
    fn missing_inputs_are_reported_per_pass() {
        let empty = PipelineIr::default();
        for pass in PassManager::standard().passes() {
            let err = pass.run(&mut empty.clone()).unwrap_err();
            match err {
                FpgaError::InvalidConfig { what } => {
                    assert!(what.contains(pass.name()), "{what}");
                }
                other => panic!("unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn fingerprint_is_order_sensitive_and_content_sensitive() {
        let standard = PassManager::standard().fingerprint();
        let reordered = PassManager::new(vec![
            Box::new(GraphPass),
            Box::new(DesignPass),
            Box::new(PartitionPass::default()),
            Box::new(SchedulePass),
            Box::new(SimPass::single_threaded()),
        ])
        .fingerprint();
        let shorter = PassManager::new(vec![Box::new(DesignPass), Box::new(GraphPass)]);
        assert_ne!(standard, reordered);
        assert_ne!(standard, shorter.fingerprint());
        assert_eq!(standard, canonical_pipeline_fingerprint());
    }

    #[test]
    fn partition_count_and_sim_mode_do_not_change_the_fingerprint() {
        let a = PassManager::new(vec![Box::new(PartitionPass { partitions: 2 })]).fingerprint();
        let b = PassManager::new(vec![Box::new(PartitionPass { partitions: 8 })]).fingerprint();
        assert_eq!(a, b);
        let single = PassManager::new(vec![Box::new(SimPass::single_threaded())]).fingerprint();
        let par = PassManager::new(vec![Box::new(SimPass::partitioned(
            Executor::with_workers(4),
        ))])
        .fingerprint();
        assert_eq!(single, par);
    }

    #[test]
    fn partitioned_sim_pass_records_stats() {
        let mut ir = PipelineIr::for_network(network(&[16, 16]), pynq_cluster());
        let manager = PassManager::new(vec![
            Box::new(DesignPass),
            Box::new(GraphPass),
            Box::new(PartitionPass { partitions: 2 }),
            Box::new(SchedulePass),
            Box::new(SimPass::partitioned(Executor::with_workers(2))),
        ]);
        manager.run(&mut ir).unwrap();
        let stats = ir.partition_stats().unwrap();
        assert_eq!(stats.partitions_built, 2);
        assert!(stats.cross_partition_events > 0);

        let mut single = PipelineIr::for_network(network(&[16, 16]), pynq_cluster());
        PassManager::standard().run(&mut single).unwrap();
        assert_eq!(single.sim().unwrap(), ir.sim().unwrap());
    }
}

//! **FNAS-Design** (component ➀): tiling-parameter selection.
//!
//! Each layer of the child network is mapped to a dedicated processing
//! element (PE); the PEs run as a pipeline on one FPGA or across a cluster
//! (§3.3 of the paper). This module decides, for every layer:
//!
//! 1. its **DSP budget** — load-balanced proportionally to the layer's MAC
//!    count, so pipeline stages have similar throughput;
//! 2. its **device** — consecutive layers are packed onto cluster devices by
//!    balancing MAC load;
//! 3. its **tiling parameters** `⟨Tm, Tn, Tr, Tc⟩` — chosen to minimise the
//!    layer's standalone cycle count subject to `Tm·Tn ≤ DSP budget` and the
//!    tile buffers fitting the per-layer BRAM budget, following the roofline
//!    methodology of Zhang et al. (FPGA'15) \[13\].
//!
//! After per-layer selection, the spatial grid is harmonised so that every
//! layer has the same number of row/col tiles — the paper's task graph maps
//! spatial tile `m` of one layer to spatial tile `m` of the next, which is
//! well-defined only on a common grid.
//!
//! The module is split by concern: `tiling` holds the per-layer roofline
//! search (buffer sizing, candidate enumeration), `placement` holds the
//! cross-layer decisions (device packing, DSP budgeting, grid
//! harmonisation). Both are driven by [`PipelineDesign::generate_on_cluster`],
//! the first stage of the lowering `crate::artifacts` records.

mod placement;
mod tiling;

pub use tiling::explore_tilings;

use crate::device::{FpgaCluster, FpgaDevice};
use crate::layer::{ConvShape, Network};
use crate::{Cycles, Result};

use placement::{assign_devices, dsp_budgets, harmonize_spatial_grid, make_layer_design};
use tiling::{bram_usage, choose_tiling};

/// Bytes per activation/weight word (16-bit fixed point, as in \[13\]).
pub const WORD_BYTES: usize = 2;

/// Tiling parameters `⟨Tm, Tn, Tr, Tc⟩` for one layer (§3.3).
///
/// # Examples
///
/// ```
/// use fnas_fpga::design::Tiling;
///
/// let t = Tiling::new(4, 2, 8, 8);
/// assert_eq!(t.dsp_slices(), 8); // a PE of Tm×Tn DSPs
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tiling {
    /// Output-channel tile extent `Tm`.
    pub tm: usize,
    /// Input-channel tile extent `Tn`.
    pub tn: usize,
    /// Output-row tile extent `Tr`.
    pub tr: usize,
    /// Output-column tile extent `Tc`.
    pub tc: usize,
}

impl Tiling {
    /// Creates a tiling; extents are clamped to at least 1.
    pub fn new(tm: usize, tn: usize, tr: usize, tc: usize) -> Self {
        Tiling {
            tm: tm.max(1),
            tn: tn.max(1),
            tr: tr.max(1),
            tc: tc.max(1),
        }
    }

    /// DSP slices a PE with this tiling occupies: `Tm × Tn` (one 16-bit MAC
    /// each, \[13\]).
    pub fn dsp_slices(&self) -> usize {
        self.tm * self.tn
    }
}

/// The complete design of one layer's PE.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerDesign {
    shape: ConvShape,
    tiling: Tiling,
    device: usize,
    compute_cycles_per_task: u64,
    transfer_cycles_per_task: u64,
}

impl LayerDesign {
    /// The layer's workload shape.
    pub fn shape(&self) -> &ConvShape {
        &self.shape
    }

    /// The chosen tiling.
    pub fn tiling(&self) -> &Tiling {
        &self.tiling
    }

    /// Index of the cluster device hosting this PE.
    pub fn device(&self) -> usize {
        self.device
    }

    /// Number of input-channel tiles `|CHⁱᶠᵐ| = ⌈N / Tn⌉`.
    pub fn ch_ifm_tiles(&self) -> usize {
        self.shape.in_channels().div_ceil(self.tiling.tn)
    }

    /// Number of output-channel tiles `|CHᵒᶠᵐ| = ⌈M / Tm⌉`.
    pub fn ch_ofm_tiles(&self) -> usize {
        self.shape.out_channels().div_ceil(self.tiling.tm)
    }

    /// Number of row/col tiles `|RC| = ⌈R / Tr⌉ · ⌈C / Tc⌉`.
    pub fn rc_tiles(&self) -> usize {
        self.shape.out_rows().div_ceil(self.tiling.tr)
            * self.shape.out_cols().div_ceil(self.tiling.tc)
    }

    /// Per-task compute time `ET = Kh·Kw·Tr·Tc` cycles (§3.3).
    pub fn compute_cycles_per_task(&self) -> Cycles {
        Cycles::new(self.compute_cycles_per_task)
    }

    /// Per-task external-memory transfer time (IFM tile + weights + OFM
    /// tile over the device bandwidth), assuming double buffering.
    pub fn transfer_cycles_per_task(&self) -> Cycles {
        Cycles::new(self.transfer_cycles_per_task)
    }

    /// Effective per-task latency: compute and transfer overlap under double
    /// buffering, so the slower of the two dominates.
    pub fn task_cycles(&self) -> Cycles {
        Cycles::new(
            self.compute_cycles_per_task
                .max(self.transfer_cycles_per_task),
        )
    }

    /// Total number of tasks on this PE:
    /// `|CHⁱᶠᵐ| × |CHᵒᶠᵐ| × |RC|` (Fig. 3(e)).
    pub fn task_count(&self) -> usize {
        self.ch_ifm_tiles() * self.ch_ofm_tiles() * self.rc_tiles()
    }

    /// Bytes of one OFM tile (for inter-device transfer costing).
    pub fn ofm_tile_bytes(&self) -> usize {
        self.tiling.tm * self.tiling.tr * self.tiling.tc * WORD_BYTES
    }

    /// On-chip buffer footprint of this PE in bytes (double-buffered IFM,
    /// OFM and weight tiles).
    pub fn bram_bytes(&self) -> usize {
        bram_usage(&self.shape, &self.tiling)
    }
}

/// A full pipeline design: one PE per layer, mapped onto a cluster.
///
/// # Examples
///
/// ```
/// use fnas_fpga::design::PipelineDesign;
/// use fnas_fpga::device::FpgaDevice;
/// use fnas_fpga::layer::{ConvShape, Network};
///
/// # fn main() -> Result<(), fnas_fpga::FpgaError> {
/// let net = Network::new(vec![ConvShape::square(3, 16, 16, 3)?])?;
/// let design = PipelineDesign::generate(&net, &FpgaDevice::pynq())?;
/// assert_eq!(design.layers().len(), 1);
/// assert!(design.layers()[0].tiling().dsp_slices() <= 220);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineDesign {
    layers: Vec<LayerDesign>,
    cluster: FpgaCluster,
}

impl PipelineDesign {
    /// Designs the pipeline for a single FPGA.
    ///
    /// # Errors
    ///
    /// See [`PipelineDesign::generate_on_cluster`].
    pub fn generate(network: &Network, device: &FpgaDevice) -> Result<Self> {
        PipelineDesign::generate_on_cluster(network, &FpgaCluster::single(device.clone()))
    }

    /// Designs the pipeline across a cluster: layers are packed onto devices
    /// by MAC load, then each layer's tiling is chosen within its device
    /// budget.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::InsufficientResources`](crate::FpgaError::InsufficientResources)
    /// when there are fewer DSP slices than layers on some device, or when
    /// even a 1×1×1×1 tile does not fit the per-layer BRAM budget.
    pub fn generate_on_cluster(network: &Network, cluster: &FpgaCluster) -> Result<Self> {
        let assignment = assign_devices(network, cluster);
        let mut layers = Vec::with_capacity(network.len());
        for (dev_idx, device) in cluster.devices().iter().enumerate() {
            let members: Vec<usize> = (0..network.len())
                .filter(|&i| assignment[i] == dev_idx)
                .collect();
            if members.is_empty() {
                continue;
            }
            let budgets = dsp_budgets(network, &members, device.dsp_slices())?;
            let bram_each = device.bram_bytes() / members.len();
            // The external memory bus is shared by every PE on the device,
            // so each layer sees its fair fraction of the bandwidth.
            let bw_each = device.bandwidth_bytes_per_cycle() / members.len() as f64;
            for (&layer_idx, &dsp) in members.iter().zip(&budgets) {
                let shape = network.layers()[layer_idx];
                let tiling = choose_tiling(&shape, dsp, bram_each, bw_each)?;
                layers.push((
                    layer_idx,
                    make_layer_design(shape, tiling, dev_idx, bw_each),
                ));
            }
        }
        layers.sort_by_key(|(i, _)| *i);
        let mut layers: Vec<LayerDesign> = layers.into_iter().map(|(_, d)| d).collect();
        harmonize_spatial_grid(&mut layers, cluster);
        Ok(PipelineDesign {
            layers,
            cluster: cluster.clone(),
        })
    }

    /// Per-layer designs, in pipeline order.
    pub fn layers(&self) -> &[LayerDesign] {
        &self.layers
    }

    /// The cluster this design targets.
    pub fn cluster(&self) -> &FpgaCluster {
        &self.cluster
    }

    /// Pipeline clock in MHz (slowest device).
    pub fn clock_mhz(&self) -> f64 {
        self.cluster.pipeline_clock_mhz()
    }

    /// Cycles to ship one OFM tile of layer `i` to layer `i+1`, zero when
    /// both PEs share a device.
    pub fn boundary_transfer_cycles(&self, producer: usize) -> Cycles {
        let consumer = producer + 1;
        if consumer >= self.layers.len()
            || self.layers[producer].device() == self.layers[consumer].device()
        {
            return Cycles::new(0);
        }
        let bytes = self.layers[producer].ofm_tile_bytes() as f64;
        Cycles::new((bytes / self.cluster.link_bytes_per_cycle()).ceil() as u64)
    }
}

/// Per-layer entry of a [`UtilizationReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct LayerUtilization {
    /// Layer index in the pipeline.
    pub layer: usize,
    /// Hosting device index.
    pub device: usize,
    /// DSP slices the PE occupies (`Tm × Tn`).
    pub dsp_slices: usize,
    /// Tile-buffer bytes the PE occupies.
    pub bram_bytes: usize,
    /// Fraction of the PE's raw MAC throughput the layer actually uses
    /// (losses come from `⌈·⌉` tile rounding and transfer-bound tasks).
    pub mac_efficiency: f64,
    /// `true` when the per-task latency is set by compute rather than by
    /// the memory bus.
    pub compute_bound: bool,
}

/// Resource accounting for a whole pipeline design.
///
/// # Examples
///
/// ```
/// use fnas_fpga::design::PipelineDesign;
/// use fnas_fpga::device::FpgaDevice;
/// use fnas_fpga::layer::{ConvShape, Network};
///
/// # fn main() -> Result<(), fnas_fpga::FpgaError> {
/// let net = Network::new(vec![ConvShape::square(3, 16, 16, 3)?])?;
/// let design = PipelineDesign::generate(&net, &FpgaDevice::pynq())?;
/// let u = design.utilization();
/// assert!(u.dsp_used <= u.dsp_available);
/// assert!(u.per_layer[0].mac_efficiency <= 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationReport {
    /// One entry per layer, in pipeline order.
    pub per_layer: Vec<LayerUtilization>,
    /// DSP slices occupied across the cluster.
    pub dsp_used: usize,
    /// DSP slices the cluster offers.
    pub dsp_available: usize,
    /// Tile-buffer bytes occupied across the cluster.
    pub bram_used: usize,
    /// BRAM bytes the cluster offers.
    pub bram_available: usize,
}

impl PipelineDesign {
    /// Computes the resource accounting of this design.
    pub fn utilization(&self) -> UtilizationReport {
        let per_layer: Vec<LayerUtilization> = self
            .layers
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let macs = l.shape().macs().get() as f64;
                let pe_cycles = (l.task_count() as u64 * l.task_cycles().get()) as f64;
                let dsp = l.tiling().dsp_slices();
                LayerUtilization {
                    layer: i,
                    device: l.device(),
                    dsp_slices: dsp,
                    bram_bytes: l.bram_bytes(),
                    mac_efficiency: if pe_cycles > 0.0 {
                        (macs / (pe_cycles * dsp as f64)).min(1.0)
                    } else {
                        0.0
                    },
                    compute_bound: l.compute_cycles_per_task() >= l.transfer_cycles_per_task(),
                }
            })
            .collect();
        UtilizationReport {
            dsp_used: per_layer.iter().map(|l| l.dsp_slices).sum(),
            dsp_available: self.cluster.total_dsp_slices(),
            bram_used: per_layer.iter().map(|l| l.bram_bytes).sum(),
            bram_available: self.cluster.total_bram_bytes(),
            per_layer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FpgaError;

    pub(super) fn net4(filters: [usize; 4]) -> Network {
        let mut layers = Vec::new();
        let mut prev = 3usize;
        for f in filters {
            layers.push(ConvShape::square(prev, f, 16, 3).unwrap());
            prev = f;
        }
        Network::new(layers).unwrap()
    }

    #[test]
    fn design_respects_dsp_budget() {
        let net = net4([64, 64, 128, 64]);
        let dev = FpgaDevice::pynq();
        let d = PipelineDesign::generate(&net, &dev).unwrap();
        let used: usize = d.layers().iter().map(|l| l.tiling().dsp_slices()).sum();
        assert!(
            used <= dev.dsp_slices(),
            "used {used} DSPs of {}",
            dev.dsp_slices()
        );
        assert_eq!(d.layers().len(), 4);
    }

    #[test]
    fn design_respects_bram_budget() {
        let net = net4([64, 64, 64, 64]);
        let dev = FpgaDevice::xc7a50t();
        let d = PipelineDesign::generate(&net, &dev).unwrap();
        let per_layer = dev.bram_bytes() / 4;
        for l in d.layers() {
            assert!(
                l.bram_bytes() <= per_layer,
                "layer buffers {} exceed budget {per_layer}",
                l.bram_bytes()
            );
        }
    }

    #[test]
    fn bigger_device_is_never_slower() {
        let net = net4([64, 128, 128, 64]);
        let small = PipelineDesign::generate(&net, &FpgaDevice::xc7a50t()).unwrap();
        let large = PipelineDesign::generate(&net, &FpgaDevice::zu9eg()).unwrap();
        let cycles = |d: &PipelineDesign| -> u64 {
            d.layers()
                .iter()
                .map(|l| l.task_count() as u64 * l.task_cycles().get())
                .sum()
        };
        assert!(cycles(&large) <= cycles(&small));
    }

    #[test]
    fn tilings_never_exceed_layer_extents() {
        let net = net4([9, 18, 36, 9]);
        let d = PipelineDesign::generate(&net, &FpgaDevice::zu9eg()).unwrap();
        for l in d.layers() {
            assert!(l.tiling().tm <= l.shape().out_channels());
            assert!(l.tiling().tn <= l.shape().in_channels());
            assert!(l.tiling().tr <= l.shape().out_rows());
            assert!(l.tiling().tc <= l.shape().out_cols());
        }
    }

    #[test]
    fn spatial_grid_is_harmonised() {
        let net = net4([64, 64, 64, 64]);
        let d = PipelineDesign::generate(&net, &FpgaDevice::xc7a50t()).unwrap();
        let grids: Vec<usize> = d.layers().iter().map(LayerDesign::rc_tiles).collect();
        assert!(grids.windows(2).all(|w| w[0] == w[1]), "grids {grids:?}");
    }

    #[test]
    fn too_many_layers_for_dsps_errors() {
        let tiny = FpgaDevice::new("tiny", 2, 1 << 20, 4.0, 100.0).unwrap();
        let net = net4([4, 4, 4, 4]);
        let err = PipelineDesign::generate(&net, &tiny).unwrap_err();
        assert!(matches!(
            err,
            FpgaError::InsufficientResources {
                resource: "DSP slices",
                ..
            }
        ));
    }

    #[test]
    fn microscopic_bram_errors() {
        let dev = FpgaDevice::new("nobram", 64, 8, 4.0, 100.0).unwrap();
        let net = Network::new(vec![ConvShape::square(3, 8, 16, 3).unwrap()]).unwrap();
        let err = PipelineDesign::generate(&net, &dev).unwrap_err();
        assert!(matches!(
            err,
            FpgaError::InsufficientResources {
                resource: "BRAM bytes",
                ..
            }
        ));
    }

    #[test]
    fn cluster_design_spreads_layers() {
        let net = net4([64, 64, 64, 64]);
        let cluster = FpgaCluster::homogeneous(FpgaDevice::pynq(), 2, 4.0).unwrap();
        let d = PipelineDesign::generate_on_cluster(&net, &cluster).unwrap();
        let devices: Vec<usize> = d.layers().iter().map(LayerDesign::device).collect();
        assert!(devices.contains(&0));
        assert!(devices.contains(&1));
        // Assignment is monotone (consecutive layers).
        assert!(devices.windows(2).all(|w| w[0] <= w[1]));
        // Crossing a device boundary costs cycles; staying does not.
        let boundary = devices.windows(2).position(|w| w[0] != w[1]).unwrap();
        assert!(d.boundary_transfer_cycles(boundary).get() > 0);
        if boundary > 0 {
            assert_eq!(d.boundary_transfer_cycles(boundary - 1).get(), 0);
        }
    }

    #[test]
    fn utilization_accounts_every_layer() {
        let net = net4([64, 64, 128, 64]);
        let d = PipelineDesign::generate(&net, &FpgaDevice::pynq()).unwrap();
        let u = d.utilization();
        assert_eq!(u.per_layer.len(), 4);
        assert!(u.dsp_used <= u.dsp_available);
        assert!(u.bram_used <= u.bram_available);
        for l in &u.per_layer {
            assert!(l.mac_efficiency > 0.0 && l.mac_efficiency <= 1.0);
            assert!(l.dsp_slices > 0);
        }
        // Load balancing should keep the design from starving any layer:
        // at least half the device's DSPs are in use for this workload.
        assert!(
            u.dsp_used * 2 >= u.dsp_available,
            "{} of {}",
            u.dsp_used,
            u.dsp_available
        );
    }

    #[test]
    fn task_cycles_is_max_of_compute_and_transfer() {
        let net = Network::new(vec![ConvShape::square(3, 8, 16, 3).unwrap()]).unwrap();
        let d = PipelineDesign::generate(&net, &FpgaDevice::pynq()).unwrap();
        let l = &d.layers()[0];
        assert_eq!(
            l.task_cycles().get(),
            l.compute_cycles_per_task()
                .get()
                .max(l.transfer_cycles_per_task().get())
        );
    }
}

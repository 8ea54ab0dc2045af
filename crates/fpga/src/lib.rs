//! FPGA performance abstraction for the FNAS reproduction.
//!
//! This crate implements the complete "FNAS tool" of the DAC'19 paper plus a
//! validating cycle-level simulator:
//!
//! * [`device`] — a catalogue of FPGA resource models (DSP slices, BRAM,
//!   external bandwidth, clock) for the boards the paper evaluates on
//!   (Xilinx 7A50T, 7Z020 / PYNQ, ZU9EG) and multi-FPGA clusters;
//! * [`layer`] — convolution workload shapes (`⟨N, M, R, C, Kh, Kw⟩`) and
//!   whole-network pipelines;
//! * [`design`] — **FNAS-Design**: per-layer tiling parameters
//!   `⟨Tm, Tn, Tr, Tc⟩` chosen under load-balanced DSP/BRAM budgets
//!   (after Zhang et al., FPGA'15);
//! * [`taskgraph`] — **FNAS-GG**: the tile-based task graph with
//!   inter-layer and intra-layer dependencies;
//! * [`sched`] — **FNAS-Sched**: the three-step flexible schedule with
//!   alternating OFM/IFM reuse, plus the *fixed scheduling* baseline;
//! * [`analyzer`] — **FNAS-Analyzer**: closed-form latency (Eqs. 2–5);
//! * [`artifacts`] — the staged pipeline record ([`artifacts::HwArtifacts`]:
//!   design → graph → schedule, each built at most once, priced by the
//!   analyzer or the simulator) and the canonical pipeline fingerprint
//!   folded into `fnas-store` cache keys;
//! * [`sim`] — a discrete-event simulator executing a schedule on the
//!   pipeline of processing elements, optionally across multiple FPGAs,
//!   which stands in for the paper's physical boards (see DESIGN.md §2);
//! * [`viz`] — SVG Gantt rendering of execution traces (Fig. 4(b)-style).
//!
//! # Examples
//!
//! ```
//! use fnas_fpga::device::FpgaDevice;
//! use fnas_fpga::layer::{ConvShape, Network};
//! use fnas_fpga::design::PipelineDesign;
//! use fnas_fpga::analyzer::analyze;
//!
//! # fn main() -> Result<(), fnas_fpga::FpgaError> {
//! let net = Network::new(vec![
//!     ConvShape::square(3, 16, 32, 3)?,
//!     ConvShape::square(16, 32, 32, 3)?,
//! ])?;
//! let design = PipelineDesign::generate(&net, &FpgaDevice::pynq())?;
//! let report = analyze(&design)?;
//! assert!(report.latency_cycles.get() > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyzer;
pub mod artifacts;
pub mod design;
pub mod device;
mod error;
pub mod layer;
pub mod sched;
pub mod sim;
pub mod taskgraph;
mod units;
pub mod viz;

pub use error::FpgaError;
pub use units::{Cycles, MacCount, Millis};

/// Convenience result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, FpgaError>;

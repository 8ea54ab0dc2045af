//! Per-child trial records and the failed/unbuildable reward taxonomy.

use fnas_controller::arch::ChildArch;
use fnas_exec::SearchTelemetry;
use fnas_fpga::Millis;

use crate::{FnasError, Result};

/// Everything recorded about one explored child.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRecord {
    /// Trial index (0-based).
    pub index: usize,
    /// The sampled architecture.
    pub arch: ChildArch,
    /// FPGA latency, when it was computed (always for FNAS; post-hoc for
    /// NAS reporting, at zero modelled cost).
    pub latency: Option<Millis>,
    /// Trained/surrogate accuracy, when the child was evaluated.
    pub accuracy: Option<f32>,
    /// The reward fed to the controller.
    pub reward: f32,
    /// Whether the child was trained (false = pruned by the FNAS tool).
    pub trained: bool,
}

impl TrialRecord {
    /// `true` when this trial's latency meets `required`.
    pub fn meets(&self, required: Millis) -> bool {
        self.latency.is_some_and(|l| l.get() <= required.get())
    }
}

/// Reward for architectures that cannot be realised at all.
pub(super) const UNBUILDABLE_REWARD: f32 = -2.0;

/// Reward for children whose evaluation faulted (panic, exhausted retry
/// budget, quarantined accuracy). As strongly negative as unbuildable: the
/// controller should steer away, but the run must not die.
pub(super) const FAULTED_REWARD: f32 = -2.0;

/// Absorbs a child-evaluation error into the trial stream, or propagates
/// it when it is fatal.
///
/// * [`FnasError::InvalidConfig`] — a misconfigured oracle fails every
///   child identically; aborting beats 60 failed trials.
/// * [`FnasError::Nn`] / [`FnasError::Fpga`] — the architecture cannot be
///   realised: an *unbuildable* record (pre-existing semantics).
/// * everything else (oracle faults, I/O) — a *failed* record; siblings
///   and later episodes are unaffected.
pub(super) fn failed_or_unbuildable(
    e: FnasError,
    index: usize,
    arch: ChildArch,
    latency: Option<Millis>,
    telemetry: &SearchTelemetry,
) -> Result<TrialRecord> {
    match e {
        FnasError::InvalidConfig { .. } => Err(e),
        FnasError::Nn(_) | FnasError::Fpga(_) => {
            telemetry.children_unbuildable.add(1);
            Ok(TrialRecord {
                index,
                arch,
                latency: None,
                accuracy: None,
                reward: UNBUILDABLE_REWARD,
                trained: false,
            })
        }
        _ => {
            telemetry.children_failed.add(1);
            Ok(TrialRecord {
                index,
                arch,
                latency,
                accuracy: None,
                reward: FAULTED_REWARD,
                trained: false,
            })
        }
    }
}

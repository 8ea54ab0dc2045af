//! The REINFORCE trainer tying policy, sampling and updates together.
//!
//! FNAS feeds the controller the reward of Eq. (1) — which already contains
//! the exponential-moving-average accuracy baseline `b` — so the trainer
//! treats the incoming value as the *advantage* directly. For plain NAS
//! usage the trainer can also maintain its own EMA baseline.

use fnas_nn::optim::{Adam, AdamState};
use rand::RngCore;

use crate::arch::ChildArch;
use crate::rnn::{Episode, PolicyRnn};
use crate::space::SearchSpace;
use crate::{ControllerError, Result};

/// Default controller learning rate.
pub const DEFAULT_LR: f32 = 0.02;

/// A sampled architecture together with its policy episode.
#[derive(Debug, Clone)]
pub struct ArchSample {
    arch: ChildArch,
    episode: Episode,
}

impl ArchSample {
    /// The decoded child architecture.
    pub fn arch(&self) -> &ChildArch {
        &self.arch
    }

    /// The underlying policy episode.
    pub fn episode(&self) -> &Episode {
        &self.episode
    }
}

/// A plain-data snapshot of a [`ReinforceTrainer`]'s mutable state —
/// policy parameters, optimiser moments and the update counter — for
/// checkpointing a search mid-run. Restoring it into a trainer built from
/// the same search space and hyper-parameters resumes training
/// bit-identically.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainerState {
    /// Flat policy parameters in [`PolicyRnn::export_params`] order.
    pub params: Vec<f32>,
    /// Adam optimiser state (time step and moment buffers).
    pub optimizer: AdamState,
    /// Gradient updates applied so far.
    pub updates: u64,
}

/// Policy-gradient trainer for the NAS controller.
///
/// # Examples
///
/// ```
/// use fnas_controller::reinforce::ReinforceTrainer;
/// use fnas_controller::space::SearchSpace;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), fnas_controller::ControllerError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut trainer = ReinforceTrainer::new(&SearchSpace::mnist(), &mut rng)?;
/// let sample = trainer.sample(&mut rng)?;
/// trainer.accumulate_episode(&[(sample, 0.8)])?;
/// trainer.apply_step()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ReinforceTrainer {
    policy: PolicyRnn,
    optimizer: Adam,
    updates: usize,
}

impl ReinforceTrainer {
    /// Creates a trainer with a fresh policy and the default learning rate.
    ///
    /// # Errors
    ///
    /// Propagates policy construction errors.
    pub fn new(space: &SearchSpace, rng: &mut dyn RngCore) -> Result<Self> {
        Ok(ReinforceTrainer {
            policy: PolicyRnn::new(space, rng)?,
            optimizer: Adam::new(DEFAULT_LR),
            updates: 0,
        })
    }

    /// Creates a trainer around an existing policy (for custom widths or
    /// entropy settings).
    pub fn with_policy(policy: PolicyRnn, lr: f32) -> Self {
        ReinforceTrainer {
            policy,
            optimizer: Adam::new(lr),
            updates: 0,
        }
    }

    /// The underlying policy (e.g. for [`PolicyRnn::log_prob_of`]
    /// diagnostics).
    pub fn policy(&self) -> &PolicyRnn {
        &self.policy
    }

    /// Number of gradient updates applied so far.
    pub fn updates(&self) -> usize {
        self.updates
    }

    /// Snapshots the trainer's mutable state for checkpointing; the
    /// inverse of [`ReinforceTrainer::import_state`].
    pub fn export_state(&mut self) -> TrainerState {
        TrainerState {
            params: self.policy.export_params(),
            optimizer: self.optimizer.export_state(),
            updates: self.updates as u64,
        }
    }

    /// Restores state captured by [`ReinforceTrainer::export_state`] on a
    /// trainer built over an identically-shaped policy with the same
    /// hyper-parameters; sampling and updates then continue
    /// bit-identically from the snapshot point.
    ///
    /// # Errors
    ///
    /// Returns [`ControllerError::InvalidConfig`] when the parameter
    /// buffer does not match this policy's parameter count.
    pub fn import_state(&mut self, state: &TrainerState) -> Result<()> {
        self.policy.import_params(&state.params)?;
        self.optimizer.import_state(&state.optimizer);
        self.updates = state.updates as usize;
        Ok(())
    }

    /// Samples a child architecture from the current policy.
    ///
    /// # Errors
    ///
    /// Propagates policy errors.
    pub fn sample(&self, rng: &mut dyn RngCore) -> Result<ArchSample> {
        let episode = self.policy.sample(rng)?;
        let arch = ChildArch::from_indices(self.policy.space(), episode.indices())?;
        Ok(ArchSample { arch, episode })
    }

    /// Gradient **accumulation** — the pure half of an update: folds one
    /// episode's averaged REINFORCE gradient into the policy's gradient
    /// buffers *without* touching the parameters or the optimiser. The
    /// advantage is used as given (FNAS passes the Eq. (1) reward, which
    /// is already baselined), and averaging over the episode is the
    /// lower-variance minibatch REINFORCE of \[16\]. Results computed
    /// elsewhere (another shard's episode, a replayed
    /// [`crate::reinforce::TrainerState`]) reduce deterministically by
    /// accumulating in a fixed order and then calling
    /// [`ReinforceTrainer::apply_step`] once.
    ///
    /// # Errors
    ///
    /// Returns an episode/space mismatch, or
    /// [`ControllerError::NonFiniteAdvantage`] *before* any gradient is
    /// accumulated if an advantage is NaN/Inf — one poisoned reward would
    /// otherwise spread NaN through every parameter on the next optimiser
    /// step. An empty batch is a no-op.
    pub fn accumulate_episode(&mut self, batch: &[(ArchSample, f32)]) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        if let Some((_, bad)) = batch.iter().find(|(_, adv)| !adv.is_finite()) {
            return Err(ControllerError::NonFiniteAdvantage { value: *bad });
        }
        let scale = 1.0 / batch.len() as f32;
        for (sample, advantage) in batch {
            self.policy
                .accumulate_gradient(&sample.episode, advantage * scale)?;
        }
        Ok(())
    }

    /// Gradient **application** — the impure half of an update: one Adam
    /// step over whatever [`ReinforceTrainer::accumulate_episode`] has
    /// gathered since the last step, then zeroed gradients.
    ///
    /// # Errors
    ///
    /// Propagates optimiser slot/shape errors.
    pub fn apply_step(&mut self) -> Result<()> {
        self.policy.apply(&mut self.optimizer)?;
        self.updates += 1;
        Ok(())
    }
}

/// An exponential-moving-average baseline over accuracies, as used by the
/// reward function of Eq. (1) (`b` is "an exponential moving average of the
/// previous architecture accuracies").
///
/// # Examples
///
/// ```
/// use fnas_controller::reinforce::EmaBaseline;
///
/// let mut b = EmaBaseline::new(0.5);
/// assert_eq!(b.value(), 0.0);
/// b.observe(1.0);
/// b.observe(0.0);
/// assert!((b.value() - 0.5).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmaBaseline {
    decay: f32,
    value: Option<f32>,
}

impl EmaBaseline {
    /// Creates a baseline with decay `β`: `b ← β·b + (1−β)·x`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ decay < 1`.
    pub fn new(decay: f32) -> Self {
        assert!((0.0..1.0).contains(&decay), "decay must be in [0, 1)");
        EmaBaseline { decay, value: None }
    }

    /// Rebuilds a baseline from checkpointed state: the decay and the raw
    /// value as returned by [`EmaBaseline::raw_value`] (`None` = no
    /// observation folded in yet, which `value()`'s `0.0` cannot encode).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ decay < 1`, like [`EmaBaseline::new`].
    pub fn restore(decay: f32, value: Option<f32>) -> Self {
        let mut b = EmaBaseline::new(decay);
        b.value = value;
        b
    }

    /// Current baseline; `0.0` before the first observation.
    pub fn value(&self) -> f32 {
        self.value.unwrap_or(0.0)
    }

    /// The raw state: `None` before the first observation (for
    /// checkpointing — see [`EmaBaseline::restore`]).
    pub fn raw_value(&self) -> Option<f32> {
        self.value
    }

    /// The decay constant `β`.
    pub fn decay(&self) -> f32 {
        self.decay
    }

    /// Folds a new observation into the average. The first observation
    /// initialises the baseline directly. Non-finite observations are
    /// ignored: a single NaN accuracy would otherwise poison the baseline
    /// — and through it every subsequent reward — permanently.
    pub fn observe(&mut self, x: f32) {
        if !x.is_finite() {
            return;
        }
        self.value = Some(match self.value {
            None => x,
            Some(v) => self.decay * v + (1.0 - self.decay) * x,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// REINFORCE must be able to optimise a simple synthetic objective:
    /// reward = fraction of decisions equal to option 0.
    #[test]
    fn learns_to_prefer_option_zero() {
        let mut rng = StdRng::seed_from_u64(9);
        let space = SearchSpace::mnist();
        let mut trainer = ReinforceTrainer::new(&space, &mut rng).unwrap();
        let mut baseline = EmaBaseline::new(0.8);
        let score =
            |idx: &[usize]| idx.iter().filter(|&&i| i == 0).count() as f32 / idx.len() as f32;
        let mut early = 0.0f32;
        let mut late = 0.0f32;
        for it in 0..300 {
            let s = trainer.sample(&mut rng).unwrap();
            let r = score(s.episode().indices());
            let adv = r - baseline.value();
            baseline.observe(r);
            trainer.accumulate_episode(&[(s, adv)]).unwrap();
            trainer.apply_step().unwrap();
            if it < 30 {
                early += r;
            }
            if it >= 270 {
                late += r;
            }
        }
        assert!(
            late > early + 3.0,
            "late score {late} should beat early {early} clearly"
        );
        assert_eq!(trainer.updates(), 300);
    }

    #[test]
    fn sample_decodes_into_the_space() {
        let mut rng = StdRng::seed_from_u64(0);
        let space = SearchSpace::cifar10();
        let trainer = ReinforceTrainer::new(&space, &mut rng).unwrap();
        let s = trainer.sample(&mut rng).unwrap();
        assert_eq!(s.arch().num_layers(), 10);
        for l in s.arch().layers() {
            assert!(space.filter_sizes().contains(&l.filter_size));
            assert!(space.filter_counts().contains(&l.num_filters));
        }
    }

    #[test]
    fn batched_updates_also_learn() {
        let mut rng = StdRng::seed_from_u64(14);
        let space = SearchSpace::mnist();
        let mut trainer = ReinforceTrainer::new(&space, &mut rng).unwrap();
        let mut baseline = EmaBaseline::new(0.8);
        let score =
            |idx: &[usize]| idx.iter().filter(|&&i| i == 0).count() as f32 / idx.len() as f32;
        let mut early = 0.0f32;
        let mut late = 0.0f32;
        for round in 0..80 {
            let batch: Vec<(ArchSample, f32)> = (0..4)
                .map(|_| {
                    let s = trainer.sample(&mut rng).unwrap();
                    let r = score(s.episode().indices());
                    let adv = r - baseline.value();
                    baseline.observe(r);
                    if round < 10 {
                        early += r;
                    }
                    if round >= 70 {
                        late += r;
                    }
                    (s, adv)
                })
                .collect();
            trainer.accumulate_episode(&batch).unwrap();
            trainer.apply_step().unwrap();
        }
        assert_eq!(trainer.updates(), 80);
        assert!(late > early + 2.0, "late {late} vs early {early}");
        // Accumulating an empty episode leaves the parameters unchanged.
        let before = trainer.export_state();
        trainer.accumulate_episode(&[]).unwrap();
        assert_eq!(trainer.export_state(), before);
    }

    #[test]
    fn ema_baseline_tracks_rewards() {
        let mut b = EmaBaseline::new(0.9);
        for _ in 0..200 {
            b.observe(0.75);
        }
        assert!((b.value() - 0.75).abs() < 1e-4);
    }

    #[test]
    fn ema_baseline_ignores_non_finite_observations() {
        let mut b = EmaBaseline::new(0.5);
        b.observe(f32::NAN);
        assert_eq!(b.raw_value(), None);
        b.observe(0.8);
        b.observe(f32::INFINITY);
        b.observe(f32::NEG_INFINITY);
        assert_eq!(b.value(), 0.8);
    }

    #[test]
    fn ema_baseline_restore_round_trips() {
        let mut b = EmaBaseline::new(0.7);
        b.observe(0.9);
        b.observe(0.5);
        let restored = EmaBaseline::restore(b.decay(), b.raw_value());
        assert_eq!(restored, b);
        // A never-observed baseline restores to the same "empty" state.
        let empty = EmaBaseline::restore(0.7, None);
        assert_eq!(empty, EmaBaseline::new(0.7));
        assert_eq!(empty.value(), 0.0);
    }

    #[test]
    fn non_finite_advantage_is_rejected_before_any_gradient() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut trainer = ReinforceTrainer::new(&SearchSpace::mnist(), &mut rng).unwrap();
        let s = trainer.sample(&mut rng).unwrap();
        let before = trainer.policy().log_prob_of(s.episode().indices()).unwrap();
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            assert!(matches!(
                trainer.accumulate_episode(&[(s.clone(), bad)]),
                Err(ControllerError::NonFiniteAdvantage { .. })
            ));
        }
        // Mixed batches are rejected atomically: the good sample's
        // gradient must not have been accumulated either, so the next
        // step moves nothing.
        let good = (s.clone(), 0.5f32);
        let bad = (s.clone(), f32::NAN);
        assert!(trainer.accumulate_episode(&[good, bad]).is_err());
        assert_eq!(trainer.updates(), 0);
        trainer.apply_step().unwrap();
        let after = trainer.policy().log_prob_of(s.episode().indices()).unwrap();
        assert_eq!(
            before.to_bits(),
            after.to_bits(),
            "policy must be untouched"
        );
    }

    #[test]
    fn trainer_state_round_trip_resumes_bit_identically() {
        let space = SearchSpace::mnist();
        let score =
            |idx: &[usize]| idx.iter().filter(|&&i| i == 0).count() as f32 / idx.len() as f32;
        let drive = |trainer: &mut ReinforceTrainer, rng: &mut StdRng, steps: usize| {
            for _ in 0..steps {
                let s = trainer.sample(rng).unwrap();
                let r = score(s.episode().indices());
                trainer.accumulate_episode(&[(s, r - 0.4)]).unwrap();
                trainer.apply_step().unwrap();
            }
        };
        // Uninterrupted run: 20 updates.
        let mut rng_a = StdRng::seed_from_u64(5);
        let mut a = ReinforceTrainer::new(&space, &mut rng_a).unwrap();
        drive(&mut a, &mut rng_a, 20);
        // Interrupted run: 8 updates, checkpoint, rebuild, 12 more. The
        // driving RNG state is carried over via the rand shim's state
        // snapshot, exactly like the searcher's checkpoint does.
        let mut rng_b = StdRng::seed_from_u64(5);
        let mut b = ReinforceTrainer::new(&space, &mut rng_b).unwrap();
        drive(&mut b, &mut rng_b, 8);
        let state = b.export_state();
        assert_eq!(state.updates, 8);
        let mut rng_c = StdRng::from_state(rng_b.state());
        let mut fresh_init = StdRng::seed_from_u64(999);
        let mut c = ReinforceTrainer::new(&space, &mut fresh_init).unwrap();
        c.import_state(&state).unwrap();
        drive(&mut c, &mut rng_c, 12);
        assert_eq!(c.updates(), 20);
        let probe = a.sample(&mut StdRng::seed_from_u64(0)).unwrap();
        let la = a.policy().log_prob_of(probe.episode().indices()).unwrap();
        let lc = c.policy().log_prob_of(probe.episode().indices()).unwrap();
        assert_eq!(la.to_bits(), lc.to_bits());
        // A state for a different policy shape is rejected.
        let mut rng_d = StdRng::seed_from_u64(1);
        let mut d = ReinforceTrainer::new(&SearchSpace::cifar10(), &mut rng_d).unwrap();
        assert!(d.import_state(&state).is_err());
    }

    #[test]
    #[should_panic(expected = "decay")]
    fn bad_decay_panics() {
        let _ = EmaBaseline::new(1.0);
    }
}

//! The reinforcement-learning NAS controller of the FNAS reproduction.
//!
//! FNAS keeps the controller of Zoph & Le's NAS \[16\]: a recurrent policy
//! network emits one hyper-parameter decision per step — alternating
//! *filter size* and *filter count* for each convolutional layer — and is
//! trained with REINFORCE on the reward the framework computes for the
//! resulting child network.
//!
//! * [`space`] — the per-dataset search spaces of Table 2;
//! * [`arch`] — the sampled child architecture and its conversion to
//!   trainable layer stacks;
//! * [`rnn`] — the LSTM policy with per-decision softmax heads and manual
//!   backpropagation-through-time;
//! * [`reinforce`] — the policy-gradient trainer with baseline handling.
//!
//! # Examples
//!
//! ```
//! use fnas_controller::reinforce::ReinforceTrainer;
//! use fnas_controller::space::SearchSpace;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), fnas_controller::ControllerError> {
//! let space = SearchSpace::mnist();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut trainer = ReinforceTrainer::new(&space, &mut rng)?;
//! let sample = trainer.sample(&mut rng)?;
//! assert_eq!(sample.arch().num_layers(), 4);
//! // One REINFORCE step on a reward from the FNAS framework.
//! trainer.accumulate_episode(&[(sample, 0.5)])?;
//! trainer.apply_step()?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arch;
mod error;
pub mod reinforce;
pub mod rnn;
pub mod space;

pub use error::ControllerError;

/// Convenience result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, ControllerError>;

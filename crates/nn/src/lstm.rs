//! An LSTM cell with backpropagation-through-time support.
//!
//! The NAS controller of the FNAS paper is a recurrent policy network: at
//! every step it consumes an embedding of the previous decision and emits a
//! distribution over the next hyper-parameter choice. This module provides
//! the recurrent core: a single-example (unbatched) [`LstmCell`] whose
//! [`LstmCell::step`] returns a [`StepCache`] that
//! [`LstmCell::backward_step`] later consumes, so a caller can unroll an
//! episode forward and then walk the caches backwards.

use fnas_tensor::{Init, Tensor, XavierUniform};
use rand::RngCore;

use crate::layer::ParamMut;
use crate::{NnError, Result};

/// Hidden and cell state of an LSTM at one time step.
#[derive(Debug, Clone, PartialEq)]
pub struct LstmState {
    /// Hidden activation `h` (rank 1, length `hidden_size`).
    pub h: Tensor,
    /// Cell state `c` (rank 1, length `hidden_size`).
    pub c: Tensor,
}

impl LstmState {
    /// The all-zeros initial state for a cell of width `hidden_size`.
    pub fn zeros(hidden_size: usize) -> Self {
        LstmState {
            h: Tensor::zeros([hidden_size]),
            c: Tensor::zeros([hidden_size]),
        }
    }
}

/// Everything the backward pass needs about one forward step.
///
/// Produced by [`LstmCell::step`]; feed them back to
/// [`LstmCell::backward_step`] in reverse order.
#[derive(Debug, Clone)]
pub struct StepCache {
    x: Tensor,
    h_prev: Tensor,
    c_prev: Tensor,
    /// Post-activation gates.
    i: Tensor,
    f: Tensor,
    g: Tensor,
    o: Tensor,
    c_new: Tensor,
}

/// A single-layer LSTM cell over unbatched rank-1 inputs.
///
/// Weight layout: the four gates (input `i`, forget `f`, candidate `g`,
/// output `o`) are stacked along the first axis of `w_x: [4H, X]`,
/// `w_h: [4H, H]` and `b: [4H]`, in that order.
///
/// # Examples
///
/// ```
/// use fnas_nn::lstm::{LstmCell, LstmState};
/// use fnas_tensor::Tensor;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), fnas_nn::NnError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let cell = LstmCell::new(8, 16, &mut rng)?;
/// let state = LstmState::zeros(16);
/// let (next, _cache) = cell.step(&Tensor::zeros(&[8]), &state)?;
/// assert_eq!(next.h.len(), 16);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LstmCell {
    input_size: usize,
    hidden_size: usize,
    w_x: Tensor,
    w_h: Tensor,
    b: Tensor,
    grad_w_x: Tensor,
    grad_w_h: Tensor,
    grad_b: Tensor,
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

impl LstmCell {
    /// Creates a cell with Xavier-uniform weights and a +1 forget-gate bias
    /// (the standard trick for gradient flow early in training).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if either size is zero.
    pub fn new(input_size: usize, hidden_size: usize, rng: &mut dyn RngCore) -> Result<Self> {
        if input_size == 0 || hidden_size == 0 {
            return Err(NnError::InvalidConfig {
                what: format!(
                    "lstm requires non-zero sizes, got input={input_size} hidden={hidden_size}"
                ),
            });
        }
        let mut b = Tensor::zeros([4 * hidden_size]);
        for j in hidden_size..2 * hidden_size {
            *b.at_mut(j) = 1.0;
        }
        Ok(LstmCell {
            input_size,
            hidden_size,
            w_x: XavierUniform.init(&[4 * hidden_size, input_size].into(), rng),
            w_h: XavierUniform.init(&[4 * hidden_size, hidden_size].into(), rng),
            b,
            grad_w_x: Tensor::zeros([4 * hidden_size, input_size]),
            grad_w_h: Tensor::zeros([4 * hidden_size, hidden_size]),
            grad_b: Tensor::zeros([4 * hidden_size]),
        })
    }

    /// Input width.
    pub fn input_size(&self) -> usize {
        self.input_size
    }

    /// Hidden width.
    pub fn hidden_size(&self) -> usize {
        self.hidden_size
    }

    /// Number of trainable scalars.
    pub fn param_count(&self) -> usize {
        self.w_x.len() + self.w_h.len() + self.b.len()
    }

    /// Runs one forward step.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] if `x` or the state have wrong lengths.
    pub fn step(&self, x: &Tensor, state: &LstmState) -> Result<(LstmState, StepCache)> {
        if x.rank() != 1 || x.len() != self.input_size {
            return Err(NnError::BadInput {
                layer: "lstm",
                expected: format!("rank-1 input of length {}", self.input_size),
                got: x.shape().to_string(),
            });
        }
        if state.h.len() != self.hidden_size || state.c.len() != self.hidden_size {
            return Err(NnError::BadInput {
                layer: "lstm",
                expected: format!("state of width {}", self.hidden_size),
                got: format!("h {}, c {}", state.h.shape(), state.c.shape()),
            });
        }
        let hs = self.hidden_size;
        let zx = self.w_x.matvec(x)?;
        let zh = self.w_h.matvec(&state.h)?;
        let z = zx.add(&zh)?.add(&self.b)?;

        let mut i = Tensor::zeros([hs]);
        let mut f = Tensor::zeros([hs]);
        let mut g = Tensor::zeros([hs]);
        let mut o = Tensor::zeros([hs]);
        for j in 0..hs {
            *i.at_mut(j) = sigmoid(z.at(j));
            *f.at_mut(j) = sigmoid(z.at(hs + j));
            *g.at_mut(j) = z.at(2 * hs + j).tanh();
            *o.at_mut(j) = sigmoid(z.at(3 * hs + j));
        }
        let mut c_new = Tensor::zeros([hs]);
        let mut h_new = Tensor::zeros([hs]);
        for j in 0..hs {
            let c = f.at(j) * state.c.at(j) + i.at(j) * g.at(j);
            *c_new.at_mut(j) = c;
            *h_new.at_mut(j) = o.at(j) * c.tanh();
        }
        let cache = StepCache {
            x: x.clone(),
            h_prev: state.h.clone(),
            c_prev: state.c.clone(),
            i,
            f,
            g,
            o,
            c_new: c_new.clone(),
        };
        Ok((LstmState { h: h_new, c: c_new }, cache))
    }

    /// Runs one backward step, consuming a cache from [`LstmCell::step`].
    ///
    /// `dh`/`dc` are the gradients flowing into this step's output state
    /// (from the loss at this step plus the next step's `dh_prev`/`dc_prev`).
    /// Parameter gradients accumulate inside the cell; the returned tuple is
    /// `(dx, dh_prev, dc_prev)`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] on width mismatches.
    pub fn backward_step(
        &mut self,
        cache: &StepCache,
        dh: &Tensor,
        dc: &Tensor,
    ) -> Result<(Tensor, Tensor, Tensor)> {
        let hs = self.hidden_size;
        if dh.len() != hs || dc.len() != hs {
            return Err(NnError::BadInput {
                layer: "lstm",
                expected: format!("gradients of width {hs}"),
                got: format!("dh {}, dc {}", dh.shape(), dc.shape()),
            });
        }
        let mut dz = Tensor::zeros([4 * hs]);
        let mut dc_prev = Tensor::zeros([hs]);
        for j in 0..hs {
            let tanh_c = cache.c_new.at(j).tanh();
            let o = cache.o.at(j);
            let d_o = dh.at(j) * tanh_c;
            let d_c = dh.at(j) * o * (1.0 - tanh_c * tanh_c) + dc.at(j);
            let i = cache.i.at(j);
            let f = cache.f.at(j);
            let g = cache.g.at(j);
            let d_i = d_c * g;
            let d_f = d_c * cache.c_prev.at(j);
            let d_g = d_c * i;
            *dc_prev.at_mut(j) = d_c * f;
            *dz.at_mut(j) = d_i * i * (1.0 - i);
            *dz.at_mut(hs + j) = d_f * f * (1.0 - f);
            *dz.at_mut(2 * hs + j) = d_g * (1.0 - g * g);
            *dz.at_mut(3 * hs + j) = d_o * o * (1.0 - o);
        }
        self.grad_w_x.add_outer(&dz, &cache.x)?;
        self.grad_w_h.add_outer(&dz, &cache.h_prev)?;
        self.grad_b.add_scaled(&dz, 1.0)?;
        let dx = self.w_x.matvec_t(&dz)?;
        let dh_prev = self.w_h.matvec_t(&dz)?;
        Ok((dx, dh_prev, dc_prev))
    }

    /// Calls `f` for each trainable parameter (same contract as
    /// [`Layer::visit_params`](crate::layer::Layer::visit_params)).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(ParamMut<'_>)) {
        f(ParamMut {
            value: &mut self.w_x,
            grad: &mut self.grad_w_x,
        });
        f(ParamMut {
            value: &mut self.w_h,
            grad: &mut self.grad_w_h,
        });
        f(ParamMut {
            value: &mut self.b,
            grad: &mut self.grad_b,
        });
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.grad_w_x.fill(0.0);
        self.grad_w_h.fill(0.0);
        self.grad_b.fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn step_produces_bounded_activations() {
        let mut rng = StdRng::seed_from_u64(0);
        let cell = LstmCell::new(4, 8, &mut rng).unwrap();
        let x = Tensor::rand_uniform([4], -3.0, 3.0, &mut rng);
        let (s, _) = cell.step(&x, &LstmState::zeros(8)).unwrap();
        assert!(s.h.as_slice().iter().all(|&h| h.abs() <= 1.0));
    }

    #[test]
    fn forget_bias_is_one() {
        let mut rng = StdRng::seed_from_u64(0);
        let cell = LstmCell::new(2, 3, &mut rng).unwrap();
        for j in 0..3 {
            assert_eq!(cell.b.at(3 + j), 1.0);
        }
        assert_eq!(cell.b.at(0), 0.0);
    }

    #[test]
    fn rejects_bad_widths() {
        let mut rng = StdRng::seed_from_u64(0);
        let cell = LstmCell::new(4, 8, &mut rng).unwrap();
        assert!(cell
            .step(&Tensor::zeros([5]), &LstmState::zeros(8))
            .is_err());
        assert!(cell
            .step(&Tensor::zeros([4]), &LstmState::zeros(7))
            .is_err());
        assert!(LstmCell::new(0, 8, &mut rng).is_err());
    }

    /// Finite-difference check of dL/dx where L = sum(h') after one step.
    #[test]
    fn input_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut cell = LstmCell::new(3, 4, &mut rng).unwrap();
        let x = Tensor::rand_uniform([3], -1.0, 1.0, &mut rng);
        let state = LstmState {
            h: Tensor::rand_uniform([4], -0.5, 0.5, &mut rng),
            c: Tensor::rand_uniform([4], -0.5, 0.5, &mut rng),
        };
        let (_, cache) = cell.step(&x, &state).unwrap();
        let dh = Tensor::ones([4]);
        let dc = Tensor::zeros([4]);
        let (dx, dh_prev, dc_prev) = cell.backward_step(&cache, &dh, &dc).unwrap();

        let eps = 1e-3f32;
        for idx in 0..x.len() {
            let mut plus = x.clone();
            *plus.at_mut(idx) += eps;
            let mut minus = x.clone();
            *minus.at_mut(idx) -= eps;
            let fp = cell.step(&plus, &state).unwrap().0.h.sum();
            let fm = cell.step(&minus, &state).unwrap().0.h.sum();
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - dx.at(idx)).abs() < 1e-3,
                "dx[{idx}] numeric {numeric} vs analytic {}",
                dx.at(idx)
            );
        }
        // And dh_prev.
        for idx in 0..4 {
            let mut hp = state.h.clone();
            *hp.at_mut(idx) += eps;
            let mut hm = state.h.clone();
            *hm.at_mut(idx) -= eps;
            let sp = LstmState {
                h: hp,
                c: state.c.clone(),
            };
            let sm = LstmState {
                h: hm,
                c: state.c.clone(),
            };
            let fp = cell.step(&x, &sp).unwrap().0.h.sum();
            let fm = cell.step(&x, &sm).unwrap().0.h.sum();
            let numeric = (fp - fm) / (2.0 * eps);
            assert!((numeric - dh_prev.at(idx)).abs() < 1e-3);
        }
        // And dc_prev.
        for idx in 0..4 {
            let mut cp = state.c.clone();
            *cp.at_mut(idx) += eps;
            let mut cm = state.c.clone();
            *cm.at_mut(idx) -= eps;
            let sp = LstmState {
                h: state.h.clone(),
                c: cp,
            };
            let sm = LstmState {
                h: state.h.clone(),
                c: cm,
            };
            let fp = cell.step(&x, &sp).unwrap().0.h.sum();
            let fm = cell.step(&x, &sm).unwrap().0.h.sum();
            let numeric = (fp - fm) / (2.0 * eps);
            assert!((numeric - dc_prev.at(idx)).abs() < 1e-3);
        }
    }

    /// Finite-difference check of a weight gradient through two unrolled
    /// steps (the BPTT path).
    #[test]
    fn weight_gradient_matches_finite_differences_over_two_steps() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut cell = LstmCell::new(2, 3, &mut rng).unwrap();
        let x0 = Tensor::rand_uniform([2], -1.0, 1.0, &mut rng);
        let x1 = Tensor::rand_uniform([2], -1.0, 1.0, &mut rng);

        let unroll = |cell: &LstmCell| -> f32 {
            let s0 = LstmState::zeros(3);
            let (s1, _) = cell.step(&x0, &s0).unwrap();
            let (s2, _) = cell.step(&x1, &s1).unwrap();
            s2.h.sum()
        };

        // Analytic: backward through both caches.
        let s0 = LstmState::zeros(3);
        let (s1, cache0) = cell.step(&x0, &s0).unwrap();
        let (_s2, cache1) = cell.step(&x1, &s1).unwrap();
        cell.zero_grad();
        let dh = Tensor::ones([3]);
        let dc = Tensor::zeros([3]);
        let (_, dh1, dc1) = cell.backward_step(&cache1, &dh, &dc).unwrap();
        let _ = cell.backward_step(&cache0, &dh1, &dc1).unwrap();
        let analytic = cell.grad_w_x.clone();

        let eps = 1e-3f32;
        for idx in 0..cell.w_x.len() {
            let orig = cell.w_x.at(idx);
            *cell.w_x.at_mut(idx) = orig + eps;
            let fp = unroll(&cell);
            *cell.w_x.at_mut(idx) = orig - eps;
            let fm = unroll(&cell);
            *cell.w_x.at_mut(idx) = orig;
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - analytic.at(idx)).abs() < 2e-3,
                "w_x[{idx}] numeric {numeric} vs analytic {}",
                analytic.at(idx)
            );
        }
    }

    #[test]
    fn visit_params_covers_all_weights() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut cell = LstmCell::new(2, 3, &mut rng).unwrap();
        let mut seen = 0usize;
        cell.visit_params(&mut |p| seen += p.value.len());
        assert_eq!(seen, cell.param_count());
    }
}

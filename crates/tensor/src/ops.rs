//! Element-wise arithmetic, matrix products and axis reductions.

use crate::{Result, Tensor, TensorError};

impl Tensor {
    fn check_same_shape(&self, other: &Tensor, op: &'static str) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                left: self.shape().clone(),
                right: other.shape().clone(),
                op,
            });
        }
        Ok(())
    }

    /// Element-wise sum.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.check_same_shape(other, "add")?;
        Ok(self.zip_with(other, |a, b| a + b))
    }

    /// Element-wise difference.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.check_same_shape(other, "sub")?;
        Ok(self.zip_with(other, |a, b| a - b))
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.check_same_shape(other, "mul")?;
        Ok(self.zip_with(other, |a, b| a * b))
    }

    /// Adds `other * scale` into `self` in place (`axpy`).
    ///
    /// This is the workhorse of the SGD update in `fnas-nn`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add_scaled(&mut self, other: &Tensor, scale: f32) -> Result<()> {
        self.check_same_shape(other, "add_scaled")?;
        for (a, b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += b * scale;
        }
        Ok(())
    }

    /// Multiplies every element by `scale`, producing a new tensor.
    pub fn scale(&self, scale: f32) -> Tensor {
        self.map(|x| x * scale)
    }

    /// Combines two same-shaped tensors element-wise with `f`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ; the public arithmetic wrappers validate
    /// first and return errors instead.
    pub(crate) fn zip_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        debug_assert_eq!(self.shape(), other.shape());
        let data = self
            .as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Tensor::from_vec(data, self.shape().clone()).expect("zip_with preserves length")
    }

    /// Dot product of two tensors viewed as flat vectors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn dot(&self, other: &Tensor) -> Result<f32> {
        self.check_same_shape(other, "dot")?;
        Ok(self
            .as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(a, b)| a * b)
            .sum())
    }

    /// Matrix product of two rank-2 tensors: `(m × k) · (k × n) → (m × n)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless both operands are rank 2,
    /// and [`TensorError::MatmulDimMismatch`] if the inner dimensions differ.
    ///
    /// # Examples
    ///
    /// ```
    /// use fnas_tensor::Tensor;
    /// # fn main() -> Result<(), fnas_tensor::TensorError> {
    /// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3])?;
    /// let b = Tensor::ones(&[3, 1]);
    /// let c = a.matmul(&b)?;
    /// assert_eq!(c.as_slice(), &[6.0, 15.0]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
                op: "matmul",
            });
        }
        if other.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: other.rank(),
                op: "matmul",
            });
        }
        let (m, k) = (self.shape().dim(0), self.shape().dim(1));
        let (k2, n) = (other.shape().dim(0), other.shape().dim(1));
        if k != k2 {
            return Err(TensorError::MatmulDimMismatch {
                left_cols: k,
                right_rows: k2,
            });
        }
        let a = self.as_slice();
        let b = other.as_slice();
        let mut out = vec![0.0f32; m * n];
        // i-k-j loop order keeps the innermost accesses contiguous in both
        // `b` and `out`, which matters on the single-core target.
        for i in 0..m {
            for kk in 0..k {
                let aik = a[i * k + kk];
                if aik == 0.0 {
                    continue;
                }
                let brow = &b[kk * n..(kk + 1) * n];
                let orow = &mut out[i * n..(i + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += aik * bv;
                }
            }
        }
        Tensor::from_vec(out, &[m, n][..])
    }

    /// Matrix–vector product of a rank-2 tensor with a rank-1 tensor.
    ///
    /// Each output element adds the rounded products `self[i][j] · v[j]`
    /// for `j` ascending, starting from −0.0 as `Iterator::sum` over `f32`
    /// does, so a row of −0.0 products sums to −0.0.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for wrong ranks and
    /// [`TensorError::MatmulDimMismatch`] if widths disagree.
    pub fn matvec(&self, v: &Tensor) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
                op: "matvec",
            });
        }
        if v.rank() != 1 {
            return Err(TensorError::RankMismatch {
                expected: 1,
                actual: v.rank(),
                op: "matvec",
            });
        }
        let (m, k) = (self.shape().dim(0), self.shape().dim(1));
        if k != v.len() {
            return Err(TensorError::MatmulDimMismatch {
                left_cols: k,
                right_rows: v.len(),
            });
        }
        let a = self.as_slice();
        let x = v.as_slice();
        let mut out = vec![-0.0f32; m];
        if k == 0 {
            return Tensor::from_vec(out, &[m][..]);
        }
        // Four rows share each pass over `x`, each with its own running sum
        // starting where `Iterator::sum` starts (−0.0): four independent
        // dependency chains instead of one, while every element still adds
        // its products in ascending column order, exactly as a one-row
        // `sum` would.
        for (block, dst) in a.chunks_exact(4 * k).zip(out.chunks_exact_mut(4)) {
            let (r0, rest) = block.split_at(k);
            let (r1, rest) = rest.split_at(k);
            let (r2, r3) = rest.split_at(k);
            let mut acc = [-0.0f32; 4];
            for (j, &xv) in x.iter().enumerate() {
                acc[0] += r0[j] * xv;
                acc[1] += r1[j] * xv;
                acc[2] += r2[j] * xv;
                acc[3] += r3[j] * xv;
            }
            dst.copy_from_slice(&acc);
        }
        let done = m / 4 * 4;
        for (o, row) in out[done..].iter_mut().zip(a[done * k..].chunks_exact(k)) {
            *o = row.iter().zip(x).fold(-0.0, |acc, (&r, &xv)| acc + r * xv);
        }
        Tensor::from_vec(out, &[m][..])
    }

    /// Transposed matrix–vector product `selfᵀ · v` of an `[m × n]` matrix
    /// and a length-`m` vector, without materialising the transpose.
    ///
    /// Bit-identical to `self.transpose()?.matvec(v)`: each output element
    /// starts from −0.0, which is where `Iterator::sum` over `f32` starts,
    /// and adds the rounded product `self[i][j] · v[i]` for `i` ascending.
    /// That is the same sequence of operations, in the same order and with
    /// the same operand order, that `matvec` applies to a transposed row.
    /// The sum is never fused into a multiply-add, which would round once
    /// where the reference rounds twice.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for wrong ranks and
    /// [`TensorError::MatmulDimMismatch`] if `v`'s length is not the row
    /// count.
    pub fn matvec_t(&self, v: &Tensor) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
                op: "matvec_t",
            });
        }
        if v.rank() != 1 {
            return Err(TensorError::RankMismatch {
                expected: 1,
                actual: v.rank(),
                op: "matvec_t",
            });
        }
        let (m, n) = (self.shape().dim(0), self.shape().dim(1));
        if m != v.len() {
            return Err(TensorError::MatmulDimMismatch {
                left_cols: m,
                right_rows: v.len(),
            });
        }
        let mut out = vec![-0.0f32; n];
        if n > 0 {
            for (row, &vi) in self.as_slice().chunks_exact(n).zip(v.as_slice()) {
                for (o, &aij) in out.iter_mut().zip(row) {
                    *o += aij * vi;
                }
            }
        }
        Tensor::from_vec(out, &[n][..])
    }

    /// Adds the outer product `x ⊗ y` into this `[m × n]` matrix in place:
    /// `self[i][j] += x[i] · y[j]`.
    ///
    /// Bit-identical to materialising the outer product and adding it with
    /// `add_scaled(&outer, 1.0)`: the product is rounded, then the sum
    /// (`b · 1.0` is exactly `b`), and the two are never fused into one
    /// multiply-add.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless `self` is rank 2 and
    /// `x`, `y` are rank 1, and [`TensorError::ShapeMismatch`] unless
    /// `self` is `[x.len() × y.len()]`.
    pub fn add_outer(&mut self, x: &Tensor, y: &Tensor) -> Result<()> {
        for (t, expected) in [(&*self, 2), (x, 1), (y, 1)] {
            if t.rank() != expected {
                return Err(TensorError::RankMismatch {
                    expected,
                    actual: t.rank(),
                    op: "add_outer",
                });
            }
        }
        let n = y.len();
        if self.shape().dims() != [x.len(), n] {
            return Err(TensorError::ShapeMismatch {
                left: self.shape().clone(),
                right: [x.len(), n].into(),
                op: "add_outer",
            });
        }
        if n > 0 {
            let y = y.as_slice();
            for (row, &xi) in self.as_mut_slice().chunks_exact_mut(n).zip(x.as_slice()) {
                for (a, &yj) in row.iter_mut().zip(y) {
                    *a += xi * yj;
                }
            }
        }
        Ok(())
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless the tensor is rank 2.
    pub fn transpose(&self) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
                op: "transpose",
            });
        }
        let (m, n) = (self.shape().dim(0), self.shape().dim(1));
        let a = self.as_slice();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = a[i * n + j];
            }
        }
        Tensor::from_vec(out, &[n, m][..])
    }

    /// Numerically stable softmax over the flat buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] for an empty tensor.
    pub fn softmax(&self) -> Result<Tensor> {
        let max = self.max()?;
        let exps: Vec<f32> = self.as_slice().iter().map(|&x| (x - max).exp()).collect();
        let denom: f32 = exps.iter().sum();
        Tensor::from_vec(
            exps.into_iter().map(|e| e / denom).collect(),
            self.shape().clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], shape: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape).unwrap()
    }

    #[test]
    fn add_sub_mul() {
        let a = t(&[1.0, 2.0], &[2]);
        let b = t(&[3.0, 4.0], &[2]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[4.0, 6.0]);
        assert_eq!(a.sub(&b).unwrap().as_slice(), &[-2.0, -2.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[3.0, 8.0]);
    }

    #[test]
    fn arithmetic_rejects_shape_mismatch() {
        let a = t(&[1.0, 2.0], &[2]);
        let b = t(&[1.0, 2.0], &[2, 1]);
        assert!(a.add(&b).is_err());
        assert!(a.dot(&b).is_err());
    }

    #[test]
    fn add_scaled_is_axpy() {
        let mut a = t(&[1.0, 2.0], &[2]);
        let g = t(&[10.0, 20.0], &[2]);
        a.add_scaled(&g, -0.1).unwrap();
        assert_eq!(a.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn matmul_known_product() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(&[5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let c = a.matmul(&Tensor::eye(3)).unwrap();
        assert_eq!(c.as_slice(), a.as_slice());
    }

    #[test]
    fn matmul_validates() {
        let a = t(&[1.0, 2.0], &[2]);
        let b = Tensor::eye(2);
        assert!(matches!(
            a.matmul(&b),
            Err(TensorError::RankMismatch { op: "matmul", .. })
        ));
        let a = Tensor::zeros(&[2, 3][..]);
        let b = Tensor::zeros(&[4, 5][..]);
        assert!(matches!(
            a.matmul(&b),
            Err(TensorError::MatmulDimMismatch {
                left_cols: 3,
                right_rows: 4
            })
        ));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let v = t(&[1.0, 0.5, 2.0], &[3]);
        let mv = a.matvec(&v).unwrap();
        let mm = a.matmul(&v.reshape(&[3, 1][..]).unwrap()).unwrap();
        assert_eq!(mv.as_slice(), mm.as_slice());
    }

    #[test]
    fn transpose_twice_is_identity() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let tt = a.transpose().unwrap().transpose().unwrap();
        assert_eq!(tt, a);
        assert_eq!(a.transpose().unwrap().shape().dims(), &[3, 2]);
    }

    #[test]
    fn outer_product() {
        let a = t(&[1.0, 2.0], &[2]);
        let b = t(&[3.0, 4.0, 5.0], &[3]);
        let mut o = Tensor::zeros(&[2, 3][..]);
        o.add_outer(&a, &b).unwrap();
        assert_eq!(o.as_slice(), &[3.0, 4.0, 5.0, 6.0, 8.0, 10.0]);
        o.add_outer(&a, &b).unwrap();
        assert_eq!(o.as_slice(), &[6.0, 8.0, 10.0, 12.0, 16.0, 20.0]);
    }

    #[test]
    fn add_outer_and_matvec_t_validate() {
        let v2 = t(&[1.0, 2.0], &[2]);
        let v3 = t(&[1.0, 2.0, 3.0], &[3]);
        let mut m = Tensor::zeros(&[2, 3][..]);
        assert!(matches!(
            m.add_outer(&v3, &v2),
            Err(TensorError::ShapeMismatch {
                op: "add_outer",
                ..
            })
        ));
        assert!(matches!(
            m.add_outer(&m.clone(), &v3),
            Err(TensorError::RankMismatch {
                op: "add_outer",
                ..
            })
        ));
        assert!(matches!(
            m.matvec_t(&v3),
            Err(TensorError::MatmulDimMismatch {
                left_cols: 2,
                right_rows: 3
            })
        ));
        assert!(matches!(
            v2.matvec_t(&v2),
            Err(TensorError::RankMismatch { op: "matvec_t", .. })
        ));
        assert_eq!(m.matvec_t(&v2).unwrap().shape().dims(), &[3]);
    }

    /// Bits of every kernel output, with every NaN mapped to one value:
    /// Rust leaves the payload and sign of a NaN result unspecified, so
    /// two evaluations of the same operations may differ there alone.
    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice()
            .iter()
            .map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() })
            .collect()
    }

    /// Ordinary values, the special ones (±0, subnormals, ±inf, NaN,
    /// extremes), and arbitrary bit patterns.
    fn any_f32() -> impl Strategy<Value = f32> {
        const SPECIAL: [f32; 10] = [
            0.0,
            -0.0,
            1.0e-40,
            -1.0e-40,
            f32::MIN_POSITIVE,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MAX,
            -1.0,
        ];
        (0u8..4, -4.0f32..4.0, 0usize..SPECIAL.len(), 0u32..=u32::MAX).prop_map(
            |(kind, x, s, raw)| match kind {
                0 | 1 => x,
                2 => SPECIAL[s],
                _ => f32::from_bits(raw),
            },
        )
    }

    /// A `[rows × cols]` matrix and two vectors of lengths `rows`, `cols`.
    fn operands() -> impl Strategy<Value = (Tensor, Tensor, Tensor)> {
        (0usize..10, 0usize..10, prop::collection::vec(any_f32(), 64)).prop_map(|(m, n, pool)| {
            let take = |len: usize, skip: usize| -> Vec<f32> {
                pool.iter().cycle().skip(skip).take(len).copied().collect()
            };
            (
                Tensor::from_vec(take(m * n, 0), &[m, n][..]).unwrap(),
                Tensor::from_vec(take(m, 7), &[m][..]).unwrap(),
                Tensor::from_vec(take(n, 13), &[n][..]).unwrap(),
            )
        })
    }

    /// The one-row-at-a-time matrix–vector product the four-row `matvec`
    /// must reproduce.
    fn matvec_by_rows(a: &Tensor, v: &Tensor) -> Tensor {
        let (m, k) = (a.shape().dim(0), a.shape().dim(1));
        let out = (0..m)
            .map(|i| {
                a.as_slice()[i * k..(i + 1) * k]
                    .iter()
                    .zip(v.as_slice())
                    .map(|(&r, &x)| r * x)
                    .sum()
            })
            .collect();
        Tensor::from_vec(out, &[m][..]).unwrap()
    }

    /// The materialised outer product `add_outer` replaces.
    fn outer(x: &Tensor, y: &Tensor) -> Tensor {
        let (m, n) = (x.len(), y.len());
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[i * n + j] = x.at(i) * y.at(j);
            }
        }
        Tensor::from_vec(out, &[m, n][..]).unwrap()
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn matvec_t_is_bit_identical_to_transpose_then_matvec(ops in operands()) {
            let (a, u, _) = ops;
            let want = a.transpose().unwrap().matvec(&u).unwrap();
            prop_assert_eq!(bits(&a.matvec_t(&u).unwrap()), bits(&want));
        }

        #[test]
        fn matvec_is_bit_identical_to_one_row_sums(ops in operands()) {
            let (a, _, w) = ops;
            prop_assert_eq!(bits(&a.matvec(&w).unwrap()), bits(&matvec_by_rows(&a, &w)));
        }

        #[test]
        fn add_outer_is_bit_identical_to_outer_then_add_scaled(ops in operands()) {
            let (a, u, w) = ops;
            let mut want = a.clone();
            want.add_scaled(&outer(&u, &w), 1.0).unwrap();
            let mut got = a;
            got.add_outer(&u, &w).unwrap();
            prop_assert_eq!(bits(&got), bits(&want));
        }
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let a = t(&[1000.0, 1001.0, 1002.0], &[3]);
        let s = a.softmax().unwrap();
        assert!((s.sum() - 1.0).abs() < 1e-6);
        assert!(s.as_slice().iter().all(|&x| x.is_finite() && x > 0.0));
        assert!(s.at(2) > s.at(1) && s.at(1) > s.at(0));
    }

    #[test]
    fn dot_of_orthogonal_vectors_is_zero() {
        let a = t(&[1.0, 0.0], &[2]);
        let b = t(&[0.0, 1.0], &[2]);
        assert_eq!(a.dot(&b).unwrap(), 0.0);
    }

    #[test]
    fn scale_multiplies_every_element() {
        let a = t(&[1.0, -2.0], &[2]);
        assert_eq!(a.scale(-3.0).as_slice(), &[-3.0, 6.0]);
    }
}

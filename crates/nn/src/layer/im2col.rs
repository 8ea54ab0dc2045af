//! The im2col convolution lowering.
//!
//! Direct convolution walks six nested loops; lowering to matrix form —
//! unfolding every receptive field into a column and multiplying by the
//! reshaped weight matrix — trades memory for the much better cache
//! behaviour of [`Tensor::matmul`]'s tight inner loop. [`Conv2d`] exposes
//! both algorithms through [`ConvAlgo`]; they are bit-for-bit interchange-
//! able up to floating-point summation order (property-tested in
//! `tests/proptest_invariants.rs` and below).
//!
//! [`Conv2d`]: crate::layer::Conv2d
//! [`ConvAlgo`]: crate::layer::ConvAlgo

use std::ops::Range;

use fnas_tensor::Tensor;

use crate::Result;

/// Geometry of one im2col lowering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ColGeometry {
    pub in_channels: usize,
    pub height: usize,
    pub width: usize,
    pub kernel: usize,
    pub stride: usize,
    pub pad: usize,
    pub out_h: usize,
    pub out_w: usize,
}

impl ColGeometry {
    /// Rows of the column matrix: one per weight element.
    pub fn rows(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// Columns of the column matrix: one per output position.
    pub fn cols(&self) -> usize {
        self.out_h * self.out_w
    }
}

/// The output positions `o < out` whose input coordinate
/// `o·stride + offset − pad` lies inside `0..len`; always a contiguous run.
fn valid_range(out: usize, len: usize, offset: usize, stride: usize, pad: usize) -> Range<usize> {
    let lo = pad.saturating_sub(offset).div_ceil(stride);
    // o·stride + offset − pad ≤ len − 1  ⇔  o·stride ≤ len + pad − offset − 1
    let hi = (len + pad)
        .checked_sub(offset + 1)
        .map_or(0, |max| (max / stride + 1).min(out));
    lo.min(hi)..hi
}

/// Unfolds one image (`[c·h·w]` slice) into a `[rows × cols]` column
/// matrix, zero-filling the padded border.
///
/// Each kernel offset's valid output rows and columns are computed once,
/// so the loops copy only the part of each row that lies inside the image
/// (one `copy_from_slice` at stride 1) and never test a coordinate.
pub(crate) fn im2col(image: &[f32], g: &ColGeometry) -> Result<Tensor> {
    let (rows, cols) = (g.rows(), g.cols());
    let mut out = vec![0.0f32; rows * cols];
    for c in 0..g.in_channels {
        let plane = &image[c * g.height * g.width..(c + 1) * g.height * g.width];
        for ki in 0..g.kernel {
            let ys = valid_range(g.out_h, g.height, ki, g.stride, g.pad);
            for kj in 0..g.kernel {
                let row = (c * g.kernel + ki) * g.kernel + kj;
                let orow = &mut out[row * cols..(row + 1) * cols];
                let xs = valid_range(g.out_w, g.width, kj, g.stride, g.pad);
                if xs.is_empty() {
                    continue;
                }
                let ix0 = xs.start * g.stride + kj - g.pad;
                for oy in ys.clone() {
                    let iy = oy * g.stride + ki - g.pad;
                    let src = &plane[iy * g.width + ix0..(iy + 1) * g.width];
                    let dst = &mut orow[oy * g.out_w + xs.start..oy * g.out_w + xs.end];
                    if g.stride == 1 {
                        dst.copy_from_slice(&src[..dst.len()]);
                    } else {
                        for (d, &v) in dst.iter_mut().zip(src.iter().step_by(g.stride)) {
                            *d = v;
                        }
                    }
                }
            }
        }
    }
    Ok(Tensor::from_vec(out, &[rows, cols][..])?)
}

/// Folds a `[rows × cols]` gradient back onto the image, accumulating
/// overlapping receptive fields (the adjoint of [`im2col`]).
///
/// Visits the valid spans [`im2col`] copies, in the same `(c, ki, kj, oy,
/// ox)` order as a loop over every position that skips the padding, so
/// each pixel receives its additions in the same order.
pub(crate) fn col2im(cols_grad: &Tensor, g: &ColGeometry, image_grad: &mut [f32]) {
    let cols = g.cols();
    let data = cols_grad.as_slice();
    for c in 0..g.in_channels {
        let plane = &mut image_grad[c * g.height * g.width..(c + 1) * g.height * g.width];
        for ki in 0..g.kernel {
            let ys = valid_range(g.out_h, g.height, ki, g.stride, g.pad);
            for kj in 0..g.kernel {
                let row = (c * g.kernel + ki) * g.kernel + kj;
                let grow = &data[row * cols..(row + 1) * cols];
                let xs = valid_range(g.out_w, g.width, kj, g.stride, g.pad);
                if xs.is_empty() {
                    continue;
                }
                let ix0 = xs.start * g.stride + kj - g.pad;
                for oy in ys.clone() {
                    let iy = oy * g.stride + ki - g.pad;
                    let src = &grow[oy * g.out_w + xs.start..oy * g.out_w + xs.end];
                    let dst = &mut plane[iy * g.width + ix0..(iy + 1) * g.width];
                    if g.stride == 1 {
                        for (d, &v) in dst[..src.len()].iter_mut().zip(src) {
                            *d += v;
                        }
                    } else {
                        for (d, &v) in dst.iter_mut().step_by(g.stride).zip(src) {
                            *d += v;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geometry() -> ColGeometry {
        ColGeometry {
            in_channels: 2,
            height: 4,
            width: 4,
            kernel: 3,
            stride: 1,
            pad: 1,
            out_h: 4,
            out_w: 4,
        }
    }

    #[test]
    fn shapes_follow_geometry() {
        let g = geometry();
        let img = vec![1.0f32; 2 * 16];
        let cols = im2col(&img, &g).unwrap();
        assert_eq!(cols.shape().dims(), &[2 * 9, 16]);
    }

    #[test]
    fn centre_kernel_row_reproduces_the_image() {
        // With pad 1, the kernel-centre row (ki = kj = 1) of the column
        // matrix is exactly the original image plane.
        let g = geometry();
        let img: Vec<f32> = (0..32).map(|i| i as f32).collect();
        let cols = im2col(&img, &g).unwrap();
        for c in 0..2 {
            let row = (c * 3 + 1) * 3 + 1;
            let start = row * 16;
            assert_eq!(
                &cols.as_slice()[start..start + 16],
                &img[c * 16..(c + 1) * 16]
            );
        }
    }

    #[test]
    fn padding_cells_are_zero() {
        let g = geometry();
        let img = vec![1.0f32; 32];
        let cols = im2col(&img, &g).unwrap();
        // Row (c=0, ki=0, kj=0) at output (0,0) reads input (-1,-1): zero.
        assert_eq!(cols.at(0), 0.0);
    }

    /// The per-element loops `im2col` replaced, kept as its reference.
    fn im2col_reference(image: &[f32], g: &ColGeometry) -> Vec<f32> {
        let (rows, cols) = (g.rows(), g.cols());
        let mut out = vec![0.0f32; rows * cols];
        for c in 0..g.in_channels {
            let plane = &image[c * g.height * g.width..(c + 1) * g.height * g.width];
            for ki in 0..g.kernel {
                for kj in 0..g.kernel {
                    let row = (c * g.kernel + ki) * g.kernel + kj;
                    let orow = &mut out[row * cols..(row + 1) * cols];
                    for oy in 0..g.out_h {
                        let iy = (oy * g.stride + ki) as isize - g.pad as isize;
                        if iy < 0 || iy as usize >= g.height {
                            continue;
                        }
                        let irow = &plane[iy as usize * g.width..(iy as usize + 1) * g.width];
                        for ox in 0..g.out_w {
                            let ix = (ox * g.stride + kj) as isize - g.pad as isize;
                            if ix >= 0 && (ix as usize) < g.width {
                                orow[oy * g.out_w + ox] = irow[ix as usize];
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// The per-element loops `col2im` replaced, kept as its reference.
    fn col2im_reference(data: &[f32], g: &ColGeometry, image_grad: &mut [f32]) {
        let cols = g.cols();
        for c in 0..g.in_channels {
            let plane = &mut image_grad[c * g.height * g.width..(c + 1) * g.height * g.width];
            for ki in 0..g.kernel {
                for kj in 0..g.kernel {
                    let row = (c * g.kernel + ki) * g.kernel + kj;
                    let grow = &data[row * cols..(row + 1) * cols];
                    for oy in 0..g.out_h {
                        let iy = (oy * g.stride + ki) as isize - g.pad as isize;
                        if iy < 0 || iy as usize >= g.height {
                            continue;
                        }
                        let base = iy as usize * g.width;
                        for ox in 0..g.out_w {
                            let ix = (ox * g.stride + kj) as isize - g.pad as isize;
                            if ix >= 0 && (ix as usize) < g.width {
                                plane[base + ix as usize] += grow[oy * g.out_w + ox];
                            }
                        }
                    }
                }
            }
        }
    }

    /// Bits with every NaN mapped to one value: Rust leaves the payload
    /// and sign of a NaN result unspecified.
    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter()
            .map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() })
            .collect()
    }

    /// Ordinary values, the special ones (±0, subnormals, ±inf, NaN) and
    /// arbitrary bit patterns.
    fn any_f32() -> impl Strategy<Value = f32> {
        const SPECIAL: [f32; 8] = [
            0.0,
            -0.0,
            1.0e-40,
            -1.0e-40,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MAX,
        ];
        (0u8..4, -4.0f32..4.0, 0usize..SPECIAL.len(), 0u32..=u32::MAX).prop_map(
            |(kind, x, s, raw)| match kind {
                0 | 1 => x,
                2 => SPECIAL[s],
                _ => f32::from_bits(raw),
            },
        )
    }

    /// A geometry with kernels 1–7, strides 1–3, pads 0–3 and images
    /// large enough for at least one output, plus a pool of values.
    fn lowering() -> impl Strategy<Value = (ColGeometry, Vec<f32>)> {
        (
            (1usize..=3, 1usize..=9, 1usize..=9),
            (1usize..=7, 1usize..=3, 0usize..=3),
            prop::collection::vec(any_f32(), 97),
        )
            .prop_map(|((in_channels, h, w), (kernel, stride, pad), pool)| {
                let height = h.max(kernel.saturating_sub(2 * pad));
                let width = w.max(kernel.saturating_sub(2 * pad));
                let g = ColGeometry {
                    in_channels,
                    height,
                    width,
                    kernel,
                    stride,
                    pad,
                    out_h: (height + 2 * pad - kernel) / stride + 1,
                    out_w: (width + 2 * pad - kernel) / stride + 1,
                };
                (g, pool)
            })
    }

    fn values(pool: &[f32], len: usize, skip: usize) -> Vec<f32> {
        pool.iter().cycle().skip(skip).take(len).copied().collect()
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn im2col_is_bit_identical_to_the_reference(case in lowering()) {
            let (g, pool) = case;
            let image = values(&pool, g.in_channels * g.height * g.width, 0);
            let got = im2col(&image, &g).unwrap();
            prop_assert_eq!(bits(got.as_slice()), bits(&im2col_reference(&image, &g)));
        }

        #[test]
        fn col2im_is_bit_identical_to_the_reference(case in lowering()) {
            let (g, pool) = case;
            let grad = values(&pool, g.rows() * g.cols(), 0);
            let start = values(&pool, g.in_channels * g.height * g.width, 31);
            let mut got = start.clone();
            col2im(
                &Tensor::from_vec(grad.clone(), &[g.rows(), g.cols()][..]).unwrap(),
                &g,
                &mut got,
            );
            let mut want = start;
            col2im_reference(&grad, &g, &mut want);
            prop_assert_eq!(bits(&got), bits(&want));
        }
    }

    #[test]
    fn col2im_is_the_adjoint_of_im2col() {
        // ⟨im2col(x), y⟩ = ⟨x, col2im(y)⟩ for all x, y — the defining
        // property of an adjoint, checked on random data.
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let g = geometry();
        let x: Vec<f32> = (0..32).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let y: Vec<f32> = (0..g.rows() * g.cols())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let y_t = Tensor::from_vec(y.clone(), &[g.rows(), g.cols()][..]).unwrap();
        let cols = im2col(&x, &g).unwrap();
        let lhs: f32 = cols.as_slice().iter().zip(&y).map(|(a, b)| a * b).sum();
        let mut back = vec![0.0f32; 32];
        col2im(&y_t, &g, &mut back);
        let rhs: f32 = x.iter().zip(&back).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "⟨Ax,y⟩={lhs} vs ⟨x,Aᵀy⟩={rhs}");
    }
}

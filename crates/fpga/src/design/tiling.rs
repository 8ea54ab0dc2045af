//! Per-layer roofline tiling search: buffer sizing, candidate enumeration
//! and the `⟨Tm, Tn, Tr, Tc⟩` selection of Zhang et al. (FPGA'15) \[13\].

use std::cmp::Reverse;

use crate::layer::ConvShape;
use crate::{Cycles, FpgaError, Result};

use super::{Tiling, WORD_BYTES};

/// Tile-buffer footprint in bytes: double-buffered IFM, OFM and weight
/// buffers (ping-pong, hence the factor 2).
pub(super) fn bram_usage(shape: &ConvShape, t: &Tiling) -> usize {
    let in_r = t.tr + shape.kernel_h() - 1;
    let in_c = t.tc + shape.kernel_w() - 1;
    let ifm = t.tn * in_r * in_c;
    let ofm = t.tm * t.tr * t.tc;
    let wei = t.tm * t.tn * shape.kernel_h() * shape.kernel_w();
    2 * (ifm + ofm + wei) * WORD_BYTES
}

pub(super) fn transfer_bytes_per_task(shape: &ConvShape, t: &Tiling) -> usize {
    let in_r = t.tr + shape.kernel_h() - 1;
    let in_c = t.tc + shape.kernel_w() - 1;
    let ifm = t.tn * in_r * in_c;
    let ofm = t.tm * t.tr * t.tc;
    let wei = t.tm * t.tn * shape.kernel_h() * shape.kernel_w();
    (ifm + ofm + wei) * WORD_BYTES
}

/// Standalone cycle count of a layer under tiling `t` (the \[13\] roofline
/// compute term): tasks × per-task effective latency.
fn standalone_cycles(shape: &ConvShape, t: &Tiling, bw: f64) -> u64 {
    let tasks = (shape.out_channels().div_ceil(t.tm)
        * shape.in_channels().div_ceil(t.tn)
        * shape.out_rows().div_ceil(t.tr)
        * shape.out_cols().div_ceil(t.tc)) as u64;
    let compute = (shape.kernel_h() * shape.kernel_w() * t.tr * t.tc) as u64;
    let transfer = (transfer_bytes_per_task(shape, t) as f64 / bw).ceil() as u64;
    tasks * compute.max(transfer)
}

/// Enumerates the feasible tilings of one layer under explicit budgets and
/// returns the best `top_n`, sorted by standalone cycle count (ties broken
/// towards smaller per-task latency, then more DSPs, then a larger `Tm`).
///
/// This exposes FNAS-Design's inner search for design-space exploration:
/// the first entry is exactly what
/// [`PipelineDesign::generate`](super::PipelineDesign::generate) would pick
/// for the same budgets.
///
/// # Examples
///
/// ```
/// use fnas_fpga::design::explore_tilings;
/// use fnas_fpga::layer::ConvShape;
///
/// # fn main() -> Result<(), fnas_fpga::FpgaError> {
/// let shape = ConvShape::square(8, 16, 16, 3)?;
/// let candidates = explore_tilings(&shape, 64, 64 * 1024, 8.0, 5);
/// assert!(!candidates.is_empty());
/// assert!(candidates[0].1 <= candidates.last().expect("non-empty").1);
/// # Ok(())
/// # }
/// ```
pub fn explore_tilings(
    shape: &ConvShape,
    dsp_budget: usize,
    bram_budget: usize,
    bandwidth_bytes_per_cycle: f64,
    top_n: usize,
) -> Vec<(Tiling, Cycles)> {
    let mut ranked = Vec::new();
    for_each_candidate(
        shape,
        dsp_budget,
        bram_budget,
        bandwidth_bytes_per_cycle,
        |c| ranked.push(c),
    );
    // Stable, so equal ranks keep enumeration order and the head is
    // `choose_tiling`'s pick.
    ranked.sort_by_key(|c| rank(shape, c));
    ranked
        .into_iter()
        .take(top_n)
        .map(|(t, c)| (t, Cycles::new(c)))
        .collect()
}

/// Chooses `⟨Tm, Tn, Tr, Tc⟩` minimising the standalone cycle count: the
/// first candidate of least [`rank`].
pub(super) fn choose_tiling(
    shape: &ConvShape,
    dsp_budget: usize,
    bram_budget: usize,
    bw: f64,
) -> Result<Tiling> {
    let mut best: Option<(Tiling, u64)> = None;
    for_each_candidate(shape, dsp_budget, bram_budget, bw, |c| {
        if best.is_none_or(|b| rank(shape, &c) < rank(shape, &b)) {
            best = Some(c);
        }
    });
    best.map(|(t, _)| t)
        .ok_or_else(|| FpgaError::InsufficientResources {
            resource: "BRAM bytes",
            needed: bram_usage(shape, &Tiling::new(1, 1, 1, 1)) as u64,
            available: bram_budget as u64,
        })
}

/// Visits every feasible tiling of one layer with its standalone cycle
/// count, in search order: `Tm` outer, `Tn` inner (`Tm·Tn` within the DSP
/// budget), then each [`spatial_candidates`] refinement of the
/// BRAM-maximal spatial tile whose buffers fit the BRAM budget. Every
/// tiling is visited once, and the enumeration allocates nothing: an
/// ImageNet design visits thousands of `⟨Tm, Tn⟩` pairs, and per-pair heap
/// traffic does not scale across threads.
fn for_each_candidate(
    shape: &ConvShape,
    dsp_budget: usize,
    bram_budget: usize,
    bw: f64,
    mut visit: impl FnMut((Tiling, u64)),
) {
    for tm in 1..=shape.out_channels().min(dsp_budget) {
        for tn in 1..=shape.in_channels().min(dsp_budget / tm) {
            let Some((tr0, tc0)) = fit_spatial(shape, tm, tn, bram_budget) else {
                continue;
            };
            for (tr, tc) in spatial_candidates(tr0, tc0) {
                let t = Tiling::new(tm, tn, tr, tc);
                if bram_usage(shape, &t) <= bram_budget {
                    visit((t, standalone_cycles(shape, &t, bw)));
                }
            }
        }
    }
}

/// The order FNAS-Design prefers tilings in: fewer standalone cycles,
/// then a smaller per-task compute time `ET`, then more DSPs, then a
/// larger `Tm`.
///
/// Whole-plane tiles minimise ceil-rounding but serialise the pipeline (a
/// consumer waits for full-plane OFM tiles). Among spatial tilings with
/// the same standalone cycle count, smaller tiles give smaller per-task
/// latency and hence smaller inter-layer start deltas (Eqs. 3/4), so they
/// rank first.
fn rank(
    shape: &ConvShape,
    &(t, cycles): &(Tiling, u64),
) -> (u64, u64, Reverse<usize>, Reverse<usize>) {
    let et = (shape.kernel_h() * shape.kernel_w() * t.tr * t.tc) as u64;
    (cycles, et, Reverse(t.dsp_slices()), Reverse(t.tm))
}

/// Spatial-tiling refinement candidates derived from the BRAM-maximal
/// `(tr0, tc0)`: the same extents at 1×, ½× and ¼× on each axis, `tr`
/// outer and `tc` inner. An axis shorter than 2 (or 4) skips its ½× (or
/// ¼×) step, so the at most nine pairs are distinct.
fn spatial_candidates(tr0: usize, tc0: usize) -> impl Iterator<Item = (usize, usize)> {
    let steps = |x: usize| {
        let len = 1 + usize::from(x >= 2) + usize::from(x >= 4);
        [x, x.div_ceil(2), x.div_ceil(4)].into_iter().take(len)
    };
    steps(tr0).flat_map(move |tr| steps(tc0).map(move |tc| (tr, tc)))
}

/// Largest `(Tr, Tc)` whose buffers fit `bram_budget`, shrinking the larger
/// extent first; `None` if not even `(1, 1)` fits.
fn fit_spatial(
    shape: &ConvShape,
    tm: usize,
    tn: usize,
    bram_budget: usize,
) -> Option<(usize, usize)> {
    let (mut tr, mut tc) = (shape.out_rows(), shape.out_cols());
    loop {
        let t = Tiling::new(tm, tn, tr, tc);
        if bram_usage(shape, &t) <= bram_budget {
            return Some((tr, tc));
        }
        if tr == 1 && tc == 1 {
            return None;
        }
        if tr >= tc {
            tr = (tr / 2).max(1);
        } else {
            tc = (tc / 2).max(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explore_tilings_is_sorted_and_budgeted() {
        let shape = ConvShape::square(16, 32, 16, 3).unwrap();
        let candidates = explore_tilings(&shape, 100, 32 * 1024, 8.0, 10);
        assert!(!candidates.is_empty());
        assert!(candidates.len() <= 10);
        for pair in candidates.windows(2) {
            assert!(pair[0].1 <= pair[1].1);
        }
        for (t, _) in &candidates {
            assert!(t.dsp_slices() <= 100);
            assert!(bram_usage(&shape, t) <= 32 * 1024);
            assert!(t.tm <= 32 && t.tn <= 16);
        }
    }

    #[test]
    fn explore_tilings_best_matches_choose_tiling() {
        let shape = ConvShape::square(9, 18, 28, 5).unwrap();
        let best = choose_tiling(&shape, 55, 64 * 1024, 10.0).unwrap();
        let explored = explore_tilings(&shape, 55, 64 * 1024, 10.0, 1);
        assert_eq!(explored[0].0, best);
    }

    #[test]
    fn explore_tilings_empty_when_nothing_fits() {
        let shape = ConvShape::square(3, 8, 16, 3).unwrap();
        assert!(explore_tilings(&shape, 8, 4, 8.0, 5).is_empty());
    }
}

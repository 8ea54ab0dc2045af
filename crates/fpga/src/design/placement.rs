//! Cross-layer placement decisions: device packing, DSP budgeting and the
//! spatial-grid harmonisation that makes the task graph well-defined.

use crate::device::FpgaCluster;
use crate::layer::{ConvShape, Network};
use crate::{FpgaError, Result};

use super::tiling::{bram_usage, transfer_bytes_per_task};
use super::{LayerDesign, Tiling};

pub(super) fn make_layer_design(
    shape: ConvShape,
    tiling: Tiling,
    device: usize,
    bw_each: f64,
) -> LayerDesign {
    let compute = (shape.kernel_h() * shape.kernel_w() * tiling.tr * tiling.tc) as u64;
    let transfer = (transfer_bytes_per_task(&shape, &tiling) as f64 / bw_each).ceil() as u64;
    LayerDesign {
        shape,
        tiling,
        device,
        compute_cycles_per_task: compute,
        transfer_cycles_per_task: transfer,
    }
}

/// Packs consecutive layers onto devices balancing MAC load.
pub(super) fn assign_devices(network: &Network, cluster: &FpgaCluster) -> Vec<usize> {
    let n_dev = cluster.len();
    if n_dev == 1 {
        return vec![0; network.len()];
    }
    let total: u64 = network.total_macs().get();
    let target = total as f64 / n_dev as f64;
    let mut assignment = vec![0usize; network.len()];
    let mut dev = 0usize;
    let mut acc = 0u64;
    for (i, layer) in network.layers().iter().enumerate() {
        let w = layer.macs().get();
        // Move to the next device when this one is "full", but never strand
        // trailing layers: keep at least one layer per remaining device only
        // if layers remain to fill them.
        if dev + 1 < n_dev && acc > 0 && (acc as f64 + w as f64 / 2.0) > target {
            dev += 1;
            acc = 0;
        }
        assignment[i] = dev;
        acc += w;
    }
    assignment
}

/// Splits `total_dsp` over the given layers proportionally to MACs.
pub(super) fn dsp_budgets(
    network: &Network,
    members: &[usize],
    total_dsp: usize,
) -> Result<Vec<usize>> {
    if total_dsp < members.len() {
        return Err(FpgaError::InsufficientResources {
            resource: "DSP slices",
            needed: members.len() as u64,
            available: total_dsp as u64,
        });
    }
    let weights: Vec<u64> = members
        .iter()
        .map(|&i| network.layers()[i].macs().get())
        .collect();
    let total_w: u64 = weights.iter().sum();
    let mut budgets: Vec<usize> = weights
        .iter()
        .map(|&w| (((total_dsp as u128 * w as u128) / total_w.max(1) as u128) as usize).max(1))
        .collect();
    // Trim overshoot caused by the max(1) floor, largest budgets first.
    let mut sum: usize = budgets.iter().sum();
    while sum > total_dsp {
        let imax = (0..budgets.len())
            .max_by_key(|&i| budgets[i])
            .expect("members is non-empty");
        if budgets[imax] <= 1 {
            break;
        }
        budgets[imax] -= 1;
        sum -= 1;
    }
    Ok(budgets)
}

/// Forces a common spatial grid across the pipeline so that spatial tile `m`
/// of layer `i+1` corresponds to spatial tile `m` of layer `i` (Fig. 3).
///
/// Layers may have slightly different spatial extents (even kernels shrink
/// the plane by one), and not every tile count is achievable by a uniform
/// tile extent (`⌈25/tr⌉ = 6` has no solution), so the harmoniser picks the
/// **largest tile count every layer can realise exactly**, backing off
/// further if a layer's buffers would no longer fit its BRAM budget.
pub(super) fn harmonize_spatial_grid(layers: &mut [LayerDesign], cluster: &FpgaCluster) {
    let mut per_device = vec![0usize; cluster.len()];
    for layer in layers.iter() {
        per_device[layer.device] += 1;
    }
    let bram_budget = |layer: &LayerDesign| {
        cluster.devices()[layer.device].bram_bytes() / per_device[layer.device].max(1)
    };

    // A grid count `g` is realisable for extent `e` iff ⌈e/⌈e/g⌉⌉ = g.
    let feasible = |e: usize, g: usize| e.div_ceil(e.div_ceil(g)) == g;
    let max_grid = |extents: &[usize], target: usize| {
        (1..=target)
            .rev()
            .find(|&g| extents.iter().all(|&e| g <= e && feasible(e, g)))
            .unwrap_or(1)
    };

    let rows: Vec<usize> = layers.iter().map(|l| l.shape.out_rows()).collect();
    let cols: Vec<usize> = layers.iter().map(|l| l.shape.out_cols()).collect();
    let target_r = layers
        .iter()
        .map(|l| l.shape.out_rows().div_ceil(l.tiling.tr))
        .max()
        .unwrap_or(1);
    let target_c = layers
        .iter()
        .map(|l| l.shape.out_cols().div_ceil(l.tiling.tc))
        .max()
        .unwrap_or(1);

    let mut grid_r = max_grid(&rows, target_r);
    let mut grid_c = max_grid(&cols, target_c);
    loop {
        // Larger tiles (smaller grids) can overflow a layer's BRAM budget;
        // back off the finer axis until everything fits.
        let overflow = layers.iter().any(|layer| {
            let tr = layer.shape.out_rows().div_ceil(grid_r);
            let tc = layer.shape.out_cols().div_ceil(grid_c);
            let t = Tiling::new(layer.tiling.tm, layer.tiling.tn, tr, tc);
            bram_usage(&layer.shape, &t) > bram_budget(layer)
        });
        if !overflow || (grid_r == 1 && grid_c == 1) {
            break;
        }
        // Shrinking tiles means *increasing* the grid count; move towards
        // the per-layer extents, which always fit (they were chosen under
        // the same budgets).
        if grid_r <= grid_c {
            let next = max_grid(
                &rows,
                grid_r
                    .saturating_mul(2)
                    .min(rows.iter().copied().min().unwrap_or(1)),
            );
            if next == grid_r {
                break;
            }
            grid_r = next;
        } else {
            let next = max_grid(
                &cols,
                grid_c
                    .saturating_mul(2)
                    .min(cols.iter().copied().min().unwrap_or(1)),
            );
            if next == grid_c {
                break;
            }
            grid_c = next;
        }
    }

    for layer in layers.iter_mut() {
        let tr = layer.shape.out_rows().div_ceil(grid_r);
        let tc = layer.shape.out_cols().div_ceil(grid_c);
        let tiling = Tiling::new(layer.tiling.tm, layer.tiling.tn, tr, tc);
        let dev = &cluster.devices()[layer.device];
        let bw_each = dev.bandwidth_bytes_per_cycle() / per_device[layer.device].max(1) as f64;
        *layer = make_layer_design(layer.shape, tiling, layer.device, bw_each);
    }
    debug_assert!(
        layers
            .windows(2)
            .all(|w| w[0].rc_tiles() == w[1].rc_tiles()),
        "harmonisation must equalise spatial grids"
    );
}

#[cfg(test)]
mod tests {
    use super::super::tests::net4;
    use super::*;
    use crate::device::FpgaDevice;

    #[test]
    fn dsp_budgets_are_proportional_to_macs() {
        // Two layers with MAC ratio 1:3 should get budgets roughly 1:3.
        let l0 = ConvShape::square(4, 4, 16, 3).unwrap();
        let l1 = ConvShape::new(4, 12, 16, 16, 3, 3).unwrap();
        let net = Network::new(vec![l0, l1]).unwrap();
        let budgets = dsp_budgets(&net, &[0, 1], 100).unwrap();
        assert!(budgets[1] > budgets[0] * 2, "budgets {budgets:?}");
        assert!(budgets.iter().sum::<usize>() <= 100);
    }

    #[test]
    fn device_assignment_is_monotone_and_total() {
        let net = net4([64, 64, 64, 64]);
        let cluster = FpgaCluster::homogeneous(FpgaDevice::pynq(), 2, 4.0).unwrap();
        let assignment = assign_devices(&net, &cluster);
        assert_eq!(assignment.len(), 4);
        assert!(assignment.windows(2).all(|w| w[0] <= w[1]));
        assert!(assignment.iter().all(|&d| d < cluster.len()));
    }
}

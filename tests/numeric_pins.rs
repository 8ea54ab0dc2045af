//! Bit-level pins of the controller's REINFORCE arithmetic and of
//! FNAS-Design's tiling choices.
//!
//! For each paper search space a seeded trainer samples episodes of eight
//! children, accumulates their gradients under fixed advantages and takes
//! one Adam step per episode. The digests of the exported parameters and
//! of every sampled index are pinned. Any change to the rounding of the
//! LSTM forward or backward pass, the heads, the embeddings or the
//! optimiser moves a digest, so a kernel rewrite that claims to keep every
//! bit is checked here in seconds rather than through a whole search.
//!
//! FNAS-Design is pinned the same way. A seeded sweep of networks (1–8
//! layers, kernels 1/3/5/7, images 8–56, channels 1–96) is designed on
//! `pynq`, `xc7a50t`, `zu9eg` and a two-device cluster, and the digest
//! covers every layer's `⟨Tm, Tn, Tr, Tc⟩`, device, and compute and
//! transfer cycles per task. A second digest covers `explore_tilings`
//! top-N lists under seeded budgets. A rewrite of the tiling search that
//! claims to choose the same tilings is checked here, not only by the
//! result files of whole searches.

use fnas_controller::reinforce::ReinforceTrainer;
use fnas_controller::space::SearchSpace;
use fnas_fpga::design::{explore_tilings, PipelineDesign};
use fnas_fpga::device::{FpgaCluster, FpgaDevice};
use fnas_fpga::layer::{ConvShape, Network};
use fnas_store::digest128;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One advantage per child of an episode: both signs, both zeros, and
/// magnitudes above and below one.
const ADVANTAGES: [f32; 8] = [0.75, -0.5, 0.0, 1.25, -1.0, 0.125, -0.0, 0.5];

/// `(params digest, sampled-indices digest)` after `episodes` steps.
fn run(space: &SearchSpace, episodes: usize) -> (u128, u128) {
    let mut rng = StdRng::seed_from_u64(2019);
    let mut trainer = ReinforceTrainer::new(space, &mut rng).expect("trainer");
    let mut indices = Vec::new();
    for _ in 0..episodes {
        let batch: Vec<_> = ADVANTAGES
            .iter()
            .map(|&advantage| (trainer.sample(&mut rng).expect("sample"), advantage))
            .collect();
        for (sample, _) in &batch {
            indices.extend(sample.episode().indices().iter().map(|&i| i as u8));
        }
        trainer.accumulate_episode(&batch).expect("accumulate");
        trainer.apply_step().expect("step");
    }
    let params: Vec<u8> = trainer
        .export_state()
        .params
        .iter()
        .flat_map(|p| p.to_bits().to_le_bytes())
        .collect();
    (digest128(&params), digest128(&indices))
}

fn check(space: &SearchSpace, episodes: usize, want: (u128, u128)) {
    let (params, indices) = run(space, episodes);
    assert_eq!(
        (format!("{params:032x}"), format!("{indices:032x}")),
        (format!("{:032x}", want.0), format!("{:032x}", want.1)),
        "(params, indices) digests after {episodes} episodes"
    );
}

#[test]
fn mnist_trainer_bits_are_pinned() {
    check(
        &SearchSpace::mnist(),
        40,
        (
            0x51a2_91da_330a_1364_12b3_2fa0_4fc6_3435,
            0x5548_05d3_40e9_e472_67d0_3dff_c87b_0370,
        ),
    );
}

#[test]
fn cifar10_trainer_bits_are_pinned() {
    check(
        &SearchSpace::cifar10(),
        20,
        (
            0x6c0d_6502_dbcb_798e_c989_ed20_9431_4a19,
            0xfba9_f6a1_818c_6237_244e_77a3_d569_50c0,
        ),
    );
}

#[test]
fn imagenet_trainer_bits_are_pinned() {
    check(
        &SearchSpace::imagenet(),
        12,
        (
            0xcc19_22d1_41f9_1076_636a_9788_9f9e_dc22,
            0x16ba_4c49_3e17_27b4_4e05_5684_b47c_cc41,
        ),
    );
}

/// A seeded network: 1–8 layers on one image extent (8–56), kernels
/// 1/3/5/7 and channels 1–96.
fn random_network(rng: &mut StdRng) -> Network {
    let image = rng.gen_range(8..=56);
    let mut channels = rng.gen_range(1..=96);
    let layers = (0..rng.gen_range(1..=8))
        .map(|_| {
            let out = rng.gen_range(1..=96);
            let kernel = [1, 3, 5, 7][rng.gen_range(0..4)];
            let shape = ConvShape::square(channels, out, image, kernel).expect("shape");
            channels = out;
            shape
        })
        .collect();
    Network::new(layers).expect("chained channels")
}

/// Little-endian bytes of `words`, for hashing.
fn bytes(words: &[u64]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

#[test]
fn fnas_design_tilings_are_pinned() {
    let clusters = [
        FpgaCluster::single(FpgaDevice::pynq()),
        FpgaCluster::single(FpgaDevice::xc7a50t()),
        FpgaCluster::single(FpgaDevice::zu9eg()),
        FpgaCluster::new(vec![FpgaDevice::pynq(), FpgaDevice::xc7a50t()], 4.0).expect("cluster"),
    ];
    let mut rng = StdRng::seed_from_u64(2019);
    let (mut designs, mut explored) = (Vec::new(), Vec::new());
    for _ in 0..32 {
        let network = random_network(&mut rng);
        for cluster in &clusters {
            match PipelineDesign::generate_on_cluster(&network, cluster) {
                Ok(design) => {
                    for layer in design.layers() {
                        let t = layer.tiling();
                        designs.extend([t.tm, t.tn, t.tr, t.tc, layer.device()].map(|x| x as u64));
                        designs.push(layer.compute_cycles_per_task().get());
                        designs.push(layer.transfer_cycles_per_task().get());
                    }
                }
                Err(_) => designs.push(u64::MAX),
            }
        }
        for shape in network.layers() {
            let dsp = rng.gen_range(1..=400);
            let bram = rng.gen_range(256..=256 * 1024);
            let bw = [2.0, 8.0, 30.0][rng.gen_range(0..3)];
            let top = explore_tilings(shape, dsp, bram, bw, rng.gen_range(1..=12));
            explored.push(top.len() as u64);
            for (t, cycles) in top {
                explored.extend([t.tm, t.tn, t.tr, t.tc].map(|x| x as u64));
                explored.push(cycles.get());
            }
        }
    }
    assert_eq!(
        (
            format!("{:032x}", digest128(&bytes(&designs))),
            format!("{:032x}", digest128(&bytes(&explored))),
        ),
        (
            format!("{:032x}", 0x68d0_279b_dc04_26f6_53ff_14c4_b0b0_5205_u128),
            format!("{:032x}", 0xc63f_a237_6955_bf9e_a6cc_40c9_1628_dab4_u128),
        ),
        "(designs, explore_tilings) digests"
    );
}

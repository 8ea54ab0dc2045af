//! Bit-level pins of the controller's REINFORCE arithmetic.
//!
//! For each paper search space a seeded trainer samples episodes of eight
//! children, accumulates their gradients under fixed advantages and takes
//! one Adam step per episode. The digests of the exported parameters and
//! of every sampled index are pinned. Any change to the rounding of the
//! LSTM forward or backward pass, the heads, the embeddings or the
//! optimiser moves a digest, so a kernel rewrite that claims to keep every
//! bit is checked here in seconds rather than through a whole search.

use fnas_controller::reinforce::ReinforceTrainer;
use fnas_controller::space::SearchSpace;
use fnas_store::digest128;
use rand::rngs::StdRng;
use rand::SeedableRng;

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

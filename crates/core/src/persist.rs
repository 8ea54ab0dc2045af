//! Canonical keys and payload codecs for the persistent oracle store.
//!
//! This module is the bridge between the search stack's domain types and
//! the schema-agnostic byte store in `fnas_store` (DESIGN.md §14). It owns
//! two things:
//!
//! 1. **Canonical identity.** [`arch_bytes`] and [`cluster_bytes`] define
//!    byte encodings of an architecture (with its input shape) and of a
//!    target cluster that depend only on quantities the oracle actually
//!    consumes — device *names* are deliberately excluded, so the PYNQ
//!    alias and a bare XC7Z020 share store entries. [`cache_key`] digests
//!    both into a [`CacheKey`].
//! 2. **Payload codecs.** A fixed little-endian encoding of
//!    [`AnalyzerReport`] for the analytic backend and of [`Millis`] for
//!    the simulated backend. Decoders are total: any defect yields `None`,
//!    which the caller treats as a store miss and recomputes.
//!
//! Changing any encoding here requires bumping
//! [`fnas_store::SCHEMA_VERSION`] so old records age out as misses instead
//! of being misread; `tests/store_equivalence.rs` pins one canonical key
//! digest to catch silent drift.

use fnas_controller::arch::ChildArch;
use fnas_fpga::analyzer::AnalyzerReport;
use fnas_fpga::device::FpgaCluster;
use fnas_fpga::sched::ReuseStrategy;
use fnas_fpga::{Cycles, Millis};
use fnas_store::bytes::{decode, DecodeError, Reader, Writer};
use fnas_store::{digest128, Backend, CacheKey};

/// Canonical byte encoding of an architecture and the input shape it is
/// evaluated under: input `(channels, height, width)`, layer count, then
/// `(filter_size, num_filters)` per layer, all little-endian `u64`.
pub fn arch_bytes(arch: &ChildArch, input: (usize, usize, usize)) -> Vec<u8> {
    let layers = arch.layers();
    let mut w = Writer::with_capacity(8 * (4 + 2 * layers.len()));
    for dim in [input.0, input.1, input.2, layers.len()] {
        w.u64(dim as u64);
    }
    for layer in layers {
        w.u64(layer.filter_size as u64);
        w.u64(layer.num_filters as u64);
    }
    w.into_bytes()
}

/// Canonical byte encoding of a target cluster: device count, then per
/// device the four modelled resources (DSP slices, BRAM bytes, bandwidth,
/// clock), then the inter-device link bandwidth. Floats are encoded as IEEE
/// bit patterns; device names are excluded on purpose (they do not affect
/// the oracle).
pub fn cluster_bytes(cluster: &FpgaCluster) -> Vec<u8> {
    let devices = cluster.devices();
    let mut w = Writer::with_capacity(8 * (2 + 4 * devices.len()));
    w.u64(devices.len() as u64);
    for device in devices {
        w.u64(device.dsp_slices() as u64);
        w.u64(device.bram_bytes() as u64);
        w.f64(device.bandwidth_bytes_per_cycle());
        w.f64(device.clock_mhz());
    }
    w.f64(cluster.link_bytes_per_cycle());
    w.into_bytes()
}

/// The store key for `arch` evaluated on `cluster` by `backend`, under
/// the canonical lowering of this build: the pipeline fingerprint is
/// folded in, so changing any lowering stage rotates the stored answers.
pub fn cache_key(
    arch: &ChildArch,
    input: (usize, usize, usize),
    cluster: &FpgaCluster,
    backend: Backend,
) -> CacheKey {
    CacheKey::new(
        digest128(&arch_bytes(arch, input)),
        digest128(&cluster_bytes(cluster)),
        fnas_fpga::artifacts::canonical_pipeline_fingerprint(),
        backend,
    )
}

/// Encodes an [`AnalyzerReport`] as an analytic-backend store payload.
pub fn encode_report(report: &AnalyzerReport) -> Vec<u8> {
    let mut w = Writer::default();
    w.u64(report.latency_cycles.get());
    w.f64(report.latency.get());
    w.u64(report.eq5_cycles.get());
    for cycles in [&report.et, &report.processing, &report.start_deltas] {
        w.u64(cycles.len() as u64);
        for c in cycles {
            w.u64(c.get());
        }
    }
    w.u64(report.reuse.len() as u64);
    for strategy in &report.reuse {
        w.u8(match strategy {
            ReuseStrategy::OfmReuse => 1,
            ReuseStrategy::IfmReuse => 2,
        });
    }
    w.into_bytes()
}

/// Decodes an analytic-backend payload; `None` on any defect.
pub fn decode_report(bytes: &[u8]) -> Option<AnalyzerReport> {
    let cycles = |r: &mut Reader<'_>| {
        let n = r.count64(8)?;
        r.vec(n, |r| r.u64().map(Cycles::new))
    };
    decode(bytes, |r| {
        Ok(AnalyzerReport {
            latency_cycles: Cycles::new(r.u64()?),
            latency: Millis::new(r.f64()?),
            eq5_cycles: Cycles::new(r.u64()?),
            et: cycles(r)?,
            processing: cycles(r)?,
            start_deltas: cycles(r)?,
            reuse: {
                let n = r.count64(1)?;
                r.vec(n, |r| match r.u8()? {
                    1 => Ok(ReuseStrategy::OfmReuse),
                    2 => Ok(ReuseStrategy::IfmReuse),
                    tag => Err(DecodeError::Tag { what: "reuse", tag }),
                })?
            },
        })
    })
    .ok()
}

/// Encodes a latency as a simulated-backend store payload (IEEE bits).
pub fn encode_millis(value: Millis) -> Vec<u8> {
    value.get().to_bits().to_le_bytes().to_vec()
}

/// Decodes a simulated-backend payload; `None` on any defect.
pub fn decode_millis(bytes: &[u8]) -> Option<Millis> {
    decode(bytes, Reader::f64).ok().map(Millis::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fnas_controller::arch::LayerChoice;
    use fnas_fpga::device::FpgaDevice;

    fn arch(choices: &[(usize, usize)]) -> ChildArch {
        ChildArch::new(
            choices
                .iter()
                .map(|&(filter_size, num_filters)| LayerChoice {
                    filter_size,
                    num_filters,
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn report_payload_roundtrips_exactly() {
        let report = AnalyzerReport {
            latency_cycles: Cycles::new(1234),
            latency: Millis::new(0.0625),
            eq5_cycles: Cycles::new(1200),
            et: vec![Cycles::new(1), Cycles::new(2)],
            processing: vec![Cycles::new(3), Cycles::new(4)],
            start_deltas: vec![Cycles::new(5)],
            reuse: vec![ReuseStrategy::OfmReuse, ReuseStrategy::IfmReuse],
        };
        let bytes = encode_report(&report);
        assert_eq!(decode_report(&bytes), Some(report));
    }

    #[test]
    fn corrupt_report_payload_is_rejected() {
        let report = AnalyzerReport {
            latency_cycles: Cycles::new(1),
            latency: Millis::new(1.0),
            eq5_cycles: Cycles::new(1),
            et: vec![Cycles::new(1)],
            processing: vec![Cycles::new(1)],
            start_deltas: vec![],
            reuse: vec![ReuseStrategy::OfmReuse],
        };
        let bytes = encode_report(&report);
        assert!(decode_report(&bytes[..bytes.len() - 1]).is_none());
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_report(&long).is_none());
        let mut bad_tag = bytes.clone();
        *bad_tag.last_mut().unwrap() = 9;
        assert!(decode_report(&bad_tag).is_none());
        // A corrupt length field must not allocate or panic.
        let mut bad_len = bytes;
        bad_len[24..32].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_report(&bad_len).is_none());
    }

    #[test]
    fn millis_payload_roundtrips_bit_exactly() {
        for value in [0.0, 1.5, 0.1 + 0.2, f64::MIN_POSITIVE] {
            let m = Millis::new(value);
            assert_eq!(
                decode_millis(&encode_millis(m)).unwrap().get().to_bits(),
                value.to_bits()
            );
        }
        assert!(decode_millis(b"short").is_none());
    }

    #[test]
    fn key_distinguishes_arch_shape_device_and_backend() {
        let input = (1, 28, 28);
        let pynq = FpgaCluster::single(FpgaDevice::pynq());
        let a = arch(&[(5, 9)]);
        let base = cache_key(&a, input, &pynq, Backend::Analytic);
        let other_arch = cache_key(&arch(&[(5, 18)]), input, &pynq, Backend::Analytic);
        let other_input = cache_key(&a, (1, 14, 14), &pynq, Backend::Analytic);
        let other_device = cache_key(
            &a,
            input,
            &FpgaCluster::single(FpgaDevice::zu9eg()),
            Backend::Analytic,
        );
        let other_backend = cache_key(&a, input, &pynq, Backend::Simulated);
        let keys = [base, other_arch, other_input, other_device, other_backend];
        assert_eq!(
            base.pipeline_digest,
            fnas_fpga::artifacts::canonical_pipeline_fingerprint()
        );
        for i in 0..keys.len() {
            for j in (i + 1)..keys.len() {
                assert_ne!(keys[i], keys[j], "keys {i} and {j} collide");
            }
        }
    }

    #[test]
    fn device_name_does_not_affect_the_key() {
        // The PYNQ board *is* an XC7Z020; the store must share entries.
        let a = arch(&[(5, 9)]);
        let pynq = FpgaCluster::single(FpgaDevice::pynq());
        let chip = FpgaCluster::single(FpgaDevice::xc7z020());
        assert_eq!(
            cache_key(&a, (1, 28, 28), &pynq, Backend::Analytic),
            cache_key(&a, (1, 28, 28), &chip, Backend::Analytic)
        );
    }
}

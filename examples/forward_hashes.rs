//! One FNV-1a hash of the output bits per packed-forward case: the engine's
//! outputs as a diffable fingerprint, for changes that claim to leave every
//! output bit where it was.
//!
//! Cases: four models (`mbv2`, the serving `cnn`, the inverted-residual
//! `block` of `BENCH_infer.json`, `resnet_cifar(1, 0.5)`) × widths {4, 8, 12,
//! 15, 16, 24, 32} × batches {1, 3, 16} × quantizers SBM and DoReFa × entry
//! points `forward_at` (one activation scale per batch) and
//! `forward_batch_at` (one per sample) × kernel tables (the dispatched one
//! and the portable one `INSTANTNET_SIMD=scalar` selects): 672 lines of
//! `model quantizer entry batch bits table hash`, then a count.
//!
//! ```sh
//! cargo run --release -p instantnet --example forward_hashes > hashes.txt
//! ```
//!
//! Diff two builds' files to compare them. The run exits non-zero if the two
//! tables disagree on any case, which they must never do.

use instantnet_infer::{active_simd_backend, with_simd_backend, PackedModel, SimdBackend};
use instantnet_nn::blocks::{ConvBnAct, InvertedResidual};
use instantnet_nn::layers::{Activation, GlobalAvgPool, QuantLinear};
use instantnet_nn::{models, Module, Sequential};
use instantnet_quant::{BitWidthSet, Quantizer};
use instantnet_tensor::{init, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

const WIDTHS: [u8; 7] = [4, 8, 12, 15, 16, 24, 32];

/// FNV-1a over the little-endian bits of every output value.
fn fnv(y: &Tensor) -> u64 {
    let bytes = y.data().iter().flat_map(|v| v.to_bits().to_le_bytes());
    bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The serving CNN of `burst_drain_cnn`: an f32 stem, a quantized 3×3 conv
/// down to a 2×2 map, three linears.
fn cnn(n_bits: usize) -> Sequential {
    let (mut rng, relu) = (StdRng::seed_from_u64(4), Activation::Relu);
    let mut cnn = Sequential::new();
    cnn.push(Box::new(ConvBnAct::new(
        &mut rng, "stem", 3, 8, 3, 2, 1, n_bits, relu, false,
    )));
    cnn.push(Box::new(ConvBnAct::new(
        &mut rng, "conv2", 8, 32, 3, 2, 1, n_bits, relu, true,
    )));
    cnn.push(Box::new(GlobalAvgPool));
    cnn.push(Box::new(QuantLinear::new(&mut rng, "fc1", 32, 256)));
    cnn.push(Box::new(QuantLinear::new(&mut rng, "fc2", 256, 256)));
    cnn.push(Box::new(QuantLinear::new(&mut rng, "fc3", 256, 10)));
    cnn
}

fn main() -> ExitCode {
    let set = BitWidthSet::new(WIDTHS.to_vec()).expect("a valid set");
    let n = set.len();
    let mut rng = StdRng::seed_from_u64(3);
    let block = InvertedResidual::new(&mut rng, "block", 16, 16, 6, 3, 1, n);
    let nets: [(&str, Box<dyn Module>, [usize; 3]); 4] = [
        (
            "mbv2",
            Box::new(models::mobilenet_v2(0.25, 2, 10, (16, 16), n, 5)),
            [3, 16, 16],
        ),
        ("cnn", Box::new(cnn(n)), [3, 8, 8]),
        ("block", Box::new(block), [16, 16, 16]),
        (
            "resnet",
            Box::new(models::resnet_cifar(1, 0.5, 10, (16, 16), n, 7)),
            [3, 16, 16],
        ),
    ];
    let detected = active_simd_backend();
    let (mut cases, mut mismatches) = (0usize, 0usize);
    for (name, net, dims) in &nets {
        for q in [Quantizer::Sbm, Quantizer::Dorefa] {
            let packed = PackedModel::prepack(net.as_ref(), &set, q).expect("packs");
            for batch in [1usize, 3, 16] {
                let x = init::uniform(&mut rng, &[batch, dims[0], dims[1], dims[2]], -0.3, 1.2);
                for (entry, per_sample) in [("forward_at", false), ("forward_batch_at", true)] {
                    for (i, bits) in WIDTHS.iter().enumerate() {
                        let run = || {
                            if per_sample {
                                packed.forward_batch_at(i, &x)
                            } else {
                                packed.forward_at(i, &x)
                            }
                        };
                        let hashes = [
                            (detected.name(), fnv(&run())),
                            ("scalar", fnv(&with_simd_backend(SimdBackend::Scalar, run))),
                        ];
                        for (table, hash) in hashes {
                            println!("{name} {q:?} {entry} {batch} {bits} {table} {hash:016x}");
                            cases += 1;
                        }
                        if hashes[0].1 != hashes[1].1 {
                            eprintln!("{name} {q:?} {entry} batch {batch} at {bits} bits: the tables disagree");
                            mismatches += 1;
                        }
                    }
                }
            }
        }
    }
    println!("{cases} cases, {mismatches} where the tables disagree");
    if mismatches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

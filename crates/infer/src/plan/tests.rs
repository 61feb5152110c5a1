//! The arena and the chained epilogue: a forward owes nothing to what its
//! arena held before, and every step's recorded max-abs is the max-abs of
//! what it stored.

use super::*;
use crate::simd::{avx2_available, with_simd_backend, SimdBackend};
use crate::PackedModel;
use instantnet_nn::blocks::ConvBnAct;
use instantnet_nn::layers::{GlobalAvgPool, QuantLinear};
use instantnet_nn::{models, Module, Sequential};
use instantnet_parallel::with_threads;
use instantnet_quant::BitWidthSet;
use instantnet_tensor::init;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A step's output and the max-abs it recorded per sample.
type Observed = (Vec<f32>, Vec<f32>);

thread_local! {
    /// Every step's [`Observed`], where a test collects them.
    static STEPS: RefCell<Option<Vec<Observed>>> = const { RefCell::new(None) };
}

/// The plan loop's hook after every step: its output lanes and the max-abs
/// it recorded per sample.
pub(super) fn observe(y: &[f32], maxes: &[f32]) {
    STEPS.with(|s| {
        if let Some(steps) = s.borrow_mut().as_mut() {
            steps.push((y.to_vec(), maxes.to_vec()));
        }
    });
}

/// The kernel tables this CPU runs.
fn tables() -> Vec<SimdBackend> {
    let mut tables = vec![SimdBackend::Scalar];
    if avx2_available() {
        tables.push(SimdBackend::Avx2);
    }
    tables
}

const WIDTHS: [u8; 7] = [4, 8, 12, 15, 16, 24, 32];

/// MobileNetV2 (residual adds, depthwise in both orientations, thin and
/// column GEMMs, channel counts that leave partial word groups) and the
/// serving CNN (an f32 stem, a windowed 4-bit conv, a pool, linears), packed
/// at every width of [`WIDTHS`], with their input dims.
fn models() -> Vec<(&'static str, PackedModel, [usize; 3])> {
    let set = BitWidthSet::new(WIDTHS.to_vec()).unwrap();
    let n = set.len();
    let (mut rng, relu) = (StdRng::seed_from_u64(4), Activation::Relu);
    let mut cnn = Sequential::new();
    cnn.push(Box::new(ConvBnAct::new(
        &mut rng, "stem", 3, 8, 3, 2, 1, n, relu, false,
    )));
    cnn.push(Box::new(ConvBnAct::new(
        &mut rng, "conv2", 8, 32, 3, 2, 1, n, relu, true,
    )));
    cnn.push(Box::new(GlobalAvgPool));
    cnn.push(Box::new(QuantLinear::new(&mut rng, "fc1", 32, 40)));
    cnn.push(Box::new(QuantLinear::new(&mut rng, "fc2", 40, 10)));
    let mbv2 = models::mobilenet_v2(0.25, 2, 10, (16, 16), n, 5);
    let pack = |m: &dyn Module| PackedModel::prepack(m, &set, Quantizer::Sbm).unwrap();
    vec![
        ("mbv2", pack(&mbv2), [3, 16, 16]),
        ("cnn", pack(&cnn), [3, 8, 8]),
    ]
}

fn assert_bits_eq(a: &Tensor, b: &Tensor, ctx: &str) {
    assert_eq!(a.dims(), b.dims(), "{ctx}");
    for (j, (u, v)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(u.to_bits(), v.to_bits(), "{ctx}: element {j}: {u} vs {v}");
    }
}

/// Every arena byte is poisoned between forwards, and batches run 16 → 1 →
/// 8 → 16, so each plan meets an arena a larger or another plan left behind:
/// at every width and on every table each output equals the same forward on
/// a fresh thread — a fresh arena — bit for bit, with one kernel thread and
/// with three (row and block workers carving their pieces out of the
/// poisoned arena). Every padding lane, frame border and partial word group
/// is written, not inherited.
#[test]
fn poisoned_arenas_change_no_output_bit() {
    let models = models();
    for (table, threads) in tables().into_iter().flat_map(|t| [(t, 1), (t, 3)]) {
        with_simd_backend(table, || {
            for (name, packed, dims) in &models {
                let mut rng = StdRng::seed_from_u64(9);
                for (i, bits) in WIDTHS.iter().enumerate() {
                    for n in [16usize, 1, 8, 16] {
                        let x = init::uniform(&mut rng, &[n, dims[0], dims[1], dims[2]], -0.3, 1.2);
                        ARENA.with(|a| a.borrow_mut().poison());
                        let (y, y_at) = with_threads(threads, || {
                            (packed.forward_batch_at(i, &x), packed.forward_at(i, &x))
                        });
                        // A new thread has a new arena; the forced table is
                        // process-global, so it runs the same one.
                        let fresh = std::thread::scope(|s| {
                            let forward = || {
                                with_threads(1, || {
                                    (packed.forward_batch_at(i, &x), packed.forward_at(i, &x))
                                })
                            };
                            s.spawn(forward).join().unwrap()
                        });
                        let ctx =
                            format!("{name} w{bits} batch {n} on {table:?}, {threads} threads");
                        assert_bits_eq(&y, &fresh.0, &format!("forward_batch_at: {ctx}"));
                        assert_bits_eq(&y_at, &fresh.1, &format!("forward_at: {ctx}"));
                    }
                }
            }
        });
    }
}

/// NaN, ±inf, −0.0 and subnormals in one sample of a batch: every step's
/// recorded max-abs equals `Kernels::max_abs` over the output it stored,
/// sample by sample, on every table and at every width whose grid reads one
/// (below 32 bits), and the other samples' outputs are those of the same
/// batch without the bad sample.
#[test]
fn chained_grids_equal_the_max_abs_of_every_stored_output() {
    let models = models();
    let specials = [
        f32::NAN,
        -f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        -0.0,
        f32::from_bits(1),
        -f32::MIN_POSITIVE / 2.0,
    ];
    for table in tables() {
        with_simd_backend(table, || {
            let k = kernels();
            for (name, packed, dims) in &models {
                let mut rng = StdRng::seed_from_u64(11);
                let n = 3;
                let clean = init::uniform(&mut rng, &[n, dims[0], dims[1], dims[2]], -0.3, 1.2);
                let mut bad = clean.clone();
                let len = clean.len() / n;
                for (j, v) in bad.data_mut()[len..2 * len].iter_mut().enumerate() {
                    if j % 3 == 0 {
                        *v = specials[j / 3 % specials.len()];
                    }
                }
                for (i, bits) in WIDTHS.iter().enumerate() {
                    let ctx = format!("{name} w{bits} on {table:?}");
                    let want = with_threads(1, || packed.forward_batch_at(i, &clean));
                    STEPS.with(|s| *s.borrow_mut() = Some(Vec::new()));
                    let got = with_threads(1, || packed.forward_batch_at(i, &bad));
                    let steps = STEPS.with(|s| s.borrow_mut().take().unwrap());
                    assert!(!steps.is_empty(), "{ctx}: no step observed");
                    for (at, (y, maxes)) in steps.iter().enumerate().filter(|_| *bits < 32) {
                        for (s, (y, m)) in y.chunks(y.len() / n).zip(maxes).enumerate() {
                            let want = (k.max_abs)(y);
                            assert_eq!(m.to_bits(), want.to_bits(), "{ctx}: step {at} sample {s}");
                        }
                    }
                    let out = got.len() / n;
                    for s in [0, 2] {
                        let (g, w) = (
                            &got.data()[s * out..][..out],
                            &want.data()[s * out..][..out],
                        );
                        let same = g.iter().zip(w).all(|(a, b)| a.to_bits() == b.to_bits());
                        assert!(same, "{ctx}: sample {s} changed with its batch-mate");
                    }
                }
            }
        });
    }
}

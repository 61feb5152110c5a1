//! SIMD-backend parity contract of the packed inference engine.
//!
//! The `instantnet-infer` dispatch layer selects between the portable
//! scalar kernels and the AVX2 kernels at runtime; this suite pins the
//! non-negotiable invariant that the choice is **invisible**:
//!
//! * **Whole-model bit-identity**: `forward_batch_at` under the forced
//!   scalar backend equals the ambient (auto-dispatched) backend bit for
//!   bit, for every `BitWidthSet::large_range()` bit-width × both
//!   quantizers × batch sizes {1, 16} × 1 vs N threads — so every
//!   existing bit-identity guarantee (fake-quant parity, degenerate
//!   serving-path equivalence) transfers to the SIMD backend for free.
//! * **Fused parity**: the fused multiply-on-packed-codes kernels
//!   (`INSTANTNET_FUSED`, AVX2 `maddubs`/`madd`, NEON `smull`/`smlal`)
//!   equal the widen-then-multiply path and the scalar reference bit for
//!   bit — including adversarial shapes: every tail width cols ∈ {1..67}
//!   with saturation-edge codes (max-magnitude nibbles and activations).
//! * **Knob round-trip**: `INSTANTNET_SIMD=scalar|avx2|neon|garbage`
//!   resolves to the documented backend in a fresh process (subprocess
//!   self-exec, since the default is latched once per process).
//! * **Forced fallback**: `with_simd_backend(Scalar)` pins scalar even on
//!   AVX2 hosts, scoped and restored.
//! * **Pack-time kernel layout**: a model whose fused words and depthwise
//!   tap tables were built at prepack serves every route — fused,
//!   fused-off, forced scalar, a replica clone — bit-identically, and no
//!   forward repacks.
//! * **Thin layers**: GEMMs with fewer columns than one column block (2×2
//!   maps, small-batch linears) take the reduction-lane kernels; every route
//!   agrees on them bit for bit, across the block boundary.
//! * **Proptest**: random (rows, cols, batch, bit-width, quantizer)
//!   linear and conv problems produce identical results under both
//!   backends at 1 vs 3 threads.

use instantnet_infer::{
    active_simd_backend, avx2_available, neon_available, with_fused_gemm, with_simd_backend,
    PackedModel, SimdBackend,
};
use instantnet_nn::layers::{QuantConv2d, QuantLinear};
use instantnet_nn::models;
use instantnet_nn::plan::PlanOp;
use instantnet_parallel::with_threads;
use instantnet_quant::{BitWidthSet, Quantizer};
use instantnet_tensor::{init, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Exact comparison: the two backends must agree on every bit.
fn assert_bits_eq(a: &Tensor, b: &Tensor, ctx: &str) {
    assert_eq!(a.dims(), b.dims(), "{ctx}: dims differ");
    let (ab, bb): (Vec<u32>, Vec<u32>) = (
        a.data().iter().map(|v| v.to_bits()).collect(),
        b.data().iter().map(|v| v.to_bits()).collect(),
    );
    assert_eq!(ab, bb, "{ctx}: outputs differ bitwise");
}

#[test]
fn forward_batch_bit_identical_scalar_vs_dispatched_everywhere() {
    let bits = BitWidthSet::large_range();
    for q in [Quantizer::Sbm, Quantizer::Dorefa] {
        let net = models::small_cnn(4, 6, (8, 8), bits.len(), 31);
        let packed = PackedModel::prepack(&net, &bits, q).unwrap();
        let mut rng = StdRng::seed_from_u64(0xB17);
        for batch in [1usize, 16] {
            let x = init::uniform(&mut rng, &[batch, 3, 8, 8], -1.0, 1.0);
            for i in 0..bits.len() {
                for threads in [1usize, 4] {
                    let ambient = with_threads(threads, || packed.forward_batch_at(i, &x));
                    let scalar = with_simd_backend(SimdBackend::Scalar, || {
                        with_threads(threads, || packed.forward_batch_at(i, &x))
                    });
                    assert_bits_eq(
                        &ambient,
                        &scalar,
                        &format!(
                            "{q:?} @ {}b batch {batch} threads {threads}",
                            bits.widths()[i]
                        ),
                    );
                    // Fused kernels off: the widen-then-multiply path must
                    // also match, whatever backend is ambient.
                    let widen = with_fused_gemm(false, || {
                        with_threads(threads, || packed.forward_batch_at(i, &x))
                    });
                    assert_bits_eq(
                        &widen,
                        &scalar,
                        &format!(
                            "fused off: {q:?} @ {}b batch {batch} threads {threads}",
                            bits.widths()[i]
                        ),
                    );
                    if avx2_available() {
                        let avx2 = with_simd_backend(SimdBackend::Avx2, || {
                            with_threads(threads, || packed.forward_batch_at(i, &x))
                        });
                        assert_bits_eq(
                            &avx2,
                            &scalar,
                            &format!(
                                "forced avx2: {q:?} @ {}b batch {batch} threads {threads}",
                                bits.widths()[i]
                            ),
                        );
                    }
                    if neon_available() {
                        let neon = with_simd_backend(SimdBackend::Neon, || {
                            with_threads(threads, || packed.forward_batch_at(i, &x))
                        });
                        assert_bits_eq(
                            &neon,
                            &scalar,
                            &format!(
                                "forced neon: {q:?} @ {}b batch {batch} threads {threads}",
                                bits.widths()[i]
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// The override is process-global, so "restored" is only observable where
/// no sibling test can be inside its own `with_simd_backend` scope: the
/// assertions run in a fresh subprocess filtered to this one test.
#[test]
fn forced_scalar_overrides_dispatch_on_any_host() {
    const ISOLATED: &str = "INSTANTNET_SIMD_PARITY_ISOLATED";
    if std::env::var_os(ISOLATED).is_none() {
        let exe = std::env::current_exe().expect("test binary path");
        let out = std::process::Command::new(exe)
            .args(["forced_scalar_overrides_dispatch_on_any_host", "--exact"])
            .env(ISOLATED, "1")
            .output()
            .expect("self-exec");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "isolated run failed: {stdout}");
        assert!(stdout.contains("1 passed"), "isolated run ran no test");
        return;
    }
    let ambient = active_simd_backend();
    let inside = with_simd_backend(SimdBackend::Scalar, active_simd_backend);
    assert_eq!(inside, SimdBackend::Scalar, "forcing scalar must stick");
    assert_eq!(active_simd_backend(), ambient, "override must be scoped");
    if avx2_available() {
        let inside = with_simd_backend(SimdBackend::Avx2, active_simd_backend);
        assert_eq!(inside, SimdBackend::Avx2);
        assert_eq!(active_simd_backend(), ambient);
    }
}

/// Subprocess target for the env round-trip: prints the backend this
/// process latched from `INSTANTNET_SIMD` + detection. Runs as a trivial
/// self-check in normal suite runs.
#[test]
fn print_active_backend() {
    let b = active_simd_backend();
    println!("active-simd-backend={}", b.name());
    assert!(matches!(
        b,
        SimdBackend::Scalar | SimdBackend::Avx2 | SimdBackend::Neon
    ));
}

/// The `INSTANTNET_SIMD` knob is read once per process, so each value is
/// probed in a fresh subprocess running [`print_active_backend`].
#[test]
fn env_knob_round_trips_in_fresh_process() {
    let exe = std::env::current_exe().expect("test binary path");
    let backend_under = |env: &str| -> String {
        let out = std::process::Command::new(&exe)
            .args(["print_active_backend", "--exact", "--nocapture"])
            .env("INSTANTNET_SIMD", env)
            .output()
            .expect("self-exec");
        assert!(out.status.success(), "subprocess failed under {env:?}");
        // libtest may splice its own "test … ok" text around the marker,
        // so locate it by substring rather than line prefix.
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let at = stdout
            .find("active-simd-backend=")
            .unwrap_or_else(|| panic!("no backend marker under {env:?}: {stdout}"));
        stdout[at + "active-simd-backend=".len()..]
            .split_whitespace()
            .next()
            .expect("marker has a value")
            .to_string()
    };

    assert_eq!(backend_under("scalar"), "scalar", "scalar forces scalar");
    assert_eq!(backend_under("SCALAR"), "scalar", "case-insensitive");
    let detected = if avx2_available() {
        "avx2"
    } else if neon_available() {
        "neon"
    } else {
        "scalar"
    };
    assert_eq!(backend_under("avx2"), detected, "avx2 honors detection");
    let neon_expect = if neon_available() { "neon" } else { detected };
    assert_eq!(backend_under("neon"), neon_expect, "neon honors detection");
    assert_eq!(backend_under("auto"), detected, "auto means detect");
    assert_eq!(backend_under("bogus"), detected, "garbage means detect");
}

/// Adversarial kernel shapes through the public model path: single-layer
/// linear plans at every fused-tail width cols ∈ {1..67}, with weights
/// pinned to ±1 (quantizing to each grid's extreme codes — max-magnitude
/// nibbles under both quantizers) and inputs saturated to ±1 (extreme
/// activation codes). Fused, widen-then-multiply, and scalar paths must
/// agree bit for bit at batch {1, 16} × 1 vs 4 threads.
#[test]
fn adversarial_shapes_fused_widen_scalar_parity() {
    let bits = BitWidthSet::large_range();
    let outf = 5usize;
    for q in [Quantizer::Sbm, Quantizer::Dorefa] {
        for cols in 1usize..=67 {
            let weight = Tensor::from_vec(
                vec![outf, cols],
                (0..outf * cols)
                    .map(|e| if (e + e / cols) % 2 == 0 { 1.0 } else { -1.0 })
                    .collect(),
            );
            let plan = vec![PlanOp::Linear {
                name: "adv".into(),
                weight,
                bias: Tensor::zeros(&[outf]),
            }];
            let packed = PackedModel::from_plan(&plan, &bits, q).unwrap();
            for batch in [1usize, 16] {
                let x = Tensor::from_vec(
                    vec![batch, cols],
                    (0..batch * cols)
                        .map(|e| if e % 2 == 0 { 1.0 } else { -1.0 })
                        .collect(),
                );
                for i in 0..bits.len() {
                    for threads in [1usize, 4] {
                        let ctx = format!(
                            "adversarial {q:?} cols {cols} batch {batch} threads {threads} @ {}b",
                            bits.widths()[i]
                        );
                        let scalar = with_simd_backend(SimdBackend::Scalar, || {
                            with_threads(threads, || packed.forward_batch_at(i, &x))
                        });
                        let fused = with_fused_gemm(true, || {
                            with_threads(threads, || packed.forward_batch_at(i, &x))
                        });
                        assert_bits_eq(&fused, &scalar, &format!("fused: {ctx}"));
                        let widen = with_fused_gemm(false, || {
                            with_threads(threads, || packed.forward_batch_at(i, &x))
                        });
                        assert_bits_eq(&widen, &scalar, &format!("widen: {ctx}"));
                    }
                }
            }
        }
    }
}

/// Weights laid out for the kernels at pack time (fused words, depthwise
/// taps) must serve every dispatch route bit-identically: the routes that
/// ignore them (forced scalar, fused off) decode the storage codes
/// instead. MobileNetV2 covers in-place 1×1 patch matrices, depthwise tap
/// tables and a linear head; the grouped strided 3×3 covers `im2col` +
/// interleave.
#[test]
fn prepacked_kernel_weights_serve_every_route_bit_identically() {
    let bits = BitWidthSet::large_range();
    let mut rng = StdRng::seed_from_u64(0x9AC4);
    let mbv2 = models::mobilenet_v2(0.25, 2, 10, (16, 16), bits.len(), 5);
    let grouped = QuantConv2d::new(&mut rng, "g", 6, 8, 3, 2, 1, 2, true);
    let nets: [(&dyn instantnet_nn::Module, [usize; 3]); 2] =
        [(&mbv2, [3, 16, 16]), (&grouped, [6, 9, 7])];
    for q in [Quantizer::Sbm, Quantizer::Dorefa] {
        for (net, dims) in &nets {
            let packed = PackedModel::prepack(*net, &bits, q).unwrap();
            let passes = packed.pack_passes();
            let replica = packed.clone();
            assert!(packed.shares_packed_tables(&replica));
            for batch in [1usize, 3] {
                let x = init::uniform(&mut rng, &[batch, dims[0], dims[1], dims[2]], -0.6, 1.2);
                for i in 0..bits.len() {
                    let ctx = format!("{q:?} @ {}b batch {batch}", bits.widths()[i]);
                    let scalar =
                        with_simd_backend(SimdBackend::Scalar, || packed.forward_batch_at(i, &x));
                    let routes = [
                        ("ambient", packed.forward_batch_at(i, &x)),
                        ("replica", replica.forward_batch_at(i, &x)),
                        (
                            "fused off",
                            with_fused_gemm(false, || packed.forward_batch_at(i, &x)),
                        ),
                        (
                            "scalar, fused forced on",
                            with_simd_backend(SimdBackend::Scalar, || {
                                with_fused_gemm(true, || packed.forward_batch_at(i, &x))
                            }),
                        ),
                    ];
                    for (route, y) in &routes {
                        assert_bits_eq(y, &scalar, &format!("{route}: {ctx}"));
                    }
                    if avx2_available() {
                        let avx2 =
                            with_simd_backend(SimdBackend::Avx2, || packed.forward_batch_at(i, &x));
                        assert_bits_eq(&avx2, &scalar, &format!("forced avx2: {ctx}"));
                    }
                    // Whole-tensor activation scales take the same kernels.
                    let per_batch = packed.forward_at(i, &x);
                    let per_batch_scalar =
                        with_simd_backend(SimdBackend::Scalar, || packed.forward_at(i, &x));
                    assert_bits_eq(&per_batch, &per_batch_scalar, &format!("forward_at: {ctx}"));
                }
            }
            assert_eq!(packed.pack_passes(), passes, "forwards must not repack");
            assert_eq!(replica.pack_passes(), passes);
        }
    }
}

/// Whole layers whose GEMM has fewer columns than one column block — the
/// thin, reduction-lane kernels' territory — and just past it: a 1×1 and a
/// strided 3×3 onto a 2×2 map, a grouped conv, and a linear at every batch
/// from 1 to 9 (the block boundary is 8 columns on AVX2). Dispatched, fused
/// off, forced scalar and forced AVX2 must agree on every bit, at 1 and 3
/// threads, per-sample and whole-tensor scales alike.
#[test]
fn thin_layers_serve_every_route_bit_identically() {
    let bits = BitWidthSet::large_range();
    let mut rng = StdRng::seed_from_u64(0x7411);
    let pointwise = QuantConv2d::new(&mut rng, "pw", 40, 24, 1, 1, 0, 1, true);
    let strided = QuantConv2d::new(&mut rng, "c3", 8, 32, 3, 2, 1, 1, true);
    let grouped = QuantConv2d::new(&mut rng, "g2", 6, 8, 3, 2, 1, 2, true);
    let linear = QuantLinear::new(&mut rng, "fc", 67, 19);
    // (name, layer, sample dims, batch sizes)
    type Layer<'a> = (
        &'a str,
        &'a dyn instantnet_nn::Module,
        Vec<usize>,
        Vec<usize>,
    );
    let layers: [Layer; 4] = [
        ("1x1 on 2x2", &pointwise, vec![40, 2, 2], vec![1, 2, 3]),
        ("3x3 s2 to 2x2", &strided, vec![8, 4, 4], vec![1, 2, 3]),
        ("groups 2 to 1x2", &grouped, vec![6, 2, 3], vec![1, 3, 4, 5]),
        ("linear", &linear, vec![67], (1..=9).collect()),
    ];
    for q in [Quantizer::Sbm, Quantizer::Dorefa] {
        for (name, layer, dims, batches) in &layers {
            let packed = PackedModel::prepack(*layer, &bits, q).unwrap();
            for &n in batches {
                let mut full = vec![n];
                full.extend(dims);
                let x = init::uniform(&mut rng, &full, -0.7, 1.2);
                for i in 0..bits.len() {
                    for threads in [1usize, 3] {
                        let run = || with_threads(threads, || packed.forward_batch_at(i, &x));
                        let ctx = format!(
                            "{name} {q:?} @ {}b batch {n} threads {threads}",
                            bits.widths()[i]
                        );
                        let scalar = with_simd_backend(SimdBackend::Scalar, run);
                        assert_bits_eq(&run(), &scalar, &format!("dispatched: {ctx}"));
                        let widen = with_fused_gemm(false, run);
                        assert_bits_eq(&widen, &scalar, &format!("fused off: {ctx}"));
                        if avx2_available() {
                            let avx2 = with_simd_backend(SimdBackend::Avx2, run);
                            assert_bits_eq(&avx2, &scalar, &format!("forced avx2: {ctx}"));
                        }
                        let whole = with_threads(threads, || packed.forward_at(i, &x));
                        let whole_scalar = with_simd_backend(SimdBackend::Scalar, || {
                            with_threads(threads, || packed.forward_at(i, &x))
                        });
                        assert_bits_eq(&whole, &whole_scalar, &format!("forward_at: {ctx}"));
                    }
                }
            }
        }
    }
}

/// The overrides are process-global, so a forward running *outside* a
/// `with_simd_backend` / `with_fused_gemm` scope may see the active kernel
/// table change under it. Every layer takes one snapshot of the table and
/// routes on that alone — a route that straddled two tables would look up a
/// fused kernel in a table that has none. Here one thread flips both
/// overrides as fast as it can while another serves; every output must still
/// be the reference, bit for bit.
#[test]
fn forwards_are_unmoved_by_overrides_flipping_under_them() {
    let bits = BitWidthSet::large_range();
    let net = models::mobilenet_v2(0.25, 2, 10, (16, 16), bits.len(), 5);
    let packed = PackedModel::prepack(&net, &bits, Quantizer::Sbm).unwrap();
    let mut rng = StdRng::seed_from_u64(0xF11B);
    let x = init::uniform(&mut rng, &[2, 3, 16, 16], -0.6, 1.2);
    let want: Vec<Tensor> = (0..bits.len())
        .map(|i| with_simd_backend(SimdBackend::Scalar, || packed.forward_batch_at(i, &x)))
        .collect();
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for flip in 0..4000 {
                with_simd_backend(SimdBackend::Scalar, std::thread::yield_now);
                with_fused_gemm(flip % 2 == 0, std::thread::yield_now);
            }
            done.store(true, std::sync::atomic::Ordering::SeqCst);
        });
        let mut served = 0usize;
        while !done.load(std::sync::atomic::Ordering::SeqCst) || served < 50 {
            let i = served % bits.len();
            let y = packed.forward_batch_at(i, &x);
            assert_bits_eq(
                &y,
                &want[i],
                &format!("forward {served} @ {}b", bits.widths()[i]),
            );
            served += 1;
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random linear problems: both backends, 1 vs 3 threads, all equal.
    #[test]
    fn random_linear_parity_both_backends(
        infeat in 1usize..40,
        outfeat in 1usize..24,
        batch in 1usize..8,
        bit_index in 0usize..5,
        q in prop::sample::select(vec![Quantizer::Sbm, Quantizer::Dorefa]),
    ) {
        let bits = BitWidthSet::large_range();
        let i = bit_index % bits.len();
        let mut rng = StdRng::seed_from_u64((infeat * 31 + outfeat * 7 + batch) as u64);
        let layer = QuantLinear::new(&mut rng, "fc", infeat, outfeat);
        let packed = PackedModel::prepack(&layer, &bits, q).unwrap();
        let x = init::uniform(&mut rng, &[batch, infeat], -1.1, 0.9);
        let base = with_simd_backend(SimdBackend::Scalar, || {
            with_threads(1, || packed.forward_batch_at(i, &x))
        });
        let runs = [
            with_simd_backend(SimdBackend::Scalar, || {
                with_threads(3, || packed.forward_batch_at(i, &x))
            }),
            with_threads(1, || packed.forward_batch_at(i, &x)),
            with_threads(3, || packed.forward_batch_at(i, &x)),
        ];
        for (r, y) in runs.iter().enumerate() {
            assert_bits_eq(y, &base, &format!(
                "linear {infeat}x{outfeat} batch {batch} {q:?} @ {}b run {r}",
                bits.widths()[i]
            ));
        }
    }

    /// Random conv problems through the same gauntlet (im2col + colsum
    /// paths, both storage decoders).
    #[test]
    fn random_conv_parity_both_backends(
        cin in 1usize..5,
        cout in 1usize..6,
        hw in 5usize..9,
        bit_index in 0usize..5,
        q in prop::sample::select(vec![Quantizer::Sbm, Quantizer::Dorefa]),
    ) {
        let bits = BitWidthSet::large_range();
        let i = bit_index % bits.len();
        let mut rng = StdRng::seed_from_u64((cin * 91 + cout * 13 + hw) as u64);
        let conv = QuantConv2d::new(&mut rng, "c", cin, cout, 3, 1, 1, 1, true);
        let packed = PackedModel::prepack(&conv, &bits, q).unwrap();
        let x = init::uniform(&mut rng, &[2, cin, hw, hw], -1.0, 1.0);
        let base = with_simd_backend(SimdBackend::Scalar, || {
            with_threads(1, || packed.forward_batch_at(i, &x))
        });
        let runs = [
            with_simd_backend(SimdBackend::Scalar, || {
                with_threads(3, || packed.forward_batch_at(i, &x))
            }),
            with_threads(1, || packed.forward_batch_at(i, &x)),
            with_threads(3, || packed.forward_batch_at(i, &x)),
        ];
        for (r, y) in runs.iter().enumerate() {
            assert_bits_eq(y, &base, &format!(
                "conv {cin}->{cout} {hw}x{hw} {q:?} @ {}b run {r}",
                bits.widths()[i]
            ));
        }
    }
}

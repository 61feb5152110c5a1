//! Bit-identity of the restructured kernels against scalar oracles.
//!
//! The oracles are the per-pixel loops the kernels in [`crate::ops`] replaced
//! (depthwise, batch norm) or the scalar definition of what those loops added
//! and in which order (dense conv: one product per patch entry in ascending
//! `(c, ki, kj)`, zero weights skipped; per-sample `dw` partials folded in
//! ascending sample order). Every comparison is on bits, at one and at three
//! kernel threads.

use crate::{ops, Tensor, Var};
use instantnet_parallel as parallel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn randn(rng: &mut StdRng, dims: &[usize]) -> Tensor {
    let n: usize = dims.iter().product();
    // A sprinkling of exact zeros exercises the skipped-term paths.
    let data = (0..n)
        .map(|_| {
            if rng.gen_range(0..8) == 0 {
                0.0
            } else {
                rng.gen_range(-1.0f32..1.0)
            }
        })
        .collect();
    Tensor::from_vec(dims.to_vec(), data)
}

fn assert_same_bits(what: &str, got: &Tensor, want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (a, b)) in got.data().iter().zip(want).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}[{i}]: {a} vs {b}");
    }
}

/// Runs `f` at one and at three kernel threads. Kernels split work across
/// threads only above a flop threshold, so each suite carries one case big
/// enough to cross it.
fn at_thread_counts(f: impl Fn()) {
    for threads in [1, 3] {
        parallel::with_threads(threads, &f);
    }
}

struct ConvCase {
    n: usize,
    c: usize,
    k: usize,
    h: usize,
    w: usize,
    r: usize,
    stride: usize,
    pad: usize,
    groups: usize,
}

impl ConvCase {
    fn out_hw(&self) -> (usize, usize) {
        (
            (self.h + 2 * self.pad - self.r) / self.stride + 1,
            (self.w + 2 * self.pad - self.r) / self.stride + 1,
        )
    }

    /// Input index of output `(oy, ox)` under tap `(ki, kj)`, if in range.
    fn input_at(&self, oy: usize, ox: usize, ki: usize, kj: usize) -> Option<usize> {
        let iy = (oy * self.stride + ki) as isize - self.pad as isize;
        let ix = (ox * self.stride + kj) as isize - self.pad as isize;
        (iy >= 0 && iy < self.h as isize && ix >= 0 && ix < self.w as isize)
            .then(|| iy as usize * self.w + ix as usize)
    }

    /// Runs `ops::conv2d` forward and backward under the seed gradient `gy`
    /// and checks output, `dx` and `dw` against `want`.
    fn check(&self, x: &Tensor, w: &Tensor, gy: &Tensor, want: &(Vec<f32>, Vec<f32>, Vec<f32>)) {
        let (xv, wv) = (Var::leaf(x.clone(), true), Var::leaf(w.clone(), true));
        let y = ops::conv2d(&xv, &wv, self.stride, self.pad, self.groups);
        let case = |what: &str| {
            let ConvCase {
                r,
                stride,
                pad,
                groups,
                ..
            } = self;
            format!(
                "{what} of {:?} (*) {:?} k{r} s{stride} p{pad} g{groups}",
                x.dims(),
                w.dims()
            )
        };
        assert_same_bits(&case("y"), &y.value(), &want.0);
        y.backward_with(gy.clone());
        assert_same_bits(&case("dx"), &xv.grad().expect("dx"), &want.1);
        assert_same_bits(&case("dw"), &wv.grad().expect("dw"), &want.2);
    }
}

/// The per-pixel depthwise loops `ops::conv2d` ran before the rewrite.
fn depthwise_oracle(
    t: &ConvCase,
    x: &[f32],
    w: &[f32],
    gy: &[f32],
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let (oh, ow) = t.out_hw();
    let (c, hw, rs) = (t.c, t.h * t.w, t.r * t.r);
    let mut y = vec![0.0f32; t.n * c * oh * ow];
    let mut dx = vec![0.0f32; t.n * c * hw];
    let mut dw = vec![0.0f32; c * rs];
    for i in 0..t.n {
        let mut dw_i = vec![0.0f32; c * rs];
        for ch in 0..c {
            let plane = &x[(i * c + ch) * hw..(i * c + ch + 1) * hw];
            let wrow = &w[ch * rs..(ch + 1) * rs];
            for oy in 0..oh {
                for ox in 0..ow {
                    let o = ((i * c + ch) * oh + oy) * ow + ox;
                    let mut acc = 0.0f32;
                    for ki in 0..t.r {
                        for kj in 0..t.r {
                            if let Some(xi) = t.input_at(oy, ox, ki, kj) {
                                acc += wrow[ki * t.r + kj] * plane[xi];
                                dx[(i * c + ch) * hw + xi] += gy[o] * wrow[ki * t.r + kj];
                                dw_i[ch * rs + ki * t.r + kj] += gy[o] * plane[xi];
                            }
                        }
                    }
                    y[o] = acc;
                }
            }
        }
        for (o, &v) in dw.iter_mut().zip(&dw_i) {
            *o += v;
        }
    }
    (y, dx, dw)
}

/// Dense grouped conv by its scalar definition, in the summation order the
/// per-sample `im2col` + GEMM path had.
fn dense_oracle(t: &ConvCase, x: &[f32], w: &[f32], gy: &[f32]) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let (oh, ow) = t.out_hw();
    let (cg, kg, p, hw) = (t.c / t.groups, t.k / t.groups, oh * ow, t.h * t.w);
    let q = cg * t.r * t.r;
    // patch(i, gi, pq, j): the im2col entry, 0.0 in the padding.
    let patch = |i: usize, gi: usize, pq: usize, j: usize| -> f32 {
        let (cl, ki, kj) = (pq / (t.r * t.r), pq / t.r % t.r, pq % t.r);
        t.input_at(j / ow, j % ow, ki, kj)
            .map_or(0.0, |xi| x[(i * t.c + gi * cg + cl) * hw + xi])
    };
    let mut y = vec![0.0f32; t.n * t.k * p];
    let mut dx = vec![0.0f32; t.n * t.c * hw];
    let mut dw = vec![0.0f32; t.k * q];
    for i in 0..t.n {
        for gi in 0..t.groups {
            for kk in 0..kg {
                let k = gi * kg + kk;
                for j in 0..p {
                    let mut acc = 0.0f32;
                    for pq in 0..q {
                        let a = w[k * q + pq];
                        if a != 0.0 {
                            acc += a * patch(i, gi, pq, j);
                        }
                    }
                    y[(i * t.k + k) * p + j] = acc;
                }
            }
            // dcols = W^T . dy (filters ascending, zero weights skipped),
            // folded onto the input in (ki, kj, oy, ox) order per channel.
            let mut dcols = vec![0.0f32; q * p];
            for pq in 0..q {
                for kk in 0..kg {
                    let a = w[(gi * kg + kk) * q + pq];
                    if a != 0.0 {
                        for j in 0..p {
                            dcols[pq * p + j] += a * gy[(i * t.k + gi * kg + kk) * p + j];
                        }
                    }
                }
            }
            for pq in 0..q {
                let (cl, ki, kj) = (pq / (t.r * t.r), pq / t.r % t.r, pq % t.r);
                for j in 0..p {
                    if let Some(xi) = t.input_at(j / ow, j % ow, ki, kj) {
                        dx[(i * t.c + gi * cg + cl) * hw + xi] += dcols[pq * p + j];
                    }
                }
            }
            // One partial per sample (positions ascending, zero dy skipped),
            // folded into dw in ascending sample order.
            for kk in 0..kg {
                let k = gi * kg + kk;
                for pq in 0..q {
                    let mut partial = 0.0f32;
                    for j in 0..p {
                        let a = gy[(i * t.k + k) * p + j];
                        if a != 0.0 {
                            partial += a * patch(i, gi, pq, j);
                        }
                    }
                    dw[k * q + pq] += partial;
                }
            }
        }
    }
    (y, dx, dw)
}

#[test]
fn depthwise_matches_the_per_pixel_loops_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0xD3);
    // The generate cycle's planes (3×3 and 6×6, 48 channels) at one
    // sample, one full and one short-plus-full sample group, and two full
    // groups: both lane orientations, and at three threads blocks of
    // either orientation inside one call.
    let cycle = [1usize, 8, 9, 16]
        .into_iter()
        .flat_map(|n| [(n, 48, 3, 3), (n, 48, 6, 6)]);
    // 9 is wider than one vector accumulator of the dw pass.
    for r in [3usize, 5, 9] {
        for stride in [1usize, 2] {
            for pad in [0usize, 1, 2] {
                // The first two share a geometry and batch: a plan for one
                // must not serve the other's channel count.
                let shapes = [(3, 5, 7, 6), (3, 2, 7, 6), (5, 2, 5, 9), (4, 32, 16, 16)];
                for (n, c, h, w) in shapes.into_iter().chain(cycle.clone().filter(|_| r < 9)) {
                    if h.min(w) + 2 * pad < r {
                        continue;
                    }
                    let t = ConvCase {
                        n,
                        c,
                        k: c,
                        h,
                        w,
                        r,
                        stride,
                        pad,
                        groups: c,
                    };
                    let (oh, ow) = t.out_hw();
                    let x = randn(&mut rng, &[n, c, h, w]);
                    let wt = randn(&mut rng, &[c, 1, r, r]);
                    let gy = randn(&mut rng, &[n, c, oh, ow]);
                    let want = depthwise_oracle(&t, x.data(), wt.data(), gy.data());
                    at_thread_counts(|| t.check(&x, &wt, &gy, &want));
                }
            }
        }
    }
}

#[test]
fn depthwise_matches_the_per_pixel_loops_on_non_finite_values() {
    let mut rng = StdRng::seed_from_u64(0xD4);
    // One ±inf or NaN at a time, in `w`, `x` or `dy`, at a corner whose
    // padding taps (forward, `dw`) or out-of-plane outputs (`dx`) meet it:
    // column lanes (2 and 3 samples) and sample lanes (9 and 16, a short
    // group and full ones), the last big enough to run on three threads.
    // One value per tensor, so no element meets two NaN payloads.
    let shapes = [
        (2, 2, 6, 3, 1),
        (3, 5, 7, 5, 2),
        (9, 3, 6, 3, 1),
        (16, 48, 3, 5, 1),
    ];
    for (n, c, hw, r, stride) in shapes {
        for pad in [r / 2, 1] {
            let t = ConvCase {
                n,
                c,
                k: c,
                h: hw,
                w: hw,
                r,
                stride,
                pad,
                groups: c,
            };
            let (oh, ow) = t.out_hw();
            for (target, bad) in
                (0..3).flat_map(|t| [f32::INFINITY, f32::NEG_INFINITY, f32::NAN].map(|v| (t, v)))
            {
                let mut x = randn(&mut rng, &[n, c, hw, hw]);
                let mut wt = randn(&mut rng, &[c, 1, r, r]);
                let mut gy = randn(&mut rng, &[n, c, oh, ow]);
                // The last tap, or the first sample's last pixel or output
                // of its last channel.
                match target {
                    0 => wt.data_mut()[c * r * r - 1] = bad,
                    1 => x.data_mut()[c * hw * hw - 1] = bad,
                    _ => gy.data_mut()[c * oh * ow - 1] = bad,
                }
                let want = depthwise_oracle(&t, x.data(), wt.data(), gy.data());
                at_thread_counts(|| t.check(&x, &wt, &gy, &want));
            }
        }
    }
}

#[test]
fn dense_grouped_and_pointwise_conv_match_the_scalar_definition_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0xC0);
    // (n, c, k, h, w, r, stride, pad, groups): pointwise, grouped, strided,
    // padded, and one big enough to cross the parallel threshold.
    let cases = [
        (3, 8, 6, 6, 6, 1, 1, 0, 1),
        (5, 6, 4, 3, 3, 1, 1, 0, 2),
        (2, 3, 8, 6, 5, 3, 1, 1, 1),
        (3, 4, 6, 7, 7, 3, 2, 1, 2),
        (2, 2, 3, 5, 6, 5, 1, 2, 1),
        (2, 1, 2, 4, 4, 1, 2, 0, 1),
        (4, 16, 24, 12, 12, 3, 1, 1, 1),
    ];
    for (n, c, k, h, w, r, stride, pad, groups) in cases {
        let t = ConvCase {
            n,
            c,
            k,
            h,
            w,
            r,
            stride,
            pad,
            groups,
        };
        let (oh, ow) = t.out_hw();
        let x = randn(&mut rng, &[n, c, h, w]);
        let wt = randn(&mut rng, &[k, c / groups, r, r]);
        let gy = randn(&mut rng, &[n, k, oh, ow]);
        let want = dense_oracle(&t, x.data(), wt.data(), gy.data());
        at_thread_counts(|| t.check(&x, &wt, &gy, &want));
    }
}

/// `lhs · rhs` by the indexed triple loop, terms `p` ascending from `+0`,
/// a term whose `lhs` value is zero skipped.
fn matmul_oracle(lhs: &[f32], rhs: &[f32], (m, k, n): (usize, usize, usize)) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for r in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                let a = lhs[r * k + p];
                if a != 0.0 {
                    acc += a * rhs[p * n + j];
                }
            }
            out[r * n + j] = acc;
        }
    }
    out
}

#[test]
fn matmul_matches_the_skipping_triple_loop_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0x3A);
    let sizes = [1usize, 3, 4, 5, 8, 9, 36];
    // k = 1 puts the widest rows on the row loop, 9 tiles them all; the
    // last case crosses the parallel threshold.
    let shapes = sizes
        .iter()
        .flat_map(|&m| sizes.iter().flat_map(move |&n| [(m, 1, n), (m, 9, n)]))
        .chain([(48, 36, 8), (8, 48, 576), (64, 64, 64)]);
    for (m, k, n) in shapes {
        let mut lhs = randn(&mut rng, &[m, k]);
        let mut rhs = randn(&mut rng, &[k, n]);
        // Non-finite rhs values, at most one per column (so no element meets
        // two NaNs, whose payloads the order of an add would pick between):
        // under a zero lhs value the skip keeps them out, elsewhere they
        // reach the result.
        for j in (0..n).step_by(2) {
            let p = rng.gen_range(0..k);
            rhs.data_mut()[p * n + j] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][j / 2 % 3];
            for r in (0..m).filter(|r| (r + j) % 3 != 0) {
                lhs.data_mut()[r * k + p] = 0.0;
            }
        }
        let want = matmul_oracle(lhs.data(), rhs.data(), (m, k, n));
        at_thread_counts(|| assert_same_bits(&format!("{m}x{k}x{n}"), &lhs.matmul(&rhs), &want));
    }
}

/// The indexed batch-norm loops `ops::batch_norm2d` ran before the rewrite:
/// `(y, mean, var, dx, dgamma, dbeta)`.
#[allow(clippy::type_complexity)]
fn batch_norm_oracle(
    x: &Tensor,
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    stats: Option<(&[f32], &[f32])>,
    gy: &[f32],
) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
    let (n, c, hw) = (x.dims()[0], x.dims()[1], x.dims()[2] * x.dims()[3]);
    let (xd, m) = (x.data(), (n * hw) as f32);
    let (mu, va) = match stats {
        Some((mu, va)) => (mu.to_vec(), va.to_vec()),
        None => {
            let (mut mu, mut va) = (vec![0.0f32; c], vec![0.0f32; c]);
            for i in 0..n {
                for ch in 0..c {
                    for s in 0..hw {
                        mu[ch] += xd[(i * c + ch) * hw + s];
                    }
                }
            }
            mu.iter_mut().for_each(|v| *v /= m);
            for i in 0..n {
                for ch in 0..c {
                    for s in 0..hw {
                        let d = xd[(i * c + ch) * hw + s] - mu[ch];
                        va[ch] += d * d;
                    }
                }
            }
            va.iter_mut().for_each(|v| *v /= m);
            (mu, va)
        }
    };
    let invstd: Vec<f32> = va.iter().map(|&v| 1.0 / (v + eps).sqrt()).collect();
    let (mut xhat, mut y) = (vec![0.0f32; xd.len()], vec![0.0f32; xd.len()]);
    let (mut dgamma, mut dbeta) = (vec![0.0f32; c], vec![0.0f32; c]);
    for i in 0..n {
        for ch in 0..c {
            for s in 0..hw {
                let at = (i * c + ch) * hw + s;
                xhat[at] = (xd[at] - mu[ch]) * invstd[ch];
                y[at] = gamma[ch] * xhat[at] + beta[ch];
                dgamma[ch] += gy[at] * xhat[at];
                dbeta[ch] += gy[at];
            }
        }
    }
    let mut dx = vec![0.0f32; xd.len()];
    for i in 0..n {
        for ch in 0..c {
            let gsc = gamma[ch] * invstd[ch];
            for s in 0..hw {
                let at = (i * c + ch) * hw + s;
                dx[at] = if stats.is_none() {
                    gsc / m * (m * gy[at] - dbeta[ch] - xhat[at] * dgamma[ch])
                } else {
                    gsc * gy[at]
                };
            }
        }
    }
    (y, mu, va, dx, dgamma, dbeta)
}

#[test]
fn batch_norm_matches_the_indexed_loops_bit_for_bit_in_train_and_eval_mode() {
    let mut rng = StdRng::seed_from_u64(0xB7);
    // Short and odd planes and channel counts, then the generate cycle's
    // geometry, and one channel count that is not a whole number of lane
    // blocks (16 channels) or of vectors (4).
    let dims = [[3usize, 5, 3, 3], [4, 8, 6, 6], [2, 1, 2, 5], [5, 11, 1, 1]];
    let cycle = [
        [16, 48, 6, 6],
        [16, 96, 3, 3],
        [8, 24, 6, 6],
        [16, 20, 3, 3],
        [2, 23, 3, 5],
    ];
    for dims in dims.into_iter().chain(cycle) {
        let c = dims[1];
        let x = randn(&mut rng, &dims);
        let gy = randn(&mut rng, &dims);
        let (gamma, beta) = (randn(&mut rng, &[c]), randn(&mut rng, &[c]));
        let running = (
            randn(&mut rng, &[c]),
            randn(&mut rng, &[c]).map(|v| v.abs() + 0.1),
        );
        for stats in [None, Some(running)] {
            let want = batch_norm_oracle(
                &x,
                gamma.data(),
                beta.data(),
                1e-5,
                stats.as_ref().map(|(mu, va)| (mu.data(), va.data())),
                gy.data(),
            );
            at_thread_counts(|| {
                let xv = Var::leaf(x.clone(), true);
                let (gv, bv) = (
                    Var::leaf(gamma.clone(), true),
                    Var::leaf(beta.clone(), true),
                );
                let bn = ops::batch_norm2d(&xv, &gv, &bv, 1e-5, stats.clone());
                assert_same_bits("y", &bn.out.value(), &want.0);
                assert_same_bits("mean", &bn.mean, &want.1);
                assert_same_bits("var", &bn.var, &want.2);
                bn.out.backward_with(gy.clone());
                assert_same_bits("dx", &xv.grad().expect("dx"), &want.3);
                assert_same_bits("dgamma", &gv.grad().expect("dgamma"), &want.4);
                assert_same_bits("dbeta", &bv.grad().expect("dbeta"), &want.5);
            });
        }
    }
}

#[test]
fn avg_pool_matches_the_window_loops_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0xA9);
    // Overlapping windows (kernel > stride) give a dx element several
    // contributions, so their order shows.
    for (n, c, h, w, kernel, stride) in [(2, 3, 6, 6, 2, 2), (3, 1, 7, 5, 3, 2), (2, 4, 6, 8, 4, 2)]
    {
        let (oh, ow) = ((h - kernel) / stride + 1, (w - kernel) / stride + 1);
        let x = randn(&mut rng, &[n, c, h, w]);
        let gy = randn(&mut rng, &[n, c, oh, ow]);
        let inv = 1.0 / (kernel * kernel) as f32;
        let (mut y, mut dx) = (vec![0.0f32; gy.len()], vec![0.0f32; x.len()]);
        for pl in 0..n * c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let o = (pl * oh + oy) * ow + ox;
                    let mut acc = 0.0f32;
                    for ky in 0..kernel {
                        for kx in 0..kernel {
                            let at = (pl * h + oy * stride + ky) * w + ox * stride + kx;
                            acc += x.data()[at];
                            dx[at] += gy.data()[o] * inv;
                        }
                    }
                    y[o] = acc * inv;
                }
            }
        }
        at_thread_counts(|| {
            let xv = Var::leaf(x.clone(), true);
            let out = ops::avg_pool2d(&xv, kernel, stride);
            assert_same_bits("y", &out.value(), &y);
            out.backward_with(gy.clone());
            assert_same_bits("dx", &xv.grad().expect("dx"), &dx);
        });
    }
}

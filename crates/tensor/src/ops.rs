//! Differentiable operators.
//!
//! Every function here performs an eager forward computation and registers a
//! closure computing the exact analytic vector-Jacobian product for the
//! backward pass. Operators borrow their inputs from the graph and closures
//! own the incoming gradient, so nothing is copied that is not also changed.
//! Dense convolution is batch-level work: one patch matrix, one product per
//! group and one layout swap per pass; depthwise convolution runs one flat
//! axpy per tap over zero-padded planes, batch norm over plane slices with
//! several channels' sums in flight. What each kernel sums, and in which
//! order, is fixed per output element (DESIGN.md §6b), so values and
//! gradients are bit-identical at any thread count.

use crate::autograd::Var;
use crate::tensor::{
    axpy, fold_plane, im2col_batch, matmul_into, round_half_away, transpose_into, ConvGeom, Tensor,
    PAR_FLOP_THRESHOLD,
};
use instantnet_parallel as parallel;

// ---------------------------------------------------------------------------
// Elementwise arithmetic
// ---------------------------------------------------------------------------

/// Elementwise `a + b` (shapes must match).
pub fn add(a: &Var, b: &Var) -> Var {
    let out = a.value_ref().add(&b.value_ref());
    Var::from_op(
        out,
        vec![a.clone(), b.clone()],
        Box::new(|g, parents| {
            if parents[0].requires_grad() {
                parents[0].accumulate_grad(g.clone());
            }
            parents[1].accumulate_grad(g);
        }),
    )
}

/// Elementwise `a - b` (shapes must match).
pub fn sub(a: &Var, b: &Var) -> Var {
    let out = a.value_ref().sub(&b.value_ref());
    Var::from_op(
        out,
        vec![a.clone(), b.clone()],
        Box::new(|g, parents| {
            let neg = g.scale(-1.0);
            parents[0].accumulate_grad(g);
            parents[1].accumulate_grad(neg);
        }),
    )
}

/// Elementwise `a * b` (Hadamard product, shapes must match).
pub fn mul(a: &Var, b: &Var) -> Var {
    let out = a.value_ref().mul(&b.value_ref());
    Var::from_op(
        out,
        vec![a.clone(), b.clone()],
        Box::new(|g, parents| {
            let da = g.mul(&parents[1].value_ref());
            let db = g.mul(&parents[0].value_ref());
            parents[0].accumulate_grad(da);
            parents[1].accumulate_grad(db);
        }),
    )
}

/// Scales every element by the constant `s`.
pub fn scale(x: &Var, s: f32) -> Var {
    let out = x.value_ref().scale(s);
    Var::from_op(
        out,
        vec![x.clone()],
        Box::new(move |g, parents| parents[0].accumulate_grad(g.scale(s))),
    )
}

/// Adds the constant `c` to every element.
pub fn add_scalar(x: &Var, c: f32) -> Var {
    let out = x.value_ref().map(|v| v + c);
    Var::from_op(
        out,
        vec![x.clone()],
        Box::new(|g, parents| parents[0].accumulate_grad(g)),
    )
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

/// Sum of all elements, as a `[1]` tensor.
pub fn sum(x: &Var) -> Var {
    let out = Tensor::scalar(x.value_ref().sum());
    Var::from_op(
        out,
        vec![x.clone()],
        Box::new(|g, parents| {
            let dims = parents[0].dims();
            parents[0].accumulate_grad(Tensor::full(&dims, g.item()));
        }),
    )
}

/// Mean of all elements, as a `[1]` tensor.
pub fn mean(x: &Var) -> Var {
    let n = x.value_ref().len() as f32;
    scale(&sum(x), 1.0 / n)
}

// ---------------------------------------------------------------------------
// Linear algebra
// ---------------------------------------------------------------------------

/// Matrix product `[m,k] x [k,n] -> [m,n]`.
pub fn matmul(a: &Var, b: &Var) -> Var {
    let out = a.value_ref().matmul(&b.value_ref());
    Var::from_op(
        out,
        vec![a.clone(), b.clone()],
        Box::new(|g, parents| {
            // dA = g . B^T ; dB = A^T . g
            let da = g.matmul(&parents[1].value_ref().transpose2d());
            let db = parents[0].value_ref().transpose2d().matmul(&g);
            parents[0].accumulate_grad(da);
            parents[1].accumulate_grad(db);
        }),
    )
}

/// Fully-connected layer: `x[n, in] . w[out, in]^T (+ b[out])`.
pub fn linear(x: &Var, w: &Var, b: Option<&Var>) -> Var {
    let wt = transpose2d(w);
    let y = matmul(x, &wt);
    match b {
        Some(bias) => bias_add(&y, bias),
        None => y,
    }
}

/// Matrix transpose as a graph op.
pub fn transpose2d(x: &Var) -> Var {
    let out = x.value_ref().transpose2d();
    Var::from_op(
        out,
        vec![x.clone()],
        Box::new(|g, parents| parents[0].accumulate_grad(g.transpose2d())),
    )
}

/// Broadcast-adds a `[C]` bias over the channel axis of `[N,C]` or
/// `[N,C,H,W]` input.
///
/// # Panics
///
/// Panics if the input rank is not 2 or 4, or the bias length differs from
/// the channel extent.
pub fn bias_add(x: &Var, b: &Var) -> Var {
    let mut out = x.value();
    let c = match out.dims().len() {
        2 | 4 => out.dims()[1],
        r => panic!("bias_add expects rank 2 or 4 input, got rank {r}"),
    };
    let bv = b.value_ref();
    assert_eq!(bv.len(), c, "bias length must equal channel count");
    let spatial = out.len() / (out.dims()[0] * c);
    for sample in out.data_mut().chunks_exact_mut(c * spatial) {
        for (plane, &bch) in sample.chunks_exact_mut(spatial).zip(bv.data()) {
            for v in plane {
                *v += bch;
            }
        }
    }
    Var::from_op(
        out,
        vec![x.clone(), b.clone()],
        Box::new(move |g, parents| {
            let db = channel_sums(g.len() / (c * spatial), c, spatial, |_, at| g.data()[at]);
            parents[0].accumulate_grad(g);
            parents[1].accumulate_grad(Tensor::from_vec(vec![c], db));
        }),
    )
}

// ---------------------------------------------------------------------------
// Convolution
// ---------------------------------------------------------------------------

/// Grouped 2-d convolution.
///
/// * `x`: `[N, C, H, W]`
/// * `w`: `[K, C/groups, R, S]`
/// * zero padding `pad` on both spatial sides, square `stride`.
///
/// Depthwise convolution is `groups == C == K`.
///
/// # Panics
///
/// Panics if shapes are inconsistent with `groups`, or the kernel does not
/// fit the padded input.
pub fn conv2d(x: &Var, w: &Var, stride: usize, pad: usize, groups: usize) -> Var {
    let (xv, wv) = (x.value_ref(), w.value_ref());
    assert_eq!(xv.dims().len(), 4, "conv2d input must be [N,C,H,W]");
    assert_eq!(wv.dims().len(), 4, "conv2d weight must be [K,C/g,R,S]");
    let (n, c, h, wdt) = (xv.dims()[0], xv.dims()[1], xv.dims()[2], xv.dims()[3]);
    let (k, cg, r, s) = (wv.dims()[0], wv.dims()[1], wv.dims()[2], wv.dims()[3]);
    assert_eq!(
        c % groups,
        0,
        "channels {c} not divisible by groups {groups}"
    );
    assert_eq!(
        k % groups,
        0,
        "filters {k} not divisible by groups {groups}"
    );
    assert_eq!(cg, c / groups, "weight C/g mismatch");
    assert!(
        h + 2 * pad >= r && wdt + 2 * pad >= s,
        "kernel {r}x{s} does not fit padded input {h}x{wdt} (pad {pad})"
    );
    let geom = ConvGeom::new(h, wdt, r, s, stride, pad);
    let out_dims = [n, k, geom.oh, geom.ow];
    if groups > 1 && groups == c && groups == k {
        conv_op(Depthwise::new(c, geom), out_dims, x, w)
    } else {
        let dense = DenseConv { c, k, groups, geom };
        conv_op(dense, out_dims, x, w)
    }
}

/// A convolution over one contiguous block of `nb` samples, run serially.
trait ConvKernel: Sync + 'static {
    /// The block's output `[nb, K, OH, OW]` and whatever the backward pass
    /// wants kept.
    fn forward(&self, nb: usize, x: &[f32], w: &[f32]) -> (Vec<f32>, Option<Vec<f32>>);

    /// The block's `dx` and one `dw`-shaped partial per sample, each summed
    /// from zero over that sample's positions.
    fn backward(
        &self,
        nb: usize,
        g: &[f32],
        x: &[f32],
        w: &[f32],
        saved: Option<&[f32]>,
    ) -> (Vec<f32>, Vec<f32>);
}

/// Runs `kernel` as a graph op. Each pass is one parallel region over blocks
/// of consecutive samples — a single block when the work is small or the
/// budget is one thread — and `dw` is the per-sample partials folded in
/// ascending sample order afterwards, so no sum depends on the thread count.
fn conv_op(kernel: impl ConvKernel, out_dims: [usize; 4], x: &Var, w: &Var) -> Var {
    let (xv, wv) = (x.value_ref(), w.value_ref());
    let (xd, wd) = (xv.data(), wv.data());
    let (n, x_len, w_len) = (out_dims[0], xd.len() / out_dims[0], wd.len());
    let flops = 2 * out_dims.iter().product::<usize>() * w_len / out_dims[1];
    let (per_block, blocks) = parallel::gate(flops >= PAR_FLOP_THRESHOLD, || {
        let per_block = n.div_ceil(parallel::max_threads());
        let blocks = parallel::parallel_map_indexed(n.div_ceil(per_block), |b| {
            let samples = b * per_block..n.min((b + 1) * per_block);
            let xb = &xd[samples.start * x_len..samples.end * x_len];
            kernel.forward(samples.len(), xb, wd)
        });
        (per_block, blocks)
    });
    let (out, saved): (Vec<_>, Vec<_>) = blocks.into_iter().unzip();
    Var::from_op(
        Tensor::from_vec(out_dims.to_vec(), join_blocks(out)),
        vec![x.clone(), w.clone()],
        Box::new(move |g, parents| {
            let (xv, wv) = (parents[0].value_ref(), parents[1].value_ref());
            let (gd, xd, wd, g_len) = (g.data(), xv.data(), wv.data(), g.len() / n);
            let blocks = parallel::gate(2 * flops >= PAR_FLOP_THRESHOLD, || {
                parallel::parallel_map(&saved, |b, saved_b| {
                    let (i0, i1) = (b * per_block, n.min((b + 1) * per_block));
                    let (gb, xb) = (&gd[i0 * g_len..i1 * g_len], &xd[i0 * x_len..i1 * x_len]);
                    kernel.backward(i1 - i0, gb, xb, wd, saved_b.as_deref())
                })
            });
            let (dx, partials): (Vec<_>, Vec<_>) = blocks.into_iter().unzip();
            let mut dw = vec![0.0f32; w_len];
            for partial in partials.iter().flat_map(|p| p.chunks_exact(w_len)) {
                for (d, &v) in dw.iter_mut().zip(partial) {
                    *d += v;
                }
            }
            parents[0].accumulate_grad(Tensor::from_vec(xv.dims().to_vec(), join_blocks(dx)));
            parents[1].accumulate_grad(Tensor::from_vec(wv.dims().to_vec(), dw));
        }),
    )
}

/// The blocks' results as one buffer; the usual single block is moved, not
/// copied.
fn join_blocks(mut blocks: Vec<Vec<f32>>) -> Vec<f32> {
    match blocks.len() {
        1 => blocks.pop().expect("one block"),
        _ => blocks.concat(),
    }
}

/// `[a, b, p] -> [b, a, p]`: swaps the two leading axes, moving whole
/// `p`-long rows. Conv tensors are sample-major (`[N, K, OH*OW]`), the
/// products below want channel-major (`[K, N*OH*OW]`) operands and results.
fn swap_leading(src: &[f32], a: usize, b: usize, p: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; src.len()];
    for (ai, slab) in src.chunks_exact(b * p).enumerate() {
        for (bi, row) in slab.chunks_exact(p).enumerate() {
            out[(bi * a + ai) * p..(bi * a + ai + 1) * p].copy_from_slice(row);
        }
    }
    out
}

/// Dense (non-depthwise) grouped convolution as block-level matrix work.
///
/// With `q = C/g·R·S` and `P = OH·OW`, a block's patch matrix `cols` is
/// `[C·R·S, nb·P]`: group `gi` owns rows `gi·q..`, sample `i` columns `i·P..`.
struct DenseConv {
    c: usize,
    k: usize,
    groups: usize,
    geom: ConvGeom,
}

impl DenseConv {
    /// `(q, P, K/g)`.
    fn sizes(&self) -> (usize, usize, usize) {
        let g = &self.geom;
        (
            self.c / self.groups * g.kh * g.kw,
            g.oh * g.ow,
            self.k / self.groups,
        )
    }

    /// A 1×1/stride-1/pad-0 conv's patch matrix is `x` itself, channel-major:
    /// no `im2col`, and nothing worth keeping for the backward pass.
    fn pointwise(&self) -> bool {
        let g = &self.geom;
        g.kh == 1 && g.kw == 1 && g.stride == 1 && g.pad == 0
    }

    /// `[rows_g, inner] · [inner, l]` per group into the matching rows of a
    /// `[groups·rows_g, l]` result; `lhs` is `[groups·rows_g, inner]`, `rhs`
    /// `[groups·inner, l]`.
    fn grouped_product(
        &self,
        lhs: &[f32],
        rhs: &[f32],
        (rows_g, inner, l): (usize, usize, usize),
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; self.groups * rows_g * l];
        for (gi, out_g) in out.chunks_exact_mut(rows_g * l).enumerate() {
            let lhs_g = &lhs[gi * rows_g * inner..(gi + 1) * rows_g * inner];
            matmul_into(lhs_g, &rhs[gi * inner * l..], l, out_g, inner, l);
        }
        out
    }
}

impl ConvKernel for DenseConv {
    /// Per element the `q` products `w·patch` in ascending `(c, ki, kj)`.
    fn forward(&self, nb: usize, x: &[f32], w: &[f32]) -> (Vec<f32>, Option<Vec<f32>>) {
        let (q, p, kg) = self.sizes();
        let cols = if self.pointwise() {
            swap_leading(x, nb, self.c, p)
        } else {
            im2col_batch(x, nb, self.c, &self.geom)
        };
        let y = self.grouped_product(w, &cols, (kg, q, nb * p));
        let keep = (!self.pointwise()).then_some(cols);
        (swap_leading(&y, self.k, nb, p), keep)
    }

    /// `dx`: per group `dcols = Wᵀ·dy` (filters ascending per element), then
    /// folded back onto the input planes. Partials: `dy_i · colsᵀ_i` per
    /// sample (positions ascending per element).
    fn backward(
        &self,
        nb: usize,
        g: &[f32],
        x: &[f32],
        w: &[f32],
        cols: Option<&[f32]>,
    ) -> (Vec<f32>, Vec<f32>) {
        let (c, k, groups, geom) = (self.c, self.k, self.groups, &self.geom);
        let (q, p, kg) = self.sizes();
        let (l, crs, plane, taps) = (nb * p, groups * q, geom.h * geom.w, geom.kh * geom.kw);
        let mut wt = vec![0.0f32; k * q];
        for (wg, wtg) in w.chunks_exact(kg * q).zip(wt.chunks_exact_mut(kg * q)) {
            transpose_into(wg, q, kg, q, wtg);
        }
        let dcols = self.grouped_product(&wt, &swap_leading(g, nb, k, p), (q, kg, l));
        let dx = if self.pointwise() {
            swap_leading(&dcols, c, nb, p)
        } else {
            let mut dx = vec![0.0f32; nb * c * plane];
            for (ci, dxp) in dx.chunks_exact_mut(plane).enumerate() {
                fold_plane(&dcols[ci % c * taps * l + ci / c * p..], l, dxp, geom);
            }
            dx
        };
        // colsᵀ `[l, C·R·S]`, one sample's `[C·R·S, P]` block at a time: one
        // patch per row, so the partial products stream it with unit stride.
        // A pointwise conv's block is the sample of `x` itself.
        let (src, ld, step) = match cols {
            Some(cols) => (cols, l, p),
            None => (x, p, c * p),
        };
        let mut cols_t = vec![0.0f32; l * crs];
        for (i, ti) in cols_t.chunks_exact_mut(p * crs).enumerate() {
            transpose_into(&src[i * step..], ld, crs, p, ti);
        }
        let mut partials = vec![0.0f32; nb * k * q];
        for (row, part) in partials.chunks_exact_mut(kg * q).enumerate() {
            let (i, gi) = (row / groups, row % groups);
            let dy = &g[row * kg * p..(row + 1) * kg * p];
            matmul_into(dy, &cols_t[i * p * crs + gi * q..], crs, part, p, q);
        }
        (dx, partials)
    }
}

/// Widest vector accumulator of the depthwise `dw` pass (one per kernel row,
/// or per [`DW_LANES`] columns of a wider kernel).
const DW_LANES: usize = 8;
/// Samples whose `dw` chains run side by side, to hide the add latency of
/// each one's strictly sequential sum.
const DW_SAMPLES: usize = 4;

/// Depthwise convolution (`groups == C == K`) on zero-padded planes.
///
/// Every filter reads exactly one input plane. Each plane is embedded in a
/// zeroed `hp x wp` frame and outputs live in rows of the same pitch `wp`,
/// so output `j = oy·wp + ox` reads input `stride·j + offs[t]` for tap `t`
/// at *every* `j` of the plane: a whole plane is one flat axpy per tap, with
/// no row or border handling (columns `ox >= ow` of a wide row are scratch
/// in the forward pass and zero in the backward pass). Padding taps then
/// contribute `w·0 = ±0`, which leaves a sum that started from `+0`
/// unchanged, so every element still equals its in-range taps added in the
/// documented order.
struct Depthwise {
    c: usize,
    geom: ConvGeom,
    wp: usize,
    /// Values in a padded input plane; the slack lets the `dw` pass read a
    /// full vector at the last tap.
    pad_len: usize,
    /// Values in a wide output plane.
    wide_len: usize,
    /// Flat outputs per plane: `(oh - 1)·wp + ow`.
    span: usize,
    /// `offs[ki·kw + kj] = ki·wp + kj`, ascending.
    offs: Vec<usize>,
}

/// Embeds every dense `rows x cols` plane of `src` in a zeroed frame of
/// `frame_len` values and row pitch `pitch` with its origin at `(r0, c0)`
/// — or, with `embed` false, crops that window back out of every frame.
fn reframe(
    src: &[f32],
    (rows, cols): (usize, usize),
    (frame_len, pitch): (usize, usize),
    (r0, c0): (usize, usize),
    embed: bool,
) -> Vec<f32> {
    let (from_len, to_len) = match embed {
        true => (rows * cols, frame_len),
        false => (frame_len, rows * cols),
    };
    let mut out = vec![0.0f32; src.len() / from_len * to_len];
    for (sp, dp) in src.chunks_exact(from_len).zip(out.chunks_exact_mut(to_len)) {
        for r in 0..rows {
            let (dense, framed) = (r * cols, (r0 + r) * pitch + c0);
            match embed {
                true => dp[framed..framed + cols].copy_from_slice(&sp[dense..dense + cols]),
                false => dp[dense..dense + cols].copy_from_slice(&sp[framed..framed + cols]),
            }
        }
    }
    out
}

impl Depthwise {
    fn new(c: usize, geom: ConvGeom) -> Self {
        let (hp, wp) = (geom.h + 2 * geom.pad, geom.w + 2 * geom.pad);
        Depthwise {
            c,
            wp,
            pad_len: hp * wp + DW_LANES,
            wide_len: geom.oh * wp,
            span: (geom.oh - 1) * wp + geom.ow,
            offs: (0..geom.kh)
                .flat_map(|ki| (0..geom.kw).map(move |kj| ki * wp + kj))
                .collect(),
            geom,
        }
    }

    fn pad_input(&self, x: &[f32]) -> Vec<f32> {
        let (g, origin) = (&self.geom, (self.geom.pad, self.geom.pad));
        reframe(x, (g.h, g.w), (self.pad_len, self.wp), origin, true)
    }

    /// Per-sample `dw` partials `[nb, C·R·S]` from wide gradient planes and
    /// padded input planes: one `LANES`-wide accumulator per kernel row (lane
    /// `kj` is tap `(ki, kj)`; lanes past `kw` are scratch, a wider row takes
    /// several) runs over a plane's flat positions in ascending order,
    /// [`DW_SAMPLES`] samples side by side.
    fn weight_grads<const LANES: usize>(&self, nb: usize, gwide: &[f32], xpad: &[f32]) -> Vec<f32> {
        let (g, c, taps) = (&self.geom, self.c, self.offs.len());
        let mut out = vec![0.0f32; nb * c * taps];
        for ch in 0..c {
            for i0 in (0..nb).step_by(DW_SAMPLES) {
                // A short last group repeats its final sample: the same
                // sums again, stored to the same place.
                let planes: [usize; DW_SAMPLES] =
                    std::array::from_fn(|b| (i0 + b).min(nb - 1) * c + ch);
                let gs = planes.map(|pl| &gwide[pl * self.wide_len..][..self.span]);
                for (ki, kj0) in
                    (0..g.kh).flat_map(|ki| (0..g.kw).step_by(LANES).map(move |kj0| (ki, kj0)))
                {
                    let (t0, lanes) = (ki * g.kw + kj0, LANES.min(g.kw - kj0));
                    let xs = planes.map(|pl| &xpad[pl * self.pad_len + self.offs[t0]..]);
                    let mut acc = [[0.0f32; LANES]; DW_SAMPLES];
                    for j in 0..self.span {
                        for ((a, gw), xw) in acc.iter_mut().zip(&gs).zip(&xs) {
                            let win = &xw[g.stride * j..g.stride * j + LANES];
                            for (a, &xv) in a.iter_mut().zip(win) {
                                *a += gw[j] * xv;
                            }
                        }
                    }
                    for (a, pl) in acc.iter().zip(planes) {
                        out[pl * taps + t0..][..lanes].copy_from_slice(&a[..lanes]);
                    }
                }
            }
        }
        out
    }
}

impl ConvKernel for Depthwise {
    /// Per element: the taps in ascending `(ki, kj)`.
    fn forward(&self, _nb: usize, x: &[f32], w: &[f32]) -> (Vec<f32>, Option<Vec<f32>>) {
        let (g, taps) = (&self.geom, self.offs.len());
        let xpad = self.pad_input(x);
        let mut wide = vec![0.0f32; xpad.len() / self.pad_len * self.wide_len];
        for (ci, (o, xp)) in wide
            .chunks_exact_mut(self.wide_len)
            .zip(xpad.chunks_exact(self.pad_len))
            .enumerate()
        {
            let wrow = &w[ci % self.c * taps..(ci % self.c + 1) * taps];
            for (&wv, &off) in wrow.iter().zip(&self.offs) {
                axpy(&mut o[..self.span], 1, wv, &xp[off..], g.stride);
            }
        }
        let frame = (self.wide_len, self.wp);
        (reframe(&wide, (g.oh, g.ow), frame, (0, 0), false), None)
    }

    /// `dx`: per element its contributions in ascending `(oy, ox)` — the taps
    /// in *descending* order, since a later tap reaches the same input from
    /// an earlier output. Partials: per tap a sample's positions in ascending
    /// `(oy, ox)`.
    fn backward(
        &self,
        nb: usize,
        gd: &[f32],
        x: &[f32],
        w: &[f32],
        _saved: Option<&[f32]>,
    ) -> (Vec<f32>, Vec<f32>) {
        let (g, taps) = (&self.geom, self.offs.len());
        let gwide = reframe(gd, (g.oh, g.ow), (self.wide_len, self.wp), (0, 0), true);
        let mut dxpad = vec![0.0f32; nb * self.c * self.pad_len];
        for (ci, (dp, gw)) in dxpad
            .chunks_exact_mut(self.pad_len)
            .zip(gwide.chunks_exact(self.wide_len))
            .enumerate()
        {
            let wrow = &w[ci % self.c * taps..(ci % self.c + 1) * taps];
            for (&wv, &off) in wrow.iter().zip(&self.offs).rev() {
                axpy(&mut dp[off..], g.stride, wv, &gw[..self.span], 1);
            }
        }
        let xpad = self.pad_input(x);
        // A narrow kernel row fits half-width accumulators.
        let partials = match g.kw {
            0..=4 => self.weight_grads::<4>(nb, &gwide, &xpad),
            _ => self.weight_grads::<DW_LANES>(nb, &gwide, &xpad),
        };
        let frame = (self.pad_len, self.wp);
        (
            reframe(&dxpad, (g.h, g.w), frame, (g.pad, g.pad), false),
            partials,
        )
    }
}

// ---------------------------------------------------------------------------
// Normalization
// ---------------------------------------------------------------------------

/// Result of [`batch_norm2d`]: the normalized output plus the batch
/// statistics needed to maintain running estimates.
#[derive(Debug)]
pub struct BatchNormOutput {
    /// Normalized, scaled and shifted activations.
    pub out: Var,
    /// Per-channel mean used for normalization.
    pub mean: Tensor,
    /// Per-channel (biased) variance used for normalization.
    pub var: Tensor,
}

/// Channels whose reduction chains [`channel_sums`] keeps in flight at once:
/// each chain is one dependent add per element, so a few independent ones
/// hide the add latency without touching any chain's order.
const BN_LANES: usize = 8;

/// Per-channel sums over an `[n, c, hw]` layout of `term(channel, flat
/// index)`: every channel adds its terms in ascending (sample, position)
/// order, starting from zero.
fn channel_sums(n: usize, c: usize, hw: usize, term: impl Fn(usize, usize) -> f32) -> Vec<f32> {
    let mut sums = vec![0.0f32; c];
    for i in 0..n {
        for c0 in (0..c).step_by(BN_LANES) {
            // A short last block repeats its final channel: the same chain
            // computed again, storing the same value.
            let chs: [usize; BN_LANES] = std::array::from_fn(|lane| (c0 + lane).min(c - 1));
            let mut acc = chs.map(|ch| sums[ch]);
            for s in 0..hw {
                for (a, &ch) in acc.iter_mut().zip(&chs) {
                    *a += term(ch, (i * c + ch) * hw + s);
                }
            }
            for (&a, &ch) in acc.iter().zip(&chs) {
                sums[ch] = a;
            }
        }
    }
    sums
}

/// Batch normalization over `[N, C, H, W]` (statistics per channel).
///
/// With `stats = None` the batch statistics are computed and fully
/// differentiated (training mode). With `stats = Some((mean, var))` the
/// given statistics are treated as constants (inference mode).
///
/// # Panics
///
/// Panics if the input is not rank 4 or parameter lengths differ from `C`.
pub fn batch_norm2d(
    x: &Var,
    gamma: &Var,
    beta: &Var,
    eps: f32,
    stats: Option<(Tensor, Tensor)>,
) -> BatchNormOutput {
    let xv = x.value_ref();
    assert_eq!(xv.dims().len(), 4, "batch_norm2d input must be [N,C,H,W]");
    let (n, c, hw) = (xv.dims()[0], xv.dims()[1], xv.dims()[2] * xv.dims()[3]);
    let (gv, bv) = (gamma.value_ref(), beta.value_ref());
    assert_eq!(gv.len(), c, "gamma length must equal channel count");
    assert_eq!(bv.len(), c, "beta length must equal channel count");
    let m = (n * hw) as f32;
    let use_batch_stats = stats.is_none();
    let xd = xv.data();
    let (mean, var) = stats.unwrap_or_else(|| {
        let mut mu = channel_sums(n, c, hw, |_, at| xd[at]);
        mu.iter_mut().for_each(|v| *v /= m);
        let mut va = channel_sums(n, c, hw, |ch, at| {
            let d = xd[at] - mu[ch];
            d * d
        });
        va.iter_mut().for_each(|v| *v /= m);
        (Tensor::from_vec(vec![c], mu), Tensor::from_vec(vec![c], va))
    });
    let invstd: Vec<f32> = var.data().iter().map(|&v| 1.0 / (v + eps).sqrt()).collect();
    let mut xhat = vec![0.0f32; xd.len()];
    let mut y = vec![0.0f32; xd.len()];
    let planes = xd
        .chunks_exact(hw)
        .zip(xhat.chunks_exact_mut(hw).zip(y.chunks_exact_mut(hw)));
    for (idx, (xp, (xhp, yp))) in planes.enumerate() {
        let ch = idx % c;
        let (mu, is, ga, be) = (mean.data()[ch], invstd[ch], gv.data()[ch], bv.data()[ch]);
        for ((&xv, xh), yv) in xp.iter().zip(xhp).zip(yp) {
            *xh = (xv - mu) * is;
            *yv = ga * *xh + be;
        }
    }
    let dims = xv.dims().to_vec();
    let out = Var::from_op(
        Tensor::from_vec(dims.clone(), y),
        vec![x.clone(), gamma.clone(), beta.clone()],
        Box::new(move |g, parents| {
            let gd = g.data();
            // dbeta = Σ dy and dgamma = Σ dy·x̂ are also the two batch
            // reductions the input gradient needs.
            let sum_dy = channel_sums(n, c, hw, |_, at| gd[at]);
            let sum_dy_xhat = channel_sums(n, c, hw, |_, at| gd[at] * xhat[at]);
            let gamma = parents[1].value_ref();
            let mut dx = vec![0.0f32; gd.len()];
            let planes = gd
                .chunks_exact(hw)
                .zip(xhat.chunks_exact(hw).zip(dx.chunks_exact_mut(hw)));
            for (idx, (gp, (xhp, dxp))) in planes.enumerate() {
                let ch = idx % c;
                let gsc = gamma.data()[ch] * invstd[ch];
                let (scale, sdy, sdx) = (gsc / m, sum_dy[ch], sum_dy_xhat[ch]);
                for ((&dy, &xh), d) in gp.iter().zip(xhp).zip(dxp) {
                    *d = if use_batch_stats {
                        scale * (m * dy - sdy - xh * sdx)
                    } else {
                        gsc * dy
                    };
                }
            }
            parents[0].accumulate_grad(Tensor::from_vec(dims.clone(), dx));
            parents[1].accumulate_grad(Tensor::from_vec(vec![c], sum_dy_xhat));
            parents[2].accumulate_grad(Tensor::from_vec(vec![c], sum_dy));
        }),
    );
    BatchNormOutput { out, mean, var }
}

// ---------------------------------------------------------------------------
// Activations
// ---------------------------------------------------------------------------

/// Rectified linear unit, `max(x, 0)`.
pub fn relu(x: &Var) -> Var {
    clamp(x, 0.0, f32::INFINITY)
}

/// `min(max(x, 0), 6)` — MobileNet's bounded activation.
pub fn relu6(x: &Var) -> Var {
    clamp(x, 0.0, 6.0)
}

/// Zeroes the gradient entries whose forward input fails `pass`.
fn mask_grad(mut g: Tensor, x: &Tensor, pass: impl Fn(f32) -> bool) -> Tensor {
    for (gi, &vi) in g.data_mut().iter_mut().zip(x.data()) {
        *gi = if pass(vi) { *gi } else { 0.0 };
    }
    g
}

/// Elementwise clamp with pass-through gradient strictly inside the range.
pub fn clamp(x: &Var, lo: f32, hi: f32) -> Var {
    let out = x.value_ref().map(|v| v.clamp(lo, hi));
    Var::from_op(
        out,
        vec![x.clone()],
        Box::new(move |g, parents| {
            let dx = mask_grad(g, &parents[0].value_ref(), |v| v > lo && v < hi);
            parents[0].accumulate_grad(dx);
        }),
    )
}
// ---------------------------------------------------------------------------
// Pooling & reshape
// ---------------------------------------------------------------------------

/// Non-overlapping-friendly average pooling over `[N,C,H,W]`: a depthwise
/// convolution with unit taps (which adds each window, and scatters each
/// gradient, in the order the window loops would), scaled by the window size.
///
/// # Panics
///
/// Panics if the window does not tile the input exactly.
pub fn avg_pool2d(x: &Var, kernel: usize, stride: usize) -> Var {
    let dims = x.dims();
    assert_eq!(dims.len(), 4, "avg_pool2d input must be [N,C,H,W]");
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    assert!(
        (h - kernel).is_multiple_of(stride) && (w - kernel).is_multiple_of(stride),
        "pool window {kernel}/{stride} must tile {h}x{w}"
    );
    let geom = ConvGeom::new(h, w, kernel, kernel, stride, 0);
    let out_dims = [n, c, geom.oh, geom.ow];
    let ones = Var::constant(Tensor::ones(&[c, 1, kernel, kernel]));
    let sums = conv_op(Depthwise::new(c, geom), out_dims, x, &ones);
    scale(&sums, 1.0 / (kernel * kernel) as f32)
}

/// Global average pooling: `[N,C,H,W] -> [N,C]`.
pub fn global_avg_pool(x: &Var) -> Var {
    let xv = x.value_ref();
    assert_eq!(
        xv.dims().len(),
        4,
        "global_avg_pool input must be [N,C,H,W]"
    );
    let (dims, hw) = (xv.dims().to_vec(), xv.dims()[2] * xv.dims()[3]);
    let inv = 1.0 / hw as f32;
    let means = xv
        .data()
        .chunks_exact(hw)
        .map(|plane| plane.iter().sum::<f32>() * inv);
    Var::from_op(
        Tensor::from_vec(dims[..2].to_vec(), means.collect()),
        vec![x.clone()],
        Box::new(move |g, parents| {
            let mut dx = Tensor::zeros(&dims);
            for (plane, &go) in dx.data_mut().chunks_exact_mut(hw).zip(g.data()) {
                plane.fill(go * inv);
            }
            parents[0].accumulate_grad(dx);
        }),
    )
}

/// Max pooling over `[N,C,H,W]` with square kernel/stride.
///
/// # Panics
///
/// Panics if the window does not tile the input exactly.
pub fn max_pool2d(x: &Var, kernel: usize, stride: usize) -> Var {
    let xv = x.value_ref();
    assert_eq!(xv.dims().len(), 4, "max_pool2d input must be [N,C,H,W]");
    let (n, c, h, w) = (xv.dims()[0], xv.dims()[1], xv.dims()[2], xv.dims()[3]);
    assert!(
        (h - kernel).is_multiple_of(stride) && (w - kernel).is_multiple_of(stride),
        "pool window {kernel}/{stride} must tile {h}x{w}"
    );
    let oh = (h - kernel) / stride + 1;
    let ow = (w - kernel) / stride + 1;
    let mut out = Tensor::zeros(&[n, c, oh, ow]);
    let mut arg: Vec<usize> = vec![0; n * c * oh * ow];
    for i in 0..n {
        for ch in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0;
                    for ky in 0..kernel {
                        for kx in 0..kernel {
                            let idx = ((i * c + ch) * h + oy * stride + ky) * w + ox * stride + kx;
                            if xv.data()[idx] > best {
                                best = xv.data()[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    let o = ((i * c + ch) * oh + oy) * ow + ox;
                    out.data_mut()[o] = best;
                    arg[o] = best_idx;
                }
            }
        }
    }
    Var::from_op(
        out,
        vec![x.clone()],
        Box::new(move |g, parents| {
            let mut dx = Tensor::zeros(&[n, c, h, w]);
            for (o, &src) in arg.iter().enumerate() {
                dx.data_mut()[src] += g.data()[o];
            }
            parents[0].accumulate_grad(dx);
        }),
    )
}

/// Shape-changing view (data order preserved).
pub fn reshape(x: &Var, dims: &[usize]) -> Var {
    let out = x.value_ref().reshape(dims);
    Var::from_op(
        out,
        vec![x.clone()],
        Box::new(|g, parents| {
            let dims = parents[0].dims();
            parents[0].accumulate_grad(g.reshape(&dims));
        }),
    )
}

// ---------------------------------------------------------------------------
// Concatenation & slicing
// ---------------------------------------------------------------------------

/// Concatenates along axis 0 (all other axes must match).
///
/// # Panics
///
/// Panics if `parts` is empty or trailing shapes disagree.
pub fn concat0(parts: &[Var]) -> Var {
    assert!(!parts.is_empty(), "concat0 needs at least one input");
    let tail_shape: Vec<usize> = parts[0].value_ref().dims()[1..].to_vec();
    let mut rows = 0usize;
    let mut data = Vec::new();
    let mut sizes = Vec::with_capacity(parts.len());
    for p in parts {
        let v = p.value_ref();
        assert_eq!(
            &v.dims()[1..],
            tail_shape.as_slice(),
            "concat0 trailing shapes must match"
        );
        rows += v.dims()[0];
        sizes.push(v.len());
        data.extend_from_slice(v.data());
    }
    let mut out_dims = vec![rows];
    out_dims.extend_from_slice(&tail_shape);
    Var::from_op(
        Tensor::from_vec(out_dims, data),
        parts.to_vec(),
        Box::new(move |g, parents| {
            let mut offset = 0usize;
            for (p, &len) in parents.iter().zip(&sizes) {
                let dims = p.dims();
                let chunk = Tensor::from_vec(dims, g.data()[offset..offset + len].to_vec());
                p.accumulate_grad(chunk);
                offset += len;
            }
        }),
    )
}

/// Slices rows `[start, start + len)` along axis 0.
///
/// # Panics
///
/// Panics if the range exceeds the axis-0 extent or `len == 0`.
pub fn slice0(x: &Var, start: usize, len: usize) -> Var {
    let xv = x.value_ref();
    let rows = xv.dims()[0];
    assert!(len > 0, "slice length must be positive");
    assert!(
        start + len <= rows,
        "slice [{start}, {}) out of {rows} rows",
        start + len
    );
    let per: usize = xv.dims()[1..].iter().product::<usize>().max(1);
    let mut dims = xv.dims().to_vec();
    dims[0] = len;
    let data = xv.data()[start * per..(start + len) * per].to_vec();
    Var::from_op(
        Tensor::from_vec(dims, data),
        vec![x.clone()],
        Box::new(move |g, parents| {
            let pdims = parents[0].dims();
            let mut dx = Tensor::zeros(&pdims);
            dx.data_mut()[start * per..(start + len) * per].copy_from_slice(g.data());
            parents[0].accumulate_grad(dx);
        }),
    )
}

// ---------------------------------------------------------------------------
// Softmax & losses
// ---------------------------------------------------------------------------

/// Softmax over a 1-d vector (used for Gumbel-softmax architecture weights).
///
/// # Panics
///
/// Panics if the input is not rank 1.
pub fn softmax_1d(x: &Var) -> Var {
    let xv = x.value_ref();
    assert_eq!(xv.dims().len(), 1, "softmax_1d input must be rank 1");
    let y = xv
        .reshape(&[1, xv.len()])
        .softmax_rows()
        .reshape(&[xv.len()]);
    let y_saved = y.clone();
    Var::from_op(
        y,
        vec![x.clone()],
        Box::new(move |g, parents| {
            // dx_i = y_i * (g_i - sum_j g_j y_j)
            let dot: f32 = g
                .data()
                .iter()
                .zip(y_saved.data())
                .map(|(&gi, &yi)| gi * yi)
                .sum();
            let dx = y_saved.zip_map(&g, |yi, gi| yi * (gi - dot));
            parents[0].accumulate_grad(dx);
        }),
    )
}

/// Fused softmax + cross-entropy over `[N, C]` logits with integer labels:
/// [`softmax_cross_entropy_smoothed`] without smoothing (bit for bit — a zero
/// target adds no loss term and subtracts `0.0` from its gradient entry).
///
/// Returns the mean negative log-likelihood as a `[1]` tensor.
///
/// # Panics
///
/// Panics if `labels.len() != N` or any label is out of range.
pub fn softmax_cross_entropy(logits: &Var, labels: &[usize]) -> Var {
    softmax_cross_entropy_smoothed(logits, labels, 0.0)
}

/// Softmax cross-entropy with label smoothing: the target distribution is
/// `(1 - eps) * onehot + eps / C`.
///
/// # Panics
///
/// Panics on label/shape mismatch or `eps` outside `[0, 1)`.
pub fn softmax_cross_entropy_smoothed(logits: &Var, labels: &[usize], eps: f32) -> Var {
    assert!((0.0..1.0).contains(&eps), "eps must be in [0, 1)");
    let lv = logits.value_ref();
    assert_eq!(lv.dims().len(), 2, "logits must be [N, C]");
    let (n, c) = (lv.dims()[0], lv.dims()[1]);
    assert_eq!(labels.len(), n, "labels length must equal batch size");
    assert!(
        labels.iter().all(|&l| l < c),
        "label out of range for {c} classes"
    );
    let probs = lv.softmax_rows();
    let unif = eps / c as f32;
    let mut loss = 0.0f32;
    for (i, &l) in labels.iter().enumerate() {
        for j in 0..c {
            let target = if j == l { 1.0 - eps + unif } else { unif };
            if target > 0.0 {
                loss -= target * probs.data()[i * c + j].max(1e-12).ln();
            }
        }
    }
    loss /= n as f32;
    let labels_owned = labels.to_vec();
    Var::from_op(
        Tensor::scalar(loss),
        vec![logits.clone()],
        Box::new(move |g, parents| {
            let go = g.item() / n as f32;
            let mut dl = probs.clone();
            for (i, &l) in labels_owned.iter().enumerate() {
                for j in 0..c {
                    let target = if j == l { 1.0 - eps + unif } else { unif };
                    dl.data_mut()[i * c + j] -= target;
                }
            }
            parents[0].accumulate_grad(dl.scale(go));
        }),
    )
}

/// Mean-squared-error `mean((a - b)^2)` as a `[1]` tensor.
pub fn mse_loss(a: &Var, b: &Var) -> Var {
    let d = sub(a, b);
    mean(&mul(&d, &d))
}

/// Temperature-softened distillation loss:
/// `KL(softmax(teacher/T) || softmax(student/T)) * T^2`, averaged over the
/// batch (Hinton et al.; the `T^2` keeps gradient magnitude
/// temperature-invariant).
///
/// The teacher distribution is a constant (stop-gradient) tensor of
/// logits with the same `[N, C]` shape.
///
/// # Panics
///
/// Panics on shape mismatch or non-positive temperature.
pub fn distill_kl(student_logits: &Var, teacher_logits: &Tensor, temperature: f32) -> Var {
    assert!(temperature > 0.0, "temperature must be positive");
    let sv = student_logits.value_ref();
    assert_eq!(sv.dims().len(), 2, "logits must be [N, C]");
    assert_eq!(
        sv.shape(),
        teacher_logits.shape(),
        "student/teacher shapes differ"
    );
    let (n, c) = (sv.dims()[0], sv.dims()[1]);
    let t = temperature;
    let p_teacher = teacher_logits.scale(1.0 / t).softmax_rows();
    let p_student = sv.scale(1.0 / t).softmax_rows();
    let mut loss = 0.0f32;
    for i in 0..n * c {
        let pt = p_teacher.data()[i];
        if pt > 0.0 {
            loss += pt * (pt.max(1e-12).ln() - p_student.data()[i].max(1e-12).ln());
        }
    }
    loss = loss * t * t / n as f32;
    Var::from_op(
        Tensor::scalar(loss),
        vec![student_logits.clone()],
        Box::new(move |g, parents| {
            // d/dz_s = (softmax(z_s/T) - p_teacher) * T / N  (times T^2/T).
            let go = g.item() * t / n as f32;
            let dl = p_student.sub(&p_teacher).scale(go);
            parents[0].accumulate_grad(dl);
        }),
    )
}

// ---------------------------------------------------------------------------
// Straight-through estimator & architecture mixing
// ---------------------------------------------------------------------------

/// Elementwise gradient multiplier used by [`ste_apply`] (e.g. a clip-range
/// mask for DoReFa activations).
pub type GradMaskFn = Box<dyn Fn(&Tensor) -> Tensor>;

/// Applies a non-differentiable elementwise transform with a
/// straight-through gradient.
///
/// `forward` maps the input tensor to the output (e.g. a quantizer);
/// `grad_mask`, if given, produces an elementwise multiplier applied to the
/// incoming gradient (e.g. zero outside a clipping range). With
/// `grad_mask = None` the gradient passes through unchanged — the classic
/// STE used by DoReFa / SBM quantizers.
pub fn ste_apply(
    x: &Var,
    forward: impl Fn(&Tensor) -> Tensor,
    grad_mask: Option<GradMaskFn>,
) -> Var {
    let xv = x.value_ref();
    let out = forward(&xv);
    assert_eq!(
        out.shape(),
        xv.shape(),
        "ste_apply transform must preserve the shape"
    );
    Var::from_op(
        out,
        vec![x.clone()],
        Box::new(move |g, parents| {
            let dx = match &grad_mask {
                Some(mask) => g.mul(&mask(&parents[0].value_ref())),
                None => g,
            };
            parents[0].accumulate_grad(dx);
        }),
    )
}

/// PACT activation quantization (Choi et al. 2018): clips to a *learnable*
/// range `[0, alpha]` and uniformly quantizes to `bits`.
///
/// Gradients: straight-through inside the clip range for `x`; for `alpha`,
/// the gradient is the sum of upstream gradients over clipped-high
/// elements (the PACT estimator).
///
/// # Panics
///
/// Panics if `alpha` is not a positive scalar or `bits == 0`.
pub fn pact(x: &Var, alpha: &Var, bits: u8) -> Var {
    assert!(bits >= 1, "bits must be positive");
    let a = alpha.value_ref().item().max(1e-3);
    let levels = ((1u64 << bits.min(31)) - 1) as f32;
    let out = x.value_ref().map(|v| {
        let c = v.clamp(0.0, a);
        round_half_away(c * levels / a) * a / levels
    });
    Var::from_op(
        out,
        vec![x.clone(), alpha.clone()],
        Box::new(move |g, parents| {
            let xv = parents[0].value_ref();
            let a = parents[1].value_ref().item().max(1e-3);
            let dalpha: f32 = g
                .data()
                .iter()
                .zip(xv.data())
                .map(|(&gi, &vi)| if vi > a { gi } else { 0.0 })
                .sum();
            parents[0].accumulate_grad(mask_grad(g, &xv, |v| (0.0..=a).contains(&v)));
            parents[1].accumulate_grad(Tensor::scalar(dalpha));
        }),
    )
}

/// Multiplies a tensor by one scalar element of a vector-valued [`Var`].
///
/// Used to mix supernet candidate outputs: `out = x * w[idx]`, with
/// gradients flowing to both the candidate output and the architecture
/// weight element.
///
/// # Panics
///
/// Panics if `idx` is out of range for `w`.
pub fn scale_by_element(x: &Var, w: &Var, idx: usize) -> Var {
    let wv = w.value_ref();
    assert!(idx < wv.len(), "weight index {idx} out of range");
    let out = x.value_ref().scale(wv.data()[idx]);
    Var::from_op(
        out,
        vec![x.clone(), w.clone()],
        Box::new(move |g, parents| {
            let (xv, wv) = (parents[0].value_ref(), parents[1].value_ref());
            let mut dw = Tensor::zeros(&[wv.len()]);
            dw.data_mut()[idx] = g
                .data()
                .iter()
                .zip(xv.data())
                .map(|(&gi, &xi)| gi * xi)
                .sum();
            parents[0].accumulate_grad(g.scale(wv.data()[idx]));
            parents[1].accumulate_grad(dw);
        }),
    )
}

/// Inner product of a variable with a constant vector: `sum_i x_i * c_i`.
///
/// Used for the differentiable FLOPs/efficiency loss over architecture
/// weights.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn dot_const(x: &Var, consts: &[f32]) -> Var {
    let xv = x.value_ref();
    assert_eq!(xv.len(), consts.len(), "dot_const length mismatch");
    let out: f32 = xv.data().iter().zip(consts).map(|(&a, &b)| a * b).sum();
    let consts = consts.to_vec();
    Var::from_op(
        Tensor::scalar(out),
        vec![x.clone()],
        Box::new(move |g, parents| {
            let go = g.item();
            let dx = Tensor::from_vec(vec![consts.len()], consts.iter().map(|&c| c * go).collect());
            parents[0].accumulate_grad(dx);
        }),
    )
}

// ---------------------------------------------------------------------------
// Method sugar on Var
// ---------------------------------------------------------------------------

impl Var {
    /// See [`add`].
    pub fn add(&self, other: &Var) -> Var {
        add(self, other)
    }
    /// See [`sub`].
    pub fn sub(&self, other: &Var) -> Var {
        sub(self, other)
    }
    /// See [`mul`].
    pub fn mul(&self, other: &Var) -> Var {
        mul(self, other)
    }
    /// See [`scale`].
    pub fn scale(&self, s: f32) -> Var {
        scale(self, s)
    }
    /// See [`sum`].
    pub fn sum(&self) -> Var {
        sum(self)
    }
    /// See [`mean`].
    pub fn mean(&self) -> Var {
        mean(self)
    }
    /// See [`relu`].
    pub fn relu(&self) -> Var {
        relu(self)
    }
    /// See [`relu6`].
    pub fn relu6(&self) -> Var {
        relu6(self)
    }
    /// See [`reshape`].
    pub fn reshape(&self, dims: &[usize]) -> Var {
        reshape(self, dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Central-difference gradient check of `f` at leaf `x`.
    fn grad_check(x: &Var, f: impl Fn(&Var) -> Var, tol: f32) {
        let loss = f(x);
        loss.backward();
        let analytic = x.grad().unwrap();
        let base = x.value();
        let eps = 1e-2f32;
        for i in 0..base.len() {
            let mut plus = base.clone();
            plus.data_mut()[i] += eps;
            let mut minus = base.clone();
            minus.data_mut()[i] -= eps;
            let fp = f(&Var::leaf(plus, false)).item();
            let fm = f(&Var::leaf(minus, false)).item();
            let numeric = (fp - fm) / (2.0 * eps);
            let a = analytic.data()[i];
            assert!(
                (a - numeric).abs() <= tol * (1.0 + numeric.abs()),
                "grad mismatch at {i}: analytic {a} vs numeric {numeric}"
            );
        }
    }

    fn randn(rng: &mut StdRng, dims: &[usize]) -> Tensor {
        let n: usize = dims.iter().product();
        Tensor::from_vec(
            dims.to_vec(),
            (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        )
    }

    #[test]
    fn grad_check_matmul() {
        let mut rng = StdRng::seed_from_u64(1);
        let b = Var::constant(randn(&mut rng, &[3, 2]));
        let x = Var::leaf(randn(&mut rng, &[2, 3]), true);
        grad_check(&x, |x| matmul(x, &b).sum(), 1e-2);
    }

    #[test]
    fn grad_check_conv2d_weight() {
        let mut rng = StdRng::seed_from_u64(2);
        let x = Var::constant(randn(&mut rng, &[1, 2, 5, 5]));
        let w = Var::leaf(randn(&mut rng, &[3, 2, 3, 3]), true);
        grad_check(&w, |w| conv2d(&x, w, 1, 1, 1).sum(), 2e-2);
    }

    #[test]
    fn grad_check_conv2d_input_strided() {
        let mut rng = StdRng::seed_from_u64(3);
        let w = Var::constant(randn(&mut rng, &[2, 2, 3, 3]));
        let x = Var::leaf(randn(&mut rng, &[1, 2, 6, 6]), true);
        grad_check(&x, |x| conv2d(x, &w, 2, 1, 1).sum(), 2e-2);
    }

    #[test]
    fn grad_check_depthwise_conv() {
        let mut rng = StdRng::seed_from_u64(4);
        let x = Var::constant(randn(&mut rng, &[1, 4, 5, 5]));
        let w = Var::leaf(randn(&mut rng, &[4, 1, 3, 3]), true);
        grad_check(&w, |w| conv2d(&x, w, 1, 1, 4).sum(), 2e-2);
    }

    #[test]
    fn grad_check_depthwise_conv_input() {
        let mut rng = StdRng::seed_from_u64(41);
        let w = Var::constant(randn(&mut rng, &[3, 1, 3, 3]));
        let x = Var::leaf(randn(&mut rng, &[2, 3, 6, 6]), true);
        grad_check(&x, |x| conv2d(x, &w, 2, 1, 3).sum(), 2e-2);
    }

    #[test]
    fn depthwise_fast_path_matches_generic_conv() {
        let mut rng = StdRng::seed_from_u64(42);
        let xv = randn(&mut rng, &[2, 5, 7, 7]);
        let wv = randn(&mut rng, &[5, 1, 3, 3]);
        let fast = conv2d(
            &Var::constant(xv.clone()),
            &Var::constant(wv.clone()),
            1,
            1,
            5,
        );
        // The generic grouped path, reached directly (conv2d itself would
        // route groups == C == K to the fast path).
        let dense = DenseConv {
            c: 5,
            k: 5,
            groups: 5,
            geom: ConvGeom::new(7, 7, 3, 3, 1, 1),
        };
        let (generic, _) = dense.forward(2, xv.data(), wv.data());
        assert_eq!(fast.value().len(), generic.len());
        for (a, b) in fast.value().data().iter().zip(&generic) {
            assert!((a - b).abs() <= 1e-5 + 1e-5 * b.abs(), "{a} vs {b}");
        }
    }

    #[test]
    fn grad_check_batch_norm_input() {
        let mut rng = StdRng::seed_from_u64(5);
        let gamma = Var::constant(Tensor::ones(&[3]));
        let beta = Var::constant(Tensor::zeros(&[3]));
        let x = Var::leaf(randn(&mut rng, &[2, 3, 2, 2]), true);
        grad_check(
            &x,
            |x| {
                let bn = batch_norm2d(x, &gamma, &beta, 1e-3, None);
                mul(&bn.out, &bn.out).sum()
            },
            5e-2,
        );
    }

    #[test]
    fn grad_check_batch_norm_gamma_beta() {
        let mut rng = StdRng::seed_from_u64(6);
        let x = Var::constant(randn(&mut rng, &[2, 2, 3, 3]));
        let gb = Var::leaf(randn(&mut rng, &[2]), true);
        // Check gamma gradient by reusing gb as gamma.
        grad_check(
            &gb,
            |gamma| {
                let beta = Var::constant(Tensor::zeros(&[2]));
                let bn = batch_norm2d(&x, gamma, &beta, 1e-3, None);
                mul(&bn.out, &bn.out).sum()
            },
            5e-2,
        );
    }

    #[test]
    fn grad_check_softmax_cross_entropy() {
        let mut rng = StdRng::seed_from_u64(7);
        let x = Var::leaf(randn(&mut rng, &[4, 5]), true);
        grad_check(&x, |x| softmax_cross_entropy(x, &[0, 1, 2, 3]), 1e-2);
    }

    #[test]
    fn grad_check_softmax_1d() {
        let mut rng = StdRng::seed_from_u64(8);
        let x = Var::leaf(randn(&mut rng, &[5]), true);
        grad_check(
            &x,
            |x| dot_const(&softmax_1d(x), &[1.0, -2.0, 3.0, 0.5, 2.0]),
            1e-2,
        );
    }

    #[test]
    fn grad_check_avg_pool() {
        let mut rng = StdRng::seed_from_u64(9);
        let x = Var::leaf(randn(&mut rng, &[1, 2, 4, 4]), true);
        grad_check(
            &x,
            |x| {
                let p = avg_pool2d(x, 2, 2);
                mul(&p, &p).sum()
            },
            1e-2,
        );
    }

    #[test]
    fn grad_check_global_avg_pool() {
        let mut rng = StdRng::seed_from_u64(10);
        let x = Var::leaf(randn(&mut rng, &[2, 3, 2, 2]), true);
        grad_check(
            &x,
            |x| {
                let p = global_avg_pool(x);
                mul(&p, &p).sum()
            },
            1e-2,
        );
    }

    #[test]
    fn grad_check_linear_and_bias() {
        let mut rng = StdRng::seed_from_u64(11);
        let x = Var::constant(randn(&mut rng, &[3, 4]));
        let w = Var::leaf(randn(&mut rng, &[2, 4]), true);
        grad_check(
            &w,
            |w| {
                let b = Var::constant(randn(&mut StdRng::seed_from_u64(12), &[2]));
                let y = linear(&x, w, Some(&b));
                mul(&y, &y).sum()
            },
            2e-2,
        );
    }

    #[test]
    fn grad_check_clamp_interior_only() {
        let x = Var::leaf(Tensor::from_vec(vec![3], vec![-1.0, 0.5, 7.0]), true);
        let y = relu6(&x).sum();
        y.backward();
        assert_eq!(x.grad().unwrap().data(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn max_pool_routes_gradient_to_argmax() {
        let x = Var::leaf(
            Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 5.0, 3.0, 2.0]),
            true,
        );
        let y = max_pool2d(&x, 2, 2).sum();
        y.backward();
        assert_eq!(x.grad().unwrap().data(), &[0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn ste_passes_gradient_through_round() {
        let x = Var::leaf(Tensor::from_vec(vec![3], vec![0.2, 0.7, 1.4]), true);
        let q = ste_apply(&x, |t| t.map(|v| v.round()), None);
        assert_eq!(q.value().data(), &[0.0, 1.0, 1.0]);
        q.sum().backward();
        assert_eq!(x.grad().unwrap().data(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn ste_grad_mask_applies() {
        let x = Var::leaf(Tensor::from_vec(vec![2], vec![0.5, 2.0]), true);
        let q = ste_apply(
            &x,
            |t| t.map(|v| v.clamp(0.0, 1.0)),
            Some(Box::new(|t: &Tensor| {
                t.map(|v| if (0.0..=1.0).contains(&v) { 1.0 } else { 0.0 })
            })),
        );
        q.sum().backward();
        assert_eq!(x.grad().unwrap().data(), &[1.0, 0.0]);
    }

    #[test]
    fn scale_by_element_grad_flows_to_weight() {
        let x = Var::constant(Tensor::from_vec(vec![2], vec![1.0, 2.0]));
        let w = Var::leaf(Tensor::from_vec(vec![3], vec![0.1, 0.2, 0.3]), true);
        let y = scale_by_element(&x, &w, 1).sum();
        y.backward();
        assert_eq!(w.grad().unwrap().data(), &[0.0, 3.0, 0.0]);
    }

    #[test]
    fn mse_loss_of_equal_inputs_is_zero() {
        let a = Var::constant(Tensor::from_vec(vec![2], vec![1.0, 2.0]));
        let b = Var::constant(Tensor::from_vec(vec![2], vec![1.0, 2.0]));
        assert_eq!(mse_loss(&a, &b).item(), 0.0);
    }

    #[test]
    fn cross_entropy_of_perfect_prediction_is_small() {
        let logits = Var::constant(Tensor::from_vec(vec![1, 3], vec![20.0, 0.0, 0.0]));
        assert!(softmax_cross_entropy(&logits, &[0]).item() < 1e-3);
    }

    #[test]
    fn pact_output_bounded_by_alpha_and_quantized() {
        let x = Var::constant(Tensor::from_vec(vec![4], vec![-1.0, 0.3, 0.9, 5.0]));
        let alpha = Var::leaf(Tensor::scalar(1.0), true);
        let y = pact(&x, &alpha, 2);
        let v = y.value();
        assert!(v.data().iter().all(|&p| (0.0..=1.0).contains(&p)));
        // 2-bit: levels at multiples of 1/3.
        assert!(v
            .data()
            .iter()
            .all(|&p| (p * 3.0 - (p * 3.0).round()).abs() < 1e-5));
    }

    #[test]
    fn pact_alpha_gradient_counts_clipped_elements() {
        let x = Var::constant(Tensor::from_vec(vec![4], vec![-1.0, 0.5, 2.0, 3.0]));
        let alpha = Var::leaf(Tensor::scalar(1.0), true);
        pact(&x, &alpha, 4).sum().backward();
        // Two elements exceed alpha; each contributes gradient 1.
        assert_eq!(alpha.grad().unwrap().item(), 2.0);
    }

    #[test]
    fn pact_input_gradient_masks_out_of_range() {
        let x = Var::leaf(Tensor::from_vec(vec![3], vec![-0.5, 0.5, 2.0]), true);
        let alpha = Var::constant(Tensor::scalar(1.0));
        pact(&x, &alpha, 4).sum().backward();
        assert_eq!(x.grad().unwrap().data(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn distill_kl_zero_for_identical_logits() {
        let mut rng = StdRng::seed_from_u64(30);
        let z = randn(&mut rng, &[3, 5]);
        let loss = distill_kl(&Var::constant(z.clone()), &z, 4.0).item();
        assert!(loss.abs() < 1e-5, "{loss}");
    }

    #[test]
    fn distill_kl_nonnegative_and_grad_checks() {
        let mut rng = StdRng::seed_from_u64(31);
        let teacher = randn(&mut rng, &[3, 4]);
        let x = Var::leaf(randn(&mut rng, &[3, 4]), true);
        assert!(distill_kl(&x, &teacher, 2.0).item() >= 0.0);
        let t2 = teacher.clone();
        grad_check(&x, move |x| distill_kl(x, &t2, 2.0), 1e-2);
    }

    #[test]
    fn distill_kl_bounded_under_logit_scaling() {
        // Unlike logit MSE, the softened KL does not explode when logits
        // scale up (the Table IV failure mode of raw-MSE distillation).
        let teacher = Tensor::from_vec(vec![1, 3], vec![10.0, 0.0, -10.0]);
        let student = Var::constant(Tensor::from_vec(vec![1, 3], vec![-10.0, 0.0, 10.0]));
        let kl = distill_kl(&student, &teacher, 4.0).item();
        let mse = mse_loss(&student, &Var::constant(teacher.clone())).item();
        assert!(kl < mse, "kl {kl} vs mse {mse}");
    }

    #[test]
    fn concat0_stacks_batches_and_routes_grads() {
        let a = Var::leaf(Tensor::from_vec(vec![1, 2], vec![1.0, 2.0]), true);
        let b = Var::leaf(Tensor::from_vec(vec![2, 2], vec![3.0, 4.0, 5.0, 6.0]), true);
        let c = concat0(&[a.clone(), b.clone()]);
        assert_eq!(c.dims(), vec![3, 2]);
        // Weight the rows differently so the split gradients differ.
        let w = Var::constant(Tensor::from_vec(
            vec![3, 2],
            vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0],
        ));
        mul(&c, &w).sum().backward();
        assert_eq!(a.grad().unwrap().data(), &[1.0, 1.0]);
        assert_eq!(b.grad().unwrap().data(), &[2.0, 2.0, 3.0, 3.0]);
    }

    #[test]
    fn slice0_extracts_rows_and_scatters_grad() {
        let x = Var::leaf(
            Tensor::from_vec(vec![3, 2], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
            true,
        );
        let sl = slice0(&x, 1, 1);
        assert_eq!(sl.value().data(), &[3.0, 4.0]);
        sl.sum().backward();
        assert_eq!(x.grad().unwrap().data(), &[0.0, 0.0, 1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn concat_slice_roundtrip() {
        let x = Var::constant(Tensor::from_vec(
            vec![2, 3],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        ));
        let parts = vec![slice0(&x, 0, 1), slice0(&x, 1, 1)];
        let back = concat0(&parts);
        assert_eq!(back.value(), x.value());
    }

    #[test]
    #[should_panic(expected = "trailing shapes")]
    fn concat0_rejects_mismatched_shapes() {
        let a = Var::constant(Tensor::zeros(&[1, 2]));
        let b = Var::constant(Tensor::zeros(&[1, 3]));
        let _ = concat0(&[a, b]);
    }

    #[test]
    fn smoothed_ce_reduces_to_plain_ce_at_eps_zero() {
        let mut rng = StdRng::seed_from_u64(20);
        let x = randn(&mut rng, &[3, 4]);
        let a = softmax_cross_entropy(&Var::constant(x.clone()), &[0, 1, 2]).item();
        let b = softmax_cross_entropy_smoothed(&Var::constant(x), &[0, 1, 2], 0.0).item();
        assert!((a - b).abs() < 1e-6);
    }

    #[test]
    fn grad_check_smoothed_cross_entropy() {
        let mut rng = StdRng::seed_from_u64(21);
        let x = Var::leaf(randn(&mut rng, &[3, 4]), true);
        grad_check(
            &x,
            |x| softmax_cross_entropy_smoothed(x, &[0, 1, 3], 0.1),
            1e-2,
        );
    }

    #[test]
    fn smoothing_penalizes_overconfidence() {
        // A very confident correct prediction has near-zero CE but nonzero
        // smoothed CE (the uniform component keeps pressure on).
        let logits = Var::constant(Tensor::from_vec(vec![1, 3], vec![30.0, 0.0, 0.0]));
        let plain = softmax_cross_entropy(&logits, &[0]).item();
        let smooth = softmax_cross_entropy_smoothed(&logits, &[0], 0.2).item();
        assert!(plain < 1e-3);
        assert!(smooth > 1.0);
    }

    #[test]
    fn conv_matches_hand_computed_value() {
        // 1x1 input channel, 2x2 input, 2x2 kernel, no pad.
        let x = Var::constant(Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]));
        let w = Var::constant(Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 0.0, 0.0, 1.0]));
        let y = conv2d(&x, &w, 1, 0, 1);
        assert_eq!(y.value().data(), &[5.0]); // 1*1 + 4*1
    }

    #[test]
    fn bias_add_4d_broadcasts_per_channel() {
        let x = Var::constant(Tensor::zeros(&[1, 2, 2, 2]));
        let b = Var::constant(Tensor::from_vec(vec![2], vec![1.0, -1.0]));
        let y = bias_add(&x, &b);
        let v = y.value();
        assert_eq!(&v.data()[0..4], &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(&v.data()[4..8], &[-1.0, -1.0, -1.0, -1.0]);
    }
}

//! Differentiable operators.
//!
//! Every function here performs an eager forward computation and registers a
//! closure computing the exact analytic vector-Jacobian product for the
//! backward pass. Operators borrow their inputs from the graph and closures
//! own the incoming gradient, so nothing is copied that is not also changed.
//! Dense convolution is one patch matrix per block and register-tiled
//! products per sample (per block on small planes); depthwise convolution
//! holds outputs in register lanes (samples or columns) over zero-padded
//! frames; batch norm sums channels side by side in vector lanes over a
//! channels-last copy of its input. What each
//! kernel sums, and in which order, is fixed per output element (DESIGN.md
//! §6b), so values and gradients are bit-identical at any thread count.

use crate::autograd::Var;
use crate::tensor::{
    clamp_select, col_lanes, fold_plane, im2col_batch, matmul_into, plan, round_half_away, sweep,
    sweep_splat, transpose_into, Block, ConvGeom, Frame, Tensor, COL_LANES, LANES,
    PAR_FLOP_THRESHOLD, TILE_COLS,
};
use instantnet_parallel as parallel;
use std::cell::RefCell;
use std::rc::Rc;

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
            let (_, _, db) = channels_last(g.data(), (g.len() / (c * spatial), c, spatial));
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
        conv_op(Depthwise { c, geom }, out_dims, x, w)
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

/// Dense (non-depthwise) grouped convolution as matrix work.
///
/// With `q = C/g·R·S` and `P = OH·OW`, a block's patch matrix `cols` is
/// `[C·R·S, nb·P]`: group `gi` owns rows `gi·q..`, sample `i` columns `i·P..`;
/// a pointwise conv's is `x` itself, sample by sample. Where a sample's
/// positions fill two register tiles' columns ([`DenseConv::per_sample`]),
/// every product is one sample's and group's, written straight into the
/// sample-major result; on smaller planes a product spans the block, its
/// operands and result moved between layouts by [`swap_leading`].
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

    /// A 1×1/stride-1/pad-0 conv's patch matrix is `x` itself: no `im2col`,
    /// and nothing worth keeping for the backward pass.
    fn pointwise(&self) -> bool {
        let g = &self.geom;
        g.kh == 1 && g.kw == 1 && g.stride == 1 && g.pad == 0
    }

    /// Products per sample where its `P` positions fill at least two tiles'
    /// columns: below that the last, zero-padded tile of every sample is
    /// most of its product (a 3×3 plane is 9 of 16 columns), and one
    /// product over the block's `nb·P` columns wastes none.
    fn per_sample(&self) -> bool {
        self.geom.oh * self.geom.ow >= 2 * TILE_COLS
    }

    /// `[nb, groups·rows_g, P]`: per sample `i` and group `gi`, the
    /// `[rows_g, inner]` block `gi` of `lhs` times the `[inner, P]` operand
    /// at `rhs[i·step + gi·inner·ld..]` (row pitch `ld`).
    fn sample_products(
        &self,
        (lhs, rows_g, inner): (&[f32], usize, usize),
        (rhs, ld, step): (&[f32], usize, usize),
        nb: usize,
    ) -> Vec<f32> {
        let (groups, p) = (self.groups, self.geom.oh * self.geom.ow);
        let mut out = vec![0.0f32; nb * groups * rows_g * p];
        for (row, out_g) in out.chunks_exact_mut(rows_g * p).enumerate() {
            let (i, gi) = (row / groups, row % groups);
            let lhs_g = &lhs[gi * rows_g * inner..(gi + 1) * rows_g * inner];
            matmul_into(
                lhs_g,
                &rhs[i * step + gi * inner * ld..],
                ld,
                out_g,
                inner,
                p,
            );
        }
        out
    }

    /// `[groups·rows_g, l]`: per group, the `[rows_g, inner]` block of
    /// `lhs` times rows `gi·inner..` of the `[groups·inner, l]` `rhs`.
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
        let (c, l) = (self.c, nb * p);
        let cols = (!self.pointwise()).then(|| im2col_batch(x, nb, c, &self.geom));
        let y = match (&cols, self.per_sample()) {
            (Some(cols), true) => self.sample_products((w, kg, q), (cols, l, p), nb),
            (None, true) => self.sample_products((w, kg, q), (x, p, c * p), nb),
            (Some(cols), false) => {
                swap_leading(&self.grouped_product(w, cols, (kg, q, l)), self.k, nb, p)
            }
            (None, false) => {
                let y = self.grouped_product(w, &swap_leading(x, nb, c, p), (kg, q, l));
                swap_leading(&y, self.k, nb, p)
            }
        };
        (y, cols)
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
        // `dcols` sample-major (`[nb, C·R·S, P]`, a pointwise conv's is `dx`
        // itself) or channel-major (`[C·R·S, nb·P]`); `(ld, step)` is its
        // row pitch and the offset of one sample.
        let (dcols, (ld, step)) = match self.per_sample() {
            true => (
                self.sample_products((&wt, q, kg), (g, p, k * p), nb),
                (p, crs * p),
            ),
            false => {
                let dcols = self.grouped_product(&wt, &swap_leading(g, nb, k, p), (q, kg, l));
                (dcols, (l, p))
            }
        };
        let dx = match (self.pointwise(), self.per_sample()) {
            (true, true) => dcols,
            (true, false) => swap_leading(&dcols, c, nb, p),
            (false, _) => {
                let mut dx = vec![0.0f32; nb * c * plane];
                for (ci, dxp) in dx.chunks_exact_mut(plane).enumerate() {
                    let at = ci % c * taps * ld + ci / c * step;
                    fold_plane(&dcols[at..], ld, dxp, geom);
                }
                dx
            }
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

/// Depthwise convolution (`groups == C == K`) on register lanes: each pass
/// copies its operands into [`Frame`]s and runs every output as one
/// [`sweep`] accumulator over its terms — the taps, the outputs reading a
/// pixel (`dx`), the positions (`dw`) — stored straight from its lanes. The
/// lanes hold [`LANES`] samples of one channel, over frames that are the
/// planes themselves, or one sample's output columns (`dx`: input columns,
/// `dw`: a kernel row's taps), over zero-padded frames, by geometry
/// ([`Depthwise::sample_lanes`]). What runs is a [`Plan`], built once per
/// geometry and block size. Each element is its in-plane terms in DESIGN.md
/// §6b's order: a sample-lane unit lists just those; a column lane may also
/// add a padding term, `w·0` or `dy·0`, which is `±0` and leaves a sum from
/// `+0` unchanged unless `w` or `dy` is not finite — such a channel runs
/// [`Depthwise::exact`].
struct Depthwise {
    c: usize,
    geom: ConvGeom,
}

/// A pass's blocks and term lists: `(tap, frame offset)` for the forward
/// and `dx`, `(dy frame offset, x frame offset)` per position for `dw`.
type Pass = (Vec<Block>, Vec<Vec<(usize, usize)>>);

/// One depthwise geometry's passes at one block size, a pure function of
/// the two: frames (`x`, `dy`), blocks and their term lists.
struct Plan {
    samples: bool,
    fx: Frame,
    fg: Frame,
    fwd: Pass,
    dx: Pass,
    dw: Pass,
}

thread_local! {
    /// The plans this thread has built, by `(h, w, kh, kw, stride, pad, nb,
    /// channels)`, the channel count 0 for sample lanes.
    static PLANS: RefCell<Vec<([usize; 8], Rc<Plan>)>> = const { RefCell::new(Vec::new()) };
}

impl Depthwise {
    /// Samples in the lanes where an output row costs no more that way: a
    /// row is `⌈nb/8⌉·ow` sample units or `nb·⌈ow/col⌉` column units, a
    /// unit one vector op per four lanes plus one for its bookkeeping. At
    /// stride `s` the column side pays `(s + 2)/3` of that: its `dx` pass,
    /// one of three, runs every input row as `s` phases of partly filled
    /// units (the crossover measured in EXPERIMENTS.md); output columns
    /// elsewhere.
    fn sample_lanes(&self, nb: usize) -> bool {
        let (ow, col, s) = (self.geom.ow, col_lanes(self.geom.ow), self.geom.stride);
        let samples = nb.div_ceil(LANES) * ow * (LANES / 4 + 1);
        3 * samples <= nb * ow.div_ceil(col) * (col / 4 + 1) * (s + 2)
    }

    /// This thread's plan for blocks of `nb`, built on first use.
    fn plan(&self, nb: usize) -> Rc<Plan> {
        let g = &self.geom;
        // A column-lane unit stores into a member sample's planes, whose
        // offsets depend on the channel count; a sample-lane plan's do not.
        let c = if self.sample_lanes(nb) { 0 } else { self.c };
        let key = [g.h, g.w, g.kh, g.kw, g.stride, g.pad, nb, c];
        PLANS.with_borrow_mut(|plans| {
            if let Some((_, plan)) = plans.iter().find(|(k, _)| *k == key) {
                return plan.clone();
            }
            // A bound on memory, not a policy: a training run has a few
            // dozen geometries.
            if plans.len() == 64 {
                plans.clear();
            }
            let plan = Rc::new(self.build(nb));
            plans.push((key, plan.clone()));
            plan
        })
    }

    fn build(&self, nb: usize) -> Plan {
        let (g, s, samples) = (&self.geom, self.geom.stride, self.sample_lanes(nb));
        let (c, kh, kw, taps) = (self.c, g.kh, g.kw, g.kh * g.kw);
        // Column lanes: `x` inside its padding, `dy` inside a margin wide
        // enough that every input pixel reads all its taps' outputs, in range
        // or not. Sample-lane frames hold the planes alone.
        let shape = (g.h + 2 * g.pad, g.w + 2 * g.pad, s);
        let fx = Frame::new(samples, nb, shape, (g.pad, g.pad), (g.h, g.w));
        let (mh, mw) = ((kh - 1) / s, (kw - 1) / s);
        let (rows, cols) = ((g.pad + g.h - 1) / s + 1, (g.pad + g.w - 1) / s + 1);
        let shape = (mh + rows.max(g.oh), mw + cols.max(g.ow), 1);
        let fg = Frame::new(samples, nb, shape, (mh, mw), (g.oh, g.ow));
        // Forward: per unit the taps, ascending, whose column some lane reads
        // in range and — with sample lanes, whose frame is the plane alone —
        // whose row is in the plane. A column-lane frame holds the padding
        // rows, so there a plane's rows share one list.
        let width = if samples { 1 } else { col_lanes(g.ow) };
        let fwd = plan((nb, samples, g.oh), (g.ow, 1, width), |i, oy, ox, n| {
            let reach = |t: &usize| {
                let xs = &g.xs[t % kw];
                let row = !samples || g.ys[t / kw].contains(&oy);
                row && xs.start < ox + n && ox < xs.end
            };
            let list = (0..taps).filter(reach).map(|t| (t, fx.at(t / kw, t % kw)));
            let base = (i * fx.member + fx.at(oy * s, ox * s)).wrapping_sub(fx.shift);
            (list.collect(), base, i * c * g.oh * g.ow + oy * g.ow + ox)
        });
        // `dx`: per padded input pixel `(py, px)` the taps of its stride
        // phase, last first, whose output row is in the plane and whose
        // output column some lane reads in range, with the outputs' frame
        // offsets from the pixel's base.
        let width = if samples {
            1
        } else {
            col_lanes(g.w.div_ceil(s))
        };
        let dx = plan((nb, samples, g.h), (g.w, s, width), |i, iy, ix, n| {
            let (py, px) = (iy + g.pad, ix + g.pad);
            let reach = |t: &usize| {
                let (ki, kj) = (t / kw, t % kw);
                let (dy, dx) = (ki.wrapping_sub(py % s) / s, kj.wrapping_sub(px % s) / s);
                let phase = ki % s == py % s && kj % s == px % s;
                let row = dy <= py / s && py / s - dy < g.oh;
                phase && row && dx < px / s + n && px / s < g.ow + dx
            };
            let at = |t: usize| fg.at(mh - (t / kw - py % s) / s, mw - (t % kw - px % s) / s);
            let list = (0..taps).rev().filter(reach).map(|t| (t, at(t)));
            let base = (i * fg.member + fg.at(py / s, px / s)).wrapping_sub(fg.shift);
            (list.collect(), base, i * c * g.h * g.w + iy * g.w + ix)
        });
        // `dw`: a unit per tap over the positions `(dy offset, x offset)`
        // it reads in range, ascending (sample lanes), or per run of a
        // kernel row's taps in one stride phase over every position of its
        // sample (column lanes).
        let dw = plan((nb, samples, kh), (kw, s, COL_LANES), |i, ki, kj, _| {
            let (ys, xs) = match samples {
                true => (g.ys[ki].clone(), g.xs[kj].clone()),
                false => (0..g.oh, 0..g.ow),
            };
            let at = |(y, x)| {
                (
                    i * fg.member + fg.at(y + mh, x + mw) - fg.shift,
                    fx.at(y * s, x * s),
                )
            };
            let list = ys.flat_map(|y| xs.clone().map(move |x| (y, x))).map(at);
            let base = (i * fx.member + fx.at(ki, kj)).wrapping_sub(fx.shift);
            (list.collect(), base, i * c * taps + ki * kw + kj)
        });
        Plan {
            samples,
            fx,
            fg,
            fwd,
            dx,
            dw,
        }
    }

    /// Where a sweep over channel `ch` of the sample group from `i0` stores
    /// (`per` values a plane): sample lanes one sample's plane apart, column
    /// lanes `stride` apart.
    fn store(
        &self,
        samples: bool,
        (nb, i0, ch): (usize, usize, usize),
        per: usize,
        stride: usize,
    ) -> (usize, usize, usize) {
        match samples {
            true => ((i0 * self.c + ch) * per, self.c * per, nb - i0),
            false => (ch * per, stride, LANES),
        }
    }

    /// Channel `ch` of a block's pass by the per-pixel loops: its `per`
    /// values a plane in `out` zeroed, then every in-plane term `term(plane,
    /// tap, output, input) = (slot, value)` (plane `i·C + ch`, offsets within
    /// its planes) added, taps ascending (descending if `rev`), outputs
    /// ascending — each element's order in all three passes, with no padding
    /// term.
    fn exact(
        &self,
        (nb, ch, rev): (usize, usize, bool),
        (out, per): (&mut [f32], usize),
        term: impl Fn(usize, usize, usize, usize) -> (usize, f32),
    ) {
        let (g, taps) = (&self.geom, self.geom.kh * self.geom.kw);
        for i in (0..nb).map(|i| i * self.c + ch) {
            out[i * per..][..per].fill(0.0);
            for t in (0..taps).map(|t| if rev { taps - 1 - t } else { t }) {
                let (ki, kj) = (t / g.kw, t % g.kw);
                for (oy, ox) in g.ys[ki]
                    .clone()
                    .flat_map(|y| g.xs[kj].clone().map(move |x| (y, x)))
                {
                    let (iy, ix) = (oy * g.stride + ki - g.pad, ox * g.stride + kj - g.pad);
                    let (at, v) = term(i, t, oy * g.ow + ox, iy * g.w + ix);
                    out[i * per + at] += v;
                }
            }
        }
    }
}

impl ConvKernel for Depthwise {
    /// Per element: the taps in ascending `(ki, kj)`.
    fn forward(&self, nb: usize, x: &[f32], w: &[f32]) -> (Vec<f32>, Option<Vec<f32>>) {
        let (g, c, plan) = (&self.geom, self.c, self.plan(nb));
        let (p, hw, taps) = (g.oh * g.ow, g.h * g.w, g.kh * g.kw);
        let ((blocks, lists), f) = (&plan.fwd, &plan.fx);
        let (mut frame, mut out) = (vec![0.0f32; f.len], vec![0.0f32; nb * c * p]);
        let wide = plan.samples || col_lanes(g.ow) == LANES;
        for ch in 0..c {
            let wrow = &w[ch * taps..(ch + 1) * taps];
            let terms = |l: usize| lists[l].iter().map(|&(t, o)| (wrow[t], o));
            for i0 in (0..nb).step_by(f.members) {
                f.fill(&mut frame, x, (i0, nb), (c * hw, ch * hw));
                let store = self.store(plan.samples, (nb, i0, ch), p, 1);
                sweep_splat(wide, (&frame, blocks), terms, &mut out, store);
            }
            if !plan.samples && !wrow.iter().all(|v| v.is_finite()) {
                self.exact((nb, ch, false), (&mut out, p), |i, t, o, xi| {
                    (o, wrow[t] * x[i * hw + xi])
                });
            }
        }
        (out, None)
    }

    /// `dx`: per element its contributions in ascending `(oy, ox)` — the
    /// taps of its stride phase in *descending* order, since a later tap
    /// reaches the same input from an earlier output. Partials: per tap a
    /// sample's positions in ascending `(oy, ox)`.
    fn backward(
        &self,
        nb: usize,
        gd: &[f32],
        x: &[f32],
        w: &[f32],
        _saved: Option<&[f32]>,
    ) -> (Vec<f32>, Vec<f32>) {
        let (g, c, s, plan) = (&self.geom, self.c, self.geom.stride, self.plan(nb));
        let (p, hw, taps) = (g.oh * g.ow, g.h * g.w, g.kh * g.kw);
        let (fx, fg, samples) = (&plan.fx, &plan.fg, plan.samples);
        let ((dx_blocks, dx_lists), (dw_blocks, dw_lists)) = (&plan.dx, &plan.dw);
        let (mut xf, mut gf) = (vec![0.0f32; fx.len], vec![0.0f32; fg.len]);
        let (mut dx, mut dw) = (vec![0.0f32; nb * c * hw], vec![0.0f32; nb * c * taps]);
        let wide = samples || col_lanes(g.w.div_ceil(s)) == LANES;
        for ch in 0..c {
            let wrow = &w[ch * taps..(ch + 1) * taps];
            let dxt = |l: usize| dx_lists[l].iter().map(|&(t, o)| (wrow[t], o));
            for i0 in (0..nb).step_by(fx.members) {
                fx.fill(&mut xf, x, (i0, nb), (c * hw, ch * hw));
                fg.fill(&mut gf, gd, (i0, nb), (c * p, ch * p));
                let (xf, gf) = (&xf[..], &gf[..]);
                let store = self.store(samples, (nb, i0, ch), hw, s);
                sweep_splat(wide, (gf, dx_blocks), dxt, &mut dx, store);
                let store = self.store(samples, (nb, i0, ch), taps, s);
                let lanes = |d: usize| <[f32; LANES]>::try_from(&gf[d..d + LANES]).expect("lanes");
                let all = |l: usize| dw_lists[l].iter().map(|&(d, o)| (lanes(d), o));
                let one = |l: usize| dw_lists[l].iter().map(|&(d, o)| (gf[d], o));
                match samples {
                    true => sweep(xf, dw_blocks, all, &mut dw, store),
                    false => sweep_splat(false, (xf, dw_blocks), one, &mut dw, store),
                }
            }
            if !samples && !wrow.iter().all(|v| v.is_finite()) {
                self.exact((nb, ch, true), (&mut dx, hw), |i, t, o, xi| {
                    (xi, wrow[t] * gd[i * p + o])
                });
            }
            // A column-lane NaN in `dw` is the per-pixel loops' own or a
            // padding term's `dy·0`: recomputed either way.
            let nan = |i: usize| dw[(i * c + ch) * taps..][..taps].iter().any(|v| v.is_nan());
            if !samples && (0..nb).any(nan) {
                self.exact((nb, ch, false), (&mut dw, taps), |i, t, o, xi| {
                    (t, gd[i * p + o] * x[i * hw + xi])
                });
            }
        }
        (dx, dw)
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

/// Channels in the lanes of one BatchNorm sum: two vectors.
const BN_LANES: usize = 8;

/// `[n, c, hw]` → `[n·hw, cp]` (one position's channels adjacent, rows
/// zero-padded to `cp`, a whole number of [`BN_LANES`]), and each channel's
/// sum of its values, samples ascending, positions ascending within a
/// sample, from `+0`: [`BN_LANES`] channels at a time are gathered from
/// their planes into lanes, each row both stored and added to its
/// channels' chains. A short last block repeats its final channel into the
/// padding.
fn channels_last(x: &[f32], (n, c, hw): (usize, usize, usize)) -> (Vec<f32>, usize, Vec<f32>) {
    let cp = c.next_multiple_of(BN_LANES);
    let (mut t, mut sums) = (vec![0.0f32; n * hw * cp], vec![0.0f32; cp]);
    for c0 in (0..c).step_by(BN_LANES) {
        let mut acc = [0.0f32; BN_LANES];
        for (i, ts) in t.chunks_exact_mut(hw * cp).enumerate() {
            let planes: [&[f32]; BN_LANES] =
                std::array::from_fn(|l| &x[(i * c + (c0 + l).min(c - 1)) * hw..][..hw]);
            for (s, row) in ts.chunks_exact_mut(cp).enumerate() {
                let v: [f32; BN_LANES] = std::array::from_fn(|l| planes[l][s]);
                row[c0..c0 + BN_LANES].copy_from_slice(&v);
                for (a, v) in acc.iter_mut().zip(v) {
                    *a += v;
                }
            }
        }
        sums[c0..c0 + BN_LANES].copy_from_slice(&acc);
    }
    sums.truncate(c);
    (t, cp, sums)
}

/// `Σ(x − mean)²` per channel over the [`channels_last`] copy `xt`
/// (`cp`-long rows), rows in order from `+0`: sixteen channels at a time
/// run every row with their sums in registers, four vectors' chains in
/// flight.
fn sq_dev_sums(xt: &[f32], cp: usize, mean: &[f32]) -> Vec<f32> {
    let mut sums = vec![0.0f32; cp];
    for c0 in (0..cp).step_by(2 * BN_LANES) {
        match c0 + 2 * BN_LANES <= cp {
            true => sq_dev_block::<2>((xt, cp), c0, mean, &mut sums),
            false => sq_dev_block::<1>((xt, cp), c0, mean, &mut sums),
        }
    }
    sums.truncate(mean.len());
    sums
}

/// [`sq_dev_sums`] over the `H·BN_LANES` channels from `c0`.
#[inline(always)]
fn sq_dev_block<const H: usize>(
    (xt, cp): (&[f32], usize),
    c0: usize,
    mean: &[f32],
    sums: &mut [f32],
) {
    let mu: [[f32; BN_LANES]; H] = std::array::from_fn(|h| lanes(mean, c0 + h * BN_LANES));
    let mut acc = [[0.0f32; BN_LANES]; H];
    for row in xt.chunks_exact(cp) {
        for (h, (acc, mu)) in acc.iter_mut().zip(&mu).enumerate() {
            let x: &[f32; BN_LANES] = row[c0 + h * BN_LANES..][..BN_LANES]
                .try_into()
                .expect("lanes");
            for ((a, &x), &mu) in acc.iter_mut().zip(x).zip(mu) {
                let d = x - mu;
                *a += d * d;
            }
        }
    }
    sums[c0..c0 + H * BN_LANES].copy_from_slice(acc.as_flattened());
}

/// `(Σdy, Σdy·x̂)` per channel for [`batch_norm2d`]'s backward pass, in
/// [`channels_last`]' order, with `x̂ = (x − mu)·invstd` recomputed from the
/// [`channels_last`] copy `xt` (`cp`-long rows): [`BN_LANES`] channels in
/// the lanes, their `dy` gathered straight from the planes (a short last
/// block repeats its final channel), so `dy` needs no copy of its own.
fn dy_sums(
    dy: &[f32],
    (c, hw): (usize, usize),
    (xt, cp): (&[f32], usize),
    (mu, invstd): (&[f32], &[f32]),
) -> (Vec<f32>, Vec<f32>) {
    let (mut sum_dy, mut sum_dy_xhat) = (vec![0.0f32; cp], vec![0.0f32; cp]);
    for c0 in (0..c).step_by(BN_LANES) {
        let (mu, is) = (lanes(mu, c0), lanes(invstd, c0));
        let (mut s0, mut s1) = ([0.0f32; BN_LANES], [0.0f32; BN_LANES]);
        for (i, xs) in xt.chunks_exact(hw * cp).enumerate() {
            let planes: [&[f32]; BN_LANES] =
                std::array::from_fn(|l| &dy[(i * c + (c0 + l).min(c - 1)) * hw..][..hw]);
            for (s, row) in xs.chunks_exact(cp).enumerate() {
                let x: &[f32; BN_LANES] = row[c0..][..BN_LANES].try_into().expect("lanes");
                let d: [f32; BN_LANES] = std::array::from_fn(|l| planes[l][s]);
                for l in 0..BN_LANES {
                    s0[l] += d[l];
                    s1[l] += d[l] * ((x[l] - mu[l]) * is[l]);
                }
            }
        }
        sum_dy[c0..c0 + BN_LANES].copy_from_slice(&s0);
        sum_dy_xhat[c0..c0 + BN_LANES].copy_from_slice(&s1);
    }
    sum_dy.truncate(c);
    sum_dy_xhat.truncate(c);
    (sum_dy, sum_dy_xhat)
}

/// The [`BN_LANES`] values of `v` from `c0`, zeros past its end.
fn lanes(v: &[f32], c0: usize) -> [f32; BN_LANES] {
    std::array::from_fn(|l| v.get(c0 + l).copied().unwrap_or(0.0))
}

/// Batch normalization over `[N, C, H, W]` (statistics per channel).
///
/// With `stats = None` the batch statistics are computed and fully
/// differentiated (training mode). With `stats = Some((mean, var))` the
/// given statistics are treated as constants (inference mode).
///
/// The statistics and `dγ`/`dβ` are sums with channels in vector lanes:
/// over a channels-last copy of `x`, kept for the backward pass, and over
/// `dy` gathered from its planes. `x̂ = (x − mean)·invstd` is never stored:
/// it is recomputed where it is needed, with that one expression.
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
    // Training needs the copy for its statistics; inference makes it only
    // if a backward pass asks.
    let (xt, sum_x) = match use_batch_stats {
        true => {
            let (xt, cp, sums) = channels_last(xd, (n, c, hw));
            (Some((xt, cp)), sums)
        }
        false => (None, Vec::new()),
    };
    let (mean, var) = stats.unwrap_or_else(|| {
        let (xt, cp) = xt.as_ref().expect("training copy");
        let mut mu = sum_x;
        mu.iter_mut().for_each(|v| *v /= m);
        let mut va = sq_dev_sums(xt, *cp, &mu);
        va.iter_mut().for_each(|v| *v /= m);
        (Tensor::from_vec(vec![c], mu), Tensor::from_vec(vec![c], va))
    });
    let invstd: Vec<f32> = var.data().iter().map(|&v| 1.0 / (v + eps).sqrt()).collect();
    // Sample by sample, channels in step with their parameters: no index
    // arithmetic per plane, and every value written once.
    let mut y = Vec::with_capacity(xd.len());
    let params = || {
        mean.data()
            .iter()
            .zip(&invstd)
            .zip(gv.data().iter().zip(bv.data()))
    };
    for xs in xd.chunks_exact(c * hw) {
        for (xp, ((&mu, &is), (&ga, &be))) in xs.chunks_exact(hw).zip(params()) {
            y.extend(xp.iter().map(|&x| ga * ((x - mu) * is) + be));
        }
    }
    let dims = xv.dims().to_vec();
    let mu = mean.data().to_vec();
    let out = Var::from_op(
        Tensor::from_vec(dims.clone(), y),
        vec![x.clone(), gamma.clone(), beta.clone()],
        Box::new(move |mut g, parents| {
            let (gd, xv) = (g.data(), parents[0].value_ref());
            let xd = xv.data();
            let made;
            let (xt, cp) = match &xt {
                Some((xt, cp)) => (xt, *cp),
                None => {
                    made = channels_last(xd, (n, c, hw));
                    (&made.0, made.1)
                }
            };
            // dbeta = Σ dy and dgamma = Σ dy·x̂ are also the two batch
            // reductions the input gradient needs: one sweep sums both.
            let (sum_dy, sum_dy_xhat) = dy_sums(gd, (c, hw), (xt, cp), (&mu, &invstd));
            let gamma = parents[1].value_ref();
            let per_channel = || {
                let scales = gamma.data().iter().zip(&invstd).map(|(&ga, &is)| ga * is);
                scales.zip(mu.iter().zip(&invstd).zip(sum_dy.iter().zip(&sum_dy_xhat)))
            };
            // dx overwrites the gradient it is computed from, element by
            // element: no buffer of its own.
            for (gs, xs) in g
                .data_mut()
                .chunks_exact_mut(c * hw)
                .zip(xd.chunks_exact(c * hw))
            {
                let planes = gs.chunks_exact_mut(hw).zip(xs.chunks_exact(hw));
                for ((gp, xp), (gsc, ((&mu, &is), (&sdy, &sdx)))) in planes.zip(per_channel()) {
                    let rows = gp.iter_mut().zip(xp);
                    if use_batch_stats {
                        let scale = gsc / m;
                        rows.for_each(|(dy, &x)| {
                            let xh = (x - mu) * is;
                            *dy = scale * (m * *dy - sdy - xh * sdx);
                        });
                    } else {
                        rows.for_each(|(dy, _)| *dy *= gsc);
                    }
                }
            }
            parents[0].accumulate_grad(g);
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
    assert!(lo <= hi, "clamp bounds {lo} > {hi}");
    let out = x.value_ref().map(|v| clamp_select(v, lo, hi));
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
    let sums = conv_op(Depthwise { c, geom }, out_dims, x, &ones);
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
        let c = clamp_select(v, 0.0, a);
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
    fn sample_lanes_picks_the_measured_orientation() {
        // EXPERIMENTS.md's forced-orientation table (48 channels, "same"
        // padding): per plane, kernel and stride, the orientation measured
        // faster at n = 1, 2, 4, 6, 8, 9, 12, 16 ('S' samples, 'C' columns;
        // cells within 5 % are either, '.').
        let table = [
            ((6, 3, 1), "CCCSSCSS"),
            ((6, 3, 2), "CCSSSSSS"),
            ((6, 5, 1), "CCCSSCSS"),
            ((3, 3, 1), "CCCSSSSS"),
            ((3, 5, 2), "CCSSSSSS"),
            ((16, 3, 1), "CCCC.CC."),
            ((16, 3, 2), "CCCSS.SS"),
        ];
        for ((hw, k, stride), want) in table {
            let geom = ConvGeom::new(hw, hw, k, k, stride, k / 2);
            let dw = Depthwise { c: 48, geom };
            for (nb, want) in [1, 2, 4, 6, 8, 9, 12, 16].into_iter().zip(want.chars()) {
                let got = if dw.sample_lanes(nb) { 'S' } else { 'C' };
                assert!(
                    want == '.' || got == want,
                    "{hw}x{hw} k{k} s{stride} n={nb}: {got}"
                );
            }
        }
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

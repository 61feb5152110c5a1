//! The dense `f32` tensor and its (non-differentiable) kernels.

use crate::shape::Shape;
use instantnet_parallel as parallel;
use std::fmt;
use std::ops::Range;

/// Kernels whose flop count falls below this run serially; thread spawn
/// costs more than it saves on small inputs.
pub(crate) const PAR_FLOP_THRESHOLD: usize = 1 << 18;

/// Rows of the register tile of [`matmul_into`].
const TILE_ROWS: usize = 4;
/// Columns of the register tile of [`matmul_into`]: two 4-lane vectors, so
/// the tile's eight accumulators and one rhs row fit the baseline register
/// file.
pub(crate) const TILE_COLS: usize = 8;

/// Computes `lhs · rhs` into the zeroed `out`: `lhs` holds `out.len() / n`
/// rows of `k` values, row `p` of `rhs` starts at `rhs[p * ldb]`, `out`
/// rows are `n` long. Every element is its terms summed from `+0` in
/// ascending `p`, a term whose `lhs` value is zero skipped, so a result
/// never depends on how rows or columns are chunked across threads or
/// calls.
///
/// Each [`TILE_ROWS`] × [`TILE_COLS`] block of outputs is one register tile
/// held across the whole `k` loop and stored once; the last `n %
/// TILE_COLS` columns are tiles too, over a zero-padded copy of their rhs
/// columns. Leftover rows run [`matmul_rows`], and so does every row when
/// one of its axpys there (`n` terms) is longer than a tile's
/// `TILE_ROWS·TILE_COLS·k`: the tile's fixed cost (its NaN guard, its
/// stores) is then the larger share, while the row loop's long axpys run at
/// the adders' rate. The tile adds the zero terms instead of skipping them:
/// `0·b = ±0` leaves a sum unchanged (a sum that starts at `+0` is never
/// `−0`) whenever `b` is finite, and otherwise is a NaN that no later term
/// removes. So a tile with no NaN is the skipping loop's result bit for
/// bit, and the rare tile with one is recomputed by the skipping loop.
pub(crate) fn matmul_into(
    lhs: &[f32],
    rhs: &[f32],
    ldb: usize,
    out: &mut [f32],
    k: usize,
    n: usize,
) {
    if n == 0 || k == 0 {
        return;
    }
    let m = out.len() / n;
    let mt = match n <= TILE_ROWS * TILE_COLS * k {
        true => m - m % TILE_ROWS,
        false => 0,
    };
    let (nt, edge) = (n - n % TILE_COLS, n % TILE_COLS);
    // The last columns' rhs, each row zero-padded to a tile's width.
    let mut padded = vec![0.0f32; usize::from(mt > 0 && edge > 0) * k * TILE_COLS];
    for (p, row) in padded.chunks_exact_mut(TILE_COLS).enumerate() {
        row[..edge].copy_from_slice(&rhs[p * ldb + nt..][..edge]);
    }
    for i0 in (0..mt).step_by(TILE_ROWS) {
        let (lhs, out) = (&lhs[i0 * k..], &mut out[i0 * n..(i0 + TILE_ROWS) * n]);
        for j0 in (0..nt).step_by(TILE_COLS) {
            match tile(lhs, (&rhs[j0..], ldb), k) {
                Some(acc) => store(acc, &mut out[j0..], n, TILE_COLS),
                None => matmul_rows(lhs, &rhs[j0..], ldb, &mut out[j0..], (k, n), TILE_COLS),
            }
        }
        if !padded.is_empty() {
            match tile(lhs, (&padded, TILE_COLS), k) {
                Some(acc) => store(acc, &mut out[nt..], n, edge),
                None => matmul_rows(lhs, &rhs[nt..], ldb, &mut out[nt..], (k, n), edge),
            }
        }
    }
    matmul_rows(&lhs[mt * k..], rhs, ldb, &mut out[mt * n..], (k, n), n);
}

/// One register tile of [`matmul_into`] at the start of `lhs` and `rhs`
/// (row pitch `ldb`), or `None` if an element came out NaN.
#[inline(always)]
fn tile(
    lhs: &[f32],
    (rhs, ldb): (&[f32], usize),
    k: usize,
) -> Option<[[f32; TILE_COLS]; TILE_ROWS]> {
    let [r0, r1, r2, r3]: [&[f32]; TILE_ROWS] = std::array::from_fn(|r| &lhs[r * k..][..k]);
    let mut acc = [[0.0f32; TILE_COLS]; TILE_ROWS];
    // Iterators over the lhs rows: the rhs row is the one bounds check.
    for (p, (((&a0, &a1), &a2), &a3)) in r0.iter().zip(r1).zip(r2).zip(r3).enumerate() {
        let b: &[f32; TILE_COLS] = rhs[p * ldb..][..TILE_COLS].try_into().expect("rhs row");
        for (acc, a) in acc.iter_mut().zip([a0, a1, a2, a3]) {
            for (s, &b) in acc.iter_mut().zip(b) {
                *s += a * b;
            }
        }
    }
    // A NaN anywhere makes this sum NaN (so may an overflow, which only
    // costs a recompute).
    let s: [f32; TILE_COLS] =
        std::array::from_fn(|j| (acc[0][j] + acc[1][j]) + (acc[2][j] + acc[3][j]));
    let s: [f32; 4] = std::array::from_fn(|j| s[j] + s[j + 4]);
    (!((s[0] + s[1]) + (s[2] + s[3])).is_nan()).then_some(acc)
}

/// The first `cols` columns of a tile into `out` (rows `n` apart).
#[inline(always)]
fn store(acc: [[f32; TILE_COLS]; TILE_ROWS], out: &mut [f32], n: usize, cols: usize) {
    for (r, acc) in acc.iter().enumerate() {
        out[r * n..][..cols].copy_from_slice(&acc[..cols]);
    }
}

/// The skipping row loop of [`matmul_into`] over the first `cols` columns:
/// per row, one axpy of each nonzero `lhs` value, `p` ascending.
fn matmul_rows(
    lhs: &[f32],
    rhs: &[f32],
    ldb: usize,
    out: &mut [f32],
    (k, n): (usize, usize),
    cols: usize,
) {
    if cols == 0 {
        return;
    }
    for (lhs_row, out_row) in lhs.chunks_exact(k).zip(out.chunks_mut(n)) {
        let out_row = &mut out_row[..cols];
        for (p, &a) in lhs_row.iter().enumerate() {
            if a != 0.0 {
                axpy(out_row, 1, a, &rhs[p * ldb..][..cols], 1);
            }
        }
    }
}

/// `dst[j * ds] += a * src[j * ss]` for every `j` both sides hold.
pub(crate) fn axpy(dst: &mut [f32], ds: usize, a: f32, src: &[f32], ss: usize) {
    if ds == 1 && ss == 1 {
        for (d, &v) in dst.iter_mut().zip(src) {
            *d += a * v;
        }
    } else {
        for (d, &v) in dst.iter_mut().step_by(ds).zip(src.iter().step_by(ss)) {
            *d += a * v;
        }
    }
}

/// `dst[j * rows + i] = src[i * ld + j]`: the `rows x cols` block at `src`
/// (row pitch `ld`), transposed into the dense `cols x rows` `dst`, eight
/// source rows at a time gathered into each destination row.
pub(crate) fn transpose_into(src: &[f32], ld: usize, rows: usize, cols: usize, dst: &mut [f32]) {
    let r8 = rows - rows % 8;
    for i in (0..r8).step_by(8) {
        let r: [&[f32]; 8] = std::array::from_fn(|a| &src[(i + a) * ld..][..cols]);
        for (j, d) in dst.chunks_exact_mut(rows).take(cols).enumerate() {
            d[i..i + 8].copy_from_slice(&std::array::from_fn::<f32, 8, _>(|a| r[a][j]));
        }
    }
    for (i, j) in (r8..rows).flat_map(|i| (0..cols).map(move |j| (i, j))) {
        dst[j * rows + i] = src[i * ld + j];
    }
}

/// `f32::round` without the libm call it lowers to on baseline x86-64,
/// bit-identical on every input. For `|v| < 2^23`, `|v| + 2^23` has an ulp of
/// 1, so the add rounds to the nearest integer (ties to even) and the
/// subtraction recovers it; the one case to repair is a tie resolved toward
/// zero (`|v| - t == 0.5`). From `2^23` up every `f32` is an integer.
#[inline]
pub fn round_half_away(v: f32) -> f32 {
    const INTEGRAL: f32 = 8_388_608.0;
    let a = v.abs();
    let t = (a + INTEGRAL) - INTEGRAL;
    let r = if a - t == 0.5 { t + 1.0 } else { t };
    if a < INTEGRAL {
        r.copysign(v)
    } else {
        v
    }
}

/// `v.clamp(lo, hi)` as two compare-selects a vector unit runs lane-wise:
/// `f32::clamp` asserts `lo <= hi` on every call, which keeps a loop that
/// calls it scalar unless the bounds can be hoisted. For `lo <= hi` it is
/// `f32::clamp` bit for bit — the same two compares in the same order
/// (raise to `lo`, then cut to `hi`), so a NaN passes through with its
/// payload and `±0` are returned as given. The sequential form measured
/// 5–10 % faster in the quantizer loops than one nested select.
#[inline(always)]
pub fn clamp_select(v: f32, lo: f32, hi: f32) -> f32 {
    let v = if v < lo { lo } else { v };
    if v > hi {
        hi
    } else {
        v
    }
}

/// Largest `|v|` over `x` (`+0.0` for an empty slice), NaN ignored: the
/// `x.iter().fold(0.0, |m, &v| m.max(v.abs()))` of a quantizer's scale, bit
/// for bit, as a branch-free integer max a vector unit runs lane-wise. A
/// non-NaN `|v|` orders like its bits with the sign cleared (`+inf`
/// included, `−0.0` becoming `+0.0`) — non-negative as `i32`, which needs no
/// unsigned compare — and every NaN pattern lies above `+inf`'s and counts
/// as `+0.0`, the value `f32::max` lets it lose to. Inlined so every caller
/// compiles it for its own target features (`instantnet-infer` instantiates
/// it under AVX2).
#[inline(always)]
pub fn max_abs(x: &[f32]) -> f32 {
    /// Independent maxima in flight: four 8-lane vectors.
    const LANES: usize = 32;
    let bits = |v: f32| {
        let b = (v.to_bits() & 0x7fff_ffff) as i32;
        if b > f32::INFINITY.to_bits() as i32 {
            0
        } else {
            b
        }
    };
    let mut lanes = [0i32; LANES];
    let mut chunks = x.chunks_exact(LANES);
    for chunk in chunks.by_ref() {
        for (m, &v) in lanes.iter_mut().zip(chunk) {
            *m = (*m).max(bits(v));
        }
    }
    let tail = chunks.remainder().iter().fold(0, |m, &v| m.max(bits(v)));
    f32::from_bits(lanes.into_iter().fold(tail, i32::max) as u32)
}

/// A dense, row-major `f32` n-d array.
///
/// All autograd operators in [`crate::ops`] bottom out in the plain kernels
/// defined here. `Tensor` is a value type: operations return new tensors
/// unless named `*_assign` / `*_scaled`.
///
/// # Example
///
/// ```
/// use instantnet_tensor::Tensor;
/// let a = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
/// let b = Tensor::full(&[2, 2], 1.0);
/// assert_eq!(a.add(&b).data(), &[2.0, 3.0, 4.0, 5.0]);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor with the given shape and backing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_vec(dims: Vec<usize>, data: Vec<f32>) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            shape.len(),
            data.len(),
            "data length {} does not match shape {shape}",
            data.len()
        );
        Tensor { shape, data }
    }

    /// All-zeros tensor.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::from(dims);
        let n = shape.len();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// All-ones tensor.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// Constant-filled tensor.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::from(dims);
        let n = shape.len();
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// Scalar (shape `[1]`) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::scalar(),
            data: vec![value],
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Per-axis extents.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total element count.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Immutable view of the backing data (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing data (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Scalar value of a one-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(self.len(), 1, "item() on non-scalar tensor {}", self.shape);
        self.data[0]
    }

    /// Returns the same data viewed under a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Tensor {
        let shape = Shape::from(dims);
        assert_eq!(
            shape.len(),
            self.len(),
            "reshape {} -> {shape} changes element count",
            self.shape
        );
        Tensor {
            shape,
            data: self.data.clone(),
        }
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Elementwise combination of two same-shaped tensors.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            self.shape, other.shape,
            "zip_map shape mismatch {} vs {}",
            self.shape, other.shape
        );
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Elementwise sum.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise product (Hadamard).
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a * b)
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// In-place `self += other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(
            self.shape, other.shape,
            "add_assign shape mismatch {} vs {}",
            self.shape, other.shape
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place `self += s * other` (axpy).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_scaled_assign(&mut self, other: &Tensor, s: f32) {
        assert_eq!(
            self.shape, other.shape,
            "add_scaled_assign shape mismatch {} vs {}",
            self.shape, other.shape
        );
        axpy(&mut self.data, 1, s, &other.data, 1);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        self.sum() / self.len() as f32
    }

    /// Largest absolute value (0 for the impossible empty case), NaN
    /// ignored: [`max_abs`] of the data.
    pub fn max_abs(&self) -> f32 {
        max_abs(&self.data)
    }

    /// Index of the maximum element of a 1-d slice of `len` starting at
    /// `offset`; used for per-row argmax.
    fn argmax_slice(&self, offset: usize, len: usize) -> usize {
        let mut best = 0;
        let mut best_v = f32::NEG_INFINITY;
        for i in 0..len {
            let v = self.data[offset + i];
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        best
    }

    /// Per-row argmax of a `[rows, cols]` tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.shape.rank(), 2, "argmax_rows needs a matrix");
        let (rows, cols) = (self.shape.dim(0), self.shape.dim(1));
        (0..rows)
            .map(|r| self.argmax_slice(r * cols, cols))
            .collect()
    }

    /// Row-wise softmax of a `[rows, cols]` tensor (numerically stabilized).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn softmax_rows(&self) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "softmax_rows needs a matrix");
        let (rows, cols) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = vec![0.0f32; rows * cols];
        for r in 0..rows {
            let row = &self.data[r * cols..(r + 1) * cols];
            let m = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
            let mut z = 0.0f32;
            for c in 0..cols {
                let e = (row[c] - m).exp();
                out[r * cols + c] = e;
                z += e;
            }
            for c in 0..cols {
                out[r * cols + c] /= z;
            }
        }
        Tensor::from_vec(vec![rows, cols], out)
    }

    /// Matrix product of `[m, k] x [k, n] -> [m, n]`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank 2 or the inner dims disagree.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "matmul lhs must be a matrix");
        assert_eq!(other.shape.rank(), 2, "matmul rhs must be a matrix");
        let (m, k) = (self.shape.dim(0), self.shape.dim(1));
        let (k2, n) = (other.shape.dim(0), other.shape.dim(1));
        assert_eq!(k, k2, "matmul inner dims {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        // Output rows are independent (row i reads lhs row i and all of
        // rhs), so splitting over row chunks is bit-identical to the
        // serial loop for any thread count. Small products stay serial:
        // a single chunk covering every row.
        let rows_per_chunk = if 2 * m * k * n < PAR_FLOP_THRESHOLD {
            m
        } else {
            m.div_ceil(parallel::max_threads()).max(1)
        };
        let (lhs, rhs) = (&self.data, &other.data);
        parallel::par_chunks_mut(&mut out, rows_per_chunk * n, |ci, out_chunk| {
            let rows = ci * rows_per_chunk * k..(ci * rows_per_chunk + out_chunk.len() / n) * k;
            matmul_into(&lhs[rows], rhs, n, out_chunk, k, n);
        });
        Tensor::from_vec(vec![m, n], out)
    }

    /// Transpose of a matrix.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn transpose2d(&self) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "transpose2d needs a matrix");
        let (m, n) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = vec![0.0f32; m * n];
        transpose_into(&self.data, n, m, n, &mut out);
        Tensor::from_vec(vec![n, m], out)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        let preview: Vec<f32> = self.data.iter().take(8).copied().collect();
        write!(f, "{preview:?}")?;
        if self.len() > 8 {
            write!(f, "…")?;
        }
        Ok(())
    }
}

/// One conv plane's geometry: `h x w` input, `kh x kw` kernel, square
/// `stride`, zero `pad` on every side, `oh x ow` output — plus, per kernel
/// row and column, the span of outputs whose tap reads inside the plane.
/// Hoisting those spans out of the pixel loops is what lets every conv
/// kernel run bounds-free row segments.
pub struct ConvGeom {
    pub h: usize,
    pub w: usize,
    pub kh: usize,
    pub kw: usize,
    pub stride: usize,
    pub pad: usize,
    pub oh: usize,
    pub ow: usize,
    /// `ys[ki]`: output rows `oy` with `0 <= oy * stride + ki - pad < h`.
    pub ys: Vec<Range<usize>>,
    /// `xs[kj]`: output columns `ox` with `0 <= ox * stride + kj - pad < w`.
    pub xs: Vec<Range<usize>>,
}

impl ConvGeom {
    /// The caller ensures the kernel fits the padded plane (`h + 2 * pad >= kh`,
    /// likewise for `w`) and `stride >= 1`.
    pub fn new(h: usize, w: usize, kh: usize, kw: usize, stride: usize, pad: usize) -> Self {
        let oh = (h + 2 * pad - kh) / stride + 1;
        let ow = (w + 2 * pad - kw) / stride + 1;
        let span = |k: usize, in_len: usize, out_len: usize| {
            let lo = pad.saturating_sub(k).div_ceil(stride).min(out_len);
            let hi = (in_len + pad).saturating_sub(k).div_ceil(stride);
            lo..hi.clamp(lo, out_len)
        };
        ConvGeom {
            h,
            w,
            kh,
            kw,
            stride,
            pad,
            oh,
            ow,
            ys: (0..kh).map(|ki| span(ki, h, oh)).collect(),
            xs: (0..kw).map(|kj| span(kj, w, ow)).collect(),
        }
    }
}

/// Pairs one plane with its `kh * kw` patch rows (`ki`-major, row `t` at
/// offset `t * ld`, `oh * ow` values each): calls `seg(patch_at, plane_at,
/// len)` for every in-plane row segment, taps in ascending `(ki, kj)` and
/// rows ascending within a tap. Plane positions inside a segment are
/// `g.stride` apart; padding positions are never visited.
fn for_each_segment(g: &ConvGeom, ld: usize, mut seg: impl FnMut(usize, usize, usize)) {
    for (ki, ys) in g.ys.iter().enumerate() {
        for (kj, xs) in g.xs.iter().enumerate().filter(|(_, xs)| !xs.is_empty()) {
            let (row, ix0) = ((ki * g.kw + kj) * ld, xs.start * g.stride + kj - g.pad);
            for oy in ys.clone() {
                let iy = oy * g.stride + ki - g.pad;
                seg(row + oy * g.ow + xs.start, iy * g.w + ix0, xs.len());
            }
        }
    }
}

/// Unfolds one `[h, w]` plane into patch rows at `dst`; `ld` and the offset
/// of `dst` place a sample's columns inside a wider matrix.
fn unfold_plane<T: Copy>(plane: &[T], dst: &mut [T], ld: usize, g: &ConvGeom) {
    for_each_segment(g, ld, |at, from, len| {
        let out = &mut dst[at..at + len];
        // At stride 1 the gather is one span copy of the input row.
        if g.stride == 1 {
            out.copy_from_slice(&plane[from..from + len]);
        } else {
            for (o, &v) in out.iter_mut().zip(plane[from..].iter().step_by(g.stride)) {
                *o = v;
            }
        }
    });
}

/// Adjoint of [`unfold_plane`]: accumulates patch rows back into `plane`, in
/// [`for_each_segment`]'s order — the order every `dx` element is summed in.
pub(crate) fn fold_plane(src: &[f32], ld: usize, plane: &mut [f32], g: &ConvGeom) {
    for_each_segment(g, ld, |at, to, len| {
        axpy(&mut plane[to..], g.stride, 1.0, &src[at..at + len], 1);
    });
}

/// Batch-level `im2col` of `x` `[n, c, h, w]` into one
/// `[c * kh * kw, n * oh * ow]` matrix; sample `i` owns columns
/// `i * oh * ow..(i + 1) * oh * ow` of every row. Generic over the element so
/// the integer engine unfolds activation codes with the unfold training uses;
/// padding positions take `T::default()`.
pub fn im2col_batch<T: Copy + Default + Send + Sync>(
    x: &[T],
    n: usize,
    c: usize,
    g: &ConvGeom,
) -> Vec<T> {
    let (plane, p) = (g.h * g.w, g.oh * g.ow);
    let mut out = vec![T::default(); c * g.kh * g.kw * n * p];
    // Channel ci owns the contiguous output rows [ci*kh*kw, (ci+1)*kh*kw),
    // so channels parallelize with disjoint writes and no ordering effects.
    parallel::gate(out.len() >= PAR_FLOP_THRESHOLD, || {
        parallel::par_chunks_mut(&mut out, g.kh * g.kw * n * p, |ci, chunk| {
            for i in 0..n {
                let src = &x[(i * c + ci) * plane..(i * c + ci + 1) * plane];
                unfold_plane(src, &mut chunk[i * p..], n * p, g);
            }
        })
    });
    out
}

/// Lanes of one depthwise accumulator.
pub(crate) const LANES: usize = 8;
/// Lanes of a column-lane depthwise accumulator over a row of at most four
/// (a 3×3 plane, a kernel row's taps): four wastes less than [`LANES`].
pub(crate) const COL_LANES: usize = 4;
/// Accumulators one [`chains`] call keeps in flight.
const CHAINS: usize = 4;

/// One accumulator's job in a [`sweep`]: `(frame offset, where its lane 0
/// is stored, lanes stored)`.
#[derive(Clone, Copy, Default)]
pub(crate) struct Unit(pub usize, pub usize, pub usize);

/// Up to [`CHAINS`] units over one term list, run by one [`chains`] call;
/// unit offsets are from `base`, and every unit reads within `span` of it.
pub(crate) struct Block {
    list: usize,
    n: usize,
    base: usize,
    span: usize,
    units: [Unit; CHAINS],
}

/// `acc[b][l] = Σ a[l]·frame[at + units[b].0 + l]` over `terms` `(a, at)` in
/// order, every chain from `+0` and held in registers across all its terms;
/// then lane `l < min(u.2, lanes)` of unit `u` is stored at `out[o + u.1 +
/// l·stride]`, straight from the accumulator.
#[inline(always)]
fn chains<const L: usize, const B: usize>(
    frame: &[f32],
    units: [Unit; B],
    (base, span): (usize, usize),
    terms: impl Iterator<Item = ([f32; L], usize)>,
    out: &mut [f32],
    (o, stride, lanes): (usize, usize, usize),
) {
    let mut acc = [[0.0f32; L]; B];
    for (a, at) in terms {
        // One window per term (the block's base may wrap below zero, its
        // terms never do): each unit's read is then a check that does not
        // change from term to term.
        let win = &frame[at.wrapping_add(base)..][..span];
        for (acc, u) in acc.iter_mut().zip(&units) {
            let v: &[f32; L] = win[u.0..u.0 + L].try_into().expect("L lanes");
            for ((s, &a), &v) in acc.iter_mut().zip(&a).zip(v) {
                *s += a * v;
            }
        }
    }
    // Through `black_box` the stores get the accumulators whole: otherwise
    // LLVM regroups lanes of different accumulators inside the term loop to
    // suit the lane-by-lane stores, a shuffle on every term.
    let acc = std::hint::black_box(acc);
    for (u, acc) in units.iter().zip(&acc) {
        let (at, n) = (o + u.1, u.2.min(lanes));
        match (stride, n == L) {
            (1, true) => out[at..at + L].copy_from_slice(acc),
            (_, true) => (0..L).for_each(|l| out[at + l * stride] = acc[l]),
            _ => (0..n).for_each(|l| out[at + l * stride] = acc[l]),
        }
    }
}

/// The one accumulate loop of the depthwise passes: runs each block's units
/// through [`chains`] over its list's terms, `terms(list)`.
pub(crate) fn sweep<const L: usize, I: Iterator<Item = ([f32; L], usize)>>(
    frame: &[f32],
    blocks: &[Block],
    terms: impl Fn(usize) -> I,
    out: &mut [f32],
    store: (usize, usize, usize),
) {
    for b in blocks {
        let (unit, terms, at) = (|i: usize| b.units[i], terms(b.list), (b.base, b.span));
        match b.n {
            1 => chains::<L, 1>(frame, std::array::from_fn(unit), at, terms, out, store),
            2 => chains::<L, 2>(frame, std::array::from_fn(unit), at, terms, out, store),
            3 => chains::<L, 3>(frame, std::array::from_fn(unit), at, terms, out, store),
            _ => chains::<L, CHAINS>(frame, std::array::from_fn(unit), at, terms, out, store),
        }
    }
}

/// [`sweep`] with each list's `(w, offset)` terms, `terms(list)`, broadcast
/// to the lanes: [`LANES`] of them if `wide`, else [`COL_LANES`].
pub(crate) fn sweep_splat<I: Iterator<Item = (f32, usize)>>(
    wide: bool,
    (frame, blocks): (&[f32], &[Block]),
    terms: impl Fn(usize) -> I,
    out: &mut [f32],
    store: (usize, usize, usize),
) {
    match wide {
        true => sweep(
            frame,
            blocks,
            |l| terms(l).map(|(w, at)| ([w; LANES], at)),
            out,
            store,
        ),
        false => sweep(
            frame,
            blocks,
            |l| terms(l).map(|(w, at)| ([w; COL_LANES], at)),
            out,
            store,
        ),
    }
}

/// Runs of indices below `n` that one unit's lanes cover: `x0, x0 + stride,
/// …`, at most `width` of them.
fn lane_runs(n: usize, stride: usize, width: usize) -> Vec<(usize, usize)> {
    let phase = |a: usize| {
        let m = (n - a).div_ceil(stride);
        (0..m)
            .step_by(width)
            .map(move |q| (a + stride * q, (m - q).min(width)))
    };
    (0..stride.min(n)).flat_map(phase).collect()
}

/// The lanes of a column-lane accumulator over rows of `n` indices.
pub(crate) fn col_lanes(n: usize) -> usize {
    if n <= COL_LANES {
        COL_LANES
    } else {
        LANES
    }
}

/// One depthwise pass's blocks and term lists: for each of `nb` stacked
/// planes (one with sample lanes) and each of `rows` rows, the
/// [`lane_runs`] of `(n, stride)` — `width` indices each, or one with
/// sample lanes, whose unit stores its lanes a sample apart — as units,
/// [`CHAINS`] of one term list to a block. `place(plane, row, first index,
/// indices)` gives `(terms, frame offset, out)`; equal term lists are one.
pub(crate) fn plan(
    (nb, samples, rows): (usize, bool, usize),
    (n, stride, width): (usize, usize, usize),
    place: impl Fn(usize, usize, usize, usize) -> (Vec<(usize, usize)>, usize, usize),
) -> (Vec<Block>, Vec<Vec<(usize, usize)>>) {
    let (members, runs) = match samples {
        true => (1, lane_runs(n, 1, 1)),
        false => (nb, lane_runs(n, stride, width)),
    };
    let (mut units, mut lists) = (Vec::new(), Vec::<Vec<_>>::new());
    for (i, y) in (0..members).flat_map(|i| (0..rows).map(move |y| (i, y))) {
        for &(x0, n) in &runs {
            let (terms, base, out) = place(i, y, x0, n);
            let list = lists
                .iter()
                .position(|l| *l == terms)
                .unwrap_or(lists.len());
            if list == lists.len() {
                lists.push(terms);
            }
            units.push((list, Unit(base, out, if samples { LANES } else { n })));
        }
    }
    // Units come in ascending offsets (some wrapped below zero) and keep
    // that order within a list: a block's first is its window's base. (Only
    // an empty list, which reads nothing, may hold units out of order.)
    units.sort_by_key(|u| u.0);
    let runs = units.chunk_by(|a, b| a.0 == b.0);
    let blocks = runs.flat_map(|run| run.chunks(CHAINS)).map(|b| {
        let rel = |u: &Unit| Unit(u.0.wrapping_sub(b[0].1 .0), u.1, u.2);
        Block {
            list: b[0].0,
            n: b.len(),
            base: b[0].1 .0,
            span: rel(&b[b.len() - 1].1).0.saturating_add(LANES),
            units: std::array::from_fn(|i| b.get(i).map_or(Unit::default(), |u| rel(&u.1))),
        }
    });
    (blocks.collect(), lists)
}

/// The layout of a depthwise pass's frame: `members` dense `(h, w)` planes
/// of a `rows x cols` grid with their origin at `origin`, a position's
/// offset `at(y, x) − shift`. With sample lanes it holds only the planes,
/// [`LANES`] interleaved per position (`shift` is the origin's offset: no
/// unit reads outside the planes); otherwise each of a block's planes is a
/// member of its own inside zeros, `member` apart, its columns split into
/// `stride` phases `phase` apart so that outputs `stride` apart read
/// neighbours.
pub(crate) struct Frame {
    row: usize,
    phase: usize,
    step: usize,
    stride: usize,
    pub members: usize,
    pub member: usize,
    origin: (usize, usize),
    plane: (usize, usize),
    pub shift: usize,
    /// Values in the frame.
    pub len: usize,
}

impl Frame {
    pub(crate) fn new(
        samples: bool,
        nb: usize,
        (rows, cols, stride): (usize, usize, usize),
        origin: (usize, usize),
        (h, w): (usize, usize),
    ) -> Frame {
        // Column lanes leave slack past each phase for a run's last unit.
        let (step, phase, stride, members) = match samples {
            true => (LANES, 0, 1, LANES),
            false => (1, cols.div_ceil(stride) + 2 * LANES, stride, nb),
        };
        let row = if samples { w * LANES } else { stride * phase };
        let member = if samples { 1 } else { rows * row };
        let shift = usize::from(samples) * (origin.0 * row + origin.1 * LANES);
        let len = if samples { h * row } else { nb * member };
        Frame {
            row,
            phase,
            step,
            stride,
            members,
            member,
            origin,
            plane: (h, w),
            shift,
            len,
        }
    }

    pub(crate) fn at(&self, y: usize, x: usize) -> usize {
        // No runtime division where there are no phases: plans call this
        // for every unit, tap and position.
        match self.stride {
            1 => y * self.row + x * self.step,
            s => y * self.row + x % s * self.phase + x / s * self.step,
        }
    }

    /// Copies into `frame`, as member `m`, the dense plane of sample `i0 +
    /// m` at `src[(i0 + m)·step + at..]` — sample `nb − 1`'s past the
    /// block's end, so a short sample group repeats its last sample; the
    /// rest of a column-lane frame keeps its zeros. Sample lanes are
    /// gathered a position at a time, [`LANES`] planes into one store.
    pub(crate) fn fill(
        &self,
        frame: &mut [f32],
        src: &[f32],
        (i0, nb): (usize, usize),
        (step, at): (usize, usize),
    ) {
        let (h, w) = self.plane;
        let plane = |m: usize| &src[(i0 + m).min(nb - 1) * step + at..][..h * w];
        if self.step == LANES {
            let planes: [&[f32]; LANES] = std::array::from_fn(plane);
            for (p, d) in frame.chunks_exact_mut(LANES).enumerate() {
                d.copy_from_slice(&std::array::from_fn::<f32, LANES, _>(|l| planes[l][p]));
            }
            return;
        }
        let (y0, x0) = self.origin;
        for m in 0..self.members {
            for (r, dense) in plane(m).chunks_exact(w).enumerate() {
                let at = m * self.member + self.at(y0 + r, 0);
                // Phase by phase, each a contiguous run of the frame; element
                // copies, not one `memcpy` call per short row.
                for x in 0..self.stride.min(w) {
                    let dst = frame[at + self.at(0, x0 + x)..].iter_mut();
                    match self.stride {
                        1 => dst.zip(dense).for_each(|(d, &v)| *d = v),
                        s => dst
                            .zip(dense[x..].iter().step_by(s))
                            .for_each(|(d, &v)| *d = v),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_select_is_f32_clamp_bit_for_bit() {
        let bits = [
            0x7fc0_0000u32, // quiet NaN
            0x7fc0_1234,    // quiet NaN with a payload
            0xffc0_0001,    // negative quiet NaN
            0x7f80_0001,    // signalling NaNs
            0xff80_0abc,
            0x0000_0000, // ±0
            0x8000_0000,
            0x7f80_0000, // ±inf
            0xff80_0000,
            0x0000_0001, // subnormals
            0x807f_ffff,
            0x0080_0000, // smallest normal
        ];
        let specials = bits.map(f32::from_bits);
        for (lo, hi) in [
            (-1.0f32, 1.0),
            (-7.0, 7.0),
            (-127.0, 127.0),
            (-32_767.0, 32_767.0),
            (0.0, 1.0),
            (0.0, 6.0),
            (0.0, f32::INFINITY),
            (-0.0, 0.0),
        ] {
            // The bounds themselves, one ulp either side, and twice as far.
            let edges = [lo, hi].into_iter().flat_map(|b| {
                let up = |v: f32| f32::from_bits(v.to_bits().wrapping_add(1));
                let down = |v: f32| f32::from_bits(v.to_bits().wrapping_sub(1));
                [b, up(b), down(b), 2.0 * b, -b]
            });
            for v in specials.into_iter().chain(edges) {
                let (got, want) = (clamp_select(v, lo, hi), v.clamp(lo, hi));
                assert_eq!(got.to_bits(), want.to_bits(), "{v:e} in [{lo}, {hi}]");
            }
        }
    }

    #[test]
    fn round_half_away_is_libm_round_bit_for_bit() {
        // Every 4099th bit pattern (all exponents, both signs, NaNs and
        // infinities included) plus each tie and its neighbours up to 2^24.
        let sweep = (0..=u32::MAX).step_by(4099).map(f32::from_bits);
        let ties = (0..1 << 24).step_by(1 << 10).flat_map(|i| {
            let t = i as f32 + 0.5;
            [
                t,
                -t,
                f32::from_bits(t.to_bits() - 1),
                f32::from_bits(t.to_bits() + 1),
            ]
        });
        for v in sweep
            .chain(ties)
            .chain([0.0, -0.0, 0.5, -0.5, 0.49999997, 8388607.5])
        {
            let (got, want) = (round_half_away(v), v.round());
            assert!(
                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                "round({v:?}): {got:?} vs {want:?}"
            );
        }
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let eye = Tensor::from_vec(vec![2, 2], vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&eye), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(vec![3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose2d().transpose2d(), a);
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let s = a.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.data()[r * 3..(r + 1) * 3].iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let a = Tensor::from_vec(vec![1, 2], vec![1000.0, 1001.0]);
        let s = a.softmax_rows();
        assert!(s.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn im2col_col2im_adjoint_on_ones() {
        // col2im (`fold_plane`) of im2col counts the patches covering each pixel.
        let (c, h, w, k, s, p) = (1, 4, 4, 3, 1, 1);
        let input = vec![1.0f32; c * h * w];
        let g = ConvGeom::new(h, w, k, k, s, p);
        let cols = im2col_batch(&input, 1, c, &g);
        assert_eq!((g.oh, g.ow), (4, 4));
        let mut back = vec![0.0f32; h * w];
        fold_plane(&cols, g.oh * g.ow, &mut back, &g);
        // Centre pixels are covered by all 9 offsets; corners by 4.
        assert_eq!(back[5], 9.0);
        assert_eq!(back[0], 4.0);
    }

    #[test]
    fn im2col_stride_two_shrinks_output() {
        let (c, h, w) = (2, 8, 8);
        let input = vec![0.5f32; c * h * w];
        let g = ConvGeom::new(h, w, 3, 3, 2, 1);
        let cols = im2col_batch(&input, 1, c, &g);
        assert_eq!((g.oh, g.ow), (4, 4));
        assert_eq!(cols.len(), 2 * 9 * 16);
    }

    #[test]
    fn argmax_rows_picks_max() {
        let a = Tensor::from_vec(vec![2, 3], vec![0.1, 0.9, 0.0, 1.0, -5.0, 0.5]);
        assert_eq!(a.argmax_rows(), vec![1, 0]);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_length_checked() {
        let _ = Tensor::from_vec(vec![2, 2], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "matmul inner dims")]
    fn matmul_dim_mismatch_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = a.reshape(&[3, 2]);
        assert_eq!(b.data(), a.data());
        assert_eq!(b.dims(), &[3, 2]);
    }

    #[test]
    fn add_scaled_assign_is_axpy() {
        let mut a = Tensor::from_vec(vec![2], vec![1.0, 2.0]);
        let b = Tensor::from_vec(vec![2], vec![10.0, 20.0]);
        a.add_scaled_assign(&b, 0.5);
        assert_eq!(a.data(), &[6.0, 12.0]);
    }
}

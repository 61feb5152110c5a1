//! The dense `f32` tensor and its (non-differentiable) kernels.

use crate::shape::Shape;
use instantnet_parallel as parallel;
use std::fmt;
use std::ops::Range;

/// Kernels whose flop count falls below this run serially; thread spawn
/// costs more than it saves on small inputs.
pub(crate) const PAR_FLOP_THRESHOLD: usize = 1 << 18;

/// Depth of the k-dimension blocking in [`matmul_into`]: one block of
/// rhs rows (64 × n floats) stays cache-resident while every output row of
/// the chunk accumulates it.
const K_BLOCK: usize = 64;

/// Accumulates `lhs · rhs` into `out` without allocating: `lhs` holds
/// `out.len() / n` rows of `k` values, row `p` of `rhs` starts at
/// `rhs[p * ldb]`, `out` rows are `n` long. Every element receives its terms
/// in ascending `p` (zero `lhs` values are skipped), so a result never
/// depends on how rows or columns are chunked across threads or calls.
pub(crate) fn matmul_into(
    lhs: &[f32],
    rhs: &[f32],
    ldb: usize,
    out: &mut [f32],
    k: usize,
    n: usize,
) {
    for p0 in (0..k).step_by(K_BLOCK) {
        let p1 = (p0 + K_BLOCK).min(k);
        for (lhs_row, out_row) in lhs.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
            // i-k-j order: streams the rhs row-major, good cache behaviour.
            for p in p0..p1 {
                let a = lhs_row[p];
                if a == 0.0 {
                    continue;
                }
                axpy(out_row, 1, a, &rhs[p * ldb..p * ldb + n], 1);
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
/// (row pitch `ld`), transposed into the dense `cols x rows` `dst`.
pub(crate) fn transpose_into(src: &[f32], ld: usize, rows: usize, cols: usize, dst: &mut [f32]) {
    for i in 0..rows {
        let row = &src[i * ld..i * ld + cols];
        for (d, &v) in dst[i..].iter_mut().step_by(rows).zip(row) {
            *d = v;
        }
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

    /// Largest absolute value (0 for the impossible empty case).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
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

#[cfg(test)]
mod tests {
    use super::*;

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

//! A forward compiled once: per (width, input shape, kernel table) a list of
//! [`Step`]s, run over one per-thread [`Arena`].
//!
//! **Plan.** The paper's AutoMapper fixes each layer's mapping before
//! anything executes; so does [`Plan::compile`], on the first forward of a
//! (width, input shape, table). Each step records what `crate::route` picks
//! for its layer — the arithmetic, what the lanes hold, the operand's
//! interleave group, block split and patch table — and which activation
//! slots it reads and writes. A forward is then a loop over steps with no
//! route derivation and no allocation ([`Plans`] keeps them; the first shape
//! of each batch size up to 64 is looked up without a lock).
//!
//! **Arena.** Each forward-calling thread owns one [`Arena`] that grows to
//! the largest plan it has run. Activations ping-pong between slots of one
//! f32 buffer (a residual's input stays pinned until its add); every layer
//! carves its scratch — operand, column sums, accumulators, frames, the
//! per-worker pieces of a parallel split — from the same pools at offset 0.
//! After warm-up, a forward on one kernel thread (as a serving worker runs
//! it) makes no heap call but the returned tensor's; a parallel region also
//! spawns its workers (`std::thread::scope`) and lists their runs, which
//! allocates.
//!
//! **Chained epilogue.** An activation op folds into the store of the step
//! before it, and each step records every sample's max-abs of what it just
//! stored, in cache, with the table's vector `max_abs`; the next layer builds
//! its grid from that number. The stored values are the ones the separate
//! ops computed, so outputs are bit-identical (DESIGN.md §6g).

use crate::exec::{
    act, cut, depthwise, gemm, ActRule, DenseF32, DwStep, Fused, FusedLane, GemmStep, Input, Route,
    TierF32, TierI32, TierI64, OPERAND_TIME, PATCH_BLOCK_BYTES,
};
use crate::route::{describe, dw_lanes, Arith, Lanes};
use crate::simd::{kernels, Kernels};
use crate::{is_depthwise, Accum, KernelWeights, OpProfile, PackedGemm, PackedOp};
use instantnet_nn::layers::Activation;
use instantnet_quant::Quantizer;
use instantnet_tensor::tensor::ConvGeom;
use instantnet_tensor::Tensor;
use std::cell::RefCell;
use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Arena
// ---------------------------------------------------------------------------

/// A lane type a layer carves from the [`Pools`].
pub(crate) trait Pooled: Copy + Default + Send + Sync + 'static {
    #[doc(hidden)]
    fn count(n: &mut Needs) -> &mut usize;
    #[doc(hidden)]
    fn part<'c, 'a>(c: &'c mut Carve<'a>) -> &'c mut &'a mut [Self];
}

macro_rules! pools {
    ($($t:ident),*) => {
        /// One thread's per-layer scratch: a pool of lanes per type, grown
        /// to the most any layer it ran asked for.
        #[derive(Default)]
        pub(crate) struct Pools {
            $($t: Vec<$t>,)*
        }

        /// The lanes of each type one layer carves.
        #[derive(Default, Clone, Copy)]
        pub(crate) struct Needs {
            $($t: usize,)*
        }

        /// One layer's carving of the pools: what [`Carve::take`] has not
        /// handed out yet.
        pub(crate) struct Carve<'a> {
            $($t: &'a mut [$t],)*
        }

        impl Pools {
            /// `need` lanes of each type from each pool's first cache line,
            /// the pools grown where they are short. What the lanes hold is
            /// the last layer's: every user writes what it reads.
            pub(crate) fn carve(&mut self, need: &Needs) -> Carve<'_> {
                Carve {
                    $($t: lined(&mut self.$t, need.$t),)*
                }
            }

            /// Every byte of every pool set to a non-zero poison.
            #[cfg(test)]
            fn poison(&mut self) {
                $(self.$t.fill(<$t>::from_ne_bytes([POISON; std::mem::size_of::<$t>()]));)*
            }
        }

        $(impl Pooled for $t {
            fn count(n: &mut Needs) -> &mut usize {
                &mut n.$t
            }
            fn part<'c, 'a>(c: &'c mut Carve<'a>) -> &'c mut &'a mut [$t] {
                &mut c.$t
            }
        })*
    };
}
pools!(f32, i8, i16, i32, i64);

/// The byte [`Arena::poison`] fills with.
#[cfg(test)]
const POISON: u8 = 0xA5;

/// Bytes every carved piece starts at a multiple of: a cache line, so a
/// kernel's vector loads never straddle two (unaligned pieces measured up to
/// 24 % slower on a 64-sample linear).
const LINE: usize = 64;

/// `len` lanes of `T` rounded up to whole cache lines.
pub(crate) fn whole_lines<T>(len: usize) -> usize {
    len.next_multiple_of(LINE / std::mem::size_of::<T>())
}

/// `len` lanes of `pool` from its first cache line, the pool grown where it
/// is short.
fn lined<T: Copy + Default>(pool: &mut Vec<T>, len: usize) -> &mut [T] {
    let pad = LINE / std::mem::size_of::<T>();
    if pool.len() < len + pad {
        pool.resize(len + pad, T::default());
    }
    let at = pool.as_ptr().align_offset(LINE).min(pad);
    &mut pool[at..][..len]
}

impl Needs {
    /// These needs and `count` more pieces of `len` lanes of `T`.
    pub(crate) fn with<T: Pooled>(mut self, count: usize, len: usize) -> Self {
        *T::count(&mut self) += count * whole_lines::<T>(len);
        self
    }
}

impl<'a> Carve<'a> {
    /// The next `len` lanes of `T`, from a cache line of their own.
    pub(crate) fn take<T: Pooled>(&mut self, len: usize) -> &'a mut [T] {
        &mut cut(T::part(self), whole_lines::<T>(len))[..len]
    }
}

/// One forward-calling thread's buffers: the activation slots, each slot's
/// per-sample max-abs, and the per-layer scratch pools.
#[derive(Default)]
pub(crate) struct Arena {
    acts: Vec<f32>,
    maxes: Vec<f32>,
    pools: Pools,
}

impl Arena {
    /// Every byte the arena holds set to a non-zero poison, so a lane a
    /// forward reads without writing shows in its output.
    #[cfg(test)]
    pub(crate) fn poison(&mut self) {
        let f = f32::from_ne_bytes([POISON; 4]);
        self.acts.fill(f);
        self.maxes.fill(f);
        self.pools.poison();
    }
}

thread_local! {
    /// This thread's arena.
    pub(crate) static ARENA: RefCell<Arena> = RefCell::new(Arena::default());
}

// ---------------------------------------------------------------------------
// Plan
// ---------------------------------------------------------------------------

/// Receives one [`OpProfile`] per step of a profiled forward.
pub(crate) type Sink<'a> = &'a mut (dyn FnMut(OpProfile) + 'a);

/// The GEMM driver on one route ([`gemm`]).
type GemmFn = fn(&GemmStep, Input, &mut [f32], &mut Pools, Activation);
/// The depthwise kernel on one tier ([`depthwise`]).
pub(crate) type DwFn = fn(&DwStep, Input, &mut [f32], &mut Pools, Activation);

/// An activation slot: an arena slot's index, `None` the forward's input.
type Slot = Option<usize>;

/// What a step computes.
pub(crate) enum Kind {
    /// A dense conv or linear on its route.
    Gemm(GemmStep, GemmFn),
    /// A depthwise conv on its tier.
    Depthwise(Box<DwStep>, DwFn),
    /// The step's activation, elementwise (a copy where it is `None`).
    Map,
    /// Global average pooling over planes of `hw`.
    Pool(usize),
    /// A residual's add, in place into the body's output: `dst += src`
    /// (the shortcut's), then the post-ReLU where it has one.
    Add(bool),
}

/// One layer as the plan compiled it.
pub(crate) struct Step {
    pub(crate) kind: Kind,
    src: Slot,
    dst: usize,
    /// Lanes of the input and the output.
    lens: (usize, usize),
    /// The activation folded into the store.
    fold: Activation,
    /// A raw-input stem, which reads its input as it comes.
    raw: bool,
    /// The profile label — kind, shape and route ([`describe`]) — in a
    /// plan compiled for a profiled forward; `None` in a cached one.
    label: Option<Box<Label>>,
}

/// A step's profile label: kind, shape and route.
type Label = (&'static str, String, String);

/// A forward compiled for one input shape on one kernel table.
pub(crate) struct Plan {
    dims: Vec<usize>,
    k: &'static Kernels,
    pub(crate) steps: Vec<Step>,
    /// Each slot's offset in the arena's activations, and their total.
    offsets: Vec<usize>,
    /// The output's dims.
    out: Vec<usize>,
}

/// Compiles op lists into steps, handing out activation slots: a slot is
/// free again once its last reader has been planned.
struct Compiler<'t> {
    k: &'static Kernels,
    n: usize,
    steps: Vec<Step>,
    sizes: Vec<usize>,
    free: Vec<usize>,
    tables: &'t Tables,
    labelled: bool,
}

/// Patch tables already built for a net's plans: one per sample, whatever
/// the batch, so every batch size's plan shares it.
type Tables = Mutex<Vec<Arc<[u32]>>>;

impl Compiler<'_> {
    /// `table`, or an equal one another plan already holds.
    fn intern(&self, table: Vec<u32>) -> Arc<[u32]> {
        let mut tables = self.tables.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(t) = tables.iter().find(|t| t[..] == table[..]) {
            return t.clone();
        }
        tables.push(Arc::from(table));
        tables.last().expect("just pushed").clone()
    }

    /// [`describe`] of `op` on `dims`, where the plan is labelled.
    fn label(
        &self,
        op: &PackedOp,
        dims: &[usize],
        route: Option<(Arith, Lanes)>,
    ) -> Option<Box<Label>> {
        self.labelled.then(|| Box::new(describe(op, dims, route)))
    }

    fn alloc(&mut self, len: usize) -> usize {
        let s = self.free.pop().unwrap_or_else(|| {
            self.sizes.push(0);
            self.sizes.len() - 1
        });
        self.sizes[s] = self.sizes[s].max(len);
        s
    }

    /// Plans `ops` on `cur` of `dims`; `owned` says whether the sequence may
    /// free `cur` (a residual's input stays pinned for its add). Returns the
    /// output's slot and dims.
    fn seq(
        &mut self,
        ops: &[PackedOp],
        mut cur: Slot,
        mut dims: Vec<usize>,
        owned: bool,
    ) -> (Slot, Vec<usize>) {
        let (mut own, mut last) = (owned, None::<usize>);
        for op in ops {
            let len: usize = dims.iter().product();
            let (kind, out_dims, raw, route) = match op {
                PackedOp::Act(Activation::None) => continue,
                PackedOp::Act(a) => {
                    // Fold into the store of the step that wrote `cur`.
                    if let Some(step) = last.map(|i| &mut self.steps[i]) {
                        if step.fold == Activation::None {
                            step.fold = *a;
                            continue;
                        }
                    }
                    let i = self.push(Kind::Map, cur, (len, dims.clone()), op, &dims, None);
                    self.steps[i].fold = *a;
                    (cur, last) = (Some(self.steps[i].dst), Some(i));
                    if own {
                        self.free.extend(self.steps[i].src);
                    }
                    own = true;
                    continue;
                }
                PackedOp::Conv {
                    gemm,
                    cg,
                    r,
                    s,
                    stride,
                    pad,
                    groups,
                    quantize_input,
                } => {
                    assert_eq!(dims.len(), 4, "conv input must be rank 4");
                    assert_eq!(dims[1], cg * groups, "conv input channel mismatch");
                    let geom = ConvGeom::new(dims[2], dims[3], *r, *s, *stride, *pad);
                    let out = vec![self.n, gemm.rows, geom.oh, geom.ow];
                    let (kind, route) = self.layer(gemm, geom, *groups, dims[1]);
                    (kind, out, !quantize_input, Some(route))
                }
                PackedOp::Linear { gemm } => {
                    assert_eq!(dims.len(), 2, "linear input must be rank 2");
                    assert_eq!(dims[1], gemm.cols, "linear in-feature mismatch");
                    // The pointwise conv on a 1×1 map: the `[n, f]` input
                    // read as `[n, f, 1, 1]`.
                    let geom = ConvGeom::new(1, 1, 1, 1, 1, 0);
                    let (kind, route) = self.layer(gemm, geom, 1, dims[1]);
                    (kind, vec![self.n, gemm.rows], false, Some(route))
                }
                PackedOp::GlobalAvgPool => {
                    assert_eq!(dims.len(), 4, "global average pool input must be rank 4");
                    (
                        Kind::Pool(dims[2] * dims[3]),
                        dims[..2].to_vec(),
                        false,
                        None,
                    )
                }
                PackedOp::Residual {
                    body,
                    shortcut,
                    post_relu,
                } => {
                    let (mut b, bdims) = self.seq(body, cur, dims.clone(), false);
                    let (s, sdims) = self.seq(shortcut, cur, dims.clone(), false);
                    assert_eq!(bdims, sdims, "residual branch shapes must match");
                    if b == cur {
                        // An empty body: add into a copy, never the input.
                        let i = self.push(Kind::Map, cur, (len, bdims.clone()), op, &dims, None);
                        b = Some(self.steps[i].dst);
                    }
                    let at = b.expect("the body wrote a slot");
                    let out_len = bdims.iter().product();
                    let label = self.label(op, &bdims, None);
                    self.steps.push(Step {
                        kind: Kind::Add(*post_relu),
                        src: s,
                        dst: at,
                        lens: (out_len, out_len),
                        fold: Activation::None,
                        raw: false,
                        label,
                    });
                    if s != cur {
                        self.free.extend(s);
                    }
                    if own {
                        self.free.extend(cur);
                    }
                    (cur, dims, own, last) = (b, bdims, true, Some(self.steps.len() - 1));
                    continue;
                }
            };
            let i = self.push(kind, cur, (len, out_dims.clone()), op, &dims, route);
            self.steps[i].raw = raw;
            if own {
                self.free.extend(cur);
            }
            (cur, dims, own, last) = (Some(self.steps[i].dst), out_dims, true, Some(i));
        }
        (cur, dims)
    }

    /// Pushes a step from `src` (`len` lanes) into a new slot of `out`
    /// dims, labelled as `op` on `dims`; returns its index.
    fn push(
        &mut self,
        kind: Kind,
        src: Slot,
        (len, out): (usize, Vec<usize>),
        op: &PackedOp,
        dims: &[usize],
        route: Option<(Arith, Lanes)>,
    ) -> usize {
        let out_len = out.iter().product();
        let dst = self.alloc(out_len);
        self.steps.push(Step {
            kind,
            src,
            dst,
            lens: (len, out_len),
            fold: Activation::None,
            raw: false,
            label: self.label(op, dims, route),
        });
        self.steps.len() - 1
    }

    /// A conv of `c` input channels in `groups` — a linear as the 1×1 conv
    /// on a 1×1 map — on its arithmetic ([`Arith::of`]): its tap table's
    /// tier where it has one (or f32 weights in a depthwise shape), else the
    /// GEMM route of its weights.
    fn layer(
        &self,
        g: &Arc<PackedGemm>,
        geom: ConvGeom,
        groups: usize,
        c: usize,
    ) -> (Kind, (Arith, Lanes)) {
        let arith = Arith::of(g);
        let taps = !g.storage.is_integer() && is_depthwise(c / groups, g.rows, groups);
        let tier: Option<DwFn> = match (arith, taps) {
            (Arith::F32, true) => Some(depthwise::<DenseF32>),
            (Arith::Tier(Accum::F32), _) => Some(depthwise::<TierF32>),
            (Arith::Tier(Accum::I32), _) => Some(depthwise::<TierI32>),
            (Arith::Tier(Accum::I64), _) if matches!(g.kernel, KernelWeights::Taps(_)) => {
                Some(depthwise::<TierI64>)
            }
            _ => None,
        };
        if let Some(run) = tier {
            let lanes = dw_lanes(&geom, self.k);
            let step = DwStep {
                gemm: g.clone(),
                geom,
                lanes,
            };
            return (Kind::Depthwise(Box::new(step), run), (arith, lanes));
        }
        match arith {
            Arith::F32 => self.gemm::<DenseF32>(arith, g, geom, groups),
            Arith::Tier(_) => self.gemm::<TierI64>(arith, g, geom, groups),
            Arith::FusedNibble => self.fused::<i8>(arith, g, geom, groups),
            Arith::FusedI8 => self.fused::<i16>(arith, g, geom, groups),
        }
    }

    /// [`Self::gemm`] on the fused route of `L`-lane codes: i32 accumulators
    /// where the layer's period covers a whole weight row, i64 ones where it
    /// does not.
    fn fused<L: FusedLane + Into<i64>>(
        &self,
        arith: Arith,
        g: &Arc<PackedGemm>,
        geom: ConvGeom,
        groups: usize,
    ) -> (Kind, (Arith, Lanes)) {
        let KernelWeights::Words { period, .. } = g.kernel else {
            unreachable!("Arith::of routes only layers with weight words here");
        };
        if g.cols.div_ceil(Fused::<L>::GROUP) <= period {
            self.gemm::<Fused<L, i32>>(arith, g, geom, groups)
        } else {
            self.gemm::<Fused<L, i64>>(arith, g, geom, groups)
        }
    }

    /// A dense conv on route `R`: its lanes and interleave group, its samples
    /// per operand block — the whole batch while a group's operand fits
    /// [`PATCH_BLOCK_BYTES`], else down to one — and, for a windowed conv,
    /// where each lane of its operand comes from.
    fn gemm<R: Route>(
        &self,
        arith: Arith,
        g: &Arc<PackedGemm>,
        geom: ConvGeom,
        groups: usize,
    ) -> (Kind, (Arith, Lanes)) {
        let p = geom.oh * geom.ow;
        let lanes = arith.gemm_lanes(g, (self.n, p), self.k);
        let bytes = (g.cols * p * std::mem::size_of::<R::Lane>()).max(1);
        let pointwise = geom.kh == 1 && geom.kw == 1 && geom.stride == 1 && geom.pad == 0;
        let ig = R::group(g, lanes);
        let step = GemmStep {
            gemm: g.clone(),
            groups,
            lanes,
            ig,
            per_block: (PATCH_BLOCK_BYTES / bytes).clamp(1, self.n),
            window: if pointwise {
                Arc::from([])
            } else {
                self.intern(window(&geom, g.cols, groups, ig))
            },
            p,
        };
        (Kind::Gemm(step, gemm::<R>), (arith, lanes))
    }
}

/// A windowed conv's patch matrix in interleave group `ig` as sources: for
/// each of `groups` groups of `q` rows — `im2col`'s `(channel, ki, kj)`, a
/// group's channels consecutive — per row group, pixel and row in the group,
/// that element's index into one sample's values; `u32::MAX` where the window
/// lies in the padding or the row is past `q`.
fn window(g: &ConvGeom, q: usize, groups: usize, ig: usize) -> Vec<u32> {
    let (taps, p) = (g.kh * g.kw, g.oh * g.ow);
    let mut table = Vec::with_capacity(groups * q.div_ceil(ig) * ig * p);
    for gi in 0..groups {
        for qi in 0..q.div_ceil(ig) {
            for (oy, ox) in (0..g.oh).flat_map(|oy| (0..g.ow).map(move |ox| (oy, ox))) {
                for r in qi * ig..(qi + 1) * ig {
                    let (ki, kj) = (r % taps / g.kw, r % g.kw);
                    let iy = (oy * g.stride + ki).wrapping_sub(g.pad);
                    let ix = (ox * g.stride + kj).wrapping_sub(g.pad);
                    table.push(if r < q && iy < g.h && ix < g.w {
                        let ch = (gi * q + r) / taps;
                        u32::try_from((ch * g.h + iy) * g.w + ix).expect("a sample indexes in u32")
                    } else {
                        u32::MAX
                    });
                }
            }
        }
    }
    table
}

impl Plan {
    /// Compiles `ops` for inputs of `dims` on table `k`, sharing patch
    /// tables through `tables`, its steps `labelled` for a profiled forward.
    pub(crate) fn compile(
        ops: &[PackedOp],
        dims: &[usize],
        k: &'static Kernels,
        tables: &Tables,
        labelled: bool,
    ) -> Plan {
        let mut c = Compiler {
            k,
            n: dims[0],
            steps: Vec::new(),
            sizes: Vec::new(),
            free: Vec::new(),
            tables,
            labelled,
        };
        let (_, out) = c.seq(ops, None, dims.to_vec(), false);
        c.steps.shrink_to_fit();
        let mut offsets = vec![0];
        for s in &c.sizes {
            offsets.push(offsets.last().unwrap() + s);
        }
        Plan {
            dims: dims.to_vec(),
            k,
            steps: c.steps,
            offsets,
            out,
        }
    }

    /// Runs the plan over `x` under `rule` in this thread's arena — a fresh
    /// one if a forward is already running on this thread. With a `sink`,
    /// every step is timed and reported as it finishes, its operand building
    /// separately; without one no clock is read.
    pub(crate) fn run(&self, x: &Tensor, rule: ActRule, sink: Option<Sink>) -> Tensor {
        ARENA.with(|arena| match arena.try_borrow_mut() {
            Ok(mut arena) => self.run_in(&mut arena, x, rule, sink),
            Err(_) => self.run_in(&mut Arena::default(), x, rule, sink),
        })
    }

    pub(crate) fn run_in(
        &self,
        a: &mut Arena,
        x: &Tensor,
        rule: ActRule,
        mut sink: Option<Sink>,
    ) -> Tensor {
        let (n, slots) = (self.dims[0], self.offsets.len() - 1);
        if a.acts.len() < self.offsets[slots] {
            a.acts.resize(self.offsets[slots], 0.0);
        }
        if a.maxes.len() < (slots + 1) * n {
            a.maxes.resize((slots + 1) * n, 0.0);
        }
        // Each sample's max-abs — the input's in the last row, then each
        // step's of what it just stored — for the next layer's grid, where
        // the grid reads one (SBM's).
        let sbm = rule.quantizes() && rule.quantizer == Quantizer::Sbm;
        let record = |maxes: &mut [f32], y: &[f32]| {
            if sbm {
                for (m, y) in maxes.iter_mut().zip(y.chunks(y.len() / n)) {
                    *m = (self.k.max_abs)(y);
                }
            }
        };
        let x = x.data();
        record(&mut a.maxes[slots * n..][..n], x);
        let lanes =
            |s: Slot, len: usize| s.map_or(0..0, |s| self.offsets[s]..self.offsets[s] + len);
        let row = |s: Slot| s.unwrap_or(slots) * n..(s.unwrap_or(slots) + 1) * n;
        let mut out = Vec::new();
        for (i, step) in self.steps.iter().enumerate() {
            let start = sink.is_some().then(|| {
                OPERAND_TIME.set(Some(Duration::ZERO));
                Instant::now()
            });
            let (src, dst) = (
                lanes(step.src, step.lens.0),
                lanes(Some(step.dst), step.lens.1),
            );
            let (x_max, y_max) = pair(&mut a.maxes, &[], row(step.src), row(Some(step.dst)));
            if i + 1 == self.steps.len() {
                // The last step stores straight into the returned tensor; an
                // add adds into a copy of the body's output.
                out = match step.kind {
                    Kind::Add(_) => a.acts[dst].to_vec(),
                    _ => vec![0.0; dst.len()],
                };
                let x = if src.is_empty() { x } else { &a.acts[src] };
                self.exec(step, (x, x_max), &mut out, &mut a.pools, rule);
            } else {
                let (x, y) = pair(&mut a.acts, x, src, dst);
                self.exec(step, (x, x_max), y, &mut a.pools, rule);
                record(y_max, y);
                #[cfg(test)]
                tests::observe(y, y_max);
            }
            if let (Some(sink), Some(start)) = (sink.as_deref_mut(), start) {
                let quantize = OPERAND_TIME.take().unwrap_or_default();
                let (kind, shape, route) = step.label.as_deref().cloned().unwrap_or_default();
                let elapsed = start.elapsed();
                sink(OpProfile {
                    kind,
                    shape,
                    route,
                    elapsed,
                    quantize,
                });
            }
        }
        if self.steps.is_empty() {
            out = x.to_vec();
        }
        Tensor::from_vec(self.out.clone(), out)
    }

    /// Runs one step over `x` of `n = x_max.len()` samples into `y`.
    fn exec(
        &self,
        step: &Step,
        (x, x_max): (&[f32], &[f32]),
        y: &mut [f32],
        pools: &mut Pools,
        rule: ActRule,
    ) {
        let quantizer = if step.raw {
            Quantizer::Identity
        } else {
            rule.quantizer
        };
        let rule = ActRule { quantizer, ..rule };
        let (k, n, fold) = (self.k, x_max.len(), step.fold);
        let input = Input {
            k,
            x,
            n,
            maxes: x_max,
            rule,
        };
        match &step.kind {
            Kind::Gemm(s, run) => run(s, input, y, pools, fold),
            Kind::Depthwise(s, run) => run(s, input, y, pools, fold),
            Kind::Map => y.iter_mut().zip(x).for_each(|(o, &v)| *o = act(fold, v)),
            Kind::Pool(hw) => {
                let inv = 1.0 / *hw as f32;
                for (o, plane) in y.iter_mut().zip(x.chunks(*hw)) {
                    *o = act(fold, plane.iter().fold(0.0, |a, &v| a + v) * inv);
                }
            }
            Kind::Add(post_relu) => {
                for (u, &v) in y.iter_mut().zip(x) {
                    let sum = *u + v;
                    *u = act(fold, if *post_relu { sum.max(0.0) } else { sum });
                }
            }
        }
    }
}

/// Lanes `src` of `buf` — `ext` where `src` is empty — and lanes `dst` of
/// `buf`, which must not overlap them.
fn pair<'a, T>(
    buf: &'a mut [T],
    ext: &'a [T],
    src: Range<usize>,
    dst: Range<usize>,
) -> (&'a [T], &'a mut [T]) {
    if src.is_empty() {
        return (ext, &mut buf[dst]);
    }
    if src.start >= dst.end {
        let (lo, hi) = buf.split_at_mut(src.start);
        (&hi[..src.len()], &mut lo[dst])
    } else {
        assert!(src.end <= dst.start, "a step's slots overlap");
        let (lo, hi) = buf.split_at_mut(dst.start);
        (&lo[src], &mut hi[..dst.len()])
    }
}

// ---------------------------------------------------------------------------
// The cache
// ---------------------------------------------------------------------------

/// Batch sizes whose first input shape a net looks its plan up for without a
/// lock.
const PLANNED_BATCH: usize = 64;
/// Kernel tables a plan can be compiled for (`SimdBackend`'s variants).
const TABLES: usize = 3;

/// One net's compiled plans, each compiled on first use and kept: per kernel
/// table and batch size up to [`PLANNED_BATCH`] the first input shape's, read
/// with one atomic load; any other shape or batch behind a lock; and the
/// patch tables they share.
pub(crate) struct Plans {
    first: Box<[OnceLock<Box<Plan>>]>,
    other: Mutex<Vec<Arc<Plan>>>,
    tables: Tables,
}

impl Plans {
    pub(crate) fn new() -> Plans {
        Plans {
            first: (0..TABLES * PLANNED_BATCH)
                .map(|_| OnceLock::new())
                .collect(),
            other: Mutex::default(),
            tables: Mutex::default(),
        }
    }

    /// Runs `ops` over `x` under `rule` on the active kernel table, through
    /// the plan of its input shape — with a `sink`, a labelled plan compiled
    /// for this forward.
    pub(crate) fn run(
        &self,
        ops: &[PackedOp],
        x: &Tensor,
        rule: ActRule,
        sink: Option<Sink>,
    ) -> Tensor {
        let (k, dims) = (kernels(), x.dims());
        if sink.is_some() {
            return Plan::compile(ops, dims, k, &self.tables, true).run(x, rule, sink);
        }
        let compile = || Plan::compile(ops, dims, k, &self.tables, false);
        if dims[0] <= PLANNED_BATCH {
            let cell = &self.first[k.backend as usize * PLANNED_BATCH + dims[0] - 1];
            let plan = cell.get_or_init(|| Box::new(compile()));
            if plan.dims == dims {
                return plan.run(x, rule, sink);
            }
        }
        let plan = {
            let mut other = self.other.lock().unwrap_or_else(PoisonError::into_inner);
            let found = other
                .iter()
                .find(|p| p.dims == dims && p.k.backend == k.backend);
            match found {
                Some(plan) => plan.clone(),
                None => {
                    other.push(Arc::new(compile()));
                    other.last().expect("just pushed").clone()
                }
            }
        };
        plan.run(x, rule, sink)
    }
}

/// Runs `ops` over `x` through a plan compiled for this call on the active
/// table — the uncached entry the kernel tests drive.
#[cfg(test)]
pub(crate) fn exec_ops(ops: &[PackedOp], x: &Tensor, rule: ActRule, sink: Option<Sink>) -> Tensor {
    let labelled = sink.is_some();
    Plan::compile(ops, x.dims(), kernels(), &Mutex::default(), labelled).run(x, rule, sink)
}

#[cfg(test)]
mod tests;

//! A warmed-up forward allocates only the tensor it returns: its plan is
//! compiled and its thread's arena grown by the first forward of each
//! (width, batch), so later ones make no other heap call. Counted by a
//! global allocator that tallies the calls of the thread under test.

use instantnet_infer::PackedModel;
use instantnet_nn::blocks::ConvBnAct;
use instantnet_nn::layers::{Activation, GlobalAvgPool, QuantLinear};
use instantnet_nn::{models, Module, Sequential};
use instantnet_parallel::with_threads;
use instantnet_quant::{BitWidthSet, Quantizer};
use instantnet_tensor::{init, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// `System`, counting this thread's allocations while [`COUNTING`] is set.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<usize> = const { Cell::new(0) };
}

fn tally() {
    if COUNTING.with(Cell::get) {
        CALLS.with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every call is forwarded to `System` unchanged; the tally touches
// only const-initialized thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Heap calls `f` makes on this thread.
fn calls<T>(f: impl FnOnce() -> T) -> (usize, T) {
    CALLS.with(|c| c.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (CALLS.with(Cell::get), out)
}

/// The serving CNN with 4-bit weights.
fn cnn(rng: &mut StdRng, n: usize) -> Sequential {
    let relu = Activation::Relu;
    let mut cnn = Sequential::new();
    cnn.push(Box::new(ConvBnAct::new(
        rng, "stem", 3, 8, 3, 2, 1, n, relu, false,
    )));
    cnn.push(Box::new(ConvBnAct::new(
        rng, "conv2", 8, 32, 3, 2, 1, n, relu, true,
    )));
    cnn.push(Box::new(GlobalAvgPool));
    cnn.push(Box::new(QuantLinear::new(rng, "fc1", 32, 256)));
    cnn.push(Box::new(QuantLinear::new(rng, "fc2", 256, 10)));
    cnn
}

/// MobileNetV2 and the serving CNN at every `large_range()` width and 24
/// bits (the f32 fallback on a grid): after two warm-up forwards, one more
/// `forward_batch_at` — and one `forward_at` — at batch 1, 8 and 16 makes
/// exactly the heap calls of building its output tensor (its data and its
/// dims), on one kernel thread as a serving worker runs.
#[test]
fn warm_forwards_allocate_only_their_output() {
    let mut widths: Vec<u8> = BitWidthSet::large_range()
        .widths()
        .iter()
        .map(|w| w.get())
        .collect();
    widths.push(24);
    let set = BitWidthSet::new(widths.clone()).unwrap();
    let n = set.len();
    let mut rng = StdRng::seed_from_u64(4);
    let cnn = cnn(&mut rng, n);
    let mbv2 = models::mobilenet_v2(0.25, 2, 10, (16, 16), n, 5);
    let nets: [(&str, &dyn Module, [usize; 3]); 2] =
        [("mbv2", &mbv2, [3, 16, 16]), ("cnn", &cnn, [3, 8, 8])];
    with_threads(1, || {
        for (name, net, dims) in nets {
            let packed = PackedModel::prepack(net, &set, Quantizer::Sbm).unwrap();
            for (i, bits) in widths.iter().enumerate() {
                for batch in [1usize, 8, 16] {
                    let x = init::uniform(&mut rng, &[batch, dims[0], dims[1], dims[2]], -0.3, 1.2);
                    for _ in 0..2 {
                        packed.forward_batch_at(i, &x);
                        packed.forward_at(i, &x);
                    }
                    let (got, y) = calls(|| packed.forward_batch_at(i, &x));
                    let (want, _) =
                        calls(|| Tensor::from_vec(y.dims().to_vec(), y.data().to_vec()));
                    let ctx = format!("{name} w{bits} batch {batch}");
                    assert_eq!(
                        got, want,
                        "forward_batch_at, {ctx}: heap calls beyond the output"
                    );
                    let (got, _) = calls(|| packed.forward_at(i, &x));
                    assert_eq!(got, want, "forward_at, {ctx}: heap calls beyond the output");
                }
            }
        }
    });
}

/// Inputs of two spatial shapes at one batch size, and a batch past the
/// sizes looked up without a lock: once each shape has run, every forward
/// of any of them still makes only its output's heap calls, so none of them
/// compiles its plan again.
#[test]
fn every_input_shape_keeps_its_plan() {
    let set = BitWidthSet::new(vec![4]).unwrap();
    let mut rng = StdRng::seed_from_u64(6);
    let packed = PackedModel::prepack(&cnn(&mut rng, 1), &set, Quantizer::Sbm).unwrap();
    let inputs: Vec<Tensor> = [[8, 3, 8, 8], [8, 3, 12, 12], [80, 3, 8, 8]]
        .iter()
        .map(|dims| init::uniform(&mut rng, dims, -0.3, 1.2))
        .collect();
    with_threads(1, || {
        for x in &inputs {
            packed.forward_batch_at(0, x);
        }
        for _ in 0..2 {
            for x in &inputs {
                let (got, y) = calls(|| packed.forward_batch_at(0, x));
                let (want, _) = calls(|| Tensor::from_vec(y.dims().to_vec(), y.data().to_vec()));
                assert_eq!(
                    got,
                    want,
                    "input {:?}: heap calls beyond the output",
                    x.dims()
                );
            }
        }
    });
}

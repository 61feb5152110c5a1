//! Where one packed forward spends its time, op by op: the per-op table of
//! EXPERIMENTS.md ("Batch-1 forward profile") as a command.
//!
//! Runs `PackedModel::forward_profiled` — the serving forward with a clock
//! read around every op — on one of the benchmark's two models, on one
//! kernel thread as a serving worker does, and prints the median time of
//! every op with the route it took (arithmetic / what the SIMD lanes hold)
//! and the part of it spent building the kernel's operand (activation grid,
//! code emission, layout: `quantize µs`), then the same times summed per
//! (kind, route) slice, and the minor page faults a warmed-up forward takes
//! (read from `/proc/self/stat`; zero when it allocates nothing but its
//! output).
//!
//! ```sh
//! cargo run --release -p instantnet --example forward_profile -- [mbv2|cnn|block] [bits] [batch] [reps]
//! ```
//!
//! Defaults: `mbv2 4 1 2000` — `mobilenet_v2(0.25, 2, 10, (16, 16))`, the
//! model `steady_mbv2_w4` serves. `cnn` is the cheap serving CNN of
//! `burst_drain_cnn` (3×8×8 inputs), `block` the inverted-residual block of
//! `BENCH_infer.json` (16×16×16 inputs). Honours `INSTANTNET_SIMD=scalar`, so
//! the scalar table's portable kernels profile the same way (same routes,
//! other lanes where the table has no thin kernel).

use instantnet_infer::{active_simd_backend, OpProfile, PackedModel};
use instantnet_nn::blocks::{ConvBnAct, InvertedResidual};
use instantnet_nn::layers::{Activation, GlobalAvgPool, QuantLinear};
use instantnet_nn::{models, Module, Sequential};
use instantnet_parallel::with_threads;
use instantnet_quant::{BitWidthSet, Quantizer};
use instantnet_tensor::init;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |i: usize, default: &str| args.get(i).map_or(default, String::as_str).to_owned();
    let (model, bits) = (arg(0, "mbv2"), arg(1, "4").parse::<u8>()?);
    let (batch, reps) = (
        arg(2, "1").parse::<usize>()?,
        arg(3, "2000").parse::<usize>()?,
    );
    if batch == 0 || reps == 0 {
        return Err("batch and reps must be at least 1".into());
    }

    let set = BitWidthSet::new(vec![bits])?;
    let mut rng = StdRng::seed_from_u64(4);
    let (net, dims): (Box<dyn Module>, [usize; 4]) = match model.as_str() {
        "mbv2" => (
            Box::new(models::mobilenet_v2(0.25, 2, 10, (16, 16), 1, 5)),
            [batch, 3, 16, 16],
        ),
        "cnn" => {
            let relu = Activation::Relu;
            let mut cnn = Sequential::new();
            cnn.push(Box::new(ConvBnAct::new(
                &mut rng, "stem", 3, 8, 3, 2, 1, 1, relu, false,
            )));
            cnn.push(Box::new(ConvBnAct::new(
                &mut rng, "conv2", 8, 32, 3, 2, 1, 1, relu, true,
            )));
            cnn.push(Box::new(GlobalAvgPool));
            cnn.push(Box::new(QuantLinear::new(&mut rng, "fc1", 32, 256)));
            cnn.push(Box::new(QuantLinear::new(&mut rng, "fc2", 256, 256)));
            cnn.push(Box::new(QuantLinear::new(&mut rng, "fc3", 256, 10)));
            (Box::new(cnn), [batch, 3, 8, 8])
        }
        "block" => (
            Box::new(InvertedResidual::new(&mut rng, "block", 16, 16, 6, 3, 1, 1)),
            [batch, 16, 16, 16],
        ),
        other => return Err(format!("unknown model {other:?} (mbv2 | cnn | block)").into()),
    };
    let packed = PackedModel::prepack(net.as_ref(), &set, Quantizer::Sbm)?;
    let x = init::uniform(&mut rng, &dims, -0.3, 1.2);

    // One kernel thread, like a serving worker; per op, the median over
    // `reps` forwards (after a tenth as many to warm caches and allocator).
    // Per op: its profile, and per forward its total and quantize time.
    let mut ops: Vec<(OpProfile, Vec<f64>, Vec<f64>)> = Vec::new();
    let mut untimed = Vec::with_capacity(reps);
    with_threads(1, || {
        for _ in 0..reps.div_ceil(10) {
            std::hint::black_box(packed.forward_batch_at(0, &x));
        }
        for rep in 0..reps {
            let mut at = 0;
            let y = packed.forward_profiled(0, &x, &mut |op| {
                let us = op.elapsed.as_secs_f64() * 1e6;
                let quantize = op.quantize.as_secs_f64() * 1e6;
                if rep == 0 {
                    ops.push((op, vec![us], vec![quantize]));
                } else {
                    ops[at].1.push(us);
                    ops[at].2.push(quantize);
                }
                at += 1;
            });
            std::hint::black_box(y);
            let start = std::time::Instant::now();
            std::hint::black_box(packed.forward_batch_at(0, &x));
            untimed.push(start.elapsed().as_secs_f64() * 1e6);
        }
    });

    println!(
        "{model} at {bits} bits, batch {batch}, {reps} forwards, one kernel thread, {} backend",
        active_simd_backend().name()
    );
    // Medians say what a forward costs on this machine now; minima are what
    // the code costs when nothing else has the core (on a shared VM the two
    // can differ by half).
    println!(
        "{:>3}  {:<10} {:<34} {:<26} {:>9} {:>8} {:>11}",
        "#", "op", "shape", "route", "median µs", "min µs", "quantize µs"
    );
    let mut slices: BTreeMap<(&str, String), (usize, f64, f64, f64)> = BTreeMap::new();
    let (mut total, mut total_min, mut total_quantize) = (0.0, 0.0, 0.0);
    for (i, (op, times, quantize)) in ops.iter_mut().enumerate() {
        let (us, min, quantize) = (median(times), times[0], median(quantize));
        println!(
            "{i:>3}  {:<10} {:<34} {:<26} {us:>9.2} {min:>8.2} {quantize:>11.2}",
            op.kind, op.shape, op.route
        );
        let slice = slices.entry((op.kind, op.route.clone())).or_default();
        *slice = (slice.0 + 1, slice.1 + us, slice.2 + min, slice.3 + quantize);
        total += us;
        total_min += min;
        total_quantize += quantize;
    }
    println!(
        "\n{:<10} {:<26} {:>4} {:>10} {:>6} {:>8} {:>11}",
        "slice", "route", "ops", "median µs", "share", "min µs", "quantize µs"
    );
    let mut slices: Vec<_> = slices.into_iter().collect();
    slices.sort_by(|a, b| b.1 .1.total_cmp(&a.1 .1));
    for ((kind, route), (count, us, min, quantize)) in slices {
        let share = 100.0 * us / total;
        println!(
            "{kind:<10} {route:<26} {count:>4} {us:>10.2} {share:>5.1}% {min:>8.2} {quantize:>11.2}"
        );
    }
    let untimed_median = median(&mut untimed);
    println!(
        "\nsum of op medians {total:.1} µs (minima {total_min:.1}), of which quantize \
         {total_quantize:.1}; untimed forward_batch_at median {untimed_median:.1} µs (min {:.1})",
        untimed[0]
    );
    // A warmed-up forward allocates only its output, so it should take no
    // page faults: count them over as many more untimed forwards.
    let faults = with_threads(1, || {
        let before = minor_faults()?;
        for _ in 0..reps {
            std::hint::black_box(packed.forward_batch_at(0, &x));
        }
        Some((minor_faults()? - before) as f64 / reps as f64)
    });
    match faults {
        Some(f) => println!("minor page faults per warm forward {f:.2} (over {reps})"),
        None => println!("minor page faults per warm forward: /proc/self/stat unreadable"),
    }
    Ok(())
}

/// This process's minor page faults so far: field 10 of `/proc/self/stat`,
/// the 8th after the parenthesised command name.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let (_, fields) = stat.rsplit_once(')')?;
    fields.split_whitespace().nth(7)?.parse().ok()
}

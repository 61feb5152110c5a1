//! Where one training step of the generation half spends its kernel time,
//! geometry by geometry: the per-layer table EXPERIMENTS.md's generation
//! sections cite, as a command.
//!
//! Derives the network `generate_deploy` trains on one pool dataset
//! (`DatasetSpec::tiny()` at that seed, SP-NAS under
//! `PipelineConfig::experiment`), then times `ops::conv2d` and
//! `ops::batch_norm2d` forward and backward for every conv geometry that
//! network and the SP-NAS supernet train (every candidate of every slot)
//! and for the batch norm after each, at the train batch size on one kernel
//! thread. The backward is timed alone: each rep builds its graph untimed,
//! then times `backward_with` under a fixed seed gradient.
//!
//! ```sh
//! cargo run --release -p instantnet --example train_profile -- [dataset] [batch] [reps]
//! ```
//!
//! Defaults: `1 16 200` (pool dataset 1, the CDT batch). Rows marked `net`
//! are layers of the derived network; `super` ones are trained only by the
//! search. Per row the median over `reps` (after a tenth as many to warm
//! caches and allocator), then the medians summed per kind.

use instantnet::PipelineConfig;
use instantnet_data::{Dataset, DatasetSpec};
use instantnet_hwmodel::Device;
use instantnet_nas::{search, DerivedArch, SearchSpace};
use instantnet_nn::{ConvSpec, Module};
use instantnet_parallel::with_threads;
use instantnet_quant::BitWidthSet;
use instantnet_tensor::{init, ops, Tensor, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Median µs of `reps` forwards and of `reps` backwards of `f(x, params)`
/// (`x` and every parameter needing grad). The previous rep's graph lives
/// until the next one is built, so the allocator reuses its blocks instead
/// of returning and regrowing the heap every rep.
fn time_step(
    x: &Tensor,
    params: &[Tensor],
    reps: usize,
    f: impl Fn(&Var, &[Var]) -> Var,
) -> (f64, f64) {
    let x = Var::leaf(x.clone(), true);
    let params: Vec<Var> = params.iter().map(|p| Var::leaf(p.clone(), true)).collect();
    let mut seed: Option<Tensor> = None;
    let (mut fwd, mut bwd) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    let mut _prev = None;
    for rep in 0..reps + reps.div_ceil(10) {
        let t = Instant::now();
        let y = f(&x, &params);
        let fwd_us = t.elapsed().as_secs_f64() * 1e6;
        let g = seed
            .get_or_insert_with(|| {
                init::uniform(&mut StdRng::seed_from_u64(9), &y.dims(), -1.0, 1.0)
            })
            .clone();
        let t = Instant::now();
        y.backward_with(g);
        let bwd_us = t.elapsed().as_secs_f64() * 1e6;
        x.zero_grad();
        params.iter().for_each(Var::zero_grad);
        _prev = Some(y);
        if rep >= reps.div_ceil(10) {
            fwd.push(fwd_us);
            bwd.push(bwd_us);
        }
    }
    (median(&mut fwd), median(&mut bwd))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |i: usize, default: &str| args.get(i).map_or(default, String::as_str).to_owned();
    let dataset = arg(0, "1").parse::<u64>()?;
    let (batch, reps) = (
        arg(1, "16").parse::<usize>()?,
        arg(2, "200").parse::<usize>()?,
    );
    if batch == 0 || reps == 0 {
        return Err("batch and reps must be at least 1".into());
    }

    let cfg = PipelineConfig::experiment(BitWidthSet::large_range(), Device::eyeriss_like());
    let data = Dataset::generate(&DatasetSpec::tiny().with_seed(dataset));
    let space = SearchSpace::cifar_tiny(cfg.nas_slots);
    let arch = with_threads(1, || {
        search(&space, &data, &cfg.bits, cfg.search_mode, cfg.nas)
    })
    .arch;
    let in_shape = (3, data.hw(), data.hw());
    // Specs in a set, ordered by (channels, plane, kernel, stride, pad).
    let key = |s: &ConvSpec| {
        (
            s.in_c, s.out_c, s.in_h, s.in_w, s.kernel, s.stride, s.pad, s.groups,
        )
    };
    let specs = |a: &DerivedArch| {
        let net = a.build_network(data.num_classes(), cfg.bits.len(), cfg.seed);
        let specs = net.conv_specs(in_shape).0;
        specs
            .into_iter()
            .map(|s| (key(&s), s))
            .collect::<BTreeMap<_, _>>()
    };
    // The supernet runs every candidate of every slot: the uniform choices
    // cover them (slots differ in channels, not in their menus' order).
    let net = specs(&arch);
    let candidates = space
        .layers()
        .iter()
        .map(|l| l.candidates.len())
        .min()
        .unwrap_or(0);
    let mut all = net.clone();
    for j in 0..candidates {
        let uniform = DerivedArch::new(space.clone(), vec![j; space.layers().len()]);
        all.extend(specs(&uniform));
    }

    println!(
        "dataset {dataset}: {}, batch {batch}, {reps} reps, one kernel thread",
        arch.describe()
    );
    println!(
        "{:<6} {:<10} {:<20} {:<14} {:>10} {:>10}",
        "in", "kind", "op", "input", "fwd µs", "bwd µs"
    );
    let mut rng = StdRng::seed_from_u64(3);
    let mut slices: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
    let mut norms = BTreeSet::new();
    for (k, s) in all.iter().filter(|(_, s)| s.in_h > 1) {
        let (oh, ow) = s.out_hw();
        let kind = match (s.groups, s.kernel) {
            (g, _) if g > 1 && g == s.in_c => "depthwise",
            (_, 1) => "pointwise",
            _ => "dense",
        };
        let x = init::uniform(&mut rng, &[batch, s.in_c, s.in_h, s.in_w], -1.0, 1.0);
        let w = init::kaiming_uniform(&mut rng, &[s.out_c, s.in_c / s.groups, s.kernel, s.kernel]);
        let (stride, pad, groups) = (s.stride, s.pad, s.groups);
        let (fwd, bwd) = with_threads(1, || {
            time_step(&x, &[w], reps, |x, p| {
                ops::conv2d(x, &p[0], stride, pad, groups)
            })
        });
        let op = format!(
            "{}x{} k{} s{} p{}",
            s.in_c, s.out_c, s.kernel, s.stride, s.pad
        );
        let input = format!("{}x{}x{}", s.in_c, s.in_h, s.in_w);
        let tag = if net.contains_key(k) { "net" } else { "super" };
        println!("{tag:<6} {kind:<10} {op:<20} {input:<14} {fwd:>10.1} {bwd:>10.1}");
        let slice = slices.entry(kind).or_default();
        *slice = (slice.0 + 1, slice.1 + fwd, slice.2 + bwd);
        norms.insert((s.out_c, oh, ow));
    }
    for (c, h, w) in norms {
        let x = init::uniform(&mut rng, &[batch, c, h, w], -1.0, 1.0);
        let (gamma, beta) = (Tensor::ones(&[c]), Tensor::zeros(&[c]));
        let (fwd, bwd) = with_threads(1, || {
            time_step(&x, &[gamma, beta], reps, |x, p| {
                ops::batch_norm2d(x, &p[0], &p[1], 1e-5, None).out
            })
        });
        let input = format!("{c}x{h}x{w}");
        println!(
            "{:<6} {:<10} {:<20} {input:<14} {fwd:>10.1} {bwd:>10.1}",
            "", "batchnorm", ""
        );
        let slice = slices.entry("batchnorm").or_default();
        *slice = (slice.0 + 1, slice.1 + fwd, slice.2 + bwd);
    }
    println!(
        "\n{:<10} {:>6} {:>10} {:>10}",
        "kind", "rows", "fwd µs", "bwd µs"
    );
    for (kind, (rows, fwd, bwd)) in slices {
        println!("{kind:<10} {rows:>6} {fwd:>10.1} {bwd:>10.1}");
    }
    Ok(())
}

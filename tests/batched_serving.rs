//! Batched serving contract: request aggregation must be invisible to
//! individual requests, and the queue model must lose nothing.
//!
//! * **Bit-identity**: every [`RequestOutcome`] output of
//!   `simulate_serving_batched` equals — bitwise — a batch-of-one forward
//!   of the same input at the same bit-width, across
//!   `BitWidthSet::large_range()`, both quantizers, and 1 vs N threads.
//!   (Batched activation quantization is per sample and every accumulator
//!   tier is exact, so batch-mates cannot perturb each other.)
//! * **Per-request path equivalence**: with `max_batch = 1` and one
//!   arrival per step, the batched runtime reproduces the per-request
//!   `simulate_serving` schedule and outputs exactly.
//! * **Queue invariants** (proptest, random traffic × budgets × knobs):
//!   no request is lost, service is FIFO with wait times monotone in
//!   arrival order, the batch histogram and energy accounting reconcile
//!   with the outcomes, and backlog bounds hold.

use instantnet::runtime::{
    simulate_serving, simulate_serving_batched, EnergyTrace, Policy, RequestTrace, ServingConfig,
    SimulationConfig,
};
use instantnet::{DeploymentReport, OperatingPoint};
use instantnet_infer::PackedModel;
use instantnet_nn::layers::QuantConv2d;
use instantnet_nn::models;
use instantnet_parallel::with_threads;
use instantnet_quant::{BitWidth, BitWidthSet, Quantizer};
use instantnet_tensor::{init, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREADS: [usize; 3] = [2, 3, 7];

/// One operating point per bit-width, energy 10·(i+1), so budgets select
/// any point deterministically.
fn report_for(bits: &BitWidthSet) -> DeploymentReport {
    let points = bits
        .widths()
        .iter()
        .enumerate()
        .map(|(i, &b)| {
            let e = 10.0 * (i + 1) as f64;
            OperatingPoint {
                bits: b,
                accuracy: 0.5 + 0.05 * i as f32,
                energy_pj: e,
                latency_s: 1e-3,
                edp: e * 1e-3,
                fps: 1000.0,
            }
        })
        .collect();
    DeploymentReport::new("test", 1, points)
}

/// A budget trace that sweeps every operating point and includes one
/// unaffordable (dropped) step.
fn sweeping_trace(n_points: usize, steps: usize) -> EnergyTrace {
    EnergyTrace::new(
        (0..steps)
            .map(|t| {
                if t == 1 {
                    5.0 // below the cheapest point: dropped
                } else {
                    10.0 * ((t % n_points) + 1) as f64 + 1.0
                }
            })
            .collect(),
    )
}

fn distinct_inputs(rng: &mut StdRng, count: usize, dims: &[usize]) -> Vec<Tensor> {
    (0..count)
        .map(|_| init::uniform(rng, dims, -1.0, 1.0))
        .collect()
}

#[test]
fn batched_outputs_bit_identical_to_per_request_all_bitwidths_both_quantizers() {
    let bits = BitWidthSet::large_range();
    for q in [Quantizer::Sbm, Quantizer::Dorefa] {
        let net = models::small_cnn(4, 6, (8, 8), bits.len(), 17);
        let mut model = PackedModel::prepack(&net, &bits, q).unwrap();
        let report = report_for(&bits);
        let steps = 2 * bits.len() + 2;
        let trace = sweeping_trace(bits.len(), steps);
        let mut rng = StdRng::seed_from_u64(23);
        let arrivals: Vec<usize> = (0..steps).map(|t| (t * 7 + 3) % 5).collect();
        let requests = RequestTrace::new(arrivals);
        let inputs = distinct_inputs(&mut rng, 3, &[1, 3, 8, 8]);
        let (stats, outcomes) = simulate_serving_batched(
            &report,
            &trace,
            &requests,
            Policy::Greedy,
            &SimulationConfig::default(),
            &ServingConfig { max_batch: 3 },
            &mut model,
            &inputs,
        );
        assert_eq!(outcomes.len(), requests.total(), "no request lost ({q:?})");
        // The sweep serves multiple bit-widths and aggregates real batches.
        let distinct_bits: std::collections::BTreeSet<u8> =
            outcomes.iter().filter_map(|o| o.bits).collect();
        assert!(
            distinct_bits.len() >= 3,
            "{q:?}: sweep served {distinct_bits:?}"
        );
        assert!(
            stats.batch_histogram[2..].iter().sum::<usize>() > 0,
            "{q:?}: no multi-request batch formed"
        );
        for (r, o) in outcomes.iter().enumerate() {
            let Some(b) = o.bits else { continue };
            let i = bits.index_of(BitWidth::new(b)).unwrap();
            let alone = model.forward_at(i, &inputs[r % inputs.len()]);
            assert_eq!(
                o.output.as_ref().unwrap().data(),
                alone.data(),
                "{q:?}: request {r} at {b} bits differs from solo forward"
            );
        }
    }
}

#[test]
fn max_batch_one_reproduces_per_request_serving() {
    let bits = BitWidthSet::large_range();
    let net = models::small_cnn(4, 6, (8, 8), bits.len(), 29);
    let mut model = PackedModel::prepack(&net, &bits, Quantizer::Sbm).unwrap();
    let report = report_for(&bits);
    let trace = sweeping_trace(bits.len(), 9);
    let mut rng = StdRng::seed_from_u64(31);
    let input = distinct_inputs(&mut rng, 1, &[1, 3, 8, 8]).remove(0);

    let (per_stats, per_outputs) = simulate_serving(
        &report,
        &trace,
        Policy::Greedy,
        &SimulationConfig::default(),
        &mut model,
        &input,
    );
    let (bat_stats, outcomes) = simulate_serving_batched(
        &report,
        &trace,
        &RequestTrace::uniform(1, trace.len()),
        Policy::Greedy,
        &SimulationConfig::default(),
        &ServingConfig { max_batch: 1 },
        &mut model,
        std::slice::from_ref(&input),
    );
    assert_eq!(bat_stats.schedule, per_stats.schedule);
    assert_eq!(bat_stats.switches, per_stats.switches);
    // Each step's served output matches the per-request path's bitwise;
    // the batched queue just re-times *which* arrival it hands it to.
    let mut served = outcomes
        .iter()
        .filter_map(|o| o.served_at.map(|t| (t, o.output.as_ref().unwrap())));
    for (t, y) in per_outputs
        .iter()
        .enumerate()
        .filter_map(|(t, y)| y.as_ref().map(|y| (t, y)))
    {
        let (bt, by) = served.next().expect("batched path served fewer steps");
        assert_eq!(bt, t, "serve step mismatch");
        assert_eq!(by.data(), y.data(), "step {t} output differs");
    }
    assert!(served.next().is_none(), "batched path served extra steps");
}

#[test]
fn batched_serving_deterministic_across_thread_counts() {
    let bits = BitWidthSet::large_range();
    let report = report_for(&bits);
    let trace = sweeping_trace(bits.len(), 8);
    let requests = RequestTrace::new(vec![4, 2, 0, 5, 1, 3, 2, 4]);
    let mut rng = StdRng::seed_from_u64(37);
    // 12×12 inputs push the conv kernels over the parallel threshold.
    let inputs = distinct_inputs(&mut rng, 4, &[1, 3, 12, 12]);
    let run = |threads: usize| {
        let net = models::small_cnn(4, 6, (12, 12), bits.len(), 43);
        let mut model = PackedModel::prepack(&net, &bits, Quantizer::Dorefa).unwrap();
        with_threads(threads, || {
            simulate_serving_batched(
                &report,
                &trace,
                &requests,
                Policy::Greedy,
                &SimulationConfig::default(),
                &ServingConfig { max_batch: 4 },
                &mut model,
                &inputs,
            )
        })
    };
    let (serial_stats, serial_outcomes) = run(1);
    for t in THREADS {
        let (stats, outcomes) = run(t);
        assert_eq!(stats, serial_stats, "stats differ at {t} threads");
        assert_eq!(outcomes.len(), serial_outcomes.len());
        for (r, (a, b)) in outcomes.iter().zip(&serial_outcomes).enumerate() {
            assert_eq!(
                a.output.as_ref().map(Tensor::data),
                b.output.as_ref().map(Tensor::data),
                "request {r} differs at {t} threads"
            );
        }
    }
}

#[test]
fn forward_batch_matches_per_sample_forward_including_depthwise() {
    let bits = BitWidthSet::large_range();
    let mut rng = StdRng::seed_from_u64(53);
    // A depthwise layer (direct-tap fast path) and a standard CNN (im2col
    // GEMM path, all storage tiers).
    let dw = QuantConv2d::new(&mut rng, "dw", 6, 6, 3, 1, 1, 6, true);
    let cnn = models::small_cnn(4, 6, (10, 10), bits.len(), 61);
    for q in [Quantizer::Sbm, Quantizer::Dorefa] {
        for (name, model, dims) in [
            (
                "depthwise",
                PackedModel::prepack(&dw, &bits, q).unwrap(),
                [4usize, 6, 10, 10],
            ),
            (
                "small_cnn",
                PackedModel::prepack(&cnn, &bits, q).unwrap(),
                [4, 3, 10, 10],
            ),
        ] {
            let x = init::uniform(&mut rng, &dims, -1.0, 1.0);
            let sample_len = x.len() / dims[0];
            for i in 0..bits.len() {
                let batched = model.forward_batch_at(i, &x);
                let out_len = batched.len() / dims[0];
                for j in 0..dims[0] {
                    let mut sd = x.dims().to_vec();
                    sd[0] = 1;
                    let xj = Tensor::from_vec(
                        sd,
                        x.data()[j * sample_len..(j + 1) * sample_len].to_vec(),
                    );
                    let solo = model.forward_at(i, &xj);
                    assert_eq!(
                        &batched.data()[j * out_len..(j + 1) * out_len],
                        solo.data(),
                        "{name} {q:?} @ {} bits, sample {j}",
                        bits.widths()[i]
                    );
                }
            }
        }
    }
}

/// The batch is a column dimension of every GEMM of the forward: on a whole
/// MobileNetV2 (f32 stem, pointwise, depthwise, residual, linear) every
/// sample's slice of a batch — sizes around the SIMD column blocks — must
/// equal its batch-of-one forward bit for bit, at every width and at 1 and
/// 3 kernel threads.
#[test]
fn mobilenet_batch_slices_equal_batch_of_one_forwards_at_every_width() {
    const MAX_N: usize = 17;
    let bits = BitWidthSet::large_range();
    let net = models::mobilenet_v2(0.25, 2, 10, (16, 16), bits.len(), 7);
    let mut rng = StdRng::seed_from_u64(71);
    let x = init::uniform(&mut rng, &[MAX_N, 3, 16, 16], -1.0, 1.0);
    let sample_len = x.len() / MAX_N;
    let first =
        |n: usize| Tensor::from_vec(vec![n, 3, 16, 16], x.data()[..n * sample_len].to_vec());
    for q in [Quantizer::Sbm, Quantizer::Dorefa] {
        let model = PackedModel::prepack(&net, &bits, q).unwrap();
        for i in 0..bits.len() {
            let solo: Vec<Tensor> = (0..MAX_N)
                .map(|j| {
                    let xj = x.data()[j * sample_len..(j + 1) * sample_len].to_vec();
                    model.forward_batch_at(i, &Tensor::from_vec(vec![1, 3, 16, 16], xj))
                })
                .collect();
            for n in [1, 2, 7, 16, MAX_N] {
                for threads in [1, 3] {
                    let batched = with_threads(threads, || model.forward_batch_at(i, &first(n)));
                    let out_len = batched.len() / n;
                    for (j, want) in solo.iter().enumerate().take(n) {
                        let got = &batched.data()[j * out_len..(j + 1) * out_len];
                        let same = got
                            .iter()
                            .zip(want.data())
                            .all(|(a, b)| a.to_bits() == b.to_bits());
                        assert!(
                            same,
                            "{q:?} @ {} bits, {threads} threads: sample {j} of {n}",
                            bits.widths()[i]
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn queue_invariants_hold_under_random_traffic(
        seed in 0u64..1_000_000,
        steps in 1usize..12,
        max_batch in 1usize..5,
        switch_cost in prop::sample::select(vec![0.0f64, 2.5]),
    ) {
        use rand::Rng;
        let bits = BitWidthSet::new(vec![4, 8, 32]).unwrap();
        let net = models::small_cnn(2, 2, (6, 6), bits.len(), 3);
        let mut model = PackedModel::prepack(&net, &bits, Quantizer::Sbm).unwrap();
        let report = report_for(&bits);
        let mut rng = StdRng::seed_from_u64(seed);
        let budgets: Vec<f64> = (0..steps)
            .map(|_| [5.0, 11.0, 21.0, 31.0][rng.gen_range(0..4usize)])
            .collect();
        let arrivals: Vec<usize> = (0..steps).map(|_| rng.gen_range(0..5usize)).collect();
        let trace = EnergyTrace::new(budgets);
        let requests = RequestTrace::new(arrivals);
        let input = init::uniform(&mut rng, &[1, 3, 6, 6], -1.0, 1.0);
        let cfg = SimulationConfig { switch_cost_pj: switch_cost };
        let (stats, outcomes) = simulate_serving_batched(
            &report,
            &trace,
            &requests,
            Policy::Greedy,
            &cfg,
            &ServingConfig { max_batch },
            &mut model,
            std::slice::from_ref(&input),
        );

        // No request lost: every arrival is recorded, served + backlog
        // partitions them.
        prop_assert_eq!(outcomes.len(), requests.total());
        let served: Vec<_> = outcomes.iter().filter(|o| o.served_at.is_some()).collect();
        prop_assert_eq!(served.len(), stats.served_requests);
        prop_assert_eq!(stats.served_requests + stats.backlog, requests.total());
        prop_assert_eq!(stats.wait_steps.len(), stats.served_requests);
        prop_assert!(stats.max_queue_depth >= stats.backlog);

        // FIFO: serve steps are monotone in arrival order and nothing is
        // served before it arrives or on a dropped step; unserved requests
        // form a suffix of the arrival order.
        let mut prev = 0usize;
        let mut seen_unserved = false;
        for (r, o) in outcomes.iter().enumerate() {
            match o.served_at {
                Some(t) => {
                    prop_assert!(!seen_unserved, "request {r} served after an unserved one");
                    prop_assert!(t >= o.arrived_at);
                    prop_assert!(t >= prev, "serve steps must be monotone");
                    prev = t;
                    let sched = stats.schedule[t];
                    prop_assert_eq!(o.bits, sched, "bits must match the schedule");
                    prop_assert!(o.output.is_some());
                }
                None => {
                    seen_unserved = true;
                    prop_assert!(o.bits.is_none() && o.output.is_none());
                }
            }
        }
        // Wait times recompute from the outcomes (serve order = FIFO order).
        let waits: Vec<usize> = outcomes
            .iter()
            .filter_map(|o| o.served_at.map(|t| t - o.arrived_at))
            .collect();
        prop_assert_eq!(&waits, &stats.wait_steps);

        // Histogram: one bucket entry per budget-served step, request mass
        // equal to the served count, length fixed by max_batch.
        prop_assert_eq!(stats.batch_histogram.len(), max_batch + 1);
        let active_steps = stats.schedule.iter().filter(|s| s.is_some()).count();
        prop_assert_eq!(stats.batch_histogram.iter().sum::<usize>(), active_steps);
        let mass: usize = stats
            .batch_histogram
            .iter()
            .enumerate()
            .map(|(b, &n)| b * n)
            .sum();
        prop_assert_eq!(mass, stats.served_requests);

        // Energy reconciles with the outcomes: per-request inference energy
        // plus switch accounting.
        let inference: f64 = outcomes
            .iter()
            .filter_map(|o| o.bits)
            .map(|b| {
                report
                    .points()
                    .iter()
                    .find(|p| p.bits.get() == b)
                    .unwrap()
                    .energy_pj
            })
            .sum();
        let expect = inference + stats.switches as f64 * switch_cost;
        prop_assert!(
            (stats.energy_pj - expect).abs() < 1e-9 * (1.0 + expect.abs()),
            "energy {} vs recomputed {}",
            stats.energy_pj,
            expect
        );
        prop_assert_eq!(stats.switch_energy_pj, stats.switches as f64 * switch_cost);
    }
}

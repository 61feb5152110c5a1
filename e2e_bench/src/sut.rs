//! The system under test, behind one adapter.
//!
//! This is the only file of the benchmark that names `instantnet*` items or
//! reads `RuntimeStats` fields: when the repository renames a driver or
//! splits the stats, the benchmark is ported by editing this file alone.
//! Everything here is a thin call into a public function; timing, statistics
//! and checks live in the other modules.

use instantnet::automapper::map_network;
use instantnet::data::{Dataset, DatasetSpec};
use instantnet::faults::FaultPlan;
use instantnet::hwmodel::{baselines, cost::evaluate_layer, workloads_from_specs, Device};
use instantnet::infer::{
    active_simd_backend, fused_gemm_enabled, with_simd_backend, PackedModel, SimdBackend,
};
use instantnet::nas::{search, DerivedArch, SearchSpace};
use instantnet::nn::blocks::ConvBnAct;
use instantnet::nn::layers::{Activation, GlobalAvgPool, QuantConv2d, QuantLinear};
use instantnet::nn::models::{mobilenet_v2, Network};
use instantnet::nn::{checkpoint, ForwardCtx, Module, Sequential};
use instantnet::quant::{BitWidth, BitWidthSet, Quantizer};
use instantnet::registry::ModelRegistry;
use instantnet::resilience::{simulate_serving_resilient, RequestStatus, ResilienceConfig};
use instantnet::runtime::{
    simulate_serving_batched, EnergyTrace, Policy, RequestTrace, RuntimeStats, ServingConfig,
    SimulationConfig,
};
use instantnet::sharding::{simulate_serving_sharded, ShardConfig};
use instantnet::tensor::{ops, Tensor, Var};
use instantnet::train::{evaluate, PrecisionLadder, Strategy, Trainer};
use instantnet::wallclock::{
    serve_wallclock_streaming, BatchControl, IngressSink, IngressSource, QueueMode, StreamRequest,
    WallclockConfig, WallclockDegradation,
};
use instantnet::{DeploymentReport, OperatingPoint, Pipeline, PipelineConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Model weights use a fixed seed of their own: the workload seed changes
/// the traffic and the inputs, never the network being served.
const WEIGHT_SEED: u64 = 0x1457;

/// What every result is stamped with.
pub struct Stamp {
    pub cores: usize,
    pub simd: &'static str,
    pub fused: bool,
}

pub fn stamp() -> Stamp {
    Stamp {
        cores: cores(),
        simd: active_simd_backend().name(),
        fused: fused_gemm_enabled(),
    }
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `f` with the kernel-thread count pinned to `n`; 0 unpins it.
pub fn with_kernel_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    instantnet_parallel::with_threads(n, f)
}

/// One input (or an aggregated batch of inputs) in the system's own form.
pub struct Input(Tensor);

/// The drivers take their inputs as a slice of tensors.
fn tensors_of(inputs: &[Input]) -> Vec<Tensor> {
    inputs.iter().map(|i| i.0.clone()).collect()
}

/// One output of the system; compared bit-exactly by the oracle.
pub struct Output(Tensor);

impl Output {
    pub fn data(&self) -> &[f32] {
        self.0.data()
    }
}

/// A network plus its packed form at every width it serves.
pub struct Model {
    packed: PackedModel,
    set: BitWidthSet,
    sample_dims: Vec<usize>,
    /// Wall time of the `PackedModel::prepack` call.
    pub prepack_ms: f64,
}

impl Model {
    fn build(module: &dyn Module, set: BitWidthSet, sample_dims: Vec<usize>) -> Self {
        let t = Instant::now();
        let packed = PackedModel::prepack(module, &set, Quantizer::Sbm)
            .expect("benchmark models expose an inference plan");
        let prepack_ms = t.elapsed().as_secs_f64() * 1e3;
        Model {
            packed,
            set,
            sample_dims,
            prepack_ms,
        }
    }

    /// The MobileNetV2-scaled model of the open-loop workloads, packed at
    /// all five `large_range()` widths.
    pub fn mbv2() -> Self {
        let set = BitWidthSet::large_range();
        let net = mobilenet_v2(0.25, 2, 10, (16, 16), set.len(), WEIGHT_SEED);
        Model::build(&net, set, vec![3, 16, 16])
    }

    /// The cheap stem + quantized-head CNN of `benches/wallclock.rs`, 4-bit.
    pub fn cnn() -> Self {
        let mut rng = StdRng::seed_from_u64(WEIGHT_SEED);
        let mut body = Sequential::new();
        body.push(Box::new(ConvBnAct::new(
            &mut rng,
            "stem",
            3,
            8,
            3,
            2,
            1,
            1,
            Activation::Relu,
            false,
        )));
        body.push(Box::new(ConvBnAct::new(
            &mut rng,
            "conv2",
            8,
            32,
            3,
            2,
            1,
            1,
            Activation::Relu,
            true,
        )));
        body.push(Box::new(GlobalAvgPool));
        body.push(Box::new(QuantLinear::new(&mut rng, "fc1", 32, 256)));
        body.push(Box::new(QuantLinear::new(&mut rng, "fc2", 256, 256)));
        body.push(Box::new(QuantLinear::new(&mut rng, "fc3", 256, 10)));
        let set = BitWidthSet::new(vec![4]).expect("static set");
        Model::build(&body, set, vec![3, 8, 8])
    }

    pub fn widths(&self) -> Vec<u8> {
        self.set.widths().iter().map(BitWidth::get).collect()
    }

    pub fn width_index(&self, bits: u8) -> Option<usize> {
        self.set.index_of(BitWidth::new(bits))
    }

    pub fn sample_len(&self) -> usize {
        self.sample_dims.iter().product()
    }

    pub fn packed_bytes(&self) -> usize {
        self.packed.packed_bytes()
    }

    /// Aggregates samples into one `[n, ...]` input.
    pub fn input(&self, samples: &[&[f32]]) -> Input {
        let mut dims = vec![samples.len()];
        dims.extend(&self.sample_dims);
        Input(Tensor::from_vec(dims, samples.concat()))
    }

    /// `forward_at`: the reference every served output is compared with.
    pub fn forward_reference(&self, width: usize, x: &Input) -> Output {
        Output(self.packed.forward_at(width, &x.0))
    }

    /// `forward_batch_at`: the call the serving loop makes per batch.
    pub fn forward_batch(&self, width: usize, x: &Input) {
        black_box(self.packed.forward_batch_at(width, black_box(&x.0)));
    }

    /// `forward_batch_at` on the portable kernels.
    pub fn forward_batch_scalar(&self, width: usize, x: &Input) {
        with_simd_backend(SimdBackend::Scalar, || self.forward_batch(width, x));
    }

    /// `switch_to`.
    pub fn switch_to(&mut self, width: usize) {
        self.packed
            .switch_to(black_box(width))
            .expect("width index in range");
    }
}

// ---------------------------------------------------------------------------
// The wall-clock serving loop
// ---------------------------------------------------------------------------

/// One operating point of the report the loop selects from.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    pub bits: u8,
    pub accuracy: f32,
    pub energy_pj: f64,
}

/// Every knob of one serving run, in plain values.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    pub workers: usize,
    pub max_batch: usize,
    /// Per-worker sharded queues with stealing, instead of one shared queue.
    pub sharded_stealing: bool,
    pub queue_capacity: Option<usize>,
    pub deadline_us: Option<u64>,
    /// `(backlog_high, backlog_low, recovery_window_us)`.
    pub degradation: Option<(usize, usize, u64)>,
    /// Latency target of the dynamic batch controller.
    pub batch_target_us: Option<u64>,
    /// Length of one energy-trace step.
    pub step_us: u64,
    pub budgets: Vec<f64>,
    pub points: Vec<Point>,
    /// Fixed `latency_s` of every point (admission control reads it).
    pub point_latency_s: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Completed,
    Degraded,
    Shed,
    Expired,
    Failed,
    Backlog,
}

/// What the loop recorded about one request, indexed by arrival id.
pub struct Outcome {
    pub arrived_us: u64,
    pub served_us: Option<u64>,
    pub bits: Option<u8>,
    pub worker: Option<usize>,
    pub status: Status,
    pub input: usize,
    pub output: Option<Output>,
}

/// The loop's own counters, as the benchmark uses them.
#[derive(Debug, Clone, Default)]
pub struct LoopStats {
    pub completed: usize,
    pub degraded: usize,
    pub shed: usize,
    pub expired: usize,
    pub failed: usize,
    pub backlog: usize,
    pub max_queue_depth: usize,
    pub steals: usize,
    pub switches: usize,
    /// `batch_histogram[n]` = batches of size `n`.
    pub batch_histogram: Vec<usize>,
    /// `(bits, batches served at that width)`.
    pub time_in_bits: Vec<(u8, usize)>,
    pub degrade_events: usize,
    pub batch_limit_events: usize,
    pub elapsed_us: u64,
    pub served_per_worker: Vec<usize>,
}

impl LoopStats {
    fn from_runtime(s: &RuntimeStats) -> Self {
        LoopStats {
            completed: s.completed,
            degraded: s.completed_degraded,
            shed: s.shed,
            expired: s.expired,
            failed: s.failed,
            backlog: s.backlog,
            max_queue_depth: s.max_queue_depth,
            steals: s.steals,
            switches: s.switches,
            batch_histogram: s.batch_histogram.clone(),
            time_in_bits: s.time_in_bits.clone(),
            degrade_events: s.degradation_events.len(),
            batch_limit_events: s.batch_limit_events.len(),
            elapsed_us: s.elapsed_us,
            served_per_worker: s.replicas.iter().map(|r| r.served).collect(),
        }
    }
}

/// Where a generator submits requests and reads the run clock.
pub trait Sink {
    /// Submits one request for input `input`; returns its arrival id and
    /// whether it was admitted.
    fn submit(&self, input: usize) -> (usize, bool);
    /// Microseconds since the serving run started.
    fn now_us(&self) -> u64;
}

/// The benchmark's load generator; runs on the loop's producer thread.
pub trait Generator: Send {
    fn run(&mut self, sink: &dyn Sink);
}

struct SinkAdapter<'a>(&'a dyn IngressSink);

impl Sink for SinkAdapter<'_> {
    fn submit(&self, input: usize) -> (usize, bool) {
        let req = StreamRequest {
            input: Some(input),
            deadline: None,
        };
        match self.0.submit(req) {
            Ok(id) => (id, true),
            Err(id) => (id, false),
        }
    }

    fn now_us(&self) -> u64 {
        self.0.now_us()
    }
}

struct SourceAdapter<'a>(&'a mut dyn Generator);

impl IngressSource for SourceAdapter<'_> {
    fn run(&mut self, sink: &dyn IngressSink) {
        self.0.run(&SinkAdapter(sink));
    }
}

fn report_of(spec: &ServeSpec) -> DeploymentReport {
    let points = spec
        .points
        .iter()
        .map(|p| OperatingPoint {
            bits: BitWidth::new(p.bits),
            accuracy: p.accuracy,
            energy_pj: p.energy_pj,
            latency_s: spec.point_latency_s,
            edp: p.energy_pj * spec.point_latency_s,
            fps: 1.0 / spec.point_latency_s,
        })
        .collect();
    DeploymentReport::new("e2e-bench", 1, points)
}

/// One `serve_wallclock_streaming` run: `generator` is the only producer,
/// the model is served out of a fresh single-version registry.
pub fn serve(
    model: &Model,
    spec: &ServeSpec,
    inputs: &[Input],
    generator: &mut dyn Generator,
) -> Result<(LoopStats, Vec<Outcome>), String> {
    let wall = WallclockConfig {
        workers: spec.workers,
        max_batch: spec.max_batch,
        step_time: Duration::from_micros(spec.step_us),
        queue_capacity: spec.queue_capacity,
        deadline: spec.deadline_us.map(Duration::from_micros),
        max_retries: 0,
        degradation: spec
            .degradation
            .map(|(high, low, window_us)| WallclockDegradation {
                backlog_high: high,
                backlog_low: low,
                recovery_window: Duration::from_micros(window_us),
            }),
        queue: if spec.sharded_stealing {
            QueueMode::Sharded { stealing: true }
        } else {
            QueueMode::Shared
        },
        batch_control: spec.batch_target_us.map(|target_us| BatchControl {
            target: Duration::from_micros(target_us),
            ..BatchControl::default()
        }),
    };
    let tensors = tensors_of(inputs);
    let registry = ModelRegistry::new(model.packed.clone(), "e2e-bench");
    let (stats, outcomes) = serve_wallclock_streaming(
        &report_of(spec),
        &EnergyTrace::new(spec.budgets.clone()),
        Policy::Greedy,
        &SimulationConfig::default(),
        &wall,
        &registry,
        &FaultPlan::none(),
        vec![Box::new(SourceAdapter(generator))],
        &tensors,
    )
    .map_err(|e| format!("serve_wallclock_streaming: {e}"))?;
    let outcomes = outcomes
        .into_iter()
        .map(|o| Outcome {
            arrived_us: o.arrived_us,
            served_us: o.served_us,
            bits: o.bits,
            worker: o.worker,
            status: match o.status {
                RequestStatus::Completed => Status::Completed,
                RequestStatus::CompletedDegraded => Status::Degraded,
                RequestStatus::Shed => Status::Shed,
                RequestStatus::Expired => Status::Expired,
                RequestStatus::Failed => Status::Failed,
                RequestStatus::Pending => Status::Backlog,
            },
            input: o.input,
            output: o.output.map(Output),
        })
        .collect();
    Ok((LoopStats::from_runtime(&stats), outcomes))
}

// ---------------------------------------------------------------------------
// The simulated drivers
// ---------------------------------------------------------------------------

/// Counters of one simulated-driver run over a burst trace.
pub struct SimRun {
    pub served: usize,
    pub cache_hits: usize,
    pub cache_misses: usize,
}

fn sim_fixture(model: &Model, requests: usize, max_batch: usize) -> (ServeSpec, RequestTrace) {
    let steps = requests.div_ceil(max_batch);
    let spec = ServeSpec {
        workers: 1,
        max_batch,
        sharded_stealing: false,
        queue_capacity: None,
        deadline_us: None,
        degradation: None,
        batch_target_us: None,
        step_us: 1000,
        budgets: vec![15.0; steps],
        points: vec![Point {
            bits: model.widths()[0],
            accuracy: 0.6,
            energy_pj: 10.0,
        }],
        point_latency_s: 1e-3,
    };
    let mut arrivals = vec![0usize; steps];
    arrivals[0] = requests;
    (spec, RequestTrace::new(arrivals))
}

/// `simulate_serving_batched` draining `requests` arrivals of step 0.
pub fn sim_batched(model: &Model, inputs: &[Input], requests: usize, max_batch: usize) -> SimRun {
    let (spec, trace) = sim_fixture(model, requests, max_batch);
    let tensors = tensors_of(inputs);
    let (stats, _) = simulate_serving_batched(
        &report_of(&spec),
        &EnergyTrace::new(spec.budgets.clone()),
        &trace,
        Policy::Greedy,
        &SimulationConfig::default(),
        &ServingConfig { max_batch },
        &mut model.packed.clone(),
        &tensors,
    );
    SimRun {
        served: stats.served_requests,
        cache_hits: 0,
        cache_misses: 0,
    }
}

/// `simulate_serving_resilient` on the same burst, fully permissive.
pub fn sim_resilient(model: &Model, inputs: &[Input], requests: usize, max_batch: usize) -> SimRun {
    let (spec, trace) = sim_fixture(model, requests, max_batch);
    let tensors = tensors_of(inputs);
    let (stats, _) = simulate_serving_resilient(
        &report_of(&spec),
        &EnergyTrace::new(spec.budgets.clone()),
        &trace,
        Policy::Greedy,
        &SimulationConfig::default(),
        &ServingConfig { max_batch },
        &ResilienceConfig::default(),
        &FaultPlan::none(),
        &mut model.packed.clone(),
        &tensors,
    )
    .expect("permissive resilient config is valid");
    SimRun {
        served: stats.completed,
        cache_hits: 0,
        cache_misses: 0,
    }
}

/// `simulate_serving_sharded` with two replicas and the content cache on;
/// the few distinct `inputs` make the trace duplicate-heavy.
pub fn sim_sharded(model: &Model, inputs: &[Input], requests: usize, max_batch: usize) -> SimRun {
    let (spec, trace) = sim_fixture(model, requests, max_batch);
    let tensors = tensors_of(inputs);
    let shard = ShardConfig {
        replicas: 2,
        cache: true,
        ..ShardConfig::default()
    };
    let (stats, _) = simulate_serving_sharded(
        &report_of(&spec),
        &EnergyTrace::new(spec.budgets.clone()),
        &trace,
        Policy::Greedy,
        &SimulationConfig::default(),
        &ServingConfig { max_batch },
        &shard,
        &FaultPlan::none(),
        &model.packed,
        &tensors,
    )
    .expect("sharded config is valid");
    SimRun {
        served: stats.completed,
        cache_hits: stats.cache_hits,
        cache_misses: stats.cache_misses,
    }
}

// ---------------------------------------------------------------------------
// Single-call probes
// ---------------------------------------------------------------------------

/// A named closure that makes one call into one layer.
pub type Probe = (String, Box<dyn FnMut()>);

/// Single-op plans at MobileNetV2 block shapes (width 0.25, a 4x4 feature
/// map in the middle of the network), one probe per op and width.
pub fn op_probes() -> Vec<Probe> {
    let set = BitWidthSet::new(vec![4, 8, 16]).expect("static set");
    let mut rng = StdRng::seed_from_u64(WEIGHT_SEED);
    let ops: Vec<(&str, Box<dyn Module>, Vec<usize>)> = vec![
        (
            "linear",
            Box::new(QuantLinear::new(&mut rng, "fc", 80, 10)),
            vec![1, 80],
        ),
        (
            "conv3x3",
            Box::new(QuantConv2d::new(&mut rng, "c3", 16, 16, 3, 1, 1, 1, true)),
            vec![1, 16, 4, 4],
        ),
        (
            "pointwise",
            Box::new(QuantConv2d::new(&mut rng, "pw", 16, 96, 1, 1, 0, 1, true)),
            vec![1, 16, 4, 4],
        ),
        (
            "depthwise",
            Box::new(QuantConv2d::new(&mut rng, "dw", 96, 96, 3, 1, 1, 96, true)),
            vec![1, 96, 4, 4],
        ),
    ];
    let mut probes: Vec<Probe> = Vec::new();
    for (name, module, dims) in ops {
        let packed = PackedModel::prepack(module.as_ref(), &set, Quantizer::Sbm)
            .expect("single layers expose a plan");
        let x = instantnet::tensor::init::uniform(&mut rng, &dims, -0.3, 1.2);
        for (i, w) in set.widths().iter().enumerate() {
            let (packed, x) = (packed.clone(), x.clone());
            probes.push((
                format!("infer.op_us.{name}.w{}", w.get()),
                Box::new(move || {
                    black_box(packed.forward_batch_at(i, black_box(&x)));
                }),
            ));
        }
    }
    probes
}

/// One call each into the crates training and serving share.
pub fn shared_crate_probes() -> Vec<Probe> {
    let mut rng = StdRng::seed_from_u64(WEIGHT_SEED);
    let x = instantnet::tensor::init::uniform(&mut rng, &[16, 16, 8, 8], -1.0, 1.0);
    let w = instantnet::tensor::init::uniform(&mut rng, &[32, 16, 3, 3], -1.0, 1.0);
    let a = instantnet::tensor::init::uniform(&mut rng, &[64, 128], -1.0, 1.0);
    let b = instantnet::tensor::init::uniform(&mut rng, &[128, 64], -1.0, 1.0);
    let q = w.clone();
    vec![
        (
            "tensor.conv2d_fwd_us".into(),
            Box::new(move || {
                let y = ops::conv2d(
                    &Var::constant(x.clone()),
                    &Var::constant(w.clone()),
                    1,
                    1,
                    1,
                );
                black_box(y.value());
            }),
        ),
        (
            "tensor.matmul_us".into(),
            Box::new(move || {
                black_box(a.matmul(black_box(&b)));
            }),
        ),
        (
            "quant.sbm_quantize_us".into(),
            Box::new(move || {
                black_box(Quantizer::Sbm.quantize_weights_tensor(black_box(&q), BitWidth::new(4)));
            }),
        ),
    ]
}

/// One `evaluate_layer` call on the expert row-stationary mapping of a
/// 3x3 convolution.
pub fn cost_eval_probe() -> Probe {
    let device = Device::eyeriss_like();
    let spec = instantnet::nn::ConvSpec {
        in_c: 16,
        out_c: 32,
        kernel: 3,
        stride: 1,
        pad: 1,
        groups: 1,
        in_h: 8,
        in_w: 8,
    };
    let dims = workloads_from_specs(&[spec], 1)[0].dims;
    let mapping = baselines::eyeriss_row_stationary(&dims, &device, 8);
    (
        "hwmodel.cost_eval_ns".into(),
        Box::new(move || {
            black_box(evaluate_layer(black_box(&dims), &mapping, &device, 8).is_ok());
        }),
    )
}

// ---------------------------------------------------------------------------
// Generation and deployment
// ---------------------------------------------------------------------------

/// The seed-generated dataset the pipeline runs on.
pub struct Data(Dataset);

/// Scalar parameters of the dataset, echoed by `--dump-schedule`.
pub fn dataset_params(seed: u64) -> String {
    let s = dataset_spec(seed);
    format!(
        "seed={} classes={} train_per_class={} test_per_class={} hw={} noise={} max_shift={}",
        s.seed, s.num_classes, s.train_per_class, s.test_per_class, s.hw, s.noise, s.max_shift
    )
}

fn dataset_spec(seed: u64) -> DatasetSpec {
    DatasetSpec::tiny().with_seed(seed)
}

impl Data {
    /// `Dataset::generate`.
    pub fn generate(seed: u64) -> Self {
        Data(Dataset::generate(&dataset_spec(seed)))
    }

    /// Values in one input image of this dataset's geometry.
    pub fn sample_len(&self) -> usize {
        3 * self.0.hw() * self.0.hw()
    }
}

/// A searched and CDT-trained network.
pub struct Generated {
    net: Network,
    pub arch: String,
    hw: usize,
}

/// A deployed network: the registry serving the restored checkpoint.
pub struct Deployed {
    registry: ModelRegistry,
    /// Generation id `publish_checkpoint` returned.
    pub generation: u64,
    hw: usize,
}

fn image(hw: usize, sample: &[f32]) -> Tensor {
    Tensor::from_vec(vec![1, 3, hw, hw], sample.to_vec())
}

/// The `generate_deploy` pipeline under
/// `PipelineConfig::experiment(large_range(), eyeriss_like())`.
pub struct PipelineSut {
    pipe: Pipeline,
}

impl PipelineSut {
    /// `kernel_threads` pins the trainer's thread count, which the trainer
    /// sets over its caller's `with_kernel_threads`; 0 leaves it ambient.
    pub fn new(kernel_threads: usize) -> Self {
        let mut cfg =
            PipelineConfig::experiment(BitWidthSet::large_range(), Device::eyeriss_like());
        cfg.train.threads = kernel_threads;
        PipelineSut {
            pipe: Pipeline::new(cfg),
        }
    }

    fn cfg(&self) -> &PipelineConfig {
        self.pipe.config()
    }

    pub fn widths(&self) -> Vec<u8> {
        self.cfg().bits.widths().iter().map(BitWidth::get).collect()
    }

    /// Optimizer steps `generate_and_train`'s CDT stage takes on `data`.
    pub fn cdt_steps(&self, data: &Data) -> usize {
        let t = &self.cfg().train;
        t.epochs * data.0.train().len().div_ceil(t.batch_size)
    }

    /// Mapping evaluations one `map_network` call may spend on `g`: both
    /// execution modes are searched for every layer.
    pub fn mapper_evals(&self, g: &Generated) -> usize {
        2 * g.net.specs().len() * self.cfg().mapper.max_evals
    }

    /// `Pipeline::generate_and_train`: SP-NAS, then CDT.
    pub fn generate(&self, data: &Data) -> Generated {
        let (net, arch) = self.pipe.generate_and_train(&data.0);
        Generated {
            net,
            arch,
            hw: data.0.hw(),
        }
    }

    /// The two calls `generate_and_train` makes, timed apart:
    /// `(nas::search seconds, Trainer::train seconds)`.
    pub fn generate_staged(&self, data: &Data) -> (f64, f64) {
        let cfg = self.cfg();
        let space = SearchSpace::cifar_tiny(cfg.nas_slots);
        let t = Instant::now();
        let outcome = search(&space, &data.0, &cfg.bits, cfg.search_mode, cfg.nas);
        let search_s = t.elapsed().as_secs_f64();
        let net = outcome
            .arch
            .build_network(data.0.num_classes(), cfg.bits.len(), cfg.seed);
        let ladder = PrecisionLadder::uniform(&cfg.bits);
        let t = Instant::now();
        black_box(Trainer::new(cfg.train).train(&net, &data.0, &ladder, Strategy::cdt()));
        (search_s, t.elapsed().as_secs_f64())
    }

    /// `Pipeline::deploy`: per-width evaluation and AutoMapper. Returns the
    /// whole report as text, for the same-seed-same-report check.
    pub fn deploy_report(&self, data: &Data, g: &Generated) -> String {
        let report = self.pipe.deploy(&data.0, &g.net, &g.arch);
        format!("{}\n{}\n{}", report.arch(), report.flops(), report.to_csv())
    }

    /// `train::evaluate` at one width.
    pub fn evaluate(&self, data: &Data, g: &Generated, width: usize) -> f32 {
        let cfg = self.cfg();
        let ladder = PrecisionLadder::uniform(&cfg.bits);
        evaluate(
            &g.net,
            data.0.test(),
            &ladder,
            width,
            cfg.quantizer,
            cfg.train.batch_size,
        )
    }

    /// `automapper::map_network` at one width.
    pub fn map_network(&self, g: &Generated, width: usize) {
        let cfg = self.cfg();
        let workloads = workloads_from_specs(&g.net.specs(), cfg.hw_batch);
        let bits = cfg.bits.at(width).get().min(16);
        black_box(map_network(&workloads, &cfg.device, bits, &cfg.mapper));
    }

    /// `checkpoint::save`; returns the file's size.
    pub fn save(&self, g: &Generated, path: &Path) -> Result<u64, String> {
        checkpoint::save(&g.net, path).map_err(|e| format!("checkpoint::save: {e}"))?;
        std::fs::metadata(path)
            .map(|m| m.len())
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    /// `checkpoint::load` into a freshly initialised network of `g`'s
    /// topology.
    pub fn load(&self, g: &Generated, data: &Data, path: &Path) -> Result<(), String> {
        checkpoint::load(&self.fresh_topology(g, data, 1), path)
            .map_err(|e| format!("checkpoint::load: {e}"))
    }

    /// The device side of deployment: a freshly initialised network of the
    /// searched topology is restored with `PackedModel::from_checkpoint`
    /// and seeded into a registry, and the same checkpoint is then
    /// hot-published over it with `ModelRegistry::publish_checkpoint`.
    pub fn publish(&self, g: &Generated, data: &Data, path: &Path) -> Result<Deployed, String> {
        let cfg = self.cfg();
        let first = self.fresh_topology(g, data, 1);
        let packed = PackedModel::from_checkpoint(&first, path, &cfg.bits, cfg.quantizer)
            .map_err(|e| format!("from_checkpoint: {e}"))?;
        let registry = ModelRegistry::new(packed, "restored");
        let second = self.fresh_topology(g, data, 2);
        let generation = registry
            .publish_checkpoint(&second, path, "published", None)
            .map_err(|e| format!("publish_checkpoint: {e}"))?;
        Ok(Deployed {
            registry,
            generation,
            hw: g.hw,
        })
    }

    fn fresh_topology(&self, g: &Generated, data: &Data, seed_offset: u64) -> Network {
        let cfg = self.cfg();
        DerivedArch::parse(SearchSpace::cifar_tiny(cfg.nas_slots), &g.arch)
            .expect("describe() round-trips through parse()")
            .build_network(
                data.0.num_classes(),
                cfg.bits.len(),
                cfg.seed + 1000 + seed_offset,
            )
    }
}

impl Generated {
    /// The eval-mode fake-quant forward of the trained network.
    pub fn forward_fake_quant(&self, width: usize, sample: &[f32]) -> Output {
        let mut ctx = ForwardCtx::eval(&BitWidthSet::large_range(), width, Quantizer::Sbm);
        let x = Var::constant(image(self.hw, sample));
        Output(self.net.forward(&x, &mut ctx).value())
    }
}

impl Deployed {
    /// One batch-1 `forward_at` through the registry's current model.
    pub fn forward(&self, width: usize, sample: &[f32]) -> Output {
        let x = image(self.hw, sample);
        Output(self.registry.current().model().forward_at(width, &x))
    }

    /// `ModelRegistry::publish` of an in-memory clone of the current model.
    pub fn republish(&self) -> Result<u64, String> {
        let model = self.registry.current().model().clone();
        self.registry
            .publish(model, "republished", None)
            .map_err(|e| format!("publish: {e}"))
    }
}

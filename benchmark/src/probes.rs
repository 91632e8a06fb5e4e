//! Standalone probes of single layers, run by the traced mode beside the
//! traced pass: each times one public function of one layer on the
//! workload's own data, outside any run, so a layer's cost can be read
//! without the rest of the pipeline around it.

use std::hint::black_box;
use std::time::Instant;

use ctlm_agocs::AttrIndex;
use ctlm_core::TaskCoAnalyzer;
use ctlm_data::compaction::AttrRequirement;
use ctlm_data::dataset::{Dataset, DatasetBuilder, NUM_GROUPS};
use ctlm_data::encode::co_vv::CoVvEncoder;
use ctlm_data::vocab::ValueVocab;
use ctlm_lab::spec::SyntheticWorkload;
use ctlm_lab::stream::SyntheticStream;
use ctlm_nn::{CrossEntropyLoss, Net, Workspace};
use ctlm_sched::{ArrivalStream, CapacityFit, SchedCluster, SimConfig};
use ctlm_sim::EventQueue;
use ctlm_tensor::init::seeded_rng;
use ctlm_tensor::{ops, Csr, Matrix};
use ctlm_trace::{
    CellSet, EventPayload, GeneratedTrace, Machine, Scale, TaskConstraint, TraceGenerator,
};

use crate::spans::Recorder;

/// Per-layer values by metric name.
pub type Layer = Vec<(String, f64)>;

pub fn put(out: &mut Layer, name: &str, value: f64) {
    out.push((name.to_string(), value));
}

fn ns_per(iters: usize, f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as f64 / iters as f64
}

/// `ctlm-sim`: one push + one pop on an [`EventQueue`] holding `depth`
/// pending events, timers one scheduler cycle ahead (the wheel lane's
/// pattern). Returns nanoseconds per delivered event.
pub fn event_queue(rec: &mut Recorder, depth: usize, cycle: u64) -> f64 {
    const EVENTS: usize = 400_000;
    rec.span("sim", "probe.sim.queue", |rec| {
        let mut q: EventQueue<u32> = EventQueue::new();
        let depth = depth.max(16);
        for i in 0..depth {
            q.push(i as u64 * cycle / depth as u64, 0, 0, 0, 0);
        }
        let ns = ns_per(EVENTS, || {
            for _ in 0..EVENTS {
                let ev = q.pop().expect("queue keeps its depth");
                q.push(ev.time + cycle, 0, 0, 0, ev.payload);
            }
        });
        black_box(q.len());
        rec.count("events", EVENTS as f64);
        rec.count("depth", depth as f64);
        ns
    })
}

/// `ctlm-sched`: `tightest_fit`, then `place` + `release`, on the built
/// fleet at half occupancy. Returns `(fit ns, place+release ns)` per
/// call.
pub fn cluster(rec: &mut Recorder, fleet: &SchedCluster, cpu: f64) -> (f64, f64) {
    const CALLS: usize = 200_000;
    rec.span("sched", "probe.sched.cluster", |rec| {
        let mut c = fleet.clone();
        let mut task = 0u64;
        for _ in 0..c.len() / 2 {
            if let CapacityFit::Fit(id) = c.tightest_fit(&[], cpu, cpu) {
                c.place(id, task, cpu, cpu, 2);
                task += 1;
            }
        }
        let fit = ns_per(CALLS, || {
            for _ in 0..CALLS {
                black_box(c.tightest_fit(black_box(&[]), cpu, cpu));
            }
        });
        let CapacityFit::Fit(id) = c.tightest_fit(&[], cpu, cpu) else {
            return (fit, 0.0);
        };
        let place_release = ns_per(CALLS, || {
            for _ in 0..CALLS {
                c.place(id, task, cpu, cpu, 2);
                black_box(c.release(id, task));
            }
        });
        rec.count("calls", CALLS as f64);
        rec.count("machines", c.len() as f64);
        (fit, place_release)
    })
}

/// `ctlm-lab`: a [`SyntheticStream`] drained standalone. Returns
/// `(seconds, tasks, chunks)`.
pub fn stream_decode(
    rec: &mut Recorder,
    w: &SyntheticWorkload,
    sim: &SimConfig,
    index: usize,
    chunk: usize,
) -> (f64, f64, f64) {
    rec.span("lab", "probe.lab.stream", |rec| {
        let t = Instant::now();
        let mut stream = SyntheticStream::new(w, sim, index, 0, chunk).expect("validated spec");
        let mut buf = Vec::new();
        let (mut tasks, mut chunks) = (0usize, 0usize);
        loop {
            buf.clear();
            let n = stream.refill(&mut buf);
            if n == 0 {
                break;
            }
            tasks += n;
            chunks += 1;
        }
        rec.count("tasks", tasks as f64);
        (t.elapsed().as_secs_f64(), tasks as f64, chunks as f64)
    })
}

/// `ctlm-trace`: generate the workload's trace once more, on its own.
pub fn generate_trace(
    rec: &mut Recorder,
    cell: CellSet,
    scale: Scale,
    out: &mut Layer,
) -> GeneratedTrace {
    rec.span("trace", "probe.trace.generate", |rec| {
        let t = Instant::now();
        let trace = TraceGenerator::generate_cell(cell, scale);
        put(out, "trace.generate_s", t.elapsed().as_secs_f64());
        put(out, "trace.events", trace.events.len() as f64);
        rec.count("events", trace.events.len() as f64);
        trace
    })
}

/// Machines a generated trace adds, in event order.
pub fn trace_machines(trace: &GeneratedTrace) -> Vec<&Machine> {
    trace
        .events
        .iter()
        .filter_map(|e| match &e.payload {
            EventPayload::MachineAdd(m) => Some(m),
            _ => None,
        })
        .collect()
}

/// `ctlm-agocs`: build an [`AttrIndex`] over the fleet, then
/// `count_matching` over the workload's own requirement sets.
pub fn attr_index(
    rec: &mut Recorder,
    machines: &[&Machine],
    reqs: &[&[AttrRequirement]],
    out: &mut Layer,
) {
    rec.span("agocs", "probe.agocs.index", |rec| {
        let t = Instant::now();
        let mut index = AttrIndex::new();
        for m in machines {
            index.add_machine(m);
        }
        put(out, "agocs.index.build_s", t.elapsed().as_secs_f64());
        let ns = ns_per(reqs.len().max(1), || {
            for r in reqs {
                black_box(index.count_matching(r));
            }
        });
        put(out, "agocs.match_ns", ns);
        rec.count("machines", machines.len() as f64);
        rec.count("queries", reqs.len() as f64);
    });
}

/// `ctlm-data`: CO-VV-encode every requirement set, then snapshot the
/// rows into a dataset. Returns the dataset for the kernel probes.
pub fn encode(
    rec: &mut Recorder,
    reqs: &[&[AttrRequirement]],
    labels: &[u8],
    vocab: &ValueVocab,
    out: &mut Layer,
) -> Dataset {
    rec.span("data", "probe.data.encode", |rec| {
        let width = vocab.len();
        let mut b = DatasetBuilder::new(width, NUM_GROUPS);
        let t = Instant::now();
        for (r, &label) in reqs.iter().zip(labels) {
            b.push(CoVvEncoder.encode_requirements(r, vocab), label);
        }
        let per_row = t.elapsed().as_secs_f64() * 1e6 / reqs.len().max(1) as f64;
        put(out, "data.encode_us_per_row", per_row);
        let t = Instant::now();
        let ds = b.snapshot(width);
        put(out, "data.snapshot_s", t.elapsed().as_secs_f64());
        put(out, "data.vocab.width", width as f64);
        rec.count("rows", reqs.len() as f64);
        ds
    })
}

/// `ctlm-tensor` and `ctlm-nn` at the shape training runs them: batch
/// 128 × the dataset's width, hidden 30.
pub fn kernels(rec: &mut Recorder, ds: &Dataset, out: &mut Layer) {
    const BATCH: usize = 128;
    const HIDDEN: usize = 30;
    const ITERS: usize = 2_000;
    rec.span("tensor", "probe.tensor.kernels", |rec| {
        let rows: Vec<usize> = (0..BATCH.min(ds.len())).collect();
        let x: Csr = ds.x.select_rows(&rows);
        let y: Vec<u8> = rows.iter().map(|&r| ds.y[r]).collect();
        let width = x.cols();
        let mut rng = seeded_rng(7);
        let mut net = Net::two_layer(width, HIDDEN, NUM_GROUPS, &mut rng);

        // Input layer: sparse batch times the dense weight, transposed.
        let w = Matrix::from_fn(HIDDEN, width, |r, c| ((r * 31 + c) % 17) as f32 * 0.01);
        let mut h = Matrix::zeros(x.rows(), HIDDEN);
        let ns = ns_per(ITERS, || {
            for _ in 0..ITERS {
                ops::csr_matmul_bt_into(black_box(&x), &w, &mut h);
            }
        });
        let flops = 2.0 * x.nnz() as f64 * HIDDEN as f64;
        put(out, "tensor.csr_matmul_gflops", flops / ns);
        // Computed, not measured: per stored entry one value, one column
        // index and one weight per hidden unit; plus the output.
        let bytes =
            x.nnz() as f64 * (4.0 + 8.0 + 4.0 * HIDDEN as f64) + (x.rows() * HIDDEN * 4) as f64;
        put(out, "tensor.bytes_per_flop", bytes / flops.max(1.0));

        // Output layer: dense hidden activations times the class weights.
        let w2 = Matrix::from_fn(NUM_GROUPS, HIDDEN, |r, c| ((r * 7 + c) % 13) as f32 * 0.01);
        let mut logits = Matrix::zeros(x.rows(), NUM_GROUPS);
        let ns = ns_per(ITERS, || {
            for _ in 0..ITERS {
                ops::matmul_bt_into(black_box(&h), &w2, &mut logits);
            }
        });
        let flops = 2.0 * (x.rows() * HIDDEN * NUM_GROUPS) as f64;
        put(out, "tensor.matmul_gflops", flops / ns);
        black_box(&logits);
        rec.count("nnz", x.nnz() as f64);
        rec.count("width", width as f64);

        rec.span("nn", "probe.nn.batch", |_| {
            let loss = CrossEntropyLoss::group0_boosted(NUM_GROUPS, 200.0);
            let mut ws = Workspace::new();
            let ns = ns_per(ITERS, || {
                for _ in 0..ITERS {
                    black_box(net.train_batch(&x, &y, &loss, &mut ws));
                }
            });
            put(out, "nn.train_batch_us", ns / 1e3);
            let ns = ns_per(ITERS, || {
                for _ in 0..ITERS {
                    black_box(net.forward(black_box(&x)));
                }
            });
            put(out, "nn.forward_us", ns / 1e3);
        });
    });
}

/// `ctlm-core`: single-task `predict_group` calls timed one by one,
/// cycling over the workload's constrained tasks.
pub fn predict(
    rec: &mut Recorder,
    analyzer: &TaskCoAnalyzer,
    tasks: &[&[TaskConstraint]],
    out: &mut Layer,
) {
    const CALLS: usize = 100_000;
    if tasks.is_empty() {
        return;
    }
    rec.span("core", "probe.core.predict", |rec| {
        let mut ns = Vec::with_capacity(CALLS);
        for c in tasks.iter().cycle().take(CALLS) {
            let t = Instant::now();
            black_box(analyzer.predict_group(black_box(c)).ok());
            ns.push(t.elapsed().as_nanos() as u32);
        }
        ns.sort_unstable();
        let at = |q: f64| ns[((CALLS - 1) as f64 * q) as usize] as f64 / 1e3;
        put(out, "core.predict.p50_us", at(0.50));
        put(out, "core.predict.p99_us", at(0.99));
        put(out, "core.predict.calls", CALLS as f64);
        rec.count("calls", CALLS as f64);
    });
}

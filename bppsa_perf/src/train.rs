//! The three training workloads: each runs a BPPSA trajectory and a
//! baseline (BP) trajectory over the same seeded batches, from identical
//! initial weights, and times both backward passes.

use crate::clock::{process_cpu_ms, thread_cpu_ms};
use crate::report::Report;
use crate::stats::{median, paired_ratio, percentile};
use crate::trace::{self, Tracer};
use bppsa_core::{BppsaOptions, JacobianChain, Network, PlannedScan, ScanElement, ScanWorkspace};
use bppsa_models::prune::prune_operator;
use bppsa_models::{
    Adam, BitstreamDataset, DiagonalSsm, Optimizer, PooledChainSet, RnnGrads, RnnStates, Sgd,
    SsmGrads, SsmStates, SyntheticCifar, VanillaRnn,
};
use bppsa_ops::{Conv2d, Conv2dConfig, Flatten, Linear, Relu, SoftmaxCrossEntropy};
use bppsa_tensor::init::seeded_rng;
use bppsa_tensor::{Tensor, Vector};
use rand::Rng;
use std::hint::black_box;
use std::time::Instant;

/// Seed of every model's initial weights. The model is part of a workload's
/// definition, like its shape; `--seed` draws the data. (With seeded
/// weights the pruned network's baseline backward cost varied fivefold
/// between seeds.)
pub const MODEL_SEED: u64 = 0x5eed;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 7;

/// Largest relative gradient gap (max |BPPSA − BP| over max |BP|) the
/// correctness gate accepts. Both backward passes compute the same sums in
/// f32 in a different association order (the scan reassociates the
/// Jacobian products), which moves the last few bits only.
const GRAD_REL_TOL: f64 = 1e-5;

/// Largest per-step loss gap between the two trajectories. They start from
/// identical weights and see identical batches; the only divergence is the
/// gradient rounding above, fed back through the optimizer.
const LOSS_REL_TOL: f64 = 1e-5;

/// Steps after which the baseline trajectory takes the BPPSA trajectory's
/// weights and optimizer state again. Two f32 training runs that differ
/// only in rounding drift apart over hundreds of steps (Adam turns a
/// rounding-sized gradient difference on a near-zero gradient into a
/// full-size step), so the loss comparison holds the trajectories to
/// rounding within each window of this many steps rather than over a whole
/// run.
const RESYNC_EVERY: usize = 4;

/// A BPPSA trajectory and a baseline trajectory that a training workload
/// advances in lock step.
pub trait Trainer {
    /// Samples per mini-batch.
    fn batch_size(&self) -> usize;
    /// Number of distinct mini-batches in the dataset (cycled).
    fn num_batches(&self) -> usize;
    /// BPPSA trajectory: forward over mini-batch `k`; returns the mean loss.
    fn forward(&mut self, k: usize) -> f64;
    /// BPPSA trajectory: the backward route over the batch just forwarded.
    /// With a tracer, a route made of several public calls records them as
    /// child spans of the open route span. A route made of per-sample calls
    /// may run the baseline backward of each sample right after it, for the
    /// closest pairing; it returns the wall-clock and CPU milliseconds that
    /// took, which the caller takes off the route's time, and
    /// [`Trainer::baseline_backward`] then reports them.
    fn backward(&mut self, tracer: Option<&mut Tracer>, id: u64) -> (f64, f64);
    /// BPPSA trajectory: optimizer step with the gradients just computed.
    fn step(&mut self);
    /// The baseline backward over the mini-batch just forwarded, on the
    /// BPPSA trajectory's weights and states — the inputs the route just
    /// saw. Keeps the gradients for [`Trainer::grad_gap`] and returns the
    /// wall-clock and CPU milliseconds.
    fn baseline_backward(&mut self) -> (f64, f64);
    /// Relative gap between the BPPSA gradients and the baseline's from
    /// [`Trainer::baseline_backward`].
    fn grad_gap(&self) -> f64;
    /// Baseline trajectory: one whole step over mini-batch `k`; returns the
    /// mean loss.
    fn baseline_step(&mut self, k: usize) -> f64;
    /// Copies the BPPSA trajectory's weights and optimizer state into the
    /// baseline trajectory (see [`RESYNC_EVERY`]).
    fn resync(&mut self);
    /// Traced run only: re-times the hidden parts of the backward route
    /// through public calls. Returns `(chain refresh ns, pooled scan ns)`
    /// when the route hides them, and the caller-thread serial scan ns.
    fn replay(&mut self) -> (Option<(u64, u64)>, u64);
    /// The compiled per-sample plan the route executes.
    fn plan(&self) -> &PlannedScan;
}

/// Runs `setup` [`SETUP_REPEATS`] times, reporting the median as `setup_s`,
/// and keeps the last trainer.
pub fn timed_setup<T>(report: &mut Report, mut setup: impl FnMut() -> T) -> T {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    report.set("setup_s", median(&times));
    last.expect("at least one set-up")
}

fn rel_gap(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "gradient layouts differ");
    let scale = b.iter().fold(0f64, |m, &v| m.max(f64::from(v).abs()));
    let diff = a.iter().zip(b).fold(0f64, |m, (&x, &y)| {
        m.max((f64::from(x) - f64::from(y)).abs())
    });
    diff / scale.max(f64::MIN_POSITIVE)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Drives a trainer for `seconds`, checking correctness, and fills the
/// end-to-end metrics (untraced) or the per-layer ones (traced).
pub fn run(
    t: &mut impl Trainer,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
    report: &mut Report,
) {
    let b = t.batch_size();
    let (mut fwd, mut route, mut opt, mut bp) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut serial_ns = Vec::new();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let mut worst_loss_gap = 0f64;
    // CPU milliseconds of each iteration's route call (every thread of the
    // process: the route fans out over the worker pool) and of the baseline
    // backward on the same inputs.
    let (mut route_cpu, mut bp_cpu) = (Vec::new(), Vec::new());
    for i in 0.. {
        let id = i as u64;
        let k = i % t.num_batches();
        let step_span = tracer.as_deref_mut().map(|tr| tr.begin("step", id));

        let f_span = tracer
            .as_deref_mut()
            .map(|tr| tr.begin("models.forward", id));
        let t0 = Instant::now();
        let loss_a = t.forward(k);
        let t1 = Instant::now();
        if let (Some(tr), Some(s)) = (tracer.as_deref_mut(), f_span) {
            tr.end(s);
        }

        let r_span = tracer
            .as_deref_mut()
            .map(|tr| tr.begin("models.backward_route", id));
        let c2 = process_cpu_ms();
        let t2 = Instant::now();
        let (inner_ms, inner_cpu) = t.backward(tracer.as_deref_mut(), id);
        let t3 = Instant::now();
        let route_ms = (t3 - t2).as_secs_f64() * 1e3 - inner_ms;
        route_cpu.push(process_cpu_ms() - c2 - inner_cpu);
        if let (Some(tr), Some(route)) = (tracer.as_deref_mut(), r_span) {
            tr.end(route);
            let replay = tr.begin("trace.replay", id);
            let (hidden, serial) = t.replay();
            tr.end(replay);
            if let Some((refresh, scan)) = hidden {
                tr.replayed(
                    route,
                    id,
                    &[("models.chain_refresh", refresh), ("core.scan", scan)],
                );
            }
            serial_ns.push(serial);
        }

        // The baseline backward on the same batch, moments after the route:
        // a slow stretch of the host slows both alike.
        let b_span = tracer
            .as_deref_mut()
            .map(|tr| tr.begin("bench.baseline", id));
        let (bp_ms, bp_cpu_ms) = t.baseline_backward();
        if let (Some(tr), Some(s)) = (tracer.as_deref_mut(), b_span) {
            tr.end(s);
        }

        let last = Instant::now() >= deadline;
        if i == 0 || last {
            let c_span = tracer.as_deref_mut().map(|tr| tr.begin("bench.check", id));
            let gap = t.grad_gap();
            println!("# grad check at step {i}: max|BPPSA-BP|/max|BP| = {gap:.3e} (tolerance {GRAD_REL_TOL:.0e})");
            if gap.is_nan() || gap > GRAD_REL_TOL {
                report.check_failed(&format!("step {i}: gradient gap {gap:.3e}"));
            }
            if let (Some(tr), Some(s)) = (tracer.as_deref_mut(), c_span) {
                tr.end(s);
            }
        }

        let o_span = tracer
            .as_deref_mut()
            .map(|tr| tr.begin("models.optimizer", id));
        let t4 = Instant::now();
        t.step();
        let t5 = Instant::now();
        if let (Some(tr), Some(s)) = (tracer.as_deref_mut(), o_span) {
            tr.end(s);
        }
        if let (Some(tr), Some(s)) = (tracer.as_deref_mut(), step_span) {
            tr.end(s);
        }

        let loss_b = t.baseline_step(k);
        let gap = (loss_a - loss_b).abs() / loss_b.abs().max(1.0);
        worst_loss_gap = worst_loss_gap.max(gap);
        if gap.is_nan() || gap > LOSS_REL_TOL {
            report.check_failed(&format!("step {i}: loss {loss_a} (BPPSA) vs {loss_b} (BP)"));
        }
        report.attempted += 1;
        if (i + 1) % RESYNC_EVERY == 0 {
            t.resync();
        }

        fwd.push((t1 - t0).as_secs_f64() * 1e3);
        route.push(route_ms);
        opt.push((t5 - t4).as_secs_f64() * 1e3);
        bp.push(bp_ms);
        bp_cpu.push(bp_cpu_ms);
        if last {
            break;
        }
    }
    println!(
        "# {} iterations of {b} samples; worst per-step loss gap {worst_loss_gap:.3e} (tolerance {LOSS_REL_TOL:.0e})",
        route.len()
    );

    match tracer {
        None => end_to_end(
            report,
            b,
            Timings {
                fwd: &fwd,
                route: &route,
                opt: &opt,
                bp: &bp,
                route_cpu: &route_cpu,
                bp_cpu: &bp_cpu,
            },
        ),
        Some(tr) => {
            per_layer(report, t, tr, b, &serial_ns);
        }
    }
}

/// The percentile `q` of `samples` if the percentile rule allows it, else
/// the highest one it allows, with a note saying so.
fn tail(name: &str, samples: &[f64], q: f64) -> f64 {
    if let Some(v) = percentile(samples, q) {
        return v;
    }
    let n = samples.len();
    // Highest nearest-rank percentile with ten samples beyond it.
    let rank = n.saturating_sub(crate::stats::MIN_BEYOND).max(1);
    let q_ok = rank as f64 / n as f64;
    let v = percentile(samples, q_ok.min(0.999)).unwrap_or_else(|| median(samples));
    println!(
        "# {name}: {n} samples are too few for p{:.0}; reporting p{:.0} instead",
        q * 100.0,
        q_ok * 100.0
    );
    v
}

/// One untraced run's per-iteration timings, in milliseconds.
struct Timings<'a> {
    fwd: &'a [f64],
    route: &'a [f64],
    opt: &'a [f64],
    bp: &'a [f64],
    route_cpu: &'a [f64],
    bp_cpu: &'a [f64],
}

fn end_to_end(report: &mut Report, b: usize, t: Timings<'_>) {
    let steps: Vec<f64> = t
        .fwd
        .iter()
        .zip(t.route)
        .zip(t.opt)
        .map(|((f, r), o)| f + r + o)
        .collect();
    let bwd_p50 = percentile(t.route, 0.5).unwrap_or_else(|| median(t.route));
    let bwd_p90 = tail("bwd_ms_p90", t.route, 0.9);
    let bp_p50 = percentile(t.bp, 0.5).unwrap_or_else(|| median(t.bp));
    let step_p50 = median(&steps);
    let busy_s: f64 = steps.iter().sum::<f64>() / 1e3;
    println!(
        "# wall clock (ungated): bwd_ms_p50 {bwd_p50:.3} bwd_ms_p90 {bwd_p90:.3} ({} BPPSA backward passes), bp_bwd_ms_p50 {bp_p50:.3} ({} baseline backward passes), step_ms_p50 {step_p50:.3}, train_samples_per_s {:.3} ({} steps of {b} samples)",
        t.route.len(),
        t.bp.len(),
        (steps.len() * b) as f64 / busy_s,
        steps.len()
    );
    println!(
        "# cpu time (ungated): route_cpu_ms_p50 {:.3}, bp_cpu_ms_p50 {:.3}",
        median(t.route_cpu),
        median(t.bp_cpu)
    );
    // Both ratios pair the two backward passes of the same iteration, on
    // the same mini-batch, moments apart: a slow stretch of the host slows
    // both.
    report.set("bwd_speedup_vs_bp", paired_ratio(t.bp, t.route));
    report.set("bwd_cpu_vs_bp", paired_ratio(t.route_cpu, t.bp_cpu));
}

fn per_layer(report: &mut Report, t: &impl Trainer, tr: &Tracer, b: usize, serial_ns: &[u64]) {
    let spans = tr.spans();
    let selfs = trace::self_times_ns(spans);
    // Per-iteration sums of duration and self time for each span name.
    let per_iter = |name: &str, use_self: bool| -> Vec<f64> {
        let mut by_id = std::collections::BTreeMap::<u64, u64>::new();
        for (s, &self_ns) in spans.iter().zip(&selfs) {
            if s.name == name {
                *by_id.entry(s.id).or_default() += if use_self { self_ns } else { s.dur_ns() };
            }
        }
        by_id.values().map(|&v| ms(v)).collect()
    };
    let med = |v: Vec<f64>| if v.is_empty() { 0.0 } else { median(&v) };
    report.set("models.forward_ms", med(per_iter("models.forward", false)));
    report.set(
        "models.backward_route_ms",
        med(per_iter("models.backward_route", false)),
    );
    report.set(
        "models.chain_refresh_ms",
        med(per_iter("models.chain_refresh", false)),
    );
    report.set(
        "models.grad_reduce_ms",
        med(per_iter("models.backward_route", true)),
    );
    report.set(
        "models.optimizer_ms",
        med(per_iter("models.optimizer", false)),
    );
    report.set("ops.jacobian_ms", med(per_iter("ops.jacobian", false)));
    report.set("ops.param_grad_ms", med(per_iter("ops.param_grad", false)));
    report.set("core.plan_ms", t.plan().build_time().as_secs_f64() * 1e3);
    let scan_ms = med(per_iter("core.scan", false));
    let serial_ms = med(serial_ns.iter().map(|&v| ms(v)).collect());
    report.set("core.scan_ms", scan_ms);
    report.set("core.scan_serial_ms", serial_ms);
    let plan = t.plan();
    let flops = (plan.spgemm_flops() + plan.elementwise_flops()) as f64 * b as f64;
    report.set("core.scan_gflops", flops / (scan_ms * 1e-3) / 1e9);
    report.set("core.plan.spgemm_flops", plan.spgemm_flops() as f64);
    report.set(
        "core.plan.elementwise_flops",
        plan.elementwise_flops() as f64,
    );
    report.set("core.plan.products", plan.planned_products() as f64);
    report.set("core.plan.spmvs", plan.planned_spmvs() as f64);
    let kernels = plan.kernel_counts();
    report.set("core.plan.kernels_gather", kernels.gather as f64);
    report.set("core.plan.kernels_gustavson", kernels.gustavson as f64);
    report.set("core.plan.kernels_dense", kernels.dense as f64);
    report.set("core.plan.segments", plan.segments() as f64);
    report.set(
        "core.plan.workspace_bytes",
        plan.workspace_bytes::<f32>() as f64,
    );
    report.set("scan.fanout_speedup", serial_ms / scan_ms);

    // Iteration time is the step span less the replay, the baseline
    // backward and the checks, which exist only to measure; whatever no
    // child span covers is unaccounted.
    let (mut iter_ns, mut unaccounted_ns) = (0u64, 0u64);
    for (idx, (s, &self_ns)) in spans.iter().zip(&selfs).enumerate() {
        if s.name != "step" {
            continue;
        }
        let instrument: u64 = spans
            .iter()
            .filter(|c| {
                c.parent as usize == idx
                    && matches!(c.name, "trace.replay" | "bench.check" | "bench.baseline")
            })
            .map(|c| c.dur_ns())
            .sum();
        iter_ns += s.dur_ns() - instrument;
        unaccounted_ns += self_ns;
    }
    let frac = unaccounted_ns as f64 / iter_ns.max(1) as f64;
    report.set("trace.unaccounted_frac", frac);
    println!("# traced iteration: self times account for {:.2}% of step time; {:.3} ms unaccounted per iteration", 100.0 * (1.0 - frac), ms(unaccounted_ns) / spans.iter().filter(|s| s.name == "step").count().max(1) as f64);
    for (name, (self_ms, dur_ms, count)) in trace::totals_by_name(spans) {
        println!(
            "# span {name:<26} count {count:>6}  total {dur_ms:>10.3} ms  self {self_ms:>10.3} ms"
        );
    }
}

// ---------------------------------------------------------------------
// Recurrent models (rnn_train, ssm_long)
// ---------------------------------------------------------------------

type Batch<'a, St> = (&'a [f32], &'a St, Vector<f32>, Vector<f32>);

/// What the recurrent trainer needs from a model.
pub trait Recurrent: Clone {
    /// Forward trajectory of one sample.
    type States;
    /// Parameter gradients.
    type Grads;
    /// Forward over one sequence.
    fn fwd(&self, xs: &[f32]) -> Self::States;
    /// Loss, scan seed and logits gradient.
    fn loss_seed(&self, st: &Self::States, label: usize) -> (f32, Vector<f32>, Vector<f32>);
    /// The pooled BPPSA route.
    fn route(
        &self,
        batch: &[Batch<'_, Self::States>],
        set: &mut PooledChainSet<f32>,
    ) -> Self::Grads;
    /// The sequential baseline backward of one sample.
    fn baseline(
        &self,
        xs: &[f32],
        st: &Self::States,
        seed: &Vector<f32>,
        gl: &Vector<f32>,
    ) -> Self::Grads;
    /// Refreshes a pooled chain's values in place, as the route does.
    fn refresh(&self, chain: &mut JacobianChain<f32>, st: &Self::States, seed: &Vector<f32>);
    /// Flattened gradients in `params` layout.
    fn flat(g: &Self::Grads) -> Vec<f32>;
    /// `acc += g`.
    fn accumulate(acc: &mut Self::Grads, g: &Self::Grads);
    /// Flattened parameters.
    fn params(&self) -> Vec<f32>;
    /// Overwrites parameters.
    fn set_params(&mut self, p: &[f32]);
}

impl Recurrent for VanillaRnn<f32> {
    type States = RnnStates<f32>;
    type Grads = RnnGrads<f32>;
    fn fwd(&self, xs: &[f32]) -> Self::States {
        self.forward(xs)
    }
    fn loss_seed(&self, st: &Self::States, label: usize) -> (f32, Vector<f32>, Vector<f32>) {
        self.loss_and_seed(st, label)
    }
    fn route(
        &self,
        batch: &[Batch<'_, Self::States>],
        set: &mut PooledChainSet<f32>,
    ) -> Self::Grads {
        // The options of `BackwardMethod::bppsa_pooled_batched(BppsaOptions::pooled())`.
        self.backward_bppsa_pooled(batch, BppsaOptions::pooled(), set)
    }
    fn baseline(
        &self,
        xs: &[f32],
        st: &Self::States,
        seed: &Vector<f32>,
        gl: &Vector<f32>,
    ) -> Self::Grads {
        self.backward_bptt(xs, st, seed, gl)
    }
    fn refresh(&self, chain: &mut JacobianChain<f32>, st: &Self::States, seed: &Vector<f32>) {
        chain
            .seed_mut()
            .as_mut_slice()
            .copy_from_slice(seed.as_slice());
        for (t, element) in chain.jacobians_mut().iter_mut().enumerate() {
            let ScanElement::Sparse(m) = element else {
                unreachable!("pooled RNN chains are CSR")
            };
            self.fill_hidden_jacobian_values(&st[t], m.data_mut());
        }
    }
    fn flat(g: &Self::Grads) -> Vec<f32> {
        g.flat()
    }
    fn accumulate(acc: &mut Self::Grads, g: &Self::Grads) {
        acc.accumulate(g);
    }
    fn params(&self) -> Vec<f32> {
        VanillaRnn::params(self)
    }
    fn set_params(&mut self, p: &[f32]) {
        VanillaRnn::set_params(self, p);
    }
}

impl Recurrent for DiagonalSsm<f32> {
    type States = SsmStates<f32>;
    type Grads = SsmGrads<f32>;
    fn fwd(&self, xs: &[f32]) -> Self::States {
        self.forward(xs)
    }
    fn loss_seed(&self, st: &Self::States, label: usize) -> (f32, Vector<f32>, Vector<f32>) {
        self.loss_and_seed(st, label)
    }
    fn route(
        &self,
        batch: &[Batch<'_, Self::States>],
        set: &mut PooledChainSet<f32>,
    ) -> Self::Grads {
        // The options of `BackwardMethod::bppsa_pooled_batched(BppsaOptions::pooled())`.
        self.backward_bppsa_pooled(batch, BppsaOptions::pooled(), set)
    }
    fn baseline(
        &self,
        xs: &[f32],
        st: &Self::States,
        seed: &Vector<f32>,
        gl: &Vector<f32>,
    ) -> Self::Grads {
        self.backward_sequential(xs, st, seed, gl)
    }
    fn refresh(&self, chain: &mut JacobianChain<f32>, st: &Self::States, seed: &Vector<f32>) {
        // A diagonal element's values are the gate vector.
        chain
            .seed_mut()
            .as_mut_slice()
            .copy_from_slice(seed.as_slice());
        for (t, element) in chain.jacobians_mut().iter_mut().enumerate() {
            let ScanElement::Sparse(m) = element else {
                unreachable!("pooled SSM chains are CSR")
            };
            m.data_mut().copy_from_slice(st.a[t].as_slice());
        }
    }
    fn flat(g: &Self::Grads) -> Vec<f32> {
        g.flat()
    }
    fn accumulate(acc: &mut Self::Grads, g: &Self::Grads) {
        acc.accumulate(g);
    }
    fn params(&self) -> Vec<f32> {
        DiagonalSsm::params(self)
    }
    fn set_params(&mut self, p: &[f32]) {
        DiagonalSsm::set_params(self, p);
    }
}

/// A recurrent model's BPPSA and baseline trajectories.
pub struct RecurrentTrainer<M: Recurrent> {
    data: BitstreamDataset<f32>,
    b: usize,
    a: M,
    opt_a: Adam<f32>,
    set: PooledChainSet<f32>,
    base: M,
    opt_b: Adam<f32>,
    /// Batch `k` forwarded by the BPPSA trajectory: states, scaled seed,
    /// scaled logits gradient.
    prepared: Vec<(M::States, Vector<f32>, Vector<f32>)>,
    cur: usize,
    grads: Option<M::Grads>,
    /// Baseline gradients of the batch just forwarded, flattened.
    bp_grads: Vec<f32>,
    serial_ws: Option<ScanWorkspace<f32>>,
}

impl<M: Recurrent> RecurrentTrainer<M> {
    /// Builds the dataset and both trajectories, plans the pooled route and
    /// runs it once so the worker pool and workspaces are warm.
    pub fn new(model: M, data: BitstreamDataset<f32>, b: usize, lr: f64) -> Self {
        let mut t = Self {
            data,
            b,
            base: model.clone(),
            a: model,
            opt_a: Adam::new(lr),
            opt_b: Adam::new(lr),
            set: PooledChainSet::new(),
            prepared: Vec::with_capacity(b),
            cur: 0,
            grads: None,
            bp_grads: Vec::new(),
            serial_ws: None,
        };
        t.forward(0);
        t.backward(None, 0);
        t.grads = None;
        t
    }

    fn batch(&self) -> Vec<Batch<'_, M::States>> {
        let lo = self.cur * self.b;
        self.prepared
            .iter()
            .enumerate()
            .map(|(j, (st, seed, gl))| {
                (
                    self.data.sample(lo + j).bits.as_slice(),
                    st,
                    seed.clone(),
                    gl.clone(),
                )
            })
            .collect()
    }
}

impl<M: Recurrent> Trainer for RecurrentTrainer<M> {
    fn batch_size(&self) -> usize {
        self.b
    }
    fn num_batches(&self) -> usize {
        self.data.len() / self.b
    }
    fn forward(&mut self, k: usize) -> f64 {
        self.cur = k;
        self.prepared.clear();
        let inv_b = 1.0 / self.b as f32;
        let mut loss = 0f64;
        for i in k * self.b..(k + 1) * self.b {
            let s = self.data.sample(i);
            let st = self.a.fwd(&s.bits);
            let (l, seed, gl) = self.a.loss_seed(&st, s.label);
            loss += f64::from(l);
            self.prepared
                .push((st, seed.scaled(inv_b), gl.scaled(inv_b)));
        }
        loss / self.b as f64
    }
    fn backward(&mut self, _tracer: Option<&mut Tracer>, _id: u64) -> (f64, f64) {
        let mut set = std::mem::take(&mut self.set);
        let grads = self.a.route(&self.batch(), &mut set);
        self.set = set;
        self.grads = Some(grads);
        (0.0, 0.0)
    }
    fn step(&mut self) {
        let g = M::flat(self.grads.as_ref().expect("backward before step"));
        let mut p = self.a.params();
        self.opt_a.step(&mut p, &g);
        self.a.set_params(&p);
    }
    fn baseline_backward(&mut self) -> (f64, f64) {
        let batch = self.batch();
        let c0 = thread_cpu_ms();
        let t0 = Instant::now();
        let mut acc: Option<M::Grads> = None;
        for (xs, st, seed, gl) in &batch {
            let g = self.a.baseline(xs, st, seed, gl);
            match &mut acc {
                None => acc = Some(g),
                Some(a) => M::accumulate(a, &g),
            }
        }
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let cpu_ms = thread_cpu_ms() - c0;
        self.bp_grads = M::flat(&acc.expect("nonempty batch"));
        (wall_ms, cpu_ms)
    }
    fn grad_gap(&self) -> f64 {
        rel_gap(
            &M::flat(self.grads.as_ref().expect("backward first")),
            &self.bp_grads,
        )
    }
    fn baseline_step(&mut self, k: usize) -> f64 {
        let inv_b = 1.0 / self.b as f32;
        let mut loss = 0f64;
        let mut acc: Option<M::Grads> = None;
        for i in k * self.b..(k + 1) * self.b {
            let s = self.data.sample(i);
            let st = self.base.fwd(&s.bits);
            let (l, seed, gl) = self.base.loss_seed(&st, s.label);
            loss += f64::from(l);
            let (seed, gl) = (seed.scaled(inv_b), gl.scaled(inv_b));
            let g = self.base.baseline(&s.bits, &st, &seed, &gl);
            match &mut acc {
                None => acc = Some(g),
                Some(a) => M::accumulate(a, &g),
            }
        }
        let g = M::flat(&acc.expect("nonempty batch"));
        let mut p = self.base.params();
        self.opt_b.step(&mut p, &g);
        self.base.set_params(&p);
        loss / self.b as f64
    }
    fn resync(&mut self) {
        self.base = self.a.clone();
        self.opt_b = self.opt_a.clone();
    }
    fn replay(&mut self) -> (Option<(u64, u64)>, u64) {
        let b = self.b;
        let t0 = Instant::now();
        for (chain, (st, seed, _)) in self.set.chains_mut(b).iter_mut().zip(&self.prepared) {
            self.a.refresh(chain, st, seed);
        }
        let t1 = Instant::now();
        self.set.execute(b, &|_, r| {
            black_box(r);
        });
        let t2 = Instant::now();
        let plan = self.set.plan().expect("planned in set-up").clone();
        let ws = self.serial_ws.get_or_insert_with(|| plan.workspace());
        let t3 = Instant::now();
        for chain in self.set.chains_mut(b).iter() {
            black_box(plan.execute_with(chain, ws));
        }
        let serial = t3.elapsed().as_nanos() as u64;
        (
            Some(((t1 - t0).as_nanos() as u64, (t2 - t1).as_nanos() as u64)),
            serial,
        )
    }
    fn plan(&self) -> &PlannedScan {
        self.set.plan().expect("planned in set-up")
    }
}

/// `rnn_train`: the §4.1 vanilla RNN on the bitstream task.
pub fn rnn_trainer(seed: u64) -> RecurrentTrainer<VanillaRnn<f32>> {
    const H: usize = 20;
    const T: usize = 1024;
    const B: usize = 16;
    const BATCHES: usize = 8;
    let data = BitstreamDataset::generate(B * BATCHES, T, seed);
    let rnn = VanillaRnn::new(
        1,
        H,
        BitstreamDataset::<f32>::NUM_CLASSES,
        &mut seeded_rng(MODEL_SEED),
    );
    RecurrentTrainer::new(rnn, data, B, 1e-3)
}

/// `ssm_long`: a diagonal SSM at a length that takes the log-space kernel.
pub fn ssm_trainer(seed: u64) -> RecurrentTrainer<DiagonalSsm<f32>> {
    const H: usize = 32;
    const T: usize = bppsa_core::DIAGONAL_LOG_SPACE_MIN_LEN;
    const B: usize = 4;
    const BATCHES: usize = 4;
    let data = BitstreamDataset::generate(B * BATCHES, T, seed);
    let ssm = DiagonalSsm::new(
        H,
        BitstreamDataset::<f32>::NUM_CLASSES,
        &mut seeded_rng(MODEL_SEED),
    );
    RecurrentTrainer::new(ssm, data, B, 1e-3)
}

// ---------------------------------------------------------------------
// pruned_cnn
// ---------------------------------------------------------------------

/// A network trajectory: the network, one optimizer per layer, and the
/// pruning mask re-applied after every step so retraining keeps the
/// pruned weights at zero.
struct NetTrajectory {
    net: Network<f32>,
    opts: Vec<Sgd<f32>>,
    masks: Vec<Vec<usize>>,
}

impl NetTrajectory {
    /// Takes `src`'s weights and optimizer state.
    fn copy_from(&mut self, src: &NetTrajectory) {
        for (dst, op) in self.net.ops_mut().iter_mut().zip(src.net.ops()) {
            if op.param_len() > 0 {
                dst.set_params(&op.params());
            }
        }
        self.opts = src.opts.clone();
    }

    fn step(&mut self, grads: &[Vec<f32>]) {
        for (((op, opt), g), mask) in self
            .net
            .ops_mut()
            .iter_mut()
            .zip(self.opts.iter_mut())
            .zip(grads)
            .zip(&self.masks)
        {
            if op.param_len() > 0 {
                let mut p = op.params();
                opt.step(&mut p, g);
                for &i in mask {
                    p[i] = 0.0;
                }
                op.set_params(&p);
            }
        }
    }
}

/// `pruned_cnn`'s BPPSA and baseline trajectories.
pub struct CnnTrainer {
    data: SyntheticCifar<f32>,
    /// The run's sample stream: indices into `data`, drawn from the seed.
    order: Vec<usize>,
    b: usize,
    a: NetTrajectory,
    base: NetTrajectory,
    /// The pruned network before retraining, which both trajectories go
    /// back to every [`CNN_EPISODE`] steps.
    fresh: NetTrajectory,
    plan: PlannedScan,
    serial_ws: Option<ScanWorkspace<f32>>,
    cur: usize,
    tapes: Vec<(bppsa_core::Tape<f32>, Vector<f32>)>,
    chains: Vec<JacobianChain<f32>>,
    grads: Vec<Vec<f32>>,
    /// Baseline gradients of the batch just forwarded.
    bp_grads: Vec<Vec<f32>>,
    /// The baseline's wall-clock and CPU milliseconds when the untraced
    /// route interleaved it.
    interleaved: Option<(f64, f64)>,
}

const CNN_HW: usize = 10;
const CNN_CH: usize = 8;
const CNN_PRUNE: f64 = 0.97;
/// Steps of one retraining episode. Both backward passes skip zero
/// gradients, so their costs follow the weights: over a hundred steps the
/// baseline's grew by a fifth, by an amount that depended on the sample
/// order. Short episodes from the same pruned network keep every run at
/// the same point of retraining.
const CNN_EPISODE: usize = 16;

fn pruned_net() -> (Network<f32>, Vec<Vec<usize>>) {
    let mut rng = seeded_rng(MODEL_SEED);
    let mut net = Network::new();
    for ci in [3, CNN_CH, CNN_CH, CNN_CH] {
        net.push(Box::new(Conv2d::new(
            Conv2dConfig::vgg_style(ci, CNN_CH, (CNN_HW, CNN_HW)),
            &mut rng,
        )));
        net.push(Box::new(Relu::new(vec![CNN_CH, CNN_HW, CNN_HW])));
    }
    net.push(Box::new(Flatten::new(vec![CNN_CH, CNN_HW, CNN_HW])));
    net.push(Box::new(Linear::new(
        CNN_CH * CNN_HW * CNN_HW,
        SyntheticCifar::<f32>::NUM_CLASSES,
        &mut rng,
    )));
    let masks = net
        .ops_mut()
        .iter_mut()
        .map(|op| {
            prune_operator(op.as_mut(), CNN_PRUNE);
            let p = op.params();
            (0..op.prunable_len()).filter(|&i| p[i] == 0.0).collect()
        })
        .collect();
    (net, masks)
}

/// `pruned_cnn`: §4.2 retraining of a 97%-pruned VGG-style conv stack.
pub fn cnn_trainer(seed: u64) -> CnnTrainer {
    const B: usize = 16;
    // Both backward passes skip zero gradients (dead ReLUs, pruned
    // weights), so their cost depends on the data and on how far training
    // has moved the weights. `SyntheticCifar` draws its class patterns from
    // its seed, so the task is generated once from `MODEL_SEED` and
    // `--seed` orders its samples: a run sees most of the same samples in
    // another order, so the data's cost is the same from seed to seed. A
    // fine-tuning learning rate keeps the weights, and so the cost, near
    // the pruned network's however many steps the host manages.
    const BATCHES: usize = 128;
    const POOL: usize = B * BATCHES;
    let data = SyntheticCifar::generate(POOL, CNN_HW, 0.3, MODEL_SEED);
    let mut rng = seeded_rng(seed);
    let mut order: Vec<usize> = (0..POOL).collect();
    for i in (1..POOL).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    let traj = || {
        let (net, masks) = pruned_net();
        let opts = vec![Sgd::new(1e-4, 0.9); net.num_layers()];
        NetTrajectory { net, opts, masks }
    };
    let (a, base, fresh) = (traj(), traj(), traj());
    let tape = a.net.forward(&data.sample(order[0]).image);
    // A serial-executor plan: each sample's scan runs on the caller thread.
    // A 10-layer chain split across the pool level by level is all
    // synchronisation — its time followed the host's CPU steal by a
    // quarter, against under a tenth on the caller thread — and the pool
    // fan-out is `rnn_train`'s to measure.
    let plan = a.net.plan_backward(&tape, BppsaOptions::serial());
    let mut t = CnnTrainer {
        data,
        order,
        b: B,
        a,
        base,
        fresh,
        plan,
        serial_ws: None,
        cur: 0,
        tapes: Vec::with_capacity(B),
        chains: Vec::with_capacity(B),
        grads: Vec::new(),
        bp_grads: Vec::new(),
        interleaved: None,
    };
    // Warm the worker pool and the route's buffers.
    t.forward(0);
    t.backward(None, 0);
    t.grads.clear();
    t
}

fn image_loss(
    net: &Network<f32>,
    image: &Tensor<f32>,
    label: usize,
    inv_b: f32,
) -> (bppsa_core::Tape<f32>, f64, Vector<f32>) {
    let tape = net.forward(image);
    let (loss, g) = SoftmaxCrossEntropy::loss_and_grad(&tape.output().to_vector(), label);
    (tape, f64::from(loss), g.scaled(inv_b))
}

fn add_into(acc: &mut Vec<Vec<f32>>, g: &[Vec<f32>]) {
    if acc.is_empty() {
        *acc = g.to_vec();
        return;
    }
    for (a, g) in acc.iter_mut().zip(g) {
        for (x, y) in a.iter_mut().zip(g) {
            *x += y;
        }
    }
}

impl Trainer for CnnTrainer {
    fn batch_size(&self) -> usize {
        self.b
    }
    fn num_batches(&self) -> usize {
        self.order.len() / self.b
    }
    fn forward(&mut self, k: usize) -> f64 {
        self.cur = k;
        self.tapes.clear();
        let inv_b = 1.0 / self.b as f32;
        let mut loss = 0.0;
        for i in k * self.b..(k + 1) * self.b {
            let s = self.data.sample(self.order[i]);
            let (tape, l, seed) = image_loss(&self.a.net, &s.image, s.label, inv_b);
            loss += l;
            self.tapes.push((tape, seed));
        }
        loss / self.b as f64
    }
    fn backward(&mut self, mut tracer: Option<&mut Tracer>, id: u64) -> (f64, f64) {
        self.grads.clear();
        self.chains.clear();
        self.bp_grads.clear();
        self.interleaved = None;
        let (mut bp_ms, mut bp_cpu) = (0.0, 0.0);
        let net = &self.a.net;
        for (tape, seed) in &self.tapes {
            let g = match tracer.as_deref_mut() {
                // Untraced: the route as one call, then the baseline on the
                // same sample.
                None => {
                    let g = net.backward_bppsa_planned(tape, seed, &self.plan);
                    let c0 = thread_cpu_ms();
                    let t0 = Instant::now();
                    let bp = net.backward_bp(tape, seed);
                    bp_ms += t0.elapsed().as_secs_f64() * 1e3;
                    bp_cpu += thread_cpu_ms() - c0;
                    add_into(&mut self.bp_grads, &bp.param_grads);
                    g
                }
                // Traced: the same route through its three public calls.
                Some(tr) => {
                    let s = tr.begin("ops.jacobian", id);
                    let chain = net.build_chain(tape, seed, bppsa_core::JacobianRepr::Sparse);
                    tr.end(s);
                    let s = tr.begin("core.scan", id);
                    let result = self.plan.execute(&chain);
                    tr.end(s);
                    let s = tr.begin("ops.param_grad", id);
                    let g = net.gradients_from_activation_grads(tape, result.grads().to_vec());
                    tr.end(s);
                    self.chains.push(chain);
                    g
                }
            };
            add_into(&mut self.grads, &g.param_grads);
        }
        if tracer.is_none() {
            self.interleaved = Some((bp_ms, bp_cpu));
        }
        (bp_ms, bp_cpu)
    }
    fn step(&mut self) {
        let grads = std::mem::take(&mut self.grads);
        self.a.step(&grads);
        self.grads = grads;
    }
    fn baseline_backward(&mut self) -> (f64, f64) {
        if let Some(timed) = self.interleaved.take() {
            return timed;
        }
        let c0 = thread_cpu_ms();
        let t0 = Instant::now();
        self.bp_grads.clear();
        for (tape, seed) in &self.tapes {
            add_into(
                &mut self.bp_grads,
                &self.a.net.backward_bp(tape, seed).param_grads,
            );
        }
        (t0.elapsed().as_secs_f64() * 1e3, thread_cpu_ms() - c0)
    }
    fn grad_gap(&self) -> f64 {
        let flat = |g: &[Vec<f32>]| g.concat();
        rel_gap(&flat(&self.grads), &flat(&self.bp_grads))
    }
    fn baseline_step(&mut self, k: usize) -> f64 {
        let inv_b = 1.0 / self.b as f32;
        let mut loss = 0.0;
        let mut acc = Vec::new();
        for i in k * self.b..(k + 1) * self.b {
            let s = self.data.sample(self.order[i]);
            let (tape, l, seed) = image_loss(&self.base.net, &s.image, s.label, inv_b);
            loss += l;
            add_into(
                &mut acc,
                &self.base.net.backward_bp(&tape, &seed).param_grads,
            );
        }
        self.base.step(&acc);
        if (k + 1).is_multiple_of(CNN_EPISODE) {
            self.a.copy_from(&self.fresh);
            self.base.copy_from(&self.fresh);
        }
        loss / self.b as f64
    }
    fn resync(&mut self) {
        self.base.copy_from(&self.a);
    }
    fn replay(&mut self) -> (Option<(u64, u64)>, u64) {
        // The route is already traced call by call and its plan already
        // runs on the caller thread; the reference times the same chains
        // through `execute_with` on one reused workspace.
        let ws = self.serial_ws.get_or_insert_with(|| self.plan.workspace());
        let t0 = Instant::now();
        for chain in &self.chains {
            black_box(self.plan.execute_with(chain, ws));
        }
        (None, t0.elapsed().as_nanos() as u64)
    }
    fn plan(&self) -> &PlannedScan {
        &self.plan
    }
}

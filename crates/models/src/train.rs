//! Training loops with switchable backward paths — the machinery behind the
//! Figure 7 (convergence) and Figure 9 (loss vs wall-clock) experiments.
//!
//! Every loop times the backward portion separately so the harness can
//! report backward-pass and overall speedups the way §5.1 does.

use crate::datasets::{BitstreamDataset, SyntheticCifar};
use crate::optim::Optimizer;
use crate::pooled::PooledChainSet;
use crate::rnn::{RnnBatchSample, RnnGrads, VanillaRnn};
use crate::served::ServedChainSet;
use crate::ssm::{DiagonalSsm, SsmBatchSample, SsmGrads};
use bppsa_core::{BppsaOptions, JacobianRepr, Network};
use bppsa_ops::SoftmaxCrossEntropy;
use bppsa_tensor::Scalar;
use std::time::Instant;

/// Which backward path a training loop uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackwardMethod {
    /// Classic back-propagation (the PyTorch-Autograd/cuDNN baseline).
    Bp,
    /// BPPSA: transposed-Jacobian chain + modified Blelloch scan.
    Bppsa {
        /// Scan execution options.
        opts: BppsaOptions,
        /// Jacobian representation.
        repr: JacobianRepr,
    },
    /// Pooled batched BPPSA for recurrent loops: one **per-sample** chain
    /// each, all executing a single compiled plan concurrently over a
    /// workspace pool ([`VanillaRnn::backward_bppsa_pooled`]); per-sample
    /// gradients are accumulated into the batch update. Valid because the
    /// optimizer consumes the batch sum. The plan is built once per run
    /// and kept in the loop's [`RecurrentTrainState`]. Ignored (treated as
    /// [`BackwardMethod::Bppsa`]) by feed-forward training loops.
    BppsaPooled {
        /// Plan options: `opts.up_levels` selects full vs. hybrid,
        /// `opts.segments > 1` splits each sample's scan into concurrent
        /// segments. The executor is always the per-sample fan-out.
        opts: BppsaOptions,
    },
    /// The pooled strategy routed through the `bppsa-serve` front door:
    /// per-sample chains submitted as independent requests to a
    /// [`BppsaService`](bppsa_serve::BppsaService) and coalesced by its
    /// deadline micro-batcher ([`VanillaRnn::backward_bppsa_served`]) —
    /// training traffic exercising exactly the serving path. The front door
    /// always compiles the full serial-schedule plan per lane. Ignored
    /// (treated as serial [`BackwardMethod::Bppsa`]) by feed-forward
    /// training loops.
    BppsaServed,
}

impl BackwardMethod {
    /// BPPSA with sparse Jacobians on the persistent worker pool.
    pub fn bppsa_pooled() -> Self {
        BackwardMethod::Bppsa {
            opts: BppsaOptions::pooled(),
            repr: JacobianRepr::Sparse,
        }
    }

    /// Pooled batched BPPSA (RNN loops only): per-sample scans of one
    /// compiled plan, fanned concurrently over pooled workspaces.
    pub fn bppsa_pooled_batched(opts: BppsaOptions) -> Self {
        BackwardMethod::BppsaPooled { opts }
    }

    /// Served batched BPPSA (RNN loops only): per-sample requests routed
    /// through the `bppsa-serve` deadline micro-batching front door.
    pub fn bppsa_served() -> Self {
        BackwardMethod::BppsaServed
    }

    /// Segment-parallel pooled batched BPPSA for deep chains with fewer
    /// samples than workers (RNN loops only): each sample's compiled plan
    /// is split into `k` exact segments executed concurrently on worker
    /// groups carved from the pool, stitched at schedule-block interfaces —
    /// bit-for-bit identical to the unsegmented plan of the same schedule.
    pub fn bppsa_segmented(k: usize) -> Self {
        BackwardMethod::BppsaPooled {
            opts: BppsaOptions::pooled().segmented(k),
        }
    }
}

/// Persistent batched-backward state for one recurrent training loop
/// ([`train_rnn`], [`train_ssm`]): the chain set of
/// [`BackwardMethod::BppsaPooled`] and the front-door state of
/// [`BackwardMethod::BppsaServed`]. Both build their plan (or service lane)
/// on first use and keep it for the whole run.
#[derive(Debug, Default)]
pub struct RecurrentTrainState<S> {
    /// Per-sample chains and plan of the pooled route.
    pub pooled: PooledChainSet<S>,
    /// Per-sample chains and service of the served route.
    pub served: ServedChainSet<S>,
}

impl<S: Scalar> RecurrentTrainState<S> {
    /// An empty state (builds chains, plans and lanes on first use).
    pub fn new() -> Self {
        Self {
            pooled: PooledChainSet::new(),
            served: ServedChainSet::new(),
        }
    }
}

/// One training iteration's record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationRecord {
    /// Iteration index (mini-batch counter across epochs).
    pub iteration: usize,
    /// Mean mini-batch loss.
    pub loss: f64,
    /// Cumulative wall-clock seconds since training started.
    pub wall_s: f64,
    /// Seconds spent in this iteration's backward pass.
    pub backward_s: f64,
}

/// The full log of a training run.
#[derive(Debug, Clone, Default)]
pub struct TrainLog {
    /// Per-iteration records, in order.
    pub records: Vec<IterationRecord>,
}

impl TrainLog {
    /// Total wall-clock seconds.
    pub fn total_s(&self) -> f64 {
        self.records.last().map_or(0.0, |r| r.wall_s)
    }

    /// Total seconds spent in backward passes.
    pub fn backward_s(&self) -> f64 {
        self.records.iter().map(|r| r.backward_s).sum()
    }

    /// Final recorded loss.
    pub fn final_loss(&self) -> f64 {
        self.records.last().map_or(f64::NAN, |r| r.loss)
    }

    /// Largest absolute per-iteration loss difference to another log — the
    /// Figure 7 overlap metric.
    ///
    /// # Panics
    ///
    /// Panics if the logs have different lengths.
    pub fn max_loss_gap(&self, other: &TrainLog) -> f64 {
        assert_eq!(
            self.records.len(),
            other.records.len(),
            "log length mismatch"
        );
        self.records
            .iter()
            .zip(&other.records)
            .map(|(a, b)| (a.loss - b.loss).abs())
            .fold(0.0, f64::max)
    }
}

/// Runs one mini-batch step on a sequential network classifier: forward,
/// softmax-CE loss, backward (per `method`), and gradient accumulation.
/// Returns `(mean loss, per-layer param grads, backward seconds)`.
pub fn network_batch_step<S: Scalar>(
    net: &Network<S>,
    images: &[(&bppsa_tensor::Tensor<S>, usize)],
    method: BackwardMethod,
) -> (f64, Vec<Vec<S>>, f64) {
    assert!(!images.is_empty(), "empty batch");
    let inv_b = S::ONE / S::from_usize(images.len());
    let mut total_loss = S::ZERO;
    let mut param_grads: Vec<Vec<S>> = net
        .ops()
        .iter()
        .map(|op| vec![S::ZERO; op.param_len()])
        .collect();
    let mut backward_s = 0.0;

    for &(image, label) in images {
        let tape = net.forward(image);
        let logits = tape.output().to_vector();
        let (loss, grad_logits) = SoftmaxCrossEntropy::loss_and_grad(&logits, label);
        total_loss += loss;
        let seed = grad_logits.scaled(inv_b);

        let t0 = Instant::now();
        let grads = match method {
            BackwardMethod::Bp => net.backward_bp(&tape, &seed),
            BackwardMethod::Bppsa { opts, repr } => net.backward_bppsa(&tape, &seed, repr, opts),
            BackwardMethod::BppsaPooled { opts } => {
                net.backward_bppsa(&tape, &seed, JacobianRepr::Sparse, opts)
            }
            BackwardMethod::BppsaServed => {
                net.backward_bppsa(&tape, &seed, JacobianRepr::Sparse, BppsaOptions::serial())
            }
        };
        backward_s += t0.elapsed().as_secs_f64();

        for (acc, g) in param_grads.iter_mut().zip(&grads.param_grads) {
            for (a, &v) in acc.iter_mut().zip(g) {
                *a += v;
            }
        }
    }
    ((total_loss * inv_b).to_f64(), param_grads, backward_s)
}

/// Trains a network classifier on synthetic CIFAR with one optimizer per
/// layer, recording losses and wall-clock per iteration.
#[allow(clippy::too_many_arguments)]
pub fn train_network_classifier<S: Scalar>(
    net: &mut Network<S>,
    data: &SyntheticCifar<S>,
    optimizers: &mut [Box<dyn Optimizer<S>>],
    method: BackwardMethod,
    batch_size: usize,
    epochs: usize,
    max_iterations: Option<usize>,
) -> TrainLog {
    assert_eq!(
        optimizers.len(),
        net.num_layers(),
        "one optimizer per layer required"
    );
    let mut log = TrainLog::default();
    let start = Instant::now();
    let mut iteration = 0usize;
    'outer: for _epoch in 0..epochs {
        for range in data.batches(batch_size).collect::<Vec<_>>() {
            let batch: Vec<(&bppsa_tensor::Tensor<S>, usize)> = range
                .clone()
                .map(|i| {
                    let s = data.sample(i);
                    (&s.image, s.label)
                })
                .collect();
            let (loss, grads, backward_s) = network_batch_step(net, &batch, method);
            for ((op, opt), g) in net
                .ops_mut()
                .iter_mut()
                .zip(optimizers.iter_mut())
                .zip(&grads)
            {
                if op.param_len() > 0 {
                    let mut params = op.params();
                    opt.step(&mut params, g);
                    op.set_params(&params);
                }
            }
            log.records.push(IterationRecord {
                iteration,
                loss,
                wall_s: start.elapsed().as_secs_f64(),
                backward_s,
            });
            iteration += 1;
            if let Some(max) = max_iterations {
                if iteration >= max {
                    break 'outer;
                }
            }
        }
    }
    log
}

/// Classification accuracy of a network over a dataset.
pub fn evaluate_network<S: Scalar>(net: &Network<S>, data: &SyntheticCifar<S>) -> f64 {
    let mut correct = 0usize;
    for i in 0..data.len() {
        let s = data.sample(i);
        let tape = net.forward(&s.image);
        if tape.output().to_vector().argmax() == Some(s.label) {
            correct += 1;
        }
    }
    correct as f64 / data.len() as f64
}

/// Runs one RNN mini-batch step. Returns `(mean loss, summed grads,
/// backward seconds)`; seeds are pre-scaled by `1/B` so the sum is the
/// batch-mean gradient.
///
/// For the batched routes the plan (or service lane) lives only for this
/// call; training loops should use [`rnn_batch_step_cached`] so it
/// amortizes across iterations.
pub fn rnn_batch_step<S: Scalar>(
    rnn: &VanillaRnn<S>,
    data: &BitstreamDataset<S>,
    indices: std::ops::Range<usize>,
    method: BackwardMethod,
) -> (f64, RnnGrads<S>, f64) {
    let mut state = RecurrentTrainState::new();
    rnn_batch_step_cached(rnn, data, indices, method, &mut state)
}

/// [`rnn_batch_step`] with caller-owned [`RecurrentTrainState`], so the
/// batched routes plan (and build their chains) once per run.
pub fn rnn_batch_step_cached<S: Scalar>(
    rnn: &VanillaRnn<S>,
    data: &BitstreamDataset<S>,
    indices: std::ops::Range<usize>,
    method: BackwardMethod,
    state: &mut RecurrentTrainState<S>,
) -> (f64, RnnGrads<S>, f64) {
    assert!(!indices.is_empty(), "empty batch");
    let inv_b = S::ONE / S::from_usize(indices.len());
    let samples: Vec<_> = indices.map(|i| data.sample(i)).collect();
    let states: Vec<_> = samples.iter().map(|s| rnn.forward(&s.bits)).collect();
    let mut total_loss = S::ZERO;
    let batch: Vec<RnnBatchSample<'_, S>> = samples
        .iter()
        .zip(&states)
        .map(|(sample, states)| {
            let (loss, seed, g_logits) = rnn.loss_and_seed(states, sample.label);
            total_loss += loss;
            (
                sample.bits.as_slice(),
                states,
                seed.scaled(inv_b),
                g_logits.scaled(inv_b),
            )
        })
        .collect();
    let t0 = Instant::now();
    let grads = match method {
        BackwardMethod::Bp => sum_grads(
            batch
                .iter()
                .map(|(bits, states, seed, g)| rnn.backward_bptt(bits, states, seed, g)),
            RnnGrads::accumulate,
        ),
        BackwardMethod::Bppsa { opts, .. } => sum_grads(
            batch
                .iter()
                .map(|(bits, states, seed, g)| rnn.backward_bppsa(bits, states, seed, g, opts)),
            RnnGrads::accumulate,
        ),
        BackwardMethod::BppsaPooled { opts } => {
            rnn.backward_bppsa_pooled(&batch, opts, &mut state.pooled)
        }
        // The training loop owns its service (default config: no
        // shedding, no breaker), so a sticky refusal here is fatal — but
        // the typed error lets shared-service callers of the same API
        // decide differently.
        BackwardMethod::BppsaServed => rnn
            .backward_bppsa_served(&batch, &mut state.served)
            .unwrap_or_else(|e| panic!("served training backward: {e}")),
    };
    let backward_s = t0.elapsed().as_secs_f64();
    ((total_loss * inv_b).to_f64(), grads, backward_s)
}

/// Sums per-sample gradients in batch order.
fn sum_grads<G>(mut grads: impl Iterator<Item = G>, add: impl Fn(&mut G, &G)) -> G {
    let mut acc = grads.next().expect("nonempty batch");
    for g in grads {
        add(&mut acc, &g);
    }
    acc
}

/// Trains the RNN on the bitstream task with a flat-parameter optimizer
/// (Adam in the paper), recording losses and wall-clock per iteration.
pub fn train_rnn<S: Scalar>(
    rnn: &mut VanillaRnn<S>,
    data: &BitstreamDataset<S>,
    optimizer: &mut dyn Optimizer<S>,
    method: BackwardMethod,
    batch_size: usize,
    epochs: usize,
    max_iterations: Option<usize>,
) -> TrainLog {
    let mut log = TrainLog::default();
    let start = Instant::now();
    let mut iteration = 0usize;
    // One chain/plan/workspace state for the whole run: the batched routes
    // perform their symbolic work once.
    let mut state = RecurrentTrainState::new();
    'outer: for _epoch in 0..epochs {
        for range in data.batches(batch_size).collect::<Vec<_>>() {
            let (loss, grads, backward_s) =
                rnn_batch_step_cached(rnn, data, range, method, &mut state);
            let mut params = rnn.params();
            optimizer.step(&mut params, &grads.flat());
            rnn.set_params(&params);
            log.records.push(IterationRecord {
                iteration,
                loss,
                wall_s: start.elapsed().as_secs_f64(),
                backward_s,
            });
            iteration += 1;
            if let Some(max) = max_iterations {
                if iteration >= max {
                    break 'outer;
                }
            }
        }
    }
    log
}

/// Classification accuracy of the RNN over a dataset.
pub fn evaluate_rnn<S: Scalar>(rnn: &VanillaRnn<S>, data: &BitstreamDataset<S>) -> f64 {
    let mut correct = 0usize;
    for i in 0..data.len() {
        let s = data.sample(i);
        let states = rnn.forward(&s.bits);
        let logits = rnn.logits(states.last().expect("nonempty"));
        if logits.argmax() == Some(s.label) {
            correct += 1;
        }
    }
    correct as f64 / data.len() as f64
}

/// Runs one [`DiagonalSsm`] mini-batch step on the bitstream task.
/// Returns `(mean loss, summed grads, backward seconds)`; seeds are
/// pre-scaled by `1/B` so the sum is the batch-mean gradient.
///
/// Dispatch mirrors [`rnn_batch_step_cached`], with the SSM twist that
/// *every* path rides the planner's diagonal fast path:
///
/// * [`BackwardMethod::Bp`] → [`DiagonalSsm::backward_sequential`];
/// * [`BackwardMethod::Bppsa`] → per-sample [`DiagonalSsm::backward_bppsa`];
/// * [`BackwardMethod::BppsaPooled`] → [`DiagonalSsm::backward_bppsa_pooled`];
/// * [`BackwardMethod::BppsaServed`] → [`DiagonalSsm::backward_bppsa_served`]
///   (the loop owns its service, so a sticky refusal is fatal here).
pub fn ssm_batch_step<S: Scalar>(
    ssm: &DiagonalSsm<S>,
    data: &BitstreamDataset<S>,
    indices: std::ops::Range<usize>,
    method: BackwardMethod,
    state: &mut RecurrentTrainState<S>,
) -> (f64, SsmGrads<S>, f64) {
    assert!(!indices.is_empty(), "empty batch");
    let inv_b = S::ONE / S::from_usize(indices.len());
    let samples: Vec<_> = indices.map(|i| data.sample(i)).collect();
    let states: Vec<_> = samples.iter().map(|s| ssm.forward(&s.bits)).collect();
    let mut total_loss = S::ZERO;
    let batch: Vec<SsmBatchSample<'_, S>> = samples
        .iter()
        .zip(&states)
        .map(|(sample, states)| {
            let (loss, seed, g_logits) = ssm.loss_and_seed(states, sample.label);
            total_loss += loss;
            (
                sample.bits.as_slice(),
                states,
                seed.scaled(inv_b),
                g_logits.scaled(inv_b),
            )
        })
        .collect();
    let t0 = Instant::now();
    let grads = match method {
        BackwardMethod::Bp => sum_grads(
            batch
                .iter()
                .map(|(xs, states, seed, g)| ssm.backward_sequential(xs, states, seed, g)),
            SsmGrads::accumulate,
        ),
        BackwardMethod::Bppsa { opts, .. } => sum_grads(
            batch
                .iter()
                .map(|(xs, states, seed, g)| ssm.backward_bppsa(xs, states, seed, g, opts)),
            SsmGrads::accumulate,
        ),
        BackwardMethod::BppsaPooled { opts } => {
            ssm.backward_bppsa_pooled(&batch, opts, &mut state.pooled)
        }
        BackwardMethod::BppsaServed => ssm
            .backward_bppsa_served(&batch, &mut state.served)
            .unwrap_or_else(|e| panic!("served SSM training backward: {e}")),
    };
    let backward_s = t0.elapsed().as_secs_f64();
    ((total_loss * inv_b).to_f64(), grads, backward_s)
}

/// Trains the SSM on the bitstream task with a flat-parameter optimizer,
/// recording losses and wall-clock per iteration (the
/// [`train_rnn`]-shaped loop for the diagonal-recurrence workload).
pub fn train_ssm<S: Scalar>(
    ssm: &mut DiagonalSsm<S>,
    data: &BitstreamDataset<S>,
    optimizer: &mut dyn Optimizer<S>,
    method: BackwardMethod,
    batch_size: usize,
    epochs: usize,
    max_iterations: Option<usize>,
) -> TrainLog {
    let mut log = TrainLog::default();
    let start = Instant::now();
    let mut iteration = 0usize;
    let mut state = RecurrentTrainState::new();
    'outer: for _epoch in 0..epochs {
        for range in data.batches(batch_size).collect::<Vec<_>>() {
            let (loss, grads, backward_s) = ssm_batch_step(ssm, data, range, method, &mut state);
            let mut params = ssm.params();
            optimizer.step(&mut params, &grads.flat());
            ssm.set_params(&params);
            log.records.push(IterationRecord {
                iteration,
                loss,
                wall_s: start.elapsed().as_secs_f64(),
                backward_s,
            });
            iteration += 1;
            if let Some(max) = max_iterations {
                if iteration >= max {
                    break 'outer;
                }
            }
        }
    }
    log
}

/// Seeds an optimizer per network layer (helper for
/// [`train_network_classifier`]).
pub fn sgd_per_layer<S: Scalar>(
    net: &Network<S>,
    lr: f64,
    momentum: f64,
) -> Vec<Box<dyn Optimizer<S>>> {
    (0..net.num_layers())
        .map(|_| Box::new(crate::optim::Sgd::new(lr, momentum)) as Box<dyn Optimizer<S>>)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lenet::lenet_tiny;
    use crate::optim::Adam;
    use bppsa_tensor::init::seeded_rng;

    #[test]
    fn tiny_lenet_loss_decreases_with_bp() {
        let mut net = lenet_tiny::<f32>(&mut seeded_rng(0));
        let data = SyntheticCifar::<f32>::generate(64, 8, 0.1, 1);
        let mut opts = sgd_per_layer(&net, 0.03, 0.9);
        let log =
            train_network_classifier(&mut net, &data, &mut opts, BackwardMethod::Bp, 16, 25, None);
        let first = log.records[0].loss;
        let last = log.final_loss();
        assert!(
            last < first * 0.8,
            "loss did not decrease: {first} → {last}"
        );
    }

    #[test]
    fn bp_and_bppsa_training_losses_overlap() {
        // Figure 7 in miniature: identical seeds → overlapping loss curves.
        let data = SyntheticCifar::<f32>::generate(32, 8, 0.2, 2);
        let run = |method: BackwardMethod| {
            let mut net = lenet_tiny::<f32>(&mut seeded_rng(3));
            let mut opts = sgd_per_layer(&net, 0.02, 0.9);
            train_network_classifier(&mut net, &data, &mut opts, method, 8, 3, None)
        };
        let bp = run(BackwardMethod::Bp);
        let scan = run(BackwardMethod::Bppsa {
            opts: BppsaOptions::serial(),
            repr: JacobianRepr::Sparse,
        });
        let gap = bp.max_loss_gap(&scan);
        assert!(gap < 1e-3, "loss curves diverged by {gap}");
    }

    #[test]
    fn rnn_training_loss_decreases() {
        let data = BitstreamDataset::<f32>::generate(64, 24, 4);
        let mut rnn = VanillaRnn::<f32>::new(1, 12, 10, &mut seeded_rng(5));
        let mut opt = Adam::new(0.01);
        let log = train_rnn(&mut rnn, &data, &mut opt, BackwardMethod::Bp, 16, 12, None);
        assert!(
            log.final_loss() < log.records[0].loss,
            "{} → {}",
            log.records[0].loss,
            log.final_loss()
        );
    }

    #[test]
    fn rnn_bp_and_bppsa_produce_same_training_trajectory() {
        let data = BitstreamDataset::<f32>::generate(24, 16, 6);
        let run = |method: BackwardMethod| {
            let mut rnn = VanillaRnn::<f32>::new(1, 8, 10, &mut seeded_rng(7));
            let mut opt = Adam::new(0.003);
            train_rnn(&mut rnn, &data, &mut opt, method, 8, 4, None)
        };
        let bp = run(BackwardMethod::Bp);
        let scan = run(BackwardMethod::bppsa_pooled());
        assert!(bp.max_loss_gap(&scan) < 1e-3);
    }

    #[test]
    fn segmented_training_matches_bptt_on_deep_chains() {
        // A longer unroll hands the segment stitcher real schedule blocks
        // to split; the trajectory must still track BPTT exactly as
        // closely as the unsegmented pooled path does.
        let data = BitstreamDataset::<f32>::generate(12, 48, 83);
        let run = |method: BackwardMethod| {
            let mut rnn = VanillaRnn::<f32>::new(1, 6, 10, &mut seeded_rng(84));
            let mut opt = Adam::new(0.005);
            train_rnn(&mut rnn, &data, &mut opt, method, 6, 3, None)
        };
        let bptt = run(BackwardMethod::Bp);
        let segmented = run(BackwardMethod::bppsa_segmented(2));
        assert!(bptt.max_loss_gap(&segmented) < 1e-3);

        // The deep-chain route plans a segmented pooled plan.
        let method = BackwardMethod::bppsa_segmented(2);
        let BackwardMethod::BppsaPooled { opts } = method else {
            unreachable!()
        };
        assert_eq!(opts.segments, 2);
        let rnn = VanillaRnn::<f32>::new(1, 6, 10, &mut seeded_rng(85));
        let mut state = RecurrentTrainState::new();
        let _ = rnn_batch_step_cached(&rnn, &data, 0..6, method, &mut state);
        assert!(state.pooled.plan().expect("planned").segments() >= 2);

        // Bit-for-bit with the unsegmented pooled plan of the same
        // schedule: the segmented schedule's derived hybrid depth, planned
        // with one segment.
        let unsegmented = BppsaOptions::pooled().hybrid(opts.segmented_up_levels(48 + 1));
        for b in [1usize, 3] {
            let prepared: Vec<_> = (0..b)
                .map(|i| {
                    let sample = data.sample(i);
                    let states = rnn.forward(&sample.bits);
                    let (_, seed, g_logits) = rnn.loss_and_seed(&states, sample.label);
                    (sample.bits.as_slice(), states, seed, g_logits)
                })
                .collect();
            let batch: Vec<RnnBatchSample<'_, f32>> = prepared
                .iter()
                .map(|(bits, states, seed, g)| (*bits, states, seed.clone(), g.clone()))
                .collect();
            // Per-sample hidden-state gradients, collected by batch index
            // (the summed parameter gradients depend on completion order
            // once B > 1).
            let scan = |opts: BppsaOptions| {
                let mut set = PooledChainSet::new();
                let params = rnn.backward_bppsa_pooled(&batch, opts, &mut set).flat();
                let grads = std::sync::Mutex::new(vec![Vec::new(); b]);
                set.execute(b, &|k, r| {
                    let bits: Vec<u32> = r
                        .grads()
                        .iter()
                        .flat_map(|g| g.iter().map(|v| v.to_bits()))
                        .collect();
                    grads.lock().unwrap()[k] = bits;
                });
                (
                    params,
                    grads.into_inner().unwrap(),
                    set.plan().unwrap().segments(),
                )
            };
            let (seg_params, seg_grads, segments) = scan(opts);
            let (ref_params, ref_grads, ref_segments) = scan(unsegmented);
            assert_eq!((segments, ref_segments), (2, 1), "B={b}");
            assert_eq!(
                seg_grads, ref_grads,
                "B={b}: scan gradients must be bit-for-bit"
            );
            if b == 1 {
                let bits = |p: &[f32]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&seg_params),
                    bits(&ref_params),
                    "B=1 parameter gradients"
                );
            }
        }
    }

    #[test]
    fn pooled_batched_training_matches_bptt_and_plans_once_with_remainder() {
        // 20 samples at batch 6 → per-epoch batches of 6, 6, 6, 2. The
        // pooled path's per-sample plan is batch-size independent, so the
        // remainder batch reuses the full batch's plan: one plan total.
        let data = BitstreamDataset::<f32>::generate(20, 12, 91);
        let run = |method: BackwardMethod| {
            let mut rnn = VanillaRnn::<f32>::new(1, 6, 10, &mut seeded_rng(92));
            let mut opt = Adam::new(0.005);
            train_rnn(&mut rnn, &data, &mut opt, method, 6, 3, None)
        };
        let bptt = run(BackwardMethod::Bp);
        let pooled = run(BackwardMethod::bppsa_pooled_batched(BppsaOptions::serial()));
        assert!(bptt.max_loss_gap(&pooled) < 1e-3);

        let rnn = VanillaRnn::<f32>::new(1, 6, 10, &mut seeded_rng(93));
        let mut state = RecurrentTrainState::<f32>::new();
        let method = BackwardMethod::bppsa_pooled_batched(BppsaOptions::serial());
        for _epoch in 0..3 {
            for range in data.batches(6).collect::<Vec<_>>() {
                let _ = rnn_batch_step_cached(&rnn, &data, range, method, &mut state);
            }
        }
        assert_eq!(state.pooled.plans_built(), 1);
    }

    #[test]
    fn served_training_matches_bptt_and_builds_one_lane_with_remainder() {
        // The pooled strategy routed through the bppsa-serve front door:
        // identical trajectory (the optimizer consumes the batch sum, and
        // the service executes the same compiled per-sample plan), and the
        // whole run — 20 samples at batch 6 → per-epoch batches of
        // 6, 6, 6, 2 — builds exactly one service lane, because the
        // per-sample shape is batch-size independent.
        let data = BitstreamDataset::<f32>::generate(20, 12, 95);
        let run = |method: BackwardMethod| {
            let mut rnn = VanillaRnn::<f32>::new(1, 6, 10, &mut seeded_rng(96));
            let mut opt = Adam::new(0.005);
            train_rnn(&mut rnn, &data, &mut opt, method, 6, 3, None)
        };
        let bptt = run(BackwardMethod::Bp);
        let served = run(BackwardMethod::bppsa_served());
        assert!(bptt.max_loss_gap(&served) < 1e-3);

        let rnn = VanillaRnn::<f32>::new(1, 6, 10, &mut seeded_rng(97));
        let mut state = RecurrentTrainState::<f32>::new();
        for _epoch in 0..3 {
            for range in data.batches(6).collect::<Vec<_>>() {
                let _ = rnn_batch_step_cached(
                    &rnn,
                    &data,
                    range,
                    BackwardMethod::bppsa_served(),
                    &mut state,
                );
            }
        }
        assert_eq!(state.served.lanes_built(), 1);
    }

    #[test]
    fn served_and_pooled_batch_steps_agree() {
        // Same per-sample plans, same summation order (sequential consume
        // vs locked accumulate — both in index order on this data): the
        // served step reproduces the pooled step's gradients to fp noise.
        let data = BitstreamDataset::<f32>::generate(12, 10, 98);
        let rnn = VanillaRnn::<f32>::new(1, 6, 10, &mut seeded_rng(99));
        let mut pooled_state = RecurrentTrainState::<f32>::new();
        let mut served_state = RecurrentTrainState::<f32>::new();
        let (pooled_loss, pooled_grads, _) = rnn_batch_step_cached(
            &rnn,
            &data,
            0..6,
            BackwardMethod::bppsa_pooled_batched(BppsaOptions::serial()),
            &mut pooled_state,
        );
        let (served_loss, served_grads, _) = rnn_batch_step_cached(
            &rnn,
            &data,
            0..6,
            BackwardMethod::bppsa_served(),
            &mut served_state,
        );
        assert_eq!(pooled_loss, served_loss);
        assert!(pooled_grads.max_abs_diff(&served_grads) < 1e-5);
    }

    #[test]
    fn ssm_training_loss_decreases() {
        let data = BitstreamDataset::<f32>::generate(64, 24, 105);
        let mut ssm = DiagonalSsm::<f32>::new(12, 10, &mut seeded_rng(106));
        let mut opt = Adam::new(0.01);
        let log = train_ssm(&mut ssm, &data, &mut opt, BackwardMethod::Bp, 16, 12, None);
        assert!(
            log.final_loss() < log.records[0].loss,
            "{} → {}",
            log.records[0].loss,
            log.final_loss()
        );
    }

    #[test]
    fn ssm_training_methods_share_the_trajectory() {
        // The diagonal-recurrence workload through every backward route:
        // identical loss trajectories (every route computes the same scan).
        let data = BitstreamDataset::<f32>::generate(20, 24, 101);
        let run = |method: BackwardMethod| {
            let mut ssm = DiagonalSsm::<f32>::new(8, 10, &mut seeded_rng(102));
            let mut opt = Adam::new(0.01);
            train_ssm(&mut ssm, &data, &mut opt, method, 6, 3, None)
        };
        let sequential = run(BackwardMethod::Bp);
        for method in [
            BackwardMethod::bppsa_pooled(),
            BackwardMethod::bppsa_pooled_batched(BppsaOptions::serial()),
            BackwardMethod::bppsa_served(),
        ] {
            let gap = sequential.max_loss_gap(&run(method));
            assert!(gap < 1e-3, "{method:?} diverged by {gap}");
        }
    }

    #[test]
    fn ssm_batched_runs_stay_on_one_diagonal_plan_and_lane() {
        // 20 samples at batch 6 → per-epoch batches of 6, 6, 6, 2. The
        // per-sample chain shape is batch-size independent, so the pooled
        // path plans once and the served path builds one lane — and that
        // single pooled plan compiled the diagonal fast path.
        let data = BitstreamDataset::<f32>::generate(20, 24, 103);
        let ssm = DiagonalSsm::<f32>::new(8, 10, &mut seeded_rng(104));
        for method in [
            BackwardMethod::bppsa_pooled_batched(BppsaOptions::serial()),
            BackwardMethod::bppsa_served(),
        ] {
            let mut state = RecurrentTrainState::<f32>::new();
            for _epoch in 0..3 {
                for range in data.batches(6).collect::<Vec<_>>() {
                    let _ = ssm_batch_step(&ssm, &data, range, method, &mut state);
                }
            }
            match method {
                BackwardMethod::BppsaPooled { .. } => {
                    assert_eq!(state.pooled.plans_built(), 1);
                    assert!(state
                        .pooled
                        .plan()
                        .expect("planned")
                        .diagonal_kernel()
                        .is_some());
                }
                _ => assert_eq!(state.served.lanes_built(), 1),
            }
        }
    }

    #[test]
    fn max_iterations_caps_the_run() {
        let data = BitstreamDataset::<f32>::generate(64, 8, 8);
        let mut rnn = VanillaRnn::<f32>::new(1, 6, 10, &mut seeded_rng(9));
        let mut opt = Adam::new(0.01);
        let log = train_rnn(
            &mut rnn,
            &data,
            &mut opt,
            BackwardMethod::Bp,
            8,
            100,
            Some(5),
        );
        assert_eq!(log.records.len(), 5);
    }

    #[test]
    fn evaluate_rnn_learns_above_chance() {
        // Short training on an easy (long-sequence) task beats 10% chance.
        let data = BitstreamDataset::<f32>::generate(60, 64, 10);
        let mut rnn = VanillaRnn::<f32>::new(1, 16, 10, &mut seeded_rng(11));
        let mut opt = Adam::new(0.01);
        let _ = train_rnn(&mut rnn, &data, &mut opt, BackwardMethod::Bp, 12, 30, None);
        let acc = evaluate_rnn(&rnn, &data);
        assert!(acc > 0.2, "accuracy {acc} not above chance");
    }
}

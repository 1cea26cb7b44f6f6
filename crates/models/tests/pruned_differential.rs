//! Differential tests for pruned retraining over a frozen pruning mask.
//!
//! `prune_operator` freezes each layer's zeroed weights as a mask, so the
//! transposed Jacobians — and the scan plan built over them — carry only
//! the unmasked entries. Over random pruned conv/ReLU/linear stacks, the
//! masked plan must produce the gradients of the full-pattern plan over the
//! same (unfrozen) weights *value for value*: a dropped entry only ever
//! contributed `±0.0` terms. Both must match classic BP, and retraining
//! must keep the mask, the patterns and so the plan.

use bppsa_core::{
    BppsaOptions, Gradients, JacobianChain, JacobianRepr, Network, ScanElement, Tape,
};
use bppsa_models::prune::{prune_network, prune_operator, prune_slice};
use bppsa_models::train::{train_network_classifier, BackwardMethod};
use bppsa_models::{Optimizer, Sgd, SyntheticCifar};
use bppsa_ops::{Conv2d, Conv2dConfig, Flatten, Linear, Operator, Relu};
use bppsa_tensor::init::{seeded_rng, uniform_vector};
use bppsa_tensor::Scalar;
use rand::Rng;
use std::sync::Arc;

const CLASSES: usize = SyntheticCifar::<f64>::NUM_CLASSES;

/// A random conv/ReLU stack over 3-channel `hw × hw` images with a linear
/// head: one to three convs of random width, kernel and stride. Layers are
/// drawn from `seed` alone, so two calls give identical weights.
fn random_stack(seed: u64, hw: usize) -> Network<f64> {
    let mut rng = seeded_rng(seed);
    let mut net = Network::new();
    let (mut ci, mut size) = (3, hw);
    for _ in 0..rng.random_range(1..4usize) {
        let co = rng.random_range(1..5usize);
        let k = rng.random_range(1..4usize);
        let s = rng.random_range(1..3usize);
        let cfg = Conv2dConfig {
            in_channels: ci,
            out_channels: co,
            kernel: (k, k),
            stride: (s, s),
            padding: (k / 2, k / 2),
            input_hw: (size, size),
        };
        let (ho, _) = cfg.output_hw();
        net.push(Box::new(Conv2d::new(cfg, &mut rng)));
        net.push(Box::new(Relu::new(vec![co, ho, ho])));
        (ci, size) = (co, ho);
    }
    net.push(Box::new(Flatten::new(vec![ci, size, size])));
    net.push(Box::new(Linear::new(ci * size * size, CLASSES, &mut rng)));
    net
}

/// Prunes every layer's weights like `prune_network` but without freezing
/// a mask: same weights, full guaranteed patterns.
fn prune_unfrozen(net: &mut Network<f64>, fraction: f64) {
    for op in net.ops_mut() {
        let prunable = op.prunable_len();
        if prunable > 0 {
            let mut p = op.params();
            prune_slice(&mut p[..prunable], fraction);
            op.set_params(&p);
        }
    }
}

fn assert_bitwise_equal(a: &Gradients<f64>, b: &Gradients<f64>, what: &str) {
    for (i, (x, y)) in a
        .activation_grads
        .iter()
        .zip(&b.activation_grads)
        .enumerate()
    {
        assert!(
            x.as_slice() == y.as_slice(),
            "{what}: activation gradient {i} differs"
        );
    }
    for (i, (x, y)) in a.param_grads.iter().zip(&b.param_grads).enumerate() {
        assert!(x == y, "{what}: parameter gradient {i} differs");
    }
}

fn probe_chain(net: &Network<f64>, tape: &Tape<f64>) -> JacobianChain<f64> {
    let seed = uniform_vector(&mut seeded_rng(1), CLASSES, 1.0);
    net.build_chain(tape, &seed, JacobianRepr::Sparse)
}

/// Every layer's pattern `Arc` is the same allocation in both chains.
fn shares_patterns(a: &JacobianChain<f64>, b: &JacobianChain<f64>) -> bool {
    a.jacobians()
        .iter()
        .zip(b.jacobians())
        .all(|(x, y)| match (x, y) {
            (ScanElement::Sparse(x), ScanElement::Sparse(y)) => {
                Arc::ptr_eq(x.pattern_ref(), y.pattern_ref())
            }
            _ => false,
        })
}

#[test]
fn masked_plan_equals_full_pattern_plan_and_survives_retraining() {
    let hw = 6;
    let data = SyntheticCifar::<f64>::generate(16, hw, 0.3, 9);
    for seed in 0..6u64 {
        for fraction in [0.0, 0.5, 0.9, 0.97, 1.0] {
            let what = format!("seed {seed}, fraction {fraction}");
            let mut full = random_stack(seed, hw);
            let mut masked = random_stack(seed, hw);
            prune_unfrozen(&mut full, fraction);
            prune_network(&mut masked, fraction);

            let image = &data.sample(seed as usize).image;
            let (tape_full, tape_masked) = (full.forward(image), masked.forward(image));
            assert!(tape_full.output().as_slice() == tape_masked.output().as_slice());
            let full_plan = full.plan_backward(&tape_full, BppsaOptions::serial());
            let masked_plan = masked.plan_backward(&tape_masked, BppsaOptions::serial());
            assert!(
                masked_plan.spgemm_flops() <= full_plan.spgemm_flops(),
                "{what}"
            );
            if fraction >= 0.5 {
                let nnz = |net: &Network<f64>, tape: &Tape<f64>| -> usize {
                    probe_chain(net, tape)
                        .jacobians()
                        .iter()
                        .map(|jt| match jt {
                            ScanElement::Sparse(m) => m.nnz(),
                            other => unreachable!("sparse chain holds {other}"),
                        })
                        .sum()
                };
                assert!(
                    nnz(&masked, &tape_masked) < nnz(&full, &tape_full),
                    "{what}"
                );
            }

            let seed_grad = uniform_vector(&mut seeded_rng(seed + 100), CLASSES, 1.0);
            let g_full = full.backward_bppsa_planned(&tape_full, &seed_grad, &full_plan);
            let g_masked = masked.backward_bppsa_planned(&tape_masked, &seed_grad, &masked_plan);
            assert_bitwise_equal(&g_masked, &g_full, &what);
            let bp = masked.backward_bp(&tape_masked, &seed_grad);
            assert!(bp.max_abs_diff(&g_masked) < 1e-9, "{what}");
            assert!(
                full.backward_bp(&tape_full, &seed_grad)
                    .max_abs_diff(&g_full)
                    < 1e-9
            );

            // Retrain: the mask holds and the plan keeps matching fresh
            // chains by pointer.
            let zeros_before: Vec<Vec<bool>> = masked
                .ops()
                .iter()
                .map(|op| {
                    op.params()[..op.prunable_len()]
                        .iter()
                        .map(|&w| w == 0.0)
                        .collect()
                })
                .collect();
            let planned_chain = probe_chain(&masked, &tape_masked);
            let mut opts: Vec<Box<dyn Optimizer<f64>>> = (0..masked.num_layers())
                .map(|_| Box::new(Sgd::new(0.05, 0.9)) as Box<dyn Optimizer<f64>>)
                .collect();
            train_network_classifier(
                &mut masked,
                &data,
                &mut opts,
                BackwardMethod::Bp,
                4,
                1,
                Some(3),
            );
            for (op, before) in masked.ops().iter().zip(&zeros_before) {
                let p = op.params();
                for (k, &was_zero) in before.iter().enumerate() {
                    if was_zero {
                        assert!(p[k] == 0.0, "{what}: masked weight {k} of {}", op.name());
                    }
                }
            }
            let tape = masked.forward(image);
            let fresh = probe_chain(&masked, &tape);
            assert!(masked_plan.matches(&fresh), "{what}");
            assert!(shares_patterns(&planned_chain, &fresh), "{what}");
            let g = masked.backward_bppsa_planned(&tape, &seed_grad, &masked_plan);
            assert!(masked.backward_bp(&tape, &seed_grad).max_abs_diff(&g) < 1e-9);
        }
    }
}

/// `transposed_jacobian` and the closed forms (`jacobian_nnz`,
/// `guaranteed_sparsity`) agree on a frozen layer.
fn check_closed_forms<S: Scalar>(op: &dyn Operator<S>, x: &bppsa_tensor::Tensor<S>, nnz: usize) {
    let jt = op.transposed_jacobian(x, &op.forward(x));
    assert_eq!(jt.nnz(), nnz, "{}", op.name());
    let total = (op.input_len() * op.output_len()) as f64;
    assert_eq!(op.guaranteed_sparsity(), 1.0 - nnz as f64 / total);
}

#[test]
fn frozen_closed_forms_report_the_masked_pattern() {
    let mut rng = seeded_rng(4);
    for fraction in [0.0, 0.3, 0.97, 1.0] {
        let cfg = Conv2dConfig {
            in_channels: 2,
            out_channels: 3,
            kernel: (3, 2),
            stride: (2, 1),
            padding: (1, 0),
            input_hw: (7, 5),
        };
        let mut conv = Conv2d::<f64>::new(cfg, &mut rng);
        let full_nnz = conv.jacobian_nnz();
        prune_operator(&mut conv, fraction);
        let x = bppsa_tensor::init::uniform_tensor(&mut rng, vec![2, 7, 5], 1.0);
        check_closed_forms(&conv, &x, conv.jacobian_nnz());
        assert!(conv.jacobian_nnz() <= full_nnz);
        if fraction == 1.0 {
            assert_eq!(conv.jacobian_nnz(), 0);
        }

        let mut linear = Linear::<f64>::new(9, 4, &mut rng);
        prune_operator(&mut linear, fraction);
        let x = bppsa_tensor::init::uniform_tensor(&mut rng, vec![9], 1.0);
        let kept = 36 - (36.0 * fraction).round() as usize;
        assert_eq!(linear.jacobian_nnz(), kept);
        check_closed_forms(&linear, &x, kept);
    }
}

#[test]
#[should_panic(expected = "plan does not match")]
fn re_pruning_after_planning_rejects_the_stale_plan() {
    let hw = 6;
    let data = SyntheticCifar::<f64>::generate(1, hw, 0.3, 2);
    let mut net = random_stack(3, hw);
    prune_network(&mut net, 0.5);
    let tape = net.forward(&data.sample(0).image);
    let plan = net.plan_backward(&tape, BppsaOptions::serial());
    let seed = uniform_vector(&mut seeded_rng(5), CLASSES, 1.0);
    let _ = net.backward_bppsa_planned(&tape, &seed, &plan);
    // A higher fraction re-freezes a larger mask: smaller patterns.
    prune_network(&mut net, 0.9);
    let tape = net.forward(&data.sample(0).image);
    let _ = net.backward_bppsa_planned(&tape, &seed, &plan);
}

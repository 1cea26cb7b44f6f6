//! The paper's §4.2 use case: retraining a magnitude-pruned network, where
//! the conv Jacobians' values depend only on the (mostly zero) weights, so
//! BPPSA's per-step sparse products get cheap.
//!
//! Prunes a small conv stack to 97%, which freezes each conv's zeroed
//! weights as its pruning mask, and shows the Jacobian nnz collapse from
//! the guaranteed pattern to the masked one, the per-step FLOP analysis
//! (Figure 11's machinery), and a few retraining steps through one scan
//! plan built over the masked patterns, whose gradients match classic BP.
//!
//! Run: `cargo run --example pruned_retraining --release`

use bppsa::core::flops::{analyze_baseline_flops, analyze_scan_flops, total_flops};
use bppsa::models::prune::{prune_operator, weight_sparsity};
use bppsa::prelude::*;
use bppsa::tensor::init::uniform_tensor;

fn main() {
    let mut rng = seeded_rng(5);
    let hw = 10usize;

    // A 4-conv stack (VGG-flavored).
    let mut net = Network::<f64>::new();
    let widths = [(1usize, 8usize), (8, 8), (8, 8), (8, 8)];
    for &(ci, co) in &widths {
        net.push(Box::new(Conv2d::new(
            Conv2dConfig::vgg_style(ci, co, (hw, hw)),
            &mut rng,
        )));
        net.push(Box::new(Relu::new(vec![co, hw, hw])));
    }
    let x = uniform_tensor(&mut rng, vec![1, hw, hw], 1.0);
    let seed = Vector::filled(8 * hw * hw, 0.01);
    let nnz = |chain: &JacobianChain<f64>| -> Vec<usize> {
        chain
            .jacobians()
            .iter()
            .map(|jt| match jt {
                ScanElement::Sparse(m) => m.nnz(),
                other => unreachable!("sparse chain holds {other}"),
            })
            .collect()
    };
    let guaranteed = nnz(&net.build_chain(&net.forward(&x), &seed, JacobianRepr::Sparse));

    println!("pruning 97% of conv weights (See et al. magnitude pruning):");
    for op in net.ops_mut() {
        if op.prunable_len() > 0 {
            prune_operator(op.as_mut(), 0.97);
            println!(
                "  {}: weight sparsity {:.3}",
                op.name(),
                weight_sparsity(op.as_ref())
            );
        }
    }

    // The frozen masks leave the pruned weights out of the conv patterns.
    let tape = net.forward(&x);
    let chain = net.build_chain(&tape, &seed, JacobianRepr::Sparse);
    println!("\ntransposed-Jacobian nnz (guaranteed pattern → frozen pruning mask):");
    for (i, (full, masked)) in guaranteed.iter().zip(nnz(&chain)).enumerate() {
        println!("  J{}ᵀ: nnz {full} → {masked}", i + 1);
    }

    // Figure 11's analysis: per-step FLOPs under the hybrid schedule.
    let steps = analyze_scan_flops(&chain, BppsaOptions::serial().hybrid(2));
    let baseline = analyze_baseline_flops(&chain);
    println!(
        "\nFLOPs: BPPSA total {:.2e} over {} steps vs baseline {:.2e} over {} sequential steps",
        total_flops(&steps) as f64,
        steps.len(),
        total_flops(&baseline) as f64,
        baseline.len()
    );

    // Plan once over the masked patterns. Retraining keeps the masks, so
    // the plan stays valid: every step is numeric-only.
    let plan = net.plan_backward(&tape, BppsaOptions::serial());
    println!(
        "planned SpGEMM FLOPs per backward: {:.2e}",
        plan.spgemm_flops() as f64
    );
    let mut worst = 0.0f64;
    for step in 0..3 {
        let x = uniform_tensor(&mut rng, vec![1, hw, hw], 1.0);
        let tape = net.forward(&x);
        let bp = net.backward_bp(&tape, &seed);
        let scan = net.backward_bppsa_planned(&tape, &seed, &plan);
        let diff = bp.max_abs_diff(&scan);
        println!("  step {step}: max |BP − planned BPPSA| = {diff:.3e}");
        assert!(diff < 1e-9);
        worst = worst.max(diff);
        // Plain SGD; the frozen masks keep the pruned weights at zero.
        for (op, g) in net.ops_mut().iter_mut().zip(&scan.param_grads) {
            if op.param_len() > 0 {
                let p: Vec<f64> = op
                    .params()
                    .iter()
                    .zip(g)
                    .map(|(w, g)| w - 0.1 * g)
                    .collect();
                op.set_params(&p);
            }
        }
    }
    for op in net.ops().iter().filter(|op| op.prunable_len() > 0) {
        assert!(weight_sparsity(op.as_ref()) >= 0.97 - 1e-3);
    }
    println!("OK: pruned retraining gradients are exact (worst {worst:.3e}); masks held.");
}

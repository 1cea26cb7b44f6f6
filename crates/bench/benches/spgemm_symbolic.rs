//! Criterion bench — ablation of §3.3's key optimization: because Jacobian
//! sparsity patterns are deterministic, SpGEMM's symbolic phase can be
//! hoisted out of the training loop. Compares the generic (symbolic +
//! numeric every call, cuSPARSE-style) path against the planned
//! (numeric-only) path on real conv-Jacobian patterns.

use bppsa_models::prune::prune_operator;
use bppsa_ops::{Conv2d, Conv2dConfig, Operator};
use bppsa_sparse::{spgemm, Csr, SymbolicProduct};
use bppsa_tensor::init::{seeded_rng, uniform_tensor};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

/// Two chainable conv transposed Jacobians: the product `J1ᵀ ⊙ J2ᵀ = J2ᵀ·J1ᵀ`
/// is what an up-sweep pair computes… here we return operands already
/// ordered for a plain `spgemm(a, b)` call.
fn conv_jacobians(prune: bool) -> (Csr<f32>, Csr<f32>) {
    let mut rng = seeded_rng(3);
    let mut c1 = Conv2d::<f32>::new(Conv2dConfig::vgg_style(3, 8, (12, 12)), &mut rng);
    let mut c2 = Conv2d::<f32>::new(Conv2dConfig::vgg_style(8, 8, (12, 12)), &mut rng);
    if prune {
        prune_operator(&mut c1, 0.9);
        prune_operator(&mut c2, 0.9);
    }
    let x1 = uniform_tensor(&mut rng, vec![3, 12, 12], 1.0);
    let y1 = c1.forward(&x1);
    let y2 = c2.forward(&y1);
    let j1 = c1.transposed_jacobian(&x1, &y1); // (3·144) × (8·144)
    let j2 = c2.transposed_jacobian(&y1, &y2); // (8·144) × (8·144)
    (j1, j2)
}

fn bench_spgemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("spgemm_symbolic");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    for (label, prune) in [("guaranteed_pattern", false), ("pruned90", true)] {
        let (a, b) = conv_jacobians(prune);
        group.bench_function(format!("generic/{label}"), |bench| {
            bench.iter(|| spgemm(std::hint::black_box(&a), std::hint::black_box(&b)))
        });
        let plan = SymbolicProduct::plan(&a.pattern(), &b.pattern());
        group.bench_function(format!("planned_numeric/{label}"), |bench| {
            bench
                .iter(|| plan.execute_unchecked(std::hint::black_box(&a), std::hint::black_box(&b)))
        });
        group.bench_function(format!("plan_construction/{label}"), |bench| {
            bench.iter(|| SymbolicProduct::plan(&a.pattern(), &b.pattern()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_spgemm);
criterion_main!(benches);

//! Criterion bench — ablation of the §5.2 hybrid schedule: sweep the
//! up-sweep cutoff `k` from 0 (linear scan) to full Blelloch on a sparse
//! pruned-conv chain, where products densify level by level and the cutoff
//! trades tree depth against per-step cost.

use bppsa_core::{bppsa_backward, BppsaOptions, JacobianChain, ScanElement};
use bppsa_models::prune::prune_operator;
use bppsa_ops::{Conv2d, Conv2dConfig, Operator, Relu};
use bppsa_tensor::init::{seeded_rng, uniform_tensor, uniform_vector};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

/// A pruned conv/relu chain: 8 conv layers at constant width, 97% pruned.
fn pruned_chain() -> JacobianChain<f32> {
    let mut rng = seeded_rng(11);
    let hw = 8usize;
    let ch = 8usize;
    let mut chain_elems = Vec::new();
    let mut x = uniform_tensor(&mut rng, vec![ch, hw, hw], 1.0);
    for _ in 0..8 {
        let mut conv = Conv2d::<f32>::new(Conv2dConfig::vgg_style(ch, ch, (hw, hw)), &mut rng);
        prune_operator(&mut conv, 0.97);
        let y = conv.forward(&x);
        chain_elems.push(ScanElement::Sparse(conv.transposed_jacobian(&x, &y)));
        let relu = Relu::new(vec![ch, hw, hw]);
        let y_relu = Operator::<f32>::forward(&relu, &y);
        chain_elems.push(ScanElement::Sparse(relu.transposed_jacobian(&y, &y_relu)));
        x = y_relu;
    }
    let seed = uniform_vector(&mut rng, ch * hw * hw, 1.0);
    let mut chain = JacobianChain::new(seed);
    for e in chain_elems {
        chain.push(e);
    }
    chain
}

fn bench_hybrid(c: &mut Criterion) {
    let mut group = c.benchmark_group("hybrid_cutoff");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    let chain = pruned_chain();
    for k in [0usize, 1, 2, 3, 4] {
        group.bench_with_input(BenchmarkId::new("up_levels", k), &k, |b, &k| {
            b.iter(|| {
                bppsa_backward(
                    std::hint::black_box(&chain),
                    BppsaOptions::serial().hybrid(k),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_hybrid);
criterion_main!(benches);

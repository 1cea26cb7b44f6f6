//! Criterion bench — whole-scan symbolic planning (the strongest form of
//! §3.3): a generic BPPSA backward pass (symbolic + numeric SpGEMM per
//! combine, every iteration) against a [`PlannedScan`] execution (numeric
//! only), the zero-allocation workspace-backed variant
//! ([`PlannedScan::execute_with`]), and the one-time planning cost that
//! amortizes across a training run's thousands of iterations. A second
//! group ablates the row-parallel numeric SpGEMM against single-thread
//! numeric on a large product.
//!
//! A `segmented_scan` group sweeps segment-parallel deep chains — K ∈
//! {1, 2, 4} over depths 4096 and 32768 — isolating what exact interface
//! stitching buys (or costs) at each worker-group width; the emitted JSON's
//! environment record carries `available_parallelism` so single-core
//! overhead readings are never mistaken for multi-core scaling.
//!
//! A third group measures [`BatchedBackward`] throughput — 8 same-shape
//! mini-batches fanned over a [`WorkspacePool`](bppsa_core::WorkspacePool)
//! — as a function of the pool's workspace capacity (1/2/4/8). On
//! multi-core hardware throughput should rise with capacity until it
//! saturates the worker count; in a 1-core container the curve is flat and
//! only measures pool overhead.
//!
//! Set `CRITERION_JSON_DIR=<dir>` to emit `planned_scan.json` /
//! `spgemm_row_parallel.json` / `workspace_pool.json` baselines (committed
//! as `BENCH_planned_scan.json` at the workspace root).

use bppsa_bench::random_csr;
use bppsa_core::{
    bppsa_backward, BatchedBackward, BppsaOptions, JacobianChain, PlannedScan, ScanElement,
};
use bppsa_models::prune::prune_operator;
use bppsa_ops::{Conv2d, Conv2dConfig, Operator, Relu};
use bppsa_sparse::{Csr, SymbolicProduct};
use bppsa_tensor::init::{seeded_rng, uniform_tensor, uniform_vector};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::Rng;
use std::time::Duration;

/// An 8-layer pruned conv/relu chain (the §4.2 retraining shape).
fn pruned_chain() -> JacobianChain<f32> {
    let mut rng = seeded_rng(21);
    let (hw, ch) = (8usize, 8usize);
    let mut elems = Vec::new();
    let mut x = uniform_tensor(&mut rng, vec![ch, hw, hw], 1.0);
    for _ in 0..8 {
        let mut conv = Conv2d::<f32>::new(Conv2dConfig::vgg_style(ch, ch, (hw, hw)), &mut rng);
        prune_operator(&mut conv, 0.9);
        let y = conv.forward(&x);
        elems.push(ScanElement::Sparse(conv.transposed_jacobian(&x, &y)));
        let relu = Relu::new(vec![ch, hw, hw]);
        let y_relu = Operator::<f32>::forward(&relu, &y);
        elems.push(ScanElement::Sparse(relu.transposed_jacobian(&y, &y_relu)));
        x = y_relu;
    }
    let mut chain = JacobianChain::new(uniform_vector(&mut rng, ch * hw * hw, 1.0));
    for e in elems {
        chain.push(e);
    }
    chain
}

/// The large-chain config the workspace reuse targets: many timesteps of
/// small Jacobians (the RNN / Fig. 9 shape), where each combine is
/// microseconds of FLOPs and the allocating path's per-combine buffer
/// churn is a first-order cost.
fn large_random_chain() -> JacobianChain<f64> {
    let mut rng = seeded_rng(33);
    let n = 512usize;
    let width = 16usize;
    let mut chain = JacobianChain::new(uniform_vector(&mut rng, width, 1.0));
    for _ in 0..n {
        chain.push(ScanElement::Sparse(random_csr(&mut rng, width, width, 0.3)));
    }
    chain
}

fn bench_planned(c: &mut Criterion) {
    let mut group = c.benchmark_group("planned_scan");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    let chain = pruned_chain();
    let opts = BppsaOptions::serial();

    group.bench_function("generic_backward", |b| {
        b.iter(|| bppsa_backward(std::hint::black_box(&chain), opts))
    });

    let plan = PlannedScan::plan(&chain, opts);
    group.bench_function("planned_numeric_backward", |b| {
        b.iter(|| plan.execute(std::hint::black_box(&chain)))
    });

    let mut ws = plan.workspace::<f32>();
    let _ = plan.execute_with(&chain, &mut ws); // warm the buffers
    group.bench_function("planned_workspace_backward", |b| {
        b.iter(|| {
            plan.execute_with(std::hint::black_box(&chain), &mut ws)
                .grads()
                .len()
        })
    });

    group.bench_function("plan_construction_once", |b| {
        b.iter(|| PlannedScan::plan(std::hint::black_box(&chain), opts))
    });

    // The large-chain config of the acceptance bar: workspace-backed planned
    // execution vs the allocating planned path vs generic spgemm.
    let big = large_random_chain();
    let big_plan = PlannedScan::plan(&big, opts);
    group.bench_function("large/generic_backward", |b| {
        b.iter(|| bppsa_backward(std::hint::black_box(&big), opts))
    });
    group.bench_function("large/planned_numeric_backward", |b| {
        b.iter(|| big_plan.execute(std::hint::black_box(&big)))
    });
    let mut big_ws = big_plan.workspace::<f64>();
    let _ = big_plan.execute_with(&big, &mut big_ws);
    group.bench_function("large/planned_workspace_backward", |b| {
        b.iter(|| {
            big_plan
                .execute_with(std::hint::black_box(&big), &mut big_ws)
                .grads()
                .len()
        })
    });

    group.finish();
}

/// A deep narrow chain (the segment-parallel target shape): `n` timesteps
/// of small sparse Jacobians, where the scan's critical path — not any one
/// combine — is the cost.
fn deep_chain(n: usize) -> JacobianChain<f64> {
    let mut rng = seeded_rng(44);
    let width = 8usize;
    let mut chain = JacobianChain::new(uniform_vector(&mut rng, width, 1.0));
    for _ in 0..n {
        chain.push(ScanElement::Sparse(random_csr(&mut rng, width, width, 0.3)));
    }
    chain
}

fn bench_segmented(c: &mut Criterion) {
    let mut group = c.benchmark_group("segmented_scan");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    // K = 1 is the status-quo pooled plan; K ∈ {2, 4} split the same
    // instruction stream across carved worker groups. On a multi-core host
    // the segmented variants should win on deep chains; on one core they
    // measure pure stitching overhead (the JSON environment record carries
    // available_parallelism so the two readings are never confused).
    for depth in [4096usize, 32768] {
        let chain = deep_chain(depth);
        for k in [1usize, 2, 4] {
            let plan = PlannedScan::plan(&chain, BppsaOptions::pooled().segmented(k));
            assert_eq!(plan.segments(), k, "deep chains segment fully");
            let mut ws = plan.workspace::<f64>();
            let _ = plan.execute_with(&chain, &mut ws); // warm buffers + pool
            group.bench_function(format!("depth_{depth}/k{k}"), |b| {
                b.iter(|| {
                    plan.execute_with(std::hint::black_box(&chain), &mut ws)
                        .grads()
                        .len()
                })
            });
        }
    }

    group.finish();
}

fn bench_row_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("spgemm_row_parallel");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    // A large product: 1k × 1k at 8% density (≈ the densified mid-sweep
    // products of a deep chain — compute-heavy enough that row chunks
    // amortize the pool barrier).
    let mut rng = seeded_rng(55);
    let n = 1024usize;
    let a = random_csr(&mut rng, n, n, 0.08);
    let b = random_csr(&mut rng, n, n, 0.08);
    let plan = SymbolicProduct::plan(&a.pattern(), &b.pattern());
    println!(
        "bench spgemm_row_parallel: {} planned MFLOPs, out nnz {}",
        plan.flops() / 1_000_000,
        plan.out_pattern().nnz()
    );

    let mut out = Csr::from_pattern(plan.out_pattern().clone());
    group.bench_function("numeric_single_thread", |bch| {
        bch.iter(|| plan.execute_into(std::hint::black_box(&a), &b, &mut out))
    });
    let pool = bppsa_scan::global_pool();
    group.bench_function("numeric_row_parallel", |bch| {
        bch.iter(|| plan.execute_into_parallel(std::hint::black_box(&a), &b, &mut out, pool))
    });
    group.finish();
}

fn bench_workspace_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("workspace_pool");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    // 8 mini-batches of the RNN shape (many small Jacobians), same
    // structure with distinct values — the serving-shard workload: one
    // compiled plan, one workspace per in-flight batch.
    let mut rng = seeded_rng(77);
    let (n, width, batches) = (192usize, 16usize, 8usize);
    let template = {
        let mut chain = JacobianChain::new(uniform_vector(&mut rng, width, 1.0));
        for _ in 0..n {
            chain.push(ScanElement::Sparse(random_csr(&mut rng, width, width, 0.3)));
        }
        chain
    };
    let chains: Vec<JacobianChain<f64>> = (0..batches)
        .map(|_| {
            let mut chain = JacobianChain::new(uniform_vector(&mut rng, width, 1.0));
            for jt in template.jacobians() {
                let ScanElement::Sparse(m) = jt else {
                    unreachable!()
                };
                chain.push(ScanElement::Sparse(
                    m.map_values(|_| rng.random_range(-1.0..1.0)),
                ));
            }
            chain
        })
        .collect();
    let plan = std::sync::Arc::new(PlannedScan::plan(&template, BppsaOptions::serial()));

    for capacity in [1usize, 2, 4, 8] {
        let batched = BatchedBackward::with_capacity(std::sync::Arc::clone(&plan), capacity);
        batched.prewarm(batches);
        let sink = std::sync::atomic::AtomicUsize::new(0);
        // Warm the worker pool before measuring.
        batched.execute(&chains, &|_, r| {
            sink.fetch_add(r.grads().len(), std::sync::atomic::Ordering::Relaxed);
        });
        group.bench_function(format!("batched_8_chains/capacity_{capacity}"), |b| {
            b.iter(|| {
                batched.execute(std::hint::black_box(&chains), &|_, r| {
                    sink.fetch_add(r.grads().len(), std::sync::atomic::Ordering::Relaxed);
                })
            })
        });
    }

    // Baseline: the same 8 chains through one workspace, serially.
    let mut ws = plan.workspace::<f64>();
    let _ = plan.execute_with(&chains[0], &mut ws);
    group.bench_function("serial_8_chains/single_workspace", |b| {
        b.iter(|| {
            for chain in &chains {
                let _ = plan.execute_with(std::hint::black_box(chain), &mut ws);
            }
        })
    });

    group.finish();
}

criterion_group!(
    benches,
    bench_planned,
    bench_segmented,
    bench_row_parallel,
    bench_workspace_pool
);
criterion_main!(benches);

//! Tier-1 allocation-behavior test for the *training* hot path: after
//! warm-up, the pooled route's steady state — refreshing every per-sample
//! chain's values in place and fanning the chains across the worker pool —
//! must be allocation-free. Not just the scan kernels, but the
//! per-iteration chain handling too.
//!
//! Covers the RNN's CSR chain, the SSM's diagonal chain and a segmented
//! (`segments = 2`) RNN plan.
//!
//! Single `#[test]` so no concurrent test thread pollutes the process-wide
//! counters.

use bppsa_core::{BppsaOptions, JacobianChain, ScanElement};
use bppsa_models::{
    BitstreamDataset, DiagonalSsm, PooledChainSet, RnnBatchSample, SsmBatchSample, VanillaRnn,
};
use bppsa_tensor::init::seeded_rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

struct CountingAllocator;

static TRACKING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` with counting enabled, returning the allocation count.
fn counted(f: impl FnOnce()) -> u64 {
    ALLOCS.store(0, Ordering::SeqCst);
    TRACKING.store(true, Ordering::SeqCst);
    f();
    TRACKING.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

/// One steady-state iteration: `refresh` rewrites chain `k`'s seed and
/// Jacobian values, then the set fans out with a non-allocating consumer.
/// Returns how many results were consumed.
fn refresh_and_execute(
    set: &mut PooledChainSet<f64>,
    n: usize,
    refresh: impl Fn(usize, &mut JacobianChain<f64>),
) -> usize {
    for (k, chain) in set.chains_mut(n).iter_mut().enumerate() {
        refresh(k, chain);
    }
    let consumed = AtomicUsize::new(0);
    set.execute(n, &|_, result| {
        assert!(result.grad_x(1).iter().all(|v| v.is_finite()));
        consumed.fetch_add(1, Ordering::Relaxed);
    });
    consumed.into_inner()
}

#[test]
fn steady_state_pooled_training_scan_is_allocation_free() {
    let data = BitstreamDataset::<f64>::generate(12, 64, 3);
    let rnn = VanillaRnn::<f64>::new(1, 10, 10, &mut seeded_rng(4));
    let ssm = DiagonalSsm::<f64>::new(10, 10, &mut seeded_rng(5));

    // Forward passes and seed preparation allocate by design: outside the
    // counted region.
    let rnn_prepared: Vec<_> = (0..6)
        .map(|i| {
            let sample = data.sample(i);
            let states = rnn.forward(&sample.bits);
            let (_, seed, g_logits) = rnn.loss_and_seed(&states, sample.label);
            (sample.bits.clone(), states, seed, g_logits)
        })
        .collect();
    let ssm_prepared: Vec<_> = (0..4)
        .map(|i| {
            let sample = data.sample(i);
            let states = ssm.forward(&sample.bits);
            let (_, seed, g_logits) = ssm.loss_and_seed(&states, sample.label);
            (sample.bits.clone(), states, seed, g_logits)
        })
        .collect();

    let refresh_rnn = |k: usize, chain: &mut JacobianChain<f64>| {
        let (_, states, seed, _) = &rnn_prepared[k];
        chain
            .seed_mut()
            .as_mut_slice()
            .copy_from_slice(seed.as_slice());
        for (t, element) in chain.jacobians_mut().iter_mut().enumerate() {
            let ScanElement::Sparse(m) = element else {
                unreachable!("pooled RNN chains are CSR")
            };
            rnn.fill_hidden_jacobian_values(&states[t], m.data_mut());
        }
    };
    let refresh_ssm = |k: usize, chain: &mut JacobianChain<f64>| {
        let (_, states, seed, _) = &ssm_prepared[k];
        chain
            .seed_mut()
            .as_mut_slice()
            .copy_from_slice(seed.as_slice());
        for (t, element) in chain.jacobians_mut().iter_mut().enumerate() {
            let ScanElement::Sparse(m) = element else {
                unreachable!("pooled SSM chains are CSR")
            };
            m.data_mut().copy_from_slice(states.a[t].as_slice());
        }
    };

    // RNN CSR chains, unsegmented (the whole batch) and segmented (one
    // sample, so the segments' worker groups get the pool).
    for (name, opts, n) in [
        ("rnn", BppsaOptions::pooled(), 6),
        ("rnn segmented", BppsaOptions::pooled().segmented(2), 1),
    ] {
        let batch: Vec<RnnBatchSample<'_, f64>> = rnn_prepared[..n]
            .iter()
            .map(|(bits, states, seed, g)| (bits.as_slice(), states, seed.clone(), g.clone()))
            .collect();
        let mut set = PooledChainSet::new();
        // Warm-up: builds the chains, the plan and the workspaces.
        let reference = rnn.backward_bppsa_pooled(&batch, opts, &mut set);
        let _ = rnn.backward_bppsa_pooled(&batch, opts, &mut set);
        assert_eq!(set.plans_built(), 1);
        if opts.segments > 1 {
            assert_eq!(set.plan().expect("planned").segments(), 2);
        }

        let mut consumed = 0;
        let allocs = counted(|| consumed = refresh_and_execute(&mut set, n, refresh_rnn));
        assert_eq!(consumed, n);
        assert_eq!(
            allocs, 0,
            "{name}: steady-state pooled refresh + scan must not allocate"
        );
        // Still correct after the counted run.
        let out = rnn.backward_bppsa_pooled(&batch, opts, &mut set);
        assert!(out.max_abs_diff(&reference) < 1e-12, "{name}");
    }

    // SSM diagonal chains.
    let batch: Vec<SsmBatchSample<'_, f64>> = ssm_prepared
        .iter()
        .map(|(xs, states, seed, g)| (xs.as_slice(), states, seed.clone(), g.clone()))
        .collect();
    let opts = BppsaOptions::pooled();
    let mut set = PooledChainSet::new();
    let reference = ssm.backward_bppsa_pooled(&batch, opts, &mut set);
    let _ = ssm.backward_bppsa_pooled(&batch, opts, &mut set);
    assert!(set.plan().expect("planned").diagonal_kernel().is_some());

    let mut consumed = 0;
    let allocs = counted(|| consumed = refresh_and_execute(&mut set, batch.len(), refresh_ssm));
    assert_eq!(consumed, batch.len());
    assert_eq!(
        allocs, 0,
        "ssm: steady-state pooled refresh + scan must not allocate"
    );
    let out = ssm.backward_bppsa_pooled(&batch, opts, &mut set);
    assert!(out.max_abs_diff(&reference) < 1e-12);
}

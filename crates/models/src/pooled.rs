//! Shared plumbing for routing recurrent models through
//! [`BatchedBackward`]: a reusable set of same-shape per-sample chains plus
//! the pooled executor they fan out on.
//!
//! This is the batched BPPSA training route: one *per-sample* chain each,
//! all matching a single compiled [`PlannedScan`], executed concurrently
//! over a [`WorkspacePool`](bppsa_core::WorkspacePool). Because the
//! per-sample chain shape is independent of the batch size, a remainder
//! batch at epoch end reuses the same plan instead of planning a second
//! shape. A deep chain with fewer samples than workers can instead split
//! each sample's scan into concurrent segments
//! ([`BppsaOptions::segmented`]).
//!
//! The accumulation of per-sample parameter gradients into one update is
//! what makes this valid: the paper's optimizers consume the batch *sum*
//! (§2.2 — BPPSA is "agnostic to the exact first-order optimizer"), and a
//! sum is insensitive to which workspace computed which sample.

use bppsa_core::{BackwardResult, BatchedBackward, BppsaOptions, JacobianChain, PlannedScan};
use bppsa_tensor::Scalar;
use std::sync::Arc;

/// A lazily-built set of structurally-identical per-sample chains and the
/// [`BatchedBackward`] executor that fans them over pooled workspaces.
///
/// Owned by a training loop (inside
/// [`RecurrentTrainState`](crate::RecurrentTrainState)); models call
/// [`PooledChainSet::ensure`] with their chain shape each iteration, refresh
/// the chains' *values* in place via [`PooledChainSet::chains_mut`], and fan
/// out with [`PooledChainSet::execute`]. Planning happens only when the
/// shape (or options) actually change; the steady state is numeric-only
/// over reused chains, one compiled plan, and pooled workspaces.
#[derive(Debug, Default)]
pub struct PooledChainSet<S> {
    entry: Option<Entry<S>>,
    plans_built: usize,
}

#[derive(Debug)]
struct Entry<S> {
    /// `(chain length, element width)` of the per-sample chains.
    key: (usize, usize),
    /// The options the plan was built with, normalized by
    /// [`plan_options`]: the caller's executor never forces a re-plan.
    opts: BppsaOptions,
    /// One refreshable chain per batch slot; all clones of `chains[0]`, so
    /// every chain shares the template's `Arc` sparsity patterns and the
    /// plan's structural match is pointer equality.
    chains: Vec<JacobianChain<S>>,
    batched: BatchedBackward<S>,
}

impl<S: Scalar> PooledChainSet<S> {
    /// An empty set (plans on first [`PooledChainSet::ensure`]).
    pub fn new() -> Self {
        Self {
            entry: None,
            plans_built: 0,
        }
    }

    /// Ensures `n` chains of shape `key` exist, building the template chain
    /// with `build` and planning it when the shape or the plan options
    /// changed since the last call. `opts` selects the schedule (full
    /// Blelloch vs. §5.2 hybrid), the diagonal and kernel modes and the
    /// segment count. Its executor is ignored: an unsegmented plan runs
    /// serially inside the per-sample fan-out, and a segmented plan runs
    /// its segments on worker groups carved from the pool.
    pub fn ensure(
        &mut self,
        key: (usize, usize),
        n: usize,
        opts: BppsaOptions,
        build: impl FnOnce() -> JacobianChain<S>,
    ) {
        let opts = plan_options(opts);
        if !matches!(&self.entry, Some(e) if e.key == key && e.opts == opts) {
            let template = build();
            let plan = Arc::new(PlannedScan::plan(&template, opts));
            let batched = BatchedBackward::new(plan);
            let mut chains = Vec::with_capacity(n);
            chains.push(template);
            self.entry = Some(Entry {
                key,
                opts,
                chains,
                batched,
            });
            self.plans_built += 1;
        }
        let entry = self.entry.as_mut().expect("entry just ensured");
        while entry.chains.len() < n {
            let clone = entry.chains[0].clone();
            entry.chains.push(clone);
        }
        // Re-prewarm on growth too, so a later, larger batch of the same
        // shape stays on the allocation-free path.
        entry.batched.prewarm(n);
    }

    /// The first `n` chains, for in-place value refresh.
    ///
    /// # Panics
    ///
    /// Panics if [`PooledChainSet::ensure`] has not provided `n` chains.
    pub fn chains_mut(&mut self, n: usize) -> &mut [JacobianChain<S>] {
        &mut self.entry.as_mut().expect("ensure() not called").chains[..n]
    }

    /// Fans the first `n` chains across the worker pool (each sample on its
    /// own pooled workspace) and streams every result to `consume(k,
    /// result)` — concurrently, exactly once per index, while the workspace
    /// is held. See [`BatchedBackward::execute`].
    ///
    /// # Panics
    ///
    /// Panics if [`PooledChainSet::ensure`] has not provided `n` chains.
    pub fn execute(&self, n: usize, consume: &(dyn Fn(usize, &BackwardResult<S>) + Sync)) {
        let entry = self.entry.as_ref().expect("ensure() not called");
        entry.batched.execute(&entry.chains[..n], consume);
    }

    /// How many times a plan was built — the number of distinct `(shape,
    /// options)` pairs seen, not the iteration count. Remainder batches
    /// share the full batch's plan (per-sample shape is batch-size
    /// independent), so a steady training run reads `1`.
    pub fn plans_built(&self) -> usize {
        self.plans_built
    }

    /// The current plan, if any (for FLOP/workspace accounting).
    pub fn plan(&self) -> Option<&Arc<PlannedScan>> {
        self.entry.as_ref().map(|e| e.batched.plan())
    }
}

/// The options a pooled plan is built with. Parallelism comes from fanning
/// whole samples across the pool, not from splitting one sample's levels,
/// so an unsegmented plan always uses the serial executor. Segment groups
/// are carved from the pool, so a segmented plan uses the pooled executor.
fn plan_options(opts: BppsaOptions) -> BppsaOptions {
    let executor = if opts.segments > 1 {
        BppsaOptions::pooled().executor
    } else {
        BppsaOptions::serial().executor
    };
    BppsaOptions { executor, ..opts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bppsa_core::{KernelMode, ScanElement};
    use bppsa_sparse::Csr;
    use bppsa_tensor::{Matrix, Vector};

    /// A chain of fully dense 20×20 CSR Jacobians (the §4.1 RNN shape),
    /// which `KernelMode::Auto` plans onto the dense kernel.
    fn dense_chain(layers: usize) -> JacobianChain<f64> {
        let width = 20;
        let mut chain = JacobianChain::new(Vector::from_vec(vec![1.0; width]));
        for l in 0..layers {
            let m = Matrix::from_fn(width, width, |i, j| {
                ((i + 3 * j + l) % 7) as f64 / 7.0 - 0.4
            });
            chain.push(ScanElement::Sparse(Csr::from_dense_pattern(&m)));
        }
        chain
    }

    #[test]
    fn plan_option_changes_replan_and_executor_changes_do_not() {
        let layers = 40;
        let key = (layers, 20);
        let mut set = PooledChainSet::new();
        set.ensure(key, 2, BppsaOptions::pooled(), || dense_chain(layers));
        assert_eq!(set.plans_built(), 1);
        assert!(set.plan().unwrap().kernel_counts().dense > 0);

        // The executor is not a plan option.
        set.ensure(key, 2, BppsaOptions::serial(), || dense_chain(layers));
        assert_eq!(set.plans_built(), 1);

        // Forcing a kernel re-plans, and the new plan runs only that kernel.
        let gather = BppsaOptions::pooled().kernel(KernelMode::Gather);
        set.ensure(key, 2, gather, || dense_chain(layers));
        assert_eq!(set.plans_built(), 2);
        let counts = set.plan().unwrap().kernel_counts();
        assert!(counts.gather > 0, "{counts:?}");
        assert_eq!(counts.gather, counts.total(), "{counts:?}");

        // So does changing the segment count.
        set.ensure(key, 2, gather.segmented(2), || dense_chain(layers));
        assert_eq!(set.plans_built(), 3);
        assert_eq!(set.plan().unwrap().segments(), 2);
        set.ensure(key, 2, gather.segmented(2), || dense_chain(layers));
        assert_eq!(set.plans_built(), 3);
    }
}

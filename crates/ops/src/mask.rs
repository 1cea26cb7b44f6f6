//! Frozen pruning masks and the transposed-Jacobian structure they induce
//! (§4.2).
//!
//! For [`Conv2d`](crate::Conv2d) and [`Linear`](crate::Linear) every stored
//! Jacobian entry *is* a weight, so the transposed Jacobian is described
//! once by a [`SparsityPattern`] plus a *gather map*: entry `e` of the
//! pattern holds weight `gather[e]`. Refreshing the Jacobian each step is
//! one gather into a fresh value array over the shared pattern `Arc`.
//!
//! Freezing a pruning mask leaves the masked weights' entries out of that
//! pattern, so the pattern — and every scan plan built over it — shrinks
//! with the mask instead of carrying 97% explicit zeros. The mask is part
//! of the architecture from then on: `set_params` keeps masked weights at
//! exactly zero, so the smaller pattern stays a guaranteed pattern.
//!
//! [`cached_diagonal`] serves the same pointer-sharing purpose for the
//! weight-free diagonal layers ([`Relu`](crate::Relu),
//! [`Flatten`](crate::Flatten)).

use bppsa_sparse::{Csr, SparsityPattern};
use bppsa_tensor::Scalar;
use std::sync::{Arc, OnceLock};

/// A layer's pruning mask plus its cached transposed-Jacobian structure.
#[derive(Debug, Clone, Default)]
pub(crate) struct WeightMask {
    /// `masked[k]`: weight `k` is pruned and stays exactly zero. Empty
    /// until the mask is frozen (nothing masked).
    masked: Vec<bool>,
    /// Pattern and gather map over the unmasked weights, built on first
    /// use and shared (clones of the layer share it too).
    structure: OnceLock<Arc<GatherStructure>>,
}

#[derive(Debug)]
struct GatherStructure {
    pattern: Arc<SparsityPattern>,
    /// Weight index of each stored entry, in pattern order.
    gather: Vec<u32>,
}

impl WeightMask {
    /// Masks every weight that is currently zero (masked weights stay
    /// masked: they are zero) and drops the cached structure, so the next
    /// Jacobian is built over the new mask.
    pub(crate) fn freeze<S: Scalar>(&mut self, weights: &[S]) {
        assert!(
            u32::try_from(weights.len()).is_ok(),
            "weight mask: {} weights exceed the u32 gather range",
            weights.len()
        );
        self.masked = weights.iter().map(|&w| w == S::ZERO).collect();
        self.structure = OnceLock::new();
    }

    /// Whether weight `k` contributes Jacobian entries (is not masked).
    pub(crate) fn keeps(&self, k: usize) -> bool {
        !self.masked.get(k).copied().unwrap_or(false)
    }

    /// Zeroes the masked weights of `weights`.
    pub(crate) fn apply<S: Scalar>(&self, weights: &mut [S]) {
        for (w, &m) in weights.iter_mut().zip(&self.masked) {
            if m {
                *w = S::ZERO;
            }
        }
    }

    /// The transposed Jacobian over `weights`: one gather into the cached
    /// pattern. `build` runs once per freeze and returns the pattern over
    /// the weights this mask [`keeps`](WeightMask::keeps), with each
    /// entry's weight index.
    pub(crate) fn transposed_jacobian<S: Scalar>(
        &self,
        weights: &[S],
        build: impl FnOnce() -> (SparsityPattern, Vec<u32>),
    ) -> Csr<S> {
        let s = self.structure.get_or_init(|| {
            let (pattern, gather) = build();
            debug_assert_eq!(pattern.nnz(), gather.len());
            Arc::new(GatherStructure {
                pattern: Arc::new(pattern),
                gather,
            })
        });
        Csr::from_pattern_and_values(
            Arc::clone(&s.pattern),
            s.gather.iter().map(|&k| weights[k as usize]).collect(),
        )
    }
}

/// The full `n × n` diagonal pattern, built into `cell` on first use and
/// shared from then on.
pub(crate) fn cached_diagonal(
    cell: &OnceLock<Arc<SparsityPattern>>,
    n: usize,
) -> Arc<SparsityPattern> {
    let build = || SparsityPattern::new(n, n, (0..=n).collect(), (0..n as u32).collect());
    Arc::clone(cell.get_or_init(|| Arc::new(build())))
}

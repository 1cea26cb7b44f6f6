//! Magnitude pruning (See et al. 2016, as used in the paper's §4.2): zero
//! the smallest-magnitude fraction of each operator's *weights* (class-
//! uniform — per-layer thresholds; biases are kept).
//!
//! The paper prunes 97% of conv/linear weights of VGG-11, retrains, and
//! observes that the pruned weights make the analytically-generated
//! transposed Jacobians sparser — shrinking BPPSA's per-step cost
//! (Figure 11). Pruning here ends by freezing the zeroed weights as each
//! operator's mask ([`Operator::freeze_pruning_mask`]): retraining keeps
//! them at zero, and the Jacobian patterns a scan plan is built over leave
//! them out.

use bppsa_core::Network;
use bppsa_ops::Operator;
use bppsa_tensor::Scalar;

/// Zeroes the `fraction` smallest-magnitude entries of `weights`, in place.
/// Returns the number of zeroed entries.
///
/// # Panics
///
/// Panics if `fraction` is not in `[0, 1]`.
pub fn prune_slice<S: Scalar>(weights: &mut [S], fraction: f64) -> usize {
    assert!(
        (0.0..=1.0).contains(&fraction),
        "prune fraction {fraction} outside [0, 1]"
    );
    let k = ((weights.len() as f64) * fraction).round() as usize;
    if k == 0 {
        return 0;
    }
    let mut mags: Vec<(f64, usize)> = weights
        .iter()
        .enumerate()
        .map(|(i, &w)| (w.abs().to_f64(), i))
        .collect();
    mags.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite weights"));
    for &(_, i) in mags.iter().take(k) {
        weights[i] = S::ZERO;
    }
    k
}

/// Prunes one operator's weight portion (its [`Operator::prunable_len`]
/// leading parameters) to the given sparsity fraction, then freezes every
/// zero weight as the operator's pruning mask. Returns the number of
/// weights zeroed by this call.
pub fn prune_operator<S: Scalar>(op: &mut dyn Operator<S>, fraction: f64) -> usize {
    let prunable = op.prunable_len();
    if prunable == 0 {
        return 0;
    }
    let mut params = op.params();
    let zeroed = prune_slice(&mut params[..prunable], fraction);
    op.set_params(&params);
    op.freeze_pruning_mask();
    zeroed
}

/// Prunes every parameterized operator of a network to `fraction` sparsity.
/// Returns the total number of zeroed weights.
pub fn prune_network<S: Scalar>(net: &mut Network<S>, fraction: f64) -> usize {
    net.ops_mut()
        .iter_mut()
        .map(|op| prune_operator(op.as_mut(), fraction))
        .sum()
}

/// Measured weight sparsity of an operator (zeros among prunable weights).
pub fn weight_sparsity<S: Scalar>(op: &dyn Operator<S>) -> f64 {
    let prunable = op.prunable_len();
    if prunable == 0 {
        return 0.0;
    }
    let params = op.params();
    let zeros = params[..prunable].iter().filter(|&&w| w == S::ZERO).count();
    zeros as f64 / prunable as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use bppsa_ops::{Conv2d, Conv2dConfig, Linear};
    use bppsa_tensor::init::seeded_rng;

    #[test]
    fn prune_slice_zeroes_smallest() {
        let mut w = vec![0.5f64, -0.1, 0.9, 0.05, -0.7];
        let k = prune_slice(&mut w, 0.4);
        assert_eq!(k, 2);
        assert_eq!(w, vec![0.5, 0.0, 0.9, 0.0, -0.7]);
    }

    #[test]
    fn prune_zero_fraction_is_noop() {
        let mut w = vec![1.0f32, 2.0];
        assert_eq!(prune_slice(&mut w, 0.0), 0);
        assert_eq!(w, vec![1.0, 2.0]);
    }

    #[test]
    fn prune_full_fraction_zeroes_everything() {
        let mut w = vec![1.0f32, -2.0, 3.0];
        prune_slice(&mut w, 1.0);
        assert!(w.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn operator_pruning_preserves_biases() {
        let mut rng = seeded_rng(0);
        let mut layer = Linear::<f64>::from_parts(
            bppsa_tensor::init::uniform_matrix(&mut rng, 4, 4, 1.0),
            bppsa_tensor::Vector::filled(4, 7.0),
        );
        let zeroed = prune_operator(&mut layer, 0.97);
        assert!(zeroed >= 15);
        assert!(weight_sparsity(&layer) >= 0.9);
        assert!(layer.bias().iter().all(|&b| b == 7.0));
    }

    #[test]
    fn conv_pruning_hits_target_sparsity() {
        let mut rng = seeded_rng(1);
        let mut conv = Conv2d::<f32>::new(Conv2dConfig::vgg_style(4, 8, (8, 8)), &mut rng);
        prune_operator(&mut conv, 0.97);
        let s = weight_sparsity(&conv);
        assert!((s - 0.97).abs() < 0.01, "sparsity {s}");
    }

    #[test]
    fn pruned_conv_jacobian_shrinks_by_the_same_factor() {
        // §4.2's key mechanism: Jacobian values come only from the weights,
        // so 97% weight sparsity → ≈97% fewer Jacobian non-zeros.
        let mut rng = seeded_rng(2);
        let mut conv = Conv2d::<f32>::new(Conv2dConfig::vgg_style(2, 4, (8, 8)), &mut rng);
        let x = bppsa_tensor::init::uniform_tensor(&mut rng, vec![2, 8, 8], 1.0);
        let dense_nnz = conv.transposed_jacobian(&x, &conv.forward(&x)).nnz();
        prune_operator(&mut conv, 0.97);
        let pruned_nnz = conv.transposed_jacobian(&x, &conv.forward(&x)).nnz();
        let ratio = pruned_nnz as f64 / dense_nnz as f64;
        assert!(ratio < 0.08, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn bad_fraction_rejected() {
        let mut w = vec![1.0f32];
        prune_slice(&mut w, 1.5);
    }
}

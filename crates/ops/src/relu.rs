//! The ReLU operator and its diagonal transposed Jacobian.
//!
//! Table 1: the ReLU Jacobian's guaranteed zeros are everything off the
//! diagonal — sparsity `1 − 1/(c·h·w)`. On-diagonal zeros (negative inputs)
//! are input-dependent "possible zeros" and stay in the CSR pattern
//! explicitly, keeping the pattern deterministic (§3.3). The layer builds
//! that diagonal pattern once and shares it with every Jacobian it emits.

use crate::mask::cached_diagonal;
use crate::operator::{check_input_shape, Operator};
use bppsa_sparse::{Csr, SparsityPattern};
use bppsa_tensor::{Scalar, Tensor, Vector};
use std::sync::{Arc, OnceLock};

/// Elementwise rectified linear unit `y = max(x, 0)` over any tensor shape.
///
/// # Examples
///
/// ```
/// use bppsa_ops::{Operator, Relu};
/// use bppsa_tensor::Tensor;
///
/// let relu = Relu::new(vec![4]);
/// let y = relu.forward(&Tensor::from_vec(vec![4], vec![-1.0_f32, 2.0, -3.0, 4.0]));
/// assert_eq!(y.as_slice(), &[0.0, 2.0, 0.0, 4.0]);
/// ```
#[derive(Debug, Clone)]
pub struct Relu {
    shape: Vec<usize>,
    pattern: OnceLock<Arc<SparsityPattern>>,
}

impl Relu {
    /// Creates a ReLU over tensors of the given shape.
    pub fn new(shape: impl Into<Vec<usize>>) -> Self {
        Self {
            shape: shape.into(),
            pattern: OnceLock::new(),
        }
    }
}

impl<S: Scalar> Operator<S> for Relu {
    fn name(&self) -> &str {
        "relu"
    }

    fn input_shape(&self) -> &[usize] {
        &self.shape
    }

    fn output_shape(&self) -> &[usize] {
        &self.shape
    }

    fn forward(&self, input: &Tensor<S>) -> Tensor<S> {
        check_input_shape("relu", &self.shape, input);
        input.map(|v| v.maximum(S::ZERO))
    }

    fn vjp(&self, input: &Tensor<S>, _output: &Tensor<S>, grad_output: &Vector<S>) -> Vector<S> {
        check_input_shape("relu", &self.shape, input);
        let xs = input.as_slice();
        Vector::from_fn(grad_output.len(), |i| {
            if xs[i] > S::ZERO {
                grad_output[i]
            } else {
                S::ZERO
            }
        })
    }

    fn transposed_jacobian(&self, input: &Tensor<S>, _output: &Tensor<S>) -> Csr<S> {
        check_input_shape("relu", &self.shape, input);
        let diag: Vec<S> = input
            .as_slice()
            .iter()
            .map(|&v| if v > S::ZERO { S::ONE } else { S::ZERO })
            .collect();
        Csr::from_pattern_and_values(cached_diagonal(&self.pattern, diag.len()), diag)
    }

    fn guaranteed_sparsity(&self) -> f64 {
        let n: usize = self.shape.iter().product();
        if n == 0 {
            0.0
        } else {
            1.0 - 1.0 / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jacobian::{check_operator_consistency, transposed_jacobian_via_vjp};

    fn sample_input() -> Tensor<f64> {
        Tensor::from_vec(vec![2, 3], vec![1.0, -2.0, 0.0, 3.5, -0.1, 2.0])
    }

    #[test]
    fn forward_clamps_negatives_and_zero_stays() {
        let relu = Relu::new(vec![2, 3]);
        let y = relu.forward(&sample_input());
        assert_eq!(y.as_slice(), &[1.0, 0.0, 0.0, 3.5, 0.0, 2.0]);
    }

    #[test]
    fn jacobian_is_diagonal_indicator() {
        let relu = Relu::new(vec![2, 3]);
        let x = sample_input();
        let y = relu.forward(&x);
        let j = relu.transposed_jacobian(&x, &y);
        assert_eq!(j.shape(), (6, 6));
        // Pattern is the full diagonal (6 stored entries), values are 0/1.
        assert_eq!(j.nnz(), 6);
        assert_eq!(j.get(0, 0), 1.0);
        assert_eq!(j.get(1, 1), 0.0); // negative input: possible zero, stored
        assert_eq!(j.get(2, 2), 0.0); // zero input: subgradient 0
    }

    #[test]
    fn vjp_matches_jacobian_and_autograd_column_extraction() {
        let relu = Relu::new(vec![2, 3]);
        let x = sample_input();
        let y = relu.forward(&x);
        let jt = relu.transposed_jacobian(&x, &y);
        let jt_cols = transposed_jacobian_via_vjp(&relu, &x, &y);
        assert!(jt.to_dense().approx_eq(&jt_cols, 1e-12));
    }

    #[test]
    fn operator_consistency_holds() {
        let relu = Relu::new(vec![5]);
        let x = Tensor::from_vec(vec![5], vec![0.3, -0.7, 1.2, -0.01, 0.5]);
        check_operator_consistency(&relu, &x, 1e-9);
    }

    #[test]
    fn guaranteed_sparsity_formula_matches_table1() {
        // VGG-11 first ReLU on 32x32: c=64, h=w=32 → 1 − 1/(64·32·32) ≈ 0.99998.
        let relu = Relu::new(vec![64, 32, 32]);
        let s = Operator::<f32>::guaranteed_sparsity(&relu);
        assert!((s - (1.0 - 1.0 / 65536.0)).abs() < 1e-12);
        assert!(s > 0.99998);
    }

    #[test]
    fn pattern_is_input_independent() {
        let relu = Relu::new(vec![4]);
        let x1 = Tensor::from_vec(vec![4], vec![1.0, -1.0, 2.0, -2.0]);
        let x2 = Tensor::from_vec(vec![4], vec![-9.0, 3.0, 0.0, 7.0]);
        let j1 = relu.transposed_jacobian(&x1, &relu.forward(&x1));
        let j2 = relu.transposed_jacobian(&x2, &relu.forward(&x2));
        assert!(
            j1.same_pattern(&j2),
            "deterministic pattern required (§3.3)"
        );
        assert!(
            Arc::ptr_eq(j1.pattern_ref(), j2.pattern_ref()),
            "one shared pattern per layer"
        );
    }
}

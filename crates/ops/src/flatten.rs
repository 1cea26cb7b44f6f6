//! The flatten operator (e.g. between VGG/LeNet feature extractors and
//! their classifier heads). With row-major storage this is a data no-op, so
//! its transposed Jacobian is the identity matrix — the cheapest possible
//! scan element. Its pattern is built once and shared by every call.

use crate::mask::cached_diagonal;
use crate::operator::{check_input_shape, Operator};
use bppsa_sparse::{Csr, SparsityPattern};
use bppsa_tensor::{Scalar, Tensor, Vector};
use std::sync::{Arc, OnceLock};

/// Reshapes `(d₀, d₁, …)` tensors into 1-D vectors of the same length.
///
/// # Examples
///
/// ```
/// use bppsa_ops::{Flatten, Operator};
/// use bppsa_tensor::Tensor;
///
/// let f = Flatten::new(vec![2, 3]);
/// let y = f.forward(&Tensor::<f32>::zeros(vec![2, 3]));
/// assert_eq!(y.shape(), &[6]);
/// ```
#[derive(Debug, Clone)]
pub struct Flatten {
    input_shape: Vec<usize>,
    output_shape: Vec<usize>,
    pattern: OnceLock<Arc<SparsityPattern>>,
}

impl Flatten {
    /// Creates a flatten for inputs of the given shape.
    pub fn new(input_shape: impl Into<Vec<usize>>) -> Self {
        let input_shape = input_shape.into();
        let len: usize = input_shape.iter().product();
        Self {
            input_shape,
            output_shape: vec![len],
            pattern: OnceLock::new(),
        }
    }
}

impl<S: Scalar> Operator<S> for Flatten {
    fn name(&self) -> &str {
        "flatten"
    }

    fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    fn output_shape(&self) -> &[usize] {
        &self.output_shape
    }

    fn forward(&self, input: &Tensor<S>) -> Tensor<S> {
        check_input_shape("flatten", &self.input_shape, input);
        input.reshaped(self.output_shape.clone())
    }

    fn vjp(&self, _input: &Tensor<S>, _output: &Tensor<S>, grad_output: &Vector<S>) -> Vector<S> {
        grad_output.clone()
    }

    fn transposed_jacobian(&self, _input: &Tensor<S>, _output: &Tensor<S>) -> Csr<S> {
        let n = self.output_shape[0];
        Csr::from_pattern_and_values(cached_diagonal(&self.pattern, n), vec![S::ONE; n])
    }

    fn guaranteed_sparsity(&self) -> f64 {
        let n = self.output_shape[0];
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
    use crate::jacobian::check_operator_consistency;

    #[test]
    fn forward_is_reshape_only() {
        let f = Flatten::new(vec![2, 2, 2]);
        let x = Tensor::from_fn(vec![2, 2, 2], |i| i as f64);
        let y = f.forward(&x);
        assert_eq!(y.shape(), &[8]);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn jacobian_is_identity() {
        let f = Flatten::new(vec![3, 2]);
        let x = Tensor::zeros(vec![3, 2]);
        let y = f.forward(&x);
        let j: Csr<f64> = f.transposed_jacobian(&x, &y);
        assert_eq!(j, Csr::identity(6));
        let again: Csr<f64> = f.transposed_jacobian(&x, &y);
        assert!(Arc::ptr_eq(j.pattern_ref(), again.pattern_ref()));
    }

    #[test]
    fn consistency() {
        let f = Flatten::new(vec![2, 3]);
        let x = Tensor::from_fn(vec![2, 3], |i| (i as f64) * 0.5 - 1.0);
        check_operator_consistency(&f, &x, 0.0);
    }
}

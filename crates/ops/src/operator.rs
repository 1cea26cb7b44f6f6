//! The [`Operator`] abstraction: a differentiable layer `f_i` from the
//! paper's Equation 1, with three backward-facing capabilities:
//!
//! 1. `vjp` — the classic BP backward (what cuDNN's backward kernels and
//!    PyTorch Autograd compute): `∇x = (∂y/∂x)^T ∇y` without materializing
//!    the Jacobian. This is the baseline.
//! 2. `transposed_jacobian` — the analytic sparse transposed Jacobian in CSR
//!    (§3.4): what BPPSA feeds to the scan. The paper calls the collection of
//!    these routines "an equivalent of the cuDNN library [with] a sparse
//!    transposed Jacobian operator in place of a backward operator".
//! 3. `param_grad` — `∇θ = (∂y/∂θ)^T ∇y` (Equation 2), computed after the
//!    scan delivers all `∇x_i` (no sequential dependency).

use bppsa_sparse::Csr;
use bppsa_tensor::{Scalar, Tensor, Vector};

/// A differentiable operator (layer) `y = f(x; θ)`.
///
/// Implementors must keep `forward`, `vjp`, and `transposed_jacobian`
/// consistent: for every input, `vjp(x, y, g) == transposed_jacobian(x, y) · g`
/// up to floating-point rounding. The test suite enforces this with both
/// hand-written and property-based checks, plus finite-difference oracles.
pub trait Operator<S: Scalar>: Send + Sync {
    /// Human-readable operator name (e.g. `"conv2d"`).
    fn name(&self) -> &str;

    /// Shape of the expected input tensor.
    fn input_shape(&self) -> &[usize];

    /// Shape of the produced output tensor.
    fn output_shape(&self) -> &[usize];

    /// Flattened input length.
    fn input_len(&self) -> usize {
        self.input_shape().iter().product()
    }

    /// Flattened output length.
    fn output_len(&self) -> usize {
        self.output_shape().iter().product()
    }

    /// Computes `y = f(x; θ)`.
    ///
    /// # Panics
    ///
    /// Panics if `input.shape() != self.input_shape()`.
    fn forward(&self, input: &Tensor<S>) -> Tensor<S>;

    /// Vector–Jacobian product `(∂y/∂x)^T · grad_output` — classic BP.
    ///
    /// `output` must be the tensor produced by `forward(input)`; operators
    /// whose Jacobian depends only on the input (or only on parameters) may
    /// ignore it.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent with the operator.
    fn vjp(&self, input: &Tensor<S>, output: &Tensor<S>, grad_output: &Vector<S>) -> Vector<S>;

    /// The transposed Jacobian `(∂y/∂x)^T` as an `input_len × output_len`
    /// CSR matrix whose pattern is the operator's *guaranteed-nonzero*
    /// pattern (deterministic, input-independent; §3.3). Input-dependent
    /// ("possible") zeros are stored explicitly so the pattern never changes
    /// between iterations. A frozen pruning mask
    /// ([`Operator::freeze_pruning_mask`]) is part of the guaranteed
    /// pattern: masked weights are zero for good, so their entries are left
    /// out. Operators that can hand out the same pattern `Arc` on every
    /// call, so a scan plan built over one chain matches later chains by
    /// pointer.
    fn transposed_jacobian(&self, input: &Tensor<S>, output: &Tensor<S>) -> Csr<S>;

    /// Fraction of guaranteed zeros in the Jacobian (Table 1), computed
    /// exactly from the pattern size (frozen pruning mask included).
    fn guaranteed_sparsity(&self) -> f64;

    /// Number of trainable parameters (0 for stateless operators).
    fn param_len(&self) -> usize {
        0
    }

    /// Number of *leading* parameters that are weights eligible for
    /// magnitude pruning (§4.2 prunes "weights in all convolution and linear
    /// operators" but not biases). Defaults to 0 (nothing prunable).
    fn prunable_len(&self) -> usize {
        0
    }

    /// Flattened copy of the parameters.
    fn params(&self) -> Vec<S> {
        Vec::new()
    }

    /// Overwrites the parameters from a flattened slice. Weights masked by
    /// [`Operator::freeze_pruning_mask`] stay exactly zero whatever the
    /// slice holds.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != self.param_len()`.
    fn set_params(&mut self, params: &[S]) {
        assert!(
            params.is_empty(),
            "operator {} has no parameters",
            self.name()
        );
    }

    /// Freezes the currently-zero prunable weights as a pruning mask
    /// (§4.2): from then on [`Operator::set_params`] keeps them at exactly
    /// zero and [`Operator::transposed_jacobian`] leaves their entries out
    /// of its pattern. Freezing again re-reads the zeros, so a mask only
    /// grows. Defaults to a no-op (nothing prunable).
    fn freeze_pruning_mask(&mut self) {}

    /// Parameter gradient `∇θ = (∂y/∂θ)^T · grad_output` (Equation 2),
    /// flattened in the same order as [`Operator::params`].
    fn param_grad(
        &self,
        _input: &Tensor<S>,
        _output: &Tensor<S>,
        _grad_output: &Vector<S>,
    ) -> Vec<S> {
        Vec::new()
    }
}

/// Asserts the input tensor shape matches, with a readable panic message.
pub(crate) fn check_input_shape<S: Scalar>(op_name: &str, expected: &[usize], input: &Tensor<S>) {
    assert_eq!(
        input.shape(),
        expected,
        "{op_name}: input shape {:?} does not match expected {expected:?}",
        input.shape()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use bppsa_tensor::Matrix;

    /// A minimal operator (y = 2x) exercising the trait's defaults.
    struct Double {
        shape: Vec<usize>,
    }

    impl Operator<f64> for Double {
        fn name(&self) -> &str {
            "double"
        }
        fn input_shape(&self) -> &[usize] {
            &self.shape
        }
        fn output_shape(&self) -> &[usize] {
            &self.shape
        }
        fn forward(&self, input: &Tensor<f64>) -> Tensor<f64> {
            input.map(|v| 2.0 * v)
        }
        fn vjp(&self, _x: &Tensor<f64>, _y: &Tensor<f64>, g: &Vector<f64>) -> Vector<f64> {
            g.scaled(2.0)
        }
        fn transposed_jacobian(&self, _x: &Tensor<f64>, _y: &Tensor<f64>) -> Csr<f64> {
            Csr::from_dense(&Matrix::identity(self.input_len()).scaled(2.0))
        }
        fn guaranteed_sparsity(&self) -> f64 {
            let n = self.input_len() as f64;
            1.0 - 1.0 / n
        }
    }

    #[test]
    fn defaults_report_no_params() {
        let op = Double { shape: vec![2, 2] };
        assert_eq!(op.param_len(), 0);
        assert!(op.params().is_empty());
        assert!(op
            .param_grad(
                &Tensor::zeros(vec![2, 2]),
                &Tensor::zeros(vec![2, 2]),
                &Vector::zeros(4)
            )
            .is_empty());
    }

    #[test]
    fn vjp_matches_jacobian_product() {
        let op = Double { shape: vec![3] };
        let x = Tensor::from_vec(vec![3], vec![1.0, -2.0, 0.5]);
        let y = op.forward(&x);
        let g = Vector::from_vec(vec![1.0, 2.0, 3.0]);
        let via_vjp = op.vjp(&x, &y, &g);
        let via_jac = op.transposed_jacobian(&x, &y).spmv(&g);
        assert!(via_vjp.approx_eq(&via_jac, 1e-12));
    }

    #[test]
    #[should_panic(expected = "no parameters")]
    fn set_params_on_stateless_panics() {
        let mut op = Double { shape: vec![2] };
        op.set_params(&[1.0]);
    }

    #[test]
    fn operators_are_object_safe() {
        let op: Box<dyn Operator<f64>> = Box::new(Double { shape: vec![2] });
        assert_eq!(op.name(), "double");
        assert_eq!(op.input_len(), 2);
    }
}

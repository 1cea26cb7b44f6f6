//! The fully-connected (linear/dense) operator `y = W·x + b`.
//!
//! Its transposed Jacobian w.r.t. the input is simply `Wᵀ` — dense in
//! general. Freezing a pruning mask (§4.2,
//! [`Operator::freeze_pruning_mask`]) leaves the masked weights out of its
//! pattern, which is how the pruned-VGG experiment benefits.

use crate::mask::WeightMask;
use crate::operator::{check_input_shape, Operator};
use bppsa_sparse::{Csr, SparsityPattern};
use bppsa_tensor::{init, Matrix, Scalar, Tensor, Vector};
use rand::rngs::StdRng;

/// A dense affine layer `y = W·x + b` with `W ∈ R^{out×in}`.
///
/// # Examples
///
/// ```
/// use bppsa_ops::{Linear, Operator};
/// use bppsa_tensor::{Matrix, Tensor, Vector};
///
/// let layer = Linear::from_parts(
///     Matrix::from_rows(&[&[1.0_f64, 2.0], &[3.0, 4.0]]),
///     Vector::from_vec(vec![0.5, -0.5]),
/// );
/// let y = layer.forward(&Tensor::from_vec(vec![2], vec![1.0, 1.0]));
/// assert_eq!(y.as_slice(), &[3.5, 6.5]);
/// ```
#[derive(Debug, Clone)]
pub struct Linear<S> {
    weight: Matrix<S>,
    bias: Vector<S>,
    input_shape: Vec<usize>,
    output_shape: Vec<usize>,
    mask: WeightMask,
}

impl<S: Scalar> Linear<S> {
    /// Creates a layer with Kaiming-uniform weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut StdRng) -> Self {
        Self::from_parts(
            init::kaiming_matrix(rng, out_features, in_features),
            Vector::zeros(out_features),
        )
    }

    /// Creates a layer from an explicit weight matrix and bias vector.
    ///
    /// # Panics
    ///
    /// Panics if `weight.rows() != bias.len()`.
    pub fn from_parts(weight: Matrix<S>, bias: Vector<S>) -> Self {
        assert_eq!(
            weight.rows(),
            bias.len(),
            "linear: weight rows {} do not match bias length {}",
            weight.rows(),
            bias.len()
        );
        let (out_features, in_features) = weight.shape();
        Self {
            weight,
            bias,
            input_shape: vec![in_features],
            output_shape: vec![out_features],
            mask: WeightMask::default(),
        }
    }

    /// The weight matrix.
    pub fn weight(&self) -> &Matrix<S> {
        &self.weight
    }

    /// The bias vector.
    pub fn bias(&self) -> &Vector<S> {
        &self.bias
    }

    /// Number of structural non-zeros of the transposed Jacobian: one per
    /// unmasked weight.
    pub fn jacobian_nnz(&self) -> usize {
        (0..self.weight.numel())
            .filter(|&k| self.mask.keeps(k))
            .count()
    }

    /// `Wᵀ`'s pattern over the unmasked weights, with each entry's weight
    /// index: row `i` (input feature) holds column `j` (output feature)
    /// for every kept `W[j][i]`.
    fn jacobian_structure(&self) -> (SparsityPattern, Vec<u32>) {
        let (out_features, in_features) = self.weight.shape();
        let mut indptr = Vec::with_capacity(in_features + 1);
        let mut indices = Vec::with_capacity(self.jacobian_nnz());
        let mut gather = Vec::with_capacity(indices.capacity());
        indptr.push(0);
        for i in 0..in_features {
            for j in 0..out_features {
                let k = j * in_features + i;
                if self.mask.keeps(k) {
                    indices.push(j as u32);
                    gather.push(k as u32);
                }
            }
            indptr.push(indices.len());
        }
        (
            SparsityPattern::new(in_features, out_features, indptr, indices),
            gather,
        )
    }
}

impl<S: Scalar> Operator<S> for Linear<S> {
    fn name(&self) -> &str {
        "linear"
    }

    fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    fn output_shape(&self) -> &[usize] {
        &self.output_shape
    }

    fn forward(&self, input: &Tensor<S>) -> Tensor<S> {
        check_input_shape("linear", &self.input_shape, input);
        let x = input.to_vector();
        let y = self.weight.matvec(&x).add(&self.bias);
        Tensor::from_vector(&y)
    }

    fn vjp(&self, _input: &Tensor<S>, _output: &Tensor<S>, grad_output: &Vector<S>) -> Vector<S> {
        self.weight.matvec_transposed(grad_output)
    }

    fn transposed_jacobian(&self, _input: &Tensor<S>, _output: &Tensor<S>) -> Csr<S> {
        // Wᵀ over every unmasked weight: any of them may be nonzero, so
        // zero-valued ones stay stored; a frozen mask's weights are
        // guaranteed zero and left out.
        self.mask
            .transposed_jacobian(self.weight.as_slice(), || self.jacobian_structure())
    }

    fn guaranteed_sparsity(&self) -> f64 {
        let total = self.weight.numel();
        if total == 0 {
            return 0.0;
        }
        1.0 - self.jacobian_nnz() as f64 / total as f64
    }

    fn param_len(&self) -> usize {
        self.weight.numel() + self.bias.len()
    }

    fn prunable_len(&self) -> usize {
        self.weight.numel()
    }

    fn params(&self) -> Vec<S> {
        let mut p = self.weight.as_slice().to_vec();
        p.extend_from_slice(self.bias.as_slice());
        p
    }

    fn set_params(&mut self, params: &[S]) {
        let wlen = self.weight.numel();
        assert_eq!(
            params.len(),
            wlen + self.bias.len(),
            "linear: wrong parameter count"
        );
        self.weight.as_mut_slice().copy_from_slice(&params[..wlen]);
        self.mask.apply(self.weight.as_mut_slice());
        self.bias.as_mut_slice().copy_from_slice(&params[wlen..]);
    }

    fn freeze_pruning_mask(&mut self) {
        self.mask.freeze(self.weight.as_slice());
    }

    fn param_grad(
        &self,
        input: &Tensor<S>,
        _output: &Tensor<S>,
        grad_output: &Vector<S>,
    ) -> Vec<S> {
        // ∇W = g ⊗ x, ∇b = g (Equation 2 for the affine map).
        let x = input.to_vector();
        let gw = grad_output.outer(&x);
        let mut grads = gw.into_vec();
        grads.extend_from_slice(grad_output.as_slice());
        grads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jacobian::{
        check_operator_consistency, numerical_param_gradient, numerical_transposed_jacobian,
    };
    use bppsa_tensor::init::seeded_rng;

    fn layer() -> Linear<f64> {
        Linear::from_parts(
            Matrix::from_rows(&[&[1.0, -2.0, 0.5], &[0.0, 3.0, 1.0]]),
            Vector::from_vec(vec![0.1, -0.2]),
        )
    }

    #[test]
    fn forward_matches_manual() {
        let y = layer().forward(&Tensor::from_vec(vec![3], vec![1.0, 1.0, 2.0]));
        assert!((y.at(&[0]) - 0.1).abs() < 1e-12);
        assert!((y.at(&[1]) - 4.8).abs() < 1e-12);
    }

    #[test]
    fn transposed_jacobian_is_weight_transpose() {
        let l = layer();
        let x = Tensor::zeros(vec![3]);
        let y = l.forward(&x);
        let j = l.transposed_jacobian(&x, &y);
        assert!(j.to_dense().approx_eq(&l.weight().transposed(), 0.0));
        // Full pattern kept, including the structural position of the 0.0.
        assert_eq!(j.nnz(), 6);
    }

    #[test]
    fn jacobian_matches_finite_differences() {
        let l = layer();
        let x = Tensor::from_vec(vec![3], vec![0.3, -0.6, 0.9]);
        let y = l.forward(&x);
        let analytic = l.transposed_jacobian(&x, &y).to_dense();
        let numeric = numerical_transposed_jacobian(&l, &x, 1e-6);
        assert!(analytic.approx_eq(&numeric, 1e-6));
    }

    #[test]
    fn consistency_vjp_vs_jacobian() {
        let l = layer();
        let x = Tensor::from_vec(vec![3], vec![1.0, 2.0, 3.0]);
        check_operator_consistency(&l, &x, 1e-12);
    }

    #[test]
    fn param_roundtrip() {
        let mut rng = seeded_rng(1);
        let mut l = Linear::<f32>::new(4, 3, &mut rng);
        let p = Operator::<f32>::params(&l);
        assert_eq!(p.len(), Operator::<f32>::param_len(&l));
        let doubled: Vec<f32> = p.iter().map(|v| v * 2.0).collect();
        l.set_params(&doubled);
        assert_eq!(Operator::<f32>::params(&l), doubled);
    }

    #[test]
    fn param_grad_matches_finite_differences() {
        let l = layer();
        let x = Tensor::from_vec(vec![3], vec![0.5, -1.0, 2.0]);
        let g = Vector::from_vec(vec![1.0, -0.5]);
        let analytic = l.param_grad(&x, &l.forward(&x), &g);
        let numeric = numerical_param_gradient(&l, &x, &g, 1e-6);
        for (a, n) in analytic.iter().zip(&numeric) {
            assert!((a - n).abs() < 1e-5, "param grad mismatch: {a} vs {n}");
        }
    }

    #[test]
    fn frozen_mask_leaves_the_pattern_and_survives_set_params() {
        let mut l = layer();
        // W[1][0] is already 0.0; zero W[0][2] too, then freeze both.
        let mut p = Operator::<f64>::params(&l);
        p[2] = 0.0;
        l.set_params(&p);
        let unfrozen = l.clone();
        l.freeze_pruning_mask();
        let x = Tensor::from_vec(vec![3], vec![0.3, -0.6, 0.9]);
        let y = l.forward(&x);
        let j = l.transposed_jacobian(&x, &y);
        assert_eq!(j, unfrozen.transposed_jacobian(&x, &y).pruned());
        assert_eq!((j.nnz(), l.jacobian_nnz()), (4, 4));
        assert_eq!(Operator::<f64>::guaranteed_sparsity(&l), 1.0 - 4.0 / 6.0);
        // Every weight written; the masked two stay zero, the pattern stays.
        l.set_params(&[1.0; 8]);
        assert_eq!(l.weight().as_slice(), &[1.0, 1.0, 0.0, 0.0, 1.0, 1.0]);
        let j2 = l.transposed_jacobian(&x, &y);
        assert!(std::sync::Arc::ptr_eq(j.pattern_ref(), j2.pattern_ref()));
        check_operator_consistency(&l, &x, 1e-12);
    }

    #[test]
    #[should_panic(expected = "weight rows")]
    fn mismatched_bias_panics() {
        let _ = Linear::from_parts(Matrix::<f64>::zeros(2, 2), Vector::zeros(3));
    }
}

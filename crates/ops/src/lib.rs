//! # bppsa-ops — NN operators with analytic sparse transposed Jacobians
//!
//! The operator library of the BPPSA reproduction: forward passes, classic
//! VJP backward passes (the PyTorch-Autograd/cuDNN baseline), and — the
//! paper's §3.4 contribution — **analytic generation of each operator's
//! transposed Jacobian directly in CSR form**, generalizing Algorithms 2–4
//! beyond the 3×3/padding-1 convolution they present.
//!
//! The paper frames this as what a BPPSA-native framework would need:
//! "an equivalent of the cuDNN library which possesses a *sparse transposed
//! Jacobian operator* in place of a backward operator for each forward
//! operator". The [`Operator`] trait is that interface.
//!
//! Operators provided: [`Conv2d`], [`Linear`], [`Relu`], [`Tanh`],
//! [`MaxPool2d`], [`AvgPool2d`], [`Flatten`]; losses: [`SoftmaxCrossEntropy`]
//! and [`MseLoss`]; plus the Table 1 baseline and oracles in [`jacobian`].
//!
//! ## Example: Table 1 in four lines
//!
//! ```
//! use bppsa_ops::{Conv2d, Conv2dConfig, Operator};
//! use bppsa_tensor::init::seeded_rng;
//!
//! let conv = Conv2d::<f32>::new(Conv2dConfig::vgg_style(3, 64, (32, 32)), &mut seeded_rng(0));
//! // The first VGG-11 convolution's Jacobian is 99.157% guaranteed zeros.
//! assert!((conv.guaranteed_sparsity() - 0.99157).abs() < 5e-5);
//! ```

#![warn(missing_docs)]

mod avgpool;
mod conv2d;
mod flatten;
mod geometry;
mod linear;
mod loss;
mod mask;
mod maxpool;
mod operator;
mod relu;
mod sigmoid;
mod tanh;

pub mod jacobian;

pub use avgpool::AvgPool2d;
pub use conv2d::{Conv2d, Conv2dConfig};
pub use flatten::Flatten;
pub use linear::Linear;
pub use loss::{MseLoss, SoftmaxCrossEntropy};
pub use maxpool::MaxPool2d;
pub use operator::Operator;
pub use relu::Relu;
pub use sigmoid::Sigmoid;
pub use tanh::Tanh;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operator_trait_objects_compose() {
        let ops: Vec<Box<dyn Operator<f32>>> = vec![
            Box::new(Relu::new(vec![4])),
            Box::new(Tanh::new(vec![4])),
            Box::new(Flatten::new(vec![4])),
        ];
        for op in &ops {
            assert_eq!(op.input_len(), 4);
            assert_eq!(op.output_len(), 4);
        }
    }
}

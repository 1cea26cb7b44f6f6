//! # bppsa-models — models, datasets, optimizers, pruning, training
//!
//! Everything the BPPSA evaluation (§4–5) trains:
//!
//! * [`VanillaRnn`] — the Elman RNN of Equation 9 with both BPTT and BPPSA
//!   backward paths (Figures 9/10's workload);
//! * [`DiagonalSsm`] — a diagonal linear-recurrence (SSM) toy whose scan
//!   chain the planner compiles into the elementwise diagonal fast path;
//! * [`lenet5`] — LeNet-5 for the Figure 7 convergence experiment;
//! * [`vgg11`] / [`vgg11_convs`] — VGG-11 for Table 1 and the §4.2 pruned
//!   retraining micro-benchmark (Figure 11);
//! * [`BitstreamDataset`] — the Equation 8 synthetic task;
//! * [`SyntheticCifar`] — the documented CIFAR-10 substitution;
//! * [`Sgd`] / [`Adam`] — the paper's optimizers;
//! * [`prune`] — See et al.-style magnitude pruning (97% in §4.2);
//! * [`train`] — training loops with switchable backward methods and
//!   per-iteration wall-clock/loss logging.
//!
//! ```
//! use bppsa_models::{BitstreamDataset, VanillaRnn};
//! use bppsa_core::BppsaOptions;
//! use bppsa_tensor::init::seeded_rng;
//!
//! let data = BitstreamDataset::<f64>::generate(4, 32, 0);
//! let rnn = VanillaRnn::<f64>::new(1, 20, 10, &mut seeded_rng(1));
//! let s = data.sample(0);
//! let states = rnn.forward(&s.bits);
//! let (_, seed, g_logits) = rnn.loss_and_seed(&states, s.label);
//! let bptt = rnn.backward_bptt(&s.bits, &states, &seed, &g_logits);
//! let scan = rnn.backward_bppsa(&s.bits, &states, &seed, &g_logits, BppsaOptions::serial());
//! assert!(bptt.max_abs_diff(&scan) < 1e-9);
//! ```

#![warn(missing_docs)]

mod datasets;
mod gru;
mod lenet;
mod optim;
mod pooled;
mod rnn;
mod served;
mod ssm;
mod vgg;

pub mod prune;
pub mod train;

pub use datasets::{BitstreamDataset, BitstreamSample, ImageSample, SyntheticCifar};
pub use gru::{Gru, GruStep};
pub use lenet::{lenet5, lenet_tiny};
pub use optim::{Adam, Optimizer, Sgd};
pub use pooled::PooledChainSet;
pub use rnn::{RnnBatchSample, RnnGrads, RnnStates, VanillaRnn};
pub use served::{ServedChainSet, ServedSubmitError};
pub use ssm::{DiagonalSsm, SsmBatchSample, SsmGrads, SsmStates};
pub use train::RecurrentTrainState;
pub use vgg::{vgg11, vgg11_conv_geometry, vgg11_convs, VGG11_WIDTHS};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<VanillaRnn<f32>>();
        assert_send::<BitstreamDataset<f32>>();
        assert_send::<SyntheticCifar<f32>>();
    }
}

//! The 2-D convolution operator and its analytic sparse transposed Jacobian.
//!
//! This generalizes the paper's Algorithms 2–4 (which are specialized to a
//! 3×3 kernel with padding 1) to arbitrary kernel size, stride, and padding:
//! the footnote under Algorithm 2 notes "deriving a generic routine is
//! doable" — this module is that routine. Rows of `(∂y/∂x)ᵀ` are emitted
//! directly in sorted column order (output channel-major, then output row,
//! then output column), so no post-sort is needed.
//!
//! The Jacobian's values depend **only on the filter weights** (Algorithm 4's
//! key property): every stored entry is one weight. So the pattern and a
//! weight-gather map are built once per layer and each call is one gather,
//! and a pruned layer shrinks it (§4.2): [`Operator::freeze_pruning_mask`]
//! freezes the zeroed weights as a mask, and the pattern then leaves out
//! every entry a masked weight would fill.

use crate::geometry::receptive_range;
use crate::mask::WeightMask;
use crate::operator::{check_input_shape, Operator};
use bppsa_sparse::{Csr, SparsityPattern};
use bppsa_tensor::{init, Scalar, Tensor, Vector};
use rand::rngs::StdRng;

/// Geometry of a [`Conv2d`] operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dConfig {
    /// Input channels `c_i`.
    pub in_channels: usize,
    /// Output channels `c_o`.
    pub out_channels: usize,
    /// Kernel height/width `(h_f, w_f)`.
    pub kernel: (usize, usize),
    /// Stride `(s_h, s_w)`.
    pub stride: (usize, usize),
    /// Zero padding `(p_h, p_w)`.
    pub padding: (usize, usize),
    /// Input spatial size `(h_i, w_i)`.
    pub input_hw: (usize, usize),
}

impl Conv2dConfig {
    /// A `3×3`, stride-1, padding-1 convolution — the configuration of the
    /// paper's Algorithms 2–4 and of every VGG-11 convolution.
    pub fn vgg_style(in_channels: usize, out_channels: usize, input_hw: (usize, usize)) -> Self {
        Self {
            in_channels,
            out_channels,
            kernel: (3, 3),
            stride: (1, 1),
            padding: (1, 1),
            input_hw,
        }
    }

    /// Output spatial size `(h_o, w_o)`.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit in the padded input.
    pub fn output_hw(&self) -> (usize, usize) {
        let (hi, wi) = self.input_hw;
        let (kh, kw) = self.kernel;
        let (sh, sw) = self.stride;
        let (ph, pw) = self.padding;
        assert!(
            hi + 2 * ph >= kh && wi + 2 * pw >= kw,
            "conv2d: kernel {:?} larger than padded input ({}, {})",
            self.kernel,
            hi + 2 * ph,
            wi + 2 * pw
        );
        ((hi + 2 * ph - kh) / sh + 1, (wi + 2 * pw - kw) / sw + 1)
    }
}

/// A 2-D convolution layer over `(c, h, w)` tensors (single sample,
/// channels-first).
///
/// # Examples
///
/// ```
/// use bppsa_ops::{Conv2d, Conv2dConfig, Operator};
/// use bppsa_tensor::init::seeded_rng;
///
/// let cfg = Conv2dConfig::vgg_style(3, 8, (8, 8));
/// let conv = Conv2d::<f32>::new(cfg, &mut seeded_rng(0));
/// assert_eq!(conv.output_shape(), &[8, 8, 8]);
/// // Table 1: the Jacobian is overwhelmingly guaranteed-zero.
/// assert!(conv.guaranteed_sparsity() > 0.8);
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d<S> {
    cfg: Conv2dConfig,
    /// Weights `(c_o, c_i, k_h, k_w)`.
    weight: Tensor<S>,
    bias: Vector<S>,
    input_shape: Vec<usize>,
    output_shape: Vec<usize>,
    mask: WeightMask,
}

impl<S: Scalar> Conv2d<S> {
    /// Creates a layer with Kaiming-uniform weights and zero bias.
    pub fn new(cfg: Conv2dConfig, rng: &mut StdRng) -> Self {
        let (kh, kw) = cfg.kernel;
        let fan_in = cfg.in_channels * kh * kw;
        let weight = init::uniform_tensor(
            rng,
            vec![cfg.out_channels, cfg.in_channels, kh, kw],
            init::kaiming_bound(fan_in),
        );
        Self::from_parts(cfg, weight, Vector::zeros(cfg.out_channels))
    }

    /// Creates a layer from explicit weights and bias.
    ///
    /// # Panics
    ///
    /// Panics if `weight.shape() != (c_o, c_i, k_h, k_w)` or
    /// `bias.len() != c_o`.
    pub fn from_parts(cfg: Conv2dConfig, weight: Tensor<S>, bias: Vector<S>) -> Self {
        let (kh, kw) = cfg.kernel;
        assert_eq!(
            weight.shape(),
            &[cfg.out_channels, cfg.in_channels, kh, kw],
            "conv2d: bad weight shape"
        );
        assert_eq!(bias.len(), cfg.out_channels, "conv2d: bad bias length");
        let (hi, wi) = cfg.input_hw;
        let (ho, wo) = cfg.output_hw();
        Self {
            cfg,
            weight,
            bias,
            input_shape: vec![cfg.in_channels, hi, wi],
            output_shape: vec![cfg.out_channels, ho, wo],
            mask: WeightMask::default(),
        }
    }

    /// The layer geometry.
    pub fn config(&self) -> &Conv2dConfig {
        &self.cfg
    }

    /// The weight tensor `(c_o, c_i, k_h, k_w)`.
    pub fn weight(&self) -> &Tensor<S> {
        &self.weight
    }

    /// The bias vector.
    pub fn bias(&self) -> &Vector<S> {
        &self.bias
    }

    /// Number of structural non-zeros of the transposed Jacobian, computed
    /// in closed form: each unmasked filter tap `(c, ic, k_y, k_x)` fills
    /// one entry per output position it reaches, `reach_y(k_y) ·
    /// reach_x(k_x)` of them. Without a frozen mask this is
    /// `c_i · c_o · (Σ reach_y) · (Σ reach_x)`.
    pub fn jacobian_nnz(&self) -> usize {
        let (hi, wi) = self.cfg.input_hw;
        let (ho, wo) = self.cfg.output_hw();
        let (kh, kw) = self.cfg.kernel;
        let (sh, sw) = self.cfg.stride;
        let (ph, pw) = self.cfg.padding;
        // Output positions `o` whose tap `k` lands inside the input.
        let reach = |k: usize, s: usize, p: usize, input: usize, out: usize| {
            (0..out)
                .filter(|&o| (p..p + input).contains(&(o * s + k)))
                .count()
        };
        let reach_y: Vec<usize> = (0..kh).map(|ky| reach(ky, sh, ph, hi, ho)).collect();
        let reach_x: Vec<usize> = (0..kw).map(|kx| reach(kx, sw, pw, wi, wo)).collect();
        (0..self.weight.numel())
            .filter(|&k| self.mask.keeps(k))
            .map(|k| reach_y[(k / kw) % kh] * reach_x[k % kw])
            .sum()
    }

    /// The transposed Jacobian's pattern over the unmasked weights,
    /// with each entry's weight index (the generalization of Algorithms
    /// 2–4). Rows are emitted in ascending column order: output
    /// channel-major, then output row, then output column.
    #[allow(clippy::needless_range_loop)] // iy/ix also feed the ky/kx arithmetic
    fn jacobian_structure(&self) -> (SparsityPattern, Vec<u32>) {
        let (ci, co) = (self.cfg.in_channels, self.cfg.out_channels);
        let (hi, wi) = self.cfg.input_hw;
        let (ho, wo) = self.cfg.output_hw();
        let (kh, kw) = self.cfg.kernel;
        let (sh, sw) = self.cfg.stride;
        let (ph, pw) = self.cfg.padding;

        let cnt_y: Vec<(usize, usize)> = (0..hi)
            .map(|iy| receptive_range(iy, ph, kh, sh, ho))
            .collect();
        let cnt_x: Vec<(usize, usize)> = (0..wi)
            .map(|ix| receptive_range(ix, pw, kw, sw, wo))
            .collect();

        let rows = ci * hi * wi;
        let nnz = self.jacobian_nnz();
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::with_capacity(nnz);
        let mut gather = Vec::with_capacity(nnz);
        indptr.push(0);
        for ic in 0..ci {
            for iy in 0..hi {
                let (oy_lo, oy_hi) = cnt_y[iy];
                for ix in 0..wi {
                    let (ox_lo, ox_hi) = cnt_x[ix];
                    for c in 0..co {
                        let mut oy = oy_lo;
                        while oy <= oy_hi && oy_lo <= oy_hi {
                            let ky = iy + ph - oy * sh;
                            let mut ox = ox_lo;
                            while ox <= ox_hi && ox_lo <= ox_hi {
                                let kx = ix + pw - ox * sw;
                                let k = ((c * ci + ic) * kh + ky) * kw + kx;
                                if self.mask.keeps(k) {
                                    indices.push(((c * ho + oy) * wo + ox) as u32);
                                    gather.push(k as u32);
                                }
                                ox += 1;
                            }
                            oy += 1;
                        }
                    }
                    indptr.push(indices.len());
                }
            }
        }
        (
            SparsityPattern::new(rows, co * ho * wo, indptr, indices),
            gather,
        )
    }

    /// The paper's Table 1 closed-form sparsity *approximation*
    /// `1 − h_f·w_f / (h_i·w_i)` (exact value comes from
    /// [`Operator::guaranteed_sparsity`]).
    pub fn paper_sparsity_estimate(&self) -> f64 {
        let (hi, wi) = self.cfg.input_hw;
        let (kh, kw) = self.cfg.kernel;
        1.0 - (kh * kw) as f64 / (hi * wi) as f64
    }
}

impl<S: Scalar> Operator<S> for Conv2d<S> {
    fn name(&self) -> &str {
        "conv2d"
    }

    fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    fn output_shape(&self) -> &[usize] {
        &self.output_shape
    }

    fn forward(&self, input: &Tensor<S>) -> Tensor<S> {
        check_input_shape("conv2d", &self.input_shape, input);
        let (ci, co) = (self.cfg.in_channels, self.cfg.out_channels);
        let (hi, wi) = self.cfg.input_hw;
        let (ho, wo) = self.cfg.output_hw();
        let (kh, kw) = self.cfg.kernel;
        let (sh, sw) = self.cfg.stride;
        let (ph, pw) = self.cfg.padding;

        let mut out = Tensor::zeros(vec![co, ho, wo]);
        let x = input.as_slice();
        let w = self.weight.as_slice();
        let o = out.as_mut_slice();
        for c in 0..co {
            for oy in 0..ho {
                for ox in 0..wo {
                    let mut acc = self.bias[c];
                    for ic in 0..ci {
                        for ky in 0..kh {
                            let iy = (oy * sh + ky) as i64 - ph as i64;
                            if iy < 0 || iy >= hi as i64 {
                                continue;
                            }
                            for kx in 0..kw {
                                let ix = (ox * sw + kx) as i64 - pw as i64;
                                if ix < 0 || ix >= wi as i64 {
                                    continue;
                                }
                                let wv = w[((c * ci + ic) * kh + ky) * kw + kx];
                                let xv = x[(ic * hi + iy as usize) * wi + ix as usize];
                                acc += wv * xv;
                            }
                        }
                    }
                    o[(c * ho + oy) * wo + ox] = acc;
                }
            }
        }
        out
    }

    fn vjp(&self, input: &Tensor<S>, _output: &Tensor<S>, grad_output: &Vector<S>) -> Vector<S> {
        check_input_shape("conv2d", &self.input_shape, input);
        let (ci, co) = (self.cfg.in_channels, self.cfg.out_channels);
        let (hi, wi) = self.cfg.input_hw;
        let (ho, wo) = self.cfg.output_hw();
        let (kh, kw) = self.cfg.kernel;
        let (sh, sw) = self.cfg.stride;
        let (ph, pw) = self.cfg.padding;

        let mut gx = Vector::zeros(ci * hi * wi);
        let g = grad_output.as_slice();
        let w = self.weight.as_slice();
        let gxs = gx.as_mut_slice();
        for c in 0..co {
            for oy in 0..ho {
                for ox in 0..wo {
                    let gv = g[(c * ho + oy) * wo + ox];
                    if gv == S::ZERO {
                        continue;
                    }
                    for ic in 0..ci {
                        for ky in 0..kh {
                            let iy = (oy * sh + ky) as i64 - ph as i64;
                            if iy < 0 || iy >= hi as i64 {
                                continue;
                            }
                            for kx in 0..kw {
                                let ix = (ox * sw + kx) as i64 - pw as i64;
                                if ix < 0 || ix >= wi as i64 {
                                    continue;
                                }
                                let wv = w[((c * ci + ic) * kh + ky) * kw + kx];
                                gxs[(ic * hi + iy as usize) * wi + ix as usize] += wv * gv;
                            }
                        }
                    }
                }
            }
        }
        gx
    }

    fn transposed_jacobian(&self, input: &Tensor<S>, _output: &Tensor<S>) -> Csr<S> {
        check_input_shape("conv2d", &self.input_shape, input);
        self.mask
            .transposed_jacobian(self.weight.as_slice(), || self.jacobian_structure())
    }

    fn guaranteed_sparsity(&self) -> f64 {
        let total = (self.input_len() as f64) * (self.output_len() as f64);
        if total == 0.0 {
            return 0.0;
        }
        1.0 - self.jacobian_nnz() as f64 / total
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
            "conv2d: wrong parameter count"
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
        let (ci, co) = (self.cfg.in_channels, self.cfg.out_channels);
        let (hi, wi) = self.cfg.input_hw;
        let (ho, wo) = self.cfg.output_hw();
        let (kh, kw) = self.cfg.kernel;
        let (sh, sw) = self.cfg.stride;
        let (ph, pw) = self.cfg.padding;

        let mut gw = vec![S::ZERO; co * ci * kh * kw];
        let mut gb = vec![S::ZERO; co];
        let x = input.as_slice();
        let g = grad_output.as_slice();
        for c in 0..co {
            for oy in 0..ho {
                for ox in 0..wo {
                    let gv = g[(c * ho + oy) * wo + ox];
                    if gv == S::ZERO {
                        continue;
                    }
                    gb[c] += gv;
                    for ic in 0..ci {
                        for ky in 0..kh {
                            let iy = (oy * sh + ky) as i64 - ph as i64;
                            if iy < 0 || iy >= hi as i64 {
                                continue;
                            }
                            for kx in 0..kw {
                                let ix = (ox * sw + kx) as i64 - pw as i64;
                                if ix < 0 || ix >= wi as i64 {
                                    continue;
                                }
                                gw[((c * ci + ic) * kh + ky) * kw + kx] +=
                                    gv * x[(ic * hi + iy as usize) * wi + ix as usize];
                            }
                        }
                    }
                }
            }
        }
        gw.extend_from_slice(&gb);
        gw
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jacobian::{
        check_operator_consistency, numerical_param_gradient, numerical_transposed_jacobian,
        transposed_jacobian_via_vjp,
    };
    use bppsa_tensor::init::seeded_rng;
    use std::sync::Arc;

    fn small_conv(cfg: Conv2dConfig, seed: u64) -> Conv2d<f64> {
        Conv2d::new(cfg, &mut seeded_rng(seed))
    }

    fn random_input(conv: &Conv2d<f64>, seed: u64) -> Tensor<f64> {
        init::uniform_tensor(&mut seeded_rng(seed), conv.input_shape().to_vec(), 1.0)
    }

    #[test]
    fn output_shape_formulas() {
        let cfg = Conv2dConfig {
            in_channels: 3,
            out_channels: 8,
            kernel: (3, 3),
            stride: (2, 2),
            padding: (1, 1),
            input_hw: (9, 9),
        };
        assert_eq!(cfg.output_hw(), (5, 5));
        let vgg = Conv2dConfig::vgg_style(3, 64, (32, 32));
        assert_eq!(vgg.output_hw(), (32, 32));
    }

    #[test]
    fn forward_known_values_identity_kernel() {
        // 1x1 kernel with weight 1: output == input.
        let cfg = Conv2dConfig {
            in_channels: 1,
            out_channels: 1,
            kernel: (1, 1),
            stride: (1, 1),
            padding: (0, 0),
            input_hw: (3, 3),
        };
        let conv = Conv2d::from_parts(
            cfg,
            Tensor::from_vec(vec![1, 1, 1, 1], vec![1.0f64]),
            Vector::zeros(1),
        );
        let x = Tensor::from_fn(vec![1, 3, 3], |i| i as f64);
        assert_eq!(conv.forward(&x).as_slice(), x.as_slice());
    }

    #[test]
    fn forward_sum_kernel_counts_neighbors() {
        // 3x3 all-ones kernel, pad 1: each output = sum of 3x3 neighborhood.
        let cfg = Conv2dConfig::vgg_style(1, 1, (3, 3));
        let conv = Conv2d::from_parts(
            cfg,
            Tensor::from_vec(vec![1, 1, 3, 3], vec![1.0f64; 9]),
            Vector::zeros(1),
        );
        let x = Tensor::from_vec(vec![1, 3, 3], vec![1.0f64; 9]);
        let y = conv.forward(&x);
        // Center sees 9 ones, edges 6, corners 4.
        assert_eq!(y.at(&[0, 1, 1]), 9.0);
        assert_eq!(y.at(&[0, 0, 1]), 6.0);
        assert_eq!(y.at(&[0, 0, 0]), 4.0);
    }

    #[test]
    fn jacobian_matches_vjp_columns_various_geometries() {
        let geometries = [
            Conv2dConfig::vgg_style(2, 3, (5, 4)),
            Conv2dConfig {
                in_channels: 1,
                out_channels: 2,
                kernel: (2, 2),
                stride: (2, 2),
                padding: (0, 0),
                input_hw: (4, 4),
            },
            Conv2dConfig {
                in_channels: 2,
                out_channels: 2,
                kernel: (3, 2),
                stride: (2, 1),
                padding: (1, 0),
                input_hw: (5, 5),
            },
            Conv2dConfig {
                in_channels: 1,
                out_channels: 1,
                kernel: (5, 5),
                stride: (1, 1),
                padding: (2, 2),
                input_hw: (6, 6),
            },
        ];
        for (i, cfg) in geometries.into_iter().enumerate() {
            let conv = small_conv(cfg, 100 + i as u64);
            let x = random_input(&conv, 200 + i as u64);
            let y = conv.forward(&x);
            let analytic = conv.transposed_jacobian(&x, &y);
            assert_eq!(analytic.validate(), Ok(()), "geometry {i}");
            let oracle = transposed_jacobian_via_vjp(&conv, &x, &y);
            let diff = analytic.to_dense().max_abs_diff(&oracle);
            assert!(diff < 1e-12, "geometry {i}: diff {diff}");
        }
    }

    #[test]
    fn jacobian_matches_finite_differences() {
        let conv = small_conv(Conv2dConfig::vgg_style(1, 2, (4, 4)), 7);
        let x = random_input(&conv, 8);
        let numeric = numerical_transposed_jacobian(&conv, &x, 1e-6);
        let analytic = conv.transposed_jacobian(&x, &conv.forward(&x)).to_dense();
        assert!(
            analytic.approx_eq(&numeric, 1e-6),
            "diff {}",
            analytic.max_abs_diff(&numeric)
        );
    }

    #[test]
    fn consistency_full_check() {
        let conv = small_conv(Conv2dConfig::vgg_style(2, 2, (4, 5)), 3);
        let x = random_input(&conv, 4);
        check_operator_consistency(&conv, &x, 1e-12);
    }

    #[test]
    fn nnz_closed_form_matches_generated() {
        for cfg in [
            Conv2dConfig::vgg_style(2, 3, (6, 5)),
            Conv2dConfig {
                in_channels: 1,
                out_channels: 2,
                kernel: (2, 3),
                stride: (2, 2),
                padding: (0, 1),
                input_hw: (5, 6),
            },
        ] {
            let conv = small_conv(cfg, 11);
            let x = random_input(&conv, 12);
            let j = conv.transposed_jacobian(&x, &conv.forward(&x));
            assert_eq!(conv.jacobian_nnz(), j.nnz());
        }
    }

    #[test]
    fn table1_first_vgg_conv_sparsity() {
        // Table 1 example: first VGG-11 conv on 32×32 images → 0.99157.
        let conv: Conv2d<f32> =
            Conv2d::new(Conv2dConfig::vgg_style(3, 64, (32, 32)), &mut seeded_rng(0));
        let s = conv.guaranteed_sparsity();
        assert!(
            (s - 0.99157).abs() < 5e-5,
            "sparsity {s} does not match Table 1's 0.99157"
        );
        // The closed-form estimate 1 − 9/1024 is close but not exact.
        assert!((conv.paper_sparsity_estimate() - (1.0 - 9.0 / 1024.0)).abs() < 1e-12);
    }

    #[test]
    fn jacobian_values_depend_only_on_weights() {
        // §4.2: values come from Algorithm 4 = filter weights only.
        let conv = small_conv(Conv2dConfig::vgg_style(1, 2, (4, 4)), 21);
        let x1 = random_input(&conv, 22);
        let x2 = random_input(&conv, 23);
        let j1 = conv.transposed_jacobian(&x1, &conv.forward(&x1));
        let j2 = conv.transposed_jacobian(&x2, &conv.forward(&x2));
        assert_eq!(j1, j2);
    }

    /// Zeroes every `step`-th weight through `set_params`.
    fn zero_every(conv: &mut Conv2d<f64>, step: usize) {
        let mut p = conv.params();
        for v in p[..conv.prunable_len()].iter_mut().step_by(step) {
            *v = 0.0;
        }
        conv.set_params(&p);
    }

    #[test]
    fn pruned_weights_shrink_jacobian() {
        let mut conv = small_conv(Conv2dConfig::vgg_style(2, 2, (5, 5)), 31);
        let x = random_input(&conv, 32);
        let before = conv.transposed_jacobian(&x, &conv.forward(&x));
        zero_every(&mut conv, 2);
        // Zeroed but not frozen: same guaranteed pattern, explicit zeros.
        let zeroed = conv.transposed_jacobian(&x, &conv.forward(&x));
        assert!(Arc::ptr_eq(zeroed.pattern_ref(), before.pattern_ref()));
        assert!(zeroed.pruned().nnz() < before.nnz());
        // Frozen: the zeros leave the pattern.
        conv.freeze_pruning_mask();
        let frozen = conv.transposed_jacobian(&x, &conv.forward(&x));
        assert!(frozen.nnz() < before.nnz());
        assert!(!frozen.same_pattern(&before));
    }

    #[test]
    fn direct_pruned_generation_matches_prune_after() {
        // The frozen layer's Jacobian is the un-frozen layer's with its
        // zeros dropped, and the closed forms report the masked pattern.
        let mut conv = small_conv(Conv2dConfig::vgg_style(2, 3, (6, 5)), 51);
        zero_every(&mut conv, 3);
        let unfrozen = conv.clone();
        conv.freeze_pruning_mask();
        let x = random_input(&conv, 52);
        let y = conv.forward(&x);
        let frozen = conv.transposed_jacobian(&x, &y);
        assert_eq!(frozen.validate(), Ok(()));
        assert_eq!(frozen, unfrozen.transposed_jacobian(&x, &y).pruned());
        assert_eq!(frozen.nnz(), conv.jacobian_nnz());
        assert!(conv.jacobian_nnz() < unfrozen.jacobian_nnz());
        let total = (conv.input_len() * Operator::<f64>::output_len(&conv)) as f64;
        assert_eq!(
            conv.guaranteed_sparsity(),
            1.0 - frozen.nnz() as f64 / total
        );
    }

    #[test]
    fn frozen_mask_survives_set_params_and_shares_one_pattern() {
        let mut conv = small_conv(Conv2dConfig::vgg_style(2, 3, (6, 5)), 51);
        zero_every(&mut conv, 3);
        conv.freeze_pruning_mask();
        let x = random_input(&conv, 52);
        let j1 = conv.transposed_jacobian(&x, &conv.forward(&x));
        // An optimizer step writes every weight; the masked ones stay zero.
        let stepped: Vec<f64> = conv.params().iter().map(|v| v + 0.5).collect();
        conv.set_params(&stepped);
        let w = conv.weight().as_slice();
        assert!(w.iter().step_by(3).all(|&v| v == 0.0));
        assert!(w.iter().skip(1).step_by(3).all(|&v| v != 0.0));
        // Same pattern `Arc`, fresh values.
        let j2 = conv.transposed_jacobian(&x, &conv.forward(&x));
        assert!(Arc::ptr_eq(j1.pattern_ref(), j2.pattern_ref()));
        assert_ne!(j1.data(), j2.data());
        assert!(j2.data().iter().all(|&v| v != 0.0));
    }

    #[test]
    fn param_grad_matches_finite_differences() {
        let conv = small_conv(Conv2dConfig::vgg_style(1, 2, (3, 3)), 41);
        let x = random_input(&conv, 42);
        let g = Vector::from_fn(Operator::<f64>::output_len(&conv), |i| {
            ((i % 5) as f64) * 0.3 - 0.6
        });
        let analytic = conv.param_grad(&x, &conv.forward(&x), &g);
        let numeric = numerical_param_gradient(&conv, &x, &g, 1e-6);
        for (k, (a, n)) in analytic.iter().zip(&numeric).enumerate() {
            assert!((a - n).abs() < 1e-5, "param {k}: {a} vs {n}");
        }
    }

    #[test]
    fn csr_memory_is_far_below_dense() {
        // §3.3's 768 MB → 6.5 MB argument, at reduced scale.
        let conv: Conv2d<f32> =
            Conv2d::new(Conv2dConfig::vgg_style(3, 16, (16, 16)), &mut seeded_rng(5));
        let x = init::uniform_tensor(&mut seeded_rng(6), vec![3, 16, 16], 1.0);
        let j = conv.transposed_jacobian(&x, &conv.forward(&x));
        let dense_bytes = j.rows() * j.cols() * std::mem::size_of::<f32>();
        // At 16×16 the CSR layout is ~15× smaller; the gap widens with
        // resolution (the paper's 32×32 example is ~118×).
        assert!(j.memory_bytes() * 10 < dense_bytes);
    }
}

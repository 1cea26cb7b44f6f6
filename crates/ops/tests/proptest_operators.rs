//! Property-based operator tests: for *random geometries and inputs*, every
//! operator's three backward paths (VJP, analytic CSR transposed Jacobian,
//! VJP-column extraction) must agree, and conv geometry must be internally
//! consistent.

use bppsa_ops::{
    jacobian::transposed_jacobian_via_vjp, AvgPool2d, Conv2d, Conv2dConfig, MaxPool2d, Operator,
    Relu, Sigmoid, Tanh,
};
use bppsa_tensor::init::{seeded_rng, uniform_tensor};
use bppsa_tensor::Vector;
use proptest::prelude::*;

fn arb_conv_config() -> impl Strategy<Value = Conv2dConfig> {
    (
        1usize..3, // in_channels
        1usize..4, // out_channels
        1usize..4, // kh
        1usize..4, // kw
        1usize..3, // sh
        1usize..3, // sw
        0usize..2, // ph
        0usize..2, // pw
        3usize..7, // hi
        3usize..7, // wi
    )
        .prop_filter_map(
            "kernel must fit padded input",
            |(ci, co, kh, kw, sh, sw, ph, pw, hi, wi)| {
                if hi + 2 * ph >= kh && wi + 2 * pw >= kw {
                    Some(Conv2dConfig {
                        in_channels: ci,
                        out_channels: co,
                        kernel: (kh, kw),
                        stride: (sh, sw),
                        padding: (ph, pw),
                        input_hw: (hi, wi),
                    })
                } else {
                    None
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn conv_jacobian_matches_vjp_columns(cfg in arb_conv_config(), seed in any::<u64>()) {
        let mut rng = seeded_rng(seed);
        let conv = Conv2d::<f64>::new(cfg, &mut rng);
        let x = uniform_tensor(&mut rng, conv.input_shape().to_vec(), 1.0);
        let y = conv.forward(&x);
        let analytic = conv.transposed_jacobian(&x, &y);
        prop_assert_eq!(analytic.validate(), Ok(()));
        prop_assert_eq!(analytic.nnz(), conv.jacobian_nnz());
        let oracle = transposed_jacobian_via_vjp(&conv, &x, &y);
        let diff = analytic.to_dense().max_abs_diff(&oracle);
        prop_assert!(diff < 1e-12, "cfg {cfg:?}: diff {diff}");
    }

    #[test]
    fn conv_pruned_generation_matches(cfg in arb_conv_config(), seed in any::<u64>()) {
        // Frozen == un-frozen clone `.pruned()`: freezing a mask drops
        // exactly the zeroed weights' entries from the pattern.
        let mut rng = seeded_rng(seed);
        let mut conv = Conv2d::<f64>::new(cfg, &mut rng);
        // Zero a third of the weights.
        let mut p = conv.params();
        for v in p[..conv.prunable_len()].iter_mut().step_by(3) {
            *v = 0.0;
        }
        conv.set_params(&p);
        let unfrozen = conv.clone();
        conv.freeze_pruning_mask();
        let x = uniform_tensor(&mut rng, conv.input_shape().to_vec(), 1.0);
        let y = conv.forward(&x);
        let frozen = conv.transposed_jacobian(&x, &y);
        prop_assert_eq!(frozen.nnz(), conv.jacobian_nnz());
        prop_assert_eq!(frozen, unfrozen.transposed_jacobian(&x, &y).pruned());
    }

    #[test]
    fn pool_jacobians_match_vjp_columns(
        (c, hw, k, s) in (1usize..3, 4usize..8, 2usize..4, 1usize..3),
        seed in any::<u64>(),
    ) {
        prop_assume!(k <= hw);
        let mut rng = seeded_rng(seed);
        let x = uniform_tensor::<f64>(&mut rng, vec![c, hw, hw], 1.0);

        let maxp = MaxPool2d::new(c, (k, k), (s, s), (hw, hw));
        let y = Operator::<f64>::forward(&maxp, &x);
        let analytic = maxp.transposed_jacobian(&x, &y);
        prop_assert_eq!(analytic.validate(), Ok(()));
        let oracle = transposed_jacobian_via_vjp(&maxp, &x, &y);
        prop_assert!(analytic.to_dense().approx_eq(&oracle, 0.0));

        let avgp = AvgPool2d::new(c, (k, k), (s, s), (hw, hw));
        let y = Operator::<f64>::forward(&avgp, &x);
        let analytic = avgp.transposed_jacobian(&x, &y);
        let oracle = transposed_jacobian_via_vjp(&avgp, &x, &y);
        prop_assert!(analytic.to_dense().approx_eq(&oracle, 1e-12));
    }

    #[test]
    fn elementwise_ops_consistent(len in 1usize..20, seed in any::<u64>()) {
        let mut rng = seeded_rng(seed);
        let x = uniform_tensor::<f64>(&mut rng, vec![len], 2.0);
        let g = Vector::from_fn(len, |i| ((i % 5) as f64) * 0.5 - 1.0);
        for op in [
            Box::new(Relu::new(vec![len])) as Box<dyn Operator<f64>>,
            Box::new(Tanh::new(vec![len])),
            Box::new(Sigmoid::new(vec![len])),
        ] {
            let y = op.forward(&x);
            let via_vjp = op.vjp(&x, &y, &g);
            let via_jac = op.transposed_jacobian(&x, &y).spmv(&g);
            prop_assert!(via_vjp.approx_eq(&via_jac, 1e-12), "{}", op.name());
        }
    }

    #[test]
    fn conv_sparsity_bounds(cfg in arb_conv_config(), seed in any::<u64>()) {
        let conv = Conv2d::<f32>::new(cfg, &mut seeded_rng(seed));
        let s = conv.guaranteed_sparsity();
        prop_assert!((0.0..=1.0).contains(&s), "sparsity {s}");
        // nnz never exceeds the all-windows upper bound co·ho·wo·ci·kh·kw.
        let (ho, wo) = cfg.output_hw();
        let bound = cfg.out_channels * ho * wo * cfg.in_channels * cfg.kernel.0 * cfg.kernel.1;
        prop_assert!(conv.jacobian_nnz() <= bound);
    }
}

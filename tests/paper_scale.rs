//! Integration tests at the paper's actual scales (T up to 30000): the
//! schedule machinery, the executors, and the memory accounting must all
//! behave at Figure 10's largest configurations, not just at toy sizes.

use bppsa::prelude::*;

/// A cheap associative non-commutative op for scale tests (2×2 wrapping
/// integer matrices — exact arithmetic, no fp tolerance needed).
struct M2Mul;
impl ScanOp<[i64; 4]> for M2Mul {
    fn combine(&self, a: &[i64; 4], b: &[i64; 4]) -> [i64; 4] {
        [
            a[0].wrapping_mul(b[0])
                .wrapping_add(a[1].wrapping_mul(b[2])),
            a[0].wrapping_mul(b[1])
                .wrapping_add(a[1].wrapping_mul(b[3])),
            a[2].wrapping_mul(b[0])
                .wrapping_add(a[3].wrapping_mul(b[2])),
            a[2].wrapping_mul(b[1])
                .wrapping_add(a[3].wrapping_mul(b[3])),
        ]
    }
    fn identity(&self) -> [i64; 4] {
        [1, 0, 0, 1]
    }
}

#[test]
fn schedule_at_t30000_has_paper_complexities() {
    // Figure 10's largest sweep point: 30001 scan elements.
    let s = ScanSchedule::full(30001);
    s.assert_levels_disjoint();
    // Θ(log n) steps: ⌈log₂ 30001⌉ = 15 levels each way.
    assert_eq!(s.up_levels().len(), 14);
    assert_eq!(s.down_levels().len(), 14);
    assert!(s.step_count() <= 2 * 15 + 2);
    // Θ(n) work (Equation 7).
    assert!(s.combine_count() < 2 * 30001);
}

#[test]
fn pooled_scan_is_exact_at_t30000() {
    let items: Vec<[i64; 4]> = (0..30001i64)
        .map(|i| [i % 5 - 2, (i * 3) % 7 - 3, (i * 5) % 3 - 1, i % 4 - 1])
        .collect();
    let expect = serial_exclusive_scan(&M2Mul, &items);
    let mut a = items.clone();
    execute_in_place(
        &ScanSchedule::full(items.len()),
        &M2Mul,
        &mut a,
        Executor::Pooled,
    );
    assert_eq!(a, expect);
}

#[test]
fn hybrid_cutoffs_exact_at_scale() {
    let items: Vec<[i64; 4]> = (0..4097i64).map(|i| [1, i % 9 - 4, 0, 1]).collect();
    let expect = serial_exclusive_scan(&M2Mul, &items);
    for k in [0usize, 3, 7, 12] {
        let mut a = items.clone();
        execute_in_place(
            &ScanSchedule::with_up_levels(items.len(), k),
            &M2Mul,
            &mut a,
            Executor::Pooled,
        );
        assert_eq!(a, expect, "k={k}");
    }
}

#[test]
fn rnn_chain_memory_matches_paper_space_model() {
    // §3.6: per-worker space is Θ(max(n/p, 1))·M_Jacob. Build the paper's
    // T=1000 h=20 chain and check the accounting against first principles.
    let rnn = VanillaRnn::<f32>::new(1, 20, 10, &mut seeded_rng(1));
    let data = BitstreamDataset::<f32>::generate(1, 1000, 2);
    let states = rnn.forward(&data.sample(0).bits);
    let (_, seed, _) = rnn.loss_and_seed(&states, 0);
    let chain = rnn.build_chain(&states, &seed);
    assert_eq!(chain.num_layers(), 1000);
    // Dense 20×20 f32 Jacobians: 1600 bytes each.
    assert_eq!(chain.max_element_bytes(), 20 * 20 * 4);
    let expected_total = 20 * 4 + 1000 * 20 * 20 * 4;
    assert_eq!(chain.memory_bytes(), expected_total);
    // Per-device at p = 2070's worker count: ⌈1001/576⌉ = 2 Jacobians.
    let per_dev = bppsa::pram::memory::bppsa_per_device_bytes(
        1001,
        DeviceProfile::rtx_2070().workers(),
        chain.max_element_bytes(),
    );
    assert_eq!(per_dev, 2 * 1600);
}

#[test]
fn planned_scan_matches_generic_on_conv_chain() {
    // PlannedScan on a real (pruned) conv/relu chain — the §4.2 retraining
    // shape — must agree with the generic executor.
    use bppsa::models::prune::prune_operator;
    let mut rng = seeded_rng(3);
    let (hw, ch) = (6usize, 4usize);
    let mut chain_elems = Vec::new();
    let mut x = bppsa::tensor::init::uniform_tensor::<f64>(&mut rng, vec![ch, hw, hw], 1.0);
    for _ in 0..6 {
        let mut conv = Conv2d::new(Conv2dConfig::vgg_style(ch, ch, (hw, hw)), &mut rng);
        prune_operator(&mut conv, 0.8);
        let y = conv.forward(&x);
        chain_elems.push(ScanElement::Sparse(conv.transposed_jacobian(&x, &y)));
        let relu = Relu::new(vec![ch, hw, hw]);
        let y_relu = Operator::<f64>::forward(&relu, &y);
        chain_elems.push(ScanElement::Sparse(relu.transposed_jacobian(&y, &y_relu)));
        x = y_relu;
    }
    let mut chain = JacobianChain::new(bppsa::tensor::init::uniform_vector(
        &mut rng,
        ch * hw * hw,
        1.0,
    ));
    for e in chain_elems {
        chain.push(e);
    }

    let generic = bppsa_backward(&chain, BppsaOptions::serial());
    for opts in [BppsaOptions::serial(), BppsaOptions::pooled()] {
        let plan = PlannedScan::plan(&chain, opts);
        assert!(plan.planned_products() > 0);
        let planned = plan.execute(&chain);
        let diff = generic.max_abs_diff(&planned);
        assert!(diff < 1e-10, "{opts:?}: diff {diff}");
    }
}

#[test]
fn gru_scan_agrees_with_bptt_at_depth() {
    // The GRU extension at a nontrivial depth, pooled executor.
    let g = Gru::<f64>::new(6, 4, &mut seeded_rng(5));
    let xs: Vec<f64> = (0..500)
        .map(|i| ((i * 7) % 13) as f64 / 13.0 - 0.5)
        .collect();
    let steps = g.forward(&xs);
    let (_, seed) = g.loss_and_seed(&steps, 2);
    let bptt = g.hidden_grads_bptt(&steps, &seed);
    let scan = g.hidden_grads_bppsa(&steps, &seed, BppsaOptions::pooled());
    for (t, (a, b)) in bptt.iter().zip(&scan).enumerate() {
        let diff = a.max_abs_diff(b);
        assert!(diff < 1e-8, "t={t}: diff {diff}");
    }
}

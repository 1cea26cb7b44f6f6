//! **Figure 11**: FLOPs per step when retraining a 97%-pruned VGG-11 with
//! BPPSA versus the per-"gradient operator" FLOPs of baseline BP — the §4.2
//! static analysis.
//!
//! Run: `cargo run -p bppsa-bench --bin fig11_flops --release [--full]`
//!
//! Builds the VGG-11 feature-extractor chain (convs with *pruned* analytic
//! Jacobians, plus the interleaved ReLU/max-pool Jacobians), applies the
//! paper's hybrid schedule (up-sweep L0–L2, serial middle, truncated
//! down-sweep), and reports every step's (m·n·k, FLOP, kind, critical).
//! Default input scale 16×16 (paper: 32×32 — pass `--full`).

use bppsa_bench::{is_full_run, write_csv};
use bppsa_core::flops::{
    analyze_baseline_flops, analyze_scan_flops, critical_path_flops, total_flops, StepKind,
};
use bppsa_core::{BppsaOptions, JacobianChain, ScanElement};
use bppsa_models::prune::prune_operator;
use bppsa_models::vgg11_convs;
use bppsa_ops::{MaxPool2d, Operator, Relu};
use bppsa_scan::PhaseKind;
use bppsa_tensor::init::{seeded_rng, uniform_tensor, uniform_vector};
use bppsa_tensor::Tensor;

fn main() {
    let full = is_full_run();
    let scale = if full { 32 } else { 16 };
    println!("Figure 11 — per-step FLOPs, pruned VGG-11 retraining (input {scale}x{scale})");
    println!("pruning 97% of conv weights (See et al.), hybrid schedule k=3\n");

    let mut rng = seeded_rng(42);
    let mut convs = vgg11_convs::<f32>(scale, &mut rng);
    for conv in &mut convs {
        prune_operator(conv, 0.97);
    }

    // Forward through conv→relu→(pool) to collect activations, building the
    // chain as we go: conv Jacobians over the frozen pruning masks, relu/pool
    // via the standard analytic generators (their patterns are already tiny).
    let pool_after = [true, true, false, true, false, true, false, true];
    let mut x: Tensor<f32> = uniform_tensor(&mut rng, vec![3, scale, scale], 1.0);
    let mut elements: Vec<ScanElement<f32>> = Vec::new();
    for (i, conv) in convs.iter().enumerate() {
        let y = conv.forward(&x);
        elements.push(ScanElement::Sparse(conv.transposed_jacobian(&x, &y)));
        let shape = conv.output_shape().to_vec();
        let relu = Relu::new(shape.clone());
        let y_relu = Operator::<f32>::forward(&relu, &y);
        elements.push(ScanElement::Sparse(
            relu.transposed_jacobian(&y, &y_relu).pruned(),
        ));
        x = y_relu;
        if pool_after[i] && shape[1] >= 2 {
            let pool = MaxPool2d::new(shape[0], (2, 2), (2, 2), (shape[1], shape[2]));
            let y_pool = Operator::<f32>::forward(&pool, &x);
            elements.push(ScanElement::Sparse(
                pool.transposed_jacobian(&x, &y_pool).pruned(),
            ));
            x = y_pool;
        }
    }

    let seed = uniform_vector(&mut rng, x.numel(), 1.0);
    let mut chain = JacobianChain::new(seed);
    for e in elements {
        chain.push(e);
    }
    chain.validate();
    println!(
        "chain: {} Jacobians (+ seed), scan array length {}",
        chain.num_layers(),
        chain.num_layers() + 1
    );

    let opts = BppsaOptions::serial().hybrid(3);
    let steps = analyze_scan_flops(&chain, opts);
    let baseline = analyze_baseline_flops(&chain);

    println!("\nBPPSA steps (phase/level, kind, dense m·n·k, sparse FLOP, critical):");
    for s in &steps {
        let phase = match s.phase {
            PhaseKind::UpSweep => "up",
            PhaseKind::Middle => "mid",
            PhaseKind::DownSweep => "down",
        };
        let kind = match s.kind {
            StepKind::MatVec => "mv",
            StepKind::MatMat => "mm",
        };
        println!(
            "  {phase:>4} L{:<2} {kind}  mnk={:<14} flops={:<12} {}",
            s.level,
            s.dense_mnk,
            s.flops,
            if s.critical { "critical" } else { "" }
        );
    }

    println!("\nbaseline BP gradient operators (all critical):");
    for (i, s) in baseline.iter().enumerate() {
        println!(
            "  layer {:>2}  mv  mnk={:<14} flops={}",
            i, s.dense_mnk, s.flops
        );
    }

    let max_scan = steps.iter().map(|s| s.flops).max().unwrap_or(0);
    let max_base = baseline.iter().map(|s| s.flops).max().unwrap_or(0);
    println!("\nsummary:");
    println!(
        "  BPPSA:    {} steps, total {:.3e} FLOPs, critical path {:.3e}, max step {:.3e}",
        steps.len(),
        total_flops(&steps) as f64,
        critical_path_flops(&steps) as f64,
        max_scan as f64
    );
    println!(
        "  baseline: {} steps, total {:.3e} FLOPs (all sequential), max step {:.3e}",
        baseline.len(),
        total_flops(&baseline) as f64,
        max_base as f64
    );
    println!(
        "  per-step ratio (max BPPSA / max baseline): {:.2}",
        max_scan as f64 / max_base.max(1) as f64
    );
    let max_mnk = steps.iter().map(|s| s.dense_mnk).max().unwrap_or(1);
    println!(
        "  sparsity win: largest step does {:.1e} FLOPs where dense would need {:.1e} (x{:.0} less)",
        max_scan as f64,
        max_mnk as f64,
        max_mnk as f64 / max_scan.max(1) as f64
    );
    println!("\nshape vs paper's Figure 11: the scatter of BPPSA's steps (mm circles at large");
    println!("m·n·k, mv circles small) sits orders of magnitude below the dense diagonal and");
    println!("within the same FLOP range as the baseline's gradient operators, so reducing");
    println!("P_Blelloch via sparsity makes the log-depth schedule's critical path pay off.");

    // Extension beyond the paper: price both FLOP profiles on the PRAM
    // device models (per-sample; one scan per sample in a mini-batch).
    println!("\nPRAM-priced backward time for this chain (extension — the paper stops at FLOPs):");
    let to_groups = |records: &[bppsa_core::flops::StepFlops], serial: bool| {
        use std::collections::BTreeMap;
        if serial {
            return vec![bppsa_pram::StepGroup {
                parallel: false,
                op_flops: records.iter().map(|r| r.flops).collect(),
            }];
        }
        let mut by_level: BTreeMap<(u8, usize), Vec<u64>> = BTreeMap::new();
        let mut order: Vec<(u8, usize, bool)> = Vec::new();
        for r in records {
            let phase_id = match r.phase {
                PhaseKind::UpSweep => 0u8,
                PhaseKind::Middle => 1,
                PhaseKind::DownSweep => 2,
            };
            if !order.iter().any(|&(p, l, _)| p == phase_id && l == r.level) {
                order.push((phase_id, r.level, phase_id != 1));
            }
            by_level
                .entry((phase_id, r.level))
                .or_default()
                .push(r.flops);
        }
        order
            .into_iter()
            .map(|(p, l, parallel)| bppsa_pram::StepGroup {
                parallel,
                op_flops: by_level[&(p, l)].clone(),
            })
            .collect()
    };
    for dev in [
        bppsa_pram::DeviceProfile::rtx_2070(),
        bppsa_pram::DeviceProfile::rtx_2080ti(),
    ] {
        let t_scan = bppsa_pram::simulate_step_groups(&to_groups(&steps, false), &dev);
        let t_base = bppsa_pram::simulate_step_groups(&to_groups(&baseline, true), &dev);
        println!(
            "  {}: baseline {:.1} µs vs BPPSA {:.1} µs → {:.2}x",
            dev.name,
            t_base * 1e6,
            t_scan * 1e6,
            t_base / t_scan
        );
    }
    println!(
        "at n = {} chain elements the scan's extra matrix–matrix work is not yet repaid —",
        chain.num_layers()
    );
    println!("consistent with the paper, whose VGG-11 claim is per-step cost parity (so that");
    println!("scalability in n is \"guaranteed algorithmically\"), not a wall-clock win at n≈21;");
    println!("the wall-clock wins appear in the deep-chain RNN regime (Figures 9–10).");

    let mut rows: Vec<Vec<String>> = steps
        .iter()
        .map(|s| {
            vec![
                "bppsa".into(),
                format!("{:?}", s.phase),
                s.level.to_string(),
                format!("{:?}", s.kind),
                s.dense_mnk.to_string(),
                s.flops.to_string(),
                s.critical.to_string(),
            ]
        })
        .collect();
    rows.extend(baseline.iter().map(|s| {
        vec![
            "baseline".into(),
            "Sequential".into(),
            "0".into(),
            "MatVec".into(),
            s.dense_mnk.to_string(),
            s.flops.to_string(),
            "true".into(),
        ]
    }));
    let path = write_csv(
        "fig11_flops.csv",
        &[
            "method",
            "phase",
            "level",
            "kind",
            "dense_mnk",
            "flops",
            "critical",
        ],
        &rows,
    );
    println!("\nwrote {}", path.display());
}

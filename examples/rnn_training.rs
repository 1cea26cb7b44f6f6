//! The paper's §4.1 end-to-end benchmark in miniature: train the Equation-9
//! vanilla RNN on the bitstream-classification task (Equation 8), once with
//! BPTT and once with BPPSA, from identical seeds.
//!
//! Run: `cargo run --example rnn_training --release`

use bppsa::models::train::{evaluate_rnn, train_rnn, BackwardMethod};
use bppsa::prelude::*;

fn main() {
    // Scaled-down §4.1: T = 64, B = 8, 128 samples (paper: T up to 30000,
    // B = 16, 32000 samples). Equation 8: x_t ~ Bernoulli(0.05 + 0.1·c).
    let data = BitstreamDataset::<f32>::generate(128, 64, 7);
    println!(
        "bitstream task: {} samples, T = {}, 10 classes",
        data.len(),
        data.seq_len()
    );

    let run = |name: &str, method: BackwardMethod| {
        let mut rnn = VanillaRnn::<f32>::new(1, 20, 10, &mut seeded_rng(99));
        let mut opt = Adam::new(1e-3);
        let log = train_rnn(&mut rnn, &data, &mut opt, method, 8, 8, None);
        let acc = evaluate_rnn(&rnn, &data);
        println!(
            "{name:>6}: loss {:.4} → {:.4}, accuracy {acc:.2}, backward {:.3}s",
            log.records[0].loss,
            log.final_loss(),
            log.backward_s(),
        );
        log
    };

    let bptt = run("BPTT", BackwardMethod::Bp);
    let bppsa = run("BPPSA", BackwardMethod::bppsa_pooled());
    // The batched training route: one per-sample chain each, all sharing
    // one plan built once for the whole run, fanned across the worker pool
    // with each sample on its own reused workspace.
    let pooled = run(
        "POOLED",
        BackwardMethod::bppsa_pooled_batched(BppsaOptions::pooled()),
    );

    // The training trajectories are identical — BPPSA changes *how*
    // gradients are computed, not what they are.
    let gap = bptt.max_loss_gap(&bppsa);
    println!("max per-iteration loss gap (BPTT vs BPPSA): {gap:.2e}");
    assert!(gap < 1e-3);
    let gap_pooled = bptt.max_loss_gap(&pooled);
    println!("max per-iteration loss gap (BPTT vs pooled): {gap_pooled:.2e}");
    assert!(gap_pooled < 1e-3);

    // At GPU scale the time axis compresses; the PRAM model shows by how much.
    let speedup = simulate_speedups(&RnnWorkload::paper_default(), &DeviceProfile::rtx_2070());
    println!(
        "PRAM model, paper config (T=1000, B=16, RTX 2070): backward {:.2}x, overall {:.2}x",
        speedup.backward, speedup.overall
    );
    println!("(paper measures 4.53x / 2.17x for this configuration)");
}

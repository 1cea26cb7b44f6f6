//! The metric catalogue and the result line.

use std::fmt::Write;

/// End-to-end metrics, printed by the untraced run of every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("bwd_speedup_vs_bp", "x"),
    ("bwd_cpu_vs_bp", "x"),
];

/// Per-layer metrics, printed by the traced run of every workload. A layer
/// a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("models.forward_ms", "ms"),
    ("models.backward_route_ms", "ms"),
    ("models.chain_refresh_ms", "ms"),
    ("models.grad_reduce_ms", "ms"),
    ("models.optimizer_ms", "ms"),
    ("ops.jacobian_ms", "ms"),
    ("ops.param_grad_ms", "ms"),
    ("core.plan_ms", "ms"),
    ("core.scan_ms", "ms"),
    ("core.scan_serial_ms", "ms"),
    ("core.scan_gflops", "GFLOP/s"),
    ("core.plan.spgemm_flops", "count"),
    ("core.plan.elementwise_flops", "count"),
    ("core.plan.products", "count"),
    ("core.plan.spmvs", "count"),
    ("core.plan.kernels_gather", "count"),
    ("core.plan.kernels_gustavson", "count"),
    ("core.plan.kernels_dense", "count"),
    ("core.plan.segments", "count"),
    ("core.plan.workspace_bytes", "bytes"),
    ("scan.pool_workers", "count"),
    ("scan.fanout_speedup", "x"),
    ("serve.submit_us_p50", "us"),
    ("serve.submit_us_p99", "us"),
    ("serve.plan_ms", "ms"),
    ("serve.warmup_ms", "ms"),
    ("serve.flushes", "count"),
    ("serve.mean_batch", "count"),
    ("serve.deadline_flush_frac", "frac"),
    ("serve.ewma_flush_ms_csr", "ms"),
    ("serve.ewma_flush_ms_diag", "ms"),
    ("serve.lanes_created", "count"),
    ("serve.refused_frac", "frac"),
    ("gen.late_ms_p99", "ms"),
    ("gen.late_ms_max", "ms"),
    ("trace.overhead_frac", "frac"),
    ("trace.unaccounted_frac", "frac"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64)>,
    /// Operations attempted (training iterations, or requests offered).
    pub attempted: u64,
    /// Operations that failed, including failed correctness checks.
    pub failed: u64,
    /// Whether every correctness check passed.
    pub incorrect: bool,
}

impl Report {
    /// Sets (or replaces) a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    /// A metric set earlier.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    /// Records a failed correctness check: the operation counts as failed
    /// and the run as incorrect.
    pub fn check_failed(&mut self, what: &str) {
        eprintln!("correctness check FAILED: {what}");
        self.failed += 1;
        self.incorrect = true;
    }

    /// The result line over `catalogue`. Errors name a metric the workload
    /// did not produce, or produced as a non-finite number.
    pub fn result_line(&self, catalogue: &[(&str, &str)]) -> Result<String, String> {
        let mut out = String::new();
        write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            !self.incorrect && self.failed == 0,
            self.attempted,
            self.failed
        )
        .expect("write to String");
        for (i, &(name, unit)) in catalogue.iter().enumerate() {
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("write to String");
        }
        out.push_str("}}");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_in_catalogue_order() {
        let mut r = Report {
            attempted: 3,
            ..Default::default()
        };
        r.set("b", 2.5);
        r.set("a", 1.0);
        r.set("a", 1.25);
        let line = r.result_line(&[("a", "ms"), ("b", "s")]).expect("complete");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 2.5, \"unit\": \"s\"}}}"
        );
        assert!(r.result_line(&[("c", "ms")]).is_err());
        r.set("a", f64::INFINITY);
        assert!(r.result_line(&[("a", "ms")]).is_err());
        r.check_failed("test");
        r.set("a", 1.0);
        assert!(r
            .result_line(&[("a", "ms")])
            .expect("ok")
            .starts_with("{\"correct\": false"));
    }
}

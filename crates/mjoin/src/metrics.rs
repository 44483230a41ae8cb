//! Per-pipeline / per-operator execution metrics and their export into
//! [`acq_telemetry::TelemetrySnapshot`]s.
//!
//! The A-Caching engine in `acq` — caching off, that is the plain MJoin —
//! drives pipelines of the compiled operators of [`crate::plan`] and
//! records, per operator position, tuples in, tuples out and virtual time
//! spent. These counts are the raw material for the paper's `d_ij`
//! (drop/fanout) and `c_ij` (per-tuple cost) estimates.

use acq_telemetry::TelemetrySnapshot;

/// Per-operator execution statistics (the raw material for the paper's
/// `d_ij` / `c_ij` estimates).
#[derive(Debug, Clone, Copy, Default)]
pub struct OpStats {
    /// Tuples that entered this operator.
    pub tuples_in: u64,
    /// Tuples the operator produced.
    pub tuples_out: u64,
    /// Virtual nanoseconds spent in the operator.
    pub cost_ns: u64,
}

impl OpStats {
    /// Record one operator invocation.
    #[inline]
    pub fn record(&mut self, tuples_in: u64, tuples_out: u64, cost_ns: u64) {
        self.tuples_in += tuples_in;
        self.tuples_out += tuples_out;
        self.cost_ns += cost_ns;
    }
}

/// Accumulated metrics for one update pipeline: an update counter plus one
/// [`OpStats`] per operator position.
#[derive(Debug, Clone, Default)]
pub struct PipelineMetrics {
    /// Updates that entered this pipeline.
    pub updates: u64,
    /// Per-position operator statistics, in pipeline order.
    pub ops: Vec<OpStats>,
}

impl PipelineMetrics {
    /// Metrics for a pipeline of `n_ops` operators, all zero.
    pub fn new(n_ops: usize) -> PipelineMetrics {
        PipelineMetrics {
            updates: 0,
            ops: vec![OpStats::default(); n_ops],
        }
    }

    /// Count one update entering the pipeline.
    #[inline]
    pub fn record_update(&mut self) {
        self.updates += 1;
    }

    /// Record one invocation of the operator at position `j`.
    #[inline]
    pub fn record_op(&mut self, j: usize, tuples_in: u64, tuples_out: u64, cost_ns: u64) {
        self.ops[j].record(tuples_in, tuples_out, cost_ns);
    }

    /// Emit this pipeline's metrics into a snapshot.
    ///
    /// Produces, per operator position `j` (labels `pipeline`, `op`):
    /// `op.tuples_in`, `op.tuples_out`, `op.cost_ns` counters plus the
    /// `op.fanout` ratio (`tuples_out / tuples_in`, the complement of the
    /// paper's drop probability `d_ij`), and a per-pipeline
    /// `pipeline.updates` counter.
    pub fn snapshot_into(&self, s: &mut TelemetrySnapshot, pipeline: usize) {
        let pl = pipeline.to_string();
        s.counter("pipeline.updates", &[("pipeline", &pl)], self.updates);
        for (j, op) in self.ops.iter().enumerate() {
            let opl = j.to_string();
            let labels: [(&str, &str); 2] = [("pipeline", &pl), ("op", &opl)];
            s.counter("op.tuples_in", &labels, op.tuples_in);
            s.counter("op.tuples_out", &labels, op.tuples_out);
            s.counter("op.cost_ns", &labels, op.cost_ns);
            s.ratio(
                "op.fanout",
                &labels,
                op.tuples_out as f64,
                op.tuples_in as f64,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acq_telemetry::MetricValue;

    #[test]
    fn pipeline_metrics_snapshot_round_trip() {
        let mut pm = PipelineMetrics::new(2);
        pm.record_update();
        pm.record_op(0, 1, 3, 500);
        pm.record_op(1, 3, 0, 900);
        let mut s = TelemetrySnapshot::new();
        pm.snapshot_into(&mut s, 0);
        assert_eq!(
            s.get("op.tuples_out", &[("pipeline", "0"), ("op", "0")]),
            Some(&MetricValue::Counter(3))
        );
        assert_eq!(
            s.get("pipeline.updates", &[("pipeline", "0")]),
            Some(&MetricValue::Counter(1))
        );
        let fanout = s
            .get("op.fanout", &[("pipeline", "0"), ("op", "0")])
            .and_then(|v| v.as_ratio());
        assert_eq!(fanout, Some(3.0));
    }
}

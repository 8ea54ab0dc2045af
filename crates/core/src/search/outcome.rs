//! Search results: best child, Pareto front, summary tables, telemetry.

use fnas_exec::TelemetrySnapshot;
use fnas_fpga::Millis;

use crate::cost::SearchCost;
use crate::report::{pct, Table};

use super::config::SearchMode;
use super::trial::TrialRecord;

/// The result of one search run.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    pub(super) mode: SearchMode,
    pub(super) trials: Vec<TrialRecord>,
    pub(super) cost: SearchCost,
    pub(super) telemetry: TelemetrySnapshot,
}

impl SearchOutcome {
    /// All trials in exploration order.
    pub fn trials(&self) -> &[TrialRecord] {
        &self.trials
    }

    /// The mode this outcome was produced under.
    pub fn mode(&self) -> SearchMode {
        self.mode
    }

    /// Modelled search cost (the paper's "search time").
    pub fn cost(&self) -> SearchCost {
        self.cost
    }

    /// What the engine actually did: counters and per-phase wall time.
    pub fn telemetry(&self) -> &TelemetrySnapshot {
        &self.telemetry
    }

    /// The architecture the run would deploy: the highest-accuracy trained
    /// child — restricted to spec-satisfying children for FNAS runs.
    pub fn best(&self) -> Option<&TrialRecord> {
        let required = self.mode.required_latency();
        self.trials
            .iter()
            .filter(|t| t.accuracy.is_some())
            .filter(|t| match required {
                Some(r) => t.meets(r),
                None => true,
            })
            .max_by(|a, b| {
                a.accuracy
                    .partial_cmp(&b.accuracy)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
    }

    /// Number of children that were actually trained.
    pub fn trained_count(&self) -> usize {
        self.trials.iter().filter(|t| t.trained).count()
    }

    /// Number of children pruned without training.
    pub fn pruned_count(&self) -> usize {
        self.trials.len() - self.trained_count()
    }

    /// Renders all trials as a markdown/CSV-ready [`Table`] (the format the
    /// examples and the benchmark harness print).
    pub fn summary_table(&self) -> Table {
        let mut table = Table::new(vec![
            "trial",
            "architecture",
            "latency",
            "accuracy",
            "reward",
        ]);
        for t in &self.trials {
            table.push_row(vec![
                t.index.to_string(),
                t.arch.describe(),
                t.latency.map_or("—".to_string(), |l| l.to_string()),
                t.accuracy.map_or("pruned".to_string(), pct),
                format!("{:+.3}", t.reward),
            ]);
        }
        table
    }

    /// The accuracy–latency Pareto front over all trained trials: trials
    /// for which no other trial is both at least as accurate *and* at
    /// least as fast (strictly better in one dimension). Sorted by latency.
    ///
    /// Useful for the designer-facing view the paper motivates ("the
    /// flexibility of FNAS provides more choices for designers").
    pub fn pareto_front(&self) -> Vec<&TrialRecord> {
        let mut candidates: Vec<&TrialRecord> = self
            .trials
            .iter()
            .filter(|t| t.accuracy.is_some() && t.latency.is_some())
            .collect();
        candidates.sort_by(|a, b| {
            let la = a.latency.expect("filtered").get();
            let lb = b.latency.expect("filtered").get();
            la.partial_cmp(&lb).unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut front: Vec<&TrialRecord> = Vec::new();
        let mut best_acc = f32::NEG_INFINITY;
        for t in candidates {
            let acc = t.accuracy.expect("filtered");
            if acc > best_acc {
                front.push(t);
                best_acc = acc;
            }
        }
        front
    }

    /// `true` when this trial's latency meets `required` — convenience
    /// mirror of [`TrialRecord::meets`] for the run's own budget.
    pub fn meets_budget(&self, trial: &TrialRecord) -> bool {
        match self.mode.required_latency() {
            Some(r) => trial.meets(r),
            None => true,
        }
    }

    /// The run's latency budget, if it was an FNAS run.
    pub fn required_latency(&self) -> Option<Millis> {
        self.mode.required_latency()
    }
}

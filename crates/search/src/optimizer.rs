//! Optimizer trait and the trial bookkeeping shared by all algorithms.

use crate::snapshot::OptimizerState;
use crate::space::ParamSpace;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Outcome of evaluating one proposed point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TrialResult {
    /// The design was valid; higher objective is better.
    Valid(f64),
    /// The design violated a constraint (schedule failure, over budget) and
    /// was rejected — Vizier's safe-search semantics (§6.1).
    Invalid,
}

impl TrialResult {
    /// The objective value when valid.
    #[must_use]
    pub fn objective(&self) -> Option<f64> {
        match self {
            TrialResult::Valid(v) => Some(*v),
            TrialResult::Invalid => None,
        }
    }
}

/// One completed trial.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trial {
    /// The proposed point (index encoding).
    pub point: Vec<usize>,
    /// Evaluation outcome.
    pub result: TrialResult,
}

/// A black-box optimizer proposing points over a [`ParamSpace`].
///
/// Implementations are deterministic given the provided RNG, so experiments
/// are reproducible from seeds.
pub trait Optimizer {
    /// Short algorithm name for reports (e.g. `"LCS"`).
    fn name(&self) -> &'static str;

    /// Proposes the next point to evaluate.
    fn propose(&mut self, space: &ParamSpace, rng: &mut StdRng) -> Vec<usize>;

    /// Records the outcome of a proposed point.
    fn observe(&mut self, space: &ParamSpace, trial: &Trial);

    /// Proposes one point per RNG in `rngs`, for batched (possibly parallel)
    /// evaluation. `rngs[i]` is the dedicated generator of the batch's i-th
    /// trial, derived by the study driver from the study seed and the global
    /// trial index — so proposals depend only on (seed, trial index,
    /// observation history), never on evaluation timing.
    ///
    /// The default implementation calls [`Optimizer::propose`] once per RNG,
    /// in order, preserving every existing algorithm's behavior; algorithms
    /// with a smarter batch policy (e.g. diversity-aware swarms) can
    /// override it.
    fn propose_batch(&mut self, space: &ParamSpace, rngs: &mut [StdRng]) -> Vec<Vec<usize>> {
        rngs.iter_mut().map(|rng| self.propose(space, rng)).collect()
    }

    /// Records a batch of completed trials, in proposal order.
    ///
    /// The default implementation forwards to [`Optimizer::observe`] one
    /// trial at a time, so observing a round equals observing its trials
    /// one by one.
    fn observe_batch(&mut self, space: &ParamSpace, trials: &[Trial]) {
        for trial in trials {
            self.observe(space, trial);
        }
    }

    /// Captures this optimizer's internal state for a checkpoint.
    ///
    /// The default returns [`OptimizerState::Opaque`], which the resumable
    /// study drivers handle by replaying the recorded trial stream instead
    /// of restoring directly — still bit-identical, just slower. Built-in
    /// algorithms override this with a full snapshot.
    fn save_state(&self) -> OptimizerState {
        OptimizerState::Opaque
    }

    /// Restores this optimizer from a [`save_state`](Optimizer::save_state)
    /// snapshot. Returns `false` — leaving the optimizer untouched — when
    /// the state does not belong to this algorithm (the resumable drivers
    /// then fall back to replay).
    fn load_state(&mut self, _state: &OptimizerState) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_result_accessors() {
        assert_eq!(TrialResult::Valid(3.0).objective(), Some(3.0));
        assert_eq!(TrialResult::Invalid.objective(), None);
    }
}

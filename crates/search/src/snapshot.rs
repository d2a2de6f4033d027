//! Serializable search state: optimizer snapshots, the study checkpoint
//! record, and the binary-codec impls for every search type that appears
//! in them.
//!
//! The durability contract of this module is *bit-identity*: a study that
//! is checkpointed after round `k` and resumed produces exactly the result
//! an uninterrupted study would have — same frontier, same convergence
//! curve, same trial sequence. Two mechanisms cooperate:
//!
//! * [`OptimizerState`] captures a built-in algorithm's internal state
//!   (including [`crate::LcsSwarm`]'s particles and pending proposals)
//!   so resume restores it directly;
//! * when an optimizer cannot restore from a state (a custom
//!   [`crate::Optimizer`] returning the default [`OptimizerState::Opaque`]),
//!   resume *replays* the recorded proposal/observation stream instead —
//!   exact by the `trial_rng(seed, index)` determinism contract, since
//!   proposals depend only on (seed, trial index, observation history).
//!
//! The `trial_rng` cursor itself needs no RNG serialization: per-trial
//! generators are pure functions of `(seed, index)`, so persisting the
//! seed and the number of completed trials *is* the cursor.

use crate::builder::EngineState;
use crate::pareto::{FrontierPoint, MetricDirection, MultiObjective, MultiTrial, ParetoArchive};
use crate::screen::{Fidelity, FidelityReport, SurrogateTier};
use serde::bin::{Decode, DecodeError, Encode, Reader, Writer};

/// Snapshot of a built-in optimizer's internal state.
///
/// Produced by [`crate::Optimizer::save_state`] and consumed by
/// [`crate::Optimizer::load_state`]. The `Seeded` variant wraps an inner
/// state for seed-injecting adapters (prior injection); `Opaque` is the
/// default for optimizers without snapshot support, which resumable
/// drivers handle by replaying history.
#[derive(Debug, Clone, PartialEq)]
pub enum OptimizerState {
    /// [`crate::RandomSearch`] — stateless.
    Random,
    /// [`crate::LcsSwarm`] — full particle state.
    Lcs {
        /// Particle count.
        population: usize,
        /// Personal bests per particle.
        personal: Vec<Option<(Vec<usize>, f64)>>,
        /// Global best.
        global: Option<(Vec<usize>, f64)>,
        /// Round-robin cursor.
        next_particle: usize,
        /// Probability of inheriting a dimension from the global best.
        pull_global: f64,
        /// Probability of mutating a dimension.
        mutate: f64,
        /// Proposals awaiting observation, FIFO, as `(particle, point)`.
        pending: Vec<(usize, Vec<usize>)>,
    },
    /// [`crate::Tpe`] — observation history plus hyperparameters.
    Tpe {
        /// `(point, objective)` per observed trial (`None` = invalid).
        history: Vec<(Vec<usize>, Option<f64>)>,
        /// Good-fraction γ.
        gamma: f64,
        /// Candidates scored per proposal.
        candidates: usize,
        /// Uniform-exploration startup trials.
        startup: usize,
    },
    /// A seed-injecting wrapper around an inner optimizer.
    Seeded {
        /// Seed points not yet proposed.
        seeds: Vec<Vec<usize>>,
        /// Index of the next seed to propose.
        next: usize,
        /// Inner optimizer's state.
        inner: Box<OptimizerState>,
    },
    /// An optimizer without snapshot support; resume falls back to replay.
    Opaque,
}

impl Encode for OptimizerState {
    fn encode(&self, w: &mut Writer) {
        match self {
            OptimizerState::Random => w.put_u8(0),
            OptimizerState::Lcs {
                population,
                personal,
                global,
                next_particle,
                pull_global,
                mutate,
                pending,
            } => {
                w.put_u8(1);
                population.encode(w);
                personal.encode(w);
                global.encode(w);
                next_particle.encode(w);
                pull_global.encode(w);
                mutate.encode(w);
                pending.encode(w);
            }
            OptimizerState::Tpe { history, gamma, candidates, startup } => {
                w.put_u8(2);
                history.encode(w);
                gamma.encode(w);
                candidates.encode(w);
                startup.encode(w);
            }
            OptimizerState::Seeded { seeds, next, inner } => {
                w.put_u8(3);
                seeds.encode(w);
                next.encode(w);
                inner.encode(w);
            }
            OptimizerState::Opaque => w.put_u8(4),
        }
    }
}

impl Decode for OptimizerState {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.get_u8()? {
            0 => Ok(OptimizerState::Random),
            1 => Ok(OptimizerState::Lcs {
                population: Decode::decode(r)?,
                personal: Decode::decode(r)?,
                global: Decode::decode(r)?,
                next_particle: Decode::decode(r)?,
                pull_global: Decode::decode(r)?,
                mutate: Decode::decode(r)?,
                pending: Decode::decode(r)?,
            }),
            2 => Ok(OptimizerState::Tpe {
                history: Decode::decode(r)?,
                gamma: Decode::decode(r)?,
                candidates: Decode::decode(r)?,
                startup: Decode::decode(r)?,
            }),
            3 => Ok(OptimizerState::Seeded {
                seeds: Decode::decode(r)?,
                next: Decode::decode(r)?,
                inner: Box::new(Decode::decode(r)?),
            }),
            4 => Ok(OptimizerState::Opaque),
            t => Err(DecodeError { offset: 0, what: format!("invalid OptimizerState tag {t}") }),
        }
    }
}

impl Encode for MetricDirection {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(match self {
            MetricDirection::Maximize => 0,
            MetricDirection::Minimize => 1,
        });
    }
}

impl Decode for MetricDirection {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.get_u8()? {
            0 => Ok(MetricDirection::Maximize),
            1 => Ok(MetricDirection::Minimize),
            t => Err(DecodeError { offset: 0, what: format!("invalid MetricDirection tag {t}") }),
        }
    }
}

impl Encode for FrontierPoint {
    fn encode(&self, w: &mut Writer) {
        let FrontierPoint { point, metrics } = self;
        point.encode(w);
        metrics.encode(w);
    }
}

impl Decode for FrontierPoint {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(FrontierPoint { point: Decode::decode(r)?, metrics: Decode::decode(r)? })
    }
}

impl Encode for MultiObjective {
    fn encode(&self, w: &mut Writer) {
        match self {
            MultiObjective::Valid { metrics, guide } => {
                w.put_u8(0);
                metrics.encode(w);
                guide.encode(w);
            }
            MultiObjective::Invalid => w.put_u8(1),
            MultiObjective::Surrogate { guide } => {
                w.put_u8(2);
                guide.encode(w);
            }
        }
    }
}

impl Decode for MultiObjective {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.get_u8()? {
            0 => {
                Ok(MultiObjective::Valid { metrics: Decode::decode(r)?, guide: Decode::decode(r)? })
            }
            1 => Ok(MultiObjective::Invalid),
            2 => Ok(MultiObjective::Surrogate { guide: Decode::decode(r)? }),
            t => Err(DecodeError { offset: 0, what: format!("invalid MultiObjective tag {t}") }),
        }
    }
}

impl Encode for SurrogateTier {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(match self {
            SurrogateTier::S0 => 0,
            SurrogateTier::S1 => 1,
        });
    }
}

impl Decode for SurrogateTier {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.get_u8()? {
            0 => Ok(SurrogateTier::S0),
            1 => Ok(SurrogateTier::S1),
            t => Err(DecodeError { offset: 0, what: format!("invalid SurrogateTier tag {t}") }),
        }
    }
}

impl Encode for Fidelity {
    fn encode(&self, w: &mut Writer) {
        match self {
            Fidelity::Exact => w.put_u8(0),
            Fidelity::Screened { keep_fraction, min_full, tier } => {
                w.put_u8(1);
                keep_fraction.encode(w);
                min_full.encode(w);
                tier.encode(w);
            }
        }
    }
}

impl Decode for Fidelity {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.get_u8()? {
            0 => Ok(Fidelity::Exact),
            1 => Ok(Fidelity::Screened {
                keep_fraction: Decode::decode(r)?,
                min_full: Decode::decode(r)?,
                tier: Decode::decode(r)?,
            }),
            t => Err(DecodeError { offset: 0, what: format!("invalid Fidelity tag {t}") }),
        }
    }
}

impl Encode for FidelityReport {
    fn encode(&self, w: &mut Writer) {
        let FidelityReport {
            tier,
            keep_fraction,
            min_full,
            full_evals,
            screened_out,
            pairs,
            spearman,
            kendall,
        } = self;
        tier.encode(w);
        keep_fraction.encode(w);
        min_full.encode(w);
        full_evals.encode(w);
        screened_out.encode(w);
        pairs.encode(w);
        spearman.encode(w);
        kendall.encode(w);
    }
}

impl Decode for FidelityReport {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(FidelityReport {
            tier: Decode::decode(r)?,
            keep_fraction: Decode::decode(r)?,
            min_full: Decode::decode(r)?,
            full_evals: Decode::decode(r)?,
            screened_out: Decode::decode(r)?,
            pairs: Decode::decode(r)?,
            spearman: Decode::decode(r)?,
            kendall: Decode::decode(r)?,
        })
    }
}

impl Encode for MultiTrial {
    fn encode(&self, w: &mut Writer) {
        let MultiTrial { point, result } = self;
        point.encode(w);
        result.encode(w);
    }
}

impl Decode for MultiTrial {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(MultiTrial { point: Decode::decode(r)?, result: Decode::decode(r)? })
    }
}

impl Encode for ParetoArchive {
    fn encode(&self, w: &mut Writer) {
        self.directions().to_vec().encode(w);
        self.entries().to_vec().encode(w);
    }
}

impl Decode for ParetoArchive {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let directions: Vec<MetricDirection> = Decode::decode(r)?;
        let entries: Vec<FrontierPoint> = Decode::decode(r)?;
        ParetoArchive::from_parts(&directions, entries)
            .map_err(|what| DecodeError { offset: 0, what })
    }
}

impl Encode for EngineState {
    fn encode(&self, w: &mut Writer) {
        let EngineState { best, convergence, invalid, trials, archive } = self;
        best.encode(w);
        convergence.encode(w);
        invalid.encode(w);
        trials.encode(w);
        archive.encode(w);
    }
}

impl Decode for EngineState {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(EngineState {
            best: Decode::decode(r)?,
            convergence: Decode::decode(r)?,
            invalid: Decode::decode(r)?,
            trials: Decode::decode(r)?,
            archive: Decode::decode(r)?,
        })
    }
}

/// A [`crate::Study`] at a round boundary — everything needed to resume it
/// bit-identically. One record serves every objective: the engine state is
/// stored as the run held it, so a single-objective study simply carries
/// no archive. The screening fields stay empty under [`Fidelity::Exact`].
/// The screening RNG needs no cursor of its own: each round's exploration
/// pick is a pure function of `(seed, round start index)`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Checkpoint {
    /// Study seed (with the trial count, the whole `trial_rng` cursor).
    pub(crate) seed: u64,
    /// Trials per round.
    pub(crate) round_size: usize,
    /// Incumbent, convergence curve, invalid count, trials and archive.
    pub(crate) state: EngineState,
    /// Optimizer state at the boundary.
    pub(crate) optimizer: OptimizerState,
    /// The fidelity axis the study ran with.
    pub(crate) fidelity: Fidelity,
    /// Trials that reached the real evaluator so far.
    pub(crate) full_evals: usize,
    /// Trials screened out so far.
    pub(crate) screened_out: usize,
    /// Accumulated `(surrogate score, true guide)` correlation pairs.
    pub(crate) pairs: Vec<(f64, f64)>,
    /// The screener's serialized state ([`crate::Screener::save_state`]).
    pub(crate) screener: Vec<u8>,
}

impl Encode for Checkpoint {
    fn encode(&self, w: &mut Writer) {
        let Checkpoint {
            seed,
            round_size,
            state,
            optimizer,
            fidelity,
            full_evals,
            screened_out,
            pairs,
            screener,
        } = self;
        seed.encode(w);
        round_size.encode(w);
        state.encode(w);
        optimizer.encode(w);
        fidelity.encode(w);
        full_evals.encode(w);
        screened_out.encode(w);
        pairs.encode(w);
        screener.encode(w);
    }
}

impl Decode for Checkpoint {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Checkpoint {
            seed: Decode::decode(r)?,
            round_size: Decode::decode(r)?,
            state: Decode::decode(r)?,
            optimizer: Decode::decode(r)?,
            fidelity: Decode::decode(r)?,
            full_evals: Decode::decode(r)?,
            screened_out: Decode::decode(r)?,
            pairs: Decode::decode(r)?,
            screener: Decode::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::StudyObjective;
    use crate::pareto::MetricDirection::{Maximize, Minimize};

    #[test]
    fn optimizer_states_round_trip() {
        let states = [
            OptimizerState::Random,
            OptimizerState::Opaque,
            OptimizerState::Lcs {
                population: 4,
                personal: vec![None, Some((vec![1, 2], 3.0))],
                global: Some((vec![1, 2], 3.0)),
                next_particle: 2,
                pull_global: 0.35,
                mutate: 0.15,
                pending: vec![(0, vec![5, 6])],
            },
            OptimizerState::Tpe {
                history: vec![(vec![1], Some(2.0)), (vec![0], None)],
                gamma: 0.25,
                candidates: 24,
                startup: 16,
            },
            OptimizerState::Seeded {
                seeds: vec![vec![9, 9]],
                next: 1,
                inner: Box::new(OptimizerState::Random),
            },
        ];
        for s in states {
            assert_eq!(OptimizerState::from_bytes(&s.to_bytes()).unwrap(), s);
        }
    }

    #[test]
    fn archive_round_trips_with_internal_order_preserved() {
        let mut a = ParetoArchive::new(&[Maximize, Minimize]);
        a.insert(vec![0], vec![1.0, 5.0]);
        a.insert(vec![1], vec![2.0, 6.0]);
        a.insert(vec![2], vec![0.5, 1.0]);
        let back = ParetoArchive::from_bytes(&a.to_bytes()).unwrap();
        assert_eq!(back.entries(), a.entries(), "internal order must survive");
        assert_eq!(back.frontier(), a.frontier());
        assert_eq!(back.directions(), a.directions());
    }

    #[test]
    fn archive_decode_rejects_dominated_sets() {
        // Hand-craft an encoding whose entries are not mutually
        // non-dominated: decode must refuse rather than resurrect a
        // corrupt archive.
        let mut w = Writer::new();
        vec![Maximize, Minimize].encode(&mut w);
        vec![
            FrontierPoint { point: vec![0], metrics: vec![2.0, 1.0] },
            FrontierPoint { point: vec![1], metrics: vec![1.0, 2.0] }, // dominated
        ]
        .encode(&mut w);
        assert!(ParetoArchive::from_bytes(&w.into_bytes()).is_err());
    }

    /// A checkpoint of `trials`, its engine state built the way a run
    /// builds it.
    fn checkpoint(
        objective: &StudyObjective,
        trials: Vec<MultiTrial>,
        fidelity: Fidelity,
        optimizer: OptimizerState,
    ) -> Checkpoint {
        let mut state = EngineState::new(objective);
        for t in trials {
            state.absorb(&t.point, &t.result);
            state.push_trial(t.point, t.result);
        }
        Checkpoint {
            seed: 7,
            round_size: 8,
            state,
            optimizer,
            fidelity,
            full_evals: 0,
            screened_out: 0,
            pairs: Vec::new(),
            screener: Vec::new(),
        }
    }

    /// Decoding then re-encoding reproduces the bytes exactly (NaN included,
    /// which `PartialEq` would reject).
    fn assert_round_trips(ck: &Checkpoint) -> Checkpoint {
        let bytes = ck.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back.to_bytes(), bytes);
        back
    }

    #[test]
    fn pareto_checkpoint_round_trips() {
        let ck = checkpoint(
            &StudyObjective::pareto(&[Maximize, Minimize]),
            vec![
                MultiTrial { point: vec![0], result: MultiObjective::Invalid },
                MultiTrial { point: vec![3], result: MultiObjective::valid(vec![1.0, 2.0], 0.5) },
            ],
            Fidelity::Exact,
            OptimizerState::Random,
        );
        let back = assert_round_trips(&ck);
        assert_eq!(back.seed, ck.seed);
        assert_eq!(back.state.trials, ck.state.trials);
        assert_eq!(back.state.best, Some((vec![3], 0.5)));
        assert_eq!(back.state.archive.unwrap().frontier(), ck.state.archive.unwrap().frontier());
        assert!(back.state.convergence[0].is_nan());
        assert_eq!(back.state.convergence[1].to_bits(), 0.5f64.to_bits());
    }

    #[test]
    fn scalar_checkpoint_round_trips() {
        let ck = checkpoint(
            &StudyObjective::Single,
            vec![MultiTrial { point: vec![1, 2], result: MultiObjective::valid(Vec::new(), 9.0) }],
            Fidelity::Exact,
            OptimizerState::Tpe {
                history: vec![(vec![1, 2], Some(9.0))],
                gamma: 0.25,
                candidates: 24,
                startup: 16,
            },
        );
        assert_eq!(assert_round_trips(&ck), ck);
    }

    /// The screening state rides in the same record, and screened-out
    /// trials keep their `Surrogate` outcomes in the trial record itself.
    #[test]
    fn fidelity_checkpoint_round_trips_inside_a_scalar_checkpoint() {
        let mut ck = checkpoint(
            &StudyObjective::Single,
            vec![
                MultiTrial { point: vec![0], result: MultiObjective::valid(Vec::new(), 1.0) },
                MultiTrial { point: vec![1], result: MultiObjective::Surrogate { guide: 0.75 } },
                MultiTrial {
                    point: vec![2],
                    result: MultiObjective::Surrogate { guide: f64::NEG_INFINITY },
                },
            ],
            Fidelity::Screened { keep_fraction: 0.25, min_full: 2, tier: SurrogateTier::S1 },
            OptimizerState::Random,
        );
        ck.full_evals = 6;
        ck.screened_out = 2;
        ck.pairs = vec![(1.5, 2.5), (f64::NEG_INFINITY, 0.0)];
        ck.screener = vec![1, 2, 3];
        assert_eq!(assert_round_trips(&ck), ck);
    }

    #[test]
    fn surrogate_outcomes_and_fidelity_configs_round_trip() {
        for result in [
            MultiObjective::Surrogate { guide: 2.5 },
            MultiObjective::Surrogate { guide: f64::NEG_INFINITY },
        ] {
            let mut w = Writer::new();
            result.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(MultiObjective::decode(&mut r).unwrap(), result);
            assert!(r.is_done());
        }
        for fidelity in [
            Fidelity::Exact,
            Fidelity::Screened { keep_fraction: 0.125, min_full: 2, tier: SurrogateTier::S0 },
            Fidelity::Screened { keep_fraction: 1.0, min_full: 0, tier: SurrogateTier::S1 },
        ] {
            let mut w = Writer::new();
            fidelity.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(Fidelity::decode(&mut r).unwrap(), fidelity);
            assert!(r.is_done());
        }
    }

    #[test]
    fn fidelity_report_round_trips() {
        for report in [
            FidelityReport {
                tier: SurrogateTier::S0,
                keep_fraction: 0.25,
                min_full: 2,
                full_evals: 12,
                screened_out: 36,
                pairs: 12,
                spearman: Some(0.93),
                kendall: Some(0.81),
            },
            FidelityReport {
                tier: SurrogateTier::S1,
                keep_fraction: 1.0,
                min_full: 0,
                full_evals: 48,
                screened_out: 0,
                pairs: 0,
                spearman: None,
                kendall: None,
            },
        ] {
            let mut w = Writer::new();
            report.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(FidelityReport::decode(&mut r).unwrap(), report);
            assert!(r.is_done());
        }
    }
}

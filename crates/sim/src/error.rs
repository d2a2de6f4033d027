//! Scheduling failures (constraint Eq. 5 of the paper).

use std::fmt;

/// Why an op could not be mapped onto the candidate datapath — the
/// *name-free* cause, shared by every op with the same loop nest.
///
/// Keeping the failing op's name out of this type is what makes mapper
/// results cacheable per [`crate::OpKey`]: two ops that are equal up to
/// node names and graph position share one cache entry, and the entry can
/// be surfaced for either of them. [`SimError`] re-attaches the name of
/// the op that actually hit the failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapFailure {
    /// The L1 weight partition cannot hold even one systolic-array weight
    /// tile, so nothing can ever be latched.
    WeightTileDoesNotFit {
        /// Required bytes for one `sa_x × sa_y` tile.
        required: u64,
        /// Available L1 weight bytes.
        available: u64,
    },
    /// The L1 input partition cannot double-buffer one streaming column.
    InputStreamDoesNotFit {
        /// Required bytes.
        required: u64,
        /// Available L1 input bytes.
        available: u64,
    },
    /// The L1 output partition cannot hold one accumulator column.
    OutputTileDoesNotFit {
        /// Required bytes.
        required: u64,
        /// Available L1 output bytes.
        available: u64,
    },
    /// Exact-factorization mode (raw Timeloop semantics, no padding pass) and
    /// a problem dimension does not divide the array dimension.
    DimensionDoesNotFactorize {
        /// The dimension description.
        dim: String,
    },
}

/// A workload could not be mapped onto the candidate datapath: the op that
/// failed plus the structured [`MapFailure`] cause.
///
/// The FAST optimization problem requires `ScheduleFailures(h, w) = 0`
/// (Eq. 5); search trials that produce failures are invalid and rejected by
/// safe search. Callers that need to react to *why* a design is
/// unschedulable (e.g. to distinguish buffer sizing from factorization
/// problems) match on [`SimError::cause`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimError {
    /// Name of the op that failed to map.
    pub op: String,
    /// The name-free cause.
    pub cause: MapFailure,
}

impl MapFailure {
    /// Attaches the name of the op that hit this failure.
    #[must_use]
    pub fn for_op(self, op: &str) -> SimError {
        SimError { op: op.to_string(), cause: self }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = &self.op;
        match &self.cause {
            MapFailure::WeightTileDoesNotFit { required, available } => write!(
                f,
                "op `{op}`: weight tile of {required} B exceeds L1 weight partition of {available} B"
            ),
            MapFailure::InputStreamDoesNotFit { required, available } => write!(
                f,
                "op `{op}`: input stream buffer of {required} B exceeds L1 input partition of {available} B"
            ),
            MapFailure::OutputTileDoesNotFit { required, available } => write!(
                f,
                "op `{op}`: output tile of {required} B exceeds L1 output partition of {available} B"
            ),
            MapFailure::DimensionDoesNotFactorize { dim } => {
                write!(f, "op `{op}`: dimension {dim} does not factorize (padding disabled)")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_contains_op() {
        let e =
            MapFailure::WeightTileDoesNotFit { required: 2048, available: 1024 }.for_op("conv1");
        assert!(e.to_string().contains("conv1"));
        assert!(e.to_string().contains("2048"));
    }

    #[test]
    fn cause_is_matchable_without_the_name() {
        let a = MapFailure::DimensionDoesNotFactorize { dim: "OF 300 vs sa_y 128".into() };
        let e = a.clone().for_op("einsum_3");
        assert_eq!(e.cause, a);
        assert!(matches!(e.cause, MapFailure::DimensionDoesNotFactorize { .. }));
    }
}

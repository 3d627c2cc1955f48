//! Error types for the concurrent-ranging library.

use std::error::Error;
use std::fmt;

/// Errors produced by ranging protocols and detection algorithms.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RangingError {
    /// A detection run was asked for zero responses.
    NoResponsesRequested,
    /// The detector could not find the requested number of responses.
    InsufficientResponses {
        /// Responses requested.
        requested: usize,
        /// Responses found.
        found: usize,
    },
    /// No template bank was supplied to a detector that needs one.
    EmptyTemplateBank,
    /// An invalid upsampling factor.
    InvalidUpsampling {
        /// The rejected factor.
        factor: usize,
    },
    /// A concurrent round completed without a decodable response payload,
    /// so no `d_TWR` anchor is available (Eq. 2).
    NoDecodablePayload,
    /// A ranging round timed out without the expected reception.
    RoundTimeout,
    /// A slot/shape assignment was requested for an ID beyond capacity.
    IdBeyondCapacity {
        /// The rejected responder ID.
        id: u32,
        /// Maximum supported responders.
        capacity: u32,
    },
    /// Invalid scheme parameters (zero slots or zero pulse shapes).
    InvalidSchemeParameters,
    /// A slot index beyond the plan's slot count.
    SlotOutOfRange {
        /// The rejected slot index.
        slot: usize,
        /// Number of slots in the plan.
        n_slots: usize,
    },
    /// A caller-supplied numeric parameter was rejected (non-finite, out
    /// of range).
    InvalidParameter {
        /// The parameter's name.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A CIR handed to a detector holds a NaN or infinite tap.
    NonFiniteCir {
        /// Index of the first non-finite tap.
        tap: usize,
    },
    /// An underlying DSP failure (should not occur with validated inputs).
    Dsp(uwb_dsp::DspError),
    /// An underlying radio-model failure.
    Radio(uwb_radio::RadioError),
    /// An invalid fault-injection plan parameter.
    Fault(uwb_faults::FaultError),
}

impl fmt::Display for RangingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoResponsesRequested => write!(f, "zero responses requested from detector"),
            Self::InsufficientResponses { requested, found } => {
                write!(
                    f,
                    "detector found {found} of {requested} requested responses"
                )
            }
            Self::EmptyTemplateBank => write!(f, "template bank is empty"),
            Self::InvalidUpsampling { factor } => {
                write!(f, "upsampling factor {factor} is invalid")
            }
            Self::NoDecodablePayload => {
                write!(f, "no decodable response payload; d_TWR anchor unavailable")
            }
            Self::RoundTimeout => write!(f, "ranging round timed out"),
            Self::IdBeyondCapacity { id, capacity } => {
                write!(f, "responder id {id} exceeds scheme capacity {capacity}")
            }
            Self::InvalidSchemeParameters => {
                write!(f, "scheme requires at least one slot and one pulse shape")
            }
            Self::SlotOutOfRange { slot, n_slots } => {
                write!(f, "slot {slot} out of range (n_slots = {n_slots})")
            }
            Self::InvalidParameter { name, value } => {
                write!(f, "invalid parameter `{name}` = {value}")
            }
            Self::NonFiniteCir { tap } => write!(f, "CIR tap {tap} is not finite"),
            Self::Dsp(e) => write!(f, "dsp error: {e}"),
            Self::Radio(e) => write!(f, "radio error: {e}"),
            Self::Fault(e) => write!(f, "fault-plan error: {e}"),
        }
    }
}

impl Error for RangingError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Dsp(e) => Some(e),
            Self::Radio(e) => Some(e),
            Self::Fault(e) => Some(e),
            _ => None,
        }
    }
}

impl From<uwb_dsp::DspError> for RangingError {
    fn from(e: uwb_dsp::DspError) -> Self {
        Self::Dsp(e)
    }
}

impl From<uwb_radio::RadioError> for RangingError {
    fn from(e: uwb_radio::RadioError) -> Self {
        Self::Radio(e)
    }
}

impl From<uwb_faults::FaultError> for RangingError {
    fn from(e: uwb_faults::FaultError) -> Self {
        Self::Fault(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = RangingError::InsufficientResponses {
            requested: 3,
            found: 1,
        };
        assert!(e.to_string().contains('3'));
        assert!(e.to_string().contains('1'));
    }

    #[test]
    fn source_chains_for_wrapped_errors() {
        let e = RangingError::from(uwb_dsp::DspError::EmptyInput);
        assert!(e.source().is_some());
        assert!(RangingError::RoundTimeout.source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RangingError>();
    }
}

//! Session-level errors.
//!
//! The original front end `expect()`ed its way through every decode: a malformed
//! merged packet aborted the whole tool.  The paper's scale argument cuts the other
//! way — with 208K endpoints feeding the tree, "one stream was malformed" must be a
//! reportable diagnosis (which channel, which endpoint produced the packet, at what
//! byte offset decoding failed), not a crash.  [`StatError`] carries exactly that
//! context up to the caller of [`crate::session::Session::attach`].

use std::fmt;

use tbon::network::TbonError;
use tbon::packet::EndpointId;

use crate::serialize::DecodeError;

/// The reduction channels a STAT session carries through the overlay in one walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MergeChannel {
    /// The 2D (trace/space) prefix-tree stream.
    Tree2d,
    /// The 3D (trace/space/time) prefix-tree stream.
    Tree3d,
    /// The daemon-order rank-map stream (hierarchical representation only).
    RankMap,
}

impl MergeChannel {
    /// Stable label used in channel tags and error messages.
    pub fn label(self) -> &'static str {
        match self {
            MergeChannel::Tree2d => "2d-tree",
            MergeChannel::Tree3d => "3d-tree",
            MergeChannel::RankMap => "rank-map",
        }
    }
}

impl fmt::Display for MergeChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Everything that can go wrong in a real session, with enough context to say which
/// stream from which endpoint failed and where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StatError {
    /// The overlay network rejected or failed the reduction.
    Reduce(TbonError),
    /// A merged packet arriving at the front end failed to decode.
    Decode {
        /// Which channel the malformed packet belonged to.
        channel: MergeChannel,
        /// The endpoint that produced the packet (for a merged packet, the tree node
        /// whose subtree the payload summarises).
        endpoint: EndpointId,
        /// The underlying wire-format error, including the byte offset.
        source: DecodeError,
    },
    /// The concatenated rank map does not cover every position of the merged tree,
    /// so the front-end remap would invent ranks.
    RankMapMismatch {
        /// Positions the merged tree's domain contains.
        positions: u64,
        /// Entries the concatenated rank map actually supplied.
        mapped: usize,
    },
    /// Overlay faults left no usable session: the front end died or every back-end
    /// daemon was lost, so not even a degraded gather can run.
    SessionNotViable {
        /// Back-end daemons lost to the faults.
        lost_backends: usize,
        /// Back-end daemons the topology originally had.
        total_backends: usize,
    },
    /// A scenario's injected fault addressed an endpoint the planned topology
    /// does not have — e.g. `BackendFromEnd(7)` against a 4-daemon tree.  The
    /// old behaviour silently clamped the index to the last endpoint, which made
    /// two distinct faults indistinguishable; an out-of-range fault is a bug in
    /// the scenario (or the campaign grid) and must surface as such.
    FaultOutOfRange {
        /// What kind of endpoint was addressed (`"backend"`, `"comm-process"`,
        /// `"mid-tree filter"`).
        kind: &'static str,
        /// The from-the-end index the fault asked for.
        index: usize,
        /// How many endpoints of that kind the topology actually has.
        width: usize,
    },
    /// A session was configured in a way that cannot produce a diagnosis — e.g.
    /// zero samples per task, which would gather nothing and return a silently
    /// empty result.
    InvalidConfig {
        /// The builder setting at fault (`"samples_per_task"`).
        setting: &'static str,
        /// The value it was given.
        value: u64,
        /// What the setting requires.
        requirement: &'static str,
    },
}

impl fmt::Display for StatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatError::Reduce(err) => write!(f, "overlay reduction failed: {err}"),
            StatError::Decode {
                channel,
                endpoint,
                source,
            } => write!(
                f,
                "front end could not decode the merged `{channel}` packet from {endpoint}: {source}"
            ),
            StatError::RankMapMismatch { positions, mapped } => write!(
                f,
                "rank map covers {mapped} positions but the merged tree has {positions}; \
                 the remap step cannot restore MPI rank order"
            ),
            StatError::SessionNotViable {
                lost_backends,
                total_backends,
            } => write!(
                f,
                "overlay faults lost {lost_backends} of {total_backends} daemons (or the \
                 front end itself); no degraded session can be formed"
            ),
            StatError::FaultOutOfRange { kind, index, width } => write!(
                f,
                "injected {kind} fault addresses index {index} from the end, but the \
                 topology only has {width} such endpoints"
            ),
            StatError::InvalidConfig {
                setting,
                value,
                requirement,
            } => write!(
                f,
                "session setting `{setting}` = {value} is invalid: {requirement}"
            ),
        }
    }
}

impl std::error::Error for StatError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StatError::Reduce(err) => Some(err),
            StatError::Decode { source, .. } => Some(source),
            StatError::RankMapMismatch { .. }
            | StatError::SessionNotViable { .. }
            | StatError::FaultOutOfRange { .. }
            | StatError::InvalidConfig { .. } => None,
        }
    }
}

impl From<TbonError> for StatError {
    fn from(err: TbonError) -> Self {
        StatError::Reduce(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_channel_endpoint_and_offset() {
        let err = StatError::Decode {
            channel: MergeChannel::Tree3d,
            endpoint: EndpointId(7),
            source: DecodeError::Truncated { offset: 42 },
        };
        let text = err.to_string();
        assert!(text.contains("3d-tree"));
        assert!(text.contains("ep7"));
        assert!(text.contains("42"));
    }

    #[test]
    fn fault_out_of_range_names_the_kind_and_widths() {
        let err = StatError::FaultOutOfRange {
            kind: "comm-process",
            index: 9,
            width: 4,
        };
        let text = err.to_string();
        assert!(text.contains("comm-process"));
        assert!(text.contains('9'));
        assert!(text.contains('4'));
        assert!(std::error::Error::source(&err).is_none());
    }

    #[test]
    fn invalid_config_names_the_setting_and_requirement() {
        let err = StatError::InvalidConfig {
            setting: "samples_per_task",
            value: 0,
            requirement: "at least one sample per task",
        };
        let text = err.to_string();
        assert!(text.contains("samples_per_task"));
        assert!(text.contains("at least one sample"));
        assert!(std::error::Error::source(&err).is_none());
    }

    #[test]
    fn tbon_errors_convert_with_context_preserved() {
        let err: StatError = TbonError::LeafCountMismatch {
            channel: "rank-map",
            expected: 16,
            actual: 15,
        }
        .into();
        assert!(err.to_string().contains("rank-map"));
        assert!(std::error::Error::source(&err).is_some());
    }
}

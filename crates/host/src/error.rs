//! Error type shared by the host runtime.

use pefp_fpga::FaultEvent;
use std::fmt;

/// Errors produced by the host-side runtime.
#[derive(Debug)]
pub enum HostError {
    /// Loading or parsing a graph file failed.
    GraphLoad(String),
    /// A query string could not be parsed.
    QueryParse(String),
    /// A query referenced vertices outside the loaded graph or an unsupported
    /// hop constraint.
    QueryInvalid(String),
    /// A serialised device payload was malformed (bad magic, version,
    /// truncation or checksum mismatch).
    PayloadCorrupt(String),
    /// The prepared payload does not fit into the device DRAM.
    DeviceCapacity(String),
    /// No graph has been loaded into the session yet.
    NoGraphLoaded,
    /// The runtime's admission queue is full; the submission was rejected
    /// instead of blocking (backpressure — retry later or shed load).
    QueueFull,
    /// The job was cancelled (its ticket was dropped or explicitly cancelled,
    /// or the runtime shut down) before it produced a result.
    Cancelled,
    /// A device fault killed the job after every retry was exhausted (or the
    /// job could not be retried). Carries the last detected [`FaultEvent`]
    /// (which CU, what kind, at which cycle), the graph epoch the job ran
    /// against, and how many retries were attempted; the event is also
    /// exposed through [`std::error::Error::source`].
    DeviceFault {
        /// The last fault the detectors latched for this job.
        event: FaultEvent,
        /// Graph epoch the job was admitted under.
        epoch: u64,
        /// Device retries attempted before giving up.
        retries: u32,
    },
    /// A *streaming* job faulted after paths had already been delivered to
    /// the client. Replaying would re-emit those paths (duplicates) and
    /// suppressing the replay would drop the rest, so the runtime surfaces
    /// the fault instead and lets the caller restart the stream.
    FaultAfterEmit {
        /// The fault that aborted the stream.
        event: FaultEvent,
        /// Paths already delivered before the fault.
        emitted: u64,
    },
    /// The job exceeded its deadline and was killed by the runtime watchdog.
    DeadlineExceeded {
        /// The deadline that was missed, in milliseconds.
        millis: u64,
    },
    /// Every compute unit is quarantined (and CPU fallback is disabled), so
    /// the job could not be placed anywhere.
    NoHealthyCu {
        /// Number of quarantined CUs at rejection time.
        quarantined: usize,
    },
    /// The job was dropped before it completed: its worker panicked while
    /// running it. The worker survives and serves the next job.
    Abandoned,
}

impl fmt::Display for HostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostError::GraphLoad(msg) => write!(f, "graph load failed: {msg}"),
            HostError::QueryParse(msg) => write!(f, "cannot parse query: {msg}"),
            HostError::QueryInvalid(msg) => write!(f, "invalid query: {msg}"),
            HostError::PayloadCorrupt(msg) => write!(f, "corrupt device payload: {msg}"),
            HostError::DeviceCapacity(msg) => write!(f, "device capacity exceeded: {msg}"),
            HostError::NoGraphLoaded => write!(f, "no graph loaded in this session"),
            HostError::QueueFull => write!(f, "admission queue full: submission rejected"),
            HostError::Cancelled => write!(f, "job cancelled before completion"),
            HostError::DeviceFault { event, epoch, retries } => {
                write!(f, "device fault after {retries} retries (epoch {epoch}): {event}")
            }
            HostError::FaultAfterEmit { event, emitted } => write!(
                f,
                "stream aborted by device fault after {emitted} paths were delivered: {event}"
            ),
            HostError::DeadlineExceeded { millis } => {
                write!(f, "job exceeded its {millis} ms deadline and was killed")
            }
            HostError::NoHealthyCu { quarantined } => {
                write!(f, "no healthy compute unit ({quarantined} quarantined) and CPU fallback is disabled")
            }
            HostError::Abandoned => {
                write!(f, "job abandoned: its worker panicked while running it")
            }
        }
    }
}

impl std::error::Error for HostError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HostError::DeviceFault { event, .. } | HostError::FaultAfterEmit { event, .. } => {
                Some(event)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pefp_fpga::FaultKind;

    fn event() -> FaultEvent {
        FaultEvent { cu: 2, kind: FaultKind::DramCorruption, at_cycle: 77 }
    }

    #[test]
    fn display_messages_identify_the_error_class() {
        let cases: Vec<(HostError, &str)> = vec![
            (HostError::GraphLoad("x".into()), "graph load failed"),
            (HostError::QueryParse("x".into()), "cannot parse query"),
            (HostError::QueryInvalid("x".into()), "invalid query"),
            (HostError::PayloadCorrupt("x".into()), "corrupt device payload"),
            (HostError::DeviceCapacity("x".into()), "device capacity exceeded"),
            (HostError::NoGraphLoaded, "no graph loaded"),
            (HostError::QueueFull, "admission queue full"),
            (HostError::Cancelled, "cancelled"),
            (HostError::DeviceFault { event: event(), epoch: 3, retries: 2 }, "device fault"),
            (HostError::FaultAfterEmit { event: event(), emitted: 5 }, "stream aborted"),
            (HostError::DeadlineExceeded { millis: 250 }, "deadline"),
            (HostError::NoHealthyCu { quarantined: 4 }, "no healthy compute unit"),
            (HostError::Abandoned, "worker panicked"),
        ];
        for (err, needle) in cases {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn fault_errors_carry_their_context() {
        let err = HostError::DeviceFault { event: event(), epoch: 9, retries: 2 };
        let text = err.to_string();
        assert!(text.contains("CU 2"), "{text}");
        assert!(text.contains("epoch 9"), "{text}");
        assert!(text.contains("2 retries"), "{text}");

        let err = HostError::FaultAfterEmit { event: event(), emitted: 41 };
        assert!(err.to_string().contains("41 paths"), "{err}");
    }

    #[test]
    fn fault_errors_expose_the_event_as_their_source() {
        use std::error::Error;
        let err = HostError::DeviceFault { event: event(), epoch: 0, retries: 0 };
        let source = err.source().expect("device faults have a cause");
        assert!(source.to_string().contains("DRAM"), "{source}");
        assert!(HostError::QueueFull.source().is_none());
    }

    #[test]
    fn error_trait_object_is_usable() {
        let err: Box<dyn std::error::Error> = Box::new(HostError::NoGraphLoaded);
        assert!(!err.to_string().is_empty());
    }
}

//! The root's computational transcript (paper §1.2.1 and §3).
//!
//! "At each step of the protocol, the root is piping its computational
//! transcript to the computer to which it is attached." These events are
//! exactly what the master computer needs (Lemma 4.1): the port-pair hops
//! of the canonical shortest paths as the root converts IG→OG and ID→OD,
//! plus the FORWARD/BACK loop tokens, plus the root-local DFS moves that
//! never touch the network (README, reconstruction choice 2).

use gtd_netsim::Port;
use gtd_snake::Hop;

/// What an RCA reports to the root (paper §3: δ² FORWARD variants + BACK).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RcaReport {
    /// The DFS token moved forward: out of `out_port` of the previous
    /// holder, into `in_port` of the reporting processor.
    Forward {
        /// Sender's out-port.
        out_port: Port,
        /// Receiver's in-port.
        in_port: Port,
    },
    /// The DFS token moved backwards (via the BCA).
    Back,
}

/// One transcript symbol piped from the root to its master computer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TranscriptEvent {
    /// Protocol initiated (the outside source nudged the root).
    Start,
    /// One hop of the canonical path A→root, read off the IG snake as it is
    /// converted to an OG snake (RCA step 2; Lemma 4.1).
    IgHop(Hop),
    /// The IG tail passed: the A→root path is complete.
    IgTail,
    /// One hop of the canonical path root→A, read off the ID snake as it is
    /// converted to an OD snake (RCA step 3; Lemma 4.1).
    IdHop(Hop),
    /// The ID tail passed: the root→A path is complete.
    IdTail,
    /// A FORWARD loop token passed the root.
    LoopForward {
        /// Out-port of the previous DFS holder.
        out_port: Port,
        /// In-port of the reporting processor.
        in_port: Port,
    },
    /// A BACK loop token passed the root.
    LoopBack,
    /// The DFS token re-entered the root through a forward edge
    /// (out-port of sender, in-port of root); transcribed locally.
    LocalForward {
        /// Out-port of the previous DFS holder.
        out_port: Port,
        /// Root's in-port.
        in_port: Port,
    },
    /// The DFS token returned to the root via a BCA; transcribed locally.
    LocalBack,
    /// The root finished all its out-ports: the DFS — and the protocol —
    /// is over ("the root enters a special terminal state").
    Terminated,

    // ---- auxiliary events (not part of the paper's transcript; emitted by
    // non-root processors for the experiment harness and tests) ----
    /// A standalone RCA probe finished at its initiator.
    RcaComplete,
    /// A standalone BCA probe finished at its initiator (B side).
    BcaComplete,
    /// A BCA payload was acted upon at its target (A side).
    BcaDelivered,
}

impl TranscriptEvent {
    /// Is this one of the auxiliary probe events (vs the paper's transcript)?
    pub fn is_probe(&self) -> bool {
        matches!(
            self,
            TranscriptEvent::RcaComplete
                | TranscriptEvent::BcaComplete
                | TranscriptEvent::BcaDelivered
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_classification() {
        assert!(TranscriptEvent::RcaComplete.is_probe());
        assert!(TranscriptEvent::BcaComplete.is_probe());
        assert!(TranscriptEvent::BcaDelivered.is_probe());
        assert!(!TranscriptEvent::Start.is_probe());
        assert!(!TranscriptEvent::LoopBack.is_probe());
        assert!(!TranscriptEvent::Terminated.is_probe());
    }

    #[test]
    fn events_compare_by_payload() {
        let evs = [
            TranscriptEvent::Start,
            TranscriptEvent::IgHop(Hop::new(Port(1), Port(0))),
            TranscriptEvent::IgHop(Hop::new(Port(0), Port(1))),
            TranscriptEvent::IgTail,
            TranscriptEvent::LoopForward {
                out_port: Port(2),
                in_port: Port(1),
            },
            TranscriptEvent::LoopForward {
                out_port: Port(1),
                in_port: Port(2),
            },
            TranscriptEvent::LocalBack,
            TranscriptEvent::Terminated,
        ];
        for (i, a) in evs.iter().enumerate() {
            for (j, b) in evs.iter().enumerate() {
                assert_eq!(a == b, i == j, "{a:?} vs {b:?}");
            }
        }
    }
}

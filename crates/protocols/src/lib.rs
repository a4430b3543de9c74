//! # cb-protocols — the distributed systems CrystalBall is evaluated on
//!
//! Rust ports of the four Mace services from the paper's evaluation (§5),
//! each with the paper's inconsistencies *re-injected* behind config flags:
//!
//! * [`randtree`] — the random overlay tree of §1.2/§5.2.1 (7 bugs, R1–R7),
//! * [`chord`] — the Chord DHT of §5.2.2 (3 bugs, C1–C3),
//! * [`bullet`] — the Bullet' file-distribution mesh of §5.2.3 (3 bugs,
//!   B1–B3),
//! * [`paxos`] — the Paxos consensus protocol of §5.4.2 (2 injected bugs,
//!   P1–P2).
//!
//! Every protocol implements [`cb_model::Protocol`], so the *same handler
//! code* runs under the live runtime (`cb-runtime`) and inside the model
//! checker (`cb-mc`) — the property CrystalBall's online prediction relies
//! on. Each module also exports the paper's safety properties for its
//! protocol and a `*Bugs` struct; `Bugs::as_shipped()` reproduces the
//! behaviour of the Mace implementations the paper studied, `Bugs::none()`
//! is the corrected code (the "possible corrections" of §5.2).

#![forbid(unsafe_code)]

pub mod bullet;
pub mod chord;
pub mod paxos;
pub mod randtree;
pub mod ring;

pub use bullet::{Bullet, BulletBugs};
pub use chord::{Chord, ChordBugs};
pub use paxos::{Paxos, PaxosBugs};
pub use randtree::{RandTree, RandTreeBugs};

/// The kind tables ([`cb_model::Protocol::message_kinds`] /
/// [`cb_model::Protocol::action_kinds`]) must cover every variant's kind,
/// or a wire-shipped event filter for that kind would be rejected by the
/// receiving live node. One exhaustive check per protocol.
#[cfg(test)]
mod kind_table_tests {
    use cb_model::{NodeId, Protocol};

    fn assert_covered<P: Protocol>(
        proto: &P,
        msgs: &[P::Message],
        acts: &[P::Action],
        msg_variants: usize,
        act_variants: usize,
    ) {
        assert_eq!(msgs.len(), msg_variants, "sample every message variant");
        assert_eq!(acts.len(), act_variants, "sample every action variant");
        for m in msgs {
            let kind = P::message_kind(m);
            assert!(
                proto.message_kinds().contains(&kind),
                "{}: message kind {kind} missing from table",
                proto.name()
            );
        }
        for a in acts {
            let kind = P::action_kind(a);
            assert!(
                proto.action_kinds().contains(&kind),
                "{}: action kind {kind} missing from table",
                proto.name()
            );
        }
    }

    #[test]
    fn randtree_kind_table_is_exhaustive() {
        use crate::randtree::{Action, Msg};
        let n = NodeId(1);
        assert_covered(
            &crate::RandTree::default(),
            &[
                Msg::Join {
                    joiner: n,
                    forwarded_down: false,
                },
                Msg::JoinReply {
                    root: n,
                    siblings: vec![],
                },
                Msg::UpdateSibling { sibling: n },
                Msg::NewRoot { root: n },
                Msg::Probe,
                Msg::ProbeReply,
            ],
            &[Action::Join { target: n }, Action::RecoveryTimer],
            6,
            2,
        );
    }

    #[test]
    fn paxos_kind_table_is_exhaustive() {
        use crate::paxos::{Action, Msg};
        assert_covered(
            &crate::Paxos::new(
                vec![NodeId(0), NodeId(1), NodeId(2)],
                crate::paxos::PaxosBugs::none(),
            ),
            &[
                Msg::Prepare { round: 1 },
                Msg::Promise {
                    round: 1,
                    last: None,
                },
                Msg::Accept { round: 1, value: 7 },
                Msg::Learn { round: 1, value: 7 },
            ],
            &[Action::Propose, Action::ResendAccept, Action::Crash],
            4,
            3,
        );
    }

    #[test]
    fn chord_kind_table_is_exhaustive() {
        use crate::chord::{Action, Msg};
        let n = NodeId(1);
        assert_covered(
            &crate::Chord::default(),
            &[
                Msg::FindPred { joiner: n },
                Msg::FindPredReply { succs: vec![n] },
                Msg::UpdatePred,
                Msg::GetPred,
                Msg::GetPredReply {
                    pred: None,
                    succs: vec![],
                },
            ],
            &[Action::Join { target: n }, Action::Stabilize],
            5,
            2,
        );
    }

    #[test]
    fn bullet_kind_table_is_exhaustive() {
        use crate::bullet::{Action, Msg};
        assert_covered(
            &crate::Bullet::with_mesh(
                &[NodeId(0), NodeId(1), NodeId(2)],
                2,
                4,
                crate::bullet::BulletBugs::none(),
            ),
            &[
                Msg::Diff { blocks: vec![1] },
                Msg::DiffAck,
                Msg::Request { block: 1 },
                Msg::Data { block: 1 },
            ],
            &[Action::SendDiff { peer: NodeId(2) }, Action::RequestBlocks],
            4,
            2,
        );
    }
}

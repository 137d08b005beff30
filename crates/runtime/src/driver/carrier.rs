//! Carriers: what a simulated [`crate::Community`] moves between hosts.
//!
//! Every simulated community runs on the one `openwf-simnet` kernel; the
//! *carrier* is the message type that kernel moves, chosen by the
//! community's type:
//!
//! * [`Msg`] — typed protocol messages, `Arc<Fragment>` payloads shared
//!   in-process, sized by the
//!   [`Msg::wire_size`](openwf_simnet::Message::wire_size) estimate. The default,
//!   and what every §5 experiment runs on.
//! * [`WireFrame`] — every message crosses host boundaries as one
//!   complete `openwf-wire` frame: encoded by the sending core
//!   ([`OutboundMode::Encoded`]) and decoded on delivery through the
//!   **receiving** host's vocabulary trust boundary
//!   ([`HostCore::handle_frame`]), exactly what a networked deployment
//!   does. The kernel charges the frame's exact length, and only frames
//!   can be bit-flipped or truncated by the fault model.
//!
//! The kernel, clock, busy-host discipline and fault draws are shared,
//! so a scenario produces **bit-identical supergraphs and workflow
//! outcomes** on either carrier (property-tested in
//! `tests/driver_equivalence.rs`).

use openwf_simnet::{Damage, HostId, Message, SimTime};
use rand::RngExt;

use crate::codec;
use crate::core_sm::{ActionQueue, HostCore, OutboundMode};
use crate::messages::Msg;

/// The message type a simulated community moves between hosts.
pub trait Carrier: Message {
    /// How cores on this carrier emit their protocol messages.
    const OUTBOUND: OutboundMode;

    /// Carries a typed message a core emitted.
    fn from_msg(msg: Msg) -> Self;

    /// Carries an encoded frame a core emitted; `None` loses it like
    /// transport loss.
    fn from_frame(bytes: Vec<u8>) -> Option<Self>;

    /// Hands one delivered message to the receiving core.
    fn deliver(self, core: &mut HostCore, from: HostId, now: SimTime) -> ActionQueue;
}

impl Carrier for Msg {
    const OUTBOUND: OutboundMode = OutboundMode::Typed;

    fn from_msg(msg: Msg) -> Self {
        msg
    }

    /// A core someone switched to [`OutboundMode::Encoded`] still works
    /// on typed communities: its own encoder produced the frame, so
    /// decoding cannot mint foreign names and needs no budget.
    fn from_frame(bytes: Vec<u8>) -> Option<Self> {
        codec::decode_msg(&bytes, &mut openwf_wire::VocabularyBudget::unlimited())
            .ok()
            .map(|(msg, _)| msg)
    }

    fn deliver(self, core: &mut HostCore, from: HostId, now: SimTime) -> ActionQueue {
        core.handle_msg(from, self, now)
    }
}

/// One complete encoded `TAG_MSG` frame (see [`codec::encode_msg`]).
#[derive(Clone, Debug)]
pub struct WireFrame(pub Vec<u8>);

impl Message for WireFrame {
    /// Exact bytes, not an estimate.
    fn wire_size(&self) -> usize {
        self.0.len()
    }

    fn damage(&mut self, damage: Damage, rng: &mut dyn rand::Rng) -> bool {
        let len = self.0.len();
        if len == 0 {
            return false;
        }
        match damage {
            Damage::Corrupt => {
                let idx = rng.random_range(0..len);
                let bit = rng.random_range(0..8u32);
                self.0[idx] ^= 1 << bit;
            }
            Damage::Truncate => {
                let keep = rng.random_range(0..len);
                self.0.truncate(keep);
            }
        }
        true
    }
}

impl Carrier for WireFrame {
    const OUTBOUND: OutboundMode = OutboundMode::Encoded;

    /// A typed send from a core left in [`OutboundMode::Typed`] is
    /// encoded here rather than lost.
    fn from_msg(msg: Msg) -> Self {
        let mut bytes = Vec::new();
        codec::encode_msg(&msg, &mut bytes);
        WireFrame(bytes)
    }

    fn from_frame(bytes: Vec<u8>) -> Option<Self> {
        Some(WireFrame(bytes))
    }

    fn deliver(self, core: &mut HostCore, from: HostId, now: SimTime) -> ActionQueue {
        core.handle_frame(from, &self.0, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openwf_core::{Fragment, Spec};
    use openwf_simnet::{NetStats, SimDuration};

    use crate::community::{Community, CommunityBuilder};
    use crate::core_sm::{HostConfig, WorkflowEvent};
    use crate::driver::Driver;
    use crate::service::ServiceDescription;

    fn frag(id: &str, task: &str, input: &str, output: &str) -> Fragment {
        Fragment::single_task(id, task, openwf_core::Mode::Disjunctive, [input], [output]).unwrap()
    }

    fn service(task: &str) -> ServiceDescription {
        ServiceDescription::new(task, SimDuration::from_millis(5))
    }

    fn bytes_community(configs: Vec<HostConfig>) -> Community<WireFrame> {
        CommunityBuilder::new(0).hosts(configs).build_bytes()
    }

    // Test-only sugar.
    impl HostConfig {
        fn with_fragments_from(mut self, frags: impl IntoIterator<Item = Fragment>) -> Self {
            for f in frags {
                self = self.with_fragment(f);
            }
            self
        }
    }

    /// Knowledge and capability split across two hosts: cooperation is
    /// mandatory, and every hop crosses the wire as encoded frames.
    #[test]
    fn two_hosts_cooperate_over_encoded_frames() {
        let mut community = bytes_community(vec![
            HostConfig::new()
                .with_fragment(frag("lb-f1", "lb-t1", "lb-a", "lb-b"))
                .with_service(service("lb-t2")),
            HostConfig::new()
                .with_fragment(frag("lb-f2", "lb-t2", "lb-b", "lb-c"))
                .with_service(service("lb-t1")),
        ]);
        let initiator = community.hosts()[0];
        let handle = community.submit(initiator, Spec::new(["lb-a"], ["lb-c"]));
        let report = community.run_until_complete(handle);
        assert!(
            matches!(report.status, crate::report::ProblemStatus::Completed),
            "report: {report}"
        );
        let find = |t: &str| {
            report
                .assignments
                .iter()
                .find(|(task, _)| task.as_str() == t)
                .map(|(_, h)| *h)
        };
        assert_eq!(find("lb-t1"), Some(HostId(1)));
        assert_eq!(find("lb-t2"), Some(HostId(0)));
        // Everything traveled as real wire bytes.
        let stats = community.stats();
        assert!(stats.delivered > 4, "stats: {stats:?}");
        assert!(stats.bytes_delivered > 200, "stats: {stats:?}");
        assert!(community
            .all_events()
            .iter()
            .any(|(h, e)| *h == initiator && matches!(e, WorkflowEvent::Completed { .. })));
    }

    /// A capped host on the wire rejects an over-minting peer at frame
    /// decode, and the round still completes via timeout.
    #[test]
    fn capped_host_survives_minting_peer_on_the_wire() {
        let mut community = bytes_community(vec![
            HostConfig::new()
                .with_fragment(frag("lbc-f1", "lbc-t1", "lbc-a", "lbc-b"))
                .with_service(service("lbc-t1"))
                .with_vocabulary_cap(8),
            // This peer's knowhow mints far past the initiator's cap.
            HostConfig::new().with_fragments_from((0..16).map(|i| {
                frag(
                    &format!("lbc-mint-f{i}"),
                    &format!("lbc-mint-t{i}"),
                    "lbc-a",
                    &format!("lbc-mint-out{i}"),
                )
            })),
        ]);
        let initiator = community.hosts()[0];
        let handle = community.submit(initiator, Spec::new(["lbc-a"], ["lbc-b"]));
        let report = community.run_until_complete(handle);
        assert!(
            matches!(report.status, crate::report::ProblemStatus::Completed),
            "local knowhow suffices: {report}"
        );
        assert!(
            community.core(initiator).vocabulary_rejections() >= 1,
            "the minting reply was rejected at decode"
        );
    }

    /// The full quarantine story over the wire: a flooding peer minting
    /// past the initiator's vocabulary budget is quarantined once its
    /// rejection count crosses `max_vocabulary_rejections`, the event is
    /// surfaced, and the honest cooperation still completes.
    #[test]
    fn flooding_peer_is_quarantined_end_to_end() {
        let flood = |prefix: &str, input: &str| -> Vec<Fragment> {
            (0..8)
                .map(|i| {
                    frag(
                        &format!("{prefix}-f{i}"),
                        &format!("{prefix}-t{i}"),
                        input,
                        &format!("{prefix}-out{i}"),
                    )
                })
                .collect()
        };
        let mut community = bytes_community(vec![
            HostConfig::new()
                .with_fragment(frag("lbq-f1", "lbq-t1", "lbq-a", "lbq-b"))
                .with_service(service("lbq-t2"))
                .with_vocabulary_cap(16)
                .with_max_vocabulary_rejections(2),
            HostConfig::new()
                .with_fragment(frag("lbq-f2", "lbq-t2", "lbq-b", "lbq-c"))
                .with_service(service("lbq-t1")),
            // The flooder mints fresh symbols keyed to both the
            // spec input and the intermediate label, so it offends
            // in every query wave of the construction.
            HostConfig::new()
                .with_fragments_from(flood("lbq-mint-a", "lbq-a"))
                .with_fragments_from(flood("lbq-mint-b", "lbq-b")),
        ]);
        let initiator = community.hosts()[0];
        let flooder = HostId(2);
        let handle = community.submit(initiator, Spec::new(["lbq-a"], ["lbq-c"]));
        let report = community.run_until_complete(handle);
        assert!(
            matches!(report.status, crate::report::ProblemStatus::Completed),
            "honest peers complete despite the flooder: {report}"
        );
        let core = community.core(initiator);
        assert!(
            core.is_quarantined(flooder),
            "rejections seen: {}",
            core.vocabulary_rejections()
        );
        assert!(
            !core.is_quarantined(HostId(1)),
            "the honest peer must stay trusted"
        );
        assert!(
            community.all_events().iter().any(|(h, e)| *h == initiator
                && matches!(e, WorkflowEvent::PeerQuarantined { peer, .. } if *peer == flooder)),
            "quarantine surfaces as a workflow event"
        );
    }

    /// A wire storm (drops, bit flips, truncation, duplication) never
    /// panics the decode path, and the whole run — outcome and damage
    /// counters alike — is a deterministic function of the kernel seed.
    #[test]
    fn wire_chaos_is_deterministic_and_panic_free() {
        let run = |seed: u64| -> (String, NetStats) {
            let mut community = CommunityBuilder::new(seed)
                .host(
                    HostConfig::new()
                        .with_fragment(frag("lwx-f1", "lwx-t1", "lwx-a", "lwx-b"))
                        .with_service(service("lwx-t2")),
                )
                .host(
                    HostConfig::new()
                        .with_fragment(frag("lwx-f2", "lwx-t2", "lwx-b", "lwx-c"))
                        .with_service(service("lwx-t1")),
                )
                .build_bytes();
            let faults = community.net_mut().faults_mut();
            faults.set_drop_probability(0.05);
            faults.set_corrupt_probability(0.25);
            faults.set_truncate_probability(0.10);
            faults.set_duplicate_probability(0.25);
            let initiator = community.hosts()[0];
            let handle = community.submit(initiator, Spec::new(["lwx-a"], ["lwx-c"]));
            let report = community.run_until_complete(handle);
            community.run_until_quiescent();
            (format!("{:?}", report.status), community.stats())
        };
        let (status_a, stats_a) = run(0xC0FFEE);
        let (status_b, stats_b) = run(0xC0FFEE);
        assert_eq!(status_a, status_b, "same seed, same outcome");
        assert_eq!(stats_a, stats_b, "same seed, same wire trace");
        let damage = stats_a.dropped + stats_a.corrupted + stats_a.truncated + stats_a.duplicated;
        assert!(damage > 0, "the storm left a mark: {stats_a:?}");
        let (_, stats_c) = run(0xBEEF);
        assert_ne!(stats_a, stats_c, "different seeds take different traces");
    }
}

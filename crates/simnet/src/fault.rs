//! Fault injection: message loss, byte damage, duplication, reordering
//! and host crashes.
//!
//! Used by the robustness tests, the workflow-repair experiment (E6 in
//! DESIGN.md) and the chaos soak harness: a crashed host silently stops
//! receiving and sending, as a powered-off device would; lossy links drop
//! messages with a configured probability (globally or per directed link,
//! so asymmetric paths are expressible); corruption flips a bit and
//! truncation cuts a message short (only messages that are encoded bytes
//! can be damaged, see [`crate::Message::damage`]); duplication
//! re-delivers a copy of a message with its own independent latency;
//! reordering adds random extra jitter so later sends can overtake
//! earlier ones.
//!
//! All decisions draw from the kernel RNG **only when the corresponding
//! probability is non-zero**, so configurations that leave a fault class
//! off reproduce the exact event sequence of a fault-free run.

use std::collections::{HashMap, HashSet};
use std::fmt;

use rand::RngExt;

use crate::message::HostId;
use crate::time::SimDuration;

fn assert_probability(p: f64) {
    assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
}

/// Configurable fault plan consulted by the network kernel.
#[derive(Clone, Default)]
pub struct FaultInjector {
    drop_probability: f64,
    /// Per-directed-link drop overrides; consulted before the global
    /// probability, so a single noisy (or one-way) path can sit inside an
    /// otherwise clean mesh.
    link_drop: HashMap<(HostId, HostId), f64>,
    crashed: HashSet<HostId>,
    corrupt_probability: f64,
    truncate_probability: f64,
    duplicate_probability: f64,
    reorder_probability: f64,
    reorder_max_jitter: SimDuration,
}

impl FaultInjector {
    /// No faults.
    pub fn none() -> Self {
        FaultInjector::default()
    }

    /// Sets the independent per-message drop probability (0.0–1.0).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn set_drop_probability(&mut self, p: f64) {
        assert_probability(p);
        self.drop_probability = p;
    }

    /// The configured global drop probability.
    pub fn drop_probability(&self) -> f64 {
        self.drop_probability
    }

    /// Overrides the drop probability for the directed link `from → to`.
    /// The reverse direction keeps its own setting, so asymmetric links
    /// (fine downstream, lossy upstream) are one call per direction.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn set_link_drop(&mut self, from: HostId, to: HostId, p: f64) {
        assert_probability(p);
        self.link_drop.insert((from, to), p);
    }

    /// Removes a per-link override (the global probability applies again).
    pub fn clear_link_drop(&mut self, from: HostId, to: HostId) {
        self.link_drop.remove(&(from, to));
    }

    /// Removes every per-link override.
    pub fn clear_link_drops(&mut self) {
        self.link_drop.clear();
    }

    /// Number of directed links with an override.
    pub fn link_drop_count(&self) -> usize {
        self.link_drop.len()
    }

    /// The drop probability in effect for `from → to`.
    pub fn effective_drop_probability(&self, from: HostId, to: HostId) -> f64 {
        self.link_drop
            .get(&(from, to))
            .copied()
            .unwrap_or(self.drop_probability)
    }

    /// Sets the probability that one random bit of a routed message is
    /// flipped.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn set_corrupt_probability(&mut self, p: f64) {
        assert_probability(p);
        self.corrupt_probability = p;
    }

    /// Sets the probability that a routed message is cut short at a
    /// random length.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn set_truncate_probability(&mut self, p: f64) {
        assert_probability(p);
        self.truncate_probability = p;
    }

    /// Sets the probability that a routed message is delivered twice.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn set_duplicate_probability(&mut self, p: f64) {
        assert_probability(p);
        self.duplicate_probability = p;
    }

    /// The configured duplication probability.
    pub fn duplicate_probability(&self) -> f64 {
        self.duplicate_probability
    }

    /// Configures reordering storms: with probability `p` a message picks
    /// up extra delivery jitter uniform in `[0, max_jitter]`, letting later
    /// sends overtake it.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn set_reorder(&mut self, p: f64, max_jitter: SimDuration) {
        assert_probability(p);
        self.reorder_probability = p;
        self.reorder_max_jitter = max_jitter;
    }

    /// Marks a host as crashed: it no longer sends or receives.
    pub fn crash(&mut self, host: HostId) {
        self.crashed.insert(host);
    }

    /// Revives a crashed host (its state is whatever it was — the paper's
    /// "participant is free to roam" model has no amnesia on reconnect).
    pub fn revive(&mut self, host: HostId) {
        self.crashed.remove(&host);
    }

    /// True if the host is currently crashed.
    pub fn is_crashed(&self, host: HostId) -> bool {
        self.crashed.contains(&host)
    }

    /// The currently crashed hosts, ascending.
    pub fn crashed_hosts(&self) -> Vec<HostId> {
        let mut ids: Vec<HostId> = self.crashed.iter().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Decides whether a message from `from` to `to` is lost.
    pub fn should_drop(&self, from: HostId, to: HostId, rng: &mut dyn rand::Rng) -> bool {
        if self.is_crashed(from) || self.is_crashed(to) {
            return true;
        }
        let p = self.effective_drop_probability(from, to);
        p > 0.0 && rng.random_bool(p)
    }

    /// Decides whether a routed message has a bit flipped.
    pub fn should_corrupt(&self, rng: &mut dyn rand::Rng) -> bool {
        self.corrupt_probability > 0.0 && rng.random_bool(self.corrupt_probability)
    }

    /// Decides whether a routed message is cut short.
    pub fn should_truncate(&self, rng: &mut dyn rand::Rng) -> bool {
        self.truncate_probability > 0.0 && rng.random_bool(self.truncate_probability)
    }

    /// Decides whether a delivered message gets an extra copy.
    pub fn should_duplicate(&self, rng: &mut dyn rand::Rng) -> bool {
        self.duplicate_probability > 0.0 && rng.random_bool(self.duplicate_probability)
    }

    /// Extra reordering jitter for one delivery, if the storm hits it.
    /// Draws from the RNG only when reordering is configured.
    pub fn reorder_jitter(&self, rng: &mut dyn rand::Rng) -> Option<SimDuration> {
        if self.reorder_probability > 0.0 && rng.random_bool(self.reorder_probability) {
            let max = self.reorder_max_jitter.as_micros().max(1);
            Some(SimDuration::from_micros(rng.random_range(0..=max)))
        } else {
            None
        }
    }
}

impl fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultInjector")
            .field("drop_probability", &self.drop_probability)
            .field("link_drops", &self.link_drop.len())
            .field("corrupt_probability", &self.corrupt_probability)
            .field("truncate_probability", &self.truncate_probability)
            .field("duplicate_probability", &self.duplicate_probability)
            .field("reorder_probability", &self.reorder_probability)
            .field("crashed", &self.crashed_hosts())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn no_faults_by_default() {
        let f = FaultInjector::none();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert!(!f.should_drop(HostId(0), HostId(1), &mut rng));
            assert!(!f.should_corrupt(&mut rng));
            assert!(!f.should_truncate(&mut rng));
            assert!(!f.should_duplicate(&mut rng));
            assert!(f.reorder_jitter(&mut rng).is_none());
        }
        // Zero probabilities draw nothing: the stream is untouched.
        let mut fresh = StdRng::seed_from_u64(1);
        assert_eq!(rng.random::<u64>(), fresh.random::<u64>());
    }

    #[test]
    fn crashed_hosts_drop_everything() {
        let mut f = FaultInjector::none();
        f.crash(HostId(1));
        let mut rng = StdRng::seed_from_u64(1);
        assert!(
            f.should_drop(HostId(1), HostId(0), &mut rng),
            "from crashed"
        );
        assert!(f.should_drop(HostId(0), HostId(1), &mut rng), "to crashed");
        assert!(!f.should_drop(HostId(0), HostId(2), &mut rng));
        assert!(f.is_crashed(HostId(1)));
        f.revive(HostId(1));
        assert!(!f.should_drop(HostId(0), HostId(1), &mut rng));
    }

    #[test]
    fn drop_probability_is_roughly_respected() {
        let mut f = FaultInjector::none();
        f.set_drop_probability(0.3);
        let mut rng = StdRng::seed_from_u64(99);
        let drops = (0..10_000)
            .filter(|_| f.should_drop(HostId(0), HostId(1), &mut rng))
            .count();
        assert!((2_700..3_300).contains(&drops), "got {drops} drops");
    }

    #[test]
    fn full_loss_and_no_loss_extremes() {
        let mut f = FaultInjector::none();
        let mut rng = StdRng::seed_from_u64(5);
        f.set_drop_probability(1.0);
        assert!(f.should_drop(HostId(0), HostId(1), &mut rng));
        f.set_drop_probability(0.0);
        assert!(!f.should_drop(HostId(0), HostId(1), &mut rng));
    }

    #[test]
    fn link_overrides_are_directional() {
        let mut f = FaultInjector::none();
        let mut rng = StdRng::seed_from_u64(7);
        f.set_link_drop(HostId(0), HostId(1), 1.0);
        assert!(
            f.should_drop(HostId(0), HostId(1), &mut rng),
            "noisy uplink"
        );
        assert!(
            !f.should_drop(HostId(1), HostId(0), &mut rng),
            "reverse direction keeps the global setting"
        );
        assert_eq!(f.effective_drop_probability(HostId(0), HostId(1)), 1.0);
        assert_eq!(f.effective_drop_probability(HostId(1), HostId(0)), 0.0);

        // Override can also *clean* a link under a lossy global setting.
        f.set_drop_probability(1.0);
        f.set_link_drop(HostId(2), HostId(3), 0.0);
        assert!(!f.should_drop(HostId(2), HostId(3), &mut rng));
        assert!(f.should_drop(HostId(3), HostId(2), &mut rng));

        f.clear_link_drop(HostId(0), HostId(1));
        assert_eq!(f.effective_drop_probability(HostId(0), HostId(1)), 1.0);
        f.clear_link_drops();
        assert_eq!(f.link_drop_count(), 0);
    }

    #[test]
    fn duplication_and_reorder_respect_probabilities() {
        let mut f = FaultInjector::none();
        f.set_duplicate_probability(1.0);
        f.set_corrupt_probability(1.0);
        f.set_truncate_probability(1.0);
        f.set_reorder(1.0, SimDuration::from_millis(5));
        let mut rng = StdRng::seed_from_u64(11);
        assert!(f.should_duplicate(&mut rng));
        assert!(f.should_corrupt(&mut rng));
        assert!(f.should_truncate(&mut rng));
        let jitter = f.reorder_jitter(&mut rng).expect("storm always hits");
        assert!(jitter <= SimDuration::from_millis(5));

        f.set_duplicate_probability(0.0);
        f.set_corrupt_probability(0.0);
        f.set_truncate_probability(0.0);
        f.set_reorder(0.0, SimDuration::from_millis(5));
        assert!(!f.should_duplicate(&mut rng));
        assert!(!f.should_corrupt(&mut rng));
        assert!(!f.should_truncate(&mut rng));
        assert!(f.reorder_jitter(&mut rng).is_none());
    }

    #[test]
    fn debug_lists_crashed_ids() {
        let mut f = FaultInjector::none();
        f.crash(HostId(7));
        f.crash(HostId(2));
        let dbg = format!("{f:?}");
        assert!(dbg.contains("[host2, host7]"), "got {dbg}");
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_probability_panics() {
        FaultInjector::none().set_drop_probability(1.5);
    }
}

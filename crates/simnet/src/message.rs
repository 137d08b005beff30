//! Host identity, the message trait, and the byte damage a message can
//! take in flight.

use std::fmt;

/// Identifies a participant's device within a community.
///
/// Host ids are assigned densely by the network or driver in
/// the order hosts are added, which keeps experiment setup deterministic.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct HostId(pub u32);

impl HostId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host{}", self.0)
    }
}

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host{}", self.0)
    }
}

/// Byte-level damage a lossy link can do to a message in flight (see
/// [`crate::FaultInjector::set_corrupt_probability`] and
/// [`crate::FaultInjector::set_truncate_probability`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Damage {
    /// One random bit is flipped.
    Corrupt,
    /// The message is cut short at a random length.
    Truncate,
}

/// A message that can travel through the communications layer.
///
/// `wire_size` is the estimated serialized size in bytes; latency models
/// that account for bandwidth (e.g. [`crate::Wireless80211g`]) use it to
/// compute serialization delay. The default of 128 bytes suits small
/// control messages.
pub trait Message: Clone + Send + fmt::Debug + 'static {
    /// Estimated size on the wire, in bytes.
    fn wire_size(&self) -> usize {
        128
    }

    /// Applies `damage` to the message's bytes, drawing the position
    /// from `rng`, and returns whether the message changed. Typed
    /// messages have no bytes to damage, so the default changes nothing
    /// and draws nothing; a message that *is* encoded bytes overrides
    /// it.
    fn damage(&mut self, damage: Damage, rng: &mut dyn rand::Rng) -> bool {
        let _ = (damage, rng);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug)]
    struct Small;
    impl Message for Small {}

    #[derive(Clone, Debug)]
    struct Big(Vec<u8>);
    impl Message for Big {
        fn wire_size(&self) -> usize {
            self.0.len() + 16
        }
    }

    #[test]
    fn default_wire_size() {
        assert_eq!(Small.wire_size(), 128);
        assert_eq!(Big(vec![0; 100]).wire_size(), 116);
    }

    #[test]
    fn host_id_formats() {
        assert_eq!(HostId(3).to_string(), "host3");
        assert_eq!(format!("{:?}", HostId(3)), "host3");
        assert_eq!(HostId(7).index(), 7);
    }

    #[test]
    fn host_ids_are_ordered() {
        assert!(HostId(1) < HostId(2));
    }
}

//! Multicast vs. unique addressing.

use core::fmt;

/// The two network environments of §5.
///
/// The schemes keep their relative ordering in both environments, but the
/// differences are "amplified in a single destination network" — which the
/// Figure 11 vs. Figure 12 benches reproduce.
///
/// # Examples
///
/// ```
/// use blockrep_net::DeliveryMode;
///
/// // Updating four remote replicas:
/// assert_eq!(DeliveryMode::Multicast.fanout_cost(4), 1);
/// assert_eq!(DeliveryMode::Unicast.fanout_cost(4), 4);
/// // Replies are always individual transmissions:
/// assert_eq!(DeliveryMode::Multicast.fanout_cost(0), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DeliveryMode {
    /// A single transmission may be received by several sites (§5.1).
    #[default]
    Multicast,
    /// Each transmission must be addressed to an individual site (§5.2).
    Unicast,
}

impl DeliveryMode {
    /// Both environments, in the order the paper treats them.
    pub const ALL: [DeliveryMode; 2] = [DeliveryMode::Multicast, DeliveryMode::Unicast];

    /// Number of high-level transmissions needed to deliver one logical
    /// message to `targets` destinations: one multicast regardless of
    /// fan-out, or one unicast per destination. Zero targets cost nothing in
    /// either mode.
    pub const fn fanout_cost(self, targets: u64) -> u64 {
        match self {
            DeliveryMode::Multicast => {
                if targets == 0 {
                    0
                } else {
                    1
                }
            }
            DeliveryMode::Unicast => targets,
        }
    }

    /// Short label used in tables and benches.
    pub const fn label(self) -> &'static str {
        match self {
            DeliveryMode::Multicast => "multicast",
            DeliveryMode::Unicast => "unicast",
        }
    }
}

impl fmt::Display for DeliveryMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multicast_is_flat_rate() {
        for n in 1..100 {
            assert_eq!(DeliveryMode::Multicast.fanout_cost(n), 1);
        }
    }

    #[test]
    fn unicast_is_linear() {
        for n in 0..100 {
            assert_eq!(DeliveryMode::Unicast.fanout_cost(n), n);
        }
    }

    #[test]
    fn zero_targets_is_free() {
        assert_eq!(DeliveryMode::Multicast.fanout_cost(0), 0);
        assert_eq!(DeliveryMode::Unicast.fanout_cost(0), 0);
    }

    #[test]
    fn labels() {
        assert_eq!(DeliveryMode::Multicast.to_string(), "multicast");
        assert_eq!(DeliveryMode::Unicast.to_string(), "unicast");
    }
}

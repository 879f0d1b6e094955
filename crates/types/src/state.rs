//! Site states.

use core::fmt;

/// The state of one site, per §3.2 of the paper.
///
/// * A **failed** site has ceased to function (fail-stop: it simply halts).
/// * A **comatose** site has been repaired after a total failure but does not
///   yet know whether its block copies are current; it must not serve reads
///   or writes.
/// * An **available** site has been continuously operational, or has been
///   repaired and verified to hold the most recent versions.
///
/// Majority consensus voting does not need the comatose state: a repaired
/// site rejoins immediately and quorum intersection protects readers from
/// its stale copies. The available copy schemes rely on it.
///
/// # Examples
///
/// ```
/// use blockrep_types::SiteState;
///
/// assert!(SiteState::Available.is_operational());
/// assert!(SiteState::Comatose.is_operational());
/// assert!(!SiteState::Failed.is_operational());
/// assert!(SiteState::Available.can_serve());
/// assert!(!SiteState::Comatose.can_serve());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SiteState {
    /// The site has halted due to hardware or software failure.
    Failed,
    /// The site is running again but its copies may be stale.
    Comatose,
    /// The site is running and holds the most recent versions.
    #[default]
    Available,
}

impl SiteState {
    /// Whether the site's server process is running (comatose or available)
    /// and can answer protocol messages.
    pub const fn is_operational(self) -> bool {
        matches!(self, SiteState::Comatose | SiteState::Available)
    }

    /// Whether the site may serve reads and writes (available only).
    pub const fn can_serve(self) -> bool {
        matches!(self, SiteState::Available)
    }

    /// The state's name, as [`Display`](fmt::Display) writes it.
    pub const fn label(self) -> &'static str {
        match self {
            SiteState::Failed => "failed",
            SiteState::Comatose => "comatose",
            SiteState::Available => "available",
        }
    }
}

impl fmt::Display for SiteState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_available() {
        assert_eq!(SiteState::default(), SiteState::Available);
    }

    #[test]
    fn operational_and_serving_are_distinct() {
        assert!(SiteState::Comatose.is_operational());
        assert!(!SiteState::Comatose.can_serve());
        assert!(!SiteState::Failed.is_operational());
        assert!(!SiteState::Failed.can_serve());
        assert!(SiteState::Available.is_operational());
        assert!(SiteState::Available.can_serve());
    }

    #[test]
    fn display_is_lowercase() {
        assert_eq!(SiteState::Failed.to_string(), "failed");
        assert_eq!(SiteState::Comatose.to_string(), "comatose");
        assert_eq!(SiteState::Available.to_string(), "available");
    }
}

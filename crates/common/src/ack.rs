//! The unified acknowledgement-level enum shared by every layer.
//!
//! ReactDB acknowledges a committed transaction at one of three points in
//! its lifecycle, each strictly stronger than the previous:
//!
//! * [`AckLevel::Validated`] — OCC validation succeeded and the commit is
//!   installed in memory. The result is correct but volatile: a crash
//!   before the next group commit loses it.
//! * [`AckLevel::Durable`] — the commit's epoch is covered by the WAL's
//!   durable-epoch marker (Silo-style group commit): the transaction
//!   survives a crash of this node.
//! * [`AckLevel::Replicated`] — additionally, at least one follower has
//!   durably applied the commit's epoch: the transaction survives the
//!   *loss* of this node (a follower's log directory, recovered as a
//!   primary after a primary failure, serves it).
//!
//! Historically the engine grew a method per level (`submit` vs
//! `submit_durable`) and the wire protocol carried its own `AckMode`;
//! this enum replaces both so a third level lands in one place instead
//! of four.

/// When a transaction submission is acknowledged to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AckLevel {
    /// Acknowledge at OCC validation: installed in memory, volatile.
    Validated,
    /// Acknowledge once the commit epoch is group-commit durable on this
    /// node.
    Durable,
    /// Acknowledge once at least one follower has durably applied the
    /// commit epoch (implies [`AckLevel::Durable`] on the primary).
    Replicated,
}

impl AckLevel {
    /// Every level, weakest first.
    pub const ALL: [AckLevel; 3] = [AckLevel::Validated, AckLevel::Durable, AckLevel::Replicated];

    /// Stable lower-case name (flag values, metrics labels).
    pub fn as_str(self) -> &'static str {
        match self {
            AckLevel::Validated => "validated",
            AckLevel::Durable => "durable",
            AckLevel::Replicated => "replicated",
        }
    }

    /// Parses the stable name produced by [`AckLevel::as_str`].
    pub fn parse(s: &str) -> Option<AckLevel> {
        match s {
            "validated" => Some(AckLevel::Validated),
            "durable" => Some(AckLevel::Durable),
            "replicated" => Some(AckLevel::Replicated),
            _ => None,
        }
    }

    /// Wire-protocol tag (stable across protocol revisions: `Validated`
    /// and `Durable` keep the byte values of the old `AckMode`).
    pub fn wire_tag(self) -> u8 {
        match self {
            AckLevel::Validated => 0,
            AckLevel::Durable => 1,
            AckLevel::Replicated => 2,
        }
    }

    /// Decodes a wire tag written by [`AckLevel::wire_tag`].
    pub fn from_wire_tag(tag: u8) -> Option<AckLevel> {
        match tag {
            0 => Some(AckLevel::Validated),
            1 => Some(AckLevel::Durable),
            2 => Some(AckLevel::Replicated),
            _ => None,
        }
    }

    /// True when acknowledging at this level must wait for the WAL's
    /// durable-epoch marker to cover the commit epoch.
    pub fn requires_durable(self) -> bool {
        self >= AckLevel::Durable
    }

    /// True when acknowledging at this level must additionally wait for a
    /// follower to durably apply the commit epoch.
    pub fn requires_replicated(self) -> bool {
        self == AckLevel::Replicated
    }
}

impl std::fmt::Display for AckLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for level in AckLevel::ALL {
            assert_eq!(AckLevel::parse(level.as_str()), Some(level));
        }
        assert_eq!(AckLevel::parse("bogus"), None);
    }

    #[test]
    fn wire_tags_are_stable_and_roundtrip() {
        // Validated/Durable keep the byte values the protocol-v1 AckMode
        // used, so a v2 decoder reads old captures correctly.
        assert_eq!(AckLevel::Validated.wire_tag(), 0);
        assert_eq!(AckLevel::Durable.wire_tag(), 1);
        assert_eq!(AckLevel::Replicated.wire_tag(), 2);
        for level in AckLevel::ALL {
            assert_eq!(AckLevel::from_wire_tag(level.wire_tag()), Some(level));
        }
        assert_eq!(AckLevel::from_wire_tag(3), None);
    }

    #[test]
    fn levels_are_ordered_by_strength() {
        assert!(AckLevel::Validated < AckLevel::Durable);
        assert!(AckLevel::Durable < AckLevel::Replicated);
        assert!(!AckLevel::Validated.requires_durable());
        assert!(AckLevel::Durable.requires_durable());
        assert!(AckLevel::Replicated.requires_durable());
        assert!(AckLevel::Replicated.requires_replicated());
        assert!(!AckLevel::Durable.requires_replicated());
    }
}

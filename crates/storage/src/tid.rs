//! Silo-style transaction-id (TID) words.
//!
//! Every record carries a 64-bit word combining the concurrency-control
//! metadata needed by the Silo OCC protocol [53] that ReactDB reuses
//! (§3.2.1):
//!
//! ```text
//!  bit 63        : lock bit (held during the write phase of commit)
//!  bits 62 .. 48 : epoch number (15 bits)
//!  bits 47 ..  1 : sequence number within the epoch (47 bits)
//!  bit  0        : absent bit (record is logically deleted / not yet
//!                  inserted)
//! ```
//!
//! The numeric ordering of the epoch+sequence fields gives the commit order
//! used during read-set validation.

const LOCK_BIT: u64 = 1 << 63;
const ABSENT_BIT: u64 = 1;
const EPOCH_SHIFT: u32 = 48;
const EPOCH_MASK: u64 = 0x7FFF; // 15 bits
const SEQ_SHIFT: u32 = 1;
const SEQ_MASK: u64 = (1 << 47) - 1;

/// A decoded or raw TID word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TidWord(pub u64);

impl TidWord {
    /// The initial word of a freshly created, not-yet-committed record:
    /// unlocked, epoch 0, sequence 0, absent.
    pub fn absent() -> Self {
        TidWord(ABSENT_BIT)
    }

    /// Builds a committed (present) TID from an epoch and a sequence number.
    ///
    /// # Panics
    /// Panics if the fields overflow their bit widths.
    pub fn committed(epoch: u64, seq: u64) -> Self {
        assert!(epoch <= EPOCH_MASK, "epoch {epoch} overflows TID word");
        assert!(seq <= SEQ_MASK, "sequence {seq} overflows TID word");
        TidWord((epoch << EPOCH_SHIFT) | (seq << SEQ_SHIFT))
    }

    /// Raw 64-bit representation.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// True if the lock bit is set.
    pub fn is_locked(self) -> bool {
        self.0 & LOCK_BIT != 0
    }

    /// True if the absent (deleted / not yet inserted) bit is set.
    pub fn is_absent(self) -> bool {
        self.0 & ABSENT_BIT != 0
    }

    /// Epoch field.
    pub fn epoch(self) -> u64 {
        (self.0 >> EPOCH_SHIFT) & EPOCH_MASK
    }

    /// Sequence field.
    pub fn sequence(self) -> u64 {
        (self.0 >> SEQ_SHIFT) & SEQ_MASK
    }

    /// The word with the lock bit set.
    pub fn locked(self) -> Self {
        TidWord(self.0 | LOCK_BIT)
    }

    /// The word with the lock bit cleared.
    pub fn unlocked(self) -> Self {
        TidWord(self.0 & !LOCK_BIT)
    }

    /// The word with the absent bit set.
    pub fn as_absent(self) -> Self {
        TidWord(self.0 | ABSENT_BIT)
    }

    /// The word with the absent bit cleared.
    pub fn as_present(self) -> Self {
        TidWord(self.0 & !ABSENT_BIT)
    }

    /// The version fields (epoch, sequence) ignoring lock and absent bits.
    /// Two words with the same version are the same committed version.
    pub fn version(self) -> u64 {
        self.0 & !(LOCK_BIT | ABSENT_BIT)
    }

    /// Compares only the commit-order fields (epoch, sequence).
    pub fn same_version(self, other: TidWord) -> bool {
        self.version() == other.version()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn absent_word_properties() {
        let w = TidWord::absent();
        assert!(w.is_absent());
        assert!(!w.is_locked());
        assert_eq!(w.epoch(), 0);
        assert_eq!(w.sequence(), 0);
    }

    #[test]
    fn committed_roundtrip() {
        let w = TidWord::committed(5, 1234);
        assert_eq!(w.epoch(), 5);
        assert_eq!(w.sequence(), 1234);
        assert!(!w.is_absent());
        assert!(!w.is_locked());
    }

    #[test]
    fn lock_and_absent_bits_do_not_disturb_version() {
        let w = TidWord::committed(3, 77);
        assert!(w.locked().is_locked());
        assert!(w.locked().same_version(w));
        assert!(w.as_absent().same_version(w));
        assert_eq!(w.locked().unlocked(), w);
        assert_eq!(w.as_absent().as_present(), w);
    }

    #[test]
    fn ordering_follows_epoch_then_sequence() {
        assert!(TidWord::committed(1, 0).version() > TidWord::committed(0, 100).version());
        assert!(TidWord::committed(2, 5).version() > TidWord::committed(2, 4).version());
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn epoch_overflow_panics() {
        TidWord::committed(EPOCH_MASK + 1, 0);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(epoch in 0u64..=EPOCH_MASK, seq in 0u64..=SEQ_MASK) {
            let w = TidWord::committed(epoch, seq);
            prop_assert_eq!(w.epoch(), epoch);
            prop_assert_eq!(w.sequence(), seq);
            prop_assert!(!w.is_locked());
            prop_assert!(!w.is_absent());
            prop_assert!(w.locked().is_locked());
            prop_assert_eq!(w.locked().unlocked(), w);
        }

        #[test]
        fn prop_version_order_matches_field_order(
            e1 in 0u64..=EPOCH_MASK, s1 in 0u64..=SEQ_MASK,
            e2 in 0u64..=EPOCH_MASK, s2 in 0u64..=SEQ_MASK,
        ) {
            let w1 = TidWord::committed(e1, s1);
            let w2 = TidWord::committed(e2, s2);
            let field_order = (e1, s1).cmp(&(e2, s2));
            prop_assert_eq!(w1.version().cmp(&w2.version()), field_order);
        }
    }
}

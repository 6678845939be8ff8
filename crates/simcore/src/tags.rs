//! Tag namespacing.
//!
//! Completion events carry a single opaque `u64` tag. The top byte names the
//! subsystem that owns the event; the remaining 56 bits are subsystem-local.
//! The experiment driver dispatches on the namespace, each subsystem decodes
//! its own payload.

/// Subsystem namespaces (top byte of a tag).
pub mod ns {
    /// Compute-phase executor (memsim).
    pub const COMPUTE: u8 = 1;
    /// Network transfers and protocol steps (netsim).
    pub const NET: u8 = 2;
    /// Message-passing layer (mpisim).
    pub const MPI: u8 = 3;
    /// Task runtime (taskrt).
    pub const RUNTIME: u8 = 4;
    /// Frequency governor ticks (freq).
    pub const FREQ: u8 = 5;
    /// Experiment-level bookkeeping.
    pub const EXPERIMENT: u8 = 6;
}

/// Compose a tag from a namespace and a 56-bit payload.
#[inline]
pub fn tag(namespace: u8, payload: u64) -> u64 {
    debug_assert!(payload < (1 << 56), "payload exceeds 56 bits");
    ((namespace as u64) << 56) | payload
}

/// Extract the namespace of a tag.
#[inline]
pub fn namespace(tag: u64) -> u8 {
    (tag >> 56) as u8
}

/// Extract the payload of a tag.
#[inline]
pub fn payload(tag: u64) -> u64 {
    tag & ((1 << 56) - 1)
}

/// Compose a payload from a 24-bit kind and a 32-bit index — the common
/// sub-encoding used by several subsystems.
#[inline]
pub fn kind_index(kind: u32, index: u32) -> u64 {
    debug_assert!(kind < (1 << 24), "kind exceeds 24 bits");
    ((kind as u64) << 32) | index as u64
}

/// Split a payload composed with [`kind_index`].
#[inline]
pub fn split_kind_index(payload: u64) -> (u32, u32) {
    (((payload >> 32) & 0xFF_FFFF) as u32, payload as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let t = tag(ns::NET, 0x1234_5678_9ABC);
        assert_eq!(namespace(t), ns::NET);
        assert_eq!(payload(t), 0x1234_5678_9ABC);
    }

    #[test]
    fn kind_index_roundtrip() {
        let p = kind_index(7, 0xDEAD_BEEF);
        assert_eq!(split_kind_index(p), (7, 0xDEAD_BEEF));
        let t = tag(ns::RUNTIME, p);
        assert_eq!(namespace(t), ns::RUNTIME);
        assert_eq!(split_kind_index(payload(t)), (7, 0xDEAD_BEEF));
    }

    #[test]
    fn namespaces_distinct() {
        let all = [
            ns::COMPUTE,
            ns::NET,
            ns::MPI,
            ns::RUNTIME,
            ns::FREQ,
            ns::EXPERIMENT,
        ];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}

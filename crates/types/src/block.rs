//! Block payloads.

use bytes::Bytes;
use core::fmt;

/// The data of one device block.
///
/// Cheap to clone (reference counted) so a single write can fan out to many
/// sites without copying the payload. The reliable device enforces that all
/// blocks of a device have the configured block size; `BlockData` itself is
/// size-agnostic so it can also carry partial transfers in tests.
///
/// # Examples
///
/// ```
/// use blockrep_types::BlockData;
///
/// let zero = BlockData::zeroed(512);
/// assert_eq!(zero.len(), 512);
/// let payload = BlockData::from(vec![1, 2, 3]);
/// assert_eq!(payload.as_slice(), &[1, 2, 3]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BlockData {
    bytes: Bytes,
}

impl BlockData {
    /// Creates a block filled with zero bytes, the content of a freshly
    /// formatted device.
    /// One allocation, zeroed in place.
    pub fn zeroed(len: usize) -> Self {
        BlockData {
            bytes: std::iter::repeat_n(0, len).collect(),
        }
    }

    /// Creates a block from raw bytes without copying.
    pub fn new(bytes: Bytes) -> Self {
        BlockData { bytes }
    }

    /// Length of the payload in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Borrows the payload.
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes
    }

    /// The payload, writable in place — `None` while a clone shares it.
    #[inline]
    pub fn get_mut(&mut self) -> Option<&mut [u8]> {
        self.bytes.get_mut()
    }

    /// The payload, writable. Edited in place when no clone shares it;
    /// otherwise first copied, once, into a buffer of its own, so every
    /// clone keeps the bytes it had.
    pub fn make_mut(&mut self) -> &mut [u8] {
        if self.bytes.get_mut().is_none() {
            self.bytes = Bytes::copy_from_slice(&self.bytes);
        }
        self.bytes
            .get_mut()
            .expect("a fresh copy has no other owner")
    }

    /// Returns the underlying reference-counted buffer.
    pub fn into_bytes(self) -> Bytes {
        self.bytes
    }

    /// Whether every byte is zero (freshly formatted content).
    pub fn is_zeroed(&self) -> bool {
        self.bytes.iter().all(|&b| b == 0)
    }
}

impl fmt::Debug for BlockData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Blocks are large; show a short prefix instead of the whole payload.
        let prefix: Vec<u8> = self.bytes.iter().take(8).copied().collect();
        write!(f, "BlockData(len={}, {:02x?}…)", self.bytes.len(), prefix)
    }
}

impl From<Vec<u8>> for BlockData {
    fn from(value: Vec<u8>) -> Self {
        BlockData {
            bytes: Bytes::from(value),
        }
    }
}

impl From<&[u8]> for BlockData {
    fn from(value: &[u8]) -> Self {
        BlockData {
            bytes: Bytes::copy_from_slice(value),
        }
    }
}

impl From<Bytes> for BlockData {
    fn from(value: Bytes) -> Self {
        BlockData { bytes: value }
    }
}

impl AsRef<[u8]> for BlockData {
    fn as_ref(&self) -> &[u8] {
        &self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_block_is_zeroed() {
        let b = BlockData::zeroed(64);
        assert_eq!(b.len(), 64);
        assert!(b.is_zeroed());
        assert!(!b.is_empty());
    }

    #[test]
    fn from_vec_preserves_contents() {
        let b = BlockData::from(vec![9, 8, 7]);
        assert_eq!(b.as_slice(), &[9, 8, 7]);
        assert!(!b.is_zeroed());
    }

    #[test]
    fn clones_share_storage() {
        let b = BlockData::from(vec![1u8; 4096]);
        let c = b.clone();
        assert_eq!(b, c);
        // Bytes clones share the same backing allocation.
        assert_eq!(b.as_slice().as_ptr(), c.as_slice().as_ptr());
    }

    #[test]
    fn make_mut_copies_a_shared_block_once_and_edits_its_own_in_place() {
        let shared = BlockData::from(vec![1u8; 16]);
        let mut own = shared.clone();
        own.make_mut()[0] = 2;
        assert_eq!(shared.as_slice(), &[1; 16], "a clone saw the edit");
        let copy = own.as_slice().as_ptr();
        assert_ne!(copy, shared.as_slice().as_ptr());
        own.make_mut()[1] = 3;
        assert_eq!(
            own.as_slice().as_ptr(),
            copy,
            "an unshared block was copied again"
        );
        assert_eq!(own.as_slice()[..3], [2, 3, 1]);
    }

    #[test]
    fn debug_is_truncated_and_nonempty() {
        let b = BlockData::from(vec![0xAB; 1024]);
        let s = format!("{b:?}");
        assert!(s.contains("len=1024"));
        assert!(s.len() < 120, "debug output should stay short: {s}");
    }

    #[test]
    fn roundtrip_through_bytes() {
        let b = BlockData::from(vec![5, 6]);
        let raw = b.clone().into_bytes();
        assert_eq!(BlockData::new(raw), b);
    }
}

//! Directory entries.
//!
//! A directory is an array of 32-byte slots. Lookups and the search for a
//! free slot read the slots in place, in the operation's blocks
//! ([`Dirent::inode_named`], [`Dirent::is_free`]); only a listing builds
//! [`Dirent`] values.

use crate::layout::{DIRENT_SIZE, MAX_NAME};
use bytes::{Buf, BufMut};

/// One 32-byte directory entry: inode number (0 = free slot), name length,
/// and up to 27 bytes of name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dirent {
    /// Inode the entry points at; 0 marks a free slot.
    pub ino: u32,
    /// Entry name.
    pub name: String,
}

impl Dirent {
    /// The on-disk record linking `name` to `ino`.
    ///
    /// # Panics
    ///
    /// Panics if the name exceeds [`MAX_NAME`] bytes (validated earlier at
    /// the path layer).
    pub fn record(ino: u32, name: &str) -> [u8; DIRENT_SIZE] {
        assert!(name.len() <= MAX_NAME, "name validated at path layer");
        let mut buf = [0; DIRENT_SIZE];
        let mut out = &mut buf[..];
        out.put_u32_le(ino);
        out.put_u8(name.len() as u8);
        out.put_slice(name.as_bytes());
        buf
    }

    /// A live slot's inode and name, in place; `None` for a free slot or a
    /// corrupt name.
    fn live(mut raw: &[u8]) -> Option<(u32, &str)> {
        let ino = raw.get_u32_le();
        if ino == 0 {
            return None;
        }
        let len = raw.get_u8() as usize;
        if len == 0 || len > MAX_NAME {
            return None;
        }
        Some((ino, std::str::from_utf8(&raw[..len]).ok()?))
    }

    /// Parses an on-disk record; returns `None` for a free slot or a
    /// corrupt name.
    pub fn decode(raw: &[u8]) -> Option<Dirent> {
        let (ino, name) = Self::live(raw)?;
        Some(Dirent {
            ino,
            name: name.to_string(),
        })
    }

    /// Whether a slot is free: exactly when [`decode`](Self::decode)
    /// returns `None`.
    pub fn is_free(raw: &[u8]) -> bool {
        Self::live(raw).is_none()
    }

    /// The inode a live slot links `name` to, comparing the raw name bytes
    /// in place; `None` if the slot is free or names something else.
    /// `name` is a validated path component (1 to [`MAX_NAME`] bytes), so
    /// a slot matches exactly when it decodes to `name`.
    pub fn inode_named(mut raw: &[u8], name: &str) -> Option<u32> {
        debug_assert!((1..=MAX_NAME).contains(&name.len()), "{name:?}");
        let ino = raw.get_u32_le();
        let len = raw.get_u8() as usize;
        (ino != 0 && len == name.len() && raw[..len] == *name.as_bytes()).then_some(ino)
    }

    /// An empty (free) slot image.
    pub fn free_slot() -> [u8; DIRENT_SIZE] {
        [0; DIRENT_SIZE]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let e = Dirent {
            ino: 42,
            name: "hello.txt".into(),
        };
        let raw = Dirent::record(e.ino, &e.name);
        assert_eq!(Dirent::decode(&raw), Some(e));
    }

    #[test]
    fn free_slot_decodes_to_none() {
        assert_eq!(Dirent::decode(&Dirent::free_slot()), None);
    }

    #[test]
    fn max_length_name_roundtrips() {
        let e = Dirent {
            ino: 1,
            name: "n".repeat(MAX_NAME),
        };
        assert_eq!(Dirent::decode(&Dirent::record(e.ino, &e.name)), Some(e));
    }

    #[test]
    fn in_place_checks_agree_with_decode() {
        let live = Dirent::record(42, "hello.txt");
        assert_eq!(Dirent::inode_named(&live, "hello.txt"), Some(42));
        assert_eq!(Dirent::inode_named(&live, "hello.tx"), None);
        assert_eq!(Dirent::inode_named(&live, "hello.txt2"), None);
        assert!(!Dirent::is_free(&live));
        let mut freed = live;
        freed[..4].fill(0); // inode 0: free, whatever the name says
        let mut no_name = live;
        no_name[4] = 0;
        let mut too_long = live;
        too_long[4] = MAX_NAME as u8 + 1;
        let mut not_utf8 = live;
        not_utf8[5] = 0xFF;
        for slot in [freed, no_name, too_long, not_utf8, Dirent::free_slot()] {
            assert_eq!(Dirent::decode(&slot), None);
            assert!(Dirent::is_free(&slot));
            assert_eq!(Dirent::inode_named(&slot, "hello.txt"), None);
        }
    }

    #[test]
    fn corrupt_length_decodes_to_none() {
        let mut raw = Dirent::record(1, "x");
        raw[4] = 255; // impossible length
        assert_eq!(Dirent::decode(&raw), None);
    }

    #[test]
    #[should_panic(expected = "validated at path layer")]
    fn oversized_name_panics_at_record() {
        let _ = Dirent::record(1, &"n".repeat(MAX_NAME + 1));
    }
}

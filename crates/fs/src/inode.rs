//! Inodes: 64-byte on-disk records with direct and indirect block pointers.

use crate::layout::{DIRECT_POINTERS, INODE_SIZE};
use crate::txn::Txn;
use crate::{FsError, FsResult};
use blockrep_storage::BlockDevice;
use bytes::{Buf, BufMut};

/// What an inode describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum InodeKind {
    /// Free slot.
    Free = 0,
    /// Regular file.
    File = 1,
    /// Directory.
    Dir = 2,
}

/// An in-memory inode image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inode {
    /// File or directory (or free).
    pub kind: InodeKind,
    /// Link count (1 for everything in this FS — no hard links — kept for
    /// format compatibility with a future extension).
    pub nlink: u16,
    /// Size in bytes (for directories: the byte extent of the entry table).
    pub size: u64,
    /// Direct block pointers; 0 = hole / unallocated.
    pub direct: [u32; DIRECT_POINTERS],
    /// Single indirect pointer block; 0 = none.
    pub indirect: u32,
}

impl Inode {
    /// A fresh inode of the given kind.
    pub fn new(kind: InodeKind) -> Self {
        Inode {
            kind,
            nlink: 1,
            size: 0,
            direct: [0; DIRECT_POINTERS],
            indirect: 0,
        }
    }

    /// Serializes to the 64-byte on-disk record.
    pub fn encode(&self) -> [u8; INODE_SIZE] {
        let mut buf = [0; INODE_SIZE];
        let mut out = &mut buf[..];
        out.put_u16_le(self.kind as u16);
        out.put_u16_le(self.nlink);
        out.put_u64_le(self.size);
        for p in self.direct {
            out.put_u32_le(p);
        }
        out.put_u32_le(self.indirect);
        buf
    }

    /// The kind of an on-disk record, read in place.
    fn kind_of(mut raw: &[u8]) -> InodeKind {
        match raw.get_u16_le() {
            1 => InodeKind::File,
            2 => InodeKind::Dir,
            _ => InodeKind::Free,
        }
    }

    /// Parses the 64-byte on-disk record.
    pub fn decode(mut raw: &[u8]) -> Inode {
        let kind = Self::kind_of(raw);
        raw.advance(2);
        let nlink = raw.get_u16_le();
        let size = raw.get_u64_le();
        let mut direct = [0u32; DIRECT_POINTERS];
        for p in &mut direct {
            *p = raw.get_u32_le();
        }
        let indirect = raw.get_u32_le();
        Inode {
            kind,
            nlink,
            size,
            direct,
            indirect,
        }
    }
}

/// The on-disk inode table, read and edited through one operation's
/// [`Txn`].
pub struct InodeTable<'t, 'a, D> {
    txn: &'t mut Txn<'a, D>,
}

impl<'t, 'a, D: BlockDevice> InodeTable<'t, 'a, D> {
    /// Creates a table view inside `txn`.
    pub fn new(txn: &'t mut Txn<'a, D>) -> Self {
        InodeTable { txn }
    }

    fn locate(&self, ino: u32) -> FsResult<(u64, usize)> {
        let geo = self.txn.geo;
        if ino == 0 || ino > geo.inode_count {
            return Err(FsError::BadSuperblock(format!("inode {ino} out of range")));
        }
        let per_block = geo.block_size as usize / INODE_SIZE;
        let index = (ino - 1) as usize;
        let block = geo.inode_start + (index / per_block) as u64;
        Ok((block, (index % per_block) * INODE_SIZE))
    }

    /// Reads inode `ino`.
    pub fn read(&mut self, ino: u32) -> FsResult<Inode> {
        let (block, offset) = self.locate(ino)?;
        let raw = self.txn.get(block)?;
        Ok(Inode::decode(&raw[offset..offset + INODE_SIZE]))
    }

    /// Writes inode `ino`.
    pub fn write(&mut self, ino: u32, inode: &Inode) -> FsResult<()> {
        let (block, offset) = self.locate(ino)?;
        self.txn.modify(block, |raw| {
            raw[offset..offset + INODE_SIZE].copy_from_slice(&inode.encode())
        })
    }

    /// Allocates the lowest free inode slot, initializes it to a fresh
    /// `kind` inode and returns its number. The scan reads each table
    /// block once and looks only at each record's kind, in place.
    ///
    /// # Errors
    ///
    /// [`FsError::NoInodes`] when the table is full.
    pub fn alloc(&mut self, kind: InodeKind) -> FsResult<u32> {
        let count = self.txn.geo.inode_count;
        let per_block = (self.txn.geo.block_size as usize / INODE_SIZE) as u32;
        for first in (1..=count).step_by(per_block as usize) {
            let (block, _) = self.locate(first)?;
            let in_block = per_block.min(count - first + 1) as usize;
            let free = self.txn.get(block)?[..in_block * INODE_SIZE]
                .chunks_exact(INODE_SIZE)
                .position(|raw| Inode::kind_of(raw) == InodeKind::Free);
            if let Some(i) = free {
                let ino = first + i as u32;
                self.write(ino, &Inode::new(kind))?;
                return Ok(ino);
            }
        }
        Err(FsError::NoInodes)
    }

    /// Frees inode `ino`.
    pub fn free(&mut self, ino: u32) -> FsResult<()> {
        self.write(ino, &Inode::new(InodeKind::Free))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::FsGeometry;
    use blockrep_storage::MemStore;

    fn setup() -> (MemStore, FsGeometry) {
        let geo = FsGeometry::plan(128, 512).unwrap();
        (MemStore::new(128, 512), geo)
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut ino = Inode::new(InodeKind::File);
        ino.size = 1234;
        ino.direct[0] = 55;
        ino.direct[11] = 99;
        ino.indirect = 77;
        let back = Inode::decode(&ino.encode());
        assert_eq!(back, ino);
    }

    #[test]
    fn table_read_write_roundtrip() {
        let (dev, geo) = setup();
        let mut txn = Txn::new(&dev, &geo);
        let mut table = InodeTable::new(&mut txn);
        let mut ino = Inode::new(InodeKind::Dir);
        ino.size = 64;
        table.write(5, &ino).unwrap();
        assert_eq!(table.read(5).unwrap(), ino);
        // Neighbouring slots untouched.
        assert_eq!(table.read(4).unwrap().kind, InodeKind::Free);
        assert_eq!(table.read(6).unwrap().kind, InodeKind::Free);
        // And it reaches the device at commit.
        txn.commit().unwrap();
        let mut txn = Txn::new(&dev, &geo);
        assert_eq!(InodeTable::new(&mut txn).read(5).unwrap(), ino);
    }

    #[test]
    fn alloc_scans_for_free_slots() {
        let (dev, geo) = setup();
        let mut txn = Txn::new(&dev, &geo);
        let mut table = InodeTable::new(&mut txn);
        let a = table.alloc(InodeKind::File).unwrap();
        let b = table.alloc(InodeKind::Dir).unwrap();
        assert_ne!(a, b);
        table.free(a).unwrap();
        let c = table.alloc(InodeKind::File).unwrap();
        assert_eq!(a, c);
    }

    #[test]
    fn exhaustion_reports_no_inodes() {
        let (dev, geo) = setup();
        let mut txn = Txn::new(&dev, &geo);
        let mut table = InodeTable::new(&mut txn);
        for _ in 0..geo.inode_count {
            table.alloc(InodeKind::File).unwrap();
        }
        assert!(matches!(
            table.alloc(InodeKind::File),
            Err(FsError::NoInodes)
        ));
    }

    #[test]
    fn inode_zero_is_invalid() {
        let (dev, geo) = setup();
        let mut txn = Txn::new(&dev, &geo);
        let mut table = InodeTable::new(&mut txn);
        assert!(table.read(0).is_err());
        assert!(table.read(geo.inode_count + 1).is_err());
    }
}

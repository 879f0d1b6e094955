//! The file system proper.

use crate::bitmap::Bitmap;
use crate::dir::Dirent;
use crate::inode::{Inode, InodeKind, InodeTable};
use crate::layout::{FsGeometry, DIRECT_POINTERS, DIRENT_SIZE, ROOT_INO};
use crate::path::{self, Components};
use crate::txn::Txn;
use crate::{FsError, FsResult};
use blockrep_storage::BlockDevice;
use blockrep_types::{BlockData, BlockIndex};
use bytes::{Buf, BufMut};
use parking_lot::Mutex;

/// What a path names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// A regular file.
    File,
    /// A directory.
    Directory,
}

/// `stat`-style information about a file or directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metadata {
    /// File or directory.
    pub kind: FileKind,
    /// Size in bytes (entry-table extent for directories).
    pub size: u64,
}

impl Metadata {
    /// Whether this is a directory.
    pub fn is_dir(&self) -> bool {
        self.kind == FileKind::Directory
    }
}

/// A UNIX-like file system over any [`BlockDevice`].
///
/// The type is generic over the device: format it onto a
/// [`MemStore`](blockrep_storage::MemStore), a
/// [`FileStore`](blockrep_storage::FileStore), or a replicated reliable
/// device — the file system cannot tell the difference, which is the
/// paper's point.
///
/// Operations are serialized by an internal lock; the paper explicitly
/// leaves concurrent-access control out of scope ("we do not attempt to
/// model systems which guard against concurrent access of files").
///
/// Every operation runs in one block transaction: it reads each device
/// block it needs at most once, and if it changes anything it writes all
/// changed blocks in a single `write_blocks` at the end. An operation that
/// fails before that write — no space, no such file — changes nothing.
/// Nothing is cached between operations.
///
/// # Examples
///
/// ```
/// use blockrep_fs::{FileKind, FileSystem};
/// use blockrep_storage::MemStore;
///
/// # fn main() -> Result<(), blockrep_fs::FsError> {
/// let fs = FileSystem::format(MemStore::new(256, 512))?;
/// fs.mkdir("/etc")?;
/// fs.write_file("/etc/motd", b"hello")?;
/// let meta = fs.stat("/etc/motd")?;
/// assert_eq!(meta.kind, FileKind::File);
/// assert_eq!(meta.size, 5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FileSystem<D> {
    pub(crate) dev: D,
    pub(crate) geo: FsGeometry,
    pub(crate) lock: Mutex<()>,
}

impl<D: BlockDevice> FileSystem<D> {
    /// Formats the device with a fresh, empty file system and mounts it.
    ///
    /// # Errors
    ///
    /// [`FsError::DeviceTooSmall`] / [`FsError::BadSuperblock`] for
    /// unusable geometry, or a device error.
    pub fn format(dev: D) -> FsResult<Self> {
        let geo = FsGeometry::plan(dev.num_blocks(), dev.block_size())?;
        let mut txn = Txn::new(&dev, &geo);
        txn.put(0, geo.encode().into());
        // Zero the metadata region so stale images cannot leak through.
        for block in 1..geo.data_start {
            txn.put_zeroed(block);
        }
        Bitmap::new(&mut txn).reserve_metadata()?;
        let root = InodeTable::new(&mut txn).alloc(InodeKind::Dir)?;
        debug_assert_eq!(root, ROOT_INO);
        txn.commit()?;
        Ok(FileSystem {
            dev,
            geo,
            lock: Mutex::new(()),
        })
    }

    /// Mounts an existing file system, validating the superblock against
    /// the device geometry.
    ///
    /// # Errors
    ///
    /// [`FsError::BadSuperblock`] if the device is not formatted (or was
    /// formatted with different geometry), or a device error.
    pub fn mount(dev: D) -> FsResult<Self> {
        let raw = dev.read_block(BlockIndex::new(0))?;
        let geo = FsGeometry::decode(raw.as_slice(), dev.num_blocks(), dev.block_size())?;
        Ok(FileSystem {
            dev,
            geo,
            lock: Mutex::new(()),
        })
    }

    /// The mounted geometry.
    pub fn geometry(&self) -> &FsGeometry {
        &self.geo
    }

    /// Borrows the underlying device.
    pub fn device(&self) -> &D {
        &self.dev
    }

    /// Unmounts, returning the device.
    pub fn into_device(self) -> D {
        self.dev
    }

    /// Runs one operation: takes the lock, hands `op` a fresh transaction
    /// and commits it if `op` succeeds. An `Err` from `op` drops the
    /// transaction, so a failed operation writes nothing.
    pub(crate) fn run<T>(&self, op: impl FnOnce(&mut Txn<'_, D>) -> FsResult<T>) -> FsResult<T> {
        let _g = self.lock.lock();
        let mut txn = Txn::new(&self.dev, &self.geo);
        let out = op(&mut txn)?;
        txn.commit()?;
        Ok(out)
    }

    /// Number of free data bytes.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn free_bytes(&self) -> FsResult<u64> {
        self.run(|t| Ok(Bitmap::new(t).free_count()? * t.geo.block_size as u64))
    }
}

/// The file-system structures as one operation sees them. Every helper
/// re-reads inodes through the transaction rather than trusting a copy a
/// caller decoded earlier, so the transaction's map is the only truth.
impl<D: BlockDevice> Txn<'_, D> {
    // ----- path resolution -------------------------------------------------

    fn resolve_from(&mut self, parts: Components<'_>, full: &str) -> FsResult<u32> {
        let mut ino = ROOT_INO;
        for (depth, part) in parts.iter().enumerate() {
            if InodeTable::new(self).read(ino)?.kind != InodeKind::Dir {
                return Err(FsError::NotADirectory(parts.prefix(depth)));
            }
            ino = self
                .lookup(ino, part)?
                .ok_or_else(|| FsError::NotFound(full.to_string()))?
                .0;
        }
        Ok(ino)
    }

    fn resolve(&mut self, p: &str) -> FsResult<u32> {
        self.resolve_from(path::split(p)?, p)
    }

    /// Resolves the parent directory of `p` and returns `(parent_ino, name)`.
    fn resolve_parent<'p>(&mut self, p: &'p str) -> FsResult<(u32, &'p str)> {
        let (parents, name) = path::split_parent(p)?;
        let dir = self.resolve_from(parents, p)?;
        if InodeTable::new(self).read(dir)?.kind != InodeKind::Dir {
            return Err(FsError::NotADirectory(p.to_string()));
        }
        Ok((dir, name))
    }

    /// Inode `ino`, which must be a regular file.
    fn file_inode(&mut self, ino: u32, p: &str) -> FsResult<Inode> {
        let node = InodeTable::new(self).read(ino)?;
        if node.kind != InodeKind::File {
            return Err(FsError::IsADirectory(p.to_string()));
        }
        Ok(node)
    }

    /// Resolves `p`, which must name a regular file.
    fn resolve_file(&mut self, p: &str) -> FsResult<(u32, Inode)> {
        let ino = self.resolve(p)?;
        Ok((ino, self.file_inode(ino, p)?))
    }

    // ----- block mapping ---------------------------------------------------

    /// Maps `count` consecutive logical file blocks starting at `first` to
    /// device blocks, allocating on demand. `None` marks an unallocated
    /// hole when `allocate` is false.
    fn map_blocks(
        &mut self,
        inode: &mut Inode,
        first: u64,
        count: usize,
        allocate: bool,
    ) -> FsResult<Vec<Option<u64>>> {
        let direct = DIRECT_POINTERS as u64;
        let end = first + count as u64;
        if end > direct + self.geo.block_size as u64 / 4 {
            return Err(FsError::FileTooLarge);
        }
        let mut out = Vec::with_capacity(count);
        for logical in first..end.min(direct) {
            let slot = &mut inode.direct[logical as usize];
            if *slot == 0 && allocate {
                *slot = Bitmap::new(self).alloc()? as u32;
            }
            out.push((*slot != 0).then_some(*slot as u64));
        }
        if end <= direct {
            return Ok(out);
        }
        if inode.indirect == 0 {
            if !allocate {
                out.resize(count, None);
                return Ok(out);
            }
            inode.indirect = Bitmap::new(self).alloc()? as u32;
        }
        let table = inode.indirect as u64;
        for logical in first.max(direct)..end {
            let idx = (logical - direct) as usize * 4;
            let mut entry = (&self.get(table)?[idx..idx + 4]).get_u32_le();
            if entry == 0 && allocate {
                entry = Bitmap::new(self).alloc()? as u32;
                self.modify(table, |raw| (&mut raw[idx..idx + 4]).put_u32_le(entry))?;
            }
            out.push((entry != 0).then_some(entry as u64));
        }
        Ok(out)
    }

    fn read_at(&mut self, inode: &mut Inode, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        let bs = self.geo.block_size as u64;
        let end = offset.saturating_add(len as u64).min(inode.size);
        if offset >= end {
            return Ok(Vec::new());
        }
        let first = offset / bs;
        let count = ((end - 1) / bs - first + 1) as usize;
        let mapped = self.map_blocks(inode, first, count, false)?;
        // One vectored device round for the blocks of the range this
        // operation has not seen yet.
        self.get_many(mapped.iter().flatten().copied())?;
        let mut out = Vec::with_capacity((end - offset) as usize);
        let mut pos = offset;
        for slot in mapped {
            let within = (pos % bs) as usize;
            let take = ((bs as usize) - within).min((end - pos) as usize);
            match slot {
                Some(block) => out.extend_from_slice(&self.get(block)?[within..within + take]),
                None => out.resize(out.len() + take, 0), // hole
            }
            pos += take as u64;
        }
        Ok(out)
    }

    fn write_at(&mut self, inode: &mut Inode, offset: u64, data: &[u8]) -> FsResult<()> {
        if data.is_empty() {
            return Ok(());
        }
        let bs = self.geo.block_size as u64;
        let end = offset + data.len() as u64;
        if end > self.geo.max_file_size() {
            return Err(FsError::FileTooLarge);
        }
        let first = offset / bs;
        let count = ((end - 1) / bs - first + 1) as usize;
        let mapped = self.map_blocks(inode, first, count, true)?;
        let mut pos = offset;
        for block in mapped.into_iter().flatten() {
            let within = (pos % bs) as usize;
            let take = ((bs as usize) - within).min((end - pos) as usize);
            let src = &data[(pos - offset) as usize..][..take];
            if take == bs as usize {
                // Full-block overwrite: no read, no copy of the old block,
                // and this one copy of the new one is what commit writes.
                self.put(block, BlockData::from(src));
            } else {
                self.modify(block, |raw| raw[within..within + take].copy_from_slice(src))?;
            }
            pos += take as u64;
        }
        inode.size = inode.size.max(end);
        Ok(())
    }

    /// Frees every block past `size`, zeroes the tail of the last kept
    /// block so re-extension reads zeros, not stale bytes, and sets the
    /// size. Shrinking to 0 frees everything the inode holds.
    fn shrink(&mut self, node: &mut Inode, size: u64) -> FsResult<()> {
        let bs = self.geo.block_size as u64;
        let keep = size.div_ceil(bs) as usize;
        let mut freed = Vec::with_capacity(DIRECT_POINTERS + 1 + bs as usize / 4);
        freed.extend(node.direct.iter_mut().skip(keep).map(std::mem::take));
        if node.indirect != 0 {
            let table = node.indirect as u64;
            let from = (keep.saturating_sub(DIRECT_POINTERS) * 4).min(bs as usize);
            if from == 0 {
                // The whole table goes away; alloc() zeroes blocks on reuse,
                // so it needs no write-back.
                freed.push(std::mem::take(&mut node.indirect));
            }
            let tail = freed.len();
            let raw = self.get(table)?;
            freed.extend(raw[from..].chunks_exact(4).map(|mut p| p.get_u32_le()));
            if from != 0 && freed[tail..].iter().any(|&p| p != 0) {
                self.modify(table, |raw| raw[from..].fill(0))?;
            }
        }
        for block in freed.into_iter().filter(|&p| p != 0) {
            Bitmap::new(self).free(block as u64)?;
        }
        if size % bs != 0 {
            if let Some(&Some(block)) = self.map_blocks(node, size / bs, 1, false)?.first() {
                self.modify(block, |raw| raw[(size % bs) as usize..].fill(0))?;
            }
        }
        node.size = size;
        Ok(())
    }

    // ----- directory internals ----------------------------------------------

    /// Offers a directory's 32-byte slots to `visit` in order, as
    /// `(slot index, slot bytes)`, until it returns `Some`, and returns
    /// that. The slots are read in place in the transaction's blocks, all
    /// fetched first in one vectored read. A slot that straddles two
    /// blocks (a block size that is not a multiple of 32) is gathered into
    /// a stack buffer, and a hole reads as free slots.
    fn scan_dir<T>(
        &mut self,
        dir_ino: u32,
        mut visit: impl FnMut(u64, &[u8]) -> Option<T>,
    ) -> FsResult<Option<T>> {
        let mut dir = InodeTable::new(self).read(dir_ino)?;
        if dir.size == 0 {
            return Ok(None);
        }
        let count = dir.size.div_ceil(self.geo.block_size as u64) as usize;
        let mapped = self.map_blocks(&mut dir, 0, count, false)?;
        self.get_many(mapped.iter().flatten().copied())?;
        let slots = dir.size / DIRENT_SIZE as u64;
        // `next` is the index of the next slot to offer; `held` bytes of it
        // are in `split` when it began in the previous block.
        let (mut next, mut split, mut held) = (0, [0; DIRENT_SIZE], 0);
        for block in mapped {
            let zero;
            let mut raw = match block {
                Some(block) => self.get(block)?,
                None => {
                    zero = self.zeroed();
                    zero.as_slice()
                }
            };
            if held > 0 {
                let (head, rest) = raw.split_at(DIRENT_SIZE - held);
                split[held..].copy_from_slice(head);
                raw = rest;
                if next < slots {
                    if let Some(hit) = visit(next, &split) {
                        return Ok(Some(hit));
                    }
                    next += 1;
                }
            }
            let mut whole = raw.chunks_exact(DIRENT_SIZE);
            for slot in whole.by_ref() {
                if next == slots {
                    return Ok(None);
                }
                if let Some(hit) = visit(next, slot) {
                    return Ok(Some(hit));
                }
                next += 1;
            }
            held = whole.remainder().len();
            split[..held].copy_from_slice(whole.remainder());
        }
        Ok(None)
    }

    /// Finds `name` in a directory: `(inode, byte offset of its slot)`.
    fn lookup(&mut self, dir_ino: u32, name: &str) -> FsResult<Option<(u32, u64)>> {
        self.scan_dir(dir_ino, |i, slot| {
            Some((Dirent::inode_named(slot, name)?, i * DIRENT_SIZE as u64))
        })
    }

    fn dir_insert(&mut self, dir_ino: u32, name: &str, ino: u32) -> FsResult<()> {
        // Reuse a free slot if one exists; otherwise append.
        let free = self.scan_dir(dir_ino, |i, slot| Dirent::is_free(slot).then_some(i))?;
        let mut dir = InodeTable::new(self).read(dir_ino)?;
        let slot = free.unwrap_or(dir.size / DIRENT_SIZE as u64);
        let record = Dirent::record(ino, name);
        self.write_at(&mut dir, slot * DIRENT_SIZE as u64, &record)?;
        InodeTable::new(self).write(dir_ino, &dir)
    }

    /// Clears the slot at `offset` (as returned by [`lookup`](Self::lookup)).
    /// The slot exists, so the directory's inode does not change.
    fn dir_remove(&mut self, dir_ino: u32, offset: u64) -> FsResult<()> {
        let mut dir = InodeTable::new(self).read(dir_ino)?;
        self.write_at(&mut dir, offset, &Dirent::free_slot())
    }

    /// All live entries of a directory inode (the consistency checker walks
    /// by inode rather than by path).
    pub(crate) fn dir_entries(&mut self, dir_ino: u32) -> FsResult<Vec<Dirent>> {
        let mut entries = Vec::new();
        self.scan_dir(dir_ino, |_, slot| {
            entries.extend(Dirent::decode(slot));
            None::<()>
        })?;
        Ok(entries)
    }

    /// Allocates a `kind` inode and links it as `name` in directory `dir`.
    fn create_in(&mut self, dir: u32, name: &str, kind: InodeKind) -> FsResult<u32> {
        let ino = InodeTable::new(self).alloc(kind)?;
        self.dir_insert(dir, name, ino)?;
        Ok(ino)
    }

    fn create_node(&mut self, p: &str, kind: InodeKind) -> FsResult<()> {
        let (dir, name) = self.resolve_parent(p)?;
        if self.lookup(dir, name)?.is_some() {
            return Err(FsError::AlreadyExists(p.to_string()));
        }
        self.create_in(dir, name, kind).map(|_| ())
    }

    /// Unlinks `p`, which must be of kind `want` (and empty if a
    /// directory), freeing its blocks and inode.
    fn remove_node(&mut self, p: &str, want: InodeKind) -> FsResult<()> {
        let (dir, name) = self.resolve_parent(p)?;
        let (ino, offset) = self
            .lookup(dir, name)?
            .ok_or_else(|| FsError::NotFound(p.to_string()))?;
        let mut node = InodeTable::new(self).read(ino)?;
        if node.kind != want {
            return Err(match want {
                InodeKind::Dir => FsError::NotADirectory(p.to_string()),
                _ => FsError::IsADirectory(p.to_string()),
            });
        }
        if want == InodeKind::Dir
            && self
                .scan_dir(ino, |_, slot| (!Dirent::is_free(slot)).then_some(()))?
                .is_some()
        {
            return Err(FsError::DirectoryNotEmpty(p.to_string()));
        }
        self.dir_remove(dir, offset)?;
        self.shrink(&mut node, 0)?;
        InodeTable::new(self).free(ino)
    }
}

impl<D: BlockDevice> FileSystem<D> {
    // ----- public operations -------------------------------------------------

    /// Creates an empty file.
    ///
    /// # Errors
    ///
    /// [`FsError::AlreadyExists`], [`FsError::NotFound`] (missing parent),
    /// [`FsError::NoInodes`], [`FsError::NoSpace`], or device errors.
    pub fn create(&self, p: &str) -> FsResult<()> {
        self.run(|t| t.create_node(p, InodeKind::File))
    }

    /// Creates an empty directory.
    ///
    /// # Errors
    ///
    /// As for [`create`](Self::create).
    pub fn mkdir(&self, p: &str) -> FsResult<()> {
        self.run(|t| t.create_node(p, InodeKind::Dir))
    }

    /// Writes `data` at byte `offset`, extending the file as needed
    /// (creating a sparse hole when `offset` lies past the end).
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`], [`FsError::IsADirectory`],
    /// [`FsError::FileTooLarge`], [`FsError::NoSpace`], or device errors.
    pub fn write(&self, p: &str, offset: u64, data: &[u8]) -> FsResult<()> {
        self.write_to(p, Some(offset), data).map(|_| ())
    }

    /// Writes `data` at `offset`, or at the end of the file for `None` —
    /// the size is read and the bytes written inside one operation, so
    /// concurrent appends never overwrite each other. Returns the offset
    /// just past the written bytes.
    pub(crate) fn write_to(&self, p: &str, offset: Option<u64>, data: &[u8]) -> FsResult<u64> {
        self.run(|t| {
            let (ino, mut node) = t.resolve_file(p)?;
            let offset = offset.unwrap_or(node.size);
            t.write_at(&mut node, offset, data)?;
            InodeTable::new(t).write(ino, &node)?;
            Ok(offset + data.len() as u64)
        })
    }

    /// Reads up to `len` bytes from byte `offset` (short reads at EOF, like
    /// `pread`).
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`], [`FsError::IsADirectory`], or device errors.
    pub fn read(&self, p: &str, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        self.run(|t| {
            let (_, mut node) = t.resolve_file(p)?;
            t.read_at(&mut node, offset, len)
        })
    }

    /// Replaces the file's contents (creating it if missing) — the
    /// `echo data > file` convenience. All or nothing: if the new contents
    /// do not fit, the old file is left as it was.
    ///
    /// # Errors
    ///
    /// As for [`create`](Self::create) and [`write`](Self::write).
    pub fn write_file(&self, p: &str, data: &[u8]) -> FsResult<()> {
        self.run(|t| {
            let (dir, name) = t.resolve_parent(p)?;
            let (ino, mut node) = match t.lookup(dir, name)? {
                Some((ino, _)) => {
                    let mut node = t.file_inode(ino, p)?;
                    t.shrink(&mut node, 0)?;
                    (ino, node)
                }
                None => (
                    t.create_in(dir, name, InodeKind::File)?,
                    Inode::new(InodeKind::File),
                ),
            };
            t.write_at(&mut node, 0, data)?;
            InodeTable::new(t).write(ino, &node)
        })
    }

    /// Reads a whole file.
    ///
    /// # Errors
    ///
    /// As for [`read`](Self::read).
    pub fn read_file(&self, p: &str) -> FsResult<Vec<u8>> {
        self.read(p, 0, usize::MAX)
    }

    /// Truncates (or sparsely extends) a file to `size` bytes.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`], [`FsError::IsADirectory`],
    /// [`FsError::FileTooLarge`], or device errors.
    pub fn truncate(&self, p: &str, size: u64) -> FsResult<()> {
        if size > self.geo.max_file_size() {
            return Err(FsError::FileTooLarge);
        }
        self.run(|t| {
            let (ino, mut node) = t.resolve_file(p)?;
            if size < node.size {
                t.shrink(&mut node, size)?;
            } else {
                node.size = size;
            }
            InodeTable::new(t).write(ino, &node)
        })
    }

    /// Removes a file, freeing its blocks and inode.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`], [`FsError::IsADirectory`], or device errors.
    pub fn remove_file(&self, p: &str) -> FsResult<()> {
        self.run(|t| t.remove_node(p, InodeKind::File))
    }

    /// Removes an empty directory.
    ///
    /// # Errors
    ///
    /// [`FsError::DirectoryNotEmpty`], [`FsError::NotADirectory`],
    /// [`FsError::NotFound`], [`FsError::InvalidPath`] (the root), or
    /// device errors.
    pub fn remove_dir(&self, p: &str) -> FsResult<()> {
        self.run(|t| t.remove_node(p, InodeKind::Dir))
    }

    /// Renames (moves) a file or directory. Refuses to move a directory
    /// into its own subtree.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`], [`FsError::AlreadyExists`],
    /// [`FsError::InvalidPath`], or device errors.
    pub fn rename(&self, from: &str, to: &str) -> FsResult<()> {
        // Reject moving a directory under itself: "/a" -> "/a/b/c".
        if path::split(to)?.is_below(path::split(from)?) {
            return Err(FsError::InvalidPath(format!("{to} is inside {from}")));
        }
        self.run(|t| {
            let (from_dir, from_name) = t.resolve_parent(from)?;
            let (ino, from_offset) = t
                .lookup(from_dir, from_name)?
                .ok_or_else(|| FsError::NotFound(from.to_string()))?;
            let (to_dir, to_name) = t.resolve_parent(to)?;
            if t.lookup(to_dir, to_name)?.is_some() {
                return Err(FsError::AlreadyExists(to.to_string()));
            }
            // An insert never moves existing entries, so `from_offset`
            // stays valid even when both names share a directory.
            t.dir_insert(to_dir, to_name, ino)?;
            t.dir_remove(from_dir, from_offset)
        })
    }

    /// `stat`: metadata of a file or directory.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] or device errors.
    pub fn stat(&self, p: &str) -> FsResult<Metadata> {
        self.run(|t| {
            let ino = t.resolve(p)?;
            let node = InodeTable::new(t).read(ino)?;
            Ok(Metadata {
                kind: match node.kind {
                    InodeKind::Dir => FileKind::Directory,
                    _ => FileKind::File,
                },
                size: node.size,
            })
        })
    }

    /// Whether a path exists.
    pub fn exists(&self, p: &str) -> bool {
        self.run(|t| t.resolve(p)).is_ok()
    }

    /// Lists a directory's entry names, sorted.
    ///
    /// # Errors
    ///
    /// [`FsError::NotADirectory`], [`FsError::NotFound`], or device errors.
    pub fn read_dir(&self, p: &str) -> FsResult<Vec<String>> {
        self.run(|t| {
            let ino = t.resolve(p)?;
            if InodeTable::new(t).read(ino)?.kind != InodeKind::Dir {
                return Err(FsError::NotADirectory(p.to_string()));
            }
            let mut names: Vec<String> = t.dir_entries(ino)?.into_iter().map(|e| e.name).collect();
            names.sort();
            Ok(names)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockrep_storage::MemStore;

    fn fresh() -> FileSystem<MemStore> {
        FileSystem::format(MemStore::new(512, 512)).unwrap()
    }

    #[test]
    fn format_then_mount_roundtrip() {
        let fs = fresh();
        fs.write_file("/persist", b"data").unwrap();
        let dev = fs.into_device();
        let fs2 = FileSystem::mount(dev).unwrap();
        assert_eq!(fs2.read_file("/persist").unwrap(), b"data");
    }

    #[test]
    fn mount_unformatted_device_fails() {
        assert!(matches!(
            FileSystem::mount(MemStore::new(64, 512)),
            Err(FsError::BadSuperblock(_))
        ));
    }

    #[test]
    fn root_starts_empty() {
        let fs = fresh();
        assert_eq!(fs.read_dir("/").unwrap(), Vec::<String>::new());
        assert!(fs.stat("/").unwrap().is_dir());
    }

    #[test]
    fn create_write_read_small_file() {
        let fs = fresh();
        fs.create("/hello").unwrap();
        fs.write("/hello", 0, b"world").unwrap();
        assert_eq!(fs.read("/hello", 0, 100).unwrap(), b"world");
        assert_eq!(fs.stat("/hello").unwrap().size, 5);
    }

    #[test]
    fn overwrite_in_place() {
        let fs = fresh();
        fs.write_file("/f", b"aaaaaa").unwrap();
        fs.write("/f", 2, b"XX").unwrap();
        assert_eq!(fs.read_file("/f").unwrap(), b"aaXXaa");
    }

    #[test]
    fn sparse_files_read_zeroes_in_holes() {
        let fs = fresh();
        fs.create("/sparse").unwrap();
        fs.write("/sparse", 3 * 512 + 10, b"tail").unwrap();
        let data = fs.read_file("/sparse").unwrap();
        assert_eq!(data.len(), 3 * 512 + 14);
        assert!(data[..3 * 512 + 10].iter().all(|&b| b == 0));
        assert_eq!(&data[3 * 512 + 10..], b"tail");
    }

    #[test]
    fn multi_block_file_via_indirect_pointers() {
        let fs = fresh();
        // 40 blocks worth — far past the 12 direct pointers.
        let data: Vec<u8> = (0..40 * 512u32).map(|i| (i % 251) as u8).collect();
        fs.write_file("/big", &data).unwrap();
        assert_eq!(fs.read_file("/big").unwrap(), data);
    }

    #[test]
    fn file_size_limit_enforced() {
        let fs = FileSystem::format(MemStore::new(512, 512)).unwrap();
        let max = fs.geometry().max_file_size();
        assert!(matches!(
            fs.write("/missing-yet", 0, b"x"),
            Err(FsError::NotFound(_))
        ));
        fs.create("/limit").unwrap();
        assert!(matches!(
            fs.write("/limit", max, b"x"),
            Err(FsError::FileTooLarge)
        ));
    }

    #[test]
    fn directories_nest_and_list() {
        let fs = fresh();
        fs.mkdir("/a").unwrap();
        fs.mkdir("/a/b").unwrap();
        fs.write_file("/a/b/c", b"1").unwrap();
        fs.write_file("/a/x", b"2").unwrap();
        assert_eq!(fs.read_dir("/a").unwrap(), vec!["b", "x"]);
        assert_eq!(fs.read_dir("/a/b").unwrap(), vec!["c"]);
    }

    #[test]
    fn duplicate_names_rejected() {
        let fs = fresh();
        fs.create("/f").unwrap();
        assert!(matches!(fs.create("/f"), Err(FsError::AlreadyExists(_))));
        assert!(matches!(fs.mkdir("/f"), Err(FsError::AlreadyExists(_))));
    }

    #[test]
    fn remove_file_frees_space() {
        let fs = fresh();
        // Prime the root directory so its entry block is already allocated.
        fs.create("/keep").unwrap();
        let before = fs.free_bytes().unwrap();
        fs.write_file("/tmp", &vec![1u8; 20 * 512]).unwrap();
        assert!(fs.free_bytes().unwrap() < before);
        fs.remove_file("/tmp").unwrap();
        assert_eq!(fs.free_bytes().unwrap(), before);
        assert!(!fs.exists("/tmp"));
    }

    #[test]
    fn remove_dir_requires_empty() {
        let fs = fresh();
        fs.mkdir("/d").unwrap();
        fs.write_file("/d/f", b"x").unwrap();
        assert!(matches!(
            fs.remove_dir("/d"),
            Err(FsError::DirectoryNotEmpty(_))
        ));
        fs.remove_file("/d/f").unwrap();
        fs.remove_dir("/d").unwrap();
        assert!(!fs.exists("/d"));
    }

    #[test]
    fn truncate_shrinks_and_zero_fills() {
        let fs = fresh();
        fs.write_file("/t", &vec![7u8; 1000]).unwrap();
        fs.truncate("/t", 100).unwrap();
        assert_eq!(fs.stat("/t").unwrap().size, 100);
        // Re-extend: the formerly truncated range must read zero.
        fs.write("/t", 200, b"z").unwrap();
        let data = fs.read_file("/t").unwrap();
        assert!(data[..100].iter().all(|&b| b == 7));
        assert!(data[100..200].iter().all(|&b| b == 0));
        assert_eq!(data[200], b'z');
    }

    #[test]
    fn rename_moves_across_directories() {
        let fs = fresh();
        fs.mkdir("/src").unwrap();
        fs.mkdir("/dst").unwrap();
        fs.write_file("/src/f", b"move me").unwrap();
        fs.rename("/src/f", "/dst/g").unwrap();
        assert!(!fs.exists("/src/f"));
        assert_eq!(fs.read_file("/dst/g").unwrap(), b"move me");
    }

    #[test]
    fn rename_refuses_cycle() {
        let fs = fresh();
        fs.mkdir("/a").unwrap();
        assert!(matches!(
            fs.rename("/a", "/a/b"),
            Err(FsError::InvalidPath(_))
        ));
    }

    #[test]
    fn rename_refuses_overwrite() {
        let fs = fresh();
        fs.write_file("/a", b"1").unwrap();
        fs.write_file("/b", b"2").unwrap();
        assert!(matches!(
            fs.rename("/a", "/b"),
            Err(FsError::AlreadyExists(_))
        ));
    }

    #[test]
    fn file_operations_reject_directories_and_vice_versa() {
        let fs = fresh();
        fs.mkdir("/d").unwrap();
        fs.write_file("/f", b"x").unwrap();
        assert!(matches!(fs.read("/d", 0, 1), Err(FsError::IsADirectory(_))));
        assert!(matches!(
            fs.write("/d", 0, b"x"),
            Err(FsError::IsADirectory(_))
        ));
        assert!(matches!(fs.read_dir("/f"), Err(FsError::NotADirectory(_))));
        assert!(matches!(
            fs.remove_file("/d"),
            Err(FsError::IsADirectory(_))
        ));
        assert!(matches!(
            fs.remove_dir("/f"),
            Err(FsError::NotADirectory(_))
        ));
    }

    #[test]
    fn path_through_file_is_not_a_directory() {
        let fs = fresh();
        fs.write_file("/f", b"x").unwrap();
        assert!(matches!(
            fs.read_file("/f/under"),
            Err(FsError::NotADirectory(_))
        ));
    }

    #[test]
    fn directory_grows_past_one_block_of_entries() {
        let fs = fresh();
        fs.mkdir("/many").unwrap();
        // 16 entries fit in one 512-byte block; insert 40.
        for i in 0..40 {
            fs.write_file(&format!("/many/file{i:02}"), b"x").unwrap();
        }
        let listing = fs.read_dir("/many").unwrap();
        assert_eq!(listing.len(), 40);
        assert_eq!(listing[0], "file00");
        assert_eq!(listing[39], "file39");
    }

    #[test]
    fn deleted_entry_slot_is_reused() {
        let fs = fresh();
        fs.mkdir("/d").unwrap();
        for i in 0..5 {
            fs.write_file(&format!("/d/f{i}"), b"x").unwrap();
        }
        let size_before = fs.stat("/d").unwrap().size;
        fs.remove_file("/d/f2").unwrap();
        fs.write_file("/d/f5", b"x").unwrap();
        assert_eq!(fs.stat("/d").unwrap().size, size_before);
    }

    #[test]
    fn directory_slots_may_straddle_blocks() {
        // An 80-byte block holds two and a half 32-byte slots, so slot 2
        // spans the directory's first two blocks.
        let fs = FileSystem::format(MemStore::new(512, 80)).unwrap();
        fs.mkdir("/d").unwrap();
        for i in 0..12 {
            fs.write_file(&format!("/d/e{i:02}"), &[i as u8]).unwrap();
        }
        let size = fs.stat("/d").unwrap().size;
        fs.remove_file("/d/e02").unwrap();
        assert!(!fs.exists("/d/e02"));
        assert_eq!(fs.read_file("/d/e07").unwrap(), [7]);
        // The freed straddling slot is the first free one, and is reused.
        fs.create("/d/new").unwrap();
        assert_eq!(fs.stat("/d").unwrap().size, size);
        assert_eq!(fs.read_dir("/d").unwrap().len(), 12);
        assert!(matches!(
            fs.remove_dir("/d"),
            Err(FsError::DirectoryNotEmpty(_))
        ));
        assert!(fs.check().unwrap().is_clean());
    }

    /// Fills the device to the last block with files named `prefix0..`.
    fn fill(fs: &FileSystem<MemStore>, prefix: &str) {
        let mut n = 0;
        while fs
            .write_file(&format!("{prefix}{n}"), &vec![0xEE; 64 * 512])
            .is_ok()
        {
            n += 1;
        }
        // Top up a block at a time: growing a file that already has its
        // indirect block needs no directory entry and no pointer block.
        let mut first = fs.open(&format!("{prefix}0")).unwrap();
        while first.append(&[0xEE; 512]).is_ok() {}
        assert_eq!(fs.free_bytes().unwrap(), 0);
    }

    #[test]
    fn failed_write_file_leaves_the_old_file_intact() {
        let fs = fresh();
        fs.write_file("/victim", &vec![7u8; 1000]).unwrap();
        fill(&fs, "/fill");
        let free = fs.free_bytes().unwrap();
        // Needs far more blocks than the victim's own two would free up.
        let err = fs.write_file("/victim", &vec![8u8; 20 * 512]).unwrap_err();
        assert!(matches!(err, FsError::NoSpace), "got {err}");
        let too_large = vec![9u8; fs.geometry().max_file_size() as usize + 1];
        let err = fs.write_file("/victim", &too_large).unwrap_err();
        assert!(matches!(err, FsError::FileTooLarge), "got {err}");
        assert_eq!(fs.read_file("/victim").unwrap(), vec![7u8; 1000]);
        assert_eq!(fs.free_bytes().unwrap(), free);
        let report = fs.check().unwrap();
        assert!(report.is_clean(), "{:?}", report.problems);
        // A replacement that fits in the victim's own blocks still works.
        fs.write_file("/victim", &vec![8u8; 1024]).unwrap();
        assert_eq!(fs.read_file("/victim").unwrap(), vec![8u8; 1024]);
    }

    #[test]
    fn failed_create_leaks_no_inode() {
        let fs = fresh();
        fs.mkdir("/d").unwrap();
        // Sixteen empty files fill /d's only entry block exactly.
        for i in 0..16 {
            fs.create(&format!("/d/e{i:02}")).unwrap();
        }
        fill(&fs, "/fill");
        // The seventeenth entry needs a second directory block.
        for attempt in [fs.create("/d/overflow"), fs.mkdir("/d/overflow")] {
            assert!(matches!(attempt, Err(FsError::NoSpace)), "{attempt:?}");
        }
        assert!(!fs.exists("/d/overflow"));
        assert_eq!(fs.read_dir("/d").unwrap().len(), 16);
        let report = fs.check().unwrap();
        assert!(report.is_clean(), "{:?}", report.problems);
        fs.remove_file("/fill0").unwrap();
        fs.create("/d/overflow").unwrap();
        assert!(fs.check().unwrap().is_clean());
    }

    #[test]
    fn no_space_surfaces_cleanly() {
        let fs = FileSystem::format(MemStore::new(32, 512)).unwrap();
        let mut wrote = 0;
        // Two-block files exhaust the 28 data blocks before the 16 inodes.
        let err = loop {
            match fs.write_file(&format!("/f{wrote}"), &vec![1u8; 1024]) {
                Ok(()) => wrote += 1,
                Err(e) => break e,
            }
        };
        assert!(matches!(err, FsError::NoSpace), "got {err}");
        assert!(wrote > 0);
    }
}

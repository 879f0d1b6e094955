//! Cursor-style file handles with `std::io` interop.

use crate::{FileSystem, FsError, FsResult};
use blockrep_storage::BlockDevice;

/// A sequential cursor over one file — the `open`/`read`/`write` shape
/// programs expect, layered on the positional [`FileSystem`] API.
///
/// The handle addresses the file by path on every operation (like a
/// userspace stdio wrapper, not a kernel file descriptor), so renaming or
/// removing the file underneath it surfaces as [`FsError::NotFound`] on the
/// next use rather than acting on a recycled inode.
///
/// Implements [`std::io::Read`] and [`std::io::Write`], so generic I/O code
/// — including code that has no idea the bytes live on a replicated
/// device — works unchanged.
///
/// # Examples
///
/// ```
/// use blockrep_fs::FileSystem;
/// use blockrep_storage::MemStore;
/// use std::io::{Read, Write};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let fs = FileSystem::format(MemStore::new(128, 512))?;
/// fs.create("/log")?;
///
/// let mut w = fs.open("/log")?;
/// writeln!(w, "line one")?;
/// writeln!(w, "line two")?;
///
/// let mut text = String::new();
/// fs.open("/log")?.read_to_string(&mut text)?;
/// assert_eq!(text, "line one\nline two\n");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FileHandle<'fs, D> {
    fs: &'fs FileSystem<D>,
    path: String,
    offset: u64,
}

impl<D: BlockDevice> FileSystem<D> {
    /// Opens an existing regular file, returning a cursor at offset 0.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] or [`FsError::IsADirectory`].
    pub fn open(&self, path: &str) -> FsResult<FileHandle<'_, D>> {
        let meta = self.stat(path)?;
        if meta.is_dir() {
            return Err(FsError::IsADirectory(path.to_string()));
        }
        Ok(FileHandle {
            fs: self,
            path: path.to_string(),
            offset: 0,
        })
    }
}

impl<D: BlockDevice> FileHandle<'_, D> {
    /// The path this handle addresses.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Current cursor offset in bytes.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Moves the cursor to an absolute offset (may exceed the file size;
    /// a later write creates a sparse hole).
    pub fn seek_to(&mut self, offset: u64) -> &mut Self {
        self.offset = offset;
        self
    }

    /// Moves the cursor to the end of the file and returns the new offset.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] if the file vanished.
    pub fn seek_end(&mut self) -> FsResult<u64> {
        self.offset = self.fs.stat(&self.path)?.size;
        Ok(self.offset)
    }

    /// Reads up to `len` bytes at the cursor, advancing it. Short reads at
    /// end of file; empty at or past it.
    ///
    /// # Errors
    ///
    /// As for [`FileSystem::read`].
    pub fn read_at_cursor(&mut self, len: usize) -> FsResult<Vec<u8>> {
        let data = self.fs.read(&self.path, self.offset, len)?;
        self.offset += data.len() as u64;
        Ok(data)
    }

    /// Writes `data` at the cursor, advancing it.
    ///
    /// # Errors
    ///
    /// As for [`FileSystem::write`].
    pub fn write_at_cursor(&mut self, data: &[u8]) -> FsResult<()> {
        self.offset = self.fs.write_to(&self.path, Some(self.offset), data)?;
        Ok(())
    }

    /// Appends `data` at the end of the file, leaving the cursor after it.
    /// Finding the end and writing there are one file-system operation, so
    /// handles appending to the same file from several threads never
    /// overwrite each other's records.
    ///
    /// # Errors
    ///
    /// As for [`FileSystem::write`].
    pub fn append(&mut self, data: &[u8]) -> FsResult<()> {
        self.offset = self.fs.write_to(&self.path, None, data)?;
        Ok(())
    }
}

fn to_io(e: FsError) -> std::io::Error {
    let kind = match &e {
        FsError::NotFound(_) => std::io::ErrorKind::NotFound,
        FsError::NoSpace | FsError::NoInodes => std::io::ErrorKind::StorageFull,
        FsError::FileTooLarge => std::io::ErrorKind::FileTooLarge,
        _ => std::io::ErrorKind::Other,
    };
    std::io::Error::new(kind, e)
}

impl<D: BlockDevice> std::io::Read for FileHandle<'_, D> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let data = self.read_at_cursor(buf.len()).map_err(to_io)?;
        buf[..data.len()].copy_from_slice(&data);
        Ok(data.len())
    }
}

impl<D: BlockDevice> std::io::Write for FileHandle<'_, D> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.write_at_cursor(buf).map_err(to_io)?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.fs
            .device()
            .flush()
            .map_err(|e| to_io(FsError::Device(e)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockrep_storage::MemStore;
    use std::io::{Read, Write};

    fn fresh() -> FileSystem<MemStore> {
        FileSystem::format(MemStore::new(256, 512)).unwrap()
    }

    #[test]
    fn sequential_writes_then_reads() {
        let fs = fresh();
        fs.create("/f").unwrap();
        let mut h = fs.open("/f").unwrap();
        h.write_at_cursor(b"abc").unwrap();
        h.write_at_cursor(b"def").unwrap();
        assert_eq!(h.offset(), 6);
        let mut r = fs.open("/f").unwrap();
        assert_eq!(r.read_at_cursor(4).unwrap(), b"abcd");
        assert_eq!(r.read_at_cursor(10).unwrap(), b"ef");
        assert_eq!(r.read_at_cursor(10).unwrap(), b"");
    }

    #[test]
    fn append_always_lands_at_the_end() {
        let fs = fresh();
        fs.write_file("/log", b"start").unwrap();
        let mut h = fs.open("/log").unwrap();
        h.append(b"+one").unwrap();
        let mut h2 = fs.open("/log").unwrap();
        h2.append(b"+two").unwrap();
        assert_eq!(fs.read_file("/log").unwrap(), b"start+one+two");
    }

    #[test]
    fn concurrent_appends_never_overwrite_each_other() {
        const RECORDS: u32 = 400;
        let fs = FileSystem::format(MemStore::new(256, 512)).unwrap();
        fs.create("/log").unwrap();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for writer in 0..2u32 {
                let (fs, start) = (&fs, &start);
                scope.spawn(move || {
                    let mut h = fs.open("/log").unwrap();
                    start.wait();
                    for seq in 0..RECORDS {
                        // A fixed-size 8-byte record: who wrote it, and when.
                        let record = [writer.to_le_bytes(), seq.to_le_bytes()].concat();
                        h.append(&record).unwrap();
                    }
                });
            }
        });
        let log = fs.read_file("/log").unwrap();
        assert_eq!(log.len(), 2 * RECORDS as usize * 8, "a record was lost");
        // Every record of each writer is there once, intact and in order.
        let mut next = [0u32; 2];
        for record in log.chunks_exact(8) {
            let writer = u32::from_le_bytes([record[0], record[1], record[2], record[3]]);
            let seq = u32::from_le_bytes([record[4], record[5], record[6], record[7]]);
            assert!(writer < 2, "torn record {record:?}");
            assert_eq!(seq, next[writer as usize], "writer {writer}");
            next[writer as usize] += 1;
        }
        assert_eq!(next, [RECORDS; 2]);
    }

    #[test]
    fn seek_and_sparse_write() {
        let fs = fresh();
        fs.create("/sparse").unwrap();
        let mut h = fs.open("/sparse").unwrap();
        h.seek_to(1000);
        h.write_at_cursor(b"tail").unwrap();
        assert_eq!(fs.stat("/sparse").unwrap().size, 1004);
        let mut r = fs.open("/sparse").unwrap();
        let head = r.read_at_cursor(4).unwrap();
        assert_eq!(head, vec![0, 0, 0, 0]);
    }

    #[test]
    fn opening_directories_and_missing_files_fails() {
        let fs = fresh();
        fs.mkdir("/d").unwrap();
        assert!(matches!(fs.open("/d"), Err(FsError::IsADirectory(_))));
        assert!(matches!(fs.open("/ghost"), Err(FsError::NotFound(_))));
    }

    #[test]
    fn handle_detects_removed_file() {
        let fs = fresh();
        fs.write_file("/f", b"x").unwrap();
        let mut h = fs.open("/f").unwrap();
        fs.remove_file("/f").unwrap();
        assert!(matches!(h.read_at_cursor(1), Err(FsError::NotFound(_))));
    }

    #[test]
    fn io_read_write_interop() {
        let fs = fresh();
        fs.create("/io").unwrap();
        {
            let mut w = fs.open("/io").unwrap();
            w.write_all(b"hello ").unwrap();
            write!(w, "world {}", 42).unwrap();
            w.flush().unwrap();
        }
        let mut s = String::new();
        fs.open("/io").unwrap().read_to_string(&mut s).unwrap();
        assert_eq!(s, "hello world 42");
    }

    #[test]
    fn io_errors_map_to_kinds() {
        let fs = fresh();
        fs.write_file("/f", b"x").unwrap();
        let mut h = fs.open("/f").unwrap();
        fs.remove_file("/f").unwrap();
        let mut buf = [0u8; 1];
        let err = std::io::Read::read(&mut h, &mut buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    }
}

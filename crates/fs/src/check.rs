//! `fsck`: offline consistency checking of an on-disk file system image.
//!
//! Walks the directory tree from the root and cross-checks everything
//! against the allocation structures: every reachable inode is valid and
//! referenced exactly once, every reachable block is marked used exactly
//! once, and — conversely — nothing marked used is unreachable (leak) and
//! no used inode is orphaned. On a replicated device this doubles as an
//! end-to-end recovery check: after arbitrary crash/repair schedules the
//! image must still be perfectly consistent (the integration tests do
//! exactly that).

use crate::bitmap::Bitmap;
use crate::inode::{InodeKind, InodeTable};
use crate::layout::{DIRECT_POINTERS, DIRENT_SIZE};
use crate::txn::Txn;
use crate::{FileSystem, FsResult};
use blockrep_storage::BlockDevice;
use bytes::Buf;
use core::fmt;
use std::collections::BTreeMap;

/// One inconsistency found by [`FileSystem::check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsckProblem {
    /// Which consistency rule is violated.
    pub rule: &'static str,
    /// Specifics (inodes, blocks, paths).
    pub detail: String,
}

impl fmt::Display for FsckProblem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.rule, self.detail)
    }
}

/// The result of a consistency check.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// All problems found (empty = consistent).
    pub problems: Vec<FsckProblem>,
    /// Regular files reachable from the root.
    pub files: u64,
    /// Directories reachable from the root (including the root).
    pub directories: u64,
    /// Data blocks referenced by reachable inodes.
    pub used_blocks: u64,
}

impl FsckReport {
    /// Whether the image is fully consistent.
    pub fn is_clean(&self) -> bool {
        self.problems.is_empty()
    }

    fn problem(&mut self, rule: &'static str, detail: impl Into<String>) {
        self.problems.push(FsckProblem {
            rule,
            detail: detail.into(),
        });
    }
}

impl<D: BlockDevice> FileSystem<D> {
    /// Checks the whole on-disk image for structural consistency.
    ///
    /// # Errors
    ///
    /// Propagates device errors; inconsistencies are *reported*, not
    /// errored.
    ///
    /// # Examples
    ///
    /// ```
    /// use blockrep_fs::FileSystem;
    /// use blockrep_storage::MemStore;
    ///
    /// # fn main() -> Result<(), blockrep_fs::FsError> {
    /// let fs = FileSystem::format(MemStore::new(128, 512))?;
    /// fs.mkdir("/d")?;
    /// fs.write_file("/d/f", b"data")?;
    /// let report = fs.check()?;
    /// assert!(report.is_clean());
    /// assert_eq!(report.files, 1);
    /// assert_eq!(report.directories, 2); // root + /d
    /// # Ok(())
    /// # }
    /// ```
    pub fn check(&self) -> FsResult<FsckReport> {
        self.run(|t| self.check_in(t))
    }

    fn check_in(&self, t: &mut Txn<'_, D>) -> FsResult<FsckReport> {
        let mut report = FsckReport::default();
        // Every bitmap and inode block is looked at below: fetch the whole
        // metadata region in one vectored read.
        t.get_many(self.geo.bitmap_start..self.geo.data_start)?;

        // Pass 1: walk the tree, counting references to inodes and blocks.
        let mut ino_refs: BTreeMap<u32, u64> = BTreeMap::new();
        let mut block_refs: BTreeMap<u64, u64> = BTreeMap::new();
        let mut queue = vec![(crate::layout::ROOT_INO, "/".to_string())];
        *ino_refs.entry(crate::layout::ROOT_INO).or_default() += 1;
        while let Some((ino, path)) = queue.pop() {
            let node = InodeTable::new(t).read(ino)?;
            match node.kind {
                InodeKind::Free => {
                    report.problem(
                        "entry-points-at-free-inode",
                        format!("{path} -> inode {ino}"),
                    );
                    continue;
                }
                InodeKind::File => report.files += 1,
                InodeKind::Dir => report.directories += 1,
            }
            if node.size > self.geo.max_file_size() {
                report.problem(
                    "size-exceeds-maximum",
                    format!("{path}: {} > {}", node.size, self.geo.max_file_size()),
                );
            }
            if node.kind == InodeKind::Dir && node.size % DIRENT_SIZE as u64 != 0 {
                report.problem(
                    "directory-size-misaligned",
                    format!("{path}: size {}", node.size),
                );
            }
            // Blocks referenced by this inode.
            let mut refer = |report: &mut FsckReport, block: u64, what: &str| {
                if block < self.geo.data_start || block >= self.geo.num_blocks {
                    report.problem(
                        "pointer-outside-data-region",
                        format!("{path}: {what} -> block {block}"),
                    );
                } else {
                    *block_refs.entry(block).or_default() += 1;
                }
            };
            for (i, &p) in node.direct.iter().enumerate() {
                if p != 0 {
                    refer(&mut report, p as u64, &format!("direct[{i}]"));
                }
            }
            if node.indirect != 0 {
                refer(&mut report, node.indirect as u64, "indirect");
                if (node.indirect as u64) >= self.geo.data_start
                    && (node.indirect as u64) < self.geo.num_blocks
                {
                    let mut slice = t.get(node.indirect as u64)?;
                    let mut i = DIRECT_POINTERS;
                    while slice.len() >= 4 {
                        let p = slice.get_u32_le();
                        if p != 0 {
                            refer(&mut report, p as u64, &format!("indirect[{i}]"));
                        }
                        i += 1;
                    }
                }
            }
            // Recurse into directory entries, each inode on its first
            // reference only: a second one is a cross-link that pass 2
            // reports, and following it would walk a directory cycle
            // forever.
            if node.kind == InodeKind::Dir {
                for entry in t.dir_entries(ino)? {
                    let child_path = if path == "/" {
                        format!("/{}", entry.name)
                    } else {
                        format!("{path}/{}", entry.name)
                    };
                    if entry.ino == 0 || entry.ino > self.geo.inode_count {
                        report.problem(
                            "entry-inode-out-of-range",
                            format!("{child_path} -> {}", entry.ino),
                        );
                        continue;
                    }
                    let refs = ino_refs.entry(entry.ino).or_default();
                    *refs += 1;
                    if *refs == 1 {
                        queue.push((entry.ino, child_path));
                    }
                }
            }
        }
        report.used_blocks = block_refs.len() as u64;

        // Pass 2: cross-links (an inode or block referenced twice).
        for (&ino, &count) in &ino_refs {
            if count > 1 {
                report.problem(
                    "inode-referenced-twice",
                    format!("inode {ino} ({count} references)"),
                );
            }
        }
        for (&block, &count) in &block_refs {
            if count > 1 {
                report.problem(
                    "block-cross-linked",
                    format!("block {block} ({count} references)"),
                );
            }
        }

        // Pass 3: the bitmap must match the reference map exactly.
        for block in 0..self.geo.data_start {
            if !Bitmap::new(t).is_used(block)? {
                report.problem("metadata-block-not-reserved", format!("block {block}"));
            }
        }
        for block in self.geo.data_start..self.geo.num_blocks {
            let used = Bitmap::new(t).is_used(block)?;
            let referenced = block_refs.contains_key(&block);
            match (used, referenced) {
                (true, false) => report.problem(
                    "block-leaked",
                    format!("block {block} used but unreachable"),
                ),
                (false, true) => {
                    report.problem("block-in-use-but-free-in-bitmap", format!("block {block}"))
                }
                _ => {}
            }
        }

        // Pass 4: orphaned inodes (allocated but unreachable).
        for ino in 1..=self.geo.inode_count {
            let allocated = InodeTable::new(t).read(ino)?.kind != InodeKind::Free;
            let reachable = ino_refs.contains_key(&ino);
            if allocated && !reachable {
                report.problem("inode-orphaned", format!("inode {ino}"));
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dir::Dirent;
    use blockrep_storage::MemStore;
    use blockrep_types::BlockData;

    /// Corrupts the image behind the file system's back: an edit in its own
    /// transaction, committed straight to the device.
    fn tamper(fs: &FileSystem<MemStore>, edit: impl FnOnce(&mut Txn<'_, MemStore>)) {
        let mut txn = Txn::new(&fs.dev, &fs.geo);
        edit(&mut txn);
        txn.commit().unwrap();
    }

    fn populated() -> FileSystem<MemStore> {
        let fs = FileSystem::format(MemStore::new(256, 512)).unwrap();
        fs.mkdir("/a").unwrap();
        fs.mkdir("/a/b").unwrap();
        fs.write_file("/a/b/deep", &vec![1u8; 9000]).unwrap();
        fs.write_file("/top", b"x").unwrap();
        fs.remove_file("/top").unwrap();
        fs.write_file("/top2", b"y").unwrap();
        fs
    }

    #[test]
    fn healthy_images_are_clean() {
        let fs = populated();
        let report = fs.check().unwrap();
        assert!(report.is_clean(), "{:?}", report.problems);
        assert_eq!(report.files, 2);
        assert_eq!(report.directories, 3);
        assert!(report.used_blocks > 18, "9000 bytes span many blocks");
    }

    #[test]
    fn fresh_image_is_clean_and_empty() {
        let fs = FileSystem::format(MemStore::new(64, 512)).unwrap();
        let report = fs.check().unwrap();
        assert!(report.is_clean());
        assert_eq!(
            (report.files, report.directories, report.used_blocks),
            (0, 1, 0)
        );
    }

    #[test]
    fn detects_leaked_block() {
        let fs = populated();
        // Corrupt: mark a free data block used behind the FS's back.
        tamper(&fs, |t| {
            let mut bitmap = Bitmap::new(t);
            let victim = (fs.geo.data_start..fs.geo.num_blocks)
                .find(|&b| !bitmap.is_used(b).unwrap())
                .unwrap();
            bitmap.set(victim, true).unwrap();
        });
        let report = fs.check().unwrap();
        assert!(
            report.problems.iter().any(|p| p.rule == "block-leaked"),
            "{report:?}"
        );
    }

    #[test]
    fn detects_block_in_use_but_free() {
        let fs = populated();
        tamper(&fs, |t| {
            // Find a block actually used by /top2 via the report, then free it.
            let mut block = 0;
            for ino in 1..=fs.geo.inode_count {
                let node = InodeTable::new(t).read(ino).unwrap();
                if node.kind == InodeKind::File && node.direct[0] != 0 {
                    block = node.direct[0] as u64;
                }
            }
            assert_ne!(block, 0);
            Bitmap::new(t).set(block, false).unwrap();
        });
        let report = fs.check().unwrap();
        assert!(
            report
                .problems
                .iter()
                .any(|p| p.rule == "block-in-use-but-free-in-bitmap"),
            "{report:?}"
        );
    }

    #[test]
    fn detects_orphaned_inode() {
        let fs = populated();
        tamper(&fs, |t| {
            InodeTable::new(t).alloc(InodeKind::File).unwrap(); // allocated, never linked
        });
        let report = fs.check().unwrap();
        assert!(
            report.problems.iter().any(|p| p.rule == "inode-orphaned"),
            "{report:?}"
        );
    }

    #[test]
    fn detects_dangling_directory_entry() {
        let fs = populated();
        tamper(&fs, |t| {
            // Free /top2's inode directly, leaving the dirent dangling.
            let mut inodes = InodeTable::new(t);
            for ino in (1..=fs.geo.inode_count).rev() {
                let node = inodes.read(ino).unwrap();
                if node.kind == InodeKind::File && node.size == 1 {
                    inodes.free(ino).unwrap();
                    break;
                }
            }
        });
        let report = fs.check().unwrap();
        assert!(
            report
                .problems
                .iter()
                .any(|p| p.rule == "entry-points-at-free-inode"),
            "{report:?}"
        );
        // The file's blocks are now leaked too.
        assert!(report.problems.iter().any(|p| p.rule == "block-leaked"));
    }

    #[test]
    fn detects_wild_pointer() {
        let fs = populated();
        tamper(&fs, |t| {
            // Point an inode's direct[1] at the superblock.
            let mut inodes = InodeTable::new(t);
            for ino in 1..=fs.geo.inode_count {
                let mut node = inodes.read(ino).unwrap();
                if node.kind == InodeKind::File {
                    node.direct[1] = 0; // ensure deterministic slot…
                    node.direct[2] = 0;
                    node.direct[1] = u32::MAX; // way out of range
                    inodes.write(ino, &node).unwrap();
                    break;
                }
            }
        });
        let report = fs.check().unwrap();
        assert!(
            report
                .problems
                .iter()
                .any(|p| p.rule == "pointer-outside-data-region"),
            "{report:?}"
        );
    }

    /// Points the entry of `/a/f` (the first slot of `/a`, inode 2) at
    /// inode `ino`.
    fn relink_a_f(fs: &FileSystem<MemStore>, ino: u32) {
        tamper(fs, |t| {
            let block = InodeTable::new(t).read(2).unwrap().direct[0] as u64;
            let slot = &t.get(block).unwrap()[..DIRENT_SIZE];
            assert_eq!(Dirent::decode(slot).unwrap().name, "f");
            t.modify(block, |raw| raw[..4].copy_from_slice(&ino.to_le_bytes()))
                .unwrap();
        });
    }

    fn a_with_f() -> FileSystem<MemStore> {
        let fs = FileSystem::format(MemStore::new(256, 512)).unwrap();
        fs.mkdir("/a").unwrap();
        fs.write_file("/a/f", b"x").unwrap();
        fs
    }

    #[test]
    fn a_directory_cycle_is_reported_not_walked_forever() {
        let fs = a_with_f();
        // `/a/f` is now the root, which holds `/a`.
        relink_a_f(&fs, crate::layout::ROOT_INO);
        // On its own thread, so a walk that never ends fails the test
        // instead of hanging it.
        let (tx, rx) = std::sync::mpsc::channel();
        let checker = std::thread::spawn(move || tx.send(fs.check().unwrap()));
        let report = rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("check returns on a directory cycle");
        checker.join().unwrap().unwrap();
        assert!(!report.is_clean());
        assert!(
            report
                .problems
                .iter()
                .any(|p| p.rule == "inode-referenced-twice" && p.detail.starts_with("inode 1 ")),
            "{report:?}"
        );
    }

    #[test]
    fn an_out_of_range_entry_is_named_by_its_path() {
        let fs = a_with_f();
        relink_a_f(&fs, u32::MAX);
        let report = fs.check().unwrap();
        let problem = report
            .problems
            .iter()
            .find(|p| p.rule == "entry-inode-out-of-range")
            .unwrap_or_else(|| panic!("{report:?}"));
        assert_eq!(problem.detail, format!("/a/f -> {}", u32::MAX));
    }

    #[test]
    fn clean_after_heavy_churn() {
        let fs = FileSystem::format(MemStore::new(512, 512)).unwrap();
        for round in 0..5 {
            for i in 0..10 {
                fs.write_file(&format!("/f{i}"), &vec![round as u8; 600 * (i + 1)])
                    .unwrap();
            }
            for i in (0..10).step_by(2) {
                fs.remove_file(&format!("/f{i}")).unwrap();
            }
            for i in (1..10).step_by(2) {
                fs.truncate(&format!("/f{i}"), 100).unwrap();
            }
        }
        let report = fs.check().unwrap();
        assert!(report.is_clean(), "{:?}", report.problems);
    }

    #[test]
    fn problem_display_is_readable() {
        let p = FsckProblem {
            rule: "block-leaked",
            detail: "block 77".into(),
        };
        assert_eq!(p.to_string(), "block-leaked: block 77");
        let _ = BlockData::zeroed(1); // keep the import exercised
    }
}

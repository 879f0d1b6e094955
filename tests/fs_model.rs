//! Model-based property tests of the file system: random operation
//! sequences are applied both to `blockrep-fs` (over a replicated reliable
//! device, with failures injected between operations) and to a trivial
//! in-memory reference model; observable behaviour must agree.

use blockrep::core::{Cluster, ClusterOptions, ReliableDevice};
use blockrep::fs::{FileSystem, FsError};
use blockrep::types::{DeviceConfig, Scheme, SiteId};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Reference model: path -> contents for files; directories implicit.
#[derive(Debug, Default)]
struct Model {
    files: BTreeMap<String, Vec<u8>>,
    dirs: Vec<String>,
}

impl Model {
    fn new() -> Self {
        Model {
            files: BTreeMap::new(),
            dirs: vec!["/".into(), "/a".into(), "/b".into()],
        }
    }
    fn parent_exists(&self, path: &str) -> bool {
        let parent = match path.rfind('/') {
            Some(0) => "/".to_string(),
            Some(i) => path[..i].to_string(),
            None => return false,
        };
        self.dirs.contains(&parent)
    }
    /// Sorted names directly under `dir`.
    fn listing(&self, dir: &str) -> Vec<String> {
        let mut names: Vec<String> = self
            .files
            .keys()
            .filter_map(|p| {
                let (parent, name) = p.rsplit_once('/').unwrap();
                let parent = if parent.is_empty() { "/" } else { parent };
                (parent == dir).then(|| name.to_string())
            })
            .collect();
        if dir == "/" {
            names.push("a".into());
            names.push("b".into());
        }
        names.sort();
        names
    }
}

#[derive(Debug, Clone)]
enum FsOp {
    WriteFile { path: String, data: Vec<u8> },
    ReadFile { path: String },
    Remove { path: String },
    List { dir: String },
    FailSite(u32),
    RepairSite(u32),
}

fn path_strategy() -> impl Strategy<Value = String> {
    // Small name universe so collisions (and therefore interesting
    // overwrite/remove interleavings) are common.
    let dirs = prop_oneof![Just("/"), Just("/a/"), Just("/b/")];
    let names = prop_oneof![Just("f0"), Just("f1"), Just("f2"), Just("f3")];
    (dirs, names).prop_map(|(d, n)| format!("{d}{n}"))
}

fn op_strategy() -> impl Strategy<Value = FsOp> {
    prop_oneof![
        4 => (path_strategy(), prop::collection::vec(any::<u8>(), 0..2048))
            .prop_map(|(path, data)| FsOp::WriteFile { path, data }),
        4 => path_strategy().prop_map(|path| FsOp::ReadFile { path }),
        2 => path_strategy().prop_map(|path| FsOp::Remove { path }),
        2 => prop_oneof![Just("/"), Just("/a"), Just("/b")]
            .prop_map(|d: &str| FsOp::List { dir: d.to_string() }),
        1 => (0u32..3).prop_map(FsOp::FailSite),
        1 => (0u32..3).prop_map(FsOp::RepairSite),
    ]
}

fn fs_under_test() -> (Arc<Cluster>, FileSystem<ReliableDevice<Cluster>>) {
    let cfg = DeviceConfig::builder(Scheme::AvailableCopy)
        .sites(3)
        .num_blocks(1024)
        .block_size(512)
        .build()
        .unwrap();
    let cluster = Arc::new(Cluster::new(cfg, ClusterOptions::default()));
    let fs = FileSystem::format(ReliableDevice::new(Arc::clone(&cluster), SiteId::new(0))).unwrap();
    fs.mkdir("/a").unwrap();
    fs.mkdir("/b").unwrap();
    (cluster, fs)
}

fn apply(
    cluster: &Cluster,
    fs: &FileSystem<ReliableDevice<Cluster>>,
    model: &mut Model,
    op: &FsOp,
) -> Result<(), TestCaseError> {
    // With available copy on 3 sites and ≤1 site failed at a time here,
    // the device is always available, so FS results must exactly match the
    // model.
    match op {
        FsOp::WriteFile { path, data } => {
            let result = fs.write_file(path, data);
            if model.parent_exists(path) {
                prop_assert!(result.is_ok(), "write_file({path}) failed: {result:?}");
                model.files.insert(path.clone(), data.clone());
            } else {
                prop_assert!(result.is_err(), "write to missing parent succeeded");
            }
        }
        FsOp::ReadFile { path } => match model.files.get(path) {
            Some(expect) => {
                let got = fs.read_file(path);
                prop_assert!(got.is_ok(), "read_file({path}) failed: {got:?}");
                prop_assert_eq!(&got.unwrap(), expect, "contents of {}", path);
            }
            None => {
                let got = fs.read_file(path);
                prop_assert!(
                    matches!(got, Err(FsError::NotFound(_))),
                    "read of absent {path} returned {got:?}"
                );
            }
        },
        FsOp::Remove { path } => {
            let result = fs.remove_file(path);
            if model.files.remove(path).is_some() {
                prop_assert!(result.is_ok(), "remove_file({path}) failed: {result:?}");
            } else {
                prop_assert!(result.is_err(), "remove of absent {path} succeeded");
            }
        }
        FsOp::List { dir } => {
            let got = fs.read_dir(dir);
            prop_assert!(got.is_ok(), "read_dir({dir}) failed: {got:?}");
            prop_assert_eq!(got.unwrap(), model.listing(dir), "listing of {}", dir);
        }
        FsOp::FailSite(i) => {
            // Keep at least two sites up so the device never refuses ops
            // (otherwise the model comparison would need tri-state logic).
            let up = (0..3)
                .filter(|&j| {
                    cluster.site_state(SiteId::new(j)) == blockrep::types::SiteState::Available
                })
                .count();
            if up > 2
                && cluster.site_state(SiteId::new(*i)) == blockrep::types::SiteState::Available
            {
                cluster.fail_site(SiteId::new(*i));
            }
        }
        FsOp::RepairSite(i) => {
            if cluster.site_state(SiteId::new(*i)) == blockrep::types::SiteState::Failed {
                cluster.repair_site(SiteId::new(*i));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fs_over_reliable_device_matches_reference_model(
        ops in prop::collection::vec(op_strategy(), 1..40)
    ) {
        let (cluster, fs) = fs_under_test();
        let mut model = Model::new();
        for op in &ops {
            apply(&cluster, &fs, &mut model, op)?;
        }
        // Epilogue: repair everything and check every file one last time.
        for i in 0..3 {
            if cluster.site_state(SiteId::new(i)) == blockrep::types::SiteState::Failed {
                cluster.repair_site(SiteId::new(i));
            }
        }
        for (path, expect) in &model.files {
            prop_assert_eq!(&fs.read_file(path).unwrap(), expect, "final check of {}", path);
        }
        // And the on-disk image must be structurally consistent.
        let report = fs.check().unwrap();
        prop_assert!(report.is_clean(), "fsck: {:?}", report.problems);
        // Nothing lived only in a transaction: a fresh mount of the same
        // device, which shares no state with `fs`, sees the model's image.
        let remounted = FileSystem::mount(fs.into_device()).unwrap();
        for (path, expect) in &model.files {
            prop_assert_eq!(&remounted.read_file(path).unwrap(), expect, "remounted {}", path);
        }
        for dir in &model.dirs {
            prop_assert_eq!(remounted.read_dir(dir).unwrap(), model.listing(dir), "remounted {}", dir);
        }
        prop_assert!(remounted.check().unwrap().is_clean());
    }
}

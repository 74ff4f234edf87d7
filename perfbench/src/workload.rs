//! The three workloads: what each generates from its seed, and the
//! repository each starts from.
//!
//! Every input is produced by `aadedupe-workload` from `(workload, seed)`
//! alone and materialized into [`MemoryFile`]s before anything is timed:
//! the generator's `SourceFile::read` synthesizes bytes on every call, so
//! lazy inputs would time the generator as backup work.

use std::sync::Arc;

use aadedupe_cloud::{BackendError, CloudSim, ObjectStore, PriceModel, WanModel};
use aadedupe_core::{AaDedupe, AaDedupeConfig, BackupScheme, PipelineConfig, RestoreOptions};
use aadedupe_filetype::{AppType, MemoryFile, SourceFile};
use aadedupe_hashing::{Fingerprint, HashAlgorithm};
use aadedupe_workload::{AppSpec, DatasetSpec, Generator, Prng, Snapshot};

/// Which workload, by the name given on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// An `eval_mix` corpus backed up into an empty repository.
    FirstFull,
    /// Week K of an `eval_mix` corpus on top of weeks 0..K-1.
    WeeklyIncremental,
    /// Four 64 MiB compressed and static files of unique data.
    LargeFiles,
}

/// A workload's shape. [`Workload::named`] gives the benchmark's sizes;
/// tests build smaller ones.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// Dataset size in MiB the generator is asked for (the weekly
    /// snapshots grow from it).
    pub mib: u64,
    /// Weeks backed up during set-up before the timed week.
    pub prior_weeks: usize,
    /// Backup and restore worker threads.
    pub workers: usize,
    /// Paths in the point-restore sample (every file when fewer).
    pub sample: usize,
    /// Sessions the timed retention pass keeps.
    pub keep_last: usize,
}

/// Large-files population: one 64 MiB file per application. AVI and ISO
/// go through WFC + Rabin96, VMDK and PDF through SC + MD5.
const LARGE_FILES: [AppType; 4] = [AppType::Avi, AppType::Iso, AppType::Vmdk, AppType::Pdf];
const LARGE_FILE_MIB: u64 = 64;

impl Workload {
    /// The benchmark's workload called `name`; first-full runs one worker
    /// per core.
    pub fn named(name: &str) -> Option<Workload> {
        let nproc = crate::probe::nproc();
        let w = match name {
            "first-full" => Workload {
                kind: Kind::FirstFull,
                mib: 192,
                prior_weeks: 0,
                workers: nproc,
                sample: 200,
                keep_last: 1,
            },
            "weekly-incremental" => Workload {
                kind: Kind::WeeklyIncremental,
                mib: 160,
                prior_weeks: 4,
                workers: 1,
                sample: 200,
                keep_last: 2,
            },
            "large-files" => Workload {
                kind: Kind::LargeFiles,
                mib: LARGE_FILE_MIB * LARGE_FILES.len() as u64,
                prior_weeks: 0,
                workers: 1,
                sample: LARGE_FILES.len(),
                keep_last: 1,
            },
            _ => return None,
        };
        Some(w)
    }

    /// The command-line name.
    pub fn name(&self) -> &'static str {
        match self.kind {
            Kind::FirstFull => "first-full",
            Kind::WeeklyIncremental => "weekly-incremental",
            Kind::LargeFiles => "large-files",
        }
    }

    /// The engine configuration every session of this workload runs with.
    pub fn config(&self) -> AaDedupeConfig {
        AaDedupeConfig {
            pipeline: PipelineConfig::with_workers(self.workers),
            restore: RestoreOptions {
                workers: self.workers,
                ..RestoreOptions::default()
            },
            ..AaDedupeConfig::default()
        }
    }

    fn generator(&self, seed: u64) -> Generator {
        let bytes = self.mib << 20;
        let spec = match self.kind {
            Kind::FirstFull | Kind::WeeklyIncremental => steady_eval_mix(bytes),
            Kind::LargeFiles => large_files_spec(bytes),
        };
        Generator::new(spec, seed)
    }

    /// Generates the workload from `seed`: the starting repository (set-up
    /// backups included) and the timed snapshot's materialized files.
    pub fn prepare(&self, seed: u64) -> Result<Prepared, String> {
        let mut gen = self.generator(seed);
        // The set-up backups run on a thread of their own, so the memory
        // they free stays in that thread's allocator arena instead of
        // being reused by the timed phases on this one, which would hide
        // their growth from the peak-memory metrics.
        let repo = std::thread::scope(|s| s.spawn(|| self.build_repository(&mut gen)).join())
            .map_err(|_| "the set-up thread panicked".to_string())??;
        let files = materialize(&gen.snapshot(self.prior_weeks));
        let sample = stratified_sample(&files, self.sample, seed);
        Ok(Prepared {
            repo,
            files,
            sample,
        })
    }

    /// Backs up the weeks before the timed one into a fresh repository.
    fn build_repository(&self, gen: &mut Generator) -> Result<Repository, String> {
        let store = Arc::new(ObjectStore::new());
        if self.prior_weeks > 0 {
            // Set-up is untimed: it may use every core (the pipeline's
            // output does not depend on its worker count).
            let config = AaDedupeConfig {
                pipeline: PipelineConfig::with_workers(crate::probe::nproc()),
                ..self.config()
            };
            let mut setup = AaDedupe::with_config(memory_cloud(Arc::clone(&store)), config);
            for week in 0..self.prior_weeks {
                let files = materialize(&gen.snapshot(week));
                let sources: Vec<&dyn SourceFile> =
                    files.iter().map(|f| f as &dyn SourceFile).collect();
                setup
                    .backup_session(&sources)
                    .map_err(|e| format!("set-up backup of week {week}: {e}"))?;
            }
        }
        Repository::capture(&store)
    }
}

/// Applications get at least this many files in the `eval_mix` workloads.
const MIN_FILES_PER_APP: usize = 32;
/// Lognormal file-size shape of the `eval_mix` workloads (the generator's
/// calibration uses 0.7).
const SIZE_SIGMA: f64 = 0.3;

/// `eval_mix` with its few-file applications (AVI, ISO, DMG, VMDK) split
/// into at least [`MIN_FILES_PER_APP`] smaller files and a narrower size
/// spread. With the stock spec a seed decides whether a couple of huge
/// files exist, which moved each category's byte share by 10 points and
/// every per-byte metric with it; here the seed changes the content and
/// barely the shape (week-4 totals within 2%).
fn steady_eval_mix(bytes: u64) -> DatasetSpec {
    let mut spec = DatasetSpec::eval_mix(bytes);
    for a in &mut spec.apps {
        if a.initial_files < MIN_FILES_PER_APP {
            a.mean_file_size = a.mean_file_size * a.initial_files as u64 / MIN_FILES_PER_APP as u64;
            a.initial_files = MIN_FILES_PER_APP;
        }
        a.sigma = SIZE_SIGMA;
    }
    spec
}

/// One file per application splitting `bytes` evenly, exact sizes so that
/// every seed presents the same byte counts, and no duplicate blocks: where
/// a seed placed VMDK's pool duplicates decided how often restore refetched
/// an evicted container, which moved restore speed by a third between
/// seeds.
fn large_files_spec(bytes: u64) -> DatasetSpec {
    let mut spec = DatasetSpec::eval_mix(bytes);
    let size = bytes / LARGE_FILES.len() as u64;
    spec.apps = LARGE_FILES
        .iter()
        .map(|&app| AppSpec {
            initial_files: 1,
            mean_file_size: size,
            sigma: 0.0,
            copy_rate: 0.0,
            dup_rate: 0.0,
            ..AppSpec::calibrated(app, size, 1.0)
        })
        .collect();
    spec.tiny.initial_files = 0;
    spec
}

/// The in-memory object store behind a simulated cloud, with the paper's
/// WAN and price models (they only account; nothing sleeps).
fn memory_cloud(store: Arc<ObjectStore>) -> CloudSim {
    CloudSim::with_backend(
        store,
        WanModel::paper_defaults(),
        PriceModel::s3_april_2011(),
    )
}

/// Materializes every file of `snap` into memory.
fn materialize(snap: &Snapshot) -> Vec<MemoryFile> {
    snap.files
        .iter()
        .map(|f| MemoryFile {
            path: f.path.clone(),
            app: f.app,
            data: f.materialize(),
            token: f.change_token(),
        })
        .collect()
}

/// A workload ready to run.
pub struct Prepared {
    /// The repository each repetition starts from.
    pub repo: Repository,
    /// The timed snapshot, materialized.
    pub files: Vec<MemoryFile>,
    /// Indices into `files` of the point-restore sample.
    pub sample: Vec<usize>,
}

impl Prepared {
    /// Source bytes of the timed snapshot.
    pub fn source_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.data.len() as u64).sum()
    }

    /// The timed snapshot as engine inputs.
    pub fn sources(&self) -> Vec<&dyn SourceFile> {
        self.files.iter().map(|f| f as &dyn SourceFile).collect()
    }

    /// A digest of every input byte and path, the timed snapshot's and the
    /// starting repository's, for determinism checks.
    pub fn digest(&self) -> String {
        let mut all = Vec::new();
        for f in &self.files {
            all.extend_from_slice(f.path.as_bytes());
            all.extend_from_slice(Fingerprint::compute(HashAlgorithm::Sha1, &f.data).digest());
        }
        for (key, bytes) in &self.repo.objects {
            all.extend_from_slice(key.as_bytes());
            all.extend_from_slice(Fingerprint::compute(HashAlgorithm::Sha1, bytes).digest());
        }
        for i in &self.sample {
            all.extend_from_slice(&(*i as u64).to_le_bytes());
        }
        Fingerprint::compute(HashAlgorithm::Sha1, &all).to_hex()
    }
}

/// A point-in-time copy of a repository's objects.
pub struct Repository {
    objects: Vec<(String, Vec<u8>)>,
}

impl Repository {
    fn capture(store: &ObjectStore) -> Result<Repository, String> {
        let mut objects = Vec::new();
        for key in store.list("") {
            let bytes = store
                .get(&key)
                .map_err(|e| e.to_string())?
                .ok_or_else(|| format!("listed object {key} is missing"))?;
            objects.push((key, bytes));
        }
        Ok(Repository { objects })
    }

    /// A fresh in-memory cloud holding a copy of this repository.
    pub fn cloud(&self) -> Result<(CloudSim, Arc<ObjectStore>), BackendError> {
        let store = Arc::new(ObjectStore::new());
        for (key, bytes) in &self.objects {
            store.put(key, bytes.clone())?;
        }
        Ok((memory_cloud(Arc::clone(&store)), store))
    }
}

/// A seeded, size-stratified sample of `n` file indices: the files sorted
/// by size are cut into `n` equal strata and one file is drawn from each,
/// so the sample's size distribution follows the snapshot's whatever the
/// seed.
fn stratified_sample(files: &[MemoryFile], n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..files.len()).collect();
    order.sort_by(|&a, &b| {
        (files[a].data.len(), &files[a].path).cmp(&(files[b].data.len(), &files[b].path))
    });
    if n >= order.len() {
        return order;
    }
    let mut rng = Prng::derive(&[seed, 0x5A4D_504C]);
    (0..n)
        .map(|i| {
            let lo = i * order.len() / n;
            let hi = (i + 1) * order.len() / n;
            order[lo + rng.below((hi - lo) as u64) as usize]
        })
        .collect()
}

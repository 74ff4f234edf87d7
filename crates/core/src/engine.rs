//! The AA-Dedupe backup engine.
//!
//! Faithful to the paper's Fig. 5 dataflow: a file size filter diverts
//! tiny files straight into containers; the intelligent chunker picks
//! WFC/SC/CDC per application category; the deduplicator consults the
//! application-aware index (one partition per application, each with a
//! RAM-resident working set); new chunks are aggregated into 1 MiB
//! containers per application stream; manifests and periodic index
//! snapshots complete the cloud state.
//!
//! # Parallel pipeline
//!
//! With [`PipelineConfig::workers`] > 1 a session runs as a multi-stage
//! pipeline built purely on `std::thread` + `std::sync::mpsc`:
//!
//! ```text
//!         window            per-app shards              outcomes and their
//! feeder ────────▶ workers ─────────────────▶ dedup ─────────────────────────▶ main
//!   ▲    file    read, chunk,   file order    shards    sealed containers      │ absorb in file order,
//!   │    order   hash                         (each owns its stream's writer)  │ pack tiny files,
//!   └───────────────────────────── files absorbed ─────────────────────────────┘ upload containers
//! ```
//!
//! Determinism contract: the output (containers, manifests, index,
//! report counters, the PUT sequence) is *identical* to a serial run for
//! a fixed file ordering, because
//!
//! 1. container ids are per-stream
//!    ([`compose_id`](aadedupe_container::compose_id)), so a stream's
//!    container layout depends only on that stream's own append sequence;
//! 2. each application's chunks are deduplicated by exactly one shard
//!    thread, which processes its files in file order (a reorder buffer
//!    absorbs out-of-order worker completions), so every stream's append
//!    sequence — and every partition's lookup/insert sequence — matches
//!    the serial one;
//! 3. each shard owns its stream's [`StreamWriter`], the main thread owns
//!    the tiny-file stream, and each file's outcome carries the
//!    containers sealed while its chunks were placed;
//! 4. the main thread absorbs outcomes in file order, uploading each
//!    file's containers as it absorbs them, then the tail seals in stream
//!    order, the manifest and the index snapshot.
//!
//! The feeder admits file `i` only while `i < absorbed + workers ×
//! queue_depth`, which bounds everything in flight by a constant
//! independent of the session's size.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use aadedupe_chunking::{CdcParams, ChunkSpan, SpanChunker, DEFAULT_CDC};
use aadedupe_cloud::CloudSim;
use aadedupe_container::{
    decompose_id, ContainerStore, SealedContainer, StreamWriter, DEFAULT_CONTAINER_SIZE,
};
use aadedupe_filetype::{AppType, DedupPolicy, SourceFile};
use aadedupe_hashing::Fingerprint;
use aadedupe_index::{codec, AppAwareIndex, ChunkEntry};
use aadedupe_metrics::{SessionReport, StageCpu};
use aadedupe_obs::{Counter, Queue, Recorder, Snapshot, Stage, WorkerRole};

use crate::recipe::{ChunkRef, FileRecipe, Manifest};
use crate::restore::{
    container_key, restore_file_pipelined, restore_session_pipelined, RestoreOptions,
    RestoredFile,
};
use crate::retry::RetryPolicy;
use crate::scheme::{BackupError, BackupScheme};
use crate::timing::{DedupClock, DISK_SEEK, SOURCE_READ_BPS};

/// How the engine decides between the serial and the parallel pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PipelineMode {
    /// Parallel pipeline iff `workers > 1` (the default).
    #[default]
    Auto,
    /// Always the serial path, whatever `workers` says.
    Serial,
    /// Always the parallel pipeline, even with one worker — useful for
    /// exercising the pipeline machinery deterministically in tests.
    Parallel,
}

/// Worker-pool configuration for the backup pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Chunk+hash worker threads (1 = serial under [`PipelineMode::Auto`]).
    pub workers: usize,
    /// Files in flight per worker: the feeder admits a file only within
    /// `workers * queue_depth` files of the last one absorbed, keeping
    /// pipeline memory proportional to thread count rather than dataset
    /// size.
    pub queue_depth: usize,
    /// Serial/parallel selection policy.
    pub mode: PipelineMode,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig { workers: 1, queue_depth: 4, mode: PipelineMode::Auto }
    }
}

impl PipelineConfig {
    /// Pipeline with `workers` threads and default queueing.
    pub fn with_workers(workers: usize) -> Self {
        PipelineConfig { workers, ..PipelineConfig::default() }
    }

    /// Whether a session should run the parallel pipeline.
    fn parallel(&self) -> bool {
        match self.mode {
            PipelineMode::Auto => self.workers > 1,
            PipelineMode::Serial => false,
            PipelineMode::Parallel => true,
        }
    }
}

/// Engine configuration. Defaults are the paper's evaluation settings.
#[derive(Debug, Clone)]
pub struct AaDedupeConfig {
    /// Files strictly below this size bypass dedup (paper: 10 KiB).
    pub tiny_threshold: u64,
    /// Fixed container size (paper: 1 MiB).
    pub container_size: usize,
    /// Static chunk size (paper: 8 KiB).
    pub sc_chunk_size: usize,
    /// CDC parameters (paper: 2/8/16 KiB, 48-byte window). The
    /// [`CdcParams::algorithm`] field selects the boundary algorithm for
    /// every CDC-routed application (Rabin, the paper's scan and the
    /// fidelity oracle, or gear-hash FastCDC).
    pub cdc: CdcParams,
    /// Per-application CDC overrides, consulted before [`Self::cdc`]: the
    /// first entry matching a file's [`AppType`] wins. Lets one partition
    /// run FastCDC (or different size targets) while the rest keep the
    /// default — each index partition is self-consistent because a given
    /// app always chunks with the same parameters.
    pub cdc_by_app: Vec<(AppType, CdcParams)>,
    /// Chunking/hash policy per category (paper: Fig. 6).
    pub policy: DedupPolicy,
    /// RAM cache entries per index partition (modelled when the index is
    /// RAM-resident, a real write-back cache budget when disk-backed).
    pub ram_entries_per_partition: usize,
    /// Root directory for on-disk index segments. `None` (the default)
    /// keeps every partition RAM-resident with modelled disk accounting;
    /// `Some(dir)` makes partitions spill entries beyond
    /// [`Self::ram_entries_per_partition`] to real segment files under
    /// `dir/p01..p13`, guarded by per-partition existence filters. Dedup
    /// decisions are bit-identical either way — only the RAM/disk stat
    /// classification and the actual memory footprint differ.
    pub index_dir: Option<PathBuf>,
    /// Upload an index snapshot every N sessions (0 disables sync).
    pub index_sync_interval: usize,
    /// Backup pipeline worker-pool settings.
    pub pipeline: PipelineConfig,
    /// Restore pipeline settings (worker threads and the bounded
    /// container-cache size).
    pub restore: RestoreOptions,
    /// Retry/backoff policy for transient backend failures, shared by
    /// uploads and restore downloads.
    pub retry: RetryPolicy,
    /// Cloud namespace prefix for this engine's objects.
    pub scheme_key: String,
    /// Observability sink shared by the engine, index, container store and
    /// chunkers. Disabled by default (one relaxed atomic load per
    /// would-be observation); swap in an enabled [`Recorder`] — or call
    /// `enable()` on this one — to collect per-stage metrics.
    pub recorder: Arc<Recorder>,
}

impl Default for AaDedupeConfig {
    fn default() -> Self {
        AaDedupeConfig {
            tiny_threshold: 10 * 1024,
            container_size: DEFAULT_CONTAINER_SIZE,
            sc_chunk_size: 8 * 1024,
            cdc: DEFAULT_CDC,
            cdc_by_app: Vec::new(),
            policy: DedupPolicy::aa_dedupe(),
            ram_entries_per_partition: 1 << 18,
            index_dir: None,
            index_sync_interval: 1,
            pipeline: PipelineConfig::default(),
            restore: RestoreOptions::default(),
            retry: RetryPolicy::default(),
            scheme_key: "aa-dedupe".into(),
            recorder: Recorder::shared_disabled(),
        }
    }
}

impl AaDedupeConfig {
    /// The effective CDC parameters for `app`: the first matching
    /// [`Self::cdc_by_app`] override, else [`Self::cdc`]. Both the serial
    /// and parallel chunking paths resolve parameters through this single
    /// point, so the pipelines stay bit-identical by construction.
    pub fn cdc_for(&self, app: AppType) -> CdcParams {
        self.cdc_by_app
            .iter()
            .find(|(a, _)| *a == app)
            .map_or(self.cdc, |(_, p)| *p)
    }
}

/// Stream id used for the tiny-file container stream; application streams
/// use the application tag (1..=13).
pub(crate) const TINY_STREAM: u32 = 0;

/// The AA-Dedupe backup client.
///
/// Field visibility is `pub(crate)`: the vacuum pass
/// ([`crate::vacuum`]) and retention policies ([`crate::retention`])
/// are sibling modules operating on the same GC state (refcounts, index
/// placements, container ids) under the same crash-consistency
/// invariants.
pub struct AaDedupe {
    pub(crate) config: AaDedupeConfig,
    pub(crate) cloud: CloudSim,
    pub(crate) index: AppAwareIndex,
    pub(crate) containers: ContainerStore,
    pub(crate) sessions: usize,
    /// Live-chunk count per container (deletion support: a container whose
    /// count reaches zero is removed from the cloud).
    pub(crate) container_live: HashMap<u64, u64>,
    /// Tiny-file incrementality: path -> (change token, last placement).
    /// Tiny files bypass the chunk *index* (the paper's size filter), but
    /// the client still skips re-packing unchanged ones, Cumulus-style.
    /// Not persisted: after [`AaDedupe::open`] the first session re-packs
    /// tiny files once.
    pub(crate) tiny_seen: HashMap<String, (u64, ChunkRef)>,
    /// Set when a session failed mid-upload: the in-memory index may then
    /// reference chunks that never reached the cloud, so further backups
    /// from this instance are refused (reopen from the cloud instead).
    pub(crate) poisoned: Option<String>,
    /// Containers garbage-collected by the orphan sweep in
    /// [`AaDedupe::open`].
    orphans_swept: u64,
    /// Containers left behind by a partially-failed [`delete_session`]:
    /// their manifest is gone (the un-commit succeeded) but their own
    /// delete failed. Retried on the next deletion; the orphan sweep on
    /// reopen reclaims them too.
    ///
    /// [`delete_session`]: AaDedupe::delete_session
    pub(crate) sweep_debt: Vec<u64>,
}

/// The result of chunk+hash over one file: the bytes `read()` returned and
/// each chunk as a span over them, so nothing is copied until a unique
/// chunk lands in its container.
struct ChunkedFile {
    data: Vec<u8>,
    /// (fingerprint, span) in file order; the spans tile `data`.
    chunks: Vec<(Fingerprint, ChunkSpan)>,
    /// CPU time spent producing them.
    cpu: Duration,
}

/// The result of deduplicating one file: its recipe, the report deltas
/// the main thread folds into the session totals, and the containers its
/// placements sealed.
struct DedupedFile {
    recipe: FileRecipe,
    stored_bytes: u64,
    chunks_duplicate: u64,
    disk_reads: u64,
    cpu: Duration,
    /// Containers sealed while this file's chunks were placed, in seal
    /// order; each is counted on the `upload` queue until uploaded.
    sealed: Vec<SealedContainer>,
}

/// Takes the containers `writer` sealed for the file just placed, counting
/// each onto the `upload` queue.
fn take_sealed(writer: &mut StreamWriter, rec: &Recorder) -> Vec<SealedContainer> {
    let sealed = writer.drain_sealed();
    for _ in &sealed {
        rec.queue_push(Queue::Upload);
    }
    sealed
}

/// Reads one file, then chunks and fingerprints it according to the
/// policy. Chunks are cut as spans over the bytes read (the boundaries
/// the streaming chunker emits) and hashed in place.
fn chunk_and_hash(cfg: &AaDedupeConfig, app: AppType, file: &dyn SourceFile) -> ChunkedFile {
    let rec = &cfg.recorder;
    let data = file.read();
    rec.count(Counter::SourceBytes, data.len() as u64);
    let (chunks, cpu) = crate::timing::measure_cpu(|| {
        let (method, hash) = cfg.policy.for_app(app);
        SpanChunker::for_method(&data, method, cfg.sc_chunk_size, cfg.cdc_for(app))
            .instrumented(rec)
            .map(|span| {
                let hashing = rec.start();
                let fp = Fingerprint::compute(hash, span.slice(&data));
                rec.record(Stage::Hash, hashing);
                (fp, span)
            })
            .collect()
    });
    ChunkedFile { data, chunks, cpu }
}

/// Deduplicate one chunked file against its application's partition,
/// placing unique chunks through `writer`, its stream's only writer. The
/// lookup→insert sequence per partition is what every pipeline executes
/// identically.
fn dedupe_chunks(
    index: &AppAwareIndex,
    path: &str,
    app: AppType,
    chunked: ChunkedFile,
    writer: &mut StreamWriter,
    rec: &Recorder,
) -> DedupedFile {
    let ChunkedFile { data, chunks, cpu: chunk_cpu } = chunked;
    let (mut deduped, elapsed) = crate::timing::measure_cpu(|| {
        let mut recipe = FileRecipe {
            path: path.to_string(),
            app,
            tiny: false,
            chunks: Vec::with_capacity(chunks.len()),
        };
        let (mut stored_bytes, mut chunks_duplicate, mut disk_reads) = (0u64, 0u64, 0u64);
        for (fp, span) in chunks {
            let outcome = index.lookup_classified(app, &fp);
            if outcome.touched_disk() {
                disk_reads += 1;
            }
            let (container, offset) = match outcome.entry() {
                Some(entry) => {
                    chunks_duplicate += 1;
                    (entry.container, entry.offset)
                }
                None => {
                    let placement = writer.add_chunk(fp, span.slice(&data));
                    index.insert(
                        app,
                        fp,
                        ChunkEntry::new(span.len as u64, placement.container, placement.offset),
                    );
                    stored_bytes += span.len as u64;
                    (placement.container, placement.offset)
                }
            };
            recipe.chunks.push(ChunkRef { fingerprint: fp, len: span.len as u32, container, offset });
        }
        DedupedFile {
            recipe,
            stored_bytes,
            chunks_duplicate,
            disk_reads,
            cpu: Duration::ZERO,
            sealed: take_sealed(writer, rec),
        }
    });
    deduped.cpu = chunk_cpu + elapsed;
    deduped
}

/// The tiny-file path: no chunk-level dedup (the size filter), but
/// unchanged files (same change token) are carried forward by reference
/// instead of re-packed — the Cumulus-style grouping the paper cites for
/// its tiny-file handling, as long as `container_live` still holds the
/// referenced container (a deleted session may have reclaimed it). Always
/// runs on the main thread, in file order, through the tiny stream's
/// writer.
fn pack_tiny(
    tiny_seen: &mut HashMap<String, (u64, ChunkRef)>,
    container_live: &HashMap<u64, u64>,
    file: &dyn SourceFile,
    writer: &mut StreamWriter,
    rec: &Recorder,
) -> DedupedFile {
    let app = file.app_type();
    let token = file.change_token();
    let recipe = |reference| FileRecipe {
        path: file.path().to_string(),
        app,
        tiny: true,
        chunks: vec![reference],
    };
    if let Some((seen_token, reference)) = tiny_seen.get(file.path()) {
        if *seen_token == token && container_live.contains_key(&reference.container) {
            rec.count(Counter::TinyCarried, 1);
            return DedupedFile {
                recipe: recipe(*reference),
                stored_bytes: 0,
                chunks_duplicate: 1,
                disk_reads: 0,
                cpu: Duration::ZERO,
                sealed: Vec::new(),
            };
        }
    }
    let packing = rec.start();
    rec.count(Counter::TinyPacked, 1);
    let data = file.read();
    rec.count(Counter::SourceBytes, data.len() as u64);
    // Tiny files are fingerprinted only for restore-time integrity
    // (container descriptors need a key); they are not indexed.
    let ((fp, placement), cpu) = crate::timing::measure_cpu(|| {
        let fp = Fingerprint::compute(aadedupe_hashing::HashAlgorithm::Sha1, &data);
        (fp, writer.add_chunk(fp, &data))
    });
    let reference = ChunkRef {
        fingerprint: fp,
        len: data.len() as u32,
        container: placement.container,
        offset: placement.offset,
    };
    tiny_seen.insert(file.path().to_string(), (token, reference));
    rec.record(Stage::TinyPack, packing);
    DedupedFile {
        recipe: recipe(reference),
        stored_bytes: data.len() as u64,
        chunks_duplicate: 0,
        disk_reads: 0,
        cpu,
        sealed: take_sealed(writer, rec),
    }
}

/// Uploads one object, retrying transient failures under `policy` and
/// the caller's retry `budget`. The bytes move into the store; a failed
/// attempt hands them back for the next, so no copy is kept. Backoff is
/// charged to the simulated transfer clock (and optionally slept);
/// `op_seq` feeds the deterministic jitter. Exhausting the attempts or the budget, or any permanent
/// failure, counts an upload give-up and surfaces the backend error.
pub(crate) fn put_with_retry(
    cloud: &CloudSim,
    policy: &RetryPolicy,
    rec: &Recorder,
    key: &str,
    mut bytes: Vec<u8>,
    budget: &mut u32,
    op_seq: u64,
) -> Result<(), BackupError> {
    let mut attempt = 1u32;
    loop {
        match cloud.put_returning(key, bytes) {
            Ok(_t) => return Ok(()),
            Err((e, back)) if e.transient && attempt < policy.max_attempts.max(1) && *budget > 0 => {
                bytes = back;
                *budget -= 1;
                rec.count(Counter::UploadRetries, 1);
                let wait = policy.backoff(attempt, op_seq);
                cloud.charge(wait);
                if policy.sleep && !wait.is_zero() {
                    std::thread::sleep(wait);
                }
                attempt += 1;
            }
            Err((e, _)) => {
                rec.count(Counter::UploadGiveups, 1);
                return Err(BackupError::Cloud(format!(
                    "{e} (attempt {attempt} of {})",
                    policy.max_attempts.max(1)
                )));
            }
        }
    }
}

/// Decodes every committed manifest: returns the per-container reference
/// counts and the next session number, and hands each indexed (non-tiny)
/// chunk reference to `indexed` — the fold `open` and recovery share.
fn load_manifests(
    cloud: &CloudSim,
    cfg: &AaDedupeConfig,
    indexed: &mut dyn FnMut(AppType, &ChunkRef),
) -> Result<(HashMap<u64, u64>, usize), BackupError> {
    let mut container_live = HashMap::new();
    let mut sessions = 0;
    for key in cloud.store().list(&format!("{}/manifests/", cfg.scheme_key)) {
        let (bytes, _t) = cloud.get(&key)?;
        let manifest = Manifest::decode(&bytes.ok_or(BackupError::MissingObject(key))?)?;
        sessions = sessions.max(manifest.session as usize + 1);
        for f in &manifest.files {
            for c in &f.chunks {
                *container_live.entry(c.container).or_insert(0) += 1;
                if !f.tiny {
                    indexed(f.app, c);
                }
            }
        }
    }
    Ok((container_live, sessions))
}

/// Why a session stopped before its commit: the reason the engine is
/// poisoned with, and the error the backup returns.
type Failure = (String, BackupError);

/// The main thread's side of a session: it folds outcomes into the
/// session totals in file order and uploads every sealed container as
/// its file is absorbed. After the first failure it uploads nothing more.
struct Sink<'a> {
    cloud: &'a CloudSim,
    cfg: &'a AaDedupeConfig,
    index: &'a AppAwareIndex,
    report: &'a mut SessionReport,
    clock: &'a mut DedupClock,
    container_live: &'a mut HashMap<u64, u64>,
    manifest: Manifest,
    retry_budget: u32,
    /// PUTs so far; seeds each PUT's retry jitter.
    upload_seq: u64,
    failed: Option<Failure>,
}

impl Sink<'_> {
    /// Folds one file's outcome into the session totals, the container
    /// reference counts and the manifest, then uploads its containers.
    fn absorb(&mut self, out: DedupedFile) {
        let report = &mut *self.report;
        report.chunks_total += out.recipe.chunks.len() as u64;
        report.chunks_duplicate += out.chunks_duplicate;
        report.stored_bytes += out.stored_bytes;
        report.index_disk_reads += out.disk_reads;
        self.clock.charge_disk_probes(out.disk_reads);
        self.clock.add_cpu(out.cpu);
        for c in &out.recipe.chunks {
            *self.container_live.entry(c.container).or_insert(0) += 1;
        }
        self.manifest.files.push(out.recipe);
        for sealed in out.sealed {
            self.upload_container(sealed);
        }
    }

    /// Whether the session may still upload: nothing failed so far, and
    /// the index reports no IO error. Disk-backed index partitions degrade
    /// on local IO errors (lookups answer "absent": duplicate storage,
    /// never corruption) instead of failing mid-pipeline, but the
    /// session's dedup state is then untrustworthy, so nothing more may
    /// reach the cloud.
    fn may_upload(&mut self) -> bool {
        if let (None, Some(why)) = (&self.failed, self.index.io_error()) {
            self.failed =
                Some((format!("index storage failure: {why}"), BackupError::IndexStorage(why)));
        }
        self.failed.is_none()
    }

    /// Uploads one sealed container unless the session stopped uploading.
    fn upload_container(&mut self, sealed: SealedContainer) {
        let rec = &self.cfg.recorder;
        rec.queue_pop(Queue::Upload);
        if !self.may_upload() {
            return;
        }
        let span = rec.trace_start();
        let uploading = rec.start();
        let key = container_key(&self.cfg.scheme_key, sealed.id);
        match self.put(&key, sealed.bytes) {
            // The in-memory index already references this session's
            // chunks; some never reached the cloud.
            Err(e) => self.failed = Some((format!("container upload failed: {e}"), e)),
            Ok(()) => rec.record(Stage::Upload, uploading),
        }
        rec.trace_complete("upload", span);
    }

    /// One PUT, counted in the report and the upload counters whether or
    /// not it succeeds.
    fn put(&mut self, key: &str, bytes: Vec<u8>) -> Result<(), BackupError> {
        let rec = &self.cfg.recorder;
        self.report.transferred_bytes += bytes.len() as u64;
        rec.count(Counter::UploadBytes, bytes.len() as u64);
        rec.count(Counter::UploadObjects, 1);
        self.upload_seq += 1;
        let budget = &mut self.retry_budget;
        put_with_retry(self.cloud, &self.cfg.retry, rec, key, bytes, budget, self.upload_seq)
    }

    /// Absorbs every file in file order: tiny files are packed here, on
    /// the calling thread; `big` produces every other file's outcome
    /// (`None` only when the pipeline behind it died). `window`, when
    /// given, learns each absorbed count. Stops at the first failure.
    fn absorb_files(
        &mut self,
        files: &[&dyn SourceFile],
        containers: &mut ContainerStore,
        tiny_seen: &mut HashMap<String, (u64, ChunkRef)>,
        window: Option<&Window>,
        big: &mut dyn FnMut(usize, &dyn SourceFile, &mut ContainerStore) -> Option<DedupedFile>,
    ) {
        let rec = &self.cfg.recorder;
        for (i, file) in files.iter().enumerate() {
            let out = if file.size() < self.cfg.tiny_threshold {
                let writer = containers.writer_mut(TINY_STREAM);
                pack_tiny(tiny_seen, self.container_live, *file, writer, rec)
            } else {
                // A dead pipeline re-raises its panic when its thread
                // scope closes, so stopping here commits nothing.
                let Some(out) = big(i, *file, containers) else { return };
                out
            };
            self.absorb(out);
            if let Some(w) = window {
                w.advance(i + 1);
            }
            if self.failed.is_some() {
                return;
            }
        }
    }
}

/// The feeder's admission window: file `i` may enter the pipeline only
/// while `i < absorbed + size`, where `absorbed` counts the files the
/// main thread has absorbed. The file main waits for next is always
/// inside the window, so the window cannot deadlock the pipeline.
struct Window {
    size: usize,
    /// (files absorbed, closed).
    state: Mutex<(usize, bool)>,
    moved: Condvar,
}

impl Window {
    fn new(size: usize) -> Self {
        Window { size: size.max(1), state: Mutex::new((0, false)), moved: Condvar::new() }
    }

    /// Blocks until file `i` is inside the window; false once closed.
    fn admit(&self, i: usize) -> bool {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        while !state.1 && i >= state.0 + self.size {
            state = self.moved.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        !state.1
    }

    /// Records that the first `absorbed` files are absorbed.
    fn advance(&self, absorbed: usize) {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).0 = absorbed;
        self.moved.notify_all();
    }

    /// Stops admitting files.
    fn close(&self) {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).1 = true;
        self.moved.notify_all();
    }
}

/// One unit of chunk+hash work: a big file's index, the file, its
/// application, and the channel of the shard that owns that application.
type Job<'a> = (usize, &'a dyn SourceFile, AppType, mpsc::Sender<(usize, ChunkedFile)>);

/// Adds the time since `started` (`None` while recording is off) to a
/// pipeline thread's busy or idle total.
fn add_elapsed(total: &mut Duration, started: Option<Instant>) {
    *total += started.map_or(Duration::ZERO, |t| t.elapsed());
}

/// A dedup shard: deduplicates one application's files in file order
/// (`my_files` lists their indices and paths), placing unique chunks
/// through the stream writer it owns, and hands each outcome to the main
/// thread.
fn run_shard(
    index: &AppAwareIndex,
    app: AppType,
    my_files: &[(usize, &str)],
    chunked: &mpsc::Receiver<(usize, ChunkedFile)>,
    writer: &mut StreamWriter,
    outcomes: &mpsc::Sender<(usize, DedupedFile)>,
    rec: &Recorder,
) {
    let mut pending: BTreeMap<usize, ChunkedFile> = BTreeMap::new();
    let mut next = 0usize;
    let (mut busy, mut idle) = (Duration::ZERO, Duration::ZERO);
    loop {
        let waiting = rec.start();
        let Ok((i, cf)) = chunked.recv() else { break };
        rec.queue_pop(Queue::Shards);
        add_elapsed(&mut idle, waiting);
        let working = rec.start();
        pending.insert(i, cf);
        while let Some(&(want, path)) = my_files.get(next) {
            let Some(cf) = pending.remove(&want) else { break };
            let span = rec.trace_start();
            let out = dedupe_chunks(index, path, app, cf, writer, rec);
            rec.trace_complete("dedupe", span);
            if outcomes.send((want, out)).is_err() {
                break;
            }
            next += 1;
        }
        add_elapsed(&mut busy, working);
    }
    rec.worker_report(WorkerRole::Shard, app.tag() as usize - 1, busy, idle);
}

/// A chunk+hash worker: reads, chunks and hashes the files it pulls off
/// the job queue and hands each to its application's shard.
fn run_worker(cfg: &AaDedupeConfig, jobs: &Mutex<mpsc::Receiver<Job<'_>>>, id: usize) {
    let rec = &cfg.recorder;
    let (mut busy, mut idle) = (Duration::ZERO, Duration::ZERO);
    loop {
        let waiting = rec.start();
        // aalint: allow(blocking-under-lock) -- spmc handoff: the mutex exists only to share the receiver; holding it across recv() is the protocol
        let job = jobs.lock().unwrap_or_else(PoisonError::into_inner).recv();
        let Ok((i, file, app, shard)) = job else { break };
        rec.queue_pop(Queue::Jobs);
        add_elapsed(&mut idle, waiting);
        let working = rec.start();
        let span = rec.trace_start();
        let cf = chunk_and_hash(cfg, app, file);
        rec.trace_complete("chunk_hash", span);
        add_elapsed(&mut busy, working);
        rec.queue_push(Queue::Shards);
        if shard.send((i, cf)).is_err() {
            break;
        }
    }
    rec.worker_report(WorkerRole::Chunker, id, busy, idle);
}

impl AaDedupe {
    /// Engine with the paper's default configuration.
    pub fn new(cloud: CloudSim) -> Self {
        Self::with_config(cloud, AaDedupeConfig::default())
    }

    /// Builds an index matching `config`'s storage mode: RAM-resident by
    /// default, disk-backed under [`AaDedupeConfig::index_dir`] when set.
    /// Recovery uses this too, so a rebuilt index keeps the same mode.
    fn build_index(config: &AaDedupeConfig) -> AppAwareIndex {
        let mut index = match &config.index_dir {
            Some(dir) => {
                AppAwareIndex::disk_backed(config.ram_entries_per_partition, dir)
            }
            None => AppAwareIndex::new(config.ram_entries_per_partition),
        };
        index.set_recorder(Arc::clone(&config.recorder));
        index
    }

    /// Engine with an explicit configuration.
    pub fn with_config(cloud: CloudSim, config: AaDedupeConfig) -> Self {
        let index = Self::build_index(&config);
        let mut containers = ContainerStore::new(config.container_size);
        containers.set_recorder(Arc::clone(&config.recorder));
        for app in AppType::ALL {
            config.recorder.label_app(app.tag(), app.to_string());
        }
        AaDedupe {
            index,
            containers,
            sessions: 0,
            container_live: HashMap::new(),
            tiny_seen: HashMap::new(),
            poisoned: None,
            orphans_swept: 0,
            sweep_debt: Vec::new(),
            cloud,
            config,
        }
    }

    /// Opens an engine over an *existing* cloud namespace, resuming its
    /// state: the session counter continues after the last stored
    /// manifest, and the index and per-container reference counts are
    /// rebuilt from the manifests themselves (exact, snapshot-independent).
    /// A fresh namespace yields a fresh engine.
    pub fn open(cloud: CloudSim, config: AaDedupeConfig) -> Result<Self, BackupError> {
        let mut engine = Self::with_config(cloud, config);
        let index = &engine.index;
        let (live, sessions) = load_manifests(&engine.cloud, &engine.config, &mut |app, c| {
            index.partition(app).bump_or_insert(
                c.fingerprint,
                ChunkEntry::new(c.len as u64, c.container, c.offset),
            );
        })?;
        (engine.container_live, engine.sessions) = (live, sessions);
        // Resume ids over *everything* in the namespace — orphans included —
        // before sweeping, so a resumed engine never re-mints an id that was
        // ever visible in the cloud.
        engine.resume_container_ids();
        engine.sweep_orphan_containers()?;
        Ok(engine)
    }

    /// Garbage-collects containers no manifest references — the leftovers
    /// of sessions that crashed after uploading containers but before the
    /// manifest (the commit point) landed. Safe by construction: a
    /// container becomes reachable only through a committed manifest, and
    /// every committed manifest's containers are in `container_live`.
    fn sweep_orphan_containers(&mut self) -> Result<(), BackupError> {
        let prefix = format!("{}/containers/", self.config.scheme_key);
        for key in self.cloud.store().list(&prefix) {
            let referenced = key
                .rsplit('/')
                .next()
                .and_then(|s| s.parse::<u64>().ok())
                .is_some_and(|id| self.container_live.contains_key(&id));
            if !referenced {
                self.cloud.delete(&key)?;
                self.orphans_swept += 1;
            }
        }
        self.config.recorder.count(Counter::OrphansSwept, self.orphans_swept);
        Ok(())
    }

    /// Containers the orphan sweep removed when this engine was opened.
    pub fn orphans_swept(&self) -> u64 {
        self.orphans_swept
    }

    /// Whether this engine instance refuses further backups because a
    /// previous session failed mid-upload.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    /// Advances every stream's container sequence past its containers in
    /// the cloud namespace, so resumed engines never clobber live
    /// containers. Ids minted before the per-stream scheme decompose as
    /// stream 0, which only over-advances the tiny stream — harmless.
    fn resume_container_ids(&mut self) {
        let prefix = format!("{}/containers/", self.config.scheme_key);
        for key in self.cloud.store().list(&prefix) {
            if let Some(id) = key.rsplit('/').next().and_then(|s| s.parse::<u64>().ok()) {
                let (stream, seq) = decompose_id(id);
                self.containers.resume_stream_ids(stream, seq + 1);
            }
        }
    }

    /// Sessions currently restorable from the cloud (ascending). Sorted
    /// numerically after parsing — backend listing order is lexicographic
    /// at best and arbitrary in general.
    pub fn list_sessions(&self) -> Vec<usize> {
        let prefix = format!("{}/manifests/", self.config.scheme_key);
        let mut sessions: Vec<usize> = self
            .cloud
            .store()
            .list(&prefix)
            .iter()
            .filter_map(|k| k.rsplit('/').next()?.parse::<usize>().ok())
            .collect();
        sessions.sort_unstable();
        sessions
    }

    /// Restores a single file by path from a past session, fetching only
    /// the containers that file's recipe references.
    pub fn restore_file(&self, session: usize, path: &str) -> Result<RestoredFile, BackupError> {
        restore_file_pipelined(
            &self.cloud,
            &self.config.scheme_key,
            session as u64,
            path,
            &self.config.restore,
            &self.config.retry,
            &self.config.recorder,
        )
    }

    /// The engine's configuration.
    pub fn config(&self) -> &AaDedupeConfig {
        &self.config
    }

    /// The cloud this engine talks to.
    pub fn cloud(&self) -> &CloudSim {
        &self.cloud
    }

    /// The application-aware index (inspection).
    pub fn index(&self) -> &AppAwareIndex {
        &self.index
    }

    /// One session's size filter + chunk + dedup dataflow, serial or
    /// parallel per the pipeline config, and its commit. Both paths yield
    /// identical manifests, containers, index state, counters and PUT
    /// sequences.
    ///
    /// Commit protocol: each container is uploaded as its file is
    /// absorbed, the tail seals after the last file; then the manifest —
    /// the commit point — then the index snapshot. A session whose uploads
    /// stopped never reaches its manifest: the containers it did upload
    /// are orphans, which the sweep in `open` reclaims. The engine is then
    /// poisoned, since its in-memory index holds this session's inserts
    /// with nothing committed behind them.
    fn run_session(
        &mut self,
        files: &[&dyn SourceFile],
        report: &mut SessionReport,
        clock: &mut DedupClock,
    ) -> Result<(), BackupError> {
        report.files_total += files.len() as u64;
        for f in files {
            report.logical_bytes += f.size();
            if f.size() < self.config.tiny_threshold {
                report.files_tiny += 1;
            }
        }
        self.config.recorder.count(Counter::FilesClassified, files.len() as u64);
        let AaDedupe { config: cfg, cloud, index, containers, tiny_seen, container_live, .. } = self;
        let mut sink = Sink {
            cloud,
            cfg,
            index,
            report,
            clock,
            container_live,
            manifest: Manifest::new(self.sessions as u64),
            retry_budget: cfg.retry.session_retry_budget,
            upload_seq: 0,
            failed: None,
        };
        if cfg.pipeline.parallel() {
            run_parallel(&mut sink, files, containers, tiny_seen);
        } else {
            let rec = &cfg.recorder;
            sink.absorb_files(files, containers, tiny_seen, None, &mut |_, file, containers| {
                let span = rec.trace_start();
                let classify = rec.start();
                let app = file.app_type();
                rec.record(Stage::Classify, classify);
                let chunked = chunk_and_hash(cfg, app, file);
                let writer = containers.writer_mut(app.tag() as u32);
                let out = dedupe_chunks(index, file.path(), app, chunked, writer, rec);
                rec.trace_complete("file", span);
                Some(out)
            });
        }
        containers.seal_all();
        for sealed in containers.drain_sealed() {
            cfg.recorder.queue_push(Queue::Upload);
            sink.upload_container(sealed);
        }
        // Every byte of the dataset is read once from the source disk.
        sink.clock.charge_source_read(sink.report.logical_bytes);
        let rec = &cfg.recorder;
        let upload_span = rec.trace_start();
        if sink.may_upload() {
            let uploading = rec.start();
            let key = Manifest::key(&cfg.scheme_key, sink.manifest.session);
            match sink.put(&key, sink.manifest.encode()) {
                Err(e) => sink.failed = Some((format!("manifest upload failed: {e}"), e)),
                Ok(()) => rec.record(Stage::Upload, uploading),
            }
        }
        if let Some((why, e)) = sink.failed.take() {
            self.poisoned = Some(why);
            return Err(e);
        }
        // Periodic index synchronisation. The manifest is committed, so
        // the session is durable and the engine's state matches the cloud;
        // the snapshot is only a recovery accelerator, and its failure
        // counts the session and surfaces without poisoning.
        self.sessions += 1;
        if cfg.index_sync_interval > 0 && self.sessions.is_multiple_of(cfg.index_sync_interval) {
            let uploading = rec.start();
            let key = format!("{}/index/{:08}", cfg.scheme_key, self.sessions - 1);
            if let Err(e) = sink.put(&key, codec::encode_app_aware(index)) {
                return Err(BackupError::Cloud(format!(
                    "session committed, but index snapshot upload failed: {e}"
                )));
            }
            rec.record(Stage::Upload, uploading);
        }
        rec.trace_complete("upload", upload_span);
        Ok(())
    }

    /// Checks that every container `manifest` references has a live
    /// refcount — the precondition [`release_manifest_refs`] relies on.
    /// Runs *before* the un-commit point so a desynchronised engine (e.g.
    /// one recovered without rebuilding refcounts) surfaces a typed
    /// [`BackupError::Corrupt`] with nothing mutated, instead of the
    /// panic this used to be.
    ///
    /// [`release_manifest_refs`]: AaDedupe::release_manifest_refs
    fn validate_manifest_refs(
        &self,
        session: usize,
        manifest: &Manifest,
    ) -> Result<(), BackupError> {
        for f in &manifest.files {
            for c in &f.chunks {
                if !self.container_live.contains_key(&c.container) {
                    return Err(BackupError::Corrupt(format!(
                        "session {session}: manifest references container {:012} with no \
                         live refcount — in-memory GC state is out of sync with the cloud \
                         (recover or reopen the engine first)",
                        c.container
                    )));
                }
            }
        }
        Ok(())
    }

    /// Drops one manifest's references from the in-memory index and the
    /// per-container refcounts, returning the containers left with no live
    /// chunks. Infallible by design: it runs after the manifest delete —
    /// the un-commit point — so nothing here may abort the deletion
    /// half-done; [`validate_manifest_refs`] establishes the refcount
    /// precondition beforehand. Tiny-file chunks are unindexed, so their
    /// container slots are released directly.
    ///
    /// [`validate_manifest_refs`]: AaDedupe::validate_manifest_refs
    fn release_manifest_refs(&mut self, manifest: &Manifest) -> Vec<u64> {
        let mut dead = Vec::new();
        for f in &manifest.files {
            for c in &f.chunks {
                if !f.tiny {
                    // Tiny chunks are unindexed; indexed chunks drop one
                    // reference (removed from the index at zero).
                    self.index.release(f.app, &c.fingerprint);
                }
                // Validated before the un-commit point; a slot that still
                // vanishes mid-release means the container already hit
                // zero via an earlier reference and was reclaimed below.
                let Some(live) = self.container_live.get_mut(&c.container) else {
                    continue;
                };
                *live = live.saturating_sub(1);
                if *live == 0 {
                    self.container_live.remove(&c.container);
                    dead.push(c.container);
                }
            }
        }
        dead
    }

    /// Deletes a past session and reclaims any containers left without
    /// live references (the background deletion process of §III.F).
    ///
    /// Crash consistency: the *manifest* delete is the un-commit point.
    /// Until it succeeds nothing is mutated — a failure there leaves the
    /// session fully restorable. After it, container reclamation is
    /// best-effort garbage collection: a failed container delete is
    /// recorded as sweep debt (retried on the next deletion; the orphan
    /// sweep in [`AaDedupe::open`] also reclaims it, since a container
    /// unreferenced by every committed manifest is an orphan), never an
    /// error — the inverse order would delete containers a still-committed
    /// manifest references.
    pub fn delete_session(&mut self, session: usize) -> Result<(), BackupError> {
        let key = Manifest::key(&self.config.scheme_key, session as u64);
        let (bytes, _t) = self.cloud.get(&key)?;
        let bytes = bytes.ok_or(BackupError::UnknownSession(session))?;
        let manifest = Manifest::decode(&bytes)?;
        self.validate_manifest_refs(session, &manifest)?;
        self.cloud.delete(&key)?;
        let mut reclaim = std::mem::take(&mut self.sweep_debt);
        reclaim.extend(self.release_manifest_refs(&manifest));
        for id in reclaim {
            if self.cloud.delete(&container_key(&self.config.scheme_key, id)).is_err() {
                self.sweep_debt.push(id);
            }
        }
        Ok(())
    }

    /// Containers whose delete failed during a past [`delete_session`] —
    /// unreferenced garbage awaiting reclamation by the next deletion or
    /// by the orphan sweep on reopen.
    ///
    /// [`delete_session`]: AaDedupe::delete_session
    pub fn sweep_debt(&self) -> &[u64] {
        &self.sweep_debt
    }

    /// Rebuilds the in-memory index from the latest cloud snapshot — the
    /// disaster-recovery path the paper's periodic synchronisation enables.
    ///
    /// The snapshot is only an *accelerator* and can be stale in both
    /// directions: [`delete_session`](AaDedupe::delete_session) never
    /// uploads a fresh one (so it resurrects fingerprints of deleted
    /// chunks, and a backup deduping against them would commit a silently
    /// unrestorable session), and sessions after the last sync are absent
    /// from it. The committed manifests are the source of truth, so after
    /// decoding the snapshot this reconciles every partition against them
    /// — pruning resurrected entries, correcting refcounts and
    /// placements, adding missing entries — and rebuilds the
    /// per-container refcounts exactly as [`AaDedupe::open`] does (without
    /// them, the first post-recovery delete used to die on a refcount
    /// panic).
    pub fn recover_index_from_cloud(&mut self) -> Result<(), BackupError> {
        let keys = self.cloud.store().list(&format!("{}/index/", self.config.scheme_key));
        let latest = keys.last().ok_or_else(|| {
            BackupError::MissingObject(format!("{}/index/*", self.config.scheme_key))
        })?;
        let (bytes, _t) = self.cloud.get(latest)?;
        let bytes = bytes.ok_or_else(|| BackupError::MissingObject(latest.clone()))?;
        // A fresh index in the configured storage mode (disk-backed
        // partitions rebuild their segments and existence filters as the
        // snapshot loads), decoded in place.
        let index = Self::build_index(&self.config);
        codec::decode_app_aware_into(&bytes, &index)
            .map_err(|e| BackupError::Corrupt(format!("index snapshot: {e}")))?;
        self.index = index;

        // Reconcile against the manifests: exact per-app entries (first
        // placement wins, one refcount per reference — the same fold as
        // `open`) and exact per-container live counts.
        let mut live: BTreeMap<AppType, BTreeMap<Fingerprint, ChunkEntry>> = BTreeMap::new();
        let (container_live, sessions) = load_manifests(&self.cloud, &self.config, &mut |app, c| {
            live.entry(app)
                .or_default()
                .entry(c.fingerprint)
                .and_modify(|e| e.refcount = e.refcount.saturating_add(1))
                .or_insert_with(|| ChunkEntry::new(c.len as u64, c.container, c.offset));
        })?;
        for app in AppType::ALL {
            self.index.partition(app).reconcile(live.remove(&app).unwrap_or_default());
        }
        self.container_live = container_live;
        // Post-recovery state matches the cloud exactly, so the stale
        // tiny-file cache and the poison flag are cleared (sweep debt is
        // kept: those containers are unreferenced garbage in the cloud
        // whether or not a disaster happened in between); the container
        // store restarts fresh with its ids resumed past every id ever
        // visible in the namespace.
        self.tiny_seen.clear();
        self.poisoned = None;
        let mut containers = ContainerStore::new(self.config.container_size);
        containers.set_recorder(Arc::clone(&self.config.recorder));
        self.containers = containers;
        // The session counter must survive the disaster too: continue after
        // the last committed manifest, exactly as `open` does. Without this
        // the next backup would reuse session 0 and clobber its manifest.
        self.sessions = sessions;
        self.resume_container_ids();
        Ok(())
    }
}

impl BackupScheme for AaDedupe {
    fn name(&self) -> &'static str {
        "AA-Dedupe"
    }

    fn backup_session(
        &mut self,
        files: &[&dyn SourceFile],
    ) -> Result<SessionReport, BackupError> {
        if let Some(why) = &self.poisoned {
            return Err(BackupError::Poisoned(why.clone()));
        }
        let mut report = SessionReport::new(self.name(), self.sessions);
        let mut clock = DedupClock::new();
        let rec = Arc::clone(&self.config.recorder);
        // Per-session stage figures come from snapshot deltas: the
        // recorder's histograms are lifetime-cumulative.
        let obs_before: Option<Snapshot> = rec.is_enabled().then(|| rec.snapshot());
        let session_span = rec.trace_start();
        let wan_before = self.cloud.elapsed();
        let puts_before = self.cloud.store().stats();

        self.run_session(files, &mut report, &mut clock)?;
        let put_delta = self.cloud.store().stats().put_requests - puts_before.put_requests;
        report.put_requests = put_delta;
        report.dedup_cpu = match obs_before {
            // With the recorder on, dedup CPU is the sum of the measured
            // chunk/hash/index stage times plus the modelled source read
            // and disk-probe charges — same model as DedupClock::total,
            // with the CPU term decomposed per stage.
            Some(before) => {
                let delta = rec.snapshot().delta_since(&before);
                let stage = StageCpu {
                    source_read: Duration::from_secs_f64(
                        report.logical_bytes as f64 / SOURCE_READ_BPS,
                    ),
                    chunk: delta.stage_total(Stage::Chunk),
                    hash: delta.stage_total(Stage::Hash),
                    index: delta.stage_total(Stage::Index)
                        + DISK_SEEK * report.index_disk_reads as u32,
                };
                report.stage_cpu = Some(stage);
                stage.total()
            }
            None => clock.total(),
        };
        report.transfer_time = self.cloud.elapsed() - wan_before;
        rec.trace_complete("session", session_span);
        Ok(report)
    }

    fn restore_session(&self, session: usize) -> Result<Vec<RestoredFile>, BackupError> {
        restore_session_pipelined(
            &self.cloud,
            &self.config.scheme_key,
            session as u64,
            &self.config.restore,
            &self.config.retry,
            &self.config.recorder,
        )
    }

    fn sessions_completed(&self) -> usize {
        self.sessions
    }
}

/// The parallel pipeline (see the module docs for the dataflow, the
/// determinism argument and the admission window). Application streams'
/// writers are lent to their shards for the session and merged back.
fn run_parallel(
    sink: &mut Sink<'_>,
    files: &[&dyn SourceFile],
    containers: &mut ContainerStore,
    tiny_seen: &mut HashMap<String, (u64, ChunkRef)>,
) {
    let cfg = sink.cfg;
    let index = sink.index;
    let rec = &cfg.recorder;
    let workers = cfg.pipeline.workers.max(1);
    let window = Window::new(workers * cfg.pipeline.queue_depth.max(1));

    // One job per big file, in file order, addressed to the shard of its
    // application; each shard's work list is its files in file order.
    type Chunked = (usize, ChunkedFile);
    type Shard<'f> = (mpsc::Sender<Chunked>, mpsc::Receiver<Chunked>, Vec<(usize, &'f str)>);
    let mut by_app: BTreeMap<AppType, Shard<'_>> = BTreeMap::new();
    let mut jobs: Vec<Job<'_>> = Vec::new();
    for (i, file) in files.iter().enumerate() {
        if file.size() >= cfg.tiny_threshold {
            let classify = rec.start();
            let app = file.app_type();
            rec.record(Stage::Classify, classify);
            let (tx, _, my_files) = by_app.entry(app).or_insert_with(|| {
                let (tx, rx) = mpsc::channel();
                (tx, rx, Vec::new())
            });
            my_files.push((i, file.path()));
            jobs.push((i, *file, app, tx.clone()));
        }
    }

    let (job_tx, job_rx) = mpsc::channel::<Job<'_>>();
    let job_rx = Mutex::new(job_rx);
    let (out_tx, out_rx) = mpsc::channel::<(usize, DedupedFile)>();
    let mut pending: BTreeMap<usize, DedupedFile> = BTreeMap::new();
    std::thread::scope(|scope| {
        let mut shards = Vec::new();
        // The jobs hold the only senders, so a shard's channel closes once
        // the workers are done with its files.
        for (app, (_, rx, my_files)) in by_app {
            let mut writer = containers.lend(u32::from(app.tag()));
            let out_tx = out_tx.clone();
            shards.push(scope.spawn(move || {
                run_shard(index, app, &my_files, &rx, &mut writer, &out_tx, rec);
                writer
            }));
        }
        drop(out_tx);
        for id in 0..workers {
            let job_rx = &job_rx;
            scope.spawn(move || run_worker(cfg, job_rx, id));
        }
        let window = &window;
        scope.spawn(move || {
            for job in jobs.into_iter().take_while(|job| window.admit(job.0)) {
                rec.queue_push(Queue::Jobs);
                if job_tx.send(job).is_err() {
                    break;
                }
            }
        });

        sink.absorb_files(files, containers, tiny_seen, Some(window), &mut |i, _, _| loop {
            if let Some(out) = pending.remove(&i) {
                return Some(out);
            }
            let (j, out) = out_rx.recv().ok()?;
            pending.insert(j, out);
        });
        // Releases the feeder if the uploads stopped early; a no-op once
        // it admitted every file.
        window.close();
        for shard in shards {
            containers.merge(shard.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
    });
    // Outcomes left behind by a failed session are dropped, not uploaded.
    for out in pending.into_values().chain(out_rx.try_iter().map(|(_, out)| out)) {
        for _ in out.sealed {
            rec.queue_pop(Queue::Upload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aadedupe_filetype::MemoryFile;

    fn mem(path: &str, data: Vec<u8>) -> MemoryFile {
        MemoryFile::new(path, data)
    }

    fn sources(files: &[MemoryFile]) -> Vec<&dyn SourceFile> {
        files.iter().map(|f| f as &dyn SourceFile).collect()
    }

    fn engine() -> AaDedupe {
        AaDedupe::new(CloudSim::with_paper_defaults())
    }

    #[test]
    fn cdc_for_prefers_the_first_matching_override() {
        use aadedupe_chunking::CdcAlgorithm;
        let fast = DEFAULT_CDC.with_algorithm(CdcAlgorithm::FastCdc);
        let cfg = AaDedupeConfig {
            cdc_by_app: vec![(AppType::Doc, fast), (AppType::Doc, DEFAULT_CDC)],
            ..AaDedupeConfig::default()
        };
        assert_eq!(cfg.cdc_for(AppType::Doc).algorithm, CdcAlgorithm::FastCdc);
        assert_eq!(cfg.cdc_for(AppType::Txt).algorithm, CdcAlgorithm::Rabin);
        assert_eq!(cfg.cdc_for(AppType::Txt), cfg.cdc);
    }

    #[test]
    fn fastcdc_engine_round_trips_and_differs_from_rabin() {
        use aadedupe_chunking::CdcAlgorithm;
        let files = vec![
            mem("user/doc/a.doc", b"document text, edited weekly ".repeat(9000)),
            mem("user/txt/b.txt", (0..180_000u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect()),
        ];
        let mut rabin = engine();
        let cfg = AaDedupeConfig {
            cdc: DEFAULT_CDC.with_algorithm(CdcAlgorithm::FastCdc),
            ..AaDedupeConfig::default()
        };
        let mut fast = AaDedupe::with_config(CloudSim::with_paper_defaults(), cfg);
        let rr = rabin.backup_session(&sources(&files)).unwrap();
        let rf = fast.backup_session(&sources(&files)).unwrap();
        // Different hash families cut at different positions...
        assert_ne!(rr.chunks_total, rf.chunks_total);
        // ...but restores are bit-exact either way.
        assert_eq!(rabin.restore_session(0).unwrap(), fast.restore_session(0).unwrap());
    }

    #[test]
    fn per_app_override_only_reshapes_that_partition() {
        use aadedupe_chunking::CdcAlgorithm;
        // High-entropy doc content: content-defined (not forced) cuts, so
        // the two algorithms produce clearly different chunk counts
        // (Rabin mean ≈ 7.5 KiB, normalized FastCDC mean ≈ 9.5 KiB).
        let mut x = 0x00D0_C5EEDu64;
        let doc: Vec<u8> = (0..600_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        let files = vec![
            mem("user/doc/a.doc", doc),
            mem("user/txt/b.txt", (0..180_000u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect()),
        ];
        let mut plain = engine();
        let cfg = AaDedupeConfig {
            cdc_by_app: vec![(AppType::Doc, DEFAULT_CDC.with_algorithm(CdcAlgorithm::FastCdc))],
            ..AaDedupeConfig::default()
        };
        let mut mixed = AaDedupe::with_config(CloudSim::with_paper_defaults(), cfg);
        let rp = plain.backup_session(&sources(&files)).unwrap();
        let rm = mixed.backup_session(&sources(&files)).unwrap();
        // The override re-cuts only the Doc partition; totals shift but the
        // restored bytes cannot.
        assert_ne!(rp.chunks_total, rm.chunks_total);
        assert_eq!(plain.restore_session(0).unwrap(), mixed.restore_session(0).unwrap());
    }

    #[test]
    fn backup_and_restore_round_trip() {
        let mut e = engine();
        let files = vec![
            mem("user/doc/a.doc", b"document text ".repeat(3000)), // dynamic
            mem("user/pdf/b.pdf", vec![7u8; 50_000]),              // static
            mem("user/mp3/c.mp3", (0..60_000u32).map(|i| (i % 251) as u8).collect()), // compressed
            mem("user/tiny/t.txt", b"tiny".to_vec()),              // tiny
        ];
        let report = e.backup_session(&sources(&files)).unwrap();
        assert_eq!(report.files_total, 4);
        assert_eq!(report.files_tiny, 1);
        assert!(report.logical_bytes > 0);
        assert!(report.transferred_bytes > 0);

        let restored = e.restore_session(0).unwrap();
        assert_eq!(restored.len(), 4);
        for (orig, rest) in files.iter().zip(restored.iter()) {
            assert_eq!(orig.path, rest.path);
            assert_eq!(orig.data, rest.data, "{}", orig.path);
        }
    }

    #[test]
    fn second_identical_session_dedupes_everything() {
        let mut e = engine();
        let files = vec![
            mem("user/doc/a.doc", b"words and words ".repeat(4000)),
            mem("user/exe/b.exe", vec![3u8; 100_000]),
        ];
        let s0 = e.backup_session(&sources(&files)).unwrap();
        let s1 = e.backup_session(&sources(&files)).unwrap();
        assert_eq!(s1.stored_bytes, 0, "identical data stores nothing new");
        assert!(s1.chunks_duplicate >= s0.chunks_total - 1);
        assert!(s1.transferred_bytes < s0.transferred_bytes / 2);
        // Both sessions restore correctly.
        for session in 0..2 {
            let restored = e.restore_session(session).unwrap();
            assert_eq!(restored[0].data, files[0].data);
            assert_eq!(restored[1].data, files[1].data);
        }
    }

    #[test]
    fn policy_routes_by_category() {
        let mut e = engine();
        // A compressed file large enough that SC would make many chunks,
        // but WFC must make exactly one.
        let media = mem("user/avi/m.avi", vec![9u8; 200_000]);
        let report = e.backup_session(&sources(std::slice::from_ref(&media))).unwrap();
        assert_eq!(report.chunks_total, 1, "WFC yields one chunk per file");
        // A static file gets 8 KiB fixed chunks.
        let mut e2 = engine();
        let stat = mem("user/pdf/s.pdf", vec![1u8; 80_000]);
        let r2 = e2.backup_session(&sources(&[stat])).unwrap();
        assert_eq!(r2.chunks_total, 80_000 / 8192 + 1);
    }

    #[test]
    fn tiny_files_bypass_dedup() {
        let mut e = engine();
        // Two identical tiny files: no dedup on the tiny path.
        let files = vec![
            mem("user/tiny/a.txt", b"same tiny content".to_vec()),
            mem("user/tiny/b.txt", b"same tiny content".to_vec()),
        ];
        let report = e.backup_session(&sources(&files)).unwrap();
        assert_eq!(report.files_tiny, 2);
        assert_eq!(report.chunks_duplicate, 0);
        assert_eq!(report.stored_bytes, 2 * 17);
        // Restore still works.
        let restored = e.restore_session(0).unwrap();
        assert_eq!(restored[0].data, restored[1].data);
    }

    #[test]
    fn intra_session_duplicate_files_dedup() {
        let mut e = engine();
        let payload = vec![0xabu8; 64_000];
        let files = vec![
            mem("user/pdf/one.pdf", payload.clone()),
            mem("user/pdf/two.pdf", payload.clone()),
        ];
        let report = e.backup_session(&sources(&files)).unwrap();
        assert!(report.chunks_duplicate >= report.chunks_total / 2 - 1);
        assert!(report.stored_bytes <= payload.len() as u64 + 8192);
    }

    #[test]
    fn cross_app_identical_content_is_not_shared() {
        // Observation 2's corollary: identical bytes under different app
        // types live in different partitions and are stored twice.
        let mut e = engine();
        // Non-repeating payload so no *intra-file* chunks collide.
        let payload: Vec<u8> = {
            let mut x = 0x1234_5678_9ABC_DEF0u64;
            (0..40_000).map(|_| { x ^= x << 13; x ^= x >> 7; x ^= x << 17; (x >> 32) as u8 }).collect()
        };
        let files = vec![
            mem("user/pdf/a.pdf", payload.clone()),
            mem("user/exe/b.exe", payload.clone()),
        ];
        let report = e.backup_session(&sources(&files)).unwrap();
        assert_eq!(report.chunks_duplicate, 0);
        assert_eq!(report.stored_bytes, 2 * payload.len() as u64);
    }

    #[test]
    fn parallel_workers_match_serial_results() {
        let files: Vec<MemoryFile> = (0..12)
            .map(|i| {
                mem(
                    &format!("user/txt/f{i}.txt"),
                    format!("file number {i} ").repeat(2000 + i * 37).into_bytes(),
                )
            })
            .collect();
        let mut serial = engine();
        let cfg = AaDedupeConfig {
            pipeline: PipelineConfig::with_workers(4),
            ..AaDedupeConfig::default()
        };
        let mut parallel = AaDedupe::with_config(CloudSim::with_paper_defaults(), cfg);

        let rs = serial.backup_session(&sources(&files)).unwrap();
        let rp = parallel.backup_session(&sources(&files)).unwrap();
        assert_eq!(rs.stored_bytes, rp.stored_bytes);
        assert_eq!(rs.chunks_total, rp.chunks_total);
        assert_eq!(rs.chunks_duplicate, rp.chunks_duplicate);
        // Bit-exact restores from both.
        let a = serial.restore_session(0).unwrap();
        let b = parallel.restore_session(0).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn forced_parallel_mode_single_worker_matches_serial() {
        // PipelineMode::Parallel exercises the full pipeline machinery
        // even with one worker; output must be identical to serial.
        let files = vec![
            mem("user/doc/a.doc", b"mixed workload ".repeat(3000)),
            mem("user/tiny/t.txt", b"wee".to_vec()),
            mem("user/pdf/b.pdf", vec![5u8; 40_000]),
        ];
        let mut serial = engine();
        let cfg = AaDedupeConfig {
            pipeline: PipelineConfig { workers: 1, queue_depth: 1, mode: PipelineMode::Parallel },
            ..AaDedupeConfig::default()
        };
        let mut forced = AaDedupe::with_config(CloudSim::with_paper_defaults(), cfg);
        let rs = serial.backup_session(&sources(&files)).unwrap();
        let rp = forced.backup_session(&sources(&files)).unwrap();
        assert_eq!(rs.stored_bytes, rp.stored_bytes);
        assert_eq!(rs.put_requests, rp.put_requests);
        assert_eq!(serial.restore_session(0).unwrap(), forced.restore_session(0).unwrap());
    }

    #[test]
    fn delete_session_reclaims_fully_dead_containers() {
        let mut e = engine();
        let files0 = vec![mem("user/doc/x.doc", b"version one ".repeat(3000))];
        e.backup_session(&sources(&files0)).unwrap();
        let objects_after_0 = e.cloud().store().object_count();
        // Session 1 with completely different content.
        let files1 = vec![mem("user/doc/y.doc", b"other stuff ".repeat(3000))];
        e.backup_session(&sources(&files1)).unwrap();

        e.delete_session(0).unwrap();
        // Session 0's manifest is gone and its containers reclaimed.
        assert!(e.restore_session(0).is_err());
        let restored = e.restore_session(1).unwrap();
        assert_eq!(restored[0].data, files1[0].data);
        assert!(e.cloud().store().object_count() < objects_after_0 + 4);
    }

    #[test]
    fn tiny_file_returning_after_its_session_was_deleted_is_repacked() {
        let mut e = engine();
        let a = mem("notes/a.txt", vec![b'a'; 300]);
        let b = mem("notes/b.txt", vec![b'b'; 300]);
        e.backup_session(&sources(std::slice::from_ref(&a))).unwrap();
        e.backup_session(&sources(std::slice::from_ref(&b))).unwrap();
        e.delete_session(0).unwrap();
        // Session 0's tiny container is gone, so `a` cannot be carried
        // forward by reference into it.
        let r = e.backup_session(&sources(std::slice::from_ref(&a))).unwrap();
        assert_eq!(r.stored_bytes, 300);
        assert_eq!(e.restore_session(2).unwrap()[0].data, a.data);
    }

    #[test]
    fn delete_preserves_shared_chunks() {
        let mut e = engine();
        let shared = mem("user/doc/s.doc", b"shared bytes ".repeat(4000));
        e.backup_session(&sources(std::slice::from_ref(&shared))).unwrap();
        e.backup_session(&sources(std::slice::from_ref(&shared))).unwrap();
        e.delete_session(0).unwrap();
        // Session 1 references the same chunks; they must survive.
        let restored = e.restore_session(1).unwrap();
        assert_eq!(restored[0].data, shared.data);
    }

    #[test]
    fn index_recovery_from_cloud_snapshot() {
        let mut e = engine();
        let files = vec![mem("user/ppt/p.ppt", b"slide deck ".repeat(5000))];
        e.backup_session(&sources(&files)).unwrap();
        let entries_before = e.index().len();
        assert!(entries_before > 0);
        // Simulate client disk loss.
        e.index = AppAwareIndex::new(e.config.ram_entries_per_partition);
        assert_eq!(e.index().len(), 0);
        e.recover_index_from_cloud().unwrap();
        assert_eq!(e.index().len(), entries_before);
        // Recovered index actually dedupes.
        let r = e.backup_session(&sources(&files)).unwrap();
        assert_eq!(r.stored_bytes, 0);
    }

    #[test]
    fn report_counters_are_consistent() {
        let mut e = engine();
        let files = vec![
            mem("user/txt/a.txt", b"alpha ".repeat(5000)),
            mem("user/tiny/t.txt", b"x".to_vec()),
        ];
        let r = e.backup_session(&sources(&files)).unwrap();
        assert_eq!(r.files_total, 2);
        assert!(r.chunks_duplicate <= r.chunks_total);
        assert!(r.stored_bytes <= r.logical_bytes);
        assert!(r.dr() >= 1.0);
        assert!(r.dedup_cpu > std::time::Duration::ZERO);
        assert!(r.put_requests > 0);
    }
}

//! A backup uploads each container as its file is absorbed, so its memory
//! does not grow with the session, and the PUT sequence that results is
//! the same at every worker count.

use std::sync::{Arc, Mutex};

use aa_dedupe::cloud::{
    BackendError, CloudSim, FaultInjectingBackend, FaultPlan, ObjectBackend, ObjectStore,
    ObjectStoreStats, PriceModel, WanModel,
};
use aa_dedupe::core::{AaDedupe, AaDedupeConfig, BackupScheme, PipelineConfig, PipelineMode};
use aa_dedupe::filetype::{MemoryFile, SourceFile};
use aa_dedupe::obs::{Queue, Recorder};

/// Containers small enough that a session of a few MiB seals dozens.
const CONTAINER: usize = 64 * 1024;
/// Application streams: the tiny-file stream plus one per AppType.
const STREAMS: u64 = 14;

/// `n` files of unique content across CDC, SC and WFC applications, each
/// smaller than a container (so placing one file seals at most one), plus
/// a tiny file every fourth file.
fn files(n: usize, seed: u64) -> Vec<MemoryFile> {
    let mut x = seed | 1;
    let mut bytes = |len: usize| -> Vec<u8> {
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    };
    let mut out = Vec::new();
    for i in 0..n {
        let ext = ["txt", "pdf", "mp3", "doc"][i % 4];
        let len = 12 * 1024 + (i * 7919) % (36 * 1024);
        out.push(MemoryFile::new(format!("user/{ext}/f{i}.{ext}"), bytes(len)));
        if i % 4 == 3 {
            out.push(MemoryFile::new(format!("user/txt/note{i}.txt"), bytes(700 + i)));
        }
    }
    out
}

fn config(workers: usize, mode: PipelineMode, rec: Arc<Recorder>) -> AaDedupeConfig {
    AaDedupeConfig {
        container_size: CONTAINER,
        pipeline: PipelineConfig { workers, queue_depth: 4, mode },
        recorder: rec,
        ..AaDedupeConfig::default()
    }
}

/// Backs `files` up into a fresh engine; returns the `upload` queue's
/// high-water mark and the number of containers the session uploaded.
fn upload_backlog(workers: usize, mode: PipelineMode, files: &[MemoryFile]) -> (u64, usize) {
    let rec = Recorder::shared();
    let mut engine =
        AaDedupe::with_config(CloudSim::with_paper_defaults(), config(workers, mode, rec.clone()));
    let sources: Vec<&dyn SourceFile> = files.iter().map(|f| f as &dyn SourceFile).collect();
    engine.backup_session(&sources).expect("backup");
    let q = rec.snapshot().queue(Queue::Upload);
    assert_eq!(q.depth, 0, "every sealed container was uploaded");
    (q.hwm, engine.cloud().store().list("aa-dedupe/containers/").len())
}

#[test]
fn sealed_containers_waiting_for_upload_stay_bounded() {
    let small = files(24, 7);
    let large = files(8 * 24, 7);
    for (workers, mode) in
        [(1, PipelineMode::Serial), (1, PipelineMode::Parallel), (4, PipelineMode::Parallel)]
    {
        // At most one container per file in flight (`queue_depth` files
        // per worker), plus one tail seal per stream.
        let bound = (workers * 4) as u64 + STREAMS;
        let (small_hwm, _) = upload_backlog(workers, mode, &small);
        let (large_hwm, large_containers) = upload_backlog(workers, mode, &large);
        let label = format!("workers={workers} {mode:?}");
        assert!(
            large_containers as u64 > 2 * bound,
            "{label}: the large session must seal well past the bound ({large_containers})"
        );
        assert!(small_hwm <= bound, "{label}: small session backlog {small_hwm} > {bound}");
        assert!(large_hwm <= bound, "{label}: large session backlog {large_hwm} > {bound}");
    }
}

/// Records the key of every object the store accepts, in order.
struct Recording {
    inner: ObjectStore,
    puts: Mutex<Vec<String>>,
}

impl ObjectBackend for Recording {
    fn put(&self, key: &str, bytes: Vec<u8>) -> Result<(), BackendError> {
        self.puts.lock().unwrap().push(key.to_string());
        self.inner.put(key, bytes)
    }
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, BackendError> {
        self.inner.get(key)
    }
    fn delete(&self, key: &str) -> Result<bool, BackendError> {
        self.inner.delete(key)
    }
    fn contains(&self, key: &str) -> bool {
        self.inner.contains(key)
    }
    fn list(&self, prefix: &str) -> Vec<String> {
        self.inner.list(prefix)
    }
    fn object_count(&self) -> usize {
        self.inner.object_count()
    }
    fn stored_bytes(&self) -> u64 {
        self.inner.stored_bytes()
    }
    fn stats(&self) -> ObjectStoreStats {
        self.inner.stats()
    }
    fn corrupt(&self, key: &str, byte_index: usize) -> bool {
        self.inner.corrupt(key, byte_index)
    }
}

#[test]
fn put_sequence_and_retry_jitter_match_at_every_worker_count() {
    let data = files(96, 3);
    let sources: Vec<&dyn SourceFile> = data.iter().map(|f| f as &dyn SourceFile).collect();
    let run = |workers: usize, mode: PipelineMode| {
        let recording = Arc::new(Recording { inner: ObjectStore::new(), puts: Mutex::default() });
        // Every put fails once first: the backoff each retry charges to
        // the transfer clock depends on the PUT's place in the sequence.
        let faulty: Arc<dyn ObjectBackend> = Arc::new(FaultInjectingBackend::new(
            recording.clone() as Arc<dyn ObjectBackend>,
            FaultPlan::new(5).fail_prefix_puts("aa-dedupe/", 1, true),
        ));
        let cloud =
            CloudSim::with_backend(faulty, WanModel::paper_defaults(), PriceModel::s3_april_2011());
        let mut engine = AaDedupe::with_config(cloud, config(workers, mode, Recorder::shared()));
        let report = engine.backup_session(&sources).expect("backup");
        let puts = recording.puts.lock().unwrap().clone();
        (puts, report.transfer_time)
    };
    let (serial_puts, serial_time) = run(1, PipelineMode::Serial);
    // Containers first, then the manifest (the commit point), then the
    // index snapshot.
    let n = serial_puts.len();
    assert!(n > 20, "{n} puts");
    assert!(serial_puts[..n - 2].iter().all(|k| k.starts_with("aa-dedupe/containers/")));
    assert_eq!(serial_puts[n - 2], "aa-dedupe/manifests/00000000");
    assert_eq!(serial_puts[n - 1], "aa-dedupe/index/00000000");
    for workers in [1, 2, 4] {
        let (puts, time) = run(workers, PipelineMode::Parallel);
        assert_eq!(puts, serial_puts, "workers={workers}: PUT sequence");
        assert_eq!(time, serial_time, "workers={workers}: transfer time with retry backoff");
    }
}

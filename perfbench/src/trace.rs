//! The traced run: an outside-in replay of the timed session through each
//! layer crate's public functions, with a span around every call.
//!
//! The replay re-implements the engine's serial backup dataflow from the
//! outside — classify, stream-chunk, fingerprint, index lookup/insert,
//! container append, seal, upload — and then a restore of the session it uploaded —
//! manifest fetch and decode, container fetch and parse, chunk verify and
//! assemble. Spans stay in memory and are written out when the run ends.
//! A replay that decides differently from the engine would describe a
//! different program, so its session totals must equal the engine's
//! `SessionReport` exactly (the fidelity gate).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use aadedupe_chunking::{ChunkingMethod, StreamChunker};
use aadedupe_cloud::CloudSim;
use aadedupe_container::{decompose_id, ContainerStore, ParsedContainer};
use aadedupe_core::restore::container_key;
use aadedupe_core::{AaDedupe, BackupScheme, ChunkRef, FileRecipe, Manifest};
use aadedupe_filetype::classify;
use aadedupe_hashing::{Fingerprint, HashAlgorithm};
use aadedupe_index::{codec, ChunkEntry};

use crate::measure::{self, Faults, Rep};
use crate::workload::{Prepared, Workload};
use crate::{Outcome, Tally, MIB};

/// The container stream tiny files are packed into (the engine's own
/// constant is crate-private).
const TINY_STREAM: u32 = 0;

/// Identifies a span; 0 means "no parent".
type SpanId = usize;

/// One recorded call: what, when (ns since the tracer started), which span
/// caused it, and the request (file) it served.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    request: u64,
}

/// In-memory span recorder.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len()
    }

    fn end(&mut self, id: SpanId) {
        let now = self.now();
        self.spans[id - 1].end_ns = now;
    }

    /// Runs `f` inside a span.
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, req);
        let out = f();
        self.end(id);
        out
    }

    fn seconds(&self, id: SpanId) -> f64 {
        let s = &self.spans[id - 1];
        (s.end_ns - s.start_ns) as f64 / 1e9
    }

    /// Self time per span name, seconds: each span's duration minus the
    /// part its children cover (the replay is single-threaded, so children
    /// never overlap).
    fn self_seconds(&self) -> HashMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            child_ns[s.parent] += s.end_ns - s.start_ns;
        }
        let mut out: HashMap<&'static str, f64> = HashMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i + 1]);
            *out.entry(s.name).or_default() += own as f64 / 1e9;
        }
        out
    }

    /// Writes every span as one JSON line.
    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            text.push_str(&format!(
                "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}\n",
                i + 1,
                s.parent,
                s.request,
                s.name,
                s.start_ns,
                s.end_ns
            ));
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

fn chunking_span(m: ChunkingMethod) -> &'static str {
    match m {
        ChunkingMethod::Wfc => "chunking.wfc",
        ChunkingMethod::Sc => "chunking.sc",
        ChunkingMethod::Cdc => "chunking.cdc",
    }
}

fn hashing_span(h: HashAlgorithm) -> &'static str {
    match h {
        HashAlgorithm::Rabin96 => "hashing.rabin96",
        HashAlgorithm::Md5 => "hashing.md5",
        HashAlgorithm::Sha1 => "hashing.sha1",
    }
}

/// Work counts the replay observed, keyed like the spans.
#[derive(Default)]
struct Counts {
    files: u64,
    tiny_files: u64,
    bytes: HashMap<&'static str, u64>,
    cdc_chunks: u64,
    lookups: u64,
    hits: u64,
    inserts: u64,
    appended: u64,
    sealed_bytes: u64,
    payload_bytes: u64,
    index_entries: u64,
    verified: u64,
    assembled: u64,
    // The session totals the fidelity gate compares.
    chunks_total: u64,
    chunks_duplicate: u64,
    stored_bytes: u64,
    put_requests: u64,
    transferred_bytes: u64,
}

impl Counts {
    fn add(&mut self, key: &'static str, n: u64) {
        *self.bytes.entry(key).or_default() += n;
    }

    fn get(&self, key: &str) -> u64 {
        self.bytes.get(key).copied().unwrap_or(0)
    }
}

/// Replays the timed backup on `cloud` (a fresh copy of the starting
/// repository) and returns the root span.
fn replay_backup(
    w: &Workload,
    prep: &Prepared,
    cloud: &CloudSim,
    t: &mut Tracer,
    n: &mut Counts,
) -> Result<(SpanId, u64), String> {
    // The engine as `open` leaves it supplies the index state and the
    // session number; everything after is the replay's own calls.
    let engine = AaDedupe::open(cloud.clone(), w.config()).map_err(|e| e.to_string())?;
    let cfg = engine.config();
    let index = engine.index();
    let session = engine.sessions_completed() as u64;
    let mut store = ContainerStore::new(cfg.container_size);
    for key in cloud
        .store()
        .list(&format!("{}/containers/", cfg.scheme_key))
    {
        if let Some(id) = key.rsplit('/').next().and_then(|s| s.parse::<u64>().ok()) {
            let (stream, seq) = decompose_id(id);
            store.resume_stream_ids(stream, seq + 1);
        }
    }

    let root = t.begin("backup.session", 0, 0);
    let mut manifest = Manifest::new(session);
    for (i, file) in prep.files.iter().enumerate() {
        let req = i as u64 + 1;
        let fspan = t.begin("backup.file", root, req);
        let data = &file.data;
        let (app, tiny) = t.span("filetype", fspan, req, || {
            (
                classify(Path::new(&file.path)),
                (data.len() as u64) < cfg.tiny_threshold,
            )
        });
        if app != file.app {
            return Err(format!(
                "{}: classified as {app}, generated as {}",
                file.path, file.app
            ));
        }
        n.files += 1;
        let mut recipe = FileRecipe {
            path: file.path.clone(),
            app,
            tiny,
            chunks: Vec::new(),
        };
        if tiny {
            n.tiny_files += 1;
            let name = hashing_span(HashAlgorithm::Sha1);
            let fp = t.span(name, fspan, req, || {
                Fingerprint::compute(HashAlgorithm::Sha1, data)
            });
            n.add(name, data.len() as u64);
            let at = t.span("container.append", fspan, req, || {
                store.add_chunk(TINY_STREAM, fp, data)
            });
            n.appended += data.len() as u64;
            n.stored_bytes += data.len() as u64;
            recipe.chunks.push(ChunkRef {
                fingerprint: fp,
                len: data.len() as u32,
                container: at.container,
                offset: at.offset,
            });
        } else {
            let (method, hash) = cfg.policy.for_app(app);
            let name = chunking_span(method);
            let cdc = cfg.cdc_for(app);
            let mut stream =
                StreamChunker::for_method(data.as_slice(), method, cfg.sc_chunk_size, cdc);
            let mut chunks = Vec::new();
            while let Some(c) = t.span(name, fspan, req, || stream.next()) {
                chunks.push(c.data);
            }
            n.add(name, data.len() as u64);
            if method == ChunkingMethod::Cdc {
                n.cdc_chunks += chunks.len() as u64;
            }
            let hname = hashing_span(hash);
            let mut fps = Vec::with_capacity(chunks.len());
            for bytes in &chunks {
                fps.push(t.span(hname, fspan, req, || Fingerprint::compute(hash, bytes)));
                n.add(hname, bytes.len() as u64);
            }
            for (bytes, fp) in chunks.iter().zip(fps) {
                let found = t.span("index.lookup", fspan, req, || {
                    index.lookup_classified(app, &fp)
                });
                n.lookups += 1;
                let (container, offset) = match found.entry() {
                    Some(e) => {
                        n.hits += 1;
                        n.chunks_duplicate += 1;
                        (e.container, e.offset)
                    }
                    None => {
                        let at = t.span("container.append", fspan, req, || {
                            store.add_chunk(app.tag() as u32, fp, bytes)
                        });
                        n.appended += bytes.len() as u64;
                        let entry = ChunkEntry::new(bytes.len() as u64, at.container, at.offset);
                        t.span("index.insert", fspan, req, || index.insert(app, fp, entry));
                        n.inserts += 1;
                        n.stored_bytes += bytes.len() as u64;
                        (at.container, at.offset)
                    }
                };
                recipe.chunks.push(ChunkRef {
                    fingerprint: fp,
                    len: bytes.len() as u32,
                    container,
                    offset,
                });
            }
        }
        n.chunks_total += recipe.chunks.len() as u64;
        manifest.files.push(recipe);
        t.end(fspan);
    }

    // Commit in the engine's order: containers by id, the manifest, then
    // the index snapshot.
    let mut sealed = t.span("container.seal", root, 0, || {
        store.seal_all();
        store.drain_sealed()
    });
    sealed.sort_by_key(|s| s.id);
    n.sealed_bytes = sealed.iter().map(|s| s.bytes.len() as u64).sum();
    n.payload_bytes = store.stats().data_bytes;
    let upload = t.begin("backup.upload", root, 0);
    let mut put = |t: &mut Tracer, key: String, bytes: Vec<u8>| {
        n.put_requests += 1;
        n.transferred_bytes += bytes.len() as u64;
        t.span("cloud.put", upload, 0, || cloud.put(&key, bytes))
            .map_err(|e| e.to_string())
    };
    for s in sealed {
        put(t, container_key(&cfg.scheme_key, s.id), s.bytes)?;
    }
    let mbytes = t.span("manifest.encode", upload, 0, || manifest.encode());
    put(t, Manifest::key(&cfg.scheme_key, session), mbytes)?;
    if cfg.index_sync_interval > 0 && (session + 1).is_multiple_of(cfg.index_sync_interval as u64) {
        let snap = t.span("index.snapshot", upload, 0, || {
            codec::encode_app_aware(index)
        });
        put(t, format!("{}/index/{session:08}", cfg.scheme_key), snap)?;
    }
    t.end(upload);
    t.end(root);
    n.index_entries = index.len() as u64;
    Ok((root, session))
}

/// Restores the replayed session from `cloud`, byte-checking every file,
/// and returns the root span.
fn replay_restore(
    w: &Workload,
    prep: &Prepared,
    cloud: &CloudSim,
    session: u64,
    t: &mut Tracer,
    n: &mut Counts,
    tally: &mut Tally,
) -> Result<SpanId, String> {
    let scheme = w.config().scheme_key;
    let root = t.begin("restore.session", 0, 0);
    let key = Manifest::key(&scheme, session);
    let raw = t
        .span("cloud.get", root, 0, || cloud.get(&key))
        .map_err(|e| e.to_string())?;
    let raw = raw.0.ok_or_else(|| format!("missing {key}"))?;
    let manifest = t
        .span("restore.manifest_decode", root, 0, || {
            Manifest::decode(&raw)
        })
        .map_err(|e| e.to_string())?;
    let mut containers: HashMap<u64, (ParsedContainer, HashMap<_, _>)> = HashMap::new();
    for c in manifest.files.iter().flat_map(|f| &f.chunks) {
        if containers.contains_key(&c.container) {
            continue;
        }
        let key = container_key(&scheme, c.container);
        let raw = t
            .span("cloud.get", root, 0, || cloud.get(&key))
            .map_err(|e| e.to_string())?;
        let raw = raw.0.ok_or_else(|| format!("missing {key}"))?;
        let parsed = t.span("restore.parse", root, 0, || {
            ParsedContainer::parse(&raw).map(|p| {
                let map = p.descriptor_map();
                (p, map)
            })
        });
        containers.insert(c.container, parsed.map_err(|e| format!("{key}: {e}"))?);
    }
    for (i, (recipe, file)) in manifest.files.iter().zip(&prep.files).enumerate() {
        let req = i as u64 + 1;
        let fspan = t.begin("restore.file", root, req);
        let mut data = Vec::with_capacity(recipe.file_len() as usize);
        let mut intact = true;
        for c in &recipe.chunks {
            let (parsed, map) = &containers[&c.container];
            let Some(d) = map.get(&(c.offset, c.fingerprint)) else {
                intact = false;
                continue;
            };
            let bytes = parsed.chunk_bytes(d);
            let algo = c.fingerprint.algorithm();
            let ok = t.span("restore.verify", fspan, req, || {
                Fingerprint::compute(algo, bytes) == c.fingerprint
            });
            intact &= ok;
            n.verified += bytes.len() as u64;
            t.span("restore.assemble", fspan, req, || {
                data.extend_from_slice(bytes);
            });
            n.assembled += bytes.len() as u64;
        }
        t.end(fspan);
        tally.verify(
            intact && recipe.path == file.path && data == file.data,
            "replayed restore equals its input",
        );
    }
    tally.verify(
        manifest.files.len() == prep.files.len(),
        "replayed restore covers every file",
    );
    t.end(root);
    Ok(root)
}

/// Where the spans of a traced run are written.
fn trace_path(w: &Workload, seed: u64) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-seed{seed}.jsonl", w.name()))
}

/// The traced run: one untraced repetition, the traced replay, the
/// fidelity gate, and the per-layer metrics.
pub fn run(w: &Workload, prep: &Prepared, seed: u64, out: &mut Outcome) {
    let Some(rep) = measure::rep(w, prep, Faults::default(), &mut out.tally) else {
        return;
    };
    let Some((cloud, _store)) = out
        .tally
        .check(prep.repo.cloud(), "copy the starting repository")
    else {
        return;
    };
    let mut t = Tracer::new();
    let mut n = Counts::default();
    let replayed = replay_backup(w, prep, &cloud, &mut t, &mut n).and_then(|(backup, session)| {
        let restore = replay_restore(w, prep, &cloud, session, &mut t, &mut n, &mut out.tally)?;
        Ok((backup, restore))
    });
    let Some((backup, restore)) = out.tally.check(replayed, "traced replay") else {
        return;
    };

    let engine = measure::session_totals(&rep.report);
    let replay = [
        n.chunks_total,
        n.chunks_duplicate,
        n.stored_bytes,
        n.put_requests,
        n.transferred_bytes,
    ];
    let gate = out.tally.verify(
        engine == replay,
        "replay reproduces the engine's session report",
    );
    if gate.is_none() {
        out.tally.errors.push(format!(
            "(chunks, duplicates, stored, puts, transferred): engine {engine:?}, replay {replay:?}"
        ));
        return;
    }

    let path = trace_path(w, seed);
    if out.tally.check(t.write(&path), "write the trace").is_none() {
        return;
    }
    out.context("trace_file", path.display());
    out.context("spans", t.spans.len());
    report_per_layer(w, prep, &rep, &t, &n, (backup, restore), out);
}

fn report_per_layer(
    w: &Workload,
    prep: &Prepared,
    rep: &Rep,
    t: &Tracer,
    n: &Counts,
    (backup, restore): (SpanId, SpanId),
    out: &mut Outcome,
) {
    let own = t.self_seconds();
    let secs = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mib_s = |bytes: u64, name: &str| ratio(bytes as f64 / MIB, secs(name));

    out.metric(
        "filetype.ns_per_file",
        ratio(secs("filetype") * 1e9, n.files as f64),
        "ns",
    );
    out.metric(
        "filetype.tiny_file_share",
        ratio(n.tiny_files as f64, n.files as f64),
        "ratio",
    );
    for (m, name) in [
        ("cdc", "chunking.cdc"),
        ("sc", "chunking.sc"),
        ("wfc", "chunking.wfc"),
    ] {
        out.metric(
            &format!("chunking.{m}.mib_s"),
            mib_s(n.get(name), name),
            "MiB/s",
        );
        out.metric(&format!("chunking.{m}.bytes"), n.get(name) as f64, "B");
    }
    out.metric(
        "chunking.cdc.mean_chunk_kib",
        ratio(n.get("chunking.cdc") as f64 / 1024.0, n.cdc_chunks as f64),
        "KiB",
    );
    for (h, name) in [
        ("sha1", "hashing.sha1"),
        ("md5", "hashing.md5"),
        ("rabin96", "hashing.rabin96"),
    ] {
        out.metric(
            &format!("hashing.{h}.mib_s"),
            mib_s(n.get(name), name),
            "MiB/s",
        );
        out.metric(&format!("hashing.{h}.bytes"), n.get(name) as f64, "B");
    }
    out.metric(
        "index.ns_per_lookup",
        ratio(secs("index.lookup") * 1e9, n.lookups as f64),
        "ns",
    );
    out.metric(
        "index.ns_per_insert",
        ratio(secs("index.insert") * 1e9, n.inserts as f64),
        "ns",
    );
    out.metric(
        "index.hit_ratio",
        ratio(n.hits as f64, n.lookups as f64),
        "ratio",
    );
    out.metric("index.entries", n.index_entries as f64, "count");
    out.metric(
        "container.append_mib_s",
        mib_s(n.appended, "container.append"),
        "MiB/s",
    );
    out.metric(
        "container.fill_ratio",
        ratio(n.payload_bytes as f64, n.sealed_bytes as f64),
        "ratio",
    );
    out.metric(
        "container.buffered_peak_mib",
        n.sealed_bytes as f64 / MIB,
        "MiB",
    );
    out.metric("cloud.puts", rep.cloud.put_requests as f64, "count");
    out.metric("cloud.gets", rep.cloud.get_requests as f64, "count");
    out.metric("cloud.bytes_in", rep.cloud.bytes_in as f64, "B");
    out.metric("cloud.bytes_out", rep.cloud.bytes_out as f64, "B");

    // Everything the backup spent outside the layers' calls: the engine's
    // dataflow, its copies and, with several workers, idle threads.
    let layers: f64 = own
        .iter()
        .filter(|(name, _)| !matches!(**name, "backup.session" | "backup.file" | "backup.upload"))
        .filter(|(name, _)| !name.starts_with("restore.") && **name != "cloud.get")
        .map(|(_, s)| s)
        .sum();
    let capacity = rep.backup.wall_s * w.workers as f64;
    out.metric(
        "engine.unattributed_share",
        1.0 - ratio(layers, capacity),
        "ratio",
    );

    out.metric(
        "restore.manifest_decode_ms",
        secs("restore.manifest_decode") * 1e3,
        "ms",
    );
    let restore_containers = t.spans.iter().filter(|s| s.name == "restore.parse").count() as f64;
    // One of the full restore's GETs fetches the manifest.
    out.metric(
        "restore.gets_per_container",
        ratio(
            rep.restore_gets.saturating_sub(1) as f64,
            restore_containers,
        ),
        "ratio",
    );
    out.metric(
        "restore.read_amplification",
        ratio(rep.restore_bytes_out as f64, prep.source_bytes() as f64),
        "ratio",
    );
    out.metric(
        "restore.verify_mib_s",
        mib_s(n.verified, "restore.verify"),
        "MiB/s",
    );
    out.metric(
        "restore.assemble_mib_s",
        mib_s(n.assembled, "restore.assemble"),
        "MiB/s",
    );

    out.metric("retention.s", rep.retention_s, "s");
    out.metric(
        "vacuum.containers_rewritten",
        rep.vacuum.containers_rewritten as f64,
        "count",
    );
    out.metric(
        "vacuum.reclaimed_fraction",
        ratio(
            rep.vacuum.bytes_reclaimed as f64,
            rep.vacuum.stored_bytes_before as f64,
        ),
        "ratio",
    );
    out.metric(
        "vacuum.read_bytes_per_reclaimed_byte",
        ratio(
            rep.vacuum_bytes_out as f64,
            rep.vacuum.bytes_reclaimed as f64,
        ),
        "ratio",
    );

    out.metric(
        "trace.overhead_backup_s",
        t.seconds(backup) - rep.backup.wall_s,
        "s",
    );
    out.metric(
        "trace.overhead_restore_s",
        t.seconds(restore) - rep.restore.wall_s,
        "s",
    );
}

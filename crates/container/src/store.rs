//! Open-container management, sealing, and garbage collection.
//!
//! "An open chunk container is maintained for each incoming backup data
//! stream, appending each new chunk or tiny file to the open container
//! corresponding to the stream it is part of. When a container fills up
//! with a predefined fixed size, a new one is opened up." (paper §III.F)
//!
//! The [`ContainerStore`] implements exactly that: callers name a stream
//! (AA-Dedupe uses one stream per application type, preserving chunk
//! locality for restores), and the store routes each chunk to that stream's
//! open container, sealing and queueing full containers for upload.
//!
//! Container ids are *per-stream*: id = `stream << STREAM_ID_SHIFT | seq`,
//! with an independent sequence counter per stream ([`compose_id`] /
//! [`decompose_id`]). A stream's container layout therefore depends only
//! on that stream's own append sequence — never on how appends to
//! different streams interleave. This is the property the parallel backup
//! pipeline relies on for determinism: as long as each stream's chunks
//! arrive in a fixed order, the produced containers are byte-identical no
//! matter how many threads feed the store.

use crate::builder::ContainerBuilder;
use crate::format::{encode_container, ChunkDescriptor, ContainerError, ParsedContainer};
use aadedupe_hashing::Fingerprint;
use aadedupe_obs::{Counter, Recorder, Stage};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Bit position splitting a container id into (stream, sequence): the low
/// 40 bits count containers within a stream (over a trillion per stream),
/// the high bits carry the stream id.
pub const STREAM_ID_SHIFT: u32 = 40;

/// Builds a container id from a stream id and that stream's sequence
/// number.
pub fn compose_id(stream: u32, seq: u64) -> u64 {
    debug_assert!(seq < 1 << STREAM_ID_SHIFT, "stream sequence overflow");
    ((stream as u64) << STREAM_ID_SHIFT) | seq
}

/// Splits a container id into (stream, sequence). Ids minted before the
/// per-stream scheme decompose as stream 0, which is harmless: resuming
/// treats them as floor values and new ids never collide with them.
pub fn decompose_id(id: u64) -> (u32, u64) {
    ((id >> STREAM_ID_SHIFT) as u32, id & ((1 << STREAM_ID_SHIFT) - 1))
}

/// A sealed container ready for upload.
#[derive(Debug, Clone)]
pub struct SealedContainer {
    /// Container identifier (matches the id embedded in `bytes`).
    pub id: u64,
    /// Serialized container body (padding is never shipped).
    pub bytes: Vec<u8>,
    /// Notional fixed-slot padding a padded on-disk layout would add.
    pub padding: usize,
    /// Number of chunks inside.
    pub chunks: usize,
}

/// Where a chunk was placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// The container that will hold (or holds) the chunk.
    pub container: u64,
    /// Offset within that container's data section.
    pub offset: u32,
}

/// Cumulative container statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Containers sealed (including oversized dedicated ones).
    pub sealed: u64,
    /// Of which, oversized dedicated single-chunk containers.
    pub oversized: u64,
    /// Total chunk payload bytes written.
    pub data_bytes: u64,
    /// Total padding bytes written.
    pub padding_bytes: u64,
    /// Total chunks placed.
    pub chunks: u64,
}

/// The writer of one container stream: its open container, its id
/// sequence, and the containers it sealed that nobody has taken yet.
///
/// A [`ContainerStore`] keeps one writer per stream and can lend a writer
/// out ([`ContainerStore::lend`]) so another thread appends to that stream
/// alone, then take it back ([`ContainerStore::merge`]). Ids and bytes do
/// not depend on which thread held the writer: they follow only from the
/// stream's own append sequence.
pub struct StreamWriter {
    stream: u32,
    container_size: usize,
    next_seq: u64,
    open: Option<ContainerBuilder>,
    sealed: Vec<SealedContainer>,
    stats: StoreStats,
    recorder: Arc<Recorder>,
}

impl StreamWriter {
    fn new(stream: u32, container_size: usize, next_seq: u64, recorder: Arc<Recorder>) -> Self {
        StreamWriter {
            stream,
            container_size,
            next_seq,
            open: None,
            sealed: Vec::new(),
            stats: StoreStats::default(),
            recorder,
        }
    }

    /// Mints the stream's next container id.
    fn mint_id(&mut self) -> u64 {
        let id = compose_id(self.stream, self.next_seq);
        self.next_seq += 1;
        id
    }

    /// Adds a chunk to the open container, sealing and rolling as needed.
    /// A chunk too large for an empty container gets a dedicated
    /// container, sealed at once and unpadded.
    pub fn add_chunk(&mut self, fp: Fingerprint, chunk: &[u8]) -> Placement {
        let started = self.recorder.start();
        self.recorder.count(Counter::ContainerAppends, 1);
        self.recorder.count(Counter::StoredBytes, chunk.len() as u64);
        self.stats.chunks += 1;
        self.stats.data_bytes += chunk.len() as u64;
        let digest_len = fp.algorithm().digest_len();

        if !ContainerBuilder::fits_empty(self.container_size, chunk.len(), digest_len) {
            // Encoded straight from the caller's slice: a builder would
            // copy the whole chunk once more before sealing.
            let id = self.mint_id();
            let desc = ChunkDescriptor { fingerprint: fp, offset: 0, len: chunk.len() as u32 };
            self.stats.oversized += 1;
            self.push_sealed(id, encode_container(id, &[desc], chunk, None), 0, 1);
            self.recorder.record(Stage::ContainerAppend, started);
            return Placement { container: id, offset: 0 };
        }

        if self.open.as_ref().is_some_and(|b| !b.fits(chunk.len(), digest_len)) {
            self.seal();
        }
        let builder = match self.open.take() {
            Some(b) => b,
            None => ContainerBuilder::new(self.mint_id(), self.container_size),
        };
        let builder = self.open.insert(builder);
        let id = builder.container_id();
        let offset = builder.append(fp, chunk);
        self.recorder.record(Stage::ContainerAppend, started);
        Placement { container: id, offset }
    }

    /// Seals the open container, if it holds anything; the notional slot
    /// fill is accounted in [`StoreStats::padding_bytes`].
    fn seal(&mut self) {
        if let Some(b) = self.open.take() {
            if !b.is_empty() {
                let started = self.recorder.start();
                let (id, chunks) = (b.container_id(), b.chunk_count());
                let (bytes, padding) = b.seal();
                self.push_sealed(id, bytes, padding, chunks);
                self.recorder.record(Stage::ContainerSeal, started);
            }
        }
    }

    fn push_sealed(&mut self, id: u64, bytes: Vec<u8>, padding: usize, chunks: usize) {
        self.stats.sealed += 1;
        self.stats.padding_bytes += padding as u64;
        self.recorder.count(Counter::ContainersSealed, 1);
        self.recorder.count(Counter::SealedBytes, bytes.len() as u64);
        self.sealed.push(SealedContainer { id, bytes, padding, chunks });
    }

    /// Takes the containers sealed since the last drain, in seal order.
    pub fn drain_sealed(&mut self) -> Vec<SealedContainer> {
        std::mem::take(&mut self.sealed)
    }
}

/// Manages one [`StreamWriter`] per stream plus the sealed-output queue.
pub struct ContainerStore {
    container_size: usize,
    /// Floor applied to every stream's sequence, covering namespaces whose
    /// existing ids predate the per-stream scheme.
    seq_floor: u64,
    streams: BTreeMap<u32, StreamWriter>,
    /// Containers sealed through the store's own methods, in seal order.
    sealed: Vec<SealedContainer>,
    recorder: Arc<Recorder>,
}

impl ContainerStore {
    /// Store producing containers of the given fixed size.
    pub fn new(container_size: usize) -> Self {
        ContainerStore {
            container_size,
            seq_floor: 0,
            streams: BTreeMap::new(),
            sealed: Vec::new(),
            recorder: Recorder::shared_disabled(),
        }
    }

    /// Routes this store's append/seal observations to `recorder`.
    pub fn set_recorder(&mut self, recorder: Arc<Recorder>) {
        for w in self.streams.values_mut() {
            w.recorder = Arc::clone(&recorder);
        }
        self.recorder = recorder;
    }

    /// The fixed container size.
    pub fn container_size(&self) -> usize {
        self.container_size
    }

    /// Ensures every stream's future sequence numbers start at or after
    /// `next_seq` — used when resuming over a namespace holding containers
    /// whose ids don't carry a stream part (ids must never be reused, or
    /// uploads would clobber live objects).
    pub fn resume_ids_from(&mut self, next_seq: u64) {
        self.seq_floor = self.seq_floor.max(next_seq);
        for w in self.streams.values_mut() {
            w.next_seq = w.next_seq.max(next_seq);
        }
    }

    /// Ensures `stream`'s future sequence numbers start at or after
    /// `next_seq` — the per-stream resume used after decomposing existing
    /// container ids with [`decompose_id`].
    pub fn resume_stream_ids(&mut self, stream: u32, next_seq: u64) {
        let w = self.writer_mut(stream);
        w.next_seq = w.next_seq.max(next_seq);
    }

    /// Mints a fresh container id for `stream` without opening a builder —
    /// the naming hook for compaction: vacuum needs ids for rewritten
    /// containers that stay monotonic and can never collide with ids a
    /// later backup session mints from the same store.
    pub fn mint_container_id(&mut self, stream: u32) -> u64 {
        self.writer_mut(stream).mint_id()
    }

    /// `stream`'s writer, created on first use.
    pub fn writer_mut(&mut self, stream: u32) -> &mut StreamWriter {
        let (size, floor, recorder) = (self.container_size, self.seq_floor, &self.recorder);
        self.streams
            .entry(stream)
            .or_insert_with(|| StreamWriter::new(stream, size, floor, Arc::clone(recorder)))
    }

    /// Lends `stream`'s writer out, so one other thread can own the stream
    /// until [`merge`](Self::merge) takes it back. While it is out, the
    /// store knows nothing of the stream: callers must not append to it
    /// through the store.
    pub fn lend(&mut self, stream: u32) -> StreamWriter {
        match self.streams.remove(&stream) {
            Some(w) => w,
            None => StreamWriter::new(
                stream,
                self.container_size,
                self.seq_floor,
                Arc::clone(&self.recorder),
            ),
        }
    }

    /// Takes a lent writer back, queueing any containers it sealed and
    /// nobody drained.
    pub fn merge(&mut self, mut writer: StreamWriter) {
        self.sealed.append(&mut writer.sealed);
        self.streams.insert(writer.stream, writer);
    }

    /// Adds a chunk to `stream`'s open container, sealing/rolling as
    /// needed. Oversized chunks get a dedicated container sealed
    /// immediately.
    pub fn add_chunk(&mut self, stream: u32, fp: Fingerprint, chunk: &[u8]) -> Placement {
        let w = self.writer_mut(stream);
        let placement = w.add_chunk(fp, chunk);
        let mut sealed = w.drain_sealed();
        self.sealed.append(&mut sealed);
        placement
    }

    /// Seals `stream`'s open container (if any); the notional slot fill
    /// is accounted in [`StoreStats::padding_bytes`].
    pub fn seal_stream(&mut self, stream: u32) {
        if let Some(w) = self.streams.get_mut(&stream) {
            w.seal();
            self.sealed.append(&mut w.sealed);
        }
    }

    /// Seals every open container (end of a backup session), in stream
    /// order.
    pub fn seal_all(&mut self) {
        for w in self.streams.values_mut() {
            w.seal();
            self.sealed.append(&mut w.sealed);
        }
    }

    /// Takes the queue of sealed containers (ready for upload).
    pub fn drain_sealed(&mut self) -> Vec<SealedContainer> {
        std::mem::take(&mut self.sealed)
    }

    /// Sealed containers waiting to be drained.
    pub fn pending(&self) -> usize {
        self.sealed.len() + self.streams.values().map(|w| w.sealed.len()).sum::<usize>()
    }

    /// Statistics snapshot, summed over the streams the store holds.
    pub fn stats(&self) -> StoreStats {
        let mut total = StoreStats::default();
        for s in self.streams.values().map(|w| w.stats) {
            total.sealed += s.sealed;
            total.oversized += s.oversized;
            total.data_bytes += s.data_bytes;
            total.padding_bytes += s.padding_bytes;
            total.chunks += s.chunks;
        }
        total
    }
}

/// A compacted container: its rewritten bytes plus the surviving chunks'
/// new placements.
pub type CompactedContainer = (Vec<u8>, Vec<(Fingerprint, Placement)>);

/// Rewrites a container, keeping only chunks for which `live` returns true
/// — the background deletion process of paper §III.F.
///
/// Returns `None` when nothing survives (the container can simply be
/// deleted), otherwise the rewritten container bytes (under `new_id`)
/// plus the surviving chunks' new placements.
pub fn compact_container(
    parsed: &ParsedContainer,
    live: &dyn Fn(&Fingerprint) -> bool,
    new_id: u64,
    container_size: usize,
) -> Option<CompactedContainer> {
    let survivors: Vec<&ChunkDescriptor> = parsed
        .descriptors
        .iter()
        .filter(|d| live(&d.fingerprint))
        .collect();
    if survivors.is_empty() {
        return None;
    }
    // Survivors are a subset of a container that fit `container_size`
    // before, so they always fit the rewritten container (an oversized
    // original has exactly one chunk, which an empty builder accepts).
    let mut b = ContainerBuilder::new(new_id, container_size);
    let mut moves = Vec::with_capacity(survivors.len());
    for d in survivors {
        let offset = b.append(d.fingerprint, parsed.chunk_bytes(d));
        moves.push((d.fingerprint, Placement { container: new_id, offset }));
    }
    let (bytes, _padding) = b.seal();
    Some((bytes, moves))
}

/// Convenience: parse-then-compact, surfacing parse errors.
pub fn compact_container_bytes(
    raw: &[u8],
    live: &dyn Fn(&Fingerprint) -> bool,
    new_id: u64,
    container_size: usize,
) -> Result<Option<CompactedContainer>, ContainerError> {
    let parsed = ParsedContainer::parse(raw)?;
    Ok(compact_container(&parsed, live, new_id, container_size))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aadedupe_hashing::HashAlgorithm;

    fn fp(data: &[u8]) -> Fingerprint {
        Fingerprint::compute(HashAlgorithm::Sha1, data)
    }

    #[test]
    fn fills_and_rolls_containers() {
        let mut store = ContainerStore::new(4096);
        let chunk = vec![3u8; 1000];
        let mut placements = Vec::new();
        for _ in 0..10 {
            placements.push(store.add_chunk(0, fp(&chunk), &chunk));
        }
        store.seal_all();
        let sealed = store.drain_sealed();
        assert!(sealed.len() >= 3, "10 KB of chunks in 4 KiB containers");
        // Every placement must resolve inside its sealed container.
        for p in &placements {
            let sc = sealed.iter().find(|s| s.id == p.container).expect("container sealed");
            let parsed = ParsedContainer::parse(&sc.bytes).unwrap();
            let d = parsed
                .descriptors
                .iter()
                .find(|d| d.offset == p.offset)
                .expect("offset present");
            assert_eq!(parsed.chunk_bytes(d), &chunk[..]);
        }
    }

    #[test]
    fn streams_are_isolated() {
        let mut store = ContainerStore::new(4096);
        let a = store.add_chunk(1, fp(b"stream-a"), b"stream-a");
        let b = store.add_chunk(2, fp(b"stream-b"), b"stream-b");
        assert_ne!(a.container, b.container, "distinct streams use distinct containers");
        store.seal_all();
        assert_eq!(store.drain_sealed().len(), 2);
    }

    #[test]
    fn oversized_chunk_gets_dedicated_container() {
        let mut store = ContainerStore::new(1024);
        store.add_chunk(0, fp(b"small"), b"small");
        let big = vec![9u8; 5000];
        let p = store.add_chunk(0, fp(&big), &big);
        // The dedicated container is sealed immediately.
        assert_eq!(store.pending(), 1);
        let sealed = store.drain_sealed();
        assert_eq!(sealed[0].id, p.container);
        assert_eq!(sealed[0].padding, 0, "oversized container unpadded");
        assert_eq!(store.stats().oversized, 1);
        // The small chunk's container is still open.
        store.seal_all();
        assert_eq!(store.drain_sealed().len(), 1);
    }

    #[test]
    fn padding_accounted() {
        let mut store = ContainerStore::new(4096);
        store.add_chunk(0, fp(b"x"), b"x");
        store.seal_all();
        let sealed = store.drain_sealed();
        assert!(sealed[0].bytes.len() < 100, "only header + descriptor + 1 byte shipped");
        assert!(sealed[0].padding > 4000, "the notional slot fill is accounted");
        assert_eq!(store.stats().padding_bytes, sealed[0].padding as u64);
    }

    #[test]
    fn sealing_empty_stream_is_noop() {
        let mut store = ContainerStore::new(4096);
        store.seal_stream(7);
        store.seal_all();
        assert_eq!(store.pending(), 0);
        assert_eq!(store.stats().sealed, 0);
    }

    #[test]
    fn resume_ids_skips_used_range() {
        let mut store = ContainerStore::new(4096);
        store.resume_ids_from(100);
        let p = store.add_chunk(0, fp(b"x"), b"x");
        assert!(p.container >= 100);
        // Resuming backwards never lowers the counter.
        store.resume_ids_from(5);
        let q = store.add_chunk(1, fp(b"y"), b"y");
        assert!(q.container > p.container);
    }

    #[test]
    fn container_ids_unique_and_monotonic() {
        let mut store = ContainerStore::new(1024);
        let big = vec![1u8; 4000];
        let p1 = store.add_chunk(0, fp(&big), &big);
        let p2 = store.add_chunk(0, fp(b"s"), b"s");
        let p3 = store.add_chunk(1, fp(b"t"), b"t");
        let mut ids = vec![p1.container, p2.container, p3.container];
        ids.dedup();
        assert_eq!(ids.len(), 3);
    }

    #[test]
    fn compaction_drops_dead_chunks() {
        let mut store = ContainerStore::new(8192);
        let keep = b"keep me".to_vec();
        let drop_ = b"drop me".to_vec();
        store.add_chunk(0, fp(&keep), &keep);
        store.add_chunk(0, fp(&drop_), &drop_);
        store.seal_all();
        let sealed = store.drain_sealed();
        let keep_fp = fp(&keep);
        let (bytes, moves) =
            compact_container_bytes(&sealed[0].bytes, &|f| *f == keep_fp, 99, 8192)
                .unwrap()
                .expect("one survivor");
        assert_eq!(moves.len(), 1);
        assert_eq!(moves[0].0, keep_fp);
        let parsed = ParsedContainer::parse(&bytes).unwrap();
        assert_eq!(parsed.container_id, 99);
        assert_eq!(parsed.descriptors.len(), 1);
        assert_eq!(parsed.find(&keep_fp).unwrap(), &keep[..]);
        parsed.verify().unwrap();
    }

    #[test]
    fn compaction_of_fully_dead_container_returns_none() {
        let mut store = ContainerStore::new(4096);
        store.add_chunk(0, fp(b"doomed"), b"doomed");
        store.seal_all();
        let sealed = store.drain_sealed();
        let r = compact_container_bytes(&sealed[0].bytes, &|_| false, 1, 4096).unwrap();
        assert!(r.is_none());
    }

    #[test]
    fn ids_compose_and_decompose() {
        for (stream, seq) in [(0u32, 0u64), (1, 0), (13, 7), (0, (1 << 40) - 1), (255, 12345)] {
            let id = compose_id(stream, seq);
            assert_eq!(decompose_id(id), (stream, seq));
        }
        // Legacy small ids decompose as stream 0.
        assert_eq!(decompose_id(42), (0, 42));
    }

    #[test]
    fn stream_layout_independent_of_interleaving() {
        // The determinism contract: a stream's sealed containers depend
        // only on that stream's own append sequence, not on how appends
        // to other streams interleave with it.
        let chunks_a: Vec<Vec<u8>> = (0..9u8).map(|i| vec![i; 900]).collect();
        let chunks_b: Vec<Vec<u8>> = (0..9u8).map(|i| vec![i ^ 0x55; 700]).collect();

        let run = |interleave: bool| -> Vec<(u64, Vec<u8>)> {
            let mut store = ContainerStore::new(2048);
            if interleave {
                for (a, b) in chunks_a.iter().zip(&chunks_b) {
                    store.add_chunk(1, fp(a), a);
                    store.add_chunk(2, fp(b), b);
                }
            } else {
                for b in &chunks_b {
                    store.add_chunk(2, fp(b), b);
                }
                for a in &chunks_a {
                    store.add_chunk(1, fp(a), a);
                }
            }
            store.seal_all();
            let mut sealed: Vec<(u64, Vec<u8>)> =
                store.drain_sealed().into_iter().map(|s| (s.id, s.bytes)).collect();
            sealed.sort_by_key(|(id, _)| *id);
            sealed
        };
        assert_eq!(run(true), run(false), "sealed containers are order-independent");
    }

    #[test]
    fn lent_writer_produces_what_the_store_would() {
        let chunks: Vec<Vec<u8>> = (0..12u8).map(|i| vec![i; 700 + 90 * i as usize]).collect();
        let mut direct = ContainerStore::new(2048);
        direct.resume_stream_ids(5, 3);
        for c in &chunks {
            direct.add_chunk(5, fp(c), c);
        }
        direct.seal_all();

        let mut lending = ContainerStore::new(2048);
        lending.resume_stream_ids(5, 3);
        let mut writer = lending.lend(5);
        let mut sealed = Vec::new();
        for (i, c) in chunks.iter().enumerate() {
            writer.add_chunk(fp(c), c);
            if i == 6 {
                sealed.extend(writer.drain_sealed());
            }
        }
        // Sealed but not drained: the store takes those over on merge.
        lending.merge(writer);
        lending.seal_all();
        sealed.extend(lending.drain_sealed());

        let bytes = |v: Vec<SealedContainer>| -> Vec<(u64, Vec<u8>)> {
            v.into_iter().map(|s| (s.id, s.bytes)).collect()
        };
        assert_eq!(bytes(sealed), bytes(direct.drain_sealed()));
        assert_eq!(lending.stats(), direct.stats());
        // The merged writer continues the stream's sequence.
        assert_eq!(lending.mint_container_id(5), direct.mint_container_id(5));
    }

    #[test]
    fn per_stream_resume_is_independent() {
        let mut store = ContainerStore::new(4096);
        store.resume_stream_ids(3, 17);
        let p3 = store.add_chunk(3, fp(b"c"), b"c");
        let p4 = store.add_chunk(4, fp(b"d"), b"d");
        assert_eq!(decompose_id(p3.container), (3, 17));
        assert_eq!(decompose_id(p4.container), (4, 0), "other streams unaffected");
    }

    #[test]
    fn minted_ids_interleave_with_appends_without_collision() {
        let mut store = ContainerStore::new(4096);
        let m1 = store.mint_container_id(2);
        let p = store.add_chunk(2, fp(b"x"), b"x");
        let m2 = store.mint_container_id(2);
        assert_eq!(decompose_id(m1), (2, 0));
        assert_eq!(decompose_id(p.container), (2, 1));
        assert_eq!(decompose_id(m2), (2, 2));
    }

    #[test]
    fn stats_track_everything() {
        let mut store = ContainerStore::new(2048);
        for i in 0..5u8 {
            let c = vec![i; 300];
            store.add_chunk(0, fp(&c), &c);
        }
        store.seal_all();
        let s = store.stats();
        assert_eq!(s.chunks, 5);
        assert_eq!(s.data_bytes, 1500);
        assert!(s.sealed >= 1);
    }
}

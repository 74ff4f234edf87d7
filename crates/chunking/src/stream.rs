//! Streaming chunking over `std::io::Read`, and span chunking over a
//! buffer already in memory.
//!
//! The slice-based [`Chunker`](crate::Chunker) API requires the whole file
//! in memory; fine for PC-scale files, but VM disk images (the paper's
//! biggest category) can exceed RAM. [`StreamChunker`] produces the same
//! chunks incrementally with bounded memory: an internal buffer of at most
//! `2 × max_chunk` bytes (one [`WFC_MAX_CHUNK`] for WFC), refilled as
//! chunks are emitted. [`SpanChunker`] cuts the same boundaries over a
//! buffer the caller already holds and yields spans, copying nothing.
//!
//! Both cut with one function, so they agree by construction. Equivalence
//! with the batch API is guaranteed by construction for SC and WFC and
//! tested exhaustively for CDC (boundaries depend only on a 48-byte
//! window, which never spans the buffer seam thanks to the carry-over
//! logic). A WFC cut falls at every exact multiple of [`WFC_MAX_CHUNK`],
//! however the reader splits its reads.

use std::io::Read;

use aadedupe_obs::{Counter, Recorder, Stage};

use crate::{
    CdcChunker, ChunkSpan, ChunkingMethod, ContentChunker, FastCdcChunker, ScChunker,
    WFC_MAX_CHUNK,
};

/// A chunk produced by streaming: its bytes plus global offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamedChunk {
    /// Offset of the chunk within the overall stream.
    pub offset: u64,
    /// The chunk's bytes (owned; the stream buffer has moved on).
    pub data: Vec<u8>,
    /// Strategy that produced the chunk.
    pub method: ChunkingMethod,
}

/// Incremental chunker over a byte stream.
pub struct StreamChunker<R: Read> {
    reader: R,
    method: Method,
    buf: Vec<u8>,
    /// Global offset of `buf[0]`.
    base: u64,
    eof: bool,
    err: Option<std::io::Error>,
}

enum Method {
    Wfc,
    Sc(ScChunker),
    // Boxed: the Rabin variant embeds its 4 KiB roll table.
    Cdc(Box<ContentChunker>),
}

impl Method {
    fn for_method(method: ChunkingMethod, sc_chunk_size: usize, cdc: crate::CdcParams) -> Self {
        match method {
            ChunkingMethod::Wfc => Method::Wfc,
            ChunkingMethod::Sc => Method::Sc(ScChunker::new(sc_chunk_size)),
            ChunkingMethod::Cdc => Method::Cdc(Box::new(ContentChunker::new(cdc))),
        }
    }

    /// How many bytes must be visible before a cut is final without
    /// seeing EOF.
    fn lookahead(&self) -> usize {
        match self {
            Method::Wfc => WFC_MAX_CHUNK,
            Method::Sc(sc) => sc.chunk_size(),
            // CDC boundaries within the first max_size bytes are final
            // once max_size bytes are visible.
            Method::Cdc(cdc) => cdc.params().max_size,
        }
    }

    /// The first chunk of `rest`, a non-empty remainder of the stream
    /// holding at least [`Self::lookahead`] bytes or reaching EOF.
    fn cut(&self, rest: &[u8]) -> (usize, ChunkingMethod) {
        let visible = rest.len().min(self.lookahead());
        match self {
            Method::Wfc => (visible, ChunkingMethod::Wfc),
            Method::Sc(_) => (visible, ChunkingMethod::Sc),
            // Both CDC algorithms decide each cut from the current chunk's
            // bytes alone (Rabin re-primes its window, the gear hash
            // restarts at zero), never from bytes past max_size.
            // aalint: allow(panic-path) -- visible is clamped to rest.len() above
            Method::Cdc(cdc) => (cdc.first_cut(&rest[..visible]), ChunkingMethod::Cdc),
        }
    }
}

/// Chunk spans over a buffer already in memory: exactly the boundaries
/// [`StreamChunker`] emits for the same bytes, with no byte copied.
pub struct SpanChunker<'a> {
    data: &'a [u8],
    offset: usize,
    method: Method,
    recorder: Option<&'a Recorder>,
}

impl<'a> SpanChunker<'a> {
    /// Span chunker for any [`ChunkingMethod`], built from the method's
    /// parameters like [`StreamChunker::for_method`].
    pub fn for_method(
        data: &'a [u8],
        method: ChunkingMethod,
        sc_chunk_size: usize,
        cdc: crate::CdcParams,
    ) -> Self {
        let method = Method::for_method(method, sc_chunk_size, cdc);
        SpanChunker { data, offset: 0, method, recorder: None }
    }

    /// Times every cut into the recorder's `chunk` stage and counts the
    /// chunks by method and their bytes. A disabled recorder reduces each
    /// observation to one atomic load.
    pub fn instrumented(self, recorder: &'a Recorder) -> Self {
        SpanChunker { recorder: Some(recorder), ..self }
    }
}

impl Iterator for SpanChunker<'_> {
    type Item = ChunkSpan;

    fn next(&mut self) -> Option<ChunkSpan> {
        let started = self.recorder.and_then(Recorder::start);
        let rest = self.data.get(self.offset..).filter(|r| !r.is_empty())?;
        let (len, method) = self.method.cut(rest);
        if let Some(rec) = self.recorder {
            rec.record(Stage::Chunk, started);
            let by_method = match method {
                ChunkingMethod::Cdc => Counter::ChunksCdc,
                ChunkingMethod::Sc => Counter::ChunksSc,
                ChunkingMethod::Wfc => Counter::ChunksWfc,
            };
            rec.count(by_method, 1);
            rec.count(Counter::ChunkBytes, len as u64);
        }
        let span = ChunkSpan { offset: self.offset, len, method };
        self.offset += len;
        Some(span)
    }
}

impl<R: Read> StreamChunker<R> {
    /// Whole-file streaming: one chunk per file, cut at every exact
    /// multiple of [`WFC_MAX_CHUNK`].
    pub fn wfc(reader: R) -> Self {
        Self::new(reader, Method::Wfc)
    }

    /// Fixed-size streaming.
    pub fn sc(reader: R, chunker: ScChunker) -> Self {
        Self::new(reader, Method::Sc(chunker))
    }

    /// Content-defined streaming with Rabin boundaries (the historical
    /// entry point; [`StreamChunker::content`] takes either algorithm).
    pub fn cdc(reader: R, chunker: CdcChunker) -> Self {
        Self::content(reader, ContentChunker::Rabin(Box::new(chunker)))
    }

    /// Content-defined streaming with gear-hash FastCDC boundaries.
    pub fn fastcdc(reader: R, chunker: FastCdcChunker) -> Self {
        Self::content(reader, ContentChunker::FastCdc(chunker))
    }

    /// Content-defined streaming with whichever boundary algorithm the
    /// chunker was built for.
    pub fn content(reader: R, chunker: ContentChunker) -> Self {
        Self::new(reader, Method::Cdc(Box::new(chunker)))
    }

    /// Streaming chunker for any [`ChunkingMethod`], constructed from the
    /// method's parameters — the entry point the parallel backup pipeline
    /// uses so every worker thread builds its own chunker (the type is
    /// `Send`; see the `stream_chunker_is_send` test). For CDC, the
    /// boundary algorithm comes from `cdc.algorithm`.
    pub fn for_method(
        reader: R,
        method: ChunkingMethod,
        sc_chunk_size: usize,
        cdc: crate::CdcParams,
    ) -> Self {
        Self::new(reader, Method::for_method(method, sc_chunk_size, cdc))
    }

    fn new(reader: R, method: Method) -> Self {
        StreamChunker { reader, method, buf: Vec::new(), base: 0, eof: false, err: None }
    }

    /// Takes the I/O error that terminated the stream, if any.
    pub fn io_error(&mut self) -> Option<std::io::Error> {
        self.err.take()
    }

    fn fill(&mut self) {
        // Twice the lookahead amortises refills; WFC only ever needs one
        // whole chunk, so its buffer stops at exactly the cap.
        let target = match self.method {
            Method::Wfc => WFC_MAX_CHUNK,
            _ => self.method.lookahead().saturating_mul(2),
        };
        let mut scratch = [0u8; 64 * 1024];
        while !self.eof && self.buf.len() < target {
            let want = (target - self.buf.len()).min(scratch.len());
            // aalint: allow(panic-path) -- want is clamped to scratch.len() above
            match self.reader.read(&mut scratch[..want]) {
                Ok(0) => self.eof = true,
                // aalint: allow(panic-path) -- Read contract: a conforming reader returns n <= scratch.len()
                Ok(n) => self.buf.extend_from_slice(&scratch[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.err = Some(e);
                    self.eof = true;
                }
            }
        }
    }

    fn emit(&mut self, len: usize, method: ChunkingMethod) -> StreamedChunk {
        let data: Vec<u8> = self.buf.drain(..len).collect();
        let chunk = StreamedChunk { offset: self.base, data, method };
        self.base += len as u64;
        chunk
    }

}

impl<R: Read> Iterator for StreamChunker<R> {
    type Item = StreamedChunk;

    fn next(&mut self) -> Option<StreamedChunk> {
        self.fill();
        if self.buf.is_empty() {
            return None;
        }
        let (len, method) = self.method.cut(&self.buf);
        Some(self.emit(len, method))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CdcParams, Chunker, WfcChunker, DEFAULT_CDC, DEFAULT_FASTCDC};

    fn pseudo_random(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    fn collect_stream(s: impl Iterator<Item = StreamedChunk>) -> (Vec<u8>, Vec<usize>) {
        let mut data = Vec::new();
        let mut lens = Vec::new();
        for c in s {
            assert_eq!(c.offset as usize, data.len(), "offsets are contiguous");
            data.extend_from_slice(&c.data);
            lens.push(c.data.len());
        }
        (data, lens)
    }

    #[test]
    fn sc_stream_matches_batch() {
        let data = pseudo_random(100_000, 1);
        let sc = ScChunker::new(8192);
        let batch: Vec<usize> = sc.chunk(&data).iter().map(|s| s.len).collect();
        let (reassembled, lens) = collect_stream(StreamChunker::sc(&data[..], sc));
        assert_eq!(reassembled, data);
        assert_eq!(lens, batch);
    }

    #[test]
    fn cdc_stream_matches_batch() {
        for (len, seed) in [(0usize, 2u64), (100, 3), (2048, 4), (50_000, 5), (400_000, 6)] {
            let data = pseudo_random(len, seed);
            let cdc = CdcChunker::default();
            let batch: Vec<usize> = cdc.chunk(&data).iter().map(|s| s.len).collect();
            let (reassembled, lens) =
                collect_stream(StreamChunker::cdc(&data[..], CdcChunker::default()));
            assert_eq!(reassembled, data, "len={len}");
            assert_eq!(lens, batch, "len={len}");
        }
    }

    #[test]
    fn cdc_stream_matches_batch_custom_params() {
        let params =
            CdcParams { min_size: 256, avg_size: 1024, max_size: 4096, window: 48, ..DEFAULT_CDC };
        let data = pseudo_random(150_000, 9);
        let batch: Vec<usize> =
            CdcChunker::new(params).chunk(&data).iter().map(|s| s.len).collect();
        let (reassembled, lens) =
            collect_stream(StreamChunker::cdc(&data[..], CdcChunker::new(params)));
        assert_eq!(reassembled, data);
        assert_eq!(lens, batch);
    }

    #[test]
    fn fastcdc_stream_matches_batch() {
        for (len, seed) in [(0usize, 2u64), (100, 3), (2048, 4), (50_000, 5), (400_000, 6)] {
            let data = pseudo_random(len, seed);
            let fast = FastCdcChunker::default();
            let batch: Vec<usize> = fast.chunk(&data).iter().map(|s| s.len).collect();
            let (reassembled, lens) =
                collect_stream(StreamChunker::fastcdc(&data[..], FastCdcChunker::default()));
            assert_eq!(reassembled, data, "len={len}");
            assert_eq!(lens, batch, "len={len}");
        }
    }

    #[test]
    fn fastcdc_stream_matches_batch_custom_params() {
        let params = CdcParams {
            min_size: 256,
            avg_size: 1024,
            max_size: 4096,
            ..DEFAULT_FASTCDC
        };
        let data = pseudo_random(150_000, 9);
        let batch: Vec<usize> =
            FastCdcChunker::new(params).chunk(&data).iter().map(|s| s.len).collect();
        let (reassembled, lens) =
            collect_stream(StreamChunker::content(&data[..], ContentChunker::new(params)));
        assert_eq!(reassembled, data);
        assert_eq!(lens, batch);
    }

    #[test]
    fn for_method_honours_cdc_algorithm() {
        // The same data must chunk differently under the two algorithms
        // (they are different hash families), and for_method must route
        // by the params' algorithm tag.
        let data = pseudo_random(300_000, 33);
        let rabin: Vec<usize> =
            StreamChunker::for_method(&data[..], ChunkingMethod::Cdc, 8192, DEFAULT_CDC)
                .map(|c| c.data.len())
                .collect();
        let fast: Vec<usize> =
            StreamChunker::for_method(&data[..], ChunkingMethod::Cdc, 8192, DEFAULT_FASTCDC)
                .map(|c| c.data.len())
                .collect();
        let direct_fast: Vec<usize> = StreamChunker::fastcdc(&data[..], FastCdcChunker::default())
            .map(|c| c.data.len())
            .collect();
        assert_eq!(fast, direct_fast);
        assert_ne!(rabin, fast, "algorithms unexpectedly produced identical cut sequences");
        assert_eq!(rabin.iter().sum::<usize>(), data.len());
        assert_eq!(fast.iter().sum::<usize>(), data.len());
    }

    #[test]
    fn wfc_stream_single_chunk() {
        let data = pseudo_random(123_456, 7);
        let batch = WfcChunker::new().chunk(&data);
        let chunks: Vec<StreamedChunk> = StreamChunker::wfc(&data[..]).collect();
        assert_eq!(chunks.len(), batch.len());
        assert_eq!(chunks[0].data, data);
        assert_eq!(chunks[0].method, ChunkingMethod::Wfc);
    }

    /// A reader that hands out its bytes in irregular short reads.
    struct Choppy<'a> {
        data: &'a [u8],
        reads: usize,
    }

    impl Read for Choppy<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            const SIZES: [usize; 5] = [1, 4093, 777, 65_536, 30_001];
            self.reads += 1;
            let n = buf.len().min(SIZES[self.reads % SIZES.len()]).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn wfc_cuts_at_exact_multiples_of_the_cap() {
        let data = pseudo_random(WFC_MAX_CHUNK + 1, 64);
        for (len, expect) in [
            (WFC_MAX_CHUNK - 1, vec![WFC_MAX_CHUNK - 1]),
            (WFC_MAX_CHUNK, vec![WFC_MAX_CHUNK]),
            (WFC_MAX_CHUNK + 1, vec![WFC_MAX_CHUNK, 1]),
        ] {
            let file = &data[..len];
            let batch: Vec<usize> = WfcChunker::new().chunk(file).iter().map(|s| s.len).collect();
            assert_eq!(batch, expect, "batch, len={len}");
            let spans: Vec<usize> =
                SpanChunker::for_method(file, ChunkingMethod::Wfc, 8192, DEFAULT_CDC)
                    .map(|s| s.len)
                    .collect();
            assert_eq!(spans, expect, "spans, len={len}");
            let mut offset = 0;
            let mut lens = Vec::new();
            for c in StreamChunker::wfc(Choppy { data: file, reads: 0 }) {
                assert_eq!(c.offset as usize, offset, "len={len}");
                assert!(c.data == file[offset..offset + c.data.len()], "len={len}");
                offset += c.data.len();
                lens.push(c.data.len());
            }
            assert_eq!(lens, expect, "choppy stream, len={len}");
        }
    }

    #[test]
    fn span_chunker_matches_stream_for_every_method() {
        let data = pseudo_random(300_000, 41);
        for cdc in [DEFAULT_CDC, DEFAULT_FASTCDC] {
            for method in [ChunkingMethod::Wfc, ChunkingMethod::Sc, ChunkingMethod::Cdc] {
                let stream: Vec<(u64, usize)> =
                    StreamChunker::for_method(Choppy { data: &data, reads: 0 }, method, 8192, cdc)
                        .map(|c| (c.offset, c.data.len()))
                        .collect();
                let spans: Vec<(u64, usize)> = SpanChunker::for_method(&data, method, 8192, cdc)
                    .map(|s| (s.offset as u64, s.len))
                    .collect();
                assert_eq!(spans, stream, "{method:?} {:?}", cdc.algorithm);
            }
        }
        assert_eq!(SpanChunker::for_method(&[], ChunkingMethod::Cdc, 8192, DEFAULT_CDC).count(), 0);
    }

    #[test]
    fn empty_stream_yields_nothing() {
        assert_eq!(StreamChunker::wfc(&b""[..]).count(), 0);
        assert_eq!(StreamChunker::sc(&b""[..], ScChunker::new(8192)).count(), 0);
        assert_eq!(StreamChunker::cdc(&b""[..], CdcChunker::default()).count(), 0);
    }

    #[test]
    fn io_errors_surface() {
        struct Failing(usize);
        impl Read for Failing {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.0 == 0 {
                    Err(std::io::Error::other("disk on fire"))
                } else {
                    let n = buf.len().min(self.0);
                    self.0 -= n;
                    buf[..n].fill(7);
                    Ok(n)
                }
            }
        }
        let mut s = StreamChunker::cdc(Failing(10_000), CdcChunker::default());
        let consumed: usize = s.by_ref().map(|c| c.data.len()).sum();
        assert_eq!(consumed, 10_000, "bytes before the error still chunk");
        assert!(s.io_error().is_some());
    }

    #[test]
    fn stream_chunker_is_send() {
        // The parallel pipeline moves chunkers into worker threads; a
        // non-Send field sneaking into StreamChunker must fail this build.
        fn assert_send<T: Send>() {}
        assert_send::<StreamChunker<std::io::Cursor<Vec<u8>>>>();
        assert_send::<StreamChunker<&[u8]>>();
    }

    #[test]
    fn for_method_matches_dedicated_constructors() {
        let data = pseudo_random(120_000, 21);
        for method in [ChunkingMethod::Wfc, ChunkingMethod::Sc, ChunkingMethod::Cdc] {
            let via_for_method: Vec<usize> =
                StreamChunker::for_method(&data[..], method, 8192, DEFAULT_CDC)
                    .map(|c| c.data.len())
                    .collect();
            let direct: Vec<usize> = match method {
                ChunkingMethod::Wfc => {
                    StreamChunker::wfc(&data[..]).map(|c| c.data.len()).collect()
                }
                ChunkingMethod::Sc => StreamChunker::sc(&data[..], ScChunker::new(8192))
                    .map(|c| c.data.len())
                    .collect(),
                ChunkingMethod::Cdc => {
                    StreamChunker::cdc(&data[..], CdcChunker::new(DEFAULT_CDC))
                        .map(|c| c.data.len())
                        .collect()
                }
            };
            assert_eq!(via_for_method, direct, "{method:?}");
        }
    }

    #[test]
    fn default_cdc_params_used() {
        // Sanity: the streaming path respects min/max bounds.
        let data = pseudo_random(300_000, 11);
        let chunks: Vec<StreamedChunk> =
            StreamChunker::cdc(&data[..], CdcChunker::default()).collect();
        for (i, c) in chunks.iter().enumerate() {
            assert!(c.data.len() <= DEFAULT_CDC.max_size);
            if i + 1 < chunks.len() {
                assert!(c.data.len() >= DEFAULT_CDC.min_size);
            }
        }
    }
}

//! Whole File Chunking (WFC).
//!
//! The degenerate chunking strategy: the entire file is a single chunk
//! (up to [`WFC_MAX_CHUNK`]).
//! AA-Dedupe applies it to *compressed* applications (AVI, MP3, ISO, DMG,
//! RAR, JPG), whose sub-file redundancy in the paper's Table 1 is ≤ 0.9 % —
//! file-level duplicate detection captures essentially all of it while
//! paying one weak-hash computation per file.

use crate::{ChunkSpan, Chunker, ChunkingMethod};

/// The largest whole-file chunk: a file longer than this is cut at every
/// exact multiple of it, by the batch and the streaming API alike. A cap
/// must exist because recipes store chunk lengths as `u32`; 64 MiB keeps
/// the streaming buffer bounded too.
pub const WFC_MAX_CHUNK: usize = 1 << 26;

/// Whole-file chunker.
#[derive(Debug, Clone, Copy, Default)]
pub struct WfcChunker;

impl WfcChunker {
    /// Creates a whole-file chunker.
    pub fn new() -> Self {
        WfcChunker
    }
}

impl Chunker for WfcChunker {
    fn chunk(&self, data: &[u8]) -> Vec<ChunkSpan> {
        (0..data.len())
            .step_by(WFC_MAX_CHUNK)
            .map(|offset| ChunkSpan {
                offset,
                len: (data.len() - offset).min(WFC_MAX_CHUNK),
                method: ChunkingMethod::Wfc,
            })
            .collect()
    }

    fn method(&self) -> ChunkingMethod {
        ChunkingMethod::Wfc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans_cover;

    #[test]
    fn whole_file_is_one_chunk() {
        let data = vec![1u8; 12_345];
        let spans = WfcChunker::new().chunk(&data);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].offset, 0);
        assert_eq!(spans[0].len, data.len());
        assert_eq!(spans[0].method, ChunkingMethod::Wfc);
        assert!(spans_cover(&data, &spans));
    }

    #[test]
    fn empty_input_no_chunks() {
        assert!(WfcChunker::new().chunk(b"").is_empty());
    }

    #[test]
    fn single_byte_file() {
        let spans = WfcChunker::new().chunk(b"x");
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].len, 1);
    }
}

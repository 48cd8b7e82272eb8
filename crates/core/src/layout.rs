//! Per-rank layout declarations and their wire encoding.

use crate::block::{Block, MAX_DIMS};
use crate::error::{DdrError, Result};
use minimpi::Comm;

/// What one rank declared to `setup_data_mapping`: the chunks it owns before
/// redistribution and the single continuous block it needs afterwards
/// (paper §III-B: many owned chunks, exactly one needed chunk).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    /// Blocks this rank owns prior to redistribution.
    pub owned: Vec<Block>,
    /// The block this rank must hold after redistribution.
    pub need: Block,
}

impl Layout {
    /// Serialize to a u64 stream for allgather.
    fn encode(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(2 + (self.owned.len() + 1) * (1 + 2 * MAX_DIMS));
        out.push(self.owned.len() as u64);
        for b in self.owned.iter().chain(std::iter::once(&self.need)) {
            out.push(b.ndims as u64);
            out.extend(b.offset.iter().map(|&v| v as u64));
            out.extend(b.dims.iter().map(|&v| v as u64));
        }
        out
    }

    fn decode(data: &[u64]) -> Result<Layout> {
        let fail = || DdrError::InvalidBlock("malformed layout encoding".into());
        let mut it = data.iter().copied();
        let mut next = || it.next().ok_or_else(fail);
        let nchunks = next()? as usize;
        let read_block = |next: &mut dyn FnMut() -> Result<u64>| -> Result<Block> {
            let ndims = next()? as usize;
            let mut offset = [0usize; MAX_DIMS];
            let mut dims = [0usize; MAX_DIMS];
            for o in offset.iter_mut() {
                *o = next()? as usize;
            }
            for d in dims.iter_mut() {
                *d = next()? as usize;
            }
            Block::new(ndims, offset, dims)
        };
        let mut owned = Vec::with_capacity(nchunks);
        for _ in 0..nchunks {
            owned.push(read_block(&mut next)?);
        }
        let need = read_block(&mut next)?;
        Ok(Layout { owned, need })
    }
}

/// Collective: gather every rank's layout so each rank can compute overlaps
/// locally (the internal allgather behind the paper's `DDR_SetupDataMapping`).
pub(crate) fn exchange_layouts(comm: &Comm, mine: &Layout) -> Result<Vec<Layout>> {
    let encoded = mine.encode();
    let all = comm.allgather(&encoded)?;
    all.iter().map(|e| Layout::decode(e)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let l = Layout {
            owned: vec![Block::d2([0, 3], [8, 1]).unwrap(), Block::d2([0, 7], [8, 1]).unwrap()],
            need: Block::d2([4, 4], [4, 4]).unwrap(),
        };
        let enc = l.encode();
        let dec = Layout::decode(&enc).unwrap();
        assert_eq!(dec, l);
    }

    #[test]
    fn decode_rejects_truncated_input() {
        let l = Layout { owned: vec![Block::d1(0, 4).unwrap()], need: Block::d1(0, 4).unwrap() };
        let enc = l.encode();
        assert!(Layout::decode(&enc[..enc.len() - 1]).is_err());
        assert!(Layout::decode(&[]).is_err());
    }

    #[test]
    fn decode_rejects_invalid_blocks() {
        // ndims = 9 is invalid.
        let mut enc = Layout { owned: vec![], need: Block::d1(0, 1).unwrap() }.encode();
        enc[1] = 9;
        assert!(Layout::decode(&enc).is_err());
    }
}

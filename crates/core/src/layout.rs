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

/// What every rank declared, as the allgather behind the setup calls
/// returns it: `owned[r]` and `needs[r]` are rank `r`'s. The paper's
/// single-need mapping is the case where every `needs[r]` holds one block.
pub(crate) struct Declared {
    pub owned: Vec<Vec<Block>>,
    pub needs: Vec<Vec<Block>>,
}

/// The one wire encoding of a declaration, a u64 stream for allgather: both
/// block counts, then every block as `ndims, offset[3], dims[3]`.
fn encode(owned: &[Block], needs: &[Block]) -> Vec<u64> {
    let mut out = Vec::with_capacity(2 + (owned.len() + needs.len()) * (1 + 2 * MAX_DIMS));
    out.push(owned.len() as u64);
    out.push(needs.len() as u64);
    for b in owned.iter().chain(needs) {
        out.push(b.ndims as u64);
        out.extend(b.offset.iter().map(|&v| v as u64));
        out.extend(b.dims.iter().map(|&v| v as u64));
    }
    out
}

fn decode(data: &[u64]) -> Result<(Vec<Block>, Vec<Block>)> {
    let fail = || DdrError::InvalidBlock("malformed layout encoding".into());
    let mut it = data.iter().copied();
    let mut next = || it.next().ok_or_else(fail);
    let n_owned = next()?;
    let n_needs = next()?;
    let mut read_block = || -> Result<Block> {
        let ndims = next()? as usize;
        let mut offset = [0usize; MAX_DIMS];
        let mut dims = [0usize; MAX_DIMS];
        for v in offset.iter_mut().chain(dims.iter_mut()) {
            *v = next()? as usize;
        }
        Block::new(ndims, offset, dims)
    };
    let owned = (0..n_owned).map(|_| read_block()).collect::<Result<_>>()?;
    let needs = (0..n_needs).map(|_| read_block()).collect::<Result<_>>()?;
    Ok((owned, needs))
}

/// Collective: gather every rank's declaration so each rank can compute
/// overlaps locally (the internal allgather behind the paper's
/// `DDR_SetupDataMapping`).
pub(crate) fn exchange_layouts(comm: &Comm, owned: &[Block], needs: &[Block]) -> Result<Declared> {
    let all = comm.allgather(&encode(owned, needs))?;
    let (owned, needs) =
        all.iter().map(|e| decode(e)).collect::<Result<Vec<_>>>()?.into_iter().unzip();
    Ok(Declared { owned, needs })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let owned = vec![Block::d2([0, 3], [8, 1]).unwrap(), Block::d2([0, 7], [8, 1]).unwrap()];
        let one = vec![Block::d2([4, 4], [4, 4]).unwrap()];
        let three = vec![one[0], Block::d2([0, 0], [2, 2]).unwrap(), owned[1]];
        for needs in [&[][..], &one, &three] {
            let (o, n) = decode(&encode(&owned, needs)).unwrap();
            assert_eq!((o.as_slice(), n.as_slice()), (owned.as_slice(), needs));
        }
        assert_eq!(decode(&encode(&[], &one)).unwrap(), (vec![], one));
    }

    #[test]
    fn decode_rejects_truncated_input() {
        let b = [Block::d1(0, 4).unwrap()];
        let enc = encode(&b, &b);
        assert!(decode(&enc[..enc.len() - 1]).is_err());
        assert!(decode(&enc[..3]).is_err());
        assert!(decode(&[]).is_err());
    }

    #[test]
    fn decode_rejects_invalid_blocks() {
        // ndims = 9 is invalid.
        let mut enc = encode(&[], &[Block::d1(0, 1).unwrap()]);
        enc[2] = 9;
        assert!(decode(&enc).is_err());
    }
}

//! Framed transfer of 2-D float slabs between resources.

use ddr_core::Block;
use minimpi::{bytes_of, Comm, Error as MpiError, Result};

/// User tag reserved for in-transit frames on the world communicator.
pub const FRAME_TAG: u32 = 0x4954_0001;

/// One streamed piece of a time step: a rectangular slab of the global 2-D
/// field, in the layout its producer used.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Simulation time step this frame belongs to.
    pub step: u64,
    /// Where the slab sits in the global domain.
    pub block: Block,
    /// Slab values, x fastest.
    pub data: Vec<f32>,
}

impl Frame {
    /// Create a frame, checking the buffer length against the block.
    ///
    /// # Panics
    /// Panics when `data` does not hold exactly `block.count()` values.
    pub fn new(step: u64, block: Block, data: Vec<f32>) -> Self {
        assert_eq!(data.len() as u64, block.count(), "frame buffer does not match block");
        Frame { step, block, data }
    }

    /// Exact wire length of this frame: the 64-byte header plus the payload.
    fn encoded_len(&self) -> usize {
        8 * 8 + self.data.len() * 4
    }

    /// The wire bytes: a 64-byte header (step, dimension count, offset, dims)
    /// and the payload.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.extend_from_slice(&self.step.to_le_bytes());
        out.extend_from_slice(&(self.block.ndims as u64).to_le_bytes());
        for v in self.block.offset.iter().chain(self.block.dims.iter()) {
            out.extend_from_slice(&(*v as u64).to_le_bytes());
        }
        out.extend_from_slice(bytes_of(&self.data));
        out
    }

    pub(crate) fn decode(bytes: &[u8]) -> Result<Frame> {
        const HDR: usize = 8 * 8;
        if bytes.len() < HDR || !(bytes.len() - HDR).is_multiple_of(4) {
            return Err(MpiError::SizeMismatch { expected: HDR, got: bytes.len() });
        }
        let u = |i: usize| u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().unwrap());
        let step = u(0);
        let ndims = u(1) as usize;
        let offset = [u(2) as usize, u(3) as usize, u(4) as usize];
        let dims = [u(5) as usize, u(6) as usize, u(7) as usize];
        let block = Block::new(ndims, offset, dims)
            .map_err(|_| MpiError::SizeMismatch { expected: HDR, got: bytes.len() })?;
        let n = (bytes.len() - HDR) / 4;
        if n as u64 != block.count() {
            return Err(MpiError::SizeMismatch {
                expected: block.count() as usize * 4,
                got: n * 4,
            });
        }
        let mut data = Vec::with_capacity(n);
        for c in bytes[HDR..].chunks_exact(4) {
            data.push(f32::from_le_bytes(c.try_into().unwrap()));
        }
        Ok(Frame { step, block, data })
    }

    /// Send this frame to `dest` on `comm` (typically the world
    /// communicator bridging the two resources). The encoded buffer is
    /// allocated at its exact length and moves with the message; the
    /// receiver drops it after decoding.
    pub fn send(&self, comm: &Comm, dest: usize) -> Result<()> {
        comm.send_bytes_owned(dest, FRAME_TAG, self.encode())
    }
}

/// Producer side: stream one slab to its consumer.
pub fn send_frame(comm: &Comm, dest: usize, step: u64, block: Block, data: Vec<f32>) -> Result<()> {
    Frame::new(step, block, data).send(comm, dest)
}

/// Consumer side: receive one frame from each listed source (world ranks)
/// and verify they all belong to the same time step. Frames are returned in
/// source order — the consumer's "owned chunks" for redistribution.
pub fn recv_frames(comm: &Comm, sources: &[usize], expect_step: Option<u64>) -> Result<Vec<Frame>> {
    let mut frames = Vec::with_capacity(sources.len());
    for &src in sources {
        frames.push(Frame::decode(&comm.recv_bytes(src, FRAME_TAG)?)?);
    }
    if let Some(step) = expect_step.or_else(|| frames.first().map(|f| f.step)) {
        for f in &frames {
            if f.step != step {
                return Err(MpiError::CollectiveMismatch {
                    detail: format!("frame step {} does not match expected {step}", f.step),
                });
            }
        }
    }
    Ok(frames)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let f = Frame::new(
            42,
            Block::d2([0, 10], [8, 3]).unwrap(),
            (0..24).map(|i| i as f32 * 0.5).collect(),
        );
        let back = Frame::decode(&f.encode()).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn decode_rejects_truncation_and_mismatch() {
        let f = Frame::new(1, Block::d1(0, 4).unwrap(), vec![1.0; 4]);
        let enc = f.encode();
        assert!(Frame::decode(&enc[..20]).is_err());
        assert!(Frame::decode(&enc[..enc.len() - 4]).is_err()); // count mismatch
        assert!(Frame::decode(&enc[..enc.len() - 2]).is_err()); // ragged
    }

    #[test]
    #[should_panic]
    fn frame_length_mismatch_panics() {
        Frame::new(0, Block::d1(0, 4).unwrap(), vec![0.0; 3]);
    }

    #[test]
    fn send_recv_over_universe() {
        use minimpi::Universe;
        let out = Universe::run(3, |comm| {
            if comm.rank() < 2 {
                let block = Block::d2([0, comm.rank() * 2], [4, 2]).unwrap();
                let data = vec![comm.rank() as f32; 8];
                send_frame(comm, 2, 7, block, data).unwrap();
                Vec::new()
            } else {
                recv_frames(comm, &[0, 1], Some(7)).unwrap()
            }
        });
        let frames = &out[2];
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].block, Block::d2([0, 0], [4, 2]).unwrap());
        assert_eq!(frames[1].data, vec![1.0; 8]);
    }

    #[test]
    fn step_mismatch_detected() {
        use minimpi::Universe;
        let out = Universe::run(3, |comm| {
            if comm.rank() < 2 {
                let block = Block::d1(comm.rank() * 4, 4).unwrap();
                send_frame(comm, 2, comm.rank() as u64, block, vec![0.0; 4]).unwrap();
                true
            } else {
                recv_frames(comm, &[0, 1], None).is_err()
            }
        });
        assert!(out[2]);
    }
}

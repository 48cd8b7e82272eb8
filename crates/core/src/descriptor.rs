//! Data descriptors — the paper's `DDR_NewDataDescriptor`.

use crate::error::{DdrError, Result};

/// Dimensionality of the data being redistributed (the paper's
/// `DATA_TYPE_1D/2D/3D` constants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataKind {
    /// One-dimensional contiguous array.
    D1,
    /// Two-dimensional array, coordinate 0 (x) fastest-varying.
    D2,
    /// Three-dimensional array, coordinate 0 (x) fastest-varying.
    D3,
}

impl DataKind {
    /// Number of dimensions.
    pub fn ndims(self) -> usize {
        match self {
            DataKind::D1 => 1,
            DataKind::D2 => 2,
            DataKind::D3 => 3,
        }
    }
}

/// Description of the data type being reorganized; created once and passed
/// to mapping setup and redistribution (paper §III-A).
///
/// Mirrors `DDR_NewDataDescriptor(nProcesses, DATA_TYPE_2D, MPI_FLOAT,
/// sizeof(float))` — the MPI datatype and byte size collapse into
/// `elem_size` here because the Rust API is generic over the element type at
/// the `reorganize` call instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Descriptor {
    nprocs: usize,
    kind: DataKind,
    elem_size: usize,
}

impl Descriptor {
    /// Create a descriptor for `nprocs` processes exchanging `kind` arrays
    /// whose elements are `elem_size` bytes.
    pub fn new(nprocs: usize, kind: DataKind, elem_size: usize) -> Result<Self> {
        if nprocs == 0 {
            return Err(DdrError::NoProcesses);
        }
        if elem_size == 0 {
            return Err(DdrError::InvalidBlock("element size must be > 0".into()));
        }
        Ok(Descriptor { nprocs, kind, elem_size })
    }

    /// Typed constructor: element size taken from `T`.
    pub fn for_type<T>(nprocs: usize, kind: DataKind) -> Result<Self> {
        Self::new(nprocs, kind, std::mem::size_of::<T>())
    }

    /// Number of processes this descriptor was created for.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Dimensionality of the data.
    pub fn kind(&self) -> DataKind {
        self.kind
    }

    /// Size of one element in bytes.
    pub fn elem_size(&self) -> usize {
        self.elem_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructs_and_reports_fields() {
        let d = Descriptor::new(4, DataKind::D2, 4).unwrap();
        assert_eq!(d.nprocs(), 4);
        assert_eq!(d.kind(), DataKind::D2);
        assert_eq!(d.elem_size(), 4);
        assert_eq!(d.kind().ndims(), 2);
    }

    #[test]
    fn for_type_uses_size_of() {
        let d = Descriptor::for_type::<f64>(8, DataKind::D3).unwrap();
        assert_eq!(d.elem_size(), 8);
    }

    #[test]
    fn rejects_zero_procs_and_zero_elem() {
        assert_eq!(Descriptor::new(0, DataKind::D1, 4), Err(DdrError::NoProcesses));
        assert!(Descriptor::new(4, DataKind::D1, 0).is_err());
    }
}

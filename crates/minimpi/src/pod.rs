//! Plain-old-data marker trait used for typed message payloads.

use std::mem::MaybeUninit;

/// Marker for types that can be sent as raw bytes.
///
/// # Safety
///
/// Implementors must guarantee that the type
///
/// * has no padding bytes (every byte of the representation is initialized),
/// * is valid for **any** bit pattern (so bytes received off the wire can be
///   reinterpreted as the type), and
/// * contains no pointers or lifetimes.
///
/// The blanket implementations below cover the primitive numeric types and
/// fixed-size arrays of them, which is everything the DDR stack transmits.
pub unsafe trait Pod: Copy + Send + Sync + 'static {}

macro_rules! impl_pod {
    ($($t:ty),* $(,)?) => {
        // SAFETY: primitive numeric types have no padding, accept every bit
        // pattern (floats included — any bits are *a* float, possibly NaN),
        // and hold no pointers or lifetimes.
        $(unsafe impl Pod for $t {})*
    };
}

impl_pod!(u8, i8, u16, i16, u32, i32, u64, i64, u128, i128, usize, isize, f32, f64);

// SAFETY: an array is `N` contiguous `T`s with no extra padding (guaranteed
// by the array layout), so it is Pod exactly when its element type is.
unsafe impl<T: Pod, const N: usize> Pod for [T; N] {}

/// View a slice of POD values as raw bytes.
pub fn bytes_of<T: Pod>(s: &[T]) -> &[u8] {
    // SAFETY: `T: Pod` guarantees no padding and no invalid representations;
    // the length arithmetic cannot overflow because the slice exists.
    unsafe { std::slice::from_raw_parts(s.as_ptr().cast::<u8>(), std::mem::size_of_val(s)) }
}

/// View a mutable slice of POD values as raw bytes.
pub(crate) fn bytes_of_mut<T: Pod>(s: &mut [T]) -> &mut [u8] {
    // SAFETY: as in `bytes_of`; any bit pattern written through the returned
    // slice is a valid `T` because `T: Pod`.
    unsafe { std::slice::from_raw_parts_mut(s.as_mut_ptr().cast::<u8>(), std::mem::size_of_val(s)) }
}

/// View uninitialized storage for POD values as uninitialized bytes: a
/// receive destination for [`crate::Comm::alltoallw_parts_uninit`]. Sound
/// for any `T`, because neither side of the view has a validity invariant;
/// the values become `T` only once every byte was written, which the caller
/// asserts when it assumes them initialized.
pub fn uninit_bytes_of_mut<T: Pod>(s: &mut [MaybeUninit<T>]) -> &mut [MaybeUninit<u8>] {
    // SAFETY: `MaybeUninit<T>` has `T`'s size and no padding invariants, and
    // `MaybeUninit<u8>` accepts every byte, initialized or not.
    unsafe {
        std::slice::from_raw_parts_mut(
            s.as_mut_ptr().cast::<MaybeUninit<u8>>(),
            std::mem::size_of_val(s),
        )
    }
}

/// View initialized bytes as a receive destination, so the `&mut [u8]`
/// entry points share the one receive engine with
/// [`crate::Comm::alltoallw_parts_uninit`].
///
/// # Safety
/// Only initialized bytes may be stored through the returned slice: it
/// aliases `bytes`, which is `[u8]` again once the borrow ends. Every
/// receive path in this crate only copies bytes in — a staged unpack, a
/// loan claim and a self-copy each store and never read — so each may be
/// handed this view.
pub(crate) unsafe fn as_uninit_mut(bytes: &mut [u8]) -> &mut [MaybeUninit<u8>] {
    // SAFETY: `[u8]` and `[MaybeUninit<u8>]` have the same layout; the
    // caller upholds that only initialized bytes are stored.
    unsafe { &mut *(bytes as *mut [u8] as *mut [MaybeUninit<u8>]) }
}

/// Copy raw bytes into a freshly allocated, correctly aligned `Vec<T>`.
///
/// Returns `None` when `bytes.len()` is not a multiple of `size_of::<T>()`.
pub(crate) fn vec_from_bytes<T: Pod>(bytes: &[u8]) -> Option<Vec<T>> {
    let esz = std::mem::size_of::<T>();
    if esz == 0 || !bytes.len().is_multiple_of(esz) {
        return None;
    }
    let n = bytes.len() / esz;
    let mut out = Vec::<T>::with_capacity(n);
    // SAFETY: the destination allocation holds exactly `n` elements; Pod
    // types accept arbitrary byte patterns, so copying then setting the
    // length yields initialized, valid values.
    unsafe {
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr().cast::<u8>(), bytes.len());
        out.set_len(n);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_roundtrip_f64() {
        let v = [1.5f64, -2.25, 0.0, f64::MAX];
        let b = bytes_of(&v);
        assert_eq!(b.len(), 32);
        let back: Vec<f64> = vec_from_bytes(b).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn bytes_of_mut_writes_through() {
        let mut v = [0u32; 2];
        bytes_of_mut(&mut v).copy_from_slice(&[1, 0, 0, 0, 2, 0, 0, 0]);
        assert_eq!(v, [1u32.to_le(), 2u32.to_le()]);
    }

    #[test]
    fn uninit_bytes_of_mut_covers_the_elements() {
        let mut v = Vec::<u32>::with_capacity(2);
        let bytes = uninit_bytes_of_mut(&mut v.spare_capacity_mut()[..2]);
        assert_eq!(bytes.len(), 8);
        for (i, b) in bytes.iter_mut().enumerate() {
            b.write(i as u8);
        }
        // SAFETY: all eight bytes of both elements were written above.
        unsafe { v.set_len(2) };
        assert_eq!(v, [u32::from_le_bytes([0, 1, 2, 3]), u32::from_le_bytes([4, 5, 6, 7])]);
    }

    #[test]
    fn vec_from_bytes_rejects_ragged_lengths() {
        assert!(vec_from_bytes::<u32>(&[0u8; 7]).is_none());
        assert!(vec_from_bytes::<u32>(&[0u8; 8]).is_some());
    }

    #[test]
    fn vec_from_bytes_empty() {
        let v: Vec<u64> = vec_from_bytes(&[]).unwrap();
        assert!(v.is_empty());
    }
}

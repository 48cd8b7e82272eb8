//! # dtiff — a from-scratch baseline TIFF codec
//!
//! The paper's first use case loads volumetric medical data stored as "a
//! series of slices … saved in a standard image format, such as TIFF", and
//! its cost analysis leans on a property of that format: *"common 2D image
//! formats such as TIFF require a program to decode and extract the entire
//! image from file, even if the application only needs the values of a few
//! pixels"*. This crate reproduces that substrate: a real strip-based
//! grayscale TIFF reader and writer (8/16/32-bit unsigned and 32-bit float,
//! little- or big-endian, baseline/uncompressed, one page per file), plus
//! helpers for image stacks on disk. A file with more than one page decodes
//! as its first.
//!
//! Decoding deliberately goes through the whole file. "Whole-image cost"
//! means: every strip of the page is located, bounds-checked and
//! endian-converted, whether the caller wants one pixel or all of them — so
//! the loader exhibits the cost structure the paper's experiments measure. It
//! does not mean extra copies. One strip walker ([`Page`]) feeds two sinks,
//! the typed [`TiffImage::decode`] and the loader's [`Page::decode_u16_into`]
//! into a buffer the caller reuses, and both write each sample once, straight
//! from the file's bytes: no assembled byte vector of all strips. A [`Page`]
//! is a parsed, validated IFD whose samples have not been touched, so a
//! caller can refuse an image of the wrong shape or sample kind before paying
//! for it. The loader widens the 16-bit samples to normalized `f32` once,
//! after they have been redistributed, with [`extend_normalized_u16`].
//!
//! One thing the walker is stricter about than a byte-assembling decoder: a
//! strip whose contribution ends in the middle of a sample is
//! [`TiffError::Malformed`] (TIFF strips hold whole rows).
//!
//! ```
//! use dtiff::{PixelData, TiffImage, Endian};
//! let img = TiffImage::new(4, 2, PixelData::U16(vec![0, 1, 2, 3, 4, 5, 6, 7])).unwrap();
//! let bytes = img.encode(Endian::Little).unwrap();
//! let back = TiffImage::decode(&bytes).unwrap();
//! assert_eq!(back, img);
//! ```

#![warn(missing_docs)]

mod error;
mod image;
mod normalize;
mod reader;
mod stack;
mod writer;

pub use error::{Result, TiffError};
pub use image::{Endian, PixelData, PixelKind, TiffImage};
pub use normalize::extend_normalized_u16;
pub use reader::Page;
pub use stack::{read_stack_slice, stack_paths, stack_slice_path, write_stack};

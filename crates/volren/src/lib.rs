//! # volren — brick-decomposed CPU direct volume rendering
//!
//! The paper's first use case feeds redistributed TIFF-stack data into
//! distributed **direct volume rendering** (DVR): "the entire volume is
//! broken into equally sized boxes that are as close to cubes as possible",
//! each GPU renders its brick, and the results are composited. The paper
//! used GPU rendering on Cooley; this crate substitutes a CPU ray-caster
//! that consumes the same brick layout and produces the same kind of image,
//! preserving the property DDR exists for — every rank needs exactly one
//! axis-aligned sub-box of the volume.
//!
//! Rendering is orthographic along +z with voxel-center sampling and
//! front-to-back `over` compositing, which makes the brick decomposition
//! exact: compositing per-brick partial images in z order reproduces the
//! single-pass reference image.
//!
//! * [`phantom_tooth`] — synthetic CT phantom standing in for the paper's
//!   primate-tooth scan (Figure 2),
//! * [`TransferFunction`] — scalar → color/opacity classification,
//! * [`render_brick`] — ray-cast one brick into a partial RGBA image,
//! * [`composite`] — combine brick images into the final picture,
//! * [`RgbaImage`] — premultiplied float RGBA accumulation buffers.

#![warn(missing_docs)]

mod dist;
mod image;
mod phantom;
mod render;
mod transfer;

pub use dist::composite_gather;
pub use image::RgbaImage;
pub use phantom::phantom_tooth;
pub use render::{composite, render_brick, render_volume, BrickImage};
pub use transfer::TransferFunction;

//! PPM (P6) binary I/O — loss-free image dumps for debugging and for the
//! raw-output side of the Table IV comparison.

use crate::error::{ImageError, Result};
use crate::rgb::RgbImage;
use std::io::Write;
use std::path::Path;

/// Encode an RGB image as binary PPM (P6).
pub fn encode_ppm(img: &RgbImage) -> Vec<u8> {
    let mut out = Vec::with_capacity(img.data.len() + 32);
    write!(out, "P6\n{} {}\n255\n", img.width, img.height).expect("vec write");
    out.extend_from_slice(&img.data);
    out
}

/// Write an RGB image to a `.ppm` file.
pub fn write_ppm(path: &Path, img: &RgbImage) -> Result<()> {
    std::fs::write(path, encode_ppm(img))?;
    Ok(())
}

/// Decode a binary PPM (P6) stream.
pub fn decode_ppm(bytes: &[u8]) -> Result<RgbImage> {
    let (header, rest) = parse_header(bytes, b"P6")?;
    let expected = 3 * header.0 * header.1;
    if rest.len() < expected {
        return Err(ImageError::Malformed(format!(
            "P6 payload has {} bytes, expected {expected}",
            rest.len()
        )));
    }
    RgbImage::new(header.0, header.1, rest[..expected].to_vec())
}

/// Parse a PNM header: magic, whitespace/comments, width, height, maxval.
/// Returns ((width, height), payload).
fn parse_header<'a>(bytes: &'a [u8], magic: &[u8]) -> Result<((usize, usize), &'a [u8])> {
    if bytes.len() < 2 || &bytes[0..2] != magic {
        return Err(ImageError::Malformed("bad PNM magic".into()));
    }
    let mut pos = 2;
    let mut fields = [0usize; 3];
    for field in fields.iter_mut() {
        // Skip whitespace and comments.
        loop {
            match bytes.get(pos) {
                Some(b'#') => {
                    while bytes.get(pos).is_some_and(|&b| b != b'\n') {
                        pos += 1;
                    }
                }
                Some(b) if b.is_ascii_whitespace() => pos += 1,
                Some(_) => break,
                None => return Err(ImageError::Malformed("truncated PNM header".into())),
            }
        }
        let start = pos;
        while bytes.get(pos).is_some_and(|b| b.is_ascii_digit()) {
            pos += 1;
        }
        if start == pos {
            return Err(ImageError::Malformed("expected integer in PNM header".into()));
        }
        *field = std::str::from_utf8(&bytes[start..pos])
            .expect("digits are utf8")
            .parse()
            .map_err(|_| ImageError::Malformed("PNM header integer overflow".into()))?;
    }
    if fields[2] != 255 {
        return Err(ImageError::Unsupported(format!("PNM maxval {}", fields[2])));
    }
    // Exactly one whitespace byte separates header and payload.
    if !bytes.get(pos).is_some_and(|b| b.is_ascii_whitespace()) {
        return Err(ImageError::Malformed("missing PNM header terminator".into()));
    }
    Ok(((fields[0], fields[1]), &bytes[pos + 1..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ppm_roundtrip() {
        let img = RgbImage::new(3, 2, (0u8..18).collect()).unwrap();
        let enc = encode_ppm(&img);
        assert!(enc.starts_with(b"P6\n3 2\n255\n"));
        assert_eq!(decode_ppm(&enc).unwrap(), img);
    }

    #[test]
    fn ppm_with_comments() {
        let payload: Vec<u8> = (0..12).collect();
        let mut bytes = b"P6\n# a comment\n2 2\n# another\n255\n".to_vec();
        bytes.extend_from_slice(&payload);
        let img = decode_ppm(&bytes).unwrap();
        assert_eq!((img.width, img.height), (2, 2));
        assert_eq!(img.data, payload);
    }

    #[test]
    fn ppm_rejects_bad_inputs() {
        assert!(decode_ppm(b"P5\n1 1\n255\nxxx").is_err());
        assert!(decode_ppm(b"P6\n2 2\n255\n\x00").is_err()); // short payload
        assert!(decode_ppm(b"P6\n2 2\n65535\n").is_err()); // 16-bit maxval
        assert!(decode_ppm(b"P6\n2\n").is_err());
    }
}

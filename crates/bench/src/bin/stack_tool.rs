//! Command-line utility for TIFF volume stacks: generate synthetic phantoms,
//! inspect stacks/files, and extract rendered previews — the small ops
//! toolbox around the use-case-1 data format.
//!
//! ```text
//! stack_tool gen <dir> <nx> <ny> <nz> [--multipage <file>]
//! stack_tool info <dir|file.tif>
//! stack_tool preview <dir> <nx> <ny> <nz> <out.jpg> [--axis x|y|z] [--shaded]
//! ```

use ddr_bench::loader::{write_phantom_multipage, write_phantom_stack};
use dtiff::TiffImage;
use std::path::Path;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  stack_tool gen <dir> <nx> <ny> <nz> [--multipage <file>]\n  \
         stack_tool info <dir|file.tif>\n  \
         stack_tool preview <dir> <nx> <ny> <nz> <out.jpg> [--axis x|y|z] [--shaded]"
    );
    ExitCode::from(2)
}

fn cmd_gen(args: &[String]) -> ExitCode {
    let [dir, nx, ny, nz, rest @ ..] = args else { return usage() };
    let (Ok(nx), Ok(ny), Ok(nz)) = (nx.parse(), ny.parse(), nz.parse()) else {
        return usage();
    };
    let vol = [nx, ny, nz];
    if let Some(i) = rest.iter().position(|a| a == "--multipage") {
        let Some(file) = rest.get(i + 1) else { return usage() };
        if let Err(e) = write_phantom_multipage(Path::new(file), vol) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {nz}-page volume to {file}");
    } else {
        if let Err(e) = write_phantom_stack(Path::new(dir), vol) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {nz} slices of {nx}x{ny} to {dir}/");
    }
    ExitCode::SUCCESS
}

fn describe(img: &TiffImage, label: &str) {
    println!(
        "{label}: {}x{} {:?} ({} bytes of pixels)",
        img.width,
        img.height,
        img.kind(),
        img.data.len() * img.kind().sample_bytes()
    );
}

fn cmd_info(args: &[String]) -> ExitCode {
    let [path] = args else { return usage() };
    let p = Path::new(path);
    if p.is_dir() {
        let mut z = 0usize;
        while let Ok(img) = dtiff::read_stack_slice(p, z) {
            if z == 0 {
                describe(&img, "slice 0");
            }
            z += 1;
        }
        if z == 0 {
            eprintln!("no slices found in {path}");
            return ExitCode::FAILURE;
        }
        println!("stack of {z} slices");
    } else {
        match std::fs::read(p)
            .map_err(dtiff::TiffError::from)
            .and_then(|b| TiffImage::decode_all(&b))
        {
            Ok(pages) => {
                describe(&pages[0], "page 0");
                println!("{} page(s)", pages.len());
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn cmd_preview(args: &[String]) -> ExitCode {
    let [dir, nx, ny, nz, out, rest @ ..] = args else { return usage() };
    let (Ok(nx), Ok(ny), Ok(nz)) = (nx.parse(), ny.parse(), nz.parse()) else {
        return usage();
    };
    let axis = match rest.iter().position(|a| a == "--axis").and_then(|i| rest.get(i + 1)) {
        Some(a) if a == "x" => volren::Axis::X,
        Some(a) if a == "y" => volren::Axis::Y,
        None => volren::Axis::Z,
        Some(a) if a == "z" => volren::Axis::Z,
        Some(_) => return usage(),
    };
    let shaded = rest.iter().any(|a| a == "--shaded");

    let vol: [usize; 3] = [nx, ny, nz];
    if nx * ny == 0 {
        return usage();
    }
    let mut data = vec![0f32; nx * ny * nz];
    for (z, plane) in data.chunks_exact_mut(nx * ny).enumerate() {
        let decoded = std::fs::read(dtiff::stack_slice_path(Path::new(dir), z))
            .map_err(dtiff::TiffError::from)
            .and_then(|bytes| TiffImage::decode_normalized_into(&bytes, plane));
        match decoded {
            Ok((w, h)) if (w as usize, h as usize) == (nx, ny) => {}
            Ok((w, h)) => {
                eprintln!("error: slice {z} is {w}x{h}, expected {nx}x{ny}");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("error reading slice {z}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let tf = volren::TransferFunction::tooth();
    let image = if shaded {
        volren::render_brick_shaded(&data, vol, [0, 0, 0], &tf, axis, volren::Lighting::default())
            .image
    } else {
        volren::render_volume_along(&data, vol, &tf, axis)
    };
    let rgb = image.to_rgb([0, 0, 0]);
    match jimage::jpeg::encode(&rgb, 90).map(|b| std::fs::write(out, b)) {
        Ok(Ok(())) => {
            println!("wrote {out} ({}x{})", rgb.width, rgb.height);
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("failed to write {out}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "gen" => cmd_gen(rest),
        Some((cmd, rest)) if cmd == "info" => cmd_info(rest),
        Some((cmd, rest)) if cmd == "preview" => cmd_preview(rest),
        _ => usage(),
    }
}

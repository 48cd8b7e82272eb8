//! The README knob table is checked against the code: every `"DDR_*"` string
//! literal a source file reads must have a row, and every row must name a
//! variable some source file still reads.

use std::collections::BTreeSet;
use std::path::Path;

/// Collect every `"DDR_[A-Z_]+"` literal in the `.rs` files under `dir`,
/// except the `DDR_TEST_*` names `minimpi::env`'s own unit tests set.
fn scan(dir: &Path, out: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            scan(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).unwrap();
            for (at, _) in text.match_indices("\"DDR_") {
                let name: String = text[at + 1..]
                    .chars()
                    .take_while(|c| c.is_ascii_uppercase() || *c == '_')
                    .collect();
                let closed = text[at + 1 + name.len()..].starts_with('"');
                if closed && !name.starts_with("DDR_TEST_") {
                    out.insert(name);
                }
            }
        }
    }
}

#[test]
fn readme_knob_table_matches_the_code() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut read_by_code = BTreeSet::new();
    // `examples/` is in scope so that a variable an example reads needs a row too.
    for dir in ["src", "examples"] {
        scan(&root.join(dir), &mut read_by_code);
    }
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            scan(&src, &mut read_by_code);
        }
    }

    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    let documented: BTreeSet<String> = readme
        .lines()
        .filter_map(|l| l.strip_prefix("| `DDR_"))
        .map(|rest| format!("DDR_{}", rest.split('`').next().unwrap()))
        .collect();

    assert!(!documented.is_empty(), "README knob table not found");
    assert_eq!(
        read_by_code, documented,
        "`DDR_*` variables read by the code (left) vs README knob table rows (right)"
    );
}

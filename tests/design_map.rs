//! Keeps DESIGN.md §4 (the module map) in step with the tree.
//!
//! Every `.rs` file the map names must exist under its crate (resolved
//! against the crate's `src/` first, then the crate root, so `bin/x.rs`
//! and `benches/x.rs` both work), every crate under `crates/` must have an
//! entry, and every source file of a crate other than `lib.rs` — under
//! `src/` and `benches/` — must be named in its crate's entry.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The map's entries: crate directory name → the `.rs` names it lists.
fn map_entries() -> BTreeMap<String, BTreeSet<String>> {
    let text = std::fs::read_to_string(root().join("DESIGN.md")).expect("read DESIGN.md");
    let start = text
        .find("## 4. Module map")
        .expect("DESIGN.md has a §4 module map");
    let section = &text[start..];
    let section = &section[..section[3..].find("\n## ").map_or(section.len(), |i| i + 3)];

    let mut entries: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut current: Option<String> = None;
    for line in section.lines() {
        let trimmed = line.trim_start();
        let digits = trimmed.chars().take_while(char::is_ascii_digit).count();
        if digits > 0 && line == trimmed && trimmed[digits..].starts_with(". `") {
            let rest = &trimmed[digits + 3..];
            let name = &rest[..rest.find('`').expect("closing backtick")];
            current = Some(name.to_string());
            entries.entry(name.to_string()).or_default();
        } else if !line.starts_with(' ') {
            current = None;
        }
        let Some(krate) = &current else { continue };
        for (i, token) in line.split('`').enumerate() {
            if i % 2 == 1 && token.ends_with(".rs") {
                entries.get_mut(krate).unwrap().insert(token.to_string());
            }
        }
    }
    entries
}

/// `.rs` files under `dir`, as paths relative to `base`.
fn rs_files(base: &Path, dir: &Path, out: &mut BTreeSet<String>) {
    let Ok(read) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in read {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rs_files(base, &path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(base).unwrap();
            out.insert(rel.to_string_lossy().replace('\\', "/"));
        }
    }
}

#[test]
fn design_module_map_matches_the_tree() {
    let entries = map_entries();
    assert!(!entries.is_empty(), "DESIGN.md §4 lists no crates");
    let crates_dir = root().join("crates");
    let mut problems = Vec::new();

    let mut on_disk: BTreeSet<String> = BTreeSet::new();
    for entry in std::fs::read_dir(&crates_dir).expect("read crates/") {
        let path = entry.expect("dir entry").path();
        if path.join("Cargo.toml").is_file() {
            on_disk.insert(path.file_name().unwrap().to_string_lossy().into_owned());
        }
    }
    for krate in on_disk.difference(&entries.keys().cloned().collect()) {
        problems.push(format!("crate `{krate}` has no entry"));
    }

    for (krate, named) in &entries {
        let dir = crates_dir.join(krate);
        if !dir.is_dir() {
            problems.push(format!("entry `{krate}` names no crate under crates/"));
            continue;
        }
        for file in named {
            if !dir.join("src").join(file).is_file() && !dir.join(file).is_file() {
                problems.push(format!("`{file}` does not exist under crates/{krate}"));
            }
        }
        let mut sources = BTreeSet::new();
        rs_files(&dir.join("src"), &dir.join("src"), &mut sources);
        rs_files(&dir, &dir.join("benches"), &mut sources);
        for file in sources {
            if file != "lib.rs" && !named.contains(&file) {
                problems.push(format!("crates/{krate} has `{file}`, which the map omits"));
            }
        }
    }
    assert!(
        problems.is_empty(),
        "DESIGN.md §4 has drifted from the tree:\n  {}",
        problems.join("\n  ")
    );
}

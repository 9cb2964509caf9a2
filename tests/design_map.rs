//! Keeps DESIGN.md §2 (the per-experiment index) and §4 (the module map)
//! in step with the tree.
//!
//! §4: every `.rs` file the map names must exist under its crate (resolved
//! against the crate's `src/` first, then the crate root, so `bin/x.rs`
//! and `benches/x.rs` both work), every crate under `crates/` must have an
//! entry, and every source file of a crate other than `lib.rs` — under
//! `src/` and `benches/` — must be named in its crate's entry.
//!
//! §2: every `tests/*.rs` file it names must exist, and every
//! `crate::module` path must resolve: each segment after the crate is a
//! module file or an item defined in the module before it.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The DESIGN.md section under `heading`, up to the next `## ` heading.
fn design_section(heading: &str) -> String {
    let text = std::fs::read_to_string(root().join("DESIGN.md")).expect("read DESIGN.md");
    let start = text
        .find(heading)
        .unwrap_or_else(|| panic!("DESIGN.md has a `{heading}` section"));
    let section = &text[start..];
    section[..section[3..].find("\n## ").map_or(section.len(), |i| i + 3)].to_string()
}

/// The backtick-quoted tokens of `text`.
fn code_spans(text: &str) -> impl Iterator<Item = &str> {
    text.split('`').skip(1).step_by(2)
}

/// The map's entries: crate directory name → the `.rs` names it lists.
fn map_entries() -> BTreeMap<String, BTreeSet<String>> {
    let section = design_section("## 4. Module map");
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
        for token in code_spans(line).filter(|t| t.ends_with(".rs")) {
            entries.get_mut(krate).unwrap().insert(token.to_string());
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

/// `a::{b,c}::d` expanded to `a::b::d` and `a::c::d`.
fn expand_braces(path: &str) -> Vec<String> {
    let Some(open) = path.find('{') else {
        return vec![path.to_string()];
    };
    let close = open + path[open..].find('}').expect("closing brace");
    (path[open + 1..close].split(','))
        .flat_map(|alt| {
            expand_braces(&format!(
                "{}{}{}",
                &path[..open],
                alt.trim(),
                &path[close + 1..]
            ))
        })
        .collect()
}

/// Whether `file` defines an item named `name`.
fn defines(file: &Path, name: &str) -> bool {
    let text = std::fs::read_to_string(file).unwrap_or_default();
    [
        "fn", "struct", "enum", "mod", "type", "trait", "const", "static",
    ]
    .iter()
    .any(|kw| {
        let decl = format!("{kw} {name}");
        text.match_indices(&decl).any(|(i, _)| {
            let next = text[i + decl.len()..].chars().next();
            !next.is_some_and(|c| c.is_alphanumeric() || c == '_')
        })
    })
}

/// Why the §2 path `path` (`crate::module::item`) does not resolve.
fn unresolved(path: &str) -> Option<String> {
    let mut segments = path.split("::");
    let krate = segments.next()?;
    let dir = match krate {
        "fsam" => "core",
        other => other.strip_prefix("fsam-").unwrap_or(other),
    };
    let src = root().join("crates").join(dir).join("src");
    if !src.is_dir() {
        return Some(format!("`{path}`: no crate `{krate}`"));
    }
    let (mut module_dir, mut module_file) = (src.clone(), src.join("lib.rs"));
    for seg in segments.filter(|&seg| seg != "*") {
        let as_file = module_dir.join(format!("{seg}.rs"));
        let as_dir = module_dir.join(seg).join("mod.rs");
        if as_file.is_file() || as_dir.is_file() {
            module_file = if as_file.is_file() { as_file } else { as_dir };
            module_dir = module_dir.join(seg);
            continue;
        }
        // Items of the crate root are re-exported from its modules.
        let mut files = BTreeSet::new();
        if module_dir == src {
            rs_files(&src, &src, &mut files);
        }
        let found = defines(&module_file, seg) || files.iter().any(|f| defines(&src.join(f), seg));
        return (!found).then(|| format!("`{path}`: `{seg}` is no module or item"));
    }
    None
}

#[test]
fn design_experiment_index_names_what_exists() {
    let section = design_section("## 2. Per-experiment index");
    let mut problems = Vec::new();
    let mut checked = 0;
    for token in code_spans(&section) {
        if token.starts_with("tests/") && token.ends_with(".rs") {
            checked += 1;
            if !root().join(token).is_file() {
                problems.push(format!("`{token}` does not exist"));
            }
        } else if token.contains("::") && token.starts_with(|c: char| c.is_ascii_lowercase()) {
            for path in expand_braces(token) {
                checked += 1;
                problems.extend(unresolved(&path));
            }
        }
    }
    assert!(checked > 0, "DESIGN.md §2 names no tests or modules");
    assert!(
        problems.is_empty(),
        "DESIGN.md §2 names what does not exist:\n  {}",
        problems.join("\n  ")
    );
}

//! Migration gate for the `TopologyView` read API: no workspace code may
//! re-materialize what the CSR/bitset storage already exposes as borrowed
//! views. It bans the hot-path allocation idioms the redesign removed:
//! cloning an adjacency slice back into a `Vec` and calling `.clone()` on
//! the `Copy` availability view (the pre-CSR spelling of "materialize an
//! owned `ChannelSet`" — the rare legitimate owned copy is spelled
//! `.to_owned()`, which makes the allocation explicit).

use std::fs;
use std::path::{Path, PathBuf};

/// Hot-path re-materialization idioms: `(method, banned continuation)` —
/// a line violates when the continuation appears after a call to the
/// method *with arguments* (the argument requirement keeps zero-arg
/// getters like `Beacon::available()`, which returns `&ChannelSet` and is
/// legitimately cloned, out of scope). `.clone()` on the network's
/// `available(u)` is doubly wrong post-redesign: `ChannelSetRef` is
/// `Copy`, so it silently clones the *reference*.
const BANNED_CHAINS: &[(&str, &str)] = &[
    ("neighbors_on", ".to_vec()"),
    ("receivers_on", ".to_vec()"),
    ("available", ".clone()"),
];

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let name = entry.file_name();
            if name == "target" || name == ".git" {
                continue;
            }
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Strips line comments so doc references (migration notes, deprecation
/// messages) don't trip the gate.
fn code_lines(source: &str) -> impl Iterator<Item = (usize, &str)> {
    source.lines().enumerate().filter_map(|(i, line)| {
        let trimmed = line.trim_start();
        if trimmed.starts_with("//") {
            return None;
        }
        let code = line.split("//").next().unwrap_or(line);
        Some((i + 1, code))
    })
}

fn ident_byte(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphanumeric()
}

/// True when `code[start..start + name.len()]` is the identifier itself,
/// not a fragment of a longer one or a quoted mention.
fn is_identifier_use(code: &str, start: usize, name: &str) -> bool {
    if start > 0 {
        let before = code.as_bytes()[start - 1];
        if ident_byte(before) || before == b'"' {
            return false;
        }
    }
    let end = start + name.len();
    if end < code.len() && ident_byte(code.as_bytes()[end]) {
        return false;
    }
    true
}

/// Finds `method(` … `)` immediately followed by `chain` on one line,
/// matching the parenthesis that closes the call.
fn chained_call_at(code: &str, method: &str, chain: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = code[from..].find(method) {
        let at = from + pos;
        from = at + method.len();
        if !is_identifier_use(code, at, method) {
            continue;
        }
        let rest = &code[at + method.len()..];
        if !rest.starts_with('(') || rest.starts_with("()") {
            continue;
        }
        let mut depth = 0usize;
        for (i, b) in rest.bytes().enumerate() {
            match b {
                b'(' => depth += 1,
                b')' => {
                    depth -= 1;
                    if depth == 0 {
                        if rest[i + 1..].starts_with(chain) {
                            return true;
                        }
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    false
}

fn collect_workspace_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for dir in ["src", "examples", "crates", "tests"] {
        rust_files(&root.join(dir), &mut files);
    }
    files.sort();
    assert!(
        files.len() > 20,
        "gate walked suspiciously few files ({}) — directory layout changed?",
        files.len()
    );
    files
}

#[test]
fn no_workspace_code_rematerializes_views_on_the_hot_path() {
    let root = workspace_root();
    let mut violations = Vec::new();
    for file in collect_workspace_files(&root) {
        if file == root.join(file!()) {
            continue;
        }
        let Ok(source) = fs::read_to_string(&file) else {
            continue;
        };
        for (line_no, code) in code_lines(&source) {
            for (method, chain) in BANNED_CHAINS {
                if chained_call_at(code, method, chain) {
                    violations.push(format!(
                        "{}:{line_no}: `{method}(…){chain}` re-materializes a borrowed view \
                         — keep the slice/view, or spell an owned copy `.to_owned()`",
                        file.strip_prefix(&root).unwrap_or(&file).display()
                    ));
                }
            }
        }
    }
    assert!(
        violations.is_empty(),
        "hot-path view re-materialization:\n{}",
        violations.join("\n")
    );
}

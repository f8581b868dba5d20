//! Deterministic workspace source walking.
//!
//! The linter visits every Rust source file of the workspace in a
//! **stable order**: the report is byte-deterministic for a given tree,
//! so the walk itself must not introduce filesystem-iteration
//! nondeterminism — the very class of bug the lint exists to catch.
//! Directory entries are therefore sorted byte-wise at every level, and
//! the output is a flat sorted list of workspace-relative paths with
//! forward-slash separators on every platform.

use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into: build output, vendored
/// dependency stand-ins, and VCS/tool metadata.
const SKIP_DIRS: [&str; 5] = ["target", "vendor", ".git", ".github", ".cargo"];

/// A Rust source file found by [`walk_rust_sources`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SourceFile {
    /// Absolute path, for reading.
    pub abs: PathBuf,
    /// Workspace-relative path with `/` separators, for reporting —
    /// identical across platforms so reports are portable.
    pub rel: String,
}

/// Collect every `.rs` file under `root`, depth-first with sorted
/// directory entries, skipping build output and vendored code. The
/// result is sorted by relative path, so two walks of the same tree
/// always agree — on any platform, regardless of readdir order.
pub fn walk_rust_sources(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut out = Vec::new();
    walk_dir(root, root, &mut out)?;
    out.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(out)
}

fn walk_dir(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir)?.map(|e| e.map(|e| e.path())).collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if SKIP_DIRS.contains(&name) || name.starts_with('.') {
                continue;
            }
            walk_dir(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = relative_slash_path(root, &path);
            out.push(SourceFile { abs: path, rel });
        }
    }
    Ok(())
}

/// Render `path` relative to `root` with forward slashes.
fn relative_slash_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let parts: Vec<String> =
        rel.components().map(|c| c.as_os_str().to_string_lossy().into_owned()).collect();
    parts.join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_tree() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dlp-lint-walk-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for sub in ["crates/a/src", "crates/b/src", "target/debug", "vendor/x/src"] {
            std::fs::create_dir_all(dir.join(sub)).unwrap();
        }
        for f in [
            "crates/a/src/lib.rs",
            "crates/a/src/z.rs",
            "crates/b/src/lib.rs",
            "crates/b/README.md",
            "target/debug/junk.rs",
            "vendor/x/src/lib.rs",
        ] {
            std::fs::write(dir.join(f), "// test\n").unwrap();
        }
        dir
    }

    #[test]
    fn walk_is_sorted_and_skips_target_and_vendor() {
        let dir = make_tree();
        let files = walk_rust_sources(&dir).unwrap();
        let rels: Vec<&str> = files.iter().map(|f| f.rel.as_str()).collect();
        assert_eq!(rels, ["crates/a/src/lib.rs", "crates/a/src/z.rs", "crates/b/src/lib.rs"]);
        // Deterministic: a second walk returns the identical list.
        let again = walk_rust_sources(&dir).unwrap();
        assert_eq!(files, again);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

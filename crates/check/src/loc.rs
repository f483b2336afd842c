//! `gtd-check loc` — the non-test line count the ROADMAP reports.
//!
//! The rule: every `.rs` file under `crates/*/src` and `examples/`;
//! a line counts unless it is blank or starts with `//` (comments and
//! doc comments alike), and a file stops counting at its first
//! `#[cfg(test)]` line.

use std::path::Path;

/// Non-test code lines in one file's text.
pub fn count(text: &str) -> usize {
    text.lines()
        .map(str::trim)
        .take_while(|line| !line.starts_with("#[cfg(test)]"))
        .filter(|line| !line.is_empty() && !line.starts_with("//"))
        .count()
}

/// Every counted file under the workspace `root` with its count, keyed
/// by its `/`-separated path relative to `root`, sorted by path.
pub fn census(root: &Path) -> std::io::Result<Vec<(String, usize)>> {
    let mut dirs = vec![root.join("examples")];
    for entry in std::fs::read_dir(root.join("crates"))? {
        dirs.push(entry?.path().join("src"));
    }
    let mut files = Vec::new();
    while let Some(dir) = dirs.pop() {
        if !dir.is_dir() {
            continue;
        }
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path.strip_prefix(root).unwrap_or(&path).components();
                let rel: Vec<_> = rel.map(|c| c.as_os_str().to_string_lossy()).collect();
                files.push((rel.join("/"), count(&std::fs::read_to_string(&path)?)));
            }
        }
    }
    files.sort();
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blank_and_comment_lines_and_everything_from_cfg_test_on_are_skipped() {
        let text = "//! crate doc\n\
                    use std::fmt;\n\
                    \n\
                    /// doc\n\
                    fn f() {\n    \
                        // inside\n    \
                        let x = 1; // trailing comments still count\n\
                    }\n\
                    #[cfg(test)]\n\
                    mod tests {\n\
                    }\n";
        assert_eq!(count(text), 4);
        assert_eq!(count(""), 0);
    }

    #[test]
    fn the_census_covers_crate_sources_and_examples_only() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = census(&root).unwrap();
        let paths: Vec<&str> = files.iter().map(|(p, _)| p.as_str()).collect();
        assert!(paths.contains(&"crates/check/src/loc.rs"));
        assert!(paths.contains(&"crates/check/src/bin/gtd-check.rs"));
        assert!(paths.contains(&"examples/quickstart.rs"));
        assert!(paths
            .iter()
            .all(|p| p.starts_with("examples/") || p.contains("/src/")));
        assert!(paths.windows(2).all(|w| w[0] < w[1]), "sorted, no repeats");
        let this = files.iter().find(|(p, _)| p == "crates/check/src/loc.rs");
        let own = include_str!("loc.rs");
        assert_eq!(this.map(|&(_, n)| n), Some(count(own)));
    }
}

//! EXPERIMENTS.md cites integration tests and benchmark metrics by
//! name. These checks fail when a citation names a test file, a test
//! function or a metric that no longer exists. They only read files.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

const METRIC_LAYERS: [&str; 7] = [
    "runtime.",
    "explore.",
    "httpd.",
    "combinators.",
    "actors.",
    "alloc.",
    "host.",
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: impl AsRef<Path>) -> String {
    let path = root().join(path);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// The backticked spans of a Markdown text without fenced blocks.
fn code_spans(text: &str) -> impl Iterator<Item = &str> {
    text.split('`').skip(1).step_by(2)
}

/// Every integration-test file of the workspace, by file stem:
/// `tests/*.rs` and `crates/*/tests/*.rs`.
fn test_files() -> BTreeMap<String, Vec<PathBuf>> {
    let mut dirs = vec![PathBuf::from("tests")];
    for krate in fs::read_dir(root().join("crates")).unwrap() {
        let tests = krate.unwrap().path().join("tests");
        if tests.is_dir() {
            dirs.push(tests.strip_prefix(root()).unwrap().to_path_buf());
        }
    }
    let mut files: BTreeMap<String, Vec<PathBuf>> = BTreeMap::new();
    for dir in dirs {
        for entry in fs::read_dir(root().join(&dir)).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "rs") {
                let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
                let rel = dir.join(path.file_name().unwrap());
                files.entry(stem).or_default().push(rel);
            }
        }
    }
    files
}

/// Whether `source` defines a function named `name`.
fn defines_fn(source: &str, name: &str) -> bool {
    let needle = format!("fn {name}");
    source.match_indices(&needle).any(|(at, _)| {
        let after = source[at + needle.len()..].chars().next();
        !after.is_some_and(|c| c.is_alphanumeric() || c == '_')
    })
}

fn is_ident(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// `a/{b,c}.rs` as `a/b.rs` and `a/c.rs`.
fn expand_braces(path: &str) -> Vec<String> {
    match (path.find('{'), path.find('}')) {
        (Some(open), Some(close)) if open < close => path[open + 1..close]
            .split(',')
            .flat_map(|alt| expand_braces(&format!("{}{alt}{}", &path[..open], &path[close + 1..])))
            .collect(),
        _ => vec![path.to_owned()],
    }
}

/// `tests/x.rs` and `crates/y/tests/x.rs` paths anywhere in the text
/// (`tests/{x,y}.rs` is two), each with the function it names after
/// `::`, if any. A pattern such as `b2_*` or `sweep_{1k,10k}` names no
/// single function.
fn cited_paths(text: &str) -> Vec<(String, Option<String>)> {
    let is_token = |c: char| c.is_ascii_alphanumeric() || "_./-:*{},".contains(c);
    let mut cited = Vec::new();
    for token in text.split(|c: char| !is_token(c)) {
        let Some(end) = token.find(".rs") else {
            continue;
        };
        let path = &token[..end + 3];
        let start = path
            .find("crates/")
            .filter(|&at| path[at..].contains("/tests/"))
            .or_else(|| path.find("tests/"));
        let Some(start) = start else { continue };
        let path = &path[start..];
        let name = token[end + 3..]
            .strip_prefix("::")
            .map(|rest| rest.trim_end_matches([':', '.', ',']))
            .filter(|name| is_ident(name))
            .map(str::to_owned);
        for path in expand_braces(path) {
            cited.push((path, name.clone()));
        }
    }
    cited
}

#[test]
fn every_cited_test_file_exists_and_defines_the_cited_test() {
    let text = read("EXPERIMENTS.md");
    let mut missing = Vec::new();
    let cited = cited_paths(&text);
    assert!(!cited.is_empty(), "EXPERIMENTS.md cites no test file");
    for (path, name) in cited {
        if !root().join(&path).is_file() {
            missing.push(format!("{path}: no such file"));
        } else if let Some(name) = name {
            if !defines_fn(&read(&path), &name) {
                missing.push(format!("{path}: no fn {name}"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "stale citations:\n{}",
        missing.join("\n")
    );
}

#[test]
fn every_cited_stem_and_test_name_is_a_fn_in_that_file() {
    let text = read("EXPERIMENTS.md");
    let files = test_files();
    let mut checked = 0;
    let mut missing = Vec::new();
    for span in code_spans(&text) {
        let Some((stem, name)) = span.split_once("::") else {
            continue;
        };
        let Some(paths) = files.get(stem) else {
            continue;
        };
        if !is_ident(name) {
            continue;
        }
        checked += 1;
        if !paths.iter().any(|p| defines_fn(&read(p), name)) {
            missing.push(format!("{stem}::{name}"));
        }
    }
    assert!(checked > 0, "EXPERIMENTS.md cites no `file::test` name");
    assert!(
        missing.is_empty(),
        "stale citations:\n{}",
        missing.join("\n")
    );
}

#[test]
fn every_cited_metric_is_a_benchmark_metric() {
    let text = read("EXPERIMENTS.md");
    let metrics = read("crates/benchmark/src/metrics.rs");
    let mut checked = 0;
    let mut missing = Vec::new();
    for span in code_spans(&text) {
        let is_name = span
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '.');
        if !is_name || !METRIC_LAYERS.iter().any(|layer| span.starts_with(layer)) {
            continue;
        }
        checked += 1;
        if !metrics.contains(&format!("\"{span}\"")) {
            missing.push(span.to_owned());
        }
    }
    assert!(checked > 0, "EXPERIMENTS.md cites no metric");
    assert!(
        missing.is_empty(),
        "unknown metrics:\n{}",
        missing.join("\n")
    );
}

//! The docs cite integration tests, benchmark metrics and pins by name.
//! These checks fail when a citation names a test file, a test
//! function, a metric or a pin that no longer exists; when a pin has no
//! reader; when a pinned value is written anywhere but `crates/pins`;
//! and when a new CHANGES.md entry outgrows its cap. They only read
//! files.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// The docs that describe the current system. CHANGES.md and ROADMAP.md
/// are history and plan: they may restate values and cite old names.
const DOCS: [&str; 4] = [
    "EXPERIMENTS.md",
    "DESIGN.md",
    "README.md",
    ".claude/skills/verify/SKILL.md",
];

const CI: &str = ".github/workflows/ci.yml";

const PINS: &str = "crates/pins/src/lib.rs";

/// Values of ≥ 3 digits that appear outside `crates/pins` without
/// restating a pin, as (value, file, reason); an empty file matches
/// every file.
const NOT_RESTATEMENTS: [(&str, &str, &str); 3] = [
    (
        "100000",
        "",
        "the one-shard sweep rate is also the step budget, schedule cap \
         and computation length many programs take as an input",
    ),
    (
        "160",
        "crates/runtime/src/scheduler/mod.rs",
        "the size of a `Thread` in bytes",
    ),
    ("400000", "tests/sync_throwto.rs", "a step budget"),
];

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

/// Every `.rs` file of the workspace outside `crates/pins` and the
/// frozen `crates/benchmark`, relative to the root.
fn rust_files() -> Vec<String> {
    fn walk(dir: &Path, out: &mut Vec<String>) {
        for entry in fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            let rel = path
                .strip_prefix(root())
                .unwrap()
                .to_string_lossy()
                .into_owned();
            if ["target", ".git", "crates/pins", "crates/benchmark"].contains(&rel.as_str()) {
                continue;
            }
            if path.is_dir() {
                walk(&path, out);
            } else if rel.ends_with(".rs") {
                out.push(rel);
            }
        }
    }
    let mut files = Vec::new();
    walk(root(), &mut files);
    files.sort();
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
    let mut cited = 0;
    let mut missing = Vec::new();
    for doc in DOCS {
        for (path, name) in cited_paths(&read(doc)) {
            cited += 1;
            if !root().join(&path).is_file() {
                missing.push(format!("{doc}: {path}: no such file"));
            } else if let Some(name) = name {
                if !defines_fn(&read(&path), &name) {
                    missing.push(format!("{doc}: {path}: no fn {name}"));
                }
            }
        }
    }
    assert!(cited > 0, "the docs cite no test file");
    assert!(
        missing.is_empty(),
        "stale citations:\n{}",
        missing.join("\n")
    );
}

#[test]
fn every_cited_stem_and_test_name_is_a_fn_in_that_file() {
    let files = test_files();
    let mut checked = 0;
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = read(doc);
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
                missing.push(format!("{doc}: {stem}::{name}"));
            }
        }
    }
    assert!(checked > 0, "the docs cite no `file::test` name");
    assert!(
        missing.is_empty(),
        "stale citations:\n{}",
        missing.join("\n")
    );
}

#[test]
fn every_cited_metric_is_a_benchmark_metric() {
    let metrics = read("crates/benchmark/src/metrics.rs");
    let mut checked = 0;
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = read(doc);
        for span in code_spans(&text) {
            let is_name = span
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '.');
            let is_file = [".rs", ".md", ".toml", ".json"]
                .iter()
                .any(|ext| span.ends_with(ext));
            if !is_name || is_file || !METRIC_LAYERS.iter().any(|layer| span.starts_with(layer)) {
                continue;
            }
            checked += 1;
            if !metrics.contains(&format!("\"{span}\"")) {
                missing.push(format!("{doc}: {span}"));
            }
        }
    }
    assert!(checked > 0, "the docs cite no metric");
    assert!(
        missing.is_empty(),
        "unknown metrics:\n{}",
        missing.join("\n")
    );
}

// ------------------------------------------------------------- pins

/// One `pub const` of `crates/pins`.
struct Pin {
    name: String,
    /// The value's numbers of ≥ 3 digits, written as [`number_token`]
    /// writes them.
    numbers: Vec<String>,
    /// Read by CI's "Pin interpreter layer counts" step.
    measured: bool,
}

fn pins() -> Vec<Pin> {
    let text = read(PINS);
    let mut pins = Vec::new();
    for (at, _) in text.match_indices("\npub const ") {
        let rest = &text[at + "\npub const ".len()..];
        let name = &rest[..rest.find(':').expect("a typed const")];
        let value = &rest[rest.find(" = ").expect("a value") + 3..];
        let value = &value[..value.find(";\n").expect("a `;`")];
        let doc_line = text[..at].rsplit('\n').next().unwrap_or("");
        pins.push(Pin {
            name: name.to_owned(),
            numbers: numbers(value),
            measured: doc_line.starts_with("/// `measure` "),
        });
    }
    assert!(pins.len() > 50, "{PINS} has only {} pins", pins.len());
    pins
}

/// `1_587_301.6` as `1587301.6` and `100_000.0` as `100000`: the
/// spelling both a pin's value and a scanned text are compared in.
fn number_token(literal: &str) -> String {
    let digits: String = literal.chars().filter(|&c| c != '_').collect();
    digits.strip_suffix(".0").unwrap_or(&digits).to_owned()
}

/// The numeric literals of ≥ 3 digits in a pin's value.
fn numbers(value: &str) -> Vec<String> {
    let value = join_thousands(value);
    tokens(&value)
        .filter(|t| t.chars().all(|c| c.is_ascii_digit() || c == '.'))
        .filter(|t| t.chars().filter(char::is_ascii_digit).count() >= 3)
        .collect()
}

/// `text` with the thousands separators ` `, `_` and `,` removed: one
/// between a digit and exactly three digits goes, so `88 746`,
/// `88_746` and `88,746` all read `88746`.
fn join_thousands(text: &str) -> String {
    let chars: Vec<char> = text.chars().collect();
    let digit = |i: usize| chars.get(i).is_some_and(char::is_ascii_digit);
    let mut out = String::with_capacity(text.len());
    for (i, &c) in chars.iter().enumerate() {
        let separator = " _,".contains(c)
            && i > 0
            && digit(i - 1)
            && (1..=3).all(|k| digit(i + k))
            && !digit(i + 4);
        if !separator {
            out.push(c);
        }
    }
    out
}

/// The whole tokens of one line, numbers spelled as [`number_token`]
/// spells them.
fn tokens(line: &str) -> impl Iterator<Item = String> + '_ {
    line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '.'))
        .map(|t| number_token(t.trim_end_matches('.')))
}

/// `pins::<NAME>` citations in `text`, with their 1-based line.
fn pin_citations(text: &str) -> Vec<(usize, &str, String)> {
    let mut cited = Vec::new();
    for (n, line) in text.lines().enumerate() {
        for (at, _) in line.match_indices("pins::") {
            let before = line[..at].chars().next_back();
            if before.is_some_and(|c| c.is_alphanumeric() || c == '_') {
                continue;
            }
            let rest = &line[at + "pins::".len()..];
            let end = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .unwrap_or(rest.len());
            if end > 0 {
                cited.push((n + 1, line, rest[..end].to_owned()));
            }
        }
    }
    cited
}

#[test]
fn every_cited_pin_exists() {
    let names: BTreeSet<String> = pins().into_iter().map(|p| p.name).collect();
    let mut sources: Vec<String> = DOCS.iter().map(|d| (*d).to_owned()).collect();
    sources.push(CI.to_owned());
    sources.extend(rust_files());
    let mut cited = 0;
    let mut missing = Vec::new();
    for source in sources {
        for (line, _, name) in pin_citations(&read(&source)) {
            cited += 1;
            if !names.contains(&name) {
                missing.push(format!("{source}:{line}: pins::{name}"));
            }
        }
    }
    assert!(cited > 0, "nothing cites a pin");
    assert!(missing.is_empty(), "unknown pins:\n{}", missing.join("\n"));
}

#[test]
fn every_pin_has_a_reader() {
    let mut read_in_code = BTreeSet::new();
    for file in rust_files() {
        for (_, line, name) in pin_citations(&read(&file)) {
            if !line.trim_start().starts_with("//") {
                read_in_code.insert(name);
            }
        }
    }
    let ci = read(CI);
    let ci_reads_pins = ci.contains(PINS) && ci.contains("/// `measure` ");
    let unread: Vec<String> = pins()
        .into_iter()
        .filter(|p| !(read_in_code.contains(&p.name) || (p.measured && ci_reads_pins)))
        .map(|p| p.name)
        .collect();
    assert!(
        unread.is_empty(),
        "pins nothing reads:\n{}",
        unread.join("\n")
    );
}

#[test]
fn no_pinned_value_is_written_outside_crates_pins() {
    let mut owners: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for pin in pins() {
        for number in pin.numbers {
            owners.entry(number).or_default().push(pin.name.clone());
        }
    }
    let mut sources: Vec<String> = DOCS.iter().map(|d| (*d).to_owned()).collect();
    sources.push(CI.to_owned());
    // This file is left out: its exception list spells the values.
    sources.extend(
        rust_files()
            .into_iter()
            .filter(|f| f != "tests/experiments_citations.rs"),
    );
    let mut restated = Vec::new();
    for source in sources {
        let text = join_thousands(&read(&source));
        for (n, line) in text.lines().enumerate() {
            for token in tokens(line) {
                let Some(names) = owners.get(&token) else {
                    continue;
                };
                let excepted = NOT_RESTATEMENTS.iter().any(|(value, file, _)| {
                    *value == token && (file.is_empty() || *file == source)
                });
                if !excepted {
                    restated.push(format!(
                        "{source}:{}: {token} restates pins::{}",
                        n + 1,
                        names.join(" / pins::")
                    ));
                }
            }
        }
    }
    assert!(
        restated.is_empty(),
        "cite these by `pins::<NAME>`:\n{}",
        restated.join("\n")
    );
}

// ------------------------------------------------------------- CHANGES.md

/// The first PR whose CHANGES.md text is capped; detail belongs in the
/// commit message.
const FIRST_CAPPED_PR: u32 = 48;

const MAX_ENTRY_CHARS: usize = 600;

/// N of a `- PR N …` entry line.
fn pr_number(line: &str) -> Option<u32> {
    let rest = line.strip_prefix("- PR ")?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[test]
fn new_changes_entries_stay_short() {
    let text = read("CHANGES.md");
    let lines: Vec<&str> = text.lines().collect();
    let mut capped = false;
    let mut long = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let line = lines[i];
        if let Some(pr) = pr_number(line) {
            let mut chars = line.chars().count();
            i += 1;
            while i < lines.len() && lines[i].starts_with(' ') {
                chars += 1 + lines[i].chars().count();
                i += 1;
            }
            capped |= pr >= FIRST_CAPPED_PR;
            if pr >= FIRST_CAPPED_PR && chars > MAX_ENTRY_CHARS {
                long.push(format!("PR {pr}: {chars} characters"));
            }
            continue;
        }
        let chars = line.chars().count();
        if capped && line.starts_with("FOUND:") && chars > MAX_ENTRY_CHARS {
            long.push(format!("line {}: FOUND of {chars} characters", i + 1));
        }
        i += 1;
    }
    assert!(
        long.is_empty(),
        "CHANGES.md text over {MAX_ENTRY_CHARS} characters:\n{}",
        long.join("\n")
    );
}

//! Markdown cross-link check: every relative link in the root documents
//! (README, ARCHITECTURE, ROADMAP, CHANGES) must point at a file or
//! directory that actually exists, so the docs cannot rot when a PR moves
//! a seam. CI runs this as its own leg (`cargo test -p sbcc --test
//! doc_links`) next to the rustdoc `-D warnings` pass, which covers the
//! intra-doc links on the Rust side. The same leg checks that every
//! `repro --flag` the docs and the CI workflow show still exists in
//! `repro --help`, that every source file the docs name in backticks
//! still exists, and that every `*.md` file a rustdoc comment names does.

use std::path::Path;

/// Extract `](target)` link targets from markdown, ignoring code spans.
fn link_targets(markdown: &str) -> Vec<String> {
    let mut targets = Vec::new();
    let mut in_code_block = false;
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            in_code_block = !in_code_block;
            continue;
        }
        if in_code_block {
            continue;
        }
        let mut rest = line;
        while let Some(open) = rest.find("](") {
            let tail = &rest[open + 2..];
            let Some(close) = tail.find(')') else {
                break;
            };
            targets.push(tail[..close].to_owned());
            rest = &tail[close + 1..];
        }
    }
    targets
}

#[test]
fn relative_links_in_root_docs_resolve() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let docs = ["README.md", "ARCHITECTURE.md", "ROADMAP.md", "CHANGES.md"];
    let mut broken = Vec::new();
    let mut checked = 0usize;
    for doc in docs {
        let path = root.join(doc);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{doc} must exist at the repo root: {e}"));
        for target in link_targets(&text) {
            // External links and pure anchors are out of scope here.
            if target.contains("://") || target.starts_with('#') || target.starts_with("mailto:") {
                continue;
            }
            let file = target.split('#').next().unwrap_or(&target);
            if file.is_empty() {
                continue;
            }
            checked += 1;
            if !root.join(file).exists() {
                broken.push(format!("{doc}: ]({target})"));
            }
        }
    }
    assert!(
        checked >= 10,
        "the root docs should cross-link each other (found only {checked} relative links)"
    );
    assert!(
        broken.is_empty(),
        "broken relative links:\n{}",
        broken.join("\n")
    );
}

#[test]
fn readme_covers_the_required_sections() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md exists");
    for needle in [
        "Beyond Commutativity",                   // what the paper is
        "Crate map",                              // the crate map
        "Quickstart",                             // the quickstart
        "cargo build --release && cargo test -q", // the tier-1 command
        "ARCHITECTURE.md",
        "ROADMAP.md",
        "BENCHMARK.json",
        "bench/README.md",
    ] {
        assert!(readme.contains(needle), "README.md must mention {needle:?}");
    }
}

/// The Rust source files a document names in inline code spans:
/// `crates/…/x.rs` or `bench/…/x.rs`, with an optional `:line` suffix
/// stripped (`{a,b}` shorthands are not paths and are skipped).
fn source_paths(markdown: &str) -> Vec<String> {
    let mut paths = Vec::new();
    let mut in_code_block = false;
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            in_code_block = !in_code_block;
            continue;
        }
        if in_code_block {
            continue;
        }
        for span in line.split('`').skip(1).step_by(2) {
            let path = span.split(':').next().unwrap_or(span);
            let named = (path.starts_with("crates/") || path.starts_with("bench/"))
                && path.ends_with(".rs")
                && !path.contains(|c: char| c.is_whitespace() || c == '{');
            if named {
                paths.push(path.to_owned());
            }
        }
    }
    paths
}

/// A source file that moved or split must not leave its old path behind
/// in the docs that describe the present tree (CHANGES.md is history and
/// keeps the names of retired files).
#[test]
fn source_files_named_in_the_docs_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0usize;
    let mut missing = Vec::new();
    for doc in ["README.md", "ARCHITECTURE.md", "ROADMAP.md"] {
        let text = std::fs::read_to_string(root.join(doc)).expect("root doc exists");
        for path in source_paths(&text) {
            checked += 1;
            if !root.join(&path).is_file() {
                missing.push(format!("{doc}: `{path}`"));
            }
        }
    }
    assert!(
        checked >= 10,
        "the docs should name source files (found {checked})"
    );
    assert!(
        missing.is_empty(),
        "source files named in the docs but absent:\n{}",
        missing.join("\n")
    );
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("source directory is readable") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// A rustdoc comment that sends the reader to a `*.md` document must
/// name one that exists, relative to the repository root.
#[test]
fn markdown_files_named_in_rustdoc_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "src", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    let is_path_char = |c: char| c.is_ascii_alphanumeric() || "_-./".contains(c);
    let mut checked = 0usize;
    let mut missing = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(&file).expect("source file is readable");
        for (n, line) in text.lines().enumerate() {
            let line = line.trim_start();
            if !(line.starts_with("//!") || line.starts_with("///")) {
                continue;
            }
            for word in line.split(|c: char| !is_path_char(c)) {
                if word.len() > 3 && word.ends_with(".md") {
                    checked += 1;
                    if !root.join(word).is_file() {
                        let at = file.strip_prefix(root).unwrap_or(&file).display();
                        missing.push(format!("{at}:{}: {word}", n + 1));
                    }
                }
            }
        }
    }
    assert!(
        checked >= 3,
        "rustdoc should point at the root docs (found {checked} mentions)"
    );
    assert!(
        missing.is_empty(),
        "documents named in rustdoc but absent:\n{}",
        missing.join("\n")
    );
}

/// The `--flag`s a document attributes to the `repro` binary: every flag
/// in the run of `--flag [value]` tokens that follows a word ending in
/// `repro` (`repro --serve --addr A`, `--bin repro -- --table 3`), and,
/// for `cargo run -p sbcc-experiments --features dst -- --dst`, the flags
/// after cargo's `--` separator.
fn repro_flags(markdown: &str) -> Vec<String> {
    let trim = |tok: &str| {
        tok.trim_matches(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .to_owned()
    };
    let mut flags = Vec::new();
    let mut tokens = markdown.split_whitespace().map(trim).peekable();
    while let Some(tok) = tokens.next() {
        let via_cargo = tok == "sbcc-experiments";
        if !via_cargo && !tok.ends_with("repro") {
            continue;
        }
        // After the package name the flags are cargo's until its `--`.
        let mut ours = !via_cargo;
        let mut value_allowed = false;
        while let Some(next) = tokens.peek() {
            if next.len() > 2 && next.starts_with("--") {
                if ours {
                    flags.push(next.clone());
                }
                value_allowed = true;
            } else if next == "--" {
                ours = true;
                value_allowed = false;
            } else if value_allowed {
                // The one value a flag may take.
                value_allowed = false;
            } else {
                break;
            }
            tokens.next();
        }
    }
    flags
}

/// A flag retired from `repro` must not survive in the docs that describe
/// the present tree, nor in a CI leg that would invoke it. (CHANGES.md and
/// ROADMAP.md are exempt: history lines keep the names of retired flags
/// and open items name future ones.)
#[test]
fn repro_flags_in_the_docs_exist_in_the_usage_text() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let main = std::fs::read_to_string(root.join("crates/experiments/src/main.rs"))
        .expect("repro's main.rs exists");
    let usage = main
        .split("fn usage()")
        .nth(1)
        .expect("main.rs defines usage()");
    let usage = usage.split("\nfn ").next().unwrap_or(usage);
    let mut checked = 0usize;
    let mut stale = Vec::new();
    for doc in ["README.md", "ARCHITECTURE.md", ".github/workflows/ci.yml"] {
        let text = std::fs::read_to_string(root.join(doc)).expect("root doc exists");
        for flag in repro_flags(&text) {
            checked += 1;
            if !usage.contains(&flag) {
                stale.push(format!("{doc}: repro {flag}"));
            }
        }
    }
    assert!(
        checked >= 5,
        "the docs should show repro invocations (found {checked} flags)"
    );
    assert!(
        stale.is_empty(),
        "flags missing from `repro --help`:\n{}",
        stale.join("\n")
    );
}

//! The option surface, pinned: every field of the four configuration
//! structs and every `SBCC_*` environment variable the library reads.
//! ARCHITECTURE.md ("Options") lists each with who sets which values; an
//! option stays only while two non-test callers need different values, so
//! adding one must fail here until that table says who they are.

use sbcc::core::{DatabaseConfig, SchedulerConfig, WalConfig};
use sbcc::net::ServerConfig;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Destructured without `..`: a new field does not compile until it is
/// added here and to the ARCHITECTURE.md table.
#[test]
fn config_structs_have_exactly_the_documented_fields() {
    let SchedulerConfig {
        policy: _,
        fair_scheduling: _,
        record_history: _,
    } = SchedulerConfig::default();
    let DatabaseConfig {
        scheduler: _,
        shards: _,
        wal,
    } = DatabaseConfig::default();
    assert_eq!(wal, None, "durability is opt-in through `with_wal` alone");
    let WalConfig { dir: _, fsync: _ } = WalConfig::new("unused");
    let ServerConfig {
        addr: _,
        workers: _,
        read_timeout: _,
    } = ServerConfig::default();
}

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

/// The `SBCC_*` names `crates/*/src` passes to `std::env::var` /
/// `var_os`, as a literal or through a `const NAME: &str = "…"`.
#[test]
fn the_library_reads_exactly_one_sbcc_environment_variable() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/ exists") {
        let src = krate.expect("directory entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let mut consts = BTreeMap::new();
    let mut args = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).expect("source file is readable");
        for line in text.lines().map(str::trim_start) {
            if line.starts_with("//") {
                continue;
            }
            if let Some((name, value)) = line
                .strip_prefix("pub const ")
                .or_else(|| line.strip_prefix("const "))
                .and_then(|decl| decl.split_once(": &str = \""))
            {
                let value = value.split('"').next().unwrap_or(value);
                consts.insert(name.to_owned(), value.to_owned());
            }
            for call in ["env::var(", "env::var_os("] {
                for tail in line.split(call).skip(1) {
                    let arg = tail.split(')').next().unwrap_or(tail).trim();
                    args.push((file.display().to_string(), arg.to_owned()));
                }
            }
        }
    }
    let mut read = BTreeSet::new();
    for (file, arg) in args {
        let name = match arg.strip_prefix('"') {
            Some(literal) => literal.trim_end_matches('"').to_owned(),
            None => consts
                .get(&arg)
                .unwrap_or_else(|| panic!("{file}: cannot resolve env::var({arg})"))
                .clone(),
        };
        if name.starts_with("SBCC_") {
            read.insert(name);
        }
    }
    assert_eq!(read, BTreeSet::from(["SBCC_SHARDS".to_owned()]));
}

//! Source lint: no unordered-collection iteration in any crate.
//!
//! Every artifact this repo emits (sweep JSON/CSV, leakage maps,
//! forensics.json, AUDIT.json, telemetry) is contractually byte-identical
//! across runs and thread counts. The classic way that contract rots is a
//! `HashMap`/`HashSet` whose iteration order silently reaches an
//! artifact. This lint scans the sources of every crate under `crates/`
//! (probe orders, program data and resampling draws reach artifacts from
//! all of them) and fails on any line mentioning `HashMap` or `HashSet`
//! that does not carry an explicit `// lint: ordered` waiver.
//!
//! A waiver asserts the collection is *never iterated* (pure lookup
//! tables like `Mix64Map`) or iterated only for membership-style
//! assertions in tests. Use `BTreeMap`/`BTreeSet` anywhere order can
//! reach output.

use std::fs;
use std::path::{Path, PathBuf};

const WAIVER: &str = "// lint: ordered";

/// The `src` directory of every crate under `crates/`, in name order.
fn crate_sources(root: &Path) -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/ is readable")
        .map(|e| e.expect("crates/ entry").path())
        .filter(|p| p.is_dir())
        .map(|p| p.join("src"))
        .collect();
    dirs.sort();
    dirs
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            rust_sources(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

#[test]
fn artifact_crates_do_not_iterate_unordered_collections() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut violations = Vec::new();
    let mut scanned = 0usize;
    for src in crate_sources(root) {
        let mut files = Vec::new();
        rust_sources(&src, &mut files);
        assert!(!files.is_empty(), "no sources under {}", src.display());
        for file in files {
            let text = fs::read_to_string(&file).expect("readable source");
            scanned += 1;
            for (i, line) in text.lines().enumerate() {
                let has_hash = line.contains("HashMap") || line.contains("HashSet");
                if has_hash && !line.contains(WAIVER) {
                    violations.push(format!(
                        "{}:{}: {}",
                        file.strip_prefix(root).unwrap_or(&file).display(),
                        i + 1,
                        line.trim()
                    ));
                }
            }
        }
    }
    assert!(scanned > 20, "lint scanned suspiciously few files ({scanned})");
    assert!(
        violations.is_empty(),
        "unordered collections in artifact crates without `{WAIVER}` waiver \
         (use BTreeMap/BTreeSet, or add the waiver if never iterated):\n{}",
        violations.join("\n")
    );
}

#[test]
fn lint_covers_the_crash_safety_modules() {
    // The crash-safety layer (shard/checkpoint codecs in sweep, the
    // failpoint registry and atomic writer in obs) serializes artifacts
    // and replays them on resume — exactly where unordered iteration
    // would silently break resume-equality. Make sure a future module
    // move keeps them inside the lint's scan set.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for src in crate_sources(root) {
        rust_sources(&src, &mut files);
    }
    for required in [
        "crates/sweep/src/record.rs",
        "crates/sweep/src/shard.rs",
        "crates/sweep/src/checkpoint.rs",
        "crates/sweep/src/lease.rs",
        "crates/sweep/src/serve.rs",
        "crates/obs/src/failpoint.rs",
        "crates/obs/src/fsio.rs",
    ] {
        assert!(
            files.iter().any(|f| f.ends_with(required)),
            "{required} is no longer scanned by the determinism lint — \
             moved crates must stay under crates/"
        );
    }
}

#[test]
fn waivers_are_not_stale() {
    // Every waiver must still sit on a line that needs it; a waiver on a
    // HashMap-free line is leftover noise from a refactor.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut stale = Vec::new();
    for src in crate_sources(root) {
        let mut files = Vec::new();
        rust_sources(&src, &mut files);
        for file in files {
            let text = fs::read_to_string(&file).expect("readable source");
            for (i, line) in text.lines().enumerate() {
                if line.contains(WAIVER)
                    && !line.contains("HashMap")
                    && !line.contains("HashSet")
                    && !line.contains("WAIVER")
                {
                    stale.push(format!(
                        "{}:{}: {}",
                        file.strip_prefix(root).unwrap_or(&file).display(),
                        i + 1,
                        line.trim()
                    ));
                }
            }
        }
    }
    assert!(stale.is_empty(), "stale `{WAIVER}` waivers:\n{}", stale.join("\n"));
}

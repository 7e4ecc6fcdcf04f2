//! Diagnostic-code registry: the workspace-wide invariants every `Xnnn`
//! code must satisfy.
//!
//! This test walks `crates/*/src` for *emitted* codes (both the
//! `Diagnostic::error("X123", …)` constructor family — which rustfmt may
//! split across lines — and the `code: "X123"` struct-literal form) and
//! then enforces:
//!
//! 1. every emitted code appears in the DESIGN.md catalog (en-dash ranges
//!    like `C030–C038` count as enumerations),
//! 2. no two crates emit the same code, except the deliberately shared
//!    boundary codes (`C002` config-assembly and `P010` budget-admission
//!    are raised both by the library that owns them and by the surfaces
//!    that re-check them),
//! 3. every code is exercised by at least one test — a quoted reference
//!    anywhere in `tests/`, `crates/*/tests/`, or a `#[cfg(test)]` module.
//!
//! Adding a diagnostic without documenting and testing it fails here, not
//! in review.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/..")).to_path_buf()
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            walk_rs(&path, out);
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
}

/// `X123` — one uppercase letter, three ASCII digits.
fn is_code(s: &str) -> bool {
    let b = s.as_bytes();
    b.len() == 4 && b[0].is_ascii_uppercase() && b[1..].iter().all(u8::is_ascii_digit)
}

/// The part of a source file that compiles into the library: everything
/// before the first `#[cfg(test)]`. Codes constructed in test modules are
/// references, not emissions.
fn production_slice(text: &str) -> &str {
    match text.find("#[cfg(test)]") {
        Some(i) => &text[..i],
        None => text,
    }
}

fn test_slice(text: &str) -> &str {
    match text.find("#[cfg(test)]") {
        Some(i) => &text[i..],
        None => "",
    }
}

/// Codes a source fragment emits. The constructor form tolerates
/// whitespace (rustfmt line breaks) between `(` and the code literal; the
/// struct-literal form requires the quote to follow `code: ` directly.
fn emitted_codes(text: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let markers: [(&str, bool); 4] = [
        ("Diagnostic::error(", true),
        ("Diagnostic::warning(", true),
        ("Diagnostic::info(", true),
        ("code: \"", false),
    ];
    for (marker, skip_to_quote) in markers {
        let mut rest = text;
        while let Some(pos) = rest.find(marker) {
            rest = &rest[pos + marker.len()..];
            let candidate = if skip_to_quote {
                match rest.trim_start().strip_prefix('"') {
                    Some(c) => c,
                    // Dynamic code argument — not a literal emission site.
                    None => continue,
                }
            } else {
                rest
            };
            if candidate.len() > 4 && is_code(&candidate[..4]) && candidate.as_bytes()[4] == b'"' {
                out.insert(candidate[..4].to_string());
            }
        }
    }
    out
}

/// Codes the DESIGN.md catalog declares: bare `X123` tokens plus en-dash
/// ranges `X123–X456`, expanded inclusively.
fn cataloged_codes(text: &str) -> BTreeSet<String> {
    let chars: Vec<char> = text.chars().collect();
    let code_at = |i: usize| -> Option<String> {
        if i + 4 > chars.len() {
            return None;
        }
        let tok: String = chars[i..i + 4].iter().collect();
        if !is_code(&tok) {
            return None;
        }
        if i > 0 && chars[i - 1].is_ascii_alphanumeric() {
            return None;
        }
        if chars.get(i + 4).is_some_and(|c| c.is_ascii_digit()) {
            return None;
        }
        Some(tok)
    };
    let mut out = BTreeSet::new();
    let mut i = 0;
    while i < chars.len() {
        let Some(start) = code_at(i) else {
            i += 1;
            continue;
        };
        let mut consumed = 4;
        if chars.get(i + 4) == Some(&'–') {
            if let Some(end) = code_at(i + 5) {
                if end.as_bytes()[0] == start.as_bytes()[0] {
                    let letter = &start[..1];
                    let lo: u32 = start[1..].parse().unwrap_or(0);
                    let hi: u32 = end[1..].parse().unwrap_or(0);
                    for n in lo..=hi {
                        out.insert(format!("{letter}{n:03}"));
                    }
                    consumed = 9;
                }
            }
        }
        out.insert(start);
        i += consumed;
    }
    out
}

struct Registry {
    /// code → crates that emit it from production code.
    emitted: BTreeMap<String, BTreeSet<String>>,
    /// Concatenated test code: tests/, crates/*/tests/, `#[cfg(test)]` tails.
    test_corpus: String,
}

fn scan_workspace() -> Registry {
    let root = repo_root();
    let mut emitted: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut test_corpus = String::new();

    let crates_dir = root.join("crates");
    for entry in std::fs::read_dir(&crates_dir).expect("crates/ must exist").flatten() {
        let crate_dir = entry.path();
        let crate_name = entry.file_name().to_string_lossy().into_owned();
        let mut files = Vec::new();
        walk_rs(&crate_dir.join("src"), &mut files);
        for file in files {
            let text = std::fs::read_to_string(&file).expect("readable source");
            for code in emitted_codes(production_slice(&text)) {
                emitted.entry(code).or_default().insert(crate_name.clone());
            }
            test_corpus.push_str(test_slice(&text));
            test_corpus.push('\n');
        }
        let mut crate_tests = Vec::new();
        walk_rs(&crate_dir.join("tests"), &mut crate_tests);
        for file in crate_tests {
            test_corpus.push_str(&std::fs::read_to_string(&file).expect("readable test"));
            test_corpus.push('\n');
        }
    }
    let mut ws_tests = Vec::new();
    walk_rs(&root.join("tests"), &mut ws_tests);
    for file in ws_tests {
        test_corpus.push_str(&std::fs::read_to_string(&file).expect("readable test"));
        test_corpus.push('\n');
    }
    Registry { emitted, test_corpus }
}

#[test]
fn every_emitted_code_is_cataloged_in_design_md() {
    let reg = scan_workspace();
    assert!(
        reg.emitted.len() >= 60,
        "scanner found only {} codes — the emission patterns have drifted",
        reg.emitted.len()
    );
    let design = std::fs::read_to_string(repo_root().join("DESIGN.md")).expect("DESIGN.md");
    let catalog = cataloged_codes(&design);
    let missing: Vec<&String> = reg.emitted.keys().filter(|c| !catalog.contains(*c)).collect();
    assert!(missing.is_empty(), "codes emitted but absent from the DESIGN.md catalog: {missing:?}");
}

#[test]
fn no_code_is_emitted_by_two_crates_without_a_shared_boundary_contract() {
    // C002 (config/grid assembly) and P010 (predicted-cost admission) are
    // raised both by the owning library and the surfaces that re-check
    // them; everything else must have exactly one emitting crate.
    let allow_shared: BTreeSet<&str> = ["C002", "P010"].into_iter().collect();
    let reg = scan_workspace();
    let duplicated: Vec<String> = reg
        .emitted
        .iter()
        .filter(|(code, crates)| crates.len() > 1 && !allow_shared.contains(code.as_str()))
        .map(|(code, crates)| format!("{code} emitted by {crates:?}"))
        .collect();
    assert!(duplicated.is_empty(), "duplicate code ownership: {duplicated:?}");
}

#[test]
fn every_emitted_code_is_referenced_by_at_least_one_test() {
    let reg = scan_workspace();
    let unreferenced: Vec<&String> = reg
        .emitted
        .keys()
        .filter(|code| !reg.test_corpus.contains(&format!("\"{code}\"")))
        .collect();
    assert!(unreferenced.is_empty(), "codes with no quoted test reference: {unreferenced:?}");
}

#[test]
fn range_expansion_understands_the_catalog_notation() {
    let got = cataloged_codes("| L201–L203 | lanes |\nplus C050 and the W205 row.");
    let want: BTreeSet<String> =
        ["L201", "L202", "L203", "C050", "W205"].map(String::from).into_iter().collect();
    assert_eq!(got, want);
    // Boundary guards: no match inside identifiers or longer digit runs.
    assert!(cataloged_codes("xC050 C0505").is_empty());
}

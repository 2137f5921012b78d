//! Keeps each library crate's API to what other units use: every
//! `pub fn` (or `pub const fn`) in `crates/*/src`, outside `src/bin` and
//! above the file's first `#[cfg(test)] mod`, must be named by another
//! unit. rustc's `dead_code` lint checks `pub(crate)` and private items
//! but skips `pub` ones, so a `pub fn` that nothing outside its crate
//! calls is dead code that only this test can see.
//!
//! A unit is one compilation target: another crate's `src` (its
//! binaries included), the crate's own `src/bin`, `tests`, `examples`
//! and `benches`, the root package (`src`, `tests`, `examples`), or
//! `perfbench/src` and `perfbench/tests`. Doc-comment code counts as
//! another unit, the crate's own included, because doctests compile as
//! external crates. A name counts as used if it occurs as an identifier
//! there, with comments and string literals stripped. The match is by
//! name alone, so a `new` anywhere covers every `pub fn new`.

use std::collections::{BTreeSet, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

/// `pub fn`s that may stay unnamed outside their crate, with the reason.
const ALLOWED: &[(&str, &str)] = &[(
    "write_stdout",
    "the emc-bench binaries reach it through the `out!` and `outln!` \
     macros, which expand to `$crate::cli::write_stdout`",
)];

/// This file names crate functions in its allowlist and reads like Rust
/// code to itself, so it is not a unit.
const SELF_PATH: &str = "tests/api_surface.rs";

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.map(|e| e.expect("readable entry").path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n != "target") {
                rs_files(&p, out);
            }
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// `src` with comments and string and char literals blanked to spaces,
/// newlines kept, so byte offsets and line numbers still match.
fn strip(src: &str) -> Vec<u8> {
    let s = src.as_bytes();
    let mut out = s.to_vec();
    let blank = |out: &mut Vec<u8>, from: usize, to: usize| {
        for b in &mut out[from..to] {
            if *b != b'\n' {
                *b = b' ';
            }
        }
    };
    let n = s.len();
    let mut i = 0;
    while i < n {
        let prev_ident = i > 0 && is_ident_byte(s[i - 1]);
        if s[i..].starts_with(b"//") {
            let end = s[i..].iter().position(|&b| b == b'\n').map_or(n, |k| i + k);
            blank(&mut out, i, end);
            i = end;
        } else if s[i..].starts_with(b"/*") {
            let (mut depth, mut j) = (1, i + 2);
            while j < n && depth > 0 {
                if s[j..].starts_with(b"/*") {
                    depth += 1;
                    j += 2;
                } else if s[j..].starts_with(b"*/") {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            blank(&mut out, i, j);
            i = j;
        } else if !prev_ident && (s[i] == b'r' || s[i..].starts_with(b"br")) && {
            let k = i + if s[i] == b'r' { 1 } else { 2 };
            let hashes = s[k..].iter().take_while(|&&b| b == b'#').count();
            s.get(k + hashes) == Some(&b'"')
        } {
            let k = i + if s[i] == b'r' { 1 } else { 2 };
            let hashes = s[k..].iter().take_while(|&&b| b == b'#').count();
            let mut close = vec![b'"'];
            close.extend(std::iter::repeat_n(b'#', hashes));
            let body = k + hashes + 1;
            let end = s[body..]
                .windows(close.len())
                .position(|w| w == close.as_slice())
                .map_or(n, |p| body + p + close.len());
            blank(&mut out, i, end);
            i = end;
        } else if s[i] == b'"' {
            let mut j = i + 1;
            while j < n && s[j] != b'"' {
                j += if s[j] == b'\\' { 2 } else { 1 };
            }
            let end = (j + 1).min(n);
            blank(&mut out, i, end);
            i = end;
        } else if s[i] == b'\'' {
            // A char literal, or the start of a lifetime or label.
            let end = if s.get(i + 1) == Some(&b'\\') {
                // The escaped character itself may be a quote: `'\''`.
                s.get(i + 3..)
                    .and_then(|rest| rest.iter().position(|&b| b == b'\''))
                    .map(|p| i + 4 + p)
            } else {
                let width = match s.get(i + 1) {
                    Some(&b) if b >= 0xf0 => 4,
                    Some(&b) if b >= 0xe0 => 3,
                    Some(&b) if b >= 0xc0 => 2,
                    _ => 1,
                };
                (s.get(i + 1 + width) == Some(&b'\'')).then_some(i + 2 + width)
            };
            match end {
                Some(end) => {
                    blank(&mut out, i, end);
                    i = end;
                }
                None => i += 1,
            }
        } else {
            i += 1;
        }
    }
    out
}

/// The code of the Rust fences in `src`'s `///` and `//!` comments.
fn doc_code(src: &str) -> String {
    let mut code = String::new();
    let mut fence: Option<bool> = None; // Some(compiled) inside a fence
    for line in src.lines() {
        let trimmed = line.trim_start();
        let Some(body) = trimmed
            .strip_prefix("///")
            .or_else(|| trimmed.strip_prefix("//!"))
        else {
            fence = None;
            continue;
        };
        let body = body.strip_prefix(' ').unwrap_or(body);
        if let Some(info) = body.trim_start().strip_prefix("```") {
            fence = match fence {
                Some(_) => None,
                None => Some(info.split(',').map(str::trim).all(|tag| {
                    matches!(
                        tag,
                        "" | "rust"
                            | "no_run"
                            | "should_panic"
                            | "compile_fail"
                            | "edition2018"
                            | "edition2021"
                    )
                })),
            };
            continue;
        }
        if fence == Some(true) {
            code.push_str(body.strip_prefix("# ").unwrap_or(body));
            code.push('\n');
        }
    }
    code
}

fn idents(code: &[u8], into: &mut HashSet<String>) {
    let mut i = 0;
    while i < code.len() {
        if is_ident_byte(code[i]) && !code[i].is_ascii_digit() {
            let start = i;
            while i < code.len() && is_ident_byte(code[i]) {
                i += 1;
            }
            into.insert(String::from_utf8_lossy(&code[start..i]).into_owned());
        } else if code[i].is_ascii_digit() {
            while i < code.len() && is_ident_byte(code[i]) {
                i += 1;
            }
        } else {
            i += 1;
        }
    }
}

/// Where the file's unit tests start: its first `#[cfg(test)]` on a
/// `mod`. A `#[cfg(test)]` on any other item leaves the items after
/// it in scope.
fn test_mod_start(code: &[u8]) -> usize {
    const ATTR: &[u8] = b"#[cfg(test)]";
    let mut from = 0;
    while let Some(p) = code[from..].windows(ATTR.len()).position(|w| w == ATTR) {
        let at = from + p;
        let mut j = at + ATTR.len();
        loop {
            while j < code.len() && code[j].is_ascii_whitespace() {
                j += 1;
            }
            if code[j..].starts_with(b"#[") {
                j += code[j..]
                    .iter()
                    .position(|&b| b == b']')
                    .map_or(0, |k| k + 1);
            } else {
                break;
            }
        }
        let rest = &code[j..];
        if rest.starts_with(b"mod ")
            || rest.starts_with(b"pub mod ")
            || rest.starts_with(b"pub(crate) mod ")
        {
            return at;
        }
        from = at + ATTR.len();
    }
    code.len()
}

/// `(line, name)` of each `pub fn` / `pub const fn` in `code`.
fn pub_fns(code: &[u8]) -> Vec<(usize, String)> {
    let text = String::from_utf8_lossy(code);
    let mut found = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let rest = line.trim_start();
        let Some(rest) = rest.strip_prefix("pub ") else {
            continue;
        };
        let rest = rest.trim_start();
        let rest = rest.strip_prefix("const ").map_or(rest, str::trim_start);
        let Some(rest) = rest.strip_prefix("fn ") else {
            continue;
        };
        let name: String = rest
            .trim_start()
            .bytes()
            .take_while(|&b| is_ident_byte(b))
            .map(char::from)
            .collect();
        found.push((n + 1, name));
    }
    found
}

struct Source {
    /// Path relative to the repository root, with `/` separators.
    rel: String,
    code: Vec<u8>,
    code_idents: HashSet<String>,
}

#[test]
fn every_pub_fn_is_named_outside_its_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in [
        "crates",
        "src",
        "tests",
        "examples",
        "perfbench/src",
        "perfbench/tests",
    ] {
        rs_files(&root.join(dir), &mut files);
    }
    let mut doc_idents = HashSet::new();
    let mut sources = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .expect("under the root")
            .to_string_lossy()
            .replace('\\', "/");
        if rel == SELF_PATH {
            continue;
        }
        let text = fs::read_to_string(&path).expect("readable source");
        idents(doc_code(&text).as_bytes(), &mut doc_idents);
        let code = strip(&text);
        let mut code_idents = HashSet::new();
        idents(&code, &mut code_idents);
        sources.push(Source {
            rel,
            code,
            code_idents,
        });
    }
    // The crate whose library a source belongs to, if any.
    let library_of = |rel: &str| -> Option<String> {
        let rest = rel.strip_prefix("crates/")?;
        let (krate, path) = rest.split_once('/')?;
        (path.starts_with("src/") && !path.starts_with("src/bin/")).then(|| krate.to_string())
    };
    let crates: BTreeSet<String> = sources.iter().filter_map(|s| library_of(&s.rel)).collect();
    assert!(crates.len() > 10, "found only {crates:?} under crates/");

    let allowed: HashSet<&str> = ALLOWED.iter().map(|&(name, _)| name).collect();
    let mut unnamed = Vec::new();
    let mut allowed_seen = HashSet::new();
    for krate in &crates {
        let mut outside = doc_idents.clone();
        for s in sources
            .iter()
            .filter(|s| library_of(&s.rel).as_ref() != Some(krate))
        {
            outside.extend(s.code_idents.iter().cloned());
        }
        for s in sources
            .iter()
            .filter(|s| library_of(&s.rel).as_ref() == Some(krate))
        {
            let api = &s.code[..test_mod_start(&s.code)];
            for (line, name) in pub_fns(api) {
                if allowed.contains(name.as_str()) {
                    allowed_seen.insert(name.clone());
                    assert!(
                        !outside.contains(&name),
                        "`{name}` is named outside its crate now: drop it from ALLOWED"
                    );
                } else if !outside.contains(&name) {
                    unnamed.push(format!("{}:{line}: pub fn {name}", s.rel));
                }
            }
        }
    }
    for &(name, _) in ALLOWED {
        assert!(
            allowed_seen.contains(name),
            "ALLOWED lists `{name}`, which is no `pub fn` in crates/*/src"
        );
    }
    assert!(
        unnamed.is_empty(),
        "{} pub fn(s) named by no other crate, binary, test, example or doctest; \
         make each pub(crate), delete it, or add it to ALLOWED with a reason:\n{}",
        unnamed.len(),
        unnamed.join("\n")
    );
}

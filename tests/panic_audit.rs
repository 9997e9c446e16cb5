//! Source audits of the library crates.
//!
//! Walks every `crates/*/src/**/*.rs` file, strips `#[cfg(test)]` blocks
//! and comments, and counts the remaining `.unwrap()` / `panic!(` sites.
//! Each file's count must match the whitelist below exactly — a new
//! panic site fails this test until it is either converted to a `Result`
//! or consciously whitelisted with a justification. The same walk keeps
//! JSON string escaping in one place (`xnf_obs::escape_json`).
//!
//! The audit of `crates/dtd/src/parse.rs` (this PR) is the model: its
//! remaining `expect`s guard scanner invariants (`pos <= len` is
//! maintained by every advance; name bytes are checked ASCII before
//! slicing) and are unreachable from malformed *input* — bad input flows
//! through `DtdError::syntax` with a line/column span instead.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Allowed non-test `.unwrap()` / `panic!(` sites per file, with why.
/// Paths are relative to the workspace root, `/`-separated.
fn whitelist() -> BTreeMap<&'static str, usize> {
    BTreeMap::from(WHITELIST)
}

const WHITELIST: [(&str, usize); 1] = [
    // `XmlTree::add_child` / `set_text` panic on mixed-content misuse —
    // a documented `# Panics` API contract (the paper's data model,
    // Definition 2, has no mixed content; builders uphold it by
    // construction). Returning `Result` here would push an impossible
    // error branch through every tree constructor.
    ("crates/xml/src/tree.rs", 2),
];

/// Every `crates/*/src/**/*.rs` file; `src/bin/` only `with_bins`.
fn main_sources(root: &Path, with_bins: bool) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/ exists");
    for krate in crates {
        let src = krate.expect("readable dir entry").path().join("src");
        if src.is_dir() {
            collect_rs(&src, with_bins, &mut out);
        }
    }
    out.sort();
    out
}

fn collect_rs(dir: &Path, with_bins: bool, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable src dir") {
        let path = entry.expect("readable dir entry").path();
        if path.is_dir() {
            // Binaries (`src/bin/`) are entry points where aborting on a
            // broken invariant is the correct behavior; the panic audit
            // covers library surfaces.
            if !with_bins && path.file_name().is_some_and(|n| n == "bin") {
                continue;
            }
            collect_rs(&path, with_bins, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Blanks out `//…` comments, string literal *contents*, and every
/// `#[cfg(test)]`-gated item (attribute through its brace-matched block).
/// Blanked bytes become spaces (newlines stay), so a byte offset into the
/// result is the same offset into `src`.
fn strip_tests_and_comments(src: &str) -> String {
    let no_comments = strip_comments_and_strings(src);
    let mut out = String::with_capacity(no_comments.len());
    let mut rest = no_comments.as_str();
    while let Some(at) = rest.find("#[cfg(test)]") {
        out.push_str(&rest[..at]);
        let after = &rest[at..];
        // An unterminated block blanks the remainder (the audit stays
        // conservative — nothing after it is counted, but the repo has no
        // such file).
        let end = skip_item(after).unwrap_or(after.len());
        out.push_str(&blank(&after[..end]));
        rest = &after[end..];
    }
    out.push_str(rest);
    out
}

/// `s` with every byte but newlines replaced by a space.
fn blank(s: &str) -> String {
    s.bytes()
        .map(|b| if b == b'\n' { '\n' } else { ' ' })
        .collect()
}

/// Byte length of the item that follows a `#[cfg(test)]` attribute: up to
/// and including its first brace-matched `{ … }` block.
fn skip_item(s: &str) -> Option<usize> {
    let open = s.find('{')?;
    let mut depth = 0usize;
    for (i, b) in s[open..].bytes().enumerate() {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(open + i + 1);
                }
            }
            _ => {}
        }
    }
    None
}

/// Blanks out `//` line comments and the contents of `"…"` string and
/// `'x'` char literals so brace matching and pattern counting see code
/// only. (No raw strings or nested block comments in this codebase; block
/// comments are blanked too.) Blanked bytes become spaces and newlines
/// stay, so offsets are preserved.
fn strip_comments_and_strings(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let blank = |out: &mut Vec<u8>, bytes: &[u8]| {
        out.extend(bytes.iter().map(|&c| if c == b'\n' { c } else { b' ' }));
    };
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                blank(&mut out, &b[start..i]);
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let start = i;
                i += 2;
                while i + 1 < b.len() && !(b[i] == b'*' && b[i + 1] == b'/') {
                    i += 1;
                }
                i = (i + 2).min(b.len());
                blank(&mut out, &b[start..i]);
            }
            b'"' => {
                out.push(b'"');
                let start = i + 1;
                i += 1;
                while i < b.len() && b[i] != b'"' {
                    if b[i] == b'\\' {
                        i += 1;
                    }
                    i += 1;
                }
                let end = i.min(b.len());
                blank(&mut out, &b[start..end]);
                if i < b.len() {
                    out.push(b'"');
                }
                i += 1;
            }
            b'\'' => {
                // Char literal or lifetime; a literal closes within a few
                // bytes (`'a'`, `'\n'`, `'\u{1}'`), a lifetime has no
                // closing quote before a non-ident byte.
                let close = b[i + 1..]
                    .iter()
                    .take(12)
                    .position(|&c| c == b'\'')
                    .map(|p| i + 1 + p);
                if let Some(close) = close {
                    out.push(b'\'');
                    blank(&mut out, &b[i + 1..close]);
                    out.push(b'\'');
                    i = close + 1;
                } else {
                    out.push(b[i]);
                    i += 1;
                }
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn count_panic_sites(code: &str) -> usize {
    let unwraps = code.matches(".unwrap()").count();
    let panics = code.matches("panic!(").count();
    unwraps + panics
}

#[test]
fn library_crates_have_no_unwhitelisted_panic_sites() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let whitelist = whitelist();
    let mut violations = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for path in main_sources(root, false) {
        let rel = path
            .strip_prefix(root)
            .expect("path is under the workspace root")
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&path).expect("source file is UTF-8");
        let count = count_panic_sites(&strip_tests_and_comments(&src));
        seen.insert(rel.clone());
        let allowed = whitelist.get(rel.as_str()).copied().unwrap_or(0);
        if count != allowed {
            violations.push(format!(
                "  {rel}: {count} site(s), whitelist allows {allowed}"
            ));
        }
    }
    for stale in whitelist.keys().filter(|k| !seen.contains(**k)) {
        violations.push(format!("  {stale}: whitelisted but no longer exists"));
    }
    assert!(
        violations.is_empty(),
        "panic-site audit failed (counts are non-test `.unwrap()` + `panic!(`):\n{}\n\
         Convert the new sites to `Result`s, or whitelist them with a justification.",
        violations.join("\n")
    );
}

/// The CLI crate is held to a stricter bar than the `.unwrap()`/`panic!`
/// audit above: `run` returns `Result` end to end (formatting errors
/// flow through `From<std::fmt::Error>`), so not even `.expect(` is
/// allowed outside tests. This pins the conversion of the historical
/// `.expect("string write")` sites and keeps new ones out.
#[test]
fn cli_crate_has_no_expect_sites() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    collect_rs(&root.join("crates/cli/src"), false, &mut files);
    assert!(!files.is_empty(), "crates/cli/src has moved");
    let mut violations = Vec::new();
    for path in files {
        let src = std::fs::read_to_string(&path).expect("source file is UTF-8");
        let count = strip_tests_and_comments(&src).matches(".expect(").count();
        if count != 0 {
            violations.push(format!("  {}: {count} `.expect(` site(s)", path.display()));
        }
    }
    assert!(
        violations.is_empty(),
        "the CLI must stay expect-free outside tests (return a CliError instead):\n{}",
        violations.join("\n")
    );
}

/// The string-quote arm of a hand-rolled JSON string escaper.
const JSON_ESCAPE_ARM: &str = r#"'"' => out.push_str("\\\"")"#;

/// JSON string escaping lives in one function, `xnf_obs::escape_json`;
/// every other emitter calls it. A second copy of its quote arm in
/// non-test code anywhere else fails this test.
#[test]
fn json_string_escaping_lives_only_in_obs() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut copies = Vec::new();
    for path in main_sources(root, true) {
        let rel = path
            .strip_prefix(root)
            .expect("path is under the workspace root")
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&path).expect("source file is UTF-8");
        let code = strip_tests_and_comments(&src);
        // Offsets are preserved, so an arm in code keeps its opening quote.
        let in_code = src
            .match_indices(JSON_ESCAPE_ARM)
            .any(|(at, _)| code.as_bytes()[at] == b'\'');
        if in_code && !rel.starts_with("crates/obs/src/") {
            copies.push(rel);
        }
    }
    assert!(
        copies.is_empty(),
        "JSON string escaping outside xnf-obs (call `xnf_obs::escape_json` instead):\n  {}",
        copies.join("\n  ")
    );
}

#[test]
fn stripper_removes_test_modules_and_comments() {
    let src = r#"
        fn real() { val.unwrap(); } // .unwrap() in a comment
        const S: &str = "panic!(not code)";
        #[cfg(test)]
        mod tests {
            #[test]
            fn t() { x.unwrap(); panic!("boom {}", "}"); }
        }
        fn also_real() { panic!("bad"); }
    "#;
    assert_eq!(count_panic_sites(&strip_tests_and_comments(src)), 2);
    assert_eq!(strip_tests_and_comments(src).len(), src.len());
}

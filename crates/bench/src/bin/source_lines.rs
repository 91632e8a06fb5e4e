//! Source size by crate: the non-blank lines of every `.rs` file under
//! each `crates/<name>/src`, less the test code compiled into them.
//!
//! ```text
//! cargo run --release -p ctlm-bench --bin source_lines [-- <repo root>]
//! ```
//!
//! A line belongs to test code when it lies inside an item marked
//! `#[cfg(test)]`: from the attribute through the item's matching closing
//! brace (or its `;`, for a declaration such as `mod tests;`). Braces
//! inside comments, strings, raw strings and character literals do not
//! count. Integration tests, benches and examples live outside `src` and
//! are not counted at all. Prints one `<lines> <crate>` row per crate,
//! then the total; the root defaults to the current directory. An
//! unreadable root is one `error:` line and exit code 2.

use std::path::{Path, PathBuf};

use ctlm_bench::args::{usage_error, ParsedArgs};

fn main() {
    let parsed = ParsedArgs::from_env(&[], &[]);
    let root = match parsed.positionals() {
        [] => PathBuf::from("."),
        [root] => PathBuf::from(root),
        _ => usage_error("usage: source_lines [<repo root>]"),
    };
    let crates = root.join("crates");
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(&crates)
        .unwrap_or_else(|e| usage_error(&format!("cannot read {}: {e}", crates.display())))
        .map(|entry| entry.expect("directory entry").path().join("src"))
        .filter(|src| src.is_dir())
        .collect();
    dirs.sort();
    let mut total = 0;
    for src in &dirs {
        let mut files = Vec::new();
        rust_files(src, &mut files);
        let lines: usize = files
            .iter()
            .map(|f| non_test_lines(&std::fs::read_to_string(f).expect("source readable")))
            .sum();
        let name = src.parent().and_then(Path::file_name).expect("crate dir");
        println!("{lines:>7} {}", name.to_string_lossy());
        total += lines;
    }
    println!("{total:>7} total");
}

/// Every `.rs` file under `dir`, at any depth.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("source directory readable") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// Non-blank lines of `source` outside every `#[cfg(test)]` item.
fn non_test_lines(source: &str) -> usize {
    let mut lexer = Lexer::default();
    // The brace depth inside the `#[cfg(test)]` item being skipped.
    let mut skipping: Option<usize> = None;
    let mut count = 0;
    for line in source.lines() {
        let starts_in_code = matches!(lexer.state, State::Code);
        let code = lexer.code(line);
        if skipping.is_none() && starts_in_code && line.trim_start().starts_with("#[cfg(test)]") {
            skipping = Some(0);
        }
        match &mut skipping {
            Some(depth) => {
                if item_ends(&code, depth) {
                    skipping = None;
                }
            }
            None => count += usize::from(!line.trim().is_empty()),
        }
    }
    count
}

/// Carries a skipped item's brace depth over one line of code; true when
/// the item ends on it: at the brace that closes its body, or at a `;`
/// that comes before any `{`. The attribute's brackets hold neither.
fn item_ends(code: &[char], depth: &mut usize) -> bool {
    for &c in code {
        match c {
            '{' => *depth += 1,
            '}' if *depth <= 1 => return true,
            '}' => *depth -= 1,
            ';' if *depth == 0 => return true,
            _ => {}
        }
    }
    false
}

/// What the lexer is inside of, carried from one line to the next.
#[derive(Default)]
enum State {
    #[default]
    Code,
    /// A block comment, at this nesting depth.
    Block(usize),
    /// A string literal.
    Str,
    /// A raw string closed by `"` and this many `#`.
    Raw(usize),
}

/// Splits Rust source into the characters that are code, dropping those
/// in comments, strings and character literals.
#[derive(Default)]
struct Lexer {
    state: State,
}

impl Lexer {
    /// The code characters of one line.
    fn code(&mut self, line: &str) -> Vec<char> {
        let chars: Vec<char> = line.chars().collect();
        let mut out = Vec::new();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            let next = chars.get(i + 1).copied();
            match self.state {
                State::Block(depth) => {
                    if c == '*' && next == Some('/') {
                        self.state = if depth == 1 {
                            State::Code
                        } else {
                            State::Block(depth - 1)
                        };
                        i += 1;
                    } else if c == '/' && next == Some('*') {
                        self.state = State::Block(depth + 1);
                        i += 1;
                    }
                }
                State::Str => {
                    if c == '\\' {
                        i += 1;
                    } else if c == '"' {
                        self.state = State::Code;
                    }
                }
                State::Raw(hashes) => {
                    let closes = chars[i + 1..].iter().take_while(|&&h| h == '#').count();
                    if c == '"' && closes >= hashes {
                        self.state = State::Code;
                        i += hashes;
                    }
                }
                State::Code => match c {
                    '/' if next == Some('/') => break,
                    '/' if next == Some('*') => {
                        self.state = State::Block(1);
                        i += 1;
                    }
                    '"' => self.state = State::Str,
                    'r' if matches!(next, Some('"' | '#')) && !ident_before(&chars, i) => {
                        let hashes = chars[i + 1..].iter().take_while(|&&h| h == '#').count();
                        if chars.get(i + 1 + hashes) == Some(&'"') {
                            self.state = State::Raw(hashes);
                            i += 1 + hashes;
                        } else {
                            out.push(c);
                        }
                    }
                    '\'' => i += char_literal_len(&chars[i..]),
                    _ => out.push(c),
                },
            }
            i += 1;
        }
        out
    }
}

/// True when the characters before `i` are an identifier, so an `r`
/// there is part of a name, not a raw-string prefix (a lone `b`, as in
/// `br"…"`, is the byte-string prefix).
fn ident_before(chars: &[char], i: usize) -> bool {
    let ident = |k: usize| chars[k].is_alphanumeric() || chars[k] == '_';
    match i {
        0 => false,
        1 => ident(0) && chars[0] != 'b',
        _ => ident(i - 1) && (chars[i - 1] != 'b' || ident(i - 2)),
    }
}

/// Characters after the opening `'` that a character literal spans
/// through its closing `'` — 0 for a lifetime or a loop label.
fn char_literal_len(rest: &[char]) -> usize {
    match rest.get(1) {
        // The escaped character sits at 2, so the closing quote is after it.
        Some('\\') => rest
            .get(3..)
            .and_then(|r| r.iter().position(|&c| c == '\''))
            .map_or(0, |p| p + 3),
        Some(_) if rest.get(2) == Some(&'\'') => 2,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_items_and_blank_lines_do_not_count() {
        let source = "fn a() {}\n\n#[cfg(test)]\nfn helper() {\n    x();\n}\n\
                      fn b() {}\n#[cfg(test)]\nmod tests;\nfn c() {}\n";
        assert_eq!(non_test_lines(source), 3);
    }

    #[test]
    fn a_test_marker_inside_a_string_is_not_an_item() {
        let source = "const DOC: &str = \"\n#[cfg(test)]\nmod x {\";\nfn kept() {}\n";
        assert_eq!(non_test_lines(source), 4);
    }

    #[test]
    fn braces_in_strings_comments_and_chars_are_not_code() {
        let source = r##"#[cfg(test)]
mod tests {
    // a stray } in a comment
    /* and { in /* a nested */ block */
    const S: &str = "}\"}";
    const R: &str = r#"}"}"#;
    const B: &[u8] = br#"}"#;
    const C: char = '}';
    const E: char = '\'';
    fn f<'a>(x: &'a str) -> &'a str { x }
}
fn kept() {}
"##;
        assert_eq!(non_test_lines(source), 1);
    }
}

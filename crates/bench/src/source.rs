//! Reading Rust source the way the tooling needs it: the `.rs` files
//! under a directory, and their lines outside `#[cfg(test)]` items,
//! each with its code separated from comments and literals.
//! `source_lines` counts them; the source rules under `tests/` scan
//! their code.
//!
//! A line belongs to test code when it lies inside an item marked
//! `#[cfg(test)]`: from the attribute through the item's matching closing
//! brace (or its `;`, for a declaration such as `mod tests;`). Braces
//! inside comments, strings, raw strings and character literals do not
//! count.

use std::path::{Path, PathBuf};

/// Every `.rs` file under `dir`, at any depth, sorted.
pub fn rust_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            files.extend(rust_files(&path)?);
        } else if path.extension().is_some_and(|x| x == "rs") {
            files.push(path);
        }
    }
    files.sort();
    Ok(files)
}

/// One line of a Rust source file that lies outside every
/// `#[cfg(test)]` item.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SourceLine<'a> {
    /// 1-based line number in the file.
    pub number: usize,
    /// The line as written.
    pub text: &'a str,
    /// The line's code: its characters outside comments, strings and
    /// character literals.
    pub code: String,
}

/// The lines of `source` outside every `#[cfg(test)]` item, in order.
pub fn non_test_lines(source: &str) -> Vec<SourceLine<'_>> {
    let mut lexer = Lexer::default();
    // The brace depth inside the `#[cfg(test)]` item being skipped.
    let mut skipping: Option<usize> = None;
    let mut out = Vec::new();
    for (i, line) in source.lines().enumerate() {
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
            None => out.push(SourceLine {
                number: i + 1,
                text: line,
                code: code.into_iter().collect(),
            }),
        }
    }
    out
}

/// How many of `source`'s lines outside `#[cfg(test)]` items are not
/// blank.
pub fn count_non_test_lines(source: &str) -> usize {
    non_test_lines(source)
        .iter()
        .filter(|l| !l.text.trim().is_empty())
        .count()
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
        assert_eq!(count_non_test_lines(source), 3);
    }

    #[test]
    fn a_test_marker_inside_a_string_is_not_an_item() {
        let source = "const DOC: &str = \"\n#[cfg(test)]\nmod x {\";\nfn kept() {}\n";
        assert_eq!(count_non_test_lines(source), 4);
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
        assert_eq!(count_non_test_lines(source), 1);
    }

    #[test]
    fn code_drops_comments_and_literals() {
        let lines = non_test_lines("let a = \"x // y\"; // note\nlet c = 'c'; /* z */ b\n");
        let code: Vec<&str> = lines.iter().map(|l| l.code.as_str()).collect();
        assert_eq!(code, ["let a = ; ", "let c = ;  b"]);
        assert_eq!(
            (lines[1].number, lines[1].text),
            (2, "let c = 'c'; /* z */ b")
        );
    }
}

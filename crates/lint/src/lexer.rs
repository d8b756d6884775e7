//! A minimal, robust Rust lexer for the determinism checks.
//!
//! This is *not* a full Rust front end — the build environment is
//! offline, so `syn`/`dylint` are unavailable — but it is a faithful
//! token scanner: strings (plain, raw, byte), char literals vs.
//! lifetimes, nested block comments, numeric literals with float
//! detection, and maximal-munch compound operators all lex correctly,
//! so the checks in [`crate::checks`] never fire inside a string or
//! comment. Line comments are captured separately because they carry
//! the suppression pragmas (see [`crate::Pragma`]).

/// What kind of token a [`Tok`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`for`, `as`, `HashMap`, ...).
    Ident,
    /// Integer literal (including tuple-index `0` in `pair.0`).
    IntLit,
    /// Float literal (`1.0`, `2e9`, `3f64`, ...).
    FloatLit,
    /// String literal of any flavor (plain, raw, byte).
    StrLit,
    /// Character or byte literal.
    CharLit,
    /// Lifetime (`'a`).
    Lifetime,
    /// Punctuation / operator, compound operators as one token.
    Punct,
}

/// One lexed token with its 1-indexed source line.
#[derive(Clone, Debug)]
pub struct Tok {
    /// The token's kind.
    pub kind: TokKind,
    /// The token's exact source text (operators normalized verbatim).
    pub text: String,
    /// 1-indexed line the token starts on.
    pub line: u32,
}

impl Tok {
    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation `s`.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

/// A captured `//` line comment (pragma carrier).
#[derive(Clone, Debug)]
pub struct LineComment {
    /// Comment text including the leading `//`.
    pub text: String,
    /// 1-indexed line of the comment.
    pub line: u32,
    /// Whether any token precedes the comment on its line (trailing
    /// comments apply to their own line; standalone ones to the next).
    pub trailing: bool,
}

/// Output of [`lex`]: the token stream plus captured line comments.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All non-comment tokens in source order.
    pub toks: Vec<Tok>,
    /// All `//` comments in source order.
    pub comments: Vec<LineComment>,
}

/// Compound operators, longest first so maximal munch is a prefix scan.
const OPERATORS: [&str; 25] = [
    "<<=", ">>=", "..=", "...", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "+=", "-=", "*=",
    "/=", "%=", "^=", "&=", "|=", "::", "->", "=>", "..", "//",
];

/// Lexes `src` into tokens and line comments. Never fails: unexpected
/// bytes become single-character punctuation, so a file that rustc
/// would reject still scans (the checks just see odd tokens).
pub fn lex(src: &str) -> Lexed {
    let b: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let n = b.len();

    while i < n {
        let c = b[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if c == '/' && i + 1 < n {
            if b[i + 1] == '/' {
                let start = i;
                while i < n && b[i] != '\n' {
                    i += 1;
                }
                let text: String = b[start..i].iter().collect();
                let trailing = out.toks.last().is_some_and(|t| t.line == line);
                out.comments.push(LineComment {
                    text,
                    line,
                    trailing,
                });
                continue;
            }
            if b[i + 1] == '*' {
                // Nested block comment.
                let mut depth = 1usize;
                i += 2;
                while i < n && depth > 0 {
                    if b[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                continue;
            }
        }
        // Raw / byte string prefixes and raw identifiers.
        if c == 'r' || c == 'b' {
            if let Some((tok, ni, nl)) = lex_prefixed(&b, i, line) {
                out.toks.push(tok);
                i = ni;
                line = nl;
                continue;
            }
        }
        // Identifiers and keywords.
        if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                i += 1;
            }
            out.toks.push(Tok {
                kind: TokKind::Ident,
                text: b[start..i].iter().collect(),
                line,
            });
            continue;
        }
        // Numbers.
        if c.is_ascii_digit() {
            let (tok, ni) = lex_number(&b, i, line);
            out.toks.push(tok);
            i = ni;
            continue;
        }
        // Plain strings.
        if c == '"' {
            let (text, ni, nl) = lex_string(&b, i, line);
            out.toks.push(Tok {
                kind: TokKind::StrLit,
                text,
                line,
            });
            i = ni;
            line = nl;
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            let (tok, ni) = lex_quote(&b, i, line);
            out.toks.push(tok);
            i = ni;
            continue;
        }
        // Operators, longest first.
        let mut matched = false;
        for op in OPERATORS {
            let oc: Vec<char> = op.chars().collect();
            if b[i..].starts_with(&oc[..]) {
                out.toks.push(Tok {
                    kind: TokKind::Punct,
                    text: op.to_string(),
                    line,
                });
                i += oc.len();
                matched = true;
                break;
            }
        }
        if matched {
            continue;
        }
        out.toks.push(Tok {
            kind: TokKind::Punct,
            text: c.to_string(),
            line,
        });
        i += 1;
    }
    out
}

/// Lexes constructs starting with `r`/`b`: raw strings `r"..."` /
/// `r#"..."#`, byte strings `b"..."`, byte chars `b'x'`, raw
/// identifiers `r#name`, and `br`/`rb` combinations. Returns `None`
/// when the prefix is just the start of an ordinary identifier.
fn lex_prefixed(b: &[char], i: usize, line: u32) -> Option<(Tok, usize, u32)> {
    let n = b.len();
    let mut j = i;
    // Consume up to two prefix letters (r, b, br, rb).
    while j < n && (b[j] == 'r' || b[j] == 'b') && j - i < 2 {
        j += 1;
    }
    if j >= n {
        return None;
    }
    let has_r = b[i..j].contains(&'r');
    match b[j] {
        '"' => {
            let (text, ni, nl) = lex_string(b, j, line);
            Some((
                Tok {
                    kind: TokKind::StrLit,
                    text,
                    line,
                },
                ni,
                nl,
            ))
        }
        '#' if has_r => {
            // Raw string r#"..."# or raw identifier r#name.
            let mut hashes = 0usize;
            let mut k = j;
            while k < n && b[k] == '#' {
                hashes += 1;
                k += 1;
            }
            if k < n && b[k] == '"' {
                // Raw string: scan to `"` followed by `hashes` hashes.
                let mut l = line;
                let mut m = k + 1;
                while m < n {
                    if b[m] == '\n' {
                        l += 1;
                    } else if b[m] == '"'
                        && b[m + 1..].len() >= hashes
                        && b[m + 1..m + 1 + hashes].iter().all(|&h| h == '#')
                    {
                        m += 1 + hashes;
                        let text: String = b[i..m].iter().collect();
                        return Some((
                            Tok {
                                kind: TokKind::StrLit,
                                text,
                                line,
                            },
                            m,
                            l,
                        ));
                    }
                    m += 1;
                }
                // Unterminated: swallow the rest.
                let text: String = b[i..].iter().collect();
                Some((
                    Tok {
                        kind: TokKind::StrLit,
                        text,
                        line,
                    },
                    n,
                    l,
                ))
            } else if hashes == 1 && k < n && (b[k].is_alphabetic() || b[k] == '_') {
                // Raw identifier.
                let mut m = k;
                while m < n && (b[m].is_alphanumeric() || b[m] == '_') {
                    m += 1;
                }
                let text: String = b[k..m].iter().collect();
                Some((
                    Tok {
                        kind: TokKind::Ident,
                        text,
                        line,
                    },
                    m,
                    line,
                ))
            } else {
                None
            }
        }
        '\'' if !has_r => {
            let (tok, ni) = lex_quote(b, j, line);
            Some((tok, ni, line))
        }
        _ => None,
    }
}

/// Lexes a plain (escaped) string starting at the opening `"`.
/// Returns `(text, next_index, next_line)`.
fn lex_string(b: &[char], i: usize, line: u32) -> (String, usize, u32) {
    let n = b.len();
    let mut j = i + 1;
    let mut l = line;
    while j < n {
        match b[j] {
            '\\' => j += 2,
            '\n' => {
                l += 1;
                j += 1;
            }
            '"' => {
                j += 1;
                return (b[i..j].iter().collect(), j, l);
            }
            _ => j += 1,
        }
    }
    (b[i..].iter().collect(), n, l)
}

/// Lexes either a char literal or a lifetime starting at `'`.
fn lex_quote(b: &[char], i: usize, line: u32) -> (Tok, usize) {
    let n = b.len();
    // Lifetime: 'ident NOT followed by a closing quote.
    if i + 1 < n && (b[i + 1].is_alphabetic() || b[i + 1] == '_') {
        let mut j = i + 1;
        while j < n && (b[j].is_alphanumeric() || b[j] == '_') {
            j += 1;
        }
        if j >= n || b[j] != '\'' {
            return (
                Tok {
                    kind: TokKind::Lifetime,
                    text: b[i..j].iter().collect(),
                    line,
                },
                j,
            );
        }
    }
    // Char literal: scan escapes up to the closing quote.
    let mut j = i + 1;
    while j < n {
        match b[j] {
            '\\' => j += 2,
            '\'' => {
                j += 1;
                return (
                    Tok {
                        kind: TokKind::CharLit,
                        text: b[i..j].iter().collect(),
                        line,
                    },
                    j,
                );
            }
            '\n' => break,
            _ => j += 1,
        }
    }
    (
        Tok {
            kind: TokKind::CharLit,
            text: b[i..j].iter().collect(),
            line,
        },
        j,
    )
}

/// Lexes a numeric literal; floats are `1.0`-style fractions, exponent
/// forms, or explicit `f32`/`f64` suffixes. `1..2` and `pair.0` stay
/// integers followed by punctuation.
fn lex_number(b: &[char], i: usize, line: u32) -> (Tok, usize) {
    let n = b.len();
    let mut j = i;
    let mut is_float = false;
    let hex = j + 1 < n && b[j] == '0' && (b[j + 1] == 'x' || b[j + 1] == 'X');
    if hex {
        j += 2;
        while j < n && (b[j].is_ascii_hexdigit() || b[j] == '_') {
            j += 1;
        }
    } else {
        while j < n && (b[j].is_ascii_digit() || b[j] == '_') {
            j += 1;
        }
        // Fraction: '.' followed by a digit (not `..`, not `.method`).
        if j + 1 < n && b[j] == '.' && b[j + 1].is_ascii_digit() {
            is_float = true;
            j += 1;
            while j < n && (b[j].is_ascii_digit() || b[j] == '_') {
                j += 1;
            }
        } else if j < n
            && b[j] == '.'
            && (j + 1 >= n || (!b[j + 1].is_alphanumeric() && b[j + 1] != '.' && b[j + 1] != '_'))
        {
            // Trailing-dot float `1.`.
            is_float = true;
            j += 1;
        }
        // Exponent.
        if j < n && (b[j] == 'e' || b[j] == 'E') {
            let mut k = j + 1;
            if k < n && (b[k] == '+' || b[k] == '-') {
                k += 1;
            }
            if k < n && b[k].is_ascii_digit() {
                is_float = true;
                j = k;
                while j < n && (b[j].is_ascii_digit() || b[j] == '_') {
                    j += 1;
                }
            }
        }
    }
    // Suffix (u32, f64, usize, ...).
    let suf_start = j;
    while j < n && (b[j].is_alphanumeric() || b[j] == '_') {
        j += 1;
    }
    let suffix: String = b[suf_start..j].iter().collect();
    if suffix == "f32" || suffix == "f64" {
        is_float = true;
    }
    (
        Tok {
            kind: if is_float {
                TokKind::FloatLit
            } else {
                TokKind::IntLit
            },
            text: b[i..j].iter().collect(),
            line,
        },
        j,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .toks
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn strings_and_comments_do_not_leak_tokens() {
        let l =
            lex("let s = \"for x in map.iter()\"; // thread_rng here\n/* SystemTime */ let t = 1;");
        assert!(!l.toks.iter().any(|t| t.is_ident("thread_rng")));
        assert!(!l.toks.iter().any(|t| t.is_ident("SystemTime")));
        assert!(!l.toks.iter().any(|t| t.is_ident("iter")));
        assert_eq!(l.comments.len(), 1);
        assert!(l.comments[0].trailing);
    }

    #[test]
    fn raw_strings_and_chars() {
        let l = lex(
            "let s = r#\"unwrap() \"quoted\" \"#; let c = '\\''; let lt: &'static str = b\"x\";",
        );
        assert!(!l.toks.iter().any(|t| t.is_ident("unwrap")));
        assert!(l
            .toks
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "'static"));
    }

    #[test]
    fn float_vs_int_vs_range() {
        let k = kinds("1.0 1..2 x.0 2e9 3f64 0x1F 7usize");
        assert_eq!(k[0].0, TokKind::FloatLit);
        assert_eq!(k[1].0, TokKind::IntLit); // 1
        assert_eq!(k[2].1, ".."); // range stays punctuation
        let floats: Vec<_> = k
            .iter()
            .filter(|(kind, _)| *kind == TokKind::FloatLit)
            .collect();
        assert_eq!(floats.len(), 3, "1.0, 2e9, 3f64: {k:?}");
    }

    #[test]
    fn compound_operators_lex_once() {
        let k = kinds("a == b != c += d :: e -> f");
        let puncts: Vec<_> = k
            .iter()
            .filter(|(kind, _)| *kind == TokKind::Punct)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(puncts, vec!["==", "!=", "+=", "::", "->"]);
    }

    #[test]
    fn line_numbers_track_newlines() {
        let l = lex("a\nb\n\"multi\nline\"\nc");
        let c = l.toks.iter().find(|t| t.is_ident("c")).map(|t| t.line);
        assert_eq!(c, Some(5));
    }
}

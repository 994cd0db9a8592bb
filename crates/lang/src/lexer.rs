//! Tokenizer for the kernel dialect.

use crate::error::{LangError, Pos};

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal (a `.`, exponent, or `f` suffix present).
    Float(f32),
    /// Punctuation / operator, e.g. `+`, `<<=`, `&&`.
    Punct(&'static str),
}

/// A token with its source position.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// Kind and payload.
    pub tok: Tok,
    /// Position of the first character.
    pub pos: Pos,
}

/// Multi-character operators, longest first.
const PUNCTS: &[&str] = &[
    "<<=", ">>=", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "+=", "-=", "*=", "/=", "%=",
    "|=", "&=", "^=", "++", "--", "?", ":", ";", ",", ".", "(", ")", "{", "}", "[", "]", "+", "-",
    "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
];

/// Move the position past byte `b` of the source: a newline starts a
/// line, and the first byte of every other character is one column.
fn step(b: u8, line: &mut u32, col: &mut u32) {
    if b == b'\n' {
        *line += 1;
        *col = 1;
    } else if b & 0xC0 != 0x80 {
        *col += 1;
    }
}

/// Tokenize `source`, returning the tokens and the position just past its
/// last character (where an unexpected end of input is reported).
///
/// Tokens are ASCII, so the scan runs over bytes; a non-ASCII character is
/// whitespace, part of a comment, or an error.
///
/// # Errors
///
/// Fails on unknown characters or malformed numeric literals.
pub fn lex(source: &str) -> Result<(Vec<Token>, Pos), LangError> {
    let bytes = source.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;
    while i < bytes.len() {
        let b = bytes[i];
        let pos = Pos { line, col };
        if !b.is_ascii() {
            let c = source[i..].chars().next().expect("`i` is a char boundary");
            if !c.is_whitespace() {
                return Err(LangError::new(pos, format!("unexpected character `{c}`")));
            }
            col += 1;
            i += c.len_utf8();
            continue;
        }
        // Whitespace.
        if (b as char).is_whitespace() {
            step(b, &mut line, &mut col);
            i += 1;
            continue;
        }
        // Comments.
        if bytes[i..].starts_with(b"//") {
            while i < bytes.len() && bytes[i] != b'\n' {
                step(bytes[i], &mut line, &mut col);
                i += 1;
            }
            continue;
        }
        if bytes[i..].starts_with(b"/*") {
            i += 2;
            col += 2;
            while i < bytes.len() && !bytes[i..].starts_with(b"*/") {
                step(bytes[i], &mut line, &mut col);
                i += 1;
            }
            if i >= bytes.len() {
                return Err(LangError::new(pos, "unterminated block comment"));
            }
            i += 2;
            col += 2;
            continue;
        }
        // Identifiers / keywords.
        if b.is_ascii_alphabetic() || b == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            col += (i - start) as u32;
            out.push(Token {
                tok: Tok::Ident(source[start..i].to_string()),
                pos,
            });
            continue;
        }
        // Numbers.
        if b.is_ascii_digit() {
            let start = i;
            let mut is_float = false;
            while i < bytes.len()
                && (bytes[i].is_ascii_digit()
                    || matches!(bytes[i], b'.' | b'e' | b'E')
                    || (matches!(bytes[i], b'+' | b'-') && matches!(bytes[i - 1], b'e' | b'E')))
            {
                is_float |= matches!(bytes[i], b'.' | b'e' | b'E');
                i += 1;
            }
            let mut text = source[start..i].to_string();
            // Optional `f` suffix marks a float.
            if i < bytes.len() && matches!(bytes[i], b'f' | b'F') {
                is_float = true;
                i += 1;
            }
            // Optional `u` suffix is accepted and ignored (uint literal).
            if !is_float && i < bytes.len() && matches!(bytes[i], b'u' | b'U') {
                i += 1;
            }
            col += (i - start) as u32;
            let tok = if is_float {
                if text.ends_with('.') {
                    text.push('0');
                }
                Tok::Float(
                    text.parse()
                        .map_err(|_| LangError::new(pos, format!("bad float literal `{text}`")))?,
                )
            } else {
                Tok::Int(
                    text.parse().map_err(|_| {
                        LangError::new(pos, format!("bad integer literal `{text}`"))
                    })?,
                )
            };
            out.push(Token { tok, pos });
            continue;
        }
        // Punctuation.
        let Some(p) = PUNCTS.iter().find(|p| bytes[i..].starts_with(p.as_bytes())) else {
            return Err(LangError::new(
                pos,
                format!("unexpected character `{}`", b as char),
            ));
        };
        out.push(Token {
            tok: Tok::Punct(p),
            pos,
        });
        i += p.len();
        col += p.len() as u32;
    }
    Ok((out, Pos { line, col }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().0.into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn identifiers_numbers_punct() {
        assert_eq!(
            kinds("x1 = 42 + 3.5f;"),
            vec![
                Tok::Ident("x1".into()),
                Tok::Punct("="),
                Tok::Int(42),
                Tok::Punct("+"),
                Tok::Float(3.5),
                Tok::Punct(";"),
            ]
        );
    }

    #[test]
    fn multi_char_operators_are_greedy() {
        assert_eq!(
            kinds("a <<= 1; b >>= 2; c == d; e != f;"),
            vec![
                Tok::Ident("a".into()),
                Tok::Punct("<<="),
                Tok::Int(1),
                Tok::Punct(";"),
                Tok::Ident("b".into()),
                Tok::Punct(">>="),
                Tok::Int(2),
                Tok::Punct(";"),
                Tok::Ident("c".into()),
                Tok::Punct("=="),
                Tok::Ident("d".into()),
                Tok::Punct(";"),
                Tok::Ident("e".into()),
                Tok::Punct("!="),
                Tok::Ident("f".into()),
                Tok::Punct(";"),
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("a // line comment\n /* block \n comment */ b"),
            vec![Tok::Ident("a".into()), Tok::Ident("b".into())]
        );
    }

    #[test]
    fn float_forms() {
        assert_eq!(kinds("1.0"), vec![Tok::Float(1.0)]);
        assert_eq!(kinds("2f"), vec![Tok::Float(2.0)]);
        assert_eq!(kinds("1e3"), vec![Tok::Float(1000.0)]);
        assert_eq!(kinds("1.5e-2"), vec![Tok::Float(0.015)]);
        assert_eq!(kinds("7"), vec![Tok::Int(7)]);
        assert_eq!(kinds("7u"), vec![Tok::Int(7)]);
    }

    #[test]
    fn positions_track_lines() {
        let (toks, end) = lex("a\n  b").unwrap();
        assert_eq!(toks[0].pos, Pos { line: 1, col: 1 });
        assert_eq!(toks[1].pos, Pos { line: 2, col: 3 });
        assert_eq!(end, Pos { line: 2, col: 4 });
    }

    #[test]
    fn bad_character_reported() {
        let err = lex("a @ b").unwrap_err();
        assert!(err.message.contains("unexpected character"));
        assert_eq!(err.pos.col, 3);
    }

    #[test]
    fn unterminated_comment_reported() {
        assert!(lex("/* nope").is_err());
    }
}

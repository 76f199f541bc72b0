//! Hand-written lexer for mini-C.
//!
//! Produces a flat [`Token`] stream terminated by [`TokenKind::Eof`]. Line
//! comments (`// ...`) and block comments (`/* ... */`, non-nesting) are
//! skipped. Identifiers and string literals borrow their text from the
//! source, so lexing allocates nothing but the token vector. Columns
//! count bytes from the start of the line.

use crate::error::{Error, ErrorKind};
use crate::token::{Pos, Token, TokenKind};

/// Lexes `source` into a token stream ending with an `Eof` token.
///
/// # Errors
///
/// Returns a [`Error`] with [`ErrorKind::Lex`] on the first malformed
/// character or literal.
pub fn lex(source: &str) -> Result<Vec<Token<'_>>, Error> {
    Lexer {
        src: source,
        at: 0,
        line: 1,
        line_start: 0,
        // The suite's programs hold about one token per four bytes.
        out: Vec::with_capacity(source.len() / 3 + 1),
    }
    .run()
}

struct Lexer<'a> {
    src: &'a str,
    at: usize,
    line: u32,
    /// Byte offset where the current line starts.
    line_start: usize,
    out: Vec<Token<'a>>,
}

fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

impl<'a> Lexer<'a> {
    fn pos(&self) -> Pos {
        Pos::new(self.line, (self.at - self.line_start + 1) as u32)
    }

    fn byte(&self, at: usize) -> Option<u8> {
        self.src.as_bytes().get(at).copied()
    }

    fn peek(&self) -> Option<u8> {
        self.byte(self.at)
    }

    /// Consumes one byte, noting a line break.
    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.at += 1;
        if c == b'\n' {
            self.line += 1;
            self.line_start = self.at;
        }
        Some(c)
    }

    /// Consumes bytes while `keep` holds for them; none may be a line
    /// break.
    fn skip_while(&mut self, keep: impl Fn(u8) -> bool) {
        while self.peek().is_some_and(&keep) {
            self.at += 1;
        }
    }

    fn err(&self, msg: impl Into<String>) -> Error {
        Error::new(ErrorKind::Lex, msg, self.pos())
    }

    fn push(&mut self, kind: TokenKind<'a>, pos: Pos) {
        self.out.push(Token::new(kind, pos));
    }

    fn run(mut self) -> Result<Vec<Token<'a>>, Error> {
        while let Some(c) = self.peek() {
            let pos = self.pos();
            match c {
                b' ' | b'\t' | b'\r' => self.at += 1,
                b'\n' => {
                    self.bump();
                }
                b'/' if self.byte(self.at + 1) == Some(b'/') => self.skip_while(|c| c != b'\n'),
                b'/' if self.byte(self.at + 1) == Some(b'*') => {
                    self.at += 2;
                    loop {
                        match self.peek() {
                            None => return Err(self.err("unterminated block comment")),
                            Some(b'*') if self.byte(self.at + 1) == Some(b'/') => {
                                self.at += 2;
                                break;
                            }
                            Some(_) => {
                                self.bump();
                            }
                        }
                    }
                }
                b'0'..=b'9' => self.number(pos)?,
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.ident(pos),
                b'"' => self.string(pos)?,
                _ => self.punct(pos)?,
            }
        }
        let pos = self.pos();
        self.push(TokenKind::Eof, pos);
        Ok(self.out)
    }

    fn number(&mut self, pos: Pos) -> Result<(), Error> {
        let start = self.at;
        let digits = |c: u8| c.is_ascii_digit();
        self.skip_while(digits);
        let mut is_float = false;
        // A fractional part: `.` followed by a digit (so `a[0].f` still works
        // if we ever allowed it; field access needs an identifier anyway).
        if self.peek() == Some(b'.') && self.byte(self.at + 1).is_some_and(digits) {
            is_float = true;
            self.at += 1;
            self.skip_while(digits);
        }
        // Exponent: e or E, optional sign, digits.
        if matches!(self.peek(), Some(b'e' | b'E')) {
            let mut look = self.at + 1;
            if matches!(self.byte(look), Some(b'+' | b'-')) {
                look += 1;
            }
            if self.byte(look).is_some_and(digits) {
                is_float = true;
                self.at = look;
                self.skip_while(digits);
            }
        }
        let text = &self.src[start..self.at];
        let kind = if is_float {
            let v: f64 = text
                .parse()
                .map_err(|_| Error::new(ErrorKind::Lex, "malformed float literal", pos))?;
            TokenKind::Float(v)
        } else {
            let v = text
                .bytes()
                .try_fold(0i64, |v, d| {
                    v.checked_mul(10)?.checked_add(i64::from(d - b'0'))
                })
                .ok_or_else(|| Error::new(ErrorKind::Lex, "integer literal out of range", pos))?;
            TokenKind::Int(v)
        };
        self.push(kind, pos);
        Ok(())
    }

    fn ident(&mut self, pos: Pos) {
        let start = self.at;
        self.skip_while(is_ident);
        let text = &self.src[start..self.at];
        let kind = TokenKind::keyword(text).unwrap_or(TokenKind::Ident(text));
        self.push(kind, pos);
    }

    fn string(&mut self, pos: Pos) -> Result<(), Error> {
        self.at += 1; // opening quote
        let start = self.at;
        loop {
            match self.bump() {
                None | Some(b'\n') => return Err(self.err("unterminated string literal")),
                Some(b'"') => break,
                Some(b'\\') => match self.bump() {
                    Some(b'n' | b't' | b'"' | b'\\') => {}
                    _ => return Err(self.err("unknown escape in string literal")),
                },
                Some(_) => {}
            }
        }
        let text = &self.src[start..self.at - 1];
        self.push(TokenKind::Str(text), pos);
        Ok(())
    }

    fn punct(&mut self, pos: Pos) -> Result<(), Error> {
        use TokenKind::*;
        let c = self.bump().expect("peeked");
        // The token is `long` when the next byte is `second`, else `short`.
        let mut two = |second: u8, long: TokenKind<'a>, short: TokenKind<'a>| {
            if self.peek() == Some(second) {
                self.at += 1;
                long
            } else {
                short
            }
        };
        let kind = match c {
            b'(' => LParen,
            b')' => RParen,
            b'{' => LBrace,
            b'}' => RBrace,
            b'[' => LBracket,
            b']' => RBracket,
            b',' => Comma,
            b';' => Semi,
            b':' => Colon,
            b'.' => Dot,
            b'@' => At,
            b'+' => Plus,
            b'*' => Star,
            b'/' => Slash,
            b'%' => Percent,
            b'^' => Caret,
            b'-' => two(b'>', Arrow, Minus),
            b'=' => match two(b'=', EqEq, Assign) {
                Assign => two(b'>', FatArrow, Assign),
                k => k,
            },
            b'!' => two(b'=', NotEq, Bang),
            b'<' => match two(b'=', Le, Lt) {
                Lt => two(b'<', Shl, Lt),
                k => k,
            },
            b'>' => match two(b'=', Ge, Gt) {
                Gt => two(b'>', Shr, Gt),
                k => k,
            },
            b'&' => two(b'&', AndAnd, Amp),
            b'|' => two(b'|', OrOr, Pipe),
            other => {
                return Err(Error::new(
                    ErrorKind::Lex,
                    format!("unexpected character `{}`", other as char),
                    pos,
                ))
            }
        };
        self.push(kind, pos);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::TokenKind::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        lex(src)
            .expect("lex failure")
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn lexes_keywords_and_idents() {
        assert_eq!(
            kinds("fn main while whilex"),
            vec![Fn, Ident("main"), While, Ident("whilex"), Eof]
        );
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(
            kinds("0 42 3.5 1e-8 2E3 7."),
            vec![
                Int(0),
                Int(42),
                Float(3.5),
                Float(1e-8),
                Float(2e3),
                Int(7),
                Dot,
                Eof
            ]
        );
    }

    #[test]
    fn lexes_two_char_operators() {
        assert_eq!(
            kinds("-> <= >= == != && || << >> ="),
            vec![Arrow, Le, Ge, EqEq, NotEq, AndAnd, OrOr, Shl, Shr, Assign, Eof]
        );
    }

    #[test]
    fn skips_comments() {
        assert_eq!(
            kinds("1 // comment\n 2 /* multi\nline */ 3"),
            vec![Int(1), Int(2), Int(3), Eof]
        );
    }

    #[test]
    fn tracks_positions_across_lines() {
        let toks = lex("a\n  b").expect("lex failure");
        assert_eq!(toks[0].pos, Pos::new(1, 1));
        assert_eq!(toks[1].pos, Pos::new(2, 3));
    }

    #[test]
    fn string_literals_with_escapes() {
        assert_eq!(kinds(r#""a\nb""#), vec![Str(r"a\nb"), Eof]);
    }

    #[test]
    fn rejects_unterminated_string() {
        let err = lex("\"abc").expect_err("should fail");
        assert_eq!(err.kind(), ErrorKind::Lex);
    }

    #[test]
    fn rejects_unknown_character() {
        let err = lex("a ? b").expect_err("should fail");
        assert_eq!(err.kind(), ErrorKind::Lex);
        assert!(err.message().contains('?'));
    }

    #[test]
    fn rejects_unterminated_block_comment() {
        assert!(lex("/* nope").is_err());
    }

    #[test]
    fn minus_vs_arrow() {
        assert_eq!(kinds("a-b a->b"), {
            vec![
                Ident("a"),
                Minus,
                Ident("b"),
                Ident("a"),
                Arrow,
                Ident("b"),
                Eof,
            ]
        });
    }

    #[test]
    fn integer_overflow_is_an_error() {
        assert!(lex("99999999999999999999").is_err());
    }
}

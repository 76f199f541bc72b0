//! Token definitions for the mini-C lexer.

use std::fmt;

/// A source position, 1-based line and column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pos {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
}

impl Pos {
    /// Creates a position from 1-based line and column numbers.
    pub fn new(line: u32, col: u32) -> Self {
        Pos { line, col }
    }
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Defines [`TokenKind`] with its keywords and punctuation, each written
/// once with its spelling, which documents it and is how it prints.
macro_rules! token_kinds {
    (keywords { $($kw:ident = $kw_text:literal,)* } punctuation { $($p:ident = $p_text:literal,)* }) => {
        /// The kind of a lexed token. Identifiers and string literals
        /// borrow their text from the source, so a token is `Copy`.
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub enum TokenKind<'a> {
            /// Integer literal, e.g. `42`.
            Int(i64),
            /// Floating point literal, e.g. `3.5` or `1e-8`.
            Float(f64),
            /// Identifier, e.g. `frontier`.
            Ident(&'a str),
            /// String literal (only used by `print`), e.g. `"dist"`, as
            /// written between its quotes: the lexer checks its escapes and
            /// [`unescape`] resolves them.
            Str(&'a str),
            $(#[doc = concat!("`", $kw_text, "`")] $kw,)*
            $(#[doc = concat!("`", $p_text, "`")] $p,)*
            /// End of input.
            Eof,
        }

        impl TokenKind<'_> {
            /// The keyword spelled `text`, if it is one.
            pub(crate) fn keyword(text: &str) -> Option<TokenKind<'static>> {
                Some(match text {
                    $($kw_text => TokenKind::$kw,)*
                    _ => return None,
                })
            }
        }

        impl fmt::Display for TokenKind<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match self {
                    TokenKind::Int(v) => write!(f, "{v}"),
                    TokenKind::Float(v) => write!(f, "{v}"),
                    TokenKind::Ident(s) => f.write_str(s),
                    TokenKind::Str(s) => write!(f, "{:?}", unescape(s)),
                    $(TokenKind::$kw => f.write_str($kw_text),)*
                    $(TokenKind::$p => f.write_str($p_text),)*
                    TokenKind::Eof => f.write_str("<eof>"),
                }
            }
        }
    };
}

token_kinds! {
    keywords {
        Fn = "fn",
        Let = "let",
        Struct = "struct",
        If = "if",
        Else = "else",
        While = "while",
        For = "for",
        Break = "break",
        Continue = "continue",
        Return = "return",
        True = "true",
        False = "false",
        Null = "null",
        New = "new",
        Print = "print",
        TyInt = "int",
        TyFloat = "float",
        TyBool = "bool",
        As = "as",
    }
    punctuation {
        LParen = "(",
        RParen = ")",
        LBrace = "{",
        RBrace = "}",
        LBracket = "[",
        RBracket = "]",
        Comma = ",",
        Semi = ";",
        Colon = ":",
        Dot = ".",
        Arrow = "->", // field access through a pointer, as `.`
        FatArrow = "=>", // reserved
        Assign = "=",
        Plus = "+",
        Minus = "-",
        Star = "*",
        Slash = "/",
        Percent = "%",
        EqEq = "==",
        NotEq = "!=",
        Lt = "<",
        Le = "<=",
        Gt = ">",
        Ge = ">=",
        AndAnd = "&&",
        OrOr = "||",
        Bang = "!",
        Amp = "&",
        Pipe = "|",
        Caret = "^",
        Shl = "<<",
        Shr = ">>",
        At = "@", // marks a loop tag
    }
}

/// A token with its source position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token<'a> {
    /// What was lexed.
    pub kind: TokenKind<'a>,
    /// Where it starts in the source.
    pub pos: Pos,
}

impl<'a> Token<'a> {
    /// Creates a token at a position.
    pub fn new(kind: TokenKind<'a>, pos: Pos) -> Self {
        Token { kind, pos }
    }
}

/// The text a string literal stands for, given the text between its
/// quotes with escapes the lexer accepted (`\n`, `\t`, `\"`, `\\`).
/// Each other byte stands for the character of the same number.
pub fn unescape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    let mut bytes = raw.bytes();
    while let Some(c) = bytes.next() {
        out.push(match c {
            b'\\' => match bytes.next() {
                Some(b'n') => '\n',
                Some(b't') => '\t',
                Some(e) => e as char,
                None => '\\',
            },
            c => c as char,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pos_display() {
        assert_eq!(Pos::new(3, 7).to_string(), "3:7");
    }

    #[test]
    fn every_fixed_token_lexes_and_prints_as_written() {
        let text = "fn let struct if else while for break continue return true false \
                    null new print int float bool as ( ) { } [ ] , ; : . -> => = + - * / % \
                    == != < <= > >= && || ! & | ^ << >> @";
        let printed: Vec<String> = crate::lex(text)
            .expect("lex")
            .iter()
            .map(|t| t.kind.to_string())
            .collect();
        let mut expected: Vec<&str> = text.split_whitespace().collect();
        expected.push("<eof>");
        assert_eq!(printed, expected);
    }

    #[test]
    fn string_tokens_display_their_unescaped_text() {
        assert_eq!(unescape(r#"a\nb\t\"\\"#), "a\nb\t\"\\");
        assert_eq!(TokenKind::Str(r"x\n").to_string(), r#""x\n""#);
    }

    #[test]
    fn pos_ordering_is_line_major() {
        assert!(Pos::new(1, 9) < Pos::new(2, 1));
        assert!(Pos::new(2, 1) < Pos::new(2, 2));
    }
}

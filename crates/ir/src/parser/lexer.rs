//! Streaming tokenizer for the textual IR format.
//!
//! [`Lexer`] hands out one token per call and keeps no token buffer.
//! Identifiers, unquoted `%`/`@` names and escape-free strings are slices
//! of the input; only a quoted name or string with escapes allocates.
//! Numbers are parsed from the input slice in place. Tokens carry the
//! byte offset they start at; line and column (in characters) are only
//! worked out, by [`position`], when an error is reported.

use std::borrow::Cow;
use std::fmt;

use super::Error;

/// A lexical token borrowing from the input.
#[derive(Debug, Clone, PartialEq)]
pub(super) enum Tok<'a> {
    /// Bare identifier (keywords, opcodes, labels, type names).
    Ident(&'a str),
    /// `%name` local value reference.
    Local(Cow<'a, str>),
    /// `@name` global/function reference.
    Global(Cow<'a, str>),
    /// Integer literal (possibly negative).
    Int(i64),
    /// Floating-point literal (contains `.` or an exponent).
    Float(f64),
    /// `0x...` hexadecimal bit pattern. Used for bit-exact float constants
    /// (NaN payloads, infinities) that have no decimal spelling.
    HexBits(u64),
    /// Double-quoted string (escapes already decoded).
    Str(Cow<'a, str>),
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Comma,
    Colon,
    Eq,
    Arrow,
    /// End of line (statement separator).
    Newline,
    /// End of input.
    Eof,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::Local(s) => write!(f, "%{s}"),
            Tok::Global(s) => write!(f, "@{s}"),
            Tok::Int(v) => write!(f, "{v}"),
            Tok::Float(v) => write!(f, "{v}"),
            Tok::HexBits(v) => write!(f, "{v:#x}"),
            Tok::Str(s) => write!(f, "\"{s}\""),
            Tok::LParen => write!(f, "("),
            Tok::RParen => write!(f, ")"),
            Tok::LBrace => write!(f, "{{"),
            Tok::RBrace => write!(f, "}}"),
            Tok::LBracket => write!(f, "["),
            Tok::RBracket => write!(f, "]"),
            Tok::Comma => write!(f, ","),
            Tok::Colon => write!(f, ":"),
            Tok::Eq => write!(f, "="),
            Tok::Arrow => write!(f, "->"),
            Tok::Newline => write!(f, "<newline>"),
            Tok::Eof => write!(f, "<eof>"),
        }
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b == b'.'
}

/// `IDENT_CONTINUE[b]`: `b` may continue an identifier (a letter, a
/// digit, `_` or `.`). One load per byte on the lexer's hottest scan.
const IDENT_CONTINUE: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 256 {
        let c = b as u8;
        table[b] = c.is_ascii_alphanumeric() || c == b'_' || c == b'.';
        b += 1;
    }
    table
};

fn is_ident_continue(b: u8) -> bool {
    IDENT_CONTINUE[usize::from(b)]
}

/// True when `name` can be printed bare after `@`/`%` (no quoting needed).
pub(crate) fn is_plain_symbol(name: &str) -> bool {
    !name.is_empty() && name.bytes().all(is_ident_continue)
}

/// True when `name` lexes as one identifier, so a block label can be
/// printed bare (no quoting needed).
pub(crate) fn is_bare_label(name: &str) -> bool {
    name.as_bytes().first().is_some_and(|&b| is_ident_start(b)) && is_plain_symbol(name)
}

/// The 1-based line and column (in characters) of byte `offset`.
pub(super) fn position(input: &str, offset: usize) -> (u32, u32) {
    let before = &input.as_bytes()[..offset];
    let line_start = before
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |i| i + 1);
    let line = 1 + before.iter().filter(|&&b| b == b'\n').count();
    // Count characters, not bytes: skip UTF-8 continuation bytes.
    let col = 1 + before[line_start..]
        .iter()
        .filter(|&&b| b & 0xc0 != 0x80)
        .count();
    (line as u32, col as u32)
}

/// On-demand tokenizer over `&'a str`. Consecutive newlines collapse
/// into one [`Tok::Newline`] (and leading ones vanish); `//` and `;`
/// comments run to end of line (the latter is the LLVM-style spelling
/// the lit golden tests use for their `; RUN:` and `; CHECK:` directives).
pub(super) struct Lexer<'a> {
    input: &'a str,
    pos: usize,
    /// The last token was a newline, or there was none yet.
    at_line_start: bool,
}

impl<'a> Lexer<'a> {
    pub(super) fn new(input: &'a str) -> Self {
        Lexer {
            input,
            pos: 0,
            at_line_start: true,
        }
    }

    fn byte(&self, i: usize) -> Option<u8> {
        self.input.as_bytes().get(i).copied()
    }

    fn err<T>(&self, offset: usize, message: impl Into<String>) -> Result<T, Error> {
        Err(Error::lex(offset, message))
    }

    /// Lexes the next token and the byte offset it starts at.
    pub(super) fn next_token(&mut self) -> Result<(Tok<'a>, usize), Error> {
        let bytes = self.input.as_bytes();
        loop {
            let start = self.pos;
            let Some(&b) = bytes.get(start) else {
                return Ok((Tok::Eof, start));
            };
            let punct = match b {
                b'\n' => {
                    self.pos += 1;
                    if self.at_line_start {
                        continue;
                    }
                    self.at_line_start = true;
                    return Ok((Tok::Newline, start));
                }
                b' ' | b'\t' | b'\r' | 0x0b | 0x0c => {
                    self.pos += 1;
                    continue;
                }
                b'/' if self.byte(start + 1) == Some(b'/') => {
                    self.skip_line();
                    continue;
                }
                b'/' => return self.err(start, "unexpected '/'"),
                b';' => {
                    self.skip_line();
                    continue;
                }
                b'(' => Tok::LParen,
                b')' => Tok::RParen,
                b'{' => Tok::LBrace,
                b'}' => Tok::RBrace,
                b'[' => Tok::LBracket,
                b']' => Tok::RBracket,
                b',' => Tok::Comma,
                b':' => Tok::Colon,
                b'=' => Tok::Eq,
                b'-' if self.byte(start + 1) == Some(b'>') => {
                    self.pos += 1;
                    Tok::Arrow
                }
                b'-' | b'0'..=b'9' => {
                    let tok = self.number(start)?;
                    self.at_line_start = false;
                    return Ok((tok, start));
                }
                b'%' | b'@' => {
                    self.pos += 1;
                    let name = self.symbol(b as char)?;
                    self.at_line_start = false;
                    let tok = if b == b'%' {
                        Tok::Local(name)
                    } else {
                        Tok::Global(name)
                    };
                    return Ok((tok, start));
                }
                b'"' => {
                    self.pos += 1;
                    let s = self.string()?;
                    self.at_line_start = false;
                    return Ok((Tok::Str(s), start));
                }
                b if is_ident_start(b) => {
                    let ident = self.ident();
                    self.at_line_start = false;
                    return Ok((Tok::Ident(ident), start));
                }
                _ => {
                    let c = self.input[start..].chars().next().expect("in bounds");
                    if c.is_whitespace() {
                        self.pos += c.len_utf8();
                        continue;
                    }
                    return self.err(start, format!("unexpected character {c:?}"));
                }
            };
            self.pos += 1;
            self.at_line_start = false;
            return Ok((punct, start));
        }
    }

    /// Skips a comment up to (not including) the next newline.
    fn skip_line(&mut self) {
        let rest = &self.input.as_bytes()[self.pos..];
        self.pos += rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len());
    }

    /// Consumes identifier characters and returns them as a slice.
    fn ident(&mut self) -> &'a str {
        let start = self.pos;
        let rest = &self.input.as_bytes()[start..];
        self.pos += rest
            .iter()
            .position(|&b| !is_ident_continue(b))
            .unwrap_or(rest.len());
        &self.input[start..self.pos]
    }

    /// Lexes a symbol name after `@`/`%`: bare identifier or quoted string.
    fn symbol(&mut self, sigil: char) -> Result<Cow<'a, str>, Error> {
        if self.byte(self.pos) == Some(b'"') {
            self.pos += 1;
            return self.string();
        }
        let name = self.ident();
        if name.is_empty() {
            return self.err(self.pos, format!("empty name after '{sigil}'"));
        }
        Ok(Cow::Borrowed(name))
    }

    /// Consumes a double-quoted string body (opening quote already
    /// consumed), decoding `\"`, `\\`, `\n`, `\t`, `\0` and `\xNN`
    /// escapes. Borrows the input unless an escape forces a copy.
    fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        let bytes = self.input.as_bytes();
        let start = self.pos;
        let mut owned: Option<String> = None;
        // Start of the not yet copied run (only used once `owned` is set).
        let mut run = start;
        loop {
            let rest = &bytes[self.pos..];
            let Some(k) = rest.iter().position(|&b| matches!(b, b'"' | b'\\' | b'\n')) else {
                self.pos = bytes.len();
                return self.err(self.pos, "unterminated string");
            };
            let i = self.pos + k;
            self.pos = i + 1;
            match bytes[i] {
                b'"' => {
                    return Ok(match owned {
                        None => Cow::Borrowed(&self.input[start..i]),
                        Some(mut s) => {
                            s.push_str(&self.input[run..i]);
                            Cow::Owned(s)
                        }
                    });
                }
                b'\n' => return self.err(self.pos, "unterminated string"),
                _ => {
                    let decoded = self.escape()?;
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(&self.input[run..i]);
                    s.push(decoded);
                    run = self.pos;
                }
            }
        }
    }

    /// Decodes one escape; the backslash is already consumed.
    fn escape(&mut self) -> Result<char, Error> {
        let Some(c) = self.bump_char() else {
            return self.err(self.pos, "unterminated string");
        };
        Ok(match c {
            '"' => '"',
            '\\' => '\\',
            'n' => '\n',
            't' => '\t',
            '0' => '\0',
            'x' => {
                let hi = self.bump_char().and_then(|c| c.to_digit(16));
                let lo = self.bump_char().and_then(|c| c.to_digit(16));
                let (Some(hi), Some(lo)) = (hi, lo) else {
                    return self.err(self.pos, "bad \\x escape (expected two hex digits)");
                };
                ((hi * 16 + lo) as u8) as char
            }
            other => return self.err(self.pos, format!("unknown escape \\{other}")),
        })
    }

    fn bump_char(&mut self) -> Option<char> {
        let c = self.input[self.pos..].chars().next()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    /// Reads the rest of an `ints` or `bytes` list whose `[` was the last
    /// token, in one loop over the bytes, when it is spelled as the
    /// printer spells it: `-?digits` separated by `, `, then `]`. Each
    /// value goes through `elem` into one vector, reserved once for
    /// `expect` elements but never for more than the rest of the line can
    /// hold, since the loop stops at the line's end.
    /// Returns `None`, with the cursor still just past the `[`, on any
    /// other byte (a comment or a newline included), on a value outside
    /// `i64`, or on one `elem` refuses: the token path then reads the list
    /// and reports what is wrong with it.
    pub(super) fn int_list<T>(
        &mut self,
        expect: u64,
        elem: impl Fn(i64) -> Option<T>,
    ) -> Option<Vec<T>> {
        let bytes = self.input.as_bytes();
        let mut i = self.pos;
        // `0, ` is the shortest element: `n` of them and the `]` take at
        // least `3n - 1` of the bytes before the newline.
        let line = self.input[i..].find('\n').unwrap_or(bytes.len() - i);
        let room = (line + 1) / 3;
        let mut values = Vec::with_capacity(room.min(usize::try_from(expect).unwrap_or(room)));
        if bytes.get(i) != Some(&b']') {
            loop {
                let negative = bytes.get(i) == Some(&b'-');
                i += usize::from(negative);
                let digits = i;
                let mut magnitude: u64 = 0;
                while let Some(&b) = bytes.get(i).filter(|b| b.is_ascii_digit()) {
                    magnitude = magnitude
                        .checked_mul(10)?
                        .checked_add(u64::from(b - b'0'))?;
                    i += 1;
                }
                if i == digits {
                    return None;
                }
                let value = if negative {
                    0i64.checked_sub_unsigned(magnitude)?
                } else {
                    i64::try_from(magnitude).ok()?
                };
                values.push(elem(value)?);
                if bytes.get(i..i + 2) != Some(b", ") {
                    break;
                }
                i += 2;
            }
            if bytes.get(i) != Some(&b']') {
                return None;
            }
        }
        self.pos = i + 1;
        Some(values)
    }

    /// Lexes a number starting at `start` (a digit or `-`). Malformed
    /// literals are reported at the cursor after the literal.
    fn number(&mut self, start: usize) -> Result<Tok<'a>, Error> {
        let bytes = self.input.as_bytes();
        self.pos = start + 1;
        if bytes[start] == b'0' && self.byte(self.pos) == Some(b'x') {
            self.pos += 1;
            let digits = self.pos;
            while self.byte(self.pos).is_some_and(|b| b.is_ascii_hexdigit()) {
                self.pos += 1;
            }
            let hex = &self.input[digits..self.pos];
            return match u64::from_str_radix(hex, 16) {
                Ok(v) => Ok(Tok::HexBits(v)),
                Err(_) => self.err(self.pos, format!("bad hex literal 0x{hex:?}")),
            };
        }
        let mut is_float = false;
        // The magnitude of an integer literal, read while scanning (no
        // second pass over the digits); `None` once it passes `u64::MAX`.
        let negative = bytes[start] == b'-';
        let mut magnitude = if negative {
            Some(0u64)
        } else {
            Some(u64::from(bytes[start] - b'0'))
        };
        while let Some(b) = self.byte(self.pos) {
            if b.is_ascii_digit() {
                magnitude = magnitude
                    .and_then(|m| m.checked_mul(10))
                    .and_then(|m| m.checked_add(u64::from(b - b'0')));
                self.pos += 1;
            } else if matches!(b, b'.' | b'e' | b'E') {
                is_float = true;
                self.pos += 1;
                if b != b'.' && matches!(self.byte(self.pos), Some(b'-' | b'+')) {
                    self.pos += 1;
                }
            } else {
                break;
            }
        }
        let text = &self.input[start..self.pos];
        if is_float {
            match text.parse::<f64>() {
                Ok(v) => Ok(Tok::Float(v)),
                Err(_) => self.err(self.pos, format!("bad float literal {text:?}")),
            }
        } else {
            // Accept what `parse::<i64>()` accepts: a lone `-` has no
            // digits, and a magnitude past `i64`'s range is an error.
            let value = match magnitude {
                Some(m) if text.len() > 1 || !negative => {
                    if negative {
                        0i64.checked_sub_unsigned(m)
                    } else {
                        i64::try_from(m).ok()
                    }
                }
                _ => None,
            };
            match value {
                Some(v) => Ok(Tok::Int(v)),
                None => self.err(self.pos, format!("bad int literal {text:?}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(input: &str) -> Vec<Tok<'_>> {
        let mut lexer = Lexer::new(input);
        let mut out = Vec::new();
        loop {
            let (tok, _) = lexer.next_token().expect("lexes");
            let end = tok == Tok::Eof;
            out.push(tok);
            if end {
                return out;
            }
        }
    }

    fn lex_err(input: &str) -> (u32, u32, String) {
        let mut lexer = Lexer::new(input);
        loop {
            match lexer.next_token() {
                Ok((Tok::Eof, _)) => panic!("{input:?} lexed cleanly"),
                Ok(_) => {}
                Err(e) => {
                    let (line, col) = position(input, e.0.offset);
                    return (line, col, e.0.message);
                }
            }
        }
    }

    fn b(s: &str) -> Cow<'_, str> {
        Cow::Borrowed(s)
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            toks("%5 = add i32 %p0, i32 -1"),
            vec![
                Tok::Local(b("5")),
                Tok::Eq,
                Tok::Ident("add"),
                Tok::Ident("i32"),
                Tok::Local(b("p0")),
                Tok::Comma,
                Tok::Ident("i32"),
                Tok::Int(-1),
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn floats_and_strings() {
        assert_eq!(
            toks("double 1.5 \"hi\" 2e3"),
            vec![
                Tok::Ident("double"),
                Tok::Float(1.5),
                Tok::Str(b("hi")),
                Tok::Float(2000.0),
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn hex_bits_and_plain_zero() {
        assert_eq!(
            toks("0x7ff8000000000000 0 0.5"),
            vec![
                Tok::HexBits(0x7ff8000000000000),
                Tok::Int(0),
                Tok::Float(0.5),
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn names_and_plain_strings_borrow_the_input() {
        for tok in toks("%x @\"odd name\" \"plain\" ident") {
            match tok {
                Tok::Local(s) | Tok::Global(s) | Tok::Str(s) => {
                    assert!(matches!(s, Cow::Borrowed(_)), "{s:?} was copied")
                }
                _ => {}
            }
        }
    }

    #[test]
    fn string_escapes_decode() {
        assert_eq!(
            toks(r#""a\"b\\c\n\x41\xff""#),
            vec![Tok::Str(Cow::Owned("a\"b\\c\nA\u{ff}".into())), Tok::Eof]
        );
        assert_eq!(lex_err(r#""\q""#).2, "unknown escape \\q");
        assert_eq!(
            lex_err(r#""\x4""#).2,
            "bad \\x escape (expected two hex digits)"
        );
    }

    #[test]
    fn quoted_symbol_names() {
        assert_eq!(
            toks(r#"@"odd name" %"x y""#),
            vec![Tok::Global(b("odd name")), Tok::Local(b("x y")), Tok::Eof]
        );
    }

    #[test]
    fn newlines_collapse_and_comments_skip() {
        assert_eq!(
            toks("a // comment\n\n\nb"),
            vec![Tok::Ident("a"), Tok::Newline, Tok::Ident("b"), Tok::Eof]
        );
    }

    #[test]
    fn semicolon_comments_skip_to_end_of_line() {
        assert_eq!(
            toks("; RUN: rolag\na ; trailing\n; CHECK: b\nb"),
            vec![Tok::Ident("a"), Tok::Newline, Tok::Ident("b"), Tok::Eof]
        );
    }

    #[test]
    fn int_literals_read_as_str_parse_reads_them() {
        for text in [
            "0",
            "-0",
            "007",
            "-007",
            "9223372036854775807",
            "9223372036854775808",
            "-9223372036854775808",
            "-9223372036854775809",
            "18446744073709551615",
            "18446744073709551616",
            "-18446744073709551616",
            "99999999999999999999999999",
            "-",
        ] {
            let mut lexer = Lexer::new(text);
            let lexed = lexer
                .next_token()
                .map(|(tok, _)| tok)
                .map_err(|e| e.0.message);
            let expected = match text.parse::<i64>() {
                Ok(v) => Ok(Tok::Int(v)),
                Err(_) => Err(format!("bad int literal {text:?}")),
            };
            assert_eq!(lexed, expected, "{text}");
        }
    }

    #[test]
    fn arrow_vs_negative() {
        assert_eq!(toks("-> -42"), vec![Tok::Arrow, Tok::Int(-42), Tok::Eof]);
    }

    #[test]
    fn error_on_bad_char() {
        assert_eq!(lex_err("$"), (1, 1, "unexpected character '$'".into()));
        assert_eq!(
            lex_err("\"unterminated"),
            (1, 14, "unterminated string".into())
        );
    }

    #[test]
    fn line_and_column_numbers_advance() {
        let input = "a\nbb cc\nd";
        let mut lexer = Lexer::new(input);
        let mut pos = Vec::new();
        loop {
            let (tok, offset) = lexer.next_token().unwrap();
            pos.push(position(input, offset));
            if tok == Tok::Eof {
                break;
            }
        }
        // a, newline, bb, cc, newline, d, eof
        assert_eq!(
            pos,
            vec![(1, 1), (1, 2), (2, 1), (2, 4), (2, 6), (3, 1), (3, 2)]
        );
    }

    #[test]
    fn columns_count_characters() {
        assert_eq!(
            lex_err("\"é\u{1F4A5}\" $"),
            (1, 6, "unexpected character '$'".into())
        );
    }
}

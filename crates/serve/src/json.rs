//! A minimal JSON codec for the service protocol.
//!
//! The workspace is dependency-free by policy, so the NDJSON wire format
//! is parsed and rendered by hand. The subset is exactly what the
//! protocol needs: objects, arrays, strings with full escape handling,
//! numbers (kept as `f64`; every counter the protocol carries fits well
//! inside the 2^53 exact-integer range), booleans, and null.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number. Integers round-trip exactly up to 2^53.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is normalized (sorted) — the protocol never
    /// relies on member order.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Member `key` of an object, if present.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.get(key),
            _ => None,
        }
    }
}

/// The bytes `b` takes inside a JSON string literal: more than one for a
/// quote, a backslash or a control byte, which are escaped. Every such
/// byte is ASCII, so it never falls inside a multi-byte UTF-8 sequence.
fn literal_len(b: u8) -> usize {
    match b {
        b'"' | b'\\' | b'\n' | b'\r' | b'\t' => 2,
        0..=0x1f => 6,
        _ => 1,
    }
}

/// Renders `s` as a JSON string literal (quotes included) into `out`.
/// Each run of bytes that need no escape is copied in one piece.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if literal_len(b) == 1 {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{:04x}", b);
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// `s` as a JSON string literal, allocated at its exact length.
pub fn escaped(s: &str) -> String {
    let mut out = String::with_capacity(2 + s.bytes().map(literal_len).sum::<usize>());
    write_escaped(&mut out, s);
    out
}

/// How deeply arrays and objects may nest in a parsed document.
const MAX_DEPTH: usize = 256;

/// Parses one JSON document. Trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(text, bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing input at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {pos}", b as char))
    }
}

/// Parses the value at `pos`, inside `depth` enclosing arrays and objects.
/// The depth is capped, so a hostile document cannot recurse the parser
/// off its stack.
fn parse_value(text: &str, bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}"
        )),
        Some(b'{') => parse_object(text, bytes, pos, depth + 1),
        Some(b'[') => parse_array(text, bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(text, bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(text, bytes, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("bad keyword at byte {pos}"))
    }
}

fn parse_number(text: &str, bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if matches!(bytes.get(*pos), Some(b'-')) {
        *pos += 1;
    }
    while matches!(
        bytes.get(*pos),
        Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    ) {
        *pos += 1;
    }
    text[start..*pos]
        .parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number at byte {start}"))
}

/// Parses the string literal at `pos`. Each run between a quote or a
/// backslash is copied in one piece, raw control bytes included.
fn parse_string(text: &str, bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        let run = *pos;
        while *pos < bytes.len() && !matches!(bytes[*pos], b'"' | b'\\') {
            *pos += 1;
        }
        // Quotes and backslashes are ASCII, so `*pos` is a char boundary.
        out.push_str(&text[run..*pos]);
        let Some(&b) = bytes.get(*pos) else {
            return Err("unterminated string".into());
        };
        *pos += 1;
        if b == b'"' {
            return Ok(out);
        }
        let Some(&esc) = bytes.get(*pos) else {
            return Err("unterminated escape".into());
        };
        *pos += 1;
        match esc {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'u' => out.push(parse_unicode_escape(text, pos)?),
            other => return Err(format!("bad escape \\{}", other as char)),
        }
    }
}

/// Four hex digits of a `\u` escape, `pos` just past the `u`. Only ASCII
/// hex digits count: no sign, no space.
fn hex4(text: &str, pos: &mut usize, truncated: &str) -> Result<u32, String> {
    let hex = text.get(*pos..*pos + 4).ok_or(truncated)?;
    let code = hex4_value(hex).ok_or("bad \\u escape")?;
    *pos += 4;
    Ok(code)
}

/// The value of `hex` when it is four ASCII hex digits.
fn hex4_value(hex: &str) -> Option<u32> {
    hex.bytes()
        .try_fold(0, |code, b| Some(code * 16 + char::from(b).to_digit(16)?))
}

/// The character of a `\u` escape, `pos` just past the `u`. A high
/// surrogate must be followed by an escaped low one.
fn parse_unicode_escape(text: &str, pos: &mut usize) -> Result<char, String> {
    let code = hex4(text, pos, "truncated \\u escape")?;
    // Surrogate pairs: only needed for astral-plane text, which IR never
    // contains, but handled so the codec is complete.
    let c = if (0xd800..0xdc00).contains(&code) {
        if !text[*pos..].starts_with("\\u") {
            return Err("lone high surrogate".into());
        }
        *pos += 2;
        let low = hex4(text, pos, "truncated low surrogate")?;
        if !(0xdc00..0xe000).contains(&low) {
            return Err("high surrogate without a low one".into());
        }
        0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00)
    } else {
        code
    };
    char::from_u32(c).ok_or_else(|| "invalid \\u code point".to_string())
}

fn parse_object(text: &str, bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut members = BTreeMap::new();
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'}')) {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(text, bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(text, bytes, pos, depth)?;
        members.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
        }
    }
}

fn parse_array(text: &str, bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b']')) {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(text, bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_escaped_ir_text() {
        let ir = "module \"m\"\nfunc @f() -> void {\nentry:\n  ret\n}\n";
        let doc = format!("{{\"module\": {}, \"n\": 3, \"ok\": true}}", escaped(ir));
        let parsed = parse(&doc).unwrap();
        assert_eq!(parsed.get("module").and_then(Json::as_str), Some(ir));
        assert_eq!(parsed.get("n").and_then(Json::as_num), Some(3.0));
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn parses_nested_structure_and_rejects_trailing_junk() {
        let parsed = parse("{\"a\": [1, {\"b\": null}, \"x\\u0041\"]}").unwrap();
        let Json::Arr(items) = parsed.get("a").unwrap() else {
            panic!("array");
        };
        assert_eq!(items.len(), 3);
        assert_eq!(items[2].as_str(), Some("xA"));
        assert!(parse("{} junk").is_err());
        assert!(parse("{\"unterminated").is_err());
    }

    #[test]
    fn nesting_is_capped() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = "[".repeat(300_000);
        assert_eq!(
            parse(&deep),
            Err("nesting deeper than 256 levels at byte 256".to_string())
        );
        let objects = format!("{}1", "{\"k\": ".repeat(MAX_DEPTH + 1));
        assert_eq!(
            parse(&objects),
            Err("nesting deeper than 256 levels at byte 1536".to_string())
        );
    }

    /// The char-at-a-time codec the bulk copies replaced, kept as the
    /// reference. Its one change: a high surrogate followed by anything
    /// but a low one is an error (it used to underflow).
    mod reference {
        use std::fmt::Write as _;

        /// `hex` as a number when every byte is an ASCII hex digit
        /// (`from_str_radix` alone would also take a sign).
        fn hex_digits(hex: &str) -> Option<u32> {
            if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                return None;
            }
            u32::from_str_radix(hex, 16).ok()
        }

        pub fn escape(s: &str) -> String {
            let mut out = String::from('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }

        /// The string literal at the start of `text` and the byte after it.
        pub fn parse(text: &str) -> Result<(String, usize), String> {
            let mut pos = 1;
            let mut out = String::new();
            loop {
                let Some(&b) = text.as_bytes().get(pos) else {
                    return Err("unterminated string".into());
                };
                match b {
                    b'"' => return Ok((out, pos + 1)),
                    b'\\' => {
                        pos += 1;
                        let Some(&esc) = text.as_bytes().get(pos) else {
                            return Err("unterminated escape".into());
                        };
                        pos += 1;
                        match esc {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b'r' => out.push('\r'),
                            b't' => out.push('\t'),
                            b'b' => out.push('\u{8}'),
                            b'f' => out.push('\u{c}'),
                            b'u' => {
                                let hex = text.get(pos..pos + 4).ok_or("truncated \\u escape")?;
                                let code = hex_digits(hex).ok_or("bad \\u escape")?;
                                pos += 4;
                                let c = if (0xd800..0xdc00).contains(&code) {
                                    if !text[pos..].starts_with("\\u") {
                                        return Err("lone high surrogate".into());
                                    }
                                    let low = text
                                        .get(pos + 2..pos + 6)
                                        .ok_or("truncated low surrogate")?;
                                    let low = hex_digits(low).ok_or("bad \\u escape")?;
                                    pos += 6;
                                    if !(0xdc00..0xe000).contains(&low) {
                                        return Err("high surrogate without a low one".into());
                                    }
                                    0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00)
                                } else {
                                    code
                                };
                                out.push(char::from_u32(c).ok_or("invalid \\u code point")?);
                            }
                            other => return Err(format!("bad escape \\{}", other as char)),
                        }
                    }
                    _ => {
                        let c = text[pos..].chars().next().unwrap();
                        out.push(c);
                        pos += c.len_utf8();
                    }
                }
            }
        }
    }

    /// A seeded xorshift stream for the equivalence sweeps.
    struct XorShift(u64);

    impl XorShift {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    /// Unescaped text: every byte below 0x20, quotes, backslashes, a slash,
    /// ASCII, DEL and multi-byte UTF-8 of two, three and four bytes.
    fn raw_pieces() -> Vec<String> {
        let mut pieces: Vec<String> = (0u8..0x20).map(|b| char::from(b).to_string()).collect();
        for p in [
            "\"",
            "\\",
            "/",
            "a",
            "module \"m\"",
            "  ret",
            "\u{7f}",
            "é",
            "中",
            "\u{2028}",
            "💥",
        ] {
            pieces.push(p.to_string());
        }
        pieces
    }

    /// Escape sequences, valid and not: every short escape, `\u00XX` for
    /// every byte below 0x20 in both hex cases, BMP and surrogate-pair
    /// `\u` escapes, and the malformed ones (lone, unpaired and truncated
    /// surrogates, short and non-hex `\u` digits, an unknown escape).
    fn escape_pieces() -> Vec<String> {
        let mut pieces: Vec<String> = ["\\\"", "\\\\", "\\/", "\\n", "\\r", "\\t", "\\b", "\\f"]
            .iter()
            .map(|p| p.to_string())
            .collect();
        for b in 0..0x20 {
            pieces.push(format!("\\u{b:04x}"));
            pieces.push(format!("\\u{b:04X}"));
        }
        for p in [
            "\\u0041",
            "\\u00e9",
            "\\u4e2d",
            "\\uffff",
            "\\ud83d\\udca5",
            "\\uD83D\\uDE00",
            "\\udbff\\udfff",
            "\\ud800",
            "\\ud800x",
            "\\ud800\\u0041",
            "\\ud800\\ue000",
            "\\ud800\\udc",
            "\\udc00",
            "\\u12",
            "\\u12g4",
            "\\u+041",
            "\\u-041",
            "\\u 041",
            "\\ud800\\u+c00",
            "\\x",
            "\\u00é",
        ] {
            pieces.push(p.to_string());
        }
        pieces
    }

    #[test]
    fn bulk_codec_matches_the_char_at_a_time_reference() {
        let raw = raw_pieces();
        let escapes = escape_pieces();
        // Every piece alone, then seeded concatenations.
        let mut texts: Vec<String> = raw.clone();
        let mut literals: Vec<String> = raw.iter().chain(&escapes).cloned().collect();
        let mut rng = XorShift(0x5e12_7e5e_c0de_c0de);
        for _ in 0..4_000 {
            let len = rng.below(12);
            let text: String = (0..len)
                .map(|_| raw[rng.below(raw.len())].as_str())
                .collect();
            let literal: String = (0..len)
                .map(|_| {
                    if rng.below(3) == 0 {
                        escapes[rng.below(escapes.len())].as_str()
                    } else {
                        raw[rng.below(raw.len())].as_str()
                    }
                })
                .collect();
            texts.push(text);
            literals.push(literal);
        }
        for text in &texts {
            let out = escaped(text);
            assert_eq!(out, reference::escape(text), "escaping {text:?}");
            assert_eq!(parse(&out).unwrap().as_str(), Some(text.as_str()));
        }
        for body in &literals {
            // Closed, followed by more input, and unterminated.
            for literal in [
                format!("\"{body}\""),
                format!("\"{body}\": 1"),
                format!("\"{body}"),
            ] {
                let mut pos = 0;
                let bulk = parse_string(&literal, literal.as_bytes(), &mut pos).map(|s| (s, pos));
                assert_eq!(bulk, reference::parse(&literal), "parsing {literal:?}");
            }
        }
        // `from_str_radix` takes a sign; a JSON `\u` escape does not.
        for bad in [
            "\"\\u+041\"",
            "\"\\u-041\"",
            "\"\\u 041\"",
            "\"\\ud800\\u+c00\"",
        ] {
            let mut pos = 0;
            let err = Err("bad \\u escape".to_string());
            assert_eq!(parse_string(bad, bad.as_bytes(), &mut pos), err, "{bad}");
            assert_eq!(reference::parse(bad).map(|(s, _)| s), err, "{bad}");
        }
    }

    #[test]
    fn escape_handles_control_characters() {
        let s = "a\"b\\c\nd\te\u{1}f";
        let obj = format!("{{\"k\": {}}}", escaped(s));
        assert_eq!(
            parse(&obj).unwrap().get("k").and_then(Json::as_str),
            Some(s)
        );
    }
}

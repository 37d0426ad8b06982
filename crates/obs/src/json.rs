//! A zero-dependency JSON value type: serializer + strict parser.
//!
//! The workspace is deliberately offline (no registry crates, so no
//! serde); this module is the single JSON implementation every
//! machine-readable artifact goes through. The parser exists so tests
//! and tooling can *validate* what the serializer (or CI) produced —
//! it accepts exactly the JSON grammar, no extensions.

use std::fmt;

/// A JSON value.
///
/// Numbers are split into [`Json::U64`], [`Json::I64`] and
/// [`Json::F64`] so 64-bit simulator counters survive a round trip
/// exactly (an `f64` mantissa would corrupt counters above 2^53).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Non-negative integer (the common case: counters and cycles).
    U64(u64),
    /// Negative integer.
    I64(i64),
    /// Floating-point number (serialized with enough digits to round
    /// trip; non-finite values serialize as `null` per JSON).
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member of an object by key (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64` (exact integers only).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            Json::I64(v) => u64::try_from(v).ok(),
            _ => None,
        }
    }

    /// The value as `f64` (any numeric variant).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(v) => Some(v as f64),
            Json::I64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array.
    pub fn as_arr(&self) -> Option<&Vec<Json>> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The value as object members.
    pub fn as_obj(&self) -> Option<&Vec<(String, Json)>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Serializes with two-space indentation and a trailing newline —
    /// the format of every `--json` artifact.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        use fmt::Write as _;
        let indent = |out: &mut String, depth: usize| (0..depth).for_each(|_| out.push_str("  "));
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                    out.push_str(if i + 1 == items.len() { "\n" } else { ",\n" });
                }
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(members) if !members.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in members.iter().enumerate() {
                    indent(out, depth + 1);
                    let _ = write!(out, "{}: ", Escaped(k));
                    v.write_pretty(out, depth + 1);
                    out.push_str(if i + 1 == members.len() { "\n" } else { ",\n" });
                }
                indent(out, depth);
                out.push('}');
            }
            other => {
                let _ = write!(out, "{other}");
            }
        }
    }

    /// Parses a JSON document (the full input must be one value plus
    /// optional whitespace). Arrays and objects nest at most 128 deep,
    /// so no input can exhaust the stack of the thread reading it.
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first violation.
    pub fn parse(input: &str) -> Result<Json, String> {
        let bytes = input.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }
}

/// Compact single-line serialization (pretty printing handles
/// indentation at the container level).
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::U64(v) => write!(f, "{v}"),
            Json::I64(v) => write!(f, "{v}"),
            Json::F64(v) if !v.is_finite() => write!(f, "null"),
            // `{v:?}` prints the shortest representation that parses
            // back to the same f64 (and always includes a '.' or 'e').
            Json::F64(v) => write!(f, "{v:?}"),
            Json::Str(s) => write!(f, "{}", Escaped(s)),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Json::Obj(members) => {
                write!(f, "{{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}:{v}", Escaped(k))?;
                }
                write!(f, "}}")
            }
        }
    }
}

struct Escaped<'a>(&'a str);

/// Writes the runs between escapes with one `write_str` each. Every
/// byte that needs an escape is ASCII, so it is never part of a
/// multi-byte character and each run is a whole `&str`.
impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("\"")?;
        let mut run = 0;
        for (i, b) in self.0.bytes().enumerate() {
            let short = match b {
                b'"' => Some("\\\""),
                b'\\' => Some("\\\\"),
                b'\n' => Some("\\n"),
                b'\r' => Some("\\r"),
                b'\t' => Some("\\t"),
                0..=0x1f => None,
                _ => continue,
            };
            f.write_str(&self.0[run..i])?;
            match short {
                Some(escape) => f.write_str(escape)?,
                None => write!(f, "\\u{b:04x}")?,
            }
            run = i + 1;
        }
        f.write_str(&self.0[run..])?;
        f.write_str("\"")
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U64(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::U64(v as u64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        if let Ok(u) = u64::try_from(v) {
            Json::U64(u)
        } else {
            Json::I64(v)
        }
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

// ---- parser ---------------------------------------------------------

/// How deep arrays and objects may nest in a parsed document. The
/// parser recurses once per level; the deepest document this workspace
/// writes nests a handful of levels, and a bound keeps a corrupt file
/// of brackets from overflowing the reading thread's stack.
const MAX_DEPTH: usize = 128;

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
    }
}

/// Parses the value at `pos`, which `depth` containers enclose.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'[' | b'{')) && depth == MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}", pos = *pos));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => expect(b, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(b, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => parse_array(b, pos, depth + 1),
        Some(b'{') => parse_object(b, pos, depth + 1),
        Some(c) if *c == b'-' || c.is_ascii_digit() => parse_number(b, pos),
        Some(c) => Err(format!("unexpected byte {c:#04x} at {pos}", pos = *pos)),
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut members = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, ":")?;
        let value = parse_value(b, pos, depth)?;
        members.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        // The run up to the next `"`, `\` or control character. All are
        // ASCII, so the run ends on a character boundary of the input and
        // is valid UTF-8.
        let run = b[*pos..].iter().position(|&c| c == b'"' || c == b'\\' || c < 0x20);
        let end = run.map_or(b.len(), |n| *pos + n);
        out.push_str(std::str::from_utf8(&b[*pos..end]).expect("input was a str"));
        *pos = end;
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(c) if *c < 0x20 => {
                return Err(format!("raw control character {c:#04x} at byte {pos}", pos = *pos));
            }
            Some(_) => {
                // The run stopped at a `\`.
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                        // Surrogates are rejected (no pair decoding —
                        // the serializer never emits them).
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("invalid codepoint \\u{hex}"))?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
        }
    }
}

/// Reads a number by the JSON grammar,
/// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`. An integer reads
/// as [`Json::U64`] (`-0` too) or, when negative, [`Json::I64`]; one
/// out of their range, or with a fraction or an exponent, reads as
/// [`Json::F64`].
fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    let digits = |p: usize| {
        let n = b[p..].iter().take_while(|c| c.is_ascii_digit()).count();
        (n > 0).then_some(p + n)
    };
    let scan = || {
        let mut p = start + usize::from(b[start] == b'-');
        p = if b.get(p) == Some(&b'0') { p + 1 } else { digits(p)? };
        let int_end = p;
        if b.get(p) == Some(&b'.') {
            p = digits(p + 1)?;
        }
        if matches!(b.get(p), Some(b'e' | b'E')) {
            p = digits(p + 1 + usize::from(matches!(b.get(p + 1), Some(b'+' | b'-'))))?;
        }
        // No number byte may follow: `01` stops after its `0`.
        let more = matches!(b.get(p), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'));
        (!more).then_some((p, p == int_end))
    };
    let Some((end, integer)) = scan() else {
        let n = b[start..].iter().take_while(|c| c.is_ascii_digit() || b"-+.eE".contains(c));
        let text = std::str::from_utf8(&b[start..start + n.count()]).expect("ascii");
        return Err(format!("bad number `{text}` at byte {start}"));
    };
    *pos = end;
    let text = std::str::from_utf8(&b[start..end]).expect("ascii");
    if integer {
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::U64(v));
        }
        if let Ok(v) = text.parse::<i64>() {
            return Ok(Json::from(v));
        }
    }
    Ok(Json::F64(text.parse().expect("the grammar is a subset of Rust's float syntax")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_compact_and_pretty() {
        let doc = Json::Obj(vec![
            ("schema".into(), Json::from("vr-test-v1")),
            ("big".into(), Json::U64(u64::MAX)),
            ("neg".into(), Json::I64(-7)),
            ("pi".into(), Json::F64(3.25)),
            ("flag".into(), Json::Bool(true)),
            ("none".into(), Json::Null),
            ("arr".into(), Json::Arr(vec![Json::U64(1), Json::from("x\n\"y")])),
            ("empty".into(), Json::Obj(vec![])),
        ]);
        for text in [doc.to_string(), doc.to_pretty()] {
            assert_eq!(Json::parse(&text).expect("parses"), doc, "text was: {text}");
        }
    }

    #[test]
    fn u64_counters_survive_exactly() {
        let v = Json::parse("18446744073709551615").unwrap();
        assert_eq!(v, Json::U64(u64::MAX));
        assert_eq!(v.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn accessors() {
        let doc = Json::parse(r#"{"a": [1, 2.5], "s": "hi"}"#).unwrap();
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("hi"));
        let arr = doc.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(doc.as_obj().map(Vec::len), Some(2));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"unterminated", "{\"a\" 1}"] {
            assert!(Json::parse(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(Json::F64(f64::NAN).to_string(), "null");
        assert_eq!(Json::F64(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn control_characters_are_escaped() {
        let s = Json::from("a\u{01}b").to_string();
        assert_eq!(s, "\"a\\u0001b\"");
        assert_eq!(Json::parse(&s).unwrap(), Json::from("a\u{01}b"));
    }

    /// The result store (`crates/campaign`) persists these documents
    /// to disk and reads them back across processes, so pathological
    /// strings must survive a serialize → parse round trip exactly —
    /// in both the compact and the pretty rendering, and as object
    /// *keys* as well as values.
    #[test]
    fn pathological_strings_round_trip_exactly() {
        let cases = [
            "quote \" backslash \\ slash /",
            "\\\"nested \\\\ escapes\\\"",
            "newline\ntab\tcarriage\rreturn",
            "\u{0}\u{1}\u{8}\u{c}\u{1f}", // every escape class of control char
            "naïve café — emoji 🦘 and CJK 漢字", // non-ASCII, multi-byte UTF-8
            "\u{e000}\u{fffd}",           // private use + replacement char
            "ends with backslash \\",
            "",                                  // empty string
            "{\"looks\": [\"like\", \"json\"]}", // JSON-shaped payload inside a string
        ];
        for case in cases {
            let doc = Json::Obj(vec![
                (case.to_string(), Json::from(case)),
                ("arr".into(), Json::Arr(vec![Json::from(case)])),
            ]);
            for text in [doc.to_string(), doc.to_pretty()] {
                let round = Json::parse(&text)
                    .unwrap_or_else(|e| panic!("self-emitted JSON must parse ({case:?}): {e}"));
                assert_eq!(round, doc, "round trip must be exact for {case:?}");
            }
        }
    }

    /// One document holding every class of character the escaper and
    /// the reader treat differently — `"`, `\`, `\n`, `\r`, `\t`, other
    /// control characters, DEL (which passes unescaped), 2-, 3- and
    /// 4-byte UTF-8 and the empty string — with escapes at the start
    /// and at the end of a run, as object keys and as values.
    fn every_escape_class() -> Json {
        let strings = [
            "\"quoted\"",
            "back\\slash",
            "line\nfeed",
            "carriage\rreturn",
            "tab\t",
            "\u{1}soh",
            "del \u{7f} passes raw",
            "two-byte é ñ ß",
            "three-byte € 漢字 \u{fffd}",
            "four-byte 🦘 𝄞",
            "",
            "\\\n\"\u{1}\u{1f}",
            "plain ascii run",
        ];
        let members = strings
            .iter()
            .enumerate()
            .map(|(i, s)| (s.to_string(), Json::Arr(vec![Json::from(*s), Json::U64(i as u64)])));
        Json::Obj(members.collect())
    }

    /// The compact and pretty renderings of [`every_escape_class`],
    /// pinned by FNV-1a: the store checksums the compact rendering and
    /// writes the pretty one, so a change to either moves every record.
    #[test]
    fn escaped_renderings_are_pinned() {
        let doc = every_escape_class();
        let fnv = |text: String| {
            let mut h = crate::Fnv64::new();
            h.write_bytes(text.as_bytes());
            h.finish()
        };
        assert_eq!(fnv(doc.to_string()), 0x44f9_c52d_71d5_5432, "compact: {doc}");
        assert_eq!(fnv(doc.to_pretty()), 0x997e_b30a_31aa_844a, "pretty: {}", doc.to_pretty());
    }

    /// The reader inverts the escaper on every class of character, in
    /// both renderings.
    #[test]
    fn every_escape_class_round_trips() {
        let doc = every_escape_class();
        for text in [doc.to_string(), doc.to_pretty()] {
            assert_eq!(Json::parse(&text).expect("parses"), doc, "text was: {text}");
        }
    }

    /// A string cut off inside an unescaped run, or right after an
    /// escape, is an error, not a truncated value.
    #[test]
    fn a_string_cut_off_inside_a_run_is_unterminated() {
        for bad in ["\"abc", "\"a\\nbc", "[\"x\", \"é漢🦘", "{\"k\": \"v"] {
            assert_eq!(Json::parse(bad), Err("unterminated string".to_string()), "{bad}");
        }
        assert_eq!(Json::parse("\"ab\\"), Err("bad escape at byte 4".to_string()));
    }

    /// A long string mixing every class of character survives a round
    /// trip exactly (a correctness check: the reader and the escaper
    /// scan runs, and a run here spans up to hundreds of bytes).
    #[test]
    fn a_one_mib_string_round_trips() {
        let pieces = ["plain ascii ", "é", "漢", "🦘", "\"", "\\", "\n", "\u{1}", "\u{7f}", ""];
        let mut long = String::new();
        for i in 0usize.. {
            if long.len() >= 1 << 20 {
                break;
            }
            long.push_str(pieces[i % pieces.len()]);
            long.push_str(&"x".repeat(i % 257));
        }
        let doc = Json::Arr(vec![Json::from(long.as_str()), Json::Obj(vec![(long, Json::Null)])]);
        for text in [doc.to_string(), doc.to_pretty()] {
            assert_eq!(Json::parse(&text).expect("parses"), doc);
        }
    }

    /// Integers have no leading zeros, in the integer part of a float
    /// either.
    #[test]
    fn rejects_leading_zeros() {
        for bad in ["007", "01.5", "-01", "[00]", "{\"a\":012}"] {
            assert!(Json::parse(bad).is_err(), "should reject: {bad}");
        }
        assert_eq!(Json::parse("007"), Err("bad number `007` at byte 0".to_string()));
        assert_eq!(Json::parse("0"), Ok(Json::U64(0)));
        assert_eq!(Json::parse("0.5"), Ok(Json::F64(0.5)));
        assert_eq!(Json::parse("10"), Ok(Json::U64(10)));
    }

    /// A fraction and an exponent each need at least one digit.
    #[test]
    fn rejects_a_dot_or_exponent_without_digits() {
        for bad in ["1.", "-1.", "[1.]", "1.e5", ".5", "1e", "1e+", "-", "-.5", "1.5.3"] {
            assert!(Json::parse(bad).is_err(), "should reject: {bad}");
        }
        assert_eq!(Json::parse("1."), Err("bad number `1.` at byte 0".to_string()));
        assert_eq!(Json::parse("1.0e+5"), Ok(Json::F64(1.0e5)));
        assert_eq!(Json::parse("-2E-3"), Ok(Json::F64(-2e-3)));
    }

    /// Control characters inside a string must be escaped; a raw one
    /// is an error.
    #[test]
    fn rejects_raw_control_characters_in_strings() {
        for bad in ["\"a\nb\"", "\"tab\there\"", "\"\u{0}\"", "{\"k\u{1f}\": 1}"] {
            assert!(Json::parse(bad).is_err(), "should reject: {bad:?}");
        }
        assert_eq!(
            Json::parse("\"a\nb\""),
            Err("raw control character 0x0a at byte 2".to_string())
        );
        assert_eq!(Json::parse("\"a\\nb\""), Ok(Json::from("a\nb")));
        assert_eq!(Json::parse("\"del \u{7f}\""), Ok(Json::from("del \u{7f}")));
    }

    /// `-0` is zero, and reads as the value `Json::from(0)` builds.
    #[test]
    fn negative_zero_reads_as_zero() {
        assert_eq!(Json::parse("-0"), Ok(Json::from(0i64)));
        assert_eq!(Json::parse("-0"), Ok(Json::U64(0)));
        assert_eq!(Json::parse("-7"), Ok(Json::I64(-7)));
        assert_eq!(
            Json::parse("-0.0").map(|j| j.as_f64().map(f64::to_bits)),
            Ok(Some(0x8000_0000_0000_0000))
        );
    }

    /// Arrays and objects nest at most `MAX_DEPTH` deep. Past it the
    /// parser returns an error instead of recursing, however deep the
    /// input goes.
    #[test]
    fn nesting_is_bounded() {
        let nested = |open: &str, close: &str, n: usize| open.repeat(n) + &close.repeat(n);
        assert!(Json::parse(&nested("[", "]", MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested("{\"a\":", "}", MAX_DEPTH - 1).replace(":}", ":{}}")).is_ok());
        let deeper = format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}");
        assert_eq!(Json::parse(&nested("[", "]", MAX_DEPTH + 1)), Err(deeper.clone()));
        assert_eq!(Json::parse(&"[".repeat(100_000)), Err(deeper));
        let objects = nested("{\"a\":", "}", MAX_DEPTH + 1);
        assert!(Json::parse(&objects).unwrap_err().starts_with("nesting deeper than"));
    }

    /// Non-finite floats have no JSON representation: the serializer
    /// documents them as `null`. A store record must therefore never
    /// round-trip NaN/±inf — pin that the emitted byte really is
    /// `null` (which parses back as [`Json::Null`], *not* a number) in
    /// every container position, so writers know they must keep
    /// non-finite values out of persisted documents.
    #[test]
    fn non_finite_floats_degrade_to_null_in_containers() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let doc = Json::Obj(vec![
                ("x".into(), Json::F64(v)),
                ("arr".into(), Json::Arr(vec![Json::F64(v), Json::U64(1)])),
            ]);
            for text in [doc.to_string(), doc.to_pretty()] {
                let round = Json::parse(&text).expect("emitted document parses");
                assert_eq!(round.get("x"), Some(&Json::Null), "in {text}");
                assert_eq!(
                    round.get("arr").and_then(Json::as_arr).map(|a| a[0].clone()),
                    Some(Json::Null)
                );
            }
        }
        // Finite extremes, by contrast, survive exactly.
        for v in [f64::MIN, f64::MAX, f64::MIN_POSITIVE, f64::EPSILON, -0.0] {
            let text = Json::F64(v).to_string();
            let round = Json::parse(&text).expect("parses");
            let got = round.as_f64().expect("still a number");
            assert_eq!(got.to_bits(), v.to_bits(), "bit-exact round trip for {v:e}");
        }
    }
}

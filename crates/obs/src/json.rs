//! A zero-dependency JSON value type: serializer + strict parser, and
//! the pull [`Reader`] the parser is built on.
//!
//! The workspace is deliberately offline (no registry crates, so no
//! serde); this module is the single JSON implementation every
//! machine-readable artifact goes through. The parser exists so tests
//! and tooling can *validate* what the serializer (or CI) produced —
//! it accepts exactly the JSON grammar, no extensions. The reader
//! hands the same grammar out token by token, so the result store
//! reads a record without building a tree.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

use crate::Fnv64;

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
    /// optional whitespace) through a [`Reader`]: arrays and objects
    /// nest at most 128 deep, and the tree is built with an explicit
    /// stack, so no input can exhaust the stack of the thread reading
    /// it.
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first violation.
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut r = Reader::new(input);
        let value = read_tree(&mut r)?;
        r.finish()?;
        Ok(value)
    }

    /// FNV-1a of the compact rendering (`Display`), streamed into the
    /// hasher as it is rendered. A [`Reader`] folds the same digest
    /// from a document's text ([`Reader::start_digest`]).
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        write!(FnvBytes(&mut h), "{self}").expect("hashing never fails");
        h.finish()
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

// ---- reader ---------------------------------------------------------

/// How deep arrays and objects may nest in a document. The deepest
/// document this workspace writes nests a handful of levels; the bound
/// keeps the reader's container stack one `u128` and rejects a corrupt
/// file of brackets instead of following it.
const MAX_DEPTH: usize = 128;

/// One token of a JSON document, as a [`Reader`] hands it out.
#[derive(Debug, PartialEq)]
pub enum Event<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number that reads as [`Json::U64`].
    U64(u64),
    /// A number that reads as [`Json::I64`].
    I64(i64),
    /// A number that reads as [`Json::F64`].
    F64(f64),
    /// A string value: borrowed from the input unless it holds an
    /// escape.
    Str(Cow<'a, str>),
    /// An object member's name (its `:` read too); the member's value
    /// comes next.
    Key(Cow<'a, str>),
    /// `[`.
    ArrStart,
    /// `]`.
    ArrEnd,
    /// `{`.
    ObjStart,
    /// `}`.
    ObjEnd,
}

/// What a [`Reader`] may read next.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Expect {
    /// A value: the document's, or a member's after its `:`.
    Value,
    /// The first element or member of the container just opened, or
    /// its end.
    First,
    /// A `,` and the next element or member, or the container's end;
    /// at depth 0, nothing (the document's value is complete).
    Next,
}

/// A pull reader over one JSON document: the strict grammar
/// [`Json::parse`] accepts, handed out token by token as [`Event`]s,
/// with no tree and, unless a string holds an escape, no allocation.
///
/// Arrays and objects nest at most 128 deep; the container stack is a
/// bit set, so no input can make the reader recurse or grow. A reader
/// can also fold what it reads into an FNV-1a digest
/// ([`Reader::start_digest`]): the digest of the value's *compact*
/// rendering, the one [`Json::digest`] computes from a tree, however
/// the text was spaced or spelled.
///
/// ```
/// use vr_obs::{Event, Json, Reader};
///
/// let mut r = Reader::new(r#"{"n": [1, 2], "s": "x"}"#);
/// let mut sum = 0;
/// r.start_digest();
/// r.object(|name, r| {
///     match name {
///         "n" => {
///             r.array(|_, r| {
///                 if let Event::U64(v) = r.next_event()? {
///                     sum += v;
///                 }
///                 Ok(())
///             })?;
///         }
///         _ => r.skip()?,
///     }
///     Ok(())
/// })?;
/// let digest = r.take_digest();
/// r.finish()?;
/// assert_eq!(sum, 3);
/// assert_eq!(digest, Some(Json::parse(r#"{"n":[1,2],"s":"x"}"#)?.digest()));
/// # Ok::<(), String>(())
/// ```
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Containers open around the next token.
    depth: usize,
    /// Bit `d` set: the container at depth `d + 1` is an object.
    objects: u128,
    expect: Expect,
    digest: Option<Fnv64>,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader { text, pos: 0, depth: 0, objects: 0, expect: Expect::Value, digest: None }
    }

    /// The byte offset the reader has reached.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Reads the next token.
    ///
    /// # Errors
    ///
    /// A message with the byte offset of the first violation of the
    /// grammar, or of the nesting bound. Once the document's value is
    /// complete there is no next token: the end of the input is
    /// reported as unexpected, anything else as trailing garbage.
    #[inline]
    pub fn next_event(&mut self) -> Result<Event<'a>, String> {
        let b = self.text.as_bytes();
        skip_ws(b, &mut self.pos);
        if self.expect == Expect::Value {
            return self.value();
        }
        if self.depth == 0 {
            return Err(self.trailing());
        }
        let object = (self.objects >> (self.depth - 1)) & 1 == 1;
        let close = if object { b'}' } else { b']' };
        if b.get(self.pos) == Some(&close) {
            self.pos += 1;
            self.fold(&[close]);
            self.depth -= 1;
            self.expect = Expect::Next;
            return Ok(if object { Event::ObjEnd } else { Event::ArrEnd });
        }
        if self.expect == Expect::Next {
            if b.get(self.pos) != Some(&b',') {
                let close = close as char;
                return Err(format!("expected `,` or `{close}` at byte {pos}", pos = self.pos));
            }
            self.pos += 1;
            self.fold(b",");
        }
        if object {
            self.key()
        } else {
            self.value()
        }
    }

    /// Skips the value that comes next, whole (every token in it is
    /// still checked, and still folded into a running digest).
    ///
    /// # Errors
    ///
    /// As [`Reader::next_event`].
    pub fn skip(&mut self) -> Result<(), String> {
        let mut open = 0usize;
        loop {
            match self.next_event()? {
                Event::ArrStart | Event::ObjStart => open += 1,
                Event::ArrEnd | Event::ObjEnd => open -= 1,
                Event::Key(_) => continue,
                _ => {}
            }
            if open == 0 {
                return Ok(());
            }
        }
    }

    /// Reads the object that comes next, member by member: `member` is
    /// called with each name, in document order, and must read (or
    /// [`skip`](Reader::skip)) exactly that member's value.
    ///
    /// # Errors
    ///
    /// `"not an object"` if the next value is something else, else the
    /// first error of the reader or of `member`.
    pub fn object(
        &mut self,
        mut member: impl FnMut(&str, &mut Reader<'a>) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.next_event()? != Event::ObjStart {
            return Err("not an object".to_string());
        }
        loop {
            match self.next_event()? {
                Event::Key(name) => member(&name, self)?,
                Event::ObjEnd => return Ok(()),
                other => unreachable!("an object holds names and its end, not {other:?}"),
            }
        }
    }

    /// Reads the array that comes next, element by element: `element`
    /// is called with each index and must read (or
    /// [`skip`](Reader::skip)) exactly that element. Returns how many
    /// elements the array holds.
    ///
    /// # Errors
    ///
    /// `"not an array"` if the next value is something else, else the
    /// first error of the reader or of `element`.
    pub fn array(
        &mut self,
        mut element: impl FnMut(usize, &mut Reader<'a>) -> Result<(), String>,
    ) -> Result<usize, String> {
        if self.next_event()? != Event::ArrStart {
            return Err("not an array".to_string());
        }
        let mut n = 0;
        loop {
            skip_ws(self.text.as_bytes(), &mut self.pos);
            if self.text.as_bytes().get(self.pos) == Some(&b']') {
                self.next_event()?;
                return Ok(n);
            }
            element(n, self)?;
            n += 1;
        }
    }

    /// Checks that the document's value is complete and only
    /// whitespace follows it.
    ///
    /// # Errors
    ///
    /// As [`Reader::next_event`] at the end of a document; `"unexpected end
    /// of input"` if the value is not complete.
    pub fn finish(&mut self) -> Result<(), String> {
        skip_ws(self.text.as_bytes(), &mut self.pos);
        if self.depth != 0 || self.expect != Expect::Next {
            return Err("unexpected end of input".to_string());
        }
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.trailing())
        }
    }

    /// Starts folding every token read from here on into a fresh
    /// FNV-1a digest of the compact rendering. Start it right before a
    /// value and take it right after, and it is that value's
    /// [`Json::digest`].
    pub fn start_digest(&mut self) {
        self.digest = Some(Fnv64::new());
    }

    /// Stops the digest [`Reader::start_digest`] started and returns it
    /// (`None` if none was running).
    pub fn take_digest(&mut self) -> Option<u64> {
        self.digest.take().map(|h| h.finish())
    }

    fn trailing(&self) -> String {
        if self.pos == self.text.len() {
            "unexpected end of input".to_string()
        } else {
            format!("trailing garbage at byte {pos}", pos = self.pos)
        }
    }

    /// Folds bytes of the compact rendering into a running digest.
    #[inline]
    fn fold(&mut self, bytes: &[u8]) {
        if let Some(h) = &mut self.digest {
            h.write_bytes(bytes);
        }
    }

    /// Folds string `s`, read from `start` to the reader's offset. One
    /// without escapes renders as its own text: the reader refuses raw
    /// `"`, `\` and control characters, the only bytes [`Escaped`]
    /// changes. Every escape is longer than what it decodes to, so the
    /// text holds none when it is `s` and its two quotes.
    #[inline]
    fn fold_str(&mut self, s: &str, start: usize) {
        let Some(h) = &mut self.digest else { return };
        if s.len() + 2 == self.pos - start {
            h.write_bytes(&self.text.as_bytes()[start..self.pos]);
        } else {
            write!(FnvBytes(h), "{}", Escaped(s)).expect("hashing never fails");
        }
    }

    /// Reads an object member's name and its `:`.
    #[inline]
    fn key(&mut self) -> Result<Event<'a>, String> {
        let b = self.text.as_bytes();
        skip_ws(b, &mut self.pos);
        let start = self.pos;
        let name = parse_string(self.text, &mut self.pos)?;
        self.fold_str(&name, start);
        skip_ws(b, &mut self.pos);
        expect(b, &mut self.pos, ":")?;
        self.fold(b":");
        self.expect = Expect::Value;
        Ok(Event::Key(name))
    }

    /// Reads a value's first token: a whole scalar, or the opener of a
    /// container.
    #[inline]
    fn value(&mut self) -> Result<Event<'a>, String> {
        let b = self.text.as_bytes();
        skip_ws(b, &mut self.pos);
        let start = self.pos;
        let event = match b.get(start) {
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => {
                return Err(format!("nesting deeper than {MAX_DEPTH} at byte {start}"));
            }
            Some(&open @ (b'[' | b'{')) => {
                self.pos += 1;
                self.fold(&[open]);
                let object = open == b'{';
                self.objects =
                    (self.objects & !(1 << self.depth)) | (u128::from(object) << self.depth);
                self.depth += 1;
                self.expect = Expect::First;
                return Ok(if object { Event::ObjStart } else { Event::ArrStart });
            }
            None => return Err("unexpected end of input".to_string()),
            Some(b'n') => expect(b, &mut self.pos, "null").map(|()| Event::Null)?,
            Some(b't') => expect(b, &mut self.pos, "true").map(|()| Event::Bool(true))?,
            Some(b'f') => expect(b, &mut self.pos, "false").map(|()| Event::Bool(false))?,
            Some(b'"') => {
                let s = parse_string(self.text, &mut self.pos)?;
                self.fold_str(&s, start);
                Event::Str(s)
            }
            Some(c) if *c == b'-' || c.is_ascii_digit() => {
                let n = parse_number(b, &mut self.pos)?;
                if let Some(h) = &mut self.digest {
                    fold_number(h, &n, &b[start..self.pos]);
                }
                n
            }
            Some(c) => return Err(format!("unexpected byte {c:#04x} at {start}")),
        };
        if matches!(event, Event::Null | Event::Bool(_)) {
            self.fold(&b[start..self.pos]);
        }
        self.expect = Expect::Next;
        Ok(event)
    }
}

/// Folds the compact rendering of number `n`, read from `text`, into
/// `h`. An integer renders as its own text, but for `-0`, which reads
/// (and renders) as `0`; a float renders in its shortest form.
#[inline]
fn fold_number(h: &mut Fnv64, n: &Event<'_>, text: &[u8]) {
    match *n {
        Event::U64(_) | Event::I64(_) if text != b"-0" => h.write_bytes(text),
        Event::U64(v) => write!(FnvBytes(h), "{v}").expect("hashing never fails"),
        Event::F64(v) => write!(FnvBytes(h), "{}", Json::F64(v)).expect("hashing never fails"),
        _ => unreachable!("a number reads as a number"),
    }
}

/// Folds every string written to it into the hasher as raw bytes, with
/// no length prefix: the digest is the FNV-1a of the rendering's bytes
/// however the renderer splits them into writes. (Not an
/// `impl fmt::Write for Fnv64`: `Fnv64::write_str` is length-prefixed.)
struct FnvBytes<'h>(&'h mut Fnv64);

impl fmt::Write for FnvBytes<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.write_bytes(s.as_bytes());
        Ok(())
    }
}

/// Reads the value that comes next in `r` into a tree, one container
/// level per entry of an explicit stack (no recursion).
fn read_tree(r: &mut Reader<'_>) -> Result<Json, String> {
    // The containers being filled, each with the name it will be
    // stored under in its parent (if that is an object).
    let mut open: Vec<(Json, Option<String>)> = Vec::new();
    let mut name = None;
    loop {
        let value = match r.next_event()? {
            Event::Key(k) => {
                name = Some(k.into_owned());
                continue;
            }
            Event::ArrStart => {
                open.push((Json::Arr(Vec::new()), name.take()));
                continue;
            }
            Event::ObjStart => {
                open.push((Json::Obj(Vec::new()), name.take()));
                continue;
            }
            Event::ArrEnd | Event::ObjEnd => {
                let (container, its_name) = open.pop().expect("the reader closes what it opened");
                name = its_name;
                container
            }
            Event::Null => Json::Null,
            Event::Bool(v) => Json::Bool(v),
            Event::U64(v) => Json::U64(v),
            Event::I64(v) => Json::I64(v),
            Event::F64(v) => Json::F64(v),
            Event::Str(s) => Json::Str(s.into_owned()),
        };
        match open.last_mut() {
            None => return Ok(value),
            Some((Json::Arr(items), _)) => items.push(value),
            Some((Json::Obj(members), _)) => {
                members.push((name.take().expect("a member's name comes before it"), value));
            }
            Some(_) => unreachable!("only containers are open"),
        }
    }
}

#[inline]
fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

#[inline]
fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
    }
}

/// Reads the string at `pos`: borrowed from `text` when it holds no
/// escape, else decoded run by run into a `String`.
fn parse_string<'a>(text: &'a str, pos: &mut usize) -> Result<Cow<'a, str>, String> {
    let b = text.as_bytes();
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut decoded: Option<String> = None;
    loop {
        // The run up to the next `"`, `\` or control character. All are
        // ASCII, so the run ends on a character boundary of the input.
        let start = *pos;
        let run = b[start..].iter().position(|&c| c == b'"' || c == b'\\' || c < 0x20);
        let end = run.map_or(b.len(), |n| start + n);
        *pos = end;
        match b.get(end) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(match decoded {
                    None => Cow::Borrowed(&text[start..end]),
                    Some(mut out) => {
                        out.push_str(&text[start..end]);
                        Cow::Owned(out)
                    }
                });
            }
            Some(c) if *c < 0x20 => {
                return Err(format!("raw control character {c:#04x} at byte {end}"));
            }
            Some(_) => {
                // The run stopped at a `\`.
                let out = decoded.get_or_insert_with(String::new);
                out.push_str(&text[start..end]);
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
/// as [`Event::U64`] (`-0` too) or, when negative, [`Event::I64`]; one
/// out of their range, or with a fraction or an exponent, reads as
/// [`Event::F64`].
#[inline]
fn parse_number<'a>(b: &[u8], pos: &mut usize) -> Result<Event<'a>, String> {
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
            return Ok(Event::U64(v));
        }
        if let Ok(v) = text.parse::<i64>() {
            // Only `-0` is a non-negative integer `u64` refuses.
            return Ok(u64::try_from(v).map_or(Event::I64(v), Event::U64));
        }
    }
    Ok(Event::F64(text.parse().expect("the grammar is a subset of Rust's float syntax")))
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

    /// The reader hands a document out token by token; strings without
    /// an escape borrow the input.
    #[test]
    fn a_reader_hands_out_a_document_as_events() {
        let text = r#" {"a": [1, -2, 2.5, true, null], "b\n": "x\"y", "c": {}} "#;
        let mut r = Reader::new(text);
        let mut events = Vec::new();
        while r.finish().is_err() {
            events.push(r.next_event().expect("valid"));
        }
        use Event::*;
        let (a, b, c) = (Cow::Borrowed("a"), Cow::Owned("b\n".to_string()), "c".into());
        assert_eq!(
            events,
            [
                ObjStart,
                Key(a),
                ArrStart,
                U64(1),
                I64(-2),
                F64(2.5),
                Bool(true),
                Null,
                ArrEnd,
                Key(b),
                Str(Cow::Owned("x\"y".into())),
                Key(c),
                ObjStart,
                ObjEnd,
                ObjEnd
            ]
        );
        assert!(matches!(&events[1], Key(Cow::Borrowed(_))), "no escape, no copy");
        assert_eq!(r.next_event(), Err("unexpected end of input".to_string()));
    }

    /// A digest the reader folds from the text equals [`Json::digest`]
    /// of the tree, whatever spacing and spelling the text uses: escapes
    /// re-escaped, `-0` read as `0`, floats in their shortest form.
    #[test]
    fn the_reader_digest_is_the_tree_digest_however_the_text_is_spelled() {
        let doc = every_escape_class();
        let spelled = [
            doc.to_string(),
            doc.to_pretty(),
            doc.to_string().replace("plain", "pl\\u0061in").replace("line", "\\u006Cine"),
            r#"[0, -0, 1e3, 18446744073709551616, -9, 0.5e-1, "a\/b", {"k" : [ ] }]"#.into(),
        ];
        for text in spelled {
            let mut r = Reader::new(&text);
            r.start_digest();
            r.skip().expect("valid");
            let digest = r.take_digest();
            r.finish().expect("one document");
            assert_eq!(digest, Some(Json::parse(&text).unwrap().digest()), "{text}");
        }
    }

    /// `skip` passes over one whole value, checking it; `finish` wants
    /// the document complete and nothing after it.
    #[test]
    fn skip_reads_one_whole_value_and_finish_wants_nothing_after_it() {
        let mut r = Reader::new(r#"[{"a": [[1], {"b": 2}]}, 3]"#);
        assert_eq!(r.next_event(), Ok(Event::ArrStart));
        r.skip().unwrap();
        assert_eq!(r.next_event(), Ok(Event::U64(3)));
        assert_eq!(r.finish(), Err("unexpected end of input".to_string()), "the array is open");
        assert_eq!(r.next_event(), Ok(Event::ArrEnd));
        assert_eq!(r.finish(), Ok(()));
        let mut r = Reader::new("[1, 2 3]");
        assert_eq!(r.skip(), Err("expected `,` or `]` at byte 6".to_string()));
        let mut r = Reader::new("{} x");
        r.skip().unwrap();
        assert_eq!(r.finish(), Err("trailing garbage at byte 3".to_string()));
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

//! Machine-readable sweep reports: a minimal JSON value type, writer,
//! parser, and a line-oriented cell-report validator.
//!
//! The workspace is dependency-free (DESIGN.md §3), so this module carries
//! the ~300 lines of JSON needed to publish sweep results as artifacts
//! (`BENCH_table1.json`, `BENCH_sweeps.json`) and to validate them in the
//! offline gate. Reports are **line-oriented** ("JSON lines"): one cell
//! per line, each line a self-contained object, so artifacts can be
//! streamed, diffed, grepped, and appended without a document-level
//! parser. Writing is deterministic — keys keep insertion order and
//! numbers format canonically — so a report produced by a parallel sweep
//! is byte-identical to the serial one (see [`crate::sweep`]).
//!
//! ```
//! use sched_sim::report::{validate_cells, Json, Kind};
//!
//! let line = Json::obj([
//!     ("kind", Json::from("smoke")),
//!     ("cell", Json::obj([("q", Json::from(8u64)), ("seed", Json::from(3u64))])),
//!     ("steps", Json::from(96u64)),
//!     ("wall_ms", Json::from(0.25)),
//! ]);
//! let text = format!("{line}\n");
//! assert_eq!(Json::parse(&text.trim()).unwrap(), line);
//! // The standard cell envelope validates.
//! assert_eq!(validate_cells(&text, &[("kind", Kind::Str), ("cell", Kind::Obj),
//!                                    ("steps", Kind::Num), ("wall_ms", Kind::Num)]),
//!            Ok(1));
//! ```

use std::fmt;

/// A JSON value. Integers are kept exact (`u64`) rather than coerced to
/// `f64`, so statement counts round-trip bit-identically.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer (statement counts, seeds, grid parameters).
    Int(u64),
    /// Any other number (wall times, ratios).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on write.
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Int(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::Int(u64::from(v))
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Float(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Self {
        Json::Arr(v)
    }
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj<'a>(pairs: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up `key` in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an integer (or an integral float).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) => Some(*v),
            Json::Float(f) if f.fract() == 0.0 && *f >= 0.0 && *f <= u64::MAX as f64 => {
                Some(*f as u64)
            }
            _ => None,
        }
    }

    /// The value as an `f64`, if it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as a `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Parses one JSON value from `text` (the whole string must be
    /// consumed, modulo surrounding whitespace).
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first problem.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(v) => write!(f, "{v}"),
            Json::Float(v) => {
                if v.is_finite() {
                    // Keep integral floats distinguishable from Ints on
                    // re-parse? No — JSON has one number type. `1.0`
                    // prints as `1`, which is fine for reports.
                    write!(f, "{v}")
                } else {
                    // JSON has no NaN/inf; null is the conventional stand-in.
                    write!(f, "null")
                }
            }
            Json::Str(s) => {
                f.write_str("\"")?;
                for c in s.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        '\n' => f.write_str("\\n")?,
                        '\r' => f.write_str("\\r")?,
                        '\t' => f.write_str("\\t")?,
                        c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                        c => f.write_fmt(format_args!("{c}"))?,
                    }
                }
                f.write_str("\"")
            }
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}:{v}", Json::Str(k.clone()))?;
                }
                f.write_str("}")
            }
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {lit:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.bytes.get(self.pos) {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(&b) => Err(self.err(&format!("unexpected byte {:?}", b as char))),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast-path over plain bytes up to the next quote/escape.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid utf-8"))?,
            );
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogates are not paired up — reports never
                            // emit them; map to the replacement char.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf-8"))?;
        if !float {
            if let Ok(v) = s.parse::<u64>() {
                return Ok(Json::Int(v));
            }
        }
        s.parse::<f64>().map(Json::Float).map_err(|_| self.err("bad number"))
    }
}

/// The expected kind of a required key in a cell line (see
/// [`validate_cells`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Any numeric value (integer or float).
    Num,
    /// A string.
    Str,
    /// A boolean.
    Bool,
    /// An object.
    Obj,
    /// Any value at all (presence check only).
    Any,
}

/// Validates a line-oriented cell report: every non-empty, non-`#` line
/// must parse as a JSON **object** containing each `required` key with a
/// value of the stated [`Kind`]. Returns the number of cells validated
/// (which may be 0 for an empty report).
///
/// # Errors
///
/// Returns a message naming the first offending line (1-based) and why.
pub fn validate_cells(text: &str, required: &[(&str, Kind)]) -> Result<usize, String> {
    let mut cells = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let v = Json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        if !matches!(v, Json::Obj(_)) {
            return Err(format!("line {}: cell is not an object", lineno + 1));
        }
        for &(key, kind) in required {
            let val = v
                .get(key)
                .ok_or_else(|| format!("line {}: missing key {key:?}", lineno + 1))?;
            let ok = match kind {
                Kind::Num => matches!(val, Json::Int(_) | Json::Float(_)),
                Kind::Str => matches!(val, Json::Str(_)),
                Kind::Bool => matches!(val, Json::Bool(_)),
                Kind::Obj => matches!(val, Json::Obj(_)),
                Kind::Any => true,
            };
            if !ok {
                return Err(format!(
                    "line {}: key {key:?} is not {kind:?} (got {val})",
                    lineno + 1
                ));
            }
        }
        cells += 1;
    }
    Ok(cells)
}

/// The standard sweep-cell envelope every workspace artifact uses:
/// `kind` (which sweep), `cell` (the grid parameters), `steps`.
///
/// Deliberately **excludes** `wall_ms`: canonical artifacts carry only
/// deterministic payloads, so regenerating an artifact on a faster or
/// slower machine leaves the committed file byte-identical. Timing is
/// published separately in a `*.timing.json` sidecar validated against
/// [`TIMING_SCHEMA`] (see [`split_timing`]). Each grid adds its own
/// required keys next to its row builder (e.g. `lowerbound::crash::KEYS`).
pub const CELL_SCHEMA: &[(&str, Kind)] = &[
    ("kind", Kind::Str),
    ("cell", Kind::Obj),
    ("steps", Kind::Num),
];

/// The envelope of a `*.timing.json` sidecar line: the `kind` and `cell`
/// identifying the sweep cell, plus its nondeterministic `wall_ms`.
pub const TIMING_SCHEMA: &[(&str, Kind)] = &[
    ("kind", Kind::Str),
    ("cell", Kind::Obj),
    ("wall_ms", Kind::Num),
];

/// A row's `wall_ms` value: `d` in milliseconds, rounded to 1 µs so
/// sidecars stay compact. Wall time is metadata; [`split_timing`] moves it
/// out of every canonical artifact.
pub fn wall_ms(d: std::time::Duration) -> f64 {
    (d.as_secs_f64() * 1e6).round() / 1e3
}

/// Splits a sweep cell into its canonical payload and its timing sidecar
/// line: the returned first value is `cell` with every `wall_ms` key
/// removed (key order otherwise preserved, so artifacts stay
/// deterministic), and the second is a `{kind, cell, wall_ms}` object when
/// the input carried a `wall_ms` (otherwise `None`).
pub fn split_timing(cell: &Json) -> (Json, Option<Json>) {
    let Json::Obj(pairs) = cell else {
        return (cell.clone(), None);
    };
    let canonical = Json::Obj(
        pairs.iter().filter(|(k, _)| k != "wall_ms").cloned().collect(),
    );
    let timing = cell.get("wall_ms").map(|w| {
        Json::obj([
            ("kind", cell.get("kind").cloned().unwrap_or(Json::Null)),
            ("cell", cell.get("cell").cloned().unwrap_or(Json::Null)),
            ("wall_ms", w.clone()),
        ])
    });
    (canonical, timing)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_variants() {
        let v = Json::obj([
            ("null", Json::Null),
            ("t", Json::from(true)),
            ("n", Json::from(18_446_744_073_709_551_615u64)),
            ("f", Json::from(-0.5)),
            ("s", Json::from("quote \" slash \\ nl \n tab \t")),
            ("a", Json::from(vec![Json::from(1u64), Json::Null, Json::from("x")])),
            ("o", Json::obj([("inner", Json::from(2u64))])),
        ]);
        let text = v.to_string();
        assert_eq!(Json::parse(&text).unwrap(), v);
        // Deterministic: a second serialization is byte-identical.
        assert_eq!(Json::parse(&text).unwrap().to_string(), text);
    }

    #[test]
    fn integers_stay_exact() {
        // 2^53 + 1 is not representable in f64 — the Int variant keeps it.
        let v = Json::parse("9007199254740993").unwrap();
        assert_eq!(v, Json::Int(9007199254740993));
        assert_eq!(v.as_u64(), Some(9007199254740993));
    }

    #[test]
    fn floats_and_negatives_parse() {
        assert_eq!(Json::parse("-3").unwrap(), Json::Float(-3.0));
        assert_eq!(Json::parse("2.5e2").unwrap(), Json::Float(250.0));
        assert_eq!(Json::Float(250.0).as_u64(), Some(250));
    }

    #[test]
    fn parse_rejects_garbage_with_position() {
        assert!(Json::parse("{\"a\":}").unwrap_err().contains("byte 5"));
        assert!(Json::parse("[1,2").unwrap_err().contains("expected"));
        assert!(Json::parse("true false").unwrap_err().contains("trailing"));
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn accessors() {
        let v = Json::obj([("k", Json::from("v")), ("n", Json::from(3u64))]);
        assert_eq!(v.get("k").and_then(Json::as_str), Some("v"));
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(3.0));
        assert_eq!(v.get("missing"), None);
    }

    fn cell_line(kind: &str) -> String {
        Json::obj([
            ("kind", Json::from(kind)),
            ("cell", Json::obj([("q", Json::from(4u64))])),
            ("steps", Json::from(10u64)),
            ("wall_ms", Json::from(0.5)),
        ])
        .to_string()
    }

    #[test]
    fn validator_accepts_envelope_and_counts_cells() {
        let text = format!("# comment\n{}\n\n{}\n", cell_line("a"), cell_line("b"));
        assert_eq!(validate_cells(&text, CELL_SCHEMA), Ok(2));
        assert_eq!(validate_cells("", CELL_SCHEMA), Ok(0));
    }

    #[test]
    fn split_timing_separates_wall_ms_from_canonical_payload() {
        let cell = Json::parse(&cell_line("a")).unwrap();
        let (canonical, timing) = split_timing(&cell);
        assert_eq!(canonical.get("wall_ms"), None, "wall_ms must leave the canonical line");
        assert_eq!(canonical.get("steps").and_then(Json::as_u64), Some(10));
        let timing = timing.expect("cell had wall_ms");
        assert_eq!(timing.get("wall_ms").and_then(Json::as_f64), Some(0.5));
        assert_eq!(timing.get("kind").and_then(Json::as_str), Some("a"));
        assert!(matches!(timing.get("cell"), Some(Json::Obj(_))));
        // Deterministic and idempotent: re-splitting the canonical line is a no-op.
        let (again, none) = split_timing(&canonical);
        assert_eq!(again, canonical);
        assert!(none.is_none());
        // Both halves validate against their schemas.
        assert_eq!(validate_cells(&format!("{canonical}\n"), CELL_SCHEMA), Ok(1));
        assert_eq!(validate_cells(&format!("{timing}\n"), TIMING_SCHEMA), Ok(1));
    }

    #[test]
    fn validator_rejects_missing_and_miskinded_keys() {
        let missing = "{\"kind\":\"a\",\"cell\":{}}\n";
        let err = validate_cells(missing, CELL_SCHEMA).unwrap_err();
        assert!(err.contains("steps"), "{err}");

        let miskinded = "{\"kind\":1,\"cell\":{},\"steps\":1,\"wall_ms\":2}\n";
        let err = validate_cells(miskinded, CELL_SCHEMA).unwrap_err();
        assert!(err.contains("\"kind\""), "{err}");

        let not_obj = "[1,2,3]\n";
        let err = validate_cells(not_obj, CELL_SCHEMA).unwrap_err();
        assert!(err.contains("not an object"), "{err}");

        let malformed = format!("{}\nnot json\n", cell_line("a"));
        let err = validate_cells(&malformed, CELL_SCHEMA).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }
}

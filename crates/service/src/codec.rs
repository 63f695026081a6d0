//! Pluggable response codecs: v1 text lines and v2 length-prefixed
//! binary frames, both walking one response schema.
//!
//! A [`Codec`] turns typed [`Response`] values into wire frames and back.
//! The server holds one boxed codec per connection — [`TextCodec`] until
//! a `HELLO version=2 codec=binary` handshake swaps in [`BinaryCodec`] —
//! and clients mirror the choice. Both codecs carry the *same* typed
//! model, so answers are bit-identical regardless of framing (pinned by
//! the codec-equivalence suite): `mhr` travels as shortest round-trip
//! decimal in text and as raw IEEE-754 bits in binary, and both decode to
//! the same `f64::to_bits`.
//!
//! ## One response schema
//!
//! The `response_schema!` invocation below declares each [`Response`]
//! variant once: its binary tag, its text form (a head word such as
//! `loaded`, no head, or a hand-written `ERR` line) and its ordered
//! fields, each `name: type = "text key"`. Both codecs walk that one
//! declaration, and each field type's text and binary forms are written
//! once, in its `WireValue` impl. A field marked `unless V` is left out
//! of the text line when it equals `V` (an answer's leading `seq=`, a
//! batch header's `stream=true`); the binary frame always carries it.
//! The text `ERR [seq=N ][busy retry_after_ms=R ]message` lines are the
//! one shape written by hand (`protocol.rs`).
//!
//! ## Binary frame layout
//!
//! ```text
//! ┌────────────┬─────┬──────────────────────────────┐
//! │ u32 LE len │ tag │ payload (len-1 bytes)        │
//! └────────────┴─────┴──────────────────────────────┘
//! ```
//!
//! `len` counts tag + payload and is capped at [`MAX_FRAME_BYTES`].
//! Integers are LEB128 varints, strings are varint-length-prefixed UTF-8,
//! floats are 8 raw little-endian IEEE-754 bytes, booleans and `Option`
//! presence are one byte, 0 or 1, and lists are a varint count then the
//! items. Decoding a malformed payload (unknown tag, truncated field,
//! trailing bytes) yields a typed [`ServiceError::Protocol`] *for that
//! frame only* — the length prefix has already been consumed, so the
//! stream stays frame-aligned and the next frame decodes normally.
//!
//! A text frame is one `\n`-terminated UTF-8 line of at most
//! [`MAX_FRAME_BYTES`] bytes, newline included.

use std::io::{BufRead, Read};

use crate::protocol::{
    check_wire_safe, decode_response_line, parse_num, write_response_line, Response, WireAnswer,
    WireHistogram,
};
use crate::ServiceError;

/// Hard cap on one frame: a binary frame's tag + payload, or a text line
/// with its newline. It matches the text protocol's batch buffer cap: a
/// hostile or corrupt peer must not make the other side allocate without
/// bound.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Which codec a connection speaks on its response channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecKind {
    /// v1 newline-delimited text (the default; no handshake required).
    Text,
    /// v2 length-prefixed binary frames (requires the `HELLO` handshake).
    Binary,
}

impl CodecKind {
    /// Parses a codec name as it appears in `HELLO codec=<name>`.
    pub fn parse(s: &str) -> Option<CodecKind> {
        match s.to_ascii_lowercase().as_str() {
            "text" => Some(CodecKind::Text),
            "binary" => Some(CodecKind::Binary),
            _ => None,
        }
    }

    /// A fresh boxed codec of this kind.
    pub fn new_codec(self) -> Box<dyn Codec> {
        match self {
            CodecKind::Text => Box::new(TextCodec),
            CodecKind::Binary => Box::new(BinaryCodec),
        }
    }
}

impl std::fmt::Display for CodecKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CodecKind::Text => "text",
            CodecKind::Binary => "binary",
        })
    }
}

/// A response-channel codec: encodes typed [`Response`]s into complete
/// wire frames and reads them back.
///
/// Object-safe: the server stores `Box<dyn Codec>` per connection and
/// swaps it at the `HELLO` handshake.
pub trait Codec: Send + Sync {
    /// Which kind this codec is.
    fn kind(&self) -> CodecKind;

    /// Appends one complete frame (including framing: trailing newline
    /// for text, length prefix for binary) encoding `resp` to `out`.
    ///
    /// Errors instead of emitting a malformed frame — e.g. a wire-unsafe
    /// string under [`TextCodec`] or an over-[`MAX_FRAME_BYTES`] frame
    /// under either codec — and then leaves `out` as it found it.
    fn encode_frame(&self, resp: &Response, out: &mut Vec<u8>) -> Result<(), ServiceError>;

    /// Reads and decodes one frame. `Ok(None)` means the peer closed the
    /// stream cleanly *at a frame boundary*; EOF mid-frame is an error.
    fn read_frame(&self, reader: &mut dyn BufRead) -> Result<Option<Response>, ServiceError>;
}

/// Rejects a frame of `len` bytes above [`MAX_FRAME_BYTES`].
fn check_frame_len(len: usize) -> Result<(), ServiceError> {
    if len > MAX_FRAME_BYTES {
        return Err(ServiceError::Protocol(format!(
            "response frame of {len} bytes exceeds {MAX_FRAME_BYTES}"
        )));
    }
    Ok(())
}

/// Protocol v1: one `\n`-terminated text line per response, byte-for-byte
/// the historical format (see [`crate::protocol::encode_response_line`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct TextCodec;

impl Codec for TextCodec {
    fn kind(&self) -> CodecKind {
        CodecKind::Text
    }

    fn encode_frame(&self, resp: &Response, out: &mut Vec<u8>) -> Result<(), ServiceError> {
        let start = out.len();
        let written = write_response_line(resp, out).and_then(|()| {
            out.push(b'\n');
            check_frame_len(out.len() - start)
        });
        if written.is_err() {
            out.truncate(start);
        }
        written
    }

    fn read_frame(&self, reader: &mut dyn BufRead) -> Result<Option<Response>, ServiceError> {
        let mut buf = Vec::new();
        let n = reader
            .take(MAX_FRAME_BYTES as u64)
            .read_until(b'\n', &mut buf)
            .map_err(|e| ServiceError::Io(format!("read response line: {e}")))?;
        if n == 0 {
            return Ok(None);
        }
        if buf.last() != Some(&b'\n') {
            return Err(ServiceError::Protocol(if n == MAX_FRAME_BYTES {
                format!("text frame exceeds {MAX_FRAME_BYTES} bytes without a newline")
            } else {
                format!("truncated text frame: EOF after {n} bytes without a newline")
            }));
        }
        let line = std::str::from_utf8(&buf)
            .map_err(|_| ServiceError::Protocol("text frame is not valid UTF-8".into()))?;
        decode_response_line(line.trim_end_matches(['\n', '\r'])).map(Some)
    }
}

/// Binary frame tags, one per [`Response`] variant.
mod tag {
    pub const PONG: u8 = 1;
    pub const HELLO: u8 = 2;
    pub const DATASETS: u8 = 3;
    pub const ALGORITHMS: u8 = 4;
    pub const STATS: u8 = 5;
    pub const INFO: u8 = 6;
    // 7 was the retired `SHARDS` reply; reserved, never reused.
    pub const ANSWER: u8 = 8;
    pub const BATCH_HEADER: u8 = 9;
    pub const LOADED: u8 = 10;
    pub const BYE: u8 = 11;
    pub const ERROR: u8 = 12;
    pub const METRICS: u8 = 13;
    pub const BUSY: u8 = 14;
    pub const MUTATED: u8 = 15;
}

/// How a variant's text line starts.
#[derive(Clone, Copy)]
pub(crate) enum TextForm {
    /// `OK <word>` then the fields, e.g. `OK loaded name=…`.
    Head(&'static str),
    /// `OK` then the fields; the decoder knows the line by its first key.
    Bare,
    /// A hand-written `ERR …` line (`protocol.rs`).
    ErrLine,
}

/// One codec's writing side of the schema walk.
pub(crate) trait FieldWriter {
    /// Starts the frame of the variant tagged `tag`.
    fn begin(&mut self, tag: u8, form: TextForm);

    /// Writes one field. The text form leaves it out when it equals
    /// `unset`.
    fn field<V: WireValue>(
        &mut self,
        key: &'static str,
        v: &V,
        unset: Option<&V>,
    ) -> Result<(), ServiceError>;
}

/// One codec's reading side of the schema walk.
pub(crate) trait FieldReader {
    /// Reads one field. The text form reads an absent field as `unset`
    /// and rejects a present one that equals it.
    fn field<V: WireValue>(
        &mut self,
        key: &'static str,
        unset: Option<V>,
    ) -> Result<V, ServiceError>;
}

/// The pattern (and constructor) of a variant from its field names.
/// `tuple` variants hold their one field positionally; the `answer`
/// variant holds its first field (`seq`) itself and the rest in a
/// [`WireAnswer`].
macro_rules! variant {
    ($v:ident [] $($f:ident)*) => { Response::$v { $($f),* } };
    ($v:ident [tuple] $($f:ident)*) => { Response::$v($($f),*) };
    ($v:ident [answer] $seq:ident $($f:ident)*) => {
        Response::$v { $seq, answer: WireAnswer { $($f),* } }
    };
}

/// `Some(v)` for a field's `unless v`, `None` without one.
macro_rules! or_none {
    () => {
        None
    };
    ($v:expr) => {
        Some($v)
    };
}

/// Whether a field has an `unless` value.
macro_rules! present {
    () => {
        false
    };
    ($v:expr) => {
        true
    };
}

/// Declares the response schema (see the module docs) and generates the
/// walk both codecs share: [`write_fields`], [`read_fields`] and
/// [`TEXT_LAYOUTS`].
macro_rules! response_schema {
    ($(
        $variant:ident $([$shape:ident])? = $tag:path, $form:expr => {
            $($field:ident: $ty:ty = $key:literal $(unless $unset:expr)?),* $(,)?
        }
    )*) => {
        /// Writes `resp` through `w`: its tag and text form, then its
        /// fields in declaration order.
        pub(crate) fn write_fields<W: FieldWriter>(
            resp: &Response,
            w: &mut W,
        ) -> Result<(), ServiceError> {
            use TextForm::*;
            match resp {
                $(variant!($variant [$($shape)?] $($field)*) => {
                    w.begin($tag, $form);
                    $(w.field($key, $field, or_none!($(&$unset)?))?;)*
                })*
            }
            Ok(())
        }

        /// Reads the fields of the variant tagged `tag` through `r`.
        pub(crate) fn read_fields<R: FieldReader>(
            tag: u8,
            r: &mut R,
        ) -> Result<Response, ServiceError> {
            match tag {
                $($tag => {
                    $(let $field: $ty = r.field($key, or_none!($($unset)?))?;)*
                    Ok(variant!($variant [$($shape)?] $($field)*))
                })*
                t => Err(ServiceError::Protocol(format!(
                    "malformed binary frame: unknown tag {t}"
                ))),
            }
        }

        /// Each variant's tag, text form and text keys, each with whether
        /// the text form may leave it out.
        pub(crate) const TEXT_LAYOUTS: &[(u8, TextForm, &[(&str, bool)])] = {
            use TextForm::*;
            &[$(($tag, $form, &[$(($key, present!($($unset)?))),*])),*]
        };
    };
}

response_schema! {
    Pong = tag::PONG, Head("pong") => {}
    Hello = tag::HELLO, Bare => {
        version: u32 = "version",
        codec: CodecKind = "codec",
    }
    Datasets [tuple] = tag::DATASETS, Bare => { summaries: Vec<String> = "datasets" }
    Algorithms [tuple] = tag::ALGORITHMS, Bare => { names: Vec<String> = "algorithms" }
    Stats = tag::STATS, Bare => {
        hits: u64 = "hits",
        misses: u64 = "misses",
        entries: usize = "entries",
        evictions: u64 = "evictions",
        hit_rate: f64 = "hit_rate",
        warm_hits: u64 = "warm_hits",
        warm_misses: u64 = "warm_misses",
        warm_entries: usize = "warm_entries",
        uptime_secs: u64 = "uptime_secs",
        total_queries: u64 = "total_queries",
        queue_depth: u64 = "queue_depth",
        shed_total: u64 = "shed_total",
        conns_open: u64 = "conns_open",
        mutations_total: u64 = "mutations_total",
    }
    Info = tag::INFO, Bare => {
        workers: usize = "workers",
        datasets: usize = "datasets",
        cache_entries: usize = "cache_entries",
        uptime_secs: u64 = "uptime_secs",
        total_queries: u64 = "total_queries",
    }
    Answer [answer] = tag::ANSWER, Bare => {
        seq: Option<u64> = "seq" unless None,
        alg: String = "alg",
        cached: bool = "cached",
        micros: u64 = "micros",
        violations: usize = "err",
        mhr: Option<f64> = "mhr",
        indices: Vec<usize> = "indices",
    }
    BatchHeader = tag::BATCH_HEADER, Bare => {
        n: usize = "batch",
        stream: bool = "stream" unless false,
    }
    Loaded = tag::LOADED, Head("loaded") => {
        name: String = "name",
        rows: usize = "n",
        dim: usize = "d",
        groups: usize = "groups",
        skyline: usize = "skyline",
    }
    Mutated = tag::MUTATED, Head("mutated") => {
        name: String = "name",
        op: String = "op",
        rows: usize = "n",
        skyline: usize = "skyline",
        sky_changed: bool = "sky_changed",
        cache_dropped: u64 = "cache_dropped",
        warm_dropped: u64 = "warm_dropped",
    }
    Metrics = tag::METRICS, Head("metrics") => {
        enabled: bool = "enabled",
        counters: Vec<(String, u64)> = "counters",
        histograms: Vec<WireHistogram> = "histos",
    }
    Bye = tag::BYE, Head("bye") => {}
    Busy = tag::BUSY, ErrLine => {
        seq: Option<u64> = "seq" unless None,
        retry_after_ms: u64 = "retry_after_ms",
        message: String = "message",
    }
    Error = tag::ERROR, ErrLine => {
        seq: Option<u64> = "seq" unless None,
        message: String = "message",
    }
}

/// A field type: its one text form (the value after `key=`) and its one
/// binary form. `key` names the field in errors.
pub(crate) trait WireValue: Sized + PartialEq {
    /// Appends the text form.
    fn put_text(&self, key: &str, out: &mut Vec<u8>) -> Result<(), ServiceError>;
    /// Parses the text form.
    fn get_text(key: &str, s: &str) -> Result<Self, ServiceError>;
    /// Appends the binary form.
    fn put_binary(&self, out: &mut Vec<u8>);
    /// Reads the binary form.
    fn get_binary(r: &mut PayloadReader<'_>, key: &str) -> Result<Self, ServiceError>;
}

/// Appends `v`'s `Display` form.
pub(crate) fn put_display(out: &mut Vec<u8>, v: impl std::fmt::Display) {
    use std::io::Write;
    // Writing into a `Vec` cannot fail.
    let _ = write!(out, "{v}");
}

/// Integers: decimal in text, a varint in binary.
macro_rules! int_value {
    ($($t:ty: $widen:expr),*) => {$(
        impl WireValue for $t {
            fn put_text(&self, _: &str, out: &mut Vec<u8>) -> Result<(), ServiceError> {
                put_display(out, self);
                Ok(())
            }
            fn get_text(key: &str, s: &str) -> Result<Self, ServiceError> {
                parse_num(key, s)
            }
            fn put_binary(&self, out: &mut Vec<u8>) {
                put_varint(out, ($widen)(*self));
            }
            fn get_binary(r: &mut PayloadReader<'_>, key: &str) -> Result<Self, ServiceError> {
                <$t>::try_from(r.varint(key)?).map_err(|_| {
                    ServiceError::Protocol(format!("{key}: value exceeds {}", stringify!($t)))
                })
            }
        }
    )*};
}

int_value!(u32: u64::from, u64: u64::from, usize: |v: usize| v as u64);

/// Shortest round-trip decimal in text, raw IEEE-754 bits in binary.
impl WireValue for f64 {
    fn put_text(&self, _: &str, out: &mut Vec<u8>) -> Result<(), ServiceError> {
        put_display(out, self);
        Ok(())
    }
    fn get_text(key: &str, s: &str) -> Result<Self, ServiceError> {
        parse_num(key, s)
    }
    fn put_binary(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn get_binary(r: &mut PayloadReader<'_>, key: &str) -> Result<Self, ServiceError> {
        r.f64_bits(key)
    }
}

/// `true`/`false` in text, one byte 1/0 in binary; nothing else decodes.
impl WireValue for bool {
    fn put_text(&self, _: &str, out: &mut Vec<u8>) -> Result<(), ServiceError> {
        put_display(out, self);
        Ok(())
    }
    fn get_text(key: &str, s: &str) -> Result<Self, ServiceError> {
        match s {
            "true" => Ok(true),
            "false" => Ok(false),
            _ => Err(ServiceError::Protocol(format!(
                "{key}: expected true|false, got {s:?}"
            ))),
        }
    }
    fn put_binary(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn get_binary(r: &mut PayloadReader<'_>, key: &str) -> Result<Self, ServiceError> {
        r.flag(key)
    }
}

/// Wire-safe (whitespace-free) in text, length-prefixed in binary.
impl WireValue for String {
    fn put_text(&self, key: &str, out: &mut Vec<u8>) -> Result<(), ServiceError> {
        check_wire_safe(key, self)?;
        out.extend_from_slice(self.as_bytes());
        Ok(())
    }
    fn get_text(_: &str, s: &str) -> Result<Self, ServiceError> {
        Ok(s.to_string())
    }
    fn put_binary(&self, out: &mut Vec<u8>) {
        put_str(out, self);
    }
    fn get_binary(r: &mut PayloadReader<'_>, key: &str) -> Result<Self, ServiceError> {
        r.str(key)
    }
}

/// Its wire name (`text`, `binary`) in both codecs.
impl WireValue for CodecKind {
    fn put_text(&self, _: &str, out: &mut Vec<u8>) -> Result<(), ServiceError> {
        put_display(out, self);
        Ok(())
    }
    fn get_text(key: &str, s: &str) -> Result<Self, ServiceError> {
        // Only the written form: `CodecKind::parse` also takes `BINARY`.
        match s {
            "text" => Ok(CodecKind::Text),
            "binary" => Ok(CodecKind::Binary),
            _ => Err(ServiceError::Protocol(format!("{key}: unknown kind {s:?}"))),
        }
    }
    fn put_binary(&self, out: &mut Vec<u8>) {
        put_str(out, &self.to_string());
    }
    fn get_binary(r: &mut PayloadReader<'_>, key: &str) -> Result<Self, ServiceError> {
        Self::get_text(key, &r.str(key)?)
    }
}

/// `none` or the value in text; a presence byte 0/1, then the value, in
/// binary.
impl<T: WireValue> WireValue for Option<T> {
    fn put_text(&self, key: &str, out: &mut Vec<u8>) -> Result<(), ServiceError> {
        match self {
            Some(v) => v.put_text(key, out),
            None => {
                out.extend_from_slice(b"none");
                Ok(())
            }
        }
    }
    fn get_text(key: &str, s: &str) -> Result<Self, ServiceError> {
        match s {
            "none" => Ok(None),
            _ => T::get_text(key, s).map(Some),
        }
    }
    fn put_binary(&self, out: &mut Vec<u8>) {
        out.push(u8::from(self.is_some()));
        if let Some(v) = self {
            v.put_binary(out);
        }
    }
    fn get_binary(r: &mut PayloadReader<'_>, key: &str) -> Result<Self, ServiceError> {
        match r.flag(key)? {
            true => T::get_binary(r, key).map(Some),
            false => Ok(None),
        }
    }
}

/// Comma-joined items in text (an item may not be empty or hold a
/// comma); a varint count, then the items, in binary.
impl<T: WireValue> WireValue for Vec<T> {
    fn put_text(&self, key: &str, out: &mut Vec<u8>) -> Result<(), ServiceError> {
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            let start = out.len();
            item.put_text(key, out)?;
            let text = &out[start..];
            if text.is_empty() || text.contains(&b',') {
                return Err(ServiceError::Protocol(format!(
                    "{key}: item {:?} would corrupt the comma-joined list",
                    String::from_utf8_lossy(text)
                )));
            }
        }
        Ok(())
    }
    fn get_text(key: &str, s: &str) -> Result<Self, ServiceError> {
        s.split(',')
            .filter(|item| !item.is_empty())
            .map(|item| T::get_text(key, item))
            .collect()
    }
    fn put_binary(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for item in self {
            item.put_binary(out);
        }
    }
    fn get_binary(r: &mut PayloadReader<'_>, key: &str) -> Result<Self, ServiceError> {
        let n = usize::get_binary(r, key)?;
        // Each item costs ≥ 1 byte; a count beyond the remaining payload
        // is corruption, caught before any proportional allocation.
        if n > r.buf.len() - r.pos {
            return Err(r.truncated(key));
        }
        (0..n).map(|_| T::get_binary(r, key)).collect()
    }
}

/// Writes a `METRICS` name, which the `:`-separated text items also
/// forbid to be empty or hold a `:`.
fn put_metric_name(key: &str, name: &String, out: &mut Vec<u8>) -> Result<(), ServiceError> {
    if name.is_empty() || name.contains(':') {
        return Err(ServiceError::Protocol(format!(
            "{key}: name {name:?} would corrupt the METRICS list encoding"
        )));
    }
    name.put_text(key, out)
}

/// A `METRICS` counter: `name:value` in text.
impl WireValue for (String, u64) {
    fn put_text(&self, key: &str, out: &mut Vec<u8>) -> Result<(), ServiceError> {
        put_metric_name(key, &self.0, out)?;
        out.push(b':');
        self.1.put_text(key, out)
    }
    fn get_text(key: &str, s: &str) -> Result<Self, ServiceError> {
        let (name, v) = s.split_once(':').ok_or_else(|| {
            ServiceError::Protocol(format!("{key}: expected name:value, got {s:?}"))
        })?;
        Ok((name.to_string(), parse_num(key, v)?))
    }
    fn put_binary(&self, out: &mut Vec<u8>) {
        self.0.put_binary(out);
        self.1.put_binary(out);
    }
    fn get_binary(r: &mut PayloadReader<'_>, key: &str) -> Result<Self, ServiceError> {
        Ok((r.str(key)?, r.varint(key)?))
    }
}

/// A `METRICS` histogram: `name:count:sum:p50:p90:p99:max` in text.
impl WireValue for WireHistogram {
    fn put_text(&self, key: &str, out: &mut Vec<u8>) -> Result<(), ServiceError> {
        put_metric_name(key, &self.name, out)?;
        for v in [self.count, self.sum, self.p50, self.p90, self.p99, self.max] {
            out.push(b':');
            put_display(out, v);
        }
        Ok(())
    }
    fn get_text(key: &str, s: &str) -> Result<Self, ServiceError> {
        let parts: Vec<&str> = s.split(':').collect();
        let [name, count, sum, p50, p90, p99, max] = parts.as_slice() else {
            return Err(ServiceError::Protocol(format!(
                "{key}: expected name:count:sum:p50:p90:p99:max, got {s:?}"
            )));
        };
        Ok(WireHistogram {
            name: name.to_string(),
            count: parse_num(key, count)?,
            sum: parse_num(key, sum)?,
            p50: parse_num(key, p50)?,
            p90: parse_num(key, p90)?,
            p99: parse_num(key, p99)?,
            max: parse_num(key, max)?,
        })
    }
    fn put_binary(&self, out: &mut Vec<u8>) {
        put_str(out, &self.name);
        for v in [self.count, self.sum, self.p50, self.p90, self.p99, self.max] {
            put_varint(out, v);
        }
    }
    fn get_binary(r: &mut PayloadReader<'_>, key: &str) -> Result<Self, ServiceError> {
        Ok(WireHistogram {
            name: r.str(key)?,
            count: r.varint(key)?,
            sum: r.varint(key)?,
            p50: r.varint(key)?,
            p90: r.varint(key)?,
            p99: r.varint(key)?,
            max: r.varint(key)?,
        })
    }
}

/// Protocol v2: length-prefixed binary frames (see the module docs for
/// the layout). Negotiated by `HELLO version=2 codec=binary`.
#[derive(Debug, Clone, Copy, Default)]
pub struct BinaryCodec;

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// The binary side of the schema walk: appends the tag, then each field.
struct BinaryWriter<'a>(&'a mut Vec<u8>);

impl FieldWriter for BinaryWriter<'_> {
    fn begin(&mut self, tag: u8, _: TextForm) {
        self.0.push(tag);
    }

    fn field<V: WireValue>(
        &mut self,
        _: &'static str,
        v: &V,
        _: Option<&V>,
    ) -> Result<(), ServiceError> {
        v.put_binary(self.0);
        Ok(())
    }
}

/// Typed cursor over one frame payload; every read error names the field
/// so truncation diagnostics point at the exact spot.
pub(crate) struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn truncated(&self, field: &str) -> ServiceError {
        ServiceError::Protocol(format!(
            "truncated binary frame: {field} cut off at byte {} of {}",
            self.pos,
            self.buf.len()
        ))
    }

    fn u8(&mut self, field: &str) -> Result<u8, ServiceError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| self.truncated(field))?;
        self.pos += 1;
        Ok(b)
    }

    /// A boolean or presence byte: 0 or 1, nothing else.
    fn flag(&mut self, field: &str) -> Result<bool, ServiceError> {
        match self.u8(field)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(ServiceError::Protocol(format!(
                "malformed binary frame: {field} byte {b} (want 0/1)"
            ))),
        }
    }

    fn varint(&mut self, field: &str) -> Result<u64, ServiceError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.u8(field)?;
            // The 10th byte holds only bit 63: a continuation flag or any
            // higher payload bit would overflow u64 — reject it instead
            // of silently discarding bits.
            if shift == 63 && byte > 1 {
                return Err(ServiceError::Protocol(format!(
                    "malformed binary frame: varint {field} overflows u64"
                )));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(ServiceError::Protocol(format!(
            "malformed binary frame: varint {field} longer than 10 bytes"
        )))
    }

    fn f64_bits(&mut self, field: &str) -> Result<f64, ServiceError> {
        let end = self.pos + 8;
        let bytes = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| self.truncated(field))?;
        self.pos = end;
        Ok(f64::from_bits(u64::from_le_bytes(
            bytes.try_into().expect("8-byte slice"),
        )))
    }

    fn str(&mut self, field: &str) -> Result<String, ServiceError> {
        let len = usize::get_binary(self, field)?;
        if len > self.buf.len() - self.pos {
            return Err(self.truncated(field));
        }
        let end = self.pos + len;
        let s = std::str::from_utf8(&self.buf[self.pos..end])
            .map_err(|_| ServiceError::Protocol(format!("{field}: invalid UTF-8")))?
            .to_string();
        self.pos = end;
        Ok(s)
    }

    fn finish(&self) -> Result<(), ServiceError> {
        if self.pos != self.buf.len() {
            return Err(ServiceError::Protocol(format!(
                "malformed binary frame: {} trailing bytes after payload",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

impl FieldReader for PayloadReader<'_> {
    fn field<V: WireValue>(&mut self, key: &'static str, _: Option<V>) -> Result<V, ServiceError> {
        V::get_binary(self, key)
    }
}

/// Decodes one binary frame payload (tag + fields, no length prefix) —
/// exposed for fuzz-style tests; [`BinaryCodec::read_frame`] is the
/// stream entry point.
pub fn decode_binary_payload(payload: &[u8]) -> Result<Response, ServiceError> {
    let mut r = PayloadReader::new(payload);
    let resp = read_fields(r.u8("tag")?, &mut r)?;
    r.finish()?;
    Ok(resp)
}

impl Codec for BinaryCodec {
    fn kind(&self) -> CodecKind {
        CodecKind::Binary
    }

    fn encode_frame(&self, resp: &Response, out: &mut Vec<u8>) -> Result<(), ServiceError> {
        let start = out.len();
        out.extend_from_slice(&[0; 4]); // length placeholder
        let written = write_fields(resp, &mut BinaryWriter(out))
            .and_then(|()| check_frame_len(out.len() - start - 4));
        if written.is_err() {
            out.truncate(start);
            return written;
        }
        let len = (out.len() - start - 4) as u32;
        out[start..start + 4].copy_from_slice(&len.to_le_bytes());
        Ok(())
    }

    fn read_frame(&self, reader: &mut dyn BufRead) -> Result<Option<Response>, ServiceError> {
        // Length prefix, tolerating clean EOF only before its first byte.
        let mut header = [0u8; 4];
        let mut got = 0;
        while got < 4 {
            let n = reader
                .read(&mut header[got..])
                .map_err(|e| ServiceError::Io(format!("read frame header: {e}")))?;
            if n == 0 {
                if got == 0 {
                    return Ok(None);
                }
                return Err(ServiceError::Protocol(format!(
                    "truncated binary frame: EOF after {got} header bytes"
                )));
            }
            got += n;
        }
        let len = u32::from_le_bytes(header) as usize;
        if len == 0 || len > MAX_FRAME_BYTES {
            return Err(ServiceError::Protocol(format!(
                "malformed binary frame: length {len} outside 1..={MAX_FRAME_BYTES}"
            )));
        }
        let mut payload = vec![0u8; len];
        reader.read_exact(&mut payload).map_err(|e| {
            ServiceError::Protocol(format!("truncated binary frame: {len}-byte payload: {e}"))
        })?;
        decode_binary_payload(&payload).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Pong,
            Response::Bye,
            Response::Hello {
                version: 2,
                codec: CodecKind::Binary,
            },
            Response::Datasets(vec!["a:1:2:3:4".into(), "b:5:6:7:8".into()]),
            Response::Datasets(vec![]),
            Response::Algorithms(vec!["intcov".into(), "bigreedy".into()]),
            Response::Stats {
                hits: 2,
                misses: 1,
                entries: 1,
                evictions: 0,
                hit_rate: 2.0 / 3.0,
                warm_hits: 5,
                warm_misses: 3,
                warm_entries: 2,
                uptime_secs: 3600,
                total_queries: 42,
                queue_depth: 6,
                shed_total: 11,
                conns_open: 3,
                mutations_total: 4,
            },
            Response::Info {
                workers: 8,
                datasets: 2,
                cache_entries: 17,
                uptime_secs: 12,
                total_queries: 9,
            },
            Response::Metrics {
                enabled: true,
                counters: vec![("conn.active".into(), 3), ("queries.total".into(), 128)],
                histograms: vec![
                    crate::protocol::WireHistogram {
                        name: "engine.cache_lookup".into(),
                        count: 128,
                        sum: 51_200,
                        p50: 300,
                        p90: 700,
                        p99: 1_500,
                        max: 2_000,
                    },
                    crate::protocol::WireHistogram {
                        name: "server.read".into(),
                        count: 1,
                        sum: 9,
                        p50: 9,
                        p90: 9,
                        p99: 9,
                        max: 9,
                    },
                ],
            },
            Response::Metrics {
                enabled: false,
                counters: vec![],
                histograms: vec![],
            },
            Response::Answer {
                seq: Some(3),
                answer: WireAnswer {
                    alg: "BiGreedy".into(),
                    cached: true,
                    micros: 812,
                    violations: 0,
                    mhr: Some(0.1 + 0.2),
                    indices: vec![0, 3, 17, 40, 100_000],
                },
            },
            Response::Answer {
                seq: None,
                answer: WireAnswer {
                    alg: "Greedy".into(),
                    cached: false,
                    micros: 0,
                    violations: 2,
                    mhr: None,
                    indices: vec![],
                },
            },
            Response::BatchHeader { n: 7, stream: true },
            Response::BatchHeader {
                n: 100_000,
                stream: false,
            },
            Response::Loaded {
                name: "extra".into(),
                rows: 2000,
                dim: 3,
                groups: 3,
                skyline: 940,
            },
            Response::Mutated {
                name: "extra".into(),
                op: "append".into(),
                rows: 2001,
                skyline: 941,
                sky_changed: true,
                cache_dropped: 3,
                warm_dropped: 1,
            },
            Response::Mutated {
                name: "toy".into(),
                op: "delete".into(),
                rows: 7,
                skyline: 4,
                sky_changed: false,
                cache_dropped: 0,
                warm_dropped: 0,
            },
            Response::Error {
                seq: Some(2),
                message: "solver error: k must be positive".into(),
            },
            Response::Error {
                seq: None,
                message: "unknown verb \"FROB\"".into(),
            },
            Response::Busy {
                seq: None,
                retry_after_ms: 24,
                message: "solve queue full (depth 256)".into(),
            },
            Response::Busy {
                seq: Some(5),
                retry_after_ms: 1,
                message: "queue deadline exceeded".into(),
            },
        ]
    }

    #[test]
    fn binary_round_trips_every_variant() {
        for resp in sample_responses() {
            let mut frame = Vec::new();
            BinaryCodec.encode_frame(&resp, &mut frame).unwrap();
            let mut reader = std::io::Cursor::new(frame);
            let back = BinaryCodec.read_frame(&mut reader).unwrap().unwrap();
            assert_eq!(back, resp);
            assert!(BinaryCodec.read_frame(&mut reader).unwrap().is_none());
        }
    }

    #[test]
    fn text_round_trips_every_variant() {
        for resp in sample_responses() {
            let mut frame = Vec::new();
            TextCodec.encode_frame(&resp, &mut frame).unwrap();
            let mut reader = std::io::Cursor::new(frame);
            let back = TextCodec.read_frame(&mut reader).unwrap().unwrap();
            assert_eq!(back, resp);
            assert!(TextCodec.read_frame(&mut reader).unwrap().is_none());
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The text line and the binary frame (hex) of each
    /// [`sample_responses`] value, in order, recorded from the
    /// hand-written encoders before the response schema replaced them.
    /// A field that an encoder and its decoder reorder together passes
    /// every round trip; it fails here.
    const SAMPLE_BYTES: [(&str, &str); 21] = [
    (
        "OK pong",
        "0100000001",
    ),
    (
        "OK bye",
        "010000000b",
    ),
    (
        "OK version=2 codec=binary",
        "0900000002020662696e617279",
    ),
    (
        "OK datasets=a:1:2:3:4,b:5:6:7:8",
        "16000000030209613a313a323a333a3409623a353a363a373a38",
    ),
    (
        "OK datasets=",
        "020000000300",
    ),
    (
        "OK algorithms=intcov,bigreedy",
        "12000000040206696e74636f76086269677265656479",
    ),
    (
        "OK hits=2 misses=1 entries=1 evictions=0 hit_rate=0.6666666666666666 warm_hits=5 warm_misses=3 warm_entries=2 uptime_secs=3600 total_queries=42 queue_depth=6 shed_total=11 conns_open=3 mutations_total=4",
        "170000000502010100555555555555e53f050302901c2a060b0304",
    ),
    (
        "OK workers=8 datasets=2 cache_entries=17 uptime_secs=12 total_queries=9",
        "06000000060802110c09",
    ),
    (
        "OK metrics enabled=true counters=conn.active:3,queries.total:128 histos=engine.cache_lookup:128:51200:300:700:1500:2000,server.read:1:9:9:9:9:9",
        "540000000d01020b636f6e6e2e616374697665030d717565726965732e746f74616c80010213656e67696e652e63616368655f6c6f6f6b75708001809003ac02bc05dc0bd00f0b7365727665722e72656164010909090909",
    ),
    (
        "OK metrics enabled=false counters= histos=",
        "040000000d000000",
    ),
    (
        "OK seq=3 alg=BiGreedy cached=true micros=812 err=0 mhr=0.30000000000000004 indices=0,3,17,40,100000",
        "2100000008010308426947726565647901ac060001343333333333d33f0500031128a08d06",
    ),
    (
        "OK alg=Greedy cached=false micros=0 err=2 mhr=none indices=",
        "0e0000000800064772656564790000020000",
    ),
    (
        "OK batch=7 stream=true",
        "03000000090701",
    ),
    (
        "OK batch=100000",
        "0500000009a08d0600",
    ),
    (
        "OK loaded name=extra n=2000 d=3 groups=3 skyline=940",
        "0d0000000a056578747261d00f0303ac07",
    ),
    (
        "OK mutated name=extra op=append n=2001 skyline=941 sky_changed=true cache_dropped=3 warm_dropped=1",
        "150000000f05657874726106617070656e64d10fad07010301",
    ),
    (
        "OK mutated name=toy op=delete n=7 skyline=4 sky_changed=false cache_dropped=0 warm_dropped=0",
        "110000000f03746f790664656c6574650704000000",
    ),
    (
        "ERR seq=2 solver error: k must be positive",
        "240000000c010220736f6c766572206572726f723a206b206d75737420626520706f736974697665",
    ),
    (
        "ERR unknown verb \"FROB\"",
        "160000000c0013756e6b6e6f776e2076657262202246524f4222",
    ),
    (
        "ERR busy retry_after_ms=24 solve queue full (depth 256)",
        "200000000e00181c736f6c76652071756575652066756c6c202864657074682032353629",
    ),
    (
        "ERR seq=5 busy retry_after_ms=1 queue deadline exceeded",
        "1c0000000e01050117717565756520646561646c696e65206578636565646564",
    ),
    ];

    #[test]
    fn sample_responses_encode_to_pinned_bytes() {
        let samples = sample_responses();
        assert_eq!(samples.len(), SAMPLE_BYTES.len());
        for (resp, (line, frame_hex)) in samples.iter().zip(SAMPLE_BYTES) {
            let mut text = Vec::new();
            TextCodec.encode_frame(resp, &mut text).unwrap();
            assert_eq!(text, format!("{line}\n").into_bytes(), "{resp:?}");
            let mut frame = Vec::new();
            BinaryCodec.encode_frame(resp, &mut frame).unwrap();
            assert_eq!(hex(&frame), frame_hex, "{resp:?}");
        }
    }

    #[test]
    fn varint_round_trips_at_width_boundaries() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut r = PayloadReader::new(&buf);
            assert_eq!(r.varint("v").unwrap(), v);
            r.finish().unwrap();
        }

        // Overflowing encodings are rejected, not silently truncated:
        // 9 continuation bytes followed by a 10th byte carrying more than
        // bit 63 (payload bits 1..7 or another continuation flag).
        for last in [0x7fu8, 0x02, 0x81] {
            let mut buf = vec![0x80u8; 9];
            buf.push(last);
            let mut r = PayloadReader::new(&buf);
            assert!(
                matches!(
                    r.varint("v"),
                    Err(ServiceError::Protocol(m)) if m.contains("overflows")
                ),
                "10th byte {last:#x} must be rejected"
            );
        }
    }

    #[test]
    fn malformed_frames_yield_typed_errors_without_desync() {
        // A valid frame to append after each malformed one.
        let mut good = Vec::new();
        BinaryCodec
            .encode_frame(&Response::Pong, &mut good)
            .unwrap();

        // Unknown tag.
        let mut stream = vec![1, 0, 0, 0, 99];
        stream.extend_from_slice(&good);
        let mut reader = std::io::Cursor::new(stream);
        assert!(matches!(
            BinaryCodec.read_frame(&mut reader),
            Err(ServiceError::Protocol(m)) if m.contains("unknown tag")
        ));
        // The length prefix framed the bad payload: the next frame is fine.
        assert_eq!(
            BinaryCodec.read_frame(&mut reader).unwrap(),
            Some(Response::Pong)
        );

        // Truncated payload: ANSWER tag with nothing after it.
        let mut stream = vec![1, 0, 0, 0, tag::ANSWER];
        stream.extend_from_slice(&good);
        let mut reader = std::io::Cursor::new(stream);
        assert!(matches!(
            BinaryCodec.read_frame(&mut reader),
            Err(ServiceError::Protocol(m)) if m.contains("truncated")
        ));
        assert_eq!(
            BinaryCodec.read_frame(&mut reader).unwrap(),
            Some(Response::Pong)
        );

        // Trailing bytes after a complete payload.
        let mut stream = vec![2, 0, 0, 0, tag::PONG, 0xab];
        stream.extend_from_slice(&good);
        let mut reader = std::io::Cursor::new(stream);
        assert!(matches!(
            BinaryCodec.read_frame(&mut reader),
            Err(ServiceError::Protocol(m)) if m.contains("trailing")
        ));
        assert_eq!(
            BinaryCodec.read_frame(&mut reader).unwrap(),
            Some(Response::Pong)
        );

        // A boolean or presence byte decodes from 0 and 1 only: 2 and 255
        // in each boolean field are typed errors that keep the stream
        // aligned. The payloads are valid with the byte at `at` set to 1.
        for (frame_tag, body, at) in [
            // n = 7, stream
            (tag::BATCH_HEADER, vec![7, 1], 1),
            // enabled, no counters, no histograms
            (tag::METRICS, vec![1, 0, 0], 0),
            // no seq, alg "x", cached, micros, err, no mhr, no indices
            (tag::ANSWER, vec![0, 1, b'x', 1, 0, 0, 0, 0], 3),
            // name "t", op "d", rows, skyline, sky_changed, two drops
            (tag::MUTATED, vec![1, b't', 1, b'd', 1, 1, 1, 0, 0], 6),
            // mhr presence
            (
                tag::ANSWER,
                vec![0, 1, b'x', 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                6,
            ),
        ] {
            for flag in [1u8, 2, 255] {
                let mut payload = vec![frame_tag];
                payload.extend_from_slice(&body);
                payload[at + 1] = flag;
                let mut stream = (payload.len() as u32).to_le_bytes().to_vec();
                stream.extend_from_slice(&payload);
                stream.extend_from_slice(&good);
                let mut reader = std::io::Cursor::new(stream);
                let got = BinaryCodec.read_frame(&mut reader);
                if flag == 1 {
                    assert!(got.is_ok(), "tag {frame_tag}: {got:?}");
                } else {
                    assert!(
                        matches!(&got, Err(ServiceError::Protocol(m)) if m.contains("want 0/1")),
                        "tag {frame_tag} with byte {flag}: {got:?}"
                    );
                }
                assert_eq!(
                    BinaryCodec.read_frame(&mut reader).unwrap(),
                    Some(Response::Pong)
                );
            }
        }

        // Oversized / zero length prefixes are rejected before allocating.
        for len in [0u32, (MAX_FRAME_BYTES as u32) + 1] {
            let mut reader = std::io::Cursor::new(len.to_le_bytes().to_vec());
            assert!(matches!(
                BinaryCodec.read_frame(&mut reader),
                Err(ServiceError::Protocol(m)) if m.contains("length")
            ));
        }

        // EOF mid-header and mid-payload are truncation errors, not None.
        let mut reader = std::io::Cursor::new(vec![5, 0]);
        assert!(matches!(
            BinaryCodec.read_frame(&mut reader),
            Err(ServiceError::Protocol(m)) if m.contains("EOF after 2 header bytes")
        ));
        let mut reader = std::io::Cursor::new(vec![5, 0, 0, 0, tag::PONG]);
        assert!(matches!(
            BinaryCodec.read_frame(&mut reader),
            Err(ServiceError::Protocol(m)) if m.contains("payload")
        ));
    }

    /// A STATS payload holding the first `fields` of its 14 fields.
    fn stats_payload(fields: usize) -> Vec<u8> {
        let mut payload = vec![tag::STATS];
        put_varint(&mut payload, 2); // hits
        put_varint(&mut payload, 1); // misses
        put_varint(&mut payload, 1); // entries
        put_varint(&mut payload, 0); // evictions
        payload.extend_from_slice(&(2.0f64 / 3.0).to_bits().to_le_bytes());
        // warm_hits, warm_misses, warm_entries, uptime_secs, total_queries,
        // queue_depth, shed_total, conns_open, mutations_total
        for v in [7, 3, 2, 60, 9, 4, 2, 1, 13].into_iter().take(fields - 5) {
            put_varint(&mut payload, v);
        }
        payload
    }

    fn assert_protocol_error(payload: &[u8]) {
        assert!(
            matches!(
                decode_binary_payload(payload),
                Err(ServiceError::Protocol(_))
            ),
            "{payload:?} must not decode"
        );
    }

    // Every fixed-shape frame has exactly one layout. The four tests below
    // feed the decoder the frames of each older layout: every one is a
    // typed protocol error, never a frame with defaulted fields.

    #[test]
    fn pre_warmstart_binary_frames_still_decode() {
        // STATS ending after hit_rate, or with a partial warm_* tail.
        assert_protocol_error(&stats_payload(5));
        assert_protocol_error(&stats_payload(6));

        // The pre-warm-start INFO layout: leading shards + strategy,
        // nothing appended.
        let mut payload = vec![tag::INFO];
        put_varint(&mut payload, 4); // shards
        put_str(&mut payload, "stratified");
        put_varint(&mut payload, 2); // workers
        put_varint(&mut payload, 1); // datasets
        put_varint(&mut payload, 0); // cache_entries
        assert_protocol_error(&payload);
    }

    #[test]
    fn pre_telemetry_binary_frames_still_decode() {
        // STATS ending after the warm_* fields.
        assert_protocol_error(&stats_payload(8));

        // The old INFO layout — shards=1 and strategy=stratified ahead
        // of the live fields, the warmstart byte in between, with or
        // without the telemetry tier.
        let old_info = |telemetry: bool| {
            let mut payload = vec![tag::INFO];
            put_varint(&mut payload, 1); // shards
            put_str(&mut payload, "stratified");
            put_varint(&mut payload, 2); // workers
            put_varint(&mut payload, 1); // datasets
            put_varint(&mut payload, 0); // cache_entries
            payload.push(1); // warmstart
            if telemetry {
                put_varint(&mut payload, 100); // uptime_secs
                put_varint(&mut payload, 9); // total_queries
            }
            payload
        };
        for telemetry in [false, true] {
            assert_protocol_error(&old_info(telemetry));
        }

        // A current INFO frame missing its last field.
        let mut bad = vec![tag::INFO];
        put_varint(&mut bad, 2); // workers
        put_varint(&mut bad, 1); // datasets
        put_varint(&mut bad, 0); // cache_entries
        put_varint(&mut bad, 100); // uptime_secs present, total_queries missing
        assert_protocol_error(&bad);
    }

    #[test]
    fn pre_admission_binary_frames_still_decode() {
        // STATS ending after uptime/total_queries, or with a partial
        // admission tail (queue_depth and shed_total, no conns_open).
        assert_protocol_error(&stats_payload(10));
        assert_protocol_error(&stats_payload(12));
    }

    #[test]
    fn pre_mutation_binary_frames_still_decode() {
        // STATS ending after conns_open.
        assert_protocol_error(&stats_payload(13));

        // With the counter appended the same frame decodes in full.
        match decode_binary_payload(&stats_payload(14)).unwrap() {
            Response::Stats {
                conns_open,
                mutations_total,
                ..
            } => assert_eq!((conns_open, mutations_total), (1, 13)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn oversized_encode_is_a_typed_error_not_a_truncated_header() {
        // Regression (encode-side cap): the frame length is written as
        // `len as u32` after the payload; without the MAX_FRAME_BYTES
        // check an oversized payload would silently truncate the length
        // header and desynchronize every later frame. The encoder must
        // return a typed error and roll the buffer back instead.
        let huge = Response::Error {
            seq: None,
            message: "x".repeat(MAX_FRAME_BYTES + 16),
        };
        let mut out = Vec::new();
        BinaryCodec.encode_frame(&Response::Pong, &mut out).unwrap();
        let after_pong = out.len();
        match BinaryCodec.encode_frame(&huge, &mut out) {
            Err(ServiceError::Protocol(m)) => {
                assert!(m.contains("exceeds"), "unexpected message: {m}")
            }
            other => panic!("expected typed encode error, got {other:?}"),
        }
        // Buffer rolled back to the frame boundary: nothing of the failed
        // frame leaks, and the stream stays decodable.
        assert_eq!(out.len(), after_pong);
        BinaryCodec.encode_frame(&Response::Bye, &mut out).unwrap();
        let mut reader = std::io::Cursor::new(out);
        assert_eq!(
            BinaryCodec.read_frame(&mut reader).unwrap(),
            Some(Response::Pong)
        );
        assert_eq!(
            BinaryCodec.read_frame(&mut reader).unwrap(),
            Some(Response::Bye)
        );
        assert!(BinaryCodec.read_frame(&mut reader).unwrap().is_none());
    }

    #[test]
    fn oversized_text_encode_is_a_typed_error_not_a_cut_line() {
        // The text twin of the binary encode cap: a line past
        // MAX_FRAME_BYTES is a typed error, and the buffer rolls back to
        // the frame boundary.
        let huge = Response::Error {
            seq: None,
            message: "x".repeat(MAX_FRAME_BYTES),
        };
        let mut out = Vec::new();
        TextCodec.encode_frame(&Response::Pong, &mut out).unwrap();
        let after_pong = out.len();
        match TextCodec.encode_frame(&huge, &mut out) {
            Err(ServiceError::Protocol(m)) => {
                assert!(m.contains("exceeds"), "unexpected message: {m}")
            }
            other => panic!("expected typed encode error, got {other:?}"),
        }
        assert_eq!(out.len(), after_pong);
        TextCodec.encode_frame(&Response::Bye, &mut out).unwrap();
        let mut reader = std::io::Cursor::new(out);
        assert_eq!(
            TextCodec.read_frame(&mut reader).unwrap(),
            Some(Response::Pong)
        );
        assert_eq!(
            TextCodec.read_frame(&mut reader).unwrap(),
            Some(Response::Bye)
        );
        assert!(TextCodec.read_frame(&mut reader).unwrap().is_none());
    }

    #[test]
    fn text_frames_are_bounded_utf8_lines() {
        // The text twin of the binary length bound: MAX_FRAME_BYTES
        // without a newline is an error, and nothing past it is read.
        let mut reader = std::io::Cursor::new(vec![b'x'; MAX_FRAME_BYTES + 1]);
        assert!(matches!(
            TextCodec.read_frame(&mut reader),
            Err(ServiceError::Protocol(m)) if m.contains("without a newline")
        ));
        assert_eq!(reader.position(), MAX_FRAME_BYTES as u64);

        // A line of exactly MAX_FRAME_BYTES, newline included, is read.
        let mut line = b"ERR ".to_vec();
        line.resize(MAX_FRAME_BYTES - 1, b'x');
        line.push(b'\n');
        let mut reader = std::io::Cursor::new(line);
        match TextCodec.read_frame(&mut reader).unwrap() {
            Some(Response::Error { seq: None, message }) => {
                assert_eq!(message.len(), MAX_FRAME_BYTES - 5)
            }
            other => panic!("{other:?}"),
        }

        // Invalid UTF-8 is a typed error, not replacement characters, and
        // the next line still decodes.
        let stream = [&b"ERR bad \xff byte"[..], b"\n", b"OK pong", b"\n"].concat();
        let mut reader = std::io::Cursor::new(stream);
        assert!(matches!(
            TextCodec.read_frame(&mut reader),
            Err(ServiceError::Protocol(m)) if m.contains("UTF-8")
        ));
        assert_eq!(
            TextCodec.read_frame(&mut reader).unwrap(),
            Some(Response::Pong)
        );

        // EOF before the newline is a cut-off frame, not a shorter answer.
        let mut reader = std::io::Cursor::new(
            b"OK alg=x cached=false micros=1 err=0 mhr=none indices=1,2".to_vec(),
        );
        assert!(matches!(
            TextCodec.read_frame(&mut reader),
            Err(ServiceError::Protocol(m)) if m.contains("truncated")
        ));
    }

    #[test]
    fn codec_kind_parses_and_displays_its_wire_name() {
        assert_eq!(CodecKind::parse("TEXT"), Some(CodecKind::Text));
        assert_eq!(CodecKind::parse("binary"), Some(CodecKind::Binary));
        assert_eq!(CodecKind::parse("morse"), None);
        assert_eq!(CodecKind::Text.to_string(), "text");
        assert_eq!(CodecKind::Binary.to_string(), "binary");
    }
}

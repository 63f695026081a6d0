//! Pluggable response codecs: v1 text lines and v2 length-prefixed
//! binary frames.
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
//! floats are 8 raw little-endian IEEE-754 bytes, `Option`s are a 0/1
//! presence byte. Decoding a malformed payload (unknown tag, truncated
//! field, trailing bytes) yields a typed [`ServiceError::Protocol`] *for
//! that frame only* — the length prefix has already been consumed, so the
//! stream stays frame-aligned and the next frame decodes normally.

use std::io::BufRead;

use crate::protocol::{decode_response_line, encode_response_line, Response, WireAnswer};
use crate::ServiceError;

/// Hard cap on one binary frame (tag + payload), matching the text
/// protocol's batch buffer cap: a hostile or corrupt length prefix must
/// not make the peer allocate without bound.
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
    /// string under [`TextCodec`] or an over-[`MAX_FRAME_BYTES`] payload
    /// under [`BinaryCodec`].
    fn encode_frame(&self, resp: &Response, out: &mut Vec<u8>) -> Result<(), ServiceError>;

    /// Reads and decodes one frame. `Ok(None)` means the peer closed the
    /// stream cleanly *at a frame boundary*; EOF mid-frame is an error.
    fn read_frame(&self, reader: &mut dyn BufRead) -> Result<Option<Response>, ServiceError>;
}

/// Protocol v1: one `\n`-terminated text line per response, byte-for-byte
/// the historical format (see [`encode_response_line`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct TextCodec;

impl Codec for TextCodec {
    fn kind(&self) -> CodecKind {
        CodecKind::Text
    }

    fn encode_frame(&self, resp: &Response, out: &mut Vec<u8>) -> Result<(), ServiceError> {
        let line = encode_response_line(resp)?;
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
        Ok(())
    }

    fn read_frame(&self, reader: &mut dyn BufRead) -> Result<Option<Response>, ServiceError> {
        let mut buf = Vec::new();
        let n = reader
            .read_until(b'\n', &mut buf)
            .map_err(|e| ServiceError::Io(format!("read response line: {e}")))?;
        if n == 0 {
            return Ok(None);
        }
        let line = String::from_utf8_lossy(&buf);
        Ok(Some(decode_response_line(
            line.trim_end_matches(['\n', '\r']),
        )?))
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

fn put_list(out: &mut Vec<u8>, items: &[String]) {
    put_varint(out, items.len() as u64);
    for s in items {
        put_str(out, s);
    }
}

fn put_opt_varint(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put_varint(out, v);
        }
    }
}

/// Typed cursor over one frame payload; every read error names the field
/// so truncation diagnostics point at the exact spot.
struct PayloadReader<'a> {
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

    fn usize(&mut self, field: &str) -> Result<usize, ServiceError> {
        usize::try_from(self.varint(field)?)
            .map_err(|_| ServiceError::Protocol(format!("{field}: value exceeds usize")))
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
        let len = self.usize(field)?;
        if len > self.buf.len().saturating_sub(self.pos) {
            return Err(self.truncated(field));
        }
        let end = self.pos + len;
        let s = std::str::from_utf8(&self.buf[self.pos..end])
            .map_err(|_| ServiceError::Protocol(format!("{field}: invalid UTF-8")))?
            .to_string();
        self.pos = end;
        Ok(s)
    }

    fn list(&mut self, field: &str) -> Result<Vec<String>, ServiceError> {
        let n = self.usize(field)?;
        // Each entry costs ≥ 1 byte; a count beyond the remaining payload
        // is corruption, caught before any proportional allocation.
        if n > self.buf.len().saturating_sub(self.pos) {
            return Err(self.truncated(field));
        }
        (0..n).map(|_| self.str(field)).collect()
    }

    fn opt_varint(&mut self, field: &str) -> Result<Option<u64>, ServiceError> {
        match self.u8(field)? {
            0 => Ok(None),
            1 => Ok(Some(self.varint(field)?)),
            b => Err(ServiceError::Protocol(format!(
                "malformed binary frame: {field} presence byte {b} (want 0/1)"
            ))),
        }
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

fn encode_binary_payload(resp: &Response, out: &mut Vec<u8>) {
    match resp {
        Response::Pong => out.push(tag::PONG),
        Response::Hello { version, codec } => {
            out.push(tag::HELLO);
            put_varint(out, u64::from(*version));
            put_str(out, &codec.to_string());
        }
        Response::Datasets(summaries) => {
            out.push(tag::DATASETS);
            put_list(out, summaries);
        }
        Response::Algorithms(names) => {
            out.push(tag::ALGORITHMS);
            put_list(out, names);
        }
        Response::Stats {
            hits,
            misses,
            entries,
            evictions,
            hit_rate,
            warm_hits,
            warm_misses,
            warm_entries,
            uptime_secs,
            total_queries,
            queue_depth,
            shed_total,
            conns_open,
            mutations_total,
        } => {
            out.push(tag::STATS);
            put_varint(out, *hits);
            put_varint(out, *misses);
            put_varint(out, *entries as u64);
            put_varint(out, *evictions);
            out.extend_from_slice(&hit_rate.to_bits().to_le_bytes());
            put_varint(out, *warm_hits);
            put_varint(out, *warm_misses);
            put_varint(out, *warm_entries as u64);
            put_varint(out, *uptime_secs);
            put_varint(out, *total_queries);
            put_varint(out, *queue_depth);
            put_varint(out, *shed_total);
            put_varint(out, *conns_open);
            put_varint(out, *mutations_total);
        }
        Response::Info {
            workers,
            datasets,
            cache_entries,
            uptime_secs,
            total_queries,
        } => {
            out.push(tag::INFO);
            put_varint(out, *workers as u64);
            put_varint(out, *datasets as u64);
            put_varint(out, *cache_entries as u64);
            put_varint(out, *uptime_secs);
            put_varint(out, *total_queries);
        }
        Response::Metrics {
            enabled,
            counters,
            histograms,
        } => {
            out.push(tag::METRICS);
            out.push(u8::from(*enabled));
            put_varint(out, counters.len() as u64);
            for (name, v) in counters {
                put_str(out, name);
                put_varint(out, *v);
            }
            put_varint(out, histograms.len() as u64);
            for h in histograms {
                put_str(out, &h.name);
                put_varint(out, h.count);
                put_varint(out, h.sum);
                put_varint(out, h.p50);
                put_varint(out, h.p90);
                put_varint(out, h.p99);
                put_varint(out, h.max);
            }
        }
        Response::Answer { seq, answer } => {
            out.push(tag::ANSWER);
            put_opt_varint(out, *seq);
            put_str(out, &answer.alg);
            out.push(u8::from(answer.cached));
            put_varint(out, answer.micros);
            put_varint(out, answer.violations as u64);
            match answer.mhr {
                None => out.push(0),
                Some(v) => {
                    out.push(1);
                    out.extend_from_slice(&v.to_bits().to_le_bytes());
                }
            }
            put_varint(out, answer.indices.len() as u64);
            for &i in &answer.indices {
                put_varint(out, i as u64);
            }
        }
        Response::BatchHeader { n, stream } => {
            out.push(tag::BATCH_HEADER);
            put_varint(out, *n as u64);
            out.push(u8::from(*stream));
        }
        Response::Loaded {
            name,
            rows,
            dim,
            groups,
            skyline,
        } => {
            out.push(tag::LOADED);
            put_str(out, name);
            put_varint(out, *rows as u64);
            put_varint(out, *dim as u64);
            put_varint(out, *groups as u64);
            put_varint(out, *skyline as u64);
        }
        Response::Mutated {
            name,
            op,
            rows,
            skyline,
            sky_changed,
            cache_dropped,
            warm_dropped,
        } => {
            out.push(tag::MUTATED);
            put_str(out, name);
            put_str(out, op);
            put_varint(out, *rows as u64);
            put_varint(out, *skyline as u64);
            out.push(u8::from(*sky_changed));
            put_varint(out, *cache_dropped);
            put_varint(out, *warm_dropped);
        }
        Response::Bye => out.push(tag::BYE),
        Response::Busy {
            seq,
            retry_after_ms,
            message,
        } => {
            out.push(tag::BUSY);
            put_opt_varint(out, *seq);
            put_varint(out, *retry_after_ms);
            put_str(out, message);
        }
        Response::Error { seq, message } => {
            out.push(tag::ERROR);
            put_opt_varint(out, *seq);
            put_str(out, message);
        }
    }
}

/// Decodes one binary frame payload (tag + fields, no length prefix) —
/// exposed for fuzz-style tests; [`BinaryCodec::read_frame`] is the
/// stream entry point.
pub fn decode_binary_payload(payload: &[u8]) -> Result<Response, ServiceError> {
    let mut r = PayloadReader::new(payload);
    let resp = match r.u8("tag")? {
        tag::PONG => Response::Pong,
        tag::HELLO => Response::Hello {
            version: u32::try_from(r.varint("version")?)
                .map_err(|_| ServiceError::Protocol("version exceeds u32".into()))?,
            codec: {
                let s = r.str("codec")?;
                CodecKind::parse(&s)
                    .ok_or_else(|| ServiceError::Protocol(format!("codec: unknown kind {s:?}")))?
            },
        },
        tag::DATASETS => Response::Datasets(r.list("datasets")?),
        tag::ALGORITHMS => Response::Algorithms(r.list("algorithms")?),
        tag::STATS => Response::Stats {
            hits: r.varint("hits")?,
            misses: r.varint("misses")?,
            entries: r.usize("entries")?,
            evictions: r.varint("evictions")?,
            hit_rate: r.f64_bits("hit_rate")?,
            warm_hits: r.varint("warm_hits")?,
            warm_misses: r.varint("warm_misses")?,
            warm_entries: r.usize("warm_entries")?,
            uptime_secs: r.varint("uptime_secs")?,
            total_queries: r.varint("total_queries")?,
            queue_depth: r.varint("queue_depth")?,
            shed_total: r.varint("shed_total")?,
            conns_open: r.varint("conns_open")?,
            mutations_total: r.varint("mutations_total")?,
        },
        tag::INFO => Response::Info {
            workers: r.usize("workers")?,
            datasets: r.usize("datasets")?,
            cache_entries: r.usize("cache_entries")?,
            uptime_secs: r.varint("uptime_secs")?,
            total_queries: r.varint("total_queries")?,
        },
        tag::ANSWER => {
            let seq = r.opt_varint("seq")?;
            let alg = r.str("alg")?;
            let cached = r.u8("cached")? != 0;
            let micros = r.varint("micros")?;
            let violations = r.usize("violations")?;
            let mhr = match r.u8("mhr presence")? {
                0 => None,
                1 => Some(r.f64_bits("mhr")?),
                b => {
                    return Err(ServiceError::Protocol(format!(
                        "malformed binary frame: mhr presence byte {b} (want 0/1)"
                    )))
                }
            };
            let n = r.usize("indices count")?;
            if n > payload.len() {
                // ≥ 1 byte per index: a count beyond the payload is corrupt.
                return Err(r.truncated("indices count"));
            }
            let indices = (0..n)
                .map(|_| r.usize("indices"))
                .collect::<Result<Vec<_>, _>>()?;
            Response::Answer {
                seq,
                answer: WireAnswer {
                    alg,
                    cached,
                    micros,
                    violations,
                    mhr,
                    indices,
                },
            }
        }
        tag::BATCH_HEADER => Response::BatchHeader {
            n: r.usize("batch size")?,
            stream: r.u8("stream flag")? != 0,
        },
        tag::LOADED => Response::Loaded {
            name: r.str("name")?,
            rows: r.usize("rows")?,
            dim: r.usize("dim")?,
            groups: r.usize("groups")?,
            skyline: r.usize("skyline")?,
        },
        tag::MUTATED => Response::Mutated {
            name: r.str("name")?,
            op: r.str("op")?,
            rows: r.usize("rows")?,
            skyline: r.usize("skyline")?,
            sky_changed: r.u8("sky_changed")? != 0,
            cache_dropped: r.varint("cache_dropped")?,
            warm_dropped: r.varint("warm_dropped")?,
        },
        tag::BYE => Response::Bye,
        tag::BUSY => Response::Busy {
            seq: r.opt_varint("seq")?,
            retry_after_ms: r.varint("retry_after_ms")?,
            message: r.str("message")?,
        },
        tag::ERROR => Response::Error {
            seq: r.opt_varint("seq")?,
            message: r.str("message")?,
        },
        tag::METRICS => {
            let enabled = r.u8("metrics enabled")? != 0;
            let nc = r.usize("counter count")?;
            if nc > payload.len() {
                return Err(r.truncated("counter count"));
            }
            let counters = (0..nc)
                .map(|_| Ok((r.str("counter name")?, r.varint("counter value")?)))
                .collect::<Result<Vec<_>, ServiceError>>()?;
            let nh = r.usize("histogram count")?;
            if nh > payload.len() {
                return Err(r.truncated("histogram count"));
            }
            let histograms = (0..nh)
                .map(|_| {
                    Ok(crate::protocol::WireHistogram {
                        name: r.str("histogram name")?,
                        count: r.varint("histogram count field")?,
                        sum: r.varint("histogram sum")?,
                        p50: r.varint("histogram p50")?,
                        p90: r.varint("histogram p90")?,
                        p99: r.varint("histogram p99")?,
                        max: r.varint("histogram max")?,
                    })
                })
                .collect::<Result<Vec<_>, ServiceError>>()?;
            Response::Metrics {
                enabled,
                counters,
                histograms,
            }
        }
        t => {
            return Err(ServiceError::Protocol(format!(
                "malformed binary frame: unknown tag {t}"
            )))
        }
    };
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
        encode_binary_payload(resp, out);
        let len = out.len() - start - 4;
        if len > MAX_FRAME_BYTES {
            out.truncate(start);
            return Err(ServiceError::Protocol(format!(
                "response frame of {len} bytes exceeds {MAX_FRAME_BYTES}"
            )));
        }
        out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
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
    fn codec_kind_parses_and_displays_its_wire_name() {
        assert_eq!(CodecKind::parse("TEXT"), Some(CodecKind::Text));
        assert_eq!(CodecKind::parse("binary"), Some(CodecKind::Binary));
        assert_eq!(CodecKind::parse("morse"), None);
        assert_eq!(CodecKind::Text.to_string(), "text");
        assert_eq!(CodecKind::Binary.to_string(), "binary");
    }
}

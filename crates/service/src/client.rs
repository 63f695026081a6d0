//! A typed TCP client for the fairhms wire protocol.
//!
//! [`WireClient`] is the one client implementation shared by the
//! `fairhms query` CLI and the integration test suites: it sends text
//! request lines, performs the `HELLO` codec handshake, and decodes
//! response frames through whichever [`Codec`] the connection negotiated
//! — so every caller observes the same typed [`Response`] model whether
//! the wire carries v1 text or v2 binary frames.

use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

use crate::codec::{Codec, CodecKind};
use crate::protocol::{self, Response, WireAnswer};
use crate::query::Query;
use crate::ServiceError;

/// A connected protocol client with a negotiated response codec.
pub struct WireClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    codec: Box<dyn Codec>,
}

impl WireClient {
    /// Connects as a plain v1 text client (no handshake on the wire —
    /// exactly what a pre-v2 client does).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<WireClient, ServiceError> {
        let stream =
            TcpStream::connect(addr).map_err(|e| ServiceError::Io(format!("connect: {e}")))?;
        stream.set_nodelay(true).ok();
        Ok(WireClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            codec: CodecKind::Text.new_codec(),
        })
    }

    /// Connects and negotiates `kind` via `HELLO version=2 codec=…`,
    /// verifying the server's acknowledgment before switching.
    pub fn negotiate(
        addr: impl ToSocketAddrs,
        kind: CodecKind,
    ) -> Result<WireClient, ServiceError> {
        let mut client = WireClient::connect(addr)?;
        client.send_line(&format!(
            "HELLO version={} codec={kind}",
            protocol::PROTOCOL_VERSION
        ))?;
        // The acknowledgment is still encoded by the *previous* codec
        // (text on a fresh connection); frames after it use `kind`.
        match client.recv()? {
            Response::Hello { version, codec }
                if version == protocol::PROTOCOL_VERSION && codec == kind => {}
            other => {
                return Err(ServiceError::Protocol(format!(
                    "handshake rejected: expected OK version=2 codec={kind}, got {other:?}"
                )))
            }
        }
        client.codec = kind.new_codec();
        Ok(client)
    }

    /// The kind of the negotiated response codec.
    pub fn codec_kind(&self) -> CodecKind {
        self.codec.kind()
    }

    /// Sends one raw request line (the request channel is always text).
    pub fn send_line(&mut self, line: &str) -> Result<(), ServiceError> {
        writeln!(self.writer, "{line}").map_err(|e| ServiceError::Io(format!("send: {e}")))?;
        self.writer
            .flush()
            .map_err(|e| ServiceError::Io(format!("send: {e}")))
    }

    /// Reads the next typed response frame; `ERR` frames are returned as
    /// [`Response::Error`] values, not `Err` (they are protocol data).
    pub fn recv(&mut self) -> Result<Response, ServiceError> {
        match self.codec.read_frame(&mut self.reader)? {
            Some(resp) => Ok(resp),
            None => Err(ServiceError::Io("server closed the connection".into())),
        }
    }

    /// Reads the next frame and unwraps it into a query answer;
    /// [`Response::Error`] becomes a typed `Err`.
    pub fn recv_answer(&mut self) -> Result<WireAnswer, ServiceError> {
        match self.recv()? {
            Response::Answer { answer, .. } => Ok(answer),
            other => Err(other.into_error("a query answer")),
        }
    }

    /// Sends one query and returns its answer.
    pub fn query(&mut self, q: &Query) -> Result<WireAnswer, ServiceError> {
        self.send_line(&protocol::query_to_wire(q)?)?;
        self.recv_answer()
    }

    /// Sends `APPEND name=… row=… group=…` and returns the server's
    /// [`Response::Mutated`] frame; `ERR`/busy frames become typed `Err`s.
    pub fn append(
        &mut self,
        name: &str,
        row: &[f64],
        group: usize,
    ) -> Result<Response, ServiceError> {
        let row_csv = row
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(",");
        self.send_line(&format!("APPEND name={name} row={row_csv} group={group}"))?;
        self.recv_mutated()
    }

    /// Sends `DELETE name=… row=…` and returns the server's
    /// [`Response::Mutated`] frame; `ERR`/busy frames become typed `Err`s.
    pub fn delete(&mut self, name: &str, row: usize) -> Result<Response, ServiceError> {
        self.send_line(&format!("DELETE name={name} row={row}"))?;
        self.recv_mutated()
    }

    fn recv_mutated(&mut self) -> Result<Response, ServiceError> {
        match self.recv()? {
            m @ Response::Mutated { .. } => Ok(m),
            other => Err(other.into_error("a MUTATED response")),
        }
    }

    /// Sends `METRICS` and returns the decoded telemetry snapshot as
    /// `(enabled, counters, histograms)`.
    #[allow(clippy::type_complexity)]
    pub fn metrics(
        &mut self,
    ) -> Result<
        (
            bool,
            Vec<(String, u64)>,
            Vec<crate::protocol::WireHistogram>,
        ),
        ServiceError,
    > {
        self.send_line("METRICS")?;
        match self.recv()? {
            Response::Metrics {
                enabled,
                counters,
                histograms,
            } => Ok((enabled, counters, histograms)),
            other => Err(other.into_error("a METRICS response")),
        }
    }

    /// Sends `BATCH n [stream=true]` plus the query lines and returns the
    /// decoded header; the caller then reads `n` frames via
    /// [`WireClient::recv`].
    pub fn send_batch(
        &mut self,
        queries: &[Query],
        stream: bool,
    ) -> Result<Response, ServiceError> {
        let header = if stream {
            format!("BATCH {} stream=true", queries.len())
        } else {
            format!("BATCH {}", queries.len())
        };
        // Validate and build every line before sending the header, so a
        // wire-unsafe query cannot leave a half-written batch behind.
        let lines = queries
            .iter()
            .map(protocol::query_to_wire)
            .collect::<Result<Vec<_>, _>>()?;
        let mut block = header;
        for l in &lines {
            block.push('\n');
            block.push_str(l);
        }
        self.send_line(&block)?;
        self.recv()
    }

    /// Runs a whole batch and reassembles the answers into request order,
    /// whether the server streamed them (`seq`-tagged, completion order)
    /// or buffered them (request order) — the two deliveries are
    /// contractually bit-identical once reassembled.
    pub fn batch(
        &mut self,
        queries: &[Query],
        stream: bool,
    ) -> Result<Vec<Result<WireAnswer, ServiceError>>, ServiceError> {
        match self.send_batch(queries, stream)? {
            Response::BatchHeader { n, .. } if n == queries.len() => {}
            other => return Err(other.into_error(&format!("OK batch={}", queries.len()))),
        }
        let mut out: Vec<Option<Result<WireAnswer, ServiceError>>> =
            (0..queries.len()).map(|_| None).collect();
        for i in 0..queries.len() {
            let (seq, res) = match self.recv()? {
                Response::Answer { seq, answer } => (seq, Ok(answer)),
                e @ (Response::Busy { seq, .. } | Response::Error { seq, .. }) => {
                    (seq, Err(e.into_error("an answer")))
                }
                other => return Err(other.into_error(&format!("answer {i}"))),
            };
            // Buffered batches carry no seq: frame order is request order.
            let slot = seq.map_or(i, |s| s as usize);
            if slot >= queries.len() || out[slot].is_some() {
                return Err(ServiceError::Protocol(format!(
                    "bad stream sequence {slot} (frame {i})"
                )));
            }
            out[slot] = Some(res);
        }
        Ok(out
            .into_iter()
            .map(|s| s.expect("all slots filled"))
            .collect())
    }
}

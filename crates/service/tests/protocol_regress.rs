//! Wire-protocol regression tests pinning the error behaviors documented
//! in docs/PROTOCOL.md: the retired `SHARDS` verb and oversized batches
//! answer with the documented `ERR` lines *without desynchronizing the
//! connection*, while the two connection-fatal framing limits actually
//! drop the connection.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::Arc;

use fairhms_data::Dataset;
use fairhms_service::{Catalog, Query, QueryEngine, ServeOptions, Server};

struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: BufWriter::new(stream),
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").unwrap();
        self.writer.flush().unwrap();
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        line.trim().to_string()
    }

    /// The connection is alive and in sync: a PING answers pong.
    fn assert_in_sync(&mut self) {
        self.send("PING");
        assert_eq!(self.recv(), "OK pong", "connection desynchronized");
    }
}

fn spawn_server() -> Server {
    let catalog = Arc::new(Catalog::new());
    let data = Dataset::new(
        "toy",
        2,
        vec![1.0, 0.1, 0.2, 0.9, 0.7, 0.7, 0.9, 0.3],
        vec![0, 1, 0, 1],
        vec![],
    )
    .unwrap();
    catalog.insert_dataset(data).unwrap();
    let engine = Arc::new(QueryEngine::new(catalog, 64));
    Server::spawn(
        engine,
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            ..ServeOptions::default()
        },
    )
    .unwrap()
}

#[test]
fn retired_shards_verb_errs_without_desync() {
    let server = spawn_server();
    let mut c = Client::connect(server.addr());

    // Preparation has one path now, so SHARDS is an unknown verb: one
    // ERR line each, on a connection that stays usable.
    for retired in ["SHARDS", "SHARDS 4", "SHARDS 0"] {
        c.send(retired);
        let resp = c.recv();
        assert!(
            resp.starts_with("ERR ") && resp.contains("unknown verb"),
            "{retired:?} answered {resp:?}"
        );
        c.assert_in_sync();
    }

    // INFO answers in sync after the retired verb.
    c.send("INFO");
    let info = c.recv();
    assert!(info.starts_with("OK workers="), "got {info:?}");
    c.assert_in_sync();
    server.shutdown();
}

#[test]
fn oversized_batch_count_errs_without_desync() {
    let server = spawn_server();
    let mut c = Client::connect(server.addr());

    // PROTOCOL.md: BATCH n with n > 100 000 is refused with an ERR line;
    // nothing is consumed, the connection stays open.
    c.send("BATCH 100001");
    let resp = c.recv();
    assert!(
        resp.starts_with("ERR protocol error: batch size"),
        "got {resp:?}"
    );
    c.assert_in_sync();

    // A malformed line inside a smaller batch fails the whole batch with
    // one ERR after consuming all n lines — the valid tail line is NOT
    // executed as a top-level request.
    c.send("BATCH 2");
    c.send("NOT-A-QUERY");
    c.send("QUERY dataset=toy k=2");
    let resp = c.recv();
    assert!(resp.starts_with("ERR protocol error:"), "got {resp:?}");
    c.assert_in_sync();
    server.shutdown();
}

/// Satellite regression (ISSUE 4): the client-side serializers must
/// *error* on wire-unsafe field values — a value containing spaces or
/// newlines would tokenize into extra fields or extra request lines and
/// silently desynchronize every later response on the connection.
#[test]
fn wire_unsafe_query_values_error_instead_of_desyncing() {
    use fairhms_service::protocol::{format_response, query_to_wire};
    use fairhms_service::{Answer, QueryResponse, ServiceError};

    // Crafted alg: would inject a `cached=true` field into the line.
    let mut q = Query::new("toy", 2);
    q.alg = "bigreedy cached=true".into();
    assert!(matches!(
        query_to_wire(&q),
        Err(ServiceError::Protocol(m)) if m.contains("wire-safe")
    ));

    // Crafted dataset: a newline would smuggle a whole second request.
    let mut q = Query::new("toy\nSHUTDOWN", 2);
    q.alg = "bigreedy".into();
    assert!(matches!(
        query_to_wire(&q),
        Err(ServiceError::Protocol(m)) if m.contains("wire-safe")
    ));

    // Same seam on the response side: a crafted display name must not
    // produce a line that parses as several fields.
    let resp = QueryResponse {
        answer: Arc::new(Answer {
            indices: vec![0],
            mhr: None,
            violations: 0,
            alg: "Bi Greedy\nERR injected".into(),
            solve_micros: 1,
        }),
        cached: false,
        micros: 1,
        stages: None,
    };
    assert!(matches!(
        format_response(&resp),
        Err(ServiceError::Protocol(m)) if m.contains("wire-safe")
    ));

    // Ordinary values still serialize byte-identically to v1.
    let mut ok = Query::new("toy", 2);
    ok.alg = "bigreedy+".into();
    assert_eq!(
        query_to_wire(&ok).unwrap(),
        "QUERY dataset=toy k=2 alg=bigreedy+ alpha=0.1 balanced=false seed=42 skyline=true"
    );
}

#[test]
fn oversized_request_line_drops_the_connection() {
    let server = spawn_server();
    let mut c = Client::connect(server.addr());

    // PROTOCOL.md: a request line longer than 1 MiB is connection-fatal.
    let huge = "QUERY dataset=toy k=2 ".to_string() + &"x".repeat(2 << 20);
    c.send(&huge);
    // A dropped connection surfaces as clean EOF or as a reset error
    // (the server closes with our unread bytes still in its buffer).
    let mut line = String::new();
    match c.reader.read_line(&mut line) {
        Ok(n) => assert_eq!(
            n, 0,
            "server answered an oversized line instead of dropping"
        ),
        Err(e) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::BrokenPipe
            ),
            "unexpected error {e:?}"
        ),
    }

    // The server itself is unaffected: a fresh connection works.
    let mut fresh = Client::connect(server.addr());
    fresh.assert_in_sync();
    fresh.send(
        &fairhms_service::protocol::query_to_wire(&Query::new("toy", 2)).expect("wire-safe query"),
    );
    let resp = fresh.recv();
    assert!(resp.starts_with("OK alg="), "got {resp:?}");
    server.shutdown();
}

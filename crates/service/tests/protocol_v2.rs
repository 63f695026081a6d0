//! Protocol-v2 integration suite: the `HELLO` codec handshake, text/binary
//! codec equivalence (bit-identical answers for every registered
//! algorithm, buffered and streamed), streamed batch delivery and its
//! `ERR busy` backpressure gate, and the `LOAD` admin verb's allowlist.
//!
//! Everything here runs against a real TCP server; the v1 behaviors these
//! features must not disturb are pinned separately (and unchanged) in
//! `protocol_regress.rs`.

use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use fairhms_core::registry::ALGORITHMS;
use fairhms_data::{gen, Dataset};
use fairhms_service::codec::{decode_binary_payload, BinaryCodec, Codec, CodecKind, TextCodec};
use fairhms_service::protocol::{
    decode_response_line, encode_response_line, parse_response, Response, WireAnswer,
};
use fairhms_service::{
    Catalog, Query, QueryEngine, ServeOptions, Server, ServerConfig, ServiceError, WireClient,
};

fn generated(name: &str, n: usize, d: usize, c: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let points = gen::anti_correlated(n, d, &mut rng);
    let groups = gen::groups_by_sum(&points, d, c);
    Dataset::new(
        name,
        d,
        points,
        groups,
        (0..c).map(|g| format!("g{g}")).collect(),
    )
    .unwrap()
}

/// A 2-dimensional dataset so even `intcov` (exact, 2D-only) runs.
fn spawn_server(opts: ServeOptions) -> Server {
    let catalog = Arc::new(Catalog::new());
    catalog
        .insert_dataset(generated("demo", 120, 2, 3, 11))
        .unwrap();
    let engine = Arc::new(QueryEngine::new(catalog, 4096));
    Server::spawn_with(
        engine,
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
        },
        opts,
    )
    .unwrap()
}

fn mixed_queries() -> Vec<Query> {
    let mut qs = Vec::new();
    for k in [2usize, 3, 4] {
        for alg in ["intcov", "bigreedy", "f-greedy", "streaming"] {
            let mut q = Query::new("demo", k);
            q.alg = alg.to_string();
            q.alpha = 0.25;
            qs.push(q);
        }
    }
    // a duplicate (guaranteed cache interaction) and a failing slot
    qs.push(qs[0].clone());
    qs.push(Query::new("absent", 3));
    qs
}

fn assert_same_payload(a: &WireAnswer, b: &WireAnswer, ctx: &str) {
    assert_eq!(a.indices, b.indices, "{ctx}: indices diverged");
    assert_eq!(
        a.mhr.map(f64::to_bits),
        b.mhr.map(f64::to_bits),
        "{ctx}: mhr bits diverged"
    );
    assert_eq!(a.alg, b.alg, "{ctx}: algorithm diverged");
    assert_eq!(a.violations, b.violations, "{ctx}: violations diverged");
}

// ---------------------------------------------------------------------
// Handshake + interop
// ---------------------------------------------------------------------

#[test]
fn hello_negotiates_binary_and_v1_clients_interop_unchanged() {
    let server = spawn_server(ServeOptions::default());
    let addr = server.addr();

    // A v2 binary client and a plain v1 text client (no HELLO) share the
    // server concurrently.
    let mut binary = WireClient::negotiate(addr, CodecKind::Binary).unwrap();
    assert_eq!(binary.codec_kind(), CodecKind::Binary);
    let mut v1 = WireClient::connect(addr).unwrap();
    assert_eq!(v1.codec_kind(), CodecKind::Text);

    // Same stateless verbs answer identically (typed) on both.
    for verb in ["PING", "LIST", "ALGS", "INFO"] {
        binary.send_line(verb).unwrap();
        v1.send_line(verb).unwrap();
        let b = binary.recv().unwrap();
        let t = v1.recv().unwrap();
        assert_eq!(b, t, "verb {verb} diverged across codecs");
    }

    // The same query answers bit-identically across codecs (cached flag
    // and micros legitimately differ between executions).
    let mut q = Query::new("demo", 3);
    q.alg = "intcov".into();
    let from_binary = binary.query(&q).unwrap();
    let from_v1 = v1.query(&q).unwrap();
    assert_same_payload(&from_binary, &from_v1, "binary vs v1 text");

    // An in-protocol error on the binary channel is a typed frame and
    // does not desynchronize the connection.
    binary.send_line("FROB").unwrap();
    match binary.recv().unwrap() {
        Response::Error { seq: None, message } => {
            assert!(message.contains("unknown verb"), "{message}")
        }
        other => panic!("expected error frame, got {other:?}"),
    }
    binary.send_line("PING").unwrap();
    assert_eq!(binary.recv().unwrap(), Response::Pong);

    // Re-negotiating back to text mid-connection also works (the ack is
    // sent in the previous codec).
    binary.send_line("HELLO version=2 codec=text").unwrap();
    match binary.recv().unwrap() {
        Response::Hello {
            version: 2,
            codec: CodecKind::Text,
        } => {}
        other => panic!("unexpected ack {other:?}"),
    }
    // (This client object still decodes binary; drop it rather than track
    // the swap — the server side is what the assertion above pinned.)
    drop(binary);

    // An unsupported HELLO is an ERR on a connection that stays usable.
    v1.send_line("HELLO version=3 codec=binary").unwrap();
    match v1.recv().unwrap() {
        Response::Error { message, .. } => {
            assert!(
                message.contains("unsupported protocol version"),
                "{message}"
            )
        }
        other => panic!("expected error, got {other:?}"),
    }
    v1.send_line("PING").unwrap();
    assert_eq!(v1.recv().unwrap(), Response::Pong);

    server.shutdown();
}

// ---------------------------------------------------------------------
// Codec equivalence
// ---------------------------------------------------------------------

/// Acceptance pin: for EVERY registered algorithm, answers served over
/// the binary codec are bit-identical (indices, violations, mhr bits) to
/// text-codec answers for the same queries — including streamed vs
/// buffered delivery (all four combinations meet in one matrix).
#[test]
fn every_algorithm_bit_identical_across_codecs_and_deliveries() {
    let server = spawn_server(ServeOptions::default());
    let addr = server.addr();

    let mut queries = Vec::new();
    for alg in ALGORITHMS.iter().map(|a| a.key) {
        for (k, balanced, seed) in [(3usize, false, 42u64), (4, true, 7)] {
            let mut q = Query::new("demo", k);
            q.alg = alg.to_string();
            q.balanced = balanced;
            q.seed = seed;
            queries.push(q);
        }
    }

    // Reference: buffered batch over a v1 text connection.
    let mut text = WireClient::connect(addr).unwrap();
    let reference = text.batch(&queries, false).unwrap();
    assert!(
        reference.iter().any(|r| r.is_ok()),
        "no algorithm produced an answer"
    );

    for (kind, stream) in [
        (CodecKind::Text, true),
        (CodecKind::Binary, false),
        (CodecKind::Binary, true),
    ] {
        let mut client = match kind {
            CodecKind::Text => WireClient::connect(addr).unwrap(),
            CodecKind::Binary => WireClient::negotiate(addr, kind).unwrap(),
        };
        let got = client.batch(&queries, stream).unwrap();
        assert_eq!(got.len(), reference.len());
        for (i, (g, r)) in got.iter().zip(&reference).enumerate() {
            let ctx = format!(
                "query {i} ({} k={}) via {kind} stream={stream}",
                queries[i].alg, queries[i].k
            );
            match (g, r) {
                (Ok(g), Ok(r)) => assert_same_payload(g, r, &ctx),
                // An algorithm that rejects the instance must reject it
                // with the identical message under every codec/delivery.
                (Err(ge), Err(re)) => assert_eq!(ge, re, "{ctx}: errors diverged"),
                (g, r) => panic!("{ctx}: one path failed, the other did not: {g:?} vs {r:?}"),
            }
        }
    }
    server.shutdown();
}

fn arb_answer() -> impl Strategy<Value = WireAnswer> {
    (
        0usize..6,
        0usize..2,
        0u64..1 << 40,
        0usize..4,
        0usize..5,
        proptest::collection::vec(0usize..200_000, 0..40),
    )
        .prop_map(|(alg, cached, micros, violations, mhr_kind, indices)| {
            let alg = [
                "BiGreedy",
                "IntCov",
                "F-Greedy",
                "G-DMM",
                "Streaming",
                "RDP-Greedy",
            ][alg];
            let mhr = match mhr_kind {
                0 => None,
                1 => Some(0.1 + 0.2),         // messy trailing digits
                2 => Some(f64::MIN_POSITIVE), // subnormal-adjacent
                3 => Some(1.0 - f64::EPSILON),
                _ => Some((micros as f64) / (1u64 << 40) as f64),
            };
            let mut indices = indices;
            indices.sort_unstable();
            indices.dedup();
            WireAnswer {
                alg: alg.to_string(),
                cached: cached == 1,
                micros,
                violations,
                mhr,
                indices,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Satellite pin: every answer-shaped `Response` round-trips through
    /// BOTH codecs, the two decodes agree with each other and with the
    /// original (`mhr` compared via `to_bits`), and the `seq=None` text
    /// rendering is accepted by the legacy v1 `parse_response` decoder
    /// with an identical payload.
    #[test]
    fn codec_equivalence_round_trip(ans in arb_answer(), seq_kind in 0usize..3) {
        let seq = match seq_kind {
            0 => None,
            1 => Some(0u64),
            _ => Some(99_999),
        };
        let resp = Response::Answer { seq, answer: ans.clone() };

        // Text round trip.
        let line = encode_response_line(&resp).unwrap();
        let via_text = decode_response_line(&line).unwrap();
        prop_assert_eq!(&via_text, &resp);

        // Binary round trip (through real frames).
        let mut frame = Vec::new();
        BinaryCodec.encode_frame(&resp, &mut frame).unwrap();
        let mut cursor = std::io::Cursor::new(frame);
        let via_binary = BinaryCodec.read_frame(&mut cursor).unwrap().unwrap();
        prop_assert_eq!(&via_binary, &resp);

        // Cross-codec agreement, mhr explicitly by bits.
        let (Response::Answer { answer: t, .. }, Response::Answer { answer: b, .. }) =
            (&via_text, &via_binary)
        else {
            panic!("decoded to a non-answer variant");
        };
        prop_assert_eq!(t.mhr.map(f64::to_bits), b.mhr.map(f64::to_bits));
        prop_assert_eq!(&t.indices, &b.indices);

        // v1 compatibility: unstreamed answers decode via the legacy path.
        if seq.is_none() {
            prop_assert_eq!(parse_response(&line).unwrap(), ans);
        }
    }

    /// Error frames equivalently round-trip both codecs too (they share
    /// the streamed-batch channel with answers).
    #[test]
    fn error_frames_round_trip_both_codecs(code in 0usize..4, seq_kind in 0usize..2) {
        let e = match code {
            0 => ServiceError::UnknownDataset { name: "x".into() },
            1 => ServiceError::Protocol("unknown verb \"FROB\"".into()),
            2 => ServiceError::Busy {
                reason: "8 streamed batches in flight (limit 8)".into(),
                retry_after_ms: 24,
            },
            _ => ServiceError::Dataset("dataset has no rows".into()),
        };
        let seq = (seq_kind == 1).then_some(3u64);
        let resp = Response::error_at(seq, &e);

        let line = encode_response_line(&resp).unwrap();
        prop_assert_eq!(&decode_response_line(&line).unwrap(), &resp);

        let mut frame = Vec::new();
        BinaryCodec.encode_frame(&resp, &mut frame).unwrap();
        let mut cursor = std::io::Cursor::new(frame);
        prop_assert_eq!(&BinaryCodec.read_frame(&mut cursor).unwrap().unwrap(), &resp);
    }
}

/// One value of every `Response` variant (both shapes of the optional
/// `seq=` and `stream=` tokens included).
fn all_response_variants() -> Vec<Response> {
    let answer = WireAnswer {
        alg: "BiGreedy".into(),
        cached: false,
        micros: 812,
        violations: 0,
        mhr: Some(0.1 + 0.2),
        indices: vec![3, 17, 40],
    };
    vec![
        Response::Pong,
        Response::Bye,
        Response::Hello {
            version: 2,
            codec: CodecKind::Binary,
        },
        Response::Datasets(vec!["demo:120:2:3:21".into()]),
        Response::Algorithms(ALGORITHMS.iter().map(|a| a.key.to_string()).collect()),
        Response::Stats {
            hits: 2,
            misses: 1,
            entries: 1,
            evictions: 0,
            hit_rate: 2.0 / 3.0,
            warm_hits: 4,
            warm_misses: 2,
            warm_entries: 1,
            uptime_secs: 77,
            total_queries: 31,
            queue_depth: 3,
            shed_total: 9,
            conns_open: 2,
            mutations_total: 6,
        },
        Response::Info {
            workers: 4,
            datasets: 1,
            cache_entries: 0,
            uptime_secs: 5,
            total_queries: 2,
        },
        Response::Metrics {
            enabled: true,
            counters: vec![("queries.total".into(), 31), ("conn.active".into(), 1)],
            histograms: vec![fairhms_service::protocol::WireHistogram {
                name: "engine.cache_lookup".into(),
                count: 31,
                sum: 12_400,
                p50: 330,
                p90: 610,
                p99: 900,
                max: 1_024,
            }],
        },
        Response::BatchHeader {
            n: 14,
            stream: true,
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
            cache_dropped: 2,
            warm_dropped: 1,
        },
        Response::BatchHeader {
            n: 2,
            stream: false,
        },
        Response::Answer {
            seq: None,
            answer: answer.clone(),
        },
        Response::Answer {
            seq: Some(5),
            answer: WireAnswer {
                mhr: None,
                indices: vec![],
                ..answer
            },
        },
        Response::Busy {
            seq: Some(1),
            retry_after_ms: 24,
            message: "solve queue full".into(),
        },
        Response::Error {
            seq: None,
            message: "unknown dataset x".into(),
        },
    ]
}

/// Every variant equivalently crosses both codecs (TextCodec is the v1
/// renderer, so this also pins the v1 lines).
#[test]
fn all_response_variants_agree_across_codecs() {
    for resp in all_response_variants() {
        let mut text_frame = Vec::new();
        TextCodec.encode_frame(&resp, &mut text_frame).unwrap();
        let mut binary_frame = Vec::new();
        BinaryCodec.encode_frame(&resp, &mut binary_frame).unwrap();
        let mut tc = std::io::Cursor::new(text_frame);
        let mut bc = std::io::Cursor::new(binary_frame);
        let t = TextCodec.read_frame(&mut tc).unwrap().unwrap();
        let b = BinaryCodec.read_frame(&mut bc).unwrap().unwrap();
        assert_eq!(t, resp);
        assert_eq!(b, resp);
    }
}

/// The text line and the binary frame (hex) of each
/// [`all_response_variants`] value, in order, recorded from the
/// hand-written encoders before the response schema replaced them. A
/// field that an encoder and its decoder reorder together passes every
/// round trip and cross-codec test; it fails here.
const VARIANT_BYTES: [(&str, &str); 16] = [
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
    "OK datasets=demo:120:2:3:21",
    "1200000003010f64656d6f3a3132303a323a333a3231",
),
(
    "OK algorithms=intcov,bigreedy,bigreedy+,f-greedy,g-greedy,g-dmm,g-hs,g-sphere,streaming,greedy,dmm,hs,sphere",
    "61000000040d06696e74636f760862696772656564790962696772656564792b08662d67726565647908672d67726565647905672d646d6d04672d687308672d7370686572650973747265616d696e670667726565647903646d6d02687306737068657265",
),
(
    "OK hits=2 misses=1 entries=1 evictions=0 hit_rate=0.6666666666666666 warm_hits=4 warm_misses=2 warm_entries=1 uptime_secs=77 total_queries=31 queue_depth=3 shed_total=9 conns_open=2 mutations_total=6",
    "160000000502010100555555555555e53f0402014d1f03090206",
),
(
    "OK workers=4 datasets=1 cache_entries=0 uptime_secs=5 total_queries=2",
    "06000000060401000502",
),
(
    "OK metrics enabled=true counters=queries.total:31,conn.active:1 histos=engine.cache_lookup:31:12400:330:610:900:1024",
    "3f0000000d01020d717565726965732e746f74616c1f0b636f6e6e2e616374697665010113656e67696e652e63616368655f6c6f6f6b75701ff060ca02e20484078008",
),
(
    "OK batch=14 stream=true",
    "03000000090e01",
),
(
    "OK loaded name=extra n=2000 d=3 groups=3 skyline=940",
    "0d0000000a056578747261d00f0303ac07",
),
(
    "OK mutated name=extra op=append n=2001 skyline=941 sky_changed=true cache_dropped=2 warm_dropped=1",
    "150000000f05657874726106617070656e64d10fad07010201",
),
(
    "OK batch=2",
    "03000000090200",
),
(
    "OK alg=BiGreedy cached=false micros=812 err=0 mhr=0.30000000000000004 indices=3,17,40",
    "1c000000080008426947726565647900ac060001343333333333d33f03031128",
),
(
    "OK seq=5 alg=BiGreedy cached=false micros=812 err=0 mhr=none indices=",
    "1200000008010508426947726565647900ac06000000",
),
(
    "ERR seq=1 busy retry_after_ms=24 solve queue full",
    "150000000e01011810736f6c76652071756575652066756c6c",
),
(
    "ERR unknown dataset x",
    "140000000c0011756e6b6e6f776e20646174617365742078",
),
];

#[test]
fn all_response_variants_encode_to_pinned_bytes() {
    let variants = all_response_variants();
    assert_eq!(variants.len(), VARIANT_BYTES.len());
    for (resp, (line, frame_hex)) in variants.iter().zip(VARIANT_BYTES) {
        let mut text = Vec::new();
        TextCodec.encode_frame(resp, &mut text).unwrap();
        assert_eq!(text, format!("{line}\n").into_bytes(), "{resp:?}");
        let mut frame = Vec::new();
        BinaryCodec.encode_frame(resp, &mut frame).unwrap();
        let hex: String = frame.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, frame_hex, "{resp:?}");
    }
}

/// Every fixed-shape frame has exactly one layout: a truncated frame is a
/// protocol error in both codecs, never a frame with defaulted fields.
#[test]
fn every_truncated_frame_is_a_protocol_error() {
    for resp in all_response_variants() {
        let mut frame = Vec::new();
        BinaryCodec.encode_frame(&resp, &mut frame).unwrap();
        let payload = &frame[4..];
        for cut in 0..payload.len() {
            assert!(
                matches!(
                    decode_binary_payload(&payload[..cut]),
                    Err(ServiceError::Protocol(_))
                ),
                "{resp:?}: binary payload cut to {cut} of {} bytes decoded",
                payload.len()
            );
        }

        let line = encode_response_line(&resp).unwrap();
        if line.starts_with("ERR ") {
            continue; // free text: any prefix is a message
        }
        let tokens: Vec<&str> = line.split(' ').collect();
        for drop in 0..tokens.len() {
            let mut rest = tokens.clone();
            let dropped = rest.remove(drop);
            let got = decode_response_line(&rest.join(" "));
            // The only optional tokens: `stream=true` (the encoder writes
            // it only when set) and an answer's streamed `seq=` tag.
            // Without them the line is the other, still complete, shape.
            match (&resp, dropped) {
                (Response::BatchHeader { n, .. }, "stream=true") => assert_eq!(
                    got.unwrap(),
                    Response::BatchHeader {
                        n: *n,
                        stream: false
                    }
                ),
                (Response::Answer { answer, .. }, seq) if seq.starts_with("seq=") => assert_eq!(
                    got.unwrap(),
                    Response::Answer {
                        seq: None,
                        answer: answer.clone()
                    }
                ),
                _ => assert!(
                    matches!(got, Err(ServiceError::Protocol(_))),
                    "{line:?} without {dropped:?} decoded: {got:?}"
                ),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Streaming batches
// ---------------------------------------------------------------------

/// Satellite pin: all `n` seq-tagged answers arrive (each seq exactly
/// once), reassembly equals the buffered batch output bit-for-bit, and
/// per-query failures are seq-tagged `ERR` frames — under both codecs.
#[test]
fn streamed_batches_reassemble_to_buffered_output() {
    let server = spawn_server(ServeOptions::default());
    let addr = server.addr();
    let queries = mixed_queries();

    // Buffered reference over a separate connection.
    let mut reference_client = WireClient::connect(addr).unwrap();
    let reference = reference_client.batch(&queries, false).unwrap();

    for kind in [CodecKind::Text, CodecKind::Binary] {
        let mut client = match kind {
            CodecKind::Text => WireClient::connect(addr).unwrap(),
            CodecKind::Binary => WireClient::negotiate(addr, kind).unwrap(),
        };
        let header = client.send_batch(&queries, true).unwrap();
        assert_eq!(
            header,
            Response::BatchHeader {
                n: queries.len(),
                stream: true
            },
            "{kind}: header must advertise streaming"
        );
        let mut slots: Vec<Option<Result<WireAnswer, String>>> = vec![None; queries.len()];
        for frame in 0..queries.len() {
            let (seq, res) = match client.recv().unwrap() {
                Response::Answer { seq, answer } => (seq, Ok(answer)),
                Response::Error { seq, message } => (seq, Err(message)),
                other => panic!("{kind}: unexpected frame {frame}: {other:?}"),
            };
            let seq = seq.unwrap_or_else(|| panic!("{kind}: frame {frame} missing seq")) as usize;
            assert!(seq < queries.len(), "{kind}: seq {seq} out of range");
            assert!(slots[seq].is_none(), "{kind}: seq {seq} delivered twice");
            slots[seq] = Some(res);
        }
        // Connection stays in sync after the stream.
        client.send_line("PING").unwrap();
        assert_eq!(client.recv().unwrap(), Response::Pong);

        for (i, (slot, r)) in slots.into_iter().zip(&reference).enumerate() {
            let ctx = format!("{kind}: query {i}");
            match (slot.expect("all seqs delivered"), r) {
                (Ok(g), Ok(r)) => assert_same_payload(&g, r, &ctx),
                // Buffered batch errors decode to `Protocol(wire message)`
                // in the client; streamed frames carry the raw message.
                (Err(msg), Err(ServiceError::Protocol(m))) => assert_eq!(&msg, m, "{ctx}"),
                (g, r) => panic!("{ctx}: streamed {g:?} vs buffered {r:?}"),
            }
        }
    }
    server.shutdown();
}

/// Satellite pin: the stream gate sheds load with `ERR busy` — the batch
/// lines are consumed first, so shedding never desynchronizes the
/// connection. (`max_stream_batches: 0` makes the shed deterministic;
/// the gate's counting semantics are unit-tested in `server.rs`.)
#[test]
fn streamed_batch_beyond_gate_answers_busy_without_desync() {
    let server = spawn_server(ServeOptions {
        max_stream_batches: 0,
        ..ServeOptions::default()
    });
    let mut client = WireClient::connect(server.addr()).unwrap();

    let queries = vec![Query::new("demo", 3), Query::new("demo", 4)];
    match client.send_batch(&queries, true).unwrap() {
        Response::Busy {
            seq: None,
            retry_after_ms,
            message,
        } => {
            assert!(retry_after_ms >= 1, "retry advice must be actionable");
            assert!(
                message.contains("streamed batches in flight (limit 0)"),
                "expected a stream-gate shed, got {message:?}"
            );
        }
        other => panic!("expected busy, got {other:?}"),
    }
    // The two batch lines were consumed: next request answers normally.
    client.send_line("PING").unwrap();
    assert_eq!(client.recv().unwrap(), Response::Pong);

    // Buffered batches are not gated.
    let buffered = client.batch(&queries, false).unwrap();
    assert!(buffered.iter().all(|r| r.is_ok()));
    server.shutdown();
}

// ---------------------------------------------------------------------
// LOAD admin verb
// ---------------------------------------------------------------------

fn write_csv(path: &PathBuf) {
    // 3 columns + group label; enough rows for small k.
    let mut s = String::new();
    for i in 0..40 {
        let x = (i as f64) / 40.0;
        s.push_str(&format!(
            "{},{},{},g{}\n",
            x,
            1.0 - x,
            (x * 7.0).sin().abs(),
            i % 2
        ));
    }
    std::fs::write(path, s).unwrap();
}

#[test]
fn load_registers_csv_from_allowlist_and_refuses_escapes() {
    let root = std::env::temp_dir().join("fairhms_protocol_v2_load");
    std::fs::create_dir_all(root.join("sub")).unwrap();
    write_csv(&root.join("extra.csv"));
    write_csv(&root.join("sub/nested.csv"));
    let outside = std::env::temp_dir().join("fairhms_protocol_v2_outside.csv");
    write_csv(&outside);

    for kind in [CodecKind::Text, CodecKind::Binary] {
        let server = spawn_server(ServeOptions {
            load_root: Some(root.clone()),
            ..ServeOptions::default()
        });
        let mut client = WireClient::negotiate(server.addr(), kind).unwrap();

        // A successful LOAD reports the dataset shape and makes it queryable.
        client.send_line("LOAD name=extra path=extra.csv").unwrap();
        match client.recv().unwrap() {
            Response::Loaded {
                name,
                rows,
                dim,
                groups,
                ..
            } => {
                assert_eq!((name.as_str(), rows, dim, groups), ("extra", 40, 3, 2));
            }
            other => panic!("expected Loaded, got {other:?}"),
        }
        let ans = client.query(&Query::new("extra", 3)).unwrap();
        assert_eq!(ans.indices.len(), 3);
        client.send_line("LIST").unwrap();
        match client.recv().unwrap() {
            Response::Datasets(summaries) => {
                assert!(summaries.iter().any(|s| s.starts_with("extra:40:3:2:")));
            }
            other => panic!("{other:?}"),
        }
        // Nested relative paths under the root are fine.
        client
            .send_line("LOAD name=nested path=sub/nested.csv")
            .unwrap();
        assert!(matches!(client.recv().unwrap(), Response::Loaded { .. }));

        // Refusals: traversal, absolute path, missing file, bad name — each a
        // typed ERR on a connection that stays in sync.
        for bad in [
            "LOAD name=evil path=../fairhms_protocol_v2_outside.csv".to_string(),
            format!("LOAD name=evil path={}", outside.display()),
            "LOAD name=evil path=sub/../../fairhms_protocol_v2_outside.csv".to_string(),
            "LOAD name=evil path=missing.csv".to_string(),
            "LOAD name=bad,name path=extra.csv".to_string(), // wire-unsafe catalog key
        ] {
            client.send_line(&bad).unwrap();
            match client.recv().unwrap() {
                Response::Error { message, .. } => {
                    assert!(!message.is_empty(), "{bad}: empty error message");
                }
                other => panic!("{bad}: expected ERR, got {other:?}"),
            }
            client.send_line("PING").unwrap();
            assert_eq!(client.recv().unwrap(), Response::Pong, "{bad}: desync");
        }
        // The refused names never entered the catalog.
        client.send_line("LIST").unwrap();
        match client.recv().unwrap() {
            Response::Datasets(summaries) => {
                assert!(!summaries.iter().any(|s| s.starts_with("evil")));
            }
            other => panic!("{other:?}"),
        }
        server.shutdown();
    }
}

#[test]
fn load_is_disabled_without_load_root() {
    for kind in [CodecKind::Text, CodecKind::Binary] {
        let server = spawn_server(ServeOptions::default());
        let mut client = WireClient::negotiate(server.addr(), kind).unwrap();
        client.send_line("LOAD name=x path=x.csv").unwrap();
        match client.recv().unwrap() {
            Response::Error { message, .. } => {
                assert!(message.contains("LOAD disabled"), "{message}");
            }
            other => panic!("expected ERR, got {other:?}"),
        }
        client.send_line("PING").unwrap();
        assert_eq!(client.recv().unwrap(), Response::Pong);
        server.shutdown();
    }
}

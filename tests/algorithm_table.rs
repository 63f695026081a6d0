//! Pins the algorithm registry's observable surface literally: the `ALGS`
//! reply, the unknown-algorithm message, every algorithm's paper display
//! name and fairness flag, and the spellings each one answers to.
//!
//! Every expected value below is written out by hand rather than read
//! from the registry, so a change to the registry's declarations that
//! moves any of them fails here.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use fairhms::core::registry;
use fairhms::core::types::CoreError;
use fairhms::data::Dataset;
use fairhms::service::{Catalog, QueryEngine, ServeOptions, Server};

/// `(canonical key, paper display name, is_fair, extra spellings)`, in
/// registry order.
const TABLE: [(&str, &str, bool, &[&str]); 13] = [
    ("intcov", "IntCov", true, &[]),
    ("bigreedy", "BiGreedy", true, &[]),
    ("bigreedy+", "BiGreedy+", true, &["bigreedyplus"]),
    ("f-greedy", "F-Greedy", true, &["fgreedy"]),
    ("g-greedy", "G-Greedy", true, &["ggreedy"]),
    ("g-dmm", "G-DMM", true, &["gdmm"]),
    ("g-hs", "G-HS", true, &["ghs"]),
    ("g-sphere", "G-Sphere", true, &["gsphere"]),
    ("streaming", "Streaming", true, &[]),
    ("greedy", "Greedy", false, &["rdp-greedy"]),
    ("dmm", "DMM", false, &[]),
    ("hs", "HS", false, &[]),
    ("sphere", "Sphere", false, &[]),
];

const ALGS_LINE: &str = "OK algorithms=intcov,bigreedy,bigreedy+,f-greedy,g-greedy,g-dmm,g-hs,\
g-sphere,streaming,greedy,dmm,hs,sphere";

const UNKNOWN_MESSAGE: &str = "unknown algorithm \"quantum\" (expected one of: intcov, bigreedy, \
bigreedy+, f-greedy, g-greedy, g-dmm, g-hs, g-sphere, streaming, greedy, dmm, hs, sphere)";

/// `(canonical key, display name, is_fair)` of the algorithm `spelling`
/// resolves to, or `None` when it resolves to none.
fn resolve(spelling: &str) -> Option<(String, String, bool)> {
    let alg = registry::by_name(spelling).ok()?;
    Some((alg.key.to_string(), alg.name.to_string(), alg.is_fair))
}

/// `s` in lower case, upper case and alternating case.
fn casings(s: &str) -> [String; 3] {
    let alternating = s
        .chars()
        .enumerate()
        .map(|(i, c)| {
            if i % 2 == 0 {
                c.to_ascii_uppercase()
            } else {
                c.to_ascii_lowercase()
            }
        })
        .collect();
    [s.to_ascii_lowercase(), s.to_ascii_uppercase(), alternating]
}

#[test]
fn every_spelling_resolves_to_its_one_algorithm() {
    for (key, display, fair, extra) in TABLE {
        let expected = Some((key.to_string(), display.to_string(), fair));
        for spelling in [key, display].iter().chain(extra) {
            for s in casings(spelling) {
                assert_eq!(resolve(&s), expected, "spelling {s:?}");
            }
        }
    }
    // Display names, keys and extra spellings are distinct across rows,
    // so no spelling can name two algorithms.
    let mut all: Vec<String> = TABLE
        .iter()
        .flat_map(|(key, display, _, extra)| {
            let mut own = vec![key.to_string(), display.to_ascii_lowercase()];
            own.extend(extra.iter().map(|s| s.to_string()));
            own.sort();
            own.dedup();
            own
        })
        .collect();
    let n = all.len();
    all.sort();
    all.dedup();
    assert_eq!(all.len(), n, "a spelling names two algorithms");
    for s in [
        "",
        "quantum",
        "bigreedy++",
        "g_dmm",
        "g dmm",
        " bigreedy",
        "rdp",
    ] {
        assert_eq!(resolve(s), None, "{s:?} resolved");
    }
}

#[test]
fn unknown_algorithm_message_lists_every_key() {
    let err = CoreError::UnknownAlgorithm {
        name: "quantum".into(),
    };
    assert_eq!(err.to_string(), UNKNOWN_MESSAGE);
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
            workers: 1,
            ..ServeOptions::default()
        },
    )
    .unwrap()
}

/// Sends each line and returns the one-line answers, in order.
fn exchange(server: &Server, lines: &[&str]) -> Vec<String> {
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    lines
        .iter()
        .map(|line| {
            writeln!(writer, "{line}").unwrap();
            let mut answer = String::new();
            reader.read_line(&mut answer).unwrap();
            answer.trim_end().to_string()
        })
        .collect()
}

#[test]
fn wire_lists_and_rejects_algorithms_literally() {
    let server = spawn_server();
    let answers = exchange(
        &server,
        &[
            "ALGS",
            "QUERY dataset=toy k=2 alg=quantum",
            // The instance is checked before the algorithm name.
            "QUERY dataset=toy k=9 alg=quantum",
        ],
    );
    assert_eq!(answers[0], ALGS_LINE);
    assert_eq!(answers[1], format!("ERR solver error: {UNKNOWN_MESSAGE}"));
    assert_eq!(answers[2], "ERR solver error: k = 9 exceeds dataset size 4");
}

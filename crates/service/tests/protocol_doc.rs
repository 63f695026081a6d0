//! docs/PROTOCOL.md as a checked artifact: every server line its fenced
//! transcripts show (`<< OK …`, `<< ERR …`, `S: OK …`, and the bundled
//! client's `-> OK …` echo) decodes through the text codec and encodes
//! back to the same bytes. A line holding `…` (elided fields) or a
//! `<placeholder>` is a template, not a capture, and is skipped there;
//! every `STATS` line, elided or not, must still show the `hit_rate` its
//! own `hits` and `misses` give, and a `mutations_total` equal to the
//! successful `APPEND`/`DELETE` answers before it in the same block.

use fairhms_service::protocol::{decode_response_line, encode_response_line};
use fairhms_service::CacheStats;

const PROTOCOL_MD: &str = include_str!("../../../docs/PROTOCOL.md");

/// Whether `s` holds a `<placeholder>`: `<`, then letters, digits, `_`,
/// `|`, `,`, `.` or `:` without a space, then `>`.
fn has_placeholder(s: &str) -> bool {
    s.match_indices('<').any(|(i, _)| {
        let rest = &s[i + 1..];
        rest.find('>').is_some_and(|end| {
            end > 0
                && rest[..end]
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_|,.:".contains(c))
        })
    })
}

/// The server line a transcript line shows, if any.
fn server_line(line: &str) -> Option<&str> {
    let trimmed = line.trim_start();
    let wire = if let Some(i) = line.find("<< ") {
        &line[i + 3..]
    } else if let Some(rest) = trimmed.strip_prefix("S: ") {
        rest
    } else {
        trimmed.strip_prefix("-> ")?
    };
    (wire.starts_with("OK ") || wire.starts_with("ERR ")).then_some(wire)
}

/// Every server line inside the document's fenced blocks.
fn transcript_lines() -> Vec<&'static str> {
    let mut lines = Vec::new();
    let mut fenced = false;
    for line in PROTOCOL_MD.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if fenced {
            lines.extend(server_line(line));
        }
    }
    lines
}

#[test]
fn protocol_md_transcripts_replay_through_the_text_codec() {
    let mut checked = 0;
    for wire in transcript_lines() {
        if wire.contains('…') || has_placeholder(wire) {
            continue;
        }
        let resp = decode_response_line(wire)
            .unwrap_or_else(|e| panic!("PROTOCOL.md line {wire:?} does not decode: {e}"));
        let again = encode_response_line(&resp)
            .unwrap_or_else(|e| panic!("PROTOCOL.md line {wire:?} does not re-encode: {e}"));
        assert_eq!(again, wire, "PROTOCOL.md line re-encodes differently");
        checked += 1;
    }
    // The document holds 44 captured lines; far fewer means the
    // extraction above stopped finding them.
    assert!(checked >= 40, "only {checked} transcript lines checked");
}

/// The value of `key=` among `line`'s space-separated fields.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace()
        .find_map(|f| f.strip_prefix(key)?.strip_prefix('='))
}

#[test]
fn protocol_md_stats_lines_show_their_own_hit_rate() {
    let mut checked = 0;
    let mut fenced = false;
    for line in PROTOCOL_MD.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        let Some(rate) = field(line, "hit_rate").filter(|_| fenced) else {
            continue;
        };
        if has_placeholder(rate) {
            continue; // the field table's template line
        }
        let count = |key| {
            field(line, key)
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or_else(|| panic!("PROTOCOL.md STATS line without {key}=: {line:?}"))
        };
        let stats = CacheStats {
            hits: count("hits"),
            misses: count("misses"),
            entries: 0,
            evictions: 0,
        };
        // The text codec prints an f64 through `Display`.
        assert_eq!(
            rate,
            stats.hit_rate().to_string(),
            "PROTOCOL.md STATS line shows a hit_rate its counters do not give: {line:?}"
        );
        checked += 1;
    }
    // Seven STATS lines are captured: three of them are the bundled
    // client's `server OK …` echo, and five are elided with `…`.
    assert!(checked >= 7, "only {checked} STATS lines checked");
}

#[test]
fn protocol_md_stats_lines_count_the_mutations_before_them() {
    let mut checked = 0;
    let mut fenced = false;
    let mut mutations = 0u64; // successful APPEND/DELETE so far in the block
    for line in PROTOCOL_MD.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            mutations = 0;
            continue;
        }
        let Some(wire) = server_line(line).filter(|_| fenced) else {
            continue;
        };
        if has_placeholder(wire) {
            continue; // the response templates
        }
        if wire.starts_with("OK mutated ") {
            mutations += 1;
        }
        if let Some(total) = field(wire, "mutations_total") {
            assert_eq!(
                total,
                mutations.to_string(),
                "PROTOCOL.md STATS line shows a mutations_total its block's \
                 APPEND/DELETE answers do not give: {line:?}"
            );
            checked += 1;
        }
    }
    // Two STATS lines show the counter: after the mutation transcript's
    // three mutations, and in the METRICS transcript, which has none.
    assert!(
        checked >= 2,
        "only {checked} mutations_total fields checked"
    );
}

#[test]
fn placeholders_and_server_lines_are_recognized() {
    assert!(has_placeholder("OK batch=<n>"));
    assert!(has_placeholder("ERR [seq=<i> ]busy retry_after_ms=<R>"));
    assert!(has_placeholder("OK datasets=<name:n:d:groups:skyline>,..."));
    assert!(!has_placeholder("OK alg=F-Greedy indices=1,2"));
    assert!(!has_placeholder("ERR x < y > z"));
    assert_eq!(
        server_line(">> HELLO version=2 codec=binary   << OK version=2 codec=binary"),
        Some("OK version=2 codec=binary")
    );
    assert_eq!(server_line("S: OK pong"), Some("OK pong"));
    assert_eq!(server_line("  -> OK bye"), Some("OK bye"));
    assert_eq!(server_line(">> PING"), None);
    assert_eq!(server_line("C: METRICS"), None);
}

//! Tails over the wire, pinned byte for byte.
//!
//! One fixed request sequence runs through [`Server::handle_line`] and
//! the full response transcript is pinned as FNV-1a 64. The sequence
//! covers two tails of different capacities (one subscribed between two
//! publishes), two clients with a sequence gap that a later batch fills
//! (so tails must see batches in canonical `(client, seq)` order, not in
//! arrival order), a publish that finds a tail buffer already full (bulk
//! overflow), polls with a small and an unbounded `max`, and `stats`
//! read after a non-empty publish that follows an `unsubscribe`.

use clasp_serve::{Server, ServerConfig};

/// FNV-1a 64 over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// An ingest request carrying `n` points of `server` from time `t0`.
fn ingest(client: &str, seq: u64, server: &str, t0: u64, n: u64) -> String {
    let points: Vec<String> = (t0..t0 + n)
        .map(|t| format!("\"throughput,server={server} mbps={}.5 {t}\"", t + 1))
        .collect();
    format!(
        "{{\"op\":\"ingest\",\"client\":\"{client}\",\"seq\":{seq},\"points\":[{}]}}",
        points.join(",")
    )
}

const PUBLISH: &str = "{\"op\":\"publish\"}";
const STATS: &str = "{\"op\":\"stats\"}";

fn poll(tail: u64, max: Option<u64>) -> String {
    match max {
        Some(max) => format!("{{\"op\":\"poll\",\"tail\":{tail},\"max\":{max}}}"),
        None => format!("{{\"op\":\"poll\",\"tail\":{tail}}}"),
    }
}

fn subscribe(capacity: u64) -> String {
    format!("{{\"op\":\"subscribe\",\"capacity\":{capacity}}}")
}

fn unsubscribe(tail: u64) -> String {
    format!("{{\"op\":\"unsubscribe\",\"tail\":{tail}}}")
}

/// The request sequence. Tail 1 has capacity 8 and is open from the
/// start; tail 2 has capacity 2 and opens after the first publish.
fn requests() -> Vec<String> {
    vec![
        subscribe(8),
        ingest("beta", 0, "b", 0, 2),
        // alpha starts at seq 1: held back until seq 0 arrives.
        ingest("alpha", 1, "a", 10, 2),
        PUBLISH.to_string(),
        subscribe(2),
        ingest("beta", 1, "b", 2, 1),
        ingest("alpha", 0, "a", 0, 3),
        // Applies alpha 0, alpha 1, beta 1 in that order. Tail 2 fills
        // on alpha 0, so alpha 1 and beta 1 overflow it in bulk.
        PUBLISH.to_string(),
        poll(1, Some(3)),
        poll(2, None),
        STATS.to_string(),
        ingest("alpha", 2, "a", 20, 4),
        PUBLISH.to_string(),
        poll(1, Some(100)),
        poll(2, Some(1)),
        unsubscribe(2),
        poll(2, None),
        ingest("beta", 2, "b", 3, 1),
        PUBLISH.to_string(),
        STATS.to_string(),
        poll(1, None),
        unsubscribe(1),
        unsubscribe(1),
        ingest("alpha", 3, "a", 30, 2),
        PUBLISH.to_string(),
        STATS.to_string(),
    ]
}

#[test]
fn tail_transcript_bytes_are_pinned() {
    let server = Server::new(ServerConfig::default());
    let transcript: Vec<String> = requests()
        .iter()
        .map(|line| server.handle_line(line))
        .collect();
    let transcript = transcript.join("\n");
    assert_eq!(
        fnv1a(transcript.as_bytes()),
        14_166_365_163_945_683_790,
        "tail transcript moved:\n{transcript}"
    );
}

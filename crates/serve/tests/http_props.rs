//! Hostile-input properties of the hand-rolled HTTP parser: whatever
//! bytes a peer sends, `http::parse_request` returns `Ok` or a typed
//! `ParseError` and never panics. Inputs are arbitrary byte strings and
//! mutated valid requests aimed at the parser's edges: a `%` escape cut
//! short by multibyte UTF-8, lines around the 8 KiB cap, header counts
//! around the 100-line cap, and `Content-Length` values that are huge,
//! non-numeric or longer than the body. Each case is drawn from a fixed
//! per-case seed, so a failure replays by rerunning the test.

use std::io::BufReader;
use std::panic::{self, AssertUnwindSafe};

use proptest::prelude::*;

use xui_serve::http::{
    parse_request, ParseError, Request, MAX_BODY_BYTES, MAX_HEADERS, MAX_LINE_BYTES,
};

const MULTIBYTE: [&str; 4] = ["é", "€", "😀", "\u{7ff}"];
const HEX: &[u8] = b"0123456789abcdefABCDEF";
const BAD_LENGTHS: [&str; 8] = [
    "18446744073709551616",
    "99999999999999999999999999",
    "abc",
    "-1",
    "1e3",
    "0x10",
    "",
    "12 34",
];

/// Parses `bytes` through a reader of the given buffer capacity (small
/// capacities split lines across `fill_buf` calls), failing the case
/// with the input if the parser panics.
fn parse(bytes: &[u8], capacity: usize) -> Result<Result<Request, ParseError>, String> {
    let mut reader = BufReader::with_capacity(capacity, bytes);
    panic::catch_unwind(AssertUnwindSafe(|| parse_request(&mut reader)))
        .map_err(|_| format!("parser panicked on {:?}", String::from_utf8_lossy(bytes)))
}

/// The checks every parse result must pass, beyond not panicking.
fn check(result: &Result<Request, ParseError>) -> Result<(), String> {
    match result {
        Ok(req) => {
            prop_assert!(!req.method.is_empty(), "empty method");
            prop_assert!(req.headers.len() <= MAX_HEADERS, "{} headers", req.headers.len());
        }
        Err(ParseError::Io(e)) => {
            // An in-memory reader only fails by running out of body.
            prop_assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "{}", e);
        }
        Err(ParseError::BodyTooLarge(n)) => prop_assert!(*n > MAX_BODY_BYTES, "{}", n),
        Err(ParseError::Eof | ParseError::Malformed(_)) => {}
    }
    if let Err(e) = result {
        prop_assert!(!e.to_string().is_empty(), "error renders empty");
    }
    Ok(())
}

fn request(target: &str, headers: &[String], body: &str) -> Vec<u8> {
    let mut raw = format!("POST {target} HTTP/1.1\r\n");
    for h in headers {
        raw.push_str(h);
        raw.push_str("\r\n");
    }
    raw.push_str("\r\n");
    raw.push_str(body);
    raw.into_bytes()
}

/// A query whose `%` escape is cut short by a multibyte character.
fn split_escape() -> impl Strategy<Value = Vec<u8>> {
    (0..MULTIBYTE.len(), 0..HEX.len(), 0usize..3, any::<bool>()).prop_map(
        |(ch, hex, digits, tail)| {
            let hex = char::from(HEX[hex]).to_string().repeat(digits);
            let end = if tail { "%" } else { "" };
            let target = format!("/x?a=%{hex}{}&b=v{end}", MULTIBYTE[ch]);
            request(&target, &[], "")
        },
    )
}

/// A request line or a header line within a few bytes of the line cap.
fn long_line() -> impl Strategy<Value = Vec<u8>> {
    (MAX_LINE_BYTES - 24..MAX_LINE_BYTES + 24, any::<bool>()).prop_map(|(len, in_header)| {
        let filler = "a".repeat(len);
        if in_header {
            request("/x", &[format!("X-Big: {filler}")], "")
        } else {
            request(&format!("/{filler}"), &[], "")
        }
    })
}

/// A header count within a few lines of the header cap.
fn many_headers() -> impl Strategy<Value = Vec<u8>> {
    (MAX_HEADERS - 3..MAX_HEADERS + 8).prop_map(|n| {
        let headers: Vec<String> = (0..n).map(|i| format!("X-H-{i}: v")).collect();
        request("/x", &headers, "")
    })
}

/// A `Content-Length` that is huge, non-numeric, or longer than the body.
fn bad_content_length() -> impl Strategy<Value = Vec<u8>> {
    (0..BAD_LENGTHS.len() + 2, 0usize..64, 1usize..4096).prop_map(|(pick, body, extra)| {
        let body = "b".repeat(body);
        let declared = match pick {
            p if p < BAD_LENGTHS.len() => BAD_LENGTHS[p].to_string(),
            p if p == BAD_LENGTHS.len() => (body.len() + extra).to_string(),
            _ => (MAX_BODY_BYTES + extra).to_string(),
        };
        request("/x", &[format!("Content-Length: {declared}")], &body)
    })
}

/// A valid request with a few bytes overwritten at random offsets.
fn flipped_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec((any::<u16>(), any::<u8>()), 1..8).prop_map(|flips| {
        let mut raw = request(
            "/api/runs?cap=4&x=a%20b",
            &["Host: x".to_string(), "Content-Length: 9".to_string()],
            "{\"a\": 1}\n",
        );
        for (at, byte) in flips {
            let at = usize::from(at) % raw.len();
            raw[at] = byte;
        }
        raw
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        capacity in 1usize..64,
    ) {
        check(&parse(&bytes, capacity)?)?;
    }

    #[test]
    fn mutated_requests_never_panic(
        bytes in prop_oneof![
            split_escape(),
            long_line(),
            many_headers(),
            bad_content_length(),
            flipped_bytes(),
        ],
        capacity in prop_oneof![Just(8192usize), 1usize..64],
    ) {
        check(&parse(&bytes, capacity)?)?;
    }
}

//! Fuzzed ingress: the serving core's framing step (`frame_request`)
//! and request parser (`read_request`) over random bytes, truncations
//! and splices of `lantern-gen` requests, and absurd or duplicated
//! `Content-Length` headers. The framer must answer `Complete` or
//! `Incomplete` and always make progress; the parser must answer a
//! request or a structured error carrying an HTTP status. Neither may
//! panic.

use lantern::gen::{FormatMix, GenConfig, PlanGenerator};
use lantern::serve::http::{frame_request, read_request, FrameStatus, MAX_HEAD_BYTES};
use proptest::collection::vec;
use proptest::prelude::*;

/// The body cap the framer and the parser are given.
const MAX_BODY: usize = 64 * 1024;

/// What one buffer yields when a reactor frames it: the parsed
/// requests' bodies in order, then the error status that ended the
/// connection, if any.
#[derive(Debug, PartialEq)]
struct Ingested {
    bodies: Vec<Vec<u8>>,
    error: Option<u16>,
    /// Bytes left waiting for more input.
    pending: usize,
}

/// Frame and parse `buf` the way a reactor does: frame, parse the
/// frame, drop it, and repeat until the framer wants more bytes or the
/// parser rejects a frame.
fn ingest(buf: &[u8]) -> Result<Ingested, String> {
    let mut rest = buf;
    let mut bodies = Vec::new();
    loop {
        let len = match frame_request(rest, MAX_BODY) {
            FrameStatus::Incomplete => {
                return Ok(Ingested {
                    bodies,
                    error: None,
                    pending: rest.len(),
                })
            }
            FrameStatus::Complete { len } => len,
        };
        if len == 0 || len > rest.len() {
            return Err(format!(
                "frame of {len} bytes in a {}-byte buffer",
                rest.len()
            ));
        }
        match read_request(&mut &rest[..len], MAX_BODY) {
            Ok(request) => bodies.push(request.body),
            Err(err) => {
                // A whole frame never looks like a closed connection or
                // a short read: the framer and the parser agree on
                // where the request ends.
                let Some(status) = err.status() else {
                    return Err(format!("unstructured error on a frame: {}", err.message()));
                };
                if !(400..600).contains(&status) || err.message().is_empty() {
                    return Err(format!("bad error {status}: {:?}", err.message()));
                }
                return Ok(Ingested {
                    bodies,
                    error: Some(status),
                    pending: 0,
                });
            }
        }
        rest = &rest[len..];
    }
}

/// The same buffer delivered in chunks: frame after every chunk, as a
/// reactor does after every read.
fn ingest_in_chunks(buf: &[u8], cuts: &[usize]) -> Result<Ingested, String> {
    let mut inbuf = Vec::new();
    let mut bodies = Vec::new();
    let mut fed = 0;
    let mut ends: Vec<usize> = cuts.iter().map(|c| c % (buf.len() + 1)).collect();
    ends.push(buf.len());
    ends.sort_unstable();
    for end in ends {
        inbuf.extend_from_slice(&buf[fed..end.max(fed)]);
        fed = end.max(fed);
        let step = ingest(&inbuf)?;
        bodies.extend(step.bodies);
        if step.error.is_some() {
            return Ok(Ingested {
                bodies,
                error: step.error,
                pending: 0,
            });
        }
        inbuf.drain(..inbuf.len() - step.pending);
    }
    Ok(Ingested {
        bodies,
        error: None,
        pending: inbuf.len(),
    })
}

/// `count` generated plan documents, each as a pipelined
/// `POST /narrate`.
fn generated_requests(seed: u64, count: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
    let config = GenConfig::default()
        .with_seed(seed)
        .with_ops(1, 6)
        .with_format(FormatMix::Mixed);
    PlanGenerator::new(config)
        .generate(count)
        .into_iter()
        .map(|item| {
            let body = item.doc.into_bytes();
            let head = format!(
                "POST /narrate HTTP/1.1\r\nHost: lantern\r\nContent-Length: {}\r\n\r\n",
                body.len()
            );
            let mut wire = head.into_bytes();
            wire.extend_from_slice(&body);
            (wire, body)
        })
        .collect()
}

fn stream_of(requests: &[(Vec<u8>, Vec<u8>)]) -> Vec<u8> {
    requests.iter().flat_map(|(wire, _)| wire.clone()).collect()
}

/// `Content-Length` header blocks a client could send: absurd,
/// negative, signed, padded, duplicated and conflicting values.
fn content_length_headers(len: usize) -> Vec<String> {
    vec![
        format!("Content-Length: {len}\r\nContent-Length: {len}\r\n"),
        format!("Content-Length: {len}\r\nContent-Length: {}\r\n", len + 1),
        format!(
            "Content-Length: {}\r\nContent-Length: {len}\r\n",
            len.saturating_sub(1)
        ),
        "Content-Length: 99999999999999999999999999\r\n".to_string(),
        format!("Content-Length: {}\r\n", usize::MAX),
        format!("Content-Length: {}\r\n", MAX_BODY + 1),
        "Content-Length: -1\r\n".to_string(),
        format!("Content-Length: +{len}\r\n"),
        format!("Content-Length:    {len}   \r\n"),
        "Content-Length: 0x10\r\n".to_string(),
        "Content-Length: \r\n".to_string(),
        format!("content-length: {len}\r\nCONTENT-LENGTH: {len}\r\n"),
        format!("Content-Length: abc\r\nContent-Length: {len}\r\n"),
        "Transfer-Encoding: chunked\r\n".to_string(),
        String::new(),
    ]
}

/// Pieces of HTTP heads, so random sequences of them reach the
/// framer's and the parser's branches that plain random bytes rarely
/// do (terminators, header lines, lengths).
const TOKENS: [&[u8]; 22] = [
    b"GET ",
    b"POST ",
    b"/narrate",
    b"?style=bulleted&nocache=1 ",
    b" HTTP/1.1",
    b" HTTP/1.0",
    b" HTTP/2",
    b"\r\n",
    b"\n",
    b"\r",
    b": ",
    b"Content-Length",
    b"Transfer-Encoding",
    b"Connection",
    b"close",
    b"0",
    b"7",
    b"4096",
    b"99999999999999999999999",
    b"-",
    b"{\"Plan\": {}}",
    b"\xff\xfe",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random bytes: a frame, a wait for more, or a structured error.
    #[test]
    fn random_bytes_frame_or_fail_cleanly(bytes in vec(any::<u8>(), 0..2048)) {
        ingest(&bytes)?;
    }

    /// Random sequences of head fragments, likewise.
    #[test]
    fn token_soup_frames_or_fails_cleanly(picks in vec(any::<u8>(), 0..96)) {
        let soup: Vec<u8> = picks
            .iter()
            .flat_map(|&p| TOKENS[p as usize % TOKENS.len()].iter().copied())
            .collect();
        ingest(&soup)?;
    }

    /// Random bytes behind a valid request head: the framer's body
    /// boundary is the parser's.
    #[test]
    fn random_bodies_behind_a_head(
        body in vec(any::<u8>(), 0..512),
        advertised in any::<u16>().prop_map(|n| n as usize % 600),
        tail in vec(any::<u8>(), 0..64),
    ) {
        let mut wire = format!("POST /narrate HTTP/1.1\r\nContent-Length: {advertised}\r\n\r\n").into_bytes();
        wire.extend_from_slice(&body);
        wire.extend_from_slice(&tail);
        let out = ingest(&wire)?;
        if body.len() + tail.len() >= advertised {
            let mut expected = body.clone();
            expected.extend_from_slice(&tail);
            expected.truncate(advertised);
            prop_assert_eq!(out.bodies.first(), Some(&expected));
        } else {
            prop_assert!(out.bodies.is_empty() && out.error.is_none());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A pipelined stream of generated requests parses back to exactly
    /// its bodies, in order, whichever chunks it arrives in.
    #[test]
    fn generated_streams_parse_back_in_any_chunking(
        seed in any::<u64>(),
        count in any::<u8>().prop_map(|n| 1 + n as usize % 5),
        cuts in vec(any::<usize>(), 0..8),
    ) {
        let requests = generated_requests(seed, count);
        let stream = stream_of(&requests);
        let bodies: Vec<Vec<u8>> = requests.iter().map(|(_, body)| body.clone()).collect();
        let whole = ingest(&stream)?;
        prop_assert_eq!(&whole, &Ingested { bodies: bodies.clone(), error: None, pending: 0 });
        let chunked = ingest_in_chunks(&stream, &cuts)?;
        prop_assert_eq!(chunked, whole);
    }

    /// A truncated stream yields the requests wholly inside the cut and
    /// waits for the rest — never an error.
    #[test]
    fn truncated_streams_wait_for_more(
        seed in any::<u64>(),
        count in any::<u8>().prop_map(|n| 1 + n as usize % 4),
        cut in any::<usize>(),
    ) {
        let requests = generated_requests(seed, count);
        let stream = stream_of(&requests);
        let cut = cut % (stream.len() + 1);
        let out = ingest(&stream[..cut])?;
        let mut whole = 0;
        let mut end = 0;
        for (wire, _) in &requests {
            if end + wire.len() > cut {
                break;
            }
            end += wire.len();
            whole += 1;
        }
        prop_assert_eq!(out.error, None);
        prop_assert_eq!(out.bodies.len(), whole);
        prop_assert_eq!(out.pending, cut - end);
    }

    /// Splices of two generated streams at random points, and of a
    /// stream with random bytes, fail cleanly if at all.
    #[test]
    fn spliced_streams_fail_cleanly(
        seeds in (any::<u64>(), any::<u64>()),
        cuts in (any::<usize>(), any::<usize>()),
        noise in vec(any::<u8>(), 0..64),
    ) {
        let a = stream_of(&generated_requests(seeds.0, 3));
        let b = stream_of(&generated_requests(seeds.1, 3));
        let (i, j) = (cuts.0 % (a.len() + 1), cuts.1 % (b.len() + 1));
        let mut spliced = a[..i].to_vec();
        spliced.extend_from_slice(&b[j..]);
        ingest(&spliced)?;
        let mut noisy = a[..i].to_vec();
        noisy.extend_from_slice(&noise);
        noisy.extend_from_slice(&a[i..]);
        ingest(&noisy)?;
    }

    /// Generated requests under every hostile `Content-Length` block:
    /// a request, a wait for the advertised bytes, or a structured
    /// error — and only agreeing duplicates parse.
    #[test]
    fn hostile_content_lengths_fail_cleanly(seed in any::<u64>(), pick in any::<usize>()) {
        let (_, body) = generated_requests(seed, 1).remove(0);
        let headers = content_length_headers(body.len());
        let header = &headers[pick % headers.len()];
        let mut wire = format!("POST /narrate HTTP/1.1\r\n{header}\r\n").into_bytes();
        wire.extend_from_slice(&body);
        let out = ingest(&wire)?;
        let agreeing = header.lines().filter(|l| !l.is_empty()).all(|l| {
            l.to_ascii_lowercase().starts_with("content-length:")
                && l[15..].trim().parse::<usize>() == Ok(body.len())
        });
        if agreeing && !header.is_empty() && body.len() <= MAX_BODY {
            prop_assert_eq!(out.bodies, vec![body]);
        } else {
            prop_assert!(out.bodies.is_empty(), "{header:?} parsed");
        }
    }
}

/// A head that never ends is cut off at the head cap, not buffered
/// forever.
#[test]
fn endless_heads_are_cut_at_the_cap() {
    let mut wire = b"GET /healthz HTTP/1.1\r\nX-Filler: ".to_vec();
    wire.resize(MAX_HEAD_BYTES + 1, b'a');
    let out = ingest(&wire).unwrap();
    assert_eq!(out.error, Some(431));
}

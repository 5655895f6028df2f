//! Model test of the HTTP wire parser: any stream of valid pipelined
//! requests parses to the same request sequence however the bytes arrive.
//! The stream is cut at every byte boundary (and dripped one byte at a
//! time), and the pieces go through `parse_request` the way a connection
//! feeds it: append what arrived, parse, drain exactly `consumed`, parse
//! again while requests complete.

use permadead_serve::wire::{parse_request, HttpRequest, Parse};
use proptest::collection::vec;
use proptest::prelude::*;

/// `name` with its letters' case flipped wherever `bits` has a one.
fn vary_case(name: &str, bits: u32) -> String {
    name.chars()
        .enumerate()
        .map(|(i, c)| {
            if (bits >> (i % 32)) & 1 == 1 {
                c.to_ascii_uppercase()
            } else {
                c.to_ascii_lowercase()
            }
        })
        .collect()
}

/// One valid request's wire bytes and the request the parser must return.
fn request(
    (post, path, query, body, case): (bool, String, String, String, u32),
    close: bool,
) -> (String, HttpRequest) {
    let mut head = if post {
        format!("POST {path} HTTP/1.1\r\n")
    } else {
        format!("GET {path}?{query} HTTP/1.1\r\n")
    };
    head.push_str(&format!("{}: t\r\n", vary_case("host", case)));
    if post {
        head.push_str(&format!(
            "{}: {}\r\n",
            vary_case("content-length", case >> 4),
            body.len()
        ));
    }
    if close {
        head.push_str(&format!(
            "{}: {}\r\n",
            vary_case("connection", case >> 8),
            vary_case("close", case >> 12)
        ));
    }
    head.push_str("\r\n");
    let expected = HttpRequest {
        method: if post { "POST" } else { "GET" }.to_string(),
        path,
        query: (!post).then_some(query),
        body: if post { body.clone() } else { String::new() },
        keep_alive: !close,
    };
    if post {
        head.push_str(&body);
    }
    (head, expected)
}

/// Feed `stream` in pieces cut at `cuts` (ascending offsets), as a
/// connection does, and return every request parsed, in order.
fn feed(stream: &[u8], cuts: impl IntoIterator<Item = usize>) -> Result<Vec<HttpRequest>, String> {
    let mut buf = Vec::new();
    let mut parsed = Vec::new();
    let mut from = 0;
    for to in cuts.into_iter().chain([stream.len()]) {
        buf.extend_from_slice(&stream[from..to]);
        from = to;
        loop {
            match parse_request(&buf) {
                Parse::Complete { request, consumed } => {
                    buf.drain(..consumed);
                    parsed.push(request);
                }
                Parse::Incomplete => break,
                Parse::Bad(e) => return Err(format!("{e:?} after {to} bytes")),
            }
        }
    }
    if buf.is_empty() {
        Ok(parsed)
    } else {
        Err(format!("{} bytes left unparsed", buf.len()))
    }
}

proptest! {
    #[test]
    fn every_cut_of_a_pipelined_stream_parses_to_the_same_requests(
        requests in vec(
            (
                any::<bool>(),
                "/[a-z]{1,8}(/[a-z0-9._-]{1,6}){0,2}",
                "[a-z]{1,5}=[a-zA-Z0-9%.:/-]{0,16}(&[a-z]{1,4}=[a-z0-9]{0,4}){0,2}",
                "[a-zA-Z0-9 ./:=?&%\r\n-]{0,48}",
                any::<u32>(),
            ),
            1..5,
        ),
        close in any::<bool>(),
    ) {
        let last = requests.len() - 1;
        let (wire, expected): (Vec<String>, Vec<HttpRequest>) = requests
            .into_iter()
            .enumerate()
            .map(|(i, parts)| request(parts, close && i == last))
            .unzip();
        let stream = wire.concat().into_bytes();

        let whole = feed(&stream, []);
        prop_assert_eq!(&whole, &Ok(expected.clone()), "the whole stream");
        for cut in 0..=stream.len() {
            prop_assert_eq!(&feed(&stream, [cut]), &whole, "cut at byte {}", cut);
        }
        prop_assert_eq!(&feed(&stream, 1..stream.len()), &whole, "one byte at a time");
    }
}

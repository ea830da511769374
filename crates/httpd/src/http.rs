//! A small HTTP/1.0 subset: request parsing and response rendering.
//!
//! Pure Rust (no `Io`): parsing operates on the full request text after
//! the network layer has accumulated it. Enough of the protocol for the
//! paper's case-study workloads — request line, headers, no bodies.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// An HTTP request method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Method {
    /// `GET`.
    Get,
    /// `HEAD`.
    Head,
    /// `POST` (accepted, though bodies are not transported).
    Post,
}

impl Method {
    fn parse(s: &str) -> Option<Method> {
        match s {
            "GET" => Some(Method::Get),
            "HEAD" => Some(Method::Head),
            "POST" => Some(Method::Post),
            _ => None,
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Method::Get => "GET",
            Method::Head => "HEAD",
            Method::Post => "POST",
        })
    }
}

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request method.
    pub(crate) method: Method,
    /// The request path, e.g. `/index.html`.
    pub path: String,
    /// Headers, lower-cased names.
    pub(crate) headers: BTreeMap<String, String>,
}

impl Request {
    /// A minimal GET request for `path`.
    pub fn get(path: impl Into<String>) -> Request {
        Request {
            method: Method::Get,
            path: path.into(),
            headers: BTreeMap::new(),
        }
    }

    /// Renders the request as wire text (for the client side).
    pub fn render(&self) -> String {
        let mut s = format!("{} {} HTTP/1.0\r\n", self.method, self.path);
        for (k, v) in &self.headers {
            s.push_str(&format!("{k}: {v}\r\n"));
        }
        s.push_str("\r\n");
        s
    }
}

/// Why a request failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseRequestError {
    /// The request text was empty.
    Empty,
    /// The request line was not `METHOD PATH VERSION`.
    BadRequestLine(String),
    /// Unknown method token.
    BadMethod(String),
    /// A header line had no colon.
    BadHeader(String),
}

impl fmt::Display for ParseRequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseRequestError::Empty => f.write_str("empty request"),
            ParseRequestError::BadRequestLine(l) => write!(f, "malformed request line {l:?}"),
            ParseRequestError::BadMethod(m) => write!(f, "unknown method {m:?}"),
            ParseRequestError::BadHeader(h) => write!(f, "malformed header {h:?}"),
        }
    }
}

impl std::error::Error for ParseRequestError {}

/// Parses the text of a request (everything up to the blank line).
///
/// # Errors
///
/// Returns a [`ParseRequestError`] describing the first malformed line.
pub fn parse_request(text: &str) -> Result<Request, ParseRequestError> {
    let mut lines = text.split("\r\n");
    let request_line = lines
        .next()
        .filter(|l| !l.is_empty())
        .ok_or(ParseRequestError::Empty)?;
    let mut parts = request_line.split_whitespace();
    let (method, path, _version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m, p, v),
        _ => return Err(ParseRequestError::BadRequestLine(request_line.to_owned())),
    };
    let method =
        Method::parse(method).ok_or_else(|| ParseRequestError::BadMethod(method.to_owned()))?;
    let mut headers = BTreeMap::new();
    for line in lines {
        if line.is_empty() {
            break;
        }
        let (k, v) = line
            .split_once(':')
            .ok_or_else(|| ParseRequestError::BadHeader(line.to_owned()))?;
        headers.insert(k.trim().to_ascii_lowercase(), v.trim().to_owned());
    }
    Ok(Request {
        method,
        path: path.to_owned(),
        headers,
    })
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The status code.
    pub(crate) status: u16,
    /// The body text.
    pub(crate) body: String,
    /// Optional `Retry-After` header value (virtual seconds) — the
    /// load-shedding 503 path uses it to tell clients when to come back.
    pub(crate) retry_after: Option<u64>,
}

impl Response {
    /// A `200 OK` response with a body.
    pub fn ok(body: impl Into<String>) -> Response {
        Response {
            status: 200,
            body: body.into(),
            retry_after: None,
        }
    }

    /// A response with an arbitrary status and a default reason body.
    pub fn status(status: u16) -> Response {
        Response {
            status,
            body: reason(status).to_owned(),
            retry_after: None,
        }
    }

    /// A `503 Service Unavailable` carrying a `Retry-After` hint — the
    /// graceful-degradation answer an overloaded server sheds load with.
    pub(crate) fn unavailable(retry_after: u64) -> Response {
        Response {
            status: 503,
            body: reason(503).to_owned(),
            retry_after: Some(retry_after),
        }
    }

    /// Renders the response as wire text.
    pub fn render(&self) -> String {
        let reason = reason(self.status);
        // One allocation: 96 bytes cover the fixed text and both
        // headers at their longest (two 20-digit numbers).
        let mut s = String::with_capacity(96 + reason.len() + self.body.len());
        let _ = write!(s, "HTTP/1.0 {} {reason}\r\n", self.status);
        if let Some(secs) = self.retry_after {
            let _ = write!(s, "Retry-After: {secs}\r\n");
        }
        let _ = write!(s, "Content-Length: {}\r\n\r\n", self.body.len());
        s.push_str(&self.body);
        s
    }
}

conch_runtime::host_value!(Response);

/// The standard reason phrase for the status codes the server uses.
pub(crate) fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conch_runtime::value::{FromValue, IntoValue};
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn response_round_trips_as_a_host_value(
            status in any::<u16>(),
            body in prop::collection::vec(prop::char::range(' ', '~'), 0..40),
            retry_after in prop_oneof![Just(None), any::<u64>().prop_map(Some)],
        ) {
            let resp = Response { status, body: body.into_iter().collect(), retry_after };
            prop_assert_eq!(Response::from_value(resp.clone().into_value()), Some(resp));
        }
    }

    #[test]
    fn parses_simple_get() {
        let r = parse_request("GET /x HTTP/1.0\r\n\r\n").unwrap();
        assert_eq!(r.method, Method::Get);
        assert_eq!(r.path, "/x");
        assert!(r.headers.is_empty());
    }

    #[test]
    fn parses_headers_case_insensitively() {
        let r = parse_request("GET / HTTP/1.0\r\nHost: example\r\nX-Thing: 2\r\n\r\n").unwrap();
        assert_eq!(r.headers["host"], "example");
        assert_eq!(r.headers["x-thing"], "2");
    }

    #[test]
    fn request_render_round_trips() {
        let mut req = Request::get("/a/b");
        req.headers.insert("host".into(), "h".into());
        let parsed = parse_request(&req.render()).unwrap();
        assert_eq!(parsed, req);
    }

    #[test]
    fn rejects_bad_request_line() {
        assert!(matches!(
            parse_request("GARBAGE\r\n\r\n"),
            Err(ParseRequestError::BadRequestLine(_))
        ));
        assert!(matches!(parse_request(""), Err(ParseRequestError::Empty)));
    }

    #[test]
    fn rejects_unknown_method() {
        assert!(matches!(
            parse_request("BREW /pot HTTP/1.0\r\n\r\n"),
            Err(ParseRequestError::BadMethod(_))
        ));
    }

    #[test]
    fn rejects_bad_header() {
        assert!(matches!(
            parse_request("GET / HTTP/1.0\r\nnocolon\r\n\r\n"),
            Err(ParseRequestError::BadHeader(_))
        ));
    }

    #[test]
    fn response_render_includes_status_and_length() {
        let r = Response::ok("hello").render();
        assert!(r.starts_with("HTTP/1.0 200 OK\r\n"));
        assert!(r.contains("Content-Length: 5"));
        assert!(r.ends_with("hello"));
    }

    #[test]
    fn unavailable_renders_retry_after() {
        let r = Response::unavailable(30).render();
        assert!(r.starts_with("HTTP/1.0 503 Service Unavailable\r\n"));
        assert!(r.contains("Retry-After: 30\r\n"));
        // Plain responses must not grow the header.
        assert!(!Response::ok("x").render().contains("Retry-After"));
    }

    #[test]
    fn status_reasons() {
        assert_eq!(reason(408), "Request Timeout");
        assert_eq!(reason(504), "Gateway Timeout");
        assert_eq!(Response::status(404).body, "Not Found");
    }
}

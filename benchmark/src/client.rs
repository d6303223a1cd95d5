//! The benchmark's own HTTP/1.1 client for `ovc-server`: keep-alive
//! connections read frame by frame, so the first batch frame of a
//! response can be stamped, and an order-sensitive digest of the rows
//! and codes received.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use ovc_bench::snapshot::Json;
use ovc_core::derive::derive_codes;
use ovc_core::{OvcRow, Row};

/// Order-sensitive digest of a coded result: every value, then the code.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    /// Rows folded in.
    pub rows: u64,
    hash: u64,
}

impl Digest {
    /// The digest of no rows.
    pub fn new() -> Digest {
        Digest {
            rows: 0,
            hash: 0xCBF2_9CE4_8422_2325,
        }
    }

    fn word(&mut self, w: u64) {
        self.hash = (self.hash ^ w).wrapping_mul(0x0000_0100_0000_01B3);
    }

    /// Fold in one row and its code.
    pub fn row(&mut self, values: &[u64], code: u64) {
        self.rows += 1;
        for &v in values {
            self.word(v);
        }
        self.word(code);
    }

    /// Digest of an engine result.
    pub fn of(rows: &[OvcRow]) -> Digest {
        let mut d = Digest::new();
        for r in rows {
            d.row(r.row.cols(), r.code.raw());
        }
        d
    }

    /// Digest of expected rows, with codes derived from them.
    pub fn of_expected(rows: &[Row], key_len: usize) -> Digest {
        let codes = derive_codes(rows, key_len);
        let mut d = Digest::new();
        for (r, c) in rows.iter().zip(codes) {
            d.row(r.cols(), c.raw());
        }
        d
    }
}

/// One keep-alive HTTP/1.1 connection, read frame by frame so the
/// first batch frame can be stamped.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// What came back for one request.
#[derive(Clone, Debug, Default)]
pub struct Response {
    /// HTTP status.
    pub status: u16,
    /// Response body bytes (chunk payloads, or the plain body).
    pub body_bytes: u64,
    /// Digest of the rows and codes of every batch frame (streamed
    /// responses only).
    pub digest: Option<Digest>,
    /// `rows` of the trailer frame; `None` when no trailer arrived.
    pub trailer_rows: Option<u64>,
    /// Whether an `error` frame arrived.
    pub error_frame: bool,
    /// Column comparisons the trailer reports.
    pub col_cmps: u64,
    /// Code comparisons the trailer reports.
    pub ovc_cmps: u64,
    /// When the first batch frame arrived.
    pub first_batch: Option<Instant>,
    /// The body of a response that is not streamed.
    pub body: String,
}

impl Conn {
    /// Open a connection.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn { writer, reader })
    }

    fn send(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<()> {
        let msg = format!(
            "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\ncontent-type: application/json\r\n\r\n{body}",
            body.len()
        );
        self.writer.write_all(msg.as_bytes())?;
        self.writer.flush()
    }

    fn line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(line.trim_end().to_string())
    }

    fn receive(&mut self) -> std::io::Result<Response> {
        let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        let status_line = self.line()?;
        let status = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line {status_line:?}")))?;
        let mut chunked = false;
        let mut length = 0usize;
        loop {
            let line = self.line()?;
            if line.is_empty() {
                break;
            }
            if let Some((k, v)) = line.split_once(':') {
                let (k, v) = (k.trim().to_ascii_lowercase(), v.trim());
                if k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked") {
                    chunked = true;
                } else if k == "content-length" {
                    length = v
                        .parse()
                        .ok()
                        .filter(|&n| n <= MAX_BODY)
                        .ok_or_else(|| bad(format!("bad length {v:?}")))?;
                }
            }
        }
        let mut resp = Response {
            status,
            ..Response::default()
        };
        if !chunked {
            let mut buf = vec![0u8; length];
            self.reader.read_exact(&mut buf)?;
            resp.body_bytes = length as u64;
            resp.body = String::from_utf8_lossy(&buf).into_owned();
            return Ok(resp);
        }
        let mut digest = Digest::new();
        loop {
            let size_line = self.line()?;
            let size = usize::from_str_radix(size_line.trim(), 16)
                .ok()
                .filter(|&n| n <= MAX_BODY)
                .ok_or_else(|| bad(format!("bad chunk size {size_line:?}")))?;
            let mut chunk = vec![0u8; size + 2];
            self.reader.read_exact(&mut chunk)?;
            if size == 0 {
                break;
            }
            resp.body_bytes += size as u64;
            let text = std::str::from_utf8(&chunk[..size]).map_err(|e| bad(e.to_string()))?;
            for frame in text.lines().filter(|l| !l.is_empty()) {
                if frame.starts_with(BATCH_PREFIX) {
                    resp.first_batch.get_or_insert_with(Instant::now);
                    scan_batch(frame, &mut digest).map_err(bad)?;
                    continue;
                }
                let frame = Json::parse(frame).map_err(bad)?;
                match frame.get("frame").and_then(Json::as_str) {
                    Some("batch") => return Err(bad("batch frame out of the wire format".into())),
                    Some("trailer") => {
                        let num = |k: &str| frame.get(k).and_then(Json::as_num);
                        resp.trailer_rows = num("rows").map(|n| n as u64);
                        let stat = |k: &str| {
                            frame
                                .get("stats")
                                .and_then(|s| s.get(k))
                                .and_then(Json::as_num)
                                .map_or(0, |n| n as u64)
                        };
                        resp.col_cmps = stat("col_value_cmps");
                        resp.ovc_cmps = stat("ovc_cmps");
                    }
                    Some("error") => resp.error_frame = true,
                    _ => {}
                }
            }
        }
        resp.digest = Some(digest);
        Ok(resp)
    }

    /// Send one request and read its whole response.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Response> {
        self.send(method, path, body)?;
        self.receive()
    }
}

/// Largest response body or chunk the client accepts.
const MAX_BODY: usize = 64 << 20;

/// How every batch frame starts (`ovc_server::wire::batch_frame`).
const BATCH_PREFIX: &str = "{\"frame\":\"batch\",";

/// Fold one batch frame's rows and codes into `digest`.
///
/// Batch frames are scanned directly instead of through
/// `ovc_bench::snapshot::Json`, whose tree parser takes about 15 ms per
/// 1 000-row frame: the client would otherwise compete with the server
/// for the host's cores and time its own decoding.
fn scan_batch(frame: &str, digest: &mut Digest) -> Result<(), String> {
    let mut s = Scan {
        b: frame.as_bytes(),
        i: 0,
    };
    s.seek("\"rows\":")?;
    let mut rows = Vec::new();
    s.list(|s| {
        rows.push(s.list_u64()?);
        Ok(())
    })?;
    let codes = if s.seek("\"codes\":").is_ok() {
        s.list_u64()?
    } else {
        vec![0; rows.len()]
    };
    if codes.len() != rows.len() {
        return Err(format!("{} rows but {} codes", rows.len(), codes.len()));
    }
    for (row, code) in rows.iter().zip(codes) {
        digest.row(row, code);
    }
    Ok(())
}

/// A cursor over one frame's bytes.
struct Scan<'a> {
    b: &'a [u8],
    i: usize,
}

impl Scan<'_> {
    /// Move past the next occurrence of `key`.
    fn seek(&mut self, key: &str) -> Result<(), String> {
        let at = self.b[self.i..]
            .windows(key.len())
            .position(|w| w == key.as_bytes())
            .ok_or_else(|| format!("frame lacks {key}"))?;
        self.i += at + key.len();
        Ok(())
    }

    fn eat(&mut self, c: u8) -> bool {
        let hit = self.b.get(self.i) == Some(&c);
        self.i += usize::from(hit);
        hit
    }

    /// `[item, item, ...]`, calling `item` for each element.
    fn list(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if !self.eat(b'[') {
            return Err(format!("expected '[' at byte {}", self.i));
        }
        if self.eat(b']') {
            return Ok(());
        }
        loop {
            item(self)?;
            if self.eat(b']') {
                return Ok(());
            }
            if !self.eat(b',') {
                return Err(format!("expected ',' or ']' at byte {}", self.i));
            }
        }
    }

    /// `["digits", ...]`: the wire's exact-integer spelling.
    fn list_u64(&mut self) -> Result<Vec<u64>, String> {
        let mut out = Vec::new();
        self.list(|s| {
            if !s.eat(b'"') {
                return Err(format!("expected a decimal string at byte {}", s.i));
            }
            let start = s.i;
            while s.b.get(s.i).is_some_and(u8::is_ascii_digit) {
                s.i += 1;
            }
            let digits = std::str::from_utf8(&s.b[start..s.i]).map_err(|e| e.to_string())?;
            out.push(digits.parse().map_err(|_| format!("bad u64 {digits:?}"))?);
            if s.eat(b'"') {
                Ok(())
            } else {
                Err(format!("unterminated decimal string at byte {}", s.i))
            }
        })?;
        Ok(out)
    }
}

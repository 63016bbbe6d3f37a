//! Newline-framed input: the one line reader behind every JSON-lines
//! surface — the `t1000 serve` transports (stdio, Unix socket, TCP) and
//! the remote-shard coordinator's streams.
//!
//! [`LineReader`] buffers raw bytes and splits on `\n` itself, so a read
//! timeout mid-line never loses the bytes already received: the next
//! call resumes the same line. Only newly read bytes are scanned for the
//! newline, and a line longer than [`MAX_LINE_BYTES`] is an error rather
//! than an unbounded buffer.

use std::io::{ErrorKind, Read};
use std::time::Instant;

/// Longest line any peer may send. A request or a cell document is a
/// few kilobytes; a peer that sends this much without a newline is
/// broken or hostile.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Why [`LineReader::read_line`] returned without a line.
#[derive(Debug)]
pub enum LineError {
    /// The source timed out (or would block) mid-wait. Buffered bytes
    /// are kept; call again to resume the same line.
    Timeout,
    /// More than [`MAX_LINE_BYTES`] arrived without a newline.
    TooLong,
    /// Any other read error.
    Io(std::io::Error),
}

/// A line reader over any [`Read`] source.
pub struct LineReader<R> {
    inner: R,
    buf: Vec<u8>,
    /// Prefix of `buf` already known to hold no newline.
    scanned: usize,
    last_read: Instant,
}

impl<R: Read> LineReader<R> {
    pub fn new(inner: R) -> LineReader<R> {
        LineReader {
            inner,
            buf: Vec::new(),
            scanned: 0,
            last_read: Instant::now(),
        }
    }

    /// The source, e.g. to write a request on the same stream.
    pub fn get_mut(&mut self) -> &mut R {
        &mut self.inner
    }

    /// When bytes last arrived (or the reader was made): the clock an
    /// idle watchdog reads.
    pub fn last_read(&self) -> Instant {
        self.last_read
    }

    /// The next line without its `\n`. `Ok(None)` is a clean EOF; an
    /// unterminated last line is returned at EOF. Invalid UTF-8 is
    /// replaced, so the JSON parser reports it.
    pub fn read_line(&mut self) -> Result<Option<String>, LineError> {
        loop {
            if let Some(off) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
                let end = self.scanned + off;
                let line = String::from_utf8_lossy(&self.buf[..end]).into_owned();
                self.buf.drain(..=end);
                self.scanned = 0;
                return Ok(Some(line));
            }
            self.scanned = self.buf.len();
            if self.buf.len() > MAX_LINE_BYTES {
                return Err(LineError::TooLong);
            }
            let mut chunk = [0u8; 4096];
            match self.inner.read(&mut chunk) {
                Ok(0) if self.buf.is_empty() => return Ok(None),
                Ok(0) => {
                    let rest = String::from_utf8_lossy(&self.buf).into_owned();
                    self.buf.clear();
                    self.scanned = 0;
                    return Ok(Some(rest));
                }
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    self.last_read = Instant::now();
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Err(LineError::Timeout)
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(LineError::Io(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// A source that replays scripted reads: bytes, or a timeout.
    struct Script(VecDeque<Option<&'static [u8]>>);

    impl Read for Script {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(None) => Err(ErrorKind::WouldBlock.into()),
                Some(Some(bytes)) => {
                    out[..bytes.len()].copy_from_slice(bytes);
                    Ok(bytes.len())
                }
            }
        }
    }

    #[test]
    fn a_timeout_mid_line_keeps_the_partial_bytes() {
        let script = [
            Some(&b"{\"id\": 7, "[..]),
            None,
            Some(b"\"method\": \"ping\"}\nnext"),
        ];
        let mut r = LineReader::new(Script(script.into_iter().collect()));
        assert!(matches!(r.read_line(), Err(LineError::Timeout)));
        assert_eq!(
            r.read_line().unwrap().as_deref(),
            Some(r#"{"id": 7, "method": "ping"}"#)
        );
        // The unterminated tail comes back at EOF, then EOF itself.
        assert_eq!(r.read_line().unwrap().as_deref(), Some("next"));
        assert!(r.read_line().unwrap().is_none());
    }

    #[test]
    fn several_lines_in_one_read_come_back_one_at_a_time() {
        let mut r = LineReader::new(&b"a\n\nb\n"[..]);
        assert_eq!(r.read_line().unwrap().as_deref(), Some("a"));
        assert_eq!(r.read_line().unwrap().as_deref(), Some(""));
        assert_eq!(r.read_line().unwrap().as_deref(), Some("b"));
        assert!(r.read_line().unwrap().is_none());
    }

    #[test]
    fn an_over_long_line_is_an_error() {
        let long = vec![b'['; MAX_LINE_BYTES + 2];
        let mut r = LineReader::new(&long[..]);
        assert!(matches!(r.read_line(), Err(LineError::TooLong)));
        // It gives up at the cap instead of buffering the whole line.
        assert!(r.buf.len() <= MAX_LINE_BYTES + 4096);
    }
}

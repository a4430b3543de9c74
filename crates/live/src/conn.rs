//! The one framed connection: a byte stream, a [`FrameBuffer`] on the way
//! in, a byte queue on the way out, and a `dead` flag.
//!
//! Every socket in `cb-live` — a node's peer links, the checker server's
//! node links, the registry server's clients — is a `FramedConn` plus its
//! owner's tag fields, so the read and write loops exist once, and so
//! does the rule that a corrupt length prefix poisons the stream (the
//! connection dies and buffers nothing more).
//!
//! The stream is any `Read + Write`: production uses a non-blocking
//! `TcpStream`, the unit tests a scripted in-memory one. Accepting,
//! dialing and readiness stay concrete TCP.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};

use cb_model::{push_frame, FrameBuffer};

/// A length-prefix-framed connection over `S`.
pub struct FramedConn<S> {
    stream: S,
    inbuf: FrameBuffer,
    out: Vec<u8>,
    dead: bool,
}

impl<S: Read + Write> FramedConn<S> {
    /// Wraps `stream`; an inbound frame above `max_frame` bytes kills it.
    pub fn new(stream: S, max_frame: usize) -> Self {
        FramedConn {
            stream,
            inbuf: FrameBuffer::new(max_frame),
            out: Vec::new(),
            dead: false,
        }
    }

    /// Reads until the stream would block, buffering what arrived.
    /// Returns the bytes read; EOF or a hard error marks the connection
    /// dead (frames already buffered can still be popped).
    pub fn fill(&mut self) -> usize {
        let mut buf = [0u8; 4096];
        let mut total = 0;
        while !self.dead {
            match self.stream.read(&mut buf) {
                Ok(0) => self.dead = true,
                Ok(n) => {
                    total += n;
                    self.inbuf.feed(&buf[..n]);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => self.dead = true,
            }
        }
        total
    }

    /// Pops the next complete frame payload. A framing error marks the
    /// connection dead: a byte stream cannot be resynchronized after one.
    pub fn next_frame(&mut self) -> Option<Vec<u8>> {
        match self.inbuf.next_frame() {
            Ok(frame) => frame,
            Err(_) => {
                self.dead = true;
                None
            }
        }
    }

    /// Queues one frame (length prefix + `payload`) for [`flush`](Self::flush).
    pub fn queue(&mut self, payload: &[u8]) {
        push_frame(&mut self.out, payload);
    }

    /// Writes queued output until it is gone or the stream would block.
    /// Returns the bytes written; a zero-byte write or a hard error marks
    /// the connection dead.
    pub fn flush(&mut self) -> usize {
        let mut total = 0;
        while !self.dead && !self.out.is_empty() {
            match self.stream.write(&self.out) {
                Ok(0) => self.dead = true,
                Ok(n) => {
                    total += n;
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => self.dead = true,
            }
        }
        total
    }

    /// Bytes queued and not yet written.
    pub fn queued_bytes(&self) -> usize {
        self.out.len()
    }

    /// EOF, an error, a framing error or [`kill`](Self::kill) happened.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Marks the connection dead (the owner's decision).
    pub fn kill(&mut self) {
        self.dead = true;
    }

    /// Nothing left to write — or dead, so nothing ever will be.
    pub fn is_flushed(&self) -> bool {
        self.dead || self.out.is_empty()
    }
}

impl FramedConn<TcpStream> {
    /// Wraps a connected socket, switching it to non-blocking, no-delay.
    pub fn tcp(stream: TcpStream, max_frame: usize) -> Self {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_nonblocking(true);
        FramedConn::new(stream, max_frame)
    }

    /// `(fd, wants_write)` — what a reactor registers with `poll(2)`.
    #[cfg(unix)]
    pub fn io_fd(&self) -> (std::os::fd::RawFd, bool) {
        use std::os::fd::AsRawFd;
        (self.stream.as_raw_fd(), !self.out.is_empty())
    }
}

/// Every connection pending on a non-blocking `listener`; ends at the
/// first accept that yields none.
pub fn accept_pending(
    listener: &TcpListener,
    max_frame: usize,
) -> impl Iterator<Item = FramedConn<TcpStream>> + '_ {
    std::iter::from_fn(move || {
        let (stream, _) = listener.accept().ok()?;
        Some(FramedConn::tcp(stream, max_frame))
    })
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;
    use std::io;

    use super::*;

    /// One scripted outcome of a `read` or `write` call.
    enum Step {
        /// `read` yields these bytes.
        Bytes(Vec<u8>),
        /// `write` accepts up to this many bytes.
        Take(usize),
        WouldBlock,
        Interrupted,
        Zero,
        Broken,
    }

    /// An in-memory stream that replays scripted steps; an exhausted
    /// script would block.
    #[derive(Default)]
    struct Script {
        reads: VecDeque<Step>,
        writes: VecDeque<Step>,
        written: Vec<u8>,
        read_calls: usize,
    }

    fn err(kind: ErrorKind) -> io::Error {
        io::Error::new(kind, "scripted")
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.read_calls += 1;
            match self.reads.pop_front() {
                Some(Step::Bytes(b)) => {
                    buf[..b.len()].copy_from_slice(&b);
                    Ok(b.len())
                }
                Some(Step::Zero) => Ok(0),
                Some(Step::Interrupted) => Err(err(ErrorKind::Interrupted)),
                Some(Step::Broken) => Err(err(ErrorKind::ConnectionReset)),
                Some(Step::WouldBlock) | None => Err(err(ErrorKind::WouldBlock)),
                Some(Step::Take(_)) => panic!("a write step in the read script"),
            }
        }
    }

    impl Write for Script {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            match self.writes.pop_front() {
                Some(Step::Take(n)) => {
                    let n = n.min(buf.len());
                    self.written.extend_from_slice(&buf[..n]);
                    Ok(n)
                }
                Some(Step::Zero) => Ok(0),
                Some(Step::Interrupted) => Err(err(ErrorKind::Interrupted)),
                Some(Step::Broken) => Err(err(ErrorKind::BrokenPipe)),
                Some(Step::WouldBlock) | None => Err(err(ErrorKind::WouldBlock)),
                Some(Step::Bytes(_)) => panic!("a read step in the write script"),
            }
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        push_frame(&mut out, payload);
        out
    }

    fn conn(reads: Vec<Step>) -> FramedConn<Script> {
        let script = Script {
            reads: reads.into(),
            ..Script::default()
        };
        FramedConn::new(script, 64)
    }

    #[test]
    fn frame_split_in_prefix_and_body_reassembles_across_fills() {
        let wire = framed(b"hello world");
        let mut c = conn(vec![
            Step::Bytes(wire[..2].to_vec()),
            Step::WouldBlock,
            Step::Bytes(wire[2..9].to_vec()),
            Step::WouldBlock,
            Step::Bytes(wire[9..].to_vec()),
        ]);
        assert_eq!(c.fill(), 2);
        assert_eq!(c.next_frame(), None);
        assert_eq!(c.fill(), 7);
        assert_eq!(c.next_frame(), None);
        assert_eq!(c.fill(), wire.len() - 9);
        assert_eq!(c.next_frame().as_deref(), Some(&b"hello world"[..]));
        assert_eq!(c.next_frame(), None);
        assert!(!c.is_dead());
    }

    #[test]
    fn two_frames_in_one_read_pop_in_order() {
        let mut wire = framed(b"one");
        wire.extend(framed(b"two"));
        let mut c = conn(vec![Step::Bytes(wire.clone())]);
        assert_eq!(c.fill(), wire.len());
        assert_eq!(c.next_frame().as_deref(), Some(&b"one"[..]));
        assert_eq!(c.next_frame().as_deref(), Some(&b"two"[..]));
        assert_eq!(c.next_frame(), None);
    }

    #[test]
    fn interrupted_is_retried_and_would_block_ends_the_pass_alive() {
        let wire = framed(b"x");
        let mut c = conn(vec![
            Step::Interrupted,
            Step::Bytes(wire.clone()),
            Step::WouldBlock,
            Step::Bytes(wire.clone()),
        ]);
        // The pass reads through the Interrupted and stops at WouldBlock,
        // leaving the fourth step for the next pass.
        assert_eq!(c.fill(), wire.len());
        assert!(!c.is_dead());
        assert_eq!(c.next_frame().as_deref(), Some(&b"x"[..]));
        assert_eq!(c.next_frame(), None);
        assert_eq!(c.fill(), wire.len());
        assert_eq!(c.next_frame().as_deref(), Some(&b"x"[..]));
    }

    #[test]
    fn eof_and_hard_error_kill_but_keep_buffered_frames() {
        for last in [Step::Zero, Step::Broken] {
            let wire = framed(b"bye");
            let mut c = conn(vec![Step::Bytes(wire.clone()), last]);
            assert_eq!(c.fill(), wire.len());
            assert!(c.is_dead());
            // A Goodbye followed by a close must still be seen.
            assert_eq!(c.next_frame().as_deref(), Some(&b"bye"[..]));
            // Dead connections are never read again.
            let calls = c.stream.read_calls;
            assert_eq!(c.fill(), 0);
            assert_eq!(c.stream.read_calls, calls);
        }
    }

    #[test]
    fn oversize_prefix_kills_and_later_fills_buffer_nothing() {
        let mut c = conn(vec![
            Step::Bytes(vec![0xff, 0xff, 0xff, 0xff]),
            Step::WouldBlock,
            Step::Bytes(vec![7; 1000]),
            Step::Bytes(vec![7; 1000]),
        ]);
        assert_eq!(c.fill(), 4);
        assert!(!c.is_dead(), "bytes alone do not kill");
        assert_eq!(c.next_frame(), None);
        assert!(c.is_dead(), "the framing error does");
        assert_eq!(c.fill(), 0);
        assert_eq!(c.inbuf.pending_bytes(), 4);
        assert_eq!(c.stream.reads.len(), 2, "the stream was not touched");
        assert_eq!(c.next_frame(), None);
    }

    #[test]
    fn partial_writes_keep_byte_order_across_flushes() {
        let mut c = conn(Vec::new());
        c.stream.writes = vec![
            Step::Take(3),
            Step::Interrupted,
            Step::Take(4),
            Step::WouldBlock,
            Step::Take(usize::MAX),
        ]
        .into();
        c.queue(b"first frame");
        c.queue(b"second");
        let mut expect = framed(b"first frame");
        expect.extend(framed(b"second"));
        assert_eq!(c.flush(), 7);
        assert_eq!(c.queued_bytes(), expect.len() - 7);
        assert!(!c.is_flushed());
        // A frame queued between passes lands behind what is left.
        c.queue(b"third");
        expect.extend(framed(b"third"));
        assert_eq!(c.flush(), expect.len() - 7);
        assert!(c.is_flushed() && !c.is_dead());
        assert_eq!(c.stream.written, expect);
        assert_eq!(c.flush(), 0);
    }

    #[test]
    fn zero_byte_write_and_write_error_kill() {
        for last in [Step::Zero, Step::Broken] {
            let mut c = conn(Vec::new());
            c.stream.writes = vec![Step::Take(2), last, Step::Take(usize::MAX)].into();
            c.queue(b"doomed");
            assert_eq!(c.flush(), 2);
            assert!(c.is_dead());
            assert!(c.is_flushed(), "a dead queue counts as drained");
            assert_eq!(c.flush(), 0);
            assert_eq!(c.stream.written.len(), 2);
        }
    }
}

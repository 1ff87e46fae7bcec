//! The load generator's wire-v1 client: at most two threads and two
//! connections per phase.
//!
//! Replies are read through [`LineReader`], which keeps the bytes of a line
//! that is split across read timeouts (a reader that clears its buffer on
//! timeout drops the frame's prefix and misparses the rest). Every request
//! has a client-side deadline; one that is not answered by then counts as
//! unresolved, so a server that stops answering ends the phase instead of
//! hanging it.

use mcbfs_query::Query;
use mcbfs_serve::wire::{self, QueryReply, Request, Response};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How long a blocked read waits before the caller regains control.
const POLL: Duration = Duration::from_millis(20);

/// Newline-delimited frames from a socket with a read timeout.
pub struct LineReader {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Prefix of `buf` already searched for a newline.
    scanned: usize,
}

impl LineReader {
    pub fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_read_timeout(Some(POLL))?;
        Ok(Self {
            stream,
            buf: Vec::new(),
            scanned: 0,
        })
    }

    /// The next complete line without its newline, or `None` when the poll
    /// interval passed first; a partial line stays buffered for the next
    /// call.
    pub fn poll_line(&mut self) -> std::io::Result<Option<Vec<u8>>> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            if let Some(pos) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
                let rest = self.buf.split_off(self.scanned + pos + 1);
                let mut line = std::mem::replace(&mut self.buf, rest);
                line.pop();
                self.scanned = 0;
                return Ok(Some(line));
            }
            self.scanned = self.buf.len();
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(k) => self.buf.extend_from_slice(&chunk[..k]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Ok(None)
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    #[cfg(test)]
    fn buffered(&self) -> usize {
        self.buf.len()
    }
}

fn connect(addr: SocketAddr) -> std::io::Result<(TcpStream, LineReader)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let reader = LineReader::new(stream.try_clone()?)?;
    Ok((stream, reader))
}

/// One request with its frame encoded before the phase starts.
pub struct Req {
    pub query: Query,
    pub frame: String,
    /// Keep the decoded reply for the oracle and the encode replay.
    pub keep: bool,
}

impl Req {
    /// `tag` must be the request's index in its connection's list.
    pub fn new(tag: usize, query: Query, keep: bool) -> Self {
        let frame = wire::encode(&Request::Query {
            tag: tag as u64,
            query,
            deadline_ms: None,
        });
        Self { query, frame, keep }
    }
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Status {
    #[default]
    Unresolved,
    Served,
    Shed,
    Timeout,
    Error,
}

/// What happened to one request.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub query: Query,
    pub conn: usize,
    pub tag: usize,
    pub status: Status,
    /// Scheduled send time (open loop only).
    pub due: Option<Instant>,
    pub sent: Option<Instant>,
    /// When the whole reply line had arrived (before decoding).
    pub done: Option<Instant>,
    pub reply_bytes: usize,
    pub decode_ns: u64,
    pub edges: u64,
    pub kept: Option<QueryReply>,
}

impl Outcome {
    /// Milliseconds from when the request was due (scheduled send time,
    /// else actual send time) to its reply — so a generator stall counts
    /// against every request it delayed.
    pub fn latency_ms(&self) -> Option<f64> {
        let from = self.due.or(self.sent)?;
        Some(self.done?.duration_since(from).as_secs_f64() * 1e3)
    }

    /// Milliseconds the generator sent after the scheduled time.
    pub fn late_ms(&self) -> Option<f64> {
        Some(self.sent?.duration_since(self.due?).as_secs_f64() * 1e3)
    }

    /// Decodes a reply line into this outcome. A reply past the deadline
    /// counts as unresolved; a reply of the wrong kind as an error.
    fn resolve(
        &mut self,
        line: &[u8],
        done: Instant,
        response: Response,
        deadline: Duration,
        keep: bool,
    ) {
        self.done = Some(done);
        self.reply_bytes = line.len() + 1;
        self.status = match response {
            Response::Ok(reply) if reply.kind == self.query.kind_name() => {
                self.edges = reply.edges;
                if keep {
                    self.kept = Some(reply);
                }
                Status::Served
            }
            Response::Rejected { .. } => Status::Shed,
            Response::Timeout { .. } => Status::Timeout,
            _ => Status::Error,
        };
        if self.sent.is_some_and(|s| done.duration_since(s) > deadline) {
            self.status = Status::Unresolved;
        }
    }
}

/// Decodes one reply line, timing the decode; `None` for a line that is not
/// a wire-v1 response with a tag.
fn decode(line: &[u8]) -> Option<(u64, Response, u64)> {
    let started = Instant::now();
    let response = wire::decode::<Response>(std::str::from_utf8(line).ok()?).ok()?;
    let ns = started.elapsed().as_nanos() as u64;
    let tag = match &response {
        Response::Ok(r) => r.tag,
        Response::Rejected { tag, .. }
        | Response::Timeout { tag, .. }
        | Response::Pong { tag }
        | Response::Stats { tag, .. } => *tag,
        Response::Error { tag, .. } => (*tag)?,
    };
    Some((tag, response, ns))
}

/// A phase's outcomes; `outcomes` holds every attempted request.
pub struct Phase {
    pub outcomes: Vec<Outcome>,
    pub started: Instant,
    pub ended: Instant,
}

/// Connects, sends one `ping` and waits up to `timeout` for the `pong`.
pub fn ping(addr: SocketAddr, timeout: Duration) -> Result<(), String> {
    let (mut stream, mut reader) = connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .write_all(wire::encode(&Request::Ping { tag: 0 }).as_bytes())
        .map_err(|e| format!("ping {addr}: {e}"))?;
    let started = Instant::now();
    while started.elapsed() < timeout {
        if let Some(line) = reader
            .poll_line()
            .map_err(|e| format!("ping {addr}: {e}"))?
        {
            return match decode(&line) {
                Some((0, Response::Pong { .. }, _)) => Ok(()),
                _ => Err(format!("ping {addr}: unexpected reply")),
            };
        }
    }
    Err(format!("ping {addr}: no reply within {timeout:?}"))
}

/// Open loop on one connection: this thread sends each request at
/// `start + offsets[i]` whatever the server does, a second thread reads
/// replies. Every scheduled request is attempted; requests left unsent
/// because the connection failed stay unresolved.
pub fn open_loop(
    addr: SocketAddr,
    reqs: &[Req],
    offsets: &[Duration],
    deadline: Duration,
) -> std::io::Result<Phase> {
    let (mut writer, mut reader) = connect(addr)?;
    let outcomes = Mutex::new(
        reqs.iter()
            .enumerate()
            .map(|(tag, r)| Outcome {
                query: r.query,
                tag,
                ..Outcome::default()
            })
            .collect::<Vec<_>>(),
    );
    let sent = AtomicUsize::new(0);
    let sending = AtomicBool::new(true);
    let last_send = Mutex::new(Instant::now());
    let started = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut resolved = 0usize;
            loop {
                match reader.poll_line() {
                    Ok(Some(line)) => {
                        let done = Instant::now();
                        if let Some((tag, response, ns)) = decode(&line) {
                            let mut out = outcomes.lock().expect("outcomes lock");
                            if let Some(o) = out.get_mut(tag as usize).filter(|o| o.done.is_none())
                            {
                                o.resolve(&line, done, response, deadline, reqs[tag as usize].keep);
                                o.decode_ns = ns;
                                resolved += 1;
                            }
                        }
                    }
                    Ok(None) => {}
                    Err(_) => break,
                }
                if !sending.load(Ordering::Acquire) {
                    let all_answered = resolved >= sent.load(Ordering::Acquire);
                    let expired = last_send.lock().expect("last send lock").elapsed() > deadline;
                    if all_answered || expired {
                        break;
                    }
                }
            }
        });
        for (i, (req, offset)) in reqs.iter().zip(offsets).enumerate() {
            let due = started + *offset;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let at = Instant::now();
            {
                let mut out = outcomes.lock().expect("outcomes lock");
                out[i].due = Some(due);
                out[i].sent = Some(at);
            }
            *last_send.lock().expect("last send lock") = at;
            if writer.write_all(req.frame.as_bytes()).is_err() {
                break;
            }
            sent.store(i + 1, Ordering::Release);
        }
        sending.store(false, Ordering::Release);
    });
    Ok(Phase {
        outcomes: outcomes.into_inner().expect("outcomes lock"),
        started,
        ended: Instant::now(),
    })
}

/// Closed loop: one thread per connection keeps `inflight` requests
/// outstanding, sending from its own list until `run_for` has passed and at
/// least `min_each` were sent (or the list runs out). Only sent requests
/// are attempted.
pub fn closed_loop(
    addr: SocketAddr,
    lists: &[Vec<Req>],
    inflight: usize,
    run_for: Duration,
    min_each: usize,
    deadline: Duration,
) -> std::io::Result<Phase> {
    let started = Instant::now();
    let per_conn: Vec<std::io::Result<Vec<Outcome>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = lists
            .iter()
            .enumerate()
            .map(|(conn, reqs)| {
                scope.spawn(move || {
                    closed_conn(
                        addr,
                        conn,
                        reqs,
                        inflight,
                        started + run_for,
                        min_each,
                        deadline,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut outcomes = Vec::new();
    for conn in per_conn {
        outcomes.extend(conn?);
    }
    Ok(Phase {
        outcomes,
        started,
        ended: Instant::now(),
    })
}

fn closed_conn(
    addr: SocketAddr,
    conn: usize,
    reqs: &[Req],
    inflight: usize,
    stop_at: Instant,
    min_each: usize,
    deadline: Duration,
) -> std::io::Result<Vec<Outcome>> {
    let (mut writer, mut reader) = connect(addr)?;
    let mut outcomes: Vec<Outcome> = Vec::with_capacity(reqs.len());
    let mut outstanding = 0usize;
    let mut send_next = |outcomes: &mut Vec<Outcome>, outstanding: &mut usize| -> bool {
        let i = outcomes.len();
        let wanted = i < min_each || Instant::now() < stop_at;
        if i >= reqs.len() || !wanted {
            return false;
        }
        outcomes.push(Outcome {
            query: reqs[i].query,
            conn,
            tag: i,
            sent: Some(Instant::now()),
            ..Outcome::default()
        });
        if writer.write_all(reqs[i].frame.as_bytes()).is_err() {
            return false;
        }
        *outstanding += 1;
        true
    };
    for _ in 0..inflight {
        if !send_next(&mut outcomes, &mut outstanding) {
            break;
        }
    }
    while outstanding > 0 {
        match reader.poll_line() {
            Ok(Some(line)) => {
                let done = Instant::now();
                let Some((tag, response, ns)) = decode(&line) else {
                    continue;
                };
                let Some(o) = outcomes.get_mut(tag as usize).filter(|o| o.done.is_none()) else {
                    continue;
                };
                o.resolve(&line, done, response, deadline, reqs[tag as usize].keep);
                o.decode_ns = ns;
                outstanding -= 1;
                send_next(&mut outcomes, &mut outstanding);
            }
            Ok(None) => {
                let oldest = outcomes
                    .iter()
                    .filter(|o| o.done.is_none())
                    .filter_map(|o| o.sent)
                    .min();
                if oldest.is_some_and(|s| s.elapsed() > deadline) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::mpsc;

    #[test]
    fn a_frame_split_across_a_read_timeout_is_read_back_whole() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let frame = wire::encode(&Response::Pong { tag: 77 });
        let (head, tail) = frame.split_at(frame.len() / 2);
        let (go_tx, go_rx) = mpsc::channel::<()>();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let (mut server, _) = listener.accept().unwrap();
                server.write_all(head.as_bytes()).unwrap();
                go_rx.recv().unwrap();
                server.write_all(tail.as_bytes()).unwrap();
            });
            let mut reader = LineReader::new(TcpStream::connect(addr).unwrap()).unwrap();
            // Read until the head is buffered; the writer is blocked on the
            // channel, so the next poll can only end in a timeout.
            while reader.buffered() < head.len() {
                assert_eq!(reader.poll_line().unwrap(), None);
            }
            assert_eq!(
                reader.poll_line().unwrap(),
                None,
                "timeout with a partial line"
            );
            go_tx.send(()).unwrap();
            let line = loop {
                if let Some(line) = reader.poll_line().unwrap() {
                    break line;
                }
            };
            assert_eq!(line, frame.trim_end().as_bytes());
            assert!(matches!(
                decode(&line),
                Some((77, Response::Pong { .. }, _))
            ));
        });
    }

    #[test]
    fn latency_counts_from_the_scheduled_send_time() {
        let due = Instant::now();
        let o = Outcome {
            due: Some(due),
            sent: Some(due + Duration::from_millis(3)),
            done: Some(due + Duration::from_millis(5)),
            ..Outcome::default()
        };
        assert!((o.latency_ms().unwrap() - 5.0).abs() < 1e-9);
        assert!((o.late_ms().unwrap() - 3.0).abs() < 1e-9);
        let closed = Outcome { due: None, ..o };
        assert!((closed.latency_ms().unwrap() - 2.0).abs() < 1e-9);
    }
}

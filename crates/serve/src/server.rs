//! The TCP front-end: accept loop, per-connection readers, admission.
//!
//! Thread layout: the caller's thread runs the accept loop; each accepted
//! connection gets a reader thread; one [`crate::scheduler`] thread seals
//! and executes waves. A connection's stream is cloned into an
//! `Arc<Mutex<TcpStream>>` writer handle shared between its reader (which
//! answers `stats`/`ping`/rejections inline) and the scheduler (which
//! writes query answers), so replies from both never interleave
//! mid-frame.
//!
//! Admission is the reader-side path: a query frame is validated, then
//! `try_submit` either parks it in the batcher together with its reply
//! handle, tag and deadline, where it stays until its wave completes, or
//! reports `Overloaded`/`Closed`, which the reader answers immediately
//! with a structured `rejected` frame — the bounded queue sheds by
//! replying, never by dropping. The batcher's lock is the only admission
//! lock: a parked query and its reply handle are one queue entry.
//!
//! Shutdown is drain-then-exit: a [`ShutdownHandle`] request (or SIGINT
//! via [`arm_sigint`]) ends the accept loop, which closes the batcher;
//! readers stop admitting, the scheduler executes every still-parked
//! wave, answers them, and only then does [`serve`] return.

use crate::scheduler;
use crate::shed::{ServerStats, StatsHub};
use crate::wire::{self, RejectReason, Request, Response};
use mcbfs_graph::csr::CsrGraph;
use mcbfs_query::{AdmitError, Admitted, BatchReport, BatcherOpts, QueryBatcher, QueryEngine};
use mcbfs_trace::EventKind;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeOpts {
    /// Bind address, e.g. `127.0.0.1:7411` (port 0 picks a free port,
    /// reported through `serve`'s ready callback).
    pub addr: String,
    /// Worker threads per wave (0 = the engine's default).
    pub threads: usize,
    /// Has no effect on serving: the scheduler executes one wave at a time
    /// on its own thread. Kept for callers that build a `QueryEngine` with
    /// `.sockets(..)` from these options.
    pub sockets: usize,
    /// Queries per wave (clamped to the kernel width, 64).
    pub max_batch: usize,
    /// Continuous-batching age deadline: a partial wave is sealed once its
    /// oldest query has waited this long.
    pub max_wait: Duration,
    /// Admission high-water mark: pending queries beyond this are shed
    /// with an explicit `rejected: overloaded` reply.
    pub queue_cap: usize,
    /// Deadline applied to requests that don't carry their own.
    pub default_deadline: Option<Duration>,
}

impl Default for ServeOpts {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7411".to_string(),
            threads: 0,
            sockets: 1,
            max_batch: 64,
            max_wait: Duration::from_millis(2),
            queue_cap: 256,
            default_deadline: None,
        }
    }
}

/// How often a blocked accept loop or connection reader wakes to check
/// for shutdown, in milliseconds.
const DRAIN_POLL_MS: libc::c_int = 50;

/// SIGINT latch shared between the C handler and [`ShutdownHandle`].
static SIGINT_HIT: AtomicBool = AtomicBool::new(false);

extern "C" fn sigint_trampoline(_signum: libc::c_int) {
    SIGINT_HIT.store(true, Ordering::Release);
}

/// Installs a SIGINT handler that requests a graceful drain (every
/// [`ShutdownHandle`] observes it). Call once before [`serve`].
pub fn arm_sigint() {
    unsafe {
        let handler = sigint_trampoline as extern "C" fn(libc::c_int);
        libc::signal(libc::SIGINT, handler as usize as libc::sighandler_t);
    }
}

/// Cooperative shutdown request, shareable across threads.
#[derive(Clone, Debug, Default)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
}

impl ShutdownHandle {
    /// A handle with no request pending.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests a graceful drain-then-exit.
    pub fn request(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// True once shutdown was requested (directly or via SIGINT).
    pub fn requested(&self) -> bool {
        self.flag.load(Ordering::Acquire) || SIGINT_HIT.load(Ordering::Acquire)
    }
}

/// Per-connection write handle; a `Mutex` keeps frames whole when the
/// reader and the scheduler answer concurrently.
pub(crate) type ConnWriter = Arc<Mutex<TcpStream>>;

/// What the server parks with each admitted query: how to answer it.
pub(crate) struct ReplyTo {
    /// Client tag to echo.
    pub tag: u64,
    /// Where the answer goes.
    pub writer: ConnWriter,
    /// Effective deadline (request's own, or the server default), counted
    /// from the query's submission.
    pub deadline: Option<Duration>,
}

/// What the scheduler needs from a wave backend. The single-process
/// server plugs in [`QueryEngine`] directly; the sharded router plugs in
/// a scatter/gather executor that runs the wave across worker processes —
/// the whole serving front (wire protocol, admission, batching, deadline
/// bookkeeping, drain) is reused unchanged either way via [`serve_with`].
pub trait WaveExecutor: Sync {
    /// Executes one sealed wave; outcomes must be in wave order.
    fn execute_wave(&self, wave: &[Admitted]) -> BatchReport;

    /// Folds backend processes into a `stats` reply. `local` is this
    /// process's snapshot and `window` its raw latency samples; the
    /// default (single-process) topology reports `local` untouched.
    fn merged_stats(&self, local: ServerStats, window: &[f64]) -> ServerStats {
        let _ = window;
        local
    }
}

impl WaveExecutor for QueryEngine<'_> {
    fn execute_wave(&self, wave: &[Admitted]) -> BatchReport {
        QueryEngine::execute_wave(self, wave)
    }
}

/// State shared by the accept loop, readers, and the scheduler.
pub(crate) struct Shared<E: WaveExecutor> {
    pub executor: E,
    pub batcher: QueryBatcher<ReplyTo>,
    pub hub: StatsHub,
    pub vertices: u32,
}

impl<E: WaveExecutor> Shared<E> {
    pub fn stats(&self) -> ServerStats {
        let local = self.hub.snapshot(self.batcher.submitted());
        self.executor
            .merged_stats(local, &self.hub.latency_window())
    }
}

/// Writes one frame; a failed write means the client left, which is not a
/// serving error (the query itself was still accounted).
pub(crate) fn write_frame(writer: &ConnWriter, response: &Response) {
    let line = wire::encode(response);
    let mut stream = writer.lock().expect("connection writer lock");
    let _ = stream
        .write_all(line.as_bytes())
        .and_then(|_| stream.flush());
}

/// Runs the server until `shutdown` is requested, then drains and returns
/// the final statistics. `on_ready` fires once with the bound address
/// (after which connections are being accepted).
pub fn serve<F: FnOnce(SocketAddr)>(
    graph: &CsrGraph,
    opts: &ServeOpts,
    shutdown: &ShutdownHandle,
    on_ready: F,
) -> std::io::Result<ServerStats> {
    let mut engine = QueryEngine::new(graph).max_batch(opts.max_batch);
    if opts.threads > 0 {
        engine = engine.threads(opts.threads);
    }
    serve_with(
        engine,
        graph.num_vertices() as u64,
        graph.num_edges() as u64,
        opts,
        shutdown,
        on_ready,
    )
}

/// [`serve`] with a pluggable wave backend: runs the full serving front
/// (accept loop, readers, continuous-batching scheduler, drain) over any
/// [`WaveExecutor`]. `vertices`/`edges` describe the graph the backend
/// answers for (they gate admission-side range checks and seed the stats
/// shape).
pub fn serve_with<E: WaveExecutor, F: FnOnce(SocketAddr)>(
    executor: E,
    vertices: u64,
    edges: u64,
    opts: &ServeOpts,
    shutdown: &ShutdownHandle,
    on_ready: F,
) -> std::io::Result<ServerStats> {
    let listener = TcpListener::bind(&opts.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let shared = Shared {
        executor,
        batcher: QueryBatcher::new(
            BatcherOpts {
                max_batch: opts.max_batch,
                max_wait: opts.max_wait,
            },
            opts.queue_cap,
        ),
        hub: StatsHub::new(vertices, edges),
        vertices: vertices as u32,
    };
    let default_deadline = opts.default_deadline;

    on_ready(addr);
    std::thread::scope(|scope| {
        let sched = scope.spawn(|| scheduler::run(&shared));
        accept_loop(&listener, shutdown, |stream| {
            shared.hub.connections.fetch_add(1, Ordering::Relaxed);
            scope.spawn(|| run_connection(stream, &shared, default_deadline));
        });
        // Drain-then-exit: stop admitting, let the scheduler flush every
        // parked wave, then wait for readers to notice and finish.
        shared.batcher.close();
        let _ = sched.join();
    });
    Ok(shared.stats())
}

/// Hands every connection `listener` accepts to `on_accept` until
/// `shutdown` is requested. The listener must be non-blocking. While no
/// connection waits, the loop blocks in `poll(2)` for at most the readers'
/// 50 ms drain-poll period, so a shutdown request is noticed as quickly as
/// the readers notice it, and SIGINT wakes it at once with `EINTR`.
pub fn accept_loop(
    listener: &TcpListener,
    shutdown: &ShutdownHandle,
    mut on_accept: impl FnMut(TcpStream),
) {
    while !shutdown.requested() {
        match listener.accept() {
            Ok((stream, _)) => on_accept(stream),
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                let mut waiting = libc::pollfd {
                    fd: listener.as_raw_fd(),
                    events: libc::POLLIN,
                    revents: 0,
                };
                // SAFETY: `waiting` is one valid `pollfd` that outlives the
                // call, and the descriptor stays open while `listener` is
                // borrowed. Any result, an error included, just sends the
                // loop back to `accept`.
                unsafe { libc::poll(&mut waiting, 1, DRAIN_POLL_MS) };
            }
            // Transient accept failures (e.g. aborted handshakes)
            // must not take the server down.
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// One connection's reader loop: frames in, inline replies out, queries
/// parked for the scheduler. Malformed lines get an `error` reply and the
/// connection stays open.
fn run_connection<E: WaveExecutor>(
    stream: TcpStream,
    shared: &Shared<E>,
    default_deadline: Option<Duration>,
) {
    let writer: ConnWriter = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    read_lines(
        stream,
        || shared.batcher.is_closed(),
        |line| {
            handle_frame(line, &writer, shared, default_deadline);
            true
        },
    );
}

/// Hands each non-blank newline-terminated frame that arrives on `stream`
/// to `on_line` until the peer closes, a read fails, `stop` turns true or
/// `on_line` returns false.
pub fn read_lines(
    stream: TcpStream,
    stop: impl Fn() -> bool,
    mut on_line: impl FnMut(&str) -> bool,
) {
    // Answers are sub-MTU JSON lines; Nagle would batch them behind
    // delayed ACKs and dominate the measured latency.
    stream.set_nodelay(true).ok();
    // The periodic timeout is the drain poll: readers must notice
    // shutdown without a frame arriving.
    if stream
        .set_read_timeout(Some(Duration::from_millis(DRAIN_POLL_MS as u64)))
        .is_err()
    {
        return;
    }
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    while !stop() {
        // A timeout can land mid-frame: the bytes read so far stay in
        // `line` and the next read appends the rest.
        match reader.read_until(b'\n', &mut line) {
            Ok(0) => return,
            Ok(_) => {
                let text = String::from_utf8_lossy(&line);
                let go_on = text.trim().is_empty() || on_line(&text);
                line.clear();
                if !go_on {
                    return;
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => return,
        }
    }
}

fn handle_frame<E: WaveExecutor>(
    line: &str,
    writer: &ConnWriter,
    shared: &Shared<E>,
    default_deadline: Option<Duration>,
) {
    let request = match wire::decode::<Request>(line) {
        Ok(r) => r,
        Err(err) => {
            shared.hub.protocol_errors.fetch_add(1, Ordering::Relaxed);
            // A version mismatch parsed as JSON, so its tag is exact; only
            // truly malformed lines fall back to best-effort salvage.
            let tag = match &err {
                wire::WireError::Version { tag, .. } => *tag,
                wire::WireError::Malformed(_) => wire::salvage_tag(line),
            };
            write_frame(
                writer,
                &Response::Error {
                    tag,
                    error: err.to_string(),
                },
            );
            return;
        }
    };
    match request {
        Request::Ping { tag } => write_frame(writer, &Response::Pong { tag }),
        Request::Stats { tag } => write_frame(
            writer,
            &Response::Stats {
                tag,
                stats: shared.stats(),
            },
        ),
        Request::Query {
            tag,
            query,
            deadline_ms,
        } => {
            let out_of_range = query.source() >= shared.vertices
                || query.target().is_some_and(|t| t >= shared.vertices);
            if out_of_range {
                shared.hub.errors.fetch_add(1, Ordering::Relaxed);
                write_frame(
                    writer,
                    &Response::Error {
                        tag: Some(tag),
                        error: format!(
                            "vertex out of range (graph has {} vertices)",
                            shared.vertices
                        ),
                    },
                );
                return;
            }
            let deadline = deadline_ms
                .map(|ms| Duration::from_secs_f64(ms.max(0.0) / 1e3))
                .or(default_deadline);
            let reply_to = ReplyTo {
                tag,
                writer: Arc::clone(writer),
                deadline,
            };
            if let Err(err) = shared.batcher.try_submit(query, reply_to) {
                shared.hub.shed.fetch_add(1, Ordering::Relaxed);
                mcbfs_trace::instant(EventKind::QueryShed, shared.batcher.pending() as u64);
                let reason = match err {
                    AdmitError::Overloaded => RejectReason::Overloaded,
                    AdmitError::Closed => RejectReason::Draining,
                };
                write_frame(writer, &Response::Rejected { tag, reason });
            }
        }
    }
}

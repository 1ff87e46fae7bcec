//! Hosts the system under test in this process through its public entry
//! points: `mcbfs_serve::serve` for one process, or `run_worker` per shard
//! plus `Router::connect` and `serve_with` for a cluster. Servers bind port
//! 0 on loopback. Stopping signals each `ShutdownHandle` and waits a
//! bounded time for the thread to end.

use crate::client;
use crate::inputs::{self, GraphSpec};
use crate::trace::{Spans, Timed, WaveLog, LANE_SETUP};
use mcbfs_graph::csr::CsrGraph;
use mcbfs_query::QueryEngine;
use mcbfs_serve::{serve, serve_with, ServeOpts, ServerStats, ShutdownHandle};
use mcbfs_shard::{run_worker, Router};
use std::net::SocketAddr;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const READY_TIMEOUT: Duration = Duration::from_secs(10);
const STOP_TIMEOUT: Duration = Duration::from_secs(15);

/// Wave timing and spans for a traced run.
#[derive(Clone)]
pub struct Tracing {
    pub log: Arc<WaveLog>,
    pub spans: Arc<Spans>,
}

struct Hosted {
    shutdown: ShutdownHandle,
    thread: JoinHandle<std::io::Result<ServerStats>>,
}

impl Hosted {
    /// Requests shutdown and waits up to `STOP_TIMEOUT` for the thread.
    fn stop(self, what: &str) -> Result<(), String> {
        self.shutdown.request();
        let deadline = Instant::now() + STOP_TIMEOUT;
        while !self.thread.is_finished() {
            if Instant::now() > deadline {
                return Err(format!("{what} did not stop within {STOP_TIMEOUT:?}"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        match self.thread.join() {
            Ok(Ok(_)) => Ok(()),
            Ok(Err(e)) => Err(format!("{what}: {e}")),
            Err(_) => Err(format!("{what} panicked")),
        }
    }
}

/// Spawns `body` on a thread, handing it a shutdown handle and a callback
/// that reports the bound address; returns once the address is known.
fn host<F>(body: F) -> Result<(Hosted, SocketAddr), String>
where
    F: FnOnce(&ShutdownHandle, &dyn Fn(SocketAddr)) -> std::io::Result<ServerStats>
        + Send
        + 'static,
{
    let shutdown = ShutdownHandle::new();
    let (tx, rx) = mpsc::channel();
    let handle = shutdown.clone();
    let thread = std::thread::spawn(move || {
        body(&handle, &|addr| {
            let _ = tx.send(addr);
        })
    });
    let addr = rx
        .recv_timeout(READY_TIMEOUT)
        .map_err(|_| "server did not come up".to_string())?;
    Ok((Hosted { shutdown, thread }, addr))
}

/// A running single-process server or cluster.
pub struct System {
    pub addr: SocketAddr,
    /// The served graph (single process only).
    pub graph: Option<Arc<CsrGraph>>,
    pub router: Option<Arc<Router>>,
    /// Milliseconds reading the CSR or the shard files.
    pub load_ms: f64,
    /// Milliseconds in `Router::connect` (cluster only).
    pub connect_ms: f64,
    front: Hosted,
    workers: Vec<Hosted>,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Brings the system up from the cached files and answers one `ping`; with
/// `tracing`, the wave executor is wrapped in [`Timed`] and each set-up
/// step is recorded as a `setup.*` span.
pub fn start(spec: &GraphSpec, tracing: Option<&Tracing>) -> Result<System, String> {
    let span = |name, start: Instant| {
        if let Some(t) = tracing {
            t.spans.record(
                name,
                LANE_SETUP,
                String::new(),
                start,
                Instant::now(),
                String::new(),
            );
        }
    };
    let opts = ServeOpts {
        addr: "127.0.0.1:0".to_string(),
        ..ServeOpts::default()
    };
    let t0 = Instant::now();
    let system = if spec.shards == 0 {
        let graph = Arc::new(inputs::read_csr(&spec.csr_path())?);
        let load_ms = ms_since(t0);
        span("setup.read_csr", t0);
        let t1 = Instant::now();
        let (g, tr) = (Arc::clone(&graph), tracing.cloned());
        let (front, addr) = host(move |shutdown, ready| match tr {
            None => serve(&g, &opts, shutdown, ready),
            Some(tr) => {
                // The engine `serve` would build, behind the timing wrapper.
                let engine = QueryEngine::new(&g)
                    .max_batch(opts.max_batch)
                    .sockets(opts.sockets.max(1));
                let timed = Timed {
                    inner: engine,
                    log: tr.log,
                    spans: tr.spans,
                };
                let (n, m) = (g.num_vertices() as u64, g.num_edges() as u64);
                serve_with(timed, n, m, &opts, shutdown, ready)
            }
        })?;
        span("setup.serve", t1);
        System {
            addr,
            graph: Some(graph),
            router: None,
            load_ms,
            connect_ms: 0.0,
            front,
            workers: Vec::new(),
        }
    } else {
        let shards = spec
            .shard_paths()
            .iter()
            .map(|p| inputs::read_shard(p))
            .collect::<Result<Vec<_>, _>>()?;
        let load_ms = ms_since(t0);
        span("setup.read_shards", t0);
        let t1 = Instant::now();
        let mut workers = Vec::new();
        let mut addrs = Vec::new();
        for shard in shards {
            let (worker, addr) =
                host(move |shutdown, ready| run_worker(&shard, "127.0.0.1:0", shutdown, ready))?;
            workers.push(worker);
            addrs.push(addr.to_string());
        }
        span("setup.workers", t1);
        let t2 = Instant::now();
        let router = Arc::new(Router::connect(&addrs).map_err(|e| format!("router: {e}"))?);
        let connect_ms = ms_since(t2);
        span("setup.connect", t2);
        let t3 = Instant::now();
        let (r, tr) = (Arc::clone(&router), tracing.cloned());
        let (n, m) = (router.num_vertices(), router.num_edges());
        let (front, addr) = host(move |shutdown, ready| match tr {
            None => serve_with(&*r, n, m, &opts, shutdown, ready),
            Some(tr) => {
                let timed = Timed {
                    inner: &*r,
                    log: tr.log,
                    spans: tr.spans,
                };
                serve_with(timed, n, m, &opts, shutdown, ready)
            }
        })?;
        span("setup.serve", t3);
        System {
            addr,
            graph: None,
            router: Some(router),
            load_ms,
            connect_ms,
            front,
            workers,
        }
    };
    let t4 = Instant::now();
    let pinged = client::ping(system.addr, READY_TIMEOUT);
    span("setup.ping", t4);
    match pinged {
        Ok(()) => Ok(system),
        Err(e) => {
            let _ = system.stop();
            Err(e)
        }
    }
}

impl System {
    /// Stops the front first (it drains in-flight waves), then the workers.
    pub fn stop(self) -> Result<(), String> {
        let front = self.front.stop("server");
        let workers: Result<(), String> = self
            .workers
            .into_iter()
            .enumerate()
            .try_for_each(|(i, w)| w.stop(&format!("shard worker {i}")));
        front.and(workers)
    }

    /// Asks shard worker `index` to stop without waiting for it; the
    /// router sees its connection close at the next wave.
    #[cfg(test)]
    pub fn kill_worker(&self, index: usize) {
        self.workers[index].shutdown.request();
    }
}

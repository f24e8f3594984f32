//! `pnsymd`: a long-running analysis service over the symbolic kernel.
//!
//! The daemon answers portfolio CTL queries over line-delimited JSON on
//! TCP (hand-rolled on `std::net` — the workspace stays dependency-free).
//! Three thread roles cooperate:
//!
//! * an **accept** thread turns incoming connections into reader threads;
//! * one **reader thread per connection** decodes request lines and
//!   forwards them, each with a private reply channel, to the scheduler;
//! * the single **scheduler** thread owns every [`SymbolicContext`]
//!   (contexts are deliberately not `Send`, so all evaluation funnels
//!   through here) and streams response lines back through the reply
//!   channel, which the reader thread writes to the socket.
//!
//! Warm-context reuse, portfolio subterm caching, and per-query budgets
//! live in [`pool`] and [`scheduler`]; the wire format lives in [`proto`].
//!
//! [`SymbolicContext`]: crate::SymbolicContext

pub mod pool;
pub mod proto;
pub mod scheduler;
pub mod snapshot;

pub use pool::{canonical_net_hash, ContextPool, PoolStats, WarmContext};
pub use proto::{
    CheckRequest, ErrorCode, Json, NamedFormula, PoolOutcome, ProtoError, Request, Response,
    Verdict,
};
pub use scheduler::{build_context, NetResolver, Scheduler, ServerConfig};
pub use snapshot::{SnapshotRejection, SnapshotStore};

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

/// One decoded request travelling from a connection reader thread to the
/// scheduler thread, with the channel its response stream goes back on.
struct Job {
    request: Request,
    reply: mpsc::Sender<Response>,
    /// Whether this job holds an admission slot (portfolio queries only);
    /// the scheduler loop releases it once the job is handled.
    admitted: bool,
}

/// The overload gate: portfolio queries in flight (admitted but not yet
/// fully handled), bounded by `max_inflight + max_queue`. Cheap requests
/// (ping/stats/shutdown) bypass it — they must keep working on an
/// overloaded daemon, that is what they are for.
struct Admission {
    pending: AtomicUsize,
    capacity: usize,
}

impl Admission {
    /// Tries to take a slot; on rejection returns the pending count the
    /// retry-after hint is derived from.
    fn try_acquire(&self) -> Result<(), usize> {
        let mut current = self.pending.load(Ordering::Relaxed);
        loop {
            if current >= self.capacity {
                return Err(current);
            }
            match self.pending.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(()),
                Err(seen) => current = seen,
            }
        }
    }

    fn release(&self) {
        self.pending.fetch_sub(1, Ordering::AcqRel);
    }

    /// The backoff hint for a rejected query: scales with the queue the
    /// client would be waiting behind, clamped to a sane band.
    fn retry_after_ms(pending: usize) -> u64 {
        (25 * pending as u64).clamp(25, 5_000)
    }
}

/// A running daemon: its bound address plus the handles needed to stop it.
pub struct ServerHandle {
    addr: SocketAddr,
    jobs: mpsc::Sender<Job>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<thread::JoinHandle<()>>,
    scheduler_thread: Option<thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the daemon is listening on (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the daemon stops (a client `shutdown` request), then
    /// joins its threads.
    pub fn wait(mut self) {
        if let Some(t) = self.scheduler_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// Stops the daemon: unblocks the accept loop, stops the scheduler,
    /// and joins both threads. Idempotent with a client-initiated
    /// `shutdown` request.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The scheduler breaks its receive loop on a Shutdown job; the
        // reply channel is dropped unread.
        let (tx, _rx) = mpsc::channel();
        let _ = self.jobs.send(Job {
            request: Request::Shutdown { id: 0 },
            reply: tx,
            admitted: false,
        });
        // Poke the blocking accept() so the accept thread observes the
        // stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.scheduler_thread.take() {
            let _ = t.join();
        }
    }
}

/// Binds `addr` (use port 0 for an ephemeral port) and starts the daemon
/// with the given scheduler configuration and net resolver. Returns once
/// the listener is accepting; queries are served until
/// [`ServerHandle::shutdown`] or a client `shutdown` request.
pub fn serve(
    addr: impl ToSocketAddrs,
    config: ServerConfig,
    resolver: NetResolver,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let (jobs_tx, jobs_rx) = mpsc::channel::<Job>();
    let admission = Arc::new(Admission {
        pending: AtomicUsize::new(0),
        capacity: config.max_inflight.saturating_add(config.max_queue).max(1),
    });

    let scheduler_stop = Arc::clone(&stop);
    let scheduler_admission = Arc::clone(&admission);
    let scheduler_thread = thread::Builder::new()
        .name("pnsymd-scheduler".to_string())
        .spawn(move || {
            let mut scheduler = Scheduler::new(config, resolver);
            while let Ok(job) = jobs_rx.recv() {
                let is_shutdown = matches!(job.request, Request::Shutdown { .. });
                scheduler.handle(&job.request, &mut |resp| {
                    let _ = job.reply.send(resp);
                });
                if job.admitted {
                    scheduler_admission.release();
                }
                if is_shutdown {
                    scheduler_stop.store(true, Ordering::SeqCst);
                    // Unblock accept() so the accept thread can exit.
                    let _ = TcpStream::connect(addr);
                    break;
                }
            }
        })?;

    let accept_stop = Arc::clone(&stop);
    let accept_jobs = jobs_tx.clone();
    let accept_thread = thread::Builder::new()
        .name("pnsymd-accept".to_string())
        .spawn(move || {
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let jobs = accept_jobs.clone();
                let gate = Arc::clone(&admission);
                let _ = thread::Builder::new()
                    .name("pnsymd-conn".to_string())
                    .spawn(move || handle_connection(stream, jobs, gate));
            }
        })?;

    Ok(ServerHandle {
        addr,
        jobs: jobs_tx,
        stop,
        accept_thread: Some(accept_thread),
        scheduler_thread: Some(scheduler_thread),
    })
}

/// Reads request lines off one connection until the peer closes it. Every
/// malformed line is answered with a terminal typed error — the connection
/// itself always survives bad input.
fn handle_connection(stream: TcpStream, jobs: mpsc::Sender<Job>, admission: Arc<Admission>) {
    // Responses are small lines written one at a time; Nagle's algorithm
    // would serialize each behind the peer's delayed ACK.
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        if line.trim().is_empty() {
            continue;
        }
        let request = match Request::parse(line.trim_end()) {
            Ok(request) => request,
            Err(err) => {
                if write_line(&mut writer, &err.into_response(0).to_line()).is_err() {
                    return;
                }
                continue;
            }
        };
        // Only portfolio queries pass the admission gate: they are the
        // expensive work. Control requests must keep answering while the
        // daemon sheds load.
        let admitted = if matches!(request, Request::Check(_)) {
            match admission.try_acquire() {
                Ok(()) => true,
                Err(pending) => {
                    let resp = Response::Error {
                        id: request.id(),
                        code: ErrorCode::Overloaded,
                        message: format!("{pending} queries already pending"),
                        terminal: true,
                        retry_after_ms: Some(Admission::retry_after_ms(pending)),
                    };
                    if write_line(&mut writer, &resp.to_line()).is_err() {
                        return;
                    }
                    continue;
                }
            }
        } else {
            false
        };
        let is_shutdown = matches!(request, Request::Shutdown { .. });
        let (reply_tx, reply_rx) = mpsc::channel::<Response>();
        if jobs
            .send(Job {
                request,
                reply: reply_tx,
                admitted,
            })
            .is_err()
        {
            if admitted {
                admission.release();
            }
            // Scheduler already stopped: answer with a terminal typed
            // error rather than dropping the connection mid-request.
            let resp = Response::Error {
                id: 0,
                code: ErrorCode::Internal,
                message: "server is shutting down".to_string(),
                terminal: true,
                retry_after_ms: None,
            };
            let _ = write_line(&mut writer, &resp.to_line());
            return;
        }
        // The scheduler drops its reply sender when the stream is
        // complete, which ends this iterator.
        for resp in reply_rx {
            if write_line(&mut writer, &resp.to_line()).is_err() {
                return;
            }
        }
        if is_shutdown {
            return;
        }
    }
}

fn write_line(writer: &mut TcpStream, line: &str) -> io::Result<()> {
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

/// Client-side resilience knobs: timeouts, reconnect retries, backoff.
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// Timeout for establishing the TCP connection.
    pub connect_timeout: Duration,
    /// Timeout for each response line. A hung or dead daemon surfaces as
    /// [`ClientError::Timeout`] instead of blocking forever.
    pub read_timeout: Duration,
    /// How many times [`Client::request`] reconnects and resends after a
    /// connection-level failure (requests are idempotent by id, so a
    /// resend can at worst recompute). `0` fails fast.
    pub retries: u32,
    /// First reconnect backoff; doubles per attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Seed for the backoff jitter (splitmix64 over attempt count), so
    /// client fleets retrying a restarted daemon do not stampede in sync.
    pub jitter_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(10),
            read_timeout: Duration::from_secs(120),
            retries: 0,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            jitter_seed: 0x5eed,
        }
    }
}

/// A typed client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Establishing (or re-establishing) the TCP connection failed.
    Connect(io::Error),
    /// The daemon produced no response line within the read timeout.
    Timeout,
    /// The connection failed mid-exchange (reset, or closed before the
    /// terminal line).
    Io(io::Error),
    /// A response line failed to decode.
    Protocol(ProtoError),
}

impl ClientError {
    /// Whether reconnect-and-resend can plausibly recover: connection
    /// failures can (the daemon may be restarting), timeouts and protocol
    /// errors cannot (the daemon is alive and answered, or is answering
    /// garbage).
    fn is_retryable(&self) -> bool {
        matches!(self, ClientError::Connect(_) | ClientError::Io(_))
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Connect(err) => write!(f, "connect failed: {err}"),
            ClientError::Timeout => write!(f, "timed out waiting for a response line"),
            ClientError::Io(err) => write!(f, "connection failed: {err}"),
            ClientError::Protocol(err) => write!(f, "bad response line: {err}"),
        }
    }
}

impl std::error::Error for ClientError {}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A blocking protocol client over one TCP connection, with connect/read
/// timeouts and optional reconnect-with-backoff on connection failures.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    peer: SocketAddr,
    config: ClientConfig,
}

impl Client {
    /// Connects to a running daemon with [`ClientConfig::default`]
    /// timeouts (and no retries).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit resilience knobs.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
    ) -> Result<Client, ClientError> {
        let mut last = None;
        for peer in addr.to_socket_addrs().map_err(ClientError::Connect)? {
            match Client::open(peer, config) {
                Ok(client) => return Ok(client),
                Err(err) => last = Some(err),
            }
        }
        Err(last.unwrap_or_else(|| {
            ClientError::Connect(io::Error::new(
                io::ErrorKind::AddrNotAvailable,
                "address resolved to nothing",
            ))
        }))
    }

    fn open(peer: SocketAddr, config: ClientConfig) -> Result<Client, ClientError> {
        let writer = TcpStream::connect_timeout(&peer, config.connect_timeout)
            .map_err(ClientError::Connect)?;
        writer.set_nodelay(true).map_err(ClientError::Connect)?;
        writer
            .set_read_timeout(Some(config.read_timeout))
            .map_err(ClientError::Connect)?;
        let reader = BufReader::new(writer.try_clone().map_err(ClientError::Connect)?);
        Ok(Client {
            reader,
            writer,
            peer,
            config,
        })
    }

    /// Drops the current connection and dials the same peer again.
    fn reconnect(&mut self) -> Result<(), ClientError> {
        *self = Client::open(self.peer, self.config)?;
        Ok(())
    }

    /// Sends one raw line verbatim (for protocol-robustness tests); the
    /// trailing newline is added.
    pub fn send_raw(&mut self, line: &str) -> Result<(), ClientError> {
        let io = (|| {
            self.writer.write_all(line.as_bytes())?;
            self.writer.write_all(b"\n")?;
            self.writer.flush()
        })();
        io.map_err(ClientError::Io)
    }

    /// Reads and decodes the next response line.
    pub fn read_response(&mut self) -> Result<Response, ClientError> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => {
                return Err(ClientError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                )))
            }
            Ok(_) => {}
            Err(err)
                if matches!(
                    err.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return Err(ClientError::Timeout)
            }
            Err(err) => return Err(ClientError::Io(err)),
        }
        Response::parse(line.trim_end()).map_err(ClientError::Protocol)
    }

    /// Sends a request and collects its full response stream, up to and
    /// including the terminal line.
    ///
    /// With a non-zero [`ClientConfig::retries`], connection-level
    /// failures (a crashed or restarting daemon) are ridden out: the
    /// client reconnects after a capped exponential backoff with jitter
    /// and resends the *same* request — requests are idempotent by id, so
    /// the worst case is recomputation. A terminal
    /// [`ErrorCode::Overloaded`] answer is also retried, honouring the
    /// server's `retry_after_ms` hint when it exceeds the backoff.
    /// Timeouts and protocol errors are never retried.
    pub fn request(&mut self, request: &Request) -> Result<Vec<Response>, ClientError> {
        let mut attempt = 0u32;
        loop {
            let result = self
                .send_raw(&request.to_line())
                .and_then(|()| self.read_stream());
            let overloaded_hint = match &result {
                Ok(responses) => match responses.last() {
                    Some(Response::Error {
                        code: ErrorCode::Overloaded,
                        retry_after_ms,
                        ..
                    }) => Some(retry_after_ms.unwrap_or(0)),
                    _ => return result,
                },
                Err(err) if err.is_retryable() => None,
                Err(_) => return result,
            };
            if attempt >= self.config.retries {
                return result;
            }
            let backoff = self.backoff(attempt, overloaded_hint);
            attempt += 1;
            thread::sleep(backoff);
            if overloaded_hint.is_none() {
                // Connection-level failure: the old socket is gone.
                // Reconnect failures burn further attempts (with backoff)
                // rather than aborting — the daemon may still be booting.
                while let Err(err) = self.reconnect() {
                    if attempt >= self.config.retries {
                        return Err(err);
                    }
                    let backoff = self.backoff(attempt, None);
                    attempt += 1;
                    thread::sleep(backoff);
                }
            }
        }
    }

    /// Exponential backoff with full jitter: `base * 2^attempt` capped,
    /// then scaled by a deterministic per-attempt factor in [0.5, 1.0].
    /// An overloaded server's `retry_after_ms` hint acts as a floor.
    fn backoff(&self, attempt: u32, hint_ms: Option<u64>) -> Duration {
        let base = self.config.backoff_base.as_millis() as u64;
        let cap = self.config.backoff_cap.as_millis() as u64;
        let exp = base.saturating_mul(1u64 << attempt.min(20)).min(cap);
        let jitter = splitmix(self.config.jitter_seed ^ u64::from(attempt));
        let scaled = exp / 2 + (exp / 2).min(jitter % (exp / 2 + 1));
        Duration::from_millis(scaled.max(hint_ms.unwrap_or(0)))
    }

    /// Collects one response stream (after a raw send), up to and
    /// including the terminal line.
    pub fn read_stream(&mut self) -> Result<Vec<Response>, ClientError> {
        let mut responses = Vec::new();
        loop {
            let resp = self.read_response()?;
            let terminal = resp.is_terminal();
            responses.push(resp);
            if terminal {
                return Ok(responses);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnsym_net::nets;

    fn boot() -> ServerHandle {
        let resolver: NetResolver = Box::new(|spec| match spec {
            "figure1" => Some(nets::figure1()),
            _ => None,
        });
        serve("127.0.0.1:0", ServerConfig::default(), resolver).expect("bind ephemeral port")
    }

    #[test]
    fn ping_stats_and_garbage_share_one_connection() {
        let handle = boot();
        let mut client = Client::connect(handle.addr()).expect("connect");

        let pong = client.request(&Request::Ping { id: 3 }).expect("ping");
        assert_eq!(pong, vec![Response::Pong { id: 3 }]);

        // Garbage must produce a typed error on the same connection...
        client.send_raw("this is not json").expect("send");
        let err = client.read_stream().expect("typed error");
        assert!(matches!(
            err[0],
            Response::Error {
                code: ErrorCode::Json,
                terminal: true,
                ..
            }
        ));

        // ...and the connection stays usable afterwards.
        let responses = client
            .request(&Request::check_text(
                4,
                "figure1",
                &[("m7", "EF (p6 & p7)")],
            ))
            .expect("check");
        assert!(matches!(&responses[0], Response::Verdict(v) if v.holds));
        assert!(matches!(&responses[1], Response::Done { .. }));

        let stats = client.request(&Request::Stats { id: 5 }).expect("stats");
        let Response::Stats {
            queries, misses, ..
        } = stats[0]
        else {
            panic!("expected stats, got {:?}", stats[0]);
        };
        assert_eq!(queries, 1);
        assert_eq!(misses, 1);
        handle.shutdown();
    }

    #[test]
    fn client_shutdown_request_stops_the_daemon() {
        let handle = boot();
        let addr = handle.addr();
        let mut client = Client::connect(addr).expect("connect");
        let bye = client
            .request(&Request::Shutdown { id: 9 })
            .expect("shutdown");
        assert_eq!(bye, vec![Response::Bye { id: 9 }]);
        handle.shutdown();
        // The listener is gone: either the connection is refused or it is
        // accepted by the OS backlog and then closed without a response.
        if let Ok(mut late) = Client::connect(addr) {
            assert!(late.request(&Request::Ping { id: 1 }).is_err());
        }
    }
}

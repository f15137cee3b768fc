//! The planning server: accept loop, connection threads, worker pool.
//!
//! ```text
//! clients ──TCP──▶ connection threads ──BoundedQueue──▶ workers
//!                       │  (parse, admission control)      │
//!                       ◀──────── mpsc reply channel ──────┘
//! ```
//!
//! Every thread is scoped ([`std::thread::scope`]), so [`Server::run`]
//! returns only after all connections and workers have exited — no
//! detached threads outlive the server. Control requests (`ping`,
//! `stats`, `shutdown`) are answered inline by the connection thread;
//! plan requests pass through the bounded queue so a planner stampede
//! degrades into fast `busy` rejections rather than unbounded memory.

use crate::protocol::{self, PlanSpec, Request};
use crate::queue::{BoundedQueue, PushError};
use dmf_engine::{PlanCache, PlanKey, StreamingEngine, DEFAULT_PLAN_CACHE_CAPACITY};
use dmf_obs::{json_object, Recorder};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// How often blocked I/O loops re-check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Per-connection socket read timeout; bounds shutdown latency.
const READ_TIMEOUT: Duration = Duration::from_millis(100);

/// Longest request line a connection may send (1 MiB, newline excluded).
/// A longer line is answered `too_large` and the connection is closed, so
/// a peer that never sends `\n` costs bounded memory and CPU.
const MAX_LINE_BYTES: usize = 1 << 20;

/// How long a connection refused for a too-long line keeps discarding
/// input after its reply, so the peer reads `too_large` rather than a
/// reset from closing a socket with unread data.
const REFUSAL_LINGER: Duration = Duration::from_secs(1);

/// The counters `stats` reports first, in wire order; each member is
/// named after its counter, `serve.` dropped and `.` spelled `_`
/// (`serve.op.plan` → `op_plan`).
#[rustfmt::skip]
const STATS_COUNTERS: [&str; 18] = [
    "serve.requests", "serve.connections", "serve.planned", "serve.plan_failed",
    "serve.bad_request", "serve.too_large", "serve.infeasible", "serve.unknown_algo",
    "serve.busy", "serve.deadline", "serve.slow", "serve.op.plan", "serve.op.stats",
    "serve.op.ping", "serve.op.shutdown", "serve.op.stall", "serve.enqueued", "serve.dequeued",
];

/// Configuration of a [`Server`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (read it back with
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads executing plan requests.
    pub workers: usize,
    /// Admission-control queue depth; a full queue answers `busy`.
    pub queue_depth: usize,
    /// Plan-cache capacity in entries (LRU beyond that).
    pub cache_capacity: usize,
    /// Plan-cache shard count: independently locked slices of the cache,
    /// selected by plan-key fingerprint, so concurrent workers contend
    /// only when they hit the same shard. Clamped to
    /// `1..=`[`dmf_engine::MAX_PLAN_CACHE_SHARDS`] and to the capacity.
    pub cache_shards: usize,
    /// Default per-request queueing deadline, milliseconds. A request
    /// still queued after this long is answered with a `deadline` error
    /// instead of being planned; `"deadline_ms"` on the request overrides
    /// it.
    pub default_deadline_ms: u64,
    /// Slow-request threshold, milliseconds: a queued request whose total
    /// latency (queue wait + work) reaches it is logged to stderr with its
    /// trace ID and counted under `serve.slow`. `None` disables the log.
    pub slow_ms: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: std::thread::available_parallelism().map_or(2, |n| n.get()).min(4),
            queue_depth: 64,
            cache_capacity: DEFAULT_PLAN_CACHE_CAPACITY,
            cache_shards: dmf_engine::default_shard_count(),
            default_deadline_ms: 10_000,
            slow_ms: None,
        }
    }
}

/// How many finished spans the server's recorder retains; old request
/// trees are evicted beyond this, which keeps a long-lived server's
/// memory bounded while leaving plenty of room to fetch the stage
/// breakdown of any in-flight trace.
const SERVE_SPAN_CAPACITY: usize = 8_192;

enum Work {
    Plan(PlanSpec),
    Stall { ms: u64 },
}

struct Job {
    work: Work,
    enqueued: Instant,
    deadline: Duration,
    reply: mpsc::Sender<String>,
    /// The request's trace and root-span IDs, captured from the
    /// connection thread's `serve_request` span so the worker can join
    /// the same tree from its own thread.
    trace_id: u64,
    parent_id: u64,
}

/// A bound planning service; see the crate docs for the protocol.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    config: ServeConfig,
    cache: Arc<PlanCache>,
    recorder: Arc<Recorder>,
    shutdown: AtomicBool,
}

impl Server {
    /// Binds the listener and builds the shared plan cache.
    ///
    /// # Errors
    ///
    /// Propagates bind failures (address in use, permission, …).
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        let listener = config.addr.to_socket_addrs()?.next().map_or_else(
            || Err(io::Error::new(io::ErrorKind::InvalidInput, "empty bind address")),
            TcpListener::bind,
        )?;
        let cache =
            PlanCache::shared_with_capacity_and_shards(config.cache_capacity, config.cache_shards);
        let recorder = Arc::new(Recorder::new());
        recorder.set_span_capacity(SERVE_SPAN_CAPACITY);
        Ok(Server { listener, config, cache, recorder, shutdown: AtomicBool::new(false) })
    }

    /// The bound address — the way to learn the port after binding `:0`.
    ///
    /// # Errors
    ///
    /// Propagates `getsockname` failures.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The server's shared plan cache.
    pub fn cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// The server-owned metric recorder backing `stats` responses.
    pub fn recorder(&self) -> &Recorder {
        self.recorder.as_ref()
    }

    /// Requests shutdown from outside the protocol (e.g. a signal
    /// handler); equivalent to a client sending `{"op":"shutdown"}`.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Serves until a shutdown request arrives, then drains: queued plan
    /// requests are still answered, every connection and worker thread is
    /// joined, and only then does `run` return.
    ///
    /// # Errors
    ///
    /// Propagates fatal listener failures; per-connection I/O errors only
    /// terminate that connection.
    pub fn run(&self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let queue = BoundedQueue::new(self.config.queue_depth);
        let queue_ref = &queue;
        std::thread::scope(|s| {
            for _ in 0..self.config.workers.max(1) {
                s.spawn(move || self.worker_loop(queue_ref));
            }
            let result = self.accept_loop(s, queue_ref);
            // Closing on every exit path (including listener errors) is
            // what lets blocked workers drain and the scope join.
            queue.close();
            result
        })
    }

    fn accept_loop<'scope>(
        &'scope self,
        s: &'scope std::thread::Scope<'scope, '_>,
        queue: &'scope BoundedQueue<Job>,
    ) -> io::Result<()> {
        loop {
            if self.shutting_down() {
                return Ok(());
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    self.recorder.count("serve.connections", 1);
                    s.spawn(move || self.handle_connection(stream, queue));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL_INTERVAL);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Reads newline-delimited requests off one socket and writes one
    /// response line per request. Partial lines survive read timeouts —
    /// the buffer is only consumed up to the last `\n`, and each read
    /// scans only its own bytes for one. A line longer than
    /// [`MAX_LINE_BYTES`] is refused (`too_large`) and ends the connection.
    fn handle_connection(&self, mut stream: TcpStream, queue: &BoundedQueue<Job>) {
        if stream.set_read_timeout(Some(READ_TIMEOUT)).is_err() {
            return;
        }
        let mut chunk = [0u8; 4096];
        let mut pending: Vec<u8> = Vec::new();
        'conn: loop {
            match stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => {
                    // Everything before `scanned` is known to hold no `\n`.
                    let mut scanned = pending.len();
                    pending.extend_from_slice(&chunk[..n]);
                    while let Some(offset) = pending[scanned..].iter().position(|&b| b == b'\n') {
                        let end = scanned + offset;
                        if end > MAX_LINE_BYTES {
                            // Refused below: `pending` is longer than `end`.
                            break;
                        }
                        let reply = {
                            let line = String::from_utf8_lossy(&pending[..end]);
                            let line = line.trim();
                            (!line.is_empty()).then(|| self.process_line(line, queue))
                        };
                        pending.drain(..=end);
                        scanned = 0;
                        let Some((response, stop)) = reply else { continue };
                        if writeln!(stream, "{response}").and_then(|()| stream.flush()).is_err() {
                            break 'conn;
                        }
                        if stop {
                            break 'conn;
                        }
                    }
                    if pending.len() > MAX_LINE_BYTES {
                        self.refuse_too_large(&mut stream, &mut chunk);
                        break;
                    }
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if self.shutting_down() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }

    /// Answers a too-long line with `too_large`, half-closes the socket
    /// and discards whatever the peer still sends for at most
    /// [`REFUSAL_LINGER`]; the caller then drops the connection.
    fn refuse_too_large(&self, stream: &mut TcpStream, chunk: &mut [u8]) {
        self.recorder.count("serve.too_large", 1);
        let response = protocol::error_response(
            "too_large",
            &format!("request line longer than {MAX_LINE_BYTES} bytes; closing the connection"),
        );
        if writeln!(stream, "{response}").and_then(|()| stream.flush()).is_err() {
            return;
        }
        let _ = stream.shutdown(Shutdown::Write);
        let until = Instant::now() + REFUSAL_LINGER;
        while Instant::now() < until && !self.shutting_down() {
            match stream.read(chunk) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) => {}
                Err(_) => break,
            }
        }
    }

    /// Turns one request line into one response line; the flag asks the
    /// connection loop to hang up (after a shutdown acknowledgement).
    ///
    /// Every request runs under a `serve_request` root span on the
    /// connection thread; decoding is a `serve_decode` child, and queued
    /// work joins the same tree from the worker thread (queue wait,
    /// planning stages, encode) via the job's captured trace IDs.
    fn process_line(&self, line: &str, queue: &BoundedQueue<Job>) -> (String, bool) {
        let root = self.recorder.span("serve_request");
        let (trace_id, root_id) = root.ids().unwrap_or((0, 0));
        self.recorder.count("serve.requests", 1);
        let parsed = {
            let _decode = self.recorder.span("serve_decode");
            protocol::parse_request(line)
        };
        match parsed {
            Err(e) => {
                // The rejection carries its own code: `infeasible` when
                // the mixability pre-pass proved no plan exists (the
                // request never reaches a worker), `unknown_algo` for an
                // algorithm name the registry does not know,
                // `bad_request` for malformed lines.
                self.recorder.count(
                    match e.code() {
                        "infeasible" => "serve.infeasible",
                        "unknown_algo" => "serve.unknown_algo",
                        _ => "serve.bad_request",
                    },
                    1,
                );
                (protocol::error_response(e.code(), &e.to_string()), false)
            }
            Ok(Request::Ping) => {
                self.recorder.count("serve.op.ping", 1);
                (protocol::pong_response(), false)
            }
            Ok(Request::Stats) => {
                self.recorder.count("serve.op.stats", 1);
                (self.stats_response(), false)
            }
            Ok(Request::Shutdown) => {
                self.recorder.count("serve.op.shutdown", 1);
                self.recorder.count("serve.shutdown", 1);
                self.shutdown.store(true, Ordering::Relaxed);
                (protocol::shutdown_response(), true)
            }
            Ok(Request::Plan(spec)) => {
                self.recorder.count("serve.op.plan", 1);
                let deadline_ms = spec.deadline_ms;
                (
                    self.enqueue_and_wait(Work::Plan(spec), deadline_ms, queue, trace_id, root_id),
                    false,
                )
            }
            Ok(Request::Stall { ms }) => {
                self.recorder.count("serve.op.stall", 1);
                (self.enqueue_and_wait(Work::Stall { ms }, None, queue, trace_id, root_id), false)
            }
        }
    }

    /// Admission control: non-blocking push, then wait for the worker's
    /// reply. A full queue is an immediate `busy`; a closed queue an
    /// immediate `shutting_down`. On admission the observed queue depth
    /// feeds the `serve.queue_depth` peak gauge.
    fn enqueue_and_wait(
        &self,
        work: Work,
        deadline_ms: Option<u64>,
        queue: &BoundedQueue<Job>,
        trace_id: u64,
        parent_id: u64,
    ) -> String {
        let (reply, receive) = mpsc::channel();
        let deadline =
            Duration::from_millis(deadline_ms.unwrap_or(self.config.default_deadline_ms));
        let job = Job { work, enqueued: Instant::now(), deadline, reply, trace_id, parent_id };
        match queue.try_push(job) {
            Err(PushError::Full) => {
                self.recorder.count("serve.busy", 1);
                protocol::error_response(
                    "busy",
                    &format!("queue full ({} pending); retry later", queue.capacity()),
                )
            }
            Err(PushError::Closed) => {
                protocol::error_response("shutting_down", "server is draining; not accepting work")
            }
            Ok(()) => {
                self.recorder.count("serve.enqueued", 1);
                // A worker may already have popped the job; at the moment
                // of admission the depth was at least 1.
                self.recorder.gauge_max("serve.queue_depth", queue.len().max(1) as u64);
                // Workers drain the queue even during shutdown, so every
                // admitted job is answered and this recv cannot dangle.
                receive.recv().unwrap_or_else(|_| {
                    protocol::error_response("internal", "worker dropped the reply channel")
                })
            }
        }
    }

    /// One worker: pop, record the queue wait as a first-class span,
    /// check the queueing deadline, plan, reply.
    fn worker_loop(&self, queue: &BoundedQueue<Job>) {
        while let Some(job) = queue.pop() {
            self.recorder.count("serve.dequeued", 1);
            // Adopt the request's trace for the duration of this job so
            // every span below — including `span!` call sites inside the
            // engine — lands in this server's recorder, under the
            // request's root.
            let ctx = self.recorder.trace_context(job.trace_id, job.parent_id);
            let adopted = ctx.enter();
            let dequeued = Instant::now();
            self.recorder.record_span_at(
                "serve_queue_wait",
                job.trace_id,
                job.parent_id,
                job.enqueued,
                dequeued,
            );
            let waited = dequeued.duration_since(job.enqueued);
            let response = if waited > job.deadline {
                self.recorder.count("serve.deadline", 1);
                protocol::error_response(
                    "deadline",
                    &format!(
                        "request waited {}ms in queue, past its {}ms deadline",
                        waited.as_millis(),
                        job.deadline.as_millis()
                    ),
                )
            } else {
                match &job.work {
                    Work::Stall { ms } => {
                        std::thread::sleep(Duration::from_millis(*ms));
                        protocol::stalled_response(*ms)
                    }
                    Work::Plan(spec) => self.plan(spec, job.trace_id),
                }
            };
            drop(adopted);
            let total = job.enqueued.elapsed();
            self.recorder.record_duration("serve.latency", total);
            if let Some(limit) = self.config.slow_ms {
                if total >= Duration::from_millis(limit) {
                    self.recorder.count("serve.slow", 1);
                    eprintln!(
                        "slow request: trace={:016x} total={}ms queue_wait={}ms (threshold {limit}ms)",
                        job.trace_id,
                        total.as_millis(),
                        waited.as_millis(),
                    );
                }
            }
            // The connection may have hung up while queued; nothing to do.
            let _ = job.reply.send(response);
        }
    }

    /// Plans one request under a `serve_plan` span and encodes the
    /// response under `serve_encode`; when the request asked for a trace,
    /// the response embeds the request's `trace_id` and the stage
    /// breakdown recorded so far.
    fn plan(&self, spec: &PlanSpec, trace_id: u64) -> String {
        let outcome = {
            let _planning = self.recorder.span("serve_plan");
            let engine = StreamingEngine::new(spec.config).with_cache(Arc::clone(&self.cache));
            engine.plan_shared(&spec.ratio, spec.demand)
        };
        let _encode = self.recorder.span("serve_encode");
        match outcome {
            Ok(plan) => {
                self.recorder.count("serve.planned", 1);
                let key = PlanKey::new(&spec.config, &spec.ratio, spec.demand);
                if spec.trace {
                    let stages = self.recorder.trace_spans(trace_id);
                    protocol::plan_response_traced(&plan, key.fingerprint(), trace_id, &stages)
                } else {
                    protocol::plan_response(&plan, key.fingerprint())
                }
            }
            Err(
                e @ (dmf_engine::EngineError::Infeasible { .. }
                | dmf_engine::EngineError::ZeroDemand),
            ) => {
                // Defense in depth: parse-time feasibility should have
                // caught this, but the engine's own preflight is
                // authoritative.
                self.recorder.count("serve.infeasible", 1);
                protocol::error_response("infeasible", &e.to_string())
            }
            Err(e) => {
                self.recorder.count("serve.plan_failed", 1);
                protocol::error_response("plan_failed", &e.to_string())
            }
        }
    }

    /// The `stats` response: `serve.*` counters (including per-op
    /// counts), request-latency summary with percentile estimates, queue
    /// pressure and plan-cache statistics, as one flat JSON object.
    fn stats_response(&self) -> String {
        let snapshot = self.recorder.snapshot();
        let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
        let latency = snapshot.histograms.get("serve.latency");
        let (latency_count, latency_mean_ns) = latency.map_or((0, 0), |h| (h.count, h.mean_ns()));
        let (p50, p90, p99) = latency
            .map_or((0, 0, 0), |h| (h.percentile(0.50), h.percentile(0.90), h.percentile(0.99)));
        let cache = self.cache.stats();
        let stats = STATS_COUNTERS.iter().fold(protocol::ok_response("stats"), |o, name| {
            o.field(&name.trim_start_matches("serve.").replace('.', "_"), counter(name))
        });
        let queue_depth_peak = snapshot.gauges.get("serve.queue_depth").copied().unwrap_or(0);
        json_object!(stats; "latency_count": latency_count, "latency_mean_ns": latency_mean_ns,
            "latency_p50_ns": p50, "latency_p90_ns": p90, "latency_p99_ns": p99,
            "workers": self.config.workers.max(1), "queue_depth": self.config.queue_depth.max(1),
            "queue_depth_peak": queue_depth_peak, "cache_len": cache.len,
            "cache_capacity": cache.capacity, "cache_shards": self.cache.shard_count(),
            "cache_hits": cache.hits, "cache_misses": cache.misses,
            "cache_evictions": cache.evictions)
        .finish()
    }
}

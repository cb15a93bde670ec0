//! The serving daemon core: a `std::net` TCP listener, one reader/writer
//! thread pair per connection, and a single batcher thread draining a
//! bounded request queue into the backend's batch query API.
//!
//! # Coalescing and determinism
//!
//! The batcher concatenates the pairs of every queued distance request
//! into one `distance_many`-style call. That is safe because the batch
//! APIs are **element-wise**: each answer depends only on its own pair and
//! the frozen image, never on batch composition (pinned by the serve-layer
//! determinism tests). Coalescing therefore changes latency and
//! throughput, never answers — a socket client sees bits identical to an
//! in-process replay, which `oracle-loadgen --verify` asserts end to end.
//!
//! # Backpressure
//!
//! The queue is bounded by [`ServeConfig::queue_cap`]; admission past the
//! bound answers [`Response::Busy`] immediately instead of growing memory.
//! Together with the wire-frame cap this bounds per-connection and
//! aggregate memory regardless of client behaviour.
//!
//! # Shutdown
//!
//! The `SHUTDOWN` verb flips a flag: the acceptor stops accepting, readers
//! stop admitting (late requests get `Error{ShuttingDown}`), the batcher
//! drains what was admitted, and every queued answer is still written
//! before the process exits — "graceful" means no admitted request is
//! dropped.

use super::protocol::{
    decode_request, encode_response, ErrorCode, FrameReader, Request, Response, MAX_PATH_POINTS,
};
use super::stats::Counters;
use crate::atlas::{Atlas, AtlasHandle};
use crate::oracle::{ProbeStats, QueryError, SeOracle};
use crate::persist::{PersistError, ATLAS_MAGIC, ORACLE_MAGIC};
use crate::serve::QueryHandle;
use obs::log;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown as SockShutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::Duration;

/// Admission policy for the coalescing batcher and the bounded queue.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Target pairs per coalesced batch; the batcher stops waiting once a
    /// draining pass has gathered at least this many.
    pub max_batch_pairs: usize,
    /// How long the batcher holds an under-full batch open for more
    /// requests before running it anyway (latency bound under light
    /// load).
    pub max_wait: Duration,
    /// Most requests the queue holds; admission past this answers `Busy`.
    pub queue_cap: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { max_batch_pairs: 4096, max_wait: Duration::from_micros(200), queue_cap: 256 }
    }
}

/// A routed path answer: the distance plus the polyline as `(x, y, z)`
/// triples, the shape the wire response carries.
type PathAnswer = (f64, Vec<(f64, f64, f64)>);

/// The image a server answers from: a monolithic oracle or a tiled atlas.
///
/// Both backends expose the same element-wise batch semantics, so the
/// batcher treats them uniformly.
#[derive(Clone)]
pub enum Backend {
    /// A monolithic [`crate::oracle::SeOracle`] behind a [`QueryHandle`].
    Oracle(QueryHandle),
    /// A tiled [`crate::atlas::Atlas`] behind an [`AtlasHandle`].
    Atlas(AtlasHandle),
}

impl Backend {
    /// Opens the image at `path`, choosing the loader from its 4-byte
    /// magic alone, so the file never has to be named truthfully: an
    /// oracle (`SEOR`) or atlas (`SEAT`) image loads resident, and with a
    /// `resident_budget` an atlas opens out of core instead (tiles decode
    /// lazily, at most that many decoded bytes resident).
    ///
    /// # Errors
    ///
    /// [`PersistError::BadMagic`] for a file that is neither image kind,
    /// an `InvalidInput` I/O error for a budget on an oracle image (which
    /// is monolithic and always loads whole), and any error of the chosen
    /// loader.
    pub fn open(path: &Path, resident_budget: Option<usize>) -> Result<Backend, PersistError> {
        let mut file = std::fs::File::open(path)?;
        let mut head = Vec::with_capacity(4);
        (&mut file).take(4).read_to_end(&mut head)?;
        let mut magic = [0u8; 4];
        magic[..head.len()].copy_from_slice(&head);
        // The loaders parse the whole frame, magic included.
        let mut image = head.as_slice().chain(file);
        match (magic, resident_budget) {
            (ORACLE_MAGIC, None) => {
                Ok(Backend::Oracle(QueryHandle::new(SeOracle::load_from(&mut image)?)))
            }
            (ORACLE_MAGIC, Some(_)) => Err(PersistError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a resident budget applies only to atlas (SEAT) images; \
                 an oracle (SEOR) image always loads whole",
            ))),
            (ATLAS_MAGIC, None) => {
                Ok(Backend::Atlas(AtlasHandle::new(Atlas::load_from(&mut image)?)))
            }
            (ATLAS_MAGIC, Some(budget)) => {
                Ok(Backend::Atlas(AtlasHandle::new(Atlas::open_out_of_core(path, budget)?)))
            }
            _ => Err(PersistError::BadMagic(magic)),
        }
    }

    /// Sites the image covers.
    pub fn n_sites(&self) -> usize {
        match self {
            Backend::Oracle(h) => h.n_sites(),
            Backend::Atlas(h) => h.n_sites(),
        }
    }

    /// Whether the image can answer `Path` requests.
    pub fn has_paths(&self) -> bool {
        match self {
            Backend::Oracle(h) => h.has_paths(),
            Backend::Atlas(h) => h.has_paths(),
        }
    }

    /// Batch distances through the backend's checked kernel: typed errors
    /// map through [`error_code`], and a panic fence stays around the call
    /// as defence in depth (bytes from disk must not crash a serving
    /// process). Successful answers carry per-batch [`ProbeStats`].
    fn distances(
        &self,
        pairs: &[(u32, u32)],
    ) -> Result<(Vec<f64>, ProbeStats), (ErrorCode, String)> {
        let run = || match self {
            Backend::Oracle(h) => h.distance_many_checked_with_stats(pairs),
            Backend::Atlas(h) => h.distance_many_checked_with_stats(pairs),
        };
        match catch_unwind(AssertUnwindSafe(run)) {
            Ok(answers) => answers.map_err(|e| (error_code(&e), e.to_string())),
            Err(_) => Err((
                ErrorCode::CorruptImage,
                "distance query panicked; the image is corrupt".to_string(),
            )),
        }
    }

    /// One shortest path, behind the same panic fence.
    fn path(&self, s: usize, t: usize) -> Result<PathAnswer, (ErrorCode, String)> {
        let run = || match self {
            Backend::Oracle(h) => h.shortest_path(s, t),
            Backend::Atlas(h) => h.shortest_path(s, t),
        };
        match catch_unwind(AssertUnwindSafe(run)) {
            Ok(sp) => {
                let points = sp.path.points.iter().map(|p| (p.x, p.y, p.z)).collect::<Vec<_>>();
                Ok((sp.distance, points))
            }
            Err(_) => Err((
                ErrorCode::CorruptImage,
                "path query panicked; the image is corrupt".to_string(),
            )),
        }
    }
}

/// The one `QueryError → ErrorCode` table, for both image kinds: an
/// out-of-range id is the client's mistake; every other failure means the
/// served image (or an out-of-core atlas's backing file) is bad.
fn error_code(e: &QueryError) -> ErrorCode {
    match e {
        QueryError::SiteOutOfRange { .. } => ErrorCode::SiteOutOfRange,
        QueryError::NoCoveringPair { .. }
        | QueryError::NoRoute { .. }
        | QueryError::TileUnavailable { .. } => ErrorCode::CorruptImage,
    }
}

impl std::fmt::Debug for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::Oracle(_) => write!(f, "Backend::Oracle({} sites)", self.n_sites()),
            Backend::Atlas(_) => write!(f, "Backend::Atlas({} sites)", self.n_sites()),
        }
    }
}

/// A queued unit of work; `reply` routes the encoded response back to the
/// owning connection's writer thread.
enum Job {
    Distance { id: u64, pairs: Vec<(u32, u32)>, reply: mpsc::Sender<Vec<u8>> },
    Path { id: u64, s: u32, t: u32, reply: mpsc::Sender<Vec<u8>> },
}

impl Job {
    fn n_pairs(&self) -> usize {
        match self {
            Job::Distance { pairs, .. } => pairs.len(),
            Job::Path { .. } => 1,
        }
    }
}

/// State shared by the acceptor, every connection thread, and the batcher.
struct Shared {
    backend: Backend,
    cfg: ServeConfig,
    queue: Mutex<VecDeque<Job>>,
    job_ready: Condvar,
    stats: Counters,
    shutdown: AtomicBool,
}

impl Shared {
    /// Locks the queue, recovering from a poisoned mutex: the protected
    /// state is a plain `VecDeque` of owned jobs, valid at every step, so
    /// a panicking peer thread cannot leave it torn.
    fn lock_queue(&self) -> MutexGuard<'_, VecDeque<Job>> {
        match self.queue.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// A bound-and-listening oracle server; [`OracleServer::serve`] runs it to
/// completion.
pub struct OracleServer {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl OracleServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral test port) and
    /// prepares to serve `backend` under `cfg`.
    pub fn bind<A: ToSocketAddrs>(addr: A, backend: Backend, cfg: ServeConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let shared = Arc::new(Shared {
            stats: Counters::new(obs::Registry::new(), backend.n_sites()),
            backend,
            cfg,
            queue: Mutex::new(VecDeque::new()),
            job_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        Ok(OracleServer { listener, shared })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts and serves connections until a client sends the `SHUTDOWN`
    /// verb, then drains in-flight work and returns the final counters as
    /// the `Metrics` verb would render them.
    pub fn serve(self) -> String {
        if self.listener.set_nonblocking(true).is_err() {
            // Without a non-blocking acceptor the shutdown flag could
            // never interrupt accept(); refuse to serve rather than hang.
            return metrics_text(&self.shared);
        }
        let batcher = {
            let sh = Arc::clone(&self.shared);
            thread::spawn(move || batcher_loop(&sh))
        };
        let mut conns: Vec<thread::JoinHandle<()>> = Vec::new();
        while !self.shared.shutting_down() {
            // Reap handles of connections that already hung up, so a
            // long-running daemon doesn't grow one JoinHandle per
            // connection ever accepted.
            conns.retain(|c| !c.is_finished());
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    self.shared.stats.connections.inc();
                    log::info("conn_open", &[("peer", peer.to_string())]);
                    let sh = Arc::clone(&self.shared);
                    conns.push(thread::spawn(move || connection_loop(stream, &sh)));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(2));
                }
                // Transient accept failures (connection reset during the
                // handshake, fd pressure): back off and keep serving.
                Err(_) => thread::sleep(Duration::from_millis(10)),
            }
        }
        for c in conns {
            let _ = c.join();
        }
        // Connections are gone, so no further enqueues: wake the batcher
        // to drain the remainder and exit.
        self.shared.job_ready.notify_all();
        let _ = batcher.join();
        log::info(
            "drained",
            &[
                ("requests", self.shared.stats.requests.get().to_string()),
                ("errors", self.shared.stats.errors.get().to_string()),
            ],
        );
        metrics_text(&self.shared)
    }
}

/// The text exposition of every counter the server keeps: its own
/// registry, then — for an out-of-core atlas — the tile store's registry
/// with the residency counters, so one scrape sees both.
fn metrics_text(sh: &Shared) -> String {
    let mut text = sh.stats.registry.expose();
    if let Backend::Atlas(h) = &sh.backend {
        if let Some(store) = h.tile_store() {
            text.push_str(&store.registry().expose());
        }
    }
    text
}

impl std::fmt::Debug for OracleServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "OracleServer({:?})", self.listener.local_addr())
    }
}

/// One connection: a reader thread (this function) plus a writer thread,
/// decoupled by an mpsc channel so batch completions never block on a slow
/// client socket while the reader holds queue state.
fn connection_loop(stream: TcpStream, sh: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    // The read timeout doubles as the shutdown poll interval.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    // Without a write timeout, a client that sends requests but never
    // reads answers would block write_all forever once kernel buffers
    // fill, wedging the writer thread — and graceful shutdown, which
    // joins it. A peer that absorbs nothing for this long is gone.
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let writer_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (tx, rx) = mpsc::channel::<Vec<u8>>();
    let writer = thread::spawn(move || writer_loop(writer_stream, rx));
    reader_loop(stream, sh, &tx);
    log::info("conn_close", &[]);
    drop(tx);
    // The writer exits once every outstanding job's reply sender drops —
    // i.e. after all admitted answers for this connection are written.
    let _ = writer.join();
}

fn writer_loop(mut stream: TcpStream, rx: mpsc::Receiver<Vec<u8>>) {
    let mut dead = false;
    while let Ok(frame) = rx.recv() {
        if dead {
            // Keep draining so in-flight batch completions never block on
            // a connection we already gave up on.
            continue;
        }
        if write_frame(&mut stream, &frame).is_err() {
            // The client is gone or stopped reading (write timed out with
            // zero progress). A partial frame may be on the wire, so the
            // stream is unusable: tear down both directions — the read
            // half too, so the reader thread stops admitting work from a
            // peer we can no longer answer.
            dead = true;
            let _ = stream.shutdown(SockShutdown::Both);
        }
    }
    let _ = stream.shutdown(SockShutdown::Write);
}

/// `write_all`, except a timeout only fails the connection when the socket
/// made no progress for a whole timeout window (a slow-but-live client
/// keeps resetting the clock with every accepted byte).
fn write_frame(stream: &mut TcpStream, frame: &[u8]) -> io::Result<()> {
    let mut at = 0usize;
    while at < frame.len() {
        match stream.write(&frame[at..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => at += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // WouldBlock/TimedOut here means a full write-timeout window
            // passed without the peer accepting a single byte.
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn reader_loop(mut stream: TcpStream, sh: &Arc<Shared>, tx: &mpsc::Sender<Vec<u8>>) {
    let mut frames = FrameReader::new();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if sh.shutting_down() {
            return;
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                continue;
            }
            Err(_) => return,
        };
        frames.feed(&chunk[..n]);
        loop {
            match frames.next_payload() {
                Ok(Some(payload)) => {
                    if !handle_frame(&payload, sh, tx) {
                        return;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    // Framing is lost (bad magic/version/length/checksum):
                    // report and close — resynchronisation on a byte
                    // stream is not possible.
                    sh.stats.malformed.inc();
                    log::debug("malformed_frame", &[("error", e.to_string())]);
                    let _ = tx.send(encode_response(&Response::Error {
                        id: 0,
                        code: ErrorCode::BadRequest,
                        message: e.to_string(),
                    }));
                    return;
                }
            }
        }
    }
}

/// Decodes and admits one request. Returns `false` when the connection
/// must close (undecodable payload).
fn handle_frame(payload: &[u8], sh: &Arc<Shared>, tx: &mpsc::Sender<Vec<u8>>) -> bool {
    let req = match decode_request(payload) {
        Ok(r) => r,
        Err(e) => {
            sh.stats.malformed.inc();
            log::debug("malformed_request", &[("error", e.to_string())]);
            let _ = tx.send(encode_response(&Response::Error {
                id: 0,
                code: ErrorCode::BadRequest,
                message: e.to_string(),
            }));
            return false;
        }
    };
    match req {
        Request::Distance { id, pairs } => {
            let n = sh.backend.n_sites();
            if let Some((index, &(s, t))) =
                pairs.iter().enumerate().find(|&(_, &(s, t))| s as usize >= n || t as usize >= n)
            {
                let site = if s as usize >= n { s } else { t };
                sh.stats.errors.inc();
                let _ = tx.send(encode_response(&Response::Error {
                    id,
                    code: ErrorCode::SiteOutOfRange,
                    message: format!("pair #{index}: site id {site} out of range for {n} sites"),
                }));
                return true;
            }
            enqueue(sh, tx, id, Job::Distance { id, pairs, reply: tx.clone() });
        }
        Request::Path { id, s, t } => {
            let n = sh.backend.n_sites();
            if !sh.backend.has_paths() {
                sh.stats.errors.inc();
                let _ = tx.send(encode_response(&Response::Error {
                    id,
                    code: ErrorCode::Unsupported,
                    message: "image has no path index".to_string(),
                }));
                return true;
            }
            if s as usize >= n || t as usize >= n {
                let site = if s as usize >= n { s } else { t };
                sh.stats.errors.inc();
                let _ = tx.send(encode_response(&Response::Error {
                    id,
                    code: ErrorCode::SiteOutOfRange,
                    message: format!("site id {site} out of range for {n} sites"),
                }));
                return true;
            }
            enqueue(sh, tx, id, Job::Path { id, s, t, reply: tx.clone() });
        }
        Request::Metrics { id } => {
            let _ = tx.send(encode_response(&Response::Metrics { id, text: metrics_text(sh) }));
        }
        Request::Shutdown { id } => {
            // Ack first (the frame is already queued to the writer before
            // the flag stops anything), then stop admissions everywhere.
            let _ = tx.send(encode_response(&Response::ShuttingDown { id }));
            log::info("shutdown_requested", &[]);
            sh.shutdown.store(true, Ordering::SeqCst);
            sh.job_ready.notify_all();
        }
    }
    true
}

/// Admission: bounded-queue push or an immediate `Busy`.
fn enqueue(sh: &Arc<Shared>, tx: &mpsc::Sender<Vec<u8>>, id: u64, job: Job) {
    let mut q = sh.lock_queue();
    // The shutdown flag must be read under the queue lock: the batcher's
    // exit decision (queue empty && shutting down) happens under this same
    // mutex, so a lock-free check here would race it — a job pushed after
    // the batcher exits would never be answered and its reply sender would
    // wedge the writer thread (and graceful shutdown) forever. Under the
    // lock, either we push before the batcher's final look at the queue
    // (it drains us) or we observe the flag and refuse.
    if sh.shutting_down() {
        drop(q);
        let _ = tx.send(encode_response(&Response::Error {
            id,
            code: ErrorCode::ShuttingDown,
            message: "server is draining".to_string(),
        }));
        return;
    }
    if q.len() >= sh.cfg.queue_cap {
        let depth = q.len();
        drop(q);
        sh.stats.busy_rejections.inc();
        log::debug("busy_rejection", &[("queue_depth", depth.to_string())]);
        let _ = tx.send(encode_response(&Response::Busy { id, queue_depth: depth as u32 }));
        return;
    }
    sh.stats.requests.inc();
    sh.stats.pairs.add(job.n_pairs() as u64);
    q.push_back(job);
    let depth = q.len();
    drop(q);
    sh.stats.note_depth(depth);
    sh.job_ready.notify_one();
}

/// The coalescing batcher: pop everything queued, hold the batch open up
/// to `max_wait` for stragglers (admission policy), then run one backend
/// call for all distance pairs and split the answers back per request.
fn batcher_loop(sh: &Arc<Shared>) {
    loop {
        let mut q = sh.lock_queue();
        loop {
            if !q.is_empty() {
                break;
            }
            if sh.shutting_down() {
                // Queue empty and no more admissions: fully drained.
                return;
            }
            q = match sh.job_ready.wait(q) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
        let mut batch = Vec::new();
        let mut total_pairs = 0usize;
        while let Some(job) = q.pop_front() {
            total_pairs += job.n_pairs();
            batch.push(job);
            if total_pairs >= sh.cfg.max_batch_pairs {
                break;
            }
        }
        if total_pairs < sh.cfg.max_batch_pairs && !sh.shutting_down() {
            // lint: allow(d2, "admission deadline only — batching affects latency, never answers (element-wise determinism)")
            let deadline = std::time::Instant::now() + sh.cfg.max_wait;
            loop {
                if let Some(job) = q.pop_front() {
                    total_pairs += job.n_pairs();
                    batch.push(job);
                    if total_pairs >= sh.cfg.max_batch_pairs {
                        break;
                    }
                    continue;
                }
                if sh.shutting_down() {
                    break;
                }
                // lint: allow(d2, "admission deadline only — never feeds an answer")
                let now = std::time::Instant::now();
                if now >= deadline {
                    break;
                }
                q = match sh.job_ready.wait_timeout(q, deadline - now) {
                    Ok((g, _)) => g,
                    Err(poisoned) => poisoned.into_inner().0,
                };
            }
        }
        sh.stats.note_depth(q.len());
        drop(q);
        run_batch(sh, batch, total_pairs);
    }
}

fn run_batch(sh: &Arc<Shared>, batch: Vec<Job>, total_pairs: usize) {
    let _span = obs::trace::span("serve", "batch");
    sh.stats.note_batch(total_pairs);
    let mut concat: Vec<(u32, u32)> = Vec::with_capacity(total_pairs);
    for job in &batch {
        if let Job::Distance { pairs, .. } = job {
            concat.extend_from_slice(pairs);
        }
    }
    let coalesced = if concat.is_empty() {
        Ok((Vec::new(), ProbeStats::default()))
    } else {
        sh.backend.distances(&concat)
    };
    if let Ok((_, ps)) = &coalesced {
        sh.stats.probe_pairs.add(ps.probes);
    }
    let mut at = 0usize;
    for job in &batch {
        match job {
            Job::Distance { id, pairs, reply } => {
                let resp = match &coalesced {
                    Ok((all, _)) => {
                        let slice = all[at..at + pairs.len()].to_vec();
                        at += pairs.len();
                        Response::Distances { id: *id, distances: slice }
                    }
                    // The coalesced call failed: retry this request alone
                    // so only the offending request errors, not the whole
                    // batch (a request that was the whole batch already
                    // has its answer).
                    Err(e) => {
                        let solo = if pairs.len() == concat.len() {
                            Err(e.clone())
                        } else {
                            sh.backend.distances(pairs)
                        };
                        match solo {
                            Ok((d, ps)) => {
                                sh.stats.probe_pairs.add(ps.probes);
                                Response::Distances { id: *id, distances: d }
                            }
                            Err((code, message)) => {
                                sh.stats.errors.inc();
                                Response::Error { id: *id, code, message }
                            }
                        }
                    }
                };
                let _ = reply.send(encode_response(&resp));
            }
            Job::Path { id, s, t, reply } => {
                let resp = match sh.backend.path(*s as usize, *t as usize) {
                    // A polyline past MAX_PATH_POINTS would encode to a
                    // frame the client's FrameReader must reject as
                    // FrameTooLarge, losing the connection over a valid
                    // answer — refuse it with a typed error instead.
                    Ok((_, points)) if points.len() > MAX_PATH_POINTS => {
                        sh.stats.errors.inc();
                        Response::Error {
                            id: *id,
                            code: ErrorCode::PathTooLong,
                            message: format!(
                                "path has {} points; the wire frame cap allows {}",
                                points.len(),
                                MAX_PATH_POINTS
                            ),
                        }
                    }
                    Ok((distance, points)) => Response::Path { id: *id, distance, points },
                    Err((code, message)) => {
                        sh.stats.errors.inc();
                        Response::Error { id: *id, code, message }
                    }
                };
                let _ = reply.send(encode_response(&resp));
            }
        }
    }
}

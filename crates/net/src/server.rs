//! The TCP server: accepts connections, multiplexes every transaction on
//! the wire onto [`AsyncDatabase`] sessions driven by per-worker
//! [`LocalExecutor`]s.
//!
//! # Threading model (and the `!Send` handle decision)
//!
//! [`sbcc_core::aio::AsyncTransaction`] handles are deliberately `!Send`
//! (`Rc`-shared session state), so a session must live its whole life on
//! one thread. The server therefore runs a small pool of **worker
//! threads, each owning a [`LocalExecutor`]**; the acceptor thread deals
//! accepted sockets round-robin onto the workers, and a connection — its
//! router task plus one task per live transaction — never migrates off
//! its worker. Socket *reads* cannot run on the executor (a blocking
//! read would starve every other connection on the worker), so each
//! connection also gets a dedicated reader thread that decodes frames
//! and hands them to the router through a thread-safe event queue +
//! waker. Writes are short and buffered and happen directly from the
//! executor under a per-connection stream lock, bounded by a write
//! timeout.
//!
//! # Backpressure and admission control
//!
//! * **Per-connection in-flight cap**: a [`Request::Begin`] beyond
//!   [`MAX_IN_FLIGHT_PER_CONN`] live transactions is shed
//!   with an [`ErrorCode::Busy`] error frame instead of being queued —
//!   overload produces explicit, retryable refusals, not an unbounded
//!   queue.
//! * **Read timeout + auto-abort**: while a connection holds at least
//!   one live transaction, its reader enforces
//!   [`ServerConfig::read_timeout`] of inactivity (idle connections with
//!   no open transaction may sit forever). On timeout — or EOF, or any
//!   read error — the connection closes and every live session on it is
//!   **auto-aborted**: in-flight operation futures lose a [`race`]
//!   against the close notification and are dropped, which triggers the
//!   async layer's cancellation contract (abort + waiter-slot
//!   unregistration), so a dead client can neither strand kernel state
//!   nor block other tenants' transactions behind its uncommitted
//!   operations. Close reaches every parked operation, including one
//!   whose `Commit` the router has already dispatched: each pending
//!   `Closed` holds one waker slot in its connection's table, overwritten
//!   on re-poll and freed when the race drops it, and closing the
//!   connection wakes every occupied slot. The table is therefore bounded
//!   by the races in flight, not by the polls a connection has seen.
//!   The timeout check consults [`sbcc_core::chaos::timeout_fires`]
//!   first, so a deterministic harness can drive this path from a
//!   virtual clock.
//!
//! # Tenant namespacing
//!
//! The mandatory [`Request::Hello`] names a tenant; every object name on
//! the connection is qualified as `tenant/name` before it touches the
//! database, so tenants get disjoint object namespaces from one shared
//! kernel (and the qualified name is what the shard hash sees).

use crate::protocol::*;
use sbcc_core::aio::{race, AsyncDatabase, AsyncTransaction, LocalExecutor, RaceWinner};
use sbcc_core::{chaos, CoreError, NetStats, ObjectHandle, TimeoutPoint, TxnState};
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::future::Future;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex as StdMutex};
use std::task::{Context, Poll, Waker};
use std::thread;
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`"127.0.0.1:0"` picks a free port).
    pub addr: String,
    /// Worker threads, each owning a [`LocalExecutor`]; connections are
    /// dealt round-robin.
    pub workers: usize,
    /// Inactivity budget for a connection with live transactions; on
    /// expiry the connection closes and its sessions auto-abort.
    pub read_timeout: Duration,
}

/// Live-transaction cap per connection; a `Begin` beyond it is shed with
/// [`ErrorCode::Busy`].
pub const MAX_IN_FLIGHT_PER_CONN: usize = 32;

/// Reader-thread poll tick: the granularity of timeout checks and
/// shutdown observation.
const POLL_INTERVAL: Duration = Duration::from_millis(5);

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            read_timeout: Duration::from_secs(5),
        }
    }
}

impl ServerConfig {
    /// Replace the bind address.
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Replace the worker-thread count (minimum 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Replace the read-inactivity budget.
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout;
        self
    }
}

/// Everything the acceptor, workers, readers and sessions share.
struct ServerShared {
    db: AsyncDatabase,
    config: ServerConfig,
    shutdown: AtomicBool,
    /// Tenant-qualified name → handle. Held across the registration
    /// call so concurrent `Register`s for one name cannot race.
    registry: StdMutex<HashMap<String, ObjectHandle>>,
    /// Open connections' streams (clones), for shutdown teardown.
    conns: StdMutex<HashMap<u64, TcpStream>>,
    next_conn_id: AtomicU64,
    connections_accepted: AtomicU64,
    connections_open: AtomicU64,
    transactions_in_flight: AtomicU64,
    shed_busy: AtomicU64,
    read_timeouts: AtomicU64,
    sessions_auto_aborted: AtomicU64,
}

impl ServerShared {
    fn net_stats(&self) -> NetStats {
        NetStats {
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            connections_open: self.connections_open.load(Ordering::Relaxed),
            transactions_in_flight: self.transactions_in_flight.load(Ordering::Relaxed),
            shed_busy: self.shed_busy.load(Ordering::Relaxed),
            read_timeouts: self.read_timeouts.load(Ordering::Relaxed),
            sessions_auto_aborted: self.sessions_auto_aborted.load(Ordering::Relaxed),
        }
    }
}

/// Hand-off queue from the acceptor thread to one worker's listen task.
struct Inbox {
    queue: StdMutex<VecDeque<TcpStream>>,
    waker: StdMutex<Option<Waker>>,
}

impl Inbox {
    fn new() -> Self {
        Inbox {
            queue: StdMutex::new(VecDeque::new()),
            waker: StdMutex::new(None),
        }
    }

    fn push(&self, stream: TcpStream) {
        self.queue.lock().unwrap().push_back(stream);
        self.wake();
    }

    fn wake(&self) {
        if let Some(w) = self.waker.lock().unwrap().take() {
            w.wake();
        }
    }
}

/// Per-connection state shared between the reader thread (producer) and
/// the router / transaction tasks on the worker executor (consumers).
struct ConnShared {
    events: StdMutex<VecDeque<ConnEvent>>,
    router_waker: StdMutex<Option<Waker>>,
    closed: AtomicBool,
    /// One waker slot per parked [`Closed`], taken on its first pending
    /// poll, overwritten on re-poll and emptied on drop for the next
    /// `Closed` to reuse: the table is as long as the most races ever in
    /// flight at once, never as long as the polls the connection has seen.
    close_slots: StdMutex<Vec<Option<Waker>>>,
    /// Live transactions on this connection: admission control reads it,
    /// the reader only runs its inactivity countdown while it is > 0.
    live_txns: AtomicUsize,
}

enum ConnEvent {
    Frame(u64, Request),
    Malformed(ProtoError),
}

impl ConnShared {
    fn new() -> Self {
        ConnShared {
            events: StdMutex::new(VecDeque::new()),
            router_waker: StdMutex::new(None),
            closed: AtomicBool::new(false),
            close_slots: StdMutex::new(Vec::new()),
            live_txns: AtomicUsize::new(0),
        }
    }

    fn push_event(&self, ev: ConnEvent) {
        self.events.lock().unwrap().push_back(ev);
        self.wake_router();
    }

    fn wake_router(&self) {
        if let Some(w) = self.router_waker.lock().unwrap().take() {
            w.wake();
        }
    }

    /// Mark the connection closed and wake everything waiting on it.
    /// Sets the flag *before* emptying the slots — [`Closed`] re-checks
    /// the flag under that same lock, so no waiter can park after the
    /// drain without seeing the flag.
    fn mark_closed(&self) {
        self.closed.store(true, Ordering::Release);
        self.wake_router();
        let wakers: Vec<Waker> = self
            .close_slots
            .lock()
            .unwrap()
            .iter_mut()
            .filter_map(Option::take)
            .collect();
        for w in wakers {
            w.wake();
        }
    }
}

/// Resolves when the connection closes (EOF, error, timeout, protocol
/// violation, or server shutdown). Racing an operation future against
/// this is the session-teardown mechanism: the dropped loser triggers
/// the async layer's cancellation abort.
struct Closed {
    conn: Arc<ConnShared>,
    /// This future's index in `close_slots` once it has parked.
    slot: Option<usize>,
}

impl Closed {
    fn new(conn: &Arc<ConnShared>) -> Closed {
        Closed {
            conn: conn.clone(),
            slot: None,
        }
    }
}

impl Future for Closed {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        if this.conn.closed.load(Ordering::Acquire) {
            return Poll::Ready(());
        }
        let mut slots = this.conn.close_slots.lock().unwrap();
        if this.conn.closed.load(Ordering::Acquire) {
            return Poll::Ready(());
        }
        // An empty slot is free: before close every taken slot holds a
        // waker, and after close nothing parks.
        let i = *this.slot.get_or_insert_with(|| {
            slots.iter().position(Option::is_none).unwrap_or_else(|| {
                slots.push(None);
                slots.len() - 1
            })
        });
        // `LocalExecutor` hands a task the same waker on every poll, so a
        // re-poll skips the clone; a waker that would wake another task
        // (or comes from an executor that builds one per poll) overwrites
        // the slot.
        match &mut slots[i] {
            Some(stored) if stored.will_wake(cx.waker()) => {}
            entry => *entry = Some(cx.waker().clone()),
        }
        Poll::Pending
    }
}

impl Drop for Closed {
    fn drop(&mut self) {
        if let Some(i) = self.slot.take() {
            // A poisoned lock only means another thread panicked; leave
            // the slot taken rather than panic in drop.
            if let Ok(mut slots) = self.conn.close_slots.lock() {
                slots[i] = None;
            }
        }
    }
}

/// The router's event source: next decoded frame, or `None` once the
/// connection is closed *and* drained.
struct NextEvent {
    conn: Arc<ConnShared>,
}

impl Future for NextEvent {
    type Output = Option<ConnEvent>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        if let Some(ev) = self.conn.events.lock().unwrap().pop_front() {
            return Poll::Ready(Some(ev));
        }
        if self.conn.closed.load(Ordering::Acquire) {
            return Poll::Ready(None);
        }
        *self.conn.router_waker.lock().unwrap() = Some(cx.waker().clone());
        // Re-check: a push (or close) between the pop and the waker store
        // would have missed the waker.
        if let Some(ev) = self.conn.events.lock().unwrap().pop_front() {
            return Poll::Ready(Some(ev));
        }
        if self.conn.closed.load(Ordering::Acquire) {
            return Poll::Ready(None);
        }
        Poll::Pending
    }
}

/// One transaction task's work queue, fed by the router. `Rc`: both
/// sides live on the same worker executor.
#[derive(Default)]
struct TxnQueue {
    work: RefCell<VecDeque<TxnWork>>,
    waker: Cell<Option<Waker>>,
}

impl TxnQueue {
    fn push(&self, work: TxnWork) {
        self.work.borrow_mut().push_back(work);
        if let Some(w) = self.waker.take() {
            w.wake();
        }
    }
}

enum TxnWork {
    Exec {
        id: u64,
        handle: ObjectHandle,
        call: sbcc_adt::OpCall,
    },
    Batch {
        id: u64,
        ops: Vec<(ObjectHandle, sbcc_adt::OpCall)>,
    },
    Commit {
        id: u64,
    },
    Abort {
        id: u64,
    },
}

struct NextWork {
    queue: Rc<TxnQueue>,
}

impl Future for NextWork {
    type Output = TxnWork;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<TxnWork> {
        if let Some(work) = self.queue.work.borrow_mut().pop_front() {
            return Poll::Ready(work);
        }
        self.queue.waker.set(Some(cx.waker().clone()));
        Poll::Pending
    }
}

type SharedWriter = Arc<StdMutex<TcpStream>>;

/// Serialize one frame onto the connection; a failed or timed-out write
/// closes the connection (tearing down its sessions) rather than
/// wedging the worker behind a dead peer.
fn write_frame(writer: &SharedWriter, conn: &ConnShared, frame: &[u8]) {
    let failed = writer.lock().unwrap().write_all(frame).is_err();
    if failed {
        conn.mark_closed();
    }
}

/// Map a kernel error onto its wire error frame (codes mirror
/// [`CoreError`] variants; the detail is the error's `Display`).
fn error_response(e: &CoreError) -> Response {
    let code = match e {
        CoreError::UnknownTransaction(_) => ErrorCode::UnknownTransaction,
        CoreError::UnknownObject(_) => ErrorCode::UnknownObject,
        CoreError::InvalidState { .. } => ErrorCode::InvalidState,
        CoreError::Aborted { .. } => ErrorCode::Aborted,
        CoreError::DuplicateObject(_) => ErrorCode::DuplicateObject,
        CoreError::RetriesExhausted { .. } => ErrorCode::RetriesExhausted,
        CoreError::Durability(_) => ErrorCode::Durability,
    };
    Response::Error {
        code,
        detail: e.to_string(),
    }
}

/// A running wire-protocol server over one [`AsyncDatabase`].
///
/// Accepts connections until [`Server::shutdown`]; see the module docs
/// for the threading model, backpressure and tenancy rules.
pub struct Server {
    shared: Arc<ServerShared>,
    local_addr: SocketAddr,
    acceptor: Option<thread::JoinHandle<()>>,
    workers: Vec<thread::JoinHandle<()>>,
    inboxes: Vec<Arc<Inbox>>,
}

impl Server {
    /// Bind `config.addr` and start serving `db`.
    pub fn start(db: AsyncDatabase, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            db,
            config: config.clone(),
            shutdown: AtomicBool::new(false),
            registry: StdMutex::new(HashMap::new()),
            conns: StdMutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(1),
            connections_accepted: AtomicU64::new(0),
            connections_open: AtomicU64::new(0),
            transactions_in_flight: AtomicU64::new(0),
            shed_busy: AtomicU64::new(0),
            read_timeouts: AtomicU64::new(0),
            sessions_auto_aborted: AtomicU64::new(0),
        });
        let inboxes: Vec<Arc<Inbox>> = (0..config.workers.max(1))
            .map(|_| Arc::new(Inbox::new()))
            .collect();
        let workers = inboxes
            .iter()
            .enumerate()
            .map(|(i, inbox)| {
                let shared = shared.clone();
                let inbox = inbox.clone();
                thread::Builder::new()
                    .name(format!("sbcc-net-worker-{i}"))
                    .spawn(move || worker_main(shared, inbox))
                    .expect("spawn worker thread")
            })
            .collect();
        let acceptor = {
            let shared = shared.clone();
            let inboxes = inboxes.clone();
            thread::Builder::new()
                .name("sbcc-net-acceptor".to_owned())
                .spawn(move || acceptor_main(listener, shared, inboxes))
                .expect("spawn acceptor thread")
        };
        Ok(Server {
            shared,
            local_addr,
            acceptor: Some(acceptor),
            workers,
            inboxes,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The served database (e.g. for in-process verification against
    /// wire-driven state).
    pub fn db(&self) -> &AsyncDatabase {
        &self.shared.db
    }

    /// Look up the handle a tenant's object was registered under, for
    /// in-process verification of wire-driven state (e.g. reading the
    /// committed state of an object a remote client mutated).
    pub fn object_handle(&self, tenant: &str, name: &str) -> Option<ObjectHandle> {
        let qualified = format!("{tenant}/{name}");
        self.shared
            .registry
            .lock()
            .unwrap()
            .get(&qualified)
            .cloned()
    }

    /// Current server counters. After [`Server::shutdown`] returns, a
    /// leak-free run reports `connections_open == 0` and
    /// `transactions_in_flight == 0`.
    pub fn net_stats(&self) -> NetStats {
        self.shared.net_stats()
    }

    /// Stop accepting, tear down every connection (auto-aborting live
    /// sessions), join all threads, and return the final counters.
    pub fn shutdown(mut self) -> NetStats {
        self.shared.shutdown.store(true, Ordering::Release);
        // Unblock the acceptor's `accept` with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Force every open connection's reader to EOF.
        for (_, stream) in self.shared.conns.lock().unwrap().drain() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        // Wake listen tasks so they observe the flag and exit; workers'
        // executors then drain their remaining connection tasks and stop.
        for inbox in &self.inboxes {
            inbox.wake();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.shared.net_stats()
    }
}

fn acceptor_main(listener: TcpListener, shared: Arc<ServerShared>, inboxes: Vec<Arc<Inbox>>) {
    let mut next = 0usize;
    for incoming in listener.incoming() {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = incoming else { continue };
        let _ = stream.set_nodelay(true);
        inboxes[next % inboxes.len()].push(stream);
        next += 1;
    }
}

fn worker_main(shared: Arc<ServerShared>, inbox: Arc<Inbox>) {
    let exec = Rc::new(LocalExecutor::new());
    let exec_for_listen = exec.clone();
    exec.spawn(async move {
        loop {
            let next = std::future::poll_fn(|cx| {
                if shared.shutdown.load(Ordering::Acquire) {
                    return Poll::Ready(None);
                }
                if let Some(stream) = inbox.queue.lock().unwrap().pop_front() {
                    return Poll::Ready(Some(stream));
                }
                *inbox.waker.lock().unwrap() = Some(cx.waker().clone());
                // Re-check after storing the waker (the acceptor may have
                // pushed or shutdown may have flipped in between).
                if shared.shutdown.load(Ordering::Acquire) {
                    return Poll::Ready(None);
                }
                if let Some(stream) = inbox.queue.lock().unwrap().pop_front() {
                    return Poll::Ready(Some(stream));
                }
                Poll::Pending
            })
            .await;
            match next {
                Some(stream) => spawn_connection(&exec_for_listen, &shared, stream),
                None => return,
            }
        }
    });
    exec.run();
}

fn spawn_connection(exec: &Rc<LocalExecutor>, shared: &Arc<ServerShared>, stream: TcpStream) {
    let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
    shared.connections_accepted.fetch_add(1, Ordering::Relaxed);
    let (reader_stream, shutdown_stream) = match (stream.try_clone(), stream.try_clone()) {
        (Ok(r), Ok(s)) => (r, s),
        _ => return,
    };
    shared.connections_open.fetch_add(1, Ordering::Relaxed);
    // Bound writes so a peer that stops draining cannot wedge the worker.
    let _ = stream.set_write_timeout(Some(shared.config.read_timeout.max(Duration::from_secs(1))));
    shared
        .conns
        .lock()
        .unwrap()
        .insert(conn_id, shutdown_stream);

    let conn = Arc::new(ConnShared::new());
    {
        let conn = conn.clone();
        let shared = shared.clone();
        thread::Builder::new()
            .name(format!("sbcc-net-reader-{conn_id}"))
            .spawn(move || reader_main(reader_stream, conn, shared))
            .expect("spawn reader thread");
    }
    let writer: SharedWriter = Arc::new(StdMutex::new(stream));
    let exec2 = exec.clone();
    let shared2 = shared.clone();
    exec.spawn(async move {
        router_task(exec2, shared2, conn, writer, conn_id).await;
    });
}

/// The per-connection reader thread: accumulate bytes, decode frames,
/// feed the router; enforce the inactivity timeout while transactions
/// are live. Exits on EOF, error, timeout, router-initiated close, or
/// server shutdown — always marking the connection closed on the way
/// out.
fn reader_main(mut stream: TcpStream, conn: Arc<ConnShared>, shared: Arc<ServerShared>) {
    let config = &shared.config;
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let mut frames = FrameBuffer::new();
    let mut chunk = [0u8; 4096];
    let mut last_activity = Instant::now();
    'conn: loop {
        if conn.closed.load(Ordering::Acquire) || shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                last_activity = Instant::now();
                frames.extend(&chunk[..n]);
                loop {
                    match frames.next_frame(MAX_FRAME_LEN) {
                        Ok(Some(body)) => match Request::decode(&body) {
                            Ok((id, req)) => conn.push_event(ConnEvent::Frame(id, req)),
                            Err(e) => {
                                conn.push_event(ConnEvent::Malformed(e));
                                break 'conn;
                            }
                        },
                        Ok(None) => break,
                        Err(e) => {
                            conn.push_event(ConnEvent::Malformed(e));
                            break 'conn;
                        }
                    }
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if conn.live_txns.load(Ordering::Acquire) == 0 {
                    // No transaction at risk: idle connections live on,
                    // and the countdown restarts at the next Begin.
                    last_activity = Instant::now();
                    continue;
                }
                let fired = match chaos::timeout_fires(TimeoutPoint::NetRead) {
                    Some(virtual_verdict) => virtual_verdict,
                    None => last_activity.elapsed() >= config.read_timeout,
                };
                if fired {
                    shared.read_timeouts.fetch_add(1, Ordering::Relaxed);
                    break;
                }
            }
            Err(_) => break,
        }
    }
    conn.mark_closed();
}

/// The per-connection router task: owns the tenant handshake and the
/// wire-id → transaction-task map; answers directly for control frames
/// and dispatches operation frames to the owning transaction task.
async fn router_task(
    exec: Rc<LocalExecutor>,
    shared: Arc<ServerShared>,
    conn: Arc<ConnShared>,
    writer: SharedWriter,
    conn_id: u64,
) {
    let mut tenant: Option<String> = None;
    let mut txns: HashMap<u64, Rc<TxnQueue>> = HashMap::new();
    loop {
        let event = NextEvent { conn: conn.clone() }.await;
        let (id, req) = match event {
            None => break,
            Some(ConnEvent::Malformed(e)) => {
                // Request id 0: the frame never yielded one.
                write_frame(
                    &writer,
                    &conn,
                    &Response::Error {
                        code: ErrorCode::Protocol,
                        detail: e.to_string(),
                    }
                    .encode(0),
                );
                break;
            }
            Some(ConnEvent::Frame(id, req)) => (id, req),
        };
        let response = route(
            &exec,
            &shared,
            &conn,
            &writer,
            &mut tenant,
            &mut txns,
            id,
            req,
        );
        if let Some(resp) = response {
            write_frame(&writer, &conn, &resp.encode(id));
        }
        // Give tasks woken by this frame (newly queued work, settled
        // conflicts) the thread before the next frame is routed. Best
        // effort: when the reader thread's wake for the next frame is
        // already in the ready queue, the router runs again ahead of
        // them. A Pong therefore proves every earlier frame was routed to
        // its transaction task, not that the task has run it into the
        // kernel.
        sbcc_core::aio::yield_now().await;
    }
    conn.mark_closed();
    shared.conns.lock().unwrap().remove(&conn_id);
    shared.connections_open.fetch_sub(1, Ordering::Relaxed);
}

/// Handle one request frame. Returns the router's direct response, or
/// `None` when the frame was dispatched to a transaction task (which
/// responds itself, possibly much later).
#[allow(clippy::too_many_arguments)]
fn route(
    exec: &Rc<LocalExecutor>,
    shared: &Arc<ServerShared>,
    conn: &Arc<ConnShared>,
    writer: &SharedWriter,
    tenant: &mut Option<String>,
    txns: &mut HashMap<u64, Rc<TxnQueue>>,
    id: u64,
    req: Request,
) -> Option<Response> {
    let protocol_error = |detail: String| {
        Some(Response::Error {
            code: ErrorCode::Protocol,
            detail,
        })
    };
    // The handshake-free frames first.
    match &req {
        Request::Ping => return Some(Response::Pong),
        Request::Hello { version, tenant: t } => {
            if tenant.is_some() {
                return protocol_error("duplicate hello".to_owned());
            }
            if *version != PROTOCOL_VERSION {
                return protocol_error(format!(
                    "unsupported protocol version {version} (server speaks {PROTOCOL_VERSION})"
                ));
            }
            *tenant = Some(t.clone());
            return Some(Response::HelloAck {
                version: PROTOCOL_VERSION,
            });
        }
        _ => {}
    }
    let Some(tenant) = tenant.as_deref() else {
        return Some(Response::Error {
            code: ErrorCode::TenantRequired,
            detail: "hello with a tenant must precede every other request".to_owned(),
        });
    };
    let resolve = |object: &str| -> Result<ObjectHandle, Response> {
        let qualified = format!("{tenant}/{object}");
        shared
            .registry
            .lock()
            .unwrap()
            .get(&qualified)
            .cloned()
            .ok_or(Response::Error {
                code: ErrorCode::UnknownObject,
                detail: format!("unknown object {qualified:?}"),
            })
    };
    let want_snapshot = matches!(req, Request::BeginSnapshot);
    match req {
        Request::Hello { .. } | Request::Ping => unreachable!("handled above"),
        Request::Register { name, adt } => {
            let qualified = format!("{tenant}/{name}");
            let mut registry = shared.registry.lock().unwrap();
            if registry.contains_key(&qualified) {
                return Some(Response::Registered);
            }
            match shared
                .db
                .register_object(qualified.clone(), adt.instantiate())
            {
                Ok(handle) => {
                    registry.insert(qualified, handle);
                    Some(Response::Registered)
                }
                Err(e) => Some(error_response(&e)),
            }
        }
        Request::Begin | Request::BeginSnapshot => {
            if shared.shutdown.load(Ordering::Acquire) {
                return Some(Response::Error {
                    code: ErrorCode::Shutdown,
                    detail: "server is shutting down".to_owned(),
                });
            }
            let live = conn.live_txns.load(Ordering::Acquire);
            if live >= MAX_IN_FLIGHT_PER_CONN {
                shared.shed_busy.fetch_add(1, Ordering::Relaxed);
                return Some(Response::Error {
                    code: ErrorCode::Busy,
                    detail: format!(
                        "{live} transactions in flight on this connection \
                         (cap {MAX_IN_FLIGHT_PER_CONN})"
                    ),
                });
            }
            let txn = if want_snapshot {
                shared.db.begin_snapshot()
            } else {
                shared.db.begin()
            };
            let wire = txn.id().0;
            let queue = Rc::new(TxnQueue::default());
            txns.insert(wire, queue.clone());
            conn.live_txns.fetch_add(1, Ordering::AcqRel);
            shared
                .transactions_in_flight
                .fetch_add(1, Ordering::Relaxed);
            let shared = shared.clone();
            let conn = conn.clone();
            let writer = writer.clone();
            exec.spawn(async move {
                txn_task(shared, conn, writer, txn, queue).await;
            });
            Some(Response::Begun { txn: wire })
        }
        Request::Exec { txn, object, call } => {
            let Some(queue) = txns.get(&txn) else {
                return Some(unknown_txn(txn));
            };
            match resolve(&object) {
                Ok(handle) => {
                    queue.push(TxnWork::Exec { id, handle, call });
                    None
                }
                Err(resp) => Some(resp),
            }
        }
        Request::ExecBatch { txn, ops } => {
            let Some(queue) = txns.get(&txn) else {
                return Some(unknown_txn(txn));
            };
            let mut resolved = Vec::with_capacity(ops.len());
            for (object, call) in ops {
                match resolve(&object) {
                    Ok(handle) => resolved.push((handle, call)),
                    Err(resp) => return Some(resp),
                }
            }
            queue.push(TxnWork::Batch { id, ops: resolved });
            None
        }
        Request::Commit { txn } => match txns.remove(&txn) {
            Some(queue) => {
                queue.push(TxnWork::Commit { id });
                None
            }
            None => Some(unknown_txn(txn)),
        },
        Request::Abort { txn } => match txns.remove(&txn) {
            Some(queue) => {
                queue.push(TxnWork::Abort { id });
                None
            }
            None => Some(unknown_txn(txn)),
        },
    }
}

/// Mirrors [`CoreError::UnknownTransaction`]'s code and rendering for a
/// wire id the router does not know.
fn unknown_txn(txn: u64) -> Response {
    Response::Error {
        code: ErrorCode::UnknownTransaction,
        detail: format!("unknown transaction T{txn}"),
    }
}

/// One live transaction: drains its work queue, executing operations
/// against the session; every await races the connection-closed
/// notification, so a disconnect cancels in-flight operations (dropping
/// them aborts the session) and tears the task down.
async fn txn_task(
    shared: Arc<ServerShared>,
    conn: Arc<ConnShared>,
    writer: SharedWriter,
    txn: AsyncTransaction,
    queue: Rc<TxnQueue>,
) {
    'task: loop {
        let next = race(
            NextWork {
                queue: queue.clone(),
            },
            Closed::new(&conn),
        )
        .await;
        let work = match next {
            RaceWinner::Left(work) => work,
            RaceWinner::Right(()) => {
                auto_abort(&shared, txn).await;
                break 'task;
            }
        };
        match work {
            TxnWork::Exec { id, handle, call } => {
                let raced = race(txn.exec_call(&handle, call), Closed::new(&conn)).await;
                match raced {
                    RaceWinner::Left(Ok(result)) => {
                        write_frame(&writer, &conn, &Response::Result(result).encode(id));
                    }
                    RaceWinner::Left(Err(e)) => {
                        // Forward kernel errors without terminating the
                        // task: the client owns the session's fate, and
                        // follow-up requests get the kernel's own answer.
                        write_frame(&writer, &conn, &error_response(&e).encode(id));
                    }
                    RaceWinner::Right(()) => {
                        // The dropped exec future already cancelled (and
                        // aborted) the session; `auto_abort` settles the
                        // remaining cases and counts the teardown.
                        auto_abort(&shared, txn).await;
                        break 'task;
                    }
                }
            }
            TxnWork::Batch { id, ops } => {
                let mut results = Vec::with_capacity(ops.len());
                let mut outcome = None;
                for (handle, call) in ops {
                    let raced = race(txn.exec_call(&handle, call), Closed::new(&conn)).await;
                    match raced {
                        RaceWinner::Left(Ok(result)) => results.push(result),
                        RaceWinner::Left(Err(e)) => {
                            outcome = Some(error_response(&e));
                            break;
                        }
                        RaceWinner::Right(()) => {
                            auto_abort(&shared, txn).await;
                            break 'task;
                        }
                    }
                }
                let resp = outcome.unwrap_or(Response::Results(results));
                write_frame(&writer, &conn, &resp.encode(id));
            }
            TxnWork::Commit { id } => {
                let resp = match txn.commit().await {
                    Ok(outcome) => Response::Committed {
                        pseudo: outcome.is_pseudo_commit(),
                    },
                    Err(e) => error_response(&e),
                };
                write_frame(&writer, &conn, &resp.encode(id));
                break 'task;
            }
            TxnWork::Abort { id } => {
                let resp = match txn.abort().await {
                    Ok(()) => Response::Aborted,
                    Err(e) => error_response(&e),
                };
                write_frame(&writer, &conn, &resp.encode(id));
                break 'task;
            }
        }
    }
    conn.live_txns.fetch_sub(1, Ordering::AcqRel);
    shared
        .transactions_in_flight
        .fetch_sub(1, Ordering::Relaxed);
}

/// Tear down a session orphaned by its connection: abort it unless it
/// already reached a terminal state (a cancelled in-flight operation
/// aborts on drop; a pseudo-committed session is guaranteed to commit
/// and must not be touched).
async fn auto_abort(shared: &Arc<ServerShared>, txn: AsyncTransaction) {
    if matches!(
        txn.state(),
        Some(TxnState::Active) | Some(TxnState::Blocked)
    ) {
        let _ = txn.abort().await;
    }
    // Counted after the abort: whoever observes the count sees the
    // session terminated.
    shared.sessions_auto_aborted.fetch_add(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::task::Wake;

    /// Counts wakes into a shared total. A fresh `Arc` per poll never
    /// `will_wake` the last, so these tests see the worst case: an
    /// executor that builds a new waker for every poll.
    struct CountWakes(Arc<AtomicUsize>);

    impl Wake for CountWakes {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn poll_fresh(closed: &mut Closed, wakes: &Arc<AtomicUsize>) -> Poll<()> {
        let waker = Waker::from(Arc::new(CountWakes(wakes.clone())));
        Pin::new(closed).poll(&mut Context::from_waker(&waker))
    }

    /// (table length, occupied slots).
    fn slots(conn: &ConnShared) -> (usize, usize) {
        let slots = conn.close_slots.lock().unwrap();
        let occupied = slots.iter().filter(|w| w.is_some()).count();
        (slots.len(), occupied)
    }

    #[test]
    fn repolling_keeps_one_slot_and_drop_frees_it_for_reuse() {
        let conn = Arc::new(ConnShared::new());
        let wakes = Arc::new(AtomicUsize::new(0));
        let mut closed = Closed::new(&conn);
        for _ in 0..1_000 {
            assert!(poll_fresh(&mut closed, &wakes).is_pending());
        }
        assert_eq!(slots(&conn), (1, 1));

        drop(closed);
        assert_eq!(slots(&conn), (1, 0));
        let mut next = Closed::new(&conn);
        assert!(poll_fresh(&mut next, &wakes).is_pending());
        assert_eq!(slots(&conn), (1, 1), "the freed slot is reused");
        assert_eq!(wakes.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn close_wakes_every_parked_closed_and_later_polls_do_not_park() {
        let conn = Arc::new(ConnShared::new());
        let wakes = Arc::new(AtomicUsize::new(0));
        let mut parked: Vec<Closed> = (0..3).map(|_| Closed::new(&conn)).collect();
        for closed in &mut parked {
            assert!(poll_fresh(closed, &wakes).is_pending());
        }
        assert_eq!(slots(&conn), (3, 3));

        conn.mark_closed();
        assert_eq!(wakes.load(Ordering::Relaxed), 3);
        assert_eq!(slots(&conn), (3, 0));
        for closed in &mut parked {
            assert!(poll_fresh(closed, &wakes).is_ready());
        }
        let mut late = Closed::new(&conn);
        assert!(poll_fresh(&mut late, &wakes).is_ready());
        assert_eq!(late.slot, None, "a poll after close takes no slot");
        assert_eq!(slots(&conn), (3, 0));
    }
}

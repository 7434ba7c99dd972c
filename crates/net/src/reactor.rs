//! Nonblocking reactor transport, the one TCP transport: every socket is
//! registered with one of a fixed set of event-loop threads, so thread
//! count is O(event loops), not O(connections).
//!
//! A thread per connection would cap a single machine at tens of nodes.
//! The reactor carries `u32`-LE length-prefixed frames (the format of
//! [`crate::frame`]) under the [`Transport`] contract — in-order delivery
//! per sender, opaque string addresses — over `set_nonblocking(true)`
//! streams, with per-frame work O(1) and per-iteration work O(ready
//! sockets):
//!
//! - **Routes.** `bind("m/0")` opens a listener on an OS-assigned loopback
//!   port and records `"m/0" → 127.0.0.1:port`; the first `send("m/0", ..)`
//!   dials it and memoizes the connection under the name, so later sends
//!   are one read-locked lookup. Addresses that already parse as
//!   `host:port` bypass the names, so separate transport instances (or
//!   processes) can interoperate.
//! - **Writes happen on the sending thread.** A `send` that finds the
//!   connection's queue empty writes prefix + payload with one nonblocking
//!   vectored write under the connection lock; only what the kernel did
//!   not take is queued, and only then is the owning loop woken to finish
//!   it when the socket turns writable. A non-empty queue always means
//!   append, which is what keeps frames in order.
//! - **Event loops.** `ReactorConfig::event_loops` threads each own a
//!   disjoint set of listeners, inbound connections (read + frame
//!   reassembly) and outbound connections (remainder draining, hang-up
//!   detection), assigned round-robin and registered once with the
//!   loop's poller (`epoll` on linux, a sleep-scan elsewhere). A loopback
//!   socket pair per loop is the waker, gated by a flag so any number of
//!   concurrent wakes cost one byte per loop sleep; an injection channel
//!   carries new sockets, arm requests and shutdown into the loop.
//! - **Backpressure.** `ReactorConfig::write_queue_limit` bounds the
//!   unwritten bytes queued per connection; `send` blocks on a condvar
//!   at the limit and resumes as the loop drains them to the kernel. A
//!   peer that stops reading therefore stalls its senders instead of
//!   ballooning memory.
//! - **Failure containment.** A write error or peer hang-up closes that
//!   one connection: its queue is marked closed (waking blocked senders
//!   with an error) and it is unhooked from the routes so the next send
//!   dials fresh, never appending to a stream that may hold a torn frame.
//!   A dial that gets no answer within `DIAL_TIMEOUT` fails like a
//!   refused one.
//! - **Graceful shutdown.** [`ReactorTransport::shutdown`] asks each loop
//!   to drain every queued remainder (bounded by a deadline), then close
//!   all sockets and exit; it joins the loop threads before returning.

use crate::error::{NetError, NetResult};
use crate::frame::MAX_FRAME;
use crate::transport::{HostTransport, Transport};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use parking_lot::RwLock;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a loop sleeps when no socket is ready; also the cadence at
/// which it sweeps for dropped inbox receivers and closed connections,
/// and notices transport teardown.
const TICK: Duration = Duration::from_millis(50);
/// The shorter sleep of a loop that is draining for shutdown.
const SHUTDOWN_TICK: Duration = Duration::from_millis(5);
/// Per-loop budget for draining outbound queues during graceful shutdown.
const SHUTDOWN_DRAIN: Duration = Duration::from_secs(3);
/// Quiet period after the last inbound byte before a draining loop exits:
/// frames already flushed to the kernel by a peer loop get delivered to
/// their inboxes instead of dying in socket buffers.
const SHUTDOWN_LINGER: Duration = Duration::from_millis(100);
/// Upper bound a sender waits for backpressure to clear before giving up
/// (guards against a peer that never reads and a loop that died).
const BACKPRESSURE_WAIT: Duration = Duration::from_secs(10);
/// Upper bound on one outbound dial. The dial runs on whichever node
/// thread called `send`; without a bound, a peer that answers nothing
/// parks that node for the kernel's SYN retry period.
const DIAL_TIMEOUT: Duration = Duration::from_secs(2);
/// Scratch read buffer size per event loop.
const READ_CHUNK: usize = 64 * 1024;
/// A connection's reassembly buffer is released once it is empty and
/// larger than this, so one large frame does not pin `READ_CHUNK`-sized
/// buffers across hundreds of otherwise idle connections.
const KEEP_BUF: usize = 4 * 1024;

/// Tuning knobs for [`ReactorTransport`].
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Number of event-loop threads; sockets are spread round-robin.
    pub event_loops: usize,
    /// Host/IP listeners bind to (always on an OS-assigned port).
    pub host: String,
    /// Per-connection cap on queued unwritten bytes before `send` blocks.
    pub write_queue_limit: usize,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            event_loops: 2,
            host: "127.0.0.1".to_string(),
            write_queue_limit: 8 * 1024 * 1024,
        }
    }
}

/// Cumulative counters of the transport's hot path — diagnostics for
/// tests and profiling, not a knob.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReactorStats {
    /// Times any event loop went around (one poller wait each).
    pub loop_iterations: u64,
    /// Bytes written to loop wakers.
    pub waker_bytes: u64,
    /// Frames the kernel took whole on the sending thread.
    pub direct_frames: u64,
    /// Frames that left a remainder (or everything) in a write queue.
    pub queued_frames: u64,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Every update under these mutexes leaves the data valid at each
    // step, so a panicked holder's guard is safe to recover.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------
// Readiness: epoll(7) on linux, sleep-scan elsewhere
// ---------------------------------------------------------------------

/// What a registered socket should be reported for. Errors and hang-ups
/// are reported under every interest.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Interest {
    /// Readable: listeners, inbound connections, the waker.
    Read,
    /// Writable: an outbound connection holding an unwritten remainder.
    Write,
    /// Nothing but the peer going away: an idle outbound connection.
    HangUp,
}

/// One ready socket out of [`Poller::wait`].
struct Ready {
    fd: RawFd,
    /// The peer closed or the socket failed.
    hang_up: bool,
}

#[cfg(target_os = "linux")]
mod sys {
    use super::{Interest, Ready};
    use std::ffi::c_int;
    use std::io;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
    use std::time::Duration;

    const EPOLL_CLOEXEC: c_int = 0x80000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    /// Events fetched per `epoll_wait`; more stay ready for the next call.
    const BATCH: usize = 256;

    /// `struct epoll_event`: packed on x86, naturally aligned elsewhere.
    #[derive(Clone, Copy)]
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(C, packed))]
    #[cfg_attr(not(any(target_arch = "x86", target_arch = "x86_64")), repr(C))]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    // The container policy forbids new crates (no `libc`), so the three
    // epoll calls are declared directly.
    unsafe extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
    }

    /// Persistent, level-triggered readiness registration for one loop.
    pub struct Poller {
        epfd: OwnedFd,
        events: Vec<EpollEvent>,
    }

    impl Poller {
        pub fn new() -> io::Result<Self> {
            // SAFETY: epoll_create1 takes no pointers; a negative return
            // is an error and is not used as a descriptor.
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller {
                // SAFETY: `fd` is a descriptor epoll_create1 just returned,
                // owned by nothing else; `OwnedFd` closes it exactly once.
                epfd: unsafe { OwnedFd::from_raw_fd(fd) },
                events: vec![EpollEvent { events: 0, data: 0 }; BATCH],
            })
        }

        fn ctl(&self, op: c_int, fd: RawFd, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: match interest {
                    Interest::Read => EPOLLIN | EPOLLRDHUP,
                    Interest::Write => EPOLLOUT | EPOLLRDHUP,
                    Interest::HangUp => EPOLLRDHUP,
                },
                data: fd as u64,
            };
            // SAFETY: `ev` is a live, correctly laid out epoll_event for
            // the duration of the call (the kernel copies it), and `epfd`
            // is the open epoll descriptor this poller owns.
            let rc = unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Starts reporting `fd` under `interest` until [`Self::remove`].
        pub fn add(&mut self, fd: RawFd, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, interest)
        }

        /// Replaces the interest of an already added `fd`.
        pub fn set(&mut self, fd: RawFd, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, interest)
        }

        /// Stops reporting `fd`. Call before the socket closes: a closed
        /// descriptor leaves the set on its own only once no duplicate
        /// of it is open.
        pub fn remove(&mut self, fd: RawFd) {
            let _ = self.ctl(EPOLL_CTL_DEL, fd, Interest::HangUp);
        }

        /// Sleeps until a registered socket is ready or `timeout` passes,
        /// then appends the ready ones to `out`.
        pub fn wait(&mut self, timeout: Duration, out: &mut Vec<Ready>) {
            let ms = timeout.as_micros().div_ceil(1000).min(c_int::MAX as u128) as c_int;
            // SAFETY: `events` is a live buffer of BATCH epoll_events and
            // the kernel writes at most `maxevents` = BATCH of them.
            let n = unsafe {
                epoll_wait(
                    self.epfd.as_raw_fd(),
                    self.events.as_mut_ptr(),
                    BATCH as c_int,
                    ms,
                )
            };
            // EINTR or a transient failure reports nothing ready; the
            // caller comes around again.
            for ev in &self.events[..n.max(0) as usize] {
                let (events, data) = (ev.events, ev.data);
                out.push(Ready {
                    fd: data as RawFd,
                    hang_up: events & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                });
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::{Interest, Ready};
    use std::collections::HashMap;
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    /// Portable fallback: a short sleep, then every socket registered for
    /// reading or writing is claimed ready. All sockets are nonblocking,
    /// so spurious readiness costs one `WouldBlock` syscall per socket
    /// per scan; hang-ups surface as read or write errors.
    pub struct Poller {
        interests: HashMap<RawFd, Interest>,
    }

    impl Poller {
        pub fn new() -> io::Result<Self> {
            Ok(Poller {
                interests: HashMap::new(),
            })
        }

        pub fn add(&mut self, fd: RawFd, interest: Interest) -> io::Result<()> {
            self.interests.insert(fd, interest);
            Ok(())
        }

        pub fn set(&mut self, fd: RawFd, interest: Interest) -> io::Result<()> {
            self.interests.insert(fd, interest);
            Ok(())
        }

        pub fn remove(&mut self, fd: RawFd) {
            self.interests.remove(&fd);
        }

        pub fn wait(&mut self, timeout: Duration, out: &mut Vec<Ready>) {
            std::thread::sleep(timeout.min(Duration::from_millis(5)));
            out.extend(
                self.interests
                    .iter()
                    .filter(|(_, i)| **i != Interest::HangUp)
                    .map(|(&fd, _)| Ready { fd, hang_up: false }),
            );
        }
    }
}

use sys::Poller;

// ---------------------------------------------------------------------
// Connection state
// ---------------------------------------------------------------------

/// An outbound connection: the socket plus whatever the kernel has not
/// taken yet. Senders and the owning loop both write to the socket, but
/// only under the `state` lock — senders when the queue is empty, the
/// loop when it is not.
struct OutConn {
    sock: TcpStream,
    peer: SocketAddr,
    /// Index of the event loop this socket is registered with.
    owner: usize,
    state: Mutex<OutState>,
    /// Signalled when queued bytes drop below the limit or the
    /// connection closes, releasing senders blocked in `send`.
    room: Condvar,
    limit: usize,
}

struct OutState {
    /// Unwritten chunks in wire order. A frame that was not written at
    /// all contributes its 4-byte prefix and its payload (shared with
    /// the caller, so queueing copies nothing); a partly written one
    /// contributes only what is left of it.
    queue: VecDeque<Bytes>,
    /// Bytes of `queue.front()` already written to the kernel.
    offset: usize,
    /// Total unwritten bytes across the queue.
    queued: usize,
    /// The owning loop has been (or is being) told the queue is
    /// non-empty and will flush it; cleared when it drains.
    armed: bool,
    closed: bool,
}

/// How an accepted frame left [`OutConn::send`].
enum Accepted {
    /// The kernel took all of it.
    Direct,
    /// Some or all of it is queued; `arm` asks the caller to tell the
    /// owning loop (the first queueing since the queue last drained).
    Queued { arm: bool },
}

/// What [`OutConn::flush`] left behind.
enum Flushed {
    Drained,
    Pending,
    Failed,
}

impl OutConn {
    fn new(sock: TcpStream, peer: SocketAddr, owner: usize, limit: usize) -> Self {
        OutConn {
            sock,
            peer,
            owner,
            state: Mutex::new(OutState {
                queue: VecDeque::new(),
                offset: 0,
                queued: 0,
                armed: false,
                closed: false,
            }),
            room: Condvar::new(),
            limit,
        }
    }

    /// Sends one frame: straight to the socket when nothing is queued
    /// ahead of it, queueing whatever the kernel does not take. Blocks
    /// while the queue is over its byte limit; fails once the connection
    /// has closed.
    fn send(&self, payload: &Bytes) -> NetResult<Accepted> {
        let mut st = lock(&self.state);
        if st.queued >= self.limit {
            st = self.wait_for_room(st)?;
        }
        if st.closed {
            return Err(NetError::Disconnected);
        }
        let prefix = (payload.len() as u32).to_le_bytes();
        let total = prefix.len() + payload.len();
        let mut written = 0;
        if st.queue.is_empty() {
            let frame = [IoSlice::new(&prefix), IoSlice::new(payload)];
            written = loop {
                match (&self.sock).write_vectored(&frame) {
                    Ok(n) => break n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break 0,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        // The owning loop drops the socket on its next
                        // hang-up event or sweep.
                        st.closed = true;
                        self.room.notify_all();
                        return Err(NetError::Disconnected);
                    }
                }
            };
            if written == total {
                return Ok(Accepted::Direct);
            }
        }
        if written < prefix.len() {
            st.queue
                .push_back(Bytes::copy_from_slice(&prefix[written..]));
            st.queue.push_back(payload.clone());
        } else {
            st.queue.push_back(payload.slice(written - prefix.len()..));
        }
        st.queued += total - written;
        let arm = !st.armed;
        st.armed = true;
        Ok(Accepted::Queued { arm })
    }

    /// Parks a sender until the queue is under its byte limit again or
    /// the connection closes.
    fn wait_for_room<'a>(
        &'a self,
        mut st: MutexGuard<'a, OutState>,
    ) -> NetResult<MutexGuard<'a, OutState>> {
        let deadline = Instant::now() + BACKPRESSURE_WAIT;
        while !st.closed && st.queued >= self.limit {
            let now = Instant::now();
            if now >= deadline {
                return Err(NetError::Io(std::io::Error::new(
                    ErrorKind::TimedOut,
                    "write queue full: peer not draining",
                )));
            }
            let (guard, _) = self
                .room
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
        Ok(st)
    }

    /// Drains as much of the queue to the socket as the kernel accepts.
    /// Loop thread only.
    fn flush(&self) -> Flushed {
        let mut st = lock(&self.state);
        if st.closed {
            return Flushed::Failed;
        }
        while let Some(front) = st.queue.front() {
            let (off, front_len) = (st.offset, front.len());
            match (&self.sock).write(&front[off..]) {
                Ok(n) => {
                    st.offset += n;
                    st.queued -= n;
                    if st.offset == front_len {
                        st.queue.pop_front();
                        st.offset = 0;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    st.closed = true;
                    self.room.notify_all();
                    return Flushed::Failed;
                }
            }
        }
        if st.queued < self.limit {
            self.room.notify_all();
        }
        if st.queue.is_empty() {
            st.armed = false;
            Flushed::Drained
        } else {
            Flushed::Pending
        }
    }

    fn has_pending(&self) -> bool {
        lock(&self.state).queued > 0
    }

    fn is_closed(&self) -> bool {
        lock(&self.state).closed
    }

    fn close(&self) {
        lock(&self.state).closed = true;
        self.room.notify_all();
    }
}

/// An accepted connection being read. Frames that arrive whole are peeled
/// straight out of the loop's scratch buffer; `buf` holds only the tail
/// of a frame still in flight.
struct InConn {
    sock: TcpStream,
    inbox: Sender<Bytes>,
    buf: Vec<u8>,
}

/// Delivers every whole frame at the front of `bytes` to `inbox` and
/// returns how many bytes that consumed — `None` on a poisoned stream
/// (oversized frame) or a dropped inbox.
fn peel_frames(bytes: &[u8], inbox: &Sender<Bytes>) -> Option<usize> {
    let mut at = 0;
    while let Some((prefix, rest)) = bytes[at..].split_first_chunk::<4>() {
        let len = u32::from_le_bytes(*prefix) as usize;
        if len > MAX_FRAME {
            return None;
        }
        let Some(payload) = rest.get(..len) else {
            break;
        };
        inbox.send(Bytes::copy_from_slice(payload)).ok()?;
        at += 4 + len;
    }
    Some(at)
}

impl InConn {
    /// Reads until the socket runs dry (a short read), delivering whole
    /// frames as they complete. Returns `false` for a dead connection —
    /// EOF, error, poisoned stream or dropped inbox — which the caller
    /// must drop.
    fn pump(&mut self, scratch: &mut [u8]) -> bool {
        loop {
            let n = match (&self.sock).read(scratch) {
                Ok(0) => return false,
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            };
            if self.buf.is_empty() {
                let Some(used) = peel_frames(&scratch[..n], &self.inbox) else {
                    return false;
                };
                self.buf.extend_from_slice(&scratch[used..n]);
            } else {
                self.buf.extend_from_slice(&scratch[..n]);
                let Some(used) = peel_frames(&self.buf, &self.inbox) else {
                    return false;
                };
                self.buf.drain(..used);
            }
            if self.buf.is_empty() && self.buf.capacity() > KEEP_BUF {
                self.buf = Vec::new();
            }
            if n < scratch.len() {
                return true;
            }
        }
    }
}

/// A listener plus the inbox its accepted connections feed.
struct BoundListener {
    sock: TcpListener,
    inbox: Sender<Bytes>,
}

/// Commands injected into an event loop from the outside.
enum Cmd {
    AddListener(BoundListener),
    AddOutbound(Arc<OutConn>),
    /// The connection's queue went from empty to non-empty.
    Arm(Arc<OutConn>),
    Shutdown,
}

/// The injection side of one event loop.
struct LoopHandle {
    cmds: Sender<Cmd>,
    /// Nonblocking write end of the loop's waker socket pair; one byte
    /// brings the loop out of its sleep. `Write` is implemented for
    /// `&TcpStream`, so no lock is needed.
    waker: TcpStream,
    /// Set by the first waker since the loop last came around, cleared
    /// by the loop before it reads its commands: later wakers in the
    /// same round skip the byte, since the loop is already due to see
    /// their command.
    notified: Arc<AtomicBool>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

// ---------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------

/// Where a logical address leads.
struct Route {
    /// Real socket address of the bound listener.
    peer: SocketAddr,
    /// The live connection to `peer`, memoized by the first send.
    conn: Option<Arc<OutConn>>,
}

/// The routing state behind one lock: reads on every send, writes on
/// bind, alias, unbind, dial and connection close.
#[derive(Default)]
struct Routes {
    by_name: HashMap<String, Route>,
    /// Destination socket address → live outbound connection (the dial
    /// cache; at most one connection per peer).
    by_peer: HashMap<SocketAddr, Arc<OutConn>>,
}

impl Routes {
    /// The cached connection to `peer` — `fresh` takes the slot when
    /// there is none — memoized under `name` if that still leads to
    /// `peer`.
    fn adopt(
        &mut self,
        peer: SocketAddr,
        name: Option<&str>,
        fresh: Option<&Arc<OutConn>>,
    ) -> Option<Arc<OutConn>> {
        let conn = match self.by_peer.get(&peer) {
            Some(c) => c.clone(),
            None => {
                let c = fresh?.clone();
                self.by_peer.insert(peer, c.clone());
                c
            }
        };
        if let Some(route) = name.and_then(|n| self.by_name.get_mut(n)) {
            if route.peer == peer {
                route.conn = Some(conn.clone());
            }
        }
        Some(conn)
    }
}

/// State shared between the transport handles and the event loops. It
/// deliberately holds no loop handle: the loops exit when the last
/// transport clone drops their command channels.
#[derive(Default)]
struct Hub {
    routes: RwLock<Routes>,
    /// Open kernel connections across all loops (inbound + outbound).
    open_connections: AtomicUsize,
    bytes_sent: AtomicU64,
    loop_iterations: AtomicU64,
    waker_bytes: AtomicU64,
    direct_frames: AtomicU64,
    queued_frames: AtomicU64,
}

impl Hub {
    /// Unhooks a dead connection so the next send dials fresh — only
    /// where it is still the cached one: a replacement dialed by another
    /// sender must survive.
    fn evict(&self, conn: &Arc<OutConn>) {
        let mut routes = self.routes.write();
        let is_conn = |c: &Arc<OutConn>| Arc::ptr_eq(c, conn);
        if routes.by_peer.get(&conn.peer).is_some_and(is_conn) {
            routes.by_peer.remove(&conn.peer);
        }
        for route in routes.by_name.values_mut() {
            if route.conn.as_ref().is_some_and(is_conn) {
                route.conn = None;
            }
        }
    }
}

/// Shared state behind every clone of a [`ReactorTransport`].
struct ReactorShared {
    cfg: ReactorConfig,
    hub: Arc<Hub>,
    loops: Vec<LoopHandle>,
    next_loop: AtomicUsize,
    shutdown: AtomicBool,
}

/// The nonblocking readiness-loop transport. Cloning shares all state;
/// one instance (and its clones) serves a whole in-process deployment
/// over real kernel loopback sockets.
#[derive(Clone)]
pub struct ReactorTransport {
    shared: Arc<ReactorShared>,
}

impl ReactorTransport {
    /// Starts `cfg.event_loops` reactor threads and returns the transport.
    pub fn start(cfg: ReactorConfig) -> NetResult<Self> {
        let n = cfg.event_loops.max(1);
        let hub = Arc::new(Hub::default());
        let mut loops = Vec::with_capacity(n);
        for i in 0..n {
            let (cmd_tx, cmd_rx) = unbounded();
            let (waker_w, waker_r) = waker_pair()?;
            let notified = Arc::new(AtomicBool::new(false));
            let event_loop =
                EventLoop::new(cmd_rx, waker_r, Arc::clone(&notified), Arc::clone(&hub))?;
            let thread = std::thread::Builder::new()
                .name(format!("reactor-{i}"))
                .spawn(move || event_loop.run())
                .map_err(NetError::Io)?;
            loops.push(LoopHandle {
                cmds: cmd_tx,
                waker: waker_w,
                notified,
                thread: Mutex::new(Some(thread)),
            });
        }
        let shared = Arc::new(ReactorShared {
            cfg,
            hub,
            loops,
            next_loop: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
        });
        Ok(ReactorTransport { shared })
    }

    /// Number of event-loop threads this transport runs.
    pub fn event_loops(&self) -> usize {
        self.shared.loops.len()
    }

    /// Currently open kernel connections (inbound + outbound) across all
    /// loops — the soak test asserts this grows with cluster size while
    /// thread count does not.
    pub fn connection_count(&self) -> usize {
        self.shared.hub.open_connections.load(Ordering::Relaxed)
    }

    /// A snapshot of the hot-path counters.
    pub fn stats(&self) -> ReactorStats {
        let hub = &self.shared.hub;
        ReactorStats {
            loop_iterations: hub.loop_iterations.load(Ordering::Relaxed),
            waker_bytes: hub.waker_bytes.load(Ordering::Relaxed),
            direct_frames: hub.direct_frames.load(Ordering::Relaxed),
            queued_frames: hub.queued_frames.load(Ordering::Relaxed),
        }
    }

    /// The real `host:port` behind a logical address, if bound here.
    pub fn local_addr(&self, logical: &str) -> Option<String> {
        let routes = self.shared.hub.routes.read();
        routes.by_name.get(logical).map(|r| r.peer.to_string())
    }

    /// Hands `cmd` to loop `i` and makes sure it comes around to read it:
    /// one waker byte per loop sleep, however many callers race here.
    fn inject(&self, i: usize, cmd: Cmd) -> NetResult<()> {
        let lp = &self.shared.loops[i];
        lp.cmds.send(cmd).map_err(|_| NetError::Disconnected)?;
        // SeqCst pairs with the loop's clear-then-drain: either this swap
        // precedes the clear and the drain after it sees the command, or
        // it follows it, reads `false` and writes the byte.
        if !lp.notified.swap(true, Ordering::SeqCst) && (&lp.waker).write(&[1u8]).is_ok() {
            self.shared.hub.waker_bytes.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    fn pick_loop(&self) -> usize {
        self.shared.next_loop.fetch_add(1, Ordering::Relaxed) % self.shared.loops.len()
    }

    /// The connection `addr` leads to. The hit path is one read-locked
    /// lookup; a miss dials (or adopts the cached connection to the same
    /// peer) and memoizes it under the name.
    fn conn_for(&self, addr: &str) -> NetResult<Arc<OutConn>> {
        let (peer, name) = {
            let routes = self.shared.hub.routes.read();
            match routes.by_name.get(addr) {
                Some(Route { conn: Some(c), .. }) => return Ok(c.clone()),
                Some(route) => (route.peer, Some(addr)),
                None => {
                    let peer = addr
                        .parse::<SocketAddr>()
                        .map_err(|_| NetError::Unroutable(addr.to_string()))?;
                    if let Some(c) = routes.by_peer.get(&peer) {
                        return Ok(c.clone());
                    }
                    (peer, None)
                }
            }
        };
        if let Some(c) = self.shared.hub.routes.write().adopt(peer, name, None) {
            return Ok(c);
        }
        // std has no nonblocking connect; dial blocking (instant on
        // loopback) under a deadline, then flip to nonblocking. A dial
        // that times out reads as a refused one, so dispatcher failover
        // treats a black-holed peer like a dead one.
        let sock = TcpStream::connect_timeout(&peer, DIAL_TIMEOUT).map_err(|e| match e.kind() {
            ErrorKind::TimedOut => ErrorKind::ConnectionRefused.into(),
            _ => e,
        })?;
        sock.set_nodelay(true)?;
        sock.set_nonblocking(true)?;
        let fresh = Arc::new(OutConn::new(
            sock,
            peer,
            self.pick_loop(),
            self.shared.cfg.write_queue_limit,
        ));
        // A racing sender may have registered a connection while we
        // dialed. Keep the first; ours drops.
        let winner = self
            .shared
            .hub
            .routes
            .write()
            .adopt(peer, name, Some(&fresh))
            .expect("a fresh connection was offered");
        if Arc::ptr_eq(&winner, &fresh) {
            self.shared
                .hub
                .open_connections
                .fetch_add(1, Ordering::Relaxed);
            self.inject(fresh.owner, Cmd::AddOutbound(fresh))?;
        }
        Ok(winner)
    }

    /// Graceful teardown: drain outbound queues, close every socket, stop
    /// and join the loop threads. Further sends fail. Idempotent.
    pub fn shutdown(&self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        for i in 0..self.shared.loops.len() {
            let _ = self.inject(i, Cmd::Shutdown);
        }
        for lp in &self.shared.loops {
            if let Some(h) = lock(&lp.thread).take() {
                let _ = h.join();
            }
        }
        // Unblock any sender still parked on a full queue.
        for conn in self.shared.hub.routes.read().by_peer.values() {
            conn.close();
        }
    }
}

impl Transport for ReactorTransport {
    fn bind(&self, addr: &str) -> NetResult<Receiver<Bytes>> {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return Err(NetError::Disconnected);
        }
        // A literal host:port binds exactly there; logical names get an
        // OS-assigned port on the configured host.
        let listener = match addr.parse::<SocketAddr>() {
            Ok(sa) => TcpListener::bind(sa)?,
            Err(_) => TcpListener::bind((self.shared.cfg.host.as_str(), 0))?,
        };
        listener.set_nonblocking(true)?;
        let peer = listener.local_addr()?;
        let (tx, rx) = unbounded();
        self.shared
            .hub
            .routes
            .write()
            .by_name
            .insert(addr.to_string(), Route { peer, conn: None });
        self.inject(
            self.pick_loop(),
            Cmd::AddListener(BoundListener {
                sock: listener,
                inbox: tx,
            }),
        )?;
        Ok(rx)
    }

    fn send(&self, addr: &str, payload: Bytes) -> NetResult<()> {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return Err(NetError::Disconnected);
        }
        if payload.len() > MAX_FRAME {
            // The receiving side poisons the stream on such a prefix.
            return Err(NetError::FrameTooLarge(payload.len()));
        }
        let conn = self.conn_for(addr)?;
        let hub = &self.shared.hub;
        match conn.send(&payload) {
            Ok(accepted) => {
                hub.bytes_sent
                    .fetch_add(payload.len() as u64, Ordering::Relaxed);
                match accepted {
                    Accepted::Direct => {
                        hub.direct_frames.fetch_add(1, Ordering::Relaxed);
                    }
                    Accepted::Queued { arm } => {
                        hub.queued_frames.fetch_add(1, Ordering::Relaxed);
                        if arm {
                            // A loop that is gone has closed the
                            // connection; the next send reports it.
                            let _ = self.inject(conn.owner, Cmd::Arm(conn));
                        }
                    }
                }
                Ok(())
            }
            Err(e) => {
                hub.evict(&conn);
                Err(e)
            }
        }
    }
}

impl HostTransport for ReactorTransport {
    fn alias(&self, addr: &str, target: &str) -> NetResult<()> {
        let mut routes = self.shared.hub.routes.write();
        let target = routes
            .by_name
            .get(target)
            .ok_or_else(|| NetError::Unroutable(target.to_string()))?;
        let route = Route {
            peer: target.peer,
            conn: target.conn.clone(),
        };
        routes.by_name.insert(addr.to_string(), route);
        Ok(())
    }

    fn unbind(&self, addr: &str) {
        self.shared.hub.routes.write().by_name.remove(addr);
    }

    fn wire_stats(&self) -> (u64, u64) {
        let stats = self.stats();
        (
            stats.direct_frames + stats.queued_frames,
            self.shared.hub.bytes_sent.load(Ordering::Relaxed),
        )
    }

    fn as_transport(&self) -> Arc<dyn Transport> {
        Arc::new(self.clone())
    }

    fn shutdown(&self) {
        ReactorTransport::shutdown(self)
    }
}

/// Builds the waker socket pair for one loop, both ends nonblocking, as
/// `(write end, read end)` over loopback TCP — portable, and off the hot
/// path now that a wake is rare.
fn waker_pair() -> NetResult<(TcpStream, TcpStream)> {
    let l = TcpListener::bind(("127.0.0.1", 0))?;
    let w = TcpStream::connect(l.local_addr()?)?;
    w.set_nodelay(true)?;
    w.set_nonblocking(true)?;
    let (r, _) = l.accept()?;
    r.set_nonblocking(true)?;
    Ok((w, r))
}

// ---------------------------------------------------------------------
// The event loop
// ---------------------------------------------------------------------

/// A socket a loop owns, keyed by its descriptor in [`EventLoop::sources`].
enum Source {
    Listener(BoundListener),
    Inbound(InConn),
    Outbound(Arc<OutConn>),
}

struct EventLoop {
    cmds: Receiver<Cmd>,
    waker: TcpStream,
    notified: Arc<AtomicBool>,
    hub: Arc<Hub>,
    poller: Poller,
    sources: HashMap<RawFd, Source>,
    scratch: Vec<u8>,
    /// An inbound connection was readable since the flag was last taken
    /// (restarts the shutdown linger clock).
    inbound_activity: bool,
}

impl EventLoop {
    fn new(
        cmds: Receiver<Cmd>,
        waker: TcpStream,
        notified: Arc<AtomicBool>,
        hub: Arc<Hub>,
    ) -> NetResult<Self> {
        let mut poller = Poller::new()?;
        poller.add(waker.as_raw_fd(), Interest::Read)?;
        Ok(EventLoop {
            cmds,
            waker,
            notified,
            hub,
            poller,
            sources: HashMap::new(),
            scratch: vec![0u8; READ_CHUNK],
            inbound_activity: false,
        })
    }

    fn run(mut self) {
        let mut ready: Vec<Ready> = Vec::new();
        let mut drain_deadline: Option<Instant> = None;
        let mut last_inbound = Instant::now();
        let mut next_sweep = last_inbound + TICK;
        loop {
            self.hub.loop_iterations.fetch_add(1, Ordering::Relaxed);
            // Clear before reading commands (see `inject`).
            self.notified.store(false, Ordering::SeqCst);
            let shutdown = self.absorb_commands();

            let now = Instant::now();
            if shutdown && drain_deadline.is_none() {
                drain_deadline = Some(now + SHUTDOWN_DRAIN);
                self.inbound_activity = true;
            }
            if std::mem::take(&mut self.inbound_activity) {
                last_inbound = now;
            }
            if now >= next_sweep {
                self.sweep();
                next_sweep = now + TICK;
            }
            if let Some(deadline) = drain_deadline {
                // Exit once our queues are flushed AND inbound has gone
                // quiet (peer loops may still be flushing toward our
                // inboxes), or when the drain budget runs out. Listeners
                // and inbound connections stay live until then: a peer's
                // connection may still sit unaccepted in the backlog with
                // flushed frames behind it (new *sends* are refused at
                // the transport layer).
                let drained = !self.sources.values().any(|s| match s {
                    Source::Outbound(c) => c.has_pending(),
                    _ => false,
                });
                let quiet = now >= last_inbound + SHUTDOWN_LINGER;
                if (drained && quiet) || now >= deadline {
                    return self.close_all();
                }
            }

            let sleep = match drain_deadline {
                Some(_) => SHUTDOWN_TICK,
                None => next_sweep.saturating_duration_since(now),
            };
            self.poller.wait(sleep, &mut ready);
            for r in ready.drain(..) {
                self.service(r);
            }
        }
    }

    /// Takes in injected sockets and commands; returns whether to shut
    /// down. A disconnected command channel means every transport clone
    /// is gone, which is a shutdown too.
    fn absorb_commands(&mut self) -> bool {
        loop {
            match self.cmds.try_recv() {
                Ok(Cmd::AddListener(l)) => {
                    let fd = l.sock.as_raw_fd();
                    self.register(fd, Source::Listener(l), Interest::Read);
                }
                Ok(Cmd::AddOutbound(c)) => {
                    let fd = c.sock.as_raw_fd();
                    if self.register(fd, Source::Outbound(c), Interest::HangUp) {
                        // Senders may have queued behind the first frame
                        // before this loop knew the connection.
                        self.flush_outbound(fd);
                    }
                }
                // A no-op for a connection that is not ours yet (its
                // `AddOutbound` flushes on arrival) or any more (it is
                // closed). The command holds the socket open, so its
                // descriptor cannot name another source meanwhile.
                Ok(Cmd::Arm(c)) => self.flush_outbound(c.sock.as_raw_fd()),
                Ok(Cmd::Shutdown) | Err(TryRecvError::Disconnected) => return true,
                Err(TryRecvError::Empty) => return false,
            }
        }
    }

    /// Registers `source` with the poller and takes ownership of it. A
    /// socket the poller refuses is dropped (closed) on the spot.
    fn register(&mut self, fd: RawFd, source: Source, interest: Interest) -> bool {
        let registered = self.poller.add(fd, interest).is_ok();
        self.sources.insert(fd, source);
        if !registered {
            self.drop_source(fd);
        }
        registered
    }

    /// Forgets `fd`: deregisters it, closes the socket (as its owner
    /// drops) and settles the connection accounting.
    fn drop_source(&mut self, fd: RawFd) {
        let Some(source) = self.sources.remove(&fd) else {
            return;
        };
        self.poller.remove(fd);
        match source {
            Source::Listener(_) => {}
            Source::Inbound(_) => {
                self.hub.open_connections.fetch_sub(1, Ordering::Relaxed);
            }
            Source::Outbound(c) => {
                c.close();
                self.hub.open_connections.fetch_sub(1, Ordering::Relaxed);
                self.hub.evict(&c);
            }
        }
    }

    /// The tick's housekeeping, O(sockets) but off the per-event path:
    /// drops bindings whose inbox receiver is gone (unbound or crashed
    /// node) — which is what frees their ports — and connections a
    /// sender closed after a failed write.
    fn sweep(&mut self) {
        let dead: Vec<RawFd> = self
            .sources
            .iter()
            .filter(|(_, s)| match s {
                Source::Listener(l) => l.inbox.is_disconnected(),
                Source::Inbound(c) => c.inbox.is_disconnected(),
                Source::Outbound(c) => c.is_closed(),
            })
            .map(|(&fd, _)| fd)
            .collect();
        for fd in dead {
            self.drop_source(fd);
        }
    }

    /// Writes what `fd`'s queue holds and asks for writability only while
    /// a remainder is left.
    fn flush_outbound(&mut self, fd: RawFd) {
        let Some(Source::Outbound(conn)) = self.sources.get(&fd) else {
            return;
        };
        let interest = match conn.flush() {
            Flushed::Drained => Interest::HangUp,
            Flushed::Pending => Interest::Write,
            Flushed::Failed => return self.drop_source(fd),
        };
        if self.poller.set(fd, interest).is_err() {
            self.drop_source(fd);
        }
    }

    fn service(&mut self, ready: Ready) {
        let fd = ready.fd;
        if fd == self.waker.as_raw_fd() {
            // At most one byte per time around. EOF means every transport
            // handle is gone (the command channel says so too): stop
            // polling an end that would read as ready forever.
            if matches!((&self.waker).read(&mut self.scratch), Ok(0)) {
                self.poller.remove(fd);
            }
            return;
        }
        // A socket dropped earlier in this batch has no entry any more.
        match self.sources.get_mut(&fd) {
            None => {}
            Some(Source::Listener(l)) => {
                let mut accepted = Vec::new();
                loop {
                    match l.sock.accept() {
                        Ok((stream, _)) => {
                            if stream.set_nonblocking(true).is_err() {
                                continue; // toss the one bad socket
                            }
                            let _ = stream.set_nodelay(true);
                            accepted.push(InConn {
                                sock: stream,
                                inbox: l.inbox.clone(),
                                buf: Vec::new(),
                            });
                        }
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        // WouldBlock: backlog empty. Anything else is a
                        // transient accept failure (aborted handshake, fd
                        // pressure): skip it, keep the listener alive.
                        Err(_) => break,
                    }
                }
                for conn in accepted {
                    self.hub.open_connections.fetch_add(1, Ordering::Relaxed);
                    let fd = conn.sock.as_raw_fd();
                    self.register(fd, Source::Inbound(conn), Interest::Read);
                }
            }
            Some(Source::Inbound(conn)) => {
                // A hang-up is read like data: what the peer flushed
                // before closing is delivered, then the read reports EOF.
                self.inbound_activity = true;
                if !conn.pump(&mut self.scratch) {
                    self.drop_source(fd);
                }
            }
            Some(Source::Outbound(_)) => {
                if ready.hang_up {
                    self.drop_source(fd);
                } else {
                    self.flush_outbound(fd);
                }
            }
        }
    }

    /// Shutdown's last step: every socket closes, failing the senders
    /// still parked on a queue.
    fn close_all(mut self) {
        let fds: Vec<RawFd> = self.sources.keys().copied().collect();
        for fd in fds {
            self.drop_source(fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    fn reactor() -> ReactorTransport {
        ReactorTransport::start(ReactorConfig::default()).unwrap()
    }

    #[test]
    fn logical_bind_send_round_trip() {
        let t = reactor();
        let rx = t.bind("m/0").unwrap();
        t.send("m/0", Bytes::from_static(b"hello reactor")).unwrap();
        t.send("m/0", Bytes::from_static(b"second")).unwrap();
        assert_eq!(
            &rx.recv_timeout(Duration::from_secs(5)).unwrap()[..],
            b"hello reactor"
        );
        assert_eq!(
            &rx.recv_timeout(Duration::from_secs(5)).unwrap()[..],
            b"second"
        );
        t.shutdown();
    }

    #[test]
    fn unroutable_and_unbind() {
        let t = reactor();
        assert!(matches!(
            t.send("ghost", Bytes::new()),
            Err(NetError::Unroutable(_))
        ));
        let rx = t.bind("x").unwrap();
        HostTransport::unbind(&t, "x");
        assert!(t.send("x", Bytes::new()).is_err());
        drop(rx);
        // A literal address nobody listens on fails the dial, promptly,
        // and leaves the transport usable.
        let closed = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .unwrap()
            .to_string();
        let dialed = Instant::now();
        assert!(matches!(
            t.send(&closed, Bytes::new()),
            Err(NetError::Io(_))
        ));
        assert!(dialed.elapsed() < DIAL_TIMEOUT);
        let live = t.bind("y").unwrap();
        let real = t.local_addr("y").unwrap();
        t.send(&real, Bytes::from_static(b"still up")).unwrap();
        assert_eq!(
            &live.recv_timeout(Duration::from_secs(5)).unwrap()[..],
            b"still up"
        );
        t.shutdown();
    }

    #[test]
    fn alias_funnels_to_one_inbox() {
        let t = reactor();
        let rx = t.bind("mailbox").unwrap();
        HostTransport::alias(&t, "c/1", "mailbox").unwrap();
        t.send("c/1", Bytes::from_static(b"via alias")).unwrap();
        assert_eq!(
            &rx.recv_timeout(Duration::from_secs(5)).unwrap()[..],
            b"via alias"
        );
        assert!(HostTransport::alias(&t, "c/2", "ghost").is_err());
        t.shutdown();
    }

    #[test]
    fn memoized_routes_follow_alias_unbind_and_rebind() {
        let t = reactor();
        let recv = |rx: &Receiver<Bytes>| rx.recv_timeout(Duration::from_secs(5)).unwrap();
        let direct = t.bind("c/1").unwrap();
        let mailbox = t.bind("mailbox").unwrap();
        // The first send memoizes the connection under the name...
        t.send("c/1", Bytes::from_static(b"direct")).unwrap();
        assert_eq!(&recv(&direct)[..], b"direct");
        // ...an alias replaces it,
        HostTransport::alias(&t, "c/1", "mailbox").unwrap();
        t.send("c/1", Bytes::from_static(b"indirect")).unwrap();
        assert_eq!(&recv(&mailbox)[..], b"indirect");
        assert!(direct.try_recv().is_err());
        // an unbind forgets it,
        HostTransport::unbind(&t, "c/1");
        assert!(matches!(
            t.send("c/1", Bytes::new()),
            Err(NetError::Unroutable(_))
        ));
        // and a rebind leads to the new listener.
        let again = t.bind("c/1").unwrap();
        t.send("c/1", Bytes::from_static(b"rebound")).unwrap();
        assert_eq!(&recv(&again)[..], b"rebound");
        t.shutdown();
    }

    #[test]
    fn order_preserved_per_sender() {
        let t = reactor();
        let rx = t.bind("dest").unwrap();
        for i in 0..200u8 {
            t.send("dest", Bytes::from(vec![i])).unwrap();
        }
        for i in 0..200u8 {
            let got = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(got[0], i);
        }
        t.shutdown();
    }

    #[test]
    fn frames_larger_than_a_read_reassemble_in_order() {
        let t = reactor();
        let rx = t.bind("dest").unwrap();
        // Several reads' worth, then small frames that land in the same
        // reads as the large frame's tail.
        let big: Vec<u8> = (0..5 * READ_CHUNK + 17).map(|i| i as u8).collect();
        for round in 0..3u8 {
            t.send("dest", Bytes::from(big.clone())).unwrap();
            t.send("dest", Bytes::from(vec![round; 3])).unwrap();
            t.send("dest", Bytes::new()).unwrap();
        }
        for round in 0..3u8 {
            let recv = || rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(recv()[..], big[..]);
            assert_eq!(recv()[..], [round; 3]);
            assert!(recv().is_empty());
        }
        t.shutdown();
    }

    #[test]
    fn cross_instance_via_real_address() {
        let a = reactor();
        let b = reactor();
        let rx = a.bind("inbox").unwrap();
        let real = a.local_addr("inbox").unwrap();
        b.send(&real, Bytes::from_static(b"across instances"))
            .unwrap();
        assert_eq!(
            &rx.recv_timeout(Duration::from_secs(5)).unwrap()[..],
            b"across instances"
        );
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn tiny_write_queue_applies_backpressure_without_loss() {
        let t = ReactorTransport::start(ReactorConfig {
            write_queue_limit: 64,
            ..ReactorConfig::default()
        })
        .unwrap();
        let rx = t.bind("sink").unwrap();
        let n = 300u16;
        for i in 0..n {
            t.send("sink", Bytes::from(i.to_le_bytes().to_vec()))
                .unwrap();
        }
        for i in 0..n {
            let got = rx.recv_timeout(Duration::from_secs(10)).unwrap();
            assert_eq!(u16::from_le_bytes([got[0], got[1]]), i);
        }
        t.shutdown();
    }

    /// Eight threads, one destination, frames far larger than a socket
    /// buffer and a reader that does not start until the transport has
    /// had to queue: direct writes, queued remainders, backpressure waits
    /// and loop flushes all interleave, and still nothing is lost, torn
    /// or reordered within a sender.
    #[test]
    fn concurrent_senders_keep_order_when_the_socket_pushes_back() {
        const SENDERS: usize = 8;
        const FRAMES: u32 = 60;
        const LEN: usize = 48 * 1024;
        let t = ReactorTransport::start(ReactorConfig {
            write_queue_limit: 256 * 1024,
            ..ReactorConfig::default()
        })
        .unwrap();
        // A raw listener read by hand, so the test decides when the
        // socket drains.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let dest = listener.local_addr().unwrap().to_string();
        let start = Arc::new(Barrier::new(SENDERS));
        let senders: Vec<_> = (0..SENDERS)
            .map(|s| {
                let (t, dest, start) = (t.clone(), dest.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    for seq in 0..FRAMES {
                        let mut frame = vec![s as u8; LEN];
                        frame[1..5].copy_from_slice(&seq.to_le_bytes());
                        t.send(&dest, Bytes::from(frame)).unwrap();
                    }
                })
            })
            .collect();
        let (mut sock, _) = listener.accept().unwrap();
        let deadline = Instant::now() + BACKPRESSURE_WAIT / 2;
        while t.stats().queued_frames == 0 {
            assert!(Instant::now() < deadline, "the socket never pushed back");
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut next = [0u32; SENDERS];
        for _ in 0..SENDERS * FRAMES as usize {
            let frame = crate::frame::read_frame(&mut sock).unwrap();
            assert_eq!(frame.len(), LEN);
            let s = frame[0] as usize;
            let seq = u32::from_le_bytes(frame[1..5].try_into().unwrap());
            assert_eq!(seq, next[s], "sender {s} out of order");
            assert!(frame[5..].iter().all(|&b| b == s as u8), "torn frame");
            next[s] += 1;
        }
        for h in senders {
            h.join().unwrap();
        }
        // One frame and its payload bytes per accepted send, whichever
        // way it left.
        let total = SENDERS as u64 * FRAMES as u64;
        let stats = t.stats();
        assert_eq!(stats.direct_frames + stats.queued_frames, total);
        assert_eq!(HostTransport::wire_stats(&t), (total, total * LEN as u64));
        t.shutdown();
    }

    /// Per-frame cost does not depend on how many other sockets the loops
    /// hold: with 500 idle listeners and connections registered, F small
    /// frames to one peer are F direct writes, no wake, and at most one
    /// loop iteration per frame (plus the idle ticks).
    #[test]
    fn idle_sockets_cost_nothing_per_frame() {
        const IDLE: usize = 500;
        const FRAMES: u64 = 200;
        let t = reactor();
        let secs = Duration::from_secs(10);
        let idle: Vec<_> = (0..IDLE)
            .map(|i| {
                let name = format!("idle/{i}");
                let rx = t.bind(&name).unwrap();
                t.send(&name, Bytes::from_static(b"hello")).unwrap();
                rx
            })
            .collect();
        for rx in &idle {
            rx.recv_timeout(secs).unwrap();
        }
        let rx = t.bind("busy").unwrap();
        t.send("busy", Bytes::from_static(b"dial")).unwrap();
        rx.recv_timeout(secs).unwrap();

        let before = t.stats();
        let started = Instant::now();
        for i in 0..FRAMES {
            t.send("busy", Bytes::from(i.to_le_bytes().to_vec()))
                .unwrap();
        }
        for i in 0..FRAMES {
            let got = rx.recv_timeout(secs).unwrap();
            assert_eq!(got[..], i.to_le_bytes());
        }
        let ticks = (started.elapsed().as_millis() / TICK.as_millis()) as u64 + 1;
        let after = t.stats();
        assert_eq!(after.direct_frames - before.direct_frames, FRAMES);
        assert_eq!(after.queued_frames, before.queued_frames);
        assert_eq!(after.waker_bytes, before.waker_bytes);
        let iterations = after.loop_iterations - before.loop_iterations;
        let loops = t.event_loops() as u64;
        assert!(
            iterations <= FRAMES + loops * ticks,
            "{iterations} iterations for {FRAMES} frames over {ticks} ticks"
        );
        t.shutdown();
    }

    #[test]
    fn dropped_inbox_frees_listener_port_and_connections() {
        let t = reactor();
        let rx = t.bind("gone").unwrap();
        let real = t.local_addr("gone").unwrap();
        t.send("gone", Bytes::from_static(b"hello")).unwrap();
        rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(t.connection_count(), 2);
        drop(rx);
        // The sweep runs once a tick: it closes the listener (connects
        // are refused) and the accepted connection, whose hang-up the
        // poller then reports for the outbound end.
        let freed = |t: &ReactorTransport| {
            TcpStream::connect(&real).is_err()
                && t.connection_count() <= usize::from(!cfg!(target_os = "linux"))
        };
        let deadline = Instant::now() + 40 * TICK;
        while !freed(&t) {
            assert!(Instant::now() < deadline, "binding still held");
            std::thread::sleep(TICK / 5);
        }
        // The dial cache let go as well: the next send dials, and fails.
        assert!(t.send("gone", Bytes::new()).is_err());
        t.shutdown();
    }

    #[test]
    fn oversized_frames_are_refused_at_send() {
        let t = reactor();
        let _rx = t.bind("m/0").unwrap();
        let big = Bytes::from(vec![0u8; MAX_FRAME + 1]);
        assert!(matches!(
            t.send("m/0", big),
            Err(NetError::FrameTooLarge(_))
        ));
        t.shutdown();
    }

    #[test]
    fn shutdown_is_graceful_and_idempotent() {
        let t = reactor();
        let rx = t.bind("m/0").unwrap();
        for _ in 0..50 {
            t.send("m/0", Bytes::from_static(b"payload")).unwrap();
        }
        t.shutdown();
        t.shutdown();
        assert!(t.send("m/0", Bytes::new()).is_err());
        // Everything enqueued before shutdown was drained to the peer.
        let mut got = 0;
        while rx.recv_timeout(Duration::from_millis(200)).is_ok() {
            got += 1;
        }
        assert_eq!(got, 50);
    }

    #[test]
    fn wire_stats_count_payload_bytes() {
        let t = reactor();
        let _rx = t.bind("m/0").unwrap();
        t.send("m/0", Bytes::from_static(b"12345")).unwrap();
        t.send("m/0", Bytes::from_static(b"678")).unwrap();
        let (frames, bytes) = HostTransport::wire_stats(&t);
        assert_eq!(frames, 2);
        assert_eq!(bytes, 8);
        t.shutdown();
    }
}

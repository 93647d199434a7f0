//! The serving core: [`ServeConfig::effective_workers`] reactor
//! threads over non-blocking sockets, each driving its own raw `epoll`
//! readiness loop on Linux (thin FFI — the workspace is std-only) or a
//! portable `poll(2)` fallback on other Unixes.
//!
//! Each **reactor** owns one poller and the connections handed to it,
//! and runs a request to completion on its own thread: it reads,
//! frames pipelined requests incrementally
//! ([`crate::http::frame_request`] + [`crate::http::read_request`]),
//! calls [`Handler::handle`] — a replica's router or the cluster
//! coordinator — inline, and encodes the response into the
//! connection's output buffer, so responses leave **in request order**
//! with no hand-off between threads. A handler panic is contained: it
//! costs its connection, never the reactor.
//!
//! The listener sits in every reactor's poller (`EPOLLEXCLUSIVE` on
//! Linux), so a reactor that is idle accepts. It hands each new socket,
//! once, to the reactor with the fewest live connections among those
//! not inside a handler, through that reactor's mailbox and wake pipe.
//! A connection then stays on its reactor, so a keep-alive connection
//! waits behind its own reactor's current request.
//!
//! Thousands of idle keep-alive connections cost one `fd` + a few
//! hundred bytes each, not a parked thread. A reactor frames every
//! complete request of a poll batch before it handles any; a request
//! that finds `queue_depth` requests already waiting in its reactor is
//! **shed** — answered in its place in the response order with `503` +
//! `Retry-After` and a structured error body — and the connection stays
//! usable. Shutdown drains: the listener closes first, the running
//! requests finish, and buffered responses are flushed before
//! connections are dropped.

use crate::http::{
    encode_response, frame_request, read_request, FrameStatus, Request, Response, REQUEST_ID_HEADER,
};
use crate::router::error_body_raw;
use crate::server::{Handler, ServeConfig};
use lantern_obs::Stage;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// `Retry-After` seconds advertised on load-shed `503`s.
const SHED_RETRY_AFTER_SECS: u32 = 1;
/// How long shutdown waits for running requests and buffered
/// responses before dropping what remains.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);
/// Idle-sweep granularity: the longest a reactor sleeps when nothing
/// happens, and the shortest time between two sweeps, so idle timeouts
/// are enforced within this bound.
const SWEEP_INTERVAL: Duration = Duration::from_millis(250);

// ---------------------------------------------------------------------
// Readiness backend: epoll on Linux, poll(2) elsewhere.
// ---------------------------------------------------------------------

/// One readiness report from the poller.
struct PollEvent {
    token: u64,
    readable: bool,
    writable: bool,
    /// Error or hangup — the connection is torn down.
    failed: bool,
}

#[cfg(target_os = "linux")]
mod sys {
    //! Raw `epoll` via FFI on the already-linked libc — level
    //! triggered, one epoll instance per reactor.

    use super::PollEvent;
    use std::io;
    use std::os::raw::c_int;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLLEXCLUSIVE: u32 = 1 << 28;

    /// `struct epoll_event`; packed on x86 per the kernel ABI.
    #[derive(Clone, Copy)]
    #[cfg_attr(any(target_arch = "x86_64", target_arch = "x86"), repr(C, packed))]
    #[cfg_attr(not(any(target_arch = "x86_64", target_arch = "x86")), repr(C))]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    pub struct Poller {
        epfd: RawFd,
        buf: Vec<EpollEvent>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; 256],
            })
        }

        fn ctl(&self, op: c_int, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
            let mut ev = EpollEvent {
                events,
                data: token,
            };
            // SAFETY: `ev` is an initialized `epoll_event` that outlives
            // the call, and the kernel copies it rather than keeping the
            // pointer.
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        fn interest(read: bool, write: bool) -> u32 {
            EPOLLRDHUP | if read { EPOLLIN } else { 0 } | if write { EPOLLOUT } else { 0 }
        }

        pub fn add(&mut self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, Self::interest(read, write))
        }

        /// Register the shared listener. `EPOLLEXCLUSIVE` wakes one
        /// waiting reactor per connection, not every reactor; one busy
        /// inside a handler is not waiting, so an idle one accepts.
        pub fn add_listener(&mut self, fd: RawFd, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, EPOLLIN | EPOLLEXCLUSIVE)
        }

        pub fn modify(&mut self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, Self::interest(read, write))
        }

        pub fn remove(&mut self, fd: RawFd) {
            let mut ev = EpollEvent { events: 0, data: 0 };
            unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) };
        }

        pub fn wait(&mut self, out: &mut Vec<PollEvent>, timeout: Duration) -> io::Result<()> {
            let ms = timeout.as_millis().min(i32::MAX as u128) as c_int;
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as c_int,
                    ms,
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for ev in &self.buf[..n as usize] {
                let events = ev.events;
                let data = ev.data;
                out.push(PollEvent {
                    token: data,
                    readable: events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                    writable: events & EPOLLOUT != 0,
                    failed: events & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe { close(self.epfd) };
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    //! Portable fallback: a registration table replayed through
    //! `poll(2)` each wait. O(n) per wait, which is fine for the
    //! connection counts a non-Linux dev box sees.

    use super::PollEvent;
    use std::io;
    use std::os::raw::{c_int, c_short};
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    const POLLIN: c_short = 0x001;
    const POLLOUT: c_short = 0x004;
    const POLLERR: c_short = 0x008;
    const POLLHUP: c_short = 0x010;

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: std::os::raw::c_uint, timeout: c_int) -> c_int;
    }

    pub struct Poller {
        slots: Vec<(RawFd, u64, bool, bool)>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller { slots: Vec::new() })
        }

        pub fn add(&mut self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
            self.slots.push((fd, token, read, write));
            Ok(())
        }

        /// Register the shared listener. `poll(2)` has no exclusive
        /// wake-up: every idle reactor wakes and the losers of the
        /// `accept` race see `WouldBlock`.
        pub fn add_listener(&mut self, fd: RawFd, token: u64) -> io::Result<()> {
            self.add(fd, token, true, false)
        }

        pub fn modify(&mut self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
            for slot in &mut self.slots {
                if slot.0 == fd {
                    *slot = (fd, token, read, write);
                    return Ok(());
                }
            }
            self.add(fd, token, read, write)
        }

        pub fn remove(&mut self, fd: RawFd) {
            self.slots.retain(|slot| slot.0 != fd);
        }

        pub fn wait(&mut self, out: &mut Vec<PollEvent>, timeout: Duration) -> io::Result<()> {
            let mut fds: Vec<PollFd> = self
                .slots
                .iter()
                .map(|&(fd, _, read, write)| PollFd {
                    fd,
                    events: if read { POLLIN } else { 0 } | if write { POLLOUT } else { 0 },
                    revents: 0,
                })
                .collect();
            let ms = timeout.as_millis().min(i32::MAX as u128) as c_int;
            let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as std::os::raw::c_uint, ms) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for (pollfd, &(_, token, _, _)) in fds.iter().zip(&self.slots) {
                if pollfd.revents == 0 {
                    continue;
                }
                out.push(PollEvent {
                    token,
                    readable: pollfd.revents & (POLLIN | POLLHUP) != 0,
                    writable: pollfd.revents & POLLOUT != 0,
                    failed: pollfd.revents & (POLLERR | POLLHUP) != 0,
                });
            }
            Ok(())
        }
    }
}

use sys::Poller;

// ---------------------------------------------------------------------
// What reactors share.
// ---------------------------------------------------------------------

/// One reactor as the others see it. Aligned to its own cache lines so
/// one reactor's `busy` flips don't bounce another's. `live` and `busy`
/// only steer which reactor gets a new connection and publish no other
/// data (the mailbox has its own lock), so they use `Relaxed`.
#[repr(align(128))]
struct Peer {
    /// Sockets accepted by another reactor and handed to this one.
    mailbox: Mutex<Vec<TcpStream>>,
    /// Write end of this reactor's wake pipe.
    waker: UnixStream,
    /// Connections this reactor owns, hand-offs still in its mailbox
    /// included.
    live: AtomicUsize,
    /// Running handlers: the reactor won't poll until its batch is done.
    busy: AtomicBool,
}

impl Peer {
    fn wake(&self) {
        // A full pipe already guarantees a pending wakeup.
        let _ = (&self.waker).write(&[1u8]);
    }
}

// ---------------------------------------------------------------------
// Per-connection state.
// ---------------------------------------------------------------------

struct Conn {
    stream: TcpStream,
    /// Generation stamp; the full poller token is `gen << 32 | slot`,
    /// so stale readiness events or queued requests for a recycled slot
    /// are discarded instead of hitting the wrong peer.
    gen: u64,
    /// Unparsed inbound bytes.
    inbuf: Vec<u8>,
    /// Serialized, not-yet-written outbound bytes.
    outbuf: Vec<u8>,
    outpos: usize,
    /// The `(read, write)` interest registered with the poller.
    interest: (bool, bool),
    /// No further requests are parsed (close requested, protocol
    /// error, peer EOF, or shutdown drain).
    no_more_reads: bool,
    /// Close once the output buffer drains.
    close_after_write: bool,
    last_activity: Instant,
}

impl Conn {
    fn has_pending_output(&self) -> bool {
        self.outpos < self.outbuf.len()
    }
}

/// A framed request waiting for its reactor's handler, or a response
/// made at framing (shed, protocol error) waiting for its turn in the
/// connection's response order.
enum Work {
    Handle(Request),
    Reply(Response),
}

struct Pending {
    token: u64,
    work: Work,
    keep_alive: bool,
}

const LISTENER_TOKEN: u64 = u64::MAX;
const WAKER_TOKEN: u64 = u64::MAX - 1;

fn token_of(slot: usize, gen: u64) -> u64 {
    (gen << 32) | slot as u64
}

fn slot_of(token: u64) -> usize {
    (token & 0xFFFF_FFFF) as usize
}

// ---------------------------------------------------------------------
// Entry point.
// ---------------------------------------------------------------------

/// What [`serve_event`] hands back: the joinable reactor threads and
/// the waker the shutdown path invokes.
pub(crate) type EventParts = (Vec<JoinHandle<()>>, Arc<dyn Fn() + Send + Sync>);

/// Spawn the reactors over an already-bound listener. Returns the
/// joinable threads and a waker that rouses every reactor.
pub(crate) fn serve_event<H: Handler>(
    listener: TcpListener,
    handler: Arc<H>,
    config: ServeConfig,
    shutdown: Arc<AtomicBool>,
) -> io::Result<EventParts> {
    listener.set_nonblocking(true)?;
    let listener = Arc::new(listener);
    let count = config.effective_workers();
    let mut peers = Vec::with_capacity(count);
    let mut wake_rxs = Vec::with_capacity(count);
    for _ in 0..count {
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        wake_rxs.push(wake_rx);
        peers.push(Peer {
            mailbox: Mutex::new(Vec::new()),
            waker: wake_tx,
            live: AtomicUsize::new(0),
            busy: AtomicBool::new(false),
        });
    }
    let peers: Arc<[Peer]> = peers.into();

    let mut reactors = Vec::with_capacity(count);
    for (index, wake_rx) in wake_rxs.into_iter().enumerate() {
        let mut poller = Poller::new()?;
        poller.add_listener(listener.as_raw_fd(), LISTENER_TOKEN)?;
        poller.add(wake_rx.as_raw_fd(), WAKER_TOKEN, true, false)?;
        reactors.push(Reactor {
            index,
            peers: Arc::clone(&peers),
            handler: Arc::clone(&handler),
            listener: Arc::clone(&listener),
            poller,
            wake_rx,
            config: config.clone(),
            shutdown: Arc::clone(&shutdown),
            conns: Vec::new(),
            free: Vec::new(),
            gen: 0,
            waiting: VecDeque::new(),
            queued: 0,
            last_sweep: Instant::now(),
        });
    }
    let threads = reactors
        .into_iter()
        .map(|mut reactor| std::thread::spawn(move || reactor.run()))
        .collect();
    let waker: Arc<dyn Fn() + Send + Sync> = Arc::new(move || peers.iter().for_each(Peer::wake));
    Ok((threads, waker))
}

// ---------------------------------------------------------------------
// The reactor loop.
// ---------------------------------------------------------------------

struct Reactor<H> {
    index: usize,
    peers: Arc<[Peer]>,
    handler: Arc<H>,
    listener: Arc<TcpListener>,
    poller: Poller,
    wake_rx: UnixStream,
    config: ServeConfig,
    shutdown: Arc<AtomicBool>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    gen: u64,
    /// This poll batch's framed requests and replies, in arrival order;
    /// one connection's entries are contiguous.
    waiting: VecDeque<Pending>,
    /// `Work::Handle` entries in `waiting`.
    queued: usize,
    last_sweep: Instant,
}

impl<H: Handler> Reactor<H> {
    fn me(&self) -> &Peer {
        &self.peers[self.index]
    }

    fn run(&mut self) {
        let mut events: Vec<PollEvent> = Vec::new();
        let mut draining_since: Option<Instant> = None;
        loop {
            if draining_since.is_none() && self.shutdown.load(Ordering::SeqCst) {
                draining_since = Some(Instant::now());
                self.begin_drain();
            }
            if let Some(since) = draining_since {
                if self.me().live.load(Ordering::Relaxed) == 0 || since.elapsed() >= DRAIN_DEADLINE
                {
                    return;
                }
            }

            events.clear();
            if self.poller.wait(&mut events, SWEEP_INTERVAL).is_err() {
                return;
            }
            for &PollEvent {
                token,
                readable,
                writable,
                failed,
            } in &events
            {
                match token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKER_TOKEN => self.take_mail(draining_since.is_some()),
                    token => self.conn_ready(token, readable, writable, failed),
                }
            }
            self.run_waiting();
            self.sweep_idle();
        }
    }

    /// Shutdown begins: stop accepting, flush what's buffered.
    fn begin_drain(&mut self) {
        self.poller.remove(self.listener.as_raw_fd());
        self.take_mail(true);
        for slot in 0..self.conns.len() {
            let Some(conn) = &mut self.conns[slot] else {
                continue;
            };
            conn.no_more_reads = true;
            conn.close_after_write = true;
            if conn.has_pending_output() {
                self.update_interest(slot);
            } else {
                self.close_conn(slot);
            }
        }
    }

    fn accept_ready(&mut self) {
        let handler = Arc::clone(&self.handler);
        let stats = handler.stats();
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    stats.connections.fetch_add(1, Ordering::Relaxed);
                    let live: usize = self
                        .peers
                        .iter()
                        .map(|peer| peer.live.load(Ordering::Relaxed))
                        .sum();
                    if live >= self.config.max_conns.max(1) {
                        // Admission control at the front door: past the
                        // connection cap the socket is closed outright
                        // (clients see a reset, not a silent queue).
                        stats.shed_requests.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    let target = self.pick_reactor();
                    let peer = &self.peers[target];
                    peer.live.fetch_add(1, Ordering::Relaxed);
                    if target == self.index {
                        self.register(stream);
                    } else {
                        // A push or take leaves the list valid at every
                        // step, so a poisoned lock still holds a usable one.
                        let mut mailbox =
                            peer.mailbox.lock().unwrap_or_else(PoisonError::into_inner);
                        mailbox.push(stream);
                        drop(mailbox);
                        peer.wake();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// The reactor with the fewest live connections among those not
    /// inside a handler; this one (never busy while accepting) on ties.
    fn pick_reactor(&self) -> usize {
        let (mut best, mut fewest) = (self.index, self.me().live.load(Ordering::Relaxed));
        for (index, peer) in self.peers.iter().enumerate() {
            let live = peer.live.load(Ordering::Relaxed);
            if live < fewest && !peer.busy.load(Ordering::Relaxed) {
                (best, fewest) = (index, live);
            }
        }
        best
    }

    /// Register sockets other reactors handed over; while draining,
    /// drop them instead.
    fn take_mail(&mut self, draining: bool) {
        let mut sink = [0u8; 64];
        while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
        let streams = std::mem::take(
            &mut *self
                .me()
                .mailbox
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for stream in streams {
            if draining {
                self.me().live.fetch_sub(1, Ordering::Relaxed);
            } else {
                self.register(stream);
            }
        }
    }

    /// Take ownership of a socket already counted in `live`.
    fn register(&mut self, stream: TcpStream) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        self.gen = (self.gen + 1) & 0xFFFF_FFFF;
        let token = token_of(slot, self.gen);
        if self
            .poller
            .add(stream.as_raw_fd(), token, true, false)
            .is_err()
        {
            self.free.push(slot);
            self.me().live.fetch_sub(1, Ordering::Relaxed);
            return;
        }
        self.conns[slot] = Some(Conn {
            stream,
            gen: self.gen,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            outpos: 0,
            interest: (true, false),
            no_more_reads: false,
            close_after_write: false,
            last_activity: Instant::now(),
        });
    }

    /// The live connection `token` names, if it wasn't closed or its
    /// slot recycled since.
    fn conn_mut(&mut self, token: u64) -> Option<&mut Conn> {
        self.conns
            .get_mut(slot_of(token))?
            .as_mut()
            .filter(|conn| conn.gen == token >> 32)
    }

    fn conn_ready(&mut self, token: u64, readable: bool, writable: bool, failed: bool) {
        if self.conn_mut(token).is_none() {
            return; // stale event for a recycled slot
        }
        let slot = slot_of(token);
        if failed && !readable {
            self.close_conn(slot);
            return;
        }
        // Flush first: a close it triggers must not take requests the
        // read below frames onto the wait list.
        if writable {
            self.flush(token);
        }
        if readable {
            self.read_ready(token);
        }
    }

    /// Pull everything the socket has, then frame its requests onto the
    /// wait list.
    fn read_ready(&mut self, token: u64) {
        let Some(conn) = self.conn_mut(token) else {
            return;
        };
        let mut closed = false;
        let started = Instant::now();
        let mut got_bytes = false;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    closed = true;
                    break;
                }
                Ok(n) => {
                    // Still readable but no longer parsing: the bytes
                    // are swallowed so level-triggered polling doesn't
                    // spin.
                    if !conn.no_more_reads {
                        conn.inbuf.extend_from_slice(&chunk[..n]);
                        got_bytes = true;
                    }
                    if n < chunk.len() {
                        break; // drained; level triggering reports more
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    closed = true;
                    break;
                }
            }
        }
        if got_bytes {
            let now = Instant::now();
            conn.last_activity = now;
            self.handler
                .obs()
                .record_stage(Stage::Read, now.duration_since(started).as_nanos() as u64);
        }
        let framed = self.frame(token);
        if closed {
            let Some(conn) = self.conn_mut(token) else {
                return;
            };
            conn.no_more_reads = true;
            conn.close_after_write = true;
            if framed == 0 && !conn.has_pending_output() {
                self.close_conn(slot_of(token));
            }
        }
    }

    /// Frame every complete request in the connection's buffer onto the
    /// wait list — shedding those that find `queue_depth` already
    /// waiting — and return how many entries were added.
    fn frame(&mut self, token: u64) -> usize {
        let max_body = self.config.max_body_bytes;
        let mut framed = 0;
        loop {
            let shutting_down = self.shutdown.load(Ordering::SeqCst);
            let (parsed, keep_alive, pipelined) = {
                let Some(conn) = self.conn_mut(token) else {
                    return framed;
                };
                if conn.no_more_reads || conn.inbuf.is_empty() {
                    return framed;
                }
                let FrameStatus::Complete { len } = frame_request(&conn.inbuf, max_body) else {
                    return framed;
                };
                let parsed = read_request(&mut &conn.inbuf[..len], max_body);
                conn.inbuf.drain(..len);
                let keep_alive =
                    matches!(&parsed, Ok(request) if request.keep_alive) && !shutting_down;
                conn.no_more_reads = !keep_alive;
                // Pipelined: an earlier response on this connection is
                // still unwritten.
                (parsed, keep_alive, framed > 0 || conn.has_pending_output())
            };
            framed += 1;
            let stats = self.handler.stats();
            match parsed {
                Ok(request) => {
                    if pipelined {
                        stats.pipelined_requests.fetch_add(1, Ordering::Relaxed);
                    }
                    let work = if self.queued >= self.config.queue_depth.max(1) {
                        Work::Reply(self.shed(&request))
                    } else {
                        self.queued += 1;
                        stats.queue_depth.fetch_add(1, Ordering::Relaxed);
                        Work::Handle(request)
                    };
                    self.waiting.push_back(Pending {
                        token,
                        work,
                        keep_alive,
                    });
                }
                Err(err) => {
                    // Protocol errors get a structured best-effort
                    // reply, then the connection closes.
                    let Some(status) = err.status() else {
                        self.close_conn(slot_of(token));
                        return framed;
                    };
                    stats.error_responses.fetch_add(1, Ordering::Relaxed);
                    let body = error_body_raw("http", &err.message(), status);
                    self.waiting.push_back(Pending {
                        token,
                        work: Work::Reply(Response::json(status, body.to_string_compact())),
                        keep_alive: false,
                    });
                }
            }
        }
    }

    /// Admission control: the immediate `503` for a request that found
    /// the wait list full. Shed responses never reach the handler, so
    /// the request id is resolved here — kept from the request when
    /// present, minted otherwise — and stays traceable.
    fn shed(&self, request: &Request) -> Response {
        let stats = self.handler.stats();
        stats.shed_requests.fetch_add(1, Ordering::Relaxed);
        stats.error_responses.fetch_add(1, Ordering::Relaxed);
        let id = match request.header(REQUEST_ID_HEADER) {
            Some(id) if !id.is_empty() => id.to_string(),
            _ => self.handler.obs().mint_id(),
        };
        let body = error_body_raw("overloaded", "wait list is full; retry shortly", 503);
        Response::json(503, body.to_string_compact())
            .with_header("Retry-After", SHED_RETRY_AFTER_SECS.to_string())
            .with_request_id(&id)
    }

    /// Run the wait list to completion: handle each request inline,
    /// encode every response in order, and flush each connection once
    /// its last entry is done.
    fn run_waiting(&mut self) {
        if self.waiting.is_empty() {
            return;
        }
        self.me().busy.store(true, Ordering::Relaxed);
        while let Some(Pending {
            token,
            work,
            keep_alive,
        }) = self.waiting.pop_front()
        {
            let response = match work {
                Work::Reply(response) => Some(response),
                Work::Handle(request) => {
                    self.queued -= 1;
                    self.handler
                        .stats()
                        .queue_depth
                        .fetch_sub(1, Ordering::Relaxed);
                    if self.conn_mut(token).is_none() {
                        continue; // its connection died earlier in the batch
                    }
                    let handler = &self.handler;
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        handler.handle(&request)
                    })) {
                        Ok(response) => Some(response),
                        Err(_) => {
                            handler.stats().panics.fetch_add(1, Ordering::Relaxed);
                            None
                        }
                    }
                }
            };
            match response {
                // Handler panic: drop the connection — the client sees
                // a reset, pipelined siblings die with it, the reactor
                // survives.
                None => self.close_conn(slot_of(token)),
                Some(response) => self.encode(token, &response, keep_alive),
            }
            if self.waiting.front().map(|next| next.token) != Some(token) {
                self.flush(token);
            }
        }
        self.me().busy.store(false, Ordering::Relaxed);
    }

    fn encode(&mut self, token: u64, response: &Response, keep_alive: bool) {
        let started = Instant::now();
        let Some(conn) = self.conn_mut(token) else {
            return;
        };
        encode_response(&mut conn.outbuf, response, keep_alive);
        if !keep_alive {
            conn.no_more_reads = true;
            conn.close_after_write = true;
        }
        self.handler
            .obs()
            .record_stage(Stage::Write, started.elapsed().as_nanos() as u64);
    }

    /// Write as much buffered output as the socket takes.
    fn flush(&mut self, token: u64) {
        let slot = slot_of(token);
        let Some(conn) = self.conn_mut(token) else {
            return;
        };
        let mut broken = false;
        while conn.outpos < conn.outbuf.len() {
            match conn.stream.write(&conn.outbuf[conn.outpos..]) {
                Ok(0) => {
                    broken = true;
                    break;
                }
                Ok(n) => {
                    conn.outpos += n;
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    broken = true;
                    break;
                }
            }
        }
        if !conn.has_pending_output() {
            conn.outbuf.clear();
            conn.outpos = 0;
            broken |= conn.close_after_write;
        }
        if broken {
            self.close_conn(slot);
        } else {
            self.update_interest(slot);
        }
    }

    /// Re-register the connection's interest, skipping the syscall
    /// when it is unchanged.
    fn update_interest(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        let interest = (
            !conn.no_more_reads || !conn.close_after_write,
            conn.has_pending_output(),
        );
        if interest == conn.interest {
            return;
        }
        conn.interest = interest;
        let token = token_of(slot, conn.gen);
        let _ = self
            .poller
            .modify(conn.stream.as_raw_fd(), token, interest.0, interest.1);
    }

    /// Close idle connections past the configured read timeout —
    /// including slow-loris peers parked on a partial request head. Runs
    /// at most once per [`SWEEP_INTERVAL`].
    fn sweep_idle(&mut self) {
        let timeout = self.config.read_timeout;
        if timeout.is_zero() {
            return;
        }
        let now = Instant::now();
        if now.duration_since(self.last_sweep) < SWEEP_INTERVAL {
            return;
        }
        self.last_sweep = now;
        for slot in 0..self.conns.len() {
            if matches!(&self.conns[slot], Some(conn)
                if !conn.has_pending_output() && now.duration_since(conn.last_activity) >= timeout)
            {
                self.close_conn(slot);
            }
        }
    }

    fn close_conn(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].take() {
            self.poller.remove(conn.stream.as_raw_fd());
            self.free.push(slot);
            self.me().live.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

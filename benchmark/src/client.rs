//! The load client: one thread driving up to `nproc` keep-alive
//! connections with `ppoll(2)`, open loop (requests sent on a fixed
//! schedule, pipelined when every connection is busy) or closed loop
//! (each connection sends its next request when the previous answer
//! arrives).

use crate::workload::{Op, Route};
use std::collections::VecDeque;
use std::hash::{DefaultHasher, Hasher};
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// What happened to one request.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// HTTP status; 0 when the connection failed before an answer.
    pub status: u16,
    /// Digest of the body (see [`digest`]).
    pub digest: u64,
    /// The body itself, kept only where the check must parse it
    /// (batches and catalog writes); a `/narrate` answer is checked by
    /// its digest, which keeps a run's memory small.
    pub body: Vec<u8>,
    /// When the request was due, ns after the phase start (open loop;
    /// equals `sent_ns` in the closed loop).
    pub due_ns: u64,
    /// When its last byte was written.
    pub sent_ns: u64,
    /// When its answer was complete.
    pub done_ns: u64,
}

/// A 64-bit digest of a response body. `DefaultHasher::new` uses fixed
/// keys, so equal bodies digest equally within the process.
pub fn digest(body: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    h.write(body);
    h.finish()
}

impl Outcome {
    /// An answer with this status and body, keeping the body itself
    /// only when `keep`.
    pub fn answer(status: u16, body: &[u8], keep: bool) -> Outcome {
        Outcome {
            status,
            digest: digest(body),
            body: if keep { body.to_vec() } else { Vec::new() },
            ..Outcome::default()
        }
    }

    /// Latency from when the request was due.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }

    /// How late the generator sent it.
    pub fn lateness_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.due_ns)
    }
}

mod sys {
    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    pub const POLLIN: i16 = 0x1;
    pub const PR_SET_TIMERSLACK: i32 = 29;
    pub const SCHED_FIFO: i32 = 1;

    #[repr(C)]
    pub struct SchedParam {
        pub priority: i32,
    }

    extern "C" {
        pub fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
        pub fn prctl(option: i32, ...) -> i32;

        pub fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
    }
}

/// Make this thread a punctual load generator: wake within 1 ns of its
/// timers instead of the default 50 µs slack, and run ahead of the
/// server's threads whenever it is runnable (it sleeps in `ppoll` the
/// rest of the time), so sends leave on schedule and answers are read
/// when they arrive. Returns whether the real-time priority was granted.
pub fn prioritize_client() -> bool {
    let param = sys::SchedParam { priority: 10 };
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and touches only
    // the calling thread's timer slack; sched_setscheduler reads `param`,
    // which outlives the call, and pid 0 names the calling thread.
    unsafe {
        sys::prctl(sys::PR_SET_TIMERSLACK, 1u64);
        sys::sched_setscheduler(0, sys::SCHED_FIFO, &param) == 0
    }
}

/// Block until a connection is readable or `timeout` passes; returns
/// which connections are readable. `ppoll` takes a nanosecond timeout,
/// so the open-loop schedule is not rounded to milliseconds.
fn wait_readable(conns: &[Conn], timeout: Duration) -> io::Result<Vec<bool>> {
    let mut fds: Vec<sys::PollFd> = conns
        .iter()
        .map(|c| sys::PollFd {
            fd: c.stream.as_raw_fd(),
            events: sys::POLLIN,
            revents: 0,
        })
        .collect();
    let ts = sys::Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
    // pollfd structs laid out as the kernel expects (`repr(C)`), `ts`
    // outlives the call, and a null signal mask means "leave it".
    let n = unsafe { sys::ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
    if n < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(vec![false; conns.len()]);
        }
        return Err(err);
    }
    Ok(fds.iter().map(|f| f.revents != 0).collect())
}

/// One parsed response at the front of a buffer.
#[derive(Debug, PartialEq, Eq)]
pub struct Parsed {
    pub status: u16,
    pub body: std::ops::Range<usize>,
    /// Bytes the response occupies, head included.
    pub len: usize,
}

/// Parse the first complete HTTP/1.1 response in `buf`, if there is
/// one. Only `Content-Length` framing is understood, which is all the
/// server emits.
pub fn parse_response(buf: &[u8]) -> Result<Option<Parsed>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 response head")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut length = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                length = value.trim().parse::<usize>().ok();
            }
        }
    }
    let length = length.ok_or("response without Content-Length")?;
    let start = head_end + 4;
    if buf.len() < start + length {
        return Ok(None);
    }
    Ok(Some(Parsed {
        status,
        body: start..start + length,
        len: start + length,
    }))
}

struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Indices of the requests awaiting an answer, oldest first.
    pending: VecDeque<usize>,
    broken: bool,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
            pending: VecDeque::new(),
            broken: false,
        })
    }

    /// Write one request: head and body in one `writev` where the
    /// kernel takes it all.
    fn send(&mut self, op: &Op) -> io::Result<()> {
        let (head, body) = (&op.head[..], op.body.as_bytes());
        let mut written = 0;
        while written < head.len() + body.len() {
            let n = if written < head.len() {
                self.stream
                    .write_vectored(&[IoSlice::new(&head[written..]), IoSlice::new(body)])?
            } else {
                self.stream.write(&body[written - head.len()..])?
            };
            if n == 0 {
                return Err(io::ErrorKind::WriteZero.into());
            }
            written += n;
        }
        Ok(())
    }

    /// Read what is available and complete every answered request.
    /// Returns the indices completed, in order.
    fn pump(
        &mut self,
        scratch: &mut [u8],
        keep_body: impl Fn(usize) -> bool,
        outcomes: &mut [Outcome],
        now_ns: u64,
    ) -> Vec<usize> {
        let mut done = Vec::new();
        match self.stream.read(scratch) {
            Ok(0) | Err(_) => {
                self.broken = true;
                return done;
            }
            Ok(n) => self.buf.extend_from_slice(&scratch[..n]),
        }
        let mut consumed = 0;
        loop {
            match parse_response(&self.buf[consumed..]) {
                Ok(Some(parsed)) => {
                    let Some(index) = self.pending.pop_front() else {
                        self.broken = true;
                        break;
                    };
                    let body = &self.buf[consumed + parsed.body.start..consumed + parsed.body.end];
                    let out = &mut outcomes[index];
                    *out = Outcome {
                        due_ns: out.due_ns,
                        sent_ns: out.sent_ns,
                        done_ns: now_ns,
                        ..Outcome::answer(parsed.status, body, keep_body(index))
                    };
                    consumed += parsed.len;
                    done.push(index);
                }
                Ok(None) => break,
                Err(_) => {
                    self.broken = true;
                    break;
                }
            }
        }
        self.buf.drain(..consumed);
        done
    }
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Requests left unanswered this long after the last one was due count
/// as transport failures.
const DRAIN: Duration = Duration::from_secs(10);

/// Send `ops[i]` at `i / rate` seconds after `t0` over `conns`
/// connections, each to the connection with the fewest answers
/// outstanding (pipelining when all are busy), and collect every answer.
/// Times in the outcomes are ns after `t0`.
pub fn open_loop(
    addr: SocketAddr,
    ops: &[Op],
    rate: f64,
    conns: usize,
    t0: Instant,
) -> io::Result<Vec<Outcome>> {
    let mut pool: Vec<Conn> = (0..conns.max(1))
        .map(|_| Conn::open(addr))
        .collect::<io::Result<_>>()?;
    let mut outcomes: Vec<Outcome> = vec![Outcome::default(); ops.len()];
    let interval_ns = 1e9 / rate;
    let due = |i: usize| (i as f64 * interval_ns) as u64;
    let mut scratch = vec![0u8; 1 << 16];
    let mut next = 0usize;
    let mut rotate = 0usize;
    let last_due = Duration::from_nanos(due(ops.len().saturating_sub(1)));
    loop {
        let now = elapsed_ns(t0);
        while next < ops.len() && due(next) <= now {
            // Fewest outstanding wins; the rotating start spreads ties.
            let k = (0..pool.len())
                .map(|j| (j + rotate) % pool.len())
                .filter(|&j| !pool[j].broken)
                .min_by_key(|&j| pool[j].pending.len());
            rotate += 1;
            outcomes[next].due_ns = due(next);
            if let Some(k) = k {
                if pool[k].send(&ops[next]).is_ok() {
                    outcomes[next].sent_ns = elapsed_ns(t0);
                    pool[k].pending.push_back(next);
                } else {
                    pool[k].broken = true;
                }
            }
            next += 1;
        }
        let outstanding: usize = pool
            .iter()
            .filter(|c| !c.broken)
            .map(|c| c.pending.len())
            .sum();
        if next == ops.len() && outstanding == 0 {
            break;
        }
        if next == ops.len() && t0.elapsed() > last_due + DRAIN {
            break;
        }
        let now = elapsed_ns(t0);
        let timeout = if next < ops.len() {
            Duration::from_nanos(due(next).saturating_sub(now))
        } else {
            Duration::from_millis(50)
        };
        let readable = wait_readable(&pool, timeout)?;
        let now = elapsed_ns(t0);
        for (conn, ready) in pool.iter_mut().zip(readable) {
            if ready && !conn.broken {
                conn.pump(
                    &mut scratch,
                    |i| ops[i].route != Route::Narrate,
                    &mut outcomes,
                    now,
                );
            }
        }
    }
    Ok(outcomes)
}

/// Closed-loop result: every request sent, and how long the window was.
pub struct ClosedRun {
    /// One entry per request sent, in send order.
    pub outcomes: Vec<Outcome>,
    /// Measured window: until the deadline, or until `limit` requests
    /// were sent.
    pub window: Duration,
}

/// Keep one request in flight on each of `conns` connections for
/// `duration` or until `limit` requests were sent. Request `i` of the
/// run is `pool[(start + i) % pool.len()]`.
pub fn closed_loop(
    addr: SocketAddr,
    pool: &[Op],
    start: usize,
    limit: usize,
    conns: usize,
    duration: Duration,
) -> io::Result<ClosedRun> {
    let mut conns: Vec<Conn> = (0..conns.max(1))
        .map(|_| Conn::open(addr))
        .collect::<io::Result<_>>()?;
    let op = |i: usize| &pool[(start + i) % pool.len()];
    let mut outcomes: Vec<Outcome> = Vec::new();
    let mut scratch = vec![0u8; 1 << 16];
    let t0 = Instant::now();
    let send = |conn: &mut Conn, outcomes: &mut Vec<Outcome>| {
        if outcomes.len() >= limit || t0.elapsed() >= duration {
            return;
        }
        let now = elapsed_ns(t0);
        let index = outcomes.len();
        outcomes.push(Outcome {
            due_ns: now,
            sent_ns: now,
            ..Outcome::default()
        });
        if conn.send(op(index)).is_ok() {
            conn.pending.push_back(index);
        } else {
            conn.broken = true;
        }
    };
    for conn in conns.iter_mut() {
        send(conn, &mut outcomes);
    }
    let mut exhausted_at = None;
    loop {
        let outstanding: usize = conns
            .iter()
            .filter(|c| !c.broken)
            .map(|c| c.pending.len())
            .sum();
        if outstanding == 0 || t0.elapsed() > duration + DRAIN {
            break;
        }
        let readable = wait_readable(&conns, Duration::from_millis(50))?;
        let now = elapsed_ns(t0);
        for (conn, ready) in conns.iter_mut().zip(readable) {
            if ready && !conn.broken {
                for _ in conn.pump(
                    &mut scratch,
                    |i| op(i).route != Route::Narrate,
                    &mut outcomes,
                    now,
                ) {
                    send(conn, &mut outcomes);
                }
            }
        }
        if outcomes.len() == limit && exhausted_at.is_none() {
            exhausted_at = Some(t0.elapsed());
        }
    }
    let window = exhausted_at.map_or(duration, |at| at.min(duration));
    Ok(ClosedRun { outcomes, window })
}

/// One request on a fresh connection, for health checks and scrapes
/// outside the timed phases. Returns the status and body.
pub fn fetch(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<(u16, String)> {
    let mut client = lantern_serve::HttpClient::connect(addr)?;
    let resp = client.request(method, path, body)?;
    Ok((resp.status, resp.body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pipelined_responses() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokHTTP/1.1 503 Service Unavailable\r\ncontent-length: 0\r\n\r\n";
        let first = parse_response(wire).unwrap().unwrap();
        assert_eq!(first.status, 200);
        assert_eq!(&wire[first.body.clone()], b"ok");
        let second = parse_response(&wire[first.len..]).unwrap().unwrap();
        assert_eq!(second.status, 503);
        assert_eq!(first.len + second.len, wire.len());
    }

    #[test]
    fn waits_for_a_complete_body() {
        assert_eq!(
            parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nok").unwrap(),
            None
        );
        assert_eq!(
            parse_response(b"HTTP/1.1 200 OK\r\nContent-Le").unwrap(),
            None
        );
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n\r\n").is_err());
    }
}

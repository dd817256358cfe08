//! The open-loop HTTP load generator.
//!
//! One thread drives every connection: it sends each request when it
//! falls due, whatever is still outstanding, and reads responses as
//! they arrive. Latency is timed from the due time, so a stall also
//! charges the requests queued behind it; how late the generator
//! itself sent each request is recorded separately.
//!
//! Each request goes out as a single `write` of head and body
//! together, on sockets with Nagle's algorithm off. Writing the head
//! and the body separately lets Nagle's algorithm hold the body back
//! until the server's delayed ACK fires (~40 ms on Linux), which would
//! measure the client rather than the server.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

/// One request of a plan.
#[derive(Clone, Debug)]
pub struct Planned {
    /// When the request falls due, from the start of the plan.
    pub due: Duration,
    /// The complete request: head and body.
    pub bytes: Vec<u8>,
    /// What to keep of the response body (see [`Outcome::kept`]), so a
    /// session holds digests rather than every large body.
    pub keep: fn(&[u8]) -> Vec<u8>,
}

/// What became of one planned request.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// HTTP status of the response.
    pub status: u16,
    /// What the plan's `keep` kept of the response body.
    pub kept: Vec<u8>,
    /// From the due time to the last byte of the response.
    pub latency: Duration,
    /// From the due time to the send.
    pub late: Duration,
    /// Whether the kernel took the request in one write.
    pub one_write: bool,
}

/// Serialise one HTTP/1.1 request, head and body in one buffer.
pub fn request_bytes(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

const POLLIN: c_short = 0x1;
const POLLOUT: c_short = 0x4;

/// Wait until one of `fds` is ready or `timeout` passes.
fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<()> {
    let ts =
        Timespec { tv_sec: timeout.as_secs() as c_long, tv_nsec: timeout.subsec_nanos() as c_long };
    // SAFETY: `fds` is a live, exclusively borrowed slice of `repr(C)`
    // pollfd records and its length is passed alongside; `ts` outlives
    // the call; a null signal mask leaves the mask unchanged.
    let rc = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as c_ulong, &ts, std::ptr::null()) };
    if rc < 0 {
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}

struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    pending: Vec<u8>,
    outstanding: VecDeque<usize>,
}

/// Split one complete response off the front of `buf`:
/// `(status, head_len, body_len)`, or `None` while incomplete.
fn parse_response(buf: &[u8]) -> io::Result<Option<(u16, usize, usize)>> {
    let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..end])
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response head"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let len = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())
        .unwrap_or(0);
    Ok(Some((status, end + 4, len)))
}

/// Run `plan` (sorted by due time) against `addr` over `conns`
/// keep-alive connections and return one outcome per request, in plan
/// order. Fails if a connection breaks or the plan has
/// not drained `drain` after its last due time.
pub fn run(
    addr: SocketAddr,
    conns: usize,
    plan: &[Planned],
    drain: Duration,
) -> io::Result<Vec<Outcome>> {
    let mut cs = (0..conns.max(1))
        .map(|_| {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            Ok(Conn {
                stream,
                inbuf: Vec::new(),
                pending: Vec::new(),
                outstanding: VecDeque::new(),
            })
        })
        .collect::<io::Result<Vec<_>>>()?;
    let mut out = vec![Outcome::default(); plan.len()];
    let deadline = plan.last().map_or(Duration::ZERO, |p| p.due) + drain;
    let start = Instant::now();
    let (mut next, mut done) = (0, 0);
    let mut chunk = vec![0u8; 256 * 1024];
    while done < plan.len() {
        let now = start.elapsed();
        if now > deadline {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "plan did not drain"));
        }
        while next < plan.len() && plan[next].due <= start.elapsed() {
            // Fewest outstanding first; on a tie, the connection whose
            // oldest outstanding request was sent last, since a request
            // that has been out long is likely a slow one.
            let sent_at = |i: usize| plan[i].due + out[i].late;
            let c = (0..cs.len())
                .min_by_key(|&i| {
                    let front = cs[i].outstanding.front().map(|&j| std::cmp::Reverse(sent_at(j)));
                    (cs[i].outstanding.len(), front)
                })
                .expect("one connection");
            let conn = &mut cs[c];
            let bytes = &plan[next].bytes;
            out[next].late = start.elapsed().saturating_sub(plan[next].due);
            let n = if conn.pending.is_empty() {
                match conn.stream.write(bytes) {
                    Ok(n) => n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => 0,
                    Err(e) => return Err(e),
                }
            } else {
                0
            };
            out[next].one_write = n == bytes.len();
            conn.pending.extend_from_slice(&bytes[n..]);
            conn.outstanding.push_back(next);
            next += 1;
        }
        let timeout = match plan.get(next) {
            Some(p) => p.due.saturating_sub(start.elapsed()),
            None => Duration::from_millis(50),
        };
        let mut fds: Vec<PollFd> = cs
            .iter()
            .map(|c| PollFd {
                fd: c.stream.as_raw_fd(),
                events: if c.pending.is_empty() { POLLIN } else { POLLIN | POLLOUT },
                revents: 0,
            })
            .collect();
        wait(&mut fds, timeout)?;
        for (conn, fd) in cs.iter_mut().zip(&fds) {
            if fd.revents == 0 {
                continue;
            }
            if !conn.pending.is_empty() {
                match conn.stream.write(&conn.pending) {
                    Ok(n) => drop(conn.pending.drain(..n)),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(e) => return Err(e),
                }
            }
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        if conn.outstanding.is_empty() {
                            break;
                        }
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "server closed a connection with requests outstanding",
                        ));
                    }
                    Ok(n) => conn.inbuf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) => return Err(e),
                }
            }
            let at = start.elapsed();
            while let Some((status, head, len)) = parse_response(&conn.inbuf)? {
                if conn.inbuf.len() < head + len {
                    break;
                }
                let idx = conn.outstanding.pop_front().ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, "response without a request")
                })?;
                let o = &mut out[idx];
                o.status = status;
                o.kept = (plan[idx].keep)(&conn.inbuf[head..head + len]);
                o.latency = at.saturating_sub(plan[idx].due);
                conn.inbuf.drain(..head + len);
                done += 1;
            }
        }
    }
    Ok(out)
}

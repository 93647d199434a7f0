//! Boots the release `lantern-serve` binary as a child process and
//! stops it again. The server listens on an ephemeral loopback port and
//! prints its address on stdout, which is where the benchmark learns it.

use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};

/// Dispatch-queue slots. The default 64 sheds after a stall of 64
/// requests' worth of arrivals; on a shared 2-core host the vCPUs stall
/// for tens of milliseconds now and then, and a benchmark whose
/// workloads must not fail would shed on those. A deeper queue turns
/// such a stall into latency.
const QUEUE_CAP: &str = "1024";

/// A running `lantern-serve` node, killed and reaped on drop.
pub struct Server {
    child: Child,
    /// Kept open so a late line on the child's stdout never meets a
    /// closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// Where clients connect.
    pub addr: SocketAddr,
}

impl Server {
    /// Boot one node with the binary's defaults except a deeper dispatch
    /// queue ([`QUEUE_CAP`]).
    pub fn start(bin: &Path) -> io::Result<Server> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--queue-cap", QUEUE_CAP])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut reader = BufReader::new(child.stdout.take().expect("stdout is piped"));
        match read_addr(&mut reader) {
            Ok(addr) => Ok(Server {
                child,
                _stdout: reader,
                addr,
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    /// Peak resident set (`VmHWM`) of the server process, MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        let line = status
            .lines()
            .find(|l| l.starts_with("VmHWM:"))
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM line"))?;
        let kib = line
            .split_whitespace()
            .nth(1)
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad VmHWM line"))?;
        Ok(kib as f64 / 1024.0)
    }
}

/// Read the child's stdout up to the line announcing its address.
fn read_addr(reader: &mut impl BufRead) -> io::Result<SocketAddr> {
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "lantern-serve exited before listening",
            ));
        }
        if let Some((_, addr)) = line.trim().split_once("listening on http://") {
            return addr.parse().map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad address {addr}: {e}"),
                )
            });
        }
    }
}

impl Drop for Server {
    /// Kill the process and wait until it has ended.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

//! The TCP transport: a blocking accept loop feeding
//! [`Server::serve_connection`], one thread per connection.
//!
//! The accept blocks, so a new connection is picked up the moment it
//! arrives. Stopping the loop therefore needs a wake-up: a watcher thread
//! polls the stop flag and the server's drain state and, once either is
//! set, connects to the listener itself. The loop re-checks both after
//! every accept and drops the connection that woke it. No request waits
//! on the watcher (DESIGN.md §14.3).

use crate::server::Server;
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How often the watcher looks at the stop flag and the drain state: the
/// longest a drain or a stop signal waits before the accept loop returns.
const STOP_POLL: Duration = Duration::from_millis(5);

/// Bounds one wake connection attempt, so a listener with a full backlog
/// cannot hold the watcher (and with it the return) for a SYN retransmit.
const WAKE_CONNECT_TIMEOUT: Duration = Duration::from_millis(100);

/// Serves connections on `listener` until `stop` is set or the server
/// starts draining (the `drain` verb or [`Server::drain`]), then returns.
///
/// Every accepted socket sets `TCP_NODELAY`, so a response written right
/// after another on the same connection is not held back waiting for the
/// client's delayed ACK. Connection threads are detached and outlive the
/// call: a connection lasts until its client closes it, and a drain must
/// not wait for idle clients. [`Server::join`] afterwards waits for every
/// accepted job to be answered.
///
/// # Errors
///
/// An accept failure other than an interrupted call, or a listener whose
/// local address cannot be resolved.
pub fn serve_tcp(listener: TcpListener, server: &Arc<Server>, stop: &AtomicBool) -> io::Result<()> {
    let wake = wake_address(listener.local_addr()?);
    let stopped = || stop.load(Ordering::SeqCst) || server.is_draining();
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !done.load(Ordering::SeqCst) {
                if stopped() {
                    // Repeated until the loop has seen it, in case a wake
                    // connection is lost.
                    let _ = TcpStream::connect_timeout(&wake, WAKE_CONNECT_TIMEOUT);
                }
                std::thread::sleep(STOP_POLL);
            }
        });
        let served = accept_loop(&listener, server, &stopped);
        done.store(true, Ordering::SeqCst);
        served
    })
}

fn accept_loop(
    listener: &TcpListener,
    server: &Arc<Server>,
    stopped: &impl Fn() -> bool,
) -> io::Result<()> {
    while !stopped() {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if stopped() {
            // The watcher's wake connection, or a client that arrived
            // after the stop: either way it is not served.
            break;
        }
        // Latency only: a socket that refuses the option still works.
        let _ = stream.set_nodelay(true);
        let server = Arc::clone(server);
        std::thread::spawn(move || {
            let Ok(mut reader) = stream.try_clone() else {
                return;
            };
            server.serve_connection(&mut reader, Box::new(stream));
        });
    }
    Ok(())
}

/// The address the watcher connects to: the listener's own, with an
/// unspecified (wildcard) IP replaced by loopback.
fn wake_address(mut local: SocketAddr) -> SocketAddr {
    if local.ip().is_unspecified() {
        local.set_ip(match local.ip() {
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    local
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wildcard_listener_is_woken_through_loopback() {
        let v4: SocketAddr = "0.0.0.0:7817".parse().expect("v4");
        let v6: SocketAddr = "[::]:7817".parse().expect("v6");
        let bound: SocketAddr = "10.1.2.3:7817".parse().expect("bound");
        assert_eq!(
            wake_address(v4),
            "127.0.0.1:7817".parse().expect("v4 loopback")
        );
        assert_eq!(wake_address(v6), "[::1]:7817".parse().expect("v6 loopback"));
        assert_eq!(wake_address(bound), bound);
    }
}

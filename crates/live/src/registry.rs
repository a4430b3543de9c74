//! Node addressing: who listens where, and how other *processes* find out.
//!
//! PR 5's deployments were single-process: every node thread shared one
//! in-memory [`Registry`] behind an `Arc`. The reactor runtime keeps that
//! as the fast path but hides it behind the [`Addressing`] trait so a
//! deployment can span processes: one process serves its registry over
//! TCP ([`RegistryServer`]), and joining processes mount it with a
//! [`RemoteRegistry`] — same trait, same node code, the lookup just
//! crosses a socket.
//!
//! The wire protocol is the workspace's usual length-prefixed framing
//! ([`cb_model::push_frame`] / [`cb_model::FrameBuffer`]) carrying
//! [`RegMsg`] bodies; addresses travel as their `SocketAddr` string form
//! (host-portable, no binary layout to keep stable).

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cb_model::codec::{Decode, DecodeError, Encode, Reader};
use cb_model::{push_frame, FrameBuffer, NodeId};

use crate::conn::{accept_pending, FramedConn};
use crate::reactor::{spawn_reactor, Hosted, IoReadiness, PollStatus, ReactorCtl};

/// Where live endpoints publish and resolve addresses. Implementations
/// must be callable from any reactor thread.
pub trait Addressing: Send + Sync + std::fmt::Debug {
    /// Publishes (or replaces) a node's listen address.
    fn register(&self, node: NodeId, addr: SocketAddr);
    /// Withdraws a node's address (killed, not yet restarted).
    fn deregister(&self, node: NodeId);
    /// Looks a peer up.
    fn lookup(&self, node: NodeId) -> Option<SocketAddr>;
    /// Publishes the checker process's address.
    fn register_checker(&self, addr: SocketAddr);
    /// The checker's address, if one is running.
    fn checker(&self) -> Option<SocketAddr>;
}

/// Maps logical node ids to the socket addresses their listeners currently
/// own. Restarted (churned) nodes re-register under a fresh port, so
/// peers always dial the *current* incarnation.
#[derive(Debug, Default)]
pub struct Registry {
    addrs: Mutex<HashMap<NodeId, SocketAddr>>,
    checker: Mutex<Option<SocketAddr>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes (or replaces) a node's listen address.
    pub fn register(&self, node: NodeId, addr: SocketAddr) {
        self.addrs.lock().expect("registry").insert(node, addr);
    }

    /// Withdraws a node's address (killed, not yet restarted).
    pub fn deregister(&self, node: NodeId) {
        self.addrs.lock().expect("registry").remove(&node);
    }

    /// Looks a peer up.
    pub fn lookup(&self, node: NodeId) -> Option<SocketAddr> {
        self.addrs.lock().expect("registry").get(&node).copied()
    }

    /// Publishes the checker process's address.
    pub fn register_checker(&self, addr: SocketAddr) {
        *self.checker.lock().expect("registry") = Some(addr);
    }

    /// The checker's address, if one is running.
    pub fn checker(&self) -> Option<SocketAddr> {
        *self.checker.lock().expect("registry")
    }
}

impl Addressing for Registry {
    fn register(&self, node: NodeId, addr: SocketAddr) {
        Registry::register(self, node, addr);
    }
    fn deregister(&self, node: NodeId) {
        Registry::deregister(self, node);
    }
    fn lookup(&self, node: NodeId) -> Option<SocketAddr> {
        Registry::lookup(self, node)
    }
    fn register_checker(&self, addr: SocketAddr) {
        Registry::register_checker(self, addr);
    }
    fn checker(&self) -> Option<SocketAddr> {
        Registry::checker(self)
    }
}

/// Registry wire messages. Requests flow client → server; every request
/// gets exactly one reply ([`RegMsg::Addr`] for lookups and checker
/// queries, [`RegMsg::Done`] for writes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegMsg {
    /// Publish `node` at `addr`.
    Register {
        /// The node being published.
        node: NodeId,
        /// Its listen address, in `SocketAddr` string form.
        addr: String,
    },
    /// Withdraw `node`.
    Deregister {
        /// The node being withdrawn.
        node: NodeId,
    },
    /// Resolve `node`.
    Lookup {
        /// The node to resolve.
        node: NodeId,
    },
    /// Publish the checker's address.
    RegisterChecker {
        /// The checker's listen address, in string form.
        addr: String,
    },
    /// Resolve the checker.
    CheckerQuery,
    /// Reply to a lookup/checker query: the address, if known.
    Addr {
        /// The resolved address string (`None` if unknown).
        addr: Option<String>,
    },
    /// Reply to a write.
    Done,
}

impl Encode for RegMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        fn put_str(buf: &mut Vec<u8>, s: &str) {
            s.len().encode(buf);
            buf.extend_from_slice(s.as_bytes());
        }
        match self {
            RegMsg::Register { node, addr } => {
                buf.push(0);
                node.encode(buf);
                put_str(buf, addr);
            }
            RegMsg::Deregister { node } => {
                buf.push(1);
                node.encode(buf);
            }
            RegMsg::Lookup { node } => {
                buf.push(2);
                node.encode(buf);
            }
            RegMsg::RegisterChecker { addr } => {
                buf.push(3);
                put_str(buf, addr);
            }
            RegMsg::CheckerQuery => buf.push(4),
            RegMsg::Addr { addr } => {
                buf.push(5);
                match addr {
                    Some(a) => {
                        buf.push(1);
                        put_str(buf, a);
                    }
                    None => buf.push(0),
                }
            }
            RegMsg::Done => buf.push(6),
        }
    }
}

impl Decode for RegMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        fn get_str(r: &mut Reader<'_>) -> Result<String, DecodeError> {
            let n = r.length()?;
            String::from_utf8(r.take(n)?.to_vec()).map_err(|_| DecodeError::BadTag(0xFF))
        }
        Ok(match r.byte()? {
            0 => RegMsg::Register {
                node: NodeId::decode(r)?,
                addr: get_str(r)?,
            },
            1 => RegMsg::Deregister {
                node: NodeId::decode(r)?,
            },
            2 => RegMsg::Lookup {
                node: NodeId::decode(r)?,
            },
            3 => RegMsg::RegisterChecker { addr: get_str(r)? },
            4 => RegMsg::CheckerQuery,
            5 => RegMsg::Addr {
                addr: match r.byte()? {
                    0 => None,
                    1 => Some(get_str(r)?),
                    t => return Err(DecodeError::BadTag(t)),
                },
            },
            6 => RegMsg::Done,
            t => return Err(DecodeError::BadTag(t)),
        })
    }
}

const REG_MAX_FRAME: usize = 4096;

/// Bound on noticing a stop (requests wake the reactor by socket).
const TICK: Duration = Duration::from_millis(2);

/// Serves an in-process [`Registry`] over TCP so other processes can join
/// the deployment: a reactor thread hosting one server state machine with
/// persistent client connections.
#[derive(Debug)]
pub struct RegistryServer {
    addr: SocketAddr,
    /// A `()` — or the sender going away — tells the server to exit.
    stop: mpsc::Sender<()>,
    join: Option<JoinHandle<Vec<()>>>,
}

impl RegistryServer {
    /// Binds `bind` (port 0 picks a free one) and serves `registry` until
    /// dropped or [`RegistryServer::stop`].
    pub fn serve(registry: Arc<Registry>, bind: SocketAddr) -> std::io::Result<Self> {
        let listener = TcpListener::bind(bind)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (stop, stopped) = mpsc::channel();
        let reactor = spawn_reactor::<RegistrySrv>("cb-live-registry".into(), TICK);
        let srv = RegistrySrv {
            registry,
            listener,
            clients: Vec::new(),
            stopped,
        };
        let _ = reactor.ctl.send(ReactorCtl::Add(Box::new(srv)));
        let _ = reactor.ctl.send(ReactorCtl::Stop);
        Ok(RegistryServer {
            addr,
            stop,
            join: Some(reactor.join),
        })
    }

    /// The address the server actually listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the server thread (idempotent).
    pub fn stop(&mut self) {
        let _ = self.stop.send(());
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for RegistryServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The served side; a client that breaks framing or protocol is dropped.
struct RegistrySrv {
    registry: Arc<Registry>,
    listener: TcpListener,
    clients: Vec<FramedConn<TcpStream>>,
    stopped: mpsc::Receiver<()>,
}

impl Hosted for RegistrySrv {
    type Exit = ();

    fn poll(&mut self, now: Instant, io: IoReadiness) -> PollStatus<()> {
        if !matches!(self.stopped.try_recv(), Err(mpsc::TryRecvError::Empty)) {
            return PollStatus::Exited(());
        }
        if io.readable {
            self.clients
                .extend(accept_pending(&self.listener, REG_MAX_FRAME));
        }
        for c in &mut self.clients {
            if io.readable {
                c.fill();
                while let Some(payload) = c.next_frame() {
                    match RegMsg::from_bytes(&payload)
                        .ok()
                        .and_then(|m| self.registry.answer(m))
                    {
                        Some(reply) => c.queue(&reply.to_bytes()),
                        None => {
                            c.kill();
                            break;
                        }
                    }
                }
            }
            c.flush();
        }
        self.clients.retain(|c| !c.is_dead());
        PollStatus::Running {
            next_wake: now + TICK,
        }
    }

    #[cfg(unix)]
    fn io_fds(&self, out: &mut Vec<(std::os::fd::RawFd, bool)>) {
        use std::os::fd::AsRawFd;
        out.push((self.listener.as_raw_fd(), false));
        out.extend(self.clients.iter().map(|c| c.io_fd()));
    }
}

impl Registry {
    /// Serves one request; `None` for a reply arriving as a request (a
    /// protocol error).
    fn answer(&self, msg: RegMsg) -> Option<RegMsg> {
        Some(match msg {
            RegMsg::Register { node, addr } => {
                if let Ok(a) = addr.parse() {
                    self.register(node, a);
                }
                RegMsg::Done
            }
            RegMsg::Deregister { node } => {
                self.deregister(node);
                RegMsg::Done
            }
            RegMsg::Lookup { node } => RegMsg::Addr {
                addr: self.lookup(node).map(|a| a.to_string()),
            },
            RegMsg::RegisterChecker { addr } => {
                if let Ok(a) = addr.parse() {
                    self.register_checker(a);
                }
                RegMsg::Done
            }
            RegMsg::CheckerQuery => RegMsg::Addr {
                addr: self.checker().map(|a| a.to_string()),
            },
            RegMsg::Addr { .. } | RegMsg::Done => return None,
        })
    }
}

/// A registry mounted from another process over TCP. One persistent
/// connection behind a mutex; requests are synchronous with a bounded
/// read timeout, and a broken connection is re-dialed on the next call.
#[derive(Debug)]
pub struct RemoteRegistry {
    server: SocketAddr,
    conn: Mutex<Option<(TcpStream, FrameBuffer)>>,
    /// The checker's address never changes within a deployment; cache it
    /// so the hot dial path stops paying a round trip once resolved.
    checker_cache: Mutex<Option<SocketAddr>>,
}

impl RemoteRegistry {
    /// Mounts the registry served at `server`.
    pub fn connect(server: SocketAddr) -> Self {
        RemoteRegistry {
            server,
            conn: Mutex::new(None),
            checker_cache: Mutex::new(None),
        }
    }

    fn request(&self, msg: &RegMsg) -> Option<RegMsg> {
        let mut guard = self.conn.lock().expect("remote registry");
        for _attempt in 0..2 {
            if guard.is_none() {
                let stream = TcpStream::connect_timeout(&self.server, Duration::from_secs(1)).ok();
                let stream = stream?;
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(Some(Duration::from_millis(800)));
                *guard = Some((stream, FrameBuffer::new(REG_MAX_FRAME)));
            }
            let (stream, inbuf) = guard.as_mut().expect("just ensured");
            let mut out = Vec::new();
            push_frame(&mut out, &msg.to_bytes());
            if stream.write_all(&out).is_err() {
                *guard = None;
                continue;
            }
            // One reply per request: feed until a frame decodes or the
            // read times out.
            let mut buf = [0u8; 1024];
            loop {
                match inbuf.next_frame() {
                    Ok(Some(payload)) => return RegMsg::from_bytes(&payload).ok(),
                    Ok(None) => {}
                    Err(_) => {
                        *guard = None;
                        return None;
                    }
                }
                match stream.read(&mut buf) {
                    Ok(0) => {
                        *guard = None;
                        break;
                    }
                    Ok(n) => inbuf.feed(&buf[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        *guard = None;
                        return None;
                    }
                }
            }
        }
        None
    }
}

impl Addressing for RemoteRegistry {
    fn register(&self, node: NodeId, addr: SocketAddr) {
        let _ = self.request(&RegMsg::Register {
            node,
            addr: addr.to_string(),
        });
    }

    fn deregister(&self, node: NodeId) {
        let _ = self.request(&RegMsg::Deregister { node });
    }

    fn lookup(&self, node: NodeId) -> Option<SocketAddr> {
        match self.request(&RegMsg::Lookup { node })? {
            RegMsg::Addr { addr } => addr?.parse().ok(),
            _ => None,
        }
    }

    fn register_checker(&self, addr: SocketAddr) {
        let _ = self.request(&RegMsg::RegisterChecker {
            addr: addr.to_string(),
        });
    }

    fn checker(&self) -> Option<SocketAddr> {
        if let Some(a) = *self.checker_cache.lock().expect("checker cache") {
            return Some(a);
        }
        let resolved = match self.request(&RegMsg::CheckerQuery)? {
            RegMsg::Addr { addr } => addr?.parse().ok(),
            _ => None,
        };
        if let Some(a) = resolved {
            *self.checker_cache.lock().expect("checker cache") = Some(a);
        }
        resolved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regmsg_roundtrips() {
        for m in [
            RegMsg::Register {
                node: NodeId(3),
                addr: "127.0.0.1:8080".into(),
            },
            RegMsg::Deregister { node: NodeId(9) },
            RegMsg::Lookup { node: NodeId(0) },
            RegMsg::RegisterChecker {
                addr: "10.0.0.1:99".into(),
            },
            RegMsg::CheckerQuery,
            RegMsg::Addr { addr: None },
            RegMsg::Addr {
                addr: Some("127.0.0.1:1".into()),
            },
            RegMsg::Done,
        ] {
            assert_eq!(RegMsg::from_bytes(&m.to_bytes()).unwrap(), m);
        }
        assert!(RegMsg::from_bytes(&[77]).is_err());
    }

    #[test]
    fn remote_registry_mirrors_local() {
        let local = Arc::new(Registry::new());
        let server =
            RegistryServer::serve(local.clone(), "127.0.0.1:0".parse().unwrap()).expect("serve");
        let remote = RemoteRegistry::connect(server.addr());

        let a1: SocketAddr = "127.0.0.1:4001".parse().unwrap();
        remote.register(NodeId(1), a1);
        assert_eq!(remote.lookup(NodeId(1)), Some(a1));
        assert_eq!(local.lookup(NodeId(1)), Some(a1));
        assert_eq!(remote.lookup(NodeId(2)), None);

        // Registrations made locally are visible remotely and vice versa.
        let a2: SocketAddr = "127.0.0.1:4002".parse().unwrap();
        local.register(NodeId(2), a2);
        assert_eq!(remote.lookup(NodeId(2)), Some(a2));

        remote.deregister(NodeId(1));
        assert_eq!(local.lookup(NodeId(1)), None);

        assert_eq!(remote.checker(), None);
        let ck: SocketAddr = "127.0.0.1:5000".parse().unwrap();
        remote.register_checker(ck);
        assert_eq!(local.checker(), Some(ck));
        assert_eq!(remote.checker(), Some(ck));
        // Second query answers from the cache even after the server dies.
        drop(server);
        assert_eq!(remote.checker(), Some(ck));
    }

    /// A client that breaks framing is dropped, not buffered: at the
    /// parent commit the oversize prefix only ended the frame loop, the
    /// error repeated forever and every later byte was appended to a
    /// buffer whose cursor never moved.
    #[test]
    fn framing_error_closes_the_client_and_the_server_keeps_serving() {
        let local = Arc::new(Registry::new());
        let a7: SocketAddr = "127.0.0.1:4007".parse().unwrap();
        local.register(NodeId(7), a7);
        let server = RegistryServer::serve(local, "127.0.0.1:0".parse().unwrap()).expect("serve");

        let mut hostile = TcpStream::connect(server.addr()).expect("connect");
        hostile
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        hostile.write_all(&[0xff, 0xff, 0xff, 0xff]).unwrap();
        // The server may reset the connection while this is still
        // streaming; a failed write is the close being observed early.
        let chunk = [0u8; 4096];
        for _ in 0..256 {
            if hostile.write_all(&chunk).is_err() {
                break;
            }
        }
        // EOF or a reset; a read that times out means the connection is
        // still open.
        let mut buf = [0u8; 16];
        match hostile.read(&mut buf) {
            Ok(0) => {}
            Ok(n) => panic!("server answered a poisoned stream with {n} bytes"),
            Err(e) => assert!(
                matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::ConnectionAborted
                ),
                "server kept the poisoned connection open: {e}"
            ),
        }

        let remote = RemoteRegistry::connect(server.addr());
        assert_eq!(remote.lookup(NodeId(7)), Some(a7));
    }
}

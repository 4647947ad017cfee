//! Exchange abstraction plus the two implementations the crawler uses:
//! a real TCP client with keep-alive and a cookie jar, and an in-memory
//! exchange that calls a [`Handler`] directly (same semantics, no
//! sockets) for fast experiment sweeps.

use crate::cookie::CookieJar;
use crate::error::{HttpError, Result};
use crate::message::{Request, Response};
use crate::router::Handler;
use crate::types::Method;
use crate::wire::{decode_response, encode_request, Decoded};
use bytes::BytesMut;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Portable per-exchange state for crash-resume: everything a restarted
/// process needs to continue a lane's transport exactly where the dead
/// one left off. The crawl journal stores it as it is.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransportState {
    /// Cookie jar contents (the session cookie, chiefly).
    pub cookies: Vec<(String, String)>,
    /// Next attempt sequence number (see `ResilientExchange`).
    pub attempt_seq: u64,
    /// Retry-jitter PRNG state.
    pub jitter_state: u64,
}

/// Anything that can carry one HTTP exchange. The crawler is generic
/// over this so identical attack code runs over loopback TCP or
/// in-process.
pub trait Exchange {
    /// Send a request, get a response. Cookie handling is the
    /// implementation's responsibility.
    fn exchange(&mut self, req: Request) -> Result<Response>;

    /// Drop any session state (cookies), e.g. when switching to a
    /// different attacker account.
    fn clear_session(&mut self);

    /// Export resumable transport state. Transports with no portable
    /// state (e.g. chaos wrappers) return the default.
    fn transport_state(&self) -> TransportState {
        TransportState::default()
    }

    /// Restore state previously exported by [`Exchange::transport_state`].
    fn restore_transport_state(&mut self, _state: &TransportState) {}
}

/// A boxed transport is a transport, so one crawler type can sit over
/// any stack chosen at run time.
impl<E: Exchange + ?Sized> Exchange for Box<E> {
    fn exchange(&mut self, req: Request) -> Result<Response> {
        (**self).exchange(req)
    }

    fn clear_session(&mut self) {
        (**self).clear_session()
    }

    fn transport_state(&self) -> TransportState {
        (**self).transport_state()
    }

    fn restore_transport_state(&mut self, state: &TransportState) {
        (**self).restore_transport_state(state)
    }
}

/// A blocking TCP client bound to one server address.
///
/// Maintains a single keep-alive connection (reconnecting on failure)
/// and a cookie jar, which is how the paper's scripts behaved: one
/// logged-in fake account per crawler process.
pub struct Client {
    addr: SocketAddr,
    conn: Option<TcpStream>,
    jar: CookieJar,
    read_timeout: Duration,
}

/// Default socket read timeout for [`Client`] connections.
pub const DEFAULT_CLIENT_READ_TIMEOUT: Duration = Duration::from_secs(10);

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client::with_read_timeout(addr, DEFAULT_CLIENT_READ_TIMEOUT)
    }

    /// Like [`Client::new`] with an explicit socket read timeout (how
    /// long one `read(2)` may block before the exchange errors out).
    pub fn with_read_timeout(addr: SocketAddr, read_timeout: Duration) -> Client {
        Client { addr, conn: None, jar: CookieJar::new(), read_timeout }
    }

    /// Change the read timeout; applies from the next (re)connect.
    pub fn set_read_timeout(&mut self, read_timeout: Duration) {
        self.read_timeout = read_timeout;
        self.conn = None;
    }

    /// The cookie jar (e.g. to inspect the session cookie in tests).
    pub fn cookies(&self) -> &CookieJar {
        &self.jar
    }

    fn connect(&mut self) -> Result<&mut TcpStream> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_read_timeout(Some(self.read_timeout))?;
            stream.set_nodelay(true)?;
            self.conn = Some(stream);
        }
        Ok(self.conn.as_mut().expect("just set"))
    }

    fn try_once(&mut self, req: &Request) -> Result<Response> {
        let stream = self.connect()?;
        stream.write_all(&encode_request(req))?;
        let mut buf = BytesMut::with_capacity(4096);
        let mut chunk = [0u8; 4096];
        loop {
            match decode_response(&mut buf)? {
                Decoded::Complete(resp) => return Ok(resp),
                Decoded::Incomplete => {}
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(HttpError::UnexpectedEof);
            }
            buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// GET `path` (path + optional query, e.g. `/search?school=s1`).
    pub fn get(&mut self, path: impl Into<String>) -> Result<Response> {
        self.exchange(Request::get(path))
    }

    /// POST a form.
    pub fn post_form(&mut self, path: &str, form: &[(&str, &str)]) -> Result<Response> {
        self.exchange(Request::post_form(path, form))
    }
}

impl Exchange for Client {
    fn exchange(&mut self, mut req: Request) -> Result<Response> {
        req.headers.set("Host", self.addr.to_string());
        self.jar.apply(&mut req);
        // One retry on a stale keep-alive connection — but only for
        // idempotent methods. A POST (signup, login, direct message)
        // may already have been processed before the connection died;
        // replaying it here would silently double-send.
        let resp = match self.try_once(&req) {
            Ok(resp) => resp,
            Err(HttpError::Io(_) | HttpError::UnexpectedEof)
                if matches!(req.method, Method::Get | Method::Head) =>
            {
                self.conn = None;
                self.try_once(&req)?
            }
            Err(e) => {
                self.conn = None;
                return Err(e);
            }
        };
        self.jar.absorb(&resp);
        if resp.headers.connection_close() {
            self.conn = None;
        }
        Ok(resp)
    }

    fn clear_session(&mut self) {
        self.jar.clear();
        self.conn = None;
    }

    fn transport_state(&self) -> TransportState {
        TransportState { cookies: self.jar.entries().to_vec(), ..TransportState::default() }
    }

    fn restore_transport_state(&mut self, state: &TransportState) {
        self.jar.clear();
        for (name, value) in &state.cookies {
            self.jar.insert(name.clone(), value.clone());
        }
    }
}

/// In-memory exchange: calls the handler directly, still running the
/// full request/response + cookie semantics, but skipping sockets and
/// wire encoding. Used by experiment sweeps where the paper-relevant
/// behaviour (what pages say, how many requests were made) is identical.
pub struct DirectExchange {
    handler: Arc<dyn Handler>,
    jar: CookieJar,
}

impl DirectExchange {
    pub fn new(handler: Arc<dyn Handler>) -> DirectExchange {
        DirectExchange { handler, jar: CookieJar::new() }
    }

    pub fn cookies(&self) -> &CookieJar {
        &self.jar
    }
}

impl Exchange for DirectExchange {
    fn exchange(&mut self, mut req: Request) -> Result<Response> {
        self.jar.apply(&mut req);
        let resp = self.handler.handle(&req);
        self.jar.absorb(&resp);
        Ok(resp)
    }

    fn clear_session(&mut self) {
        self.jar.clear();
    }

    fn transport_state(&self) -> TransportState {
        TransportState { cookies: self.jar.entries().to_vec(), ..TransportState::default() }
    }

    fn restore_transport_state(&mut self, state: &TransportState) {
        self.jar.clear();
        for (name, value) in &state.cookies {
            self.jar.insert(name.clone(), value.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cookie::request_cookie;
    use crate::router::Router;
    use crate::server::Server;
    use crate::types::Status;

    fn cookie_router() -> Router {
        let mut router = Router::new();
        router.post("/login", |req, _| {
            let user = req.form_param("user").unwrap_or_default();
            Response::text("welcome").set_cookie("sid", &format!("sess-{user}"))
        });
        router.get("/whoami", |req, _| match request_cookie(req, "sid") {
            Some(sid) => Response::text(sid.to_string()),
            None => Response::error(Status::UNAUTHORIZED, "no session"),
        });
        router
    }

    #[test]
    fn tcp_client_round_trip_with_cookies() {
        let server = Server::start(Arc::new(cookie_router())).unwrap();
        let mut client = Client::new(server.addr());
        assert_eq!(client.get("/whoami").unwrap().status, Status::UNAUTHORIZED);
        client.post_form("/login", &[("user", "eve")]).unwrap();
        let resp = client.get("/whoami").unwrap();
        assert_eq!(resp.body_string(), "sess-eve");
        client.clear_session();
        assert_eq!(client.get("/whoami").unwrap().status, Status::UNAUTHORIZED);
        server.shutdown();
    }

    #[test]
    fn direct_exchange_matches_tcp_semantics() {
        let handler: Arc<dyn Handler> = Arc::new(cookie_router());
        let mut direct = DirectExchange::new(handler);
        assert_eq!(direct.exchange(Request::get("/whoami")).unwrap().status, Status::UNAUTHORIZED);
        direct.exchange(Request::post_form("/login", &[("user", "eve")])).unwrap();
        let resp = direct.exchange(Request::get("/whoami")).unwrap();
        assert_eq!(resp.body_string(), "sess-eve");
    }

    #[test]
    fn stale_keep_alive_post_is_not_replayed() {
        use std::net::TcpListener;
        use std::sync::mpsc;

        // Raw one-shot server: serve one request on the first connection,
        // then close it *without* `Connection: close`, leaving the client
        // holding a stale keep-alive socket.
        fn read_request_line(stream: &mut TcpStream) -> String {
            let mut buf = Vec::new();
            let mut chunk = [0u8; 1024];
            loop {
                let n = stream.read(&mut chunk).unwrap();
                assert!(n > 0, "peer closed before a full request arrived");
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") {
                    let text = String::from_utf8_lossy(&buf);
                    return text.lines().next().unwrap_or_default().to_string();
                }
            }
        }

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (closed_tx, closed_rx) = mpsc::channel();
        let server = std::thread::spawn(move || {
            {
                let (mut s, _) = listener.accept().unwrap();
                assert!(read_request_line(&mut s).starts_with("GET /warm"));
                s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok").unwrap();
            } // dropped: stale keep-alive from the client's point of view
            closed_tx.send(()).unwrap();
            // Only the client's reconnect (a fresh GET) may land here; a
            // replayed POST would show up as a POST request line.
            let (mut s, _) = listener.accept().unwrap();
            let line = read_request_line(&mut s);
            s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok").unwrap();
            line
        });

        let mut client = Client::new(addr);
        assert_eq!(client.get("/warm").unwrap().body_string(), "ok");
        closed_rx.recv().unwrap();
        // The POST hits the dead socket: it must error out, not be
        // transparently resent on a fresh connection.
        let err = client.post_form("/message/u9", &[("text", "hi")]).unwrap_err();
        assert!(
            matches!(err, HttpError::Io(_) | HttpError::UnexpectedEof),
            "expected a transport error, got {err}"
        );
        // A later idempotent request recovers by reconnecting.
        assert_eq!(client.get("/after").unwrap().body_string(), "ok");
        let second_conn_line = server.join().unwrap();
        assert!(
            second_conn_line.starts_with("GET /after"),
            "second connection saw '{second_conn_line}' — the POST was replayed"
        );
    }

    #[test]
    fn client_reconnects_after_server_closes_connection() {
        let mut router = Router::new();
        router.get("/once", |_, _| Response::text("bye").header("Connection", "close"));
        router.get("/again", |_, _| Response::text("hello"));
        let server = Server::start(Arc::new(router)).unwrap();
        let mut client = Client::new(server.addr());
        assert_eq!(client.get("/once").unwrap().body_string(), "bye");
        // The server closed the connection; the client must transparently
        // open a new one.
        assert_eq!(client.get("/again").unwrap().body_string(), "hello");
        server.shutdown();
    }
}

//! The Unix-domain-socket front door.
//!
//! One accept loop, one reader thread per connection, all sharing one
//! [`QueryService`]. Each connection gets its own [`Interrupt`] token:
//! EOF or a read error (the client vanished) triggers it, so evaluation
//! already in flight for that client stops at its next gauge poll
//! instead of burning the pool. Graceful drain — a `{"op":"shutdown"}`
//! from any client, or [`Server::shutdown`] — triggers **every**
//! connection's token, stops accepting, and joins the connection
//! threads; in-flight requests terminate typed (`partial` with resource
//! `interrupt`) rather than being killed.
//!
//! The protocol is strictly line-delimited: requests are answered in
//! order on each connection, and a malformed line gets an `error`
//! response rather than a hangup, so one client bug cannot poison a
//! session. A line longer than [`MAX_LINE_BYTES`] is the exception: it
//! gets an `error` response and the connection closes, because the server
//! buffers no more of it and so cannot find where the next request starts.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use hp_guard::Interrupt;

use crate::protocol::{parse_request, Request, Response};
use crate::service::QueryService;

/// Longest request line the server buffers, newline excluded (1 MiB).
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// One outcome of [`read_line_bounded`].
#[derive(Debug, PartialEq, Eq)]
enum LineRead {
    /// A complete line is in the buffer (the final line may lack its
    /// newline).
    Line,
    /// The line exceeded [`MAX_LINE_BYTES`]; the buffer holds a prefix.
    TooLong,
    /// End of stream with nothing buffered.
    Eof,
}

/// Read one `\n`-terminated line into `line` (terminator and a preceding
/// `\r` stripped), buffering at most [`MAX_LINE_BYTES`] bytes of it.
fn read_line_bounded<R: BufRead>(reader: &mut R, line: &mut Vec<u8>) -> std::io::Result<LineRead> {
    line.clear();
    loop {
        let available = match reader.fill_buf() {
            Ok(b) => b,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            return Ok(if line.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line
            });
        }
        let newline = available.iter().position(|&b| b == b'\n');
        let chunk = &available[..newline.unwrap_or(available.len())];
        if line.len() + chunk.len() > MAX_LINE_BYTES {
            return Ok(LineRead::TooLong);
        }
        line.extend_from_slice(chunk);
        let used = chunk.len() + usize::from(newline.is_some());
        reader.consume(used);
        if newline.is_some() {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return Ok(LineRead::Line);
        }
    }
}

/// The shared drain switch: one flag, every connection's interrupt and
/// stream, and the socket path (to self-connect and unblock the accept
/// loop).
struct DrainSwitch {
    path: PathBuf,
    draining: AtomicBool,
    conns: Mutex<Vec<(Interrupt, UnixStream)>>,
}

impl DrainSwitch {
    fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Flip to draining: cancel every connection's in-flight work,
    /// shut their sockets down (unblocking reader threads parked in
    /// blocking reads), and nudge the accept loop awake so it can
    /// observe the flag.
    fn drain(&self) {
        self.draining.store(true, Ordering::Release);
        for (token, stream) in self.conns.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            token.trigger();
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        let _ = UnixStream::connect(&self.path);
    }

    fn register(&self, stream: &UnixStream) -> Interrupt {
        let token = Interrupt::new();
        if let Ok(clone) = stream.try_clone() {
            self.conns
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push((token.clone(), clone));
        }
        token
    }
}

/// A running server: owns the accept thread and the drain switch.
pub struct Server {
    switch: Arc<DrainSwitch>,
    service: Arc<QueryService>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind `path` and start accepting. An existing file at the path is
    /// removed first (the conventional Unix-socket dance).
    pub fn bind(path: &Path, service: Arc<QueryService>) -> std::io::Result<Server> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        let switch = Arc::new(DrainSwitch {
            path: path.to_path_buf(),
            draining: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
        });

        let accept_thread = {
            let service = service.clone();
            let switch = switch.clone();
            std::thread::spawn(move || {
                let mut conn_threads = Vec::new();
                for stream in listener.incoming() {
                    if switch.is_draining() {
                        break;
                    }
                    let Ok(stream) = stream else { break };
                    let token = switch.register(&stream);
                    let service = service.clone();
                    let switch = switch.clone();
                    conn_threads.push(std::thread::spawn(move || {
                        serve_connection(stream, &service, &token, &switch);
                    }));
                }
                for t in conn_threads {
                    let _ = t.join();
                }
            })
        };

        Ok(Server {
            switch,
            service,
            accept_thread: Some(accept_thread),
        })
    }

    /// The service behind this server.
    pub fn service(&self) -> &Arc<QueryService> {
        &self.service
    }

    /// Block until the server drains — either a client sends
    /// `{"op":"shutdown"}` or another thread calls [`Server::shutdown`].
    /// Consumes the server; the socket file is removed on return.
    pub fn wait(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let _ = std::fs::remove_file(&self.switch.path);
    }

    /// Begin graceful drain and wait for all connections to finish.
    pub fn shutdown(self) {
        self.switch.drain();
        self.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            self.switch.drain();
            let _ = t.join();
            let _ = std::fs::remove_file(&self.switch.path);
        }
    }
}

/// Serve one connection until EOF, error, drain, or a shutdown request.
fn serve_connection(
    stream: UnixStream,
    service: &QueryService,
    token: &Interrupt,
    switch: &DrainSwitch,
) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let line = match read_line_bounded(&mut reader, &mut buf) {
            Ok(LineRead::Line) => std::str::from_utf8(&buf),
            Ok(LineRead::TooLong) => {
                let response = Response::Error {
                    message: format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                };
                let _ = writeln!(writer, "{}", response.render());
                let _ = writer.flush();
                let _ = writer.shutdown(std::net::Shutdown::Both);
                token.trigger();
                return;
            }
            // EOF or a read error: the client is gone. Cancel its
            // in-flight work.
            Ok(LineRead::Eof) | Err(_) => {
                token.trigger();
                return;
            }
        };
        let response = match line {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(_) if switch.is_draining() => Response::Error {
                message: "service is draining".to_string(),
            },
            Ok(line) => match parse_request(line) {
                Ok(req) => {
                    let resp = service.handle(&req, token);
                    if matches!(req, Request::Shutdown) {
                        // Acknowledge, then drain everyone.
                        let _ = writeln!(writer, "{}", resp.render());
                        let _ = writer.flush();
                        switch.drain();
                        return;
                    }
                    resp
                }
                Err(e) => Response::Error { message: e },
            },
            Err(_) => Response::Error {
                message: "request line is not valid UTF-8".to_string(),
            },
        };
        if writeln!(writer, "{}", response.render()).is_err() || writer.flush().is_err() {
            token.trigger();
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    // Every test holds `hp_guard::fault::exclusive()`: the fault plan is
    // process-global, so a test that installs one must not run beside a
    // test whose requests or writes would hit (or consume) its trigger.
    use super::*;
    use crate::service::ServiceConfig;
    use hp_structures::{Elem, Structure, Vocabulary};

    fn seed() -> Structure {
        let mut s = Structure::new(Vocabulary::digraph(), 4);
        let e = s.vocab().lookup("E").unwrap();
        s.add_tuple(e, &[Elem(0), Elem(1)]).unwrap();
        s.add_tuple(e, &[Elem(1), Elem(2)]).unwrap();
        s
    }

    fn sock_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("hp-serve-test-{tag}-{}.sock", std::process::id()))
    }

    fn roundtrip(stream: &mut UnixStream, line: &str) -> String {
        let mut w = stream.try_clone().unwrap();
        writeln!(w, "{line}").unwrap();
        w.flush().unwrap();
        let mut r = BufReader::new(stream.try_clone().unwrap());
        let mut out = String::new();
        r.read_line(&mut out).unwrap();
        out.trim_end().to_string()
    }

    #[test]
    fn socket_roundtrip_query_update_stats_shutdown() {
        let _serial = hp_guard::fault::exclusive();
        let path = sock_path("roundtrip");
        let svc = Arc::new(QueryService::new(seed(), ServiceConfig::default()));
        let server = Server::bind(&path, svc).unwrap();

        let mut c = UnixStream::connect(&path).unwrap();
        let a = roundtrip(
            &mut c,
            "{\"op\":\"query\",\"program\":\"Goal(x,y) :- E(x,y).\"}",
        );
        assert!(a.contains("\"status\":\"ok\""), "{a}");
        assert!(a.contains("\"cache\":\"miss\""), "{a}");

        let u = roundtrip(&mut c, "{\"op\":\"update\",\"insert\":{\"E\":[[2,3]]}}");
        assert!(u.contains("\"epoch\":1"), "{u}");

        let s = roundtrip(&mut c, "{\"op\":\"stats\"}");
        assert!(s.contains("\"admitted\":1"), "{s}");

        let garbage = roundtrip(&mut c, "not json at all");
        assert!(garbage.contains("\"status\":\"error\""), "{garbage}");

        // The connection survives the bad line.
        let again = roundtrip(
            &mut c,
            "{\"op\":\"query\",\"program\":\"Goal(x,y) :- E(x,y).\"}",
        );
        assert!(again.contains("\"epoch\":1"), "{again}");

        let bye = roundtrip(&mut c, "{\"op\":\"shutdown\"}");
        assert!(bye.contains("\"status\":\"bye\""), "{bye}");
        server.wait();
        assert!(!path.exists(), "socket file removed on shutdown");
    }

    #[test]
    fn line_reader_strips_terminators_and_stops_at_the_cap() {
        let _serial = hp_guard::fault::exclusive();
        let mut line = Vec::new();
        let mut r = BufReader::new(&b"a\r\nbc\n\nlast"[..]);
        let mut next = |line: &mut Vec<u8>| read_line_bounded(&mut r, line).unwrap();
        assert_eq!(
            (next(&mut line), line.as_slice()),
            (LineRead::Line, &b"a"[..])
        );
        assert_eq!(
            (next(&mut line), line.as_slice()),
            (LineRead::Line, &b"bc"[..])
        );
        assert_eq!(
            (next(&mut line), line.as_slice()),
            (LineRead::Line, &b""[..])
        );
        assert_eq!(
            (next(&mut line), line.as_slice()),
            (LineRead::Line, &b"last"[..])
        );
        assert_eq!(next(&mut line), LineRead::Eof);

        let mut exact = vec![b'x'; MAX_LINE_BYTES];
        exact.push(b'\n');
        let mut r = BufReader::new(exact.as_slice());
        assert_eq!(
            read_line_bounded(&mut r, &mut line).unwrap(),
            LineRead::Line
        );
        assert_eq!(line.len(), MAX_LINE_BYTES);
        let over = vec![b'x'; MAX_LINE_BYTES + 1];
        let mut r = BufReader::new(over.as_slice());
        assert_eq!(
            read_line_bounded(&mut r, &mut line).unwrap(),
            LineRead::TooLong
        );
        assert!(line.len() <= MAX_LINE_BYTES);
    }

    #[test]
    fn over_long_line_gets_a_typed_error_and_the_connection_closes() {
        let _serial = hp_guard::fault::exclusive();
        let path = sock_path("longline");
        let svc = Arc::new(QueryService::new(seed(), ServiceConfig::default()));
        let server = Server::bind(&path, svc).unwrap();

        let c = UnixStream::connect(&path).unwrap();
        // A client that never sends a newline. The server stops reading at
        // the cap, so the tail of this write may fail; that is expected.
        let mut w = c.try_clone().unwrap();
        let flood = std::thread::spawn(move || {
            let _ = w.write_all(&vec![b'{'; MAX_LINE_BYTES + 4096]);
        });
        let mut r = BufReader::new(c.try_clone().unwrap());
        let mut reply = String::new();
        r.read_line(&mut reply).unwrap();
        assert!(reply.contains("\"status\":\"error\""), "{reply}");
        assert!(reply.contains("exceeds"), "{reply}");
        reply.clear();
        assert_eq!(r.read_line(&mut reply).unwrap(), 0, "connection closed");
        flood.join().unwrap();

        // The server itself is unaffected.
        let mut c2 = UnixStream::connect(&path).unwrap();
        let a = roundtrip(
            &mut c2,
            "{\"op\":\"query\",\"program\":\"Goal(x,y) :- E(x,y).\"}",
        );
        assert!(a.contains("\"status\":\"ok\""), "{a}");
        server.shutdown();
    }

    #[test]
    fn invalid_utf8_line_gets_a_typed_error_and_the_session_continues() {
        let _serial = hp_guard::fault::exclusive();
        let path = sock_path("utf8");
        let svc = Arc::new(QueryService::new(seed(), ServiceConfig::default()));
        let server = Server::bind(&path, svc).unwrap();
        let mut c = UnixStream::connect(&path).unwrap();
        let mut w = c.try_clone().unwrap();
        w.write_all(b"{\"op\":\"stats\xff\"}\n").unwrap();
        let mut r = BufReader::new(c.try_clone().unwrap());
        let mut reply = String::new();
        r.read_line(&mut reply).unwrap();
        assert!(reply.contains("not valid UTF-8"), "{reply}");
        let s = roundtrip(&mut c, "{\"op\":\"stats\"}");
        assert!(s.contains("\"status\":\"ok\""), "{s}");
        server.shutdown();
    }

    #[test]
    fn dropped_connection_does_not_wedge_the_server() {
        let _serial = hp_guard::fault::exclusive();
        let path = sock_path("drop");
        let svc = Arc::new(QueryService::new(seed(), ServiceConfig::default()));
        let server = Server::bind(&path, svc).unwrap();

        {
            let c = UnixStream::connect(&path).unwrap();
            let mut w = c.try_clone().unwrap();
            writeln!(
                w,
                "{{\"op\":\"query\",\"program\":\"Goal(x,y) :- E(x,y).\"}}"
            )
            .unwrap();
            w.flush().unwrap();
            drop(c); // vanish without reading the response
        }

        // A fresh connection still works.
        let mut c2 = UnixStream::connect(&path).unwrap();
        let a = roundtrip(
            &mut c2,
            "{\"op\":\"query\",\"program\":\"Goal(x,y) :- E(x,y).\"}",
        );
        assert!(a.contains("\"status\":\"ok\""), "{a}");
        server.shutdown();
    }
}

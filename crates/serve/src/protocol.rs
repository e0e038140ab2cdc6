//! The line protocol: a newline-delimited JSON command API over
//! `std::net::TcpListener`.
//!
//! One request per line, one JSON response per line:
//!
//! | command    | request                                  | response |
//! |------------|------------------------------------------|----------|
//! | `submit`   | `{"cmd":"submit","spec":{...}}`          | `{"ok":true,"job":"j-1"}` |
//! | `status`   | `{"cmd":"status","job":"j-1"}`           | `{"ok":true,"status":{...}}` |
//! | `result`   | `{"cmd":"result","job":"j-1"}`           | `{"ok":true,"result":{...}}` |
//! | `journal`  | `{"cmd":"journal","job":"j-1"}`          | `{"ok":true,"events":[...]}` |
//! | `events`   | `{"cmd":"events"}`                       | the most recent [`LIFECYCLE_EVENTS`](crate::LIFECYCLE_EVENTS) lifecycle events |
//! | `cancel`   | `{"cmd":"cancel","job":"j-1"}`           | `{"ok":true,"cancelled":bool}` |
//! | `metrics`  | `{"cmd":"metrics"}`                      | `{"ok":true,"metrics":{...}}` |
//! | `shutdown` | `{"cmd":"shutdown"}`                     | `{"ok":true,"draining":true}` |
//!
//! Failures answer `{"ok":false,"error":"..."}` — an admission
//! rejection is a *successful* protocol exchange carrying an error,
//! never a dropped connection. The dispatcher is transport-agnostic
//! (`handle_line` maps a request line to a response line), so tests
//! drive it without sockets and the binary's TCP accept loop stays
//! a thin wrapper. Each connection is served on its own thread, at most
//! [`MAX_CONNECTIONS`] at once. A request line longer than
//! [`MAX_REQUEST_LINE`] bytes is answered with an error and its
//! connection closed.

use std::io::{BufRead as _, BufReader, ErrorKind, Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use fixref_core::JobSpec;
use fixref_obs::{Json, ToJson};

use crate::server::Server;

/// The longest request line the server reads, in bytes, its newline not
/// counted: far above any job spec, and a bound on what one connection
/// can make the server hold.
pub const MAX_REQUEST_LINE: usize = 16 << 20;

/// Dispatches one request line against the server, returning the
/// response line (without trailing newline). Never panics on malformed
/// input — every parse failure is an `{"ok":false}` response.
pub fn handle_line(server: &Server, line: &str) -> String {
    respond(reply(server, line))
}

/// Renders a reply: `{"ok":true,"<key>":<value>}` or
/// `{"ok":false,"error":"<message>"}`.
fn respond(reply: Result<(&str, Json), String>) -> String {
    let (ok, key, value) = match reply {
        Ok((key, value)) => (true, key, value),
        Err(message) => (false, "error", Json::Str(message)),
    };
    Json::obj([("ok", Json::Bool(ok)), (key, value)]).to_string()
}

/// The successful reply's member, or the error message.
fn reply(server: &Server, line: &str) -> Result<(&'static str, Json), String> {
    let v = Json::parse(line).map_err(|e| format!("malformed request: {e}"))?;
    let cmd = v
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or("missing \"cmd\"")?;
    let job = || {
        v.get("job")
            .and_then(Json::as_str)
            .ok_or_else(|| "missing \"job\"".to_string())
    };
    match cmd {
        "submit" => {
            let spec = v.get("spec").ok_or("missing \"spec\"")?;
            let spec = JobSpec::from_value(spec).map_err(|e| e.to_string())?;
            let job = server.submit(spec).map_err(|rejection| rejection.reason)?;
            Ok(("job", job.encode()))
        }
        "status" => {
            let job = job()?;
            let status = server
                .status(job)
                .ok_or_else(|| format!("unknown job {job:?}"))?;
            Ok(("status", status.encode()))
        }
        "result" => {
            let job = job()?;
            let result = server
                .result(job)
                .ok_or_else(|| format!("no result for job {job:?}"))?;
            Ok(("result", result.encode()))
        }
        "journal" => Ok(("events", server.journal(job()?).encode())),
        "events" => Ok(("events", server.recorder().events().encode())),
        "cancel" => Ok(("cancelled", server.cancel(job()?).encode())),
        "metrics" => Ok(("metrics", server.metrics().encode())),
        "shutdown" => Ok(("draining", Json::Bool(true))),
        other => Err(format!("unknown command {other:?}")),
    }
}

/// The most connections [`serve_listener`] serves at once; a client past
/// the cap is answered with an error and closed.
pub const MAX_CONNECTIONS: usize = 64;

/// How often a connection waiting for its next request line checks
/// whether the server is shutting down.
const STOP_POLL: std::time::Duration = std::time::Duration::from_millis(50);

/// Serves the line protocol on `listener` until a `shutdown` command
/// arrives (or `stop` is raised externally), then returns so the caller
/// can drain. Each connection is served on its own thread, at most
/// [`MAX_CONNECTIONS`] at once, so an idle or slow client never stalls
/// another; job execution happens on the server's worker threads. Once
/// `stop` is raised, every connection closes within 50 ms of its last
/// request and the function returns.
///
/// # Errors
///
/// I/O errors from the listener itself; per-connection errors just end
/// that connection.
pub fn serve_listener(
    server: &Server,
    listener: &TcpListener,
    stop: &Arc<AtomicBool>,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let open = AtomicUsize::new(0);
    std::thread::scope(|scope| loop {
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        let mut stream = match listener.accept() {
            Ok((stream, _addr)) => stream,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(std::time::Duration::from_millis(10));
                continue;
            }
            Err(e) => {
                // Close the open connections too, so the scope can end.
                stop.store(true, Ordering::SeqCst);
                return Err(e);
            }
        };
        if open.fetch_add(1, Ordering::SeqCst) >= MAX_CONNECTIONS {
            open.fetch_sub(1, Ordering::SeqCst);
            let message = format!("too many connections (limit {MAX_CONNECTIONS})");
            let _ = stream.write_all(format!("{}\n", respond(Err(message))).as_bytes());
            continue;
        }
        let open = &open;
        let spawned = std::thread::Builder::new()
            .name("fixref-conn".into())
            .spawn_scoped(scope, move || {
                handle_connection(server, stream, stop);
                open.fetch_sub(1, Ordering::SeqCst);
            });
        if spawned.is_err() {
            open.fetch_sub(1, Ordering::SeqCst);
        }
    })
}

/// Serves one connection until it closes, the client asks for shutdown,
/// or `stop` is raised. A line that is not UTF-8 gets an error response
/// and the connection keeps serving; a line longer than
/// [`MAX_REQUEST_LINE`] gets an error response and the connection is
/// closed, since the rest of the line is never read.
fn handle_connection(server: &Server, stream: TcpStream, stop: &AtomicBool) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(STOP_POLL));
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        if !read_request(&mut reader, &mut buf, stop) {
            return;
        }
        if buf.len() > MAX_REQUEST_LINE && buf.last() != Some(&b'\n') {
            let message = format!("request line exceeds {MAX_REQUEST_LINE} bytes");
            let _ = writer.write_all(format!("{}\n", respond(Err(message))).as_bytes());
            return;
        }
        let reply = match std::str::from_utf8(&buf) {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => {
                let line = line
                    .strip_suffix('\n')
                    .map_or(line, |l| l.strip_suffix('\r').unwrap_or(l));
                reply(server, line)
            }
            Err(_) => Err("request is not UTF-8".to_string()),
        };
        let is_shutdown = matches!(reply, Ok(("draining", _)));
        let mut response = respond(reply);
        response.push('\n');
        if writer
            .write_all(response.as_bytes())
            .and_then(|()| writer.flush())
            .is_err()
        {
            return;
        }
        if is_shutdown {
            stop.store(true, Ordering::SeqCst);
            return;
        }
    }
}

/// Reads one request line into `buf`, at most one byte past
/// [`MAX_REQUEST_LINE`]. Returns `false` when the connection ended with
/// nothing read, failed, or `stop` was raised while it waited.
fn read_request(reader: &mut BufReader<TcpStream>, buf: &mut Vec<u8>, stop: &AtomicBool) -> bool {
    loop {
        let limit = (MAX_REQUEST_LINE + 1 - buf.len()) as u64;
        match reader.take(limit).read_until(b'\n', buf) {
            Ok(_) => return !buf.is_empty(),
            // The read timed out: the bytes read so far stay in `buf`.
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                if stop.load(Ordering::SeqCst) {
                    return false;
                }
            }
            Err(_) => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use fixref_core::FlowSpec;
    use fixref_sim::{DesignSpec, ScenarioSet};

    fn test_server(name: &str) -> Server {
        let dir = std::env::temp_dir().join(format!("fixref_proto_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        Server::open(ServerConfig::new(dir)).expect("opens")
    }

    fn submit_line() -> String {
        let spec = JobSpec::new(
            "acme",
            DesignSpec::new("lms").with_input_dtype("<7,5,tc,st,rd>"),
            ScenarioSet::single(7, 28.0, 120),
        )
        .with_flow(FlowSpec {
            max_simulations: Some(6),
            ..FlowSpec::default()
        });
        format!(r#"{{"cmd":"submit","spec":{}}}"#, spec.to_json())
    }

    #[test]
    fn submit_status_result_journal_round_trip() {
        let server = test_server("round_trip");
        let response = handle_line(&server, &submit_line());
        assert!(response.contains(r#""ok":true"#), "{response}");
        assert!(response.contains(r#""job":"j-1""#), "{response}");

        let status = handle_line(&server, r#"{"cmd":"status","job":"j-1"}"#);
        assert!(status.contains(r#""state":"queued""#), "{status}");

        server.run_until_idle();
        let status = handle_line(&server, r#"{"cmd":"status","job":"j-1"}"#);
        assert!(status.contains(r#""state":"finished""#), "{status}");
        let result = handle_line(&server, r#"{"cmd":"result","job":"j-1"}"#);
        assert!(result.contains(r#""status":"#), "{result}");
        let journal = handle_line(&server, r#"{"cmd":"journal","job":"j-1"}"#);
        assert!(
            journal.contains(r#""event":"iteration_started""#),
            "{journal}"
        );
        assert!(
            journal.contains(r#""event":"checkpoint_written""#),
            "{journal}"
        );
        let metrics = handle_line(&server, r#"{"cmd":"metrics"}"#);
        assert!(metrics.contains("serve"), "{metrics}");
    }

    #[test]
    fn malformed_and_unknown_requests_answer_structured_errors() {
        let server = test_server("malformed");
        for bad in [
            "not json",
            r#"{"nocmd":1}"#,
            r#"{"cmd":"explode"}"#,
            r#"{"cmd":"status"}"#,
            r#"{"cmd":"submit"}"#,
            r#"{"cmd":"submit","spec":{"tenant":"a"}}"#,
            r#"{"cmd":"status","job":"j-99"}"#,
        ] {
            let response = handle_line(&server, bad);
            assert!(response.contains(r#""ok":false"#), "{bad} -> {response}");
        }
    }

    #[test]
    fn hostile_nesting_and_inexact_integers_answer_structured_errors() {
        let server = test_server("hostile");
        let deep = "[".repeat(100_000);
        let response = handle_line(&server, &deep);
        assert!(
            response.starts_with(r#"{"ok":false,"error":"#),
            "{response}"
        );
        let spec = JobSpec::new(
            "acme",
            DesignSpec::new("lms"),
            ScenarioSet::single(7, 28.0, 120),
        );
        let line = Json::obj([("cmd", "submit".encode()), ("spec", spec.encode())]).to_string();
        assert!(line.contains(r#""samples":120"#), "{line}");
        for samples in ["1e30", "-1", "1.5", "18446744073709551616"] {
            let bad = line.replace(r#""samples":120"#, &format!(r#""samples":{samples}"#));
            let response = handle_line(&server, &bad);
            assert!(
                response.starts_with(r#"{"ok":false,"#),
                "{samples}: {response}"
            );
            assert!(response.contains("samples"), "{samples}: {response}");
        }
        assert_eq!(server.queue_depth(), 0);
    }

    #[test]
    fn non_utf8_line_is_answered_and_the_connection_keeps_serving() {
        use std::io::{BufRead as _, BufReader, Write as _};
        let server = std::sync::Arc::new(test_server("utf8"));
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("addr");
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || serve_listener(&server, &listener, &stop))
        };

        let mut stream = TcpStream::connect(addr).expect("connects");
        stream
            .write_all(b"{\"cmd\":\"status\",\"job\":\"j-\xff\"}\n{\"cmd\":\"metrics\"}\n")
            .expect("writes");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("reads");
        assert_eq!(line, "{\"ok\":false,\"error\":\"request is not UTF-8\"}\n");
        line.clear();
        reader.read_line(&mut line).expect("reads");
        assert!(line.starts_with(r#"{"ok":true,"metrics":"#), "{line}");

        stream
            .write_all(b"{\"cmd\":\"shutdown\"}\n")
            .expect("writes");
        line.clear();
        reader.read_line(&mut line).expect("reads");
        assert!(line.contains(r#""draining":true"#), "{line}");
        acceptor.join().expect("joins").expect("listener ok");
    }

    #[test]
    fn an_over_long_line_is_answered_and_closed_and_the_server_keeps_serving() {
        use std::io::{BufRead as _, BufReader, Read as _, Write as _};
        let server = std::sync::Arc::new(test_server("long_line"));
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("addr");
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || serve_listener(&server, &listener, &stop))
        };

        // One byte over the cap, and no newline: the server must answer
        // before the line ends.
        let mut stream = TcpStream::connect(addr).expect("connects");
        stream
            .write_all(&vec![b'x'; MAX_REQUEST_LINE + 1])
            .expect("writes");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("reads");
        assert_eq!(
            line,
            format!(
                "{{\"ok\":false,\"error\":\"request line exceeds {MAX_REQUEST_LINE} bytes\"}}\n"
            )
        );
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).expect("closed cleanly");
        assert!(rest.is_empty(), "the connection was closed");

        let mut stream = TcpStream::connect(addr).expect("reconnects");
        stream
            .write_all(b"{\"cmd\":\"metrics\"}\n{\"cmd\":\"shutdown\"}\n")
            .expect("writes");
        let mut reader = BufReader::new(stream);
        line.clear();
        reader.read_line(&mut line).expect("reads");
        assert!(line.starts_with(r#"{"ok":true,"metrics":"#), "{line}");
        line.clear();
        reader.read_line(&mut line).expect("reads");
        assert!(line.contains(r#""draining":true"#), "{line}");
        acceptor.join().expect("joins").expect("listener ok");
    }

    /// Serves `server` on a loopback port from a background thread.
    fn listen(
        server: &Arc<Server>,
    ) -> (
        std::net::SocketAddr,
        std::thread::JoinHandle<std::io::Result<()>>,
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("addr");
        let server = Arc::clone(server);
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = std::thread::spawn(move || serve_listener(&server, &listener, &stop));
        (addr, acceptor)
    }

    /// Sends `request` and reads the response line, failing after 10 s.
    fn call(addr: std::net::SocketAddr, request: &str) -> std::io::Result<String> {
        use std::io::{BufRead as _, BufReader, Write as _};
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(std::time::Duration::from_secs(10)))?;
        stream.write_all(format!("{request}\n").as_bytes())?;
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line)?;
        Ok(line)
    }

    #[test]
    fn an_idle_connection_stalls_neither_other_clients_nor_shutdown() {
        let server = Arc::new(test_server("idle"));
        let (addr, acceptor) = listen(&server);
        // Connected, half a request sent, then silent.
        let mut idle = TcpStream::connect(addr).expect("connects");
        idle.write_all(br#"{"cmd":"#).expect("writes");

        let line = call(addr, r#"{"cmd":"metrics"}"#).expect("answered while another idles");
        assert!(line.starts_with(r#"{"ok":true,"metrics":"#), "{line}");
        let line = call(addr, r#"{"cmd":"shutdown"}"#).expect("answered");
        assert!(line.contains(r#""draining":true"#), "{line}");
        acceptor.join().expect("joins").expect("listener ok");
        drop(idle);
    }

    #[test]
    fn a_connection_past_the_cap_is_refused_with_an_error() {
        let server = Arc::new(test_server("cap"));
        let (addr, acceptor) = listen(&server);
        let held: Vec<TcpStream> = (0..MAX_CONNECTIONS)
            .map(|_| TcpStream::connect(addr).expect("connects"))
            .collect();
        // Every held connection is being served once one answers.
        let mut probe = TcpStream::connect(addr).expect("connects");
        probe
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .expect("timeout");
        let mut refused = String::new();
        BufReader::new(&mut probe)
            .read_line(&mut refused)
            .expect("refused with a line");
        assert_eq!(
            refused,
            format!(
                "{{\"ok\":false,\"error\":\"too many connections (limit {MAX_CONNECTIONS})\"}}\n"
            )
        );
        drop(held);
        // Closed connections free their slots.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let line = loop {
            let line = call(addr, r#"{"cmd":"shutdown"}"#).expect("answered");
            if line.contains("draining") || std::time::Instant::now() > deadline {
                break line;
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        };
        assert!(line.contains(r#""draining":true"#), "{line}");
        acceptor.join().expect("joins").expect("listener ok");
    }

    #[test]
    fn tcp_round_trip_and_shutdown() {
        use std::io::{BufRead as _, BufReader, Write as _};
        let server = std::sync::Arc::new(test_server("tcp"));
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("addr");
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || serve_listener(&server, &listener, &stop))
        };

        let mut stream = TcpStream::connect(addr).expect("connects");
        stream
            .write_all(format!("{}\n", submit_line()).as_bytes())
            .expect("writes");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("reads");
        assert!(line.contains(r#""job":"j-1""#), "{line}");

        stream
            .write_all(b"{\"cmd\":\"shutdown\"}\n")
            .expect("writes");
        line.clear();
        reader.read_line(&mut line).expect("reads");
        assert!(line.contains(r#""draining":true"#), "{line}");
        acceptor.join().expect("joins").expect("listener ok");
        server.drain();
        assert_eq!(server.queue_depth(), 0);
    }
}

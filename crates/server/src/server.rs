//! The thread-per-connection server front end.
//!
//! One accept loop plus one thread per connection; each connection runs a
//! blocking frame loop over its own engine [`Session`], so statement
//! execution inherits the engine's chunk-parallel `ExecContext` while the
//! front end itself stays simple and synchronous. The handshake must be
//! the connection's first frame; sequence numbers must increase strictly;
//! every statement passes the per-session in-flight gate and the global
//! admission gate before touching the engine.
//!
//! Observability: every request increments `scidb.server.requests`,
//! failures increment `scidb.server.errors` (admission rejections also
//! `scidb.server.admission_rejects`), request wall time lands in the
//! `scidb.server.request_us` histogram, and each request runs under a
//! `request [server]` span whose `request_type` attribute names the
//! operation (`request_name` matches `Request` exhaustively, so every
//! variant has one).
//! Under negotiated protocol version >= 1 every post-handshake response
//! carries a [`QueryStats`] trailer (DESIGN.md §14).

use crate::admission::{Admission, AdmissionConfig, SessionGate};
use crate::auth::{AllowAll, AuthHook};
use crate::proto::{QueryStats, Request, Response, StatsFormat, PROTOCOL_VERSION};
use crate::wire::{self, Frame};
use scidb_core::error::{Error, Result};
use scidb_obs::sync::witness;
use scidb_obs::{Trace, LAYER_SERVER};
use scidb_query::{Database, Prepared, Session, StatementProfile, StmtResult};
use std::collections::HashMap;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How often blocked reads wake to check for shutdown.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Server tuning knobs.
#[derive(Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see [`Server::addr`]).
    pub addr: String,
    /// Handshake authentication hook.
    pub auth: Arc<dyn AuthHook>,
    /// Global admission limits.
    pub admission: AdmissionConfig,
    /// Per-session in-flight statement limit.
    pub session_inflight_limit: usize,
    /// Whether sessions use the engine's canonical-key result cache.
    pub result_cache: bool,
    /// Statements at or above this wall time enter the shared slow-query
    /// log (`None` keeps the engine default).
    pub slow_query_threshold: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            auth: Arc::new(AllowAll),
            admission: AdmissionConfig::default(),
            session_inflight_limit: 4,
            result_cache: true,
            slow_query_threshold: None,
        }
    }
}

struct Shared {
    db: Database,
    auth: Arc<dyn AuthHook>,
    admission: Admission,
    session_inflight_limit: usize,
    result_cache: bool,
    shutdown: AtomicBool,
}

/// A running server; dropping (or [`stop`](Server::stop)) shuts it down.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `config.addr` and starts serving `db`.
    pub fn start(db: Database, config: ServerConfig) -> Result<Server> {
        if let Some(t) = config.slow_query_threshold {
            db.set_slow_query_threshold(t);
        }
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            db,
            auth: Arc::clone(&config.auth),
            admission: Admission::new(config.admission.clone()),
            session_inflight_limit: config.session_inflight_limit,
            result_cache: config.result_cache,
            shutdown: AtomicBool::new(false),
        });
        let accept_shared = Arc::clone(&shared);
        // The serving front end owns its accept thread; statement
        // execution still flows through ExecContext.
        // analyze: allow(R3, the front end must own the accept thread)
        let accept_handle = std::thread::spawn(move || accept_loop(listener, accept_shared));
        Ok(Server {
            addr,
            shared,
            accept_handle: Some(accept_handle),
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Statements currently executing across all sessions.
    pub fn active_statements(&self) -> usize {
        self.shared.admission.active()
    }

    /// Signals shutdown and joins the accept loop. Connection threads
    /// notice the flag at their next poll tick and exit.
    pub fn stop(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let conn_shared = Arc::clone(&shared);
                // One front-end thread per connection; the engine work
                // is ExecContext-managed.
                // analyze: allow(R3, session-per-connection front end)
                std::thread::spawn(move || handle_connection(stream, conn_shared));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(_) => return,
        }
    }
}

/// Reads one frame, waking every [`POLL_INTERVAL`] to check for server
/// shutdown while no frame is in progress. `Ok(None)` means clean EOF or
/// shutdown-at-boundary.
fn read_frame_or_shutdown(stream: &mut TcpStream, shared: &Shared) -> Result<Option<Frame>> {
    let mut header = [0u8; 9];
    let mut filled = 0;
    while filled < header.len() {
        match stream.read(&mut header[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(None);
                }
                return Err(Error::protocol("connection closed mid-frame-header"));
            }
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                if filled == 0 && shared.shutdown.load(Ordering::SeqCst) {
                    return Ok(None);
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
    let msg_type = header[0];
    let seq = u32::from_be_bytes([header[1], header[2], header[3], header[4]]);
    let len = u32::from_be_bytes([header[5], header[6], header[7], header[8]]);
    if len > wire::MAX_FRAME_LEN {
        return Err(Error::protocol(format!(
            "frame length {len} exceeds the {}-byte limit",
            wire::MAX_FRAME_LEN
        )));
    }
    let mut payload = vec![0u8; len as usize];
    let mut filled = 0;
    while filled < payload.len() {
        match stream.read(&mut payload[filled..]) {
            Ok(0) => return Err(Error::protocol("connection closed mid-frame-payload")),
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(Some(Frame {
        msg_type,
        seq,
        payload,
    }))
}

fn send(stream: &mut TcpStream, seq: u32, resp: &Response) -> Result<()> {
    send_with_trailer(stream, seq, resp, None)
}

fn send_with_trailer(
    stream: &mut TcpStream,
    seq: u32,
    resp: &Response,
    trailer: Option<&QueryStats>,
) -> Result<()> {
    let mut payload = resp.encode();
    if let Some(t) = trailer {
        t.encode(&mut payload);
    }
    wire::write_frame(
        stream,
        &Frame {
            msg_type: resp.msg_type(),
            seq,
            payload,
        },
    )
}

fn error_response(e: &Error) -> Response {
    Response::Error {
        code: e.code().as_u16(),
        msg: e.wire_message(),
    }
}

fn handle_connection(mut stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let reg = scidb_obs::global();

    // Handshake: the first frame must be a Hello that passes the hook.
    // The HelloAck echoes the negotiated protocol version; under
    // version >= 1 every later response carries a QueryStats trailer.
    let hello = match read_frame_or_shutdown(&mut stream, &shared) {
        Ok(Some(f)) => f,
        _ => return,
    };
    let seq = hello.seq;
    let negotiated = match Request::decode(hello.msg_type, &hello.payload) {
        Ok(Request::Hello { token, version }) => match shared.auth.authenticate(&token) {
            Ok(()) => version.min(PROTOCOL_VERSION),
            Err(e) => {
                reg.counter("scidb.server.auth_failures").inc(1);
                let _ = send(&mut stream, seq, &error_response(&e));
                return;
            }
        },
        Ok(_) => {
            let e = Error::protocol("first frame must be Hello");
            let _ = send(&mut stream, seq, &error_response(&e));
            return;
        }
        Err(e) => {
            let _ = send(&mut stream, seq, &error_response(&e));
            return;
        }
    };
    let mut session = shared.db.session();
    session.set_result_cache(shared.result_cache);
    // The engine-assigned session id doubles as the wire session id, so
    // a client can find its own row in `system.sessions` by `sid`.
    let session_id = session.id();
    if send(
        &mut stream,
        seq,
        &Response::HelloAck {
            session_id,
            version: negotiated,
        },
    )
    .is_err()
    {
        return;
    }
    reg.counter("scidb.server.sessions").inc(1);

    let gate = SessionGate::new(shared.session_inflight_limit);
    let mut prepared: HashMap<String, Prepared> = HashMap::new();
    let mut last_seq = seq;

    loop {
        let frame = match read_frame_or_shutdown(&mut stream, &shared) {
            Ok(Some(f)) => f,
            Ok(None) => return,
            Err(e) => {
                let _ = send(&mut stream, last_seq.wrapping_add(1), &error_response(&e));
                return;
            }
        };
        if frame.seq <= last_seq {
            let e = Error::protocol(format!(
                "sequence number {} is not greater than {}",
                frame.seq, last_seq
            ));
            let _ = send(&mut stream, frame.seq, &error_response(&e));
            return;
        }
        last_seq = frame.seq;

        let req = match Request::decode(frame.msg_type, &frame.payload) {
            Ok(r) => r,
            Err(e) => {
                reg.counter("scidb.server.errors").inc(1);
                let _ = send(&mut stream, frame.seq, &error_response(&e));
                return;
            }
        };
        let closing = matches!(req, Request::Close);

        let (resp, stats) = serve_with_stats(req, &shared, &mut session, &gate, &mut prepared);
        let trailer = (negotiated >= 1).then_some(&stats);
        if send_with_trailer(&mut stream, frame.seq, &resp, trailer).is_err() || closing {
            return;
        }
    }
}

/// Serves one decoded request on a connection's session under a
/// `request [server]` span and builds the response's [`QueryStats`]
/// trailer. The statement trace the request left on the session is folded
/// into the trailer and the session is drained, so a long-lived connection
/// retains no trace per statement it ran.
fn serve_with_stats(
    req: Request,
    shared: &Shared,
    session: &mut Session,
    gate: &SessionGate,
    prepared: &mut HashMap<String, Prepared>,
) -> (Response, QueryStats) {
    let reg = scidb_obs::global();
    let stats = session.session_stats();
    reg.counter("scidb.server.requests").inc(1);
    // Baselines for the QueryStats trailer: queue-wait lands on the
    // session stats inside serve_request and the lock witness counts
    // process-wide acquisitions.
    let queue_wait_before = stats.queue_wait_us();
    let locks_before = witness::stats();
    let trace = Trace::new();
    let span = trace.root("request", LAYER_SERVER);
    span.set_attr("request_type", request_name(&req));
    span.set_attr("session", session.id());
    if let Request::Execute { statement_id, .. } | Request::ExecutePrepared { statement_id, .. } =
        &req
    {
        span.set_attr("statement_id", *statement_id);
    }
    let outcome = serve_request(req, shared, session, gate, prepared);
    let wall = span.finish();
    reg.histogram("scidb.server.request_us")
        .record(wall.as_micros() as u64);
    drop(trace.finish());

    let resp = match outcome {
        Ok(r) => r,
        Err(e) => {
            reg.counter("scidb.server.errors").inc(1);
            if matches!(e, Error::Admission(_)) {
                reg.counter("scidb.server.admission_rejects").inc(1);
                stats.add_timeout();
            }
            error_response(&e)
        }
    };
    // A statement request left its trace on the session (drained below,
    // so any trace there is this request's); other requests ran none.
    let p = session
        .last_trace()
        .map(StatementProfile::from_trace)
        .unwrap_or_default();
    let locks_after = witness::stats();
    let trailer = QueryStats {
        queue_wait_us: stats.queue_wait_us() - queue_wait_before,
        exec_us: p.exec_us,
        cells_scanned: p.cells_scanned,
        bytes_decoded: p.bytes_decoded,
        cache_hit: p.cache_hit,
        lock_acquisitions: locks_after.acquisitions - locks_before.acquisitions,
        lock_contended: locks_after.contended - locks_before.contended,
        retries: p.retries,
    };
    session.take_metrics();
    (resp, trailer)
}

fn request_name(req: &Request) -> &'static str {
    match req {
        Request::Hello { .. } => "hello",
        Request::Execute { .. } => "execute",
        Request::Prepare { .. } => "prepare",
        Request::ExecutePrepared { .. } => "execute_prepared",
        Request::PutArray { .. } => "put_array",
        Request::Fetch { .. } => "fetch",
        Request::Ping => "ping",
        Request::Close => "close",
        Request::Stats { .. } => "stats",
        Request::Health => "health",
    }
}

fn stmt_response(result: StmtResult) -> Response {
    match result {
        StmtResult::Done(msg) => Response::Done { msg },
        StmtResult::Array(a) => Response::ArrayResult { array: Box::new(a) },
        StmtResult::Bool(b) => Response::Bool { value: b },
        StmtResult::Explain(text) => Response::Explain { text },
    }
}

fn serve_request(
    req: Request,
    shared: &Shared,
    session: &mut Session,
    gate: &SessionGate,
    prepared: &mut HashMap<String, Prepared>,
) -> Result<Response> {
    match req {
        Request::Hello { .. } => Err(Error::protocol("duplicate Hello")),
        Request::Execute { text, .. } => {
            let _session_slot = gate.enter()?;
            let slot = shared.admission.admit()?;
            session
                .session_stats()
                .add_queue_wait(slot.queue_wait().as_micros() as u64);
            let mut results = session.run(&text)?;
            Ok(match results.pop() {
                Some(last) => stmt_response(last),
                None => Response::Done {
                    msg: "empty script".to_string(),
                },
            })
        }
        Request::Prepare { text } => {
            let p = session.prepare(&text)?;
            let key = p.cache_key().to_string();
            prepared.insert(key.clone(), p);
            Ok(Response::PreparedAck { key })
        }
        Request::ExecutePrepared { key, .. } => {
            let _session_slot = gate.enter()?;
            let slot = shared.admission.admit()?;
            session
                .session_stats()
                .add_queue_wait(slot.queue_wait().as_micros() as u64);
            // The canonical key is itself canonical AQL, so a key this
            // connection never prepared still parses identically.
            if !prepared.contains_key(&key) {
                let p = session.prepare(&key)?;
                prepared.insert(key.clone(), p);
            }
            let p = prepared
                .get(&key)
                .ok_or_else(|| Error::not_found(format!("prepared statement '{key}'")))?
                .clone();
            Ok(stmt_response(session.execute_prepared(&p)?))
        }
        Request::PutArray { name, array } => {
            // `put_array` takes `&mut self`; the shared handle holds no
            // catalog guard, so a clone of it may take the write lock.
            shared.db.clone().put_array(&name, *array)?;
            Ok(Response::Done {
                msg: format!("stored array {name}"),
            })
        }
        Request::Fetch { name } => Ok(Response::ArrayResult {
            array: Box::new(shared.db.snapshot(&name)?),
        }),
        Request::Ping => Ok(Response::Pong),
        Request::Close => Ok(Response::Done {
            msg: "closing".to_string(),
        }),
        Request::Stats { format } => Ok(Response::Stats {
            text: match format {
                StatsFormat::Json => scidb_obs::global().to_json(),
                StatsFormat::Prometheus => scidb_obs::global().to_prometheus(),
            },
        }),
        Request::Health => Ok(Response::Health {
            active: shared.admission.active() as u64,
            queued: shared.admission.queued() as u64,
            max_active: shared.admission.config().max_active as u64,
            max_queued: shared.admission.config().max_queued as u64,
            timed_out: shared.admission.timed_out(),
            sessions: shared.db.session_count() as u64,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A connection that stays open must not keep one trace per statement
    /// it ever ran: each request's trace goes into its trailer and is gone.
    #[test]
    fn a_served_session_retains_no_trace_per_statement() {
        let mut db = Database::with_threads(1);
        db.run("define H (v = int) (X = 1:4); create A as H [4];")
            .unwrap();
        let shared = Shared {
            db: db.clone(),
            auth: Arc::new(AllowAll),
            admission: Admission::new(AdmissionConfig::default()),
            session_inflight_limit: 4,
            result_cache: false,
            shutdown: AtomicBool::new(false),
        };
        let mut session = shared.db.session();
        let gate = SessionGate::new(shared.session_inflight_limit);
        let mut prepared = HashMap::new();
        for i in 1..=32u64 {
            let text = match i % 4 {
                0 => "scan(A)".to_string(),
                // One failing statement per four: errors leave a trace too.
                1 => "scan(Missing)".to_string(),
                _ => format!("insert into A[{}] values ({i})", i % 4 + 1),
            };
            let req = Request::Execute {
                text,
                statement_id: i,
            };
            let (resp, trailer) =
                serve_with_stats(req, &shared, &mut session, &gate, &mut prepared);
            assert_eq!(
                matches!(resp, Response::Error { .. }),
                i % 4 == 1,
                "{resp:?}"
            );
            if i % 4 == 0 {
                assert!(
                    trailer.cells_scanned > 0,
                    "the scan's trace reached the trailer"
                );
            }
            assert!(
                session.traces().len() <= 1,
                "{} traces retained after {i} statements",
                session.traces().len()
            );
        }
        // A request that runs no statement reports no statement work.
        let (_, trailer) =
            serve_with_stats(Request::Ping, &shared, &mut session, &gate, &mut prepared);
        assert_eq!((trailer.exec_us, trailer.cells_scanned), (0, 0));
    }
}

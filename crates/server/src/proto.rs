//! Request/response messages.
//!
//! Message type bytes: requests are `0x01..=0x0a`, responses `0x81..=0x8a`.
//! Error frames carry the stable numeric [`ErrorCode`](scidb_core::ErrorCode)
//! (`as_u16`) plus the bare detail message, so
//! [`Error::from_wire`](scidb_core::Error::from_wire) reconstructs the typed
//! error on the client.
//!
//! **Versioning.** `Hello` carries the client's highest supported
//! [`PROTOCOL_VERSION`] and `HelloAck` echoes the negotiated minimum, both
//! as optional trailing fields: decoders read them when present and default
//! to 0 (the PR 6 wire format) when absent, so either end may be older.
//! Under version >= 1 the server appends a [`QueryStats`] trailer to every
//! post-handshake response; the trailer is itself versioned and
//! length-prefixed so unknown future fields skip cleanly (DESIGN.md §14).
//!
//! Arrays cross the wire as the shared array image
//! ([`scidb_core::codec`]): the full schema and every present cell,
//! bit-exactly — the property the conformance harness's remote backend
//! asserts.

use crate::wire::{self, Reader};
use scidb_core::array::Array;
use scidb_core::codec;
use scidb_core::error::{Error, Result};

/// Highest wire-protocol version this build speaks. Version 0 is the
/// PR 6 format (no trailers); version 1 adds the [`QueryStats`] response
/// trailer, statement ids, and the `Stats`/`Health` admin surface.
pub const PROTOCOL_VERSION: u16 = 1;

/// Export format selector for [`Request::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsFormat {
    /// The registry snapshot as a JSON object.
    Json,
    /// Prometheus exposition text.
    Prometheus,
}

/// A client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Handshake; must be the first frame on a connection.
    Hello {
        /// Credential handed to the server's [`AuthHook`](crate::auth::AuthHook).
        token: String,
        /// Highest protocol version the client speaks (trailing field;
        /// absent on old clients, decoded as 0).
        version: u16,
    },
    /// Execute an AQL script; the response reports the last statement's
    /// result.
    Execute {
        /// AQL text (one or more `;`-separated statements).
        text: String,
        /// Client-assigned statement id for trace correlation (trailing
        /// field; absent on old clients, decoded as 0).
        statement_id: u64,
    },
    /// Parse a statement server-side and return its canonical cache key.
    Prepare {
        /// AQL text of exactly one statement.
        text: String,
    },
    /// Execute a previously prepared statement by canonical key. The key
    /// is itself canonical AQL, so this re-executes byte-identically.
    ExecutePrepared {
        /// Canonical key returned by [`Response::PreparedAck`].
        key: String,
        /// Client-assigned statement id for trace correlation (trailing
        /// field; absent on old clients, decoded as 0).
        statement_id: u64,
    },
    /// Bulk-load an array into the catalog under `name`.
    PutArray {
        /// Catalog name to register under.
        name: String,
        /// The array payload.
        array: Box<Array>,
    },
    /// Snapshot a stored array's in-memory view.
    Fetch {
        /// Catalog name to fetch.
        name: String,
    },
    /// Liveness probe.
    Ping,
    /// Orderly shutdown of this connection.
    Close,
    /// Export the global metrics-registry snapshot (admin surface).
    Stats {
        /// Requested exposition format.
        format: StatsFormat,
    },
    /// Admission-gate and session health probe (admin surface).
    Health,
}

/// A server→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake accepted.
    HelloAck {
        /// Server-assigned session id (diagnostics; appears in server spans
        /// and as the `sid` of the session's `system.sessions` row).
        session_id: u64,
        /// Negotiated protocol version — `min(client, server)` (trailing
        /// field; absent on old servers, decoded as 0).
        version: u16,
    },
    /// DDL/DML acknowledgement.
    Done {
        /// Human-readable acknowledgement.
        msg: String,
    },
    /// A query result array.
    ArrayResult {
        /// The result payload.
        array: Box<Array>,
    },
    /// A scalar probe result.
    Bool {
        /// The probe answer.
        value: bool,
    },
    /// An `explain analyze` report.
    Explain {
        /// The rendered span tree.
        text: String,
    },
    /// Prepared-statement acknowledgement.
    PreparedAck {
        /// The canonical parse-tree cache key.
        key: String,
    },
    /// A typed error.
    Error {
        /// Stable numeric error code ([`scidb_core::ErrorCode::as_u16`]).
        code: u16,
        /// Bare detail message ([`scidb_core::Error::wire_message`]).
        msg: String,
    },
    /// Liveness reply.
    Pong,
    /// The exported registry snapshot.
    Stats {
        /// Rendered in the requested [`StatsFormat`].
        text: String,
    },
    /// Admission-gate and session health.
    Health {
        /// Statements currently executing.
        active: u64,
        /// Statements waiting for an execution slot.
        queued: u64,
        /// Configured concurrent-execution limit.
        max_active: u64,
        /// Configured queue-depth limit.
        max_queued: u64,
        /// Admission waits rejected (queue full or deadline passed).
        timed_out: u64,
        /// Execution sessions currently registered on the database.
        sessions: u64,
    },
}

/// Per-query resource accounting appended to every post-handshake
/// response under protocol version >= 1. The trailer is versioned and
/// length-prefixed: decoders read the fields they know and skip the rest,
/// so the layout can grow without a protocol bump.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Admission queue wait, µs (0 for non-statement requests).
    pub queue_wait_us: u64,
    /// Statement execution wall time, µs.
    pub exec_us: u64,
    /// Cells produced by `scan` nodes over stored arrays.
    pub cells_scanned: u64,
    /// Bytes read by storage `read_region` spans.
    pub bytes_decoded: u64,
    /// Whether the statement was answered from the result cache.
    pub cache_hit: bool,
    /// Ordered-lock acquisitions observed process-wide during the request.
    pub lock_acquisitions: u64,
    /// Acquisitions that found their lock contended.
    pub lock_contended: u64,
    /// Retry events observed in the statement trace.
    pub retries: u64,
}

/// Version tag of the [`QueryStats`] trailer layout.
pub const QUERY_STATS_VERSION: u16 = 1;

impl QueryStats {
    /// Appends the versioned, length-prefixed trailer to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        wire::put_u16(buf, QUERY_STATS_VERSION);
        let mut body = Vec::new();
        wire::put_u64(&mut body, self.queue_wait_us);
        wire::put_u64(&mut body, self.exec_us);
        wire::put_u64(&mut body, self.cells_scanned);
        wire::put_u64(&mut body, self.bytes_decoded);
        wire::put_u8(&mut body, u8::from(self.cache_hit));
        wire::put_u64(&mut body, self.lock_acquisitions);
        wire::put_u64(&mut body, self.lock_contended);
        wire::put_u64(&mut body, self.retries);
        wire::put_u32(buf, body.len() as u32);
        buf.extend_from_slice(&body);
    }

    /// Reads a trailer if one follows in `r`; `None` when the payload ends
    /// at the response body (a version-0 peer). Fields appended by newer
    /// layouts are skipped via the length prefix.
    pub fn decode(r: &mut Reader<'_>) -> Result<Option<QueryStats>> {
        if r.is_empty() {
            return Ok(None);
        }
        let _version = r.u16()?;
        let len = r.u32()? as usize;
        let body = r.take(len)?;
        let mut br = Reader::new(body);
        Ok(Some(QueryStats {
            queue_wait_us: br.u64()?,
            exec_us: br.u64()?,
            cells_scanned: br.u64()?,
            bytes_decoded: br.u64()?,
            cache_hit: br.u8()? != 0,
            lock_acquisitions: br.u64()?,
            lock_contended: br.u64()?,
            retries: br.u64()?,
        }))
    }
}

impl Request {
    /// The frame type byte.
    pub fn msg_type(&self) -> u8 {
        match self {
            Request::Hello { .. } => 0x01,
            Request::Execute { .. } => 0x02,
            Request::Prepare { .. } => 0x03,
            Request::ExecutePrepared { .. } => 0x04,
            Request::PutArray { .. } => 0x05,
            Request::Fetch { .. } => 0x06,
            Request::Ping => 0x07,
            Request::Close => 0x08,
            Request::Stats { .. } => 0x09,
            Request::Health => 0x0a,
        }
    }

    /// Encodes the payload (everything after the frame header).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Request::Hello { token, version } => {
                wire::put_str(&mut buf, token);
                wire::put_u16(&mut buf, *version);
            }
            Request::Execute { text, statement_id } => {
                wire::put_str(&mut buf, text);
                wire::put_u64(&mut buf, *statement_id);
            }
            Request::Prepare { text } => wire::put_str(&mut buf, text),
            Request::ExecutePrepared { key, statement_id } => {
                wire::put_str(&mut buf, key);
                wire::put_u64(&mut buf, *statement_id);
            }
            Request::PutArray { name, array } => {
                wire::put_str(&mut buf, name);
                encode_array(&mut buf, array);
            }
            Request::Fetch { name } => wire::put_str(&mut buf, name),
            Request::Ping | Request::Close | Request::Health => {}
            Request::Stats { format } => wire::put_u8(
                &mut buf,
                match format {
                    StatsFormat::Json => 0,
                    StatsFormat::Prometheus => 1,
                },
            ),
        }
        buf
    }

    /// Decodes a request frame. Trailing fields added in protocol
    /// version 1 (`Hello.version`, statement ids) decode as 0 when an
    /// older peer omitted them.
    pub fn decode(msg_type: u8, payload: &[u8]) -> Result<Request> {
        let mut r = Reader::new(payload);
        let req = match msg_type {
            0x01 => {
                let token = r.str()?;
                let version = if r.is_empty() { 0 } else { r.u16()? };
                Request::Hello { token, version }
            }
            0x02 => {
                let text = r.str()?;
                let statement_id = if r.is_empty() { 0 } else { r.u64()? };
                Request::Execute { text, statement_id }
            }
            0x03 => Request::Prepare { text: r.str()? },
            0x04 => {
                let key = r.str()?;
                let statement_id = if r.is_empty() { 0 } else { r.u64()? };
                Request::ExecutePrepared { key, statement_id }
            }
            0x05 => Request::PutArray {
                name: r.str()?,
                array: Box::new(decode_array(&mut r)?),
            },
            0x06 => Request::Fetch { name: r.str()? },
            0x07 => Request::Ping,
            0x08 => Request::Close,
            0x09 => Request::Stats {
                format: match r.u8()? {
                    0 => StatsFormat::Json,
                    1 => StatsFormat::Prometheus,
                    other => {
                        return Err(Error::protocol(format!(
                            "unknown stats format byte {other}"
                        )))
                    }
                },
            },
            0x0a => Request::Health,
            other => {
                return Err(Error::protocol(format!(
                    "unknown request type byte 0x{other:02x}"
                )))
            }
        };
        Ok(req)
    }
}

impl Response {
    /// The frame type byte.
    pub fn msg_type(&self) -> u8 {
        match self {
            Response::HelloAck { .. } => 0x81,
            Response::Done { .. } => 0x82,
            Response::ArrayResult { .. } => 0x83,
            Response::Bool { .. } => 0x84,
            Response::Explain { .. } => 0x85,
            Response::PreparedAck { .. } => 0x86,
            Response::Error { .. } => 0x87,
            Response::Pong => 0x88,
            Response::Stats { .. } => 0x89,
            Response::Health { .. } => 0x8a,
        }
    }

    /// Encodes the payload (everything after the frame header).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Response::HelloAck {
                session_id,
                version,
            } => {
                wire::put_u64(&mut buf, *session_id);
                wire::put_u16(&mut buf, *version);
            }
            Response::Done { msg } => wire::put_str(&mut buf, msg),
            Response::ArrayResult { array } => encode_array(&mut buf, array),
            Response::Bool { value } => wire::put_u8(&mut buf, u8::from(*value)),
            Response::Explain { text } => wire::put_str(&mut buf, text),
            Response::PreparedAck { key } => wire::put_str(&mut buf, key),
            Response::Error { code, msg } => {
                wire::put_u16(&mut buf, *code);
                wire::put_str(&mut buf, msg);
            }
            Response::Pong => {}
            Response::Stats { text } => wire::put_str(&mut buf, text),
            Response::Health {
                active,
                queued,
                max_active,
                max_queued,
                timed_out,
                sessions,
            } => {
                wire::put_u64(&mut buf, *active);
                wire::put_u64(&mut buf, *queued);
                wire::put_u64(&mut buf, *max_active);
                wire::put_u64(&mut buf, *max_queued);
                wire::put_u64(&mut buf, *timed_out);
                wire::put_u64(&mut buf, *sessions);
            }
        }
        buf
    }

    /// Decodes a response frame that carries no trailer; bytes after the
    /// body are an error.
    pub fn decode(msg_type: u8, payload: &[u8]) -> Result<Response> {
        codec::decode_all(payload, |r| Response::decode_from(msg_type, r))
    }

    /// Decodes a response body from an open reader, leaving any trailing
    /// bytes (the [`QueryStats`] trailer) unconsumed for the caller.
    pub fn decode_from(msg_type: u8, r: &mut Reader<'_>) -> Result<Response> {
        let resp = match msg_type {
            0x81 => {
                let session_id = r.u64()?;
                let version = if r.is_empty() { 0 } else { r.u16()? };
                Response::HelloAck {
                    session_id,
                    version,
                }
            }
            0x82 => Response::Done { msg: r.str()? },
            0x83 => Response::ArrayResult {
                array: Box::new(decode_array(r)?),
            },
            0x84 => Response::Bool {
                value: r.u8()? != 0,
            },
            0x85 => Response::Explain { text: r.str()? },
            0x86 => Response::PreparedAck { key: r.str()? },
            0x87 => Response::Error {
                code: r.u16()?,
                msg: r.str()?,
            },
            0x88 => Response::Pong,
            0x89 => Response::Stats { text: r.str()? },
            0x8a => Response::Health {
                active: r.u64()?,
                queued: r.u64()?,
                max_active: r.u64()?,
                max_queued: r.u64()?,
                timed_out: r.u64()?,
                sessions: r.u64()?,
            },
            other => {
                return Err(Error::protocol(format!(
                    "unknown response type byte 0x{other:02x}"
                )))
            }
        };
        Ok(resp)
    }

    /// Converts an error response into the typed engine error; passes
    /// other responses through.
    pub fn into_result(self) -> Result<Response> {
        match self {
            Response::Error { code, msg } => Err(Error::from_wire(code, &msg)),
            other => Ok(other),
        }
    }
}

/// Appends an array image (schema + every present cell) to `buf`.
pub fn encode_array(buf: &mut Vec<u8>, array: &Array) {
    codec::encode_array(buf, array);
}

/// Decodes an array image previously written by [`encode_array`].
pub fn decode_array(r: &mut Reader<'_>) -> Result<Array> {
    codec::decode_array(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scidb_core::schema::SchemaBuilder;
    use scidb_core::uncertain::Uncertain;
    use scidb_core::value::{ScalarType, Value};
    use std::sync::Arc;

    fn sample_array() -> Array {
        let nested_schema = Arc::new(
            SchemaBuilder::new("inner")
                .attr("v", ScalarType::Int64)
                .dim("rank", 4)
                .build()
                .unwrap(),
        );
        let schema = SchemaBuilder::new("sample")
            .attr("i", ScalarType::Int64)
            .attr("f", ScalarType::Float64)
            .attr("s", ScalarType::String)
            .attr("u", ScalarType::UncertainFloat64)
            .nested_attr("n", Arc::clone(&nested_schema))
            .dim("X", 4)
            .dim_unbounded("Y")
            .build()
            .unwrap();
        let mut a = Array::new(schema);
        let mut inner = Array::from_arc(nested_schema);
        inner.set_cell(&[1], vec![Value::from(10i64)]).unwrap();
        inner.set_cell(&[3], vec![Value::Null]).unwrap();
        a.set_cell(
            &[1, 1],
            vec![
                Value::from(7i64),
                Value::from(-0.0f64),
                Value::from("x".to_string()),
                Value::from(Uncertain::new(1.5, 0.25)),
                Value::Array(Box::new(inner)),
            ],
        )
        .unwrap();
        a.set_cell(
            &[4, 9],
            vec![
                Value::Null,
                Value::from(f64::MIN_POSITIVE),
                Value::Null,
                Value::Null,
                Value::Null,
            ],
        )
        .unwrap();
        a
    }

    #[test]
    fn array_codec_round_trips_bit_exactly() {
        let a = sample_array();
        let mut buf = Vec::new();
        encode_array(&mut buf, &a);
        let mut r = Reader::new(&buf);
        let b = decode_array(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(a, b);
        // Encoding the decoded array reproduces the exact bytes.
        let mut buf2 = Vec::new();
        encode_array(&mut buf2, &b);
        assert_eq!(buf, buf2);
    }

    #[test]
    fn every_request_round_trips() {
        let reqs = vec![
            Request::Hello {
                token: "secret".into(),
                version: PROTOCOL_VERSION,
            },
            Request::Execute {
                text: "scan(A)".into(),
                statement_id: 41,
            },
            Request::Prepare {
                text: "filter(A, v > 1)".into(),
            },
            Request::ExecutePrepared {
                key: "filter(scan(A), (v > 1))".into(),
                statement_id: 42,
            },
            Request::PutArray {
                name: "A".into(),
                array: Box::new(sample_array()),
            },
            Request::Fetch { name: "A".into() },
            Request::Ping,
            Request::Close,
            Request::Stats {
                format: StatsFormat::Json,
            },
            Request::Stats {
                format: StatsFormat::Prometheus,
            },
            Request::Health,
        ];
        for req in reqs {
            let payload = req.encode();
            let got = Request::decode(req.msg_type(), &payload).unwrap();
            assert_eq!(got, req);
        }
        assert!(Request::decode(0x7f, &[]).is_err());
        assert!(Request::decode(0x09, &[9]).is_err(), "unknown stats format");
    }

    #[test]
    fn every_response_round_trips() {
        let resps = vec![
            Response::HelloAck {
                session_id: 12,
                version: PROTOCOL_VERSION,
            },
            Response::Done { msg: "ok".into() },
            Response::ArrayResult {
                array: Box::new(sample_array()),
            },
            Response::Bool { value: true },
            Response::Explain {
                text: "statement [query]".into(),
            },
            Response::PreparedAck {
                key: "scan(A)".into(),
            },
            Response::Error {
                code: 3,
                msg: "array 'nope'".into(),
            },
            Response::Pong,
            Response::Stats {
                text: "{\"counters\":{}}".into(),
            },
            Response::Health {
                active: 1,
                queued: 2,
                max_active: 64,
                max_queued: 1024,
                timed_out: 3,
                sessions: 4,
            },
        ];
        for resp in resps {
            let payload = resp.encode();
            let got = Response::decode(resp.msg_type(), &payload).unwrap();
            assert_eq!(got, resp);
        }
        assert!(Response::decode(0x10, &[]).is_err());
    }

    #[test]
    fn version_zero_frames_decode_with_defaulted_trailing_fields() {
        // A PR 6 peer sends Hello/Execute/HelloAck without the trailing
        // version/statement-id fields; they must decode as 0.
        let mut hello = Vec::new();
        wire::put_str(&mut hello, "secret");
        assert_eq!(
            Request::decode(0x01, &hello).unwrap(),
            Request::Hello {
                token: "secret".into(),
                version: 0,
            }
        );
        let mut exec = Vec::new();
        wire::put_str(&mut exec, "scan(A)");
        assert_eq!(
            Request::decode(0x02, &exec).unwrap(),
            Request::Execute {
                text: "scan(A)".into(),
                statement_id: 0,
            }
        );
        let mut ack = Vec::new();
        wire::put_u64(&mut ack, 7);
        assert_eq!(
            Response::decode(0x81, &ack).unwrap(),
            Response::HelloAck {
                session_id: 7,
                version: 0,
            }
        );
    }

    #[test]
    fn query_stats_trailer_round_trips_and_skips_future_fields() {
        let stats = QueryStats {
            queue_wait_us: 1,
            exec_us: 2,
            cells_scanned: 3,
            bytes_decoded: 4,
            cache_hit: true,
            lock_acquisitions: 5,
            lock_contended: 6,
            retries: 7,
        };
        // Trailer after a response body, the wire layout.
        let resp = Response::Done { msg: "ok".into() };
        let mut payload = resp.encode();
        stats.encode(&mut payload);
        let mut r = Reader::new(&payload);
        let body = Response::decode_from(resp.msg_type(), &mut r).unwrap();
        assert_eq!(body, resp);
        assert_eq!(QueryStats::decode(&mut r).unwrap(), Some(stats));
        assert!(r.is_empty());
        // A version-0 response carries no trailer.
        let bare = resp.encode();
        let mut r = Reader::new(&bare);
        Response::decode_from(resp.msg_type(), &mut r).unwrap();
        assert_eq!(QueryStats::decode(&mut r).unwrap(), None);
        // A future layout with extra trailing fields still decodes: the
        // length prefix bounds the body, unknown bytes are skipped.
        let mut grown = Vec::new();
        stats.encode(&mut grown);
        let len_at = 2; // after the u16 version
        let old_len = u32::from_be_bytes(grown[len_at..len_at + 4].try_into().unwrap());
        grown.extend_from_slice(&[0xde, 0xad]);
        grown[len_at..len_at + 4].copy_from_slice(&(old_len + 2).to_be_bytes());
        let mut r = Reader::new(&grown);
        assert_eq!(QueryStats::decode(&mut r).unwrap(), Some(stats));
        assert!(r.is_empty());
    }

    #[test]
    fn error_responses_reconstruct_typed_errors() {
        let e = Error::not_found("array 'nope'");
        let resp = Response::Error {
            code: e.code().as_u16(),
            msg: e.wire_message(),
        };
        let round = Response::decode(resp.msg_type(), &resp.encode()).unwrap();
        assert_eq!(round.into_result().unwrap_err(), e);
        // Non-error responses pass through.
        assert!(Response::Pong.into_result().is_ok());
    }
}

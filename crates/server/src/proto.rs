//! The wire protocol: length-prefixed frames carrying codec-encoded
//! messages.
//!
//! Every message travels as one *frame*: a little-endian `u32` byte length
//! followed by that many payload bytes. The payload itself is encoded with
//! the snapshot codec ([`fsam_query::codec`]) — bounds-checked primitives,
//! so a truncated, oversized or garbage frame surfaces as a typed
//! [`ProtoError`], never a panic, a hang, or an absurd allocation:
//!
//! * the length prefix is validated against [`MAX_FRAME`] *before* the
//!   payload buffer is allocated;
//! * every field read inside the payload is bounds-checked by
//!   [`Reader`], and decoding must consume the
//!   payload exactly ([`CodecError::Trailing`] otherwise);
//! * a connection closing cleanly *between* frames is not an error
//!   ([`read_frame`] returns `None`); closing mid-frame is.
//!
//! # Request/response vocabulary
//!
//! | op | request | response |
//! |----|---------|----------|
//! | 0  | [`Request::Ping`] | [`Response::Pong`] |
//! | 1  | [`Request::Batch`] — a [`Query`] slab | [`Response::Answers`] in slab order |
//! | 2  | [`Request::Stats`] | [`Response::Stats`] — named `u64` counters |
//! | 3  | [`Request::Reload`] — snapshot bytes in-band | [`Response::Reloaded`] |
//! | 4  | [`Request::Shutdown`] | [`Response::ShuttingDown`] |
//! | 5  | [`Request::Diags`] | [`Response::Diags`] — lint diagnostics |
//! | 6  | [`Request::Resolve`] — name → id | [`Response::Resolved`] |
//! | 7  | [`Request::PtNames`] — names of `pt(v)` | [`Response::Names`] |
//! | 8  | [`Request::TracedBatch`] — a [`Query`] slab + trace context | [`Response::Answers`] |
//! | 9  | [`Request::DumpTrace`] | [`Response::TraceDump`] — `req.*` JSONL |
//! | 10 | [`Request::MetricsText`] | [`Response::Text`] — Prometheus exposition |
//!
//! Any request can instead be answered with [`Response::Error`] (tag 255):
//! the server stays up, the connection stays usable, and the client
//! surfaces the message as [`ProtoError::Remote`].
//!
//! # Versioning ([`PROTO_VERSION`])
//!
//! The protocol evolves by **adding tags only** — see DESIGN §1.8 for the
//! full rules. In short: an existing tag's payload layout is frozen
//! forever; new capabilities get new request/response tags; a peer that
//! receives a tag it does not know answers in-band
//! ([`Response::Error`] / [`ProtoError::UnknownTag`]) on an intact frame
//! boundary, so mixed-version pairs degrade gracefully instead of
//! desyncing. Version 1 clients therefore keep working against a version
//! 2 server unchanged (they simply never send tags 8–10), and a version 2
//! client talking to a version 1 server sees a typed in-band error for
//! the new ops while every version 1 op keeps answering.

use std::io::{Read, Write};

use fsam_ir::{StmtId, VarId};
use fsam_pts::MemId;
use fsam_query::codec::{Reader, Writer};
use fsam_query::{Answer, CodecError, Query};

/// Largest accepted frame payload: 64 MiB, enough for a big-four snapshot
/// travelling in-band through [`Request::Reload`] with headroom, small
/// enough that a garbage length prefix cannot provoke a gigabyte
/// allocation.
pub const MAX_FRAME: u32 = 1 << 26;

/// Protocol vocabulary version. Bumped when tags are **added** (the only
/// permitted evolution — existing tag layouts are frozen; see the module
/// docs). Version 2 added the observability plane: trace-context batches
/// (tag 8), trace dumps (tag 9) and the text metrics exposition (tag 10).
pub const PROTO_VERSION: u32 = 2;

/// Why a frame or message could not be read, written or decoded.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying stream failed (includes mid-frame disconnects).
    Io(std::io::Error),
    /// The payload violated the codec (truncated, trailing, bad UTF-8…).
    Codec(CodecError),
    /// A frame length prefix exceeds [`MAX_FRAME`].
    Oversized {
        /// Declared payload length.
        len: u64,
        /// The accepted maximum.
        max: u64,
    },
    /// A discriminator byte is outside the protocol vocabulary.
    UnknownTag {
        /// Which discriminator (request, response, query, answer…).
        what: &'static str,
        /// The byte found.
        tag: u8,
    },
    /// The peer answered a well-formed frame we did not expect.
    Unexpected {
        /// What the caller was waiting for.
        expected: &'static str,
    },
    /// The server answered with an in-band error message.
    Remote(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "stream I/O failed: {e}"),
            ProtoError::Codec(e) => write!(f, "malformed payload: {e}"),
            ProtoError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            ProtoError::UnknownTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            ProtoError::Unexpected { expected } => {
                write!(
                    f,
                    "peer answered with the wrong message (expected {expected})"
                )
            }
            ProtoError::Remote(msg) => write!(f, "server error: {msg}"),
        }
    }
}

impl std::error::Error for ProtoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtoError::Io(e) => Some(e),
            ProtoError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

impl From<CodecError> for ProtoError {
    fn from(e: CodecError) -> Self {
        ProtoError::Codec(e)
    }
}

/// Writes one frame: length prefix + payload, flushed.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), ProtoError> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME)
        .ok_or(ProtoError::Oversized {
            len: payload.len() as u64,
            max: u64::from(MAX_FRAME),
        })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame's payload. `Ok(None)` means the peer closed the stream
/// cleanly at a frame boundary; closing mid-frame is an
/// [`ProtoError::Io`] with `UnexpectedEof`. The length prefix is checked
/// against [`MAX_FRAME`] before any payload allocation.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, ProtoError> {
    let mut len_buf = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len_buf[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(ProtoError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "stream closed inside a frame length prefix",
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ProtoError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(ProtoError::Oversized {
            len: u64::from(len),
            max: u64::from(MAX_FRAME),
        });
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    Ok(Some(buf))
}

/// A lint diagnostic as served over the wire: the stable code, the SARIF
/// severity level, the anchor statement and the rendered message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireDiag {
    /// Stable checker code (`FL0001`…`FL0005`).
    pub code: String,
    /// SARIF level string (`error` / `warning` / `note`).
    pub severity: String,
    /// The statement the diagnostic is anchored to.
    pub stmt: StmtId,
    /// Fully rendered primary message.
    pub message: String,
}

/// One client → server message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Health check; answered with [`Response::Pong`].
    Ping,
    /// A slab of demand-driven queries, answered in request order.
    Batch(Vec<Query>),
    /// The server's `server.*` counters.
    Stats,
    /// Push a new snapshot (the `AnalysisDb` file bytes, verbatim) and
    /// atomically swap it in. In-flight batches finish on the old one.
    Reload {
        /// Serialized snapshot ([`fsam_query::AnalysisDb::to_bytes`]).
        snapshot: Vec<u8>,
    },
    /// Stop accepting connections and exit the accept loop in-band.
    Shutdown,
    /// Lint diagnostics anchored to the served snapshot; `code` filters to
    /// one checker, the empty string returns all.
    Diags {
        /// Stable checker code, or empty for every diagnostic.
        code: String,
    },
    /// Resolve a `(function, variable)` name pair to its [`VarId`].
    Resolve {
        /// Function name.
        func: String,
        /// Variable name.
        var: String,
    },
    /// Display names of the objects a named variable may point to.
    PtNames {
        /// Function name.
        func: String,
        /// Variable name.
        var: String,
    },
    /// A query slab carrying the client's trace context (v2). Answered
    /// exactly like [`Request::Batch`]; when request sampling is on, the
    /// server's `req.*` trace events carry `ctx` so client and server
    /// timelines correlate.
    TracedBatch {
        /// Opaque client-chosen trace context, echoed into sampled
        /// `req.*` events.
        ctx: u64,
        /// The query slab, answered in order.
        queries: Vec<Query>,
    },
    /// Dump the server's recorded `req.*` trace ring as schema-valid
    /// JSONL (v2).
    DumpTrace,
    /// The Prometheus-style text exposition of the serving metrics (v2).
    MetricsText,
}

/// One server → client message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Ping acknowledged.
    Pong,
    /// Batch answers, one per query, in request order.
    Answers(Vec<Answer>),
    /// Named counters (see `fsam_server::metrics` for the vocabulary).
    Stats(Vec<(String, u64)>),
    /// A reload was validated and swapped in.
    Reloaded {
        /// Variables the new snapshot knows.
        vars: u32,
        /// Abstract objects the new snapshot knows.
        objects: u32,
    },
    /// Shutdown acknowledged; the connection closes after this frame.
    ShuttingDown,
    /// Lint diagnostics, in the report's deterministic order.
    Diags(Vec<WireDiag>),
    /// Name resolution result (`None` for an unknown name).
    Resolved(Option<VarId>),
    /// `pt_names` result (`None` for an unknown name).
    Names(Option<Vec<String>>),
    /// A text document (the `MetricsText` exposition) (v2).
    Text(String),
    /// The recorded per-request trace (v2).
    TraceDump {
        /// Schema-valid JSONL, one `req.*` event per line.
        jsonl: String,
        /// Events currently held in the ring.
        recorded: u64,
        /// Events discarded because the ring was full.
        dropped: u64,
    },
    /// The request failed server-side; connection stays usable.
    Error(String),
}

fn put_query(w: &mut Writer, q: &Query) {
    match *q {
        Query::PointsTo(v) => {
            w.put_u8(0);
            w.put_u32(v.raw());
        }
        Query::MayAlias(p, q) => {
            w.put_u8(1);
            w.put_u32(p.raw());
            w.put_u32(q.raw());
        }
        Query::AliasesOf(o) => {
            w.put_u8(2);
            w.put_u32(o.raw());
        }
        Query::Mhp(a, b) => {
            w.put_u8(3);
            w.put_u32(a.raw());
            w.put_u32(b.raw());
        }
    }
}

fn read_query(r: &mut Reader<'_>) -> Result<Query, ProtoError> {
    Ok(match r.u8()? {
        0 => Query::PointsTo(VarId::new(r.u32()?)),
        1 => Query::MayAlias(VarId::new(r.u32()?), VarId::new(r.u32()?)),
        2 => Query::AliasesOf(MemId::new(r.u32()?)),
        3 => Query::Mhp(StmtId::new(r.u32()?), StmtId::new(r.u32()?)),
        tag => return Err(ProtoError::UnknownTag { what: "query", tag }),
    })
}

fn put_answer(w: &mut Writer, a: &Answer) {
    match a {
        Answer::Objects(objs) => {
            w.put_u8(0);
            w.put_u32s(objs.iter().map(|m| m.raw()));
        }
        Answer::Bool(b) => {
            w.put_u8(1);
            w.put_u8(u8::from(*b));
        }
        Answer::Vars(vars) => {
            w.put_u8(2);
            w.put_u32s(vars.iter().map(|v| v.raw()));
        }
    }
}

fn read_answer(r: &mut Reader<'_>) -> Result<Answer, ProtoError> {
    Ok(match r.u8()? {
        0 => Answer::Objects(r.u32s()?.into_iter().map(MemId::new).collect()),
        1 => Answer::Bool(r.u8()? != 0),
        2 => Answer::Vars(r.u32s()?.into_iter().map(VarId::new).collect()),
        tag => {
            return Err(ProtoError::UnknownTag {
                what: "answer",
                tag,
            })
        }
    })
}

impl Request {
    /// Encodes to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Request::Ping => w.put_u8(0),
            Request::Batch(queries) => {
                w.put_u8(1);
                w.put_u32(u32::try_from(queries.len()).expect("batch too large"));
                for q in queries {
                    put_query(&mut w, q);
                }
            }
            Request::Stats => w.put_u8(2),
            Request::Reload { snapshot } => {
                w.put_u8(3);
                w.put_bytes(snapshot);
            }
            Request::Shutdown => w.put_u8(4),
            Request::Diags { code } => {
                w.put_u8(5);
                w.put_str(code);
            }
            Request::Resolve { func, var } => {
                w.put_u8(6);
                w.put_str(func);
                w.put_str(var);
            }
            Request::PtNames { func, var } => {
                w.put_u8(7);
                w.put_str(func);
                w.put_str(var);
            }
            Request::TracedBatch { ctx, queries } => {
                w.put_u8(8);
                w.put_u64(*ctx);
                w.put_u32(u32::try_from(queries.len()).expect("batch too large"));
                for q in queries {
                    put_query(&mut w, q);
                }
            }
            Request::DumpTrace => w.put_u8(9),
            Request::MetricsText => w.put_u8(10),
        }
        w.finish()
    }

    /// Decodes a frame payload; the payload must be consumed exactly.
    pub fn decode(payload: &[u8]) -> Result<Request, ProtoError> {
        let mut r = Reader::new(payload);
        let req = match r.u8()? {
            0 => Request::Ping,
            1 => {
                // Every query costs at least 5 bytes (tag + one u32 id).
                let count = r.read_count(5)?;
                let mut queries = Vec::with_capacity(count);
                for _ in 0..count {
                    queries.push(read_query(&mut r)?);
                }
                Request::Batch(queries)
            }
            2 => Request::Stats,
            3 => Request::Reload {
                snapshot: r.bytes()?,
            },
            4 => Request::Shutdown,
            5 => Request::Diags { code: r.str()? },
            6 => Request::Resolve {
                func: r.str()?,
                var: r.str()?,
            },
            7 => Request::PtNames {
                func: r.str()?,
                var: r.str()?,
            },
            8 => {
                let ctx = r.u64()?;
                let count = r.read_count(5)?;
                let mut queries = Vec::with_capacity(count);
                for _ in 0..count {
                    queries.push(read_query(&mut r)?);
                }
                Request::TracedBatch { ctx, queries }
            }
            9 => Request::DumpTrace,
            10 => Request::MetricsText,
            tag => {
                return Err(ProtoError::UnknownTag {
                    what: "request",
                    tag,
                })
            }
        };
        r.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Encodes to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Response::Pong => w.put_u8(0),
            Response::Answers(answers) => {
                w.put_u8(1);
                w.put_u32(u32::try_from(answers.len()).expect("batch too large"));
                for a in answers {
                    put_answer(&mut w, a);
                }
            }
            Response::Stats(pairs) => {
                w.put_u8(2);
                w.put_u32(u32::try_from(pairs.len()).expect("too many counters"));
                for (name, value) in pairs {
                    w.put_str(name);
                    w.put_u64(*value);
                }
            }
            Response::Reloaded { vars, objects } => {
                w.put_u8(3);
                w.put_u32(*vars);
                w.put_u32(*objects);
            }
            Response::ShuttingDown => w.put_u8(4),
            Response::Diags(diags) => {
                w.put_u8(5);
                w.put_u32(u32::try_from(diags.len()).expect("too many diagnostics"));
                for d in diags {
                    w.put_str(&d.code);
                    w.put_str(&d.severity);
                    w.put_u32(d.stmt.raw());
                    w.put_str(&d.message);
                }
            }
            Response::Resolved(v) => {
                w.put_u8(6);
                match v {
                    Some(v) => {
                        w.put_u8(1);
                        w.put_u32(v.raw());
                    }
                    None => w.put_u8(0),
                }
            }
            Response::Names(names) => {
                w.put_u8(7);
                match names {
                    Some(names) => {
                        w.put_u8(1);
                        w.put_u32(u32::try_from(names.len()).expect("too many names"));
                        for n in names {
                            w.put_str(n);
                        }
                    }
                    None => w.put_u8(0),
                }
            }
            Response::Text(text) => {
                w.put_u8(8);
                w.put_str(text);
            }
            Response::TraceDump {
                jsonl,
                recorded,
                dropped,
            } => {
                w.put_u8(9);
                w.put_str(jsonl);
                w.put_u64(*recorded);
                w.put_u64(*dropped);
            }
            Response::Error(msg) => {
                w.put_u8(255);
                w.put_str(msg);
            }
        }
        w.finish()
    }

    /// Decodes a frame payload; the payload must be consumed exactly.
    pub fn decode(payload: &[u8]) -> Result<Response, ProtoError> {
        let mut r = Reader::new(payload);
        let resp = match r.u8()? {
            0 => Response::Pong,
            1 => {
                // Every answer costs at least 2 bytes (tag + bool, the
                // smallest variant).
                let count = r.read_count(2)?;
                let mut answers = Vec::with_capacity(count);
                for _ in 0..count {
                    answers.push(read_answer(&mut r)?);
                }
                Response::Answers(answers)
            }
            2 => {
                // Each counter costs at least 12 bytes (name prefix + u64).
                let count = r.read_count(12)?;
                let mut pairs = Vec::with_capacity(count);
                for _ in 0..count {
                    let name = r.str()?;
                    let value = r.u64()?;
                    pairs.push((name, value));
                }
                Response::Stats(pairs)
            }
            3 => Response::Reloaded {
                vars: r.u32()?,
                objects: r.u32()?,
            },
            4 => Response::ShuttingDown,
            5 => {
                // Each diagnostic costs at least 16 bytes (three string
                // prefixes + the statement id).
                let count = r.read_count(16)?;
                let mut diags = Vec::with_capacity(count);
                for _ in 0..count {
                    diags.push(WireDiag {
                        code: r.str()?,
                        severity: r.str()?,
                        stmt: StmtId::new(r.u32()?),
                        message: r.str()?,
                    });
                }
                Response::Diags(diags)
            }
            6 => Response::Resolved(match r.u8()? {
                0 => None,
                _ => Some(VarId::new(r.u32()?)),
            }),
            7 => Response::Names(match r.u8()? {
                0 => None,
                _ => {
                    let count = r.read_count(4)?;
                    let mut names = Vec::with_capacity(count);
                    for _ in 0..count {
                        names.push(r.str()?);
                    }
                    Some(names)
                }
            }),
            8 => Response::Text(r.str()?),
            9 => Response::TraceDump {
                jsonl: r.str()?,
                recorded: r.u64()?,
                dropped: r.u64()?,
            },
            255 => Response::Error(r.str()?),
            tag => {
                return Err(ProtoError::UnknownTag {
                    what: "response",
                    tag,
                })
            }
        };
        r.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r).unwrap(), Some(b"hello".to_vec()));
        assert_eq!(read_frame(&mut r).unwrap(), Some(Vec::new()));
        assert_eq!(read_frame(&mut r).unwrap(), None); // clean EOF
    }

    #[test]
    fn oversized_length_prefix_fails_before_allocating() {
        let wire = u32::MAX.to_le_bytes();
        let mut r = &wire[..];
        assert!(matches!(
            read_frame(&mut r),
            Err(ProtoError::Oversized { .. })
        ));
    }

    #[test]
    fn mid_frame_eof_is_an_io_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload").unwrap();
        // Drop the last byte: the length prefix promises more.
        let mut r = &wire[..wire.len() - 1];
        assert!(matches!(read_frame(&mut r), Err(ProtoError::Io(_))));
        // Truncated inside the length prefix itself.
        let mut r = &wire[..2];
        assert!(matches!(read_frame(&mut r), Err(ProtoError::Io(_))));
    }

    #[test]
    fn requests_roundtrip() {
        let reqs = [
            Request::Ping,
            Request::Batch(vec![
                Query::PointsTo(VarId::new(7)),
                Query::MayAlias(VarId::new(1), VarId::new(2)),
                Query::AliasesOf(MemId::new(3)),
                Query::Mhp(StmtId::new(4), StmtId::new(5)),
            ]),
            Request::Stats,
            Request::Reload {
                snapshot: vec![1, 2, 3, 0xff],
            },
            Request::Shutdown,
            Request::Diags {
                code: "FL0001".into(),
            },
            Request::Resolve {
                func: "main".into(),
                var: "p".into(),
            },
            Request::PtNames {
                func: "main".into(),
                var: "p".into(),
            },
            Request::TracedBatch {
                ctx: 0xdead_beef_cafe_f00d,
                queries: vec![
                    Query::PointsTo(VarId::new(7)),
                    Query::Mhp(StmtId::new(4), StmtId::new(5)),
                ],
            },
            Request::DumpTrace,
            Request::MetricsText,
        ];
        for req in reqs {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn responses_roundtrip() {
        let resps = [
            Response::Pong,
            Response::Answers(vec![
                Answer::Objects(vec![MemId::new(1), MemId::new(9)]),
                Answer::Bool(true),
                Answer::Bool(false),
                Answer::Vars(vec![VarId::new(0)]),
            ]),
            Response::Stats(vec![("server.queries".into(), 42), ("p99_us".into(), 7)]),
            Response::Reloaded {
                vars: 10,
                objects: 3,
            },
            Response::ShuttingDown,
            Response::Diags(vec![WireDiag {
                code: "FL0001".into(),
                severity: "error".into(),
                stmt: StmtId::new(12),
                message: "data race on x".into(),
            }]),
            Response::Resolved(Some(VarId::new(3))),
            Response::Resolved(None),
            Response::Names(Some(vec!["x".into(), "y".into()])),
            Response::Names(None),
            Response::Text("# TYPE fsam_server_queries_total counter\n".into()),
            Response::TraceDump {
                jsonl: "{\"type\":\"event\",\"name\":\"req.engine\"}\n".into(),
                recorded: 12,
                dropped: 3,
            },
            Response::Error("nope".into()),
        ];
        for resp in resps {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn unknown_tags_are_typed_errors() {
        assert!(matches!(
            Request::decode(&[99]),
            Err(ProtoError::UnknownTag {
                what: "request",
                tag: 99
            })
        ));
        assert!(matches!(
            Response::decode(&[99]),
            Err(ProtoError::UnknownTag {
                what: "response",
                tag: 99
            })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = Request::Ping.encode();
        payload.push(0);
        assert!(matches!(
            Request::decode(&payload),
            Err(ProtoError::Codec(CodecError::Trailing { .. }))
        ));
    }
}

//! The ReactDB wire format: length-prefixed, CRC-checksummed frames carrying
//! tag-encoded requests and responses.
//!
//! Layout, outermost first:
//!
//! * **Handshake** — before any frame, the client sends 8 bytes: the magic
//!   `RDBP`, its protocol version (`u16` LE) and a flags word (`u16` LE,
//!   currently zero). The server answers with the same 8-byte shape where
//!   the flags word is a status: `0` accepts, `1` rejects the version. A
//!   rejected client gets the server's version echoed back so it can report
//!   both sides of the mismatch.
//! * **Frame** — the shared frame of [`reactdb_common::bytes`]
//!   (`put_frame`/`split_frame`): `[len: u32][crc32: u32][payload]`. The
//!   wire caps `len` at [`MAX_FRAME_LEN`] and refuses a larger one from the
//!   header alone, and checks the CRC before any payload decode, so a
//!   corrupt or hostile frame is rejected without over-allocating.
//! * **Payload** — `[kind: u8][correlation_id: u64 LE][body]`. The
//!   correlation id is chosen by the client and echoed verbatim in the
//!   response, which is what makes pipelining work: many requests may be in
//!   flight per connection and responses may be matched out of order.
//!
//! Bodies are built from the shared primitives of [`reactdb_common::bytes`]
//! (integers, `str32` strings, tagged [`Value`]s) and read back with its
//! bounds-checked [`Reader`]. A [`TxnError`] is a code byte followed by the
//! variant's string fields, so the client reconstructs the *exact* engine
//! error — retry classification (`is_cc_abort`, `is_user_abort`, ...) works
//! identically on both sides of the wire.
//!
//! Every decode path is total: malformed input yields a [`WireError`],
//! never a panic, and lengths are checked against the bytes actually
//! present before any allocation.

use reactdb_common::bytes::{
    put_frame, put_str32, put_u16, put_u32, put_u64, put_value, split_frame, DecodeError,
    FrameError, Reader,
};
use reactdb_common::{AckLevel, TxnError, Value};

/// Magic bytes opening both handshake directions.
pub const MAGIC: [u8; 4] = *b"RDBP";

/// Protocol version this build speaks. Bump on any incompatible layout
/// change; the handshake rejects mismatches instead of misparsing frames.
/// v2: the invoke ack byte becomes an [`AckLevel`] tag (adding
/// `replicated`) and the replication stream messages
/// ([`Request::ReplSubscribe`]/[`Request::ReplAck`],
/// [`Response::ReplFile`]/[`Response::ReplEpoch`]/[`Response::ReplEnd`])
/// join the kind space.
/// v3: [`Request::ReplSubscribe`] carries the follower's stable
/// `follower_id`, the key of the primary's per-follower quorum-ack
/// registry.
/// v4: [`Request::Metrics`] loses its format byte; the reply is always
/// Prometheus text.
pub const PROTOCOL_VERSION: u16 = 4;

/// Handshake message size in bytes, both directions.
pub const HANDSHAKE_LEN: usize = 8;

pub use reactdb_common::bytes::FRAME_HEADER_LEN;

/// Hard cap on a frame's payload length (1 MiB). A header announcing more
/// is rejected before any buffering, bounding per-connection memory.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// Hard cap on the number of procedure arguments in one invoke.
pub const MAX_ARGS: usize = 1024;

// ---------------------------------------------------------------------------
// Error taxonomy.
// ---------------------------------------------------------------------------

/// Everything that can go wrong turning bytes into messages. A connection
/// that produces any of these is killed; other connections are unaffected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the body it announced was complete.
    Truncated,
    /// A frame header announced a payload longer than [`MAX_FRAME_LEN`].
    FrameTooLarge {
        /// The announced payload length.
        len: u32,
        /// The cap it exceeded.
        max: u32,
    },
    /// The payload's CRC did not match the frame header.
    BadChecksum {
        /// CRC stored in the header.
        expected: u32,
        /// CRC computed over the received payload.
        actual: u32,
    },
    /// A handshake did not start with [`MAGIC`].
    BadMagic,
    /// The peer speaks an incompatible protocol version.
    VersionMismatch {
        /// Version offered by the client.
        client: u16,
        /// Version the server speaks.
        server: u16,
    },
    /// The server refused the handshake for a non-version reason.
    HandshakeRejected,
    /// The payload's kind byte names no known message.
    UnknownKind(u8),
    /// A tag byte inside a body names no known alternative.
    UnknownTag {
        /// Which tagged union was being decoded (for diagnostics).
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// The body decoded completely but bytes were left over.
    TrailingBytes {
        /// How many bytes remained.
        count: usize,
    },
    /// A structural constraint was violated (bad UTF-8, too many args, ...).
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "payload truncated mid-message"),
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte cap")
            }
            WireError::BadChecksum { expected, actual } => {
                write!(
                    f,
                    "frame checksum mismatch: header {expected:#010x}, payload {actual:#010x}"
                )
            }
            WireError::BadMagic => write!(f, "handshake does not start with RDBP magic"),
            WireError::VersionMismatch { client, server } => {
                write!(
                    f,
                    "protocol version mismatch: client v{client}, server v{server}"
                )
            }
            WireError::HandshakeRejected => write!(f, "server rejected the handshake"),
            WireError::UnknownKind(k) => write!(f, "unknown message kind {k:#04x}"),
            WireError::UnknownTag { what, tag } => write!(f, "unknown {what} tag {tag:#04x}"),
            WireError::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after a complete message body")
            }
            WireError::Malformed(what) => write!(f, "malformed message: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Truncated => WireError::Truncated,
            DecodeError::UnknownTag { what, tag } => WireError::UnknownTag { what, tag },
            DecodeError::Malformed(what) => WireError::Malformed(what),
        }
    }
}

impl From<FrameError> for WireError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::TooLarge { len, max } => WireError::FrameTooLarge { len, max },
            FrameError::BadChecksum { expected, actual } => {
                WireError::BadChecksum { expected, actual }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Message types.
// ---------------------------------------------------------------------------

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run one root transaction: `procedure` on `reactor` with `args`.
    Invoke {
        /// Client-chosen id echoed in the response.
        correlation_id: u64,
        /// When to acknowledge: validation, local durability, or
        /// replicated durability (see [`AckLevel`]).
        ack: AckLevel,
        /// Target reactor name.
        reactor: String,
        /// Registered procedure name on the reactor's type.
        procedure: String,
        /// Procedure arguments, at most [`MAX_ARGS`].
        args: Vec<Value>,
    },
    /// Render the server's metrics snapshot as Prometheus text
    /// (`GET /metrics` equivalent).
    Metrics {
        /// Client-chosen id echoed in the response.
        correlation_id: u64,
    },
    /// Liveness probe; the server answers [`Response::Pong`].
    Ping {
        /// Client-chosen id echoed in the response.
        correlation_id: u64,
    },
    /// Subscribe this connection as a replication follower: the server
    /// repurposes the connection into a one-way shipping stream of
    /// [`Response::ReplFile`]/[`Response::ReplEpoch`] frames (checkpoint
    /// files first, then live log-segment bytes), interleaved with
    /// [`Request::ReplAck`] frames flowing back.
    ReplSubscribe {
        /// Client-chosen id echoed in stream-fatal [`Response::ReplEnd`].
        correlation_id: u64,
        /// Durable epoch the follower has already applied (`0` for a
        /// fresh follower wanting the full checkpoint + log bootstrap).
        from_epoch: u64,
        /// Stable identity of the subscribing follower, constant across
        /// its reconnects (a hash of its staging directory and process).
        /// The primary tracks acked epochs per follower id, so a
        /// resubscribe continues the same registry entry instead of
        /// counting as a second follower toward the replicated-ack
        /// quorum.
        follower_id: u64,
    },
    /// Follower → primary on a subscribed connection: the follower has
    /// durably applied every shipped commit with epoch `<= applied_epoch`.
    /// Feeds the primary's `AckLevel::Replicated` gate.
    ReplAck {
        /// Correlation id of the originating subscription.
        correlation_id: u64,
        /// Highest epoch durably applied by the follower.
        applied_epoch: u64,
    },
}

impl Request {
    /// The correlation id carried by any request kind.
    pub fn correlation_id(&self) -> u64 {
        match self {
            Request::Invoke { correlation_id, .. }
            | Request::Metrics { correlation_id }
            | Request::Ping { correlation_id }
            | Request::ReplSubscribe { correlation_id, .. }
            | Request::ReplAck { correlation_id, .. } => *correlation_id,
        }
    }
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The invoke committed. `commit_epoch` is present when the engine
    /// reported one (always, under epoch durability).
    TxnOk {
        /// Echo of the request's correlation id.
        correlation_id: u64,
        /// The procedure's return value.
        value: Value,
        /// Epoch the transaction committed in, if known.
        commit_epoch: Option<u64>,
    },
    /// The invoke aborted; the exact engine error, reconstructed.
    TxnErr {
        /// Echo of the request's correlation id.
        correlation_id: u64,
        /// The engine error, with full variant fidelity.
        error: TxnError,
    },
    /// Rendered metrics text for a [`Request::Metrics`].
    MetricsText {
        /// Echo of the request's correlation id.
        correlation_id: u64,
        /// The Prometheus text exposition of the server's snapshot.
        text: String,
    },
    /// Answer to a [`Request::Ping`].
    Pong {
        /// Echo of the request's correlation id.
        correlation_id: u64,
    },
    /// The server could not process the request (shutting down, overload);
    /// distinct from a transaction abort.
    ServerError {
        /// Echo of the request's correlation id.
        correlation_id: u64,
        /// Human-readable reason.
        message: String,
    },
    /// Replication stream: a chunk of a log-dir file (checkpoint part,
    /// manifest, or log segment) at a byte offset. The follower appends
    /// or overwrites at exactly that offset, so re-shipping is idempotent.
    ReplFile {
        /// Echo of the subscription's correlation id.
        correlation_id: u64,
        /// File name relative to the primary's log dir.
        name: String,
        /// Byte offset of this chunk within the file.
        offset: u64,
        /// The chunk bytes.
        bytes: Vec<u8>,
    },
    /// Replication stream: every shipped byte so far belongs to a commit
    /// with epoch `<= epoch`, and that epoch is durable on the primary.
    /// The follower may apply through `epoch` and then [`Request::ReplAck`]
    /// it.
    ReplEpoch {
        /// Echo of the subscription's correlation id.
        correlation_id: u64,
        /// The primary's shipped durable epoch.
        epoch: u64,
    },
    /// Replication stream: the primary is ending the stream (shutdown,
    /// truncation race, error). The follower reconnects and resubscribes;
    /// it stays read-only if the primary is gone for good.
    ReplEnd {
        /// Echo of the subscription's correlation id.
        correlation_id: u64,
        /// Human-readable reason.
        reason: String,
    },
}

impl Response {
    /// The correlation id carried by any response kind.
    pub fn correlation_id(&self) -> u64 {
        match self {
            Response::TxnOk { correlation_id, .. }
            | Response::TxnErr { correlation_id, .. }
            | Response::MetricsText { correlation_id, .. }
            | Response::Pong { correlation_id }
            | Response::ServerError { correlation_id, .. }
            | Response::ReplFile { correlation_id, .. }
            | Response::ReplEpoch { correlation_id, .. }
            | Response::ReplEnd { correlation_id, .. } => *correlation_id,
        }
    }
}

const KIND_INVOKE: u8 = 0x01;
const KIND_METRICS: u8 = 0x02;
const KIND_PING: u8 = 0x03;
const KIND_REPL_SUBSCRIBE: u8 = 0x04;
const KIND_REPL_ACK: u8 = 0x05;
const KIND_TXN_OK: u8 = 0x81;
const KIND_TXN_ERR: u8 = 0x82;
const KIND_METRICS_TEXT: u8 = 0x83;
const KIND_PONG: u8 = 0x84;
const KIND_SERVER_ERROR: u8 = 0x85;
const KIND_REPL_FILE: u8 = 0x86;
const KIND_REPL_EPOCH: u8 = 0x87;
const KIND_REPL_END: u8 = 0x88;

// ---------------------------------------------------------------------------
// Handshake.
// ---------------------------------------------------------------------------

/// One hello: the magic, this build's version, then `word` (a client's
/// flags, a server's status).
fn hello(word: u16) -> [u8; HANDSHAKE_LEN] {
    let mut b = MAGIC.to_vec();
    put_u16(&mut b, PROTOCOL_VERSION);
    put_u16(&mut b, word);
    b.try_into().expect("magic and two u16s")
}

/// The magic-checked `(version, word)` of a hello.
fn read_hello(b: &[u8; HANDSHAKE_LEN]) -> Result<(u16, u16), WireError> {
    let mut r = Reader::new(b);
    if r.take(MAGIC.len())? != MAGIC {
        return Err(WireError::BadMagic);
    }
    Ok((r.u16()?, r.u16()?))
}

/// The 8-byte hello a client sends immediately after connecting (flags
/// reserved as zero).
pub fn client_hello() -> [u8; HANDSHAKE_LEN] {
    hello(0)
}

/// The 8-byte reply a server sends: status `0` accepts, `1` rejects the
/// client's version (the server's own version rides in bytes 4..6 either
/// way, so a rejected client can name both sides of the mismatch).
pub fn server_hello(accept: bool) -> [u8; HANDSHAKE_LEN] {
    hello(u16::from(!accept))
}

/// Server side: validates a client hello and returns the client's version.
/// `Ok` means magic and version both match this build.
pub fn parse_client_hello(b: &[u8; HANDSHAKE_LEN]) -> Result<u16, WireError> {
    let (version, _flags) = read_hello(b)?;
    if version != PROTOCOL_VERSION {
        return Err(WireError::VersionMismatch {
            client: version,
            server: PROTOCOL_VERSION,
        });
    }
    Ok(version)
}

/// Client side: validates a server hello.
pub fn parse_server_hello(b: &[u8; HANDSHAKE_LEN]) -> Result<(), WireError> {
    let (server_version, status) = read_hello(b)?;
    match status {
        0 => Ok(()),
        1 => Err(WireError::VersionMismatch {
            client: PROTOCOL_VERSION,
            server: server_version,
        }),
        _ => Err(WireError::HandshakeRejected),
    }
}

// ---------------------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------------------

/// Wraps a payload in a frame header (length + CRC).
///
/// # Panics
/// Panics if the payload exceeds [`MAX_FRAME_LEN`] — encoders bound their
/// output (argument and string caps), so this is a programming error.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() <= MAX_FRAME_LEN as usize,
        "frame payload of {} bytes exceeds the cap",
        payload.len()
    );
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    put_frame(&mut out, payload);
    out
}

/// [`split_frame`] capped at [`MAX_FRAME_LEN`]: one frame off the front of
/// a receive buffer, `Ok(None)` until it is whole, and a hostile length
/// refused from the header alone, before anything is buffered.
#[inline]
pub fn decode_frame(buf: &[u8]) -> Result<Option<(&[u8], usize)>, WireError> {
    Ok(split_frame(buf, MAX_FRAME_LEN)?)
}

/// Splits one whole frame off the front of a receive buffer and decodes it
/// with `decode` ([`decode_request`] or [`decode_response`]), draining its
/// bytes: `Ok(None)` until a whole frame is buffered.
#[inline]
pub fn next_message<M>(
    buf: &mut Vec<u8>,
    decode: impl FnOnce(&[u8]) -> Result<M, WireError>,
) -> Result<Option<M>, WireError> {
    let Some((payload, consumed)) = decode_frame(buf)? else {
        return Ok(None);
    };
    let message = decode(payload)?;
    buf.drain(..consumed);
    Ok(Some(message))
}

// ---------------------------------------------------------------------------
// Body primitives: the wire-only ones. Integers, strings and values are
// the shared `reactdb_common::bytes` codec.
// ---------------------------------------------------------------------------

fn txn_error(r: &mut Reader<'_>) -> Result<TxnError, WireError> {
    let tag = r.u8()?;
    let mut s = || r.str32();
    Ok(match tag {
        0 => TxnError::UserAbort(s()?),
        1 => TxnError::ValidationFailed,
        2 => TxnError::Phantom,
        3 => TxnError::CommitAborted,
        4 => TxnError::DangerousStructure { reactor: s()? },
        5 => TxnError::UnknownReactor(s()?),
        6 => TxnError::UnknownProcedure {
            reactor_type: s()?,
            procedure: s()?,
        },
        7 => TxnError::UnknownRelation(s()?),
        8 => TxnError::UnknownColumn {
            relation: s()?,
            column: s()?,
        },
        9 => TxnError::DuplicateKey {
            relation: s()?,
            key: s()?,
        },
        10 => TxnError::NotFound {
            relation: s()?,
            key: s()?,
        },
        11 => TxnError::Runtime(s()?),
        12 => TxnError::BadArguments(s()?),
        tag => {
            return Err(WireError::UnknownTag {
                what: "txn error",
                tag,
            })
        }
    })
}

/// The wire names leftover bytes by their count.
#[inline]
fn finish(r: Reader<'_>) -> Result<(), WireError> {
    match r.remaining() {
        0 => Ok(()),
        count => Err(WireError::TrailingBytes { count }),
    }
}

/// A code byte, then the variant's string fields in declaration order.
fn put_txn_error(out: &mut Vec<u8>, e: &TxnError) {
    let (code, fields): (u8, &[&String]) = match e {
        TxnError::UserAbort(msg) => (0, &[msg]),
        TxnError::ValidationFailed => (1, &[]),
        TxnError::Phantom => (2, &[]),
        TxnError::CommitAborted => (3, &[]),
        TxnError::DangerousStructure { reactor } => (4, &[reactor]),
        TxnError::UnknownReactor(name) => (5, &[name]),
        TxnError::UnknownProcedure {
            reactor_type,
            procedure,
        } => (6, &[reactor_type, procedure]),
        TxnError::UnknownRelation(name) => (7, &[name]),
        TxnError::UnknownColumn { relation, column } => (8, &[relation, column]),
        TxnError::DuplicateKey { relation, key } => (9, &[relation, key]),
        TxnError::NotFound { relation, key } => (10, &[relation, key]),
        TxnError::Runtime(msg) => (11, &[msg]),
        TxnError::BadArguments(msg) => (12, &[msg]),
    };
    out.push(code);
    for field in fields {
        put_str32(out, field);
    }
}

// ---------------------------------------------------------------------------
// Request encode/decode.
// ---------------------------------------------------------------------------

/// Encodes a request payload (no frame header; pass through [`frame`]).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    out.push(0);
    put_u64(&mut out, req.correlation_id());
    // Each arm writes its body and names the kind that leads the payload.
    out[0] = match req {
        Request::Invoke {
            ack,
            reactor,
            procedure,
            args,
            ..
        } => {
            out.push(ack.wire_tag());
            put_str32(&mut out, reactor);
            put_str32(&mut out, procedure);
            assert!(args.len() <= MAX_ARGS, "too many procedure arguments");
            put_u16(&mut out, args.len() as u16);
            for arg in args {
                put_value(&mut out, arg);
            }
            KIND_INVOKE
        }
        Request::Metrics { .. } => KIND_METRICS,
        Request::Ping { .. } => KIND_PING,
        Request::ReplSubscribe {
            from_epoch,
            follower_id,
            ..
        } => {
            put_u64(&mut out, *from_epoch);
            put_u64(&mut out, *follower_id);
            KIND_REPL_SUBSCRIBE
        }
        Request::ReplAck { applied_epoch, .. } => {
            put_u64(&mut out, *applied_epoch);
            KIND_REPL_ACK
        }
    };
    out
}

/// Decodes a request payload (the frame's checksummed contents).
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let mut c = Reader::new(payload);
    let kind = c.u8()?;
    let correlation_id = c.u64()?;
    let req = match kind {
        KIND_INVOKE => {
            let tag = c.u8()?;
            let ack = AckLevel::from_wire_tag(tag).ok_or(WireError::UnknownTag {
                what: "ack level",
                tag,
            })?;
            let reactor = c.str32()?;
            let procedure = c.str32()?;
            let argc = c.u16()? as usize;
            if argc > MAX_ARGS {
                return Err(WireError::Malformed("argument count exceeds cap"));
            }
            // Each value takes at least one byte, so an argc beyond the
            // bytes present is truncation — caught before allocating.
            if argc > c.remaining() {
                return Err(WireError::Truncated);
            }
            let mut args = Vec::with_capacity(argc);
            for _ in 0..argc {
                args.push(c.value()?);
            }
            Request::Invoke {
                correlation_id,
                ack,
                reactor,
                procedure,
                args,
            }
        }
        KIND_METRICS => Request::Metrics { correlation_id },
        KIND_PING => Request::Ping { correlation_id },
        KIND_REPL_SUBSCRIBE => Request::ReplSubscribe {
            correlation_id,
            from_epoch: c.u64()?,
            follower_id: c.u64()?,
        },
        KIND_REPL_ACK => Request::ReplAck {
            correlation_id,
            applied_epoch: c.u64()?,
        },
        kind => return Err(WireError::UnknownKind(kind)),
    };
    finish(c)?;
    Ok(req)
}

// ---------------------------------------------------------------------------
// Response encode/decode.
// ---------------------------------------------------------------------------

/// Encodes a response payload (no frame header; pass through [`frame`]).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    out.push(0);
    put_u64(&mut out, resp.correlation_id());
    // Each arm writes its body and names the kind that leads the payload.
    out[0] = match resp {
        Response::TxnOk {
            value,
            commit_epoch,
            ..
        } => {
            put_value(&mut out, value);
            match commit_epoch {
                Some(epoch) => {
                    out.push(1);
                    put_u64(&mut out, *epoch);
                }
                None => out.push(0),
            }
            KIND_TXN_OK
        }
        Response::TxnErr { error, .. } => {
            put_txn_error(&mut out, error);
            KIND_TXN_ERR
        }
        Response::MetricsText { text, .. } => {
            put_str32(&mut out, text);
            KIND_METRICS_TEXT
        }
        Response::Pong { .. } => KIND_PONG,
        Response::ServerError { message, .. } => {
            put_str32(&mut out, message);
            KIND_SERVER_ERROR
        }
        Response::ReplFile {
            name,
            offset,
            bytes,
            ..
        } => {
            put_str32(&mut out, name);
            put_u64(&mut out, *offset);
            put_u32(&mut out, bytes.len() as u32);
            out.extend_from_slice(bytes);
            KIND_REPL_FILE
        }
        Response::ReplEpoch { epoch, .. } => {
            put_u64(&mut out, *epoch);
            KIND_REPL_EPOCH
        }
        Response::ReplEnd { reason, .. } => {
            put_str32(&mut out, reason);
            KIND_REPL_END
        }
    };
    out
}

/// Decodes a response payload (the frame's checksummed contents).
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let mut c = Reader::new(payload);
    let kind = c.u8()?;
    let correlation_id = c.u64()?;
    let resp = match kind {
        KIND_TXN_OK => {
            let value = c.value()?;
            let commit_epoch = match c.u8()? {
                0 => None,
                1 => Some(c.u64()?),
                _ => return Err(WireError::Malformed("epoch flag byte not 0 or 1")),
            };
            Response::TxnOk {
                correlation_id,
                value,
                commit_epoch,
            }
        }
        KIND_TXN_ERR => Response::TxnErr {
            correlation_id,
            error: txn_error(&mut c)?,
        },
        KIND_METRICS_TEXT => Response::MetricsText {
            correlation_id,
            text: c.str32()?,
        },
        KIND_PONG => Response::Pong { correlation_id },
        KIND_SERVER_ERROR => Response::ServerError {
            correlation_id,
            message: c.str32()?,
        },
        KIND_REPL_FILE => {
            let name = c.str32()?;
            let offset = c.u64()?;
            let len = c.u32()? as usize;
            Response::ReplFile {
                correlation_id,
                name,
                offset,
                bytes: c.take(len)?.to_vec(),
            }
        }
        KIND_REPL_EPOCH => Response::ReplEpoch {
            correlation_id,
            epoch: c.u64()?,
        },
        KIND_REPL_END => Response::ReplEnd {
            correlation_id,
            reason: c.str32()?,
        },
        kind => return Err(WireError::UnknownKind(kind)),
    };
    finish(c)?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let payload = b"hello reactdb".to_vec();
        let framed = frame(&payload);
        let (got, consumed) = decode_frame(&framed).unwrap().unwrap();
        assert_eq!(got, &payload[..]);
        assert_eq!(consumed, framed.len());
        // A partial header or partial payload asks for more bytes.
        assert_eq!(decode_frame(&framed[..4]).unwrap(), None);
        assert_eq!(decode_frame(&framed[..framed.len() - 1]).unwrap(), None);
    }

    #[test]
    fn oversized_length_rejected_from_header_alone() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            decode_frame(&buf),
            Err(WireError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn corrupt_payload_fails_checksum() {
        let mut framed = frame(b"payload");
        let last = framed.len() - 1;
        framed[last] ^= 0x40;
        assert!(matches!(
            decode_frame(&framed),
            Err(WireError::BadChecksum { .. })
        ));
    }

    #[test]
    fn handshake_roundtrip_and_version_gate() {
        assert_eq!(parse_client_hello(&client_hello()), Ok(PROTOCOL_VERSION));
        assert_eq!(parse_server_hello(&server_hello(true)), Ok(()));
        assert!(matches!(
            parse_server_hello(&server_hello(false)),
            Err(WireError::VersionMismatch { .. })
        ));
        let mut bad = client_hello();
        bad[0] = b'X';
        assert_eq!(parse_client_hello(&bad), Err(WireError::BadMagic));
        let mut future = client_hello();
        future[4..6].copy_from_slice(&(PROTOCOL_VERSION + 7).to_le_bytes());
        assert!(matches!(
            parse_client_hello(&future),
            Err(WireError::VersionMismatch { .. })
        ));
    }

    #[test]
    fn request_roundtrip_all_kinds() {
        let reqs = vec![
            Request::Invoke {
                correlation_id: 42,
                ack: AckLevel::Durable,
                reactor: "acct-7".into(),
                procedure: "transfer".into(),
                args: vec![
                    Value::Int(-5),
                    Value::Float(2.5),
                    Value::Str("memo".into()),
                    Value::Bool(true),
                    Value::Null,
                ],
            },
            Request::Metrics { correlation_id: 1 },
            Request::Invoke {
                correlation_id: 43,
                ack: AckLevel::Replicated,
                reactor: "acct-8".into(),
                procedure: "deposit".into(),
                args: vec![Value::Float(1.0)],
            },
            Request::Ping { correlation_id: 0 },
            Request::ReplSubscribe {
                correlation_id: 7,
                from_epoch: 0,
                follower_id: 0xfee1_dead_beef,
            },
            Request::ReplAck {
                correlation_id: 7,
                applied_epoch: 99,
            },
        ];
        for req in reqs {
            let bytes = encode_request(&req);
            assert_eq!(decode_request(&bytes).unwrap(), req);
        }
    }

    #[test]
    fn response_roundtrip_all_kinds_and_errors() {
        let all_errors = vec![
            TxnError::UserAbort("over limit".into()),
            TxnError::ValidationFailed,
            TxnError::Phantom,
            TxnError::CommitAborted,
            TxnError::DangerousStructure {
                reactor: "r1".into(),
            },
            TxnError::UnknownReactor("ghost".into()),
            TxnError::UnknownProcedure {
                reactor_type: "Account".into(),
                procedure: "fly".into(),
            },
            TxnError::UnknownRelation("orders".into()),
            TxnError::UnknownColumn {
                relation: "orders".into(),
                column: "vibe".into(),
            },
            TxnError::DuplicateKey {
                relation: "orders".into(),
                key: "9".into(),
            },
            TxnError::NotFound {
                relation: "orders".into(),
                key: "10".into(),
            },
            TxnError::Runtime("executor gone".into()),
            TxnError::BadArguments("want 2, got 3".into()),
        ];
        let mut resps = vec![
            Response::TxnOk {
                correlation_id: 9,
                value: Value::Str("done".into()),
                commit_epoch: Some(88),
            },
            Response::TxnOk {
                correlation_id: 10,
                value: Value::Null,
                commit_epoch: None,
            },
            Response::MetricsText {
                correlation_id: 11,
                text: "reactdb_txn_committed 12\n".into(),
            },
            Response::Pong { correlation_id: 12 },
            Response::ServerError {
                correlation_id: 13,
                message: "draining".into(),
            },
            Response::ReplFile {
                correlation_id: 14,
                name: "wal-e0000-g000001.log".into(),
                offset: 16,
                bytes: vec![0xAB; 33],
            },
            Response::ReplEpoch {
                correlation_id: 14,
                epoch: 512,
            },
            Response::ReplEnd {
                correlation_id: 14,
                reason: "primary shutting down".into(),
            },
        ];
        for (i, error) in all_errors.into_iter().enumerate() {
            resps.push(Response::TxnErr {
                correlation_id: 100 + i as u64,
                error,
            });
        }
        for resp in resps {
            let bytes = encode_response(&resp);
            assert_eq!(decode_response(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_request(&Request::Ping { correlation_id: 3 });
        bytes.push(0xFF);
        assert!(matches!(
            decode_request(&bytes),
            Err(WireError::TrailingBytes { count: 1 })
        ));
    }

    #[test]
    fn unknown_ack_tag_rejected() {
        let mut payload = vec![KIND_INVOKE];
        payload.extend_from_slice(&7u64.to_le_bytes());
        payload.push(9); // no such ack level
        put_str32(&mut payload, "r");
        put_str32(&mut payload, "p");
        payload.extend_from_slice(&0u16.to_le_bytes());
        assert!(matches!(
            decode_request(&payload),
            Err(WireError::UnknownTag {
                what: "ack level",
                ..
            })
        ));
    }

    #[test]
    fn hostile_repl_file_length_rejected_before_allocation() {
        // A ReplFile whose chunk-length field claims 512 MiB.
        let mut payload = vec![KIND_REPL_FILE];
        payload.extend_from_slice(&7u64.to_le_bytes());
        put_str32(&mut payload, "wal-e0000-g000001.log");
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&(512u32 << 20).to_le_bytes());
        assert_eq!(decode_response(&payload), Err(WireError::Truncated));
    }

    #[test]
    fn hostile_string_length_rejected_before_allocation() {
        // An invoke whose reactor-name length field claims 512 MiB.
        let mut payload = vec![KIND_INVOKE];
        payload.extend_from_slice(&7u64.to_le_bytes());
        payload.push(0); // ack mode
        payload.extend_from_slice(&(512u32 << 20).to_le_bytes());
        assert_eq!(decode_request(&payload), Err(WireError::Truncated));
    }

    #[test]
    fn hostile_arg_count_rejected() {
        let mut payload = vec![KIND_INVOKE];
        payload.extend_from_slice(&7u64.to_le_bytes());
        payload.push(0);
        put_str32(&mut payload, "r");
        put_str32(&mut payload, "p");
        payload.extend_from_slice(&u16::MAX.to_le_bytes());
        assert!(matches!(
            decode_request(&payload),
            Err(WireError::Malformed(_))
        ));
    }
}

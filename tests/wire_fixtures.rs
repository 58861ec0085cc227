//! The wire format, pinned by committed bytes.
//!
//! The codec's roundtrip tests pass whenever the encoder and the decoder
//! change together, so they cannot tell a client and a server built one
//! commit apart that no longer understand each other. These tests compare
//! against files committed under `tests/fixtures/wire/` instead: the two
//! handshake directions, and one frame (header plus payload) per request
//! kind, response kind, ack level and `TxnError` code. Each file decodes
//! to a literal expected value and re-encodes byte for byte, so a wire
//! change shows up as a fixture diff and a `PROTOCOL_VERSION` bump.
//!
//! Regenerate the fixtures with
//! `BLESS_FIXTURES=1 cargo test --test wire_fixtures`. The bless run never
//! touches `legacy-v3/`: frames of the previous version, which this build
//! must refuse.

use std::fs;
use std::path::PathBuf;

use reactdb::common::{AckLevel, TxnError, Value};
use reactdb_client::codec::{
    client_hello, decode_frame, decode_request, decode_response, encode_request, encode_response,
    frame, parse_client_hello, parse_server_hello, server_hello, Request, Response, WireError,
    HANDSHAKE_LEN,
};

/// The protocol version the fixtures pin.
const VERSION: u16 = 4;

fn bless() -> bool {
    std::env::var_os("BLESS_FIXTURES").is_some()
}

fn wire_fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/wire")
        .join(name)
}

/// Compares `encoded` with the committed file `name` (writing it first
/// under `BLESS_FIXTURES`) and returns the committed bytes.
fn pinned(name: &str, encoded: &[u8]) -> Vec<u8> {
    let path = wire_fixture(name);
    if bless() {
        fs::write(&path, encoded).unwrap();
    }
    let committed =
        fs::read(&path).unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()));
    assert_eq!(encoded, &committed[..], "{name} differs from the fixture");
    committed
}

/// The payload of a committed frame file, which holds exactly one frame.
fn payload_of(name: &str, file: &[u8]) -> Vec<u8> {
    let (payload, consumed) = decode_frame(file)
        .unwrap_or_else(|e| panic!("{name}: {e}"))
        .unwrap_or_else(|| panic!("{name}: incomplete frame"));
    assert_eq!(consumed, file.len(), "{name}: bytes after the frame");
    payload.to_vec()
}

fn hello(name: &str, encoded: [u8; HANDSHAKE_LEN]) -> [u8; HANDSHAKE_LEN] {
    pinned(name, &encoded).try_into().unwrap()
}

#[test]
fn handshake_fixtures_decode_and_reencode_byte_identical() {
    let client = hello("client-hello.bin", client_hello());
    assert_eq!(client[..4], *b"RDBP");
    assert_eq!(parse_client_hello(&client), Ok(VERSION));

    let accept = hello("server-hello-accept.bin", server_hello(true));
    assert_eq!(u16::from_le_bytes([accept[4], accept[5]]), VERSION);
    assert_eq!(parse_server_hello(&accept), Ok(()));

    let reject = hello("server-hello-reject.bin", server_hello(false));
    assert_eq!(u16::from_le_bytes([reject[4], reject[5]]), VERSION);
    assert_eq!(
        parse_server_hello(&reject),
        Err(WireError::VersionMismatch {
            client: VERSION,
            server: VERSION,
        })
    );
}

/// One request of each kind, one invoke per ack level.
fn requests() -> Vec<(&'static str, Request)> {
    let invoke = |correlation_id, ack| Request::Invoke {
        correlation_id,
        ack,
        reactor: "acct-7".into(),
        procedure: "transfer".into(),
        args: vec![
            Value::Int(-5),
            Value::Float(2.5),
            Value::Str("memo".into()),
            Value::Bool(true),
            Value::Null,
        ],
    };
    vec![
        ("invoke-validated.bin", invoke(1, AckLevel::Validated)),
        ("invoke-durable.bin", invoke(2, AckLevel::Durable)),
        ("invoke-replicated.bin", invoke(3, AckLevel::Replicated)),
        ("metrics.bin", Request::Metrics { correlation_id: 4 }),
        ("ping.bin", Request::Ping { correlation_id: 6 }),
        (
            "repl-subscribe.bin",
            Request::ReplSubscribe {
                correlation_id: 7,
                from_epoch: 41,
                follower_id: 0xfee1_dead_beef,
            },
        ),
        (
            "repl-ack.bin",
            Request::ReplAck {
                correlation_id: 7,
                applied_epoch: 99,
            },
        ),
    ]
}

/// Every `TxnError` code, in code order.
fn txn_errors() -> Vec<(&'static str, TxnError)> {
    vec![
        ("user-abort", TxnError::UserAbort("over limit".into())),
        ("validation-failed", TxnError::ValidationFailed),
        ("phantom", TxnError::Phantom),
        ("commit-aborted", TxnError::CommitAborted),
        (
            "dangerous-structure",
            TxnError::DangerousStructure {
                reactor: "r1".into(),
            },
        ),
        ("unknown-reactor", TxnError::UnknownReactor("ghost".into())),
        (
            "unknown-procedure",
            TxnError::UnknownProcedure {
                reactor_type: "Account".into(),
                procedure: "fly".into(),
            },
        ),
        (
            "unknown-relation",
            TxnError::UnknownRelation("orders".into()),
        ),
        (
            "unknown-column",
            TxnError::UnknownColumn {
                relation: "orders".into(),
                column: "vibe".into(),
            },
        ),
        (
            "duplicate-key",
            TxnError::DuplicateKey {
                relation: "orders".into(),
                key: "9".into(),
            },
        ),
        (
            "not-found",
            TxnError::NotFound {
                relation: "orders".into(),
                key: "10".into(),
            },
        ),
        ("runtime", TxnError::Runtime("executor gone".into())),
        (
            "bad-arguments",
            TxnError::BadArguments("want 2, got 3".into()),
        ),
    ]
}

/// One response of each kind, both `TxnOk` shapes, and a `TxnErr` per
/// error code.
fn responses() -> Vec<(String, Response)> {
    let mut out: Vec<(String, Response)> = vec![
        (
            "txn-ok-epoch.bin".into(),
            Response::TxnOk {
                correlation_id: 9,
                value: Value::Str("done".into()),
                commit_epoch: Some(88),
            },
        ),
        (
            "txn-ok-no-epoch.bin".into(),
            Response::TxnOk {
                correlation_id: 10,
                value: Value::Int(-12),
                commit_epoch: None,
            },
        ),
        (
            "metrics-text.bin".into(),
            Response::MetricsText {
                correlation_id: 11,
                text: "# TYPE reactdb_txn_committed counter\nreactdb_txn_committed 12\n".into(),
            },
        ),
        ("pong.bin".into(), Response::Pong { correlation_id: 12 }),
        (
            "server-error.bin".into(),
            Response::ServerError {
                correlation_id: 13,
                message: "draining".into(),
            },
        ),
        (
            "repl-file.bin".into(),
            Response::ReplFile {
                correlation_id: 14,
                name: "wal-e0000-g000001.log".into(),
                offset: 16,
                bytes: (0..33).collect(),
            },
        ),
        (
            "repl-epoch.bin".into(),
            Response::ReplEpoch {
                correlation_id: 14,
                epoch: 512,
            },
        ),
        (
            "repl-end.bin".into(),
            Response::ReplEnd {
                correlation_id: 14,
                reason: "primary shutting down".into(),
            },
        ),
    ];
    for (code, (name, error)) in txn_errors().into_iter().enumerate() {
        out.push((
            format!("txn-err-{code:02}-{name}.bin"),
            Response::TxnErr {
                correlation_id: 100 + code as u64,
                error,
            },
        ));
    }
    out
}

#[test]
fn request_fixtures_decode_and_reencode_byte_identical() {
    for (name, expected) in requests() {
        let file = pinned(name, &frame(&encode_request(&expected)));
        let decoded =
            decode_request(&payload_of(name, &file)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(decoded, expected, "{name}");
    }
}

#[test]
fn response_fixtures_decode_and_reencode_byte_identical() {
    let all = responses();
    assert_eq!(all.len(), 8 + 13);
    for (name, expected) in all {
        let file = pinned(&name, &frame(&encode_response(&expected)));
        let decoded =
            decode_response(&payload_of(&name, &file)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(decoded, expected, "{name}");
    }
}

#[test]
fn every_txn_error_code_is_its_position() {
    // The code byte is the first body byte after the kind and the
    // correlation id; the fixture names carry it.
    for (code, (name, error)) in txn_errors().into_iter().enumerate() {
        let payload = encode_response(&Response::TxnErr {
            correlation_id: 0,
            error,
        });
        assert_eq!(payload[9] as usize, code, "{name}");
    }
}

#[test]
fn v3_frames_are_refused() {
    // The v3 client hello: same magic, an older version.
    let hello: [u8; HANDSHAKE_LEN] = fs::read(wire_fixture("legacy-v3/client-hello.bin"))
        .unwrap()
        .try_into()
        .unwrap();
    assert_eq!(
        parse_client_hello(&hello),
        Err(WireError::VersionMismatch {
            client: 3,
            server: 4,
        })
    );
    // The v3 metrics request asking for JSON: v4 reads the request without
    // its format byte and refuses the byte left over.
    let name = "legacy-v3/metrics-json.bin";
    let file = fs::read(wire_fixture(name)).unwrap();
    assert_eq!(
        decode_request(&payload_of(name, &file)),
        Err(WireError::TrailingBytes { count: 1 })
    );
}

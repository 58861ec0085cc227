//! Property tests for the wire codec: every message kind round-trips
//! through frame + body encode/decode, and the decoder survives
//! truncation, byte flips, hostile length fields and plain garbage
//! without panicking or returning a message it was never sent.

use proptest::prelude::*;
use reactdb_client::codec::{
    decode_frame, decode_request, decode_response, encode_request, encode_response, frame, Request,
    Response, WireError, FRAME_HEADER_LEN, MAX_FRAME_LEN,
};
use reactdb_common::{AckLevel, TxnError, Value};

/// Random short string over a charset that exercises multi-byte UTF-8.
fn arb_string(rng: &mut TestRng) -> String {
    const CHARS: &[char] = &['a', 'B', '7', '_', '-', 'é', 'λ', '中', '🦀', ' '];
    let len = rng.below(12) as usize;
    (0..len)
        .map(|_| CHARS[rng.below(CHARS.len() as u64) as usize])
        .collect()
}

fn arb_value(rng: &mut TestRng) -> Value {
    match rng.below(5) {
        0 => Value::Null,
        1 => Value::Int(rng.next_u64() as i64),
        2 => Value::Float(rng.unit_f64() * 1e9 - 5e8),
        3 => Value::Str(arb_string(rng)),
        _ => Value::Bool(rng.next_u64() & 1 == 1),
    }
}

fn arb_txn_error(rng: &mut TestRng) -> TxnError {
    match rng.below(13) {
        0 => TxnError::UserAbort(arb_string(rng)),
        1 => TxnError::ValidationFailed,
        2 => TxnError::Phantom,
        3 => TxnError::CommitAborted,
        4 => TxnError::DangerousStructure {
            reactor: arb_string(rng),
        },
        5 => TxnError::UnknownReactor(arb_string(rng)),
        6 => TxnError::UnknownProcedure {
            reactor_type: arb_string(rng),
            procedure: arb_string(rng),
        },
        7 => TxnError::UnknownRelation(arb_string(rng)),
        8 => TxnError::UnknownColumn {
            relation: arb_string(rng),
            column: arb_string(rng),
        },
        9 => TxnError::DuplicateKey {
            relation: arb_string(rng),
            key: arb_string(rng),
        },
        10 => TxnError::NotFound {
            relation: arb_string(rng),
            key: arb_string(rng),
        },
        11 => TxnError::Runtime(arb_string(rng)),
        _ => TxnError::BadArguments(arb_string(rng)),
    }
}

fn arb_request(rng: &mut TestRng) -> Request {
    let correlation_id = rng.next_u64();
    match rng.below(5) {
        0 => Request::Invoke {
            correlation_id,
            ack: AckLevel::ALL[rng.below(AckLevel::ALL.len() as u64) as usize],
            reactor: arb_string(rng),
            procedure: arb_string(rng),
            args: (0..rng.below(6)).map(|_| arb_value(rng)).collect(),
        },
        1 => Request::Metrics { correlation_id },
        2 => Request::ReplSubscribe {
            correlation_id,
            from_epoch: rng.next_u64(),
            follower_id: rng.next_u64(),
        },
        3 => Request::ReplAck {
            correlation_id,
            applied_epoch: rng.next_u64(),
        },
        _ => Request::Ping { correlation_id },
    }
}

fn arb_response(rng: &mut TestRng) -> Response {
    let correlation_id = rng.next_u64();
    match rng.below(8) {
        0 => Response::TxnOk {
            correlation_id,
            value: arb_value(rng),
            commit_epoch: if rng.next_u64() & 1 == 0 {
                Some(rng.next_u64())
            } else {
                None
            },
        },
        1 => Response::TxnErr {
            correlation_id,
            error: arb_txn_error(rng),
        },
        2 => Response::MetricsText {
            correlation_id,
            text: arb_string(rng),
        },
        3 => Response::Pong { correlation_id },
        4 => Response::ReplFile {
            correlation_id,
            name: arb_string(rng),
            offset: rng.next_u64(),
            bytes: (0..rng.below(48)).map(|_| rng.next_u64() as u8).collect(),
        },
        5 => Response::ReplEpoch {
            correlation_id,
            epoch: rng.next_u64(),
        },
        6 => Response::ReplEnd {
            correlation_id,
            reason: arb_string(rng),
        },
        _ => Response::ServerError {
            correlation_id,
            message: arb_string(rng),
        },
    }
}

proptest! {
    /// Every request kind survives frame + body encode/decode unchanged.
    #[test]
    fn requests_roundtrip_through_frames(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::new(seed);
        let req = arb_request(&mut rng);
        let framed = frame(&encode_request(&req));
        let (payload, consumed) = decode_frame(&framed)
            .map_err(|e| format!("frame rejected: {e}"))?
            .ok_or("frame incomplete")?;
        prop_assert_eq!(consumed, framed.len());
        let decoded = decode_request(payload).map_err(|e| format!("body rejected: {e}"))?;
        prop_assert_eq!(decoded, req);
    }

    /// Every response kind — including all thirteen error variants fed by
    /// `arb_txn_error` — survives the same round trip.
    #[test]
    fn responses_roundtrip_through_frames(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::new(seed);
        let resp = arb_response(&mut rng);
        let framed = frame(&encode_response(&resp));
        let (payload, consumed) = decode_frame(&framed)
            .map_err(|e| format!("frame rejected: {e}"))?
            .ok_or("frame incomplete")?;
        prop_assert_eq!(consumed, framed.len());
        let decoded = decode_response(payload).map_err(|e| format!("body rejected: {e}"))?;
        prop_assert_eq!(decoded, resp);
    }

    /// Truncating a valid frame at any point either asks for more bytes or
    /// fails cleanly — never panics, never yields a message.
    #[test]
    fn truncation_is_need_more_or_clean_error(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::new(seed);
        let framed = frame(&encode_request(&arb_request(&mut rng)));
        let cut = rng.below(framed.len() as u64) as usize;
        match decode_frame(&framed[..cut]) {
            Ok(None) | Err(_) => {}
            Ok(Some(_)) => prop_assert!(cut == framed.len(), "truncated frame decoded whole"),
        }
        // The truncated tail fed straight to the body decoder must also be
        // total (the reader only does this after a CRC pass, but the
        // decoder itself must not rely on that).
        let _ = decode_request(&framed[..cut]);
        let _ = decode_response(&framed[..cut]);
    }

    /// Flipping any single byte of a framed message is always detected:
    /// the decoder never returns the original message, and never panics.
    /// (A payload flip trips the CRC; a header flip changes the announced
    /// length, which yields need-more, too-large, or a CRC mismatch.)
    #[test]
    fn single_byte_flip_never_yields_the_message(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::new(seed);
        let req = arb_request(&mut rng);
        let mut framed = frame(&encode_request(&req));
        let pos = rng.below(framed.len() as u64) as usize;
        let bit = 1u8 << rng.below(8);
        framed[pos] ^= bit;
        match decode_frame(&framed) {
            Ok(None) | Err(_) => {}
            Ok(Some((payload, _))) => {
                // Reaching here would require a CRC collision; the decoded
                // body must at minimum not impersonate the original.
                if let Ok(decoded) = decode_request(payload) {
                    prop_assert_ne!(decoded, req);
                }
            }
        }
    }

    /// A header announcing more than the cap is rejected from the header
    /// alone, before any payload is buffered or allocated.
    #[test]
    fn oversized_length_rejected(extra in 1u32..=u32::MAX - (1u32 << 20), crc in 0u32..u32::MAX) {
        let len = MAX_FRAME_LEN + extra;
        let mut buf = Vec::with_capacity(FRAME_HEADER_LEN);
        buf.extend_from_slice(&len.to_le_bytes());
        buf.extend_from_slice(&crc.to_le_bytes());
        match decode_frame(&buf) {
            Err(WireError::FrameTooLarge { len: l, .. }) => prop_assert_eq!(l, len),
            other => prop_assert!(false, "expected FrameTooLarge, got {other:?}"),
        }
    }

    /// Arbitrary garbage bytes never panic any decoder entry point.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(0u8..=255, 0..64)) {
        let _ = decode_frame(&bytes);
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
        // And garbage wrapped in a *valid* frame exercises the body
        // decoders past the CRC gate.
        let framed = frame(&bytes);
        if let Ok(Some((payload, _))) = decode_frame(&framed) {
            let _ = decode_request(payload);
            let _ = decode_response(payload);
        }
    }
}

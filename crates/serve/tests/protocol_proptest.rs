//! Property tests for the wire protocol: arbitrary frames round-trip
//! exactly, arbitrary bytes — random, or mutations of valid frames —
//! decode to a typed error or a frame, never a panic, and the trailer's
//! CRC32C equals a bit-at-a-time reference at every length and alignment.

use arlo_serve::chaos::{ChaosConfig, FaultClass, FaultyStream};
use arlo_serve::protocol::{
    crc32c, read_frame, DecodeError, ErrorCode, Frame, FrameReader, ReadFrameError, StatsPayload,
    Sub, WireVersion, DEFAULT_TENANT, HEADER_LEN, MAGIC, MAX_BATCH, MAX_PAYLOAD,
};
use proptest::prelude::*;
use std::io::Read;

/// Build a frame from raw generated scalars; `kind` selects the variant.
/// Covers every frame type, handshake frames included.
fn frame_from(kind: u8, a: u64, b: u64, c: u64, d: u32) -> Frame {
    match kind % 9 {
        0 => Frame::Submit {
            id: a,
            length: d,
            tenant: c as u32,
        },
        1 => Frame::Response {
            id: a,
            generation: b,
            runtime_idx: (c >> 16) as u16,
            instance_idx: c as u16,
            latency_ns: b.rotate_left(17),
        },
        2 => Frame::Error {
            id: a,
            code: match b % 7 {
                0 => ErrorCode::Shed,
                1 => ErrorCode::Unserviceable,
                2 => ErrorCode::Draining,
                3 => ErrorCode::Protocol,
                4 => ErrorCode::UnknownTenant,
                5 => ErrorCode::Corrupt,
                _ => ErrorCode::Failed,
            },
        },
        3 => Frame::StatsRequest,
        4 => Frame::Stats(StatsPayload {
            generation: a,
            served: b,
            shed: c,
            outstanding: u64::from(d),
            reallocations: a ^ b,
        }),
        5 => Frame::Drain,
        6 => Frame::Hello {
            max_version: b as u8,
        },
        7 => Frame::HelloAck { version: c as u8 },
        _ => Frame::BatchedSubmit {
            subs: (0..u64::from(d % 4))
                .map(|i| Sub {
                    id: a.wrapping_add(i),
                    length: d,
                    tenant: (c >> i) as u32,
                })
                .collect(),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    fn arbitrary_frames_round_trip(
        kind in 0u8..=255,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        c in 0u64..u64::MAX,
        d in 0u32..=u32::MAX,
    ) {
        let frame = frame_from(kind, a, b, c, d);
        let bytes = frame.encode();
        let (decoded, consumed) = match Frame::decode(&bytes) {
            Ok(ok) => ok,
            Err(e) => return Err(TestCaseError(format!("{frame:?} failed to decode: {e}"))),
        };
        prop_assert_eq!(decoded, frame);
        prop_assert_eq!(consumed, bytes.len());
        // Streaming read agrees with buffer decode.
        let mut cursor = std::io::Cursor::new(bytes);
        match read_frame(&mut cursor) {
            Ok(Some(streamed)) => prop_assert_eq!(streamed, frame),
            other => prop_assert!(false, "streaming read of {:?}: {:?}", frame, other),
        }
    }

    fn decode_never_panics_on_random_bytes(
        bytes in proptest::collection::vec(0u8..=255, 0..96),
    ) {
        // Total decoding: any outcome is fine, panicking is not.
        let _ = Frame::decode(&bytes);
        let mut cursor = std::io::Cursor::new(bytes);
        let _ = read_frame(&mut cursor);
    }

    fn decode_never_panics_on_mutated_frames(
        kind in 0u8..=255,
        a in 0u64..u64::MAX,
        flip_at in 0usize..=63,
        flip_bits in 1u8..=255,
        truncate_to in 0usize..=63,
    ) {
        let mut bytes = frame_from(kind, a, a.rotate_left(13), a ^ 0xABCD, a as u32).encode();
        let at = flip_at % bytes.len();
        bytes[at] ^= flip_bits;
        let _ = Frame::decode(&bytes);
        bytes.truncate(truncate_to.min(bytes.len()));
        let _ = Frame::decode(&bytes);
        let mut cursor = std::io::Cursor::new(bytes);
        let _ = read_frame(&mut cursor);
    }

    fn header_corruption_yields_typed_errors(
        byte in 0u8..=255,
        pos in 0usize..4,
    ) {
        // Corrupting any of the first four header bytes of a valid frame
        // either leaves it valid or produces a typed error; a frame whose
        // header changed meaning must not decode to the original.
        let original = Frame::Submit { id: 1, length: 2, tenant: DEFAULT_TENANT };
        let mut bytes = original.encode();
        let before = bytes[pos];
        bytes[pos] = byte;
        match Frame::decode(&bytes) {
            Ok((decoded, consumed)) => {
                prop_assert_eq!(consumed, bytes.len());
                if byte == before {
                    prop_assert_eq!(decoded, original);
                }
            }
            Err(_) => prop_assert_ne!(byte, before, "pristine frame must decode"),
        }
        let _ = read_frame(&mut std::io::Cursor::new(bytes));
    }

    fn single_bit_flips_in_v2_frames_never_decode(
        kind in 0u8..=255,
        a in 0u64..u64::MAX,
        bit in 0usize..1 << 16,
    ) {
        // The v2 acceptance property: no single-bit flip anywhere in a
        // checksummed frame — header, payload, or trailer — ever yields a
        // successfully decoded frame. Flips past the version byte are
        // caught by the CRC specifically (typed, retryable
        // `ChecksumMismatch`); flips inside magic/version/length get their
        // own typed errors because those fields gate reading the trailer.
        let frame = frame_from(kind, a, a.rotate_left(7), a ^ 0x1234, a as u32);
        let bytes = frame.encode_v(WireVersion::V2);
        let bit = bit % (bytes.len() * 8);
        let (pos, shift) = (bit / 8, bit % 8);
        let mut mangled = bytes;
        mangled[pos] ^= 1u8 << shift;
        match Frame::decode(&mangled) {
            Ok((decoded, _)) => {
                return Err(TestCaseError(format!(
                    "bit {shift} of byte {pos} flipped yet decoded Ok: {decoded:?}"
                )));
            }
            Err(e) => match pos {
                0 | 1 => prop_assert!(matches!(e, DecodeError::BadMagic(_)), "magic flip: {e:?}"),
                // v2's version byte (0b10) can't reach v1 (0b01) in one
                // bit flip, so a flipped version is always unknown.
                2 => prop_assert!(matches!(e, DecodeError::BadVersion(_)), "version flip: {e:?}"),
                3 => prop_assert!(
                    matches!(e, DecodeError::ChecksumMismatch { .. }),
                    "type flip must fail the CRC before type parse: {e:?}"
                ),
                4..=7 => prop_assert!(
                    matches!(
                        e,
                        DecodeError::Oversized { .. }
                            | DecodeError::Truncated { .. }
                            | DecodeError::ChecksumMismatch { .. }
                    ),
                    "length flip: {e:?}"
                ),
                _ => prop_assert!(
                    matches!(e, DecodeError::ChecksumMismatch { .. }),
                    "payload/trailer flip at byte {}: {:?}", pos, e
                ),
            },
        }
    }

    fn every_frame_round_trips_at_its_dialect(
        kind in 0u8..=255,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        c in 0u64..u64::MAX,
        d in 0u32..=u32::MAX,
    ) {
        // One dialect per frame: the handshake travels at the v1
        // bootstrap (no trailer), everything else at v2 (trailer always),
        // and each decodes back to itself at exactly that version.
        let frame = frame_from(kind, a, b, c, d);
        let version = frame.dialect();
        let handshake = matches!(frame, Frame::Hello { .. } | Frame::HelloAck { .. });
        prop_assert_eq!(version == WireVersion::V1, handshake);
        let bytes = frame.encode_v(version);
        prop_assert_eq!(&bytes, &frame.encode());
        prop_assert_eq!(bytes[2], version.byte());
        let payload = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
        prop_assert_eq!(bytes.len(), HEADER_LEN + payload + version.trailer_len());
        match Frame::decode(&bytes) {
            Ok((decoded, consumed)) => {
                prop_assert_eq!(decoded, frame);
                prop_assert_eq!(consumed, bytes.len());
            }
            Err(e) => prop_assert!(false, "{:?} at its dialect failed to decode: {}", frame, e),
        }
    }

    fn version_byte_1_is_bad_version_for_every_data_type(
        raw_type in 0u8..=255,
        declared in 0u32..=u32::MAX,
        tail in proptest::collection::vec(0u8..=255, 0..48),
    ) {
        // Whatever follows the header — a well-formed old v1 payload, a
        // v2 one, garbage, or nothing yet — a non-handshake type under
        // version byte 1 is refused from the header alone, fatally.
        let frame_type = if matches!(raw_type, 8 | 9) { raw_type + 2 } else { raw_type };
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&[1, frame_type]);
        bytes.extend_from_slice(&declared.to_le_bytes());
        bytes.extend_from_slice(&tail);
        match Frame::decode(&bytes) {
            Err(e) => {
                prop_assert_eq!(e, DecodeError::BadVersion(1));
                prop_assert!(!e.resynchronizable());
            }
            Ok(ok) => prop_assert!(false, "v1 type {} decoded: {:?}", frame_type, ok),
        }
        match read_frame(&mut std::io::Cursor::new(bytes)) {
            Err(ReadFrameError::Decode(DecodeError::BadVersion(1))) => {}
            other => prop_assert!(false, "streaming read of v1 type {}: {:?}", frame_type, other),
        }
    }

    fn batched_submit_round_trips_arbitrary_batches(
        subs in proptest::collection::vec(
            (0u64..u64::MAX, 0u32..=u32::MAX, 0u32..=u32::MAX),
            0..=MAX_BATCH,
        ),
    ) {
        // BatchedSubmit round-trips any batch the protocol admits — empty
        // through MAX_BATCH, arbitrary tenant tags included.
        let frame = Frame::BatchedSubmit {
            subs: subs
                .iter()
                .map(|&(id, length, tenant)| Sub { id, length, tenant })
                .collect(),
        };
        let bytes = frame.encode_v(WireVersion::V2);
        match Frame::decode(&bytes) {
            Ok((decoded, consumed)) => {
                prop_assert_eq!(decoded, frame.clone());
                prop_assert_eq!(consumed, bytes.len());
            }
            Err(e) => {
                return Err(TestCaseError(format!(
                    "batch of {} failed to decode: {e}", subs.len()
                )));
            }
        }
        let mut cursor = std::io::Cursor::new(bytes);
        match read_frame(&mut cursor) {
            Ok(Some(streamed)) => prop_assert_eq!(streamed, frame),
            other => prop_assert!(false, "streaming batch read: {:?}", other),
        }
    }

    fn split_streams_reassemble(
        split in 1usize..=HEADER_LEN + 11,
        id in 0u64..u64::MAX,
        length in 0u32..=u32::MAX,
    ) {
        // A frame delivered in two TCP segments reads back whole.
        let frame = Frame::Submit { id, length, tenant: DEFAULT_TENANT };
        let bytes = frame.encode();
        let cut = split % bytes.len();
        let mut reader = std::io::Cursor::new(bytes[..cut].to_vec())
            .chain(std::io::Cursor::new(bytes[cut..].to_vec()));
        match read_frame(&mut reader) {
            Ok(Some(decoded)) => prop_assert_eq!(decoded, frame),
            other => prop_assert!(false, "split read failed: {:?}", other),
        }
    }

    fn tenant_tagged_submits_round_trip_at_v2(
        id in 0u64..u64::MAX,
        length in 0u32..=u32::MAX,
        tenant in 0u32..=u32::MAX,
    ) {
        // Any tenant id — default, dense registry index, or hostile
        // garbage — survives the v2 wire exactly; routing validity is the
        // server's concern, not the codec's.
        let frame = Frame::Submit { id, length, tenant };
        let bytes = frame.encode_v(WireVersion::V2);
        match Frame::decode(&bytes) {
            Ok((decoded, consumed)) => {
                prop_assert_eq!(decoded, frame);
                prop_assert_eq!(consumed, bytes.len());
            }
            Err(e) => prop_assert!(false, "tenant submit failed to decode: {}", e),
        }
    }
}

/// Feed every byte of `bytes` into `reader` (Cursor never blocks, so this
/// terminates once the cursor is drained).
fn fill_all(reader: &mut FrameReader, bytes: &[u8]) {
    let mut cursor = std::io::Cursor::new(bytes.to_vec());
    while reader.fill(&mut cursor).expect("cursor read cannot fail") > 0 {}
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    fn corrupted_length_prefix_yields_typed_errors(
        declared in 0u32..=u32::MAX,
        id in 0u64..u64::MAX,
    ) {
        // Overwrite the payload-length word of a valid frame, follow it
        // with an intact frame, and drive the reader: every outcome must
        // be a typed frame/error — no panic, no hang. A declared length
        // beyond MAX_PAYLOAD is unbounded-allocation bait and must be the
        // fatal Oversized error, never a resynchronizable skip.
        let mut bytes = (Frame::Submit { id, length: 3, tenant: DEFAULT_TENANT }).encode();
        bytes[4..8].copy_from_slice(&declared.to_le_bytes());
        bytes.extend_from_slice(
            &(Frame::Submit { id: id ^ 1, length: 7, tenant: DEFAULT_TENANT }).encode(),
        );
        let mut reader = FrameReader::new();
        fill_all(&mut reader, &bytes);
        let first = reader.next_frame();
        if declared > MAX_PAYLOAD {
            match first {
                Err(e @ DecodeError::Oversized { .. }) => prop_assert!(!e.resynchronizable()),
                other => prop_assert!(false, "declared {} must be Oversized, got {:?}", declared, other),
            }
        } else {
            // In-range but wrong length: the reader may skip the mangled
            // frame (resynchronizable) and then land mid-stream; drive to
            // quiescence — bounded because every step consumes ≥ HEADER_LEN
            // or ends the stream.
            let mut step = first;
            for _ in 0..8 {
                match step {
                    Ok(None) => break,
                    Err(ref e) if !e.resynchronizable() => break,
                    _ => step = reader.next_frame(),
                }
            }
        }
    }

    fn mid_frame_truncation_is_need_more_bytes(
        kind in 0u8..=255,
        a in 0u64..u64::MAX,
        cut in 0usize..64,
    ) {
        // A frame cut anywhere before its end is "need more bytes", never
        // an error; delivering the remainder completes it exactly.
        let frame = frame_from(kind, a, a.rotate_left(29), a ^ 0x55AA, a as u32);
        let bytes = frame.encode();
        let cut = cut % bytes.len();
        let mut reader = FrameReader::new();
        fill_all(&mut reader, &bytes[..cut]);
        match reader.next_frame() {
            Ok(None) => {}
            other => prop_assert!(false, "truncated at {} gave {:?}", cut, other),
        }
        fill_all(&mut reader, &bytes[cut..]);
        match reader.next_frame() {
            Ok(Some(decoded)) => prop_assert_eq!(decoded, frame),
            other => prop_assert!(false, "completion failed: {:?}", other),
        }
        prop_assert_eq!(reader.buffered(), 0);
    }

    fn partial_io_delivers_every_frame_intact(
        seed in 0u64..u64::MAX,
        count in 1usize..24,
    ) {
        // Pathological fragmentation (1–3 bytes per read, max intensity)
        // must reassemble the exact frame sequence: chaos may slow the
        // wire, never reorder or lose on it.
        let frames: Vec<Frame> = (0..count as u64)
            .map(|i| Frame::Submit { id: seed ^ i, length: i as u32, tenant: DEFAULT_TENANT })
            .collect();
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&f.encode());
        }
        let plan = ChaosConfig::new(FaultClass::PartialIo, 1.0, seed).plan_for(0);
        let mut faulty = FaultyStream::new(std::io::Cursor::new(wire), plan);
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        loop {
            while let Some(f) = reader.next_frame().expect("partial I/O never corrupts") {
                got.push(f);
            }
            if reader.fill(&mut faulty).expect("partial I/O never errors") == 0 {
                break;
            }
        }
        prop_assert_eq!(got, frames);
    }

    fn corrupting_stream_never_panics(
        seed in 0u64..u64::MAX,
        count in 1usize..24,
    ) {
        // Bit-flips on both the write and read paths: the reader must
        // terminate with only typed frames/errors. The iteration bound is
        // generous — each step consumes ≥ HEADER_LEN bytes or ends.
        let plan = ChaosConfig::new(FaultClass::Corrupt, 1.0, seed).plan_for(0);
        let mut out = FaultyStream::new(Vec::new(), plan);
        for i in 0..count as u64 {
            (Frame::Submit { id: i, length: i as u32, tenant: DEFAULT_TENANT })
                .write_to(&mut out)
                .expect("corruption never fails a Vec write");
        }
        let wire = out.into_inner();
        let read_plan = ChaosConfig::new(FaultClass::Corrupt, 1.0, seed ^ 0xDEAD).plan_for(1);
        let mut faulty = FaultyStream::new(std::io::Cursor::new(wire.clone()), read_plan);
        let mut reader = FrameReader::new();
        let mut quiesced = false;
        'drive: for _ in 0..wire.len() / HEADER_LEN + 4 {
            loop {
                match reader.next_frame() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(e) if e.resynchronizable() => {}
                    Err(_) => {
                        quiesced = true; // fatal desync: connection would close
                        break 'drive;
                    }
                }
            }
            if reader.fill(&mut faulty).expect("cursor read cannot fail") == 0 {
                quiesced = true; // EOF with all bytes processed
                break 'drive;
            }
        }
        prop_assert!(quiesced, "corrupt-stream drive did not quiesce");
    }
}

/// One byte into a CRC32C register, a bit at a time, with no table: the
/// reference the sliced [`crc32c`] must equal.
fn crc32c_bitwise_step(mut crc: u32, byte: u8) -> u32 {
    crc ^= u32::from(byte);
    for _ in 0..8 {
        crc = if crc & 1 != 0 {
            (crc >> 1) ^ 0x82F6_3B78
        } else {
            crc >> 1
        };
    }
    crc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    fn crc32c_matches_a_bit_at_a_time_reference(
        bytes in proptest::collection::vec(0u8..=255, 1_108),
    ) {
        // Every length 0–1 100 from every start offset 0–7: each slicing
        // step, each tail length and each word alignment. The reference
        // register runs along the buffer, so prefix `len` costs one step.
        for offset in 0..8 {
            let mut reference = !0u32;
            for len in 0..=1_100 {
                let sliced = crc32c(&bytes[offset..offset + len]);
                prop_assert_eq!(sliced, !reference, "offset {} length {}", offset, len);
                reference = crc32c_bitwise_step(reference, bytes[offset + len]);
            }
        }
    }
}

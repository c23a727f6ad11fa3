//! The `arlo-serve` wire protocol: length-prefixed, checksummed binary
//! frames.
//!
//! Every message on an `arlo-serve` TCP connection is one **frame**: an
//! 8-byte header followed by a fixed-layout payload and a 4-byte CRC32C
//! trailer. The header carries a two-byte magic (so a stray HTTP request
//! fails fast instead of being misparsed), a version byte, the frame type,
//! and the payload length:
//!
//! ```text
//! offset  0        2        3        4               8
//!         +--------+--------+--------+---------------+-- payload … --+----------+
//!         | magic  | version| type   | payload_len   |               | crc32c   |
//!         | 0xA770 | 2      | u8     | u32 LE        |               |          |
//!         +--------+--------+--------+---------------+---------------+----------+
//! ```
//!
//! All multi-byte integers are little-endian. Every frame type has exactly
//! one payload layout, fixed-size per type; a length mismatch is a
//! [`DecodeError::PayloadLength`], never a silent truncation. Decoding is
//! total: any byte sequence either yields a frame or a typed
//! [`DecodeError`] — it must never panic, which the protocol test suite
//! enforces over arbitrary inputs.
//!
//! | type | frame | direction | payload |
//! |---|---|---|---|
//! | 1 | [`Frame::Submit`] | client → server | `id: u64, length: u32, tenant: u32` |
//! | 2 | [`Frame::Response`] | server → client | `id, generation: u64, runtime_idx, instance_idx: u16, latency_ns: u64` |
//! | 3 | [`Frame::Error`] | server → client | `id: u64, code: u8` |
//! | 4 | [`Frame::StatsRequest`] | client → server | empty |
//! | 5 | [`Frame::Stats`] | server → client | five `u64` counters |
//! | 6 | [`Frame::Drain`] | client → server | empty |
//! | 7 | [`Frame::BatchedSubmit`] | client → server | `count: u32, count × (id: u64, length: u32, tenant: u32)` |
//! | 8 | [`Frame::Hello`] | client → server | `max_version: u8` |
//! | 9 | [`Frame::HelloAck`] | server → client | `version: u8` |
//!
//! ## One data dialect
//!
//! The version byte decides only whether a trailer follows. Version 2 is
//! the one data dialect: every frame carries the CRC32C trailer.
//! Version 1 (no trailer) is legal **only** for [`Frame::Hello`] and
//! [`Frame::HelloAck`] — the bootstrap every build decodes, so a future
//! client's `Hello` stays readable here. Any other frame under version
//! byte 1 is [`DecodeError::BadVersion`]`(1)`, which is framing-fatal: the
//! server answers a typed [`ErrorCode::Protocol`] and hangs up. Each frame
//! encodes at its [`Frame::dialect`], which is what [`Frame::encode`] and
//! [`Frame::write_to`] use.
//!
//! **Handshake.** A client may open with [`Frame::Hello`]`{max_version}`;
//! a server answers [`Frame::HelloAck`]`{version: 2}` when `max_version`
//! is at least 2, and a typed [`ErrorCode::Protocol`] disconnect
//! otherwise. The handshake is a version check, not a state machine: a
//! v2 frame describes itself, so a client that skips `Hello` is served
//! all the same.
//!
//! **Tenant routing.** A `Submit` (and every `BatchedSubmit` sub-request)
//! names the tenant stream it belongs to; single-tenant clients send
//! [`DEFAULT_TENANT`]. A submit naming a tenant the server does not host
//! is answered with the typed, terminal [`ErrorCode::UnknownTenant`] and
//! charged [`UNKNOWN_TENANT_COST`] points against the connection's
//! [`ErrorBudget`] — it is a peer bug, not line weather, but unlike
//! malformed framing the stream itself is intact.
//!
//! **Checksums.** The trailer is the CRC32C (Castagnoli, the iSCSI / NVMe
//! polynomial — chosen for its guaranteed detection of *every* single-bit
//! and double-bit error at these frame sizes, computed slicing-by-8 from
//! 8 KiB of const-built tables, in safe code with no dependency) of
//! everything after the magic: version byte, type byte, payload length,
//! and payload. A frame whose trailer disagrees decodes to the typed,
//! *resynchronizable* [`DecodeError::ChecksumMismatch`] — the header's
//! declared extent is skipped and the stream continues. This is what makes line corruption
//! *nameable*: the receiver refuses the frame instead of answering a
//! bit-flipped question, and the server answers a retryable
//! [`ErrorCode::Corrupt`] so the client resends.
//!
//! **Batching.** [`Frame::BatchedSubmit`] carries up to [`MAX_BATCH`]
//! submits in one frame, amortizing header, checksum, and syscall cost;
//! the server answers each sub-request with its own
//! [`Frame::Response`]/[`Frame::Error`].

use std::io::{Read, Write};

/// Frame magic: every frame starts with these two bytes.
pub const MAGIC: [u8; 2] = [0xA7, 0x70];

/// Header length in bytes (magic + version + type + payload length).
pub const HEADER_LEN: usize = 8;

/// Length of the v2 integrity trailer (CRC32C, little-endian).
pub const CHECKSUM_LEN: usize = 4;

/// Upper bound on payload length. All defined frames — including a
/// [`MAX_BATCH`]-sized [`Frame::BatchedSubmit`] — are smaller; a larger
/// advertised length is a corrupt or hostile frame and is rejected before
/// any allocation.
pub const MAX_PAYLOAD: u32 = 8192;

/// Most sub-requests one [`Frame::BatchedSubmit`] may carry
/// (`4 + 16 · MAX_BATCH` payload bytes stay under [`MAX_PAYLOAD`]).
pub const MAX_BATCH: usize = 256;

/// The tenant a single-tenant server hosts, and the one every server
/// hosts: submits from clients that know nothing of tenancy name it.
/// Tenant ids are dense indices into the server's tenant registry.
pub const DEFAULT_TENANT: u32 = 0;

/// A version byte this build can decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WireVersion {
    /// The unchecksummed bootstrap: legal only for `Hello`/`HelloAck`.
    V1,
    /// Checksummed frames — the one data dialect.
    V2,
}

impl WireVersion {
    /// The newest version this build speaks (what a `Hello` offers).
    pub const MAX: WireVersion = WireVersion::V2;

    /// The version byte this version encodes as.
    pub fn byte(self) -> u8 {
        match self {
            WireVersion::V1 => 1,
            WireVersion::V2 => 2,
        }
    }

    /// Parse a version byte; `None` for versions this build cannot speak.
    pub fn from_byte(b: u8) -> Option<WireVersion> {
        match b {
            1 => Some(WireVersion::V1),
            2 => Some(WireVersion::V2),
            _ => None,
        }
    }

    /// Bytes of integrity trailer a frame of this version carries.
    pub fn trailer_len(self) -> usize {
        match self {
            WireVersion::V1 => 0,
            WireVersion::V2 => CHECKSUM_LEN,
        }
    }
}

// --------------------------------------------------------------------------
// CRC32C (Castagnoli), reflected polynomial 0x82F63B78 — slicing-by-8,
// dependency-free, const-built.
// --------------------------------------------------------------------------

/// Eight 256-entry tables (8 KiB). Table 0 is the bytewise table: the CRC
/// of one byte. Table `k` advances table `k − 1`'s entry by one zero byte,
/// so `TABLES[k][b]` is byte `b`'s contribution from `k` bytes back and one
/// step folds eight bytes with eight lookups.
const fn build_crc32c_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0x82F6_3B78
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC32C_TABLES: [[u32; 256]; 8] = build_crc32c_tables();

/// CRC32C (Castagnoli) of `bytes`, as used by the v2 frame trailer: eight
/// bytes per step, the tail of fewer than eight one byte at a time.
pub fn crc32c(bytes: &[u8]) -> u32 {
    let t = &CRC32C_TABLES;
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Why the server answered a request with [`Frame::Error`] instead of a
/// [`Frame::Response`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The admission/shedding layer refused the request under overload —
    /// every candidate instance was congestion-gated or the tenant's SLO
    /// class had its admission share in flight. The client may retry
    /// elsewhere or later.
    Shed = 1,
    /// No compiled runtime can serve the request's length; retrying is
    /// pointless.
    Unserviceable = 2,
    /// The server is draining and no longer accepts new work.
    Draining = 3,
    /// The execution failed on the backend (the failure has been reported
    /// into the engine's health layer). The client may retry.
    Failed = 4,
    /// The peer violated the protocol (malformed frames beyond the
    /// connection's error budget, or a refused connection): the connection
    /// is about to close. Sent with the sentinel id
    /// [`CONN_ERROR_ID`] because it concerns the connection, not any one
    /// request. The client should reconnect before retrying.
    Protocol = 5,
    /// A frame arrived whose checksum did not match: the line (not the
    /// peer) mangled it, so the server cannot know which request it
    /// carried. Sent with [`CONN_ERROR_ID`]; the connection stays open and
    /// the client should retry whatever it has in flight — a corrupted
    /// submit is refused, never answered as if it were intent.
    Corrupt = 6,
    /// The submit named a tenant this server does not host. Terminal for
    /// the request — retrying cannot conjure the tenant — and a peer bug,
    /// so the server also charges [`UNKNOWN_TENANT_COST`] points against
    /// the connection's [`ErrorBudget`]. Never sent for
    /// [`DEFAULT_TENANT`], which every server hosts.
    UnknownTenant = 7,
}

/// The request-id sentinel used on connection-level [`Frame::Error`]s
/// ([`ErrorCode::Protocol`], [`ErrorCode::Corrupt`], and
/// [`ErrorCode::Shed`] on a refused connection): the error describes the
/// connection itself, not a request, so no real request id fits. Real ids
/// are never `u64::MAX` by contract.
pub const CONN_ERROR_ID: u64 = u64::MAX;

impl ErrorCode {
    fn from_u8(code: u8) -> Result<Self, DecodeError> {
        match code {
            1 => Ok(ErrorCode::Shed),
            2 => Ok(ErrorCode::Unserviceable),
            3 => Ok(ErrorCode::Draining),
            4 => Ok(ErrorCode::Failed),
            5 => Ok(ErrorCode::Protocol),
            6 => Ok(ErrorCode::Corrupt),
            7 => Ok(ErrorCode::UnknownTenant),
            other => Err(DecodeError::BadErrorCode(other)),
        }
    }
}

/// The server-side counters reported in a [`Frame::Stats`] response.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsPayload {
    /// Current deployment generation of the engine.
    pub generation: u64,
    /// Requests completed and answered with [`Frame::Response`].
    pub served: u64,
    /// Requests refused with [`ErrorCode::Shed`] or [`ErrorCode::Draining`].
    pub shed: u64,
    /// Requests admitted but not yet completed.
    pub outstanding: u64,
    /// Replacement plans applied since the server started.
    pub reallocations: u64,
}

/// One sub-request inside a [`Frame::BatchedSubmit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sub {
    /// Client-chosen request identifier, echoed back verbatim.
    pub id: u64,
    /// Input sequence length in tokens.
    pub length: u32,
    /// Tenant stream this sub-request addresses ([`DEFAULT_TENANT`] on a
    /// single-tenant server).
    pub tenant: u32,
}

/// One protocol frame. See the module docs for the wire layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Client submits a request of `length` tokens.
    Submit {
        /// Client-chosen request identifier, echoed back verbatim.
        id: u64,
        /// Input sequence length in tokens.
        length: u32,
        /// Tenant stream to route to ([`DEFAULT_TENANT`] on a
        /// single-tenant server).
        tenant: u32,
    },
    /// Server reports a completed execution.
    Response {
        /// The id of the completed request.
        id: u64,
        /// Deployment generation the request executed under.
        generation: u64,
        /// Runtime level the request was dispatched to.
        runtime_idx: u16,
        /// Instance index within that runtime.
        instance_idx: u16,
        /// Dispatch → completion latency in (virtual) nanoseconds.
        latency_ns: u64,
    },
    /// Server refuses a request.
    Error {
        /// The id of the refused request.
        id: u64,
        /// Why it was refused.
        code: ErrorCode,
    },
    /// Client asks for a [`Frame::Stats`] snapshot.
    StatsRequest,
    /// Server-side counters.
    Stats(StatsPayload),
    /// Client asks the server to drain gracefully: stop accepting, flush
    /// outstanding work, then close.
    Drain,
    /// Up to [`MAX_BATCH`] submits in one frame: one header, one
    /// checksum, one syscall. Each sub-request is answered individually.
    BatchedSubmit {
        /// The batched sub-requests, in submission order.
        subs: Vec<Sub>,
    },
    /// Version check opener (client → server): the newest version byte
    /// the client speaks. v1-framed (the bootstrap every build decodes).
    Hello {
        /// The client's [`WireVersion::byte`] ceiling.
        max_version: u8,
    },
    /// Version check answer (server → client): always 2 from this build.
    /// v1-framed, like `Hello`.
    HelloAck {
        /// The [`WireVersion::byte`] the server speaks.
        version: u8,
    },
}

/// A frame failed to decode. Resynchronizable variants are line corruption
/// or a peer mistake with a known byte extent; the rest mean framing is
/// lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The first two bytes were not [`MAGIC`].
    BadMagic([u8; 2]),
    /// The version byte named a version this build cannot speak, or
    /// version 1 on a frame other than `Hello`/`HelloAck`.
    BadVersion(u8),
    /// Unknown frame-type byte.
    BadFrameType(u8),
    /// Advertised payload length exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// The advertised payload length.
        len: u32,
    },
    /// The buffer ended before the full frame: `needed` bytes required,
    /// `got` available. When decoding from a stream this means "read more";
    /// from a closed connection it means the peer hung up mid-frame.
    Truncated {
        /// Total bytes the frame requires.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// Payload length does not match the frame type's fixed layout.
    PayloadLength {
        /// The offending frame-type byte.
        frame_type: u8,
        /// The layout's required payload length.
        expected: usize,
        /// The advertised payload length.
        got: usize,
    },
    /// Unknown [`ErrorCode`] discriminant in an error frame.
    BadErrorCode(u8),
    /// A v2 frame's CRC32C trailer disagreed with its contents: the line
    /// corrupted the frame. The declared extent is still skippable, so the
    /// stream continues — this is the error that turns corruption from a
    /// terminal misparse into a retry.
    ChecksumMismatch {
        /// The CRC32C computed over the received bytes.
        computed: u32,
        /// The CRC32C the trailer claimed.
        stored: u32,
    },
    /// A [`Frame::BatchedSubmit`] declared more than [`MAX_BATCH`]
    /// sub-requests.
    BatchTooLarge {
        /// The declared sub-request count.
        count: u32,
    },
}

impl DecodeError {
    /// Whether the byte stream can keep being decoded after this error.
    ///
    /// A *resynchronizable* error means the offending frame's header was
    /// intact (magic, version, and a sane payload length), so its exact
    /// byte extent is known and can be skipped — decoding continues at the
    /// next frame boundary. This is what lets a server charge malformed
    /// frames against a per-connection error budget instead of dropping
    /// the connection on the first one.
    ///
    /// Non-resynchronizable errors (bad magic, bad version, an absurd
    /// declared length, or a truncation) mean framing itself is lost: the
    /// only safe recovery is closing the connection.
    pub fn resynchronizable(&self) -> bool {
        matches!(
            self,
            DecodeError::BadFrameType(_)
                | DecodeError::PayloadLength { .. }
                | DecodeError::BadErrorCode(_)
                | DecodeError::ChecksumMismatch { .. }
                | DecodeError::BatchTooLarge { .. }
        )
    }

    /// How many budget points this error costs (see [`ErrorBudget`]).
    ///
    /// A checksum mismatch is *clean* corruption — the frame named its own
    /// extent, the stream resynchronizes exactly, and the client gets a
    /// retryable verdict — so it costs a single point and only *sustained*
    /// corruption escalates. Other resynchronizable errors mean the peer
    /// sent well-framed garbage (unknown type, wrong layout), which is a
    /// peer bug rather than line weather, and cost [`GARBAGE_ERROR_COST`].
    pub fn budget_cost(&self) -> u32 {
        match self {
            DecodeError::ChecksumMismatch { .. } => CHECKSUM_ERROR_COST,
            _ => GARBAGE_ERROR_COST,
        }
    }
}

/// Every connection's [`ErrorBudget`] in points: 32 isolated checksum
/// failures, or 8 well-framed garbage frames.
pub const FRAME_ERROR_BUDGET: u32 = 32;
/// Budget points one [`DecodeError::ChecksumMismatch`] costs.
pub const CHECKSUM_ERROR_COST: u32 = 1;
/// Budget points any other resynchronizable decode error costs.
pub const GARBAGE_ERROR_COST: u32 = 4;
/// Budget points one submit naming an unknown tenant costs. The frame
/// decoded cleanly — framing is intact — but the peer is addressing a
/// tenant that does not exist, which is a configuration or software bug
/// on its side: cheaper than well-framed garbage (the stream itself is
/// healthy), dearer than line corruption (the line did nothing wrong).
pub const UNKNOWN_TENANT_COST: u32 = 2;

/// The per-connection malformed-frame budget: a leaky bucket of points.
///
/// Every resynchronizable [`DecodeError`] spends [`DecodeError::budget_cost`]
/// points; every successfully decoded frame restores one point (up to the
/// configured maximum). Escalation to a disconnect therefore requires
/// *sustained* corruption — a trickle of checksum failures on an otherwise
/// healthy connection recovers, while a stream that has degenerated into
/// noise exhausts the bucket and earns a typed
/// [`ErrorCode::Protocol`] disconnect. Non-resynchronizable errors are not
/// budgetable at all: framing is lost and [`ErrorBudget::charge`] says
/// disconnect immediately.
#[derive(Debug, Clone)]
pub struct ErrorBudget {
    points: u32,
    max: u32,
}

impl ErrorBudget {
    /// A full bucket of `max_points`.
    pub fn new(max_points: u32) -> Self {
        ErrorBudget {
            points: max_points,
            max: max_points,
        }
    }

    /// Charge one decode error. Returns `true` if the connection survives,
    /// `false` if it must disconnect (framing lost, or budget exhausted).
    pub fn charge(&mut self, e: &DecodeError) -> bool {
        if !e.resynchronizable() {
            return false;
        }
        let cost = e.budget_cost();
        if self.points < cost {
            self.points = 0;
            return false;
        }
        self.points -= cost;
        true
    }

    /// Charge a flat point cost for a protocol-level offence that is not a
    /// decode error — a well-formed submit naming an unknown tenant costs
    /// [`UNKNOWN_TENANT_COST`]. Returns `true` if the connection survives.
    pub fn charge_points(&mut self, cost: u32) -> bool {
        if self.points < cost {
            self.points = 0;
            return false;
        }
        self.points -= cost;
        true
    }

    /// A good frame decoded: restore one point, up to the bucket maximum.
    pub fn credit(&mut self) {
        self.points = (self.points + 1).min(self.max);
    }

    /// Points left before escalation.
    pub fn remaining(&self) -> u32 {
        self.points
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            DecodeError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            DecodeError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (data frames are v{}; v1 carries only \
                     Hello/HelloAck)",
                    WireVersion::MAX.byte()
                )
            }
            DecodeError::BadFrameType(t) => write!(f, "unknown frame type {t}"),
            DecodeError::Oversized { len } => {
                write!(f, "payload length {len} exceeds maximum {MAX_PAYLOAD}")
            }
            DecodeError::Truncated { needed, got } => {
                write!(f, "truncated frame: need {needed} bytes, have {got}")
            }
            DecodeError::PayloadLength {
                frame_type,
                expected,
                got,
            } => write!(
                f,
                "frame type {frame_type} requires a {expected}-byte payload, got {got}"
            ),
            DecodeError::BadErrorCode(c) => write!(f, "unknown error code {c}"),
            DecodeError::ChecksumMismatch { computed, stored } => write!(
                f,
                "frame checksum mismatch: computed {computed:08x}, trailer says {stored:08x}"
            ),
            DecodeError::BatchTooLarge { count } => {
                write!(f, "batched submit declares {count} subs (max {MAX_BATCH})")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

const TYPE_SUBMIT: u8 = 1;
const TYPE_RESPONSE: u8 = 2;
const TYPE_ERROR: u8 = 3;
const TYPE_STATS_REQUEST: u8 = 4;
const TYPE_STATS: u8 = 5;
const TYPE_DRAIN: u8 = 6;
/// `BatchedSubmit`'s frame-type byte.
pub const TYPE_BATCHED_SUBMIT: u8 = 7;
const TYPE_HELLO: u8 = 8;
const TYPE_HELLO_ACK: u8 = 9;

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn get_u16(buf: &[u8], at: usize) -> u16 {
    u16::from_le_bytes(buf[at..at + 2].try_into().expect("bounds checked"))
}

fn get_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(buf[at..at + 4].try_into().expect("bounds checked"))
}

fn get_u64(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().expect("bounds checked"))
}

/// Total byte extent of the frame whose (intact) header starts `buf` —
/// header, payload, and the version's trailer.
fn header_extent(buf: &[u8]) -> usize {
    let trailer = WireVersion::from_byte(buf[2]).map_or(0, WireVersion::trailer_len);
    HEADER_LEN + get_u32(buf, 4) as usize + trailer
}

impl Frame {
    /// The frame-type byte this frame encodes as.
    pub fn frame_type(&self) -> u8 {
        match self {
            Frame::Submit { .. } => TYPE_SUBMIT,
            Frame::Response { .. } => TYPE_RESPONSE,
            Frame::Error { .. } => TYPE_ERROR,
            Frame::StatsRequest => TYPE_STATS_REQUEST,
            Frame::Stats(_) => TYPE_STATS,
            Frame::Drain => TYPE_DRAIN,
            Frame::BatchedSubmit { .. } => TYPE_BATCHED_SUBMIT,
            Frame::Hello { .. } => TYPE_HELLO,
            Frame::HelloAck { .. } => TYPE_HELLO_ACK,
        }
    }

    /// The version this frame travels at: the v1 bootstrap for
    /// `Hello`/`HelloAck`, v2 for everything else.
    pub fn dialect(&self) -> WireVersion {
        match self {
            Frame::Hello { .. } | Frame::HelloAck { .. } => WireVersion::V1,
            _ => WireVersion::V2,
        }
    }

    /// Append this frame, encoded at `version`, to `buf` — the reusable-
    /// buffer encode path that avoids a `Vec` per frame. The payload
    /// layout is the frame type's one layout; `version` only decides the
    /// version byte and whether the trailer follows, so a data frame
    /// written at v1 is one every decoder refuses.
    pub fn encode_into(&self, version: WireVersion, buf: &mut Vec<u8>) {
        let start = buf.len();
        buf.extend_from_slice(&MAGIC);
        buf.push(version.byte());
        buf.push(self.frame_type());
        buf.extend_from_slice(&[0u8; 4]); // payload length, backpatched
        let payload_at = buf.len();
        match *self {
            Frame::Submit { id, length, tenant } => {
                put_u64(buf, id);
                put_u32(buf, length);
                put_u32(buf, tenant);
            }
            Frame::Response {
                id,
                generation,
                runtime_idx,
                instance_idx,
                latency_ns,
            } => {
                put_u64(buf, id);
                put_u64(buf, generation);
                buf.extend_from_slice(&runtime_idx.to_le_bytes());
                buf.extend_from_slice(&instance_idx.to_le_bytes());
                put_u64(buf, latency_ns);
            }
            Frame::Error { id, code } => {
                put_u64(buf, id);
                buf.push(code as u8);
            }
            Frame::StatsRequest | Frame::Drain => {}
            Frame::Stats(s) => {
                put_u64(buf, s.generation);
                put_u64(buf, s.served);
                put_u64(buf, s.shed);
                put_u64(buf, s.outstanding);
                put_u64(buf, s.reallocations);
            }
            Frame::BatchedSubmit { ref subs } => {
                assert!(subs.len() <= MAX_BATCH, "batch exceeds MAX_BATCH");
                put_u32(buf, subs.len() as u32);
                for sub in subs {
                    put_u64(buf, sub.id);
                    put_u32(buf, sub.length);
                    put_u32(buf, sub.tenant);
                }
            }
            Frame::Hello { max_version } => buf.push(max_version),
            Frame::HelloAck { version } => buf.push(version),
        }
        let payload_len = (buf.len() - payload_at) as u32;
        buf[start + 4..start + 8].copy_from_slice(&payload_len.to_le_bytes());
        if version == WireVersion::V2 {
            let crc = crc32c(&buf[start + 2..]);
            buf.extend_from_slice(&crc.to_le_bytes());
        }
    }

    /// Serialize at `version` into a fresh byte vector.
    pub fn encode_v(&self, version: WireVersion) -> Vec<u8> {
        let mut buf = Vec::with_capacity(HEADER_LEN + 40 + version.trailer_len());
        self.encode_into(version, &mut buf);
        buf
    }

    /// Serialize at the frame's [`Frame::dialect`].
    pub fn encode(&self) -> Vec<u8> {
        self.encode_v(self.dialect())
    }

    /// Decode one frame from the front of `buf`. On success returns the
    /// frame and the number of bytes consumed. [`DecodeError::Truncated`]
    /// means the buffer does not yet hold the whole frame.
    ///
    /// The frame's own version byte says whether a trailer follows: v2
    /// frames carry — and must pass — their checksum; v1 is accepted for
    /// `Hello`/`HelloAck` only, and is [`DecodeError::BadVersion`]`(1)` on
    /// every other type, decided from the header alone.
    pub fn decode(buf: &[u8]) -> Result<(Frame, usize), DecodeError> {
        if buf.len() < HEADER_LEN {
            return Err(DecodeError::Truncated {
                needed: HEADER_LEN,
                got: buf.len(),
            });
        }
        if buf[0..2] != MAGIC {
            return Err(DecodeError::BadMagic([buf[0], buf[1]]));
        }
        let Some(version) = WireVersion::from_byte(buf[2]) else {
            return Err(DecodeError::BadVersion(buf[2]));
        };
        let frame_type = buf[3];
        if version == WireVersion::V1 && !matches!(frame_type, TYPE_HELLO | TYPE_HELLO_ACK) {
            return Err(DecodeError::BadVersion(buf[2]));
        }
        let payload_len = get_u32(buf, 4);
        if payload_len > MAX_PAYLOAD {
            return Err(DecodeError::Oversized { len: payload_len });
        }
        let total = HEADER_LEN + payload_len as usize + version.trailer_len();
        if buf.len() < total {
            return Err(DecodeError::Truncated {
                needed: total,
                got: buf.len(),
            });
        }
        // v2: verify integrity *before* interpreting type or payload, so a
        // flipped type byte surfaces as the retryable ChecksumMismatch,
        // never as a misleading BadFrameType.
        if version == WireVersion::V2 {
            let body_end = HEADER_LEN + payload_len as usize;
            let computed = crc32c(&buf[2..body_end]);
            let stored = get_u32(buf, body_end);
            if computed != stored {
                return Err(DecodeError::ChecksumMismatch { computed, stored });
            }
        }
        let p = &buf[HEADER_LEN..HEADER_LEN + payload_len as usize];
        let expect = |expected: usize| -> Result<(), DecodeError> {
            if p.len() == expected {
                Ok(())
            } else {
                Err(DecodeError::PayloadLength {
                    frame_type,
                    expected,
                    got: p.len(),
                })
            }
        };
        let frame = match frame_type {
            TYPE_SUBMIT => {
                expect(16)?;
                Frame::Submit {
                    id: get_u64(p, 0),
                    length: get_u32(p, 8),
                    tenant: get_u32(p, 12),
                }
            }
            TYPE_RESPONSE => {
                expect(28)?;
                Frame::Response {
                    id: get_u64(p, 0),
                    generation: get_u64(p, 8),
                    runtime_idx: get_u16(p, 16),
                    instance_idx: get_u16(p, 18),
                    latency_ns: get_u64(p, 20),
                }
            }
            TYPE_ERROR => {
                expect(9)?;
                Frame::Error {
                    id: get_u64(p, 0),
                    code: ErrorCode::from_u8(p[8])?,
                }
            }
            TYPE_STATS_REQUEST => {
                expect(0)?;
                Frame::StatsRequest
            }
            TYPE_STATS => {
                expect(40)?;
                Frame::Stats(StatsPayload {
                    generation: get_u64(p, 0),
                    served: get_u64(p, 8),
                    shed: get_u64(p, 16),
                    outstanding: get_u64(p, 24),
                    reallocations: get_u64(p, 32),
                })
            }
            TYPE_DRAIN => {
                expect(0)?;
                Frame::Drain
            }
            TYPE_BATCHED_SUBMIT => {
                if p.len() < 4 {
                    return Err(DecodeError::PayloadLength {
                        frame_type,
                        expected: 4,
                        got: p.len(),
                    });
                }
                let count = get_u32(p, 0);
                if count as usize > MAX_BATCH {
                    return Err(DecodeError::BatchTooLarge { count });
                }
                expect(4 + 16 * count as usize)?;
                let subs = (0..count as usize)
                    .map(|i| Sub {
                        id: get_u64(p, 4 + 16 * i),
                        length: get_u32(p, 12 + 16 * i),
                        tenant: get_u32(p, 16 + 16 * i),
                    })
                    .collect();
                Frame::BatchedSubmit { subs }
            }
            TYPE_HELLO => {
                expect(1)?;
                Frame::Hello { max_version: p[0] }
            }
            TYPE_HELLO_ACK => {
                expect(1)?;
                Frame::HelloAck { version: p[0] }
            }
            other => return Err(DecodeError::BadFrameType(other)),
        };
        Ok((frame, total))
    }

    /// Write the frame, encoded at `version`, to `w` in one `write_all`
    /// (callers serialize concurrent writers per connection so frames
    /// never interleave).
    pub fn write_to_v(&self, w: &mut impl Write, version: WireVersion) -> std::io::Result<()> {
        w.write_all(&self.encode_v(version))
    }

    /// Write the frame, encoded at its [`Frame::dialect`], to `w` in one
    /// `write_all`.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        self.write_to_v(w, self.dialect())
    }
}

/// Why [`read_frame`] stopped.
#[derive(Debug)]
pub enum ReadFrameError {
    /// The underlying stream failed mid-frame.
    Io(std::io::Error),
    /// The bytes read do not form a valid frame.
    Decode(DecodeError),
}

impl std::fmt::Display for ReadFrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadFrameError::Io(e) => write!(f, "i/o error reading frame: {e}"),
            ReadFrameError::Decode(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for ReadFrameError {}

impl From<std::io::Error> for ReadFrameError {
    fn from(e: std::io::Error) -> Self {
        ReadFrameError::Io(e)
    }
}

/// Read exactly one frame from a blocking stream. Returns `Ok(None)` on a
/// clean EOF at a frame boundary; EOF mid-frame is reported as
/// [`DecodeError::Truncated`]. Version-aware, like [`Frame::decode`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>, ReadFrameError> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0;
    while filled < HEADER_LEN {
        match r.read(&mut header[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(None); // clean EOF between frames
                }
                return Err(ReadFrameError::Decode(DecodeError::Truncated {
                    needed: HEADER_LEN,
                    got: filled,
                }));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    // Validate the header before reading the payload so oversized or
    // corrupt lengths never drive allocation or a long blocking read.
    match Frame::decode(&header) {
        // Header alone decoded (no frame type is that short today; kept so
        // reading stays total over every decode outcome).
        Ok((frame, consumed)) => {
            debug_assert_eq!(consumed, HEADER_LEN);
            Ok(Some(frame))
        }
        Err(DecodeError::Truncated { needed, .. }) => {
            let mut buf = vec![0u8; needed];
            buf[..HEADER_LEN].copy_from_slice(&header);
            let mut filled = HEADER_LEN;
            while filled < needed {
                match r.read(&mut buf[filled..]) {
                    Ok(0) => {
                        return Err(ReadFrameError::Decode(DecodeError::Truncated {
                            needed,
                            got: filled,
                        }))
                    }
                    Ok(n) => filled += n,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e.into()),
                }
            }
            let (frame, consumed) = Frame::decode(&buf).map_err(ReadFrameError::Decode)?;
            debug_assert_eq!(consumed, needed);
            Ok(Some(frame))
        }
        Err(other) => Err(ReadFrameError::Decode(other)),
    }
}

/// Check versions with the server: send [`Frame::Hello`] offering
/// [`WireVersion::MAX`], block for the [`Frame::HelloAck`], and return the
/// version it names. Any other reply (a server refusing the connection
/// answers a typed error instead) is reported as
/// [`std::io::ErrorKind::InvalidData`].
///
/// Blocking reads honour the stream's read timeout; callers that need a
/// finer-grained deadline (the chaos client) hand-roll the same exchange
/// over a [`FrameReader`].
pub fn client_handshake<S: Read + Write>(stream: &mut S) -> std::io::Result<WireVersion> {
    Frame::Hello {
        max_version: WireVersion::MAX.byte(),
    }
    .write_to(stream)?;
    match read_frame(stream) {
        Ok(Some(Frame::HelloAck { version })) => WireVersion::from_byte(version)
            .map(|v| v.min(WireVersion::MAX))
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("server acked unknown protocol version {version}"),
                )
            }),
        Ok(Some(other)) => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("expected HelloAck, got frame type {}", other.frame_type()),
        )),
        Ok(None) => Err(std::io::ErrorKind::UnexpectedEof.into()),
        Err(ReadFrameError::Io(e)) => Err(e),
        Err(ReadFrameError::Decode(e)) => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("handshake reply failed to decode: {e}"),
        )),
    }
}

/// Bytes [`FrameReader::fill`] asks its transport for per `read`. 32 KiB:
/// small frames mean a reader doing one read per frame cannot keep up with
/// a response storm; bulk fills keep consumption comfortably above any
/// production rate. A fill that returns fewer found the transport drained.
pub const FILL_CHUNK: usize = 32 * 1024;

/// An incremental frame decoder for streams that deliver bytes in
/// arbitrary fragments — short TCP segments, slowloris peers, chaos-mode
/// partial reads — and possibly with a socket read timeout armed.
///
/// Unlike [`read_frame`], which performs blocking reads until a whole
/// frame arrives (and therefore loses its partial state if a read times
/// out), a `FrameReader` buffers across calls:
///
/// - [`FrameReader::fill`] performs **one** `read` into the internal
///   buffer and reports how many bytes arrived (`Ok(0)` is EOF). A timeout
///   (`WouldBlock`/`TimedOut`) surfaces as the `Err` it is, with the
///   partial frame safely retained for the next call — this is what makes
///   per-connection read timeouts compatible with fragmented frames.
/// - [`FrameReader::next_frame`] decodes the next buffered frame:
///   `Ok(Some(frame))`, `Ok(None)` ("need more bytes"), or a typed
///   [`DecodeError`]. When the error is
///   [resynchronizable](DecodeError::resynchronizable), the offending
///   frame's bytes have been consumed and decoding may continue — callers
///   implement an error *budget* rather than a hair-trigger disconnect.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    start: usize,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Bytes currently buffered but not yet decoded.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Perform one `read` from `r` into the buffer. Returns the byte count
    /// (`Ok(0)` = EOF). Timeouts and other I/O errors pass through
    /// untouched; buffered partial frames survive them.
    pub fn fill(&mut self, r: &mut impl Read) -> std::io::Result<usize> {
        // Reclaim consumed prefix before growing the buffer further.
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        let mut chunk = [0u8; FILL_CHUNK];
        let n = r.read(&mut chunk)?;
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(n)
    }

    /// Decode the next frame from the buffer. `Ok(None)` means the buffer
    /// holds only a partial frame — [`fill`](FrameReader::fill) more. On a
    /// resynchronizable [`DecodeError`] the bad frame is consumed and the
    /// next call resumes at the following frame boundary; on any other
    /// error the stream is unrecoverable and the connection should close.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, DecodeError> {
        let avail = &self.buf[self.start..];
        match Frame::decode(avail) {
            Ok((frame, consumed)) => {
                self.start += consumed;
                Ok(Some(frame))
            }
            Err(DecodeError::Truncated { .. }) => Ok(None),
            Err(e) => {
                if e.resynchronizable() {
                    // Header was intact, so the frame's extent — payload
                    // plus its version's trailer — is known: skip exactly
                    // that frame and keep the stream alive.
                    self.start += header_extent(avail);
                    debug_assert!(self.start <= self.buf.len());
                }
                Err(e)
            }
        }
    }
}

/// The write-side twin of [`FrameReader`]: an incremental frame *encoder*
/// for non-blocking transports that accept bytes in arbitrary amounts.
///
/// A blocking writer can loop `write_all` until a frame is out; an event
/// loop cannot — a `WouldBlock` mid-frame must leave the
/// remaining bytes buffered and resume exactly where it stopped once the
/// socket turns writable. A `FrameWriteBuf` owns that state:
///
/// - [`FrameWriteBuf::push`] appends a frame's full encoding (at the
///   version the caller names — the frame's [`Frame::dialect`] for a
///   conforming peer) and remembers its end offset.
/// - [`FrameWriteBuf::write_some`] performs **one** `write` of everything
///   still pending and returns how many whole frames that attempt
///   completed — the unit the server's `queued_frames` accounting is kept
///   in. `WouldBlock` passes through untouched; `Ok(0)` from the transport
///   is reported as [`std::io::ErrorKind::WriteZero`] so callers treat a
///   dead peer as an error, not an infinite loop.
///
/// Consecutive pushes coalesce into one buffer, so a single syscall can
/// carry hundreds of small frames.
#[derive(Debug, Default)]
pub struct FrameWriteBuf {
    buf: Vec<u8>,
    written: usize,
    /// End offset (into `buf`) of each pending frame, in push order.
    ends: std::collections::VecDeque<usize>,
}

impl FrameWriteBuf {
    /// An empty write buffer.
    pub fn new() -> Self {
        FrameWriteBuf::default()
    }

    /// No bytes pending.
    pub fn is_empty(&self) -> bool {
        self.written == self.buf.len()
    }

    /// Frames pushed but not yet fully written to the transport.
    pub fn pending_frames(&self) -> usize {
        self.ends.len()
    }

    /// Bytes pushed but not yet written to the transport.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.written
    }

    /// Append `frame`'s encoding at `version` (see
    /// [`Frame::encode_into`]; a peer of this build decodes only
    /// `frame.dialect()`).
    pub fn push(&mut self, frame: &Frame, version: WireVersion) {
        frame.encode_into(version, &mut self.buf);
        self.ends.push_back(self.buf.len());
    }

    /// One write attempt of all pending bytes. Returns the number of whole
    /// frames this attempt finished flushing. Must not be called empty.
    pub fn write_some(&mut self, w: &mut impl Write) -> std::io::Result<usize> {
        debug_assert!(!self.is_empty(), "write_some on an empty FrameWriteBuf");
        let n = w.write(&self.buf[self.written..])?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::WriteZero,
                "transport accepted zero bytes",
            ));
        }
        self.written += n;
        let mut completed = 0;
        while self.ends.front().is_some_and(|&end| end <= self.written) {
            self.ends.pop_front();
            completed += 1;
        }
        if self.is_empty() {
            self.buf.clear();
            self.written = 0;
        } else if self.written >= 64 * 1024 {
            // A slow peer mid-stall: reclaim the flushed prefix so the
            // buffer tracks the *pending* bytes, not the history.
            self.buf.drain(..self.written);
            for end in &mut self.ends {
                *end -= self.written;
            }
            self.written = 0;
        }
        Ok(completed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_frames() -> Vec<Frame> {
        vec![
            Frame::Submit {
                id: 0,
                length: u32::MAX,
                tenant: DEFAULT_TENANT,
            },
            Frame::Submit {
                id: u64::MAX,
                length: 1,
                tenant: DEFAULT_TENANT,
            },
            Frame::Response {
                id: 7,
                generation: 3,
                runtime_idx: 2,
                instance_idx: 65535,
                latency_ns: 1_234_567,
            },
            Frame::Error {
                id: 9,
                code: ErrorCode::Shed,
            },
            Frame::Error {
                id: 10,
                code: ErrorCode::Unserviceable,
            },
            Frame::Error {
                id: 11,
                code: ErrorCode::Draining,
            },
            Frame::Error {
                id: 12,
                code: ErrorCode::Failed,
            },
            Frame::Error {
                id: CONN_ERROR_ID,
                code: ErrorCode::Protocol,
            },
            Frame::Error {
                id: CONN_ERROR_ID,
                code: ErrorCode::Corrupt,
            },
            Frame::Error {
                id: 13,
                code: ErrorCode::UnknownTenant,
            },
            Frame::StatsRequest,
            Frame::Stats(StatsPayload {
                generation: 1,
                served: 2,
                shed: 3,
                outstanding: 4,
                reallocations: 5,
            }),
            Frame::Drain,
            Frame::Hello { max_version: 2 },
            Frame::HelloAck { version: 2 },
            Frame::Submit {
                id: 42,
                length: 128,
                tenant: 3,
            },
            Frame::Submit {
                id: 43,
                length: 1,
                tenant: u32::MAX,
            },
            Frame::BatchedSubmit { subs: Vec::new() },
            Frame::BatchedSubmit {
                subs: vec![
                    Sub {
                        id: 1,
                        length: 64,
                        tenant: DEFAULT_TENANT,
                    },
                    Sub {
                        id: u64::MAX - 1,
                        length: u32::MAX,
                        tenant: 7,
                    },
                ],
            },
        ]
    }

    /// Recompute the trailer of a v2 frame a test tampered with, so the
    /// decoder gets past the checksum to the field under test.
    fn reseal(bytes: &mut [u8]) {
        let body_end = bytes.len() - CHECKSUM_LEN;
        let crc = crc32c(&bytes[2..body_end]);
        bytes[body_end..].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn every_frame_round_trips_at_its_dialect() {
        for frame in all_frames() {
            let bytes = frame.encode();
            let (decoded, consumed) = Frame::decode(&bytes).expect("round-trip");
            assert_eq!(decoded, frame);
            assert_eq!(consumed, bytes.len());
            assert_eq!(bytes[2], frame.dialect().byte());
        }
    }

    #[test]
    fn version_byte_1_carries_only_the_handshake() {
        // The bootstrap decodes under either version byte; every other
        // type — defined or not — under version byte 1 is framing-fatal.
        for frame in [
            Frame::Hello { max_version: 9 },
            Frame::HelloAck { version: 2 },
        ] {
            assert_eq!(frame.dialect(), WireVersion::V1);
            for version in [WireVersion::V1, WireVersion::V2] {
                let bytes = frame.encode_v(version);
                assert_eq!(Frame::decode(&bytes), Ok((frame.clone(), bytes.len())));
            }
        }
        for frame_type in (0..=u8::MAX).filter(|&t| t != TYPE_HELLO && t != TYPE_HELLO_ACK) {
            let mut bytes = Frame::Drain.encode_v(WireVersion::V1);
            bytes[3] = frame_type;
            let err = Frame::decode(&bytes).expect_err("v1 data frame");
            assert_eq!(err, DecodeError::BadVersion(1), "type {frame_type}");
            assert!(!err.resynchronizable());
        }
        // Including the old 12-byte Submit layout a v1 client would send.
        let mut v1_submit = Frame::Drain.encode_v(WireVersion::V1);
        v1_submit[3] = TYPE_SUBMIT;
        v1_submit[4..8].copy_from_slice(&12u32.to_le_bytes());
        v1_submit.extend_from_slice(&[0u8; 12]);
        assert_eq!(Frame::decode(&v1_submit), Err(DecodeError::BadVersion(1)));
    }

    #[test]
    fn crc32c_known_answer() {
        // The canonical CRC32C check value (RFC 3720 appendix / iSCSI).
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        // RFC 3720 §B.4's 32-byte vectors: four slicing steps, no tail.
        let ascending: Vec<u8> = (0x00..=0x1F).collect();
        let descending: Vec<u8> = (0x00..=0x1F).rev().collect();
        assert_eq!(crc32c(&[0x00; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFF; 32]), 0x62A8_AB43);
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
        assert_eq!(crc32c(&descending), 0x113F_DB5C);
    }

    #[test]
    fn decode_consumes_only_one_frame() {
        let mut bytes = Frame::Drain.encode_v(WireVersion::V2);
        let second = Frame::Submit {
            id: 5,
            length: 64,
            tenant: DEFAULT_TENANT,
        };
        bytes.extend_from_slice(&second.encode());
        let (first, consumed) = Frame::decode(&bytes).expect("first");
        assert_eq!(first, Frame::Drain);
        let (next, _) = Frame::decode(&bytes[consumed..]).expect("second");
        assert_eq!(next, second);
    }

    #[test]
    fn truncated_frames_error_at_every_prefix() {
        for frame in all_frames() {
            let bytes = frame.encode();
            for cut in 0..bytes.len() {
                match Frame::decode(&bytes[..cut]) {
                    Err(DecodeError::Truncated { needed, got }) => {
                        assert_eq!(got, cut);
                        assert!(needed > cut);
                    }
                    other => panic!("prefix {cut} of {frame:?}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn unknown_version_is_rejected() {
        let mut bytes = Frame::Drain.encode();
        bytes[2] = 3;
        assert_eq!(Frame::decode(&bytes), Err(DecodeError::BadVersion(3)));
        bytes[2] = 0;
        assert_eq!(Frame::decode(&bytes), Err(DecodeError::BadVersion(0)));
    }

    #[test]
    fn batched_submit_round_trips_empty_and_max() {
        for count in [0usize, 1, 7, MAX_BATCH] {
            let frame = Frame::BatchedSubmit {
                subs: (0..count as u64)
                    .map(|i| Sub {
                        id: i * 3,
                        length: (i as u32) ^ 0xF0F0,
                        tenant: (i as u32) % 5,
                    })
                    .collect(),
            };
            let bytes = frame.encode_v(WireVersion::V2);
            let (decoded, consumed) = Frame::decode(&bytes).expect("round-trip");
            assert_eq!(decoded, frame);
            assert_eq!(consumed, bytes.len());
        }
    }

    #[test]
    fn oversized_batch_count_is_rejected_after_checksum() {
        // A frame that *claims* MAX_BATCH+1 subs with a matching payload
        // would exceed MAX_PAYLOAD; a mismatched count inside a small
        // payload must be a typed error. Craft a valid-checksum frame with
        // a hostile count by re-encoding manually.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.push(WireVersion::V2.byte());
        buf.push(TYPE_BATCHED_SUBMIT);
        let payload = ((MAX_BATCH + 1) as u32).to_le_bytes();
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&payload);
        let crc = crc32c(&buf[2..]);
        buf.extend_from_slice(&crc.to_le_bytes());
        match Frame::decode(&buf) {
            Err(e @ DecodeError::BatchTooLarge { count }) => {
                assert_eq!(count as usize, MAX_BATCH + 1);
                assert!(e.resynchronizable());
            }
            other => panic!("expected BatchTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn checksum_mismatch_is_typed_and_resynchronizable() {
        let good = Frame::Submit {
            id: 77,
            length: 32,
            tenant: DEFAULT_TENANT,
        };
        let mut bad = good.encode_v(WireVersion::V2);
        let flip_at = HEADER_LEN + 3; // somewhere in the payload
        bad[flip_at] ^= 0x10;
        match Frame::decode(&bad) {
            Err(e @ DecodeError::ChecksumMismatch { computed, stored }) => {
                assert_ne!(computed, stored);
                assert!(e.resynchronizable());
                assert_eq!(e.budget_cost(), CHECKSUM_ERROR_COST);
            }
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
    }

    #[test]
    fn flipped_type_byte_is_checksum_mismatch_not_bad_type() {
        // Integrity is checked before interpretation: a corrupted type
        // byte must surface as line corruption, not as a peer sending an
        // unknown frame type.
        let mut bytes = Frame::Drain.encode_v(WireVersion::V2);
        bytes[3] ^= 0x04;
        match Frame::decode(&bytes) {
            Err(DecodeError::ChecksumMismatch { .. }) => {}
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
    }

    #[test]
    fn frame_reader_skips_checksum_mismatch_and_continues() {
        let good = Frame::Submit {
            id: 1,
            length: 9,
            tenant: DEFAULT_TENANT,
        };
        let mut corrupted = Frame::Submit {
            id: 2,
            length: 10,
            tenant: DEFAULT_TENANT,
        }
        .encode_v(WireVersion::V2);
        let last = corrupted.len() - 1;
        corrupted[last] ^= 0x80; // flip a trailer bit
        let mut wire = good.encode_v(WireVersion::V2);
        wire.extend_from_slice(&corrupted);
        wire.extend_from_slice(&good.encode_v(WireVersion::V2));

        let mut fr = FrameReader::new();
        let mut cursor = std::io::Cursor::new(wire);
        while fr.fill(&mut cursor).expect("read") > 0 {}
        assert_eq!(fr.next_frame(), Ok(Some(good.clone())));
        match fr.next_frame() {
            Err(e @ DecodeError::ChecksumMismatch { .. }) => assert!(e.resynchronizable()),
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
        assert_eq!(
            fr.next_frame(),
            Ok(Some(good)),
            "resynced past the corrupted v2 frame, trailer and all"
        );
        assert_eq!(fr.next_frame(), Ok(None));
        assert_eq!(fr.buffered(), 0);
    }

    /// An in-memory duplex: reads come from a pre-loaded script, writes
    /// are captured.
    struct Scripted {
        input: std::io::Cursor<Vec<u8>>,
        written: Vec<u8>,
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn client_handshake_agrees_with_ack_and_sends_hello() {
        let mut stream = Scripted {
            input: std::io::Cursor::new(Frame::HelloAck { version: 2 }.encode()),
            written: Vec::new(),
        };
        let version = client_handshake(&mut stream).expect("handshake");
        assert_eq!(version, WireVersion::V2);
        let (sent, _) = Frame::decode(&stream.written).expect("hello decodes");
        assert_eq!(
            sent,
            Frame::Hello {
                max_version: WireVersion::MAX.byte()
            }
        );
    }

    #[test]
    fn client_handshake_rejects_non_ack_replies() {
        let mut stream = Scripted {
            input: std::io::Cursor::new(Frame::Drain.encode()),
            written: Vec::new(),
        };
        let err = client_handshake(&mut stream).expect_err("not an ack");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn error_budget_escalates_only_on_sustained_corruption() {
        let checksum = DecodeError::ChecksumMismatch {
            computed: 1,
            stored: 2,
        };
        // Exactly `max` consecutive checksum errors survive; the next one
        // exhausts the bucket.
        let mut budget = ErrorBudget::new(4);
        for i in 0..4 {
            assert!(budget.charge(&checksum), "charge {i} within budget");
        }
        assert_eq!(budget.remaining(), 0);
        assert!(!budget.charge(&checksum), "escalates past the boundary");

        // Interleaved good frames replenish: the same error rate never
        // escalates when the stream still mostly decodes.
        let mut budget = ErrorBudget::new(4);
        for _ in 0..64 {
            assert!(budget.charge(&checksum));
            budget.credit();
        }
        assert_eq!(budget.remaining(), 4 - 1 + 1);

        // Garbage (well-framed nonsense) costs GARBAGE_ERROR_COST: the old
        // 8-errors-then-disconnect behaviour at a 32-point budget.
        let garbage = DecodeError::BadFrameType(0xEE);
        let mut budget = ErrorBudget::new(32);
        for i in 0..8 {
            assert!(budget.charge(&garbage), "garbage charge {i}");
        }
        assert!(!budget.charge(&garbage));

        // Framing lost is never budgetable.
        let mut budget = ErrorBudget::new(1000);
        assert!(!budget.charge(&DecodeError::BadMagic([0, 0])));
        assert_eq!(budget.remaining(), 1000, "fatal errors do not spend");
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = Frame::StatsRequest.encode();
        bytes[0] = b'G'; // "GET …"
        bytes[1] = b'E';
        assert_eq!(
            Frame::decode(&bytes),
            Err(DecodeError::BadMagic([b'G', b'E']))
        );
    }

    #[test]
    fn oversized_payload_is_rejected_before_buffering() {
        let mut bytes = Frame::Submit {
            id: 1,
            length: 2,
            tenant: DEFAULT_TENANT,
        }
        .encode();
        bytes[4..8].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert_eq!(
            Frame::decode(&bytes),
            Err(DecodeError::Oversized {
                len: MAX_PAYLOAD + 1
            })
        );
    }

    #[test]
    fn unknown_frame_type_is_rejected() {
        let mut bytes = Frame::Drain.encode();
        bytes[3] = 0xEE;
        reseal(&mut bytes);
        assert_eq!(Frame::decode(&bytes), Err(DecodeError::BadFrameType(0xEE)));
    }

    #[test]
    fn wrong_payload_length_is_rejected() {
        // A Submit header claiming a Drain-sized (empty) payload.
        let mut bytes = Frame::Drain.encode();
        bytes[3] = TYPE_SUBMIT;
        reseal(&mut bytes);
        assert_eq!(
            Frame::decode(&bytes),
            Err(DecodeError::PayloadLength {
                frame_type: TYPE_SUBMIT,
                expected: 16,
                got: 0
            })
        );
    }

    #[test]
    fn unknown_error_code_is_rejected() {
        let mut bytes = Frame::Error {
            id: 1,
            code: ErrorCode::Shed,
        }
        .encode();
        bytes[HEADER_LEN + 8] = 77;
        reseal(&mut bytes);
        assert_eq!(Frame::decode(&bytes), Err(DecodeError::BadErrorCode(77)));
    }

    #[test]
    fn read_frame_streams_every_frame_and_reports_clean_eof() {
        let mut wire = Vec::new();
        for frame in all_frames() {
            wire.extend_from_slice(&frame.encode());
        }
        let mut cursor = std::io::Cursor::new(wire);
        let mut seen = Vec::new();
        while let Some(frame) = read_frame(&mut cursor).expect("stream decodes") {
            seen.push(frame);
        }
        assert_eq!(seen, all_frames());
    }

    #[test]
    fn read_frame_reports_mid_frame_eof_as_truncated() {
        let submit = Frame::Submit {
            id: 3,
            length: 9,
            tenant: DEFAULT_TENANT,
        };
        for frame in [submit, Frame::Hello { max_version: 2 }] {
            let bytes = frame.encode();
            let mut cursor = std::io::Cursor::new(bytes[..bytes.len() - 1].to_vec());
            match read_frame(&mut cursor) {
                Err(ReadFrameError::Decode(DecodeError::Truncated { .. })) => {}
                other => panic!("expected truncation of {frame:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn frame_reader_reassembles_one_byte_fragments() {
        // Each frame at its dialect, so the stream mixes the v1 handshake
        // bootstrap with v2 data frames, as a real connection's does.
        let expected = all_frames();
        let mut wire = Vec::new();
        for frame in &expected {
            wire.extend_from_slice(&frame.encode());
        }
        let mut fr = FrameReader::new();
        let mut seen = Vec::new();
        // Deliver the wire image one byte at a time, pulling frames as
        // soon as they complete — the slowloris-survival property.
        for byte in wire {
            let mut one = std::io::Cursor::new(vec![byte]);
            assert_eq!(fr.fill(&mut one).expect("read"), 1);
            while let Some(frame) = fr.next_frame().expect("stream stays valid") {
                seen.push(frame);
            }
        }
        assert_eq!(seen, expected);
        assert_eq!(fr.buffered(), 0, "no stray bytes left behind");
    }

    #[test]
    fn frame_reader_skips_resynchronizable_errors_and_continues() {
        let good = Frame::Submit {
            id: 77,
            length: 32,
            tenant: DEFAULT_TENANT,
        };
        let mut bad = Frame::Drain.encode();
        bad[3] = 0xEE; // unknown frame type, intact header and checksum
        reseal(&mut bad);
        let mut wire = good.encode();
        wire.extend_from_slice(&bad);
        wire.extend_from_slice(&good.encode());

        let mut fr = FrameReader::new();
        let mut cursor = std::io::Cursor::new(wire);
        while fr.fill(&mut cursor).expect("read") > 0 {}
        assert_eq!(fr.next_frame(), Ok(Some(good.clone())));
        let err = fr.next_frame().expect_err("the bad frame surfaces");
        assert_eq!(err, DecodeError::BadFrameType(0xEE));
        assert!(err.resynchronizable(), "typed, and the stream continues");
        assert_eq!(
            fr.next_frame(),
            Ok(Some(good)),
            "resynced past the bad frame"
        );
        assert_eq!(fr.next_frame(), Ok(None));
    }

    #[test]
    fn frame_reader_reports_fatal_errors_without_consuming() {
        let mut wire = Frame::Drain.encode();
        wire[0] = 0x00; // bad magic: framing is lost
        let mut fr = FrameReader::new();
        let mut cursor = std::io::Cursor::new(wire);
        while fr.fill(&mut cursor).expect("read") > 0 {}
        let err = fr.next_frame().expect_err("bad magic is fatal");
        assert!(!err.resynchronizable());
        // A fatal error repeats: the caller's only move is to disconnect.
        assert_eq!(fr.next_frame(), Err(err));
    }

    #[test]
    fn resynchronizable_classification_matches_header_integrity() {
        assert!(DecodeError::BadFrameType(9).resynchronizable());
        assert!(DecodeError::BadErrorCode(9).resynchronizable());
        assert!(DecodeError::PayloadLength {
            frame_type: 1,
            expected: 12,
            got: 0
        }
        .resynchronizable());
        assert!(DecodeError::ChecksumMismatch {
            computed: 0,
            stored: 1
        }
        .resynchronizable());
        assert!(DecodeError::BatchTooLarge { count: 9999 }.resynchronizable());
        assert!(!DecodeError::BadMagic([0, 0]).resynchronizable());
        assert!(!DecodeError::BadVersion(3).resynchronizable());
        assert!(!DecodeError::Oversized { len: 1 << 20 }.resynchronizable());
        assert!(!DecodeError::Truncated { needed: 8, got: 1 }.resynchronizable());
    }

    #[test]
    fn errors_format_distinctly() {
        let errors = [
            DecodeError::BadMagic([0, 0]),
            DecodeError::BadVersion(9),
            DecodeError::BadFrameType(9),
            DecodeError::Oversized { len: 100_000 },
            DecodeError::Truncated { needed: 8, got: 2 },
            DecodeError::PayloadLength {
                frame_type: 1,
                expected: 12,
                got: 3,
            },
            DecodeError::BadErrorCode(0),
            DecodeError::ChecksumMismatch {
                computed: 1,
                stored: 2,
            },
            DecodeError::BatchTooLarge { count: 300 },
        ];
        let texts: std::collections::HashSet<String> =
            errors.iter().map(|e| e.to_string()).collect();
        assert_eq!(texts.len(), errors.len(), "messages must be distinct");
    }

    /// A writer that accepts at most `cap` bytes per call and can be told
    /// to refuse (WouldBlock) — the shape of a non-blocking socket.
    struct Trickle {
        out: Vec<u8>,
        cap: usize,
        block_next: bool,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.block_next {
                self.block_next = false;
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.cap);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn frame_write_buf_survives_trickle_and_wouldblock() {
        let frames = all_frames();
        let mut wbuf = FrameWriteBuf::new();
        for f in &frames {
            wbuf.push(f, f.dialect());
        }
        assert_eq!(wbuf.pending_frames(), frames.len());
        let mut sink = Trickle {
            out: Vec::new(),
            cap: 3,
            block_next: false,
        };
        let mut completed = 0;
        let mut attempts = 0;
        while !wbuf.is_empty() {
            // Inject a WouldBlock every few attempts: pending state must
            // survive it untouched.
            sink.block_next = attempts % 5 == 4;
            match wbuf.write_some(&mut sink) {
                Ok(n) => completed += n,
                Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::WouldBlock),
            }
            attempts += 1;
        }
        assert_eq!(completed, frames.len());
        assert_eq!(wbuf.pending_frames(), 0);
        // The byte stream decodes back to the exact frame sequence.
        let mut reader = FrameReader::new();
        let mut cursor = std::io::Cursor::new(sink.out);
        let mut decoded = Vec::new();
        loop {
            while let Some(f) = reader.next_frame().expect("clean stream") {
                decoded.push(f);
            }
            if reader.fill(&mut cursor).expect("cursor read") == 0 {
                break;
            }
        }
        assert_eq!(decoded, frames, "trickle round-trip");
    }

    #[test]
    fn frame_write_buf_counts_whole_frames_only() {
        let mut wbuf = FrameWriteBuf::new();
        wbuf.push(&Frame::StatsRequest, WireVersion::V2);
        wbuf.push(&Frame::Drain, WireVersion::V2);
        let total = wbuf.pending_bytes();
        // A write that stops one byte short of the second frame completes
        // exactly one.
        let mut sink = Trickle {
            out: Vec::new(),
            cap: total - 1,
            block_next: false,
        };
        assert_eq!(wbuf.write_some(&mut sink).unwrap(), 1);
        assert_eq!(wbuf.pending_frames(), 1);
        assert_eq!(wbuf.pending_bytes(), 1);
        sink.cap = usize::MAX;
        assert_eq!(wbuf.write_some(&mut sink).unwrap(), 1);
        assert!(wbuf.is_empty());
    }

    #[test]
    fn frame_write_buf_reports_write_zero() {
        let mut wbuf = FrameWriteBuf::new();
        wbuf.push(&Frame::Drain, WireVersion::V2);
        struct Dead;
        impl Write for Dead {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let e = wbuf.write_some(&mut Dead).expect_err("zero-byte sink");
        assert_eq!(e.kind(), std::io::ErrorKind::WriteZero);
    }

    #[test]
    fn tenant_round_trips_at_v2_boundaries() {
        for tenant in [DEFAULT_TENANT, 1, 255, u32::MAX] {
            let frame = Frame::Submit {
                id: 5,
                length: 6,
                tenant,
            };
            let bytes = frame.encode_v(WireVersion::V2);
            let (decoded, consumed) = Frame::decode(&bytes).expect("v2 round-trip");
            assert_eq!(decoded, frame);
            assert_eq!(consumed, bytes.len());
        }
    }

    #[test]
    fn unknown_tenant_code_round_trips_and_is_bounded() {
        let frame = Frame::Error {
            id: 4,
            code: ErrorCode::UnknownTenant,
        };
        let mut bytes = frame.encode();
        assert_eq!(Frame::decode(&bytes), Ok((frame, bytes.len())));
        // 7 is the last defined code: the next byte up must stay a typed
        // decode error, not silently alias the new variant.
        let code_at = HEADER_LEN + 8;
        assert_eq!(bytes[code_at], 7, "UnknownTenant wires as code 7");
        bytes[code_at] = 8;
        reseal(&mut bytes);
        assert_eq!(Frame::decode(&bytes), Err(DecodeError::BadErrorCode(8)));
    }

    #[test]
    fn unknown_tenant_cost_sits_between_checksum_and_garbage() {
        const { assert!(UNKNOWN_TENANT_COST > CHECKSUM_ERROR_COST) };
        const { assert!(UNKNOWN_TENANT_COST < GARBAGE_ERROR_COST) };
        // charge_points drains at the flat cost and escalates on
        // exhaustion, exactly like sustained decode garbage would.
        let mut budget = ErrorBudget::new(2 * UNKNOWN_TENANT_COST);
        assert!(budget.charge_points(UNKNOWN_TENANT_COST));
        assert!(budget.charge_points(UNKNOWN_TENANT_COST));
        assert_eq!(budget.remaining(), 0);
        assert!(!budget.charge_points(UNKNOWN_TENANT_COST));
        // Healthy traffic replenishes the bucket.
        budget.credit();
        budget.credit();
        assert!(budget.charge_points(UNKNOWN_TENANT_COST));
    }
}

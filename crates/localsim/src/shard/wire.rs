//! Length-prefixed frame transport shared by the shard coordinator and
//! workers.
//!
//! A v3 frame on the wire is
//! `[varint total length][varint sequence][4-byte LE FNV-1a checksum][payload]`,
//! where the total length covers everything after the prefix and the
//! checksum covers the sequence varint plus the payload. The first
//! payload byte is the frame tag (see [`super::proto`]). Sequence
//! numbers start at 0 per connection and direction: a receiver accepts
//! exactly the next expected sequence, silently drops duplicates below
//! it (so chaos-injected frame duplication is idempotent), and refuses
//! gaps above it; the checksum catches truncation and corruption that
//! TCP's own checksum let through or a chaos plan injected. All
//! integers inside payloads are LEB128 varints, node-id lists travel as
//! ascending deltas, and algorithm states go through [`rot`]/[`unrot`]
//! so their tag bits (parked in the *top* bits of the `u64` by every
//! [`super::WireAlgo`]) move into the low byte and a typical state
//! varint is 1–3 bytes instead of 9–10. The codec is still deliberately
//! tiny — no serialization framework in the hot per-round path.
//!
//! [`FrameConn`] is the coordinator's side of a connection: nonblocking,
//! with a pull-parsed receive buffer (so `RoundDone` frames from all
//! shards are drained by readiness polling, not serial blocking reads)
//! and single-syscall assembled writes.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use telemetry::{MetricCounter, MetricsHub};

/// Refuse frames larger than this (64 MiB): a corrupted length prefix
/// must not trigger an unbounded allocation, and a worker must not jam
/// the protocol with a reply the coordinator would refuse to read.
pub const MAX_FRAME: usize = 64 << 20;

/// Worst-case v3 header bytes after the length prefix: a 10-byte
/// sequence varint plus the 4-byte checksum.
const MAX_HEADER: usize = 14;

/// FNV-1a over the concatenation of `parts` — the v3 frame checksum.
/// 32 bits is plenty against the accidental corruption this guards (TCP
/// already rules out most of it); it is not a cryptographic MAC.
fn fnv1a32(parts: &[&[u8]]) -> u32 {
    let mut h: u32 = 0x811C_9DC5;
    for part in parts {
        for &b in *part {
            h ^= u32::from(b);
            h = h.wrapping_mul(0x0100_0193);
        }
    }
    h
}

/// Per-connection sequence state for the v3 frame header. The writer
/// stamps frames with `next_tx` and increments; the reader accepts
/// exactly `next_rx`, drops anything below it as a duplicate, and
/// refuses gaps above it. One `FrameSeq` serves both directions of a
/// bidirectional connection (each side writes its own stream).
#[derive(Debug, Default, Clone)]
pub struct FrameSeq {
    /// Sequence the next outgoing frame will carry.
    pub next_tx: u64,
    /// Sequence the next accepted incoming frame must carry.
    pub next_rx: u64,
}

/// Splits a v3 frame body (everything after the length prefix) into
/// `(sequence, payload)` after verifying the checksum.
fn split_body(body: &[u8]) -> io::Result<(u64, &[u8])> {
    let mut d = Dec::new(body);
    let seq = d.u64().map_err(|_| invalid("truncated frame header"))?;
    let head = body.len() - d.remaining();
    let rest = &body[head..];
    if rest.len() < 4 {
        return Err(invalid("truncated frame checksum"));
    }
    let stamped = u32::from_le_bytes(rest[..4].try_into().expect("4-byte slice"));
    let payload = &rest[4..];
    let computed = fnv1a32(&[&body[..head], payload]);
    if stamped != computed {
        return Err(invalid(&format!(
            "frame checksum mismatch (stamped {stamped:#010x}, computed {computed:#010x})"
        )));
    }
    if payload.len() > MAX_FRAME {
        return Err(invalid(&format!(
            "frame payload {} exceeds the {MAX_FRAME}-byte cap",
            payload.len()
        )));
    }
    Ok((seq, payload))
}

/// Bounded exponential backoff with deterministic jitter for the
/// coordinator's readiness-poll loops: the first 64 sweeps only yield,
/// then sleeps grow from 100µs toward a 3.2ms base (6.4ms with jitter)
/// so a stalled barrier burns microseconds of CPU, not a core.
pub(crate) fn backoff(spins: &mut u32) {
    *spins += 1;
    if *spins < 64 {
        std::thread::yield_now();
        return;
    }
    let exp = (*spins - 64).min(5);
    let base = 100u64 << exp;
    let jitter = crate::faults::mix(u64::from(*spins)) % base;
    std::thread::sleep(Duration::from_micros(base + jitter));
}

/// How many bytes the varint length prefix of a `len`-byte payload
/// occupies (the 64 MiB cap keeps this at most 4).
fn prefix_len(len: usize) -> usize {
    varint_len(len as u64)
}

/// Bytes needed to encode `v` as a LEB128 varint.
#[must_use]
pub fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Appends `v` as a LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Maps an algorithm state to its wire form: rotating left by two moves
/// the top-of-word phase tags (`Greedy`'s decided bit, `Rand`'s two-bit
/// phase) into the low bits, so small payloads stay small varints. A
/// pure bijection — the transport neither knows nor cares which
/// algorithm produced the state.
#[inline]
#[must_use]
pub(crate) fn rot(state: u64) -> u64 {
    state.rotate_left(2)
}

/// Inverse of [`rot`].
#[inline]
#[must_use]
pub(crate) fn unrot(wire: u64) -> u64 {
    wire.rotate_right(2)
}

/// Counts frames and bytes crossing the coordinator's side of the wire
/// into a [`MetricsHub`] (`shard.bytes_sent`, `shard.bytes_recv`,
/// `shard.frames`); a disabled meter costs nothing.
#[derive(Clone, Default)]
pub struct FrameMeter {
    sent: Option<MetricCounter>,
    recv: Option<MetricCounter>,
    frames: Option<MetricCounter>,
}

impl FrameMeter {
    /// A meter that records nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A meter feeding the shard wire counters of `hub`.
    #[must_use]
    pub fn new(hub: &MetricsHub) -> Self {
        FrameMeter {
            sent: Some(hub.counter("shard.bytes_sent")),
            recv: Some(hub.counter("shard.bytes_recv")),
            frames: Some(hub.counter("shard.frames")),
        }
    }

    fn count_sent(&self, wire_bytes: usize) {
        if let Some(c) = &self.sent {
            c.add(wire_bytes as u64);
        }
        if let Some(c) = &self.frames {
            c.incr();
        }
    }

    fn count_recv(&self, wire_bytes: usize) {
        if let Some(c) = &self.recv {
            c.add(wire_bytes as u64);
        }
        if let Some(c) = &self.frames {
            c.incr();
        }
    }
}

/// Checks a payload against [`MAX_FRAME`] (at the cap is allowed,
/// matching the read side).
fn check_cap(len: usize) -> io::Result<()> {
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame length {len} exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    Ok(())
}

/// Assembles a full v3 frame
/// `[varint len][varint seq][checksum][payload]` into `frame`,
/// replacing its contents, after enforcing the frame cap.
pub fn frame_bytes(payload: &[u8], seq: u64, frame: &mut Vec<u8>) -> io::Result<()> {
    check_cap(payload.len())?;
    let mut head = Vec::with_capacity(10);
    put_varint(&mut head, seq);
    let crc = fnv1a32(&[&head, payload]);
    let total = head.len() + 4 + payload.len();
    frame.clear();
    frame.reserve(prefix_len(total) + total);
    put_varint(frame, total as u64);
    frame.extend_from_slice(&head);
    frame.extend_from_slice(&crc.to_le_bytes());
    frame.extend_from_slice(payload);
    Ok(())
}

/// Writes one frame stamped with the connection's next transmit
/// sequence, as a single `write_all`, and flushes. Allocates a frame
/// buffer per call — fine for handshakes and tests; hot paths reuse a
/// scratch via `write_frame_buf` or go through `FrameConn::send`.
pub fn write_frame(
    w: &mut impl Write,
    payload: &[u8],
    meter: &FrameMeter,
    seq: &mut FrameSeq,
) -> io::Result<()> {
    let mut frame = Vec::new();
    write_frame_buf(w, payload, &mut frame, meter, seq)
}

/// [`write_frame`] with a caller-provided scratch buffer, so the
/// per-round worker reply costs one buffer reuse and one syscall.
pub fn write_frame_buf(
    w: &mut impl Write,
    payload: &[u8],
    frame: &mut Vec<u8>,
    meter: &FrameMeter,
    seq: &mut FrameSeq,
) -> io::Result<()> {
    frame_bytes(payload, seq.next_tx, frame)?;
    w.write_all(frame)?;
    w.flush()?;
    seq.next_tx += 1;
    meter.count_sent(frame.len());
    Ok(())
}

/// Reads one frame payload; blocks until the full frame arrives, and
/// transparently drops duplicated frames (sequence below the next
/// expected). Pair with a buffered reader — the varint prefix is read
/// byte by byte.
pub fn read_frame(
    r: &mut impl Read,
    meter: &FrameMeter,
    seq: &mut FrameSeq,
) -> io::Result<Vec<u8>> {
    loop {
        let mut len = 0u64;
        let mut shift = 0u32;
        let mut prefix = 0usize;
        loop {
            let mut byte = [0u8; 1];
            r.read_exact(&mut byte)?;
            prefix += 1;
            len |= u64::from(byte[0] & 0x7F) << shift;
            if byte[0] & 0x80 == 0 {
                break;
            }
            shift += 7;
            if shift > 28 {
                // 5 continuation groups already exceed the 64 MiB cap.
                return Err(invalid("frame length prefix too long"));
            }
        }
        let len = usize::try_from(len).map_err(|_| invalid("frame length overflows usize"))?;
        if len > MAX_FRAME + MAX_HEADER {
            return Err(invalid(&format!(
                "frame length {len} exceeds the {MAX_FRAME}-byte cap"
            )));
        }
        let mut body = vec![0u8; len];
        r.read_exact(&mut body)?;
        meter.count_recv(prefix + len);
        let (got, payload) = split_body(&body)?;
        match got.cmp(&seq.next_rx) {
            std::cmp::Ordering::Less => continue, // duplicate: drop silently
            std::cmp::Ordering::Equal => {
                seq.next_rx += 1;
                return Ok(payload.to_vec());
            }
            std::cmp::Ordering::Greater => {
                return Err(invalid(&format!(
                    "frame sequence gap (got {got}, expected {})",
                    seq.next_rx
                )))
            }
        }
    }
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Varint payload builder.
#[derive(Default)]
pub struct Enc(pub Vec<u8>);

impl Enc {
    /// An empty payload starting with `tag`.
    #[must_use]
    pub fn tagged(tag: u8) -> Self {
        Enc(vec![tag])
    }

    /// [`Enc::tagged`] with capacity reserved from a frame-length hint,
    /// so large frames (Init, Restore) build without regrowth.
    #[must_use]
    pub fn with_hint(tag: u8, hint: usize) -> Self {
        let mut buf = Vec::with_capacity(hint + 1);
        buf.push(tag);
        Enc(buf)
    }

    /// Appends a raw byte.
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    /// Appends a `u32` as a varint.
    pub fn u32(&mut self, v: u32) {
        put_varint(&mut self.0, u64::from(v));
    }

    /// Appends a `u64` as a varint.
    pub fn u64(&mut self, v: u64) {
        put_varint(&mut self.0, v);
    }

    /// Appends an algorithm state ([`rot`]-transformed varint).
    pub fn state(&mut self, s: u64) {
        put_varint(&mut self.0, rot(s));
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }

    /// Appends a length-prefixed byte sequence.
    pub fn bytes(&mut self, vs: &[u8]) {
        self.u32(vs.len() as u32);
        self.0.extend_from_slice(vs);
    }

    /// Appends a strictly ascending id list as deltas: count, first id,
    /// then gaps (`id[i] - id[i-1]`, always >= 1).
    pub fn ids(&mut self, vs: &[u32]) {
        self.u32(vs.len() as u32);
        let mut prev = 0u32;
        for (i, &v) in vs.iter().enumerate() {
            debug_assert!(i == 0 || v > prev, "id list must be strictly ascending");
            self.u32(if i == 0 { v } else { v - prev });
            prev = v;
        }
    }

    /// Appends a length-prefixed state sequence (each [`Enc::state`]).
    pub fn states(&mut self, vs: &[u64]) {
        self.u32(vs.len() as u32);
        for &v in vs {
            self.state(v);
        }
    }

    /// Appends `(node, state)` pairs with strictly ascending node ids:
    /// delta-encoded ids, [`rot`]-varint states.
    pub fn pairs_states(&mut self, vs: &[(u32, u64)]) {
        self.u32(vs.len() as u32);
        let mut prev = 0u32;
        for (i, &(v, s)) in vs.iter().enumerate() {
            debug_assert!(i == 0 || v > prev, "pair ids must be strictly ascending");
            self.u32(if i == 0 { v } else { v - prev });
            self.state(s);
            prev = v;
        }
    }

    /// Appends `(node, value)` pairs with strictly ascending node ids
    /// and plain varint values (outputs — small, untagged).
    pub fn pairs_vals(&mut self, vs: &[(u32, u64)]) {
        self.u32(vs.len() as u32);
        let mut prev = 0u32;
        for (i, &(v, o)) in vs.iter().enumerate() {
            debug_assert!(i == 0 || v > prev, "pair ids must be strictly ascending");
            self.u32(if i == 0 { v } else { v - prev });
            self.u64(o);
            prev = v;
        }
    }
}

fn truncated() -> io::Error {
    invalid("truncated frame payload")
}

/// Cursor over a received payload; every read is bounds-checked so a
/// malformed frame surfaces as an error, never a panic.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A cursor over `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or_else(truncated)?;
        if end > self.buf.len() {
            return Err(truncated());
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads a byte.
    pub fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a varint `u64`.
    pub fn u64(&mut self) -> io::Result<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8().map_err(|_| truncated())?;
            if shift == 63 && byte > 1 {
                return Err(invalid("varint overflows u64"));
            }
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(invalid("varint longer than 10 bytes"));
            }
        }
    }

    /// Reads a varint that must fit a `u32`.
    pub fn u32(&mut self) -> io::Result<u32> {
        u32::try_from(self.u64()?).map_err(|_| invalid("varint overflows u32"))
    }

    /// Reads an algorithm state (inverse of [`Enc::state`]).
    pub fn state(&mut self) -> io::Result<u64> {
        Ok(unrot(self.u64()?))
    }

    /// Reads a length-prefixed UTF-8 string with a single copy: the
    /// bytes are validated in place as borrowed UTF-8, then copied once
    /// into the owned result.
    pub fn str(&mut self) -> io::Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        let s = std::str::from_utf8(bytes).map_err(|_| invalid("non-UTF-8 string field"))?;
        Ok(s.to_owned())
    }

    /// Reads a length-prefixed byte sequence.
    pub fn bytes(&mut self) -> io::Result<Vec<u8>> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads a delta-encoded strictly ascending id list.
    pub fn ids(&mut self) -> io::Result<Vec<u32>> {
        let len = self.u32()? as usize;
        if len > self.buf.len() - self.pos.min(self.buf.len()) {
            return Err(truncated());
        }
        let mut out = Vec::with_capacity(len);
        let mut prev = 0u32;
        for i in 0..len {
            let d = self.u32()?;
            if i > 0 && d == 0 {
                return Err(invalid("id list not strictly ascending"));
            }
            prev = prev.checked_add(d).ok_or_else(|| invalid("id overflow"))?;
            out.push(prev);
        }
        Ok(out)
    }

    /// Reads a length-prefixed state sequence.
    pub fn states(&mut self) -> io::Result<Vec<u64>> {
        let len = self.u32()? as usize;
        if len > self.buf.len() - self.pos.min(self.buf.len()) {
            return Err(truncated());
        }
        (0..len).map(|_| self.state()).collect()
    }

    /// Reads pairs written by [`Enc::pairs_states`].
    pub fn pairs_states(&mut self) -> io::Result<Vec<(u32, u64)>> {
        self.pairs_with(Dec::state)
    }

    /// Reads pairs written by [`Enc::pairs_vals`].
    pub fn pairs_vals(&mut self) -> io::Result<Vec<(u32, u64)>> {
        self.pairs_with(Dec::u64)
    }

    fn pairs_with(
        &mut self,
        read_val: impl Fn(&mut Self) -> io::Result<u64>,
    ) -> io::Result<Vec<(u32, u64)>> {
        let len = self.u32()? as usize;
        if len > self.buf.len() - self.pos.min(self.buf.len()) {
            return Err(truncated());
        }
        let mut out = Vec::with_capacity(len);
        let mut prev = 0u32;
        for i in 0..len {
            let d = self.u32()?;
            if i > 0 && d == 0 {
                return Err(invalid("pair ids not strictly ascending"));
            }
            prev = prev.checked_add(d).ok_or_else(|| invalid("id overflow"))?;
            out.push((prev, read_val(self)?));
        }
        Ok(out)
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless the whole payload was consumed.
    pub fn finish(self) -> io::Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(invalid("trailing bytes after frame payload"))
        }
    }
}

/// The coordinator's half of one worker connection: nonblocking, with a
/// parse-as-you-go receive buffer and whole-frame single-write sends.
///
/// Reads never block — [`FrameConn::poll`] returns `Ok(None)` until a
/// complete frame is buffered, which lets the coordinator sweep all
/// shards for `RoundDone`s instead of waiting on each in turn. Writes
/// spin on `WouldBlock` (loopback buffers make that rare) but always
/// land the whole frame.
pub struct FrameConn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    rpos: usize,
    wbuf: Vec<u8>,
    seq: FrameSeq,
}

/// Chaos to apply to one outgoing frame; the default applies none.
/// Computed by the coordinator from its `NetFaultPlan` and handed to
/// `FrameConn::send_with`, keeping the transport itself policy-free.
#[derive(Debug, Default, Clone, Copy)]
pub struct TxFault {
    /// Sleep this long before the frame hits the wire.
    pub delay: Option<Duration>,
    /// Write the assembled frame twice (same sequence number — the
    /// receiver's dedup must absorb it).
    pub dup: bool,
    /// Flip one byte inside the checksummed region, so the receiver's
    /// checksum rejects the frame.
    pub corrupt: bool,
}

impl FrameConn {
    /// Wraps an established (blocking) stream, switching it to
    /// nonblocking mode. Sequence state starts fresh (0/0): a respawned
    /// worker gets a new `FrameConn` and a new sequence space.
    ///
    /// # Errors
    ///
    /// Propagates the `set_nonblocking` failure.
    pub fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        Ok(FrameConn {
            stream,
            rbuf: Vec::new(),
            rpos: 0,
            wbuf: Vec::new(),
            seq: FrameSeq::default(),
        })
    }

    /// Sends one frame stamped with the next transmit sequence.
    ///
    /// # Errors
    ///
    /// Frame-cap violations and transport failures.
    pub fn send(&mut self, payload: &[u8], meter: &FrameMeter) -> io::Result<()> {
        self.send_with(payload, meter, &TxFault::default())
    }

    /// [`FrameConn::send`] with injected wire faults: optional delay
    /// before the write, duplication (the frame bytes are written
    /// twice), and corruption (one byte inside the checksummed region
    /// is flipped after assembly). Duplicates are metered as real wire
    /// bytes because they are.
    ///
    /// # Errors
    ///
    /// Frame-cap violations and transport failures.
    pub fn send_with(
        &mut self,
        payload: &[u8],
        meter: &FrameMeter,
        fault: &TxFault,
    ) -> io::Result<()> {
        let seq = self.seq.next_tx;
        frame_bytes(payload, seq, &mut self.wbuf)?;
        self.seq.next_tx += 1;
        if fault.corrupt {
            // Flip the last byte: always inside payload-or-checksum,
            // never the length prefix, so the receiver reads a whole
            // frame and then rejects it.
            let last = self.wbuf.len() - 1;
            self.wbuf[last] ^= 0xFF;
        }
        if let Some(d) = fault.delay {
            std::thread::sleep(d);
        }
        self.write_wbuf()?;
        meter.count_sent(self.wbuf.len());
        if fault.dup {
            self.write_wbuf()?;
            meter.count_sent(self.wbuf.len());
        }
        Ok(())
    }

    fn write_wbuf(&mut self) -> io::Result<()> {
        let mut off = 0usize;
        while off < self.wbuf.len() {
            match self.stream.write(&self.wbuf[off..]) {
                Ok(0) => return Err(io::Error::from(io::ErrorKind::WriteZero)),
                Ok(k) => off += k,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::yield_now(),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Sends pre-framed bytes (a full v3 frame, e.g. the cached `Init`
    /// frame) without re-assembly. Only valid as the *first* frame on a
    /// fresh connection: the cached bytes carry sequence 0, which is
    /// why the coordinator may replay them verbatim on every respawn.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn send_framed(&mut self, frame: &[u8], meter: &FrameMeter) -> io::Result<()> {
        debug_assert_eq!(
            self.seq.next_tx, 0,
            "pre-framed bytes carry sequence 0 and must open the connection"
        );
        let mut off = 0usize;
        while off < frame.len() {
            match self.stream.write(&frame[off..]) {
                Ok(0) => return Err(io::Error::from(io::ErrorKind::WriteZero)),
                Ok(k) => off += k,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::yield_now(),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.seq.next_tx += 1;
        meter.count_sent(frame.len());
        Ok(())
    }

    /// Pumps the socket without blocking; returns a complete frame
    /// payload if one is buffered, `Ok(None)` if the worker has not
    /// answered yet, and an error on EOF or transport failure.
    /// Duplicated frames (sequence already accepted) are dropped here,
    /// invisibly to the caller.
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` when the peer hung up, cap/format/checksum/
    /// sequence violations, and transport failures.
    pub fn poll(&mut self, meter: &FrameMeter) -> io::Result<Option<Vec<u8>>> {
        loop {
            if let Some(body) = self.try_parse(meter)? {
                let (got, payload) = split_body(&body)?;
                match got.cmp(&self.seq.next_rx) {
                    std::cmp::Ordering::Less => continue, // duplicate: drop
                    std::cmp::Ordering::Equal => {
                        self.seq.next_rx += 1;
                        return Ok(Some(payload.to_vec()));
                    }
                    std::cmp::Ordering::Greater => {
                        return Err(invalid(&format!(
                            "frame sequence gap (got {got}, expected {})",
                            self.seq.next_rx
                        )))
                    }
                }
            }
            let mut tmp = [0u8; 64 * 1024];
            match self.stream.read(&mut tmp) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "worker connection closed",
                    ))
                }
                Ok(k) => {
                    if self.rpos > 0 && self.rpos == self.rbuf.len() {
                        self.rbuf.clear();
                        self.rpos = 0;
                    }
                    self.rbuf.extend_from_slice(&tmp[..k]);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Blocking receive built from [`FrameConn::poll`], yielding the
    /// CPU between sweeps (workers may share the cores) and honoring an
    /// optional deadline: past it,
    /// the wait ends in a `TimedOut` error instead of spinning forever
    /// on a hung worker. Sweeps back off exponentially (bounded, with
    /// deterministic jitter) while waiting.
    ///
    /// # Errors
    ///
    /// As [`FrameConn::poll`], plus `TimedOut` past the deadline.
    pub fn recv_deadline(
        &mut self,
        meter: &FrameMeter,
        deadline: Option<Instant>,
    ) -> io::Result<Vec<u8>> {
        let mut spins = 0u32;
        loop {
            if let Some(payload) = self.poll(meter)? {
                return Ok(payload);
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "worker did not answer before the deadline",
                ));
            }
            backoff(&mut spins);
        }
    }

    /// Attempts to parse one complete frame *body* (sequence varint +
    /// checksum + payload, checksum not yet verified) from the receive
    /// buffer.
    fn try_parse(&mut self, meter: &FrameMeter) -> io::Result<Option<Vec<u8>>> {
        let avail = &self.rbuf[self.rpos..];
        let mut len = 0u64;
        let mut shift = 0u32;
        let mut used = 0usize;
        loop {
            let Some(&byte) = avail.get(used) else {
                return Ok(None); // prefix itself incomplete
            };
            used += 1;
            len |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                break;
            }
            shift += 7;
            if shift > 28 {
                return Err(invalid("frame length prefix too long"));
            }
        }
        let len = usize::try_from(len).map_err(|_| invalid("frame length overflows usize"))?;
        if len > MAX_FRAME + MAX_HEADER {
            return Err(invalid(&format!(
                "frame length {len} exceeds the {MAX_FRAME}-byte cap"
            )));
        }
        if avail.len() < used + len {
            return Ok(None);
        }
        let body = avail[used..used + len].to_vec();
        self.rpos += used + len;
        if self.rpos == self.rbuf.len() || self.rpos > 64 * 1024 {
            self.rbuf.drain(..self.rpos);
            self.rpos = 0;
        }
        meter.count_recv(used + len);
        Ok(Some(body))
    }

    /// Shuts down both directions of the underlying socket (used by the
    /// chaos kill and connection-reset hooks).
    pub fn shutdown(&self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_round_trip_boundary_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v), "length of {v}");
            let mut d = Dec::new(&buf);
            assert_eq!(d.u64().unwrap(), v);
            d.finish().unwrap();
        }
    }

    #[test]
    fn state_rotation_shrinks_tagged_states() {
        // Greedy decided flag (bit 63) and Rand phase tags (bits 62–63)
        // must land in the low bits on the wire.
        for (state, max_bytes) in [
            (0u64, 1usize),
            ((1 << 63) | 5, 1 + 1),   // greedy decided color 5
            ((2 << 62) | 17, 1 + 1),  // rand decided color 17
            ((1 << 62) | 300, 2 + 1), // rand proposing color 300
            (u64::MAX, 10),
        ] {
            assert_eq!(unrot(rot(state)), state);
            assert!(
                varint_len(rot(state)) <= max_bytes,
                "state {state:#x} took {} wire bytes",
                varint_len(rot(state))
            );
        }
    }

    #[test]
    fn codec_round_trips_every_field_kind() {
        let mut e = Enc::tagged(7);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX - 1);
        e.str("boundary ports");
        e.ids(&[1, 2, 3, 900]);
        e.states(&[(1 << 63) | 4, 0]);
        e.bytes(&[0xFF, 0x00]);
        e.pairs_states(&[(9, 1 << 62), (40, 3)]);
        e.pairs_vals(&[(2, 7)]);
        let mut d = Dec::new(&e.0);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.str().unwrap(), "boundary ports");
        assert_eq!(d.ids().unwrap(), [1, 2, 3, 900]);
        assert_eq!(d.states().unwrap(), [(1 << 63) | 4, 0]);
        assert_eq!(d.bytes().unwrap(), [0xFF, 0x00]);
        assert_eq!(d.pairs_states().unwrap(), [(9, 1 << 62), (40, 3)]);
        assert_eq!(d.pairs_vals().unwrap(), [(2, 7)]);
        d.finish().unwrap();
    }

    #[test]
    fn truncated_and_trailing_payloads_are_errors_not_panics() {
        let mut e = Enc::tagged(1);
        e.u64(u64::MAX);
        let mut d = Dec::new(&e.0[..4]);
        d.u8().unwrap();
        assert!(d.u64().is_err());
        let mut d = Dec::new(&e.0);
        d.u8().unwrap();
        assert!(d.finish().is_err());
        // A declared length past the buffer end must not allocate/panic.
        let mut d = Dec::new(&[0xFF, 0xFF, 0xFF, 0xFF, 1]);
        assert!(d.ids().is_err());
        // Non-ascending id lists are refused.
        let mut e = Enc::tagged(1);
        e.u32(2); // count
        e.u32(5); // first id
        e.u32(0); // zero gap
        let mut d = Dec::new(&e.0);
        d.u8().unwrap();
        assert!(d.ids().is_err());
    }

    #[test]
    fn frames_round_trip_over_a_byte_stream() {
        let mut buf = Vec::new();
        let mut tx = FrameSeq::default();
        write_frame(&mut buf, b"hello", &FrameMeter::disabled(), &mut tx).unwrap();
        write_frame(&mut buf, b"", &FrameMeter::disabled(), &mut tx).unwrap();
        let mut r = &buf[..];
        let mut rx = FrameSeq::default();
        assert_eq!(
            read_frame(&mut r, &FrameMeter::disabled(), &mut rx).unwrap(),
            b"hello"
        );
        assert!(read_frame(&mut r, &FrameMeter::disabled(), &mut rx)
            .unwrap()
            .is_empty());
        assert_eq!(rx.next_rx, 2);
    }

    #[test]
    fn frame_cap_is_enforced_at_exactly_one_byte_over() {
        let meter = FrameMeter::disabled();
        // At the cap and one under: round trip.
        for len in [MAX_FRAME - 1, MAX_FRAME] {
            let payload = vec![0x5Au8; len];
            let mut buf = Vec::new();
            write_frame(&mut buf, &payload, &meter, &mut FrameSeq::default()).unwrap();
            let got = read_frame(&mut &buf[..], &meter, &mut FrameSeq::default()).unwrap();
            assert_eq!(got.len(), len);
            assert_eq!(got[len / 2], 0x5A);
        }
        // One over: the writer refuses before any bytes hit the wire.
        let over = vec![0u8; MAX_FRAME + 1];
        let mut buf = Vec::new();
        let err = write_frame(&mut buf, &over, &meter, &mut FrameSeq::default()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(buf.is_empty(), "no partial frame may be written");
        // ... and the reader refuses a forged oversized prefix (past
        // the header allowance).
        let mut forged = Vec::new();
        put_varint(&mut forged, (MAX_FRAME + MAX_HEADER + 1) as u64);
        let err = read_frame(&mut &forged[..], &meter, &mut FrameSeq::default()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_length_prefix_is_refused() {
        // An absurdly long varint prefix (> 5 bytes) is refused without
        // allocating.
        let buf = [0xFFu8; 10];
        let err = read_frame(
            &mut &buf[..],
            &FrameMeter::disabled(),
            &mut FrameSeq::default(),
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn meter_counts_bytes_and_frames() {
        let hub = MetricsHub::new();
        let meter = FrameMeter::new(&hub);
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abc", &meter, &mut FrameSeq::default()).unwrap();
        read_frame(&mut &buf[..], &meter, &mut FrameSeq::default()).unwrap();
        // 1-byte length prefix + 1-byte sequence varint + 4 checksum
        // bytes + 3 payload bytes.
        assert_eq!(hub.counter("shard.bytes_sent").get(), 9);
        assert_eq!(hub.counter("shard.bytes_recv").get(), 9);
        assert_eq!(hub.counter("shard.frames").get(), 2);
    }

    #[test]
    fn checksum_catches_single_byte_corruption_everywhere() {
        let meter = FrameMeter::disabled();
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload", &meter, &mut FrameSeq::default()).unwrap();
        // Flip every byte after the length prefix in turn: each must be
        // rejected as InvalidData (corrupting the prefix itself changes
        // the framing, which is the cap test's territory).
        for i in 1..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0xFF;
            let err = read_frame(&mut &bad[..], &meter, &mut FrameSeq::default()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "byte {i}");
        }
    }

    #[test]
    fn duplicate_frames_are_dropped_and_gaps_refused() {
        let meter = FrameMeter::disabled();
        // Writer emits frames 0 and 1, then replays both (a chaos dup
        // of the whole tail); the reader must see each payload once.
        let mut tx = FrameSeq::default();
        let mut first = Vec::new();
        write_frame(&mut first, b"alpha", &meter, &mut tx).unwrap();
        let mut second = Vec::new();
        write_frame(&mut second, b"beta", &meter, &mut tx).unwrap();
        let mut third = Vec::new();
        write_frame(&mut third, b"gamma", &meter, &mut tx).unwrap();
        let mut stream = Vec::new();
        stream.extend_from_slice(&first);
        stream.extend_from_slice(&first); // duplicate
        stream.extend_from_slice(&second);
        stream.extend_from_slice(&first); // stale replay
        stream.extend_from_slice(&third);
        let mut r = &stream[..];
        let mut rx = FrameSeq::default();
        assert_eq!(read_frame(&mut r, &meter, &mut rx).unwrap(), b"alpha");
        assert_eq!(read_frame(&mut r, &meter, &mut rx).unwrap(), b"beta");
        assert_eq!(read_frame(&mut r, &meter, &mut rx).unwrap(), b"gamma");
        // A sequence gap (frame 2 skipped straight to 5) is an error.
        let mut skipped = Vec::new();
        let mut far = FrameSeq {
            next_tx: 5,
            next_rx: 0,
        };
        write_frame(&mut skipped, b"late", &meter, &mut far).unwrap();
        let err = read_frame(&mut &skipped[..], &meter, &mut rx).unwrap_err();
        assert!(err.to_string().contains("sequence gap"), "{err}");
    }

    #[test]
    fn frame_conn_round_trips_over_loopback_including_at_cap() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let worker = std::thread::spawn(move || {
            let mut stream = std::net::TcpStream::connect(addr).unwrap();
            let meter = FrameMeter::disabled();
            let mut seq = FrameSeq::default();
            // Echo frames back until the coordinator hangs up.
            loop {
                match read_frame(&mut stream, &meter, &mut seq) {
                    Ok(payload) => {
                        write_frame(&mut stream, &payload, &meter, &mut seq).unwrap();
                    }
                    Err(_) => return,
                }
            }
        });
        let (stream, _) = listener.accept().unwrap();
        let mut conn = FrameConn::new(stream).unwrap();
        let meter = FrameMeter::disabled();
        // Small frame, empty frame, multi-frame pipelining, and a frame
        // exactly at the cap all survive the nonblocking path.
        conn.send(b"ping", &meter).unwrap();
        conn.send(b"", &meter).unwrap();
        assert_eq!(conn.recv_deadline(&meter, None).unwrap(), b"ping");
        assert!(conn.recv_deadline(&meter, None).unwrap().is_empty());
        let big = vec![0xA5u8; MAX_FRAME];
        conn.send(&big, &meter).unwrap();
        let echoed = conn.recv_deadline(&meter, None).unwrap();
        assert_eq!(echoed.len(), MAX_FRAME);
        assert!(echoed == big);
        // One byte over the cap is refused locally.
        let over = vec![0u8; MAX_FRAME + 1];
        assert!(conn.send(&over, &meter).is_err());
        drop(conn);
        worker.join().unwrap();
    }

    #[test]
    fn frame_conn_absorbs_duplicates_and_rejects_corruption() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let worker = std::thread::spawn(move || {
            let mut stream = std::net::TcpStream::connect(addr).unwrap();
            let meter = FrameMeter::disabled();
            let mut seq = FrameSeq::default();
            // The worker sees exactly one copy of each duplicated frame.
            let mut seen = Vec::new();
            for _ in 0..2 {
                seen.push(read_frame(&mut stream, &meter, &mut seq).unwrap());
            }
            write_frame(&mut stream, b"ack", &meter, &mut seq).unwrap();
            // Hold the socket open until the peer is done asserting.
            let _ = read_frame(&mut stream, &meter, &mut seq);
            seen
        });
        let (stream, _) = listener.accept().unwrap();
        let mut conn = FrameConn::new(stream).unwrap();
        let meter = FrameMeter::disabled();
        let dup = TxFault {
            dup: true,
            ..TxFault::default()
        };
        conn.send_with(b"first", &meter, &dup).unwrap();
        conn.send_with(
            b"second",
            &meter,
            &TxFault {
                delay: Some(Duration::from_micros(50)),
                ..TxFault::default()
            },
        )
        .unwrap();
        assert_eq!(conn.recv_deadline(&meter, None).unwrap(), b"ack");
        conn.shutdown();
        assert_eq!(
            worker.join().unwrap(),
            vec![b"first".to_vec(), b"second".to_vec()]
        );

        // Corruption: a corrupted frame must fail the receiver's
        // checksum, not deliver garbage.
        let mut tx = FrameSeq::default();
        let mut good = Vec::new();
        write_frame(&mut good, b"intact", &FrameMeter::disabled(), &mut tx).unwrap();
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        let err = read_frame(
            &mut &bad[..],
            &FrameMeter::disabled(),
            &mut FrameSeq::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }
}

//! The coordinator–worker frame vocabulary (PROTO_VERSION 3).
//!
//! One round of the sharded runtime is one `RoundGo` → `RoundDone`
//! exchange per shard — the distributed analogue of one
//! [`crate::pool::WorkerPool`] epoch: `RoundGo` is the epoch kick,
//! collecting every shard's `RoundDone` is the barrier. Version 2 made
//! it a bandwidth protocol: the topology travels as the `graphgen::io`
//! binary CSR payload instead of a text edge-list, ghost state crosses
//! the wire only when it changed ([`GhostUpdates`]), and every integer
//! is a varint. Version 3 makes it a *robustness* protocol: every frame
//! carries a per-connection sequence number and an FNV-1a checksum in
//! its header (see `super::wire`), so duplicated frames are idempotent
//! and corruption is detected instead of decoded, and the new
//! [`Frame::Heartbeat`] keepalive lets liveness timeouts distinguish an
//! idle peer from a hung one. The full wire contract (field meanings,
//! restart protocol, versioning) is documented in `docs/DISTRIBUTED.md`.

use std::io;

use graphgen::NodeId;

use super::wire::{varint_len, Dec, Enc};
use crate::faults::FaultPlan;

/// Protocol version carried in [`Frame::Hello`]; the coordinator refuses
/// workers speaking any other version (see `validate_hello` in the
/// coordinator — an old worker gets a clear mismatch error, not silent
/// garbage).
pub const PROTO_VERSION: u32 = 3;

const TAG_HELLO: u8 = 1;
const TAG_INIT: u8 = 2;
const TAG_INIT_ACK: u8 = 3;
const TAG_ROUND_GO: u8 = 4;
const TAG_ROUND_DONE: u8 = 5;
const TAG_DUMP_REQ: u8 = 6;
const TAG_DUMP: u8 = 7;
const TAG_RESTORE: u8 = 8;
const TAG_RESTORE_ACK: u8 = 9;
const TAG_SHUTDOWN: u8 = 10;
const TAG_ERROR: u8 = 11;
const TAG_HEARTBEAT: u8 = 12;

const GHOSTS_PAIRS: u8 = 0;
const GHOSTS_PACKED: u8 = 1;

/// Changed ghost states for one direction of one round, in whichever of
/// two encodings is smaller *for this round*:
///
/// - `Pairs`: explicit `(node, state)` pairs, node ids delta-encoded
///   ascending. Cheap when few of the possible nodes changed (the
///   steady-state tail, where almost everything has halted).
/// - `Packed`: one presence bit per node of a *universe* — the sorted
///   id list both sides derived at init (a shard's ghost ids, or its
///   boundary ids) — followed by the states of the set bits in order.
///   Cheap in early rounds when most boundary nodes change and delta
///   ids would cost a byte or more each.
///
/// Both sides know the universe, so it never travels; [`GhostUpdates::pack`]
/// picks the encoding by exact byte cost, making the choice — and the
/// byte counts — deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum GhostUpdates {
    /// Explicit ascending `(node, state)` pairs.
    Pairs(Vec<(u32, u64)>),
    /// Positional bitmap over a shared universe id list plus the states
    /// of the set bits, in universe order.
    Packed {
        /// `universe.len().div_ceil(8)` bytes, bit `i` (little-endian
        /// within each byte) = `universe[i]` changed.
        bitmap: Vec<u8>,
        /// One state per set bit, in ascending universe order.
        states: Vec<u64>,
    },
}

impl GhostUpdates {
    /// No updates.
    #[must_use]
    pub fn empty() -> Self {
        GhostUpdates::Pairs(Vec::new())
    }

    /// Number of `(node, state)` updates carried.
    #[must_use]
    pub fn count(&self) -> usize {
        match self {
            GhostUpdates::Pairs(p) => p.len(),
            GhostUpdates::Packed { states, .. } => states.len(),
        }
    }

    /// Chooses the cheaper encoding for `updates`, which must be an
    /// ascending-id subset of `universe` (the shared sorted id list).
    #[must_use]
    pub fn pack(updates: Vec<(u32, u64)>, universe: &[u32]) -> Self {
        // States cost the same either way; compare only the id bytes:
        // delta varints (first absolute, then gaps) vs the fixed bitmap.
        let mut id_bytes = 0usize;
        let mut prev = 0u32;
        for (i, &(v, _)) in updates.iter().enumerate() {
            id_bytes += varint_len(u64::from(if i == 0 { v } else { v - prev }));
            prev = v;
        }
        let bitmap_bytes = universe.len().div_ceil(8);
        if id_bytes <= bitmap_bytes {
            return GhostUpdates::Pairs(updates);
        }
        let mut bitmap = vec![0u8; bitmap_bytes];
        let mut states = Vec::with_capacity(updates.len());
        let mut cursor = 0usize;
        for (v, s) in updates {
            let idx = cursor
                + universe[cursor..]
                    .iter()
                    .position(|&u| u == v)
                    .expect("ghost update id must be in the shared universe");
            bitmap[idx / 8] |= 1 << (idx % 8);
            states.push(s);
            cursor = idx + 1;
        }
        GhostUpdates::Packed { bitmap, states }
    }

    /// Expands the updates against the shared `universe`, returning
    /// `(index into universe, state)` in ascending order.
    ///
    /// # Errors
    ///
    /// Protocol errors (never panics): a bitmap of the wrong length, a
    /// state count that disagrees with the bitmap population, bits set
    /// past the universe, or a pair id that is not in the universe.
    pub fn resolve(&self, universe: &[u32]) -> io::Result<Vec<(usize, u64)>> {
        match self {
            GhostUpdates::Pairs(pairs) => {
                let mut out = Vec::with_capacity(pairs.len());
                let mut cursor = 0usize;
                for &(v, s) in pairs {
                    let Some(off) = universe[cursor.min(universe.len())..]
                        .iter()
                        .position(|&u| u == v)
                    else {
                        return Err(protocol(format!("ghost update for unknown node {v}")));
                    };
                    out.push((cursor + off, s));
                    cursor += off + 1;
                }
                Ok(out)
            }
            GhostUpdates::Packed { bitmap, states } => {
                if bitmap.len() != universe.len().div_ceil(8) {
                    return Err(protocol(format!(
                        "ghost bitmap is {} bytes for a {}-id universe",
                        bitmap.len(),
                        universe.len()
                    )));
                }
                let mut out = Vec::with_capacity(states.len());
                let mut next_state = states.iter();
                for (idx, _) in universe.iter().enumerate() {
                    if bitmap[idx / 8] & (1 << (idx % 8)) != 0 {
                        let Some(&s) = next_state.next() else {
                            return Err(protocol(
                                "ghost bitmap has more set bits than states".to_string(),
                            ));
                        };
                        out.push((idx, s));
                    }
                }
                if next_state.next().is_some() {
                    return Err(protocol(
                        "ghost bitmap has fewer set bits than states".to_string(),
                    ));
                }
                // Bits past the universe length would silently drop
                // states above; refuse them explicitly.
                for (byte_i, &b) in bitmap.iter().enumerate() {
                    for bit in 0..8 {
                        if b & (1 << bit) != 0 && byte_i * 8 + bit >= universe.len() {
                            return Err(protocol(
                                "ghost bitmap sets bits past the universe".to_string(),
                            ));
                        }
                    }
                }
                Ok(out)
            }
        }
    }

    fn encode_into(&self, e: &mut Enc) {
        match self {
            GhostUpdates::Pairs(pairs) => {
                e.u8(GHOSTS_PAIRS);
                e.pairs_states(pairs);
            }
            GhostUpdates::Packed { bitmap, states } => {
                e.u8(GHOSTS_PACKED);
                e.bytes(bitmap);
                e.states(states);
            }
        }
    }

    fn decode_from(d: &mut Dec) -> io::Result<Self> {
        match d.u8()? {
            GHOSTS_PAIRS => Ok(GhostUpdates::Pairs(d.pairs_states()?)),
            GHOSTS_PACKED => Ok(GhostUpdates::Packed {
                bitmap: d.bytes()?,
                states: d.states()?,
            }),
            other => Err(protocol(format!("unknown ghost-updates mode {other}"))),
        }
    }
}

fn protocol(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Serializes a fault plan for [`Frame::Init`]: empty bytes for an
/// inactive plan, otherwise seed, drop probability (f64 bit pattern),
/// jitter, and the crash list, all varints.
#[must_use]
pub fn encode_fault_plan(plan: &FaultPlan) -> Vec<u8> {
    if !plan.is_active() {
        return Vec::new();
    }
    let mut e = Enc::default();
    e.u64(plan.seed);
    e.u64(plan.message_drop_p.to_bits());
    e.u64(plan.round_jitter);
    e.u32(plan.node_crash.len() as u32);
    for &(round, node) in &plan.node_crash {
        e.u64(round);
        e.u32(node.0);
    }
    e.0
}

/// Inverse of [`encode_fault_plan`]; empty bytes decode to the inert
/// default plan.
///
/// # Errors
///
/// Malformed payloads (truncation, trailing bytes).
pub fn decode_fault_plan(bytes: &[u8]) -> io::Result<FaultPlan> {
    if bytes.is_empty() {
        return Ok(FaultPlan::default());
    }
    let mut d = Dec::new(bytes);
    let seed = d.u64()?;
    let message_drop_p = f64::from_bits(d.u64()?);
    let round_jitter = d.u64()?;
    let crashes = d.u32()? as usize;
    let mut node_crash = Vec::with_capacity(crashes.min(bytes.len()));
    for _ in 0..crashes {
        let round = d.u64()?;
        let node = d.u32()?;
        node_crash.push((round, NodeId(node)));
    }
    d.finish()?;
    Ok(FaultPlan {
        seed,
        message_drop_p,
        node_crash,
        round_jitter,
    })
}

/// One protocol frame. All node ids are raw `u32` indices and all states
/// and outputs are the `u64` values of [`super::WireAlgo`].
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Worker → coordinator, immediately after connecting.
    Hello {
        /// Must equal [`PROTO_VERSION`].
        version: u32,
    },
    /// Coordinator → worker: everything a (re)joining worker needs.
    /// Only the `start..end` vertex range is owned; the `graph` payload
    /// carries either the full topology or just the sub-topology this
    /// shard can see (owned range plus ghost-adjacent structure) —
    /// whichever is smaller (see `shard::topology`).
    Init {
        /// Shard index assigned by the coordinator.
        shard: u32,
        /// Total shard count.
        shards: u32,
        /// First owned vertex (inclusive).
        start: u32,
        /// One past the last owned vertex.
        end: u32,
        /// [`super::WireAlgo`] spec, e.g. `greedy` or `rand:7`.
        algo: String,
        /// `encode_fault_plan` payload; empty = no plan.
        faults: Vec<u8>,
        /// `shard::topology` payload (mode byte + binary CSR data).
        graph: Vec<u8>,
    },
    /// Worker → coordinator: init complete, ready for round 1.
    InitAck {
        /// Echo of the assigned shard index.
        shard: u32,
    },
    /// Coordinator → worker: run one synchronous round.
    RoundGo {
        /// 1-based round number (matches `NodeCtx::round`).
        round: u64,
        /// Nodes crashing at the start of this round, ascending (global
        /// list; each worker freezes the ones it owns).
        crashes: Vec<u32>,
        /// Ghost states that changed last round, against this shard's
        /// ghost-id universe. Unchanged ghosts are never re-sent.
        ghosts: GhostUpdates,
    },
    /// Worker → coordinator: the round's results for one shard.
    RoundDone {
        /// Echo of the round number.
        round: u64,
        /// Messages charged by this shard's live nodes (one per incident
        /// edge per stepped node, matching the single-process executor).
        msgs: u64,
        /// Dropped neighbor-state reads.
        dropped: u64,
        /// Nodes stalled by jitter.
        stalled: u64,
        /// Boundary updates withheld because the node's state did not
        /// change this round (the delta-exchange savings counter).
        suppressed: u64,
        /// `(node, output)` for owned nodes that halted this round, in
        /// ascending node order.
        halts: Vec<(u32, u64)>,
        /// Changed states of owned *boundary* nodes, against this
        /// shard's boundary-id universe. Interior states never cross
        /// the wire; unchanged boundary states no longer do either.
        boundary: GhostUpdates,
    },
    /// Coordinator → worker: reply with a [`Frame::Dump`]. Carries the
    /// checkpoint round because an **idle** shard (all owned nodes
    /// halted or crashed) receives no `RoundGo` kicks and therefore has
    /// no local notion of the current round; the worker echoes this
    /// value back in the `Dump`.
    DumpReq {
        /// The round the checkpoint captures.
        round: u64,
    },
    /// Worker → coordinator: this shard's slice of a checkpoint.
    Dump {
        /// Last completed round.
        round: u64,
        /// States of the owned vertex range, in order.
        states: Vec<u64>,
        /// Owned nodes still live, ascending.
        live: Vec<u32>,
        /// Drop cache for the owned directed-port range (empty when the
        /// plan injects no drops).
        seen: Vec<u64>,
    },
    /// Coordinator → worker: rewind to a checkpoint. Broadcast to every
    /// shard after a failure so the whole cluster replays in lockstep;
    /// the next `RoundGo` after a restore is a full-sync epoch (every
    /// ghost travels), so delta state never spans a restart.
    Restore {
        /// The checkpoint's round.
        round: u64,
        /// All `n` node states at that round.
        states: Vec<u64>,
        /// Live bitmap over all nodes, bit `v` = node `v` live, packed
        /// little-endian into bytes.
        live: Vec<u8>,
        /// Full drop cache (all directed ports; empty without drops).
        seen: Vec<u64>,
    },
    /// Worker → coordinator: restore applied, ready to replay.
    RestoreAck {
        /// Echo of the checkpoint round.
        round: u64,
    },
    /// Coordinator → worker: exit cleanly.
    Shutdown,
    /// Worker → coordinator: fatal worker-side error.
    Error {
        /// Human-readable description.
        message: String,
    },
    /// Coordinator → worker keepalive: expects no reply; its only job
    /// is to keep an idle worker's read timeout from firing (and to let
    /// a half-open connection surface as a send error). Sent outside
    /// the metered byte counters so chaos timing never perturbs the
    /// deterministic traffic figures.
    Heartbeat,
}

impl Frame {
    /// Serializes the frame into a wire payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Frame::Hello { version } => {
                let mut e = Enc::tagged(TAG_HELLO);
                e.u32(*version);
                e.0
            }
            Frame::Init {
                shard,
                shards,
                start,
                end,
                algo,
                faults,
                graph,
            } => {
                let mut e = Enc::with_hint(TAG_INIT, 24 + algo.len() + faults.len() + graph.len());
                e.u32(*shard);
                e.u32(*shards);
                e.u32(*start);
                e.u32(*end);
                e.str(algo);
                e.bytes(faults);
                e.bytes(graph);
                e.0
            }
            Frame::InitAck { shard } => {
                let mut e = Enc::tagged(TAG_INIT_ACK);
                e.u32(*shard);
                e.0
            }
            Frame::RoundGo {
                round,
                crashes,
                ghosts,
            } => {
                let mut e = Enc::tagged(TAG_ROUND_GO);
                e.u64(*round);
                e.ids(crashes);
                ghosts.encode_into(&mut e);
                e.0
            }
            Frame::RoundDone {
                round,
                msgs,
                dropped,
                stalled,
                suppressed,
                halts,
                boundary,
            } => {
                let mut e = Enc::tagged(TAG_ROUND_DONE);
                e.u64(*round);
                e.u64(*msgs);
                e.u64(*dropped);
                e.u64(*stalled);
                e.u64(*suppressed);
                e.pairs_vals(halts);
                boundary.encode_into(&mut e);
                e.0
            }
            Frame::DumpReq { round } => {
                let mut e = Enc::tagged(TAG_DUMP_REQ);
                e.u64(*round);
                e.0
            }
            Frame::Dump {
                round,
                states,
                live,
                seen,
            } => {
                let mut e = Enc::with_hint(TAG_DUMP, 16 + 3 * states.len() + 3 * seen.len());
                e.u64(*round);
                e.states(states);
                e.ids(live);
                e.states(seen);
                e.0
            }
            Frame::Restore {
                round,
                states,
                live,
                seen,
            } => {
                let mut e = Enc::with_hint(
                    TAG_RESTORE,
                    16 + 3 * states.len() + live.len() + 3 * seen.len(),
                );
                e.u64(*round);
                e.states(states);
                e.bytes(live);
                e.states(seen);
                e.0
            }
            Frame::RestoreAck { round } => {
                let mut e = Enc::tagged(TAG_RESTORE_ACK);
                e.u64(*round);
                e.0
            }
            Frame::Shutdown => Enc::tagged(TAG_SHUTDOWN).0,
            Frame::Error { message } => {
                let mut e = Enc::tagged(TAG_ERROR);
                e.str(message);
                e.0
            }
            Frame::Heartbeat => Enc::tagged(TAG_HEARTBEAT).0,
        }
    }

    /// Parses a wire payload back into a frame.
    ///
    /// # Errors
    ///
    /// Unknown tags, truncation, trailing bytes, and malformed fields.
    pub fn decode(payload: &[u8]) -> io::Result<Frame> {
        let mut d = Dec::new(payload);
        let frame = match d.u8()? {
            TAG_HELLO => Frame::Hello { version: d.u32()? },
            TAG_INIT => Frame::Init {
                shard: d.u32()?,
                shards: d.u32()?,
                start: d.u32()?,
                end: d.u32()?,
                algo: d.str()?,
                faults: d.bytes()?,
                graph: d.bytes()?,
            },
            TAG_INIT_ACK => Frame::InitAck { shard: d.u32()? },
            TAG_ROUND_GO => Frame::RoundGo {
                round: d.u64()?,
                crashes: d.ids()?,
                ghosts: GhostUpdates::decode_from(&mut d)?,
            },
            TAG_ROUND_DONE => Frame::RoundDone {
                round: d.u64()?,
                msgs: d.u64()?,
                dropped: d.u64()?,
                stalled: d.u64()?,
                suppressed: d.u64()?,
                halts: d.pairs_vals()?,
                boundary: GhostUpdates::decode_from(&mut d)?,
            },
            TAG_DUMP_REQ => Frame::DumpReq { round: d.u64()? },
            TAG_DUMP => Frame::Dump {
                round: d.u64()?,
                states: d.states()?,
                live: d.ids()?,
                seen: d.states()?,
            },
            TAG_RESTORE => Frame::Restore {
                round: d.u64()?,
                states: d.states()?,
                live: d.bytes()?,
                seen: d.states()?,
            },
            TAG_RESTORE_ACK => Frame::RestoreAck { round: d.u64()? },
            TAG_SHUTDOWN => Frame::Shutdown,
            TAG_ERROR => Frame::Error { message: d.str()? },
            TAG_HEARTBEAT => Frame::Heartbeat,
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown frame tag {other}"),
                ))
            }
        };
        d.finish()?;
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_frame_round_trips() {
        let frames = [
            Frame::Hello {
                version: PROTO_VERSION,
            },
            Frame::Init {
                shard: 2,
                shards: 4,
                start: 10,
                end: 20,
                algo: "rand:7".to_string(),
                faults: encode_fault_plan(&FaultPlan {
                    seed: 7,
                    message_drop_p: 0.05,
                    node_crash: vec![(5, NodeId(3))],
                    round_jitter: 2,
                }),
                graph: vec![3, 1, 1, 1, 1, 1, 1, 0],
            },
            Frame::InitAck { shard: 2 },
            Frame::RoundGo {
                round: 5,
                crashes: vec![3, 9],
                ghosts: GhostUpdates::Pairs(vec![(9, 77), (21, 0)]),
            },
            Frame::RoundGo {
                round: 6,
                crashes: vec![],
                ghosts: GhostUpdates::Packed {
                    bitmap: vec![0b101],
                    states: vec![(1 << 63) | 4, 1 << 62],
                },
            },
            Frame::RoundDone {
                round: 5,
                msgs: 40,
                dropped: 1,
                stalled: 2,
                suppressed: 17,
                halts: vec![(11, 3)],
                boundary: GhostUpdates::Pairs(vec![(10, 8), (19, 9)]),
            },
            Frame::DumpReq { round: 6 },
            Frame::Dump {
                round: 6,
                states: vec![1, 2, 1 << 63],
                live: vec![10, 12],
                seen: vec![],
            },
            Frame::Restore {
                round: 4,
                states: vec![0; 8],
                live: vec![0b1010_1010],
                seen: vec![5, 6],
            },
            Frame::RestoreAck { round: 4 },
            Frame::Shutdown,
            Frame::Error {
                message: "boom".to_string(),
            },
            Frame::Heartbeat,
        ];
        for f in frames {
            let decoded = Frame::decode(&f.encode()).unwrap();
            assert_eq!(decoded, f);
        }
    }

    #[test]
    fn unknown_tag_and_truncation_are_refused() {
        assert!(Frame::decode(&[200]).is_err());
        let bytes = Frame::RoundGo {
            round: 1,
            crashes: vec![1, 2],
            ghosts: GhostUpdates::empty(),
        }
        .encode();
        assert!(Frame::decode(&bytes[..bytes.len() - 1]).is_err());
        // Trailing garbage after a well-formed frame is also an error.
        let mut padded = Frame::Shutdown.encode();
        padded.push(0);
        assert!(Frame::decode(&padded).is_err());
        // An unknown ghost-updates mode byte is a protocol error.
        let mut go = Enc::tagged(4);
        go.u64(1);
        go.ids(&[]);
        go.u8(9);
        assert!(Frame::decode(&go.0).is_err());
    }

    #[test]
    fn fault_plans_round_trip_exactly() {
        let inert = FaultPlan::default();
        assert!(encode_fault_plan(&inert).is_empty());
        assert_eq!(decode_fault_plan(&[]).unwrap(), inert);
        let plan = FaultPlan {
            seed: u64::MAX,
            message_drop_p: 0.017,
            node_crash: vec![(5, NodeId(3)), (5, NodeId(9)), (1 << 40, NodeId(0))],
            round_jitter: 2,
        };
        let bytes = encode_fault_plan(&plan);
        let back = decode_fault_plan(&bytes).unwrap();
        assert_eq!(back, plan);
        assert_eq!(back.message_drop_p.to_bits(), plan.message_drop_p.to_bits());
        assert!(decode_fault_plan(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn ghost_packing_picks_the_cheaper_encoding_deterministically() {
        let universe: Vec<u32> = (0..64).map(|i| i * 10).collect();
        // One update: 2 delta bytes vs an 8-byte bitmap → Pairs.
        let few = GhostUpdates::pack(vec![(630, 5)], &universe);
        assert!(matches!(few, GhostUpdates::Pairs(_)));
        // Every id updates: 64 × ~2 delta bytes vs 8 bitmap bytes → Packed.
        let all: Vec<(u32, u64)> = universe.iter().map(|&v| (v, u64::from(v))).collect();
        let dense = GhostUpdates::pack(all.clone(), &universe);
        assert!(matches!(dense, GhostUpdates::Packed { .. }));
        // Either way the resolved (index, state) expansion is identical.
        let expect: Vec<(usize, u64)> = (0..64).map(|i| (i, (i as u64) * 10)).collect();
        assert_eq!(dense.resolve(&universe).unwrap(), expect);
        assert_eq!(GhostUpdates::Pairs(all).resolve(&universe).unwrap(), expect);
        assert_eq!(few.resolve(&universe).unwrap(), vec![(63, 5)]);
        // Empty stays Pairs and resolves to nothing.
        assert_eq!(
            GhostUpdates::pack(vec![], &universe)
                .resolve(&universe)
                .unwrap(),
            vec![]
        );
    }

    #[test]
    fn malformed_ghost_updates_resolve_to_errors_not_panics() {
        let universe = [2u32, 5, 9];
        // Pair id outside the universe.
        assert!(GhostUpdates::Pairs(vec![(3, 0)])
            .resolve(&universe)
            .is_err());
        // Wrong bitmap length.
        assert!(GhostUpdates::Packed {
            bitmap: vec![0, 0],
            states: vec![],
        }
        .resolve(&universe)
        .is_err());
        // Popcount disagrees with the state count, both directions.
        assert!(GhostUpdates::Packed {
            bitmap: vec![0b011],
            states: vec![1],
        }
        .resolve(&universe)
        .is_err());
        assert!(GhostUpdates::Packed {
            bitmap: vec![0b001],
            states: vec![1, 2],
        }
        .resolve(&universe)
        .is_err());
        // A bit past the universe end is refused.
        assert!(GhostUpdates::Packed {
            bitmap: vec![0b1000],
            states: vec![1],
        }
        .resolve(&universe)
        .is_err());
    }
}

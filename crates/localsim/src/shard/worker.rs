//! The shard worker: owns a contiguous vertex range and serves the
//! coordinator's round protocol over one TCP connection.
//!
//! A worker is deliberately dumb: it holds no round counter of its own
//! and never emits telemetry. The coordinator's frames carry the round
//! clock ([`Frame::RoundGo`]) and the worker answers each with exactly
//! one [`Frame::RoundDone`] — which makes the worker trivially
//! restartable: a respawned worker is indistinguishable from a fresh one
//! once [`Frame::Init`] + [`Frame::Restore`] have replayed its state
//! (`Restore` carries every node's state, so no ghost delta survives a
//! restart).
//!
//! A round is one call of the crate's round kernel
//! (`kernel::step_range`, the same kernel [`crate::Executor`] steps
//! with) over the owned live list: ghost states already sit in the
//! full-length state vector, so the kernel's plain gather or drop-cache
//! view reads them like any other neighbor. The equivalence suite in
//! `tests/shard.rs` pins that sharded and single-process runs stay
//! bit-identical. On the wire the worker is a delta endpoint: its
//! `on_continue` hook reports only boundary states that *changed* this
//! round (counting the rest into `suppressed`), and it only receives
//! ghost states that changed on their owning shard.

use std::io::{self, BufReader};
use std::net::TcpStream;
use std::time::Duration;

use graphgen::NodeId;

use super::algo::WireAlgo;
use super::proto::{decode_fault_plan, Frame, GhostUpdates, PROTO_VERSION};
use super::topology::Topology;
use super::wire::{read_frame, write_frame, write_frame_buf, FrameMeter, FrameSeq, MAX_FRAME};
use crate::exec::{LocalAlgorithm, NodeCtx};
use crate::faults::FaultPlan;
use crate::kernel::{step_range, DropCache, Gather, Round, Scratch, Window};

/// Default worker read timeout: a coordinator that goes silent this
/// long is presumed dead, and the worker exits instead of leaking.
/// Generous because an idle worker normally hears a `Heartbeat` every
/// couple of seconds (see `netfault::Liveness::heartbeat_every`).
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(60);

/// Connects to a coordinator at `addr` and serves rounds until a
/// [`Frame::Shutdown`] arrives or the connection drops, with the
/// default read timeout.
///
/// # Errors
///
/// Returns any transport or protocol error; a killed coordinator
/// surfaces as an I/O error here, which callers (the `shard-serve` CLI,
/// the thread backend) treat as a normal exit path.
pub fn serve_connect(addr: &str) -> io::Result<()> {
    serve_connect_with(addr, DEFAULT_READ_TIMEOUT)
}

/// [`serve_connect`] with an explicit read timeout
/// (`Duration::ZERO` disables it and restores the block-forever
/// pre-v3 behavior).
///
/// # Errors
///
/// As [`serve_connect`].
pub fn serve_connect_with(addr: &str, read_timeout: Duration) -> io::Result<()> {
    let stream = TcpStream::connect(addr)?;
    serve_with(stream, read_timeout)
}

/// Serves the worker protocol over an established connection with the
/// default read timeout.
///
/// # Errors
///
/// Returns transport errors and protocol violations (bad frame order,
/// undecodable payloads). State-construction failures (bad graph
/// payload, unknown algorithm spec) are also reported to the
/// coordinator as a [`Frame::Error`] before returning.
pub fn serve(stream: TcpStream) -> io::Result<()> {
    serve_with(stream, DEFAULT_READ_TIMEOUT)
}

/// Maps a read-timeout error into the orphaned-worker diagnosis; every
/// other error passes through untouched.
fn orphaned(e: io::Error, read_timeout: Duration) -> io::Error {
    if matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    ) {
        return io::Error::new(
            e.kind(),
            format!(
                "no frame from the coordinator in {read_timeout:?}: \
                 presuming it dead, orphaned worker exiting"
            ),
        );
    }
    e
}

/// [`serve`] with an explicit read timeout.
///
/// # Errors
///
/// As [`serve`]; additionally, when the coordinator sends nothing for
/// `read_timeout` (not even a heartbeat), the worker exits with a
/// clear `TimedOut`/`WouldBlock` error naming the orphan condition
/// instead of blocking forever on a vanished peer.
pub(crate) fn serve_with(mut stream: TcpStream, read_timeout: Duration) -> io::Result<()> {
    stream.set_nodelay(true)?;
    if !read_timeout.is_zero() {
        stream.set_read_timeout(Some(read_timeout))?;
    }
    let meter = FrameMeter::disabled();
    let mut seq = FrameSeq::default();
    let mut reader = BufReader::new(stream.try_clone()?);
    write_frame(
        &mut stream,
        &Frame::Hello {
            version: PROTO_VERSION,
        }
        .encode(),
        &meter,
        &mut seq,
    )?;
    let payload =
        read_frame(&mut reader, &meter, &mut seq).map_err(|e| orphaned(e, read_timeout))?;
    let init = Frame::decode(&payload)?;
    let Frame::Init {
        shard,
        start,
        end,
        algo,
        faults,
        graph,
        ..
    } = init
    else {
        return Err(protocol(format!("expected Init, got {init:?}")));
    };
    let mut state = match ShardState::build(start, end, &algo, &faults, &graph) {
        Ok(s) => s,
        Err(msg) => {
            let _ = write_frame(
                &mut stream,
                &Frame::Error {
                    message: msg.clone(),
                }
                .encode(),
                &meter,
                &mut seq,
            );
            return Err(protocol(msg));
        }
    };
    write_frame(
        &mut stream,
        &Frame::InitAck { shard }.encode(),
        &meter,
        &mut seq,
    )?;

    // Per-connection scratch: every reply is assembled into `frame_buf`
    // and hits the socket as one `write_all`.
    let mut frame_buf: Vec<u8> = Vec::new();
    loop {
        let payload =
            read_frame(&mut reader, &meter, &mut seq).map_err(|e| orphaned(e, read_timeout))?;
        let frame = Frame::decode(&payload)?;
        let reply = match frame {
            Frame::RoundGo {
                round,
                crashes,
                ghosts,
            } => state.run_round(round, &crashes, &ghosts)?,
            Frame::DumpReq { round } => state.dump(round),
            Frame::Restore {
                round,
                states,
                live,
                seen,
            } => state.restore(round, states, &live, seen)?,
            Frame::Shutdown => return Ok(()),
            // Keepalive: resets the read timeout by arriving; no reply.
            Frame::Heartbeat => continue,
            other => return Err(protocol(format!("unexpected frame {other:?}"))),
        };
        write_frame_buf(
            &mut stream,
            &reply_payload(&reply),
            &mut frame_buf,
            &meter,
            &mut seq,
        )?;
    }
}

/// Encodes a reply, substituting a clean [`Frame::Error`] when the
/// encoded reply would blow the frame cap (a 64 MiB-plus `Dump` must
/// fail loudly, not jam the connection).
fn reply_payload(reply: &Frame) -> Vec<u8> {
    let payload = reply.encode();
    if payload.len() <= MAX_FRAME {
        return payload;
    }
    Frame::Error {
        message: format!(
            "reply frame of {} bytes exceeds the {MAX_FRAME}-byte cap",
            payload.len()
        ),
    }
    .encode()
}

fn protocol(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// One shard's executor state: the topology view shipped by `Init`
/// (full graph or owned-range slice), the full-length state vector
/// (authoritative on `start..end`, ghost copies for foreign neighbors,
/// untouched init zeros elsewhere), and the owned slices of the live
/// worklist, outputs and drop cache.
///
/// Crate-visible because the coordinator *adopts* a shard whose respawn
/// budget is exhausted: it builds this same state from the cached
/// `Init` frame and serves the shard's frames in-process (graceful
/// degradation instead of aborting the run).
pub(crate) struct ShardState {
    topo: Topology,
    algo: WireAlgo,
    plan: FaultPlan,
    start: usize,
    end: usize,
    /// States as of the last completed round. Only entries for owned
    /// vertices and ghosts (foreign neighbors of owned vertices) are
    /// ever read; ghost entries update only when a `RoundGo` carries a
    /// change or a `Restore` resets everything.
    cur: Vec<u64>,
    /// Write buffer for the owned range (`end - start` entries).
    nxt: Vec<u64>,
    /// Outputs of the owned range; a round's halts are taken out of it
    /// before the round's reply, so it is all `None` between rounds.
    outputs: Vec<Option<u64>>,
    /// Owned nodes still live, ascending.
    live: Vec<NodeId>,
    /// The kernel's scratch; its survivor list becomes `live`.
    scratch: Scratch<u64>,
    /// Per-directed-port "last heard" drop cache covering exactly the
    /// owned port range: `seen[0]` is global port `ports[0]`.
    seen: Vec<u64>,
    /// Global port offsets over the owned range (local offsets when
    /// drops are off): vertex `start + i` owns ports
    /// `ports[i]..ports[i + 1]`.
    ports: Vec<usize>,
    /// `boundary[v - start]` = owned `v` has a foreign neighbor.
    boundary: Vec<bool>,
    /// Sorted foreign neighbors of the owned range — the universe the
    /// coordinator packs `RoundGo` ghosts against.
    ghost_ids: Vec<u32>,
    /// Sorted owned vertices with a foreign neighbor — the universe
    /// `RoundDone` boundary updates are packed against.
    boundary_ids: Vec<u32>,
    drop_on: bool,
    jitter_on: bool,
}

impl ShardState {
    pub(crate) fn build(
        start: u32,
        end: u32,
        algo: &str,
        faults: &[u8],
        graph: &[u8],
    ) -> Result<ShardState, String> {
        let (start, end) = (start as usize, end as usize);
        let topo = Topology::decode(graph, start, end)
            .map_err(|e| format!("shard init: bad graph payload: {e}"))?;
        let algo: WireAlgo = algo
            .parse()
            .map_err(|e| format!("shard init: bad algorithm spec: {e}"))?;
        let plan =
            decode_fault_plan(faults).map_err(|e| format!("shard init: bad fault plan: {e}"))?;
        let n = topo.n();
        let max_degree = topo.max_degree();
        let mut ports = Vec::with_capacity(end - start + 1);
        ports.push(0usize);
        let mut boundary = Vec::with_capacity(end - start);
        let mut ghost_ids: Vec<u32> = Vec::new();
        for v in start..end {
            let nbrs = topo.neighbors(NodeId(v as u32));
            ports.push(ports.last().unwrap() + nbrs.len());
            let mut foreign = false;
            for w in nbrs {
                if w.index() < start || w.index() >= end {
                    foreign = true;
                    ghost_ids.push(w.0);
                }
            }
            boundary.push(foreign);
        }
        ghost_ids.sort_unstable();
        ghost_ids.dedup();
        let boundary_ids: Vec<u32> = (start..end)
            .filter(|&v| boundary[v - start])
            .map(|v| v as u32)
            .collect();
        // Init states are a pure function of (id, n, Δ) for every wire
        // algorithm — no neighbor reads — so the worker computes them
        // for exactly the vertices it will ever look at (owned range
        // plus ghosts) and never needs ghost adjacency or a round-0
        // exchange.
        let init_ctx = |v: usize| NodeCtx {
            node: NodeId(v as u32),
            uid: v as u64,
            neighbors: &[],
            round: 0,
            n,
            max_degree,
        };
        let mut cur = vec![0u64; n];
        for (v, c) in cur.iter_mut().enumerate().take(end).skip(start) {
            *c = algo.init(&init_ctx(v));
        }
        for &g in &ghost_ids {
            cur[g as usize] = algo.init(&init_ctx(g as usize));
        }
        let nxt = cur[start..end].to_vec();
        let drop_on = plan.drops();
        let mut seen = Vec::new();
        if drop_on {
            let port_base = topo.global_port_base(start).ok_or_else(|| {
                "shard init: fault plan drops messages but the graph payload \
                 carries no port information"
                    .to_string()
            })?;
            // Seed the owned port range from the init states (the setup
            // exchange is reliable), exactly like the single-process
            // seeding.
            seen.reserve_exact(ports[end - start]);
            for v in start..end {
                let nbrs = topo.neighbors(NodeId(v as u32));
                seen.extend(nbrs.iter().map(|w| cur[w.index()]));
            }
            for p in &mut ports {
                *p += port_base;
            }
        }
        let jitter_on = plan.jitters();
        Ok(ShardState {
            topo,
            algo,
            plan,
            start,
            end,
            cur,
            nxt,
            outputs: vec![None; end - start],
            live: (start..end).map(|v| NodeId(v as u32)).collect(),
            scratch: Scratch::new(max_degree),
            seen,
            ports,
            boundary,
            ghost_ids,
            boundary_ids,
            drop_on,
            jitter_on,
        })
    }

    pub(crate) fn run_round(
        &mut self,
        round: u64,
        crashes: &[u32],
        ghosts: &GhostUpdates,
    ) -> io::Result<Frame> {
        for (idx, s) in ghosts.resolve(&self.ghost_ids)? {
            self.cur[self.ghost_ids[idx] as usize] = s;
        }
        // Crashes freeze at the start of the round, before any step.
        for &v in crashes {
            let v = NodeId(v);
            if v.index() < self.start || v.index() >= self.end {
                continue;
            }
            if let Ok(pos) = self.live.binary_search(&v) {
                self.live.remove(pos);
                self.nxt[v.index() - self.start] = self.cur[v.index()];
            }
        }
        let topo = &self.topo;
        let (n, max_degree) = (topo.n(), topo.max_degree());
        let node_ctx = |v: NodeId, round: u64| NodeCtx {
            node: v,
            uid: u64::from(v.0),
            neighbors: topo.neighbors(v),
            round,
            n,
            max_degree,
        };
        let rnd = Round {
            algo: &self.algo,
            number: round,
            node_ctx: &node_ctx,
            stalls: self.jitter_on.then_some(&self.plan),
            sleep: false,
        };
        let win = Window {
            lo: self.start,
            nxt: &mut self.nxt,
            outputs: &mut self.outputs,
        };
        let mut suppressed = 0u64;
        let mut boundary_out: Vec<(u32, u64)> = Vec::new();
        let (start, boundary) = (self.start, &self.boundary);
        // Stalled nodes never reach the hook, so they are not counted
        // as suppressed.
        let mut on_continue = |v: NodeId, old: &u64, new: &u64| {
            if boundary[v.index() - start] {
                if new == old {
                    // Neighboring shards already hold this state; the
                    // delta exchange sends nothing.
                    suppressed += 1;
                } else {
                    boundary_out.push((v.0, *new));
                }
            }
        };
        let counts = if self.drop_on {
            let mut view = DropCache {
                plan: &self.plan,
                seen: &mut self.seen,
                seen_lo: self.ports[0],
                ports: &self.ports,
                node_lo: start,
            };
            let sc = &mut self.scratch;
            step_range(
                &rnd,
                &self.live,
                &self.cur,
                &mut view,
                win,
                sc,
                &mut on_continue,
            )
        } else {
            let sc = &mut self.scratch;
            step_range(
                &rnd,
                &self.live,
                &self.cur,
                &mut Gather,
                win,
                sc,
                &mut on_continue,
            )
        };
        // A halted node froze its pre-round state, which neighbors
        // already hold, so it needs no boundary update.
        let halts: Vec<(u32, u64)> = self
            .live
            .iter()
            .filter_map(|v| self.outputs[v.index() - start].take().map(|o| (v.0, o)))
            .collect();
        std::mem::swap(&mut self.live, &mut self.scratch.survivors);
        self.scratch.survivors.clear();
        self.cur[self.start..self.end].copy_from_slice(&self.nxt);
        Ok(Frame::RoundDone {
            round,
            msgs: counts.msgs as u64,
            dropped: counts.dropped as u64,
            stalled: counts.stalled as u64,
            suppressed,
            halts,
            boundary: GhostUpdates::pack(boundary_out, &self.boundary_ids),
        })
    }

    /// The coordinator names the checkpoint round (an idle shard is not
    /// kicked, so it cannot know it); this shard's states are current
    /// for that round either way — an unkicked shard's states have not
    /// changed since its last live round.
    pub(crate) fn dump(&self, round: u64) -> Frame {
        Frame::Dump {
            round,
            states: self.cur[self.start..self.end].to_vec(),
            live: self.live.iter().map(|v| v.0).collect(),
            seen: self.seen.clone(),
        }
    }

    pub(crate) fn restore(
        &mut self,
        round: u64,
        states: Vec<u64>,
        live: &[u8],
        seen: Vec<u64>,
    ) -> io::Result<Frame> {
        if states.len() != self.cur.len() {
            return Err(protocol(format!(
                "restore with {} states for {} nodes",
                states.len(),
                self.cur.len()
            )));
        }
        // The full state vector resets owned *and* ghost entries, so the
        // delta exchange restarts from a synchronized baseline — no
        // explicit full-sync round is needed after a restore.
        self.cur = states;
        self.nxt.copy_from_slice(&self.cur[self.start..self.end]);
        self.live = (self.start..self.end)
            .filter(|&v| live.get(v / 8).is_some_and(|b| b & (1 << (v % 8)) != 0))
            .map(|v| NodeId(v as u32))
            .collect();
        if self.drop_on {
            let (lo, hi) = (self.ports[0], self.ports[self.end - self.start]);
            if seen.len() < hi {
                return Err(protocol(format!(
                    "restore drop cache has {} ports, owned range needs {hi}",
                    seen.len()
                )));
            }
            self.seen = seen[lo..hi].to_vec();
        }
        Ok(Frame::RestoreAck { round })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oversized_replies_become_clean_error_frames() {
        // A Dump whose encoding tops the 64 MiB cap (u64::MAX states are
        // 10 wire bytes each) must degrade into an Error frame the
        // coordinator can decode, never a jammed oversized write.
        let dump = Frame::Dump {
            round: 1,
            states: vec![u64::MAX; 8 << 20],
            live: vec![],
            seen: vec![],
        };
        assert!(dump.encode().len() > MAX_FRAME);
        let payload = reply_payload(&dump);
        assert!(payload.len() <= MAX_FRAME);
        match Frame::decode(&payload).unwrap() {
            Frame::Error { message } => assert!(message.contains("exceeds")),
            other => panic!("expected Error frame, got {other:?}"),
        }
        // Ordinary replies pass through untouched.
        let small = Frame::RestoreAck { round: 3 };
        assert_eq!(reply_payload(&small), small.encode());
    }
}

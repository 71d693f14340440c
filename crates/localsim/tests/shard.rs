//! Equivalence suite for the sharded backend (thread-hosted workers over
//! loopback TCP): an `N`-shard run must be bit-identical to the
//! single-process executor — same outputs, same round count, same
//! normalized telemetry event stream — on every topology × algorithm ×
//! clean/faulted combination, including after a shard is killed mid-run
//! and resumed from a checkpoint. The multi-*process* variant of these
//! checks (real SIGKILL) lives in the workspace-root `tests/shard.rs`.

use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use graphgen::{generators, Graph};
use localsim::shard::{
    read_frame, serve_connect, serve_connect_with, write_frame, Frame, FrameMeter, FrameSeq,
    WorkerBackend, PROTO_VERSION,
};
use localsim::{
    ChaosKill, Event, Executor, FaultPlan, Liveness, MetricsHub, NetFaultPlan, Probe,
    RecordingSink, ShardError, ShardedExecutor, SimError, WireAlgo,
};

const MAX_ROUNDS: u64 = 10_000;

fn clique(n: u32) -> Graph {
    let edges: Vec<(u32, u32)> = (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
        .collect();
    Graph::from_edges(n as usize, edges).unwrap()
}

fn topologies() -> Vec<(&'static str, Graph)> {
    vec![
        ("path", generators::path(24)),
        ("cycle", generators::cycle(24)),
        ("clique", clique(10)),
        ("gnp", generators::gnp(600, 8.0 / 600.0, 17)),
    ]
}

type Outcome = Result<(Vec<u64>, u64), SimError>;

/// Runs `algo` on the single-process executor, returning the outcome and
/// the normalized event stream.
fn run_single(g: &Graph, algo: WireAlgo, plan: Option<&FaultPlan>) -> (Outcome, Vec<Event>) {
    let sink = Arc::new(RecordingSink::new());
    let mut ex = Executor::new(g).with_probe(Probe::new(sink.clone()));
    if let Some(plan) = plan {
        ex = ex.with_faults(plan.clone());
    }
    let res = ex.run(&algo, MAX_ROUNDS).map(|r| (r.outputs, r.rounds));
    let events = sink.take().into_iter().map(|e| e.normalized()).collect();
    (res, events)
}

/// Runs `algo` on the sharded backend (thread workers), returning the
/// outcome and the normalized event stream. Non-simulation failures
/// (transport, protocol, budget) panic: the suite treats them as bugs.
fn run_sharded(
    g: &Graph,
    algo: WireAlgo,
    plan: Option<&FaultPlan>,
    shards: usize,
    kills: Vec<ChaosKill>,
    checkpoint_every: u64,
) -> (Outcome, Vec<Event>) {
    let sink = Arc::new(RecordingSink::new());
    let mut ex = ShardedExecutor::new(g)
        .with_shards(shards)
        .with_probe(Probe::new(sink.clone()))
        .with_checkpoint_every(checkpoint_every)
        .with_chaos_kills(kills);
    if let Some(plan) = plan {
        ex = ex.with_faults(plan.clone());
    }
    let res = match ex.run(algo, MAX_ROUNDS) {
        Ok(r) => Ok((r.outputs, r.rounds)),
        Err(ShardError::Sim(e)) => Err(e),
        Err(other) => panic!("sharded run failed outside the simulation: {other}"),
    };
    let events = sink.take().into_iter().map(|e| e.normalized()).collect();
    (res, events)
}

fn faulted_plan() -> FaultPlan {
    "seed=7,drop=0.05,jitter=2".parse().unwrap()
}

/// Wire-chaos variant of [`run_sharded`]: thread workers unless `backend`
/// overrides, wire faults from `net`, liveness policy from `liveness`.
#[allow(clippy::too_many_arguments)]
fn run_sharded_chaos(
    g: &Graph,
    algo: WireAlgo,
    plan: Option<&FaultPlan>,
    shards: usize,
    kills: Vec<ChaosKill>,
    net: Option<NetFaultPlan>,
    liveness: Liveness,
    max_respawns: usize,
    backend: Option<WorkerBackend>,
) -> (Outcome, Vec<Event>) {
    let sink = Arc::new(RecordingSink::new());
    let mut ex = ShardedExecutor::new(g)
        .with_shards(shards)
        .with_probe(Probe::new(sink.clone()))
        .with_checkpoint_every(2)
        .with_chaos_kills(kills)
        .with_liveness(liveness)
        .with_max_respawns(max_respawns);
    if let Some(net) = net {
        ex = ex.with_net_faults(net);
    }
    if let Some(backend) = backend {
        ex = ex.with_backend(backend);
    }
    if let Some(plan) = plan {
        ex = ex.with_faults(plan.clone());
    }
    let res = match ex.run(algo, MAX_ROUNDS) {
        Ok(r) => Ok((r.outputs, r.rounds)),
        Err(ShardError::Sim(e)) => Err(e),
        Err(other) => panic!("sharded run failed outside the simulation: {other}"),
    };
    let events = sink.take().into_iter().map(|e| e.normalized()).collect();
    (res, events)
}

#[test]
fn sharded_matches_single_process_on_every_topology_and_plan() {
    for (name, g) in topologies() {
        for algo in [
            WireAlgo::Greedy,
            WireAlgo::Rand { seed: 5 },
            WireAlgo::Rand { seed: 7 },
        ] {
            for (plan_name, plan) in [("clean", None), ("faulted", Some(faulted_plan()))] {
                let (want, want_events) = run_single(&g, algo, plan.as_ref());
                for shards in [1, 2, 4] {
                    let (got, got_events) = run_sharded(&g, algo, plan.as_ref(), shards, vec![], 0);
                    assert_eq!(
                        got, want,
                        "{name}/{algo}/{plan_name}: {shards}-shard outcome diverged"
                    );
                    assert_eq!(
                        got_events, want_events,
                        "{name}/{algo}/{plan_name}: {shards}-shard event stream diverged"
                    );
                }
            }
        }
    }
}

#[test]
fn crash_faults_fail_identically_across_backends() {
    let plan: FaultPlan = "seed=3,crash=2@2+5@3".parse().unwrap();
    for (name, g) in topologies() {
        let (want, want_events) = run_single(&g, WireAlgo::Countdown, Some(&plan));
        assert!(
            matches!(want, Err(SimError::Crashed { crashed: 2, .. })),
            "{name}: expected a crash failure, got {want:?}"
        );
        for shards in [2, 4] {
            let (got, got_events) =
                run_sharded(&g, WireAlgo::Countdown, Some(&plan), shards, vec![], 0);
            assert_eq!(got, want, "{name}: {shards}-shard crash outcome diverged");
            assert_eq!(
                got_events, want_events,
                "{name}: {shards}-shard crash event stream diverged"
            );
        }
    }
}

#[test]
fn killed_shard_resumes_bit_identical_from_checkpoint() {
    let g = generators::cycle(24);
    for algo in [WireAlgo::Rand { seed: 9 }, WireAlgo::Greedy] {
        for (plan_name, plan) in [("clean", None), ("faulted", Some(faulted_plan()))] {
            let (want, want_events) = run_single(&g, algo, plan.as_ref());
            // Kill at a checkpoint boundary (after round 2 with k=2) and
            // mid-interval (after round 3): both must stitch to the same
            // stream — the replayed rounds re-emit nothing.
            for after_round in [2, 3] {
                let kills = vec![ChaosKill {
                    shard: 1,
                    after_round,
                }];
                let (got, got_events) = run_sharded(&g, algo, plan.as_ref(), 3, kills, 2);
                assert_eq!(
                    got, want,
                    "{algo}/{plan_name}: outcome diverged after kill at round {after_round}"
                );
                assert_eq!(
                    got_events, want_events,
                    "{algo}/{plan_name}: stream diverged after kill at round {after_round}"
                );
            }
        }
    }
}

#[test]
fn kill_before_first_round_recovers_from_the_implicit_checkpoint() {
    let g = generators::path(16);
    let (want, want_events) = run_single(&g, WireAlgo::Greedy, None);
    let kills = vec![ChaosKill {
        shard: 0,
        after_round: 0,
    }];
    // checkpoint_every = 0: only the implicit round-0 checkpoint exists.
    let (got, got_events) = run_sharded(&g, WireAlgo::Greedy, None, 4, kills, 0);
    assert_eq!(got, want);
    assert_eq!(got_events, want_events);
}

#[test]
fn more_shards_than_nodes_collapses_to_nonempty_ranges() {
    let g = generators::path(5);
    let (want, _) = run_single(&g, WireAlgo::Greedy, None);
    let (got, _) = run_sharded(&g, WireAlgo::Greedy, None, 64, vec![], 0);
    assert_eq!(got, want);
}

#[test]
fn round_limit_is_reported_like_the_single_process_executor() {
    let g = generators::path(8);
    let sink = Arc::new(RecordingSink::new());
    let err = ShardedExecutor::new(&g)
        .with_shards(2)
        .with_probe(Probe::new(sink))
        .run(WireAlgo::FloodMax { target: 50 }, 3)
        .unwrap_err();
    match err {
        ShardError::Sim(SimError::RoundLimitExceeded {
            limit,
            still_running,
        }) => {
            assert_eq!(limit, 3);
            assert_eq!(still_running, 8);
        }
        other => panic!("expected a round-limit failure, got {other}"),
    }
}

/// A hang needs a barrier deadline to be detected; a tight heartbeat
/// cadence also exercises keepalive frames (which are chaos-exempt and
/// unmetered, so telemetry stays identical).
fn hang_liveness() -> Liveness {
    Liveness {
        barrier_timeout: Some(Duration::from_millis(300)),
        heartbeat_every: Duration::from_millis(100),
        ..Liveness::default()
    }
}

#[test]
fn every_net_fault_class_recovers_bit_identical() {
    let g = generators::cycle(24);
    let cases: Vec<(&str, NetFaultPlan, Liveness)> = vec![
        (
            "delay",
            NetFaultPlan {
                seed: 3,
                delay_p: 0.3,
                ..NetFaultPlan::default()
            },
            Liveness::default(),
        ),
        (
            "dup",
            NetFaultPlan {
                seed: 3,
                dup_p: 0.3,
                ..NetFaultPlan::default()
            },
            Liveness::default(),
        ),
        (
            "corrupt",
            NetFaultPlan {
                seed: 3,
                corrupt_p: 0.01,
                ..NetFaultPlan::default()
            },
            Liveness::default(),
        ),
        (
            "reset",
            NetFaultPlan {
                resets: vec![(1, 2)],
                ..NetFaultPlan::default()
            },
            Liveness::default(),
        ),
        (
            "hang",
            NetFaultPlan {
                hangs: vec![(1, 2)],
                ..NetFaultPlan::default()
            },
            hang_liveness(),
        ),
    ];
    for algo in [WireAlgo::Greedy, WireAlgo::Rand { seed: 5 }] {
        let (want, want_events) = run_single(&g, algo, None);
        for (name, net, liveness) in &cases {
            let (got, got_events) = run_sharded_chaos(
                &g,
                algo,
                None,
                3,
                vec![],
                Some(net.clone()),
                *liveness,
                10,
                None,
            );
            assert_eq!(got, want, "{algo}/{name}: outcome diverged under chaos");
            assert_eq!(
                got_events, want_events,
                "{algo}/{name}: event stream diverged under chaos"
            );
        }
    }
}

#[test]
fn net_chaos_composes_with_simulated_faults_and_kills() {
    let g = generators::cycle(24);
    let plan = faulted_plan();
    let net = NetFaultPlan {
        seed: 11,
        delay_p: 0.05,
        dup_p: 0.2,
        corrupt_p: 0.005,
        resets: vec![(0, 3)],
        hangs: vec![],
    };
    let (want, want_events) = run_single(&g, WireAlgo::Greedy, Some(&plan));
    let kills = vec![ChaosKill {
        shard: 1,
        after_round: 2,
    }];
    let (got, got_events) = run_sharded_chaos(
        &g,
        WireAlgo::Greedy,
        Some(&plan),
        3,
        kills,
        Some(net),
        Liveness::default(),
        10,
        None,
    );
    assert_eq!(got, want, "composed chaos: outcome diverged");
    assert_eq!(got_events, want_events, "composed chaos: stream diverged");
}

#[test]
fn respawn_exhaustion_degrades_to_in_process_adoption() {
    let g = generators::cycle(24);
    let (want, want_events) = run_single(&g, WireAlgo::Greedy, None);
    let kills = vec![ChaosKill {
        shard: 1,
        after_round: 1,
    }];
    // Budget 0: the first kill exhausts it, so the coordinator must
    // adopt shard 1's range in-process instead of aborting.
    let (got, got_events) = run_sharded_chaos(
        &g,
        WireAlgo::Greedy,
        None,
        3,
        kills,
        None,
        Liveness::default(),
        0,
        None,
    );
    assert_eq!(got, want, "degraded run must still match the reference");
    let degraded: Vec<&Event> = got_events
        .iter()
        .filter(|e| matches!(e, Event::Degraded { .. }))
        .collect();
    match degraded.as_slice() {
        [Event::Degraded {
            scope,
            unit,
            reason,
            ..
        }] => {
            assert_eq!(scope, "shard");
            assert_eq!(*unit, 1);
            assert!(
                reason.contains("respawn budget"),
                "reason should name the budget: {reason}"
            );
        }
        other => panic!("expected exactly one shard Degraded event, got {other:?}"),
    }
    // Apart from the Degraded marker, the stream is the reference stream.
    let filtered: Vec<Event> = got_events
        .into_iter()
        .filter(|e| !matches!(e, Event::Degraded { .. }))
        .collect();
    assert_eq!(filtered, want_events);
}

#[test]
fn worker_death_between_hello_and_init_ack_recovers() {
    let g = generators::cycle(24);
    let (want, want_events) = run_single(&g, WireAlgo::Greedy, None);
    // Spawns 0..3 are the initial shards; spawn 3 is the respawn after
    // the chaos kill. That generation dies mid-handshake (Hello sent,
    // Init read, no InitAck); the retry (spawn 4) serves cleanly.
    let spawns = Arc::new(AtomicUsize::new(0));
    let backend = WorkerBackend::Custom(Arc::new({
        let spawns = spawns.clone();
        move |addr: String| {
            if spawns.fetch_add(1, Ordering::SeqCst) == 3 {
                let mut s = TcpStream::connect(&addr).unwrap();
                let meter = FrameMeter::disabled();
                let (mut tx, mut rx) = (FrameSeq::default(), FrameSeq::default());
                let hello = Frame::Hello {
                    version: PROTO_VERSION,
                }
                .encode();
                write_frame(&mut s, &hello, &meter, &mut tx).unwrap();
                let _ = read_frame(&mut s, &meter, &mut rx);
            } else {
                let _ = serve_connect(&addr);
            }
        }
    }));
    let kills = vec![ChaosKill {
        shard: 1,
        after_round: 1,
    }];
    let (got, got_events) = run_sharded_chaos(
        &g,
        WireAlgo::Greedy,
        None,
        3,
        kills,
        None,
        Liveness::default(),
        4,
        Some(backend),
    );
    assert_eq!(got, want, "handshake death: outcome diverged");
    assert_eq!(got_events, want_events, "handshake death: stream diverged");
    assert!(
        spawns.load(Ordering::SeqCst) >= 5,
        "expected initial spawns + sabotaged respawn + clean retry"
    );
}

/// A [`WorkerBackend::Custom`] that interposes a byte-level proxy between
/// a real worker and the coordinator for the spawn generations selected
/// by `sabotaged`, killing both sockets the first time `trigger` matches
/// a coordinator→worker frame. All other generations serve directly.
fn mitm_backend(
    sabotaged: &'static [usize],
    trigger: fn(&Frame) -> bool,
) -> (Arc<AtomicUsize>, WorkerBackend) {
    let spawns = Arc::new(AtomicUsize::new(0));
    let backend = WorkerBackend::Custom(Arc::new({
        let spawns = spawns.clone();
        move |addr: String| {
            let generation = spawns.fetch_add(1, Ordering::SeqCst);
            if !sabotaged.contains(&generation) {
                let _ = serve_connect(&addr);
                return;
            }
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let proxy_addr = listener.local_addr().unwrap().to_string();
            std::thread::spawn(move || {
                let _ = serve_connect(&proxy_addr);
            });
            let (worker_side, _) = listener.accept().unwrap();
            let coord_side = TcpStream::connect(&addr).unwrap();
            // Worker→coordinator leg: forward frames verbatim (the proxy
            // re-frames, so sequence numbers stay 1:1).
            let pump = std::thread::spawn({
                let mut r = worker_side.try_clone().unwrap();
                let mut w = coord_side.try_clone().unwrap();
                move || {
                    let meter = FrameMeter::disabled();
                    let (mut rx, mut tx) = (FrameSeq::default(), FrameSeq::default());
                    while let Ok(p) = read_frame(&mut r, &meter, &mut rx) {
                        if write_frame(&mut w, &p, &meter, &mut tx).is_err() {
                            break;
                        }
                    }
                }
            });
            // Coordinator→worker leg: forward until the trigger fires,
            // then kill both connections mid-exchange.
            let meter = FrameMeter::disabled();
            let (mut rx, mut tx) = (FrameSeq::default(), FrameSeq::default());
            let mut r = coord_side.try_clone().unwrap();
            let mut w = worker_side.try_clone().unwrap();
            while let Ok(p) = read_frame(&mut r, &meter, &mut rx) {
                if Frame::decode(&p).is_ok_and(|f| trigger(&f)) {
                    break;
                }
                if write_frame(&mut w, &p, &meter, &mut tx).is_err() {
                    break;
                }
            }
            let _ = coord_side.shutdown(Shutdown::Both);
            let _ = worker_side.shutdown(Shutdown::Both);
            let _ = pump.join();
        }
    }));
    (spawns, backend)
}

#[test]
fn worker_death_mid_dump_recovers() {
    let g = generators::cycle(24);
    let (want, want_events) = run_single(&g, WireAlgo::Greedy, None);
    // Initial shard 0 sits behind a proxy that dies on the first
    // checkpoint DumpReq; the respawn serves cleanly and the run
    // restores from the round-0 checkpoint.
    let (_, backend) = mitm_backend(&[0], |f| matches!(f, Frame::DumpReq { .. }));
    let (got, got_events) = run_sharded_chaos(
        &g,
        WireAlgo::Greedy,
        None,
        3,
        vec![],
        None,
        Liveness::default(),
        4,
        Some(backend),
    );
    assert_eq!(got, want, "mid-dump death: outcome diverged");
    assert_eq!(got_events, want_events, "mid-dump death: stream diverged");
}

#[test]
fn worker_death_during_restore_broadcast_recovers() {
    let g = generators::cycle(24);
    let (want, want_events) = run_single(&g, WireAlgo::Greedy, None);
    // Chaos-kill shard 0 at round 2; the recovery broadcast then hits
    // shard 1's proxy, which dies on the Restore frame — a failure
    // *inside* recovery, which must itself recover.
    let (_, backend) = mitm_backend(&[1], |f| matches!(f, Frame::Restore { .. }));
    let kills = vec![ChaosKill {
        shard: 0,
        after_round: 2,
    }];
    let (got, got_events) = run_sharded_chaos(
        &g,
        WireAlgo::Greedy,
        None,
        3,
        kills,
        None,
        Liveness::default(),
        4,
        Some(backend),
    );
    assert_eq!(got, want, "restore-broadcast death: outcome diverged");
    assert_eq!(
        got_events, want_events,
        "restore-broadcast death: stream diverged"
    );
}

#[test]
fn never_connecting_worker_fails_with_connect_timeout_not_a_hang() {
    let g = generators::path(12);
    let backend = WorkerBackend::Custom(Arc::new(|_addr: String| {}));
    let liveness = Liveness {
        connect_timeout: Duration::from_millis(300),
        ..Liveness::default()
    };
    let started = Instant::now();
    let err = ShardedExecutor::new(&g)
        .with_shards(2)
        .with_backend(backend)
        .with_liveness(liveness)
        .run(WireAlgo::Greedy, 100)
        .unwrap_err();
    assert!(
        !matches!(err, ShardError::Sim(_)),
        "expected a transport-layer failure, got {err}"
    );
    let waited = started.elapsed();
    assert!(
        waited < liveness.connect_timeout + Duration::from_secs(2),
        "the missing worker was waited on for {waited:?}"
    );
}

#[test]
fn late_worker_is_accepted_and_matches_single_process() {
    // Every worker sleeps before connecting, so the coordinator's accept
    // wait runs through both the yielding and the sleeping phase of its
    // backoff before the connection arrives.
    let g = generators::cycle(24);
    let algo = WireAlgo::Rand { seed: 5 };
    let want = Executor::new(&g).run(&algo, MAX_ROUNDS).unwrap();
    let backend = WorkerBackend::Custom(Arc::new(|addr: String| {
        std::thread::sleep(Duration::from_millis(50));
        let _ = serve_connect_with(&addr, Duration::from_secs(10));
    }));
    let hub = Arc::new(MetricsHub::new());
    let got = ShardedExecutor::new(&g)
        .with_shards(3)
        .with_backend(backend)
        .with_probe(Probe::disabled().with_metrics(hub.clone()))
        .run(algo, MAX_ROUNDS)
        .unwrap();
    assert_eq!(got.outputs, want.outputs);
    assert_eq!(got.rounds, want.rounds);
    // The late connect is start-up time, and start-up and shutdown are
    // each recorded once per run.
    let startup = hub.histogram("shard.startup_ns");
    assert_eq!(startup.count(), 1);
    assert!(startup.sum() >= 50_000_000, "startup {} ns", startup.sum());
    assert_eq!(hub.histogram("shard.shutdown_ns").count(), 1);
}

#[test]
fn orphaned_worker_exits_after_its_read_timeout() {
    // A fake coordinator that accepts the connection and then goes
    // silent without closing the socket: the worker must give up after
    // its read timeout with an error naming the coordinator, not hang.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let worker = std::thread::spawn(move || serve_connect_with(&addr, Duration::from_millis(300)));
    let (sock, _) = listener.accept().unwrap();
    let err = worker.join().unwrap().unwrap_err();
    assert!(
        err.to_string().contains("coordinator"),
        "orphan error should blame the silent coordinator: {err}"
    );
    drop(sock);
}

#[test]
fn checkpoint_files_are_written_at_phase_boundaries() {
    let dir = std::env::temp_dir().join(format!("shard-ckpt-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let g = generators::cycle(12);
    let run = ShardedExecutor::new(&g)
        .with_shards(2)
        .with_checkpoint_every(2)
        .with_checkpoint_dir(Some(dir.clone()))
        .run(WireAlgo::Greedy, MAX_ROUNDS)
        .unwrap();
    assert!(run.rounds >= 2, "greedy on a cycle needs multiple rounds");
    let ckpt0 = dir.join("shard-checkpoint-0000.json");
    let ckpt2 = dir.join("shard-checkpoint-0002.json");
    for path in [&ckpt0, &ckpt2] {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("missing checkpoint {}: {e}", path.display()));
        let value = serde::json::parse(&text).unwrap();
        let states = value.field("states").unwrap();
        let count = match states {
            serde::Value::Seq(items) => items.len(),
            other => panic!("states should be a sequence, got {other:?}"),
        };
        assert_eq!(
            count,
            12,
            "checkpoint {} should carry all 12 states",
            path.display()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

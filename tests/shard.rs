//! Multi-process shard recovery suite, driven through the real CLI:
//! `shard-color --shards 4` spawns four `shard-serve` worker *processes*
//! over loopback TCP, `--chaos-kill S@R` SIGKILLs one of them (no
//! graceful handoff), and the stitched run must be bit-identical —
//! stdout coloring and JSONL trace — to the `--shards 0` single-process
//! reference. Kills are injected at *every* checkpoint boundary of the
//! run and at a mid-interval round, on clean and faulted plans: the
//! process analogue of `crates/core/tests/supervisor.rs`'s
//! kill-and-resume checks (and of `crates/localsim/tests/shard.rs`,
//! which covers the same protocol with thread-hosted workers).
//!
//! It also pins the wire protocol's traffic down to the byte: see
//! [`wire_bytes_match_the_committed_series_exactly`].

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

use delta_coloring::graphs::{generators, io};
use localsim::{MetricsHub, Probe, ShardedExecutor, WireAlgo};

const BIN: &str = env!("CARGO_BIN_EXE_delta-color");
const FAULT_SPEC: &str = "seed=7,drop=0.05,jitter=2";

struct TestDir(PathBuf);

impl TestDir {
    fn new(tag: &str) -> TestDir {
        let dir = std::env::temp_dir().join(format!("shard-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TestDir(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `shard-color` and returns `(stdout, stderr)`; panics on failure.
fn shard_color(graph: &Path, trace: &Path, extra: &[&str]) -> (String, String) {
    let out = Command::new(BIN)
        .arg("shard-color")
        .arg(graph)
        .arg("--trace-out")
        .arg(trace)
        .args(extra)
        .output()
        .expect("spawn delta-color");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        out.status.success(),
        "shard-color {extra:?} failed:\n{stderr}"
    );
    (String::from_utf8_lossy(&out.stdout).into_owned(), stderr)
}

/// Extracts the round count from the `N shard(s): R rounds...` line.
fn rounds_from_stderr(stderr: &str) -> u64 {
    stderr
        .lines()
        .find_map(|line| {
            let (head, _) = line.split_once(" rounds")?;
            let (_, r) = head.rsplit_once(' ')?;
            r.parse().ok()
        })
        .unwrap_or_else(|| panic!("no round count in stderr:\n{stderr}"))
}

/// The full matrix for one graph × algorithm × plan: reference run,
/// no-kill 4-shard run, then a SIGKILL at every checkpoint boundary and
/// one mid-interval round — all bit-identical in stdout and trace.
fn assert_kill_matrix(tag: &str, algo: &str, faults: Option<&str>) {
    let dir = TestDir::new(tag);
    let graph_path = dir.path("graph.txt");
    std::fs::write(&graph_path, io::write_edge_list(&generators::cycle(16))).unwrap();
    let mut base: Vec<&str> = vec!["--algo", algo, "--checkpoint-every", "2"];
    if let Some(spec) = faults {
        base.extend(["--faults", spec]);
    }

    let ref_trace = dir.path("ref.jsonl");
    let mut args = base.clone();
    args.extend(["--shards", "0"]);
    let (want_stdout, ref_stderr) = shard_color(&graph_path, &ref_trace, &args);
    let want_trace = std::fs::read_to_string(&ref_trace).unwrap();
    let rounds = rounds_from_stderr(&ref_stderr);
    assert!(rounds >= 4, "{tag}: run too short to exercise checkpoints");

    let no_kill_trace = dir.path("shards4.jsonl");
    let mut args = base.clone();
    args.extend(["--shards", "4"]);
    let (got_stdout, _) = shard_color(&graph_path, &no_kill_trace, &args);
    assert_eq!(got_stdout, want_stdout, "{tag}: 4-shard stdout diverged");
    assert_eq!(
        std::fs::read_to_string(&no_kill_trace).unwrap(),
        want_trace,
        "{tag}: 4-shard trace diverged"
    );

    // Every checkpoint boundary (0, 2, 4, …) plus mid-interval round 3.
    let mut kill_rounds: Vec<u64> = (0..rounds).step_by(2).collect();
    kill_rounds.push(3);
    for (i, after_round) in kill_rounds.into_iter().enumerate() {
        let shard = i % 4;
        let kill = format!("{shard}@{after_round}");
        let trace = dir.path(&format!("kill-{after_round}-{shard}.jsonl"));
        let mut args = base.clone();
        args.extend(["--shards", "4", "--chaos-kill", &kill]);
        let (got_stdout, _) = shard_color(&graph_path, &trace, &args);
        assert_eq!(
            got_stdout, want_stdout,
            "{tag}: stdout diverged after SIGKILL of shard {shard} at round {after_round}"
        );
        assert_eq!(
            std::fs::read_to_string(&trace).unwrap(),
            want_trace,
            "{tag}: trace diverged after SIGKILL of shard {shard} at round {after_round}"
        );
    }
}

#[test]
fn sigkill_at_every_checkpoint_boundary_is_invisible_clean() {
    assert_kill_matrix("clean", "rand:9", None);
}

#[test]
fn sigkill_at_every_checkpoint_boundary_is_invisible_faulted() {
    assert_kill_matrix("faulted", "rand:9", Some(FAULT_SPEC));
}

#[test]
fn sigkill_during_greedy_run_is_invisible() {
    assert_kill_matrix("greedy", "greedy", None);
}

#[test]
fn chaos_net_run_with_process_workers_is_invisible() {
    // Wire-level chaos against *real* worker processes: delayed,
    // duplicated and corrupted frames plus one cold connection reset
    // and one SIGKILL, all on the same run. Output and trace must still
    // match the single-process reference bit for bit.
    let dir = TestDir::new("chaosnet");
    let graph_path = dir.path("graph.txt");
    std::fs::write(&graph_path, io::write_edge_list(&generators::cycle(16))).unwrap();
    let base: Vec<&str> = vec!["--algo", "greedy", "--checkpoint-every", "2"];

    let ref_trace = dir.path("ref.jsonl");
    let mut args = base.clone();
    args.extend(["--shards", "0"]);
    let (want_stdout, _) = shard_color(&graph_path, &ref_trace, &args);
    let want_trace = std::fs::read_to_string(&ref_trace).unwrap();

    let trace = dir.path("chaos.jsonl");
    let mut args = base.clone();
    args.extend([
        "--shards",
        "4",
        "--chaos-net",
        "seed=7,delay=0.05,dup=0.1,corrupt=0.005,reset=1@2",
        "--chaos-kill",
        "2@3",
        "--max-respawns",
        "6",
    ]);
    let (got_stdout, _) = shard_color(&graph_path, &trace, &args);
    assert_eq!(got_stdout, want_stdout, "chaos-net stdout diverged");
    assert_eq!(
        std::fs::read_to_string(&trace).unwrap(),
        want_trace,
        "chaos-net trace diverged"
    );
}

#[test]
fn hung_worker_is_detected_and_replaced_through_the_cli() {
    // `hang=S@R` mutes the shard without killing it: only the barrier
    // deadline can notice. The run must recover and stay bit-identical.
    let dir = TestDir::new("hang");
    let graph_path = dir.path("graph.txt");
    std::fs::write(&graph_path, io::write_edge_list(&generators::cycle(16))).unwrap();
    let base: Vec<&str> = vec!["--algo", "greedy", "--checkpoint-every", "2"];

    let ref_trace = dir.path("ref.jsonl");
    let mut args = base.clone();
    args.extend(["--shards", "0"]);
    let (want_stdout, _) = shard_color(&graph_path, &ref_trace, &args);
    let want_trace = std::fs::read_to_string(&ref_trace).unwrap();

    let trace = dir.path("hang.jsonl");
    let mut args = base.clone();
    args.extend([
        "--shards",
        "3",
        "--chaos-net",
        "hang=1@3",
        "--barrier-timeout-ms",
        "750",
    ]);
    let (got_stdout, _) = shard_color(&graph_path, &trace, &args);
    assert_eq!(got_stdout, want_stdout, "hang-recovery stdout diverged");
    assert_eq!(
        std::fs::read_to_string(&trace).unwrap(),
        want_trace,
        "hang-recovery trace diverged"
    );
}

#[test]
fn exhausted_respawn_budget_degrades_instead_of_aborting() {
    // --max-respawns 0 plus a kill: the shard's range must be adopted
    // in-process (reported on stderr and as a Degraded trace event) and
    // the coloring must still match the reference.
    let dir = TestDir::new("degrade");
    let graph_path = dir.path("graph.txt");
    std::fs::write(&graph_path, io::write_edge_list(&generators::cycle(16))).unwrap();
    let base: Vec<&str> = vec!["--algo", "greedy", "--checkpoint-every", "2"];

    let ref_trace = dir.path("ref.jsonl");
    let mut args = base.clone();
    args.extend(["--shards", "0"]);
    let (want_stdout, _) = shard_color(&graph_path, &ref_trace, &args);

    let trace = dir.path("degraded.jsonl");
    let metrics = dir.path("metrics.json");
    let metrics_arg = metrics.to_str().unwrap().to_string();
    let mut args = base.clone();
    args.extend([
        "--shards",
        "3",
        "--chaos-kill",
        "2@2",
        "--max-respawns",
        "0",
        "--metrics-out",
        &metrics_arg,
    ]);
    let (got_stdout, stderr) = shard_color(&graph_path, &trace, &args);
    assert_eq!(got_stdout, want_stdout, "degraded stdout diverged");
    assert!(
        stderr.contains("degraded:"),
        "stderr should report the adoption:\n{stderr}"
    );
    let trace_text = std::fs::read_to_string(&trace).unwrap();
    assert!(
        trace_text.contains("\"type\":\"degraded\""),
        "trace should carry the Degraded event:\n{trace_text}"
    );
    let metrics_text = std::fs::read_to_string(&metrics).unwrap();
    assert!(
        metrics_text.contains("shard.adopted_ranges"),
        "metrics snapshot should carry the adoption counter:\n{metrics_text}"
    );
}

#[test]
fn bad_chaos_net_spec_names_the_offending_key() {
    let dir = TestDir::new("badspec");
    let graph_path = dir.path("graph.txt");
    std::fs::write(&graph_path, io::write_edge_list(&generators::path(8))).unwrap();
    let out = Command::new(BIN)
        .arg("shard-color")
        .arg(&graph_path)
        .args(["--shards", "2", "--chaos-net", "seed=7,dup=1.5"])
        .output()
        .expect("spawn delta-color");
    assert!(!out.status.success(), "bogus --chaos-net spec must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("dup"),
        "error should name the offending key:\n{stderr}"
    );
}

#[test]
fn soak_campaign_runs_clean_through_the_cli() {
    let dir = TestDir::new("soak");
    let bundles = dir.path("bundles");
    let out = Command::new(BIN)
        .arg("soak")
        .args([
            "--iterations",
            "2",
            "--shards",
            "2",
            "--seed",
            "3",
            "--bundle-dir",
            bundles.to_str().unwrap(),
        ])
        .output()
        .expect("spawn delta-color");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "soak failed:\n{stderr}");
    assert!(
        stderr.contains("0 failure(s)"),
        "soak summary missing:\n{stderr}"
    );
}

#[test]
fn checkpoint_dir_receives_shard_checkpoints_through_the_cli() {
    let dir = TestDir::new("ckptdir");
    let graph_path = dir.path("graph.txt");
    std::fs::write(&graph_path, io::write_edge_list(&generators::path(12))).unwrap();
    let ckpt_dir = dir.path("ckpts");
    let trace = dir.path("trace.jsonl");
    let ckpt_arg = ckpt_dir.to_str().unwrap().to_string();
    shard_color(
        &graph_path,
        &trace,
        &[
            "--shards",
            "2",
            "--algo",
            "greedy",
            "--checkpoint-every",
            "2",
            "--checkpoint-dir",
            &ckpt_arg,
        ],
    );
    assert!(
        ckpt_dir.join("shard-checkpoint-0000.json").exists(),
        "implicit round-0 checkpoint missing"
    );
    assert!(
        ckpt_dir.join("shard-checkpoint-0002.json").exists(),
        "round-2 checkpoint missing"
    );
}

/// The exact wire traffic of a thread-backed fleet on `complete(400)`,
/// per `(algo, shards)`: rounds, `Init` bytes, steady-state bytes per
/// round (`(sent + recv - init) / rounds`), total sent and received
/// bytes, ghost updates sent, and ghost updates suppressed. A clique is
/// the delta ghost exchange's worst case (every vertex is a boundary
/// vertex), so these bound the protocol's per-round footprint.
const WIRE_SERIES: [(&str, usize, [u64; 7]); 4] = [
    ("rand:7", 2, [1779, 2606, 45, 34041, 50135, 3116, 0]),
    ("rand:7", 4, [1779, 2670, 68, 60925, 63976, 10472, 0]),
    ("greedy", 2, [401, 2606, 55, 10708, 14010, 200, 79800]),
    ("greedy", 4, [401, 2670, 87, 17065, 20799, 600, 79800]),
];

/// Wire traffic is deterministic: any protocol drift (frame growth, a
/// lost suppression, an extra ghost update) changes one of these numbers.
/// If a protocol change is intended, replace the table with the measured
/// one printed on failure.
#[test]
fn wire_bytes_match_the_committed_series_exactly() {
    let g = generators::complete(400);
    let measured: Vec<(&str, usize, [u64; 7])> = WIRE_SERIES
        .iter()
        .map(|&(algo, shards, _)| {
            let hub = Arc::new(MetricsHub::new());
            let run = ShardedExecutor::new(&g)
                .with_shards(shards)
                .with_probe(Probe::disabled().with_metrics(hub.clone()))
                .run(algo.parse::<WireAlgo>().unwrap(), 100_000)
                .unwrap_or_else(|e| panic!("{algo} on {shards} shards: {e}"));
            let sent = hub.counter("shard.bytes_sent").get();
            let recv = hub.counter("shard.bytes_recv").get();
            let init = hub.counter("shard.init_bytes").get();
            let bytes = [
                run.rounds,
                init,
                (sent + recv - init) / run.rounds.max(1),
                sent,
                recv,
                hub.counter("shard.ghost_updates_sent").get(),
                hub.counter("shard.ghost_suppressed").get(),
            ];
            (algo, shards, bytes)
        })
        .collect();
    let table: String = measured
        .iter()
        .map(|row| format!("    {row:?},\n"))
        .collect();
    assert_eq!(
        measured, WIRE_SERIES,
        "wire traffic drifted; measured table:\n{table}"
    );
}

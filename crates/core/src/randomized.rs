//! Algorithm 4 — the randomized Δ-coloring pipeline (Theorem 2).
//!
//! The shattering framework, following [GHKM21] with this paper's new
//! post-shattering phase:
//!
//! 1. **Large Δ**: for `Δ ≥ threshold` a dense-specific randomized routine
//!    is used (substituting [FHM23]'s `O(log* n)` algorithm; see
//!    DESIGN.md): every hard clique samples a slack triad, pairs are
//!    colored by parallel random trials, and the rest follows by stalled
//!    trials.
//! 2. **Pre-processing**: loopholes and easy cliques are set aside — they
//!    are colored at the very end by Algorithm 3 (its layering provides
//!    the slack ordering).
//! 3. **Pre-shattering**: every hard clique proposes a *T-node* (a slack
//!    triad) with probability `p`; proposals closer than `b` hops in the
//!    clique graph are dropped; surviving pairs are same-colored with
//!    color 0, and a radius-`R` ball around each slack vertex is
//!    *deferred*.
//! 4. **Post-shattering (the paper's new step)**: the remaining uncolored
//!    hard vertices split into small components (w.h.p. `poly Δ · log n`),
//!    each solved **in parallel** by the deterministic pipeline with pair
//!    palette `{1..Δ-1}` (color 0 stays reserved) and the *extended
//!    loophole* rule: a vertex adjacent to an uncolored vertex outside the
//!    component — a deferred vertex or an easy clique — has slack and
//!    anchors its clique. The paper's "useless vertices" (members whose
//!    only external neighbors are colored T-pairs) are excluded from
//!    proposing, exactly as §4 prescribes.
//! 5. **Post-processing**: deferred rings are colored inward, slack
//!    vertices last (they enjoy permanent slack from their same-colored
//!    pair); finally Algorithm 3 sweeps the easy cliques and loopholes.

use acd::{compute_acd, AcdResult};
use graphgen::{Color, Coloring, Graph, NodeId};
use localsim::{Event, FaultKind, FaultPlan, Probe, RecordingSink, RoundLedger};
use primitives::ruling::RulingStyle;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::classify::{classify_cliques, Classification, CliqueKind};
use crate::deterministic::{run_hard_phases, Config, PipelineStats};
use crate::easy::color_easy_and_loopholes_scoped;
use crate::error::DeltaColoringError;
use crate::loophole::{detect_loopholes, Loophole, LoopholeReport};
use crate::phase4::run_list_instance;
use crate::supervisor::{DegradedComponent, Supervisor};

/// Configuration of the randomized pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RandConfig {
    /// Deterministic pipeline configuration for the post-shattering phase.
    pub base: Config,
    /// RNG seed.
    pub seed: u64,
    /// T-node placement probability per hard clique.
    pub placement_prob: f64,
    /// Minimum clique-graph spacing between placed T-nodes (the paper's
    /// adjustable constant `b`; ≥ 4 keeps distinct T-node triads
    /// non-adjacent and limits useless vertices to one clique boundary).
    pub spacing: usize,
    /// Radius of the deferred ball around each slack vertex. Must exceed
    /// the vertex-level reach of `spacing` (≈ spacing + 2) so that the
    /// deferred balls cover the graph between T-nodes and the leftover
    /// truly shatters.
    pub defer_radius: usize,
    /// Use the large-Δ routine when `Δ ≥` this threshold (the paper's
    /// `Δ = ω(log²¹ n)` branch; `None` disables it).
    pub large_delta_threshold: Option<usize>,
}

impl RandConfig {
    /// Defaults scaled for the instance's Δ.
    pub fn for_delta(delta: usize, seed: u64) -> Self {
        RandConfig {
            base: Config::for_delta(delta),
            seed,
            placement_prob: 0.5,
            spacing: 4,
            defer_radius: 7,
            large_delta_threshold: None,
        }
    }
}

/// Shattering statistics (experiments E3/E8).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ShatterStats {
    /// T-nodes proposed before spacing was enforced.
    pub proposed: usize,
    /// T-nodes placed.
    pub t_nodes: usize,
    /// Vertices deferred around slack vertices.
    pub deferred: usize,
    /// Leftover components solved by the deterministic pipeline.
    pub components: usize,
    /// Largest leftover component (vertices).
    pub max_component: usize,
    /// Whether the large-Δ branch ran instead of shattering.
    pub large_delta_branch: bool,
}

/// Fault-recovery statistics (zero on fault-free runs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryStats {
    /// Component re-solves triggered by injected faults.
    pub retries: usize,
    /// Vertices struck (uncolored) by injected faults across all attempts.
    pub struck_vertices: usize,
    /// Components that needed at least one retry.
    pub components_hit: usize,
    /// Maximum attempts any single component needed (1 = clean).
    pub max_attempts: usize,
    /// LOCAL rounds spent on discarded attempts, as charged to the ledger
    /// under `faults/`.
    pub recovery_rounds: u64,
}

/// Outcome of a randomized run.
#[derive(Debug, Clone)]
pub struct RandReport {
    /// The proper Δ-coloring.
    pub coloring: Coloring,
    /// Round accounting (parallel components charged by maximum).
    pub ledger: RoundLedger,
    /// Shattering statistics.
    pub shatter: ShatterStats,
    /// Fault-injection recovery accounting (all zero without faults).
    pub recovery: RecoveryStats,
}

impl RandReport {
    /// Total LOCAL rounds.
    pub fn rounds(&self) -> u64 {
        self.ledger.total()
    }
}

/// Runs Theorem 2's randomized Δ-coloring pipeline on a dense graph.
///
/// # Examples
///
/// ```
/// use delta_core::{color_randomized, RandConfig};
/// use graphgen::generators::{hard_cliques, HardCliqueParams};
/// let inst = hard_cliques(&HardCliqueParams {
///     cliques: 34, delta: 16, external_per_vertex: 1, seed: 2,
/// })?;
/// let report = color_randomized(&inst.graph, &RandConfig::for_delta(16, 7))?;
/// graphgen::coloring::verify_delta_coloring(&inst.graph, &report.coloring)?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Errors
///
/// Mirrors [`crate::color_deterministic`].
#[allow(clippy::too_many_lines)]
pub fn color_randomized(g: &Graph, config: &RandConfig) -> Result<RandReport, DeltaColoringError> {
    color_randomized_probed(g, config, &Probe::disabled())
}

/// [`color_randomized`] with structured telemetry: the shattering steps
/// open spans on `probe`, every ledger charge surfaces as a `charge`
/// event, and simulator rounds executed by subroutines surface as `round`
/// events.
///
/// # Errors
///
/// As [`color_randomized`].
pub fn color_randomized_probed(
    g: &Graph,
    config: &RandConfig,
    probe: &Probe,
) -> Result<RandReport, DeltaColoringError> {
    color_randomized_inner(g, config, probe, None)
}

/// [`color_randomized_probed`] under an injected [`FaultPlan`]: after each
/// leftover component is solved, faults may *strike* component vertices
/// (uncolor them, with per-vertex probability ≈ `message_drop_p · deg`,
/// deterministic in the plan seed). A scoped [`crate::validate`] sweep
/// detects the damage, the component is rolled back wholesale and
/// re-solved with a salted seed, the retry surfaces as a
/// [`FaultKind::Retry`] telemetry event, and the discarded attempt's
/// rounds are charged to the ledger under `faults/`. Only the struck
/// components re-run — clean components are solved exactly once, and the
/// final attempt of a struck component is always clean, so the pipeline
/// terminates with a coloring that passes [`crate::validate_coloring`].
///
/// With an inert plan ([`FaultPlan::is_active`] false) this is exactly
/// [`color_randomized_probed`].
///
/// # Errors
///
/// As [`color_randomized`].
pub fn color_randomized_with_faults(
    g: &Graph,
    config: &RandConfig,
    plan: &FaultPlan,
    probe: &Probe,
) -> Result<RandReport, DeltaColoringError> {
    color_randomized_inner(g, config, probe, plan.is_active().then_some(plan))
}

fn color_randomized_inner(
    g: &Graph,
    config: &RandConfig,
    probe: &Probe,
    faults: Option<&FaultPlan>,
) -> Result<RandReport, DeltaColoringError> {
    match crate::supervisor::drive_randomized(
        g,
        config,
        faults,
        probe,
        &Supervisor::passive(),
        None,
    )? {
        crate::supervisor::RunOutcome::Complete { report, .. } => Ok(report),
        crate::supervisor::RunOutcome::Suspended { .. }
        | crate::supervisor::RunOutcome::Failed(_) => {
            unreachable!("a passive supervisor neither suspends nor captures failures")
        }
    }
}

/// Pre-shattering: T-node placement with spacing, pair coloring, and the
/// deferred-ring BFS. Returns the slack (T-node) vertices and the ring
/// index per vertex. This is the only phase that consumes the run's
/// randomness (a fresh `StdRng` seeded with `config.seed`), which is why
/// resumable snapshots store its *outputs* rather than any RNG state.
pub(crate) fn rand_phase_preshatter(
    g: &Graph,
    config: &RandConfig,
    acd: &AcdResult,
    cls: &Classification,
    coloring: &mut Coloring,
    ledger: &mut RoundLedger,
    shatter: &mut ShatterStats,
) -> (Vec<NodeId>, Vec<Option<usize>>) {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let clique_graph = build_clique_graph(acd, cls);
    let proposers: Vec<u32> = cls
        .hard_ids
        .iter()
        .copied()
        .filter(|_| rng.gen_bool(config.placement_prob))
        .collect();
    shatter.proposed = proposers.len();
    let accepted = enforce_spacing(&clique_graph, &proposers, config.spacing);
    ledger.charge_constant("pre-shattering/T-node spacing", config.spacing as u64);

    // Choose a triad per accepted clique and same-color its pair with 0.
    let mut slack_vertices: Vec<NodeId> = Vec::new();
    for &cid in &accepted {
        let members = &acd.cliques[cid as usize].vertices;
        let mut triad = None;
        'search: for &u in members {
            for &w in acd.clique_of.external(u) {
                if !cls.is_hard_vertex[w.index()] || coloring.is_colored(w) {
                    continue;
                }
                if let Some(&v) = members.iter().find(|&&v| v != u && !g.has_edge(v, w)) {
                    triad = Some((u, v, w));
                    break 'search;
                }
            }
        }
        let Some((u, v, w)) = triad else {
            continue; // no usable external hard edge: skip this T-node
        };
        // All pairs share color 0, so a pair adjacent to an earlier pair
        // must be dropped. Spacing >= 4 prevents this entirely; smaller
        // spacings (the E8 ablation) rely on this local O(1) conflict
        // check instead.
        let clash = [v, w].iter().any(|&x| {
            g.neighbors(x)
                .iter()
                .any(|&y| coloring.get(y) == Some(Color(0)))
        });
        if clash {
            continue;
        }
        coloring.set(v, Color(0));
        coloring.set(w, Color(0));
        slack_vertices.push(u);
    }
    shatter.t_nodes = slack_vertices.len();
    ledger.charge_constant("pre-shattering/pair coloring", 2);

    // Defer a radius-R ball of uncolored hard vertices around every slack
    // vertex; ring index = BFS distance (ring 0 = the slack vertex).
    let mut ring: Vec<Option<usize>> = vec![None; g.n()];
    let mut queue = std::collections::VecDeque::new();
    for &u in &slack_vertices {
        ring[u.index()] = Some(0);
        queue.push_back(u);
    }
    while let Some(v) = queue.pop_front() {
        let d = ring[v.index()].expect("queued vertices have rings");
        if d == config.defer_radius {
            continue;
        }
        for &w in g.neighbors(v) {
            if cls.is_hard_vertex[w.index()] && !coloring.is_colored(w) && ring[w.index()].is_none()
            {
                ring[w.index()] = Some(d + 1);
                queue.push_back(w);
            }
        }
    }
    shatter.deferred = ring.iter().flatten().count();
    (slack_vertices, ring)
}

/// How a pooled component solve was abandoned, if it was.
struct ComponentOutcome {
    writes: Vec<(NodeId, Color)>,
    events: Vec<Event>,
    ledger: RoundLedger,
    recovery: RecoveryStats,
    result: Result<(), DeltaColoringError>,
    /// `Some(reason)` when the solve was abandoned (panic, error under
    /// containment, or budget overrun) and the component needs either
    /// degradation or a hard failure.
    failure: Option<String>,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string())
}

/// Post-shattering: solve leftover components on the worker pool and
/// merge writes, events, ledgers, and recovery stats in component-index
/// order. Under an active [`Supervisor`] this additionally contains
/// panics, enforces per-component budgets, applies the chaos plan, and
/// degrades quarantined components to [`baselines::brooks_component`];
/// with a passive supervisor it is byte-for-byte the unsupervised phase.
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
pub(crate) fn rand_phase_postshatter(
    g: &Graph,
    config: &RandConfig,
    acd: &AcdResult,
    cls: &Classification,
    faults: Option<&FaultPlan>,
    sup: &Supervisor,
    ring: &[Option<usize>],
    coloring: &mut Coloring,
    ledger: &mut RoundLedger,
    shatter: &mut ShatterStats,
    recovery: &mut RecoveryStats,
    degraded: &mut Vec<DegradedComponent>,
) -> Result<(), DeltaColoringError> {
    let delta = g.max_degree();
    let probe = ledger.probe().clone();
    let leftover = |v: NodeId| {
        cls.is_hard_vertex[v.index()] && !coloring.is_colored(v) && ring[v.index()].is_none()
    };
    let components = leftover_components(g, &leftover);
    shatter.components = components.len();
    shatter.max_component = components.iter().map(Vec::len).max().unwrap_or(0);

    // No edge joins two leftover components, so a component's writes
    // (confined to its own vertices) can never influence another
    // component's reads: its vertices' neighborhoods, clique boundaries,
    // and the frozen pre-shattering colors. Each component is therefore
    // solved against a *snapshot* of the post-shattering coloring — on
    // the worker pool, with a per-component probe recording its
    // telemetry — and colors, events, ledgers, and recovery stats are
    // merged in component-index order. The observable outcome is a pure
    // function of (snapshot, component, seed): bit-identical at every
    // thread count, including the inline `threads = 1` path. A degraded
    // component likewise contributes deterministically: its attempt is
    // discarded wholesale (no events, no rounds) and replaced by the
    // Brooks fallback charged in merge order. Only the wall-clock budget
    // — documented as a nondeterministic safety net — can break this.
    let record_events = probe.enabled();
    let contain = sup.degrade;
    let outcomes = crate::pool::run_indexed_with_metered(
        crate::pool::effective_threads(config.base.threads),
        components.len(),
        probe.metrics(),
        || coloring.clone(),
        |scratch, i| {
            let comp = &components[i];
            if sup.chaos.skip_components.contains(&i) {
                // Chaos: silently lose this component's work. The final
                // completeness check turns the gap into a validation
                // failure (and, under a bundle dir, a repro bundle).
                return ComponentOutcome {
                    writes: Vec::new(),
                    events: Vec::new(),
                    ledger: RoundLedger::new(),
                    recovery: RecoveryStats::default(),
                    result: Ok(()),
                    failure: None,
                };
            }
            let comp_seed = config.seed.wrapping_add(i as u64);
            let recording = record_events.then(|| std::sync::Arc::new(RecordingSink::new()));
            let mut comp_probe = recording
                .as_ref()
                .map_or_else(Probe::disabled, |r| Probe::new(r.clone()));
            // Metric updates commute, so the component's executor-level
            // metrics can flow straight into the shared hub from the
            // worker — unlike events, they need no replay-in-order merge.
            if let Some(hub) = probe.metrics() {
                comp_probe = comp_probe.with_metrics(hub.clone());
            }
            let mut comp_ledger = RoundLedger::with_probe(comp_probe.clone());
            let mut comp_recovery = RecoveryStats::default();
            let started = std::time::Instant::now();
            let solve = |scratch: &mut Coloring,
                         comp_ledger: &mut RoundLedger,
                         comp_recovery: &mut RecoveryStats| {
                if sup.chaos.panic_components.contains(&i) {
                    panic!("chaos: injected panic in leftover component {i}");
                }
                if let Some(plan) = faults {
                    solve_component_faulted(
                        g,
                        acd,
                        cls,
                        comp,
                        &config.base,
                        comp_seed,
                        plan,
                        &comp_probe,
                        scratch,
                        comp_ledger,
                        comp_recovery,
                    )
                } else {
                    solve_component(
                        g,
                        acd,
                        cls,
                        comp,
                        &config.base,
                        comp_seed,
                        scratch,
                        comp_ledger,
                    )
                }
            };
            // Containment: only with `degrade` does the solve run under
            // `catch_unwind` — a passive supervisor preserves the normal
            // panic propagation of the unsupervised pipeline exactly.
            let (result, mut failure) = if contain {
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    solve(scratch, &mut comp_ledger, &mut comp_recovery)
                })) {
                    Ok(Err(e)) => (Ok(()), Some(format!("error: {e}"))),
                    Ok(ok) => (ok, None),
                    Err(payload) => {
                        // Containment path: the run survives this panic,
                        // but nothing guarantees it survives the next one
                        // — push everything buffered so far (trace file,
                        // flight recorder) to durable storage now.
                        probe.flush();
                        if let Some(hub) = probe.metrics() {
                            hub.counter("supervisor.contained_panics").incr();
                        }
                        (Ok(()), Some(format!("panic: {}", panic_message(&*payload))))
                    }
                }
            } else {
                (solve(scratch, &mut comp_ledger, &mut comp_recovery), None)
            };
            if failure.is_none() && result.is_ok() {
                if let Some(budget) = sup.component_round_budget {
                    if comp_ledger.total() > budget {
                        failure = Some(format!(
                            "round budget exceeded: {} > {budget}",
                            comp_ledger.total()
                        ));
                    }
                }
            }
            if failure.is_none() && result.is_ok() {
                if let Some(ms) = sup.component_wall_budget_ms {
                    let elapsed = started.elapsed().as_millis() as u64;
                    if elapsed > ms {
                        failure = Some(format!(
                            "wall-clock budget exceeded: {elapsed} ms > {ms} ms"
                        ));
                    }
                }
            }
            if comp_recovery.retries > 0 {
                comp_recovery.components_hit = 1;
            }
            if let Some(reason) = failure {
                // Quarantine: every write of the abandoned attempt is
                // confined to `comp` (see below), so unsetting the
                // component restores the scratch to the snapshot; the
                // attempt's events and rounds are discarded wholesale.
                for &v in comp {
                    if scratch.get(v).is_some() {
                        scratch.unset(v);
                    }
                }
                return ComponentOutcome {
                    writes: Vec::new(),
                    events: Vec::new(),
                    ledger: RoundLedger::new(),
                    recovery: RecoveryStats::default(),
                    result: Ok(()),
                    failure: Some(reason),
                };
            }
            // Harvest the component's writes (all writes are confined to
            // `comp`: hard phases color scope-hard vertices, the scoped
            // easy sweep colors in-scope vertices, and both scopes are
            // subsets of `comp`), then restore the scratch to the
            // snapshot for the worker's next component.
            let mut writes = Vec::with_capacity(comp.len());
            for &v in comp {
                if let Some(c) = scratch.get(v) {
                    writes.push((v, c));
                    scratch.unset(v);
                }
            }
            ComponentOutcome {
                writes,
                events: recording.map(|r| r.events()).unwrap_or_default(),
                ledger: comp_ledger,
                recovery: comp_recovery,
                result,
                failure: None,
            }
        },
    );
    let mut component_ledgers = Vec::with_capacity(outcomes.len());
    for (i, outcome) in outcomes.into_iter().enumerate() {
        if let Some(reason) = outcome.failure {
            if !sup.degrade {
                return Err(DeltaColoringError::Supervisor(format!(
                    "leftover component {i}: {reason} (degradation disabled)"
                )));
            }
            // Degrade: re-solve the quarantined component with the scoped
            // Brooks baseline against the partial coloring, charge its
            // (sequential) cost to the supervisor ledger, and record the
            // event. Leftover components are pairwise non-adjacent, so
            // the fallback cannot disturb other components.
            let comp = &components[i];
            baselines::brooks_component(g, comp, delta as u32, coloring).map_err(|e| {
                DeltaColoringError::InvariantViolated(format!(
                    "degraded component {i}: Brooks fallback failed: {e}"
                ))
            })?;
            let cost = comp.len() as u64;
            ledger.charge(format!("supervisor/baseline component {i}"), cost);
            probe.emit_with(|| Event::Degraded {
                scope: "post-shattering".to_string(),
                unit: i as u64,
                reason: reason.clone(),
                rounds: cost,
            });
            degraded.push(DegradedComponent {
                index: i,
                reason,
                rounds: cost,
            });
            continue;
        }
        for event in outcome.events {
            probe.emit(event);
        }
        outcome.result?;
        for (v, c) in outcome.writes {
            coloring.set(v, c);
        }
        recovery.retries += outcome.recovery.retries;
        recovery.struck_vertices += outcome.recovery.struck_vertices;
        recovery.components_hit += outcome.recovery.components_hit;
        recovery.recovery_rounds += outcome.recovery.recovery_rounds;
        recovery.max_attempts = recovery.max_attempts.max(outcome.recovery.max_attempts);
        component_ledgers.push(outcome.ledger);
    }
    ledger.absorb_parallel_max("post-shattering", component_ledgers);
    Ok(())
}

/// Post-processing: deferred rings inward, slack vertices last.
pub(crate) fn rand_phase_postprocess(
    g: &Graph,
    config: &RandConfig,
    slack_vertices: &[NodeId],
    ring: &[Option<usize>],
    coloring: &mut Coloring,
    ledger: &mut RoundLedger,
) -> Result<(), DeltaColoringError> {
    let delta = g.max_degree();
    for l in (1..=config.defer_radius).rev() {
        let active: Vec<NodeId> = g
            .vertices()
            .filter(|&v| ring[v.index()] == Some(l) && !coloring.is_colored(v))
            .collect();
        run_list_instance(
            g,
            &active,
            delta as u32,
            coloring,
            format!("post-processing/T ring {l}"),
            ledger,
        )?;
    }
    let slack_uncolored: Vec<NodeId> = slack_vertices
        .iter()
        .copied()
        .filter(|&v| !coloring.is_colored(v))
        .collect();
    run_list_instance(
        g,
        &slack_uncolored,
        delta as u32,
        coloring,
        "post-processing/slack vertices",
        ledger,
    )
}

/// Post-processing II: easy cliques and loopholes (Algorithm 3), with the
/// randomized ruling style.
pub(crate) fn rand_phase_easy(
    g: &Graph,
    config: &RandConfig,
    loopholes: &LoopholeReport,
    coloring: &mut Coloring,
    ledger: &mut RoundLedger,
) -> Result<(), DeltaColoringError> {
    ledger.span("pipeline/easy sweep", |l| {
        color_easy_and_loopholes_scoped(
            g,
            loopholes,
            config.base.ruling_r,
            RulingStyle::Randomized(config.seed ^ 0xE457_0000),
            None,
            config.base.threads,
            coloring,
            l,
        )
    })?;
    Ok(())
}

/// Adjacency graph of hard cliques (an edge when any member edge crosses).
fn build_clique_graph(acd: &AcdResult, cls: &Classification) -> Graph {
    let mut edges = Vec::new();
    for (u, v) in acd.clique_of.external_edges() {
        if let (Some(a), Some(b)) = (acd.clique_of[u.index()], acd.clique_of[v.index()]) {
            if cls.kinds[a as usize] == CliqueKind::Hard
                && cls.kinds[b as usize] == CliqueKind::Hard
            {
                edges.push((a.min(b), a.max(b)));
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();
    Graph::from_edges(acd.cliques.len(), edges).expect("clique graph is valid")
}

/// Greedy spacing: accept proposers in id order, dropping any within
/// clique-graph distance `< b` of an accepted one.
fn enforce_spacing(clique_graph: &Graph, proposers: &[u32], b: usize) -> Vec<u32> {
    let mut accepted: Vec<u32> = Vec::new();
    let mut blocked = vec![false; clique_graph.n()];
    let mut sorted = proposers.to_vec();
    sorted.sort_unstable();
    for &c in &sorted {
        if blocked[c as usize] {
            continue;
        }
        accepted.push(c);
        // Block the (b-1)-ball around c.
        let mut dist = vec![usize::MAX; clique_graph.n()];
        dist[c as usize] = 0;
        let mut q = std::collections::VecDeque::from([NodeId(c)]);
        blocked[c as usize] = true;
        while let Some(v) = q.pop_front() {
            let d = dist[v.index()];
            if d + 1 >= b {
                continue;
            }
            for &w in clique_graph.neighbors(v) {
                if dist[w.index()] == usize::MAX {
                    dist[w.index()] = d + 1;
                    blocked[w.index()] = true;
                    q.push_back(w);
                }
            }
        }
    }
    accepted
}

/// Connected components of the leftover predicate.
fn leftover_components(g: &Graph, leftover: &impl Fn(NodeId) -> bool) -> Vec<Vec<NodeId>> {
    let mut seen = vec![false; g.n()];
    let mut out = Vec::new();
    // Hoisted BFS stack: drained when a component completes, so one
    // allocation serves every component.
    let mut stack: Vec<NodeId> = Vec::new();
    for s in g.vertices() {
        if seen[s.index()] || !leftover(s) {
            continue;
        }
        seen[s.index()] = true;
        let mut comp = vec![s];
        stack.push(s);
        while let Some(v) = stack.pop() {
            for &w in g.neighbors(v) {
                if !seen[w.index()] && leftover(w) {
                    seen[w.index()] = true;
                    comp.push(w);
                    stack.push(w);
                }
            }
        }
        comp.sort_unstable();
        out.push(comp);
    }
    out
}

/// Solves one leftover component with the modified deterministic pipeline.
#[allow(clippy::too_many_arguments)]
fn solve_component(
    g: &Graph,
    acd: &AcdResult,
    cls: &Classification,
    comp: &[NodeId],
    base: &Config,
    seed: u64,
    coloring: &mut Coloring,
    ledger: &mut RoundLedger,
) -> Result<(), DeltaColoringError> {
    let delta = g.max_degree();
    let mut in_comp = vec![false; g.n()];
    for &v in comp {
        in_comp[v.index()] = true;
    }
    // Anchors: extended loopholes — a neighbor that is uncolored and
    // outside the component (deferred or easy), or two same-colored
    // neighbors (permanent slack from adjacent T-pairs).
    let mut anchor_votes: Vec<Option<Loophole>> = vec![None; g.n()];
    for &v in comp {
        let mut outside_uncolored = false;
        let mut colors_seen: std::collections::HashSet<Color> = std::collections::HashSet::new();
        let mut repeat_color = false;
        for &w in g.neighbors(v) {
            match coloring.get(w) {
                None if !in_comp[w.index()] => outside_uncolored = true,
                Some(c) if !colors_seen.insert(c) => repeat_color = true,
                _ => {}
            }
        }
        if outside_uncolored || repeat_color {
            anchor_votes[v.index()] = Some(Loophole::LowDegree(v));
        }
    }

    // Component cliques: a clique is *scope-hard* when all of its
    // uncolored members lie in this component and none is anchored —
    // already-colored pair vertices are simply dropped from the clique
    // (the §4 "useless vertex" adjustment). Cliques with anchored or
    // deferred members are easy-like and colored by the scoped sweep.
    let mut comp_cliques: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
    for &v in comp {
        comp_cliques.insert(acd.clique_of[v.index()].expect("hard vertices lie in cliques"));
    }
    let mut scope_hard: Vec<u32> = Vec::new();
    let mut is_scope_hard_vertex = vec![false; g.n()];
    for &cid in &comp_cliques {
        let members = &acd.cliques[cid as usize].vertices;
        let uncolored: Vec<NodeId> = members
            .iter()
            .copied()
            .filter(|&v| !coloring.is_colored(v))
            .collect();
        let contained = uncolored.iter().all(|&v| in_comp[v.index()]);
        let anchored = uncolored.iter().any(|&v| anchor_votes[v.index()].is_some());
        if contained && !anchored && uncolored.len() >= base.subcliques {
            scope_hard.push(cid);
            for &v in &uncolored {
                is_scope_hard_vertex[v.index()] = true;
            }
        }
    }
    // Scoped C_HEG: every sub-clique (same chunking over *active* members
    // as Phase 1) must field at least one member with an external
    // scope-hard neighbor.
    let mut heg_ids = Vec::new();
    for &cid in &scope_hard {
        let members: Vec<NodeId> = acd.cliques[cid as usize]
            .vertices
            .iter()
            .copied()
            .filter(|&v| is_scope_hard_vertex[v.index()])
            .collect();
        let k = base.subcliques.min(members.len());
        let mut sub_ok = vec![false; k];
        for (j, &v) in members.iter().enumerate() {
            let part = j * k / members.len();
            if acd
                .clique_of
                .first_external_in(v, &is_scope_hard_vertex)
                .is_some()
            {
                sub_ok[part] = true;
            }
        }
        if sub_ok.iter().all(|&b| b) {
            heg_ids.push(cid);
        }
        // Cliques failing the sub-clique rule stay scope-hard but outside
        // C_HEG: Phase 4 treats them as Type II, stalling on a member with
        // an uncolored easy-like neighbor inside the component.
    }
    let scoped_cls = Classification {
        kinds: cls.kinds.clone(),
        hard_ids: scope_hard,
        heg_ids,
        is_hard_vertex: is_scope_hard_vertex,
        rounds: 1,
    };
    let scoped_votes = LoopholeReport {
        vote: anchor_votes,
        rounds: 1,
    };

    if !scoped_cls.hard_ids.is_empty() {
        let pair_palette: Vec<Color> = (1..delta as u32).map(Color).collect();
        let mut stats = PipelineStats::default();
        run_hard_phases(
            g,
            acd,
            &scoped_cls,
            base,
            coloring,
            ledger,
            &mut stats,
            Some(pair_palette),
            true,
        )?;
    }
    // Scoped easy sweep for the easy-like remainder, anchored at the
    // extended loopholes.
    color_easy_and_loopholes_scoped(
        g,
        &scoped_votes,
        1,
        RulingStyle::Randomized(seed),
        Some(&in_comp),
        // Components are already parallel units; no nested parallelism.
        1,
        coloring,
        ledger,
    )?;
    Ok(())
}

/// Pipeline-level fault stream: vertex strikes in leftover components.
/// Distinct from the executor streams in `localsim::faults` so pipeline
/// strikes never correlate with message drops.
const STREAM_RETRY: u64 = 0x9E7A_11FA_57C0_10CE;

/// Attempt cap per component. The final attempt is always fault-free, so
/// the loop terminates with a validated coloring; with per-vertex strike
/// probability `≈ drop_p · deg` the chance of reaching it is negligible.
const MAX_COMPONENT_ATTEMPTS: usize = 8;

/// [`solve_component`] under fault injection: detect-and-retry at
/// component granularity.
///
/// After each solve, faults may strike component vertices (uncolor them;
/// per-vertex probability `min(1, message_drop_p · deg)`, deterministic in
/// the plan seed, vertex id, and attempt number — the chance that one of
/// the vertex's commit-round messages was dropped). A scoped
/// [`crate::validate`] sweep then *detects* the damage; on any violation
/// the whole component is rolled back to its pre-solve state (all
/// component vertices uncolored — exactly what [`solve_component`]
/// expects), the discarded attempt's rounds are absorbed into the
/// component ledger under `faults/`, a [`FaultKind::Retry`] event fires,
/// and the component re-solves with a salted seed.
#[allow(clippy::too_many_arguments)]
fn solve_component_faulted(
    g: &Graph,
    acd: &AcdResult,
    cls: &Classification,
    comp: &[NodeId],
    base: &Config,
    seed: u64,
    plan: &FaultPlan,
    probe: &Probe,
    coloring: &mut Coloring,
    comp_ledger: &mut RoundLedger,
    recovery: &mut RecoveryStats,
) -> Result<(), DeltaColoringError> {
    let delta = g.max_degree();
    for attempt in 0..MAX_COMPONENT_ATTEMPTS {
        let mut attempt_ledger = RoundLedger::with_probe(probe.clone());
        solve_component(
            g,
            acd,
            cls,
            comp,
            base,
            seed.wrapping_add((attempt as u64) << 32),
            coloring,
            &mut attempt_ledger,
        )?;

        let last = attempt + 1 == MAX_COMPONENT_ATTEMPTS;
        let struck: Vec<NodeId> = if last {
            Vec::new() // the final attempt is always clean
        } else {
            comp.iter()
                .copied()
                .filter(|&v| {
                    let p = (plan.message_drop_p * g.neighbors(v).len() as f64).min(1.0);
                    plan.unit(STREAM_RETRY, u64::from(v.0), attempt as u64) < p
                })
                .collect()
        };
        for &v in &struck {
            coloring.unset(v);
        }

        // Detect: the retry is driven by the validation sweep, not by the
        // strike list — any violation in the component's scope (uncolored
        // vertices, clashes with the colored boundary) triggers recovery.
        let damage = crate::validate::check_coloring_scoped(g, coloring, delta as u32, comp);
        if damage.is_empty() {
            recovery.max_attempts = recovery.max_attempts.max(attempt + 1);
            comp_ledger.absorb("post-shattering/solve", attempt_ledger);
            return Ok(());
        }
        if last {
            comp_ledger.absorb("post-shattering/solve", attempt_ledger);
            return Err(DeltaColoringError::InvariantViolated(format!(
                "leftover component failed validation on a fault-free attempt: {}",
                damage[0]
            )));
        }

        // Roll back: uncolor the entire component so the next attempt
        // starts from the state solve_component assumes.
        for &v in comp {
            if coloring.is_colored(v) {
                coloring.unset(v);
            }
        }
        recovery.retries += 1;
        recovery.struck_vertices += struck.len();
        recovery.recovery_rounds += attempt_ledger.total();
        probe.emit_with(|| Event::Fault {
            scope: "pipeline".to_string(),
            round: attempt as u64,
            kind: FaultKind::Retry,
            node: None,
            count: struck.len() as u64,
        });
        comp_ledger.absorb(&format!("faults/attempt {attempt}"), attempt_ledger);
    }
    unreachable!("the final attempt either validates or returns an error")
}

/// The large-Δ branch: a dense-specific randomized routine substituting
/// [FHM23]'s `O(log* n)` algorithm (see DESIGN.md). Every hard clique
/// samples a slack triad; pairs are colored by parallel random trials on
/// the conflict graph; the remainder follows by stalled trials and the
/// easy sweep. Returns the complete coloring and the branch's stats.
pub(crate) fn color_large_delta(
    g: &Graph,
    config: &RandConfig,
    ledger: &mut RoundLedger,
) -> Result<(Coloring, ShatterStats), DeltaColoringError> {
    let delta = g.max_degree();
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x1A26_00E0);
    let mut coloring = Coloring::empty(g.n());
    let mut shatter = ShatterStats {
        large_delta_branch: true,
        ..ShatterStats::default()
    };

    let acd = compute_acd(g, &config.base.acd);
    ledger.charge_constant("acd computation", acd.rounds);
    if !acd.is_dense() {
        return Err(DeltaColoringError::NotDense {
            sparse: acd.sparse.len(),
        });
    }
    let loopholes = detect_loopholes(g, &acd.clique_of);
    ledger.charge_constant("loophole detection", loopholes.rounds);
    let cls = classify_cliques(g, &acd, &loopholes)?;
    ledger.charge_constant("hard-easy classification", cls.rounds);

    // Sample one triad per hard clique; pairs must be mutually non-adjacent
    // across cliques only in the conflict-graph sense (handled by trials).
    let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
    let mut slack: Vec<NodeId> = Vec::new();
    let mut used = vec![false; g.n()];
    for &cid in &cls.hard_ids {
        let members = &acd.cliques[cid as usize].vertices;
        let mut triad = None;
        for _ in 0..32 {
            let u = members[rng.gen_range(0..members.len())];
            if used[u.index()] {
                continue;
            }
            let externals: Vec<NodeId> = acd
                .clique_of
                .external(u)
                .iter()
                .copied()
                .filter(|&w| cls.is_hard_vertex[w.index()] && !used[w.index()])
                .collect();
            if externals.is_empty() {
                continue;
            }
            let w = externals[rng.gen_range(0..externals.len())];
            if let Some(&v) = members
                .iter()
                .find(|&&v| v != u && !used[v.index()] && !g.has_edge(v, w))
            {
                triad = Some((u, v, w));
                break;
            }
        }
        if let Some((u, v, w)) = triad {
            for x in [u, v, w] {
                used[x.index()] = true;
            }
            pairs.push((v, w));
            slack.push(u);
        }
    }
    shatter.t_nodes = pairs.len();
    ledger.charge_constant("large-delta/triad sampling", 2);

    // Color pairs by parallel random trials on the pair-conflict graph.
    let trial_rounds = random_pair_trials(g, &pairs, delta as u32, &mut rng, &mut coloring)?;
    ledger.charge_virtual("large-delta/pair trials", trial_rounds, 3);

    // Color everything else: non-slack hard vertices by stalled trials,
    // then slack vertices (permanent slack), then the easy sweep.
    let mut is_slack = vec![false; g.n()];
    for &u in &slack {
        is_slack[u.index()] = true;
    }
    let stage1: Vec<NodeId> = g
        .vertices()
        .filter(|&v| {
            cls.is_hard_vertex[v.index()] && !coloring.is_colored(v) && !is_slack[v.index()]
        })
        .collect();
    // A vertex without a slack source in stage 1 stalls on its clique's
    // slack vertex; cliques without a triad stall on an easy neighbor the
    // same way the deterministic pipeline's Type II handling does. Use the
    // generic instance machinery (which validates palettes).
    run_list_instance(
        g,
        &stage1,
        delta as u32,
        &mut coloring,
        "large-delta/hard body",
        ledger,
    )?;
    let stage2: Vec<NodeId> = g
        .vertices()
        .filter(|&v| is_slack[v.index()] && !coloring.is_colored(v))
        .collect();
    run_list_instance(
        g,
        &stage2,
        delta as u32,
        &mut coloring,
        "large-delta/slack",
        ledger,
    )?;
    color_easy_and_loopholes_scoped(
        g,
        &loopholes,
        config.base.ruling_r,
        RulingStyle::Randomized(config.seed ^ 0x1A26_00E1),
        None,
        config.base.threads,
        &mut coloring,
        ledger,
    )?;
    coloring
        .check_complete(g, delta as u32)
        .map_err(|e| DeltaColoringError::InvariantViolated(format!("final coloring: {e}")))?;
    Ok((coloring, shatter))
}

/// Parallel random color trials for slack pairs: each round every
/// uncolored pair draws a uniform free color; a pair keeps its draw if no
/// conflicting pair drew the same color. Returns the number of trial
/// rounds.
fn random_pair_trials(
    g: &Graph,
    pairs: &[(NodeId, NodeId)],
    palette: u32,
    rng: &mut StdRng,
    coloring: &mut Coloring,
) -> Result<u64, DeltaColoringError> {
    // Conflict graph over pairs.
    let mut pair_of: Vec<Option<u32>> = vec![None; g.n()];
    for (i, &(v, w)) in pairs.iter().enumerate() {
        pair_of[v.index()] = Some(i as u32);
        pair_of[w.index()] = Some(i as u32);
    }
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); pairs.len()];
    for (i, &(v, w)) in pairs.iter().enumerate() {
        for x in [v, w] {
            for &y in g.neighbors(x) {
                if let Some(j) = pair_of[y.index()] {
                    if j != i as u32 {
                        adj[i].push(j);
                    }
                }
            }
        }
    }
    for a in &mut adj {
        a.sort_unstable();
        a.dedup();
    }
    let mut color: Vec<Option<Color>> = vec![None; pairs.len()];
    let budget = 100 + 8 * (usize::BITS - g.n().leading_zeros()) as u64;
    let mut rounds = 0;
    while color.iter().any(Option::is_none) {
        if rounds >= budget {
            return Err(DeltaColoringError::InvariantViolated(
                "pair trials failed to converge within the w.h.p. budget".to_string(),
            ));
        }
        rounds += 1;
        let mut draw: Vec<Option<Color>> = vec![None; pairs.len()];
        for i in 0..pairs.len() {
            if color[i].is_some() {
                continue;
            }
            let taken: std::collections::HashSet<Color> =
                adj[i].iter().filter_map(|&j| color[j as usize]).collect();
            let free: Vec<Color> = (0..palette)
                .map(Color)
                .filter(|c| !taken.contains(c))
                .collect();
            if free.is_empty() {
                return Err(DeltaColoringError::InvariantViolated(
                    "a slack pair ran out of colors (Lemma 16 violated)".to_string(),
                ));
            }
            draw[i] = Some(free[rng.gen_range(0..free.len())]);
        }
        for i in 0..pairs.len() {
            let Some(c) = draw[i] else { continue };
            let clash = adj[i]
                .iter()
                .any(|&j| draw[j as usize] == Some(c) || color[j as usize] == Some(c));
            if !clash {
                color[i] = Some(c);
            }
        }
    }
    for (i, &(v, w)) in pairs.iter().enumerate() {
        let c = color[i].expect("all pairs colored");
        coloring.set(v, c);
        coloring.set(w, c);
    }
    Ok(rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphgen::coloring::verify_delta_coloring;
    use graphgen::generators;

    fn hard(cliques: usize, delta: usize, seed: u64) -> generators::HardCliqueInstance {
        generators::hard_cliques(&generators::HardCliqueParams {
            cliques,
            delta,
            external_per_vertex: 1,
            seed,
        })
        .unwrap()
    }

    #[test]
    fn randomized_colors_hard_instance() {
        let inst = hard(34, 16, 41);
        let report = color_randomized(&inst.graph, &RandConfig::for_delta(16, 1)).unwrap();
        verify_delta_coloring(&inst.graph, &report.coloring).unwrap();
        assert!(report.shatter.t_nodes >= 1);
    }

    #[test]
    fn randomized_seeds_differ_but_both_valid() {
        let inst = hard(60, 16, 42);
        let a = color_randomized(&inst.graph, &RandConfig::for_delta(16, 1)).unwrap();
        let b = color_randomized(&inst.graph, &RandConfig::for_delta(16, 2)).unwrap();
        verify_delta_coloring(&inst.graph, &a.coloring).unwrap();
        verify_delta_coloring(&inst.graph, &b.coloring).unwrap();
    }

    #[test]
    fn randomized_on_mixed_instance() {
        let inst = generators::mixed_dense(&generators::MixedParams {
            base: generators::HardCliqueParams {
                cliques: 34,
                delta: 16,
                external_per_vertex: 1,
                seed: 43,
            },
            easy_low_degree: 2,
            easy_four_cycle: 1,
        })
        .unwrap();
        let report = color_randomized(&inst.graph, &RandConfig::for_delta(16, 7)).unwrap();
        verify_delta_coloring(&inst.graph, &report.coloring).unwrap();
    }

    #[test]
    fn shattering_components_reported() {
        let inst = hard(120, 16, 44);
        let mut config = RandConfig::for_delta(16, 3);
        config.placement_prob = 0.3;
        let report = color_randomized(&inst.graph, &config).unwrap();
        verify_delta_coloring(&inst.graph, &report.coloring).unwrap();
        // With low placement probability something is usually left over.
        assert!(report.shatter.components > 0 || report.shatter.deferred > 0);
    }

    #[test]
    fn large_delta_branch_works() {
        let inst = hard(34, 16, 45);
        let mut config = RandConfig::for_delta(16, 5);
        config.large_delta_threshold = Some(4);
        let report = color_randomized(&inst.graph, &config).unwrap();
        verify_delta_coloring(&inst.graph, &report.coloring).unwrap();
        assert!(report.shatter.large_delta_branch);
    }

    #[test]
    fn many_seeds_never_fail() {
        let inst = hard(60, 16, 46);
        for seed in 0..8 {
            let report = color_randomized(&inst.graph, &RandConfig::for_delta(16, seed)).unwrap();
            verify_delta_coloring(&inst.graph, &report.coloring).unwrap();
        }
    }
}

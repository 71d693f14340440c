//! Generators for the paper's *dense* graph families.
//!
//! A **hard** dense instance (Definition 8 + Lemma 9 of the paper) is a
//! Δ-regular graph partitioned into cliques such that
//!
//! 1. every almost-clique of the ACD is a true clique,
//! 2. every vertex has exactly `e_C = Δ − |C| + 1` neighbors outside its
//!    clique,
//! 3. no vertex outside a clique has two neighbors inside it (equivalently:
//!    at most one edge between any pair of cliques), and
//! 4. no *loophole* on at most six vertices exists — no vertex of degree
//!    `< Δ` and no non-clique even cycle of length 4 or 6.
//!
//! We realize such instances from a *blueprint*: a simple
//! `(|C|·ext)`-regular **bipartite** multigraph-made-simple whose nodes are
//! cliques and whose edges become single vertex-to-vertex edges. Bipartite
//! blueprints have no triangles, which (together with simplicity) rules out
//! most short even cycles. The remaining bad patterns — blueprint 4-cycles
//! or 6-cycles whose consecutive edges land on a *shared* vertex inside a
//! clique — can only occur for `ext ≥ 2` and are removed by a detection and
//! reassignment repair loop.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::analysis;
use crate::{Graph, GraphBuilder, GraphError, NodeId};

/// Which blueprint joins the cliques of a hard instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum BlueprintKind {
    /// A random regular bipartite blueprint: an expander, so the instance
    /// has `O(log_Δ m)` clique-graph diameter. The default.
    #[default]
    Random,
    /// A circulant bipartite blueprint (left `i` joins right `i+1..i+d`):
    /// locally structured, clique-graph diameter `Θ(m / Δ)` — the family
    /// on which shattering and diameter-bound baselines are visible.
    Circulant,
}

/// Parameters for [`hard_cliques`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HardCliqueParams {
    /// Number of cliques `m` (must be even and large enough for the
    /// blueprint to exist: `m / 2 ≥ |C| · external_per_vertex`).
    pub cliques: usize,
    /// Maximum degree Δ of the generated graph.
    pub delta: usize,
    /// External edges per vertex (`e_C` in the paper); clique size is
    /// `Δ + 1 − e_C`.
    pub external_per_vertex: usize,
    /// RNG seed; generation is deterministic per seed.
    pub seed: u64,
}

/// Which kind of loophole [`easy_cliques`] plants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LoopholeKind {
    /// Delete one intra-clique edge, creating two vertices of degree `Δ−1`
    /// (Definition 6, case 1).
    LowDegree,
    /// Rewire external edges so one clique pair is joined by two edges,
    /// creating a non-clique 4-cycle (Definition 6, case 2).
    FourCycle,
}

/// Parameters for [`easy_cliques`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EasyCliqueParams {
    /// The underlying hard instance to start from.
    pub base: HardCliqueParams,
    /// How many cliques receive a planted loophole.
    pub easy: usize,
    /// The kind of loophole planted.
    pub kind: LoopholeKind,
}

/// Parameters for [`mixed_dense`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MixedParams {
    /// The underlying hard instance to start from.
    pub base: HardCliqueParams,
    /// How many cliques receive a low-degree loophole.
    pub easy_low_degree: usize,
    /// How many cliques receive a four-cycle loophole.
    pub easy_four_cycle: usize,
}

/// A generated dense instance: the graph plus its intended clique structure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HardCliqueInstance {
    /// The generated graph.
    pub graph: Graph,
    /// Vertex sets of the cliques, each sorted.
    pub cliques: Vec<Vec<NodeId>>,
    /// For each vertex, the index of its clique in `cliques`.
    pub clique_of: Vec<u32>,
    /// Maximum degree Δ.
    pub delta: usize,
    /// External edges per vertex.
    pub external_per_vertex: usize,
    /// Indices of cliques that were deliberately made easy (empty for pure
    /// hard instances). Note a planted `FourCycle` loophole makes *both*
    /// endpointclique s easy; both indices are listed.
    pub planted_easy: Vec<usize>,
}

impl HardCliqueInstance {
    /// All edges whose endpoints lie in different cliques.
    pub fn external_edges(&self) -> Vec<(NodeId, NodeId)> {
        self.graph
            .edges()
            .filter(|&(u, v)| self.clique_of[u.index()] != self.clique_of[v.index()])
            .collect()
    }
}

/// A simple `d`-regular bipartite graph on `half + half` nodes, as an edge
/// list of `(left, right)` pairs with both sides indexed `0..half`.
///
/// Built as a union of `d` random permutations with duplicate repair by
/// random transpositions.
///
/// # Errors
///
/// Returns [`GraphError::InfeasibleParameters`] if `d > half`.
pub fn bipartite_regular_blueprint(
    half: usize,
    d: usize,
    rng: &mut StdRng,
) -> Result<Vec<(u32, u32)>, GraphError> {
    if d > half {
        return Err(GraphError::InfeasibleParameters(format!(
            "bipartite {d}-regular blueprint needs at least {d} cliques per side, got {half}"
        )));
    }
    if d == half {
        // Complete bipartite: the unique d-regular graph in this case.
        let mut edges = Vec::with_capacity(half * d);
        for l in 0..half as u32 {
            for r in 0..half as u32 {
                edges.push((l, r));
            }
        }
        return Ok(edges);
    }
    if half >= 2 * d {
        if let Some(edges) = permutation_blueprint(half, d, rng) {
            return Ok(edges);
        }
    }
    // Tight regime (or heuristic failure): build d edge-disjoint perfect
    // matchings exactly. After removing k perfect matchings the remaining
    // allowed bipartite graph is (half-k)-regular, so by Hall's theorem a
    // perfect matching always exists and Kuhn's augmenting search finds it.
    exact_matching_blueprint(half, d, rng)
}

/// Fast path: union of `d` random permutations, de-duplicated by random
/// transposition sweeps. Returns `None` if sweeps fail to converge.
fn permutation_blueprint(half: usize, d: usize, rng: &mut StdRng) -> Option<Vec<(u32, u32)>> {
    let mut perms: Vec<Vec<u32>> = (0..d)
        .map(|_| {
            let mut p: Vec<u32> = (0..half as u32).collect();
            p.shuffle(rng);
            p
        })
        .collect();
    for _ in 0..200 {
        // One sweep: find all duplicated (l, r) pairs and break each.
        let mut seen = std::collections::HashSet::with_capacity(half * d);
        let mut dups: Vec<(usize, usize)> = Vec::new();
        for (k, p) in perms.iter().enumerate() {
            for (l, &r) in p.iter().enumerate() {
                if !seen.insert((l as u32, r)) {
                    dups.push((k, l));
                }
            }
        }
        if dups.is_empty() {
            let mut edges = Vec::with_capacity(half * d);
            for p in &perms {
                for (l, &r) in p.iter().enumerate() {
                    edges.push((l as u32, r));
                }
            }
            return Some(edges);
        }
        for (k, l) in dups {
            let l2 = rng.gen_range(0..half);
            perms[k].swap(l, l2);
        }
    }
    None
}

/// Exact path: `d` edge-disjoint perfect matchings via Kuhn's augmenting
/// search with randomized scan order.
fn exact_matching_blueprint(
    half: usize,
    d: usize,
    rng: &mut StdRng,
) -> Result<Vec<(u32, u32)>, GraphError> {
    let mut used = vec![vec![false; half]; half]; // used[l][r]
    let mut edges = Vec::with_capacity(half * d);
    for _round in 0..d {
        let mut match_of_right: Vec<Option<u32>> = vec![None; half];
        let mut order: Vec<u32> = (0..half as u32).collect();
        order.shuffle(rng);
        for &l in &order {
            let mut visited = vec![false; half];
            if !kuhn_augment(l, &used, &mut match_of_right, &mut visited, rng)? {
                return Err(GraphError::InfeasibleParameters(format!(
                    "no perfect matching while building bipartite {d}-regular blueprint \
                     on {half}+{half} nodes"
                )));
            }
        }
        for (r, l) in match_of_right.iter().enumerate() {
            let Some(l) = *l else {
                return Err(GraphError::InfeasibleParameters(format!(
                    "bipartite {d}-regular blueprint left right vertex {r} unmatched \
                     on {half}+{half} nodes"
                )));
            };
            used[l as usize][r] = true;
            edges.push((l, r as u32));
        }
    }
    Ok(edges)
}

fn kuhn_augment(
    l: u32,
    used: &[Vec<bool>],
    match_of_right: &mut [Option<u32>],
    visited: &mut [bool],
    rng: &mut StdRng,
) -> Result<bool, GraphError> {
    let half = match_of_right.len();
    // Iterative DFS with an explicit stack: in the tight regime an
    // augmenting path can reach depth `half`, which the recursive form
    // answered with a thread-stack overflow on adversarial blueprint
    // parameters. Each frame is (left vertex, randomized scan start,
    // candidates scanned so far); `trail[k]` is the right vertex frame
    // `k` has committed to, so the trail doubles as the alternating path
    // to flip on success. The scan-start draws happen in the same
    // pre-order positions as the recursive calls did, so the RNG stream
    // (and every generated blueprint) is unchanged.
    let mut stack: Vec<(u32, usize, usize)> = vec![(l, rng.gen_range(0..half), 0)];
    let mut trail: Vec<usize> = Vec::with_capacity(half);
    while let Some(frame) = stack.last_mut() {
        let (cur_l, start, tried) = *frame;
        let mut chosen = None;
        let mut i = tried;
        while i < half {
            let r = (start + i) % half;
            i += 1;
            if !used[cur_l as usize][r] && !visited[r] {
                chosen = Some(r);
                break;
            }
        }
        frame.2 = i;
        let Some(r) = chosen else {
            // Every candidate exhausted: backtrack, un-committing the
            // parent's right-vertex choice.
            stack.pop();
            trail.pop();
            continue;
        };
        visited[r] = true;
        trail.push(r);
        match match_of_right[r] {
            None => {
                // A free right vertex ends the alternating path: flip
                // the matching along the trail.
                for (k, &(ll, _, _)) in stack.iter().enumerate() {
                    match_of_right[trail[k]] = Some(ll);
                }
                return Ok(true);
            }
            Some(prev) => {
                if stack.len() > half {
                    // Unreachable for consistent inputs (every frame owns
                    // a distinct `visited` right vertex); a typed guard
                    // against corrupted matching state instead of a panic.
                    return Err(GraphError::InfeasibleParameters(format!(
                        "matching search exceeded depth {half} while building a \
                         bipartite blueprint"
                    )));
                }
                stack.push((prev, rng.gen_range(0..half), 0));
            }
        }
    }
    Ok(false)
}

/// A circulant bipartite `d`-regular blueprint: left `i` joins rights
/// `i+1 ..= i+d (mod half)`. Locally structured, diameter `Θ(half / d)`.
///
/// # Errors
///
/// Returns [`GraphError::InfeasibleParameters`] if `d >= half`.
pub(crate) fn circulant_blueprint(half: usize, d: usize) -> Result<Vec<(u32, u32)>, GraphError> {
    if d >= half {
        return Err(GraphError::InfeasibleParameters(format!(
            "circulant {d}-regular blueprint needs more than {d} cliques per side, got {half}"
        )));
    }
    let mut edges = Vec::with_capacity(half * d);
    for i in 0..half as u32 {
        for j in 1..=d as u32 {
            edges.push((i, (i + j) % half as u32));
        }
    }
    Ok(edges)
}

/// Mutable intermediate representation during generation and repair.
struct Assembly {
    /// Clique vertex sets (global ids), each of size `c`.
    cliques: Vec<Vec<NodeId>>,
    clique_of: Vec<u32>,
    /// External edges as global vertex pairs.
    external: Vec<(NodeId, NodeId)>,
}

impl Assembly {
    fn build_graph(&self) -> Result<Graph, GraphError> {
        let mut b = GraphBuilder::new(self.clique_of.len());
        for c in &self.cliques {
            b.add_clique(c);
        }
        for &(u, v) in &self.external {
            b.add_edge(u, v);
        }
        b.build()
    }
}

/// Generates a graph that is a disjoint union of Δ-cliques joined so that
/// **every** almost-clique is a hard clique (Definition 8).
///
/// See the module documentation for the construction. For
/// `external_per_vertex == 1` the construction is loophole-free by design;
/// for larger values a repair loop removes residual short even cycles.
///
/// # Errors
///
/// Returns [`GraphError::InfeasibleParameters`] if the clique count is odd,
/// the clique size would be `< 2`, the blueprint cannot exist, or the
/// repair loop fails to converge (extremely tight parameters).
pub fn hard_cliques(params: &HardCliqueParams) -> Result<HardCliqueInstance, GraphError> {
    hard_cliques_with_blueprint(params, BlueprintKind::Random)
}

/// [`hard_cliques`] with an explicit [`BlueprintKind`].
///
/// # Errors
///
/// As [`hard_cliques`].
pub fn hard_cliques_with_blueprint(
    params: &HardCliqueParams,
    kind: BlueprintKind,
) -> Result<HardCliqueInstance, GraphError> {
    let &HardCliqueParams {
        cliques: m,
        delta,
        external_per_vertex: ext,
        seed,
    } = params;
    if m < 2 || m % 2 != 0 {
        return Err(GraphError::InfeasibleParameters(format!(
            "clique count must be even and >= 2, got {m}"
        )));
    }
    if ext == 0 || ext > delta {
        return Err(GraphError::InfeasibleParameters(format!(
            "external_per_vertex must be in 1..=delta, got {ext}"
        )));
    }
    let c = delta + 1 - ext; // clique size
    if c < 2 {
        return Err(GraphError::InfeasibleParameters(format!(
            "clique size delta+1-ext = {c} is too small"
        )));
    }
    let d_bp = c * ext; // blueprint degree
    let mut rng = StdRng::seed_from_u64(seed);
    for attempt in 0..20 {
        let mut sub_rng =
            StdRng::seed_from_u64(seed.wrapping_add(0x9e37_79b9).wrapping_mul(attempt + 1));
        match try_hard_cliques(m, delta, ext, c, d_bp, kind, &mut sub_rng) {
            Ok(inst) => return Ok(inst),
            Err(GraphError::InfeasibleParameters(msg)) if attempt == 19 => {
                return Err(GraphError::InfeasibleParameters(msg))
            }
            Err(_) => continue,
        }
    }
    let _ = &mut rng;
    unreachable!("loop either returns an instance or the final error")
}

fn try_hard_cliques(
    m: usize,
    delta: usize,
    ext: usize,
    c: usize,
    d_bp: usize,
    kind: BlueprintKind,
    rng: &mut StdRng,
) -> Result<HardCliqueInstance, GraphError> {
    let half = m / 2;
    let blueprint = match kind {
        BlueprintKind::Random => bipartite_regular_blueprint(half, d_bp, rng)?,
        BlueprintKind::Circulant => circulant_blueprint(half, d_bp)?,
    };

    // Clique k occupies vertices k*c .. (k+1)*c. Left cliques are 0..half,
    // right cliques are half..m.
    let cliques: Vec<Vec<NodeId>> = (0..m)
        .map(|k| (k * c..(k + 1) * c).map(NodeId::from).collect())
        .collect();
    let mut clique_of = vec![0u32; m * c];
    for (k, cl) in cliques.iter().enumerate() {
        for &v in cl {
            clique_of[v.index()] = k as u32;
        }
    }

    // Assign each clique's incident blueprint edges to its vertices,
    // `ext` edges per vertex, avoiding the corner-sharing patterns that
    // would create 4- or 6-vertex loophole cycles (see the module docs).
    let external = assign_blueprint_edges(m, half, c, ext, &blueprint, rng)?;
    let _ = d_bp;

    let mut asm = Assembly {
        cliques,
        clique_of,
        external,
    };

    // Backstop repair: the constructive assignment avoids all known bad
    // patterns, but we keep a detection/repair loop for defense in depth
    // when vertices carry several external edges.
    if ext >= 2 {
        repair_short_cycles(&mut asm, rng)?;
    }

    let graph = asm.build_graph()?;
    debug_assert!(analysis::is_regular(&graph, delta));
    Ok(HardCliqueInstance {
        graph,
        cliques: asm.cliques,
        clique_of: asm.clique_of,
        delta,
        external_per_vertex: ext,
        planted_easy: Vec::new(),
    })
}

/// Assigns each clique's incident blueprint edges to its vertices (`ext`
/// per vertex) while avoiding corner-sharing patterns.
///
/// A graph-level loophole cycle on ≤ 6 vertices arises exactly when a
/// blueprint 4-cycle has an even positive number of *sharing corners*
/// (corners whose two cycle edges are held by the same vertex) or when a
/// blueprint 6-cycle shares at all six corners. The greedy below builds
/// each vertex's target set one clique at a time, rejecting any target
/// that would create a second sharing corner on some blueprint 4-cycle or
/// complete an all-sharing 6-cycle. Since with one sharing corner a cycle
/// of the dangerous kind has odd graph length, the result is loophole-free.
fn assign_blueprint_edges(
    m: usize,
    half: usize,
    c: usize,
    ext: usize,
    blueprint: &[(u32, u32)],
    rng: &mut StdRng,
) -> Result<Vec<(NodeId, NodeId)>, GraphError> {
    // Blueprint adjacency over clique ids 0..m (left l, right half + r).
    let mut bp_adj: Vec<Vec<u32>> = vec![Vec::new(); m];
    for &(l, r) in blueprint {
        bp_adj[l as usize].push((half + r as usize) as u32);
        bp_adj[half + r as usize].push(l);
    }
    for a in &mut bp_adj {
        a.sort_unstable();
    }
    let bp_has = |a: u32, b: u32| bp_adj[a as usize].binary_search(&b).is_ok();

    // holder[(a, b)] = local vertex index in clique a holding edge {a, b}.
    let mut holder: std::collections::HashMap<(u32, u32), u32> = std::collections::HashMap::new();
    // sets[k] = target sets per vertex, filled once clique k is assigned.
    let mut sets: Vec<Vec<Vec<u32>>> = vec![Vec::new(); m];
    let assigned = |sets: &Vec<Vec<Vec<u32>>>, k: u32| !sets[k as usize].is_empty();

    // For each clique in random order, group its targets into vertex sets.
    let mut order: Vec<u32> = (0..m as u32).collect();
    order.shuffle(rng);
    for &a in &order {
        let targets = bp_adj[a as usize].clone();
        let Some(groups) =
            group_targets(a, &targets, c, ext, &bp_adj, &holder, &sets, &bp_has, rng)
        else {
            return Err(GraphError::InfeasibleParameters(format!(
                "could not find a loophole-free edge assignment for clique {a}"
            )));
        };
        // Commit.
        for (j, g) in groups.iter().enumerate() {
            for &t in g {
                holder.insert((a, t), j as u32);
            }
        }
        sets[a as usize] = groups;
        let _ = assigned;
    }

    // Materialize graph edges: clique k occupies vertices k*c..(k+1)*c.
    let mut external = Vec::with_capacity(blueprint.len());
    for &(l, r) in blueprint {
        let a = l;
        let b = (half + r as usize) as u32;
        let ua = holder[&(a, b)];
        let ub = holder[&(b, a)];
        external.push((NodeId(a * c as u32 + ua), NodeId(b * c as u32 + ub)));
    }
    Ok(external)
}

/// Partitions `targets` into `c` groups of size `ext` with no conflicting
/// pair sharing a group, by local search: start from a random partition and
/// repeatedly swap members across groups while the number of conflicting
/// co-located pairs decreases.
#[allow(clippy::too_many_arguments)]
fn group_targets(
    a: u32,
    targets: &[u32],
    c: usize,
    ext: usize,
    bp_adj: &[Vec<u32>],
    holder: &std::collections::HashMap<(u32, u32), u32>,
    sets: &[Vec<Vec<u32>>],
    bp_has: &impl Fn(u32, u32) -> bool,
    rng: &mut StdRng,
) -> Option<Vec<Vec<u32>>> {
    let pair_conflict = |x: u32, y: u32| {
        creates_conflict(a, &[x], y, bp_adj, holder, sets, bp_has)
            || creates_conflict(a, &[y], x, bp_adj, holder, sets, bp_has)
    };
    let group_cost = |g: &[u32]| {
        let mut cost = 0usize;
        for (i, &x) in g.iter().enumerate() {
            for &y in &g[i + 1..] {
                if pair_conflict(x, y) {
                    cost += 1;
                }
            }
        }
        cost
    };
    for _restart in 0..8 {
        let mut shuffled = targets.to_vec();
        shuffled.shuffle(rng);
        let mut groups: Vec<Vec<u32>> = shuffled.chunks(ext).map(<[u32]>::to_vec).collect();
        debug_assert_eq!(groups.len(), c);
        let mut costs: Vec<usize> = groups.iter().map(|g| group_cost(g)).collect();
        let mut total: usize = costs.iter().sum();
        if ext == 1 {
            return Some(groups); // singleton groups cannot conflict
        }
        for _iter in 0..20_000 {
            if total == 0 {
                return Some(groups);
            }
            // Pick a conflicted group and try swapping one member with a
            // member of a random other group.
            let gi = (0..groups.len())
                .filter(|&i| costs[i] > 0)
                .max_by_key(|&i| costs[i])
                .expect("total > 0 implies a conflicted group");
            let gj = rng.gen_range(0..groups.len());
            if gi == gj {
                continue;
            }
            let pi = rng.gen_range(0..groups[gi].len());
            let pj = rng.gen_range(0..groups[gj].len());
            let (old_i, old_j) = (costs[gi], costs[gj]);
            let (vi, vj) = (groups[gi][pi], groups[gj][pj]);
            groups[gi][pi] = vj;
            groups[gj][pj] = vi;
            let (new_i, new_j) = (group_cost(&groups[gi]), group_cost(&groups[gj]));
            if new_i + new_j < old_i + old_j
                || (new_i + new_j == old_i + old_j && rng.gen_bool(0.3))
            {
                costs[gi] = new_i;
                costs[gj] = new_j;
                total = total + new_i + new_j - old_i - old_j;
            } else {
                groups[gi][pi] = vi;
                groups[gj][pj] = vj;
            }
        }
    }
    None
}

/// Would adding target `t` to the partial set `s` of a vertex in clique `a`
/// create a forbidden sharing pattern?
#[allow(clippy::too_many_arguments)]
fn creates_conflict(
    a: u32,
    s: &[u32],
    t: u32,
    bp_adj: &[Vec<u32>],
    holder: &std::collections::HashMap<(u32, u32), u32>,
    sets: &[Vec<Vec<u32>>],
    bp_has: &impl Fn(u32, u32) -> bool,
) -> bool {
    let set_of = |x: u32, towards: u32| -> Option<&Vec<u32>> {
        holder
            .get(&(x, towards))
            .map(|&j| &sets[x as usize][j as usize])
    };
    for &b in s {
        // Opposite corner: some clique cc adjacent to both b and t already
        // pairs {b, t} (4-cycle a-b-cc-t with two opposite shares).
        let (mut i, mut j) = (0, 0);
        let (nb, nt) = (&bp_adj[b as usize], &bp_adj[t as usize]);
        while i < nb.len() && j < nt.len() {
            match nb[i].cmp(&nt[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let cc = nb[i];
                    if cc != a {
                        if let Some(hb) = holder.get(&(cc, b)) {
                            if holder.get(&(cc, t)) == Some(hb) {
                                return true;
                            }
                        }
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        // Adjacent corner via b: b's vertex holding {b, a} also targets some
        // z adjacent to t (4-cycle a-b-z-t sharing at corners a and b).
        if let Some(sb) = set_of(b, a) {
            for &z in sb {
                if z != a && bp_has(z, t) {
                    return true;
                }
                // All-sharing 6-cycle a-b-z-w-y-t: corners b, z, w, y, t all
                // share; probe the chain through assigned cliques.
                if z != a {
                    if let Some(sz) = set_of(z, b) {
                        for &w in sz {
                            if w == b {
                                continue;
                            }
                            if let Some(sw) = set_of(w, z) {
                                for &y in sw {
                                    if y == z {
                                        continue;
                                    }
                                    if let Some(st) = set_of(t, a) {
                                        if y != a && st.contains(&y) {
                                            return true;
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        // Adjacent corner via t (mirror case).
        if let Some(st) = set_of(t, a) {
            for &z in st {
                if z != a && bp_has(z, b) {
                    return true;
                }
            }
        }
    }
    false
}

/// Removes every non-clique even cycle of length 4 or 6 by reassigning
/// external edges between clique-mates.
fn repair_short_cycles(asm: &mut Assembly, rng: &mut StdRng) -> Result<(), GraphError> {
    for _ in 0..500 {
        let graph = asm.build_graph()?;
        let Some(cycle) = find_short_loophole_cycle(&graph, &asm.clique_of) else {
            return Ok(());
        };
        // Pick an external edge on the cycle and hand one of its endpoints'
        // external edges to a random clique-mate (swapping one back).
        let mut ext_on_cycle: Vec<(NodeId, NodeId)> = Vec::new();
        for i in 0..cycle.len() {
            let (u, v) = (cycle[i], cycle[(i + 1) % cycle.len()]);
            if asm.clique_of[u.index()] != asm.clique_of[v.index()] {
                ext_on_cycle.push((u, v));
            }
        }
        let &(u, _v) = ext_on_cycle
            .choose(rng)
            .expect("loophole cycles contain at least one external edge");
        let cid = asm.clique_of[u.index()] as usize;
        let u2 = *asm.cliques[cid].choose(rng).expect("cliques are nonempty");
        if u2 == u {
            continue;
        }
        // Collect indices of external edges incident to u and to u2.
        let idx_u: Vec<usize> = asm
            .external
            .iter()
            .enumerate()
            .filter(|(_, &(a, b))| a == u || b == u)
            .map(|(i, _)| i)
            .collect();
        let idx_u2: Vec<usize> = asm
            .external
            .iter()
            .enumerate()
            .filter(|(_, &(a, b))| a == u2 || b == u2)
            .map(|(i, _)| i)
            .collect();
        let &i = idx_u.choose(rng).expect("every vertex has external edges");
        let &j = idx_u2.choose(rng).expect("every vertex has external edges");
        let swap_endpoint = |edge: &mut (NodeId, NodeId), from: NodeId, to: NodeId| {
            if edge.0 == from {
                edge.0 = to;
            } else {
                edge.1 = to;
            }
        };
        let (mut e_i, mut e_j) = (asm.external[i], asm.external[j]);
        swap_endpoint(&mut e_i, u, u2);
        swap_endpoint(&mut e_j, u2, u);
        asm.external[i] = e_i;
        asm.external[j] = e_j;
    }
    Err(GraphError::InfeasibleParameters(
        "short-cycle repair did not converge; parameters too tight".to_string(),
    ))
}

/// Searches for a non-clique even cycle on 4 or 6 vertices that uses at
/// least one inter-clique edge.
///
/// Given the other hard-clique invariants (pairwise-single inter-clique
/// edges, no outside vertex with two neighbors in a clique), these are the
/// only loophole cycles that can exist; see the module documentation.
/// Cost is `O(n · ext² · (Δ·ext)²)` — intended for generation-time repair
/// and test-time verification, not for the large benchmark instances
/// (which use `ext == 1` and need no search).
pub(crate) fn find_short_loophole_cycle(g: &Graph, clique_of: &[u32]) -> Option<Vec<NodeId>> {
    let is_external = |a: NodeId, b: NodeId| clique_of[a.index()] != clique_of[b.index()];
    // Case 0: two external edges between the same clique pair (or a vertex
    // with two neighbors in one clique) close a 4-cycle through two intra
    // edges (or one wedge). Detected separately because no single apex
    // carries two cycle-external edges.
    for u in g.vertices() {
        for &v in g.neighbors(u) {
            if !is_external(u, v) {
                continue;
            }
            for &u2 in g.neighbors(u) {
                if u2 == v || is_external(u, u2) {
                    continue;
                }
                for &v2 in g.neighbors(u2) {
                    if v2 == u || v2 == v || !is_external(u2, v2) {
                        continue;
                    }
                    if clique_of[v2.index()] != clique_of[v.index()] || !g.has_edge(v2, v) {
                        continue;
                    }
                    // u - u2 intra, u2 - v2 external, v2 - v intra, v - u
                    // external: a 4-cycle across one clique pair.
                    let cycle = vec![u, u2, v2, v];
                    if !analysis::is_clique(g, &cycle) {
                        return Some(cycle);
                    }
                }
            }
        }
    }
    for v in g.vertices() {
        let ext_nbrs: Vec<NodeId> = g
            .neighbors(v)
            .iter()
            .copied()
            .filter(|&w| is_external(v, w))
            .collect();
        // Wedge x - v - y over two distinct external edges; search for a
        // path x..y of length 2 or 4 avoiding v, with intra edges never
        // consecutive (consecutive intras would imply two edges between one
        // clique pair, which invariant (3) already excludes).
        for (i, &x) in ext_nbrs.iter().enumerate() {
            for &y in &ext_nbrs[i + 1..] {
                if let Some(mut path) = find_path(g, clique_of, x, y, v) {
                    let mut cycle = vec![v];
                    cycle.append(&mut path);
                    if !analysis::is_clique(g, &cycle) {
                        return Some(cycle);
                    }
                }
            }
        }
    }
    None
}

/// Path from `x` to `y` of length exactly 2 or 4 avoiding `forbidden`, with
/// no two consecutive intra-clique edges. Returns the path vertices from
/// `x` to `y` inclusive.
fn find_path(
    g: &Graph,
    clique_of: &[u32],
    x: NodeId,
    y: NodeId,
    forbidden: NodeId,
) -> Option<Vec<NodeId>> {
    let is_external = |a: NodeId, b: NodeId| clique_of[a.index()] != clique_of[b.index()];
    // Length 2: common neighbor (gives a 4-cycle with the wedge).
    for &z in g.neighbors(x) {
        if z != forbidden && z != y && g.has_edge(z, y) {
            return Some(vec![x, z, y]);
        }
    }
    // Length 4: x - a - b - c - y.
    for &a in g.neighbors(x) {
        if a == forbidden || a == y {
            continue;
        }
        let xa_intra = !is_external(x, a);
        for &b in g.neighbors(a) {
            if b == forbidden || b == x || b == y {
                continue;
            }
            if xa_intra && !is_external(a, b) {
                continue; // two consecutive intra edges
            }
            let ab_intra = !is_external(a, b);
            for &cnode in g.neighbors(b) {
                if cnode == forbidden || cnode == x || cnode == a {
                    continue;
                }
                if ab_intra && !is_external(b, cnode) {
                    continue;
                }
                if !is_external(b, cnode) && !is_external(cnode, y) {
                    continue;
                }
                if g.has_edge(cnode, y) && cnode != y {
                    return Some(vec![x, a, b, cnode, y]);
                }
            }
        }
    }
    None
}

/// Verifies that an instance satisfies all hard-clique invariants
/// (Lemma 9 plus loophole-freeness). Intended for tests; cost grows like
/// the repair search.
///
/// # Errors
///
/// Returns a human-readable description of the first violated invariant.
pub fn verify_hard_instance(inst: &HardCliqueInstance) -> Result<(), String> {
    let g = &inst.graph;
    let delta = inst.delta;
    if !analysis::is_regular(g, delta) {
        return Err("graph is not Δ-regular".into());
    }
    for (k, cl) in inst.cliques.iter().enumerate() {
        if !analysis::is_clique(g, cl) {
            return Err(format!("clique {k} is not a clique"));
        }
        for &v in cl {
            let outside = g
                .neighbors(v)
                .iter()
                .filter(|&&w| inst.clique_of[w.index()] != k as u32)
                .count();
            if outside != inst.external_per_vertex {
                return Err(format!(
                    "vertex {v} has {outside} external edges, expected {}",
                    inst.external_per_vertex
                ));
            }
        }
    }
    // No outside vertex with two neighbors in a clique (Lemma 9.3) —
    // equivalently at most one edge between any clique pair here.
    for v in g.vertices() {
        let mut seen = std::collections::HashSet::new();
        for &w in g.neighbors(v) {
            let cw = inst.clique_of[w.index()];
            if cw != inst.clique_of[v.index()] && !seen.insert(cw) {
                return Err(format!("vertex {v} has two neighbors in clique {cw}"));
            }
        }
    }
    if let Some(cycle) = find_short_loophole_cycle(g, &inst.clique_of) {
        return Err(format!("non-clique short even cycle found: {cycle:?}"));
    }
    Ok(())
}

/// Generates a dense instance where `params.easy` cliques carry a planted
/// loophole, making them *easy* almost-cliques; the rest stay hard.
///
/// # Errors
///
/// Propagates generation errors from [`hard_cliques`] and reports
/// infeasible loophole-planting parameters.
pub fn easy_cliques(params: &EasyCliqueParams) -> Result<HardCliqueInstance, GraphError> {
    let mut inst = hard_cliques(&params.base)?;
    let mut rng = StdRng::seed_from_u64(params.base.seed ^ 0xEA51_EA51);
    plant_loopholes(&mut inst, params.easy, params.kind, &mut rng)?;
    Ok(inst)
}

/// Generates a dense instance mixing hard cliques with both kinds of easy
/// cliques.
///
/// # Errors
///
/// Propagates generation errors from [`hard_cliques`] and reports
/// infeasible loophole-planting parameters.
pub fn mixed_dense(params: &MixedParams) -> Result<HardCliqueInstance, GraphError> {
    let mut inst = hard_cliques(&params.base)?;
    let mut rng = StdRng::seed_from_u64(params.base.seed ^ 0x0515_0D0E);
    plant_loopholes(
        &mut inst,
        params.easy_low_degree,
        LoopholeKind::LowDegree,
        &mut rng,
    )?;
    plant_loopholes(
        &mut inst,
        params.easy_four_cycle,
        LoopholeKind::FourCycle,
        &mut rng,
    )?;
    Ok(inst)
}

fn plant_loopholes(
    inst: &mut HardCliqueInstance,
    count: usize,
    kind: LoopholeKind,
    rng: &mut StdRng,
) -> Result<(), GraphError> {
    if count == 0 {
        return Ok(());
    }
    if count > inst.cliques.len() / 4 {
        return Err(GraphError::InfeasibleParameters(format!(
            "can plant at most {} loopholes, asked for {count}",
            inst.cliques.len() / 4
        )));
    }
    let mut edges: Vec<(u32, u32)> = inst.graph.edges().map(|(u, v)| (u.0, v.0)).collect();
    let mut already: std::collections::HashSet<usize> = inst.planted_easy.iter().copied().collect();
    let mut planted = 0;
    let mut guard = 0;
    while planted < count {
        guard += 1;
        if guard > 10_000 {
            return Err(GraphError::InfeasibleParameters(
                "failed to find loophole planting sites".to_string(),
            ));
        }
        let k = rng.gen_range(0..inst.cliques.len());
        if already.contains(&k) {
            continue;
        }
        match kind {
            LoopholeKind::LowDegree => {
                let cl = &inst.cliques[k];
                let (a, b) = (cl[0], cl[1]);
                edges.retain(|&(x, y)| (x, y) != (a.0.min(b.0), a.0.max(b.0)));
                already.insert(k);
                inst.planted_easy.push(k);
                planted += 1;
            }
            LoopholeKind::FourCycle => {
                // Find external edges (a1,b1) and (a2,c1) out of clique k
                // with b1, c1 in different cliques, and an edge (b2,d) out of
                // b1's clique with d in a 4th clique not yet adjacent to
                // c1's clique. Rewire (a2,c1),(b2,d) -> (a2,b2),(c1,d).
                let cid = |v: u32| inst.clique_of[v as usize];
                let out_k: Vec<(u32, u32)> = edges
                    .iter()
                    .copied()
                    .map(|(x, y)| if cid(x) == k as u32 { (x, y) } else { (y, x) })
                    .filter(|&(x, y)| cid(x) == k as u32 && cid(y) != k as u32)
                    .collect();
                if out_k.len() < 2 {
                    continue;
                }
                let (a1, b1) = out_k[rng.gen_range(0..out_k.len())];
                let (a2, c1) = out_k[rng.gen_range(0..out_k.len())];
                if a1 == a2 || cid(b1) == cid(c1) {
                    continue;
                }
                let bk = cid(b1);
                let out_b: Vec<(u32, u32)> = edges
                    .iter()
                    .copied()
                    .map(|(x, y)| if cid(x) == bk { (x, y) } else { (y, x) })
                    .filter(|&(x, y)| cid(x) == bk && cid(y) != bk)
                    .collect();
                let Some(&(b2, d)) = out_b.iter().find(|&&(b2, d)| {
                    b2 != b1
                        && cid(d) != k as u32
                        && cid(d) != cid(c1)
                        && !clique_pair_adjacent(&edges, &inst.clique_of, cid(c1), cid(d))
                }) else {
                    continue;
                };
                let key = |x: u32, y: u32| (x.min(y), x.max(y));
                let e1 = key(a2, c1);
                let e2 = key(b2, d);
                edges.retain(|&e| e != e1 && e != e2);
                edges.push(key(a2, b2));
                edges.push(key(c1, d));
                already.insert(k);
                already.insert(bk as usize);
                inst.planted_easy.push(k);
                inst.planted_easy.push(bk as usize);
                planted += 1;
            }
        }
    }
    inst.graph = Graph::from_edges(inst.clique_of.len(), edges)?;
    Ok(())
}

fn clique_pair_adjacent(edges: &[(u32, u32)], clique_of: &[u32], ck: u32, cl: u32) -> bool {
    edges.iter().any(|&(x, y)| {
        let (cx, cy) = (clique_of[x as usize], clique_of[y as usize]);
        (cx == ck && cy == cl) || (cx == cl && cy == ck)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> HardCliqueParams {
        HardCliqueParams {
            cliques: 34,
            delta: 16,
            external_per_vertex: 1,
            seed: 42,
        }
    }

    #[test]
    fn blueprint_is_simple_and_regular() {
        let mut rng = StdRng::seed_from_u64(1);
        let edges = bipartite_regular_blueprint(20, 7, &mut rng).unwrap();
        assert_eq!(edges.len(), 140);
        let mut set = std::collections::HashSet::new();
        let mut ldeg = [0usize; 20];
        let mut rdeg = [0usize; 20];
        for &(l, r) in &edges {
            assert!(set.insert((l, r)), "duplicate blueprint edge ({l},{r})");
            ldeg[l as usize] += 1;
            rdeg[r as usize] += 1;
        }
        assert!(ldeg.iter().all(|&d| d == 7));
        assert!(rdeg.iter().all(|&d| d == 7));
    }

    #[test]
    fn blueprint_complete_case() {
        let mut rng = StdRng::seed_from_u64(1);
        let edges = bipartite_regular_blueprint(5, 5, &mut rng).unwrap();
        assert_eq!(edges.len(), 25);
    }

    #[test]
    fn blueprint_infeasible() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(bipartite_regular_blueprint(4, 5, &mut rng).is_err());
    }

    /// Regression for the tight regime `half < 2d` that bypasses the
    /// permutation fast path and exercises Kuhn's augmenting search
    /// directly: the recursive form dereferenced `match_of_right[r]`
    /// with `unwrap` and could blow the thread stack on deep alternating
    /// paths; the iterative form must return a simple regular blueprint
    /// (or a typed error) for every such shape.
    #[test]
    fn tight_regime_blueprints_are_exact_and_regular() {
        for (half, d, seed) in [(9, 7, 77), (16, 15, 3), (64, 63, 9), (33, 32, 5)] {
            let mut rng = StdRng::seed_from_u64(seed);
            assert!(half < 2 * d, "shape must force the exact-matching path");
            let edges = exact_matching_blueprint(half, d, &mut rng)
                .unwrap_or_else(|e| panic!("half={half} d={d}: {e}"));
            assert_eq!(edges.len(), half * d, "half={half} d={d}");
            let mut seen = std::collections::HashSet::new();
            let mut ldeg = vec![0usize; half];
            let mut rdeg = vec![0usize; half];
            for &(l, r) in &edges {
                assert!(seen.insert((l, r)), "duplicate edge ({l},{r})");
                ldeg[l as usize] += 1;
                rdeg[r as usize] += 1;
            }
            assert!(ldeg.iter().all(|&x| x == d), "half={half} d={d}");
            assert!(rdeg.iter().all(|&x| x == d), "half={half} d={d}");
        }
    }

    /// Adversarial chain: left `l` may only use rights `{l, l+1}`, rights
    /// `0..h-1` are matched to their own index, and only right `h-1` is
    /// free, so the augmenting search must walk a path of length `h`. On
    /// a 256 KiB thread stack the recursive form overflowed here; the
    /// explicit-stack form stays flat.
    #[test]
    fn deep_augmenting_paths_do_not_overflow_the_stack() {
        std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                let mut rng = StdRng::seed_from_u64(21);
                let h = 6000usize;
                let mut used = vec![vec![true; h]; h];
                for (l, row) in used.iter_mut().enumerate() {
                    row[l] = false;
                    if l + 1 < h {
                        row[l + 1] = false;
                    }
                }
                let mut match_of_right: Vec<Option<u32>> = (0..h as u32 - 1).map(Some).collect();
                match_of_right.push(None);
                let mut visited = vec![false; h];
                let ok =
                    kuhn_augment(0, &used, &mut match_of_right, &mut visited, &mut rng).unwrap();
                assert!(ok, "the chain has exactly one augmenting path");
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn hard_instance_ext1_verifies() {
        let inst = hard_cliques(&small_params()).unwrap();
        assert_eq!(inst.graph.n(), 34 * 16);
        assert_eq!(inst.graph.max_degree(), 16);
        verify_hard_instance(&inst).unwrap();
    }

    #[test]
    fn hard_instance_ext2_verifies() {
        let inst = hard_cliques(&HardCliqueParams {
            cliques: 320,
            delta: 16,
            external_per_vertex: 2,
            seed: 7,
        })
        .unwrap();
        assert_eq!(inst.graph.max_degree(), 16);
        verify_hard_instance(&inst).unwrap();
    }

    #[test]
    fn circulant_instance_verifies_with_high_diameter() {
        let inst = hard_cliques_with_blueprint(
            &HardCliqueParams {
                cliques: 80,
                delta: 16,
                external_per_vertex: 1,
                seed: 3,
            },
            BlueprintKind::Circulant,
        )
        .unwrap();
        verify_hard_instance(&inst).unwrap();
        // Circulant blueprints give linear diameter, random ones do not.
        assert!(inst.graph.diameter_from(NodeId(0)) >= 5);
    }

    #[test]
    fn hard_instance_deterministic_per_seed() {
        let a = hard_cliques(&small_params()).unwrap();
        let b = hard_cliques(&small_params()).unwrap();
        assert_eq!(a.graph, b.graph);
    }

    #[test]
    fn no_delta_plus_one_clique() {
        let inst = hard_cliques(&small_params()).unwrap();
        assert!(!analysis::has_k_clique(&inst.graph, inst.delta + 1));
    }

    #[test]
    fn odd_clique_count_rejected() {
        let p = HardCliqueParams {
            cliques: 33,
            ..small_params()
        };
        assert!(hard_cliques(&p).is_err());
    }

    #[test]
    fn easy_low_degree_plants_loopholes() {
        let inst = easy_cliques(&EasyCliqueParams {
            base: small_params(),
            easy: 3,
            kind: LoopholeKind::LowDegree,
        })
        .unwrap();
        assert_eq!(inst.planted_easy.len(), 3);
        let low: Vec<_> = inst
            .graph
            .vertices()
            .filter(|&v| inst.graph.degree(v) < inst.delta)
            .collect();
        assert_eq!(low.len(), 6); // two per planted loophole
        for &v in &low {
            assert!(inst
                .planted_easy
                .contains(&(inst.clique_of[v.index()] as usize)));
        }
    }

    #[test]
    fn easy_four_cycle_keeps_regularity_and_creates_cycle() {
        let inst = easy_cliques(&EasyCliqueParams {
            base: small_params(),
            easy: 2,
            kind: LoopholeKind::FourCycle,
        })
        .unwrap();
        assert!(analysis::is_regular(&inst.graph, inst.delta));
        assert!(find_short_loophole_cycle(&inst.graph, &inst.clique_of).is_some());
    }

    #[test]
    fn mixed_dense_has_both() {
        let inst = mixed_dense(&MixedParams {
            base: small_params(),
            easy_low_degree: 2,
            easy_four_cycle: 1,
        })
        .unwrap();
        assert!(inst.planted_easy.len() >= 4);
        assert!(inst
            .graph
            .vertices()
            .any(|v| inst.graph.degree(v) < inst.delta));
    }
}

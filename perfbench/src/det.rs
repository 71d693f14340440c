//! `det-paper`: Theorem 1's deterministic pipeline (Algorithms 1–3) with
//! `Config::paper()` on circulant hard cliques at Δ = 63, one thread.
//!
//! An operation is `color_deterministic` plus validation. The traced
//! operation calls the pipeline's public layer functions in the order
//! the driver composes them, timing each call and reading its rounds off
//! the ledger; the preflight checks that this chain reproduces
//! `color_deterministic` exactly, coloring and ledger total.

use std::sync::Arc;
use std::time::Instant;

use acd::compute_acd;
use delta_core::{
    balanced_matching, classify_cliques, color_deterministic, color_easy_and_loopholes,
    color_hard_cliques_phase4, detect_loopholes, form_slack_triads, sparsify_matching,
    validate_coloring, Config, DeltaColoringError,
};
use graphgen::generators::{hard_cliques_with_blueprint, BlueprintKind, HardCliqueParams};
use graphgen::{Color, Coloring, Graph};
use localsim::{MetricsHub, Probe, RoundLedger};
use primitives::ruling::RulingStyle;

use crate::{corrupt_coloring, hub_readings, ms_since, Instance, Scale, Traced};

pub struct DetPaper {
    graph: Graph,
    config: Config,
    reference: Coloring,
    rounds: u64,
}

/// One timed layer call of the chain: wall time and ledger rounds, under
/// their per-layer metric names.
struct Layer {
    ms_name: &'static str,
    rounds_name: &'static str,
    ms: f64,
    rounds: u64,
}

struct Chain {
    coloring: Coloring,
    ledger: RoundLedger,
    layers: Vec<Layer>,
}

impl Chain {
    /// Times `f` and charges its ledger delta to the layer `names`.
    fn step<T>(
        &mut self,
        names: (&'static str, &'static str),
        f: impl FnOnce(&mut RoundLedger, &mut Coloring) -> Result<T, DeltaColoringError>,
    ) -> Result<T, DeltaColoringError> {
        let before = self.ledger.total();
        let start = Instant::now();
        let out = f(&mut self.ledger, &mut self.coloring)?;
        self.layers.push(Layer {
            ms_name: names.0,
            rounds_name: names.1,
            ms: ms_since(start),
            rounds: self.ledger.total() - before,
        });
        Ok(out)
    }
}

/// The deterministic pipeline as a chain of public layer calls, in the
/// order and with the charges of `delta_core::drive_deterministic`.
fn chain(g: &Graph, config: &Config, probe: &Probe) -> Result<Chain, DeltaColoringError> {
    let mut c = Chain {
        coloring: Coloring::empty(g.n()),
        ledger: RoundLedger::with_probe(probe.clone()),
        layers: Vec::new(),
    };
    let acd = c.step(("acd.ms", "acd.rounds"), |ledger, _| {
        let acd = compute_acd(g, &config.acd);
        ledger.charge_constant("acd computation", acd.rounds);
        Ok(acd)
    })?;
    if !acd.is_dense() {
        return Err(DeltaColoringError::NotDense {
            sparse: acd.sparse.len(),
        });
    }
    let loopholes = c.step(("loophole.ms", "loophole.rounds"), |ledger, _| {
        let loopholes = detect_loopholes(g, &acd.clique_of);
        ledger.charge_constant("loophole detection", loopholes.rounds);
        Ok(loopholes)
    })?;
    let cls = c.step(("classify.ms", "classify.rounds"), |ledger, _| {
        let cls = classify_cliques(g, &acd, &loopholes)?;
        ledger.charge_constant("hard/easy classification", cls.rounds);
        Ok(cls)
    })?;
    if !cls.hard_ids.is_empty() {
        let f2 = c.step(("phase1.ms", "phase1.rounds"), |ledger, _| {
            balanced_matching(
                g,
                &acd,
                &cls,
                config.subcliques,
                config.matching,
                config.heg,
                false,
                ledger,
            )
        })?;
        let f3 = c.step(("phase2.ms", "phase2.rounds"), |ledger, _| {
            sparsify_matching(
                g,
                &acd,
                &cls,
                &f2,
                config.acd.eps,
                config.split_segment,
                ledger,
            )
        })?;
        let triads = c.step(("phase3.ms", "phase3.rounds"), |ledger, _| {
            form_slack_triads(g, &acd, &f3, ledger)
        })?;
        let palette: Vec<Color> = (0..g.max_degree() as u32).map(Color).collect();
        c.step(("phase4.ms", "phase4.rounds"), |ledger, coloring| {
            color_hard_cliques_phase4(
                g,
                &acd,
                &cls,
                &triads,
                &palette,
                coloring,
                config.enforce_paper_bounds,
                ledger,
            )
        })?;
    }
    c.step(("easy.ms", "easy.rounds"), |ledger, coloring| {
        color_easy_and_loopholes(
            g,
            &loopholes,
            config.ruling_r,
            RulingStyle::Deterministic,
            config.threads,
            coloring,
            ledger,
        )
    })?;
    Ok(c)
}

impl DetPaper {
    /// Generates the instance, computes the reference coloring, and runs
    /// the bit-identity preflight.
    ///
    /// # Errors
    ///
    /// Generation failure, an invalid reference, or a preflight mismatch.
    pub fn setup(seed: u64, scale: Scale) -> Result<Self, String> {
        let (cliques, delta, config) = match scale {
            // n = 136 · 63 = 8568.
            Scale::Full => (136, 63, Config::paper()),
            Scale::Tiny => (40, 16, Config::for_delta(16)),
        };
        let config = Config {
            threads: crate::threads_for("det-paper"),
            ..config
        };
        let graph = hard_cliques_with_blueprint(
            &HardCliqueParams {
                cliques,
                delta,
                external_per_vertex: 1,
                seed,
            },
            BlueprintKind::Circulant,
        )
        .map_err(|e| format!("det-paper instance: {e}"))?
        .graph;
        let report = color_deterministic(&graph, &config)
            .map_err(|e| format!("det-paper reference run: {e}"))?;
        let w = DetPaper {
            reference: report.coloring,
            rounds: report.ledger.total(),
            graph,
            config,
        };
        let valid = validate_coloring(&w.graph, &w.reference, delta as u32);
        if !valid.is_ok() {
            return Err(format!("det-paper reference coloring: {valid}"));
        }
        let c = chain(&w.graph, &w.config, &Probe::disabled())
            .map_err(|e| format!("det-paper preflight chain: {e}"))?;
        if c.coloring != w.reference || c.ledger.total() != w.rounds {
            return Err(format!(
                "det-paper preflight: the layer chain differs from color_deterministic \
                 ({} vs {} rounds, colorings equal: {})",
                c.ledger.total(),
                w.rounds,
                c.coloring == w.reference
            ));
        }
        Ok(w)
    }

    fn check(&self, coloring: &mut Coloring, rounds: u64, corrupt: bool) -> bool {
        if corrupt {
            corrupt_coloring(&self.graph, coloring);
        }
        validate_coloring(&self.graph, coloring, self.graph.max_degree() as u32).is_ok()
            && *coloring == self.reference
            && rounds == self.rounds
    }
}

impl Instance for DetPaper {
    fn vertices(&self) -> usize {
        self.graph.n()
    }

    fn rounds(&self) -> u64 {
        self.rounds
    }

    fn run_op(&self, corrupt: bool) -> bool {
        match color_deterministic(&self.graph, &self.config) {
            Ok(mut report) => {
                let rounds = report.ledger.total();
                self.check(&mut report.coloring, rounds, corrupt)
            }
            Err(_) => false,
        }
    }

    fn run_traced(&self, corrupt: bool) -> Traced {
        let hub = Arc::new(MetricsHub::new());
        let probe = Probe::disabled().with_metrics(hub.clone());
        let start = Instant::now();
        let Ok(mut c) = chain(&self.graph, &self.config, &probe) else {
            return Traced::default();
        };
        let validate_start = Instant::now();
        let rounds = c.ledger.total();
        let valid = self.check(&mut c.coloring, rounds, corrupt);
        let validate_ms = ms_since(validate_start);
        let wall_ms = ms_since(start);

        let layer_rounds: u64 = c.layers.iter().map(|l| l.rounds).sum();
        let layer_ms: f64 = c.layers.iter().map(|l| l.ms).sum::<f64>() + validate_ms;
        let mut readings = vec![
            ("validate.ms", validate_ms),
            ("layers.unattributed_ms", wall_ms - layer_ms),
        ];
        for l in &c.layers {
            readings.push((l.ms_name, l.ms));
            readings.push((l.rounds_name, l.rounds as f64));
        }
        readings.extend(hub_readings(&hub));
        Traced {
            ok: valid && layer_rounds == self.rounds,
            wall_ms,
            readings,
        }
    }
}

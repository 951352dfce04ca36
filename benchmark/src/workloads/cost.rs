//! `cost-sweep`: the eleven `experiments all` targets, rendered in-process
//! and byte-compared with `results_full.txt`. The work is npu lowering
//! and trace replay, the memprot cost engines and the sim cache model —
//! no functional crypto at all, so a functional-plane change should leave
//! this workload unchanged.

use super::{PairRun, UnitRun, Workload};
use crate::spans::{Probe, Tracer, REPLAY, TRACE_BUILD};
use std::time::Instant;
use tnpu_bench::experiments::{self, model_list, FIGURES_EXPERIMENT, FIGURE_SCHEMES};
use tnpu_bench::{ablations, sweep, tables};
use tnpu_core::{RunResult, RunSpec};
use tnpu_memprot::build_engine;
use tnpu_npu::NpuConfig;

/// What `experiments --threads 1 all` prints.
const GOLDEN: &str = include_str!("../../../results_full.txt");

/// The targets `all` expands to, in output order.
const TARGETS: [&str; 11] = [
    "table2",
    "table3",
    "fig4",
    "fig5",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "vtable",
    "hwcost",
    "ablations",
];

/// NPU counts the figure sweep covers when Fig. 16 is among the targets.
const NPU_COUNTS: [usize; 3] = [1, 2, 3];

/// The `cost-sweep` workload (no seed input: the grid is fixed).
#[derive(Debug)]
pub struct CostSweep {
    models: Vec<&'static str>,
}

impl CostSweep {
    /// Prepare the full 14-model grid.
    #[must_use]
    pub fn prepare() -> Self {
        CostSweep {
            models: model_list(false),
        }
    }
}

/// Render every target exactly as the `experiments` binary prints it.
fn render_all(models: &[&str]) -> String {
    let sweep = experiments::sweep(models, &NPU_COUNTS);
    let mut out = String::new();
    for target in TARGETS {
        let rendered = match target {
            "table2" => tables::table2(),
            "table3" => tables::table3(models),
            "fig4" | "fig14" => tables::fig14(&sweep, models),
            "fig5" => tables::fig5(&sweep, models),
            "fig15" => tables::fig15(&sweep, models),
            "fig16" => tables::fig16(&sweep, models, &NPU_COUNTS),
            "fig17" => tables::fig17(models),
            "vtable" => tables::vtable(models),
            "hwcost" => tables::hwcost(),
            _ => [
                ablations::cache_sensitivity("ncf"),
                ablations::tree_arity("sent"),
                ablations::counter_granularity("ncf"),
                ablations::tree_organization("sent"),
                ablations::integrity_price(&["alex", "df", "sent", "ncf"]),
            ]
            .join("\n"),
        };
        out += &format!("==== {target} ====\n{rendered}\n");
    }
    out
}

impl Workload for CostSweep {
    fn nominal_unit_s(&self) -> f64 {
        2.25
    }

    fn nominal_pair_s(&self) -> f64 {
        4.0
    }

    /// The `--quick` figure sweep: four models at every NPU count.
    fn warm_up(&self) {
        let _ = experiments::sweep_with_threads(1, &model_list(true), &NPU_COUNTS);
    }

    fn unit(&self, _i: usize) -> UnitRun {
        let _ = sweep::take_session();
        let out = render_all(&self.models);
        let cells: Vec<_> = sweep::take_session()
            .into_iter()
            .flat_map(|pool| pool.jobs)
            .map(|job| job.wall)
            .collect();
        let failed = if out == GOLDEN { 0 } else { cells.len() as u64 };
        UnitRun { cells, failed }
    }

    /// The figure sweep (the bulk of the unit): the library's trace-grouped
    /// run, then a replica that lowers each (model, config) group once and
    /// replays every scheme x NPU-count member through a `TimedEngine`.
    fn traced_pair(&self, _i: usize, tracer: &mut Tracer) -> PairRun {
        let start = Instant::now();
        let (swept, _) = experiments::sweep_with_threads(1, &self.models, &NPU_COUNTS);
        let bare = start.elapsed();

        let start = Instant::now();
        let mut cells = 0;
        let mut failed = 0;
        for &model in &self.models {
            for config in NpuConfig::paper_configs() {
                tracer.span(
                    "cell",
                    || format!("{model}/{}", config.name),
                    |t| {
                        let spec = |scheme, npus| {
                            RunSpec::new(FIGURES_EXPERIMENT, model, &config, scheme, npus)
                        };
                        let (trace, _) = t.span(
                            TRACE_BUILD,
                            || "build_trace".into(),
                            |_| spec(FIGURE_SCHEMES[0], NPU_COUNTS[2]).build_trace(NPU_COUNTS[2]),
                        );
                        for scheme in FIGURE_SCHEMES {
                            for npus in NPU_COUNTS {
                                let s = spec(scheme, npus);
                                let engine = t.engine(build_engine(scheme, &s.protection));
                                let (reports, wall) = t.span(
                                    REPLAY,
                                    || s.label(),
                                    |_| trace.replay(engine, &s.config, npus),
                                );
                                let slowest = RunResult { reports, wall }.into_slowest();
                                cells += 1;
                                if slowest != *swept.get(model, &config, scheme, npus) {
                                    failed += 1;
                                }
                            }
                        }
                    },
                );
            }
        }
        PairRun {
            bare,
            traced: start.elapsed(),
            cells,
            failed,
        }
    }
}

//! The multi-tenant serving report: per-scheme tail latency and
//! throughput under contending arrival processes, with context-switch
//! cycles charged through each scheme's protection engine — plus the
//! attack matrix extended to preempted and co-resident contexts and the
//! stale-IOMMU-TLB probe.
//!
//! Each serving cell is an independent job ([`tnpu_core::serving::simulate`])
//! on the deterministic worker pool, as is each extended attack cell, so
//! stdout stays byte-identical at any thread count.

use crate::sweep as pool;
use crate::PoolReport;
use tnpu_core::attacks::{run_cell_on, CellResult, Surface};
use tnpu_core::context::{refusal_taxonomy_probe, stale_tlb_probe};
use tnpu_core::serving::{simulate, ArrivalProcess, Policy, ServeReport, ServeSpec, TrafficMix};
use tnpu_core::Scheme;
use tnpu_memprot::adversary::AttackKind;
use tnpu_models::registry;
use tnpu_npu::NpuConfig;

/// Pool-report name for the serving tables.
pub const SERVE_EXPERIMENT: &str = "serve";

/// Pool-report name for the extended attack matrix.
pub const SURFACES_EXPERIMENT: &str = "serve-attacks";

/// NPUs in the serving pool.
pub const POOL_NPUS: usize = 2;

/// Requests per cell (full / `--quick`).
pub const FULL_REQUESTS: usize = 96;
/// Reduced request count for `--quick` (and the frozen golden).
pub const QUICK_REQUESTS: usize = 24;

/// Victims for the extended attack matrix (full / `--quick`).
pub const FULL_ATTACK_MODELS: [&str; 2] = ["df", "ncf"];
/// Reduced victim set for `--quick`.
pub const QUICK_ATTACK_MODELS: [&str; 1] = ["df"];

/// The default traffic mix: a heavy low-priority conv pipeline, a
/// mid-priority attention model, and an occasional high-priority NCF —
/// enough priority spread for the preemptive policy to matter.
#[must_use]
pub fn default_mix() -> TrafficMix {
    TrafficMix::new("mix", &[("df", 3, 0), ("sent", 2, 1), ("ncf", 1, 2)])
}

/// The two arrival processes the tables sweep.
#[must_use]
pub fn arrivals() -> [ArrivalProcess; 2] {
    [
        ArrivalProcess::Poisson { load_pct: 80 },
        ArrivalProcess::Bursty {
            load_pct: 80,
            burst: 8,
        },
    ]
}

/// Run the serving grid (arrival × policy × scheme) on the session pool.
#[must_use]
pub fn serve(quick: bool) -> Vec<ServeReport> {
    let (reports, report) = serve_with_threads(pool::threads(), quick);
    pool::record(report);
    reports
}

/// [`serve`] at an explicit pool width, returning the timing report
/// instead of recording it — the hook the determinism test uses.
#[must_use]
pub fn serve_with_threads(threads: usize, quick: bool) -> (Vec<ServeReport>, PoolReport) {
    let requests = if quick { QUICK_REQUESTS } else { FULL_REQUESTS };
    let mut jobs = Vec::new();
    for arrival in arrivals() {
        for policy in [Policy::Fcfs, Policy::Preemptive] {
            for scheme in Scheme::ALL {
                jobs.push((arrival, policy, scheme));
            }
        }
    }
    pool::run_ordered_with(
        threads,
        SERVE_EXPERIMENT,
        &jobs,
        |(arrival, policy, scheme)| {
            format!("{}/{}/{}", arrival.label(), policy.label(), scheme.label())
        },
        |(arrival, policy, scheme)| {
            let spec = ServeSpec::new(
                SERVE_EXPERIMENT,
                default_mix(),
                *arrival,
                *policy,
                *scheme,
                &NpuConfig::small_npu(),
                POOL_NPUS,
                requests,
            );
            simulate(&spec)
        },
    )
}

/// Render the serving grid: one block per arrival × policy, one row per
/// scheme, latencies in kilocycles.
#[must_use]
pub fn render_serve(reports: &[ServeReport]) -> String {
    let kc = |cycles: u64| format!("{:.1}", cycles as f64 / 1000.0);
    let mut out = String::from(
        "Multi-tenant serving: tail latency and throughput over the NPU pool\n\
         (latencies in kcycles; switch cycles are context save/restore traffic\n\
         charged through each scheme's own protection engine)\n",
    );
    let mut current = String::new();
    for r in reports {
        let group = format!("{} / {}", r.arrival, r.policy.label());
        if group != current {
            current = group;
            out += &format!("-- {current} --\n");
            out += &format!(
                "{:14} {:>9} {:>9} {:>9} {:>9} {:>13} {:>6} {:>8} {:>12}\n",
                "scheme",
                "p50",
                "p95",
                "p99",
                "mean",
                "thr(req/Mcyc)",
                "disp",
                "preempt",
                "switch-kcyc"
            );
        }
        out += &format!(
            "{:14} {:>9} {:>9} {:>9} {:>9} {:>13.3} {:>6} {:>8} {:>12}\n",
            r.scheme.label(),
            kc(r.latency_percentile(50)),
            kc(r.latency_percentile(95)),
            kc(r.latency_percentile(99)),
            kc(r.mean_latency()),
            r.milli_requests_per_mcycle() as f64 / 1000.0,
            r.dispatches,
            r.preemptions,
            kc(r.switch_cycles),
        );
    }
    out
}

/// Run the extended attack matrix (preempted and co-resident surfaces)
/// on the session pool.
#[must_use]
pub fn attack_surfaces(models: &[&str]) -> Vec<(String, Surface, CellResult)> {
    let (cells, report) = attack_surfaces_with_threads(pool::threads(), models);
    pool::record(report);
    cells
}

/// [`attack_surfaces`] at an explicit pool width.
#[must_use]
pub fn attack_surfaces_with_threads(
    threads: usize,
    models: &[&str],
) -> (Vec<(String, Surface, CellResult)>, PoolReport) {
    let mut jobs = Vec::new();
    for &model in models {
        for surface in [Surface::Preempted, Surface::CoResident] {
            for attack in AttackKind::ALL {
                for scheme in Scheme::ALL {
                    jobs.push((model, surface, scheme, attack));
                }
            }
        }
    }
    let (results, report) = pool::run_ordered_with(
        threads,
        SURFACES_EXPERIMENT,
        &jobs,
        |(model, surface, scheme, attack)| format!("{model}/{surface}/{scheme}/{attack}"),
        |(model, surface, scheme, attack)| {
            let m = registry::model(model).expect("registered model");
            run_cell_on(&m, *scheme, *attack, *surface)
        },
    );
    let cells = jobs
        .into_iter()
        .map(|(model, surface, _, _)| (model.to_owned(), surface))
        .zip(results)
        .map(|((model, surface), cell)| (model, surface, cell))
        .collect();
    (cells, report)
}

/// Render the extended matrix, one table per model × surface, plus the
/// stale-IOMMU-TLB probe verdict.
#[must_use]
pub fn render_surfaces(cells: &[(String, Surface, CellResult)]) -> String {
    let mut out = String::from(
        "Attack matrix on preempted and co-resident contexts (claims must not\n\
         weaken off the resident path; co-resident cells also assert the\n\
         neighbor tenant's output stays clean)\n",
    );
    let mut current = String::new();
    for (model, surface, cell) in cells {
        let group = format!("{model} / {surface}");
        if group != current {
            current = group;
            out += &format!("-- {current} --\n");
            out += &format!("{:22}", "attack");
            for scheme in Scheme::ALL {
                out += &format!(" {:>14}", scheme.label());
            }
            out.push('\n');
        }
        if cell.scheme == Scheme::ALL[0] {
            out += &format!("{:22}", cell.attack.label());
        }
        if cell.matches() {
            out += &format!(" {:>14}", cell.outcome.label());
        } else {
            out += &format!(" {:>14}", format!("!{}", cell.outcome.label()));
        }
        if cell.scheme == *Scheme::ALL.last().expect("non-empty") {
            out.push('\n');
        }
    }
    let bad = cells.iter().filter(|(_, _, c)| !c.matches()).count();
    if bad == 0 {
        out += &format!(
            "all {} extended cells match the paper's claims\n",
            cells.len()
        );
    } else {
        out += &format!("{bad} extended cell(s) CONTRADICT the paper's claims\n");
    }
    // The recycled-NPU hazard: with the shoot-down in place a recycled
    // NPU must re-translate; without it the probe demonstrates the
    // stale-translation hit the bugfix closed.
    let closed = stale_tlb_probe(true) && !stale_tlb_probe(false);
    out += &format!(
        "stale-TLB window on NPU recycle: {}\n",
        if closed {
            "closed (shoot-down forces re-translation; skipping it would leak)"
        } else {
            "OPEN — destroy_context leaks translations across tenants"
        }
    );
    out
}

/// Whether every extended cell matches, the stale-TLB window is closed,
/// and every session misuse is refused by the right layer with the right
/// [`tnpu_core::context::SessionError`] variant — the gate the `serve`
/// binary exits 1 on.
#[must_use]
pub fn all_claims_hold(cells: &[(String, Surface, CellResult)]) -> bool {
    cells.iter().all(|(_, _, c)| c.matches())
        && stale_tlb_probe(true)
        && !stale_tlb_probe(false)
        && refusal_taxonomy_probe()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serving_tables_are_identical_across_thread_counts() {
        let (one, _) = serve_with_threads(1, true);
        let (two, _) = serve_with_threads(2, true);
        assert_eq!(one, two);
        assert_eq!(render_serve(&one), render_serve(&two));
    }

    #[test]
    fn rendered_serving_table_shows_the_cost_of_protection() {
        let (reports, _) = serve_with_threads(2, true);
        // 2 arrivals x 2 policies x 4 schemes.
        assert_eq!(reports.len(), 16);
        for r in &reports {
            if r.scheme == Scheme::Unsecure {
                assert_eq!(r.switch_cycles, 0, "unsecure switches are free");
            } else {
                assert!(r.switch_cycles > 0, "{}: protected switches cost", r.scheme);
            }
        }
        let rendered = render_serve(&reports);
        assert!(rendered.contains("poisson-80 / fcfs"), "{rendered}");
        assert!(rendered.contains("bursty-80x8 / preempt"), "{rendered}");
    }

    #[test]
    fn extended_matrix_is_identical_across_thread_counts_and_clean() {
        let (one, _) = attack_surfaces_with_threads(1, &QUICK_ATTACK_MODELS);
        let (two, _) = attack_surfaces_with_threads(2, &QUICK_ATTACK_MODELS);
        assert_eq!(one, two);
        assert!(all_claims_hold(&one));
        let rendered = render_surfaces(&one);
        assert!(
            rendered.contains("all 56 extended cells match"),
            "{rendered}"
        );
        assert!(rendered.contains("stale-TLB window on NPU recycle: closed"));
    }
}

//! # hsp-experiments — regenerating every table and figure
//!
//! One runner per table/figure of the paper (see DESIGN.md §3 for the
//! index), plus extension experiments (Jaccard hidden-link inference),
//! ablations (lying rate, ε, filter rules, account count) and the gated
//! HS1 sweeps (arms race, freshness, chaos, worker scaling, trace
//! forensics, the soak). The `experiments` binary drives them.

pub mod asciiplot;
pub mod crash_lab;
pub mod ctx;
pub mod exp_extra;
pub mod exp_figures;
pub mod exp_soak;
pub mod exp_sweeps;
pub mod exp_tables;
pub mod exp_threats;
pub mod metro_lab;
pub mod report;
pub mod runner;
pub mod tablefmt;
pub mod trace_audit;

pub use ctx::Ctx;
pub use report::ExperimentReport;
pub use runner::{full_attack, AttackRun, Lab};
pub use trace_audit::{audit_trace, TraceAudit};

/// All experiment ids in presentation order.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "summary",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "jaccard",
    "interaction",
    "birthyear",
    "threats",
    "gplus",
    "countermeasures",
    "verify-search",
    "ablation-lying",
    "ablation-epsilon",
    "ablation-filters",
    "ablation-accounts",
    "arms-race",
    "freshness",
    "chaos-sweep",
    "worker-scaling",
    "trace-forensics",
    "soak",
    "metro",
    "crash-recovery",
];

/// Run one experiment by id. The whole run is timed into the context
/// registry under `experiment_us{experiment="<id>"}`.
pub fn run_experiment(ctx: &mut Ctx, id: &str) -> Option<ExperimentReport> {
    let _span =
        hsp_obs::SpanGuard::new(ctx.obs.histogram_with("experiment_us", &[("experiment", id)]));
    Some(match id {
        "summary" => exp_extra::summary(ctx),
        "table1" => exp_tables::table1(ctx),
        "table2" => exp_tables::table2(ctx),
        "table3" => exp_tables::table3(ctx),
        "table4" => exp_tables::table4(ctx),
        "table5" => exp_tables::table5(ctx),
        "table6" => exp_tables::table6(ctx),
        "fig1" => exp_figures::fig1(ctx),
        "fig2" => exp_figures::fig2(ctx),
        "fig3" => exp_figures::fig3(ctx),
        "fig4" => exp_figures::fig4(ctx),
        "jaccard" => exp_extra::jaccard(ctx),
        "threats" => exp_threats::threats(ctx),
        "verify-search" => exp_extra::verify_search(ctx),
        "interaction" => exp_extra::interaction(ctx),
        "birthyear" => exp_extra::birthyear(ctx),
        "gplus" => exp_threats::gplus_attack(ctx),
        "countermeasures" => exp_threats::countermeasures(ctx),
        "ablation-lying" => exp_extra::ablation_lying(ctx),
        "ablation-epsilon" => exp_extra::ablation_epsilon(ctx),
        "ablation-filters" => exp_extra::ablation_filters(ctx),
        "ablation-accounts" => exp_extra::ablation_accounts(ctx),
        "arms-race" => exp_sweeps::arms_race(ctx),
        "freshness" => exp_sweeps::freshness(ctx),
        "chaos-sweep" => exp_sweeps::chaos_sweep(ctx),
        "worker-scaling" => exp_sweeps::worker_scaling(ctx),
        "trace-forensics" => exp_sweeps::trace_forensics(ctx),
        "soak" => exp_soak::soak(ctx),
        "metro" => exp_extra::metro(ctx),
        "crash-recovery" => exp_extra::crash_recovery(ctx),
        _ => return None,
    })
}

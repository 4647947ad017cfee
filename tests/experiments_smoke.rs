//! Smoke-tests for the cheap experiments (the HS1–HS3-scale runs are
//! exercised by the release-mode `experiments` binary and benches).

use hs_profiler::experiments::{run_experiment, Ctx, ALL_EXPERIMENTS};

#[test]
fn policy_matrix_experiments_render() {
    let mut ctx = Ctx::new(false);
    for id in ["table1", "table6"] {
        let report = run_experiment(&mut ctx, id).expect("known experiment");
        assert_eq!(report.id, id);
        assert!(report.text.contains("Friend List"), "{id} text:\n{}", report.text);
        assert!(report.json.is_object() || report.json.is_array());
        assert!(report.printable().contains(&id.to_uppercase()));
    }
}

#[test]
fn unknown_experiment_is_rejected() {
    let mut ctx = Ctx::new(false);
    assert!(run_experiment(&mut ctx, "table99").is_none());
}

#[test]
fn experiment_registry_is_complete_and_unique() {
    // Every table (1–6) and figure (1–4) of the paper has a runner.
    for required in
        ["table1", "table2", "table3", "table4", "table5", "table6", "fig1", "fig2", "fig3", "fig4"]
    {
        assert!(ALL_EXPERIMENTS.contains(&required), "missing experiment {required}");
    }
    let mut ids: Vec<&str> = ALL_EXPERIMENTS.to_vec();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), ALL_EXPERIMENTS.len(), "duplicate experiment ids");
}

/// `--tcp --workers N` drives the crawl's account queues on N threads
/// over TCP too, and Table 4 comes out exactly as in-process.
#[test]
fn table4_over_tcp_with_two_workers_equals_in_process() {
    let direct = run_experiment(&mut Ctx::new(false), "table4").expect("known experiment");
    let mut ctx = Ctx::with_workers(true, 2);
    let tcp = run_experiment(&mut ctx, "table4").expect("known experiment");
    assert_eq!(ctx.obs.snapshot().gauge("crawler_workers"), 2, "--workers must reach the crawl");
    assert_eq!(tcp.text, direct.text);
    assert_eq!(tcp.json, direct.json);
}

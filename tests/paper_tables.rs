//! The paper's evaluation as a regression guard.
//!
//! Every figure and EXP table runs on the discrete-event simulator, in
//! virtual time, from a fixed seed — the §3.1.2 "native simulation" claim —
//! so the text a `pier-harness` `*_table()` function renders is a function
//! of the code.  `docs/baselines/tables/<name>.txt` records that text and
//! each test here renders the table again and compares byte for byte.  A
//! change that moves a hop count, a message total, a recall or an error
//! figure fails here and has to say so by re-recording:
//!
//! ```text
//! PIER_BLESS=1 cargo test --test paper_tables [name]
//! ```

use pier::harness as h;

/// Compare `rendered` with the recorded table of `bench`; on a mismatch,
/// fail with the lines that differ — or, under `PIER_BLESS=1`, record it.
fn check(bench: &str, rendered: &str) {
    let path = format!(
        "{}/docs/baselines/tables/{bench}.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var_os("PIER_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(&path, rendered).unwrap_or_else(|e| panic!("write {path}: {e}"));
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    if rendered == golden {
        return;
    }
    let (want, got): (Vec<_>, Vec<_>) = (golden.lines().collect(), rendered.lines().collect());
    let diff: String = (0..want.len().max(got.len()))
        .filter(|&i| want.get(i) != got.get(i))
        .map(|i| {
            format!(
                "line {}:\n  recorded: {}\n  now:      {}\n",
                i + 1,
                want.get(i).unwrap_or(&"<no such line>"),
                got.get(i).unwrap_or(&"<no such line>")
            )
        })
        .collect();
    panic!(
        "{bench} no longer renders docs/baselines/tables/{bench}.txt\n{diff}\
         if the change is meant, re-record with\n  \
         PIER_BLESS=1 cargo test --test paper_tables {bench}"
    );
}

macro_rules! tables {
    ($($bench:ident => $rendered:expr;)*) => {$(
        #[test]
        fn $bench() {
            check(stringify!($bench), &$rendered);
        }
    )*};
}

tables! {
    fig1_filesharing => h::experiments::fig1_filesharing_table();
    fig2_netmon => h::experiments::fig2_netmon_table();
    join_strategies => h::experiments::join_strategies_table();
    hier_aggregation => h::experiments::hier_aggregation_table();
    dissemination => h::experiments::dissemination_table();
    dht_scalability => h::experiments::dht_scalability_table();
    churn => h::experiments::churn_table();
    congestion_models => h::experiments::congestion_models_table();
    range_dissemination => h::indexes::range_dissemination_table();
    eddy_policies => h::adaptivity::eddy_policies_table();
    adversary_fidelity => h::robustness::adversary_fidelity_table();
    secondary_index => h::indexes::secondary_index_table();
    recursive_queries => h::recursion::recursive_queries_table();
    cq_continuous => h::continuous::cq_continuous_table();
    admission => h::tenants::admission_table();
    chaos => {
        let cfg = h::chaos::ChaosConfig::standard(20, 4);
        h::chaos::chaos_table(&cfg, &h::chaos::run_chaos(&cfg))
    };
    self_monitoring => {
        let cfg = h::self_monitoring::SelfMonitoringConfig::new(24, 30, 11);
        h::self_monitoring::self_monitoring_table(&h::self_monitoring::self_monitoring(&cfg))
    };
    query_profile => {
        let cfg = h::profile::query_profile_config();
        h::profile::query_profile_table(&h::profile::explain_analyze_netmon(&cfg))
    };
    mqo_shared => {
        let mut cfg = h::tenants::ManyTenantsConfig::new(12, 64, 15, 29);
        cfg.events_per_node_per_sec = 16;
        let mut shared = h::tenants::many_tenants(&cfg);
        cfg.sharing = false;
        h::tenants::mqo_shared_table(&mut shared, &mut h::tenants::many_tenants(&cfg))
    };
}

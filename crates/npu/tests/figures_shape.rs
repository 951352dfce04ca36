//! Shape checks for the paper's headline results, on a reduced sweep so
//! the suite stays fast. Beyond the orderings `experiments check` also
//! gates, they assert what it does not: per-model overhead bands, sent's
//! recovery under TNPU, Fig. 5's miss-rate order, Fig. 15's MAC-dominated
//! traffic band, Fig. 16's gap, the encrypt-only bound and small vs large
//! NPU. The full-suite numbers live in EXPERIMENTS.md and come from
//! `experiments all`.

use tnpu_memprot::SchemeKind;
use tnpu_models::registry;
use tnpu_npu::{simulate, simulate_multi, NpuConfig};

fn normalized(model: &str, cfg: &NpuConfig, scheme: SchemeKind) -> f64 {
    let m = registry::model(model).expect("registered");
    let run = simulate(&m, cfg, scheme).total.as_f64();
    let base = simulate(&m, cfg, SchemeKind::Unsecure).total.as_f64();
    run / base
}

/// Fig. 14 shape: unsecure <= tnpu <= baseline, and overheads in the
/// paper's band (a few percent to tens of percent).
#[test]
fn fig14_ordering_and_bands() {
    let small = NpuConfig::small_npu();
    for model in ["alex", "df", "ncf"] {
        let tree = normalized(model, &small, SchemeKind::TreeBased);
        let tnpu = normalized(model, &small, SchemeKind::Treeless);
        assert!(tnpu >= 1.0, "{model}: tnpu {tnpu}");
        assert!(tree >= tnpu, "{model}: tree {tree} vs tnpu {tnpu}");
        assert!(tree < 1.8, "{model}: baseline overhead {tree} out of band");
    }
}

/// Fig. 4/14: sent is the baseline's worst case (embedding gathers), and
/// TNPU recovers most of that loss — the paper's headline example
/// (52.2 % -> 9.4 % degradation).
#[test]
fn sent_is_the_stress_case_and_tnpu_fixes_it() {
    let small = NpuConfig::small_npu();
    let sent_tree = normalized("sent", &small, SchemeKind::TreeBased);
    let sent_tnpu = normalized("sent", &small, SchemeKind::Treeless);
    let alex_tree = normalized("alex", &small, SchemeKind::TreeBased);
    assert!(
        sent_tree > alex_tree + 0.1,
        "sent ({sent_tree:.3}) must stand out vs conv models ({alex_tree:.3})"
    );
    let recovered = (sent_tree - sent_tnpu) / (sent_tree - 1.0);
    assert!(
        recovered > 0.5,
        "tnpu should recover most of sent's overhead, got {recovered:.2}"
    );
}

/// Fig. 5 shape: embedding models show clearly higher counter-cache miss
/// rates than conv models.
#[test]
fn fig5_miss_rate_ordering() {
    let small = NpuConfig::small_npu();
    let miss = |name: &str| {
        let m = registry::model(name).expect("registered");
        simulate(&m, &small, SchemeKind::TreeBased)
            .engine
            .counter_cache
            .miss_rate()
    };
    assert!(miss("sent") > 2.0 * miss("alex"));
    assert!(miss("ncf") > 1.5 * miss("df"));
}

/// Fig. 15 shape: the baseline moves more metadata than TNPU; TNPU's
/// extra traffic is MAC-dominated (~12.5 % + epsilon).
#[test]
fn fig15_traffic_ordering() {
    let small = NpuConfig::small_npu();
    for model in ["alex", "sent"] {
        let m = registry::model(model).expect("registered");
        let unsec = simulate(&m, &small, SchemeKind::Unsecure);
        let tree = simulate(&m, &small, SchemeKind::TreeBased);
        let tnpu = simulate(&m, &small, SchemeKind::Treeless);
        let base_ratio = tree.total_traffic() as f64 / unsec.data_traffic() as f64;
        let tnpu_ratio = tnpu.total_traffic() as f64 / unsec.data_traffic() as f64;
        assert!(
            base_ratio > tnpu_ratio,
            "{model}: {base_ratio:.3} vs {tnpu_ratio:.3}"
        );
        assert!(
            (1.10..1.35).contains(&tnpu_ratio),
            "{model}: tnpu traffic {tnpu_ratio:.3} should be MAC-dominated"
        );
    }
}

/// Fig. 16 shape: TNPU's improvement over the baseline does not shrink as
/// NPUs are added (the shared metadata caches hurt the baseline more).
#[test]
fn fig16_gap_grows_with_npu_count() {
    let small = NpuConfig::small_npu();
    let m = registry::model("ncf").expect("registered");
    let slowest = |scheme, n| {
        simulate_multi(&m, &small, scheme, n)
            .iter()
            .map(|r| r.total.0)
            .max()
            .expect("non-empty") as f64
    };
    let improvement = |n| {
        let u = slowest(SchemeKind::Unsecure, n);
        let b = slowest(SchemeKind::TreeBased, n) / u;
        let t = slowest(SchemeKind::Treeless, n) / u;
        (b - t) / b
    };
    let one = improvement(1);
    let three = improvement(3);
    assert!(
        three >= 0.9 * one,
        "improvement should persist or grow: 1 NPU {one:.3}, 3 NPUs {three:.3}"
    );
}

/// The encryption-only ablation (scalable-SGX-like) bounds TNPU from
/// below: integrity (MACs + versions) is the gap between them.
#[test]
fn encrypt_only_bounds_tnpu() {
    let small = NpuConfig::small_npu();
    let m = registry::model("alex").expect("registered");
    let enc = simulate(&m, &small, SchemeKind::EncryptOnly).total;
    let tnpu = simulate(&m, &small, SchemeKind::Treeless).total;
    let unsec = simulate(&m, &small, SchemeKind::Unsecure).total;
    assert!(enc >= unsec);
    assert!(tnpu > enc, "MACs must cost something over pure encryption");
}

/// Large vs small NPU: the baseline's overhead is larger on the small NPU
/// (21.1 % vs 17.3 % in the paper).
#[test]
fn small_npu_suffers_more() {
    let mut small_sum = 0.0;
    let mut large_sum = 0.0;
    let models = ["alex", "df", "ncf", "sent"];
    for model in models {
        small_sum += normalized(model, &NpuConfig::small_npu(), SchemeKind::TreeBased);
        large_sum += normalized(model, &NpuConfig::large_npu(), SchemeKind::TreeBased);
    }
    assert!(
        small_sum > large_sum,
        "small {small_sum:.3} vs large {large_sum:.3}"
    );
}

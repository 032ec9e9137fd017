//! Pins what parsing resolves and what every cell is keyed on.
//!
//! A warm rerun cannot show that key material is unchanged: `cell_key`
//! folds in the workspace code fingerprint, which every source edit
//! moves. The first test fixes the fingerprint to `"0"×32` instead and
//! digests the keys of all cells of each `scenarios/*.scn` in matrix
//! order, so any change to what a cell is keyed on — a renamed field, a
//! reordered `Debug` rendering, a dropped run parameter — fails here.
//! The second digests the full `Debug` rendering of each parsed spec,
//! plus one spec per kind that sets only required keys, so a changed
//! default fails too.

use dctcp_cache::{Fnv128, KeyBuilder};

use crate::runner::{cell_key, matrix};
use crate::ScenarioSpec;

/// `(scenario name, digest of its cell keys in matrix order)`.
const PINS: &[(&str, &str)] = &[
    ("aqm_baselines", "f6d42ae4bdd4a1dc948d1130df0bced6"),
    ("fattree_ecmp_skew", "12f717aa997843641f45e5b61eb79690"),
    ("fattree_incast", "3ddadd1bbf7eb719a7a6c5554c0f3eef"),
    ("fault_recovery", "26bdbafaf243b71e0e6d73ce8bcba18d"),
    ("fct_churn", "7bcf4ace0b9d041deab8be85b28ad57f"),
    ("fig05_oscillation", "842b4e37b7c78749f5f6453801d7c2d4"),
    ("fig10_12_flow_sweep", "dfa5ba653fe34755891f446a4fd16c58"),
    ("fig13_incast", "ca7bcb63050bc3b10a1cc4d2b8c4adb5"),
    ("fig13_query", "db5b15f5cd4f030e2720d259d4161144"),
    ("fluid_scaleout", "4a1ff62d97434650f9a1353942577c84"),
    ("fluid_xval", "631d902033b3fc6e12ab7d05d214497d"),
    ("linux_dctcp_flaws", "243de9e58d7b461c7ba4b9078e803066"),
    ("threshold_settings", "32f39cedbbb2cd33572719a4310602d6"),
];

/// One scenario per kind with only its required keys.
#[rustfmt::skip]
const MINIMAL: [&str; 6] = [
    "[scenario]\nname = ll\nkind = long_lived\n[run]\nflows = 2\n[marking \"m\"]\nscheme = dctcp\nk = 20 pkts\n",
    "[scenario]\nname = in\nkind = incast\n[run]\nflows = 2\n[marking \"m\"]\nscheme = dctcp\nk = 20 pkts\n",
    "[scenario]\nname = pa\nkind = partition_aggregate\n[run]\nflows = 2\n[marking \"m\"]\nscheme = dctcp\nk = 20 pkts\n",
    "[scenario]\nname = co\nkind = collective\n[workload collective]\npattern = incast\n[run]\nflows = 2\n[marking \"m\"]\nscheme = dctcp\nk = 20 pkts\n",
    "[scenario]\nname = fl\nkind = fluid\n[run]\nflows = 2\n[marking \"m\"]\nscheme = dctcp\nk = 20 pkts\n",
    "[scenario]\nname = fc\nkind = fct\n[workload fct]\nload = 0.5\n[run]\nflows = 2\n[marking \"m\"]\nscheme = dctcp\nk = 20 pkts\n",
];

/// `(scenario name, digest of the parsed spec's `Debug` rendering)`.
const SPEC_PINS: &[(&str, &str)] = &[
    ("aqm_baselines", "ffdc4eec0b7d04a99165b1b02768e6b9"),
    ("fattree_ecmp_skew", "5b191d3db70f80746fc7504b3b0925c0"),
    ("fattree_incast", "de706a8e59734d62c58ca21c6ddd8d0f"),
    ("fault_recovery", "44d1cc4962abb8c4ad86893ed5140bd2"),
    ("fct_churn", "3aba5502b05525897accd5de9d7f6f48"),
    ("fig05_oscillation", "d31d5ccfd1ff59e482df64d393f02d58"),
    ("fig10_12_flow_sweep", "c5d545961ccfe4eddc417fdb8677b3f3"),
    ("fig13_incast", "3443546a70d3cb2539a936ebef5cb3af"),
    ("fig13_query", "1c7849b34cff9f68d8ac6fcddb073ca1"),
    ("fluid_scaleout", "592d482bd1507ee93548707df785a6f8"),
    ("fluid_xval", "df3efae50c6fb05613b3e70c99f23a7b"),
    ("linux_dctcp_flaws", "6945df17db7cce5cd138dc62efedfe62"),
    ("threshold_settings", "bd8eb3e9464f6b7dfa66c773bd57b910"),
    ("ll", "192d7b0b59e32e87f511c0b04982c487"),
    ("in", "807bebabe0cc1eabc6fd7f486ccd9ad6"),
    ("pa", "c08fdceb79b378b5d111539ef53f0b79"),
    ("co", "84948e21421418459955f7797d5f8567"),
    ("fl", "b8ad276befd5545882086708aa6ecf01"),
    ("fc", "41ec8cf37a2cc3211680831d2846517c"),
];

fn scenario_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

#[test]
fn parsing_keeps_every_resolved_value() {
    let mut specs: Vec<ScenarioSpec> = crate::list_scenarios(&scenario_dir())
        .unwrap()
        .iter()
        .map(|p| ScenarioSpec::load(p).unwrap())
        .collect();
    specs.extend(MINIMAL.map(|src| ScenarioSpec::parse(src).unwrap()));
    let digests: Vec<(String, String)> = specs
        .iter()
        .map(|spec| {
            let mut h = Fnv128::new();
            h.update(format!("{spec:?}").as_bytes());
            (spec.name.clone(), format!("{:032x}", h.finish()))
        })
        .collect();
    let got: Vec<(&str, &str)> = digests
        .iter()
        .map(|(n, d)| (n.as_str(), d.as_str()))
        .collect();
    assert_eq!(got, SPEC_PINS);
}

#[test]
fn committed_scenarios_keep_their_cell_key_material() {
    let dir = scenario_dir();
    let fingerprint = "0".repeat(32);
    let mut seen = Vec::new();
    for path in crate::list_scenarios(&dir).unwrap() {
        let spec = ScenarioSpec::load(&path).unwrap();
        let mut kb = KeyBuilder::new();
        for cell in matrix(&spec) {
            kb.field("cell", &cell_key(&spec, &cell, &fingerprint).hex());
        }
        seen.push((spec.name.clone(), kb.finish().hex()));
    }
    let got: Vec<(&str, &str)> = seen.iter().map(|(n, d)| (n.as_str(), d.as_str())).collect();
    assert_eq!(got, PINS);
}

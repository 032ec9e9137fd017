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
    ("aqm_baselines", "e33a0d3e3a3c9b0ef0264ae99b6c1991"),
    ("fattree_ecmp_skew", "d7a62b0be156ee60bbed04915625c79c"),
    ("fattree_incast", "b1ef8c44bcaf44333e9559504f2a26b3"),
    ("fault_recovery", "6e1014664c3a9ac7fb2bf170d013d01a"),
    ("fct_churn", "d677cce8083b2a9bb0d7e85466f12464"),
    ("fig05_oscillation", "c52a4be3565bc0349cb786744c1fbb34"),
    ("fig10_12_flow_sweep", "0e4f827457c3f3a52b5868fce6c1e43b"),
    ("fig13_incast", "154ea3513a507bbc8c999e42980dfa77"),
    ("fig13_query", "24f0860cf7f7f71fa5a4e005e0298339"),
    ("fluid_scaleout", "674bbd4c1e40de0239c99892511d81f4"),
    ("fluid_xval", "806e2c7e04bc6e9e38bf0e71c8717847"),
    ("linux_dctcp_flaws", "d53652d0038034d8129e8160ca3bde2c"),
    ("threshold_settings", "a93eae2ceb2e5da09e284c9728c2d8b8"),
    ("ll", "79c2c3781b279bac8a67379ab8294f53"),
    ("in", "3eb526b2fd3bd03eafe5ee0d67da557e"),
    ("pa", "474da78d2a0f33ee256db367346ef919"),
    ("co", "321efe595d83ca1e84fe597f5cabc973"),
    ("fl", "e09c095179200e712dadfc99a4468301"),
    ("fc", "989ce2e49526d039d77c6fabb33ea0c0"),
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

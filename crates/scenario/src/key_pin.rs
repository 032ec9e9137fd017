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
    ("aqm_baselines", "15c014572493d76e74771c08624cb6a8"),
    ("fattree_ecmp_skew", "44a1bdd11248649f9ad76b7430eff21d"),
    ("fattree_incast", "9c57ab30247d7653547fb3626b973b96"),
    ("fault_recovery", "969a53b507757e82dc0ef795e1dce791"),
    ("fct_churn", "11e923a125f33172a256f47a2c8ec4ef"),
    ("fig05_oscillation", "06c1acc24680b4277866890759a8b5f5"),
    ("fig10_12_flow_sweep", "a5f88cfc8c4f1f01c5a39f2b48f5a960"),
    ("fig13_incast", "9f29af8cc6cbd522bc9a1e5be7114c4a"),
    ("fig13_query", "f788a504982087cd5850ee1eda8881b4"),
    ("fluid_scaleout", "c68bbbd99c8062b6e297074feafe6125"),
    ("fluid_xval", "42a3a5e4529279108cee4fe9b2c00a6a"),
    ("linux_dctcp_flaws", "b19f560a2fa56feee055c48b944e9d86"),
    ("threshold_settings", "6c148704cec36a7a0bba401f659903ed"),
    ("ll", "eff6c0bbab8234d6ceca46f59b0785de"),
    ("in", "119ef3f9f97982c168e741cb233733b5"),
    ("pa", "fbebcc537ec161d326a5b2c4dc95dfa4"),
    ("co", "4ca8834979ee39def3dd31bfe83a647e"),
    ("fl", "0ae92f0bb6a8234eecce281c6ee7bd3c"),
    ("fc", "316d5817c456ba36fefc028a47aabcaf"),
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

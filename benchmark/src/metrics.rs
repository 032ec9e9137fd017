//! The metric vocabulary. `BENCHMARK.json` declares exactly these names
//! (a self-test holds the two together), later issues cite them, and a
//! run may set no name that is not listed here.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::stats::Summary;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the simulator sees, measured with tracing off. Every
/// workload reports every one of them; all are host-side (wall-clock)
/// quantities.
pub const END_TO_END: &[Def] = &[
    lo("wall_s", "s"),
    hi("work_per_sec", "1/s"),
    lo("setup_s", "s"),
    lo("peak_rss_mb", "MB"),
];

/// What single layers do, measured in the traced run. A workload that
/// never enters a layer reports that layer's counts and times as an
/// exact 0.
pub const PER_LAYER: &[Def] = &[
    // Whole-run rates and shares in the units later issues cite.
    hi("sim_pkts_per_sec", "1/s"),
    hi("flows_per_sec", "1/s"),
    hi("points_per_sec", "1/s"),
    lo("failed_share", "share"),
    hi("envelopes_held_share", "share"),
    // core
    lo("core.marking.ns_per_decision.dctcp", "ns"),
    lo("core.marking.ns_per_decision.dt_dctcp", "ns"),
    lo("core.marking.ns_per_decision.pie", "ns"),
    lo("core.alpha.ns_per_update", "ns"),
    // sim: probes
    lo("sim.forward.ns_per_pkt_hop", "ns"),
    lo("sim.timers.ns_per_set_cancel", "ns"),
    lo("sim.queue.ns_per_offer_pop.droptail", "ns"),
    lo("sim.queue.ns_per_offer_pop.dctcp", "ns"),
    lo("sim.queue.ns_per_offer_pop.dt_dctcp", "ns"),
    lo("sim.flow_table.ns_per_acquire_release", "ns"),
    lo("sim.routes.ns_per_select", "ns"),
    lo("sim.topology.fattree_build_ms", "ms"),
    // sim: per workload, from public counters
    lo("sim.events", "count"),
    lo("sim.events_per_pkt", "events/pkt"),
    hi("sim.events_per_sec", "1/s"),
    lo("sim.allocs_per_event", "allocs/event"),
    lo("sim.queue.max_depth_pkts", "pkts"),
    lo("sim.queue.marks", "count"),
    lo("sim.queue.drops", "count"),
    hi("sim.shard.speedup_2", "x"),
    // tcp
    lo("tcp.sender.ns_per_ack", "ns"),
    lo("tcp.sender.ns_per_ack_ece", "ns"),
    lo("tcp.receiver.ns_per_data_inorder", "ns"),
    lo("tcp.sender.ns_per_dupack_recovery", "ns"),
    lo("tcp.receiver.ns_per_data_ooo", "ns"),
    lo("tcp.sender.ns_per_reset", "ns"),
    lo("tcp.acks", "count"),
    lo("tcp.retransmits", "count"),
    lo("tcp.rtos", "count"),
    lo("tcp.slow_path_share", "share"),
    // stats
    lo("stats.sketch.ns_per_record", "ns"),
    lo("stats.sketch.us_per_quantile", "us"),
    lo("stats.time_weighted.ns_per_update", "ns"),
    lo("stats.oscillation.us_per_series", "us"),
    // workloads
    lo("workloads.instantiate_ms", "ms"),
    lo("workloads.report_ms", "ms"),
    lo("workloads.churn.backlog_peak", "count"),
    hi("workloads.churn.flows_started", "count"),
    // fluid / control
    lo("fluid.dde.ns_per_step", "ns"),
    lo("fluid.ode.ns_per_step", "ns"),
    lo("fluid.sweep.ms_per_point", "ms"),
    lo("control.df.ns_per_eval", "ns"),
    lo("control.nyquist.us_per_analyze", "us"),
    // scenario
    lo("scenario.parse.us_per_file", "us"),
    lo("scenario.render.us_per_artifact", "us"),
    lo("scenario.artifact_parse.us_per_artifact", "us"),
    lo("scenario.check.us_per_artifact", "us"),
    lo("scenario.kind_wall_s.long_lived", "s"),
    lo("scenario.kind_wall_s.incast", "s"),
    lo("scenario.kind_wall_s.partition_aggregate", "s"),
    lo("scenario.kind_wall_s.collective", "s"),
    lo("scenario.kind_wall_s.fct", "s"),
    lo("scenario.kind_wall_s.fluid", "s"),
    lo("scenario.cell_wall_ms.p50", "ms"),
    lo("scenario.cell_wall_ms.p85", "ms"),
    lo("scenario.cell_wall_ms.max", "ms"),
    // cache
    lo("cache.put.us_per_entry", "us"),
    lo("cache.get.us_per_hit", "us"),
    lo("cache.get.us_per_miss", "us"),
    lo("cache.key.ns_per_field", "ns"),
    lo("cache.warm_rerun_ms", "ms"),
    hi("cache.hits", "count"),
    lo("cache.misses", "count"),
    // parallel
    lo("parallel.par_map.us_per_item_overhead", "us"),
    hi("parallel.speedup_2t", "x"),
    lo("parallel.straggler_share", "share"),
    // trace / rng
    lo("trace.tracer.ns_per_record", "ns"),
    lo("trace.oracle.ns_per_event", "ns"),
    lo("trace.sim_overhead_x", "x"),
    lo("rng.pcg32.ns_per_u32", "ns"),
    // the benchmark itself
    lo("bench.calib_ns", "ns"),
    hi("bench.cores", "count"),
    lo("bench.trace_overhead_x", "x"),
    lo("bench.unattributed_share", "share"),
];

/// The workloads, in run order, with the reason each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "long_lived",
        "steady-state fast path: calendar queue, marking decision, link tx, in-order TCP; no churn, loss, ECMP or sketch",
    ),
    (
        "incast",
        "same sim/tcp layers off the fast path: synchronized bursts, drops, RTOs, reassembly, many short simulations",
    ),
    (
        "fct_churn",
        "open-loop Poisson churn at load 0.8: flow set-up/teardown, flow table, sender reset, sketch, far-future timers",
    ),
    (
        "fattree",
        "k=4 fat-tree collectives: five queue hops and an ECMP select per packet, so forwarding dominates over TCP",
    ),
    (
        "fluid_sweep",
        "DDE/ODE fluid models and DF analysis only: bypasses the packet engine, moves only on fluid/control changes",
    ),
    (
        "repro_matrix",
        "the user's command: cold repro --all on the frozen 13-scenario matrix at 2 threads, then warm all-hit reruns",
    ),
];

/// True for names the contract accepts: 1–64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Refuses to go on when any declared name falls outside the accepted
/// alphabet or is declared twice.
pub fn check_names() -> Result<(), String> {
    let mut seen = std::collections::BTreeSet::new();
    let names = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|d| d.name)
        .chain(WORKLOADS.iter().map(|w| w.0));
    for name in names {
        if !valid_name(name) {
            return Err(format!("name `{name}` falls outside [A-Za-z0-9_.-]"));
        }
        if !seen.insert(name) {
            return Err(format!("name `{name}` is declared twice"));
        }
    }
    Ok(())
}

/// The values one run reports, keyed by declared name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, Summary>,
}

impl Metrics {
    /// Records a sampled metric.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not declared for this kind of run or was
    /// already set: both are bugs in the benchmark, and an undeclared
    /// name must never reach the output.
    pub fn set(&mut self, name: &str, value: Summary) {
        let def = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared in metrics.rs"));
        let fresh = self.values.insert(def.name, value).is_none();
        assert!(fresh, "metric `{name}` set twice");
    }

    /// Records a metric that was counted or computed once.
    pub fn set_exact(&mut self, name: &str, value: f64) {
        self.set(name, Summary::exact(value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|s| s.value)
    }

    /// The recorded values in declaration order, restricted to `defs`.
    pub fn measured<'a>(
        &'a self,
        defs: &'a [Def],
    ) -> impl Iterator<Item = (&'a Def, Summary)> + 'a {
        defs.iter()
            .filter_map(|d| self.values.get(d.name).map(|s| (d, *s)))
    }

    /// The recorded values of `defs` as `{name: {value, unit, q1, q3,
    /// n}}`: how result files carry metrics.
    pub fn to_json(&self, defs: &[Def]) -> Json {
        Json::obj(self.measured(defs).map(|(d, s)| {
            (
                d.name,
                Json::obj([
                    ("value", Json::Num(s.value)),
                    ("unit", Json::str(d.unit)),
                    ("q1", Json::Num(s.q1)),
                    ("q3", Json::Num(s.q3)),
                    ("n", Json::Num(s.n as f64)),
                ]),
            )
        }))
    }

    /// Records every metric of an object written by [`Metrics::to_json`].
    pub fn merge_json(&mut self, metrics: &Json) -> Result<(), String> {
        let Json::Obj(map) = metrics else {
            return Err("metrics are not a JSON object".into());
        };
        for (name, j) in map {
            let num = |key: &str| {
                j.get(key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("metric `{name}` has no `{key}`"))
            };
            let summary = Summary {
                value: num("value")?,
                q1: num("q1")?,
                q3: num("q3")?,
                n: num("n")? as usize,
            };
            self.set(name, summary);
        }
        Ok(())
    }

    /// Names recorded that `defs` does not list (an end-to-end run that
    /// set a per-layer name, or the reverse).
    pub fn outside<'a>(&'a self, defs: &'a [Def]) -> Vec<&'static str> {
        self.values
            .keys()
            .copied()
            .filter(|k| defs.iter().all(|d| d.name != *k))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_are_valid_and_unique() {
        check_names().unwrap();
        assert_eq!(WORKLOADS.len(), 6);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Better::Lower));
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn name_alphabet_is_enforced() {
        for ok in [
            "wall_s",
            "sim.queue.ns_per_offer_pop.dt_dctcp",
            "9lives",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "µs", long.as_str()] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_names_cannot_be_set() {
        Metrics::default().set_exact("sim.made_up", 1.0);
    }

    #[test]
    fn metrics_survive_the_result_file_format() {
        let mut m = Metrics::default();
        m.set_exact("sim.events", 7.0);
        let sampled = crate::stats::summarize(&[3.0, 1.0, 2.0, 5.0]);
        m.set("tcp.sender.ns_per_ack", sampled);
        let written = Json::parse(&m.to_json(PER_LAYER).render()).unwrap();
        let mut read = Metrics::default();
        read.merge_json(&written).unwrap();
        assert_eq!(read.get("sim.events"), Some(7.0));
        let back: Vec<_> = read.measured(PER_LAYER).collect();
        assert_eq!(back.len(), 2);
        assert_eq!(back[1].1, sampled);
        assert!(m.to_json(END_TO_END).render() == "{}");
        assert!(read.merge_json(&Json::Num(1.0)).is_err());
    }

    #[test]
    fn units_and_reasons_fit_the_contract() {
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!((1..=16).contains(&d.unit.len()), "{}", d.name);
            assert!(
                d.unit
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "{}",
                d.name
            );
        }
        for (name, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
        }
    }
}

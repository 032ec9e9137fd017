//! Headline reproduction checks across the whole stack, at quick scale:
//! each of the paper's main claims, exercised through the public façade.
//! The paper-scale versions of the packet claims are the envelopes of
//! `scenarios/paper/`.

use dt_dctcp::control::{
    analyze, critical_gain, AnalysisGrid, DescribingFunction, HysteresisDf, PlantParams, RelayDf,
    FIG9_CALIBRATED_GAIN,
};
use dt_dctcp::core::MarkingScheme;
use dt_dctcp::parallel::{available_threads, par_map};
use dt_dctcp::workloads::{
    run_query_rounds, LongLivedReport, LongLivedScenario, QueryWorkload, TestbedConfig,
};

/// K = 40 pkts for DCTCP and (K1, K2) = (30, 50) for DT-DCTCP.
fn schemes() -> [MarkingScheme; 2] {
    [
        MarkingScheme::dctcp_packets(40),
        MarkingScheme::dt_dctcp_packets(30, 50),
    ]
}

/// N long-lived flows on the 10 Gb/s bottleneck at 300 µs RTT (the
/// documented deviation from the printed 100 µs; see EXPERIMENTS.md).
fn long_lived(flows: u32, scheme: MarkingScheme, warmup: f64, duration: f64) -> LongLivedReport {
    LongLivedScenario::builder()
        .flows(flows)
        .marking(scheme)
        .rtt_us(300.0)
        .warmup_secs(warmup)
        .duration_secs(duration)
        .build()
        .expect("valid scenario")
        .run()
}

/// Fig. 9 at quick resolution: the predicted limit-cycle amplitude of
/// `(relay K = 40, hysteresis (30, 50))` at the calibrated gain, `None`
/// where the loci stay disjoint, per flow count.
fn fig9_amplitudes() -> Vec<(u32, [Option<f64>; 2])> {
    let grid = AnalysisGrid {
        w_points: 1500,
        x_points: 600,
        ..AnalysisGrid::default()
    };
    let relay = RelayDf::new(40.0).unwrap();
    let hyst = HysteresisDf::new(30.0, 50.0).unwrap();
    let dfs: [&dyn DescribingFunction; 2] = [&relay, &hyst];
    [10u32, 30, 50, 60, 70, 90, 110]
        .into_iter()
        .map(|n| {
            let plant = PlantParams::paper_defaults(f64::from(n)).with_gain(FIG9_CALIBRATED_GAIN);
            let amplitudes = dfs.map(|df| {
                analyze(&plant, df, &grid)
                    .limit_cycle
                    .map(|lc| lc.amplitude)
            });
            (n, amplitudes)
        })
        .collect()
}

/// The quick Figs. 10–12 sweep: both schemes at N = 10, 40, 70, 100
/// over an 80 ms window, as `(dctcp, dt-dctcp)` pairs in flow-count
/// order.
fn sweep() -> Vec<(LongLivedReport, LongLivedReport)> {
    let jobs: Vec<(MarkingScheme, u32)> = schemes()
        .into_iter()
        .flat_map(|s| [10, 40, 70, 100].map(|n| (s, n)))
        .collect();
    let mut reports = par_map(jobs, available_threads(), |_, (scheme, n)| {
        long_lived(n, scheme, 0.03, 0.08)
    });
    let dt = reports.split_off(reports.len() / 2);
    reports.into_iter().zip(dt).collect()
}

/// Section III observation: DCTCP's queue oscillation grows with the
/// number of flows.
#[test]
fn oscillation_grows_with_flows() {
    let [dc, _] = schemes();
    let at10 = long_lived(10, dc, 0.02, 0.05).queue.std;
    let at100 = long_lived(100, dc, 0.02, 0.05).queue.std;
    assert!(
        at100 > 1.5 * at10,
        "queue std must grow with N: {at10:.2} -> {at100:.2}"
    );
}

/// The core claim (Figs. 10–11): DT-DCTCP holds a steadier queue than
/// DCTCP as flows grow.
#[test]
fn dt_dctcp_is_steadier_across_the_sweep() {
    let sweep = sweep();
    // At every sampled N above the baseline, DT's std is at most DCTCP's
    // (allowing a small tolerance at the lowest N where both are tiny).
    let wins = sweep
        .iter()
        .filter(|(dc, dt)| dt.queue.std < dc.queue.std)
        .count();
    assert!(
        wins >= sweep.len() - 1,
        "DT should win std at nearly every N ({wins}/{} wins)",
        sweep.len()
    );
    // And both keep the link saturated.
    for r in sweep.iter().flat_map(|(dc, dt)| [dc, dt]) {
        assert!(r.goodput_bps > 0.9e10 * 0.55, "goodput {}", r.goodput_bps);
    }
}

/// Fig. 12: the congestion-extent estimate α is lower (or equal) under
/// DT-DCTCP — the network is less congested.
#[test]
fn alpha_is_not_higher_under_dt() {
    let sweep = sweep();
    let n = sweep.len() as f64;
    let mean_dc: f64 = sweep.iter().map(|(dc, _)| dc.alpha.mean()).sum::<f64>() / n;
    let mean_dt: f64 = sweep.iter().map(|(_, dt)| dt.alpha.mean()).sum::<f64>() / n;
    assert!(
        mean_dt <= mean_dc + 0.02,
        "mean alpha: dt {mean_dt:.3} should not exceed dc {mean_dc:.3}"
    );
}

/// Theorems 1 & 2 (Fig. 9): the hysteresis tolerates strictly more loop
/// gain before predicting a limit cycle, at every flow count.
#[test]
fn df_analysis_favors_dt_at_every_n() {
    let grid = AnalysisGrid {
        w_points: 1200,
        x_points: 500,
        ..AnalysisGrid::default()
    };
    let relay = RelayDf::new(40.0).unwrap();
    let hyst = HysteresisDf::new(30.0, 50.0).unwrap();
    for n in [10.0, 40.0, 70.0, 110.0] {
        let plant = PlantParams::paper_defaults(n);
        let m_dc = critical_gain(&plant, &relay, &grid).expect("finite margin");
        let m_dt = critical_gain(&plant, &hyst, &grid).expect("finite margin");
        assert!(m_dt > m_dc, "N={n}: {m_dt} !> {m_dc}");
    }
}

/// Fig. 9's onset ordering at the calibrated gain.
#[test]
fn nyquist_onset_ordering() {
    let onset = |i: usize| {
        fig9_amplitudes()
            .into_iter()
            .find(|(_, x)| x[i].is_some())
            .map(|(n, _)| n)
    };
    let dc = onset(0).expect("DCTCP onset");
    let dt = onset(1).expect("DT onset");
    assert!(dt > dc, "onsets: dc {dc}, dt {dt}");
}

/// Every predicted limit cycle swings past the threshold that releases
/// marking: K for the relay, K2 for the hysteresis.
#[test]
fn predicted_amplitudes_exceed_thresholds() {
    for (n, [x_dc, x_dt]) in fig9_amplitudes() {
        if let Some(x) = x_dc {
            assert!(x >= 40.0, "N={n}: relay amplitude {x} below K");
        }
        if let Some(x) = x_dt {
            assert!(x >= 50.0, "N={n}: hysteresis amplitude {x} below K2");
        }
    }
}

/// Fig. 14/15 mechanics: small Incast is healthy; far past the cliff
/// every round stalls on RTO_min and the completion time is ~20x the
/// transfer floor.
#[test]
fn incast_cliff_reproduces_rto_min_stalls() {
    let cfg = TestbedConfig::paper(MarkingScheme::dctcp_bytes(32 * 1024));
    let healthy = run_query_rounds(&cfg, &QueryWorkload::incast(4, 2)).unwrap();
    assert_eq!(healthy.timeout_fraction(), 0.0);
    assert!(healthy.mean_goodput_bps() > 5e8);

    let collapsed = run_query_rounds(&cfg, &QueryWorkload::incast(44, 2)).unwrap();
    assert!(collapsed.timeout_fraction() > 0.5);
    let comps = collapsed.completions();
    if let Some(mean) = comps.mean() {
        assert!(
            mean > 0.15,
            "collapsed completion {mean}s should be near RTO_min (200 ms)"
        );
    }
}

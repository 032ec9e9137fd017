//! The describing-function stability analysis of Section V and the
//! paper's Fig. 9: how much loop gain can each marking scheme tolerate
//! before the Nyquist loci intersect and a queue limit cycle is
//! predicted, and at which flow count does that happen at the
//! calibrated gain?
//!
//! The first table is Fig. 9 (N = 10…150): each scheme's loop-gain
//! margin, and the predicted limit-cycle amplitude at
//! `FIG9_CALIBRATED_GAIN` (`-` where the loci stay disjoint). The
//! second maps the margins over flow count N and EWMA gain g.
//!
//! ```sh
//! cargo run --release --example nyquist_analysis
//! ```

use dt_dctcp::control::{
    analyze, critical_gain, AnalysisGrid, DescribingFunction, HysteresisDf, PlantParams, RelayDf,
    FIG9_CALIBRATED_GAIN,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let relay = RelayDf::new(40.0)?;
    let hyst = HysteresisDf::new(30.0, 50.0)?;

    println!(
        "Fig. 9: loop-gain margin before self-oscillation (K = 40; K1 = 30, K2 = 50) \
         and the predicted limit cycle at the calibrated gain {FIG9_CALIBRATED_GAIN}\n"
    );
    println!(
        "{:>4} | {:>12} | {:>9} | {:>11} | {:>11}",
        "N", "margin DCTCP", "margin DT", "X_dc [pkts]", "X_dt [pkts]"
    );
    let grid = AnalysisGrid::default();
    let dfs: [&dyn DescribingFunction; 2] = [&relay, &hyst];
    let mut onsets = [None, None];
    for n in (10..=150).step_by(5) {
        let plain = PlantParams::paper_defaults(f64::from(n));
        let scaled = plain.with_gain(FIG9_CALIBRATED_GAIN);
        let margins = dfs.map(|df| critical_gain(&plain, df, &grid).unwrap_or(f64::INFINITY));
        let amplitudes = dfs.map(|df| {
            analyze(&scaled, df, &grid)
                .limit_cycle
                .map(|lc| lc.amplitude)
        });
        for (onset, x) in onsets.iter_mut().zip(&amplitudes) {
            if x.is_some() {
                onset.get_or_insert(n);
            }
        }
        let fmt = |x: Option<f64>| x.map_or("-".into(), |x| format!("{x:.1}"));
        println!(
            "{n:>4} | {:>12.2} | {:>9.2} | {:>11} | {:>11}",
            margins[0],
            margins[1],
            fmt(amplitudes[0]),
            fmt(amplitudes[1])
        );
    }
    let [onset_dc, onset_dt] = onsets.map(|o| o.map_or("none".into(), |n: u32| n.to_string()));
    println!(
        "\nOnset of self-oscillation: DCTCP N = {onset_dc}, DT-DCTCP N = {onset_dt} \
         (paper: 60, 70)"
    );

    println!("\nStability map: loop-gain margin over (g, N), higher = more stable\n");
    println!(
        "{:>6} | {:>4} | {:>12} | {:>9} | {:>12}",
        "g", "N", "DCTCP margin", "DT margin", "DT advantage"
    );
    let grid = AnalysisGrid {
        w_points: 1500,
        x_points: 600,
        ..AnalysisGrid::default()
    };
    for g in [1.0 / 64.0, 1.0 / 16.0, 1.0 / 4.0, 1.0] {
        for n in [10.0, 25.0, 40.0, 55.0, 70.0, 100.0, 130.0] {
            let plant = PlantParams {
                g,
                ..PlantParams::paper_defaults(n)
            };
            let [m_dc, m_dt] =
                dfs.map(|df| critical_gain(&plant, df, &grid).unwrap_or(f64::INFINITY));
            println!(
                "{g:>6.4} | {n:>4.0} | {m_dc:>12.2} | {m_dt:>9.2} | {:>+11.0}%",
                (m_dt / m_dc - 1.0) * 100.0
            );
        }
    }
    Ok(())
}

//! The linearized DCTCP plant `G(jω)` (Section V-A of the paper).

use dctcp_core::ParamError;

use crate::Complex;

/// The loop-gain multiplier used to reproduce the paper's Fig. 9
/// *onsets*. Evaluating the paper's printed Eq. (17) verbatim, the
/// `K0·G(jω)` locus never reaches the describing-function critical loci
/// for any flow count (the DCTCP margin bottoms out at ≈ 5.4 near
/// N ≈ 55, exactly where the paper draws its first intersection); this
/// calibration makes both schemes' loci eventually intersect while
/// preserving every scale-free conclusion. See EXPERIMENTS.md.
pub const FIG9_CALIBRATED_GAIN: f64 = 6.5;

/// Network parameters of the linearized fluid model.
///
/// All quantities use the paper's units: capacity in packets/second,
/// round-trip time in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlantParams {
    /// Bottleneck capacity `C` in packets per second.
    pub capacity_pps: f64,
    /// Number of flows `N`.
    pub flows: f64,
    /// Round-trip time `R0` in seconds.
    pub rtt: f64,
    /// DCTCP EWMA gain `g`.
    pub g: f64,
    /// Loop-gain calibration multiplier applied to `P(s)`.
    ///
    /// `1.0` evaluates the paper's printed Eq. (17) verbatim. With the
    /// printed coefficients the scaled locus `K0·G(jω)` never reaches the
    /// relay DF's critical point `−π` for *any* flow count (its
    /// negative-real-axis crossing peaks at ≈ 0.58 near N ≈ 55), so the
    /// intersections drawn in the paper's Fig. 9 require a larger loop
    /// gain. [`crate::critical_gain`] computes the exact multiplier at
    /// which the loci first touch; see EXPERIMENTS.md for the calibration
    /// used to reproduce Fig. 9's onset flow counts.
    pub gain: f64,
}

impl PlantParams {
    /// The paper's simulation setup: 10 Gb/s bottleneck, 1500-byte
    /// packets, 100 µs RTT, `g = 1/16`, with `n` flows.
    pub fn paper_defaults(n: f64) -> Self {
        PlantParams::from_link(10e9, 1500, n, 100e-6, 1.0 / 16.0)
    }

    /// Builds parameters from a link rate in bits/s and a packet size in
    /// bytes.
    pub fn from_link(rate_bps: f64, pkt_bytes: u32, flows: f64, rtt: f64, g: f64) -> Self {
        PlantParams {
            capacity_pps: rate_bps / (8.0 * pkt_bytes as f64),
            flows,
            rtt,
            g,
            gain: 1.0,
        }
    }

    /// Returns the same parameters with a different loop-gain multiplier.
    pub fn with_gain(mut self, gain: f64) -> Self {
        self.gain = gain;
        self
    }

    /// Linearizes at a delay-differential operating point: a standing
    /// queue of `q_star` packets stretches every lag term from `R0` to
    /// the effective round-trip `R* = R0 + q*/C`, which is the delay the
    /// DDE fluid model (`dctcp_fluid::DdeModel`) actually feeds back.
    /// Feed the closed-form fixed-point queue from
    /// `dctcp_fluid::equilibrium` to analyze the loop the scale-out
    /// sweeps integrate; with `q_star = 0` this is the paper's original
    /// `R0` plant.
    pub fn at_operating_point(mut self, q_star: f64) -> Self {
        self.rtt += q_star.max(0.0) / self.capacity_pps;
        self
    }

    /// Checks parameters for positivity.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if any parameter is non-positive or `g` is
    /// not in `(0, 1]`.
    pub fn validate(&self) -> Result<(), ParamError> {
        if self.capacity_pps.is_nan() || self.capacity_pps <= 0.0 {
            return Err(ParamError::new("capacity must be positive"));
        }
        if self.flows.is_nan() || self.flows <= 0.0 {
            return Err(ParamError::new("flow count must be positive"));
        }
        if self.rtt.is_nan() || self.rtt <= 0.0 {
            return Err(ParamError::new("rtt must be positive"));
        }
        if !(self.g > 0.0 && self.g <= 1.0) {
            return Err(ParamError::new("g must be in (0, 1]"));
        }
        if self.gain.is_nan() || self.gain <= 0.0 {
            return Err(ParamError::new("gain must be positive"));
        }
        Ok(())
    }

    /// The per-flow operating window `W0 = R0·C/N` in packets.
    pub fn w0(&self) -> f64 {
        self.rtt * self.capacity_pps / self.flows
    }

    /// The operating-point marking probability `p0 = α0 = √(2/W0)`.
    pub fn alpha0(&self) -> f64 {
        (2.0 / self.w0()).sqrt()
    }

    /// The delay-free plant `P(s)` of Eq. (17):
    ///
    /// ```text
    ///        √(C/2NR0) · (2g/R0 + s) · N/R0
    /// P(s) = ───────────────────────────────────────
    ///        (s + g/R0)(s + N/(R0²C))(s + 1/R0)
    /// ```
    pub fn p_of_s(&self, s: Complex) -> Complex {
        let r0 = self.rtt;
        let n = self.flows;
        let c = self.capacity_pps;
        let g = self.g;
        let k = self.gain * (c / (2.0 * n * r0)).sqrt() * (n / r0);
        let numer = s + 2.0 * g / r0;
        let denom = (s + g / r0) * (s + n / (r0 * r0 * c)) * (s + 1.0 / r0);
        k * numer / denom
    }

    /// The open-loop frequency response `G(jω) = P(jω)·e^{−jωR0}`
    /// (Eq. 18), the loop transfer seen by the marking nonlinearity.
    pub fn g_of_jw(&self, w: f64) -> Complex {
        let p = self.p_of_s(Complex::new(0.0, w));
        p * Complex::polar(1.0, -w * self.rtt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(n: f64) -> PlantParams {
        PlantParams::paper_defaults(n)
    }

    #[test]
    fn paper_defaults_units() {
        let p = params(10.0);
        // 10 Gb/s of 1500 B packets = 833,333 pkt/s.
        assert!((p.capacity_pps - 833_333.333_3).abs() < 1.0);
        assert_eq!(p.rtt, 1e-4);
        assert_eq!(p.g, 1.0 / 16.0);
    }

    #[test]
    fn operating_point() {
        let p = params(10.0);
        // W0 = R0 C / N = 1e-4 * 833333 / 10 ≈ 8.33 packets.
        assert!((p.w0() - 8.3333).abs() < 0.01);
        // alpha0 = sqrt(2/W0) ≈ 0.49.
        assert!((p.alpha0() - (2.0 / p.w0()).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn dc_gain_is_positive_real() {
        let p = params(40.0);
        let g0 = p.p_of_s(Complex::ZERO);
        assert!(g0.im.abs() < 1e-9);
        assert!(g0.re > 0.0, "DC gain {g0} must be positive");
    }

    #[test]
    fn dc_gain_closed_form() {
        // P(0) = sqrt(C/2NR0) * (2g/R0) * (N/R0) / [(g/R0)(N/R0²C)(1/R0)]
        //      = sqrt(C/2NR0) * 2 C R0.
        let p = params(25.0);
        let expected = (p.capacity_pps / (2.0 * p.flows * p.rtt)).sqrt()
            * 2.0
            * p.capacity_pps
            * p.rtt
            * p.rtt;
        let got = p.p_of_s(Complex::ZERO).re;
        assert!(
            (got - expected).abs() / expected < 1e-9,
            "{got} vs {expected}"
        );
    }

    #[test]
    fn magnitude_rolls_off_at_high_frequency() {
        let p = params(40.0);
        let low = p.g_of_jw(1e2).norm();
        let high = p.g_of_jw(1e7).norm();
        assert!(high < low / 100.0, "no roll-off: {low} -> {high}");
    }

    #[test]
    fn delay_only_rotates() {
        let p = params(40.0);
        for w in [1e3, 1e4, 1e5] {
            let without = p.p_of_s(Complex::new(0.0, w)).norm();
            let with = p.g_of_jw(w).norm();
            assert!((without - with).abs() / without < 1e-12);
        }
    }

    #[test]
    fn phase_crossing_shifts_left_then_recedes() {
        // The paper: "K0·G(jω) shifts to the left as N increases". With
        // the printed coefficients the negative-real-axis crossing
        // magnitude grows from N = 10 up to a peak near N ≈ 55 (which is
        // where the paper's Fig. 9 places the first intersection) and
        // then slowly recedes — the linearization's operating point
        // leaves its validity region (α0 ≥ 1) beyond N ≈ 42.
        let cross_mag = |n: f64| -> f64 {
            let p = params(n);
            let mut w = 1e3;
            let mut prev = p.g_of_jw(w);
            let mut best: f64 = 0.0;
            while w < 1e7 {
                let w2 = w * 1.005;
                let z = p.g_of_jw(w2);
                if prev.im.signum() != z.im.signum() && z.re < 0.0 {
                    best = best.max(-z.re);
                }
                prev = z;
                w = w2;
            }
            assert!(best > 0.0, "no crossover found for N = {n}");
            best
        };
        let m10 = cross_mag(10.0);
        let m55 = cross_mag(55.0);
        let m150 = cross_mag(150.0);
        assert!(m10 < m55, "left shift: {m10} !< {m55}");
        assert!(m150 < m55, "recession past the peak: {m150} !< {m55}");
    }

    #[test]
    fn operating_point_queue_stretches_the_delay() {
        let p = params(40.0);
        let shifted = p.at_operating_point(40.0);
        // 40 packets over 833,333 pkt/s adds 48 µs of queueing delay.
        assert!((shifted.rtt - (p.rtt + 40.0 / p.capacity_pps)).abs() < 1e-15);
        // Zero (or clamped negative) queue leaves the plant unchanged.
        assert_eq!(p.at_operating_point(0.0), p);
        assert_eq!(p.at_operating_point(-5.0), p);
        // A longer loop delay slows the predicted dynamics: the phase
        // lag at a fixed frequency grows.
        let w = 1e3;
        let base_phase = p.g_of_jw(w).im.atan2(p.g_of_jw(w).re);
        let q = p.at_operating_point(200.0);
        let shifted_phase = q.g_of_jw(w).im.atan2(q.g_of_jw(w).re);
        assert!(
            shifted_phase < base_phase,
            "{shifted_phase} !< {base_phase}"
        );
    }

    #[test]
    fn validate_rejects_nonsense() {
        let mut p = params(10.0);
        p.flows = 0.0;
        assert!(p.validate().is_err());
        let mut p = params(10.0);
        p.g = 1.5;
        assert!(p.validate().is_err());
        let mut p = params(10.0);
        p.rtt = -1.0;
        assert!(p.validate().is_err());
        assert!(params(10.0).validate().is_ok());
    }
}

//! Fig. 4: jitter-margin stability curves and linear lower bounds for the
//! DC servo `1000/(s^2 + s)` under sampled LQG control.

use csa_control::{
    plants, KernelMode, LqgWeights, StabilityCurve, StabilityCurveBatch, StabilityFit,
};

/// Configuration for the Fig. 4 experiment.
#[derive(Debug, Clone)]
pub struct Fig4Config {
    /// Sampling periods to draw one curve each for (seconds). The paper
    /// shows the 6 ms curve; we add slower variants for the family look.
    pub periods: Vec<f64>,
    /// Latency samples per curve.
    pub points: usize,
}

impl Fig4Config {
    /// Paper-style configuration: h in {6, 9, 12} ms, 40 samples.
    pub fn paper() -> Self {
        Fig4Config {
            periods: vec![0.006, 0.009, 0.012],
            points: 40,
        }
    }

    /// Reduced configuration for smoke tests.
    pub fn quick() -> Self {
        Fig4Config {
            periods: vec![0.006],
            points: 12,
        }
    }
}

/// One curve plus its fitted linear bound.
#[derive(Debug, Clone)]
pub struct Fig4Curve {
    /// Sampling period (seconds).
    pub period: f64,
    /// The stability curve `J_max(L)`.
    pub curve: StabilityCurve,
    /// The linear lower bound `L + a J <= b` (Eq. 5).
    pub fit: StabilityFit,
}

/// Runs the Fig. 4 experiment on the DC servo.
///
/// # Panics
///
/// Panics on structural failures only (the DC servo is stabilizable at
/// all configured periods).
pub fn run_fig4(config: &Fig4Config) -> Vec<Fig4Curve> {
    let plant = plants::dc_servo().expect("valid plant");
    let weights = LqgWeights::output_regulation(&plant, 1e-1, 1e-6);
    // The figure is illustrative, not part of the bit-frozen table
    // surface, so it runs on the fast Hessenberg-sweep margin kernel
    // (tolerance contract in DESIGN.md §10).
    let mut batch = StabilityCurveBatch::new(KernelMode::Fast);
    config
        .periods
        .iter()
        .map(|&h| {
            let (curve, fit) = batch
                .curve_at(&plant, &weights, h, 0.0, config.points)
                .expect("servo stability curve must compute");
            Fig4Curve {
                period: h,
                curve,
                fit,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curves_have_paper_shape() {
        let curves = run_fig4(&Fig4Config::quick());
        assert_eq!(curves.len(), 1);
        let c = &curves[0];
        let pts = c.curve.points();
        // Positive margin at zero latency; zero at the delay margin.
        assert!(pts[0].jitter_margin > 0.0);
        assert!(pts[pts.len() - 1].jitter_margin < 0.35 * pts[0].jitter_margin);
        // The linear bound is valid and below the curve.
        assert!(c.fit.a >= 1.0);
        assert!(c.fit.b > 0.0);
        for p in pts {
            assert!(c.fit.max_jitter(p.latency) <= p.jitter_margin + 1e-12);
        }
        // Scale sanity: the delay margin is a small multiple of h.
        assert!(c.fit.b > 0.5 * c.period && c.fit.b < 20.0 * c.period);
    }

    #[test]
    fn family_of_curves_is_well_formed() {
        let curves = run_fig4(&Fig4Config {
            periods: vec![0.006, 0.012],
            points: 10,
        });
        assert_eq!(curves.len(), 2);
        for c in &curves {
            assert!(c.fit.b > 0.0);
            assert!(c.fit.a >= 1.0);
            // The delay margin stays within the same order of magnitude
            // as the period (no degenerate fits).
            assert!(c.fit.b > 0.1 * c.period && c.fit.b < 20.0 * c.period);
        }
        assert!(curves[0].period < curves[1].period);
    }
}

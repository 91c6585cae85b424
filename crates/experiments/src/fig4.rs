//! Fig. 4: jitter-margin stability curves and linear lower bounds for the
//! DC servo `1000/(s^2 + s)` under sampled LQG control.

use csa_control::{plants, LqgWeights, StabilityCurve, StabilityCurveBatch, StabilityFit};

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

impl Fig4Curve {
    /// The curve's CSV rows (`latency_s,jitter_margin_s,linear_bound_s`,
    /// seconds to 7 decimals), one per sampled latency.
    pub fn csv_rows(&self) -> impl Iterator<Item = String> + '_ {
        self.curve.points().iter().map(|p| {
            format!(
                "{:.7},{:.7},{:.7}",
                p.latency,
                p.jitter_margin,
                self.fit.max_jitter(p.latency)
            )
        })
    }
}

/// Runs the Fig. 4 experiment on the DC servo.
///
/// # Errors
///
/// Propagates design and curve failures (none occur at the configured
/// periods: the DC servo is stabilizable at all of them).
pub fn run_fig4(config: &Fig4Config) -> Result<Vec<Fig4Curve>, csa_control::Error> {
    let plant = plants::dc_servo()?;
    let weights = LqgWeights::output_regulation(&plant, 1e-1, 1e-6);
    let mut batch = StabilityCurveBatch::new();
    config
        .periods
        .iter()
        .map(|&h| {
            let (curve, fit) = batch.curve_at(&plant, &weights, h, 0.0, config.points)?;
            Ok(Fig4Curve {
                period: h,
                curve,
                fit,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a digest of `config`'s CSV rows, each followed by `\n`, in
    /// period order.
    fn csv_digest(config: &Fig4Config) -> u64 {
        let mut h = crate::artifact::Fnv64::default();
        for c in run_fig4(config).unwrap() {
            for row in c.csv_rows() {
                h.write_bytes(row.as_bytes());
                h.write_bytes(b"\n");
            }
        }
        h.finish()
    }

    /// Digests of the `--quick` and paper-config CSV rows, captured from
    /// the `fig4` binary's files while it still ran on the (since
    /// deleted) partial-fraction margin kernel. A kernel change must not
    /// move a printed digit.
    #[test]
    fn csv_rows_are_pinned() {
        for (config, digest) in [
            (Fig4Config::quick(), 0xb770_c288_cb68_9362u64),
            (Fig4Config::paper(), 0xe8f2_56fe_c9a5_a641),
        ] {
            let got = csv_digest(&config);
            assert_eq!(got, digest, "fig4 rows drifted: {got:#018x}");
        }
    }

    #[test]
    fn curves_have_paper_shape() {
        let curves = run_fig4(&Fig4Config::quick()).unwrap();
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
        })
        .unwrap();
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

//! Jitter-margin stability curves and their linear lower bounds.
//!
//! This module replaces the closed-source Jitter Margin toolbox the paper
//! acknowledges (see DESIGN.md §3), using a discrete-time small-gain
//! criterion in the style of Kao & Lincoln (Automatica 2004).
//!
//! Setup: continuous plant, fixed sampled LQG controller at period `h`,
//! constant latency `L = d*h + tau'`, and an uncertain extra delay
//! `delta_k in [0, J]` on each control update. Shifting the actuation
//! switch instant from `tau'` to `tau' + delta_k` perturbs the sampled
//! state update by
//!
//! ```text
//! F(delta_k) (v_{k-1} - v_k),   F(delta) = int_{tau'}^{tau'+delta} e^{A(h-s)} ds B
//! ```
//!
//! where `v_k = u_{k-d}` is the control value being switched in. To first
//! order `F(delta) = delta * g` with the fixed direction
//! `g = e^{A(h-tau')} B`, so the uncertainty is a memoryless gain
//! `delta_k in [0, J]` wrapped around the LTI loop from a state injection
//! `g` to the update difference `(1 - z^{-1}) v`. The small-gain theorem
//! then guarantees stability for every time-varying delay when
//!
//! ```text
//! J * |1 - e^{-j w h}| * |G_{u <- g}(e^{j w h})| < 1,  w in (0, pi/h]
//! ```
//!
//! (the `z^{-d}` between `u` and `v` has unit modulus), giving
//!
//! ```text
//! J_max(L) = 1 / sup_w |1 - e^{-j w h}| |G_{u <- g}(e^{j w h})|
//! ```
//!
//! with `J_max(L) = 0` if the latency-`L` loop is not even nominally
//! stable. Sweeping `L` yields the paper's Fig. 4 stability curves, and
//! [`StabilityFit`] produces the linear lower bound `L + a J <= b` of
//! Eq. 5.

//! # Kernel classes (DESIGN.md §10)
//!
//! Since PR 6 the margin computations run on a re-entrant
//! [`MarginScratch`] workspace in one of two [`KernelMode`]s:
//!
//! * [`KernelMode::Exact`] replays the original dense pipeline
//!   bit-for-bit (pinned against [`crate::reference`] by differential
//!   tests) — this is what the persisted margin tables are built with;
//! * [`KernelMode::Fast`] reuses the pre-check eigenvalues as the poles
//!   of a partial-fraction model fitted from a handful of
//!   Hessenberg-solved samples, then sweeps frequencies in `O(n)` per
//!   point (verified per loop, with an `O(n^2)`-per-point Hessenberg
//!   fallback) — this backs the public
//!   [`jitter_margin`]/[`stability_curve`] entry points and the Fig. 4
//!   plots, and agrees with `Exact` to round-off.
//!
//! [`StabilityCurveBatch`] bundles a scratch with a reusable LQG
//! designer to walk whole period grids per plant.

use crate::c2d::{c2d_zoh_delayed, delay_split};
use crate::error::{Error, Result};
use crate::freq::{HessSiso, ResponseScratch};
use crate::lqg::{input_sensitivity_loop, LqgDesigner, LqgWeights};
use crate::ss::{DiscreteSs, StateSpace};
use csa_linalg::{expm, Cplx, EigScratch, Mat};

/// Number of frequency grid points for the small-gain sweep.
const FREQ_POINTS: usize = 600;
/// Held-out sweep-grid indices where the fast kernel's partial-fraction
/// fit must reproduce the Hessenberg solve to round-off before it is
/// trusted for the full sweep (they never coincide with the fit's sample
/// indices, which sit at strip midpoints).
const PF_CHECK_POINTS: [usize; 5] = [0, 97, 331, 523, FREQ_POINTS - 1];
/// Round-off budget of the partial-fraction verification, relative to
/// the largest observed response magnitude. A healthy fit lands around
/// 1e-12 relative; repeated or defective poles blow well past this and
/// fall back to the full Hessenberg sweep.
const PF_TOL: f64 = 1e-10;
/// Jitter margins are reported at most this many sampling periods — the
/// criterion is meaningless for jitter far beyond a period (the scheduler
/// cannot produce it under implicit deadlines anyway).
const JITTER_CAP_PERIODS: f64 = 20.0;

/// One point of a stability curve: at constant latency `latency`, any
/// response-time jitter up to `jitter_margin` preserves stability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Constant part of the delay (seconds).
    pub latency: f64,
    /// Maximum tolerable jitter at this latency (seconds).
    pub jitter_margin: f64,
}

/// A jitter-margin stability curve for one plant/controller/period triple.
#[derive(Debug, Clone, PartialEq)]
pub struct StabilityCurve {
    points: Vec<CurvePoint>,
    delay_margin: f64,
    period: f64,
}

impl StabilityCurve {
    /// The sampled curve points, ordered by increasing latency.
    pub fn points(&self) -> &[CurvePoint] {
        &self.points
    }

    /// The delay margin: the supremum of constant latencies that keep the
    /// loop nominally stable (the curve's intercept with `J = 0`).
    pub fn delay_margin(&self) -> f64 {
        self.delay_margin
    }

    /// Sampling period the curve was computed for.
    pub fn period(&self) -> f64 {
        self.period
    }

    /// Assembles a curve from already-computed parts (reference module and
    /// artifact deserialization).
    pub(crate) fn from_parts(points: Vec<CurvePoint>, delay_margin: f64, period: f64) -> Self {
        StabilityCurve {
            points,
            delay_margin,
            period,
        }
    }
}

/// Selects which kernel class a [`MarginScratch`] evaluation runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// Bit-identical replay of the retained reference pipeline
    /// ([`crate::reference`]): dense `O(n^3)` frequency solves and cold
    /// DARE synthesis. Used wherever downstream artifacts are bit-frozen
    /// (the persisted margin tables and the witness corpus).
    Exact,
    /// Pole/residue (partial-fraction) frequency sweeps in `O(n)` per
    /// point — verified per loop against the Hessenberg solve and falling
    /// back to the `O(n^2)`-per-point Hessenberg sweep whenever the fit
    /// cannot be certified. Agrees
    /// with [`KernelMode::Exact`] to round-off (relative error ~1e-10 on
    /// the margins themselves); the nominal-stability pre-check is shared
    /// with the exact path, so a latency beyond the delay margin yields
    /// exactly `0.0` in both modes.
    Fast,
}

/// Re-entrant workspace for jitter-margin evaluations (PR 6 scratch-space
/// family).
///
/// Holds the eigensolver, dense-response, and Hessenberg-sweep buffers so
/// that sweeping a whole stability curve — or a whole period grid via
/// [`StabilityCurveBatch`] — performs no per-frequency allocations.
#[derive(Debug)]
pub struct MarginScratch {
    eig: EigScratch,
    resp: ResponseScratch,
    hess: HessSiso,
    // Cached frequency-sweep tables (grid frequencies, unit-circle points
    // and discrete-derivative weights), keyed on the (h, loop period) bit
    // patterns. Pure functions of the key computed with the pinned
    // per-point formulas, so reuse is bit-transparent to both kernels.
    sweep_key: Option<(u64, u64)>,
    sweep_z: Vec<Cplx>,
    sweep_deriv: Vec<f64>,
    // Pole/residue model of the fast kernel's partial-fraction sweep.
    poles: Vec<Cplx>,
    residues: Vec<Cplx>,
    pf_mat: Vec<Cplx>,
    pf_rhs: Vec<Cplx>,
}

impl MarginScratch {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        MarginScratch {
            eig: EigScratch::new(),
            resp: ResponseScratch::new(),
            hess: HessSiso::new(),
            sweep_key: None,
            sweep_z: Vec::new(),
            sweep_deriv: Vec::new(),
            poles: Vec::new(),
            residues: Vec::new(),
            pf_mat: Vec::new(),
            pf_rhs: Vec::new(),
        }
    }

    /// (Re)builds the cached sweep tables for sampling period `h` and loop
    /// period `period`. Each entry is computed with exactly the per-point
    /// formulas of the original sweep loop, so a cached value is
    /// bit-identical to the value the loop would have recomputed — the
    /// cache is transparent to [`KernelMode::Exact`].
    fn sweep_tables(&mut self, h: f64, period: f64) {
        let key = (h.to_bits(), period.to_bits());
        if self.sweep_key == Some(key) {
            return;
        }
        self.sweep_z.clear();
        self.sweep_deriv.clear();
        let w_max = std::f64::consts::PI / h;
        let w_min = w_max / 1e4;
        let log_step = (w_max / w_min).ln() / (FREQ_POINTS - 1) as f64;
        for i in 0..FREQ_POINTS {
            let w = w_min * (log_step * i as f64).exp();
            self.sweep_z.push(Cplx::from_angle(w * period));
            // |1 - e^{-j w h}| — the discrete-derivative weight on v.
            self.sweep_deriv
                .push((Cplx::ONE - Cplx::from_angle(-w * h)).abs());
        }
        self.sweep_key = Some(key);
    }

    /// Fits the strictly proper part of the loop response as a
    /// pole/residue sum `G(z) - d0 = sum_i r_i / (z - p_i)` over the
    /// already-computed loop eigenvalues (`self.poles`), by sampling `G`
    /// through the Hessenberg solver at `n` spread-out grid points and
    /// solving the resulting Cauchy system for the residues.
    ///
    /// A strictly proper rational function of McMillan degree at most `n`
    /// with known poles is determined by its values at `n` distinct
    /// points, so in exact arithmetic the fit *is* `G`; what can go wrong
    /// is round-off (eigenvalue error amplified near lightly damped
    /// poles, ill-conditioned Cauchy solves, repeated/defective poles).
    /// The fit is therefore verified against the Hessenberg solve at
    /// held-out grid indices — including the grid point nearest each pole
    /// angle, where eigenvalue perturbations bite hardest — and `false`
    /// (caller falls back to the full Hessenberg sweep) is returned
    /// unless every check lands within [`PF_TOL`] of round-off.
    fn fit_partial_fractions(&mut self, d0: f64, h: f64, period: f64) -> Result<bool> {
        let n = self.poles.len();
        if n == 0 || 2 * n >= FREQ_POINTS {
            return Ok(false);
        }
        self.pf_mat.clear();
        self.pf_rhs.clear();
        let mut g_scale = 1.0f64;
        // Sample at the midpoints of n equal strips of the sweep grid —
        // never an endpoint, so the held-out checks stay distinct.
        for k in 0..n {
            let idx = (2 * k + 1) * FREQ_POINTS / (2 * n);
            let z = self.sweep_z[idx];
            let gz = self.hess.eval(z)?;
            g_scale = g_scale.max(gz.abs());
            self.pf_rhs.push(gz - Cplx::from_re(d0));
            for i in 0..n {
                let diff = z - self.poles[i];
                if diff == Cplx::ZERO {
                    return Ok(false);
                }
                self.pf_mat.push(Cplx::ONE / diff);
            }
        }
        if !solve_small(&mut self.pf_mat, &mut self.pf_rhs, n) {
            return Ok(false);
        }
        std::mem::swap(&mut self.residues, &mut self.pf_rhs);
        // Verify at the fixed held-out indices plus the grid point nearest
        // each pole's angle (where the response peaks and pole error is
        // amplified the most).
        let w_max = std::f64::consts::PI / h;
        let w_min = w_max / 1e4;
        let log_step = (w_max / w_min).ln() / (FREQ_POINTS - 1) as f64;
        let mut check_indices: Vec<usize> = PF_CHECK_POINTS.to_vec();
        for p in &self.poles {
            let theta = p.arg();
            if theta <= 0.0 || !theta.is_finite() {
                continue;
            }
            let w = theta / period;
            if w < w_min || w > w_max {
                continue;
            }
            let idx = ((w / w_min).ln() / log_step).round() as usize;
            check_indices.push(idx.min(FREQ_POINTS - 1));
        }
        let mut err_max = 0.0f64;
        for idx in check_indices {
            let z = self.sweep_z[idx];
            let reference = self.hess.eval(z)?;
            let fitted = pf_eval(&self.poles, &self.residues, d0, z);
            let err = (fitted - reference).abs();
            if !err.is_finite() {
                return Ok(false);
            }
            err_max = err_max.max(err);
            g_scale = g_scale.max(reference.abs());
        }
        Ok(err_max <= PF_TOL * g_scale)
    }

    /// Computes the jitter margin `J_max` at one latency; semantics of
    /// [`jitter_margin`], kernel class chosen by `mode`.
    ///
    /// # Errors
    ///
    /// Same as [`jitter_margin`].
    pub fn jitter_margin(
        &mut self,
        mode: KernelMode,
        plant: &StateSpace,
        controller: &DiscreteSs,
        h: f64,
        latency: f64,
    ) -> Result<f64> {
        if !(latency.is_finite() && latency >= 0.0) {
            return Err(Error::InvalidParameter("latency must be non-negative"));
        }
        let plant_l = c2d_zoh_delayed(plant, h, latency)?;
        // Injection direction g = e^{A(h - tau')} B of the first-order delay
        // perturbation, padded across the delay registers.
        let (_, tau_frac) = delay_split(h, latency);
        let g = &expm(&plant.a().scale(h - tau_frac))? * plant.b();
        let loop_sys = injection_loop(&plant_l, controller, &g)?;
        // Nominal-stability pre-check, shared bit-identically by both
        // modes: the fold mirrors `EigScratch::spectral_radius_in`
        // exactly; keeping the eigenvalues around lets the fast path
        // reuse them as the poles of its partial-fraction sweep.
        let rho = {
            let eigs = self.eig.eigenvalues_in(loop_sys.a())?;
            if mode == KernelMode::Fast {
                self.poles.clear();
                self.poles.extend_from_slice(eigs);
            }
            eigs.iter().fold(0.0f64, |m, l| m.max(l.abs()))
        };
        if rho >= 1.0 {
            return Ok(0.0);
        }
        self.sweep_tables(h, loop_sys.period());
        let cap = JITTER_CAP_PERIODS * h;
        let mut j_max = cap;
        match mode {
            KernelMode::Exact => {
                for i in 0..FREQ_POINTS {
                    let z = self.sweep_z[i];
                    let m00 = self.resp.response_at_in(
                        loop_sys.a(),
                        loop_sys.b(),
                        loop_sys.c(),
                        loop_sys.d(),
                        z,
                    )?[(0, 0)];
                    let gain = self.sweep_deriv[i] * m00.abs();
                    if gain > 0.0 {
                        j_max = j_max.min(1.0 / gain);
                    }
                }
            }
            KernelMode::Fast => {
                self.hess.build(&loop_sys)?;
                let d0 = loop_sys.d()[(0, 0)];
                if self.fit_partial_fractions(d0, h, loop_sys.period())? {
                    // O(n) per point over the verified pole/residue model.
                    for i in 0..FREQ_POINTS {
                        let g = pf_eval(&self.poles, &self.residues, d0, self.sweep_z[i]);
                        let gain = self.sweep_deriv[i] * g.abs_sq().sqrt();
                        if gain > 0.0 {
                            j_max = j_max.min(1.0 / gain);
                        }
                    }
                } else {
                    // Unverifiable fit — full O(n^2)-per-point Hessenberg
                    // sweep, the fast kernel's former default.
                    for i in 0..FREQ_POINTS {
                        let m00 = self.hess.eval(self.sweep_z[i])?;
                        let gain = self.sweep_deriv[i] * m00.abs();
                        if gain > 0.0 {
                            j_max = j_max.min(1.0 / gain);
                        }
                    }
                }
            }
        }
        Ok(j_max)
    }

    /// Computes the delay margin; semantics of [`delay_margin`]. The
    /// bisection only needs spectral radii, so both kernel modes share
    /// this (bit-identical) path.
    ///
    /// # Errors
    ///
    /// Same as [`delay_margin`].
    pub fn delay_margin(
        &mut self,
        plant: &StateSpace,
        controller: &DiscreteSs,
        h: f64,
    ) -> Result<f64> {
        let cap = JITTER_CAP_PERIODS * h;
        let eig = &mut self.eig;
        let mut stable_at = |l: f64| -> Result<bool> {
            let plant_l = c2d_zoh_delayed(plant, h, l)?;
            let loop_sys = input_sensitivity_loop(&plant_l, controller)?;
            Ok(eig.spectral_radius_in(loop_sys.a())? < 1.0)
        };
        if !stable_at(0.0)? {
            return Ok(0.0);
        }
        // Coarse scan to bracket the boundary.
        let step = h / 4.0;
        let mut lo = 0.0;
        let mut hi = cap;
        let mut found_unstable = false;
        let mut l = step;
        while l <= cap {
            if !stable_at(l)? {
                hi = l;
                found_unstable = true;
                break;
            }
            lo = l;
            l += step;
        }
        if !found_unstable {
            return Ok(cap);
        }
        for _ in 0..40 {
            let mid = 0.5 * (lo + hi);
            if stable_at(mid)? {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi - lo < 1e-9 * h.max(1e-9) {
                break;
            }
        }
        Ok(lo)
    }

    /// Sweeps the full stability curve; semantics of [`stability_curve`],
    /// kernel class chosen by `mode`.
    ///
    /// # Errors
    ///
    /// Same as [`stability_curve`].
    pub fn stability_curve(
        &mut self,
        mode: KernelMode,
        plant: &StateSpace,
        controller: &DiscreteSs,
        h: f64,
        points: usize,
    ) -> Result<StabilityCurve> {
        if points < 2 {
            return Err(Error::InvalidParameter("curve needs at least two points"));
        }
        let dm = self.delay_margin(plant, controller, h)?;
        let mut curve = Vec::with_capacity(points);
        for i in 0..points {
            let l = dm * i as f64 / (points - 1) as f64;
            let j = self.jitter_margin(mode, plant, controller, h, l)?;
            curve.push(CurvePoint {
                latency: l,
                jitter_margin: j,
            });
        }
        Ok(StabilityCurve {
            points: curve,
            delay_margin: dm,
            period: h,
        })
    }
}

impl Default for MarginScratch {
    fn default() -> Self {
        MarginScratch::new()
    }
}

/// Evaluates the pole/residue model `d0 + sum_i r_i / (z - p_i)`,
/// expanding each division as `r * conj(z - p) / |z - p|^2` — one real
/// division per pole, no branches.
#[inline]
fn pf_eval(poles: &[Cplx], residues: &[Cplx], d0: f64, z: Cplx) -> Cplx {
    let mut g = Cplx::from_re(d0);
    for (p, r) in poles.iter().zip(residues) {
        let dre = z.re - p.re;
        let dim = z.im - p.im;
        let inv = 1.0 / (dre * dre + dim * dim);
        g.re += (r.re * dre + r.im * dim) * inv;
        g.im += (r.im * dre - r.re * dim) * inv;
    }
    g
}

/// In-place Gaussian elimination with partial pivoting on a small dense
/// complex system (`m` is `n x n` row-major, `rhs` holds the right-hand
/// side and receives the solution). Returns `false` on breakdown —
/// non-finite or zero pivots — instead of erroring, because the only
/// caller treats an unsolvable system as "fall back to the safe path".
fn solve_small(m: &mut [Cplx], rhs: &mut [Cplx], n: usize) -> bool {
    for k in 0..n {
        let mut piv = k;
        let mut best = m[k * n + k].abs();
        for i in (k + 1)..n {
            let v = m[i * n + k].abs();
            if v > best {
                best = v;
                piv = i;
            }
        }
        if best <= 0.0 || !best.is_finite() {
            return false;
        }
        if piv != k {
            for j in 0..n {
                m.swap(k * n + j, piv * n + j);
            }
            rhs.swap(k, piv);
        }
        let pivot = m[k * n + k];
        for i in (k + 1)..n {
            let f = m[i * n + k] / pivot;
            if f != Cplx::ZERO {
                for j in (k + 1)..n {
                    let v = f * m[k * n + j];
                    m[i * n + j] -= v;
                }
                let v = f * rhs[k];
                rhs[i] -= v;
            }
        }
    }
    for k in (0..n).rev() {
        let mut acc = rhs[k];
        for j in (k + 1)..n {
            acc -= m[k * n + j] * rhs[j];
        }
        rhs[k] = acc / m[k * n + k];
        if !rhs[k].is_finite() {
            return false;
        }
    }
    true
}

/// Computes the jitter margin `J_max` for a fixed latency.
///
/// Returns `0.0` when the latency-`L` loop is nominally unstable, and a
/// value capped at `20 h` when the small-gain constraint set is empty.
///
/// # Errors
///
/// Propagates structural/numerical failures (dimension mismatches and the
/// like); "no margin" is the value `0.0`, not an error.
///
/// # Examples
///
/// ```
/// use csa_control::{design_lqg, jitter_margin, plants, LqgWeights};
///
/// # fn main() -> Result<(), csa_control::Error> {
/// let plant = plants::dc_servo()?;
/// let w = LqgWeights::output_regulation(&plant, 1e-4, 1e-6);
/// let lqg = design_lqg(&plant, &w, 0.006, 0.0)?;
/// let j0 = jitter_margin(&plant, &lqg.controller, 0.006, 0.0)?;
/// assert!(j0 > 0.0);
/// # Ok(())
/// # }
/// ```
pub fn jitter_margin(
    plant: &StateSpace,
    controller: &DiscreteSs,
    h: f64,
    latency: f64,
) -> Result<f64> {
    MarginScratch::new().jitter_margin(KernelMode::Fast, plant, controller, h, latency)
}

/// [`jitter_margin`] on the bit-frozen exact kernel ([`KernelMode::Exact`]).
///
/// Identical, bit-for-bit, to the retained reference implementation
/// ([`crate::reference::jitter_margin`]); use this wherever downstream
/// artifacts pin the produced floats exactly.
///
/// # Errors
///
/// Same as [`jitter_margin`].
pub fn jitter_margin_exact(
    plant: &StateSpace,
    controller: &DiscreteSs,
    h: f64,
    latency: f64,
) -> Result<f64> {
    MarginScratch::new().jitter_margin(KernelMode::Exact, plant, controller, h, latency)
}

/// Assembles the closed loop with an exogenous input entering the plant
/// *state* through column `g` (zero-padded across the delay registers) and
/// the controller output `u` as output.
pub(crate) fn injection_loop(
    plant_d: &DiscreteSs,
    ctrl: &DiscreteSs,
    g: &Mat,
) -> Result<DiscreteSs> {
    // Reuse the validated plant-input loop for the A matrix, then swap the
    // input matrix for the state injection.
    let base = input_sensitivity_loop(plant_d, ctrl)?;
    let np = plant_d.order();
    let nc = ctrl.order();
    let mut b = Mat::zeros(np + nc, g.cols());
    b.set_block(0, 0, g);
    DiscreteSs::new(
        base.a().clone(),
        b,
        base.c().clone(),
        Mat::zeros(base.outputs(), g.cols()),
        plant_d.period(),
    )
}

/// Computes the delay margin: the largest constant latency keeping the
/// loop nominally stable, found by coarse scan plus bisection, capped at
/// `20 h`.
///
/// # Errors
///
/// Propagates numerical failures.
pub fn delay_margin(plant: &StateSpace, controller: &DiscreteSs, h: f64) -> Result<f64> {
    MarginScratch::new().delay_margin(plant, controller, h)
}

/// Sweeps the jitter margin over a latency grid, producing a full
/// stability curve (the paper's Fig. 4).
///
/// The grid spans `[0, delay_margin]` with `points` samples.
///
/// # Errors
///
/// Propagates numerical failures; `points < 2` is rejected.
pub fn stability_curve(
    plant: &StateSpace,
    controller: &DiscreteSs,
    h: f64,
    points: usize,
) -> Result<StabilityCurve> {
    MarginScratch::new().stability_curve(KernelMode::Fast, plant, controller, h, points)
}

/// [`stability_curve`] on the bit-frozen exact kernel
/// ([`KernelMode::Exact`]); bit-identical to
/// [`crate::reference::stability_curve`].
///
/// # Errors
///
/// Same as [`stability_curve`].
pub fn stability_curve_exact(
    plant: &StateSpace,
    controller: &DiscreteSs,
    h: f64,
    points: usize,
) -> Result<StabilityCurve> {
    MarginScratch::new().stability_curve(KernelMode::Exact, plant, controller, h, points)
}

/// Batched stability-curve evaluator: one LQG designer plus one
/// [`MarginScratch`], reused across a whole period grid per plant, so
/// walking a log-period grid `h, h+δh, ...` amortizes all workspace
/// allocations. The designer is the same in both kernel modes: every
/// Riccati solve is bit-identical to the one-shot
/// [`design_lqg`](crate::design_lqg). The modes differ only in the margin
/// sweep: in [`KernelMode::Exact`] every produced float is bit-identical
/// to the one-shot [`design_lqg`](crate::design_lqg) +
/// [`stability_curve_exact`] pipeline — this is the kernel the persisted
/// margin tables are built with.
#[derive(Debug)]
pub struct StabilityCurveBatch {
    designer: LqgDesigner,
    scratch: MarginScratch,
    mode: KernelMode,
}

impl StabilityCurveBatch {
    /// Creates a batch evaluator in the given kernel mode.
    pub fn new(mode: KernelMode) -> Self {
        StabilityCurveBatch {
            designer: LqgDesigner::cold(),
            scratch: MarginScratch::new(),
            mode,
        }
    }

    /// The kernel mode this evaluator runs on.
    pub fn mode(&self) -> KernelMode {
        self.mode
    }

    /// Designs the LQG controller for `(plant, weights, h, tau)` and
    /// sweeps its stability curve plus Eq. 5 fit.
    ///
    /// # Errors
    ///
    /// Propagates design failures ([`Error::NotStabilizable`] at
    /// pathological periods) and curve failures.
    pub fn curve_at(
        &mut self,
        plant: &StateSpace,
        weights: &LqgWeights,
        h: f64,
        tau: f64,
        points: usize,
    ) -> Result<(StabilityCurve, StabilityFit)> {
        let lqg = self.designer.design(plant, weights, h, tau)?;
        let curve = self
            .scratch
            .stability_curve(self.mode, plant, &lqg.controller, h, points)?;
        let fit = StabilityFit::from_curve(&curve);
        Ok((curve, fit))
    }

    /// [`StabilityCurveBatch::curve_at`] with the margin-table cell
    /// semantics: `None` when the plant cannot be designed at `h`, when
    /// the curve fails, or when the delay margin is zero (an unusable
    /// cell), `Some` otherwise.
    pub fn margin_cell(
        &mut self,
        plant: &StateSpace,
        weights: &LqgWeights,
        h: f64,
        tau: f64,
        points: usize,
    ) -> Option<(StabilityCurve, StabilityFit)> {
        match self.curve_at(plant, weights, h, tau, points) {
            Ok((curve, fit)) if curve.delay_margin() > 0.0 => Some((curve, fit)),
            _ => None,
        }
    }

    /// Walks an increasing period grid, producing one optional cell per
    /// period (see [`StabilityCurveBatch::margin_cell`]).
    pub fn curve_grid(
        &mut self,
        plant: &StateSpace,
        weights: &LqgWeights,
        periods: &[f64],
        tau: f64,
        points: usize,
    ) -> Vec<Option<(StabilityCurve, StabilityFit)>> {
        periods
            .iter()
            .map(|&h| self.margin_cell(plant, weights, h, tau, points))
            .collect()
    }
}

/// The linear lower bound `L + a J <= b` of the paper's Eq. 5, fitted
/// under a [`StabilityCurve`].
///
/// `a >= 1` and `b >= 0` always hold, matching the paper's constraints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StabilityFit {
    /// Jitter weight `a >= 1`.
    pub a: f64,
    /// Delay budget `b >= 0` (seconds).
    pub b: f64,
}

impl StabilityFit {
    /// Fits the bound to a curve: `b` is the delay margin and `a` the
    /// smallest slope weight (at least 1) keeping the line `J = (b - L)/a`
    /// below every sampled curve point.
    pub fn from_curve(curve: &StabilityCurve) -> StabilityFit {
        let b = curve.delay_margin();
        let mut a = 1.0f64;
        for p in curve.points() {
            if p.jitter_margin > 1e-12 && p.latency < b {
                a = a.max((b - p.latency) / p.jitter_margin);
            }
        }
        StabilityFit { a, b }
    }

    /// The stability test of Eq. 5: `L + a J <= b`.
    ///
    /// # Examples
    ///
    /// ```
    /// use csa_control::StabilityFit;
    ///
    /// let fit = StabilityFit { a: 1.5, b: 0.010 };
    /// assert!(fit.is_stable(0.004, 0.004));
    /// assert!(!fit.is_stable(0.004, 0.005));
    /// ```
    pub fn is_stable(&self, latency: f64, jitter: f64) -> bool {
        latency + self.a * jitter <= self.b
    }

    /// Maximum jitter the linear bound permits at a given latency
    /// (clamped at zero).
    pub fn max_jitter(&self, latency: f64) -> f64 {
        ((self.b - latency) / self.a).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lqg::{design_lqg, LqgWeights};
    use crate::plants;

    fn servo_lqg(h: f64) -> (StateSpace, DiscreteSs) {
        let plant = plants::dc_servo().unwrap();
        let w = LqgWeights::output_regulation(&plant, 1e-4, 1e-6);
        let lqg = design_lqg(&plant, &w, h, 0.0).unwrap();
        (plant, lqg.controller)
    }

    #[test]
    fn margin_positive_at_zero_latency() {
        let (plant, ctrl) = servo_lqg(0.006);
        let j = jitter_margin(&plant, &ctrl, 0.006, 0.0).unwrap();
        assert!(j > 0.0, "J_max(0) = {j}");
        assert!(j < 0.12, "J_max(0) = {j} looks unphysically large");
    }

    #[test]
    fn margin_zero_beyond_delay_margin() {
        let (plant, ctrl) = servo_lqg(0.006);
        let dm = delay_margin(&plant, &ctrl, 0.006).unwrap();
        assert!(dm > 0.0);
        let j = jitter_margin(&plant, &ctrl, 0.006, dm * 1.05).unwrap();
        assert_eq!(j, 0.0);
    }

    #[test]
    fn curve_is_broadly_decreasing() {
        let (plant, ctrl) = servo_lqg(0.006);
        let curve = stability_curve(&plant, &ctrl, 0.006, 25).unwrap();
        let pts = curve.points();
        assert_eq!(pts.len(), 25);
        // Endpoints: decreasing overall.
        assert!(pts[0].jitter_margin > pts[pts.len() - 2].jitter_margin);
        // Last point is at the delay margin; margin there is ~0.
        assert!(pts[pts.len() - 1].jitter_margin < 0.35 * pts[0].jitter_margin);
        // Latencies are increasing.
        for w in pts.windows(2) {
            assert!(w[1].latency > w[0].latency);
        }
    }

    #[test]
    fn fit_is_below_curve_with_valid_coefficients() {
        let (plant, ctrl) = servo_lqg(0.006);
        let curve = stability_curve(&plant, &ctrl, 0.006, 30).unwrap();
        let fit = StabilityFit::from_curve(&curve);
        assert!(fit.a >= 1.0, "a = {}", fit.a);
        assert!(fit.b > 0.0, "b = {}", fit.b);
        for p in curve.points() {
            let line = fit.max_jitter(p.latency);
            assert!(
                line <= p.jitter_margin + 1e-12,
                "line {line} above curve {} at L={}",
                p.jitter_margin,
                p.latency
            );
        }
    }

    #[test]
    fn small_gain_margin_within_delay_margin() {
        // Consistency: exhausting the jitter margin as *constant* delay
        // must not exceed the delay margin (constant delay is one
        // admissible realization of the time-varying uncertainty). The
        // criterion linearizes the delay perturbation, so allow a few
        // percent of slack.
        let (plant, ctrl) = servo_lqg(0.006);
        let dm = delay_margin(&plant, &ctrl, 0.006).unwrap();
        let j0 = jitter_margin(&plant, &ctrl, 0.006, 0.0).unwrap();
        assert!(
            j0 <= 1.05 * dm + 1e-9,
            "small-gain jitter margin {j0} exceeds delay margin {dm}"
        );
    }

    #[test]
    fn unstable_plant_has_margins_too() {
        let plant = plants::pendulum().unwrap();
        let w = LqgWeights::output_regulation(&plant, 1e-3, 1e-6);
        let h = 0.02;
        let lqg = design_lqg(&plant, &w, h, 0.0).unwrap();
        let j = jitter_margin(&plant, &lqg.controller, h, 0.0).unwrap();
        assert!(j > 0.0);
        let dm = delay_margin(&plant, &lqg.controller, h).unwrap();
        assert!(dm > 0.0 && dm < 20.0 * h);
    }

    #[test]
    fn negative_latency_rejected() {
        let (plant, ctrl) = servo_lqg(0.006);
        assert!(jitter_margin(&plant, &ctrl, 0.006, -0.001).is_err());
    }

    #[test]
    fn curve_needs_two_points() {
        let (plant, ctrl) = servo_lqg(0.006);
        assert!(stability_curve(&plant, &ctrl, 0.006, 1).is_err());
    }
}

//! The paper's stability condition (Eq. 5) and the control-task model.
//!
//! A control task is a periodic task whose controlled plant remains stable
//! exactly when the task's latency `L` and response-time jitter `J`
//! satisfy the linear bound
//!
//! ```text
//! L + a * J <= b        (a >= 1, b >= 0)
//! ```
//!
//! The coefficients `(a, b)` come from a jitter-margin stability curve
//! (`csa-control::StabilityFit`); this crate only consumes them, keeping
//! the scheduling side free of any control-theory dependency.

use csa_rta::{InvalidTask, ResponseBounds, Task, TaskId, Ticks};
use std::fmt;

/// The linear stability bound `L + a J <= b` of the paper's Eq. 5.
///
/// # Examples
///
/// ```
/// use csa_core::StabilityBound;
/// use csa_rta::Ticks;
///
/// let bound = StabilityBound::new(2.0, 0.010).unwrap();
/// assert!(bound.permits(Ticks::from_millis(4), Ticks::from_millis(3)));
/// assert!(!bound.permits(Ticks::from_millis(5), Ticks::from_millis(3)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StabilityBound {
    a: f64,
    b: f64,
}

impl StabilityBound {
    /// Creates a bound; requires `a >= 1` and `b >= 0` (the paper's
    /// constraints on the linearized stability curve).
    pub fn new(a: f64, b: f64) -> Option<StabilityBound> {
        if a.is_finite() && b.is_finite() && a >= 1.0 && b >= 0.0 {
            Some(StabilityBound { a, b })
        } else {
            None
        }
    }

    /// A bound that every latency/jitter pair satisfies — for tasks whose
    /// plant is insensitive to scheduling at the considered scale.
    pub fn permissive() -> StabilityBound {
        StabilityBound {
            a: 1.0,
            b: f64::MAX,
        }
    }

    /// Jitter weight `a >= 1`.
    pub fn a(&self) -> f64 {
        self.a
    }

    /// Delay budget `b >= 0`, in seconds.
    pub fn b(&self) -> f64 {
        self.b
    }

    /// The stability test `L + a J <= b`.
    pub fn permits(&self, latency: Ticks, jitter: Ticks) -> bool {
        self.slack(latency, jitter) >= 0.0
    }

    /// Signed slack `b - L - a J` in seconds (negative = unstable).
    pub fn slack(&self, latency: Ticks, jitter: Ticks) -> f64 {
        self.b - latency.as_secs_f64() - self.a * jitter.as_secs_f64()
    }
}

impl fmt::Display for StabilityBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Pick a readable unit for b.
        let (scaled, unit) = if self.b >= 1.0 || self.b == 0.0 {
            (self.b, "s")
        } else if self.b >= 1e-3 {
            (self.b * 1e3, "ms")
        } else if self.b >= 1e-6 {
            (self.b * 1e6, "us")
        } else {
            (self.b * 1e9, "ns")
        };
        write!(f, "L + {:.3}*J <= {scaled:.3}{unit}", self.a)
    }
}

/// A control application: a periodic task plus the stability bound of the
/// plant it controls (the paper's `tau_i` with coefficients `(a_i, b_i)`).
#[derive(Debug, Clone, PartialEq)]
pub struct ControlTask {
    task: Task,
    bound: StabilityBound,
    label: String,
}

impl ControlTask {
    /// Creates a control task.
    pub fn new(task: Task, bound: StabilityBound) -> ControlTask {
        ControlTask {
            task,
            bound,
            label: String::new(),
        }
    }

    /// Creates a control task with a human-readable label (e.g. the plant
    /// name).
    pub fn with_label(task: Task, bound: StabilityBound, label: impl Into<String>) -> ControlTask {
        ControlTask {
            task,
            bound,
            label: label.into(),
        }
    }

    /// Convenience constructor from raw integers (ticks) — used heavily in
    /// tests and witness constructions.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidTask`] if the task parameters are inconsistent.
    pub fn from_parts(
        id: u32,
        c_best: u64,
        c_worst: u64,
        period: u64,
        a: f64,
        b_secs: f64,
    ) -> Result<ControlTask, InvalidTask> {
        let task = Task::new(
            TaskId::new(id),
            Ticks::new(c_best),
            Ticks::new(c_worst),
            Ticks::new(period),
        )?;
        let bound = StabilityBound::new(a, b_secs)
            .expect("stability bound coefficients must satisfy a >= 1, b >= 0");
        Ok(ControlTask::new(task, bound))
    }

    /// The scheduling task.
    pub fn task(&self) -> &Task {
        &self.task
    }

    /// The stability bound of the controlled plant.
    pub fn bound(&self) -> &StabilityBound {
        &self.bound
    }

    /// Label (may be empty).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Whether the given response bounds keep the plant stable (Eq. 2
    /// plugged into Eq. 5).
    pub fn stable_with(&self, rb: &ResponseBounds) -> bool {
        self.bound.permits(rb.latency(), rb.jitter())
    }

    /// Whether the task stays stable after removing *any* subset of the
    /// interference set that produced `rb` — the RTA-monotonicity bound
    /// of DESIGN.md §3.1. Removing higher-priority tasks can only lower
    /// `R_w` and keeps `R_b` within `[c_b, R_b]`, so latency `R_b` and
    /// jitter `R_w - c_b` bound every reduced set's pair, and the slack
    /// is monotone in both even as computed in `f64`. When this holds,
    /// no removal anomaly exists for the task and a detector may skip
    /// its probes; when it fails, only an exhaustive probe can tell.
    ///
    /// Implies [`stable_with`](Self::stable_with) on `rb` itself.
    pub fn stable_under_any_removal(&self, rb: &ResponseBounds) -> bool {
        self.bound
            .permits(rb.latency(), rb.wcrt - self.task.c_best())
    }

    /// Returns a copy with a different worst-case execution time (for
    /// sensitivity analysis).
    ///
    /// # Errors
    ///
    /// Returns [`InvalidTask`] if the new value breaks the task model.
    pub fn with_c_worst(&self, c_worst: Ticks) -> Result<ControlTask, InvalidTask> {
        Ok(ControlTask {
            task: self.task.with_c_worst(c_worst)?,
            bound: self.bound,
            label: self.label.clone(),
        })
    }

    /// Returns a copy with a different period.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidTask`] if the new value breaks the task model.
    pub fn with_period(&self, period: Ticks) -> Result<ControlTask, InvalidTask> {
        Ok(ControlTask {
            task: self.task.with_period(period)?,
            bound: self.bound,
            label: self.label.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_validation() {
        assert!(StabilityBound::new(0.5, 1.0).is_none());
        assert!(StabilityBound::new(1.0, -0.1).is_none());
        assert!(StabilityBound::new(f64::NAN, 1.0).is_none());
        let b = StabilityBound::new(1.5, 0.02).unwrap();
        assert_eq!(b.a(), 1.5);
        assert_eq!(b.b(), 0.02);
    }

    #[test]
    fn permits_boundary_exact() {
        // L + aJ == b is stable (non-strict inequality, Eq. 5). Values
        // are powers of two so the comparison is exact in binary floating
        // point: 0.25 + 2 * 0.125 = 0.5.
        let b = StabilityBound::new(2.0, 0.5).unwrap();
        let l = Ticks::from_secs_f64(0.25);
        let j = Ticks::from_secs_f64(0.125);
        assert!(b.permits(l, j));
        assert_eq!(b.slack(l, j), 0.0);
        assert!(!b.permits(l, j + Ticks::new(1)));
    }

    #[test]
    fn permissive_accepts_everything() {
        let b = StabilityBound::permissive();
        assert!(b.permits(Ticks::from_secs(1000), Ticks::from_secs(1000)));
    }

    #[test]
    fn control_task_stability_check() {
        let ct = ControlTask::from_parts(0, 1_000_000, 2_000_000, 10_000_000, 2.0, 0.005).unwrap();
        let rb = csa_rta::response_bounds(ct.task(), &[]).unwrap();
        // L = 1 ms, J = 1 ms: 1 + 2*1 = 3 ms <= 5 ms.
        assert!(ct.stable_with(&rb));
    }

    #[test]
    fn labels_and_updates() {
        let t = Task::new(
            TaskId::new(3),
            Ticks::new(10),
            Ticks::new(20),
            Ticks::new(100),
        )
        .unwrap();
        let ct = ControlTask::with_label(t, StabilityBound::permissive(), "dc_servo");
        assert_eq!(ct.label(), "dc_servo");
        let ct2 = ct.with_c_worst(Ticks::new(30)).unwrap();
        assert_eq!(ct2.task().c_worst(), Ticks::new(30));
        assert_eq!(ct2.label(), "dc_servo");
        assert!(ct.with_c_worst(Ticks::new(200)).is_err());
        let ct3 = ct.with_period(Ticks::new(50)).unwrap();
        assert_eq!(ct3.task().period(), Ticks::new(50));
    }

    #[test]
    fn display_is_informative() {
        let b = StabilityBound::new(1.25, 0.012).unwrap();
        let s = b.to_string();
        assert_eq!(s, "L + 1.250*J <= 12.000ms");
        let tiny = StabilityBound::new(2.0, 62e-9).unwrap();
        assert_eq!(tiny.to_string(), "L + 2.000*J <= 62.000ns");
        let one = StabilityBound::new(1.0, 2.5).unwrap();
        assert_eq!(one.to_string(), "L + 1.000*J <= 2.500s");
    }
}

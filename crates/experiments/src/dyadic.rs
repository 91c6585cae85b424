//! Dyadic task sets for the pruned-versus-exhaustive property tests.
//!
//! Every duration is a multiple of one dyadic tick unit, so latencies,
//! jitters and power-of-two jitter weights multiply and subtract exactly
//! in `f64`. Delay budgets are placed exactly on the envelope bound of
//! DESIGN.md §3.1, one unit inside it, or above it, against the bounds
//! of each task under a chosen interference set. Both the certificate-lie
//! search of the margin-tight generator and the census anomaly detectors
//! are compared against their exhaustive scans on these sets.

use csa_core::{ControlTask, StabilityChecker, TaskVerdict};
use csa_rta::InvalidTask;
use proptest::strategy::Strategy;

/// One dyadic tick unit: `1/512 s`, so latencies, jitters and the
/// power-of-two jitter weights below multiply and subtract exactly in
/// `f64` (the idiom of `permits_boundary_exact` in csa-core).
pub(crate) const UNIT: u64 = 1_953_125;

/// Per-task draw: period in units, worst-case utilization in
/// per mille, best-case ratio in percent, `log2 a`, the delay-budget
/// mode, and a slack offset in units.
pub(crate) type DyadicParams = Vec<(u64, u64, u64, u32, u8, u64)>;

/// A planted certificate lie (tasks `(c_b, c_w, T)` = `(1, 1, 9)`,
/// `(6, 8, 56)`, `(47, 54, 696)` units): the third task is stable at
/// exactly zero slack (`a = 8`) under full interference, and removing
/// the first grows `8 R_w - 7 R_b` from 219 to 231 units. Random
/// sets almost never contain the geometry, so half the cases start
/// from this core.
pub(crate) const LIE_CORE: [(u64, u64, u64, u32, u8, u64); 3] = [
    (9, 111, 100, 0, 2, 3),
    (56, 143, 75, 0, 2, 3),
    (696, 78, 88, 3, 2, 0),
];

pub(crate) fn dyadic_params() -> impl Strategy<Value = DyadicParams> {
    let task = (
        8u64..=1024,
        5u64..=150,
        10u64..=100,
        0u32..=3,
        0u8..=3,
        0u64..=6,
    );
    let tasks = proptest::collection::vec(task, 2..=12);
    (0u8..=5, tasks).prop_map(|(plant, tasks)| match plant {
        // Core plus up to two random tasks (which may break the lie).
        0..=2 => LIE_CORE
            .iter()
            .copied()
            .chain(tasks)
            .take(3 + plant as usize)
            .collect(),
        _ => tasks,
    })
}

/// `params` padded to `n` tasks with light fillers placed *in front*, so
/// the drawn tasks land at the highest indices (past the 64-task word
/// boundary when `n > 64`). A filler runs one unit every 8 192 units and
/// cycles through the jitter weights and budget modes, so the fillers
/// also sit on, inside and above the bound. `params` is returned as is
/// when it already has `n` tasks or more.
pub(crate) fn padded(params: &DyadicParams, n: usize) -> DyadicParams {
    let fillers = n.saturating_sub(params.len());
    (0..fillers)
        .map(|k| (8_192, 0, 100, (k % 4) as u32, (k % 4) as u8, (k % 7) as u64))
        .chain(params.iter().copied())
        .collect()
}

/// Every other task: the interference set of a certificate-lie scan.
pub(crate) fn full_interference(n: usize) -> impl Fn(usize) -> Vec<usize> {
    move |x| (0..n).filter(|&z| z != x).collect()
}

/// The verdict of every task of `checker`'s set under full interference.
pub(crate) fn full_interference_verdicts(checker: &mut StabilityChecker<'_>) -> Vec<TaskVerdict> {
    let hp = full_interference(checker.len());
    (0..checker.len())
        .map(|x| checker.check(x, &hp(x)))
        .collect()
}

/// Builds a dyadic set whose delay budgets sit on, just inside, or
/// randomly above the pruning bound's boundary `b = R_b + a (R_w - c_b)`
/// of each task's full-interference bounds. Every draw of
/// [`dyadic_params`] and [`padded`] is a valid task set.
pub(crate) fn dyadic_set(params: &DyadicParams) -> Result<Vec<ControlTask>, InvalidTask> {
    dyadic_set_under(params, full_interference(params.len()))
}

/// [`dyadic_set`] with each task's budget placed against its bounds
/// under the interference set `hp(i)` instead (for example its
/// higher-priority set under an assignment).
pub(crate) fn dyadic_set_under(
    params: &DyadicParams,
    hp: impl Fn(usize) -> Vec<usize>,
) -> Result<Vec<ControlTask>, InvalidTask> {
    let secs = |units: u64| (units * UNIT) as f64 * 1e-9;
    let build = |i: usize, a: f64, b: f64| {
        let (period, util, ratio, ..) = params[i];
        let cw = (period * util / 1000).max(1);
        let cb = (cw * ratio / 100).max(1);
        ControlTask::from_parts(i as u32, cb * UNIT, cw * UNIT, period * UNIT, a, b)
    };
    let timing = (0..params.len())
        .map(|i| build(i, 1.0, 0.0))
        .collect::<Result<Vec<_>, _>>()?;
    let mut checker = StabilityChecker::uncached(&timing);
    (0..params.len())
        .map(|i| {
            let (_, _, _, log_a, mode, offset) = params[i];
            let a = f64::from(1u32 << log_a);
            let b = match checker.check(i, &hp(i)).bounds {
                None => 1.0,
                Some(rb) => {
                    let latency = rb.latency().as_secs_f64();
                    let spread = (rb.wcrt - timing[i].task().c_best()).as_secs_f64();
                    match mode {
                        0 => latency + a * spread,
                        1 => latency + a * spread - secs(1),
                        _ => latency + a * rb.jitter().as_secs_f64() + secs(offset),
                    }
                }
            };
            build(i, a, b)
        })
        .collect()
}

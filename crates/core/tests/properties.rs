//! Property-based tests over the priority-assignment algorithms.
//!
//! The key relationships (paper §IV):
//!
//! * Algorithm 1 (backtracking) is *sound* (outputs are valid) and
//!   *complete* (agrees with exhaustive search on feasibility).
//! * Strict OPA is sound but may fail where backtracking succeeds —
//!   never the other way around.
//! * Unsafe Quadratic may output invalid assignments (that is Table I's
//!   subject), but whenever it fails to output anything, backtracking
//!   may still succeed; when backtracking fails, nobody may succeed
//!   validly.

use csa_core::{
    audsley_opa, audsley_opa_with_budget, backtracking, backtracking_with_budget,
    backtracking_with_order, count_valid_assignments, exhaustive, is_valid_assignment, portfolio,
    portfolio_with_budget, reference, unsafe_quadratic, CandidateOrder, ControlTask,
    PortfolioStage,
};
use proptest::prelude::*;

/// Strategy: a small control task set with calibrated-ish bounds.
fn task_set() -> impl Strategy<Value = Vec<ControlTask>> {
    proptest::collection::vec((2u64..40, 2u64..8, 1u64..8, 1.0f64..5.0, 0.3f64..3.0), 2..6)
        .prop_map(|specs| {
            specs
                .into_iter()
                .enumerate()
                .map(|(i, (period_base, util_div, best_div, a, b_scale))| {
                    let period = period_base * 4;
                    let cw = (period / util_div).max(1);
                    let cb = (cw / best_div).max(1);
                    let b = b_scale * period as f64 * 1e-9;
                    ControlTask::from_parts(i as u32, cb, cw, period, a, b).unwrap()
                })
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn backtracking_sound_and_complete(tasks in task_set()) {
        let bt = backtracking(&tasks);
        let ex = exhaustive(&tasks);
        prop_assert_eq!(bt.assignment.is_some(), ex.assignment.is_some(),
            "backtracking and exhaustive disagree on feasibility");
        if let Some(pa) = bt.assignment {
            prop_assert!(is_valid_assignment(&tasks, &pa));
        }
        if let Some(pa) = ex.assignment {
            prop_assert!(is_valid_assignment(&tasks, &pa));
        }
        // Feasibility agrees with the valid-assignment count.
        let count = count_valid_assignments(&tasks);
        prop_assert_eq!(count > 0, backtracking(&tasks).assignment.is_some());
    }

    #[test]
    fn opa_success_implies_backtracking_success(tasks in task_set()) {
        let opa = audsley_opa(&tasks);
        if let Some(pa) = opa.assignment {
            // OPA output is always valid...
            prop_assert!(is_valid_assignment(&tasks, &pa));
            // ...and backtracking, being complete, must also succeed.
            prop_assert!(backtracking(&tasks).assignment.is_some());
        }
    }

    #[test]
    fn unsafe_quadratic_failure_is_honest(tasks in task_set()) {
        let uq = unsafe_quadratic(&tasks);
        match uq.assignment {
            Some(_) => {
                // May be invalid — that is the paper's Table I. No
                // assertion on validity here.
            }
            None => {
                // If the *first* round already passes nobody (exactly n
                // checks performed), the bottom level cannot be filled in
                // any assignment: genuinely infeasible. Later-round
                // failures carry no such guarantee (the batch commitment
                // may simply have painted the algorithm into a corner).
                if uq.stats.checks == tasks.len() as u64 {
                    prop_assert!(exhaustive(&tasks).assignment.is_none());
                }
            }
        }
    }

    #[test]
    fn check_counts_are_polynomial_for_quadratic_algorithms(tasks in task_set()) {
        let n = tasks.len() as u64;
        let uq = unsafe_quadratic(&tasks);
        let opa = audsley_opa(&tasks);
        prop_assert!(uq.stats.checks <= n * (n + 1) / 2);
        prop_assert!(opa.stats.checks <= n * (n + 1) / 2);
        prop_assert_eq!(uq.stats.backtracks, 0);
        prop_assert_eq!(opa.stats.backtracks, 0);
    }

    #[test]
    fn memoized_backtracking_is_bit_identical_to_reference(tasks in task_set()) {
        // The tentpole contract of the zero-allocation/memoized search:
        // same assignment, same feasibility, same *logical* check and
        // backtrack counts as the retained naive implementation — the
        // memo may only change cache_hits and wall-clock time.
        for order in [CandidateOrder::Input, CandidateOrder::MaxSlackFirst] {
            let fast = backtracking_with_order(&tasks, order);
            let naive = reference::backtracking_with_order(&tasks, order);
            prop_assert_eq!(&fast.assignment, &naive.assignment, "order {:?}", order);
            prop_assert_eq!(fast.stats.checks, naive.stats.checks, "order {:?}", order);
            prop_assert_eq!(fast.stats.backtracks, naive.stats.backtracks, "order {:?}", order);
            prop_assert_eq!(naive.stats.cache_hits, 0u64);
        }
    }

    #[test]
    fn memoized_helpers_are_bit_identical_to_reference(tasks in task_set()) {
        let fast = unsafe_quadratic(&tasks);
        let naive = reference::unsafe_quadratic(&tasks);
        prop_assert_eq!(&fast.assignment, &naive.assignment);
        prop_assert_eq!(fast.stats.checks, naive.stats.checks);

        let fast = audsley_opa(&tasks);
        let naive = reference::audsley_opa(&tasks);
        prop_assert_eq!(&fast.assignment, &naive.assignment);
        prop_assert_eq!(fast.stats.checks, naive.stats.checks);

        let fast = exhaustive(&tasks);
        let naive = reference::exhaustive(&tasks);
        prop_assert_eq!(&fast.assignment, &naive.assignment);
        prop_assert_eq!(fast.stats.checks, naive.stats.checks);
    }

    #[test]
    fn budgeted_search_is_memo_invariant(tasks in task_set(), cap in 0u64..40) {
        // Truncation decisions count logical checks, so the memo must
        // not move the truncation point either.
        let (fast, fast_trunc) = backtracking_with_budget(&tasks, CandidateOrder::Input, cap);
        let (naive, naive_trunc) =
            reference::backtracking_with_budget(&tasks, CandidateOrder::Input, cap);
        prop_assert_eq!(fast_trunc, naive_trunc);
        prop_assert_eq!(&fast.assignment, &naive.assignment);
        prop_assert_eq!(fast.stats.checks, naive.stats.checks);
        prop_assert_eq!(fast.stats.backtracks, naive.stats.backtracks);
    }

    #[test]
    fn portfolio_equals_backtracking_when_budget_not_hit(tasks in task_set(), cap in 0u64..80) {
        // The portfolio's anytime contract: any returned assignment is
        // valid, and whenever the run is not truncated its feasibility
        // verdict is exactly Algorithm 1's (= exhaustive's, since
        // backtracking is complete). A truncated run must return no
        // assignment and claim nothing.
        for budget in [cap, u64::MAX] {
            let out = portfolio_with_budget(&tasks, budget);
            if let Some(pa) = &out.assignment {
                prop_assert!(!out.truncated(), "a found assignment is a decision");
                prop_assert!(is_valid_assignment(&tasks, pa), "budget {budget}");
            }
            if !out.truncated() {
                prop_assert_eq!(
                    out.assignment.is_some(),
                    backtracking(&tasks).assignment.is_some(),
                    "un-truncated portfolio disagrees with Algorithm 1 at budget {}", budget
                );
            }
        }
        // Unbounded runs always decide.
        prop_assert!(!portfolio(&tasks).truncated());
    }

    #[test]
    fn portfolio_budget_accounting_is_exact(tasks in task_set(), cap in 1u64..120) {
        // Stage reports sum to the aggregate, the spend respects the
        // documented `< cap + n` bound, and runs are deterministic.
        let n = tasks.len() as u64;
        let out = portfolio_with_budget(&tasks, cap);
        let sum_checks: u64 = out.stages.iter().map(|s| s.checks).sum();
        let sum_hits: u64 = out.stages.iter().map(|s| s.cache_hits).sum();
        prop_assert_eq!(out.stats.checks, sum_checks);
        prop_assert_eq!(out.stats.cache_hits, sum_hits);
        prop_assert!(out.stats.checks < cap + n,
            "spent {} checks against budget {}", out.stats.checks, cap);
        prop_assert_eq!(&out, &portfolio_with_budget(&tasks, cap));
        // A winner exists iff an assignment does, and OPA wins whenever
        // plain OPA would succeed within budget (stage order is fixed).
        prop_assert_eq!(out.winner.is_some(), out.assignment.is_some());
        let opa = audsley_opa(&tasks);
        if opa.assignment.is_some() && opa.stats.checks <= cap {
            prop_assert_eq!(out.winner, Some(PortfolioStage::Opa));
        }
    }

    #[test]
    fn truncation_flag_matches_budget_tuple(tasks in task_set(), cap in 0u64..40) {
        // The satellite fix: `AssignmentStats::truncated` must mirror
        // the tuple flag on both the memoized and reference paths (it
        // used to be dropped on the `u64::MAX` wrapper path).
        let (fast, fast_trunc) = backtracking_with_budget(&tasks, CandidateOrder::Input, cap);
        prop_assert_eq!(fast.stats.truncated, fast_trunc);
        let (naive, naive_trunc) =
            reference::backtracking_with_budget(&tasks, CandidateOrder::Input, cap);
        prop_assert_eq!(naive.stats.truncated, naive_trunc);
        // Bit-identical apart from cache_hits (reference never caches).
        prop_assert_eq!(fast.stats.truncated, naive.stats.truncated);
        prop_assert_eq!(fast.stats.checks, naive.stats.checks);
        prop_assert_eq!(fast.stats.backtracks, naive.stats.backtracks);
        let unbudgeted = backtracking(&tasks);
        prop_assert!(!unbudgeted.stats.truncated);
    }

    #[test]
    fn valid_assignments_survive_reanalysis(tasks in task_set()) {
        // analyze/is_valid_assignment must be deterministic and
        // consistent with the per-level checks used inside the solvers.
        if let Some(pa) = backtracking(&tasks).assignment {
            for _ in 0..3 {
                prop_assert!(is_valid_assignment(&tasks, &pa));
            }
        }
    }
}

/// Task counts straddling the one-word mask boundary (and the next).
const WIDE_COUNTS: [usize; 6] = [63, 64, 65, 70, 128, 129];

/// A wide task set: a small anomaly-prone core (drawn like
/// [`task_set`], at lower utilization) spread across the word boundaries
/// of the mask, padded with "filler" tasks that are stable at any level
/// (one tick of work, a period far beyond every response time, a
/// generous bound). Fillers add one tick of worst-case interference and
/// no best-case interference to every task below them, so where the
/// search seats them moves the core's jitter and with it the search's
/// path, while the core keeps the backtracking non-trivial.
fn wide_set(n: usize, seed: u64) -> Vec<ControlTask> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let core_len = rng.gen_range(3..=5);
    // Core positions: the first and last index, both sides of each word
    // boundary below n, then random free slots.
    let mut slots: Vec<usize> = vec![0, n - 1, 62, 63, 64, 127, 128]
        .into_iter()
        .filter(|&i| i < n)
        .collect();
    slots.dedup();
    while slots.len() < core_len + 2 {
        let i = rng.gen_range(0..n);
        if !slots.contains(&i) {
            slots.push(i);
        }
    }
    let mut picked = Vec::with_capacity(core_len);
    while picked.len() < core_len {
        let i = slots[rng.gen_range(0..slots.len())];
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    (0..n)
        .map(|i| {
            let id = i as u32;
            if picked.contains(&i) {
                let period = rng.gen_range(2u64..40) * 4;
                let cw = (period / rng.gen_range(7u64..12)).max(1);
                let cb = (cw / rng.gen_range(1u64..8)).max(1);
                let a = rng.gen_range(1.0..5.0);
                let b = rng.gen_range(0.3..3.0) * period as f64 * 1e-9;
                ControlTask::from_parts(id, cb, cw, period, a, b).unwrap()
            } else {
                ControlTask::from_parts(id, 1, 1, 1_000_000_000, 1.0, 1.0).unwrap()
            }
        })
        .collect()
}

/// Budgets around every interesting truncation point at task count `n`.
fn wide_budgets(n: u64) -> [u64; 9] {
    [0, 1, 2, n / 2, n - 1, n, n + 1, 3 * n, 10 * n]
}

/// Checks beyond which a wide reference search is not run unbudgeted.
const WIDE_UNBOUNDED_CAP: u64 = 20_000;

#[test]
fn wide_backtracking_is_bit_identical_to_reference() {
    let (mut backtracks, mut truncated, mut decided) = (0u64, 0usize, 0usize);
    for n in WIDE_COUNTS {
        for seed in 0..4u64 {
            let tasks = wide_set(n, seed * 1000 + n as u64);
            for order in [CandidateOrder::Input, CandidateOrder::MaxSlackFirst] {
                for cap in wide_budgets(n as u64) {
                    let (fast, fast_trunc) = backtracking_with_budget(&tasks, order, cap);
                    let (naive, naive_trunc) =
                        reference::backtracking_with_budget(&tasks, order, cap);
                    let ctx = format!("n {n} seed {seed} {order:?} cap {cap}");
                    assert_eq!(fast_trunc, naive_trunc, "{ctx}");
                    assert_eq!(fast.assignment, naive.assignment, "{ctx}");
                    assert_eq!(fast.stats.checks, naive.stats.checks, "{ctx}");
                    assert_eq!(fast.stats.backtracks, naive.stats.backtracks, "{ctx}");
                    assert_eq!(fast.stats.truncated, naive.stats.truncated, "{ctx}");
                    backtracks += naive.stats.backtracks;
                    truncated += usize::from(naive_trunc);
                }
                // Unbounded, where the reference decides within the cap.
                let (capped, capped_trunc) =
                    reference::backtracking_with_budget(&tasks, order, WIDE_UNBOUNDED_CAP);
                if !capped_trunc {
                    let fast = backtracking_with_order(&tasks, order);
                    let naive = reference::backtracking_with_order(&tasks, order);
                    let ctx = format!("n {n} seed {seed} {order:?} unbounded");
                    assert_eq!(naive, capped, "{ctx}");
                    assert_eq!(fast.assignment, naive.assignment, "{ctx}");
                    assert_eq!(fast.stats.checks, naive.stats.checks, "{ctx}");
                    assert_eq!(fast.stats.backtracks, naive.stats.backtracks, "{ctx}");
                    assert!(!fast.stats.truncated, "{ctx}");
                    backtracks += naive.stats.backtracks;
                    decided += 1;
                }
            }
        }
    }
    // Not vacuous: the family backtracks, truncates and decides.
    assert!(backtracks > 0, "no wide case backtracked");
    assert!(
        truncated > 0 && decided > 0,
        "{truncated} truncated, {decided} decided"
    );
}

#[test]
fn wide_opa_and_unsafe_quadratic_are_bit_identical_to_reference() {
    for n in WIDE_COUNTS {
        for seed in 0..4u64 {
            let tasks = wide_set(n, seed * 1000 + n as u64);
            for cap in wide_budgets(n as u64).into_iter().chain([u64::MAX]) {
                let (fast, fast_trunc) = audsley_opa_with_budget(&tasks, cap);
                let (naive, naive_trunc) = reference::audsley_opa_with_budget(&tasks, cap);
                let ctx = format!("n {n} seed {seed} cap {cap}");
                assert_eq!(fast_trunc, naive_trunc, "{ctx}");
                assert_eq!(fast.assignment, naive.assignment, "{ctx}");
                assert_eq!(fast.stats.checks, naive.stats.checks, "{ctx}");
                assert_eq!(fast.stats.truncated, naive.stats.truncated, "{ctx}");
            }
            let fast = unsafe_quadratic(&tasks);
            let naive = reference::unsafe_quadratic(&tasks);
            assert_eq!(fast.assignment, naive.assignment, "n {n} seed {seed}");
            assert_eq!(fast.stats.checks, naive.stats.checks, "n {n} seed {seed}");
        }
    }
}

//! Event-queue simulation core (DESIGN.md §12).
//!
//! The reference loop (`reference.rs`) pays three O(n) scans per
//! scheduling event: a release sweep over all tasks, a `max_by_key` over
//! the ready queue, and a `min` over the next-release vector. This core
//! replaces them with
//!
//! 1. a **release queue**: a [`BinaryHeap`] of [`QueuedRelease`] with
//!    flipped `Ord` (Rust's heap is a max-heap, so ordering is reversed
//!    to pop the minimum), keyed by `(time, task_index)` — the exact
//!    order the reference release sweep visits tasks, which is observable
//!    through stateful execution policies and the trace; and
//! 2. a **ready set**: tasks keyed by priority *rank* in one
//!    [`TaskMask`] at every task count (the highest ready rank is the
//!    top set bit: O(1) per mask word), plus one FIFO job queue per task
//!    (jobs of one task complete in release order).
//!
//! Completions need no queued events at all: the running job is always
//! the front of the highest-ranked ready queue, so its finish time is
//! implicit (`now + remaining`) and never needs invalidating on
//! preemption. Each event therefore costs O(log n) heap maintenance
//! instead of Θ(n) scans, and an idle processor jumps straight to the
//! next release.
//!
//! The loop structure below mirrors the reference loop step for step;
//! the differential suite (`tests/differential.rs`) pins the two
//! bit-identical across task sets, offsets, policies, and horizons.

use crate::policy::ExecutionPolicy;
use crate::simulator::{finalize_stats, init_stats, SimOutcome, Simulator, TraceEvent};
use csa_rta::{TaskMask, Ticks};
use std::collections::{BinaryHeap, VecDeque};

/// A pending job release. `Ord` is flipped so that [`BinaryHeap`] (a
/// max-heap) pops the earliest `(time, task_index)` first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct QueuedRelease {
    time: Ticks,
    task_index: usize,
}

impl Ord for QueuedRelease {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.task_index.cmp(&self.task_index))
    }
}

impl PartialOrd for QueuedRelease {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A pending job of one task (the task index is the queue it sits in).
#[derive(Debug, Clone, Copy)]
struct Job {
    release: Ticks,
    remaining: Ticks,
}

/// Runs the simulation on the event-queue core. Public API:
/// [`Simulator::run`]. Semantics are bit-identical to
/// [`crate::reference::run`].
pub(crate) fn run<P: ExecutionPolicy + ?Sized>(
    sim: &Simulator,
    horizon: Ticks,
    policy: &mut P,
) -> SimOutcome {
    let n = sim.tasks.len();
    let mut sink = sim.trace_sink();
    let mut stats = init_stats(&sim.tasks);
    let mut job_count = vec![0u64; n];
    let mut queues: Vec<VecDeque<Job>> = vec![VecDeque::new(); n];
    // Ranks with at least one pending job (`n - 1` = highest priority).
    let mut ready = TaskMask::empty(n);
    let mut releases: BinaryHeap<QueuedRelease> = BinaryHeap::with_capacity(n + 1);
    for (i, t) in sim.tasks.iter().enumerate() {
        // Releases at or past the horizon never happen (matching the
        // reference sweep's `next_release[i] < horizon` guard), so they
        // never enter the heap and the heap holds at most one entry per
        // task.
        if t.offset < horizon {
            releases.push(QueuedRelease {
                time: t.offset,
                task_index: i,
            });
        }
    }

    let mut now = Ticks::ZERO;
    loop {
        // Release every job due at `now`, ending with the next pending
        // release time in hand (one heap inspection serves both the
        // sweep and the slice-cut below). The heap never holds a release
        // in the past: busy intervals are cut at the next release and
        // idle intervals jump straight to it. A task's next release
        // replaces its current heap entry in place (`PeekMut` re-sifts
        // on drop: one sift instead of a pop + push pair).
        let next_rel: Option<Ticks> = loop {
            let Some(mut top) = releases.peek_mut() else {
                break None;
            };
            let QueuedRelease { time, task_index } = *top;
            if time > now {
                break Some(time);
            }
            let next = time + sim.tasks[task_index].task.period();
            if next < horizon {
                top.time = next;
                drop(top);
            } else {
                std::collections::binary_heap::PeekMut::pop(top);
            }
            let c = sim.execution_time(policy, task_index, job_count[task_index]);
            job_count[task_index] += 1;
            queues[task_index].push_back(Job {
                release: time,
                remaining: c,
            });
            ready.insert(sim.rank_of[task_index]);
            sink.push(TraceEvent::Release {
                at: time,
                task_id: sim.tasks[task_index].task.id(),
            });
        };

        // The running job is the front (earliest release) of the
        // highest-ranked ready queue.
        let Some(rank) = ready.highest() else {
            // Idle: jump to the next release, or stop.
            match next_rel {
                Some(r) => {
                    now = r;
                    continue;
                }
                None => break,
            }
        };
        let ti = sim.task_at_rank[rank];
        let job = queues[ti].front_mut().expect("ready task has a queued job");
        let finish_at = now + job.remaining;
        let until = match next_rel {
            Some(r) if r < finish_at => r,
            _ => finish_at,
        };
        // Never run past the horizon.
        let until = until.min(horizon);
        if until > now {
            sink.push(TraceEvent::Run {
                from: now,
                to: until,
                task_id: sim.tasks[ti].task.id(),
            });
            job.remaining -= until - now;
        }
        if job.remaining.is_zero() {
            let done = queues[ti].pop_front().expect("front job just ran");
            if queues[ti].is_empty() {
                ready.remove(rank);
            }
            let response = until - done.release;
            let s = &mut stats[ti];
            s.completed += 1;
            s.total += response;
            s.min = s.min.min(response);
            s.max = s.max.max(response);
            if response > sim.tasks[ti].task.period() {
                s.deadline_misses += 1;
            }
            sink.push(TraceEvent::Completion {
                at: until,
                task_id: sim.tasks[ti].task.id(),
                response,
            });
        }
        if until >= horizon {
            break;
        }
        now = until;
    }

    for (s, q) in stats.iter_mut().zip(&queues) {
        s.in_flight = q.len() as u64;
    }
    finalize_stats(&mut stats);
    let (trace, trace_dropped) = sink.finish();
    SimOutcome {
        stats,
        trace,
        trace_dropped,
        horizon,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn release_heap_pops_time_then_task_index() {
        let mut heap = BinaryHeap::new();
        for (time, task_index) in [(5u64, 1usize), (3, 2), (5, 0), (3, 0), (9, 3)] {
            heap.push(QueuedRelease {
                time: Ticks::new(time),
                task_index,
            });
        }
        let mut popped = Vec::new();
        while let Some(r) = heap.pop() {
            popped.push((r.time.get(), r.task_index));
        }
        assert_eq!(popped, vec![(3, 0), (3, 2), (5, 0), (5, 1), (9, 3)]);
    }
}

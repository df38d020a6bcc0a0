//! The deterministic work-stealing job runner.
//!
//! Workers are plain `std::thread`s pulling job indices off a shared
//! atomic cursor — the cheapest possible work-stealing queue for jobs
//! that are each seconds of pure computation. Determinism needs no
//! coordination: every job's RNG seed is a pure function of the
//! campaign spec (see `spec::derive_seed`), and results land in a slot
//! vector indexed by job position, so the returned order — and every
//! byte derived from it — is independent of thread count and
//! scheduling.

use crate::progress::{Counter, Progress};
use crate::result::JobResult;
use crate::spec::{CampaignSpec, Job};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A sensible worker-thread default: the machine's available
/// parallelism, or 1 when that cannot be determined.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `jobs` on `threads` workers, returning results in job order
/// (`results[i]` belongs to `jobs[i]`). Workers steal one job at a time,
/// and `on_done` fires on the worker thread as soon as each job
/// finishes — campaigns use it to stream checkpoint lines and progress.
pub(crate) fn execute(
    spec: &CampaignSpec,
    jobs: &[Job],
    threads: usize,
    progress: &dyn Progress,
    on_done: &(dyn Fn(&Job, &JobResult) + Sync),
) -> Vec<JobResult> {
    let total = jobs.len();
    let threads = threads.max(1).min(total.max(1));
    let counter = Counter::default();
    let finish = |job: &Job| {
        let result = spec.run_job(job);
        on_done(job, &result);
        progress.job_done(counter.bump(), total, job, &result);
        result
    };

    if threads == 1 {
        // The parallel path degenerates to this loop; keeping it
        // explicit avoids thread spawn overhead for serial runs and
        // makes the equivalence easy to see.
        return jobs.iter().map(finish).collect();
    }

    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<JobResult>>> = (0..total).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else {
                    break;
                };
                let result = finish(job);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every job index below total was executed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progress::Silent;
    use crate::spec::{FabricSpec, PatternSpec, SimParams};

    fn tiny_campaign() -> CampaignSpec {
        CampaignSpec::new("runner-test")
            .fabric(FabricSpec::Flat2d { radix: 8 })
            .pattern(PatternSpec::Uniform)
            .loads([0.05, 0.1, 0.15, 0.2])
            .sim(SimParams::new().cycles(100, 500, 500))
    }

    #[test]
    fn parallel_results_equal_serial_results_in_order() {
        let spec = tiny_campaign();
        let jobs = spec.jobs();
        let serial = execute(&spec, &jobs, 1, &Silent, &|_, _| {});
        let parallel = execute(&spec, &jobs, 4, &Silent, &|_, _| {});
        assert_eq!(serial, parallel);
        assert!(serial.iter().enumerate().all(|(i, r)| r.index == i));
    }

    #[test]
    fn on_done_fires_once_per_job() {
        let spec = tiny_campaign();
        let jobs = spec.jobs();
        let fired = AtomicUsize::new(0);
        execute(&spec, &jobs, 3, &Silent, &|_, _| {
            fired.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(fired.load(Ordering::Relaxed), jobs.len());
    }

    #[test]
    fn empty_job_list_is_fine() {
        let spec = tiny_campaign().loads([]);
        assert!(execute(&spec, &[], 4, &Silent, &|_, _| {}).is_empty());
    }

    #[test]
    fn batched_replicates_equal_solo_runs() {
        let spec = tiny_campaign().loads([0.05, 0.1]).replicates(3);
        let jobs = spec.jobs();
        let solo: Vec<_> = jobs.iter().map(|j| spec.run_job(j)).collect();
        let batched = execute(&spec, &jobs, 1, &Silent, &|_, _| {});
        assert_eq!(solo, batched);
        let parallel = execute(&spec, &jobs, 4, &Silent, &|_, _| {});
        assert_eq!(solo, parallel);
    }
}

//! Layer 1: the seed-matrix executor.
//!
//! A [`SweepProduct`] is a static job set — every `(scenario, seed)` pair,
//! each an independent deterministic [`Scenario`] run. [`SweepPool`] hands
//! the jobs out one at a time from one shared cursor over the product's
//! index space: job `i` is scenario `i / seeds` at serial position
//! `i % seeds`. A worker that finishes a job claims the next unclaimed
//! index, so no worker idles while a job is left to start, and a worker
//! exits once the cursor has passed the last job (no work is ever
//! *produced* at runtime). The calling thread is worker 0; a run spawns
//! only the other `workers − 1`.
//!
//! Determinism: each job's [`Outcome`] depends only on `(scenario, seed)`,
//! never on which worker ran it or when. Each worker returns the jobs it
//! ran with their outcomes; the run sorts them by job index and files job
//! `i` at [`SeedRun::order`] `i % seeds` of scenario `i / seeds`'s matrix —
//! so the result is [`Scenario::seeds`] run serially, at every worker count
//! and however the workers' claims interleave.
//! `tests/sweep_parallel.rs` pins this.

use broadcast::{Outcome, Scenario, SeedMatrix, SeedRun, SweepJob};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The executor's input: a list of scenarios (each already binding a
/// topology, workload, params and fault plan) crossed with one seed
/// sequence. Build with the chainable setters, then hand to
/// [`SweepPool::run`].
#[derive(Clone, Debug, Default)]
pub struct SweepProduct {
    scenarios: Vec<Scenario>,
    seeds: Vec<u64>,
}

impl SweepProduct {
    /// An empty product.
    pub fn new() -> Self {
        SweepProduct::default()
    }

    /// Adds one scenario to the product.
    pub fn scenario(mut self, scenario: Scenario) -> Self {
        self.scenarios.push(scenario);
        self
    }

    /// Adds several scenarios.
    pub fn scenarios(mut self, scenarios: impl IntoIterator<Item = Scenario>) -> Self {
        self.scenarios.extend(scenarios);
        self
    }

    /// Sets the seed sequence every scenario is swept over — a range
    /// (`0..64`) or an explicit list (what service requests carry).
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// The scenarios of the product, in submission order.
    pub fn scenario_list(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// The seed sequence.
    pub fn seed_list(&self) -> &[u64] {
        &self.seeds
    }

    /// Number of jobs in the product (`scenarios × seeds`).
    pub fn job_count(&self) -> usize {
        self.scenarios.len() * self.seeds.len()
    }
}

/// Hooks into a running sweep. All methods are called from worker threads,
/// the calling thread (worker 0) included.
pub trait SweepObserver: Sync {
    /// Called once per completed job, with the job's outcome. Outcomes
    /// arrive in completion order, which interleaves the workers' jobs and
    /// is not serial order; each is tagged with its serial position via
    /// [`SweepJob::order`].
    fn outcome(&self, job: SweepJob, scenario: &Scenario, outcome: &Outcome) {
        let _ = (job, scenario, outcome);
    }

    /// Called, in place of [`SweepObserver::outcome`], once per job whose
    /// run panicked, with the panic's message. The job adds no run to the
    /// matrices; its worker drops its prepared topology of the scenario and
    /// keeps claiming jobs. The default re-raises the panic, naming the job.
    fn failed(&self, job: SweepJob, scenario: &Scenario, reason: &str) {
        panic!("sweep job {job:?} of {} panicked: {reason}", scenario.label());
    }

    /// Polled between jobs. Returning `true` drains the sweep cleanly:
    /// in-flight jobs finish (and are observed), no new job starts, and
    /// [`SweepPool::run_observed`] returns the partial matrices.
    fn cancelled(&self) -> bool {
        false
    }
}

/// The no-op observer ([`SweepPool::run`]).
impl SweepObserver for () {}

/// A sweep pool over `std::thread`. Worker count defaults to
/// [`std::thread::available_parallelism`]; override with
/// [`SweepPool::workers`]. The pool holds no threads between runs — each
/// [`SweepPool::run`] works on the calling thread as worker 0, spawns
/// `workers − 1` scoped helpers, and joins them before returning.
#[derive(Clone, Copy, Debug)]
pub struct SweepPool {
    workers: Option<usize>,
}

impl Default for SweepPool {
    fn default() -> Self {
        SweepPool::new()
    }
}

impl SweepPool {
    /// A pool sized to the machine ([`std::thread::available_parallelism`]).
    pub fn new() -> Self {
        SweepPool { workers: None }
    }

    /// Overrides the worker count (the knob; clamped to at least 1). The
    /// calling thread is always worker 0, so one worker spawns no thread.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// The worker count a run will use.
    pub fn worker_count(&self) -> usize {
        self.workers
            .unwrap_or_else(|| std::thread::available_parallelism().map(usize::from).unwrap_or(1))
    }

    /// Runs the whole product and returns one [`SeedMatrix`] per
    /// scenario (in scenario order), bit-identical to calling
    /// [`Scenario::seeds`] on each scenario serially.
    pub fn run(&self, product: &SweepProduct) -> Vec<SeedMatrix> {
        self.run_observed(product, &())
    }

    /// [`SweepPool::run`] with per-outcome streaming, cancellation and
    /// failed jobs — what the service's submit loop drives. The returned
    /// matrices hold exactly the jobs that completed: on cancellation a
    /// clean drain, never a torn run, and no run for a job that panicked
    /// (see [`SweepObserver::failed`]).
    pub fn run_observed(
        &self,
        product: &SweepProduct,
        observer: &(impl SweepObserver + ?Sized),
    ) -> Vec<SeedMatrix> {
        let workers = self.worker_count().min(product.job_count().max(1));
        let next = AtomicUsize::new(0);
        let work = || run_worker(product, &next, observer);
        let mut done = std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
            let mut done = work();
            for helper in helpers {
                match helper.join() {
                    Ok(jobs) => done.extend(jobs),
                    // A worker panics only when its observer re-raised a
                    // job's panic (the default `failed`): re-raise it here.
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            done
        });
        // `(scenario, order)` is the job index, `scenario × seeds + order`.
        done.sort_unstable_by_key(|(job, _)| (job.scenario, job.order));
        let mut matrices: Vec<SeedMatrix> = product
            .scenarios
            .iter()
            .map(|s| SeedMatrix { label: s.label(), runs: Vec::new() })
            .collect();
        for (SweepJob { scenario, order, seed }, outcome) in done {
            matrices[scenario].runs.push(SeedRun { order, seed, outcome });
        }
        matrices
    }
}

/// One worker: claim the next job index from the shared cursor until the
/// cursor passes the last job or the observer cancels, and return the jobs
/// it ran with their outcomes.
fn run_worker(
    product: &SweepProduct,
    next: &AtomicUsize,
    observer: &(impl SweepObserver + ?Sized),
) -> Vec<(SweepJob, Outcome)> {
    let SweepProduct { scenarios, seeds } = product;
    // Worker-local prepared topologies, built lazily on first use: builds
    // are deterministic, so every worker's copy runs identically; a
    // streamed topology's neighborhood buffer is single-threaded by design.
    let mut prepared: Vec<Option<broadcast::PreparedTopology>> = Vec::new();
    prepared.resize_with(scenarios.len(), || None);
    let mut done = Vec::new();

    while !observer.cancelled() {
        // The cursor only hands out distinct indices; it publishes no data
        // (the product is shared read-only, outcomes return through `join`).
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= product.job_count() {
            break;
        }
        let order = i % seeds.len();
        let job = SweepJob { scenario: i / seeds.len(), order: order as u64, seed: seeds[order] };
        let scenario = &scenarios[job.scenario];
        let topo = &mut prepared[job.scenario];
        // Each run clones the prepared topology, so a panic cannot tear it;
        // it is dropped below all the same and rebuilt on the next job.
        let run = catch_unwind(AssertUnwindSafe(|| {
            scenario.run_seed(topo.get_or_insert_with(|| scenario.prepare()), job.seed)
        }));
        match run {
            Ok(outcome) => {
                observer.outcome(job, scenario, &outcome);
                done.push((job, outcome));
            }
            Err(payload) => {
                *topo = None;
                observer.failed(job, scenario, panic_text(&*payload));
            }
        }
    }
    done
}

/// The message of a caught panic (`panic!` payloads are `&str` or `String`).
fn panic_text(payload: &(dyn Any + Send)) -> &str {
    match payload.downcast_ref::<&str>() {
        Some(text) => text,
        None => payload.downcast_ref::<String>().map_or("non-string panic payload", String::as_str),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use broadcast::{Algo, TopologySpec, Workload};

    fn decay_path(n: usize) -> Scenario {
        Scenario::new(TopologySpec::Path { n }, Workload::Baseline(Algo::Decay { payload: 7 }))
    }

    /// The full-field comparison: `Debug` formatting covers every field of
    /// every outcome (plans, stats, audit, phases), so equal debug strings
    /// mean bit-identical matrices.
    fn assert_identical(a: &[SeedMatrix], b: &[SeedMatrix]) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn parallel_matches_serial_across_worker_counts() {
        let wide =
            SweepProduct::new().scenario(decay_path(10)).scenario(decay_path(17)).seeds(0..12);
        // More workers than jobs: the surplus helpers find the cursor spent.
        let narrow = SweepProduct::new().scenario(decay_path(9)).seeds(0..3);
        for (product, workers) in [(&wide, 1), (&wide, 2), (&wide, 3), (&wide, 8), (&narrow, 8)] {
            let serial: Vec<SeedMatrix> = product
                .scenario_list()
                .iter()
                .map(|s| s.seeds(product.seed_list().iter().copied()))
                .collect();
            let parallel = SweepPool::new().workers(workers).run(product);
            assert_identical(&parallel, &serial);
        }
    }

    #[test]
    fn the_calling_thread_is_worker_zero() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        use std::thread::ThreadId;
        struct Threads(Mutex<HashSet<ThreadId>>);
        impl SweepObserver for Threads {
            fn outcome(&self, _: SweepJob, _: &Scenario, _: &Outcome) {
                self.0.lock().expect("thread set poisoned").insert(std::thread::current().id());
            }
        }
        // 32 jobs of over a millisecond each (~1.5 ms in release): the caller
        // claims its first job long before one helper could drain them all.
        let product = SweepProduct::new().scenario(decay_path(120)).seeds(0..32);
        let threads = Threads(Mutex::new(HashSet::new()));
        SweepPool::new().workers(2).run_observed(&product, &threads);
        let threads = threads.0.into_inner().expect("thread set poisoned");
        assert!(threads.len() <= 2, "{} threads ran jobs", threads.len());
        assert!(threads.contains(&std::thread::current().id()), "the calling thread ran no job");
    }

    #[test]
    fn explicit_seed_lists_sweep_in_order() {
        let seeds = [9u64, 2, 9, 4]; // duplicates allowed: independent runs
        let product = SweepProduct::new().scenario(decay_path(8)).seeds(seeds.iter().copied());
        let parallel = SweepPool::new().workers(2).run(&product);
        let serial = product.scenario_list()[0].seeds(seeds.iter().copied());
        assert_identical(&parallel, &[serial]);
        assert_eq!(
            parallel[0].runs.iter().map(|r| r.seed).collect::<Vec<_>>(),
            seeds.to_vec(),
            "runs must land in sweep order, not sorted-seed order"
        );
    }

    #[test]
    fn empty_product_returns_empty_matrices() {
        let product = SweepProduct::new().scenario(decay_path(5));
        let out = SweepPool::new().workers(4).run(&product);
        assert_eq!(out.len(), 1);
        assert!(out[0].is_empty());
    }

    #[test]
    fn cancellation_drains_cleanly() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct CancelAfter {
            seen: AtomicUsize,
            limit: usize,
        }
        impl SweepObserver for CancelAfter {
            fn outcome(&self, _: SweepJob, _: &Scenario, _: &Outcome) {
                self.seen.fetch_add(1, Ordering::SeqCst);
            }
            fn cancelled(&self) -> bool {
                self.seen.load(Ordering::SeqCst) >= self.limit
            }
        }
        let product = SweepProduct::new().scenario(decay_path(8)).seeds(0..64);
        let obs = CancelAfter { seen: AtomicUsize::new(0), limit: 5 };
        let out = SweepPool::new().workers(2).run_observed(&product, &obs);
        let ran = out[0].len();
        assert!(ran < 64, "cancellation never took effect");
        assert_eq!(ran, obs.seen.load(std::sync::atomic::Ordering::SeqCst));
        // The partial matrix is still in serial order: orders strictly
        // ascending, every run complete.
        for pair in out[0].runs.windows(2) {
            assert!(pair[0].order < pair[1].order);
        }
    }

    #[test]
    fn a_panicking_job_fails_alone() {
        use broadcast::{EmptyBehavior, SlowKey};
        use radio_sim::Graph;
        use rlnc::gf2::BitVec;
        use std::sync::Mutex;
        struct Failures(Mutex<Vec<(SweepJob, String)>>);
        impl SweepObserver for Failures {
            fn failed(&self, job: SweepJob, _: &Scenario, reason: &str) {
                self.0.lock().expect("failure list poisoned").push((job, reason.to_string()));
            }
        }
        // Two components: the spec passes `validate()`, but the GST of the
        // known-topology run cannot reach nodes 2 and 3.
        let split = Graph::from_edges(4, [(0, 1), (2, 3)]).expect("valid edges");
        let workload = Workload::MultiKnown {
            messages: vec![BitVec::from_u64(5, 8)],
            slow_key: SlowKey::VirtualDistance,
            empty: EmptyBehavior::Silent,
        };
        let broken = Scenario::new(TopologySpec::custom(split), workload);
        assert_eq!(broken.validate(), Ok(()));
        let product = SweepProduct::new().scenario(decay_path(8)).scenario(broken).seeds(0..4);
        let failures = Failures(Mutex::new(Vec::new()));
        let out = SweepPool::new().workers(2).run_observed(&product, &failures);
        assert_identical(&out[..1], &[decay_path(8).seeds(0..4)]);
        assert!(out[1].is_empty(), "a panicked job left a run behind");
        let mut failures = failures.0.into_inner().expect("failure list poisoned");
        failures.sort_by_key(|(job, _)| job.order);
        let orders: Vec<u64> = failures.iter().map(|(job, _)| job.order).collect();
        assert_eq!(orders, [0, 1, 2, 3]);
        for (job, reason) in &failures {
            assert_eq!((job.scenario, job.seed), (1, job.order));
            assert!(reason.contains("every node must be reachable from the root set"), "{reason}");
        }
        // Without an observer that takes failures, the sweep still panics.
        let run = catch_unwind(|| SweepPool::new().workers(2).run(&product));
        assert!(run.is_err(), "the default observer swallowed a panic");
    }

    #[test]
    fn worker_count_defaults_to_the_machine() {
        let pool = SweepPool::new();
        assert!(pool.worker_count() >= 1);
        assert_eq!(pool.workers(0).worker_count(), 1, "zero clamps to one");
        assert_eq!(pool.workers(7).worker_count(), 7);
    }
}

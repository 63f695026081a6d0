//! The worker side of the event front end: a **bounded, long-lived**
//! `SolveQueue` drained by a resident `WorkerPool`.
//!
//! No async runtime: workers are named `std::thread`s blocking on the
//! queue's condvar, and each completion travels back to the event loop
//! over an `mpsc` channel followed by a self-pipe wake. Completions carry
//! their connection ticket and batch index, so the loop reassembles
//! answers by request position — worker count and OS scheduling affect
//! only wall-clock time, never payloads (each query's answer is solved
//! from a per-query seed, not from shared RNG state).
//!
//! The bound is the admission-control backstop — when the queue is full
//! the server sheds with `ERR busy` rather than buffering without limit —
//! and workers apply the optional queue *deadline*: a job that sat
//! queued longer than the client would plausibly wait is shed at dequeue
//! time instead of wasting a solve.

use std::collections::VecDeque;
use std::sync::{mpsc, Arc, Condvar, Mutex};

use fairhms_obs::sync::{lock_or_recover, wait_or_recover};
use std::time::Instant;

use crate::engine::{QueryEngine, QueryResponse};
use crate::metrics::ServiceMetrics;
use crate::protocol::Response;
use crate::query::Query;
use crate::reactor::Waker;
use crate::server::{self, ServeOptions};
use crate::ServiceError;

/// What a queued job executes on a worker.
#[derive(Debug)]
pub(crate) enum WorkItem {
    /// A query solve (subject to deadline shedding).
    Solve(Box<Query>),
    /// The `LOAD` admin verb: disk read + dataset preparation — heavy
    /// enough that running it on the event loop would stall every
    /// connection. Operator-issued and rare, so it bypasses the queue
    /// bound ([`SolveQueue::push_control`]) and is never deadline-shed.
    Load { name: String, path: String },
    /// The `APPEND` mutation verb: incremental skyline maintenance plus
    /// delta cache invalidation — catalog work that must stay off the
    /// event loop, admitted exactly like `Load`.
    Append {
        name: String,
        row: Vec<f64>,
        group: usize,
    },
    /// The `DELETE` mutation verb; see `Append`.
    Delete { name: String, row: usize },
}

impl WorkItem {
    /// Executes a *control* work item inline, producing its response.
    /// Shared by the worker arm and the event loop's closed-queue
    /// fallback so the two paths cannot drift.
    ///
    /// # Panics
    /// On [`WorkItem::Solve`] — solves are not control verbs.
    pub(crate) fn run_control(self, engine: &QueryEngine, opts: &ServeOptions) -> Response {
        match self {
            WorkItem::Load { name, path } => server::handle_load(engine, opts, &name, &path),
            WorkItem::Append { name, row, group } => {
                let outcome = engine.append_row(&name, &row, group);
                server::mutated(name, "append", outcome)
            }
            WorkItem::Delete { name, row } => {
                let outcome = engine.delete_row(&name, row);
                server::mutated(name, "delete", outcome)
            }
            WorkItem::Solve(_) => unreachable!("solves are not control verbs"),
        }
    }
}

/// One job admitted into the global queue, addressed back to its
/// connection by `(conn slot, generation, ticket)` — the generation
/// guards against a slot being reused by a new connection while an old
/// job is still in flight.
#[derive(Debug)]
pub(crate) struct SolveJob {
    /// Connection slab slot.
    pub conn: usize,
    /// Slot generation at enqueue time.
    pub generation: u64,
    /// Per-connection response-order ticket.
    pub ticket: u64,
    /// Index within the owning batch (`None` for single queries and
    /// control verbs).
    pub batch_index: Option<usize>,
    /// What to execute.
    pub work: WorkItem,
    /// When the job entered the queue (deadline shedding + queue_wait).
    pub enqueued: Instant,
}

/// The outcome a worker reports for one job.
#[derive(Debug)]
pub(crate) enum WorkDone {
    /// A solve (or its deadline shed); the query is carried through so
    /// the loop can log slow solves.
    Solve {
        query: Box<Query>,
        result: Result<QueryResponse, ServiceError>,
    },
    /// A control verb's ready-to-encode response.
    Control(Response),
}

/// A completed job, routed back to the event loop.
#[derive(Debug)]
pub(crate) struct SolveDone {
    /// Connection slab slot.
    pub conn: usize,
    /// Slot generation at enqueue time.
    pub generation: u64,
    /// Per-connection response-order ticket.
    pub ticket: u64,
    /// Index within the owning batch (`None` for single queries and
    /// control verbs).
    pub batch_index: Option<usize>,
    /// The outcome.
    pub done: WorkDone,
}

struct QueueState {
    jobs: VecDeque<SolveJob>,
    closed: bool,
}

/// The bounded global solve queue between the event loop and the
/// `WorkerPool`. `try_push` never blocks — a full (or closed) queue
/// hands the job back so the caller sheds it — and the queue maintains
/// the `queue.depth` gauge itself, so STATS and the shed tests see an
/// exact depth, not an approximation.
pub(crate) struct SolveQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    cap: usize,
    metrics: Arc<ServiceMetrics>,
}

impl SolveQueue {
    /// A queue admitting at most `cap` waiting jobs (0 sheds everything —
    /// the deterministic-overload test hook).
    pub fn new(cap: usize, metrics: Arc<ServiceMetrics>) -> Arc<SolveQueue> {
        Arc::new(SolveQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            cap,
            metrics,
        })
    }

    /// Admits `job`, or hands it back when the queue is full or closed.
    pub fn try_push(&self, job: SolveJob) -> Result<(), SolveJob> {
        let mut st = lock_or_recover(&self.state);
        if st.closed || st.jobs.len() >= self.cap {
            return Err(job);
        }
        st.jobs.push_back(job);
        self.metrics.queue_depth.inc();
        drop(st);
        self.ready.notify_one();
        Ok(())
    }

    /// Admits a control job past the capacity bound — operator verbs are
    /// never shed. Hands the job back only once the queue is closed
    /// (server teardown), when the caller must answer it itself.
    pub fn push_control(&self, job: SolveJob) -> Result<(), SolveJob> {
        let mut st = lock_or_recover(&self.state);
        if st.closed {
            return Err(job);
        }
        st.jobs.push_back(job);
        self.metrics.queue_depth.inc();
        drop(st);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` once the queue is closed and
    /// drained (the worker's exit signal).
    pub fn pop(&self) -> Option<SolveJob> {
        let mut st = lock_or_recover(&self.state);
        loop {
            if let Some(job) = st.jobs.pop_front() {
                self.metrics.queue_depth.dec();
                return Some(job);
            }
            if st.closed {
                return None;
            }
            st = wait_or_recover(&self.ready, st);
        }
    }

    /// Jobs currently waiting.
    pub fn depth(&self) -> usize {
        lock_or_recover(&self.state).jobs.len()
    }

    /// Stops admission and wakes every blocked worker; queued jobs still
    /// drain before workers exit.
    pub fn close(&self) {
        lock_or_recover(&self.state).closed = true;
        self.ready.notify_all();
    }
}

/// The resident worker threads draining a `SolveQueue`. Each completed
/// solve is sent over the `done` channel and followed by a [`Waker`]
/// kick, so the event loop learns about it immediately instead of on its
/// next timeout.
pub(crate) struct WorkerPool {
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads. `opts.queue_deadline_ms` is the
    /// queue-time budget: a solve dequeued after sitting longer is shed
    /// (typed busy error carrying retry advice) instead of executed;
    /// control jobs are exempt. `opts` also parameterizes control verbs
    /// (the `LOAD` root).
    pub fn spawn(
        workers: usize,
        engine: Arc<QueryEngine>,
        queue: Arc<SolveQueue>,
        done: mpsc::Sender<SolveDone>,
        waker: Waker,
        opts: Arc<ServeOptions>,
    ) -> WorkerPool {
        let workers = workers.max(1);
        let handles = (0..workers)
            .map(|i| {
                let engine = Arc::clone(&engine);
                let queue = Arc::clone(&queue);
                let done = done.clone();
                let waker = waker.clone();
                let opts = Arc::clone(&opts);
                std::thread::Builder::new()
                    .name(format!("fairhms-worker-{i}"))
                    .spawn(move || {
                        while let Some(job) = queue.pop() {
                            let m = engine.metrics();
                            let waited = job.enqueued.elapsed();
                            if m.enabled() {
                                m.queue_wait
                                    .record(waited.as_nanos().min(u64::MAX as u128) as u64);
                            }
                            let done_item = match job.work {
                                WorkItem::Solve(query) => {
                                    let result = match opts.queue_deadline_ms {
                                        Some(d) if waited.as_millis() > u128::from(d) => {
                                            m.shed_total.inc();
                                            Err(ServiceError::Busy {
                                                reason: format!(
                                                    "queue deadline exceeded ({} ms queued, budget {d} ms)",
                                                    waited.as_millis()
                                                ),
                                                retry_after_ms: m
                                                    .retry_after_ms(queue.depth(), workers),
                                            })
                                        }
                                        _ => {
                                            let _run = m.recorder().span(&m.run);
                                            engine.execute(&query)
                                        }
                                    };
                                    WorkDone::Solve { query, result }
                                }
                                control => WorkDone::Control(control.run_control(&engine, &opts)),
                            };
                            let out = SolveDone {
                                conn: job.conn,
                                generation: job.generation,
                                ticket: job.ticket,
                                batch_index: job.batch_index,
                                done: done_item,
                            };
                            if done.send(out).is_err() {
                                break; // event loop gone; nothing to report to
                            }
                            waker.wake();
                        }
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool { handles }
    }

    /// Waits for every worker to exit. Call [`SolveQueue::close`] first,
    /// or this blocks forever.
    pub fn join(self) {
        for h in self.handles {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests stamp queue deadlines directly
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use fairhms_data::Dataset;
    use std::sync::Arc;

    fn engine() -> QueryEngine {
        let catalog = Arc::new(Catalog::new());
        let points = vec![
            1.0, 0.1, 0.8, 0.6, 0.2, 0.9, 0.9, 0.3, 0.4, 0.8, 0.7, 0.7, 0.6, 0.75, 0.95, 0.2,
        ];
        let data = Dataset::new("toy", 2, points, vec![0, 1, 0, 1, 0, 1, 0, 1], vec![]).unwrap();
        catalog.insert_dataset(data).unwrap();
        QueryEngine::new(catalog, 256)
    }

    fn batch() -> Vec<Query> {
        let mut qs = Vec::new();
        for k in 2..=4 {
            for alg in ["intcov", "bigreedy", "f-greedy"] {
                let mut q = Query::new("toy", k);
                q.alg = alg.into();
                qs.push(q);
            }
        }
        // include a failing slot: unknown dataset
        qs.push(Query::new("absent", 2));
        qs
    }

    fn payloads(results: &[Result<QueryResponse, ServiceError>]) -> Vec<Option<Vec<usize>>> {
        results
            .iter()
            .map(|r| r.as_ref().ok().map(|resp| resp.answer.indices.clone()))
            .collect()
    }

    /// Runs `queries` through a `workers`-wide pool as one batch (the
    /// event loop's shape: one job per slot, tagged with its index) and
    /// reassembles the completions by batch index.
    fn run_pool(
        eng: &Arc<QueryEngine>,
        workers: usize,
        queries: &[Query],
    ) -> Vec<Result<QueryResponse, ServiceError>> {
        let queue = SolveQueue::new(queries.len(), Arc::clone(eng.metrics()));
        let (_pipe, waker) = crate::reactor::wake_pair().unwrap();
        let (tx, rx) = mpsc::channel();
        let pool = WorkerPool::spawn(
            workers,
            Arc::clone(eng),
            Arc::clone(&queue),
            tx,
            waker,
            no_deadline(),
        );
        for (i, q) in queries.iter().enumerate() {
            let mut slot = job(0);
            slot.batch_index = Some(i);
            slot.work = WorkItem::Solve(Box::new(q.clone()));
            queue.try_push(slot).unwrap();
        }
        let mut out: Vec<Option<Result<QueryResponse, ServiceError>>> =
            (0..queries.len()).map(|_| None).collect();
        for _ in 0..queries.len() {
            let d = rx.recv().unwrap();
            let i = d.batch_index.expect("batch jobs carry their index");
            let WorkDone::Solve { result, .. } = d.done else {
                panic!("expected a solve outcome, got {:?}", d.done);
            };
            assert!(out[i].is_none(), "index {i} delivered twice");
            out[i] = Some(result);
        }
        queue.close();
        pool.join();
        out.into_iter().map(Option::unwrap).collect()
    }

    #[test]
    fn output_independent_of_worker_count() {
        let qs = batch();
        let reference = payloads(&run_pool(&Arc::new(engine()), 1, &qs));
        for workers in [2, 3, 8] {
            let got = payloads(&run_pool(&Arc::new(engine()), workers, &qs));
            assert_eq!(got, reference, "worker count {workers} changed payloads");
        }
    }

    #[test]
    fn per_slot_errors_do_not_poison_the_batch() {
        let qs = batch();
        let results = run_pool(&Arc::new(engine()), 4, &qs);
        assert_eq!(results.len(), qs.len());
        assert!(results[..qs.len() - 1].iter().all(|r| r.is_ok()));
        assert!(matches!(
            results[qs.len() - 1],
            Err(ServiceError::UnknownDataset { .. })
        ));
    }

    /// Serve options whose queue never sheds a solve.
    fn no_deadline() -> Arc<ServeOptions> {
        Arc::new(ServeOptions {
            queue_deadline_ms: None,
            ..ServeOptions::default()
        })
    }

    fn job(ticket: u64) -> SolveJob {
        SolveJob {
            conn: 0,
            generation: 1,
            ticket,
            batch_index: None,
            work: WorkItem::Solve(Box::new(Query::new("toy", 2))),
            enqueued: Instant::now(),
        }
    }

    #[test]
    fn solve_queue_bounds_admission_and_tracks_the_depth_gauge() {
        let m = Arc::new(ServiceMetrics::new(false));
        let q = SolveQueue::new(2, Arc::clone(&m));
        assert!(q.try_push(job(0)).is_ok());
        assert!(q.try_push(job(1)).is_ok());
        let bounced = q.try_push(job(2));
        assert!(bounced.is_err(), "third push must bounce off the bound");
        assert_eq!(bounced.unwrap_err().ticket, 2, "the job is handed back");
        assert_eq!(q.depth(), 2);
        assert_eq!(m.queue_depth.get(), 2);
        assert_eq!(q.pop().unwrap().ticket, 0);
        assert_eq!(m.queue_depth.get(), 1);
        // Closing stops admission but drains what is queued.
        q.close();
        assert!(q.try_push(job(3)).is_err());
        assert_eq!(q.pop().unwrap().ticket, 1);
        assert!(q.pop().is_none(), "closed + drained pops None");
        assert_eq!(m.queue_depth.get(), 0);
    }

    #[test]
    fn zero_capacity_queue_sheds_everything() {
        let m = Arc::new(ServiceMetrics::new(false));
        let q = SolveQueue::new(0, m);
        assert!(q.try_push(job(0)).is_err());
    }

    #[test]
    fn worker_pool_drains_the_queue_and_wakes_per_completion() {
        let eng = Arc::new(engine());
        let m = Arc::clone(eng.metrics());
        let queue = SolveQueue::new(64, m);
        let (pipe, waker) = crate::reactor::wake_pair().unwrap();
        let (tx, rx) = mpsc::channel();
        let pool = WorkerPool::spawn(
            3,
            Arc::clone(&eng),
            Arc::clone(&queue),
            tx,
            waker,
            no_deadline(),
        );
        assert_eq!(pool.handles.len(), 3);
        for t in 0..8 {
            queue.try_push(job(t)).unwrap();
        }
        let mut done: Vec<SolveDone> = (0..8).map(|_| rx.recv().unwrap()).collect();
        done.sort_by_key(|d| d.ticket);
        for (t, d) in done.iter().enumerate() {
            assert_eq!(d.ticket, t as u64);
            let WorkDone::Solve { result, .. } = &d.done else {
                panic!("expected a solve outcome, got {:?}", d.done);
            };
            assert!(result.is_ok(), "{result:?}");
        }
        // Completions pinged the wake pipe (coalesced ≥ 1 byte pending).
        let mut fds = [crate::reactor::PollFd::new(
            pipe.fd(),
            crate::reactor::POLLIN,
        )];
        assert_eq!(crate::reactor::poll(&mut fds, 1_000).unwrap(), 1);
        queue.close();
        pool.join();
    }

    #[test]
    fn worker_pool_sheds_jobs_past_the_queue_deadline() {
        let eng = Arc::new(engine());
        let m = Arc::clone(eng.metrics());
        let queue = SolveQueue::new(64, Arc::clone(&m));
        // A job that already sat "queued" for 50 ms against a 1 ms budget.
        let mut stale = job(0);
        stale.enqueued = Instant::now() - std::time::Duration::from_millis(50);
        queue.try_push(stale).unwrap();
        let (_pipe, waker) = crate::reactor::wake_pair().unwrap();
        let (tx, rx) = mpsc::channel();
        let pool = WorkerPool::spawn(
            1,
            eng,
            Arc::clone(&queue),
            tx,
            waker,
            Arc::new(ServeOptions {
                queue_deadline_ms: Some(1),
                ..ServeOptions::default()
            }),
        );
        let d = rx.recv().unwrap();
        let WorkDone::Solve { result, .. } = &d.done else {
            panic!("expected a solve outcome, got {:?}", d.done);
        };
        match result {
            Err(ServiceError::Busy {
                reason,
                retry_after_ms,
            }) => {
                assert!(reason.contains("deadline"), "{reason}");
                assert!(*retry_after_ms >= 1);
            }
            other => panic!("expected a deadline shed, got {other:?}"),
        }
        assert_eq!(m.shed_total.get(), 1);
        queue.close();
        pool.join();
    }

    #[test]
    fn duplicate_queries_solve_once() {
        let eng = Arc::new(engine());
        let qs: Vec<Query> = (0..24).map(|_| Query::new("toy", 3)).collect();
        let results = run_pool(&eng, 8, &qs);
        assert!(results.iter().all(|r| r.is_ok()));
        // Single-flight: exactly one cold solve even under concurrency;
        // all 23 other executions were served from the cache.
        let cold = results
            .iter()
            .filter(|r| !r.as_ref().unwrap().cached)
            .count();
        assert_eq!(cold, 1);
        assert_eq!(eng.cache_stats().hits, 23);
    }
}

//! The worker side of the event front end: a **bounded, long-lived**
//! `SolveQueue` drained by a resident `WorkerPool`.
//!
//! No async runtime: workers are named `std::thread`s blocking on the
//! queue's condvar. A [`Job`] is one parsed [`Request`] — a `QUERY` the
//! loop's cache look missed, a `BATCH` slot's query, or a heavy control
//! verb — plus the [`JobAddr`] of the connection entry awaiting it. A
//! worker answers the request (a query through the engine, a control
//! verb through the server's one dispatcher) and sends the [`Reply`]
//! back under the same address over an `mpsc` channel, followed by a
//! self-pipe wake. The loop places
//! each reply by its ticket and batch index, so worker count and OS
//! scheduling affect only wall-clock time, never payloads (each query's
//! answer is solved from a per-query seed, not from shared RNG state).
//!
//! The bound is the admission-control backstop — when the queue is full
//! the server sheds a query with `ERR busy` rather than buffering
//! without limit; control verbs bypass it — and workers apply the
//! optional queue *deadline*: a query that sat queued longer than the
//! client would plausibly wait is shed at dequeue time instead of
//! wasting a solve.

use std::collections::VecDeque;
use std::sync::{mpsc, Arc, Condvar, Mutex};

use fairhms_obs::sync::{lock_or_recover, wait_or_recover};
use std::time::Instant;

use crate::engine::QueryResponse;
use crate::metrics::ServiceMetrics;
use crate::protocol::{Request, Response};
use crate::query::Query;
use crate::reactor::Waker;
use crate::server::Shared;
use crate::ServiceError;

/// Where a job's reply goes. The generation guards against the
/// connection slot being reused by a new connection while an old job is
/// still in flight.
#[derive(Debug, Clone, Copy)]
pub(crate) struct JobAddr {
    /// Connection slab slot.
    pub conn: usize,
    /// Slot generation at enqueue time.
    pub generation: u64,
    /// Per-connection response-order ticket.
    pub ticket: u64,
    /// Index within the owning batch (`None` for single queries and
    /// control verbs).
    pub batch_index: Option<usize>,
}

/// One job admitted into the global queue.
#[derive(Debug)]
pub(crate) struct Job {
    /// Where the reply goes.
    pub addr: JobAddr,
    /// What to answer: a `QUERY` (subject to deadline shedding) or a
    /// control verb.
    pub request: Request,
    /// When the job entered the queue (deadline shedding + queue_wait).
    pub enqueued: Instant,
}

/// What a worker made of one job.
#[derive(Debug)]
pub(crate) enum Reply {
    /// A query's result, or its deadline shed; the query rides back for
    /// the slow-query log. The loop, which encodes the response, also
    /// builds it from the result, so the response's buffers are
    /// allocated and freed on one thread.
    Solved {
        query: Box<Query>,
        result: Result<QueryResponse, ServiceError>,
    },
    /// A control verb's response.
    Answered(Response),
}

/// A job's reply, routed back to the event loop.
#[derive(Debug)]
pub(crate) struct Done {
    /// The job's address.
    pub addr: JobAddr,
    /// What the worker made of it.
    pub reply: Reply,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// The bounded global solve queue between the event loop and the
/// `WorkerPool`. `push` never blocks — a full (or closed) queue hands
/// the request back so the caller sheds it — and the queue maintains the
/// `queue.depth` gauge itself, so STATS and the shed tests see an exact
/// depth, not an approximation.
pub(crate) struct SolveQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    cap: usize,
    metrics: Arc<ServiceMetrics>,
}

impl SolveQueue {
    /// A queue admitting at most `cap` waiting queries (0 sheds every
    /// query — the deterministic-overload test hook).
    pub fn new(cap: usize, metrics: Arc<ServiceMetrics>) -> SolveQueue {
        SolveQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            cap,
            metrics,
        }
    }

    /// Admits `job`, or hands its request back when the queue is closed
    /// or, for a query, full. Control verbs pass the bound: operator
    /// verbs are never shed, so once the queue is closed (server
    /// teardown) the caller must answer them itself.
    pub fn push(&self, job: Job) -> Result<(), Request> {
        let mut st = lock_or_recover(&self.state);
        let full = st.jobs.len() >= self.cap && matches!(job.request, Request::Query(_));
        if st.closed || full {
            return Err(job.request);
        }
        st.jobs.push_back(job);
        self.metrics.queue_depth.inc();
        drop(st);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` once the queue is closed and
    /// drained (the worker's exit signal).
    pub fn pop(&self) -> Option<Job> {
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

/// The resident worker threads draining the shared `SolveQueue`. Each
/// reply is sent over the `done` channel and followed by a [`Waker`]
/// kick, so the event loop learns about it immediately instead of on its
/// next timeout.
pub(crate) struct WorkerPool {
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `sh.opts.workers` threads draining `sh.queue`.
    pub fn spawn(sh: &Arc<Shared>, done: mpsc::Sender<Done>, waker: Waker) -> WorkerPool {
        let handles = (0..sh.opts.workers)
            .map(|i| {
                let (sh, done, waker) = (Arc::clone(sh), done.clone(), waker.clone());
                std::thread::Builder::new()
                    .name(format!("fairhms-worker-{i}"))
                    .spawn(move || {
                        while let Some(job) = sh.queue.pop() {
                            let addr = job.addr;
                            let reply = answer(&sh, job);
                            if done.send(Done { addr, reply }).is_err() {
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

/// Answers one dequeued job. `queue_deadline_ms` is the queue-time
/// budget: a query dequeued after sitting longer is shed (typed busy
/// error carrying retry advice) instead of executed; control verbs are
/// exempt.
fn answer(sh: &Shared, job: Job) -> Reply {
    let m = sh.engine.metrics();
    let waited = job.enqueued.elapsed();
    if m.enabled() {
        m.queue_wait
            .record(waited.as_nanos().min(u64::MAX as u128) as u64);
    }
    let query = match job.request {
        Request::Query(query) => query,
        control => return Reply::Answered(sh.control(control)),
    };
    let result = match sh.opts.queue_deadline_ms {
        Some(d) if waited.as_millis() > u128::from(d) => Err(sh.shed(format!(
            "queue deadline exceeded ({} ms queued, budget {d} ms)",
            waited.as_millis()
        ))),
        _ => {
            let _run = m.recorder().span(&m.run);
            // A single query reaches a worker only after the event loop's
            // cache look missed (`Conn::admit`); batch slots had none.
            match job.addr.batch_index {
                None => sh.engine.execute_missed(&query),
                Some(_) => sh.engine.execute(&query),
            }
        }
    };
    Reply::Solved { query, result }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests stamp queue deadlines directly
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::server::ServeOptions;
    use crate::{Query, QueryEngine};
    use fairhms_data::Dataset;

    fn engine() -> Arc<QueryEngine> {
        let catalog = Arc::new(Catalog::new());
        let points = vec![
            1.0, 0.1, 0.8, 0.6, 0.2, 0.9, 0.9, 0.3, 0.4, 0.8, 0.7, 0.7, 0.6, 0.75, 0.95, 0.2,
        ];
        let data = Dataset::new("toy", 2, points, vec![0, 1, 0, 1, 0, 1, 0, 1], vec![]).unwrap();
        catalog.insert_dataset(data).unwrap();
        Arc::new(QueryEngine::new(catalog, 256))
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

    /// The result a worker replied with to a query job.
    fn solved(reply: Reply) -> Result<QueryResponse, ServiceError> {
        match reply {
            Reply::Solved { result, .. } => result,
            other => panic!("expected a solve outcome, got {other:?}"),
        }
    }

    /// Server state over `eng` with `workers` workers, a queue of
    /// `queue_depth`, and no queue deadline unless `deadline_ms` sets one.
    fn shared(
        eng: &Arc<QueryEngine>,
        workers: usize,
        queue_depth: usize,
        deadline_ms: Option<u64>,
    ) -> Arc<Shared> {
        Shared::new(
            Arc::clone(eng),
            ServeOptions {
                workers,
                queue_depth,
                queue_deadline_ms: deadline_ms,
                ..ServeOptions::default()
            },
        )
    }

    /// Runs `queries` through a `workers`-wide pool as one batch (the
    /// event loop's shape: one job per slot, tagged with its index) and
    /// reassembles the results by batch index.
    fn run_pool(
        eng: &Arc<QueryEngine>,
        workers: usize,
        queries: &[Query],
    ) -> Vec<Result<QueryResponse, ServiceError>> {
        let sh = shared(eng, workers, queries.len(), None);
        let (_pipe, waker) = crate::reactor::wake_pair().unwrap();
        let (tx, rx) = mpsc::channel();
        let pool = WorkerPool::spawn(&sh, tx, waker);
        for (i, q) in queries.iter().enumerate() {
            let mut slot = job(0);
            slot.addr.batch_index = Some(i);
            slot.request = Request::Query(Box::new(q.clone()));
            sh.queue.push(slot).unwrap();
        }
        let mut out: Vec<Option<Result<QueryResponse, ServiceError>>> =
            (0..queries.len()).map(|_| None).collect();
        for _ in 0..queries.len() {
            let d = rx.recv().unwrap();
            let i = d.addr.batch_index.expect("batch jobs carry their index");
            assert!(out[i].is_none(), "index {i} delivered twice");
            out[i] = Some(solved(d.reply));
        }
        sh.queue.close();
        pool.join();
        out.into_iter().map(Option::unwrap).collect()
    }

    #[test]
    fn output_independent_of_worker_count() {
        let qs = batch();
        let reference = payloads(&run_pool(&engine(), 1, &qs));
        for workers in [2, 3, 8] {
            let got = payloads(&run_pool(&engine(), workers, &qs));
            assert_eq!(got, reference, "worker count {workers} changed payloads");
        }
    }

    #[test]
    fn per_slot_errors_do_not_poison_the_batch() {
        let qs = batch();
        let results = run_pool(&engine(), 4, &qs);
        assert_eq!(results.len(), qs.len());
        assert!(results[..qs.len() - 1].iter().all(|r| r.is_ok()));
        assert!(matches!(
            results[qs.len() - 1],
            Err(ServiceError::UnknownDataset { .. })
        ));
    }

    fn job(ticket: u64) -> Job {
        Job {
            addr: JobAddr {
                conn: 0,
                generation: 1,
                ticket,
                batch_index: None,
            },
            request: Request::Query(Box::new(Query::new("toy", 2))),
            enqueued: Instant::now(),
        }
    }

    #[test]
    fn solve_queue_bounds_admission_and_tracks_the_depth_gauge() {
        let m = Arc::new(ServiceMetrics::new(false));
        let q = SolveQueue::new(2, Arc::clone(&m));
        assert!(q.push(job(0)).is_ok());
        assert!(q.push(job(1)).is_ok());
        let bounced = q.push(job(2));
        assert!(
            matches!(bounced, Err(Request::Query(_))),
            "third push must bounce off the bound and hand the request back"
        );
        assert_eq!(q.depth(), 2);
        assert_eq!(m.queue_depth.get(), 2);
        // A control verb passes the bound: operator verbs are never shed.
        let mut control = job(3);
        control.request = Request::Ping;
        assert!(q.push(control).is_ok());
        assert_eq!(q.depth(), 3);
        assert_eq!(q.pop().unwrap().addr.ticket, 0);
        assert_eq!(m.queue_depth.get(), 2);
        // Closing stops admission but drains what is queued.
        q.close();
        assert!(q.push(job(4)).is_err());
        assert_eq!(q.pop().unwrap().addr.ticket, 1);
        assert_eq!(q.pop().unwrap().addr.ticket, 3);
        assert!(q.pop().is_none(), "closed + drained pops None");
        assert_eq!(m.queue_depth.get(), 0);
    }

    #[test]
    fn zero_capacity_queue_sheds_everything() {
        let m = Arc::new(ServiceMetrics::new(false));
        let q = SolveQueue::new(0, m);
        assert!(q.push(job(0)).is_err());
    }

    #[test]
    fn worker_pool_drains_the_queue_and_wakes_per_completion() {
        let sh = shared(&engine(), 3, 64, None);
        let (pipe, waker) = crate::reactor::wake_pair().unwrap();
        let (tx, rx) = mpsc::channel();
        let pool = WorkerPool::spawn(&sh, tx, waker);
        assert_eq!(pool.handles.len(), 3);
        for t in 0..8 {
            sh.queue.push(job(t)).unwrap();
        }
        let mut done: Vec<Done> = (0..8).map(|_| rx.recv().unwrap()).collect();
        done.sort_by_key(|d| d.addr.ticket);
        for (t, d) in done.into_iter().enumerate() {
            assert_eq!(d.addr.ticket, t as u64);
            let result = solved(d.reply);
            assert!(result.is_ok(), "{result:?}");
        }
        // Completions pinged the wake pipe (coalesced ≥ 1 byte pending).
        let mut fds = [crate::reactor::PollFd::new(
            pipe.fd(),
            crate::reactor::POLLIN,
        )];
        assert_eq!(crate::reactor::poll(&mut fds, 1_000).unwrap(), 1);
        sh.queue.close();
        pool.join();
    }

    #[test]
    fn worker_pool_sheds_jobs_past_the_queue_deadline() {
        let eng = engine();
        let sh = shared(&eng, 1, 64, Some(1));
        // A job that already sat "queued" for 50 ms against a 1 ms budget.
        let mut stale = job(0);
        stale.enqueued = Instant::now() - std::time::Duration::from_millis(50);
        sh.queue.push(stale).unwrap();
        let (_pipe, waker) = crate::reactor::wake_pair().unwrap();
        let (tx, rx) = mpsc::channel();
        let pool = WorkerPool::spawn(&sh, tx, waker);
        match solved(rx.recv().unwrap().reply) {
            Err(ServiceError::Busy {
                reason,
                retry_after_ms,
            }) => {
                assert!(reason.contains("deadline"), "{reason}");
                assert!(retry_after_ms >= 1);
            }
            other => panic!("expected a deadline shed, got {other:?}"),
        }
        assert_eq!(eng.metrics().shed_total.get(), 1);
        sh.queue.close();
        pool.join();
    }

    #[test]
    fn duplicate_queries_solve_once() {
        let eng = engine();
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

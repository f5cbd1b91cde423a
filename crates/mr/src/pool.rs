//! The one process-wide pool of persistent worker threads every fan-out
//! runs on: the map, route and reduce tasks of a job
//! ([`Executor`](crate::Executor)) and the jobs of a scheduled program
//! (`gumbo_sched::DagScheduler`).
//!
//! [`scope`] opens a region in which the caller hands the pool closures
//! that may borrow its stack, in one of two ways:
//!
//! * **started** work ([`Scope::start`]) holds a [`Seat`]: the pool keeps
//!   at least one worker per live seat, and an idle worker claims started
//!   work before any offer. A job the scheduler starts therefore never
//!   waits for a worker because other jobs hold them all: every job in
//!   flight, across every query of the process, has a thread. Help must
//!   not wait on other started work, or it could hold the worker that
//!   work needs; task fan-outs never do.
//! * **offered** help ([`Scope::offer`]) runs only if a worker is idle to
//!   claim it; a caller that offers help also claims the same work itself
//!   (the executor's task fan-out), so unclaimed help costs nothing.
//!
//! Whatever no worker has claimed by the time the scope ends is withdrawn
//! unrun; claimed work is waited for.
//!
//! Sizing: the pool is spawned lazily and grown to the largest of the
//! machine's available parallelism, the largest worker or slot count any
//! scope has asked for, and the live seats; it never shrinks. So on a
//! busy machine a job's fan-out finds no idle worker and runs on the
//! job's own thread, while on an idle one it spreads over up to its
//! worker count. A worker outlives a panic in what it ran: the payload is
//! caught on the worker and raised again on the scope's caller when the
//! scope ends.
//!
//! Why persistent threads: spawning a fresh set of scoped threads per
//! phase cost more CPU than the fan-out saved on a saturated machine,
//! and glibc keeps the heap arenas of many short-lived allocating
//! threads around, which showed as peak RSS. Here every job and task
//! allocates on a fixed set of threads.
//!
//! No deadlock: a scope's end waits only for work a worker has already
//! claimed, which runs to completion without waiting on anything
//! unclaimed, and a caller that waits for its started work to finish (the
//! scheduler) waits only for seated work, which always gets a worker.

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread;

type Panic = Box<dyn Any + Send + 'static>;
type Work = Box<dyn FnOnce() + Send + 'static>;

/// Lock, ignoring poison: no lock here is held across user code, so a
/// poisoned one only means a panic elsewhere in the thread that held it.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// One unit of work in the pool's queues and the scope it belongs to.
struct Offer {
    scope: Arc<ScopeState>,
    work: Work,
}

#[derive(Default)]
struct Queue {
    /// Started work, claimed before any offer.
    started: VecDeque<Offer>,
    /// Offered help.
    offers: VecDeque<Offer>,
    workers: usize,
    /// Live [`Seat`]s.
    seats: usize,
}

struct Pool {
    queue: Mutex<Queue>,
    queued: Condvar,
    /// The machine's available parallelism: the fewest workers the pool
    /// grows to once it is used.
    cores: usize,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        queue: Mutex::new(Queue::default()),
        queued: Condvar::new(),
        cores: thread::available_parallelism().map_or(1, |n| n.get()),
    })
}

impl Pool {
    fn grow(&'static self, queue: &mut Queue, workers: usize) {
        while queue.workers < workers {
            thread::Builder::new()
                .name("gumbo-worker".into())
                .spawn(move || self.work())
                .expect("spawn a pool worker");
            queue.workers += 1;
        }
    }

    /// A worker's life: claim the oldest started work, else the oldest
    /// offer; run it, report, repeat.
    fn work(&self) {
        loop {
            let Offer { scope, work } = {
                let mut queue = lock(&self.queue);
                loop {
                    let next = queue.started.pop_front();
                    if let Some(offer) = next.or_else(|| queue.offers.pop_front()) {
                        // Counted as running under the queue lock, so a
                        // scope that finds its work gone from the queue
                        // also finds it counted.
                        lock(&offer.scope.counts).running += 1;
                        break offer;
                    }
                    queue = self.queued.wait(queue).unwrap_or_else(|e| e.into_inner());
                }
            };
            // The call consumes the closure: everything it borrowed is
            // released before the scope hears that it finished.
            let panic = panic::catch_unwind(AssertUnwindSafe(work)).err();
            let mut counts = lock(&scope.counts);
            counts.running -= 1;
            if counts.panic.is_none() {
                counts.panic = panic;
            }
            drop(counts);
            scope.finished.notify_all();
        }
    }
}

/// A worker the pool keeps for one piece of started work
/// ([`Scope::start`]) until the seat is dropped. The work is handed its
/// seat; dropping it before announcing the work's result lets whoever
/// hears the result start more work without the pool counting a seat
/// that is about to free.
pub struct Seat(());

impl Drop for Seat {
    fn drop(&mut self) {
        lock(&pool().queue).seats -= 1;
    }
}

#[derive(Default)]
struct Counts {
    /// Work claimed by a worker and not yet finished.
    running: usize,
    /// The first panic a piece of work raised.
    panic: Option<Panic>,
}

#[derive(Default)]
struct ScopeState {
    counts: Mutex<Counts>,
    finished: Condvar,
}

/// A region in which work borrowing the caller's stack (anything that
/// outlives `'env`) may be handed to the pool; see [`scope`].
pub struct Scope<'env> {
    state: Arc<ScopeState>,
    /// Invariant in `'env`, so a scope cannot be shortened to admit
    /// borrows that end before it does.
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'env> {
    /// Erase the lifetime of work borrowing `'env`, so the pool's
    /// `'static` queues can hold it.
    fn erase(&self, work: Box<dyn FnOnce() + Send + 'env>) -> Offer {
        // SAFETY: only the lifetime is erased. The closure borrows nothing
        // shorter than `'env`, which outlives the `scope` call (it is a
        // parameter of `scope`, and `Scope` is invariant in it). That call
        // does not return — normally or by unwinding — before its `End`
        // guard has taken every unclaimed piece of this scope's work out
        // of the queues and dropped it, and waited until every claimed one
        // has run and been dropped. So the closure is never called or
        // dropped after its borrows end.
        let work: Work =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Work>(work) };
        Offer {
            scope: self.state.clone(),
            work,
        }
    }

    /// Offer `work` to the pool as help: the oldest offer goes to the next
    /// idle worker that finds no started work. It runs at most once — not
    /// at all if no worker has claimed it when the scope ends. A panic in
    /// it is raised again on the scope's caller when the scope ends.
    pub fn offer<F: FnOnce() + Send + 'env>(&self, work: F) {
        let offer = self.erase(Box::new(work));
        let pool = pool();
        lock(&pool.queue).offers.push_back(offer);
        pool.queued.notify_one();
    }

    /// Start `work` on a worker of its own, handing it a [`Seat`]: the
    /// pool grows to keep a worker per live seat, and idle workers claim
    /// started work, oldest first, before any offer. So it waits for a
    /// worker only while one is busy with offered help (which ends when
    /// that fan-out's tasks run out) or is finishing work whose seat it
    /// gave back. Like an offer, it is withdrawn unrun if no worker has
    /// claimed it when the scope ends, and a panic in it is raised again
    /// on the scope's caller.
    pub fn start<F: FnOnce(Seat) + Send + 'env>(&self, work: F) {
        let pool = pool();
        let mut queue = lock(&pool.queue);
        queue.seats += 1;
        let seats = queue.seats;
        pool.grow(&mut queue, seats);
        let seat = Seat(());
        queue
            .started
            .push_back(self.erase(Box::new(move || work(seat))));
        drop(queue);
        pool.queued.notify_one();
    }

    /// Withdraw this scope's unclaimed work, then wait for its claimed
    /// work to finish.
    fn end(&self) {
        let pool = pool();
        // Dropped outside the queue lock: dropping work drops what its
        // closure owns, a seat included.
        let mut withdrawn = Vec::new();
        let mut guard = lock(&pool.queue);
        let queue = &mut *guard;
        for list in [&mut queue.started, &mut queue.offers] {
            let (gone, kept): (VecDeque<Offer>, _) = std::mem::take(list)
                .into_iter()
                .partition(|offer| Arc::ptr_eq(&offer.scope, &self.state));
            *list = kept;
            withdrawn.push(gone);
        }
        drop(guard);
        drop(withdrawn);
        let mut counts = lock(&self.state.counts);
        while counts.running > 0 {
            counts = (self.state.finished.wait(counts)).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Ends a scope on every way out of [`scope`], unwinding included.
struct End<'s, 'env>(&'s Scope<'env>);

impl Drop for End<'_, '_> {
    fn drop(&mut self) {
        self.0.end();
    }
}

/// Run `body` with a [`Scope`] whose work goes to the process-wide pool,
/// first growing the pool to `workers` threads and to the machine's
/// available parallelism. When `body` returns (or unwinds), work no
/// worker has claimed is withdrawn unrun and the call waits for the
/// claimed work; then the first panic it raised, if any, is raised here.
pub fn scope<'env, R>(workers: usize, body: impl FnOnce(&Scope<'env>) -> R) -> R {
    let pool = pool();
    pool.grow(&mut lock(&pool.queue), workers.max(pool.cores));
    let scope = Scope {
        state: Arc::default(),
        _env: PhantomData,
    };
    let result = {
        let _end = End(&scope);
        body(&scope)
    };
    if let Some(panic) = lock(&scope.state.counts).panic.take() {
        panic::resume_unwind(panic);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    #[test]
    fn claimed_offers_finish_before_the_scope_ends() {
        let done = AtomicUsize::new(0);
        scope(2, |s| {
            for _ in 0..8 {
                s.offer(|| {
                    done.fetch_add(1, Ordering::Relaxed);
                });
            }
            while done.load(Ordering::Relaxed) < 8 {
                thread::yield_now();
            }
        });
        assert_eq!(done.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn an_offer_that_panics_is_raised_on_the_caller_and_the_worker_lives() {
        let caught = panic::catch_unwind(|| {
            scope(1, |s| {
                let (tx, rx) = mpsc::channel();
                s.offer(move || {
                    let _ = tx.send(());
                    panic!("offer bomb");
                });
                // Wait until a worker has claimed it, so it is not
                // withdrawn.
                let _ = rx.recv();
            })
        })
        .unwrap_err();
        assert_eq!(caught.downcast_ref::<&str>(), Some(&"offer bomb"));
        // The pool still runs work.
        let (tx, rx) = mpsc::channel();
        scope(1, |s| {
            s.offer(move || tx.send(7).unwrap());
            assert_eq!(rx.recv().unwrap(), 7);
        });
    }

    /// More started work than the pool had workers, all of it waiting
    /// until every piece is running: the pool grows a worker per seat, so
    /// the rendezvous completes.
    #[test]
    fn every_piece_of_started_work_runs_at_once() {
        let parties = pool().cores + 3;
        let arrived = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel();
        scope(1, |s| {
            for _ in 0..parties {
                let (arrived, tx) = (&arrived, tx.clone());
                s.start(move |_seat| {
                    arrived.fetch_add(1, Ordering::SeqCst);
                    let deadline = Instant::now() + Duration::from_secs(30);
                    while arrived.load(Ordering::SeqCst) < parties && Instant::now() < deadline {
                        thread::sleep(Duration::from_millis(1));
                    }
                    tx.send(arrived.load(Ordering::SeqCst)).unwrap();
                });
            }
            for _ in 0..parties {
                let seen = rx.recv().unwrap();
                assert_eq!(seen, parties, "started work waited for a worker");
            }
        });
    }
}

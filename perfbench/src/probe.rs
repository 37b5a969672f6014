//! Timing decorators the benchmark wraps around the engine's layer
//! boundaries: [`TimedSource`] around `Source::poll` and [`TimedClock`]
//! around `Clock::sleep_toward`.
//!
//! Each timed call is a span on its thread. A thread-local stack of
//! child durations gives every span its *self* time (its duration minus
//! the timed calls nested inside it), so a federated adapter's poll that
//! polls its base sources, or sleeps on the clock, is not counted twice.
//! Self time lands in one of two buckets: the query thread (the thread
//! that called into the engine, marked with [`QueryThread`]) or any
//! other thread (federation lanes, producer fragments).

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tukwila_relation::Schema;
use tukwila_source::{Poll, Source, SourceDescriptor, SourceProgressView};
use tukwila_stats::schedule::DeliveryCosts;
use tukwila_stats::{ArrivalSchedule, Clock};

thread_local! {
    static ON_QUERY_THREAD: Cell<bool> = const { Cell::new(false) };
    /// Time (ns) covered by timed calls nested in each open span.
    static OPEN_SPANS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Marks the current thread as the query thread while alive.
pub struct QueryThread(());

impl QueryThread {
    pub fn enter() -> QueryThread {
        ON_QUERY_THREAD.with(|f| f.set(true));
        QueryThread(())
    }
}

impl Drop for QueryThread {
    fn drop(&mut self) {
        ON_QUERY_THREAD.with(|f| f.set(false));
    }
}

/// Counters of one layer boundary. Statistics only: `Relaxed` throughout.
#[derive(Debug, Default)]
pub struct Tally {
    self_ns_query: AtomicU64,
    self_ns_other: AtomicU64,
    calls: AtomicU64,
    tuples: AtomicU64,
    pending: AtomicU64,
}

/// A snapshot of a [`Tally`].
#[derive(Debug, Clone, Copy)]
pub struct TallyView {
    /// Self seconds on the query thread.
    pub query_s: f64,
    /// Self seconds on every other thread.
    pub other_s: f64,
    pub calls: u64,
    pub tuples: u64,
    pub pending: u64,
}

impl TallyView {
    pub fn total_s(&self) -> f64 {
        self.query_s + self.other_s
    }
}

impl Tally {
    /// Run `f` as a span of this layer, charging its self time.
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        OPEN_SPANS.with(|s| s.borrow_mut().push(0));
        let start = Instant::now();
        let out = f();
        let total = start.elapsed().as_nanos() as u64;
        let nested = OPEN_SPANS.with(|s| {
            let mut s = s.borrow_mut();
            let nested = s.pop().expect("span pushed above");
            if let Some(parent) = s.last_mut() {
                *parent += total;
            }
            nested
        });
        let own = total.saturating_sub(nested);
        let bucket = if ON_QUERY_THREAD.with(Cell::get) {
            &self.self_ns_query
        } else {
            &self.self_ns_other
        };
        bucket.fetch_add(own, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    pub fn view(&self) -> TallyView {
        TallyView {
            query_s: self.self_ns_query.load(Ordering::Relaxed) as f64 / 1e9,
            other_s: self.self_ns_other.load(Ordering::Relaxed) as f64 / 1e9,
            calls: self.calls.load(Ordering::Relaxed),
            tuples: self.tuples.load(Ordering::Relaxed),
            pending: self.pending.load(Ordering::Relaxed),
        }
    }
}

/// The tallies of one query's run.
#[derive(Debug, Default)]
pub struct Probe {
    /// `Source::poll` on base sources (`MemSource`, `DelayedSource`).
    pub source: Tally,
    /// `Source::poll` on federated adapters.
    pub federation: Tally,
    /// `Clock::sleep_toward`: waiting for deliveries on a wall clock.
    pub wait: Tally,
}

/// Which tally a [`TimedSource`] charges.
#[derive(Debug, Clone, Copy)]
pub enum Boundary {
    Source,
    Federation,
}

/// A `Source` that times every `poll` and delegates everything else.
pub struct TimedSource {
    inner: Box<dyn Source>,
    probe: Arc<Probe>,
    boundary: Boundary,
}

impl TimedSource {
    pub fn wrap(inner: Box<dyn Source>, probe: &Arc<Probe>, boundary: Boundary) -> Box<dyn Source> {
        Box::new(TimedSource {
            inner,
            probe: probe.clone(),
            boundary,
        })
    }
}

impl Source for TimedSource {
    fn rel_id(&self) -> u32 {
        self.inner.rel_id()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn poll(&mut self, now_us: u64, max_tuples: usize) -> Poll {
        let inner = &mut self.inner;
        let tally = match self.boundary {
            Boundary::Source => &self.probe.source,
            Boundary::Federation => &self.probe.federation,
        };
        let out = tally.time(|| inner.poll(now_us, max_tuples));
        match &out {
            Poll::Ready(batch) => {
                tally
                    .tuples
                    .fetch_add(batch.len() as u64, Ordering::Relaxed);
            }
            Poll::Pending { .. } => {
                tally.pending.fetch_add(1, Ordering::Relaxed);
            }
            Poll::Eof => {}
        }
        out
    }

    fn progress(&self) -> SourceProgressView {
        self.inner.progress()
    }

    fn descriptor(&self) -> SourceDescriptor {
        self.inner.descriptor()
    }

    fn quiesce_delivery(&mut self) {
        self.inner.quiesce_delivery()
    }

    fn resume_delivery(&mut self, now_us: u64) {
        self.inner.resume_delivery(now_us)
    }

    fn recalibrate_delivery_costs(&mut self, costs: &DeliveryCosts) {
        self.inner.recalibrate_delivery_costs(costs)
    }

    fn observed_rate(&self) -> Option<f64> {
        self.inner.observed_rate()
    }

    fn observed_schedule(&self) -> Option<ArrivalSchedule> {
        self.inner.observed_schedule()
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }
}

/// A `Clock` that times `sleep_toward` and delegates everything else.
#[derive(Debug)]
pub struct TimedClock {
    inner: Arc<dyn Clock>,
    probe: Arc<Probe>,
}

impl TimedClock {
    pub fn wrap(inner: Arc<dyn Clock>, probe: &Arc<Probe>) -> Arc<dyn Clock> {
        Arc::new(TimedClock {
            inner,
            probe: probe.clone(),
        })
    }
}

impl Clock for TimedClock {
    fn now_us(&self) -> u64 {
        self.inner.now_us()
    }

    fn observe(&self, external_us: u64) -> u64 {
        self.inner.observe(external_us)
    }

    fn sleep_toward(&self, deadline_us: u64) -> u64 {
        self.probe
            .wait
            .time(|| self.inner.sleep_toward(deadline_us))
    }

    fn is_wall(&self) -> bool {
        self.inner.is_wall()
    }

    fn scale_to_timeline(&self, real_us: f64) -> f64 {
        self.inner.scale_to_timeline(real_us)
    }
}

/// Run `f`, returning its result and its duration in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_charge_self_time_once() {
        let probe = Probe::default();
        let _q = QueryThread::enter();
        probe.federation.time(|| {
            probe
                .source
                .time(|| std::thread::sleep(std::time::Duration::from_millis(20)))
        });
        let fed = probe.federation.view();
        let src = probe.source.view();
        assert!(src.query_s >= 0.02);
        assert!(fed.query_s < 0.01, "the child's time is not the parent's");
        assert_eq!(fed.other_s + src.other_s, 0.0);
    }

    #[test]
    fn other_threads_land_in_their_own_bucket() {
        let probe = Arc::new(Probe::default());
        let p = probe.clone();
        std::thread::spawn(move || p.source.time(|| ()))
            .join()
            .expect("probe thread");
        let v = probe.source.view();
        assert_eq!(v.calls, 1);
        assert_eq!(v.query_s, 0.0);
    }
}

//! The traced run's instruments: an in-memory span recorder and a
//! [`Scheduler`] wrapper that times the calls the engine makes into
//! the scheduler layer.
//!
//! Nothing inside the program is instrumented: every span is taken
//! here, around a call into a layer's public API. The end-to-end runs
//! use the bare scheduler and no recorder at all.

use cluster::JobId;
use mlfs::{Action, RewardComponents, Scheduler, SchedulerContext};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// One closed span. Spans of one round share its number as `id`; the
/// round span is the parent of the scheduler calls made inside it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name, e.g. `round` or `core.schedule`.
    pub name: &'static str,
    /// Engine round the span belongs to (0 outside any round).
    pub id: u64,
    /// Name of the enclosing span, if any.
    pub parent: Option<&'static str>,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug, Default)]
struct State {
    round: u64,
    in_round: bool,
    actions: u64,
    spans: Vec<Span>,
}

/// Shared span sink. Cloning shares the same buffer, so the pass loop and
/// the [`Timed`] wrapper it hands to the engine record into one list.
#[derive(Debug, Clone)]
pub struct Recorder {
    origin: Instant,
    state: Arc<Mutex<State>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder; span times are relative to now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            state: Arc::default(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("span recorder poisoned by a panicking holder")
    }

    /// ns since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open round `id`: scheduler calls until [`Recorder::end_round`]
    /// become its children.
    pub fn begin_round(&self, id: u64) -> u64 {
        let mut st = self.lock();
        st.round = id;
        st.in_round = true;
        drop(st);
        self.now_ns()
    }

    /// Close the current round opened at `start_ns` under `name`;
    /// returns its duration in ns.
    pub fn end_round(&self, name: &'static str, start_ns: u64) -> u64 {
        let end_ns = self.now_ns();
        let mut st = self.lock();
        st.in_round = false;
        let id = st.round;
        st.spans.push(Span {
            name,
            id,
            parent: None,
            start_ns,
            end_ns,
        });
        end_ns.saturating_sub(start_ns)
    }

    /// Record a span outside the round structure (e.g. a submit).
    pub fn record(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        let mut st = self.lock();
        let id = st.round;
        st.spans.push(Span {
            name,
            id,
            parent: None,
            start_ns,
            end_ns,
        });
    }

    fn record_child(&self, name: &'static str, start_ns: u64, end_ns: u64, actions: usize) {
        let mut st = self.lock();
        let parent = st.in_round.then_some("round");
        st.actions += actions as u64;
        let id = st.round;
        st.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns,
        });
    }

    /// Actions returned by the wrapped scheduler so far.
    pub fn actions(&self) -> u64 {
        self.lock().actions
    }

    /// Remove and return every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        let mut st = self.lock();
        st.actions = 0;
        std::mem::take(&mut st.spans)
    }
}

/// A scheduler that forwards every [`Scheduler`] method to the one it
/// wraps and times `schedule_stream` (the paper's decision time) and
/// `observe_reward` as child spans of the current round. Forwarding is
/// exact, so a wrapped run makes the same decisions as a bare one.
pub struct Timed {
    inner: Box<dyn Scheduler>,
    rec: Recorder,
}

impl Timed {
    /// Wrap `inner`, recording into `rec`.
    pub fn new(inner: Box<dyn Scheduler>, rec: Recorder) -> Self {
        Timed { inner, rec }
    }
}

impl Scheduler for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Vec<Action> {
        self.inner.schedule(ctx)
    }

    fn schedule_stream(&mut self, ctx: &SchedulerContext<'_>, arrived: &[JobId]) -> Vec<Action> {
        let start = self.rec.now_ns();
        let actions = self.inner.schedule_stream(ctx, arrived);
        let end = self.rec.now_ns();
        self.rec
            .record_child("core.schedule", start, end, actions.len());
        actions
    }

    fn observe_reward(&mut self, reward: &RewardComponents) {
        let start = self.rec.now_ns();
        self.inner.observe_reward(reward);
        let end = self.rec.now_ns();
        self.rec.record_child("rl.observe_reward", start, end, 0);
    }

    fn attach_tracer(&mut self, tracer: Arc<obs::Tracer>) {
        self.inner.attach_tracer(tracer);
    }

    fn export_state(&self) -> Option<String> {
        self.inner.export_state()
    }

    fn import_state(&mut self, state: &str) -> bool {
        self.inner.import_state(state)
    }
}

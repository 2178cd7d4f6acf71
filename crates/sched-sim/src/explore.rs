//! Exhaustive exploration of all well-formed schedules of a small system.
//!
//! The kernel funnels every scheduling choice through decision points and
//! exposes [`Kernel::step_scripted`], which aborts without mutation when a
//! script runs out at a decision. The explorer exploits this to enumerate
//! the complete schedule tree of a configuration: it forks a cloned kernel
//! at every decision point, deduplicating visited states by
//! [`Kernel::state_hash`].
//!
//! There is one search loop and one visited set. [`explore`] is the
//! one-worker case of [`explore_parallel`], run on the calling thread: a
//! worker explores its own stack depth-first, claiming each state in a
//! lock-free visited table, so with nobody to donate to, it visits states
//! in plain serial DFS order.
//!
//! This turns the simulator into a bounded model checker: Lemma 1 of the
//! paper ("each process returns the same value" for the Fig. 3 consensus
//! algorithm) is verified here by exhaustive enumeration rather than by
//! testing a sample of schedules, and the same machinery powers the valency
//! analysis of the lower-bound experiments (Fig. 10).
//!
//! # Scaling levers
//!
//! Three composable options push exploration beyond what the plain serial
//! DFS can finish:
//!
//! * **Parallel frontier sharding** ([`explore_parallel`]): workers on the
//!   [`crate::sweep::pool`] pop subtree roots from a shared deque of forked
//!   kernels and claim states exactly once in the shared visited table
//!   (one CAS on the state's own slot; the table grows only at the
//!   workers' step-budget reservations). A worker that adopts a subtree
//!   root from the deque gives it private reference counts, so the
//!   per-state path writes no other shared cache line. [`ExploreStats`]
//!   merge commutatively, so an **untruncated** parallel run is
//!   bit-identical to serial at every jobs count (the same guarantee
//!   [`crate::sweep::run_cells`] pins).
//! * **Symmetry reduction** ([`ExploreBounds::symmetry`]): processes at
//!   equal priority on one processor — and whole processors — are
//!   interchangeable, so the state hash is canonicalized under those
//!   permutations and only one representative per orbit is explored. Sound
//!   only when the memory holds no per-process data; see
//!   [`Kernel::track_state_hash_cfg`].
//! * **Partial-order reduction** ([`ExploreBounds::por`]): statements on
//!   different processors with disjoint declared
//!   [`crate::machine::Footprint`]s commute, so at a cpu decision whose
//!   options include a provably-independent cpu only that one
//!   representative interleaving is explored ([`Kernel::ample_cpu_choice`],
//!   a singleton persistent set). Sound unconditionally — undeclared
//!   footprints simply never prune — and it preserves the *set* of
//!   quiescent states exactly, so `terminals` is invariant under it.
//!
//! # Dedup-collision (false-prune) probability
//!
//! Two distinct states whose hashes collide are wrongly merged, silently
//! pruning the second one's subtree. With the default 64-bit keys and `N`
//! visited states, the expected number of colliding pairs is about
//! `N² / 2⁶⁵` — negligible for `N ≪ 2³²` (at `N = 10⁸`, ≈ 3·10⁻⁴ expected
//! collisions). For larger runs, or when a verification result must not
//! hinge on that bound, [`ExploreBounds::wide_hash`] keys the visited sets
//! by [`Kernel::state_hash_wide`] — the state hasher's two independent
//! 64-bit lanes — dropping the expectation to about `N² / 2¹²⁹` (≈ 10⁻²²
//! at `N = 10⁸`). Both lanes come out of one hashing pass, so the wide key
//! costs only visited-set memory. The bounds assume the hash spreads the
//! explored states like a random function; it is unkeyed, which is fine
//! for simulator states and would not be for adversarial input.

use std::cell::{Cell, RefCell};
use std::hash::Hash;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use crate::kernel::{HashCfg, Kernel, StepAttempt};
use crate::sweep;
use crate::visited::VisitedTable;

/// A per-step decision script: at most three decisions resolve in one step
/// (cpu, holder, first-credit), so forks carry a fixed array, not a `Vec`.
#[derive(Clone, Copy, Default)]
struct Script {
    buf: [usize; 3],
    len: u8,
}

impl Script {
    fn as_slice(&self) -> &[usize] {
        &self.buf[..self.len as usize]
    }

    fn pushed(mut self, c: usize) -> Script {
        self.buf[self.len as usize] = c;
        self.len += 1;
        self
    }
}

/// Why an exploration stopped before exhausting the schedule tree.
///
/// Diagnosable per cause: a truncated parallel run is **not** bit-identical
/// to serial (which states fall inside a bound depends on visit order), so
/// callers asserting determinism should require [`Truncation::None`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Truncation {
    /// The exploration ran to completion (the determinism-guaranteed case).
    #[default]
    None,
    /// Some branch reached [`ExploreBounds::max_depth`]; its subtree was
    /// abandoned (the rest of the tree was still explored).
    DepthBound,
    /// [`ExploreBounds::max_total_steps`] was exhausted; the exploration
    /// stopped wherever it stood.
    StepBound,
    /// A visitor returned [`Verdict::Stop`] (e.g. a counterexample).
    VisitorStop,
}

impl Truncation {
    /// Stable lower-case name for reports ("none", "depth-bound", …).
    pub fn name(self) -> &'static str {
        match self {
            Truncation::None => "none",
            Truncation::DepthBound => "depth-bound",
            Truncation::StepBound => "step-bound",
            Truncation::VisitorStop => "visitor-stop",
        }
    }
}

/// Exploration statistics, returned by [`explore`] and
/// [`explore_parallel`].
///
/// All counters are merged commutatively across parallel workers, and on
/// an untruncated run every field is independent of both visit order and
/// jobs count: parallel == serial, bit for bit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Terminal (quiescent) states visited. Invariant under partial-order
    /// reduction (which preserves the quiescent-state set exactly); under
    /// symmetry reduction it counts orbits instead of raw states.
    pub terminals: u64,
    /// Statement executions across all explored branches.
    pub steps: u64,
    /// States skipped because an identical (or, under symmetry, an
    /// equivalent) state had been visited.
    pub deduped: u64,
    /// Scheduler branches skipped by partial-order reduction: at each cpu
    /// decision restricted to an ample choice, the other `arity - 1`
    /// options.
    pub por_pruned: u64,
    /// Peak size of the (global) visited set — the number of distinct
    /// states claimed. Reported so truncated runs are diagnosable: it
    /// tells how far a bounded exploration got, and it is the memory
    /// high-water mark in keys.
    pub peak_visited: u64,
    /// Why the exploration stopped early, if it did.
    pub truncation: Truncation,
}

impl ExploreStats {
    /// `true` if exploration stopped before exhausting the schedule tree.
    pub fn truncated(&self) -> bool {
        self.truncation != Truncation::None
    }
}

/// Visitor verdict controlling the exploration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Keep exploring.
    KeepGoing,
    /// Abandon the entire exploration (e.g. a counterexample was found).
    Stop,
}

/// Bounds and search options for [`explore`] / [`explore_parallel`].
#[derive(Clone, Copy, Debug)]
pub struct ExploreBounds {
    /// Maximum statements along any single branch.
    pub max_depth: u64,
    /// Maximum total statement executions across the exploration.
    pub max_total_steps: u64,
    /// Key the visited sets by 128-bit [`Kernel::state_hash_wide`] instead
    /// of the 64-bit [`Kernel::state_hash`], shrinking the false-prune
    /// probability (see the module docs); both widths cost one hashing
    /// pass per state.
    pub wide_hash: bool,
    /// Symmetry reduction: canonicalize state hashes under
    /// priority-preserving process permutations (and processor
    /// permutations), exploring one representative per orbit. **Opt-in and
    /// caller-audited**: sound only if the memory holds no per-process
    /// data and machines ignore [`crate::machine::StepCtx::pid`] — see
    /// [`Kernel::track_state_hash_cfg`].
    pub symmetry: bool,
    /// Partial-order reduction via [`Kernel::ample_cpu_choice`]:
    /// independent statements on disjoint memory cells commute, so one
    /// representative interleaving per commuting class is explored. Sound
    /// unconditionally (machines without declared footprints never prune);
    /// preserves the quiescent-state set exactly.
    pub por: bool,
}

impl Default for ExploreBounds {
    fn default() -> Self {
        ExploreBounds {
            max_depth: 10_000,
            max_total_steps: 50_000_000,
            wide_hash: false,
            symmetry: false,
            por: false,
        }
    }
}

impl ExploreBounds {
    /// Both reductions on (symmetry + partial-order). The symmetry half is
    /// caller-audited — see [`ExploreBounds::symmetry`].
    #[must_use]
    pub fn reduced(mut self) -> Self {
        self.symmetry = true;
        self.por = true;
        self
    }

    /// 128-bit dedup keys on.
    #[must_use]
    pub fn wide(mut self) -> Self {
        self.wide_hash = true;
        self
    }

    fn hash_cfg(&self) -> HashCfg {
        HashCfg { symmetric: self.symmetry, wide: self.wide_hash }
    }
}

/// Exhaustively explores every schedule of `kernel`, invoking `on_terminal`
/// at each quiescent state.
///
/// States are deduplicated by [`Kernel::state_hash`] — two interleavings
/// reaching identical (memory, machine, scheduler) states are explored
/// once. Hash collisions would wrongly prune; see the module docs for the
/// probability and the [`ExploreBounds::wide_hash`] mitigation.
///
/// Returns the stats; [`ExploreStats::truncation`] reports whether (and
/// why) any bound cut the search. This is [`explore_parallel`] with one
/// worker and no thread, so the visitor needs neither `Send` nor `Sync`
/// and is called in DFS order.
pub fn explore<M, F>(kernel: &Kernel<M>, bounds: ExploreBounds, on_terminal: F) -> ExploreStats
where
    M: Clone + Hash,
    F: FnMut(&Kernel<M>) -> Verdict,
{
    // The one worker never runs the visitor reentrantly, so the borrow
    // always succeeds; no thread is spawned, so nothing needs `Send`.
    let on_terminal = RefCell::new(on_terminal);
    let shared = SharedExplore::new(kernel, bounds, 1, |k: &Kernel<M>| (on_terminal.borrow_mut())(k));
    shared.work();
    shared.finish()
}

/// A worker's verdict before each step attempt of [`run_chain`].
enum Gate {
    Go,
    /// Stop exploring: with a truncation reason, or silently (`None`)
    /// because another worker already halted the exploration.
    Stop(Option<Truncation>),
}

/// Explores from one work item until its chain ends — at a terminal, a
/// visited state, or the depth bound — and returns a truncation if the
/// whole exploration must halt.
///
/// The DFS would push each fresh successor and pop it straight back, so
/// the chain steps it in place instead; likewise at a decision it pushes
/// every option but the last and continues with that one, the option the
/// DFS would pop next. The visit order is exactly the push-and-pop order,
/// minus two moves of the kernel per state.
///
/// `gate` runs before every step attempt (the step budget, and in the
/// parallel explorer the shared stop flag); when it stops the chain, the
/// unstepped item goes back on `stack`. `claim` inserts a state key into
/// the visited set, returning whether it was fresh.
fn run_chain<M, F>(
    (mut k, mut script, mut depth): Work<M>,
    bounds: &ExploreBounds,
    st: &mut ExploreStats,
    stack: &mut Vec<Work<M>>,
    mut gate: impl FnMut(&ExploreStats) -> Gate,
    mut claim: impl FnMut(u128) -> bool,
    on_terminal: F,
) -> Option<Truncation>
where
    M: Clone + Hash,
    F: FnOnce(&Kernel<M>) -> Verdict,
{
    loop {
        if let Gate::Stop(t) = gate(st) {
            // Unstepped, so still work: the parallel explorer hands it on.
            stack.push((k, script, depth));
            return t;
        }
        // `step_scripted` aborts without mutation at a decision point, so
        // `k` is reusable as the last fork there, and the successful-step
        // path clones nothing.
        match k.step_scripted(script.as_slice()) {
            StepAttempt::Quiescent => {
                st.terminals += 1;
                return (on_terminal(&k) == Verdict::Stop).then_some(Truncation::VisitorStop);
            }
            StepAttempt::Stepped(_) => {
                st.steps += 1;
                if depth + 1 >= bounds.max_depth {
                    st.truncation = st.truncation.max(Truncation::DepthBound);
                    return None;
                }
                if !claim(k.state_hash_wide()) {
                    st.deduped += 1;
                    return None;
                }
                (script, depth) = (Script::default(), depth + 1);
            }
            StepAttempt::NeedChoice { arity, kind } => {
                // A cpu decision is always the first of a step, so at this
                // point the script is empty and `k` is the undisturbed
                // pre-step state the ample-set analysis needs.
                if bounds.por && kind == "cpu" {
                    if let Some(c) = k.ample_cpu_choice() {
                        st.por_pruned += (arity - 1) as u64;
                        script = script.pushed(c);
                        continue;
                    }
                }
                // Same order as pushing every branch (choice 0 first,
                // arity-1 on top), but only arity-1 clones.
                for c in 0..arity - 1 {
                    stack.push((k.clone(), script.pushed(c), depth));
                }
                script = script.pushed(arity - 1);
            }
        }
    }
}

/// One unit of explorer work: a kernel, the decisions already taken for
/// its next step, and its depth.
type Work<M> = (Kernel<M>, Script, u64);

/// Statements a worker reserves from the step budget at a time, so the
/// per-step path writes nothing shared. Reservations never exceed
/// [`ExploreBounds::max_total_steps`], and a worker that finds the budget
/// spent hands its work to the others, so a step-bounded run executes
/// exactly the budget at every jobs count. Every claim
/// follows a reserved step, so a worker claims at most this many states
/// between reservations: the visited table's growth bound.
const STEP_CHUNK: u64 = 1024;

/// The frontier of one exploration.
struct Frontier<M> {
    /// Subtree roots available for any worker to claim.
    items: Vec<Work<M>>,
    /// Workers blocked waiting for frontier work, or retired because the
    /// step budget is spent.
    idle: usize,
}

impl<M> Frontier<M> {
    /// Adds `delta` to `idle`, mirroring the result into the starvation
    /// hint.
    fn add_idle(&mut self, delta: isize, hint: &AtomicUsize) {
        self.idle = self.idle.wrapping_add_signed(delta);
        hint.store(self.idle, Ordering::Relaxed);
    }
}

/// Keeps a field on cache lines of its own, so writes to its neighbours
/// never invalidate it (128 bytes: a line pair, for adjacent-line
/// prefetchers).
#[repr(align(128))]
struct Padded<T>(T);

/// One exploration, shared by its workers: one for [`explore`], `jobs`
/// for [`explore_parallel`].
struct SharedExplore<M, F> {
    /// Read on every step and at every chain end, written about once per
    /// exploration: kept apart from the fields written at reservations.
    stop: Padded<AtomicBool>,
    /// [`Frontier::idle`], readable without the frontier lock.
    idle_hint: Padded<AtomicUsize>,
    queue: Mutex<Frontier<M>>,
    cvar: Condvar,
    /// The global dedup table: a state is *claimed* by the worker whose
    /// CAS on its slot wins; every later arrival counts as deduped.
    visited: VisitedTable,
    /// Statements reserved by workers so far (see [`STEP_CHUNK`]).
    steps: AtomicU64,
    /// Per-worker counters, folded in once as each worker exits, and the
    /// reason of any halt.
    totals: Mutex<ExploreStats>,
    bounds: ExploreBounds,
    jobs: usize,
    on_terminal: F,
}

impl<M, F> SharedExplore<M, F> {
    /// Truncates and abandons the whole exploration: every worker drains
    /// its remaining work unexplored.
    fn halt(&self, t: Truncation) {
        let mut totals = self.totals.lock().expect("stats poisoned");
        totals.truncation = totals.truncation.max(t);
        drop(totals);
        self.stop.0.store(true, Ordering::Relaxed);
        self.cvar.notify_all();
    }

    fn stopped(&self) -> bool {
        self.stop.0.load(Ordering::Relaxed)
    }

    /// Reserves up to [`STEP_CHUNK`] statements of the budget `max`;
    /// returns how many (0 once the budget is spent).
    fn reserve(&self, max: u64) -> u64 {
        let take = |done: u64| STEP_CHUNK.min(max.saturating_sub(done));
        match self.steps.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |done| {
            (take(done) > 0).then(|| done + take(done))
        }) {
            Ok(done) => take(done),
            Err(_) => 0,
        }
    }

    /// Leaves the exploration for good, moving `local` to the frontier for
    /// workers that still hold reserved statements. Whatever is left there
    /// once every worker is idle or retired went unexplored.
    fn retire(&self, local: &mut Vec<Work<M>>) {
        let mut q = self.queue.lock().expect("frontier poisoned");
        q.items.append(local);
        q.add_idle(1, &self.idle_hint.0);
        self.cvar.notify_all();
    }

    /// Claims the next subtree root, blocking while the frontier is empty
    /// but other workers are still running. Returns `None` when all
    /// workers are idle and the frontier is drained — global termination.
    fn global_pop(&self) -> Option<Work<M>> {
        let mut q = self.queue.lock().expect("frontier poisoned");
        loop {
            if let Some(w) = q.items.pop() {
                return Some(w);
            }
            q.add_idle(1, &self.idle_hint.0);
            if q.idle == self.jobs {
                self.cvar.notify_all();
                return None;
            }
            q = self.cvar.wait(q).expect("frontier poisoned");
            if q.idle == self.jobs && q.items.is_empty() {
                return None;
            }
            q.add_idle(-1, &self.idle_hint.0);
        }
    }

    /// Moves the *oldest* (shallowest, hence largest) half of an
    /// overfull local stack to the shared frontier if anyone is starving.
    fn donate(&self, local: &mut Vec<Work<M>>) {
        if local.len() < 2 || self.idle_hint.0.load(Ordering::Relaxed) == 0 {
            return;
        }
        if let Ok(mut q) = self.queue.try_lock() {
            if q.idle > 0 && q.items.len() < self.jobs {
                let n = local.len() / 2;
                q.items.extend(local.drain(..n));
                self.cvar.notify_all();
            }
        }
    }
}

impl<M, F> SharedExplore<M, F>
where
    M: Clone + Hash,
    F: Fn(&Kernel<M>) -> Verdict,
{
    /// An exploration of `kernel` for `jobs` workers: the root is claimed
    /// in the visited table and is the frontier's only item.
    fn new(kernel: &Kernel<M>, bounds: ExploreBounds, jobs: usize, on_terminal: F) -> Self {
        let mut root = kernel.clone();
        root.track_state_hash_cfg(bounds.hash_cfg());
        let visited = VisitedTable::new(jobs, STEP_CHUNK);
        visited.read().claim(root.state_hash_wide());
        visited.publish(1);
        SharedExplore {
            stop: Padded(AtomicBool::new(false)),
            idle_hint: Padded(AtomicUsize::new(0)),
            queue: Mutex::new(Frontier { items: vec![(root, Script::default(), 0)], idle: 0 }),
            cvar: Condvar::new(),
            visited,
            steps: AtomicU64::new(0),
            totals: Mutex::new(ExploreStats::default()),
            bounds,
            jobs,
            on_terminal,
        }
    }

    /// One worker's loop, until global termination: explore local work
    /// depth-first, adopt frontier work when out of it, and donate to idle
    /// workers. Its counters are folded into the totals as it exits.
    fn work(&self) {
        let mut local: Vec<Work<M>> = Vec::new();
        let mut st = ExploreStats::default();
        // Statements this worker has reserved from the budget so far.
        let mut reserved = 0u64;
        // Fresh claims since this worker last published them, and its
        // claim access to the visited table: held from one reservation to
        // the next, dropped before blocking on the frontier.
        let claims = Cell::new(0u64);
        let claimer = RefCell::new(None);
        loop {
            self.donate(&mut local);
            let w = match local.pop() {
                Some(w) => w,
                None => {
                    claimer.replace(None);
                    let Some(mut w) = self.global_pop() else {
                        break;
                    };
                    // Adopted from another worker: stop sharing its
                    // reference counts with that worker's kernels.
                    w.0.unshare();
                    w
                }
            };
            if self.stopped() {
                continue; // drain remaining work unexplored
            }
            if claimer.borrow().is_none() {
                claimer.replace(Some(self.visited.read()));
            }
            let gate = |st: &ExploreStats| {
                if self.stopped() {
                    return Gate::Stop(None); // drain remaining work unexplored
                }
                if st.steps == reserved {
                    // The table grows only here, with no claimer held.
                    claimer.replace(None);
                    match self.reserve(self.bounds.max_total_steps) {
                        0 => return Gate::Stop(Some(Truncation::StepBound)),
                        n => reserved += n,
                    }
                    claimer.replace(Some(self.visited.checkpoint(claims.take())));
                }
                Gate::Go
            };
            let claim = |h| {
                let fresh =
                    claimer.borrow().as_ref().expect("chains run with a claimer held").claim(h);
                claims.set(claims.get() + u64::from(fresh));
                fresh
            };
            match run_chain(w, &self.bounds, &mut st, &mut local, gate, claim, &self.on_terminal) {
                None => {}
                Some(Truncation::StepBound) => {
                    self.retire(&mut local);
                    break;
                }
                Some(t) => self.halt(t),
            }
        }
        claimer.replace(None);
        self.visited.publish(claims.get());
        let mut t = self.totals.lock().expect("stats poisoned");
        t.terminals += st.terminals;
        t.steps += st.steps;
        t.deduped += st.deduped;
        t.por_pruned += st.por_pruned;
        t.truncation = t.truncation.max(st.truncation);
    }

    /// The merged stats, once every worker has returned from
    /// [`SharedExplore::work`]. Work left on the frontier went unexplored.
    fn finish(self) -> ExploreStats {
        let mut stats = self.totals.into_inner().expect("stats poisoned");
        if !self.queue.into_inner().expect("frontier poisoned").items.is_empty() {
            stats.truncation = stats.truncation.max(Truncation::StepBound);
        }
        stats.peak_visited = self.visited.len();
        stats
    }
}

/// [`explore`], fanned out over `jobs` workers of the
/// [`crate::sweep::pool`] with a shared work frontier.
///
/// Workers pop subtree roots (forked kernels) from a shared deque and
/// claim each state exactly once in a global lock-free dedup table keyed
/// by [`Kernel::state_hash`] (or [`Kernel::state_hash_wide`]): a claim is
/// one CAS on the state's own slot. Everything else a step touches is
/// worker-local: counters are kept per worker and folded once at exit,
/// the step budget is reserved `STEP_CHUNK` statements at a time (the
/// table grows only at those reservations), and a worker that adopts a
/// subtree root from the frontier first gives it private copies of the
/// reference-counted parts its forks would otherwise share with another
/// worker's. So the only shared write on the per-state path is the claim.
///
/// **Determinism**: on a run with [`Truncation::None`], every
/// [`ExploreStats`] field — and the multiset of terminal states passed to
/// `on_terminal` — is bit-identical to the serial [`explore`] for every
/// `jobs` value: exactly-once claiming makes the expanded-state set, and
/// hence all counters, independent of visit order. A truncated run is
/// order-dependent by nature (which states fall inside a bound depends on
/// who got there first), though a step-bounded one still executes exactly
/// [`ExploreBounds::max_total_steps`] statements. So parallel == serial is
/// claimed for untruncated runs only, and the committed exploration grid
/// (`lowerbound::explore_grid`) skips the parallel twin of a truncated
/// serial run. `on_terminal` observes terminals in a nondeterministic
/// order either way, so order-sensitive visitors must collect and sort.
/// Under symmetry reduction the *representative* of each orbit passed to
/// the visitor may differ between runs (stats still match); compare
/// permutation-invariant summaries.
///
/// `jobs <= 1` is [`explore`] itself, truncated runs included: the one
/// worker runs on the calling thread, and with nobody idle it never
/// donates, so it visits states in the serial DFS order.
pub fn explore_parallel<M, F>(
    kernel: &Kernel<M>,
    bounds: ExploreBounds,
    jobs: usize,
    on_terminal: F,
) -> ExploreStats
where
    M: Clone + Hash + Send,
    F: Fn(&Kernel<M>) -> Verdict + Sync,
{
    let jobs = jobs.max(1);
    let shared = SharedExplore::new(kernel, bounds, jobs, on_terminal);
    sweep::pool(jobs, |_w| shared.work());
    shared.finish()
}

/// Convenience wrapper: explores and asserts `property` at every terminal
/// state, returning `Ok(stats)` or the first failure message.
///
/// # Errors
///
/// Returns `Err` with the property's message at the first terminal state
/// where `property` returns `Some(message)`.
pub fn check_all_schedules<M, F>(
    kernel: &Kernel<M>,
    bounds: ExploreBounds,
    mut property: F,
) -> Result<ExploreStats, String>
where
    M: Clone + Hash,
    F: FnMut(&Kernel<M>) -> Option<String>,
{
    let mut failure: Option<String> = None;
    let stats = explore(kernel, bounds, |k| match property(k) {
        None => Verdict::KeepGoing,
        Some(msg) => {
            failure = Some(msg);
            Verdict::Stop
        }
    });
    match failure {
        Some(msg) => Err(msg),
        None => Ok(stats),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ProcessorId, Priority};
    use crate::kernel::SystemSpec;
    use crate::machine::{FnMachine, Footprint, StepOutcome};

    /// Two writers racing on one cell, two statements each, on separate
    /// cpus: all interleavings should be visited.
    fn racing_kernel() -> Kernel<(u64, u64)> {
        let mut k = Kernel::new((0u64, 0u64), SystemSpec::hybrid(4));
        k.add_process(
            ProcessorId(0),
            Priority(1),
            Box::new(FnMachine::new(|mem: &mut (u64, u64), calls| {
                if calls == 0 {
                    mem.0 = 1;
                    (StepOutcome::Continue, None)
                } else {
                    mem.1 = 1;
                    (StepOutcome::Finished, None)
                }
            })),
        );
        k.add_process(
            ProcessorId(1),
            Priority(1),
            Box::new(FnMachine::new(|mem: &mut (u64, u64), calls| {
                if calls == 0 {
                    mem.0 = 2;
                    (StepOutcome::Continue, None)
                } else {
                    mem.1 = 2;
                    (StepOutcome::Finished, None)
                }
            })),
        );
        k
    }

    /// Two writers on *disjoint* cells with declared footprints, on
    /// separate cpus: partial-order reduction should collapse the
    /// interleavings to one representative order.
    fn disjoint_kernel() -> Kernel<(u64, u64)> {
        let mut k = Kernel::new((0u64, 0u64), SystemSpec::hybrid(4));
        k.add_process(
            ProcessorId(0),
            Priority(1),
            Box::new(
                FnMachine::new(|mem: &mut (u64, u64), calls| {
                    mem.0 += 1;
                    if calls == 1 { (StepOutcome::Finished, None) } else { (StepOutcome::Continue, None) }
                })
                .with_footprint(Footprint::rw(0b01)),
            ),
        );
        k.add_process(
            ProcessorId(1),
            Priority(1),
            Box::new(
                FnMachine::new(|mem: &mut (u64, u64), calls| {
                    mem.1 += 1;
                    if calls == 1 { (StepOutcome::Finished, None) } else { (StepOutcome::Continue, None) }
                })
                .with_footprint(Footprint::rw(0b10)),
            ),
        );
        k
    }

    #[test]
    fn visits_all_final_memories() {
        let k = racing_kernel();
        let mut finals: Vec<(u64, u64)> = Vec::new();
        let stats = explore(&k, ExploreBounds::default(), |k| {
            finals.push(k.mem);
            Verdict::KeepGoing
        });
        finals.sort_unstable();
        finals.dedup();
        // Interleavings of (a1 a2) and (b1 b2): last writer of each cell
        // varies; all four (1,1) (1,2) (2,1) (2,2) are reachable.
        assert_eq!(finals, vec![(1, 1), (1, 2), (2, 1), (2, 2)]);
        assert!(stats.terminals >= 4);
        assert!(!stats.truncated());
    }

    #[test]
    fn check_all_schedules_reports_counterexample() {
        let k = racing_kernel();
        let err = check_all_schedules(&k, ExploreBounds::default(), |k| {
            (k.mem == (2, 1)).then(|| "reached (2,1)".to_string())
        })
        .unwrap_err();
        assert_eq!(err, "reached (2,1)");
    }

    #[test]
    fn check_all_schedules_passes_valid_property() {
        let k = racing_kernel();
        let stats = check_all_schedules(&k, ExploreBounds::default(), |k| {
            (k.mem.0 == 0).then(|| "cell never written".to_string())
        })
        .unwrap();
        assert!(stats.terminals > 0);
    }

    #[test]
    fn dedup_prunes_converging_schedules() {
        let k = racing_kernel();
        let stats = explore(&k, ExploreBounds::default(), |_| Verdict::KeepGoing);
        assert!(stats.deduped > 0, "expected convergent interleavings to dedup");
        // Every non-terminal arrival either claimed a fresh state or
        // deduped, so the visited set is exactly root + claims.
        assert_eq!(stats.peak_visited, 1 + stats.steps - stats.deduped);
    }

    #[test]
    fn step_bound_truncates() {
        let k = racing_kernel();
        let stats = explore(
            &k,
            ExploreBounds { max_total_steps: 2, ..ExploreBounds::default() },
            |_| Verdict::KeepGoing,
        );
        assert_eq!(stats.truncation, Truncation::StepBound);
        assert!(stats.truncated());
    }

    #[test]
    fn depth_bound_truncates_with_reason() {
        let k = racing_kernel();
        let stats = explore(
            &k,
            ExploreBounds { max_depth: 2, ..ExploreBounds::default() },
            |_| Verdict::KeepGoing,
        );
        assert_eq!(stats.truncation, Truncation::DepthBound);
    }

    #[test]
    fn visitor_stop_truncates_with_reason() {
        let k = racing_kernel();
        let stats = explore(&k, ExploreBounds::default(), |_| Verdict::Stop);
        assert_eq!(stats.truncation, Truncation::VisitorStop);
    }

    #[test]
    fn parallel_step_bound_executes_exactly_the_budget() {
        let k = racing_kernel();
        let full = explore(&k, ExploreBounds::default(), |_| Verdict::KeepGoing);
        for budget in [2, full.steps / 2, full.steps + 1] {
            let bounds = ExploreBounds { max_total_steps: budget, ..ExploreBounds::default() };
            let serial = explore(&k, bounds, |_| Verdict::KeepGoing);
            assert_eq!(serial.steps, budget.min(full.steps));
            for jobs in [2, 4] {
                let stats = explore_parallel(&k, bounds, jobs, |_| Verdict::KeepGoing);
                assert_eq!(stats.steps, serial.steps, "jobs={jobs} budget={budget}");
                assert_eq!(stats.truncation, serial.truncation, "jobs={jobs} budget={budget}");
            }
        }
    }

    #[test]
    fn serial_visit_order_is_the_dfs_order() {
        // Pinned from the serial explorer before it became the one-worker
        // case of the parallel loop.
        let mut finals = Vec::new();
        explore(&racing_kernel(), ExploreBounds::default(), |k| {
            finals.push(k.mem);
            Verdict::KeepGoing
        });
        assert_eq!(finals, vec![(1, 1), (1, 2), (2, 1), (2, 2)]);
    }

    #[test]
    fn truncated_serial_runs_are_pinned_and_match_one_job() {
        let k = racing_kernel();
        let stats = |terminals, steps, deduped, peak_visited, truncation| ExploreStats {
            terminals,
            steps,
            deduped,
            por_pruned: 0,
            peak_visited,
            truncation,
        };
        let step_bound = |max_total_steps| ExploreBounds { max_total_steps, ..ExploreBounds::default() };
        // (bounds, stop at the n-th terminal, the serial stats pinned before
        // the serial explorer became the one-worker case of the parallel one)
        let cases = [
            (step_bound(2), 0, stats(0, 2, 0, 3, Truncation::StepBound)),
            (step_bound(8), 0, stats(1, 8, 1, 8, Truncation::StepBound)),
            (step_bound(17), 0, stats(4, 16, 2, 15, Truncation::None)),
            (
                ExploreBounds { max_depth: 2, ..ExploreBounds::default() },
                0,
                stats(0, 6, 0, 3, Truncation::DepthBound),
            ),
            (ExploreBounds::default(), 2, stats(2, 8, 1, 8, Truncation::VisitorStop)),
        ];
        for (bounds, stop_at, pinned) in cases {
            let mut seen = 0;
            let serial = explore(&k, bounds, |_| {
                seen += 1;
                if seen == stop_at { Verdict::Stop } else { Verdict::KeepGoing }
            });
            assert_eq!(serial, pinned, "{bounds:?} stop at {stop_at}");
            let seen = AtomicUsize::new(0);
            let one_job = explore_parallel(&k, bounds, 1, |_| {
                if seen.fetch_add(1, Ordering::Relaxed) + 1 == stop_at {
                    Verdict::Stop
                } else {
                    Verdict::KeepGoing
                }
            });
            assert_eq!(one_job, serial, "{bounds:?} stop at {stop_at}");
        }
    }

    #[test]
    fn wide_hash_agrees_with_narrow() {
        let k = racing_kernel();
        let narrow = explore(&k, ExploreBounds::default(), |_| Verdict::KeepGoing);
        let wide = explore(&k, ExploreBounds::default().wide(), |_| Verdict::KeepGoing);
        assert_eq!(narrow, wide, "no collisions at this scale: identical stats");
    }

    #[test]
    fn parallel_matches_serial_at_every_jobs_count() {
        let k = racing_kernel();
        let serial = explore(&k, ExploreBounds::default(), |_| Verdict::KeepGoing);
        for jobs in [1, 2, 4, 8] {
            let par = explore_parallel(&k, ExploreBounds::default(), jobs, |_| Verdict::KeepGoing);
            assert_eq!(par, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn parallel_collects_same_terminal_memories() {
        let k = racing_kernel();
        let finals = Mutex::new(Vec::new());
        explore_parallel(&k, ExploreBounds::default(), 4, |k| {
            finals.lock().unwrap().push(k.mem);
            Verdict::KeepGoing
        });
        let mut finals = finals.into_inner().unwrap();
        finals.sort_unstable();
        finals.dedup();
        assert_eq!(finals, vec![(1, 1), (1, 2), (2, 1), (2, 2)]);
    }

    #[test]
    fn por_prunes_disjoint_writers_without_losing_terminals() {
        let k = disjoint_kernel();
        let plain = explore(&k, ExploreBounds::default(), |_| Verdict::KeepGoing);
        let finals = Mutex::new(Vec::new());
        let reduced = explore_parallel(
            &k,
            ExploreBounds { por: true, ..ExploreBounds::default() },
            1,
            |k| {
                finals.lock().unwrap().push(k.mem);
                Verdict::KeepGoing
            },
        );
        // POR preserves the quiescent-state set exactly...
        assert_eq!(reduced.terminals, plain.terminals);
        assert_eq!(finals.into_inner().unwrap(), vec![(2, 2)]);
        // ...while exploring strictly fewer interleavings.
        assert!(reduced.por_pruned > 0);
        assert!(reduced.steps < plain.steps, "{} !< {}", reduced.steps, plain.steps);
        assert!(reduced.peak_visited < plain.peak_visited);
    }

    #[test]
    fn por_never_prunes_undeclared_footprints() {
        let k = racing_kernel(); // FnMachine defaults to Footprint::Unknown
        let plain = explore(&k, ExploreBounds::default(), |_| Verdict::KeepGoing);
        let reduced =
            explore(&k, ExploreBounds { por: true, ..ExploreBounds::default() }, |_| {
                Verdict::KeepGoing
            });
        assert_eq!(plain, reduced);
        assert_eq!(reduced.por_pruned, 0);
    }

    #[test]
    fn symmetry_merges_interchangeable_processes() {
        // Two *identical* machines at equal priority on one cpu: states
        // that differ only by which process advanced first are one orbit.
        let mk = || {
            let mut k = Kernel::new(0u64, SystemSpec::hybrid(2));
            for _ in 0..2 {
                k.add_process(
                    ProcessorId(0),
                    Priority(1),
                    Box::new(FnMachine::new(|mem: &mut u64, calls| {
                        *mem += 1;
                        if calls == 1 {
                            (StepOutcome::Finished, None)
                        } else {
                            (StepOutcome::Continue, None)
                        }
                    })),
                );
            }
            k
        };
        let plain = explore(&mk(), ExploreBounds::default(), |_| Verdict::KeepGoing);
        let sym = explore(
            &mk(),
            ExploreBounds { symmetry: true, ..ExploreBounds::default() },
            |_| Verdict::KeepGoing,
        );
        assert!(sym.peak_visited < plain.peak_visited, "{sym:?} vs {plain:?}");
        assert!(sym.terminals <= plain.terminals);
        assert!(sym.terminals >= 1);
    }
}

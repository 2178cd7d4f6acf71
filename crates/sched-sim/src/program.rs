//! A tiny structured-program representation whose unit of execution is one
//! atomic statement.
//!
//! The paper presents its algorithms as numbered statements (Figs. 3, 5, 7,
//! 9), each assumed atomic, with quanta measured in statements executed.
//! This module lets those listings be transcribed line-for-line: a
//! [`Program`] is a set of procedures, each a list of [`Stmt`]s; a
//! [`ProgMachine`] runs a program one *counted* statement per scheduler
//! step, with uncounted statements available for pure control flow that the
//! paper does not number (loop headers, procedure dispatch).
//!
//! # Examples
//!
//! A two-statement program that increments a shared counter and returns it:
//!
//! ```
//! use sched_sim::program::{Flow, ProgramBuilder, ProgMachine};
//! use sched_sim::machine::{StepCtx, StepMachine, StepOutcome};
//! use sched_sim::ids::ProcessId;
//!
//! #[derive(Clone, Hash, Default)]
//! struct Locals { got: u64 }
//!
//! let mut b = ProgramBuilder::<Locals, u64>::new();
//! let main = b.proc("main");
//! b.stmt(main, "1: mem += 1", |_l, mem| { *mem += 1; Flow::Next });
//! b.stmt(main, "2: return mem", |l, mem| { l.got = *mem; Flow::Return });
//! let prog = b.build();
//!
//! let mut m = ProgMachine::single_shot(&prog, Locals::default(), main)
//!     .with_output(|l| Some(l.got));
//! let mut mem = 0u64;
//! let mut ctx = StepCtx::new(ProcessId(0));
//! assert_eq!(m.step(&mut mem, &mut ctx), StepOutcome::Continue);
//! assert_eq!(m.step(&mut mem, &mut ctx), StepOutcome::Finished);
//! assert_eq!(m.output(), Some(1));
//! ```

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::machine::{Footprint, StepCtx, StepMachine, StepOutcome};
use crate::smallvec::SmallVec;
use crate::statehash::StateHasher;

/// Refers to a procedure of a [`Program`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ProcRef(usize);

/// Refers to a statement position, for `goto` targets. Labels are declared
/// with [`ProgramBuilder::label`] and bound with [`ProgramBuilder::bind`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Control transfer returned by a statement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flow {
    /// Fall through to the next statement of the current procedure.
    Next,
    /// Jump to a bound label in the current procedure.
    Goto(Label),
    /// Call a procedure; on return, resume at the next statement.
    Call(ProcRef),
    /// Call a procedure; on return, resume at `resume`.
    CallThen {
        /// The procedure to call.
        proc: ProcRef,
        /// Where to resume in the current procedure after the call returns.
        resume: Label,
    },
    /// Return from the current procedure. Returning from the entry
    /// procedure completes the current object invocation.
    Return,
    /// Terminate the whole process immediately (all invocations abandoned).
    Finish,
}

type StmtFn<L, M> = Arc<dyn Fn(&mut L, &mut M) -> Flow + Send + Sync>;

/// One statement: a display label, whether it is a *counted* atomic
/// statement (it consumes quantum), its shared-memory footprint, and its
/// effect.
pub struct Stmt<L, M> {
    name: String,
    counted: bool,
    fp: Footprint,
    run: StmtFn<L, M>,
}

struct ProcDef<L, M> {
    name: String,
    stmts: Vec<Stmt<L, M>>,
}

/// An immutable program: procedures of atomic statements. Construct with
/// [`ProgramBuilder`]; execute with [`ProgMachine`]. Programs are shared by
/// reference ([`Arc`]) among the machines running them.
pub struct Program<L, M> {
    procs: Vec<ProcDef<L, M>>,
    /// label -> (proc index, stmt index)
    labels: Vec<(usize, usize)>,
    /// Union of every statement's footprint, cached at build time — the
    /// machine's static may-footprint for partial-order reduction.
    may_fp: Footprint,
}

impl<L, M> Program<L, M> {
    /// The union of every statement's declared footprint (the whole-program
    /// may-footprint). [`Footprint::Unknown`] if any statement left its
    /// footprint undeclared.
    pub fn may_footprint(&self) -> Footprint {
        self.may_fp
    }
}

/// Builds a [`Program`].
///
/// Procedures and labels may be declared before the statements that use or
/// bind them, so forward `goto`s and mutually recursive calls are easy to
/// transcribe. [`ProgramBuilder::build`] validates that every label is
/// bound and every procedure is nonempty.
pub struct ProgramBuilder<L, M> {
    procs: Vec<ProcDef<L, M>>,
    labels: Vec<Option<(usize, usize)>>,
}

impl<L, M> Default for ProgramBuilder<L, M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<L, M> ProgramBuilder<L, M> {
    /// Creates an empty builder.
    pub fn new() -> Self {
        ProgramBuilder { procs: Vec::new(), labels: Vec::new() }
    }

    /// Declares a procedure named `name`.
    pub fn proc(&mut self, name: &str) -> ProcRef {
        self.procs.push(ProcDef { name: name.to_string(), stmts: Vec::new() });
        ProcRef(self.procs.len() - 1)
    }

    /// Declares an unbound label (a forward jump target).
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the *next* statement appended to `proc`.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound.
    pub fn bind(&mut self, proc: ProcRef, label: Label) {
        let slot = &mut self.labels[label.0];
        assert!(slot.is_none(), "label bound twice");
        *slot = Some((proc.0, self.procs[proc.0].stmts.len()));
    }

    /// Declares a label bound to the next statement of `proc` (shorthand
    /// for [`label`](Self::label) + [`bind`](Self::bind)).
    pub fn here(&mut self, proc: ProcRef) -> Label {
        let l = self.label();
        self.bind(proc, l);
        l
    }

    /// Appends a *counted* atomic statement to `proc`.
    ///
    /// Counted statements are the paper's numbered statements: each consumes
    /// one unit of quantum. By convention a counted statement performs at
    /// most one shared-memory access (the implementations transcribe the
    /// paper's numbering).
    pub fn stmt(
        &mut self,
        proc: ProcRef,
        name: &str,
        f: impl Fn(&mut L, &mut M) -> Flow + Send + Sync + 'static,
    ) {
        self.stmt_fp(proc, name, Footprint::Unknown, f);
    }

    /// Appends a *counted* atomic statement with a declared shared-memory
    /// [`Footprint`].
    ///
    /// The footprint must over-approximate every cell the statement can
    /// touch on any execution (a missing cell is a partial-order-reduction
    /// soundness bug; an extra cell merely prunes less). Statements added
    /// with [`stmt`](Self::stmt) default to [`Footprint::Unknown`], which
    /// never prunes.
    pub fn stmt_fp(
        &mut self,
        proc: ProcRef,
        name: &str,
        fp: Footprint,
        f: impl Fn(&mut L, &mut M) -> Flow + Send + Sync + 'static,
    ) {
        self.procs[proc.0].stmts.push(Stmt {
            name: name.to_string(),
            counted: true,
            fp,
            run: Arc::new(f),
        });
    }

    /// Appends an *uncounted* statement: pure local control flow (loop
    /// headers, call dispatch) that the paper does not number. Uncounted
    /// statements must not access shared memory and must not complete an
    /// invocation.
    pub fn free(
        &mut self,
        proc: ProcRef,
        name: &str,
        f: impl Fn(&mut L, &mut M) -> Flow + Send + Sync + 'static,
    ) {
        self.procs[proc.0].stmts.push(Stmt {
            name: name.to_string(),
            counted: false,
            // Uncounted statements are pure local control flow by contract.
            fp: Footprint::LOCAL,
            run: Arc::new(f),
        });
    }

    /// Finalizes the program.
    ///
    /// # Panics
    ///
    /// Panics if a label was never bound, a label points past the end of
    /// its procedure, or a procedure has no statements.
    pub fn build(self) -> Arc<Program<L, M>> {
        let labels: Vec<(usize, usize)> = self
            .labels
            .iter()
            .enumerate()
            .map(|(i, l)| l.unwrap_or_else(|| panic!("label {i} never bound")))
            .collect();
        for (p, s) in &labels {
            assert!(
                *s < self.procs[*p].stmts.len(),
                "label points past the end of procedure `{}`",
                self.procs[*p].name
            );
        }
        for p in &self.procs {
            assert!(!p.stmts.is_empty(), "procedure `{}` has no statements", p.name);
        }
        let may_fp = self
            .procs
            .iter()
            .flat_map(|p| &p.stmts)
            .fold(Footprint::LOCAL, |acc, s| acc.union(s.fp));
        Arc::new(Program { procs: self.procs, labels, may_fp })
    }
}

/// Chooses the entry procedure for each successive invocation of a process
/// (the paper's nondeterministic operation selection at each
/// thinking→ready transition, made deterministic per machine).
///
/// Receives the process locals (to set up operation arguments) and the
/// invocation index; returns the entry procedure, or `None` when the
/// process has no further invocations.
pub type InvocationPlan<L> = Arc<dyn Fn(&mut L, u32) -> Option<ProcRef> + Send + Sync>;

type OutputFn<L> = Arc<dyn Fn(&L) -> Option<u64> + Send + Sync>;

/// A machine's (proc index, pc) call stack, inline up to four frames
/// deep — deeper than any program in the workspace calls — so cloning a
/// machine (the explorer's fork) allocates nothing for its stack.
type Frames = SmallVec<(usize, usize), 4>;

/// What a [`ProgMachine`] shares with its clones, behind one reference
/// count so a fork touches one counter per machine, not three.
struct Shared<L, M> {
    prog: Arc<Program<L, M>>,
    plan: InvocationPlan<L>,
    out_fn: OutputFn<L>,
    /// Declared bound on everything this machine can ever touch,
    /// overriding the whole-program fallback (see
    /// [`ProgMachine::with_may_footprint`]).
    may_fp_override: Option<Footprint>,
}

impl<L, M> Clone for Shared<L, M> {
    fn clone(&self) -> Self {
        Shared {
            prog: self.prog.clone(),
            plan: self.plan.clone(),
            out_fn: self.out_fn.clone(),
            may_fp_override: self.may_fp_override,
        }
    }
}

/// Executes a [`Program`] one counted statement per step.
///
/// Cloneable (for the explorer) and hashable via
/// [`StepMachine::state_key`], provided the locals are `Clone + Hash`.
pub struct ProgMachine<L, M> {
    shared: Arc<Shared<L, M>>,
    locals: L,
    /// Call stack; empty only when finished.
    frames: Frames,
    inv_index: u32,
    finished: bool,
    out: Option<u64>,
    /// Bound on consecutive uncounted statements, to catch control-flow
    /// loops that would otherwise spin forever inside one step.
    free_fuel: u32,
}

impl<L: Clone, M> Clone for ProgMachine<L, M> {
    fn clone(&self) -> Self {
        ProgMachine {
            shared: self.shared.clone(),
            locals: self.locals.clone(),
            frames: self.frames.clone(),
            inv_index: self.inv_index,
            finished: self.finished,
            out: self.out,
            free_fuel: self.free_fuel,
        }
    }
}

impl<L, M> ProgMachine<L, M> {
    /// A machine that performs a single invocation of `entry` and finishes.
    pub fn single_shot(prog: &Arc<Program<L, M>>, locals: L, entry: ProcRef) -> Self {
        Self::with_plan(
            prog,
            locals,
            Arc::new(move |_l: &mut L, i| if i == 0 { Some(entry) } else { None }),
        )
    }

    /// A machine whose successive invocations are chosen by `plan`.
    pub fn with_plan(prog: &Arc<Program<L, M>>, locals: L, plan: InvocationPlan<L>) -> Self {
        let mut m = ProgMachine {
            shared: Arc::new(Shared {
                prog: prog.clone(),
                plan,
                out_fn: Arc::new(|_| None),
                may_fp_override: None,
            }),
            locals,
            frames: Frames::new(),
            inv_index: 0,
            finished: false,
            out: None,
            free_fuel: 4096,
        };
        m.start_invocation();
        m
    }

    /// Sets the closure that extracts an invocation's output from the
    /// locals when the invocation completes.
    pub fn with_output(mut self, f: impl Fn(&L) -> Option<u64> + Send + Sync + 'static) -> Self {
        Arc::make_mut(&mut self.shared).out_fn = Arc::new(f);
        self
    }

    /// Declares a bound on everything this machine can ever access,
    /// replacing the whole-program may-footprint fallback. A program often
    /// bundles several procedures (e.g. one `decide` per consensus
    /// object); a machine whose invocation plan only ever enters one of
    /// them is entitled to that procedure's tighter footprint, which is
    /// what lets the explorer's partial-order reduction commute it against
    /// machines confined to *other* objects.
    ///
    /// **Caller obligation**: `fp` must over-approximate the footprint of
    /// every statement any invocation of this machine can reach (including
    /// through `Flow::Call`). An under-approximation makes the reduction
    /// unsound.
    #[must_use]
    pub fn with_may_footprint(mut self, fp: Footprint) -> Self {
        Arc::make_mut(&mut self.shared).may_fp_override = Some(fp);
        self
    }

    /// Read access to the machine's locals (for test oracles).
    pub fn locals(&self) -> &L {
        &self.locals
    }

    /// The index of the invocation currently executing (or, if finished,
    /// one past the last completed invocation).
    pub fn invocation_index(&self) -> u32 {
        self.inv_index
    }

    /// Whether the process has finished all its invocations.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    fn start_invocation(&mut self) {
        debug_assert!(self.frames.is_empty());
        match (self.shared.plan)(&mut self.locals, self.inv_index) {
            Some(entry) => self.frames.push((entry.0, 0)),
            None => self.finished = true,
        }
    }

    /// Applies `flow` to the call stack; returns `true` if the invocation
    /// completed. Takes the fields it needs rather than `self`, so the
    /// step loop can keep the program borrowed across it.
    fn apply_flow(
        prog: &Program<L, M>,
        frames: &mut Frames,
        finished: &mut bool,
        flow: Flow,
    ) -> bool {
        match flow {
            Flow::Next => {
                let top = frames.last_mut().expect("no frame");
                top.1 += 1;
                let (p, pc) = *top;
                assert!(
                    pc < prog.procs[p].stmts.len(),
                    "fell off the end of procedure `{}`",
                    prog.procs[p].name
                );
                false
            }
            Flow::Goto(l) => {
                let (lp, ls) = prog.labels[l.0];
                let top = frames.last_mut().expect("no frame");
                assert_eq!(lp, top.0, "goto across procedures");
                top.1 = ls;
                false
            }
            Flow::Call(p) => {
                let top = frames.last_mut().expect("no frame");
                top.1 += 1;
                frames.push((p.0, 0));
                false
            }
            Flow::CallThen { proc, resume } => {
                let (lp, ls) = prog.labels[resume.0];
                let top = frames.last_mut().expect("no frame");
                assert_eq!(lp, top.0, "resume label in another procedure");
                top.1 = ls;
                frames.push((proc.0, 0));
                false
            }
            Flow::Return => {
                frames.pop();
                frames.is_empty()
            }
            Flow::Finish => {
                frames.clear();
                *finished = true;
                true
            }
        }
    }
}

impl<L, M> StepMachine<M> for ProgMachine<L, M>
where
    L: Clone + Hash + Send + Sync + 'static,
    M: 'static,
{
    fn step(&mut self, mem: &mut M, ctx: &mut StepCtx<'_>) -> StepOutcome {
        assert!(!self.finished, "step called on a finished process");
        let inv_done = {
            // Field-disjoint borrows: the program stays borrowed (and its
            // statements indexed in place, cloning neither a closure Arc
            // nor a name) while the statements mutate the locals and the
            // call stack. The program itself never mutates.
            let ProgMachine { shared, locals, frames, finished, free_fuel, .. } = &mut *self;
            let prog = &*shared.prog;
            let mut fuel = *free_fuel;
            loop {
                let &(p, pc) = frames.last().expect("machine has no frame");
                let stmt = &prog.procs[p].stmts[pc];
                let flow = (stmt.run)(locals, mem);
                if Self::apply_flow(prog, frames, finished, flow) {
                    assert!(
                        stmt.counted,
                        "invocation completed by uncounted statement `{}`; \
                         returns must be counted statements",
                        stmt.name
                    );
                    ctx.label(&stmt.name);
                    break true;
                }
                if stmt.counted {
                    ctx.label(&stmt.name);
                    break false;
                }
                fuel -= 1;
                assert!(fuel > 0, "uncounted-statement loop detected at `{}`", stmt.name);
            }
        };
        if !inv_done {
            return StepOutcome::Continue;
        }
        self.out = (self.shared.out_fn)(&self.locals);
        self.inv_index += 1;
        if !self.finished {
            self.start_invocation();
        }
        if self.finished {
            StepOutcome::Finished
        } else {
            StepOutcome::InvocationEnd
        }
    }

    fn output(&self) -> Option<u64> {
        self.out
    }

    fn box_clone(&self) -> Box<dyn StepMachine<M>> {
        Box::new(self.clone())
    }

    fn arc_clone(&self) -> Arc<dyn StepMachine<M>> {
        Arc::new(self.clone())
    }

    fn box_clone_unshared(&self) -> Box<dyn StepMachine<M>> {
        Box::new(ProgMachine { shared: Arc::new(Shared::clone(&self.shared)), ..self.clone() })
    }

    fn state_key(&self, h: &mut dyn Hasher) {
        // Hash through a concrete hasher (no virtual call per field), then
        // hand both lanes on so 128-bit keys keep their full width.
        let mut inner = StateHasher::new(0);
        self.locals.hash(&mut inner);
        self.frames.hash(&mut inner);
        self.inv_index.hash(&mut inner);
        self.finished.hash(&mut inner);
        self.out.hash(&mut inner);
        h.write_u128(inner.lanes());
    }

    fn next_footprint(&self) -> Footprint {
        // One `step` call runs any uncounted statements up to and including
        // the next counted one. If the pc rests on a counted statement its
        // declared footprint is exact; if it rests on an uncounted one
        // (pure local control flow), *which* counted statement follows is
        // dynamic, so fall back to the whole-program may-footprint.
        match self.frames.last() {
            None => Footprint::LOCAL, // finished: never steps again
            Some(&(p, pc)) => {
                let stmt = &self.shared.prog.procs[p].stmts[pc];
                if stmt.counted {
                    stmt.fp
                } else {
                    self.shared.may_fp_override.unwrap_or(self.shared.prog.may_fp)
                }
            }
        }
    }

    fn may_footprint(&self) -> Footprint {
        if self.finished {
            Footprint::LOCAL
        } else {
            self.shared.may_fp_override.unwrap_or(self.shared.prog.may_fp)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ProcessId;

    #[derive(Clone, Hash, Default)]
    struct L {
        i: u64,
        ret: u64,
    }

    fn ctx() -> StepCtx<'static> {
        StepCtx::new(ProcessId(0))
    }

    #[test]
    fn straight_line_program_runs_to_finish() {
        let mut b = ProgramBuilder::<L, u64>::new();
        let main = b.proc("main");
        b.stmt(main, "1", |_, m| {
            *m += 10;
            Flow::Next
        });
        b.stmt(main, "2", |l, m| {
            l.ret = *m;
            Flow::Return
        });
        let prog = b.build();
        let mut m = ProgMachine::single_shot(&prog, L::default(), main)
            .with_output(|l| Some(l.ret));
        let mut mem = 5u64;
        assert_eq!(m.step(&mut mem, &mut ctx()), StepOutcome::Continue);
        assert_eq!(m.step(&mut mem, &mut ctx()), StepOutcome::Finished);
        assert_eq!(m.output(), Some(15));
    }

    #[test]
    fn unshared_clone_takes_no_reference_to_the_source() {
        let mut b = ProgramBuilder::<L, u64>::new();
        let main = b.proc("main");
        b.stmt(main, "1", |l, m| {
            l.ret = *m + 1;
            Flow::Return
        });
        let prog = b.build();
        let m = ProgMachine::single_shot(&prog, L::default(), main).with_output(|l| Some(l.ret));
        let shared = |m: &ProgMachine<L, u64>| Arc::strong_count(&m.shared);
        let _plain = m.box_clone();
        assert_eq!(shared(&m), 2, "a plain clone shares");
        let mut unshared = m.box_clone_unshared();
        assert_eq!(shared(&m), 2, "an unshared clone does not");
        let mut mem = 4u64;
        assert_eq!(unshared.step(&mut mem, &mut ctx()), StepOutcome::Finished);
        assert_eq!(unshared.output(), Some(5));
    }

    #[test]
    fn goto_loops_and_labels() {
        let mut b = ProgramBuilder::<L, u64>::new();
        let main = b.proc("main");
        let top = b.here(main);
        b.stmt(main, "body", move |l, m| {
            l.i += 1;
            *m += 1;
            if l.i < 3 {
                Flow::Goto(top)
            } else {
                Flow::Return
            }
        });
        let prog = b.build();
        let mut m = ProgMachine::single_shot(&prog, L::default(), main);
        let mut mem = 0u64;
        assert_eq!(m.step(&mut mem, &mut ctx()), StepOutcome::Continue);
        assert_eq!(m.step(&mut mem, &mut ctx()), StepOutcome::Continue);
        assert_eq!(m.step(&mut mem, &mut ctx()), StepOutcome::Finished);
        assert_eq!(mem, 3);
    }

    #[test]
    fn procedure_call_and_return() {
        let mut b = ProgramBuilder::<L, u64>::new();
        let sub = b.proc("sub");
        let main = b.proc("main");
        b.stmt(sub, "sub.1", |l, _| {
            l.ret = 42;
            Flow::Return
        });
        b.stmt(main, "main.1", move |_, _| Flow::Call(sub));
        b.stmt(main, "main.2", |l, m| {
            *m = l.ret;
            Flow::Return
        });
        let prog = b.build();
        let mut m = ProgMachine::single_shot(&prog, L::default(), main);
        let mut mem = 0u64;
        assert_eq!(m.step(&mut mem, &mut ctx()), StepOutcome::Continue); // main.1 (call)
        assert_eq!(m.step(&mut mem, &mut ctx()), StepOutcome::Continue); // sub.1
        assert_eq!(m.step(&mut mem, &mut ctx()), StepOutcome::Finished); // main.2
        assert_eq!(mem, 42);
    }

    #[test]
    fn call_then_resumes_at_label() {
        let mut b = ProgramBuilder::<L, u64>::new();
        let sub = b.proc("sub");
        let main = b.proc("main");
        b.stmt(sub, "sub.1", |_, m| {
            *m += 1;
            Flow::Return
        });
        let after = b.label();
        b.stmt(main, "main.1", move |_, _| Flow::CallThen { proc: sub, resume: after });
        b.stmt(main, "main.skip", |_, m| {
            *m = 999; // must be skipped
            Flow::Return
        });
        b.bind(main, after);
        b.stmt(main, "main.2", |_, _| Flow::Return);
        let prog = b.build();
        let mut m = ProgMachine::single_shot(&prog, L::default(), main);
        let mut mem = 0u64;
        m.step(&mut mem, &mut ctx());
        m.step(&mut mem, &mut ctx());
        assert_eq!(m.step(&mut mem, &mut ctx()), StepOutcome::Finished);
        assert_eq!(mem, 1);
    }

    #[test]
    fn uncounted_statements_do_not_consume_a_step() {
        let mut b = ProgramBuilder::<L, u64>::new();
        let main = b.proc("main");
        b.free(main, "for-header", |l, _| {
            l.i = 1;
            Flow::Next
        });
        b.stmt(main, "1", |_, m| {
            *m += 1;
            Flow::Return
        });
        let prog = b.build();
        let mut m = ProgMachine::single_shot(&prog, L::default(), main);
        let mut mem = 0u64;
        // One step executes both the free header and the counted statement.
        assert_eq!(m.step(&mut mem, &mut ctx()), StepOutcome::Finished);
        assert_eq!(mem, 1);
    }

    #[test]
    fn multi_invocation_plan() {
        let mut b = ProgramBuilder::<L, u64>::new();
        let main = b.proc("op");
        b.stmt(main, "1", |l, m| {
            *m += l.i;
            Flow::Return
        });
        let prog = b.build();
        let plan: InvocationPlan<L> = Arc::new(move |l, k| {
            if k < 3 {
                l.i = u64::from(k) + 1;
                Some(main)
            } else {
                None
            }
        });
        let mut m = ProgMachine::with_plan(&prog, L::default(), plan);
        let mut mem = 0u64;
        assert_eq!(m.step(&mut mem, &mut ctx()), StepOutcome::InvocationEnd);
        assert_eq!(m.step(&mut mem, &mut ctx()), StepOutcome::InvocationEnd);
        assert_eq!(m.step(&mut mem, &mut ctx()), StepOutcome::Finished);
        assert_eq!(mem, 1 + 2 + 3);
        assert_eq!(m.invocation_index(), 3);
    }

    #[test]
    fn finish_flow_abandons_remaining_invocations() {
        let mut b = ProgramBuilder::<L, u64>::new();
        let main = b.proc("op");
        b.stmt(main, "1", |_, _| Flow::Finish);
        let prog = b.build();
        let plan: InvocationPlan<L> = Arc::new(move |_, _| Some(main)); // endless plan
        let mut m = ProgMachine::with_plan(&prog, L::default(), plan);
        let mut mem = 0u64;
        assert_eq!(m.step(&mut mem, &mut ctx()), StepOutcome::Finished);
        assert!(m.is_finished());
    }

    #[test]
    fn clone_preserves_execution_state() {
        let mut b = ProgramBuilder::<L, u64>::new();
        let main = b.proc("main");
        b.stmt(main, "1", |_, m| {
            *m += 1;
            Flow::Next
        });
        b.stmt(main, "2", |_, m| {
            *m += 10;
            Flow::Return
        });
        let prog = b.build();
        let mut m = ProgMachine::single_shot(&prog, L::default(), main);
        let mut mem = 0u64;
        m.step(&mut mem, &mut ctx());
        let mut c = m.clone();
        let mut mem2 = mem;
        assert_eq!(c.step(&mut mem2, &mut ctx()), StepOutcome::Finished);
        assert_eq!(mem2, 11);
        // Original unaffected by the clone's step.
        assert_eq!(m.step(&mut mem, &mut ctx()), StepOutcome::Finished);
    }

    #[test]
    fn deep_call_stacks_spill_past_the_inline_frames() {
        // Seven nested procedures: the call stack outgrows its inline
        // frames, and unwinding must still visit every caller in order.
        let mut b = ProgramBuilder::<L, u64>::new();
        let procs: Vec<ProcRef> = (0..7).map(|i| b.proc(&format!("p{i}"))).collect();
        for i in 0..6 {
            let callee = procs[i + 1];
            b.free(procs[i], "call", move |_, _| Flow::Call(callee));
            b.stmt(procs[i], "ret", move |l: &mut L, _| {
                l.ret = l.ret * 10 + i as u64;
                Flow::Return
            });
        }
        b.stmt(procs[6], "inc", |_, m| {
            *m += 1;
            Flow::Return
        });
        let prog = b.build();
        let mut m = ProgMachine::single_shot(&prog, L::default(), procs[0]);
        let mut mem = 0u64;
        let mut steps = 1;
        while m.step(&mut mem, &mut ctx()) != StepOutcome::Finished {
            steps += 1;
            let fork = m.clone();
            assert_eq!(fork.frames.len(), m.frames.len());
        }
        assert_eq!((mem, steps), (1, 7));
        assert_eq!(m.locals().ret, 543_210, "callers resumed innermost first");
    }

    #[test]
    fn state_key_distinguishes_positions() {
        let mut b = ProgramBuilder::<L, u64>::new();
        let main = b.proc("main");
        b.stmt(main, "1", |_, _| Flow::Next);
        b.stmt(main, "2", |_, _| Flow::Return);
        let prog = b.build();
        let mut m = ProgMachine::single_shot(&prog, L::default(), main);
        let key = |m: &ProgMachine<L, u64>| {
            let mut h = StateHasher::new(0);
            m.state_key(&mut h);
            h.finish128()
        };
        let k0 = key(&m);
        let mut mem = 0u64;
        m.step(&mut mem, &mut ctx());
        assert_ne!(k0, key(&m));
    }

    #[test]
    #[should_panic(expected = "label 0 never bound")]
    fn unbound_label_panics_at_build() {
        let mut b = ProgramBuilder::<L, u64>::new();
        let main = b.proc("main");
        let _l = b.label();
        b.stmt(main, "1", |_, _| Flow::Return);
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "uncounted-statement loop")]
    fn uncounted_loop_is_detected() {
        let mut b = ProgramBuilder::<L, u64>::new();
        let main = b.proc("main");
        let top = b.here(main);
        b.free(main, "spin", move |_, _| Flow::Goto(top));
        let prog = b.build();
        let mut m = ProgMachine::single_shot(&prog, L::default(), main);
        let mut mem = 0u64;
        let _ = m.step(&mut mem, &mut ctx());
    }
}

//! The paper's algorithms written **once**, generic over
//! [`wfmem::backend::MemBackend`].
//!
//! Everything else in this crate is a statement-level machine (mostly
//! `ProgMachine` programs): ideal for the simulator's exhaustive explorer and deterministic
//! replay, but unable to run on two hardware threads. This module is the
//! other half of the backend split (see `BACKENDS.md`): direct-style
//! implementations of Fig. 3 consensus, the Fig. 5-interface C&S + Read
//! object, and the Herlihy universal construction, written against the
//! [`MemBackend`] cell vocabulary so the *same function bodies* execute on
//!
//! * [`wfmem::SimBackend`] — sequential, deterministic, step-counted (the
//!   cross-check against the statement-level machines), and
//! * the `native` crate's backends — real `std::sync::atomic` cells on OS
//!   threads, either freely scheduled or under the deterministic lockstep
//!   scheduler that enforces the paper's hybrid axioms.
//!
//! Step accounting is preserved exactly: [`fig3_decide`] performs eight
//! counted statements per invocation — the same
//! [`STATEMENTS_PER_DECIDE`](crate::uni::consensus::STATEMENTS_PER_DECIDE)
//! the Lemma 1 analysis and the `Q ≥ 8` threshold rest on.
//!
//! # What stays simulator-only
//!
//! The O(V) *read/write implementation* of Fig. 5 ([`crate::uni::cas`])
//! depends on the quantum axiom for its helping discipline, so its
//! statement-level program remains the only implementation; the
//! backend-generic [`CasObject`] here provides the same object *interface*
//! (`C&S` + `Read`, Theorem 2's specification) over the backend's C&S
//! cell, which is what a real multiprocessor offers anyway. The honest
//! boundary between "algorithm ported" and "interface re-based" is drawn
//! in `BACKENDS.md` and EXPERIMENTS.md ("Native execution").

use wfmem::backend::{CasCell, ConsCell, MemBackend, RegCell};
use wfmem::Val;

use crate::oracle::{CasRegOp, CasRegisterSpec, QueueOp, SeqSpec};
use crate::universal::CounterSpec;

// ---------------------------------------------------------------------------
// Fig. 3 — consensus from reads and writes
// ---------------------------------------------------------------------------

/// The shared state of one Fig. 3 consensus object: `P[1..3]`, all `⊥`.
pub struct Fig3Cell<B: MemBackend> {
    /// The paper's `P[1..3]`.
    pub p: [B::Reg; 3],
}

impl<B: MemBackend> Fig3Cell<B> {
    /// Allocates the three-slot array on `backend`.
    pub fn new(backend: &B) -> Self {
        Fig3Cell { p: [backend.reg(), backend.reg(), backend.reg()] }
    }
}

/// Fig. 3 `decide(val)`: wait-free consensus from reads and writes.
///
/// The body is the paper's eight atomic statements, with the backend's
/// step hook marking each one: statement 1 (`v := val`, a *counted local*
/// statement, hence the explicit [`step`](MemBackend::step)), then per
/// slot a read (statement 3) and a test-or-write (statements 4–6 — one
/// counted statement whichever branch runs), then the final read
/// (statement 7). On a hybrid-scheduled backend with `Q ≥ 8` each process
/// is preempted at most once per invocation, which is Lemma 1's
/// hypothesis; on a freely-scheduled native backend no such bound exists
/// and agreement **can** fail — that failure is measured, not assumed
/// away (see EXPERIMENTS.md, "Native execution").
pub fn fig3_decide<B: MemBackend>(backend: &B, cell: &Fig3Cell<B>, val: Val) -> Val {
    backend.step(); // 1: v := val (counted local statement)
    let mut v = val;
    for slot in &cell.p {
        let w = slot.read(); // 3: w := P[i]
        match w {
            Some(w) => {
                backend.step(); // 4-5: if w ≠ ⊥ then v := w (counted local)
                v = w;
            }
            None => slot.write(v), // 4,6: else P[i] := v
        }
    }
    // 7: return P[3]
    cell.p[2].read().expect("P[3] is set before any process reaches statement 7")
}

// ---------------------------------------------------------------------------
// Fig. 5 interface — C&S + Read
// ---------------------------------------------------------------------------

/// The Fig. 5 object *interface* — `C&S(old, new)` plus `Read()` — over a
/// backend C&S cell.
///
/// Theorem 2's specification, one counted statement per operation. The
/// O(V) read/write *implementation* of that interface stays
/// statement-level ([`crate::uni::cas`]): its helping discipline is
/// exactly what the quantum axiom buys, and commodity schedulers do not
/// provide it.
pub struct CasObject<B: MemBackend> {
    cell: B::Cas,
}

impl<B: MemBackend> CasObject<B> {
    /// Creates the object holding `init`.
    pub fn new(backend: &B, init: Val) -> Self {
        CasObject { cell: backend.cas(init) }
    }

    /// `C&S(old, new)`: installs `new` and returns `true` iff the value
    /// equals `old`.
    pub fn cas(&self, old: Val, new: Val) -> bool {
        self.cell.cas(old, new)
    }

    /// `Read()`: the current value.
    pub fn read(&self) -> Val {
        self.cell.read()
    }

    /// Applies `op`, returning the result encoded the way
    /// [`CasRegisterSpec`] expects (booleans as 0/1).
    pub fn apply(&self, op: &CasRegOp) -> Val {
        match *op {
            CasRegOp::Cas { old, new } => u64::from(self.cas(old, new)),
            CasRegOp::Read => self.read(),
        }
    }
}

// ---------------------------------------------------------------------------
// Word-packed operation descriptors
// ---------------------------------------------------------------------------

/// Sequential specs whose operations pack into a single shared-memory
/// word, so the universal construction can publish them through backend
/// register cells.
///
/// `decode_op(encode_op(op)) == op` must hold for every op the workload
/// uses; implementations assert their packing bounds.
pub trait WordOp: SeqSpec {
    /// Packs `op` into one word.
    fn encode_op(op: &Self::Op) -> Val;
    /// Unpacks a word produced by [`encode_op`](WordOp::encode_op).
    fn decode_op(w: Val) -> Self::Op;
}

impl WordOp for CounterSpec {
    fn encode_op(op: &Val) -> Val {
        *op
    }

    fn decode_op(w: Val) -> Val {
        w
    }
}

impl WordOp for crate::oracle::QueueSpec {
    fn encode_op(op: &QueueOp) -> Val {
        match *op {
            QueueOp::Deq => 0,
            QueueOp::Enq(v) => {
                assert!(v < 1 << 63, "queue values must fit in 63 bits");
                (v << 1) | 1
            }
        }
    }

    fn decode_op(w: Val) -> QueueOp {
        if w & 1 == 0 {
            QueueOp::Deq
        } else {
            QueueOp::Enq(w >> 1)
        }
    }
}

impl WordOp for CasRegisterSpec {
    // Layout: bit 0 = is-C&S; C&S packs old into bits 2..33 and new into
    // bits 33..64 (31 bits each — ample for the workloads, asserted).
    fn encode_op(op: &CasRegOp) -> Val {
        match *op {
            CasRegOp::Read => 0,
            CasRegOp::Cas { old, new } => {
                assert!(old < 1 << 31 && new < 1 << 31, "C&S operands must fit in 31 bits");
                1 | (old << 2) | (new << 33)
            }
        }
    }

    fn decode_op(w: Val) -> CasRegOp {
        if w & 1 == 0 {
            CasRegOp::Read
        } else {
            CasRegOp::Cas { old: (w >> 2) & ((1 << 31) - 1), new: w >> 33 }
        }
    }
}

// ---------------------------------------------------------------------------
// The universal construction
// ---------------------------------------------------------------------------

/// An operation token: `(pid, seq)` identifies the `seq`-th operation of
/// process `pid`, offset by one so a raw `0` register read is never a
/// valid token.
fn op_token(pid: u32, seq: u32) -> Val {
    ((u64::from(pid) << 32) | u64::from(seq)) + 1
}

fn token_pid(tok: Val) -> u32 {
    ((tok - 1) >> 32) as u32
}

fn token_seq(tok: Val) -> u32 {
    ((tok - 1) & 0xffff_ffff) as u32
}

/// The shared state of a backend-generic Herlihy universal object.
///
/// The same construction as [`crate::universal`], re-based on backend
/// cells so many threads can share it:
///
/// * `announce[p]` — a register holding process `p`'s pending operation
///   *token* (or `⊥`);
/// * `published[p][s]` — a write-once register holding the word-packed
///   descriptor of `p`'s `s`-th operation, written **before** the token is
///   announced, so any process that learns a token can fetch its
///   operation;
/// * `log[k]` — a first-wins consensus cell deciding which token occupies
///   log slot `k`.
///
/// Helping is the classical round-robin discipline: slot `k`'s proposal is
/// preferentially the announced token of process `k mod n`, so every
/// announced operation is decided within `n` slots — wait-freedom does not
/// depend on the scheduler.
pub struct Universal<B: MemBackend, S: WordOp> {
    n: u32,
    announce: Vec<B::Reg>,
    published: Vec<Vec<B::Reg>>,
    log: Vec<B::Cons>,
    spec: S,
}

/// Per-process session state for a [`Universal`] object: the private
/// replica plus the replay cursor (`k`), the per-process duplicate filter
/// (`applied`), and telemetry.
pub struct UniversalSession<S: SeqSpec> {
    me: u32,
    seq: u32,
    k: u32,
    applied: Vec<u32>,
    state: S::State,
    /// Log slots decided to an already-applied token and skipped during
    /// replay (the helping-retry count of the simulator's `AlgCounters`).
    pub duplicate_retries: u64,
    /// Proposals that helped another process's announced operation.
    pub helped_proposals: u64,
}

impl<B: MemBackend, S: WordOp + Clone> Universal<B, S> {
    /// Allocates the shared state on `backend` for `n` processes, at most
    /// `per_process` operations each.
    ///
    /// The log gets `2 * n * per_process + n + 1` slots: every operation
    /// consumes one slot for its first decision, and in the worst case one
    /// more when a helper re-proposes an already-decided token into the
    /// next slot; the `n + 1` covers the final round of helpers probing
    /// past the last operation.
    pub fn new(backend: &B, spec: S, n: u32, per_process: u32) -> Self {
        let slots = 2 * (n as usize) * (per_process as usize) + n as usize + 1;
        Universal {
            n,
            announce: (0..n).map(|_| backend.reg()).collect(),
            published: (0..n)
                .map(|_| (0..per_process).map(|_| backend.reg()).collect())
                .collect(),
            log: (0..slots).map(|_| backend.cons()).collect(),
            spec: spec.clone(),
        }
    }

    /// Starts a session for process `me` (its private replica at `init`).
    pub fn session(&self, me: u32) -> UniversalSession<S> {
        assert!(me < self.n);
        UniversalSession {
            me,
            seq: 0,
            k: 0,
            applied: vec![0; self.n as usize],
            state: self.spec.init(),
            duplicate_retries: 0,
            helped_proposals: 0,
        }
    }

    /// Applies `op` for the session's process, returning its result.
    ///
    /// Publish → announce → propose-and-replay until the own token is
    /// decided → retract the announcement. Wait-free: decided within `n`
    /// log slots of the announcement regardless of scheduling.
    pub fn apply(&self, s: &mut UniversalSession<S>, op: &S::Op) -> Val {
        let me = s.me as usize;
        let my_token = op_token(s.me, s.seq);
        self.published[me][s.seq as usize].write(S::encode_op(op));
        self.announce[me].write(my_token);
        s.seq += 1;
        loop {
            // Helping: prefer the announced pending op of process k mod n.
            let helpee = (s.k % self.n) as usize;
            let proposal = match self.announce[helpee].read() {
                // `⊥` (never announced) and RETRACTED (announcement
                // withdrawn) both mean "nothing to help".
                Some(tok) if tok != RETRACTED => {
                    if tok != my_token {
                        s.helped_proposals += 1;
                    }
                    tok
                }
                _ => my_token,
            };
            let slot = s.k as usize;
            assert!(slot < self.log.len(), "universal log capacity exceeded");
            let decided = self.log[slot].decide(proposal);
            s.k += 1;
            let (winner, wseq) = (token_pid(decided), token_seq(decided));
            if wseq != s.applied[winner as usize] {
                // Duplicate slot (a helper re-proposed an applied token):
                // skip it in the replay.
                debug_assert!(wseq < s.applied[winner as usize]);
                s.duplicate_retries += 1;
                continue;
            }
            // First occurrence: replay on the private replica.
            let word = self.published[winner as usize][wseq as usize]
                .read()
                .expect("operations are published before their token is proposed");
            let op = S::decode_op(word);
            let (next, result) = self.spec.apply(&s.state, &op);
            s.state = next;
            s.applied[winner as usize] += 1;
            if decided == my_token {
                // Retract the announcement. RegCell has no `⊥` write, so
                // retraction writes RETRACTED (never a valid token; see
                // `op_token`), which helpers treat exactly like `⊥`.
                self.announce[me].write(RETRACTED);
                return result;
            }
        }
    }

    /// The decided log prefix as operation tokens (oracle use; uncounted).
    pub fn decided_prefix(&self) -> Vec<Val> {
        self.log.iter().map_while(|c| c.read()).collect()
    }
}

/// The announce-slot value meaning "no pending operation" after a retract
/// (never a valid token: tokens encode `((pid << 32) | seq) + 1`, so they
/// start at 1).
pub const RETRACTED: Val = 0;

impl<S: SeqSpec> UniversalSession<S> {
    /// The session's private replica state (for final-state oracles).
    pub fn state(&self) -> &S::State {
        &self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{QueueSpec, EMPTY};
    use crate::uni::consensus::STATEMENTS_PER_DECIDE;
    use wfmem::SimBackend;

    #[test]
    fn fig3_sequential_first_process_wins() {
        let b = SimBackend::new();
        let cell = Fig3Cell::new(&b);
        assert_eq!(fig3_decide(&b, &cell, 10), 10);
        assert_eq!(fig3_decide(&b, &cell, 20), 10);
        assert_eq!(fig3_decide(&b, &cell, 30), 10);
    }

    #[test]
    fn fig3_counts_exactly_eight_statements_per_decide() {
        let b = SimBackend::new();
        let cell = Fig3Cell::new(&b);
        fig3_decide(&b, &cell, 5);
        assert_eq!(b.steps(), u64::from(STATEMENTS_PER_DECIDE));
        fig3_decide(&b, &cell, 6);
        assert_eq!(b.steps(), 2 * u64::from(STATEMENTS_PER_DECIDE));
    }

    #[test]
    fn cas_object_interface() {
        let b = SimBackend::new();
        let o = CasObject::new(&b, 3);
        assert_eq!(o.read(), 3);
        assert!(!o.cas(0, 9));
        assert!(o.cas(3, 9));
        assert_eq!(o.apply(&CasRegOp::Read), 9);
        assert_eq!(o.apply(&CasRegOp::Cas { old: 9, new: 1 }), 1);
    }

    #[test]
    fn word_ops_roundtrip() {
        for op in [QueueOp::Deq, QueueOp::Enq(0), QueueOp::Enq(12345)] {
            assert_eq!(QueueSpec::decode_op(QueueSpec::encode_op(&op)), op);
        }
        for op in [
            CasRegOp::Read,
            CasRegOp::Cas { old: 0, new: 0 },
            CasRegOp::Cas { old: 77, new: (1 << 31) - 1 },
        ] {
            assert_eq!(CasRegisterSpec::decode_op(CasRegisterSpec::encode_op(&op)), op);
        }
        assert_eq!(CounterSpec::decode_op(CounterSpec::encode_op(&41)), 41);
    }

    #[test]
    fn universal_counter_sequential() {
        let b = SimBackend::new();
        let u: Universal<SimBackend, CounterSpec> = Universal::new(&b, CounterSpec, 2, 3);
        let mut s0 = u.session(0);
        let mut s1 = u.session(1);
        // Fetch-and-add: result is the value before the add.
        assert_eq!(u.apply(&mut s0, &5), 0);
        assert_eq!(u.apply(&mut s1, &7), 5);
        assert_eq!(u.apply(&mut s0, &1), 12);
        assert_eq!(*s0.state(), 13);
        // s1's replica lags until its next operation replays the log.
        assert_eq!(u.apply(&mut s1, &0), 13);
    }

    #[test]
    fn universal_queue_sequential_fifo() {
        let b = SimBackend::new();
        let u: Universal<SimBackend, QueueSpec> = Universal::new(&b, QueueSpec, 2, 4);
        let mut p = u.session(0);
        let mut c = u.session(1);
        for v in [10, 20, 30] {
            u.apply(&mut p, &QueueOp::Enq(v));
        }
        assert_eq!(u.apply(&mut c, &QueueOp::Deq), 10);
        assert_eq!(u.apply(&mut c, &QueueOp::Deq), 20);
        assert_eq!(u.apply(&mut c, &QueueOp::Deq), 30);
        assert_eq!(u.apply(&mut c, &QueueOp::Deq), EMPTY);
    }

    #[test]
    fn universal_log_tokens_are_unique_first_appearances() {
        let b = SimBackend::new();
        let u: Universal<SimBackend, CounterSpec> = Universal::new(&b, CounterSpec, 3, 2);
        let mut sessions: Vec<_> = (0..3).map(|p| u.session(p)).collect();
        for round in 0..2 {
            for s in sessions.iter_mut() {
                u.apply(s, &(round + 1));
            }
        }
        let log = u.decided_prefix();
        assert_eq!(log.len(), 6, "six ops, sequential run admits no duplicates");
        let mut seen = std::collections::HashSet::new();
        for tok in log {
            assert_ne!(tok, RETRACTED);
            assert!(seen.insert(tok), "token decided into two slots");
        }
    }
}

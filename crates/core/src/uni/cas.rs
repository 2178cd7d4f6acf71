//! Fig. 5: compare-and-swap (and read) from reads and writes on a
//! hybrid-scheduled uniprocessor, in `O(V)` time (Theorem 2).
//!
//! The implementation follows Herlihy's "append-to-a-list" universal
//! algorithm, heavily simplified for C&S:
//!
//! * The object is a linked list of cells, one per *successful, nontrivial*
//!   `C&S` applied. The `nxt` pointers linking the cells are **consensus
//!   objects** (the Fig. 3 three-slot algorithm), decided by appenders.
//!   The cell whose `nxt` is still `⊥` is the head — the list, not the
//!   head hints, is the object's ground truth.
//! * One head variable `Hd[i]` per priority level `i ∈ 1..=V` replaces
//!   Herlihy's per-process head pointers; scanning them takes the `O(V)`
//!   that dominates the running time. Head variables are *hints*: they may
//!   lag one cell behind the head, in which case the head is a cell of
//!   that level and is found by chasing one `nxt` pointer (lines 19–24,
//!   53–58).
//! * `Hd[i]` is written only by priority-`i` processes — quantum-scheduled
//!   with respect to one another — using the `Q-C&S` of
//!   [`crate::uni::quantum`], wrapped in the nested `repeat/until` loops
//!   and `last`-field interference detection of lines 30–43.
//! * Memory management uses the constant-time tag selection of Anderson &
//!   Moir (PODC 1995): each process owns `4N + 2` tagged cells, reads one
//!   feedback slot `A[j, pri]` per operation (round-robin over `j`), and
//!   picks a tag outside {last `2N` tags read} ∪ {last `2N` tags selected}
//!   ∪ {tag of its last appended cell}. [`Feedback`](self) writes tag
//!   feedback while scanning so a cell observed as head is not prematurely
//!   reused.
//! * A process that is preempted by equal- or higher-priority processes
//!   during its scan may fail to find the head; it then returns `false`,
//!   which is linearizable because some other `C&S` must have been applied
//!   during its operation (the object's value changed). Preempted readers
//!   return `Seen[pri]`, a value recorded for them by the preemptor
//!   (lines 28–29).
//!
//! ## Transcription notes
//!
//! Two spots of the published listing are ambiguous in the available text
//! (a lost comparison operator and a return value); both are resolved here
//! by the correctness argument and validated by exhaustive linearizability
//! checking against a sequential CAS-register specification:
//!
//! * **line 30** — the pre-append update of `Hd[pri]` runs when
//!   `priority(hd.id) ≥ pri`; combined with the unconditional post-append
//!   update (lines 38–43) this maintains the scan invariant that some
//!   `Hd[i]` is at most one behind the head, with the one-behind case
//!   owned by level `i`.
//! * **line 42** — inside the *post-append* update loop, discovering
//!   `nxt ≠ ⊥` on one's **own appended cell** means a later operation
//!   already appended behind it; the operation has irrevocably succeeded,
//!   so this implementation returns `true` (the pre-append analogue at
//!   line 35 correctly returns `false`, since there the moved head shows a
//!   *different* operation succeeded).
//!
//! Theorem 2: *in a hybrid-scheduled uniprocessor system with `Q ≥ c`,
//! `C&S` and `Read` can be implemented in `O(V)` time using only reads and
//! writes*, where `c` is the longest code sequence required to suffer at
//! most one quantum preemption.

use std::sync::{Arc, OnceLock};

use sched_sim::program::{Flow, InvocationPlan, ProcRef, ProgMachine, Program, ProgramBuilder};
use wfmem::Val;

use crate::counters::AlgCounters;
use crate::uni::consensus::{append_decide, append_read, ConsensusCell, DecideScratch};
use crate::uni::quantum::{append_qcs, QcsScratch};

/// A head descriptor (`hdtype`): identifies a list cell plus the last
/// process to update the head variable it was read from. Packed into one
/// `Val` word for the `Q-C&S` operations.
#[derive(Clone, Copy, Debug, Default, Hash, PartialEq, Eq)]
pub struct HdWord {
    /// Owning process id of the cell (`N` = the virtual initial owner).
    pub id: u32,
    /// The cell's tag.
    pub tag: u32,
    /// Id of the last process to update the head variable.
    pub last: u32,
}

impl HdWord {
    /// Packs into a single word.
    pub fn pack(self) -> Val {
        (u64::from(self.id) << 32) | (u64::from(self.tag) << 16) | u64::from(self.last)
    }

    /// Unpacks from a single word.
    pub fn unpack(w: Val) -> Self {
        HdWord {
            id: (w >> 32) as u32,
            tag: ((w >> 16) & 0xffff) as u32,
            last: (w & 0xffff) as u32,
        }
    }
}

/// Packs a cell pointer (`ptrtype`) into one word. Pointers live in the
/// `nxt` consensus objects.
pub fn pack_ptr(id: u32, tag: u32) -> Val {
    (u64::from(id) << 16) | u64::from(tag)
}

/// Unpacks a cell pointer.
pub fn unpack_ptr(w: Val) -> (u32, u32) {
    ((w >> 16) as u32, (w & 0xffff) as u32)
}

/// Shared memory of one Fig. 5 C&S object for `N` processes and `V`
/// priority levels.
///
/// The list is initialized "as if some process had previously performed a
/// successful C&S in isolation": a virtual process with id `N` (and
/// priority 0, below every real level) owns the initial cell `(N, 0)`
/// holding the object's initial value, and every `Hd[i]` points at it.
#[derive(Clone, Debug, Hash, PartialEq, Eq)]
pub struct CasMem {
    /// Number of real processes `N`.
    pub n: u32,
    /// Number of priority levels `V` (levels are `1..=V`).
    pub v: u32,
    /// Tags per process (`4N + 2`).
    pub tags: u32,
    /// `Cell[id][tag].val` for `id ∈ 0..=N` (id `N` is the virtual owner).
    pub cell_val: Vec<Vec<Val>>,
    /// `Cell[id][tag].nxt`: a Fig. 3 consensus object per cell.
    pub cell_nxt: Vec<Vec<ConsensusCell>>,
    /// `Hd[1..=V]`, packed [`HdWord`]s (index 0 unused).
    pub hd: Vec<Val>,
    /// Announce words for the `Q-C&S` on each `Hd[i]` (index 0 unused).
    pub hd_x: Vec<Val>,
    /// Tag feedback `A[q][i]` for `q ∈ 0..2N`, `i ∈ 1..=V`.
    pub a: Vec<Vec<Val>>,
    /// `Seen[1..=V]`: helping values for preempted readers.
    pub seen: Vec<Val>,
    /// Static priority map `pid → level` (`prio[N] = 0` for the virtual
    /// owner). Read-only, so consulting it is not a shared access.
    pub prio: Vec<u32>,
    /// Helping/retry telemetry (ignored by `==` and hashing; see
    /// [`crate::counters`]).
    pub counters: AlgCounters,
}

/// Announce-word initial value (no process token equals it).
const X_INIT: Val = u64::MAX;

impl CasMem {
    /// Creates the object for processes of priorities `prio_of[pid]`
    /// (levels `1..=v`), with initial value `init`.
    ///
    /// # Panics
    ///
    /// Panics if any priority is 0 or exceeds `v`.
    pub fn new(v: u32, prio_of: &[u32], init: Val) -> Self {
        let n = prio_of.len() as u32;
        assert!(prio_of.iter().all(|&p| p >= 1 && p <= v), "priorities must be in 1..=v");
        let tags = 4 * n + 2;
        let mut cell_val = vec![vec![0; tags as usize]; n as usize + 1];
        let cell_nxt = vec![vec![[None; 3]; tags as usize]; n as usize + 1];
        // The initial cell (N, 0) holds the initial value.
        cell_val[n as usize][0] = init;
        let init_hd = HdWord { id: n, tag: 0, last: n }.pack();
        let mut prio = prio_of.to_vec();
        prio.push(0); // virtual owner: below every level
        CasMem {
            n,
            v,
            tags,
            cell_val,
            cell_nxt,
            hd: vec![init_hd; v as usize + 1],
            hd_x: vec![X_INIT; v as usize + 1],
            a: vec![vec![0; v as usize + 1]; 2 * n as usize],
            seen: vec![init; v as usize + 1],
            prio,
            counters: AlgCounters::default(),
        }
    }

    /// The current head cell's value (oracle use only; follows the list
    /// from the initial cell along fully decided `nxt` pointers — `P[3]`
    /// set — to the last appended cell).
    pub fn current_value(&self) -> Val {
        let (mut id, mut tag) = (self.n, 0u32);
        loop {
            match self.cell_nxt[id as usize][tag as usize][2] {
                None => return self.cell_val[id as usize][tag as usize],
                Some(p) => {
                    let (i2, t2) = unpack_ptr(p);
                    id = i2;
                    tag = t2;
                }
            }
        }
    }
}

/// Which local variable a [`Feedback`](self) invocation targets (the
/// paper's `var hd` parameter).
#[derive(Clone, Copy, Debug, Default, Hash, PartialEq, Eq)]
enum FbTarget {
    #[default]
    Hd,
    Next,
    Rhd,
}

/// The operation a process performs against the object.
#[derive(Clone, Copy, Debug, Hash, PartialEq, Eq)]
pub enum CasOp {
    /// `C&S(old, new)`.
    Cas {
        /// Expected value.
        old: Val,
        /// Replacement value.
        new: Val,
    },
    /// `Read()`.
    Read,
}

/// Process-local state for the Fig. 5 algorithm. Private variables are
/// retained across invocations, per the paper.
#[derive(Clone, Debug, Hash, PartialEq, Eq)]
pub struct CasLocals {
    /// This process's id (`p`).
    pub me: u32,
    /// Its priority level (`pri`).
    pub pri: u32,
    /// `N` and `V`, cached.
    pub n: u32,
    /// Number of priority levels.
    pub v: u32,
    // --- current operation ---
    /// Operands of the current `C&S`.
    pub op_old: Val,
    /// Replacement value of the current `C&S`.
    pub op_new: Val,
    /// Result of the current `C&S` (`None` while running).
    pub ret_cas: Option<bool>,
    /// Result of the current `Read`.
    pub ret_val: Option<Val>,
    // --- tag management (persistent) ---
    /// Feedback row cursor `j ∈ 0..2N`.
    pub j: u32,
    /// Tag of the last cell appended (`lasttag`).
    pub lasttag: Val,
    /// Ring of the last `2N` tags read from `A`.
    pub tags_read: Vec<Val>,
    /// Ring of the last `2N` tags selected.
    pub tags_selected: Vec<Val>,
    /// The tag selected for this operation.
    pub tag: u32,
    // --- scan state ---
    /// Level loop index `i`.
    pub i: u32,
    /// Secondary index for the `Seen` loop and Read order.
    pub k: u32,
    /// The head candidate (`hd`).
    pub hd: HdWord,
    /// `tmp` of the Q-C&S loops.
    pub tmp: HdWord,
    /// `next`: the successor pointer chased from a lagging head.
    pub next: HdWord,
    /// `rhd[1..=V]`, packed (Read's snapshot of every level's head).
    pub rhd: Vec<Val>,
    /// Apply's `hd` parameter.
    pub apply_hd: HdWord,
    /// Head-word snapshot for line 60's comparison.
    pub hd_snap: Val,
    // --- Feedback parameters ---
    fb_row: u32,
    fb_i: u32,
    fb_cmp_id: u32,
    fb_cmp_tag: u32,
    fb_target: FbTarget,
    fb_ret: bool,
    // --- sub-operation scratch ---
    /// Target cell of the pending `nxt` consensus decide/read.
    pub nxt_id: u32,
    /// Target tag of the pending `nxt` consensus decide/read.
    pub nxt_tag: u32,
    /// Scratch for consensus on `nxt` pointers.
    pub dec: DecideScratch,
    /// Scratch for `Q-C&S` on `Hd[pri]`.
    pub qcs: QcsScratch,
}

impl CasLocals {
    /// Fresh locals for process `me` at priority `pri` in an `(n, v)`
    /// system.
    pub fn new(me: u32, pri: u32, n: u32, v: u32) -> Self {
        CasLocals {
            me,
            pri,
            n,
            v,
            op_old: 0,
            op_new: 0,
            ret_cas: None,
            ret_val: None,
            j: 0,
            lasttag: Val::MAX,
            tags_read: Vec::new(),
            tags_selected: Vec::new(),
            tag: 0,
            i: 0,
            k: 0,
            hd: HdWord::default(),
            tmp: HdWord::default(),
            next: HdWord::default(),
            rhd: vec![0; v as usize + 1],
            apply_hd: HdWord::default(),
            hd_snap: 0,
            fb_row: 0,
            fb_i: 0,
            fb_cmp_id: 0,
            fb_cmp_tag: 0,
            fb_target: FbTarget::Hd,
            fb_ret: false,
            nxt_id: 0,
            nxt_tag: 0,
            dec: DecideScratch::default(),
            qcs: QcsScratch::default(),
        }
    }

    fn push_ring(ring: &mut Vec<Val>, v: Val, cap: usize) {
        ring.push(v);
        if ring.len() > cap {
            ring.remove(0);
        }
    }
}

/// The Read scan order: all levels `1..=V` with `pri` visited last
/// (the paper's `for i := 1 to V with i = pri last`).
fn read_order(k: u32, v: u32, pri: u32) -> u32 {
    debug_assert!(k < v);
    if k == v - 1 {
        pri
    } else {
        let lvl = k + 1;
        if lvl >= pri {
            lvl + 1
        } else {
            lvl
        }
    }
}

/// The program entry points for the Fig. 5 object.
#[derive(Clone, Copy, Debug)]
pub struct CasEntries {
    /// The `C&S(old, new)` procedure (stage `op_old` / `op_new` first).
    pub cas: ProcRef,
    /// The `Read()` procedure.
    pub read: ProcRef,
}

/// Builds the complete Fig. 5 program (C&S, Read, Feedback, Apply, and the
/// embedded Fig. 3 / Q-C&S subroutines).
#[allow(clippy::too_many_lines)]
pub fn build_program() -> (Arc<Program<CasLocals, CasMem>>, CasEntries) {
    let mut b = ProgramBuilder::<CasLocals, CasMem>::new();

    // ---- subroutines ----------------------------------------------------
    // Consensus decide on a cell's nxt pointer (line 37): proposes (p, tag).
    let decide_nxt = append_decide(
        &mut b,
        "decide-nxt",
        u64::MAX, // cell chosen at run time: whole-memory over-approximation
        |m, l| &mut m.cell_nxt[l.nxt_id as usize][l.nxt_tag as usize],
        |l| pack_ptr(l.me, l.tag),
        |l| &mut l.dec,
    );
    // Consensus read of a cell's nxt pointer (lines 20, 54).
    let read_nxt = append_read(
        &mut b,
        "read-nxt",
        u64::MAX, // cell chosen at run time: whole-memory over-approximation
        |m: &mut CasMem, l: &CasLocals| &mut m.cell_nxt[l.nxt_id as usize][l.nxt_tag as usize],
        |l| &mut l.dec,
        |l| &l.dec,
    );
    // Q-C&S on Hd[pri] (lines 34, 36, 41, 43).
    let qcs = append_qcs(
        &mut b,
        "q-cas-hd",
        |m, l| &mut m.hd[l.pri as usize],
        |m, l| &mut m.hd_x[l.pri as usize],
        |l| u64::from(l.me),
        |l| &mut l.qcs,
    );

    // ---- Feedback (lines 1–7) -------------------------------------------
    let feedback = b.proc("Feedback");
    b.free(feedback, "1: if i < pri then return true", |l, _m| {
        if l.fb_i < l.pri {
            l.fb_ret = true;
            Flow::Return
        } else {
            Flow::Next
        }
    });
    b.stmt(feedback, "2: A[q,i] := hd.tag", |l, m| {
        let tag = match l.fb_target {
            FbTarget::Hd => l.hd.tag,
            FbTarget::Next => l.next.tag,
            FbTarget::Rhd => HdWord::unpack(l.rhd[l.fb_i as usize]).tag,
        };
        m.a[l.fb_row as usize][l.fb_i as usize] = u64::from(tag);
        Flow::Next
    });
    b.stmt(feedback, "3: tmp := Hd[i]", |l, m| {
        l.tmp = HdWord::unpack(m.hd[l.fb_i as usize]);
        Flow::Next
    });
    b.free(feedback, "4: if (cmp.id, cmp.tag) = (tmp.id, tmp.tag) then return true", |l, _m| {
        if (l.fb_cmp_id, l.fb_cmp_tag) == (l.tmp.id, l.tmp.tag) {
            l.fb_ret = true;
            Flow::Return
        } else {
            Flow::Next
        }
    });
    b.free(feedback, "5: if i > pri then return false", |l, _m| {
        if l.fb_i > l.pri {
            l.fb_ret = false;
            Flow::Return
        } else {
            Flow::Next
        }
    });
    b.stmt(feedback, "6: A[q,i] := tmp.tag", |l, m| {
        m.a[l.fb_row as usize][l.fb_i as usize] = u64::from(l.tmp.tag);
        Flow::Next
    });
    b.stmt(feedback, "7: hd := tmp; return true", |l, _m| {
        match l.fb_target {
            FbTarget::Hd => l.hd = l.tmp,
            FbTarget::Next => l.next = l.tmp,
            FbTarget::Rhd => l.rhd[l.fb_i as usize] = l.tmp.pack(),
        }
        l.fb_ret = true;
        Flow::Return
    });

    // ---- Apply (lines 26–45) --------------------------------------------
    let apply = b.proc("Apply");
    let a_line30 = b.label();
    let a_rep32 = b.label();
    let a_line37 = b.label();
    let a_rep39 = b.label();
    let a_line45 = b.label();
    let a_seen_top = b.label();

    b.stmt(apply, "26: if Cell[hd].val ≠ old then return false", |l, m| {
        let v = m.cell_val[l.apply_hd.id as usize][l.apply_hd.tag as usize];
        if v != l.op_old {
            l.ret_cas = Some(false);
            Flow::Return
        } else {
            Flow::Next
        }
    });
    b.stmt(apply, "27: if old = new then return true", |l, _m| {
        if l.op_old == l.op_new {
            l.ret_cas = Some(true);
            Flow::Return
        } else {
            Flow::Next
        }
    });
    {
        let a_line30c = a_line30;
        b.free(apply, "28: for i := 1 to pri−1", move |l, _m| {
            l.k = 1;
            if l.k < l.pri {
                Flow::Next
            } else {
                Flow::Goto(a_line30c)
            }
        });
    }
    b.bind(apply, a_seen_top);
    {
        let a_line30c = a_line30;
        let a_seen_topc = a_seen_top;
        b.stmt(apply, "29: Seen[i] := old", move |l, m| {
            m.seen[l.k as usize] = l.op_old;
            m.counters.seen_helps += 1;
            l.k += 1;
            if l.k < l.pri {
                Flow::Goto(a_seen_topc)
            } else {
                Flow::Goto(a_line30c)
            }
        });
    }
    b.bind(apply, a_line30);
    {
        let a_line37c = a_line37;
        b.free(apply, "30: if priority(hd.id) ≥ pri then (update Hd[pri] first)", move |l, m| {
            if m.prio[l.apply_hd.id as usize] >= l.pri {
                Flow::Next
            } else {
                Flow::Goto(a_line37c)
            }
        });
    }
    b.free(apply, "31: hd.last := p", |l, _m| {
        l.apply_hd.last = l.me;
        Flow::Next
    });
    b.bind(apply, a_rep32);
    b.stmt(apply, "33: tmp := Hd[pri]", |l, m| {
        l.tmp = HdWord::unpack(m.hd[l.pri as usize]);
        Flow::Next
    });
    b.free(apply, "34: Q-C&S(&Hd[pri], tmp, (tmp.id, tmp.tag, p))", move |l, _m| {
        l.qcs.old = l.tmp.pack();
        l.qcs.new = HdWord { id: l.tmp.id, tag: l.tmp.tag, last: l.me }.pack();
        Flow::Call(qcs)
    });
    {
        let a_rep32c = a_rep32;
        b.free(apply, "34b: until (repeats at most once)", move |l, m| {
            if l.qcs.ret {
                Flow::Next
            } else {
                m.counters.qcs_retries += 1;
                Flow::Goto(a_rep32c)
            }
        });
    }
    b.stmt(apply, "35: if Cell[hd].nxt ≠ ⊥ then return false", |l, m| {
        let bot = m.cell_nxt[l.apply_hd.id as usize][l.apply_hd.tag as usize][0].is_none();
        if bot {
            Flow::Next
        } else {
            l.ret_cas = Some(false);
            Flow::Return
        }
    });
    b.free(apply, "36: Q-C&S(&Hd[pri], (tmp.id, tmp.tag, p), hd)", move |l, _m| {
        l.qcs.old = HdWord { id: l.tmp.id, tag: l.tmp.tag, last: l.me }.pack();
        l.qcs.new = l.apply_hd.pack();
        Flow::Call(qcs)
    });
    {
        let a_rep32c = a_rep32;
        b.free(apply, "36b: until (repeats at most once)", move |l, m| {
            if l.qcs.ret {
                Flow::Next
            } else {
                m.counters.qcs_retries += 1;
                Flow::Goto(a_rep32c)
            }
        });
    }
    b.bind(apply, a_line37);
    b.free(apply, "37: decide(&Cell[hd].nxt, (p, tag))", move |l, _m| {
        l.nxt_id = l.apply_hd.id;
        l.nxt_tag = l.apply_hd.tag;
        Flow::Call(decide_nxt)
    });
    {
        let a_line45c = a_line45;
        b.free(apply, "37b: … = (p, tag)?", move |l, _m| {
            if l.dec.ret == Some(pack_ptr(l.me, l.tag)) {
                Flow::Next
            } else {
                Flow::Goto(a_line45c)
            }
        });
    }
    b.free(apply, "38: hd, lasttag := (p, tag, p), tag", |l, _m| {
        l.apply_hd = HdWord { id: l.me, tag: l.tag, last: l.me };
        l.lasttag = u64::from(l.tag);
        Flow::Next
    });
    b.bind(apply, a_rep39);
    b.stmt(apply, "40: tmp := Hd[pri]", |l, m| {
        l.tmp = HdWord::unpack(m.hd[l.pri as usize]);
        Flow::Next
    });
    b.free(apply, "41: Q-C&S(&Hd[pri], tmp, (tmp.id, tmp.tag, p))", move |l, _m| {
        l.qcs.old = l.tmp.pack();
        l.qcs.new = HdWord { id: l.tmp.id, tag: l.tmp.tag, last: l.me }.pack();
        Flow::Call(qcs)
    });
    {
        let a_rep39c = a_rep39;
        b.free(apply, "41b: until (repeats at most once)", move |l, m| {
            if l.qcs.ret {
                Flow::Next
            } else {
                m.counters.qcs_retries += 1;
                Flow::Goto(a_rep39c)
            }
        });
    }
    b.stmt(apply, "42: if Cell[hd].nxt ≠ ⊥ then return true (op already applied)", |l, m| {
        let bot = m.cell_nxt[l.apply_hd.id as usize][l.apply_hd.tag as usize][0].is_none();
        if bot {
            Flow::Next
        } else {
            // Our cell is appended and already has a successor: the C&S
            // succeeded; updating Hd[pri] further is pointless.
            l.ret_cas = Some(true);
            Flow::Return
        }
    });
    b.free(apply, "43: Q-C&S(&Hd[pri], (tmp.id, tmp.tag, p), hd)", move |l, _m| {
        l.qcs.old = HdWord { id: l.tmp.id, tag: l.tmp.tag, last: l.me }.pack();
        l.qcs.new = l.apply_hd.pack();
        Flow::Call(qcs)
    });
    {
        let a_rep39c = a_rep39;
        b.free(apply, "43b: until (repeats at most once)", move |l, m| {
            if l.qcs.ret {
                Flow::Next
            } else {
                m.counters.qcs_retries += 1;
                Flow::Goto(a_rep39c)
            }
        });
    }
    b.stmt(apply, "44: return true", |l, _m| {
        l.ret_cas = Some(true);
        Flow::Return
    });
    b.bind(apply, a_line45);
    b.stmt(apply, "45: return false", |l, _m| {
        l.ret_cas = Some(false);
        Flow::Return
    });

    // ---- C&S (lines 8–25) -----------------------------------------------
    let cas = b.proc("C&S");
    let c_scan_top = b.label();
    let c_scan_inc = b.label();
    let c_after_apply = b.label();
    let c_l19 = b.label();

    b.stmt(cas, "8: read A[j, pri]", |l, m| {
        let t = m.a[l.j as usize][l.pri as usize];
        let cap = 2 * l.n as usize;
        CasLocals::push_ring(&mut l.tags_read, t, cap);
        Flow::Next
    });
    b.stmt(cas, "9: j := j + 1 (mod 2N)", |l, _m| {
        l.j = (l.j + 1) % (2 * l.n);
        Flow::Next
    });
    b.stmt(cas, "10: select tag ∉ read ∪ selected ∪ {lasttag}", |l, _m| {
        let tags = 4 * l.n + 2;
        let tag = (0..tags)
            .map(u64::from)
            .find(|t| {
                !l.tags_read.contains(t)
                    && !l.tags_selected.contains(t)
                    && *t != l.lasttag
            })
            .expect("4N+2 tags always contain a free one");
        let cap = 2 * l.n as usize;
        CasLocals::push_ring(&mut l.tags_selected, tag, cap);
        l.tag = tag as u32;
        Flow::Next
    });
    b.stmt(cas, "11: Cell[p, tag].val := new", |l, m| {
        m.cell_val[l.me as usize][l.tag as usize] = l.op_new;
        Flow::Next
    });
    b.stmt(cas, "12: Cell[p, tag].nxt := ⊥", |l, m| {
        m.cell_nxt[l.me as usize][l.tag as usize] = [None; 3];
        Flow::Next
    });
    b.free(cas, "13: for i := 1 to V", |l, _m| {
        l.i = 1;
        Flow::Next
    });
    b.bind(cas, c_scan_top);
    b.stmt(cas, "14: hd := Hd[i]", |l, m| {
        l.hd = HdWord::unpack(m.hd[l.i as usize]);
        Flow::Next
    });
    {
        let c_scan_incc = c_scan_inc;
        b.free(cas, "15: if i ≤ pri ∨ (i > pri ∧ priority(hd.id) = i)", move |l, m| {
            if l.i <= l.pri || m.prio[l.hd.id as usize] == l.i {
                Flow::Next
            } else {
                Flow::Goto(c_scan_incc)
            }
        });
    }
    b.free(cas, "16: Feedback(p, i, hd, hd)", move |l, _m| {
        l.fb_row = l.me;
        l.fb_i = l.i;
        l.fb_cmp_id = l.hd.id;
        l.fb_cmp_tag = l.hd.tag;
        l.fb_target = FbTarget::Hd;
        Flow::Call(feedback)
    });
    b.stmt(cas, "16b: … = false ⇒ return false", |l, _m| {
        if l.fb_ret {
            Flow::Next
        } else {
            l.ret_cas = Some(false);
            Flow::Return
        }
    });
    {
        let c_after_applyc = c_after_apply;
        let c_l19c = c_l19;
        b.stmt(cas, "17: if Cell[hd].nxt = ⊥ then 18: return Apply(old, new, hd)", move |l, m| {
            let bot = m.cell_nxt[l.hd.id as usize][l.hd.tag as usize][0].is_none();
            if bot {
                l.apply_hd = l.hd;
                Flow::CallThen { proc: apply, resume: c_after_applyc }
            } else {
                Flow::Goto(c_l19c)
            }
        });
    }
    b.bind(cas, c_l19);
    {
        let c_scan_incc = c_scan_inc;
        b.free(cas, "19: if i ≤ pri (these Hd's can be off by one)", move |l, _m| {
            if l.i <= l.pri {
                Flow::Next
            } else {
                Flow::Goto(c_scan_incc)
            }
        });
    }
    b.free(cas, "20: next := Cell[hd].nxt (consensus read)", move |l, _m| {
        l.nxt_id = l.hd.id;
        l.nxt_tag = l.hd.tag;
        Flow::Call(read_nxt)
    });
    b.free(cas, "20b: unpack next", |l, _m| {
        let (id, tag) = unpack_ptr(l.dec.ret.expect("nxt ≠ ⊥ is stable"));
        l.next = HdWord { id, tag, last: 0 };
        Flow::Next
    });
    {
        let c_scan_incc = c_scan_inc;
        b.free(cas, "21: if priority(next.id) = i", move |l, m| {
            if m.prio[l.next.id as usize] == l.i {
                Flow::Next
            } else {
                Flow::Goto(c_scan_incc)
            }
        });
    }
    b.free(cas, "22: Feedback(p+N, i, hd, next)", move |l, _m| {
        l.fb_row = l.me + l.n;
        l.fb_i = l.i;
        l.fb_cmp_id = l.hd.id;
        l.fb_cmp_tag = l.hd.tag;
        l.fb_target = FbTarget::Next;
        Flow::Call(feedback)
    });
    {
        let c_after_applyc = c_after_apply;
        let c_scan_incc = c_scan_inc;
        b.stmt(cas, "23: if Cell[next].nxt = ⊥ then 24: return Apply(old, new, next)", move |l, m| {
            let bot = m.cell_nxt[l.next.id as usize][l.next.tag as usize][0].is_none();
            if bot {
                l.apply_hd = l.next;
                Flow::CallThen { proc: apply, resume: c_after_applyc }
            } else {
                Flow::Goto(c_scan_incc)
            }
        });
    }
    b.bind(cas, c_scan_inc);
    {
        let c_scan_topc = c_scan_top;
        b.free(cas, "13b: i := i + 1", move |l, _m| {
            l.i += 1;
            if l.i <= l.v {
                Flow::Goto(c_scan_topc)
            } else {
                Flow::Next
            }
        });
    }
    b.stmt(cas, "25: return false", |l, _m| {
        l.ret_cas = Some(false);
        Flow::Return
    });
    b.bind(cas, c_after_apply);
    b.stmt(cas, "18/24: return Apply's result", |_l, _m| Flow::Return);

    // ---- Read (lines 46–62) ----------------------------------------------
    let read = b.proc("Read");
    let r_top = b.label();
    let r_inc = b.label();
    let r_l53 = b.label();
    let r_l59 = b.label();
    let r2_top = b.label();
    let r2_inc = b.label();
    let r_l62 = b.label();

    b.free(read, "46: for i := 1 to V with i = pri last", |l, _m| {
        l.k = 0;
        l.i = read_order(0, l.v, l.pri);
        Flow::Next
    });
    b.bind(read, r_top);
    b.stmt(read, "47: rhd[i] := Hd[i]", |l, m| {
        l.rhd[l.i as usize] = m.hd[l.i as usize];
        Flow::Next
    });
    {
        let r_incc = r_inc;
        b.free(read, "48: if i ≤ pri ∨ (i > pri ∧ priority(rhd[i].id) = i)", move |l, m| {
            let h = HdWord::unpack(l.rhd[l.i as usize]);
            if l.i <= l.pri || m.prio[h.id as usize] == l.i {
                Flow::Next
            } else {
                Flow::Goto(r_incc)
            }
        });
    }
    b.free(read, "49: Feedback(p, i, rhd[i], rhd[i])", move |l, _m| {
        let h = HdWord::unpack(l.rhd[l.i as usize]);
        l.fb_row = l.me;
        l.fb_i = l.i;
        l.fb_cmp_id = h.id;
        l.fb_cmp_tag = h.tag;
        l.fb_target = FbTarget::Rhd;
        Flow::Call(feedback)
    });
    b.stmt(read, "50: … = false ⇒ return Seen[pri]", |l, m| {
        if l.fb_ret {
            Flow::Next
        } else {
            l.ret_val = Some(m.seen[l.pri as usize]);
            m.counters.helped_reads += 1;
            Flow::Return
        }
    });
    {
        let r_l53c = r_l53;
        b.stmt(read, "51: if Cell[rhd[i]].nxt = ⊥", move |l, m| {
            let h = HdWord::unpack(l.rhd[l.i as usize]);
            let bot = m.cell_nxt[h.id as usize][h.tag as usize][0].is_none();
            if bot {
                Flow::Next
            } else {
                Flow::Goto(r_l53c)
            }
        });
    }
    b.stmt(read, "52: return Cell[rhd[i]].val", |l, m| {
        let h = HdWord::unpack(l.rhd[l.i as usize]);
        l.ret_val = Some(m.cell_val[h.id as usize][h.tag as usize]);
        Flow::Return
    });
    b.bind(read, r_l53);
    {
        let r_incc = r_inc;
        b.free(read, "53: if i ≤ pri", move |l, _m| {
            if l.i <= l.pri {
                Flow::Next
            } else {
                Flow::Goto(r_incc)
            }
        });
    }
    b.free(read, "54: next := Cell[rhd[i]].nxt (consensus read)", move |l, _m| {
        let h = HdWord::unpack(l.rhd[l.i as usize]);
        l.nxt_id = h.id;
        l.nxt_tag = h.tag;
        Flow::Call(read_nxt)
    });
    b.free(read, "54b: unpack next", |l, _m| {
        let (id, tag) = unpack_ptr(l.dec.ret.expect("nxt ≠ ⊥ is stable"));
        l.next = HdWord { id, tag, last: 0 };
        Flow::Next
    });
    {
        let r_incc = r_inc;
        b.free(read, "55: if priority(next.id) = i", move |l, m| {
            if m.prio[l.next.id as usize] == l.i {
                Flow::Next
            } else {
                Flow::Goto(r_incc)
            }
        });
    }
    b.free(read, "56: Feedback(p+N, i, rhd[i], next)", move |l, _m| {
        let h = HdWord::unpack(l.rhd[l.i as usize]);
        l.fb_row = l.me + l.n;
        l.fb_i = l.i;
        l.fb_cmp_id = h.id;
        l.fb_cmp_tag = h.tag;
        l.fb_target = FbTarget::Next;
        Flow::Call(feedback)
    });
    {
        let r_incc = r_inc;
        b.stmt(read, "57: if Cell[next].nxt = ⊥", move |l, m| {
            let bot = m.cell_nxt[l.next.id as usize][l.next.tag as usize][0].is_none();
            if bot {
                Flow::Next
            } else {
                Flow::Goto(r_incc)
            }
        });
    }
    b.stmt(read, "58: return Cell[next].val", |l, m| {
        l.ret_val = Some(m.cell_val[l.next.id as usize][l.next.tag as usize]);
        Flow::Return
    });
    b.bind(read, r_inc);
    {
        let r_topc = r_top;
        let r_l59c = r_l59;
        b.free(read, "46b: advance scan", move |l, _m| {
            l.k += 1;
            if l.k < l.v {
                l.i = read_order(l.k, l.v, l.pri);
                Flow::Goto(r_topc)
            } else {
                Flow::Goto(r_l59c)
            }
        });
    }
    b.bind(read, r_l59);
    {
        let r_l62c = r_l62;
        b.free(read, "59: for i := pri+1 to V", move |l, _m| {
            l.i = l.pri + 1;
            if l.i <= l.v {
                Flow::Next
            } else {
                Flow::Goto(r_l62c)
            }
        });
    }
    b.bind(read, r2_top);
    {
        let r2_incc = r2_inc;
        b.stmt(read, "60: if Hd[i] ≠ rhd[i]", move |l, m| {
            l.hd_snap = m.hd[l.i as usize];
            if l.hd_snap != l.rhd[l.i as usize] {
                Flow::Next
            } else {
                Flow::Goto(r2_incc)
            }
        });
    }
    b.stmt(read, "61: return Seen[pri]", |l, m| {
        l.ret_val = Some(m.seen[l.pri as usize]);
        m.counters.helped_reads += 1;
        Flow::Return
    });
    b.bind(read, r2_inc);
    {
        let r2_topc = r2_top;
        let r_l62c = r_l62;
        b.free(read, "59b: i := i + 1", move |l, _m| {
            l.i += 1;
            if l.i <= l.v {
                Flow::Goto(r2_topc)
            } else {
                Flow::Goto(r_l62c)
            }
        });
    }
    b.bind(read, r_l62);
    b.stmt(read, "62: return Cell[next].val (same-priority Hd changed)", |l, m| {
        l.ret_val = Some(m.cell_val[l.next.id as usize][l.next.tag as usize]);
        Flow::Return
    });

    (b.build(), CasEntries { cas, read })
}

/// Builds a process machine that performs the scripted operations in
/// order. The machine's per-invocation output encodes the result:
/// `C&S` → 0/1; `Read` → the value read.
pub fn op_machine(
    me: u32,
    pri: u32,
    n: u32,
    v: u32,
    ops: Vec<CasOp>,
) -> ProgMachine<CasLocals, CasMem> {
    // Every Fig. 5 machine runs the same immutable program, so it is built
    // once per process, not once per machine.
    static PROGRAM: OnceLock<(Arc<Program<CasLocals, CasMem>>, CasEntries)> = OnceLock::new();
    let (prog, entries) = PROGRAM.get_or_init(build_program);
    let entries = *entries;
    let ops2 = ops.clone();
    let plan: InvocationPlan<CasLocals> = Arc::new(move |l, k| {
        let op = ops2.get(k as usize)?;
        l.ret_cas = None;
        l.ret_val = None;
        match *op {
            CasOp::Cas { old, new } => {
                l.op_old = old;
                l.op_new = new;
                Some(entries.cas)
            }
            CasOp::Read => Some(entries.read),
        }
    });
    ProgMachine::with_plan(prog, CasLocals::new(me, pri, n, v), plan).with_output(|l| {
        if let Some(r) = l.ret_cas {
            Some(u64::from(r))
        } else {
            l.ret_val
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{check_linearizable, CasRegOp, CasRegisterSpec, TimedOp};
    use sched_sim::decision::{Decider, RoundRobin, SeededRandom};
    use sched_sim::explore::{check_all_schedules, ExploreBounds};
    use sched_sim::ids::{ProcessId, ProcessorId, Priority};
    use sched_sim::kernel::{Kernel, SystemSpec};

    const INIT: Val = 100;

    /// Builds a kernel running `plans[p]` at priority `prios[p]`.
    fn kernel(spec: SystemSpec, v: u32, prios: &[u32], plans: &[Vec<CasOp>]) -> Kernel<CasMem> {
        assert_eq!(prios.len(), plans.len());
        let n = prios.len() as u32;
        let mut k = Kernel::new(CasMem::new(v, prios, INIT), spec);
        for (p, ops) in plans.iter().enumerate() {
            k.add_process(
                ProcessorId(0),
                Priority(prios[p]),
                Box::new(op_machine(p as u32, prios[p], n, v, ops.clone())),
            );
        }
        k
    }

    /// Zips kernel op records with the planned operations for the oracle.
    fn timed_ops(k: &Kernel<CasMem>, plans: &[Vec<CasOp>]) -> Vec<TimedOp<CasRegOp>> {
        k.ops()
            .iter()
            .map(|r| {
                let op = plans[r.pid.index()][r.inv_index as usize];
                TimedOp {
                    start: r.start,
                    end: r.t,
                    op: match op {
                        CasOp::Cas { old, new } => CasRegOp::Cas { old, new },
                        CasOp::Read => CasRegOp::Read,
                    },
                    result: r.output.expect("op has a result"),
                }
            })
            .collect()
    }

    fn assert_linearizable(k: &Kernel<CasMem>, plans: &[Vec<CasOp>]) {
        assert!(k.all_finished(), "workload did not finish");
        let ops = timed_ops(k, plans);
        check_linearizable(&CasRegisterSpec { init: INIT }, &ops)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn solo_cas_success_and_read() {
        let plans = vec![vec![
            CasOp::Cas { old: INIT, new: 7 },
            CasOp::Read,
            CasOp::Cas { old: 7, new: 8 },
            CasOp::Read,
        ]];
        let mut k = kernel(SystemSpec::hybrid(256), 1, &[1], &plans);
        k.run(&mut RoundRobin::new(), 100_000);
        assert_linearizable(&k, &plans);
        let outs: Vec<_> = k.ops().iter().map(|o| o.output.unwrap()).collect();
        assert_eq!(outs, vec![1, 7, 1, 8]);
        assert_eq!(k.mem.current_value(), 8);
    }

    #[test]
    fn solo_cas_failure_leaves_value() {
        let plans = vec![vec![CasOp::Cas { old: 999, new: 7 }, CasOp::Read]];
        let mut k = kernel(SystemSpec::hybrid(256), 1, &[1], &plans);
        k.run(&mut RoundRobin::new(), 100_000);
        let outs: Vec<_> = k.ops().iter().map(|o| o.output.unwrap()).collect();
        assert_eq!(outs, vec![0, INIT]);
        assert_linearizable(&k, &plans);
    }

    #[test]
    fn trivial_cas_old_equals_new() {
        let plans = vec![vec![CasOp::Cas { old: INIT, new: INIT }, CasOp::Read]];
        let mut k = kernel(SystemSpec::hybrid(256), 1, &[1], &plans);
        k.run(&mut RoundRobin::new(), 100_000);
        let outs: Vec<_> = k.ops().iter().map(|o| o.output.unwrap()).collect();
        assert_eq!(outs, vec![1, INIT]);
        assert_linearizable(&k, &plans);
    }

    #[test]
    fn two_racing_cas_one_winner_fair() {
        let plans = vec![
            vec![CasOp::Cas { old: INIT, new: 1 }],
            vec![CasOp::Cas { old: INIT, new: 2 }],
        ];
        let mut k = kernel(SystemSpec::hybrid(256), 1, &[1, 1], &plans);
        k.run(&mut RoundRobin::new(), 100_000);
        assert_linearizable(&k, &plans);
    }

    #[test]
    fn mixed_priorities_fair_schedule() {
        let plans = vec![
            vec![CasOp::Cas { old: INIT, new: 1 }, CasOp::Read, CasOp::Cas { old: 1, new: 3 }],
            vec![CasOp::Cas { old: INIT, new: 2 }, CasOp::Read],
            vec![CasOp::Read, CasOp::Cas { old: 2, new: 4 }],
        ];
        let mut k = kernel(SystemSpec::hybrid(256), 3, &[1, 2, 3], &plans);
        k.run(&mut RoundRobin::new(), 1_000_000);
        assert_linearizable(&k, &plans);
    }

    #[test]
    fn randomized_schedules_linearizable() {
        for seed in 0..60 {
            let plans = vec![
                vec![CasOp::Cas { old: INIT, new: 1 }, CasOp::Read],
                vec![CasOp::Cas { old: INIT, new: 2 }, CasOp::Cas { old: 2, new: 5 }],
                vec![CasOp::Read, CasOp::Cas { old: 1, new: 6 }],
                vec![CasOp::Read],
            ];
            let mut k = kernel(
                SystemSpec::hybrid(128).with_adversarial_alignment(),
                2,
                &[1, 1, 2, 2],
                &plans,
            );
            k.run(&mut SeededRandom::new(seed), 1_000_000);
            assert!(k.all_finished(), "seed {seed} did not finish");
            let ops = timed_ops(&k, &plans);
            check_linearizable(&CasRegisterSpec { init: INIT }, &ops)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn randomized_single_level_quantum_only() {
        // Pure quantum-scheduled degeneration: one priority level.
        for seed in 0..60 {
            let plans = vec![
                vec![CasOp::Cas { old: INIT, new: 1 }, CasOp::Read],
                vec![CasOp::Cas { old: INIT, new: 2 }, CasOp::Read],
                vec![CasOp::Cas { old: 1, new: 3 }],
            ];
            let mut k = kernel(
                SystemSpec::pure_quantum(128).with_adversarial_alignment(),
                1,
                &[1, 1, 1],
                &plans,
            );
            k.run(&mut SeededRandom::new(seed), 1_000_000);
            assert!(k.all_finished(), "seed {seed} did not finish");
            let ops = timed_ops(&k, &plans);
            check_linearizable(&CasRegisterSpec { init: INIT }, &ops)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn pure_priority_distinct_levels() {
        // Pure priority-scheduled degeneration: distinct priorities.
        for seed in 0..60 {
            let plans = vec![
                vec![CasOp::Cas { old: INIT, new: 1 }, CasOp::Read],
                vec![CasOp::Cas { old: INIT, new: 2 }, CasOp::Read],
                vec![CasOp::Read, CasOp::Cas { old: 2, new: 4 }],
            ];
            let mut k = kernel(SystemSpec::pure_priority(), 3, &[1, 2, 3], &plans);
            k.run(&mut SeededRandom::new(seed), 1_000_000);
            assert!(k.all_finished(), "seed {seed} did not finish");
            let ops = timed_ops(&k, &plans);
            check_linearizable(&CasRegisterSpec { init: INIT }, &ops)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    /// Exhaustive check over every placement of the first quantum boundary:
    /// two same-priority processes, each one operation, Q = 80 (no second
    /// boundary in any op), every adversarial first window explored.
    #[test]
    fn exhaustive_first_boundary_placements() {
        let plans = vec![
            vec![CasOp::Cas { old: INIT, new: 1 }],
            vec![CasOp::Cas { old: INIT, new: 2 }],
        ];
        let k = kernel(
            SystemSpec::hybrid(80).with_adversarial_alignment(),
            1,
            &[1, 1],
            &plans,
        );
        let plans2 = plans.clone();
        let stats = check_all_schedules(
            &k,
            ExploreBounds { max_depth: 4000, max_total_steps: 20_000_000, ..ExploreBounds::default() },
            |k| {
                if !k.all_finished() {
                    return Some("not finished at quiescence".into());
                }
                let ops = timed_ops(k, &plans2);
                check_linearizable(&CasRegisterSpec { init: INIT }, &ops).err()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert!(!stats.truncated(), "exploration truncated: {stats:?}");
        assert!(stats.terminals > 10);
    }

    /// O(V): when the head is maintained only at the top level (all lower
    /// head hints are stale), an operation's statement count grows linearly
    /// in the number of priority levels it must scan past.
    #[test]
    fn step_complexity_is_linear_in_v() {
        let steps_for = |v: u32| {
            // p0 (level v) performs three CASes, leaving Hd[1..v-1] stale.
            // p1 (level v) then performs one CAS, scanning every level.
            let n = 2;
            let mut k = Kernel::new(CasMem::new(v, &[v, v], INIT), SystemSpec::hybrid(4096));
            k.add_process(
                ProcessorId(0),
                Priority(v),
                Box::new(op_machine(
                    0,
                    v,
                    n,
                    v,
                    vec![
                        CasOp::Cas { old: INIT, new: 1 },
                        CasOp::Cas { old: 1, new: 2 },
                        CasOp::Cas { old: 2, new: 3 },
                    ],
                )),
            );
            let p1 = k.add_held_process(
                ProcessorId(0),
                Priority(v),
                Box::new(op_machine(1, v, n, v, vec![CasOp::Cas { old: 3, new: 4 }])),
            );
            let mut d = RoundRobin::new();
            k.run(&mut d, 1_000_000);
            k.release(p1);
            k.run(&mut d, 1_000_000);
            assert!(k.all_finished());
            assert_eq!(k.output(p1), Some(1), "p1's CAS must succeed");
            k.stats(p1).own_steps
        };
        let s: Vec<u64> = (1..=6).map(steps_for).collect();
        let inc = s[1] - s[0];
        assert!(inc > 0, "scan must cost something per stale level: {s:?}");
        for w in 1..5 {
            assert_eq!(s[w + 1] - s[w], inc, "non-linear growth: {s:?}");
        }
    }

    /// Wait-freedom: every process completes each operation within a
    /// bounded number of its own steps, across many adversarial random
    /// schedules.
    #[test]
    fn wait_free_step_bound() {
        let mut max_steps = 0u64;
        for seed in 0..60 {
            let plans = vec![
                vec![CasOp::Cas { old: INIT, new: 1 }],
                vec![CasOp::Cas { old: INIT, new: 2 }],
                vec![CasOp::Read],
                vec![CasOp::Cas { old: 2, new: 3 }],
            ];
            let mut k = kernel(
                SystemSpec::hybrid(128).with_adversarial_alignment(),
                2,
                &[1, 1, 2, 2],
                &plans,
            );
            k.run(&mut SeededRandom::new(seed), 1_000_000);
            assert!(k.all_finished());
            for p in 0..4u32 {
                max_steps = max_steps.max(k.stats(ProcessId(p)).own_steps);
            }
        }
        // c·V with V = 2: generous explicit bound documents the constant.
        assert!(max_steps <= 400, "per-op step bound blown: {max_steps}");
    }

    /// A higher-priority process that interrupts and completes a C&S forces
    /// the preempted lower-priority reader to return a consistent value
    /// (the Seen-helping path), never a stale or invented one.
    #[test]
    fn preempted_reader_gets_helped() {
        // Low-priority reader starts, gets preempted by high-priority CAS.

        let plans = vec![
            vec![CasOp::Read],
            vec![CasOp::Cas { old: INIT, new: 42 }],
        ];
        for release_at in 1..30 {
            let n = 2;
            let mut k = Kernel::new(
                CasMem::new(2, &[1, 2], INIT),
                SystemSpec::hybrid(256),
            );
            k.add_process(
                ProcessorId(0),
                Priority(1),
                Box::new(op_machine(0, 1, n, 2, plans[0].clone())),
            );
            let hi = k.add_held_process(
                ProcessorId(0),
                Priority(2),
                Box::new(op_machine(1, 2, n, 2, plans[1].clone())),
            );
            let mut d = RoundRobin::new();
            for _ in 0..release_at {
                k.step(&mut d);
            }
            k.release(hi);
            k.run(&mut d, 1_000_000);
            assert!(k.all_finished(), "release_at {release_at}");
            let ops = timed_ops(&k, &plans);
            check_linearizable(&CasRegisterSpec { init: INIT }, &ops)
                .unwrap_or_else(|e| panic!("release_at {release_at}: {e}"));

        }
    }

    /// Tag management: cells are never reused while still reachable. We
    /// check an implied invariant — after many operations by the same
    /// process, the list remains consistent and linearizable.
    #[test]
    fn tag_reuse_over_many_operations() {
        let mut plan = Vec::new();
        let mut cur = INIT;
        for i in 0..30 {
            plan.push(CasOp::Cas { old: cur, new: 1000 + i });
            cur = 1000 + i;
            if i % 3 == 0 {
                plan.push(CasOp::Read);
            }
        }
        let plans = vec![plan];
        let mut k = kernel(SystemSpec::hybrid(256), 1, &[1], &plans);
        k.run(&mut RoundRobin::new(), 10_000_000);
        assert!(k.all_finished());
        assert_eq!(k.mem.current_value(), 1029);
        assert_linearizable(&k, &plans);
    }

    /// Interleaved two-process long run with a contrarian decider.
    #[test]
    fn contrarian_long_run() {
        struct LastOption;
        impl Decider for LastOption {
            fn choose(&mut self, _c: sched_sim::decision::Choice<'_>, n: usize) -> usize {
                n - 1
            }
        }
        let plans = vec![
            vec![
                CasOp::Cas { old: INIT, new: 1 },
                CasOp::Cas { old: 1, new: 2 },
                CasOp::Read,
            ],
            vec![CasOp::Cas { old: INIT, new: 9 }, CasOp::Read, CasOp::Cas { old: 2, new: 7 }],
        ];
        let mut k = kernel(SystemSpec::hybrid(100), 1, &[1, 1], &plans);
        k.run(&mut LastOption, 1_000_000);
        assert_linearizable(&k, &plans);
    }

    /// Kernel [`ObsCounters`](sched_sim::obs::ObsCounters) and the object's
    /// own [`AlgCounters`] agree with per-process accounting on a
    /// mixed-priority C&S workload, and the Seen-helping path (line 29)
    /// actually fires: every `C&S` reaching `Apply` at priority ≥ 2 records
    /// helping values for the levels below it.
    #[test]
    fn obs_counters_track_cas_workload() {
        let plans = vec![
            vec![CasOp::Cas { old: INIT, new: 1 }, CasOp::Read, CasOp::Cas { old: 1, new: 3 }],
            vec![CasOp::Cas { old: INIT, new: 2 }, CasOp::Read],
            vec![CasOp::Read, CasOp::Cas { old: 2, new: 4 }],
        ];
        let mut k = kernel(SystemSpec::hybrid(256), 3, &[1, 2, 3], &plans);
        k.run(&mut RoundRobin::new(), 1_000_000);
        assert_linearizable(&k, &plans);

        let c = k.counters();
        let ops_planned: u64 = plans.iter().map(|p| p.len() as u64).sum();
        assert_eq!(c.invocations_completed, ops_planned);
        let own_total: u64 = (0..3).map(|p| k.stats(ProcessId(p)).own_steps).sum();
        assert_eq!(c.statements, own_total);
        assert_eq!(c.releases, 0);

        // Priority-2 and priority-3 processes each perform one C&S that
        // reaches Apply; line 29 writes Seen[i] for every lower level.
        assert!(k.mem.counters.seen_helps > 0, "{}", k.mem.counters);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        for id in [0u32, 1, 5, 100] {
            for tag in [0u32, 1, 17, 400] {
                for last in [0u32, 3, 99] {
                    let h = HdWord { id, tag, last };
                    assert_eq!(HdWord::unpack(h.pack()), h);
                }
                assert_eq!(unpack_ptr(pack_ptr(id, tag)), (id, tag));
            }
        }
    }

    #[test]
    fn read_order_visits_every_level_pri_last() {
        for v in 1..=6u32 {
            for pri in 1..=v {
                let seq: Vec<u32> = (0..v).map(|k| read_order(k, v, pri)).collect();
                let mut sorted = seq.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, (1..=v).collect::<Vec<_>>(), "v={v} pri={pri}");
                assert_eq!(*seq.last().unwrap(), pri, "v={v} pri={pri}");
            }
        }
    }
}

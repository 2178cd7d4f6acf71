//! Fig. 7: wait-free multiprocessor consensus for any number of processes
//! from `C`-consensus objects (`C ≥ P`), in polynomial space and time
//! (Theorem 4).
//!
//! Each process works through a series of consensus levels (Fig. 8 layout,
//! [`crate::multi::ports::PortLayout`]): at each level it claims a *port*
//! on its processor (bounding the level's `C`-consensus object to `C`
//! invocations), passes the election for that port (a uniprocessor
//! consensus object), invokes the level's `C`-consensus object with the
//! most recent published value on its processor as input, publishes the
//! result in `Outval[i, level]`, and advances `Lastpub[i, v]`.
//!
//! Per-priority `Port[i, v]` / `Lastpub[i, v]` counters are written only by
//! priority-`v` processes on processor `i`, so the paper implements their
//! `local-C&S` / `local-F&I` from reads and writes with the constant-time
//! quantum-scheduled algorithms of Anderson–Jain–Ott; here they are modeled as one atomic
//! statement each (see DESIGN.md, reconstruction boundary). The per-port
//! `local-consensus` election is available in **two modes**
//! ([`LocalMode`]): modeled-atomic, or fully expanded into the Fig. 3
//! read/write algorithm (eight statements), exercising the paper's actual
//! layering.
//!
//! A preempted port winner causes an *access failure* (Lemmas 2/3/B.1/B.2);
//! the shared memory carries oracle-only instrumentation that records
//! access failures so the lemma bounds can be verified on real runs
//! (`crate::multi::failures`).
//!
//! If `Q` is too small (below the Table 1 threshold), expanded-mode local
//! elections can misbehave, admitting multiple winners per port; the
//! level's `C`-consensus object then exhausts and returns `⊥`, which this
//! implementation maps to "no useful information" (the process falls back
//! to its current input — the paper's adversarial-return convention).
//! Disagreement then becomes observable, which is exactly the behaviour the
//! Theorem 3 lower bound predicts; the `experiments` crate sweeps this
//! threshold to regenerate Table 1.

use std::sync::{Arc, OnceLock};

use sched_sim::program::{Flow, ProcRef, ProgMachine, Program, ProgramBuilder};
use wfmem::{CConsensus, LocalConsensus, Val};

use crate::multi::ports::PortLayout;
use crate::uni::consensus::{append_decide, ConsensusCell, DecideScratch};

/// How the per-port `local-consensus` election is implemented.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LocalMode {
    /// One atomic statement per election (justified by Theorem 1).
    #[default]
    Modeled,
    /// The actual Fig. 3 read/write algorithm (8 statements per election);
    /// correct only when `Q` meets the Theorem 1 bound, which is the point:
    /// this is where the quantum requirement physically lives.
    Expanded,
}

/// Oracle-only access-failure flags for one (processor, level) pair.
#[derive(Clone, Copy, Debug, Default, Hash, PartialEq, Eq)]
pub struct AfFlags {
    /// A same-priority access failure occurred here.
    pub same: bool,
    /// A different-priority access failure occurred here.
    pub diff: bool,
}

/// Shared memory of one Fig. 7 instance.
#[derive(Clone, Debug, Hash, PartialEq, Eq)]
pub struct MultiMem {
    /// The level/port geometry.
    pub layout: PortLayout,
    /// Number of priority levels `V` per processor.
    pub v: u32,
    /// `Lastpub[i][v]`: highest level with a published value by priority
    /// `≤ v` on processor `i` (index 1..=V).
    pub lastpub: Vec<Vec<Val>>,
    /// `Outval[i][l]`: published consensus value of level `l` on processor
    /// `i` (index 1..=L; index 0 unused and always `⊥`).
    pub outval: Vec<Vec<Option<Val>>>,
    /// `Port[i][v]`: next available port for priority `v` on processor `i`.
    pub port: Vec<Vec<Val>>,
    /// The `C`-consensus object of each level (index 1..=L).
    pub cons: Vec<CConsensus>,
    /// Modeled per-port election objects, per processor.
    pub local_cons: Vec<Vec<LocalConsensus>>,
    /// Expanded-mode per-port election cells (Fig. 3 three-slot objects).
    pub local_cells: Vec<Vec<ConsensusCell>>,
    /// Static priority map `pid → level`.
    pub prio_of: Vec<u32>,
    /// Static processor map `pid → cpu`.
    pub cpu_of: Vec<u32>,
    // ---- oracle-only instrumentation (never read by the algorithm) ----
    /// Port claims: `(winner pid, winner priority)` per (cpu, port).
    pub port_claims: Vec<Vec<Option<(u32, u32)>>>,
    /// Access-failure flags per (cpu, level 1..=L).
    pub af: Vec<Vec<AfFlags>>,
}

impl MultiMem {
    /// Creates the instance for the given layout, `V` priority levels, and
    /// static process maps.
    pub fn new(layout: PortLayout, v: u32, prio_of: &[u32], cpu_of: &[u32]) -> Self {
        assert_eq!(prio_of.len(), cpu_of.len());
        assert!(prio_of.iter().all(|&x| (1..=v).contains(&x)), "priorities in 1..=V");
        assert!(cpu_of.iter().all(|&x| x < layout.p), "cpus in 0..P");
        for cpu in 0..layout.p {
            let on_cpu = cpu_of.iter().filter(|&&c| c == cpu).count() as u32;
            assert!(on_cpu <= layout.m, "more than M processes on cpu {cpu}");
        }
        let p = layout.p as usize;
        let l = layout.l as usize;
        // Port-number slack: counters stay below 2L + 3M + 4 (monotone,
        // bounded overshoot).
        let ports_len = 2 * l + 3 * layout.m as usize + 4;
        MultiMem {
            layout,
            v,
            lastpub: vec![vec![0; v as usize + 1]; p],
            outval: vec![vec![None; l + 1]; p],
            port: vec![vec![1; v as usize + 1]; p],
            cons: (0..=l).map(|_| CConsensus::new(layout.c())).collect(),
            local_cons: vec![vec![LocalConsensus::new(); ports_len]; p],
            local_cells: vec![vec![[None; 3]; ports_len]; p],
            prio_of: prio_of.to_vec(),
            cpu_of: cpu_of.to_vec(),
            port_claims: vec![vec![None; ports_len]; p],
            af: vec![vec![AfFlags::default(); l + 1]; p],
        }
    }

    /// Oracle-only: records the election outcome of `port` on `cpu` (once)
    /// and scans, from `observer`'s perspective, all levels below the
    /// port's level for access failures visible right now (every port
    /// claimed, nothing published — the paper's "inaccessible to p yet no
    /// decision value has been published").
    fn record_claim_and_scan(&mut self, cpu: u32, port: u32, winner: u32, observer: u32) {
        let slot = &mut self.port_claims[cpu as usize][port as usize];
        if slot.is_none() {
            *slot = Some((winner, self.prio_of[winner as usize]));
        }
        let my_level = self.layout.level_of_port(cpu, port);
        let obs_prio = self.prio_of[observer as usize];
        let numports = self.layout.ports_per_level(cpu);
        for l in 1..my_level.min(self.layout.l + 1) {
            if self.outval[cpu as usize][l as usize].is_some() {
                continue;
            }
            // Ports of level l on this cpu: (l-1)*numports+1 ..= l*numports,
            // scanned in place (this runs at every port election).
            let first = ((l - 1) * numports + 1) as usize;
            let claims = &self.port_claims[cpu as usize][first..first + numports as usize];
            if claims.iter().all(Option::is_some) {
                // Level l is inaccessible to `observer` yet unpublished:
                // an access failure caused by the preempted winners at l.
                let af = &mut self.af[cpu as usize][l as usize];
                for &(_, wprio) in claims.iter().flatten() {
                    if wprio == obs_prio {
                        af.same = true;
                    } else {
                        af.diff = true;
                    }
                }
            }
        }
    }
}


/// Projects a [`MultiMem`] out of a larger shared-memory type, so the
/// Fig. 7 procedure can be embedded in bigger programs (Fig. 9 wraps it
/// with an election and an `Output` variable).
pub trait AsMultiMem: 'static {
    /// The embedded Fig. 7 memory.
    fn mm(&mut self) -> &mut MultiMem;
}

impl AsMultiMem for MultiMem {
    fn mm(&mut self) -> &mut MultiMem {
        self
    }
}

/// Process-local state of a Fig. 7 `decide` invocation.
#[derive(Clone, Debug, Hash, PartialEq, Eq)]
pub struct MultiLocals {
    /// Process id `p`.
    pub me: u32,
    /// Processor `pr(p)`.
    pub cpu: u32,
    /// Priority `priority(p)`.
    pub pri: u32,
    /// Proposal `val`.
    pub val: Val,
    /// Ports per consensus object on this processor.
    pub numports: u32,
    /// Input value for the next level.
    pub input: Val,
    /// Output of the last `C`-consensus invocation.
    pub output: Val,
    /// `lastval` (line 1/15).
    pub lastval: Option<Val>,
    /// Current and previous level.
    pub level: u32,
    /// Level accessed in the previous while-iteration.
    pub prevlevel: u32,
    /// Port numbers.
    pub port: Val,
    /// `newport` (line 20).
    pub newport: Val,
    /// `lowerport` (line 6).
    pub lowerport: Val,
    /// `publevel` / `lowerpublevel`.
    pub publevel: Val,
    /// Published level observed at a lower priority (line 10).
    pub lowerpublevel: Val,
    /// Priority-merge loop index `v`.
    pub vv: u32,
    /// Whether this process won the current port election.
    pub won: bool,
    /// The decision (set on return).
    pub ret: Option<Val>,
    /// Scratch for expanded-mode local elections.
    pub dec: DecideScratch,
}

impl MultiLocals {
    /// Fresh locals for process `me` on `cpu` at priority `pri`, proposing
    /// `val`.
    pub fn new(me: u32, cpu: u32, pri: u32, val: Val) -> Self {
        MultiLocals {
            me,
            cpu,
            pri,
            val,
            numports: 1,
            input: 0,
            output: 0,
            lastval: None,
            level: 0,
            prevlevel: 0,
            port: 1,
            newport: 0,
            lowerport: 0,
            publevel: 0,
            lowerpublevel: 0,
            vv: 0,
            won: false,
            ret: None,
            dec: DecideScratch::default(),
        }
    }
}

/// A built `decide` program over memory `M`, and its entry point.
pub(crate) type DecideProgram<M> = (Arc<Program<MultiLocals, M>>, ProcRef);

/// Builds the Fig. 7 `decide` program in the given [`LocalMode`].
pub fn build_program(mode: LocalMode) -> (Arc<Program<MultiLocals, MultiMem>>, ProcRef) {
    let mut b = ProgramBuilder::<MultiLocals, MultiMem>::new();
    let decide = append_decide_proc(&mut b, mode);
    (b.build(), decide)
}

/// Appends the Fig. 7 `decide` procedure to a program over any memory
/// embedding a [`MultiMem`] (see [`AsMultiMem`]); used directly by the
/// Fig. 9 fair-scheduler wrapper.
#[allow(clippy::too_many_lines)]
pub fn append_decide_proc<M: AsMultiMem>(
    b: &mut ProgramBuilder<MultiLocals, M>,
    mode: LocalMode,
) -> ProcRef {

    // Expanded-mode local election: Fig. 3 decide on the port's cell,
    // proposing the caller's id.
    let local_decide = append_decide(
        b,
        "local-consensus (Fig. 3)",
        u64::MAX, // per-(cpu, port) cell chosen at run time: whole memory
        |m: &mut M, l: &MultiLocals| {
            &mut m.mm().local_cells[l.cpu as usize][l.port as usize]
        },
        |l| u64::from(l.me),
        |l| &mut l.dec,
    );

    let decide = b.proc("decide");
    let l_merge_top = b.label();
    let l_merge_lastpub = b.label();
    let l_merge_inc = b.label();
    let l_while = b.label();
    let l_24 = b.label();
    let l_26 = b.label();
    let l_29 = b.label();
    let l_30b = b.label();
    let l_34 = b.label();
    let l_35 = b.label();

    b.stmt(decide, "1: lastval := Outval[pr(p), L]", |l, m| {
        let m = m.mm();
        l.lastval = m.outval[l.cpu as usize][m.layout.l as usize];
        Flow::Next
    });
    b.stmt(decide, "2: if lastval ≠ ⊥ then return lastval", |l, _m| {
        if let Some(v) = l.lastval {
            l.ret = Some(v);
            Flow::Return
        } else {
            Flow::Next
        }
    });
    b.free(decide, "3: numports := (pr(p) ≤ K) ? 2 : 1", |l, m| {
        l.numports = m.mm().layout.ports_per_level(l.cpu);
        Flow::Next
    });
    b.free(decide, "4: input, prevlevel, level := val, 0, 0", |l, _m| {
        l.input = l.val;
        l.prevlevel = 0;
        l.level = 0;
        Flow::Next
    });
    {
        let l_whilec = l_while;
        b.free(decide, "5: for v := 1 to priority(p) − 1", move |l, _m| {
            l.vv = 1;
            if l.vv < l.pri {
                Flow::Next
            } else {
                Flow::Goto(l_whilec)
            }
        });
    }
    b.bind(decide, l_merge_top);
    b.stmt(decide, "6: lowerport := Port[pr(p), v]", |l, m| {
        l.lowerport = m.mm().port[l.cpu as usize][l.vv as usize];
        Flow::Next
    });
    b.stmt(decide, "7: port := Port[pr(p), priority(p)]", |l, m| {
        l.port = m.mm().port[l.cpu as usize][l.pri as usize];
        Flow::Next
    });
    {
        let l_mlc = l_merge_lastpub;
        b.free(decide, "8: if lowerport > port", move |l, _m| {
            if l.lowerport > l.port {
                Flow::Next
            } else {
                Flow::Goto(l_mlc)
            }
        });
    }
    b.stmt(decide, "9: local-C&S(&Port[pr(p), pri], port, lowerport)", |l, m| {
        let slot = &mut m.mm().port[l.cpu as usize][l.pri as usize];
        if *slot == l.port {
            *slot = l.lowerport;
        }
        Flow::Next
    });
    b.bind(decide, l_merge_lastpub);
    b.stmt(decide, "10: lowerpublevel := Lastpub[pr(p), v]", |l, m| {
        l.lowerpublevel = m.mm().lastpub[l.cpu as usize][l.vv as usize];
        Flow::Next
    });
    b.stmt(decide, "11: publevel := Lastpub[pr(p), priority(p)]", |l, m| {
        l.publevel = m.mm().lastpub[l.cpu as usize][l.pri as usize];
        Flow::Next
    });
    {
        let l_mic = l_merge_inc;
        b.free(decide, "12: if lowerpublevel > publevel", move |l, _m| {
            if l.lowerpublevel > l.publevel {
                Flow::Next
            } else {
                Flow::Goto(l_mic)
            }
        });
    }
    b.stmt(decide, "13: local-C&S(&Lastpub[pr(p), pri], publevel, lowerpublevel)", |l, m| {
        let slot = &mut m.mm().lastpub[l.cpu as usize][l.pri as usize];
        if *slot == l.publevel {
            *slot = l.lowerpublevel;
        }
        Flow::Next
    });
    b.bind(decide, l_merge_inc);
    {
        let l_mtc = l_merge_top;
        b.free(decide, "5b: v := v + 1", move |l, _m| {
            l.vv += 1;
            if l.vv < l.pri {
                Flow::Goto(l_mtc)
            } else {
                Flow::Next
            }
        });
    }
    b.bind(decide, l_while);
    {
        let l_35c = l_35;
        b.free(decide, "14: while level ≤ L", move |l, m| {
            if l.level <= m.mm().layout.l {
                Flow::Next
            } else {
                Flow::Goto(l_35c)
            }
        });
    }
    b.stmt(decide, "15: lastval := Outval[pr(p), L]", |l, m| {
        let m = m.mm();
        l.lastval = m.outval[l.cpu as usize][m.layout.l as usize];
        Flow::Next
    });
    b.stmt(decide, "16: if lastval ≠ ⊥ then return lastval", |l, _m| {
        if let Some(v) = l.lastval {
            l.ret = Some(v);
            Flow::Return
        } else {
            Flow::Next
        }
    });
    b.stmt(decide, "17: port := Port[pr(p), priority(p)]", |l, m| {
        l.port = m.mm().port[l.cpu as usize][l.pri as usize];
        Flow::Next
    });
    b.free(decide, "18: level := ((port − 1) div numports) + 1", |l, _m| {
        l.level = ((l.port - 1) / u64::from(l.numports) + 1) as u32;
        Flow::Next
    });
    {
        let l_24c = l_24;
        b.free(decide, "19: if prevlevel = level", move |l, _m| {
            if l.prevlevel == l.level {
                Flow::Next
            } else {
                Flow::Goto(l_24c)
            }
        });
    }
    b.free(decide, "20: newport := port + numports", |l, _m| {
        l.newport = l.port + u64::from(l.numports);
        Flow::Next
    });
    {
        let l_26c = l_26;
        b.stmt(decide, "21-22: if local-C&S(&Port, port, newport+1) then port := newport", move |l, m| {
            let slot = &mut m.mm().port[l.cpu as usize][l.pri as usize];
            if *slot == l.port {
                *slot = l.newport + 1;
                l.port = l.newport;
                Flow::Goto(l_26c)
            } else {
                Flow::Next
            }
        });
    }
    {
        let l_26c = l_26;
        b.stmt(decide, "23: port := local-F&I(&Port[pr(p), pri])", move |l, m| {
            let slot = &mut m.mm().port[l.cpu as usize][l.pri as usize];
            l.port = *slot;
            *slot += 1;
            Flow::Goto(l_26c)
        });
    }
    b.bind(decide, l_24);
    b.stmt(decide, "25: port := local-F&I(&Port[pr(p), pri])", |l, m| {
        let slot = &mut m.mm().port[l.cpu as usize][l.pri as usize];
        l.port = *slot;
        *slot += 1;
        Flow::Next
    });
    b.bind(decide, l_26);
    b.free(decide, "26: level := ((port − 1) div numports) + 1", |l, _m| {
        l.level = ((l.port - 1) / u64::from(l.numports) + 1) as u32;
        Flow::Next
    });
    b.stmt(decide, "27: publevel := Lastpub[pr(p), priority(p)]", |l, m| {
        l.publevel = m.mm().lastpub[l.cpu as usize][l.pri as usize];
        Flow::Next
    });
    b.stmt(decide, "28: if publevel ≠ 0 then input := Outval[pr(p), publevel]", |l, m| {
        if l.publevel != 0 {
            if let Some(v) = m.mm().outval[l.cpu as usize][l.publevel as usize] {
                l.input = v;
            }
        }
        Flow::Next
    });
    b.bind(decide, l_29);
    {
        let l_34c = l_34;
        b.free(decide, "29: if level ≤ L", move |l, m| {
            if l.level <= m.mm().layout.l {
                Flow::Next
            } else {
                Flow::Goto(l_34c)
            }
        });
    }
    // ---- line 30: the port election, in the configured mode ----
    match mode {
        LocalMode::Modeled => {
            b.stmt(decide, "30: if local-consensus(pr(p), port, p) = p", |l, m| {
                let m = m.mm();
                let w = m.local_cons[l.cpu as usize][l.port as usize].decide(u64::from(l.me));
                m.record_claim_and_scan(l.cpu, l.port as u32, w as u32, l.me);
                l.won = w == u64::from(l.me);
                Flow::Next
            });
        }
        LocalMode::Expanded => {
            b.free(decide, "30: local-consensus(pr(p), port, p) — Fig. 3", move |_l, _m| {
                Flow::Call(local_decide)
            });
            b.free(decide, "30a: record winner", |l, m| {
                let w = l.dec.ret.expect("Fig. 3 decide always returns");
                m.mm().record_claim_and_scan(l.cpu, l.port as u32, w as u32, l.me);
                l.won = w == u64::from(l.me);
                Flow::Next
            });
        }
    }
    {
        let l_34c = l_34;
        b.bind(decide, l_30b);
        b.free(decide, "30b: … = p ?", move |l, _m| {
            if l.won {
                Flow::Next
            } else {
                Flow::Goto(l_34c)
            }
        });
    }
    b.stmt(decide, "31: output := C-consensus(level, input)", |l, m| {
        let r = m.mm().cons[l.level as usize].invoke(l.input);
        // ⊥ (object exhausted) only happens when elections misbehaved
        // below the quantum bound; it carries no useful information, so
        // the process keeps its current input as "output".
        l.output = r.unwrap_or(l.input);
        Flow::Next
    });
    b.stmt(decide, "32: Outval[pr(p), level] := output", |l, m| {
        m.mm().outval[l.cpu as usize][l.level as usize] = Some(l.output);
        Flow::Next
    });
    b.stmt(decide, "33: local-C&S(&Lastpub[pr(p), pri], publevel, level)", |l, m| {
        let slot = &mut m.mm().lastpub[l.cpu as usize][l.pri as usize];
        if *slot == l.publevel {
            *slot = u64::from(l.level);
        }
        Flow::Next
    });
    b.bind(decide, l_34);
    {
        let l_whilec = l_while;
        b.free(decide, "34: prevlevel := level", move |l, _m| {
            l.prevlevel = l.level;
            Flow::Goto(l_whilec)
        });
    }
    b.bind(decide, l_35);
    b.stmt(decide, "35: publevel := Lastpub[pr(p), priority(p)]", |l, m| {
        l.publevel = m.mm().lastpub[l.cpu as usize][l.pri as usize];
        Flow::Next
    });
    b.stmt(decide, "36: return Outval[pr(p), publevel]", |l, m| {
        l.ret = if l.publevel == 0 {
            None
        } else {
            m.mm().outval[l.cpu as usize][l.publevel as usize]
        };
        Flow::Return
    });

    decide
}

/// Builds a single-shot `decide(val)` machine for process `me` on `cpu` at
/// priority `pri`. Its output is the decision (`None` would indicate a
/// correctness failure and trips the test oracles).
pub fn decide_machine(
    me: u32,
    cpu: u32,
    pri: u32,
    val: Val,
    mode: LocalMode,
) -> ProgMachine<MultiLocals, MultiMem> {
    // Every decide machine of a mode runs the same immutable program, so
    // it is built once per process and mode, not once per machine.
    static DECIDE: [OnceLock<DecideProgram<MultiMem>>; 2] = [OnceLock::new(), OnceLock::new()];
    let (prog, entry) = DECIDE[mode as usize].get_or_init(|| build_program(mode));
    ProgMachine::single_shot(prog, MultiLocals::new(me, cpu, pri, val), *entry)
        .with_output(|l| l.ret)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi::failures::{
        deciding_level_exists, lemma2_holds, lemma3_bound_holds, summarize,
    };
    use sched_sim::decision::{RoundRobin, SeededRandom};
    use sched_sim::ids::{ProcessId, ProcessorId, Priority};
    use sched_sim::kernel::{Kernel, SystemSpec};

    /// Builds a kernel: `procs[pid] = (cpu, priority, input)`.
    fn kernel(
        spec: SystemSpec,
        p: u32,
        c: u32,
        v: u32,
        procs: &[(u32, u32, Val)],
        mode: LocalMode,
    ) -> Kernel<MultiMem> {
        let prio: Vec<u32> = procs.iter().map(|&(_, pr, _)| pr).collect();
        let cpus: Vec<u32> = procs.iter().map(|&(cc, _, _)| cc).collect();
        let m = (0..p)
            .map(|cc| cpus.iter().filter(|&&x| x == cc).count() as u32)
            .max()
            .unwrap()
            .max(1);
        let layout = PortLayout::new(p, c, m);
        let mem = MultiMem::new(layout, v, &prio, &cpus);
        let mut k = Kernel::new(mem, spec);
        for (pid, &(cpu, pr, val)) in procs.iter().enumerate() {
            k.add_process(
                ProcessorId(cpu),
                Priority(pr),
                Box::new(decide_machine(pid as u32, cpu, pr, val, mode)),
            );
        }
        k
    }

    fn check_agreement(k: &Kernel<MultiMem>, inputs: &[Val]) -> Result<Val, String> {
        let n = k.n_processes();
        let first = k
            .output(ProcessId(0))
            .ok_or_else(|| "p0 returned ⊥".to_string())?;
        for pid in 0..n as u32 {
            match k.output(ProcessId(pid)) {
                Some(v) if v == first => {}
                Some(v) => return Err(format!("disagreement: p{pid} got {v}, p0 got {first}")),
                None => return Err(format!("p{pid} returned ⊥")),
            }
        }
        if !inputs.contains(&first) {
            return Err(format!("invalid decision {first}"));
        }
        Ok(first)
    }

    #[test]
    fn single_process_decides_own_value() {
        let mut k = kernel(SystemSpec::hybrid(64), 1, 1, 1, &[(0, 1, 42)], LocalMode::Modeled);
        k.run(&mut RoundRobin::new(), 100_000);
        assert!(k.all_finished());
        assert_eq!(k.output(ProcessId(0)), Some(42));
    }

    /// Sweep the whole (P, C) triangle of Table 1's upper-bound column with
    /// fair scheduling and a generous quantum: agreement must always hold.
    #[test]
    fn agreement_across_p_c_grid_fair() {
        for p in 1..=3u32 {
            for c in p..=2 * p {
                let mut procs = Vec::new();
                let mut val = 1;
                for cpu in 0..p {
                    for pr in 1..=2u32 {
                        procs.push((cpu, pr, val));
                        val += 1;
                    }
                }
                let inputs: Vec<Val> = procs.iter().map(|&(_, _, x)| x).collect();
                let mut k =
                    kernel(SystemSpec::hybrid(64), p, c, 2, &procs, LocalMode::Modeled);
                k.run(&mut RoundRobin::new(), 10_000_000);
                assert!(k.all_finished(), "P={p} C={c} did not finish");
                check_agreement(&k, &inputs).unwrap_or_else(|e| panic!("P={p} C={c}: {e}"));
            }
        }
    }

    #[test]
    fn agreement_random_schedules_many_seeds() {
        for seed in 0..60 {
            let procs = [(0, 1, 10), (0, 2, 20), (1, 1, 30), (1, 1, 40), (1, 2, 50)];
            let inputs = [10, 20, 30, 40, 50];
            let mut k = kernel(
                SystemSpec::hybrid(64).with_adversarial_alignment(),
                2,
                3,
                2,
                &procs,
                LocalMode::Modeled,
            );
            k.run(&mut SeededRandom::new(seed), 10_000_000);
            assert!(k.all_finished(), "seed {seed} did not finish");
            check_agreement(&k, &inputs).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    /// The port discipline caps every C-consensus object at C invocations.
    #[test]
    fn consensus_objects_never_exhausted() {
        for seed in 0..40 {
            let procs = [(0, 1, 1), (0, 1, 2), (1, 1, 3), (1, 2, 4)];
            let mut k = kernel(
                SystemSpec::hybrid(64).with_adversarial_alignment(),
                2,
                3,
                2,
                &procs,
                LocalMode::Modeled,
            );
            k.run(&mut SeededRandom::new(seed), 10_000_000);
            assert!(k.all_finished());
            let c = k.mem.layout.c();
            for (lvl, o) in k.mem.cons.iter().enumerate().skip(1) {
                assert!(
                    o.invocations() <= c,
                    "seed {seed}: level {lvl} invoked {} > C = {c}",
                    o.invocations()
                );
            }
        }
    }

    /// Theorem 4's complexity claim: polynomial (here: explicitly bounded)
    /// work per process, across adversarial random schedules.
    #[test]
    fn wait_free_step_bound() {
        let mut max_steps = 0;
        for seed in 0..40 {
            let procs = [(0, 1, 1), (0, 2, 2), (1, 1, 3), (1, 2, 4)];
            let mut k = kernel(
                SystemSpec::hybrid(64).with_adversarial_alignment(),
                2,
                2,
                2,
                &procs,
                LocalMode::Modeled,
            );
            k.run(&mut SeededRandom::new(seed), 10_000_000);
            assert!(k.all_finished());
            for pid in 0..4u32 {
                max_steps = max_steps.max(k.stats(ProcessId(pid)).own_steps);
            }
        }
        // L = 21 for (P=2, K=0, M=2); with ~8 counted statements per
        // iteration and ≤ 2L iterations the bound below is generous but
        // fixed — wait-freedom is an absolute cap, not an expectation.
        assert!(max_steps <= 2_000, "own-step bound blown: {max_steps}");
    }

    /// Lemmas 2 and 3 hold on every adversarial run with an adequate
    /// quantum, and a deciding level exists.
    #[test]
    fn access_failure_lemmas_hold() {
        for seed in 0..60 {
            let procs = [(0, 1, 1), (0, 1, 2), (0, 2, 3), (1, 1, 4), (1, 1, 5), (1, 2, 6)];
            let mut k = kernel(
                SystemSpec::hybrid(64).with_adversarial_alignment(),
                2,
                3,
                2,
                &procs,
                LocalMode::Modeled,
            );
            k.run(&mut SeededRandom::new(seed), 10_000_000);
            assert!(k.all_finished());
            let s = summarize(&k.mem);
            assert!(lemma2_holds(&k.mem), "seed {seed}: Lemma 2 violated: {s:?}");
            assert!(lemma3_bound_holds(&k.mem), "seed {seed}: Lemma 3 violated: {s:?}");
            assert!(
                deciding_level_exists(&k.mem),
                "seed {seed}: no deciding level: {s:?}"
            );
        }
    }

    /// Ablation (DESIGN.md §6.2): the fully expanded Fig. 3 port elections
    /// behave identically to the modeled-atomic ones when Q respects the
    /// Theorem 1 bound.
    #[test]
    fn expanded_local_mode_agrees() {
        for seed in 0..40 {
            let procs = [(0, 1, 10), (0, 1, 20), (1, 1, 30), (1, 2, 40)];
            let inputs = [10, 20, 30, 40];
            let mut k = kernel(
                SystemSpec::hybrid(64).with_adversarial_alignment(),
                2,
                3,
                2,
                &procs,
                LocalMode::Expanded,
            );
            k.run(&mut SeededRandom::new(seed), 20_000_000);
            assert!(k.all_finished(), "seed {seed} did not finish");
            check_agreement(&k, &inputs)
                .unwrap_or_else(|e| panic!("expanded mode, seed {seed}: {e}"));
        }
    }

    /// Degenerations: pure priority scheduling (distinct priorities
    /// everywhere) and pure quantum scheduling (one level) both stay
    /// correct — the paper's "resilient to the specific type of scheduler"
    /// property.
    #[test]
    fn degenerations_pure_priority_and_pure_quantum() {
        for seed in 0..30 {
            // Pure priority: one process per (cpu, level).
            let procs = [(0, 1, 1), (0, 2, 2), (1, 1, 3), (1, 2, 4)];
            let mut k = kernel(SystemSpec::pure_priority(), 2, 3, 2, &procs, LocalMode::Modeled);
            k.run(&mut SeededRandom::new(seed), 10_000_000);
            assert!(k.all_finished());
            check_agreement(&k, &[1, 2, 3, 4])
                .unwrap_or_else(|e| panic!("pure-priority seed {seed}: {e}"));

            // Pure quantum: everyone at level 1.
            let procs = [(0, 1, 1), (0, 1, 2), (1, 1, 3), (1, 1, 4)];
            let mut k = kernel(
                SystemSpec::pure_quantum(64).with_adversarial_alignment(),
                2,
                3,
                1,
                &procs,
                LocalMode::Modeled,
            );
            k.run(&mut SeededRandom::new(seed), 10_000_000);
            assert!(k.all_finished());
            check_agreement(&k, &[1, 2, 3, 4])
                .unwrap_or_else(|e| panic!("pure-quantum seed {seed}: {e}"));
        }
    }

    /// Lower-priority progress is merged at startup (lines 5–13): a process
    /// arriving after lower-priority processes decided returns their value.
    #[test]
    fn late_higher_priority_process_adopts_decision() {
        let procs = [(0, 1, 7)];
        let k = kernel(SystemSpec::hybrid(64), 1, 1, 2, &procs, LocalMode::Modeled);
        // Note: kernel() sized M from procs; rebuild with room for the
        // latecomer.
        let layout = PortLayout::new(1, 1, 2);
        let mem = MultiMem::new(layout, 2, &[1, 2], &[0, 0]);
        let mut k2 = Kernel::new(mem, SystemSpec::hybrid(64));
        k2.add_process(
            ProcessorId(0),
            Priority(1),
            Box::new(decide_machine(0, 0, 1, 7, LocalMode::Modeled)),
        );
        let hi = k2.add_held_process(
            ProcessorId(0),
            Priority(2),
            Box::new(decide_machine(1, 0, 2, 9, LocalMode::Modeled)),
        );
        let mut d = RoundRobin::new();
        k2.run(&mut d, 1_000_000); // low-priority process decides 7
        assert_eq!(k2.output(ProcessId(0)), Some(7));
        k2.release(hi);
        k2.run(&mut d, 1_000_000);
        assert!(k2.all_finished());
        assert_eq!(k2.output(hi), Some(7), "latecomer must adopt the decision");
        drop(k);
    }

    /// A mid-operation arrival of a higher-priority process preempts
    /// immediately (Axiom 1); the preempted process still agrees.
    #[test]
    fn preemption_by_late_higher_priority() {
        for release_at in [1u64, 5, 10, 20, 40, 80] {
            let layout = PortLayout::new(2, 3, 2);
            let mem = MultiMem::new(layout, 2, &[1, 2, 1], &[0, 0, 1]);
            let mut k = Kernel::new(mem, SystemSpec::hybrid(64));
            k.add_process(
                ProcessorId(0),
                Priority(1),
                Box::new(decide_machine(0, 0, 1, 10, LocalMode::Modeled)),
            );
            let hi = k.add_held_process(
                ProcessorId(0),
                Priority(2),
                Box::new(decide_machine(1, 0, 2, 20, LocalMode::Modeled)),
            );
            k.add_process(
                ProcessorId(1),
                Priority(1),
                Box::new(decide_machine(2, 1, 1, 30, LocalMode::Modeled)),
            );
            let mut d = RoundRobin::new();
            for _ in 0..release_at {
                k.step(&mut d);
            }
            k.release(hi);
            k.run(&mut d, 10_000_000);
            assert!(k.all_finished(), "release_at {release_at}");
            check_agreement(&k, &[10, 20, 30])
                .unwrap_or_else(|e| panic!("release_at {release_at}: {e}"));
        }
    }
}

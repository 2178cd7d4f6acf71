//! Fig. 8: the consensus-level / port layout of the multiprocessor
//! algorithm.
//!
//! The Fig. 7 algorithm arranges `L` *consensus levels*, each backed by one
//! `C`-consensus object with `C = P + K` (`0 ≤ K ≤ P`). A process may
//! invoke a level's object only through a *port*: processors `1..=K` own
//! two ports per level, processors `K+1..=P` own one — `P + K = C` ports
//! in total, so the object is never invoked more than `C` times.
//!
//! On each processor, ports are numbered consecutively across levels
//! starting at 1, so the level a port belongs to is
//! `((port − 1) div numports) + 1`.
//!
//! The number of levels is chosen so a *deciding level* (one with no access
//! failure on any processor) is guaranteed to exist (Lemma 3):
//!
//! ```text
//! L = (K + 1)·M·(1 + P − K) + (P − K)²·M + 1
//! ```
//!
//! where `M` bounds the number of processes per processor.

use core::fmt;

/// The level/port geometry for a Fig. 7 instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PortLayout {
    /// Number of processors `P`.
    pub p: u32,
    /// `K = C − P` (number of processors with two ports per level).
    pub k: u32,
    /// Maximum processes per processor `M`.
    pub m: u32,
    /// Number of consensus levels `L`.
    pub l: u32,
}

impl PortLayout {
    /// Builds the layout for `P` processors, `C`-consensus objects, and at
    /// most `M` processes per processor.
    ///
    /// `C` is clamped to `2P`: for stronger objects the `C = 2P` algorithm
    /// applies unchanged (the paper, Sec. 4.2).
    ///
    /// # Panics
    ///
    /// Panics if `C < P` (universality is impossible below `P` by
    /// Herlihy's hierarchy), or if `P == 0` or `M == 0`.
    pub fn new(p: u32, c: u32, m: u32) -> Self {
        assert!(p > 0, "at least one processor");
        assert!(m > 0, "at least one process per processor");
        assert!(c >= p, "an object with consensus number C < P cannot be universal");
        let k = c.min(2 * p) - p;
        let l = (k + 1) * m * (1 + p - k) + (p - k) * (p - k) * m + 1;
        PortLayout { p, k, m, l }
    }

    /// The consensus number `C = P + K` actually used.
    pub fn c(&self) -> u32 {
        self.p + self.k
    }

    /// The number of consensus levels `L`.
    pub fn levels(&self) -> u32 {
        self.l
    }

    /// Ports per level on `cpu` (0-based): 2 on processors `0..K`, 1 on
    /// `K..P`.
    pub fn ports_per_level(&self, cpu: u32) -> u32 {
        assert!(cpu < self.p, "no such processor");
        if cpu < self.k {
            2
        } else {
            1
        }
    }

    /// The level (1-based) a port number (1-based) on `cpu` belongs to.
    /// Overshoot ports (beyond level `L`) map to levels `> L`, which the
    /// algorithm's `while level ≤ L` guard filters out.
    pub fn level_of_port(&self, cpu: u32, port: u32) -> u32 {
        assert!(port >= 1, "ports are numbered from 1");
        (port - 1) / self.ports_per_level(cpu) + 1
    }

    /// Total ports per level across all processors — always `C`, so a
    /// level's `C`-consensus object is never exhausted by port holders.
    pub fn total_ports_per_level(&self) -> u32 {
        2 * self.k + (self.p - self.k)
    }
}

impl fmt::Display for PortLayout {
    /// Renders the Fig. 8 diagram: levels stacked, ports per processor.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 8 layout: P = {}, C = {} (K = {}), M = {}, L = {} levels",
            self.p,
            self.c(),
            self.k,
            self.m,
            self.l
        )?;
        writeln!(
            f,
            "processors 1..{}: 2 ports/level   processors {}..{}: 1 port/level",
            self.k,
            self.k + 1,
            self.p
        )?;
        let show = self.l.min(4);
        for lvl in 1..=show {
            write!(f, "level {lvl:>3}: ")?;
            for cpu in 0..self.p {
                let ports = self.ports_per_level(cpu);
                write!(f, "[cpu{cpu}: ")?;
                for q in 0..ports {
                    let port = (lvl - 1) * ports + q + 1;
                    write!(f, "p{port} ")?;
                }
                write!(f, "] ")?;
            }
            writeln!(f, "  ← a {}-consensus object", self.c())?;
        }
        if self.l > show {
            writeln!(f, "   ⋮ ({} more levels)", self.l - show)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_formula_for_l() {
        // C = 2P (K = P): L = (P+1)·M + 1.
        let l = PortLayout::new(4, 8, 3);
        assert_eq!(l.levels(), (4 + 1) * 3 + 1);
        // C = P (K = 0): L = M(1+P) + P²M + 1.
        let l = PortLayout::new(4, 4, 3);
        assert_eq!(l.levels(), 3 * 5 + 16 * 3 + 1);
        // Intermediate: P = 3, C = 4 (K = 1), M = 2:
        // L = 2·2·(1+2) + 4·2 + 1 = 12 + 8 + 1 = 21.
        let l = PortLayout::new(3, 4, 2);
        assert_eq!(l.levels(), 21);
    }

    #[test]
    fn c_above_2p_is_clamped() {
        let l = PortLayout::new(2, 100, 1);
        assert_eq!(l.c(), 4);
        assert_eq!(l.k, 2);
    }

    #[test]
    fn ports_per_level_split() {
        let l = PortLayout::new(4, 6, 1); // K = 2
        assert_eq!(l.ports_per_level(0), 2);
        assert_eq!(l.ports_per_level(1), 2);
        assert_eq!(l.ports_per_level(2), 1);
        assert_eq!(l.ports_per_level(3), 1);
        assert_eq!(l.total_ports_per_level(), 6);
    }

    #[test]
    fn total_ports_equal_c() {
        for p in 1..=5 {
            for c in p..=2 * p {
                let l = PortLayout::new(p, c, 2);
                assert_eq!(l.total_ports_per_level(), c, "P={p} C={c}");
            }
        }
    }

    #[test]
    fn level_of_port_math() {
        let l = PortLayout::new(2, 3, 1); // cpu0: 2 ports, cpu1: 1 port
        assert_eq!(l.level_of_port(0, 1), 1);
        assert_eq!(l.level_of_port(0, 2), 1);
        assert_eq!(l.level_of_port(0, 3), 2);
        assert_eq!(l.level_of_port(0, 4), 2);
        assert_eq!(l.level_of_port(1, 1), 1);
        assert_eq!(l.level_of_port(1, 2), 2);
    }

    #[test]
    #[should_panic(expected = "cannot be universal")]
    fn c_below_p_rejected() {
        let _ = PortLayout::new(4, 3, 1);
    }

    #[test]
    fn display_renders_diagram() {
        let s = PortLayout::new(3, 4, 2).to_string();
        assert!(s.contains("Fig. 8 layout"));
        assert!(s.contains("level   1"));
        assert!(s.contains("4-consensus object"));
    }
}

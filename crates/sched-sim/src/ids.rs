//! Identifier newtypes for processes, processors, and priorities.

use core::fmt;

/// Identifies a process. Processes are numbered from 0 in creation order;
/// the paper's `p`, `q`, `r` range over these.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(pub u32);

impl ProcessId {
    /// The process id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Identifies a processor. The paper labels processors `1..P`; here they are
/// numbered from 0.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessorId(pub u32);

impl ProcessorId {
    /// The processor id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProcessorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

/// A scheduling priority. Larger values are *higher* priority, matching the
/// paper's convention that levels range over `1..V` with `V` highest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Priority(pub u32);

impl Priority {
    /// The priority as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "prio{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_orders_numerically() {
        assert!(Priority(3) > Priority(1));
        assert!(Priority(0) < Priority(1));
    }

    #[test]
    fn display_forms() {
        assert_eq!(ProcessId(2).to_string(), "p2");
        assert_eq!(ProcessorId(0).to_string(), "cpu0");
        assert_eq!(Priority(5).to_string(), "prio5");
    }

    #[test]
    fn ids_index() {
        assert_eq!(ProcessId(7).index(), 7);
        assert_eq!(ProcessorId(3).index(), 3);
    }
}

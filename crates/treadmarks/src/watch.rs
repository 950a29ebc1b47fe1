//! The wait board: what every thread of a run is currently blocked on.
//!
//! Each run keeps one board with one slot per processor, for its compute
//! thread — the only thread a processor has; it also serves other nodes'
//! requests when it sends them one. A thread publishes a label before
//! parking in a blocking receive (or while it is inside another node's
//! handlers) and clears it when it moves on, so when the watchdog fires the
//! panic message can show the whole cluster's wait state at once: exactly
//! the information needed to read a protocol deadlock from a failing test.

use dsm_core::sync::Mutex;

use crate::types::ProcId;

/// What a thread is blocked on: a fixed text, the node whose requests it
/// serves, or the SPMD once-cell another processor is building. The last two
/// are rendered only when read, so waiting allocates nothing to say so.
#[derive(Debug)]
pub(crate) enum Label {
    Text(&'static str),
    Serving(ProcId),
    Once(usize),
}

/// One label slot per thread of the run.
#[derive(Debug)]
pub(crate) struct WaitBoard {
    /// Slot `p` is processor `p`'s thread. `None` means the thread is
    /// running, not waiting.
    slots: Vec<Mutex<Option<Label>>>,
}

impl WaitBoard {
    pub(crate) fn new(nprocs: usize) -> WaitBoard {
        WaitBoard { slots: (0..nprocs).map(|_| Mutex::new(None)).collect() }
    }

    /// Publishes what `proc`'s thread is about to block on, returning the
    /// label it replaces.
    pub(crate) fn wait(&self, proc: ProcId, label: Label) -> Option<Label> {
        self.slots[proc].lock().replace(label)
    }

    /// Puts back the label a [`wait`](Self::wait) replaced: `None` clears
    /// `proc`'s slot — the thread is running again.
    pub(crate) fn restore(&self, proc: ProcId, label: Option<Label>) {
        *self.slots[proc].lock() = label;
    }

    /// Clears `proc`'s slot: the thread is running again.
    pub(crate) fn done(&self, proc: ProcId) {
        self.restore(proc, None);
    }

    /// The current label of `proc`'s thread, if it is blocked.
    pub(crate) fn label(&self, proc: ProcId) -> Option<String> {
        self.slots[proc].lock().as_ref().map(|label| match label {
            Label::Text(text) => text.to_string(),
            Label::Serving(node) => format!("serving P{node}'s requests"),
            Label::Once(k) => format!("SPMD once-cell #{k} (initialising on another processor)"),
        })
    }

    /// Renders the whole cluster's wait state, one line per thread, for the
    /// watchdog panic message.
    pub(crate) fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("cluster wait state:");
        for proc in 0..self.slots.len() {
            let state = self.label(proc).unwrap_or_else(|| String::from("running"));
            let _ = write!(out, "\n  P{proc} compute: {state}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_set_clear_and_dump() {
        let board = WaitBoard::new(2);
        assert_eq!(board.label(0), None);
        board.wait(0, Label::Text("a lock grant for lock 3"));
        let outer = board.wait(1, Label::Serving(0));
        assert_eq!(board.label(0).as_deref(), Some("a lock grant for lock 3"));
        let dump = board.dump();
        assert!(dump.contains("P0 compute: a lock grant for lock 3"), "{dump}");
        assert!(dump.contains("P1 compute: serving P0's requests"), "{dump}");
        board.restore(1, outer);
        assert!(board.dump().contains("P1 compute: running"));
        board.done(0);
        assert_eq!(board.label(0), None);
        assert!(board.dump().contains("P0 compute: running"));
    }
}

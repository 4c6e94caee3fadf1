//! The watchdog service: server health (§5.1, §6.1).
//!
//! Severe losses caused by sick pingers/responders (a server down or
//! rebooting mid-window) would flood the diagnoser with false alarms; the
//! management plane flags such servers, and the watchdog holds its marks
//! so the controller stops using them as pingers and the diagnoser
//! excludes their reports. Health comes from those marks alone: a report
//! that lost every probe is not one, since it usually means the rack's
//! uplink or ToR failed — exactly what the diagnoser must see.

use std::collections::HashSet;

use detector_core::types::NodeId;

/// The set of servers the management plane has marked unhealthy.
#[derive(Clone, Debug, Default)]
pub struct Watchdog {
    unhealthy: HashSet<NodeId>,
}

impl Watchdog {
    /// A watchdog with every server healthy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Externally marks a server unhealthy (management-plane signal).
    pub fn mark_unhealthy(&mut self, server: NodeId) {
        self.unhealthy.insert(server);
    }

    /// Externally clears a server.
    pub fn mark_healthy(&mut self, server: NodeId) {
        self.unhealthy.remove(&server);
    }

    /// Is the server currently considered healthy?
    pub fn is_healthy(&self, server: NodeId) -> bool {
        !self.unhealthy.contains(&server)
    }

    /// The current unhealthy set (for the controller).
    pub fn unhealthy_set(&self) -> &HashSet<NodeId> {
        &self.unhealthy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn external_marks_override() {
        let mut w = Watchdog::new();
        w.mark_unhealthy(NodeId(5));
        assert!(!w.is_healthy(NodeId(5)));
        w.mark_healthy(NodeId(5));
        assert!(w.is_healthy(NodeId(5)));
    }
}

//! The watchdog service: server health tracking (§5.1, §6.1).
//!
//! Severe losses caused by sick pingers/responders (a server down or
//! rebooting mid-window) would flood the diagnoser with false alarms; the
//! watchdog flags such servers so the controller stops using them as
//! pingers and the diagnoser excludes their reports.

use std::collections::{HashMap, HashSet};

use detector_core::types::NodeId;

use crate::report::PingerReport;

/// Tracks server health from external signals and report anomalies.
#[derive(Clone, Debug, Default)]
pub struct Watchdog {
    unhealthy: HashSet<NodeId>,
    /// Consecutive all-lost windows per pinger.
    strikes: HashMap<NodeId, u32>,
    /// Windows of total loss before a pinger is declared sick.
    pub strike_limit: u32,
}

impl Watchdog {
    /// A watchdog with the default 2-window strike limit.
    pub fn new() -> Self {
        Self {
            strike_limit: 2,
            ..Default::default()
        }
    }

    /// Externally marks a server unhealthy (management-plane signal).
    pub fn mark_unhealthy(&mut self, server: NodeId) {
        self.unhealthy.insert(server);
    }

    /// Externally clears a server.
    pub fn mark_healthy(&mut self, server: NodeId) {
        self.unhealthy.remove(&server);
        self.strikes.remove(&server);
    }

    /// Is the server currently considered healthy?
    pub fn is_healthy(&self, server: NodeId) -> bool {
        !self.unhealthy.contains(&server)
    }

    /// The current unhealthy set (for the controller).
    pub fn unhealthy_set(&self) -> &HashSet<NodeId> {
        &self.unhealthy
    }

    /// Feeds one pinger report: a pinger whose probes *all* fail for
    /// `strike_limit` consecutive windows is flagged — losing every probe
    /// on every path points at the server, not the network.
    pub fn observe(&mut self, report: &PingerReport) {
        if report.all_lost() {
            let s = self.strikes.entry(report.pinger).or_insert(0);
            *s += 1;
            if *s >= self.strike_limit {
                self.unhealthy.insert(report.pinger);
            }
        } else {
            self.strikes.remove(&report.pinger);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::PathCounters;
    use detector_core::types::PathId;

    fn report(pinger: u32, lost_all: bool) -> PingerReport {
        let counters = PathCounters {
            sent: 10,
            lost: if lost_all { 10 } else { 1 },
        };
        PingerReport {
            pinger: NodeId(pinger),
            window: 0,
            paths: vec![(PathId(0), counters)],
            ..Default::default()
        }
    }

    #[test]
    fn two_all_lost_windows_flag_the_pinger() {
        let mut w = Watchdog::new();
        w.observe(&report(1, true));
        assert!(w.is_healthy(NodeId(1)));
        w.observe(&report(1, true));
        assert!(!w.is_healthy(NodeId(1)));
    }

    #[test]
    fn a_good_window_resets_strikes() {
        let mut w = Watchdog::new();
        w.observe(&report(1, true));
        w.observe(&report(1, false));
        w.observe(&report(1, true));
        assert!(w.is_healthy(NodeId(1)));
    }

    #[test]
    fn external_marks_override() {
        let mut w = Watchdog::new();
        w.mark_unhealthy(NodeId(5));
        assert!(!w.is_healthy(NodeId(5)));
        w.mark_healthy(NodeId(5));
        assert!(w.is_healthy(NodeId(5)));
    }
}

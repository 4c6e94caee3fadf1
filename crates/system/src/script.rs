//! Windowed scripts: what a scenario does to a run, and before which
//! window.
//!
//! One container, [`Windowed`], serves every driver: the single-process
//! drivers consume a [`Script`] of [`ScriptAction`]s, the distributed
//! controller a script of its own action type (the same verbs plus agent
//! crashes). Window indices are **relative to the start of the run**
//! (0 = before the first window of the run).

use detector_core::types::NodeId;
use detector_topology::TopologyEvent;

/// One scripted action, applied at the start of its window (before that
/// window's probes are dispatched), in push order within the window.
#[derive(Clone, Debug, PartialEq)]
pub enum ScriptAction {
    /// Apply a topology event through the incremental re-planner (what
    /// [`Detector::apply`](crate::Detector::apply) does between
    /// sequential windows).
    Topology(TopologyEvent),
    /// Mark a server unhealthy (management-plane watchdog signal): it is
    /// dropped from pinger duty and its reports are excluded.
    MarkUnhealthy(NodeId),
    /// Clear a server's unhealthy mark.
    MarkHealthy(NodeId),
}

/// Actions keyed by the window they fire before, sorted by window and in
/// push order within one.
#[derive(Clone, Debug, PartialEq)]
pub struct Windowed<A> {
    actions: Vec<(u64, A)>,
}

/// A windowed script of runtime actions — churn and pinger failures —
/// consumed by [`Detector::run_scripted`](crate::Detector::run_scripted)
/// (the sequential oracle) and
/// [`Detector::run_pipelined`](crate::Detector::run_pipelined) alike.
pub type Script = Windowed<ScriptAction>;

impl<A> Default for Windowed<A> {
    fn default() -> Self {
        Self {
            actions: Vec::new(),
        }
    }
}

impl<A> Windowed<A> {
    /// An empty script.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an action firing before `window` (builder style). Actions
    /// pushed for the same window keep their push order.
    pub fn at(mut self, window: u64, action: A) -> Self {
        let end = self.actions.partition_point(|(w, _)| *w <= window);
        self.actions.insert(end, (window, action));
        self
    }

    /// The actions due before the run's `window`-th window.
    pub fn due(&self, window: u64) -> impl Iterator<Item = &A> {
        let start = self.actions.partition_point(|(w, _)| *w < window);
        self.actions
            .iter()
            .skip(start)
            .take_while(move |(w, _)| *w == window)
            .map(|(_, a)| a)
    }

    /// Every `(window, action)` pair, in firing order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &A)> {
        self.actions.iter().map(|(w, a)| (*w, a))
    }

    /// Total number of scripted actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// True when no action is scripted.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }
}

impl<A: From<ScriptAction>> Windowed<A> {
    /// Adds a topology event firing before `window`.
    pub fn topology(self, window: u64, event: TopologyEvent) -> Self {
        self.at(window, ScriptAction::Topology(event).into())
    }

    /// Marks `server` unhealthy before `window`.
    pub fn mark_unhealthy(self, window: u64, server: NodeId) -> Self {
        self.at(window, ScriptAction::MarkUnhealthy(server).into())
    }

    /// Clears `server`'s unhealthy mark before `window`.
    pub fn mark_healthy(self, window: u64, server: NodeId) -> Self {
        self.at(window, ScriptAction::MarkHealthy(server).into())
    }

    /// Builds a script from `(window, TopologyEvent)` pairs — e.g. the
    /// entries of a `detector_simnet::ChurnSchedule`.
    pub fn from_topology_events(events: impl IntoIterator<Item = (u64, TopologyEvent)>) -> Self {
        events
            .into_iter()
            .fold(Self::new(), |s, (w, ev)| s.topology(w, ev))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detector_core::types::LinkId;

    #[test]
    fn script_orders_actions_within_a_window() {
        let link = LinkId(4);
        let s = Script::new()
            .topology(2, TopologyEvent::LinkUp { link })
            .topology(0, TopologyEvent::LinkDown { link })
            .mark_unhealthy(2, NodeId(9))
            .mark_healthy(5, NodeId(9));
        assert_eq!(s.len(), 4);
        let due: Vec<_> = s.due(2).collect();
        assert_eq!(
            due,
            vec![
                &ScriptAction::Topology(TopologyEvent::LinkUp { link }),
                &ScriptAction::MarkUnhealthy(NodeId(9)),
            ]
        );
        let per_window: Vec<usize> = (0..7).map(|w| s.due(w).count()).collect();
        assert_eq!(per_window, vec![1, 0, 2, 0, 0, 1, 0]);
    }
}

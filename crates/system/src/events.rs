//! The runtime's event stream: typed window-lifecycle events and the
//! pluggable sinks that consume them.
//!
//! Every [`Detector::step`](crate::Detector::step) emits a totally
//! ordered sequence of [`RuntimeEvent`]s — `WindowStarted` first,
//! `DiagnosisReady` last, with cycle refreshes, per-pinger report
//! ingestions, health exclusions and the window's counters in between.
//! Sinks registered on the builder observe every event; the pipelined
//! scheduler ([`Detector::run_pipelined`](crate::Detector::run_pipelined))
//! emits the same totally ordered stream from its diagnosis stage, and
//! external report consumers (like the paper's HTTP POST receivers in
//! §6.1) plug in here too.

use std::sync::{Arc, Mutex};

use detector_core::json::{Json, ToJson};
use detector_core::pll::Diagnosis;
use detector_core::types::NodeId;

use crate::controller::PlanUpdate;

/// Outcome of one 30-second window — the payload of
/// [`RuntimeEvent::DiagnosisReady`] and the return value of
/// [`Detector::step`](crate::Detector::step).
#[derive(Clone, Debug, PartialEq)]
pub struct WindowResult {
    /// Window index.
    pub window: u64,
    /// Simulated start time of the window, seconds.
    pub start_s: u64,
    /// Probes sent across all pingers this window (detection probes,
    /// including loss confirmations).
    pub probes_sent: u64,
    /// Number of aggregated path observations.
    pub num_observations: usize,
    /// The PLL diagnosis for the window.
    pub diagnosis: Diagnosis,
}

impl ToJson for WindowResult {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("window", Json::uint(self.window)),
            ("start_s", Json::uint(self.start_s)),
            ("probes_sent", Json::uint(self.probes_sent)),
            ("num_observations", Json::uint(self.num_observations as u64)),
            ("diagnosis", self.diagnosis.to_json()),
        ])
    }
}

/// One typed event in a window's lifecycle, in emission order.
#[derive(Clone, Debug, PartialEq)]
pub enum RuntimeEvent {
    /// A reporting window opened.
    WindowStarted {
        /// Window index.
        window: u64,
        /// Simulated start time, seconds.
        start_s: u64,
    },
    /// The controller recomputed the probe matrix and pinglists (§6.1's
    /// 10-minute cycle). Fires exactly on cycle boundaries.
    CycleRefreshed {
        /// Window in which the refresh happened.
        window: u64,
        /// New deployment version.
        version: u64,
        /// Paths in the refreshed probe matrix.
        num_paths: usize,
    },
    /// A pinger was excluded from this window by the watchdog.
    PingerUnhealthy {
        /// Window index.
        window: u64,
        /// The excluded pinger server.
        pinger: NodeId,
    },
    /// One pinger's window report was ingested by the diagnoser (the
    /// HTTP POST of §6.1).
    ReportIngested {
        /// Window index.
        window: u64,
        /// Reporting pinger.
        pinger: NodeId,
        /// Probes this pinger sent (including loss confirmations).
        probes_sent: u64,
        /// Matrix paths the report carries counters for.
        num_paths: usize,
    },
    /// The window's counters, read off the diagnoser once it has
    /// aggregated and localized the window: one walk of its filed
    /// reports, excluded pingers skipped, summed per path, then one
    /// greedy per component. Deterministic (a pure function of the
    /// aggregated windows and the probe plans so far), so equivalence
    /// harnesses compare it un-normalized. Emitted after the last
    /// report/health event of the window, directly before
    /// [`DiagnosisReady`](RuntimeEvent::DiagnosisReady).
    WindowCounters {
        /// Window index.
        window: u64,
        /// Pinger reports aggregated (excluded pingers' not counted; a
        /// crashed agent's are never filed).
        reports: u64,
        /// Observed paths with losses above the noise filters.
        lossy_paths: u64,
        /// Connected components of the lossy incidence — the window's
        /// independent PLL subproblems, one greedy each. Zero for an
        /// all-healthy window.
        components: u64,
        /// Components whose greedy ran: the ones the window changed (all
        /// of them after a new matrix), zero on a repeated window.
        components_solved: u64,
    },
    /// The diagnoser ran PLL over the window's aggregated observations.
    /// Always the last event of a window.
    DiagnosisReady(WindowResult),
    /// A [`TopologyEvent`](detector_topology::TopologyEvent) was applied
    /// between windows and the probe plan was incrementally patched
    /// ([`Detector::apply`](crate::Detector::apply)).
    PlanUpdated(PlanUpdate),
}

/// `record`'s fields behind an `"event"` tag.
fn tagged(event: &str, record: Json) -> Json {
    let mut fields = vec![("event".to_string(), Json::Str(event.into()))];
    if let Json::Object(inner) = record {
        fields.extend(inner);
    }
    Json::Object(fields)
}

impl ToJson for RuntimeEvent {
    fn to_json(&self) -> Json {
        match self {
            RuntimeEvent::WindowStarted { window, start_s } => Json::obj(vec![
                ("event", Json::Str("window_started".into())),
                ("window", Json::uint(*window)),
                ("start_s", Json::uint(*start_s)),
            ]),
            RuntimeEvent::CycleRefreshed {
                window,
                version,
                num_paths,
            } => Json::obj(vec![
                ("event", Json::Str("cycle_refreshed".into())),
                ("window", Json::uint(*window)),
                ("version", Json::uint(*version)),
                ("num_paths", Json::uint(*num_paths as u64)),
            ]),
            RuntimeEvent::PingerUnhealthy { window, pinger } => Json::obj(vec![
                ("event", Json::Str("pinger_unhealthy".into())),
                ("window", Json::uint(*window)),
                ("pinger", Json::uint(pinger.0 as u64)),
            ]),
            RuntimeEvent::ReportIngested {
                window,
                pinger,
                probes_sent,
                num_paths,
            } => Json::obj(vec![
                ("event", Json::Str("report_ingested".into())),
                ("window", Json::uint(*window)),
                ("pinger", Json::uint(pinger.0 as u64)),
                ("probes_sent", Json::uint(*probes_sent)),
                ("num_paths", Json::uint(*num_paths as u64)),
            ]),
            RuntimeEvent::WindowCounters {
                window,
                reports,
                lossy_paths,
                components,
                components_solved,
            } => Json::obj(vec![
                ("event", Json::Str("window_counters".into())),
                ("window", Json::uint(*window)),
                ("reports", Json::uint(*reports)),
                ("lossy_paths", Json::uint(*lossy_paths)),
                ("components", Json::uint(*components)),
                ("components_solved", Json::uint(*components_solved)),
            ]),
            RuntimeEvent::DiagnosisReady(result) => tagged("diagnosis_ready", result.to_json()),
            RuntimeEvent::PlanUpdated(update) => tagged("plan_updated", update.to_json()),
        }
    }
}

impl RuntimeEvent {
    /// This event with its execution-dependent field zeroed
    /// (`PlanUpdate::replan_micros`) — the canonical form for
    /// comparing event streams across executions, as the
    /// sequential-vs-pipelined equivalence harnesses do. If a future
    /// variant grows another timing field, zero it here and every
    /// harness stays correct.
    pub fn normalized(&self) -> RuntimeEvent {
        match self {
            RuntimeEvent::PlanUpdated(update) => RuntimeEvent::PlanUpdated(PlanUpdate {
                replan_micros: 0,
                ..*update
            }),
            other => other.clone(),
        }
    }
}

/// A consumer of the runtime's event stream.
///
/// Sinks are registered on [`DetectorBuilder::sink`](crate::DetectorBuilder::sink)
/// and invoked synchronously, in registration order, for every event.
/// Sinks must be `Send`: the pipelined scheduler
/// ([`Detector::run_pipelined`](crate::Detector::run_pipelined)) emits
/// the stream from its diagnosis-stage thread.
pub trait EventSink: Send {
    /// Observes one event. Events arrive in emission order.
    fn on_event(&mut self, event: &RuntimeEvent);
}

/// An [`EventSink`] that records every event into a shared buffer.
///
/// Cloning the sink before handing it to the builder keeps a handle to
/// the buffer, so a test (or operator tooling) can inspect the stream
/// while the detector owns the registered copy.
#[derive(Clone, Debug, Default)]
pub struct CollectingSink {
    events: Arc<Mutex<Vec<RuntimeEvent>>>,
}

impl CollectingSink {
    /// An empty collecting sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of all events recorded so far.
    ///
    /// A poisoned collector (a panic elsewhere while appending) still
    /// yields the events recorded up to that point — losing the
    /// observability feed on top of the original failure helps nobody.
    pub fn events(&self) -> Vec<RuntimeEvent> {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// True when no event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl EventSink for CollectingSink {
    fn on_event(&mut self, event: &RuntimeEvent) {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(event.clone());
    }
}

/// An [`EventSink`] that writes one JSON record per completed window.
///
/// Each [`RuntimeEvent::DiagnosisReady`] renders as a single
/// `{"event":"diagnosis_ready",...}` line — the machine-readable feed
/// the bench binaries and external dashboards consume. Intermediate
/// events are not written; use [`CollectingSink`] for full traces.
#[derive(Debug)]
pub struct JsonLinesSink<W: std::io::Write> {
    out: W,
}

impl<W: std::io::Write> JsonLinesSink<W> {
    /// A sink writing JSON lines to `out`.
    pub fn new(out: W) -> Self {
        Self { out }
    }

    /// Consumes the sink and returns the writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl JsonLinesSink<std::io::Stdout> {
    /// A sink writing JSON lines to stdout.
    pub fn stdout() -> Self {
        Self::new(std::io::stdout())
    }
}

impl<W: std::io::Write + Send> EventSink for JsonLinesSink<W> {
    fn on_event(&mut self, event: &RuntimeEvent) {
        if let RuntimeEvent::DiagnosisReady(_) = event {
            // A failed write cannot be surfaced from a sink; dropping the
            // record (like a full pipe would) beats poisoning the run.
            let _ = writeln!(self.out, "{}", event.to_json());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::DispatchStats;
    use crate::planner::ReplanStats;
    use detector_core::pll::SuspectLink;
    use detector_core::types::{LinkId, PathId};

    fn sample_result() -> WindowResult {
        WindowResult {
            window: 4,
            start_s: 120,
            probes_sent: 960,
            num_observations: 28,
            diagnosis: Diagnosis {
                suspects: vec![SuspectLink {
                    link: LinkId(7),
                    estimated_loss_rate: 0.1,
                    hit_ratio: 0.75,
                    explained_paths: 3,
                    explained_losses: 12,
                }],
                unexplained_paths: vec![PathId(5)],
            },
        }
    }

    const SAMPLE_RESULT: &str = concat!(
        r#"{"window":4,"start_s":120,"probes_sent":960,"num_observations":28,"#,
        r#""diagnosis":{"suspects":[{"link":7,"estimated_loss_rate":0.1,"hit_ratio":0.75,"#,
        r#""explained_paths":3,"explained_losses":12}],"unexplained_paths":[5]}}"#
    );

    #[test]
    fn window_result_round_trips_through_json() {
        let w = sample_result();
        let text = w.to_json().to_string();
        assert_eq!(text, SAMPLE_RESULT);
        assert_eq!(Json::parse(&text), Ok(w.to_json()));
    }

    #[test]
    fn collecting_sink_shares_its_buffer_across_clones() {
        let collector = CollectingSink::new();
        let mut registered = collector.clone();
        registered.on_event(&RuntimeEvent::WindowStarted {
            window: 0,
            start_s: 0,
        });
        assert_eq!(collector.len(), 1);
        assert!(!collector.is_empty());
    }

    /// One golden record per variant: the text a sink writes, which
    /// also parses back to the tree it was rendered from.
    #[test]
    fn runtime_events_round_trip_through_json() {
        let diagnosis_ready = format!(r#"{{"event":"diagnosis_ready",{}"#, &SAMPLE_RESULT[1..]);
        let cases = [
            (
                RuntimeEvent::WindowStarted {
                    window: 3,
                    start_s: 90,
                },
                r#"{"event":"window_started","window":3,"start_s":90}"#,
            ),
            (
                RuntimeEvent::CycleRefreshed {
                    window: 20,
                    version: 2,
                    num_paths: 64,
                },
                r#"{"event":"cycle_refreshed","window":20,"version":2,"num_paths":64}"#,
            ),
            (
                RuntimeEvent::PingerUnhealthy {
                    window: 5,
                    pinger: NodeId(17),
                },
                r#"{"event":"pinger_unhealthy","window":5,"pinger":17}"#,
            ),
            (
                RuntimeEvent::ReportIngested {
                    window: 5,
                    pinger: NodeId(17),
                    probes_sent: 960,
                    num_paths: 12,
                },
                r#"{"event":"report_ingested","window":5,"pinger":17,"probes_sent":960,"num_paths":12}"#,
            ),
            (
                RuntimeEvent::WindowCounters {
                    window: 5,
                    reports: 48,
                    lossy_paths: 12,
                    components: 3,
                    components_solved: 1,
                },
                r#"{"event":"window_counters","window":5,"reports":48,"lossy_paths":12,"components":3,"components_solved":1}"#,
            ),
            (
                RuntimeEvent::DiagnosisReady(sample_result()),
                diagnosis_ready.as_str(),
            ),
            (
                RuntimeEvent::PlanUpdated(PlanUpdate {
                    epoch: 7,
                    links_changed: 4,
                    probes_delta: -3,
                    dispatch: DispatchStats {
                        lists_redispatched: 5,
                        entries_diffed: 11,
                        bytes_dispatched: 742,
                    },
                    replan_micros: 1250,
                    stats: ReplanStats {
                        cells_resolved: 1,
                        cells_restored: 2,
                        cells_total: 16,
                        cells_rebased: 0,
                    },
                }),
                concat!(
                    r#"{"event":"plan_updated","epoch":7,"links_changed":4,"probes_delta":-3,"#,
                    r#""lists_redispatched":5,"entries_diffed":11,"bytes_dispatched":742,"replan_micros":1250,"#,
                    r#""cells_resolved":1,"cells_restored":2,"cells_total":16,"cells_rebased":0}"#
                ),
            ),
        ];
        for (ev, golden) in cases {
            let text = ev.to_json().to_string();
            assert_eq!(text, golden);
            assert_eq!(Json::parse(&text), Ok(ev.to_json()));
        }
    }

    #[test]
    fn normalized_zeroes_only_the_replan_stopwatch() {
        let update = PlanUpdate {
            epoch: 3,
            links_changed: 1,
            probes_delta: 2,
            dispatch: DispatchStats {
                lists_redispatched: 4,
                entries_diffed: 9,
                bytes_dispatched: 310,
            },
            replan_micros: 77,
            ..PlanUpdate::default()
        };
        let want = PlanUpdate {
            replan_micros: 0,
            ..update
        };
        let normalized = RuntimeEvent::PlanUpdated(update).normalized();
        assert_eq!(normalized, RuntimeEvent::PlanUpdated(want));
        let ready = RuntimeEvent::DiagnosisReady(sample_result());
        assert_eq!(ready.normalized(), ready);
    }

    #[test]
    fn json_lines_sink_writes_only_diagnosis_records() {
        let mut sink = JsonLinesSink::new(Vec::new());
        sink.on_event(&RuntimeEvent::WindowStarted {
            window: 0,
            start_s: 0,
        });
        let ready = RuntimeEvent::DiagnosisReady(sample_result());
        sink.on_event(&ready);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(text, format!("{}\n", ready.to_json()));
    }
}

//! Integration tests for the event-driven runtime API: event-ordering
//! invariants, cycle-boundary semantics, the JSON-lines sink, builder
//! validation, and a [`DataPlane`] mock driving the runtime without the
//! simulated fabric.

use std::collections::HashSet;
use std::io::Write;
use std::sync::{Arc, Mutex};

use detector::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn fattree() -> Arc<Fattree> {
    Arc::new(Fattree::new(4).unwrap())
}

/// Positions of each event kind within one window's slice of the stream.
fn kind(e: &RuntimeEvent) -> &'static str {
    match e {
        RuntimeEvent::WindowStarted { .. } => "started",
        RuntimeEvent::CycleRefreshed { .. } => "cycle",
        RuntimeEvent::PingerUnhealthy { .. } => "unhealthy",
        RuntimeEvent::ReportIngested { .. } => "report",
        RuntimeEvent::IngestStats { .. } => "ingest",
        RuntimeEvent::DiagStats { .. } => "diag",
        RuntimeEvent::DiagnosisReady(_) => "ready",
        RuntimeEvent::PlanUpdated { .. } => "plan",
    }
}

fn window_of(e: &RuntimeEvent) -> u64 {
    match e {
        RuntimeEvent::WindowStarted { window, .. }
        | RuntimeEvent::CycleRefreshed { window, .. }
        | RuntimeEvent::PingerUnhealthy { window, .. }
        | RuntimeEvent::ReportIngested { window, .. }
        | RuntimeEvent::IngestStats { window, .. }
        | RuntimeEvent::DiagStats { window, .. } => *window,
        RuntimeEvent::DiagnosisReady(w) => w.window,
        // Plan updates happen between windows, never inside a step().
        RuntimeEvent::PlanUpdated { .. } => u64::MAX,
    }
}

/// Asserts the per-window event grammar over a whole run's stream:
/// `PlanUpdated* WindowStarted CycleRefreshed? (PingerUnhealthy |
/// ReportIngested)+ IngestStats DiagStats DiagnosisReady`, for windows
/// `0..windows` in order, and nothing else.
fn assert_window_grammar(driver: &str, events: &[RuntimeEvent], windows: u64) {
    let mut rest = events.iter().peekable();
    for w in 0..windows {
        // Consumes events while they are of one of `kinds` (and, unless
        // they are plan updates, of this window); returns how many.
        let mut run_of = |kinds: &[&str]| {
            let fits = |e: &&RuntimeEvent| {
                kinds.contains(&kind(e)) && (kind(e) == "plan" || window_of(e) == w)
            };
            std::iter::from_fn(|| rest.next_if(fits)).count()
        };
        run_of(&["plan"]);
        assert_eq!(run_of(&["started"]), 1, "{driver}, window {w}: no header");
        assert!(run_of(&["cycle"]) <= 1, "{driver}, window {w}");
        let pingers = run_of(&["unhealthy", "report"]);
        assert!(pingers > 0, "{driver}, window {w}: no pinger accounted for");
        for tail in ["ingest", "diag", "ready"] {
            assert_eq!(run_of(&[tail]), 1, "{driver}, window {w}: expected {tail}");
        }
    }
    assert_eq!(rest.next(), None, "{driver}: events after the last window");
}

#[test]
fn every_window_is_bracketed_by_started_and_ready() {
    // One grammar, three schedules of the window protocol. Every run
    // sees a re-plan before window 1, cycle refreshes at windows 2 and 4,
    // and a pinger (or agent) dying before window 3 — between refreshes,
    // so it is still on the roster and surfaces as PingerUnhealthy.
    let ft = fattree();
    let windows = 5u64;
    let cfg = SystemConfig {
        cycle_s: 60,
        ..SystemConfig::default()
    };
    let fabric = Fabric::quiet(ft.as_ref());
    let down = TopologyEvent::LinkDown {
        link: ft.ea_link(0, 0, 0),
    };
    let sick = ft.server(1, 0, 0);
    let detector = |sink: &CollectingSink| {
        Detector::builder(ft.clone())
            .config(cfg.clone())
            .sink(Box::new(sink.clone()))
            .build()
            .unwrap()
    };
    let script = Script::new().topology(1, down).mark_unhealthy(3, sick);

    let sink = CollectingSink::new();
    let mut run = detector(&sink);
    let mut rng = SmallRng::seed_from_u64(1);
    for w in 0..windows {
        match w {
            1 => drop(run.apply(&down).unwrap()),
            3 => run.watchdog.mark_unhealthy(sick),
            _ => {}
        }
        run.step(&fabric, &mut rng);
    }
    assert_window_grammar("step", &sink.events(), windows);
    let stepped = sink.events().len();

    for depth in [1, 3] {
        let sink = CollectingSink::new();
        let pipeline = PipelineConfig {
            probe_workers: 2,
            depth,
        };
        detector(&sink)
            .run_pipelined(
                &fabric,
                windows,
                &script,
                &pipeline,
                &mut SmallRng::seed_from_u64(1),
            )
            .unwrap();
        assert_window_grammar(&format!("pipelined depth {depth}"), &sink.events(), windows);
        assert_eq!(sink.events().len(), stepped, "same script, same stream");
    }

    let sink = CollectingSink::new();
    let mut dist = DistributedDetector::new(ft.clone(), cfg.clone(), 2).unwrap();
    dist.add_sink(Box::new(sink.clone()));
    let script = DistScript::new().topology(1, down).agent_down(3, 1);
    dist.run_distributed(&fabric, windows, &script, &mut SmallRng::seed_from_u64(1))
        .unwrap();
    assert_window_grammar("distributed", &sink.events(), windows);
    let events = sink.events();
    let dead = events.iter().filter(|e| kind(e) == "unhealthy").count();
    assert!(dead > 0, "agent 1's racks must surface as PingerUnhealthy");
}

/// Logs `WindowStarted` events (as a sink) and each window's first probe
/// (as a data plane) into one shared sequence.
#[derive(Clone, Default)]
struct Sequence(Arc<Mutex<Vec<(&'static str, u64)>>>);

impl EventSink for Sequence {
    fn on_event(&mut self, event: &RuntimeEvent) {
        if let RuntimeEvent::WindowStarted { window, .. } = event {
            self.0.lock().unwrap().push(("started", *window));
        }
    }
}

impl DataPlane for Sequence {
    fn probe(&self, _route: &Route, _flow: FlowKey, _rng: &mut SmallRng) -> ProbeOutcome {
        unreachable!("the pinger probes through probe_tagged")
    }

    fn probe_tagged(
        &self,
        tag: ProbeTag,
        _route: &Route,
        _flow: FlowKey,
        _rng: &mut SmallRng,
    ) -> ProbeOutcome {
        let mut log = self.0.lock().unwrap();
        if !log.contains(&("probe", tag.window)) {
            log.push(("probe", tag.window));
        }
        ProbeOutcome {
            delivered: true,
            rtt_us: 100.0,
        }
    }
}

#[test]
fn step_announces_a_window_before_its_first_probe() {
    // The inline schedule must not defer the window's header to close
    // time: a sink that reacts to WindowStarted (arming a failure
    // injector, stamping an onset) has to see it before the data plane
    // sees the window.
    let seq = Sequence::default();
    let mut run = Detector::builder(fattree())
        .sink(Box::new(seq.clone()))
        .build()
        .unwrap();
    let mut rng = SmallRng::seed_from_u64(8);
    for _ in 0..3 {
        run.step(&seq, &mut rng);
    }
    let want: Vec<_> = (0..3)
        .flat_map(|w| [("started", w), ("probe", w)])
        .collect();
    assert_eq!(*seq.0.lock().unwrap(), want);
}

#[test]
fn cycle_refreshed_fires_exactly_on_cycle_boundaries() {
    let ft = fattree();
    let collector = CollectingSink::new();
    // window 30 s, cycle 60 s: refreshes exactly at windows 2, 4, 6, ...
    let cfg = SystemConfig {
        cycle_s: 60,
        ..SystemConfig::default()
    };
    let mut run = Detector::builder(ft.clone())
        .config(cfg)
        .sink(Box::new(collector.clone()))
        .build()
        .unwrap();
    let fabric = Fabric::quiet(ft.as_ref());
    let mut rng = SmallRng::seed_from_u64(2);
    for _ in 0..7 {
        run.step(&fabric, &mut rng);
    }

    let refreshed: Vec<u64> = collector
        .events()
        .iter()
        .filter(|e| matches!(e, RuntimeEvent::CycleRefreshed { .. }))
        .map(window_of)
        .collect();
    assert_eq!(
        refreshed,
        vec![2, 4, 6],
        "refresh exactly on 60 s boundaries"
    );

    // Versions advance monotonically with each refresh.
    let versions: Vec<u64> = collector
        .events()
        .iter()
        .filter_map(|e| match e {
            RuntimeEvent::CycleRefreshed { version, .. } => Some(*version),
            _ => None,
        })
        .collect();
    assert_eq!(versions, vec![2, 3, 4], "builder made v1; refreshes follow");
}

#[test]
fn unhealthy_pingers_surface_as_events_not_reports() {
    let ft = fattree();
    let collector = CollectingSink::new();
    let mut run = Detector::builder(ft.clone())
        .sink(Box::new(collector.clone()))
        .build()
        .unwrap();
    let sick = ft.server(0, 0, 0);
    run.watchdog.mark_unhealthy(sick);
    let fabric = Fabric::quiet(ft.as_ref());
    let mut rng = SmallRng::seed_from_u64(3);
    run.step(&fabric, &mut rng);

    let events = collector.events();
    let unhealthy: Vec<NodeId> = events
        .iter()
        .filter_map(|e| match e {
            RuntimeEvent::PingerUnhealthy { pinger, .. } => Some(*pinger),
            _ => None,
        })
        .collect();
    assert_eq!(unhealthy, vec![sick]);
    // The sick pinger never reports.
    assert!(events.iter().all(|e| !matches!(
        e,
        RuntimeEvent::ReportIngested { pinger, .. } if *pinger == sick
    )));
}

/// A `Write` implementor sharing its buffer, so the test can read what
/// the detector-owned sink wrote.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn json_lines_sink_emits_one_valid_record_per_window() {
    let ft = fattree();
    let buf = SharedBuf::default();
    let mut run = Detector::builder(ft.clone())
        .sink(Box::new(JsonLinesSink::new(buf.clone())))
        .build()
        .unwrap();
    let mut fabric = Fabric::quiet(ft.as_ref());
    let bad = ft.ac_link(2, 1, 0);
    fabric.set_discipline_both(bad, LossDiscipline::Full);
    let mut rng = SmallRng::seed_from_u64(4);
    let windows = 3u64;
    let mut results = Vec::new();
    for _ in 0..windows {
        results.push(run.step(&fabric, &mut rng));
    }

    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), windows as usize, "one record per window");

    for (i, line) in lines.iter().enumerate() {
        // Each record is the exact WindowResult step() returned, and
        // parses back to a tree that renders it again (a full-loss rate
        // of 1.0 prints as `1` and reads back as an integer).
        let golden = RuntimeEvent::DiagnosisReady(results[i].clone()).to_json();
        assert_eq!(*line, golden.to_string(), "line {i}");
        assert_eq!(
            Json::parse(line).map(|v| v.to_string()).as_deref(),
            Ok(*line)
        );
        assert!(results[i].diagnosis.suspect_links().contains(&bad));
    }
}

/// A data plane with no simulator behind it: drops every flow whose
/// route crosses a configured link, delivers everything else at a fixed
/// RTT.
struct MockPlane {
    bad_links: HashSet<LinkId>,
    windows_seen: Mutex<Vec<u64>>,
}

impl MockPlane {
    fn failing(links: impl IntoIterator<Item = LinkId>) -> Self {
        Self {
            bad_links: links.into_iter().collect(),
            windows_seen: Mutex::new(Vec::new()),
        }
    }
}

impl DataPlane for MockPlane {
    fn probe(&self, route: &Route, _flow: FlowKey, _rng: &mut SmallRng) -> ProbeOutcome {
        let hit = route.links.iter().any(|l| self.bad_links.contains(l));
        ProbeOutcome {
            delivered: !hit,
            rtt_us: if hit { 0.0 } else { 120.0 },
        }
    }

    fn window_started(&self, window: u64, _start_s: u64) {
        self.windows_seen.lock().unwrap().push(window);
    }
}

#[test]
fn mock_dataplane_drives_the_runtime_without_a_fabric() {
    let ft = fattree();
    let bad = ft.ea_link(1, 1, 0);
    let plane = MockPlane::failing([bad]);
    let mut run = Detector::new(ft.clone(), SystemConfig::default()).unwrap();
    let mut rng = SmallRng::seed_from_u64(5);

    let w = run.step(&plane, &mut rng);
    assert!(
        w.diagnosis.suspect_links().contains(&bad),
        "suspects: {:?}",
        w.diagnosis.suspect_links()
    );
    assert!(w.probes_sent > 0);
    // The window-boundary hook reached the mock.
    assert_eq!(*plane.windows_seen.lock().unwrap(), vec![0]);
}

#[test]
fn builder_surfaces_config_errors_with_typed_variants() {
    let ft = fattree();
    let err = Detector::new(
        ft.clone(),
        SystemConfig {
            cycle_s: 0,
            ..SystemConfig::default()
        },
    )
    .err()
    .expect("zero cycle must be rejected");
    assert!(matches!(err, BuildError::Config(ConfigError::ZeroCycle)));
    // The error is displayable for operators.
    assert!(err.to_string().contains("cycle_s"));

    // And validate() is callable standalone, before any topology work.
    assert_eq!(
        SystemConfig {
            window_s: 0,
            ..SystemConfig::default()
        }
        .validate(),
        Err(ConfigError::ZeroWindow)
    );
    assert!(SystemConfig::default().validate().is_ok());
}

#[test]
fn diagnosis_and_metrics_round_trip_through_json() {
    // A live diagnosis, floats included, parses back to a tree that
    // renders the same text.
    let ft = fattree();
    let mut fabric = Fabric::quiet(ft.as_ref());
    let bad = ft.ac_link(0, 1, 1);
    fabric.set_discipline_both(bad, LossDiscipline::Full);
    let mut run = Detector::new(ft.clone(), SystemConfig::default()).unwrap();
    let mut rng = SmallRng::seed_from_u64(6);
    let w = run.step(&fabric, &mut rng);
    assert!(!w.diagnosis.suspects.is_empty());
    let text = w.diagnosis.to_json().to_string();
    assert_eq!(Json::parse(&text).map(|v| v.to_string()), Ok(text));

    // Metrics render as a fixed record: one hit, two false alarms, one
    // miss.
    let m = evaluate_diagnosis(&[LinkId(1), LinkId(3), LinkId(4)], &[LinkId(1), LinkId(2)]);
    let text = m.to_json().to_string();
    assert_eq!(
        text,
        concat!(
            r#"{"true_positives":1,"false_positives":2,"false_negatives":1,"accuracy":0.5,"#,
            r#""false_positive_ratio":0.6666666666666666,"false_negative_ratio":0.5}"#
        )
    );
    assert_eq!(Json::parse(&text), Ok(m.to_json()));
}

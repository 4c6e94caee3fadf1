//! From the passes of a traced run to the per-layer metrics.

use detector_core::types::LinkId;
use detector_system::UdpStats;

use crate::calib::calibrated;
use crate::measure::Block;
use crate::stats::{iqr_ratio, median};
use crate::trace::Tracer;
use crate::traced::Counts;

/// What the driver passes of a traced run saw from outside the system.
#[derive(Default)]
pub struct DriverPass {
    /// The pass's blocks, in order.
    pub blocks: Vec<Block>,
    /// Wall time of the pass's driver calls, milliseconds.
    pub wall_ms: f64,
    /// Failed windows of the untimed calls before the blocks.
    pub head_failed: u64,
}

impl DriverPass {
    pub fn windows(&self) -> u64 {
        self.blocks.iter().map(|b| b.windows).sum()
    }

    pub fn failed(&self) -> u64 {
        self.head_failed + self.blocks.iter().map(|b| b.failed).sum::<u64>()
    }

    fn all(&self, f: impl Fn(&Block) -> &Vec<f64>) -> Vec<f64> {
        self.blocks
            .iter()
            .flat_map(|b| f(b).iter().copied())
            .collect()
    }

    /// Every timed window's suspects, in window order.
    pub fn suspects(&self) -> impl Iterator<Item = &Vec<LinkId>> {
        self.blocks.iter().flat_map(|b| b.suspects.iter())
    }
}

/// The agent tier's accounting of the distributed driver pass.
pub struct AgentWire {
    /// `run_distributed` of 0 windows: fleet spawn, handshake, full
    /// pinglist sync, teardown — milliseconds.
    pub bootstrap_ms: f64,
    /// Bytes both ways over `windows` windows of `run_distributed`
    /// calls (each call boots and tears down its own fleet).
    pub control_bytes: u64,
    pub report_bytes: u64,
    pub windows: u64,
}

/// What the passes of a traced run saw, handed to
/// [`TraceRun::conclude`](crate::traced::TraceRun::conclude).
pub struct Seen<'a> {
    pub counts: &'a Counts,
    /// Paths and pinglists of the first deployment.
    pub plan_size: (usize, usize),
    /// The plain driver pass: untraced window time, reference diagnoses.
    pub untraced: &'a DriverPass,
    /// The driver pass with probe accounts on (scheduler latencies),
    /// where there is one; a loop the benchmark stamps itself needs none.
    pub accounted: Option<&'a DriverPass>,
    /// Every window's suspects in the re-composed pass, and how many
    /// missed ground truth.
    pub recomposed: (Vec<Vec<LinkId>>, u64),
    /// Threads the driver keeps busy.
    pub threads: usize,
    pub udp: Option<UdpStats>,
    pub agent: Option<AgentWire>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `NaN`-free median: 0 for "this layer never ran".
fn p50(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// Element-wise `a − b` (per window).
fn minus(a: &[f64], b: &[f64]) -> Vec<f64> {
    a.iter()
        .enumerate()
        .map(|(i, x)| (x - b.get(i).copied().unwrap_or(0.0)).max(0.0))
        .collect()
}

/// Values by name.
pub type Named = Vec<(&'static str, f64)>;

/// The host as a traced run saw it.
pub struct HostState<'a> {
    /// Every calibration rep of the run, milliseconds.
    pub calib_reps_ms: &'a [f64],
    /// The workload's host exponent.
    pub host_exp: f64,
    pub steal_ratio: f64,
}

/// Every per-layer metric of a traced run, and the diagnostics its record
/// keeps beside them; `t` holds the spans of the re-composed pass.
pub fn per_layer(t: &Tracer, host: &HostState, o: &Seen) -> (Named, Named) {
    let c = o.counts;
    let accounted = o.accounted.unwrap_or(o.untraced);
    let cal_ms = p50(host.calib_reps_ms);
    // Timings go out in calibrated units, like the end-to-end metrics.
    let cal = |raw: f64| {
        if cal_ms > 0.0 {
            calibrated(raw, cal_ms, host.host_exp)
        } else {
            raw
        }
    };
    let windows = c.windows.max(1) as f64;
    let events = c.plan_events as f64;

    let run_window = t.per_window("pinger.run_window");
    let probe = t.per_window("dataplane.probe_tagged");
    let pinger_self = minus(&run_window, &probe);
    let ns_per_probe: Vec<f64> = {
        let mut by_window = std::collections::BTreeMap::<u64, (f64, f64)>::new();
        for s in t
            .spans()
            .iter()
            .filter(|s| s.name == "dataplane.probe_tagged")
        {
            let e = by_window.entry(s.window).or_default();
            e.0 += s.ms() * 1e6;
            e.1 += s.calls as f64;
        }
        by_window.values().map(|(ns, n)| ratio(*ns, *n)).collect()
    };
    let per_call_us = |name: &str| {
        let (ms, calls) = t
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0.0), |(ms, n), s| (ms + s.ms(), n + s.calls as f64));
        ratio(ms * 1e3, calls)
    };

    let seal = t.durations("ingest.seal");
    let prefilter = t.durations("prefilter.prefilter");
    let localize = t.durations("pll.localize");
    let diagnose = t.durations("diagnoser.diagnose");
    let diagnose_self = minus(&minus(&minus(&diagnose, &seal), &prefilter), &localize);

    let (layers, window_total_ms) = t.window_shares();
    let share = |layer: &str| ratio(layers.get(layer).copied().unwrap_or(0.0), window_total_ms);
    let traced_window_ms = window_total_ms / windows;
    let untraced_window_ms = ratio(o.untraced.wall_ms, o.untraced.windows() as f64);

    let latency = accounted.all(|b| &b.latency_ms);
    let udp = o.udp.unwrap_or_default();
    let kprobes = udp.sent as f64 / 1e3;
    let per_dist_window = |bytes: u64, a: &AgentWire| ratio(bytes as f64, a.windows as f64);

    let metrics = vec![
        (
            "topology.build_ms",
            cal(p50(&t.durations("topology.build"))),
        ),
        ("planner.build_ms", cal(p50(&t.durations("planner.build")))),
        ("planner.paths", o.plan_size.0 as f64),
        ("planner.pinglists", o.plan_size.1 as f64),
        (
            "planner.cycle_refresh_ms_p50",
            cal(p50(&t.durations("planner.cycle_refresh"))),
        ),
        (
            "planner.replan_down_ms_p50",
            cal(p50(&t.durations("planner.replan_down"))),
        ),
        (
            "planner.replan_up_ms_p50",
            cal(p50(&t.durations("planner.replan_up"))),
        ),
        (
            "planner.cells_resolved_per_event",
            ratio(c.cells_resolved as f64, events),
        ),
        (
            "planner.lists_redispatched_per_event",
            ratio(c.lists_redispatched as f64, events),
        ),
        (
            "dispatch.entries_diffed_per_event",
            ratio(c.entries_diffed as f64, events),
        ),
        (
            "dispatch.bytes_per_event",
            ratio(c.dispatch_bytes as f64, events),
        ),
        // Every batch binds in window 0; later binds follow re-plans.
        (
            "pinger.bind_ms",
            cal(t.per_window("pinger.bind").first().copied().unwrap_or(0.0)),
        ),
        ("pinger.window_ms", cal(p50(&pinger_self))),
        (
            "pinger.self_ns_per_probe",
            cal(ratio(
                pinger_self.iter().sum::<f64>() * 1e6,
                c.probes_sent as f64,
            )),
        ),
        ("pinger.probes_per_window", c.probes_sent as f64 / windows),
        ("dataplane.probe_ms", cal(p50(&probe))),
        ("dataplane.ns_per_probe_p50", cal(p50(&ns_per_probe))),
        ("udp.retries_per_kprobe", ratio(udp.retries as f64, kprobes)),
        (
            "udp.timeouts_per_kprobe",
            ratio(udp.timeouts as f64, kprobes),
        ),
        ("udp.late_echoes", udp.late_echoes as f64),
        (
            "udp.kernel_stamped_ratio",
            ratio(
                udp.kernel_stamped as f64,
                (udp.kernel_stamped + udp.mono_stamped) as f64,
            ),
        ),
        ("scheduler.window_latency_ms_p50", cal(p50(&latency))),
        (
            "scheduler.queue_wait_ms_p50",
            cal(p50(&accounted.all(|b| &b.queue_wait_ms))),
        ),
        // Σ window latency ÷ wall: 1 when windows run back to back, above
        // 1 by as much as they overlap.
        (
            "scheduler.overlap_ratio",
            ratio(latency.iter().sum(), accounted.wall_ms),
        ),
        ("scheduler.threads", o.threads as f64),
        (
            "agent.bootstrap_ms",
            cal(o.agent.as_ref().map_or(0.0, |a| a.bootstrap_ms)),
        ),
        (
            "agent.control_bytes_per_window",
            o.agent
                .as_ref()
                .map_or(0.0, |a| per_dist_window(a.control_bytes, a)),
        ),
        (
            "agent.report_bytes_per_window",
            o.agent
                .as_ref()
                .map_or(0.0, |a| per_dist_window(a.report_bytes, a)),
        ),
        (
            "frame.encode_us_per_report",
            cal(per_call_us("frame.encode")),
        ),
        (
            "frame.decode_us_per_report",
            cal(per_call_us("frame.decode")),
        ),
        ("frame.bytes_per_window", c.frame_bytes as f64 / windows),
        ("ingest.fold_ms", cal(p50(&t.per_window("twin.fold")))),
        ("ingest.seal_ms", cal(p50(&seal))),
        (
            "ingest.entries_per_window",
            c.ingest_entries as f64 / windows,
        ),
        ("ingest.shard_contention", c.shard_contention as f64),
        ("prefilter.ms", cal(p50(&prefilter))),
        (
            "prefilter.kept_ratio",
            ratio(c.kept_paths as f64, c.observed_paths as f64),
        ),
        ("pll.localize_ms", cal(p50(&localize))),
        ("pll.lossy_paths", c.lossy_paths as f64 / windows),
        ("pll.components", c.components as f64 / windows),
        ("pll.suspects", c.suspects as f64 / windows),
        ("diagnoser.diagnose_ms", cal(p50(&diagnose))),
        ("diagnoser.self_ms", cal(p50(&diagnose_self))),
        ("host.calib_ms_p50", cal_ms),
        ("host.calib_iqr_ratio", iqr_ratio(host.calib_reps_ms)),
        ("host.steal_ratio", host.steal_ratio),
        (
            "trace.overhead_ratio",
            ratio(traced_window_ms, untraced_window_ms),
        ),
        ("trace.attributed_ratio", 1.0 - share(crate::trace::WINDOW)),
    ];
    // Each layer's self time ÷ window time in the re-composed loop: what
    // the workload is dominated by.
    let diagnostics = vec![
        ("share.planner", share("planner")),
        ("share.dispatch", share("dispatch")),
        ("share.pinger", share("pinger")),
        ("share.dataplane", share("dataplane")),
        ("share.frame", share("frame")),
        ("share.ingest", share("ingest")),
        ("share.diagnoser", share("diagnoser")),
        ("traced_window_ms", cal(traced_window_ms)),
        ("untraced_window_ms", cal(untraced_window_ms)),
        ("spans", t.spans().len() as f64),
    ];
    (metrics, diagnostics)
}

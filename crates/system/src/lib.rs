//! # detector-system
//!
//! The deTector runtime (§3, §6.1): a **controller** that recomputes the
//! probe matrix every cycle and dispatches pinglists, **pingers** (2+
//! servers per ToR) that source-route UDP probes and aggregate 30-second
//! reports, stateless **responders**, a **watchdog** tracking server
//! health, and a **diagnoser** running PLL on each report window.
//!
//! The public entry point is the owned [`Detector`] handle: build it from
//! an `Arc<dyn DcnTopology>` (validated configuration, typed
//! [`ConfigError`]s at build time), then drive it window by window with
//! [`Detector::step`] against any [`DataPlane`] — the simulated
//! `detector-simnet` fabric is the reference implementation, so whole
//! monitoring campaigns (hours of simulated probing with failure
//! injection) run deterministically in milliseconds. Each step emits
//! typed [`RuntimeEvent`]s to the registered [`EventSink`]s — the seam
//! for schedulers, JSON-lines exports and report consumers.
//!
//! For throughput, [`Detector::run_pipelined`] runs whole campaigns
//! through the **pipelined scheduler**: probe dispatch, report
//! collection and diagnosis overlap across windows on worker threads,
//! with scripted churn and pinger failures ([`Script`]), while emitting
//! the identical event stream as sequential stepping (proven by the
//! equivalence harness in `tests/scheduler_equivalence.rs`; see the
//! `scheduler` module docs for the stage layout).
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use detector_simnet::{Fabric, LossDiscipline};
//! use detector_system::{Detector, SystemConfig};
//! use detector_topology::{DcnTopology, Fattree};
//! use rand::SeedableRng;
//!
//! let ft = Arc::new(Fattree::new(4).unwrap());
//! let mut run = Detector::builder(ft.clone())
//!     .config(SystemConfig::default())
//!     .build()
//!     .unwrap();
//! let mut fabric = Fabric::quiet(ft.as_ref());
//! fabric.set_discipline_both(ft.ea_link(0, 0, 0), LossDiscipline::Full);
//!
//! let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(7);
//! let window = run.step(&fabric, &mut rng);
//! assert!(window
//!     .diagnosis
//!     .suspect_links()
//!     .contains(&ft.ea_link(0, 0, 0)));
//! ```
//!
//! # Migrating from `MonitorRun`
//!
//! Earlier revisions exposed a borrow-bound `MonitorRun<'a>` tied to the
//! concrete simulator. The mapping is mechanical:
//!
//! * `MonitorRun::new(&topo, cfg)?` → `Detector::new(Arc::new(topo), cfg)?`
//!   (or the [`Detector::builder`] form to attach sinks);
//! * `run.run_window(&fabric, &mut rng)` → `run.step(&fabric, &mut rng)`
//!   — `&Fabric` coerces to `&dyn DataPlane`;
//! * configuration errors now surface as typed [`ConfigError`]s from
//!   `build()` instead of runtime panics.

mod clock;
mod controller;
mod dataplane;
mod diagnoser;
pub mod dispatch;
mod events;
mod pinger;
mod pinglist;
mod planner;
mod report;
mod responder;
mod runtime;
mod scheduler;
mod script;
mod watchdog;
pub mod window;
pub mod wire;

use std::fmt;

pub use clock::{HostClock, ManualProbeClock, ProbeClock, SimClock};
pub use controller::{Controller, Deployment, PlanUpdate};
pub use dataplane::udp::{
    HarnessStats, LossShim, RetryPolicy, UdpConfig, UdpDataPlane, UdpHarness, UdpStats,
};
pub use dataplane::{DataPlane, ProbeOutcome, ProbeTag};
pub use diagnoser::{DiagConfig, Diagnoser, DiagnosisEvent};
pub use dispatch::{DeploymentDiff, DispatchStats, ListUpdate};
pub use events::{CollectingSink, EventSink, JsonLinesSink, RuntimeEvent, WindowResult};
pub use pinger::{batch_seed, bound_batch, PingerBatch, PingerCostModel};
pub use pinglist::{PingEntry, Pinglist};
pub use planner::{IdHeadroom, ProbePlan, ReplanStats, EXHAUSTIVE_LIMIT};
pub use report::{FlowRecord, PathCounters, PingerReport, ReportStore, RowSums};
pub use responder::Responder;
pub use runtime::{BuildError, Detector, DetectorBuilder};
pub use scheduler::{PipelineConfig, PipelineError};
pub use script::{Script, ScriptAction, Windowed};
pub use watchdog::Watchdog;

// The live-topology surface lives in `detector-topology`; re-exported
// here because the runtime's `Detector::apply` seam is where most callers
// meet it.
pub use detector_topology::{SharedTopology, TopologyDelta, TopologyEvent, TopologyView};

use detector_core::pll::PllConfig;
use detector_core::pmc::PmcConfig;

/// Deployment-wide configuration (§6.1 defaults).
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Servers per ToR acting as pingers (the paper uses 2–4).
    pub pingers_per_tor: usize,
    /// Probes each pinger sends per second (default 10, the red square of
    /// Fig. 4).
    pub probe_rate_pps: f64,
    /// Report/diagnosis window in seconds (default 30).
    pub window_s: u64,
    /// Probe-matrix recomputation cycle in seconds (default 600).
    pub cycle_s: u64,
    /// Number of source ports each path loops over (packet entropy, §7).
    pub port_range: u16,
    /// First source port.
    pub base_sport: u16,
    /// Responder port.
    pub dport: u16,
    /// DSCP classes the pinger cycles through (packet entropy across QoS
    /// classes, §6.1); must be non-empty.
    pub dscp_classes: Vec<u8>,
    /// Extra confirmation probes sent upon a loss (§3.1).
    pub confirm_probes: u32,
    /// RTTs above this are treated as losses (100 ms, §6.1).
    pub timeout_us: f64,
    /// Probe-matrix construction settings.
    pub pmc: PmcConfig,
    /// Loss-localization settings.
    pub pll: PllConfig,
    /// Diagnosis-stage settings: none ([`DiagConfig`] is field-less and
    /// stays only for `benchmark/`).
    pub diag: DiagConfig,
    /// Headroom policy for the probe plan's per-cell `PathId` ranges:
    /// how much id slack each plan cell reserves so churn re-solves stay
    /// inside their range (no re-dispatch of other cells' pinglists).
    /// [`IdHeadroom::NONE`] makes every growth a re-base, which is how
    /// the re-base path is exercised in tests.
    pub id_headroom: IdHeadroom,
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self {
            pingers_per_tor: 2,
            probe_rate_pps: 10.0,
            window_s: 30,
            cycle_s: 600,
            port_range: 16,
            base_sport: 33000,
            dport: 53533,
            // Best effort, AF21, EF: a small spread of QoS classes.
            dscp_classes: vec![0, 18, 46],
            confirm_probes: 2,
            timeout_us: 100_000.0,
            pmc: PmcConfig::new(3, 1),
            // With two confirmation probes per loss, a real failure always
            // re-drops at least once in the same window; a path with a
            // single lost packet is background noise (§5.1).
            pll: PllConfig {
                min_loss_count: 2,
                ..PllConfig::default()
            },
            diag: DiagConfig,
            id_headroom: IdHeadroom::default(),
        }
    }
}

impl SystemConfig {
    /// Overrides the probe rate.
    pub fn with_rate(mut self, pps: f64) -> Self {
        self.probe_rate_pps = pps;
        self
    }

    /// Overrides the PMC (α, β) targets.
    pub fn with_pmc(mut self, pmc: PmcConfig) -> Self {
        self.pmc = pmc;
        self
    }

    /// Validates the configuration; [`DetectorBuilder::build`] calls this
    /// so misconfigurations surface as typed errors at construction time
    /// instead of panics mid-campaign.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.window_s == 0 {
            return Err(ConfigError::ZeroWindow);
        }
        // A zero cycle_s would make the boundary check true never (the
        // deployment would serve stale pinglists forever).
        if self.cycle_s == 0 {
            return Err(ConfigError::ZeroCycle);
        }
        if !self.probe_rate_pps.is_finite() || self.probe_rate_pps <= 0.0 {
            return Err(ConfigError::NonPositiveProbeRate);
        }
        if self.dscp_classes.is_empty() {
            return Err(ConfigError::NoDscpClasses);
        }
        if self.pingers_per_tor == 0 {
            return Err(ConfigError::ZeroPingersPerTor);
        }
        if self.timeout_us.is_nan() || self.timeout_us <= 0.0 {
            return Err(ConfigError::NonPositiveTimeout);
        }
        Ok(())
    }
}

/// A [`SystemConfig`] field rejected at build time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `window_s` was zero: no reporting interval.
    ZeroWindow,
    /// `cycle_s` was zero: the probe matrix would never refresh.
    ZeroCycle,
    /// `probe_rate_pps` was zero, negative or non-finite.
    NonPositiveProbeRate,
    /// `dscp_classes` was empty (the pinger cycles through it).
    NoDscpClasses,
    /// `pingers_per_tor` was zero: nothing would probe.
    ZeroPingersPerTor,
    /// `timeout_us` was zero or negative: every probe would be a loss.
    NonPositiveTimeout,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroWindow => write!(f, "window_s must be > 0"),
            ConfigError::ZeroCycle => write!(f, "cycle_s must be > 0"),
            ConfigError::NonPositiveProbeRate => {
                write!(f, "probe_rate_pps must be a positive finite number")
            }
            ConfigError::NoDscpClasses => write!(f, "dscp_classes must be non-empty"),
            ConfigError::ZeroPingersPerTor => write!(f, "pingers_per_tor must be > 0"),
            ConfigError::NonPositiveTimeout => write!(f, "timeout_us must be > 0"),
        }
    }
}

impl std::error::Error for ConfigError {}

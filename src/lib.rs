//! # detector
//!
//! A from-scratch Rust reproduction of **deTector** (Peng et al., USENIX
//! ATC 2017): a topology-aware monitoring system that detects *and*
//! localizes packet-loss failures in data center networks from end-to-end
//! probes alone.
//!
//! This facade crate re-exports the workspace:
//!
//! * `core` ([`detector_core`]) — the paper's algorithms: PMC probe-matrix
//!   construction (§4) and PLL loss localization (§5) with the Tomo /
//!   SCORE / OMP baselines, all behind the unified
//!   [`Localizer`](detector_core::pll::Localizer) trait;
//! * `topology` ([`detector_topology`]) — Fattree, VL2 and BCube generators
//!   with ECMP path sets and symmetry-aware candidate providers;
//! * `simnet` ([`detector_simnet`]) — the deterministic packet-level fabric
//!   simulator standing in for the paper's SDN testbed;
//! * `system` ([`detector_system`]) — the deTector runtime behind the owned
//!   [`Detector`](detector_system::Detector) handle: controller, pingers,
//!   responders, diagnoser, watchdog, driven against any
//!   [`DataPlane`](detector_system::DataPlane) and observable through
//!   typed [`RuntimeEvent`](detector_system::RuntimeEvent) sinks;
//! * `baselines` ([`detector_baselines`]) — Pingmesh, NetNORAD, Netbouncer
//!   and fbtracert emulations, whose inference stages implement the same
//!   `Localizer` trait.
//!
//! # The runtime in five lines
//!
//! ```
//! use detector::prelude::*;
//! use std::sync::Arc;
//! use rand::SeedableRng;
//!
//! let ft = Arc::new(Fattree::new(4).unwrap());
//! let mut run = Detector::new(ft.clone(), SystemConfig::default()).unwrap();
//! let mut fabric = Fabric::quiet(ft.as_ref());
//! fabric.set_discipline_both(ft.ac_link(1, 0, 1), LossDiscipline::Full);
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
//! let window = run.step(&fabric, &mut rng);
//! assert!(window.diagnosis.suspect_links().contains(&ft.ac_link(1, 0, 1)));
//! ```
//!
//! # Reacting to topology churn
//!
//! The topology is *live*: drains, repairs and expansions arrive as
//! [`TopologyEvent`](detector_topology::TopologyEvent)s through
//! [`Detector::apply`](detector_system::Detector::apply), which patches
//! the probe plan incrementally — only the PMC subproblems the change
//! touches are re-solved — and emits a `PlanUpdated` runtime event:
//!
//! ```
//! use detector::prelude::*;
//! use std::sync::Arc;
//!
//! let ft = Arc::new(Fattree::new(4).unwrap());
//! let mut run = Detector::new(ft.clone(), SystemConfig::default()).unwrap();
//! let dead = ft.ea_link(0, 0, 0);
//! let update = run.apply(&TopologyEvent::LinkDown { link: dead }).unwrap();
//! assert_eq!((update.epoch, update.links_changed), (1, 1));
//! // Probes route around the drained link until it comes back.
//! assert!(run.matrix().uncoverable.contains(&dead));
//! run.apply(&TopologyEvent::LinkUp { link: dead }).unwrap();
//! assert!(run.matrix().paths.iter().filter(|p| p.covers(dead)).count() > 0);
//! ```
//!
//! # The algorithms without the runtime
//!
//! ```
//! use detector::prelude::*;
//! use rand::SeedableRng;
//! use std::collections::HashSet;
//! use std::sync::Arc;
//!
//! // Build the paper's testbed topology and the (3, 1) probe matrix
//! // `Detector` would deploy on it.
//! let ft = Fattree::new(4).unwrap();
//! let plan = ProbePlan::new(Arc::new(ft.clone()), &PmcConfig::new(3, 1), &HashSet::new());
//! let matrix = plan.unwrap().matrix();
//!
//! // Fail a link, probe, localize through the Localizer trait.
//! let mut fabric = Fabric::quiet(&ft);
//! let bad = ft.ac_link(1, 0, 1);
//! fabric.set_discipline_both(bad, LossDiscipline::Full);
//!
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
//! let mut observations = Vec::new();
//! for path in &matrix.paths {
//!     let route = ft.graph().route_from_nodes(path.nodes().to_vec()).unwrap();
//!     let mut lost = 0;
//!     for i in 0..20u16 {
//!         let flow = FlowKey::udp(route.nodes[0].0, route.nodes.last().unwrap().0, 33000 + i, 53533);
//!         if !fabric.round_trip(&route, flow, &mut rng).success {
//!             lost += 1;
//!         }
//!     }
//!     observations.push(PathObservation::new(path.id, 20, lost));
//! }
//! let pll: Box<dyn Localizer> = Box::new(PllLocalizer::default());
//! let diagnosis = pll.localize(&matrix, &observations);
//! assert_eq!(diagnosis.suspect_links(), vec![bad]);
//! ```

pub use detector_baselines as baselines;
pub use detector_core as core;
pub use detector_simnet as simnet;
pub use detector_system as system;
pub use detector_topology as topology;

/// Convenient glob-import surface for examples and quick experiments.
pub mod prelude {
    pub use detector_agent::{
        flaky_loopback, loopback, AgentExit, ControlTransport, DistAction, DistError, DistOutcome,
        DistScript, DistributedDetector, FleetScript, Frame, FrameError, LoopbackEnd, PingerAgent,
        TcpTransport, Transport, TransportError, MAX_FRAME,
    };
    pub use detector_baselines::{
        fbtracert_localize, fbtracert_sweep, netbouncer_localize, netbouncer_sweep, BaselineConfig,
        BaselineSystem, FbtracertLocalizer, NetbouncerLocalizer, SweepResult,
    };
    pub use detector_core::json::{Json, ToJson};
    pub use detector_core::pll::{
        evaluate_diagnosis, localize, localize_omp, localize_score, localize_tomo, Diagnosis,
        LocalizationMetrics, Localizer, OmpLocalizer, PllConfig, PllLocalizer, ScoreLocalizer,
        TomoLocalizer,
    };
    pub use detector_core::pmc::{
        construct, max_identifiability, min_coverage, verify, PmcConfig, ProbeMatrix,
    };
    pub use detector_core::types::{
        LinkId, NodeId, PathId, PathIdRange, PathObservation, PathRef, PathStore, ProbePath,
    };
    pub use detector_simnet::{
        partition_hosts, ChurnSchedule, Fabric, FailureGenerator, FailureScenario, FlowKey,
        HostGroups, LossDiscipline,
    };
    pub use detector_system::{
        BuildError, CollectingSink, ConfigError, DataPlane, Detector, DetectorBuilder, EventSink,
        HarnessStats, HostClock, IdHeadroom, JsonLinesSink, LossShim, ManualProbeClock, Pinglist,
        PipelineConfig, PipelineError, PlanUpdate, ProbeClock, ProbeOutcome, ProbePlan, ProbeTag,
        ReplanStats, RetryPolicy, RuntimeEvent, Script, ScriptAction, SharedTopology, SystemConfig,
        UdpConfig, UdpDataPlane, UdpHarness, UdpStats, WindowResult,
    };
    pub use detector_topology::{
        BCube, DcnTopology, Fattree, Route, TopologyDelta, TopologyEvent, TopologyView, Vl2,
    };
}

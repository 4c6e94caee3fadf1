//! deTector's distributed control plane: a wire-protocol agent tier.
//!
//! The single-process [`Detector`](detector_system::Detector) runs the
//! controller, every pinger and the diagnoser in one address space. This
//! crate splits the deployment the way the paper does (§ "deTector
//! architecture"): a **controller tier** ([`DistributedDetector`]) owns
//! planning, dispatch and diagnosis, and a **probe tier** of
//! [`PingerAgent`] daemons — one per host group — owns the
//! `PingerBatch`es and streams reports back.
//!
//! The two tiers speak a hand-rolled, registry-free protocol of
//! length-prefixed [`Frame`]s ([`detector_system::wire`], re-exported
//! here) over a [`Transport`]: an in-process [`loopback`] pair for CI
//! (with [`flaky_loopback`] fault injection) or a [`TcpTransport`] for
//! real two-process deployments. Pinglists are dispatched
//! *incrementally*: after the initial sync, a changed list travels as
//! one frame carrying its [`ListUpdate`](detector_system::ListUpdate) —
//! usually an edit script of removed keys and added entries, sealed by
//! the rebuilt list's stamp — so dispatch bytes scale with the plan
//! *delta* rather than the fleet.
//!
//! Failure handling is degrade-not-stall: a dead agent (missed
//! heartbeat, closed transport, scripted crash) turns into
//! `PingerUnhealthy` for its host group and the window completes
//! without it. [`DistributedDetector::run_distributed`] is proven
//! equivalent to the sequential oracle via [`FleetScript::oracle`].

mod agent;
mod runtime;
mod transport;

pub use agent::{AgentExit, PingerAgent};
pub use detector_system::wire::{Frame, FrameError, MAX_FRAME};
pub use runtime::{
    DistAction, DistError, DistOutcome, DistScript, DistributedDetector, FleetScript,
};
pub use transport::{
    flaky_loopback, loopback, ControlTransport, LoopbackEnd, TcpTransport, Transport,
    TransportError,
};

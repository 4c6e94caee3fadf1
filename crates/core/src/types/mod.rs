//! Shared identifier, path and observation types used across the workspace.

mod ids;
mod observation;
mod path;

pub use ids::{LinkId, NodeId, PathId, PathIdRange};
pub use observation::PathObservation;
pub use path::{PathRef, PathStore, Paths, ProbePath};

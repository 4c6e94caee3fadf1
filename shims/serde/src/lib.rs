//! Empty stub for `serde`: no type derives its traits, and JSON goes
//! through `detector_core::json`. It stays only while the manifests that
//! `benchmark/Cargo.lock` records still list it.

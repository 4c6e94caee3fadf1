//! Empty stub for `bytes`: the probe codec and its test oracle work on
//! plain slices. It stays only while the manifests that
//! `benchmark/Cargo.lock` records still list it.

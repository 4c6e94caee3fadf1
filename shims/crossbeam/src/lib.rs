//! Empty stub for `crossbeam`: the workspace takes its scoped threads
//! and channels from `std`. It stays only while the manifests that
//! `benchmark/Cargo.lock` records still list it.

//! Empty stub for `serde_derive`: it defines no derive. It stays only
//! while the `serde` stub, which `benchmark/Cargo.lock` records, lists
//! it.

//! Offline stand-in for the real `serde` crate.
//!
//! Provides marker `Serialize`/`Deserialize` traits and re-exports the no-op
//! derive macros from the sibling `serde_derive` shim. The traits carry no
//! methods: they exist so that `#[derive(Serialize, Deserialize)]` across the
//! workspace compiles and `T: Serialize` bounds are satisfiable. Swap these
//! shims for the real crates once registry access is available — no
//! workspace code needs to change.

pub use serde_derive::{Deserialize, Serialize};

/// Marker trait standing in for `serde::Serialize`.
pub trait Serialize {}

/// Marker trait standing in for `serde::Deserialize`.
///
/// The real trait is parameterised over a deserialiser lifetime
/// (`Deserialize<'de>`); no code in this workspace names that lifetime, so the
/// shim omits it.
pub trait Deserialize {}

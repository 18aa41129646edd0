//! End-to-end benchmark of the App Lab stack over the SPARQL Protocol.
//!
//! Two seeded workloads (`store_geographica` on the materialized store,
//! `obda_viewport` on the on-the-fly workflow) are served through the real wire plane
//! (`applab-http` → `applab-service` → an `applab-core` endpoint), every
//! answer is checked against the reference evaluator, and the run prints
//! its metrics as one JSON line. See `README.md` in this directory.

pub mod check;
pub mod drive;
pub mod idle;
pub mod inputs;
pub mod report;
pub mod run;
pub mod serve;
pub mod trace;

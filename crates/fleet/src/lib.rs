//! `fleet` — a concurrent reconfiguration service over simulated XHWIF
//! boards.
//!
//! The paper's closing argument for JPG is operational: a partial
//! bitstream is a *runtime* artifact, downloaded over and over while the
//! static design keeps running. This crate builds that runtime. A
//! [`ServingLibrary`] holds a base design plus per-region variant
//! catalogues and lazily generates each variant's bitstreams exactly
//! once into a content-addressed [`PartialStore`] keyed by
//! `(device, region, variant, base-epoch)`. A [`Fleet`] owns a pool of
//! [`simboard::SimBoard`]s behind [`jbits::Xhwif`] and drains a queue of
//! [`Request`]s — "run variant V in region R, step the clock, return the
//! pad outputs" — scheduling each onto the board that has to rewrite the
//! fewest frames (SelectMAP byte-cycle timing as the cost function),
//! then verifying every download by region-scoped readback compare with
//! retry + exponential backoff against injected port faults.
//!
//! [`ServeMode::FullSwap`] runs the identical service with complete
//! bitstreams per swap, so a benchmark can put a number on the paper's
//! claim: the partial fleet serves the same request stream with a small
//! fraction of the configuration traffic.

pub mod clock;
pub mod library;
pub mod metrics;
pub mod sched;
pub mod service;
pub mod sim;
pub mod store;
pub mod workload;

pub use clock::Vt;
pub use library::{RegionCatalog, ServingLibrary, VariantSlot};
pub use metrics::{Counter, FleetMetrics, Gauge, Histogram};
pub use sched::{
    Backend, DefragConfig, Outcome, OutcomeKind, Priority, Resident, SchedConfig, ServeMode,
    SimRequest, VerifyFlavor, VerifyPolicy,
};
pub use service::{Fleet, FleetConfig, FleetReport, Request, Response, WireFormat};
pub use sim::{simulate, simulate_trace, FleetSimSpec, SimReport};
pub use store::{PartialKey, PartialStore, StoredPartial};
pub use workload::TraceSpec;

/// Errors the service surfaces to callers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// The CAD workflow failed while building the library.
    Workflow(String),
    /// Bitstream generation failed for a library entry.
    Generate(String),
    /// A board rejected a configuration operation outside the retry
    /// loop (base-image download at fleet construction).
    Config(String),
    /// The request named a region or variant the library doesn't have.
    BadRequest(String),
    /// A request exhausted its download attempts.
    Exhausted {
        /// Attempts spent before giving up.
        attempts: u32,
        /// The final attempt's error.
        last: String,
    },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Workflow(m) => write!(f, "workflow error: {m}"),
            FleetError::Generate(m) => write!(f, "bitstream generation failed: {m}"),
            FleetError::Config(m) => write!(f, "board configuration failed: {m}"),
            FleetError::BadRequest(m) => write!(f, "bad request: {m}"),
            FleetError::Exhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts (last error: {last})")
            }
        }
    }
}

impl std::error::Error for FleetError {}

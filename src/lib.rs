//! # pnsym — symbolic analysis of Petri nets with dense SMC-based encodings
//!
//! `pnsym` is a reproduction of Pastor & Cortadella, *Efficient Encoding
//! Schemes for Symbolic Analysis of Petri Nets* (DATE 1998): BDD-based
//! reachability analysis of safe Petri nets whose state encoding is derived
//! from the net's State Machine Components, halving the variable count and
//! shrinking the BDDs compared to the conventional one-variable-per-place
//! scheme.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`net`] — Petri-net model, explicit reachability, benchmark generators
//!   ([`pnsym_net`]);
//! * [`structural`] — P-invariants, SMC extraction, unate covering
//!   ([`pnsym_structural`]);
//! * [`bdd`] — the BDD/ZDD package ([`pnsym_bdd`]);
//! * the paper's encoding schemes and symbolic engines at the crate root
//!   ([`pnsym_core`]).
//!
//! ## Quick start
//!
//! ```
//! use pnsym::net::nets::philosophers;
//! use pnsym::{analyze, AnalysisOptions};
//!
//! # fn main() -> Result<(), pnsym::AnalysisError> {
//! let net = philosophers(2);                       // the paper's Figure 4
//! let sparse = analyze(&net, &AnalysisOptions::sparse())?;
//! let dense = analyze(&net, &AnalysisOptions::dense())?;
//! assert_eq!(sparse.num_markings, 22.0);
//! assert_eq!(sparse.num_variables, 14);            // one variable per place
//! assert_eq!(dense.num_variables, 8);              // Table 1 of the paper
//! # Ok(())
//! # }
//! ```
//!
//! See the `examples/` directory for runnable walkthroughs and the
//! `pnsym-bench` crate for the harness that regenerates the paper's tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The decision-diagram substrate (BDDs and ZDDs).
pub use pnsym_bdd as bdd;
/// The Petri-net model, explicit reachability and benchmark generators.
pub use pnsym_net as net;
/// Structural theory: P-invariants, SMCs and covering.
pub use pnsym_structural as structural;

/// The `pnsymd` daemon: line-JSON protocol, warm-context pool, scheduler.
pub use pnsym_core::server;
pub use pnsym_core::{
    analyze, analyze_zdd, analyze_zdd_governed, analyze_zdd_with, build_encoding,
    toggling_activity, toggling_of_state_codes, AnalysisError, AnalysisOptions, AnalysisReport,
    AssignmentStrategy, Block, Budget, CheckReport, DegradationStep, Encoding, ExplicitChecker,
    FixpointStrategy, ImageCluster, ImagePlan, Interrupt, PassObserver, PortfolioReport,
    PreImagePlan, Property, PropertyParseError, ReachabilityResult, SchemeKind, SiftPolicy,
    SymbolicContext, TogglingReport, TraceKind, TransitionEffect, TraversalOptions,
    TruncationReason, WitnessTrace, ZddAnalysisReport, ZddContext, ZddReachabilityResult,
};
#[cfg(feature = "fault-inject")]
pub use pnsym_core::{DiskFaultSchedule, DiskFaultSite, FaultSchedule, FaultSite};

/// Commonly used items for quick scripting against the library.
pub mod prelude {
    pub use crate::bdd::{BddManager, Ref, VarId, ZddManager};
    pub use crate::net::nets;
    pub use crate::net::{Marking, NetBuilder, PetriNet, PlaceId, TransitionId};
    pub use crate::structural::{
        find_smcs, minimal_invariants, select_smc_cover, CoverStrategy, Smc,
    };
    pub use crate::{
        analyze, analyze_zdd, AnalysisOptions, AssignmentStrategy, Encoding, FixpointStrategy,
        Property, SchemeKind, SymbolicContext, TraversalOptions, WitnessTrace,
    };
}

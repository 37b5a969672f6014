//! Join operators. All joins buffer their inputs (paper §3.4: "every plan
//! must buffer the source data fed into it at the leaves... we also extend
//! the other join forms to do buffering"), which is what makes their state
//! available to stitch-up plans.

pub mod batch;
pub mod hybrid_hash;
pub mod merge;
pub mod nested_loops;
pub mod pipelined_hash;

pub use hybrid_hash::HybridHashJoin;
pub use merge::MergeJoin;
pub use nested_loops::NestedLoopsJoin;
pub use pipelined_hash::PipelinedHashJoin;

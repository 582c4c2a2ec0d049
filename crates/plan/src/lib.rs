//! `chimera-plan` — closing the hybrid loop: evidence-driven weak-lock
//! demotion with certified, replayable plans.
//!
//! Chimera's pipeline so far runs *open-loop*: RELAY's sound-but-imprecise
//! static race pairs decide the weak-lock plan, the fleet sweeps the
//! instrumented program across hostile schedules, FastTrack measures a
//! false-positive ratio — and none of that dynamic knowledge ever flows
//! back into the plan. This crate closes the loop (the paper's §6
//! overhead arc: 53x naive instrumentation down to 1.39x once detection
//! narrows what must be serialized):
//!
//! 1. [`gather_evidence`] sweeps the instrumented program across
//!    `strategies × seeds` (the fleet's shared `Grid` sweep), FastTracks
//!    both program variants per cell, and packages the result as a
//!    checksummed [`Evidence`] container (`.chev`) with a DRD
//!    [`chimera_drd::SegmentCertificate`].
//! 2. [`demote`] turns evidence into a [`CertifiedPlan`] (`.chpl`): every
//!    static pair that stayed race-free across the whole hostile sweep is
//!    demoted to unsynchronized access; coverage below `--min-seeds` /
//!    `--min-strategies`, a missing certificate, unclean cells, or a
//!    statically-unpredicted dynamic race **refuse** demotion with a
//!    named [`Refusal`]. The plan stores only demotion's inputs, the
//!    evidence and the thresholds; decoding re-runs [`demote`].
//! 3. [`apply_plan`] re-instruments with the demoted pairs stripped
//!    (digest-checked against the certified program and instrumentation),
//!    and [`verify_under_plan`] re-checks FastTrack + record/replay under
//!    the thinner plan — any divergence names the demoted pair it
//!    contradicts ([`Contradiction`]).
//!
//! Both are containers of the shared codec `chimera_replay::wire`
//! (DESIGN.md §12): hostile bytes fail with an error naming the container
//! and section, never a panic, and a plan decodes only if its own
//! evidence certifies it under its own thresholds.

#![warn(missing_docs)]

pub mod demote;
pub mod evidence;

pub use demote::{
    apply_plan, demote, verify_under_plan, CertifiedPlan, Contradiction, Refusal, Thresholds,
    PLAN_EXT, PLAN_MAGIC, PLAN_VERSION,
};
pub use evidence::{
    gather_evidence, Evidence, EvidenceCell, GatherConfig, EVIDENCE_EXT, EVIDENCE_MAGIC,
    EVIDENCE_VERSION,
};

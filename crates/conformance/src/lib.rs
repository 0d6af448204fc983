//! # conformance — the differential conformance harness
//!
//! Three independent checks over the whole bitstream pipeline, all
//! driven from reproducible integer seeds:
//!
//! * [`campaign`] — seeded random JBits write campaigns (LUT tables,
//!   BRAM content, raw configuration-plane pokes) over devices from
//!   XCV50 to XCV1000;
//! * [`harness`] — the differential core: every campaign runs through
//!   the partial emitter on fresh and recycled buffers (asserting
//!   byte-identical output), is played onto a device-side interpreter
//!   under honest and adversarial schedules, and is readback-compared
//!   against the in-memory oracle;
//! * [`fuzz`] — structured packet-level fuzzing of the interpreter:
//!   truncations, bad opcodes, CRC corruption, duplicate SYNC — every
//!   corruption must surface a typed [`bitstream::ConfigError`] with a
//!   byte offset, never a panic, never silent acceptance;
//! * [`mutation`] — the harness's own self-check: ten seeded generator
//!   bugs that the checks above must catch (the CI gate requires at
//!   least nine of ten detected);
//! * [`reloc_trio`] — seeded relocation cases: every relocated partial
//!   must be byte-identical to a fresh-at-target generation, land the
//!   oracle's device state through the interpreter, and reject
//!   incompatible shifts with a typed [`reloc::RelocError`];
//! * [`wire_trio`] — seeded wire-container cases: every `JWC1` encoding
//!   must round-trip byte-identically, stream-apply to the same device
//!   state as the plain partial (delta sections included), and reject
//!   corrupted containers with a typed [`wire::WireError`] carrying an
//!   in-bounds offset;
//! * [`verify_trio`] — seeded verify-path cases: the tiered digest
//!   verify must match the raw readback compare output-for-output on
//!   clean boards, catch exactly the corruptions the raw compare
//!   catches (digest mismatches escalate, they never fail a request by
//!   themselves), and pull several times fewer readback bytes;
//! * [`xdl_fuzz`] — seeded XDL front-end cases: byte-mutated and
//!   grammar-aware XDL + UCF files (off-device, negative and huge
//!   coordinates, corner and wrong-kind sites, unknown PIPs, duplicate
//!   instances, regions outside the die) must end translated or as a
//!   typed parse, UCF or translate error, never a panic.
//!
//! Any failure reproduces from `Campaign::generate(seed)` — the seed is
//! printed in every [`harness::Failure`].

pub mod campaign;
pub mod fuzz;
pub mod harness;
pub mod mutation;
pub mod reloc_trio;
pub mod verify_trio;
pub mod wire_trio;
pub mod xdl_fuzz;

pub use campaign::{Campaign, CampaignOp};
pub use fuzz::{fuzz_case, Corruption};
pub use harness::{run_batch, run_case, run_project_case, CaseOutcome, Failure, Schedule};
pub use mutation::{self_check, SeededBug};
pub use reloc_trio::{reloc_case, RelocOutcome, RELOC_DEVICES};
pub use verify_trio::{verify_case, VerifyCaseOutcome};
pub use wire_trio::{wire_case, WireOutcome, WIRE_DEVICES};
pub use xdl_fuzz::{xdl_fuzz_case, FrontEnd};

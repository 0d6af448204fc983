//! # jbits — a JBits-style configuration API in Rust
//!
//! Xilinx JBits gives programmers resource-level `get`/`set` access to a
//! Virtex bitstream: LUT truth tables, slice muxes, routing PIPs — each
//! addressed by `(row, column, resource)` and backed by specific bits in
//! specific configuration frames. This crate reproduces that surface:
//!
//! * [`layout`] — the deterministic mapping from `(tile, resource)` and
//!   `(tile, pip)` to `(frame, bit)`. The real silicon map was never
//!   published; ours is derived from the canonical resource and PIP
//!   enumerations of the `virtex` crate and documented here, which is all
//!   the JPG experiments require (every size/time ratio is
//!   layout-independent). The map is fixed by the device, so there is one
//!   immutable [`Layout`] per device ([`Layout::of`]), shared by every
//!   session in the process; each tile's window fills lazily on first
//!   touch and is lock-free to read after.
//! * [`api`] — the [`Jbits`] object: open a device or a bitstream,
//!   `set`/`get` resources, and extract **partial bitstreams** from the
//!   frames dirtied since the last sync — the primitive JPG is built on.
//!   A session is a configuration image over the shared layout, so
//!   opening one builds nothing and every read takes `&self`.
//! * [`xhwif`] — the XHWIF-style board abstraction JBits uses to push
//!   (partial) bitstreams into real hardware; implemented by `simboard`.
//!
//! ```
//! use virtex::{Device, TileCoord, SliceId, LutId};
//! use jbits::Jbits;
//!
//! let mut jb = Jbits::new(Device::XCV50);
//! let tile = TileCoord::new(3, 5);
//! jb.set_lut(tile, SliceId::S0, LutId::G, 0x6996); // XOR-ish table
//! assert_eq!(jb.get_lut(tile, SliceId::S0, LutId::G), 0x6996);
//!
//! // Only the touched column is dirty.
//! let partial = jb.partial_bitstream(jbits::Granularity::Column);
//! let full = bitstream::full_bitstream(jb.memory());
//! assert!(partial.byte_len() < full.byte_len() / 10);
//! ```

pub mod api;
pub mod core;
pub mod layout;
pub mod xhwif;

pub use api::{expand_to_columns, Granularity, Jbits};
pub use core::{CoreError, RtpCore};
pub use layout::{BitPos, Layout};
pub use xhwif::Xhwif;

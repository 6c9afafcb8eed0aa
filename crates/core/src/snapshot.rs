//! The container header shared by every session snapshot record.
//!
//! Deliberately serde-free: a snapshot is a short-lived operational
//! artifact (suspend an in-flight evaluation, ship it to another
//! worker, resume), not an interchange format, so the encoding is a
//! hand-rolled little-endian byte stream with an explicit version tag,
//! written and read through [`kgae_sampling::codec`] — the same codec
//! the design drivers use for the state they embed in the record.

/// The shared container magic of every snapshot record — plain session
/// records (design tags 0–3) and the stratified coordinator record
/// (tag 4) carry the same header, so the constants live in one place.
pub(crate) const SNAPSHOT_MAGIC: &[u8; 8] = b"KGAESNAP";
/// The shared container version; bumping it re-gates every record type
/// at once.
pub(crate) const SNAPSHOT_VERSION: u16 = 1;

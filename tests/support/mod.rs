//! Shared helpers for the integration tests. Each `tests/*.rs` file is its
//! own crate; the ones that need the black-box serializability checker
//! declare `mod support;` and get this module compiled in. Not every test
//! crate uses every item, hence the blanket `dead_code` allowance.
#![allow(dead_code)]

pub mod fixtures;
pub mod history;

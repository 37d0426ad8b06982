//! Integration-test-only crate; see the `tests/` directory.

#![forbid(unsafe_code)]

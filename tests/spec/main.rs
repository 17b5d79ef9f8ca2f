//! An executable specification of the paper's results, checked against the
//! production pipeline.
//!
//! Each module computes one result straight from the paper's definition:
//! address-keyed `BTreeMap`s over the resolved transfers, with no dense ids,
//! no caches, no parallelism and no assumption about how the store lays out
//! its rows. It is slow and plainly correct, so a change to a production fold
//! is judged against it rather than against that fold's previous output.

mod table1;
